#![warn(missing_docs)]

//! # `pc3d` — Protean Code for Cache Contention in Datacenters
//!
//! The paper's Section IV system: a protean-code decision engine that
//! dynamically inserts and removes non-temporal memory-access hints on a
//! batch host's loads, mixed with napping as a fallback, so that a
//! high-priority co-runner meets its QoS target while the host's
//! throughput is maximized.
//!
//! The pieces map to the paper directly:
//!
//! * [`heuristics`] — Section IV-C's search-space reduction: *exclude
//!   uncovered code* (PC samples), *prioritize hotter code*, *only
//!   innermost loops* (IR loop analysis). Produces the Figure 8 report.
//! * [`bisect`] — Section IV-E's binary search over nap intensities
//!   (Algorithm 2's control skeleton), exploiting monotonicity of
//!   performance in nap intensity.
//! * [`controller`] — Algorithm 1's greedy variant search plus the
//!   steady-state loop: co-phase detection, variant dispatch through
//!   the protean runtime, and napping. Flux-based solo estimation
//!   (Section IV-F), the QoS rule and the nap trim are the ReQoS law
//!   of [`protean::nap`], which is also the whole policy of the
//!   `Degraded`/`Detached` rungs — the same code the `reqos` baseline
//!   runs standalone.
//!
//! # Example
//!
//! ```no_run
//! use pc3d::{Pc3d, Pc3dConfig};
//! use pcc::{Compiler, Options};
//! use protean::{Runtime, RuntimeConfig};
//! use simos::{LoadSchedule, Os, OsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = OsConfig::scaled();
//! let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
//! let service = workloads::catalog::build("web-search", llc).expect("catalog");
//! let batch = workloads::catalog::build("libquantum", llc).expect("catalog");
//! let service_img = Compiler::new(Options::plain()).compile(&service)?.image;
//! let batch_img = Compiler::new(Options::protean()).compile(&batch)?.image;
//!
//! let mut os = Os::new(cfg);
//! let ws = os.spawn(&service_img, 0);
//! let lq = os.spawn(&batch_img, 1);
//! os.set_load(ws, LoadSchedule::constant(80.0));
//! let rt = Runtime::attach(&os, lq, RuntimeConfig::on_core(2))?;
//! let mut ctl = Pc3d::new(&mut os, rt, ws, Pc3dConfig { qos_target: 0.95, ..Default::default() });
//! ctl.run_for(&mut os, 120.0);
//! println!("variant carries {} hints at nap {:.2}", ctl.hints(), ctl.nap());
//! # Ok(())
//! # }
//! ```

pub mod bisect;
pub mod controller;
pub mod heuristics;

pub use bisect::NapBisection;
pub use controller::{Pc3d, Pc3dConfig, WindowRecord};
pub use heuristics::{select_candidates, select_candidates_with, HeuristicReport};
