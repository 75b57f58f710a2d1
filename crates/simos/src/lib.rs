#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `simos` — the simulated operating system
//!
//! Owns processes, cores, time, and the observation/control surface that
//! the protean runtime uses, standing in for Linux in the paper's stack:
//!
//! * **Loader** ([`process`]): turns a [`visa::Image`] into a pinned
//!   process with its own address space.
//! * **Scheduler** ([`Os::advance`]): quantum-interleaves the cores of the
//!   shared-LLC machine; supports **napping** (duty-cycle throttling, the
//!   ReQoS mechanism), **freezing** (the flux measurement of Section IV-F),
//!   and **runtime-work accounting** (compilation cycles charged to a
//!   core, so Figures 5-7's overhead experiments are meaningful).
//! * **ptrace-like PC sampling** ([`Os::sample_pc`]) and **perf-counter
//!   reads** ([`Os::counters`]) for introspection/extrospection.
//! * **Shared-memory pokes** ([`Os::write_mem`]) — how the EVT manager
//!   redirects edges with a single 8-byte write.
//! * **Code-cache mapping** ([`Os::append_text`]) — how new code variants
//!   become reachable.
//! * **Load generation** ([`loadgen`]): offered-QPS schedules for
//!   latency-sensitive servers that park in [`visa::Op::Wait`].
//!
//! # Example
//!
//! ```
//! use simos::{Os, OsConfig};
//! use visa::{Image, Op, PReg};
//!
//! // A two-instruction program: set a register, halt.
//! let image = Image {
//!     name: "demo".into(),
//!     entry: 0,
//!     text: vec![Op::Movi { dst: PReg(0), imm: 42 }, Op::Halt],
//!     data: vec![0u8; 64],
//!     funcs: vec![],
//!     globals: vec![],
//!     evt: vec![],
//!     meta: None,
//! };
//! let mut os = Os::new(OsConfig::small());
//! let pid = os.spawn(&image, 0);
//! os.advance(1_000);
//! assert!(matches!(os.status(pid), machine::ExecStatus::Halted));
//! assert_eq!(os.counters(pid).instructions, 2);
//! ```

pub mod loadgen;
pub mod os;
pub mod process;

pub use loadgen::LoadSchedule;
pub use os::{LatencyStats, ObsEvent, ObsEventKind, ObsFaults, Os, OsConfig};
pub use process::{Pid, Process};

/// Number of application-metric channels each process exposes.
pub const METRIC_CHANNELS: usize = 8;
