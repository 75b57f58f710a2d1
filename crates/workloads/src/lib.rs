#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `workloads` — benchmark program generators
//!
//! The paper evaluates on SPEC CPU2006, PARSEC, CloudSuite, and
//! SmashBench — none of which can be run on the simulated substrate (and
//! SPEC is proprietary). This crate procedurally generates PIR programs
//! named after the paper's applications, matched on the properties the
//! experiments actually depend on:
//!
//! * **Static load counts** (Figure 8's parenthesized numbers, e.g.
//!   soplex 15666, sphinx3 4963) and their split across hot / warm / cold
//!   code, so the search-space-reduction heuristics reproduce.
//! * **Memory behaviour**: each batch benchmark mixes *streaming* (no
//!   reuse — cache-polluting, NT-friendly), *resident* (LLC-reusing —
//!   NT-hostile), *random*, and *pointer-chasing* access patterns in
//!   proportions chosen per application class, so contentiousness and
//!   sensitivity gradients match the paper's qualitative behaviour.
//! * **Latency-sensitive servers** ([`server`]): open-loop query servers
//!   (web-search, media-streaming, graph-analytics) that park in `Wait`
//!   between requests and report served queries on metric channel 0;
//!   their QoS degrades when co-runner cache pressure pushes them past
//!   saturation — the paper's mechanism.
//!
//! Working-set sizes are expressed relative to the machine's LLC so the
//! same generators work at any simulation scale.
//!
//! # Example
//!
//! ```
//! // Build the paper's soplex analogue for a 2048-line LLC: its static
//! // load count matches Figure 8's published 15666.
//! let module = workloads::catalog::build("soplex", 2048).expect("known benchmark");
//! assert_eq!(module.load_count(), 15666);
//! assert!(pir::verify::verify_module(&module).is_ok());
//! ```

pub mod batch;
pub mod catalog;
pub mod longloop;
pub mod server;

pub use batch::{build_batch, BatchSpec};
pub use catalog::{batch_names, by_name, ls_names, Workload, WorkloadKind, CATALOG};
pub use longloop::{build_long_loop, build_long_loop_spec, LongLoopSpec};
pub use server::{build_server, ServerSpec};
