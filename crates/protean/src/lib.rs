#![warn(missing_docs)]

//! # `protean` — the Protean Code runtime
//!
//! The paper's primary contribution (Section III-B): a runtime system that
//! attaches to a running protean binary and can generate, dispatch, and
//! revoke code variants **asynchronously**, while the program keeps
//! executing — overhead lives only in the virtualized edges, not in any
//! interposition on the program's control flow.
//!
//! The pieces, mirroring Figure 1's right-hand side:
//!
//! * **Runtime initialization** ([`Runtime::attach`]): discovers the
//!   structures `pcc` embedded — reads the meta root from process data
//!   memory, decompresses and decodes the IR + link annex, and indexes the
//!   EVT.
//! * **Code generation and dispatch** ([`Runtime::compile_variant`],
//!   [`Runtime::dispatch`]): the runtime compiler (the `pcc` backend)
//!   lowers a transformed function into the process's code cache; the EVT
//!   manager then redirects the function's virtualized edges with a single
//!   atomic 8-byte write. Compilation cycles are charged to the runtime's
//!   core through the OS ([`CompileCostModel`]), making the overhead
//!   experiments of Figures 5-7 meaningful.
//! * **Variant safety** ([`safety`]): before any EVT write, the dispatcher
//!   statically vets the variant against the module recovered from the
//!   process image — a cheap syntactic tier admits locality-only variants
//!   outright, and anything else must be proved equivalent modulo
//!   non-temporal hints by the [`pir::equiv`] translation validator.
//!   Unproved or refuted variants are refused with
//!   [`DispatchError::UnsafeVariant`](runtime::DispatchError); verdict
//!   cache and refusal counts land in the runtime's metric registry as
//!   `gate.*` counters.
//! * **Monitoring** ([`monitor`]): introspection (PC sampling → hot
//!   functions; HPM windows → IPC/BPC) and extrospection (co-runner HPM
//!   and application-level metrics).
//! * **Phase analysis** ([`phase`]): detects host phase and co-phase
//!   changes from monitoring windows.
//! * **Decision engines**: [`stress::StressEngine`] reproduces the
//!   recompilation stress tests (Figures 5-6); PC3D (its own crate) is the
//!   full contention-mitigation engine.
//! * **The nap law** ([`nap`]): ReQoS's flux probe, QoS rule and
//!   proportional nap step, shared by the `reqos` baseline (which runs
//!   it standalone) and PC3D (its nap trim and nap-only fallback).
//! * **Fault injection & self-healing** ([`faults`], [`health`]): a
//!   seeded [`FaultPlan`] injects compile failures/stalls, EVT-write
//!   drops, code-cache corruption, and garbled observations; the
//!   [`HealthMonitor`] answers with quarantine, backoff retries, a
//!   compile watchdog, checksum scrubbing, and the
//!   `Healthy → Degraded → Detached` degradation ladder — on any failure
//!   the original code keeps executing.
//! * **Observability** ([`trace`], [`metrics`]): every decision point
//!   above emits a cycle-stamped [`trace::TraceEvent`] into per-subsystem
//!   ring buffers (drop-oldest, counted), exportable as Chrome-trace JSON
//!   or flat JSONL via [`Runtime::export_trace`](runtime::Runtime::export_trace)
//!   / the `PROTEAN_TRACE` env hook; a [`metrics::Registry`] of counters,
//!   gauges, and histograms is the one metrics surface of every layer,
//!   rendered for operators by [`MonitorReport`]. No wall clock anywhere
//!   — traces from same-seed runs are bit-identical.
//! * **[`systems`]**: the qualitative comparison matrix of Table I.

pub mod cost;
pub mod faults;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod nap;
pub mod osr;
pub mod phase;
pub mod runtime;
pub mod safety;
pub mod stress;
pub mod systems;
pub mod trace;

pub use cost::CompileCostModel;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use health::{HealthConfig, HealthMonitor, HealthState};
pub use metrics::{Histogram, HistogramSummary, Registry, Snapshot};
pub use monitor::{ExtMonitor, HostMonitor, MonitorReport, WindowStats};
pub use osr::{OsrConfig, OsrController, OsrError};
pub use phase::{PhaseChange, PhaseDetector};
pub use runtime::{AttachError, DispatchError, Runtime, RuntimeConfig, VariantRecord};
pub use safety::{check_variant, code_checksum, vet_variant, VariantVerdict};
pub use stress::StressEngine;
pub use trace::{EventKind, Subsystem, TraceEvent, TraceFiles, Tracer};
