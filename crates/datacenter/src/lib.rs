#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `datacenter` — warehouse-scale simulation (Section V-E)
//!
//! The paper's final experiments ask what PC3D co-location is worth at
//! warehouse scale: how many servers a 10k-machine cluster saves
//! (Figure 17) and what that does to energy efficiency under a linear
//! CPU-utilization power model (Figure 18).
//!
//! This crate answers that two ways:
//!
//! * [`analytic`] — the original closed-form model: pure arithmetic over
//!   three measured scalars per (batch, LS) pair. Cheap, and kept as an
//!   independent cross-check.
//! * [`cluster`] + [`scaleout`] — a discrete-event simulation of the
//!   warehouse itself: an [`event::EventQueue`] drives thousands of
//!   simulated servers, each lazily instantiating a cycle-accurate
//!   [`simos::Os`] box only while active; diurnal and bursty [`qps`]
//!   shapes feed the load balancer; batch jobs arrive, get placed, and
//!   run under per-server PC3D controllers; and Figures 17–18 fall out
//!   of the simulated event streams instead of assumed utilizations.
//!
//! Determinism is load-bearing: all cluster decisions happen serially in
//! event `(time, seq)` order, and the epoch fan-out contract
//! ([`cluster::SliceExec`]) requires results back in input order, so a
//! pinned-seed run is bit-identical whether server boxes advance on one
//! thread or many. CI diffs a serial run against a parallel one on every
//! push.

pub mod analytic;
pub mod cluster;
pub mod event;
pub mod qps;
pub mod scaleout;
pub mod server;

pub use analytic::{
    analyze, mix_by_name, Mix, PairMeasurement, PowerModel, ScaleOutResult, LS_APPS, MIXES,
};
pub use cluster::{
    serial_exec, BatchMode, Cluster, ClusterConfig, ClusterResult, GroupResult, GroupSpec,
    Placement, SliceExec, SliceJob,
};
pub use event::{Cycles, Event, EventQueue};
pub use qps::QpsShape;
pub use scaleout::{fig17_18, solo_batch_rate, Fig1718, GroupRow, ScaleOutScenario, SoloBatchRate};
pub use server::{Server, ServerSpec, ServerStats};
