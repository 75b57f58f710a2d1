#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `machine` — the simulated multicore server
//!
//! An execution-driven timing simulator for VISA code, standing in for the
//! paper's quad-core AMD Phenom II X4 testbed. It models what the paper's
//! experiments depend on:
//!
//! * **In-order cores** with a simple additive timing model (1 cycle per
//!   instruction plus memory-stall cycles), one hardware context per core.
//! * **A three-level cache hierarchy**: private L1/L2 per core and a
//!   **shared, inclusive-free LLC** — the contended resource PC3D manages.
//!   Non-temporal fills ([`visa::Op::PrefetchNta`]) bypass the LLC or
//!   insert at LRU position, per [`NtPolicy`]. Each level is a true-LRU
//!   [`Cache`] whose set visit compares full tags and is unrolled for
//!   every way count the shipped configurations use.
//! * **Hardware performance counters** per context: cycles, instructions,
//!   branches, cache hits/misses — everything the protean runtime's
//!   introspection/extrospection reads.
//! * **A binary-translation execution mode** ([`BtState`]) reproducing the
//!   DynamoRIO baseline of Figure 4: all execution flows from a translation
//!   cache, paying per-block translation and per-branch dispatch costs.
//!
//! The `simos` crate owns processes and scheduling; it calls
//! [`exec::run`] to advance one context by a cycle budget.
//!
//! # Example
//!
//! ```
//! use machine::{AccessKind, MachineConfig, MemorySystem, PerfCounters};
//!
//! let config = MachineConfig::scaled();
//! let mut mem = MemorySystem::new(&config);
//! let mut counters = PerfCounters::default();
//! // A cold miss pays the full memory latency; a re-access hits L1.
//! let cold = mem.access(0, 0x4000, AccessKind::Load, &mut counters);
//! let warm = mem.access(0, 0x4000, AccessKind::Load, &mut counters);
//! assert_eq!(cold, config.mem_latency);
//! assert_eq!(warm, 0);
//! // Non-temporal prefetches never pollute the shared LLC (Bypass policy).
//! mem.access(1, 0x8000, AccessKind::NonTemporalPrefetch, &mut counters);
//! assert_eq!(mem.llc_occupancy_where(|line| line == 0x8000 >> 6), 0);
//! ```

pub mod cache;
pub mod config;
pub mod counters;
pub mod exec;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats, InsertPos};
pub use config::{BtConfig, CostModel, MachineConfig, NtPolicy, PrefetcherConfig};
pub use counters::PerfCounters;
pub use exec::{
    BlockCache, BtState, DecodeStats, ExecContext, ExecEnv, ExecStatus, RunResult, StopReason,
};
pub use hierarchy::{AccessKind, MemorySystem};

/// Composes a per-process physical address from a small address-space id
/// and a virtual address, so distinct processes never alias in the shared
/// LLC.
///
/// # Panics
///
/// Debug-asserts that `vaddr` fits in 40 bits.
#[inline]
pub fn phys_addr(space: u16, vaddr: u64) -> u64 {
    debug_assert!(
        vaddr < (1 << 40),
        "virtual address {vaddr:#x} exceeds 40 bits"
    );
    (u64::from(space) << 40) | vaddr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_separates_spaces() {
        assert_ne!(phys_addr(1, 0x100), phys_addr(2, 0x100));
        assert_eq!(phys_addr(0, 0x100), 0x100);
        assert_eq!(phys_addr(3, 0) >> 40, 3);
    }
}
