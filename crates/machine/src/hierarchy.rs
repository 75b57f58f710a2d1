//! The three-level memory hierarchy: private L1/L2, shared LLC.

use crate::cache::{Cache, InsertPos};
use crate::config::{MachineConfig, NtPolicy, PrefetcherConfig};
use crate::counters::PerfCounters;

/// Kind of memory access, determining fill policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand load (8 bytes).
    Load,
    /// Store (write-allocate, write-back; occupancy-equivalent to a load).
    Store,
    /// Non-temporal prefetch: fills L1 normally but bypasses or
    /// LRU-inserts at the LLC, and skips L2, minimizing pollution of the
    /// shared levels — the paper's `prefetchnta` semantics.
    NonTemporalPrefetch,
}

/// The cache hierarchy shared by all cores of the machine.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    line_shift: u32,
    l2_latency: u64,
    l3_latency: u64,
    mem_latency: u64,
    nt_policy: NtPolicy,
    prefetcher: PrefetcherConfig,
}

impl MemorySystem {
    /// Builds the hierarchy for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(config: &MachineConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        MemorySystem {
            l1: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..config.cores).map(|_| Cache::new(config.l2)).collect(),
            l3: Cache::new(config.l3),
            line_shift: config.line_bytes.trailing_zeros(),
            l2_latency: config.l2_latency,
            l3_latency: config.l3_latency,
            mem_latency: config.mem_latency,
            nt_policy: config.nt_policy,
            prefetcher: config.prefetcher,
        }
    }

    /// Issues next-line hardware prefetches after a demand L1 miss: the
    /// following `degree` lines are brought into L2/LLC in the background
    /// (no stall charged — the model assumes timely prefetch).
    fn hw_prefetch(&mut self, core: usize, line: u64, counters: &mut PerfCounters) {
        for d in 1..=u64::from(self.prefetcher.degree) {
            let target = line.wrapping_add(d);
            if self.l1[core].probe(target) || self.l2[core].probe(target) {
                continue;
            }
            counters.hw_prefetches += 1;
            self.l2[core].fill(target, InsertPos::Mru);
            if !self.l3.probe(target) {
                self.l3.fill(target, InsertPos::Mru);
            }
        }
    }

    /// Performs an access from `core` to physical byte address `paddr`,
    /// updating `counters` and returning the stall cycles beyond the base
    /// instruction cost.
    #[inline]
    pub fn access(
        &mut self,
        core: usize,
        paddr: u64,
        kind: AccessKind,
        counters: &mut PerfCounters,
    ) -> u64 {
        let line = paddr >> self.line_shift;
        if let AccessKind::NonTemporalPrefetch = kind {
            counters.nt_prefetches += 1;
        }
        // Demand path with the prefetcher off (the default): every miss
        // at a level is followed by a fill of the same line at that
        // level, so each level's lookup and fill fuse into one set visit.
        // Per-cache op sequences (recency orders, stats, victim choices)
        // are bit-identical to the unfused chain below — the caches share
        // no state, so reordering *across* levels changes nothing.
        if !self.prefetcher.enabled {
            return self.access_fused(core, line, kind, counters);
        }
        if self.l1[core].lookup(line) {
            return 0;
        }
        counters.l1_misses += 1;
        if self.prefetcher.enabled && matches!(kind, AccessKind::Load) {
            self.hw_prefetch(core, line, counters);
        }
        if self.l2[core].lookup(line) {
            self.l1[core].fill(line, InsertPos::Mru);
            return self.l2_latency;
        }
        counters.l2_misses += 1;
        if self.l3.lookup(line) {
            counters.llc_hits += 1;
            self.l1[core].fill(line, InsertPos::Mru);
            if !matches!(kind, AccessKind::NonTemporalPrefetch) {
                self.l2[core].fill(line, InsertPos::Mru);
            }
            return self.l3_latency;
        }
        counters.llc_misses += 1;
        // Fill from memory.
        self.l1[core].fill(line, InsertPos::Mru);
        match kind {
            AccessKind::Load | AccessKind::Store => {
                self.l2[core].fill(line, InsertPos::Mru);
                self.l3.fill(line, InsertPos::Mru);
            }
            AccessKind::NonTemporalPrefetch => match self.nt_policy {
                NtPolicy::Bypass => {}
                NtPolicy::LruInsert => {
                    self.l3.fill(line, InsertPos::Lru);
                }
            },
        }
        self.mem_latency
    }

    /// The fused demand path: one set visit per level via
    /// [`Cache::lookup_or_fill`]. Only reachable with the hardware
    /// prefetcher disabled, so the prefetch hook (which must observe
    /// pre-fill state at the levels it probes) never interleaves here.
    #[inline]
    fn access_fused(
        &mut self,
        core: usize,
        line: u64,
        kind: AccessKind,
        counters: &mut PerfCounters,
    ) -> u64 {
        // Every access kind fills L1 at MRU on a miss.
        if self.l1[core].lookup_or_fill(line, InsertPos::Mru) {
            return 0;
        }
        counters.l1_misses += 1;
        match kind {
            AccessKind::Load | AccessKind::Store => {
                if self.l2[core].lookup_or_fill(line, InsertPos::Mru) {
                    return self.l2_latency;
                }
                counters.l2_misses += 1;
                if self.l3.lookup_or_fill(line, InsertPos::Mru) {
                    counters.llc_hits += 1;
                    return self.l3_latency;
                }
                counters.llc_misses += 1;
                self.mem_latency
            }
            AccessKind::NonTemporalPrefetch => {
                // NT accesses never fill L2, and fill the LLC only under
                // the LRU-insert policy — plain lookups at those levels.
                if self.l2[core].lookup(line) {
                    return self.l2_latency;
                }
                counters.l2_misses += 1;
                if self.l3.lookup(line) {
                    counters.llc_hits += 1;
                    return self.l3_latency;
                }
                counters.llc_misses += 1;
                if let NtPolicy::LruInsert = self.nt_policy {
                    self.l3.fill(line, InsertPos::Lru);
                }
                self.mem_latency
            }
        }
    }

    /// Number of LLC lines whose physical address satisfies `pred`
    /// (typically "belongs to address space N") — the occupancy PC3D's
    /// transformations reduce.
    pub fn llc_occupancy_where(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.l3.occupancy_where(pred)
    }

    /// Shared-LLC statistics.
    pub fn llc_stats(&self) -> crate::cache::CacheStats {
        self.l3.stats()
    }

    /// LLC capacity in lines.
    pub fn llc_capacity(&self) -> usize {
        self.l3.capacity()
    }

    /// Read access to one core's L1 (tests/diagnostics).
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1[core]
    }

    /// Read access to one core's L2 (tests/diagnostics).
    pub fn l2(&self, core: usize) -> &Cache {
        &self.l2[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> (MemorySystem, PerfCounters) {
        (
            MemorySystem::new(&MachineConfig::small()),
            PerfCounters::default(),
        )
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let (mut m, mut c) = sys();
        let stall = m.access(0, 0x1000, AccessKind::Load, &mut c);
        assert_eq!(stall, 180);
        assert_eq!(c.llc_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let (mut m, mut c) = sys();
        m.access(0, 0x1000, AccessKind::Load, &mut c);
        let stall = m.access(0, 0x1008, AccessKind::Load, &mut c);
        assert_eq!(stall, 0, "same line must hit L1");
        assert_eq!(c.llc_misses, 1);
    }

    #[test]
    fn cross_core_sharing_via_llc() {
        let (mut m, mut c) = sys();
        m.access(0, 0x2000, AccessKind::Load, &mut c);
        let stall = m.access(1, 0x2000, AccessKind::Load, &mut c);
        assert_eq!(stall, 30, "other core should hit the shared LLC");
        assert_eq!(c.llc_hits, 1);
    }

    #[test]
    fn nt_prefetch_bypasses_llc() {
        let (mut m, mut c) = sys();
        m.access(0, 0x3000, AccessKind::NonTemporalPrefetch, &mut c);
        assert_eq!(
            m.llc_occupancy_where(|_| true),
            0,
            "bypass policy fills no LLC line"
        );
        // But L1 got the line: a subsequent load hits.
        let stall = m.access(0, 0x3000, AccessKind::Load, &mut c);
        assert_eq!(stall, 0);
        assert_eq!(c.nt_prefetches, 1);
    }

    #[test]
    fn nt_lru_insert_policy_fills_llc_at_lru() {
        let mut cfg = MachineConfig::small();
        cfg.nt_policy = NtPolicy::LruInsert;
        let mut m = MemorySystem::new(&cfg);
        let mut c = PerfCounters::default();
        m.access(0, 0x3000, AccessKind::NonTemporalPrefetch, &mut c);
        assert_eq!(m.llc_occupancy_where(|_| true), 1);
    }

    #[test]
    fn store_allocates_like_load() {
        let (mut m, mut c) = sys();
        let stall = m.access(0, 0x4000, AccessKind::Store, &mut c);
        assert_eq!(stall, 180);
        assert_eq!(m.llc_occupancy_where(|_| true), 1);
        assert_eq!(m.access(0, 0x4000, AccessKind::Load, &mut c), 0);
    }

    #[test]
    fn llc_contention_between_spaces() {
        // Space 1 installs a working set; space 2 streams with normal
        // loads and displaces it; with NT prefetches it does not.
        let displaced = |nt: bool| {
            let (mut m, mut c) = sys();
            let llc_lines = m.llc_capacity() as u64;
            // Space 1: resident set = half the LLC.
            for i in 0..llc_lines / 2 {
                m.access(0, crate::phys_addr(1, i * 64), AccessKind::Load, &mut c);
            }
            // Space 2: stream 4x the LLC.
            for i in 0..llc_lines * 4 {
                let kind = if nt {
                    AccessKind::NonTemporalPrefetch
                } else {
                    AccessKind::Load
                };
                m.access(1, crate::phys_addr(2, i * 64), kind, &mut c);
            }
            let left = m.llc_occupancy_where(|l| (l << 6) >> 40 == 1);
            (llc_lines / 2) as usize - left
        };
        let d_normal = displaced(false);
        let d_nt = displaced(true);
        assert!(
            d_nt < d_normal / 4,
            "NT streaming should displace far less: {d_nt} vs {d_normal}"
        );
    }

    #[test]
    fn prefetcher_accelerates_streaming() {
        let stream_cost = |enabled: bool| {
            let mut cfg = MachineConfig::small();
            cfg.prefetcher = crate::config::PrefetcherConfig { enabled, degree: 2 };
            let mut m = MemorySystem::new(&cfg);
            let mut c = PerfCounters::default();
            let mut total = 0u64;
            for i in 0..512u64 {
                total += m.access(0, i * 64, AccessKind::Load, &mut c);
            }
            (total, c.hw_prefetches)
        };
        let (without, hw0) = stream_cost(false);
        let (with, hw1) = stream_cost(true);
        assert_eq!(hw0, 0);
        assert!(hw1 > 0);
        assert!(
            with < without / 2,
            "next-line prefetching should hide most stream misses: {with} vs {without}"
        );
    }

    #[test]
    fn prefetcher_does_not_fire_for_nt_accesses() {
        let mut cfg = MachineConfig::small();
        cfg.prefetcher = crate::config::PrefetcherConfig {
            enabled: true,
            degree: 2,
        };
        let mut m = MemorySystem::new(&cfg);
        let mut c = PerfCounters::default();
        m.access(0, 0x8000, AccessKind::NonTemporalPrefetch, &mut c);
        assert_eq!(
            c.hw_prefetches, 0,
            "software NT hints suppress the next-line prefetcher"
        );
    }

    #[test]
    fn l2_hit_latency() {
        let (mut m, mut c) = sys();
        // Fill enough distinct lines mapping to the same L1 set to evict
        // from L1 but stay in L2. L1 small(): 8 sets, 2 ways.
        for i in 0..4u64 {
            m.access(0, i * 64 * 8, AccessKind::Load, &mut c); // same L1 set 0
        }
        // First line now out of L1 (2 ways) but in L2.
        let stall = m.access(0, 0, AccessKind::Load, &mut c);
        assert_eq!(stall, 8, "should be an L2 hit");
    }
}
