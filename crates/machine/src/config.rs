//! Machine configuration: topology, cache geometry, timing, and policies.

use crate::cache::CacheConfig;

/// What a non-temporal fill does at the shared LLC.
///
/// This is one of the design choices DESIGN.md calls out for ablation:
/// x86 implementations have historically done either.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum NtPolicy {
    /// The line is not allocated in the LLC at all.
    #[default]
    Bypass,
    /// The line is allocated but at LRU position, so it is the next
    /// eviction victim in its set.
    LruInsert,
}

/// Next-line hardware prefetcher configuration.
///
/// Disabled in the calibrated experiment configurations (the paper's
/// effects are cache-occupancy driven); enable it to study how hardware
/// prefetching interacts with software non-temporal hints.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PrefetcherConfig {
    /// Whether the prefetcher is active.
    pub enabled: bool,
    /// How many sequential next lines to prefetch on a demand L1 miss.
    pub degree: u8,
}

/// Per-instruction-class base costs in cycles (beyond memory stalls).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// ALU / move immediate.
    pub alu: u64,
    /// Direct jump / conditional branch.
    pub branch: u64,
    /// Direct call or return (register-window shuffle).
    pub call: u64,
    /// Extra cost of an *indirect* (virtualized) call beyond `call` and
    /// its EVT memory read — the paper's "indirect branches are generally
    /// slightly slower than direct branches".
    pub indirect_penalty: u64,
    /// Issue cost of a non-temporal prefetch instruction.
    pub prefetch: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            branch: 1,
            call: 2,
            indirect_penalty: 2,
            prefetch: 1,
        }
    }
}

/// Binary-translation baseline parameters (DynamoRIO-style, Figure 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct BtConfig {
    /// One-time cost to translate a basic block into the code cache.
    pub translate_block: u64,
    /// Per-executed-branch dispatch overhead (code-cache linking checks).
    pub branch_dispatch: u64,
    /// Per-executed-indirect-branch hash-table lookup overhead.
    pub indirect_dispatch: u64,
    /// Diffuse per-16-instructions tax (code-cache icache pressure,
    /// register liveness stubs) — fractional per-instruction cost.
    pub per_16_insts: u64,
}

impl Default for BtConfig {
    /// Calibrated so the SPEC-like suite shows DynamoRIO's published
    /// ~10-30% per-application overhead (mean ~18%) on this substrate:
    /// binary translators pay trace-exit checks and code-cache dispatch
    /// on taken branches and hash lookups on indirect branches.
    fn default() -> Self {
        BtConfig {
            translate_block: 1_500,
            branch_dispatch: 30,
            indirect_dispatch: 120,
            per_16_insts: 6,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of cores (each with private L1/L2).
    pub cores: usize,
    /// Private L1 data cache geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry.
    pub l3: CacheConfig,
    /// Cache line size in bytes (shared by all levels; power of two).
    pub line_bytes: u64,
    /// Extra latency of an L2 hit (beyond the pipelined L1 time).
    pub l2_latency: u64,
    /// Extra latency of an LLC hit.
    pub l3_latency: u64,
    /// Extra latency of a memory access.
    pub mem_latency: u64,
    /// Non-temporal fill policy at the LLC.
    pub nt_policy: NtPolicy,
    /// Next-line hardware prefetcher.
    pub prefetcher: PrefetcherConfig,
    /// Base instruction costs.
    pub costs: CostModel,
    /// Simulated-cycles-per-second time base (scaled-down "GHz").
    pub cycles_per_second: u64,
}

impl Default for MachineConfig {
    /// A scaled model of the paper's quad-core testbed: 4 cores, 32 KiB
    /// 8-way L1, 512 KiB 8-way L2, 6 MiB 48-way shared LLC (Phenom II
    /// class), 64-byte lines.
    fn default() -> Self {
        MachineConfig {
            cores: 4,
            l1: CacheConfig { sets: 64, ways: 8 },
            l2: CacheConfig {
                sets: 1024,
                ways: 8,
            },
            l3: CacheConfig {
                sets: 4096,
                ways: 24,
            },
            line_bytes: 64,
            l2_latency: 8,
            l3_latency: 30,
            mem_latency: 180,
            nt_policy: NtPolicy::Bypass,
            prefetcher: PrefetcherConfig::default(),
            costs: CostModel::default(),
            cycles_per_second: 1_000_000,
        }
    }
}

impl MachineConfig {
    /// The standard experiment machine: the paper's 4-core topology with
    /// cache capacities scaled consistently with the reduced
    /// cycles-per-second time base, so working-set dynamics (fill, sweep,
    /// reuse) play out on the same *relative* timescales as on the real
    /// testbed. At 1M cycles/simulated-second a core can demand-fill at
    /// most ~5.5k lines/s, so the 2048-line LLC fills in a fraction of a
    /// second — as a 6 MiB LLC does at 2.6 GHz.
    pub fn scaled() -> Self {
        MachineConfig {
            cores: 4,
            l1: CacheConfig { sets: 16, ways: 2 },
            l2: CacheConfig { sets: 64, ways: 4 },
            l3: CacheConfig {
                sets: 128,
                ways: 16,
            },
            line_bytes: 64,
            l2_latency: 8,
            l3_latency: 30,
            mem_latency: 180,
            nt_policy: NtPolicy::Bypass,
            prefetcher: PrefetcherConfig::default(),
            costs: CostModel::default(),
            cycles_per_second: 1_000_000,
        }
    }

    /// A reduced configuration for fast unit tests: 2 cores, tiny caches.
    pub fn small() -> Self {
        MachineConfig {
            cores: 2,
            l1: CacheConfig { sets: 8, ways: 2 },
            l2: CacheConfig { sets: 16, ways: 4 },
            l3: CacheConfig { sets: 32, ways: 4 },
            line_bytes: 64,
            l2_latency: 8,
            l3_latency: 30,
            mem_latency: 180,
            nt_policy: NtPolicy::Bypass,
            prefetcher: PrefetcherConfig::default(),
            costs: CostModel::default(),
            cycles_per_second: 100_000,
        }
    }

    /// Capacity of the shared LLC in bytes.
    pub fn llc_bytes(&self) -> u64 {
        self.l3.sets as u64 * self.l3.ways as u64 * self.line_bytes
    }

    /// Converts a duration in simulated seconds to cycles.
    pub fn seconds_to_cycles(&self, secs: f64) -> u64 {
        (secs * self.cycles_per_second as f64) as u64
    }

    /// Converts cycles to simulated seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_second as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 4);
        assert_eq!(c.llc_bytes(), 4096 * 24 * 64); // 6 MiB
        assert!(c.mem_latency > c.l3_latency);
        assert!(c.l3_latency > c.l2_latency);
    }

    #[test]
    fn time_conversions_roundtrip() {
        let c = MachineConfig::default();
        let cycles = c.seconds_to_cycles(2.5);
        assert_eq!(cycles, 2_500_000);
        assert!((c.cycles_to_seconds(cycles) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn nt_policy_default_is_bypass() {
        assert_eq!(NtPolicy::default(), NtPolicy::Bypass);
    }

    #[test]
    fn small_config_smaller_than_default() {
        assert!(MachineConfig::small().llc_bytes() < MachineConfig::default().llc_bytes());
    }

    #[test]
    fn scaled_llc_fills_within_a_window() {
        // The scaled machine must be able to demand-fill its LLC well
        // within a second (the property the default config lacks at the
        // reduced time base).
        let c = MachineConfig::scaled();
        let llc_lines = c.llc_bytes() / c.line_bytes;
        let max_fill_rate = c.cycles_per_second / c.mem_latency; // lines/s
        assert!(
            llc_lines * 2 < max_fill_rate,
            "LLC ({llc_lines} lines) should fill in <1/2 s at {max_fill_rate} lines/s"
        );
    }
}
