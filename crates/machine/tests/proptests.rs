//! Property-based tests for the machine: cache invariants, hierarchy
//! policies, and interpreter robustness against arbitrary code.

use proptest::collection::vec;
use proptest::prelude::*;

use machine::{
    AccessKind, Cache, CacheConfig, CacheStats, CostModel, ExecContext, ExecEnv, InsertPos,
    MachineConfig, MemorySystem, NtPolicy, PerfCounters,
};
use visa::{Op, PReg};

fn arb_insert() -> impl Strategy<Value = InsertPos> {
    prop_oneof![Just(InsertPos::Mru), Just(InsertPos::Lru)]
}

/// Reference for `Cache`'s replacement rule, kept with per-way
/// timestamps instead of a recency order. Every touch stamps a fresh
/// tick, except an LRU insert, which stamps 0. The victim is the first
/// invalid way in ascending index, else the lowest-indexed way with the
/// smallest stamp.
struct StampCache {
    sets: usize,
    ways: usize,
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl StampCache {
    fn new(sets: usize, ways: usize) -> Self {
        StampCache {
            sets,
            ways,
            tags: vec![None; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn base(&self, line: u64) -> usize {
        (line as usize % self.sets) * self.ways
    }

    fn find(&self, line: u64) -> Option<usize> {
        let base = self.base(line);
        (base..base + self.ways).find(|&i| self.tags[i] == Some(line))
    }

    fn lookup(&mut self, line: u64) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                self.stamps[i] = self.tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, line: u64, pos: InsertPos) -> Option<u64> {
        self.tick += 1;
        self.stats.fills += 1;
        let stamp = match pos {
            InsertPos::Mru => self.tick,
            InsertPos::Lru => 0,
        };
        if let Some(i) = self.find(line) {
            self.stamps[i] = stamp;
            return None;
        }
        let base = self.base(line);
        let ways = base..base + self.ways;
        let victim = ways
            .clone()
            .find(|&i| self.tags[i].is_none())
            .or_else(|| ways.min_by_key(|&i| self.stamps[i]))
            .expect("nonempty set");
        let evicted = self.tags[victim].replace(line);
        self.stamps[victim] = stamp;
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    fn lookup_or_fill(&mut self, line: u64, pos: InsertPos) -> bool {
        let hit = self.lookup(line);
        if !hit {
            self.fill(line, pos);
        }
        hit
    }

    fn invalidate(&mut self, line: u64) -> bool {
        self.find(line).map(|i| self.tags[i] = None).is_some()
    }

    fn probe(&self, line: u64) -> bool {
        self.find(line).is_some()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        ops in vec((any::<u64>(), arb_insert()), 0..2000),
    ) {
        let mut c = Cache::new(CacheConfig { sets: 16, ways: 4 });
        for (line, pos) in ops {
            if !c.lookup(line) {
                c.fill(line, pos);
            }
            prop_assert!(c.occupancy() <= c.capacity());
        }
    }

    #[test]
    fn filled_line_is_immediately_present(lines in vec(any::<u64>(), 1..200)) {
        let mut c = Cache::new(CacheConfig { sets: 8, ways: 2 });
        for line in lines {
            c.fill(line, InsertPos::Mru);
            prop_assert!(c.probe(line), "line {line} missing right after fill");
        }
    }

    #[test]
    fn eviction_only_removes_one_line(lines in vec(any::<u64>(), 1..500)) {
        let mut c = Cache::new(CacheConfig { sets: 8, ways: 2 });
        let mut prev = 0usize;
        for line in lines {
            let evicted = c.fill(line, InsertPos::Mru);
            let now = c.occupancy();
            match evicted {
                Some(_) => prop_assert!(now == prev || now == prev.saturating_sub(0)),
                None => prop_assert!(now >= prev),
            }
            prop_assert!(now <= prev + 1, "occupancy can grow at most one per fill");
            prev = now;
        }
    }

    #[test]
    fn hit_plus_miss_equals_lookups(lines in vec(0u64..64, 1..500)) {
        let mut c = Cache::new(CacheConfig { sets: 4, ways: 2 });
        for (i, line) in lines.into_iter().enumerate() {
            if !c.lookup(line) {
                c.fill(line, InsertPos::Mru);
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, i as u64 + 1);
        }
    }

    #[test]
    fn swar_lookup_agrees_with_scalar_probe(
        ops in vec((any::<u64>(), arb_insert(), any::<bool>()), 0..2000),
    ) {
        // `probe` scans the full tags scalar-style; `lookup` goes through
        // the SWAR partial-tag scan. They must agree on presence for
        // every line, on every geometry (including non-multiple-of-8
        // ways with padding lanes and >8-way multi-word sets).
        for (sets, ways) in [(4usize, 3usize), (16, 4), (2, 12)] {
            let mut c = Cache::new(CacheConfig { sets, ways });
            for &(line, pos, inv) in &ops {
                let present = c.probe(line);
                prop_assert_eq!(c.lookup(line), present, "line {} in {}x{}", line, sets, ways);
                if inv {
                    prop_assert_eq!(c.invalidate(line), present);
                    prop_assert!(!c.probe(line));
                } else if !present {
                    c.fill(line, pos);
                    prop_assert!(c.probe(line));
                }
            }
        }
    }

    #[test]
    fn replacement_matches_the_stamp_reference(
        ops in vec((0u8..7, any::<u16>(), any::<bool>(), arb_insert()), 1..600),
    ) {
        // Differential test against `StampCache` on every geometry in
        // use and the edges around the 8-lane word boundary. Lines come
        // from about three times the capacity, so sets stay contended,
        // and half of them add a bit above the 8-bit partial tag, so
        // partial-tag collisions are common.
        for sets in [1usize, 2, 4, 8] {
            for ways in [1usize, 2, 3, 4, 5, 8, 9, 12, 16, 17, 24] {
                let mut c = Cache::new(CacheConfig { sets, ways });
                let mut r = StampCache::new(sets, ways);
                let span = 3 * (sets * ways) as u64 + 1;
                let line_of = |raw: u16, high: bool| (u64::from(raw) % span) | (u64::from(high) << 16);
                let mut lines = Vec::new();
                for (step, &(kind, raw, high, pos)) in ops.iter().enumerate() {
                    let line = line_of(raw, high);
                    lines.push(line);
                    let (got, want) = match kind {
                        0 | 1 => (c.lookup(line), r.lookup(line)),
                        2 | 3 => (c.lookup_or_fill(line, pos), r.lookup_or_fill(line, pos)),
                        4 | 5 => {
                            let (got, want) = (c.fill(line, pos), r.fill(line, pos));
                            prop_assert_eq!(got, want, "fill {} at step {} in {}x{}", line, step, sets, ways);
                            (true, true)
                        }
                        _ if high => (c.invalidate(line), r.invalidate(line)),
                        _ => (c.probe(line), r.probe(line)),
                    };
                    prop_assert_eq!(got, want, "op {} on {} at step {} in {}x{}", kind, line, step, sets, ways);
                    prop_assert_eq!(c.stats(), r.stats, "stats at step {} in {}x{}", step, sets, ways);
                }
                for line in lines {
                    prop_assert_eq!(c.probe(line), r.probe(line), "residency of {} in {}x{}", line, sets, ways);
                }
            }
        }
    }

    #[test]
    fn nt_bypass_never_fills_llc(addrs in vec(0u64..(1 << 20), 1..300)) {
        let mut cfg = MachineConfig::small();
        cfg.nt_policy = NtPolicy::Bypass;
        let mut mem = MemorySystem::new(&cfg);
        let mut counters = PerfCounters::default();
        for a in addrs {
            mem.access(0, a, AccessKind::NonTemporalPrefetch, &mut counters);
            prop_assert_eq!(mem.llc_occupancy_where(|_| true), 0);
        }
    }

    #[test]
    fn hierarchy_latency_is_bounded(
        accesses in vec((0usize..2, 0u64..(1 << 18), any::<bool>()), 1..500),
    ) {
        let cfg = MachineConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        let mut counters = PerfCounters::default();
        for (core, addr, store) in accesses {
            let kind = if store { AccessKind::Store } else { AccessKind::Load };
            let stall = mem.access(core, addr, kind, &mut counters);
            prop_assert!(stall <= cfg.mem_latency);
        }
    }

    #[test]
    fn interpreter_never_panics_on_arbitrary_code(
        raw in vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>(), -64i64..64), 1..80),
    ) {
        // Build arbitrary (often invalid) programs from a compact tuple
        // encoding; the interpreter must fault or halt, never panic.
        let text: Vec<Op> = raw
            .iter()
            .map(|(kind, a, b, c, imm)| {
                let r = |x: &u8| PReg(x % 16);
                match kind % 12 {
                    0 => Op::Movi { dst: r(a), imm: *imm },
                    1 => Op::Alu {
                        op: pir::BinOp::ALL[(*b as usize) % 16],
                        dst: r(a),
                        a: r(b),
                        b: r(c),
                    },
                    2 => Op::AluImm {
                        op: pir::BinOp::ALL[(*b as usize) % 16],
                        dst: r(a),
                        a: r(c),
                        imm: *imm,
                    },
                    3 => Op::Load { dst: r(a), base: r(b), offset: *imm },
                    4 => Op::Store { base: r(a), offset: *imm, src: r(b) },
                    5 => Op::PrefetchNta { base: r(a), offset: *imm },
                    6 => Op::Jmp { target: u32::from(*c) },
                    7 => Op::Bnz { cond: r(a), target: u32::from(*c) },
                    8 => Op::Bz { cond: r(a), target: u32::from(*c) },
                    9 => Op::Call { target: u32::from(*c), dst: Some(r(a)), args: vec![r(b)] },
                    10 => Op::Ret { src: None },
                    _ => Op::Halt,
                }
            })
            .collect();
        let cfg = MachineConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        let mut counters = PerfCounters::default();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut data = vec![0u8; 4096];
        let mut blocks = machine::BlockCache::new();
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let _ = machine::exec::run(&mut ctx, &mut env, 200_000);
    }

    #[test]
    fn decoded_tier_matches_fallback_on_arbitrary_code(
        raw in vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>(), -64i64..64), 1..80),
        quantum in prop_oneof![Just(1u64), Just(13), Just(100_000)],
    ) {
        // Differential property: the cached decoded tier and the
        // always-decode fallback must be bit-identical on arbitrary
        // (often invalid) programs — same stop reasons, cycle counts,
        // counters, final PC/status, and data image — at any quantum
        // size, including one-cycle quanta that split every block.
        let text: Vec<Op> = raw
            .iter()
            .map(|(kind, a, b, c, imm)| {
                let r = |x: &u8| PReg(x % 16);
                match kind % 12 {
                    0 => Op::Movi { dst: r(a), imm: *imm },
                    1 => Op::Alu {
                        op: pir::BinOp::ALL[(*b as usize) % 16],
                        dst: r(a),
                        a: r(b),
                        b: r(c),
                    },
                    2 => Op::AluImm {
                        op: pir::BinOp::ALL[(*b as usize) % 16],
                        dst: r(a),
                        a: r(c),
                        imm: *imm,
                    },
                    3 => Op::Load { dst: r(a), base: r(b), offset: *imm },
                    4 => Op::Store { base: r(a), offset: *imm, src: r(b) },
                    5 => Op::PrefetchNta { base: r(a), offset: *imm },
                    6 => Op::Jmp { target: u32::from(*c) },
                    7 => Op::Bnz { cond: r(a), target: u32::from(*c) },
                    8 => Op::Bz { cond: r(a), target: u32::from(*c) },
                    9 => Op::Call { target: u32::from(*c), dst: Some(r(a)), args: vec![r(b)] },
                    10 => Op::Ret { src: None },
                    _ => Op::Halt,
                }
            })
            .collect();
        let run_mode = |fallback: bool| {
            let cfg = MachineConfig::small();
            let mut mem = MemorySystem::new(&cfg);
            let mut counters = PerfCounters::default();
            let mut ctx = ExecContext::new(0, 1, 0);
            let mut data = vec![0u8; 4096];
            let mut blocks = machine::BlockCache::new();
            blocks.set_fallback(fallback);
            let mut trail = Vec::new();
            for _ in 0..200 {
                let mut env = ExecEnv {
                    text: &text,
                    text_gen: 0,
                    blocks: &mut blocks,
                    data: &mut data,
                    mem: &mut mem,
                    core: 0,
                    counters: &mut counters,
                    costs: CostModel::default(),
                };
                let res = machine::exec::run(&mut ctx, &mut env, quantum);
                trail.push((ctx.pc(), ctx.status(), res.cycles, res.stop));
                if res.stop != machine::StopReason::BudgetExhausted {
                    break;
                }
            }
            (trail, counters, data)
        };
        prop_assert_eq!(run_mode(false), run_mode(true));
    }

    #[test]
    fn counters_are_monotonic_under_execution(steps in 1usize..20) {
        let text = vec![
            Op::Movi { dst: PReg(0), imm: 64 },
            Op::Load { dst: PReg(1), base: PReg(0), offset: 0 },
            Op::AluImm { op: pir::BinOp::Add, dst: PReg(0), a: PReg(0), imm: 64 },
            Op::AluImm { op: pir::BinOp::Rem, dst: PReg(0), a: PReg(0), imm: 2048 },
            Op::Jmp { target: 1 },
        ];
        let cfg = MachineConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        let mut counters = PerfCounters::default();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut data = vec![0u8; 4096];
        let mut prev = counters;
        let mut blocks = machine::BlockCache::new();
        for _ in 0..steps {
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let _ = machine::exec::run(&mut ctx, &mut env, 1000);
            prop_assert!(counters.cycles >= prev.cycles);
            prop_assert!(counters.instructions >= prev.instructions);
            prop_assert!(counters.branches >= prev.branches);
            prop_assert!(counters.llc_misses >= prev.llc_misses);
            prev = counters;
        }
    }
}
