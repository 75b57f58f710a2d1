//! Property-based tests for the machine: cache invariants, hierarchy
//! policies, interpreter robustness against arbitrary code, and every
//! ALU operator's result in both decode modes.

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

    fn occupancy(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }
}

/// Reference for `MemorySystem::access`: `StampCache` levels walked
/// through the unfused chain — lookups on the way down, the next-line
/// prefetcher after a demand L1 miss, fills on the way back — with no
/// fused set visit anywhere.
struct StampHierarchy {
    cfg: MachineConfig,
    l1: Vec<StampCache>,
    l2: Vec<StampCache>,
    l3: StampCache,
}

impl StampHierarchy {
    fn new(cfg: &MachineConfig) -> Self {
        let level = |c: CacheConfig| StampCache::new(c.sets, c.ways);
        StampHierarchy {
            cfg: cfg.clone(),
            l1: (0..cfg.cores).map(|_| level(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| level(cfg.l2)).collect(),
            l3: level(cfg.l3),
        }
    }

    fn access(
        &mut self,
        core: usize,
        paddr: u64,
        kind: AccessKind,
        counters: &mut PerfCounters,
    ) -> u64 {
        let line = paddr >> self.cfg.line_bytes.trailing_zeros();
        let nt = kind == AccessKind::NonTemporalPrefetch;
        if nt {
            counters.nt_prefetches += 1;
        }
        if self.l1[core].lookup(line) {
            return 0;
        }
        counters.l1_misses += 1;
        if self.cfg.prefetcher.enabled && kind == AccessKind::Load {
            for d in 1..=u64::from(self.cfg.prefetcher.degree) {
                let target = line + d;
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
        if self.l2[core].lookup(line) {
            self.l1[core].fill(line, InsertPos::Mru);
            return self.cfg.l2_latency;
        }
        counters.l2_misses += 1;
        if self.l3.lookup(line) {
            counters.llc_hits += 1;
            self.l1[core].fill(line, InsertPos::Mru);
            if !nt {
                self.l2[core].fill(line, InsertPos::Mru);
            }
            return self.cfg.l3_latency;
        }
        counters.llc_misses += 1;
        self.l1[core].fill(line, InsertPos::Mru);
        if !nt {
            self.l2[core].fill(line, InsertPos::Mru);
            self.l3.fill(line, InsertPos::Mru);
        } else if self.cfg.nt_policy == NtPolicy::LruInsert {
            self.l3.fill(line, InsertPos::Lru);
        }
        self.cfg.mem_latency
    }
}

/// Every machine geometry in use: the experiment configs, the unit-test
/// config, and the datacenter server box (written out here because
/// `machine` cannot depend on `datacenter`).
fn shipped_machines() -> Vec<MachineConfig> {
    let mut server = MachineConfig::scaled();
    server.l1 = CacheConfig { sets: 8, ways: 2 };
    server.l2 = CacheConfig { sets: 16, ways: 4 };
    server.l3 = CacheConfig { sets: 32, ways: 8 };
    vec![
        MachineConfig::scaled(),
        MachineConfig::small(),
        MachineConfig::default(),
        server,
    ]
}

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Load),
        Just(AccessKind::Store),
        Just(AccessKind::NonTemporalPrefetch),
    ]
}

/// Operands on the edges of `BinOp::eval`'s rules: zero (the no-trap
/// divisor), ±1 (with `i64::MIN`, the overflowing division), the
/// extremes, and shift counts at and past the 6-bit mask.
const EDGE_OPERANDS: [i64; 8] = [0, 1, -1, i64::MIN, i64::MAX, 63, 64, 255];

fn arb_operand() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        (0..EDGE_OPERANDS.len()).prop_map(|i| EDGE_OPERANDS[i]),
    ]
}

/// Runs every operator of `BinOp::ALL` on `a` and `b` in both operand
/// forms, under the decoded tier and under the always-decode fallback,
/// and checks each stored result against `BinOp::eval`. With `one_reg`
/// the register form reads both operands from one register (`b` must
/// equal `a`). Both modes share the decoder, so an operator decoded onto
/// the wrong arm is caught only by this oracle, not by comparing them.
fn assert_operators_match_eval(a: i64, b: i64, one_reg: bool) {
    let rb = if one_reg { PReg(0) } else { PReg(1) };
    for op in pir::BinOp::ALL {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: a,
            },
            Op::Movi {
                dst: PReg(1),
                imm: b,
            },
            Op::Alu {
                op,
                dst: PReg(2),
                a: PReg(0),
                b: rb,
            },
            Op::AluImm {
                op,
                dst: PReg(3),
                a: PReg(0),
                imm: b,
            },
            Op::Store {
                base: PReg(4),
                offset: 0,
                src: PReg(2),
            },
            Op::Store {
                base: PReg(4),
                offset: 8,
                src: PReg(3),
            },
            Op::Halt,
        ];
        for fallback in [false, true] {
            let cfg = MachineConfig::small();
            let mut mem = MemorySystem::new(&cfg);
            let mut counters = PerfCounters::default();
            let mut ctx = ExecContext::new(0, 1, 0);
            let mut data = vec![0u8; 64];
            let mut blocks = machine::BlockCache::new();
            blocks.set_fallback(fallback);
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
            let res = machine::exec::run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(res.stop, machine::StopReason::Halted);
            let word =
                |at: usize| i64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
            let want = op.eval(a, b);
            assert_eq!(
                word(0),
                want,
                "{op:?}({a}, {b}) register form, fallback {fallback}"
            );
            assert_eq!(
                word(8),
                want,
                "{op:?}({a}, {b}) immediate form, fallback {fallback}"
            );
        }
    }
}

#[test]
fn every_operator_matches_eval_on_every_edge_pair() {
    // Every ordered pair of edge operands, so `i64::MIN` with -1, each
    // shift count and the zero divisor are always covered; the diagonal
    // also reads both operands from one register.
    for a in EDGE_OPERANDS {
        for b in EDGE_OPERANDS {
            assert_operators_match_eval(a, b, false);
        }
        assert_operators_match_eval(a, a, true);
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
    fn lookup_agrees_with_probe(
        ops in vec((any::<u64>(), arb_insert(), any::<bool>()), 0..2000),
    ) {
        // `probe` scans the tags with the runtime way count; `lookup`
        // goes through the set visit, unrolled for a shipped way count
        // (4) or generic (3, 12). They must agree on presence for every
        // line, on every geometry (including way counts that leave
        // padding lanes in the recency order and >8-way multi-word
        // orders).
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
        // Differential test against `StampCache` on every way count in
        // use, the edges around the 8-lane word of the recency order, and
        // the widest sets (32 ways take the generic arm, 64 fill the
        // valid and LRU-insert masks). Lines come from about three times
        // the capacity, so sets stay contended, and half of them add bit
        // 16, so resident lines often share all their low bits.
        for sets in [1usize, 2, 4, 8] {
            for ways in [1usize, 2, 3, 4, 5, 8, 9, 12, 16, 17, 24, 32, 64] {
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
    fn hierarchy_matches_the_unfused_stamp_chain(
        accesses in vec((any::<u16>(), any::<bool>(), 0u64..4, any::<u8>(), arb_kind()), 1..500),
    ) {
        // Differential test of the whole hierarchy, fused demand path
        // included, against `StampHierarchy` on every shipped geometry,
        // under both NT policies, with the prefetcher off and on. Lines
        // are spaced one LLC set count apart, so each access lands in one
        // of four adjacent sets at every level: half come from a hot pool
        // of three lines per set (hits at every level), half from 64
        // (more than any level's ways, so every set keeps evicting).
        for base in shipped_machines() {
            for nt_policy in [NtPolicy::Bypass, NtPolicy::LruInsert] {
                for enabled in [false, true] {
                    let mut cfg = base.clone();
                    cfg.nt_policy = nt_policy;
                    cfg.prefetcher = machine::PrefetcherConfig { enabled, degree: 2 };
                    let mut mem = MemorySystem::new(&cfg);
                    let mut reference = StampHierarchy::new(&cfg);
                    let (mut got_counters, mut want_counters) = (PerfCounters::default(), PerfCounters::default());
                    for (step, &(raw, hot, set, offset, kind)) in accesses.iter().enumerate() {
                        let core = usize::from(raw) % cfg.cores;
                        let tag = u64::from(raw >> 2) % if hot { 3 } else { 64 };
                        let line = tag * cfg.l3.sets as u64 + set;
                        let paddr = line * cfg.line_bytes + u64::from(offset) % cfg.line_bytes;
                        let got = mem.access(core, paddr, kind, &mut got_counters);
                        let want = reference.access(core, paddr, kind, &mut want_counters);
                        prop_assert_eq!(got, want, "stall of {:?} to {:#x} on core {} at step {} in {:?}", kind, paddr, core, step, cfg);
                    }
                    prop_assert_eq!(got_counters, want_counters, "counters in {:?}", cfg);
                    prop_assert_eq!(mem.llc_stats(), reference.l3.stats, "LLC stats in {:?}", cfg);
                    prop_assert_eq!(mem.llc_occupancy_where(|_| true), reference.l3.occupancy(), "LLC occupancy in {:?}", cfg);
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
    fn every_operator_matches_eval_in_both_forms(
        a in arb_operand(),
        b in arb_operand(),
        equal in any::<bool>(),
    ) {
        // Random operands mixed with edge ones; half the cases have
        // `a == b` (read from one register), where `Le`/`Lt`,
        // `Ge`/`Gt` and `Eq`/`Ne` differ.
        if equal {
            assert_operators_match_eval(a, a, true);
        } else {
            assert_operators_match_eval(a, b, false);
        }
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
