//! Property-based tests for the simulated OS: scheduling, napping,
//! freezing, load integration, and time accounting invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use pir::FuncId;
use simos::{LoadSchedule, Os, OsConfig, Pid};
use visa::{FuncSym, Image, Op, PReg};

/// An endless compute loop (1 branch per 3 instructions).
fn spinner(name: &str) -> Image {
    let text = vec![
        Op::Movi {
            dst: PReg(0),
            imm: 0,
        },
        Op::AluImm {
            op: pir::BinOp::Add,
            dst: PReg(0),
            a: PReg(0),
            imm: 1,
        },
        Op::Jmp { target: 1 },
    ];
    Image {
        name: name.into(),
        entry: 0,
        text,
        data: vec![0u8; 256],
        funcs: vec![FuncSym {
            name: "main".into(),
            func: FuncId(0),
            start: 0,
            len: 3,
        }],
        globals: vec![],
        evt: vec![],
        meta: None,
    }
}

/// A server that serves one trivial query per wake-up.
fn server(name: &str) -> Image {
    let text = vec![
        Op::Wait,
        Op::Movi {
            dst: PReg(0),
            imm: 1,
        },
        Op::Report {
            channel: 0,
            src: PReg(0),
        },
        Op::Jmp { target: 0 },
    ];
    Image {
        name: name.into(),
        entry: 0,
        text,
        data: vec![0u8; 256],
        funcs: vec![FuncSym {
            name: "main".into(),
            func: FuncId(0),
            start: 0,
            len: 4,
        }],
        globals: vec![],
        evt: vec![],
        meta: None,
    }
}

/// `LoadSchedule::arrivals_between` as a scan over every step: the
/// reference its windowed scan must match bit for bit.
fn arrivals_by_full_scan(steps: &[(f64, f64)], t0: f64, t1: f64) -> f64 {
    if t1 <= t0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (i, &(start, qps)) in steps.iter().enumerate() {
        let seg_start = start.max(t0);
        let seg_end = steps.get(i + 1).map_or(t1, |n| n.0).min(t1);
        if seg_end > seg_start {
            total += qps * (seg_end - seg_start);
        }
    }
    if t0 < steps[0].0 {
        total += steps[0].1 * (steps[0].0.min(t1) - t0);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nap_intensity_scales_progress_linearly(nap in 0.0f64..0.95) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a"), 0);
        os.set_nap(pid, nap);
        os.advance(2_000_000);
        let got = os.counters(pid).instructions as f64;
        let mut os2 = Os::new(OsConfig::small());
        let pid2 = os2.spawn(&spinner("a"), 0);
        os2.advance(2_000_000);
        let full = os2.counters(pid2).instructions as f64;
        let expected = full * (1.0 - nap);
        prop_assert!(
            (got - expected).abs() / full < 0.03,
            "nap {nap}: got {got}, expected {expected}"
        );
    }

    #[test]
    fn frozen_process_makes_zero_progress(points in vec(1_000u64..100_000, 1..6)) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a"), 0);
        os.set_frozen(pid, true);
        for cycles in points {
            let before = os.counters(pid).instructions;
            os.advance(cycles);
            prop_assert_eq!(os.counters(pid).instructions, before);
        }
    }

    #[test]
    fn cycles_never_exceed_wall_time(naps in vec(0.0f64..1.0, 1..5)) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a"), 0);
        for nap in naps {
            os.set_nap(pid, nap);
            os.advance(500_000);
            // Busy cycles can never exceed elapsed wall cycles (small
            // slack for the final stalled instruction of a quantum).
            prop_assert!(os.counters(pid).cycles <= os.now() + 1_000);
        }
    }

    #[test]
    fn arrivals_match_the_full_step_scan(
        raw in vec((0u32..40, 0.0f64..500.0), 1..80),
        windows in vec((0u32..45, 0u32..45, prop_oneof![Just(0.0f64), 0.0f64..1.0]), 1..40),
    ) {
        // Step times on a coarse grid (duplicates are common) that may
        // start after 0, and windows on the same grid, often exactly on a
        // step time, else offset by a fraction; including `t0` before the
        // first step and empty windows.
        let mut steps: Vec<(f64, f64)> = raw.iter().map(|&(t, q)| (f64::from(t) * 0.5, q)).collect();
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        let s = LoadSchedule::steps(steps.clone());
        for (a, b, frac) in windows {
            let t0 = f64::from(a) * 0.5 - 1.0 + frac;
            let t1 = f64::from(b) * 0.5 - 1.0 + frac * f64::from(a % 2);
            let want = arrivals_by_full_scan(&steps, t0, t1);
            prop_assert_eq!(s.arrivals_between(t0, t1).to_bits(), want.to_bits(), "[{}, {}) over {:?}", t0, t1, steps);
        }
    }

    #[test]
    fn served_queries_track_offered_load(qps in 1.0f64..200.0) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&server("s"), 0);
        os.set_load(pid, LoadSchedule::constant(qps));
        os.advance_seconds(10.0);
        let served = os.app_metric(pid, 0) as f64;
        let offered = qps * 10.0;
        // The trivial server is never saturated in this range.
        prop_assert!(
            (served - offered).abs() <= offered * 0.05 + 2.0,
            "offered {offered}, served {served}"
        );
    }

    #[test]
    fn advance_is_divisible(chunks in vec(1_000u64..50_000, 2..8)) {
        // Advancing in pieces must equal advancing at once (quantum
        // boundaries permitting: totals are multiples of the quantum).
        let q = OsConfig::small().quantum;
        let total: u64 = chunks.iter().map(|c| (c / q) * q).sum();
        let mut os1 = Os::new(OsConfig::small());
        let a = os1.spawn(&spinner("a"), 0);
        for c in &chunks {
            os1.advance((c / q) * q);
        }
        let mut os2 = Os::new(OsConfig::small());
        let b = os2.spawn(&spinner("a"), 0);
        os2.advance(total);
        prop_assert_eq!(os1.counters(a), os2.counters(b));
        prop_assert_eq!(os1.now(), os2.now());
    }

    #[test]
    fn runtime_charges_are_conserved(charges in vec(1_000u64..200_000, 1..6)) {
        let mut os = Os::new(OsConfig::small());
        let total: u64 = charges.iter().sum();
        for (i, c) in charges.iter().enumerate() {
            os.charge_runtime(i % 2, *c);
        }
        // Enough time for all charges to drain even when fair-shared.
        os.advance(total * 4 + 1_000_000);
        prop_assert_eq!(os.runtime_consumed_total(), total);
    }

    #[test]
    fn memory_pokes_are_exact(values in vec(any::<u64>(), 1..16)) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a"), 0);
        for (i, v) in values.iter().enumerate() {
            os.write_u64(pid, 64 + (i as u64) * 8, *v);
        }
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(os.read_u64(pid, 64 + (i as u64) * 8), *v);
        }
    }

    #[test]
    fn pc_samples_stay_in_text(steps in 1usize..30) {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a"), 0);
        for _ in 0..steps {
            os.advance(997);
            let pc = os.sample_pc(pid);
            prop_assert!(pc < os.text_len(pid), "pc {pc} outside text");
        }
    }
}

#[test]
fn kill_then_reuse_core_is_clean() {
    let mut os = Os::new(OsConfig::small());
    let a = os.spawn(&spinner("a"), 0);
    os.advance(50_000);
    os.kill(a);
    let b = os.spawn(&spinner("b"), 0);
    let before_b = os.counters(b).instructions;
    let before_a = os.counters(a).instructions;
    os.advance(50_000);
    assert!(os.counters(b).instructions > before_b);
    assert_eq!(
        os.counters(a).instructions,
        before_a,
        "killed process must stay dead"
    );
    let _ = Pid(0);
}
