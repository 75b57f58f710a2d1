//! Regression tests for the interpreter fast path and the experiment
//! fan-out pool.
//!
//! The block-dispatch cache in `machine::exec` indexes decoded basic
//! blocks into the live text section; online transformation appends
//! variants and rewrites EVT slots *while blocks are cached*. These tests
//! drive that exact hazard end-to-end: a program halting under a
//! recompilation storm must produce output bit-identical to an untouched
//! run. The pool tests pin the other contract this PR leans on: a
//! parallel experiment sweep returns exactly what the serial sweep does.

use pcc::{Compiler, Options};
use pir::{FunctionBuilder, Locality, Module};
use protean::{Runtime, RuntimeConfig, StressEngine};
use simos::{Os, OsConfig, Pid};

/// Terminating program with observable output: repeated calls to a
/// worker that folds a buffer and stores per-call results.
fn observable_program() -> Module {
    let mut m = Module::new("observable");
    let data = m.add_global_full(pir::Global::with_words(
        "data",
        (0..256)
            .map(|i| (i * 2654435761u64 as i64) ^ 0x9e3779b9)
            .collect(),
    ));
    let out = m.add_global("out", 2048);
    let mut w = FunctionBuilder::new("worker", 1);
    let k = w.param(0);
    let base = w.global_addr(data);
    let ob = w.global_addr(out);
    let acc = w.const_(0x5bd1_e995);
    let acc = w.accumulate_loop(0, 256, 1, acc, |b, i, acc| {
        let off = b.shl_imm(i, 3);
        let a = b.add(base, off);
        let v = b.load(a, 0, Locality::Normal);
        let x = b.bin(pir::BinOp::Xor, acc, v);
        let y = b.mul_imm(x, 0x100_0000_01b3);
        b.add_into(acc, y, k);
    });
    let slot = w.and_imm(k, 0xff);
    let off = w.shl_imm(slot, 3);
    let addr = w.add(ob, off);
    w.store(addr, 0, acc);
    w.ret(None);
    let wid = m.add_function(w.finish());
    let mut main_fn = FunctionBuilder::new("main", 0);
    main_fn.counted_loop(0, 200, 1, |b, i| {
        b.call_void(wid, &[i]);
    });
    main_fn.ret(None);
    let mid = m.add_function(main_fn.finish());
    m.set_entry(mid);
    m
}

fn data_snapshot(os: &Os, pid: Pid) -> Vec<u8> {
    let mut bytes = Vec::new();
    for g in os.proc(pid).globals() {
        bytes.extend_from_slice(os.read_mem(pid, g.addr, g.size as usize));
    }
    bytes
}

/// Live patching under the block cache: a stress engine recompiling and
/// dispatching fresh identity variants every few thousand cycles grows
/// the text section and rewrites EVT targets while the interpreter holds
/// cached block shapes. The run must halt with output bit-identical to a
/// never-attached run — i.e. the cache must never execute stale code.
#[test]
fn block_cache_survives_live_patch_storm() {
    let image = Compiler::new(Options::protean())
        .compile(&observable_program())
        .unwrap()
        .image;

    // Baseline: never attached.
    let mut os_a = Os::new(OsConfig::small());
    let pid_a = os_a.spawn(&image, 0);
    for _ in 0..10_000 {
        os_a.advance(100_000);
        if matches!(os_a.status(pid_a), machine::ExecStatus::Halted) {
            break;
        }
    }
    assert!(matches!(os_a.status(pid_a), machine::ExecStatus::Halted));
    let baseline = data_snapshot(&os_a, pid_a);

    // Storm run: recompile a random virtualized function every 3k cycles,
    // stepping the OS in small quanta so dispatches land at many distinct
    // interpreter states (mid-block, at block entry, inside the worker).
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let mut eng = StressEngine::new(&rt, 3_000, 0xfa57);
    let mut steps = 0u64;
    while !matches!(os.status(pid), machine::ExecStatus::Halted) {
        os.advance(1_000);
        eng.step(&mut os, &mut rt);
        steps += 1;
        assert!(steps < 5_000_000, "storm run did not halt");
    }
    assert!(
        eng.recompiles() > 50,
        "storm must actually patch: {} recompiles",
        eng.recompiles()
    );
    assert_eq!(
        data_snapshot(&os, pid),
        baseline,
        "live patching must never let the block cache execute stale code"
    );
}

/// Runs the full patch-storm scenario with observation tracing on, in
/// the given decode mode, and returns everything an observer can see:
/// final data image, counters, step count, recompile count, the trace
/// JSONL, and the decode-cache stats.
fn storm_run(fallback: bool) -> StormOutcome {
    let image = Compiler::new(Options::protean())
        .compile(&observable_program())
        .unwrap()
        .image;
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&image, 0);
    os.set_obs_trace(Some(1 << 14));
    os.set_decode_fallback(pid, fallback);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let mut eng = StressEngine::new(&rt, 3_000, 0xfa57);
    let mut steps = 0u64;
    while !matches!(os.status(pid), machine::ExecStatus::Halted) {
        os.advance(1_000);
        eng.step(&mut os, &mut rt);
        steps += 1;
        assert!(steps < 5_000_000, "storm run did not halt");
    }
    StormOutcome {
        data: data_snapshot(&os, pid),
        counters: os.proc(pid).counters(),
        steps,
        recompiles: eng.recompiles(),
        trace: rt.trace_jsonl(&os),
        decode: os.decode_stats(pid),
    }
}

struct StormOutcome {
    data: Vec<u8>,
    counters: machine::PerfCounters,
    steps: u64,
    recompiles: u64,
    trace: String,
    decode: machine::DecodeStats,
}

/// The decoded tier under a recompilation storm must be bit-identical to
/// the forced always-decode fallback: same output, same counters, same
/// step count, same trace JSONL. Only the decode-cache stats may differ
/// (that is the point of the tier).
#[test]
fn decoded_tier_patch_storm_is_bit_identical_to_fallback() {
    let decoded = storm_run(false);
    let fallback = storm_run(true);
    assert_eq!(decoded.data, fallback.data, "output diverged");
    assert_eq!(decoded.counters, fallback.counters, "counters diverged");
    assert_eq!(decoded.steps, fallback.steps);
    assert_eq!(decoded.recompiles, fallback.recompiles);
    assert_eq!(decoded.trace, fallback.trace, "trace JSONL diverged");
    // The decoded run must have exercised the tier for the comparison to
    // mean anything: cache hits and storm-driven invalidations both
    // nonzero; the fallback never caches.
    assert!(decoded.decode.hits > decoded.decode.misses);
    assert!(decoded.decode.invalidations > 0, "storm must invalidate");
    assert_eq!(fallback.decode.hits, 0);
}

/// Mid-block OSR park/resume through the decoded tier: arm parks at PCs
/// sampled mid-run (typically strictly inside a decoded block), park,
/// capture the frame, resume in place, and run to completion — all
/// bit-identical between decoded and fallback modes.
#[test]
fn decoded_tier_osr_park_resume_matches_fallback() {
    let run_mode = |fallback: bool| {
        let image = Compiler::new(Options::protean())
            .compile(&observable_program())
            .unwrap()
            .image;
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&image, 0);
        os.set_decode_fallback(pid, fallback);
        let mut parks = Vec::new();
        for warmup in [10_000u64, 60_000] {
            os.advance(warmup);
            if matches!(os.status(pid), machine::ExecStatus::Halted) {
                break;
            }
            let pc = os.sample_pc(pid);
            os.osr_arm(pid, pc, 3);
            let mut waited = 0u64;
            while !os.is_osr_parked(pid) {
                os.advance(500);
                waited += 1;
                assert!(waited < 1_000_000, "park never fired at pc {pc}");
            }
            parks.push((pc, os.osr_hits(pid), os.osr_frame(pid).to_vec()));
            os.osr_disarm(pid);
        }
        while !matches!(os.status(pid), machine::ExecStatus::Halted) {
            os.advance(100_000);
        }
        (parks, data_snapshot(&os, pid), os.proc(pid).counters())
    };
    let decoded = run_mode(false);
    let fallback = run_mode(true);
    assert_eq!(decoded, fallback);
    assert_eq!(decoded.0.len(), 2, "both parks must fire");
}

/// A whole simulated experiment per work item returns bit-identical
/// results at any worker count: the property the parallel figure
/// harnesses rely on.
#[test]
fn pool_experiments_are_bit_identical_serial_vs_parallel() {
    let seeds: Vec<u64> = vec![1, 7, 23, 42];
    let experiment = |_: usize, &seed: &u64| {
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let m = workloads::catalog::build("bst", llc).unwrap();
        let img = Compiler::new(Options::plain()).compile(&m).unwrap().image;
        let mut os = Os::new(cfg);
        let pid = os.spawn(&img, 0);
        os.advance(200_000 + (seed % 5) * 50_000);
        let c = os.counters(pid);
        (c.instructions, c.cycles, c.llc_misses)
    };
    let serial = protean_bench::pool::map_with(1, &seeds, experiment);
    let parallel = protean_bench::pool::map_with(4, &seeds, experiment);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|&(i, _, _)| i > 0));
}
