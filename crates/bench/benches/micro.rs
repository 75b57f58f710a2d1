//! Criterion micro-benchmarks for the substrate itself: cache-simulator
//! throughput, interpreter speed, runtime-compiler latency, EVT patch
//! latency, verifier/lint/dataflow/abstract-interpretation throughput,
//! equivalence
//! checker throughput (proved fast path vs refuted slow path), and IR
//! codec/compressor throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use machine::{
    AccessKind, Cache, CacheConfig, InsertPos, MachineConfig, MemorySystem, PerfCounters,
};
use pcc::{compile_function_variant, Compiler, NtAssignment, Options};
use protean::{HealthConfig, HealthMonitor, OsrConfig, OsrController, Runtime, RuntimeConfig};
use protean_bench::report::{self, Json};
use simos::{Os, OsConfig};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let mut cache = Cache::new(CacheConfig {
        sets: 4096,
        ways: 16,
    });
    for line in 0..65536u64 {
        cache.fill(line, InsertPos::Mru);
    }
    let mut line = 0u64;
    group.bench_function("lookup_hit", |b| {
        b.iter(|| {
            line = (line + 97) & 0xffff;
            std::hint::black_box(cache.lookup(line))
        })
    });
    group.bench_function("miss_and_fill", |b| {
        let mut far = 1u64 << 32;
        b.iter(|| {
            far += 1;
            if !cache.lookup(far) {
                cache.fill(far, InsertPos::Mru);
            }
        })
    });
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let mut mem = MemorySystem::new(&cfg);
    let mut counters = PerfCounters::default();
    let mut addr = 0u64;
    c.bench_function("hierarchy_access_stream", |b| {
        b.iter(|| {
            addr = (addr + 64) & 0xff_ffff;
            std::hint::black_box(mem.access(0, addr, AccessKind::Load, &mut counters))
        })
    });
}

fn bench_interpreter(c: &mut Criterion) {
    // The dispatch-path headline window, on the experiment machine (the
    // config every real sweep runs; `OsConfig::default`'s paper-scale
    // cache metadata only measures host cache misses on tag arrays).
    // Decoded-tier mode (the default) is the tracked number; the
    // `_fallback` sibling forces the always-decode path for the A/B.
    let cfg = protean_bench::experiment_os();
    let img = protean_bench::compile_plain("milc", &cfg);
    let mut group = c.benchmark_group("interpreter");
    group.bench_function("advance_100k_cycles", |b| {
        let mut os = Os::new(cfg.clone());
        os.spawn(&img, 0);
        b.iter(|| os.advance(100_000));
    });
    group.bench_function("advance_100k_cycles_fallback", |b| {
        let mut os = Os::new(cfg.clone());
        let pid = os.spawn(&img, 0);
        os.set_decode_fallback(pid, true);
        b.iter(|| os.advance(100_000));
    });
    group.finish();
    // Same-session A/B: advance two identical processes (one per decode
    // mode) in strictly alternating windows, so host frequency drift
    // lands on both sides equally and cancels out of the ratio. Both
    // simulations are bit-identical; only the host wall-clock differs.
    let mk = |fallback: bool| {
        let mut os = Os::new(cfg.clone());
        let pid = os.spawn(&img, 0);
        os.set_decode_fallback(pid, fallback);
        for _ in 0..50 {
            os.advance(100_000); // warm simulated caches + block cache
        }
        os
    };
    let mut os_dec = mk(false);
    let mut os_fb = mk(true);
    let windows = 1500u32;
    let (mut wall_dec, mut wall_fb) = (0.0f64, 0.0f64);
    for _ in 0..windows {
        let t = std::time::Instant::now();
        os_dec.advance(100_000);
        wall_dec += t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        os_fb.advance(100_000);
        wall_fb += t.elapsed().as_secs_f64();
    }
    let dec_us = wall_dec * 1e6 / f64::from(windows);
    let fb_us = wall_fb * 1e6 / f64::from(windows);
    let speedup = fb_us / dec_us;
    println!(
        "interpreter/advance_100k_cycles A/B (same session, {windows} alternating windows): \
         decoded {dec_us:.1} us vs fallback {fb_us:.1} us = {speedup:.2}x"
    );
    if let Some(dir) = protean_bench::report::report_dir() {
        let entry = Json::obj([
            ("decoded_us_per_window", Json::F64(dec_us)),
            ("fallback_us_per_window", Json::F64(fb_us)),
            ("speedup", Json::F64(speedup)),
        ]);
        report::update_json_map(&dir.join("BENCH_interp.json"), "advance_100k_ab", &entry)
            .expect("write BENCH_interp.json");
    }
}

/// Long-window interpreter throughput in M instr/s, the headline number
/// for the fast-path work. Scaled by `PROTEAN_SCALE` (400M simulated
/// cycles per window at the default scale) and written to
/// `BENCH_interp.json` when `PROTEAN_BENCH_JSON` names a directory.
fn bench_interp_throughput(_c: &mut Criterion) {
    let scale = protean_bench::Scale::from_env();
    let cycles = protean_bench::interp_cycles(scale);
    let reps = if scale == protean_bench::Scale::Quick {
        1
    } else {
        3
    };
    println!("interp-throughput ({cycles} simulated cycles per window, best of {reps})");
    for workload in ["milc", "libquantum", "bst"] {
        let m = protean_bench::interp_throughput(workload, cycles, reps);
        println!(
            "  {workload:<12} {:>8.1} M instr/s  ({} insts in {:.3}s)",
            m.m_instr_per_s, m.insts, m.wall_secs
        );
        if let Some(dir) = protean_bench::report::report_dir() {
            let entry = Json::obj([
                ("m_instr_per_s", Json::F64(m.m_instr_per_s)),
                ("insts", Json::U64(m.insts)),
                ("cycles", Json::U64(m.cycles)),
                ("wall_secs", Json::F64(m.wall_secs)),
            ]);
            report::update_json_map(&dir.join("BENCH_interp.json"), workload, &entry)
                .expect("write BENCH_interp.json");
        }
    }
}

/// Decoded-tier A/B: the same throughput window with the decoded-block
/// cache on vs the forced always-decode fallback. The ratio is the
/// speedup the tier buys on this host; it lands in `BENCH_interp.json`
/// under `decoded_tier@<workload>` so the trajectory survives later
/// baseline raises.
fn bench_decoded_tier(_c: &mut Criterion) {
    let scale = protean_bench::Scale::from_env();
    // A/B windows at a fraction of the headline budget: two runs per
    // workload, and the ratio converges fast. Exactly one rep per mode:
    // best-of-N could pick different (phase-shifted) windows for the two
    // modes, which would break the retired-instruction identity check.
    let cycles = protean_bench::interp_cycles(scale) / 4;
    let reps = 1;
    println!("interp-decoded-tier ({cycles} simulated cycles per window, best of {reps})");
    for workload in ["milc", "libquantum", "bst"] {
        let on = protean_bench::interp_throughput_mode(workload, cycles, reps, false);
        let off = protean_bench::interp_throughput_mode(workload, cycles, reps, true);
        assert_eq!(
            on.insts, off.insts,
            "decoded tier changed simulated results for {workload}"
        );
        let speedup = on.m_instr_per_s / off.m_instr_per_s;
        println!(
            "  {workload:<12} decoded {:>7.1} vs fallback {:>7.1} M instr/s  ({speedup:.2}x)",
            on.m_instr_per_s, off.m_instr_per_s
        );
        if let Some(dir) = protean_bench::report::report_dir() {
            let entry = Json::obj([
                ("decoded_m_instr_per_s", Json::F64(on.m_instr_per_s)),
                ("fallback_m_instr_per_s", Json::F64(off.m_instr_per_s)),
                ("speedup", Json::F64(speedup)),
                ("insts", Json::U64(on.insts)),
            ]);
            report::update_json_map(
                &dir.join("BENCH_interp.json"),
                &format!("decoded_tier@{workload}"),
                &entry,
            )
            .expect("write BENCH_interp.json");
        }
    }
}

fn bench_runtime_compiler(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("sphinx3", llc).expect("workload");
    let out = Compiler::new(Options::protean())
        .compile(&m)
        .expect("compile");
    let meta = out.meta.expect("meta");
    let fid = m.function_by_name("hot0").expect("hot0");
    let sites: Vec<_> = pir::load_sites(&m)
        .iter()
        .filter(|s| s.site.func == fid)
        .map(|s| s.site)
        .collect();
    let nt = NtAssignment::all(sites);
    c.bench_function("compile_function_variant", |b| {
        b.iter(|| std::hint::black_box(compile_function_variant(&m, fid, &nt, &meta.link, 1 << 20)))
    });
    c.bench_function("whole_module_compile_sphinx3", |b| {
        b.iter_batched(
            || m.clone(),
            |m| std::hint::black_box(Compiler::new(Options::protean()).compile(&m).unwrap()),
            BatchSize::LargeInput,
        )
    });
}

fn bench_evt_patch(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("libquantum", llc).expect("workload");
    let img = Compiler::new(Options::protean())
        .compile(&m)
        .expect("compile")
        .image;
    let mut os = Os::new(OsConfig::default());
    let pid = os.spawn(&img, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).expect("attach");
    let func = rt.virtualized_funcs()[0];
    let v = rt
        .compile_variant(&mut os, func, &NtAssignment::none())
        .expect("variant");
    rt.dispatch(&mut os, v)
        .expect("variant passes the safety gate");
    c.bench_function("evt_dispatch", |b| {
        b.iter(|| rt.dispatch(&mut os, v).unwrap());
    });
}

fn bench_analysis(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("soplex", llc).expect("workload");
    let insts: usize = m.functions().iter().map(|f| f.inst_count()).sum();
    let mut group = c.benchmark_group("analysis");
    group.throughput(Throughput::Elements(insts as u64));
    group.bench_function("verify_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::verify::verify_module(&m).is_ok()))
    });
    group.bench_function("lint_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::lint::lint_module(&m).error_count()))
    });
    group.finish();
    let hot = m
        .functions()
        .iter()
        .max_by_key(|f| f.inst_count())
        .expect("nonempty");
    let cfg = pir::dataflow::Cfg::new(hot);
    let mut group = c.benchmark_group("dataflow");
    group.throughput(Throughput::Elements(hot.inst_count() as u64));
    group.bench_function("liveness_hot_fn", |b| {
        let liveness = pir::dataflow::Liveness::new(hot);
        b.iter(|| std::hint::black_box(liveness.solve(&cfg).ins.len()))
    });
    group.bench_function("reaching_defs_hot_fn", |b| {
        let rd = pir::dataflow::ReachingDefs::new(hot);
        b.iter(|| std::hint::black_box(rd.solve(&cfg).ins.len()))
    });
    group.bench_function("dominators_hot_fn", |b| {
        b.iter(|| std::hint::black_box(pir::dataflow::Dominators::compute(&cfg)))
    });
    group.finish();
}

fn bench_absint(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("soplex", llc).expect("workload");
    let insts: u64 = m.functions().iter().map(|f| f.inst_count() as u64).sum();
    let mut group = c.benchmark_group("absint");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("analyze_soplex", |b| {
        b.iter(|| {
            for f in m.functions() {
                std::hint::black_box(pir::absint::analyze_function(f).reg_table_size());
            }
        })
    });
    group.bench_function("certify_osr_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::absint::certify_module(&m).len()))
    });
    group.bench_function("analyze_cached_soplex", |b| {
        let f = m.function(pir::FuncId(0));
        b.iter(|| std::hint::black_box(pir::absint::analyze_function_cached(f)))
    });
    group.finish();
    // Headline analysis throughput, certified OSR-point counts and the
    // cost of one protean compile (certify + prove every transfer) for
    // the CI trend file.
    if let Some(dir) = report::report_dir() {
        for workload in ["soplex", "sphinx3", "web-search"] {
            let m = workloads::catalog::build(workload, llc).expect("workload");
            let insts: u64 = m.functions().iter().map(|f| f.inst_count() as u64).sum();
            let reps = 16u32;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                for f in m.functions() {
                    std::hint::black_box(pir::absint::analyze_function(f).reg_table_size());
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            let certified = pir::absint::certify_module(&m)
                .iter()
                .filter(|d| d.certificate().is_some())
                .count() as u64;
            let m_insts_per_s = (insts * u64::from(reps)) as f64 / wall / 1e6;
            let compiler = Compiler::new(Options::protean());
            let t0 = std::time::Instant::now();
            std::hint::black_box(compiler.compile(&m).expect("protean compile"));
            let compile_protean_ms = t0.elapsed().as_secs_f64() * 1e3;
            let entry = Json::obj([
                ("m_insts_per_s", Json::F64(m_insts_per_s)),
                ("insts", Json::U64(insts)),
                ("certified_osr_points", Json::U64(certified)),
                ("compile_protean_ms", Json::F64(compile_protean_ms)),
                ("wall_secs", Json::F64(wall)),
            ]);
            report::update_json_map(&dir.join("BENCH_absint.json"), workload, &entry)
                .expect("write BENCH_absint.json");
        }
    }
}

fn bench_equiv(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("soplex", llc).expect("workload");
    let insts: u64 = m.functions().iter().map(|f| f.inst_count() as u64).sum();
    let mut optimized = m.clone();
    pcc::optimize_module(&mut optimized);
    // A miscompiled module: one constant nudged, which the checker must
    // chase down to a concrete counterexample (the slow path: symbolic
    // mismatch plus interpreter confirmation).
    let mut corrupt = m.clone();
    'outer: for func in corrupt.functions_mut() {
        for block in func.blocks_mut() {
            for inst in &mut block.insts {
                if let pir::Inst::Const { value, .. } = inst {
                    *value = value.wrapping_add(1);
                    break 'outer;
                }
            }
        }
    }
    let opts = pir::equiv::EquivOptions::default();
    let mut group = c.benchmark_group("equiv");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("prove_identity_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::equiv::check_module(&m, &m, &opts).all_proved()))
    });
    group.bench_function("prove_optimized_soplex", |b| {
        b.iter(|| {
            std::hint::black_box(pir::equiv::check_module(&m, &optimized, &opts).all_proved())
        })
    });
    group.bench_function("refute_corrupted_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::equiv::check_module(&m, &corrupt, &opts).all_proved()))
    });
    group.finish();
}

fn bench_osr_transfer(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("soplex", llc).expect("workload");
    let certs: Vec<pir::absint::OsrCertificate> = pir::absint::certify_module(&m)
        .into_iter()
        .filter_map(|d| d.certificate().cloned())
        .collect();
    // The gate's shape-changed path: transfer into the all-NT variant.
    let mut nt = m.clone();
    for func in nt.functions_mut() {
        for block in func.blocks_mut() {
            for inst in &mut block.insts {
                if let pir::Inst::Load { locality, .. } = inst {
                    *locality = pir::Locality::NonTemporal;
                }
            }
        }
    }
    let opts = pir::equiv::EquivOptions::default();
    let mut group = c.benchmark_group("osr_transfer");
    group.throughput(Throughput::Elements(certs.len() as u64));
    group.bench_function("prove_self_soplex", |b| {
        b.iter(|| {
            let proved = certs
                .iter()
                .filter(|cert| {
                    pir::prove_osr_transfer(&m, &m, cert.func, cert, &opts)
                        .recipe()
                        .is_some()
                })
                .count();
            std::hint::black_box(proved)
        })
    });
    group.bench_function("prove_nt_variant_soplex", |b| {
        b.iter(|| {
            let proved = certs
                .iter()
                .filter(|cert| {
                    pir::prove_osr_transfer(&m, &nt, cert.func, cert, &opts)
                        .recipe()
                        .is_some()
                })
                .count();
            std::hint::black_box(proved)
        })
    });
    group.finish();
    // Per-workload transfer provability and proof throughput for the CI
    // trend file: how many certified headers the runtime could actually
    // switch mid-loop, and what a full re-proof sweep costs.
    if let Some(dir) = report::report_dir() {
        for workload in ["soplex", "sphinx3", "web-search"] {
            let m = workloads::catalog::build(workload, llc).expect("workload");
            let certs: Vec<pir::absint::OsrCertificate> = pir::absint::certify_module(&m)
                .into_iter()
                .filter_map(|d| d.certificate().cloned())
                .collect();
            let t0 = std::time::Instant::now();
            let proved = certs
                .iter()
                .filter(|cert| {
                    pir::prove_osr_transfer(&m, &m, cert.func, cert, &opts)
                        .recipe()
                        .is_some()
                })
                .count() as u64;
            let wall = t0.elapsed().as_secs_f64();
            let entry = Json::obj([
                ("certified_headers", Json::U64(certs.len() as u64)),
                ("proved_transfers", Json::U64(proved)),
                (
                    "proofs_per_s",
                    Json::F64(certs.len() as f64 / wall.max(1e-9)),
                ),
                ("wall_secs", Json::F64(wall)),
            ]);
            report::update_json_map(&dir.join("BENCH_osr.json"), workload, &entry)
                .expect("write BENCH_osr.json");
        }
    }
}

/// The live OSR engine on the single-long-loop workload, measured in
/// simulated cycles: park-to-resume transfer latency, and first-exec lag
/// (dispatch decision to first variant instruction) for a mid-loop OSR
/// switch vs the call-edge-only baseline that must wait out the rest of
/// the call. Written to `BENCH_osr.json` under `long-loop-runtime`.
fn bench_osr_runtime(_c: &mut Criterion) {
    let scale = protean_bench::Scale::from_env();
    let iters_per_call: i64 = if scale == protean_bench::Scale::Quick {
        20_000
    } else {
        40_000
    };
    let rig = || {
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let m = workloads::build_long_loop_spec(
            &workloads::LongLoopSpec {
                iters_per_call,
                ..workloads::LongLoopSpec::default()
            },
            llc,
        );
        let out = Compiler::new(Options::protean())
            .compile(&m)
            .expect("compile");
        let mut os = Os::new(cfg);
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).expect("attach");
        let spin = rt.module().function_by_name("spin").unwrap();
        let nt: NtAssignment = pir::load_sites(rt.module())
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == spin)
            .collect();
        let idx = rt.compile_variant(&mut os, spin, &nt).expect("variant");
        os.advance(100_000);
        (os, pid, rt, spin, idx)
    };
    let first_exec_lag = |os: &mut Os, pid, rt: &mut Runtime| -> u64 {
        for _ in 0..200_000 {
            os.advance(1_000);
            let pc = os.proc(pid).ctx().pc();
            rt.note_pc_sample(os.now(), pc);
            if let Some(h) = rt.metrics().histogram("dispatch.first_exec_lag_cycles") {
                if h.count() >= 1 {
                    return h.max();
                }
            }
        }
        panic!("variant never observed executing");
    };

    // Live OSR: park at the certified header mid-call and transfer.
    let (mut os, pid, mut rt, spin, idx) = rig();
    let mut health = HealthMonitor::new(HealthConfig::default());
    let mut ctl = OsrController::new(OsrConfig::default());
    ctl.arm(&mut os, &mut rt, &mut health, spin, idx)
        .expect("arm");
    while rt.metrics().counter("osr.applied") == 0 {
        os.advance(1_000);
        if let Some(e) = ctl.tick(&mut os, &mut rt, &mut health) {
            panic!("OSR failed: {e}");
        }
    }
    let park_to_resume = rt
        .metrics()
        .histogram("osr.park_to_resume_cycles")
        .map_or(0, |h| h.max());
    let lag_osr = first_exec_lag(&mut os, pid, &mut rt);

    // Call-edge only: the EVT write lands immediately, the effect waits
    // for the current call to return.
    let (mut os, pid, mut rt, _spin, idx) = rig();
    rt.dispatch(&mut os, idx).expect("dispatch");
    let lag_call_edge = first_exec_lag(&mut os, pid, &mut rt);

    println!(
        "osr-runtime (long-loop, {iters_per_call} iters/call): park-to-resume \
         {park_to_resume} cycles; first-exec lag {lag_osr} (OSR) vs {lag_call_edge} (call-edge)"
    );
    assert!(
        lag_osr < lag_call_edge,
        "OSR must take effect before the loop exits"
    );
    if let Some(dir) = report::report_dir() {
        let entry = Json::obj([
            ("park_to_resume_cycles", Json::U64(park_to_resume)),
            ("first_exec_lag_osr_cycles", Json::U64(lag_osr)),
            ("first_exec_lag_call_edge_cycles", Json::U64(lag_call_edge)),
            (
                "lag_improvement",
                Json::F64(lag_call_edge as f64 / lag_osr.max(1) as f64),
            ),
        ]);
        report::update_json_map(&dir.join("BENCH_osr.json"), "long-loop-runtime", &entry)
            .expect("write BENCH_osr.json");
    }
}

fn bench_codec(c: &mut Criterion) {
    let llc = 98304;
    let m = workloads::catalog::build("soplex", llc).expect("workload");
    let bytes = pir::encode::encode_module(&m);
    let compressed = pir::compress::compress(&bytes);
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::encode::encode_module(&m)))
    });
    group.bench_function("decode_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::encode::decode_module(&bytes).unwrap()))
    });
    group.bench_function("compress_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::compress::compress(&bytes)))
    });
    group.bench_function("decompress_soplex", |b| {
        b.iter(|| std::hint::black_box(pir::compress::decompress(&compressed).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_hierarchy,
    bench_interpreter,
    bench_interp_throughput,
    bench_decoded_tier,
    bench_runtime_compiler,
    bench_evt_patch,
    bench_analysis,
    bench_absint,
    bench_equiv,
    bench_osr_transfer,
    bench_osr_runtime,
    bench_codec
);
criterion_main!(benches);
