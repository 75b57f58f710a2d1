//! Chaos tests: seeded fault schedules against the self-healing runtime.
//!
//! Three invariants from the paper's detach guarantee, checked under
//! injected faults ([`protean::FaultPlan`]):
//!
//! * **QoS floor**: a PC3D controller absorbing a full chaos schedule
//!   never protects the co-runner materially worse than a fault-free
//!   nap-only ReQoS controller — the degradation ladder's whole point.
//! * **Quarantine is final**: a variant the health layer quarantined is
//!   never installed in the EVT again, at any step of the run.
//! * **Detached is invisible**: after the ladder detaches, the process
//!   output is bit-identical to a run that never attached at all.
//!
//! Seeds come from `PROTEAN_CHAOS_SEEDS` (comma-separated); CI pins a
//! fixed three-seed matrix, local runs default to one seed. Each seed's
//! run is independent, so the matrices fan out across
//! `protean_bench::pool` workers; results merge in seed order, and any
//! per-seed failure still fails the test.

use pc3d::{Pc3d, Pc3dConfig};
use pcc::{Compiler, NtAssignment, Options};
use pir::{FunctionBuilder, Locality, Module};
use protean::runtime::DispatchError;
use protean::{
    FaultKind, FaultPlan, HealthConfig, HealthMonitor, HealthState, OsrConfig, OsrController,
    OsrError, Runtime, RuntimeConfig, StressEngine,
};
use reqos::{ReqosConfig, ReqosController};
use simos::{Os, OsConfig, Pid};

fn chaos_seeds() -> Vec<u64> {
    std::env::var("PROTEAN_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![23])
}

// ---------------------------------------------------------------------
// Invariant (a): chaos-stricken PC3D vs fault-free nap-only ReQoS
// ---------------------------------------------------------------------

fn spawn_pair(host: &str, ext: &str) -> (Os, Pid, Pid, Runtime) {
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    let host_img = Compiler::new(Options::protean())
        .compile(&workloads::catalog::build(host, llc).unwrap())
        .unwrap()
        .image;
    let ext_img = Compiler::new(Options::plain())
        .compile(&workloads::catalog::build(ext, llc).unwrap())
        .unwrap()
        .image;
    let mut os = Os::new(cfg);
    let e = os.spawn(&ext_img, 0);
    let h = os.spawn(&host_img, 1);
    let rt = Runtime::attach(&os, h, RuntimeConfig::on_core(1)).unwrap();
    (os, h, e, rt)
}

/// Ground-truth co-runner IPS over the tail of a managed run, read from
/// the raw per-process counters — `Os::proc(..).counters()` bypasses the
/// (possibly garbled) ptrace/perf observation surface, so the metric
/// stays honest while the controller under test still sees faulty data.
fn true_tail_ips(os: &Os, ext: Pid, start: (u64, f64)) -> f64 {
    let (i0, t0) = start;
    (os.proc(ext).counters().instructions - i0) as f64 / (os.now_seconds() - t0)
}

fn tail_mark(os: &Os, ext: Pid) -> (u64, f64) {
    (os.proc(ext).counters().instructions, os.now_seconds())
}

#[test]
fn chaos_qos_is_never_worse_than_clean_nap_only() {
    // True solo capacity of the co-runner, for normalizing both runs.
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    let solo_img = Compiler::new(Options::plain())
        .compile(&workloads::catalog::build("mcf", llc).unwrap())
        .unwrap()
        .image;
    let mut os_solo = Os::new(cfg);
    let solo_pid = os_solo.spawn(&solo_img, 0);
    os_solo.advance_seconds(45.0);
    let mark = tail_mark(&os_solo, solo_pid);
    os_solo.advance_seconds(15.0);
    let solo_ips = true_tail_ips(&os_solo, solo_pid, mark);

    // Fault-free nap-only baseline on the pair.
    let (mut os2, h2, ext2, _rt2) = spawn_pair("libquantum", "mcf");
    let mut base = ReqosController::new(&mut os2, h2, ext2, ReqosConfig::default());
    base.run_for(&mut os2, 45.0);
    let mark = tail_mark(&os2, ext2);
    base.run_for(&mut os2, 15.0);
    let base_qos = true_tail_ips(&os2, ext2, mark) / solo_ips;

    let seeds = chaos_seeds();
    let chaos_qoses = protean_bench::pool::map(&seeds, |_, &seed| {
        // PC3D under the full chaos schedule: compile failures/stalls,
        // EVT drops, cache corruption, garbled observations.
        let (mut os, _h, ext, rt) = spawn_pair("libquantum", "mcf");
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.inject_faults(&mut os, FaultPlan::chaos(seed));
        ctl.run_for(&mut os, 45.0);
        let mark = tail_mark(&os, ext);
        ctl.run_for(&mut os, 15.0);
        // With `PROTEAN_TRACE` set (CI), export this seed's full event
        // stream; the workflow uploads it as an artifact on failure.
        ctl.export_trace(&os, &format!("chaos_qos_seed{seed}"))
            .expect("trace export must not fail");
        true_tail_ips(&os, ext, mark) / solo_ips
    });
    for (seed, chaos_qos) in seeds.iter().zip(chaos_qoses) {
        assert!(
            chaos_qos >= base_qos - 0.05,
            "seed {seed}: chaos PC3D true QoS {chaos_qos:.3} fell more than \
             0.05 below clean nap-only {base_qos:.3}"
        );
    }
}

// ---------------------------------------------------------------------
// Invariant (b): quarantined variants are never re-dispatched
// ---------------------------------------------------------------------

/// Non-terminating streaming host for the stress engine.
fn streaming_host() -> Module {
    let mut m = Module::new("stream");
    let buf = m.add_global("buf", 1 << 13);
    let mut w = FunctionBuilder::new("work", 0);
    let base = w.global_addr(buf);
    w.counted_loop(0, 64, 1, |b, i| {
        let off = b.shl_imm(i, 3);
        let a = b.add(base, off);
        let _ = b.load(a, 0, Locality::Normal);
    });
    w.ret(None);
    let wid = m.add_function(w.finish());
    let mut main_fn = FunctionBuilder::new("main", 0);
    let h = main_fn.new_block();
    main_fn.br(h);
    main_fn.switch_to(h);
    main_fn.call_void(wid, &[]);
    main_fn.br(h);
    let mid = m.add_function(main_fn.finish());
    m.set_entry(mid);
    m
}

#[test]
fn quarantined_variants_are_never_redispatched() {
    let seeds = chaos_seeds();
    protean_bench::pool::map(&seeds, |_, &seed| {
        let out = Compiler::new(Options::protean())
            .compile(&streaming_host())
            .unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        // Heavy EVT dropping with a one-strike quarantine policy; the
        // ladder is frozen so the engine keeps producing variants.
        let plan = FaultPlan::seeded(seed)
            .with_rate(FaultKind::EvtWriteFail, 0.6)
            .with_rate(FaultKind::CacheCorrupt, 0.2);
        let health = HealthConfig {
            quarantine_threshold: 1,
            degrade_threshold: 1_000,
            detach_threshold: 2_000,
            ..HealthConfig::default()
        };
        let mut eng = StressEngine::with_faults(&mut os, &mut rt, 5_000, seed, plan, health);
        for _ in 0..400 {
            os.advance(5_000);
            eng.step(&mut os, &mut rt);
            // Continuous invariant: no quarantined variant's code is ever
            // the EVT target, at any point of the run.
            for idx in rt.quarantined_variants() {
                let rec = &rt.variants()[idx];
                assert_ne!(
                    rt.current_target(&os, rec.func),
                    Some(rec.addr),
                    "seed {seed}: quarantined variant {idx} re-installed"
                );
            }
        }
        let quarantined = rt.quarantined_variants();
        assert!(
            !quarantined.is_empty(),
            "seed {seed}: one-strike policy under 60% EVT drops must quarantine"
        );
        // Explicit re-dispatch attempts are refused at the runtime layer,
        // before any fault roll.
        let idx = quarantined[0];
        assert!(matches!(
            rt.dispatch(&mut os, idx),
            Err(DispatchError::Quarantined { .. })
        ));
        assert!(
            matches!(os.status(pid), machine::ExecStatus::Running),
            "seed {seed}: host must survive"
        );
    });
}

// ---------------------------------------------------------------------
// Invariant (c): Detached output is bit-identical to never-attached
// ---------------------------------------------------------------------

/// Terminating program with observable output: 200 calls to a leaf
/// worker, each folding the data buffer and storing into an out-table.
fn observable_program() -> Module {
    let mut m = Module::new("observable");
    let data = m.add_global_full(pir::Global::with_words(
        "data",
        (0..256)
            .map(|i| (i * 2654435761u64 as i64) ^ 0x9e3779b9)
            .collect(),
    ));
    let out = m.add_global("out", 2048);
    // worker(k): out[k mod 256] = fold(data) + k
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

fn run_to_halt(os: &mut Os, pid: Pid) {
    for _ in 0..10_000 {
        os.advance(100_000);
        if matches!(os.status(pid), machine::ExecStatus::Halted) {
            return;
        }
    }
    panic!("program did not halt");
}

/// Every byte of the data segment the image declares (globals, EVT,
/// embedded metadata alike).
fn data_snapshot(os: &Os, pid: Pid) -> Vec<u8> {
    let mut bytes = Vec::new();
    for g in os.proc(pid).globals() {
        bytes.extend_from_slice(os.read_mem(pid, g.addr, g.size as usize));
    }
    bytes
}

#[test]
fn detached_run_output_is_bit_identical_to_never_attached() {
    let image = Compiler::new(Options::protean())
        .compile(&observable_program())
        .unwrap()
        .image;

    // Baseline: never attached.
    let mut os_a = Os::new(OsConfig::small());
    let pid_a = os_a.spawn(&image, 0);
    run_to_halt(&mut os_a, pid_a);
    let baseline = data_snapshot(&os_a, pid_a);

    // Chaos run: attach, dispatch an NT variant, let it execute, corrupt
    // its code cache mid-run; a one-fault detach threshold drops the
    // ladder straight to Detached.
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let mut health = HealthMonitor::new(HealthConfig {
        detach_threshold: 1,
        ..HealthConfig::default()
    });
    let worker = rt.module().function_by_name("worker").unwrap();
    let nt: NtAssignment = pir::load_sites(rt.module())
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == worker)
        .collect();
    let idx = health
        .transform(&mut os, &mut rt, worker, &nt)
        .expect("variant dispatches");
    let (addr, len) = {
        let rec = &rt.variants()[idx];
        (rec.addr, rec.len)
    };
    // Let the variant actually run before sabotaging it.
    os.advance(50_000);
    assert!(
        os.counters(pid).nt_prefetches > 0,
        "the NT variant must have executed"
    );
    // Corrupt only while no frame is live in the variant (the worker is a
    // leaf, so PC outside its span means no live frame), and scrub in the
    // same tick so the corrupt bytes never execute.
    let mut safe = false;
    for _ in 0..100_000 {
        let pc = os.proc(pid).ctx().pc();
        if pc < addr || pc >= addr + len {
            safe = true;
            break;
        }
        os.advance(200);
    }
    assert!(safe, "never found a corruption window outside the variant");
    assert!(os.corrupt_text(pid, addr + 2, 0xdead_beef));
    health.scrub(&mut os, &mut rt);
    assert_eq!(
        health.state(),
        HealthState::Detached,
        "one checksum failure at detach_threshold=1 must detach"
    );
    let original = rt.link().func_addrs[worker.index()];
    assert_eq!(
        rt.current_target(&os, worker),
        Some(original),
        "detaching restores the original code"
    );

    run_to_halt(&mut os, pid);
    assert_eq!(
        data_snapshot(&os, pid),
        baseline,
        "detached run must be bit-identical to a never-attached run"
    );
}

// ---------------------------------------------------------------------
// Degradation latency: nap-only within one monitoring window
// ---------------------------------------------------------------------

#[test]
fn faults_degrade_the_controller_within_one_window() {
    let (mut os, _h, ext, rt) = spawn_pair("libquantum", "mcf");
    let mut ctl = Pc3d::with_health(
        &mut os,
        rt,
        ext,
        Pc3dConfig {
            qos_target: 0.98,
            ..Pc3dConfig::default()
        },
        HealthConfig {
            degrade_threshold: 1,
            detach_threshold: 1_000,
            recovery_windows: u32::MAX,
            ..HealthConfig::default()
        },
    );
    ctl.inject_faults(
        &mut os,
        FaultPlan::seeded(1).with_rate(FaultKind::EvtWriteFail, 1.0),
    );
    let mut faulted = false;
    for _ in 0..240 {
        ctl.run_window(&mut os);
        if ctl.health().metrics().counter("health.evt_write_failures") > 0 {
            faulted = true;
            // The fault landed during this very window; the ladder must
            // already be below Healthy (nap-only) by the window's end.
            assert!(
                !ctl.health().allows_variants(),
                "ladder must drop within the faulting window"
            );
            break;
        }
    }
    assert!(faulted, "the search must have attempted a dispatch");
    assert_eq!(ctl.hints(), 0, "no variant survives dropped EVT writes");
    ctl.export_trace(&os, "chaos_degrade_window")
        .expect("trace export must not fail");
}

// ---------------------------------------------------------------------
// Live-OSR fault kinds: abandon, quarantine, rollback
// ---------------------------------------------------------------------

/// A protean host with a certified loop, its NT variant compiled, and an
/// OSR controller + health monitor whose ladder thresholds are pushed far
/// out so per-header OSR quarantine (threshold 3) is the first policy to
/// trip.
fn osr_rig(
    module: &Module,
) -> (
    Os,
    Pid,
    Runtime,
    HealthMonitor,
    OsrController,
    pir::FuncId,
    usize,
) {
    let out = Compiler::new(Options::protean()).compile(module).unwrap();
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&out.image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let health = HealthMonitor::new(HealthConfig {
        degrade_threshold: 1_000,
        detach_threshold: 2_000,
        ..HealthConfig::default()
    });
    let ctl = OsrController::new(OsrConfig {
        arm_window_cycles: 20_000,
        stuck_samples: 1,
        ..OsrConfig::default()
    });
    let func = rt
        .module()
        .function_by_name("work")
        .or_else(|| rt.module().function_by_name("spin"))
        .unwrap();
    let nt: NtAssignment = pir::load_sites(rt.module())
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == func)
        .collect();
    let idx = rt.compile_variant(&mut os, func, &nt).unwrap();
    (os, pid, rt, health, ctl, func, idx)
}

/// Drives ticks until the controller reports a failure or `applied`
/// becomes nonzero; returns the failure if one occurred.
fn drive_osr(
    os: &mut Os,
    rt: &mut Runtime,
    health: &mut HealthMonitor,
    ctl: &mut OsrController,
) -> Option<OsrError> {
    for _ in 0..200 {
        os.advance(500);
        if let Some(e) = ctl.tick(os, rt, health) {
            return Some(e);
        }
        if rt.metrics().counter("osr.applied") > 0 {
            return None;
        }
    }
    panic!("OSR neither applied nor failed within the drive budget");
}

#[test]
fn osr_arm_stall_abandons_cleanly_and_clean_retry_applies() {
    let seeds = chaos_seeds();
    protean_bench::pool::map(&seeds, |_, &seed| {
        let (mut os, pid, mut rt, mut health, mut ctl, func, idx) = osr_rig(&streaming_host());
        // Every arm request is dropped at the machine level: the bounded
        // window must expire and the request abandon without touching the
        // frame, the header, or the health ladder.
        rt.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultKind::OsrArmStall, 1.0));
        ctl.arm(&mut os, &mut rt, &mut health, func, idx)
            .expect("arming must succeed");
        let err = drive_osr(&mut os, &mut rt, &mut health, &mut ctl);
        assert!(
            matches!(err, Some(OsrError::WindowExpired { .. })),
            "seed {seed}: stalled arm must expire its window, got {err:?}"
        );
        assert_eq!(ctl.phase_name(), "idle");
        assert_eq!(rt.metrics().counter("osr.armed"), 1);
        assert_eq!(rt.metrics().counter("osr.abandoned"), 1);
        assert_eq!(rt.metrics().counter("osr.applied"), 0);
        assert!(
            !os.is_osr_parked(pid) && os.osr_armed(pid).is_none(),
            "seed {seed}: abandon must leave no park request behind"
        );
        // An abandoned window is not a transfer failure: nothing counts
        // toward quarantine, and a clean retry goes through.
        rt.set_fault_plan(FaultPlan::seeded(seed));
        ctl.arm(&mut os, &mut rt, &mut health, func, idx)
            .expect("clean re-arm must succeed");
        let err = drive_osr(&mut os, &mut rt, &mut health, &mut ctl);
        assert_eq!(err, None, "seed {seed}: clean retry must apply");
        assert_eq!(rt.metrics().counter("osr.applied"), 1);
    });
}

#[test]
fn osr_recipe_corruption_quarantines_the_header_finally() {
    let seeds = chaos_seeds();
    protean_bench::pool::map(&seeds, |_, &seed| {
        let (mut os, pid, mut rt, mut health, mut ctl, func, idx) = osr_rig(&streaming_host());
        rt.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultKind::RecipeCorrupt, 1.0));
        let threshold = health.config().osr_quarantine_threshold;
        let mut header = None;
        for attempt in 1..=threshold {
            ctl.arm(&mut os, &mut rt, &mut health, func, idx)
                .expect("header not yet quarantined");
            let err = drive_osr(&mut os, &mut rt, &mut health, &mut ctl);
            let Some(OsrError::RecipeCorrupt { .. }) = err else {
                panic!("seed {seed}: expected a checksum refusal, got {err:?}");
            };
            let h = *header.get_or_insert_with(|| {
                rt.meta()
                    .osr
                    .iter()
                    .find(|c| c.func == func)
                    .map(|c| c.header)
                    .unwrap()
            });
            assert_eq!(health.osr_fault_count(func, h), attempt);
        }
        let header = header.unwrap();
        // Quarantine is final: the header is refused at arm time, never
        // re-armed, and the counter records the trip exactly once.
        assert!(health.osr_quarantined(func, header));
        assert_eq!(rt.metrics().counter("osr.quarantined"), 1);
        assert_eq!(rt.metrics().counter("osr.applied"), 0);
        assert!(matches!(
            ctl.arm(&mut os, &mut rt, &mut health, func, idx),
            Err(OsrError::AllHeadersQuarantined { .. })
        ));
        assert!(
            os.osr_armed(pid).is_none(),
            "seed {seed}: a quarantined header must never be re-armed"
        );
        // Function-level (call-edge) dispatch is an independent mechanism
        // and must keep working.
        rt.set_fault_plan(FaultPlan::seeded(seed));
        rt.dispatch(&mut os, idx)
            .expect("call-edge dispatch survives OSR quarantine");
        assert_eq!(
            rt.current_target(&os, func),
            Some(rt.variants()[idx].addr),
            "seed {seed}: EVT must point at the variant"
        );
    });
}

/// Terminating single-loop program with observable output, for
/// bit-identity checks across an OSR rollback: `spin` folds a streaming
/// checksum over 2000 iterations and stores cursor + checksum.
fn terminating_loop_program() -> Module {
    let mut m = Module::new("osr-rollback");
    let buf = m.add_global("buf", 1 << 12);
    let cur_g = m.add_global("cursor", 64);
    let mut b = FunctionBuilder::new("spin", 0);
    let base = b.global_addr(buf);
    let curg = b.global_addr(cur_g);
    let cur = b.load(curg, 0, Locality::Normal);
    let x = b.add_imm(cur, 777);
    let t0 = b.fresh();
    let a0 = b.fresh();
    let v0 = b.fresh();
    b.counted_loop(0, 2_000, 1, |b, i| {
        b.bin_imm_into(pir::BinOp::Rem, t0, cur, 1 << 12);
        b.bin_into(pir::BinOp::Add, a0, base, t0);
        b.load_into(v0, a0, 0, Locality::Normal);
        b.bin_into(pir::BinOp::Xor, x, x, v0);
        b.bin_into(pir::BinOp::Xor, x, x, i);
        b.bin_imm_into(pir::BinOp::Add, cur, cur, 64);
    });
    b.store(curg, 0, cur);
    b.store(curg, 8, x);
    b.ret(None);
    let spin = m.add_function(b.finish());
    let mut mb = FunctionBuilder::new("main", 0);
    mb.call_void(spin, &[]);
    mb.ret(None);
    let mid = m.add_function(mb.finish());
    m.set_entry(mid);
    m
}

#[test]
fn osr_transfer_misapply_rolls_back_bit_identically() {
    // Ground truth: the program run to completion, never attached.
    let module = terminating_loop_program();
    let image = Compiler::new(Options::protean())
        .compile(&module)
        .unwrap()
        .image;
    let mut os_a = Os::new(OsConfig::small());
    let pid_a = os_a.spawn(&image, 0);
    run_to_halt(&mut os_a, pid_a);
    let baseline = data_snapshot(&os_a, pid_a);

    let seeds = chaos_seeds();
    protean_bench::pool::map(&seeds, |_, &seed| {
        let (mut os, pid, mut rt, mut health, mut ctl, func, idx) =
            osr_rig(&terminating_loop_program());
        rt.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultKind::TransferMisapply, 1.0));
        ctl.arm(&mut os, &mut rt, &mut health, func, idx)
            .expect("arming must succeed");
        let err = drive_osr(&mut os, &mut rt, &mut health, &mut ctl);
        assert!(
            matches!(err, Some(OsrError::TransferMisapply { .. })),
            "seed {seed}: the perturbed frame must fail read-back, got {err:?}"
        );
        // The rollback restored the snapshot, resumed in baseline code,
        // and flipped the EVT back — the variant never executed.
        assert_eq!(rt.metrics().counter("osr.deopt"), 1);
        assert_eq!(rt.metrics().counter("osr.applied"), 0);
        let original = rt.link().func_addrs[func.index()];
        assert_eq!(
            rt.current_target(&os, func),
            Some(original),
            "seed {seed}: rollback must restore the original EVT target"
        );
        run_to_halt(&mut os, pid);
        assert_eq!(
            data_snapshot(&os, pid),
            baseline,
            "seed {seed}: a rolled-back transfer must be observably absent"
        );
    });
}

// ---------------------------------------------------------------------
// Fault-kind coverage: every kind is enumerable and drawable
// ---------------------------------------------------------------------

#[test]
fn chaos_preset_covers_every_fault_kind() {
    // Iterating `FaultKind::ALL` (instead of hardcoding the kind count)
    // keeps this green as injection sites are added: a kind missing from
    // the chaos preset would silently drop coverage.
    for kind in FaultKind::ALL {
        assert!(
            FaultPlan::chaos(0).rate(kind) > 0.0,
            "chaos preset must exercise {kind:?}"
        );
        let mut certain = FaultPlan::seeded(5).with_rate(kind, 1.0);
        assert!(certain.draw(kind), "rate-1.0 {kind:?} must always draw");
        let mut never = FaultPlan::seeded(5);
        assert!(!never.draw(kind), "rate-0 {kind:?} must never draw");
    }
}

// ---------------------------------------------------------------------
// Error plumbing: every failure composes with `?`
// ---------------------------------------------------------------------

#[test]
fn runtime_errors_compose_as_std_errors() {
    fn assert_std_error<E: std::error::Error>() {}
    assert_std_error::<protean::AttachError>();
    assert_std_error::<DispatchError>();
    assert_std_error::<OsrError>();
    assert_std_error::<pcc::CompileError>();
    assert_std_error::<pcc::annex::MetaError>();

    // Attaching to a non-protean binary fails through `?` into the
    // catch-all error type applications actually use.
    fn attach_plain() -> Result<(), Box<dyn std::error::Error>> {
        let out = Compiler::new(Options::plain()).compile(&streaming_host())?;
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let _rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1))?;
        Ok(())
    }
    let err = attach_plain().expect_err("plain binaries are not attachable");
    assert!(
        err.to_string().contains("protean"),
        "attach error must explain itself: {err}"
    );

    // An injected dispatch failure propagates the same way.
    fn dispatch_under_faults() -> Result<(), Box<dyn std::error::Error>> {
        let out = Compiler::new(Options::protean()).compile(&streaming_host())?;
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1))?;
        let work = rt.module().function_by_name("work").unwrap();
        rt.set_fault_plan(FaultPlan::seeded(2).with_rate(FaultKind::CompileFail, 1.0));
        rt.transform(&mut os, work, &NtAssignment::none())?;
        Ok(())
    }
    let err = dispatch_under_faults().expect_err("guaranteed compile failure");
    assert!(
        err.to_string().contains("compilation"),
        "dispatch error must explain itself: {err}"
    );

    // An OSR refusal propagates the same way.
    fn arm_while_detached() -> Result<(), Box<dyn std::error::Error>> {
        let out = Compiler::new(Options::protean()).compile(&streaming_host())?;
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1))?;
        let work = rt.module().function_by_name("work").unwrap();
        let mut health = HealthMonitor::new(HealthConfig::default());
        health.force_detach(&mut os, &mut rt);
        let mut ctl = OsrController::new(OsrConfig::default());
        ctl.arm(&mut os, &mut rt, &mut health, work, 0)?;
        Ok(())
    }
    let err = arm_while_detached().expect_err("a detached runtime refuses to arm");
    assert!(
        err.to_string().contains("health ladder below healthy"),
        "OSR error must explain itself: {err}"
    );
}
