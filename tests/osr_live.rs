//! Live OSR engine, end to end on real images: park / transfer / resume
//! with the `pir` interpreter as the semantic oracle, bit-identity when
//! the arming window expires, one counted transfer proof per variant,
//! and the first-exec-lag advantage over call-edge-only dispatch on the
//! single-long-loop workload.

use pcc::{Compiler, NtAssignment, Options};
use pir::interp::{run_with_transfer, OsrTransferSpec};
use pir::{FunctionBuilder, Locality, Module};
use protean::{HealthConfig, HealthMonitor, OsrConfig, OsrController, Runtime, RuntimeConfig};
use simos::{Os, OsConfig, Pid};

/// Terminating single-loop program with observable output: `main` calls
/// `spin` once; `spin` streams a buffer for `trip` iterations mixing a
/// checksum, then stores the cursor and the checksum. Any corruption of
/// the live state at the OSR transfer point changes the stored words.
fn oracle_module(trip: i64) -> Module {
    let mut m = Module::new("osr-oracle");
    let buf = m.add_global("buf", 1 << 12);
    let cur_g = m.add_global("cursor", 64);
    let mut b = FunctionBuilder::new("spin", 0);
    let base = b.global_addr(buf);
    let curg = b.global_addr(cur_g);
    let cur = b.load(curg, 0, Locality::Normal);
    let x = b.add_imm(cur, 12345);
    let t0 = b.fresh();
    let a0 = b.fresh();
    let v0 = b.fresh();
    b.counted_loop(0, trip, 1, |b, i| {
        b.bin_imm_into(pir::BinOp::Rem, t0, cur, 1 << 12);
        b.bin_into(pir::BinOp::Add, a0, base, t0);
        b.load_into(v0, a0, 0, Locality::Normal);
        b.bin_into(pir::BinOp::Xor, x, x, v0);
        b.bin_into(pir::BinOp::Xor, x, x, i);
        b.bin_imm_into(pir::BinOp::Mul, x, x, 0x100000001b3u64 as i64);
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

fn nt_for(module: &Module, func: pir::FuncId) -> NtAssignment {
    pir::load_sites(module)
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == func)
        .collect()
}

fn spawn_attached(module: &Module) -> (Os, Pid, Runtime) {
    let out = Compiler::new(Options::protean()).compile(module).unwrap();
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&out.image, 0);
    let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    (os, pid, rt)
}

fn run_to_halt(os: &mut Os, pid: Pid) {
    for _ in 0..100_000 {
        os.advance(50_000);
        if matches!(os.status(pid), machine::ExecStatus::Halted) {
            return;
        }
    }
    panic!("program did not halt");
}

/// Drives `ctl.tick` in small quanta until the transfer is applied (or
/// panics after a bound). Returns the cycle count spent waiting.
fn tick_until_applied(
    os: &mut Os,
    rt: &mut Runtime,
    health: &mut HealthMonitor,
    ctl: &mut OsrController,
) {
    for _ in 0..10_000 {
        os.advance(1_000);
        if let Some(e) = ctl.tick(os, rt, health) {
            panic!("unexpected OSR failure: {e}");
        }
        if rt.metrics().counter("osr.applied") >= 1 {
            return;
        }
    }
    panic!("transfer never applied");
}

// ---------------------------------------------------------------------
// Oracle lockstep: post-resume execution matches run_with_transfer
// ---------------------------------------------------------------------

#[test]
fn applied_transfer_matches_interpreter_oracle() {
    const TRIP: i64 = 20_000;
    const HIT: u64 = 500;
    let module = oracle_module(TRIP);
    let (mut os, pid, mut rt) = spawn_attached(&module);
    let spin = rt.module().function_by_name("spin").unwrap();
    let mut health = HealthMonitor::new(HealthConfig::default());
    let mut ctl = OsrController::new(OsrConfig {
        park_hit: HIT,
        stuck_samples: 1,
        arm_window_cycles: 50_000_000,
        probation_cycles: 1_000,
    });

    let nt = nt_for(rt.module(), spin);
    let idx = rt.compile_variant(&mut os, spin, &nt).unwrap();
    // The recipe the controller will pick: the function's only certified
    // header, proved against this exact variant.
    let recipe = protean::safety::vet_osr_transfers(
        rt.module(),
        spin,
        &rt.variants()[idx].ir,
        &rt.meta().osr,
        &rt.meta().osr_recipes,
    )
    .recipes
    .first()
    .cloned()
    .expect("spin's header must carry a proved recipe");

    // Arm before the first cycle executes: the machine counts header
    // entries from arming, the interpreter from program start, so both
    // fire at the HIT-th global entry.
    ctl.arm(&mut os, &mut rt, &mut health, spin, idx)
        .expect("arming must succeed");
    tick_until_applied(&mut os, &mut rt, &mut health, &mut ctl);
    assert_eq!(ctl.phase_name(), "probation");
    run_to_halt(&mut os, pid);

    // Interpreter oracle: same program, same variant, same switch point.
    let variant_module = {
        let mut vm = module.clone();
        vm.functions_mut()[spin.index()] = rt.variants()[idx].ir.clone();
        vm
    };
    let addrs = rt.link().global_addrs.clone();
    let data_size = os
        .proc(pid)
        .globals()
        .iter()
        .map(|g| (g.addr + g.size) as usize)
        .max()
        .unwrap();
    let spec = OsrTransferSpec {
        func: spin,
        from_block: recipe.baseline_header,
        to_block: recipe.variant_header,
        hit: HIT,
        moves: &recipe.moves,
        consts: &recipe.consts,
    };
    let oracle = run_with_transfer(
        &module,
        &variant_module,
        &spec,
        &addrs,
        data_size,
        50_000_000,
    )
    .expect("oracle run");
    assert!(oracle.transferred, "oracle must hit the transfer point");

    // Architectural state after the mid-loop switch must be bit-exact.
    let cursor_addr = rt.link().global_addrs[1];
    for (name, off) in [("cursor", 0u64), ("checksum", 8u64)] {
        let machine_word = os.read_u64(pid, cursor_addr + off);
        let lo = (cursor_addr + off) as usize;
        let oracle_word = u64::from_le_bytes(oracle.result.data[lo..lo + 8].try_into().unwrap());
        assert_eq!(
            machine_word, oracle_word,
            "{name}: machine diverged from the interpreter oracle after OSR"
        );
    }
    assert_eq!(rt.metrics().counter("osr.applied"), 1);
    assert!(
        rt.metrics()
            .histogram("osr.park_to_resume_cycles")
            .is_some(),
        "park-to-resume latency must be recorded"
    );
}

// ---------------------------------------------------------------------
// Decode-mode bit-identity: the park/transfer/resume round-trip must
// not care whether the pre-decoded block tier or the from-scratch
// fallback decoder is executing (a park lands mid-block by cutting the
// decoded replay at the armed PC; resume re-enters via block lookup).
// ---------------------------------------------------------------------

fn osr_round_trip(fallback: bool) -> (u64, u64, u64, u32) {
    const TRIP: i64 = 20_000;
    const HIT: u64 = 500;
    let module = oracle_module(TRIP);
    let (mut os, pid, mut rt) = spawn_attached(&module);
    os.set_decode_fallback(pid, fallback);
    let spin = rt.module().function_by_name("spin").unwrap();
    let mut health = HealthMonitor::new(HealthConfig::default());
    let mut ctl = OsrController::new(OsrConfig {
        park_hit: HIT,
        stuck_samples: 1,
        arm_window_cycles: 50_000_000,
        probation_cycles: 1_000,
    });
    let nt = nt_for(rt.module(), spin);
    let idx = rt.compile_variant(&mut os, spin, &nt).unwrap();
    ctl.arm(&mut os, &mut rt, &mut health, spin, idx)
        .expect("arming must succeed");
    tick_until_applied(&mut os, &mut rt, &mut health, &mut ctl);
    run_to_halt(&mut os, pid);
    let cursor_addr = rt.link().global_addrs[1];
    (
        os.read_u64(pid, cursor_addr),
        os.read_u64(pid, cursor_addr + 8),
        os.proc(pid).counters().instructions,
        os.proc(pid).ctx().pc(),
    )
}

#[test]
fn osr_round_trip_is_bit_identical_across_decode_modes() {
    let decoded = osr_round_trip(false);
    let fallback = osr_round_trip(true);
    assert_eq!(
        decoded, fallback,
        "OSR park/transfer/resume diverged between the decoded tier and \
         the fallback decoder (cursor, checksum, instructions, pc)"
    );
}

// ---------------------------------------------------------------------
// Bit-identity: an expired arming window is invisible
// ---------------------------------------------------------------------

/// Runs the long-loop workload for a fixed schedule under one of two
/// regimes and returns (instructions, pc, cursor word, llc misses).
enum Regime {
    NoController,
    ArmedButExpires,
}

fn long_loop_fingerprint(regime: &Regime) -> (u64, u32, u64, u64) {
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    let module = workloads::build_long_loop(llc);
    let (mut os, pid, mut rt) = spawn_attached(&module);
    let spin = rt.module().function_by_name("spin").unwrap();
    let mut health = HealthMonitor::new(HealthConfig::default());
    let nt = nt_for(rt.module(), spin);
    let idx = rt.compile_variant(&mut os, spin, &nt).unwrap();

    let mut ctl = match regime {
        Regime::NoController => None,
        // Armed for real — but the park target is unreachable (u64::MAX
        // header entries) and the window is zero, so the very next tick
        // abandons. The machine briefly runs with an armed park gate;
        // that must not perturb execution by a single cycle.
        Regime::ArmedButExpires => Some(OsrController::new(OsrConfig {
            park_hit: u64::MAX,
            arm_window_cycles: 0,
            stuck_samples: 1,
            ..OsrConfig::default()
        })),
    };
    if let Some(c) = &mut ctl {
        c.set_goal(spin, idx);
        c.arm(&mut os, &mut rt, &mut health, spin, idx)
            .expect("arming must succeed");
    }
    for _ in 0..200 {
        os.advance(2_000);
        if let Some(c) = &mut ctl {
            let pc = os.proc(pid).ctx().pc();
            c.note_pc_sample(&mut os, &mut rt, &mut health, pc);
            c.tick(&mut os, &mut rt, &mut health);
        }
    }
    if let Some(c) = &ctl {
        assert_eq!(rt.metrics().counter("osr.armed"), 1);
        assert_eq!(rt.metrics().counter("osr.abandoned"), 1);
        assert_eq!(rt.metrics().counter("osr.applied"), 0);
        assert_eq!(c.phase_name(), "idle");
    }
    let cursor_addr = rt.link().global_addrs[1];
    let c = os.proc(pid).counters();
    (
        c.instructions,
        os.proc(pid).ctx().pc(),
        os.read_u64(pid, cursor_addr),
        c.llc_misses,
    )
}

#[test]
fn expired_osr_window_is_bit_identical_to_no_osr() {
    let baseline = long_loop_fingerprint(&Regime::NoController);
    assert_eq!(
        long_loop_fingerprint(&Regime::ArmedButExpires),
        baseline,
        "an armed-then-expired window must leave execution untouched"
    );
}

// ---------------------------------------------------------------------
// Transfer proofs: counted by the controller, once per variant
// ---------------------------------------------------------------------

#[test]
fn transfer_proofs_are_counted_once_per_variant() {
    let module = oracle_module(20_000);
    let (mut os, _, mut rt) = spawn_attached(&module);
    rt.tracer_mut().set_enabled(true);
    let spin = rt.module().function_by_name("spin").unwrap();
    let certified = rt.meta().osr.iter().filter(|c| c.func == spin).count() as u64;
    assert!(certified > 0, "spin's loop header must be certified");
    let mut health = HealthMonitor::new(HealthConfig::default());
    // The park target is unreachable and the window one cycle, so every
    // arm expires on the next tick.
    let mut ctl = OsrController::new(OsrConfig {
        park_hit: u64::MAX,
        stuck_samples: 1,
        arm_window_cycles: 1,
        ..OsrConfig::default()
    });
    let nt = nt_for(rt.module(), spin);
    let idx = rt.compile_variant(&mut os, spin, &nt).unwrap();
    for _ in 0..2 {
        ctl.arm(&mut os, &mut rt, &mut health, spin, idx)
            .expect("arming must succeed");
        os.advance(1_000);
        assert!(
            ctl.tick(&mut os, &mut rt, &mut health).is_some(),
            "the arming window must expire"
        );
        assert_eq!(ctl.phase_name(), "idle");
    }
    let m = rt.metrics();
    assert_eq!(m.counter("osr.armed"), 2);
    assert_eq!(m.counter("osr.transfer_proved"), certified);
    assert_eq!(m.counter("osr.transfer_refuted"), 0);
    assert_eq!(m.counter("osr.transfer_unproved"), 0);
    let jsonl = rt.trace_jsonl(&os);
    assert_eq!(
        jsonl.matches("\"osr-transfer\"").count(),
        1,
        "one transfer proof per variant:\n{jsonl}"
    );
}

// ---------------------------------------------------------------------
// First-exec lag: OSR takes effect mid-loop, call-edge waits for return
// ---------------------------------------------------------------------

fn first_exec_lag(osr: bool) -> u64 {
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    // Shorter calls than the default spec so the call-edge regime can
    // observe its variant within the test budget at all — each call is
    // still millions of cycles, dwarfing a mid-loop OSR switch.
    let module = workloads::build_long_loop_spec(
        &workloads::LongLoopSpec {
            iters_per_call: 40_000,
            ..workloads::LongLoopSpec::default()
        },
        llc,
    );
    let (mut os, pid, mut rt) = spawn_attached(&module);
    let spin = rt.module().function_by_name("spin").unwrap();
    let mut health = HealthMonitor::new(HealthConfig::default());
    // Deep inside the first (multi-million-cycle) call of spin.
    os.advance(100_000);
    let nt = nt_for(rt.module(), spin);
    let idx = rt.compile_variant(&mut os, spin, &nt).unwrap();

    if osr {
        let mut ctl = OsrController::new(OsrConfig {
            stuck_samples: 1,
            ..OsrConfig::default()
        });
        ctl.arm(&mut os, &mut rt, &mut health, spin, idx)
            .expect("arming must succeed");
        tick_until_applied(&mut os, &mut rt, &mut health, &mut ctl);
    } else {
        rt.dispatch(&mut os, idx).expect("call-edge dispatch");
    }
    // Same sampling cadence for both regimes; the lag histogram closes
    // at the first sample that lands inside the variant.
    for _ in 0..40_000 {
        os.advance(2_000);
        let pc = os.proc(pid).ctx().pc();
        rt.note_pc_sample(os.now(), pc);
        if let Some(h) = rt.metrics().histogram("dispatch.first_exec_lag_cycles") {
            if h.count() >= 1 {
                return h.max();
            }
        }
    }
    panic!("variant never observed executing (osr={osr})");
}

#[test]
fn osr_first_exec_lag_beats_call_edge_on_long_loop() {
    let osr_lag = first_exec_lag(true);
    let call_edge_lag = first_exec_lag(false);
    assert!(
        osr_lag < call_edge_lag,
        "OSR must take effect before the loop exits: osr {osr_lag} vs call-edge {call_edge_lag}"
    );
    // Not just faster — a different regime entirely: the call-edge path
    // has to wait out the remainder of a multi-million-cycle call.
    assert!(
        call_edge_lag > 10 * osr_lag.max(1),
        "call-edge lag ({call_edge_lag}) should dwarf OSR lag ({osr_lag}) on the long loop"
    );
}
