//! Live OSR demo: a thread stuck inside one enormous streaming loop
//! adopts an NT variant *mid-flight* — parked at the certified loop
//! header, frame transferred by the proved recipe, resumed at the
//! matched variant header — then a fault-injected run shows the guarded
//! deopt path rolling a perturbed transfer back without a trace of it in
//! architectural state.
//!
//! Run with: `cargo run --release --example osr`

use pcc::NtAssignment;
use protean::{
    FaultKind, FaultPlan, HealthConfig, HealthMonitor, OsrConfig, OsrController, Runtime,
    RuntimeConfig,
};
use simos::{Os, OsConfig, Pid};
use workloads::LongLoopSpec;

/// The long-loop workload at demo scale: one call of `spin` is a single
/// 100k-iteration streaming loop — several million cycles during which a
/// call-edge (EVT) redirect would sit invisible.
fn rig() -> (Os, Pid, Runtime, pir::FuncId, usize) {
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    let module = workloads::build_long_loop_spec(
        &LongLoopSpec {
            iters_per_call: 100_000,
            ..LongLoopSpec::default()
        },
        llc,
    );
    let out = pcc::Compiler::new(pcc::Options::protean())
        .compile(&module)
        .expect("long-loop compiles");
    let mut os = Os::new(cfg);
    let pid = os.spawn(&out.image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).expect("attach");
    rt.tracer_mut().set_enabled(true);
    let spin = rt.module().function_by_name("spin").unwrap();
    let nt: NtAssignment = pir::load_sites(rt.module())
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == spin)
        .collect();
    let idx = rt.compile_variant(&mut os, spin, &nt).expect("variant");
    (os, pid, rt, spin, idx)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Act 1: adopt the variant mid-loop.
    // ------------------------------------------------------------------
    let (mut os, pid, mut rt, spin, idx) = rig();
    let mut health = HealthMonitor::new(HealthConfig::default());
    let mut ctl = OsrController::new(OsrConfig::default());

    // Run deep into the first call: the thread is now pinned inside one
    // loop, and the call edge — the only place EVT dispatch can take
    // effect — is millions of cycles away.
    os.advance(150_000);
    let at_entry = os.counters(pid).instructions;
    println!(
        "thread is {at_entry} instructions into `spin`'s loop; \
         call-edge dispatch would wait out the rest of the call"
    );

    // The full pipeline: goal -> stuck detection from PC samples -> arm
    // at the certified header -> park -> verify -> transfer -> resume.
    ctl.set_goal(spin, idx);
    let mut ticks = 0u64;
    while rt.metrics().counter("osr.applied") == 0 {
        os.advance(1_000);
        let pc = os.proc(pid).ctx().pc();
        if let Some(e) = ctl.note_pc_sample(&mut os, &mut rt, &mut health, pc) {
            return Err(e.into());
        }
        if let Some(e) = ctl.tick(&mut os, &mut rt, &mut health) {
            return Err(e.into());
        }
        ticks += 1;
        assert!(
            ticks < 10_000,
            "transfer should apply within the demo budget"
        );
    }
    let park = rt
        .metrics()
        .histogram("osr.park_to_resume_cycles")
        .map_or(0, |h| h.max());
    println!(
        "variant adopted mid-loop after {ticks} sample tick(s); \
         park-to-resume latency {park} cycle(s); phase = {}",
        ctl.phase_name()
    );

    // Proof the variant is really executing, still inside the same call:
    // NT prefetches only come from the variant's hinted loads.
    let before_nt = os.counters(pid).nt_prefetches;
    os.advance(100_000);
    let nt_delta = os.counters(pid).nt_prefetches - before_nt;
    println!("variant is live mid-call: {nt_delta} NT prefetches in the next 100k cycles\n");

    // ------------------------------------------------------------------
    // Act 2: a perturbed transfer deopts — and leaves nothing behind.
    // ------------------------------------------------------------------
    let (mut os, _pid, mut rt, spin, idx) = rig();
    let mut health = HealthMonitor::new(HealthConfig {
        degrade_threshold: 1_000,
        ..HealthConfig::default()
    });
    let mut ctl = OsrController::new(OsrConfig::default());
    // Every transfer application is sabotaged: the read-back verification
    // must catch the divergence, restore the parked frame from its
    // snapshot, and resume in baseline code.
    rt.set_fault_plan(FaultPlan::seeded(7).with_rate(FaultKind::TransferMisapply, 1.0));
    os.advance(150_000);
    ctl.arm(&mut os, &mut rt, &mut health, spin, idx)?;
    let err = loop {
        os.advance(1_000);
        if let Some(e) = ctl.tick(&mut os, &mut rt, &mut health) {
            break e;
        }
    };
    println!("injected TransferMisapply -> {err}");
    println!(
        "rolled back: osr.deopt = {}, osr.applied = {}, EVT target restored = {}",
        rt.metrics().counter("osr.deopt"),
        rt.metrics().counter("osr.applied"),
        rt.current_target(&os, spin) == Some(rt.link().func_addrs[spin.index()]),
    );

    // The structured event stream saw the whole story: arm, park, the
    // refused transfer, the deopt.
    let jsonl = rt.trace_jsonl(&os);
    let lines: Vec<&str> = jsonl.lines().collect();
    println!("\ntrace excerpt (last 8 of {} events):", lines.len());
    for line in lines.iter().rev().take(8).rev() {
        println!("  {line}");
    }
    if let Some(files) = rt.export_trace(&os, "osr")? {
        println!("full trace exported to {}", files.chrome.display());
    }
    Ok(())
}
