//! Self-healing demo: corrupt the code cache mid-run and watch the
//! health ladder walk `Healthy -> Degraded -> Healthy`, then force the
//! final `Detached` rung and confirm the original code is back in the
//! EVT untouched.
//!
//! Run with: `cargo run --release --example faults`

use pcc::{Compiler, NtAssignment, Options};
use pir::{FunctionBuilder, Locality, Module};
use protean::{HealthConfig, HealthMonitor, HealthState, Runtime, RuntimeConfig};
use simos::{Os, OsConfig, Pid};

/// Non-terminating streaming host: `main` loops forever calling a leaf
/// `work` that streams over an 8 KiB buffer.
fn host() -> Module {
    let mut m = Module::new("demo");
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

/// Flips bits in the installed variant for `func`, but only once the PC
/// is outside its span (`work` is a leaf, so that means no live frame),
/// then scrubs in the same tick so the corrupt bytes never execute.
fn corrupt_installed_variant(
    os: &mut Os,
    rt: &mut Runtime,
    health: &mut HealthMonitor,
    pid: Pid,
    func: pir::FuncId,
) -> bool {
    let span = rt
        .variants()
        .iter()
        .find(|r| r.len > 0 && rt.current_target(os, func) == Some(r.addr))
        .map(|r| (r.addr, r.len));
    let Some((addr, len)) = span else {
        return false;
    };
    for _ in 0..100_000 {
        let pc = os.proc(pid).ctx().pc();
        if pc < addr || pc >= addr + len {
            os.corrupt_text(pid, addr + 2, 0xdead_beef);
            health.scrub(os, rt);
            return true;
        }
        os.advance(200);
    }
    false
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = Compiler::new(Options::protean()).compile(&host())?;
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&out.image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1))?;
    // Record every healing decision on the structured trace (normally
    // armed by setting `PROTEAN_TRACE`; forced on for the demo).
    rt.tracer_mut().set_enabled(true);
    // One checksum strike quarantines and degrades; two clean windows
    // climb back up a rung.
    let mut health = HealthMonitor::new(HealthConfig {
        quarantine_threshold: 1,
        degrade_threshold: 1,
        detach_threshold: 1_000,
        recovery_windows: 2,
        ..HealthConfig::default()
    });

    let work = rt.module().function_by_name("work").unwrap();
    let nt: NtAssignment = pir::load_sites(rt.module())
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == work)
        .collect();

    println!("window  state      quarantined  event");
    let mut state = health.state();
    for window in 0..12 {
        let mut event = String::new();
        if health.allows_variants()
            && health
                .transform_fresh(&mut os, &mut rt, work, &nt)
                .is_some()
        {
            event = "NT variant dispatched".into();
        }
        os.advance(100_000);
        if (window == 4 || window == 8)
            && corrupt_installed_variant(&mut os, &mut rt, &mut health, pid, work)
        {
            event = "code cache corrupted -> checksum scrub".into();
        }
        health.end_window(&mut os, &mut rt);
        let now = health.state();
        if now != state {
            event = format!("{event}  [{state:?} -> {now:?}]");
            state = now;
        }
        println!(
            "{window:>6}  {:<9}  {:>11}  {event}",
            format!("{state:?}"),
            rt.quarantined_variants().len(),
        );
    }

    // The last rung, on demand: restore every EVT entry to the original
    // code and leave the process exactly as if never attached.
    health.force_detach(&mut os, &mut rt);
    let original = rt.link().func_addrs[work.index()];
    assert_eq!(health.state(), HealthState::Detached);
    assert_eq!(rt.current_target(&os, work), Some(original));
    println!(
        "\nforced {:?}: EVT target back to original {original:#x}",
        health.state()
    );
    print!("{}", health.metrics().snapshot());

    // The same story, as the structured event stream saw it: every
    // dispatch, corruption, quarantine, and ladder move, cycle-stamped.
    let jsonl = rt.trace_jsonl(&os);
    let lines: Vec<&str> = jsonl.lines().collect();
    println!("\ntrace excerpt (last 10 of {} events):", lines.len());
    for line in lines.iter().rev().take(10).rev() {
        println!("  {line}");
    }
    // With `PROTEAN_TRACE=<dir>` set, also write the full export
    // (Chrome-trace JSON + JSONL) for chrome://tracing / Perfetto.
    if let Some(files) = rt.export_trace(&os, "faults")? {
        println!("full trace exported to {}", files.chrome.display());
    }

    // Every injectable fault kind, enumerated from `FaultKind::ALL` so
    // this listing can never fall behind new injection sites, with the
    // rate the chaos preset drives it at.
    println!(
        "\ninjectable fault kinds ({}):",
        protean::FaultKind::ALL.len()
    );
    let chaos = protean::FaultPlan::chaos(0);
    for kind in protean::FaultKind::ALL {
        println!(
            "  {:<17} chaos rate {:.2}",
            format!("{kind:?}"),
            chaos.rate(kind)
        );
    }
    Ok(())
}
