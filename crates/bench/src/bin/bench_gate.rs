#![forbid(unsafe_code)]

//! CI regression gate for interpreter throughput.
//!
//! Raw M instr/s numbers are host-dependent, so the gate normalizes: it
//! times a pure-arithmetic calibration loop on the same host and gates on
//! `interpreter M instr/s / calibration M ops/s`. That ratio tracks how
//! much work the interpreter does per unit of host compute and is stable
//! across machines of different speeds (though not across radically
//! different microarchitectures — the 20% margin absorbs that).
//!
//! Usage:
//!   bench_gate            compare against the checked-in baseline;
//!                         exit 1 on a >20% regression
//!   bench_gate --update   rewrite the baseline from this host's numbers
//!
//! Besides the interpreter workloads, the gate times the discrete-event
//! datacenter simulator on a fixed pinned-colo cluster and gates on
//! simulated events processed per host second, normalized the same way.
//!
//! The baseline lives at `crates/bench/bench_baseline.json` (override
//! with `PROTEAN_BENCH_BASELINE`). Workload and cycle budget follow
//! `PROTEAN_SCALE` (quick/full); reports honor `PROTEAN_BENCH_JSON`.

use datacenter::{serial_exec, Cluster};
use protean_bench::report::{number_field, read_top_level, update_json_map, Json};
use protean_bench::{dc, host_calibration_mops, interp_cycles, interp_throughput, Scale};
use std::path::PathBuf;

/// Allowed loss of host-normalized throughput before the gate fails.
const MAX_REGRESSION: f64 = 0.20;

const WORKLOADS: &[&str] = &["milc", "libquantum"];

fn baseline_path() -> PathBuf {
    std::env::var_os("PROTEAN_BENCH_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench_baseline.json"))
}

fn main() {
    let update = std::env::args().any(|a| a == "--update");
    let scale = Scale::from_env();
    let cycles = interp_cycles(scale);
    let baseline = baseline_path();

    println!("bench_gate: calibrating host ...");
    let cal = host_calibration_mops();
    println!("  calibration loop: {cal:.1} M ops/s");

    let mut failures = 0;
    let mut gate_one = |name: &str, ratio: f64, raw: (&'static str, f64)| {
        if update {
            let entry = Json::obj([
                ("ratio", Json::F64(ratio)),
                (raw.0, Json::F64(raw.1)),
                ("calibration_mops_on_update_host", Json::F64(cal)),
            ]);
            update_json_map(&baseline, name, &entry).expect("write baseline");
            return;
        }
        let Some(base) = read_top_level(&baseline, name).and_then(|v| number_field(&v, "ratio"))
        else {
            println!(
                "  {name:<12} no baseline entry in {} — skipping",
                baseline.display()
            );
            return;
        };
        let floor = base * (1.0 - MAX_REGRESSION);
        if ratio < floor {
            println!(
                "  {name:<12} REGRESSION: ratio {ratio:.4} < floor {floor:.4} (baseline {base:.4})"
            );
            failures += 1;
        } else {
            println!("  {name:<12} ok: ratio {ratio:.4} vs baseline {base:.4} (floor {floor:.4})");
        }
    };
    for &w in WORKLOADS {
        let m = interp_throughput(w, cycles, 2);
        let ratio = m.m_instr_per_s / cal;
        println!(
            "  {w:<12} {:>8.1} M instr/s over {} cycles ({} insts)  ratio {ratio:.4}",
            m.m_instr_per_s, m.cycles, m.insts
        );
        gate_one(w, ratio, ("m_instr_per_s_on_update_host", m.m_instr_per_s));
    }

    // Datacenter DES throughput: simulated cluster events retired per
    // host second on a fixed pinned-colo cluster (every event fans the
    // fleet forward one epoch, so this tracks whole-simulator speed).
    let t0 = std::time::Instant::now();
    let r = Cluster::new(dc::gate_scenario()).run_with(&serial_exec());
    let wall = t0.elapsed().as_secs_f64();
    let events_per_sec = r.events as f64 / wall;
    let ratio = events_per_sec / cal;
    println!(
        "  {:<12} {:>8.1} events/s over {} events ({} queries)  ratio {ratio:.4}",
        "datacenter", events_per_sec, r.events, r.queries
    );
    gate_one(
        "datacenter",
        ratio,
        ("events_per_sec_on_update_host", events_per_sec),
    );

    if update {
        println!("baseline updated at {}", baseline.display());
    } else if failures > 0 {
        eprintln!(
            "bench_gate: {failures} workload(s) regressed more than {:.0}%",
            MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    } else {
        println!(
            "bench_gate: interpreter and datacenter throughput within {:.0}% of baseline",
            MAX_REGRESSION * 100.0
        );
    }
}
