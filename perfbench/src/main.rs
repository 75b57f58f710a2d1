//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo|colo|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! One process drives one workload through the crates' public APIs as a
//! closed loop with one client: the next op starts when the previous one
//! returns. Set-up (catalog builds, compiles, calibrations, warm-up) runs
//! [`SETUP_REPS`] times and is reported as the median. The timed phase
//! runs whole cycles of ops until `--seconds` have passed. Every cycle of
//! a workload replays the same simulated work, each cycle on the next
//! host CPU (see [`cpu`]), and the host-time metrics come from the fastest
//! [`FAST_SHARE`] of each op's repeats.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` splits the
//! timed phase into an untraced half and a traced half, prints the
//! per-layer metrics derived from the traced half's spans (and from the
//! set-up spans), and writes every span to `perfbench/out/`.
//!
//! Simulated statistics are taken over the first cycle of the timed
//! phase, which every run completes, so they repeat exactly for a seed;
//! their hash is printed as the run's fingerprint.

mod colo;
mod cpu;
mod fleet;
mod report;
mod solo;
mod trace;

use std::ops::Range;
use std::process::ExitCode;
use std::time::Instant;

use report::{median, quantile, ratio, Fingerprint, Metrics};
use trace::{Span, SpanId, Tracer, NO_SPAN};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Ops per cycle. A cycle replays the same simulated work every time,
    /// and a timed phase ends only on a cycle boundary.
    const CYCLE: u32;

    /// Everything before the first timed op, warm-up included.
    fn setup(seed: u64, tr: &'static Tracer) -> Self;

    /// Work between timed ops that belongs to no op.
    fn prepare(&mut self, _i: u32, _tr: &Tracer) {}

    /// Runs op `i` inside the op span `span`. Returns the simulated cycles
    /// it advanced and whether its output checks passed.
    fn op(&mut self, i: u32, tr: &Tracer, span: SpanId) -> (u64, bool);

    /// Called once, at the end of the first cycle: the simulated per-layer
    /// values of that cycle, each also fed to the fingerprint.
    fn snapshot(&mut self, m: &mut Metrics, fp: &mut Fingerprint);

    /// Checks made after the timed phase of `ops` ops. Returns the ops
    /// they fail.
    fn finish(&mut self, _ops: u32) -> Vec<u32> {
        Vec::new()
    }

    /// Host-time per-layer values from the spans of the traced ops
    /// `traced` (`run` adds the set-up ones).
    fn host(&self, spans: &[Span], traced: &Range<u32>, m: &mut Metrics);

    /// Human-readable lines printed before the result.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("machine.minstr_per_s", "Minstr/s"),
    ("machine.decoded_hit_ratio", "ratio"),
    ("machine.fused_op_share", "ratio"),
    ("machine.decoded_invalidations_per_window", "count/op"),
    ("machine.insts", "count"),
    ("machine.llc_misses_per_kinst", "1/kinst"),
    ("simos.advance_ms", "ms"),
    ("simos.calibrate_ms", "ms"),
    ("simos.ls_p99_cycles", "cycles"),
    ("simos.queries", "count"),
    ("pcc.compile_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("protean.attach_ms", "ms"),
    ("protean.compilations", "count"),
    ("protean.compile_cycles", "cycles"),
    ("protean.gate_proved", "count"),
    ("protean.gate_unproved", "count"),
    ("protean.gate_refuted", "count"),
    ("protean.rejected_dispatches", "count"),
    ("protean.runtime_frac", "ratio"),
    ("pc3d.steady_window_ms_p50", "ms"),
    ("pc3d.search_window_ms_p50", "ms"),
    ("pc3d.search_window_ms_max", "ms"),
    ("pc3d.windows", "count"),
    ("pc3d.search_windows", "count"),
    ("pc3d.searches", "count"),
    ("pc3d.util", "ratio"),
    ("pc3d.qos_min", "ratio"),
    ("pc3d.qos_violation_windows", "count"),
    ("pc3d.nap_mean", "ratio"),
    ("pc3d.hints", "count"),
    ("datacenter.new_ms", "ms"),
    ("datacenter.serial_ms", "ms"),
    ("datacenter.fanout_ms", "ms"),
    ("datacenter.fanout_share", "ratio"),
    ("datacenter.fanouts", "count"),
    ("datacenter.slices_per_fanout", "count"),
    ("datacenter.events", "count"),
    ("datacenter.server_mcycles", "Mcycles"),
    ("datacenter.idle_skipped_cycles", "cycles"),
    ("datacenter.activations", "count"),
    ("datacenter.parks", "count"),
    ("datacenter.qos_violations", "count"),
    ("pool.slice_ms_p50", "ms"),
    ("pool.efficiency", "ratio"),
    ("bench.self_ms_per_op", "ms"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "solo" => run::<solo::Solo>(&args),
        "colo" => run::<colo::Colo>(&args),
        "fleet" => run::<fleet::Fleet>(&args),
        w => {
            eprintln!("perfbench: unknown workload {w} (solo, colo, fleet)");
            ExitCode::from(2)
        }
    }
}

/// Share of each op's repeats a phase's host-time metrics are taken from.
///
/// Other tenants of the benchmark host slow it by up to 40% for seconds at
/// a time, and how much of a run they cover varies from run to run. Every
/// cycle of a workload replays identical work, so op `j` of each cycle is
/// one repeat of the same op, and its fastest repeats measure the code at
/// its uncontended speed; contention only adds time. Choosing per op
/// rather than per whole cycle keeps one op slowed in an otherwise fast
/// cycle out of `op_ms_p99`. `op_ms_p99` reads the slowest kept repeats
/// of the slowest ops, so it is the first metric to take in slowed
/// repeats when fewer than this share of an op's repeats ran uncontended;
/// on a shared 2-vCPU host it spread by 0.25 across ten `solo` runs at
/// 10%, and by 0.03 at 5%.
const FAST_SHARE: f64 = 0.05;

/// Host time and simulated work of each op of one timed phase.
struct Phase {
    ops: Range<u32>,
    op_ms: Vec<f64>,
    op_cycles: Vec<u64>,
}

/// The fastest repeats of each op of a phase.
#[derive(Default)]
struct Sample {
    op_ms: Vec<f64>,
    cycles: u64,
}

impl Sample {
    fn mcycles_per_s(&self) -> f64 {
        ratio(self.cycles as f64 / 1e3, self.op_ms.iter().sum())
    }
}

impl Phase {
    /// For each op of a cycle (`cycle` ops, the phase whole cycles), the
    /// [`FAST_SHARE`] of its repeats with the least host time.
    fn fastest(&self, cycle: u32) -> Sample {
        let n = cycle as usize;
        let reps = self.op_ms.len() / n;
        let keep = ((reps as f64 * FAST_SHARE).ceil() as usize).max(1);
        let mut s = Sample::default();
        for j in 0..n {
            let mut repeats: Vec<usize> = (j..self.op_ms.len()).step_by(n).collect();
            repeats.sort_by(|&a, &b| self.op_ms[a].total_cmp(&self.op_ms[b]));
            for &i in &repeats[..keep] {
                s.op_ms.push(self.op_ms[i]);
                s.cycles += self.op_cycles[i];
            }
        }
        s
    }
}

/// Median host time per call of the set-up layers the benchmark calls
/// directly: catalog builds, compiles, attach, calibrations.
fn setup_medians(spans: &[Span], m: &mut Metrics) {
    for (metric, span) in [
        ("workloads.build_ms", "workloads.build"),
        ("pcc.compile_ms", "pcc.compile"),
        ("protean.attach_ms", "protean.attach"),
        ("simos.calibrate_ms", "simos.calibrate"),
        ("datacenter.new_ms", "datacenter.new"),
    ] {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        m.set(metric, median(&ms), "ms");
    }
}

/// Runs whole cycles of ops from `first` (a cycle boundary) until `budget`
/// seconds have passed.
fn timed_phase<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    first: u32,
    budget: f64,
    ok: &mut Vec<bool>,
    sim: &mut (Metrics, Fingerprint),
) -> Phase {
    let t0 = Instant::now();
    let mut phase = Phase {
        ops: first..first,
        op_ms: Vec::new(),
        op_cycles: Vec::new(),
    };
    let mut i = first;
    while i == first || i % W::CYCLE != 0 || t0.elapsed().as_secs_f64() < budget {
        if i % W::CYCLE == 0 {
            cpu::pin_nth((i / W::CYCLE) as usize);
        }
        w.prepare(i, tr);
        let t = Instant::now();
        let (cycles, good) = tr.span("bench.op", NO_SPAN, Some(i), |id| w.op(i, tr, id));
        phase.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.op_cycles.push(cycles);
        ok.push(good);
        i += 1;
        if i == W::CYCLE {
            w.snapshot(&mut sim.0, &mut sim.1);
        }
    }
    phase.ops = first..i;
    phase
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    // The fan-out executor outlives any borrow (`SliceExec` is 'static),
    // so the recorder lives for the whole process.
    let tr: &'static Tracer = Box::leak(Box::new(Tracer::new()));
    tr.set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(args.seed, tr));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let mut ok = Vec::new();
    let mut metrics = Metrics::default();
    let mut sim = (Metrics::default(), Fingerprint::new());
    if args.trace {
        tr.set_enabled(false);
        let plain = timed_phase(&mut w, tr, 0, args.seconds / 2.0, &mut ok, &mut sim);
        tr.set_enabled(true);
        let traced = timed_phase(
            &mut w,
            tr,
            plain.ops.end,
            args.seconds / 2.0,
            &mut ok,
            &mut sim,
        );
        tr.set_enabled(false);
        let spans = tr.spans();
        for (name, unit) in PER_LAYER {
            metrics.set(name, 0.0, unit);
        }
        setup_medians(&spans, &mut metrics);
        w.host(&spans, &traced.ops, &mut metrics);
        let selfs = trace::self_ns(&spans);
        let bench_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "bench.op" && s.op.is_some_and(|o| traced.ops.contains(&o)))
            .map(|s| selfs[&s.id])
            .sum();
        metrics.set(
            "bench.self_ms_per_op",
            bench_ns as f64 / 1e6 / traced.op_ms.len() as f64,
            "ms",
        );
        metrics.set(
            "trace.overhead",
            ratio(
                plain.fastest(W::CYCLE).mcycles_per_s(),
                traced.fastest(W::CYCLE).mcycles_per_s(),
            ),
            "ratio",
        );
        let path = std::path::Path::new("perfbench/out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&spans, &path) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let phase = timed_phase(&mut w, tr, 0, args.seconds, &mut ok, &mut sim);
        let mut fast = phase.fastest(W::CYCLE);
        println!(
            "timed: {} ops in {} cycles; metrics from the fastest {} ops",
            phase.op_ms.len(),
            phase.op_ms.len() / W::CYCLE as usize,
            fast.op_ms.len()
        );
        let values = [
            median(&setup_s),
            fast.mcycles_per_s(),
            quantile(&mut fast.op_ms, 0.5),
            quantile(&mut fast.op_ms, 0.99),
            report::peak_rss_mb(),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.set(name, v, unit);
        }
    }
    let ops = ok.len() as u32;
    for i in w.finish(ops) {
        ok[i as usize] = false;
    }

    let (sim, fp) = sim;
    if args.trace {
        for m in sim.0 {
            metrics.set(m.name, m.value, m.unit);
        }
        assert_eq!(
            metrics.0.len(),
            PER_LAYER.len(),
            "a workload reported a metric missing from PER_LAYER"
        );
    }
    for line in w.notes() {
        println!("{line}");
    }
    println!(
        "fingerprint {} seed={} first_cycle_ops={} {}",
        args.workload,
        args.seed,
        W::CYCLE,
        fp.hex()
    );
    println!(
        "setup_s runs: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let failed = ok.iter().filter(|g| !**g).count();
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    for m in metrics.0.iter_mut().filter(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not finite", m.name);
        m.value = 0.0;
    }
    println!(
        "{}",
        report::result_line(failed == 0 && finite, ok.len(), failed, &metrics.0)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        assert_eq!(
            json.matches(r#""better""#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn fastest_repeats_are_chosen_per_op() {
        // Op 0 is fastest in cycle 0, op 1 in cycle 2.
        let phase = Phase {
            ops: 0..6,
            op_ms: vec![1.0, 9.0, 9.0, 9.0, 2.0, 3.0],
            op_cycles: vec![10, 20, 10, 20, 10, 20],
        };
        let fast = phase.fastest(2);
        assert_eq!(fast.op_ms, vec![1.0, 3.0]);
        assert_eq!(fast.cycles, 30);
        assert_eq!(fast.mcycles_per_s(), 30.0 / 1e6 / 4e-3);
    }
}
