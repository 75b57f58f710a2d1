//! `colo`: a protean batch host and a latency-sensitive (LS) service on
//! one experiment machine under a PC3D controller.
//!
//! One op is one `Pc3d::run_window`. Ops go round-robin over the
//! controllers of [`PAIRS`], which range from contentious to calm, in a
//! seeded order per round. Each LS service's offered load steps between
//! two levels, so phase resets and re-searches recur through the run. This is where
//! `pc3d` decides, `protean` compiles, gates and dispatches variants,
//! `simos` runs load generation and nap duty-cycling, and `machine` runs
//! under live patching and shared-LLC contention.

use std::ops::Range;

use machine::DecodeStats;
use pc3d::{Pc3d, Pc3dConfig};
use pcc::Options;
use protean::{Runtime, RuntimeConfig};
use protean_bench::experiment_os;
use simos::{LoadSchedule, Os, Pid};

use crate::report::{median, ratio, Fingerprint, Metrics};
use crate::solo::{compile, round_robin};
use crate::trace::{Span, SpanId, Tracer, NO_SPAN};
use crate::Workload;

/// (batch host, LS service, QoS target). An odd count keeps the median
/// op inside one controller's steady-window distribution.
pub const PAIRS: [(&str, &str, f64); 3] = [
    ("milc", "media-streaming", 0.95),
    ("bst", "graph-analytics", 0.95),
    ("libquantum", "web-search", 0.90),
];

/// The paper's mean batch utilization per LS service at a QoS target
/// (Figs. 9–11). Printed beside `pc3d.util` as a labelled reference.
fn paper_util(ls: &str, target: f64) -> Option<f64> {
    let row = match ls {
        "web-search" => [0.81, 0.67, 0.49],
        "media-streaming" => [0.60, 0.40, 0.22],
        "graph-analytics" => [0.82, 0.75, 0.67],
        _ => return None,
    };
    [0.90, 0.95, 0.98]
        .iter()
        .position(|t| (t - target).abs() < 1e-9)
        .map(|i| row[i])
}

/// Simulated seconds each controller runs before its timed windows: the
/// simulated caches fill, and the first search (due after PC3D's 2 s
/// monitoring warm-up) falls into the timed windows.
const WARM_SECS: f64 = 1.5;

/// Timed windows per controller in one cycle. Each cycle restarts every
/// controller from a fresh machine and replays the same windows, so a
/// run's op mix does not depend on how many ops it completes.
const CYCLE_WINDOWS: u32 = 50;

/// LS load alternates every 10 simulated seconds between the operating
/// load and 45% of it, so phase resets and re-searches recur through
/// every cycle. The schedule is the same for every seed: PC3D amplifies
/// any change of load into a different set of searches, and a seeded
/// schedule moved `op_ms_p99` by IQR/median 0.85 across five seeds.
const STEP_SECS: f64 = 10.0;
const LOW_LOAD: f64 = 0.45;

/// Simulated seconds the load schedule covers: more than one cycle's
/// windows plus the searches among them.
const HORIZON_SECS: f64 = 600.0;

/// Cumulative state of one controller's machine, for differencing.
#[derive(Clone, Copy, Default)]
struct Snap {
    now: u64,
    insts: u64,
    llc_misses: u64,
    decode: DecodeStats,
    runtime_cycles: u64,
    host_branches: u64,
    queries: i64,
    history: usize,
    searches: u64,
    compilations: u64,
    compile_cycles: u64,
    dispatches: u64,
    unproved: u64,
    refuted: u64,
    rejected: u64,
}

/// A pair's compiled images and calibrations, kept across cycles.
struct Pair {
    ls_img: visa::Image,
    host_img: visa::Image,
    target: f64,
    /// LS offered load at the top of its schedule: 85% of its saturated
    /// solo capacity.
    operating_qps: f64,
    /// The batch host's solo progress rate, the base of `pc3d.util`.
    solo_bps: f64,
}

impl Pair {
    fn new(batch: &str, ls: &str, target: f64, tr: &Tracer) -> Pair {
        let ls_img = compile(ls, Options::plain(), tr);
        let host_img = compile(batch, Options::protean(), tr);
        let capacity = tr.span("simos.calibrate", NO_SPAN, None, |_| {
            let mut os = Os::new(experiment_os());
            let pid = os.spawn(&ls_img, 0);
            os.set_load(pid, LoadSchedule::constant(1e9));
            os.advance_seconds(1.25);
            let q0 = os.app_metric(pid, 0);
            os.advance_seconds(5.0);
            (os.app_metric(pid, 0) - q0) as f64 / 5.0
        });
        let solo_bps = tr.span("simos.calibrate", NO_SPAN, None, |_| {
            let mut os = Os::new(experiment_os());
            let pid = os.spawn(&host_img, 1);
            os.advance_seconds(0.5);
            let b0 = os.counters(pid).branches;
            os.advance_seconds(2.0);
            (os.counters(pid).branches - b0) as f64 / 2.0
        });
        Pair {
            ls_img,
            host_img,
            target,
            operating_qps: 0.85 * capacity,
            solo_bps,
        }
    }
}

struct Ctl {
    os: Os,
    ls: Pid,
    host: Pid,
    pc3d: Pc3d,
    /// State when the cycle's timed windows began.
    base: Snap,
}

impl Ctl {
    /// A pair on a fresh machine under a new controller, warmed up.
    fn start(p: &Pair, tr: &Tracer) -> Ctl {
        let mut os = Os::new(experiment_os());
        let ls = os.spawn(&p.ls_img, 0);
        let host = os.spawn(&p.host_img, 1);
        os.set_load(ls, schedule(p.operating_qps));
        let rt = tr.span("protean.attach", NO_SPAN, None, |_| {
            Runtime::attach(&os, host, RuntimeConfig::on_core(2)).expect("attach")
        });
        let cfg = Pc3dConfig {
            qos_target: p.target,
            ..Pc3dConfig::default()
        };
        let mut pc3d = tr.span("pc3d.new", NO_SPAN, None, |_| {
            Pc3d::new(&mut os, rt, ls, cfg)
        });
        while os.now_seconds() < WARM_SECS {
            tr.span("pc3d.run_window", NO_SPAN, None, |_| {
                pc3d.run_window(&mut os)
            });
        }
        let mut c = Ctl {
            os,
            ls,
            host,
            pc3d,
            base: Snap::default(),
        };
        c.base = c.snap();
        c
    }

    fn snap(&self) -> Snap {
        let (ls, host) = (self.os.counters(self.ls), self.os.counters(self.host));
        let (dl, dh) = (
            self.os.decode_stats(self.ls),
            self.os.decode_stats(self.host),
        );
        let rt = self.pc3d.runtime();
        Snap {
            now: self.os.now(),
            insts: ls.instructions + host.instructions,
            llc_misses: ls.llc_misses + host.llc_misses,
            decode: DecodeStats {
                hits: dl.hits + dh.hits,
                misses: dl.misses + dh.misses,
                invalidations: dl.invalidations + dh.invalidations,
                fused_ops: dl.fused_ops + dh.fused_ops,
            },
            runtime_cycles: self.os.runtime_consumed_total(),
            host_branches: host.branches,
            queries: self.os.app_metric(self.ls, 0),
            history: self.pc3d.history().len(),
            searches: self.pc3d.searches(),
            compilations: rt.compilations(),
            compile_cycles: rt.compile_cycles(),
            dispatches: rt.metrics().counter("dispatch.count"),
            unproved: rt.unproved_dispatches(),
            refuted: rt.refuted_dispatches(),
            rejected: rt.rejected_dispatches(),
        }
    }
}

/// The LS load schedule: a square wave between the operating load and
/// [`LOW_LOAD`] of it.
fn schedule(operating_qps: f64) -> LoadSchedule {
    let steps = (0..(HORIZON_SECS / STEP_SECS) as u32)
        .map(|n| {
            let level = if n % 2 == 0 { 1.0 } else { LOW_LOAD };
            (f64::from(n) * STEP_SECS, operating_qps * level)
        })
        .collect();
    LoadSchedule::steps(steps)
}

/// Per-op record for the host-time metrics.
struct OpLog {
    insts: u64,
    searched: bool,
}

pub struct Colo {
    seed: u64,
    pairs: Vec<Pair>,
    ctls: Vec<Ctl>,
    ops: Vec<OpLog>,
    notes: Vec<String>,
}

impl Workload for Colo {
    /// One cycle: [`CYCLE_WINDOWS`] windows per controller.
    const CYCLE: u32 = CYCLE_WINDOWS * PAIRS.len() as u32;

    fn setup(seed: u64, tr: &'static Tracer) -> Self {
        let pairs: Vec<Pair> = PAIRS
            .iter()
            .map(|&(batch, ls, target)| Pair::new(batch, ls, target, tr))
            .collect();
        let ctls = pairs.iter().map(|p| Ctl::start(p, tr)).collect();
        Colo {
            seed,
            pairs,
            ctls,
            ops: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn prepare(&mut self, i: u32, tr: &Tracer) {
        if i > 0 && i % Self::CYCLE == 0 {
            for (c, p) in self.ctls.iter_mut().zip(&self.pairs) {
                *c = Ctl::start(p, tr);
            }
        }
    }

    fn op(&mut self, i: u32, tr: &Tracer, span: SpanId) -> (u64, bool) {
        let c = &mut self.ctls[round_robin(self.seed, i % Self::CYCLE, PAIRS.len())];
        let before = c.snap();
        tr.span("pc3d.run_window", span, Some(i), |_| {
            c.pc3d.run_window(&mut c.os)
        });
        let after = c.snap();
        // Output checks: the gate refused nothing and every measurement
        // window produced a finite QoS.
        let ok = after.refuted == before.refuted
            && after.rejected == before.rejected
            && c.pc3d.history()[before.history..]
                .iter()
                .all(|r| r.qos.is_finite());
        self.ops.push(OpLog {
            insts: after.insts - before.insts,
            searched: after.searches > before.searches,
        });
        (after.now - before.now, ok)
    }

    fn snapshot(&mut self, m: &mut Metrics, fp: &mut Fingerprint) {
        let mut t = Snap::default();
        let (mut cycles, mut util, mut p99) = (0u64, 0.0, 0u64);
        let (mut windows, mut search_windows, mut hints) = (0u64, 0u64, 0u64);
        let (mut qos_min, mut violations, mut nap_sum, mut steady) =
            (f64::INFINITY, 0u64, 0.0, 0u64);
        for ((c, p), (batch, ls, target)) in self.ctls.iter().zip(&self.pairs).zip(PAIRS) {
            let (a, b) = (&c.base, &c.snap());
            let dt = b.now - a.now;
            let machine = &c.os.config().machine;
            cycles += dt * machine.cores as u64;
            t.insts += b.insts - a.insts;
            t.llc_misses += b.llc_misses - a.llc_misses;
            t.decode.hits += b.decode.hits - a.decode.hits;
            t.decode.misses += b.decode.misses - a.decode.misses;
            t.decode.invalidations += b.decode.invalidations - a.decode.invalidations;
            t.decode.fused_ops += b.decode.fused_ops - a.decode.fused_ops;
            t.runtime_cycles += b.runtime_cycles - a.runtime_cycles;
            t.queries += b.queries - a.queries;
            t.searches += b.searches - a.searches;
            t.compilations += b.compilations - a.compilations;
            t.compile_cycles += b.compile_cycles - a.compile_cycles;
            t.dispatches += b.dispatches - a.dispatches;
            t.unproved += b.unproved - a.unproved;
            t.refuted += b.refuted - a.refuted;
            t.rejected += b.rejected - a.rejected;
            let u = (b.host_branches - a.host_branches) as f64
                / machine.cycles_to_seconds(dt)
                / p.solo_bps;
            util += u;
            let paper = paper_util(ls, target).map_or("n/a".to_string(), |v| format!("{v:.2}"));
            self.notes.push(format!(
                "pc3d.util {batch}+{ls}@{target}: simulated {u:.3}; paper mean for {ls} at this target (reference only): {paper}"
            ));
            p99 = p99.max(c.os.latency_stats(c.ls).map_or(0, |l| l.p99));
            hints += c.pc3d.hints() as u64;
            for r in &c.pc3d.history()[a.history..b.history] {
                for v in [r.t, r.host_bps, r.qos, r.nap, r.runtime_frac] {
                    fp.f64(v);
                }
                fp.u64(r.hints as u64 * 2 + u64::from(r.searching));
                windows += 1;
                if r.searching {
                    search_windows += 1;
                } else {
                    steady += 1;
                    qos_min = qos_min.min(r.qos);
                    nap_sum += r.nap;
                    violations += u64::from(r.qos < p.target - 0.01);
                }
            }
        }
        let search_ops = self.ops.iter().filter(|o| o.searched).count();
        self.notes.push(format!(
            "colo cycle: {} ops, {search_ops} ran a search ({:.1}%)",
            self.ops.len(),
            100.0 * search_ops as f64 / self.ops.len() as f64
        ));
        let insts = t.insts as f64;
        let values = [
            ("machine.insts", insts, "count"),
            (
                "machine.decoded_hit_ratio",
                ratio(
                    t.decode.hits as f64,
                    (t.decode.hits + t.decode.misses) as f64,
                ),
                "ratio",
            ),
            (
                "machine.fused_op_share",
                ratio(t.decode.fused_ops as f64, insts),
                "ratio",
            ),
            (
                "machine.decoded_invalidations_per_window",
                t.decode.invalidations as f64 / f64::from(Self::CYCLE),
                "count/op",
            ),
            (
                "machine.llc_misses_per_kinst",
                ratio(t.llc_misses as f64 * 1e3, insts),
                "1/kinst",
            ),
            ("simos.ls_p99_cycles", p99 as f64, "cycles"),
            ("simos.queries", t.queries as f64, "count"),
            ("protean.compilations", t.compilations as f64, "count"),
            ("protean.compile_cycles", t.compile_cycles as f64, "cycles"),
            ("protean.gate_proved", t.dispatches as f64, "count"),
            ("protean.gate_unproved", t.unproved as f64, "count"),
            ("protean.gate_refuted", t.refuted as f64, "count"),
            ("protean.rejected_dispatches", t.rejected as f64, "count"),
            (
                "protean.runtime_frac",
                ratio(t.runtime_cycles as f64, cycles as f64),
                "ratio",
            ),
            ("pc3d.windows", windows as f64, "count"),
            ("pc3d.search_windows", search_windows as f64, "count"),
            ("pc3d.searches", t.searches as f64, "count"),
            ("pc3d.util", util / self.ctls.len() as f64, "ratio"),
            (
                "pc3d.qos_min",
                if steady > 0 { qos_min } else { 0.0 },
                "ratio",
            ),
            ("pc3d.qos_violation_windows", violations as f64, "count"),
            ("pc3d.nap_mean", ratio(nap_sum, steady as f64), "ratio"),
            ("pc3d.hints", hints as f64, "count"),
        ];
        for (name, v, unit) in values {
            fp.f64(v);
            m.set(name, v, unit);
        }
    }

    fn host(&self, spans: &[Span], traced: &Range<u32>, m: &mut Metrics) {
        let windows: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "pc3d.run_window" && s.op.is_some_and(|o| traced.contains(&o)))
            .collect();
        let ns: u64 = windows.iter().map(|s| s.ns()).sum();
        let log = |s: &Span| &self.ops[s.op.expect("op span") as usize];
        let insts: u64 = windows.iter().map(|s| log(s).insts).sum();
        m.set(
            "machine.minstr_per_s",
            ratio(insts as f64 / 1e6, ns as f64 / 1e9),
            "Minstr/s",
        );
        let ms = |searched: bool| -> Vec<f64> {
            windows
                .iter()
                .filter(|s| log(s).searched == searched)
                .map(|s| s.ns() as f64 / 1e6)
                .collect()
        };
        m.set("pc3d.steady_window_ms_p50", median(&ms(false)), "ms");
        let search = ms(true);
        m.set("pc3d.search_window_ms_p50", median(&search), "ms");
        m.set(
            "pc3d.search_window_ms_max",
            search.iter().copied().fold(0.0, f64::max),
            "ms",
        );
    }

    fn notes(&self) -> Vec<String> {
        self.notes.clone()
    }
}
