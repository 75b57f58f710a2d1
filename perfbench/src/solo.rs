//! `solo`: plain-compiled batch apps, each alone on its own experiment
//! machine, stepped through `Os::advance`.
//!
//! One op advances one app's machine by [`WINDOW_CYCLES`]. Ops rotate
//! over [`APPS`], whose working sets sit differently against the modelled
//! LLC, in a seeded order per round. `machine` dispatch and the memory
//! hierarchy do nearly all the work; `pcc`, `protean`, `pc3d` and
//! `datacenter` do none in the timed phase.

use std::ops::Range;

use machine::{DecodeStats, PerfCounters};
use pcc::{Compiler, Options};
use protean_bench::{experiment_os, llc_lines};
use simos::{Os, Pid};
use workloads::catalog;

use crate::report::{median, mix, ratio, Fingerprint, Metrics};
use crate::trace::{Span, SpanId, Tracer, NO_SPAN};
use crate::Workload;

/// An odd number of apps, so the median op falls inside one app's
/// distribution rather than in the gap between two.
pub const APPS: [&str; 3] = ["milc", "libquantum", "bst"];

/// Simulated cycles per op (one simulated millisecond is 1,000 cycles).
const WINDOW_CYCLES: u64 = 2_000_000;

/// Warm-up per app before timing: fills the simulated caches and the
/// decoded-block cache.
const WARM_CYCLES: u64 = 6_000_000;

/// Ops per app in one cycle. Each cycle restarts every app from a fresh
/// warmed-up machine and replays the same windows.
const CYCLE_WINDOWS: u32 = 40;

struct AppBox {
    image: visa::Image,
    os: Os,
    pid: Pid,
    /// The decode-fallback rerun of the warm-up matched bit for bit.
    fallback_ok: bool,
    /// Counters when the current cycle's timed ops began.
    base: (PerfCounters, DecodeStats),
}

impl AppBox {
    /// A fresh, warmed-up machine running `image` alone on core 0.
    fn start(image: visa::Image, tr: &Tracer) -> AppBox {
        let (mut os, pid) = spawn(&image);
        tr.span("simos.advance", NO_SPAN, None, |_| os.advance(WARM_CYCLES));
        let base = (os.counters(pid), os.decode_stats(pid));
        AppBox {
            image,
            os,
            pid,
            fallback_ok: true,
            base,
        }
    }
}

pub struct Solo {
    seed: u64,
    boxes: Vec<AppBox>,
    /// Instructions retired by each op, by op index.
    op_insts: Vec<u64>,
}

/// Which of `n` op kinds op `i` runs: every round of `n` ops runs each
/// kind once, in a seeded order.
pub fn round_robin(seed: u64, i: u32, n: usize) -> usize {
    let round = i / n as u32;
    let mut order: Vec<usize> = (0..n).collect();
    let r = mix(seed ^ mix(u64::from(round)));
    for k in (1..n).rev() {
        order.swap(k, (r >> (8 * k)) as usize % (k + 1));
    }
    order[i as usize % n]
}

/// Builds and compiles a catalog app for the experiment machine.
pub fn compile(app: &str, opts: Options, tr: &Tracer) -> visa::Image {
    let llc = llc_lines(&experiment_os());
    let module = tr.span("workloads.build", NO_SPAN, None, |_| {
        catalog::build(app, llc).expect("catalog app")
    });
    tr.span("pcc.compile", NO_SPAN, None, |_| {
        Compiler::new(opts).compile(&module).expect("compile").image
    })
}

/// A fresh experiment machine running `image` alone on core 0.
fn spawn(image: &visa::Image) -> (Os, Pid) {
    let mut os = Os::new(experiment_os());
    let pid = os.spawn(image, 0);
    (os, pid)
}

impl Workload for Solo {
    /// One cycle: [`CYCLE_WINDOWS`] ops per app.
    const CYCLE: u32 = CYCLE_WINDOWS * APPS.len() as u32;

    fn setup(seed: u64, tr: &'static Tracer) -> Self {
        let boxes = APPS
            .iter()
            .map(|app| {
                let mut b = AppBox::start(compile(app, Options::plain(), tr), tr);
                // Output check: the same warm-up under the always-decode
                // fallback (no block cache, no fusion) must retire exactly
                // the same simulated counters.
                let (mut twin, tpid) = spawn(&b.image);
                twin.set_decode_fallback(tpid, true);
                tr.span("simos.advance", NO_SPAN, None, |_| {
                    twin.advance(WARM_CYCLES)
                });
                b.fallback_ok = twin.counters(tpid) == b.base.0;
                b
            })
            .collect();
        Solo {
            seed,
            boxes,
            op_insts: Vec::new(),
        }
    }

    fn prepare(&mut self, i: u32, tr: &Tracer) {
        // Every cycle replays the first from a fresh warmed-up machine, so
        // a run's op mix does not depend on how many ops it completes.
        if i > 0 && i % Self::CYCLE == 0 {
            for b in &mut self.boxes {
                let ok = b.fallback_ok;
                *b = AppBox::start(b.image.clone(), tr);
                b.fallback_ok = ok;
            }
        }
    }

    fn op(&mut self, i: u32, tr: &Tracer, span: SpanId) -> (u64, bool) {
        let app = round_robin(self.seed, i % Self::CYCLE, APPS.len());
        let b = &mut self.boxes[app];
        let insts0 = b.os.counters(b.pid).instructions;
        tr.span("simos.advance", span, Some(i), |_| {
            b.os.advance(WINDOW_CYCLES)
        });
        self.op_insts
            .push(b.os.counters(b.pid).instructions - insts0);
        (WINDOW_CYCLES, b.fallback_ok)
    }

    fn snapshot(&mut self, m: &mut Metrics, fp: &mut Fingerprint) {
        let (mut insts, mut llc, mut hits, mut misses, mut inval, mut fused) = (0, 0, 0, 0, 0, 0);
        for b in &self.boxes {
            let (c0, d0) = &b.base;
            let (c1, d1) = (b.os.counters(b.pid), b.os.decode_stats(b.pid));
            for v in [
                c1.instructions - c0.instructions,
                c1.cycles - c0.cycles,
                c1.branches - c0.branches,
                c1.l1_misses - c0.l1_misses,
                c1.l2_misses - c0.l2_misses,
                c1.llc_misses - c0.llc_misses,
                d1.hits - d0.hits,
                d1.misses - d0.misses,
                d1.fused_ops - d0.fused_ops,
            ] {
                fp.u64(v);
            }
            insts += c1.instructions - c0.instructions;
            llc += c1.llc_misses - c0.llc_misses;
            hits += d1.hits - d0.hits;
            misses += d1.misses - d0.misses;
            inval += d1.invalidations - d0.invalidations;
            fused += d1.fused_ops - d0.fused_ops;
        }
        let values = [
            ("machine.insts", insts as f64, "count"),
            (
                "machine.decoded_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            (
                "machine.fused_op_share",
                ratio(fused as f64, insts as f64),
                "ratio",
            ),
            (
                "machine.decoded_invalidations_per_window",
                inval as f64 / f64::from(Self::CYCLE),
                "count/op",
            ),
            (
                "machine.llc_misses_per_kinst",
                ratio(llc as f64 * 1e3, insts as f64),
                "1/kinst",
            ),
        ];
        for (name, v, unit) in values {
            fp.f64(v);
            m.set(name, v, unit);
        }
    }

    fn host(&self, spans: &[Span], traced: &Range<u32>, m: &mut Metrics) {
        let advance: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "simos.advance" && s.op.is_some_and(|o| traced.contains(&o)))
            .collect();
        let ns: u64 = advance.iter().map(|s| s.ns()).sum();
        let insts: u64 = advance
            .iter()
            .map(|s| self.op_insts[s.op.expect("op span") as usize])
            .sum();
        m.set(
            "machine.minstr_per_s",
            ratio(insts as f64 / 1e6, ns as f64 / 1e9),
            "Minstr/s",
        );
        let ms: Vec<f64> = advance.iter().map(|s| s.ns() as f64 / 1e6).collect();
        m.set("simos.advance_ms", median(&ms), "ms");
    }
}
