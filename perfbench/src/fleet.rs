//! `fleet`: whole discrete-event cluster runs, `Cluster::run_with`
//! through a fan-out executor the benchmark owns, over `pool` with
//! [`WORKERS`] workers.
//!
//! One op is one `run_with`. Ops alternate between two kinds of fleet: a
//! pinned co-located fleet with diurnal 1 s load steps (every box busy,
//! the shape of Figs. 17–18) and a consolidating jobs-mode fleet with
//! Poisson arrivals, placement, parking and idle skipping (many boxes
//! parked).
//! `Cluster::new` runs between ops, outside them. Every op of one fleet
//! repeats the same simulation, so each must reproduce the fingerprint of
//! the set-up run, and a serial run after the timed phase must match too.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datacenter::cluster::{
    serial_exec, BatchMode, Cluster, ClusterConfig, ClusterResult, GroupSpec, Placement, SliceExec,
    SliceJob,
};
use datacenter::{Mix, QpsShape};
use protean::MonitorReport;
use protean_bench::pool;

use crate::cpu;
use crate::report::{median, mix, ratio, unit, Fingerprint, Metrics};
use crate::trace::{self, Span, SpanId, Tracer, NO_SPAN};
use crate::Workload;

/// Fan-out workers: the benchmark host has two cores.
pub const WORKERS: usize = 2;

/// Batch mixes of the catalog's smaller apps (the paper's mixes include
/// soplex and sphinx3, whose compiles make `Cluster::new` several times
/// slower than a `run_with`, leaving too few ops in a run).
const MIX_A: Mix = Mix {
    name: "libquantum-lbm-bst-sledge",
    batch_apps: ["libquantum", "lbm", "bst", "sledge"],
};
const MIX_B: Mix = Mix {
    name: "bst-lbm-blockie-libquantum",
    batch_apps: ["bst", "lbm", "blockie", "libquantum"],
};

/// Fleets per cycle: pinned and jobs-mode alternate, each drawn from its
/// own seed derived from the run's. Several draws per run average out how
/// much work one draw happens to make; an odd count keeps the median op
/// inside one fleet's distribution.
const FLEETS: usize = 5;

/// The fleets of one cycle.
fn configs(seed: u64) -> Vec<ClusterConfig> {
    (0..FLEETS as u64)
        .map(|k| {
            let draw = mix(seed ^ mix(k));
            if k % 2 == 0 {
                pinned(draw)
            } else {
                jobs(draw)
            }
        })
        .collect()
}

/// A co-located fleet: every server busy with its LS share and a pinned
/// batch stream under PC3D, diurnal load in 1 s steps.
fn pinned(seed: u64) -> ClusterConfig {
    ClusterConfig {
        groups: vec![GroupSpec {
            name: "web-search/A".into(),
            ls_app: "web-search",
            mix: MIX_A,
            servers: 6,
            shape: QpsShape::diurnal(12.0, 90.0, 20.0, 1.0, unit(seed, 1), 1.0),
        }],
        batch: BatchMode::Pinned,
        duration_secs: 12.0,
        consolidate: false,
        seed,
        ..ClusterConfig::default()
    }
}

/// A consolidating jobs-mode fleet: Poisson arrivals, co-location-aware
/// placement, parking and idle skipping.
fn jobs(seed: u64) -> ClusterConfig {
    ClusterConfig {
        groups: vec![
            GroupSpec {
                name: "web-search/A".into(),
                ls_app: "web-search",
                mix: MIX_A,
                servers: 3,
                shape: QpsShape::diurnal(24.0, 40.0, 6.0, 1.0, unit(seed, 2), 1.0),
            },
            GroupSpec {
                name: "graph-analytics/B".into(),
                ls_app: "graph-analytics",
                mix: MIX_B,
                servers: 3,
                shape: QpsShape::bursty(24.0, 6.0, 30.0, 0.25, 1.0, mix(seed ^ 0xb0b)),
            },
        ],
        batch: BatchMode::Jobs {
            placement: Placement::ColocationAware,
            mean_interarrival_secs: 2.5,
        },
        duration_secs: 24.0,
        consolidate: true,
        min_active: 1,
        seed,
        job_branches: 3_000,
        ..ClusterConfig::default()
    }
}

/// What the executor sees of the op it runs in. Written by the op before
/// `run_with`; read by the executor on the same thread and passed on to
/// its workers by value, so relaxed ordering suffices.
#[derive(Default)]
struct FanCtx {
    op: AtomicU32,
    parent: AtomicU32,
    fanouts: AtomicU64,
    slices: AtomicU64,
}

/// The benchmark's executor: `pool::map_with` over [`WORKERS`], one span
/// around each fan-out and one around each `SliceJob::run`.
fn pooled_exec(tr: &'static Tracer, ctx: Arc<FanCtx>) -> SliceExec {
    Box::new(move |jobs: Vec<SliceJob>| {
        let op = Some(ctx.op.load(Ordering::Relaxed));
        ctx.fanouts.fetch_add(1, Ordering::Relaxed);
        ctx.slices.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let parent = ctx.parent.load(Ordering::Relaxed);
        tr.span("datacenter.fanout", parent, op, |fan| {
            // `pool` hands out `&T` and a slice is consumed by running
            // it: each sits in a slot taken exactly once.
            let slots: Vec<Mutex<Option<SliceJob>>> =
                jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            // The workers may use every CPU, whichever one the timed
            // phase has pinned this thread to.
            cpu::with_all(|| {
                pool::map_with(WORKERS, &slots, |_, slot| {
                    let job = slot
                        .lock()
                        .expect("slice slot")
                        .take()
                        .expect("each slice claimed once");
                    tr.span("pool.slice", fan, op, |_| job.run())
                })
            })
        })
    })
}

/// Hash of everything a cluster run reports, floats by bit pattern.
fn fingerprint(r: &ClusterResult) -> u64 {
    let mut fp = Fingerprint::new();
    for v in [
        r.events,
        r.skipped_cycles,
        r.queries as u64,
        r.jobs_completed,
    ] {
        fp.u64(v);
    }
    fp.f64(r.energy_joules);
    for g in &r.groups {
        for v in [
            g.queries as u64,
            g.jobs_completed,
            g.batch_branches,
            g.busy_cycles,
            g.lifetime_cycles,
            g.qos_violations,
            g.activations,
            g.parks,
            g.idle_skipped_cycles,
            g.peak_active as u64,
        ] {
            fp.u64(v);
        }
        fp.f64(g.energy_joules);
    }
    fp.bytes(
        MonitorReport::from_metrics(r.snapshot.clone())
            .to_string()
            .as_bytes(),
    );
    fp.value()
}

fn server_cycles(r: &ClusterResult) -> u64 {
    r.groups.iter().map(|g| g.lifetime_cycles).sum()
}

pub struct Fleet {
    cfgs: Vec<ClusterConfig>,
    ctx: Arc<FanCtx>,
    exec: SliceExec,
    /// Fingerprint of each fleet's set-up run.
    expected: Vec<u64>,
    next: Option<Cluster>,
    /// Results of the first cycle's ops, and the fan-out counters
    /// before them.
    first: Vec<ClusterResult>,
    fan_base: (u64, u64),
}

impl Fleet {
    fn fan_counts(&self) -> (u64, u64) {
        (
            self.ctx.fanouts.load(Ordering::Relaxed),
            self.ctx.slices.load(Ordering::Relaxed),
        )
    }
}

impl Workload for Fleet {
    const CYCLE: u32 = FLEETS as u32;

    fn setup(seed: u64, tr: &'static Tracer) -> Self {
        let ctx = Arc::new(FanCtx::default());
        let exec = pooled_exec(tr, Arc::clone(&ctx));
        let cfgs = configs(seed);
        // Warm-up: one pooled run of each fleet, whose fingerprint every
        // timed op of that fleet must reproduce.
        let expected = cfgs
            .iter()
            .map(|cfg| {
                let cluster = tr.span("datacenter.new", NO_SPAN, None, |_| {
                    Cluster::new(cfg.clone())
                });
                fingerprint(&tr.span("datacenter.run_with", NO_SPAN, None, |id| {
                    ctx.parent.store(id, Ordering::Relaxed);
                    cluster.run_with(&exec)
                }))
            })
            .collect();
        let mut f = Fleet {
            cfgs,
            ctx,
            exec,
            expected,
            next: None,
            first: Vec::new(),
            fan_base: (0, 0),
        };
        f.fan_base = f.fan_counts();
        f
    }

    fn prepare(&mut self, i: u32, tr: &Tracer) {
        let cfg = self.cfgs[i as usize % FLEETS].clone();
        self.next = Some(tr.span("datacenter.new", NO_SPAN, None, |_| Cluster::new(cfg)));
    }

    fn op(&mut self, i: u32, tr: &Tracer, span: SpanId) -> (u64, bool) {
        let cluster = self.next.take().expect("prepared cluster");
        self.ctx.op.store(i, Ordering::Relaxed);
        let r = tr.span("datacenter.run_with", span, Some(i), |id| {
            self.ctx.parent.store(id, Ordering::Relaxed);
            cluster.run_with(&self.exec)
        });
        let ok = fingerprint(&r) == self.expected[i as usize % FLEETS];
        let cycles = server_cycles(&r);
        if i < Self::CYCLE {
            self.first.push(r);
        }
        (cycles, ok)
    }

    fn finish(&mut self, ops: u32) -> Vec<u32> {
        // Output check: the serial executor reproduces the pooled runs.
        // If it does not, every op of that fleet fails.
        let serial = serial_exec();
        (0..FLEETS)
            .filter(|&k| {
                let r = Cluster::new(self.cfgs[k].clone()).run_with(&serial);
                fingerprint(&r) != self.expected[k]
            })
            .flat_map(|k| (k as u32..ops).step_by(FLEETS))
            .collect()
    }

    fn snapshot(&mut self, m: &mut Metrics, fp: &mut Fingerprint) {
        let (f1, s1) = self.fan_counts();
        for r in &self.first {
            fp.u64(fingerprint(r));
        }
        let sum = |f: &dyn Fn(&ClusterResult) -> u64| self.first.iter().map(f).sum::<u64>() as f64;
        let group_sum = |f: &dyn Fn(&datacenter::GroupResult) -> u64| {
            sum(&|r: &ClusterResult| r.groups.iter().map(f).sum())
        };
        let fanouts = (f1 - self.fan_base.0) as f64;
        let slices = (s1 - self.fan_base.1) as f64;
        let values = [
            ("datacenter.events", sum(&|r| r.events), "count"),
            (
                "datacenter.server_mcycles",
                sum(&server_cycles) / 1e6,
                "Mcycles",
            ),
            (
                "datacenter.idle_skipped_cycles",
                group_sum(&|g| g.idle_skipped_cycles),
                "cycles",
            ),
            (
                "datacenter.activations",
                group_sum(&|g| g.activations),
                "count",
            ),
            ("datacenter.parks", group_sum(&|g| g.parks), "count"),
            (
                "datacenter.qos_violations",
                group_sum(&|g| g.qos_violations),
                "count",
            ),
            ("datacenter.fanouts", fanouts, "count"),
            (
                "datacenter.slices_per_fanout",
                ratio(slices, fanouts),
                "count",
            ),
        ];
        for (name, v, unit) in values {
            fp.f64(v);
            m.set(name, v, unit);
        }
    }

    fn host(&self, spans: &[Span], traced: &Range<u32>, m: &mut Metrics) {
        let selfs = trace::self_ns(spans);
        let of = |name: &str| -> Vec<&Span> {
            spans
                .iter()
                .filter(|s| s.name == name && s.op.is_some_and(|o| traced.contains(&o)))
                .collect()
        };
        let (runs, fans, slices) = (
            of("datacenter.run_with"),
            of("datacenter.fanout"),
            of("pool.slice"),
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let serial: Vec<f64> = runs.iter().map(|s| ms(selfs[&s.id])).collect();
        m.set("datacenter.serial_ms", median(&serial), "ms");
        let per_op: Vec<f64> = runs
            .iter()
            .map(|r| {
                ms(fans
                    .iter()
                    .filter(|f| f.parent == r.id)
                    .map(|f| f.ns())
                    .sum())
            })
            .collect();
        m.set("datacenter.fanout_ms", median(&per_op), "ms");
        let fan_ns: u64 = fans.iter().map(|s| s.ns()).sum();
        let run_ns: u64 = runs.iter().map(|s| s.ns()).sum();
        m.set(
            "datacenter.fanout_share",
            ratio(fan_ns as f64, run_ns as f64),
            "ratio",
        );
        let slice_ms: Vec<f64> = slices.iter().map(|s| ms(s.ns())).collect();
        m.set("pool.slice_ms_p50", median(&slice_ms), "ms");
        let slice_ns: u64 = slices.iter().map(|s| s.ns()).sum();
        m.set(
            "pool.efficiency",
            ratio(slice_ns as f64, fan_ns as f64 * WORKERS as f64),
            "ratio",
        );
    }
}
