//! Tier-1 integration checks for the discrete-event datacenter
//! simulator: small seeded clusters (a consolidating jobs-mode fleet and
//! a busy pinned fleet) must be bit-identical whether the per-server
//! cycle boxes are advanced serially or fanned out across the experiment
//! thread pool, and the `datacenter.*` metrics must flow into a
//! `MonitorReport`.

use std::sync::Mutex;

use datacenter::{
    serial_exec, BatchMode, Cluster, ClusterConfig, ClusterResult, GroupSpec, Placement, QpsShape,
    SliceExec, SliceJob, MIXES,
};
use protean_bench::pool;

/// A 4-worker executor over the experiment pool. The worker count is
/// fixed here rather than read from `PROTEAN_JOBS`: the environment is
/// process-global and the other tests of this binary run alongside.
fn pool_exec_4() -> SliceExec {
    Box::new(|jobs| {
        let slots: Vec<Mutex<Option<SliceJob>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        pool::map_with(4, &slots, |_, slot| {
            slot.lock()
                .expect("slice slot")
                .take()
                .expect("each slice claimed exactly once")
                .run()
        })
    })
}

/// A busy co-located fleet: every server active with a pinned batch
/// stream under PC3D and diurnal load in 1 s steps, so each load step's
/// catch-ups fan out alongside the epoch barriers.
fn pinned_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        groups: vec![GroupSpec {
            name: "web-search/pinned".into(),
            ls_app: "web-search",
            mix: MIXES[0],
            servers: 5,
            shape: QpsShape::diurnal(10.0, 60.0, 15.0, 1.0, 0.25, 1.0),
        }],
        batch: BatchMode::Pinned,
        duration_secs: 10.0,
        consolidate: false,
        seed,
        job_branches: 2_000,
        ..ClusterConfig::default()
    }
}

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        groups: vec![
            GroupSpec {
                name: "web-search/WL1".into(),
                ls_app: "web-search",
                mix: MIXES[0],
                servers: 3,
                shape: QpsShape::diurnal(20.0, 40.0, 8.0, 1.0, 0.0, 1.0),
            },
            GroupSpec {
                name: "graph-analytics/WL2".into(),
                ls_app: "graph-analytics",
                mix: MIXES[1],
                servers: 3,
                shape: QpsShape::bursty(20.0, 6.0, 30.0, 0.3, 1.0, seed),
            },
        ],
        batch: BatchMode::Jobs {
            placement: Placement::LeastLoaded,
            mean_interarrival_secs: 3.0,
        },
        duration_secs: 20.0,
        consolidate: true,
        min_active: 1,
        seed,
        job_branches: 2_000,
        ..ClusterConfig::default()
    }
}

/// Everything observable about a run, floats by exact bits.
fn fingerprint(r: &ClusterResult) -> String {
    let mut s = format!(
        "events={} skipped={} queries={} jobs={} energy={:x}\n",
        r.events,
        r.skipped_cycles,
        r.queries,
        r.jobs_completed,
        r.energy_joules.to_bits()
    );
    for g in &r.groups {
        s.push_str(&format!(
            "{} q={} j={} b={} busy={} life={} e={:x} parks={} act={}\n",
            g.name,
            g.queries,
            g.jobs_completed,
            g.batch_branches,
            g.busy_cycles,
            g.lifetime_cycles,
            g.energy_joules.to_bits(),
            g.parks,
            g.activations
        ));
    }
    for (name, v) in &r.snapshot.counters {
        s.push_str(&format!("{name}={v}\n"));
    }
    s
}

#[test]
fn cluster_sim_is_bit_identical_serial_vs_pool() {
    for cfg in [config(11), pinned_config(11)] {
        let name = cfg.groups[0].name.clone();
        let serial = Cluster::new(cfg.clone()).run_with(&serial_exec());
        let pooled = Cluster::new(cfg).run_with(&pool_exec_4());
        assert!(
            serial.queries > 100,
            "{name}: LS load was served: {}",
            serial.queries
        );
        assert!(serial.jobs_completed > 0, "{name}: batch jobs completed");
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&pooled),
            "{name}: pool fan-out changed simulation results"
        );
    }
}

#[test]
fn cluster_metrics_reach_monitor_report() {
    let r = Cluster::new(config(3)).run_with(&serial_exec());
    let report = r.report();
    for counter in ["datacenter.events", "datacenter.queries"] {
        assert!(
            report.metrics.counters.get(counter).copied().unwrap_or(0) > 0,
            "{counter} missing or zero in {:?}",
            report.metrics.counters
        );
    }
    assert!(
        report
            .metrics
            .histograms
            .contains_key("datacenter.active_servers"),
        "active-servers histogram missing"
    );
    assert!(
        report.metrics.gauges.contains_key("datacenter.sim_seconds"),
        "sim-seconds gauge missing"
    );
}
