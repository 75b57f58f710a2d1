#![forbid(unsafe_code)]

//! Deterministic datacenter-simulation runner for CI.
//!
//! Runs the discrete-event warehouse simulation at a pinned seed and
//! prints its results — simulated quantities only, no wall-clock — as
//! canonical JSON on stdout. CI runs this twice, once serial
//! (`PROTEAN_JOBS=1`) and once parallel, and diffs the bytes: any
//! divergence means cluster determinism broke. It also diffs the serial
//! quick-scale output against `crates/bench/golden/dc_sim_quick.json`,
//! so the simulated results are pinned across commits too.
//!
//! Scope follows `PROTEAN_SCALE`: at `quick` only the miniature fleets
//! run; the default derives Figures 17–18 from the full 1,080-server
//! warehouse (two fleets, millions of simulated queries).
//!
//! When `PROTEAN_BENCH_JSON` names a directory, host-side throughput
//! (cluster events and simulated server-seconds per host second) is
//! recorded to `BENCH_datacenter.json` — kept out of stdout so the
//! determinism diff never sees a timing.

use protean_bench::dc::{cluster_json, fig17_18_json, jobs_scenario, pool_exec, scaleout_scenario};
use protean_bench::report::{report_dir, update_json_map, Json};
use protean_bench::{pool, Scale};

use datacenter::cluster::Cluster;
use datacenter::scaleout::fig17_18;

fn main() {
    let scale = Scale::from_env();
    let exec = pool_exec();
    let t0 = std::time::Instant::now();

    // The jobs-mode scenario exercises arrivals/placement/parking.
    let jobs = Cluster::new(jobs_scenario(17)).run_with(&exec);
    // The scale-out experiment derives Figures 17–18 from the DES.
    let scenario = scaleout_scenario(scale);
    let fig = fig17_18(&scenario, &exec);
    let wall = t0.elapsed().as_secs_f64();

    let out = Json::obj([
        ("scale", Json::Str(scale.name().to_string())),
        ("seed", Json::U64(scenario.seed)),
        (
            "servers",
            Json::U64((scenario.servers_per_group * fig.rows.len()) as u64),
        ),
        ("jobs_mode", cluster_json(&jobs)),
        ("fig17_18", fig17_18_json(&fig)),
    ]);
    println!("{out}");

    if let Some(dir) = report_dir() {
        let events = jobs.events + fig.colo.events + fig.ls_only.events;
        let sim_server_secs = (fig.colo.groups.iter().map(|g| g.servers).sum::<usize>()
            + fig.ls_only.groups.iter().map(|g| g.servers).sum::<usize>())
            as f64
            * scenario.duration_secs
            + jobs.groups.iter().map(|g| g.servers).sum::<usize>() as f64 * jobs.duration_secs;
        let entry = Json::obj([
            ("events", Json::U64(events)),
            ("events_per_sec", Json::F64(events as f64 / wall)),
            ("sim_server_secs_per_sec", Json::F64(sim_server_secs / wall)),
            (
                "queries",
                Json::U64((jobs.queries + fig.colo.queries + fig.ls_only.queries).max(0) as u64),
            ),
            ("wall_secs", Json::F64(wall)),
            ("jobs", Json::U64(pool::jobs() as u64)),
            ("scale", Json::Str(scale.name().to_string())),
        ]);
        update_json_map(&dir.join("BENCH_datacenter.json"), "dc_sim", &entry)
            .expect("write BENCH_datacenter.json");
    }
}
