//! Golden pins for the simulated behaviour of both nap controllers.
//!
//! Each PC3D run renders every window record with exact floats (`{:?}`
//! prints the shortest round-tripping representation), the health rung
//! the controller was on when the `run_window` call that recorded the
//! row returned, and the final merged metrics snapshot. The text must
//! match the committed file under `tests/golden/` byte for byte, so a
//! refactor that claims to keep a controller's behaviour has to pass
//! these unchanged.
//!
//! All runs put libquantum (protean host) next to mcf on
//! `OsConfig::small()`:
//!
//! * `pc3d_small.txt` — `Pc3dConfig::default()` for 40 s: the
//!   co-runner meets its target, so this pins flux, the QoS rule and
//!   the release arm.
//! * `pc3d_chaos7.txt` — `Pc3dConfig::default()` under
//!   `FaultPlan::chaos(7)` (the setup of `tests/chaos.rs`) for 80 s:
//!   garbled counters trigger a greedy search (bisection, hint
//!   dispatch) whose faults drop the ladder to `Degraded`; nap-only
//!   windows follow, then recovery.
//! * `pc3d_detached.txt` — a 1.0 target with recovery disabled, for
//!   30 s: a greedy search dispatches hints, the controller is detached
//!   by hand once it ends (≈13 s), and the nap-only rung trims and
//!   releases from there.
//! * `reqos_strict.txt` — the ReQoS baseline at a 1.0 target for 40 s:
//!   every window record.

use std::fmt::Write as _;

use pc3d::{Pc3d, Pc3dConfig};
use pcc::{Compiler, Options};
use protean::{FaultPlan, HealthConfig, Runtime, RuntimeConfig};
use reqos::{ReqosConfig, ReqosController};
use simos::{Os, OsConfig, Pid};

fn spawn_pair() -> (Os, Pid, Pid) {
    let cfg = OsConfig::small();
    let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
    let host_img = Compiler::new(Options::protean())
        .compile(&workloads::catalog::build("libquantum", llc).unwrap())
        .unwrap()
        .image;
    let ext_img = Compiler::new(Options::plain())
        .compile(&workloads::catalog::build("mcf", llc).unwrap())
        .unwrap()
        .image;
    let mut os = Os::new(cfg);
    let e = os.spawn(&ext_img, 0);
    let h = os.spawn(&host_img, 1);
    (os, h, e)
}

/// A PC3D controller on a fresh pair.
fn pc3d(config: Pc3dConfig, health: HealthConfig) -> (Os, Pc3d) {
    let (mut os, h, e) = spawn_pair();
    let rt = Runtime::attach(&os, h, RuntimeConfig::on_core(1)).unwrap();
    let ctl = Pc3d::with_health(&mut os, rt, e, config, health);
    (os, ctl)
}

/// Runs `ctl` until `secs` simulated seconds and renders every window
/// record it adds, each with the rung the controller was on when the
/// `run_window` call that recorded it returned.
fn timeline(os: &mut Os, ctl: &mut Pc3d, secs: f64) -> String {
    let mut out = String::new();
    while os.now_seconds() < secs {
        let seen = ctl.history().len();
        ctl.run_window(os);
        let state = ctl.health().state();
        for r in &ctl.history()[seen..] {
            writeln!(out, "{r:?} {state}").unwrap();
        }
    }
    out
}

/// The merged metrics snapshot, every key.
fn metrics(ctl: &Pc3d) -> String {
    let mut out = String::from("-- metrics\n");
    for line in ctl.metrics_snapshot().to_string().lines() {
        writeln!(out, "{line}").unwrap();
    }
    out
}

/// Compares `actual` with `tests/golden/<name>`, reporting the first
/// differing line.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "{name} differs at line {line}:\n  golden: {}\n  actual: {}",
                w.unwrap_or("<end>"),
                g.unwrap_or("<end>")
            ),
        }
    }
}

#[test]
fn pc3d_default_target_matches_golden() {
    let (mut os, mut ctl) = pc3d(Pc3dConfig::default(), HealthConfig::default());
    let text = timeline(&mut os, &mut ctl, 40.0) + &metrics(&ctl);
    assert_golden("pc3d_small.txt", &text);
}

#[test]
fn pc3d_chaos_seed7_matches_golden_through_the_degraded_rung() {
    let (mut os, mut ctl) = pc3d(Pc3dConfig::default(), HealthConfig::default());
    ctl.inject_faults(&mut os, FaultPlan::chaos(7));
    let text = timeline(&mut os, &mut ctl, 80.0) + &metrics(&ctl);
    assert!(text.contains("searching: true"), "seed 7 must search");
    assert!(text.contains(" degraded\n"), "seed 7 must degrade");
    assert_golden("pc3d_chaos7.txt", &text);
}

#[test]
fn pc3d_nap_only_rung_matches_golden() {
    let strict = Pc3dConfig {
        qos_target: 1.0,
        ..Pc3dConfig::default()
    };
    let health = HealthConfig {
        recovery_windows: u32::MAX,
        ..HealthConfig::default()
    };
    let (mut os, mut ctl) = pc3d(strict, health);
    let mut text = timeline(&mut os, &mut ctl, 5.0);
    ctl.force_detach(&mut os);
    text += "-- force_detach\n";
    text += &timeline(&mut os, &mut ctl, 30.0);
    text += &metrics(&ctl);
    assert!(text.contains(" detached\n"));
    assert_golden("pc3d_detached.txt", &text);
}

#[test]
fn reqos_strict_target_matches_golden() {
    let (mut os, h, e) = spawn_pair();
    let config = ReqosConfig {
        qos_target: 1.0,
        ..ReqosConfig::default()
    };
    let mut ctl = ReqosController::new(&mut os, h, e, config);
    ctl.run_for(&mut os, 40.0);
    let mut text = String::new();
    for r in ctl.history() {
        writeln!(text, "{r:?}").unwrap();
    }
    assert_golden("reqos_strict.txt", &text);
}
