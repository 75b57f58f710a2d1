//! # `protean-bench` — experiment harness utilities
//!
//! Shared machinery for the figure/table regeneration harnesses (the
//! `benches/` targets of this crate, one per paper table/figure; see
//! DESIGN.md's experiment index). Each harness prints the same rows or
//! series the paper reports.
//!
//! Set `PROTEAN_SCALE=quick` for abbreviated runs (CI) or
//! `PROTEAN_SCALE=full` for longer, lower-variance runs; the default is a
//! middle setting.

use pc3d::{Pc3d, Pc3dConfig};
use pcc::{Compiler, Options};
use protean::{ExtMonitor, Runtime, RuntimeConfig};
use reqos::{ReqosConfig, ReqosController};
use simos::{LoadSchedule, Os, OsConfig, Pid};
use visa::Image;
use workloads::catalog;

pub mod dc;
pub mod pool;
pub mod report;

/// Experiment duration scaling.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Short runs for smoke testing.
    Quick,
    /// Default.
    Normal,
    /// Long, low-variance runs.
    Full,
}

impl Scale {
    /// Reads `PROTEAN_SCALE` from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("PROTEAN_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Normal,
        }
    }

    /// The name this scale is selected by in `PROTEAN_SCALE` (used when
    /// labelling report entries).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Normal => "normal",
            Scale::Full => "full",
        }
    }

    /// Multiplies a base duration by the scale factor.
    pub fn secs(self, base: f64) -> f64 {
        match self {
            Scale::Quick => base * 0.4,
            Scale::Normal => base,
            Scale::Full => base * 3.0,
        }
    }
}

/// One interpreter-throughput sample (see `benches/micro.rs` and the
/// `bench_gate` CI binary).
#[derive(Clone, Debug)]
pub struct InterpMeasurement {
    /// Catalog workload name.
    pub workload: String,
    /// Simulated cycles advanced in the timed window.
    pub cycles: u64,
    /// Instructions retired in the timed window (deterministic for a
    /// given workload + cycle budget, so it doubles as a fidelity check).
    pub insts: u64,
    /// Host wall-clock seconds for the timed window.
    pub wall_secs: f64,
    /// Millions of simulated instructions per host second.
    pub m_instr_per_s: f64,
}

/// Simulated-cycle budget for one interpreter-throughput window at this
/// scale (400M cycles at `Normal`, matching the numbers recorded in
/// `BENCH_interp.json`).
pub fn interp_cycles(scale: Scale) -> u64 {
    (scale.secs(400.0) * 1e6) as u64
}

/// Measures end-to-end interpreter throughput (the full `Os::advance`
/// path: dispatch + memory hierarchy + scheduling) for a plain-compiled
/// catalog workload. Runs `reps` timed windows after a warmup and keeps
/// the fastest, which rejects host scheduling noise.
pub fn interp_throughput(workload: &str, cycles: u64, reps: usize) -> InterpMeasurement {
    interp_throughput_mode(workload, cycles, reps, false)
}

/// [`interp_throughput`] with an explicit decode mode: `fallback = true`
/// forces the interpreter's always-decode path (no block caching), the
/// A-side of the decoded-tier A/B comparison.
/// Simulated results are bit-identical in either mode; only the host
/// wall-clock differs.
pub fn interp_throughput_mode(
    workload: &str,
    cycles: u64,
    reps: usize,
    fallback: bool,
) -> InterpMeasurement {
    let cfg = experiment_os();
    let img = compile_plain(workload, &cfg);
    let mut os = Os::new(cfg);
    let pid = os.spawn(&img, 0);
    os.set_decode_fallback(pid, fallback);
    os.advance(cycles / 8); // warm caches and the block cache
    let mut best: Option<InterpMeasurement> = None;
    for _ in 0..reps.max(1) {
        let insts0 = os.counters(pid).instructions;
        let t0 = std::time::Instant::now();
        os.advance(cycles);
        let wall = t0.elapsed().as_secs_f64();
        let insts = os.counters(pid).instructions - insts0;
        let m = InterpMeasurement {
            workload: workload.to_string(),
            cycles,
            insts,
            wall_secs: wall,
            m_instr_per_s: insts as f64 / wall / 1e6,
        };
        if best
            .as_ref()
            .is_none_or(|b| m.m_instr_per_s > b.m_instr_per_s)
        {
            best = Some(m);
        }
    }
    best.expect("at least one rep")
}

/// Workloads of the interp micro bench matrix (`interp_matrix` binary
/// and the CI determinism cross-check).
pub const MATRIX_WORKLOADS: &[&str] = &["milc", "libquantum", "bst"];

/// Runs the (workload × decode-mode) interp matrix over the experiment
/// pool and renders one deterministic CSV row per cell: simulated
/// counters plus decode-cache stats, no wall-clock anywhere. Rows are
/// bit-identical for any `PROTEAN_JOBS` (pool results come back in input
/// order) and for either decode mode's simulated counters — CI diffs a
/// one-worker run against an N-worker run to pin both properties.
pub fn interp_matrix_rows(cycles: u64) -> Vec<String> {
    let cells: Vec<(&str, bool)> = MATRIX_WORKLOADS
        .iter()
        .flat_map(|&w| [(w, false), (w, true)])
        .collect();
    pool::map(&cells, |_, &(workload, fallback)| {
        let cfg = experiment_os();
        let img = compile_plain(workload, &cfg);
        let mut os = Os::new(cfg);
        let pid = os.spawn(&img, 0);
        os.set_decode_fallback(pid, fallback);
        os.advance(cycles);
        let c = os.counters(pid);
        let d = os.decode_stats(pid);
        format!(
            "{workload},{mode},insts={},cycles={},branches={},llc_misses={},decoded_hits={},decoded_misses={}",
            c.instructions,
            c.cycles,
            c.branches,
            c.llc_misses,
            d.hits,
            d.misses,
            mode = if fallback { "fallback" } else { "decoded" },
        )
    })
}

/// Measures a pure-arithmetic host calibration loop (millions of
/// iterations per second). Interpreter throughput in M instr/s is
/// host-dependent; `bench_gate` divides by this to get a host-normalized
/// ratio it can compare against a checked-in baseline.
pub fn host_calibration_mops() -> f64 {
    // Best of three to reject scheduling noise, like `interp_throughput`.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let iters = 200_000_000u64;
        let mut acc = 0x9e3779b97f4a7c15u64;
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i) ^ (acc >> 29);
        }
        let wall = t0.elapsed().as_secs_f64();
        // Keep the loop from being optimized out.
        assert_ne!(acc, 0, "calibration accumulator");
        best = best.max(iters as f64 / wall / 1e6);
    }
    best
}

/// The standard experiment machine: the paper's 4-core topology with
/// capacities scaled to the simulated time base (see
/// [`machine::MachineConfig::scaled`]).
pub fn experiment_os() -> OsConfig {
    OsConfig {
        machine: machine::MachineConfig::scaled(),
        ..OsConfig::default()
    }
}

/// LLC capacity in lines for an OS configuration.
pub fn llc_lines(cfg: &OsConfig) -> u64 {
    cfg.machine.llc_bytes() / cfg.machine.line_bytes
}

/// Compiles a catalog workload as a protean binary.
///
/// # Panics
///
/// Panics on unknown names (harness-internal misuse).
pub fn compile_protean(name: &str, cfg: &OsConfig) -> Image {
    let m =
        catalog::build(name, llc_lines(cfg)).unwrap_or_else(|| panic!("unknown workload {name}"));
    Compiler::new(Options::protean())
        .compile(&m)
        .expect("compile")
        .image
}

/// Compiles a catalog workload as a plain (non-protean) binary.
///
/// # Panics
///
/// Panics on unknown names.
pub fn compile_plain(name: &str, cfg: &OsConfig) -> Image {
    let m =
        catalog::build(name, llc_lines(cfg)).unwrap_or_else(|| panic!("unknown workload {name}"));
    Compiler::new(Options::plain())
        .compile(&m)
        .expect("compile")
        .image
}

/// True if the catalog entry is a latency-sensitive server.
pub fn is_server(name: &str) -> bool {
    matches!(catalog::by_name(name), Some(w) if w.kind == catalog::WorkloadKind::Server)
}

/// Measures a batch application's solo progress rate (branches per
/// second) on the experiment machine. Memoized per (name, rounded secs).
pub fn solo_batch_bps(name: &str, secs: f64) -> f64 {
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<std::collections::HashMap<(String, u64), f64>>> = OnceLock::new();
    let key = (name.to_string(), (secs * 10.0) as u64);
    let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    if let Some(v) = cache.lock().expect("cache lock").get(&key) {
        return *v;
    }
    let v = solo_batch_bps_uncached(name, secs);
    cache.lock().expect("cache lock").insert(key, v);
    v
}

fn solo_batch_bps_uncached(name: &str, secs: f64) -> f64 {
    let cfg = experiment_os();
    let img = compile_plain(name, &cfg);
    let mut os = Os::new(cfg);
    let pid = os.spawn(&img, 0);
    // Warm up caches before measuring.
    os.advance_seconds(secs * 0.2);
    let mut mon = ExtMonitor::new(&os, pid);
    os.advance_seconds(secs);
    mon.end_window(&os).bps
}

/// Measures a server's solo query capacity (QPS at saturation).
pub fn server_capacity_qps(name: &str, secs: f64) -> f64 {
    let cfg = experiment_os();
    let img = compile_plain(name, &cfg);
    let mut os = Os::new(cfg);
    let pid = os.spawn(&img, 0);
    os.set_load(pid, LoadSchedule::constant(1e9));
    os.advance_seconds(secs * 0.25); // warmup
    let start = os.app_metric(pid, 0);
    os.advance_seconds(secs);
    (os.app_metric(pid, 0) - start) as f64 / secs
}

/// The operating load used for a server co-runner: near saturation, so
/// co-runner interference shows up as QoS loss (the paper's webservices
/// run at high load in Figures 9-15). Memoized.
pub fn operating_qps(name: &str) -> f64 {
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<std::collections::HashMap<String, f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    if let Some(v) = cache.lock().expect("cache lock").get(name) {
        return *v;
    }
    let v = 0.85 * server_capacity_qps(name, 5.0);
    cache
        .lock()
        .expect("cache lock")
        .insert(name.to_string(), v);
    v
}

/// A co-located pair under some controller, with everything the figures
/// need.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PairResult {
    /// Batch progress relative to running alone (the paper's
    /// "Utilization").
    pub utilization: f64,
    /// Co-runner QoS (IPS relative to solo at the same load).
    pub qos: f64,
    /// Mean nap intensity over the measurement tail.
    pub mean_nap: f64,
    /// Non-temporal hints in the final variant.
    pub hints: usize,
    /// Fraction of server cycles consumed by the runtime.
    pub runtime_frac: f64,
    /// Batch core busy fraction (for the datacenter power model).
    pub batch_core_util: f64,
    /// LS/external core busy fraction.
    pub ext_core_util: f64,
}

/// Spawns the standard co-location topology: external app on core 0,
/// batch host on core 1 (protean), runtime work charged to core 2.
/// Returns `(os, ext_pid, host_pid)`.
pub fn spawn_pair(batch: &str, ext: &str, ext_qps: Option<f64>) -> (Os, Pid, Pid) {
    let cfg = experiment_os();
    let ext_img = compile_plain(ext, &cfg);
    let host_img = compile_protean(batch, &cfg);
    let mut os = Os::new(cfg);
    let ext_pid = os.spawn(&ext_img, 0);
    let host_pid = os.spawn(&host_img, 1);
    if let Some(qps) = ext_qps {
        os.set_load(ext_pid, LoadSchedule::constant(qps));
    }
    (os, ext_pid, host_pid)
}

fn measure_true_qos(ext_name: &str, ext_qps: Option<f64>, measured_ips: f64, secs: f64) -> f64 {
    // Ground-truth solo IPS at the same offered load, measured by
    // replaying the external app alone (deterministic).
    let cfg = experiment_os();
    let img = compile_plain(ext_name, &cfg);
    let mut os = Os::new(cfg);
    let pid = os.spawn(&img, 0);
    if let Some(qps) = ext_qps {
        os.set_load(pid, LoadSchedule::constant(qps));
    }
    os.advance_seconds(secs * 0.3);
    let mut mon = ExtMonitor::new(&os, pid);
    os.advance_seconds(secs);
    let solo = mon.end_window(&os).ips;
    if solo > 0.0 {
        (measured_ips / solo).min(1.05)
    } else {
        1.0
    }
}

/// Runs a (batch, external) pair under PC3D at the given QoS target.
pub fn run_pc3d_pair(batch: &str, ext: &str, qos_target: f64, secs: f64) -> PairResult {
    let ext_qps = is_server(ext).then(|| operating_qps(ext));
    let (mut os, ext_pid, host_pid) = spawn_pair(batch, ext, ext_qps);
    let rt = Runtime::attach(&os, host_pid, RuntimeConfig::on_core(2)).expect("attach");
    let mut ctl = Pc3d::new(
        &mut os,
        rt,
        ext_pid,
        Pc3dConfig {
            qos_target,
            ..Default::default()
        },
    );
    // Let the controller converge, then measure the tail.
    ctl.run_for(&mut os, secs * 0.6);
    let tail_start_ext = ExtMonitor::new(&os, ext_pid);
    let tail_start_host = ExtMonitor::new(&os, host_pid);
    let host_busy0 = os.counters(host_pid).cycles;
    let ext_busy0 = os.counters(ext_pid).cycles;
    let rtc0 = os.runtime_consumed_total();
    let t0 = os.now();
    ctl.run_for(&mut os, secs * 0.4);
    let mut ext_mon = tail_start_ext;
    let mut host_mon = tail_start_host;
    let ext_w = ext_mon.end_window(&os);
    let host_w = host_mon.end_window(&os);
    let dt = (os.now() - t0) as f64;
    let tail_secs = os.config().machine.cycles_to_seconds(os.now() - t0);

    let solo_bps = solo_batch_bps(batch, secs * 0.4);
    let qos = measure_true_qos(ext, ext_qps, ext_w.ips, tail_secs);
    PairResult {
        utilization: (host_w.bps / solo_bps).min(1.05),
        qos,
        mean_nap: ctl.nap(),
        hints: ctl.hints(),
        runtime_frac: (os.runtime_consumed_total() - rtc0) as f64
            / (dt * os.config().machine.cores as f64),
        batch_core_util: (os.counters(host_pid).cycles - host_busy0) as f64 / dt,
        ext_core_util: (os.counters(ext_pid).cycles - ext_busy0) as f64 / dt,
    }
}

/// Runs a (batch, external) pair under the ReQoS baseline.
pub fn run_reqos_pair(batch: &str, ext: &str, qos_target: f64, secs: f64) -> PairResult {
    let ext_qps = is_server(ext).then(|| operating_qps(ext));
    let (mut os, ext_pid, host_pid) = spawn_pair(batch, ext, ext_qps);
    let mut ctl = ReqosController::new(
        &mut os,
        host_pid,
        ext_pid,
        ReqosConfig {
            qos_target,
            ..Default::default()
        },
    );
    ctl.run_for(&mut os, secs * 0.6);
    let mut ext_mon = ExtMonitor::new(&os, ext_pid);
    let mut host_mon = ExtMonitor::new(&os, host_pid);
    let host_busy0 = os.counters(host_pid).cycles;
    let ext_busy0 = os.counters(ext_pid).cycles;
    let t0 = os.now();
    ctl.run_for(&mut os, secs * 0.4);
    let ext_w = ext_mon.end_window(&os);
    let host_w = host_mon.end_window(&os);
    let dt = (os.now() - t0) as f64;
    let tail_secs = os.config().machine.cycles_to_seconds(os.now() - t0);

    let solo_bps = solo_batch_bps(batch, secs * 0.4);
    let qos = measure_true_qos(ext, ext_qps, ext_w.ips, tail_secs);
    PairResult {
        utilization: (host_w.bps / solo_bps).min(1.05),
        qos,
        mean_nap: ctl.nap(),
        hints: 0,
        runtime_frac: 0.0,
        batch_core_util: (os.counters(host_pid).cycles - host_busy0) as f64 / dt,
        ext_core_util: (os.counters(ext_pid).cycles - ext_busy0) as f64 / dt,
    }
}

/// If `PROTEAN_CSV_DIR` is set, writes `rows` (plus `header`) to
/// `<dir>/<name>.csv` for downstream plotting; otherwise does nothing.
/// Harness output is unaffected either way.
pub fn maybe_csv(name: &str, header: &str, rows: &[String]) {
    let Ok(dir) = std::env::var("PROTEAN_CSV_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 2);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(csv written to {})", path.display());
    }
}

/// Prints a labelled horizontal bar (terminal "figure").
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let frac = (value / max).clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    format!(
        "{label:<16} {:>7.1?} |{}{}|",
        value,
        "#".repeat(filled),
        " ".repeat(width - filled)
    )
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::Quick.secs(10.0), 4.0);
        assert_eq!(Scale::Normal.secs(10.0), 10.0);
        assert_eq!(Scale::Full.secs(10.0), 30.0);
    }

    #[test]
    fn solo_measurements_positive() {
        assert!(solo_batch_bps("er-naive", 2.0) > 0.0);
        assert!(server_capacity_qps("web-search", 2.0) > 1.0);
    }

    #[test]
    fn bar_renders() {
        let s = bar("x", 5.0, 10.0, 10);
        assert!(s.contains("#####"));
    }
}
