//! Monitoring: introspection and extrospection (Section III-B3).
//!
//! The runtime "identifies hot code regions by sampling the program
//! counter periodically through the ptrace interface", associates samples
//! "with high-level code structures such as functions", and tracks
//! progress rates "using metrics such as instructions per cycle (IPC) or
//! branches retired per cycle (BPC)". For external programs it reads
//! hardware performance monitors and optional application-level metrics.

use std::collections::HashMap;
use std::fmt;

use machine::PerfCounters;
use pir::FuncId;
use simos::{Os, Pid};

use crate::metrics::Snapshot;
use crate::runtime::Runtime;

/// One monitoring window's derived statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Window length in simulated seconds.
    pub seconds: f64,
    /// Instructions per (wall) second — the paper's QoS proxy for
    /// latency-sensitive co-runners.
    pub ips: f64,
    /// Branches per (wall) second — the paper's progress metric for hosts
    /// (robust to variants changing instruction counts).
    pub bps: f64,
    /// Instructions per executed cycle.
    pub ipc: f64,
    /// Branches per executed cycle.
    pub bpc: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Application-metric delta on channel 0 divided by window seconds
    /// (e.g. queries per second), if the app reports any.
    pub app_rate: f64,
    /// Fraction of the window the process actually executed (servers
    /// parked in `Wait` show low busy fractions).
    pub busy: f64,
}

fn window_stats(
    delta: PerfCounters,
    seconds: f64,
    app_delta: i64,
    cycles_per_second: u64,
) -> WindowStats {
    let safe = |x: f64| if x.is_finite() { x } else { 0.0 };
    let window_cycles = seconds * cycles_per_second as f64;
    WindowStats {
        seconds,
        ips: safe(delta.instructions as f64 / seconds),
        bps: safe(delta.branches as f64 / seconds),
        ipc: delta.ipc(),
        bpc: delta.bpc(),
        llc_mpki: delta.llc_mpki(),
        app_rate: safe(app_delta as f64 / seconds),
        busy: safe(delta.cycles as f64 / window_cycles).min(1.0),
    }
}

/// Introspective monitor for the host program: PC-sample histogram plus
/// HPM windows.
#[derive(Clone, Debug)]
pub struct HostMonitor {
    pid: Pid,
    /// Exponentially decayed per-function sample weight.
    weights: HashMap<FuncId, f64>,
    /// Samples taken in the current window.
    window_samples: u64,
    decay: f64,
    last_counters: PerfCounters,
    last_time: u64,
    last_app: i64,
}

impl HostMonitor {
    /// Creates a monitor for `pid`. `decay` in (0, 1] is applied to the
    /// histogram at each window boundary (1.0 = never forget).
    pub fn new(os: &Os, pid: Pid, decay: f64) -> Self {
        HostMonitor {
            pid,
            weights: HashMap::new(),
            window_samples: 0,
            decay: decay.clamp(0.0, 1.0),
            last_counters: os.counters(pid),
            last_time: os.now(),
            last_app: os.app_metric(pid, 0),
        }
    }

    /// Takes one PC sample and attributes it to a function (through the
    /// runtime's resolver, which also knows the code cache). Returns the
    /// raw sampled PC so callers can feed dispatch bookkeeping
    /// ([`Runtime::note_pc_sample`]).
    pub fn sample(&mut self, os: &Os, rt: &Runtime) -> u32 {
        let pc = os.sample_pc(self.pid);
        if let Some(func) = rt.resolve_pc(os, pc) {
            *self.weights.entry(func).or_insert(0.0) += 1.0;
            self.window_samples += 1;
        }
        pc
    }

    /// Ends the current window: returns derived stats and decays the
    /// histogram.
    pub fn end_window(&mut self, os: &Os) -> WindowStats {
        let now = os.now();
        let counters = os.counters(self.pid);
        let app = os.app_metric(self.pid, 0);
        let seconds = os.config().machine.cycles_to_seconds(now - self.last_time);
        let stats = window_stats(
            counters - self.last_counters,
            seconds,
            app - self.last_app,
            os.config().machine.cycles_per_second,
        );
        self.last_counters = counters;
        self.last_time = now;
        self.last_app = app;
        for w in self.weights.values_mut() {
            *w *= self.decay;
        }
        self.weights.retain(|_, w| *w > 1e-6);
        self.window_samples = 0;
        stats
    }

    /// Functions observed in PC samples, hottest first, with their share
    /// of total weight.
    pub fn hot_funcs(&self) -> Vec<(FuncId, f64)> {
        let total: f64 = self.weights.values().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut v: Vec<(FuncId, f64)> = self.weights.iter().map(|(f, w)| (*f, w / total)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// The set of functions that have appeared in any recent sample — the
    /// "covered code" of PC3D's first search heuristic.
    pub fn active_funcs(&self) -> Vec<FuncId> {
        let mut v: Vec<FuncId> = self.weights.keys().copied().collect();
        v.sort();
        v
    }

    /// Peeks at stats since the last window boundary without closing the
    /// window.
    pub fn peek(&self, os: &Os) -> WindowStats {
        let seconds = os
            .config()
            .machine
            .cycles_to_seconds(os.now() - self.last_time);
        window_stats(
            os.counters(self.pid) - self.last_counters,
            seconds,
            os.app_metric(self.pid, 0) - self.last_app,
            os.config().machine.cycles_per_second,
        )
    }

    /// One combined status report: the open window's rates, the
    /// runtime's metrics (safety gate, compiles, dispatch, OSR) plus the
    /// decode-cache counters, and the hottest functions. The window is
    /// left open ([`peek`](HostMonitor::peek) semantics).
    pub fn report(&self, os: &Os, rt: &Runtime) -> MonitorReport {
        // Fold the interpreter's decode-cache effectiveness counters into
        // the snapshot as the `machine.decoded_*` group, so dashboards
        // see them next to the gate/OSR counters.
        let mut metrics = rt.metrics().snapshot();
        let d = os.decode_stats(self.pid);
        metrics
            .counters
            .insert("machine.decoded_hits".to_string(), d.hits);
        metrics
            .counters
            .insert("machine.decoded_misses".to_string(), d.misses);
        metrics
            .counters
            .insert("machine.decoded_invalidations".to_string(), d.invalidations);
        MonitorReport {
            window: self.peek(os),
            metrics,
            hot: self.hot_funcs(),
        }
    }

    /// The monitored process.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

/// A combined runtime status snapshot: performance window, metrics, and
/// PC-sample hotness — what an operator dashboard would scrape from the
/// runtime. Its text form renders the counter lines (`gate:`, `health:`,
/// `osr:`) from [`metrics`](MonitorReport::metrics).
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Rates since the last window boundary (window left open).
    pub window: WindowStats,
    /// The merged metric snapshot — every `compile.*`/`gate.*`/
    /// `dispatch.*`/`osr.*` (and, from a controller running the
    /// self-healing layer, `health.*`) counter, gauge, and histogram by
    /// name. The live OSR engine ([`crate::osr`]) records through the
    /// runtime's registry, so its arm/apply/abandon/deopt counters and
    /// the `osr.park_to_resume_cycles` and
    /// `dispatch.first_exec_lag_cycles` histograms arrive here without
    /// extra plumbing.
    pub metrics: Snapshot,
    /// Hottest functions with their share of sample weight.
    pub hot: Vec<(FuncId, f64)>,
}

impl MonitorReport {
    /// Builds a report from a bare metric snapshot, with empty window
    /// and hotness sections. Aggregators that are not themselves a
    /// [`HostMonitor`] — e.g. a cluster simulator merging thousands of
    /// per-server controller snapshots with its own `datacenter.*`
    /// registry — use this to surface their counters through the same
    /// operator-facing type the per-server controllers report.
    pub fn from_metrics(metrics: Snapshot) -> MonitorReport {
        MonitorReport {
            window: WindowStats::default(),
            metrics,
            hot: Vec::new(),
        }
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "window: {:.2}s, {:.0} ips, ipc {:.3}, llc {:.2} mpki, busy {:.0}%",
            self.window.seconds,
            self.window.ips,
            self.window.ipc,
            self.window.llc_mpki,
            self.window.busy * 100.0
        )?;
        // Counter lines render from the snapshot; absent counters read 0.
        let c = |name: &str| self.metrics.counters.get(name).copied().unwrap_or(0);
        writeln!(
            f,
            "gate: {} rejected ({} unproved, {} refuted), verdict cache {} hit(s) / {} miss(es)",
            c("gate.rejected_dispatches"),
            c("gate.unproved_dispatches"),
            c("gate.refuted_dispatches"),
            c("gate.verdict_cache_hits"),
            c("gate.verdict_cache_misses"),
        )?;
        if self
            .metrics
            .counters
            .keys()
            .any(|k| k.starts_with("health."))
        {
            writeln!(
                f,
                "health: {} compile failure(s) ({} retried, {} abandoned), \
                 {} watchdog trip(s), {} checksum failure(s) ({} repaired), \
                 {} EVT drop(s), {} quarantined ({} refused), \
                 {} degradation(s), {} detach(es), {} recovery(ies), \
                 {} OSR header(s) quarantined",
                c("health.compile_failures"),
                c("health.compile_retries"),
                c("health.compile_gave_up"),
                c("health.watchdog_trips"),
                c("health.checksum_failures"),
                c("health.cache_repairs"),
                c("health.evt_write_failures"),
                c("health.quarantines"),
                c("health.rejected_quarantined"),
                c("health.degradations"),
                c("health.detaches"),
                c("health.recoveries"),
                c("health.osr_quarantines"),
            )?;
        }
        if c("osr.armed") > 0 {
            write!(
                f,
                "osr: {} armed, {} applied, {} abandoned, {} deopt(s), {} quarantined",
                c("osr.armed"),
                c("osr.applied"),
                c("osr.abandoned"),
                c("osr.deopt"),
                c("osr.quarantined"),
            )?;
            if let Some(h) = self.metrics.histograms.get("osr.park_to_resume_cycles") {
                write!(f, ", park-to-resume ~{:.0} cycles", h.mean)?;
            }
            writeln!(f)?;
        }
        if self.hot.is_empty() {
            write!(f, "hot: (no samples)")
        } else {
            write!(f, "hot:")?;
            for (func, share) in &self.hot {
                write!(f, " {func} {:.0}%", share * 100.0)?;
            }
            Ok(())
        }
    }
}

/// Extrospective monitor for an external (co-running) program: HPM windows
/// plus application-level metrics. No PC sampling — the runtime does not
/// own external programs' symbols.
#[derive(Clone, Debug)]
pub struct ExtMonitor {
    pid: Pid,
    last_counters: PerfCounters,
    last_time: u64,
    last_app: i64,
}

impl ExtMonitor {
    /// Creates a monitor for external process `pid`.
    pub fn new(os: &Os, pid: Pid) -> Self {
        ExtMonitor {
            pid,
            last_counters: os.counters(pid),
            last_time: os.now(),
            last_app: os.app_metric(pid, 0),
        }
    }

    /// Ends the current window, returning derived stats.
    pub fn end_window(&mut self, os: &Os) -> WindowStats {
        let now = os.now();
        let counters = os.counters(self.pid);
        let app = os.app_metric(self.pid, 0);
        let seconds = os.config().machine.cycles_to_seconds(now - self.last_time);
        let stats = window_stats(
            counters - self.last_counters,
            seconds,
            app - self.last_app,
            os.config().machine.cycles_per_second,
        );
        self.last_counters = counters;
        self.last_time = now;
        self.last_app = app;
        stats
    }

    /// Peeks at stats since the last window boundary without closing the
    /// window.
    pub fn peek(&self, os: &Os) -> WindowStats {
        let seconds = os
            .config()
            .machine
            .cycles_to_seconds(os.now() - self.last_time);
        window_stats(
            os.counters(self.pid) - self.last_counters,
            seconds,
            os.app_metric(self.pid, 0) - self.last_app,
            os.config().machine.cycles_per_second,
        )
    }

    /// The monitored process.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use pcc::{Compiler, Options};
    use pir::{FunctionBuilder, Locality, Module};
    use simos::OsConfig;

    /// Host with one hot (big loop) and one cold function.
    fn host() -> Module {
        let mut m = Module::new("h");
        let buf = m.add_global("buf", 1 << 14);
        let mut hot = FunctionBuilder::new("hot", 0);
        let base = hot.global_addr(buf);
        hot.counted_loop(0, 128, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let _ = b.load(a, 0, Locality::Normal);
        });
        hot.ret(None);
        let hid = m.add_function(hot.finish());
        let mut cold = FunctionBuilder::new("cold", 0);
        let x = cold.const_(1);
        let header = cold.new_block();
        cold.br(header);
        cold.switch_to(header);
        let _ = cold.add_imm(x, 1);
        cold.ret(None);
        let cid = m.add_function(cold.finish());
        let mut main = FunctionBuilder::new("main", 0);
        let h2 = main.new_block();
        main.br(h2);
        main.switch_to(h2);
        main.call_void(hid, &[]);
        main.call_void(cid, &[]);
        main.br(h2);
        let mid = m.add_function(main.finish());
        m.set_entry(mid);
        m
    }

    #[test]
    fn pc_samples_identify_hot_function() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mut mon = HostMonitor::new(&os, pid, 0.5);
        for _ in 0..400 {
            os.advance(997); // co-prime-ish with loop length to avoid aliasing
            mon.sample(&os, &rt);
        }
        let hot = mon.hot_funcs();
        assert!(!hot.is_empty());
        let hot_id = rt.module().function_by_name("hot").unwrap();
        assert_eq!(
            hot[0].0, hot_id,
            "hot loop should dominate samples: {hot:?}"
        );
        assert!(hot[0].1 > 0.5);
        assert!(mon.active_funcs().contains(&hot_id));
    }

    #[test]
    fn windows_compute_rates() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mut mon = HostMonitor::new(&os, pid, 1.0);
        os.advance_seconds(1.0);
        mon.sample(&os, &rt);
        let w = mon.end_window(&os);
        assert!((w.seconds - 1.0).abs() < 1e-9);
        assert!(w.ips > 0.0);
        assert!(w.bps > 0.0);
        assert!(w.bps < w.ips);
        assert!(w.ipc > 0.0 && w.ipc <= 1.0);
        // Second window is fresh.
        os.advance_seconds(0.5);
        let w2 = mon.end_window(&os);
        assert!((w2.seconds - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ext_monitor_tracks_coruner() {
        let out = Compiler::new(Options::plain()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut ext = ExtMonitor::new(&os, pid);
        os.advance_seconds(0.25);
        let peek = ext.peek(&os);
        let w = ext.end_window(&os);
        assert!(w.ips > 0.0);
        assert!((peek.ips - w.ips).abs() / w.ips < 0.05);
        assert_eq!(ext.pid(), pid);
    }

    #[test]
    fn decay_forgets_old_hotness() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mut mon = HostMonitor::new(&os, pid, 0.01);
        for _ in 0..50 {
            os.advance(1000);
            mon.sample(&os, &rt);
        }
        assert!(!mon.hot_funcs().is_empty());
        // Several empty windows: histogram decays to nothing.
        for _ in 0..4 {
            os.advance(1000);
            let _ = mon.end_window(&os);
        }
        assert!(mon.hot_funcs().is_empty());
    }

    #[test]
    fn host_peek_matches_window_without_closing_it() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut mon = HostMonitor::new(&os, pid, 1.0);
        os.advance_seconds(0.25);
        let peek = mon.peek(&os);
        let w = mon.end_window(&os);
        assert!(w.ips > 0.0);
        assert!((peek.ips - w.ips).abs() / w.ips < 0.05);
    }

    #[test]
    fn report_surfaces_gate_counters_and_hotness() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mut mon = HostMonitor::new(&os, pid, 1.0);
        for _ in 0..50 {
            os.advance(997);
            mon.sample(&os, &rt);
        }
        // One refused dispatch shows up in the report's gate counters.
        let hot_id = rt.module().function_by_name("hot").unwrap();
        let mut bad = rt.module().function(hot_id).clone();
        bad.blocks_mut()[0].insts.push(pir::Inst::Store {
            base: pir::Reg(0),
            offset: 0,
            src: pir::Reg(0),
        });
        let idx = rt.install_variant_ir(&mut os, hot_id, bad).unwrap();
        assert!(rt.dispatch(&mut os, idx).is_err());
        let report = mon.report(&os, &rt);
        assert_eq!(report.metrics.counters["gate.rejected_dispatches"], 1);
        assert_eq!(report.metrics.counters["gate.unproved_dispatches"], 1);
        assert!(report.window.ips > 0.0);
        assert!(report.hot.iter().any(|(f, _)| *f == hot_id));
        let text = report.to_string();
        assert!(text.contains("1 rejected"), "{text}");
        assert!(text.contains("hot:"), "{text}");
        assert!(text.contains("window:"), "{text}");
    }

    #[test]
    fn report_surfaces_decode_cache_counters() {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mon = HostMonitor::new(&os, pid, 1.0);
        os.advance(50_000);
        let report = mon.report(&os, &rt);
        let c = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        // The loop-heavy host program replays decoded blocks constantly.
        assert!(c("machine.decoded_hits") > c("machine.decoded_misses"));
        assert!(c("machine.decoded_misses") > 0);
        let stats = os.decode_stats(pid);
        assert_eq!(c("machine.decoded_hits"), stats.hits);
        assert_eq!(c("machine.decoded_invalidations"), stats.invalidations);
    }

    #[test]
    fn merged_health_metrics_surface_as_a_health_line() {
        use crate::health::{HealthConfig, HealthMonitor};
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mon = HostMonitor::new(&os, pid, 1.0);
        let mut health = HealthMonitor::new(HealthConfig::default());
        // A plain report carries no health line.
        assert!(!mon.report(&os, &rt).to_string().contains("health:"));
        // Inject an EVT-write fault so the health layer has something to
        // count.
        let hot_id = rt.module().function_by_name("hot").unwrap();
        let idx = rt
            .compile_variant(&mut os, hot_id, &pcc::NtAssignment::none())
            .unwrap();
        rt.set_fault_plan(
            crate::FaultPlan::seeded(1).with_rate(crate::FaultKind::EvtWriteFail, 1.0),
        );
        assert!(!health.dispatch(&mut os, &mut rt, idx));
        let mut report = mon.report(&os, &rt);
        report.metrics = report.metrics.merge(health.metrics().snapshot());
        assert_eq!(report.metrics.counters["health.evt_write_failures"], 1);
        let text = report.to_string();
        assert!(text.contains("health:"), "{text}");
        assert!(text.contains("1 EVT drop(s)"), "{text}");
    }

    #[test]
    fn report_from_metrics_renders_its_snapshot_counters() {
        let mut snap = Snapshot::default();
        snap.counters.insert("gate.rejected_dispatches".into(), 5);
        snap.counters.insert("gate.refuted_dispatches".into(), 2);
        snap.counters.insert("health.quarantines".into(), 1);
        let text = MonitorReport::from_metrics(snap).to_string();
        assert!(
            text.contains(
                "gate: 5 rejected (0 unproved, 2 refuted), verdict cache 0 hit(s) / 0 miss(es)"
            ),
            "{text}"
        );
        assert!(text.contains("1 quarantined (0 refused)"), "{text}");
        // No `health.*` key, no health line; absent gate counters read 0.
        let text = MonitorReport::from_metrics(Snapshot::default()).to_string();
        assert!(text.contains("gate: 0 rejected"), "{text}");
        assert!(!text.contains("health:"), "{text}");
    }

    #[test]
    fn report_surfaces_osr_engine_counters() {
        use crate::health::{HealthConfig, HealthMonitor};
        use crate::osr::{OsrConfig, OsrController};
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let mon = HostMonitor::new(&os, pid, 1.0);
        let mut health = HealthMonitor::new(HealthConfig::default());
        // Before the engine runs, the report carries no osr line.
        assert!(!mon.report(&os, &rt).to_string().contains("osr:"));
        let hot_id = rt.module().function_by_name("hot").unwrap();
        let idx = rt
            .compile_variant(&mut os, hot_id, &pcc::NtAssignment::none())
            .unwrap();
        // A zero-cycle arming window forces an immediate clean abandon —
        // enough for the armed/abandoned counters to reach the report.
        let mut ctl = OsrController::new(OsrConfig {
            arm_window_cycles: 0,
            stuck_samples: 1,
            ..OsrConfig::default()
        });
        ctl.arm(&mut os, &mut rt, &mut health, hot_id, idx).unwrap();
        os.advance(1);
        let _ = ctl.tick(&mut os, &mut rt, &mut health);
        let report = mon.report(&os, &rt);
        assert_eq!(report.metrics.counters["osr.armed"], 1);
        assert_eq!(report.metrics.counters["osr.abandoned"], 1);
        let text = report.to_string();
        assert!(text.contains("osr: 1 armed"), "{text}");
        assert!(text.contains("1 abandoned"), "{text}");
    }

    #[test]
    fn zero_length_window_is_safe() {
        let out = Compiler::new(Options::plain()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut ext = ExtMonitor::new(&os, pid);
        let w = ext.end_window(&os);
        assert_eq!(w.ips, 0.0);
        assert_eq!(w.seconds, 0.0);
    }
}
