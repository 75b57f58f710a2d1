//! The PC3D controller: greedy variant search (Algorithm 1), online
//! variant evaluation (Algorithm 2), flux-based QoS monitoring
//! (Section IV-F), and co-phase-driven re-transformation.

use pcc::NtAssignment;
use pir::FuncId;
use protean::{
    nap, EventKind, ExtMonitor, FaultPlan, HealthConfig, HealthMonitor, HealthState, HostMonitor,
    MonitorReport, PhaseChange, PhaseDetector, Runtime, Subsystem,
};
use simos::{Os, Pid};

use crate::bisect::NapBisection;
use crate::heuristics::{select_candidates, HeuristicReport};

/// PC3D configuration. The nap law's gains, smoothing, QoS tolerance and
/// flux timing are the shared constants of [`protean::nap`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Pc3dConfig {
    /// Co-runner QoS target in (0, 1].
    pub qos_target: f64,
    /// Steady-state measurement window in simulated seconds.
    pub window_secs: f64,
    /// Evaluation window used inside the variant search (shorter, to keep
    /// Algorithm 1's total duration in the paper's ~20 s range).
    pub eval_window_secs: f64,
    /// Nap bisection tolerance (Algorithm 2 termination).
    pub nap_tolerance: f64,
    /// Cap on the number of candidate sites the greedy search visits.
    pub max_sites: usize,
    /// PC-sampling period in seconds.
    pub sample_period_secs: f64,
    /// Runtime-core seconds charged per PC sample (a ptrace stop is tens
    /// of microseconds; monitoring is cheap but not free).
    pub sample_cost_secs: f64,
    /// Seconds of pure monitoring before the first search (PC histogram
    /// warm-up).
    pub warmup_secs: f64,
    /// Seconds after a search or phase reset during which no new search
    /// or reset is triggered (settling time).
    pub cooldown_secs: f64,
    /// Base interval for re-searching when the current best still needs
    /// heavy napping; doubles (up to 8x) while re-searches fail to
    /// improve, so hopeless hosts don't churn.
    pub research_interval_secs: f64,
}

impl Default for Pc3dConfig {
    fn default() -> Self {
        Pc3dConfig {
            qos_target: 0.95,
            window_secs: 0.5,
            eval_window_secs: 0.3,
            nap_tolerance: 0.12,
            max_sites: 10,
            sample_period_secs: 0.005,
            sample_cost_secs: 20e-6,
            warmup_secs: 2.0,
            cooldown_secs: 4.0,
            research_interval_secs: 30.0,
        }
    }
}

impl Pc3dConfig {
    /// Preset for cluster-scale simulation (the `datacenter` crate):
    /// the same control laws, but a shorter warm-up so controllers on
    /// thousands of simulated servers reach steady state within the
    /// first few cluster epochs, and a longer re-search interval so
    /// hopeless hosts don't churn the greedy search at fleet scale.
    pub fn datacenter() -> Self {
        Pc3dConfig {
            warmup_secs: 1.0,
            research_interval_secs: 60.0,
            ..Pc3dConfig::default()
        }
    }
}

/// One window of the controller's timeline (drives Figure 16).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WindowRecord {
    /// Window end time in simulated seconds.
    pub t: f64,
    /// Host branches per second.
    pub host_bps: f64,
    /// Co-runner QoS (IPS / estimated solo IPS).
    pub qos: f64,
    /// Nap intensity in effect.
    pub nap: f64,
    /// Number of non-temporal hints in the dispatched variant.
    pub hints: usize,
    /// Whether this window was part of a variant search.
    pub searching: bool,
    /// Fraction of all server cycles consumed by the runtime during the
    /// window (compilation + monitoring).
    pub runtime_frac: f64,
}

/// State for one additional protected co-runner.
struct ExtraExt {
    pid: Pid,
    mon: ExtMonitor,
    solo_ips: f64,
}

/// The PC3D decision engine for one (host, co-runner) pair.
pub struct Pc3d {
    config: Pc3dConfig,
    rt: Runtime,
    host: Pid,
    ext: Pid,
    host_mon: HostMonitor,
    ext_mon: ExtMonitor,
    host_perf_mon: ExtMonitor,
    /// Additional protected co-runners beyond the primary one; the
    /// effective QoS is the minimum across all of them ("QoS of
    /// co-runners is satisfied", Algorithm 2).
    extra: Vec<ExtraExt>,
    extra_qos_min: f64,
    ext_phase: PhaseDetector,
    host_phase: PhaseDetector,
    solo_ips: f64,
    next_flux: f64,
    applied: NtAssignment,
    candidate_funcs: Vec<FuncId>,
    nap: f64,
    searched_this_phase: bool,
    /// Nap intensity the last search concluded; steady-state drift far
    /// above it invalidates the search (conditions changed under us).
    searched_nap: f64,
    /// When the last search finished, and the current re-search backoff.
    last_search_end: f64,
    research_interval: f64,
    last_best_bps: f64,
    searches: u64,
    /// Phase-change resets performed (diagnostics).
    resets_ext: u64,
    resets_host: u64,
    /// Smoothed QoS used for decisions (raw windows are noisy at low
    /// co-runner load).
    qos_smooth: f64,
    /// Smoothed external progress rate fed to the phase detector (raw
    /// windowed IPS jitters with the co-runner's own cache phases).
    ext_rate_smooth: f64,
    /// No phase-resets or new searches before this time (settling).
    cooldown_until: f64,
    last_report: Option<HeuristicReport>,
    last_runtime_cycles: u64,
    last_window_end: u64,
    history: Vec<WindowRecord>,
    /// Self-healing layer: every compile/dispatch routes through it, and
    /// its degradation ladder overrides the controller's policy
    /// (`Degraded`/`Detached` → nap-only, no new variants).
    health: HealthMonitor,
}

impl Pc3d {
    /// Creates the controller around an attached protean [`Runtime`],
    /// protecting co-runner `ext`. Performs an initial flux measurement.
    /// The self-healing layer runs with default thresholds
    /// ([`with_health`](Pc3d::with_health) to customize).
    pub fn new(os: &mut Os, rt: Runtime, ext: Pid, config: Pc3dConfig) -> Self {
        Pc3d::with_health(os, rt, ext, config, HealthConfig::default())
    }

    /// [`new`](Pc3d::new) with explicit self-healing thresholds.
    pub fn with_health(
        os: &mut Os,
        rt: Runtime,
        ext: Pid,
        config: Pc3dConfig,
        health: HealthConfig,
    ) -> Self {
        let host = rt.pid();
        // A tracer armed via `PROTEAN_TRACE` should also see the
        // kernel's side of the story (PC-sample / HPM delivery).
        if rt.tracer().is_enabled() && !os.obs_trace_enabled() {
            os.set_obs_trace(Some(protean::trace::DEFAULT_RING_CAP));
        }
        let mut ctl = Pc3d {
            config,
            host_mon: HostMonitor::new(os, host, 0.5),
            ext_mon: ExtMonitor::new(os, ext),
            host_perf_mon: ExtMonitor::new(os, host),
            ext_phase: PhaseDetector::default(),
            host_phase: PhaseDetector::default(),
            extra: Vec::new(),
            extra_qos_min: 1.0,
            rt,
            host,
            ext,
            solo_ips: 0.0,
            next_flux: 0.0,
            applied: NtAssignment::none(),
            candidate_funcs: Vec::new(),
            nap: 0.0,
            searched_this_phase: false,
            searched_nap: 0.0,
            last_search_end: 0.0,
            research_interval: config.research_interval_secs,
            last_best_bps: 0.0,
            searches: 0,
            resets_ext: 0,
            resets_host: 0,
            qos_smooth: 1.0,
            ext_rate_smooth: 0.0,
            cooldown_until: 0.0,
            last_report: None,
            last_runtime_cycles: os.runtime_consumed_total(),
            last_window_end: os.now(),
            history: Vec::new(),
            health: HealthMonitor::new(health),
        };
        ctl.flux(os);
        ctl.next_flux = os.now_seconds() + nap::FLUX_PERIOD_SECS;
        ctl
    }

    /// Registers an additional co-runner whose QoS must also be
    /// protected. The controller's decisions use the *minimum* QoS across
    /// every registered co-runner.
    pub fn add_corunner(&mut self, os: &Os, pid: Pid) {
        self.extra.push(ExtraExt {
            pid,
            mon: ExtMonitor::new(os, pid),
            solo_ips: 0.0,
        });
    }

    /// The attached runtime (variant index, compile statistics).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The self-healing layer (degradation state, healing counters).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Arms a fault-injection plan on the runtime and the OS observation
    /// surface (chaos testing).
    pub fn inject_faults(&mut self, os: &mut Os, plan: FaultPlan) {
        os.set_obs_faults(Some(plan.obs_faults()));
        self.rt.set_fault_plan(plan);
    }

    /// Forces the `Detached` rung: every function restored to its
    /// original code and the nap released. Until the ladder recovers, no
    /// variants are compiled; subsequent windows still run nap-only
    /// ReQoS control so the co-runner stays protected.
    pub fn force_detach(&mut self, os: &mut Os) {
        self.health.force_detach(os, &mut self.rt);
        self.applied = NtAssignment::none();
        self.nap = 0.0;
        os.set_nap(self.host, 0.0);
    }

    /// One combined status report: window rates, the runtime's and the
    /// health layer's metrics, hot functions.
    pub fn report(&self, os: &Os) -> MonitorReport {
        let mut report = self.host_mon.report(os, &self.rt);
        report.metrics = report.metrics.merge(self.health.metrics().snapshot());
        report
    }

    /// One merged metrics snapshot across the runtime (`compile.*`,
    /// `gate.*`, `dispatch.*`, `pc3d.*`) and the health layer
    /// (`health.*`).
    pub fn metrics_snapshot(&self) -> protean::Snapshot {
        self.rt
            .metrics()
            .snapshot()
            .merge(self.health.metrics().snapshot())
    }

    /// Exports the merged runtime + kernel trace under the directory
    /// named by `PROTEAN_TRACE` (see
    /// [`Runtime::export_trace`](protean::Runtime::export_trace)).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the trace files.
    pub fn export_trace(
        &self,
        os: &Os,
        name: &str,
    ) -> std::io::Result<Option<protean::TraceFiles>> {
        self.rt.export_trace(os, name)
    }

    /// Emits a controller-stream trace event at the current cycle.
    fn emit(&mut self, os: &Os, kind: EventKind) {
        self.rt
            .tracer_mut()
            .emit(os.now(), Subsystem::Controller, kind);
    }

    /// Timeline records.
    pub fn history(&self) -> &[WindowRecord] {
        &self.history
    }

    /// Number of full variant searches performed.
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Phase resets triggered by (external, host) detectors so far.
    pub fn resets(&self) -> (u64, u64) {
        (self.resets_ext, self.resets_host)
    }

    /// Heuristic report from the most recent search.
    pub fn heuristic_report(&self) -> Option<HeuristicReport> {
        self.last_report
    }

    /// Current nap intensity.
    pub fn nap(&self) -> f64 {
        self.nap
    }

    /// Hints in the currently dispatched variant.
    pub fn hints(&self) -> usize {
        self.applied.len()
    }

    /// Current solo-IPS estimate for the co-runner.
    pub fn solo_ips(&self) -> f64 {
        self.solo_ips
    }

    /// Mean co-runner QoS over history, skipping `skip` warmup windows.
    pub fn mean_qos(&self, skip: usize) -> f64 {
        let tail = &self.history[skip.min(self.history.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.qos).sum::<f64>() / tail.len() as f64
    }

    /// Serializes the timeline to CSV (for plotting Figure 16-style
    /// traces downstream).
    pub fn history_csv(&self) -> String {
        let mut out = String::from("t_s,host_bps,qos,nap,hints,searching,runtime_frac\n");
        for r in &self.history {
            out.push_str(&format!(
                "{:.2},{:.1},{:.4},{:.3},{},{},{:.6}\n",
                r.t, r.host_bps, r.qos, r.nap, r.hints, r.searching as u8, r.runtime_frac
            ));
        }
        out
    }

    /// Mean host BPS over history, skipping warmup windows.
    pub fn mean_host_bps(&self, skip: usize) -> f64 {
        let tail = &self.history[skip.min(self.history.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.host_bps).sum::<f64>() / tail.len() as f64
    }

    // ------------------------------------------------------------------
    // Measurement machinery
    // ------------------------------------------------------------------

    /// Flux ([`nap::flux`]) over the primary and every additional
    /// co-runner: refreshes their solo-IPS estimates and restarts the
    /// monitoring windows the freeze perturbed.
    fn flux(&mut self, os: &mut Os) {
        let pids: Vec<Pid> = std::iter::once(self.ext)
            .chain(self.extra.iter().map(|e| e.pid))
            .collect();
        let readings = nap::flux(os, self.host, &pids);
        self.solo_ips = nap::blend_solo(self.solo_ips, readings[0]);
        for (e, reading) in self.extra.iter_mut().zip(&readings[1..]) {
            e.solo_ips = nap::blend_solo(e.solo_ips, *reading);
            e.mon = ExtMonitor::new(os, e.pid);
        }
        self.ext_mon = ExtMonitor::new(os, self.ext);
        self.host_perf_mon = ExtMonitor::new(os, self.host);
    }

    /// Advances one measurement window of `secs` (flux first if due),
    /// PC-sampling the host throughout. Returns `(co-runner stats, host
    /// stats)`.
    fn advance_window(
        &mut self,
        os: &mut Os,
        secs: f64,
    ) -> (protean::WindowStats, protean::WindowStats) {
        if os.now_seconds() >= self.next_flux {
            self.flux(os);
            self.next_flux = os.now_seconds() + nap::FLUX_PERIOD_SECS;
        }
        let end = os.now_seconds() + secs;
        let sample_cost =
            (self.config.sample_cost_secs * os.config().machine.cycles_per_second as f64) as u64;
        while os.now_seconds() < end {
            os.advance_seconds(self.config.sample_period_secs);
            let pc = self.host_mon.sample(os, &self.rt);
            self.rt.note_pc_sample(os.now(), pc);
            os.charge_runtime(self.rt.config().core, sample_cost.max(1));
        }
        let ext = self.ext_mon.end_window(os);
        let host = self.host_perf_mon.end_window(os);
        let _ = self.host_mon.end_window(os);
        // Minimum QoS among additional protected co-runners this window.
        self.extra_qos_min = 1.0f64;
        for e in &mut self.extra {
            let q = nap::qos(&e.mon.end_window(os), e.solo_ips);
            self.extra_qos_min = self.extra_qos_min.min(q);
        }
        (ext, host)
    }

    /// The primary co-runner's QoS over `ext` ([`nap::qos`]).
    fn qos(&self, ext: &protean::WindowStats) -> f64 {
        nap::qos(ext, self.solo_ips)
    }

    fn record(
        &mut self,
        os: &Os,
        ext: &protean::WindowStats,
        host: &protean::WindowStats,
        searching: bool,
    ) {
        let rc = os.runtime_consumed_total();
        let dt_cycles = os.now().saturating_sub(self.last_window_end).max(1);
        let cores = os.config().machine.cores as u64;
        let runtime_frac = (rc - self.last_runtime_cycles) as f64 / (dt_cycles * cores) as f64;
        self.last_runtime_cycles = rc;
        self.last_window_end = os.now();
        self.history.push(WindowRecord {
            t: os.now_seconds(),
            host_bps: host.bps,
            // Cap for reporting: early flux underestimates of solo IPS can
            // briefly make the ratio exceed 1.
            qos: self.qos(ext).min(nap::QOS_CAP),
            nap: self.nap,
            hints: self.applied.len(),
            searching,
            runtime_frac,
        });
    }

    // ------------------------------------------------------------------
    // Variant dispatch
    // ------------------------------------------------------------------

    /// Dispatches variant `nt`: every candidate function is recompiled
    /// with its subset of hints (identical requests hit the runtime's
    /// variant cache), or restored to the original code when it carries
    /// no hints.
    fn apply_variant(&mut self, os: &mut Os, nt: &NtAssignment) {
        if !self.health.allows_variants() {
            // Degraded/Detached: nap-only — candidates run original code.
            for func in self.candidate_funcs.clone() {
                let _ = self.rt.restore(os, func);
            }
            self.applied = NtAssignment::none();
            return;
        }
        for func in self.candidate_funcs.clone() {
            let sub: NtAssignment = nt.sites_in(func).into_iter().collect();
            if sub.is_empty() {
                let _ = self.rt.restore(os, func);
            } else {
                // Route through the health layer: faults are absorbed
                // (retry/quarantine/ladder) and the function keeps its
                // previous — ultimately original — code on failure.
                let _ = self.health.transform(os, &mut self.rt, func, &sub);
            }
        }
        self.applied = nt.clone();
    }

    fn set_nap(&mut self, os: &mut Os, nap: f64) {
        let new = nap.clamp(0.0, nap::NAP_MAX);
        let permille = (new * 1000.0).round() as u64;
        if permille != (self.nap * 1000.0).round() as u64 {
            self.emit(os, EventKind::NapSet { permille });
            self.rt
                .metrics_mut()
                .set_gauge("pc3d.nap_permille", permille as f64);
        }
        self.nap = new;
        os.set_nap(self.host, self.nap);
    }

    // ------------------------------------------------------------------
    // Algorithm 2: VariantEval
    // ------------------------------------------------------------------

    /// Evaluates variant `nt`: finds (by bisection within `[lb, ub]`) the
    /// minimum nap intensity at which the co-runner meets its QoS target,
    /// and the host's BPS at that intensity.
    fn variant_eval(&mut self, os: &mut Os, nt: &NtAssignment, lb: f64, ub: f64) -> (f64, f64) {
        self.apply_variant(os, nt);
        let mut bis = NapBisection::new(lb.min(ub), ub.max(lb), self.config.nap_tolerance);
        while !bis.done() {
            let nap = bis.probe();
            self.set_nap(os, nap);
            // Settle: cache occupancy lags nap/variant changes by a cache
            // fill time; discard the transition window.
            let _ = self.advance_window(os, self.config.eval_window_secs);
            let (ext, host) = self.advance_window(os, self.config.eval_window_secs);
            let ok = self.qos(&ext).min(self.extra_qos_min)
                >= nap::effective_target(self.config.qos_target);
            self.record(os, &ext, &host, true);
            bis.observe(ok);
        }
        // Confirmation at the final nap decides the variant's performance:
        // settle, then average two windows. Per Algorithm 2, BPS is only
        // credited when the co-runner's QoS is actually satisfied.
        let nap = bis.result();
        self.set_nap(os, nap);
        let _ = self.advance_window(os, self.config.eval_window_secs);
        let (ext1, host1) = self.advance_window(os, self.config.eval_window_secs);
        self.record(os, &ext1, &host1, true);
        let (ext2, host2) = self.advance_window(os, self.config.eval_window_secs);
        self.record(os, &ext2, &host2, true);
        let extra1 = self.extra_qos_min;
        let q2 = self.qos(&ext2).min(self.extra_qos_min);
        let qos = ((self.qos(&ext1).min(extra1)) + q2) / 2.0;
        let bps = (host1.bps + host2.bps) / 2.0;
        let feasible_bps = if qos >= nap::effective_target(self.config.qos_target) {
            bps
        } else {
            0.0
        };
        (nap, feasible_bps)
    }

    // ------------------------------------------------------------------
    // Algorithm 1: greedy variant search
    // ------------------------------------------------------------------

    /// Runs the greedy search over the candidate sites, dispatching the
    /// best mix of non-temporal hints + napping found.
    fn search(&mut self, os: &mut Os) {
        let (sites, report) = select_candidates(&self.rt, &self.host_mon, self.config.max_sites);
        self.last_report = Some(report);
        self.searches += 1;
        self.emit(
            os,
            EventKind::SearchStart {
                sites: sites.len() as u64,
            },
        );
        let mut funcs: Vec<FuncId> = sites.iter().map(|s| s.func).collect();
        funcs.sort();
        funcs.dedup();
        self.candidate_funcs = funcs;
        let mut evals: u64 = 0;
        if sites.is_empty() {
            // Nothing transformable: pure nap fallback.
            let (nap0, _) = self.variant_eval(os, &NtAssignment::none(), 0.0, 1.0);
            self.set_nap(os, nap0);
            self.searched_nap = nap0;
            self.searched_this_phase = true;
            self.last_search_end = os.now_seconds();
            self.emit(os, EventKind::SearchEnd { flips: 0, evals: 1 });
            return;
        }

        let zero = NtAssignment::none();
        let one = NtAssignment::all(sites.iter().copied());
        // Bounds: variant 0 exerts the most pressure (upper nap bound),
        // variant 1 the least (lower bound).
        let (nap0, r0) = self.variant_eval(os, &zero, 0.0, 1.0);
        let (nap1, r1) = self.variant_eval(os, &one, 0.0, 1.0);
        evals += 2;
        let mut nap_ub = nap0.max(nap1);
        let nap_lb = nap1.min(nap0);

        let mut m = one.clone();
        let mut best = one.clone();
        let mut r_best = r1;
        let mut best_nap = nap1;
        // Also consider variant 0 as a candidate best (occasionally hints
        // are pure loss). A small acceptance margin keeps single-window
        // noise from cascading through the greedy walk.
        let margin = 1.03;
        if r0 > r_best * margin {
            best = zero.clone();
            r_best = r0;
            best_nap = nap0;
        }

        for site in &sites {
            if nap_ub - nap_lb <= self.config.nap_tolerance {
                break;
            }
            m.flip(*site); // revoke this site's hint
            let (nap_m, r_m) = self.variant_eval(os, &m, nap_lb, nap_ub);
            evals += 1;
            let accepted = r_best * margin < r_m;
            self.emit(
                os,
                EventKind::SearchStep {
                    func: u64::from(site.func.0),
                    accepted,
                },
            );
            if accepted {
                r_best = r_m;
                best = m.clone();
                best_nap = nap_m;
                nap_ub = nap_m;
            } else {
                m.flip(*site); // reject the change
            }
            let _ = nap_lb;
        }

        self.apply_variant(os, &best);
        self.set_nap(os, best_nap);
        self.searched_nap = best_nap;
        self.searched_this_phase = true;
        self.last_search_end = os.now_seconds();
        self.emit(
            os,
            EventKind::SearchEnd {
                flips: best.len() as u64,
                evals,
            },
        );
        // Backoff: if this search did not improve on the previous best,
        // wait longer before trying again.
        if r_best > self.last_best_bps * 1.05 {
            self.research_interval = self.config.research_interval_secs;
        } else {
            self.research_interval =
                (self.research_interval * 2.0).min(self.config.research_interval_secs * 8.0);
        }
        self.last_best_bps = r_best;
    }

    // ------------------------------------------------------------------
    // Steady-state loop
    // ------------------------------------------------------------------

    /// Runs one steady-state window: measure, detect phase changes,
    /// search or trim nap as needed.
    pub fn run_window(&mut self, os: &mut Os) {
        let (ext, host) = self.advance_window(os, self.config.window_secs);
        let qos = self.qos(&ext).min(self.extra_qos_min).min(nap::QOS_CAP);
        self.qos_smooth = nap::smooth(self.qos_smooth, qos);
        let effective_target = nap::effective_target(self.config.qos_target);
        let slack = ((qos - self.config.qos_target) * 1000.0).max(0.0) as u64;
        self.rt
            .metrics_mut()
            .record("pc3d.qos_window_slack_permille", slack);
        if qos < effective_target {
            self.rt.metrics_mut().inc("pc3d.qos_window_violations");
        }
        self.record(os, &ext, &host, false);

        // Close the self-healing window: scrub installed variants, process
        // compile retries, walk the degradation ladder's hysteresis. Any
        // rung below Healthy overrides the search policy below.
        let prev_health = self.health.state();
        self.health.end_window(os, &mut self.rt);
        if prev_health != HealthState::Healthy && self.health.state() == HealthState::Healthy {
            // Recovered: the faulted-era search conclusions describe a
            // world where variants were forbidden — start over.
            self.applied = NtAssignment::none();
            self.searched_this_phase = false;
            self.qos_smooth = 1.0;
        }
        if self.health.state() != HealthState::Healthy {
            // Degraded/Detached: nap-only ReQoS, the very law the `reqos`
            // crate runs. The process's code is untouched (installed
            // variants were restored on the downward transition) but
            // napping is an OS-scheduler facility, not a code
            // transformation, so the co-runner is never protected worse
            // than plain ReQoS. Keep measuring so hysteresis recovery
            // can fire.
            self.applied = NtAssignment::none();
            let nap = nap::step(self.nap, self.qos_smooth, effective_target, ext.busy);
            self.set_nap(os, nap);
            return;
        }

        // Co-phase detection: external progress/load shifts or host
        // hot-set shifts invalidate the current variant choice. The rate
        // is smoothed first so the detector sees sustained shifts, not
        // single-window jitter.
        let raw_rate = if ext.app_rate > 0.0 {
            ext.app_rate
        } else {
            ext.ips
        };
        self.ext_rate_smooth = if self.ext_rate_smooth == 0.0 {
            raw_rate
        } else {
            0.4 * raw_rate + 0.6 * self.ext_rate_smooth
        };
        let smoothed = protean::WindowStats {
            app_rate: self.ext_rate_smooth,
            ips: self.ext_rate_smooth,
            ..ext
        };
        // A near-idle co-runner's windowed rates are dominated by arrival
        // granularity; its "phase" is simply idle — observe nothing.
        let ext_rate_change = if ext.busy < nap::IDLE_BUSY {
            PhaseChange::Stable
        } else if ext.app_rate > 0.0 {
            self.ext_phase.observe_app_rate(&smoothed)
        } else {
            self.ext_phase.observe_ips(&smoothed)
        };
        // Only significant functions (>=10% of samples) define the phase;
        // occasionally-sampled warm code would churn the set.
        let hot: Vec<FuncId> = self
            .host_mon
            .hot_funcs()
            .iter()
            .filter(|(_, w)| *w >= 0.10)
            .map(|(f, _)| *f)
            .collect();
        let host_change = self.host_phase.observe_hot_set(&hot);
        let settled = os.now_seconds() >= self.cooldown_until;
        if settled && (ext_rate_change != PhaseChange::Stable || host_change != PhaseChange::Stable)
        {
            if ext_rate_change != PhaseChange::Stable {
                self.resets_ext += 1;
                self.emit(os, EventKind::PhaseChange { source: "external" });
            }
            if host_change != PhaseChange::Stable {
                self.resets_host += 1;
                self.emit(os, EventKind::PhaseChange { source: "host" });
            }
            // Revert to the original program and re-evaluate from scratch
            // (the paper reverts libquantum at the t=300 load drop).
            let nt_none = NtAssignment::none();
            self.apply_variant(os, &nt_none);
            self.set_nap(os, 0.0);
            self.searched_this_phase = false;
            self.qos_smooth = 1.0;
            self.ext_rate_smooth = 0.0;
            self.ext_phase.reset();
            self.host_phase.reset();
            self.cooldown_until = os.now_seconds() + self.config.cooldown_secs;
            return;
        }

        let warm = os.now_seconds() >= self.config.warmup_secs;
        let qos_d = self.qos_smooth;
        // Periodic re-search: if the last search left us napping heavily,
        // conditions may have improved (or it straddled a transition).
        let research_due =
            self.nap > 0.5 && os.now_seconds() > self.last_search_end + self.research_interval;
        if warm
            && settled
            && (qos_d < effective_target || research_due)
            && (!self.searched_this_phase || research_due)
        {
            self.search(os);
            self.ext_phase.reset();
            self.host_phase.reset();
            self.qos_smooth = 1.0;
            self.cooldown_until = os.now_seconds() + self.config.cooldown_secs;
            return;
        }
        // Otherwise the nap law trims around the search's variant.
        let nap = nap::step(self.nap, qos_d, effective_target, ext.busy);
        self.set_nap(os, nap);
        // If napping drifts far above what the search concluded, the
        // search's conclusion no longer describes reality (e.g. it
        // straddled a load transition): invalidate it so the next
        // violating window re-searches.
        if self.searched_this_phase && self.nap > self.searched_nap + 0.25 {
            self.searched_this_phase = false;
        }
    }

    /// Runs the controller for `secs` simulated seconds.
    pub fn run_for(&mut self, os: &mut Os, secs: f64) {
        let end = os.now_seconds() + secs;
        while os.now_seconds() < end {
            self.run_window(os);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc::{Compiler, Options};
    use protean::RuntimeConfig;
    use simos::{LoadSchedule, OsConfig};
    use workloads::catalog;

    fn setup(host_name: &str, ext_name: &str) -> (Os, Pid, Pid, Runtime) {
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let host_m = catalog::build(host_name, llc).unwrap();
        let ext_m = catalog::build(ext_name, llc).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain())
            .compile(&ext_m)
            .unwrap()
            .image;
        let mut os = Os::new(cfg);
        let ext = os.spawn(&ext_img, 0);
        let host = os.spawn(&host_img, 1);
        let rt = Runtime::attach(&os, host, RuntimeConfig::on_core(1)).unwrap();
        (os, host, ext, rt)
    }

    #[test]
    fn pc3d_meets_qos_on_contentious_pair() {
        let (mut os, _host, ext, rt) = setup("libquantum", "mcf");
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.run_for(&mut os, 40.0);
        let windows = ctl.history().len();
        let qos = ctl.mean_qos(windows / 2);
        assert!(qos > 0.85, "PC3D should hold QoS near target, got {qos:.3}");
    }

    #[test]
    fn pc3d_searches_and_applies_hints_on_streaming_host() {
        let (mut os, _host, ext, rt) = setup("libquantum", "mcf");
        let mut ctl = Pc3d::new(
            &mut os,
            rt,
            ext,
            Pc3dConfig {
                qos_target: 0.98,
                ..Default::default()
            },
        );
        ctl.run_for(&mut os, 60.0);
        assert!(
            ctl.searches() >= 1,
            "a contentious pair should trigger a search"
        );
        assert!(
            ctl.hints() > 0,
            "libquantum is streaming: the best variant should carry hints"
        );
        let report = ctl.heuristic_report().expect("search produced a report");
        assert_eq!(report.total_loads, 636);
        assert!(report.max_depth_loads < 30);
    }

    #[test]
    fn pc3d_reverts_on_load_drop() {
        // Server co-runner whose load drops mid-run: PC3D should detect
        // the co-phase change and let the host run unthrottled.
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let host_m = catalog::build("libquantum", llc).unwrap();
        let ext_m = catalog::build("web-search", llc).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain())
            .compile(&ext_m)
            .unwrap()
            .image;
        let mut os = Os::new(cfg);
        let ext = os.spawn(&ext_img, 0);
        let host = os.spawn(&host_img, 1);
        // Estimate solo capacity roughly: high then low load.
        // High load near the server's capacity on the small test config,
        // then a deep drop.
        os.set_load(ext, LoadSchedule::steps(vec![(0.0, 10.0), (40.0, 1.0)]));
        let rt = Runtime::attach(&os, host, RuntimeConfig::on_core(1)).unwrap();
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.run_for(&mut os, 100.0);
        // After the load drop the host should be (nearly) unthrottled.
        let late: Vec<_> = ctl
            .history()
            .iter()
            .filter(|r| r.t > 75.0 && !r.searching)
            .collect();
        assert!(!late.is_empty());
        let mean_late_nap: f64 = late.iter().map(|r| r.nap).sum::<f64>() / late.len() as f64;
        assert!(
            mean_late_nap < 0.4,
            "host should be mostly unthrottled at low load, nap {mean_late_nap:.2}"
        );
    }

    #[test]
    fn protects_multiple_corunners() {
        // Three-way co-location: libquantum (host) + two protected
        // externals; the controller's decisions use the minimum QoS.
        let mut cfg = OsConfig::small();
        cfg.machine.cores = 3;
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let host_m = catalog::build("libquantum", llc).unwrap();
        let e1_m = catalog::build("er-naive", llc).unwrap();
        let e2_m = catalog::build("mcf", llc).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let e1_img = Compiler::new(Options::plain())
            .compile(&e1_m)
            .unwrap()
            .image;
        let e2_img = Compiler::new(Options::plain())
            .compile(&e2_m)
            .unwrap()
            .image;
        let mut os = Os::new(cfg);
        let e1 = os.spawn(&e1_img, 0);
        let host = os.spawn(&host_img, 1);
        let e2 = os.spawn(&e2_img, 2);
        let rt = Runtime::attach(&os, host, RuntimeConfig::on_core(1)).unwrap();
        let mut ctl = Pc3d::new(
            &mut os,
            rt,
            e1,
            Pc3dConfig {
                qos_target: 0.95,
                ..Default::default()
            },
        );
        ctl.add_corunner(&os, e2);
        ctl.run_for(&mut os, 40.0);
        let w = ctl.history().len();
        let qos = ctl.mean_qos(w / 2);
        assert!(
            qos > 0.85,
            "min-QoS across both co-runners should be held, got {qos:.3}"
        );
    }

    #[test]
    fn forced_detach_goes_untouched_and_recovers_through_the_ladder() {
        let (mut os, _h, ext, rt) = setup("libquantum", "mcf");
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.run_for(&mut os, 10.0);
        ctl.force_detach(&mut os);
        assert_eq!(ctl.health().state(), HealthState::Detached);
        assert_eq!(ctl.nap(), 0.0);
        assert_eq!(ctl.hints(), 0);
        // A window while detached leaves the code untouched (the first
        // clean windows are not enough to recover — hysteresis), though
        // nap-only control keeps running.
        ctl.run_window(&mut os);
        assert_eq!(ctl.health().state(), HealthState::Detached);
        assert_eq!(ctl.hints(), 0);
        // Fault-free windows climb the ladder back to Healthy.
        ctl.run_for(&mut os, 10.0);
        assert_eq!(ctl.health().state(), HealthState::Healthy);
        assert!(ctl.health().metrics().counter("health.recoveries") >= 2);
        let report = ctl.report(&os).to_string();
        assert!(
            report.contains("health:"),
            "report carries healing counters"
        );
    }

    #[test]
    fn evt_faults_degrade_the_controller_to_nap_only() {
        use protean::FaultKind;
        let (mut os, _h, ext, rt) = setup("libquantum", "mcf");
        let mut ctl = Pc3d::with_health(
            &mut os,
            rt,
            ext,
            // A high target guarantees a violation window → a search →
            // dispatch attempts that hit the injected EVT faults.
            Pc3dConfig {
                qos_target: 0.98,
                ..Pc3dConfig::default()
            },
            HealthConfig {
                degrade_threshold: 2,
                detach_threshold: 1_000,
                // Never recover within the test: the ladder must hold.
                recovery_windows: u32::MAX,
                ..HealthConfig::default()
            },
        );
        // Every EVT write is dropped: the first search's dispatches fault
        // until the ladder drops to Degraded (nap-only).
        ctl.inject_faults(
            &mut os,
            FaultPlan::seeded(5).with_rate(FaultKind::EvtWriteFail, 1.0),
        );
        ctl.run_for(&mut os, 60.0);
        assert_eq!(ctl.health().state(), HealthState::Degraded);
        assert_eq!(ctl.hints(), 0, "no variant survives dropped EVT writes");
        assert!(ctl.health().metrics().counter("health.evt_write_failures") >= 2);
        // Nap-only control still runs: the co-runner is not abandoned.
        let w = ctl.history().len();
        let qos = ctl.mean_qos(w / 2);
        assert!(qos > 0.7, "degraded mode still protects QoS, got {qos:.3}");
    }

    #[test]
    fn history_csv_has_all_rows() {
        let (mut os, _h, ext, rt) = setup("libquantum", "mcf");
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.run_for(&mut os, 5.0);
        let csv = ctl.history_csv();
        assert_eq!(csv.lines().count(), ctl.history().len() + 1);
        assert!(csv.starts_with("t_s,host_bps"));
    }

    #[test]
    fn runtime_cycles_stay_small() {
        let (mut os, _h, ext, rt) = setup("milc", "mcf");
        let mut ctl = Pc3d::new(&mut os, rt, ext, Pc3dConfig::default());
        ctl.run_for(&mut os, 30.0);
        let total_runtime = os.runtime_consumed_total() as f64;
        let server = os.server_cycles() as f64;
        assert!(
            total_runtime / server < 0.02,
            "runtime should use <2% of server cycles, used {:.3}%",
            100.0 * total_runtime / server
        );
    }
}
