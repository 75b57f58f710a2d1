//! Self-healing: quarantine, retry/backoff, watchdog, checksum scrub,
//! and the graceful-degradation ladder.
//!
//! The paper's detach guarantee — on any runtime failure the original
//! code keeps executing — needs active machinery once faults are real
//! (see [`faults`](crate::faults)). [`HealthMonitor`] wraps the
//! [`Runtime`]'s compile/dispatch entry points and reacts to failures:
//!
//! * **Quarantine**: a variant that faults
//!   [`quarantine_threshold`](HealthConfig::quarantine_threshold) times
//!   is banned via [`Runtime::quarantine_variant`] and its function's EVT
//!   entry restored to the original code.
//! * **Retry with exponential backoff**: a failed compilation is
//!   rescheduled at `base * factor^attempts` cycles, up to
//!   [`max_compile_retries`](HealthConfig::max_compile_retries).
//! * **Watchdog**: a compilation that charges more than
//!   [`watchdog_deadline_cycles`](HealthConfig::watchdog_deadline_cycles)
//!   (a stalled compile thread) trips the watchdog and counts as a fault.
//! * **Checksum scrub**: every dispatch re-verifies the variant's
//!   code-cache checksum (inside [`Runtime::dispatch`]); the per-window
//!   [`end_window`](HealthMonitor::end_window) scrub additionally checks
//!   variants that are *currently installed*. Corruption → restore the
//!   original code, recompile fresh.
//! * **Degradation ladder**: accumulated faults push
//!   `Healthy → Degraded` (controllers fall back to nap-only ReQoS, no
//!   new variants) `→ Detached` ([`Runtime::restore_all`]; the original
//!   code runs untouched). Consecutive clean windows
//!   ([`recovery_windows`](HealthConfig::recovery_windows)) step back up
//!   one rung at a time — hysteresis, so a flapping fault source cannot
//!   oscillate the controller.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use pcc::NtAssignment;
use pir::{BlockId, FuncId};
use simos::Os;

use crate::metrics::Registry;
use crate::runtime::{DispatchError, Runtime};
use crate::trace::{EventKind, Subsystem};

/// Rung of the degradation ladder.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Full protean operation: compile, dispatch, optimize.
    Healthy,
    /// Faults accumulated: no new variants; controllers fall back to
    /// nap-only ReQoS behavior. Installed variants are restored.
    Degraded,
    /// Too many faults: everything restored, original code runs
    /// untouched (the paper's detach guarantee).
    Detached,
}

impl HealthState {
    /// Stable lowercase name, used in `ladder-transition` trace events.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Detached => "detached",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Thresholds and timings of the self-healing layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Faults a single variant may cause before it is quarantined.
    pub quarantine_threshold: u32,
    /// Compile retries before giving up on a (func, nt) request.
    pub max_compile_retries: u32,
    /// Backoff before the first compile retry, in cycles.
    pub backoff_base_cycles: u64,
    /// Backoff multiplier per successive retry.
    pub backoff_factor: u64,
    /// A compilation charging more than this many cycles counts as a
    /// stalled compile thread (watchdog trip).
    pub watchdog_deadline_cycles: u64,
    /// Fault score at which `Healthy` drops to `Degraded`.
    pub degrade_threshold: u32,
    /// Fault score at which any state drops to `Detached`.
    pub detach_threshold: u32,
    /// Consecutive clean windows required to climb one rung back up.
    pub recovery_windows: u32,
    /// Runtime OSR transfer failures a single (function, loop header)
    /// pair may cause before that header is never OSR-targeted again.
    pub osr_quarantine_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            quarantine_threshold: 3,
            max_compile_retries: 4,
            backoff_base_cycles: 10_000,
            backoff_factor: 2,
            // A default-cost compile is ~2-5k cycles; an 8x stalled one
            // blows well past this.
            watchdog_deadline_cycles: 20_000,
            degrade_threshold: 4,
            detach_threshold: 12,
            recovery_windows: 3,
            osr_quarantine_threshold: 3,
        }
    }
}

/// A compile request awaiting its backoff deadline.
#[derive(Clone, Debug)]
struct RetryState {
    func: FuncId,
    nt: NtAssignment,
    /// Attempts already made (the original counts as attempt 0).
    attempts: u32,
    /// Cycle time at which the next attempt is due.
    next_try: u64,
    /// Dispatch the variant once compiled.
    dispatch: bool,
}

/// The self-healing monitor wrapping one [`Runtime`].
///
/// Controllers route compile/dispatch through
/// [`transform`](HealthMonitor::transform) and call
/// [`end_window`](HealthMonitor::end_window) once per monitoring window;
/// the monitor keeps the degradation ladder, quarantine list, and retry
/// queue in sync with what actually happened.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    state: HealthState,
    /// Uniform metric surface (`health.*` counters).
    metrics: Registry,
    /// Fault count per variant index (drives quarantine).
    variant_faults: HashMap<usize, u32>,
    /// Runtime OSR transfer fault count per (function, loop header);
    /// drives per-header OSR quarantine.
    osr_faults: HashMap<(FuncId, BlockId), u32>,
    /// Decaying fault score (drives the ladder).
    fault_score: u32,
    /// Faults observed in the current window.
    faults_this_window: u32,
    /// Consecutive clean windows (drives recovery).
    clean_windows: u32,
    /// Pending compile retries, in scheduling order.
    retries: VecDeque<RetryState>,
}

impl HealthMonitor {
    /// A healthy monitor with `config` thresholds.
    pub fn new(config: HealthConfig) -> Self {
        HealthMonitor {
            config,
            state: HealthState::Healthy,
            metrics: Registry::new(),
            variant_faults: HashMap::new(),
            osr_faults: HashMap::new(),
            fault_score: 0,
            faults_this_window: 0,
            clean_windows: 0,
            retries: VecDeque::new(),
        }
    }

    /// Current rung of the degradation ladder.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The health layer's metric registry (`health.*` counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Emits a health-track trace event through the runtime's tracer,
    /// keeping one globally ordered stream across subsystems.
    fn emit(&self, os: &Os, rt: &mut Runtime, kind: EventKind) {
        rt.tracer_mut().emit(os.now(), Subsystem::Health, kind);
    }

    /// The configured thresholds.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Whether new variants may be compiled and dispatched (only while
    /// `Healthy`; `Degraded` and `Detached` are nap-only).
    pub fn allows_variants(&self) -> bool {
        self.state == HealthState::Healthy
    }

    /// Whether live OSR transfers may be attempted at all. OSR is the
    /// most invasive mechanism the runtime has — it rewrites a parked
    /// frame — so any rung below `Healthy` forbids it outright.
    pub fn allows_osr(&self) -> bool {
        self.state == HealthState::Healthy
    }

    /// Whether `(func, header)` has crossed the OSR fault threshold and
    /// is permanently banned from further OSR transfers. Function-level
    /// (call-edge) dispatch is unaffected.
    pub fn osr_quarantined(&self, func: FuncId, header: BlockId) -> bool {
        self.osr_faults
            .get(&(func, header))
            .is_some_and(|&n| n >= self.config.osr_quarantine_threshold)
    }

    /// Runtime OSR transfer faults recorded against `(func, header)`.
    pub fn osr_fault_count(&self, func: FuncId, header: BlockId) -> u32 {
        self.osr_faults.get(&(func, header)).copied().unwrap_or(0)
    }

    /// Records a runtime OSR transfer failure attributed to
    /// `(func, header)`; at
    /// [`osr_quarantine_threshold`](HealthConfig::osr_quarantine_threshold)
    /// the pair is quarantined — never OSR-targeted again — and the
    /// ladder takes one fault. Returns whether the pair is now
    /// quarantined.
    pub fn note_osr_fault(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        func: FuncId,
        header: BlockId,
    ) -> bool {
        let count = {
            let c = self.osr_faults.entry((func, header)).or_insert(0);
            *c += 1;
            *c
        };
        self.note_fault(os, rt);
        if count == self.config.osr_quarantine_threshold {
            self.metrics.inc("health.osr_quarantines");
            self.emit(
                os,
                rt,
                EventKind::OsrQuarantine {
                    func: u64::from(func.0),
                    header: u64::from(header.0),
                    faults: u64::from(count),
                },
            );
        }
        count >= self.config.osr_quarantine_threshold
    }

    /// Compile requests currently waiting out their backoff.
    pub fn pending_retries(&self) -> usize {
        self.retries.len()
    }

    /// Compiles and dispatches a variant through the health layer.
    ///
    /// Returns the variant index on success. Returns `None` when the
    /// ladder forbids new variants, the compilation failed (a retry is
    /// scheduled with backoff), or the dispatch was refused (the fault is
    /// recorded and the variant's quarantine count advanced).
    pub fn transform(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        func: FuncId,
        nt: &NtAssignment,
    ) -> Option<usize> {
        if !self.allows_variants() {
            return None;
        }
        let idx = self.compile(os, rt, func, nt, true, false)?;
        self.dispatch(os, rt, idx).then_some(idx)
    }

    /// Like [`transform`](HealthMonitor::transform) but compiles fresh,
    /// bypassing the variant cache — the chaos-mode
    /// [`StressEngine`](crate::StressEngine) path, where every firing must
    /// do real compiler work.
    pub fn transform_fresh(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        func: FuncId,
        nt: &NtAssignment,
    ) -> Option<usize> {
        if !self.allows_variants() {
            return None;
        }
        let idx = self.compile(os, rt, func, nt, true, true)?;
        self.dispatch(os, rt, idx).then_some(idx)
    }

    /// Compiles a variant, watching the watchdog deadline and scheduling
    /// a backoff retry on failure. `dispatch` is remembered so a retried
    /// compile finishes the original request.
    fn compile(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        func: FuncId,
        nt: &NtAssignment,
        dispatch: bool,
        fresh: bool,
    ) -> Option<usize> {
        let before = rt.compile_cycles();
        let result = if fresh {
            rt.compile_fresh(os, func, nt)
        } else {
            rt.compile_variant(os, func, nt)
        };
        let charged = rt.compile_cycles() - before;
        if charged > self.config.watchdog_deadline_cycles {
            self.metrics.inc("health.watchdog_trips");
            self.emit(
                os,
                rt,
                EventKind::WatchdogTrip {
                    func: u64::from(func.0),
                    cycles: charged,
                },
            );
            self.note_fault(os, rt);
        }
        match result {
            Ok(idx) => Some(idx),
            Err(DispatchError::CompileFailed { .. }) => {
                self.metrics.inc("health.compile_failures");
                self.note_fault(os, rt);
                self.schedule_retry(os, rt, func, nt.clone(), 0, dispatch);
                None
            }
            Err(_) => None,
        }
    }

    /// Dispatches `variant` through the health layer. Returns whether the
    /// variant's code is now installed.
    ///
    /// A checksum failure restores the original code and repairs the
    /// cache with a fresh recompile (dispatched if it verifies); an EVT
    /// drop or safety refusal advances the variant's quarantine count.
    pub fn dispatch(&mut self, os: &mut Os, rt: &mut Runtime, variant: usize) -> bool {
        match rt.dispatch(os, variant) {
            Ok(()) => true,
            Err(DispatchError::Quarantined { .. }) => {
                self.metrics.inc("health.rejected_quarantined");
                false
            }
            Err(DispatchError::CorruptCodeCache { func, .. }) => {
                self.metrics.inc("health.checksum_failures");
                let _ = rt.restore(os, func);
                self.note_variant_fault(os, rt, variant);
                self.note_fault(os, rt);
                self.repair(os, rt, variant)
            }
            Err(DispatchError::EvtWriteFailed { .. }) => {
                self.metrics.inc("health.evt_write_failures");
                self.note_variant_fault(os, rt, variant);
                self.note_fault(os, rt);
                false
            }
            Err(DispatchError::UnsafeVariant { .. }) => {
                // The gate already counts this (`gate.*`); it still
                // advances the variant's quarantine count so a producer
                // spamming unsafe bodies gets banned.
                self.note_variant_fault(os, rt, variant);
                false
            }
            Err(_) => false,
        }
    }

    /// Recompiles a corrupted variant fresh and installs the new copy if
    /// the ladder still allows variants and the old one isn't quarantined.
    fn repair(&mut self, os: &mut Os, rt: &mut Runtime, variant: usize) -> bool {
        if !self.allows_variants() || rt.is_quarantined(variant) {
            return false;
        }
        let (func, nt) = {
            let rec = &rt.variants()[variant];
            (rec.func, rec.nt.clone())
        };
        match rt.compile_fresh(os, func, &nt) {
            Ok(fresh) => {
                self.metrics.inc("health.cache_repairs");
                self.emit(
                    os,
                    rt,
                    EventKind::CacheRepair {
                        variant: variant as u64,
                        fresh: true,
                    },
                );
                rt.dispatch(os, fresh).is_ok()
            }
            Err(DispatchError::CompileFailed { .. }) => {
                self.metrics.inc("health.compile_failures");
                self.note_fault(os, rt);
                self.schedule_retry(os, rt, func, nt, 0, true);
                false
            }
            Err(_) => false,
        }
    }

    /// Records a fault attributed to `variant`; at the quarantine
    /// threshold the variant is banned and its function restored.
    pub fn note_variant_fault(&mut self, os: &mut Os, rt: &mut Runtime, variant: usize) {
        let count = self.variant_faults.entry(variant).or_insert(0);
        *count += 1;
        if *count >= self.config.quarantine_threshold && !rt.is_quarantined(variant) {
            rt.quarantine_variant(variant);
            let func = rt.variants()[variant].func;
            let _ = rt.restore(os, func);
            self.metrics.inc("health.quarantines");
            self.emit(
                os,
                rt,
                EventKind::Quarantine {
                    func: u64::from(func.0),
                    variant: variant as u64,
                },
            );
        }
    }

    /// Records one fault against the ladder and applies any immediate
    /// downward transition.
    pub fn note_fault(&mut self, os: &mut Os, rt: &mut Runtime) {
        self.faults_this_window += 1;
        self.clean_windows = 0;
        self.fault_score += 1;
        if self.fault_score >= self.config.detach_threshold && self.state != HealthState::Detached {
            self.detach(os, rt);
        } else if self.fault_score >= self.config.degrade_threshold
            && self.state == HealthState::Healthy
        {
            self.state = HealthState::Degraded;
            self.metrics.inc("health.degradations");
            self.emit(
                os,
                rt,
                EventKind::LadderTransition {
                    from: HealthState::Healthy.name(),
                    to: HealthState::Degraded.name(),
                },
            );
            // Conservative: degraded means nap-only, so installed
            // variants come out too.
            rt.restore_all(os);
        }
    }

    /// Forces the `Detached` rung: everything restored, retry queue
    /// dropped, original code untouched from here on.
    pub fn force_detach(&mut self, os: &mut Os, rt: &mut Runtime) {
        if self.state != HealthState::Detached {
            self.detach(os, rt);
        }
        self.fault_score = self.fault_score.max(self.config.detach_threshold);
    }

    fn detach(&mut self, os: &mut Os, rt: &mut Runtime) {
        let from = self.state;
        self.state = HealthState::Detached;
        self.metrics.inc("health.detaches");
        self.emit(
            os,
            rt,
            EventKind::LadderTransition {
                from: from.name(),
                to: HealthState::Detached.name(),
            },
        );
        // Recovery hysteresis starts over from the detach, not from
        // whatever clean streak preceded it.
        self.clean_windows = 0;
        self.retries.clear();
        rt.restore_all(os);
    }

    fn schedule_retry(
        &mut self,
        os: &Os,
        rt: &mut Runtime,
        func: FuncId,
        nt: NtAssignment,
        attempts: u32,
        dispatch: bool,
    ) {
        if attempts >= self.config.max_compile_retries {
            self.metrics.inc("health.compile_gave_up");
            self.emit(
                os,
                rt,
                EventKind::RetryGaveUp {
                    func: u64::from(func.0),
                },
            );
            return;
        }
        let backoff = self
            .config
            .backoff_base_cycles
            .saturating_mul(self.config.backoff_factor.saturating_pow(attempts));
        let next_try = os.now().saturating_add(backoff);
        self.emit(
            os,
            rt,
            EventKind::RetryScheduled {
                func: u64::from(func.0),
                attempts: u64::from(attempts),
                due_cycle: next_try,
            },
        );
        self.retries.push_back(RetryState {
            func,
            nt,
            attempts,
            next_try,
            dispatch,
        });
    }

    /// Processes compile retries whose backoff has elapsed. Called from
    /// [`end_window`](HealthMonitor::end_window); controllers with finer
    /// time resolution may also call it directly.
    pub fn poll(&mut self, os: &mut Os, rt: &mut Runtime) {
        if !self.allows_variants() {
            self.retries.clear();
            return;
        }
        let due: Vec<RetryState> = {
            let now = os.now();
            let mut due = Vec::new();
            let mut keep = VecDeque::new();
            while let Some(r) = self.retries.pop_front() {
                if r.next_try <= now {
                    due.push(r);
                } else {
                    keep.push_back(r);
                }
            }
            self.retries = keep;
            due
        };
        for r in due {
            self.metrics.inc("health.compile_retries");
            match rt.compile_variant(os, r.func, &r.nt) {
                Ok(idx) => {
                    if r.dispatch {
                        self.dispatch(os, rt, idx);
                    }
                }
                Err(DispatchError::CompileFailed { .. }) => {
                    self.metrics.inc("health.compile_failures");
                    self.note_fault(os, rt);
                    self.schedule_retry(os, rt, r.func, r.nt, r.attempts + 1, r.dispatch);
                    if !self.allows_variants() {
                        return;
                    }
                }
                Err(_) => {}
            }
        }
    }

    /// Verifies the checksum of every variant whose code is currently
    /// installed in the EVT; corruption restores the original code and
    /// repairs the cache. Safe to call at any time (the chaos driver
    /// calls it in the same tick it injects corruption, so corrupt code
    /// never executes).
    pub fn scrub(&mut self, os: &mut Os, rt: &mut Runtime) {
        let installed: Vec<usize> = rt
            .variants()
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.len > 0 && rt.current_target(os, rec.func) == Some(rec.addr))
            .map(|(i, _)| i)
            .collect();
        for idx in installed {
            if rt.verify_code(os, idx) {
                continue;
            }
            self.metrics.inc("health.checksum_failures");
            self.emit(
                os,
                rt,
                EventKind::ScrubCorruption {
                    variant: idx as u64,
                },
            );
            let func = rt.variants()[idx].func;
            let _ = rt.restore(os, func);
            self.note_variant_fault(os, rt, idx);
            self.note_fault(os, rt);
            self.repair(os, rt, idx);
        }
    }

    /// Closes a monitoring window: scrubs installed variants, processes
    /// due retries, and applies the hysteresis recovery rule — after
    /// [`recovery_windows`](HealthConfig::recovery_windows) consecutive
    /// clean windows the ladder climbs one rung and the fault score
    /// resets.
    pub fn end_window(&mut self, os: &mut Os, rt: &mut Runtime) {
        self.scrub(os, rt);
        self.poll(os, rt);
        if self.faults_this_window == 0 {
            self.clean_windows += 1;
            self.fault_score = self.fault_score.saturating_sub(1);
            if self.clean_windows >= self.config.recovery_windows
                && self.state != HealthState::Healthy
            {
                let from = self.state;
                self.state = match self.state {
                    HealthState::Detached => HealthState::Degraded,
                    _ => HealthState::Healthy,
                };
                self.metrics.inc("health.recoveries");
                self.emit(
                    os,
                    rt,
                    EventKind::LadderTransition {
                        from: from.name(),
                        to: self.state.name(),
                    },
                );
                self.fault_score = 0;
                self.clean_windows = 0;
            }
        } else {
            self.clean_windows = 0;
        }
        self.faults_this_window = 0;
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::runtime::RuntimeConfig;
    use pcc::{Compiler, Options};
    use pir::{FunctionBuilder, Locality, Module};
    use simos::{OsConfig, Pid};

    fn host_module() -> Module {
        let mut m = Module::new("host");
        let buf = m.add_global("buf", 8 * 64 + 64);
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(buf);
        w.counted_loop(0, 8, 1, |b, i| {
            let off = b.mul_imm(i, 64);
            let addr = b.add(base, off);
            let _ = b.load(addr, 0, Locality::Normal);
        });
        w.ret(None);
        let wid = m.add_function(w.finish());
        let mut main = FunctionBuilder::new("main", 0);
        let header = main.new_block();
        main.br(header);
        main.switch_to(header);
        main.call_void(wid, &[]);
        main.br(header);
        let mid = m.add_function(main.finish());
        m.set_entry(mid);
        m
    }

    fn setup() -> (Os, Pid, Runtime) {
        let out = Compiler::new(Options::protean())
            .compile(&host_module())
            .unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        (os, pid, rt)
    }

    /// A config whose ladder never moves, isolating the mechanism under
    /// test from degradation side effects.
    fn ladder_frozen() -> HealthConfig {
        HealthConfig {
            degrade_threshold: 1_000,
            detach_threshold: 2_000,
            watchdog_deadline_cycles: u64::MAX,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn repeated_evt_faults_quarantine_the_variant_and_restore() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(HealthConfig {
            quarantine_threshold: 2,
            ..ladder_frozen()
        });
        let idx = rt
            .compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap();
        rt.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultKind::EvtWriteFail, 1.0));
        assert!(!health.dispatch(&mut os, &mut rt, idx));
        assert!(!rt.is_quarantined(idx), "first fault tolerated");
        assert!(!health.dispatch(&mut os, &mut rt, idx));
        assert!(rt.is_quarantined(idx), "second fault quarantines");
        assert_eq!(health.metrics().counter("health.quarantines"), 1);
        assert_eq!(health.metrics().counter("health.evt_write_failures"), 2);
        let original = rt.link().func_addrs[worker.index()];
        assert_eq!(rt.current_target(&os, worker), Some(original));
        // The quarantine outlives the fault plan.
        rt.clear_fault_plan();
        assert!(!health.dispatch(&mut os, &mut rt, idx));
        assert_eq!(health.metrics().counter("health.rejected_quarantined"), 1);
    }

    #[test]
    fn failed_compiles_retry_with_doubling_backoff_then_give_up() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(HealthConfig {
            backoff_base_cycles: 1_000,
            backoff_factor: 2,
            max_compile_retries: 3,
            ..ladder_frozen()
        });
        rt.set_fault_plan(FaultPlan::seeded(4).with_rate(FaultKind::CompileFail, 1.0));
        assert!(health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .is_none());
        assert_eq!(health.pending_retries(), 1);
        // First retry is due after the base backoff.
        os.advance(1_100);
        health.poll(&mut os, &mut rt);
        assert_eq!(health.metrics().counter("health.compile_retries"), 1);
        // The second retry's backoff doubled: another base-interval wait
        // is not enough.
        os.advance(1_100);
        health.poll(&mut os, &mut rt);
        assert_eq!(
            health.metrics().counter("health.compile_retries"),
            1,
            "2x backoff not yet due"
        );
        os.advance(1_100);
        health.poll(&mut os, &mut rt);
        assert_eq!(health.metrics().counter("health.compile_retries"), 2);
        // Third retry waits 4x; after it fails the request is abandoned.
        os.advance(4_100);
        health.poll(&mut os, &mut rt);
        assert_eq!(health.metrics().counter("health.compile_retries"), 3);
        assert_eq!(health.metrics().counter("health.compile_gave_up"), 1);
        assert_eq!(health.pending_retries(), 0);
        assert_eq!(
            health.metrics().counter("health.compile_failures"),
            4,
            "initial + 3 retries"
        );
    }

    #[test]
    fn stalled_compile_trips_the_watchdog() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(HealthConfig {
            watchdog_deadline_cycles: 20_000,
            degrade_threshold: 1_000,
            detach_threshold: 2_000,
            ..HealthConfig::default()
        });
        rt.set_fault_plan(
            FaultPlan::seeded(6)
                .with_rate(FaultKind::CompileStall, 1.0)
                .with_stall_factor(64),
        );
        let idx = health.transform(&mut os, &mut rt, worker, &NtAssignment::none());
        assert!(idx.is_some(), "stalled compiles still complete");
        assert_eq!(health.metrics().counter("health.watchdog_trips"), 1);
    }

    #[test]
    fn scrub_detects_corruption_restores_and_repairs() {
        let (mut os, pid, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(ladder_frozen());
        let idx = health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .unwrap();
        let addr = rt.variants()[idx].addr;
        assert!(os.corrupt_text(pid, addr + 1, 0xfeed));
        health.scrub(&mut os, &mut rt);
        assert_eq!(health.metrics().counter("health.checksum_failures"), 1);
        assert_eq!(health.metrics().counter("health.cache_repairs"), 1);
        // The repaired copy, not the corrupt one, is installed.
        let target = rt.current_target(&os, worker).unwrap();
        assert_ne!(target, addr);
        let fresh = rt
            .variants()
            .iter()
            .position(|r| r.addr == target)
            .expect("repair produced a recorded variant");
        assert!(rt.verify_code(&os, fresh));
        // A clean scrub afterwards is a no-op.
        health.scrub(&mut os, &mut rt);
        assert_eq!(health.metrics().counter("health.checksum_failures"), 1);
    }

    #[test]
    fn ladder_degrades_detaches_and_recovers_with_hysteresis() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(HealthConfig {
            degrade_threshold: 2,
            detach_threshold: 4,
            recovery_windows: 2,
            ..HealthConfig::default()
        });
        let idx = health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .unwrap();
        let original = rt.link().func_addrs[worker.index()];
        health.note_fault(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Healthy);
        health.note_fault(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Degraded);
        assert!(!health.allows_variants());
        assert_eq!(
            rt.current_target(&os, worker),
            Some(original),
            "degrading restores installed variants"
        );
        assert!(
            health
                .transform(&mut os, &mut rt, worker, &NtAssignment::none())
                .is_none(),
            "no new variants while degraded"
        );
        let _ = idx;
        health.note_fault(&mut os, &mut rt);
        health.note_fault(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Detached);
        assert_eq!(health.metrics().counter("health.degradations"), 1);
        assert_eq!(health.metrics().counter("health.detaches"), 1);
        // The window the faults landed in closes dirty; then one clean
        // window is not enough (hysteresis)...
        health.end_window(&mut os, &mut rt);
        health.end_window(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Detached);
        // ...two climb one rung, twice more reach Healthy.
        health.end_window(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Degraded);
        health.end_window(&mut os, &mut rt);
        health.end_window(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Healthy);
        assert_eq!(health.metrics().counter("health.recoveries"), 2);
        assert!(health.allows_variants());
    }

    #[test]
    fn force_detach_restores_everything_and_clears_retries() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(ladder_frozen());
        health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .unwrap();
        rt.set_fault_plan(FaultPlan::seeded(8).with_rate(FaultKind::CompileFail, 1.0));
        let all_nt = NtAssignment::all(pir::load_sites(rt.module()).iter().map(|s| s.site));
        assert!(health
            .transform(&mut os, &mut rt, worker, &all_nt)
            .is_none());
        assert_eq!(health.pending_retries(), 1);
        health.force_detach(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Detached);
        assert_eq!(health.pending_retries(), 0);
        let original = rt.link().func_addrs[worker.index()];
        assert_eq!(rt.current_target(&os, worker), Some(original));
        // Detached refuses all new work.
        assert!(health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .is_none());
    }

    #[test]
    fn repeated_osr_faults_quarantine_the_header_not_the_function() {
        let (mut os, _, mut rt) = setup();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut health = HealthMonitor::new(HealthConfig {
            osr_quarantine_threshold: 2,
            ..ladder_frozen()
        });
        let header = BlockId(1);
        assert!(health.allows_osr());
        assert!(!health.note_osr_fault(&mut os, &mut rt, worker, header));
        assert!(
            !health.osr_quarantined(worker, header),
            "first fault tolerated"
        );
        assert!(health.note_osr_fault(&mut os, &mut rt, worker, header));
        assert!(
            health.osr_quarantined(worker, header),
            "second fault quarantines"
        );
        assert_eq!(health.metrics().counter("health.osr_quarantines"), 1);
        assert_eq!(health.osr_fault_count(worker, header), 2);
        // Only the faulting header is banned; other headers and
        // function-level dispatch are untouched.
        assert!(!health.osr_quarantined(worker, BlockId(2)));
        assert!(health
            .transform(&mut os, &mut rt, worker, &NtAssignment::none())
            .is_some());
        // Further faults past the threshold do not re-count.
        assert!(health.note_osr_fault(&mut os, &mut rt, worker, header));
        assert_eq!(health.metrics().counter("health.osr_quarantines"), 1);
    }

    #[test]
    fn osr_is_forbidden_on_any_rung_below_healthy() {
        let (mut os, _, mut rt) = setup();
        let mut health = HealthMonitor::new(HealthConfig {
            degrade_threshold: 1,
            detach_threshold: 2,
            ..HealthConfig::default()
        });
        assert!(health.allows_osr());
        health.note_fault(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Degraded);
        assert!(!health.allows_osr());
        health.note_fault(&mut os, &mut rt);
        assert_eq!(health.state(), HealthState::Detached);
        assert!(!health.allows_osr());
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(HealthState::Healthy.to_string(), "healthy");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::Detached.to_string(), "detached");
    }
}
