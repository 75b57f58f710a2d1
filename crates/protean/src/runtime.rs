//! Attach, discovery, the EVT manager, and variant dispatch.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::io;

use pcc::annex::MetaError;
use pcc::lower::{lower_function, LowerCtx};
use pcc::{EmbeddedMeta, NtAssignment};
use pir::{FuncId, Function, Module};
use simos::{Os, Pid};
use visa::MetaDesc;

use crate::cost::CompileCostModel;
use crate::faults::{FaultKind, FaultPlan};
use crate::metrics::Registry;
use crate::safety::VariantVerdict;
use crate::trace::{self, EventKind, Subsystem, TraceFiles, Tracer};

/// Runtime placement and cost configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuntimeConfig {
    /// Core the runtime process occupies; its compilation work is charged
    /// there (Figure 6 contrasts "same core" vs "separate core").
    pub core: usize,
    /// Compilation cost model.
    pub cost: CompileCostModel,
}

impl RuntimeConfig {
    /// Runtime on a dedicated core with default costs.
    pub fn on_core(core: usize) -> Self {
        RuntimeConfig {
            core,
            cost: CompileCostModel::default(),
        }
    }
}

/// Failure to attach to a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttachError {
    /// The process carries no protean meta root — not compiled by `pcc`.
    NotProtean,
    /// The metadata blob failed to decode.
    Meta(MetaError),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::NotProtean => {
                write!(f, "process has no protean metadata (not compiled by pcc)")
            }
            AttachError::Meta(e) => write!(f, "embedded metadata unreadable: {e}"),
        }
    }
}

impl Error for AttachError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttachError::NotProtean => None,
            AttachError::Meta(e) => Some(e),
        }
    }
}

/// Failure to dispatch a variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DispatchError {
    /// The function's call edges were not virtualized by the static
    /// compiler, so the runtime has no hook to redirect it.
    NotVirtualized(FuncId),
    /// The variant failed the static safety gate
    /// ([`vet_variant`](crate::safety::vet_variant)): it could not be
    /// proved equivalent to the baseline modulo non-temporal hints (or
    /// was concretely refuted), so patching the EVT could corrupt the
    /// running host.
    UnsafeVariant {
        /// The function the rejected variant targets.
        func: FuncId,
        /// Which safety property the variant violated.
        detail: String,
    },
    /// The variant is quarantined: it faulted repeatedly and the health
    /// layer banned it from ever being dispatched again.
    Quarantined {
        /// The function the banned variant targets.
        func: FuncId,
        /// Index of the banned variant.
        variant: usize,
    },
    /// The variant's code-cache bytes no longer match the checksum
    /// recorded at compile time — the cache was corrupted after lowering.
    /// The EVT is left untouched; the caller should restore + recompile.
    CorruptCodeCache {
        /// The function whose cached code is corrupt.
        func: FuncId,
        /// Index of the corrupt variant.
        variant: usize,
    },
    /// Variant compilation failed (an injected
    /// [`FaultKind::CompileFail`]). The
    /// cycles were burned but no code reached the cache.
    CompileFailed {
        /// The function whose compilation failed.
        func: FuncId,
    },
    /// The atomic EVT write was dropped mid-dispatch (an injected
    /// [`FaultKind::EvtWriteFail`]); the
    /// previously installed target is still in effect.
    EvtWriteFailed {
        /// The function whose redirection was dropped.
        func: FuncId,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::NotVirtualized(f_) => {
                write!(
                    f,
                    "function {f_} has no EVT slot; its edges are not virtualized"
                )
            }
            DispatchError::UnsafeVariant { func, detail } => {
                write!(f, "refusing to dispatch unsafe variant of {func}: {detail}")
            }
            DispatchError::Quarantined { func, variant } => {
                write!(
                    f,
                    "variant {variant} of {func} is quarantined after repeated faults"
                )
            }
            DispatchError::CorruptCodeCache { func, variant } => {
                write!(
                    f,
                    "code-cache checksum mismatch for variant {variant} of {func}"
                )
            }
            DispatchError::CompileFailed { func } => {
                write!(f, "compilation of a variant of {func} failed")
            }
            DispatchError::EvtWriteFailed { func } => {
                write!(f, "EVT write for {func} was dropped mid-dispatch")
            }
        }
    }
}

impl Error for DispatchError {}

/// A compiled variant living in the code cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantRecord {
    /// The function this is a variant of.
    pub func: FuncId,
    /// The non-temporal assignment baked into it.
    pub nt: NtAssignment,
    /// The variant's IR — what the safety gate vets against the baseline
    /// before any dispatch.
    pub ir: Function,
    /// Code-cache address of the variant's first instruction (0 with
    /// `len == 0` for bodies the gate refused to lower).
    pub addr: u32,
    /// Length in instructions.
    pub len: u32,
    /// Checksum of the lowered instructions at compile time
    /// ([`safety::code_checksum`](crate::safety::code_checksum)), verified
    /// against process text before every dispatch. 0 for bodies that were
    /// never lowered (`len == 0`).
    pub checksum: u64,
}

/// The protean code runtime, attached to one host process.
#[derive(Clone, Debug)]
pub struct Runtime {
    pid: Pid,
    config: RuntimeConfig,
    meta: EmbeddedMeta,
    desc: MetaDesc,
    /// All variants compiled so far (the runtime's code-cache index).
    variants: Vec<VariantRecord>,
    /// Memoization: identical (func, nt) requests reuse the cached
    /// variant instead of recompiling.
    by_key: HashMap<(FuncId, Vec<pir::LoadSiteId>), usize>,
    /// Memoized safety verdicts per variant index; unsafe verdicts
    /// record why the variant must never be dispatched.
    safety_verdicts: HashMap<usize, VariantVerdict>,
    /// Uniform metric surface (`compile.*`, `gate.*`, `dispatch.*`); the
    /// dispatch-count and cycle accessors are thin reads of it.
    metrics: Registry,
    /// Structured event sink for every runtime decision point.
    tracer: Tracer,
    /// Variants dispatched but not yet observed executing, by variant
    /// index → EVT-write cycle (feeds `dispatch.first_exec_lag_cycles`).
    pending_first_exec: HashMap<usize, u64>,
    /// Variants banned by the health layer after repeated faults; a
    /// quarantined variant is refused at dispatch unconditionally.
    quarantined: HashSet<usize>,
    /// Active fault-injection plan, if any (chaos testing).
    faults: Option<FaultPlan>,
}

impl Runtime {
    /// Attaches to `pid`: discovers the meta root in the process's data
    /// memory, reads and decodes the embedded IR + link annex.
    ///
    /// # Errors
    ///
    /// [`AttachError::NotProtean`] if the process lacks a meta root;
    /// [`AttachError::Meta`] if the blob is corrupt.
    pub fn attach(os: &Os, pid: Pid, config: RuntimeConfig) -> Result<Runtime, AttachError> {
        // Discovery happens through process memory, exactly as a real
        // runtime attaching over shared memory would do it.
        let header = os.read_mem(pid, visa::META_ROOT_ADDR, visa::META_ROOT_SIZE as usize);
        let desc = MetaDesc::read_root(header).ok_or(AttachError::NotProtean)?;
        let blob = os.read_mem(pid, desc.ir_addr, desc.ir_len as usize);
        let meta = EmbeddedMeta::from_blob(blob).map_err(AttachError::Meta)?;
        let mut rt = Runtime {
            pid,
            config,
            meta,
            desc,
            variants: Vec::new(),
            by_key: HashMap::new(),
            safety_verdicts: HashMap::new(),
            metrics: Registry::new(),
            tracer: Tracer::from_env(),
            pending_first_exec: HashMap::new(),
            quarantined: HashSet::new(),
            faults: None,
        };
        let funcs = rt.virtualized_funcs().len() as u64;
        rt.tracer.emit(
            os.now(),
            Subsystem::Runtime,
            EventKind::Attach {
                pid: u64::from(pid.0),
                funcs,
            },
        );
        // Surface the OSR anchors pcc embedded (ROADMAP item 3): the
        // future OSR runtime consumes them; until then they are the
        // attach-time measure of how migratable the module is.
        let certified = rt.meta.osr.len() as u64;
        rt.metrics
            .set_gauge("gate.osr_certified_points", certified as f64);
        rt.metrics.set_gauge(
            "gate.osr_transfer_recipes",
            rt.meta.osr_recipes.len() as f64,
        );
        rt.tracer.emit(
            os.now(),
            Subsystem::Gate,
            EventKind::OsrPoints { certified },
        );
        Ok(rt)
    }

    /// Arms a fault-injection plan: subsequent compiles and dispatches
    /// roll against its rates. Replaces any existing plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access to the armed fault plan (for content draws).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Disarms and returns the fault plan.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Bans `variant` from ever being dispatched again. Does *not* touch
    /// the EVT — callers that may have it installed should also
    /// [`restore`](Runtime::restore) the function.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn quarantine_variant(&mut self, variant: usize) {
        assert!(variant < self.variants.len(), "no such variant {variant}");
        self.quarantined.insert(variant);
    }

    /// Whether `variant` is quarantined.
    pub fn is_quarantined(&self, variant: usize) -> bool {
        self.quarantined.contains(&variant)
    }

    /// Indices of all quarantined variants, ascending.
    pub fn quarantined_variants(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.quarantined.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Verifies a variant's code-cache bytes against the checksum recorded
    /// at compile time. Vacuously true for never-lowered bodies.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn verify_code(&self, os: &Os, variant: usize) -> bool {
        let rec = &self.variants[variant];
        if rec.len == 0 {
            return true;
        }
        let ops = os.read_text(self.pid, rec.addr, rec.len);
        crate::safety::code_checksum(ops) == rec.checksum
    }

    /// The host process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The runtime's placement/cost configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// The recovered program IR.
    pub fn module(&self) -> &Module {
        &self.meta.module
    }

    /// The full decoded metadata bundle: IR, link annex, and the OSR
    /// anchors `pcc` certified at compile time.
    pub fn meta(&self) -> &EmbeddedMeta {
        &self.meta
    }

    /// The recovered link facts.
    pub fn link(&self) -> &pcc::LinkInfo {
        &self.meta.link
    }

    /// The discovered metadata locations.
    pub fn meta_desc(&self) -> MetaDesc {
        self.desc
    }

    /// Functions whose edges are virtualized (re-dispatchable).
    pub fn virtualized_funcs(&self) -> Vec<FuncId> {
        self.meta
            .link
            .func_evt_slot
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| FuncId(i as u32)))
            .collect()
    }

    /// Total compilation cycles charged so far.
    pub fn compile_cycles(&self) -> u64 {
        self.metrics.counter("compile.cycles")
    }

    /// Number of distinct variant compilations performed.
    pub fn compilations(&self) -> u64 {
        self.metrics.counter("compile.count")
    }

    /// Number of dispatch attempts the safety gate refused.
    pub fn rejected_dispatches(&self) -> u64 {
        self.metrics.counter("gate.rejected_dispatches")
    }

    /// Number of refused dispatches whose variant could not be proved
    /// equivalent (but was not concretely refuted either).
    pub fn unproved_dispatches(&self) -> u64 {
        self.metrics.counter("gate.unproved_dispatches")
    }

    /// Number of refused dispatches whose variant was proved
    /// *in*equivalent with a concrete counterexample.
    pub fn refuted_dispatches(&self) -> u64 {
        self.metrics.counter("gate.refuted_dispatches")
    }

    /// The runtime's metric registry (`compile.*`, `gate.*`, `dispatch.*`
    /// counters and histograms).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable registry access — how cooperating layers (PC3D) record
    /// their own `pc3d.*` metrics into the runtime's namespace.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// The runtime's structured-event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access — how cooperating layers (health, PC3D)
    /// emit onto the shared event stream with a global sequence order.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Renders the buffered event stream (plus the kernel's observation
    /// events recorded by `os`) as Chrome-trace JSON.
    pub fn chrome_trace(&self, os: &Os) -> String {
        self.tracer.chrome_json(&os.obs_trace_events())
    }

    /// Renders the buffered event stream (plus the kernel's observation
    /// events recorded by `os`) as flat JSONL, one event per line.
    pub fn trace_jsonl(&self, os: &Os) -> String {
        self.tracer.jsonl(&os.obs_trace_events())
    }

    /// Exports both trace formats under the directory named by the
    /// `PROTEAN_TRACE` environment variable as `<name>.trace.json` +
    /// `<name>.jsonl`. Returns `Ok(None)` without touching the
    /// filesystem when the variable is unset.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or
    /// writing either file.
    pub fn export_trace(&self, os: &Os, name: &str) -> io::Result<Option<TraceFiles>> {
        let Some(dir) = trace::trace_env_dir() else {
            return Ok(None);
        };
        trace::write_trace_files(&dir, name, &self.chrome_trace(os), &self.trace_jsonl(os))
            .map(Some)
    }

    /// Folds a PC sample into dispatch bookkeeping: the first sample
    /// landing inside a freshly dispatched variant records the
    /// dispatch-to-first-execution lag (`dispatch.first_exec_lag_cycles`)
    /// and emits a `first-exec` event. Samples elsewhere are free.
    pub fn note_pc_sample(&mut self, now: u64, pc: u32) {
        if self.pending_first_exec.is_empty() {
            return;
        }
        let hit = self
            .variants
            .iter()
            .enumerate()
            .find(|(i, v)| {
                self.pending_first_exec.contains_key(i)
                    && v.len > 0
                    && pc >= v.addr
                    && pc < v.addr + v.len
            })
            .map(|(i, _)| i);
        if let Some(idx) = hit {
            let dispatched = self.pending_first_exec.remove(&idx).unwrap_or(now);
            let lag = now.saturating_sub(dispatched);
            self.metrics.record("dispatch.first_exec_lag_cycles", lag);
            self.tracer.emit(
                now,
                Subsystem::Runtime,
                EventKind::FirstExec {
                    variant: idx as u64,
                    lag_cycles: lag,
                },
            );
        }
    }

    /// All compiled variants.
    pub fn variants(&self) -> &[VariantRecord] {
        &self.variants
    }

    /// Compiles a variant of `func` with hints `nt` into the process's
    /// code cache, charging compilation cycles to the runtime's core.
    /// Identical requests hit the variant cache and cost nothing.
    ///
    /// Returns the index of the variant record.
    ///
    /// # Errors
    ///
    /// [`DispatchError::NotVirtualized`] if the function cannot later be
    /// dispatched (no EVT slot) — compiling it would be useless.
    pub fn compile_variant(
        &mut self,
        os: &mut Os,
        func: FuncId,
        nt: &NtAssignment,
    ) -> Result<usize, DispatchError> {
        if self.meta.link.func_evt_slot[func.index()].is_none() {
            return Err(DispatchError::NotVirtualized(func));
        }
        let key = (func, nt.iter().collect::<Vec<_>>());
        if let Some(&idx) = self.by_key.get(&key) {
            return Ok(idx);
        }
        let idx = self.compile_fresh(os, func, nt)?;
        self.by_key.insert(key, idx);
        Ok(idx)
    }

    /// Compiles a fresh variant unconditionally, bypassing the variant
    /// cache (used by the recompilation stress tests, which measure
    /// compiler activity). Returns the new variant index.
    ///
    /// # Errors
    ///
    /// [`DispatchError::NotVirtualized`] if the function has no EVT slot.
    pub fn compile_fresh(
        &mut self,
        os: &mut Os,
        func: FuncId,
        nt: &NtAssignment,
    ) -> Result<usize, DispatchError> {
        if self.meta.link.func_evt_slot[func.index()].is_none() {
            return Err(DispatchError::NotVirtualized(func));
        }
        let ir = nt.apply_to(self.meta.module.function(func), func);
        self.lower_and_record(os, func, nt.clone(), ir)
    }

    /// Installs a caller-provided variant body for `func` — the path an
    /// external (potentially buggy or compromised) variant producer would
    /// take, and the trust boundary [`dispatch`](Runtime::dispatch)
    /// defends. The body is vetted immediately: safe bodies are lowered
    /// into the code cache like any compiled variant, while unsafe bodies
    /// are recorded with an empty code range so a later dispatch can be
    /// refused with the cached verdict (lowering corrupt IR is not
    /// meaningful).
    ///
    /// Returns the new variant index.
    ///
    /// # Errors
    ///
    /// [`DispatchError::NotVirtualized`] if the function has no EVT slot.
    pub fn install_variant_ir(
        &mut self,
        os: &mut Os,
        func: FuncId,
        ir: Function,
    ) -> Result<usize, DispatchError> {
        if self.meta.link.func_evt_slot[func.index()].is_none() {
            return Err(DispatchError::NotVirtualized(func));
        }
        self.metrics.inc("gate.verdict_cache_misses");
        let verdict = self.vet(os.now(), func, self.variants.len() as u64, &ir);
        let idx = if verdict.is_safe() {
            self.lower_and_record(os, func, NtAssignment::none(), ir)?
        } else {
            self.variants.push(VariantRecord {
                func,
                nt: NtAssignment::none(),
                ir,
                addr: 0,
                len: 0,
                checksum: 0,
            });
            self.variants.len() - 1
        };
        self.tracer.emit(
            os.now(),
            Subsystem::Gate,
            EventKind::GateVerdict {
                func: u64::from(func.0),
                variant: idx as u64,
                verdict: verdict_name(&verdict),
                cached: false,
            },
        );
        self.safety_verdicts.insert(idx, verdict);
        Ok(idx)
    }

    /// Lowers `ir` into the code cache, charges the cost, and records the
    /// variant. The caller has already confirmed the EVT slot exists.
    ///
    /// This is where compilation faults inject: an armed [`FaultPlan`]
    /// may stall the compile (the cycles are charged at a multiple — the
    /// watchdog's signal) or fail it outright (cycles burned, no code
    /// cached).
    ///
    /// # Errors
    ///
    /// [`DispatchError::CompileFailed`] on an injected compile failure.
    fn lower_and_record(
        &mut self,
        os: &mut Os,
        func: FuncId,
        nt: NtAssignment,
        ir: Function,
    ) -> Result<usize, DispatchError> {
        self.tracer.emit(
            os.now(),
            Subsystem::Runtime,
            EventKind::CompileStart {
                func: u64::from(func.0),
            },
        );
        let base = os.text_len(self.pid);
        let ctx = LowerCtx {
            module: &self.meta.module,
            link: &self.meta.link,
            virtualize: true,
        };
        let ops = lower_function(&ir, &ctx, base);
        let mut cost = self.config.cost.cost(ops.len());
        let mut failed = false;
        if let Some(plan) = &mut self.faults {
            if plan.draw(FaultKind::CompileStall) {
                cost = cost.saturating_mul(plan.stall_factor());
            }
            failed = plan.draw(FaultKind::CompileFail);
        }
        os.charge_runtime(self.config.core, cost);
        self.metrics.add("compile.cycles", cost);
        if failed {
            self.metrics.inc("compile.failed_count");
            self.tracer.emit(
                os.now(),
                Subsystem::Runtime,
                EventKind::CompileFail {
                    func: u64::from(func.0),
                    cycles: cost,
                },
            );
            return Err(DispatchError::CompileFailed { func });
        }
        self.metrics.inc("compile.count");
        self.metrics.record("compile.latency_cycles", cost);
        let addr = os.append_text(self.pid, &ops);
        debug_assert_eq!(addr, base);
        self.variants.push(VariantRecord {
            func,
            nt,
            ir,
            addr,
            len: ops.len() as u32,
            checksum: crate::safety::code_checksum(&ops),
        });
        let idx = self.variants.len() - 1;
        self.tracer.emit(
            os.now(),
            Subsystem::Runtime,
            EventKind::CompileFinish {
                func: u64::from(func.0),
                variant: idx as u64,
                cycles: cost,
                ops: self.variants[idx].len as u64,
            },
        );
        Ok(idx)
    }

    /// Runs the static safety gate on a candidate body for `func`,
    /// accounting for the abstract-interpretation work it triggers: the
    /// interval-based disjointness facts discharged are measured as a
    /// delta around the vet and surfaced as `gate.absint_disjoint_facts`
    /// plus one [`EventKind::AbsintConsult`] event. The absint/effects
    /// fixpoint-cache traffic is left out: the caches are process-wide,
    /// so it depends on what the process vetted before.
    ///
    /// A body the gate admits is additionally vetted for *mid-loop*
    /// switchability: every certified OSR header of the function is run
    /// through the cut-point transfer prover
    /// ([`safety::vet_osr_transfers`](crate::safety::vet_osr_transfers)),
    /// and the split is surfaced as `gate.osr_transfer_*` counters plus
    /// one [`EventKind::OsrTransfer`] event.
    fn vet(&mut self, now: u64, func: FuncId, variant: u64, ir: &Function) -> VariantVerdict {
        let facts0 = pir::interval_disjoint_facts();
        let verdict = crate::safety::vet_variant(&self.meta.module, func, ir);
        if verdict.is_safe() && self.meta.osr.iter().any(|c| c.func == func) {
            let summary = crate::safety::vet_osr_transfers(
                &self.meta.module,
                func,
                ir,
                &self.meta.osr,
                &self.meta.osr_recipes,
            );
            self.metrics
                .add("gate.osr_transfer_proved", summary.proved() as u64);
            self.metrics
                .add("gate.osr_transfer_refuted", summary.refuted as u64);
            self.metrics
                .add("gate.osr_transfer_unproved", summary.unproved as u64);
            self.tracer.emit(
                now,
                Subsystem::Gate,
                EventKind::OsrTransfer {
                    func: u64::from(func.0),
                    variant,
                    proved: summary.proved() as u64,
                    refuted: summary.refuted as u64,
                    unproved: summary.unproved as u64,
                },
            );
        }
        let facts = pir::interval_disjoint_facts() - facts0;
        self.metrics.add("gate.absint_disjoint_facts", facts);
        self.tracer.emit(
            now,
            Subsystem::Gate,
            EventKind::AbsintConsult {
                func: u64::from(func.0),
                variant,
                disjoint_facts: facts,
            },
        );
        verdict
    }

    /// The cached safety verdict for a variant, computing it on first use.
    fn verdict(&mut self, now: u64, variant: usize) -> VariantVerdict {
        let func = self.variants[variant].func;
        if let Some(v) = self.safety_verdicts.get(&variant) {
            self.metrics.inc("gate.verdict_cache_hits");
            let v = v.clone();
            self.tracer.emit(
                now,
                Subsystem::Gate,
                EventKind::GateVerdict {
                    func: u64::from(func.0),
                    variant: variant as u64,
                    verdict: verdict_name(&v),
                    cached: true,
                },
            );
            return v;
        }
        self.metrics.inc("gate.verdict_cache_misses");
        let ir = self.variants[variant].ir.clone();
        let verdict = self.vet(now, func, variant as u64, &ir);
        self.tracer.emit(
            now,
            Subsystem::Gate,
            EventKind::GateVerdict {
                func: u64::from(func.0),
                variant: variant as u64,
                verdict: verdict_name(&verdict),
                cached: false,
            },
        );
        self.safety_verdicts.insert(variant, verdict.clone());
        verdict
    }

    /// Dispatches a previously compiled variant: one atomic 8-byte EVT
    /// write redirecting every virtualized edge into the function.
    ///
    /// The first dispatch of each variant runs the static safety gate
    /// ([`safety::vet_variant`](crate::safety::vet_variant)) against the
    /// module recovered from the process image — the variant must be
    /// equivalence-proved modulo non-temporal hints; the verdict is
    /// memoized, so re-dispatching stays a single EVT write (the paper's
    /// near-free property).
    ///
    /// Guard order: quarantine → safety verdict → code-cache checksum →
    /// (injected) EVT-write fault → the write itself. On *any* refusal
    /// the EVT is left untouched, so the previously installed target —
    /// ultimately the original code — keeps running: the paper's detach
    /// guarantee, enforced per dispatch.
    ///
    /// # Errors
    ///
    /// [`DispatchError::Quarantined`] if the health layer banned the
    /// variant; [`DispatchError::UnsafeVariant`] if the variant could not
    /// be proved equivalent (counted in
    /// [`rejected_dispatches`](Runtime::rejected_dispatches) plus either
    /// [`unproved_dispatches`](Runtime::unproved_dispatches) or
    /// [`refuted_dispatches`](Runtime::refuted_dispatches));
    /// [`DispatchError::CorruptCodeCache`] if the cached instructions fail
    /// checksum verification; [`DispatchError::EvtWriteFailed`] if an
    /// armed fault plan drops the EVT write.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn dispatch(&mut self, os: &mut Os, variant: usize) -> Result<(), DispatchError> {
        let now = os.now();
        let func = self.variants[variant].func;
        if self.quarantined.contains(&variant) {
            self.emit_refused(now, func, variant, "quarantined");
            return Err(DispatchError::Quarantined { func, variant });
        }
        match self.verdict(now, variant) {
            VariantVerdict::Safe { .. } => {}
            VariantVerdict::Unproved { detail } => {
                self.metrics.inc("gate.rejected_dispatches");
                self.metrics.inc("gate.unproved_dispatches");
                self.emit_refused(now, func, variant, "unproved");
                return Err(DispatchError::UnsafeVariant { func, detail });
            }
            VariantVerdict::Refuted { detail } => {
                self.metrics.inc("gate.rejected_dispatches");
                self.metrics.inc("gate.refuted_dispatches");
                self.emit_refused(now, func, variant, "refuted");
                return Err(DispatchError::UnsafeVariant { func, detail });
            }
        }
        if !self.verify_code(os, variant) {
            self.emit_refused(now, func, variant, "corrupt-code-cache");
            return Err(DispatchError::CorruptCodeCache { func, variant });
        }
        let addr = self.variants[variant].addr;
        if let Some(plan) = &mut self.faults {
            if plan.draw(FaultKind::EvtWriteFail) {
                self.tracer.emit(
                    now,
                    Subsystem::Runtime,
                    EventKind::EvtWriteDropped {
                        func: u64::from(func.0),
                        variant: variant as u64,
                    },
                );
                return Err(DispatchError::EvtWriteFailed { func });
            }
        }
        let cell = self
            .meta
            .link
            .evt_cell(func)
            .expect("compiled variants always have EVT slots");
        os.write_u64(self.pid, cell, u64::from(addr));
        self.metrics.inc("dispatch.count");
        self.pending_first_exec.entry(variant).or_insert(now);
        self.tracer.emit(
            now,
            Subsystem::Runtime,
            EventKind::EvtWrite {
                func: u64::from(func.0),
                variant: variant as u64,
                addr: u64::from(addr),
            },
        );
        Ok(())
    }

    /// Emits a `dispatch-refused` event on the gate track.
    fn emit_refused(&mut self, now: u64, func: FuncId, variant: usize, reason: &'static str) {
        self.tracer.emit(
            now,
            Subsystem::Gate,
            EventKind::DispatchRefused {
                func: u64::from(func.0),
                variant: variant as u64,
                reason,
            },
        );
    }

    /// Compiles (or reuses) and dispatches in one step. Returns the
    /// variant index.
    ///
    /// # Errors
    ///
    /// [`DispatchError::NotVirtualized`] if the function has no EVT slot;
    /// [`DispatchError::UnsafeVariant`] if the safety gate refuses the
    /// variant.
    pub fn transform(
        &mut self,
        os: &mut Os,
        func: FuncId,
        nt: &NtAssignment,
    ) -> Result<usize, DispatchError> {
        let idx = self.compile_variant(os, func, nt)?;
        self.dispatch(os, idx)?;
        Ok(idx)
    }

    /// Restores the original code of `func` (EVT back to the static
    /// binary's body).
    ///
    /// # Errors
    ///
    /// [`DispatchError::NotVirtualized`] if the function has no EVT slot.
    pub fn restore(&mut self, os: &mut Os, func: FuncId) -> Result<(), DispatchError> {
        let cell = self
            .meta
            .link
            .evt_cell(func)
            .ok_or(DispatchError::NotVirtualized(func))?;
        let original = self.meta.link.func_addrs[func.index()];
        os.write_u64(self.pid, cell, u64::from(original));
        self.tracer.emit(
            os.now(),
            Subsystem::Runtime,
            EventKind::Restore {
                func: u64::from(func.0),
            },
        );
        Ok(())
    }

    /// Restores every virtualized function to its original code.
    pub fn restore_all(&mut self, os: &mut Os) {
        self.tracer
            .emit(os.now(), Subsystem::Runtime, EventKind::RestoreAll);
        for func in self.virtualized_funcs() {
            let _ = self.restore(os, func);
        }
    }

    /// The text address currently installed for `func`'s edges.
    pub fn current_target(&self, os: &Os, func: FuncId) -> Option<u32> {
        let cell = self.meta.link.evt_cell(func)?;
        Some(os.read_u64(self.pid, cell) as u32)
    }

    /// Maps a PC sample to the function it belongs to, covering both the
    /// original image (via its symbols) and the runtime's own code-cache
    /// variants.
    pub fn resolve_pc(&self, os: &Os, pc: u32) -> Option<FuncId> {
        if let Some(sym) = os.proc(self.pid).symbolize(pc) {
            return Some(sym.func);
        }
        self.variants
            .iter()
            .find(|v| pc >= v.addr && pc < v.addr + v.len)
            .map(|v| v.func)
    }
}

/// Stable lowercase verdict name used in `gate-verdict` trace events.
fn verdict_name(v: &VariantVerdict) -> &'static str {
    match v {
        VariantVerdict::Safe { .. } => "safe",
        VariantVerdict::Unproved { .. } => "unproved",
        VariantVerdict::Refuted { .. } => "refuted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc::{Compiler, Options};
    use pir::{FunctionBuilder, Locality};
    use simos::OsConfig;

    /// A module whose entry loops forever calling a multi-block worker
    /// that streams over a buffer.
    fn host_module(lines: i64) -> Module {
        let mut m = Module::new("host");
        let buf = m.add_global("buf", (lines * 64) as u64 + 64);
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(buf);
        w.counted_loop(0, lines, 1, |b, i| {
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

    fn setup(lines: i64) -> (Os, Pid, Runtime) {
        let m = host_module(lines);
        let out = Compiler::new(Options::protean()).compile(&m).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        (os, pid, rt)
    }

    #[test]
    fn attach_recovers_module_through_process_memory() {
        let (_, _, rt) = setup(8);
        assert_eq!(rt.module().name(), "host");
        assert_eq!(rt.module().functions().len(), 2);
        assert_eq!(
            rt.virtualized_funcs().len(),
            1,
            "worker is multi-block and called"
        );
    }

    #[test]
    fn attach_rejects_plain_binaries() {
        let m = host_module(4);
        let out = Compiler::new(Options::plain()).compile(&m).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let err = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap_err();
        assert_eq!(err, AttachError::NotProtean);
    }

    #[test]
    fn transform_redirects_execution_into_code_cache() {
        let (mut os, pid, mut rt) = setup(8);
        os.advance(50_000);
        let worker = rt.module().function_by_name("worker").unwrap();
        let image_len = os.proc(pid).image_text_len();
        // All-NT variant.
        let sites: Vec<_> = pir::load_sites(rt.module())
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == worker)
            .collect();
        let nt = NtAssignment::all(sites);
        rt.transform(&mut os, worker, &nt).unwrap();
        assert!(rt.current_target(&os, worker).unwrap() >= image_len);
        // The program must keep running and eventually execute from the
        // code cache.
        let before = os.counters(pid).instructions;
        os.advance(200_000);
        assert!(os.counters(pid).instructions > before);
        // PC samples eventually land in the code cache and resolve to the
        // worker function.
        let mut saw_cache = false;
        for _ in 0..200 {
            os.advance(1_000);
            let pc = os.sample_pc(pid);
            if pc >= image_len {
                assert_eq!(rt.resolve_pc(&os, pc), Some(worker));
                saw_cache = true;
                break;
            }
        }
        assert!(saw_cache, "execution never reached the code-cache variant");
        // NT prefetches are now being issued.
        let nt_before = os.counters(pid).nt_prefetches;
        os.advance(100_000);
        assert!(os.counters(pid).nt_prefetches > nt_before);
    }

    #[test]
    fn restore_reverts_to_original_code() {
        let (mut os, pid, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let nt = NtAssignment::all(pir::load_sites(rt.module()).iter().map(|s| s.site));
        rt.transform(&mut os, worker, &nt).unwrap();
        rt.restore(&mut os, worker).unwrap();
        let original = rt.link().func_addrs[worker.index()];
        assert_eq!(rt.current_target(&os, worker), Some(original));
        os.advance(100_000);
        // Original code has no prefetches.
        let a = os.counters(pid).nt_prefetches;
        os.advance(100_000);
        assert_eq!(os.counters(pid).nt_prefetches, a);
    }

    #[test]
    fn variant_cache_deduplicates() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let nt = NtAssignment::none();
        let v1 = rt.compile_variant(&mut os, worker, &nt).unwrap();
        let v2 = rt.compile_variant(&mut os, worker, &nt).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(rt.compilations(), 1);
        let mut nt2 = NtAssignment::none();
        nt2.extend(pir::load_sites(rt.module()).iter().map(|s| s.site).take(1));
        let v3 = rt.compile_variant(&mut os, worker, &nt2).unwrap();
        assert_ne!(v1, v3);
        assert_eq!(rt.compilations(), 2);
    }

    #[test]
    fn compile_charges_runtime_core() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        rt.compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap();
        assert!(rt.compile_cycles() > 0);
        os.advance(1_000_000);
        assert_eq!(os.runtime_consumed(1), rt.compile_cycles());
    }

    #[test]
    fn unvirtualized_function_rejected() {
        let (mut os, _, mut rt) = setup(8);
        let main = rt.module().function_by_name("main").unwrap();
        let err = rt
            .transform(&mut os, main, &NtAssignment::none())
            .unwrap_err();
        assert!(matches!(err, DispatchError::NotVirtualized(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn corrupted_variant_is_refused_at_dispatch() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        // A "variant" whose arithmetic was tampered with.
        let mut bad = rt.module().function(worker).clone();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let pir::Inst::BinImm { imm, .. } = inst {
                    *imm += 8;
                }
            }
        }
        let idx = rt.install_variant_ir(&mut os, worker, bad).unwrap();
        let err = rt.dispatch(&mut os, idx).unwrap_err();
        assert!(matches!(err, DispatchError::UnsafeVariant { func, .. } if func == worker));
        assert_eq!(rt.rejected_dispatches(), 1);
        // Repeated attempts keep failing (memoized verdict) and counting.
        assert!(rt.dispatch(&mut os, idx).is_err());
        assert_eq!(rt.rejected_dispatches(), 2);
    }

    #[test]
    fn rejected_dispatch_leaves_the_evt_untouched() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let before = rt.current_target(&os, worker);
        let mut bad = rt.module().function(worker).clone();
        // Inject a store the baseline never performs: not provable.
        bad.blocks_mut()[0].insts.push(pir::Inst::Store {
            base: pir::Reg(0),
            offset: 0,
            src: pir::Reg(0),
        });
        let idx = rt.install_variant_ir(&mut os, worker, bad).unwrap();
        assert!(rt.dispatch(&mut os, idx).is_err());
        assert_eq!(rt.current_target(&os, worker), before);
    }

    #[test]
    fn equivalent_but_syntactically_different_variant_is_proved_and_dispatched() {
        let (mut os, pid, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        // Nop padding fails the old locality-only comparison but is
        // behaviorally identical; the equivalence tier admits it.
        let mut padded = rt.module().function(worker).clone();
        padded.blocks_mut()[0].insts.push(pir::Inst::Nop);
        let idx = rt.install_variant_ir(&mut os, worker, padded).unwrap();
        rt.dispatch(&mut os, idx)
            .expect("proved-equivalent variant");
        assert_eq!(rt.rejected_dispatches(), 0);
        let image_len = os.proc(pid).image_text_len();
        assert!(rt.current_target(&os, worker).unwrap() >= image_len);
    }

    /// A *terminating* host whose worker stores an observable result, so
    /// the gate's equivalence checker can concretely confirm divergence.
    fn observable_host() -> Module {
        let mut m = Module::new("obs");
        let out = m.add_global("out", 64);
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(out);
        let acc = w.const_(3);
        w.counted_loop(0, 4, 1, |b, i| {
            b.add_into(acc, acc, i);
        });
        let t = w.mul_imm(acc, 2);
        w.store(base, 0, t);
        w.ret(None);
        let wid = m.add_function(w.finish());
        let mut main = FunctionBuilder::new("main", 0);
        main.call_void(wid, &[]);
        main.ret(None);
        let mid = m.add_function(main.finish());
        m.set_entry(mid);
        m
    }

    #[test]
    fn refuted_variant_counts_separately_from_unproved() {
        let out = Compiler::new(Options::protean())
            .compile(&observable_host())
            .unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut bad = rt.module().function(worker).clone();
        let mut hit = false;
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let pir::Inst::BinImm {
                    op: pir::BinOp::Mul,
                    imm,
                    ..
                } = inst
                {
                    *imm = 3; // store 27 instead of 18
                    hit = true;
                }
            }
        }
        assert!(hit, "worker keeps its multiply");
        let idx = rt.install_variant_ir(&mut os, worker, bad).unwrap();
        let err = rt.dispatch(&mut os, idx).unwrap_err();
        let DispatchError::UnsafeVariant { detail, .. } = err else {
            panic!("expected UnsafeVariant");
        };
        assert!(detail.contains("equivalence refuted"), "{detail}");
        assert_eq!(rt.refuted_dispatches(), 1);
        assert_eq!(rt.unproved_dispatches(), 0);
        assert_eq!(rt.rejected_dispatches(), 1);
    }

    #[test]
    fn gate_counters_expose_verdict_cache_and_refusal_split() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let mut bad = rt.module().function(worker).clone();
        bad.blocks_mut()[0].insts.push(pir::Inst::Store {
            base: pir::Reg(0),
            offset: 0,
            src: pir::Reg(0),
        });
        // Install vets once (miss); both dispatches reuse the verdict.
        let idx = rt.install_variant_ir(&mut os, worker, bad).unwrap();
        assert!(rt.dispatch(&mut os, idx).is_err());
        assert!(rt.dispatch(&mut os, idx).is_err());
        // A runtime-compiled variant is vetted on first dispatch only.
        let good = rt
            .compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap();
        rt.dispatch(&mut os, good).unwrap();
        rt.dispatch(&mut os, good).unwrap();
        let gate = |name: &str| rt.metrics().counter(name);
        assert_eq!(gate("gate.rejected_dispatches"), 2);
        assert_eq!(gate("gate.unproved_dispatches"), 2);
        assert_eq!(gate("gate.refuted_dispatches"), 0);
        assert_eq!(gate("gate.verdict_cache_misses"), 2);
        assert_eq!(gate("gate.verdict_cache_hits"), 3);
    }

    #[test]
    fn vet_surfaces_absint_consultation_and_osr_points() {
        let (mut os, _, mut rt) = setup(8);
        // Attach published the embedded OSR anchor count as a gauge and
        // an osr-points event.
        let certified = rt.meta().osr.len() as f64;
        assert_eq!(
            rt.metrics().gauge("gate.osr_certified_points"),
            Some(certified)
        );
        // The tracer is off by default outside PROTEAN_TRACE_DIR runs;
        // record the vet path explicitly.
        rt.tracer_mut().set_enabled(true);
        // Vetting a variant consults the abstract interpreter: it looks
        // up the function's abstract states in the absint cache and an
        // absint-consult event carries the per-vet fact delta.
        let worker = rt.module().function_by_name("worker").unwrap();
        // A nop-padded body fails the syntactic tier, forcing the
        // symbolic equivalence proof (which consults absint/effects).
        let mut padded = rt.module().function(worker).clone();
        padded.blocks_mut()[0].insts.insert(0, pir::Inst::Nop);
        // The vet runs at install; dispatch reuses its verdict.
        let ab0 = pir::absint::cache_stats();
        let good = rt.install_variant_ir(&mut os, worker, padded).unwrap();
        rt.dispatch(&mut os, good).unwrap();
        let ab1 = pir::absint::cache_stats();
        let consults = ab1.hits + ab1.misses - ab0.hits - ab0.misses;
        assert!(consults > 0, "vet should touch the absint cache");
        let jsonl = rt.trace_jsonl(&os);
        assert!(jsonl.contains("absint-consult"), "{jsonl}");
    }

    #[test]
    fn vet_surfaces_osr_transfer_provability() {
        let (mut os, _, mut rt) = setup(8);
        assert!(
            !rt.meta().osr.is_empty(),
            "the worker loop should carry an OSR certificate"
        );
        assert!(
            !rt.meta().osr_recipes.is_empty(),
            "pcc should embed self-transfer recipes"
        );
        assert_eq!(
            rt.metrics().gauge("gate.osr_transfer_recipes"),
            Some(rt.meta().osr_recipes.len() as f64)
        );
        rt.tracer_mut().set_enabled(true);
        let worker = rt.module().function_by_name("worker").unwrap();
        // A locality variant: shape-identical, so the embedded recipes
        // are inherited and every certified header counts as proved.
        let sites: Vec<_> = pir::load_sites(rt.module())
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == worker)
            .collect();
        let ir = NtAssignment::all(sites).apply_to(rt.module().function(worker), worker);
        let idx = rt.install_variant_ir(&mut os, worker, ir).unwrap();
        rt.dispatch(&mut os, idx).unwrap();
        let proved = rt.metrics().counter("gate.osr_transfer_proved");
        assert!(proved > 0, "transfer into the locality variant proves");
        assert_eq!(rt.metrics().counter("gate.osr_transfer_refuted"), 0);
        let jsonl = rt.trace_jsonl(&os);
        assert!(jsonl.contains("osr-transfer"), "{jsonl}");
    }

    #[test]
    fn installed_locality_variant_passes_the_gate() {
        let (mut os, pid, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let sites: Vec<_> = pir::load_sites(rt.module())
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == worker)
            .collect();
        let ir = NtAssignment::all(sites).apply_to(rt.module().function(worker), worker);
        let idx = rt.install_variant_ir(&mut os, worker, ir).unwrap();
        rt.dispatch(&mut os, idx).unwrap();
        assert_eq!(rt.rejected_dispatches(), 0);
        let image_len = os.proc(pid).image_text_len();
        assert!(rt.current_target(&os, worker).unwrap() >= image_len);
    }

    #[test]
    fn quarantined_variant_is_never_dispatched() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let idx = rt
            .transform(&mut os, worker, &NtAssignment::none())
            .unwrap();
        rt.quarantine_variant(idx);
        rt.restore(&mut os, worker).unwrap();
        let original = rt.link().func_addrs[worker.index()];
        let err = rt.dispatch(&mut os, idx).unwrap_err();
        assert!(matches!(err, DispatchError::Quarantined { variant, .. } if variant == idx));
        assert_eq!(rt.current_target(&os, worker), Some(original));
        assert!(rt.is_quarantined(idx));
        assert_eq!(rt.quarantined_variants(), vec![idx]);
    }

    #[test]
    fn corrupted_code_cache_is_refused_by_checksum() {
        let (mut os, pid, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let idx = rt
            .transform(&mut os, worker, &NtAssignment::none())
            .unwrap();
        rt.restore(&mut os, worker).unwrap();
        let before = rt.current_target(&os, worker);
        assert!(rt.verify_code(&os, idx));
        let addr = rt.variants()[idx].addr;
        assert!(os.corrupt_text(pid, addr, 0xbad_c0de));
        assert!(!rt.verify_code(&os, idx));
        let err = rt.dispatch(&mut os, idx).unwrap_err();
        assert!(matches!(err, DispatchError::CorruptCodeCache { variant, .. } if variant == idx));
        assert_eq!(rt.current_target(&os, worker), before);
    }

    #[test]
    fn injected_compile_failure_burns_cycles_but_caches_nothing() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        rt.set_fault_plan(
            crate::FaultPlan::seeded(11).with_rate(crate::FaultKind::CompileFail, 1.0),
        );
        let err = rt
            .compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap_err();
        assert!(matches!(err, DispatchError::CompileFailed { func } if func == worker));
        assert!(rt.compile_cycles() > 0, "a failed compile still costs");
        assert_eq!(rt.compilations(), 0);
        assert!(rt.variants().is_empty());
        // Disarming the plan lets the same request through (no stale
        // cache entry from the failed attempt).
        rt.clear_fault_plan();
        rt.compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap();
        assert_eq!(rt.compilations(), 1);
    }

    #[test]
    fn injected_evt_write_failure_leaves_old_target() {
        let (mut os, _, mut rt) = setup(8);
        let worker = rt.module().function_by_name("worker").unwrap();
        let idx = rt
            .compile_variant(&mut os, worker, &NtAssignment::none())
            .unwrap();
        let before = rt.current_target(&os, worker);
        rt.set_fault_plan(
            crate::FaultPlan::seeded(2).with_rate(crate::FaultKind::EvtWriteFail, 1.0),
        );
        let err = rt.dispatch(&mut os, idx).unwrap_err();
        assert!(matches!(err, DispatchError::EvtWriteFailed { func } if func == worker));
        assert_eq!(rt.current_target(&os, worker), before);
        assert_eq!(
            rt.fault_plan()
                .unwrap()
                .count(crate::FaultKind::EvtWriteFail),
            1
        );
        rt.clear_fault_plan();
        rt.dispatch(&mut os, idx).unwrap();
    }

    #[test]
    fn injected_compile_stall_multiplies_cost() {
        let (mut os_a, _, mut clean) = setup(8);
        let (mut os_b, _, mut stalled) = setup(8);
        let worker = clean.module().function_by_name("worker").unwrap();
        clean
            .compile_variant(&mut os_a, worker, &NtAssignment::none())
            .unwrap();
        stalled.set_fault_plan(
            crate::FaultPlan::seeded(5)
                .with_rate(crate::FaultKind::CompileStall, 1.0)
                .with_stall_factor(8),
        );
        stalled
            .compile_variant(&mut os_b, worker, &NtAssignment::none())
            .unwrap();
        assert_eq!(stalled.compile_cycles(), clean.compile_cycles() * 8);
    }

    #[test]
    fn corrupt_metadata_rejected() {
        let m = host_module(4);
        let out = Compiler::new(Options::protean()).compile(&m).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        // Corrupt the IR blob in process memory before attach.
        let desc = out.image.meta.unwrap();
        os.write_mem(pid, desc.ir_addr + desc.ir_len / 2, &[0xff; 8]);
        let err = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap_err();
        assert!(matches!(err, AttachError::Meta(_)));
    }
}
