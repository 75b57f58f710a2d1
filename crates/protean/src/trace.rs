//! Structured, cycle-stamped event tracing for the protean runtime.
//!
//! Every runtime decision point — attach/restore, compile start/finish/
//! fail, safety-gate verdicts, EVT writes (including dropped ones),
//! quarantine and degradation-ladder transitions, nap duty-cycle changes,
//! variant-search steps, phase changes — emits a [`TraceEvent`] into a
//! fixed-capacity per-subsystem [ring buffer](Tracer) with drop counters.
//!
//! Events are stamped with the **simulated** cycle (never a wall clock),
//! so a same-seed run produces a bit-identical event stream: traces are
//! deterministic and replayable, and CI can `diff` two exports to catch
//! nondeterminism (see `tests/trace_replay.rs`).
//!
//! Two export formats share one field encoding:
//!
//! * **Chrome trace JSON** ([`Tracer::chrome_json`]) — loadable in
//!   `chrome://tracing` / Perfetto; compiles render as duration (`ph:"X"`)
//!   slices, everything else as thread-scoped instants.
//! * **Flat JSONL** ([`Tracer::jsonl`]) — one event per line, trivially
//!   `diff`-able and greppable.
//!
//! Kernel-side observation events ([`simos::ObsEvent`]: PC-sample and HPM
//! deliveries, recorded by [`simos::Os`] when
//! [`set_obs_trace`](simos::Os::set_obs_trace) arms it) merge into both
//! exports on the `kernel` track, ordered after runtime events within the
//! same cycle.
//!
//! Enablement is explicit ([`Tracer::set_enabled`]) or driven by the
//! `PROTEAN_TRACE` environment variable (its value is the export
//! directory, see [`trace_env_dir`]); with tracing disabled, [`Tracer::emit`]
//! is a single branch on a bool.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use simos::ObsEvent;

/// Default per-subsystem ring capacity, in events.
pub const DEFAULT_RING_CAP: usize = 4096;

/// The subsystem (Chrome-trace "thread") an event belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// Core runtime: attach/restore, compilation, EVT writes.
    Runtime,
    /// Safety gate: verdicts and refused dispatches.
    Gate,
    /// Self-healing layer: quarantine, retries, ladder transitions.
    Health,
    /// PC3D controller: naps, variant search, phase changes.
    Controller,
    /// Kernel-side observation delivery (PC samples, HPM reads).
    Kernel,
}

impl Subsystem {
    /// Every subsystem, in ring/track order.
    pub const ALL: [Subsystem; 5] = [
        Subsystem::Runtime,
        Subsystem::Gate,
        Subsystem::Health,
        Subsystem::Controller,
        Subsystem::Kernel,
    ];

    /// Stable lowercase name, used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Runtime => "runtime",
            Subsystem::Gate => "gate",
            Subsystem::Health => "health",
            Subsystem::Controller => "pc3d",
            Subsystem::Kernel => "kernel",
        }
    }

    /// Ring index / Chrome-trace tid.
    pub fn index(self) -> usize {
        match self {
            Subsystem::Runtime => 0,
            Subsystem::Gate => 1,
            Subsystem::Health => 2,
            Subsystem::Controller => 3,
            Subsystem::Kernel => 4,
        }
    }
}

/// One typed field value of an event.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Field {
    /// Unsigned integer payload (function/variant indices, cycles, ...).
    U64(u64),
    /// Static string payload (verdicts, refusal reasons, ladder states).
    Str(&'static str),
    /// Boolean payload (cache hit, search-step accepted, ...).
    Bool(bool),
}

/// What happened. Each variant is one runtime decision point; fields are
/// plain integers/static strings so events are `Copy` and emission never
/// allocates.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Runtime attached to a process.
    Attach {
        /// Target process id.
        pid: u64,
        /// Number of virtualized (EVT-reachable) functions found.
        funcs: u64,
    },
    /// One function's EVT slot restored to its original target.
    Restore {
        /// Function index.
        func: u64,
    },
    /// All EVT slots restored (detach guarantee).
    RestoreAll,
    /// Variant compilation started.
    CompileStart {
        /// Function index.
        func: u64,
    },
    /// Variant compilation finished and the code was mapped.
    CompileFinish {
        /// Function index.
        func: u64,
        /// Variant index in the code cache.
        variant: u64,
        /// Compile cost charged to the runtime core, in cycles.
        cycles: u64,
        /// Size of the lowered variant, in ops.
        ops: u64,
    },
    /// Variant compilation failed (lowering error or injected fault).
    CompileFail {
        /// Function index.
        func: u64,
        /// Cycles charged before the failure.
        cycles: u64,
    },
    /// The safety gate produced (or replayed) a verdict for a variant.
    GateVerdict {
        /// Function index.
        func: u64,
        /// Variant index.
        variant: u64,
        /// Verdict name: `safe`, `unproved`, or `refuted`.
        verdict: &'static str,
        /// Whether the verdict came from the memo cache.
        cached: bool,
    },
    /// A dispatch was refused before reaching the EVT.
    DispatchRefused {
        /// Function index.
        func: u64,
        /// Variant index.
        variant: u64,
        /// Refusal reason: `quarantined`, `unproved`, `refuted`,
        /// or `corrupt-code-cache`.
        reason: &'static str,
    },
    /// The single 8-byte EVT write redirecting a function.
    EvtWrite {
        /// Function index.
        func: u64,
        /// Variant index now live.
        variant: u64,
        /// Code-cache address written into the slot.
        addr: u64,
    },
    /// An EVT write was dropped by an injected fault.
    EvtWriteDropped {
        /// Function index.
        func: u64,
        /// Variant index that failed to go live.
        variant: u64,
    },
    /// A variant crossed the fault threshold and is quarantined forever.
    Quarantine {
        /// Function index.
        func: u64,
        /// Variant index.
        variant: u64,
    },
    /// Degradation-ladder transition (`healthy`/`degraded`/`detached`).
    LadderTransition {
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// A failed compile was queued for a backoff retry.
    RetryScheduled {
        /// Function index.
        func: u64,
        /// Attempts so far.
        attempts: u64,
        /// Cycle at which the retry becomes due.
        due_cycle: u64,
    },
    /// Retry budget exhausted; the function keeps its original code.
    RetryGaveUp {
        /// Function index.
        func: u64,
    },
    /// The compile watchdog tripped on a stalled compilation.
    WatchdogTrip {
        /// Function index.
        func: u64,
        /// Cycles the compile had consumed when killed.
        cycles: u64,
    },
    /// A scrub pass found a corrupted code-cache variant.
    ScrubCorruption {
        /// Variant index.
        variant: u64,
    },
    /// A corrupted variant was repaired (or dropped) in the code cache.
    CacheRepair {
        /// Variant index.
        variant: u64,
        /// Whether a fresh recompile replaced it (vs. restore-only).
        fresh: bool,
    },
    /// First PC sample observed inside a newly dispatched variant.
    FirstExec {
        /// Variant index.
        variant: u64,
        /// Cycles between the EVT write and this sample.
        lag_cycles: u64,
    },
    /// Nap duty cycle changed.
    NapSet {
        /// New duty cycle in permille (0..=990).
        permille: u64,
    },
    /// Greedy variant search started.
    SearchStart {
        /// Number of candidate sites.
        sites: u64,
    },
    /// One site flip was evaluated.
    SearchStep {
        /// Function index flipped.
        func: u64,
        /// Whether the flip was kept.
        accepted: bool,
    },
    /// Greedy variant search finished.
    SearchEnd {
        /// Sites left flipped in the accepted configuration.
        flips: u64,
        /// Evaluations performed.
        evals: u64,
    },
    /// The safety gate consulted the abstract interpreter while vetting
    /// a variant.
    AbsintConsult {
        /// Function index.
        func: u64,
        /// Variant index.
        variant: u64,
        /// Interval-based disjointness facts discharged during this vet.
        disjoint_facts: u64,
    },
    /// OSR-point certification summary for an attached module.
    OsrPoints {
        /// Loop headers that received a certificate.
        certified: u64,
    },
    /// OSR transfer provability summary for one variant, emitted when the
    /// OSR controller first proves transfers into it: how many certified
    /// headers of the function could be switched mid-loop into this
    /// variant under a proved live-state recipe.
    OsrTransfer {
        /// Function index.
        func: u64,
        /// Variant index.
        variant: u64,
        /// Headers with a proved transfer recipe.
        proved: u64,
        /// Headers whose candidate recipe was concretely refuted.
        refuted: u64,
        /// Headers where no recipe could be proved or refuted.
        unproved: u64,
    },
    /// A live OSR transfer was applied: the parked frame was rewritten
    /// under the proved recipe and the thread resumed at the variant's
    /// matching loop header.
    OsrApply {
        /// Function index.
        func: u64,
        /// Variant index now executing mid-loop.
        variant: u64,
        /// Baseline block id of the certified header.
        header: u64,
        /// Cycles spent parked (park → resume).
        park_cycles: u64,
    },
    /// An OSR-applied variant was deoptimized back to baseline code —
    /// either a probation regression unwound via the inverse recipe, or a
    /// misapplied transfer restored from its frame snapshot.
    OsrDeopt {
        /// Function index.
        func: u64,
        /// Variant index abandoned.
        variant: u64,
        /// Baseline block id of the header involved.
        header: u64,
        /// Why: `probation-regression`, `transfer-misapply`, or
        /// `inverse-refused`.
        reason: &'static str,
    },
    /// An armed OSR request was abandoned without touching the frame;
    /// call-edge switching remains the fallback.
    OsrAbandon {
        /// Function index.
        func: u64,
        /// Why: `window-expired`, `arm-stall`, `recipe-corrupt`,
        /// `header-mismatch`, `dispatch`, or `health`.
        reason: &'static str,
    },
    /// A (function, header) pair crossed the OSR fault threshold and will
    /// never be OSR-targeted again (function-level dispatch still works).
    OsrQuarantine {
        /// Function index.
        func: u64,
        /// Baseline block id of the quarantined header.
        header: u64,
        /// Runtime transfer faults accumulated against the pair.
        faults: u64,
    },
    /// Phase-change detection reset the controller.
    PhaseChange {
        /// Which signal moved: `external` or `host`.
        source: &'static str,
    },
}

impl EventKind {
    /// Stable kebab-case event name, used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Attach { .. } => "attach",
            EventKind::Restore { .. } => "restore",
            EventKind::RestoreAll => "restore-all",
            EventKind::CompileStart { .. } => "compile-start",
            EventKind::CompileFinish { .. } => "compile-finish",
            EventKind::CompileFail { .. } => "compile-fail",
            EventKind::GateVerdict { .. } => "gate-verdict",
            EventKind::DispatchRefused { .. } => "dispatch-refused",
            EventKind::EvtWrite { .. } => "evt-write",
            EventKind::EvtWriteDropped { .. } => "evt-write-dropped",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::LadderTransition { .. } => "ladder-transition",
            EventKind::RetryScheduled { .. } => "retry-scheduled",
            EventKind::RetryGaveUp { .. } => "retry-gave-up",
            EventKind::WatchdogTrip { .. } => "watchdog-trip",
            EventKind::ScrubCorruption { .. } => "scrub-corruption",
            EventKind::CacheRepair { .. } => "cache-repair",
            EventKind::FirstExec { .. } => "first-exec",
            EventKind::NapSet { .. } => "nap-set",
            EventKind::SearchStart { .. } => "search-start",
            EventKind::SearchStep { .. } => "search-step",
            EventKind::SearchEnd { .. } => "search-end",
            EventKind::AbsintConsult { .. } => "absint-consult",
            EventKind::OsrPoints { .. } => "osr-points",
            EventKind::OsrTransfer { .. } => "osr-transfer",
            EventKind::OsrApply { .. } => "osr-apply",
            EventKind::OsrDeopt { .. } => "osr-deopt",
            EventKind::OsrAbandon { .. } => "osr-abandon",
            EventKind::OsrQuarantine { .. } => "osr-quarantine",
            EventKind::PhaseChange { .. } => "phase-change",
        }
    }

    /// The event's payload as `(key, value)` pairs, shared by both
    /// exporters so JSONL and Chrome `args` always agree.
    pub fn fields(&self) -> Vec<(&'static str, Field)> {
        use Field::{Bool, Str, U64};
        match *self {
            EventKind::Attach { pid, funcs } => {
                vec![("pid", U64(pid)), ("funcs", U64(funcs))]
            }
            EventKind::Restore { func } => vec![("func", U64(func))],
            EventKind::RestoreAll => vec![],
            EventKind::CompileStart { func } => vec![("func", U64(func))],
            EventKind::CompileFinish {
                func,
                variant,
                cycles,
                ops,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("cycles", U64(cycles)),
                ("ops", U64(ops)),
            ],
            EventKind::CompileFail { func, cycles } => {
                vec![("func", U64(func)), ("cycles", U64(cycles))]
            }
            EventKind::GateVerdict {
                func,
                variant,
                verdict,
                cached,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("verdict", Str(verdict)),
                ("cached", Bool(cached)),
            ],
            EventKind::DispatchRefused {
                func,
                variant,
                reason,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("reason", Str(reason)),
            ],
            EventKind::EvtWrite {
                func,
                variant,
                addr,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("addr", U64(addr)),
            ],
            EventKind::EvtWriteDropped { func, variant } => {
                vec![("func", U64(func)), ("variant", U64(variant))]
            }
            EventKind::Quarantine { func, variant } => {
                vec![("func", U64(func)), ("variant", U64(variant))]
            }
            EventKind::LadderTransition { from, to } => {
                vec![("from", Str(from)), ("to", Str(to))]
            }
            EventKind::RetryScheduled {
                func,
                attempts,
                due_cycle,
            } => vec![
                ("func", U64(func)),
                ("attempts", U64(attempts)),
                ("due_cycle", U64(due_cycle)),
            ],
            EventKind::RetryGaveUp { func } => vec![("func", U64(func))],
            EventKind::WatchdogTrip { func, cycles } => {
                vec![("func", U64(func)), ("cycles", U64(cycles))]
            }
            EventKind::ScrubCorruption { variant } => {
                vec![("variant", U64(variant))]
            }
            EventKind::CacheRepair { variant, fresh } => {
                vec![("variant", U64(variant)), ("fresh", Bool(fresh))]
            }
            EventKind::FirstExec {
                variant,
                lag_cycles,
            } => vec![("variant", U64(variant)), ("lag_cycles", U64(lag_cycles))],
            EventKind::NapSet { permille } => {
                vec![("permille", U64(permille))]
            }
            EventKind::SearchStart { sites } => vec![("sites", U64(sites))],
            EventKind::SearchStep { func, accepted } => {
                vec![("func", U64(func)), ("accepted", Bool(accepted))]
            }
            EventKind::SearchEnd { flips, evals } => {
                vec![("flips", U64(flips)), ("evals", U64(evals))]
            }
            EventKind::AbsintConsult {
                func,
                variant,
                disjoint_facts,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("disjoint_facts", U64(disjoint_facts)),
            ],
            EventKind::OsrPoints { certified } => {
                vec![("certified", U64(certified))]
            }
            EventKind::OsrTransfer {
                func,
                variant,
                proved,
                refuted,
                unproved,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("proved", U64(proved)),
                ("refuted", U64(refuted)),
                ("unproved", U64(unproved)),
            ],
            EventKind::OsrApply {
                func,
                variant,
                header,
                park_cycles,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("header", U64(header)),
                ("park_cycles", U64(park_cycles)),
            ],
            EventKind::OsrDeopt {
                func,
                variant,
                header,
                reason,
            } => vec![
                ("func", U64(func)),
                ("variant", U64(variant)),
                ("header", U64(header)),
                ("reason", Str(reason)),
            ],
            EventKind::OsrAbandon { func, reason } => {
                vec![("func", U64(func)), ("reason", Str(reason))]
            }
            EventKind::OsrQuarantine {
                func,
                header,
                faults,
            } => vec![
                ("func", U64(func)),
                ("header", U64(header)),
                ("faults", U64(faults)),
            ],
            EventKind::PhaseChange { source } => {
                vec![("source", Str(source))]
            }
        }
    }
}

/// One recorded event: what happened, where, and when (simulated cycles).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated cycle at emission (`Os::now`).
    pub cycle: u64,
    /// Global emission sequence number, monotone across all subsystems.
    pub seq: u64,
    /// Emitting subsystem.
    pub sub: Subsystem,
    /// Event payload.
    pub kind: EventKind,
}

/// Fixed-capacity drop-oldest ring with a drop counter.
#[derive(Clone, Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(cap.min(DEFAULT_RING_CAP)),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// The event sink: one ring per subsystem plus a global sequence counter.
///
/// Cloning a `Tracer` clones its buffered events — useful for snapshots —
/// but live emission goes through the instance owned by the
/// [`Runtime`](crate::Runtime).
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    next_seq: u64,
    rings: Vec<Ring>,
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Self {
        Tracer {
            enabled,
            next_seq: 0,
            rings: Subsystem::ALL
                .iter()
                .map(|_| Ring::new(DEFAULT_RING_CAP))
                .collect(),
        }
    }

    /// An enabled tracer with default ring capacities.
    pub fn new() -> Self {
        Tracer::with_enabled(true)
    }

    /// A disabled tracer: [`emit`](Tracer::emit) is a no-op branch.
    pub fn disabled() -> Self {
        Tracer::with_enabled(false)
    }

    /// Enabled iff the `PROTEAN_TRACE` environment variable is set
    /// (its value names the export directory — see [`trace_env_dir`]).
    pub fn from_env() -> Self {
        Tracer::with_enabled(trace_env_dir().is_some())
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Buffered events are kept either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Resizes one subsystem's ring, evicting oldest events if shrinking.
    pub fn set_capacity(&mut self, sub: Subsystem, cap: usize) {
        let ring = &mut self.rings[sub.index()];
        ring.cap = cap;
        while ring.buf.len() > cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
    }

    /// Records an event at simulated cycle `cycle`. No-op when disabled.
    pub fn emit(&mut self, cycle: u64, sub: Subsystem, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rings[sub.index()].push(TraceEvent {
            cycle,
            seq,
            sub,
            kind,
        });
    }

    /// Buffered events for one subsystem, oldest first.
    pub fn events(&self, sub: Subsystem) -> Vec<TraceEvent> {
        self.rings[sub.index()].buf.iter().copied().collect()
    }

    /// Events evicted (or refused) by one subsystem's ring so far.
    pub fn dropped(&self, sub: Subsystem) -> u64 {
        self.rings[sub.index()].dropped
    }

    /// Total events recorded across all rings (still buffered).
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.buf.len()).sum()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All buffered events merged across subsystems, ordered by
    /// `(cycle, seq)` — i.e. global emission order.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .rings
            .iter()
            .flat_map(|r| r.buf.iter().copied())
            .collect();
        all.sort_unstable_by_key(|e| (e.cycle, e.seq));
        all
    }

    /// Flat JSONL export: one event per line, runtime and kernel streams
    /// merged by `(cycle, stream, seq)` with kernel events ordered after
    /// runtime events within the same cycle. Bit-identical across
    /// same-seed runs.
    pub fn jsonl(&self, kernel: &[ObsEvent]) -> String {
        let mut out = String::new();
        for item in merge_streams(&self.merged(), kernel) {
            match item {
                Merged::Rt(e) => {
                    out.push_str("{\"cycle\":");
                    out.push_str(&e.cycle.to_string());
                    out.push_str(",\"seq\":");
                    out.push_str(&e.seq.to_string());
                    out.push_str(",\"sub\":\"");
                    out.push_str(e.sub.name());
                    out.push_str("\",\"event\":\"");
                    out.push_str(e.kind.name());
                    out.push('"');
                    for (k, v) in e.kind.fields() {
                        out.push(',');
                        push_json_field(&mut out, k, &v);
                    }
                    out.push_str("}\n");
                }
                Merged::Kern(e) => {
                    out.push_str("{\"cycle\":");
                    out.push_str(&e.cycle.to_string());
                    out.push_str(",\"seq\":");
                    out.push_str(&e.seq.to_string());
                    out.push_str(",\"sub\":\"kernel\",\"event\":\"");
                    out.push_str(e.kind.name());
                    out.push_str("\",\"pid\":");
                    out.push_str(&e.pid.0.to_string());
                    out.push_str("}\n");
                }
            }
        }
        out
    }

    /// Chrome-trace JSON export (`chrome://tracing` / Perfetto loadable).
    ///
    /// One process (`protean`), one named thread per subsystem.
    /// Compilations render as complete (`ph:"X"`) slices spanning their
    /// charged cycles; every other event is a thread-scoped instant.
    /// `ts` is the simulated cycle rendered as microseconds.
    pub fn chrome_json(&self, kernel: &[ObsEvent]) -> String {
        let mut out = String::from("[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"protean\"}}",
        );
        for sub in Subsystem::ALL {
            out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            out.push_str(&sub.index().to_string());
            out.push_str(",\"args\":{\"name\":\"");
            out.push_str(sub.name());
            out.push_str("\"}}");
        }
        for item in merge_streams(&self.merged(), kernel) {
            out.push_str(",\n");
            match item {
                Merged::Rt(e) => {
                    let dur = match e.kind {
                        EventKind::CompileFinish { cycles, .. }
                        | EventKind::CompileFail { cycles, .. } => Some(cycles),
                        _ => None,
                    };
                    out.push_str("{\"name\":\"");
                    out.push_str(&json_escape(e.kind.name()));
                    out.push_str("\",\"ph\":\"");
                    out.push_str(if dur.is_some() { "X" } else { "i" });
                    out.push('"');
                    if let Some(d) = dur {
                        out.push_str(",\"dur\":");
                        out.push_str(&d.to_string());
                    } else {
                        out.push_str(",\"s\":\"t\"");
                    }
                    out.push_str(",\"pid\":0,\"tid\":");
                    out.push_str(&e.sub.index().to_string());
                    out.push_str(",\"ts\":");
                    let ts = match dur {
                        Some(d) => e.cycle.saturating_sub(d),
                        None => e.cycle,
                    };
                    out.push_str(&ts.to_string());
                    out.push_str(",\"args\":{\"seq\":");
                    out.push_str(&e.seq.to_string());
                    for (k, v) in e.kind.fields() {
                        out.push(',');
                        push_json_field(&mut out, k, &v);
                    }
                    out.push_str("}}");
                }
                Merged::Kern(e) => {
                    out.push_str("{\"name\":\"");
                    out.push_str(&json_escape(e.kind.name()));
                    out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":");
                    out.push_str(&Subsystem::Kernel.index().to_string());
                    out.push_str(",\"ts\":");
                    out.push_str(&e.cycle.to_string());
                    out.push_str(",\"args\":{\"seq\":");
                    out.push_str(&e.seq.to_string());
                    out.push_str(",\"pid\":");
                    out.push_str(&e.pid.0.to_string());
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n]\n");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

/// A runtime or kernel event in the merged export stream.
enum Merged<'a> {
    Rt(&'a TraceEvent),
    Kern(&'a ObsEvent),
}

/// Merges the two streams by `(cycle, stream-rank, seq)` — runtime events
/// (rank 0) precede kernel events (rank 1) within a cycle, and each
/// stream's own sequence numbers break the remaining ties.
fn merge_streams<'a>(rt: &'a [TraceEvent], kernel: &'a [ObsEvent]) -> Vec<Merged<'a>> {
    let mut all: Vec<(u64, u8, u64, Merged<'a>)> = Vec::with_capacity(rt.len() + kernel.len());
    for e in rt {
        all.push((e.cycle, 0, e.seq, Merged::Rt(e)));
    }
    for e in kernel {
        all.push((e.cycle, 1, e.seq, Merged::Kern(e)));
    }
    all.sort_by_key(|&(cycle, rank, seq, _)| (cycle, rank, seq));
    all.into_iter().map(|(_, _, _, m)| m).collect()
}

fn push_json_field(out: &mut String, key: &'static str, v: &Field) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    match *v {
        Field::U64(n) => out.push_str(&n.to_string()),
        Field::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        Field::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
    }
}

/// Escapes a string for embedding inside a JSON string literal:
/// quote, backslash, and all control characters (common ones as their
/// two-character escapes, the rest as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Paths of one exported trace pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFiles {
    /// Chrome-trace JSON (`<name>.trace.json`).
    pub chrome: PathBuf,
    /// Flat JSONL (`<name>.jsonl`).
    pub jsonl: PathBuf,
}

/// The export directory named by the `PROTEAN_TRACE` environment
/// variable, or `None` when unset/empty (tracing off by default).
pub fn trace_env_dir() -> Option<PathBuf> {
    match std::env::var_os("PROTEAN_TRACE") {
        Some(v) if !v.is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Writes a Chrome-trace/JSONL pair under `dir` as `<name>.trace.json`
/// and `<name>.jsonl`, creating `dir` if needed.
pub fn write_trace_files(
    dir: &Path,
    name: &str,
    chrome: &str,
    jsonl: &str,
) -> io::Result<TraceFiles> {
    fs::create_dir_all(dir)?;
    let files = TraceFiles {
        chrome: dir.join(format!("{name}.trace.json")),
        jsonl: dir.join(format!("{name}.jsonl")),
    };
    fs::write(&files.chrome, chrome)?;
    fs::write(&files.jsonl, jsonl)?;
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{ObsEventKind, Pid};

    fn ev(func: u64) -> EventKind {
        EventKind::CompileStart { func }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(10, Subsystem::Runtime, ev(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(Subsystem::Runtime), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut t = Tracer::new();
        t.set_capacity(Subsystem::Runtime, 3);
        for i in 0..5 {
            t.emit(100 + i, Subsystem::Runtime, ev(i));
        }
        assert_eq!(t.dropped(Subsystem::Runtime), 2);
        let events = t.events(Subsystem::Runtime);
        // Survivors keep emission order: the three newest, oldest first.
        let funcs: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::CompileStart { func } => func,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(funcs, vec![2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let mut t = Tracer::new();
        for i in 0..4 {
            t.emit(i, Subsystem::Gate, ev(i));
        }
        t.set_capacity(Subsystem::Gate, 1);
        assert_eq!(t.dropped(Subsystem::Gate), 3);
        assert_eq!(t.events(Subsystem::Gate).len(), 1);
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let mut t = Tracer::new();
        t.set_capacity(Subsystem::Health, 0);
        t.emit(1, Subsystem::Health, ev(0));
        assert!(t.events(Subsystem::Health).is_empty());
        assert_eq!(t.dropped(Subsystem::Health), 1);
    }

    #[test]
    fn merged_orders_by_cycle_then_seq() {
        let mut t = Tracer::new();
        t.emit(
            50,
            Subsystem::Controller,
            EventKind::NapSet { permille: 100 },
        );
        t.emit(20, Subsystem::Runtime, ev(0));
        t.emit(
            20,
            Subsystem::Gate,
            EventKind::GateVerdict {
                func: 0,
                variant: 0,
                verdict: "safe",
                cached: false,
            },
        );
        let m = t.merged();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].cycle, 20);
        assert_eq!(m[0].sub, Subsystem::Runtime);
        assert_eq!(m[1].sub, Subsystem::Gate);
        assert_eq!(m[2].cycle, 50);
    }

    #[test]
    fn kernel_events_sort_after_runtime_within_a_cycle() {
        let mut t = Tracer::new();
        t.emit(30, Subsystem::Runtime, ev(7));
        let kernel = [
            ObsEvent {
                cycle: 30,
                seq: 0,
                pid: Pid(0),
                kind: ObsEventKind::PcSample,
            },
            ObsEvent {
                cycle: 10,
                seq: 1,
                pid: Pid(0),
                kind: ObsEventKind::CounterRead,
            },
        ];
        let jsonl = t.jsonl(&kernel);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("counter-read"), "{jsonl}");
        assert!(lines[1].contains("compile-start"), "{jsonl}");
        assert!(lines[2].contains("pc-sample"), "{jsonl}");
        for line in lines {
            validate_json(line).unwrap();
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(json_escape("héllo"), "héllo");
    }

    #[test]
    fn chrome_json_is_well_formed_and_has_metadata() {
        let mut t = Tracer::new();
        t.emit(
            100,
            Subsystem::Runtime,
            EventKind::CompileFinish {
                func: 1,
                variant: 0,
                cycles: 40,
                ops: 12,
            },
        );
        t.emit(
            110,
            Subsystem::Health,
            EventKind::Quarantine {
                func: 1,
                variant: 0,
            },
        );
        let kernel = [ObsEvent {
            cycle: 105,
            seq: 0,
            pid: Pid(3),
            kind: ObsEventKind::PcSampleDropped,
        }];
        let json = t.chrome_json(&kernel);
        validate_json(&json).unwrap();
        assert!(json.contains("\"process_name\""));
        for sub in Subsystem::ALL {
            assert!(json.contains(&format!("\"name\":\"{}\"", sub.name())));
        }
        // The compile slice spans its charged cycles: ts = 100 - 40.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":60"));
        assert!(json.contains("\"dur\":40"));
        assert!(json.contains("pc-sample-dropped"));
    }

    #[test]
    fn every_event_kind_exports_cleanly() {
        let kinds = [
            EventKind::Attach { pid: 0, funcs: 4 },
            EventKind::Restore { func: 1 },
            EventKind::RestoreAll,
            EventKind::CompileStart { func: 1 },
            EventKind::CompileFinish {
                func: 1,
                variant: 2,
                cycles: 3,
                ops: 4,
            },
            EventKind::CompileFail { func: 1, cycles: 2 },
            EventKind::GateVerdict {
                func: 0,
                variant: 1,
                verdict: "refuted",
                cached: true,
            },
            EventKind::DispatchRefused {
                func: 0,
                variant: 1,
                reason: "quarantined",
            },
            EventKind::EvtWrite {
                func: 0,
                variant: 1,
                addr: 2048,
            },
            EventKind::EvtWriteDropped {
                func: 0,
                variant: 1,
            },
            EventKind::Quarantine {
                func: 0,
                variant: 1,
            },
            EventKind::LadderTransition {
                from: "healthy",
                to: "degraded",
            },
            EventKind::RetryScheduled {
                func: 0,
                attempts: 2,
                due_cycle: 999,
            },
            EventKind::RetryGaveUp { func: 0 },
            EventKind::WatchdogTrip { func: 0, cycles: 7 },
            EventKind::ScrubCorruption { variant: 3 },
            EventKind::CacheRepair {
                variant: 3,
                fresh: true,
            },
            EventKind::FirstExec {
                variant: 3,
                lag_cycles: 1200,
            },
            EventKind::NapSet { permille: 250 },
            EventKind::SearchStart { sites: 6 },
            EventKind::SearchStep {
                func: 2,
                accepted: false,
            },
            EventKind::SearchEnd {
                flips: 2,
                evals: 12,
            },
            EventKind::AbsintConsult {
                func: 1,
                variant: 2,
                disjoint_facts: 5,
            },
            EventKind::OsrPoints { certified: 3 },
            EventKind::OsrTransfer {
                func: 1,
                variant: 2,
                proved: 2,
                refuted: 0,
                unproved: 1,
            },
            EventKind::OsrApply {
                func: 1,
                variant: 2,
                header: 3,
                park_cycles: 40,
            },
            EventKind::OsrDeopt {
                func: 1,
                variant: 2,
                header: 3,
                reason: "probation-regression",
            },
            EventKind::OsrAbandon {
                func: 1,
                reason: "window-expired",
            },
            EventKind::OsrQuarantine {
                func: 1,
                header: 3,
                faults: 3,
            },
            EventKind::PhaseChange { source: "external" },
        ];
        let mut t = Tracer::new();
        for (i, k) in kinds.iter().enumerate() {
            t.emit(i as u64, Subsystem::Runtime, *k);
        }
        let jsonl = t.jsonl(&[]);
        assert_eq!(jsonl.lines().count(), kinds.len());
        for line in jsonl.lines() {
            validate_json(line).unwrap();
        }
        validate_json(&t.chrome_json(&[])).unwrap();
    }

    #[test]
    fn write_trace_files_round_trips() {
        let dir = std::env::temp_dir().join("protean-trace-unit");
        let files = write_trace_files(&dir, "t", "[]", "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&files.chrome).unwrap(), "[]");
        assert_eq!(std::fs::read_to_string(&files.jsonl).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Minimal recursive-descent JSON well-formedness checker — no serde
    /// in-tree, and the exporters hand-build their output, so validate it
    /// the hard way.
    fn validate_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\n' | b'\t' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }

    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b[*i..].starts_with(lit) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *i += 1;
        }
        if *i == start {
            Err(format!("empty number at {start}"))
        } else {
            Ok(())
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // opening quote
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            for k in 1..=4 {
                                if !b.get(*i + k).is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(format!("bad \\u escape at {i}"));
                                }
                            }
                            *i += 5;
                        }
                        other => return Err(format!("bad escape {other:?} at {i}")),
                    }
                }
                c if c < 0x20 => return Err(format!("raw control byte at {i}")),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // {
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected key at {i}"));
            }
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at {i}"));
            }
            *i += 1;
            skip_ws(b, i);
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?} at {i}")),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // [
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?} at {i}")),
            }
        }
    }
}
