//! The OS kernel: scheduling, time, and the runtime's control surface.

use std::cell::RefCell;
use std::collections::VecDeque;

use machine::{
    exec, BtConfig, CostModel, ExecEnv, ExecStatus, MachineConfig, MemorySystem, PerfCounters,
};
use visa::{Image, Op, PReg};

use crate::loadgen::LoadSchedule;
use crate::process::{Pid, Process};

/// OS configuration.
#[derive(Clone, Debug)]
pub struct OsConfig {
    /// Machine the OS runs on.
    pub machine: MachineConfig,
    /// Scheduling quantum in cycles (granularity of core interleaving and
    /// of nap decisions).
    pub quantum: u64,
    /// Nap duty-cycle period in cycles. Nap intensity resolution is
    /// `quantum / nap_period`.
    pub nap_period: u64,
}

impl Default for OsConfig {
    fn default() -> Self {
        let machine = MachineConfig::default();
        OsConfig {
            machine,
            quantum: 1_000,
            nap_period: 100_000,
        }
    }
}

impl OsConfig {
    /// Small configuration for unit tests.
    pub fn small() -> Self {
        OsConfig {
            machine: MachineConfig::small(),
            quantum: 500,
            nap_period: 50_000,
        }
    }

    /// The standard experiment configuration: the paper's topology with
    /// capacities scaled to the simulated time base (see
    /// [`MachineConfig::scaled`]).
    pub fn scaled() -> Self {
        OsConfig {
            machine: MachineConfig::scaled(),
            ..OsConfig::default()
        }
    }
}

/// Deterministic observation-fault injection: degrades the ptrace/perf
/// surface the way a loaded production kernel does — samples that fail,
/// samples that land on garbage addresses, and counter reads that come
/// back perturbed. Process *execution* is never affected; only what the
/// runtime observes. All faults are derived by hashing `(seed, now, pid)`,
/// so a given seed reproduces the exact same fault schedule.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ObsFaults {
    /// Seed for the per-read fault draws.
    pub seed: u64,
    /// Probability a PC sample is dropped (reads as an unmappable,
    /// out-of-range address, like a failed `ptrace` peek).
    pub pc_drop: f64,
    /// Probability a PC sample is garbled to a random text address.
    pub pc_garble: f64,
    /// Probability a counter snapshot is perturbed (up to ±25% on the
    /// instruction, branch, and LLC-miss counters).
    pub counter_garble: f64,
}

impl ObsFaults {
    /// No observation faults (all rates zero).
    pub fn none(seed: u64) -> Self {
        ObsFaults {
            seed,
            pc_drop: 0.0,
            pc_garble: 0.0,
            counter_garble: 0.0,
        }
    }
}

/// Outcome of one kernel-side observation delivery (a ptrace-style PC
/// sample or an HPM counter read), as recorded by the kernel trace ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A PC sample delivered truthfully.
    PcSample,
    /// A PC sample dropped (failed ptrace peek; reads as `u32::MAX`).
    PcSampleDropped,
    /// A PC sample garbled to an arbitrary text address.
    PcSampleGarbled,
    /// A counter snapshot delivered truthfully.
    CounterRead,
    /// A counter snapshot perturbed by [`ObsFaults`].
    CounterGarbled,
}

impl ObsEventKind {
    /// Stable kebab-case name (used by trace exporters).
    pub fn name(self) -> &'static str {
        match self {
            ObsEventKind::PcSample => "pc-sample",
            ObsEventKind::PcSampleDropped => "pc-sample-dropped",
            ObsEventKind::PcSampleGarbled => "pc-sample-garbled",
            ObsEventKind::CounterRead => "counter-read",
            ObsEventKind::CounterGarbled => "counter-garbled",
        }
    }
}

/// One kernel-side observation event: what the ptrace/perf surface
/// delivered to whoever asked, stamped with the simulated cycle (never a
/// wall clock, so same-seed runs record bit-identical streams).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated cycle at which the observation was served.
    pub cycle: u64,
    /// Monotone sequence number within the kernel ring (orders events
    /// that share a cycle).
    pub seq: u64,
    /// The observed process.
    pub pid: Pid,
    /// What was delivered.
    pub kind: ObsEventKind,
}

/// Fixed-capacity ring of kernel observation events. Overflow drops the
/// *oldest* event and bumps the drop counter, so surviving events stay in
/// emission order.
#[derive(Clone, Debug)]
struct ObsTrace {
    events: VecDeque<ObsEvent>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

impl ObsTrace {
    fn new(cap: usize) -> Self {
        ObsTrace {
            events: VecDeque::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
            next_seq: 0,
        }
    }

    fn record(&mut self, cycle: u64, pid: Pid, kind: ObsEventKind) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ObsEvent {
            cycle,
            seq: self.next_seq,
            pid,
            kind,
        });
        self.next_seq += 1;
    }
}

/// SplitMix64 finalizer: the stateless hash behind every observation-
/// fault draw.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 hash bits to a unit-interval draw.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Query-latency statistics for a latency-sensitive process.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LatencyStats {
    /// Median sojourn time in cycles.
    pub p50: u64,
    /// 99th-percentile sojourn time in cycles.
    pub p99: u64,
    /// Mean sojourn time in cycles.
    pub mean: f64,
    /// Number of samples in the window.
    pub count: usize,
}

/// The simulated operating system.
pub struct Os {
    config: OsConfig,
    mem: MemorySystem,
    procs: Vec<Process>,
    /// Which process (if any) is pinned to each core.
    core_proc: Vec<Option<Pid>>,
    /// Pending runtime-work cycles per core (consumed before the pinned
    /// process runs — "same core" runtime placement steals these cycles).
    runtime_pending: Vec<u64>,
    /// Total runtime-work cycles consumed per core.
    runtime_consumed: Vec<u64>,
    /// Observation-fault injection, if enabled.
    obs_faults: Option<ObsFaults>,
    /// Kernel-side observation trace ring, if enabled. `RefCell` because
    /// the observation surface ([`sample_pc`](Os::sample_pc),
    /// [`counters`](Os::counters)) is `&self` — recording a delivery must
    /// not change what any caller can do with the OS.
    obs_trace: RefCell<Option<ObsTrace>>,
    now: u64,
}

impl Os {
    /// Boots an OS on the configured machine.
    pub fn new(config: OsConfig) -> Self {
        let cores = config.machine.cores;
        let mem = MemorySystem::new(&config.machine);
        Os {
            config,
            mem,
            procs: Vec::new(),
            core_proc: vec![None; cores],
            runtime_pending: vec![0; cores],
            runtime_consumed: vec![0; cores],
            obs_faults: None,
            obs_trace: RefCell::new(None),
            now: 0,
        }
    }

    /// The OS configuration.
    pub fn config(&self) -> &OsConfig {
        &self.config
    }

    /// Current time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current time in simulated seconds.
    pub fn now_seconds(&self) -> f64 {
        self.config.machine.cycles_to_seconds(self.now)
    }

    /// Loads `image` as a new process pinned to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or already has a pinned process.
    pub fn spawn(&mut self, image: &Image, core: usize) -> Pid {
        assert!(core < self.core_proc.len(), "core {core} out of range");
        assert!(
            self.core_proc[core].is_none(),
            "core {core} already runs {:?}",
            self.core_proc[core]
        );
        let pid = Pid(self.procs.len() as u16 + 1); // space 0 = kernel
        let proc_ = Process::load(image, pid, core);
        self.core_proc[core] = Some(pid);
        self.procs.push(proc_);
        pid
    }

    /// Loads `image` under a DynamoRIO-style binary translator (the
    /// Figure 4 baseline): all execution flows from a translation cache
    /// with per-block translation and per-branch dispatch costs.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or already pinned.
    pub fn spawn_with_bt(&mut self, image: &Image, core: usize, bt: BtConfig) -> Pid {
        let pid = self.spawn(image, core);
        let i = self.idx(pid);
        let ctx = std::mem::replace(&mut self.procs[i].ctx, machine::ExecContext::new(0, 0, 0));
        self.procs[i].ctx = ctx.with_binary_translation(bt);
        pid
    }

    /// Total binary-translation overhead cycles charged to a process, if
    /// it runs under the translator.
    pub fn bt_overhead(&self, pid: Pid) -> Option<u64> {
        self.proc(pid).ctx().bt_overhead()
    }

    /// Terminates a process and frees its core.
    pub fn kill(&mut self, pid: Pid) {
        let core = self.proc(pid).core();
        self.core_proc[core] = None;
        // Keep the process slot (counters remain readable post-mortem) but
        // detach it from scheduling by freezing.
        self.proc_mut(pid).frozen = true;
    }

    fn idx(&self, pid: Pid) -> usize {
        pid.index() - 1
    }

    /// Immutable access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned.
    pub fn proc(&self, pid: Pid) -> &Process {
        &self.procs[self.idx(pid)]
    }

    fn proc_mut(&mut self, pid: Pid) -> &mut Process {
        let i = self.idx(pid);
        &mut self.procs[i]
    }

    /// All spawned processes.
    pub fn procs(&self) -> &[Process] {
        &self.procs
    }

    // ----------------------------------------------------------------
    // Observation surface (ptrace / perf)
    // ----------------------------------------------------------------

    /// Enables (or, with `None`, disables) deterministic observation
    /// faults on the ptrace/perf surface. See [`ObsFaults`].
    pub fn set_obs_faults(&mut self, faults: Option<ObsFaults>) {
        self.obs_faults = faults;
    }

    /// The active observation-fault configuration, if any.
    pub fn obs_faults(&self) -> Option<ObsFaults> {
        self.obs_faults
    }

    /// Enables the kernel observation trace with a ring of `capacity`
    /// events (or disables and clears it with `None`). Every subsequent
    /// PC sample and counter read records its delivery outcome,
    /// cycle-stamped; the ring drops its *oldest* events on overflow and
    /// counts the drops ([`obs_trace_dropped`](Os::obs_trace_dropped)).
    pub fn set_obs_trace(&mut self, capacity: Option<usize>) {
        *self.obs_trace.borrow_mut() = capacity.map(ObsTrace::new);
    }

    /// Whether the kernel observation trace is recording.
    pub fn obs_trace_enabled(&self) -> bool {
        self.obs_trace.borrow().is_some()
    }

    /// The surviving kernel observation events, oldest first.
    pub fn obs_trace_events(&self) -> Vec<ObsEvent> {
        self.obs_trace
            .borrow()
            .as_ref()
            .map(|t| t.events.iter().copied().collect())
            .unwrap_or_default()
    }

    /// How many kernel observation events overflowed the ring.
    pub fn obs_trace_dropped(&self) -> u64 {
        self.obs_trace.borrow().as_ref().map_or(0, |t| t.dropped)
    }

    /// Records one observation delivery into the kernel ring, if enabled.
    fn obs_record(&self, pid: Pid, kind: ObsEventKind) {
        if let Some(t) = self.obs_trace.borrow_mut().as_mut() {
            t.record(self.now, pid, kind);
        }
    }

    /// One deterministic fault draw for the current `(now, pid, salt)`:
    /// returns the unit-interval roll plus independent hash bits for
    /// value garbling.
    fn obs_roll(&self, faults: &ObsFaults, pid: Pid, salt: u64) -> (f64, u64) {
        let h = splitmix(
            faults.seed ^ self.now.wrapping_mul(0x9e37_79b9) ^ (u64::from(pid.0) << 48) ^ salt,
        );
        (unit(h), splitmix(h))
    }

    /// Samples the process's program counter (ptrace-style). Subject to
    /// [`ObsFaults`]: a dropped sample reads as `u32::MAX` (an address no
    /// symbolizer can map, like a failed ptrace peek), a garbled sample
    /// lands on an arbitrary text address.
    pub fn sample_pc(&self, pid: Pid) -> u32 {
        let pc = self.proc(pid).ctx().pc();
        let Some(f) = self.obs_faults else {
            self.obs_record(pid, ObsEventKind::PcSample);
            return pc;
        };
        let (roll, bits) = self.obs_roll(&f, pid, 0x5a5a);
        if roll < f.pc_drop {
            self.obs_record(pid, ObsEventKind::PcSampleDropped);
            return u32::MAX;
        }
        if roll < f.pc_drop + f.pc_garble {
            self.obs_record(pid, ObsEventKind::PcSampleGarbled);
            let len = self.proc(pid).text.len().max(1) as u64;
            return (bits % len) as u32;
        }
        self.obs_record(pid, ObsEventKind::PcSample);
        pc
    }

    /// Reads the process's hardware performance counters. Subject to
    /// [`ObsFaults`]: a garbled read perturbs the instruction, branch,
    /// and LLC-miss counts by up to ±25% (the counters themselves keep
    /// advancing truthfully — only this snapshot lies).
    pub fn counters(&self, pid: Pid) -> PerfCounters {
        let mut c = self.proc(pid).counters();
        let Some(f) = self.obs_faults else {
            self.obs_record(pid, ObsEventKind::CounterRead);
            return c;
        };
        let (roll, bits) = self.obs_roll(&f, pid, 0xc7c7);
        if roll < f.counter_garble {
            self.obs_record(pid, ObsEventKind::CounterGarbled);
            // Scale by a factor in [0.75, 1.25) derived from hash bits.
            let scale = |v: u64, b: u64| {
                let num = 768 + (b & 0x1ff); // [768, 1280) / 1024
                (v as u128 * u128::from(num) / 1024) as u64
            };
            c.instructions = scale(c.instructions, bits);
            c.branches = scale(c.branches, bits >> 9);
            c.llc_misses = scale(c.llc_misses, bits >> 18);
        } else {
            self.obs_record(pid, ObsEventKind::CounterRead);
        }
        c
    }

    /// Execution status of the process.
    pub fn status(&self, pid: Pid) -> ExecStatus {
        self.proc(pid).ctx().status()
    }

    /// Decoded-block cache effectiveness counters for a process. Unlike
    /// [`counters`](Os::counters) these are simulator-internal (they
    /// measure the interpreter, not the simulated machine), so
    /// observation faults never garble them.
    pub fn decode_stats(&self, pid: Pid) -> machine::DecodeStats {
        self.proc(pid).decode_stats()
    }

    /// Forces (or releases) the interpreter's always-decode fallback for
    /// one process: every dispatch re-decodes its block, uncached.
    /// Simulated results are bit-identical in either mode —
    /// this is the differential-testing reference path, not a semantic
    /// switch.
    pub fn set_decode_fallback(&mut self, pid: Pid, on: bool) {
        self.proc_mut(pid).blocks.set_fallback(on);
    }

    /// Cumulative application metric on `channel`.
    pub fn app_metric(&self, pid: Pid, channel: u8) -> i64 {
        self.proc(pid).metric(channel)
    }

    /// Tail-latency statistics over the process's recent queries (the
    /// paper's "99th percentile tail query latency" reporting interface).
    /// Returns `None` for batch processes or before any query completed.
    pub fn latency_stats(&self, pid: Pid) -> Option<LatencyStats> {
        let mut samples: Vec<u64> = self.proc(pid).latency_samples().collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        Some(LatencyStats {
            p50: pick(0.5),
            p99: pick(0.99),
            mean,
            count: samples.len(),
        })
    }

    /// Queued-but-unserved queries plus the one in service, if any — the
    /// instantaneous per-server queue depth a cluster scheduler samples.
    pub fn queue_depth(&self, pid: Pid) -> usize {
        let p = self.proc(pid);
        p.arrival_queue.len() + usize::from(p.in_service.is_some())
    }

    /// Shared-LLC lines currently owned by `pid`.
    pub fn llc_occupancy(&self, pid: Pid) -> usize {
        let space = u64::from(pid.0);
        let shift = 40 - self.config.machine.line_bytes.trailing_zeros();
        self.mem
            .llc_occupancy_where(move |line| (line >> shift) == space)
    }

    /// Reads `len` bytes of process data memory (shared-memory mapping).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (the runtime maps only valid
    /// regions).
    pub fn read_mem(&self, pid: Pid, addr: u64, len: usize) -> &[u8] {
        let p = self.proc(pid);
        &p.data[addr as usize..addr as usize + len]
    }

    /// Writes bytes into process data memory. An 8-byte aligned write is
    /// atomic with respect to process execution (the process only runs
    /// between quanta), which is what EVT redirection relies on.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_mem(&mut self, pid: Pid, addr: u64, bytes: &[u8]) {
        let p = self.proc_mut(pid);
        p.data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
    }

    /// Convenience: atomically writes a u64 (EVT slot update).
    pub fn write_u64(&mut self, pid: Pid, addr: u64, value: u64) {
        self.write_mem(pid, addr, &value.to_le_bytes());
    }

    /// Convenience: reads a u64.
    pub fn read_u64(&self, pid: Pid, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_mem(pid, addr, 8).try_into().expect("8 bytes"))
    }

    /// Appends code to the process's text space (the shared code cache),
    /// returning the address of the first appended instruction.
    pub fn append_text(&mut self, pid: Pid, ops: &[Op]) -> u32 {
        let p = self.proc_mut(pid);
        let base = p.text.len() as u32;
        p.text.extend_from_slice(ops);
        p.text_gen += 1;
        base
    }

    /// Total text length (image + code cache) of a process.
    pub fn text_len(&self, pid: Pid) -> u32 {
        self.proc(pid).text.len() as u32
    }

    /// Reads `len` instructions of process text (the mapping a runtime
    /// uses to checksum its code cache before dispatching into it).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_text(&self, pid: Pid, addr: u32, len: u32) -> &[Op] {
        &self.proc(pid).text[addr as usize..(addr + len) as usize]
    }

    /// Corrupts one instruction of process text — the fault-injection
    /// analogue of a flipped byte in the (shared, writable) code-cache
    /// mapping. The op at `addr` is replaced with a garbage immediate
    /// load derived from `garble`. Returns `false` (and does nothing) if
    /// `addr` is out of range.
    ///
    /// Intended for code-cache addresses (`addr >= image_text_len`);
    /// corrupting image text models a far more severe fault and is
    /// allowed but not something the self-healing layer can repair.
    pub fn corrupt_text(&mut self, pid: Pid, addr: u32, garble: u64) -> bool {
        let p = self.proc_mut(pid);
        let Some(slot) = p.text.get_mut(addr as usize) else {
            return false;
        };
        *slot = Op::Movi {
            dst: PReg((garble % 8) as u8),
            imm: (garble >> 3) as i64,
        };
        p.text_gen += 1;
        true
    }

    // ----------------------------------------------------------------
    // OSR park/transfer surface
    // ----------------------------------------------------------------

    /// Arms an OSR park request on `pid`: the context stops with
    /// [`ExecStatus::OsrParked`] immediately before the `hit`-th entry
    /// (1-based) into the block at `pc`, counted from now. Parked
    /// contexts idle in the scheduler (no cycles consumed, never woken
    /// by arrivals) until resumed or disarmed.
    pub fn osr_arm(&mut self, pid: Pid, pc: u32, hit: u64) {
        self.proc_mut(pid).ctx.osr_arm(pc, hit);
    }

    /// Cancels a pending or parked OSR request; a parked context
    /// resumes at the park PC with its frame untouched.
    pub fn osr_disarm(&mut self, pid: Pid) {
        let p = self.proc_mut(pid);
        p.ctx.osr_disarm();
        p.osr_parked_at = None;
    }

    /// PC of `pid`'s armed OSR request, if any.
    pub fn osr_armed(&self, pid: Pid) -> Option<u32> {
        self.proc(pid).ctx().osr_armed()
    }

    /// Entries into the armed park PC observed since arming.
    pub fn osr_hits(&self, pid: Pid) -> u64 {
        self.proc(pid).ctx().osr_hits()
    }

    /// True if `pid` is stopped at an OSR park point.
    pub fn is_osr_parked(&self, pid: Pid) -> bool {
        self.proc(pid).ctx().is_osr_parked()
    }

    /// Cycle at which `pid` parked, if it is currently parked (the
    /// park-to-resume latency baseline).
    pub fn osr_parked_since(&self, pid: Pid) -> Option<u64> {
        self.proc(pid).osr_parked_at
    }

    /// The innermost frame's register window of a parked context (what
    /// the runtime snapshots before a transfer so a detected misapply
    /// can be rolled back exactly).
    pub fn osr_frame(&self, pid: Pid) -> &[i64] {
        self.proc(pid).ctx().frame_regs()
    }

    /// Applies a transfer recipe to `pid`'s parked frame: zero-fill,
    /// then `moves` (`dst ← src` from the old window), then `consts` —
    /// the interpreter's transfer order. The context stays parked for
    /// post-apply verification. Returns false if not parked.
    pub fn osr_apply(&mut self, pid: Pid, moves: &[(PReg, PReg)], consts: &[(PReg, i64)]) -> bool {
        self.proc_mut(pid).ctx.osr_apply(moves, consts)
    }

    /// Overwrites `pid`'s parked frame window with a saved snapshot
    /// (misapply rollback). Returns false if not parked or the snapshot
    /// is not exactly one frame window.
    pub fn osr_restore(&mut self, pid: Pid, window: &[i64]) -> bool {
        self.proc_mut(pid).ctx.osr_restore(window)
    }

    /// Resumes a parked context at `target` and disarms the request.
    /// This is a pure context operation — no text mutation, no
    /// generation bump — so decoded blocks stay valid, exactly like an
    /// EVT patch. Returns false if not parked.
    pub fn osr_resume(&mut self, pid: Pid, target: u32) -> bool {
        let p = self.proc_mut(pid);
        let ok = p.ctx.osr_resume(target);
        if ok {
            p.osr_parked_at = None;
        }
        ok
    }

    // ----------------------------------------------------------------
    // Control surface
    // ----------------------------------------------------------------

    /// Sets the nap intensity (fraction of time descheduled) in [0, 1].
    pub fn set_nap(&mut self, pid: Pid, intensity: f64) {
        self.proc_mut(pid).nap_intensity = intensity.clamp(0.0, 1.0);
    }

    /// Freezes or thaws a process (the flux measurement mechanism: freeze
    /// the host briefly and observe co-runners running alone).
    pub fn set_frozen(&mut self, pid: Pid, frozen: bool) {
        self.proc_mut(pid).frozen = frozen;
    }

    /// Attaches an offered-load schedule; the process should park in
    /// [`Op::Wait`] between work items.
    pub fn set_load(&mut self, pid: Pid, schedule: LoadSchedule) {
        self.proc_mut(pid).load = Some(schedule);
    }

    /// Charges `cycles` of runtime work (e.g. dynamic compilation) to a
    /// core. If a process is pinned there, the work steals its cycles.
    pub fn charge_runtime(&mut self, core: usize, cycles: u64) {
        self.runtime_pending[core] += cycles;
    }

    /// Total runtime-work cycles consumed on `core` so far.
    pub fn runtime_consumed(&self, core: usize) -> u64 {
        self.runtime_consumed[core]
    }

    /// Total runtime-work cycles consumed across all cores.
    pub fn runtime_consumed_total(&self) -> u64 {
        self.runtime_consumed.iter().sum()
    }

    /// Total core-cycles elapsed (cores × time), the denominator of
    /// "fraction of server cycles" plots.
    pub fn server_cycles(&self) -> u64 {
        self.now * self.core_proc.len() as u64
    }

    // ----------------------------------------------------------------
    // Scheduling
    // ----------------------------------------------------------------

    /// Advances simulated time by `cycles`, interleaving all cores at
    /// quantum granularity.
    pub fn advance(&mut self, cycles: u64) {
        let end = self.now + cycles;
        // The per-quantum wall-time window is only needed to integrate
        // offered-load schedules; batch-only runs skip the conversions.
        let any_load = self.procs.iter().any(|p| p.load.is_some());
        while self.now < end {
            let q = self.config.quantum.min(end - self.now);
            let (t0, t1) = if any_load {
                (
                    self.config.machine.cycles_to_seconds(self.now),
                    self.config.machine.cycles_to_seconds(self.now + q),
                )
            } else {
                (0.0, 0.0)
            };
            for core in 0..self.core_proc.len() {
                let mut budget = q;
                // Runtime work shares the core with the pinned process.
                // When both want the core, scheduling is fair (half the
                // quantum each) rather than preemptive — a saturated
                // same-core compiler halves the host instead of starving
                // it, as on a real OS.
                if self.runtime_pending[core] > 0 {
                    let cap = if self.core_proc[core].is_some() {
                        q / 2
                    } else {
                        q
                    };
                    let used = self.runtime_pending[core].min(cap);
                    self.runtime_pending[core] -= used;
                    self.runtime_consumed[core] += used;
                    budget -= used;
                }
                let Some(pid) = self.core_proc[core] else {
                    continue;
                };
                let i = pid.index() - 1;
                // Split borrows: process vs memory system.
                let (procs, mem) = (&mut self.procs, &mut self.mem);
                let p = &mut procs[i];
                // Integrate offered load over this quantum. Whole arrivals
                // are timestamped for latency accounting; a bounded queue
                // sheds excess (an overloaded server drops, it does not
                // accumulate unbounded backlog).
                if let Some(load) = &p.load {
                    p.pending_work += load.arrivals_between(t0, t1);
                    while p.pending_work >= 1.0 && p.arrival_queue.len() < 64 {
                        p.pending_work -= 1.0;
                        p.arrival_queue.push_back(self.now);
                    }
                    if p.pending_work >= 1.0 {
                        p.pending_work = p.pending_work.fract(); // shed
                    }
                }
                if budget == 0 {
                    continue;
                }
                if p.frozen {
                    p.napped_cycles += budget;
                    continue;
                }
                let napped = {
                    let intensity = p.nap_intensity;
                    if intensity <= 0.0 {
                        false
                    } else if intensity >= 1.0 {
                        true
                    } else {
                        let phase = (self.now % self.config.nap_period) as f64
                            / self.config.nap_period as f64;
                        phase < intensity
                    }
                };
                if napped {
                    p.napped_cycles += budget;
                    continue;
                }
                // Run, waking a parked server while work is pending.
                let budget0 = budget;
                loop {
                    if !p.ctx.is_running() {
                        if p.ctx.status() == ExecStatus::Waiting {
                            if let Some(arrived) = p.arrival_queue.pop_front() {
                                p.in_service = Some(arrived);
                                p.ctx.wake();
                            } else {
                                p.idle_cycles += budget;
                                break;
                            }
                        } else {
                            p.idle_cycles += budget;
                            break;
                        }
                    }
                    let mut env = ExecEnv {
                        text: &p.text,
                        text_gen: p.text_gen,
                        blocks: &mut p.blocks,
                        data: &mut p.data,
                        mem,
                        core,
                        counters: &mut p.counters,
                        costs: CostModel::default(),
                    };
                    let res = exec::run(&mut p.ctx, &mut env, budget);
                    budget = budget.saturating_sub(res.cycles);
                    // Drain application metrics.
                    for (ch, v) in p.ctx.reports.drain(..) {
                        p.metrics[ch as usize % crate::METRIC_CHANNELS] += v;
                    }
                    if matches!(res.stop, exec::StopReason::OsrParked) && p.osr_parked_at.is_none()
                    {
                        // Timestamp the park at the cycle it happened
                        // (quantum start plus cycles consumed so far).
                        p.osr_parked_at = Some(self.now + (budget0 - budget));
                    }
                    if matches!(res.stop, exec::StopReason::Waiting) {
                        // A query completed: record its sojourn time.
                        if let Some(arrived) = p.in_service.take() {
                            if p.latency_samples.len() >= 1024 {
                                p.latency_samples.pop_front();
                            }
                            p.latency_samples
                                .push_back(self.now.saturating_sub(arrived));
                        }
                    }
                    if budget == 0 || !matches!(res.stop, exec::StopReason::Waiting) {
                        break;
                    }
                }
            }
            self.now += q;
        }
    }

    /// Advances by a simulated duration in seconds.
    pub fn advance_seconds(&mut self, secs: f64) {
        let cycles = self.config.machine.seconds_to_cycles(secs);
        self.advance(cycles);
    }

    /// Fast-forwards simulated time by `cycles` without running the
    /// quantum loop, provided nothing could possibly execute over the
    /// span. Returns `false` (and advances nothing) when any core might
    /// do work, in which case the caller must use [`advance`](Os::advance).
    ///
    /// The skip replicates `advance`'s accounting exactly — frozen
    /// processes accrue `napped_cycles`, everything else accrues
    /// `idle_cycles` — so a skipped span is bit-identical to a stepped
    /// one. That invariant is what lets a cluster simulator park a
    /// server's cycle-box and later reconcile it with a server that
    /// idled through the same span quantum by quantum.
    pub fn skip_idle(&mut self, cycles: u64) -> bool {
        if cycles == 0 {
            return true;
        }
        // Pending runtime work would consume core cycles.
        if self.runtime_pending.iter().any(|&c| c > 0) {
            return false;
        }
        let t0 = self.config.machine.cycles_to_seconds(self.now);
        let t1 = self.config.machine.cycles_to_seconds(self.now + cycles);
        for &pid in self.core_proc.iter().flatten() {
            let p = &self.procs[pid.index() - 1];
            if p.frozen {
                continue; // accrues napped_cycles regardless of state
            }
            // A nap duty cycle would split the span between napped and
            // idle accounting; don't try to replicate the phase math.
            if p.nap_intensity > 0.0 {
                return false;
            }
            if let Some(load) = &p.load {
                // Exact piecewise integration of a non-negative rate:
                // a whole-span integral of exactly zero means every
                // sub-quantum integral is exactly zero too, so skipping
                // leaves `pending_work` bit-identical.
                if load.arrivals_between(t0, t1) != 0.0 || p.pending_work >= 1.0 {
                    return false;
                }
            }
            let runnable = p.ctx.is_running()
                || (p.ctx.status() == ExecStatus::Waiting && !p.arrival_queue.is_empty());
            if runnable {
                return false;
            }
        }
        // Nothing can run: apply the same accounting `advance` would.
        for &pid in self.core_proc.iter().flatten() {
            let p = &mut self.procs[pid.index() - 1];
            if p.frozen {
                p.napped_cycles += cycles;
            } else {
                p.idle_cycles += cycles;
            }
        }
        self.now += cycles;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::FuncId;
    use visa::{FuncSym, PReg};

    /// An endless compute loop touching a configurable number of distinct
    /// cache lines per pass.
    fn spinner(name: &str, lines: i64) -> Image {
        let text = vec![
            // r0 = addr cursor, r1 = limit
            Op::Movi {
                dst: PReg(0),
                imm: 64,
            },
            Op::Movi {
                dst: PReg(1),
                imm: 64 + lines * 64,
            },
            // loop:
            Op::Load {
                dst: PReg(2),
                base: PReg(0),
                offset: 0,
            },
            Op::AluImm {
                op: pir::BinOp::Add,
                dst: PReg(0),
                a: PReg(0),
                imm: 64,
            },
            Op::Alu {
                op: pir::BinOp::Lt,
                dst: PReg(3),
                a: PReg(0),
                b: PReg(1),
            },
            Op::Bnz {
                cond: PReg(3),
                target: 2,
            },
            Op::Jmp { target: 0 },
        ];
        Image {
            name: name.into(),
            entry: 0,
            text,
            data: vec![0u8; (64 + lines * 64 + 64) as usize],
            funcs: vec![FuncSym {
                name: "main".into(),
                func: FuncId(0),
                start: 0,
                len: 7,
            }],
            globals: vec![],
            evt: vec![],
            meta: None,
        }
    }

    /// A server: waits, does a fixed chunk of work, reports one query.
    fn server(name: &str) -> Image {
        let text = vec![
            // loop: wait; r0 = 64; inner: load; add; lt; bnz; report; jmp
            Op::Wait,
            Op::Movi {
                dst: PReg(0),
                imm: 64,
            },
            Op::Load {
                dst: PReg(1),
                base: PReg(0),
                offset: 0,
            },
            Op::AluImm {
                op: pir::BinOp::Add,
                dst: PReg(0),
                a: PReg(0),
                imm: 64,
            },
            Op::AluImm {
                op: pir::BinOp::Lt,
                dst: PReg(2),
                a: PReg(0),
                imm: 64 * 32,
            },
            Op::Bnz {
                cond: PReg(2),
                target: 2,
            },
            Op::Movi {
                dst: PReg(3),
                imm: 1,
            },
            Op::Report {
                channel: 0,
                src: PReg(3),
            },
            Op::Jmp { target: 0 },
        ];
        Image {
            name: name.into(),
            entry: 0,
            text,
            data: vec![0u8; 64 * 40],
            funcs: vec![FuncSym {
                name: "serve".into(),
                func: FuncId(0),
                start: 0,
                len: 9,
            }],
            globals: vec![],
            evt: vec![],
            meta: None,
        }
    }

    #[test]
    fn batch_process_progresses() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 8), 0);
        os.advance(100_000);
        let c = os.counters(pid);
        assert!(c.instructions > 1000, "got {} instructions", c.instructions);
        assert!(c.cycles > 0);
        assert!(os.sample_pc(pid) < 7);
    }

    #[test]
    fn napping_slows_progress_proportionally() {
        let progress = |nap: f64| {
            let mut os = Os::new(OsConfig::small());
            let pid = os.spawn(&spinner("a", 4), 0);
            os.set_nap(pid, nap);
            os.advance(1_000_000);
            os.counters(pid).instructions
        };
        let full = progress(0.0);
        let half = progress(0.5);
        let tenth = progress(0.9);
        let ratio_half = half as f64 / full as f64;
        let ratio_tenth = tenth as f64 / full as f64;
        assert!(
            (ratio_half - 0.5).abs() < 0.1,
            "50% nap gave ratio {ratio_half}"
        );
        assert!(
            (ratio_tenth - 0.1).abs() < 0.05,
            "90% nap gave ratio {ratio_tenth}"
        );
    }

    #[test]
    fn freeze_stops_execution_entirely() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 4), 0);
        os.advance(10_000);
        let before = os.counters(pid).instructions;
        os.set_frozen(pid, true);
        os.advance(100_000);
        assert_eq!(os.counters(pid).instructions, before);
        os.set_frozen(pid, false);
        os.advance(10_000);
        assert!(os.counters(pid).instructions > before);
    }

    #[test]
    fn server_throughput_tracks_offered_load() {
        let served_at = |qps: f64| {
            let mut os = Os::new(OsConfig::small());
            let pid = os.spawn(&server("ws"), 0);
            os.set_load(pid, LoadSchedule::constant(qps));
            os.advance_seconds(10.0);
            os.app_metric(pid, 0)
        };
        let low = served_at(5.0);
        let high = served_at(20.0);
        assert!(
            (low - 50).abs() <= 2,
            "5 qps * 10 s should serve ~50, got {low}"
        );
        assert!(
            (high - 200).abs() <= 5,
            "20 qps * 10 s should serve ~200, got {high}"
        );
    }

    #[test]
    fn overloaded_server_saturates() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&server("ws"), 0);
        os.set_load(pid, LoadSchedule::constant(1e9));
        os.advance_seconds(1.0);
        let served = os.app_metric(pid, 0);
        // Capacity-bound, far below offered.
        assert!(served > 0);
        assert!((served as f64) < 1e8);
    }

    #[test]
    fn runtime_charge_steals_from_same_core_only() {
        let run = |charge_core: Option<usize>| {
            let mut os = Os::new(OsConfig::small());
            let pid = os.spawn(&spinner("a", 4), 0);
            if let Some(c) = charge_core {
                // Saturate the core with runtime work for half the window.
                os.charge_runtime(c, 500_000);
            }
            os.advance(1_000_000);
            os.counters(pid).instructions
        };
        let clean = run(None);
        let same = run(Some(0));
        let separate = run(Some(1));
        assert!(
            (same as f64) < 0.6 * clean as f64,
            "same-core runtime work should steal cycles: {same} vs {clean}"
        );
        assert_eq!(
            separate, clean,
            "separate-core runtime work must not perturb the host"
        );
    }

    #[test]
    fn runtime_cycles_accounted() {
        let mut os = Os::new(OsConfig::small());
        os.charge_runtime(1, 12_345);
        os.advance(1_000_000);
        assert_eq!(os.runtime_consumed(1), 12_345);
        assert_eq!(os.runtime_consumed_total(), 12_345);
        assert_eq!(os.server_cycles(), 2_000_000); // 2 cores x 1M cycles
    }

    #[test]
    fn co_runner_contention_slows_both() {
        // Two processes with LLC-sized working sets contend; each must be
        // slower than when running alone.
        let solo = {
            let mut os = Os::new(OsConfig::small());
            let pid = os.spawn(&spinner("a", 96), 0);
            os.advance(2_000_000);
            os.counters(pid).instructions
        };
        let mut os = Os::new(OsConfig::small());
        let a = os.spawn(&spinner("a", 96), 0);
        let b = os.spawn(&spinner("b", 96), 1);
        os.advance(2_000_000);
        let ia = os.counters(a).instructions;
        let ib = os.counters(b).instructions;
        assert!(ia < solo, "contended run should be slower: {ia} vs {solo}");
        assert!(ib < solo);
    }

    #[test]
    fn write_u64_patches_memory_atomically() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 2), 0);
        os.write_u64(pid, 128, 0xdead_beef);
        assert_eq!(os.read_u64(pid, 128), 0xdead_beef);
    }

    #[test]
    fn append_text_returns_code_cache_base() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 2), 0);
        let img_len = os.text_len(pid);
        let base = os.append_text(pid, &[Op::Halt, Op::Halt]);
        assert_eq!(base, img_len);
        assert_eq!(os.text_len(pid), img_len + 2);
    }

    #[test]
    fn kill_frees_core_and_stops_process() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 2), 0);
        os.advance(10_000);
        os.kill(pid);
        let before = os.counters(pid).instructions;
        os.advance(10_000);
        assert_eq!(os.counters(pid).instructions, before);
        // Core is reusable.
        let pid2 = os.spawn(&spinner("b", 2), 0);
        os.advance(10_000);
        assert!(os.counters(pid2).instructions > 0);
    }

    #[test]
    #[should_panic(expected = "already runs")]
    fn double_pin_rejected() {
        let mut os = Os::new(OsConfig::small());
        os.spawn(&spinner("a", 2), 0);
        os.spawn(&spinner("b", 2), 0);
    }

    #[test]
    fn llc_occupancy_visible_per_process() {
        let mut os = Os::new(OsConfig::small());
        let a = os.spawn(&spinner("a", 64), 0);
        os.advance(500_000);
        assert!(os.llc_occupancy(a) > 0);
    }

    #[test]
    fn obs_faults_drop_and_garble_pc_samples_deterministically() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 4), 0);
        os.set_obs_faults(Some(ObsFaults {
            seed: 7,
            pc_drop: 0.5,
            pc_garble: 0.0,
            counter_garble: 0.0,
        }));
        let mut dropped = 0;
        let mut samples = Vec::new();
        for _ in 0..200 {
            os.advance(997);
            let pc = os.sample_pc(pid);
            samples.push(pc);
            if pc == u32::MAX {
                dropped += 1;
            } else {
                assert!(pc < 7, "non-dropped samples stay in text: {pc}");
            }
        }
        assert!(
            (60..=140).contains(&dropped),
            "~50% of samples should drop, got {dropped}/200"
        );
        // Same fault config at the same times reproduces the schedule.
        assert_eq!(os.sample_pc(pid), os.sample_pc(pid));
        // Disabling restores clean reads.
        os.set_obs_faults(None);
        assert!(os.sample_pc(pid) < 7);
    }

    #[test]
    fn obs_faults_perturb_counter_reads_but_not_execution() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 4), 0);
        os.advance(200_000);
        let clean = {
            let mut clean_os_view = os.counters(pid);
            os.set_obs_faults(Some(ObsFaults {
                seed: 3,
                pc_drop: 0.0,
                pc_garble: 0.0,
                counter_garble: 1.0,
            }));
            let garbled = os.counters(pid);
            assert_ne!(
                garbled.instructions, clean_os_view.instructions,
                "an always-garbled read must differ"
            );
            // Perturbation is bounded to ±25%.
            let ratio = garbled.instructions as f64 / clean_os_view.instructions as f64;
            assert!((0.74..=1.26).contains(&ratio), "ratio {ratio}");
            os.set_obs_faults(None);
            clean_os_view = os.counters(pid);
            clean_os_view
        };
        // The underlying counters kept their true values.
        os.advance(1);
        assert!(os.counters(pid).instructions >= clean.instructions);
    }

    #[test]
    fn skip_idle_matches_advance_bit_for_bit() {
        let run = |skip: bool| {
            let mut os = Os::new(OsConfig::small());
            let pid = os.spawn(&server("s"), 0);
            os.set_load(pid, LoadSchedule::constant(50.0));
            // Serve some queries so caches and counters hold real state.
            os.advance(400_000);
            os.set_load(pid, LoadSchedule::constant(0.0));
            os.advance(100_000); // drain the queue
            if skip {
                assert!(os.skip_idle(2_000_000), "idle server must be skippable");
            } else {
                os.advance(2_000_000);
            }
            // Resume load after the idle span.
            os.set_load(pid, LoadSchedule::constant(50.0));
            os.advance(400_000);
            (
                os.now(),
                os.counters(pid),
                os.app_metric(pid, 0),
                os.proc(pid).idle_cycles(),
                os.proc(pid).napped_cycles(),
                os.latency_stats(pid).map(|l| (l.p50, l.p99, l.count)),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn skip_idle_refuses_when_work_is_possible() {
        // A batch spinner is always runnable.
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 4), 0);
        let before = os.now();
        assert!(!os.skip_idle(1_000));
        assert_eq!(os.now(), before);
        // A loaded server with arrivals due over the span is not skippable.
        let mut os = Os::new(OsConfig::small());
        let pid2 = os.spawn(&server("s"), 0);
        os.advance(1_000); // reach the Wait
        os.set_load(pid2, LoadSchedule::constant(100.0));
        assert!(!os.skip_idle(1_000_000));
        // A frozen process accrues napped cycles across a skip.
        os.set_load(pid2, LoadSchedule::constant(0.0));
        os.set_frozen(pid2, true);
        let napped = os.proc(pid2).napped_cycles();
        assert!(os.skip_idle(10_000));
        assert_eq!(os.proc(pid2).napped_cycles(), napped + 10_000);
        let _ = pid;
    }

    #[test]
    fn corrupt_text_mangles_one_op_in_bounds_only() {
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&spinner("a", 2), 0);
        let base = os.append_text(pid, &[Op::Halt, Op::Halt]);
        assert!(os.corrupt_text(pid, base + 1, 0xdead));
        assert_eq!(os.read_text(pid, base, 2)[0], Op::Halt);
        assert!(matches!(os.read_text(pid, base, 2)[1], Op::Movi { .. }));
        assert!(!os.corrupt_text(pid, os.text_len(pid), 1));
    }
}
