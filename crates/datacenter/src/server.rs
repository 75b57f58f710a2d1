//! One simulated server: a lazily instantiated cycle-accurate box.
//!
//! A [`Server`] starts as a bare record — no machine, no caches, no
//! processes. The first time the cluster activates it, it instantiates a
//! [`simos::Os`] cycle-box (the expensive part), spawns its
//! latency-sensitive service and, when co-located, a batch host under a
//! per-server PC3D controller. While parked, the box is retained but
//! never stepped; on reactivation (or at end of run) the gap is
//! reconciled with [`Os::skip_idle`], whose accounting is bit-identical
//! to stepping through the idle span — so a lazily parked server is
//! indistinguishable from an always-active one.
//!
//! Energy accounting integrates the linear power model over the
//! server's own measured busy fraction; because the model is linear the
//! integral collapses to a pure function of the exact cycle totals, so
//! per-server results are independent both of how the cluster fans
//! servers out across host threads and of how idle time was partitioned
//! into spans.

use machine::{CacheConfig, ExecStatus, MachineConfig};
use pc3d::{Pc3d, Pc3dConfig};
use protean::{Runtime, RuntimeConfig};
use simos::{LoadSchedule, Os, OsConfig, Pid};
use visa::Image;

use crate::analytic::PowerModel;
use crate::event::Cycles;

/// The scaled-down server machine used for cluster members: the paper's
/// quad-core shape with caches shrunk a further 2x and a 4x slower time
/// base, so a thousand-server cluster fits in one address space while
/// each query still exercises real cache contention.
pub fn server_machine() -> MachineConfig {
    let mut mc = MachineConfig::scaled();
    mc.cycles_per_second = 250_000;
    mc.l1 = CacheConfig { sets: 8, ways: 2 };
    mc.l2 = CacheConfig { sets: 16, ways: 4 };
    mc.l3 = CacheConfig { sets: 32, ways: 8 };
    mc
}

/// The OS configuration wrapping [`server_machine`].
pub fn server_os_config() -> OsConfig {
    OsConfig {
        machine: server_machine(),
        quantum: 1_000,
        nap_period: 50_000,
    }
}

/// Compiles a catalog workload for the server machine. `protean`
/// selects the transformable compile (required for batch hosts that
/// attach a runtime); plain images are for LS services and solo
/// calibration boxes.
///
/// # Panics
///
/// Panics on an unknown workload name or a compile failure.
pub fn compile_app(name: &str, protean: bool) -> Image {
    let mc = server_machine();
    let llc_lines = mc.llc_bytes() / mc.line_bytes;
    let opts = if protean {
        pcc::Options::protean()
    } else {
        pcc::Options::plain()
    };
    let module = workloads::catalog::build(name, llc_lines)
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    pcc::Compiler::new(opts)
        .compile(&module)
        .expect("compile workload")
        .image
}

/// Per-server static configuration, shared by every server in a group.
#[derive(Clone, Debug)]
pub struct ServerSpec {
    /// The latency-sensitive service this server runs.
    pub ls_app: &'static str,
    /// PC3D controller configuration for co-located batch work.
    pub pc3d: Pc3dConfig,
    /// Linear power model integrated into energy.
    pub power: PowerModel,
    /// Branches per accounting "job unit" for pinned batch streams.
    pub job_branches: u64,
}

/// A harvested batch slot's contribution after the host was killed.
#[derive(Copy, Clone, Debug, Default)]
struct Harvest {
    branches: u64,
}

/// The live batch co-runner on a server.
struct BatchSlot {
    app: String,
    pid: Pid,
    ctl: Pc3d,
    /// Branch count at job start (Jobs mode) for quota tracking.
    start_branches: u64,
    /// Branch quota that completes the current job; `None` for a pinned
    /// stream (completions are counted in `job_branches` units).
    quota: Option<u64>,
}

/// The lazily created cycle-accurate part of a server.
struct CycleBox {
    os: Os,
    ls: Pid,
    batch: Option<BatchSlot>,
    harvested: Harvest,
}

impl CycleBox {
    /// Total busy cycles across all processes plus runtime work.
    fn busy_cycles(&self) -> u64 {
        let procs: u64 = self.os.procs().iter().map(|p| p.counters().cycles).sum();
        procs + self.os.runtime_consumed_total()
    }

    /// Cumulative batch branches, including killed hosts.
    fn batch_branches(&self) -> u64 {
        let live = self
            .batch
            .as_ref()
            .map_or(0, |b| self.os.proc(b.pid).counters().branches);
        live + self.harvested.branches
    }
}

/// Cumulative per-server accounting, all in simulated units.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Queries served by the LS service.
    pub queries: i64,
    /// Cumulative busy cycles (all cores, including runtime work).
    pub busy_cycles: u64,
    /// Cycles the server existed for (box time plus reconciled gaps).
    pub lifetime_cycles: u64,
    /// Energy under the linear power model, joules (set by
    /// [`Server::finalize`]).
    pub energy_joules: f64,
    /// Batch branches executed (all hosts ever resident).
    pub batch_branches: u64,
    /// Batch job completions (quota crossings).
    pub jobs_completed: u64,
    /// Times the server went from parked to active.
    pub activations: u64,
    /// Times the server was parked.
    pub parks: u64,
    /// Idle cycles reconciled via `skip_idle` instead of stepping.
    pub idle_skipped_cycles: u64,
    /// PC3D steady-state windows that missed the QoS target.
    pub qos_violations: u64,
}

/// What one epoch's advance produced, read serially by the cluster.
#[derive(Copy, Clone, Debug, Default)]
pub struct EpochReport {
    /// Queries served this epoch.
    pub queries: i64,
    /// Batch job-units completed this epoch.
    pub jobs_completed: u64,
    /// Busy fraction over the epoch (0..1, all cores).
    pub busy_frac: f64,
    /// LS queue depth at the epoch boundary.
    pub queue_depth: usize,
    /// Whether the LS service is fully drained (idle, empty queue).
    pub drained: bool,
}

/// One simulated server.
pub struct Server {
    id: usize,
    group: usize,
    spec: ServerSpec,
    box_: Option<Box<CycleBox>>,
    /// Cluster time at which the box was created (box-local cycle 0).
    base: Cycles,
    active: bool,
    ls_qps: f64,
    stats: ServerStats,
    last: EpochReport,
    /// Job-units already credited (pinned streams).
    credited_units: u64,
    /// LS queries already folded into `stats.queries` (absolute counter
    /// value at the last harvest).
    counted_queries: i64,
    /// Jobs-mode completions pending pickup: (app, wait ticket unused).
    completed_job: Option<String>,
}

impl Server {
    /// A bare, unprovisioned server record.
    pub fn new(id: usize, group: usize, spec: ServerSpec) -> Self {
        Server {
            id,
            group,
            spec,
            box_: None,
            base: 0,
            active: false,
            ls_qps: 0.0,
            stats: ServerStats::default(),
            last: EpochReport::default(),
            credited_units: 0,
            counted_queries: 0,
            completed_job: None,
        }
    }

    /// Server id (stable, assigned by the cluster).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Group index this server belongs to.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Whether the server is currently active (being stepped).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the cycle-box has ever been instantiated.
    pub fn provisioned(&self) -> bool {
        self.box_.is_some()
    }

    /// Whether a batch host is currently resident.
    pub fn has_batch(&self) -> bool {
        self.box_.as_ref().is_some_and(|b| b.batch.is_some())
    }

    /// The LS qps currently assigned by the balancer.
    pub fn ls_qps(&self) -> f64 {
        self.ls_qps
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The last epoch's report.
    pub fn last_epoch(&self) -> EpochReport {
        self.last
    }

    /// Takes the Jobs-mode completion recorded at the last epoch, if any.
    pub fn take_completed_job(&mut self) -> Option<String> {
        self.completed_job.take()
    }

    /// Runs `f` over the box while accounting busy and lifetime cycles
    /// for whatever span it advances. Energy is *not* integrated here:
    /// under a linear power model the span-by-span integral
    /// `Σ P(uᵢ)·dtᵢ` telescopes to a pure function of the exact integer
    /// totals (see [`finalize`](Server::finalize)), which keeps a
    /// parked-and-skipped server bit-identical to an always-active one
    /// no matter how its idle time was partitioned into spans.
    fn timed<F: FnOnce(&mut CycleBox)>(&mut self, f: F) {
        let b = self.box_.as_mut().expect("timed() without a box");
        let busy0 = b.busy_cycles();
        let t0 = b.os.now();
        f(b);
        let dt = b.os.now() - t0;
        if dt == 0 {
            return;
        }
        self.stats.busy_cycles += b.busy_cycles() - busy0;
        self.stats.lifetime_cycles += dt;
    }

    /// Folds LS queries served since the last harvest into the
    /// cumulative stats, returning the delta. Queries are read from the
    /// service's absolute counter rather than accumulated span by span,
    /// so serving that happens outside an epoch advance (e.g. during
    /// activation reconciles at load-step boundaries) is counted too.
    fn harvest_queries(&mut self) -> i64 {
        let Some(b) = self.box_.as_ref() else {
            return 0;
        };
        let served = b.os.app_metric(b.ls, 0);
        let delta = served - self.counted_queries;
        self.counted_queries = served;
        self.stats.queries += delta;
        delta
    }

    /// Creates the cycle-box if it does not exist yet. `ls_image` is the
    /// compiled LS service binary (cached at the cluster level).
    pub(crate) fn ensure_box(&mut self, cluster_now: Cycles, ls_image: &Image) {
        if self.box_.is_some() {
            return;
        }
        let mut os = Os::new(server_os_config());
        let ls = os.spawn(ls_image, 0);
        os.set_load(ls, LoadSchedule::constant(0.0));
        self.box_ = Some(Box::new(CycleBox {
            os,
            ls,
            batch: None,
            harvested: Harvest::default(),
        }));
        self.base = cluster_now;
    }

    /// Whether the box exists and its local clock is behind `cluster_now`,
    /// i.e. whether [`reconcile`](Server::reconcile) would advance it.
    pub(crate) fn behind(&self, cluster_now: Cycles) -> bool {
        self.box_
            .as_ref()
            .is_some_and(|b| b.os.now() < cluster_now - self.base)
    }

    /// Brings the box's local clock up to `cluster_now`, skipping the
    /// idle span when provably nothing could run and otherwise stepping
    /// it bare, outside any PC3D controller.
    pub(crate) fn reconcile(&mut self, cluster_now: Cycles) {
        let Some(b) = self.box_.as_ref() else {
            return;
        };
        let target = cluster_now - self.base;
        if b.os.now() >= target {
            return;
        }
        let span = target - b.os.now();
        let mut skipped = 0;
        self.timed(|b| {
            let gap = target - b.os.now();
            if b.os.skip_idle(gap) {
                skipped = gap;
            } else {
                // Something could still run (e.g. a not-quite-drained
                // queue): fall back to stepping, bit-identical anyway.
                b.os.advance(gap);
            }
        });
        self.stats.idle_skipped_cycles += skipped;
        debug_assert!(span > 0);
    }

    /// Activates the server at `cluster_now`, creating the box on first
    /// use and reconciling any parked gap. The cluster's balancer runs
    /// the same three steps itself, fanning the reconciles out.
    pub fn activate(&mut self, cluster_now: Cycles, ls_image: &Image) {
        self.ensure_box(cluster_now, ls_image);
        self.reconcile(cluster_now);
        self.mark_active();
    }

    /// Flips the server to active, counting a parked → active transition.
    pub(crate) fn mark_active(&mut self) {
        if !self.active {
            self.active = true;
            self.stats.activations += 1;
        }
    }

    /// Parks the server: its box is retained but no longer stepped.
    /// Callers should only park drained servers (the balancer checks
    /// [`EpochReport::drained`]); a non-drained park is still correct,
    /// just reconciled by stepping instead of skipping.
    pub fn park(&mut self) {
        if self.active {
            self.active = false;
            self.stats.parks += 1;
        }
    }

    /// Sets the balancer-assigned LS load, effective immediately.
    pub fn set_ls_qps(&mut self, qps: f64) {
        self.ls_qps = qps;
        if let Some(b) = self.box_.as_mut() {
            let ls = b.ls;
            b.os.set_load(ls, LoadSchedule::constant(qps));
        }
    }

    /// Installs a batch host running `app` under a fresh PC3D
    /// controller. `quota` bounds the current job in branches (Jobs
    /// mode); `None` means a pinned stream accounted in
    /// [`ServerSpec::job_branches`] units.
    ///
    /// # Panics
    ///
    /// Panics if a batch host is already resident.
    pub fn start_batch(
        &mut self,
        cluster_now: Cycles,
        ls_image: &Image,
        batch_image: &Image,
        app: &str,
        quota: Option<u64>,
    ) {
        self.activate(cluster_now, ls_image);
        let spec_pc3d = self.spec.pc3d;
        let app = app.to_string();
        self.timed(|b| {
            assert!(b.batch.is_none(), "batch slot already occupied");
            let pid = b.os.spawn(batch_image, 1);
            let rt = Runtime::attach(&b.os, pid, RuntimeConfig::on_core(2))
                .expect("attach runtime to batch host");
            let ext = b.ls;
            // The controller's constructor performs its initial flux
            // measurement, advancing the box; `timed` charges it.
            let ctl = Pc3d::new(&mut b.os, rt, ext, spec_pc3d);
            let start_branches = b.os.proc(pid).counters().branches;
            b.batch = Some(BatchSlot {
                app,
                pid,
                ctl,
                start_branches,
                quota,
            });
        });
    }

    /// Tears down the current batch host (Jobs mode completion),
    /// harvesting its branch count and QoS record.
    fn finish_batch(&mut self) -> Option<String> {
        let spec = &self.spec;
        let qos_floor = protean::nap::effective_target(spec.pc3d.qos_target);
        let b = self.box_.as_mut()?;
        let slot = b.batch.take()?;
        let branches = b.os.proc(slot.pid).counters().branches;
        b.harvested.branches += branches;
        self.stats.qos_violations += slot
            .ctl
            .history()
            .iter()
            .filter(|w| !w.searching && w.qos < qos_floor)
            .count() as u64;
        let mut ctl = slot.ctl;
        ctl.force_detach(&mut b.os);
        b.os.kill(slot.pid);
        Some(slot.app)
    }

    /// Advances the box to cluster time `target`. For servers with a
    /// batch host the PC3D controller drives the advance (and may
    /// overshoot by up to one control window — later epochs absorb it);
    /// LS-only servers step the exact cycle count.
    pub fn advance_to(&mut self, target: Cycles) {
        if !self.active {
            return;
        }
        let Some(b) = self.box_.as_ref() else {
            return;
        };
        let local_target = target - self.base;
        let t0 = b.os.now();
        let jobs0 = self.stats.jobs_completed;
        let busy0 = self.stats.busy_cycles;
        if b.os.now() < local_target {
            let has_ctl = b.batch.is_some();
            self.timed(|b| {
                if has_ctl {
                    let secs = (local_target - b.os.now()) as f64
                        / b.os.config().machine.cycles_per_second as f64;
                    let slot = b.batch.as_mut().expect("has_ctl");
                    slot.ctl.run_for(&mut b.os, secs);
                } else {
                    let gap = local_target - b.os.now();
                    // An idle span with zero assigned load skips whole.
                    if !b.os.skip_idle(gap) {
                        b.os.advance(gap);
                    }
                }
            });
        }
        // Credit pinned-stream job units and detect Jobs-mode quota.
        let (quota_done, pinned_units) = {
            let b = self.box_.as_ref().expect("box survived advance");
            match &b.batch {
                Some(slot) => match slot.quota {
                    Some(q) => {
                        let live = b.os.proc(slot.pid).counters().branches;
                        (live.saturating_sub(slot.start_branches) >= q, None)
                    }
                    None => (false, Some(b.batch_branches() / self.spec.job_branches)),
                },
                None => (false, None),
            }
        };
        if quota_done {
            self.stats.jobs_completed += 1;
            self.completed_job = self.finish_batch();
        }
        if let Some(units) = pinned_units {
            if units > self.credited_units {
                self.stats.jobs_completed += units - self.credited_units;
                self.credited_units = units;
            }
        }
        let b = self.box_.as_ref().expect("box survived completion");
        self.stats.batch_branches = b.batch_branches();
        let dt = b.os.now() - t0;
        let cores = b.os.config().machine.cores as f64;
        let queue_depth = b.os.queue_depth(b.ls);
        let drained = queue_depth == 0 && b.os.status(b.ls) == ExecStatus::Waiting;
        let queries = self.harvest_queries();
        self.last = EpochReport {
            queries,
            jobs_completed: self.stats.jobs_completed - jobs0,
            busy_frac: if dt == 0 {
                0.0
            } else {
                (self.stats.busy_cycles - busy0) as f64 / (dt as f64 * cores)
            },
            queue_depth,
            drained,
        };
    }

    /// Final reconciliation at end of run: parks are caught up, live
    /// PC3D QoS history is folded into the violation count, and the
    /// p99 latency of the LS service is returned (cycles) if measured.
    pub fn finalize(&mut self, cluster_end: Cycles, total_duration_secs: f64) -> Option<u64> {
        // Energy under the linear model: the span-by-span integral
        // `Σ [idle + slope·busyᵢ/(dtᵢ·cores)]·dtᵢ/cps` telescopes to
        // idle·T + slope·busy_total/(cores·cps) exactly, so computing it
        // once from the integer totals is both partition-invariant (a
        // parked server matches an always-active one bit for bit) and
        // covers pre-provisioning and parked spans uniformly as idle
        // time.
        let power = self.spec.power;
        let mc = server_machine();
        let cps = mc.cycles_per_second as f64;
        let slope = power.peak_watts - power.idle_watts;
        if self.box_.is_none() {
            // Never provisioned: the server existed, idle, for the whole
            // run.
            self.stats.lifetime_cycles = (total_duration_secs * cps).round() as u64;
            self.stats.energy_joules = power.idle_watts * total_duration_secs;
            return None;
        }
        self.reconcile(cluster_end);
        self.harvest_queries();
        let qos_floor = protean::nap::effective_target(self.spec.pc3d.qos_target);
        let b = self.box_.as_mut().expect("box exists");
        if let Some(slot) = &b.batch {
            self.stats.qos_violations += slot
                .ctl
                .history()
                .iter()
                .filter(|w| !w.searching && w.qos < qos_floor)
                .count() as u64;
        }
        // Lifetime is the span the server actually existed for: idle
        // provisioned time before the box was created, plus however far
        // the box really ran — a PC3D search burst can overshoot the
        // cluster end by a few windows, and normalizing rates by this
        // actual span (not the nominal duration) is what keeps the
        // co-located and segregated fleets comparable.
        self.stats.lifetime_cycles = self.base + b.os.now();
        self.stats.energy_joules = power.idle_watts * (self.stats.lifetime_cycles as f64 / cps)
            + slope * self.stats.busy_cycles as f64 / (mc.cores as f64 * cps);
        b.os.latency_stats(b.ls).map(|l| l.p99)
    }

    /// Merged PC3D metric snapshot for this server, if a controller ran.
    pub fn metrics_snapshot(&self) -> Option<protean::Snapshot> {
        self.box_
            .as_ref()
            .and_then(|b| b.batch.as_ref())
            .map(|s| s.ctl.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const EPOCH: Cycles = 250_000; // one simulated second

    fn spec() -> ServerSpec {
        ServerSpec {
            ls_app: "web-search",
            pc3d: Pc3dConfig::datacenter(),
            power: PowerModel::default(),
            job_branches: 100_000,
        }
    }

    /// Drives `a` (cluster-style: parks whenever a zero-load segment
    /// drains) and `b` (always active, stepped every epoch) through the
    /// same load segments and asserts the satellite property: the lazily
    /// parked server is bit-identical to the always-active one.
    fn run_pair(segments: &[(bool, u8)]) -> (Server, Server) {
        let image = compile_app("web-search", false);
        let mut a = Server::new(0, 0, spec());
        let mut b = Server::new(1, 0, spec());
        a.activate(0, &image);
        b.activate(0, &image);
        let mut now: Cycles = 0;
        for &(on, epochs) in segments {
            let qps = if on { 10.0 } else { 0.0 };
            if on && !a.is_active() {
                a.activate(now, &image);
            }
            a.set_ls_qps(qps);
            b.set_ls_qps(qps);
            for _ in 0..epochs {
                now += EPOCH;
                if a.is_active() {
                    a.advance_to(now);
                    if !on && a.last_epoch().drained {
                        a.park();
                    }
                }
                b.advance_to(now);
            }
        }
        let secs = now as f64 / server_machine().cycles_per_second as f64;
        a.finalize(now, secs);
        b.finalize(now, secs);
        (a, b)
    }

    #[test]
    fn parked_server_is_bit_identical_to_always_active() {
        let (a, b) = run_pair(&[(true, 2), (false, 3), (true, 2), (false, 2), (true, 1)]);
        assert!(
            a.stats().parks >= 1,
            "server actually parked: {:?}",
            a.stats()
        );
        assert!(
            a.stats().idle_skipped_cycles > 0,
            "gap was skipped, not stepped"
        );
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.queries, sb.queries);
        assert_eq!(sa.busy_cycles, sb.busy_cycles);
        assert_eq!(sa.lifetime_cycles, sb.lifetime_cycles);
        assert_eq!(
            sa.energy_joules.to_bits(),
            sb.energy_joules.to_bits(),
            "energy is a pure function of the exact totals"
        );
        assert!(sa.queries > 0, "load was actually served");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any interleaving of load and idle segments leaves the parked
        /// server's accounting bit-identical to the always-active one's.
        #[test]
        fn park_reactivate_bit_identity(segments in vec((any::<bool>(), 1u8..3), 1..5)) {
            let (a, b) = run_pair(&segments);
            let (sa, sb) = (a.stats(), b.stats());
            prop_assert_eq!(sa.queries, sb.queries);
            prop_assert_eq!(sa.busy_cycles, sb.busy_cycles);
            prop_assert_eq!(sa.lifetime_cycles, sb.lifetime_cycles);
            prop_assert_eq!(sa.energy_joules.to_bits(), sb.energy_joules.to_bits());
        }
    }
}
