//! The cluster simulator: a discrete-event loop over thousands of
//! lazily instantiated servers.
//!
//! The design is two-level. The **cluster level** is a classic
//! discrete-event simulation: one [`EventQueue`] ordered by
//! `(time, seq)` carries load-shape boundaries, job arrivals, epoch
//! barriers, and the end-of-run marker, and all cluster-state decisions
//! (placement, balancing, activation, parking) happen while processing
//! events, strictly in event order. The **server level** is
//! cycle-accurate: each active server owns a [`simos::Os`] box advanced
//! to each epoch boundary.
//!
//! Parallelism never touches determinism: server boxes are independent
//! (they share no state), so every advance of several boxes at once
//! fans them out through a pluggable [`SliceExec`] and puts the results
//! back in server-id order. Two kinds of advance fan out: the epoch
//! barrier, which advances every active box to the boundary, and a load
//! step's catch-ups, which bring the wanted boxes that are behind the
//! step up to it before the balancer flips them active serially. The
//! serial executor and a work-stealing pool produce bit-identical
//! clusters. Everything nondeterministic-looking (placement randomness,
//! bursty load) draws from seeded generators inside the serial event
//! loop.

use std::collections::{BTreeMap, VecDeque};

use pc3d::Pc3dConfig;
use protean::{MonitorReport, Registry, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simos::{LoadSchedule, Os};
use visa::Image;

use crate::analytic::{Mix, PowerModel};
use crate::event::{Cycles, EventQueue};
use crate::qps::QpsShape;
use crate::server::{compile_app, server_machine, server_os_config, Server, ServerSpec};

/// How batch work enters the cluster.
#[derive(Clone, Debug)]
pub enum BatchMode {
    /// No batch work: a latency-sensitive-only datacenter.
    None,
    /// Every server permanently hosts one batch stream from its group's
    /// mix (the paper's co-located datacenter, Figs. 17–18); completions
    /// are counted in `job_branches` units.
    Pinned,
    /// Jobs arrive as a Poisson stream per group and are placed by
    /// `placement`; each job retires after `job_branches` branches and
    /// frees its server.
    Jobs {
        /// Placement policy for arriving jobs.
        placement: Placement,
        /// Mean interarrival time per group, seconds.
        mean_interarrival_secs: f64,
    },
}

/// Job placement policies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly random over free servers (seeded, deterministic).
    Random,
    /// The free server with the lowest last-epoch busy fraction.
    LeastLoaded,
    /// Prefer co-locating on an already-active LS server with headroom;
    /// only wake a parked server when no active one is free.
    ColocationAware,
}

/// One homogeneous server group: an LS service, a batch mix, and an
/// offered-load shape.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Display name, e.g. `"web-search/WL1"`.
    pub name: String,
    /// The latency-sensitive service every server in the group runs.
    pub ls_app: &'static str,
    /// The batch mix feeding this group.
    pub mix: Mix,
    /// Number of provisioned servers.
    pub servers: usize,
    /// Group-level offered load.
    pub shape: QpsShape,
}

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Server groups.
    pub groups: Vec<GroupSpec>,
    /// Batch workload mode.
    pub batch: BatchMode,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Epoch (barrier) length, seconds: how often active boxes sync.
    pub epoch_secs: f64,
    /// When true, the balancer concentrates LS load on as few servers
    /// as the target utilization allows and parks the rest; when false
    /// every provisioned server stays active with an even share.
    pub consolidate: bool,
    /// Balancer target busy fraction per active LS server.
    pub target_util: f64,
    /// Minimum active servers per group (0 allows full park).
    pub min_active: usize,
    /// Master seed for placement and arrival randomness.
    pub seed: u64,
    /// Linear power model for energy integration.
    pub power: PowerModel,
    /// Per-server PC3D controller configuration.
    pub pc3d: Pc3dConfig,
    /// Branches per batch job (quota in Jobs mode, accounting unit for
    /// pinned streams).
    pub job_branches: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            groups: Vec::new(),
            batch: BatchMode::None,
            duration_secs: 60.0,
            epoch_secs: 1.0,
            consolidate: true,
            target_util: 0.7,
            min_active: 0,
            seed: 0,
            power: PowerModel::default(),
            pc3d: Pc3dConfig::datacenter(),
            job_branches: 10_000,
        }
    }
}

/// What a slice does to its server's box.
#[derive(Copy, Clone, Debug)]
enum SliceWork {
    /// Epoch barrier: [`Server::advance_to`] the boundary.
    Barrier,
    /// Balancer catch-up: [`Server::reconcile`] a box that is behind the
    /// load step, before the balancer activates it.
    CatchUp,
}

/// A parcel of work for a fan-out: advance one server's box to a cluster
/// time, either to an epoch boundary or (for the balancer) to a load
/// step. Self-contained and independent of every other job in the
/// batch, so executors may run them in any order.
pub struct SliceJob {
    server: Server,
    target: Cycles,
    work: SliceWork,
}

impl SliceJob {
    /// Runs the slice to completion, returning the advanced server.
    pub fn run(mut self) -> Server {
        match self.work {
            SliceWork::Barrier => self.server.advance_to(self.target),
            SliceWork::CatchUp => self.server.reconcile(self.target),
        }
        self.server
    }

    /// The server id, for labeling.
    pub fn server_id(&self) -> usize {
        self.server.id()
    }
}

/// An executor for a batch of independent slice jobs: one epoch
/// barrier, or one load step's catch-ups. Must return the results **in
/// input order** — that contract is what keeps parallel runs
/// bit-identical to serial ones.
pub type SliceExec = Box<dyn Fn(Vec<SliceJob>) -> Vec<Server> + Send + Sync>;

/// The default executor: runs slices one after another on this thread.
pub fn serial_exec() -> SliceExec {
    Box::new(|jobs| jobs.into_iter().map(SliceJob::run).collect())
}

/// Per-group simulation outcome.
#[derive(Clone, Debug)]
pub struct GroupResult {
    /// Group display name.
    pub name: String,
    /// LS service.
    pub ls_app: &'static str,
    /// Mix name.
    pub mix_name: &'static str,
    /// Provisioned servers.
    pub servers: usize,
    /// Queries served.
    pub queries: i64,
    /// Batch jobs completed (quota units).
    pub jobs_completed: u64,
    /// Batch branches executed.
    pub batch_branches: u64,
    /// Energy, joules.
    pub energy_joules: f64,
    /// Busy cycles (all servers, all cores).
    pub busy_cycles: u64,
    /// Cycles the group's servers existed for, summed. Boxes driven by a
    /// PC3D controller can overshoot the nominal end by a search burst,
    /// so rates are normalized by this actual span.
    pub lifetime_cycles: u64,
    /// PC3D windows that missed the QoS target.
    pub qos_violations: u64,
    /// Server activations (park → active transitions).
    pub activations: u64,
    /// Servers parked (active → parked transitions).
    pub parks: u64,
    /// Idle cycles reconciled by skipping rather than stepping.
    pub idle_skipped_cycles: u64,
    /// Peak simultaneously active servers.
    pub peak_active: usize,
}

impl GroupResult {
    /// Mean simulated seconds each server actually existed for.
    pub fn mean_server_secs(&self) -> f64 {
        self.lifetime_cycles as f64
            / (server_machine().cycles_per_second as f64 * self.servers as f64)
    }

    /// Mean busy fraction across the group's provisioned capacity.
    pub fn mean_busy_frac(&self) -> f64 {
        let mc = server_machine();
        self.busy_cycles as f64 / (self.lifetime_cycles as f64 * mc.cores as f64)
    }

    /// Mean power draw of the whole group, watts.
    pub fn mean_power_watts(&self) -> f64 {
        self.energy_joules / self.mean_server_secs()
    }

    /// Batch branches retired per simulated second, fleet-wide.
    pub fn batch_branches_per_sec(&self) -> f64 {
        self.batch_branches as f64 / self.mean_server_secs()
    }
}

/// Whole-cluster simulation outcome.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Per-group results, in configuration order.
    pub groups: Vec<GroupResult>,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Cluster events processed.
    pub events: u64,
    /// Cycles the event clock jumped over (idle skipping).
    pub skipped_cycles: Cycles,
    /// Total queries served.
    pub queries: i64,
    /// Total batch job completions.
    pub jobs_completed: u64,
    /// Total energy, joules.
    pub energy_joules: f64,
    /// Merged metric snapshot: the cluster's own `datacenter.*` registry
    /// plus every per-server PC3D controller registry.
    pub snapshot: Snapshot,
}

impl ClusterResult {
    /// The cluster's operator-facing report: its `datacenter.*` metrics
    /// (and merged per-server controller metrics) in the same
    /// [`MonitorReport`] type per-server controllers surface.
    pub fn report(&self) -> MonitorReport {
        MonitorReport::from_metrics(self.snapshot.clone())
    }

    /// Mean cluster power, watts.
    pub fn mean_power_watts(&self) -> f64 {
        self.energy_joules / self.duration_secs
    }
}

/// Cluster events. Variants are processed strictly in `(time, seq)`
/// order; see module docs.
#[derive(Clone, Debug)]
enum Ev {
    /// A group's load shape crossed a step boundary: re-balance.
    LoadStep { group: usize },
    /// Barrier: advance all active server boxes to this time.
    Epoch,
    /// A batch job arrives for a group (Jobs mode).
    JobArrival { group: usize },
    /// End of simulation.
    End,
}

/// The cluster simulator. Build with [`Cluster::new`], then call
/// [`run`](Cluster::run) (serial) or [`run_with`](Cluster::run_with)
/// (custom executor).
pub struct Cluster {
    cfg: ClusterConfig,
    /// Server slots; `None` while a server is out being advanced.
    servers: Vec<Option<Server>>,
    /// Balancer intent per server.
    desired_active: Vec<bool>,
    /// `servers` index ranges per group.
    group_ranges: Vec<(usize, usize)>,
    /// Measured queries/sec one server sustains, per LS app.
    capacity: BTreeMap<&'static str, f64>,
    /// Compiled images by app name.
    images: BTreeMap<String, Image>,
    /// Round-robin batch app cursor per group.
    batch_cursor: Vec<usize>,
    /// Queued jobs that found no free server: (group, app).
    job_queue: VecDeque<(usize, String)>,
    rng: StdRng,
    metrics: Registry,
    peak_active: Vec<usize>,
    epoch_cycles: Cycles,
    end_cycles: Cycles,
    next_epoch: Option<Cycles>,
}

impl Cluster {
    /// Builds the cluster: compiles each referenced binary once and
    /// calibrates per-LS-app server capacity with a short saturated
    /// solo simulation.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name or empty configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.groups.is_empty(), "cluster needs at least one group");
        assert!(cfg.epoch_secs > 0.0 && cfg.duration_secs > 0.0);
        let mc = server_machine();
        let mut images: BTreeMap<String, Image> = BTreeMap::new();
        let mut compile = |name: &str, protean: bool| {
            if !images.contains_key(name) {
                images.insert(name.to_string(), compile_app(name, protean));
            }
        };
        for g in &cfg.groups {
            compile(g.ls_app, false);
            if !matches!(cfg.batch, BatchMode::None) {
                for app in g.mix.batch_apps {
                    compile(app, true);
                }
            }
        }

        // Calibrate: how many queries/sec does one server sustain?
        let mut capacity = BTreeMap::new();
        for g in &cfg.groups {
            if capacity.contains_key(g.ls_app) {
                continue;
            }
            let mut os = Os::new(server_os_config());
            let pid = os.spawn(&images[g.ls_app], 0);
            os.set_load(pid, LoadSchedule::constant(10_000.0));
            os.advance_seconds(4.0);
            let served = os.app_metric(pid, 0).max(1);
            capacity.insert(g.ls_app, served as f64 / 4.0);
        }

        let mut servers = Vec::new();
        let mut group_ranges = Vec::new();
        for (gi, g) in cfg.groups.iter().enumerate() {
            assert!(g.servers > 0, "group {} has no servers", g.name);
            let start = servers.len();
            for i in 0..g.servers {
                let spec = ServerSpec {
                    ls_app: g.ls_app,
                    pc3d: cfg.pc3d,
                    power: cfg.power,
                    job_branches: cfg.job_branches,
                };
                servers.push(Some(Server::new(start + i, gi, spec)));
            }
            group_ranges.push((start, servers.len()));
        }

        let epoch_cycles = (cfg.epoch_secs * mc.cycles_per_second as f64).round() as Cycles;
        let end_cycles = (cfg.duration_secs * mc.cycles_per_second as f64).round() as Cycles;
        let n = servers.len();
        let groups = cfg.groups.len();
        let seed = cfg.seed;
        Cluster {
            cfg,
            servers,
            desired_active: vec![false; n],
            group_ranges,
            capacity,
            images,
            batch_cursor: vec![0; groups],
            job_queue: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Registry::new(),
            peak_active: vec![0; groups],
            epoch_cycles,
            end_cycles,
            next_epoch: None,
        }
    }

    /// Measured solo capacity (queries/sec) for an LS app.
    pub fn capacity(&self, ls_app: &str) -> Option<f64> {
        self.capacity.get(ls_app).copied()
    }

    /// Runs the simulation with the serial executor.
    pub fn run(self) -> ClusterResult {
        self.run_with(&serial_exec())
    }

    /// Runs the simulation, fanning epoch advances out through `exec`.
    pub fn run_with(mut self, exec: &SliceExec) -> ClusterResult {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let cps = server_machine().cycles_per_second as f64;
        // Setup events: per-group load steps, arrivals, then the end
        // marker. Same-timestamp ties resolve in this push order.
        for (gi, g) in self.cfg.groups.iter().enumerate() {
            for t in g.shape.boundaries() {
                let cycles = (t * cps).round() as Cycles;
                if cycles < self.end_cycles {
                    queue.push(cycles, Ev::LoadStep { group: gi });
                }
            }
        }
        if let BatchMode::Jobs {
            mean_interarrival_secs,
            ..
        } = self.cfg.batch
        {
            for gi in 0..self.cfg.groups.len() {
                let dt = exp_sample(&mut self.rng, mean_interarrival_secs);
                let cycles = (dt * cps).round() as Cycles;
                if cycles < self.end_cycles {
                    queue.push(cycles, Ev::JobArrival { group: gi });
                }
            }
        }
        queue.push(self.end_cycles, Ev::End);

        // Pinned mode: every server starts active with its batch stream.
        if matches!(self.cfg.batch, BatchMode::Pinned) {
            for gi in 0..self.cfg.groups.len() {
                let (start, end) = self.group_ranges[gi];
                for si in start..end {
                    self.desired_active[si] = true;
                    let app = self.next_batch_app(gi);
                    self.start_batch_on(si, 0, &app, None);
                }
            }
        }

        while let Some(ev) = queue.pop() {
            let now = ev.time;
            self.metrics.inc("datacenter.events");
            match ev.payload {
                Ev::LoadStep { group } => {
                    self.rebalance(group, now, exec);
                    self.ensure_epoch(&mut queue, now);
                }
                Ev::JobArrival { group } => {
                    self.metrics.inc("datacenter.job_arrivals");
                    let app = self.next_batch_app(group);
                    if let Some(si) = self.place(group, &app) {
                        self.start_batch_on(si, now, &app, Some(self.cfg.job_branches));
                    } else {
                        self.metrics.inc("datacenter.jobs_queued");
                        self.job_queue.push_back((group, app));
                    }
                    self.metrics
                        .record("datacenter.job_backlog", self.job_queue.len() as u64);
                    if let BatchMode::Jobs {
                        mean_interarrival_secs,
                        ..
                    } = self.cfg.batch
                    {
                        let dt = exp_sample(&mut self.rng, mean_interarrival_secs);
                        let t = now + ((dt * cps).round() as Cycles).max(1);
                        if t < self.end_cycles {
                            queue.push(t, Ev::JobArrival { group });
                        }
                    }
                    self.ensure_epoch(&mut queue, now);
                }
                Ev::Epoch => {
                    self.next_epoch = None;
                    self.advance_active(now, exec);
                    self.after_epoch(now);
                    self.ensure_epoch(&mut queue, now);
                }
                Ev::End => {
                    self.advance_active(now, exec);
                    break;
                }
            }
        }
        self.finalize(queue)
    }

    /// The next batch app of a group's mix, round-robin.
    fn next_batch_app(&mut self, group: usize) -> String {
        let mix = self.cfg.groups[group].mix;
        let app = mix.batch_apps[self.batch_cursor[group] % mix.batch_apps.len()];
        self.batch_cursor[group] += 1;
        app.to_string()
    }

    fn server(&self, si: usize) -> &Server {
        self.servers[si].as_ref().expect("server checked in")
    }

    fn server_mut(&mut self, si: usize) -> &mut Server {
        self.servers[si].as_mut().expect("server checked in")
    }

    /// Starts a batch stream/job on server `si`.
    fn start_batch_on(&mut self, si: usize, now: Cycles, app: &str, quota: Option<u64>) {
        let server = self.servers[si].as_mut().expect("server checked in");
        let ls_image = &self.images[self.cfg.groups[server.group()].ls_app];
        server.start_batch(now, ls_image, &self.images[app], app, quota);
    }

    /// Re-plans one group at a shape boundary: picks the active-set size
    /// from measured capacity and divides load evenly. Each wanted
    /// server is brought up as [`Server::activate`] would (box, catch-up,
    /// flip to active), then given its share; only the catch-ups of
    /// boxes behind `now` fan out through `exec`.
    fn rebalance(&mut self, group: usize, now: Cycles, exec: &SliceExec) {
        let cps = server_machine().cycles_per_second as f64;
        let t_secs = now as f64 / cps;
        let g = &self.cfg.groups[group];
        let qps = g.shape.qps_at(t_secs);
        let (start, end) = self.group_ranges[group];
        let total = end - start;
        let n = if self.cfg.consolidate {
            let per_server = (self.capacity[g.ls_app] * self.cfg.target_util).max(1e-9);
            let need = (qps / per_server).ceil() as usize;
            need.clamp(self.cfg.min_active.min(total), total)
        } else {
            total
        };
        let share = if n > 0 { qps / n as f64 } else { 0.0 };
        let ls_image = &self.images[g.ls_app];
        let wanted = start..start + n;
        for si in start..end {
            let want = wanted.contains(&si);
            self.desired_active[si] = want;
            let server = self.servers[si].as_mut().expect("server checked in");
            if want {
                server.ensure_box(now, ls_image);
            } else {
                // Stop feeding it; it parks once drained (and batch-free).
                server.set_ls_qps(0.0);
            }
        }
        let behind: Vec<usize> = wanted
            .clone()
            .filter(|&si| self.server(si).behind(now))
            .collect();
        if !behind.is_empty() {
            self.fan_out(behind, now, SliceWork::CatchUp, exec);
        }
        for si in wanted {
            let server = self.server_mut(si);
            server.mark_active();
            server.set_ls_qps(share);
        }
        self.metrics.add("datacenter.rebalances", 1);
    }

    /// Picks a free server for a job by the configured policy.
    fn place(&mut self, group: usize, _app: &str) -> Option<usize> {
        let BatchMode::Jobs { placement, .. } = self.cfg.batch else {
            return None;
        };
        let (start, end) = self.group_ranges[group];
        let free: Vec<usize> = (start..end)
            .filter(|&si| !self.server(si).has_batch())
            .collect();
        if free.is_empty() {
            return None;
        }
        let pick = match placement {
            Placement::Random => free[self.rng.gen_range(0..free.len())],
            Placement::LeastLoaded => free
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let (fa, fb) = (
                        self.server(a).last_epoch().busy_frac,
                        self.server(b).last_epoch().busy_frac,
                    );
                    fa.total_cmp(&fb).then(a.cmp(&b))
                })
                .expect("free non-empty"),
            Placement::ColocationAware => {
                let active: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&si| self.server(si).is_active())
                    .collect();
                let pool = if active.is_empty() { &free } else { &active };
                pool.iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let (fa, fb) = (
                            self.server(a).last_epoch().busy_frac,
                            self.server(b).last_epoch().busy_frac,
                        );
                        fa.total_cmp(&fb).then(a.cmp(&b))
                    })
                    .expect("pool non-empty")
            }
        };
        Some(pick)
    }

    /// Fans all active servers out to the epoch boundary `target`.
    fn advance_active(&mut self, target: Cycles, exec: &SliceExec) {
        let ids: Vec<usize> = (0..self.servers.len())
            .filter(|&si| self.server(si).is_active())
            .collect();
        let n_active = ids.len();
        self.fan_out(ids, target, SliceWork::Barrier, exec);
        self.metrics
            .record("datacenter.active_servers", n_active as u64);
    }

    /// Takes servers `ids` out, runs one `work` slice to `target` on each
    /// through the executor, and reinstalls them in id order.
    fn fan_out(&mut self, ids: Vec<usize>, target: Cycles, work: SliceWork, exec: &SliceExec) {
        let jobs: Vec<SliceJob> = ids
            .iter()
            .map(|&si| SliceJob {
                server: self.servers[si].take().expect("server checked in"),
                target,
                work,
            })
            .collect();
        let advanced = exec(jobs);
        assert_eq!(
            advanced.len(),
            ids.len(),
            "executor must return every slice"
        );
        for (si, server) in ids.into_iter().zip(advanced) {
            assert_eq!(server.id(), si, "executor must preserve input order");
            self.servers[si] = Some(server);
        }
    }

    /// Serial post-epoch bookkeeping: metrics, completions, queued-job
    /// placement, parking.
    fn after_epoch(&mut self, now: Cycles) {
        // Harvest completions and sample queue depths, in id order.
        for si in 0..self.servers.len() {
            if self.servers[si].is_none() {
                continue;
            }
            let (active, report) = {
                let s = self.server(si);
                (s.is_active(), s.last_epoch())
            };
            if !active {
                continue;
            }
            self.metrics
                .record("datacenter.queue_depth", report.queue_depth as u64);
            self.metrics
                .add("datacenter.queries", report.queries.max(0) as u64);
            if report.jobs_completed > 0 {
                self.metrics
                    .add("datacenter.jobs_completed", report.jobs_completed);
            }
            let _ = self.server_mut(si).take_completed_job();
        }
        // Place queued jobs onto servers freed this epoch (FIFO).
        let mut still_queued = VecDeque::new();
        while let Some((group, app)) = self.job_queue.pop_front() {
            if let Some(si) = self.place(group, &app) {
                self.start_batch_on(si, now, &app, Some(self.cfg.job_branches));
            } else {
                still_queued.push_back((group, app));
            }
        }
        self.job_queue = still_queued;
        // Park drained, batch-free servers the balancer gave up on.
        for si in 0..self.servers.len() {
            if self.servers[si].is_none() || self.desired_active[si] {
                continue;
            }
            let s = self.server(si);
            if s.is_active() && !s.has_batch() && s.last_epoch().drained {
                self.server_mut(si).park();
            }
        }
        // Track peaks.
        for gi in 0..self.group_ranges.len() {
            let (start, end) = self.group_ranges[gi];
            let active = (start..end)
                .filter(|&si| self.servers[si].as_ref().is_some_and(Server::is_active))
                .count();
            self.peak_active[gi] = self.peak_active[gi].max(active);
        }
    }

    /// Schedules the next epoch barrier if any server is active.
    fn ensure_epoch(&mut self, queue: &mut EventQueue<Ev>, now: Cycles) {
        if self.next_epoch.is_some() {
            return;
        }
        let any_active = self
            .servers
            .iter()
            .any(|s| s.as_ref().is_some_and(Server::is_active));
        if !any_active {
            return;
        }
        // Align epochs to the global grid so shape boundaries (also
        // grid-aligned) coincide with barriers.
        let t = (now / self.epoch_cycles + 1) * self.epoch_cycles;
        if t < self.end_cycles {
            queue.push(t, Ev::Epoch);
            self.next_epoch = Some(t);
        }
    }

    /// Drains accounting into the final [`ClusterResult`].
    fn finalize(mut self, queue: EventQueue<Ev>) -> ClusterResult {
        let cps = server_machine().cycles_per_second as f64;
        let duration = self.cfg.duration_secs;
        let mut groups = Vec::new();
        let mut snapshot = Snapshot::default();
        for (gi, g) in self.cfg.groups.iter().enumerate() {
            let (start, end) = self.group_ranges[gi];
            let mut r = GroupResult {
                name: g.name.clone(),
                ls_app: g.ls_app,
                mix_name: g.mix.name,
                servers: end - start,
                queries: 0,
                jobs_completed: 0,
                batch_branches: 0,
                energy_joules: 0.0,
                busy_cycles: 0,
                lifetime_cycles: 0,
                qos_violations: 0,
                activations: 0,
                parks: 0,
                idle_skipped_cycles: 0,
                peak_active: self.peak_active[gi],
            };
            for si in start..end {
                let server = self.servers[si].as_mut().expect("server checked in");
                if let Some(p99) = server.finalize(self.end_cycles, duration) {
                    self.metrics.record("datacenter.ls_p99_cycles", p99);
                }
                if let Some(snap) = server.metrics_snapshot() {
                    snapshot = snapshot.merge(snap);
                }
                let st = server.stats();
                r.queries += st.queries;
                r.jobs_completed += st.jobs_completed;
                r.batch_branches += st.batch_branches;
                r.energy_joules += st.energy_joules;
                r.busy_cycles += st.busy_cycles;
                r.lifetime_cycles += st.lifetime_cycles;
                r.qos_violations += st.qos_violations;
                r.activations += st.activations;
                r.parks += st.parks;
                r.idle_skipped_cycles += st.idle_skipped_cycles;
            }
            self.metrics
                .add("datacenter.qos_window_violations", r.qos_violations);
            self.metrics
                .add("datacenter.server_activations", r.activations);
            self.metrics.add("datacenter.server_parks", r.parks);
            self.metrics
                .add("datacenter.idle_skipped_cycles", r.idle_skipped_cycles);
            groups.push(r);
        }
        self.metrics
            .set_gauge("datacenter.sim_seconds", queue.now() as f64 / cps);
        self.metrics
            .set_gauge("datacenter.provisioned_servers", self.servers.len() as f64);
        self.metrics
            .record("datacenter.idle_skip_cycles", queue.skipped());
        let queries: i64 = groups.iter().map(|g| g.queries).sum();
        let jobs_completed: u64 = groups.iter().map(|g| g.jobs_completed).sum();
        let energy_joules: f64 = groups.iter().map(|g| g.energy_joules).sum();
        let snapshot = self.metrics.snapshot().merge(snapshot);
        ClusterResult {
            groups,
            duration_secs: duration,
            events: queue.processed(),
            skipped_cycles: queue.skipped(),
            queries,
            jobs_completed,
            energy_joules,
            snapshot,
        }
    }
}

/// Inverse-transform exponential sample with mean `mean`.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * f64::ln(f64::max(1.0 - u, 1e-12))
}

// Compile-time proof that servers can cross threads (the executor
// contract) — `Os`, `Pc3d`, and `Runtime` hold no shared-state handles.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SliceJob>();
    assert_send::<Server>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// A genuinely parallel executor: worker threads claim slices from a
    /// shared cursor in whatever order the scheduler produces, results
    /// land in per-index slots, and the output is input-ordered — the
    /// same shape the bench harness builds over `protean_bench::pool`.
    fn threaded_exec(threads: usize) -> SliceExec {
        Box::new(move |jobs| {
            let n = jobs.len();
            let jobs: Vec<Mutex<Option<SliceJob>>> =
                jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            let slots: Vec<Mutex<Option<Server>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads.max(1) {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = jobs[i].lock().unwrap().take().expect("unclaimed");
                        *slots[i].lock().unwrap() = Some(job.run());
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("slice ran"))
                .collect()
        })
    }

    /// A serial executor that also sums how far each slice advanced its
    /// server's box (`lifetime_cycles` after the slice minus before).
    fn counting_exec(in_slices: Arc<AtomicU64>) -> SliceExec {
        Box::new(move |jobs| {
            jobs.into_iter()
                .map(|job| {
                    let before = job.server.stats().lifetime_cycles;
                    let server = job.run();
                    let delta = server.stats().lifetime_cycles - before;
                    in_slices.fetch_add(delta, Ordering::Relaxed);
                    server
                })
                .collect()
        })
    }

    /// On a busy pinned fleet whose load steps land on every epoch
    /// boundary, the balancer's catch-ups must run as slices too: only
    /// the controllers' initial flux measurement at t = 0 may advance a
    /// box on the event-loop thread.
    #[test]
    fn busy_fleet_advances_its_boxes_inside_slices() {
        let cfg = ClusterConfig {
            groups: vec![GroupSpec {
                name: "web-search/WL1".into(),
                ls_app: "web-search",
                mix: crate::analytic::MIXES[0],
                servers: 4,
                shape: QpsShape::diurnal(8.0, 60.0, 15.0, 1.0, 0.0, 1.0),
            }],
            batch: BatchMode::Pinned,
            duration_secs: 8.0,
            consolidate: false,
            seed: 5,
            ..ClusterConfig::default()
        };
        let in_slices = Arc::new(AtomicU64::new(0));
        let r = Cluster::new(cfg).run_with(&counting_exec(Arc::clone(&in_slices)));
        let total: u64 = r.groups.iter().map(|g| g.lifetime_cycles).sum();
        let in_slices = in_slices.load(Ordering::Relaxed);
        assert!(
            in_slices * 5 >= total * 4,
            "only {in_slices} of {total} box cycles advanced inside slices"
        );
    }

    fn jobs_config(placement: Placement) -> ClusterConfig {
        ClusterConfig {
            groups: vec![
                GroupSpec {
                    name: "web-search/WL1".into(),
                    ls_app: "web-search",
                    mix: crate::analytic::MIXES[0],
                    servers: 3,
                    shape: QpsShape::diurnal(20.0, 40.0, 5.0, 1.0, 0.0, 1.0),
                },
                GroupSpec {
                    name: "graph-analytics/WL2".into(),
                    ls_app: "graph-analytics",
                    mix: crate::analytic::MIXES[1],
                    servers: 3,
                    shape: QpsShape::bursty(20.0, 5.0, 30.0, 0.3, 1.0, 11),
                },
            ],
            batch: BatchMode::Jobs {
                placement,
                mean_interarrival_secs: 3.0,
            },
            duration_secs: 20.0,
            consolidate: true,
            min_active: 1,
            seed: 9,
            job_branches: 2_000,
            ..ClusterConfig::default()
        }
    }

    /// Canonical fingerprint of everything a ClusterResult reports,
    /// floats by bit pattern, including the merged metric report.
    fn fingerprint(r: &ClusterResult) -> String {
        let mut s = format!(
            "events={} skipped={} queries={} jobs={} energy={:016x}\n",
            r.events,
            r.skipped_cycles,
            r.queries,
            r.jobs_completed,
            r.energy_joules.to_bits()
        );
        for g in &r.groups {
            s.push_str(&format!(
                "{}: q={} jobs={} branches={} busy={} energy={:016x} act={} parks={} skip={} peak={} qos={}\n",
                g.name,
                g.queries,
                g.jobs_completed,
                g.batch_branches,
                g.busy_cycles,
                g.energy_joules.to_bits(),
                g.activations,
                g.parks,
                g.idle_skipped_cycles,
                g.peak_active,
                g.qos_violations,
            ));
        }
        s.push_str(&format!(
            "{}",
            MonitorReport::from_metrics(r.snapshot.clone())
        ));
        s
    }

    #[test]
    fn parallel_executor_is_bit_identical_to_serial() {
        let serial = Cluster::new(jobs_config(Placement::LeastLoaded)).run();
        let parallel =
            Cluster::new(jobs_config(Placement::LeastLoaded)).run_with(&threaded_exec(4));
        assert!(serial.queries > 0, "cluster served load");
        assert!(serial.jobs_completed > 0, "jobs ran to completion");
        assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    }

    #[test]
    fn placement_policies_run_and_stay_deterministic() {
        for placement in [
            Placement::Random,
            Placement::LeastLoaded,
            Placement::ColocationAware,
        ] {
            let a = Cluster::new(jobs_config(placement)).run();
            let b = Cluster::new(jobs_config(placement)).run();
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "same seed, same outcome ({placement:?})"
            );
            assert!(a.jobs_completed > 0, "{placement:?} placed jobs");
        }
    }

    #[test]
    fn consolidation_parks_servers_and_saves_energy() {
        let mk = |consolidate| ClusterConfig {
            groups: vec![GroupSpec {
                name: "media-streaming/WL3".into(),
                ls_app: "media-streaming",
                mix: crate::analytic::MIXES[2],
                servers: 6,
                shape: QpsShape::constant(12.0),
            }],
            batch: BatchMode::None,
            duration_secs: 20.0,
            consolidate,
            min_active: 1,
            seed: 3,
            ..ClusterConfig::default()
        };
        let packed = Cluster::new(mk(true)).run();
        let spread = Cluster::new(mk(false)).run();
        let pg = &packed.groups[0];
        let sg = &spread.groups[0];
        assert!(
            pg.peak_active < 6,
            "balancer consolidated: peak {} of 6",
            pg.peak_active
        );
        assert_eq!(sg.peak_active, 6, "non-consolidating fleet all active");
        // Same offered load gets served either way...
        let (pq, sq) = (pg.queries as f64, sg.queries as f64);
        assert!(
            (pq - sq).abs() / sq < 0.05,
            "similar service: packed {pq} vs spread {sq}"
        );
        // ...but parked servers skip their idle time rather than step it.
        assert!(pg.idle_skipped_cycles > 0 || pg.parks == 0);
        assert!(packed.skipped_cycles > 0, "event clock skipped idle time");
    }
}
