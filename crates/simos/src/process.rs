//! Processes: a loaded image plus architectural and OS state.

use std::collections::VecDeque;

use machine::{BlockCache, DecodeStats, ExecContext, PerfCounters};
use visa::{FuncSym, GlobalSym, Image, MetaDesc, Op};

use crate::loadgen::LoadSchedule;
use crate::METRIC_CHANNELS;

/// Process identifier; doubles as the physical-address-space id.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u16);

impl Pid {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A loaded process.
pub struct Process {
    pid: Pid,
    name: String,
    /// Text space: image text plus appended code-cache variants.
    pub(crate) text: Vec<Op>,
    /// Length of the original image text (code cache starts here).
    image_text_len: u32,
    /// The data segment (meta root, globals, EVT, IR blob).
    pub(crate) data: Vec<u8>,
    /// Generation of `text`; bumped on every append or corruption so the
    /// interpreter's decoded-block cache discards stale block shapes.
    pub(crate) text_gen: u64,
    /// Decoded-block cache for `text`, reused across quanta.
    pub(crate) blocks: BlockCache,
    pub(crate) ctx: ExecContext,
    pub(crate) counters: PerfCounters,
    funcs: Vec<FuncSym>,
    globals: Vec<GlobalSym>,
    meta: Option<MetaDesc>,
    /// Core this process is pinned to.
    pub(crate) core: usize,
    /// Nap intensity in [0, 1]: fraction of each nap period spent asleep.
    pub(crate) nap_intensity: f64,
    /// Frozen processes never run (flux measurement).
    pub(crate) frozen: bool,
    /// Offered-load schedule for `Wait`-parking servers; `None` for batch.
    pub(crate) load: Option<LoadSchedule>,
    /// Pending work items (fractional arrivals accumulate).
    pub(crate) pending_work: f64,
    /// Arrival timestamps of queued-but-unserved queries (for latency).
    pub(crate) arrival_queue: VecDeque<u64>,
    /// Arrival timestamp of the query currently in service.
    pub(crate) in_service: Option<u64>,
    /// Recent per-query sojourn times in cycles (bounded ring).
    pub(crate) latency_samples: VecDeque<u64>,
    /// Cumulative sums of application metrics per channel.
    pub(crate) metrics: [i64; METRIC_CHANNELS],
    /// Cycles this process was scheduled but idle (Waiting with no work).
    pub(crate) idle_cycles: u64,
    /// Cycle at which the context entered `OsrParked`, for
    /// park-to-resume latency accounting. Cleared on resume/disarm.
    pub(crate) osr_parked_at: Option<u64>,
    /// Cycles lost to napping/freezing while otherwise runnable.
    pub(crate) napped_cycles: u64,
}

impl Process {
    /// Loads `image` as process `pid` pinned to `core`.
    ///
    /// The context's EVT base comes from the image's discoverable metadata
    /// (0 for non-protean binaries).
    pub fn load(image: &Image, pid: Pid, core: usize) -> Self {
        let evt_base = image.meta.map_or(0, |m| m.evt_base);
        Process {
            pid,
            name: image.name.clone(),
            text: image.text.clone(),
            image_text_len: image.text_len(),
            data: image.data.clone(),
            text_gen: 0,
            blocks: BlockCache::new(),
            ctx: ExecContext::new(image.entry, pid.0, evt_base),
            counters: PerfCounters::default(),
            funcs: image.funcs.clone(),
            globals: image.globals.clone(),
            meta: image.meta,
            core,
            nap_intensity: 0.0,
            frozen: false,
            load: None,
            pending_work: 0.0,
            arrival_queue: VecDeque::new(),
            in_service: None,
            latency_samples: VecDeque::new(),
            metrics: [0; METRIC_CHANNELS],
            idle_cycles: 0,
            osr_parked_at: None,
            napped_cycles: 0,
        }
    }

    /// Process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Core the process is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Counter snapshot.
    pub fn counters(&self) -> PerfCounters {
        self.counters
    }

    /// Decoded-block cache effectiveness counters (the
    /// `machine.decoded_*` group): dispatch hits/misses and wholesale
    /// invalidations.
    pub fn decode_stats(&self) -> DecodeStats {
        self.blocks.stats()
    }

    /// The execution context (PC samples, status).
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// Function symbols of the loaded image.
    pub fn funcs(&self) -> &[FuncSym] {
        &self.funcs
    }

    /// Global symbols of the loaded image.
    pub fn globals(&self) -> &[GlobalSym] {
        &self.globals
    }

    /// Protean metadata locations, if this is a protean binary.
    pub fn meta(&self) -> Option<MetaDesc> {
        self.meta
    }

    /// Length of the original image text; code-cache addresses start here.
    pub fn image_text_len(&self) -> u32 {
        self.image_text_len
    }

    /// The full text space (image plus appended code-cache variants) —
    /// what a runtime checksums to detect code-cache corruption.
    pub fn text(&self) -> &[Op] {
        &self.text
    }

    /// Current nap intensity in [0, 1].
    pub fn nap_intensity(&self) -> f64 {
        self.nap_intensity
    }

    /// Whether the process is frozen (flux measurement in progress).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Maps a text address to the containing function symbol, if it is in
    /// the original image (code-cache addresses are symbolized by the
    /// runtime, which knows what it compiled).
    pub fn symbolize(&self, addr: u32) -> Option<&FuncSym> {
        let idx = self.funcs.partition_point(|f| f.start <= addr);
        if idx == 0 {
            return None;
        }
        let sym = &self.funcs[idx - 1];
        (addr < sym.start + sym.len).then_some(sym)
    }

    /// Cumulative application-metric sum for `channel`.
    pub fn metric(&self, channel: u8) -> i64 {
        self.metrics[channel as usize % METRIC_CHANNELS]
    }

    /// Cycles the process was runnable but descheduled by nap/freeze.
    pub fn napped_cycles(&self) -> u64 {
        self.napped_cycles
    }

    /// Cycles the process was scheduled but had no work (Waiting).
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Recent per-query sojourn times (arrival → completion) in cycles,
    /// oldest first. Empty for batch processes.
    pub fn latency_samples(&self) -> impl Iterator<Item = u64> + '_ {
        self.latency_samples.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::ExecStatus;
    use pir::FuncId;
    use visa::PReg;

    fn image() -> Image {
        Image {
            name: "t".into(),
            entry: 0,
            text: vec![
                Op::Movi {
                    dst: PReg(0),
                    imm: 3,
                },
                Op::Halt,
            ],
            data: vec![0u8; 128],
            funcs: vec![FuncSym {
                name: "main".into(),
                func: FuncId(0),
                start: 0,
                len: 2,
            }],
            globals: vec![GlobalSym {
                name: "g".into(),
                addr: 64,
                size: 8,
            }],
            evt: vec![],
            meta: None,
        }
    }

    #[test]
    fn load_initializes_state() {
        let p = Process::load(&image(), Pid(3), 1);
        assert_eq!(p.pid(), Pid(3));
        assert_eq!(p.core(), 1);
        assert_eq!(p.name(), "t");
        assert_eq!(p.ctx().status(), ExecStatus::Running);
        assert_eq!(p.ctx().space(), 3);
        assert_eq!(p.nap_intensity(), 0.0);
        assert!(!p.is_frozen());
        assert_eq!(p.image_text_len(), 2);
        assert_eq!(p.metric(0), 0);
    }

    #[test]
    fn symbolize_within_image() {
        let p = Process::load(&image(), Pid(0), 0);
        assert_eq!(p.symbolize(1).unwrap().name, "main");
        assert!(p.symbolize(2).is_none());
    }

    #[test]
    fn pid_display() {
        assert_eq!(Pid(7).to_string(), "pid7");
        assert_eq!(Pid(7).index(), 7);
    }
}
