//! The VISA interpreter with its timing model.
//!
//! [`run`] advances one execution context by a cycle budget. The context
//! owns the architectural state (PC, register-window stack); the caller
//! (the simulated OS) owns text, data, the memory hierarchy, and the
//! counters, passing them in via [`ExecEnv`]. This split is what lets the
//! protean runtime patch a process's EVT or append to its code cache while
//! the process is between quanta — exactly the asynchrony the paper's
//! mechanism relies on.
//!
//! # Decoded-block dispatch
//!
//! The interpreter executes *pre-decoded basic blocks*, not single ops: a
//! [`BlockCache`] (owned by the caller, alongside text) maps every entry
//! PC to a `Vec<DecodedOp>` decoded once on first dispatch. A decoded op
//! is operand-resolved — register numbers extracted, immediates widened,
//! call arguments copied out of the text op's heap `Vec` into an inline
//! array — so replay never touches the `Op` encoding again. Decoding is
//! 1:1: the op at index `i` of a block entered at `pc` is the text op at
//! `pc + i`, and the budget is checked before every one of them, so
//! quantum boundaries, instruction counts, PC samples, and OSR park points
//! are those of per-op dispatch.
//!
//! Unlike the earlier range-based cache, decoded blocks are *copies* of
//! the ops, so staleness would mean executing stale instructions — not
//! merely misjudging a block boundary. The invalidation contract is
//! therefore load-bearing: callers bump [`ExecEnv::text_gen`] on every
//! text mutation (code-cache append, corruption), and [`BlockCache`]
//! discards all decoded blocks when the generation *or the text length*
//! moves. The length resync closes the append-without-bump window: a
//! block whose shape changes because text grew past its old end can never
//! replay its stale decoded vector, even if the caller forgot the bump.
//! In-place mutation without a bump or length change remains a contract
//! violation (every mutation site in `simos` bumps). EVT patches need no
//! invalidation at all, because `CallVirt` reads its target cell from
//! data memory on every dispatch.
//!
//! Retired decoded vectors are recycled through a pool across
//! invalidations, so a recompilation storm (append + bump per variant)
//! re-decodes into warm allocations instead of re-allocating per block.
//!
//! For differential testing, [`BlockCache::set_fallback`] forces an
//! *always-decode* path: every dispatch decodes the block fresh, without
//! caching. The fallback exercises identical op semantics through the
//! same replay loop, so a decoded-tier bug shows up as a bit-level
//! divergence in `tests/fastpath.rs`'s A/B suites.

use std::collections::HashSet;

use visa::{Op, PReg, FRAME_REGS};

use crate::config::{BtConfig, CostModel};
use crate::counters::PerfCounters;
use crate::hierarchy::{AccessKind, MemorySystem};
use crate::phys_addr;

/// Longest straight-line run decoded as one block. Bounds the decode
/// cost of cold code.
const MAX_BLOCK_OPS: usize = 64;

/// Why a [`run`] call stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The cycle budget was exhausted; the context is still runnable.
    BudgetExhausted,
    /// The context executed [`Op::Wait`] and is parked until new work.
    Waiting,
    /// The context executed [`Op::Halt`] or returned from its entry frame.
    Halted,
    /// The context performed an out-of-bounds memory or text access.
    Faulted,
    /// The context reached an armed OSR park point (see
    /// [`ExecContext::osr_arm`]) and stopped immediately before executing
    /// the block at that PC.
    OsrParked,
}

/// Liveness of an execution context.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExecStatus {
    /// Eligible to run.
    Running,
    /// Parked on [`Op::Wait`]; resumes after [`ExecContext::wake`].
    Waiting,
    /// Finished.
    Halted,
    /// Dead after a memory fault at the contained data address.
    Faulted(u64),
    /// Stopped at an armed OSR park point, awaiting a frame transfer
    /// ([`ExecContext::osr_apply`] + [`ExecContext::osr_resume`]) or a
    /// cancellation ([`ExecContext::osr_disarm`]).
    OsrParked,
}

/// Result of one [`run`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunResult {
    /// Cycles actually consumed. The budget is checked before every
    /// instruction, so the overshoot is bounded by one instruction's cost.
    pub cycles: u64,
    /// Why execution stopped.
    pub stop: StopReason,
}

/// Decode-cache effectiveness counters, cumulative for one
/// [`BlockCache`]'s lifetime. Surfaced by the simulated OS per process
/// and by `protean::metrics` as the `machine.decoded_*` counter group.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DecodeStats {
    /// Dispatches served from an already-decoded block.
    pub hits: u64,
    /// Blocks decoded: the first dispatch of each cached block, and
    /// every dispatch under the always-decode fallback.
    pub misses: u64,
    /// Wholesale discards of the decoded set (generation or text-length
    /// resync that actually dropped blocks).
    pub invalidations: u64,
    /// Always 0: decoding is 1:1 and forms no superops. Kept because the
    /// `perfbench` benchmark still reads it.
    pub fused_ops: u64,
}

/// Call arguments resolved at decode time: the text op's heap `Vec` is
/// copied into an inline array so replay is pointer-chase free.
#[derive(Copy, Clone, Debug)]
struct ArgList {
    regs: [PReg; visa::MAX_ARGS],
    len: u8,
}

impl ArgList {
    fn new(args: &[PReg]) -> ArgList {
        let mut regs = [PReg(0); visa::MAX_ARGS];
        regs[..args.len()].copy_from_slice(args);
        ArgList {
            regs,
            len: args.len() as u8,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[PReg] {
        &self.regs[..self.len as usize]
    }
}

/// One operand-resolved instruction; a block holds one per text op.
#[derive(Copy, Clone, Debug)]
enum DecodedOp {
    Movi {
        dst: PReg,
        imm: i64,
    },
    Alu {
        op: pir::BinOp,
        dst: PReg,
        a: PReg,
        b: PReg,
    },
    AluImm {
        op: pir::BinOp,
        dst: PReg,
        a: PReg,
        imm: i64,
    },
    Load {
        dst: PReg,
        base: PReg,
        offset: i64,
    },
    Store {
        base: PReg,
        offset: i64,
        src: PReg,
    },
    PrefetchNta {
        base: PReg,
        offset: i64,
    },
    Jmp {
        target: u32,
    },
    Bnz {
        cond: PReg,
        target: u32,
    },
    Bz {
        cond: PReg,
        target: u32,
    },
    Call {
        target: u32,
        dst: Option<PReg>,
        args: ArgList,
    },
    CallVirt {
        slot: u32,
        dst: Option<PReg>,
        args: ArgList,
    },
    Ret {
        src: Option<PReg>,
    },
    Report {
        channel: u8,
        src: PReg,
    },
    Wait,
    Halt,
}

/// Decoded-block cache for one text space.
///
/// Maps entry PC → a pre-decoded op vector for the basic block starting
/// there (straight-line ops plus the terminating control-flow op, capped
/// at `MAX_BLOCK_OPS` ops). Blocks are decoded lazily on first dispatch
/// and discarded wholesale when the text generation or length moves;
/// retired vectors are pooled for reuse across invalidations.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    /// Generation of the text the current entries were decoded against.
    gen: u64,
    /// Decoded-block index + 1 keyed by entry PC; 0 = not yet decoded.
    idx_at: Vec<u32>,
    /// Decoded blocks, one op per text op.
    blocks: Vec<Vec<DecodedOp>>,
    /// Retired op vectors (capacity kept), reused by later decodes so a
    /// patch storm re-decodes into warm allocations.
    pool: Vec<Vec<DecodedOp>>,
    /// Uncached decode slot for the always-decode fallback.
    scratch: Vec<DecodedOp>,
    /// Forced always-decode mode: every dispatch decodes fresh and
    /// uncached (differential-testing reference path).
    fallback: bool,
    stats: DecodeStats,
}

impl BlockCache {
    /// An empty cache; decodes lazily on first use.
    pub fn new() -> Self {
        BlockCache::default()
    }

    /// Forces (or releases) the always-decode fallback path: no caching,
    /// every dispatch decodes the block fresh. Simulated results are
    /// bit-identical in either mode; only wall-clock and the
    /// [`DecodeStats`] mix change.
    pub fn set_fallback(&mut self, on: bool) {
        self.fallback = on;
    }

    /// True when the always-decode fallback is forced.
    pub fn fallback(&self) -> bool {
        self.fallback
    }

    /// Decode-cache effectiveness counters so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Aligns the cache with `text_len` ops at generation `gen`, dropping
    /// every decoded block if either moved. A length change without a
    /// generation bump is treated as a mutation too, so the append-resync
    /// path can never replay a stale decoded vector.
    fn sync(&mut self, text_len: usize, gen: u64) {
        if gen != self.gen || self.idx_at.len() != text_len {
            if !self.blocks.is_empty() {
                self.stats.invalidations += 1;
            }
            self.idx_at.clear();
            self.idx_at.resize(text_len, 0);
            for mut ops in self.blocks.drain(..) {
                ops.clear();
                self.pool.push(ops);
            }
            self.gen = gen;
        }
    }

    /// Resolves the decoded block entered at `pc`, decoding and caching
    /// it if unseen. `None` when `pc` is outside text.
    #[inline]
    fn ensure(&mut self, pc: u32, text: &[Op]) -> Option<&[DecodedOp]> {
        let start = pc as usize;
        let slot = *self.idx_at.get(start)?;
        if slot != 0 {
            self.stats.hits += 1;
            return Some(&self.blocks[slot as usize - 1]);
        }
        self.stats.misses += 1;
        let mut ops = self.pool.pop().unwrap_or_default();
        decode_block(text, start, &mut ops);
        self.blocks.push(ops);
        self.idx_at[start] = self.blocks.len() as u32;
        self.blocks.last().map(Vec::as_slice)
    }

    /// Decodes the block at `pc` into the scratch slot, uncached (the
    /// always-decode fallback). `None` when `pc` is outside text.
    fn decode_scratch(&mut self, pc: u32, text: &[Op]) -> Option<&[DecodedOp]> {
        let start = pc as usize;
        if start >= text.len() {
            return None;
        }
        self.stats.misses += 1;
        decode_block(text, start, &mut self.scratch);
        Some(&self.scratch)
    }
}

/// True for ops that never redirect control flow (block non-terminators).
#[inline]
fn is_straight(op: &Op) -> bool {
    matches!(
        op,
        Op::Movi { .. }
            | Op::Alu { .. }
            | Op::AluImm { .. }
            | Op::Load { .. }
            | Op::Store { .. }
            | Op::PrefetchNta { .. }
            | Op::Report { .. }
    )
}

/// Decodes the basic block at `start` (straight-line run plus terminator,
/// capped at `MAX_BLOCK_OPS` ops) into `out`, one decoded op per text op.
fn decode_block(text: &[Op], start: usize, out: &mut Vec<DecodedOp>) {
    out.clear();
    let end = text.len().min(start.saturating_add(MAX_BLOCK_OPS));
    for op in &text[start..end] {
        out.push(decode_one(op));
        if !is_straight(op) {
            break;
        }
    }
}

/// 1:1 decode of a single text op.
fn decode_one(op: &Op) -> DecodedOp {
    match op {
        Op::Movi { dst, imm } => DecodedOp::Movi {
            dst: *dst,
            imm: *imm,
        },
        Op::Alu { op, dst, a, b } => DecodedOp::Alu {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        },
        Op::AluImm { op, dst, a, imm } => DecodedOp::AluImm {
            op: *op,
            dst: *dst,
            a: *a,
            imm: *imm,
        },
        Op::Load { dst, base, offset } => DecodedOp::Load {
            dst: *dst,
            base: *base,
            offset: *offset,
        },
        Op::Store { base, offset, src } => DecodedOp::Store {
            base: *base,
            offset: *offset,
            src: *src,
        },
        Op::PrefetchNta { base, offset } => DecodedOp::PrefetchNta {
            base: *base,
            offset: *offset,
        },
        Op::Jmp { target } => DecodedOp::Jmp { target: *target },
        Op::Bnz { cond, target } => DecodedOp::Bnz {
            cond: *cond,
            target: *target,
        },
        Op::Bz { cond, target } => DecodedOp::Bz {
            cond: *cond,
            target: *target,
        },
        Op::Call { target, dst, args } => DecodedOp::Call {
            target: *target,
            dst: *dst,
            args: ArgList::new(args),
        },
        Op::CallVirt { slot, dst, args } => DecodedOp::CallVirt {
            slot: *slot,
            dst: *dst,
            args: ArgList::new(args),
        },
        Op::Ret { src } => DecodedOp::Ret { src: *src },
        Op::Report { channel, src } => DecodedOp::Report {
            channel: *channel,
            src: *src,
        },
        Op::Wait => DecodedOp::Wait,
        Op::Halt => DecodedOp::Halt,
    }
}

#[derive(Clone, Debug)]
struct Frame {
    base: usize,
    ret_pc: u32,
    ret_dst: Option<PReg>,
}

/// An armed OSR park request: stop the context immediately before the
/// `remaining`-th remaining entry into the block at `pc`.
#[derive(Clone, Copy, Debug)]
struct OsrPark {
    pc: u32,
    remaining: u64,
    hits: u64,
}

/// Translation-cache targets below this bound live in a dense bitset (one
/// bit per text address); rarer far targets (garbage indirect branches)
/// spill to a hash set so a wild `CallVirt` cannot force a huge
/// allocation.
const BT_DENSE_LIMIT: u32 = 1 << 22;

/// Binary-translation execution mode (the DynamoRIO-style baseline of
/// Figure 4). When attached to a context, every first-executed basic
/// block pays a translation cost and every branch pays dispatch overhead.
#[derive(Clone, Debug)]
pub struct BtState {
    config: BtConfig,
    /// Dense seen-target bitset over text addresses below
    /// [`BT_DENSE_LIMIT`], grown on demand.
    translated: Vec<u64>,
    /// Spillover for targets at or above [`BT_DENSE_LIMIT`].
    translated_far: HashSet<u32>,
    inst_counter: u8,
    /// Total extra cycles charged so far (for reporting).
    pub overhead_cycles: u64,
}

impl BtState {
    /// Creates a fresh translation cache with the given cost parameters.
    pub fn new(config: BtConfig) -> Self {
        BtState {
            config,
            translated: Vec::new(),
            translated_far: HashSet::new(),
            inst_counter: 0,
            overhead_cycles: 0,
        }
    }

    /// Records `target` as translated; true if it was new.
    #[inline]
    fn mark_translated(&mut self, target: u32) -> bool {
        if target < BT_DENSE_LIMIT {
            let word = (target >> 6) as usize;
            if word >= self.translated.len() {
                self.translated.resize(word + 1, 0);
            }
            let mask = 1u64 << (target & 63);
            let fresh = self.translated[word] & mask == 0;
            self.translated[word] |= mask;
            fresh
        } else {
            self.translated_far.insert(target)
        }
    }

    /// Charges for reaching `target`: translation if unseen, plus branch
    /// dispatch. Returns cycles.
    fn charge_branch(&mut self, target: u32, indirect: bool) -> u64 {
        let mut cost = if indirect {
            self.config.indirect_dispatch
        } else {
            self.config.branch_dispatch
        };
        if self.mark_translated(target) {
            cost += self.config.translate_block;
        }
        self.overhead_cycles += cost;
        cost
    }

    /// Diffuse per-instruction tax, charged every 16 retired
    /// instructions. Returns cycles for this instruction.
    fn charge_inst(&mut self) -> u64 {
        self.inst_counter = self.inst_counter.wrapping_add(1);
        if self.inst_counter & 15 == 0 {
            self.overhead_cycles += self.config.per_16_insts;
            self.config.per_16_insts
        } else {
            0
        }
    }
}

/// Architectural state of one running program.
#[derive(Clone, Debug)]
pub struct ExecContext {
    pc: u32,
    regs: Vec<i64>,
    frames: Vec<Frame>,
    /// Register-window base of the innermost frame, cached so register
    /// accesses skip the `frames.last()` indirection on the hot path.
    base: usize,
    status: ExecStatus,
    space: u16,
    evt_base: u64,
    bt: Option<BtState>,
    osr: Option<OsrPark>,
    /// Application-metric samples published via [`Op::Report`], drained by
    /// the OS.
    pub reports: Vec<(u8, i64)>,
}

impl ExecContext {
    /// Creates a context starting at `entry` in address space `space`.
    ///
    /// `evt_base` is the data address of EVT slot 0 (0 for non-protean
    /// binaries, which contain no `CallVirt`).
    pub fn new(entry: u32, space: u16, evt_base: u64) -> Self {
        let mut ctx = ExecContext {
            pc: entry,
            regs: Vec::with_capacity(FRAME_REGS * 16),
            frames: Vec::with_capacity(16),
            base: 0,
            status: ExecStatus::Running,
            space,
            evt_base,
            bt: None,
            osr: None,
            reports: Vec::new(),
        };
        ctx.push_frame(entry, 0, None, &[]);
        ctx.pc = entry;
        ctx
    }

    /// Attaches binary-translation mode (Figure 4 baseline). The entry
    /// block is marked translated up front (its one-time cost happens
    /// before timing starts, as when DynamoRIO takes over a process).
    pub fn with_binary_translation(mut self, config: BtConfig) -> Self {
        let mut bt = BtState::new(config);
        bt.mark_translated(self.pc);
        self.bt = Some(bt);
        self
    }

    /// The current program counter (a PC sample, as the runtime's ptrace
    /// polling would obtain).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Current liveness.
    pub fn status(&self) -> ExecStatus {
        self.status
    }

    /// The address-space id.
    pub fn space(&self) -> u16 {
        self.space
    }

    /// Total binary-translation overhead charged, if in BT mode.
    pub fn bt_overhead(&self) -> Option<u64> {
        self.bt.as_ref().map(|b| b.overhead_cycles)
    }

    /// Wakes a [`ExecStatus::Waiting`] context. No-op otherwise.
    pub fn wake(&mut self) {
        if self.status == ExecStatus::Waiting {
            self.status = ExecStatus::Running;
        }
    }

    /// True if the context can execute.
    pub fn is_running(&self) -> bool {
        self.status == ExecStatus::Running
    }

    /// Call depth (entry frame = 1).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Arms an OSR park request: the context stops with
    /// [`ExecStatus::OsrParked`] immediately *before* executing the
    /// `hit`-th entry (1-based; 0 is treated as 1) into the block at
    /// `pc`, counted from this call. Re-arming replaces any previous
    /// request. Parking is precise: the block at `pc` has not started
    /// executing when the context stops, so the register window is
    /// exactly the block-entry state the OSR certificate describes.
    pub fn osr_arm(&mut self, pc: u32, hit: u64) {
        self.osr = Some(OsrPark {
            pc,
            remaining: hit.max(1),
            hits: 0,
        });
    }

    /// Cancels any armed park request. A context currently
    /// [`ExecStatus::OsrParked`] resumes at the park PC (in the original
    /// code, frame untouched) on the next run — cancellation is always
    /// clean.
    pub fn osr_disarm(&mut self) {
        self.osr = None;
        if self.status == ExecStatus::OsrParked {
            self.status = ExecStatus::Running;
        }
    }

    /// PC of the armed park request, if one is pending or parked.
    pub fn osr_armed(&self) -> Option<u32> {
        self.osr.map(|p| p.pc)
    }

    /// Entries into the armed PC observed since arming (the parking
    /// entry included). 0 when nothing is armed.
    pub fn osr_hits(&self) -> u64 {
        self.osr.map_or(0, |p| p.hits)
    }

    /// True if the context is stopped at an OSR park point.
    pub fn is_osr_parked(&self) -> bool {
        self.status == ExecStatus::OsrParked
    }

    /// The innermost frame's register window (always [`FRAME_REGS`]
    /// slots). Callers snapshot this before [`Self::osr_apply`] so a
    /// detected misapply can restore the exact pre-transfer frame.
    pub fn frame_regs(&self) -> &[i64] {
        &self.regs[self.base..self.base + FRAME_REGS]
    }

    /// Rebuilds the innermost frame window from a transfer recipe, in
    /// the interpreter's transfer order (`pir::interp::run_with_transfer`
    /// is the reference semantics): zero-fill the whole window, then
    /// `moves` copy `dst ← src` from the *old* window, then `consts`
    /// patch immediates. Only legal while parked; the context stays
    /// parked so the caller can verify the result before
    /// [`Self::osr_resume`]. Returns false (frame untouched) if the
    /// context is not parked.
    pub fn osr_apply(&mut self, moves: &[(PReg, PReg)], consts: &[(PReg, i64)]) -> bool {
        if self.status != ExecStatus::OsrParked {
            return false;
        }
        let old: [i64; FRAME_REGS] = self.regs[self.base..self.base + FRAME_REGS]
            .try_into()
            .expect("frame window");
        for r in &mut self.regs[self.base..self.base + FRAME_REGS] {
            *r = 0;
        }
        for &(dst, src) in moves {
            self.regs[self.base + dst.index()] = old[src.index()];
        }
        for &(dst, v) in consts {
            self.regs[self.base + dst.index()] = v;
        }
        true
    }

    /// Overwrites the innermost frame window with a saved snapshot (the
    /// deopt path after a detected misapply). Only legal while parked;
    /// `window` must hold exactly [`FRAME_REGS`] values. Returns false
    /// (frame untouched) otherwise.
    pub fn osr_restore(&mut self, window: &[i64]) -> bool {
        if self.status != ExecStatus::OsrParked || window.len() != FRAME_REGS {
            return false;
        }
        self.regs[self.base..self.base + FRAME_REGS].copy_from_slice(window);
        true
    }

    /// Resumes a parked context at `target` and disarms the request.
    /// No text is mutated on this path, so the caller's block cache
    /// generation contract is untouched — resuming needs no decode
    /// invalidation, exactly like an EVT patch. Returns false if the
    /// context is not parked.
    pub fn osr_resume(&mut self, target: u32) -> bool {
        if self.status != ExecStatus::OsrParked {
            return false;
        }
        self.pc = target;
        self.status = ExecStatus::Running;
        self.osr = None;
        true
    }

    fn push_frame(&mut self, target: u32, ret_pc: u32, ret_dst: Option<PReg>, args: &[i64]) {
        let base = self.frames.len() * FRAME_REGS;
        self.regs.resize(base + FRAME_REGS, 0);
        // Zero the new window (resize only zeroes growth; reused capacity
        // after a pop must be cleared).
        for r in &mut self.regs[base..base + FRAME_REGS] {
            *r = 0;
        }
        for (i, a) in args.iter().enumerate() {
            self.regs[base + i] = *a;
        }
        self.frames.push(Frame {
            base,
            ret_pc,
            ret_dst,
        });
        self.base = base;
        self.pc = target;
    }

    #[inline]
    fn reg(&self, r: PReg) -> i64 {
        self.regs[self.base + r.index()]
    }

    #[inline]
    fn set_reg(&mut self, r: PReg, v: i64) {
        self.regs[self.base + r.index()] = v;
    }
}

/// Everything outside the context that one quantum of execution touches.
pub struct ExecEnv<'a> {
    /// Program text: loaded image plus any appended code-cache variants.
    pub text: &'a [Op],
    /// Monotonic generation of `text`. Callers bump it on every text
    /// mutation (code-cache append, corruption); `blocks` entries decoded
    /// under a different generation are discarded. EVT patches are data
    /// writes and need no bump.
    pub text_gen: u64,
    /// Decoded-block cache for `text`, owned by the caller and reused
    /// across quanta.
    pub blocks: &'a mut BlockCache,
    /// The process data segment.
    pub data: &'a mut [u8],
    /// The machine's cache hierarchy.
    pub mem: &'a mut MemorySystem,
    /// Core the context is scheduled on.
    pub core: usize,
    /// The context's hardware counters.
    pub counters: &'a mut PerfCounters,
    /// Instruction base costs.
    pub costs: CostModel,
}

fn fault(ctx: &mut ExecContext, addr: u64) -> StopReason {
    ctx.status = ExecStatus::Faulted(addr);
    StopReason::Faulted
}

/// True if an 8-byte access at `addr` stays inside `len` bytes
/// (overflow-safe: `addr + 8` must not wrap).
#[inline]
fn in_bounds(addr: u64, len: usize) -> bool {
    addr.checked_add(8).is_some_and(|end| end <= len as u64)
}

/// The PC after the op at `op_pc`, or `None` when the increment would
/// leave u32 — the caller faults instead of wrapping to address 0.
#[inline]
fn checked_next_pc(op_pc: usize) -> Option<u32> {
    u32::try_from(op_pc as u64 + 1).ok()
}

/// Runs `ctx` for up to `budget` cycles, returning how many cycles were
/// consumed and why execution stopped.
///
/// Memory accesses outside the data segment fault the context rather than
/// panicking, so buggy generated programs surface as [`StopReason::Faulted`].
/// PC arithmetic that would wrap past `u32::MAX` (fall-through or return
/// address past the end of a 4Gi-op text, an EVT target wider than u32)
/// faults the same way instead of silently wrapping or truncating.
pub fn run(ctx: &mut ExecContext, env: &mut ExecEnv<'_>, budget: u64) -> RunResult {
    if ctx.status != ExecStatus::Running {
        let stop = match ctx.status {
            ExecStatus::Waiting => StopReason::Waiting,
            ExecStatus::Faulted(_) => StopReason::Faulted,
            ExecStatus::OsrParked => StopReason::OsrParked,
            _ => StopReason::Halted,
        };
        return RunResult { cycles: 0, stop };
    }
    // Monomorphize over BT mode once per quantum: the common no-BT path
    // carries no per-instruction translation-tax checks at all.
    if ctx.bt.is_some() {
        run_impl::<true>(ctx, env, budget)
    } else {
        run_impl::<false>(ctx, env, budget)
    }
}

fn run_impl<const BT: bool>(
    ctx: &mut ExecContext,
    env: &mut ExecEnv<'_>,
    budget: u64,
) -> RunResult {
    let text = env.text;
    env.blocks.sync(text.len(), env.text_gen);
    let costs = env.costs;
    let data_len = env.data.len();
    let fallback = env.blocks.fallback;
    // Hot counters accumulate in locals and flush once on exit.
    let mut used: u64 = 0;
    let mut insts: u64 = 0;
    let mut branches: u64 = 0;
    let mut pc = ctx.pc;
    let stop = 'dispatch: loop {
        if used >= budget {
            break StopReason::BudgetExhausted;
        }
        // OSR park gate: fires at block entry, *after* the budget check
        // (a quantum that ends exactly at the header has not counted the
        // entry yet, so the next quantum counts it exactly once) and
        // *before* any op of the block executes. Charges no cycles, so
        // an unarmed context is bit-identical to a pre-OSR build.
        if let Some(park) = ctx.osr.as_mut() {
            if pc == park.pc {
                park.hits += 1;
                park.remaining -= 1;
                if park.remaining == 0 {
                    ctx.status = ExecStatus::OsrParked;
                    break StopReason::OsrParked;
                }
            }
        }
        let resolved = if fallback {
            env.blocks.decode_scratch(pc, text)
        } else {
            env.blocks.ensure(pc, text)
        };
        let Some(mut ops) = resolved else {
            break fault(ctx, u64::from(pc));
        };
        // An armed park PC acts as a block boundary: a header entered by
        // fall-through sits inside its predecessor's decoded block, so run
        // only the ops before it and let the next loop-top entry land
        // exactly on the park PC. Execution order, cycle charges, and
        // quantum boundaries are identical either way — only the gate's
        // visibility changes.
        if let Some(park) = ctx.osr {
            if park.pc > pc && ((park.pc - pc) as usize) < ops.len() {
                ops = &ops[..(park.pc - pc) as usize];
            }
        }
        let start = pc as usize;
        // `tpc` is the text address of the op being executed.
        let mut tpc = start;
        for dop in ops {
            // The budget gate is per instruction, exactly as per-op
            // dispatch: quantum boundaries land on the same instruction,
            // so schedule-sensitive simulations are unchanged.
            if used >= budget {
                pc = tpc as u32;
                break 'dispatch StopReason::BudgetExhausted;
            }
            insts += 1;
            let bt_inst_tax = if BT {
                ctx.bt.as_mut().expect("BT mode").charge_inst()
            } else {
                0
            };
            match *dop {
                DecodedOp::Movi { dst, imm } => {
                    used += costs.alu + bt_inst_tax;
                    ctx.set_reg(dst, imm);
                }
                DecodedOp::Alu { op, dst, a, b } => {
                    used += costs.alu + bt_inst_tax;
                    let v = op.eval(ctx.reg(a), ctx.reg(b));
                    ctx.set_reg(dst, v);
                }
                DecodedOp::AluImm { op, dst, a, imm } => {
                    used += costs.alu + bt_inst_tax;
                    let v = op.eval(ctx.reg(a), imm);
                    ctx.set_reg(dst, v);
                }
                DecodedOp::Load { dst, base, offset } => {
                    let addr = ctx.reg(base).wrapping_add(offset) as u64;
                    if !in_bounds(addr, data_len) {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, addr);
                    }
                    used += costs.alu
                        + bt_inst_tax
                        + env.mem.access(
                            env.core,
                            phys_addr(ctx.space, addr),
                            AccessKind::Load,
                            env.counters,
                        );
                    let a = addr as usize;
                    let v = i64::from_le_bytes(env.data[a..a + 8].try_into().expect("8 bytes"));
                    ctx.set_reg(dst, v);
                }
                DecodedOp::Store { base, offset, src } => {
                    let addr = ctx.reg(base).wrapping_add(offset) as u64;
                    if !in_bounds(addr, data_len) {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, addr);
                    }
                    used += costs.alu
                        + bt_inst_tax
                        + env.mem.access(
                            env.core,
                            phys_addr(ctx.space, addr),
                            AccessKind::Store,
                            env.counters,
                        );
                    let v = ctx.reg(src);
                    let a = addr as usize;
                    env.data[a..a + 8].copy_from_slice(&v.to_le_bytes());
                }
                DecodedOp::PrefetchNta { base, offset } => {
                    let addr = ctx.reg(base).wrapping_add(offset) as u64;
                    used += costs.prefetch + bt_inst_tax;
                    // Prefetches to invalid addresses are silently dropped,
                    // as on real hardware.
                    if in_bounds(addr, data_len) {
                        used += env.mem.access(
                            env.core,
                            phys_addr(ctx.space, addr),
                            AccessKind::NonTemporalPrefetch,
                            env.counters,
                        );
                    }
                }
                DecodedOp::Jmp { target } => {
                    branches += 1;
                    let mut cost = costs.branch;
                    if BT {
                        cost += ctx
                            .bt
                            .as_mut()
                            .expect("BT mode")
                            .charge_branch(target, false);
                    }
                    used += cost + bt_inst_tax;
                    pc = target;
                    continue 'dispatch;
                }
                DecodedOp::Bnz { cond, target } => {
                    branches += 1;
                    let mut cost = costs.branch;
                    if ctx.reg(cond) != 0 {
                        if BT {
                            cost += ctx
                                .bt
                                .as_mut()
                                .expect("BT mode")
                                .charge_branch(target, false);
                        }
                        used += cost + bt_inst_tax;
                        pc = target;
                        continue 'dispatch;
                    }
                    used += cost + bt_inst_tax;
                }
                DecodedOp::Bz { cond, target } => {
                    branches += 1;
                    let mut cost = costs.branch;
                    if ctx.reg(cond) == 0 {
                        if BT {
                            cost += ctx
                                .bt
                                .as_mut()
                                .expect("BT mode")
                                .charge_branch(target, false);
                        }
                        used += cost + bt_inst_tax;
                        pc = target;
                        continue 'dispatch;
                    }
                    used += cost + bt_inst_tax;
                }
                DecodedOp::Call { target, dst, args } => {
                    branches += 1;
                    let mut cost = costs.call;
                    if BT {
                        cost += ctx
                            .bt
                            .as_mut()
                            .expect("BT mode")
                            .charge_branch(target, false);
                    }
                    let mut vals = [0i64; visa::MAX_ARGS];
                    for (k, a) in args.as_slice().iter().enumerate() {
                        vals[k] = ctx.reg(*a);
                    }
                    let Some(ret_pc) = checked_next_pc(tpc) else {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, tpc as u64 + 1);
                    };
                    ctx.push_frame(target, ret_pc, dst, &vals[..args.len as usize]);
                    used += cost + bt_inst_tax;
                    pc = target;
                    continue 'dispatch;
                }
                DecodedOp::CallVirt { slot, dst, args } => {
                    branches += 1;
                    let mut cost = costs.call + costs.indirect_penalty;
                    let cell = ctx
                        .evt_base
                        .wrapping_add(8u64.wrapping_mul(u64::from(slot)));
                    if !in_bounds(cell, data_len) {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, cell);
                    }
                    // The EVT read is an ordinary cached memory access; this
                    // is where the (tiny) cost of edge virtualization lives.
                    cost += env.mem.access(
                        env.core,
                        phys_addr(ctx.space, cell),
                        AccessKind::Load,
                        env.counters,
                    );
                    let c = cell as usize;
                    let raw = u64::from_le_bytes(env.data[c..c + 8].try_into().expect("8 bytes"));
                    let Ok(target) = u32::try_from(raw) else {
                        // A corrupted EVT cell wider than the PC space
                        // faults instead of silently truncating to a
                        // plausible (and wrong) text address.
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, raw);
                    };
                    if BT {
                        cost += ctx
                            .bt
                            .as_mut()
                            .expect("BT mode")
                            .charge_branch(target, true);
                    }
                    let mut vals = [0i64; visa::MAX_ARGS];
                    for (k, a) in args.as_slice().iter().enumerate() {
                        vals[k] = ctx.reg(*a);
                    }
                    let Some(ret_pc) = checked_next_pc(tpc) else {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, tpc as u64 + 1);
                    };
                    ctx.push_frame(target, ret_pc, dst, &vals[..args.len as usize]);
                    used += cost + bt_inst_tax;
                    pc = target;
                    continue 'dispatch;
                }
                DecodedOp::Ret { src } => {
                    branches += 1;
                    let mut cost = costs.call;
                    let val = src.map(|r| ctx.reg(r));
                    let frame = ctx.frames.pop().expect("ret with live frame");
                    ctx.regs.truncate(frame.base);
                    if ctx.frames.is_empty() {
                        // Returned from the entry frame: program finished.
                        ctx.base = 0;
                        used += cost;
                        pc = tpc as u32;
                        ctx.status = ExecStatus::Halted;
                        break 'dispatch StopReason::Halted;
                    }
                    ctx.base = ctx.frames.last().expect("caller frame").base;
                    if BT {
                        cost += ctx
                            .bt
                            .as_mut()
                            .expect("BT mode")
                            .charge_branch(frame.ret_pc, true);
                    }
                    if let (Some(dst), Some(v)) = (frame.ret_dst, val) {
                        ctx.set_reg(dst, v);
                    }
                    used += cost + bt_inst_tax;
                    pc = frame.ret_pc;
                    continue 'dispatch;
                }
                DecodedOp::Report { channel, src } => {
                    used += costs.alu + bt_inst_tax;
                    let v = ctx.reg(src);
                    ctx.reports.push((channel, v));
                }
                DecodedOp::Wait => {
                    used += costs.alu;
                    let Some(next) = checked_next_pc(tpc) else {
                        pc = tpc as u32;
                        break 'dispatch fault(ctx, tpc as u64 + 1);
                    };
                    pc = next;
                    ctx.status = ExecStatus::Waiting;
                    break 'dispatch StopReason::Waiting;
                }
                DecodedOp::Halt => {
                    used += costs.alu;
                    pc = tpc as u32;
                    ctx.status = ExecStatus::Halted;
                    break 'dispatch StopReason::Halted;
                }
            }
            tpc += 1;
        }
        // Fall through past the block's end to the next sequential block.
        let next = (start + ops.len()) as u64;
        match u32::try_from(next) {
            Ok(next_pc) => pc = next_pc,
            Err(_) => {
                pc = (start + ops.len() - 1) as u32;
                break fault(ctx, next);
            }
        }
    };
    ctx.pc = pc;
    env.counters.instructions += insts;
    env.counters.branches += branches;
    env.counters.cycles += used;
    RunResult { cycles: used, stop }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use pir::BinOp;

    fn env_parts() -> (MemorySystem, Vec<u8>, PerfCounters, BlockCache) {
        let cfg = MachineConfig::small();
        (
            MemorySystem::new(&cfg),
            vec![0u8; 4096],
            PerfCounters::default(),
            BlockCache::new(),
        )
    }

    fn run_to_end(text: &[Op], data: &mut Vec<u8>, evt_base: u64) -> (ExecContext, PerfCounters) {
        let cfg = MachineConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        let mut counters = PerfCounters::default();
        let mut blocks = BlockCache::new();
        let mut ctx = ExecContext::new(0, 1, evt_base);
        let mut env = ExecEnv {
            text,
            text_gen: 0,
            blocks: &mut blocks,
            data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_ne!(
            res.stop,
            StopReason::BudgetExhausted,
            "program should finish"
        );
        (ctx, counters)
    }

    #[test]
    fn arithmetic_and_halt() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 6,
            },
            Op::AluImm {
                op: BinOp::Mul,
                dst: PReg(1),
                a: PReg(0),
                imm: 7,
            },
            Op::Store {
                base: PReg(2),
                offset: 100,
                src: PReg(1),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 4096];
        let (ctx, counters) = run_to_end(&text, &mut data, 0);
        assert_eq!(ctx.status(), ExecStatus::Halted);
        assert_eq!(i64::from_le_bytes(data[100..108].try_into().unwrap()), 42);
        assert_eq!(counters.instructions, 4);
    }

    #[test]
    fn load_store_roundtrip() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 256,
            },
            Op::Movi {
                dst: PReg(1),
                imm: -99,
            },
            Op::Store {
                base: PReg(0),
                offset: 0,
                src: PReg(1),
            },
            Op::Load {
                dst: PReg(2),
                base: PReg(0),
                offset: 0,
            },
            Op::Store {
                base: PReg(0),
                offset: 8,
                src: PReg(2),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 4096];
        let (_, _) = run_to_end(&text, &mut data, 0);
        assert_eq!(i64::from_le_bytes(data[264..272].try_into().unwrap()), -99);
    }

    #[test]
    fn call_and_ret_with_register_windows() {
        // f(a, b) = a + b at addr 0; main at 2.
        let text = vec![
            Op::Alu {
                op: BinOp::Add,
                dst: PReg(2),
                a: PReg(0),
                b: PReg(1),
            },
            Op::Ret { src: Some(PReg(2)) },
            // main:
            Op::Movi {
                dst: PReg(5),
                imm: 30,
            },
            Op::Movi {
                dst: PReg(6),
                imm: 12,
            },
            Op::Call {
                target: 0,
                dst: Some(PReg(7)),
                args: vec![PReg(5), PReg(6)],
            },
            Op::Store {
                base: PReg(0),
                offset: 64,
                src: PReg(7),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 4096];
        let (mut mem, _, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(2, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(i64::from_le_bytes(data[64..72].try_into().unwrap()), 42);
    }

    #[test]
    fn callee_registers_start_zeroed_after_frame_reuse() {
        // dirty(x): writes r3 = 77, returns; probe(): returns r3 (should
        // be 0 even after dirty() polluted the same window).
        let text = vec![
            // dirty at 0:
            Op::Movi {
                dst: PReg(3),
                imm: 77,
            },
            Op::Ret { src: None },
            // probe at 2:
            Op::Ret { src: Some(PReg(3)) },
            // main at 3:
            Op::Call {
                target: 0,
                dst: None,
                args: vec![],
            },
            Op::Call {
                target: 2,
                dst: Some(PReg(0)),
                args: vec![],
            },
            Op::Store {
                base: PReg(1),
                offset: 128,
                src: PReg(0),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 4096];
        let (mut mem, _, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(3, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(i64::from_le_bytes(data[128..136].try_into().unwrap()), 0);
    }

    #[test]
    fn recursion_via_entry_return_halts() {
        // main: ret -> returning from entry frame halts the program.
        let text = vec![Op::Ret { src: None }];
        let mut data = vec![0u8; 64];
        let (ctx, _) = run_to_end(&text, &mut data, 0);
        assert_eq!(ctx.status(), ExecStatus::Halted);
    }

    #[test]
    fn loop_respects_budget() {
        // Infinite loop; ensure budget exhaustion returns control.
        let text = vec![Op::Jmp { target: 0 }];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1000);
        assert_eq!(res.stop, StopReason::BudgetExhausted);
        assert!(res.cycles >= 1000);
        assert!(ctx.is_running());
        assert_eq!(counters.branches, counters.instructions);
    }

    #[test]
    fn budget_overshoot_is_bounded_by_one_instruction() {
        // A long straight-line run: the per-instruction budget gate must
        // stop within one instruction's cost of the budget.
        let mut text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1,
            };
            4 * MAX_BLOCK_OPS
        ];
        text.push(Op::Jmp { target: 0 });
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let budget = 1_000;
        let max_inst_cost = env.costs.branch.max(env.costs.alu);
        let res = run(&mut ctx, &mut env, budget);
        assert_eq!(res.stop, StopReason::BudgetExhausted);
        assert!(res.cycles >= budget);
        assert!(
            res.cycles <= budget + max_inst_cost,
            "overshoot too large: {} vs budget {budget}",
            res.cycles
        );
    }

    #[test]
    fn wait_parks_and_wake_resumes() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1,
            },
            Op::Wait,
            Op::Movi {
                dst: PReg(0),
                imm: 2,
            },
            Op::Halt,
        ];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1000);
        assert_eq!(res.stop, StopReason::Waiting);
        assert_eq!(ctx.status(), ExecStatus::Waiting);
        // Running while parked consumes nothing.
        let res2 = run(&mut ctx, &mut env, 1000);
        assert_eq!(res2.cycles, 0);
        assert_eq!(res2.stop, StopReason::Waiting);
        ctx.wake();
        let res3 = run(&mut ctx, &mut env, 1000);
        assert_eq!(res3.stop, StopReason::Halted);
    }

    /// A counted loop: r0 counts up to 5, storing the count each
    /// iteration; header (the count/branch block) at 1, body fall-through.
    fn counted_loop_text() -> Vec<Op> {
        vec![
            Op::Movi {
                dst: PReg(0),
                imm: 0,
            },
            // header at 1:
            Op::AluImm {
                op: BinOp::Add,
                dst: PReg(0),
                a: PReg(0),
                imm: 1,
            },
            Op::Store {
                base: PReg(3),
                offset: 64,
                src: PReg(0),
            },
            Op::AluImm {
                op: BinOp::Lt,
                dst: PReg(1),
                a: PReg(0),
                imm: 5,
            },
            Op::Bnz {
                cond: PReg(1),
                target: 1,
            },
            Op::Halt,
        ]
    }

    #[test]
    fn osr_park_stops_at_exact_hit_with_block_entry_state() {
        let text = counted_loop_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        // Park on the 3rd entry into the header: two full iterations have
        // stored 1 and 2, and r0 == 2 at block entry (the increment of
        // the 3rd iteration has not executed).
        ctx.osr_arm(1, 3);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::OsrParked);
        assert_eq!(ctx.status(), ExecStatus::OsrParked);
        assert!(ctx.is_osr_parked());
        assert_eq!(ctx.pc(), 1);
        assert_eq!(ctx.osr_hits(), 3);
        assert_eq!(ctx.frame_regs()[0], 2);
        assert_eq!(i64::from_le_bytes(env.data[64..72].try_into().unwrap()), 2);
        // A parked context consumes nothing.
        let res2 = run(&mut ctx, &mut env, 1000);
        assert_eq!(res2.cycles, 0);
        assert_eq!(res2.stop, StopReason::OsrParked);
    }

    #[test]
    fn osr_disarm_resumes_in_place_bit_identically() {
        let text = counted_loop_text();
        let run_with = |park: bool| {
            let (mut mem, mut data, mut counters, mut blocks) = env_parts();
            let mut ctx = ExecContext::new(0, 1, 0);
            if park {
                ctx.osr_arm(1, 2);
            }
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let mut res = run(&mut ctx, &mut env, 1_000_000);
            if res.stop == StopReason::OsrParked {
                ctx.osr_disarm();
                let more = run(&mut ctx, &mut env, 1_000_000);
                res = RunResult {
                    cycles: res.cycles + more.cycles,
                    stop: more.stop,
                };
            }
            (res, data, counters.instructions)
        };
        let (plain, plain_data, plain_insts) = run_with(false);
        let (parked, parked_data, parked_insts) = run_with(true);
        assert_eq!(plain.stop, StopReason::Halted);
        assert_eq!(parked.stop, StopReason::Halted);
        // Park + cancel charges nothing and perturbs nothing: identical
        // cycles, instructions, and final memory.
        assert_eq!(plain.cycles, parked.cycles);
        assert_eq!(plain_insts, parked_insts);
        assert_eq!(plain_data, parked_data);
    }

    #[test]
    fn osr_apply_rebuilds_frame_in_transfer_order_and_resume_continues() {
        let text = counted_loop_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        ctx.osr_arm(1, 4); // r0 == 3 at block entry
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        assert_eq!(
            run(&mut ctx, &mut env, 1_000_000).stop,
            StopReason::OsrParked
        );
        // Apply is refused while running (checked via a fresh context).
        let mut fresh = ExecContext::new(0, 1, 0);
        assert!(!fresh.osr_apply(&[], &[]));
        assert!(!fresh.osr_restore(&[0; FRAME_REGS]));
        assert!(!fresh.osr_resume(1));
        // Transfer order: zero-fill, then moves from the OLD window, then
        // consts. r2 ← old r0 (3), r0 ← old r0 (3), then const r0 = 4;
        // a move reading a reg another move already wrote must still see
        // the old value (r1 ← old r0, not the freshly-written r0).
        let snapshot: Vec<i64> = ctx.frame_regs().to_vec();
        assert!(ctx.osr_apply(
            &[(PReg(2), PReg(0)), (PReg(0), PReg(0)), (PReg(1), PReg(0))],
            &[(PReg(0), 4)],
        ));
        assert_eq!(ctx.frame_regs()[0], 4, "const patches after moves");
        assert_eq!(ctx.frame_regs()[1], 3, "move reads the old window");
        assert_eq!(ctx.frame_regs()[2], 3);
        assert_eq!(ctx.frame_regs()[3], 0, "unmentioned regs zero-filled");
        // Restore the pre-transfer frame (the misapply deopt path), then
        // re-apply the real transfer and resume at the header: the loop
        // continues from r0 == 3 as if never interrupted.
        assert!(ctx.osr_restore(&snapshot));
        assert_eq!(ctx.frame_regs()[0], 3);
        assert!(ctx.osr_apply(&[(PReg(0), PReg(0))], &[]));
        assert!(ctx.osr_resume(1));
        assert_eq!(ctx.status(), ExecStatus::Running);
        assert_eq!(ctx.osr_armed(), None);
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(i64::from_le_bytes(env.data[64..72].try_into().unwrap()), 5);
    }

    #[test]
    fn osr_park_does_not_recount_on_quantum_boundary() {
        // Drain the budget so quanta end at arbitrary points, including
        // block entries: every header entry must be counted exactly once.
        let text = counted_loop_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        ctx.osr_arm(1, 5);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let mut stop = StopReason::BudgetExhausted;
        for _ in 0..10_000 {
            stop = run(&mut ctx, &mut env, 1).stop;
            if stop != StopReason::BudgetExhausted {
                break;
            }
        }
        assert_eq!(stop, StopReason::OsrParked);
        assert_eq!(ctx.osr_hits(), 5);
        assert_eq!(ctx.frame_regs()[0], 4, "parked at entry of the 5th pass");
    }

    #[test]
    fn out_of_bounds_load_faults() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1 << 20,
            },
            Op::Load {
                dst: PReg(1),
                base: PReg(0),
                offset: 0,
            },
            Op::Halt,
        ];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1000);
        assert_eq!(res.stop, StopReason::Faulted);
        assert!(matches!(ctx.status(), ExecStatus::Faulted(_)));
    }

    #[test]
    fn pc_past_text_faults() {
        let text = vec![Op::Jmp { target: 7 }];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1000);
        assert_eq!(res.stop, StopReason::Faulted);
    }

    #[test]
    fn any_encodable_register_is_valid() {
        // PReg is a byte and the frame holds 256 slots, so even registers
        // the compiler never allocates (240..=255) must read and write a
        // real slot instead of panicking the simulator.
        let text = vec![
            Op::Movi {
                dst: PReg(255),
                imm: 7,
            },
            Op::Alu {
                op: BinOp::Add,
                dst: PReg(254),
                a: PReg(255),
                b: PReg(240),
            },
            Op::Store {
                base: PReg(2),
                offset: 64,
                src: PReg(254),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 4096];
        let (ctx, _) = run_to_end(&text, &mut data, 0);
        assert_eq!(ctx.status(), ExecStatus::Halted);
        assert_eq!(i64::from_le_bytes(data[64..72].try_into().unwrap()), 7);
    }

    #[test]
    fn next_pc_overflow_is_a_fault_not_a_wrap() {
        // The guard itself: a return address or fall-through past
        // u32::MAX must refuse to wrap to text address 0.
        assert_eq!(checked_next_pc(10), Some(11));
        assert_eq!(checked_next_pc(u32::MAX as usize - 1), Some(u32::MAX));
        assert_eq!(checked_next_pc(u32::MAX as usize), None);
    }

    #[test]
    fn callvirt_target_wider_than_u32_faults_instead_of_truncating() {
        // EVT slot holds (1 << 32) | 1: truncation would "call" the valid
        // text address 1 and silently run the wrong code.
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 0,
            },
            Op::Halt,
            // main at 2:
            Op::CallVirt {
                slot: 0,
                dst: None,
                args: vec![],
            },
            Op::Halt,
        ];
        let evt_base = 64u64;
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let bad = (1u64 << 32) | 1;
        data[64..72].copy_from_slice(&bad.to_le_bytes());
        let mut ctx = ExecContext::new(2, 1, evt_base);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1000);
        assert_eq!(res.stop, StopReason::Faulted);
        assert_eq!(ctx.status(), ExecStatus::Faulted(bad));
        assert_eq!(ctx.pc(), 2, "fault reported at the CallVirt itself");
    }

    #[test]
    fn callvirt_reads_evt_and_redirect_takes_effect() {
        // Two variants of a leaf function; EVT slot 0 selects.
        let text = vec![
            // variant A at 0: returns 1
            Op::Movi {
                dst: PReg(0),
                imm: 1,
            },
            Op::Ret { src: Some(PReg(0)) },
            // variant B at 2: returns 2
            Op::Movi {
                dst: PReg(0),
                imm: 2,
            },
            Op::Ret { src: Some(PReg(0)) },
            // main at 4: callv [evt+0]; store result; callv again after
            // the "runtime" patches the EVT (simulated by a store here? —
            // no: the test patches data directly between runs).
            Op::CallVirt {
                slot: 0,
                dst: Some(PReg(1)),
                args: vec![],
            },
            Op::Store {
                base: PReg(2),
                offset: 512,
                src: PReg(1),
            },
            Op::Wait,
            Op::CallVirt {
                slot: 0,
                dst: Some(PReg(1)),
                args: vec![],
            },
            Op::Store {
                base: PReg(2),
                offset: 520,
                src: PReg(1),
            },
            Op::Halt,
        ];
        let evt_base = 64u64;
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        data[64..72].copy_from_slice(&0u64.to_le_bytes()); // slot 0 -> variant A
        let mut ctx = ExecContext::new(4, 1, evt_base);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Waiting);
        // "EVT manager" patches the slot with a single 8-byte write while
        // the program is parked. No text mutation, so no generation bump:
        // the decoded blocks stay valid and the redirect must still land.
        env.data[64..72].copy_from_slice(&2u64.to_le_bytes());
        ctx.wake();
        let res2 = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res2.stop, StopReason::Halted);
        assert_eq!(
            i64::from_le_bytes(env.data[512..520].try_into().unwrap()),
            1
        );
        assert_eq!(
            i64::from_le_bytes(env.data[520..528].try_into().unwrap()),
            2
        );
    }

    #[test]
    fn text_mutation_with_gen_bump_executes_fresh_code() {
        // A loop whose body block is decoded on the first run, then
        // patched in place (as `corrupt_text` / a code-cache write would)
        // while the context is parked. After the generation bump the next
        // pass must execute the new op, not any stale decoding.
        let mut text = vec![
            Op::Movi {
                dst: PReg(3),
                imm: 5,
            },
            Op::Store {
                base: PReg(2),
                offset: 64,
                src: PReg(3),
            },
            Op::Wait,
            Op::Jmp { target: 0 },
        ];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        {
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let res = run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(res.stop, StopReason::Waiting);
        }
        assert_eq!(i64::from_le_bytes(data[64..72].try_into().unwrap()), 5);
        // In-place patch of the already-decoded block, plus the bump.
        text[0] = Op::Movi {
            dst: PReg(3),
            imm: 9,
        };
        ctx.wake();
        let mut env = ExecEnv {
            text: &text,
            text_gen: 1,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Waiting);
        assert_eq!(i64::from_le_bytes(env.data[64..72].try_into().unwrap()), 9);
    }

    #[test]
    fn text_append_is_visible_even_without_gen_bump() {
        // Appends change text length; the cache resyncs on the length
        // mismatch alone, so a caller that forgot the bump still cannot
        // run off the old end.
        let mut text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1,
            },
            Op::Wait,
            Op::Jmp { target: 3 },
        ];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        {
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            assert_eq!(run(&mut ctx, &mut env, 1_000_000).stop, StopReason::Waiting);
        }
        // Code-cache append: a variant at addr 3 that proves it ran.
        text.push(Op::Movi {
            dst: PReg(1),
            imm: 42,
        });
        text.push(Op::Store {
            base: PReg(2),
            offset: 72,
            src: PReg(1),
        });
        text.push(Op::Halt);
        ctx.wake();
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(i64::from_le_bytes(env.data[72..80].try_into().unwrap()), 42);
    }

    #[test]
    fn binary_translation_charges_overhead() {
        // A loop executing 1000 iterations: BT mode must be slower and
        // report overhead.
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1000,
            },
            // loop: dec, bnz
            Op::AluImm {
                op: BinOp::Sub,
                dst: PReg(0),
                a: PReg(0),
                imm: 1,
            },
            Op::Bnz {
                cond: PReg(0),
                target: 1,
            },
            Op::Halt,
        ];
        let time = |bt: bool| {
            let (mut mem, mut data, mut counters, mut blocks) = env_parts();
            let mut ctx = ExecContext::new(0, 1, 0);
            if bt {
                ctx = ctx.with_binary_translation(BtConfig::default());
            }
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let res = run(&mut ctx, &mut env, u64::MAX / 2);
            assert_eq!(res.stop, StopReason::Halted);
            (res.cycles, ctx.bt_overhead())
        };
        let (plain, none) = time(false);
        let (translated, overhead) = time(true);
        assert_eq!(none, None);
        let oh = overhead.unwrap();
        assert!(oh > 0);
        assert_eq!(translated, plain + oh);
    }

    #[test]
    fn bt_translation_cache_spills_far_targets() {
        // Targets beyond the dense bitset limit still deduplicate, and the
        // dense part never grows to cover them.
        let mut bt = BtState::new(BtConfig::default());
        let far = BT_DENSE_LIMIT + 123;
        assert!(bt.mark_translated(far));
        assert!(!bt.mark_translated(far));
        assert!(bt.mark_translated(7));
        assert!(!bt.mark_translated(7));
        assert!(bt.translated.len() <= 1, "near target stays dense");
        assert_eq!(bt.translated_far.len(), 1);
    }

    #[test]
    fn bz_branches_on_zero() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 0,
            },
            Op::Bz {
                cond: PReg(0),
                target: 4,
            }, // taken: r0 == 0
            Op::Movi {
                dst: PReg(1),
                imm: 111,
            }, // skipped
            Op::Halt,
            Op::Movi {
                dst: PReg(1),
                imm: 7,
            },
            Op::Bz {
                cond: PReg(1),
                target: 0,
            }, // not taken: r1 != 0
            Op::Store {
                base: PReg(2),
                offset: 64,
                src: PReg(1),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 256];
        let (ctx, counters) = run_to_end(&text, &mut data, 0);
        assert_eq!(ctx.status(), ExecStatus::Halted);
        assert_eq!(i64::from_le_bytes(data[64..72].try_into().unwrap()), 7);
        assert_eq!(counters.branches, 2);
    }

    #[test]
    fn report_samples_collected() {
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 5,
            },
            Op::Report {
                channel: 2,
                src: PReg(0),
            },
            Op::Movi {
                dst: PReg(0),
                imm: 9,
            },
            Op::Report {
                channel: 2,
                src: PReg(0),
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 64];
        let (ctx, _) = run_to_end(&text, &mut data, 0);
        assert_eq!(ctx.reports, vec![(2, 5), (2, 9)]);
    }

    #[test]
    fn counters_track_memory_hierarchy() {
        // Stream 64 distinct lines: all LLC misses the first pass.
        let text = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 0,
            },
            // loop:
            Op::Load {
                dst: PReg(1),
                base: PReg(0),
                offset: 0,
            },
            Op::AluImm {
                op: BinOp::Add,
                dst: PReg(0),
                a: PReg(0),
                imm: 64,
            },
            Op::AluImm {
                op: BinOp::Lt,
                dst: PReg(2),
                a: PReg(0),
                imm: 64 * 64,
            },
            Op::Bnz {
                cond: PReg(2),
                target: 1,
            },
            Op::Halt,
        ];
        let mut data = vec![0u8; 64 * 64 + 64];
        let (_, counters) = run_to_end(&text, &mut data, 0);
        assert_eq!(counters.llc_misses, 64);
        assert!(counters.cycles > 64 * 180);
    }
    /// Three loops and an epilogue mixing loads, stores, both ALU forms
    /// and both branch senses: loop 1 streams 16 lines, loop 2 counts
    /// down with a `Bz` back-edge, loop 3 runs a two-op block, and the
    /// epilogue's taken `Bz` must skip a poison op.
    fn mixed_blocks_text() -> Vec<Op> {
        vec![
            // 0:
            Op::Movi {
                dst: PReg(0),
                imm: 0,
            },
            Op::Movi {
                dst: PReg(7),
                imm: 0,
            },
            // loop1 at 2: sum 16 lines into r5, bump r0 by a line.
            Op::Load {
                dst: PReg(1),
                base: PReg(0),
                offset: 0,
            },
            Op::Alu {
                op: BinOp::Add,
                dst: PReg(5),
                a: PReg(5),
                b: PReg(1),
            },
            Op::AluImm {
                op: BinOp::Add,
                dst: PReg(0),
                a: PReg(0),
                imm: 64,
            },
            Op::AluImm {
                op: BinOp::Lt,
                dst: PReg(2),
                a: PReg(0),
                imm: 1024,
            },
            Op::Bnz {
                cond: PReg(2),
                target: 2,
            },
            // 7: loop2 preamble, then 5 iterations of r4 += 3.
            Op::Movi {
                dst: PReg(6),
                imm: 5,
            },
            // loop2 at 8:
            Op::Load {
                dst: PReg(1),
                base: PReg(7),
                offset: 0,
            },
            Op::AluImm {
                op: BinOp::Add,
                dst: PReg(4),
                a: PReg(4),
                imm: 3,
            },
            Op::AluImm {
                op: BinOp::Sub,
                dst: PReg(6),
                a: PReg(6),
                imm: 1,
            },
            Op::Alu {
                op: BinOp::Eq,
                dst: PReg(2),
                a: PReg(6),
                b: PReg(7),
            },
            Op::Bz {
                cond: PReg(2),
                target: 8,
            },
            // 13: loop3 preamble, count r6 from 3 to 0.
            Op::Movi {
                dst: PReg(8),
                imm: 1,
            },
            Op::Movi {
                dst: PReg(6),
                imm: 3,
            },
            // loop3 at 15:
            Op::Alu {
                op: BinOp::Sub,
                dst: PReg(6),
                a: PReg(6),
                b: PReg(8),
            },
            Op::Bnz {
                cond: PReg(6),
                target: 15,
            },
            // 17: compare + taken Bz skips the poison op.
            Op::AluImm {
                op: BinOp::Lt,
                dst: PReg(2),
                a: PReg(6),
                imm: 0,
            },
            Op::Bz {
                cond: PReg(2),
                target: 20,
            },
            // 19: poison; executing it means a branch went wrong.
            Op::Movi {
                dst: PReg(5),
                imm: -777,
            },
            // 20: epilogue.
            Op::Load {
                dst: PReg(1),
                base: PReg(7),
                offset: 0,
            },
            Op::Load {
                dst: PReg(3),
                base: PReg(7),
                offset: 8,
            },
            Op::Store {
                base: PReg(7),
                offset: 4096,
                src: PReg(5),
            },
            Op::Store {
                base: PReg(7),
                offset: 4104,
                src: PReg(4),
            },
            Op::Report {
                channel: 1,
                src: PReg(4),
            },
            Op::Halt,
        ]
    }

    /// Runs `text` to completion in fixed-size quanta, optionally forcing
    /// the always-decode fallback, and returns everything an observer can
    /// see: the per-quantum (pc, cycles) trajectory, final counters,
    /// final data image, reports, and status.
    #[allow(clippy::type_complexity)]
    fn run_quantized(
        text: &[Op],
        quantum: u64,
        fallback: bool,
    ) -> (
        Vec<(u32, u64)>,
        PerfCounters,
        Vec<u8>,
        Vec<(u8, i64)>,
        ExecStatus,
    ) {
        let cfg = MachineConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        let mut data = vec![0u8; 8192];
        let mut counters = PerfCounters::default();
        let mut blocks = BlockCache::new();
        blocks.set_fallback(fallback);
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut traj = Vec::new();
        loop {
            let mut env = ExecEnv {
                text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let res = run(&mut ctx, &mut env, quantum);
            traj.push((ctx.pc(), res.cycles));
            if res.stop != StopReason::BudgetExhausted {
                break;
            }
            assert!(traj.len() < 5_000_000, "program did not finish");
        }
        let reports = ctx.reports.clone();
        (traj, counters, data, reports, ctx.status())
    }

    #[test]
    fn decoded_and_fallback_are_bit_identical_across_quanta() {
        let text = mixed_blocks_text();
        // Quantum 1 forces a boundary before every instruction, so every
        // block gets split after each of its ops at least once; 7 lands
        // the boundary at rotating offsets; the large quantum never splits.
        for quantum in [1u64, 7, 1_000_000] {
            let decoded = run_quantized(&text, quantum, false);
            let fallback = run_quantized(&text, quantum, true);
            assert_eq!(decoded, fallback, "quantum {quantum} diverged");
            let (_, counters, data, reports, status) = decoded;
            assert_eq!(status, ExecStatus::Halted);
            // r5 untouched by the poison op, r4 == 5 iterations * 3.
            assert_eq!(i64::from_le_bytes(data[4096..4104].try_into().unwrap()), 0);
            assert_eq!(i64::from_le_bytes(data[4104..4112].try_into().unwrap()), 15);
            assert_eq!(reports, vec![(1, 15)]);
            assert!(counters.instructions > 0);
        }
    }

    #[test]
    fn decode_stats_track_hits_and_misses() {
        let text = mixed_blocks_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        data.resize(8192, 0);
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        let stats = blocks.stats();
        // Eight distinct blocks are entered (0, 2, 7, 8, 13, 15, 17, 20);
        // the poison block at 19 is never decoded.
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.invalidations, 0);
        // Every loop back-edge re-dispatch is a hit.
        assert!(stats.hits > stats.misses);

        // The fallback path never caches.
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        data.resize(8192, 0);
        blocks.set_fallback(true);
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        let stats = blocks.stats();
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 8, "every dispatch should decode fresh");
    }

    #[test]
    fn length_change_without_gen_bump_never_replays_stale_block() {
        // Regression for the stale-shape window: the decoded tier copies
        // ops out of text, so a length change with a forgotten generation
        // bump must still invalidate. Decode against the short text, then
        // present a longer text that also rewrites an op *in place* at
        // the same generation; the stale decoded vector must not replay.
        let short = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 5,
            },
            Op::Halt,
        ];
        let long = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 5,
            },
            // In-place change at index 1 (was Halt), plus appended ops.
            Op::Movi {
                dst: PReg(1),
                imm: 9,
            },
            Op::Store {
                base: PReg(2),
                offset: 128,
                src: PReg(1),
            },
            Op::Halt,
        ];
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        {
            let mut ctx = ExecContext::new(0, 1, 0);
            let mut env = ExecEnv {
                text: &short,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let res = run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(res.stop, StopReason::Halted);
        }
        assert_eq!(blocks.stats().misses, 1);
        // Same generation, longer text: a fresh context must execute the
        // new ops, not the stale [Movi, Halt] vector.
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &long,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(
            i64::from_le_bytes(env.data[128..136].try_into().unwrap()),
            9
        );
        assert_eq!(blocks.stats().invalidations, 1);
    }

    #[test]
    fn invalidation_recycles_decoded_vectors_through_pool() {
        let text_a = counted_loop_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text_a,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        let decoded_blocks = blocks.blocks.len();
        assert!(decoded_blocks >= 2);
        // Bump the generation: the decoded set drops, every retired
        // vector lands in the pool, and the next decode drains it.
        blocks.sync(text_a.len(), 1);
        assert_eq!(blocks.blocks.len(), 0);
        assert_eq!(blocks.pool.len(), decoded_blocks);
        assert_eq!(blocks.stats().invalidations, 1);
        let mut ctx = ExecContext::new(0, 1, 0);
        let mut env = ExecEnv {
            text: &text_a,
            text_gen: 1,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::Halted);
        assert!(
            blocks.pool.len() < decoded_blocks,
            "decode should reuse pooled vectors"
        );
    }

    #[test]
    fn osr_park_mid_block_is_bit_exact() {
        // counted_loop_text's cached block entered at pc 1 runs through
        // the Bnz at pc 4. Parking at pc 4 cuts that block after its
        // compare; the sliced dispatch must stop exactly there with the
        // same state the fallback produces.
        let text = counted_loop_text();
        let run_mode = |fallback: bool| {
            let (mut mem, mut data, mut counters, mut blocks) = env_parts();
            blocks.set_fallback(fallback);
            let mut ctx = ExecContext::new(0, 1, 0);
            ctx.osr_arm(4, 2);
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let res = run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(res.stop, StopReason::OsrParked);
            assert_eq!(ctx.pc(), 4);
            assert_eq!(ctx.osr_hits(), 2);
            let parked_regs = ctx.frame_regs().to_vec();
            ctx.osr_disarm();
            let more = run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(more.stop, StopReason::Halted);
            (res.cycles + more.cycles, parked_regs, data, counters)
        };
        let decoded = run_mode(false);
        let fallback = run_mode(true);
        assert_eq!(decoded, fallback);
        // r0 == 2: two increments have run when the 2nd hit at pc 4 fires.
        assert_eq!(decoded.1[0], 2);
    }

    #[test]
    fn osr_park_slices_the_cached_block_instead_of_redecoding() {
        // Parking at pc 4 cuts both blocks that run through it (entered
        // at 0 and at 1). The cut reuses the cached block, so each
        // distinct entry (0, 4, 1) decodes exactly once.
        let text = counted_loop_text();
        let (mut mem, mut data, mut counters, mut blocks) = env_parts();
        let mut ctx = ExecContext::new(0, 1, 0);
        ctx.osr_arm(4, 2);
        let mut env = ExecEnv {
            text: &text,
            text_gen: 0,
            blocks: &mut blocks,
            data: &mut data,
            mem: &mut mem,
            core: 0,
            counters: &mut counters,
            costs: CostModel::default(),
        };
        let res = run(&mut ctx, &mut env, 1_000_000);
        assert_eq!(res.stop, StopReason::OsrParked);
        assert_eq!(ctx.pc(), 4);
        assert_eq!(blocks.stats().misses, 3);
        assert_eq!(blocks.stats().hits, 0);
    }

    #[test]
    fn budget_boundary_splits_a_block_per_instruction() {
        // Block of [AluImm Lt, Bnz]: a budget of exactly one ALU cost
        // must stop *inside* the block with the PC on the Bnz — quantum
        // boundaries are per instruction, never per block.
        let text = vec![
            Op::AluImm {
                op: BinOp::Lt,
                dst: PReg(1),
                a: PReg(0),
                imm: 0,
            },
            Op::Bnz {
                cond: PReg(1),
                target: 0,
            },
            Op::Halt,
        ];
        for fallback in [false, true] {
            let (mut mem, mut data, mut counters, mut blocks) = env_parts();
            blocks.set_fallback(fallback);
            let mut ctx = ExecContext::new(0, 1, 0);
            let mut env = ExecEnv {
                text: &text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            let costs = CostModel::default();
            let res = run(&mut ctx, &mut env, costs.alu);
            assert_eq!(res.stop, StopReason::BudgetExhausted, "fallback {fallback}");
            assert_eq!(res.cycles, costs.alu);
            assert_eq!(ctx.pc(), 1, "PC must sit on the block's branch");
            assert_eq!(env.counters.instructions, 1);
            let res2 = run(&mut ctx, &mut env, 1_000_000);
            assert_eq!(res2.stop, StopReason::Halted);
            assert_eq!(env.counters.instructions, 3);
        }
    }
}
