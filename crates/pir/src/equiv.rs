//! Symbolic equivalence checking (translation validation).
//!
//! The protean runtime swaps a recompiled variant into a live process with
//! one atomic EVT write, so "the compiler is probably right" is not an
//! acceptable trust model: a miscompiled variant is a silent correctness
//! failure at warehouse scale. This module *proves* a transformed
//! [`Function`]/[`Module`] observationally equivalent to its baseline
//! before anything is dispatched:
//!
//! * **Value numbering with normalization** (`Sym` terms, hash-consed):
//!   constant folding, the identity rewrites `pcc`'s optimizer performs
//!   (`x+0`, `x*1`, `x&0`, …), and commutative-operand canonicalization,
//!   so syntactically different but value-identical computations meet at
//!   one id.
//! * **Block-level bisimulation seeded from the entry**: block *pairs* are
//!   explored in lockstep; at each pair's first visit the live-in
//!   registers of both sides are generalized to fresh *cut* symbols (one
//!   per equality class), and revisits only check that the recorded
//!   partition still holds — the classic cut-point argument, without
//!   widening.
//! * **A symbolic store buffer** with [`crate::effects`]-backed and
//!   base+offset disjointness reasoning, so store-to-load forwarding and
//!   provably separate accesses normalize while may-aliasing accesses
//!   conservatively block.
//! * **Observable events** (stores, calls, metric reports, `wait`) are
//!   compared in order; load locality bits are *excluded* from events and
//!   instead counted, yielding verdicts "proved modulo N non-temporal-hint
//!   flips" — exactly the degree of freedom the paper's runtime exercises.
//!   `wait` is *not* terminal: the machine resumes after wake (`pc` is
//!   advanced before parking), so symbolic execution continues past it,
//!   with the park modeled as a full memory clobber (other processes run,
//!   and may write anything, while this one is parked).
//!
//! Verdicts are deliberately three-valued ([`Verdict`]): `Proved`,
//! `Refuted` (only when a differential [`crate::interp`] run *concretely
//! demonstrates* diverging observables — a symbolic mismatch alone is not
//! proof of inequivalence), or `Unknown` with a reason. Irreducible
//! control flow, exhausted budgets, and unconfirmed mismatches all degrade
//! to `Unknown`, never to a false `Proved`.
//!
//! [`check_function_in`]'s verdict is relative: it assumes every *other*
//! function pair of the two modules is equivalent (the safety gate
//! guarantees this by swapping exactly one function into a cloned module;
//! recursion is handled coinductively by matching call events).
//! [`check_module`] discharges the assumption by checking every pair.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::absint::{self, FuncAbsint, Interval};
use crate::dataflow::{is_reducible, Cfg, Dominators, Liveness};
use crate::effects::ModuleEffects;
use crate::ids::{BlockId, FuncId, GlobalId, Reg};
use crate::inst::{BinOp, Inst, Term};
use crate::interp;
use crate::module::{Function, Module};

// ---------------------------------------------------------------------------
// Options and verdicts
// ---------------------------------------------------------------------------

/// Tuning knobs for the equivalence checker.
#[derive(Copy, Clone, Debug)]
pub struct EquivOptions {
    /// Maximum number of block pairs explored per function pair before the
    /// checker gives up with `Unknown`.
    pub max_pairs: usize,
    /// Step budget for each differential interpreter run used to confirm a
    /// candidate refutation.
    pub confirm_steps: u64,
    /// Whether candidate mismatches are confirmed by running both modules
    /// in the interpreter. Without confirmation every mismatch degrades to
    /// `Unknown` (sound, but produces no counterexample traces).
    pub confirm_with_interp: bool,
    /// Whether the store buffer may additionally discharge aliasing
    /// queries with [`crate::absint`] interval facts: accesses proven
    /// in-bounds of distinct globals, or of the same global at interval
    /// distance ≥ 8, are disjoint even when their symbolic bases differ.
    /// On by default; turning it off recovers the purely syntactic
    /// base+offset rule (useful for A/B precision measurements).
    pub interval_alias: bool,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            max_pairs: 4096,
            confirm_steps: 500_000,
            confirm_with_interp: true,
            interval_alias: true,
        }
    }
}

std::thread_local! {
    static INTERVAL_FACTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// This thread's cumulative count of aliasing queries discharged by the
/// interval disjointness rule (queries the syntactic base+offset rule
/// alone could not resolve). The safety gate surfaces deltas of this as
/// the `gate.absint_disjoint_facts` metric.
pub fn interval_disjoint_facts() -> u64 {
    INTERVAL_FACTS.with(|c| c.get())
}

/// A concrete, interpreter-confirmed witness that two functions diverge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Name of the diverging function.
    pub func: String,
    /// Baseline-side block of the first symbolic divergence.
    pub baseline_block: BlockId,
    /// Variant-side block of the first symbolic divergence.
    pub variant_block: BlockId,
    /// Index of the first diverging observable event within the block
    /// pair, when the divergence is event-level (otherwise the divergence
    /// is in a terminator or register partition).
    pub event: Option<usize>,
    /// Rendered symbolic value/event computed by the baseline.
    pub baseline_expr: String,
    /// Rendered symbolic value/event computed by the variant.
    pub variant_expr: String,
    /// One-line description of what diverged.
    pub detail: String,
    /// How the concrete differential run diverged.
    pub divergence: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}(baseline)/{}(variant)",
            self.func, self.baseline_block, self.variant_block
        )?;
        if let Some(i) = self.event {
            write!(f, ", event {i}")?;
        }
        write!(
            f,
            ": {}; baseline computes {}, variant computes {}; concrete run: {}",
            self.detail, self.baseline_expr, self.variant_expr, self.divergence
        )
    }
}

/// Outcome of checking one function pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Observationally equivalent. `nt_flips` counts load-locality bits
    /// that differ along the proved paths; `None` means the two sides'
    /// load structures differ (e.g. a dead load was eliminated), so flips
    /// could not be counted.
    Proved {
        /// Number of non-temporal hint flips observed, if countable.
        nt_flips: Option<usize>,
    },
    /// Concretely inequivalent, with an interpreter-confirmed witness.
    Refuted(Box<Counterexample>),
    /// Neither proved nor concretely refuted.
    Unknown {
        /// Why the checker gave up.
        reason: String,
    },
}

impl Verdict {
    /// True for any `Proved` verdict (any number of NT flips).
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proved { nt_flips: Some(0) } => write!(f, "proved"),
            Verdict::Proved { nt_flips: Some(n) } => {
                write!(f, "proved modulo {n} non-temporal hint flip(s)")
            }
            Verdict::Proved { nt_flips: None } => write!(f, "proved (load structure changed)"),
            Verdict::Refuted(cex) => write!(f, "refuted: {cex}"),
            Verdict::Unknown { reason } => write!(f, "unknown: {reason}"),
        }
    }
}

/// Per-function verdicts for a whole-module check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivReport {
    results: Vec<(String, Verdict)>,
}

impl EquivReport {
    /// Builds a report from explicit per-function results, for callers
    /// that validate a single function pair rather than a whole module.
    pub fn from_results(results: Vec<(String, Verdict)>) -> EquivReport {
        EquivReport { results }
    }

    /// `(function name, verdict)` per function, in module order.
    pub fn results(&self) -> &[(String, Verdict)] {
        &self.results
    }

    /// True if every function pair was proved equivalent (modulo NT
    /// hints).
    pub fn all_proved(&self) -> bool {
        self.results.iter().all(|(_, v)| v.is_proved())
    }

    /// Total NT-hint flips across all proved functions, if countable for
    /// every function.
    pub fn total_nt_flips(&self) -> Option<usize> {
        let mut total = 0usize;
        for (_, v) in &self.results {
            match v {
                Verdict::Proved { nt_flips: Some(n) } => total += n,
                _ => return None,
            }
        }
        Some(total)
    }

    /// The first refuted function, if any.
    pub fn first_refutation(&self) -> Option<(&str, &Counterexample)> {
        self.results.iter().find_map(|(name, v)| match v {
            Verdict::Refuted(cex) => Some((name.as_str(), cex.as_ref())),
            _ => None,
        })
    }

    /// The first unknown function and its reason, if any.
    pub fn first_unknown(&self) -> Option<(&str, &str)> {
        self.results.iter().find_map(|(name, v)| match v {
            Verdict::Unknown { reason } => Some((name.as_str(), reason.as_str())),
            _ => None,
        })
    }
}

impl fmt::Display for EquivReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proved = self.results.iter().filter(|(_, v)| v.is_proved()).count();
        write!(f, "{proved}/{} function(s) proved", self.results.len())?;
        for (name, v) in &self.results {
            if !v.is_proved() {
                write!(f, "\n  {name}: {v}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Value numbering
// ---------------------------------------------------------------------------

type VnId = u32;

/// A hash-consed symbolic value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Sym {
    Const(i64),
    /// A cut symbol: an arbitrary-but-equal value shared by all registers
    /// of one equality class at a block-pair entry.
    Cut(u32),
    GlobalBase(GlobalId),
    Bin(BinOp, VnId, VnId),
    /// An 8-byte read of memory version `version` within symbolic era
    /// `era` (eras separate block-pair segments; versions advance past
    /// may-aliasing stores and memory-clobbering calls).
    Load {
        addr: VnId,
        era: u32,
        version: u32,
    },
    /// The return value of the `index`-th opaque call of a segment.
    CallRet {
        era: u32,
        index: u32,
        callee: FuncId,
        args: Vec<VnId>,
    },
}

fn commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
    )
}

#[derive(Default)]
struct Interner {
    terms: Vec<Sym>,
    map: HashMap<Sym, VnId>,
    cuts: u32,
    eras: u32,
    /// Interval invariant per cut symbol, parallel to cut indices. Cuts
    /// minted by [`Interner::cut`] are unconstrained (⊤); the bisimulation
    /// seeds tighter ranges from [`crate::absint`] block states via
    /// [`Interner::cut_ranged`].
    cut_ranges: Vec<Interval>,
    /// Byte sizes of the modules' globals, indexed by [`GlobalId`]. Empty
    /// when the two sides' global tables differ, which disables the
    /// interval disjointness rule (it reasons about object footprints).
    global_sizes: Vec<u64>,
    /// Gate for the interval disjointness rule ([`EquivOptions::interval_alias`]).
    interval_alias: bool,
    range_memo: HashMap<VnId, Interval>,
    gpart_memo: HashMap<VnId, Option<(GlobalId, Interval)>>,
}

/// Pseudo-base for absolute (integer-constant) addresses in
/// [`Interner::addr_parts`].
const ABS_BASE: VnId = VnId::MAX;

impl Interner {
    fn intern(&mut self, s: Sym) -> VnId {
        if let Some(&id) = self.map.get(&s) {
            return id;
        }
        let id = self.terms.len() as VnId;
        self.terms.push(s.clone());
        self.map.insert(s, id);
        id
    }

    fn konst(&mut self, v: i64) -> VnId {
        self.intern(Sym::Const(v))
    }

    fn cut(&mut self) -> VnId {
        self.cut_ranged(Interval::TOP)
    }

    /// A fresh cut symbol carrying an interval invariant: every concrete
    /// value the symbol stands for is known (by the caller's soundness
    /// argument — here, abstract interpretation of both sides) to lie in
    /// `range`. A singleton range *is* its constant, so the value folds
    /// and branches on it resolve — this is what lets OSR compensation
    /// constants prove against baseline inline constants.
    fn cut_ranged(&mut self, range: Interval) -> VnId {
        if range.lo == range.hi {
            return self.konst(range.lo);
        }
        let i = self.cuts;
        self.cuts += 1;
        self.cut_ranges.push(range);
        self.intern(Sym::Cut(i))
    }

    fn era(&mut self) -> u32 {
        let e = self.eras;
        self.eras += 1;
        e
    }

    fn const_of(&self, vn: VnId) -> Option<i64> {
        match self.terms[vn as usize] {
            Sym::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Builds `a op b`, normalizing: constants fold via the ISA's own
    /// [`BinOp::eval`], the optimizer's identity rewrites collapse, and
    /// commutative operands are ordered canonically. Every rule is a true
    /// identity of the wrapping/no-trap semantics.
    fn bin(&mut self, op: BinOp, a: VnId, b: VnId) -> VnId {
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.konst(op.eval(x, y));
        }
        if let Some(c) = self.const_of(b) {
            match (op, c) {
                (BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr, 0) => {
                    return a
                }
                (BinOp::Mul | BinOp::Div, 1) => return a,
                (BinOp::Mul | BinOp::And, 0) => return self.konst(0),
                (BinOp::Rem, 1) => return self.konst(0),
                _ => {}
            }
        }
        if let Some(c) = self.const_of(a) {
            match (op, c) {
                (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => return b,
                (BinOp::Mul, 1) => return b,
                (BinOp::Mul | BinOp::And, 0) => return self.konst(0),
                // 0/x and 0%x are 0 even for x == 0 (no-trap semantics),
                // and 0 shifted by anything is 0.
                (BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr, 0) => return self.konst(0),
                _ => {}
            }
        }
        let (a, b) = if commutative(op) && b < a {
            (b, a)
        } else {
            (a, b)
        };
        self.intern(Sym::Bin(op, a, b))
    }

    /// Decomposes an address into `(symbolic base, constant byte offset)`,
    /// peeling `± const` chains. Pure constants decompose against the
    /// absolute pseudo-base.
    fn addr_parts(&self, mut vn: VnId) -> (VnId, i64) {
        let mut off: i64 = 0;
        loop {
            match &self.terms[vn as usize] {
                Sym::Const(c) => return (ABS_BASE, off.wrapping_add(*c)),
                Sym::Bin(BinOp::Add, a, b) => {
                    if let Some(c) = self.const_of(*b) {
                        off = off.wrapping_add(c);
                        vn = *a;
                    } else if let Some(c) = self.const_of(*a) {
                        off = off.wrapping_add(c);
                        vn = *b;
                    } else {
                        return (vn, off);
                    }
                }
                Sym::Bin(BinOp::Sub, a, b) => {
                    if let Some(c) = self.const_of(*b) {
                        off = off.wrapping_sub(c);
                        vn = *a;
                    } else {
                        return (vn, off);
                    }
                }
                _ => return (vn, off),
            }
        }
    }

    /// Sound interval bound on every concrete value `vn` can take, from
    /// constant leaves, the cut symbols' seeded invariants, and
    /// [`Interval::apply`] over operators. Memoized; terms past the depth
    /// cap degrade to ⊤.
    fn sym_range(&mut self, vn: VnId) -> Interval {
        self.sym_range_depth(vn, 64)
    }

    fn sym_range_depth(&mut self, vn: VnId, depth: usize) -> Interval {
        if let Some(&r) = self.range_memo.get(&vn) {
            return r;
        }
        if depth == 0 {
            return Interval::TOP;
        }
        let r = match self.terms[vn as usize].clone() {
            Sym::Const(c) => Interval::exact(c),
            Sym::Cut(i) => self
                .cut_ranges
                .get(i as usize)
                .copied()
                .unwrap_or(Interval::TOP),
            Sym::Bin(op, a, b) => {
                let ra = self.sym_range_depth(a, depth - 1);
                let rb = self.sym_range_depth(b, depth - 1);
                Interval::apply(op, ra, rb)
            }
            Sym::GlobalBase(_) | Sym::Load { .. } | Sym::CallRet { .. } => Interval::TOP,
        };
        self.range_memo.insert(vn, r);
        r
    }

    /// Decomposes `vn` as "one global's base address plus a bounded
    /// offset": returns `(g, r)` when the concrete value is always
    /// `base(g) + o` (mod 2^64) for some `o ∈ r`. Expressions mixing two
    /// global bases, or whose non-base part has a global hiding inside a
    /// non-additive operator, return `None` (the hidden base makes the
    /// residual range ⊤ anyway, so no unsound window is ever derived).
    fn global_parts(&mut self, vn: VnId) -> Option<(GlobalId, Interval)> {
        if let Some(r) = self.gpart_memo.get(&vn) {
            return *r;
        }
        let out = match self.terms[vn as usize].clone() {
            Sym::GlobalBase(g) => Some((g, Interval::exact(0))),
            Sym::Bin(BinOp::Add, a, b) => match (self.global_parts(a), self.global_parts(b)) {
                (Some((g, ra)), None) => {
                    let rb = self.sym_range(b);
                    Some((g, Interval::apply(BinOp::Add, ra, rb)))
                }
                (None, Some((g, rb))) => {
                    let ra = self.sym_range(a);
                    Some((g, Interval::apply(BinOp::Add, ra, rb)))
                }
                _ => None,
            },
            Sym::Bin(BinOp::Sub, a, b) => match (self.global_parts(a), self.global_parts(b)) {
                (Some((g, ra)), None) => {
                    let rb = self.sym_range(b);
                    Some((g, Interval::apply(BinOp::Sub, ra, rb)))
                }
                _ => None,
            },
            _ => None,
        };
        self.gpart_memo.insert(vn, out);
        out
    }

    /// True when the 8-byte access window `[base(g)+r.lo, base(g)+r.hi+8)`
    /// provably stays inside global `g`'s footprint.
    fn window_in_bounds(&self, g: GlobalId, r: Interval) -> bool {
        let Some(&size) = self.global_sizes.get(g.index()) else {
            return false;
        };
        let Ok(size) = i64::try_from(size) else {
            return false;
        };
        size >= 8 && r.lo >= 0 && r.hi <= size - 8
    }

    /// True only when the two 8-byte accesses *provably* do not overlap.
    ///
    /// Two rules, each sufficient alone:
    ///
    /// * **Syntactic**: same symbolic base, constant windows at circular
    ///   distance ≥ 8.
    /// * **Interval** (gated by [`EquivOptions::interval_alias`]): both
    ///   addresses decompose as `base(g) + bounded offset` with the whole
    ///   window in-bounds of `g`. In-bounds accesses to *distinct* globals
    ///   never overlap — every layout in the system (`pcc`'s placement,
    ///   the interpreter harnesses' synthetic layout) gives each global a
    ///   private footprint, and the interpreter rejects out-of-image
    ///   accesses — and same-global windows at interval distance ≥ 8 are
    ///   separate by arithmetic.
    ///
    /// Everything else conservatively may-alias (the gate checks
    /// adversarial variants).
    fn provably_disjoint(&mut self, p: VnId, q: VnId) -> bool {
        let (bp, op) = self.addr_parts(p);
        let (bq, oq) = self.addr_parts(q);
        // Addresses wrap mod 2^64, so both *circular* distances must be
        // ≥ 8: offsets near the i64 extremes (e.g. i64::MAX vs i64::MIN)
        // are one byte apart, not 2^64 − 1.
        let d = op.wrapping_sub(oq) as u64;
        if bp == bq && d >= 8 && d.wrapping_neg() >= 8 {
            return true;
        }
        if !self.interval_alias {
            return false;
        }
        let Some((gp, rp)) = self.global_parts(p) else {
            return false;
        };
        let Some((gq, rq)) = self.global_parts(q) else {
            return false;
        };
        if !self.window_in_bounds(gp, rp) || !self.window_in_bounds(gq, rq) {
            return false;
        }
        let disjoint = gp != gq
            || rp.hi.checked_add(8).is_some_and(|e| e <= rq.lo)
            || rq.hi.checked_add(8).is_some_and(|e| e <= rp.lo);
        if disjoint {
            INTERVAL_FACTS.with(|c| c.set(c.get() + 1));
        }
        disjoint
    }

    fn render(&self, vn: VnId) -> String {
        self.render_depth(vn, 8)
    }

    fn render_depth(&self, vn: VnId, depth: usize) -> String {
        if depth == 0 {
            return "…".to_string();
        }
        match &self.terms[vn as usize] {
            Sym::Const(c) => format!("{c}"),
            Sym::Cut(i) => format!("α{i}"),
            Sym::GlobalBase(g) => format!("&{g}"),
            Sym::Bin(op, a, b) => format!(
                "({} {} {})",
                self.render_depth(*a, depth - 1),
                op.mnemonic(),
                self.render_depth(*b, depth - 1)
            ),
            Sym::Load { addr, era, version } => format!(
                "mem[{}]@e{era}.v{version}",
                self.render_depth(*addr, depth - 1)
            ),
            Sym::CallRet { callee, index, .. } => format!("ret#{index} of call {callee}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Segment execution
// ---------------------------------------------------------------------------

/// An observable event emitted while symbolically executing one block.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Store { addr: VnId, value: VnId },
    Call { callee: FuncId, args: Vec<VnId> },
    Report { channel: u8, value: VnId },
    Wait,
}

/// How a block's execution continues.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Flow {
    Ret(Option<VnId>),
    Goto(BlockId),
    Branch {
        cond: VnId,
        then_bb: BlockId,
        else_bb: BlockId,
    },
}

struct SideRun {
    regs: Vec<VnId>,
    events: Vec<Event>,
    /// `(address, non-temporal?)` per executed load, in order.
    loads: Vec<(VnId, bool)>,
    flow: Flow,
}

/// Per-module context shared by all function pairs of one check. Its
/// analyses are looked up on first use and kept, so one context asks the
/// process-wide caches at most once for the effect summaries and once
/// per function for its abstract states.
struct ModuleCx<'m> {
    module: &'m Module,
    effects: OnceCell<Arc<ModuleEffects>>,
    absint: Vec<OnceCell<Arc<FuncAbsint>>>,
    /// Functions that are a single block of pure instructions (plus nops)
    /// ending in `ret` — these are summarized transparently at call sites,
    /// which is what makes inlining and DCE of pure calls provable.
    pure_leaf: Vec<bool>,
}

impl<'m> ModuleCx<'m> {
    fn new(module: &'m Module) -> ModuleCx<'m> {
        let pure_leaf = module
            .functions()
            .iter()
            .map(|f| {
                f.block_count() == 1
                    && matches!(f.blocks()[0].term, Term::Ret(_))
                    && f.blocks()[0]
                        .insts
                        .iter()
                        .all(|i| i.is_pure() || matches!(i, Inst::Nop))
            })
            .collect();
        ModuleCx {
            module,
            effects: OnceCell::new(),
            absint: vec![OnceCell::new(); module.functions().len()],
            pure_leaf,
        }
    }

    /// The module's transitive effect summaries.
    fn effects(&self) -> &ModuleEffects {
        self.effects
            .get_or_init(|| crate::effects::analyze_cached(self.module))
    }

    /// The abstract block-entry states of function `fid`.
    fn absint(&self, fid: FuncId) -> &FuncAbsint {
        self.absint[fid.index()]
            .get_or_init(|| absint::analyze_function_cached(self.module.function(fid)))
    }
}

/// The (baseline, variant) contexts of one check, or one context serving
/// both sides when the variant is the baseline module itself.
struct CxPair<'m> {
    baseline: ModuleCx<'m>,
    variant: Option<ModuleCx<'m>>,
}

impl<'m> CxPair<'m> {
    fn new(baseline: &'m Module, variant: &'m Module) -> CxPair<'m> {
        CxPair {
            baseline: ModuleCx::new(baseline),
            variant: (!std::ptr::eq(baseline, variant)).then(|| ModuleCx::new(variant)),
        }
    }

    /// The baseline and variant contexts, possibly the same one twice.
    fn sides(&self) -> (&ModuleCx<'m>, &ModuleCx<'m>) {
        let variant = self.variant.as_ref().unwrap_or(&self.baseline);
        (&self.baseline, variant)
    }
}

/// Registers a function body may name, sized defensively.
fn reg_table_size(func: &Function) -> usize {
    let mut n = func.reg_count().max(func.params()) as usize;
    for block in func.blocks() {
        let mut bump = |r: crate::ids::Reg| n = n.max(r.index() + 1);
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                bump(d);
            }
            inst.for_each_use(&mut bump);
        }
        block.term.for_each_use(&mut bump);
    }
    n
}

/// Evaluates a pure single-block callee symbolically on `args`.
fn eval_pure_leaf(it: &mut Interner, callee: &Function, args: &[VnId]) -> Option<VnId> {
    let zero = it.konst(0);
    let mut regs = vec![zero; reg_table_size(callee)];
    for (i, a) in args.iter().enumerate() {
        if i < regs.len() {
            regs[i] = *a;
        }
    }
    let block = &callee.blocks()[0];
    for inst in &block.insts {
        match inst {
            Inst::Const { dst, value } => regs[dst.index()] = it.konst(*value),
            Inst::Bin { op, dst, lhs, rhs } => {
                regs[dst.index()] = it.bin(*op, regs[lhs.index()], regs[rhs.index()]);
            }
            Inst::BinImm { op, dst, lhs, imm } => {
                let c = it.konst(*imm);
                regs[dst.index()] = it.bin(*op, regs[lhs.index()], c);
            }
            Inst::GlobalAddr { dst, global } => {
                regs[dst.index()] = it.intern(Sym::GlobalBase(*global));
            }
            Inst::Nop => {}
            _ => unreachable!("pure_leaf admits only pure instructions"),
        }
    }
    match block.term {
        Term::Ret(Some(r)) => Some(regs[r.index()]),
        _ => None,
    }
}

/// Symbolically executes one block with the given entry register state.
fn run_segment(
    cx: &ModuleCx<'_>,
    it: &mut Interner,
    func: &Function,
    block: BlockId,
    mut regs: Vec<VnId>,
    era: u32,
) -> SideRun {
    // Store buffer: (addr, value, memory version right after the store).
    let mut stores: Vec<(VnId, VnId, u32)> = Vec::new();
    let mut version: u32 = 0;
    // Memory version visible "below" the buffer (advanced past clobbering
    // calls, which invalidate all forwarding).
    let mut floor: u32 = 0;
    let mut events = Vec::new();
    let mut loads = Vec::new();
    let mut ncalls: u32 = 0;
    let bb = func.block(block);
    for inst in &bb.insts {
        match inst {
            Inst::Const { dst, value } => regs[dst.index()] = it.konst(*value),
            Inst::Bin { op, dst, lhs, rhs } => {
                regs[dst.index()] = it.bin(*op, regs[lhs.index()], regs[rhs.index()]);
            }
            Inst::BinImm { op, dst, lhs, imm } => {
                let c = it.konst(*imm);
                regs[dst.index()] = it.bin(*op, regs[lhs.index()], c);
            }
            Inst::GlobalAddr { dst, global } => {
                regs[dst.index()] = it.intern(Sym::GlobalBase(*global));
            }
            Inst::Load {
                dst,
                base,
                offset,
                locality,
            } => {
                let off = it.konst(*offset);
                let addr = it.bin(BinOp::Add, regs[base.index()], off);
                loads.push((addr, locality.is_non_temporal()));
                let mut val = None;
                for &(sa, sv, ver) in stores.iter().rev() {
                    if sa == addr {
                        val = Some(sv); // exact forwarding
                        break;
                    }
                    if !it.provably_disjoint(sa, addr) {
                        // Blocked by a may-aliasing store: the load sees
                        // memory as of that store's version.
                        val = Some(it.intern(Sym::Load {
                            addr,
                            era,
                            version: ver,
                        }));
                        break;
                    }
                }
                regs[dst.index()] = val.unwrap_or_else(|| {
                    it.intern(Sym::Load {
                        addr,
                        era,
                        version: floor,
                    })
                });
            }
            Inst::Store { base, offset, src } => {
                let off = it.konst(*offset);
                let addr = it.bin(BinOp::Add, regs[base.index()], off);
                let value = regs[src.index()];
                events.push(Event::Store { addr, value });
                version += 1;
                stores.push((addr, value, version));
            }
            Inst::Call { dst, callee, args } => {
                let argv: Vec<VnId> = args.iter().map(|r| regs[r.index()]).collect();
                if cx.pure_leaf[callee.index()] {
                    let ret = eval_pure_leaf(it, cx.module.function(*callee), &argv);
                    if let (Some(d), Some(v)) = (dst, ret) {
                        regs[d.index()] = v;
                    }
                } else {
                    events.push(Event::Call {
                        callee: *callee,
                        args: argv.clone(),
                    });
                    let index = ncalls;
                    ncalls += 1;
                    if let Some(d) = dst {
                        regs[d.index()] = it.intern(Sym::CallRet {
                            era,
                            index,
                            callee: *callee,
                            args: argv,
                        });
                    }
                    if !cx.effects().writes_nothing(*callee) {
                        // The callee may write memory: invalidate all
                        // forwarding and advance the visible version.
                        version += 1;
                        floor = version;
                        stores.clear();
                    }
                }
            }
            Inst::Report { channel, src } => events.push(Event::Report {
                channel: *channel,
                value: regs[src.index()],
            }),
            Inst::Nop => {}
            Inst::Wait => {
                // The machine parks on `wait` with pc already advanced and
                // *resumes at the next instruction* on wake; arbitrary
                // other code runs while parked and may write any memory.
                // Model that as an observable event plus a full clobber —
                // registers are per-process and survive the park, but no
                // store forwards across it — then keep executing.
                events.push(Event::Wait);
                version += 1;
                floor = version;
                stores.clear();
            }
        }
    }
    let flow = match &bb.term {
        Term::Br(t) => Flow::Goto(*t),
        Term::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            let c = regs[cond.index()];
            match it.const_of(c) {
                Some(v) => Flow::Goto(if v != 0 { *then_bb } else { *else_bb }),
                None => Flow::Branch {
                    cond: c,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                },
            }
        }
        Term::Ret(r) => Flow::Ret(r.map(|r| regs[r.index()])),
    };
    SideRun {
        regs,
        events,
        loads,
        flow,
    }
}

// ---------------------------------------------------------------------------
// Bisimulation
// ---------------------------------------------------------------------------

/// A symbolic divergence that has not yet been concretely confirmed.
struct Mismatch {
    block_b: BlockId,
    block_v: BlockId,
    event: Option<usize>,
    baseline_expr: String,
    variant_expr: String,
    detail: String,
}

enum Outcome {
    Proved { nt_flips: Option<usize> },
    Mismatch(Box<Mismatch>),
    Unknown(String),
}

fn render_event(it: &Interner, e: Option<&Event>) -> String {
    match e {
        None => "(no event)".to_string(),
        Some(Event::Store { addr, value }) => {
            format!("store mem[{}] ← {}", it.render(*addr), it.render(*value))
        }
        Some(Event::Call { callee, args }) => {
            let args: Vec<String> = args.iter().map(|a| it.render(*a)).collect();
            format!("call {callee}({})", args.join(", "))
        }
        Some(Event::Report { channel, value }) => {
            format!("report#{channel} {}", it.render(*value))
        }
        Some(Event::Wait) => "wait".to_string(),
    }
}

/// Upper bound on partition-refinement restarts. Each restart strictly
/// splits at least one equality class at one block pair, so realistic
/// functions converge in a handful of rounds; the cap only guards
/// pathological inputs (which then degrade to `Unknown`).
const MAX_REFINEMENT_ROUNDS: usize = 128;

/// One equality class of live-in registers at a block pair, each member
/// tagged `(is_variant, reg index)`.
type EqClass = Vec<(bool, usize)>;

/// The invariant recorded at a block pair's first visit, checked on every
/// revisit.
struct PairInvariant {
    /// Equality classes (≥ 2 members) whose members were generalized to a
    /// shared cut symbol.
    groups: Vec<EqClass>,
    /// Registers *pinned* to a context-independent symbol (a global base
    /// address) instead of generalized: the invariant claims the register
    /// holds exactly this value whenever execution reaches the pair.
    /// Pinning preserves the base's identity for the store buffer's
    /// disjointness rules across loop iterations.
    pins: Vec<((bool, usize), VnId)>,
}

/// Where a bisimulation starts.
enum Start<'a> {
    /// Function entry with shared parameter cuts — whole-function
    /// translation validation (the original behavior).
    Entry,
    /// A matched pair of loop headers under an OSR transfer relation:
    /// prove the *suffix* from the cut point equivalent, assuming the
    /// state the transfer constructs. Sound only because every assumption
    /// seeded here holds of the concrete transferred state: `moves` pairs
    /// are equal by construction (the transfer copies them), `consts`
    /// hold those constants by construction, uncovered variant registers
    /// are zero by construction (the transfer zero-fills), and each
    /// certificate range holds at every concrete header entry by the
    /// certificate's own soundness.
    Header {
        /// Baseline-side cut point (the certified header).
        baseline: BlockId,
        /// Variant-side cut point.
        variant: BlockId,
        /// The absint certificate for the baseline header, whose ranges
        /// seed the live symbols.
        cert: &'a absint::OsrCertificate,
        /// `(variant dst, baseline src)` — each pair shares one symbol.
        moves: &'a [(Reg, Reg)],
        /// `(variant dst, value)` compensation constants.
        consts: &'a [(Reg, i64)],
    },
}

fn run_bisim(
    cx_b: &ModuleCx<'_>,
    cx_v: &ModuleCx<'_>,
    fid: FuncId,
    opts: &EquivOptions,
) -> Outcome {
    run_bisim_from(cx_b, cx_v, fid, opts, &Start::Entry)
}

fn run_bisim_from(
    cx_b: &ModuleCx<'_>,
    cx_v: &ModuleCx<'_>,
    fid: FuncId,
    opts: &EquivOptions,
    start: &Start<'_>,
) -> Outcome {
    let fb = cx_b.module.function(fid);
    let fv = cx_v.module.function(fid);
    if fb.params() != fv.params() {
        return Outcome::Unknown(format!(
            "parameter count differs ({} vs {})",
            fb.params(),
            fv.params()
        ));
    }
    let cfg_b = Cfg::new(fb);
    let cfg_v = Cfg::new(fv);
    let dom_b = Dominators::compute(&cfg_b);
    let dom_v = Dominators::compute(&cfg_v);
    if !is_reducible(&cfg_b, &dom_b) {
        return Outcome::Unknown("baseline control flow is irreducible".to_string());
    }
    if !is_reducible(&cfg_v, &dom_v) {
        return Outcome::Unknown("variant control flow is irreducible".to_string());
    }
    let lv_b = Liveness::new(fb);
    let sol_b = lv_b.solve(&cfg_b);
    let lv_v = Liveness::new(fv);
    let sol_v = lv_v.solve(&cfg_v);

    // Learned partition refinements, persisted across exploration rounds:
    // per block pair, a color per live register. Registers with different
    // colors must not share a cut symbol even when their incoming values
    // coincide. Colors only ever split classes, and symbolic equalities
    // shrink monotonically under splitting, so refinement terminates.
    let mut learned: HashMap<(u32, u32), HashMap<(bool, usize), u32>> = HashMap::new();
    let mut next_color: u32 = 0;
    // Registers whose pin was violated on some path: generalized to cuts
    // (never re-pinned) in later rounds. Grows monotonically, so the
    // restart argument below still terminates.
    let mut pin_banned: HashMap<(u32, u32), std::collections::HashSet<(bool, usize)>> =
        HashMap::new();

    // Per-side abstract states (kept by each context, cached per
    // function process-wide): sound interval invariants on every block's
    // live-in registers, used to (a) seed cut symbols with ranges and
    // (b) let the store buffer discharge aliasing queries the syntactic
    // rule cannot.
    let ab_b = cx_b.absint(fid);
    // In Header mode the variant's prefix never executes, so invariants
    // absint derived from the variant's *entry* (e.g. "this register is
    // always 4 here") do not hold of transferred states — a compensation
    // constant may legitimately differ from what the prefix would have
    // computed. Baseline facts stay valid: the baseline side of a
    // transferred run is the genuine continuation of an entry-reachable
    // execution. So only Entry mode may consult the variant's states.
    let variant_absint_valid = matches!(start, Start::Entry);
    let ab_v = variant_absint_valid.then(|| cx_v.absint(fid));
    let same_globals = std::ptr::eq(cx_b, cx_v) || cx_b.module.globals() == cx_v.module.globals();

    'rounds: for _round in 0..MAX_REFINEMENT_ROUNDS {
        let mut it = Interner {
            interval_alias: opts.interval_alias,
            ..Interner::default()
        };
        if same_globals {
            it.global_sizes = cx_b.module.globals().iter().map(|g| g.size()).collect();
        }
        let zero = it.konst(0);
        let mut regs_b = vec![zero; reg_table_size(fb)];
        let mut regs_v = vec![zero; reg_table_size(fv)];

        // Recorded invariant per visited pair: equality classes (with ≥ 2
        // members) over live-in registers, tagged (is_variant, reg index),
        // plus pinned context-independent values.
        let mut visited: HashMap<(u32, u32), PairInvariant> = HashMap::new();
        let mut queue: VecDeque<(BlockId, BlockId, Vec<VnId>, Vec<VnId>)> = VecDeque::new();
        match start {
            Start::Entry => {
                for p in 0..fb.params() as usize {
                    let c = it.cut();
                    regs_b[p] = c;
                    regs_v[p] = c;
                }
                queue.push_back((fb.entry(), fv.entry(), regs_b, regs_v));
            }
            Start::Header {
                baseline,
                variant,
                cert,
                moves,
                consts,
            } => {
                // One symbol per certified live register, ranged by the
                // certificate's invariant. Deliberately *not* pinned to
                // global bases even for Global-class slots: the class
                // says "points into g", not "is g's base", and a seeded
                // pin — unlike entry-mode pins — would never be verified
                // by the revisit discipline on the unexplored prefix.
                let mut seeded: HashMap<usize, VnId> = HashMap::new();
                for slot in &cert.live {
                    let vn = it.cut_ranged(slot.range);
                    if slot.reg.index() < regs_b.len() {
                        regs_b[slot.reg.index()] = vn;
                    }
                    seeded.insert(slot.reg.index(), vn);
                }
                for &(dst, src) in *moves {
                    // The transfer copies baseline src into variant dst,
                    // so both hold the same symbol. An uncertified source
                    // gets an unconstrained shared cut.
                    let vn = *seeded
                        .entry(src.index())
                        .or_insert_with(|| it.cut_ranged(Interval::TOP));
                    if src.index() < regs_b.len() {
                        regs_b[src.index()] = vn;
                    }
                    if dst.index() < regs_v.len() {
                        regs_v[dst.index()] = vn;
                    }
                }
                for &(dst, value) in *consts {
                    if dst.index() < regs_v.len() {
                        regs_v[dst.index()] = it.konst(value);
                    }
                }
                queue.push_back((*baseline, *variant, regs_b, regs_v));
            }
        }

        let mut nt_flips = 0usize;
        let mut flips_countable = true;
        let mut processed = 0usize;

        while let Some((tb, tv, rb, rv)) = queue.pop_front() {
            let read = |is_v: bool, r: usize| if is_v { rv[r] } else { rb[r] };
            if let Some(inv) = visited.get(&(tb.0, tv.0)) {
                // Revisit: the incoming state must still satisfy the
                // recorded partition. A broken group means the candidate
                // invariant was too coarse (e.g. `acc` and `i` both start
                // at 0 but evolve differently): split it by the values
                // seen now and restart with the finer partition. Real
                // divergences survive refinement and surface as explicit
                // event/return/branch mismatches.
                let mut refined = false;
                for &(m, vn) in &inv.pins {
                    if read(m.0, m.1) != vn {
                        // The register does not always hold the pinned
                        // value: ban the pin and restart, generalizing it
                        // to a cut like everything else.
                        pin_banned.entry((tb.0, tv.0)).or_default().insert(m);
                        refined = true;
                    }
                }
                for g in &inv.groups {
                    let mut sub: BTreeMap<VnId, Vec<(bool, usize)>> = BTreeMap::new();
                    for &(s, r) in g {
                        sub.entry(read(s, r)).or_default().push((s, r));
                    }
                    if sub.len() > 1 {
                        let colors = learned.entry((tb.0, tv.0)).or_default();
                        for members in sub.values() {
                            for &m in members {
                                colors.insert(m, next_color);
                            }
                            next_color += 1;
                        }
                        refined = true;
                    }
                }
                if refined {
                    continue 'rounds;
                }
                continue;
            }
            processed += 1;
            if processed > opts.max_pairs {
                return Outcome::Unknown(format!(
                    "block-pair budget exceeded ({} pairs)",
                    opts.max_pairs
                ));
            }

            // First visit: generalize. Group live-in registers of both
            // sides by (current value, learned color); each class becomes
            // one fresh cut symbol.
            let colors = learned.get(&(tb.0, tv.0));
            let color =
                |m: (bool, usize)| colors.and_then(|c| c.get(&m)).copied().unwrap_or(u32::MAX);
            let mut classes: BTreeMap<(VnId, u32), Vec<(bool, usize)>> = BTreeMap::new();
            for r in lv_b.live_in(&sol_b, tb).iter() {
                if r < rb.len() {
                    let m = (false, r);
                    classes.entry((rb[r], color(m))).or_default().push(m);
                }
            }
            for r in lv_v.live_in(&sol_v, tv).iter() {
                if r < rv.len() {
                    let m = (true, r);
                    classes.entry((rv[r], color(m))).or_default().push(m);
                }
            }
            let mut gen_b = rb.clone();
            let mut gen_v = rv.clone();
            let mut groups = Vec::new();
            let mut pins = Vec::new();
            let st_b = ab_b.block_in(tb);
            let st_v = ab_v.and_then(|ab| ab.block_in(tv));
            let banned = pin_banned.get(&(tb.0, tv.0));
            for ((vn, _), members) in classes.into_iter() {
                // A class holding a global base address is pinned rather
                // than generalized: the symbol is context-independent and
                // keeping it lets the store buffer separate accesses to
                // distinct globals across loop iterations. Violations are
                // caught at revisits and banned (see PairInvariant).
                let pinnable = matches!(it.terms[vn as usize], Sym::GlobalBase(_))
                    && members
                        .iter()
                        .all(|m| banned.is_none_or(|b| !b.contains(m)));
                if pinnable {
                    for &m in &members {
                        pins.push((m, vn));
                    }
                    continue;
                }
                // All members provably hold one concrete value here, and
                // each member's absint interval contains that value, so
                // the meet does too. An empty meet means this pairing is
                // concretely unreachable; ⊤ keeps it sound to explore.
                let mut range = Interval::TOP;
                for &(is_v, r) in &members {
                    let side = if is_v { st_v } else { st_b };
                    let ri = side
                        .and_then(|s| s.get(r))
                        .map(|v| v.range)
                        .unwrap_or(Interval::TOP);
                    range = match range.meet(ri) {
                        Some(m) => m,
                        None => {
                            range = Interval::TOP;
                            break;
                        }
                    };
                }
                let c = it.cut_ranged(range);
                for &(is_v, r) in &members {
                    if is_v {
                        gen_v[r] = c;
                    } else {
                        gen_b[r] = c;
                    }
                }
                if members.len() >= 2 {
                    groups.push(members);
                }
            }
            visited.insert((tb.0, tv.0), PairInvariant { groups, pins });

            let era = it.era();
            let run_b = run_segment(cx_b, &mut it, fb, tb, gen_b, era);
            let run_v = run_segment(cx_v, &mut it, fv, tv, gen_v, era);

            // Observable events must match pairwise.
            let n = run_b.events.len().max(run_v.events.len());
            for i in 0..n {
                let (eb, ev) = (run_b.events.get(i), run_v.events.get(i));
                if eb != ev {
                    return Outcome::Mismatch(Box::new(Mismatch {
                        block_b: tb,
                        block_v: tv,
                        event: Some(i),
                        baseline_expr: render_event(&it, eb),
                        variant_expr: render_event(&it, ev),
                        detail: "observable event sequences diverge".to_string(),
                    }));
                }
            }

            // NT accounting: countable only while the load address
            // sequences line up.
            if run_b.loads.len() == run_v.loads.len()
                && run_b
                    .loads
                    .iter()
                    .zip(&run_v.loads)
                    .all(|((ab, _), (av, _))| ab == av)
            {
                if flips_countable {
                    nt_flips += run_b
                        .loads
                        .iter()
                        .zip(&run_v.loads)
                        .filter(|((_, nb), (_, nv))| nb != nv)
                        .count();
                }
            } else if !variant_absint_valid {
                // Header mode: the symbolic model has no fault semantics,
                // so a Proved verdict with unmatched load addresses could
                // hide a variant-only memory fault — a transferred seed
                // (a bad compensation constant, a zero-filled pointer)
                // feeding a load whose *value* is observably dead still
                // faults concretely when the address leaves the data
                // segment. Store addresses are already event-matched;
                // loads are the one silent channel. Refuse to prove.
                return Outcome::Unknown(format!(
                    "load address sequences diverge at {tb}/{tv}; fault \
                     equivalence across the transfer cannot be established"
                ));
            } else {
                flips_countable = false;
            }

            match (&run_b.flow, &run_v.flow) {
                (Flow::Ret(a), Flow::Ret(b)) => {
                    if a != b {
                        let expr = |v: &Option<VnId>| match v {
                            Some(v) => it.render(*v),
                            None => "(no value)".to_string(),
                        };
                        return Outcome::Mismatch(Box::new(Mismatch {
                            block_b: tb,
                            block_v: tv,
                            event: None,
                            baseline_expr: expr(a),
                            variant_expr: expr(b),
                            detail: "return values differ".to_string(),
                        }));
                    }
                }
                (Flow::Goto(x), Flow::Goto(y)) => {
                    queue.push_back((*x, *y, run_b.regs, run_v.regs));
                }
                (
                    Flow::Branch {
                        cond: c1,
                        then_bb: t1,
                        else_bb: e1,
                    },
                    Flow::Branch {
                        cond: c2,
                        then_bb: t2,
                        else_bb: e2,
                    },
                ) => {
                    if c1 != c2 {
                        return Outcome::Mismatch(Box::new(Mismatch {
                            block_b: tb,
                            block_v: tv,
                            event: None,
                            baseline_expr: it.render(*c1),
                            variant_expr: it.render(*c2),
                            detail: "branch conditions differ".to_string(),
                        }));
                    }
                    queue.push_back((*t1, *t2, run_b.regs.clone(), run_v.regs.clone()));
                    queue.push_back((*e1, *e2, run_b.regs, run_v.regs));
                }
                _ => {
                    return Outcome::Mismatch(Box::new(Mismatch {
                        block_b: tb,
                        block_v: tv,
                        event: None,
                        baseline_expr: flow_kind(&run_b.flow).to_string(),
                        variant_expr: flow_kind(&run_v.flow).to_string(),
                        detail: "control-flow shapes differ".to_string(),
                    }));
                }
            }
        }
        return Outcome::Proved {
            nt_flips: flips_countable.then_some(nt_flips),
        };
    }
    Outcome::Unknown(format!(
        "partition refinement did not converge within {MAX_REFINEMENT_ROUNDS} rounds"
    ))
}

fn flow_kind(f: &Flow) -> &'static str {
    match f {
        Flow::Ret(_) => "return",
        Flow::Goto(_) => "unconditional branch",
        Flow::Branch { .. } => "conditional branch",
    }
}

// ---------------------------------------------------------------------------
// Concrete confirmation
// ---------------------------------------------------------------------------

/// A deterministic synthetic data layout matching what the interpreter
/// tests use: 64-byte-aligned globals from address 64 upward.
fn synthetic_layout(m: &Module) -> (Vec<u64>, usize) {
    let mut addrs = Vec::new();
    let mut cursor: u64 = 64;
    for g in m.globals() {
        addrs.push(cursor);
        cursor += g.size().div_ceil(64).max(1) * 64;
    }
    (addrs, cursor as usize + 64)
}

fn observables_differ(a: &interp::InterpResult, b: &interp::InterpResult) -> Option<String> {
    if a.parked != b.parked {
        return Some(format!(
            "baseline parked={}, variant parked={}",
            a.parked, b.parked
        ));
    }
    if a.reports != b.reports {
        let i = a
            .reports
            .iter()
            .zip(&b.reports)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.reports.len().min(b.reports.len()));
        return Some(format!(
            "report streams diverge at sample {i}: baseline {:?}, variant {:?}",
            a.reports.get(i),
            b.reports.get(i)
        ));
    }
    if a.data != b.data {
        let i = a
            .data
            .iter()
            .zip(&b.data)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.data.len().min(b.data.len()));
        return Some(format!("data segments diverge at byte {i}"));
    }
    None
}

/// Runs both whole modules in the interpreter on the synthetic layout and
/// describes the first observable divergence, if one materializes within
/// the step budget. Non-termination differences are unobservable here and
/// never count as divergence.
fn confirm_divergence(bm: &Module, vm: &Module, steps: u64) -> Option<String> {
    bm.entry()?;
    let (addrs, size) = synthetic_layout(bm);
    let rb = interp::run(bm, &addrs, size, steps);
    let rv = interp::run(vm, &addrs, size, steps);
    use interp::InterpError::StepBudgetExceeded;
    match (rb, rv) {
        (Ok(a), Ok(b)) => observables_differ(&a, &b),
        (Err(StepBudgetExceeded), _) | (_, Err(StepBudgetExceeded)) => None,
        (Ok(_), Err(e)) => Some(format!("baseline completes but variant errors: {e:?}")),
        (Err(e), Ok(_)) => Some(format!("variant completes but baseline errors: {e:?}")),
        (Err(a), Err(b)) => {
            if a == b {
                None
            } else {
                Some(format!("baseline errors with {a:?}, variant with {b:?}"))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

fn check_function_cx(
    cx_b: &ModuleCx<'_>,
    cx_v: &ModuleCx<'_>,
    fid: FuncId,
    opts: &EquivOptions,
) -> Verdict {
    match run_bisim(cx_b, cx_v, fid, opts) {
        Outcome::Proved { nt_flips } => Verdict::Proved { nt_flips },
        Outcome::Unknown(reason) => Verdict::Unknown { reason },
        Outcome::Mismatch(m) => {
            if opts.confirm_with_interp {
                if let Some(divergence) =
                    confirm_divergence(cx_b.module, cx_v.module, opts.confirm_steps)
                {
                    return Verdict::Refuted(Box::new(Counterexample {
                        func: cx_b.module.function(fid).name().to_string(),
                        baseline_block: m.block_b,
                        variant_block: m.block_v,
                        event: m.event,
                        baseline_expr: m.baseline_expr,
                        variant_expr: m.variant_expr,
                        detail: m.detail,
                        divergence,
                    }));
                }
            }
            Verdict::Unknown {
                reason: format!(
                    "not proved: {} at {}/{} (baseline: {}, variant: {}; \
                     no concrete divergence demonstrated)",
                    m.detail, m.block_b, m.block_v, m.baseline_expr, m.variant_expr
                ),
            }
        }
    }
}

/// Checks one function pair with full module context: `fid` names the
/// function in both `baseline` and `variant`. The verdict assumes all
/// *other* function pairs of the two modules are equivalent — true by
/// construction when `variant` is `baseline` with one function replaced
/// (the safety gate's situation), and discharged by [`check_module`] when
/// everything changed.
pub fn check_function_in(
    baseline: &Module,
    variant: &Module,
    fid: FuncId,
    opts: &EquivOptions,
) -> Verdict {
    if fid.index() >= baseline.functions().len() || fid.index() >= variant.functions().len() {
        return Verdict::Unknown {
            reason: format!("no function {fid} in both modules"),
        };
    }
    let cx = CxPair::new(baseline, variant);
    let (cx_b, cx_v) = cx.sides();
    check_function_cx(cx_b, cx_v, fid, opts)
}

/// Proves (or refutes, or gives up on) observational equivalence of two
/// whole modules, function by function. Module-shape mismatches (function
/// count, globals, entry) yield a single `Unknown` result under the
/// pseudo-function name `<module>`.
pub fn check_module(baseline: &Module, variant: &Module, opts: &EquivOptions) -> EquivReport {
    if baseline.functions().len() != variant.functions().len()
        || baseline.globals() != variant.globals()
        || baseline.entry() != variant.entry()
    {
        return EquivReport {
            results: vec![(
                "<module>".to_string(),
                Verdict::Unknown {
                    reason: "module shapes differ (function count, globals, or entry)".to_string(),
                },
            )],
        };
    }
    let cx = CxPair::new(baseline, variant);
    let (cx_b, cx_v) = cx.sides();
    let results = (0..baseline.functions().len())
        .map(|i| {
            let fid = FuncId(i as u32);
            (
                baseline.function(fid).name().to_string(),
                check_function_cx(cx_b, cx_v, fid, opts),
            )
        })
        .collect();
    EquivReport { results }
}

// ---------------------------------------------------------------------------
// OSR transfer proving
// ---------------------------------------------------------------------------

/// A validated prescription for moving a live frame from a baseline
/// function into its variant at a loop header (on-stack replacement).
///
/// Transfer semantics (implemented concretely by
/// [`crate::interp::run_with_transfer`] and assumed symbolically by the
/// prover): the variant frame starts with a zero-initialized register
/// file, `moves` copy baseline registers in, `consts` patch compensation
/// constants, and execution resumes at `variant_header`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TransferRecipe {
    /// The function being switched.
    pub func: FuncId,
    /// The certified baseline-side header (the cut point).
    pub baseline_header: BlockId,
    /// The matched variant-side header execution resumes at.
    pub variant_header: BlockId,
    /// `(variant dst, baseline src)` register copies.
    pub moves: Vec<(Reg, Reg)>,
    /// `(variant dst, value)` compensation constants.
    pub consts: Vec<(Reg, i64)>,
}

impl fmt::Display for TransferRecipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transfer {}@{} -> {} ({} move(s), {} const(s))",
            self.func,
            self.baseline_header,
            self.variant_header,
            self.moves.len(),
            self.consts.len()
        )
    }
}

/// Why an OSR transfer could not be proved, typed so lints and the gate
/// can report refusals without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferRefusal {
    /// No header correspondence could be established.
    Map(crate::osr_map::MapRefusal),
    /// The headers matched, but not the one the certificate names.
    HeaderUnmatched {
        /// The certified header with no counterpart.
        header: BlockId,
    },
    /// A register live at the baseline header is neither covered by the
    /// certificate nor copied by the recipe, so no sound symbol can seed
    /// it.
    UncertifiedLive {
        /// The uncovered live register.
        reg: Reg,
    },
    /// The recipe or certificate references out-of-range functions,
    /// blocks, or registers, or they disagree with each other.
    Malformed {
        /// What was out of range or inconsistent.
        detail: String,
    },
    /// The cut-point bisimulation itself gave up (budget, irreducible
    /// flow, or an unconfirmed mismatch).
    Engine {
        /// The engine's reason.
        reason: String,
    },
}

impl fmt::Display for TransferRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferRefusal::Map(r) => write!(f, "header map refused: {r}"),
            TransferRefusal::HeaderUnmatched { header } => {
                write!(f, "certified header {header} unmatched in the variant")
            }
            TransferRefusal::UncertifiedLive { reg } => {
                write!(
                    f,
                    "live register {reg} not covered by certificate or recipe"
                )
            }
            TransferRefusal::Malformed { detail } => write!(f, "malformed: {detail}"),
            TransferRefusal::Engine { reason } => write!(f, "{reason}"),
        }
    }
}

/// Outcome of proving one OSR transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferVerdict {
    /// The transferred suffix is observationally equivalent (modulo NT
    /// hints) to continuing in the baseline.
    Proved {
        /// The validated recipe.
        recipe: TransferRecipe,
        /// NT-hint flips along the proved suffix, if countable.
        nt_flips: Option<usize>,
    },
    /// The transfer concretely diverges: an interpreter run that applies
    /// the recipe mid-loop produces different observables than the
    /// untransferred baseline.
    Refuted(Box<Counterexample>),
    /// Neither proved nor concretely refuted.
    Unproved {
        /// The typed refusal.
        reason: TransferRefusal,
    },
}

impl TransferVerdict {
    /// True for any `Proved` verdict.
    pub fn is_proved(&self) -> bool {
        matches!(self, TransferVerdict::Proved { .. })
    }

    /// The validated recipe, when proved.
    pub fn recipe(&self) -> Option<&TransferRecipe> {
        match self {
            TransferVerdict::Proved { recipe, .. } => Some(recipe),
            _ => None,
        }
    }
}

impl fmt::Display for TransferVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferVerdict::Proved { recipe, .. } => write!(f, "proved: {recipe}"),
            TransferVerdict::Refuted(cex) => write!(f, "refuted: {cex}"),
            TransferVerdict::Unproved { reason } => write!(f, "unproved: {reason}"),
        }
    }
}

/// Runs the untransferred baseline and several transferred runs (varying
/// which header entry fires the switch) through the interpreter on the
/// synthetic layout, and describes the first observable divergence. The
/// concrete analogue of [`confirm_divergence`] for cut-point proofs.
fn confirm_osr_divergence(
    bm: &Module,
    vm: &Module,
    recipe: &TransferRecipe,
    steps: u64,
) -> Option<String> {
    bm.entry()?;
    let (addrs, size) = synthetic_layout(bm);
    let oracle = interp::run(bm, &addrs, size, steps);
    use interp::InterpError::{BadTransfer, StepBudgetExceeded};
    for hit in [1u64, 2, 3, 7] {
        let spec = interp::OsrTransferSpec {
            func: recipe.func,
            from_block: recipe.baseline_header,
            to_block: recipe.variant_header,
            hit,
            moves: &recipe.moves,
            consts: &recipe.consts,
        };
        let transferred = interp::run_with_transfer(bm, vm, &spec, &addrs, size, steps);
        match (&oracle, transferred) {
            // An inapplicable spec is not evidence of divergence.
            (_, Err(BadTransfer)) => return None,
            (Err(StepBudgetExceeded), _) | (_, Err(StepBudgetExceeded)) => continue,
            (Ok(a), Ok(t)) => {
                if !t.transferred {
                    // Hits only grow; later ones cannot fire either.
                    break;
                }
                if let Some(d) = observables_differ(a, &t.result) {
                    return Some(format!("transfer at header hit {hit}: {d}"));
                }
            }
            (Ok(_), Err(e)) => {
                return Some(format!(
                    "baseline completes but transferred run errors: {e:?}"
                ))
            }
            (Err(a), Ok(t)) => {
                if t.transferred {
                    return Some(format!(
                        "transferred run completes but baseline errors: {a:?}"
                    ));
                }
            }
            (Err(a), Err(b)) => {
                if *a != b {
                    return Some(format!(
                        "baseline errors with {a:?}, transferred run with {b:?}"
                    ));
                }
            }
        }
    }
    None
}

/// Derives and validates an OSR transfer recipe for one certified loop
/// header: matches the header into the variant ([`crate::osr_map`]),
/// proposes the identity live-register remap, and proves the transferred
/// suffix observationally equivalent (modulo NT hints) by cut-point
/// simulation seeded from the certificate's invariants.
///
/// `cert` must be sound for `baseline` (the compiler re-derives embedded
/// certificates via `pcc`'s `check_osr_certificates` before trusting
/// them here); the prover consumes its ranges as axioms.
pub fn prove_osr_transfer(
    baseline: &Module,
    variant: &Module,
    fid: FuncId,
    cert: &absint::OsrCertificate,
    opts: &EquivOptions,
) -> TransferVerdict {
    prove_transfer_cx(&CxPair::new(baseline, variant), fid, cert, opts)
}

/// [`prove_osr_transfer`] for every certificate in `certs`, each against
/// its own function (`cert.func`), in certificate order. All the proofs
/// read one analysis context per side — one in all when `variant` is
/// `baseline` — so the effect summaries are looked up once and each
/// function's abstract states at most once, whatever the number of
/// certificates. Each verdict equals the one-certificate call's.
pub fn prove_osr_transfers(
    baseline: &Module,
    variant: &Module,
    certs: &[absint::OsrCertificate],
    opts: &EquivOptions,
) -> Vec<TransferVerdict> {
    let cx = CxPair::new(baseline, variant);
    certs
        .iter()
        .map(|cert| prove_transfer_cx(&cx, cert.func, cert, opts))
        .collect()
}

fn prove_transfer_cx(
    cx: &CxPair<'_>,
    fid: FuncId,
    cert: &absint::OsrCertificate,
    opts: &EquivOptions,
) -> TransferVerdict {
    let (cx_b, cx_v) = cx.sides();
    let (baseline, variant) = (cx_b.module, cx_v.module);
    if fid.index() >= baseline.functions().len() || fid.index() >= variant.functions().len() {
        return TransferVerdict::Unproved {
            reason: TransferRefusal::Malformed {
                detail: format!("no function {fid} in both modules"),
            },
        };
    }
    let fb = baseline.function(fid);
    let fv = variant.function(fid);
    let map = match crate::osr_map::map_headers(fb, fv) {
        Ok(m) => m,
        Err(r) => {
            return TransferVerdict::Unproved {
                reason: TransferRefusal::Map(r),
            }
        }
    };
    let Some(pair) = map.pair_for(cert.header) else {
        return TransferVerdict::Unproved {
            reason: TransferRefusal::HeaderUnmatched {
                header: cert.header,
            },
        };
    };
    let recipe = TransferRecipe {
        func: fid,
        baseline_header: cert.header,
        variant_header: pair.variant,
        moves: pair.live.iter().map(|&(b, v)| (v, b)).collect(),
        consts: Vec::new(),
    };
    validate_transfer_cx(cx, fid, cert, &recipe, opts)
}

/// Proves (or refutes, or gives up on) one explicit recipe — the
/// re-derivation entry point for recipes decoded from a binary's annex,
/// and the honesty check for mutated recipes in the fuzz harness. Unlike
/// [`prove_osr_transfer`] the recipe is taken as given, so compensation
/// constants hand-synthesized by a caller are validated too.
pub fn validate_osr_transfer(
    baseline: &Module,
    variant: &Module,
    fid: FuncId,
    cert: &absint::OsrCertificate,
    recipe: &TransferRecipe,
    opts: &EquivOptions,
) -> TransferVerdict {
    validate_transfer_cx(&CxPair::new(baseline, variant), fid, cert, recipe, opts)
}

fn validate_transfer_cx(
    cx: &CxPair<'_>,
    fid: FuncId,
    cert: &absint::OsrCertificate,
    recipe: &TransferRecipe,
    opts: &EquivOptions,
) -> TransferVerdict {
    let (cx_b, cx_v) = cx.sides();
    let (baseline, variant) = (cx_b.module, cx_v.module);
    let malformed = |detail: String| TransferVerdict::Unproved {
        reason: TransferRefusal::Malformed { detail },
    };
    if fid.index() >= baseline.functions().len() || fid.index() >= variant.functions().len() {
        return malformed(format!("no function {fid} in both modules"));
    }
    if cert.func != fid || recipe.func != fid {
        return malformed(format!(
            "certificate is for {} and recipe for {}, expected {fid}",
            cert.func, recipe.func
        ));
    }
    if recipe.baseline_header != cert.header {
        return malformed(format!(
            "recipe anchors at {} but the certificate at {}",
            recipe.baseline_header, cert.header
        ));
    }
    let fb = baseline.function(fid);
    let fv = variant.function(fid);
    if recipe.baseline_header.index() >= fb.block_count()
        || recipe.variant_header.index() >= fv.block_count()
    {
        return malformed("recipe header out of range".to_string());
    }
    let (nb, nv) = (reg_table_size(fb), reg_table_size(fv));
    if recipe
        .moves
        .iter()
        .any(|&(d, s)| d.index() >= nv || s.index() >= nb)
        || recipe.consts.iter().any(|&(d, _)| d.index() >= nv)
    {
        return malformed("recipe register out of range".to_string());
    }
    // A register seeded by both a move and a compensation constant makes
    // two contradictory claims about the transferred frame ("equals the
    // baseline source" and "equals the constant"); the interpreter lets
    // the constant win, so such a recipe is at best redundant and at
    // worst smuggles a value past the move's equality. Reject outright.
    if let Some(&(d, _)) = recipe
        .consts
        .iter()
        .find(|&&(d, _)| recipe.moves.iter().any(|&(md, _)| md == d))
    {
        return malformed(format!("{d} is seeded by both a move and a constant"));
    }
    // Every register live into the cut point needs a sound seed symbol:
    // from the certificate's invariant or a recipe move. Anything else
    // would leave the symbolic seed claiming "equals zero" about a value
    // the transfer does not control.
    let cfg_b = Cfg::new(fb);
    let lv_b = Liveness::new(fb);
    let sol_b = lv_b.solve(&cfg_b);
    let covered: std::collections::HashSet<usize> = cert
        .live
        .iter()
        .map(|s| s.reg.index())
        .chain(recipe.moves.iter().map(|&(_, s)| s.index()))
        .collect();
    for r in lv_b.live_in(&sol_b, cert.header).iter() {
        if !covered.contains(&r) {
            return TransferVerdict::Unproved {
                reason: TransferRefusal::UncertifiedLive { reg: Reg(r as u32) },
            };
        }
    }

    let start = Start::Header {
        baseline: cert.header,
        variant: recipe.variant_header,
        cert,
        moves: &recipe.moves,
        consts: &recipe.consts,
    };
    match run_bisim_from(cx_b, cx_v, fid, opts, &start) {
        Outcome::Proved { nt_flips } => TransferVerdict::Proved {
            recipe: recipe.clone(),
            nt_flips,
        },
        Outcome::Unknown(reason) => TransferVerdict::Unproved {
            reason: TransferRefusal::Engine { reason },
        },
        Outcome::Mismatch(m) => {
            if opts.confirm_with_interp {
                if let Some(divergence) =
                    confirm_osr_divergence(baseline, variant, recipe, opts.confirm_steps)
                {
                    return TransferVerdict::Refuted(Box::new(Counterexample {
                        func: fb.name().to_string(),
                        baseline_block: m.block_b,
                        variant_block: m.block_v,
                        event: m.event,
                        baseline_expr: m.baseline_expr,
                        variant_expr: m.variant_expr,
                        detail: m.detail,
                        divergence,
                    }));
                }
            }
            TransferVerdict::Unproved {
                reason: TransferRefusal::Engine {
                    reason: format!(
                        "not proved: {} at {}/{} (baseline: {}, variant: {}; \
                         no concrete divergence demonstrated)",
                        m.detail, m.block_b, m.block_v, m.baseline_expr, m.variant_expr
                    ),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::inst::Locality;
    use crate::module::Block;

    /// `main` calls `work(3)`, reports the result, returns. Terminating,
    /// so candidate mismatches can be concretely confirmed.
    fn harness(work: Function) -> Module {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 256);
        let wid = m.add_function(work);
        let mut main = FunctionBuilder::new("main", 0);
        let c = main.const_(3);
        let r = main.call(wid, &[c]);
        main.report(0, r);
        let base = main.global_addr(g);
        main.store(base, 0, r);
        main.ret(None);
        let mid = m.add_function(main.finish());
        m.set_entry(mid);
        m
    }

    /// work(p) = p*2 + 1, streaming over a loop so there are blocks to
    /// pair up.
    fn work() -> Function {
        let mut b = FunctionBuilder::new("work", 1);
        let p = b.param(0);
        let acc0 = b.mul_imm(p, 2);
        let acc = b.accumulate_loop(0, 4, 1, acc0, |b, i, acc| {
            b.add_into(acc, acc, i);
        });
        let r = b.add_imm(acc, 1);
        b.ret(Some(r));
        b.finish()
    }

    fn wid(m: &Module) -> FuncId {
        m.function_by_name("work").unwrap()
    }

    #[test]
    fn identical_function_is_proved_strictly() {
        let m = harness(work());
        let v = check_function_in(&m, &m, wid(&m), &EquivOptions::default());
        assert_eq!(v, Verdict::Proved { nt_flips: Some(0) });
    }

    #[test]
    fn folded_constants_and_copies_are_proved() {
        // Baseline computes 2+3 through registers and a copy chain; the
        // "optimized" variant returns the folded constant directly.
        let mut b = FunctionBuilder::new("work", 1);
        let x = b.const_(2);
        let y = b.const_(3);
        let s = b.add(x, y);
        let copy = b.add_imm(s, 0); // the optimizer's copy idiom
        let r = b.add(copy, b.param(0));
        b.ret(Some(r));
        let baseline = harness(b.finish());

        let mut o = FunctionBuilder::new("work", 1);
        let s = o.const_(5);
        let r = o.add(s, o.param(0));
        o.ret(Some(r));
        let variant = harness(o.finish());

        let v = check_function_in(
            &baseline,
            &variant,
            wid(&baseline),
            &EquivOptions::default(),
        );
        assert!(v.is_proved(), "{v}");
    }

    #[test]
    fn nt_hint_flips_are_proved_and_counted() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 128);
        let mut f = FunctionBuilder::new("work", 0);
        let base = f.global_addr(g);
        let a = f.load(base, 0, Locality::Normal);
        let b2 = f.load(base, 8, Locality::Normal);
        let s = f.add(a, b2);
        f.ret(Some(s));
        let fid = m.add_function(f.finish());
        m.set_entry(fid);
        let mut vm = m.clone();
        for block in vm.functions_mut()[fid.index()].blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Load { locality, .. } = inst {
                    *locality = Locality::NonTemporal;
                }
            }
        }
        let v = check_function_in(&m, &vm, fid, &EquivOptions::default());
        assert_eq!(v, Verdict::Proved { nt_flips: Some(2) });
    }

    #[test]
    fn corrupted_arithmetic_is_refuted_with_counterexample() {
        let baseline = harness(work());
        let mut corrupted = work();
        for block in corrupted.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::BinImm {
                    op: BinOp::Mul,
                    imm,
                    ..
                } = inst
                {
                    *imm += 1; // p*2 becomes p*3: a corrupted constant fold
                }
            }
        }
        let variant = harness(corrupted);
        let v = check_function_in(
            &baseline,
            &variant,
            wid(&baseline),
            &EquivOptions::default(),
        );
        match v {
            Verdict::Refuted(cex) => {
                assert_eq!(cex.func, "work");
                assert!(!cex.divergence.is_empty());
                let s = cex.to_string();
                assert!(s.contains("work"), "{s}");
            }
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn register_renaming_is_proved() {
        // The same body with all temporaries renumbered (register
        // compaction's effect).
        let baseline = harness(work());
        let f = baseline.function(wid(&baseline));
        let shift = 3u32;
        let remap = |r: Reg| {
            if r.index() < 1 {
                r // param pinned
            } else {
                Reg(r.0 + shift)
            }
        };
        let mut blocks = f.blocks().to_vec();
        for b in &mut blocks {
            for inst in &mut b.insts {
                *inst = match inst.clone() {
                    Inst::Const { dst, value } => Inst::Const {
                        dst: remap(dst),
                        value,
                    },
                    Inst::Bin { op, dst, lhs, rhs } => Inst::Bin {
                        op,
                        dst: remap(dst),
                        lhs: remap(lhs),
                        rhs: remap(rhs),
                    },
                    Inst::BinImm { op, dst, lhs, imm } => Inst::BinImm {
                        op,
                        dst: remap(dst),
                        lhs: remap(lhs),
                        imm,
                    },
                    other => other,
                };
            }
            match &mut b.term {
                Term::CondBr { cond, .. } => *cond = remap(*cond),
                Term::Ret(Some(r)) => *r = remap(*r),
                _ => {}
            }
        }
        let renamed = Function::from_parts("work", 1, f.reg_count() + shift, blocks);
        let mut vm = baseline.clone();
        vm.functions_mut()[wid(&baseline).index()] = renamed;
        let v = check_function_in(&baseline, &vm, wid(&baseline), &EquivOptions::default());
        assert!(v.is_proved(), "{v}");
    }

    #[test]
    fn store_forwarding_normalizes_across_disjoint_stores() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 128);
        let mut f = FunctionBuilder::new("work", 1);
        let p = f.param(0);
        let base = f.global_addr(g);
        f.store(base, 0, p);
        let q = f.mul_imm(p, 7);
        f.store(base, 8, q); // provably disjoint from offset 0
        let back = f.load(base, 0, Locality::Normal);
        f.ret(Some(back));
        let fid = m.add_function(f.finish());
        m.set_entry(fid);
        // Variant returns the parameter directly: valid only if the
        // checker forwards the first store past the disjoint second one.
        let mut o = FunctionBuilder::new("work", 1);
        let p = o.param(0);
        let base = o.global_addr(g);
        o.store(base, 0, p);
        let q = o.mul_imm(p, 7);
        o.store(base, 8, q);
        o.ret(Some(p));
        let mut vm = m.clone();
        vm.functions_mut()[fid.index()] = o.finish();
        let v = check_function_in(&m, &vm, fid, &EquivOptions::default());
        assert!(v.is_proved(), "{v}");
    }

    #[test]
    fn wait_resume_is_verified_not_terminal() {
        // The stock server workload is `loop { wait; serve(); }`: the
        // machine resumes after wake, so the checker must keep verifying
        // past the park. Identical sides prove strictly, including the
        // post-wake load (clobbered identically on both sides).
        let mut m = Module::new("m");
        let g = m.add_global("mailbox", 64);
        let mut b = FunctionBuilder::new("server", 0);
        let base = b.global_addr(g);
        let loop_bb = b.new_block();
        b.br(loop_bb);
        b.switch_to(loop_bb);
        let c = b.const_(7);
        b.store(base, 0, c);
        b.wait();
        let v = b.load(base, 0, Locality::Normal);
        b.report(0, v);
        b.br(loop_bb);
        let fid = m.add_function(b.finish());
        let v = check_function_in(&m, &m, fid, &EquivOptions::default());
        assert_eq!(v, Verdict::Proved { nt_flips: Some(0) });
    }

    #[test]
    fn post_wait_divergence_is_never_proved() {
        // A variant corrupted *after* the first `wait` must not be
        // admitted (a park-is-terminal checker would never look at it).
        let build = |imm: i64| {
            let mut m = Module::new("m");
            let mut b = FunctionBuilder::new("server", 0);
            b.wait();
            let c = b.const_(imm);
            b.report(0, c);
            b.ret(None);
            let fid = m.add_function(b.finish());
            m.set_entry(fid);
            m
        };
        let baseline = build(1);
        let variant = build(2);
        let fid = baseline.function_by_name("server").unwrap();
        let v = check_function_in(&baseline, &variant, fid, &EquivOptions::default());
        assert!(!v.is_proved(), "post-wait corruption admitted: {v}");
    }

    #[test]
    fn store_forwarding_is_blocked_across_wait() {
        // While parked, other processes may overwrite the mailbox, so a
        // variant returning the pre-park stored value instead of the
        // post-wake load is not equivalent.
        let mut m = Module::new("m");
        let g = m.add_global("mailbox", 64);
        let mut b = FunctionBuilder::new("server", 0);
        let base = b.global_addr(g);
        let c = b.const_(7);
        b.store(base, 0, c);
        b.wait();
        let v = b.load(base, 0, Locality::Normal);
        b.ret(Some(v));
        let fid = m.add_function(b.finish());
        m.set_entry(fid);
        let mut o = FunctionBuilder::new("server", 0);
        let base = o.global_addr(g);
        let c = o.const_(7);
        o.store(base, 0, c);
        o.wait();
        o.ret(Some(c));
        let mut vm = m.clone();
        vm.functions_mut()[fid.index()] = o.finish();
        let v = check_function_in(&m, &vm, fid, &EquivOptions::default());
        assert!(!v.is_proved(), "forwarded a store across a park: {v}");
    }

    #[test]
    fn extreme_offsets_are_not_provably_disjoint() {
        // Addresses wrap mod 2^64: offsets i64::MAX and i64::MIN are one
        // byte apart circularly, so their 8-byte windows overlap.
        let mut it = Interner::default();
        let base = it.cut();
        let cmax = it.konst(i64::MAX);
        let near_max = it.bin(BinOp::Add, base, cmax);
        let cmin = it.konst(i64::MIN);
        let near_min = it.bin(BinOp::Add, base, cmin);
        assert!(!it.provably_disjoint(near_max, near_min));
        // Ordinary distances still resolve: 8 apart is disjoint, 4 is not.
        let c8 = it.konst(8);
        let at8 = it.bin(BinOp::Add, base, c8);
        assert!(it.provably_disjoint(base, at8));
        let c4 = it.konst(4);
        let at4 = it.bin(BinOp::Add, base, c4);
        assert!(!it.provably_disjoint(base, at4));
    }

    #[test]
    fn interval_rule_separates_bounded_windows() {
        let mut it = Interner {
            interval_alias: true,
            global_sizes: vec![256, 64],
            ..Interner::default()
        };
        let g0 = it.intern(Sym::GlobalBase(GlobalId(0)));
        let g1 = it.intern(Sym::GlobalBase(GlobalId(1)));
        // Dynamic index with a seeded range: g0 + i, i ∈ [0, 8].
        let i = it.cut_ranged(Interval::new(0, 8));
        let lo = it.bin(BinOp::Add, g0, i);
        // Same global, far side: g0 + 128. Windows [0,16) and [128,136).
        let c128 = it.konst(128);
        let far = it.bin(BinOp::Add, g0, c128);
        let before = interval_disjoint_facts();
        assert!(it.provably_disjoint(lo, far));
        assert!(interval_disjoint_facts() > before, "fact counter advanced");
        // Same global, touching: g0 + 12 overlaps the [0,16) window.
        let c12 = it.konst(12);
        let near = it.bin(BinOp::Add, g0, c12);
        assert!(!it.provably_disjoint(lo, near));
        // Distinct globals, both in-bounds: disjoint objects.
        let c0 = it.konst(0);
        let other = it.bin(BinOp::Add, g1, c0);
        assert!(it.provably_disjoint(lo, other));
        // Out-of-bounds window on either side disables the rule.
        let cbig = it.konst(300);
        let oob = it.bin(BinOp::Add, g0, cbig);
        assert!(!it.provably_disjoint(oob, other));
        // With the gate off, only the syntactic rule remains.
        it.interval_alias = false;
        assert!(!it.provably_disjoint(lo, other));
    }

    #[test]
    fn cross_global_reorder_proves_only_with_interval_facts() {
        // Baseline stores to global `a`, then loads global `b`; the
        // variant hoists the load above the store. Their symbolic bases
        // differ, so the syntactic rule pins the load behind the store
        // and the sides disagree — only the interval rule (distinct
        // in-bounds globals are disjoint) closes the gap.
        let build = |hoisted: bool| {
            let mut m = Module::new("m");
            let ga = m.add_global("a", 64);
            let gb = m.add_global("b", 64);
            let mut f = FunctionBuilder::new("work", 1);
            let p = f.param(0);
            let ba = f.global_addr(ga);
            let bb = f.global_addr(gb);
            if hoisted {
                let v = f.load(bb, 0, Locality::Normal);
                f.store(ba, 0, p);
                let s = f.add(v, p);
                f.ret(Some(s));
            } else {
                f.store(ba, 0, p);
                let v = f.load(bb, 0, Locality::Normal);
                let s = f.add(v, p);
                f.ret(Some(s));
            }
            let fid = m.add_function(f.finish());
            m.set_entry(fid);
            m
        };
        let baseline = build(false);
        let variant = build(true);
        let fid = baseline.function_by_name("work").unwrap();
        let v = check_function_in(&baseline, &variant, fid, &EquivOptions::default());
        assert!(v.is_proved(), "interval facts should prove the hoist: {v}");
        let classic = EquivOptions {
            interval_alias: false,
            ..EquivOptions::default()
        };
        let v = check_function_in(&baseline, &variant, fid, &classic);
        assert!(
            matches!(v, Verdict::Unknown { .. }),
            "syntactic rule alone must stay conservative: {v}"
        );
    }

    #[test]
    fn absint_seeded_cuts_bound_loop_indices_across_blocks() {
        // A loop writing buf[i] for i in [0, 8) while reading a fixed
        // tail slot buf[448]: the index is a cut symbol at the header,
        // but its absint-seeded range keeps the two windows apart, so a
        // variant hoisting the tail load out of the store's shadow still
        // proves. (Same global — only the seeded range can separate
        // them.)
        let build = |hoisted: bool| {
            let mut m = Module::new("m");
            let g = m.add_global("buf", 512);
            let mut f = FunctionBuilder::new("work", 1);
            let p = f.param(0);
            let base = f.global_addr(g);
            let acc0 = f.const_(0);
            let acc = f.accumulate_loop(0, 8, 1, acc0, |f, i, acc| {
                let off = f.shl_imm(i, 3);
                let addr = f.add(base, off);
                if hoisted {
                    let tail = f.load(base, 448, Locality::Normal);
                    f.store(addr, 0, p);
                    f.add_into(acc, acc, tail);
                } else {
                    f.store(addr, 0, p);
                    let tail = f.load(base, 448, Locality::Normal);
                    f.add_into(acc, acc, tail);
                }
            });
            f.ret(Some(acc));
            let fid = m.add_function(f.finish());
            m.set_entry(fid);
            m
        };
        let baseline = build(false);
        let variant = build(true);
        let fid = baseline.function_by_name("work").unwrap();
        let v = check_function_in(&baseline, &variant, fid, &EquivOptions::default());
        assert!(v.is_proved(), "seeded cut ranges should prove: {v}");
        let classic = EquivOptions {
            interval_alias: false,
            ..EquivOptions::default()
        };
        let v = check_function_in(&baseline, &variant, fid, &classic);
        assert!(
            matches!(v, Verdict::Unknown { .. }),
            "without interval facts the store shadows the load: {v}"
        );
    }

    #[test]
    fn irreducible_control_flow_degrades_to_unknown() {
        // Two-header loop: bb0 branches into both bb1 and bb2, which form
        // a cycle — neither header dominates the other.
        let irreducible = Function::from_parts(
            "work",
            1,
            1,
            vec![
                Block::new(Term::CondBr {
                    cond: Reg(0),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                }),
                Block::new(Term::Br(BlockId(2))),
                Block::new(Term::Br(BlockId(1))),
            ],
        );
        let mut m = Module::new("m");
        let fid = m.add_function(irreducible);
        let v = check_function_in(&m, &m, fid, &EquivOptions::default());
        match v {
            Verdict::Unknown { reason } => {
                assert!(reason.contains("irreducible"), "{reason}")
            }
            other => panic!("irreducible CFG must never prove: {other}"),
        }
    }

    #[test]
    fn coincident_loop_entry_values_refine_instead_of_failing() {
        // `acc` and `i` both enter the loop holding 0, so the first
        // candidate invariant merges them into one cut class; the back
        // edge breaks that class and the checker must refine the
        // partition and re-prove, not give up.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("work", 0);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 4, 1, acc0, |b, i, acc| {
            b.add_into(acc, acc, i);
        });
        b.ret(Some(acc));
        let fid = m.add_function(b.finish());
        m.set_entry(fid);
        let v = check_function_in(&m, &m, fid, &EquivOptions::default());
        assert_eq!(v, Verdict::Proved { nt_flips: Some(0) });
    }

    #[test]
    fn module_check_reports_per_function() {
        let m = harness(work());
        let report = check_module(&m, &m, &EquivOptions::default());
        assert!(report.all_proved(), "{report}");
        assert_eq!(report.results().len(), 2);
        assert_eq!(report.total_nt_flips(), Some(0));
        assert!(report.first_refutation().is_none());
        assert!(report.first_unknown().is_none());
        let shapes = Module::new("other");
        let r2 = check_module(&m, &shapes, &EquivOptions::default());
        assert!(!r2.all_proved());
        assert!(r2.first_unknown().unwrap().1.contains("module shapes"));
    }

    #[test]
    fn dead_code_elimination_is_proved() {
        // Baseline has a dead pure computation; variant drops it.
        let mut b = FunctionBuilder::new("work", 1);
        let p = b.param(0);
        let _dead = b.mul_imm(p, 99);
        let r = b.add_imm(p, 4);
        b.ret(Some(r));
        let baseline = harness(b.finish());
        let mut o = FunctionBuilder::new("work", 1);
        let p = o.param(0);
        let r = o.add_imm(p, 4);
        o.ret(Some(r));
        let variant = harness(o.finish());
        let v = check_function_in(
            &baseline,
            &variant,
            wid(&baseline),
            &EquivOptions::default(),
        );
        assert!(v.is_proved(), "{v}");
    }

    // -----------------------------------------------------------------
    // OSR transfer proving
    // -----------------------------------------------------------------

    /// A store-observable checksum loop over a global. Builder layout:
    /// bb0 entry, bb1 header, bb2 body, bb3 exit.
    fn osr_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let data = m.add_global_full(crate::Global::with_words("d", vec![3, 5, 7, 11]));
        let out = m.add_global("out", 8);
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.global_addr(data);
        let o = b.global_addr(out);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 4, 1, acc0, |bl, i, acc| {
            let off = bl.shl_imm(i, 3);
            let a = bl.add(base, off);
            let v = bl.load(a, 0, Locality::Normal);
            bl.add_into(acc, acc, v);
        });
        b.store(o, 0, acc);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        (m, f)
    }

    fn cert_for(m: &Module, fid: FuncId) -> crate::absint::OsrCertificate {
        crate::absint::certify_function(m, fid)
            .into_iter()
            .find_map(|d| d.certificate().cloned())
            .expect("header certifies")
    }

    #[test]
    fn identity_transfer_on_self_is_proved() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let v = prove_osr_transfer(&m, &m, f, &cert, &EquivOptions::default());
        let TransferVerdict::Proved { recipe, nt_flips } = v else {
            panic!("expected proved, got {v}");
        };
        assert_eq!(nt_flips, Some(0));
        assert_eq!(recipe.func, f);
        assert_eq!(recipe.baseline_header, cert.header);
        assert_eq!(recipe.variant_header, cert.header);
        assert!(recipe.consts.is_empty());
        assert!(!recipe.moves.is_empty());
        assert!(recipe.moves.iter().all(|(d, s)| d == s));
    }

    #[test]
    fn nt_variant_transfer_proved_with_flips_counted() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let mut v = m.clone();
        for blk in v.functions_mut()[f.index()].blocks_mut() {
            for inst in &mut blk.insts {
                if let Inst::Load { locality, .. } = inst {
                    *locality = Locality::NonTemporal;
                }
            }
        }
        let verdict = prove_osr_transfer(&m, &v, f, &cert, &EquivOptions::default());
        let TransferVerdict::Proved { nt_flips, .. } = verdict else {
            panic!("expected proved, got {verdict}");
        };
        assert_eq!(nt_flips, Some(1), "one flipped load along the suffix");
    }

    #[test]
    fn corrupted_recipe_is_refuted_not_proved() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let proved = prove_osr_transfer(&m, &m, f, &cert, &EquivOptions::default());
        let mut recipe = proved.recipe().expect("proved").clone();
        assert!(recipe.moves.len() > 1, "need moves to corrupt");
        // Rotate the sources: every register receives some *other* live
        // register's value at transfer.
        let srcs: Vec<Reg> = recipe.moves.iter().map(|&(_, s)| s).collect();
        let n = srcs.len();
        for (i, mv) in recipe.moves.iter_mut().enumerate() {
            mv.1 = srcs[(i + 1) % n];
        }
        let v = validate_osr_transfer(&m, &m, f, &cert, &recipe, &EquivOptions::default());
        assert!(
            matches!(v, TransferVerdict::Refuted(_)),
            "corrupted recipe must be refuted, got {v}"
        );
    }

    #[test]
    fn setconst_compensation_proves_against_inline_constant() {
        // The loop bound register holds the constant 4 at the header;
        // replace its move with a SetConst compensation op and the proof
        // must still close (via singleton-range cut folding).
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let bound = cert
            .live
            .iter()
            .find(|s| s.range.lo == 4 && s.range.hi == 4)
            .expect("loop bound certified as [4,4]")
            .reg;
        let proved = prove_osr_transfer(&m, &m, f, &cert, &EquivOptions::default());
        let mut recipe = proved.recipe().expect("proved").clone();
        recipe.moves.retain(|&(d, _)| d != bound);
        recipe.consts.push((bound, 4));
        let v = validate_osr_transfer(&m, &m, f, &cert, &recipe, &EquivOptions::default());
        assert!(v.is_proved(), "{v}");
        // The wrong constant must not prove.
        let mut wrong = recipe.clone();
        wrong.consts[0].1 = 3;
        let v = validate_osr_transfer(&m, &m, f, &cert, &wrong, &EquivOptions::default());
        assert!(
            matches!(v, TransferVerdict::Refuted(_)),
            "wrong compensation constant must refute, got {v}"
        );
    }

    #[test]
    fn uncovered_live_register_is_refused() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let hollow = crate::absint::OsrCertificate {
            live: Vec::new(),
            ..cert.clone()
        };
        let recipe = TransferRecipe {
            func: f,
            baseline_header: cert.header,
            variant_header: cert.header,
            moves: Vec::new(),
            consts: Vec::new(),
        };
        let v = validate_osr_transfer(
            &m,
            &m,
            f,
            &cert_for(&m, f),
            &recipe,
            &EquivOptions::default(),
        );
        // With the real certificate the live set is covered even with no
        // moves? No: moves are empty, but the certificate covers the
        // seeds — the *variant* side then starts from zero and diverges,
        // so this must not prove; with the hollow certificate the typed
        // refusal fires first.
        assert!(!v.is_proved(), "{v}");
        let v = validate_osr_transfer(&m, &m, f, &hollow, &recipe, &EquivOptions::default());
        assert_eq!(
            match v {
                TransferVerdict::Unproved {
                    reason: TransferRefusal::UncertifiedLive { .. },
                } => "uncertified",
                _ => "other",
            },
            "uncertified"
        );
    }

    #[test]
    fn structural_divergence_yields_typed_map_refusal() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        // A variant with an extra loop: header counts differ.
        let mut v = m.clone();
        {
            let func = &mut v.functions_mut()[f.index()];
            let mut b = FunctionBuilder::new("main", 0);
            b.counted_loop(0, 2, 1, |b, i| {
                let _ = b.add_imm(i, 1);
            });
            b.counted_loop(0, 2, 1, |b, i| {
                let _ = b.add_imm(i, 2);
            });
            b.ret(None);
            *func = b.finish();
        }
        let verdict = prove_osr_transfer(&m, &v, f, &cert, &EquivOptions::default());
        assert!(
            matches!(
                verdict,
                TransferVerdict::Unproved {
                    reason: TransferRefusal::Map(
                        crate::osr_map::MapRefusal::HeaderCountMismatch { .. }
                    )
                }
            ),
            "{verdict}"
        );
    }

    #[test]
    fn malformed_recipes_are_typed_refusals() {
        let (m, f) = osr_module();
        let cert = cert_for(&m, f);
        let good = prove_osr_transfer(&m, &m, f, &cert, &EquivOptions::default())
            .recipe()
            .expect("proved")
            .clone();
        let cases: Vec<TransferRecipe> = vec![
            TransferRecipe {
                func: FuncId(9),
                ..good.clone()
            },
            TransferRecipe {
                baseline_header: BlockId(9),
                ..good.clone()
            },
            TransferRecipe {
                variant_header: BlockId(99),
                ..good.clone()
            },
            TransferRecipe {
                moves: vec![(Reg(200), Reg(0))],
                ..good.clone()
            },
        ];
        for recipe in cases {
            let v = validate_osr_transfer(&m, &m, f, &cert, &recipe, &EquivOptions::default());
            assert!(
                matches!(
                    v,
                    TransferVerdict::Unproved {
                        reason: TransferRefusal::Malformed { .. }
                    }
                ),
                "{recipe:?} -> {v}"
            );
        }
    }
}
