//! Abstract interpretation over PIR with widening/narrowing, and the
//! OSR-point certification built on top of it.
//!
//! Three cooperating abstract domains run in one fixpoint over the CFG
//! ([`crate::dataflow::Cfg`]):
//!
//! * **Intervals** ([`Interval`]) — a signed value range per register,
//!   with per-operator transfer functions that are exact for
//!   constant/constant pairs (they defer to [`BinOp::eval`]) and
//!   conservative elsewhere. Loop headers are widened after a short
//!   delay and two narrowing passes recover counted-loop bounds.
//! * **Known bits** ([`KnownBits`]) — per-bit certainty, the classic
//!   `(mask, value)` encoding. Catches alignment and small-domain facts
//!   intervals cannot (e.g. "low three bits are zero" after `shl 3`).
//! * **Points-to classes** ([`PtClass`]) — a *flow-sensitive* refinement
//!   of the flow-insensitive classes in [`crate::effects`], using the
//!   identical derivation rules so every flow-sensitive class is at or
//!   below the flow-insensitive one in the lattice.
//!
//! The engine is deliberately intraprocedural: call results and loaded
//! values go to ⊤, parameters are ⊤ with a [`PtClass::Param`] pedigree.
//! That matches the reference interpreter's frame model exactly, which is
//! what the soundness fuzz harness (`tests/absint_fuzz.rs`) cross-checks:
//! *every concrete register value at every block entry must be admitted
//! by the abstract state there*.
//!
//! Consumers in this repository:
//!
//! * [`certify_function`] / [`certify_module`] decide, per loop header,
//!   whether the live state at the back edge is reconstructible in a
//!   recompiled variant, and emit an [`OsrCertificate`] or a typed
//!   [`OsrRefusal`]. `pcc` embeds the certificates in compiled output
//!   (the contract ROADMAP item 3's OSR runtime consumes).
//! * [`crate::equiv`] seeds bisimulation cut symbols with interval facts
//!   and uses global-offset ranges to prove address disjointness.
//! * [`crate::lint`] uses block reachability plus effect facts to flag
//!   likely-divergent loops; [`crate::print`] renders the annotations.
//!
//! Results are memoized per function in a process-wide cache
//! ([`analyze_function_cached`]), keyed on the function body alone
//! because the fixpoint reads nothing else, so the safety gate and the
//! compiler never recompute a fixpoint for an unchanged function, in
//! whatever module it sits.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::dataflow::{is_reducible, BitSet, Cfg, Dominators, Liveness};
use crate::effects::PtClass;
use crate::ids::{BlockId, FuncId, Reg};
use crate::inst::{BinOp, Inst, Term};
use crate::loops;
use crate::module::{Block, Function, Module};

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// An inclusive signed 64-bit value range `[lo, hi]`.
///
/// The full range `[i64::MIN, i64::MAX]` is ⊤ ("no information"); there
/// is no explicit ⊥ — an empty meet is reported as `None` by
/// [`Interval::meet`] and treated as infeasibility by the engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Smallest admitted value.
    pub lo: i64,
    /// Largest admitted value.
    pub hi: i64,
}

impl Interval {
    /// The full range (⊤).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// Builds `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The singleton range `[v, v]`.
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// True if this is the full range.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// The single admitted value, if the range is a singleton.
    pub fn as_exact(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True if `v` is inside the range.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Lattice join (union hull).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Lattice meet (intersection); `None` when empty.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Standard interval widening: any bound that moved since `self` jumps
    /// straight to its infinity. `next` must be `self ⊔ contribution`.
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn from_i128(lo: i128, hi: i128) -> Interval {
        if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
            Interval {
                lo: lo as i64,
                hi: hi as i64,
            }
        } else {
            Interval::TOP
        }
    }

    /// Transfer function for `op` over abstract operands, sound w.r.t.
    /// [`BinOp::eval`]: for all `a ∈ ra, b ∈ rb`,
    /// `op.eval(a, b) ∈ Interval::apply(op, ra, rb)`.
    pub fn apply(op: BinOp, a: Interval, b: Interval) -> Interval {
        if let (Some(x), Some(y)) = (a.as_exact(), b.as_exact()) {
            return Interval::exact(op.eval(x, y));
        }
        let (al, ah, bl, bh) = (a.lo as i128, a.hi as i128, b.lo as i128, b.hi as i128);
        match op {
            BinOp::Add => Interval::from_i128(al + bl, ah + bh),
            BinOp::Sub => Interval::from_i128(al - bh, ah - bl),
            BinOp::Mul => {
                let c = [al * bl, al * bh, ah * bl, ah * bh];
                Interval::from_i128(
                    c.iter().copied().min().expect("corners"),
                    c.iter().copied().max().expect("corners"),
                )
            }
            BinOp::Div => match b.as_exact() {
                Some(0) => Interval::exact(0),
                Some(c) if c > 0 => Interval::new(a.lo.wrapping_div(c), a.hi.wrapping_div(c)),
                Some(-1) if a.lo > i64::MIN => Interval::new(-a.hi, -a.lo),
                Some(c) if c < -1 => Interval::new(a.hi.wrapping_div(c), a.lo.wrapping_div(c)),
                _ if b.lo > 0 => {
                    // Truncating division is monotone per coordinate on a
                    // positive divisor box, so the extrema sit at corners.
                    let c = [
                        a.lo.wrapping_div(b.lo),
                        a.lo.wrapping_div(b.hi),
                        a.hi.wrapping_div(b.lo),
                        a.hi.wrapping_div(b.hi),
                    ];
                    Interval::new(
                        c.iter().copied().min().expect("corners"),
                        c.iter().copied().max().expect("corners"),
                    )
                }
                _ => Interval::TOP,
            },
            BinOp::Rem => match b.as_exact() {
                Some(0) => Interval::exact(0),
                Some(c) if c != i64::MIN => {
                    let m = c.abs() - 1;
                    if a.lo >= 0 {
                        Interval::new(0, a.hi.min(m))
                    } else {
                        Interval::new(-m, m)
                    }
                }
                _ if b.lo > 0 => {
                    let m = b.hi - 1;
                    if a.lo >= 0 {
                        Interval::new(0, a.hi.min(m))
                    } else {
                        Interval::new(-m, m)
                    }
                }
                _ => Interval::TOP,
            },
            BinOp::And => match (a.lo >= 0, b.lo >= 0) {
                // Anding with a nonnegative value cannot exceed it or go
                // negative (it can only clear bits of the other side).
                (true, true) => Interval::new(0, a.hi.min(b.hi)),
                (true, false) => Interval::new(0, a.hi),
                (false, true) => Interval::new(0, b.hi),
                (false, false) => Interval::TOP,
            },
            BinOp::Or if a.lo >= 0 && b.lo >= 0 => {
                Interval::new(a.lo.max(b.lo), bits_hull(a.hi.max(b.hi)))
            }
            BinOp::Xor if a.lo >= 0 && b.lo >= 0 => Interval::new(0, bits_hull(a.hi.max(b.hi))),
            BinOp::Or | BinOp::Xor => Interval::TOP,
            BinOp::Shl => match b.as_exact().map(|s| (s as u32) & 63) {
                Some(s) if s <= 62 => {
                    let m = (1i64 << s) as i128;
                    Interval::from_i128(al * m, ah * m)
                }
                // `x << 63` is 0 for even x, i64::MIN for odd x.
                Some(_) => Interval::new(i64::MIN, 0),
                None => Interval::TOP,
            },
            BinOp::Shr => match b.as_exact().map(|s| (s as u32) & 63) {
                Some(s) => Interval::new(a.lo >> s, a.hi >> s),
                // Any shift amount: negatives head toward -1, nonnegatives
                // toward 0, and a zero shift reproduces the input.
                None => Interval::new(a.lo.min(0), a.hi.max(-1)),
            },
            BinOp::Lt => cmp_result(a.hi < b.lo, a.lo >= b.hi),
            BinOp::Le => cmp_result(a.hi <= b.lo, a.lo > b.hi),
            BinOp::Gt => cmp_result(a.lo > b.hi, a.hi <= b.lo),
            BinOp::Ge => cmp_result(a.lo >= b.hi, a.hi < b.lo),
            BinOp::Eq => cmp_result(false, a.meet(b).is_none()),
            BinOp::Ne => cmp_result(a.meet(b).is_none(), false),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "[-inf, +inf]")
        } else if let Some(v) = self.as_exact() {
            write!(f, "[{v}]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Smallest all-ones value covering every bit of nonnegative `v`
/// (e.g. `5 -> 7`, `8 -> 15`). Upper bound for or/xor of values `<= v`.
fn bits_hull(v: i64) -> i64 {
    debug_assert!(v >= 0);
    if v == 0 {
        0
    } else {
        let bits = 64 - (v as u64).leading_zeros();
        (((1u128 << bits) - 1) & i64::MAX as u128) as i64
    }
}

/// `[1,1]` if the predicate is decided true, `[0,0]` if decided false,
/// `[0,1]` otherwise.
fn cmp_result(always: bool, never: bool) -> Interval {
    if always {
        Interval::exact(1)
    } else if never {
        Interval::exact(0)
    } else {
        Interval::new(0, 1)
    }
}

// ---------------------------------------------------------------------------
// Known-bits domain
// ---------------------------------------------------------------------------

/// Per-bit knowledge about a 64-bit value: bit *i* is known iff bit *i*
/// of `mask` is set, in which case its value is bit *i* of `value`.
///
/// Invariant: `value & !mask == 0`. `mask == 0` is ⊤, `mask == !0` is an
/// exact constant.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct KnownBits {
    /// Which bits are known.
    pub mask: u64,
    /// Values of the known bits (zero elsewhere).
    pub value: u64,
}

impl KnownBits {
    /// No bit known (⊤).
    pub const TOP: KnownBits = KnownBits { mask: 0, value: 0 };

    /// Every bit known: the constant `v`.
    pub fn exact(v: i64) -> KnownBits {
        KnownBits {
            mask: !0,
            value: v as u64,
        }
    }

    /// True if nothing is known.
    pub fn is_top(self) -> bool {
        self.mask == 0
    }

    /// True if `v` agrees with every known bit.
    pub fn contains(self, v: i64) -> bool {
        (v as u64) & self.mask == self.value
    }

    /// Lattice join: keeps bits known on both sides with equal values.
    pub fn join(self, other: KnownBits) -> KnownBits {
        let mask = self.mask & other.mask & !(self.value ^ other.value);
        KnownBits {
            mask,
            value: self.value & mask,
        }
    }

    fn ones(self) -> u64 {
        self.mask & self.value
    }

    fn zeros(self) -> u64 {
        self.mask & !self.value
    }

    /// Transfer function for `op`, sound w.r.t. [`BinOp::eval`].
    pub fn apply(op: BinOp, a: KnownBits, b: KnownBits) -> KnownBits {
        if a.mask == !0 && b.mask == !0 {
            return KnownBits::exact(op.eval(a.value as i64, b.value as i64));
        }
        match op {
            BinOp::And => {
                let ones = a.ones() & b.ones();
                let zeros = a.zeros() | b.zeros();
                KnownBits {
                    mask: ones | zeros,
                    value: ones,
                }
            }
            BinOp::Or => {
                let ones = a.ones() | b.ones();
                let zeros = a.zeros() & b.zeros();
                KnownBits {
                    mask: ones | zeros,
                    value: ones,
                }
            }
            BinOp::Xor => {
                let mask = a.mask & b.mask;
                KnownBits {
                    mask,
                    value: (a.value ^ b.value) & mask,
                }
            }
            // Carries/borrows propagate upward only, so a run of known
            // low bits on both sides fixes the same run of the result.
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let n = (a.mask & b.mask).trailing_ones();
                let mask = low_mask(n);
                let raw = match op {
                    BinOp::Add => a.value.wrapping_add(b.value),
                    BinOp::Sub => a.value.wrapping_sub(b.value),
                    _ => a.value.wrapping_mul(b.value),
                };
                KnownBits {
                    mask,
                    value: raw & mask,
                }
            }
            BinOp::Shl => match exact_shift(b) {
                Some(s) => KnownBits {
                    mask: (a.mask << s) | low_mask(s),
                    value: a.value << s,
                },
                None => KnownBits::TOP,
            },
            BinOp::Shr => match exact_shift(b) {
                Some(s) => {
                    let sign_known = a.mask >> 63 == 1;
                    let mut mask = a.mask >> s;
                    if sign_known && s > 0 {
                        mask |= !(!0u64 >> s);
                    }
                    let value = (((a.value as i64) >> s) as u64) & mask;
                    KnownBits { mask, value }
                }
                None => KnownBits::TOP,
            },
            // Comparison results are 0 or 1: the top 63 bits are zero.
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                KnownBits { mask: !1, value: 0 }
            }
            BinOp::Div | BinOp::Rem => KnownBits::TOP,
        }
    }
}

impl fmt::Display for KnownBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "bits:?")
        } else if self.mask == !0 {
            write!(f, "bits:={:#x}", self.value)
        } else {
            write!(f, "bits:{:#x}/{:#x}", self.value, self.mask)
        }
    }
}

fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// The shift amount the ISA will use, when all six low bits are known.
fn exact_shift(b: KnownBits) -> Option<u32> {
    (b.mask & 63 == 63).then_some((b.value & 63) as u32)
}

// ---------------------------------------------------------------------------
// Combined abstract value
// ---------------------------------------------------------------------------

/// The product of all three domains for one register.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Interval bound.
    pub range: Interval,
    /// Known-bits fact.
    pub bits: KnownBits,
    /// Flow-sensitive points-to class.
    pub class: PtClass,
}

impl AbsVal {
    /// The least informative value (⊤ in every domain).
    pub fn top() -> AbsVal {
        AbsVal {
            range: Interval::TOP,
            bits: KnownBits::TOP,
            class: PtClass::Unknown,
        }
    }

    /// The exact non-address constant `v` (what zero-initialized
    /// registers start as, with `v = 0`).
    pub fn exact(v: i64) -> AbsVal {
        AbsVal {
            range: Interval::exact(v),
            bits: KnownBits::exact(v),
            class: PtClass::NotAddr,
        }
    }

    /// True if the concrete value `v` is admitted by the interval and
    /// known-bits components (the class component is provenance, not a
    /// value predicate, so it does not constrain `v`).
    pub fn admits(&self, v: i64) -> bool {
        self.range.contains(v) && self.bits.contains(v)
    }

    /// Component-wise lattice join.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            range: self.range.join(other.range),
            bits: self.bits.join(other.bits),
            class: self.class.join(other.class),
        }
    }

    /// Component-wise widening (only intervals need acceleration; the
    /// other two lattices have bounded height).
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        AbsVal {
            range: self.range.widen(next.range),
            bits: next.bits,
            class: next.class,
        }
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.range, self.bits, self.class)
    }
}

// ---------------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------------

/// Points-to transfer for a two-register operator — the same derivation
/// rules as the flow-insensitive [`crate::effects::reg_classes`].
fn class_bin(op: BinOp, a: PtClass, b: PtClass) -> PtClass {
    match op {
        BinOp::Add => match (a.is_address(), b.is_address()) {
            (false, false) => PtClass::NotAddr,
            (true, false) => a,
            (false, true) => b,
            (true, true) => PtClass::Unknown,
        },
        BinOp::Sub => match (a.is_address(), b.is_address()) {
            (false, false) => PtClass::NotAddr,
            (true, false) => a,
            _ => PtClass::Unknown,
        },
        _ => PtClass::NotAddr,
    }
}

fn class_bin_imm(op: BinOp, a: PtClass) -> PtClass {
    match op {
        BinOp::Add | BinOp::Sub => a,
        _ => PtClass::NotAddr,
    }
}

/// Applies one instruction's effect to `state` (indexed by register).
///
/// This is the engine's single-step semantics, exported so the soundness
/// harness can replay it instruction-by-instruction against the concrete
/// interpreter. Registers named by `inst` must be inside `state`.
pub fn transfer_inst(state: &mut [AbsVal], inst: &Inst) {
    match inst {
        Inst::Const { dst, value } => state[dst.index()] = AbsVal::exact(*value),
        Inst::Bin { op, dst, lhs, rhs } => {
            let (a, b) = (state[lhs.index()], state[rhs.index()]);
            state[dst.index()] = AbsVal {
                range: Interval::apply(*op, a.range, b.range),
                bits: KnownBits::apply(*op, a.bits, b.bits),
                class: class_bin(*op, a.class, b.class),
            };
        }
        Inst::BinImm { op, dst, lhs, imm } => {
            let a = state[lhs.index()];
            state[dst.index()] = AbsVal {
                range: Interval::apply(*op, a.range, Interval::exact(*imm)),
                bits: KnownBits::apply(*op, a.bits, KnownBits::exact(*imm)),
                class: class_bin_imm(*op, a.class),
            };
        }
        // Loaded values and call results may be anything, including
        // stored pointers; global addresses are layout-dependent values
        // with perfect provenance.
        Inst::Load { dst, .. } => state[dst.index()] = AbsVal::top(),
        Inst::Call { dst: Some(d), .. } => state[d.index()] = AbsVal::top(),
        Inst::GlobalAddr { dst, global } => {
            state[dst.index()] = AbsVal {
                range: Interval::TOP,
                bits: KnownBits::TOP,
                class: PtClass::Global(*global),
            }
        }
        Inst::Store { .. }
        | Inst::Report { .. }
        | Inst::Nop
        | Inst::Wait
        | Inst::Call { dst: None, .. } => {}
    }
}

/// Sizes the register table like the interpreter and the effects pass:
/// declared count, parameters, and every mentioned register.
fn table_size(func: &Function) -> usize {
    let mut n = func.reg_count().max(func.params()) as usize;
    for block in func.blocks() {
        let mut bump = |r: Reg| n = n.max(r.index() + 1);
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

/// The abstract frame on function entry: parameters are ⊤ values with
/// their parameter pedigree; everything else reads as exactly zero until
/// first written (the interpreter's zero-init rule).
fn entry_state(func: &Function, n: usize) -> Vec<AbsVal> {
    let mut st = vec![AbsVal::exact(0); n];
    for (p, slot) in st.iter_mut().enumerate().take(func.params() as usize) {
        *slot = AbsVal {
            range: Interval::TOP,
            bits: KnownBits::TOP,
            class: PtClass::Param(p as u32),
        };
    }
    st
}

/// The comparison (if any) whose result the block's conditional branch
/// tests: the *last* definition of `cond` in the block, provided it is a
/// comparison and none of its operands is redefined afterwards.
fn find_branch_compare(block: &Block, cond: Reg) -> Option<(BinOp, Reg, Option<Reg>, i64)> {
    let is_cmp = |op: BinOp| {
        matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    };
    let idx = block.insts.iter().rposition(|i| i.dst() == Some(cond))?;
    let (op, lhs, rhs, imm) = match block.insts[idx] {
        Inst::Bin { op, lhs, rhs, .. } => (op, lhs, Some(rhs), 0),
        Inst::BinImm { op, lhs, imm, .. } => (op, lhs, None, imm),
        _ => return None,
    };
    if !is_cmp(op) {
        return None;
    }
    // The state at the terminator must still hold the compared values:
    // the compare must not overwrite its own operand, and nothing after
    // it may redefine either operand.
    if lhs == cond || rhs == Some(cond) {
        return None;
    }
    let stale = block.insts[idx + 1..]
        .iter()
        .any(|inst| inst.dst().is_some_and(|d| d == lhs || Some(d) == rhs));
    (!stale).then_some((op, lhs, rhs, imm))
}

fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        _ => op,
    }
}

/// Refines `(a, b)` under the assumption `a rel b`; `None` if the
/// relation is infeasible for the given ranges.
fn refine_rel(rel: BinOp, a: Interval, b: Interval) -> Option<(Interval, Interval)> {
    match rel {
        BinOp::Lt => {
            let a2 = a.meet(Interval::new(i64::MIN, b.hi.checked_sub(1)?))?;
            let b2 = b.meet(Interval::new(a.lo.checked_add(1)?, i64::MAX))?;
            Some((a2, b2))
        }
        BinOp::Le => {
            let a2 = a.meet(Interval::new(i64::MIN, b.hi))?;
            let b2 = b.meet(Interval::new(a.lo, i64::MAX))?;
            Some((a2, b2))
        }
        BinOp::Gt => {
            let a2 = a.meet(Interval::new(b.lo.checked_add(1)?, i64::MAX))?;
            let b2 = b.meet(Interval::new(i64::MIN, a.hi.checked_sub(1)?))?;
            Some((a2, b2))
        }
        BinOp::Ge => {
            let a2 = a.meet(Interval::new(b.lo, i64::MAX))?;
            let b2 = b.meet(Interval::new(i64::MIN, a.hi))?;
            Some((a2, b2))
        }
        BinOp::Eq => {
            let m = a.meet(b)?;
            Some((m, m))
        }
        BinOp::Ne => {
            let a2 = shave(a, b)?;
            let b2 = shave(b, a)?;
            Some((a2, b2))
        }
        _ => Some((a, b)),
    }
}

/// Removes an exact `other` from the ends of `a` (all `!=` can express).
fn shave(a: Interval, other: Interval) -> Option<Interval> {
    let Some(v) = other.as_exact() else {
        return Some(a);
    };
    let mut r = a;
    if r.as_exact() == Some(v) {
        return None;
    }
    if r.lo == v {
        r.lo += 1;
    }
    if r.hi == v {
        r.hi -= 1;
    }
    Some(r)
}

/// The refined state carried along one edge of a conditional branch, or
/// `None` if the edge is infeasible under the current state.
fn refine_edge(block: &Block, state: &[AbsVal], cond: Reg, taken: bool) -> Option<Vec<AbsVal>> {
    let mut st = state.to_vec();
    let cr = st[cond.index()].range;
    if taken {
        // cond != 0.
        if cr.as_exact() == Some(0) {
            return None;
        }
        let lo = if cr.lo == 0 { 1 } else { cr.lo };
        let hi = if cr.hi == 0 { -1 } else { cr.hi };
        st[cond.index()].range = Interval::new(lo, hi);
    } else {
        // cond == 0.
        if !st[cond.index()].admits(0) {
            return None;
        }
        st[cond.index()] = AbsVal {
            class: st[cond.index()].class,
            ..AbsVal::exact(0)
        };
    }
    if let Some((op, lhs, rhs, imm)) = find_branch_compare(block, cond) {
        let rel = if taken { op } else { negate(op) };
        let a = st[lhs.index()].range;
        let b = match rhs {
            Some(r) => st[r.index()].range,
            None => Interval::exact(imm),
        };
        let (a2, b2) = refine_rel(rel, a, b)?;
        st[lhs.index()].range = a2;
        if let Some(r) = rhs {
            st[r.index()].range = b2;
        }
    }
    Some(st)
}

/// Runs `state` through block `b` and returns the per-successor out
/// states (infeasible conditional edges omitted).
fn flow_block(func: &Function, b: BlockId, mut state: Vec<AbsVal>) -> Vec<(BlockId, Vec<AbsVal>)> {
    let block = &func.blocks()[b.index()];
    for inst in &block.insts {
        transfer_inst(&mut state, inst);
    }
    match block.term {
        Term::Br(t) => vec![(t, state)],
        Term::Ret(_) => Vec::new(),
        Term::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            let mut outs = Vec::with_capacity(2);
            if let Some(st) = refine_edge(block, &state, cond, true) {
                outs.push((then_bb, st));
            }
            if let Some(st) = refine_edge(block, &state, cond, false) {
                outs.push((else_bb, st));
            }
            outs
        }
    }
}

fn join_states(a: &[AbsVal], b: &[AbsVal]) -> Vec<AbsVal> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

fn widen_states(old: &[AbsVal], next: &[AbsVal]) -> Vec<AbsVal> {
    old.iter().zip(next).map(|(x, y)| x.widen(y)).collect()
}

// ---------------------------------------------------------------------------
// Fixpoint engine
// ---------------------------------------------------------------------------

/// Widen a changing loop-header state after this many joins.
const WIDEN_DELAY: u32 = 2;
/// Widen *any* block changing this often (safety net for irreducible
/// cycles that bypass natural-loop headers).
const WIDEN_ANY_AFTER: u32 = 8;
/// Hard cap on fixpoint rounds; on overflow every reachable block is
/// forced to ⊤ (sound, maximally imprecise).
const MAX_ROUNDS: usize = 64;
/// Descending (narrowing) passes after stabilization.
const NARROW_PASSES: usize = 2;

/// Per-function analysis result: one abstract frame per block entry.
#[derive(Clone, Debug)]
pub struct FuncAbsint {
    nregs: usize,
    block_in: Vec<Option<Vec<AbsVal>>>,
}

impl FuncAbsint {
    /// Number of register slots in every recorded frame.
    pub fn reg_table_size(&self) -> usize {
        self.nregs
    }

    /// The abstract frame at entry to `b`, or `None` if the engine proved
    /// the block unreachable (no feasible path reaches it).
    pub fn block_in(&self, b: BlockId) -> Option<&[AbsVal]> {
        self.block_in.get(b.index())?.as_deref()
    }

    /// Testing hook: overwrites the recorded entry state of `b`. Used by
    /// the soundness harness to prove that a poisoned (unsound) state is
    /// caught by the concrete cross-check; never call this to "fix"
    /// analysis results.
    pub fn override_block_in(&mut self, b: BlockId, state: Vec<AbsVal>) {
        self.block_in[b.index()] = Some(state);
    }
}

/// Analyzes one function over a fresh CFG. See [`analyze_function_in`].
pub fn analyze_function(func: &Function) -> FuncAbsint {
    analyze_function_in(func, &Cfg::new(func))
}

/// Analyzes `func` to a sound fixpoint over `cfg`: round-robin over
/// reverse postorder with delayed widening at loop headers, then
/// `NARROW_PASSES` descending passes to recover post-widening bounds
/// (counted loops come back as finite intervals).
pub fn analyze_function_in(func: &Function, cfg: &Cfg) -> FuncAbsint {
    let n = table_size(func);
    let nblocks = func.block_count();
    let entry = func.entry();
    let linfo = loops::analyze_in(func, cfg);
    let mut is_header = vec![false; nblocks];
    for h in linfo.headers() {
        is_header[h.index()] = true;
    }
    let rpo = cfg.reverse_postorder().to_vec();

    let mut input: Vec<Option<Vec<AbsVal>>> = vec![None; nblocks];
    input[entry.index()] = Some(entry_state(func, n));
    let mut visits = vec![0u32; nblocks];
    let mut rounds = 0usize;
    loop {
        let mut changed = false;
        for &b in &rpo {
            let Some(st) = input[b.index()].clone() else {
                continue;
            };
            for (succ, out) in flow_block(func, b, st) {
                match &mut input[succ.index()] {
                    slot @ None => {
                        *slot = Some(out);
                        changed = true;
                    }
                    Some(cur) => {
                        let joined = join_states(cur, &out);
                        if joined != *cur {
                            visits[succ.index()] += 1;
                            let v = visits[succ.index()];
                            let accelerated = if (is_header[succ.index()] && v > WIDEN_DELAY)
                                || v > WIDEN_ANY_AFTER
                            {
                                widen_states(cur, &joined)
                            } else {
                                joined
                            };
                            if accelerated != *cur {
                                *cur = accelerated;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
        rounds += 1;
        if rounds >= MAX_ROUNDS {
            for (b, slot) in input.iter_mut().enumerate() {
                if cfg.is_reachable(BlockId(b as u32)) {
                    *slot = Some(vec![AbsVal::top(); n]);
                }
            }
            break;
        }
    }

    // Narrowing: recompute each in-state from the (sound) stabilized
    // predecessors without widening. Each pass is one application of the
    // monotone transfer to a sound state, hence itself sound.
    for _ in 0..NARROW_PASSES {
        let mut next: Vec<Option<Vec<AbsVal>>> = vec![None; nblocks];
        next[entry.index()] = Some(entry_state(func, n));
        for &b in &rpo {
            let Some(st) = input[b.index()].clone() else {
                continue;
            };
            for (succ, out) in flow_block(func, b, st) {
                match &mut next[succ.index()] {
                    slot @ None => *slot = Some(out),
                    Some(cur) => *cur = join_states(cur, &out),
                }
            }
        }
        input = next;
    }

    FuncAbsint {
        nregs: n,
        block_in: input,
    }
}

// ---------------------------------------------------------------------------
// Function-keyed fixpoint cache
// ---------------------------------------------------------------------------

pub use crate::effects::CacheStats;

std::thread_local! {
    static STATS: std::cell::Cell<CacheStats> = const { std::cell::Cell::new(CacheStats { hits: 0, misses: 0 }) };
}

fn bump_stats(hit: bool) {
    STATS.with(|s| {
        let mut v = s.get();
        if hit {
            v.hits += 1;
        } else {
            v.misses += 1;
        }
        s.set(v);
    });
}

/// This thread's cumulative [`analyze_function_cached`] hit/miss counts.
/// (Counters are thread-local so concurrent tests and worker pools don't
/// race; the cache itself is process-wide.)
pub fn cache_stats() -> CacheStats {
    STATS.with(|s| s.get())
}

/// Hash-keyed entries holding the analyzed function (compared on lookup
/// to defuse collisions) beside its fixpoint.
type AbsintCache = HashMap<u64, (Function, Arc<FuncAbsint>)>;

static CACHE: OnceLock<Mutex<AbsintCache>> = OnceLock::new();

/// Cached functions. The catalog's largest compile-time working set is
/// 114 functions (soplex, sphinx3, milc, mcf, omnetpp and libquantum);
/// the nine apps of the co-location and fleet benchmarks hold 65.
const CACHE_CAP: usize = 256;

/// [`analyze_function`] with memoization keyed by the function's hash.
///
/// The key is the function body alone, because the fixpoint reads
/// nothing else: the same function in a renamed module, or beside
/// different globals or other functions, hits. The stored function is
/// compared by value on lookup, so a hash collision degrades to a
/// recompute instead of returning another function's facts. When the
/// cache exceeds `CACHE_CAP` functions it is cleared wholesale (churn
/// here means short-lived fuzz mutants, not a working set worth LRU
/// bookkeeping).
pub fn analyze_function_cached(func: &Function) -> Arc<FuncAbsint> {
    let mut h = DefaultHasher::new();
    func.hash(&mut h);
    let key = h.finish();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let guard = cache.lock().expect("absint cache poisoned");
        if let Some((stored, fa)) = guard.get(&key) {
            if stored == func {
                bump_stats(true);
                return fa.clone();
            }
        }
    }
    bump_stats(false);
    let fa = Arc::new(analyze_function(func));
    let mut guard = cache.lock().expect("absint cache poisoned");
    if guard.len() >= CACHE_CAP && !guard.contains_key(&key) {
        guard.clear();
    }
    guard
        .entry(key)
        .or_insert_with(|| (func.clone(), fa.clone()));
    fa
}

// ---------------------------------------------------------------------------
// OSR-point certification
// ---------------------------------------------------------------------------

/// Upper bound on live registers an OSR point may carry: beyond this the
/// state-transfer cost dwarfs the benefit of mid-loop adoption.
pub const MAX_OSR_LIVE: usize = 64;

/// One live register at an OSR point, with the facts a variant compiler
/// needs to reconstruct (and sanity-check) it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OsrLiveSlot {
    /// The live register.
    pub reg: Reg,
    /// Interval bound on its value at the loop header.
    pub range: Interval,
    /// Its provenance class. [`PtClass::Unknown`] may appear here only
    /// for values the loop never dereferences (see
    /// [`OsrRefusal::UnknownAddressLive`]).
    pub class: PtClass,
}

/// Proof that a loop header is a safe on-stack-replacement anchor: the
/// live state at the back edge is enumerated, bounded, and every live
/// value has known provenance, so a recompiled variant can adopt the
/// frame mid-loop. This schema is the contract ROADMAP item 3's OSR
/// runtime builds on (see DESIGN.md §11).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OsrCertificate {
    /// Function containing the loop.
    pub func: FuncId,
    /// The certified loop-header block.
    pub header: BlockId,
    /// Loop nesting depth of the header (≥ 1).
    pub loop_depth: u32,
    /// Live-in registers at the header, ascending by register.
    pub live: Vec<OsrLiveSlot>,
}

/// Why a loop header was *not* certified. Every refusal is typed so the
/// runtime (and the lint layer) can report it without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OsrRefusal {
    /// The function's control flow is irreducible; natural-loop live
    /// ranges are not well defined, so no header in it is certified.
    Irreducible,
    /// The header is unreachable (dead loop) — nothing to anchor.
    HeaderUnreachable,
    /// A live register with unknown provenance (e.g. a loaded pointer)
    /// is dereferenced inside the loop, so the variant could not
    /// validate or relocate it. Unknown-class values that are never
    /// used as a load/store base (loop-carried accumulators of loaded
    /// data) do not refuse: they transfer bit-for-bit, since variants
    /// share the original link facts and data layout.
    UnknownAddressLive {
        /// The offending live register.
        reg: Reg,
    },
    /// More than [`MAX_OSR_LIVE`] registers are live at the header.
    TooManyLive {
        /// The live count found.
        count: usize,
    },
}

impl fmt::Display for OsrRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsrRefusal::Irreducible => write!(f, "irreducible control flow"),
            OsrRefusal::HeaderUnreachable => write!(f, "header unreachable"),
            OsrRefusal::UnknownAddressLive { reg } => {
                write!(f, "live register {reg} has unknown provenance")
            }
            OsrRefusal::TooManyLive { count } => {
                write!(f, "{count} live registers exceed the cap of {MAX_OSR_LIVE}")
            }
        }
    }
}

/// The certification outcome for one loop header. Every header found by
/// [`crate::loops`] gets exactly one decision — there are no silent
/// skips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OsrDecision {
    /// The header is a safe OSR anchor.
    Certified(OsrCertificate),
    /// The header was refused, with the typed reason.
    Refused {
        /// Function containing the header.
        func: FuncId,
        /// The refused header block.
        header: BlockId,
        /// Why it was refused.
        reason: OsrRefusal,
    },
}

impl OsrDecision {
    /// The certificate, if this decision certified its header.
    pub fn certificate(&self) -> Option<&OsrCertificate> {
        match self {
            OsrDecision::Certified(c) => Some(c),
            OsrDecision::Refused { .. } => None,
        }
    }
}

/// Certifies every loop header of `module.function(fid)`: computes the
/// live-in state at each header from [`Liveness`] and the cached abstract
/// states, and decides whether a variant could reconstruct it.
pub fn certify_function(module: &Module, fid: FuncId) -> Vec<OsrDecision> {
    let func = module.function(fid);
    let cfg = Cfg::new(func);
    let linfo = loops::analyze_in(func, &cfg);
    if linfo.headers().is_empty() {
        return Vec::new();
    }
    let dom = Dominators::compute(&cfg);
    let reducible = is_reducible(&cfg, &dom);
    let absint = analyze_function_cached(func);
    let live = Liveness::new(func);
    let sol = live.solve(&cfg);

    let refuse = |header: BlockId, reason: OsrRefusal| OsrDecision::Refused {
        func: fid,
        header,
        reason,
    };
    linfo
        .headers()
        .iter()
        .map(|&h| {
            if !cfg.is_reachable(h) {
                return refuse(h, OsrRefusal::HeaderUnreachable);
            }
            if !reducible {
                return refuse(h, OsrRefusal::Irreducible);
            }
            let Some(state) = absint.block_in(h) else {
                return refuse(h, OsrRefusal::HeaderUnreachable);
            };
            let live_regs: Vec<usize> = live.live_in(&sol, h).iter().collect();
            if live_regs.len() > MAX_OSR_LIVE {
                return refuse(
                    h,
                    OsrRefusal::TooManyLive {
                        count: live_regs.len(),
                    },
                );
            }
            // Registers dereferenced (used as a load/store base) inside
            // the loop body: only for these does unknown provenance make
            // the state non-transferable. Plain carried values copy over
            // unchanged because variants reuse the baseline's layout.
            let mut deref_in_loop = BitSet::new(absint.reg_table_size());
            for &b in &loops::natural_loop(&cfg, &dom, h) {
                for inst in &func.block(b).insts {
                    match *inst {
                        Inst::Load { base, .. } | Inst::Store { base, .. } => {
                            deref_in_loop.insert(base.index());
                        }
                        _ => {}
                    }
                }
            }
            let mut slots = Vec::with_capacity(live_regs.len());
            for r in live_regs {
                let v = state.get(r).copied().unwrap_or_else(AbsVal::top);
                if v.class == PtClass::Unknown && deref_in_loop.contains(r) {
                    return refuse(h, OsrRefusal::UnknownAddressLive { reg: Reg(r as u32) });
                }
                slots.push(OsrLiveSlot {
                    reg: Reg(r as u32),
                    range: v.range,
                    class: v.class,
                });
            }
            OsrDecision::Certified(OsrCertificate {
                func: fid,
                header: h,
                loop_depth: linfo.depth(h),
                live: slots,
            })
        })
        .collect()
}

/// [`certify_function`] over every function, in function order.
pub fn certify_module(module: &Module) -> Vec<OsrDecision> {
    (0..module.functions().len())
        .flat_map(|fi| certify_function(module, FuncId(fi as u32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Locality;

    fn sample_values() -> Vec<i64> {
        vec![
            i64::MIN,
            i64::MIN + 1,
            -64,
            -9,
            -1,
            0,
            1,
            2,
            3,
            7,
            8,
            63,
            64,
            1000,
            i64::MAX - 1,
            i64::MAX,
        ]
    }

    fn sample_intervals() -> Vec<Interval> {
        let vs = sample_values();
        let mut out = vec![Interval::TOP];
        for &a in &vs {
            for &b in &vs {
                if a <= b {
                    out.push(Interval::new(a, b));
                }
            }
        }
        out
    }

    #[test]
    fn interval_transfer_is_sound_for_every_operator() {
        let probes = sample_values();
        for op in BinOp::ALL {
            for ra in sample_intervals() {
                for rb in sample_intervals() {
                    let r = Interval::apply(op, ra, rb);
                    for &x in &probes {
                        if !ra.contains(x) {
                            continue;
                        }
                        for &y in &probes {
                            if !rb.contains(y) {
                                continue;
                            }
                            let v = op.eval(x, y);
                            assert!(
                                r.contains(v),
                                "{op:?}: {x} in {ra}, {y} in {rb}, got {v} outside {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn known_bits_transfer_is_sound_for_every_operator() {
        let probes = sample_values();
        let facts: Vec<KnownBits> = probes
            .iter()
            .map(|&v| KnownBits::exact(v))
            .chain([
                KnownBits::TOP,
                KnownBits { mask: 7, value: 0 },
                KnownBits { mask: 7, value: 4 },
                KnownBits { mask: 63, value: 3 },
                KnownBits {
                    mask: 1 << 63,
                    value: 0,
                },
                KnownBits {
                    mask: (1 << 63) | 1,
                    value: 1 << 63,
                },
            ])
            .collect();
        for op in BinOp::ALL {
            for &ka in &facts {
                for &kb in &facts {
                    let k = KnownBits::apply(op, ka, kb);
                    for &x in &probes {
                        if !ka.contains(x) {
                            continue;
                        }
                        for &y in &probes {
                            if !kb.contains(y) {
                                continue;
                            }
                            let v = op.eval(x, y);
                            assert!(
                                k.contains(v),
                                "{op:?}: {x} ({ka}), {y} ({kb}): {v} escapes {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn join_and_widen_are_sound_and_widening_hits_top() {
        let a = Interval::new(0, 5);
        let b = Interval::new(3, 9);
        assert_eq!(a.join(b), Interval::new(0, 9));
        assert_eq!(a.meet(b), Some(Interval::new(3, 5)));
        assert_eq!(Interval::new(0, 1).meet(Interval::new(5, 9)), None);
        let w = a.widen(a.join(Interval::new(0, 6)));
        assert_eq!(w, Interval::new(0, i64::MAX));
        let w2 = w.widen(w.join(Interval::new(-1, 0)));
        assert!(w2.is_top());
        let kb = KnownBits::exact(6).join(KnownBits::exact(4));
        assert!(kb.contains(6) && kb.contains(4));
        assert!(!kb.contains(3), "low bits 10x: 3 = 011 disagrees");
    }

    /// for i in 0..64 { acc += load(buf + 8*i) } — after widening and
    /// narrowing, the body must see i ∈ [0, 63] and the exit i = 64.
    #[test]
    fn counted_loop_bounds_are_recovered() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 512);
        let mut b = FunctionBuilder::new("f", 0);
        let base = b.global_addr(g);
        let acc = b.const_(0);
        let mut ivar = None;
        b.counted_loop(0, 64, 1, |b, i| {
            ivar = Some(i);
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let v = b.load(a, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        b.ret(None);
        let func = b.finish();
        let i = ivar.unwrap();
        let fa = analyze_function(&func);
        let mut body_bound = false;
        let mut exit_exact = false;
        for bi in 0..func.block_count() {
            let Some(st) = fa.block_in(BlockId(bi as u32)) else {
                continue;
            };
            let r = st[i.index()].range;
            if r == Interval::new(0, 63) {
                body_bound = true;
            }
            if r.as_exact() == Some(64) {
                exit_exact = true;
            }
        }
        assert!(body_bound, "no block saw i in [0, 63]");
        assert!(exit_exact, "no block saw i = 64");
    }

    #[test]
    fn branch_refinement_narrows_both_edges() {
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let ten = b.const_(10);
        let c = b.bin(BinOp::Lt, p, ten);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(p));
        b.switch_to(e);
        b.ret(Some(p));
        let func = b.finish();
        let fa = analyze_function(&func);
        let then_in = fa.block_in(t).expect("then reachable");
        let else_in = fa.block_in(e).expect("else reachable");
        assert_eq!(then_in[p.index()].range.hi, 9, "then: p < 10");
        assert_eq!(else_in[p.index()].range.lo, 10, "else: p >= 10");
    }

    #[test]
    fn infeasible_edges_leave_blocks_unreachable() {
        let mut b = FunctionBuilder::new("f", 0);
        let zero = b.const_(0);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(zero, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let func = b.finish();
        let fa = analyze_function(&func);
        assert!(fa.block_in(t).is_none(), "branch on 0 never takes then");
        assert!(fa.block_in(e).is_some());
    }

    #[test]
    fn classes_are_flow_sensitive_at_splits_and_joined_at_merges() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 64);
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(p, t, e);
        b.switch_to(t);
        let r1 = b.global_addr(g);
        b.br(j);
        b.switch_to(e);
        // Same register via raw construction is awkward; use a store to
        // keep both paths alive and check the global-addr path's class.
        let v = b.const_(7);
        b.store(r1, 0, v);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let func = b.finish();
        let fa = analyze_function(&func);
        let jin = fa.block_in(j).expect("join reachable");
        // r1 is &g on the then path and still zero-init (NotAddr) on the
        // else path; the join keeps the address class.
        assert_eq!(jin[r1.index()].class, PtClass::Global(g));
        let ein = fa.block_in(e).expect("else reachable");
        assert_eq!(ein[r1.index()].class, PtClass::NotAddr);
        assert_eq!(ein[r1.index()].range.as_exact(), Some(0));
    }

    #[test]
    fn divergent_loop_terminates_analysis() {
        let mut b = FunctionBuilder::new("f", 0);
        let h = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.br(h);
        let func = b.finish();
        let fa = analyze_function(&func);
        assert!(fa.block_in(h).is_some());
    }

    #[test]
    fn cache_hits_after_first_analysis() {
        // The function name is unique to this test, so the first query
        // must miss whatever else the process analyzed.
        let mut b = FunctionBuilder::new("cache-test-unique-fn", 1);
        let p = b.param(0);
        let d = b.add_imm(p, 3);
        b.ret(Some(d));
        let f = b.finish();
        let before = cache_stats();
        let a1 = analyze_function_cached(&f);
        let a2 = analyze_function_cached(&f);
        let after = cache_stats();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn cache_key_is_the_function_not_its_module() {
        // Two modules around the same function: they differ only in
        // their names and in another global's initializer, neither of
        // which the fixpoint reads.
        let module = |name: &str, words: Vec<i64>| {
            let mut m = Module::new(name);
            let g = m.add_global("buf", 512);
            m.add_global_full(crate::module::Global::with_words("table", words));
            let mut b = FunctionBuilder::new("absint-key-probe", 0);
            let base = b.global_addr(g);
            let acc = b.const_(0);
            b.counted_loop(0, 64, 1, |b, i| {
                let off = b.shl_imm(i, 3);
                let a = b.add(base, off);
                let v = b.load(a, 0, Locality::Normal);
                b.add_into(acc, acc, v);
            });
            b.ret(Some(acc));
            let f = m.add_function(b.finish());
            m.set_entry(f);
            (m, f)
        };
        let (a, f) = module("key-a", vec![1, 2, 3]);
        let (b, _) = module("key-b", vec![4, 5, 6]);
        assert_ne!(a, b);
        let first = analyze_function_cached(a.function(f));
        let before = cache_stats();
        let second = analyze_function_cached(b.function(f));
        let after = cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 0),
            "the same function in another module must hit"
        );
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn counted_loop_header_is_certified_with_bounded_live_state() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 512);
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.global_addr(g);
        let acc = b.const_(0);
        b.counted_loop(0, 64, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let v = b.load(a, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        b.store(base, 0, acc);
        b.ret(None);
        let fid = m.add_function(b.finish());
        m.set_entry(fid);
        let decisions = certify_module(&m);
        assert_eq!(decisions.len(), 1, "one loop header");
        let cert = decisions[0].certificate().expect("certified");
        assert_eq!(cert.func, fid);
        assert_eq!(cert.loop_depth, 1);
        assert!(!cert.live.is_empty(), "i and acc are live");
        assert!(cert.live.windows(2).all(|w| w[0].reg < w[1].reg));
        // The accumulator joined with loaded values, so its class is
        // Unknown — allowed in a certificate because the loop never
        // dereferences it. The global base pointer keeps its class.
        assert!(cert.live.iter().any(|s| s.class == PtClass::Unknown));
        assert!(cert
            .live
            .iter()
            .any(|s| matches!(s.class, PtClass::Global(_))));
        // The induction variable's range is finite at the header.
        assert!(cert
            .live
            .iter()
            .any(|s| s.range.lo >= 0 && s.range.hi <= 64 && !s.range.is_top()));
    }

    #[test]
    fn loop_carrying_a_loaded_pointer_is_refused_typed() {
        let mut m = Module::new("m");
        let g = m.add_global("head", 64);
        let mut b = FunctionBuilder::new("chase", 0);
        let base = b.global_addr(g);
        let cur = b.load(base, 0, Locality::Normal);
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.cond_br(cur, body, exit);
        b.switch_to(body);
        // cur = *cur — the loop-carried value is a loaded pointer.
        let next = b.load(cur, 0, Locality::Normal);
        b.bin_imm_into(BinOp::Add, cur, next, 0);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        let fid = m.add_function(b.finish());
        m.set_entry(fid);
        let decisions = certify_function(&m, fid);
        assert_eq!(decisions.len(), 1);
        match &decisions[0] {
            OsrDecision::Refused { reason, header, .. } => {
                assert_eq!(*header, h);
                assert!(matches!(reason, OsrRefusal::UnknownAddressLive { .. }));
            }
            OsrDecision::Certified(c) => panic!("expected refusal, got {c:?}"),
        }
    }

    #[test]
    fn transfer_matches_interpreter_on_straight_line_code() {
        // A little differential check: run a straight-line block both
        // concretely and abstractly from an exact state.
        let insts = [
            Inst::Const {
                dst: Reg(0),
                value: 100,
            },
            Inst::BinImm {
                op: BinOp::Mul,
                dst: Reg(1),
                lhs: Reg(0),
                imm: 3,
            },
            Inst::Bin {
                op: BinOp::Xor,
                dst: Reg(2),
                lhs: Reg(1),
                rhs: Reg(0),
            },
            Inst::BinImm {
                op: BinOp::Shr,
                dst: Reg(3),
                lhs: Reg(2),
                imm: 2,
            },
        ];
        let mut concrete = [0i64; 4];
        let mut abstr = [AbsVal::exact(0); 4];
        for inst in &insts {
            match *inst {
                Inst::Const { dst, value } => concrete[dst.index()] = value,
                Inst::BinImm { op, dst, lhs, imm } => {
                    concrete[dst.index()] = op.eval(concrete[lhs.index()], imm)
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    concrete[dst.index()] = op.eval(concrete[lhs.index()], concrete[rhs.index()])
                }
                _ => unreachable!(),
            }
            transfer_inst(&mut abstr, inst);
            for (c, a) in concrete.iter().zip(&abstr) {
                assert!(a.admits(*c), "{c} escapes {a}");
            }
        }
    }

    #[test]
    fn displays_are_stable() {
        assert_eq!(Interval::TOP.to_string(), "[-inf, +inf]");
        assert_eq!(Interval::exact(7).to_string(), "[7]");
        assert_eq!(Interval::new(0, 9).to_string(), "[0, 9]");
        assert_eq!(KnownBits::TOP.to_string(), "bits:?");
        assert!(!OsrRefusal::Irreducible.to_string().is_empty());
        assert!(!OsrRefusal::TooManyLive { count: 99 }.to_string().is_empty());
    }

    #[test]
    fn unreachable_terminator_blocks_have_no_state() {
        // A block with only a Ret and no predecessors.
        let mut b = FunctionBuilder::new("f", 0);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let func = b.finish();
        let fa = analyze_function(&func);
        assert!(fa.block_in(func.entry()).is_some());
        assert!(fa.block_in(dead).is_none());
    }
}
