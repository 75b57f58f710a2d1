//! Instruction and terminator definitions.

use crate::ids::{BlockId, FuncId, GlobalId, Reg};

/// Integer binary operators.
///
/// Comparison operators produce `1` for true and `0` for false.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero yields zero (the virtual ISA has
    /// no traps).
    Div,
    /// Signed remainder; remainder by zero yields zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 0..63).
    Shl,
    /// Arithmetic shift right (shift amount masked to 0..63).
    Shr,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl BinOp {
    /// Evaluates the operator on two 64-bit values with the ISA's wrapping
    /// and no-trap semantics.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
        }
    }

    /// All operators, in encoding order.
    pub const ALL: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }
}

/// Temporal-locality hint attached to a load.
///
/// This is PIR's analogue of x86's `prefetchnta` / ARMv8's non-temporal
/// hints: a [`Locality::NonTemporal`] load tells the memory hierarchy that
/// the line is unlikely to be reused, so it should not displace useful data
/// in the shared last-level cache. PC3D toggles this bit online.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// Ordinary load; fills all cache levels with MRU insertion.
    #[default]
    Normal,
    /// Non-temporal load; bypasses (or inserts at LRU in) the shared LLC,
    /// per the machine's configured non-temporal policy.
    NonTemporal,
}

impl Locality {
    /// Returns true if this is the non-temporal hint.
    pub fn is_non_temporal(self) -> bool {
        matches!(self, Locality::NonTemporal)
    }
}

/// A non-terminator PIR instruction.
#[allow(missing_docs)] // operand/payload fields are standard roles
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = value`
    Const { dst: Reg, value: i64 },
    /// `dst = lhs <op> rhs`
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// `dst = lhs <op> imm`
    BinImm {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        imm: i64,
    },
    /// `dst = mem[base + offset]` (8-byte load) with a temporal-locality
    /// hint. The `(base, offset)` pair addresses the process data segment.
    Load {
        dst: Reg,
        base: Reg,
        offset: i64,
        locality: Locality,
    },
    /// `mem[base + offset] = src` (8-byte store).
    Store { base: Reg, offset: i64, src: Reg },
    /// `dst = &global` — materializes the runtime address of a global.
    GlobalAddr { dst: Reg, global: GlobalId },
    /// Direct call. Arguments are copied into the callee's registers
    /// `r0..rN`; on return the callee's `r0` is copied into `dst` if
    /// present. In a protean binary this edge may be *virtualized* (routed
    /// through the Edge Virtualization Table).
    Call {
        dst: Option<Reg>,
        callee: FuncId,
        args: Vec<Reg>,
    },
    /// Publishes an application-level metric sample (e.g. queries served)
    /// on a small integer channel; the simulated OS accumulates these.
    /// Models the paper's "application-specific reporting interfaces".
    Report { channel: u8, src: Reg },
    /// No operation (used by transformation passes as a tombstone).
    Nop,
    /// Yield to the OS until new work arrives (servers park here between
    /// requests); lowers to the virtual ISA's `wait`.
    Wait,
}

impl Inst {
    /// Returns true for load instructions (the sites PC3D's bit vectors
    /// range over).
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::GlobalAddr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Report { .. } | Inst::Nop | Inst::Wait => None,
        }
    }

    /// Calls `f` on every register this instruction *reads*, in operand
    /// order. The single traversal every analysis shares.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::BinImm { lhs, .. } => f(*lhs),
            Inst::Load { base, .. } => f(*base),
            Inst::Store { base, src, .. } => {
                f(*base);
                f(*src);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Inst::Report { src, .. } => f(*src),
            Inst::Const { .. } | Inst::GlobalAddr { .. } | Inst::Nop | Inst::Wait => {}
        }
    }

    /// True if the instruction has no side effect beyond writing `dst`:
    /// removing it is invisible to memory, the cache hierarchy, other
    /// functions, and the OS. Loads are *not* pure here — their cache
    /// effects are exactly what PC3D's transformations manipulate.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Inst::Const { .. } | Inst::Bin { .. } | Inst::BinImm { .. } | Inst::GlobalAddr { .. }
        )
    }
}

/// A basic-block terminator.
#[allow(missing_docs)] // operand/payload fields are standard roles
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch: to `then_bb` if `cond != 0`, else to `else_bb`.
    CondBr {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return with optional value (copied to the caller).
    Ret(Option<Reg>),
}

impl Term {
    /// Successor blocks of this terminator, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br(t) => vec![*t],
            Term::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Term::Ret(_) => Vec::new(),
        }
    }

    /// Calls `f` on every register this terminator reads.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Term::CondBr { cond, .. } => f(*cond),
            Term::Ret(Some(r)) => f(*r),
            Term::Br(_) | Term::Ret(None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(-4, 3), -12);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Rem.eval(7, 2), 1);
        assert_eq!(BinOp::Shl.eval(1, 4), 16);
        assert_eq!(BinOp::Shr.eval(-16, 2), -4);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
    }

    #[test]
    fn binop_no_trap_semantics() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Rem.eval(5, 0), 0);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        // Shift amounts are masked rather than UB.
        assert_eq!(BinOp::Shl.eval(1, 64), 1);
    }

    #[test]
    fn binop_div_min_by_minus_one_wraps() {
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(BinOp::Rem.eval(i64::MIN, -1), 0);
    }

    #[test]
    fn locality_default_is_normal() {
        assert_eq!(Locality::default(), Locality::Normal);
        assert!(!Locality::Normal.is_non_temporal());
        assert!(Locality::NonTemporal.is_non_temporal());
    }

    #[test]
    fn term_successors() {
        assert_eq!(Term::Br(BlockId(2)).successors(), vec![BlockId(2)]);
        let c = Term::CondBr {
            cond: Reg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(c.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Term::Ret(None).successors().is_empty());
    }

    #[test]
    fn inst_dst_and_is_load() {
        let load = Inst::Load {
            dst: Reg(4),
            base: Reg(1),
            offset: 8,
            locality: Locality::Normal,
        };
        assert!(load.is_load());
        assert_eq!(load.dst(), Some(Reg(4)));
        let store = Inst::Store {
            base: Reg(1),
            offset: 0,
            src: Reg(2),
        };
        assert!(!store.is_load());
        assert_eq!(store.dst(), None);
        let call = Inst::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![],
        };
        assert_eq!(call.dst(), None);
    }

    #[test]
    fn all_binops_have_unique_mnemonics() {
        let mut seen = std::collections::HashSet::new();
        for op in BinOp::ALL {
            assert!(
                seen.insert(op.mnemonic()),
                "duplicate mnemonic {}",
                op.mnemonic()
            );
        }
        assert_eq!(seen.len(), 16);
    }
}
