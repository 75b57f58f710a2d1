//! Ergonomic construction of PIR functions.
//!
//! [`FunctionBuilder`] keeps a current-block cursor and provides
//! structured-loop helpers; the `workloads` crate uses these to generate
//! benchmark programs with controlled loop-nest shapes.

use crate::ids::{BlockId, FuncId, GlobalId, Reg};
use crate::inst::{BinOp, Inst, Locality, Term};
use crate::module::{Block, Function};

#[derive(Clone, Debug)]
struct PendingBlock {
    insts: Vec<Inst>,
    term: Option<Term>,
}

/// Builds a [`Function`] incrementally.
///
/// The builder starts positioned in the entry block (`bb0`). Instructions
/// are appended to the current block; control-flow helpers create and
/// switch between blocks.
///
/// # Example
///
/// ```
/// use pir::{FunctionBuilder, Locality};
///
/// let mut b = FunctionBuilder::new("copy", 2); // r0 = src, r1 = dst
/// let src = b.param(0);
/// let dst = b.param(1);
/// b.counted_loop(0, 64, 1, |b, i| {
///     let off = b.shl_imm(i, 3);
///     let sa = b.add(src, off);
///     let da = b.add(dst, off);
///     let v = b.load(sa, 0, Locality::Normal);
///     b.store(da, 0, v);
/// });
/// b.ret(None);
/// let f = b.finish();
/// assert_eq!(f.load_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FunctionBuilder {
    name: String,
    params: u32,
    next_reg: u32,
    blocks: Vec<PendingBlock>,
    cur: usize,
}

impl FunctionBuilder {
    /// Starts building a function with `params` parameters (which occupy
    /// registers `r0..r{params}`).
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            params,
            next_reg: params,
            blocks: vec![PendingBlock {
                insts: Vec::new(),
                term: None,
            }],
            cur: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= params`.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.params, "parameter index {i} out of range");
        Reg(i)
    }

    /// Appends a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        assert!(
            self.blocks[self.cur].term.is_none(),
            "appending to already-terminated block bb{}",
            self.cur
        );
        self.blocks[self.cur].insts.push(inst);
    }

    /// `dst = value` into a fresh register.
    pub fn const_(&mut self, value: i64) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// `fresh = lhs <op> rhs`.
    pub fn bin(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// `dst = lhs <op> rhs` into an existing register.
    pub fn bin_into(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) {
        self.push(Inst::Bin { op, dst, lhs, rhs });
    }

    /// `fresh = lhs <op> imm`.
    pub fn bin_imm(&mut self, op: BinOp, lhs: Reg, imm: i64) -> Reg {
        let dst = self.fresh();
        self.push(Inst::BinImm { op, dst, lhs, imm });
        dst
    }

    /// `dst = lhs <op> imm` into an existing register.
    pub fn bin_imm_into(&mut self, op: BinOp, dst: Reg, lhs: Reg, imm: i64) {
        self.push(Inst::BinImm { op, dst, lhs, imm });
    }

    /// `fresh = a + b`.
    pub fn add(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Add, a, b)
    }

    /// `dst = a + b` into an existing register.
    pub fn add_into(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.bin_into(BinOp::Add, dst, a, b)
    }

    /// `fresh = a + imm`.
    pub fn add_imm(&mut self, a: Reg, imm: i64) -> Reg {
        self.bin_imm(BinOp::Add, a, imm)
    }

    /// `fresh = a * b`.
    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }

    /// `fresh = a * imm`.
    pub fn mul_imm(&mut self, a: Reg, imm: i64) -> Reg {
        self.bin_imm(BinOp::Mul, a, imm)
    }

    /// `fresh = a << imm`.
    pub fn shl_imm(&mut self, a: Reg, imm: i64) -> Reg {
        self.bin_imm(BinOp::Shl, a, imm)
    }

    /// `fresh = a & imm`.
    pub fn and_imm(&mut self, a: Reg, imm: i64) -> Reg {
        self.bin_imm(BinOp::And, a, imm)
    }

    /// `fresh = a % imm`.
    pub fn rem_imm(&mut self, a: Reg, imm: i64) -> Reg {
        self.bin_imm(BinOp::Rem, a, imm)
    }

    /// `fresh = mem[base + offset]`.
    pub fn load(&mut self, base: Reg, offset: i64, locality: Locality) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Load {
            dst,
            base,
            offset,
            locality,
        });
        dst
    }

    /// `dst = mem[base + offset]` into an existing register.
    pub fn load_into(&mut self, dst: Reg, base: Reg, offset: i64, locality: Locality) {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            locality,
        });
    }

    /// `mem[base + offset] = src`.
    pub fn store(&mut self, base: Reg, offset: i64, src: Reg) {
        self.push(Inst::Store { base, offset, src });
    }

    /// `fresh = &global`.
    pub fn global_addr(&mut self, global: GlobalId) -> Reg {
        let dst = self.fresh();
        self.push(Inst::GlobalAddr { dst, global });
        dst
    }

    /// Calls `callee`, capturing the return value in a fresh register.
    pub fn call(&mut self, callee: FuncId, args: &[Reg]) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Call {
            dst: Some(dst),
            callee,
            args: args.to_vec(),
        });
        dst
    }

    /// Calls `callee`, discarding any return value.
    pub fn call_void(&mut self, callee: FuncId, args: &[Reg]) {
        self.push(Inst::Call {
            dst: None,
            callee,
            args: args.to_vec(),
        });
    }

    /// Publishes `src` on application-metric `channel`.
    pub fn report(&mut self, channel: u8, src: Reg) {
        self.push(Inst::Report { channel, src });
    }

    /// Parks the program until the OS delivers new work.
    pub fn wait(&mut self) {
        self.push(Inst::Wait);
    }

    /// Creates a new (unterminated, empty) block without switching to it.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(PendingBlock {
            insts: Vec::new(),
            term: None,
        });
        id
    }

    /// Moves the cursor to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.index() < self.blocks.len(), "no such block {block}");
        self.cur = block.index();
    }

    fn terminate(&mut self, term: Term) {
        assert!(
            self.blocks[self.cur].term.is_none(),
            "block bb{} already terminated",
            self.cur
        );
        self.blocks[self.cur].term = Some(term);
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Term::Br(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Reg, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Term::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Reg>) {
        self.terminate(Term::Ret(value));
    }

    /// Emits a counted loop `for (i = start; i < end; i += step) body`,
    /// with constant bounds. Leaves the cursor in the loop's exit block.
    /// Returns the induction-variable register (which holds `>= end` after
    /// the loop).
    pub fn counted_loop(
        &mut self,
        start: i64,
        end: i64,
        step: i64,
        body: impl FnOnce(&mut Self, Reg),
    ) -> Reg {
        let end_reg = self.const_(end);
        self.counted_loop_dyn_end(start, end_reg, step, body)
    }

    /// Like [`counted_loop`](Self::counted_loop) but with a register-valued
    /// upper bound, enabling loops whose trip count is computed at run time.
    pub fn counted_loop_dyn_end(
        &mut self,
        start: i64,
        end: Reg,
        step: i64,
        body: impl FnOnce(&mut Self, Reg),
    ) -> Reg {
        let i = self.const_(start);
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.br(header);

        self.switch_to(header);
        let cond = self.bin(BinOp::Lt, i, end);
        self.cond_br(cond, body_bb, exit);

        self.switch_to(body_bb);
        body(self, i);
        self.bin_imm_into(BinOp::Add, i, i, step);
        self.br(header);

        self.switch_to(exit);
        i
    }

    /// Emits a counted loop carrying an accumulator register; the body may
    /// freely update `acc` (e.g. via [`add_into`](Self::add_into)). Returns
    /// `acc` for convenience.
    pub fn accumulate_loop(
        &mut self,
        start: i64,
        end: i64,
        step: i64,
        acc: Reg,
        body: impl FnOnce(&mut Self, Reg, Reg),
    ) -> Reg {
        self.counted_loop(start, end, step, |b, i| body(b, i, acc));
        acc
    }

    /// Number of blocks created so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Finalizes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> Function {
        let blocks: Vec<Block> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| Block {
                insts: b.insts,
                term: b
                    .term
                    .unwrap_or_else(|| panic!("block bb{i} lacks a terminator")),
            })
            .collect();
        Function::from_parts(self.name, self.params, self.next_reg, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let c = b.const_(10);
        let s = b.add(p, c);
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.block_count(), 1);
        assert_eq!(f.params(), 1);
        assert_eq!(f.reg_count(), 3);
        assert!(verify_function(&f, 1, 0).is_ok());
    }

    #[test]
    fn counted_loop_shape() {
        let mut b = FunctionBuilder::new("loop", 0);
        b.counted_loop(0, 10, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        b.ret(None);
        let f = b.finish();
        // entry, header, body, exit
        assert_eq!(f.block_count(), 4);
        assert!(verify_function(&f, 1, 0).is_ok());
    }

    #[test]
    fn nested_loops_build() {
        let mut b = FunctionBuilder::new("nest", 0);
        b.counted_loop(0, 4, 1, |b, _i| {
            b.counted_loop(0, 4, 1, |b, j| {
                let _ = b.mul_imm(j, 3);
            });
        });
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.block_count(), 7);
        assert!(verify_function(&f, 1, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn finish_requires_terminators() {
        let b = FunctionBuilder::new("bad", 0);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("bad", 0);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn param_bounds_checked() {
        let b = FunctionBuilder::new("f", 1);
        let _ = b.param(1);
    }

    #[test]
    fn accumulate_loop_returns_acc() {
        let mut b = FunctionBuilder::new("acc", 0);
        let a0 = b.const_(0);
        let acc = b.accumulate_loop(0, 8, 1, a0, |b, i, acc| {
            b.add_into(acc, acc, i);
        });
        assert_eq!(acc, a0);
        b.ret(Some(acc));
        let f = b.finish();
        assert!(verify_function(&f, 1, 0).is_ok());
    }
}
