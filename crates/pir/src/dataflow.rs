//! Control-flow graph and iterative dataflow analysis.
//!
//! The protean compiler and runtime both need cheap, flow-sensitive facts
//! about PIR functions: which blocks are reachable, which registers are
//! live, and which reads can observe a register that was never written
//! (PIR registers read as zero until first written, so such a read is
//! legal, if suspicious). This module provides
//!
//! * [`Cfg`] — successor/predecessor lists plus reverse postorder,
//! * [`Dominators`] — Cooper–Harvey–Kennedy immediate dominators,
//! * a generic worklist engine ([`solve`]) over bit-vector lattices,
//! * two ready-made instances: backward, union [`Liveness`], and the
//!   forward, intersecting definite-assignment walk [`maybe_undef_uses`].
//!
//! The engine is deliberately small: analyses describe themselves as a
//! domain size, a direction, a confluence operator, and per-block gen/kill
//! style transfer functions; the solver iterates to a fixed point in
//! (reverse) postorder.

use crate::ids::{BlockId, Reg};
use crate::module::Function;

// ---------------------------------------------------------------------------
// Control-flow graph
// ---------------------------------------------------------------------------

/// Successor/predecessor lists for one function, with reverse postorder
/// over the blocks reachable from the entry.
#[derive(Clone, Debug)]
pub struct Cfg {
    succ: Vec<Vec<BlockId>>,
    pred: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    reachable: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.block_count();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (i, block) in func.blocks().iter().enumerate() {
            for s in block.term.successors() {
                succ[i].push(s);
                pred[s.index()].push(BlockId(i as u32));
            }
        }
        let mut reachable = vec![false; n];
        let mut rpo = Vec::with_capacity(n);
        if n > 0 {
            // Iterative DFS with an explicit (node, next-child) stack.
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            reachable[0] = true;
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if *child < succ[node].len() {
                    let next = succ[node][*child].index();
                    *child += 1;
                    if !reachable[next] {
                        reachable[next] = true;
                        stack.push((next, 0));
                    }
                } else {
                    rpo.push(BlockId(node as u32));
                    stack.pop();
                }
            }
            rpo.reverse();
        }
        Cfg {
            succ,
            pred,
            rpo,
            reachable,
        }
    }

    /// Number of blocks (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.succ.len()
    }

    /// Successors of `block`, in branch order.
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        &self.succ[block.index()]
    }

    /// Predecessors of `block`, in discovery order.
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        &self.pred[block.index()]
    }

    /// Reverse postorder over blocks reachable from the entry.
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// True if `block` is reachable from the entry block.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.reachable.get(block.index()).copied().unwrap_or(false)
    }

    /// All unreachable blocks, in id order.
    pub fn unreachable_blocks(&self) -> Vec<BlockId> {
        (0..self.block_count())
            .filter(|&b| !self.reachable[b])
            .map(|b| BlockId(b as u32))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Dominators (Cooper–Harvey–Kennedy)
// ---------------------------------------------------------------------------

/// The dominator tree of a function's CFG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dominators {
    idom: Vec<usize>,
}

impl Dominators {
    /// Computes the dominator tree from an already-built CFG.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.block_count();
        if n == 0 {
            return Dominators { idom: Vec::new() };
        }
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in cfg.rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut idom = vec![usize::MAX; n];
        idom[0] = 0;
        let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a];
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let b = b.index();
                let mut new_idom = usize::MAX;
                for &p in &cfg.pred[b] {
                    let p = p.index();
                    if idom[p] == usize::MAX {
                        continue; // predecessor not yet processed / unreachable
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, p, new_idom)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `block`, or `None` for the entry block
    /// and unreachable blocks.
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        let b = block.index();
        if b == 0 || self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            None
        } else {
            Some(BlockId(self.idom[b] as u32))
        }
    }

    /// True if `a` dominates `b` (reflexively). Unreachable blocks neither
    /// dominate nor are dominated.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, mut b) = (a.index(), b.index());
        if self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            return false;
        }
        loop {
            if a == b {
                return true;
            }
            if b == 0 {
                return false;
            }
            b = self.idom[b];
        }
    }

    /// True if `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.idom.get(block.index()).copied().unwrap_or(usize::MAX) != usize::MAX
    }
}

/// Computes the dominator tree for a function.
pub fn dominators(func: &Function) -> Dominators {
    Dominators::compute(&Cfg::new(func))
}

/// True if the reachable CFG is reducible: every retreating edge (an edge
/// `u → v` where `v` precedes `u` in reverse postorder) is a dominator
/// back edge (`v` dominates `u`). This is exact for DFS-derived
/// orderings, and it is what the equivalence checker gates on — cut-point
/// bisimulation only terminates soundly when every cycle has a unique
/// header, so irreducible functions degrade to `Unknown`.
pub fn is_reducible(cfg: &Cfg, doms: &Dominators) -> bool {
    let n = cfg.block_count();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in cfg.reverse_postorder().iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    for &u in cfg.reverse_postorder() {
        for &v in cfg.succs(u) {
            if !cfg.is_reachable(v) {
                continue;
            }
            if rpo_index[v.index()] <= rpo_index[u.index()] && !doms.dominates(v, u) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Bit sets
// ---------------------------------------------------------------------------

/// A fixed-capacity dense bit set, the lattice element of every analysis
/// the worklist engine runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set (all `len` bits set).
    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet::new(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            *w = !0u64;
            let hi = (i + 1) * 64;
            if hi > len {
                *w &= (!0u64) >> (hi - len).min(63);
                if hi - len >= 64 {
                    *w = 0;
                }
            }
        }
        s
    }

    /// Number of addressable bits.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Sets bit `i`; returns true if it was previously clear.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b != 0;
        self.words[w] |= b;
        !was
    }

    /// Clears bit `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True if bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self &= other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self &= !other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Generic worklist engine
// ---------------------------------------------------------------------------

/// Direction a dataflow analysis propagates facts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (e.g. definite
    /// assignment).
    Forward,
    /// Facts flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// Confluence operator joining facts at control-flow merges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Confluence {
    /// May-analysis: a fact holds if it holds on *any* incoming path.
    Union,
    /// Must-analysis: a fact holds only if it holds on *every* incoming
    /// path.
    Intersect,
}

/// A dataflow problem over bit-vector facts with gen/kill block transfer.
///
/// Implementors describe the lattice ([`domain_size`](Analysis::domain_size)
/// bits), the [`Direction`], the [`Confluence`] operator, the boundary fact
/// (entry block for forward analyses, exit blocks for backward ones), and a
/// per-block transfer function; [`solve`] does the rest.
pub trait Analysis {
    /// Number of facts (bit positions) in the lattice.
    fn domain_size(&self) -> usize;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// Confluence operator at merges.
    fn confluence(&self) -> Confluence;

    /// The fact set at the boundary: the entry block's input for forward
    /// analyses, each exit block's output for backward analyses. Defaults
    /// to the empty set.
    fn boundary(&self) -> BitSet {
        BitSet::new(self.domain_size())
    }

    /// The initial interior fact. Must-analyses want the full set (top);
    /// may-analyses the empty set. Defaults by confluence operator.
    fn initial(&self) -> BitSet {
        match self.confluence() {
            Confluence::Union => BitSet::new(self.domain_size()),
            Confluence::Intersect => BitSet::full(self.domain_size()),
        }
    }

    /// Applies the block's transfer function to `fact` in place.
    fn transfer(&self, block: BlockId, fact: &mut BitSet);
}

/// Per-block fixed-point solution of a dataflow [`Analysis`].
///
/// Regardless of direction, `ins[b]` is the fact at the block's *textual
/// entry* (before the first instruction) and `outs[b]` at its textual
/// exit (after the terminator): for liveness `ins[b]` is live-in and
/// `outs[b]` live-out.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Fact at each block's textual entry.
    pub ins: Vec<BitSet>,
    /// Fact at each block's textual exit.
    pub outs: Vec<BitSet>,
}

/// Runs `analysis` to a fixed point over `cfg` with a worklist seeded in
/// (reverse) postorder. Unreachable blocks keep the initial fact.
pub fn solve(cfg: &Cfg, analysis: &impl Analysis) -> Solution {
    let n = cfg.block_count();
    let mut ins: Vec<BitSet> = (0..n).map(|_| analysis.initial()).collect();
    let mut outs: Vec<BitSet> = (0..n).map(|_| analysis.initial()).collect();
    if n == 0 {
        return Solution { ins, outs };
    }
    let forward = analysis.direction() == Direction::Forward;

    // Iteration order: RPO for forward analyses, post-order for backward.
    let mut order: Vec<BlockId> = cfg.reverse_postorder().to_vec();
    if !forward {
        order.reverse();
    }

    let is_boundary = |b: BlockId| {
        if forward {
            b.index() == 0
        } else {
            cfg.succs(b).is_empty()
        }
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            // Join incoming facts.
            let mut input = if is_boundary(b) {
                analysis.boundary()
            } else {
                let sources = if forward { cfg.preds(b) } else { cfg.succs(b) };
                let mut acc: Option<BitSet> = None;
                for &s in sources {
                    // In a must-analysis, joining in an unvisited
                    // back-edge source's `initial()` (top) is sound.
                    let src = if forward {
                        &outs[s.index()]
                    } else {
                        &ins[s.index()]
                    };
                    match &mut acc {
                        None => acc = Some(src.clone()),
                        Some(a) => {
                            match analysis.confluence() {
                                Confluence::Union => a.union_with(src),
                                Confluence::Intersect => a.intersect_with(src),
                            };
                        }
                    }
                }
                acc.unwrap_or_else(|| analysis.initial())
            };

            let (in_slot, out_slot) = if forward {
                (&mut ins, &mut outs)
            } else {
                (&mut outs, &mut ins)
            };
            if in_slot[b.index()] != input {
                in_slot[b.index()] = input.clone();
            }
            analysis.transfer(b, &mut input);
            if out_slot[b.index()] != input {
                out_slot[b.index()] = input;
                changed = true;
            }
        }
    }
    Solution { ins, outs }
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// Backward register-liveness analysis. Domain bit `i` is register `ri`.
pub struct Liveness {
    regs: usize,
    /// use[b]: registers read before any write in b (including the
    /// terminator, conservatively).
    uses: Vec<BitSet>,
    /// def[b]: registers written anywhere in b.
    defs: Vec<BitSet>,
}

impl Liveness {
    /// Precomputes per-block use/def sets for `func`.
    pub fn new(func: &Function) -> Liveness {
        let regs = crate::MAX_REGS as usize;
        let n = func.block_count();
        let mut uses = vec![BitSet::new(regs); n];
        let mut defs = vec![BitSet::new(regs); n];
        for (bi, block) in func.blocks().iter().enumerate() {
            for inst in &block.insts {
                inst.for_each_use(|r| {
                    if !defs[bi].contains(r.index()) {
                        uses[bi].insert(r.index());
                    }
                });
                if let Some(d) = inst.dst() {
                    defs[bi].insert(d.index());
                }
            }
            block.term.for_each_use(|r| {
                if !defs[bi].contains(r.index()) {
                    uses[bi].insert(r.index());
                }
            });
        }
        Liveness { regs, uses, defs }
    }

    /// Solves the analysis over `cfg`.
    pub fn solve(&self, cfg: &Cfg) -> Solution {
        solve(cfg, self)
    }

    /// Live-in set of `block`.
    pub fn live_in<'s>(&self, solution: &'s Solution, block: BlockId) -> &'s BitSet {
        &solution.ins[block.index()]
    }

    /// Live-out set of `block`.
    pub fn live_out<'s>(&self, solution: &'s Solution, block: BlockId) -> &'s BitSet {
        &solution.outs[block.index()]
    }
}

impl Analysis for Liveness {
    fn domain_size(&self) -> usize {
        self.regs
    }

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn confluence(&self) -> Confluence {
        Confluence::Union
    }

    fn transfer(&self, block: BlockId, fact: &mut BitSet) {
        // live-in = use ∪ (live-out − def)
        fact.subtract(&self.defs[block.index()]);
        fact.union_with(&self.uses[block.index()]);
    }
}

// ---------------------------------------------------------------------------
// Definite assignment (use-before-def)
// ---------------------------------------------------------------------------

/// Location of one read of a register that is not definitely assigned on
/// every path from the entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UndefUse {
    /// Block containing the read.
    pub block: BlockId,
    /// Instruction index within the block, or `None` for the terminator.
    pub inst: Option<usize>,
    /// The register read.
    pub reg: Reg,
}

/// Forward must-analysis over "definitely assigned" registers.
struct DefiniteAssign {
    regs: usize,
    params: u32,
    defs: Vec<BitSet>,
}

impl Analysis for DefiniteAssign {
    fn domain_size(&self) -> usize {
        self.regs
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn confluence(&self) -> Confluence {
        Confluence::Intersect
    }

    fn boundary(&self) -> BitSet {
        let mut s = BitSet::new(self.regs);
        for p in 0..self.params as usize {
            s.insert(p);
        }
        s
    }

    fn transfer(&self, block: BlockId, fact: &mut BitSet) {
        fact.union_with(&self.defs[block.index()]);
    }
}

/// Finds every read of a register that is not definitely assigned on all
/// paths from the entry (function parameters count as assigned).
///
/// PIR registers read as zero until first written, so such a read is legal
/// — but it almost always indicates a builder bug or a corrupted
/// transformation, which is why the compiler's invariant checks and the
/// safety gate refuse a transformation that introduces one. Only reachable
/// blocks are scanned.
pub fn maybe_undef_uses(func: &Function) -> Vec<UndefUse> {
    let cfg = Cfg::new(func);
    let regs = crate::MAX_REGS as usize;
    let n = func.block_count();
    let mut defs = vec![BitSet::new(regs); n];
    for (bi, block) in func.blocks().iter().enumerate() {
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                defs[bi].insert(d.index());
            }
        }
    }
    let analysis = DefiniteAssign {
        regs,
        params: func.params(),
        defs,
    };
    let solution = solve(&cfg, &analysis);

    let mut out = Vec::new();
    for (bi, block) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut assigned = solution.ins[bi].clone();
        for (ii, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|r| {
                if !assigned.contains(r.index()) {
                    out.push(UndefUse {
                        block: b,
                        inst: Some(ii),
                        reg: r,
                    });
                }
            });
            if let Some(d) = inst.dst() {
                assigned.insert(d.index());
            }
        }
        block.term.for_each_use(|r| {
            if !assigned.contains(r.index()) {
                out.push(UndefUse {
                    block: b,
                    inst: None,
                    reg: r,
                });
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Inst, Term};
    use crate::module::{Block, Function};

    fn diamond() -> Function {
        // bb0 -cond-> {bb1, bb2} -> bb3
        let b0 = Block::new(Term::CondBr {
            cond: Reg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        });
        let mut b1 = Block::new(Term::Br(BlockId(3)));
        b1.insts.push(Inst::Const {
            dst: Reg(1),
            value: 7,
        });
        let b2 = Block::new(Term::Br(BlockId(3)));
        let mut b3 = Block::new(Term::Ret(Some(Reg(2))));
        b3.insts.push(Inst::Bin {
            op: crate::BinOp::Add,
            dst: Reg(2),
            lhs: Reg(1),
            rhs: Reg(0),
        });
        Function::from_parts("d", 1, 3, vec![b0, b1, b2, b3])
    }

    #[test]
    fn cfg_succ_pred_and_rpo() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert!(cfg.succs(BlockId(3)).is_empty());
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        assert!(cfg.unreachable_blocks().is_empty());
    }

    #[test]
    fn cfg_unreachable_block() {
        // bb0: ret; bb1: br bb1 (unreachable)
        let blocks = vec![
            Block::new(Term::Ret(None)),
            Block::new(Term::Br(BlockId(1))),
        ];
        let f = Function::from_parts("f", 0, 0, blocks);
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
        assert_eq!(cfg.unreachable_blocks(), vec![BlockId(1)]);
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        let full = BitSet::full(130);
        assert_eq!(full.count(), 130);
        let mut t = BitSet::new(130);
        assert!(t.union_with(&full));
        assert_eq!(t.count(), 130);
        t.subtract(&s);
        assert!(!t.contains(0) && !t.contains(129) && t.contains(64));
    }

    #[test]
    fn liveness_in_diamond() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f);
        let sol = lv.solve(&cfg);
        // r0 and r1 are live into bb0's successors (read in bb3).
        assert!(
            lv.live_in(&sol, BlockId(0)).contains(0),
            "r0 live at entry (cond + add)"
        );
        assert!(
            lv.live_out(&sol, BlockId(1)).contains(1),
            "r1 live out of bb1"
        );
        // r2 is dead at entry (defined before its only use).
        assert!(!lv.live_in(&sol, BlockId(0)).contains(2));
        // Nothing is live out of the exit block.
        assert!(lv.live_out(&sol, BlockId(3)).is_empty());
    }

    #[test]
    fn undef_use_on_one_path_is_flagged() {
        let f = diamond();
        // r1 is only assigned on the then-path; its read in bb3 is flagged.
        let undef = maybe_undef_uses(&f);
        assert_eq!(undef.len(), 1);
        assert_eq!(undef[0].reg, Reg(1));
        assert_eq!(undef[0].block, BlockId(3));
    }

    #[test]
    fn params_and_straightline_defs_are_assigned() {
        let mut b = FunctionBuilder::new("f", 2);
        let x = b.const_(3);
        let y = b.add(Reg(0), Reg(1));
        let z = b.add(x, y);
        b.ret(Some(z));
        assert!(maybe_undef_uses(&b.finish()).is_empty());
    }

    #[test]
    fn loop_carried_value_not_flagged() {
        // A value assigned before a loop and used inside it is definitely
        // assigned even across the back edge.
        let mut b = FunctionBuilder::new("f", 0);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 8, 1, acc0, |b, i, acc| {
            b.add_into(acc, acc, i);
        });
        b.ret(Some(acc));
        assert!(maybe_undef_uses(&b.finish()).is_empty());
    }

    #[test]
    fn terminator_use_checked() {
        // ret r5 with r5 never assigned.
        let b0 = Block::new(Term::Ret(Some(Reg(5))));
        let f = Function::from_parts("f", 0, 6, vec![b0]);
        let undef = maybe_undef_uses(&f);
        assert_eq!(undef.len(), 1);
        assert_eq!(undef[0].inst, None);
        assert_eq!(undef[0].reg, Reg(5));
    }

    #[test]
    fn unreachable_blocks_not_scanned() {
        // bb1 reads an unassigned register but is unreachable.
        let b0 = Block::new(Term::Ret(None));
        let mut b1 = Block::new(Term::Ret(None));
        b1.insts.push(Inst::BinImm {
            op: crate::BinOp::Add,
            dst: Reg(1),
            lhs: Reg(9),
            imm: 1,
        });
        let f = Function::from_parts("f", 0, 10, vec![b0, b1]);
        assert!(maybe_undef_uses(&f).is_empty());
    }

    #[test]
    fn single_block_function_is_trivially_reducible() {
        let f = Function::from_parts("f", 0, 0, vec![Block::new(Term::Ret(None))]);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(cfg.reverse_postorder(), &[BlockId(0)]);
        assert!(dom.dominates(BlockId(0), BlockId(0)));
        assert_eq!(dom.idom(BlockId(0)), None);
        assert!(is_reducible(&cfg, &dom));
    }

    #[test]
    fn self_loop_is_reducible_and_self_dominating() {
        // bb0 -> bb1, bb1 -> bb1 (self loop, no exit).
        let blocks = vec![
            Block::new(Term::Br(BlockId(1))),
            Block::new(Term::Br(BlockId(1))),
        ];
        let f = Function::from_parts("f", 0, 0, blocks);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(cfg.preds(BlockId(1)), &[BlockId(0), BlockId(1)]);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(1), BlockId(1)));
        assert!(is_reducible(&cfg, &dom), "a self loop is a natural loop");
    }

    #[test]
    fn unreachable_cycle_does_not_affect_reducibility() {
        // bb0: ret; bb1 <-> bb2 form an unreachable cycle with two
        // "headers" — irrelevant, since neither is reachable.
        let blocks = vec![
            Block::new(Term::Ret(None)),
            Block::new(Term::Br(BlockId(2))),
            Block::new(Term::Br(BlockId(1))),
        ];
        let f = Function::from_parts("f", 0, 0, blocks);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(cfg.unreachable_blocks(), vec![BlockId(1), BlockId(2)]);
        assert!(!dom.is_reachable(BlockId(1)));
        assert!(!dom.dominates(BlockId(1), BlockId(2)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
        assert!(is_reducible(&cfg, &dom));
    }

    #[test]
    fn two_header_loop_is_irreducible() {
        // bb0 branches into both bb1 and bb2; bb1 and bb2 form a cycle,
        // so the cycle has two entry points and neither header dominates
        // the other.
        let blocks = vec![
            Block::new(Term::CondBr {
                cond: Reg(0),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }),
            Block::new(Term::Br(BlockId(2))),
            Block::new(Term::Br(BlockId(1))),
        ];
        let f = Function::from_parts("f", 1, 1, blocks);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
        assert!(!dom.dominates(BlockId(1), BlockId(2)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
        assert!(!is_reducible(&cfg, &dom));
    }

    #[test]
    fn structured_builder_loops_are_reducible() {
        let mut b = FunctionBuilder::new("f", 0);
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert!(is_reducible(&cfg, &dom));
    }

    #[test]
    fn dominators_match_loops_module() {
        let mut b = FunctionBuilder::new("f", 0);
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        b.ret(None);
        let f = b.finish();
        let dom = dominators(&f);
        for i in 0..f.block_count() as u32 {
            assert!(dom.dominates(BlockId(0), BlockId(i)));
        }
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert_eq!(dom.idom(BlockId(0)), None);
    }
}
