//! Classic scalar optimizations over PIR.
//!
//! The paper's third design requirement is *transformation power*: "having
//! the ability to apply transformations online that are as powerful as
//! static compilation" (Section I). Beyond the NT-hint transformation,
//! the runtime compiler can therefore run a standard scalar pipeline over
//! the embedded IR before lowering:
//!
//! * [`fold_constants`] — constant folding + algebraic identities,
//! * [`propagate_copies`] — local copy/constant propagation,
//! * [`eliminate_dead_code`] — removal of unobservable instructions,
//! * [`compact_registers`] — dense renumbering of the register file
//!   (smaller activation frames),
//! * [`optimize_function`] / [`optimize_module`] — the pipeline, iterated
//!   to a fixed point.
//!
//! All passes are semantics-preserving on the ISA's wrapping, no-trap
//! arithmetic; the integration tests check checksum equality across
//! optimization levels.

use std::collections::HashMap;

use pir::{BinOp, Function, Inst, Module, Reg, Term};

/// Statistics from one optimization run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Operands rewritten by copy/constant propagation.
    pub propagated: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Registers saved by compaction.
    pub regs_saved: u32,
}

impl OptStats {
    fn merge(&mut self, other: OptStats) {
        self.folded += other.folded;
        self.propagated += other.propagated;
        self.dead_removed += other.dead_removed;
        self.regs_saved += other.regs_saved;
    }

    /// True if the run changed anything.
    pub fn changed(&self) -> bool {
        self.folded + self.propagated + self.dead_removed > 0 || self.regs_saved > 0
    }
}

/// Per-block view of what each register currently holds, for local
/// propagation/folding. Invalidated at block boundaries (no global
/// dataflow needed for the workloads at hand; block-local is sound).
#[derive(Clone, Debug, PartialEq)]
enum Known {
    Const(i64),
    CopyOf(Reg),
}

fn invalidate(map: &mut HashMap<Reg, Known>, dst: Reg) {
    map.remove(&dst);
    // Anything known to be a copy of `dst` is stale now.
    map.retain(|_, v| !matches!(v, Known::CopyOf(r) if *r == dst));
}

/// Folds constant expressions and algebraic identities within blocks.
/// `x + 0`, `x * 1`, `x * 0`, `x & 0`, `x | 0`, `x ^ 0`, `x << 0`,
/// `x >> 0` simplify; `Bin`/`BinImm` over known constants fold to
/// `Const`.
pub fn fold_constants(func: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    for block in func.blocks_mut() {
        let mut known: HashMap<Reg, Known> = HashMap::new();
        for inst in &mut block.insts {
            let mut replace: Option<Inst> = None;
            match inst {
                Inst::Const { dst, value } => {
                    invalidate(&mut known, *dst);
                    known.insert(*dst, Known::Const(*value));
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    let lv = known.get(lhs).and_then(|k| match k {
                        Known::Const(v) => Some(*v),
                        Known::CopyOf(_) => None,
                    });
                    let rv = known.get(rhs).and_then(|k| match k {
                        Known::Const(v) => Some(*v),
                        Known::CopyOf(_) => None,
                    });
                    if let (Some(a), Some(b)) = (lv, rv) {
                        replace = Some(Inst::Const {
                            dst: *dst,
                            value: op.eval(a, b),
                        });
                        stats.folded += 1;
                    } else if let Some(b) = rv {
                        replace = Some(Inst::BinImm {
                            op: *op,
                            dst: *dst,
                            lhs: *lhs,
                            imm: b,
                        });
                        stats.folded += 1;
                    }
                }
                Inst::BinImm { op, dst, lhs, imm } => {
                    let lv = known.get(lhs).and_then(|k| match k {
                        Known::Const(v) => Some(*v),
                        Known::CopyOf(_) => None,
                    });
                    if let Some(a) = lv {
                        replace = Some(Inst::Const {
                            dst: *dst,
                            value: op.eval(a, *imm),
                        });
                        stats.folded += 1;
                    } else {
                        // Algebraic identities: the result equals lhs.
                        let identity = matches!(
                            (op, *imm),
                            (BinOp::Add, 0)
                                | (BinOp::Sub, 0)
                                | (BinOp::Mul, 1)
                                | (BinOp::Div, 1)
                                | (BinOp::Or, 0)
                                | (BinOp::Xor, 0)
                                | (BinOp::Shl, 0)
                                | (BinOp::Shr, 0)
                        );
                        if identity {
                            // dst = copy of lhs, expressed as `lhs + 0`
                            // then recorded for propagation.
                            replace = Some(Inst::BinImm {
                                op: BinOp::Add,
                                dst: *dst,
                                lhs: *lhs,
                                imm: 0,
                            });
                        }
                    }
                }
                _ => {}
            }
            if let Some(new) = replace {
                *inst = new;
            }
            // Update knowledge AFTER the instruction takes effect.
            match inst {
                Inst::Const { dst, value } => {
                    invalidate(&mut known, *dst);
                    known.insert(*dst, Known::Const(*value));
                }
                Inst::BinImm {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    imm: 0,
                } if dst != lhs => {
                    let src = *lhs;
                    invalidate(&mut known, *dst);
                    match known.get(&src).cloned() {
                        Some(k) => {
                            known.insert(*dst, k);
                        }
                        None => {
                            known.insert(*dst, Known::CopyOf(src));
                        }
                    }
                }
                other => {
                    if let Some(dst) = other.dst() {
                        invalidate(&mut known, dst);
                    }
                }
            }
        }
    }
    stats
}

/// Rewrites register operands through block-local copies (`dst = src + 0`)
/// and materialized constants where an immediate form exists.
pub fn propagate_copies(func: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    for block in func.blocks_mut() {
        let mut copy_of: HashMap<Reg, Reg> = HashMap::new();
        let resolve = |copies: &HashMap<Reg, Reg>, r: &mut Reg, stats: &mut OptStats| {
            if let Some(src) = copies.get(r) {
                *r = *src;
                stats.propagated += 1;
            }
        };
        for inst in &mut block.insts {
            // Rewrite uses first.
            match inst {
                Inst::Bin { lhs, rhs, .. } => {
                    resolve(&copy_of, lhs, &mut stats);
                    resolve(&copy_of, rhs, &mut stats);
                }
                Inst::BinImm { lhs, .. } => resolve(&copy_of, lhs, &mut stats),
                Inst::Load { base, .. } => resolve(&copy_of, base, &mut stats),
                Inst::Store { base, src, .. } => {
                    resolve(&copy_of, base, &mut stats);
                    resolve(&copy_of, src, &mut stats);
                }
                Inst::Call { args, .. } => {
                    for a in args.iter_mut() {
                        resolve(&copy_of, a, &mut stats);
                    }
                }
                Inst::Report { src, .. } => resolve(&copy_of, src, &mut stats),
                _ => {}
            }
            // Then record/kill definitions.
            match inst {
                Inst::BinImm {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    imm: 0,
                } if dst != lhs => {
                    let (d, s) = (*dst, *lhs);
                    copy_of.remove(&d);
                    copy_of.retain(|_, v| *v != d);
                    // Collapse chains: if s is itself a copy, point at the
                    // root.
                    let root = copy_of.get(&s).copied().unwrap_or(s);
                    copy_of.insert(d, root);
                }
                other => {
                    if let Some(d) = other.dst() {
                        copy_of.remove(&d);
                        copy_of.retain(|_, v| *v != d);
                    }
                }
            }
        }
        // Terminator uses.
        match &mut block.term {
            Term::CondBr { cond, .. } => {
                if let Some(src) = copy_of.get(cond) {
                    *cond = *src;
                    stats.propagated += 1;
                }
            }
            Term::Ret(Some(r)) => {
                if let Some(src) = copy_of.get(r) {
                    *r = *src;
                    stats.propagated += 1;
                }
            }
            _ => {}
        }
    }
    stats
}

/// Removes instructions whose results are never observed. Conservative:
/// loads, stores, calls, reports, and waits are always kept (loads have
/// architectural cache effects the transformations care about).
pub fn eliminate_dead_code(func: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    // Liveness: a register is live if any instruction or terminator
    // anywhere reads it (flow-insensitive, which is sound for removal of
    // pure instructions).
    let mut used = vec![false; func.reg_count() as usize];
    let mark = |r: &Reg, used: &mut Vec<bool>| {
        used[r.index()] = true;
    };
    for block in func.blocks() {
        for inst in &block.insts {
            match inst {
                Inst::Bin { lhs, rhs, .. } => {
                    mark(lhs, &mut used);
                    mark(rhs, &mut used);
                }
                Inst::BinImm { lhs, .. } => mark(lhs, &mut used),
                Inst::Load { base, .. } => mark(base, &mut used),
                Inst::Store { base, src, .. } => {
                    mark(base, &mut used);
                    mark(src, &mut used);
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        mark(a, &mut used);
                    }
                }
                Inst::Report { src, .. } => mark(src, &mut used),
                _ => {}
            }
        }
        match &block.term {
            Term::CondBr { cond, .. } => mark(cond, &mut used),
            Term::Ret(Some(r)) => mark(r, &mut used),
            _ => {}
        }
    }
    for block in func.blocks_mut() {
        let before = block.insts.len();
        block.insts.retain(|inst| match inst {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::GlobalAddr { dst, .. } => used[dst.index()],
            // Loads have cache side effects PC3D relies on; everything
            // else with effects is kept too.
            _ => true,
        });
        stats.dead_removed += before - block.insts.len();
    }
    stats
}

/// Renumbers registers densely (parameters keep their slots). Shrinks the
/// activation frame the virtual ISA's register windows allocate.
pub fn compact_registers(func: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    let params = func.params();
    let mut mapping: HashMap<Reg, Reg> = HashMap::new();
    let mut next = params;
    let remap = |r: &mut Reg, mapping: &mut HashMap<Reg, Reg>, next: &mut u32| {
        if r.0 < params {
            return; // parameters are pinned by the calling convention
        }
        let new = *mapping.entry(*r).or_insert_with(|| {
            let n = Reg(*next);
            *next += 1;
            n
        });
        *r = new;
    };
    for block in func.blocks_mut() {
        for inst in &mut block.insts {
            match inst {
                Inst::Const { dst, .. } => remap(dst, &mut mapping, &mut next),
                Inst::Bin { dst, lhs, rhs, .. } => {
                    remap(lhs, &mut mapping, &mut next);
                    remap(rhs, &mut mapping, &mut next);
                    remap(dst, &mut mapping, &mut next);
                }
                Inst::BinImm { dst, lhs, .. } => {
                    remap(lhs, &mut mapping, &mut next);
                    remap(dst, &mut mapping, &mut next);
                }
                Inst::Load { dst, base, .. } => {
                    remap(base, &mut mapping, &mut next);
                    remap(dst, &mut mapping, &mut next);
                }
                Inst::Store { base, src, .. } => {
                    remap(base, &mut mapping, &mut next);
                    remap(src, &mut mapping, &mut next);
                }
                Inst::GlobalAddr { dst, .. } => remap(dst, &mut mapping, &mut next),
                Inst::Call { dst, args, .. } => {
                    for a in args.iter_mut() {
                        remap(a, &mut mapping, &mut next);
                    }
                    if let Some(d) = dst {
                        remap(d, &mut mapping, &mut next);
                    }
                }
                Inst::Report { src, .. } => remap(src, &mut mapping, &mut next),
                Inst::Nop | Inst::Wait => {}
            }
        }
        match &mut block.term {
            Term::CondBr { cond, .. } => remap(cond, &mut mapping, &mut next),
            Term::Ret(Some(r)) => remap(r, &mut mapping, &mut next),
            _ => {}
        }
    }
    let old = func.reg_count();
    stats.regs_saved = old.saturating_sub(next);
    func.set_reg_count(next.max(params));
    stats
}

/// Runs the full scalar pipeline on one function, iterating fold +
/// propagate + DCE to a fixed point (bounded), then compacting registers.
pub fn optimize_function(func: &mut Function) -> OptStats {
    let mut total = OptStats::default();
    for _ in 0..8 {
        let mut round = OptStats::default();
        round.merge(fold_constants(func));
        round.merge(propagate_copies(func));
        round.merge(eliminate_dead_code(func));
        let changed = round.changed();
        total.merge(round);
        if !changed {
            break;
        }
    }
    total.merge(compact_registers(func));
    total
}

/// Optimizes every function of a module.
pub fn optimize_module(module: &mut Module) -> OptStats {
    let mut total = OptStats::default();
    for func in module.functions_mut() {
        total.merge(optimize_function(func));
    }
    total
}

/// [`optimize_module`] run stage by stage across the whole module, with
/// every stage checked twice: after each of fold/propagate/DCE per round,
/// and after register compaction, the pass-manager invariants (verify +
/// definite assignment) are re-checked, and [`pir::equiv::check_module`]
/// must *prove* the new module observationally equivalent to a snapshot
/// taken before the stage. The scalar pipeline never touches loads at all
/// — DCE deliberately keeps them for their cache effects — so the proof
/// must report *countably zero* NT flips: `Some(0)`, with `None` (load
/// structure changed) failing validation.
///
/// # Errors
///
/// Returns [`CompileError::InvariantViolation`](crate::CompileError) if a
/// stage breaks a structural invariant,
/// [`CompileError::TranslationRefuted`](crate::CompileError) if a stage's
/// output was concretely refuted, or
/// [`CompileError::TranslationUnproved`](crate::CompileError) if it could
/// not be proved equivalent (no counterexample either).
pub fn optimize_module_validated(module: &mut Module) -> Result<OptStats, crate::CompileError> {
    type Stage = (&'static str, fn(&mut Function) -> OptStats);
    let checker = crate::invariants::InvariantChecker::for_module(module);
    let equiv_opts = pir::equiv::EquivOptions::default();
    let validate = |snapshot: &Module,
                    module: &Module,
                    stage: &'static str|
     -> Result<(), crate::CompileError> {
        let report = pir::equiv::check_module(snapshot, module, &equiv_opts);
        // Strictly `Some(0)`: a scalar stage that changed load structure
        // (flips uncountable, `None`) or flipped a locality bit has left
        // its lane even if the result is behaviorally equivalent.
        if report.all_proved() && report.total_nt_flips() == Some(0) {
            Ok(())
        } else if report.first_refutation().is_some() {
            Err(crate::CompileError::TranslationRefuted { stage, report })
        } else {
            Err(crate::CompileError::TranslationUnproved { stage, report })
        }
    };
    let stages: [Stage; 3] = [
        ("fold-constants", fold_constants),
        ("propagate-copies", propagate_copies),
        ("eliminate-dead-code", eliminate_dead_code),
    ];
    let mut total = OptStats::default();
    for _ in 0..8 {
        let mut round = OptStats::default();
        for (name, stage) in stages {
            let snapshot = module.clone();
            for func in module.functions_mut() {
                round.merge(stage(func));
            }
            checker.check(module, name)?;
            validate(&snapshot, module, name)?;
        }
        let changed = round.changed();
        total.merge(round);
        if !changed {
            break;
        }
    }
    let snapshot = module.clone();
    for func in module.functions_mut() {
        total.merge(compact_registers(func));
    }
    checker.check(module, "compact-registers")?;
    validate(&snapshot, module, "compact-registers")?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::verify::verify_function;
    use pir::FunctionBuilder;

    #[test]
    fn folds_constant_chains() {
        let mut b = FunctionBuilder::new("f", 0);
        let a = b.const_(6);
        let c = b.const_(7);
        let m = b.mul(a, c);
        let n = b.add_imm(m, 0); // identity
        b.ret(Some(n));
        let mut f = b.finish();
        let stats = optimize_function(&mut f);
        assert!(stats.folded >= 1, "{stats:?}");
        // The return value must now be a constant 42 somewhere.
        let has_42 = f
            .blocks()
            .iter()
            .flat_map(|blk| blk.insts.iter())
            .any(|i| matches!(i, Inst::Const { value: 42, .. }));
        assert!(has_42, "6*7 should fold to 42: {f}");
        assert!(verify_function(&f, 1, 0).is_ok());
    }

    #[test]
    fn dce_removes_unused_arithmetic_keeps_loads() {
        let mut b = FunctionBuilder::new("f", 0);
        let base = b.const_(64);
        let _unused = b.add_imm(base, 5); // dead
        let v = b.load(base, 0, pir::Locality::Normal); // kept (cache effects)
        let _unused2 = b.mul_imm(v, 3); // dead
        b.ret(None);
        let mut f = b.finish();
        let before = f.inst_count();
        let stats = optimize_function(&mut f);
        assert!(stats.dead_removed >= 2, "{stats:?}");
        assert!(f.inst_count() < before);
        assert_eq!(f.load_count(), 1, "loads must survive DCE");
    }

    #[test]
    fn register_compaction_shrinks_frames() {
        let mut b = FunctionBuilder::new("f", 1);
        // Burn registers.
        for _ in 0..50 {
            let _ = b.fresh();
        }
        let p = b.param(0);
        let x = b.add_imm(p, 1);
        b.ret(Some(x));
        let mut f = b.finish();
        assert!(f.reg_count() > 50);
        let stats = optimize_function(&mut f);
        assert!(stats.regs_saved > 40, "{stats:?}");
        assert!(f.reg_count() <= 3);
        assert!(verify_function(&f, 1, 0).is_ok());
    }

    #[test]
    fn copy_propagation_rewrites_uses() {
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let copy = b.add_imm(p, 0); // copy of p
        let r = b.mul_imm(copy, 2);
        b.ret(Some(r));
        let mut f = b.finish();
        let stats = optimize_function(&mut f);
        assert!(stats.propagated >= 1, "{stats:?}");
        // The multiply should now read the parameter directly.
        let reads_param = f.blocks().iter().flat_map(|blk| blk.insts.iter()).any(|i| {
            matches!(
                i,
                Inst::BinImm {
                    op: BinOp::Mul,
                    lhs: Reg(0),
                    ..
                }
            )
        });
        assert!(reads_param, "{f}");
    }

    #[test]
    fn optimization_preserves_executed_semantics() {
        use machine::{CostModel, ExecContext, ExecEnv, MemorySystem, PerfCounters};
        // A program with foldable, propagatable, and dead code computing
        // a checksum into memory; run optimized and unoptimized lowering
        // and compare results.
        let build = || {
            let mut m = pir::Module::new("sem");
            let g = m.add_global("out", 64);
            let mut b = FunctionBuilder::new("main", 0);
            let base = b.global_addr(g);
            let six = b.const_(6);
            let seven = b.const_(7);
            let xx = b.mul(six, seven);
            let copy = b.add_imm(xx, 0);
            let _dead = b.mul_imm(copy, 999);
            let acc = b.const_(0);
            b.counted_loop(0, 10, 1, |bl, i| {
                let t = bl.mul(i, copy);
                bl.add_into(acc, acc, t);
            });
            b.store(base, 0, acc);
            b.ret(None);
            let f = m.add_function(b.finish());
            m.set_entry(f);
            m
        };
        let run = |m: &pir::Module| -> i64 {
            let img = crate::Compiler::new(crate::Options::plain())
                .compile(m)
                .unwrap()
                .image;
            let cfg = machine::MachineConfig::small();
            let mut mem = MemorySystem::new(&cfg);
            let mut counters = PerfCounters::default();
            let mut ctx = ExecContext::new(img.entry, 1, 0);
            let mut data = img.data.clone();
            let mut blocks = machine::BlockCache::new();
            let mut env = ExecEnv {
                text: &img.text,
                text_gen: 0,
                blocks: &mut blocks,
                data: &mut data,
                mem: &mut mem,
                core: 0,
                counters: &mut counters,
                costs: CostModel::default(),
            };
            machine::exec::run(&mut ctx, &mut env, 10_000_000);
            let addr = img.global_by_name("out").unwrap().addr as usize;
            i64::from_le_bytes(data[addr..addr + 8].try_into().unwrap())
        };
        let plain = build();
        let mut optimized = build();
        let stats = optimize_module(&mut optimized);
        assert!(stats.changed());
        assert!(pir::verify::verify_module(&optimized).is_ok());
        assert_eq!(run(&plain), run(&optimized));
        assert_eq!(run(&plain), 42 * 45);
    }

    #[test]
    fn validated_pipeline_proves_every_stage() {
        let mut m = pir::Module::new("sem");
        let g = m.add_global("out", 64);
        let gin = m.add_global_full(pir::Global::with_words(
            "in",
            (0..32).map(|i| (i * 3) as i64).collect(),
        ));
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.global_addr(gin);
        let outa = b.global_addr(g);
        let six = b.const_(6);
        let seven = b.const_(7);
        let xx = b.mul(six, seven);
        let copy = b.add_imm(xx, 0);
        let _dead = b.mul_imm(copy, 999);
        let acc = b.const_(0);
        b.counted_loop(0, 32, 1, |bl, i| {
            let off = bl.shl_imm(i, 3);
            let addr = bl.add(base, off);
            let v = bl.load(addr, 0, pir::Locality::Normal);
            let t = bl.mul(v, copy);
            bl.add_into(acc, acc, t);
        });
        b.store(outa, 0, acc);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let original = m.clone();
        let stats = optimize_module_validated(&mut m).expect("all stages prove");
        assert!(stats.changed());
        // End-to-end: the final module is also equivalent to the input.
        let report = pir::equiv::check_module(&original, &m, &pir::equiv::EquivOptions::default());
        assert!(report.all_proved(), "{report}");
    }

    #[test]
    fn translation_refutation_names_stage_and_function() {
        // Simulate a miscompiling stage: corrupt a constant and check the
        // error a validated pipeline would surface.
        let build = || {
            let mut m = pir::Module::new("m");
            let g = m.add_global("out", 64);
            let mut b = FunctionBuilder::new("main", 0);
            let base = b.global_addr(g);
            let x = b.const_(21);
            let y = b.mul_imm(x, 2);
            b.store(base, 0, y);
            b.ret(None);
            let f = m.add_function(b.finish());
            m.set_entry(f);
            m
        };
        let baseline = build();
        let mut corrupt = build();
        for func in corrupt.functions_mut() {
            for block in func.blocks_mut() {
                for inst in &mut block.insts {
                    if let Inst::Const { value, .. } = inst {
                        *value += 1;
                    }
                }
            }
        }
        let report =
            pir::equiv::check_module(&baseline, &corrupt, &pir::equiv::EquivOptions::default());
        assert!(!report.all_proved());
        let err = crate::CompileError::TranslationRefuted {
            stage: "fold-constants",
            report,
        };
        let text = err.to_string();
        assert!(text.contains("fold-constants"), "{text}");
        assert!(text.contains("main"), "{text}");
        assert!(text.contains("refuted"), "{text}");
    }

    #[test]
    fn fixed_point_terminates_on_pathological_input() {
        let mut b = FunctionBuilder::new("f", 0);
        let mut r = b.const_(1);
        for _ in 0..100 {
            r = b.add_imm(r, 0);
        }
        b.ret(Some(r));
        let mut f = b.finish();
        let _ = optimize_function(&mut f);
        assert!(verify_function(&f, 1, 0).is_ok());
    }
}
