//! Diagnostic lint passes over PIR modules.
//!
//! Where [`verify`](crate::verify) rejects structurally broken IR, the
//! lint layer flags IR that is *legal but suspicious* — the kinds of
//! defects that creep in through hand-built workloads or buggy online
//! transformations. Each pass produces structured [`Diagnostic`]s with a
//! [`Severity`], a location (function / block / instruction), and a
//! human-readable message; [`lint_module`] runs the full suite:
//!
//! | pass | severity | flags |
//! |------|----------|-------|
//! | `unreachable-block`        | warning | blocks no path from the entry reaches |
//! | `possibly-undefined-use`   | error   | reads of registers not assigned on every path (they read as zero, which is almost always a builder bug) |
//! | `dead-store`               | warning | pure defs whose value no later read can observe |
//! | `nt-outside-loop`          | warning | non-temporal load hints outside any natural loop, where the hint cannot pay for itself |
//! | `never-virtualizable-call` | warning | call edges the default multi-block-callees edge policy never routes through the EVT, so PC3D cannot retarget them online |
//! | `unknown-address-store`    | warning | stores through a base the [`effects`](crate::effects) points-to analysis cannot bound, which forces every downstream alias query conservative |
//! | `likely-divergent-loop`    | warning | natural loops with no feasible exit (per the [`absint`](crate::absint) abstract states) and no observable effect — no store, report, call with effects, or `wait` — which spin forever without anyone noticing |
//! | `osr-header-unprovable`    | warning | loop headers that carry an OSR certificate but whose live-state transfer the cut-point prover ([`equiv::prove_osr_transfer`](crate::equiv::prove_osr_transfer)) cannot certify even against the function itself — the runtime will never switch variants mid-loop there |
//!
//! The suite is cheap (one CFG + two dataflow solves per function, plus
//! one transfer proof per OSR-certified header) and can be rerun between
//! transformation stages.

use std::fmt;

use crate::dataflow::{self, Cfg, Liveness};
use crate::ids::{BlockId, FuncId};
use crate::inst::{Inst, Locality};
use crate::loops;
use crate::module::{Function, Module};

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal and executable, but probably not what the author meant.
    Warning,
    /// Almost certainly a bug even though the IR executes deterministically.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding, locating the suspicious construct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case pass name (e.g. `"dead-store"`).
    pub pass: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Function containing the finding.
    pub func: FuncId,
    /// Function name, for human-readable output.
    pub func_name: String,
    /// Block containing the finding, if block-granular.
    pub block: Option<BlockId>,
    /// Instruction index within the block, if instruction-granular.
    pub inst: Option<usize>,
    /// What was found and why it matters.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] `{}`", self.severity, self.pass, self.func_name)?;
        if let Some(b) = self.block {
            write!(f, " {b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, " inst {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings from one lint run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diags: Vec<Diagnostic>,
}

impl LintReport {
    /// All diagnostics, in pass order within function order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Diagnostics at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Diagnostics at [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// True if no finding at all was produced.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// True if nothing at [`Severity::Error`] was found. Warnings are
    /// advisory; a clean module may still carry them.
    pub fn is_error_free(&self) -> bool {
        self.error_count() == 0
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} finding(s): {} error(s), {} warning(s)",
            self.diags.len(),
            self.error_count(),
            self.warning_count()
        )?;
        for d in &self.diags {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Per-function context shared by all lint passes: built once, read by
/// each pass.
struct FuncCx<'m> {
    func: &'m Function,
    fid: FuncId,
    cfg: Cfg,
}

impl FuncCx<'_> {
    fn diag(
        &self,
        pass: &'static str,
        severity: Severity,
        block: Option<BlockId>,
        inst: Option<usize>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            pass,
            severity,
            func: self.fid,
            func_name: self.func.name().to_string(),
            block,
            inst,
            message,
        }
    }
}

/// Flags blocks that no path from the entry reaches.
fn lint_unreachable_blocks(cx: &FuncCx<'_>, out: &mut Vec<Diagnostic>) {
    for block in cx.cfg.unreachable_blocks() {
        out.push(cx.diag(
            "unreachable-block",
            Severity::Warning,
            Some(block),
            None,
            format!("{block} can never execute; a transformation left it orphaned"),
        ));
    }
}

/// Flags reads of registers not definitely assigned on every path. Such a
/// read yields zero (PIR registers are zero-initialized) but is virtually
/// always an IR-construction bug, so it is the one error-severity pass.
fn lint_possibly_undefined_uses(cx: &FuncCx<'_>, out: &mut Vec<Diagnostic>) {
    for u in dataflow::maybe_undef_uses_in(cx.func, &cx.cfg) {
        let site = match u.inst {
            Some(_) => "instruction",
            None => "terminator",
        };
        out.push(cx.diag(
            "possibly-undefined-use",
            Severity::Error,
            Some(u.block),
            u.inst,
            format!(
                "{site} reads {} which is not assigned on every path from the entry \
                 (it reads as zero)",
                u.reg
            ),
        ));
    }
}

/// Flags pure instructions whose destination is dead: no later read in
/// the same block before a redefinition, and not live out of the block.
fn lint_dead_stores(cx: &FuncCx<'_>, out: &mut Vec<Diagnostic>) {
    let lv = Liveness::new(cx.func);
    let sol = lv.solve(&cx.cfg);
    for (bi, block) in cx.func.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        if !cx.cfg.is_reachable(bid) {
            continue; // unreachable-block already covers these
        }
        // Walk the block backward carrying the live set.
        let mut live = lv.live_out(&sol, bid).clone();
        block.term.for_each_use(|r| {
            live.insert(r.index());
        });
        for (ii, inst) in block.insts.iter().enumerate().rev() {
            let dead = match inst.dst() {
                Some(d) if inst.is_pure() => !live.contains(d.index()),
                _ => false,
            };
            if dead {
                out.push(cx.diag(
                    "dead-store",
                    Severity::Warning,
                    Some(bid),
                    Some(ii),
                    format!(
                        "{} is written here but never read afterwards",
                        inst.dst().expect("dead store has a dst")
                    ),
                ));
            }
            if let Some(d) = inst.dst() {
                live.remove(d.index());
            }
            inst.for_each_use(|r| {
                live.insert(r.index());
            });
        }
    }
}

/// Flags non-temporal load hints outside any natural loop. A one-shot
/// load cannot thrash the LLC, so the hint only costs (the paper applies
/// NT hints to loads inside hot loops).
fn lint_nt_outside_loop(cx: &FuncCx<'_>, out: &mut Vec<Diagnostic>) {
    let info = loops::analyze_in(cx.func, &cx.cfg);
    for (bi, block) in cx.func.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        if !cx.cfg.is_reachable(bid) || info.depth(bid) > 0 {
            continue;
        }
        for (ii, inst) in block.insts.iter().enumerate() {
            if let Inst::Load {
                locality: Locality::NonTemporal,
                ..
            } = inst
            {
                out.push(
                    cx.diag(
                        "nt-outside-loop",
                        Severity::Warning,
                        Some(bid),
                        Some(ii),
                        "non-temporal hint on a load outside any loop; \
                     it cannot reduce cache pressure here"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Flags call edges the default edge policy will never virtualize: calls
/// to single-block callees. PC3D can only retarget virtualized edges at
/// runtime, so these callees are invisible to online transformation
/// unless compiled with the all-calls policy.
fn lint_never_virtualizable_calls(cx: &FuncCx<'_>, module: &Module, out: &mut Vec<Diagnostic>) {
    for (bi, block) in cx.func.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        if !cx.cfg.is_reachable(bid) {
            continue;
        }
        for (ii, inst) in block.insts.iter().enumerate() {
            let Inst::Call { callee, .. } = inst else {
                continue;
            };
            let Some(target) = module.functions().get(callee.index()) else {
                continue; // verify reports the bad callee
            };
            if target.block_count() <= 1 {
                out.push(cx.diag(
                    "never-virtualizable-call",
                    Severity::Warning,
                    Some(bid),
                    Some(ii),
                    format!(
                        "call to single-block `{}` is never virtualized under the \
                         default multi-block edge policy, so the runtime cannot \
                         retarget it",
                        target.name()
                    ),
                ));
            }
        }
    }
}

/// Flags stores whose base register has points-to class
/// [`Unknown`](crate::effects::PtClass::Unknown): the effects analysis
/// cannot bound what such a store touches, so it blocks store-to-load
/// forwarding in the equivalence checker and widens every callee summary
/// that inlines this function's effects. Usually the base was loaded from
/// memory or returned by a call; routing the address through a parameter
/// or `GlobalAddr` keeps the analysis precise.
fn lint_unknown_address_stores(cx: &FuncCx<'_>, out: &mut Vec<Diagnostic>) {
    let classes = crate::effects::reg_classes(cx.func);
    for (bi, block) in cx.func.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        if !cx.cfg.is_reachable(bid) {
            continue;
        }
        for (ii, inst) in block.insts.iter().enumerate() {
            let Inst::Store { base, .. } = inst else {
                continue;
            };
            if classes.get(base.index()) == Some(&crate::effects::PtClass::Unknown) {
                out.push(cx.diag(
                    "unknown-address-store",
                    Severity::Warning,
                    Some(bid),
                    Some(ii),
                    format!(
                        "store through {} whose address class is unknown; \
                         alias analysis must assume it may touch any memory",
                        base
                    ),
                ));
            }
        }
    }
}

/// Flags natural loops that provably never exit *and* execute nothing
/// observable. The exit check uses the [`crate::absint`] abstract states:
/// an exit edge whose target block is proven unreachable is infeasible
/// (a loop with no exit edge at all is vacuously inescapable). The effect
/// check admits pure computation and loads but no store, metric report,
/// `wait`, or call with observable effects — such a loop burns a core
/// without ever telling anyone, which in a server binary is almost always
/// a transformation bug rather than intent (intentional event loops park
/// in `wait`).
fn lint_likely_divergent_loops(cx: &FuncCx<'_>, module: &Module, out: &mut Vec<Diagnostic>) {
    let info = loops::analyze_in(cx.func, &cx.cfg);
    if info.headers().is_empty() {
        return;
    }
    let dom = dataflow::Dominators::compute(&cx.cfg);
    let absint = crate::absint::analyze_function_cached(cx.func);
    let fx = crate::effects::analyze_cached(module);
    for &h in info.headers() {
        if absint.block_in(h).is_none() {
            continue; // the loop never runs; unreachable-block covers it
        }
        let members = loops::natural_loop(&cx.cfg, &dom, h);
        let mut in_loop = vec![false; cx.func.block_count()];
        for &b in &members {
            in_loop[b.index()] = true;
        }
        let escapes = members.iter().any(|&b| {
            cx.cfg
                .succs(b)
                .iter()
                .any(|s| !in_loop[s.index()] && absint.block_in(*s).is_some())
        });
        if escapes {
            continue;
        }
        let observable = members.iter().any(|&b| {
            cx.func.block(b).insts.iter().any(|inst| match inst {
                Inst::Store { .. } | Inst::Report { .. } | Inst::Wait => true,
                Inst::Call { callee, .. } => {
                    // Out-of-range callees are the verifier's problem;
                    // treat them as observable to stay quiet here.
                    module.functions().get(callee.index()).is_none() || !fx.observably_pure(*callee)
                }
                _ => false,
            })
        });
        if observable {
            continue;
        }
        out.push(cx.diag(
            "likely-divergent-loop",
            Severity::Warning,
            Some(h),
            None,
            format!(
                "loop headed at {h} has no feasible exit and no observable \
                 effect (no store, report, or wait); it likely spins forever"
            ),
        ));
    }
}

/// Flags OSR-certified loop headers the cut-point transfer prover cannot
/// certify for the *identity* switch (function to itself). A certificate
/// without a provable recipe is a dead anchor: the abstract interpreter
/// vouched for the live state, but the runtime can never actually switch
/// a variant in mid-loop there, so the hottest loops silently fall back
/// to function-boundary dispatch. The refusal reason is typed
/// ([`crate::equiv::TransferRefusal`]) and quoted verbatim.
fn lint_osr_header_unprovable(cx: &FuncCx<'_>, module: &Module, out: &mut Vec<Diagnostic>) {
    use crate::equiv::{self, TransferVerdict};
    for dec in crate::absint::certify_function(module, cx.fid) {
        let Some(cert) = dec.certificate() else {
            continue;
        };
        let verdict = equiv::prove_osr_transfer(
            module,
            module,
            cx.fid,
            cert,
            &equiv::EquivOptions::default(),
        );
        let why = match verdict {
            TransferVerdict::Proved { .. } => continue,
            TransferVerdict::Refuted(cex) => format!("self-transfer refuted: {cex}"),
            TransferVerdict::Unproved { reason } => reason.to_string(),
        };
        out.push(cx.diag(
            "osr-header-unprovable",
            Severity::Warning,
            Some(cert.header),
            None,
            format!(
                "{} carries an OSR certificate but its live-state transfer \
                 cannot be proved; mid-loop variant switching is unavailable \
                 here ({why})",
                cert.header
            ),
        ));
    }
}

/// Runs every lint pass over one function of `module`.
pub fn lint_function(module: &Module, fid: FuncId) -> Vec<Diagnostic> {
    let func = module.function(fid);
    let cx = FuncCx {
        func,
        fid,
        cfg: Cfg::new(func),
    };
    let mut out = Vec::new();
    lint_unreachable_blocks(&cx, &mut out);
    lint_possibly_undefined_uses(&cx, &mut out);
    lint_dead_stores(&cx, &mut out);
    lint_nt_outside_loop(&cx, &mut out);
    lint_never_virtualizable_calls(&cx, module, &mut out);
    lint_unknown_address_stores(&cx, &mut out);
    lint_likely_divergent_loops(&cx, module, &mut out);
    lint_osr_header_unprovable(&cx, module, &mut out);
    out
}

/// Runs the full lint suite over every function of `module`.
///
/// The module should already pass [`verify`](crate::verify::verify_module);
/// lint passes tolerate some structural breakage (they skip what they
/// cannot analyze) but give their best diagnostics on verified IR.
pub fn lint_module(module: &Module) -> LintReport {
    let mut diags = Vec::new();
    for fid in 0..module.functions().len() {
        diags.extend(lint_function(module, FuncId(fid as u32)));
    }
    LintReport { diags }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::inst::Term;
    use crate::module::Block;

    fn module_with(f: Function) -> (Module, FuncId) {
        let mut m = Module::new("m");
        let id = m.add_function(f);
        m.set_entry(id);
        (m, id)
    }

    #[test]
    fn clean_function_produces_no_findings() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 4096);
        let mut b = FunctionBuilder::new("sum", 0);
        let base = b.global_addr(g);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 64, 1, acc0, |b, i, acc| {
            let off = b.shl_imm(i, 3);
            let addr = b.add(base, off);
            let v = b.load(addr, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        b.ret(Some(acc));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(report.is_empty(), "unexpected findings:\n{report}");
    }

    #[test]
    fn unreachable_block_warned() {
        let blocks = vec![Block::new(Term::Ret(None)), Block::new(Term::Ret(None))];
        let f = Function::from_parts("f", 0, 0, blocks);
        let (m, _) = module_with(f);
        let report = lint_module(&m);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.diagnostics()[0].pass, "unreachable-block");
        assert_eq!(report.diagnostics()[0].block, Some(BlockId(1)));
        assert!(report.is_error_free());
    }

    #[test]
    fn undefined_use_is_an_error() {
        // ret r3 with r3 never written.
        let f = Function::from_parts("f", 0, 4, vec![Block::new(Term::Ret(Some(Reg(3))))]);
        let (m, _) = module_with(f);
        let report = lint_module(&m);
        assert_eq!(report.error_count(), 1);
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, "possibly-undefined-use");
        assert!(!report.is_error_free());
        assert!(d.to_string().contains("r3"));
    }

    #[test]
    fn dead_store_warned_and_live_store_not() {
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.const_(1); // live: returned
        let _y = b.const_(2); // dead: never read
        b.ret(Some(x));
        let (m, _) = module_with(b.finish());
        let report = lint_module(&m);
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "dead-store")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].inst, Some(1));
    }

    #[test]
    fn value_live_across_blocks_not_dead() {
        // A def in bb0 read only in a later block must not be flagged.
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.const_(7);
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(x, i);
        });
        b.ret(Some(x));
        let (m, _) = module_with(b.finish());
        let report = lint_module(&m);
        // The add inside the loop IS dead (its result is unread) but the
        // const is not.
        assert!(report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "dead-store")
            .all(|d| d.inst != Some(0) || d.block != Some(BlockId(0))));
    }

    #[test]
    fn nt_hint_outside_loop_warned() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 64);
        let mut b = FunctionBuilder::new("f", 0);
        let base = b.global_addr(g);
        let v = b.load(base, 0, Locality::NonTemporal);
        b.ret(Some(v));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.pass == "nt-outside-loop"));
    }

    #[test]
    fn nt_hint_inside_loop_not_warned() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 4096);
        let mut b = FunctionBuilder::new("f", 0);
        let base = b.global_addr(g);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 64, 1, acc0, |b, i, acc| {
            let off = b.shl_imm(i, 3);
            let addr = b.add(base, off);
            let v = b.load(addr, 0, Locality::NonTemporal);
            b.add_into(acc, acc, v);
        });
        b.ret(Some(acc));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.pass == "nt-outside-loop"));
    }

    #[test]
    fn call_to_single_block_callee_warned() {
        let mut m = Module::new("m");
        let mut leaf = FunctionBuilder::new("leaf", 1);
        let two = leaf.add_imm(Reg(0), 1);
        leaf.ret(Some(two));
        let leaf_id = m.add_function(leaf.finish());
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.const_(1);
        let _ = b.call(leaf_id, &[x]);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "never-virtualizable-call")
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("leaf"));
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn store_through_loaded_pointer_warned() {
        let mut m = Module::new("m");
        let g = m.add_global("tbl", 64);
        let mut b = FunctionBuilder::new("f", 1);
        let base = b.global_addr(g);
        let p = b.load(base, 0, Locality::Normal); // class unknown
        b.store(p, 0, Reg(0));
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "unknown-address-store")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn store_through_global_or_param_not_warned() {
        let mut m = Module::new("m");
        let g = m.add_global("tbl", 64);
        let mut b = FunctionBuilder::new("f", 1);
        let base = b.global_addr(g);
        b.store(base, 0, Reg(0));
        b.store(Reg(0), 8, Reg(0)); // param-classed base
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.pass == "unknown-address-store"));
    }

    #[test]
    fn effect_free_infinite_loop_warned() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 64);
        let mut b = FunctionBuilder::new("spin", 0);
        let base = b.global_addr(g);
        let loop_bb = b.new_block();
        b.br(loop_bb);
        b.switch_to(loop_bb);
        // Loads and arithmetic only: nothing observable, and no exit.
        let v = b.load(base, 0, Locality::Normal);
        let _ = b.add_imm(v, 1);
        b.br(loop_bb);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "likely-divergent-loop")
            .collect();
        assert_eq!(hits.len(), 1, "{report}");
        assert_eq!(hits[0].block, Some(BlockId(1)));
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn server_loop_with_wait_not_flagged_divergent() {
        let mut m = Module::new("m");
        let g = m.add_global("mailbox", 64);
        let mut b = FunctionBuilder::new("server", 0);
        let base = b.global_addr(g);
        let loop_bb = b.new_block();
        b.br(loop_bb);
        b.switch_to(loop_bb);
        b.wait();
        let v = b.load(base, 0, Locality::Normal);
        b.report(0, v);
        b.br(loop_bb);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.pass == "likely-divergent-loop"),
            "{report}"
        );
    }

    #[test]
    fn bounded_loop_with_feasible_exit_not_flagged_divergent() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", 0);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 8, 1, acc0, |b, i, acc| {
            b.add_into(acc, acc, i);
        });
        b.ret(Some(acc));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let report = lint_module(&m);
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.pass == "likely-divergent-loop"),
            "{report}"
        );
    }

    #[test]
    fn provable_osr_header_not_flagged() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 4096);
        let mut b = FunctionBuilder::new("sum", 0);
        let base = b.global_addr(g);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 64, 1, acc0, |b, i, acc| {
            let off = b.shl_imm(i, 3);
            let addr = b.add(base, off);
            let v = b.load(addr, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        b.ret(Some(acc));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        // The loop certifies, and its identity transfer proves.
        assert!(crate::absint::certify_module(&m)
            .iter()
            .any(|d| d.certificate().is_some()));
        let report = lint_module(&m);
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.pass == "osr-header-unprovable"),
            "{report}"
        );
    }

    #[test]
    fn unprovable_osr_header_warned() {
        // A loop whose body is a block chain longer than the prover's
        // pair budget: the header still certifies (the live state is
        // tiny), but the simulation proof runs out of budget, leaving a
        // certificate no transfer recipe can back.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("big", 0);
        b.counted_loop(0, 4, 1, |b, _i| {
            for _ in 0..4200 {
                let nb = b.new_block();
                b.br(nb);
                b.switch_to(nb);
            }
        });
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        assert!(crate::absint::certify_module(&m)
            .iter()
            .any(|d| d.certificate().is_some()));
        let report = lint_module(&m);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "osr-header-unprovable")
            .collect();
        assert_eq!(hits.len(), 1, "{report}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(
            hits[0].message.contains("cannot be proved"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn report_display_mentions_counts() {
        let f = Function::from_parts("f", 0, 4, vec![Block::new(Term::Ret(Some(Reg(3))))]);
        let (m, _) = module_with(f);
        let text = lint_module(&m).to_string();
        assert!(text.contains("1 error(s)"), "{text}");
    }
}
