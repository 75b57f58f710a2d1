//! Inter-stage invariant checking for the compilation pipeline.
//!
//! Every transformation in the protean toolchain — scalar optimization,
//! inlining, the NT-hint rewrite — must hand the next stage a module that
//! still verifies, and must not introduce reads of unassigned registers
//! into a module that had none. Bugs here are the worst kind: they
//! surface later as silently-wrong generated code. When enabled (default
//! in debug builds, opt-in through
//! [`Options::check_invariants`](crate::Options)), the pass manager
//! re-runs the [`pir::verify`] structural checks plus the
//! definite-assignment analysis after **every** stage and reports the
//! first stage that broke the module, by name.
//!
//! The definite-assignment half is *baseline-aware*: PIR registers read
//! as zero before their first write, so a workload may legally read an
//! unassigned register. [`InvariantChecker::for_module`] records whether
//! the input was clean; only a clean module is required to stay clean.

use pir::dataflow;
use pir::verify::verify_module;
use pir::{Function, Module};

use crate::compile::CompileError;

/// Re-checks pipeline invariants between transformation stages.
#[derive(Copy, Clone, Debug)]
pub struct InvariantChecker {
    check_undef: bool,
}

fn module_is_assigned_clean(module: &Module) -> bool {
    module
        .functions()
        .iter()
        .all(|f| dataflow::maybe_undef_uses(f).is_empty())
}

impl InvariantChecker {
    /// Builds a checker whose definite-assignment expectation is taken
    /// from `module` *before* any stage runs: if the input already reads
    /// unassigned (zero-valued) registers, only structural verification
    /// is enforced afterwards.
    pub fn for_module(module: &Module) -> Self {
        InvariantChecker {
            check_undef: module_is_assigned_clean(module),
        }
    }

    /// A checker that enforces both invariants unconditionally.
    pub fn strict() -> Self {
        InvariantChecker { check_undef: true }
    }

    /// Checks the invariants on `module`, attributing any violation to
    /// `stage` (a short pass name like `"fold-constants"`).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvariantViolation`] naming the stage if
    /// the module no longer verifies, or (when the baseline was clean) an
    /// instruction now reads a register that is not assigned on every
    /// path.
    pub fn check(&self, module: &Module, stage: &'static str) -> Result<(), CompileError> {
        if let Err(report) = verify_module(module) {
            return Err(CompileError::InvariantViolation {
                stage,
                detail: report.to_string(),
            });
        }
        if self.check_undef {
            for func in module.functions() {
                check_function_assigned(func, stage)?;
            }
        }
        Ok(())
    }

    /// Checks one function (same invariants, function granularity) — used
    /// by the runtime compiler on NT-transformed variants, where the rest
    /// of the module is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvariantViolation`] naming the stage.
    pub fn check_function(&self, func: &Function, stage: &'static str) -> Result<(), CompileError> {
        if self.check_undef {
            check_function_assigned(func, stage)?;
        }
        Ok(())
    }
}

fn check_function_assigned(func: &Function, stage: &'static str) -> Result<(), CompileError> {
    let undef = dataflow::maybe_undef_uses(func);
    if let Some(u) = undef.first() {
        return Err(CompileError::InvariantViolation {
            stage,
            detail: format!(
                "function `{}` {} reads {} which is not assigned on every path \
                 ({} such read(s) total)",
                func.name(),
                u.block,
                u.reg,
                undef.len()
            ),
        });
    }
    Ok(())
}

/// One-shot convenience: checks `module` with a strict checker.
///
/// # Errors
///
/// Returns [`CompileError::InvariantViolation`] naming the stage.
pub fn check_module(module: &Module, stage: &'static str) -> Result<(), CompileError> {
    InvariantChecker::strict().check(module, stage)
}

/// Checks that embedded OSR certificates are exactly the ones
/// [`pir::absint::certify_module`] derives for `module`. The analysis is
/// deterministic, so any mismatch means the metadata is stale or
/// fabricated — and a stale anchor would let the future OSR runtime
/// migrate a frame on a wrong live-state map.
///
/// # Errors
///
/// Returns [`CompileError::InvariantViolation`] naming the stage.
pub fn check_osr_certificates(
    module: &Module,
    certs: &[pir::absint::OsrCertificate],
    stage: &'static str,
) -> Result<(), CompileError> {
    let expected: Vec<pir::absint::OsrCertificate> = pir::absint::certify_module(module)
        .into_iter()
        .filter_map(|d| d.certificate().cloned())
        .collect();
    if certs != expected.as_slice() {
        return Err(CompileError::InvariantViolation {
            stage,
            detail: format!(
                "embedded OSR certificates disagree with analysis \
                 ({} embedded, {} derived)",
                certs.len(),
                expected.len()
            ),
        });
    }
    Ok(())
}

/// Checks that embedded OSR transfer recipes are exactly the ones
/// [`pir::prove_osr_transfers`] re-derives and re-proves for `module`
/// against the embedded certificates. Like the certificates, derivation
/// is deterministic; a mismatch means stale or fabricated recipes —
/// and a fabricated recipe would let the OSR runtime rebuild a frame
/// from the wrong registers.
///
/// # Errors
///
/// Returns [`CompileError::InvariantViolation`] naming the stage.
pub fn check_osr_transfer(
    module: &Module,
    certs: &[pir::absint::OsrCertificate],
    recipes: &[pir::TransferRecipe],
    stage: &'static str,
) -> Result<(), CompileError> {
    let expected: Vec<pir::TransferRecipe> =
        pir::prove_osr_transfers(module, module, certs, &pir::EquivOptions::default())
            .into_iter()
            .filter_map(|v| v.recipe().cloned())
            .collect();
    if recipes != expected.as_slice() {
        return Err(CompileError::InvariantViolation {
            stage,
            detail: format!(
                "embedded OSR transfer recipes disagree with re-proof \
                 ({} embedded, {} derived)",
                recipes.len(),
                expected.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::{Block, BlockId, FunctionBuilder, Inst, Reg, Term};

    fn ok_module() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.const_(1);
        b.ret(Some(x));
        let f = m.add_function(b.finish());
        m.set_entry(f);
        m
    }

    #[test]
    fn clean_module_passes() {
        assert!(check_module(&ok_module(), "noop").is_ok());
    }

    #[test]
    fn structural_breakage_names_the_stage() {
        let mut m = ok_module();
        // Corrupt: point the terminator at a nonexistent block.
        m.functions_mut()[0].blocks_mut()[0].term = Term::Br(BlockId(9));
        let err = check_module(&m, "fold-constants").unwrap_err();
        let CompileError::InvariantViolation { stage, detail } = err else {
            panic!("expected InvariantViolation");
        };
        assert_eq!(stage, "fold-constants");
        assert!(detail.contains("bb9"), "{detail}");
    }

    fn undef_read_module() -> Module {
        let mut m = Module::new("m");
        let mut blk = Block::new(Term::Ret(Some(Reg(1))));
        blk.insts.push(Inst::BinImm {
            op: pir::BinOp::Add,
            dst: Reg(1),
            lhs: Reg(3),
            imm: 1,
        });
        let f = Function::from_parts("main", 0, 4, vec![blk]);
        let id = m.add_function(f);
        m.set_entry(id);
        m
    }

    #[test]
    fn undef_read_is_reported_by_strict_checker() {
        let err = check_module(&undef_read_module(), "dce").unwrap_err();
        assert!(err.to_string().contains("r3"), "{err}");
    }

    #[test]
    fn dirty_baseline_relaxes_the_assignment_check() {
        let m = undef_read_module();
        // A checker baselined on the dirty module tolerates the read...
        let checker = InvariantChecker::for_module(&m);
        assert!(checker.check(&m, "noop").is_ok());
        // ...but still enforces structure.
        let mut broken = m.clone();
        broken.functions_mut()[0].blocks_mut()[0].term = Term::Br(BlockId(9));
        assert!(checker.check(&broken, "noop").is_err());
    }

    #[test]
    fn clean_baseline_enforces_the_assignment_check() {
        let checker = InvariantChecker::for_module(&ok_module());
        assert!(checker.check(&undef_read_module(), "stage").is_err());
    }

    #[test]
    fn osr_certificates_must_match_the_analysis() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", 0);
        b.counted_loop(0, 8, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let mut certs: Vec<_> = pir::absint::certify_module(&m)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!certs.is_empty());
        assert!(check_osr_certificates(&m, &certs, "osr-certify").is_ok());
        // Tampered live-state map: caught.
        certs[0].live.clear();
        let err = check_osr_certificates(&m, &certs, "osr-certify").unwrap_err();
        assert!(err.to_string().contains("OSR"), "{err}");
        // Dropped certificate: caught.
        assert!(check_osr_certificates(&m, &[], "osr-certify").is_err());
    }

    #[test]
    fn osr_recipes_must_match_the_reproof() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 64);
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.global_addr(g);
        b.counted_loop(0, 8, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            b.store(a, 0, i);
        });
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let certs: Vec<_> = pir::absint::certify_module(&m)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!certs.is_empty());
        let mut recipes: Vec<_> = certs
            .iter()
            .filter_map(|c| {
                pir::prove_osr_transfer(&m, &m, c.func, c, &pir::EquivOptions::default())
                    .recipe()
                    .cloned()
            })
            .collect();
        assert!(!recipes.is_empty(), "the loop header should prove");
        assert!(check_osr_transfer(&m, &certs, &recipes, "osr-transfer").is_ok());
        // Tampered remap: caught.
        recipes[0].moves.pop();
        let err = check_osr_transfer(&m, &certs, &recipes, "osr-transfer").unwrap_err();
        assert!(err.to_string().contains("recipes"), "{err}");
        // Dropped recipe: caught.
        assert!(check_osr_transfer(&m, &certs, &[], "osr-transfer").is_err());
    }
}
