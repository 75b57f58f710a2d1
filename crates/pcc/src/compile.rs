//! Whole-module compilation and runtime variant compilation.

use std::error::Error;
use std::fmt;

use pir::verify::{verify_module, VerifyReport};
use pir::{FuncId, GlobalInit, Module};
use visa::{EvtEntry, FuncSym, GlobalSym, Image, MetaDesc, Op};

use crate::annex::{EmbeddedMeta, LinkInfo};
use crate::layout;
use crate::lower::{lower_function, lowered_size, LowerCtx};
use crate::nt::NtAssignment;
use crate::virtualize::EdgePolicy;

/// Compilation options.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Options {
    /// Produce a protean binary: virtualize edges and embed metadata.
    pub protean: bool,
    /// Edge-selection policy (ignored when `protean` is false).
    pub edge_policy: EdgePolicy,
    /// Embed the compressed IR + link annex (ignored when `protean` is
    /// false; protean binaries normally embed it).
    pub embed_ir: bool,
    /// Run the scalar optimization pipeline (fold/propagate/DCE/compact)
    /// before lowering. The embedded IR is the optimized module, so the
    /// runtime compiler starts from what actually runs.
    pub optimize: bool,
    /// Re-run the verifier and the definite-assignment analysis after
    /// every transformation stage, failing the compile with
    /// [`CompileError::InvariantViolation`] naming the stage that broke
    /// the module. Defaults to on in debug builds, off in release.
    pub check_invariants: bool,
    /// Translation validation: prove every optimization stage's output
    /// observationally equivalent to its input with [`pir::equiv`],
    /// failing the compile with [`CompileError::TranslationRefuted`]
    /// naming the offending stage. Stronger (and costlier) than
    /// `check_invariants`; off by default.
    pub validate_translations: bool,
}

impl Options {
    /// Plain (non-protean) compilation, like an ordinary `-O2` build.
    pub fn plain() -> Self {
        Options {
            protean: false,
            edge_policy: EdgePolicy::Never,
            embed_ir: false,
            optimize: false,
            check_invariants: cfg!(debug_assertions),
            validate_translations: false,
        }
    }

    /// Protean compilation with the paper's default edge policy.
    pub fn protean() -> Self {
        Options {
            protean: true,
            edge_policy: EdgePolicy::default(),
            embed_ir: true,
            optimize: false,
            check_invariants: cfg!(debug_assertions),
            validate_translations: false,
        }
    }

    /// Enables the scalar optimization pipeline.
    pub fn with_optimization(mut self) -> Self {
        self.optimize = true;
        self
    }

    /// Enables (or disables) inter-stage invariant checking regardless of
    /// build profile.
    pub fn with_invariant_checks(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Enables (or disables) per-stage translation validation with
    /// [`pir::equiv`].
    pub fn with_translation_validation(mut self, on: bool) -> Self {
        self.validate_translations = on;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::protean()
    }
}

/// A compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The input module failed verification (all violations reported).
    Verify(VerifyReport),
    /// A transformation stage handed the next stage a broken module.
    InvariantViolation {
        /// The stage that broke the module (e.g. `"fold-constants"`).
        stage: &'static str,
        /// Human-readable description of the breakage.
        detail: String,
    },
    /// Translation validation *refuted* a stage's output: the embedded
    /// [`pir::equiv::EquivReport`] carries an interpreter-confirmed
    /// counterexample trace naming the function, block pair, and first
    /// diverging event.
    TranslationRefuted {
        /// The stage whose output failed validation.
        stage: &'static str,
        /// Per-function verdicts for the offending stage transition.
        report: pir::equiv::EquivReport,
    },
    /// Translation validation could not *prove* a stage's output
    /// equivalent, without demonstrating a concrete divergence either
    /// (irreducible control flow, exhausted budgets, unconfirmed
    /// mismatches). The checked paths require provability, so this still
    /// fails the compile — but the output may well be correct, and no
    /// counterexample exists.
    TranslationUnproved {
        /// The stage whose output could not be proved.
        stage: &'static str,
        /// Per-function verdicts, including the `Unknown` reasons.
        report: pir::equiv::EquivReport,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Verify(e) => write!(f, "module verification failed: {e}"),
            CompileError::InvariantViolation { stage, detail } => {
                write!(f, "stage `{stage}` broke a module invariant: {detail}")
            }
            CompileError::TranslationRefuted { stage, report } => {
                write!(f, "stage `{stage}` failed translation validation: {report}")
            }
            CompileError::TranslationUnproved { stage, report } => {
                write!(
                    f,
                    "stage `{stage}` could not be proved equivalent \
                     (no counterexample found either): {report}"
                )
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Verify(e) => Some(e),
            CompileError::InvariantViolation { .. }
            | CompileError::TranslationRefuted { .. }
            | CompileError::TranslationUnproved { .. } => None,
        }
    }
}

impl From<VerifyReport> for CompileError {
    fn from(e: VerifyReport) -> Self {
        CompileError::Verify(e)
    }
}

/// Result of a compilation: the image plus (for protean builds) the
/// metadata that was embedded, returned directly for convenience.
#[derive(Clone, Debug)]
pub struct Output {
    /// The executable image.
    pub image: Image,
    /// The embedded metadata (what a runtime will discover), if protean.
    pub meta: Option<EmbeddedMeta>,
}

/// The protean code compiler.
#[derive(Copy, Clone, Debug, Default)]
pub struct Compiler {
    options: Options,
}

impl Compiler {
    /// Creates a compiler with the given options.
    pub fn new(options: Options) -> Self {
        Compiler { options }
    }

    /// The compiler's options.
    pub fn options(&self) -> Options {
        self.options
    }

    /// Compiles `module` into an executable image.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if the module is malformed.
    pub fn compile(&self, module: &Module) -> Result<Output, CompileError> {
        verify_module(module)?;
        let opts = self.options;
        let optimized;
        let module = if opts.optimize {
            let mut m = module.clone();
            if opts.validate_translations {
                crate::opt::optimize_module_validated(&mut m)?;
            } else if opts.check_invariants {
                crate::opt::optimize_module_checked(&mut m)?;
            } else {
                crate::opt::optimize_module(&mut m);
            }
            optimized = m;
            &optimized
        } else {
            module
        };

        // 1. Edge virtualization: one EVT slot per virtualized callee.
        let func_evt_slot = if opts.protean {
            opts.edge_policy.assign_slots(module)
        } else {
            vec![None; module.functions().len()]
        };
        let evt_len = func_evt_slot.iter().flatten().count() as u32;

        // 2. Text layout: function sizes are address-independent.
        let sizes: Vec<u32> = module.functions().iter().map(lowered_size).collect();
        let mut func_addrs = Vec::with_capacity(sizes.len());
        let mut cursor = 0u32;
        for s in &sizes {
            func_addrs.push(cursor);
            cursor += s;
        }

        // 3. Data layout. Global addresses and the EVT base do not depend
        //    on the IR blob length (the blob comes last), so we can build
        //    the link info, encode the blob, then finalize.
        let prelim = layout::compute(module, evt_len, 0);
        let link = LinkInfo {
            func_addrs: func_addrs.clone(),
            func_evt_slot: func_evt_slot.clone(),
            global_addrs: prelim.global_addrs.clone(),
            evt_base: prelim.evt_base,
        };
        let (blob, meta) = if opts.protean && opts.embed_ir {
            // Certified OSR anchors ride along with the IR so the future
            // OSR runtime (ROADMAP item 3) never re-derives them online.
            let osr: Vec<pir::OsrCertificate> = pir::absint::certify_module(module)
                .into_iter()
                .filter_map(|d| d.certificate().cloned())
                .collect();
            // One proved transfer recipe per certificate the cut-point
            // prover can close against the module itself (identity
            // remap), all proved under one analysis context.
            // Shape-identical NT variants inherit these verbatim at the
            // gate; rewritten variants get re-proved there.
            let osr_recipes =
                pir::prove_osr_transfers(module, module, &osr, &pir::EquivOptions::default())
                    .into_iter()
                    .filter_map(|v| v.recipe().cloned())
                    .collect();
            let meta = EmbeddedMeta {
                module: module.clone(),
                link: link.clone(),
                osr,
                osr_recipes,
            };
            (meta.to_blob(), Some(meta))
        } else {
            (Vec::new(), None)
        };
        if opts.check_invariants {
            if let Some(meta) = &meta {
                crate::invariants::check_osr_certificates(module, &meta.osr, "osr-certify")?;
                crate::invariants::check_osr_transfer(
                    module,
                    &meta.osr,
                    &meta.osr_recipes,
                    "osr-transfer",
                )?;
            }
        }
        let lay = layout::compute(module, evt_len, blob.len() as u64);
        debug_assert_eq!(lay.global_addrs, prelim.global_addrs);
        debug_assert_eq!(lay.evt_base, prelim.evt_base);

        // 4. Build the data segment.
        let mut data = vec![0u8; lay.total_size as usize];
        for (g, addr) in module.globals().iter().zip(&lay.global_addrs) {
            if let GlobalInit::Words(words) = g.init() {
                let mut a = *addr as usize;
                for w in words {
                    data[a..a + 8].copy_from_slice(&w.to_le_bytes());
                    a += 8;
                }
            }
        }
        let mut evt = Vec::with_capacity(evt_len as usize);
        for (fi, slot) in func_evt_slot.iter().enumerate() {
            if let Some(slot) = slot {
                let target = func_addrs[fi];
                let cell = (lay.evt_base + 8 * u64::from(*slot)) as usize;
                data[cell..cell + 8].copy_from_slice(&u64::from(target).to_le_bytes());
                evt.push(EvtEntry {
                    slot: *slot,
                    callee: FuncId(fi as u32),
                    original_target: target,
                });
            }
        }
        evt.sort_by_key(|e| e.slot);
        let meta_desc = if opts.protean {
            let desc = MetaDesc {
                evt_base: lay.evt_base,
                evt_len,
                ir_addr: lay.ir_addr,
                ir_len: blob.len() as u64,
            };
            desc.write_root(&mut data);
            data[lay.ir_addr as usize..lay.ir_addr as usize + blob.len()].copy_from_slice(&blob);
            Some(desc)
        } else {
            None
        };

        // 5. Lower every function.
        let ctx = LowerCtx {
            module,
            link: &link,
            virtualize: opts.protean,
        };
        let mut text: Vec<Op> = Vec::with_capacity(cursor as usize);
        let mut funcs = Vec::with_capacity(module.functions().len());
        for (fi, func) in module.functions().iter().enumerate() {
            let base = func_addrs[fi];
            debug_assert_eq!(base as usize, text.len());
            text.extend(lower_function(func, &ctx, base));
            funcs.push(FuncSym {
                name: func.name().to_string(),
                func: FuncId(fi as u32),
                start: base,
                len: sizes[fi],
            });
        }

        let globals = module
            .globals()
            .iter()
            .zip(&lay.global_addrs)
            .map(|(g, addr)| GlobalSym {
                name: g.name().to_string(),
                addr: *addr,
                size: g.size(),
            })
            .collect();

        let entry_fn = module.entry().expect("verified module has an entry");
        let image = Image {
            name: module.name().to_string(),
            entry: func_addrs[entry_fn.index()],
            text,
            data,
            funcs,
            globals,
            evt,
            meta: meta_desc,
        };
        debug_assert_eq!(image.validate(), Ok(()));
        Ok(Output { image, meta })
    }
}

/// The runtime compiler's entry point: lowers function `fid` of `module`
/// with the non-temporal hints in `nt` applied, at code-cache address
/// `base`. Calls out of the variant use the original link facts, so the
/// variant composes with the rest of the running program.
pub fn compile_function_variant(
    module: &Module,
    fid: FuncId,
    nt: &NtAssignment,
    link: &LinkInfo,
    base: u32,
) -> Vec<Op> {
    let variant = nt.apply_to(module.function(fid), fid);
    let ctx = LowerCtx {
        module,
        link,
        virtualize: true,
    };
    lower_function(&variant, &ctx, base)
}

/// True when the two bodies are syntactically identical except for load
/// locality bits — exactly the shape a correct NT transform produces.
fn identical_modulo_locality(baseline: &pir::Function, variant: &pir::Function) -> bool {
    use pir::Inst;
    baseline.params() == variant.params()
        && baseline.block_count() == variant.block_count()
        && baseline
            .blocks()
            .iter()
            .zip(variant.blocks())
            .all(|(b, v)| {
                b.term == v.term
                    && b.insts.len() == v.insts.len()
                    && b.insts.iter().zip(&v.insts).all(|(bi, vi)| match (bi, vi) {
                        (
                            Inst::Load {
                                dst: da,
                                base: ba,
                                offset: oa,
                                ..
                            },
                            Inst::Load {
                                dst: db,
                                base: bb,
                                offset: ob,
                                ..
                            },
                        ) => da == db && ba == bb && oa == ob,
                        _ => bi == vi,
                    })
            })
}

/// [`compile_function_variant`] with the inter-stage invariants checked
/// and the NT transformation translation-validated before lowering. The
/// NT rewrite is shape-preserving, so a variant that is syntactically
/// identical to the baseline modulo load-locality bits is accepted
/// outright; anything else must be equiv-proved against the baseline
/// (any number of NT flips is fine — that is the transformation).
///
/// # Errors
///
/// Returns [`CompileError::InvariantViolation`] (stage `"nt-transform"`)
/// if the transformed function no longer verifies or reads an unassigned
/// register, [`CompileError::TranslationRefuted`] if the prover produced
/// a concrete counterexample, and [`CompileError::TranslationUnproved`]
/// if equivalence could be neither proved nor refuted (the checked path
/// requires provability).
pub fn compile_function_variant_checked(
    module: &Module,
    fid: FuncId,
    nt: &NtAssignment,
    link: &LinkInfo,
    base: u32,
) -> Result<Vec<Op>, CompileError> {
    let variant = nt.apply_to(module.function(fid), fid);
    let arities: Vec<u32> = module.functions().iter().map(|f| f.params()).collect();
    let globals = module.globals().len() as u32;
    if let Err(report) = pir::verify::verify_function_in(&variant, &arities, globals) {
        return Err(CompileError::InvariantViolation {
            stage: "nt-transform",
            detail: report.to_string(),
        });
    }
    // Baseline the assignment check on the original function: the NT
    // rewrite must not introduce undefined reads, but a workload that
    // legally reads zero-initialized registers stays compilable.
    let clean = pir::dataflow::maybe_undef_uses(module.function(fid)).is_empty();
    if clean {
        crate::invariants::InvariantChecker::strict().check_function(&variant, "nt-transform")?;
    }
    // Translation validation, cheapest tier first: a locality-only delta
    // is legal by definition; only an unexpected shape change (a buggy
    // NtAssignment::apply_to) invokes the prover.
    if !identical_modulo_locality(module.function(fid), &variant) {
        let mut vmod = module.clone();
        vmod.functions_mut()[fid.index()] = variant.clone();
        let verdict =
            pir::equiv::check_function_in(module, &vmod, fid, &pir::equiv::EquivOptions::default());
        let wrap = |verdict| {
            pir::equiv::EquivReport::from_results(vec![(
                module.function(fid).name().to_string(),
                verdict,
            )])
        };
        match verdict {
            pir::equiv::Verdict::Proved { .. } => {}
            v @ pir::equiv::Verdict::Refuted(_) => {
                return Err(CompileError::TranslationRefuted {
                    stage: "nt-transform",
                    report: wrap(v),
                });
            }
            v @ pir::equiv::Verdict::Unknown { .. } => {
                return Err(CompileError::TranslationUnproved {
                    stage: "nt-transform",
                    report: wrap(v),
                });
            }
        }
    }
    let ctx = LowerCtx {
        module,
        link,
        virtualize: true,
    };
    Ok(lower_function(&variant, &ctx, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::{FunctionBuilder, Locality};

    /// main() { s = 0; for i in 0..64 { s += buf[i] }; buf2[0] = s } with
    /// a helper function making the call graph non-trivial.
    fn program() -> Module {
        let mut m = Module::new("p");
        let buf = m.add_global_full(pir::Global::with_words(
            "buf",
            (0..64).map(|i| i as i64).collect(),
        ));
        let out = m.add_global("out", 64);
        // helper(sum) { return sum * 2; } - multi-block so it virtualizes
        let mut h = FunctionBuilder::new("helper", 1);
        let p = h.param(0);
        let doubled = h.mul_imm(p, 2);
        let t = h.new_block();
        h.br(t);
        h.switch_to(t);
        h.ret(Some(doubled));
        let hid = m.add_function(h.finish());
        // main
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.global_addr(buf);
        let outa = b.global_addr(out);
        let acc = b.const_(0);
        b.counted_loop(0, 64, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let addr = b.add(base, off);
            let v = b.load(addr, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        let r = b.call(hid, &[acc]);
        b.store(outa, 0, r);
        b.ret(None);
        let mid = m.add_function(b.finish());
        m.set_entry(mid);
        m
    }

    #[test]
    fn plain_compile_validates() {
        let out = Compiler::new(Options::plain()).compile(&program()).unwrap();
        assert_eq!(out.image.validate(), Ok(()));
        assert!(!out.image.is_protean());
        assert!(out.image.evt.is_empty());
        assert!(out.meta.is_none());
    }

    #[test]
    fn protean_compile_has_evt_and_meta() {
        let out = Compiler::new(Options::protean())
            .compile(&program())
            .unwrap();
        let img = &out.image;
        assert_eq!(img.validate(), Ok(()));
        assert!(img.is_protean());
        assert_eq!(img.evt.len(), 1, "helper is called and multi-block");
        // CallVirt appears in text.
        assert!(img.text.iter().any(|o| matches!(o, Op::CallVirt { .. })));
        // The metadata is discoverable from raw data memory.
        let desc = MetaDesc::read_root(&img.data).expect("meta root present");
        assert_eq!(Some(desc), img.meta);
        let blob = &img.data[desc.ir_addr as usize..(desc.ir_addr + desc.ir_len) as usize];
        let meta = EmbeddedMeta::from_blob(blob).expect("embedded meta decodes");
        assert_eq!(meta.module, program());
        assert_eq!(Some(&meta), out.meta.as_ref());
        // OSR anchors ride along and survive the wire format: the counted
        // loop in `main` certifies, and the embedded set is exactly what
        // the analysis derives.
        let expected: Vec<_> = pir::absint::certify_module(&meta.module)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!expected.is_empty(), "main's loop should certify");
        assert_eq!(meta.osr, expected);
    }

    #[test]
    fn evt_cells_initialized_to_original_targets() {
        let out = Compiler::new(Options::protean())
            .compile(&program())
            .unwrap();
        let img = &out.image;
        let desc = img.meta.unwrap();
        for e in &img.evt {
            let cell = (desc.evt_base + 8 * u64::from(e.slot)) as usize;
            let v = u64::from_le_bytes(img.data[cell..cell + 8].try_into().unwrap());
            assert_eq!(v, u64::from(e.original_target));
        }
    }

    #[test]
    fn function_symbols_cover_text_exactly() {
        let out = Compiler::new(Options::protean())
            .compile(&program())
            .unwrap();
        let img = &out.image;
        let total: u32 = img.funcs.iter().map(|f| f.len).sum();
        assert_eq!(total, img.text_len());
        // Contiguous and sorted.
        let mut cursor = 0;
        for f in &img.funcs {
            assert_eq!(f.start, cursor);
            cursor += f.len;
        }
    }

    #[test]
    fn variant_compilation_adds_prefetches() {
        let m = program();
        let out = Compiler::new(Options::protean()).compile(&m).unwrap();
        let meta = out.meta.unwrap();
        let main_id = m.function_by_name("main").unwrap();
        let sites: Vec<_> = pir::load_sites(&m)
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == main_id)
            .collect();
        assert!(!sites.is_empty());
        let nt = NtAssignment::all(sites.iter().copied());
        let base = out.image.text_len();
        let variant = compile_function_variant(&m, main_id, &nt, &meta.link, base);
        let prefetches = variant
            .iter()
            .filter(|o| matches!(o, Op::PrefetchNta { .. }))
            .count();
        assert_eq!(prefetches, sites.len());
        // The empty assignment reproduces the original lowering.
        let original = compile_function_variant(&m, main_id, &NtAssignment::none(), &meta.link, 0);
        let sym = out.image.func_sym(main_id).unwrap();
        let orig_text = &out.image.text[sym.start as usize..(sym.start + sym.len) as usize];
        assert_eq!(original.len(), orig_text.len());
    }

    #[test]
    fn never_policy_produces_no_callvirt() {
        let opts = Options {
            edge_policy: EdgePolicy::Never,
            ..Options::protean()
        };
        let out = Compiler::new(opts).compile(&program()).unwrap();
        assert!(out.image.is_protean());
        assert!(out.image.evt.is_empty());
        assert!(!out
            .image
            .text
            .iter()
            .any(|o| matches!(o, Op::CallVirt { .. })));
    }

    #[test]
    fn invalid_module_rejected() {
        let m = Module::new("empty"); // no entry
        let err = Compiler::new(Options::plain()).compile(&m).unwrap_err();
        assert!(matches!(err, CompileError::Verify(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn global_initializers_written() {
        let out = Compiler::new(Options::plain()).compile(&program()).unwrap();
        let img = &out.image;
        let g = img.global_by_name("buf").unwrap();
        let first = i64::from_le_bytes(
            img.data[g.addr as usize..g.addr as usize + 8]
                .try_into()
                .unwrap(),
        );
        let third = i64::from_le_bytes(
            img.data[g.addr as usize + 16..g.addr as usize + 24]
                .try_into()
                .unwrap(),
        );
        assert_eq!(first, 0);
        assert_eq!(third, 2);
    }
}
