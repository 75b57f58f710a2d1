//! Soundness fuzzing of OSR transfer recipes against the reference
//! interpreter, over the full workload catalog.
//!
//! The transfer contract is *suffix equivalence*: running the baseline
//! to its N-th certified-header hit, rebuilding the frame through a
//! [`Proved`](pir::equiv::TransferVerdict::Proved) recipe, and
//! continuing in the variant must produce observables (final data
//! segment, metric reports, parked flag) bit-identical to the
//! baseline run it continues. This harness drives
//! [`pir::interp::run_with_transfer`] as the concrete oracle for every
//! recipe the cut-point prover certifies — on pristine catalog
//! workloads, their non-temporal variants, and seeded semantic mutants.
//! A single diverging proved recipe is an unsoundness and fails the run.
//!
//! The harness also proves the prover can actually reject bad recipes:
//! corrupted recipes (rotated move sources, dropped moves, poisoned
//! compensation constants) must never re-validate as `Proved` unless
//! they are accidentally still correct, in which case the lockstep
//! oracle must agree.
//!
//! Mutations are drawn from a seeded generator so CI is reproducible;
//! set `PROTEAN_OSR_FUZZ_SEED` to explore a different stream. On a
//! failure, set `PROTEAN_OSR_DUMP` to a path to get the offending
//! module rendered with absint + OSR annotations and the recipe under
//! test appended.

use pir::absint::{self, OsrCertificate};
use pir::equiv::{EquivOptions, TransferRecipe, TransferVerdict};
use pir::interp::{self, InterpError, OsrTransferSpec};
use pir::{FuncId, FunctionBuilder, Inst, Locality, Module};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::catalog;

const LLC_LINES: u64 = 4_096;
/// Catalog drivers loop forever (batch) or park in `Wait` (server), so
/// the concrete oracle replaces the entry with a bounded driver and
/// shrinks the working sets: at 64 LLC lines every workload completes
/// in under half a million interpreter steps.
const DRIVER_LLC_LINES: u64 = 64;
const STEP_BUDGET: u64 = 5_000_000;
/// Header hits to transfer at: the first iteration, a mid-loop one, and
/// one deep enough to skip short loops entirely (`transferred == false`
/// then ends the sweep for that recipe).
const TRANSFER_HITS: [u64; 3] = [1, 3, 9];

/// The same synthetic 64-byte-aligned placement the absint and
/// equivalence fuzzers use, so failures reproduce across harnesses.
fn layout(m: &Module) -> (Vec<u64>, usize) {
    let mut addrs = Vec::new();
    let mut next = 64u64;
    for g in m.globals() {
        addrs.push(next);
        next += g.size().div_ceil(64).max(1) * 64;
    }
    (addrs, next as usize + 64)
}

fn fuzz_seed() -> u64 {
    std::env::var("PROTEAN_OSR_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0512_2014)
}

/// A per-program RNG stream: deterministic for a given base seed and
/// corpus position regardless of which pool worker runs the program.
fn program_rng(base: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(base ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every buildable catalog workload — batch and server alike.
fn corpus() -> Vec<(&'static str, Module)> {
    catalog::CATALOG
        .iter()
        .filter_map(|w| catalog::build(w.name, LLC_LINES).map(|m| (w.name, m)))
        .collect()
}

/// Replaces the entry with a bounded driver that calls every worker
/// function `rounds` times and returns. Catalog entries are infinite
/// request loops; the workers they call (and everything the OSR
/// certificates describe) terminate per call, so this yields a module
/// with the same certified headers but decidable whole-run observables.
fn terminating(m: &Module, rounds: i64) -> Module {
    let mut t = m.clone();
    let entry = t.entry().expect("catalog modules have an entry");
    let callees: Vec<FuncId> = (0..t.functions().len() as u32)
        .map(FuncId)
        .filter(|f| *f != entry)
        .collect();
    let mut b = FunctionBuilder::new("driver", 0);
    b.counted_loop(0, rounds, 1, |b, _| {
        for f in &callees {
            b.call_void(*f, &[]);
        }
    });
    b.ret(None);
    t.functions_mut()[entry.index()] = b.finish();
    t
}

/// The interpreter-facing corpus: terminating drivers over shrunken
/// working sets, re-verified so a harness bug cannot masquerade as a
/// prover bug.
fn driver_corpus() -> Vec<(&'static str, Module)> {
    catalog::CATALOG
        .iter()
        .filter_map(|w| {
            let m = catalog::build(w.name, DRIVER_LLC_LINES)?;
            let t = terminating(&m, 1);
            pir::verify::verify_module(&t).unwrap_or_else(|e| panic!("{}: driver: {e}", w.name));
            Some((w.name, t))
        })
        .collect()
}

fn certs_of(m: &Module) -> Vec<OsrCertificate> {
    absint::certify_module(m)
        .into_iter()
        .filter_map(|d| d.certificate().cloned())
        .collect()
}

/// The all-NT variant module: every load in `fid` flipped non-temporal
/// — the paper's legal transformation space, and the shape the runtime
/// actually switches into mid-loop.
fn nt_variant(m: &Module, fid: FuncId) -> Module {
    let mut v = m.clone();
    for block in v.functions_mut()[fid.index()].blocks_mut() {
        for inst in &mut block.insts {
            if let Inst::Load { locality, .. } = inst {
                *locality = Locality::NonTemporal;
            }
        }
    }
    v
}

/// Fails the test with `why`, first dumping annotated IR (and the
/// recipe under test) to `PROTEAN_OSR_DUMP` when set.
fn fail_with_dump(name: &str, m: &Module, recipe: Option<&TransferRecipe>, why: &str) -> ! {
    if let Ok(path) = std::env::var("PROTEAN_OSR_DUMP") {
        let opts = pir::PrintOptions {
            absint: true,
            osr: true,
        };
        let mut text = pir::render_module(m, &opts);
        if let Some(r) = recipe {
            text.push('\n');
            text.push_str(&pir::render_transfer_recipe(r));
            text.push('\n');
        }
        let _ = std::fs::write(&path, text);
        panic!("{name}: {why} (annotated IR dumped to {path})");
    }
    panic!("{name}: {why}");
}

/// Runs the lockstep oracle for one recipe: transfer at each pinned
/// header hit and compare observables against the baseline-from-start
/// run. That is the recipe's contract — the transferred run is the
/// *baseline's* continuation, rebuilt in the variant's frame — and for
/// the locality variants the runtime switches into it coincides with
/// variant-from-start, since the interpreter ignores NT hints. `Err`
/// describes the first divergence; runs the oracle cannot decide (step
/// budget, faults on both sides) are vacuously `Ok`.
fn lockstep(baseline: &Module, variant: &Module, recipe: &TransferRecipe) -> Result<u32, String> {
    let (addrs, size) = layout(baseline);
    let oracle = match interp::run(baseline, &addrs, size, STEP_BUDGET) {
        Ok(o) => o,
        Err(_) => return Ok(0), // no decidable oracle for this module
    };
    let mut checked = 0u32;
    for hit in TRANSFER_HITS {
        let spec = OsrTransferSpec {
            func: recipe.func,
            from_block: recipe.baseline_header,
            to_block: recipe.variant_header,
            hit,
            moves: &recipe.moves,
            consts: &recipe.consts,
        };
        let t = match interp::run_with_transfer(baseline, variant, &spec, &addrs, size, STEP_BUDGET)
        {
            Ok(t) => t,
            // An exhausted budget is inconclusive, not a divergence.
            Err(InterpError::StepBudgetExceeded) => break,
            Err(e) => return Err(format!("transfer at hit {hit}: interpreter error: {e}")),
        };
        if !t.transferred {
            break; // the loop finished before this hit; deeper hits won't fire
        }
        if t.result.data != oracle.data
            || t.result.reports != oracle.reports
            || t.result.parked != oracle.parked
        {
            return Err(format!(
                "transfer at hit {hit}: observables diverge from the \
                 variant-from-start oracle"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

#[test]
fn proved_recipes_cover_most_certified_headers() {
    let corpus = corpus();
    assert!(corpus.len() >= 20, "catalog shrank to {}", corpus.len());
    let per_program = protean_bench::pool::map(&corpus, |_, (name, m)| {
        let opts = EquivOptions::default();
        let certs = certs_of(m);
        let verdicts: Vec<TransferVerdict> = certs
            .iter()
            .map(|cert| pir::prove_osr_transfer(m, m, cert.func, cert, &opts))
            .collect();
        // Proving all of a module's transfers under one analysis context
        // changes no verdict, against the module itself or an NT variant.
        assert!(
            pir::prove_osr_transfers(m, m, &certs, &opts) == verdicts,
            "{name}: batched self-transfer verdicts differ from one-by-one proofs"
        );
        if let Some(first) = certs.first() {
            let vmod = nt_variant(m, first.func);
            let one_by_one: Vec<TransferVerdict> = certs
                .iter()
                .map(|cert| pir::prove_osr_transfer(m, &vmod, cert.func, cert, &opts))
                .collect();
            assert!(
                pir::prove_osr_transfers(m, &vmod, &certs, &opts) == one_by_one,
                "{name}: batched NT-variant verdicts differ from one-by-one proofs"
            );
        }
        let mut proved = 0usize;
        for (cert, verdict) in certs.iter().zip(verdicts) {
            match verdict {
                TransferVerdict::Proved { .. } => proved += 1,
                TransferVerdict::Refuted(cex) => fail_with_dump(
                    name,
                    m,
                    None,
                    &format!("identity self-transfer refuted at {}: {cex}", cert.header),
                ),
                TransferVerdict::Unproved { .. } => {}
            }
        }
        (certs.len(), proved)
    });
    let certified: usize = per_program.iter().map(|(c, _)| c).sum();
    let proved: usize = per_program.iter().map(|(_, p)| p).sum();
    assert!(certified > 0, "catalog has no certified headers?");
    // The acceptance bar: at least 60% of certified headers carry a
    // proved transfer recipe. Soundness is absolute; coverage is the
    // tuning knob this guards.
    assert!(
        proved * 10 >= certified * 6,
        "only {proved}/{certified} certified headers proved a transfer recipe"
    );
}

/// A protean compile proves a transfer per certified header, but its
/// analysis lookups follow the module's functions, not its certificates:
/// one effects lookup per batch of proofs (a second when
/// `check_invariants` re-proves the embedded recipes), and a small
/// multiple of the function count in abstract-state lookups.
#[test]
fn protean_compile_lookups_do_not_grow_with_certificates() {
    let m = catalog::build("milc", LLC_LINES).expect("milc");
    let certs = certs_of(&m).len() as u64;
    let funcs = m.functions().len() as u64;
    assert!(
        certs > funcs,
        "milc has {certs} certificates in {funcs} functions"
    );
    let opts = pcc::Options::protean();
    let lookups = |s: pir::CacheStats| s.hits + s.misses;
    let (fx0, ab0) = (pir::effects::cache_stats(), absint::cache_stats());
    pcc::Compiler::new(opts)
        .compile(&m)
        .expect("protean compile");
    let fx = lookups(pir::effects::cache_stats()) - lookups(fx0);
    let ab = lookups(absint::cache_stats()) - lookups(ab0);
    let batches = 1 + u64::from(opts.check_invariants);
    assert_eq!(fx, batches, "effects lookups for {certs} certificates");
    assert!(
        ab <= 2 * batches * funcs,
        "{ab} absint lookups for {certs} certificates in {funcs} functions"
    );
}

#[test]
fn proved_recipes_pass_the_interpreter_lockstep_oracle() {
    let corpus = driver_corpus();
    assert!(!corpus.is_empty());
    let per_program = protean_bench::pool::map(&corpus, |_, (name, m)| {
        let mut checked = 0u32;
        for cert in certs_of(m) {
            // Identity transfer (baseline to itself)…
            if let Some(recipe) =
                pir::prove_osr_transfer(m, m, cert.func, &cert, &EquivOptions::default())
                    .recipe()
                    .cloned()
            {
                match lockstep(m, m, &recipe) {
                    Ok(n) => checked += n,
                    Err(why) => fail_with_dump(name, m, Some(&recipe), &why),
                }
            }
            // …and the switch the runtime actually performs: into the
            // all-NT variant of the certified function.
            let vmod = nt_variant(m, cert.func);
            if let Some(recipe) =
                pir::prove_osr_transfer(m, &vmod, cert.func, &cert, &EquivOptions::default())
                    .recipe()
                    .cloned()
            {
                match lockstep(m, &vmod, &recipe) {
                    Ok(n) => checked += n,
                    Err(why) => fail_with_dump(name, &vmod, Some(&recipe), &why),
                }
            }
        }
        checked
    });
    let checked: u32 = per_program.iter().sum();
    assert!(
        checked >= 50,
        "only {checked} transfer runs exercised the lockstep oracle"
    );
}

/// One random semantics-affecting edit inside function `fi` — the same
/// edit space as the absint fuzzer, so the harnesses stress the prover
/// on comparable mutants. Confined to one function because a transfer
/// proof's contract is frame-scoped: it says nothing about functions
/// the certified frame never executes.
fn mutate(m: &mut Module, fi: usize, rng: &mut StdRng) -> Option<String> {
    for _ in 0..16 {
        let func = &mut m.functions_mut()[fi];
        let bi = rng.gen_range(0..func.block_count());
        let block = &mut func.blocks_mut()[bi];
        if block.insts.is_empty() {
            continue;
        }
        let ii = rng.gen_range(0..block.insts.len());
        let delta = 1 + rng.gen_range(0i64..7);
        let what = match &mut block.insts[ii] {
            Inst::BinImm { imm, .. } => {
                *imm = imm.wrapping_add(delta);
                "BinImm imm changed"
            }
            Inst::Const { value, .. } => {
                *value = value.wrapping_add(delta);
                "Const value changed"
            }
            Inst::Store { offset, .. } => {
                *offset += 8;
                "Store offset shifted"
            }
            _ => continue,
        };
        return Some(format!("f{fi} bb{bi}[{ii}]: {what}"));
    }
    None
}

#[test]
fn mutant_transfers_never_prove_unsoundly() {
    let corpus = driver_corpus();
    assert!(!corpus.is_empty());
    let seed = fuzz_seed();
    let per_program = protean_bench::pool::map(&corpus, |idx, (name, m)| {
        let mut rng = program_rng(seed, idx);
        let mut exercised = 0u32;
        // Baseline -> mutant transfers, with the mutation confined to
        // the certified function so the frame-scoped proof obligation
        // actually covers it. The edit usually breaks suffix
        // equivalence, so Proved is only acceptable when the concrete
        // oracle agrees with it (a mutation in the pre-header prefix,
        // which the transfer skips, is legitimately provable).
        for cert in &certs_of(m) {
            for _ in 0..3 {
                let mut mutant = m.clone();
                let Some(what) = mutate(&mut mutant, cert.func.index(), &mut rng) else {
                    continue;
                };
                if pir::verify::verify_module(&mutant).is_err() {
                    continue;
                }
                let verdict =
                    pir::prove_osr_transfer(m, &mutant, cert.func, cert, &EquivOptions::default());
                if let Some(recipe) = verdict.recipe().cloned() {
                    if let Err(why) = lockstep(m, &mutant, &recipe) {
                        fail_with_dump(
                            name,
                            &mutant,
                            Some(&recipe),
                            &format!("{what}: proved transfer into a diverging mutant: {why}"),
                        );
                    }
                }
                exercised += 1;
            }
        }
        exercised
    });
    let exercised: u32 = per_program.iter().sum();
    assert!(
        exercised >= 20,
        "only {exercised} mutant transfers exercised"
    );
}

/// Corrupts a proved recipe in one of three ways. Returns `None` when
/// the recipe is too small for the drawn corruption.
fn corrupt(recipe: &TransferRecipe, rng: &mut StdRng) -> Option<(TransferRecipe, &'static str)> {
    let mut r = recipe.clone();
    match rng.gen_range(0..3u32) {
        0 if r.moves.len() > 1 => {
            let srcs: Vec<_> = r.moves.iter().map(|&(_, s)| s).collect();
            for (i, mv) in r.moves.iter_mut().enumerate() {
                mv.1 = srcs[(i + 1) % srcs.len()];
            }
            Some((r, "rotated move sources"))
        }
        1 if !r.moves.is_empty() => {
            let i = rng.gen_range(0..r.moves.len());
            r.moves.remove(i);
            Some((r, "dropped a move"))
        }
        2 if !r.moves.is_empty() => {
            let (dst, _) = r.moves[rng.gen_range(0..r.moves.len())];
            r.consts.push((dst, 0x5EED));
            Some((r, "poisoned a compensation constant"))
        }
        _ => None,
    }
}

#[test]
fn corrupted_recipes_are_rejected_or_provably_harmless() {
    let corpus = driver_corpus();
    assert!(!corpus.is_empty());
    let seed = fuzz_seed();
    let per_program = protean_bench::pool::map(&corpus, |idx, (name, m)| {
        let mut rng = program_rng(seed, idx ^ 0x0521);
        let mut rejected = 0u32;
        let mut refuted = 0u32;
        for cert in certs_of(m) {
            let Some(recipe) =
                pir::prove_osr_transfer(m, m, cert.func, &cert, &EquivOptions::default())
                    .recipe()
                    .cloned()
            else {
                continue;
            };
            for _ in 0..4 {
                let Some((bad, what)) = corrupt(&recipe, &mut rng) else {
                    continue;
                };
                if bad == recipe {
                    continue;
                }
                match pir::validate_osr_transfer(
                    m,
                    m,
                    cert.func,
                    &cert,
                    &bad,
                    &EquivOptions::default(),
                ) {
                    // A corruption can be accidentally semantics-preserving
                    // (e.g. rotating sources that hold equal values); a
                    // Proved verdict is then only acceptable if the
                    // concrete oracle agrees.
                    TransferVerdict::Proved { .. } => {
                        if let Err(why) = lockstep(m, m, &bad) {
                            fail_with_dump(
                                name,
                                m,
                                Some(&bad),
                                &format!("{what}: corrupted recipe proved yet diverges: {why}"),
                            );
                        }
                    }
                    TransferVerdict::Refuted(_) => {
                        rejected += 1;
                        refuted += 1;
                    }
                    TransferVerdict::Unproved { .. } => rejected += 1,
                }
            }
        }
        (rejected, refuted)
    });
    let rejected: u32 = per_program.iter().map(|(r, _)| r).sum();
    let refuted: u32 = per_program.iter().map(|(_, x)| x).sum();
    assert!(rejected >= 20, "only {rejected} corruptions rejected");
    // The refutation path (concrete counterexample confirmed by the
    // interpreter) must actually fire, not just typed refusals.
    assert!(refuted >= 1, "no corruption was concretely refuted");
}

#[test]
fn embedded_recipes_rederive_on_compiled_catalog_modules() {
    let corpus = corpus();
    let mut with_recipes = 0u32;
    for (name, m) in corpus.iter().take(6) {
        let out = match pcc::Compiler::new(pcc::Options::protean()).compile(m) {
            Ok(out) => out,
            Err(e) => panic!("{name}: {e}"),
        };
        let meta = out.meta.as_ref().expect("protean output embeds meta");
        // The inter-stage invariant holds on the final module: embedded
        // recipes are exactly what a re-proof derives.
        pcc::invariants::check_osr_transfer(&meta.module, &meta.osr, &meta.osr_recipes, "final")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // And the wire format round-trips them bit-for-bit.
        let back = pcc::EmbeddedMeta::from_blob(&meta.to_blob()).expect("blob decodes");
        assert_eq!(
            back.osr_recipes, meta.osr_recipes,
            "{name}: wire roundtrip changed recipes"
        );
        if !meta.osr_recipes.is_empty() {
            with_recipes += 1;
        }
    }
    assert!(
        with_recipes >= 1,
        "no compiled workload carried transfer recipes"
    );
}
