//! Mutation-based robustness tests for the analysis layer.
//!
//! Two complementary properties over the real benchmark catalog:
//!
//! * **Soundness of rejection** — deliberately corrupting a workload
//!   module (dangling branch target, out-of-range register, bogus
//!   callee/arity/global) must always be caught by
//!   [`pir::verify::verify_module`]. The verifier is the gatekeeper for
//!   everything downstream (the pass manager's invariant checks, the
//!   runtime's dispatch gate), so a mutation slipping through here would
//!   undermine all of them.
//! * **Cleanliness of the shipped programs** — every pristine catalog
//!   program verifies and reads only registers assigned on every path, so
//!   the definite-assignment checks of the compiler and the safety gate
//!   run over real modules without false alarms.

use std::sync::OnceLock;

use proptest::prelude::*;

use pir::verify::verify_module;
use pir::{dataflow, BlockId, FuncId, GlobalId, Inst, Module, Reg, Term};
use workloads::catalog;

const LLC_LINES: u64 = 16_384;

/// A few structurally diverse catalog programs, built once (streaming,
/// LLC-resident, pointer-chasing, and a latency-sensitive server).
fn corpus() -> &'static [Module] {
    static CORPUS: OnceLock<Vec<Module>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        ["libquantum", "bst", "milc", "web-search"]
            .iter()
            .map(|n| catalog::build(n, LLC_LINES).expect("catalog workload"))
            .collect()
    })
}

/// Kinds of corruption, each guaranteed to be structurally invalid.
#[derive(Copy, Clone, Debug)]
enum Mutation {
    DanglingBranch,
    OutOfRangeReg,
    BogusCallee,
    ExtraCallArg,
    BogusGlobal,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::DanglingBranch,
    Mutation::OutOfRangeReg,
    Mutation::BogusCallee,
    Mutation::ExtraCallArg,
    Mutation::BogusGlobal,
];

/// Applies `mutation` somewhere in `module`, steering the choice of
/// function/block/instruction with `seed`. Returns false if no
/// applicable site exists (e.g. no call instruction for a call mutation).
fn mutate(module: &mut Module, mutation: Mutation, seed: usize) -> bool {
    let nfuncs = module.functions().len();
    let nglobals = module.globals().len() as u32;
    for probe in 0..nfuncs {
        let fi = (seed + probe) % nfuncs;
        let func = &mut module.functions_mut()[fi];
        let nblocks = func.block_count();
        let reg_count = func.reg_count();
        for bprobe in 0..nblocks {
            let bi = (seed + bprobe) % nblocks;
            let block = &mut func.blocks_mut()[bi];
            if apply_to_block(block, mutation, nblocks, reg_count, nfuncs, nglobals) {
                return true;
            }
        }
    }
    false
}

fn apply_to_block(
    block: &mut pir::Block,
    mutation: Mutation,
    nblocks: usize,
    reg_count: u32,
    nfuncs: usize,
    nglobals: u32,
) -> bool {
    match mutation {
        Mutation::DanglingBranch => {
            block.term = Term::Br(BlockId(nblocks as u32 + 7));
            true
        }
        Mutation::OutOfRangeReg => {
            if let Some(inst) = block.insts.iter_mut().find(|i| i.dst().is_some()) {
                match inst {
                    Inst::Const { dst, .. }
                    | Inst::Bin { dst, .. }
                    | Inst::BinImm { dst, .. }
                    | Inst::Load { dst, .. }
                    | Inst::GlobalAddr { dst, .. } => *dst = Reg(reg_count + 3),
                    _ => unreachable!("dst() was Some"),
                }
                true
            } else {
                false
            }
        }
        Mutation::BogusCallee => {
            if let Some(Inst::Call { callee, .. }) = block
                .insts
                .iter_mut()
                .find(|i| matches!(i, Inst::Call { .. }))
            {
                *callee = FuncId(nfuncs as u32 + 2);
                true
            } else {
                false
            }
        }
        Mutation::ExtraCallArg => {
            if let Some(Inst::Call { args, .. }) = block
                .insts
                .iter_mut()
                .find(|i| matches!(i, Inst::Call { .. }))
            {
                args.push(Reg(0));
                true
            } else {
                false
            }
        }
        Mutation::BogusGlobal => {
            if let Some(Inst::GlobalAddr { global, .. }) = block
                .insts
                .iter_mut()
                .find(|i| matches!(i, Inst::GlobalAddr { .. }))
            {
                *global = GlobalId(nglobals + 1);
                true
            } else {
                false
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every corrupted workload module is rejected by the verifier.
    #[test]
    fn corrupted_workload_modules_are_rejected(
        which in 0usize..4,
        mutation_idx in 0usize..MUTATIONS.len(),
        seed in 0usize..10_000,
    ) {
        let mut m = corpus()[which].clone();
        // Every corpus program contains all mutation sites (calls,
        // globals, register defs), so application never fails.
        prop_assert!(mutate(&mut m, MUTATIONS[mutation_idx], seed));
        prop_assert!(
            verify_module(&m).is_err(),
            "verifier accepted a module corrupted with {:?}",
            MUTATIONS[mutation_idx]
        );
    }
}

/// Every pristine catalog program verifies, and no function of it reads
/// a register that is not assigned on every path from the entry.
#[test]
fn every_catalog_program_verifies_and_reads_only_assigned_registers() {
    for w in catalog::CATALOG {
        let m = catalog::build(w.name, LLC_LINES).expect("catalog workload");
        assert!(verify_module(&m).is_ok(), "{} fails verification", w.name);
        for f in m.functions() {
            let undef = dataflow::maybe_undef_uses(f);
            assert!(
                undef.is_empty(),
                "{}::{} reads unassigned registers: {undef:?}",
                w.name,
                f.name()
            );
        }
    }
}
