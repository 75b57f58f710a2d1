//! Property-based correctness tests: random PIR programs must compute
//! identical results before and after the scalar optimization pipeline,
//! and compile to valid images under every option combination.

use proptest::collection::vec;
use proptest::prelude::*;

use machine::{CostModel, ExecContext, ExecEnv, MachineConfig, MemorySystem, PerfCounters};
use pcc::{Compiler, EdgePolicy, Options};
use pir::{BinOp, FunctionBuilder, Inst, Locality, Module, Reg};

const NREGS: u32 = 12;
const DATA_WORDS: i64 = 64;

/// Strategy producing straight-line arithmetic (+ memory ops confined to
/// a small in-bounds buffer).
fn arb_body() -> impl Strategy<Value = Vec<Inst>> {
    let reg = || (0..NREGS).prop_map(Reg);
    let op = (0usize..BinOp::ALL.len()).prop_map(|i| BinOp::ALL[i]);
    let inst = prop_oneof![
        (reg(), -1000i64..1000).prop_map(|(dst, value)| Inst::Const { dst, value }),
        (op.clone(), reg(), reg(), reg()).prop_map(|(op, dst, lhs, rhs)| Inst::Bin {
            op,
            dst,
            lhs,
            rhs
        }),
        (op, reg(), reg(), -64i64..64).prop_map(|(op, dst, lhs, imm)| Inst::BinImm {
            op,
            dst,
            lhs,
            imm
        }),
        // Copy shapes the propagation pass cares about.
        (reg(), reg()).prop_map(|(dst, lhs)| Inst::BinImm {
            op: BinOp::Add,
            dst,
            lhs,
            imm: 0
        }),
    ];
    vec(inst, 0..60)
}

/// Builds a runnable module: the random body runs inside a loop over a
/// small buffer, with address registers forced in-bounds before each
/// memory access, and a final checksum of all registers stored to `out`.
fn build_module(body: &[Inst], with_mem: bool) -> Module {
    let mut m = Module::new("prop");
    let data = m.add_global_full(pir::Global::with_words(
        "data",
        (0..DATA_WORDS).map(|i| i * 31 + 7).collect(),
    ));
    let out = m.add_global("out", 64);
    let mut b = FunctionBuilder::new("main", 0);
    // Reserve the register range the generated instructions use.
    while b.fresh().0 < NREGS - 1 {}
    let base = b.global_addr(data);
    let outa = b.global_addr(out);
    b.counted_loop(0, 4, 1, |bl, i| {
        for inst in body {
            bl.push(inst.clone());
        }
        if with_mem {
            // One in-bounds load+store per iteration using a sanitized
            // index derived from r0.
            let idx = bl.rem_imm(Reg(0), DATA_WORDS);
            let idx2 = bl.bin(BinOp::Mul, idx, i); // mild variability
            let idx3 = bl.rem_imm(idx2, DATA_WORDS);
            let pos = bl.bin_imm(BinOp::Mul, idx3, 8);
            // rem can be negative; fold into range.
            let pos2 = bl.bin_imm(BinOp::Add, pos, DATA_WORDS * 8);
            let pos3 = bl.rem_imm(pos2, DATA_WORDS * 8);
            let addr = bl.add(base, pos3);
            let v = bl.load(addr, 0, Locality::Normal);
            bl.add_into(Reg(1), Reg(1), v);
            bl.store(addr, 0, Reg(1));
        }
    });
    // Checksum every generated register into out[0].
    let acc = b.const_(0);
    for r in 0..NREGS {
        b.bin_into(BinOp::Xor, acc, acc, Reg(r));
        b.bin_imm_into(BinOp::Mul, acc, acc, 1099511628211u64 as i64);
    }
    b.store(outa, 0, acc);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.set_entry(f);
    m
}

/// `m` after the scalar optimization pipeline.
fn optimized(m: &Module) -> Module {
    let mut m = m.clone();
    pcc::optimize_module(&mut m);
    m
}

/// Compiles and runs a module to completion, returning the checksum.
fn run(m: &Module, opts: Options) -> i64 {
    let img = Compiler::new(opts).compile(m).expect("compile").image;
    let cfg = MachineConfig::small();
    let mut mem = MemorySystem::new(&cfg);
    let mut counters = PerfCounters::default();
    let mut ctx = ExecContext::new(img.entry, 1, img.meta.map_or(0, |d| d.evt_base));
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
    let res = machine::exec::run(&mut ctx, &mut env, 50_000_000);
    assert_eq!(
        res.stop,
        machine::StopReason::Halted,
        "program must finish: {res:?}"
    );
    let addr = img.global_by_name("out").unwrap().addr as usize;
    i64::from_le_bytes(data[addr..addr + 8].try_into().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn optimization_preserves_results(body in arb_body(), with_mem in any::<bool>()) {
        let m = build_module(&body, with_mem);
        let baseline = run(&m, Options::plain());
        let optimized = run(&optimized(&m), Options::plain());
        prop_assert_eq!(baseline, optimized, "optimization changed program semantics");
    }

    #[test]
    fn optimized_modules_stay_valid(body in arb_body()) {
        let m = build_module(&body, true);
        let opt = optimized(&m);
        prop_assert!(pir::verify::verify_module(&opt).is_ok());
        // The stage-by-stage pipeline re-checks the invariants and proves
        // every stage, and must end at the same module.
        let mut validated = m.clone();
        let res = pcc::optimize_module_validated(&mut validated);
        prop_assert!(res.is_ok(), "{:?}", res.err());
        prop_assert_eq!(validated, opt);
    }

    #[test]
    fn protean_and_plain_agree_on_random_programs(body in arb_body(), with_mem in any::<bool>()) {
        let m = build_module(&body, with_mem);
        let plain = run(&m, Options::plain());
        let protean = run(&m, Options::protean());
        prop_assert_eq!(plain, protean, "virtualization changed program semantics");
    }

    #[test]
    fn all_option_combinations_produce_valid_images(
        body in arb_body(),
        protean in any::<bool>(),
        optimize in any::<bool>(),
        policy_idx in 0usize..3,
    ) {
        let policy = [EdgePolicy::Never, EdgePolicy::MultiBlockCallees, EdgePolicy::AllCalls]
            [policy_idx];
        let mut m = build_module(&body, true);
        if optimize {
            m = optimized(&m);
        }
        let opts = Options { protean, edge_policy: policy };
        let img = Compiler::new(opts).compile(&m).expect("compile").image;
        prop_assert_eq!(img.validate(), Ok(()));
    }

    #[test]
    fn optimization_never_grows_code(body in arb_body()) {
        let m = build_module(&body, true);
        let before = Compiler::new(Options::plain()).compile(&m).unwrap().image.text_len();
        let after = Compiler::new(Options::plain())
            .compile(&optimized(&m))
            .unwrap()
            .image
            .text_len();
        prop_assert!(after <= before, "optimization grew code: {} -> {}", before, after);
    }
}
