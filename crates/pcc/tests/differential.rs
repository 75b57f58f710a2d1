//! Differential testing: the PIR reference interpreter and the compiled
//! (VISA + machine) execution must produce bit-identical final memory for
//! arbitrary programs, across compilation options.
//!
//! This is the strongest correctness oracle in the workspace: it checks
//! the whole pipeline (lowering, layout, virtualization, optimization,
//! the interpreter loop, and register windows) in one property.

use proptest::collection::vec;
use proptest::prelude::*;

use machine::{CostModel, ExecContext, ExecEnv, MachineConfig, MemorySystem, PerfCounters};
use pcc::{Compiler, Options};
use pir::{BinOp, FunctionBuilder, Inst, Locality, Module, Reg};

const NREGS: u32 = 10;
const WORDS: i64 = 48;

fn arb_body() -> impl Strategy<Value = Vec<Inst>> {
    let reg = || (0..NREGS).prop_map(Reg);
    let op = (0usize..BinOp::ALL.len()).prop_map(|i| BinOp::ALL[i]);
    let inst = prop_oneof![
        (reg(), -500i64..500).prop_map(|(dst, value)| Inst::Const { dst, value }),
        (op.clone(), reg(), reg(), reg()).prop_map(|(op, dst, lhs, rhs)| Inst::Bin {
            op,
            dst,
            lhs,
            rhs
        }),
        (op, reg(), reg(), -32i64..32).prop_map(|(op, dst, lhs, imm)| Inst::BinImm {
            op,
            dst,
            lhs,
            imm
        }),
    ];
    vec(inst, 0..40)
}

/// A program with a leaf call, loops, sanitized memory traffic, and a
/// final memory checksum — all fed by the random body.
fn build(body: &[Inst], nt_some: bool) -> Module {
    let mut m = Module::new("diff");
    let data = m.add_global_full(pir::Global::with_words(
        "data",
        (0..WORDS).map(|i| i * 131 + 17).collect(),
    ));
    let out = m.add_global("out", 64);

    // Leaf: mix(a, b) = (a ^ b) * K + b
    let mut leaf = FunctionBuilder::new("mix", 2);
    let x = leaf.bin(BinOp::Xor, leaf.param(0), leaf.param(1));
    let y = leaf.mul_imm(x, 0x9e3779b97f4a7c15u64 as i64);
    let z = leaf.add(y, leaf.param(1));
    leaf.ret(Some(z));
    let leaf_id = m.add_function(leaf.finish());

    let mut b = FunctionBuilder::new("main", 0);
    while b.fresh().0 < NREGS - 1 {}
    let base = b.global_addr(data);
    let outa = b.global_addr(out);
    let locality = if nt_some {
        Locality::NonTemporal
    } else {
        Locality::Normal
    };
    b.counted_loop(0, 5, 1, |bl, i| {
        for inst in body {
            bl.push(inst.clone());
        }
        // Sanitized in-bounds load/store pair.
        let idx = bl.rem_imm(Reg(0), WORDS);
        let idx2 = bl.bin(BinOp::Add, idx, i);
        let idx3 = bl.rem_imm(idx2, WORDS);
        let pos = bl.mul_imm(idx3, 8);
        let pos2 = bl.add_imm(pos, WORDS * 8);
        let pos3 = bl.rem_imm(pos2, WORDS * 8);
        let addr = bl.add(base, pos3);
        let v = bl.load(addr, 0, locality);
        let mixed = bl.call(leaf_id, &[v, i]);
        bl.store(addr, 0, mixed);
        bl.add_into(Reg(1), Reg(1), mixed);
    });
    // Checksum registers into out[0].
    let acc = b.const_(0x5bd1e995);
    for r in 0..NREGS {
        b.bin_into(BinOp::Xor, acc, acc, Reg(r));
        b.bin_imm_into(BinOp::Mul, acc, acc, 0x100000001b3u64 as i64);
    }
    b.store(outa, 0, acc);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.set_entry(f);
    m
}

/// Runs the compiled image on the machine, returning final data memory.
fn run_compiled(m: &Module, opts: Options) -> (Vec<u8>, Vec<u64>) {
    let out = Compiler::new(opts).compile(m).expect("compile");
    let img = out.image;
    let global_addrs: Vec<u64> = img.globals.iter().map(|g| g.addr).collect();
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
    let res = machine::exec::run(&mut ctx, &mut env, 100_000_000);
    assert_eq!(
        res.stop,
        machine::StopReason::Halted,
        "compiled program must halt"
    );
    (data, global_addrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpreter_and_machine_agree(body in arb_body(), nt in any::<bool>()) {
        let m = build(&body, nt);
        // Compile plainly to learn the layout, run on the machine.
        let (machine_data, addrs) = run_compiled(&m, Options::plain());
        // Interpret with the same layout.
        let interp = pir::interp::run(&m, &addrs, machine_data.len(), 50_000_000)
            .expect("interpret");
        // Compare every global byte-for-byte (the rest of the data
        // segment holds pcc metadata the interpreter does not model).
        for (g, addr) in m.globals().iter().zip(&addrs) {
            let a = *addr as usize;
            let len = g.size() as usize;
            prop_assert_eq!(
                &interp.data[a..a + len],
                &machine_data[a..a + len],
                "global {} diverged",
                g.name()
            );
        }
    }

    #[test]
    fn all_pipelines_agree_with_the_interpreter(
        body in arb_body(),
        protean in any::<bool>(),
        optimize in any::<bool>(),
    ) {
        let m = build(&body, false);
        let mut compiled = m.clone();
        if optimize {
            pcc::optimize_module(&mut compiled);
        }
        let opts = Options {
            protean,
            edge_policy: pcc::EdgePolicy::MultiBlockCallees,
        };
        let (machine_data, addrs) = run_compiled(&compiled, opts);
        let interp = pir::interp::run(&m, &addrs, machine_data.len(), 50_000_000)
            .expect("interpret");
        let out_addr = addrs[1] as usize;
        prop_assert_eq!(
            &interp.data[out_addr..out_addr + 8],
            &machine_data[out_addr..out_addr + 8],
            "checksum diverged (protean={}, optimize={})",
            protean,
            optimize
        );
    }
}
