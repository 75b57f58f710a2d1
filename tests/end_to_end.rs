//! End-to-end integration: PIR → pcc → image → simulated OS → protean
//! runtime → online transformation, checking semantic preservation and
//! the paper's core mechanism claims across crate boundaries.

use pcc::{Compiler, EdgePolicy, NtAssignment, Options};
use pir::{FunctionBuilder, Locality, Module};
use protean::{Runtime, RuntimeConfig};
use simos::{Os, OsConfig};

/// A deterministic program that computes a checksum over a buffer (with
/// enough structure to exercise calls, loops, and both load kinds) and
/// stores it to a known location, then halts.
fn checksum_program() -> Module {
    let mut m = Module::new("checksum");
    let data = m.add_global_full(pir::Global::with_words(
        "data",
        (0..512)
            .map(|i| (i * 2654435761u64 as i64) ^ 0x5bd1e995)
            .collect(),
    ));
    let out = m.add_global("out", 64);

    // mix(acc, v) -> acc'
    let mut mix = FunctionBuilder::new("mix", 2);
    let acc = mix.param(0);
    let v = mix.param(1);
    let x = mix.bin(pir::BinOp::Xor, acc, v);
    let r = mix.mul_imm(x, 0x100000001b3u64 as i64);
    let t = mix.new_block();
    mix.br(t);
    mix.switch_to(t);
    mix.ret(Some(r));
    let mix_id = m.add_function(mix.finish());

    // sum() -> checksum over the buffer
    let mut sum = FunctionBuilder::new("sum", 0);
    let base = sum.global_addr(data);
    let acc0 = sum.const_(0xcbf29ce484222325u64 as i64);
    let acc_r = sum.accumulate_loop(0, 512, 1, acc0, |b, i, acc| {
        let off = b.shl_imm(i, 3);
        let addr = b.add(base, off);
        let v = b.load(addr, 0, Locality::Normal);
        let mixed = b.call(mix_id, &[acc, v]);
        b.add_into(acc, mixed, mixed);
    });
    sum.ret(Some(acc_r));
    let sum_id = m.add_function(sum.finish());

    let mut main_fn = FunctionBuilder::new("main", 0);
    let o = main_fn.global_addr(out);
    let c1 = main_fn.call(sum_id, &[]);
    main_fn.store(o, 0, c1);
    let c2 = main_fn.call(sum_id, &[]);
    main_fn.store(o, 8, c2);
    main_fn.ret(None);
    let main_id = m.add_function(main_fn.finish());
    m.set_entry(main_id);
    m
}

fn run_to_halt(image: &visa::Image) -> (Os, simos::Pid) {
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(image, 0);
    for _ in 0..10_000 {
        os.advance(100_000);
        if matches!(os.status(pid), machine::ExecStatus::Halted) {
            return (os, pid);
        }
    }
    panic!("program did not halt");
}

fn checksum_of(os: &Os, pid: simos::Pid, image: &visa::Image) -> (u64, u64) {
    let g = image.global_by_name("out").expect("out global");
    (os.read_u64(pid, g.addr), os.read_u64(pid, g.addr + 8))
}

#[test]
fn plain_and_protean_binaries_compute_identical_results() {
    let m = checksum_program();
    let plain = Compiler::new(Options::plain()).compile(&m).unwrap().image;
    let protean = Compiler::new(Options::protean()).compile(&m).unwrap().image;
    let (os_a, pid_a) = run_to_halt(&plain);
    let (os_b, pid_b) = run_to_halt(&protean);
    let a = checksum_of(&os_a, pid_a, &plain);
    let b = checksum_of(&os_b, pid_b, &protean);
    assert_eq!(a, b, "edge virtualization must be semantically invisible");
    assert_ne!(a.0, 0);
    assert_eq!(a.0, a.1, "checksum is deterministic across calls");
}

#[test]
fn transformed_variant_preserves_semantics() {
    // Swap `sum` for a fully non-temporal variant between the two calls:
    // the second checksum must still equal the first.
    let m = checksum_program();
    let out = Compiler::new(Options::protean()).compile(&m).unwrap();
    let image = out.image;
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let sum_id = rt.module().function_by_name("sum").unwrap();
    // Transform immediately; the EVT routes the *next* call to the
    // variant. Because dispatch is asynchronous this can happen while the
    // program runs.
    let nt = NtAssignment::all(pir::load_sites(rt.module()).iter().map(|s| s.site));
    rt.transform(&mut os, sum_id, &nt).unwrap();
    for _ in 0..10_000 {
        os.advance(100_000);
        if matches!(os.status(pid), machine::ExecStatus::Halted) {
            break;
        }
    }
    assert!(matches!(os.status(pid), machine::ExecStatus::Halted));
    let (c1, c2) = checksum_of(&os, pid, &image);
    assert_eq!(c1, c2, "the NT variant must compute the same checksum");
    assert!(
        os.counters(pid).nt_prefetches > 0,
        "the variant must actually have run"
    );
}

#[test]
fn image_byte_roundtrip_runs_identically() {
    let m = checksum_program();
    let image = Compiler::new(Options::protean()).compile(&m).unwrap().image;
    let bytes = visa::encode::encode_image(&image);
    let image2 = visa::encode::decode_image(&bytes).unwrap();
    assert_eq!(image, image2);
    let (os_a, pid_a) = run_to_halt(&image);
    let (os_b, pid_b) = run_to_halt(&image2);
    assert_eq!(
        checksum_of(&os_a, pid_a, &image),
        checksum_of(&os_b, pid_b, &image2)
    );
    assert_eq!(
        os_a.counters(pid_a).instructions,
        os_b.counters(pid_b).instructions,
        "decoded image must execute identically"
    );
}

#[test]
fn edge_policies_are_semantically_equivalent() {
    let m = checksum_program();
    let mut results = Vec::new();
    for policy in [
        EdgePolicy::Never,
        EdgePolicy::MultiBlockCallees,
        EdgePolicy::AllCalls,
    ] {
        let opts = Options {
            protean: true,
            edge_policy: policy,
        };
        let image = Compiler::new(opts).compile(&m).unwrap().image;
        let (os, pid) = run_to_halt(&image);
        results.push(checksum_of(&os, pid, &image));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn simulation_is_deterministic() {
    let build = || {
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let host = workloads::catalog::build("milc", llc).unwrap();
        let ext = workloads::catalog::build("web-search", llc).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain()).compile(&ext).unwrap().image;
        let mut os = Os::new(cfg);
        let e = os.spawn(&ext_img, 0);
        let h = os.spawn(&host_img, 1);
        os.set_load(e, simos::LoadSchedule::constant(8.0));
        os.advance_seconds(5.0);
        (os.counters(h), os.counters(e), os.app_metric(e, 0))
    };
    assert_eq!(build(), build(), "two identical runs must agree exactly");
}

#[test]
fn runtime_survives_repeated_transform_restore_cycles() {
    let m = checksum_program();
    let out = Compiler::new(Options::protean()).compile(&m).unwrap();
    let mut os = Os::new(OsConfig::small());
    let pid = os.spawn(&out.image, 0);
    let mut rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
    let sum_id = rt.module().function_by_name("sum").unwrap();
    let sites: Vec<_> = pir::load_sites(rt.module())
        .iter()
        .map(|s| s.site)
        .filter(|s| s.func == sum_id)
        .collect();
    // Cycle through many distinct variants while the program runs.
    for k in 0..sites.len() {
        let nt: NtAssignment = sites.iter().copied().take(k + 1).collect();
        rt.transform(&mut os, sum_id, &nt).unwrap();
        os.advance(20_000);
        rt.restore(&mut os, sum_id).unwrap();
        os.advance(20_000);
    }
    assert_eq!(rt.compilations() as usize, sites.len());
    // Finish the program; the answer must be unaffected.
    for _ in 0..10_000 {
        os.advance(100_000);
        if matches!(os.status(pid), machine::ExecStatus::Halted) {
            break;
        }
    }
    let g = out.image.global_by_name("out").unwrap();
    assert_eq!(os.read_u64(pid, g.addr), os.read_u64(pid, g.addr + 8));
}

#[test]
fn assembled_text_programs_execute() {
    // The visa assembler + the machine: write a program in text, run it.
    let ops = visa::assemble(
        "    movi r0, #0\n\
             movi r1, #10\n\
         loop:\n\
             add  r0, r0, #1\n\
             lt   r2, r0, r1\n\
             bnz  r2, loop\n\
             movi r3, #256\n\
             st   [r3+0], r0\n\
             halt\n",
    )
    .expect("assemble");
    use machine::{CostModel, ExecContext, ExecEnv, MachineConfig, MemorySystem, PerfCounters};
    let cfg = MachineConfig::small();
    let mut mem = MemorySystem::new(&cfg);
    let mut counters = PerfCounters::default();
    let mut ctx = ExecContext::new(0, 1, 0);
    let mut data = vec![0u8; 512];
    let mut blocks = machine::BlockCache::new();
    let mut env = ExecEnv {
        text: &ops,
        text_gen: 0,
        blocks: &mut blocks,
        data: &mut data,
        mem: &mut mem,
        core: 0,
        counters: &mut counters,
        costs: CostModel::default(),
    };
    let res = machine::exec::run(&mut ctx, &mut env, 100_000);
    assert_eq!(res.stop, machine::StopReason::Halted);
    assert_eq!(i64::from_le_bytes(data[256..264].try_into().unwrap()), 10);
}
