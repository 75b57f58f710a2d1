//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Edge-selection policy** — overhead and redirectable-function count
//!    for `Never` / `MultiBlockCallees` (paper default) / `AllCalls`.
//! 2. **Non-temporal fill policy** — LLC `Bypass` vs `LruInsert`: effect
//!    on a co-runner and on the host itself.
//! 3. **Search heuristics** — candidate-set sizes and projected search
//!    durations with each prune toggled.
//! 4. **Nap evaluation** — Algorithm 2's bisection vs a linear sweep:
//!    evaluation windows required.
//! 5. **Hardware prefetching** — does a next-line prefetcher change the
//!    effectiveness of software non-temporal hints?
//!
//! Independent configurations within each study fan out across
//! `protean_bench::pool` workers (`PROTEAN_JOBS`); rows are printed from
//! the merged results in input order, identical to a serial run.

use machine::{MachineConfig, NtPolicy};
use pc3d::{select_candidates_with, NapBisection};
use pcc::{Compiler, EdgePolicy, NtAssignment, Options};
use protean::{ExtMonitor, HostMonitor, Runtime, RuntimeConfig};
use protean_bench::{experiment_os, llc_lines, pool, report, Scale};
use simos::{Os, OsConfig};
use workloads::catalog;

fn ips_of(image: &visa::Image, secs: f64, cfg: &OsConfig) -> f64 {
    let mut os = Os::new(cfg.clone());
    let pid = os.spawn(image, 0);
    os.advance_seconds(secs * 0.2);
    let c0 = os.counters(pid).instructions;
    let t0 = os.now_seconds();
    os.advance_seconds(secs);
    (os.counters(pid).instructions - c0) as f64 / (os.now_seconds() - t0)
}

/// A call-heavy synthetic app: a hot loop calling a tiny single-block
/// leaf every iteration plus a multi-block worker occasionally — the
/// pattern where the paper's policy pays off.
fn leafy_app() -> pir::Module {
    use pir::{FunctionBuilder, Locality, Module};
    let mut m = Module::new("leafy");
    let g = m.add_global("buf", 1 << 16);
    let mut leaf = FunctionBuilder::new("leaf", 1);
    let p = leaf.param(0);
    let r = leaf.mul_imm(p, 3);
    leaf.ret(Some(r));
    let leaf_id = m.add_function(leaf.finish());
    let mut worker = FunctionBuilder::new("worker", 0);
    let base = worker.global_addr(g);
    worker.counted_loop(0, 64, 1, |b, i| {
        let off = b.shl_imm(i, 3);
        let a = b.add(base, off);
        let _ = b.load(a, 0, Locality::Normal);
    });
    worker.ret(None);
    let worker_id = m.add_function(worker.finish());
    let mut main_fn = FunctionBuilder::new("main", 0);
    let k = main_fn.const_(0);
    let header = main_fn.new_block();
    main_fn.br(header);
    main_fn.switch_to(header);
    // Tight loop: leaf call every iteration; worker every 64th.
    let _ = main_fn.call(leaf_id, &[k]);
    let sel = main_fn.rem_imm(k, 64);
    let skip = main_fn.new_block();
    let work = main_fn.new_block();
    main_fn.cond_br(sel, skip, work);
    main_fn.switch_to(work);
    main_fn.call_void(worker_id, &[]);
    main_fn.br(skip);
    main_fn.switch_to(skip);
    main_fn.bin_imm_into(pir::BinOp::Add, k, k, 1);
    main_fn.br(header);
    let main_id = m.add_function(main_fn.finish());
    m.set_entry(main_id);
    m
}

fn ablate_edge_policy(secs: f64) {
    protean_bench::header(
        "Ablation 1 — edge-selection policy on a call-heavy app (leaf call per iteration)",
    );
    println!("{:<22}{:>12}{:>16}", "policy", "EVT slots", "slowdown");
    let cfg = experiment_os();
    let m = leafy_app();
    let plain = Compiler::new(Options::plain()).compile(&m).unwrap().image;
    let base_ips = ips_of(&plain, secs, &cfg);
    let policies = [
        ("Never", EdgePolicy::Never),
        ("MultiBlockCallees", EdgePolicy::MultiBlockCallees),
        ("AllCalls", EdgePolicy::AllCalls),
    ];
    let rows = pool::map(&policies, |_, &(name, policy)| {
        let opts = Options {
            protean: true,
            edge_policy: policy,
        };
        let protean = Compiler::new(opts).compile(&m).unwrap().image;
        let slowdown = base_ips / ips_of(&protean, secs, &cfg);
        (name, protean.evt.len(), slowdown)
    });
    for (name, slots, slowdown) in rows {
        println!("{name:<22}{slots:>12}{slowdown:>15.4}x");
    }
    println!(
        "AllCalls virtualizes the per-iteration leaf call and pays for it on\n\
         every iteration; the paper's MultiBlockCallees policy hooks only the\n\
         worker (the code PC3D would ever want to transform) at near-zero cost."
    );
}

fn ablate_nt_policy(secs: f64) {
    protean_bench::header("Ablation 2 — non-temporal LLC policy: Bypass vs LruInsert");
    println!(
        "{:<12}{:>22}{:>22}",
        "policy", "co-runner QoS (hints)", "host slowdown (hints)"
    );
    let policies = [
        ("Bypass", NtPolicy::Bypass),
        ("LruInsert", NtPolicy::LruInsert),
    ];
    let rows = pool::map(&policies, |_, &(label, policy)| {
        let mut machine = MachineConfig::scaled();
        machine.nt_policy = policy;
        let cfg = OsConfig {
            machine,
            ..OsConfig::default()
        };
        let lines = llc_lines(&cfg);
        let host_m = catalog::build("libquantum", lines).unwrap();
        let ext_m = catalog::build("er-naive", lines).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain())
            .compile(&ext_m)
            .unwrap()
            .image;

        // Solo baselines under this machine policy.
        let ext_solo = ips_of(&ext_img, secs, &cfg);
        let host_solo_bps = {
            let mut os = Os::new(cfg.clone());
            let pid = os.spawn(&host_img, 0);
            os.advance_seconds(secs * 0.2);
            let mut mon = ExtMonitor::new(&os, pid);
            os.advance_seconds(secs);
            mon.end_window(&os).bps
        };

        // Co-run with the all-hints variant dispatched.
        let mut os = Os::new(cfg.clone());
        let ext = os.spawn(&ext_img, 0);
        let host = os.spawn(&host_img, 1);
        let mut rt = Runtime::attach(&os, host, RuntimeConfig::on_core(2)).unwrap();
        let nt = NtAssignment::all(
            pir::load_sites(rt.module())
                .iter()
                .filter(|s| s.at_max_depth())
                .map(|s| s.site),
        );
        for func in rt.virtualized_funcs() {
            let sub: NtAssignment = nt.sites_in(func).into_iter().collect();
            if !sub.is_empty() {
                let _ = rt.transform(&mut os, func, &sub);
            }
        }
        os.advance_seconds(secs * 0.3);
        let mut ext_mon = ExtMonitor::new(&os, ext);
        let mut host_mon = ExtMonitor::new(&os, host);
        os.advance_seconds(secs);
        let qos = ext_mon.end_window(&os).ips / ext_solo;
        let host_ratio = host_mon.end_window(&os).bps / host_solo_bps;
        (label, qos, host_ratio)
    });
    for (label, qos, host_ratio) in rows {
        println!(
            "{label:<12}{:>21.1}%{:>21.2}x",
            qos * 100.0,
            1.0 / host_ratio.max(1e-9)
        );
    }
    println!(
        "Bypass protects the co-runner completely; LruInsert leaves a one-way\n\
         footprint per set (weaker protection, marginally cheaper for the host)."
    );
}

fn ablate_heuristics() {
    protean_bench::header(
        "Ablation 3 — search heuristics (candidates and projected search length)",
    );
    println!(
        "{:<26}{:>12}{:>12}{:>14}",
        "configuration", "soplex*", "sphinx3*", "proj. evals"
    );
    let cfg = experiment_os();
    let mut counts = Vec::new();
    for (label, active, depth) in [
        ("no pruning", false, false),
        ("active regions only", true, false),
        ("max depth only", false, true),
        ("both (paper)", true, true),
    ] {
        let mut row = Vec::new();
        for app in ["soplex", "sphinx3"] {
            let m = catalog::build(app, llc_lines(&cfg)).unwrap();
            let img = Compiler::new(Options::protean()).compile(&m).unwrap().image;
            let mut os = Os::new(cfg.clone());
            let pid = os.spawn(&img, 0);
            let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(1)).unwrap();
            let mut mon = HostMonitor::new(&os, pid, 1.0);
            for _ in 0..6000 {
                os.advance(1013);
                mon.sample(&os, &rt);
            }
            let (sites, _) = select_candidates_with(&rt, &mon, usize::MAX, active, depth);
            row.push(sites.len());
        }
        // Algorithm 1 runs ~n+2 variant evaluations.
        let evals = row[0] + 2;
        println!("{label:<26}{:>12}{:>12}{:>14}", row[0], row[1], evals);
        counts.push(row[0]);
    }
    println!(
        "(*) counts are dispatchable candidate loads: loads in functions the\n\
    runtime can actually redirect (uncalled cold code can never be\n\
    dispatched, so Figure 8's full-program totals shrink further here).\n\
    Without pruning the search would need {}x more evaluations than with\n\
    the paper's heuristics.",
        (counts[0] + 2) / (counts[3] + 2).max(1)
    );
}

fn ablate_nap_search() {
    protean_bench::header("Ablation 4 — Algorithm 2's bisection vs a linear nap sweep");
    println!(
        "{:<26}{:>18}{:>20}",
        "method", "windows needed", "achieved error"
    );
    let tol = 0.05;
    // A synthetic monotone threshold (true minimum nap = 0.37).
    let threshold = 0.37;
    let mut bis = NapBisection::new(0.0, 1.0, tol);
    while !bis.done() {
        let nap = bis.probe();
        bis.observe(nap >= threshold);
    }
    println!(
        "{:<26}{:>18}{:>19.3}",
        "bisection (paper)",
        bis.probes(),
        (bis.result() - threshold).abs()
    );
    // Linear sweep at the same resolution.
    let mut windows = 0;
    let mut found = 1.0;
    let mut nap = 0.0;
    while nap <= 1.0 {
        windows += 1;
        if nap >= threshold {
            found = nap;
            break;
        }
        nap += tol;
    }
    println!(
        "{:<26}{:>18}{:>19.3}",
        "linear sweep",
        windows,
        found - threshold
    );
    // With cross-variant bounds (Algorithm 1 narrows [lb, ub]).
    let mut bounded = NapBisection::new(0.25, 0.55, tol);
    while !bounded.done() {
        let nap = bounded.probe();
        bounded.observe(nap >= threshold);
    }
    println!(
        "{:<26}{:>18}{:>19.3}",
        "bisection + Alg.1 bounds",
        bounded.probes(),
        (bounded.result() - threshold).abs()
    );
}

fn ablate_prefetcher(secs: f64) {
    protean_bench::header("Ablation 5 — software NT hints under a hardware next-line prefetcher");
    println!(
        "{:<14}{:>22}{:>22}",
        "prefetcher", "co-runner QoS (hints)", "co-runner QoS (none)"
    );
    let configs = [("off", false), ("on (deg 2)", true)];
    let rows = pool::map(&configs, |_, &(label, enabled)| {
        let mut machine_cfg = MachineConfig::scaled();
        machine_cfg.prefetcher = machine::PrefetcherConfig { enabled, degree: 2 };
        let cfg = OsConfig {
            machine: machine_cfg,
            ..OsConfig::default()
        };
        let lines = llc_lines(&cfg);
        let host_m = catalog::build("libquantum", lines).unwrap();
        let ext_m = catalog::build("er-naive", lines).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain())
            .compile(&ext_m)
            .unwrap()
            .image;
        let ext_solo = ips_of(&ext_img, secs, &cfg);
        let mut qos = [0.0f64; 2];
        for (i, hints) in [true, false].into_iter().enumerate() {
            let mut os = Os::new(cfg.clone());
            let ext = os.spawn(&ext_img, 0);
            let host = os.spawn(&host_img, 1);
            if hints {
                let mut rt = Runtime::attach(&os, host, RuntimeConfig::on_core(2)).unwrap();
                let nt = NtAssignment::all(
                    pir::load_sites(rt.module())
                        .iter()
                        .filter(|s| s.at_max_depth())
                        .map(|s| s.site),
                );
                for func in rt.virtualized_funcs() {
                    let sub: NtAssignment = nt.sites_in(func).into_iter().collect();
                    if !sub.is_empty() {
                        let _ = rt.transform(&mut os, func, &sub);
                    }
                }
            }
            os.advance_seconds(secs * 0.3);
            let mut ext_mon = ExtMonitor::new(&os, ext);
            os.advance_seconds(secs);
            qos[i] = ext_mon.end_window(&os).ips / ext_solo;
        }
        (label, qos)
    });
    for (label, qos) in rows {
        println!(
            "{label:<14}{:>21.1}%{:>21.1}%",
            qos[0] * 100.0,
            qos[1] * 100.0
        );
    }
    println!(
        "A next-line prefetcher adds its own LLC fills on the host's stream, but
         software NT hints suppress it at hinted sites, so the protection the
         hints provide survives."
    );
}

fn main() {
    let scale = Scale::from_env();
    let secs = scale.secs(3.0);
    let t0 = std::time::Instant::now();
    ablate_edge_policy(secs);
    ablate_nt_policy(secs);
    ablate_heuristics();
    ablate_nap_search();
    ablate_prefetcher(secs);
    report::record_harness(
        "ablations",
        t0.elapsed().as_millis() as u64,
        pool::jobs(),
        scale.name(),
    );
}
