//! Dynamic-compilation stress testing (Figures 5 and 6).
//!
//! "The host program is run with a protean runtime configured to
//! periodically recompile randomly selected functions throughout the life
//! of the running application" (Section V-A). The engine recompiles a
//! random virtualized function — with no semantic change — at a fixed
//! interval and dispatches the fresh variant, exercising the entire
//! compile → code-cache → EVT path and charging its cycles to the
//! runtime's core.
//!
//! With [`StressEngine::with_faults`] the same engine doubles as a chaos
//! test: a seeded [`FaultPlan`] is armed on the runtime (and the OS's
//! observation surface), each firing may corrupt a code-cache variant
//! in place, and every compile/dispatch routes through a
//! [`HealthMonitor`] that quarantines, retries, and walks the
//! degradation ladder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pcc::NtAssignment;
use pir::FuncId;
use simos::Os;

use crate::faults::{FaultKind, FaultPlan};
use crate::health::{HealthConfig, HealthMonitor};
use crate::runtime::Runtime;

/// Periodic random-recompilation engine.
pub struct StressEngine {
    interval_cycles: u64,
    next_fire: u64,
    rng: StdRng,
    targets: Vec<FuncId>,
    /// Counter used to make each compilation distinct (defeats the variant
    /// cache, as the stress test intends every trigger to do real work).
    round: u64,
    recompiles: u64,
    /// Chaos mode: the self-healing layer every firing routes through.
    health: Option<HealthMonitor>,
}

impl StressEngine {
    /// Creates an engine firing every `interval_cycles`, seeded for
    /// deterministic runs.
    pub fn new(rt: &Runtime, interval_cycles: u64, seed: u64) -> Self {
        StressEngine {
            interval_cycles,
            next_fire: interval_cycles,
            rng: StdRng::seed_from_u64(seed),
            targets: rt.virtualized_funcs(),
            round: 0,
            recompiles: 0,
            health: None,
        }
    }

    /// Creates a chaos-mode engine: arms `plan` on the runtime and the
    /// OS's observation surface, and wraps every firing in a
    /// [`HealthMonitor`] built from `health`. Each firing closes one
    /// health monitoring window, so recovery hysteresis runs at the
    /// stress interval.
    pub fn with_faults(
        os: &mut Os,
        rt: &mut Runtime,
        interval_cycles: u64,
        seed: u64,
        plan: FaultPlan,
        health: HealthConfig,
    ) -> Self {
        os.set_obs_faults(Some(plan.obs_faults()));
        rt.set_fault_plan(plan);
        StressEngine {
            health: Some(HealthMonitor::new(health)),
            ..StressEngine::new(rt, interval_cycles, seed)
        }
    }

    /// Number of recompilations performed so far.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// The chaos-mode health monitor, if this engine runs one.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// Advances the engine to the OS's current time, firing any due
    /// recompilations. Call after each `os.advance` step.
    pub fn step(&mut self, os: &mut Os, rt: &mut Runtime) {
        while os.now() >= self.next_fire {
            self.next_fire += self.interval_cycles;
            if self.targets.is_empty() {
                continue;
            }
            let func = self.targets[self.rng.gen_range(0..self.targets.len())];
            self.round += 1;
            // Every firing does real compiler work: compile a fresh
            // identity variant (bypassing the variant cache) and dispatch
            // it, exactly as the paper's stress test recompiles functions
            // with no semantic change.
            let nt = NtAssignment::none();
            if self.health.is_some() {
                self.chaos_fire(os, rt, func, &nt);
            } else if let Ok(idx) = rt.compile_fresh(os, func, &nt) {
                if rt.dispatch(os, idx).is_ok() {
                    self.recompiles += 1;
                }
            }
        }
    }

    /// One chaos-mode firing: maybe corrupt the code cache (scrubbing in
    /// the same tick, so corrupt installed code never executes), then a
    /// health-routed fresh recompile + dispatch, then close the health
    /// window.
    fn chaos_fire(&mut self, os: &mut Os, rt: &mut Runtime, func: FuncId, nt: &NtAssignment) {
        let health = self.health.as_mut().expect("chaos mode");
        let garble = rt
            .fault_plan_mut()
            .and_then(|p| p.draw(FaultKind::CacheCorrupt).then(|| p.garble_u64()));
        if let Some(garble) = garble {
            // Never corrupt the span the host is executing *right now*:
            // the scrub below restores the EVT before any further cycle
            // runs, but an in-flight frame would still finish on the
            // corrupt bytes (the OSR live-frame hazard). Real cache
            // attackers don't extend this courtesy; the dispatch-time
            // checksum still covers that case.
            let live_pc = os.proc(rt.pid()).ctx().pc();
            let lowered: Vec<(u32, u32)> = rt
                .variants()
                .iter()
                .filter(|r| r.len > 0 && !(live_pc >= r.addr && live_pc < r.addr + r.len))
                .map(|r| (r.addr, r.len))
                .collect();
            if !lowered.is_empty() {
                let (addr, len) = lowered[self.rng.gen_range(0..lowered.len())];
                os.corrupt_text(
                    rt.pid(),
                    addr + (garble % u64::from(len)) as u32,
                    garble >> 8,
                );
                health.scrub(os, rt);
            }
        }
        if health.transform_fresh(os, rt, func, nt).is_some() {
            self.recompiles += 1;
        }
        health.end_window(os, rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use pcc::{Compiler, Options};
    use pir::{FunctionBuilder, Locality, Module};
    use simos::OsConfig;

    fn host() -> Module {
        let mut m = Module::new("h");
        let buf = m.add_global("buf", 1 << 13);
        let mut w = FunctionBuilder::new("work", 0);
        let base = w.global_addr(buf);
        w.counted_loop(0, 64, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let _ = b.load(a, 0, Locality::Normal);
        });
        w.ret(None);
        let wid = m.add_function(w.finish());
        let mut main = FunctionBuilder::new("main", 0);
        let h = main.new_block();
        main.br(h);
        main.switch_to(h);
        main.call_void(wid, &[]);
        main.br(h);
        let mid = m.add_function(main.finish());
        m.set_entry(mid);
        m
    }

    fn setup(core: usize) -> (Os, simos::Pid, Runtime) {
        let out = Compiler::new(Options::protean()).compile(&host()).unwrap();
        let mut os = Os::new(OsConfig::small());
        let pid = os.spawn(&out.image, 0);
        let rt = Runtime::attach(&os, pid, RuntimeConfig::on_core(core)).unwrap();
        (os, pid, rt)
    }

    #[test]
    fn fires_at_interval() {
        let (mut os, _pid, mut rt) = setup(1);
        let mut eng = StressEngine::new(&rt, 10_000, 42);
        for _ in 0..100 {
            os.advance(10_000);
            eng.step(&mut os, &mut rt);
        }
        assert!(
            (95..=105).contains(&eng.recompiles()),
            "got {}",
            eng.recompiles()
        );
    }

    #[test]
    fn separate_core_stress_is_nearly_free() {
        // Host alone vs host + stress on the other core.
        let baseline = {
            let (mut os, pid, _) = setup(1);
            os.advance(2_000_000);
            os.counters(pid).instructions
        };
        let (mut os, pid, mut rt) = setup(1);
        let mut eng = StressEngine::new(&rt, 20_000, 7);
        for _ in 0..100 {
            os.advance(20_000);
            eng.step(&mut os, &mut rt);
        }
        let stressed = os.counters(pid).instructions;
        let slowdown = baseline as f64 / stressed as f64;
        assert!(
            slowdown < 1.05,
            "separate-core stress should cost <5% in this regime, got {slowdown:.3}x"
        );
        assert!(os.runtime_consumed(1) > 0, "runtime work must be accounted");
    }

    #[test]
    fn chaos_mode_keeps_the_host_alive_and_heals() {
        let (mut os, pid, mut rt) = setup(1);
        let mut eng = StressEngine::with_faults(
            &mut os,
            &mut rt,
            10_000,
            9,
            FaultPlan::chaos(9),
            crate::HealthConfig::default(),
        );
        for _ in 0..300 {
            os.advance(10_000);
            eng.step(&mut os, &mut rt);
        }
        assert!(
            matches!(os.status(pid), machine::ExecStatus::Running),
            "host must survive the chaos schedule"
        );
        // Meta-level check: disable the (garbled) observation surface and
        // confirm the host made real progress underneath it.
        os.set_obs_faults(None);
        let before = os.counters(pid).instructions;
        os.advance(100_000);
        assert!(os.counters(pid).instructions > before, "host still runs");
        assert!(
            rt.fault_plan().unwrap().total_injected() > 0,
            "the chaos preset must actually inject"
        );
        let health = eng.health().unwrap().metrics();
        let absorbed = health.counter("health.compile_failures")
            + health.counter("health.evt_write_failures")
            + health.counter("health.checksum_failures");
        assert!(
            absorbed > 0,
            "the health layer must have absorbed faults: {:?}",
            health.snapshot()
        );
        // No quarantined variant's code is installed.
        for idx in rt.quarantined_variants() {
            let rec = &rt.variants()[idx];
            assert_ne!(
                rt.current_target(&os, rec.func),
                Some(rec.addr),
                "quarantined variant {idx} still installed"
            );
        }
        // Whatever is installed verifies against its checksum.
        for (idx, rec) in rt.variants().iter().enumerate() {
            if rec.len > 0 && rt.current_target(&os, rec.func) == Some(rec.addr) {
                assert!(rt.verify_code(&os, idx), "installed variant {idx} corrupt");
            }
        }
    }

    #[test]
    fn chaos_mode_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut os, pid, mut rt) = setup(1);
            let mut eng = StressEngine::with_faults(
                &mut os,
                &mut rt,
                10_000,
                seed,
                FaultPlan::chaos(seed),
                crate::HealthConfig::default(),
            );
            for _ in 0..150 {
                os.advance(10_000);
                eng.step(&mut os, &mut rt);
            }
            (
                eng.recompiles(),
                eng.health().unwrap().metrics().snapshot(),
                rt.fault_plan().unwrap().total_injected(),
                os.counters(pid).instructions,
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).2, run(4).2, "different seeds inject differently");
    }

    #[test]
    fn same_core_frequent_stress_costs_more_than_separate() {
        let run = |core: usize| {
            let (mut os, pid, mut rt) = setup(core);
            let mut eng = StressEngine::new(&rt, 5_000, 7);
            for _ in 0..200 {
                os.advance(5_000);
                eng.step(&mut os, &mut rt);
            }
            os.counters(pid).instructions
        };
        let separate = run(1);
        let same = run(0);
        assert!(
            same < separate,
            "same-core stress must slow the host more: same={same} separate={separate}"
        );
    }
}
