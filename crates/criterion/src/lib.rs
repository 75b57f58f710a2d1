#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! In-tree, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the slice of the criterion 0.5 API its micro-benchmarks use:
//! [`Criterion`], [`criterion_group!`], [`criterion_main!`], benchmark
//! groups with [`Throughput`], and [`Bencher::iter`] /
//! [`Bencher::iter_batched`].
//!
//! Measurement is deliberately simple: a short warm-up, then timed
//! batches until ~`CRITERION_SHIM_MS` milliseconds (default 300) elapse,
//! reporting the median batch's ns/iteration plus derived throughput.
//! There is no statistical analysis, HTML report, or baseline storage.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How a batched iteration sizes its batches (accepted, not interpreted).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Units for derived throughput reporting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Times closures for one benchmark.
pub struct Bencher {
    total_ns: u128,
    iters: u64,
    budget: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher {
            total_ns: 0,
            iters: 0,
            budget,
        }
    }

    /// Times `routine`, called repeatedly.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up plus auto-calibrated batching.
        let start = Instant::now();
        black_box(routine());
        let probe = start.elapsed().max(Duration::from_nanos(1));
        let per_batch =
            (Duration::from_millis(5).as_nanos() / probe.as_nanos()).clamp(1, 1 << 20) as u64;
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(routine());
            }
            self.total_ns += t.elapsed().as_nanos();
            self.iters += per_batch;
        }
        if self.iters == 0 {
            self.total_ns = probe.as_nanos();
            self.iters = 1;
        }
    }

    /// Times `routine` over inputs produced by `setup` (setup untimed).
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        let deadline = Instant::now() + self.budget;
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.total_ns += t.elapsed().as_nanos();
            self.iters += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        self.total_ns as f64 / self.iters as f64
    }
}

fn report(name: &str, ns: f64, throughput: Option<Throughput>) {
    let human = if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    };
    let extra = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  ({:.1} Melem/s)", n as f64 / ns * 1_000.0)
        }
        Some(Throughput::Bytes(n)) => {
            format!("  ({:.1} MiB/s)", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
        }
        None => String::new(),
    };
    println!("{name:<44} {human:>12}/iter{extra}");
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("CRITERION_SHIM_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Criterion {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(name, b.ns_per_iter(), None);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A named group sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.parent.budget);
        f(&mut b);
        report(
            &format!("{}/{}", self.name, name),
            b.ns_per_iter(),
            self.throughput,
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // The libtest harness passes flags like `--bench`; accept and
            // ignore them so `cargo bench`/`cargo test` both work.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(Duration::from_millis(5));
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
        assert!(b.iters > 0);
        assert!(b.ns_per_iter() > 0.0);
    }

    #[test]
    fn iter_batched_runs_setup_and_routine() {
        let mut b = Bencher::new(Duration::from_millis(2));
        b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::LargeInput);
        assert!(b.iters > 0);
    }

    #[test]
    fn groups_report_without_panicking() {
        std::env::set_var("CRITERION_SHIM_MS", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(1024));
        g.bench_function("inner", |b| b.iter(|| 2 * 2));
        g.finish();
    }
}
