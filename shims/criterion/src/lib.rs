//! Offline stand-in for the `criterion` crate.
//!
//! Provides `criterion_group!`/`criterion_main!`, `Criterion`,
//! `benchmark_group`, and `Bencher::{iter, iter_custom}` with a plain
//! wall-clock measurement loop (short warm-up, then five timed batches, the
//! fastest reported) instead of criterion's statistical machinery. Each
//! benchmark prints one `name ... time per iter` line.

#![forbid(unsafe_code)]

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

/// Timed batches per benchmark; the fastest one's time is reported.
const BATCHES: u64 = 5;

/// Runs one benchmark closure through a warm-up and [`BATCHES`] timed
/// batches, and reports the fastest batch's time per iteration: other load
/// on the host only ever slows a batch down, so the minimum moves least
/// with it.
fn run_bench(name: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    // Warm-up: find an iteration count that takes a measurable slice.
    let mut iters: u64 = 1;
    loop {
        bencher.iters = iters;
        f(&mut bencher);
        if bencher.elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }
    let per_iter_estimate = bencher.elapsed.as_secs_f64() / iters as f64;
    // The batches share roughly 100ms or `sample_size` iterations,
    // whichever is larger.
    let target = (0.1 / per_iter_estimate.max(1e-9)) as u64;
    bencher.iters = target
        .clamp(sample_size as u64, 10_000_000)
        .div_ceil(BATCHES)
        .max(1);
    let mut per_iter = f64::INFINITY;
    for _ in 0..BATCHES {
        f(&mut bencher);
        per_iter = per_iter.min(bencher.elapsed.as_secs_f64() / bencher.iters as f64);
    }
    println!(
        "bench {name:<40} {:>12.3} ns/iter (fastest of {BATCHES} x {} iters)",
        per_iter * 1e9,
        bencher.iters
    );
}

impl Criterion {
    /// Benchmarks `f` under `name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(name, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named benchmark group.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the minimum iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(&format!("{}/{name}", self.name), self.sample_size, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Timing harness handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the harness-chosen iteration count.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Hands the harness-chosen iteration count to `routine`, which runs
    /// that many iterations and returns the time they took by its own
    /// measure, so it can leave per-iteration set-up out of the timing.
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        self.elapsed = routine(self.iters);
    }
}

/// Declares a benchmark group function, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
