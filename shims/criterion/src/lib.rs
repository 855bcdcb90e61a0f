//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this minimal
//! harness mirrors the `criterion` API surface the workspace's benches
//! use — [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`BenchmarkGroup::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId::from_parameter`], [`Bencher::iter`],
//! [`Bencher::iter_batched`] with [`BatchSize`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — timing each
//! benchmark with `std::time::Instant` and printing a mean-per-iteration
//! line instead of criterion's statistical report.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level bench driver (one per `criterion_group!`).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.into(), sample_size: 100 }
    }

    /// Run a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(None, &id.into(), 100, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed iterations per benchmark (criterion: number of
    /// samples; here used directly as the iteration count).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(Some(&self.name), &id.into(), self.sample_size, f);
        self
    }

    /// Run one benchmark that borrows an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(Some(&self.name), &id.into(), self.sample_size, |b| f(b, input));
        self
    }

    /// Close the group (criterion renders its report here; the shim has
    /// already printed per-benchmark lines).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id rendered from a parameter value (row count, model name, …).
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId { label: p.to_string() }
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, p: impl Display) -> BenchmarkId {
        BenchmarkId { label: format!("{}/{}", name.into(), p) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { label: s }
    }
}

/// Timing context handed to the benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over the configured number of iterations (plus a short
    /// warm-up that is not counted).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..2 {
            std::hint::black_box(f());
        }
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` on a fresh input from `setup` per iteration;
    /// only `routine` is timed. The shim runs `setup` before every
    /// call whatever the [`BatchSize`], which criterion allows for
    /// every variant.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let _ = size;
        for _ in 0..2 {
            std::hint::black_box(routine(setup()));
        }
        self.elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            self.elapsed += start.elapsed();
            drop(std::hint::black_box(output));
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] builds per batch in
/// criterion. The shim builds one per iteration for every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are small; criterion batches many per setup pass.
    SmallInput,
    /// Inputs are large; criterion batches fewer.
    LargeInput,
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: Option<&str>,
    id: &BenchmarkId,
    sample_size: usize,
    mut f: F,
) {
    let mut b = Bencher { iters: sample_size as u64, elapsed: Duration::ZERO };
    f(&mut b);
    let per_iter = b.elapsed.as_secs_f64() / b.iters.max(1) as f64;
    let name = match group {
        Some(g) => format!("{g}/{}", id.label),
        None => id.label.clone(),
    };
    println!("bench: {name:<48} {:>12.3} us/iter ({} iters)", per_iter * 1e6, b.iters);
}

/// Re-export for benches that use `criterion::black_box`.
pub use std::hint::black_box;

/// Declare a named group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test");
        group.sample_size(5);
        let mut runs = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        group.finish();
        // 2 warm-up + 5 timed.
        assert_eq!(runs, 7);
    }

    #[test]
    fn iter_batched_builds_an_input_per_call() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test-3");
        group.sample_size(4);
        let (mut setups, mut runs) = (0u64, 0u64);
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    setups
                },
                |input| {
                    runs += 1;
                    assert_eq!(input, runs, "each call gets its own fresh input");
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
        // 2 warm-up + 4 timed.
        assert_eq!((setups, runs), (6, 6));
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test-2");
        group.sample_size(1);
        group.bench_with_input(BenchmarkId::from_parameter(9usize), &9usize, |b, &n| {
            b.iter(|| assert_eq!(n, 9))
        });
        group.finish();
    }
}
