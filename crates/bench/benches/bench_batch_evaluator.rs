//! Wall-clock comparison of sequential, parallel, and cached batch
//! evaluation (the §5 bottleneck attacked head-on).
//!
//! Three measurements over a 64-pipeline batch:
//!
//! 1. **sequential** — one `Evaluator::evaluate` call per pipeline;
//! 2. **parallel** — the same batch through a `BatchEvaluator` at the
//!    machine's available parallelism (scales with core count);
//! 3. **parallel+cache** — the same batch with an `EvalCache` attached;
//!    the batch is duplicate-heavy (8 distinct pipelines, 56 repeats —
//!    the re-proposal profile of evolutionary and density-model
//!    searches), so 7/8 of the work is served from memory.
//!
//! Run with `cargo bench -p autofp-bench --bench bench_batch_evaluator`.
//! Speedups are printed against the sequential baseline; the cached
//! path's win is core-count independent.
//!
//! Every round, the warm-up included, gets a fresh `Evaluator`, built
//! untimed, so no round reads fits an earlier round left in the
//! evaluator's fit memo. Within a round the 56 repeats still hit that
//! memo (they pay Prep, not Train) in the sequential and parallel rows;
//! the printed memo hits say how many.

use autofp_core::{BatchEvaluator, EvalCache, EvalConfig, Evaluator};
use autofp_data::{Dataset, SynthConfig};
use autofp_linalg::rng::rng_from_seed;
use autofp_preprocess::{ParamSpace, Pipeline};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const DISTINCT: usize = 8;
const ROUNDS: usize = 3;

/// Mean time of `run` over `ROUNDS` rounds after one warm-up round
/// (page in data, prime allocator), each on a fresh evaluator built
/// outside the timed section. Returns the time and the fit-memo hits
/// of the last round.
fn measure<F: FnMut(&Evaluator)>(dataset: &Dataset, mut run: F) -> (Duration, u64) {
    let fresh = || Evaluator::new(dataset, EvalConfig::default());
    run(&fresh());
    let mut total = Duration::ZERO;
    let mut hits = 0;
    for _ in 0..ROUNDS {
        let evaluator = fresh();
        let start = Instant::now();
        run(&evaluator);
        total += start.elapsed();
        hits = evaluator.fit_memo_hits();
    }
    (total / ROUNDS as u32, hits)
}

fn main() {
    let dataset = SynthConfig::new("batch-bench", 600, 10, 2, 7).generate();

    // 8 distinct pipelines, each proposed 8 times: 64 slots.
    let space = ParamSpace::default_space();
    let mut rng = rng_from_seed(3);
    let distinct: Vec<Pipeline> =
        (0..DISTINCT).map(|_| space.sample_pipeline(&mut rng, 4)).collect();
    let batch: Vec<Pipeline> =
        (0..BATCH).map(|i| distinct[i % DISTINCT].clone()).collect();

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("batch = {BATCH} pipelines ({DISTINCT} distinct), threads = {threads}\n");

    let (sequential, hits) = measure(&dataset, |evaluator| {
        for p in &batch {
            std::hint::black_box(evaluator.evaluate(p));
        }
    });
    println!(
        "sequential        {:>9.1} ms   1.00x   ({hits} fit memo hits)",
        sequential.as_secs_f64() * 1e3
    );

    let (parallel, hits) = measure(&dataset, |evaluator| {
        let batch_eval = BatchEvaluator::new(evaluator).with_threads(threads);
        std::hint::black_box(batch_eval.evaluate_batch(&batch));
    });
    println!(
        "parallel          {:>9.1} ms   {:.2}x   ({hits} fit memo hits)",
        parallel.as_secs_f64() * 1e3,
        sequential.as_secs_f64() / parallel.as_secs_f64()
    );

    // A fresh cache per round would defeat cross-batch hits, but the
    // within-batch dedup alone collapses 64 slots to 8 evaluations; the
    // warm-up round additionally makes the timed rounds all-hit, which
    // is exactly a search's steady state on re-proposed pipelines.
    let cache = EvalCache::new();
    let (cached, _) = measure(&dataset, |evaluator| {
        let cached_eval = BatchEvaluator::new(evaluator).with_threads(threads).with_cache(&cache);
        std::hint::black_box(cached_eval.evaluate_batch(&batch));
    });
    let stats = cache.stats();
    println!(
        "parallel + cache  {:>9.1} ms   {:.2}x",
        cached.as_secs_f64() * 1e3,
        sequential.as_secs_f64() / cached.as_secs_f64()
    );
    println!(
        "\ncache: {} hits / {} lookups ({:.0}% hit rate), {} entries, {:.1} ms eval time saved",
        stats.hits,
        stats.lookups(),
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.saved.as_secs_f64() * 1e3,
    );

    let speedup = sequential.as_secs_f64() / cached.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "cached batch evaluation must be at least 2x sequential (got {speedup:.2}x)"
    );
    println!("\nok: cached batch evaluation is {speedup:.2}x sequential (>= 2x required)");
}
