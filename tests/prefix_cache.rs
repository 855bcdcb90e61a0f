//! Prefix-transform cache suite: the second cache layer (transformed
//! train/valid matrices keyed by pipeline *prefix*, below the trial
//! cache — see ARCHITECTURE.md "Cache hierarchy") must be purely an
//! optimization. Three pillars:
//!
//! 1. Matrix-level bit-identity: a full bench matrix with the prefix
//!    cache on reproduces the prefix-cache-off canonical byte string,
//!    across 1 and 8 worker threads and across reruns.
//! 2. Byte-budget eviction: a cache squeezed far below its working set
//!    evicts (deterministically, given one thread) and still returns
//!    results bit-identical to a cache at the default budget, which
//!    this matrix never fills.
//! 3. Poisoning: a prefix whose transform output contains NaN is never
//!    admitted, so later pipelines can never be served a poisoned
//!    matrix — the non-finite worst-error taxonomy is identical with
//!    and without the cache.

use autofp_bench::{run_matrix, run_matrix_with, HarnessConfig, MatrixOutcome};
use autofp_core::{
    Budget, EvalConfig, Evaluate, Evaluator, FailureKind, PrefixCache, PrefixStats,
};
use autofp_data::{registry, Dataset, DatasetSpec, SynthConfig};
use autofp_models::classifier::ModelKind;
use autofp_preprocess::{Pipeline, PreprocKind};
use autofp_search::AlgName;
use std::fmt::Write as _;

/// The mini Table 4 matrix of `tests/matrix.rs`, with the two PNAS
/// variants whose shared 7-single opening guarantees cross-algorithm
/// prefix reuse.
fn mini_config() -> (Vec<DatasetSpec>, [ModelKind; 2], [AlgName; 3], HarnessConfig) {
    let mut cfg = HarnessConfig::default();
    cfg.scale = 0.05;
    cfg.budget = Budget::evals(8);
    cfg.max_rows = 160;
    cfg.min_rows = 120;
    cfg.max_len = 3;
    cfg.seed = 11;
    let specs: Vec<DatasetSpec> = registry().into_iter().take(2).collect();
    (specs, [ModelKind::Lr, ModelKind::Xgb], [AlgName::Rs, AlgName::Pmne, AlgName::Plne], cfg)
}

/// Deterministic cell serialization (same field set as
/// `tests/matrix.rs`): f64 bit patterns, no cache counters, no timings.
fn canonical(outcome: &MatrixOutcome) -> String {
    let mut s = String::new();
    for c in &outcome.cells {
        let failures: Vec<String> = FailureKind::ALL
            .iter()
            .map(|&k| format!("{}={}", k.name(), c.failures.count(k)))
            .collect();
        let _ = writeln!(
            s,
            "{}|{}|{}|{:016x}|{:016x}|{}|{}|{}",
            c.dataset,
            c.model.name(),
            c.algorithm,
            c.baseline.to_bits(),
            c.best_accuracy.to_bits(),
            c.n_evals,
            c.best_pipeline,
            failures.join(","),
        );
    }
    s
}

#[test]
fn prefix_cache_matrix_bit_identical_across_threads_and_reruns() {
    let (specs, models, algs, mut cfg) = mini_config();
    cfg.threads = 1;
    let plain = canonical(&run_matrix(&specs, &models, &algs, &cfg));

    cfg.prefix_cache = true;
    let cached = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(plain, canonical(&cached), "prefix cache changed single-thread results");
    assert!(cached.prefix.hits > 0, "the PNAS singles must produce prefix reuse");
    assert!(cached.prefix.steps_saved > 0);
    assert_eq!(cached.prefix.poisoned, 0, "registry datasets produce finite transforms");

    let rerun = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(plain, canonical(&rerun), "prefix-cached rerun diverged");
    // Sequential cells also make the counter stream deterministic.
    assert_eq!(cached.prefix.hits, rerun.prefix.hits);
    assert_eq!(cached.prefix.misses, rerun.prefix.misses);
    assert_eq!(cached.prefix.steps_saved, rerun.prefix.steps_saved);

    cfg.threads = 8;
    let eight = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(plain, canonical(&eight), "thread count leaked through the prefix cache");
}

/// Run the matrix with one `PrefixCache::with_byte_budget(budget)`
/// per dataset, shared across its model groups as the harness shares
/// its own, and fold those caches' counters.
fn run_with_prefix_budget(
    specs: &[DatasetSpec],
    models: &[ModelKind],
    algs: &[AlgName],
    cfg: &HarnessConfig,
    budget: u64,
) -> (MatrixOutcome, PrefixStats) {
    let caches: Vec<(&str, PrefixCache)> =
        specs.iter().map(|s| (s.name, PrefixCache::with_byte_budget(budget))).collect();
    let outcome = run_matrix_with(specs, models, algs, cfg, |d, c, _| {
        let (_, cache) = caches.iter().find(|(name, _)| *name == d.name).expect("dataset listed");
        Box::new(Evaluator::new(d, c).with_prefix_cache(cache.clone()))
    });
    let mut stats = PrefixStats::default();
    for (_, cache) in &caches {
        stats.absorb(&cache.stats());
    }
    (outcome, stats)
}

#[test]
fn tight_byte_budget_evicts_deterministically_without_changing_results() {
    let (specs, models, algs, mut cfg) = mini_config();
    cfg.threads = 1;
    cfg.prefix_cache = true;
    let roomy = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(roomy.prefix.evictions, 0, "default-budget caches never evict here");
    assert!(roomy.prefix.bytes > 0);

    // Room for roughly one 160x~20 f64 train/valid pair: every deeper
    // insert must push earlier prefixes out. The factory attaches
    // these caches itself, so the harness builds none.
    cfg.prefix_cache = false;
    let (tight_outcome, tight) = run_with_prefix_budget(&specs, &models, &algs, &cfg, 64 << 10);
    assert_eq!(
        canonical(&roomy),
        canonical(&tight_outcome),
        "byte-budget eviction must only cost recomputation, never change results"
    );
    assert!(tight.evictions > 0, "a 64 KiB budget over this matrix must evict");
    assert!(tight.bytes_evicted > 0);
    assert!(
        tight.bytes <= 2 * (64 << 10),
        "2 per-dataset caches x 64 KiB budget violated: {} live bytes",
        tight.bytes
    );

    // One worker thread = one deterministic insert/evict stream.
    let (_, rerun) = run_with_prefix_budget(&specs, &models, &algs, &cfg, 64 << 10);
    assert_eq!(tight.evictions, rerun.evictions);
    assert_eq!(tight.bytes_evicted, rerun.bytes_evicted);
    assert_eq!(tight.hits, rerun.hits);
}

/// One column entirely NaN: every prefix transform output stays
/// non-finite, which the cache must refuse to admit.
fn nan_column_dataset() -> Dataset {
    let mut d = SynthConfig::new("nan-col", 80, 4, 2, 19).generate();
    for i in 0..d.x.nrows() {
        d.x.set(i, 2, f64::NAN);
    }
    d
}

#[test]
fn poisoned_prefix_is_rejected_and_never_served() {
    let d = nan_column_dataset();
    let cache = PrefixCache::new();
    let cached =
        Evaluator::new(&d, EvalConfig::default()).with_prefix_cache(cache.clone());
    let plain = Evaluator::new(&d, EvalConfig::default());

    let pipelines = [
        Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
        Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::MinMaxScaler]),
        Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::Normalizer]),
    ];
    for p in &pipelines {
        // Evaluate twice: were a poisoned matrix ever admitted, the
        // second pass would consume it via a cache hit.
        let a = cached.evaluate(p);
        let b = cached.evaluate(p);
        let expect = plain.evaluate(p);
        for t in [&a, &b] {
            assert_eq!(t.accuracy.to_bits(), expect.accuracy.to_bits(), "{p}");
            assert_eq!(t.error.to_bits(), expect.error.to_bits(), "{p}");
            assert_eq!(t.failure, expect.failure, "{p}");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "a non-finite prefix output must never be admitted");
    assert_eq!(stats.hits, 0, "nothing admitted, so nothing may be served");
    assert!(stats.poisoned > 0, "rejections must be visible in the poisoned counter");
    // The evaluator probed the cache on every evaluation.
    let probed = cached.prefix_stats().expect("evaluator carries a prefix cache");
    assert_eq!(probed.lookups(), pipelines.len() as u64 * 2);
}
