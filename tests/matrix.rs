//! Matrix-level determinism and cache-reuse suite: the bench harness's
//! dataset × model × algorithm runner must be a pure function of its
//! config — worker-thread count, rerun and cache mode may change
//! wall-clock, never results.
//!
//! This extends the per-search invariants of `tests/determinism.rs` to
//! the bench layer: a mini Table 4 matrix (2 datasets × 2 models × 3
//! algorithms) is canonicalized to a byte string (f64 bit patterns, no
//! wall-clock fields) and compared across runs.
//!
//! It also pins the evaluator's fit and λ memos against a memo-free
//! reference: an evaluator that transforms the split with a fresh λ
//! memo and fits a fresh trainer for every evaluation, so no fit or λ
//! is shared between evaluations.

use autofp_bench::{run_matrix, run_matrix_with, CacheMode, HarnessConfig, MatrixOutcome};
use autofp_core::evaluator::{check_accuracy, check_transformed};
use autofp_core::{Budget, EvalConfig, EvalError, Evaluate, Evaluator, FailureKind, Trial};
use autofp_data::{registry, DatasetSpec};
use autofp_models::classifier::ModelKind;
use autofp_models::metrics::accuracy;
use autofp_models::CancelToken;
use autofp_preprocess::{LambdaMemo, Pipeline};
use autofp_search::AlgName;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The mini Table 4 matrix: small datasets, eval-count budget (so cache
/// hits cannot change how many proposals fit in the budget), and two
/// PNAS variants that both open with the same 7 single-preprocessor
/// pipelines — guaranteed cross-algorithm duplicates for the shared
/// cache to absorb.
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

/// Serialize everything deterministic about a matrix run: cell identity,
/// f64 bit patterns, eval counts, winning pipelines, and failure
/// tallies. Cache counters and phase timings are deliberately excluded
/// (hit/miss splits race under a shared cache; timings are wall-clock).
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
fn matrix_byte_identical_across_thread_counts_and_reruns() {
    let (specs, models, algs, mut cfg) = mini_config();
    cfg.threads = 1;
    let single = canonical(&run_matrix(&specs, &models, &algs, &cfg));
    let rerun = canonical(&run_matrix(&specs, &models, &algs, &cfg));
    assert_eq!(single, rerun, "same config must reproduce byte-identically");
    cfg.threads = 8;
    let eight = canonical(&run_matrix(&specs, &models, &algs, &cfg));
    assert_eq!(single, eight, "worker-thread count leaked into matrix results");
    assert_eq!(single.lines().count(), 12, "2 datasets x 2 models x 3 algorithms");
}

#[test]
fn shared_cache_matches_no_cache_and_reuses_across_algorithms() {
    let (specs, models, algs, mut cfg) = mini_config();
    // Sequential cells make the hit counts deterministic: concurrent
    // cells of one group can race to a miss on the same key (results
    // stay bit-identical — thread invariance is pinned above — but the
    // hit/miss split would wobble).
    cfg.threads = 1;
    cfg.cache_mode = CacheMode::Shared;
    let shared = run_matrix(&specs, &models, &algs, &cfg);
    cfg.cache_mode = CacheMode::Off;
    let off = run_matrix(&specs, &models, &algs, &cfg);

    assert_eq!(canonical(&shared), canonical(&off), "cache sharing must never change results");
    // PMNE and PLNE both evaluate the 7 single-preprocessor pipelines
    // first, so each (dataset, model) group's shared cache serves at
    // least those 7 across algorithms: 4 groups x 7 = 28 minimum.
    assert!(
        shared.cache.hits >= 28,
        "expected >= 28 cross-algorithm cache hits, got {}",
        shared.cache.hits
    );
}

/// Evaluates every pipeline with the steps and checks of
/// `Evaluator::evaluate_raw` but a fresh λ memo, a fresh trainer and no
/// fit memo, on the template's split: nothing one evaluation computes
/// can answer another, not even the template's baseline fit (which an
/// XGB evaluator's memo serves to every per-column increasing pipeline).
struct MemoFree {
    template: Evaluator,
}

impl Evaluate for MemoFree {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let (split, config) = (self.template.split(), self.template.config());
        let (fitted, train_x) = pipeline.fit_transform(&split.train.x, &LambdaMemo::new());
        let valid_x = fitted.transform_new(&split.valid.x);
        let finite = (split.train.x.is_finite(), split.valid.x.is_finite());
        check_transformed(pipeline, &train_x, &valid_x, finite.0, finite.1)?;
        if cancel.is_cancelled() {
            return Err(EvalError::DeadlineExceeded);
        }
        let model = config.model.trainer(config.seed).fit_cancellable(
            &train_x,
            &split.train.y,
            split.train.n_classes,
            fraction,
            cancel,
        );
        let preds = model.predict(&valid_x);
        if cancel.is_cancelled() {
            return Err(EvalError::DeadlineExceeded);
        }
        let acc = check_accuracy(accuracy(&split.valid.y, &preds))?;
        Ok(Trial {
            pipeline: pipeline.clone(),
            accuracy: acc,
            error: 1.0 - acc,
            prep_time: std::time::Duration::ZERO,
            train_time: std::time::Duration::ZERO,
            train_fraction: fraction.clamp(0.0, 1.0),
            failure: None,
        })
    }

    fn config(&self) -> &EvalConfig {
        self.template.config()
    }

    fn baseline_accuracy(&self) -> f64 {
        self.template.baseline_accuracy()
    }

    fn train_rows(&self) -> usize {
        Evaluate::train_rows(&self.template)
    }
}

/// The harness's own evaluator, adding its fit-memo and λ-memo hits
/// to shared tallies when the matrix drops it.
struct TallyHits {
    evaluator: Evaluator,
    hits: Arc<AtomicU64>,
    lambda_hits: Arc<AtomicU64>,
}

impl Drop for TallyHits {
    fn drop(&mut self) {
        self.hits.fetch_add(self.evaluator.fit_memo_hits(), Ordering::Relaxed);
        self.lambda_hits.fetch_add(self.evaluator.lambda_memo_hits(), Ordering::Relaxed);
    }
}

impl Evaluate for TallyHits {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        self.evaluator.evaluate_raw(pipeline, fraction, cancel)
    }

    fn config(&self) -> &EvalConfig {
        self.evaluator.config()
    }

    fn baseline_accuracy(&self) -> f64 {
        self.evaluator.baseline_accuracy()
    }

    fn train_rows(&self) -> usize {
        Evaluate::train_rows(&self.evaluator)
    }
}

#[test]
fn fit_memo_matches_a_memo_free_reference() {
    let (specs, models, algs, mut cfg) = mini_config();
    for threads in [1, 8] {
        cfg.threads = threads;
        let memo = canonical(&run_matrix(&specs, &models, &algs, &cfg));
        let hits = Arc::new(AtomicU64::new(0));
        let lambda_hits = Arc::new(AtomicU64::new(0));
        let tallied = canonical(&run_matrix_with(&specs, &models, &algs, &cfg, |d, c, _| {
            Box::new(TallyHits {
                evaluator: Evaluator::new(d, c),
                hits: hits.clone(),
                lambda_hits: lambda_hits.clone(),
            })
        }));
        let reference = canonical(&run_matrix_with(&specs, &models, &algs, &cfg, |d, c, _| {
            Box::new(MemoFree { template: Evaluator::new(d, c) })
        }));
        assert_eq!(memo, reference, "{threads} threads: a memo changed a result");
        assert_eq!(tallied, reference, "{threads} threads");
        // Not vacuous: pipelines with bit-identical transforms (and,
        // above one thread, trial-cache misses that race) reach the memo.
        assert!(hits.load(Ordering::Relaxed) > 0, "{threads} threads: no fit memo hit");
        // Pipelines that hand a power step a column it already searched
        // (a shared `PowerTransformer` prefix, say) reach the λ memo.
        let lambda_hits = lambda_hits.load(Ordering::Relaxed);
        assert!(lambda_hits > 0, "{threads} threads: no λ memo hit");
    }
}
