//! Pipeline-error evaluation (Eq. 2 / Definition 3 of the paper).
//!
//! # Fault tolerance
//!
//! Evaluation is the one place a search run touches numerically
//! hostile code (preprocessor math, trainer loops), so it is the one
//! place failures are contained. The [`Evaluate`] trait splits the
//! path in two:
//!
//! - [`Evaluate::evaluate_raw`] is the *unshielded* required method:
//!   it returns `Result<Trial, EvalError>` for failures it can detect,
//!   but is allowed to panic.
//! - The provided `try_*` methods are the *shielded* entry points:
//!   they wrap `evaluate_raw` in [`std::panic::catch_unwind`], so one
//!   panicking pipeline costs one [`EvalError::Panic`] — never the
//!   run. Searchers and the batch layer only ever call these.
//!
//! A failed evaluation is converted (by [`evaluate_or_worst`], the
//! batch layer, or the search framework) into a worst-error trial:
//! accuracy 0, error 1 per Eq. 2, mirroring scikit-learn's
//! `error_score` convention, so every searcher keeps running
//! deterministically through faults.
//!
//! # Fit memo
//!
//! Different pipelines often transform the split into bit-identical
//! matrices: a `Binarizer` after any sign-preserving prefix, or an
//! idempotent scaler pair such as `MinMax -> MinMax`. The trial cache
//! keys on the pipeline string and cannot see that, so every
//! [`Evaluator`] keeps a fit memo one layer below it. After Prep and
//! the input checks, `evaluate_raw` digests what it is about to train
//! on — the train and valid shapes, the clamped training-budget
//! fraction, then the trainer's input words ([`Trainer::input_words`])
//! — with [`autofp_linalg::codec::Murmur3x64_128`]. The input words are
//! what the trainer actually reads: every `f64` bit pattern of the
//! train and valid matrices for LR and MLP, and each column's bin codes
//! for XGB, whose splits only see the order of the values. So `[]`,
//! `[StandardScaler]` and `[MinMaxScaler]` share one XGB fit. On a hit it returns the
//! memoized accuracy without fitting; the labels, seed and model are
//! fixed per evaluator, so they stay out of the key. Only finished,
//! uncancelled fits with a finite accuracy are stored, the same rule
//! as trial-cache admission.
//!
//! The memo is one of two digest-keyed cache layers (DESIGN.md
//! "Content-addressed cache identity" says why), an
//! [`autofp_linalg::memo::DigestMemo`]: a 128-bit digest collides with
//! probability at most n²/2¹²⁹. Debug builds keep each entry's input
//! words as a witness and assert word equality on every hit. Two
//! different matrices may share an XGB key on purpose, so the witness
//! is the words, not the matrices.
//!
//! The memo is a plain map from the `u128` digest to the accuracy, and
//! it never evicts. Where a trial cache is attached (every evald
//! context, every `--cache shared` run) each memo insert follows a
//! trial-cache miss, and trial caches never evict either; without one,
//! the evaluation budget bounds the number of fits.
//!
//! # λ memo
//!
//! The other digest-keyed layer sits inside Prep. Every `Evaluator`
//! also owns an [`autofp_preprocess::LambdaMemo`] and hands it to each
//! power-transform fit, on the plain path and on the prefix-cache path
//! alike. It maps the digest of a finite column to the Yeo-Johnson λ
//! searched for it, so a pipeline that feeds a power step a column this
//! evaluator already searched (a shared `PowerTransformer` prefix, or a
//! `Binarizer` after any sign-preserving step) skips the search. The
//! key, its exactness and its witness are documented in
//! `autofp_preprocess::power`; it follows the fit memo's rules and
//! never changes a λ.

use crate::error::EvalError;
use crate::history::Trial;
use crate::prefix::{PrefixCache, PrefixKey, PrefixStats};
use autofp_data::{Dataset, Split};
use autofp_linalg::memo::{DigestKey, DigestMemo, KeyWords, WordSink};
use autofp_linalg::Matrix;
use autofp_models::classifier::{Fit, ModelKind, Trainer};
use autofp_models::metrics::accuracy;
use autofp_models::CancelToken;
use autofp_preprocess::{LambdaMemo, Pipeline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Configuration of an evaluator.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Downstream model family.
    pub model: ModelKind,
    /// Train fraction for the split (paper: 0.8).
    pub train_fraction: f64,
    /// Split / training seed.
    pub seed: u64,
    /// Cap on training rows used per evaluation (stratified subsample;
    /// validation is untouched). This is the §8 "reduce data size to
    /// mitigate the performance bottleneck" extension: searches explore
    /// more pipelines per second at some fidelity cost.
    pub train_subsample: Option<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { model: ModelKind::Lr, train_fraction: 0.8, seed: 0, train_subsample: None }
    }
}

/// Best-effort rendering of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The pipeline-evaluation interface searchers and the batch layer
/// program against.
///
/// [`Evaluator`] is the real implementation; [`crate::FaultInjector`]
/// wraps any implementation to inject deterministic faults for
/// resilience testing. `&Evaluator` coerces to `&dyn Evaluate` at
/// call sites, so code written against the concrete type keeps
/// compiling.
pub trait Evaluate: Send + Sync {
    /// Evaluate `pipeline` at training-budget `fraction`, polling
    /// `cancel` inside trainer loops.
    ///
    /// This is the unshielded method: it reports detectable failures
    /// as `Err`, but **may panic** (a fault injector does so on
    /// purpose). Callers must go through the shielded `try_*` methods
    /// instead of calling this directly.
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError>;

    /// The evaluation configuration (used for cache keys).
    fn config(&self) -> &EvalConfig;

    /// Validation accuracy with no preprocessing (the paper's "no-FP"
    /// baseline).
    fn baseline_accuracy(&self) -> f64;

    /// Number of training rows this evaluator fits on.
    fn train_rows(&self) -> usize;

    /// Counter snapshot of the attached prefix-transform cache, if the
    /// implementation holds one ([`Evaluator::with_prefix_cache`]).
    /// Wrappers delegate; implementations without a local cache (e.g.
    /// [`crate::RemoteEvaluator`], whose workers own theirs) keep the
    /// `None` default.
    fn prefix_stats(&self) -> Option<PrefixStats> {
        None
    }

    /// Shielded evaluation with cooperative cancellation: catches any
    /// panic from [`Evaluate::evaluate_raw`] and maps it to
    /// [`EvalError::Panic`], so one pathological pipeline costs one
    /// trial, never the run.
    fn try_evaluate_cancellable(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        if cancel.is_cancelled() {
            return Err(EvalError::DeadlineExceeded);
        }
        match catch_unwind(AssertUnwindSafe(|| self.evaluate_raw(pipeline, fraction, cancel))) {
            Ok(result) => result,
            Err(payload) => Err(EvalError::Panic { message: panic_message(payload.as_ref()) }),
        }
    }

    /// Shielded evaluation without a deadline.
    fn try_evaluate_budgeted(&self, pipeline: &Pipeline, fraction: f64) -> Result<Trial, EvalError> {
        self.try_evaluate_cancellable(pipeline, fraction, &CancelToken::new())
    }

    /// Shielded evaluation at full training budget.
    fn try_evaluate(&self, pipeline: &Pipeline) -> Result<Trial, EvalError> {
        self.try_evaluate_budgeted(pipeline, 1.0)
    }
}

/// Shielded evaluation that never fails: an `Err` becomes the
/// worst-error trial for `pipeline` (accuracy 0, error 1, tagged with
/// the [`crate::FailureKind`]). This is the total function searchers
/// rely on to keep running through faults.
pub fn evaluate_or_worst(
    evaluator: &dyn Evaluate,
    pipeline: &Pipeline,
    fraction: f64,
    cancel: &CancelToken,
) -> Trial {
    evaluator
        .try_evaluate_cancellable(pipeline, fraction, cancel)
        .unwrap_or_else(|err| Trial::failed(pipeline.clone(), err.kind(), fraction.clamp(0.0, 1.0)))
}

/// The checks an evaluation runs on its transformed matrices, before
/// any training: a preprocessor that maps finite input to NaN/inf has
/// failed (e.g. a power transform overflowing on heavy tails), and a
/// train matrix with no rows or no columns is degenerate. Inputs that
/// were already non-finite are exempt (trainers sanitize them), so the
/// caller says whether each raw input was finite.
///
/// [`Evaluator`] and the serve export fit both run these and
/// [`check_accuracy`], so an export fails exactly where search does.
pub fn check_transformed(
    pipeline: &Pipeline,
    train_x: &Matrix,
    valid_x: &Matrix,
    train_input_finite: bool,
    valid_input_finite: bool,
) -> Result<(), EvalError> {
    if train_input_finite && !train_x.is_finite() {
        return Err(EvalError::NonFiniteTransform {
            detail: format!("train matrix after `{}`", pipeline.key()),
        });
    }
    if valid_input_finite && !valid_x.is_finite() {
        return Err(EvalError::NonFiniteTransform {
            detail: format!("valid matrix after `{}`", pipeline.key()),
        });
    }
    // Kept deliberately narrow: constant or low-information features
    // still train (the model falls back toward majority-class behavior).
    let (n, d) = train_x.shape();
    if n == 0 || d == 0 {
        return Err(EvalError::DegenerateMatrix { detail: format!("train matrix is {n}x{d}") });
    }
    Ok(())
}

/// A validation accuracy that is not finite means the trainer
/// diverged; see [`check_transformed`].
pub fn check_accuracy(acc: f64) -> Result<f64, EvalError> {
    if acc.is_finite() {
        Ok(acc)
    } else {
        Err(EvalError::TrainerDiverged { detail: format!("validation accuracy = {acc}") })
    }
}

/// The fit-memo key of a fit of `trainer` on `train` scored on
/// `valid`: the shapes and the clamped fraction, then the trainer's
/// input words. Also returns the fit itself, to run on a memo miss.
fn fit_key<'a>(
    trainer: &'a dyn Trainer,
    train: &'a Matrix,
    valid: &Matrix,
    fraction: f64,
) -> (DigestKey, Fit<'a>) {
    let (train_rows, train_cols) = train.shape();
    let (valid_rows, valid_cols) = valid.shape();
    let header = [
        train_rows as u64,
        train_cols as u64,
        valid_rows as u64,
        valid_cols as u64,
        fraction.clamp(0.0, 1.0).to_bits(),
    ];
    let mut key = KeyWords::new();
    header.into_iter().for_each(|w| key.word(w));
    let fit = trainer.input_words(train, valid, &mut key);
    (key.finish(), fit)
}

/// Evaluates pipelines: transform train+valid, train the downstream
/// model, report validation accuracy — with per-phase timing.
///
/// An `Evaluator` is `Send + Sync` ([`Trainer`] requires both), so a
/// [`crate::BatchEvaluator`] can share one instance across worker
/// threads by reference. Its only mutable state lies in the fit and λ memos
/// (see the module docs), which never change a result.
pub struct Evaluator {
    split: Split,
    trainer: Box<dyn Trainer>,
    config: EvalConfig,
    baseline: f64,
    // Whether the raw train/valid inputs are fully finite. Non-finite
    // *output* of a preprocessor is only an evaluation failure when
    // the input was finite; datasets that arrive with NaN/inf columns
    // are the trainers' job to tolerate (they sanitize), matching the
    // poisoned-dataset tests.
    train_input_finite: bool,
    valid_input_finite: bool,
    // Optional prefix-transform cache (see `crate::prefix`): when
    // attached, `evaluate_raw` resumes from the deepest cached prefix
    // of each pipeline and stores every newly computed prefix state.
    prefix_cache: Option<PrefixCache>,
    // Validation accuracies by the digest of the fit's inputs (see the
    // module docs).
    fit_memo: DigestMemo<f64>,
    lambda_memo: LambdaMemo,
}

// Compile-time proof of the Sync-friendliness the batch layer relies
// on; fails to build if a future field breaks it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Evaluator>();
};

impl Evaluator {
    /// Build from a dataset: performs the stratified 80:20 split, then
    /// measures the no-FP baseline accuracy once.
    pub fn new(dataset: &Dataset, config: EvalConfig) -> Evaluator {
        let mut split = dataset.stratified_split(config.train_fraction, config.seed);
        if let Some(cap) = config.train_subsample {
            split.train = split.train.subsample(cap, config.seed);
        }
        let trainer = config.model.trainer(config.seed);
        let train_input_finite = split.train.x.is_finite();
        let valid_input_finite = split.valid.x.is_finite();
        let mut ev = Evaluator {
            split,
            trainer,
            config,
            baseline: 0.0,
            train_input_finite,
            valid_input_finite,
            prefix_cache: None,
            fit_memo: DigestMemo::new(),
            lambda_memo: LambdaMemo::new(),
        };
        ev.baseline = ev.evaluate(&Pipeline::empty()).accuracy;
        ev
    }

    /// The downstream model family.
    pub fn model(&self) -> ModelKind {
        self.config.model
    }

    /// The configuration this evaluator was built with (cache keys
    /// include it, so trials never leak across configurations).
    /// Inherent mirror of [`Evaluate::config`] so callers don't need
    /// the trait in scope.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Validation accuracy with no preprocessing (the paper's "no-FP"
    /// red line in Figure 2 and the baseline of the ranking filter).
    /// Inherent mirror of [`Evaluate::baseline_accuracy`].
    pub fn baseline_accuracy(&self) -> f64 {
        self.baseline
    }

    /// The underlying split.
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// Attach a prefix-transform cache ([`crate::PrefixCache`]): every
    /// evaluation resumes from the deepest cached prefix of its
    /// pipeline and memoizes each newly computed prefix state, so
    /// pipelines sharing a prefix pay only for their suffix. Results
    /// stay bit-identical with or without the cache — only wall-clock
    /// attribution and cache counters change (see `crate::prefix`).
    ///
    /// Prefix keys exclude the model, so one cache may be shared by
    /// evaluators of *different models over the same dataset* — but
    /// never across datasets.
    pub fn with_prefix_cache(mut self, cache: PrefixCache) -> Evaluator {
        self.prefix_cache = Some(cache);
        self
    }

    /// The attached prefix cache, if any.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix_cache.as_ref()
    }

    /// Evaluations this evaluator answered from its fit memo instead of
    /// fitting. Above one thread, two evaluations that miss the same
    /// digest at the same time both fit, so the count can vary.
    pub fn fit_memo_hits(&self) -> u64 {
        self.fit_memo.hits()
    }

    /// Power-transform columns this evaluator answered from its λ memo
    /// instead of searching. Above one thread, two fits that miss the
    /// same column at the same time both search, so the count can vary.
    pub fn lambda_memo_hits(&self) -> u64 {
        self.lambda_memo.hits()
    }

    /// Transform train + valid through `pipeline`, resuming from the
    /// deepest cached prefix and caching every prefix state computed
    /// on the way. Applies the suffix step-by-step with the exact
    /// `fit_transform` calls the uncached whole-pipeline path runs, so
    /// outputs are bit-identical to [`Pipeline::fit_transform`] +
    /// `transform_new` on the raw split.
    fn prefix_transform(&self, pipeline: &Pipeline, cache: &PrefixCache) -> (Matrix, Matrix) {
        let keys = PrefixKey::all_prefixes(pipeline, &self.config);
        let (start, mut train, mut valid, mut cost) = match cache.lookup_longest(&keys) {
            Some(hit) => (hit.depth, hit.train, hit.valid, hit.cost),
            None => (0, self.split.train.x.clone(), self.split.valid.x.clone(), Duration::ZERO),
        };
        for (i, step) in pipeline.steps().iter().enumerate().skip(start) {
            // lint:allow(nondet): per-prefix cost attribution feeds CacheStats-style `saved` accounting, never a search decision
            // lint:allow(nondet-flow): reachable from search, but the reading only feeds cost accounting, never scores or proposals
            let step_start = Instant::now();
            let fitted = step.fit_transform(&mut train, &self.lambda_memo);
            fitted.transform(&mut valid);
            cost += step_start.elapsed();
            cache.insert(&keys[i], &train, &valid, i + 1, cost);
        }
        (train, valid)
    }

    /// Evaluate a pipeline at full training budget.
    ///
    /// Infallible wrapper: a failed evaluation yields the worst-error
    /// trial rather than an `Err` (use [`Evaluate::try_evaluate`] to
    /// observe the failure itself).
    pub fn evaluate(&self, pipeline: &Pipeline) -> Trial {
        self.evaluate_budgeted(pipeline, 1.0)
    }

    /// Evaluate a pipeline with a fractional training budget (Hyperband
    /// rungs pass `fraction < 1`). Infallible: failures become
    /// worst-error trials.
    pub fn evaluate_budgeted(&self, pipeline: &Pipeline, fraction: f64) -> Trial {
        evaluate_or_worst(self, pipeline, fraction, &CancelToken::new())
    }
}

impl Evaluate for Evaluator {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        // Prep: fit on train, transform train + valid. With a prefix
        // cache attached, resume from the deepest cached prefix; the
        // suffix runs the same per-step float ops in the same order,
        // so the matrices are bit-identical either way. On a hit,
        // `prep_time` records only the suffix work actually done (the
        // skipped share is tracked in `PrefixStats::saved`).
        // lint:allow(nondet): Prep-phase attribution (Figure 7) measures time; it never feeds a search decision
        // lint:allow(nondet-flow): reachable from search, but prep_time is reporting-only; scores stay a pure function of the data
        let prep_start = Instant::now();
        let (train_x, valid_x) = match &self.prefix_cache {
            Some(cache) if !pipeline.is_empty() => self.prefix_transform(pipeline, cache),
            _ => {
                let (fitted, train_x) =
                    pipeline.fit_transform(&self.split.train.x, &self.lambda_memo);
                let valid_x = fitted.transform_new(&self.split.valid.x);
                (train_x, valid_x)
            }
        };
        let prep_time = prep_start.elapsed();

        check_transformed(
            pipeline,
            &train_x,
            &valid_x,
            self.train_input_finite,
            self.valid_input_finite,
        )?;

        if cancel.is_cancelled() {
            return Err(EvalError::DeadlineExceeded);
        }

        // Train: fit the downstream model and score validation data,
        // unless this evaluator already fitted on inputs its trainer
        // reads alike. On a memo hit, `train_time` records only the
        // digest and the lookup actually done.
        // lint:allow(nondet): Train-phase attribution (Figure 7) measures time; it never feeds a search decision
        let train_start = Instant::now();
        let trial = |accuracy: f64, train_time: Duration| Trial {
            pipeline: pipeline.clone(),
            accuracy,
            error: 1.0 - accuracy,
            prep_time,
            train_time,
            train_fraction: fraction.clamp(0.0, 1.0),
            failure: None,
        };
        let (memo_key, fit) = fit_key(self.trainer.as_ref(), &train_x, &valid_x, fraction);
        if let Some(acc) = self.fit_memo.get(&memo_key) {
            return Ok(trial(acc, train_start.elapsed()));
        }
        let model = fit(&self.split.train.y, self.split.train.n_classes, fraction, cancel);
        let preds = model.predict(&valid_x);
        let train_time = train_start.elapsed();

        // The deadline passing *during* the fit means the model above
        // is partially trained by an amount that depends on wall-clock
        // scheduling; recording its score would be nondeterministic.
        if cancel.is_cancelled() {
            return Err(EvalError::DeadlineExceeded);
        }

        let acc = check_accuracy(accuracy(&self.split.valid.y, &preds))?;
        self.fit_memo.insert(memo_key, acc);
        Ok(trial(acc, train_time))
    }

    fn config(&self) -> &EvalConfig {
        &self.config
    }

    fn baseline_accuracy(&self) -> f64 {
        self.baseline
    }

    fn train_rows(&self) -> usize {
        self.split.train.n_rows()
    }

    fn prefix_stats(&self) -> Option<PrefixStats> {
        self.prefix_cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_data::{Personality, SynthConfig};
    use autofp_preprocess::PreprocKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scale_spread_dataset() -> Dataset {
        let mut p = Personality::default();
        p.scale_spread = 6.0;
        p.skew = 0.4;
        p.class_sep = 2.0;
        p.label_noise = 0.0;
        SynthConfig::new("eval-ds", 400, 8, 2, 41).with_personality(p).generate()
    }

    #[test]
    fn baseline_matches_empty_pipeline() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let t = ev.evaluate(&Pipeline::empty());
        assert!((t.accuracy - ev.baseline_accuracy()).abs() < 1e-12);
        assert!((t.accuracy + t.error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standard_scaler_beats_baseline_on_spread_data() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let t = ev.evaluate(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]));
        assert!(
            t.accuracy > ev.baseline_accuracy() + 0.02,
            "scaled {} vs baseline {}",
            t.accuracy,
            ev.baseline_accuracy()
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::PowerTransformer]);
        let a = ev.evaluate(&p).accuracy;
        let b = ev.evaluate(&p).accuracy;
        assert_eq!(a, b);
    }

    #[test]
    fn timings_are_recorded() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let t = ev.evaluate(&Pipeline::from_kinds(&[PreprocKind::PowerTransformer]));
        assert!(t.prep_time.as_nanos() > 0);
        assert!(t.train_time.as_nanos() > 0);
        assert!(!t.is_failed());
    }

    #[test]
    fn budgeted_evaluation_records_fraction() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig { model: ModelKind::Xgb, ..Default::default() });
        let t = ev.evaluate_budgeted(&Pipeline::empty(), 0.25);
        assert!((t.train_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn train_subsample_caps_training_rows_only() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(
            &d,
            EvalConfig { train_subsample: Some(50), ..Default::default() },
        );
        assert_eq!(ev.split().train.n_rows(), 50);
        assert_eq!(ev.train_rows(), 50);
        // Validation keeps its full 20%.
        assert_eq!(ev.split().valid.n_rows(), 80);
        let t = ev.evaluate(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]));
        assert!((0.0..=1.0).contains(&t.accuracy));
    }

    #[test]
    fn all_three_model_kinds_evaluate() {
        let d = SynthConfig::new("eval-3m", 150, 5, 3, 7).generate();
        for model in ModelKind::ALL {
            let ev = Evaluator::new(&d, EvalConfig { model, seed: 1, ..Default::default() });
            let t = ev.evaluate(&Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]));
            assert!((0.0..=1.0).contains(&t.accuracy), "{model}: {}", t.accuracy);
        }
    }

    #[test]
    fn prefix_cache_is_bit_identical_and_skips_steps() {
        let d = scale_spread_dataset();
        let plain = Evaluator::new(&d, EvalConfig::default());
        let cached = Evaluator::new(&d, EvalConfig::default())
            .with_prefix_cache(PrefixCache::new());

        // Pipelines sharing the [Standard, Power] prefix, evaluated in
        // an order that exercises extension, exact replay, and a
        // diverging suffix.
        let family = [
            Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
            Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::PowerTransformer]),
            Pipeline::from_kinds(&[
                PreprocKind::StandardScaler,
                PreprocKind::PowerTransformer,
                PreprocKind::QuantileTransformer,
            ]),
            Pipeline::from_kinds(&[
                PreprocKind::StandardScaler,
                PreprocKind::PowerTransformer,
                PreprocKind::Binarizer,
            ]),
            Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::PowerTransformer]),
        ];
        for p in &family {
            let a = plain.evaluate(p);
            let b = cached.evaluate(p);
            assert_eq!(
                a.accuracy.to_bits(),
                b.accuracy.to_bits(),
                "prefix cache changed the result of `{p}`"
            );
            assert_eq!(a.failure, b.failure);
        }
        let stats = cached.prefix_stats().expect("cache attached");
        assert!(plain.prefix_stats().is_none());
        // Evaluations 2-5 all resume from a cached prefix.
        assert_eq!((stats.hits, stats.misses), (4, 1));
        // Saved fit_transform calls: 1 + 2 + 2 + 2 = 7.
        assert_eq!(stats.steps_saved, 7);
        assert!(stats.entries >= 4);

        // Budgeted (fractional) evaluation reuses the same entries:
        // prefix keys exclude the training-budget fraction.
        let before = stats.hits;
        let t = cached.evaluate_budgeted(&family[1], 0.5);
        assert_eq!(t.accuracy.to_bits(), plain.evaluate_budgeted(&family[1], 0.5).accuracy.to_bits());
        assert_eq!(cached.prefix_stats().unwrap().hits, before + 1);
    }

    #[test]
    fn fit_memo_answers_a_repeated_input_with_the_fresh_accuracy() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let once = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let twice = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::MinMaxScaler]);
        let first = ev.evaluate(&once);
        assert_eq!(ev.fit_memo_hits(), 0);
        // MinMax is idempotent, so the second pipeline trains on the
        // first one's matrices bit for bit.
        let hit = ev.evaluate(&twice);
        assert_eq!(ev.fit_memo_hits(), 1);
        assert_eq!(hit.pipeline, twice);
        assert!(hit.failure.is_none());
        let fresh = Evaluator::new(&d, EvalConfig::default()).evaluate(&twice);
        assert_eq!(hit.accuracy.to_bits(), fresh.accuracy.to_bits());
        assert_eq!(hit.accuracy.to_bits(), first.accuracy.to_bits());
    }

    #[test]
    fn lambda_memo_answers_a_power_step_that_sees_a_searched_column() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let first = Pipeline::from_kinds(&[PreprocKind::Binarizer, PreprocKind::PowerTransformer]);
        ev.evaluate(&first);
        // Binarized columns can repeat within one matrix (every value
        // positive binarizes to all ones), so count from here.
        let before = ev.lambda_memo_hits();
        // MaxAbs keeps every sign, so the Binarizer hands the power step
        // the first pipeline's columns bit for bit.
        let second = Pipeline::from_kinds(&[
            PreprocKind::MaxAbsScaler,
            PreprocKind::Binarizer,
            PreprocKind::PowerTransformer,
        ]);
        let hit = ev.try_evaluate(&second).expect("healthy pipeline evaluates");
        assert_eq!(ev.lambda_memo_hits(), before + d.x.ncols() as u64);
        let fresh = Evaluator::new(&d, EvalConfig::default());
        let reference = fresh.try_evaluate(&second).expect("healthy pipeline evaluates");
        assert_eq!(fresh.lambda_memo_hits(), before);
        assert_eq!(hit.accuracy.to_bits(), reference.accuracy.to_bits());
        assert_eq!(hit.failure, reference.failure);
    }

    #[test]
    fn fit_memo_keys_on_the_training_fraction() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig { model: ModelKind::Xgb, ..Default::default() });
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        // XGB reads the scaled matrices as the baseline's bin codes.
        ev.evaluate_budgeted(&p, 1.0);
        assert_eq!(ev.fit_memo_hits(), 1);
        ev.evaluate_budgeted(&p, 0.5);
        assert_eq!(ev.fit_memo_hits(), 1);
        // Fractions clamp before they are keyed, as the trainers clamp them.
        ev.evaluate_budgeted(&p, 1.5);
        assert_eq!(ev.fit_memo_hits(), 2);
    }

    /// `pipeline`'s accuracy from a direct fit of `ev`'s model, with no
    /// evaluator and so no memo.
    fn memo_free_accuracy(ev: &Evaluator, pipeline: &Pipeline) -> f64 {
        let split = ev.split();
        let (fitted, train_x) = pipeline.fit_transform(&split.train.x, &LambdaMemo::new());
        let valid_x = fitted.transform_new(&split.valid.x);
        let model = ev.model().trainer(ev.config().seed).fit(
            &train_x,
            &split.train.y,
            split.train.n_classes,
        );
        accuracy(&split.valid.y, &model.predict(&valid_x))
    }

    #[test]
    fn xgb_fit_memo_answers_per_column_monotone_scalers_from_the_baseline_fit() {
        // Every feature takes at most 13 levels, as ordinal columns do, so
        // each validation value is also a training value and keeps its bin
        // code under any increasing map, the power transform included.
        let mut d = scale_spread_dataset();
        d.x.map_inplace(|v| (v.atan() * 4.0).round());
        let monotone = [
            PreprocKind::StandardScaler,
            PreprocKind::MinMaxScaler,
            PreprocKind::MaxAbsScaler,
            PreprocKind::PowerTransformer,
        ];
        let xgb = Evaluator::new(&d, EvalConfig { model: ModelKind::Xgb, ..Default::default() });
        assert_eq!(xgb.fit_memo_hits(), 0);
        for (i, kind) in monotone.into_iter().enumerate() {
            let p = Pipeline::from_kinds(&[kind]);
            let t = xgb.try_evaluate(&p).expect("healthy pipeline evaluates");
            assert_eq!(xgb.fit_memo_hits(), i as u64 + 1, "`{p}` fitted again");
            assert_eq!(t.accuracy.to_bits(), memo_free_accuracy(&xgb, &p).to_bits(), "`{p}`");
            assert_eq!(t.accuracy.to_bits(), xgb.baseline_accuracy().to_bits());
        }
        // LR reads every bit, so the same pipelines all fit.
        let lr = Evaluator::new(&d, EvalConfig::default());
        for kind in monotone {
            let p = Pipeline::from_kinds(&[kind]);
            let t = lr.try_evaluate(&p).expect("healthy pipeline evaluates");
            assert_eq!(t.accuracy.to_bits(), memo_free_accuracy(&lr, &p).to_bits(), "`{p}`");
        }
        assert_eq!(lr.fit_memo_hits(), 0);
    }

    #[test]
    fn fit_memo_key_separates_shapes_of_the_same_values() {
        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let valid = Matrix::zeros(1, 1);
        let wide = Matrix::from_vec(2, 3, values.clone());
        let tall = Matrix::from_vec(3, 2, values);
        for model in ModelKind::ALL {
            let trainer = model.trainer(0);
            let key = |x: &Matrix| fit_key(trainer.as_ref(), x, &valid, 1.0).0.digest;
            assert_ne!(key(&wide), key(&tall), "{model}");
        }
    }

    /// Trips its token as a fit starts, so the fit it delegates to stops
    /// after its first iteration: a deadline that passes mid-fit.
    struct CancelsMidFit {
        token: CancelToken,
        inner: Box<dyn Trainer>,
        fits: std::sync::Arc<AtomicU64>,
    }

    impl Trainer for CancelsMidFit {
        fn fit_budgeted(
            &self,
            x: &Matrix,
            y: &[usize],
            n_classes: usize,
            budget: f64,
        ) -> Box<dyn autofp_models::classifier::Classifier> {
            self.fit_cancellable(x, y, n_classes, budget, &CancelToken::new())
        }

        fn fit_cancellable(
            &self,
            x: &Matrix,
            y: &[usize],
            n_classes: usize,
            budget: f64,
            cancel: &CancelToken,
        ) -> Box<dyn autofp_models::classifier::Classifier> {
            self.token.cancel();
            self.fits.fetch_add(1, Ordering::Relaxed);
            self.inner.fit_cancellable(x, y, n_classes, budget, cancel)
        }

        fn name(&self) -> &'static str {
            "cancels-mid-fit"
        }
    }

    #[test]
    fn fit_memo_never_stores_a_cancelled_fit() {
        let d = scale_spread_dataset();
        let mut ev = Evaluator::new(&d, EvalConfig::default());
        let token = CancelToken::new();
        let fits = std::sync::Arc::new(AtomicU64::new(0));
        ev.trainer = Box::new(CancelsMidFit {
            token: token.clone(),
            inner: ModelKind::Lr.trainer(0),
            fits: fits.clone(),
        });
        let p = Pipeline::from_kinds(&[PreprocKind::PowerTransformer]);
        let err = ev.try_evaluate_cancellable(&p, 1.0, &token).unwrap_err();
        assert_eq!(err, EvalError::DeadlineExceeded);
        // The next evaluation fits in full rather than reading a
        // partially trained score.
        let t = ev.try_evaluate(&p).expect("uncancelled evaluation");
        assert_eq!((fits.load(Ordering::Relaxed), ev.fit_memo_hits()), (2, 0));
        let fresh = Evaluator::new(&d, EvalConfig::default()).evaluate(&p);
        assert_eq!(t.accuracy.to_bits(), fresh.accuracy.to_bits());
        // Now stored: a third evaluation is a hit.
        ev.try_evaluate(&p).expect("memo hit");
        assert_eq!((fits.load(Ordering::Relaxed), ev.fit_memo_hits()), (2, 1));
    }

    #[test]
    fn fit_memo_never_stores_a_non_finite_transform() {
        // Values near f64::MAX: MinMax's column range overflows to inf.
        let mut d = SynthConfig::new("eval-huge", 400, 8, 2, 41).generate();
        for r in 0..d.x.nrows() {
            d.x.set(r, 0, d.x.get(r, 0) * 1e307);
        }
        let ev = Evaluator::new(&d, EvalConfig::default());
        let entries = ev.fit_memo.entries();
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        for _ in 0..2 {
            let err = ev.try_evaluate(&p).unwrap_err();
            assert!(matches!(err, EvalError::NonFiniteTransform { .. }), "{err:?}");
        }
        assert_eq!(ev.fit_memo.entries(), entries);
        assert_eq!(ev.fit_memo_hits(), 0);
    }

    #[test]
    fn try_evaluate_succeeds_on_healthy_data() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let t = ev.try_evaluate(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]));
        let t = t.expect("healthy pipeline evaluates");
        assert!(t.accuracy.is_finite());
        assert!(t.failure.is_none());
    }

    #[test]
    fn pre_cancelled_token_is_deadline_error() {
        let d = scale_spread_dataset();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = ev
            .try_evaluate_cancellable(&Pipeline::empty(), 1.0, &cancel)
            .unwrap_err();
        assert_eq!(err, EvalError::DeadlineExceeded);
    }

    #[test]
    fn worst_error_fallback_tags_failure() {
        struct AlwaysPanics(EvalConfig);
        impl Evaluate for AlwaysPanics {
            fn evaluate_raw(
                &self,
                _p: &Pipeline,
                _f: f64,
                _c: &CancelToken,
            ) -> Result<Trial, EvalError> {
                panic!("boom from test evaluator");
            }
            fn config(&self) -> &EvalConfig {
                &self.0
            }
            fn baseline_accuracy(&self) -> f64 {
                0.5
            }
            fn train_rows(&self) -> usize {
                0
            }
        }
        let ev = AlwaysPanics(EvalConfig::default());
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        // Silence the expected panic's default hook output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = ev.try_evaluate(&p).unwrap_err();
        let t = evaluate_or_worst(&ev, &p, 1.0, &CancelToken::new());
        std::panic::set_hook(prev);
        assert!(matches!(err, EvalError::Panic { ref message } if message.contains("boom")));
        assert_eq!(t.error, 1.0);
        assert_eq!(t.failure, Some(crate::error::FailureKind::Panic));
    }
}
