//! Parallel batch evaluation (§5 extension).
//!
//! The paper's Figure 6-7 bottleneck analysis shows evaluation (Prep +
//! Train) dwarfs algorithm overhead (Pick), so the straightest path to
//! "fast as the hardware allows" is evaluating *many candidate
//! pipelines at once*. A [`BatchEvaluator`] fans a slice of pipelines
//! out across a scoped worker pool ([`std::thread::scope`]; evaluators
//! are `Send + Sync`, so workers share them by reference), preserving:
//!
//! * **deterministic result ordering** — `results[i]` is always the
//!   trial of `pipelines[i]`, whatever order workers finish in;
//! * **per-trial timing** — each worker measures its own trial's Prep
//!   and Train phases exactly as the sequential path does;
//! * **bit-identical accuracies** — trials are independent and the
//!   evaluator is deterministic, so thread count never changes results;
//! * **panic isolation** — every worker job runs through the shielded
//!   [`Evaluate`] path, so a panicking pipeline yields its own
//!   worst-error trial and the rest of the batch completes normally.
//!
//! With [`BatchEvaluator::with_cache`], duplicate proposals — both
//! repeats across batches and duplicates *within* one batch — are
//! satisfied by a single evaluation through an [`EvalCache`]. This is
//! the workspace's one cached-evaluation path — key, lookup, evaluate
//! on a miss, insert: [`crate::SearchContext::evaluate`] and evald's
//! `Eval` handler run their single pipelines through it as one-pipeline
//! batches, which [`pool_map`] runs inline without spawning a thread.
//! With
//! [`BatchEvaluator::with_cancel`], workers stop starting model fits
//! once the token fires (in-flight fits return early at their next
//! epoch boundary), bounding wall-clock overrun per batch.
//!
//! An [`crate::Evaluator`] carrying a prefix-transform cache
//! ([`crate::Evaluator::with_prefix_cache`]) keeps it through this
//! layer automatically: the cache lives *inside* the evaluator, is
//! thread-safe, and workers sharing it only skip redundant transform
//! work — batch results stay bit-identical to the sequential,
//! uncached path at any thread count (pinned by this module's tests).
//!
//! ```
//! use autofp_core::{BatchEvaluator, EvalConfig, Evaluator};
//! use autofp_data::SynthConfig;
//! use autofp_preprocess::{Pipeline, PreprocKind};
//!
//! let dataset = SynthConfig::new("batch-doc", 120, 5, 2, 3).generate();
//! let evaluator = Evaluator::new(&dataset, EvalConfig::default());
//! let pipelines = vec![
//!     Pipeline::empty(),
//!     Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
//!     Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]),
//! ];
//!
//! let batch = BatchEvaluator::new(&evaluator).with_threads(2);
//! let trials = batch.evaluate_batch(&pipelines);
//! assert_eq!(trials.len(), 3);
//! // results[i] corresponds to pipelines[i], and matches sequential:
//! let sequential = evaluator.evaluate(&pipelines[1]);
//! assert_eq!(trials[1].accuracy, sequential.accuracy);
//! ```

use crate::cache::{CacheKey, EvalCache};
use crate::evaluator::{evaluate_or_worst, Evaluate};
use crate::history::Trial;
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Run `n_jobs` independent jobs across a scoped worker pool and
/// return their results in input order: `results[i]` is `job(i)`.
///
/// This is the one worker-pool primitive of the workspace — the
/// [`BatchEvaluator`] fans pipeline evaluations through it, and the
/// bench harness fans whole scenario cells through it — so every layer
/// inherits the same guarantees:
///
/// * **input-order results** — whatever order workers finish in,
///   `results[i]` always belongs to job `i`;
/// * **thread-count invariance** — jobs receive only their index, so a
///   deterministic `job` function yields bit-identical results at any
///   `threads` value (`threads <= 1` runs inline on the caller);
/// * **panic propagation** — a panicking job aborts the pool (scoped
///   threads re-raise on join). Jobs that must survive faults shield
///   themselves, as [`BatchEvaluator`] does via
///   [`evaluate_or_worst`].
pub fn pool_map<T, F>(threads: usize, n_jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n_jobs);
    if workers <= 1 {
        return (0..n_jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let result = job(i);
                // A slot mutex is written once by exactly one worker;
                // recovering from a (theoretical) poison is safe
                // because `Some(result)` is assigned atomically from
                // the worker's point of view.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint:allow(panic-boundary): the fetch_add loop claims every index below n_jobs exactly once
                // lint:allow(panic-reach): same invariant — reachable from the serve daemon's predict path, and the slot is always filled
                .expect("every job index below n_jobs is claimed by exactly one worker")
        })
        .collect()
}

/// Evaluates batches of candidate pipelines on a worker pool, with
/// optional pipeline-result caching and cooperative cancellation.
///
/// Construct per search run or per evaluation (it is cheap: a few
/// words plus references, and the machine's parallelism is only read
/// when a batch of several jobs runs without [`BatchEvaluator::with_threads`]);
/// the worker pool is scoped to each `evaluate_batch*` call, so no
/// threads linger between batches.
pub struct BatchEvaluator<'a> {
    evaluator: &'a dyn Evaluate,
    /// `None` = the machine's available parallelism.
    threads: Option<usize>,
    cache: Option<&'a EvalCache>,
    cancel: CancelToken,
}

impl<'a> BatchEvaluator<'a> {
    /// A batch evaluator over `evaluator`, defaulting to the machine's
    /// available parallelism, no cache, and a token that never fires.
    pub fn new(evaluator: &'a dyn Evaluate) -> BatchEvaluator<'a> {
        BatchEvaluator { evaluator, threads: None, cache: None, cancel: CancelToken::new() }
    }

    /// Set the worker count (clamped to at least 1). One worker means
    /// plain sequential evaluation on the calling thread.
    pub fn with_threads(mut self, threads: usize) -> BatchEvaluator<'a> {
        self.threads = Some(threads.max(1));
        self
    }

    /// Memoize results in (and serve duplicates from) `cache`.
    pub fn with_cache(mut self, cache: &'a EvalCache) -> BatchEvaluator<'a> {
        self.cache = Some(cache);
        self
    }

    /// Thread `cancel` into every evaluation: jobs not yet started
    /// when it fires become deadline failures, and running model fits
    /// return early at their next iteration boundary.
    pub fn with_cancel(mut self, cancel: CancelToken) -> BatchEvaluator<'a> {
        self.cancel = cancel;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &dyn Evaluate {
        self.evaluator
    }

    /// Evaluate every pipeline at full training budget. `results[i]`
    /// is the trial of `pipelines[i]`.
    pub fn evaluate_batch(&self, pipelines: &[Pipeline]) -> Vec<Trial> {
        self.evaluate_batch_budgeted(pipelines, 1.0)
    }

    /// Evaluate every pipeline at a fractional training budget
    /// (Hyperband rungs pass `fraction < 1`).
    pub fn evaluate_batch_budgeted(&self, pipelines: &[Pipeline], fraction: f64) -> Vec<Trial> {
        match self.cache {
            Some(cache) => self.run_cached(pipelines, fraction, cache),
            None => {
                let jobs: Vec<&Pipeline> = pipelines.iter().collect();
                self.run_parallel(&jobs, fraction)
            }
        }
    }

    /// Cached path: resolve each slot to a memoized trial or a
    /// deduplicated evaluation job, run the jobs in parallel, memoize
    /// their trials, then fill every slot in input order.
    fn run_cached(
        &self,
        pipelines: &[Pipeline],
        fraction: f64,
        cache: &EvalCache,
    ) -> Vec<Trial> {
        let config = self.evaluator.config();
        let keys: Vec<CacheKey> =
            pipelines.iter().map(|p| CacheKey::new(p, fraction, config)).collect();

        // Slot -> either a memoized trial or an index into the job list.
        // Hits satisfied from earlier batches come back immediately;
        // within-batch duplicates share one job without a lookup of
        // their own and are counted as hits once the shared result
        // exists (their saved time is the shared job's cost).
        enum Slot {
            Ready(Trial),
            Job { job: usize, duplicate: bool },
        }
        // lint:allow(nondet): keyed dedup lookup only — never iterated, so hash order is unobservable
        let mut job_of_key: std::collections::HashMap<&str, usize> = Default::default();
        let mut jobs: Vec<&Pipeline> = Vec::new();
        let mut job_keys: Vec<&CacheKey> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(pipelines.len());
        for (p, key) in pipelines.iter().zip(&keys) {
            if let Some(&job) = job_of_key.get(key.canonical()) {
                slots.push(Slot::Job { job, duplicate: true });
            } else if let Some(trial) = cache.lookup(key) {
                slots.push(Slot::Ready(trial));
            } else {
                let job = jobs.len();
                job_of_key.insert(key.canonical(), job);
                jobs.push(p);
                job_keys.push(key);
                slots.push(Slot::Job { job, duplicate: false });
            }
        }

        let fresh = self.run_parallel(&jobs, fraction);
        for (key, trial) in job_keys.iter().zip(&fresh) {
            // insert() itself refuses deadline failures, which are a
            // property of this run's clock, not of the pipeline.
            cache.insert(key, trial);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(t) => t,
                Slot::Job { job, duplicate } => {
                    if duplicate {
                        cache.note_hit(&fresh[job]);
                    }
                    fresh[job].clone()
                }
            })
            .collect()
    }

    /// Evaluate `jobs` across the worker pool; `results[i]` belongs to
    /// `jobs[i]`. Every job runs through the shielded evaluation path
    /// ([`evaluate_or_worst`]), so a panic inside one evaluation is
    /// caught at that job's boundary and recorded as its worst-error
    /// trial — the other jobs, and the batch, are unaffected.
    fn run_parallel(&self, jobs: &[&Pipeline], fraction: f64) -> Vec<Trial> {
        // One job runs inline whatever the thread count, so skip reading
        // the machine's parallelism for it.
        let threads = if jobs.len() > 1 { self.threads() } else { 1 };
        pool_map(threads, jobs.len(), |i| {
            evaluate_or_worst(self.evaluator, jobs[i], fraction, &self.cancel)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalCache;
    use crate::error::{EvalError, FailureKind};
    use crate::evaluator::{EvalConfig, Evaluator};
    use autofp_data::SynthConfig;
    use autofp_linalg::rng::rng_from_seed;
    use autofp_preprocess::{ParamSpace, PreprocKind};

    fn evaluator() -> Evaluator {
        let d = SynthConfig::new("batch-test", 150, 5, 2, 3).generate();
        Evaluator::new(&d, EvalConfig::default())
    }

    fn random_batch(n: usize, seed: u64) -> Vec<Pipeline> {
        let space = ParamSpace::default_space();
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| space.sample_pipeline(&mut rng, 4)).collect()
    }

    #[test]
    fn pool_map_results_are_input_ordered_at_any_thread_count() {
        let job = |i: usize| i * i + 1;
        let expected: Vec<usize> = (0..37).map(job).collect();
        for threads in [0, 1, 2, 5, 16] {
            assert_eq!(pool_map(threads, 37, job), expected, "threads = {threads}");
        }
        assert!(pool_map::<usize, _>(4, 0, job).is_empty());
    }

    #[test]
    fn pool_map_runs_every_job_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = pool_map(8, 64, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i} ran a wrong number of times");
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let ev = evaluator();
        let batch = random_batch(24, 11);
        let sequential: Vec<Trial> = batch.iter().map(|p| ev.evaluate(p)).collect();
        for threads in [2, 4, 8] {
            let parallel = BatchEvaluator::new(&ev).with_threads(threads).evaluate_batch(&batch);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.pipeline.key(), s.pipeline.key(), "ordering must be stable");
                assert_eq!(
                    p.accuracy.to_bits(),
                    s.accuracy.to_bits(),
                    "accuracy must be bit-identical at {threads} threads"
                );
                assert_eq!(p.train_fraction, s.train_fraction);
            }
        }
    }

    #[test]
    fn prefix_cached_batches_match_uncached_at_any_thread_count() {
        use crate::prefix::PrefixCache;
        let plain = evaluator();
        let batch = random_batch(24, 11);
        let sequential: Vec<Trial> = batch.iter().map(|p| plain.evaluate(p)).collect();
        for threads in [1, 2, 8] {
            // A fresh cache per thread count: workers race to insert
            // and hit prefixes, which must never surface in results.
            let cached = evaluator().with_prefix_cache(PrefixCache::new());
            let parallel =
                BatchEvaluator::new(&cached).with_threads(threads).evaluate_batch(&batch);
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.pipeline.key(), s.pipeline.key());
                assert_eq!(
                    p.accuracy.to_bits(),
                    s.accuracy.to_bits(),
                    "prefix cache leaked into results at {threads} threads"
                );
                assert_eq!(p.failure, s.failure);
            }
            let stats = cached.prefix_stats().expect("cache attached");
            assert_eq!(stats.lookups(), 24, "one probe per non-empty pipeline");
        }
    }

    #[test]
    fn single_thread_is_plain_sequential() {
        let ev = evaluator();
        let batch = random_batch(5, 7);
        let a = BatchEvaluator::new(&ev).with_threads(1).evaluate_batch(&batch);
        let b: Vec<Trial> = batch.iter().map(|p| ev.evaluate(p)).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let ev = evaluator();
        assert!(BatchEvaluator::new(&ev).evaluate_batch(&[]).is_empty());
    }

    #[test]
    fn cache_dedups_within_and_across_batches() {
        let ev = evaluator();
        let cache = EvalCache::new();
        let batch_eval = BatchEvaluator::new(&ev).with_threads(2).with_cache(&cache);
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let q = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);

        // Within-batch duplicates: 4 slots, 2 unique.
        let trials = batch_eval.evaluate_batch(&[p.clone(), q.clone(), p.clone(), p.clone()]);
        assert_eq!(trials.len(), 4);
        assert_eq!(trials[0].accuracy.to_bits(), trials[2].accuracy.to_bits());
        assert_eq!(trials[0].accuracy.to_bits(), trials[3].accuracy.to_bits());
        let s1 = cache.stats();
        assert_eq!(s1.misses, 2, "two unique evaluations");
        assert_eq!(s1.hits, 2, "two duplicate slots shared them");
        assert_eq!(s1.entries, 2);

        // Across batches: everything hits now.
        let again = batch_eval.evaluate_batch(&[q.clone(), p.clone()]);
        assert_eq!(again[1].accuracy.to_bits(), trials[0].accuracy.to_bits());
        let s2 = cache.stats();
        assert_eq!(s2.misses, 2);
        assert_eq!(s2.hits, 4);
        assert!(s2.hit_rate() > 0.6);
        assert!(s2.saved > std::time::Duration::ZERO);
    }

    #[test]
    fn cache_hit_is_bit_identical_to_fresh_eval() {
        let ev = evaluator();
        let cache = EvalCache::new();
        let batch_eval = BatchEvaluator::new(&ev).with_cache(&cache);
        let p = Pipeline::from_kinds(&[PreprocKind::PowerTransformer, PreprocKind::Normalizer]);
        let fresh = batch_eval.evaluate_batch(std::slice::from_ref(&p));
        let hit = batch_eval.evaluate_batch(std::slice::from_ref(&p));
        assert_eq!(fresh[0].accuracy.to_bits(), hit[0].accuracy.to_bits());
        assert_eq!(fresh[0].error.to_bits(), hit[0].error.to_bits());
        assert_eq!(fresh[0].prep_time, hit[0].prep_time);
        assert_eq!(fresh[0].train_time, hit[0].train_time);
        assert_eq!(fresh[0].train_fraction, hit[0].train_fraction);
        assert_eq!(fresh[0].pipeline.key(), hit[0].pipeline.key());
    }

    #[test]
    fn budgeted_fractions_are_cached_separately() {
        let ev = evaluator();
        let cache = EvalCache::new();
        let batch_eval = BatchEvaluator::new(&ev).with_cache(&cache);
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        batch_eval.evaluate_batch_budgeted(std::slice::from_ref(&p), 0.25);
        batch_eval.evaluate_batch_budgeted(std::slice::from_ref(&p), 1.0);
        let s = cache.stats();
        assert_eq!(s.misses, 2, "different fractions are different keys");
        assert_eq!(s.entries, 2);
    }

    /// Delegates to a real evaluator except for one victim pipeline,
    /// whose evaluation panics.
    struct PanicsOnVictim<'a> {
        inner: &'a Evaluator,
        victim: String,
    }

    impl Evaluate for PanicsOnVictim<'_> {
        fn evaluate_raw(
            &self,
            pipeline: &Pipeline,
            fraction: f64,
            cancel: &CancelToken,
        ) -> Result<Trial, EvalError> {
            assert_ne!(pipeline.key(), self.victim, "victim pipeline panics");
            self.inner.evaluate_raw(pipeline, fraction, cancel)
        }
        fn config(&self) -> &EvalConfig {
            self.inner.config()
        }
        fn baseline_accuracy(&self) -> f64 {
            self.inner.baseline_accuracy()
        }
        fn train_rows(&self) -> usize {
            self.inner.train_rows()
        }
    }

    #[test]
    fn one_panicking_pipeline_costs_one_trial_not_the_batch() {
        let ev = evaluator();
        let batch = random_batch(16, 23);
        let victim_idx = 9;
        let wrapped =
            PanicsOnVictim { inner: &ev, victim: batch[victim_idx].key() };
        // Suppress expected assert-panic output from worker threads.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut runs = Vec::new();
        for threads in [1, 2, 8] {
            runs.push(
                BatchEvaluator::new(&wrapped).with_threads(threads).evaluate_batch(&batch),
            );
        }
        std::panic::set_hook(prev);
        let reference: Vec<Trial> = batch.iter().map(|p| ev.evaluate(p)).collect();
        for trials in &runs {
            assert_eq!(trials.len(), batch.len());
            for (i, t) in trials.iter().enumerate() {
                if i == victim_idx {
                    assert_eq!(t.failure, Some(FailureKind::Panic));
                    assert_eq!(t.error, 1.0);
                } else {
                    assert!(t.failure.is_none(), "trial {i} should succeed");
                    assert_eq!(t.accuracy.to_bits(), reference[i].accuracy.to_bits());
                }
            }
        }
        // Bit-identical across thread counts, failures included.
        for trials in &runs[1..] {
            for (a, b) in trials.iter().zip(&runs[0]) {
                assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
                assert_eq!(a.failure, b.failure);
            }
        }
    }

    #[test]
    fn fired_cancel_token_turns_batch_into_deadline_failures() {
        let ev = evaluator();
        let cancel = CancelToken::new();
        cancel.cancel();
        let batch = random_batch(6, 31);
        let trials = BatchEvaluator::new(&ev)
            .with_threads(2)
            .with_cancel(cancel)
            .evaluate_batch(&batch);
        assert_eq!(trials.len(), 6);
        for t in &trials {
            assert_eq!(t.failure, Some(FailureKind::Deadline));
            assert_eq!(t.error, 1.0);
        }
    }
}
