//! The unified search framework (Algorithm 1 of the paper).
//!
//! Every search algorithm interacts with the benchmark exclusively
//! through a [`SearchContext`]: it asks for evaluations, the context
//! enforces the budget, records trials, and — by timing the gaps
//! *between* evaluations — attributes algorithm-side overhead to the
//! "Pick" phase of the Figure 7 breakdown (Steps 2-3 of Algorithm 1),
//! while the evaluator attributes "Prep" and "Train" (Step 4).

use crate::batch::BatchEvaluator;
use crate::budget::{Budget, BudgetClock};
use crate::cache::{CacheStats, EvalCache};
use crate::error::FailureStats;
use crate::evaluator::Evaluate;
use crate::history::{PhaseBreakdown, Trial, TrialHistory};
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::time::{Duration, Instant};

/// A pipeline search algorithm (one of the paper's 15, or an extension).
pub trait Searcher {
    /// Display name as used in the paper's tables ("RS", "PBT", ...).
    fn name(&self) -> &'static str;

    /// Run until the context's budget is exhausted.
    ///
    /// Implementations should call [`SearchContext::evaluate`] in a loop
    /// and return when it yields `None` (budget exhausted). Returning
    /// early is allowed (e.g. an exhaustive searcher that finishes).
    fn search(&mut self, ctx: &mut SearchContext);
}

/// Everything a searcher may touch: evaluation, budget state, history.
///
/// Single evaluations go through [`SearchContext::evaluate`]; searchers
/// whose next proposals do not depend on each other's results (random
/// search chunks, PBT generations, GP offspring) should instead submit
/// them together via [`SearchContext::evaluate_batch`], which fans them
/// across a [`BatchEvaluator`] worker pool and — when a cache is
/// attached via [`SearchContext::attach_cache`] — serves duplicate
/// proposals from memory.
pub struct SearchContext<'a> {
    evaluator: &'a dyn Evaluate,
    clock: BudgetClock,
    history: TrialHistory,
    pick_time: Duration,
    last_eval_end: Instant,
    cache: Option<&'a EvalCache>,
    batch_threads: usize,
    /// Armed with the wall-clock deadline (when one is configured):
    /// trainer loops poll it, so a fit in flight when time runs out
    /// returns at its next epoch boundary instead of overrunning.
    cancel: CancelToken,
}

impl<'a> SearchContext<'a> {
    /// Start a context over an evaluator with a budget.
    pub fn new(evaluator: &'a dyn Evaluate, budget: Budget) -> SearchContext<'a> {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let clock = budget.start();
        let cancel = match clock.deadline() {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        SearchContext {
            evaluator,
            clock,
            history: TrialHistory::new(),
            pick_time: Duration::ZERO,
            // lint:allow(nondet): Pick-phase attribution measures algorithm overhead; it never feeds a search decision
            last_eval_end: Instant::now(),
            cache: None,
            batch_threads: threads,
            cancel,
        }
    }

    /// Memoize every evaluation (single and batched) in `cache`; its
    /// hit/miss/saved statistics are snapshotted into
    /// [`SearchOutcome::cache`] at [`SearchContext::finish`]. Cache hits
    /// still count toward eval-count budgets, so a searcher's proposal
    /// sequence — and therefore its result — is identical with and
    /// without a cache; only wall-clock changes.
    ///
    /// The same invariant makes durable warm-starts exact: a cache
    /// preloaded from a [`crate::repo::TrialStore`]
    /// ([`EvalCache::preload_from`]) turns previously persisted
    /// proposals into hits, so a resumed search replays the identical
    /// trajectory while evaluating only what the store is missing, and
    /// a cache with an attached store ([`EvalCache::attach_store`])
    /// persists each insert as it happens.
    pub fn attach_cache(&mut self, cache: &'a EvalCache) {
        self.cache = Some(cache);
    }

    /// Set the worker count used by [`SearchContext::evaluate_batch`]
    /// (default: available parallelism).
    pub fn set_batch_threads(&mut self, threads: usize) {
        self.batch_threads = threads.max(1);
    }

    /// True once the budget is exhausted; searchers should then return.
    pub fn exhausted(&self) -> bool {
        self.clock.exhausted()
    }

    /// Remaining budget fraction in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f64 {
        self.clock.remaining_fraction()
    }

    /// Evaluate a pipeline at full training budget. Returns `None` when
    /// the budget was already exhausted (the trial is *not* run).
    pub fn evaluate(&mut self, pipeline: &Pipeline) -> Option<Trial> {
        self.evaluate_budgeted(pipeline, 1.0)
    }

    /// Evaluate with a fractional training budget (bandit rungs): a
    /// one-pipeline [`SearchContext::evaluate_batch_budgeted`], which
    /// runs it inline on the calling thread.
    pub fn evaluate_budgeted(&mut self, pipeline: &Pipeline, fraction: f64) -> Option<Trial> {
        self.evaluate_batch_budgeted(std::slice::from_ref(pipeline), fraction)?.pop()
    }

    /// Evaluate a batch of independent proposals at full training
    /// budget. See [`SearchContext::evaluate_batch_budgeted`].
    pub fn evaluate_batch(&mut self, pipelines: &[Pipeline]) -> Option<Vec<Trial>> {
        self.evaluate_batch_budgeted(pipelines, 1.0)
    }

    /// Evaluate a batch of independent proposals in parallel.
    ///
    /// Returns `None` when the budget was already exhausted. Under an
    /// eval-count budget the batch is truncated to the evaluations that
    /// remain, so the returned vector may be shorter than `pipelines` —
    /// trials still correspond to `pipelines[..len]` in order, and all
    /// of them are appended to the history in that same order, keeping
    /// eval-budget runs identical to the sequential path trial for
    /// trial. Under a pure wall-clock budget the whole batch runs (the
    /// clock is only consulted between batches). Every evaluation is
    /// shielded: a failed or panicking one becomes a worst-error trial
    /// and the search continues.
    pub fn evaluate_batch_budgeted(
        &mut self,
        pipelines: &[Pipeline],
        fraction: f64,
    ) -> Option<Vec<Trial>> {
        if self.clock.exhausted() {
            return None;
        }
        let keep = match self.clock.remaining_evals() {
            Some(n) => pipelines.len().min(n),
            None => pipelines.len(),
        };
        let pipelines = &pipelines[..keep];
        // Time since the previous evaluation ended is algorithm overhead.
        self.pick_time += self.last_eval_end.elapsed();
        let mut batch = BatchEvaluator::new(self.evaluator)
            .with_threads(self.batch_threads)
            .with_cancel(self.cancel.clone());
        if let Some(cache) = self.cache {
            batch = batch.with_cache(cache);
        }
        let trials = batch.evaluate_batch_budgeted(pipelines, fraction);
        for trial in &trials {
            self.clock.note_eval(fraction);
            self.history.push(trial.clone());
        }
        // lint:allow(nondet): Pick-phase attribution measures algorithm overhead; it never feeds a search decision
        // lint:allow(nondet-flow): reachable from search, but last_eval_end only times the Pick phase for stats output
        self.last_eval_end = Instant::now();
        Some(trials)
    }

    /// The evaluator's no-FP baseline accuracy.
    pub fn baseline_accuracy(&self) -> f64 {
        self.evaluator.baseline_accuracy()
    }

    /// Training-set size (rows), available to algorithms that scale
    /// their own parameters (e.g. Hyperband's resource unit).
    pub fn train_rows(&self) -> usize {
        self.evaluator.train_rows()
    }

    /// History so far.
    pub fn history(&self) -> &TrialHistory {
        &self.history
    }

    /// Finish: consume the context, producing the outcome.
    pub fn finish(self, algorithm: &'static str) -> SearchOutcome {
        let (prep, train) = self.history.totals();
        SearchOutcome {
            algorithm,
            breakdown: PhaseBreakdown { pick: self.pick_time, prep, train },
            failures: FailureStats::from_history(&self.history),
            prefix: self.evaluator.prefix_stats(),
            history: self.history,
            elapsed: self.clock.elapsed(),
            cache: self.cache.map(|c| c.stats()),
        }
    }
}

/// Result of one search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The searcher's display name.
    pub algorithm: &'static str,
    /// Every evaluated trial, in evaluation order.
    pub history: TrialHistory,
    /// Pick/Prep/Train time attribution (Figure 7).
    pub breakdown: PhaseBreakdown,
    /// Count of failed (worst-error) trials, by failure kind.
    pub failures: FailureStats,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Snapshot of the attached [`EvalCache`]'s statistics at finish
    /// time; `None` when the run was uncached.
    pub cache: Option<CacheStats>,
    /// Snapshot of the evaluator's prefix-transform cache statistics
    /// ([`crate::PrefixCache`]) at finish time; `None` when the
    /// evaluator holds no prefix cache. When one prefix cache is
    /// shared by several runs, the snapshot covers all of them up to
    /// this finish.
    pub prefix: Option<crate::prefix::PrefixStats>,
}

impl SearchOutcome {
    /// Best trial (fully trained preferred).
    pub fn best(&self) -> Option<&Trial> {
        self.history.best()
    }

    /// Best validation accuracy found (0.0 if no trial ran).
    pub fn best_accuracy(&self) -> f64 {
        self.history.best_accuracy()
    }
}

/// Run a searcher against an evaluator under a budget.
pub fn run_search(
    searcher: &mut dyn Searcher,
    evaluator: &dyn Evaluate,
    budget: Budget,
) -> SearchOutcome {
    let mut ctx = SearchContext::new(evaluator, budget);
    searcher.search(&mut ctx);
    ctx.finish(searcher.name())
}

/// Run a searcher with full control over the context: an explicit
/// batch-evaluation worker count (`None` = available parallelism) and
/// an optional [`EvalCache`], which serves duplicate proposals (within
/// this run or from earlier runs sharing the cache) from memory and
/// whose statistics the outcome carries.
///
/// This is the bench harness's entry point: matrix cells run their
/// searches single-threaded (`batch_threads = Some(1)`, the paper's
/// `n_jobs = 1`) while the harness parallelizes *across* cells, and
/// every cell of the same (dataset, model) group shares one cache.
pub fn run_search_with(
    searcher: &mut dyn Searcher,
    evaluator: &dyn Evaluate,
    budget: Budget,
    batch_threads: Option<usize>,
    cache: Option<&EvalCache>,
) -> SearchOutcome {
    let mut ctx = SearchContext::new(evaluator, budget);
    if let Some(threads) = batch_threads {
        ctx.set_batch_threads(threads);
    }
    if let Some(cache) = cache {
        ctx.attach_cache(cache);
    }
    searcher.search(&mut ctx);
    ctx.finish(searcher.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalConfig, Evaluator};
    use autofp_data::SynthConfig;
    use autofp_preprocess::{ParamSpace, PreprocKind};

    struct FixedSearcher;
    impl Searcher for FixedSearcher {
        fn name(&self) -> &'static str {
            "FIXED"
        }
        fn search(&mut self, ctx: &mut SearchContext) {
            let space = ParamSpace::default_space();
            let mut rng = autofp_linalg::rng::rng_from_seed(1);
            while ctx.evaluate(&space.sample_pipeline(&mut rng, 4)).is_some() {}
        }
    }

    fn evaluator() -> Evaluator {
        let d = SynthConfig::new("fw", 120, 5, 2, 3).generate();
        Evaluator::new(&d, EvalConfig::default())
    }

    #[test]
    fn budget_limits_evaluations() {
        let ev = evaluator();
        let outcome = run_search(&mut FixedSearcher, &ev, Budget::evals(5));
        assert_eq!(outcome.history.len(), 5);
        assert_eq!(outcome.algorithm, "FIXED");
        assert!(outcome.best_accuracy() > 0.0);
    }

    #[test]
    fn evaluate_returns_none_when_exhausted() {
        let ev = evaluator();
        let mut ctx = SearchContext::new(&ev, Budget::evals(1));
        let p = autofp_preprocess::Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        assert!(ctx.evaluate(&p).is_some());
        assert!(ctx.evaluate(&p).is_none());
        assert!(ctx.exhausted());
    }

    #[test]
    fn breakdown_accounts_all_phases() {
        let ev = evaluator();
        let outcome = run_search(&mut FixedSearcher, &ev, Budget::evals(3));
        let b = outcome.breakdown;
        assert!(b.prep.as_nanos() > 0);
        assert!(b.train.as_nanos() > 0);
        let (pick, prep, train) = b.percentages();
        assert!((pick + prep + train - 100.0).abs() < 1e-6);
    }

    #[test]
    fn batch_truncates_to_eval_budget_and_fills_history_in_order() {
        let ev = evaluator();
        let mut ctx = SearchContext::new(&ev, Budget::evals(3));
        let space = ParamSpace::default_space();
        let mut rng = autofp_linalg::rng::rng_from_seed(5);
        let batch: Vec<_> = (0..5).map(|_| space.sample_pipeline(&mut rng, 4)).collect();
        let trials = ctx.evaluate_batch(&batch).expect("budget not exhausted");
        assert_eq!(trials.len(), 3, "truncated to remaining evals");
        for (t, p) in trials.iter().zip(&batch) {
            assert_eq!(t.pipeline.key(), p.key());
        }
        assert!(ctx.exhausted());
        assert!(ctx.evaluate_batch(&batch).is_none());
        let outcome = ctx.finish("BATCH");
        assert_eq!(outcome.history.len(), 3);
        assert!(outcome.cache.is_none());
    }

    #[test]
    fn cached_run_records_stats_and_hits_on_duplicates() {
        let ev = evaluator();
        let cache = crate::cache::EvalCache::new();
        let mut ctx = SearchContext::new(&ev, Budget::evals(4));
        ctx.attach_cache(&cache);
        let p = autofp_preprocess::Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let a = ctx.evaluate(&p).expect("first");
        let b = ctx.evaluate(&p).expect("second — a cache hit, still budgeted");
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        let outcome = ctx.finish("CACHED");
        assert_eq!(outcome.history.len(), 2, "hits still enter history");
        let stats = outcome.cache.expect("stats snapshotted");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cached_search_matches_uncached_trial_for_trial() {
        let ev = evaluator();
        let plain = run_search(&mut FixedSearcher, &ev, Budget::evals(6));
        let cache = crate::cache::EvalCache::new();
        let cached = run_search_with(&mut FixedSearcher, &ev, Budget::evals(6), None, Some(&cache));
        assert_eq!(plain.history.len(), cached.history.len());
        for (a, b) in plain.history.trials().iter().zip(cached.history.trials()) {
            assert_eq!(a.pipeline.key(), b.pipeline.key());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
        assert!(cached.cache.is_some());
    }

    #[test]
    fn prefix_stats_snapshot_into_outcome_and_preserve_results() {
        let plain_ev = evaluator();
        let prefix_ev = evaluator().with_prefix_cache(crate::prefix::PrefixCache::new());
        let plain = run_search(&mut FixedSearcher, &plain_ev, Budget::evals(6));
        let prefixed = run_search(&mut FixedSearcher, &prefix_ev, Budget::evals(6));
        assert!(plain.prefix.is_none());
        let stats = prefixed.prefix.expect("prefix stats snapshotted");
        assert!(stats.lookups() > 0);
        for (a, b) in plain.history.trials().iter().zip(prefixed.history.trials()) {
            assert_eq!(a.pipeline.key(), b.pipeline.key());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn best_accuracy_is_max_over_history() {
        let ev = evaluator();
        let outcome = run_search(&mut FixedSearcher, &ev, Budget::evals(8));
        let max = outcome
            .history
            .trials()
            .iter()
            .map(|t| t.accuracy)
            .fold(0.0_f64, f64::max);
        assert_eq!(outcome.best_accuracy(), max);
    }
}
