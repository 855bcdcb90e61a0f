//! Traditional algorithms: Random Search and Anneal (§4.1.1).

use crate::mutation::mutate;
use autofp_core::{SearchContext, Searcher};
use autofp_linalg::rng::rng_from_seed;
use autofp_preprocess::{ParamSpace, Pipeline};
use rand::rngs::StdRng;
use rand::Rng;

/// Random search: sample pipelines uniformly (the paper's strong
/// baseline).
///
/// Random search's proposal stream is independent of evaluation results,
/// which makes it trivially batchable: proposals are drawn
/// [`RandomSearch::batch_size`] at a time and submitted through
/// [`SearchContext::evaluate_batch`], so they evaluate in parallel (and
/// duplicates hit the context's cache, if one is attached) while the
/// trial sequence stays identical to one-at-a-time evaluation.
pub struct RandomSearch {
    space: ParamSpace,
    max_len: usize,
    rng: StdRng,
    /// Proposals submitted per batch (1 = sequential evaluation).
    pub batch_size: usize,
}

impl RandomSearch {
    /// Random search over a space.
    pub fn new(space: ParamSpace, max_len: usize, seed: u64) -> RandomSearch {
        RandomSearch { space, max_len, rng: rng_from_seed(seed), batch_size: 8 }
    }

    /// Builder-style batch size override.
    pub fn with_batch_size(mut self, batch_size: usize) -> RandomSearch {
        self.batch_size = batch_size.max(1);
        self
    }
}

impl Searcher for RandomSearch {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn search(&mut self, ctx: &mut SearchContext) {
        loop {
            let batch: Vec<Pipeline> = (0..self.batch_size)
                .map(|_| self.space.sample_pipeline(&mut self.rng, self.max_len))
                .collect();
            if ctx.evaluate_batch(&batch).is_none() {
                return;
            }
        }
    }
}

/// Anneal: hill-climbing with a temperature-controlled restart chance.
///
/// Each iteration proposes a neighbour (single mutation) of the current
/// best pipeline; better neighbours are accepted as the new state, worse
/// ones rejected (§4.1.1: "accepts the better neighbourhoods as the new
/// best state and rejects the worse"). Like hyperopt's `anneal`, the
/// probability of jumping to a fresh random pipeline decays over time so
/// early iterations explore and late iterations exploit.
pub struct Anneal {
    space: ParamSpace,
    max_len: usize,
    rng: StdRng,
    /// Initial restart probability (decays as 1/sqrt(iter)).
    pub restart_prob: f64,
}

impl Anneal {
    /// Anneal over a space.
    pub fn new(space: ParamSpace, max_len: usize, seed: u64) -> Anneal {
        Anneal { space, max_len, rng: rng_from_seed(seed), restart_prob: 0.5 }
    }
}

impl Searcher for Anneal {
    fn name(&self) -> &'static str {
        "Anneal"
    }

    fn search(&mut self, ctx: &mut SearchContext) {
        // Initial state.
        let mut current = self.space.sample_pipeline(&mut self.rng, self.max_len);
        let mut current_acc = match ctx.evaluate(&current) {
            Some(t) => t.accuracy,
            None => return,
        };
        let mut iter = 1usize;
        loop {
            iter += 1;
            let jump = self.restart_prob / (iter as f64).sqrt();
            let candidate = if self.rng.gen::<f64>() < jump {
                self.space.sample_pipeline(&mut self.rng, self.max_len)
            } else {
                mutate(&current, &self.space, self.max_len, &mut self.rng)
            };
            let Some(trial) = ctx.evaluate(&candidate) else { return };
            if trial.accuracy >= current_acc {
                current = candidate;
                current_acc = trial.accuracy;
            }
        }
    }
}

/// Exhaustive enumeration searcher (used by the Figure 2 experiment, not
/// one of the 15): evaluates `enumerate_pipelines(max_len)` in order.
pub struct Exhaustive {
    /// Maximum pipeline length to enumerate.
    pub max_len: usize,
}

impl Searcher for Exhaustive {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn search(&mut self, ctx: &mut SearchContext) {
        // Enumeration order is fixed, so chunks can evaluate in parallel
        // without changing the trial sequence.
        let pipelines = autofp_preprocess::enumerate::enumerate_pipelines(self.max_len);
        for chunk in pipelines.chunks(16) {
            if ctx.evaluate_batch(chunk).is_none() {
                return;
            }
        }
    }
}

/// Evaluate a fixed list of pipelines (baseline comparisons).
pub struct FixedList {
    /// The pipelines to evaluate, in order.
    pub pipelines: Vec<Pipeline>,
}

impl Searcher for FixedList {
    fn name(&self) -> &'static str {
        "Fixed"
    }

    fn search(&mut self, ctx: &mut SearchContext) {
        for chunk in self.pipelines.chunks(16) {
            if ctx.evaluate_batch(chunk).is_none() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_core::{run_search, Budget, EvalConfig, Evaluator};
    use autofp_data::SynthConfig;

    fn evaluator() -> Evaluator {
        let d = SynthConfig::new("rand-test", 150, 5, 2, 3).generate();
        Evaluator::new(&d, EvalConfig::default())
    }

    #[test]
    fn random_search_fills_budget() {
        let ev = evaluator();
        let mut rs = RandomSearch::new(ParamSpace::default_space(), 7, 1);
        let out = run_search(&mut rs, &ev, Budget::evals(10));
        assert_eq!(out.history.len(), 10);
        assert_eq!(out.algorithm, "RS");
    }

    #[test]
    fn random_search_is_deterministic() {
        let ev = evaluator();
        let run = |seed| {
            let mut rs = RandomSearch::new(ParamSpace::default_space(), 7, seed);
            run_search(&mut rs, &ev, Budget::evals(6)).best_accuracy()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn batch_size_never_changes_the_trial_sequence() {
        let ev = evaluator();
        let run = |batch_size| {
            let mut rs =
                RandomSearch::new(ParamSpace::default_space(), 7, 3).with_batch_size(batch_size);
            run_search(&mut rs, &ev, Budget::evals(9))
        };
        let sequential = run(1);
        for batch_size in [2, 4, 16] {
            let batched = run(batch_size);
            assert_eq!(batched.history.len(), sequential.history.len());
            for (a, b) in batched.history.trials().iter().zip(sequential.history.trials()) {
                assert_eq!(a.pipeline.key(), b.pipeline.key());
                assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            }
        }
    }

    #[test]
    fn cached_random_search_hits_on_duplicate_proposals() {
        use autofp_core::{run_search_with, EvalCache};
        let ev = evaluator();
        let cache = EvalCache::new();
        // Length-1 default-parameter pipelines: 7 possibilities, so 20
        // proposals must repeat.
        let mut rs = RandomSearch::new(ParamSpace::default_space(), 1, 5);
        let out = run_search_with(&mut rs, &ev, Budget::evals(20), None, Some(&cache));
        assert_eq!(out.history.len(), 20);
        let stats = cache.stats();
        assert!(stats.hits > 0, "duplicate proposals must hit: {stats:?}");
        assert!(stats.entries <= 7);
        assert_eq!(stats.lookups(), 20);
    }

    #[test]
    fn anneal_never_worsens_current_state() {
        let ev = evaluator();
        let mut anneal = Anneal::new(ParamSpace::default_space(), 7, 2);
        let out = run_search(&mut anneal, &ev, Budget::evals(12));
        assert_eq!(out.history.len(), 12);
        // Best accuracy equals running max (search never loses the best).
        let max = out.history.trials().iter().map(|t| t.accuracy).fold(0.0_f64, f64::max);
        assert_eq!(out.best_accuracy(), max);
    }

    #[test]
    fn exhaustive_stops_when_done() {
        let ev = evaluator();
        let mut ex = Exhaustive { max_len: 1 };
        let out = run_search(&mut ex, &ev, Budget::evals(100));
        assert_eq!(out.history.len(), 7); // the 7 single-step pipelines
    }

    #[test]
    fn fixed_list_evaluates_in_order() {
        let ev = evaluator();
        let pipelines = vec![Pipeline::empty(), Pipeline::empty()];
        let mut f = FixedList { pipelines };
        let out = run_search(&mut f, &ev, Budget::evals(10));
        assert_eq!(out.history.len(), 2);
    }
}
