//! The timing wrapper around evaluators.

use autofp_core::{EvalConfig, EvalError, Evaluate, PrefixStats, Trial};
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What the timed evaluators of one run saw.
#[derive(Default)]
pub struct Tally {
    /// Duration of every fresh evaluation.
    pub calls: Vec<Duration>,
    /// The pipeline of each call, as `Pipeline::key`.
    pub pipelines: Vec<String>,
    /// Sum of the returned trials' `prep_time`.
    pub prep: Duration,
    /// Sum of the returned trials' `train_time`.
    pub train: Duration,
}

impl Tally {
    pub fn busy(&self) -> Duration {
        self.calls.iter().sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.calls.iter().map(|d| d.as_secs_f64() * 1e3).collect()
    }
}

/// A shared tally that any number of [`Timed`] evaluators add to.
pub type SharedTally = Arc<Mutex<Tally>>;

/// Take the tally back once every evaluator holding it is gone.
pub fn into_tally(shared: SharedTally) -> Tally {
    Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_else(|_| panic!("an evaluator outlived its run"))
}

/// An [`Evaluate`] wrapper timing each fresh evaluation of the evaluator
/// it wraps; callers that serve a trial from a cache never reach it.
pub struct Timed {
    pub inner: Box<dyn Evaluate>,
    pub tally: SharedTally,
}

impl Evaluate for Timed {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let start = Instant::now();
        let result = self.inner.evaluate_raw(pipeline, fraction, cancel);
        let took = start.elapsed();
        let key = pipeline.key();
        let mut tally = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        tally.calls.push(took);
        tally.pipelines.push(key);
        if let Ok(trial) = &result {
            tally.prep += trial.prep_time;
            tally.train += trial.train_time;
        }
        result
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

    fn prefix_stats(&self) -> Option<PrefixStats> {
        self.inner.prefix_stats()
    }
}
