//! The worker's transport-agnostic request handler.
//!
//! A [`WorkerService`] owns one [`Evaluator`] + [`EvalCache`]
//! pair per distinct [`EvalContext`] it has been asked about, built
//! lazily by regenerating the named dataset from the registry — dataset
//! generation is seeded purely by the dataset name, so every worker
//! process materializes bit-identical data and its trials match an
//! in-process evaluation exactly. The cache lives in memory only: a
//! respawned worker starts cold, and durability belongs to the
//! harness's trial store, which sits in front of the whole fleet.
//!
//! Each context's evaluator also carries its own prefix-transform
//! cache ([`autofp_core::PrefixCache`] at
//! [`PrefixCache::DEFAULT_BYTE_BUDGET`]): a remote worker sees the
//! same long shared pipeline prefixes the searchers generate, and
//! serving the transform suffix instead of the whole pipeline is
//! bit-identical to the uncached path, so the per-worker cache never
//! threatens cross-process reproducibility.
//!
//! The service is deliberately transport-free: [`crate::server`] feeds
//! it decoded frames from TCP and encodes what it answers.

use crate::wire::{EvalContext, Request, Response, WorkerStats};
use autofp_core::{
    BatchEvaluator, CacheStats, EvalCache, EvalError, Evaluator, PrefixCache, PrefixStats,
};
use autofp_data::spec_by_name;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One materialized evaluation context: the evaluator (dataset split,
/// trainer, baseline) plus its process-local trial cache.
struct ContextState {
    evaluator: Evaluator,
    cache: EvalCache,
}

/// The worker daemon's brain: maps requests to responses.
///
/// Thread-safe behind `&self` — the TCP server handles each connection
/// on its own thread against one shared `Arc<WorkerService>`.
pub struct WorkerService {
    /// Context canonical string -> materialized state. A `BTreeMap`
    /// keeps stats aggregation in deterministic order.
    contexts: Mutex<BTreeMap<String, Arc<ContextState>>>,
    /// Evaluation requests handled (cache hits included).
    served: AtomicU64,
}

impl WorkerService {
    /// A service whose per-context trial caches are unbounded and
    /// whose prefix caches run at the default byte budget.
    pub fn new() -> WorkerService {
        WorkerService {
            contexts: Mutex::new(BTreeMap::new()),
            served: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<ContextState>>> {
        // A panic while holding the lock can only come from evaluator
        // construction; the map itself is never left half-written, so
        // recover the guard instead of wedging the worker.
        self.contexts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fast path: an already-materialized context. A single lock
    /// acquisition on a temporary guard — nothing is held on return.
    fn cached(&self, key: &str) -> Option<Arc<ContextState>> {
        self.lock().get(key).map(Arc::clone)
    }

    /// Publish `state` under `key`. A racing duplicate build loses the
    /// race and the first insert wins (the contents are identical
    /// either way). Single lock acquisition.
    fn intern(&self, key: String, state: Arc<ContextState>) -> Arc<ContextState> {
        let mut map = self.lock();
        Arc::clone(map.entry(key).or_insert_with(|| state))
    }

    /// The materialized state for `ctx`, building it on first use.
    /// Lookup and publish are separate single-acquisition helpers so
    /// no lock is held across the expensive build (and so the
    /// lock-order rule can see each acquisition stands alone).
    fn context(&self, ctx: &EvalContext) -> Result<Arc<ContextState>, EvalError> {
        if !(ctx.scale > 0.0 && ctx.scale <= 1.0) {
            return Err(EvalError::Transport {
                detail: format!("context scale {} outside (0, 1]", ctx.scale),
            });
        }
        if !(0.0..=1.0).contains(&ctx.train_fraction) {
            return Err(EvalError::Transport {
                detail: format!("context train fraction {} outside [0, 1]", ctx.train_fraction),
            });
        }
        let key = ctx.canonical();
        if let Some(state) = self.cached(&key) {
            return Ok(state);
        }
        let spec = spec_by_name(&ctx.dataset).ok_or_else(|| EvalError::Transport {
            detail: format!("unknown dataset `{}`", ctx.dataset),
        })?;
        // Generate outside the lock: dataset materialization is the
        // expensive part and is deterministic, so a racing duplicate
        // build produces an identical evaluator and the first insert
        // wins below.
        let dataset = spec.generate(ctx.scale);
        let evaluator =
            Evaluator::new(&dataset, ctx.eval_config()).with_prefix_cache(PrefixCache::new());
        let state = Arc::new(ContextState { evaluator, cache: EvalCache::new() });
        Ok(self.intern(key, state))
    }

    /// Cumulative counters: requests served, contexts built, and every
    /// context's cache counters folded together.
    pub fn stats(&self) -> WorkerStats {
        let map = self.lock();
        let mut cache = CacheStats::default();
        let mut prefix = PrefixStats::default();
        for state in map.values() {
            cache.absorb(&state.cache.stats());
            if let Some(p) = state.evaluator.prefix_cache() {
                prefix.absorb(&p.stats());
            }
        }
        WorkerStats {
            served: self.served.load(Ordering::Relaxed),
            contexts: map.len() as u64,
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.entries as u64,
            saved_nanos: u64::try_from(cache.saved.as_nanos()).unwrap_or(u64::MAX),
            prefix_hits: prefix.hits,
            prefix_misses: prefix.misses,
            prefix_evictions: prefix.evictions,
            prefix_steps_saved: prefix.steps_saved,
        }
    }

    /// Serve one request. Total: every failure mode becomes
    /// [`Response::Error`], and evaluation itself is shielded (a
    /// panicking pipeline yields a worst-error trial, not a dead
    /// worker).
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Ping | Request::Shutdown => Response::Pong,
            Request::Stats => Response::Stats(self.stats()),
            Request::Describe(ctx) => match self.context(ctx) {
                Ok(state) => Response::Described {
                    baseline_accuracy: state.evaluator.baseline_accuracy(),
                    train_rows: state.evaluator.split().train.n_rows() as u64,
                },
                Err(err) => Response::Error(err),
            },
            Request::Eval { fraction, .. } if fraction.is_nan() => {
                Response::Error(EvalError::Transport { detail: "eval fraction is NaN".into() })
            }
            Request::Eval { ctx, pipeline, fraction } => match self.context(ctx) {
                Ok(state) => {
                    // The workspace's one cached-evaluation path, as a
                    // one-pipeline batch run inline on this thread.
                    let trial = BatchEvaluator::new(&state.evaluator)
                        .with_threads(1)
                        .with_cache(&state.cache)
                        .evaluate_batch_budgeted(std::slice::from_ref(pipeline), *fraction)
                        .pop()
                        // lint:allow(panic-reach): a batch returns one trial per pipeline, and this one has a pipeline
                        .expect("a one-pipeline batch yields one trial");
                    self.served.fetch_add(1, Ordering::Relaxed);
                    Response::Trial(trial)
                }
                Err(err) => Response::Error(err),
            },
        }
    }
}

impl Default for WorkerService {
    fn default() -> Self {
        WorkerService::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_models::classifier::ModelKind;
    use autofp_preprocess::{Pipeline, PreprocKind};

    fn ctx() -> EvalContext {
        EvalContext {
            dataset: "heart".to_string(),
            scale: 0.5,
            model: ModelKind::Lr,
            train_fraction: 0.8,
            seed: 7,
            train_subsample: None,
        }
    }

    #[test]
    fn eval_matches_local_evaluator_bit_exactly() {
        let svc = WorkerService::new();
        let pipeline = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let resp = svc.handle(&Request::Eval { ctx: ctx(), pipeline: pipeline.clone(), fraction: 1.0 });
        let Response::Trial(trial) = resp else { panic!("expected Trial, got {resp:?}") };
        let stats = svc.stats();

        let spec = spec_by_name("heart").expect("heart in registry");
        let local = Evaluator::new(&spec.generate(0.5), ctx().eval_config());
        let expect = local.evaluate(&pipeline);
        assert_eq!(trial.accuracy.to_bits(), expect.accuracy.to_bits());
        assert_eq!(trial.pipeline, expect.pipeline);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.contexts, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn repeat_eval_hits_the_context_cache() {
        let svc = WorkerService::new();
        let req = Request::Eval {
            ctx: ctx(),
            pipeline: Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]),
            fraction: 1.0,
        };
        let first = svc.handle(&req);
        let second = svc.handle(&req);
        let (Response::Trial(a), Response::Trial(b)) = (first, second) else {
            panic!("expected two Trial responses");
        };
        let stats = svc.stats();
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn distinct_contexts_get_distinct_caches() {
        let svc = WorkerService::new();
        let p = Pipeline::empty();
        let other = EvalContext { seed: 8, ..ctx() };
        let _ = svc.handle(&Request::Eval { ctx: ctx(), pipeline: p.clone(), fraction: 1.0 });
        let _ = svc.handle(&Request::Eval { ctx: other, pipeline: p, fraction: 1.0 });
        let stats = svc.stats();
        assert_eq!(stats.contexts, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn describe_reports_baseline_and_rows() {
        let svc = WorkerService::new();
        let resp = svc.handle(&Request::Describe(ctx()));
        let Response::Described { baseline_accuracy, train_rows } = resp else {
            panic!("expected Described, got {resp:?}");
        };
        assert!((0.0..=1.0).contains(&baseline_accuracy));
        // heart at scale 0.5 = 121 rows; the stratified 80:20 split
        // rounds per class, giving 97 training rows.
        assert_eq!(train_rows, 97);
    }

    #[test]
    fn unknown_dataset_and_bad_scale_are_errors_not_panics() {
        let svc = WorkerService::new();
        let bad_name = EvalContext { dataset: "no-such-dataset".into(), ..ctx() };
        let resp = svc.handle(&Request::Describe(bad_name));
        assert!(
            matches!(resp, Response::Error(EvalError::Transport { ref detail })
                if detail.contains("unknown dataset")),
            "{resp:?}"
        );
        let bad_scale = EvalContext { scale: 0.0, ..ctx() };
        let resp = svc.handle(&Request::Describe(bad_scale));
        assert!(matches!(resp, Response::Error(EvalError::Transport { .. })), "{resp:?}");
        let nan_scale = EvalContext { scale: f64::NAN, ..ctx() };
        let resp = svc.handle(&Request::Describe(nan_scale));
        assert!(matches!(resp, Response::Error(EvalError::Transport { .. })), "{resp:?}");
        for train_fraction in [f64::NAN, 1.5, -0.25] {
            let bad = EvalContext { train_fraction, ..ctx() };
            let resp = svc.handle(&Request::Describe(bad.clone()));
            assert!(matches!(resp, Response::Error(EvalError::Transport { .. })), "{resp:?}");
            let resp = svc.handle(&Request::Eval { ctx: bad, pipeline: Pipeline::empty(), fraction: 1.0 });
            assert!(matches!(resp, Response::Error(EvalError::Transport { .. })), "{resp:?}");
        }
        let resp = svc.handle(&Request::Eval { ctx: ctx(), pipeline: Pipeline::empty(), fraction: f64::NAN });
        assert!(matches!(resp, Response::Error(EvalError::Transport { .. })), "{resp:?}");
        assert_eq!(svc.stats().served, 0, "rejected requests are not served");
    }

    #[test]
    fn prefix_cache_counters_reach_worker_stats() {
        let svc = WorkerService::new();
        let shared = Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::Normalizer]);
        let extended =
            Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::Normalizer, PreprocKind::MinMaxScaler]);
        let _ = svc.handle(&Request::Eval { ctx: ctx(), pipeline: shared, fraction: 1.0 });
        let resp = svc.handle(&Request::Eval { ctx: ctx(), pipeline: extended, fraction: 1.0 });
        assert!(matches!(resp, Response::Trial(_)), "expected Trial, got {resp:?}");
        let stats = svc.stats();
        // The second pipeline extends the first, so its deepest-prefix
        // probe hits and skips both shared transform steps.
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.prefix_misses, 1);
        assert_eq!(stats.prefix_steps_saved, 2);
    }

    #[test]
    fn prefix_cached_worker_matches_plain_evaluator_bit_exactly() {
        let with = WorkerService::new();
        // A local evaluator without a prefix cache is the reference.
        let spec = spec_by_name("heart").expect("heart in registry");
        let without = Evaluator::new(&spec.generate(0.5), ctx().eval_config());
        for kinds in [
            vec![PreprocKind::StandardScaler],
            vec![PreprocKind::StandardScaler, PreprocKind::PowerTransformer],
            vec![PreprocKind::StandardScaler, PreprocKind::PowerTransformer, PreprocKind::Normalizer],
        ] {
            let pipeline = Pipeline::from_kinds(&kinds);
            let req = Request::Eval { ctx: ctx(), pipeline: pipeline.clone(), fraction: 1.0 };
            let Response::Trial(a) = with.handle(&req) else {
                panic!("expected a Trial response");
            };
            let b = without.evaluate(&pipeline);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "{kinds:?}");
            assert_eq!(a.error.to_bits(), b.error.to_bits(), "{kinds:?}");
        }
        assert!(with.stats().prefix_hits > 0, "the worker's prefix cache must serve the extensions");
    }
}
