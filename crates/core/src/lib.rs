#![warn(missing_docs)]
//! Core problem formalization of Auto-FP (§3 of the paper) and the
//! unified search framework (Algorithm 1, §4.2).
//!
//! * [`evaluator::Evaluator`] implements the pipeline error of Eq. 2:
//!   fit the pipeline on training data, train the downstream classifier
//!   on the transformed training set, report validation accuracy. Each
//!   evaluation's preprocessing ("Prep") and training ("Train") time is
//!   recorded separately, and the [`framework::SearchContext`] measures
//!   the time an algorithm spends choosing pipelines ("Pick") — the
//!   three-way breakdown of the paper's Figure 7 bottleneck analysis.
//! * [`budget::Budget`] expresses the paper's wall-clock search limits
//!   plus a deterministic evaluation-count alternative used in tests.
//! * [`framework::Searcher`] is the interface all 15 algorithms
//!   implement; they interact with the world only through
//!   [`framework::SearchContext::evaluate`], which enforces the budget
//!   and appends to the [`history::TrialHistory`].
//! * [`ranking`] computes the paper's average-ranking tables (Table 4)
//!   with its tie and ≥1.5%-improvement scenario rules.
//! * [`batch::BatchEvaluator`] fans independent candidate evaluations
//!   across a worker pool, [`cache::EvalCache`] memoizes trials by a
//!   stable pipeline fingerprint, and [`prefix::PrefixCache`] memoizes
//!   *partially transformed datasets* so pipelines sharing a prefix pay
//!   only for their suffix — together they attack the paper's §5
//!   finding that evaluation dominates search time.
//! * [`repo::TrialStore`] persists finished trials to an append-only,
//!   checksummed on-disk segment per evaluation context, keyed by the
//!   same [`cache::CacheKey`]. A cache attaches one segment
//!   ([`cache::EvalCache::attach_segment`]): its trials warm the memo
//!   and every new trial writes through, so runs can warm-start or
//!   resume after a crash; [`repo::ReplayEvaluator`] replays a whole
//!   search from a segment with zero evaluations. The store and the
//!   `autofp-evald` wire share one pipeline/trial encoding, [`codec`].
//! * [`remote::RemoteEvaluator`] extends [`evaluator::Evaluate`] across
//!   process boundaries: requests shard over a worker fleet by the
//!   stable [`cache::CacheKey`] fingerprint, transport faults retry
//!   with bounded backoff and then degrade to worst-error trials (the
//!   `autofp-evald` crate provides the worker daemon and wire
//!   protocol).
//! * Evaluation is fault-tolerant end to end: [`error::EvalError`]
//!   classifies failures (non-finite transforms, degenerate matrices,
//!   trainer divergence, panics, deadline overruns, transport faults), the
//!   [`evaluator::Evaluate`] trait shields every call with
//!   `catch_unwind`, failed pipelines become worst-error trials
//!   (error = 1.0, Eq. 2) so searches keep running deterministically,
//!   and [`fault::FaultInjector`] exercises all of it under a seeded,
//!   reproducible fault mix.

pub mod batch;
pub mod budget;
pub mod cache;
pub mod codec;
pub mod error;
pub mod evaluator;
pub mod fault;
pub mod framework;
pub mod history;
mod lru;
pub mod order;
pub mod patterns;
pub mod prefix;
pub mod remote;
pub mod repo;
pub mod report;
pub mod ranking;

pub use batch::{pool_map, BatchEvaluator};
pub use budget::{Budget, BudgetClock};
pub use autofp_linalg::codec::fnv1a;
pub use cache::{CacheKey, CacheStats, EvalCache};
pub use error::{EvalError, FailureKind, FailureStats};
pub use evaluator::{evaluate_or_worst, Evaluate, EvalConfig, Evaluator};
pub use fault::{FaultConfig, FaultInjector, InjectedPanic};
pub use framework::{run_search, run_search_with, SearchContext, SearchOutcome, Searcher};
pub use history::{PhaseBreakdown, Trial, TrialHistory};
pub use order::{nan_largest, nan_smallest};
pub use prefix::{PrefixCache, PrefixHit, PrefixKey, PrefixStats};
pub use remote::{
    mix64, shard, shard_order, shard_weight, FleetStats, RemoteBackend, RemoteEvaluator, RemoteInfo,
};
pub use repo::{
    GcReport, GcSegment, OpenReport, RepoError, ReplayEvaluator, StoreMeta, StoreStats, TrialStore,
};
