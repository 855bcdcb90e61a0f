//! Pipeline-result caching (§5 extension).
//!
//! The paper's bottleneck analysis (§5, Figures 6-7) shows that pipeline
//! *evaluation* dominates Auto-FP runtime, and that search algorithms
//! frequently re-propose duplicate pipelines (evolutionary mutation and
//! crossover reproduce parents; TPE/SMAC resample high-density regions).
//! An [`EvalCache`] memoizes finished [`Trial`]s keyed by a stable
//! fingerprint of (pipeline, training-budget fraction, evaluator
//! config), so a duplicate proposal returns its recorded trial instead
//! of paying the full Prep + Train cost again.
//!
//! The cache is thread-safe (`&self` everywhere) so a
//! [`crate::batch::BatchEvaluator`] can share it across workers, and it
//! is a cheap-clone handle: its state sits behind one `Arc`, so clones
//! see one memo and one set of hit / miss / saved-wall-clock counters,
//! which [`crate::report::matrix_stats_markdown`] renders.
//!
//! A trial cache is unbounded and never evicts, so under one cache a
//! pipeline is evaluated at most once per key. Its map is the crate's
//! one weighted store (`core::lru`), shared with [`crate::PrefixCache`],
//! run here without a budget.
//!
//! The one code path from a cache miss to a fresh evaluation is
//! [`crate::BatchEvaluator`] with a cache attached; single evaluations
//! ([`crate::SearchContext::evaluate`], evald's `Eval` handler) are
//! one-pipeline batches.
//!
//! A cache can also carry one durable segment of the trial repository
//! ([`EvalCache::attach_segment`], `core::repo`): attaching moves the
//! segment's persisted trials into the memo, and every later insert is
//! appended to the segment as well, so the next run starts warm.
//!
//! Failed evaluations are memoizable too — a pipeline that produces
//! non-finite output does so deterministically, so its worst-error
//! trial is as reusable as a real score. The exceptions are
//! [`crate::FailureKind::Deadline`] and [`crate::FailureKind::Transport`]:
//! running out of wall-clock, or losing the worker that would have
//! evaluated the pipeline, is a property of the run, not the pipeline,
//! so neither is ever stored.
//!
//! # The canonical-string contract
//!
//! [`CacheKey`] identity is *content-addressed*: the key is a canonical
//! string spelling out every input that can change an evaluation's
//! result, and nothing else. The grammar is fixed:
//!
//! ```text
//! m={model name};seed={u64};tf={f64 bits};sub={rows, or -1};frac={f64 bits};p={pipeline key}
//! ```
//!
//! where `tf` is the train fraction and `frac` the training-budget
//! fraction, both as IEEE-754 bit patterns (`f64::to_bits` — string
//! formatting would collapse distinct values), `sub` is the optional
//! training subsample row count, and `{pipeline key}` is
//! [`Pipeline::key`]'s step list *including every preprocessor
//! parameter*. [`CacheKey::fingerprint`] is the FNV-1a 64-bit hash
//! (offset `0xcbf29ce484222325`, prime `0x100000001b3`) of that string
//! — stable across platforms, processes, and runs, which is why
//! `core::remote` shards requests by it and golden tests pin exact
//! values. Every consumer of this contract must preserve three rules:
//!
//! 1. **Total**: any input that can change the resulting trial must
//!    appear in the canonical string. (Dataset identity rides outside
//!    the key — a cache is scoped to one evaluator's split.)
//! 2. **Pure**: key construction reads nothing but its arguments — no
//!    clock, RNG, or interior mutability (enforced by the xtask
//!    `cache-purity` lint over `impl CacheKey` and the codec's
//!    `fn fnv1a`).
//! 3. **Collision-safe**: maps key on the full canonical string; the
//!    fingerprint is for sharding and logs only.
//!
//! [`crate::prefix`] builds its prefix-transform keys on the same
//! machinery and contract (same fingerprint, `layer=prefix;` namespace
//! so the two key families can never collide); see its module docs for
//! the fields it deliberately drops and ARCHITECTURE.md "Cache
//! hierarchy" for how the two layers stack.
//!
//! ```
//! use autofp_core::{BatchEvaluator, EvalCache, EvalConfig, Evaluator};
//! use autofp_data::SynthConfig;
//! use autofp_preprocess::{Pipeline, PreprocKind};
//!
//! let dataset = SynthConfig::new("cache-doc", 120, 5, 2, 3).generate();
//! let evaluator = Evaluator::new(&dataset, EvalConfig::default());
//! let cache = EvalCache::new();
//! let batch = BatchEvaluator::new(&evaluator).with_cache(&cache);
//! let pipeline = [Pipeline::from_kinds(&[PreprocKind::StandardScaler])];
//!
//! let fresh = batch.evaluate_batch(&pipeline); // miss: evaluates
//! let hit = batch.evaluate_batch(&pipeline);   // hit: memoized
//! assert_eq!(fresh[0].accuracy, hit[0].accuracy);
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use crate::error::FailureKind;
use crate::evaluator::EvalConfig;
use crate::history::Trial;
use crate::lru::Lru;
use crate::repo::{corrupt, segment_path, RepoError, StoreMeta, TrialStore};
use autofp_linalg::codec::fnv1a;
use autofp_preprocess::Pipeline;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// The never-persist rule: deadline and transport failures are a
/// property of the run, not the pipeline, so neither the memo nor the
/// durable store ever keeps them.
pub(crate) fn never_cached(trial: &Trial) -> bool {
    matches!(trial.failure, Some(FailureKind::Deadline) | Some(FailureKind::Transport))
}

/// The identity of one evaluation: pipeline (kinds *and* parameters),
/// training-budget fraction, and the evaluator configuration.
///
/// Two keys are equal exactly when a memoized trial is reusable. The
/// 64-bit [`CacheKey::fingerprint`] is a stable FNV-1a hash of the
/// canonical form — convenient for logs and indexes — while the cache
/// map itself keys on the full canonical string, so even a fingerprint
/// collision between distinct pipelines cannot alias their results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    canonical: String,
    fingerprint: u64,
}

impl CacheKey {
    /// Build the key for evaluating `pipeline` at `fraction` under
    /// `config`.
    pub fn new(pipeline: &Pipeline, fraction: f64, config: &EvalConfig) -> CacheKey {
        let mut canonical = String::new();
        let _ = write!(
            canonical,
            "m={};seed={};tf={};sub={};frac={};p={}",
            config.model,
            config.seed,
            config.train_fraction.to_bits(),
            config.train_subsample.map_or(-1_i64, |v| v as i64),
            fraction.clamp(0.0, 1.0).to_bits(),
            pipeline.key(),
        );
        let fingerprint = fnv1a(canonical.as_bytes());
        CacheKey { canonical, fingerprint }
    }

    /// The stable 64-bit fingerprint of this key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The canonical string the fingerprint hashes.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Rehydrate a key from its stored parts (`core::repo` load path).
    /// The caller must have verified `fingerprint == fnv1a(canonical)`;
    /// the store's decoder does, so a persisted record can never come
    /// back under the wrong identity.
    pub(crate) fn from_parts(canonical: String, fingerprint: u64) -> CacheKey {
        CacheKey { canonical, fingerprint }
    }
}

/// Hit / miss / saved-time counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups satisfied from the cache (including within-batch
    /// duplicate pipelines satisfied by one shared evaluation).
    pub hits: u64,
    /// Lookups that had to run a fresh evaluation.
    pub misses: u64,
    /// Distinct memoized trials.
    pub entries: usize,
    /// Prep + Train wall-clock the hits would have re-spent.
    pub saved: Duration,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over lookups in `[0, 1]` (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fold another snapshot into this one (all counters summed).
    ///
    /// Used to aggregate per-cache snapshots into matrix-level totals;
    /// sum each distinct cache exactly once — `entries` adds up, so
    /// absorbing two snapshots of the *same* cache double-counts.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.saved += other.saved;
    }
}

/// A thread-safe memo of finished [`Trial`]s.
///
/// All methods take `&self`; internal state is a mutex-guarded map plus
/// atomic counters, so one cache can serve many evaluation workers
/// concurrently (see [`crate::batch::BatchEvaluator::with_cache`]).
/// Cloning is cheap and shares that state: every clone sees the same
/// memo and counts on the same counters.
///
/// A hit returns a clone of the stored [`Trial`] — bit-identical to the
/// original evaluation, *including* its recorded `prep_time` and
/// `train_time`. Histories therefore keep the paper's attributed-time
/// semantics (Figure 7) while [`CacheStats::saved`] tracks the
/// wall-clock that was actually avoided.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    state: Arc<CacheState>,
}

#[derive(Debug, Default)]
struct CacheState {
    /// canonical key -> trial, without a budget: nothing is evicted.
    memo: Mutex<Lru<Trial>>,
    /// Durable layer, set at most once by [`EvalCache::attach_segment`]:
    /// every later insert is also appended to this store.
    store: OnceLock<TrialStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    saved_nanos: AtomicU64,
}

impl EvalCache {
    /// An empty, unbounded cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// A worker thread panicking mid-batch (contained by the batch
    /// layer) may poison this mutex; the memo stays coherent because
    /// every mutation holds the lock for its full map+recency update,
    /// so recovering the guard is sound.
    fn lock(&self) -> MutexGuard<'_, Lru<Trial>> {
        self.state.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a memoized trial. Records a hit (and the saved Prep +
    /// Train time) or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Trial> {
        let found = self.lock().get(key.canonical()).cloned();
        match &found {
            Some(trial) => self.note_hit(trial),
            None => {
                self.state.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Record a hit that was satisfied outside [`EvalCache::lookup`]
    /// (within-batch duplicate sharing).
    pub(crate) fn note_hit(&self, trial: &Trial) {
        self.state.hits.fetch_add(1, Ordering::Relaxed);
        let saved = trial.prep_time + trial.train_time;
        self.state.saved_nanos.fetch_add(saved.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Memoize a finished trial.
    ///
    /// Deterministic failures (non-finite, degenerate, diverged,
    /// panic) are cached like successes — re-proposing the pipeline
    /// would fail identically. Deadline and transport failures are
    /// circumstantial and are *not* stored (a worker coming back up
    /// must not be masked by a memoized worst-error trial).
    /// With a segment attached ([`EvalCache::attach_segment`]), the
    /// trial is also appended there (write-through); the store
    /// independently enforces the same never-persist rule and
    /// deduplicates, so the append is unconditional here.
    pub fn insert(&self, key: &CacheKey, trial: &Trial) {
        if let Some(store) = self.state.store.get() {
            store.append(key, trial);
        }
        if !never_cached(trial) {
            self.lock().insert(key.canonical(), trial.clone(), 1);
        }
    }

    /// Number of memoized trials.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attach `context`'s durable segment in the repository directory
    /// `dir` (ARCHITECTURE.md "Cache hierarchy", layer 3): create the
    /// directory, open the segment, record the evaluator identity
    /// `meta` (a segment persisted under a different identity is
    /// refused), move its trials into the memo and write every later
    /// [`EvalCache::insert`] through to it.
    ///
    /// Warming counts in [`crate::StoreStats::preloaded`], not as hits
    /// or misses, and writes nothing back. A cache attaches at most one
    /// segment; a second attach is refused.
    pub fn attach_segment(&self, dir: &Path, context: &str, meta: StoreMeta) -> Result<(), RepoError> {
        std::fs::create_dir_all(dir)?;
        let (store, trials) = TrialStore::load(segment_path(dir, context), context)?;
        store.set_meta(meta)?;
        store.note_preloaded(trials.len() as u64);
        if self.state.store.set(store).is_err() {
            return Err(corrupt(format!("cache already has a segment; `{context}` not attached")));
        }
        let mut memo = self.lock();
        for (key, trial) in trials {
            // A corrupted store must not plant a never-persist memo.
            if !never_cached(&trial) {
                memo.insert(key.canonical(), trial, 1);
            }
        }
        Ok(())
    }

    /// The attached durable segment, if any.
    pub fn store(&self) -> Option<&TrialStore> {
        self.state.store.get()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.state.hits.load(Ordering::Relaxed),
            misses: self.state.misses.load(Ordering::Relaxed),
            entries: self.len(),
            saved: Duration::from_nanos(self.state.saved_nanos.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_preprocess::{Preproc, PreprocKind};
    use std::collections::HashSet;

    fn trial_for(p: &Pipeline, acc: f64) -> Trial {
        Trial {
            pipeline: p.clone(),
            accuracy: acc,
            error: 1.0 - acc,
            prep_time: Duration::from_millis(3),
            train_time: Duration::from_millis(5),
            train_fraction: 1.0,
            failure: None,
        }
    }

    fn key_for(kind: PreprocKind) -> CacheKey {
        CacheKey::new(&Pipeline::from_kinds(&[kind]), 1.0, &EvalConfig::default())
    }

    #[test]
    fn distinct_pipelines_get_distinct_fingerprints() {
        let config = EvalConfig::default();
        let mut seen = HashSet::new();
        // Every 1- and 2-step default-parameter pipeline.
        let mut pipelines = Vec::new();
        for a in PreprocKind::ALL {
            pipelines.push(Pipeline::from_kinds(&[a]));
            for b in PreprocKind::ALL {
                pipelines.push(Pipeline::from_kinds(&[a, b]));
            }
        }
        for p in &pipelines {
            assert!(
                seen.insert(CacheKey::new(p, 1.0, &config).fingerprint()),
                "fingerprint collision for {p}"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_parameters_fraction_and_config() {
        let config = EvalConfig::default();
        let a = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.0 }]);
        let b = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.5 }]);
        // Same kind sequence, different parameters.
        assert_ne!(
            CacheKey::new(&a, 1.0, &config).fingerprint(),
            CacheKey::new(&b, 1.0, &config).fingerprint()
        );
        // Same pipeline, different training-budget fraction.
        assert_ne!(
            CacheKey::new(&a, 1.0, &config).fingerprint(),
            CacheKey::new(&a, 0.5, &config).fingerprint()
        );
        // Same pipeline, different evaluator config.
        let other = EvalConfig { seed: 99, ..EvalConfig::default() };
        assert_ne!(
            CacheKey::new(&a, 1.0, &config).fingerprint(),
            CacheKey::new(&a, 1.0, &other).fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_stable_across_key_constructions() {
        let config = EvalConfig::default();
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::Normalizer]);
        let k1 = CacheKey::new(&p, 0.25, &config);
        let k2 = CacheKey::new(&p.clone(), 0.25, &config.clone());
        assert_eq!(k1.fingerprint(), k2.fingerprint());
        assert_eq!(k1.canonical(), k2.canonical());
    }

    #[test]
    fn lookup_hit_returns_identical_trial_and_counts() {
        let cache = EvalCache::new();
        let config = EvalConfig::default();
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let key = CacheKey::new(&p, 1.0, &config);

        assert!(cache.lookup(&key).is_none());
        let t = trial_for(&p, 0.9);
        cache.insert(&key, &t);
        let hit = cache.lookup(&key).expect("hit");
        assert_eq!(hit.accuracy.to_bits(), t.accuracy.to_bits());
        assert_eq!(hit.prep_time, t.prep_time);
        assert_eq!(hit.train_time, t.train_time);
        assert_eq!(hit.pipeline.key(), t.pipeline.key());

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.saved, Duration::from_millis(8));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_alias_entries() {
        let cache = EvalCache::new();
        let config = EvalConfig::default();
        let a = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.0 }]);
        let b = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.5 }]);
        cache.insert(&CacheKey::new(&a, 1.0, &config), &trial_for(&a, 0.7));
        cache.insert(&CacheKey::new(&b, 1.0, &config), &trial_for(&b, 0.8));
        assert_eq!(cache.len(), 2);
        let got_a = cache.lookup(&CacheKey::new(&a, 1.0, &config)).unwrap();
        let got_b = cache.lookup(&CacheKey::new(&b, 1.0, &config)).unwrap();
        assert_eq!(got_a.accuracy, 0.7);
        assert_eq!(got_b.accuracy, 0.8);
    }

    #[test]
    fn empty_cache_stats() {
        let cache = EvalCache::new();
        let s = cache.stats();
        assert_eq!(s.lookups(), 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_unbounded() {
        let cache = EvalCache::new();
        for (i, a) in PreprocKind::ALL.into_iter().enumerate() {
            for b in PreprocKind::ALL {
                let p = Pipeline::from_kinds(&[a, b]);
                cache.insert(
                    &CacheKey::new(&p, 1.0, &EvalConfig::default()),
                    &trial_for(&p, 0.01 * i as f64),
                );
            }
        }
        assert_eq!(cache.len(), PreprocKind::ALL.len() * PreprocKind::ALL.len());
    }

    #[test]
    fn shared_handles_see_one_memo_and_exact_counters() {
        let shared = EvalCache::new();
        let clone = shared.clone();

        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let key = key_for(PreprocKind::StandardScaler);
        shared.insert(&key, &trial_for(&p, 0.9));
        // The clone sees the entry and its lookup counts on the shared
        // counters.
        assert_eq!(clone.lookup(&key).map(|t| t.accuracy), Some(0.9));
        let s = shared.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
    }

    #[test]
    fn absorb_sums_every_counter() {
        let a = CacheStats {
            hits: 3,
            misses: 2,
            entries: 2,
            saved: Duration::from_millis(10),
        };
        let mut total = CacheStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.hits, 6);
        assert_eq!(total.misses, 4);
        assert_eq!(total.entries, 4);
        assert_eq!(total.saved, Duration::from_millis(20));
        assert!((total.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn deadline_and_transport_failures_are_never_cached() {
        use crate::error::FailureKind;
        let cache = EvalCache::new();
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        let key = key_for(PreprocKind::Binarizer);
        cache.insert(&key, &Trial::failed(p.clone(), FailureKind::Deadline, 1.0));
        assert!(cache.is_empty());
        // A dead worker is a property of the run, not the pipeline:
        // memoizing its worst-error trial would poison later runs.
        cache.insert(&key, &Trial::failed(p.clone(), FailureKind::Transport, 1.0));
        assert!(cache.is_empty());
        // Deterministic failures are memoized like successes.
        cache.insert(&key, &Trial::failed(p, FailureKind::Panic, 1.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key).unwrap().failure, Some(FailureKind::Panic));
    }

    /// The wire protocol (`autofp-evald`) and shard routing
    /// (`RemoteEvaluator`) both assume `fingerprint` never changes
    /// across refactors: a silent hash change would re-shard every
    /// pipeline and invalidate any persisted evaluation repository.
    /// These constants were computed once from the canonical strings
    /// below; if this test fails, the hash (or the canonical form) has
    /// changed and every consumer of the fingerprint must migrate.
    #[test]
    fn golden_fingerprints_are_locked() {
        let config = EvalConfig::default();
        let cases: [(Pipeline, f64, u64); 4] = [
            (Pipeline::empty(), 1.0, 0xceb94a6360fd8b3e),
            (
                Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
                1.0,
                0xca6dfeff7dbeff12,
            ),
            (
                Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::Normalizer]),
                0.25,
                0x67ab45321710d1d3,
            ),
            (
                Pipeline::new(vec![Preproc::Binarizer { threshold: 0.5 }]),
                1.0,
                0xef8b7b4497d1cc8f,
            ),
        ];
        for (pipeline, fraction, expected) in cases {
            let key = CacheKey::new(&pipeline, fraction, &config);
            assert_eq!(
                key.fingerprint(),
                expected,
                "fingerprint drifted for `{}` @ {fraction} (canonical `{}`)",
                pipeline.key(),
                key.canonical(),
            );
        }
        // And the seed dimension: a different config must move the hash.
        let other = EvalConfig { seed: 99, ..EvalConfig::default() };
        assert_eq!(
            CacheKey::new(&Pipeline::empty(), 1.0, &other).fingerprint(),
            0x06e1e5f30a337fd8,
        );
    }
}
