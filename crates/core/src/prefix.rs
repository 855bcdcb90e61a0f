//! Prefix-transform caching: reuse of *partially transformed datasets*
//! across pipelines that share a common prefix.
//!
//! Auto-FP searches over ordered sequences of preprocessors, and every
//! practical searcher proposes families of pipelines with long shared
//! prefixes: beam searchers (PNAS, TEVO) extend surviving prefixes by
//! construction, evolutionary mutation perturbs pipeline *tails*, and
//! Hyperband re-evaluates rung survivors at higher budgets. The
//! whole-pipeline [`crate::EvalCache`] only helps for *exact* duplicate
//! proposals; `[Standard, Power, Quantile]` and `[Standard, Power,
//! Binarizer]` still redo the identical `[Standard, Power]` transform
//! work. A [`PrefixCache`] closes that gap: it memoizes the transformed
//! (train, valid) matrix pair after each pipeline prefix, so evaluating
//! a new pipeline costs only its untouched suffix plus model training.
//!
//! # Key contract
//!
//! A [`PrefixKey`] is content-addressed by a canonical string, like
//! [`crate::CacheKey`] (see the module docs of [`crate::cache`] for the
//! contract), but carries no fingerprint: nothing shards or indexes
//! prefix entries, and the map keys on the string. Its canonical form
//! is
//!
//! ```text
//! layer=prefix;seed=<u64>;tf=<f64 bits>;sub=<i64>;p=<step 1> -> ... -> <step k>
//! ```
//!
//! Keyed (cache-relevant) dimensions:
//!
//! - `seed` and `tf` (train-fraction bits) — they determine the
//!   stratified split, and therefore the exact input matrices.
//! - `sub` — the optional training-row subsample cap (`-1` when unset),
//!   which changes the training matrix the prefix was fit on.
//! - `p` — the prefix's steps, kinds *and* parameters, rendered by the
//!   same `Display` impl as [`autofp_preprocess::Pipeline::key`].
//!
//! Deliberately **excluded** dimensions (each is an extra reuse axis):
//!
//! - the downstream **model** — transforms run before any trainer
//!   touches the data, so one prefix entry serves LR, XGB and MLP cells
//!   alike (the bench harness shares one cache per dataset across all
//!   model groups for exactly this reason);
//! - the **training-budget fraction** — fractional budgets throttle
//!   trainer iterations, not preprocessing, so Hyperband rungs at 1/9,
//!   1/3 and 1.0 all hit the same prefix entries;
//! - the **dataset identity** — like [`crate::EvalCache`], a prefix
//!   cache is scoped to one dataset by construction (one instance per
//!   dataset); keying the data itself would mean hashing matrices.
//!
//! The `layer=prefix;` namespace tag keeps prefix canonicals disjoint
//! from trial canonicals (which start with `m=`), so the two layers can
//! never alias even if their keys were ever mixed in one index.
//!
//! # Admission and eviction
//!
//! Entries are admitted only when both transformed matrices are fully
//! finite: a prefix that produced NaN/inf is *poisoned* and must never
//! serve a cached matrix, because downstream suffix steps would fit on
//! garbage (the rejection is counted in [`PrefixStats::poisoned`]; the
//! evaluation itself still fails with the usual
//! [`crate::EvalError::NonFiniteTransform`] at the full-pipeline
//! checks).
//!
//! The cache is byte-budgeted rather than entry-capped — entries are
//! whole dataset copies, so their sizes vary wildly with dataset shape.
//! [`PrefixCache::new`] budgets [`PrefixCache::DEFAULT_BYTE_BUDGET`]
//! bytes; [`PrefixCache::with_byte_budget`] takes any other budget.
//! Every insert charges `8 * (train cells + valid cells) + canonical
//! length` bytes and evicts least-recently-used entries until the
//! budget holds. An entry larger than the entire budget is never
//! admitted (counted as an immediate eviction). Eviction only ever
//! costs recomputation: results are bit-identical with any budget,
//! including zero. The LRU is the crate's one weighted store
//! (`core::lru`), shared with [`crate::EvalCache`], which runs it
//! without a budget.
//!
//! Like [`crate::EvalCache`], a `PrefixCache` is a cheap-clone handle:
//! clones share one store and one set of counters, so the bench harness
//! hands clones of one per-dataset cache to every model group's
//! evaluator.
//!
//! # Determinism
//!
//! A prefix hit replays the exact matrices the original transform
//! produced, and the suffix is applied step-by-step with the same
//! `fit_transform` calls the uncached path runs — the same float ops in
//! the same order, so trials are bit-identical with the cache on, off,
//! bounded, or shared across any number of threads. Only wall-clock
//! attribution (`prep_time`) and the cache counters may differ.

use crate::evaluator::EvalConfig;
use crate::lru::Lru;
use autofp_linalg::Matrix;
use autofp_preprocess::Pipeline;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The identity of one pipeline prefix's transform output: split
/// configuration (seed, train fraction, subsample cap) plus the prefix
/// steps. See the module docs for the full canonical-string contract —
/// notably, the downstream model and the training-budget fraction are
/// *excluded*, which is what lets one entry serve every model and every
/// Hyperband rung.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrefixKey {
    canonical: String,
}

impl PrefixKey {
    /// Keys for every non-empty prefix of `pipeline`, shortest first:
    /// index `i` holds the key of the first `i + 1` steps (the last is
    /// the full pipeline). Built incrementally — pipeline keys are
    /// `" -> "`-joined step strings, so each prefix canonical is a
    /// string prefix extension of the previous one.
    pub fn all_prefixes(pipeline: &Pipeline, config: &EvalConfig) -> Vec<PrefixKey> {
        let mut keys = Vec::with_capacity(pipeline.len());
        let mut canonical = String::new();
        let _ = write!(
            canonical,
            "layer=prefix;seed={};tf={};sub={};p=",
            config.seed,
            config.train_fraction.to_bits(),
            config.train_subsample.map_or(-1_i64, |v| v as i64),
        );
        for (i, s) in pipeline.steps().iter().enumerate() {
            if i > 0 {
                canonical.push_str(" -> ");
            }
            let _ = write!(canonical, "{s}");
            keys.push(PrefixKey { canonical: canonical.clone() });
        }
        keys
    }

    /// The canonical string.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

/// Counter snapshot of a [`PrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Lookups that found *some* cached prefix (not necessarily the
    /// full pipeline) to resume from.
    pub hits: u64,
    /// Lookups where no prefix of the pipeline was cached.
    pub misses: u64,
    /// Live entries.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
    /// Entries dropped to satisfy the byte budget (including oversized
    /// entries that were never admitted).
    pub evictions: u64,
    /// Bytes those evictions released.
    pub bytes_evicted: u64,
    /// Insert attempts rejected because the transformed matrices were
    /// non-finite (the poisoned-prefix rule).
    pub poisoned: u64,
    /// Preprocessor `fit_transform` invocations skipped by hits — the
    /// "fewer transform invocations" measure.
    pub steps_saved: u64,
    /// Transform wall-clock the hits would have re-spent.
    pub saved: Duration,
}

impl PrefixStats {
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

    /// Fold another snapshot into this one (all counters summed). Sum
    /// each distinct cache exactly once — `entries` and `bytes` add up,
    /// so absorbing two snapshots of the *same* cache double-counts.
    pub fn absorb(&mut self, other: &PrefixStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.evictions += other.evictions;
        self.bytes_evicted += other.bytes_evicted;
        self.poisoned += other.poisoned;
        self.steps_saved += other.steps_saved;
        self.saved += other.saved;
    }
}

/// A cache hit: the deepest cached prefix of the probed pipeline. The
/// cache stores exactly this per entry.
#[derive(Debug, Clone)]
pub struct PrefixHit {
    /// How many leading steps the cached matrices already include.
    pub depth: usize,
    /// The transformed training features after `depth` steps.
    pub train: Matrix,
    /// The transformed validation features after `depth` steps.
    pub valid: Matrix,
    /// Cumulative transform wall-clock the original computation of
    /// this prefix spent (carried so extensions charge honest costs).
    pub cost: Duration,
}

/// A thread-safe, byte-budgeted LRU store of transformed dataset
/// prefixes. See the module docs for the key contract, admission rules
/// (finite matrices only) and eviction semantics.
///
/// All methods take `&self` (mutex-guarded LRU, atomic counters), so
/// one cache can serve many evaluation workers concurrently, and clones
/// share it — attach one via [`crate::Evaluator::with_prefix_cache`].
#[derive(Debug, Clone)]
pub struct PrefixCache {
    state: Arc<PrefixState>,
}

#[derive(Debug, Default)]
struct PrefixState {
    /// canonical key -> prefix state, each weighing its
    /// `entry_bytes` against the byte budget.
    entries: Mutex<Lru<PrefixHit>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_evicted: AtomicU64,
    poisoned: AtomicU64,
    steps_saved: AtomicU64,
    saved_nanos: AtomicU64,
}

impl PrefixCache {
    /// The byte budget of [`PrefixCache::new`]: bounded, but big
    /// enough to never matter at benchmark scale (256 MiB). The bench
    /// harness (`--prefix-cache`) and every evald worker context run
    /// their prefix caches at this budget.
    pub const DEFAULT_BYTE_BUDGET: u64 = 256 << 20;

    /// An empty cache at [`PrefixCache::DEFAULT_BYTE_BUDGET`].
    pub fn new() -> PrefixCache {
        PrefixCache::with_byte_budget(PrefixCache::DEFAULT_BYTE_BUDGET)
    }

    /// An empty cache holding at most `budget` bytes of transformed
    /// matrices, evicting least-recently-used entries on overflow.
    /// Budget 0 disables caching entirely (nothing is ever admitted).
    pub fn with_byte_budget(budget: u64) -> PrefixCache {
        let entries = Mutex::new(Lru::new(Some(budget)));
        PrefixCache { state: Arc::new(PrefixState { entries, ..PrefixState::default() }) }
    }

    /// Same poisoned-mutex policy as [`crate::EvalCache`]: every
    /// mutation holds the lock for its full map+recency+ledger update,
    /// so recovering the guard after a worker panic is sound.
    fn lock(&self) -> MutexGuard<'_, Lru<PrefixHit>> {
        self.state.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probe for the *deepest* cached prefix among `keys` (ordered
    /// shortest first, as produced by [`PrefixKey::all_prefixes`]).
    /// Records one hit (plus the steps and wall-clock it skips) or one
    /// miss per call, and refreshes the winning entry's recency.
    pub fn lookup_longest(&self, keys: &[PrefixKey]) -> Option<PrefixHit> {
        let found = {
            let mut entries = self.lock();
            keys.iter().rev().find_map(|key| entries.get(key.canonical()).cloned())
        };
        let state = &self.state;
        match &found {
            Some(hit) => {
                state.hits.fetch_add(1, Ordering::Relaxed);
                state.steps_saved.fetch_add(hit.depth as u64, Ordering::Relaxed);
                state.saved_nanos.fetch_add(hit.cost.as_nanos() as u64, Ordering::Relaxed);
            }
            None => {
                state.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Store the transformed state after a prefix of `depth` steps.
    /// `cost` is the cumulative transform wall-clock from the raw split
    /// to this state (what a future full-depth hit saves).
    ///
    /// Enforces the poisoned-prefix rule: non-finite matrices are
    /// rejected (counted in [`PrefixStats::poisoned`]) so a poisoned
    /// prefix can never serve a cached matrix. Oversized entries (the
    /// pair alone exceeds the whole budget) are never admitted.
    pub fn insert(&self, key: &PrefixKey, train: &Matrix, valid: &Matrix, depth: usize, cost: Duration) {
        if !train.is_finite() || !valid.is_finite() {
            self.state.poisoned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bytes = entry_bytes(key, train, valid);
        let hit = PrefixHit { depth, train: train.clone(), valid: valid.clone(), cost };
        let evicted = self.lock().insert(key.canonical(), hit, bytes);
        if evicted.count > 0 {
            self.state.evictions.fetch_add(evicted.count, Ordering::Relaxed);
            self.state.bytes_evicted.fetch_add(evicted.weight, Ordering::Relaxed);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> u64 {
        self.lock().total()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PrefixStats {
        let (entries, bytes) = {
            let entries = self.lock();
            (entries.len(), entries.total())
        };
        let state = &self.state;
        PrefixStats {
            hits: state.hits.load(Ordering::Relaxed),
            misses: state.misses.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: state.evictions.load(Ordering::Relaxed),
            bytes_evicted: state.bytes_evicted.load(Ordering::Relaxed),
            poisoned: state.poisoned.load(Ordering::Relaxed),
            steps_saved: state.steps_saved.load(Ordering::Relaxed),
            saved: Duration::from_nanos(state.saved_nanos.load(Ordering::Relaxed)),
        }
    }
}

impl Default for PrefixCache {
    fn default() -> Self {
        PrefixCache::new()
    }
}

/// What one stored prefix costs against the byte budget: the two f64
/// matrices plus the canonical key string.
fn entry_bytes(key: &PrefixKey, train: &Matrix, valid: &Matrix) -> u64 {
    let (tn, td) = train.shape();
    let (vn, vd) = valid.shape();
    8 * (tn * td + vn * vd) as u64 + key.canonical().len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_preprocess::{Preproc, PreprocKind};
    use std::collections::HashSet;

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    fn small() -> (Matrix, Matrix) {
        (m(&[vec![1.0, 2.0], vec![3.0, 4.0]]), m(&[vec![5.0, 6.0]]))
    }

    /// The key of the first `len` steps of `p`.
    fn key(p: &Pipeline, len: usize, cfg: &EvalConfig) -> PrefixKey {
        PrefixKey::all_prefixes(p, cfg).swap_remove(len - 1)
    }

    #[test]
    fn all_prefixes_are_ordered_and_distinct() {
        let p = Pipeline::from_kinds(&[
            PreprocKind::StandardScaler,
            PreprocKind::PowerTransformer,
            PreprocKind::Binarizer,
        ]);
        let cfg = EvalConfig::default();
        let keys = PrefixKey::all_prefixes(&p, &cfg);
        assert_eq!(keys.len(), 3);
        let mut seen = HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            assert!(seen.insert(k.canonical()), "canonical collision at len {}", i + 1);
            if i > 0 {
                assert!(k.canonical().starts_with(keys[i - 1].canonical()), "len {}", i + 1);
            }
        }
        assert!(keys[2].canonical().ends_with(&format!("p={}", p.key())));
        assert!(PrefixKey::all_prefixes(&Pipeline::empty(), &cfg).is_empty());
    }

    #[test]
    fn key_excludes_model_and_includes_split_dimensions() {
        use autofp_models::classifier::ModelKind;
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let base = EvalConfig::default();
        let other_model = EvalConfig { model: ModelKind::Xgb, ..base.clone() };
        assert_eq!(
            key(&p, 1, &base),
            key(&p, 1, &other_model),
            "prefix keys must be model-independent (transforms run before any trainer)"
        );
        for cfg in [
            EvalConfig { seed: 7, ..base.clone() },
            EvalConfig { train_fraction: 0.5, ..base.clone() },
            EvalConfig { train_subsample: Some(64), ..base.clone() },
        ] {
            assert_ne!(
                key(&p, 1, &base),
                key(&p, 1, &cfg),
                "split-shaping config must move the key"
            );
        }
    }

    #[test]
    fn key_distinguishes_parameters() {
        let cfg = EvalConfig::default();
        let a = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.0 }]);
        let b = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.5 }]);
        assert_ne!(key(&a, 1, &cfg).canonical(), key(&b, 1, &cfg).canonical());
    }

    #[test]
    fn prefix_namespace_is_disjoint_from_trial_keys() {
        let cfg = EvalConfig::default();
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let prefix = key(&p, 1, &cfg);
        let trial = crate::CacheKey::new(&p, 1.0, &cfg);
        assert!(prefix.canonical().starts_with("layer=prefix;"));
        assert!(trial.canonical().starts_with("m="));
    }

    /// Like the trial-key golden test, these constants lock the
    /// canonical form: each is the FNV-1a hash of one prefix canonical.
    /// If this fails, the canonical layout changed, and every prefix
    /// entry a cache holds would stop matching.
    #[test]
    fn golden_prefix_fingerprints_are_locked() {
        let cfg = EvalConfig::default();
        let two = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::Normalizer]);
        let cases: [(&Pipeline, usize, u64); 3] = [
            (&Pipeline::from_kinds(&[PreprocKind::StandardScaler]), 1, 0xb53c503c70e51eef),
            (&two, 1, 0x285675f50459b9f4),
            (&two, 2, 0x3ace5f18616e849a),
        ];
        for (pipeline, len, expected) in cases {
            let key = key(pipeline, len, &cfg);
            assert_eq!(
                crate::fnv1a(key.canonical().as_bytes()),
                expected,
                "prefix fingerprint drifted for `{}`[..{len}] (canonical `{}`)",
                pipeline.key(),
                key.canonical(),
            );
        }
    }

    #[test]
    fn lookup_longest_prefers_deeper_prefixes_and_counts() {
        let cache = PrefixCache::new();
        let cfg = EvalConfig::default();
        let p = Pipeline::from_kinds(&[
            PreprocKind::StandardScaler,
            PreprocKind::MinMaxScaler,
            PreprocKind::Normalizer,
        ]);
        let keys = PrefixKey::all_prefixes(&p, &cfg);
        let (t1, v1) = small();
        let t2 = m(&[vec![9.0, 9.0], vec![9.0, 9.0]]);
        cache.insert(&keys[0], &t1, &v1, 1, Duration::from_millis(2));
        cache.insert(&keys[1], &t2, &v1, 2, Duration::from_millis(5));

        assert!(cache.lookup_longest(&[]).is_none());
        let hit = cache.lookup_longest(&keys).expect("hit");
        assert_eq!(hit.depth, 2, "must resume from the deepest cached prefix");
        assert_eq!(hit.train, t2);
        assert_eq!(hit.cost, Duration::from_millis(5));

        let miss_keys = PrefixKey::all_prefixes(
            &Pipeline::from_kinds(&[PreprocKind::Binarizer]),
            &cfg,
        );
        assert!(cache.lookup_longest(&miss_keys).is_none());

        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.steps_saved, 2);
        assert_eq!(s.saved, Duration::from_millis(5));
        assert_eq!(s.entries, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn poisoned_prefixes_are_never_admitted() {
        let cache = PrefixCache::new();
        let cfg = EvalConfig::default();
        let keys =
            PrefixKey::all_prefixes(&Pipeline::from_kinds(&[PreprocKind::PowerTransformer]), &cfg);
        let (t, v) = small();
        let bad_train = m(&[vec![f64::NAN, 1.0]]);
        let bad_valid = m(&[vec![f64::INFINITY, 1.0]]);
        cache.insert(&keys[0], &bad_train, &v, 1, Duration::ZERO);
        cache.insert(&keys[0], &t, &bad_valid, 1, Duration::ZERO);
        assert!(cache.is_empty(), "non-finite matrices must never be cached");
        assert!(cache.lookup_longest(&keys).is_none());
        let s = cache.stats();
        assert_eq!(s.poisoned, 2);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let cfg = EvalConfig::default();
        let (t, v) = small();
        let per_entry = |k: &PrefixKey| entry_bytes(k, &t, &v);
        let keys: Vec<PrefixKey> = [PreprocKind::StandardScaler, PreprocKind::MinMaxScaler, PreprocKind::Normalizer]
            .into_iter()
            .map(|k| key(&Pipeline::from_kinds(&[k]), 1, &cfg))
            .collect();
        // Budget fits exactly two of the three (keys have similar sizes).
        let budget = per_entry(&keys[0]) + per_entry(&keys[1]) + per_entry(&keys[2]) / 2;
        let cache = PrefixCache::with_byte_budget(budget);

        cache.insert(&keys[0], &t, &v, 1, Duration::ZERO);
        cache.insert(&keys[1], &t, &v, 1, Duration::ZERO);
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.lookup_longest(&keys[0..1]).is_some());
        cache.insert(&keys[2], &t, &v, 1, Duration::ZERO);

        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_longest(&keys[1..2]).is_none(), "LRU victim must be gone");
        assert!(cache.lookup_longest(&keys[0..1]).is_some());
        assert!(cache.lookup_longest(&keys[2..3]).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes_evicted, per_entry(&keys[1]));
        assert!(s.bytes <= budget);
        assert_eq!(s.bytes, cache.bytes());
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let cfg = EvalConfig::default();
        let (t, v) = small();
        let key = key(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]), 1, &cfg);
        let cache = PrefixCache::with_byte_budget(entry_bytes(&key, &t, &v) - 1);
        cache.insert(&key, &t, &v, 1, Duration::ZERO);
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes_evicted, entry_bytes(&key, &t, &v));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cfg = EvalConfig::default();
        let (t, v) = small();
        let key = key(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]), 1, &cfg);
        let cache = PrefixCache::with_byte_budget(0);
        cache.insert(&key, &t, &v, 1, Duration::ZERO);
        assert!(cache.is_empty());
        assert!(cache.lookup_longest(std::slice::from_ref(&key)).is_none());
    }

    #[test]
    fn reinserting_same_key_does_not_leak_bytes() {
        let cfg = EvalConfig::default();
        let (t, v) = small();
        let key = key(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]), 1, &cfg);
        let cache = PrefixCache::new();
        cache.insert(&key, &t, &v, 1, Duration::from_millis(1));
        let before = cache.bytes();
        cache.insert(&key, &t, &v, 1, Duration::from_millis(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), before, "re-insert must replace, not accumulate");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn shared_handles_see_one_store() {
        let shared = PrefixCache::new();
        let clone = shared.clone();
        let cfg = EvalConfig::default();
        let (t, v) = small();
        let key = key(&Pipeline::from_kinds(&[PreprocKind::StandardScaler]), 1, &cfg);
        shared.insert(&key, &t, &v, 1, Duration::ZERO);
        assert_eq!(clone.len(), 1);
        assert!(clone.lookup_longest(std::slice::from_ref(&key)).is_some());
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let a = PrefixStats {
            hits: 3,
            misses: 2,
            entries: 2,
            bytes: 100,
            evictions: 1,
            bytes_evicted: 40,
            poisoned: 1,
            steps_saved: 5,
            saved: Duration::from_millis(10),
        };
        let mut total = PrefixStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.hits, 6);
        assert_eq!(total.misses, 4);
        assert_eq!(total.entries, 4);
        assert_eq!(total.bytes, 200);
        assert_eq!(total.evictions, 2);
        assert_eq!(total.bytes_evicted, 80);
        assert_eq!(total.poisoned, 2);
        assert_eq!(total.steps_saved, 10);
        assert_eq!(total.saved, Duration::from_millis(20));
        assert!((total.hit_rate() - 0.6).abs() < 1e-12);
    }
}
