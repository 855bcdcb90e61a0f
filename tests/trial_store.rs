//! Recovery suite for the durable trial repository: crash-resume,
//! warm-start, corrupt-tail tolerance, and the never-persist rule —
//! the integration-level guarantees behind `--trial-store`.
//!
//! Four pillars:
//!
//! 1. **Crash-resume** — a matrix run over a store whose segments were
//!    torn mid-record (and one deleted outright) produces cell results
//!    byte-identical to an uninterrupted cold run: the torn tail is
//!    truncated on open, the surviving trials preload the group caches,
//!    and the replayed trajectory fills in only what is missing.
//! 2. **Warm-start** — a rerun over a fully populated store is
//!    bit-identical to the cold run with *zero* real evaluator calls
//!    (cache hits count toward eval budgets, so preloaded trials keep
//!    the proposal sequence unchanged).
//! 3. **Corrupt tail** — a segment truncated mid-record reopens
//!    cleanly with exactly the surviving records, reporting the
//!    dropped bytes; a checksum-valid prefix after a mid-file flip
//!    still loads; a damaged magic is hard corruption, not a panic.
//! 4. **Never-persist** — deadline/transport worst-error trials go
//!    through the same search-context insert path as everything else
//!    but are refused by the store (mirroring [`EvalCache::insert`]),
//!    pinned end to end with a [`FaultInjector`]-driven search.

use autofp::core::{
    evaluate_or_worst, run_search_with, Budget, CacheKey, EvalCache, EvalConfig, EvalError,
    Evaluate, Evaluator, FailureKind, FaultConfig, FaultInjector, StoreMeta, Trial, TrialStore,
};
use autofp::core::repo::segment_path;
use autofp::data::{registry, DatasetSpec, SynthConfig};
use autofp::models::classifier::ModelKind;
use autofp::models::CancelToken;
use autofp::preprocess::{ParamSpace, Pipeline};
use autofp::search::{make_searcher, AlgName};
use autofp_bench::{run_matrix, run_matrix_with, CacheMode, HarnessConfig, MatrixOutcome};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh directory under the system temp dir, unique per test within
/// this process (pid + counter; no wall clock — the suite must stay
/// deterministic).
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "afp-trial-store-{}-{}-{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("create temp store dir");
    dir
}

/// The mini matrix from `tests/matrix.rs`, in shared-cache mode (the
/// trial store rides the per-group shared caches) with one worker
/// thread so cache hit/miss splits are deterministic.
fn mini_config() -> (Vec<DatasetSpec>, [ModelKind; 2], [AlgName; 3], HarnessConfig) {
    let mut cfg = HarnessConfig::default();
    cfg.scale = 0.05;
    cfg.budget = Budget::evals(8);
    cfg.max_rows = 160;
    cfg.min_rows = 120;
    cfg.max_len = 3;
    cfg.seed = 11;
    cfg.threads = 1;
    cfg.cache_mode = CacheMode::Shared;
    let specs: Vec<DatasetSpec> = registry().into_iter().take(2).collect();
    (specs, [ModelKind::Lr, ModelKind::Xgb], [AlgName::Rs, AlgName::Pmne, AlgName::Plne], cfg)
}

/// The deterministic byte string of a matrix run (identical to the
/// canonicalization in `tests/matrix.rs`): cell identity, f64 bit
/// patterns, eval counts, winning pipelines, failure tallies. Cache and
/// store counters are excluded — they describe *how* results were
/// obtained, not the results.
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

// ---------------------------------------------------------------------
// Pillar 1: crash-resume.
// ---------------------------------------------------------------------

#[test]
fn resumed_matrix_is_byte_identical_to_an_uninterrupted_cold_run() {
    let (specs, models, algs, mut cfg) = mini_config();

    // Ground truth: the same matrix with no store at all.
    let cold = canonical(&run_matrix(&specs, &models, &algs, &cfg));

    // Populate a store with a full run; with-store results must already
    // match the storeless run (persistence is write-through, invisible).
    let dir = fresh_dir("resume");
    cfg.trial_store = Some(dir.clone());
    let populated = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(canonical(&populated), cold, "write-through must not change results");
    let populated_stats = populated.store.expect("store stats present");
    assert!(populated_stats.appended > 0, "full run persisted nothing");

    // Simulate the crash: tear every segment three bytes into its final
    // record, and delete one segment outright (a context the interrupted
    // run never reached).
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 4, "2 datasets x 2 models = 4 segments");
    for seg in &segments[1..] {
        let len = std::fs::metadata(seg).expect("segment metadata").len();
        assert!(len > 3, "segment too small to tear");
        let f = std::fs::OpenOptions::new().write(true).open(seg).expect("open segment");
        f.set_len(len - 3).expect("tear segment tail");
    }
    std::fs::remove_file(&segments[0]).expect("delete first segment");

    // Resume over the damaged store.
    let resumed = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(
        canonical(&resumed),
        cold,
        "resumed run must be byte-identical to the uninterrupted cold run"
    );
    let stats = resumed.store.expect("store stats present");
    assert!(stats.truncated_bytes > 0, "torn tails must be detected and dropped");
    assert!(stats.preloaded > 0, "surviving trials must warm the caches");
    assert!(stats.appended > 0, "the torn/missing trials must be re-persisted");

    // A second resume finds the store complete again: nothing to append.
    let healed = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(canonical(&healed), cold);
    let healed_stats = healed.store.expect("store stats present");
    assert_eq!(healed_stats.appended, 0, "healed store must already hold every trial");
    assert_eq!(healed_stats.truncated_bytes, 0, "resume already truncated the torn tails");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Pillar 2: warm-start with zero real evaluations.
// ---------------------------------------------------------------------

/// Counts every real (raw) evaluation that reaches the inner evaluator.
struct CountingEvaluator {
    inner: Evaluator,
    raw_evals: Arc<AtomicU64>,
}

impl Evaluate for CountingEvaluator {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        self.raw_evals.fetch_add(1, Ordering::Relaxed);
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
fn warm_start_is_bit_identical_with_zero_real_evaluations() {
    let (specs, models, algs, mut cfg) = mini_config();
    let dir = fresh_dir("warm");
    cfg.trial_store = Some(dir.clone());

    let run = |cfg: &HarnessConfig| {
        let raw_evals = Arc::new(AtomicU64::new(0));
        let counter = raw_evals.clone();
        let outcome = run_matrix_with(&specs, &models, &algs, cfg, move |d, c, prefix| {
            let mut ev = Evaluator::new(d, c);
            if let Some(cache) = prefix {
                ev = ev.with_prefix_cache(cache.clone());
            }
            Box::new(CountingEvaluator { inner: ev, raw_evals: counter.clone() })
        });
        (outcome, raw_evals.load(Ordering::Relaxed))
    };

    let (first, cold_evals) = run(&cfg);
    assert!(cold_evals > 0, "cold run must evaluate for real");

    let (second, warm_evals) = run(&cfg);
    assert_eq!(
        canonical(&second),
        canonical(&first),
        "warm-started matrix must be bit-identical to the cold run"
    );
    assert_eq!(
        warm_evals, 0,
        "a fully populated store must serve every proposal from the preloaded caches"
    );
    let stats = second.store.expect("store stats present");
    assert!(stats.preloaded > 0, "warm run must preload from the store");
    assert_eq!(stats.appended, 0, "warm run has nothing new to persist");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Pillar 3: corrupt tails and damaged files.
// ---------------------------------------------------------------------

#[test]
fn a_torn_tail_reopens_with_exactly_the_surviving_records() {
    let (specs, models, algs, mut cfg) = mini_config();
    let dir = fresh_dir("tail");
    cfg.trial_store = Some(dir.clone());
    run_matrix(&specs, &models[..1], &algs[..1], &cfg);

    let context = cfg.eval_context(&specs[0], models[0]).canonical();
    let seg = segment_path(&dir, &context);
    let intact = TrialStore::open(&seg, &context).expect("open intact segment");
    let before = intact.open_report();
    assert!(before.trials > 1, "need at least two trials to drop one");
    assert_eq!(before.truncated_bytes, 0, "intact segment must open clean");
    drop(intact);

    // Tear three bytes off the end: the final record loses part of its
    // checksum, so exactly one trial must vanish and the rest survive.
    let len = std::fs::metadata(&seg).expect("segment metadata").len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).expect("open segment");
    f.set_len(len - 3).expect("tear tail");
    drop(f);

    let torn = TrialStore::open(&seg, &context).expect("torn tail must still open");
    let after = torn.open_report();
    assert_eq!(after.trials, before.trials - 1, "exactly the torn record is dropped");
    assert!(after.truncated_bytes > 0, "the dropped bytes are reported, not silent");
    drop(torn);

    // Open truncated the file back to its last good record; reopening
    // is clean and stable.
    let reopened = TrialStore::open(&seg, &context).expect("reopen after truncation");
    assert_eq!(reopened.open_report().trials, before.trials - 1);
    assert_eq!(reopened.open_report().truncated_bytes, 0);
    drop(reopened);

    // A mid-file checksum break truncates everything after it (the scan
    // cannot trust bytes beyond a bad frame) but still opens.
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&seg, &bytes).expect("write flipped segment");
    let flipped = TrialStore::open(&seg, &context).expect("mid-file damage must not panic");
    assert!(
        flipped.open_report().trials < before.trials,
        "damage mid-file must drop at least the damaged record"
    );
    drop(flipped);

    // Damaged magic is not a segment at all: a hard error, not a panic
    // and not a silent empty store.
    bytes[0] ^= 0xFF;
    std::fs::write(&seg, &bytes).expect("write bad-magic segment");
    assert!(
        TrialStore::open(&seg, &context).is_err(),
        "a damaged magic must be reported as corruption"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Pillar 4: the never-persist rule, end to end under fault injection.
// ---------------------------------------------------------------------

/// Maps the injector's `TrainerDiverged` faults to transport errors,
/// the way the remote evaluation arm surfaces dead workers and timed-out
/// sockets. The other injected kinds pass through untouched, so one
/// search mixes persistable and never-persist failures.
struct TransportFaults<'a> {
    inner: FaultInjector<'a>,
}

impl Evaluate for TransportFaults<'_> {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        match self.inner.evaluate_raw(pipeline, fraction, cancel) {
            Err(EvalError::TrainerDiverged { detail }) => Err(EvalError::Transport { detail }),
            other => other,
        }
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
fn deadline_and_transport_trials_are_never_persisted() {
    let d = SynthConfig::new("never-persist-ds", 140, 5, 2, 23).generate();
    let ev = Evaluator::new(&d, EvalConfig::default());
    // Every evaluation faults as an error: the injector cycles through
    // NonFinite / Degenerate / TrainerDiverged by pipeline hash, and the
    // wrapper turns the TrainerDiverged third into transport failures.
    let faults = FaultConfig {
        failure_rate: 1.0,
        panic_weight: 0.0,
        error_weight: 1.0,
        delay_weight: 0.0,
        seed: 7,
        ..FaultConfig::default()
    };
    let injected = TransportFaults { inner: FaultInjector::new(&ev, faults) };

    let dir = fresh_dir("never-persist");
    let context = "never-persist-test";
    let cache = EvalCache::new();
    let meta = StoreMeta {
        baseline_accuracy: injected.baseline_accuracy(),
        train_rows: injected.train_rows() as u64,
    };
    cache.attach_segment(&dir, context, meta).expect("attach segment");

    let mut searcher = make_searcher(AlgName::Rs, ParamSpace::default_space(), 3, 4);
    let outcome =
        run_search_with(searcher.as_mut(), &injected, Budget::evals(30), None, Some(&cache));
    assert_eq!(outcome.history.len(), 30);
    let transported = outcome.failures.count(FailureKind::Transport);
    assert!(transported > 0, "the transport-mapped third of the faults never fired");
    assert!(
        outcome.failures.count(FailureKind::NonFinite) > 0
            || outcome.failures.count(FailureKind::Degenerate) > 0,
        "no deterministic failures to contrast against"
    );

    // A deadline worst-error trial through the same insert path: a
    // cancelled evaluation degrades to FailureKind::Deadline.
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let pipeline = Pipeline::empty();
    let deadline_trial = evaluate_or_worst(&injected, &pipeline, 1.0, &cancelled);
    assert_eq!(deadline_trial.failure, Some(FailureKind::Deadline));
    cache.insert(&CacheKey::new(&pipeline, 1.0, injected.config()), &deadline_trial);

    let stats = cache.store().expect("segment attached").stats();
    assert!(stats.skipped > 0, "never-persist refusals must be counted");
    assert!(stats.appended > 0, "deterministic failures are still persisted");

    // What actually reached the disk: deterministic failure trials only.
    let (reopened, persisted) =
        TrialStore::load(segment_path(&dir, context), context).expect("reopen segment");
    assert_eq!(reopened.len() as u64, stats.appended, "disk holds exactly the appended trials");
    assert_eq!(persisted.len(), reopened.len());
    let mut persisted_kinds = std::collections::BTreeSet::new();
    for (_, trial) in persisted {
        let kind = trial.failure.expect("every injected trial failed");
        assert!(
            !matches!(kind, FailureKind::Deadline | FailureKind::Transport),
            "a circumstantial {kind} trial leaked to disk"
        );
        persisted_kinds.insert(kind.name());
    }
    assert!(!persisted_kinds.is_empty(), "deterministic failures must persist");

    let _ = std::fs::remove_dir_all(&dir);
}
