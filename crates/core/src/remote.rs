//! Sharded remote evaluation: the client half of the evaluation
//! service (the server half lives in the `autofp-evald` crate).
//!
//! [`RemoteEvaluator`] implements [`Evaluate`] over a fleet of worker
//! processes reached through a [`RemoteBackend`]. Each request is
//! routed by rendezvous (highest-random-weight) hashing over
//! `CacheKey::fingerprint` — the same stable FNV-1a fingerprint the
//! [`crate::EvalCache`] keys on. Every `(fingerprint, slot)` pair gets
//! a mixed 64-bit weight and the request goes to the live slot with the
//! highest weight, so one pipeline always lands on one worker and that
//! worker's process-local cache converges to the shard of the
//! evaluation space it owns. Unlike `fingerprint % N`, taking a slot
//! out of the order moves only that slot's keys (each to its next
//! weight), so the other workers' warm caches survive a failover.
//!
//! # Failover and failure conversion
//!
//! When a worker is unreachable the request walks down the key's
//! rendezvous preference order ([`shard_order`]) to the next routable
//! worker. Workers regenerate their datasets deterministically from the
//! evaluation context, so *any* worker returns bit-identical trials —
//! failover changes which process answers, never the answer. Per-worker
//! transport faults are retried with bounded exponential backoff (3
//! tries per worker, 10 ms that doubles) before moving on; only when
//! every worker in the fleet has been exhausted does the error surface
//! as [`EvalError::Transport`], which the search framework converts
//! into the established worst-error-trial convention (accuracy 0,
//! error 1, tagged [`crate::FailureKind::Transport`]).
//! Searches therefore run their budgets to completion deterministically
//! even with workers down: routing is a pure function of
//! `(fingerprint, live-worker-set)`, so the same requests are served
//! the same way on every rerun. Transport failures are never cached
//! (see [`crate::EvalCache::insert`]) — a worker coming back must not
//! be masked by a memoized worst-error trial.
//!
//! Backends may additionally feed routing and counters through the
//! defaulted trait hooks ([`RemoteBackend::is_routable`] lets a circuit
//! breaker route around a repeatedly failing worker without paying a
//! dial; `note_retry` / `note_failover` observe the evaluator's
//! decisions for [`FleetStats`]). The hooks default to no-ops so simple
//! backends stay simple.
//!
//! This module is transport-agnostic by design: `autofp-evald` provides
//! the TCP and in-process loopback backends, keeping `autofp-core` free
//! of any wire-format knowledge (and of a dependency cycle).

use crate::cache::CacheKey;
use crate::error::EvalError;
use crate::evaluator::{EvalConfig, Evaluate};
use crate::history::Trial;
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::time::Duration;

/// Robustness counters a [`RemoteBackend`] accumulates over its life.
///
/// All counters are cumulative since backend construction; `epoch` and
/// `workers` describe the fleet spec the backend currently routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Fleet-spec epoch the backend last synchronized with.
    pub epoch: u64,
    /// Number of worker slots in the current fleet spec.
    pub workers: u64,
    /// Pooled connections that died and were transparently re-dialed.
    pub reconnects: u64,
    /// Same-worker transport retries (bounded backoff) performed.
    pub retries: u64,
    /// Requests served by a rendezvous successor instead of the
    /// primary owner of the key.
    pub failovers: u64,
    /// Circuit-breaker transitions from closed to open.
    pub circuit_opens: u64,
    /// Dead workers respawned by the fleet supervisor.
    pub respawns: u64,
}

/// What a worker reports about the evaluation context it serves:
/// the dataset/model facts an [`Evaluate`] implementation must answer
/// locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteInfo {
    /// Validation accuracy with no preprocessing (the no-FP baseline).
    pub baseline_accuracy: f64,
    /// Number of training rows the worker's evaluator fits on.
    pub train_rows: usize,
}

/// Transport abstraction the [`RemoteEvaluator`] shards over.
///
/// A backend owns the addressing and wire concerns for `workers()`
/// interchangeable workers; the evaluator only decides *which* worker
/// index handles a request. Implementations map every transport-layer
/// fault to [`EvalError::Transport`] (the only retryable kind) and
/// must be deterministic for a fixed fleet state: the same request to
/// the same live worker returns the same trial bits.
///
/// The defaulted methods let richer backends (connection pools,
/// circuit breakers, supervised fleets) feed routing decisions and
/// robustness counters back to the evaluator without burdening simple
/// backends.
pub trait RemoteBackend: Send + Sync {
    /// Number of worker slots in the fleet spec being routed over.
    fn workers(&self) -> usize;

    /// Evaluate `pipeline` at training-budget `fraction` on `worker`.
    fn evaluate(&self, worker: usize, pipeline: &Pipeline, fraction: f64)
        -> Result<Trial, EvalError>;

    /// Ask `worker` for the context facts (baseline, train rows).
    fn describe(&self, worker: usize) -> Result<RemoteInfo, EvalError>;

    /// Whether `worker` should be attempted right now. A circuit
    /// breaker returns `false` while a worker's circuit is open (with
    /// periodic half-open probes); the evaluator then routes the
    /// request to the key's rendezvous successor instead.
    fn is_routable(&self, _worker: usize) -> bool {
        true
    }

    /// Observe a same-worker transport retry (for counters).
    fn note_retry(&self, _worker: usize) {}

    /// Observe a failover from `from` (the key's primary owner) to
    /// `to` (a rendezvous successor) — for counters.
    fn note_failover(&self, _from: usize, _to: usize) {}
}

/// Attempts per worker per request, first try included. Only
/// [`EvalError::Transport`] is retried — every other failure kind is a
/// deterministic property of the pipeline and retrying it would just
/// repeat the failure. After exhausting one worker the evaluator fails
/// over to the key's rendezvous successor.
const ATTEMPTS: u32 = 3;

/// Sleep before the first same-worker retry; doubles after each
/// further retry.
const BACKOFF: Duration = Duration::from_millis(10);

/// An [`Evaluate`] implementation that forwards every request to a
/// sharded fleet of remote workers.
///
/// Construction never fails: if no worker answers `describe`, the
/// baseline falls back to `0.0` / `0` rows and every evaluation will
/// surface as a worst-error transport trial — the search still runs
/// its budget to completion.
pub struct RemoteEvaluator {
    backend: Box<dyn RemoteBackend>,
    config: EvalConfig,
    info: RemoteInfo,
}

impl RemoteEvaluator {
    /// Build over `backend`.
    ///
    /// `describe` is asked of each worker in index order until one
    /// answers; a fully dead fleet degrades to a zero baseline rather
    /// than failing construction.
    pub fn new(backend: Box<dyn RemoteBackend>, config: EvalConfig) -> RemoteEvaluator {
        let mut info = RemoteInfo { baseline_accuracy: 0.0, train_rows: 0 };
        for worker in 0..backend.workers() {
            if let Ok(described) = backend.describe(worker) {
                info = described;
                break;
            }
        }
        RemoteEvaluator { backend, config, info }
    }

    /// Attempt one worker with the bounded per-worker retry policy.
    fn try_worker(
        &self,
        worker: usize,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let mut delay = BACKOFF;
        let mut last = EvalError::Transport { detail: "no attempt made".to_string() };
        for attempt in 0..ATTEMPTS {
            if cancel.is_cancelled() {
                return Err(EvalError::DeadlineExceeded);
            }
            match self.backend.evaluate(worker, pipeline, fraction) {
                Ok(trial) => return Ok(trial),
                Err(err @ EvalError::Transport { .. }) => {
                    last = err;
                    if attempt + 1 < ATTEMPTS {
                        self.backend.note_retry(worker);
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2);
                    }
                }
                // Every other kind is a deterministic verdict about the
                // pipeline; pass it through untouched.
                Err(err) => return Err(err),
            }
        }
        Err(last)
    }
}

/// splitmix64-style finalizer: the bit mixer behind rendezvous
/// weights and the evald supervisor's respawn jitter. Stable — changing
/// it remaps every key on every fleet.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rendezvous weight of worker slot `slot` for `fingerprint`. The
/// request prefers slots in descending weight order. Pure and stable:
/// the weight of a `(fingerprint, slot)` pair never changes, which is
/// what keeps a key's owner fixed while other slots come and go.
pub fn shard_weight(fingerprint: u64, slot: usize) -> u64 {
    mix64(fingerprint ^ mix64(slot as u64))
}

/// Pure shard routing: the slot with the highest rendezvous weight
/// for `fingerprint` (worker 0 for an empty fleet, so callers need no
/// special case).
///
/// Growing the fleet from `N` to `N+1` slots moves a key only if the
/// new slot out-weighs all existing ones — an expected `1/(N+1)` of
/// keys — and every moved key lands on the new slot; shrinking only
/// redistributes the removed slot's keys.
pub fn shard(fingerprint: u64, workers: usize) -> usize {
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for slot in 0..workers {
        let weight = shard_weight(fingerprint, slot);
        if slot == 0 || weight > best_weight {
            best = slot;
            best_weight = weight;
        }
    }
    best
}

/// All worker slots in descending rendezvous-weight order for
/// `fingerprint`: the key's failover preference list. `shard` is the
/// head; ties (vanishingly rare with 64-bit weights) break toward the
/// lower slot index so the order is total and deterministic.
pub fn shard_order(fingerprint: u64, workers: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..workers).collect();
    slots.sort_by_key(|&slot| (std::cmp::Reverse(shard_weight(fingerprint, slot)), slot));
    slots
}

impl Evaluate for RemoteEvaluator {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let key = CacheKey::new(pipeline, fraction, &self.config);
        let order = shard_order(key.fingerprint(), self.backend.workers());
        let primary = match order.first() {
            Some(&p) => p,
            None => return Err(EvalError::Transport { detail: "empty fleet".to_string() }),
        };
        let mut last = EvalError::Transport { detail: "no attempt made".to_string() };
        let mut attempted_any = false;
        for &worker in &order {
            if cancel.is_cancelled() {
                return Err(EvalError::DeadlineExceeded);
            }
            if !self.backend.is_routable(worker) {
                continue;
            }
            if worker != primary {
                self.backend.note_failover(primary, worker);
            }
            attempted_any = true;
            match self.try_worker(worker, pipeline, fraction, cancel) {
                Ok(trial) => return Ok(trial),
                Err(err @ EvalError::Transport { .. }) => last = err,
                Err(err) => return Err(err),
            }
        }
        if !attempted_any {
            // Every circuit is open. Forcing the primary is the only
            // way to learn whether the fleet recovered — and keeps the
            // worst case deterministic (same worker on every rerun).
            match self.try_worker(primary, pipeline, fraction, cancel) {
                Ok(trial) => return Ok(trial),
                Err(err @ EvalError::Transport { .. }) => last = err,
                Err(err) => return Err(err),
            }
        }
        Err(last)
    }

    fn config(&self) -> &EvalConfig {
        &self.config
    }

    fn baseline_accuracy(&self) -> f64 {
        self.info.baseline_accuracy
    }

    fn train_rows(&self) -> usize {
        self.info.train_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;
    use crate::evaluator::evaluate_or_worst;
    use autofp_preprocess::PreprocKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Rendezvous weights decide which worker owns every key, so they
    /// are part of the fleet's wire-visible behaviour: a silent change
    /// to the mixer would re-shard every pipeline. These constants were
    /// computed once; if this test fails, the weight function changed.
    #[test]
    fn golden_shard_weights_are_locked() {
        let cases: [(u64, usize, u64); 6] = [
            (0, 0, 0xa706dd2f4d197e6f),
            (0, 7, 0xb8b4c2977eabce45),
            (0xca6dfeff7dbeff12, 0, 0x08de8b1eb9b02e3c),
            (0xca6dfeff7dbeff12, 1, 0xdca30429b5b3aa2f),
            (0xceb94a6360fd8b3e, 1, 0x3771529b0f021f74),
            (u64::MAX, 7, 0xa9a96b699dc41760),
        ];
        for (fingerprint, slot, expected) in cases {
            assert_eq!(shard_weight(fingerprint, slot), expected, "{fingerprint:#x} @ slot {slot}");
        }
    }

    /// A backend that answers from a table and records which worker
    /// each request hit.
    struct MockBackend {
        workers: usize,
        dead: Vec<usize>,
        unroutable: Vec<usize>,
        calls: Mutex<Vec<usize>>,
        attempts: AtomicU64,
        retries: AtomicU64,
        failovers: AtomicU64,
    }

    impl MockBackend {
        fn new(workers: usize, dead: Vec<usize>) -> MockBackend {
            MockBackend {
                workers,
                dead,
                unroutable: Vec::new(),
                calls: Mutex::new(Vec::new()),
                attempts: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            }
        }

        fn unroutable(mut self, slots: Vec<usize>) -> MockBackend {
            self.unroutable = slots;
            self
        }
    }

    impl RemoteBackend for MockBackend {
        fn workers(&self) -> usize {
            self.workers
        }

        fn evaluate(
            &self,
            worker: usize,
            pipeline: &Pipeline,
            fraction: f64,
        ) -> Result<Trial, EvalError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            self.calls.lock().unwrap().push(worker);
            if self.dead.contains(&worker) {
                return Err(EvalError::Transport { detail: format!("worker {worker} is down") });
            }
            Ok(Trial {
                pipeline: pipeline.clone(),
                accuracy: 0.5 + worker as f64 / 100.0,
                error: 0.5 - worker as f64 / 100.0,
                prep_time: Duration::ZERO,
                train_time: Duration::ZERO,
                train_fraction: fraction,
                failure: None,
            })
        }

        fn describe(&self, worker: usize) -> Result<RemoteInfo, EvalError> {
            if self.dead.contains(&worker) {
                return Err(EvalError::Transport { detail: format!("worker {worker} is down") });
            }
            Ok(RemoteInfo { baseline_accuracy: 0.61, train_rows: 80 + worker })
        }

        fn is_routable(&self, worker: usize) -> bool {
            !self.unroutable.contains(&worker)
        }

        fn note_retry(&self, _worker: usize) {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }

        fn note_failover(&self, _from: usize, _to: usize) {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn routing_is_rendezvous_over_fingerprint() {
        let ev = RemoteEvaluator::new(Box::new(MockBackend::new(4, vec![])), EvalConfig::default());
        for kind in PreprocKind::ALL {
            let p = Pipeline::from_kinds(&[kind]);
            let key = CacheKey::new(&p, 1.0, &EvalConfig::default());
            let expect_shard = shard(key.fingerprint(), 4);
            assert_eq!(shard_order(key.fingerprint(), 4)[0], expect_shard);
            // And the trial actually comes from that worker.
            let t = ev.try_evaluate(&p).expect("live worker");
            let expect = 0.5 + expect_shard as f64 / 100.0;
            assert_eq!(t.accuracy.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn shard_order_is_a_permutation_headed_by_shard() {
        for fp in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            for n in 1..6usize {
                let order = shard_order(fp, n);
                assert_eq!(order.len(), n);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "must be a permutation");
                assert_eq!(order[0], shard(fp, n));
            }
        }
    }

    #[test]
    fn resize_remaps_about_one_over_n_and_only_onto_the_new_slot() {
        // Rendezvous property: growing N -> N+1 moves a key iff the
        // new slot out-weighs all old ones (expected 1/(N+1) of keys),
        // and every moved key lands on the new slot.
        let total = 10_000u64;
        for (from, to) in [(2usize, 3usize), (4, 5)] {
            let mut moved = 0u64;
            for fp in 0..total {
                let old = shard(fp, from);
                let new = shard(fp, to);
                if old != new {
                    moved += 1;
                    assert_eq!(new, to - 1, "moved keys must land on the new slot");
                }
            }
            let frac = moved as f64 / total as f64;
            let expect = 1.0 / to as f64;
            assert!(
                (frac - expect).abs() < 0.05,
                "resize {from}->{to} remapped {frac:.3} of keys, expected ~{expect:.3}"
            );
        }
        // The modulo scheme this replaces remaps ~all keys; make sure
        // we are far away from that regime.
        let moved_2_to_3 = (0..total).filter(|&fp| shard(fp, 2) != shard(fp, 3)).count();
        assert!((moved_2_to_3 as f64 / total as f64) < 0.5);
    }

    #[test]
    fn describe_falls_back_across_workers_and_dead_fleet_degrades() {
        let backend = Box::new(MockBackend::new(3, vec![0, 1]));
        let ev = RemoteEvaluator::new(backend, EvalConfig::default());
        // Worker 2 answered describe.
        assert_eq!(ev.baseline_accuracy(), 0.61);
        assert_eq!(ev.train_rows(), 82);

        let backend = Box::new(MockBackend::new(2, vec![0, 1]));
        let dead = RemoteEvaluator::new(backend, EvalConfig::default());
        assert_eq!(dead.baseline_accuracy(), 0.0);
        assert_eq!(dead.train_rows(), 0);
    }

    #[test]
    fn dead_primary_fails_over_to_rendezvous_successor() {
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let key = CacheKey::new(&p, 1.0, &EvalConfig::default());
        let order = shard_order(key.fingerprint(), 3);
        let backend = Box::new(MockBackend::new(3, vec![order[0]]));
        let ev = RemoteEvaluator::new(backend, EvalConfig::default());
        let t = ev.try_evaluate(&p).expect("successor serves the request");
        let expect = 0.5 + order[1] as f64 / 100.0;
        assert_eq!(t.accuracy.to_bits(), expect.to_bits());
        assert_eq!(t.failure, None, "failover must not surface a worst-error trial");
    }

    #[test]
    fn open_circuit_primary_is_skipped_without_an_attempt() {
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let key = CacheKey::new(&p, 1.0, &EvalConfig::default());
        let order = shard_order(key.fingerprint(), 3);
        let backend = MockBackend::new(3, vec![]).unroutable(vec![order[0]]);
        let ev = RemoteEvaluator::new(Box::new(backend), EvalConfig::default());
        let t = ev.try_evaluate(&p).expect("successor serves the request");
        let expect = 0.5 + order[1] as f64 / 100.0;
        assert_eq!(t.accuracy.to_bits(), expect.to_bits());
    }

    #[test]
    fn all_circuits_open_forces_the_primary() {
        let p = Pipeline::from_kinds(&[PreprocKind::Normalizer]);
        let key = CacheKey::new(&p, 1.0, &EvalConfig::default());
        let primary = shard(key.fingerprint(), 2);
        let backend = MockBackend::new(2, vec![]).unroutable(vec![0, 1]);
        let ev = RemoteEvaluator::new(Box::new(backend), EvalConfig::default());
        let t = ev.try_evaluate(&p).expect("forced primary probe succeeds");
        let expect = 0.5 + primary as f64 / 100.0;
        assert_eq!(t.accuracy.to_bits(), expect.to_bits());
    }

    #[test]
    fn transport_faults_exhaust_the_fleet_then_surface_as_worst_error() {
        let backend = Box::new(MockBackend::new(1, vec![0]));
        let ev = RemoteEvaluator::new(backend, EvalConfig::default());
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let err = ev.try_evaluate(&p).unwrap_err();
        assert!(matches!(err, EvalError::Transport { .. }));
        let t = evaluate_or_worst(&ev, &p, 1.0, &CancelToken::new());
        assert_eq!(t.error, 1.0);
        assert_eq!(t.failure, Some(FailureKind::Transport));

        // With the whole fleet dead every worker is tried (attempts x
        // workers calls), then the transport error surfaces.
        let dead = MockBackend::new(2, vec![0, 1]);
        let ev = RemoteEvaluator::new(Box::new(dead), EvalConfig::default());
        assert!(matches!(ev.try_evaluate(&p).unwrap_err(), EvalError::Transport { .. }));
    }

    #[test]
    fn retries_are_bounded_and_only_for_transport() {
        /// One worker that fails every request with `err`, counting
        /// attempts and noted retries.
        struct Failing {
            err: EvalError,
            calls: Arc<AtomicU64>,
            retries: Arc<AtomicU64>,
        }
        impl RemoteBackend for Failing {
            fn workers(&self) -> usize {
                1
            }
            fn evaluate(&self, _: usize, _: &Pipeline, _: f64) -> Result<Trial, EvalError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Err(self.err.clone())
            }
            fn describe(&self, _: usize) -> Result<RemoteInfo, EvalError> {
                Ok(RemoteInfo { baseline_accuracy: 0.5, train_rows: 1 })
            }
            fn note_retry(&self, _: usize) {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        let run = |err: EvalError| {
            let (calls, retries) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let backend = Failing { err, calls: Arc::clone(&calls), retries: Arc::clone(&retries) };
            let ev = RemoteEvaluator::new(Box::new(backend), EvalConfig::default());
            let err = ev.try_evaluate(&Pipeline::empty()).unwrap_err();
            (err, calls.load(Ordering::Relaxed), retries.load(Ordering::Relaxed))
        };
        // Non-transport errors pass through on the first attempt.
        let (err, calls, retries) = run(EvalError::TrainerDiverged { detail: "nan".into() });
        assert!(matches!(err, EvalError::TrainerDiverged { .. }));
        assert_eq!((calls, retries), (1, 0), "non-transport errors must not retry");

        // Transport errors are tried exactly `ATTEMPTS` times per worker
        // and note each retry through the backend hook.
        let (err, calls, retries) = run(EvalError::Transport { detail: "down".into() });
        assert!(matches!(err, EvalError::Transport { .. }));
        assert_eq!(calls, u64::from(ATTEMPTS));
        assert_eq!(retries, u64::from(ATTEMPTS - 1));
    }

    #[test]
    fn cancelled_token_short_circuits_to_deadline() {
        let ev = RemoteEvaluator::new(Box::new(MockBackend::new(1, vec![])), EvalConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = ev.try_evaluate_cancellable(&Pipeline::empty(), 1.0, &cancel).unwrap_err();
        assert_eq!(err, EvalError::DeadlineExceeded);
    }

    #[test]
    fn shard_handles_empty_fleet() {
        assert_eq!(shard(12345, 0), 0);
        assert_eq!(shard(12345, 1), 0);
        assert!(shard_order(12345, 0).is_empty());
        let ev = RemoteEvaluator::new(Box::new(MockBackend::new(0, vec![])), EvalConfig::default());
        let err = ev.try_evaluate(&Pipeline::empty()).unwrap_err();
        assert!(matches!(err, EvalError::Transport { .. }));
    }
}
