//! Client-side transports implementing [`autofp_core::RemoteBackend`].
//!
//! [`TcpBackend`] talks to real worker daemons over persistent pooled
//! connections (checked out per request, checked back in on success,
//! transparently re-dialed when a pooled connection has gone stale),
//! with hard timeouts on every socket operation and all I/O failures
//! mapped to [`EvalError::Transport`] so core's retry/failover policy
//! applies. Each worker slot carries a [`CircuitBreaker`]; once a slot
//! has failed [`crate::fleet::OPEN_AFTER`] consecutive exchanges the
//! backend reports it unroutable and `RemoteEvaluator` routes its keys
//! to their rendezvous successors instead of paying connect timeouts.
//!
//! The backend routes over a [`SharedFleetSpec`]. Each slot's pooled
//! state remembers the address its idle connections and breaker belong
//! to: when a supervisor moves a slot to a new address (a respawn on a
//! new port), the next request to that slot drops the old connections
//! and starts a closed breaker, and the outcome of an exchange that
//! began against the old address touches neither.

use crate::fleet::{CircuitBreaker, SharedFleetSpec};
use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, EvalContext, Request, Response,
    WorkerStats,
};
use autofp_core::{EvalError, FleetStats, RemoteBackend, RemoteInfo, Trial};
use autofp_preprocess::Pipeline;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Idle connections kept per worker slot; checkins beyond this are
/// dropped (the pool only needs to cover the harness's thread count).
const MAX_IDLE_PER_SLOT: usize = 8;

fn transport(detail: impl Into<String>) -> EvalError {
    EvalError::Transport { detail: detail.into() }
}

/// Resolve `addr` to a socket address, mapping failures to transport
/// errors.
fn resolve(addr: &str) -> Result<SocketAddr, EvalError> {
    addr.to_socket_addrs()
        .map_err(|e| transport(format!("resolve `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| transport(format!("`{addr}` resolved to no addresses")))
}

fn dial(addr: &str, timeout: Duration) -> Result<TcpStream, EvalError> {
    let sock = resolve(addr)?;
    let stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| transport(format!("connect `{addr}`: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| transport(format!("set timeouts on `{addr}`: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One request/response exchange on an established stream.
fn roundtrip(stream: &mut TcpStream, addr: &str, req: &Request) -> Result<Response, EvalError> {
    write_frame(stream, &encode_request(req))?;
    let payload = read_frame(stream)?
        .ok_or_else(|| transport(format!("`{addr}` closed without answering")))?;
    decode_response(&payload)
}

/// Send one request to `addr` on a fresh connection and wait for the
/// single response frame (the connect-per-request path used by the
/// free helper functions below; the pooled path lives in [`TcpPool`]).
fn call(addr: &str, timeout: Duration, req: &Request) -> Result<Response, EvalError> {
    let mut stream = dial(addr, timeout)?;
    roundtrip(&mut stream, addr, req)
}

fn trial_from(resp: Response, addr: &str) -> Result<Trial, EvalError> {
    match resp {
        Response::Trial(trial) => Ok(trial),
        Response::Error(err) => Err(err),
        other => Err(transport(format!("`{addr}` answered Eval with {other:?}"))),
    }
}

fn info_from(resp: Response, addr: &str) -> Result<RemoteInfo, EvalError> {
    match resp {
        Response::Described { baseline_accuracy, train_rows } => Ok(RemoteInfo {
            baseline_accuracy,
            train_rows: usize::try_from(train_rows).unwrap_or(usize::MAX),
        }),
        Response::Error(err) => Err(err),
        other => Err(transport(format!("`{addr}` answered Describe with {other:?}"))),
    }
}

/// One worker slot's pooled state: the address its idle connections
/// and breaker belong to, those connections, and the breaker.
struct SlotState {
    addr: String,
    idle: Vec<TcpStream>,
    breaker: CircuitBreaker,
}

impl SlotState {
    fn new(addr: String) -> SlotState {
        SlotState { addr, idle: Vec::new(), breaker: CircuitBreaker::new() }
    }
}

struct PoolInner {
    fleet: SharedFleetSpec,
    timeout: Duration,
    /// Per-slot state, one entry per fleet slot. I/O never happens
    /// under this lock: streams are checked out, used, and checked back
    /// in.
    state: Mutex<Vec<SlotState>>,
    reconnects: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    circuit_opens: AtomicU64,
}

/// A shareable pool of persistent worker connections over a
/// [`SharedFleetSpec`].
///
/// Clones share connections, breakers and counters; call
/// [`TcpPool::backend`] to bind an evaluation context and get a
/// [`TcpBackend`] for `RemoteEvaluator`. The bench harness builds one
/// pool per run and one backend per (dataset, model) group, so fleet
/// counters aggregate across the whole matrix.
#[derive(Clone)]
pub struct TcpPool {
    inner: Arc<PoolInner>,
}

impl TcpPool {
    /// A pool routing over `fleet`, with `timeout` applied to connect,
    /// read and write individually.
    pub fn new(fleet: SharedFleetSpec, timeout: Duration) -> TcpPool {
        let inner = PoolInner {
            state: Mutex::new(fleet.addrs().into_iter().map(SlotState::new).collect()),
            fleet,
            timeout,
            reconnects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            circuit_opens: AtomicU64::new(0),
        };
        TcpPool { inner: Arc::new(inner) }
    }

    /// Bind an evaluation context, yielding a [`RemoteBackend`] that
    /// shares this pool's connections and counters.
    pub fn backend(&self, ctx: EvalContext) -> TcpBackend {
        TcpBackend { ctx, pool: self.clone() }
    }

    /// Snapshot of the pool's robustness counters plus the fleet's
    /// size and respawn count.
    pub fn fleet_stats(&self) -> FleetStats {
        FleetStats {
            workers: self.inner.fleet.slots() as u64,
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            failovers: self.inner.failovers.load(Ordering::Relaxed),
            circuit_opens: self.inner.circuit_opens.load(Ordering::Relaxed),
            respawns: self.inner.fleet.respawns(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<SlotState>> {
        // Slot state is only ever replaced whole under the lock; recover
        // the guard instead of wedging routing.
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `worker`'s slot at the fleet's current address for it. A slot
    /// the supervisor moved since starts over, with no idle connections
    /// and a closed breaker: both belonged to the old worker.
    fn current<'a>(&self, slots: &'a mut [SlotState], worker: usize) -> Option<&'a mut SlotState> {
        let addr = self.inner.fleet.addr(worker)?;
        let slot = slots.get_mut(worker)?;
        if slot.addr != addr {
            *slot = SlotState::new(addr);
        }
        Some(slot)
    }

    /// The address to use for one exchange with `worker`, plus an idle
    /// connection to it if the pool holds one.
    fn checkout(&self, worker: usize) -> Result<(String, Option<TcpStream>), EvalError> {
        let mut slots = self.lock();
        match self.current(&mut slots, worker) {
            Some(slot) => Ok((slot.addr.clone(), slot.idle.pop())),
            None => Err(transport(format!("no worker {worker}"))),
        }
    }

    /// Apply `f` to `worker`'s slot while it still belongs to `addr`:
    /// an exchange that began before a respawn must not touch the new
    /// worker's connections or breaker.
    fn with_slot(&self, worker: usize, addr: &str, f: impl FnOnce(&mut SlotState)) {
        let mut slots = self.lock();
        if let Some(slot) = slots.get_mut(worker).filter(|s| s.addr == addr) {
            f(slot);
        }
    }

    /// Return a healthy stream to `worker`'s pool, unless the slot
    /// moved off `addr` or the pool is full; then the stream is dropped.
    fn checkin(&self, worker: usize, addr: &str, stream: TcpStream) {
        self.with_slot(worker, addr, |slot| {
            if slot.idle.len() < MAX_IDLE_PER_SLOT {
                slot.idle.push(stream);
            }
        });
    }

    fn record_success(&self, worker: usize, addr: &str) {
        self.with_slot(worker, addr, |slot| slot.breaker.record_success());
    }

    fn record_failure(&self, worker: usize, addr: &str) {
        self.with_slot(worker, addr, |slot| {
            if slot.breaker.record_failure() {
                self.inner.circuit_opens.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// One request to `worker` over a pooled connection. Returns the
    /// address the exchange used alongside its response.
    ///
    /// A pooled (previously used) connection that fails mid-exchange
    /// is dropped and the exchange retried once on a fresh dial —
    /// requests are pure evaluations, so a resend is safe. Failures on
    /// a fresh connection are final for this exchange and feed the
    /// slot's breaker.
    fn exchange(&self, worker: usize, req: &Request) -> Result<(String, Response), EvalError> {
        let (addr, pooled) = self.checkout(worker)?;
        if let Some(mut stream) = pooled {
            match roundtrip(&mut stream, &addr, req) {
                Ok(resp) => {
                    self.record_success(worker, &addr);
                    self.checkin(worker, &addr, stream);
                    return Ok((addr, resp));
                }
                Err(_) => {
                    // The pooled connection went stale (worker
                    // restarted, idle timeout, half-closed socket).
                    // Re-dial once, transparently.
                    self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let fresh = (|| {
            let mut stream = dial(&addr, self.inner.timeout)?;
            let resp = roundtrip(&mut stream, &addr, req)?;
            Ok((stream, resp))
        })();
        match fresh {
            Ok((stream, resp)) => {
                self.record_success(worker, &addr);
                self.checkin(worker, &addr, stream);
                Ok((addr, resp))
            }
            Err(err) => {
                self.record_failure(worker, &addr);
                Err(err)
            }
        }
    }
}

/// [`RemoteBackend`] over TCP: one worker daemon per fleet slot,
/// persistent pooled connections, per-slot circuit breakers. Built by
/// [`TcpPool::backend`].
pub struct TcpBackend {
    ctx: EvalContext,
    pool: TcpPool,
}

impl RemoteBackend for TcpBackend {
    fn workers(&self) -> usize {
        self.pool.inner.fleet.slots()
    }

    fn evaluate(&self, worker: usize, pipeline: &Pipeline, fraction: f64) -> Result<Trial, EvalError> {
        let req = Request::Eval { ctx: self.ctx.clone(), pipeline: pipeline.clone(), fraction };
        let (addr, resp) = self.pool.exchange(worker, &req)?;
        trial_from(resp, &addr)
    }

    fn describe(&self, worker: usize) -> Result<RemoteInfo, EvalError> {
        let (addr, resp) = self.pool.exchange(worker, &Request::Describe(self.ctx.clone()))?;
        info_from(resp, &addr)
    }

    fn is_routable(&self, worker: usize) -> bool {
        let mut slots = self.pool.lock();
        self.pool.current(&mut slots, worker).is_some_and(|slot| slot.breaker.should_route())
    }

    fn note_retry(&self, _worker: usize) {
        self.pool.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_failover(&self, _from: usize, _to: usize) {
        self.pool.inner.failovers.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ping the worker at `addr`; `Ok` means it answered `Pong` in time.
pub fn ping(addr: &str, timeout: Duration) -> Result<(), EvalError> {
    match call(addr, timeout, &Request::Ping)? {
        Response::Pong => Ok(()),
        other => Err(transport(format!("`{addr}` answered Ping with {other:?}"))),
    }
}

/// Fetch the worker's cumulative [`WorkerStats`].
pub fn stats(addr: &str, timeout: Duration) -> Result<WorkerStats, EvalError> {
    match call(addr, timeout, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(transport(format!("`{addr}` answered Stats with {other:?}"))),
    }
}

/// Ask the worker at `addr` to exit.
pub fn shutdown(addr: &str, timeout: Duration) -> Result<(), EvalError> {
    match call(addr, timeout, &Request::Shutdown)? {
        Response::Pong => Ok(()),
        other => Err(transport(format!("`{addr}` answered Shutdown with {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::OPEN_AFTER;
    use crate::server::Server;
    use crate::service::WorkerService;
    use autofp_core::{Evaluate, Evaluator, RemoteEvaluator};
    use autofp_data::spec_by_name;
    use autofp_models::classifier::ModelKind;
    use autofp_preprocess::PreprocKind;

    fn ctx() -> EvalContext {
        EvalContext {
            dataset: "blood".to_string(),
            scale: 0.2,
            model: ModelKind::Lr,
            train_fraction: 0.8,
            seed: 3,
            train_subsample: None,
        }
    }

    fn local_evaluator() -> Evaluator {
        let spec = spec_by_name("blood").expect("blood in registry");
        Evaluator::new(&spec.generate(0.2), ctx().eval_config())
    }

    /// A pool over a fixed address list, as `--remote` builds one.
    fn pool(addrs: &[&str], timeout: Duration) -> TcpPool {
        TcpPool::new(SharedFleetSpec::new(addrs.iter().map(|a| a.to_string()).collect()), timeout)
    }

    /// A worker [`Server`] on a localhost port, running on its own
    /// thread until [`stop`] sends it `Shutdown`.
    fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::bind("127.0.0.1:0", Arc::new(WorkerService::new())).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        (addr, std::thread::spawn(move || server.run()))
    }

    fn stop(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
        shutdown(addr, Duration::from_secs(5)).expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }

    /// An address with no listener: bind, read the port, drop.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    }

    #[test]
    fn loopback_matches_local_evaluation_bit_exactly() {
        let (a0, h0) = start_server();
        let (a1, h1) = start_server();
        let pool = pool(&[&a0, &a1], Duration::from_secs(30));
        let remote = RemoteEvaluator::new(Box::new(pool.backend(ctx())), ctx().eval_config());
        let local = local_evaluator();
        assert_eq!(remote.baseline_accuracy().to_bits(), local.baseline_accuracy().to_bits());
        assert_eq!(remote.train_rows(), local.train_rows());
        for kinds in [
            vec![],
            vec![PreprocKind::StandardScaler],
            vec![PreprocKind::MinMaxScaler, PreprocKind::PowerTransformer],
            vec![PreprocKind::Normalizer, PreprocKind::QuantileTransformer],
        ] {
            let p = Pipeline::from_kinds(&kinds);
            let r = remote.try_evaluate(&p).expect("remote evaluates");
            let l = local.evaluate(&p);
            assert_eq!(r.accuracy.to_bits(), l.accuracy.to_bits(), "{p}");
            assert_eq!(r.error.to_bits(), l.error.to_bits(), "{p}");
            assert_eq!(r.failure, l.failure, "{p}");
        }
        stop(&a0, h0);
        stop(&a1, h1);
    }

    #[test]
    fn tcp_backend_round_trips_and_reuses_pooled_connections() {
        let (addr, handle) = start_server();
        ping(&addr, Duration::from_secs(5)).expect("ping");
        let pool = pool(&[&addr], Duration::from_secs(30));
        let remote = RemoteEvaluator::new(Box::new(pool.backend(ctx())), ctx().eval_config());
        let local = local_evaluator();
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let r = remote.try_evaluate(&p).expect("remote evaluates");
        assert_eq!(r.accuracy.to_bits(), local.evaluate(&p).accuracy.to_bits());
        // A second request reuses the pooled connection without any
        // reconnect being recorded.
        let p2 = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let _ = remote.try_evaluate(&p2).expect("remote evaluates again");
        let fleet = pool.fleet_stats();
        assert_eq!(fleet.reconnects, 0);
        assert_eq!(fleet.workers, 1);

        let s = stats(&addr, Duration::from_secs(5)).expect("stats");
        // Describe (baseline probe) built the context; two evals served.
        assert_eq!(s.served, 2);
        assert_eq!(s.contexts, 1);
        stop(&addr, handle);
    }

    /// A minimal TCP server that answers exactly one request per
    /// connection, then closes it — which makes every pooled
    /// connection stale on its second use.
    fn one_shot_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let svc = WorkerService::new();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let Ok(Some(payload)) = read_frame(&mut stream) else { return };
                let Ok(req) = crate::wire::decode_request(&payload) else { return };
                if matches!(req, Request::Shutdown) {
                    let _ = write_frame(&mut stream, &crate::wire::encode_response(&Response::Pong));
                    return;
                }
                let resp = svc.handle(&req);
                let _ = write_frame(&mut stream, &crate::wire::encode_response(&resp));
                // Connection dropped here: one request per connection.
            }
        });
        (addr, handle)
    }

    #[test]
    fn stale_pooled_connection_reconnects_transparently() {
        let (addr, handle) = one_shot_server();
        let pool = pool(&[&addr], Duration::from_secs(5));
        let backend = pool.backend(ctx());
        let p = Pipeline::empty();
        // First evaluate dials fresh; the server closes after
        // answering, so the checked-in connection is stale.
        backend.evaluate(0, &p, 1.0).expect("first evaluate");
        // Second evaluate finds the stale connection, re-dials, and
        // still succeeds — counted as exactly one reconnect.
        backend.evaluate(0, &p, 1.0).expect("second evaluate (reconnected)");
        assert_eq!(pool.fleet_stats().reconnects, 1);
        assert_eq!(pool.fleet_stats().circuit_opens, 0);
        shutdown(&addr, Duration::from_secs(5)).expect("stop one-shot server");
        handle.join().expect("server thread");
    }

    #[test]
    fn dead_worker_opens_its_circuit_and_reports_unroutable() {
        let pool = pool(&[&dead_addr()], Duration::from_millis(200));
        let backend = pool.backend(ctx());
        let p = Pipeline::empty();
        for _ in 0..OPEN_AFTER {
            assert!(backend.evaluate(0, &p, 1.0).is_err());
        }
        let stats = pool.fleet_stats();
        assert_eq!(stats.circuit_opens, 1, "one closed->open edge");
        assert!(!backend.is_routable(0), "open circuit reports unroutable");
    }

    #[test]
    fn replacing_a_slot_address_resets_only_that_slot() {
        let (live, handle) = start_server();
        let fleet = SharedFleetSpec::new(vec![live.clone(), dead_addr()]);
        let pool = TcpPool::new(fleet.clone(), Duration::from_millis(500));
        let backend = pool.backend(ctx());
        // Slot 0 pools one idle connection to its live worker, then its
        // breaker is opened; slot 1's dead worker opens its own.
        backend.describe(0).expect("live worker answers");
        assert_eq!(pool.lock()[0].idle.len(), 1);
        for _ in 0..OPEN_AFTER {
            pool.record_failure(0, &live);
            assert!(backend.evaluate(1, &Pipeline::empty(), 1.0).is_err());
        }
        assert!(!backend.is_routable(0));
        assert!(!backend.is_routable(1));

        // A respawn moves slot 0: its breaker and idle connections
        // belonged to the old worker, so both start over.
        fleet.replace(0, "127.0.0.1:1".into());
        assert!(backend.is_routable(0), "the moved slot starts with a closed breaker");
        let (addr, idle) = pool.checkout(0).expect("slot 0");
        assert_eq!(addr, "127.0.0.1:1");
        assert!(idle.is_none(), "no connection to the old worker is handed out");
        assert!(!backend.is_routable(1), "slot 1 kept its open breaker");
        assert_eq!(backend.workers(), 2);
        assert_eq!(pool.fleet_stats().workers, 2);
        stop(&live, handle);
    }

    #[test]
    fn failures_against_a_replaced_address_spare_the_new_worker() {
        let fleet = SharedFleetSpec::new(vec!["127.0.0.1:1".into()]);
        let pool = TcpPool::new(fleet.clone(), Duration::from_millis(200));
        // An exchange checks out the dying worker's address, the
        // supervisor respawns the slot, and a request to the new worker
        // resets the slot before the old exchange reports its failure.
        let (old, _) = pool.checkout(0).expect("slot 0");
        fleet.replace(0, "127.0.0.1:2".into());
        let (new, _) = pool.checkout(0).expect("slot 0");
        assert_ne!(old, new);
        for _ in 0..OPEN_AFTER {
            pool.record_failure(0, &old);
        }
        assert!(pool.backend(ctx()).is_routable(0), "the new worker's circuit stays closed");
        assert_eq!(pool.fleet_stats().circuit_opens, 0);
    }

    #[test]
    fn dead_address_is_a_transport_error() {
        let addr = dead_addr();
        let err = ping(&addr, Duration::from_millis(300)).expect_err("dead worker");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        let backend = pool(&[&addr], Duration::from_millis(300)).backend(ctx());
        let err = backend
            .evaluate(0, &Pipeline::empty(), 1.0)
            .expect_err("dead worker evaluate");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_worker_index_is_a_transport_error() {
        let (addr, handle) = start_server();
        let backend = pool(&[&addr], Duration::from_secs(5)).backend(ctx());
        let err = backend.evaluate(5, &Pipeline::empty(), 1.0).expect_err("bad index");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        let tcp = pool(&[], Duration::from_millis(100)).backend(ctx());
        let err = tcp.evaluate(0, &Pipeline::empty(), 1.0).expect_err("no slots");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        assert!(!tcp.is_routable(0));
        stop(&addr, handle);
    }

    #[test]
    fn server_side_failure_comes_back_as_the_original_error() {
        let (addr, handle) = start_server();
        let bad = EvalContext { dataset: "nope".into(), ..ctx() };
        let backend = pool(&[&addr], Duration::from_secs(5)).backend(bad);
        let err = backend.evaluate(0, &Pipeline::empty(), 1.0).expect_err("unknown dataset");
        assert!(
            matches!(err, EvalError::Transport { ref detail } if detail.contains("unknown dataset")),
            "{err:?}"
        );
        stop(&addr, handle);
    }
}
