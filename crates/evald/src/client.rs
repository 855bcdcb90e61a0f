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
//! The backend routes over a [`SharedFleetSpec`]: when a supervisor
//! bumps the epoch (a respawn on a new port), every clone of the
//! backend notices at its next request, drops connections to replaced
//! addresses, and resets the affected breakers.
//!
//! [`LoopbackBackend`] runs the same requests against in-process
//! [`WorkerService`]s while still round-tripping every byte through
//! [`crate::wire`] — tests get full protocol coverage without sockets
//! or child processes.

use crate::fleet::{CircuitBreaker, SharedFleetSpec};
use crate::service::WorkerService;
use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, EvalContext, Request, Response,
    WorkerStats,
};
use autofp_core::{EvalError, FleetStats, RemoteBackend, RemoteInfo, Trial};
use autofp_preprocess::Pipeline;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// One worker slot's pooled state: its current address, idle
/// connections to that address, and its circuit breaker.
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

/// Pool state guarded by one mutex: the epoch it was built against
/// plus per-slot connections and breakers. I/O never happens under
/// the lock — streams are checked out, used, and checked back in.
struct PoolState {
    epoch: u64,
    slots: Vec<SlotState>,
}

struct PoolInner {
    fleet: SharedFleetSpec,
    timeout: Duration,
    state: Mutex<PoolState>,
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
        let spec = fleet.snapshot();
        let inner = PoolInner {
            fleet,
            timeout,
            state: Mutex::new(PoolState {
                epoch: spec.epoch,
                slots: spec.addrs.into_iter().map(SlotState::new).collect(),
            }),
            reconnects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            circuit_opens: AtomicU64::new(0),
        };
        TcpPool { inner: Arc::new(inner) }
    }

    /// A pool over a fixed address list (epoch 1, no supervisor).
    pub fn fixed(addrs: Vec<String>, timeout: Duration) -> TcpPool {
        TcpPool::new(SharedFleetSpec::fixed(addrs), timeout)
    }

    /// Bind an evaluation context, yielding a [`RemoteBackend`] that
    /// shares this pool's connections and counters.
    pub fn backend(&self, ctx: EvalContext) -> TcpBackend {
        TcpBackend { ctx, pool: self.clone() }
    }

    /// The fleet spec handle this pool routes over.
    pub fn fleet(&self) -> SharedFleetSpec {
        self.inner.fleet.clone()
    }

    /// Snapshot of the pool's robustness counters plus the fleet's
    /// epoch/size/respawn bookkeeping.
    pub fn fleet_stats(&self) -> FleetStats {
        let spec = self.inner.fleet.snapshot();
        FleetStats {
            epoch: spec.epoch,
            workers: spec.addrs.len() as u64,
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            failovers: self.inner.failovers.load(Ordering::Relaxed),
            circuit_opens: self.inner.circuit_opens.load(Ordering::Relaxed),
            respawns: self.inner.fleet.respawns(),
        }
    }

    /// Lock the pool state, first resynchronizing it with the shared
    /// fleet spec: on an epoch change, slots whose address survived
    /// keep their connections and breaker; replaced slots start fresh
    /// (empty pool, closed breaker).
    fn sync(&self) -> std::sync::MutexGuard<'_, PoolState> {
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let spec = self.inner.fleet.snapshot();
        if spec.epoch != state.epoch {
            let mut old: Vec<SlotState> = state.slots.drain(..).collect();
            state.slots = spec
                .addrs
                .into_iter()
                .enumerate()
                .map(|(i, addr)| {
                    if old.get(i).is_some_and(|s| s.addr == addr) {
                        std::mem::replace(&mut old[i], SlotState::new(String::new()))
                    } else {
                        SlotState::new(addr)
                    }
                })
                .collect();
            state.epoch = spec.epoch;
        }
        state
    }

    fn slot_addr(&self, worker: usize) -> Result<String, EvalError> {
        let state = self.sync();
        state
            .slots
            .get(worker)
            .map(|s| s.addr.clone())
            .ok_or_else(|| transport(format!("no worker {worker}")))
    }

    fn checkout(&self, worker: usize) -> Result<(String, Option<TcpStream>), EvalError> {
        let mut state = self.sync();
        let slot =
            state.slots.get_mut(worker).ok_or_else(|| transport(format!("no worker {worker}")))?;
        Ok((slot.addr.clone(), slot.idle.pop()))
    }

    /// Return a healthy stream to `worker`'s pool — unless the fleet
    /// moved or the pool is full, in which case the stream is dropped.
    fn checkin(&self, worker: usize, addr: &str, stream: TcpStream) {
        let mut state = self.sync();
        if let Some(slot) = state.slots.get_mut(worker) {
            if slot.addr == addr && slot.idle.len() < MAX_IDLE_PER_SLOT {
                slot.idle.push(stream);
            }
        }
    }

    fn record_success(&self, worker: usize) {
        let mut state = self.sync();
        if let Some(slot) = state.slots.get_mut(worker) {
            slot.breaker.record_success();
        }
    }

    fn record_failure(&self, worker: usize) {
        let mut state = self.sync();
        if let Some(slot) = state.slots.get_mut(worker) {
            if slot.breaker.record_failure() {
                self.inner.circuit_opens.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One request to `worker` over a pooled connection.
    ///
    /// A pooled (previously used) connection that fails mid-exchange
    /// is dropped and the exchange retried once on a fresh dial —
    /// requests are pure evaluations, so a resend is safe. Failures on
    /// a fresh connection are final for this exchange and feed the
    /// slot's breaker.
    fn exchange(&self, worker: usize, req: &Request) -> Result<Response, EvalError> {
        let (addr, pooled) = self.checkout(worker)?;
        if let Some(mut stream) = pooled {
            match roundtrip(&mut stream, &addr, req) {
                Ok(resp) => {
                    self.record_success(worker);
                    self.checkin(worker, &addr, stream);
                    return Ok(resp);
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
                self.record_success(worker);
                self.checkin(worker, &addr, stream);
                Ok(resp)
            }
            Err(err) => {
                self.record_failure(worker);
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
        self.pool.sync().slots.len()
    }

    fn evaluate(&self, worker: usize, pipeline: &Pipeline, fraction: f64) -> Result<Trial, EvalError> {
        let req = Request::Eval { ctx: self.ctx.clone(), pipeline: pipeline.clone(), fraction };
        let addr = self.pool.slot_addr(worker)?;
        trial_from(self.pool.exchange(worker, &req)?, &addr)
    }

    fn describe(&self, worker: usize) -> Result<RemoteInfo, EvalError> {
        let addr = self.pool.slot_addr(worker)?;
        info_from(self.pool.exchange(worker, &Request::Describe(self.ctx.clone()))?, &addr)
    }

    fn is_routable(&self, worker: usize) -> bool {
        let mut state = self.pool.sync();
        match state.slots.get_mut(worker) {
            Some(slot) => slot.breaker.should_route(),
            None => false,
        }
    }

    fn note_retry(&self, _worker: usize) {
        self.pool.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_failover(&self, _from: usize, _to: usize) {
        self.pool.inner.failovers.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`RemoteBackend`] over in-process services: every request is still
/// encoded, framed, decoded, handled, re-encoded and re-decoded, so a
/// loopback run exercises the exact byte path of a TCP run.
pub struct LoopbackBackend {
    workers: Vec<Arc<WorkerService>>,
    ctx: EvalContext,
}

impl LoopbackBackend {
    /// A backend sharding over in-process `workers` under `ctx`.
    pub fn new(workers: Vec<Arc<WorkerService>>, ctx: EvalContext) -> LoopbackBackend {
        LoopbackBackend { workers, ctx }
    }

    fn call(&self, worker: usize, req: &Request) -> Result<Response, EvalError> {
        let service = self
            .workers
            .get(worker)
            .ok_or_else(|| transport(format!("no worker {worker}")))?;
        // Full wire round-trip in memory.
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(req))?;
        let mut r = &frame[..];
        let payload =
            read_frame(&mut r)?.ok_or_else(|| transport("loopback produced no frame"))?;
        let resp = service.handle(&crate::wire::decode_request(&payload)?);
        let mut frame = Vec::new();
        write_frame(&mut frame, &crate::wire::encode_response(&resp))?;
        let mut r = &frame[..];
        let payload =
            read_frame(&mut r)?.ok_or_else(|| transport("loopback produced no response"))?;
        decode_response(&payload)
    }
}

impl RemoteBackend for LoopbackBackend {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn evaluate(&self, worker: usize, pipeline: &Pipeline, fraction: f64) -> Result<Trial, EvalError> {
        let req = Request::Eval { ctx: self.ctx.clone(), pipeline: pipeline.clone(), fraction };
        trial_from(self.call(worker, &req)?, "loopback")
    }

    fn describe(&self, worker: usize) -> Result<RemoteInfo, EvalError> {
        info_from(self.call(worker, &Request::Describe(self.ctx.clone()))?, "loopback")
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
    use crate::fleet::{FleetSpec, OPEN_AFTER};
    use crate::server::Server;
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

    #[test]
    fn loopback_matches_local_evaluation_bit_exactly() {
        let backend = LoopbackBackend::new(
            vec![Arc::new(WorkerService::new()), Arc::new(WorkerService::new())],
            ctx(),
        );
        let remote = RemoteEvaluator::new(Box::new(backend), ctx().eval_config());
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
    }

    #[test]
    fn tcp_backend_round_trips_and_reuses_pooled_connections() {
        let server = Server::bind("127.0.0.1:0", Arc::new(WorkerService::new())).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run());

        ping(&addr, Duration::from_secs(5)).expect("ping");
        let pool = TcpPool::fixed(vec![addr.clone()], Duration::from_secs(30));
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
        assert_eq!(fleet.epoch, 1);

        let s = stats(&addr, Duration::from_secs(5)).expect("stats");
        // Describe (baseline probe) built the context; two evals served.
        assert_eq!(s.served, 2);
        assert_eq!(s.contexts, 1);

        shutdown(&addr, Duration::from_secs(5)).expect("shutdown");
        handle.join().expect("server thread").expect("server run");
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
        let pool = TcpPool::fixed(vec![addr.clone()], Duration::from_secs(5));
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
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let pool = TcpPool::fixed(vec![addr], Duration::from_millis(200));
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
    fn epoch_bump_resynchronizes_the_pool() {
        let fleet = SharedFleetSpec::fixed(vec!["127.0.0.1:1".into()]);
        let pool = TcpPool::new(fleet.clone(), Duration::from_millis(200));
        let backend = pool.backend(ctx());
        assert_eq!(backend.workers(), 1);
        assert_eq!(pool.fleet_stats().epoch, 1);
        // Open the dead slot's circuit.
        for _ in 0..OPEN_AFTER {
            assert!(backend.evaluate(0, &Pipeline::empty(), 1.0).is_err());
        }
        assert!(!backend.is_routable(0));
        // A supervisor publishes a new spec: the slot's address
        // changed, so its breaker resets and the fleet grows.
        fleet.publish(FleetSpec {
            epoch: 2,
            addrs: vec!["127.0.0.1:2".into(), "127.0.0.1:3".into()],
        });
        assert_eq!(backend.workers(), 2);
        assert!(backend.is_routable(0), "replaced slot starts with a closed breaker");
        assert_eq!(pool.fleet_stats().epoch, 2);
        assert_eq!(pool.fleet_stats().workers, 2);
    }

    #[test]
    fn dead_address_is_a_transport_error() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let err = ping(&addr, Duration::from_millis(300)).expect_err("dead worker");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        let backend = TcpPool::fixed(vec![addr], Duration::from_millis(300)).backend(ctx());
        let err = backend
            .evaluate(0, &Pipeline::empty(), 1.0)
            .expect_err("dead worker evaluate");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_worker_index_is_a_transport_error() {
        let backend = LoopbackBackend::new(vec![Arc::new(WorkerService::new())], ctx());
        let err = backend.evaluate(5, &Pipeline::empty(), 1.0).expect_err("bad index");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        let tcp = TcpPool::fixed(vec![], Duration::from_millis(100)).backend(ctx());
        let err = tcp.evaluate(0, &Pipeline::empty(), 1.0).expect_err("no slots");
        assert!(matches!(err, EvalError::Transport { .. }), "{err:?}");
        assert!(!tcp.is_routable(0));
    }

    #[test]
    fn server_side_failure_comes_back_as_the_original_error() {
        let bad = EvalContext { dataset: "nope".into(), ..ctx() };
        let backend = LoopbackBackend::new(vec![Arc::new(WorkerService::new())], bad);
        let err = backend.evaluate(0, &Pipeline::empty(), 1.0).expect_err("unknown dataset");
        assert!(
            matches!(err, EvalError::Transport { ref detail } if detail.contains("unknown dataset")),
            "{err:?}"
        );
    }
}
