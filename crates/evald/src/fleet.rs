//! Fleet membership and per-worker failure tracking.
//!
//! [`SharedFleetSpec`] is the one copy of fleet membership: the
//! supervisor publishes epoch-stamped membership changes into it, and
//! every [`crate::client::TcpPool`] clone reads it at request time,
//! resynchronizing its connections when the epoch moves. Workers hold
//! no membership of their own. [`CircuitBreaker`] tracks consecutive
//! transport failures per worker slot so the router can stop paying
//! connect timeouts to a dead worker and fail over to the key's
//! rendezvous successor, while still probing the slot periodically to
//! notice recovery.
//!
//! Everything here is deterministic: breaker transitions are a pure
//! function of the observed success/failure sequence, and the fleet
//! spec only moves when a supervisor publishes a strictly describable
//! membership change. No clocks, no RNG.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Consecutive transport failures that open a worker's circuit.
pub const OPEN_AFTER: u32 = 3;

/// While a circuit is open, one request in every `PROBE_EVERY` is let
/// through as a half-open probe so a recovered worker is noticed.
pub const PROBE_EVERY: u32 = 8;

/// An epoch-stamped description of the worker fleet: which addresses
/// hold which slots.
///
/// The slot *index* (position in `addrs`) is a worker's routing
/// identity — rendezvous hashing maps fingerprints to slots, so a
/// respawned worker that comes back on a new port keeps its keyspace.
/// `epoch` increases monotonically on every membership change
/// (a respawn).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetSpec {
    /// Monotonic version of the fleet membership.
    pub epoch: u64,
    /// Worker addresses by slot index.
    pub addrs: Vec<String>,
}

/// A thread-shared, epoch-stamped [`FleetSpec`] plus the supervisor's
/// cumulative respawn counter.
///
/// Cloning shares the underlying cell: the supervisor and any number
/// of backends observe the same membership. Publishes are
/// last-writer-wins guarded by epoch monotonicity, so a slow publisher
/// cannot roll the fleet back.
#[derive(Debug, Clone)]
pub struct SharedFleetSpec {
    spec: Arc<Mutex<FleetSpec>>,
    respawns: Arc<AtomicU64>,
}

impl SharedFleetSpec {
    /// Share `spec` as the initial membership.
    pub fn new(spec: FleetSpec) -> SharedFleetSpec {
        SharedFleetSpec { spec: Arc::new(Mutex::new(spec)), respawns: Arc::new(AtomicU64::new(0)) }
    }

    /// A fixed fleet over `addrs` at epoch 1 (the common case for a
    /// hand-supplied `--remote` address list with no supervisor).
    pub fn fixed(addrs: Vec<String>) -> SharedFleetSpec {
        SharedFleetSpec::new(FleetSpec { epoch: 1, addrs })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FleetSpec> {
        // The spec is replaced wholesale under the lock, never left
        // half-written; recover the guard instead of wedging routing.
        self.spec.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the current spec.
    pub fn snapshot(&self) -> FleetSpec {
        self.lock().clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Adopt `spec` unless it is older than the one held (epochs are
    /// monotonic). Returns the epoch held afterwards.
    pub fn publish(&self, spec: FleetSpec) -> u64 {
        let mut held = self.lock();
        if spec.epoch >= held.epoch {
            *held = spec;
        }
        held.epoch
    }

    /// Record `n` worker respawns (supervisor-side).
    pub fn note_respawns(&self, n: u64) {
        self.respawns.fetch_add(n, Ordering::Relaxed);
    }

    /// Cumulative respawns recorded against this fleet.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }
}

/// Per-worker-slot circuit breaker.
///
/// Closed (the normal state) routes everything. [`OPEN_AFTER`]
/// consecutive transport failures open the circuit; while open, the
/// slot reports unroutable except for one half-open probe every
/// [`PROBE_EVERY`] routing decisions. Any success closes the circuit.
/// State transitions are a pure function of the observed event
/// sequence, so routing stays deterministic for a fixed failure
/// pattern.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    open: bool,
    skips: u32,
}

impl CircuitBreaker {
    /// A closed breaker with no recorded failures.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker::default()
    }

    /// Whether the circuit is currently open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Record a successful exchange: closes the circuit.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open = false;
        self.skips = 0;
    }

    /// Record a transport failure. Returns `true` exactly when this
    /// failure transitioned the circuit from closed to open (callers
    /// count circuit-opens on that edge).
    pub fn record_failure(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if !self.open && self.consecutive_failures >= OPEN_AFTER {
            self.open = true;
            self.skips = 0;
            return true;
        }
        false
    }

    /// Routing decision for this slot. Closed circuits always route;
    /// open circuits route one half-open probe every [`PROBE_EVERY`]
    /// calls and report unroutable otherwise.
    pub fn should_route(&mut self) -> bool {
        if !self.open {
            return true;
        }
        self.skips = self.skips.saturating_add(1);
        if self.skips >= PROBE_EVERY {
            self.skips = 0;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::new();
        assert!(b.should_route());
        // A success in between resets the streak.
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(!b.is_open());
        // The third consecutive failure opens it, exactly once.
        assert!(b.record_failure());
        assert!(b.is_open());
        assert!(!b.record_failure(), "already open: no second open edge");
    }

    #[test]
    fn open_breaker_probes_every_nth_decision_and_closes_on_success() {
        let mut b = CircuitBreaker::new();
        for _ in 0..OPEN_AFTER {
            b.record_failure();
        }
        assert!(b.is_open());
        let decisions: Vec<bool> = (0..2 * PROBE_EVERY).map(|_| b.should_route()).collect();
        let probes = decisions.iter().filter(|&&d| d).count();
        assert_eq!(probes, 2, "one probe per PROBE_EVERY decisions");
        assert!(decisions[PROBE_EVERY as usize - 1]);
        // A successful probe closes the circuit.
        b.record_success();
        assert!(!b.is_open());
        assert!(b.should_route());
    }

    #[test]
    fn shared_spec_publish_is_epoch_monotonic() {
        let fleet = SharedFleetSpec::fixed(vec!["a:1".into(), "b:2".into()]);
        assert_eq!(fleet.epoch(), 1);
        let fixed = FleetSpec { epoch: 1, addrs: vec!["a:1".into(), "b:2".into()] };
        assert_eq!(fleet.snapshot(), fixed);

        let newer = FleetSpec { epoch: 2, addrs: vec!["a:1".into(), "c:3".into()] };
        assert_eq!(fleet.publish(newer.clone()), 2);
        assert_eq!(fleet.snapshot(), newer);

        // Stale publishes are ignored; the held epoch is returned.
        let stale = FleetSpec { epoch: 1, addrs: vec!["z:9".into()] };
        assert_eq!(fleet.publish(stale), 2);
        assert_eq!(fleet.snapshot(), newer);

        // Clones share the cell.
        let view = fleet.clone();
        let e3 = FleetSpec { epoch: 3, addrs: vec!["d:4".into()] };
        fleet.publish(e3.clone());
        assert_eq!(view.snapshot(), e3);
        view.note_respawns(2);
        assert_eq!(fleet.respawns(), 2);
    }
}
