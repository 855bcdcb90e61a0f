//! Fleet membership and per-worker failure tracking.
//!
//! [`SharedFleetSpec`] is the one copy of fleet membership: the
//! address of each worker slot. The slot count is fixed for the
//! fleet's life; the supervisor replaces one slot's address when it
//! respawns that worker on a new port, and every
//! [`crate::client::TcpPool`] clone compares a slot's address at
//! checkout, resetting that slot's connections and breaker when it
//! moved. Workers hold no membership of their own. [`CircuitBreaker`]
//! tracks consecutive transport failures per worker slot so the router
//! can stop paying connect timeouts to a dead worker and fail over to
//! the key's rendezvous successor, while still probing the slot
//! periodically to notice recovery.
//!
//! Everything here is deterministic: breaker transitions are a pure
//! function of the observed success/failure sequence, and a slot's
//! address only moves when a supervisor respawns its worker. No
//! clocks, no RNG.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Consecutive transport failures that open a worker's circuit.
pub const OPEN_AFTER: u32 = 3;

/// While a circuit is open, one request in every `PROBE_EVERY` is let
/// through as a half-open probe so a recovered worker is noticed.
pub const PROBE_EVERY: u32 = 8;

/// Thread-shared fleet membership: worker addresses by slot index, plus
/// the supervisor's cumulative respawn counter.
///
/// The slot *index* is a worker's routing identity — rendezvous hashing
/// maps fingerprints to slots, so a respawned worker that comes back on
/// a new port keeps its keyspace. Cloning shares the underlying cells:
/// the supervisor and any number of backends observe the same
/// membership.
#[derive(Debug, Clone)]
pub struct SharedFleetSpec {
    addrs: Arc<[Mutex<String>]>,
    respawns: Arc<AtomicU64>,
}

impl SharedFleetSpec {
    /// Share `addrs` as the fleet's slots, in slot order.
    pub fn new(addrs: Vec<String>) -> SharedFleetSpec {
        SharedFleetSpec {
            addrs: addrs.into_iter().map(Mutex::new).collect(),
            respawns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of worker slots (fixed for the fleet's life).
    pub fn slots(&self) -> usize {
        self.addrs.len()
    }

    fn slot(&self, slot: usize) -> Option<MutexGuard<'_, String>> {
        let addr = self.addrs.get(slot)?;
        // A slot holds a whole address, never a half-written one;
        // recover the guard instead of wedging routing.
        Some(addr.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current address of `slot`, or `None` past the last slot.
    pub fn addr(&self, slot: usize) -> Option<String> {
        self.slot(slot).as_deref().cloned()
    }

    /// Current addresses in slot order.
    pub fn addrs(&self) -> Vec<String> {
        (0..self.slots()).filter_map(|slot| self.addr(slot)).collect()
    }

    /// Move `slot` to `addr` (a respawn on a new port); a slot past the
    /// last one is ignored.
    pub fn replace(&self, slot: usize, addr: String) {
        if let Some(mut held) = self.slot(slot) {
            *held = addr;
        }
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
    fn clones_see_a_replaced_slot_and_the_shared_respawn_count() {
        let fleet = SharedFleetSpec::new(vec!["a:1".into(), "b:2".into()]);
        let view = fleet.clone();
        assert_eq!(view.slots(), 2);
        assert_eq!(view.addrs(), vec!["a:1", "b:2"]);

        fleet.replace(1, "c:3".into());
        assert_eq!(view.addr(1).as_deref(), Some("c:3"));
        assert_eq!(view.addr(0).as_deref(), Some("a:1"), "other slots keep their address");
        // The slot count is fixed: a slot past the end neither exists
        // nor appears.
        fleet.replace(2, "d:4".into());
        assert_eq!(view.addr(2), None);
        assert_eq!(view.addrs(), vec!["a:1", "c:3"]);

        view.note_respawns(2);
        assert_eq!(fleet.respawns(), 2);
    }
}
