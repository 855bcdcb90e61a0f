//! Spawning and supervising local worker processes.
//!
//! The bench harness's `--workers N` flag and the distributed test
//! suite both need real `evald serve` child processes: spawn the
//! binary, read the `evald listening on <addr>` line it prints once
//! bound, and keep the [`std::process::Child`] so the worker dies with
//! its supervisor instead of leaking daemons. Dropping a [`Worker`] or
//! [`WorkerFleet`] shuts the children down (best-effort graceful
//! `Shutdown` frame, then SIGKILL + reap), so aborted tests and
//! panicking benches never leave `evald serve` daemons behind.
//!
//! [`FleetSupervisor`] adds self-healing on top of a spawned fleet:
//! it health-checks every slot via `Ping`, respawns dead workers
//! (capped restarts per slot, exponential backoff with seeded jitter
//! so the schedule is reproducible), and republishes the epoch-bumped
//! [`FleetSpec`] to the shared spec and to every live worker on any
//! membership change. A respawned worker comes back on a fresh
//! OS-assigned port but keeps its *slot*, and rendezvous routing is
//! keyed on slots — so its keyspace follows it and results stay
//! bit-identical across kill/respawn.

use autofp_core::mix64;
use crate::client;
use crate::fleet::SharedFleetSpec;
use crate::wire::FleetSpec;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The stdout prefix a worker prints once its listener is bound; the
/// rest of the line is the address to dial.
pub const READY_PREFIX: &str = "evald listening on ";

/// Timeout for the best-effort graceful `Shutdown` frame sent before
/// a worker is killed.
const GRACEFUL_SHUTDOWN_TIMEOUT: Duration = Duration::from_millis(250);

/// One supervised worker process.
pub struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    /// The address the worker is serving on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kill the worker process immediately (SIGKILL) and reap it.
    /// Idempotent: killing an already-dead worker is a no-op.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Ask the worker to exit cleanly (short-timeout `Shutdown`
    /// frame), then kill and reap it regardless — the graceful frame
    /// lets a live worker stop accepting, the kill guarantees no
    /// daemon outlives its supervisor. Idempotent; an already-reaped
    /// worker is left alone.
    pub fn shutdown_then_kill(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let _ = client::shutdown(&self.addr, GRACEFUL_SHUTDOWN_TIMEOUT);
        self.kill();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown_then_kill();
    }
}

/// Spawn one `evald serve` worker from the binary at `bin` and wait
/// until it reports its address.
pub fn spawn_worker(bin: &Path) -> io::Result<Worker> {
    let mut child = Command::new(bin)
        .args(["serve"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::other("worker stdout was not captured"));
    };
    let mut lines = BufReader::new(stdout).lines();
    loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix(READY_PREFIX) {
                    let addr = addr.trim().to_string();
                    // Drain any further stdout on a detached thread so
                    // the worker never blocks on a full pipe.
                    std::thread::spawn(move || for _ in lines {});
                    return Ok(Worker { child, addr });
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("worker exited before reporting its address"));
            }
        }
    }
}

/// A fleet of supervised local workers with fixed membership (no
/// respawn — see [`FleetSupervisor`] for the self-healing variant).
pub struct WorkerFleet {
    workers: Vec<Worker>,
}

impl WorkerFleet {
    /// Spawn `n` workers from the binary at `bin`. If any spawn fails,
    /// the already-started workers are killed (via drop) before the
    /// error is returned.
    pub fn spawn(bin: &Path, n: usize) -> io::Result<WorkerFleet> {
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            workers.push(spawn_worker(bin)?);
        }
        Ok(WorkerFleet { workers })
    }

    /// The workers' addresses, in spawn (= shard) order. Killed workers
    /// keep their slot: shard routing is positional.
    pub fn addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Number of workers in the fleet (dead ones included).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the fleet has no workers at all.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Kill worker `i` (no-op for an out-of-range index or an
    /// already-dead worker). Its address stays in [`WorkerFleet::addrs`]
    /// so the requests sharded to it fail as transport errors — exactly
    /// the mid-run worker-death scenario the fault tests exercise.
    pub fn kill(&mut self, i: usize) {
        if let Some(w) = self.workers.get_mut(i) {
            w.kill();
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        // Each Worker's own drop would do this too; doing it here
        // keeps the whole fleet's teardown in one place and makes the
        // contract explicit: dropping a fleet leaks no daemons.
        for w in &mut self.workers {
            w.shutdown_then_kill();
        }
    }
}

/// Knobs for [`FleetSupervisor`] health-checking and respawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Maximum respawns per slot; a slot that exhausts them stays dead
    /// (its keys fail over to rendezvous successors).
    pub max_restarts: u32,
    /// Base respawn backoff; doubles per restart of the same slot.
    pub backoff: Duration,
    /// Seed for the deterministic backoff jitter (mixed with slot and
    /// restart count, so concurrent respawns de-synchronize
    /// reproducibly).
    pub jitter_seed: u64,
    /// Timeout for the per-slot `Ping` health probe (and for fleet-spec
    /// publishes to workers).
    pub ping_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            jitter_seed: 0x5EED_F1EE7,
            ping_timeout: Duration::from_secs(2),
        }
    }
}

/// Respawn delay for `slot` at its `restarts`-th restart: exponential
/// base plus a seeded jitter in `[0, backoff/2]`. Pure, so the whole
/// respawn schedule is a function of the config — no RNG, no clock.
pub fn respawn_backoff(config: &SupervisorConfig, slot: usize, restarts: u32) -> Duration {
    let base = config.backoff.saturating_mul(1u32 << restarts.min(16));
    let half_ms = config.backoff.as_millis() as u64 / 2;
    if half_ms == 0 {
        return base;
    }
    let mixed = mix64(config.jitter_seed ^ ((slot as u64) << 32) ^ u64::from(restarts));
    base + Duration::from_millis(mixed % (half_ms + 1))
}

struct SupervisedSlot {
    worker: Worker,
    restarts: u32,
}

/// A self-healing fleet: spawned workers plus the health-check /
/// respawn / republish loop.
///
/// The supervisor owns the children (drop tears the fleet down) and a
/// [`SharedFleetSpec`] that clients route over; every membership
/// change bumps the spec's epoch and is pushed to all live workers via
/// `SetFleet`. Call [`FleetSupervisor::supervise_once`] from your own
/// loop, or hand the supervisor to [`FleetSupervisor::monitor`] for a
/// background thread.
pub struct FleetSupervisor {
    bin: PathBuf,
    config: SupervisorConfig,
    slots: Vec<SupervisedSlot>,
    fleet: SharedFleetSpec,
}

impl FleetSupervisor {
    /// Spawn `n` workers from `bin` and publish the initial fleet spec
    /// (epoch 1) to each of them.
    pub fn spawn(bin: &Path, n: usize, config: SupervisorConfig) -> io::Result<FleetSupervisor> {
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(SupervisedSlot { worker: spawn_worker(bin)?, restarts: 0 });
        }
        let addrs: Vec<String> = slots.iter().map(|s| s.worker.addr().to_string()).collect();
        let fleet = SharedFleetSpec::new(FleetSpec { epoch: 1, addrs });
        let sup = FleetSupervisor { bin: bin.to_path_buf(), config, slots, fleet };
        sup.push_spec_to_workers();
        Ok(sup)
    }

    /// The shared fleet spec clients should route over.
    pub fn fleet(&self) -> SharedFleetSpec {
        self.fleet.clone()
    }

    /// Current worker addresses in slot order.
    pub fn addrs(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.worker.addr().to_string()).collect()
    }

    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the fleet has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current fleet-spec epoch.
    pub fn epoch(&self) -> u64 {
        self.fleet.epoch()
    }

    /// Cumulative workers respawned by this supervisor.
    pub fn respawns(&self) -> u64 {
        self.fleet.respawns()
    }

    /// Kill the worker in `slot` (SIGKILL, no respawn until the next
    /// supervision pass) — the chaos-test hook.
    pub fn kill(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.worker.kill();
        }
    }

    /// One supervision pass: ping every slot, respawn dead workers
    /// whose restart budget allows it (exponential backoff with seeded
    /// jitter before each respawn), and republish the fleet spec if
    /// membership changed. Returns the number of workers respawned.
    pub fn supervise_once(&mut self) -> usize {
        let mut respawned = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let addr = slot.worker.addr().to_string();
            if client::ping(&addr, self.config.ping_timeout).is_ok() {
                continue;
            }
            let restarts = slot.restarts;
            if restarts >= self.config.max_restarts {
                continue;
            }
            let delay = respawn_backoff(&self.config, i, restarts);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            // On spawn failure the slot stays dead and a later pass
            // (with a bigger backoff) tries again.
            if let Ok(worker) = spawn_worker(&self.bin) {
                // Replacing the Worker drops (and reaps) the dead
                // child; the slot index — the routing identity —
                // is preserved.
                slot.worker = worker;
                slot.restarts = restarts + 1;
                respawned += 1;
            }
        }
        if respawned > 0 {
            self.fleet.note_respawns(respawned as u64);
            self.republish();
        }
        respawned
    }

    /// Grow or shrink the fleet to `n` slots, then republish. Removed
    /// slots are shut down; new slots spawn with a fresh restart
    /// budget.
    pub fn resize(&mut self, n: usize) -> io::Result<()> {
        while self.slots.len() > n {
            if let Some(mut slot) = self.slots.pop() {
                slot.worker.shutdown_then_kill();
            }
        }
        while self.slots.len() < n {
            self.slots.push(SupervisedSlot { worker: spawn_worker(&self.bin)?, restarts: 0 });
        }
        self.republish();
        Ok(())
    }

    /// Bump the epoch, update the shared spec, and push it to every
    /// worker (best effort — a dead worker learns the spec when it is
    /// respawned).
    fn republish(&self) {
        let spec = FleetSpec { epoch: self.fleet.epoch() + 1, addrs: self.addrs() };
        self.fleet.publish(spec);
        self.push_spec_to_workers();
    }

    fn push_spec_to_workers(&self) {
        let spec = self.fleet.snapshot();
        for slot in &self.slots {
            let _ = client::set_fleet(slot.worker.addr(), &spec, self.config.ping_timeout);
        }
    }

    /// Move the supervisor onto a background thread that runs
    /// [`FleetSupervisor::supervise_once`] every `interval` until the
    /// returned [`FleetMonitor`] is stopped or dropped.
    pub fn monitor(self, interval: Duration) -> FleetMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let fleet = self.fleet();
        let stop_in_thread = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut sup = self;
            while !stop_in_thread.load(Ordering::SeqCst) {
                sup.supervise_once();
                // Sleep in short slices so stop requests are honored
                // promptly even with a long supervision interval.
                let mut remaining = interval;
                while !remaining.is_zero() && !stop_in_thread.load(Ordering::SeqCst) {
                    let slice = remaining.min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
            sup
        });
        FleetMonitor { stop, fleet, handle: Some(handle) }
    }
}

/// Handle to a [`FleetSupervisor`] running on a background thread.
///
/// Dropping the monitor stops the thread and tears the fleet down
/// (workers are shut down then killed) — a panicking bench run cannot
/// leak daemons.
pub struct FleetMonitor {
    stop: Arc<AtomicBool>,
    fleet: SharedFleetSpec,
    handle: Option<std::thread::JoinHandle<FleetSupervisor>>,
}

impl FleetMonitor {
    /// The shared fleet spec clients should route over.
    pub fn fleet(&self) -> SharedFleetSpec {
        self.fleet.clone()
    }

    /// Stop the supervision thread and take the supervisor back (e.g.
    /// to read final counters before dropping it).
    pub fn stop(mut self) -> Option<FleetSupervisor> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.take().and_then(|h| h.join().ok())
    }
}

impl Drop for FleetMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            // Joining returns the supervisor, whose drop shuts every
            // worker down.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawn_backoff_is_deterministic_exponential_and_jittered() {
        let config = SupervisorConfig::default();
        // Deterministic: same inputs, same delay.
        assert_eq!(respawn_backoff(&config, 1, 0), respawn_backoff(&config, 1, 0));
        // Jitter stays within [0, backoff/2] of the exponential base.
        for slot in 0..8usize {
            for restarts in 0..4u32 {
                let d = respawn_backoff(&config, slot, restarts);
                let base = config.backoff * (1 << restarts);
                assert!(d >= base, "{slot}/{restarts}: {d:?} < base {base:?}");
                assert!(d <= base + config.backoff / 2, "{slot}/{restarts}: {d:?} too jittered");
            }
        }
        // Different slots de-synchronize (at least one differing pair
        // among the first few slots — jitter spans 26 values here).
        let distinct: std::collections::BTreeSet<Duration> =
            (0..8usize).map(|slot| respawn_backoff(&config, slot, 0)).collect();
        assert!(distinct.len() > 1, "jitter must separate slots");
        // Zero base backoff degrades to no jitter without dividing by
        // zero.
        let zero = SupervisorConfig { backoff: Duration::ZERO, ..config };
        assert_eq!(respawn_backoff(&zero, 3, 2), Duration::ZERO);
    }

    /// The respawn schedule is a pure function of the config; these
    /// delays (default config, 50 ms base) were computed once and lock
    /// the jitter mixer.
    #[test]
    fn golden_respawn_backoffs_are_locked() {
        let config = SupervisorConfig::default();
        let expected_ms: [[u64; 3]; 4] =
            [[57, 121, 212], [73, 116, 217], [60, 122, 217], [69, 116, 205]];
        for (slot, row) in expected_ms.iter().enumerate() {
            for (restarts, &ms) in row.iter().enumerate() {
                assert_eq!(
                    respawn_backoff(&config, slot, restarts as u32),
                    Duration::from_millis(ms),
                    "slot {slot}, restart {restarts}"
                );
            }
        }
    }
}
