//! Spawning and supervising local worker processes.
//!
//! The bench harness's `--workers N` flag and the distributed test
//! suite both need real `evald serve` child processes: spawn the
//! binary, read the `evald listening on <addr>` line it prints once
//! bound, and keep the [`std::process::Child`] so the worker dies with
//! its supervisor instead of leaking daemons. Dropping a
//! [`FleetSupervisor`] shuts the children down (best-effort graceful
//! `Shutdown` frame, then SIGKILL + reap), so aborted tests and
//! panicking benches never leave `evald serve` daemons behind.
//!
//! The supervisor also heals the fleet: it health-checks every slot
//! via `Ping`, respawns dead workers (capped restarts per slot,
//! exponential backoff with seeded jitter so the schedule is
//! reproducible), and writes each respawned worker's address into its
//! slot of the [`SharedFleetSpec`] clients route over. A respawned
//! worker comes back on a fresh OS-assigned port but keeps its *slot*,
//! and rendezvous routing is keyed on slots — so its keyspace follows
//! it and results stay bit-identical across kill/respawn. A supervisor
//! that nothing supervises is a fixed fleet: a killed worker keeps its
//! slot and nothing respawns it.

use autofp_core::mix64;
use crate::client;
use crate::fleet::SharedFleetSpec;
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

/// Maximum respawns per slot; a slot that exhausts them stays dead (its
/// keys fail over to rendezvous successors).
const MAX_RESTARTS: u32 = 3;

/// Seed for the deterministic backoff jitter (mixed with slot and
/// restart count, so concurrent respawns de-synchronize reproducibly).
const JITTER_SEED: u64 = 0x5EED_F1EE7;

/// Timeout for the per-slot `Ping` health probe.
const PING_TIMEOUT: Duration = Duration::from_secs(2);

/// One supervised worker process.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    /// The address the worker is serving on.
    fn addr(&self) -> &str {
        &self.addr
    }

    /// Kill the worker process immediately (SIGKILL) and reap it.
    /// Idempotent: killing an already-dead worker is a no-op.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    /// Ask the worker to exit cleanly (short-timeout `Shutdown`
    /// frame), then kill and reap it regardless — the graceful frame
    /// lets a live worker stop accepting, the kill guarantees no
    /// daemon outlives its supervisor. An already-reaped worker is
    /// left alone.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let _ = client::shutdown(&self.addr, GRACEFUL_SHUTDOWN_TIMEOUT);
        self.kill();
    }
}

/// A started `evald serve` child that has not yet reported its
/// address. Dropping it unreported kills and reaps the child.
struct Starting {
    child: Option<Child>,
}

impl Starting {
    /// Start the binary at `bin` as a worker without waiting for it.
    fn start(bin: &Path) -> io::Result<Starting> {
        let child = Command::new(bin)
            .args(["serve"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(Starting { child: Some(child) })
    }

    /// Wait until the worker reports its address. On any failure the
    /// child is killed and reaped (by drop) before the error returns.
    fn ready(mut self) -> io::Result<Worker> {
        let stdout = self.child.as_mut().and_then(|c| c.stdout.take());
        let stdout = stdout.ok_or_else(|| io::Error::other("worker stdout was not captured"))?;
        let mut lines = BufReader::new(stdout).lines();
        while let Some(line) = lines.next() {
            let line = line?;
            let Some(addr) = line.strip_prefix(READY_PREFIX) else { continue };
            let addr = addr.trim().to_string();
            // Drain any further stdout on a detached thread so the
            // worker never blocks on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            let child = self.child.take().ok_or_else(|| io::Error::other("worker reaped"))?;
            return Ok(Worker { child, addr });
        }
        Err(io::Error::other("worker exited before reporting its address"))
    }
}

impl Drop for Starting {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawn one `evald serve` worker from the binary at `bin` and wait
/// until it reports its address.
fn spawn_worker(bin: &Path) -> io::Result<Worker> {
    Starting::start(bin)?.ready()
}

/// Knobs for [`FleetSupervisor`] respawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Base respawn backoff; doubles per restart of the same slot.
    pub backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig { backoff: Duration::from_millis(50) }
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
    let mixed = mix64(JITTER_SEED ^ ((slot as u64) << 32) ^ u64::from(restarts));
    base + Duration::from_millis(mixed % (half_ms + 1))
}

struct SupervisedSlot {
    worker: Worker,
    restarts: u32,
}

/// A self-healing fleet: spawned workers plus the health-check /
/// respawn loop.
///
/// The supervisor owns the children (drop tears the fleet down) and the
/// [`SharedFleetSpec`] that clients route over; a respawn replaces its
/// slot's address there. Call
/// [`FleetSupervisor::supervise_once`] from your own loop, or hand the
/// supervisor to [`FleetSupervisor::monitor`] for a background thread.
pub struct FleetSupervisor {
    bin: PathBuf,
    config: SupervisorConfig,
    slots: Vec<SupervisedSlot>,
    fleet: SharedFleetSpec,
}

impl FleetSupervisor {
    /// Spawn `n` workers from `bin`, one per slot. All `n` children
    /// start before any ready line is read, so they boot concurrently;
    /// the lines are then read in slot order. If any worker fails to
    /// start or report, every started child is killed and reaped (via
    /// drop) before the error returns.
    pub fn spawn(bin: &Path, n: usize, config: SupervisorConfig) -> io::Result<FleetSupervisor> {
        let started = (0..n).map(|_| Starting::start(bin)).collect::<io::Result<Vec<_>>>()?;
        let slots = started
            .into_iter()
            .map(|s| Ok(SupervisedSlot { worker: s.ready()?, restarts: 0 }))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = slots.iter().map(|s| s.worker.addr().to_string()).collect();
        let fleet = SharedFleetSpec::new(addrs);
        Ok(FleetSupervisor { bin: bin.to_path_buf(), config, slots, fleet })
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

    /// Cumulative workers respawned by this supervisor.
    pub fn respawns(&self) -> u64 {
        self.fleet.respawns()
    }

    /// Kill the worker in `slot` (SIGKILL, no respawn until the next
    /// supervision pass) — the chaos-test hook. Its address stays in
    /// its slot, so requests routed to it fail as transport errors.
    pub fn kill(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.worker.kill();
        }
    }

    /// One supervision pass: ping every slot, respawn dead workers
    /// whose restart budget allows it (exponential backoff with seeded
    /// jitter before each respawn), and move each respawned slot to
    /// its new address in the shared spec. Returns the number of
    /// workers respawned.
    pub fn supervise_once(&mut self) -> usize {
        let mut respawned = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let addr = slot.worker.addr().to_string();
            if client::ping(&addr, PING_TIMEOUT).is_ok() {
                continue;
            }
            let restarts = slot.restarts;
            if restarts >= MAX_RESTARTS {
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
                self.fleet.replace(i, worker.addr().to_string());
                slot.worker = worker;
                slot.restarts = restarts + 1;
                respawned += 1;
            }
        }
        self.fleet.note_respawns(respawned as u64);
        respawned
    }

    /// Move the supervisor onto a background thread that runs
    /// [`FleetSupervisor::supervise_once`] every `interval` until the
    /// returned [`FleetMonitor`] is dropped.
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
        let zero = SupervisorConfig { backoff: Duration::ZERO };
        assert_eq!(respawn_backoff(&zero, 3, 2), Duration::ZERO);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_spawn_kills_and_reaps_every_started_child() {
        // The children this test thread forked, zombies included: a
        // child that was started but never reaped would stay listed.
        let children =
            || std::fs::read_to_string("/proc/thread-self/children").expect("procfs children list");
        assert_eq!(children().trim(), "");
        // `/bin/true` exits without a ready line, so slot 0 fails while
        // slot 1 has already been started.
        let fleet = FleetSupervisor::spawn(Path::new("/bin/true"), 2, SupervisorConfig::default());
        assert!(fleet.is_err(), "a worker that never reports must fail the spawn");
        assert_eq!(children().trim(), "", "every started child is killed and reaped");
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
