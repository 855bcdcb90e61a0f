//! Distributed-evaluation suite: a scenario matrix run against real
//! `evald` worker processes must be bit-identical to the in-process
//! run — including while the fleet is being killed and respawned
//! under it. Rendezvous routing plus deterministic failover
//! means a live worker always produces the same trial bits the dead
//! one would have, so chaos shows up only in the robustness counters,
//! never in the results.
//!
//! These tests spawn the actual `evald` binary (built by this
//! package's `src/bin/evald.rs`) via `CARGO_BIN_EXE_evald`, so the
//! full stack is exercised: process spawn → TCP → wire protocol →
//! worker-local dataset regeneration → sharded cache → response.

use autofp::evald::{FleetSupervisor, SupervisorConfig};
use autofp_bench::{run_matrix, HarnessConfig, MatrixOutcome};
use autofp_core::{Budget, FailureKind};
use autofp_data::{registry, DatasetSpec};
use autofp_models::classifier::ModelKind;
use autofp_search::AlgName;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Same mini Table 4 matrix as tests/matrix.rs: 2 datasets × 2 models
/// × 3 algorithms at an eval-count budget, so remote transport faults
/// can never change how many proposals fit in the budget.
fn mini_config() -> (Vec<DatasetSpec>, [ModelKind; 2], [AlgName; 3], HarnessConfig) {
    let mut cfg = HarnessConfig::default();
    cfg.scale = 0.05;
    cfg.budget = Budget::evals(8);
    cfg.max_rows = 160;
    cfg.min_rows = 120;
    cfg.max_len = 3;
    cfg.seed = 11;
    let specs: Vec<DatasetSpec> = registry().into_iter().take(2).collect();
    (specs, [ModelKind::Lr, ModelKind::Xgb], [AlgName::Rs, AlgName::Pmne, AlgName::Plne], cfg)
}

/// Deterministic serialization of a matrix run (mirrors
/// tests/matrix.rs): identities, f64 bit patterns, eval counts, winning
/// pipelines, failure tallies — no wall-clock or cache-counter fields.
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

fn evald_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_evald"))
}

/// A fixed fleet: a supervisor that nothing supervises, so a killed
/// worker keeps its slot and is never respawned.
fn spawn_fleet(n: usize) -> FleetSupervisor {
    FleetSupervisor::spawn(evald_bin(), n, SupervisorConfig::default())
        .expect("spawn evald workers")
}

/// A supervisor tuned for tests: instant-ish respawn (tiny backoff) and
/// a short health-probe timeout so supervision passes are fast.
fn spawn_supervised(n: usize) -> FleetSupervisor {
    let config = SupervisorConfig {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        jitter_seed: 0x7E57,
        ping_timeout: Duration::from_millis(500),
    };
    FleetSupervisor::spawn(evald_bin(), n, config).expect("spawn supervised evald workers")
}

/// Block until the fleet has served at least `min_served` evaluation
/// requests (so a chaos action provably lands mid-run, not before it).
fn wait_for_served(addrs: &[String], min_served: u64) {
    for _ in 0..4000 {
        let served: u64 = addrs
            .iter()
            .filter_map(|a| autofp::evald::stats(a, Duration::from_secs(1)).ok())
            .map(|s| s.served)
            .sum();
        if served >= min_served {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("fleet never reached served >= {min_served}");
}

#[test]
fn sharded_two_worker_run_is_bit_identical_to_in_process() {
    let (specs, models, algs, mut cfg) = mini_config();
    let local = canonical(&run_matrix(&specs, &models, &algs, &cfg));

    let fleet = spawn_fleet(2);
    cfg.fleet = Some(fleet.fleet());
    let remote = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(
        local,
        canonical(&remote),
        "sharded remote evaluation must reproduce the in-process matrix bit-identically"
    );
    // No transport faults in a healthy fleet.
    assert_eq!(remote.failures.count(FailureKind::Transport), 0);
    // The matrix reports its fleet counters; a healthy fixed fleet
    // needed no healing.
    let stats = remote.fleet.expect("remote runs carry fleet stats");
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.respawns, 0);
}

#[test]
fn killed_worker_fails_over_with_bit_identical_results() {
    let (specs, models, algs, mut cfg) = mini_config();
    let mut fleet = spawn_fleet(2);
    cfg.fleet = Some(fleet.fleet());

    // Warm run against the healthy fleet (also proves both workers are
    // actually serving before we kill one).
    let healthy = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(healthy.failures.count(FailureKind::Transport), 0);

    // Kill worker 1. Its address stays in the shard map, so every
    // request rendezvous-routed to it first fails there — and then
    // fails over to its rendezvous successor (worker 0), which
    // regenerates the same dataset and returns the same trial bits.
    // With at least one live worker, nothing degrades to a worst-error
    // trial.
    fleet.kill(1);
    let failed_over = run_matrix(&specs, &models, &algs, &cfg);

    assert_eq!(
        canonical(&healthy),
        canonical(&failed_over),
        "failover must reproduce the healthy fleet's matrix bit-identically"
    );
    assert_eq!(
        failed_over.failures.count(FailureKind::Transport),
        0,
        "no Transport worst-error trials while a live worker remains"
    );
    let stats = failed_over.fleet.expect("remote runs carry fleet stats");
    assert!(stats.failovers > 0, "keys sharded to the dead worker must fail over");
    assert!(stats.circuit_opens >= 1, "the dead worker's circuit must open");
}

#[test]
fn fully_dead_fleet_degrades_to_deterministic_transport_failures() {
    let (specs, models, algs, mut cfg) = mini_config();
    let mut fleet = spawn_fleet(2);
    cfg.fleet = Some(fleet.fleet());
    fleet.kill(0);
    fleet.kill(1);

    // No live worker anywhere: every evaluation exhausts the whole
    // fleet and surfaces as a worst-error trial tagged Transport; the
    // baseline probe degrades to 0.0. The budget still completes —
    // worst-error trials count as evaluations.
    let dead = run_matrix(&specs, &models, &algs, &cfg);
    let rerun = run_matrix(&specs, &models, &algs, &cfg);
    assert_eq!(
        canonical(&dead),
        canonical(&rerun),
        "a fully dead fleet must degrade the matrix deterministically"
    );
    assert!(
        dead.failures.count(FailureKind::Transport) > 0,
        "with zero live workers, evaluations must surface as Transport failures"
    );
    for cell in &dead.cells {
        assert_eq!(cell.n_evals, 8, "{}/{}/{}", cell.dataset, cell.model.name(), cell.algorithm);
        assert_eq!(cell.baseline.to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn supervisor_respawns_a_worker_killed_mid_run_bit_identically() {
    let (specs, models, algs, mut cfg) = mini_config();
    let local = canonical(&run_matrix(&specs, &models, &algs, &cfg));

    let mut supervisor = spawn_supervised(2);
    cfg.fleet = Some(supervisor.fleet());
    let addrs = supervisor.addrs();

    let outcome = std::thread::scope(|scope| {
        let cfg = &cfg;
        let specs = &specs;
        let handle = scope.spawn(move || run_matrix(specs, &models, &algs, cfg));
        // Let the matrix provably start, then kill a worker mid-run and
        // heal the fleet. The respawned worker comes back on a fresh
        // OS-assigned port but keeps slot 1, so its keyspace follows it.
        wait_for_served(&addrs, 1);
        supervisor.kill(1);
        assert_eq!(supervisor.supervise_once(), 1, "the killed worker must be respawned");
        handle.join().expect("matrix run panicked")
    });

    assert_eq!(
        local,
        canonical(&outcome),
        "kill + respawn mid-matrix must not change a single result bit"
    );
    assert_eq!(
        outcome.failures.count(FailureKind::Transport),
        0,
        "failover covers the gap between death and respawn"
    );
    assert_eq!(supervisor.respawns(), 1);
    assert!(supervisor.epoch() >= 2, "respawn must republish an epoch-bumped spec");
    let stats = outcome.fleet.expect("remote runs carry fleet stats");
    assert_eq!(stats.respawns, 1);
    // The respawned worker answers on its new address.
    let new_addrs = supervisor.addrs();
    assert_ne!(addrs[1], new_addrs[1], "respawn lands on a fresh port");
    autofp::evald::ping(&new_addrs[1], Duration::from_secs(2)).expect("respawned worker alive");
}
