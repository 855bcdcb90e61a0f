//! The search workloads: `table4-mini` and `fleet-resume`.
//!
//! Each round runs a Table 4 matrix (`austrilian` x 3 models x all 15
//! algorithms) through [`run_matrix_with`] with this module's evaluator
//! factory. The factory times its own calls (set-up) and wraps every
//! evaluator in [`Timed`]; trial-cache hits never reach an evaluator, so
//! only fresh work is attributed to the evaluation layers. After the
//! measured rounds, a reference run repeats the first round's seed down a
//! plainer path, and its cells must match the first round's bit for bit.

use crate::procs;
use crate::report::{Outcome, RoundTimes};
use crate::timed::{into_tally, Tally, Timed};
use autofp_bench::{
    cells_tsv, run_matrix_with, spawn_supervised_fleet, CacheMode, HarnessConfig, MatrixOutcome,
};
use autofp_core::{fnv1a, Budget, CacheStats, Evaluate, Evaluator, RemoteEvaluator};
use autofp_data::spec_by_name;
use autofp_evald::{SupervisorConfig, TcpPool};
use autofp_models::ModelKind;
use autofp_search::AlgName;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Matrix worker threads: pinned to the two cores of the reference
/// machine rather than read from `available_parallelism`, so the load is
/// the same wherever the benchmark runs.
pub const THREADS: usize = 2;

/// The matrix covers one small dataset so that a round takes about a
/// second: the more rounds a run has, the likelier some escape load from
/// elsewhere on the machine (see `report::RoundTimes`).
const DATASET: &str = "austrilian";
const SCALE: f64 = 0.05;
const EVALS: usize = 12;
const MAX_LEN: usize = 7;

/// evald workers of the fleet, one per matrix thread.
const FLEET_WORKERS: usize = 2;

/// Resume runs after each cold fleet run.
const RESUMES: usize = 3;

/// Per-operation timeout of the remote pool, as the bench harness uses.
const REMOTE_TIMEOUT: Duration = Duration::from_secs(60);

/// Health-check interval of the fleet supervisor, as `exp_table4` uses.
const SUPERVISE_EVERY: Duration = Duration::from_millis(500);

/// Algorithms whose Pick phase trains a surrogate model.
const SURROGATE_ALGS: [&str; 6] = ["PMNE", "PME", "PLNE", "PLE", "SMAC", "TPE"];

/// The matrix configuration at `seed`: shared trial cache on, prefix
/// cache off.
fn harness(seed: u64) -> HarnessConfig {
    HarnessConfig {
        scale: SCALE,
        budget: Budget::evals(EVALS),
        seed,
        threads: THREADS,
        max_len: MAX_LEN,
        cache_mode: CacheMode::Shared,
        prefix_cache: false,
        ..HarnessConfig::default()
    }
}

/// Set-up marks the factory leaves: when it was first called, when its
/// last call returned, and the time spent inside it.
struct Marks {
    first_call: Option<Instant>,
    last_return: Instant,
    building: Duration,
}

/// One matrix run, timed from outside.
struct Run {
    outcome: MatrixOutcome,
    wall: Duration,
    /// From the `run_matrix_with` call to the return of the last factory
    /// call: dataset generation plus evaluator construction.
    setup: Duration,
    /// Dataset generation: from the call to the first factory call.
    generate: Duration,
    /// Evaluator construction (baseline fits, remote `describe`).
    build: Duration,
    tally: Tally,
    tsv: String,
}

impl Run {
    fn trials(&self) -> u64 {
        self.outcome.cells.iter().map(|c| c.n_evals as u64).sum()
    }

    fn measured(&self) -> Duration {
        self.wall.saturating_sub(self.setup)
    }

    fn digest(&self) -> u64 {
        fnv1a(self.tsv.as_bytes())
    }
}

/// Run the matrix at `cfg`, in-process or over `pool`.
fn run_matrix(cfg: &HarnessConfig, pool: Option<&TcpPool>) -> Run {
    let specs = [spec_by_name(DATASET).expect("registry dataset")];
    let tally = Arc::new(Mutex::new(Tally::default()));
    let start = Instant::now();
    let marks =
        Mutex::new(Marks { first_call: None, last_return: start, building: Duration::ZERO });
    let mut outcome = run_matrix_with(&specs, &ModelKind::ALL, &AlgName::ALL, cfg, |d, c, _| {
        let called = Instant::now();
        let inner: Box<dyn Evaluate> = match pool {
            None => Box::new(Evaluator::new(d, c)),
            Some(pool) => {
                let backend = pool.backend(cfg.eval_context(&specs[0], c.model));
                Box::new(RemoteEvaluator::new(Box::new(backend), c))
            }
        };
        let done = Instant::now();
        let mut m = marks.lock().unwrap_or_else(PoisonError::into_inner);
        m.first_call.get_or_insert(called);
        m.last_return = done;
        m.building += done - called;
        Box::new(Timed { inner, tally: Arc::clone(&tally) })
    });
    let wall = start.elapsed();
    if let Some(pool) = pool {
        outcome.fleet = Some(pool.fleet_stats());
    }
    let marks = marks.into_inner().unwrap_or_else(PoisonError::into_inner);
    let tsv = cells_tsv(&outcome);
    Run {
        wall,
        setup: marks.last_return - start,
        generate: marks.first_call.map_or(Duration::ZERO, |t| t - start),
        build: marks.building,
        outcome,
        tally: into_tally(tally),
        tsv,
    }
}

/// Sums over a workload's primary matrix runs, for the per-layer shares.
#[derive(Default)]
struct Layers {
    /// Matrix wall time after set-up; the thread time is `THREADS` times it.
    measured: Duration,
    setup: Duration,
    generate: Duration,
    build: Duration,
    spawn: Duration,
    eval_busy: Duration,
    prep: Duration,
    train: Duration,
    pick: Duration,
    pick_surrogate: Duration,
    cache: CacheStats,
    faults: u64,
}

impl Layers {
    fn absorb(&mut self, run: &Run) {
        self.measured += run.measured();
        self.setup += run.setup;
        self.generate += run.generate;
        self.build += run.build;
        self.eval_busy += run.tally.busy();
        self.prep += run.tally.prep;
        self.train += run.tally.train;
        for cell in &run.outcome.cells {
            self.pick += cell.breakdown.pick;
            if SURROGATE_ALGS.contains(&cell.algorithm) {
                self.pick_surrogate += cell.breakdown.pick;
            }
        }
        self.cache.absorb(&run.outcome.cache);
        if let Some(f) = &run.outcome.fleet {
            self.faults += f.reconnects + f.retries + f.failovers;
        }
    }

    /// The per-layer metrics of the matrix workloads.
    fn fill(&self, out: &mut Outcome, first: &Run) {
        let thread_time = THREADS as f64 * self.measured.as_secs_f64();
        let share = |d: Duration| d.as_secs_f64() / thread_time;
        out.set("bench.busy_frac", share(self.pick + self.eval_busy));
        out.set("search.pick_frac", share(self.pick));
        out.set("search.pick_frac.surrogate", share(self.pick_surrogate));
        out.set("core.eval.frac", share(self.eval_busy));
        out.set("preprocess.frac", share(self.prep));
        out.set("models.frac", share(self.train));
        // Over the wire, Prep and Train happen in the workers; the rest of
        // each call is encoding, the round trip and dispatch.
        let wire = self.eval_busy.saturating_sub(self.prep + self.train);
        out.set("wire.frac", if first.outcome.fleet.is_some() { share(wire) } else { 0.0 });
        out.set("core.cache.hit_rate", self.cache.hit_rate());
        out.set("evald.faults", self.faults as f64);
        // Counters of the first round, which repeat exactly for a seed.
        out.set("core.eval.calls", first.tally.calls.len() as f64);
        out.set("core.cache.lookups", first.outcome.cache.lookups() as f64);
        let setup = (self.setup + self.spawn).as_secs_f64();
        out.set("setup.generate_frac", self.generate.as_secs_f64() / setup);
        out.set("setup.build_frac", self.build.as_secs_f64() / setup);
        out.set("setup.spawn_frac", self.spawn.as_secs_f64() / setup);
    }
}

/// Checks every matrix run must pass; counts its trials.
fn check_run(out: &mut Outcome, what: &str, run: &Run) {
    let cells = ModelKind::ALL.len() * AlgName::ALL.len();
    out.check(run.outcome.cells.len() == cells, || {
        format!("{what}: {} cells, expected {cells}", run.outcome.cells.len())
    });
    out.check(
        run.outcome.cells.iter().all(|c| c.n_evals > 0 && (0.0..=1.0).contains(&c.best_accuracy)),
        || format!("{what}: a cell ran no trial or reported an accuracy outside [0, 1]"),
    );
    out.attempted += run.trials();
    out.failed += run.outcome.failures.total();
}

/// Re-run the first round's seed down a plainer path (`cfg` says which);
/// its cells must equal the first round's.
fn check_reference(out: &mut Outcome, first: &Run, cfg: &HarnessConfig, path: &str) {
    let (want, got) = (first.digest(), run_matrix(cfg, None).digest());
    out.check(want == got, || {
        format!("round 0 cells digest {want:016x} differs from the {path} reference {got:016x}")
    });
    out.digest = Some(want);
}

/// `table4-mini`: the matrix in-process.
pub fn table4_mini(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut times = RoundTimes::default();
    let mut layers = Layers::default();
    let runs = crate::rounds(seconds, |r| run_matrix(&harness(crate::round_seed(seed, r)), None));
    for (r, run) in runs.iter().enumerate() {
        check_run(&mut out, &format!("round {r}"), run);
        times.push(run.setup, run.trials(), run.measured(), run.tally.latencies_ms());
        layers.absorb(run);
    }
    let mut cfg = harness(seed);
    cfg.cache_mode = CacheMode::Off;
    check_reference(&mut out, &runs[0], &cfg, "trial-cache-off");

    times.fill(&mut out);
    out.set("peak_rss_mb", procs::hwm_kib("self").unwrap_or(0) as f64 / 1024.0);
    layers.fill(&mut out, &runs[0]);
    if trace {
        crate::report::check_busy(&mut out);
    }
    out
}

/// One fleet round: a cold run over a fresh fleet and store, then its
/// resumes.
struct FleetRound {
    spawn: Duration,
    cold: Run,
    resumes: Vec<Run>,
    /// Sum of the workers' peak resident sets.
    workers_kib: u64,
    /// Sums of the workers' `WorkerStats` (traced runs only): trial-cache
    /// hits, prefix-cache hits and misses.
    worker_hits: u64,
    worker_prefix: (u64, u64),
    segment_bytes: u64,
}

impl FleetRound {
    fn resume_wall(&self) -> Duration {
        self.resumes.iter().map(|r| r.wall).sum()
    }
}

/// Sum of the segment file sizes of a trial store.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn fleet_round(seed: u64, store: &Path, trace: bool) -> std::io::Result<FleetRound> {
    let spawn_start = Instant::now();
    let supervisor = spawn_supervised_fleet(FLEET_WORKERS, SupervisorConfig::default())?;
    let addrs = supervisor.addrs();
    let monitor = supervisor.monitor(SUPERVISE_EVERY);
    let spawn = spawn_start.elapsed();

    let mut cfg = harness(seed);
    cfg.trial_store = Some(store.to_path_buf());
    let run = || run_matrix(&cfg, Some(&TcpPool::new(monitor.fleet(), REMOTE_TIMEOUT)));
    let cold = run();
    let segment_bytes = store_bytes(store);
    let resumes = (0..RESUMES).map(|_| run()).collect();
    let mut round = FleetRound {
        spawn,
        cold,
        resumes,
        workers_kib: procs::children_hwm_kib(),
        worker_hits: 0,
        worker_prefix: (0, 0),
        segment_bytes,
    };
    if trace {
        for addr in &addrs {
            if let Ok(stats) = autofp_evald::stats(addr, Duration::from_secs(5)) {
                round.worker_hits += stats.hits;
                round.worker_prefix.0 += stats.prefix_hits;
                round.worker_prefix.1 += stats.prefix_misses;
            }
        }
    }
    drop(monitor);
    Ok(round)
}

/// `fleet-resume`: the matrix over a supervised two-worker evald fleet
/// writing a fresh trial store, then resumed from it.
pub fn fleet_resume(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut times = RoundTimes::default();
    let mut layers = Layers::default();
    let mut rounds = Vec::new();
    let results = crate::rounds(seconds, |r| {
        fleet_round(crate::round_seed(seed, r), &scratch.join(format!("store-{r}")), trace)
    });
    for (r, result) in results.into_iter().enumerate() {
        let round = match result {
            Ok(round) => round,
            Err(err) => {
                out.problems.push(format!("round {r}: the evald fleet did not start: {err}"));
                continue;
            }
        };
        let cold = &round.cold;
        check_run(&mut out, &format!("round {r} cold"), cold);
        let appended = cold.outcome.store.as_ref().map_or(0, |s| s.appended);
        out.check(appended > 0, || format!("round {r}: the cold run stored no trial"));
        for (i, resume) in round.resumes.iter().enumerate() {
            let what = format!("round {r} resume {i}");
            check_run(&mut out, &what, resume);
            out.check(resume.tsv == cold.tsv, || {
                format!("{what}: cells differ from the cold run's")
            });
            let misses = resume.outcome.cache.misses;
            let fresh = resume.tally.calls.len();
            out.check(misses == 0 && fresh == 0, || {
                format!("{what}: {misses} cache misses and {fresh} evaluations, expected none")
            });
        }
        let trials = cold.trials() + round.resumes.iter().map(Run::trials).sum::<u64>();
        times.push(
            round.spawn + cold.setup,
            trials,
            cold.measured() + round.resume_wall(),
            cold.tally.latencies_ms(),
        );
        layers.absorb(cold);
        layers.spawn += round.spawn;
        rounds.push(round);
    }
    let Some(first) = rounds.first() else {
        return out;
    };
    // The reference runs in-process, as table4-mini does.
    check_reference(&mut out, &first.cold, &harness(seed), "in-process");

    times.fill(&mut out);
    let workers_kib = rounds.iter().map(|r| r.workers_kib).max().unwrap_or(0);
    out.set("peak_rss_mb", (procs::hwm_kib("self").unwrap_or(0) + workers_kib) as f64 / 1024.0);
    layers.fill(&mut out, &first.cold);
    let store = first.cold.outcome.store.unwrap_or_default();
    out.set("core.repo.appended", store.appended as f64);
    let preloaded =
        first.resumes.first().and_then(|r| r.outcome.store.as_ref()).map_or(0, |s| s.preloaded);
    out.set("core.repo.preloaded", preloaded as f64);
    out.set("core.repo.segment_bytes", first.segment_bytes as f64);
    let resume: Duration = rounds.iter().map(FleetRound::resume_wall).sum();
    out.set(
        "core.repo.resume_frac",
        resume.as_secs_f64() / (layers.measured + resume).as_secs_f64(),
    );
    out.set("evald.worker_hits", rounds.iter().map(|r| r.worker_hits).sum::<u64>() as f64);
    let (hits, misses) =
        rounds.iter().fold((0, 0), |(h, m), r| (h + r.worker_prefix.0, m + r.worker_prefix.1));
    if hits + misses > 0 {
        out.set("core.prefix.hit_rate", hits as f64 / (hits + misses) as f64);
    }
    out
}
