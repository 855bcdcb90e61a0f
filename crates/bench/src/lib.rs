//! Shared experiment harness for the Auto-FP benchmark binaries.
//!
//! Every `exp_*` binary regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). This library holds the common
//! machinery: CLI parsing (`--scale`, `--budget-ms`, `--evals`,
//! `--seed`, `--datasets`, `--threads`, `--cache`), the scenario matrix
//! runner (dataset × model × algorithm, fanned across cells through the
//! core worker pool [`autofp_core::pool_map`], each search itself
//! single-threaded as in the paper), and table formatting.
//!
//! By default every algorithm cell of the same (dataset, model) group
//! shares one [`EvalCache`], so the duplicate pipelines the 15
//! searchers propose (most start from the same default-parameter space)
//! are evaluated once per group instead of once per cell. The matrix
//! result carries aggregate [`CacheStats`] and [`FailureStats`] so the
//! reuse — and any worst-error trials — are observable in reports.

use autofp_core::{
    pool_map, run_search_with, Budget, CacheStats, EvalCache, EvalConfig, Evaluate, Evaluator,
    FailureStats, FleetStats, PhaseBreakdown, PrefixCache, PrefixStats, RemoteEvaluator,
    StoreMeta, StoreStats,
};
use autofp_data::{registry, spec_by_name, Dataset, DatasetSpec};
use autofp_evald::{
    EvalContext, FleetSupervisor, SharedFleetSpec, SupervisorConfig, TcpPool,
};
use autofp_models::classifier::ModelKind;
use autofp_preprocess::ParamSpace;
use autofp_search::{make_searcher, AlgName};
use std::time::Duration;

/// How the scenario matrix caches pipeline evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// One cache per (dataset, model) group, shared by every algorithm
    /// cell of that group (the default): cross-algorithm duplicate
    /// pipelines are evaluated once per group.
    Shared,
    /// No trial cache: every proposal, duplicates included, goes to the
    /// evaluator. Each evaluator's fit memo still answers a repeated
    /// transformed input without refitting; the prefix cache has its
    /// own switch, `prefix_cache`.
    Off,
}

/// Harness configuration shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset row-count scale in `(0, 1]`.
    pub scale: f64,
    /// Per-search budget.
    pub budget: Budget,
    /// Base seed.
    pub seed: u64,
    /// Number of registry datasets to use (front of the list); `None`
    /// = all 45.
    pub n_datasets: Option<usize>,
    /// Worker threads for the scenario matrix.
    pub threads: usize,
    /// Maximum pipeline length.
    pub max_len: usize,
    /// Cap on generated rows per dataset (applied on top of `scale`);
    /// keeps the giant Table 9 datasets (covtype, christine) usable on
    /// laptop-scale budgets.
    pub max_rows: usize,
    /// Floor on generated rows per dataset (up to the dataset's real
    /// size): prevents tiny Table 9 datasets from shrinking to a handful
    /// of rows where validation accuracy is pure noise.
    pub min_rows: usize,
    /// Evaluation-cache sharing across matrix cells.
    pub cache_mode: CacheMode,
    /// The `evald` fleet to evaluate on: when set, every matrix
    /// evaluation goes through [`RemoteEvaluator`], sharded across the
    /// fleet by the stable cache-key fingerprint. `--remote` sets a
    /// fixed fleet; a supervisor's live spec lets it respawn workers
    /// mid-run while clients follow along.
    pub fleet: Option<SharedFleetSpec>,
    /// Number of local `evald` workers to spawn for the run (0 = none).
    /// The exp binaries spawn the fleet via [`spawn_supervised_fleet`]
    /// and put its live spec into `fleet`.
    pub workers: usize,
    /// Maximum respawns per worker slot for a supervised `--workers`
    /// fleet.
    pub supervise_max_restarts: u32,
    /// Base respawn backoff in milliseconds for a supervised fleet
    /// (doubles per restart of the same slot, plus seeded jitter).
    pub supervise_backoff_ms: u64,
    /// Enable the prefix-transform cache ([`autofp_core::PrefixCache`]):
    /// one cache per *dataset* at [`PrefixCache::DEFAULT_BYTE_BUDGET`],
    /// shared across every model group and algorithm cell of that
    /// dataset (prefix keys exclude the model). Off by default — unlike
    /// the trial cache it holds whole dataset copies, so it is opt-in
    /// per run.
    pub prefix_cache: bool,
    /// Write a deterministic per-cell TSV (see [`cells_tsv`]) to this
    /// path after the matrix run — CI diffs it across cache modes to
    /// assert cell-level byte-identity.
    pub cells_out: Option<std::path::PathBuf>,
    /// Durable trial repository directory (`autofp_core::repo`): every
    /// (dataset, model) group's shared cache preloads its context
    /// segment before the run and writes finished trials through to it,
    /// so an interrupted matrix resumes from disk — the rerun evaluates
    /// only missing trials and is bit-identical to an uninterrupted
    /// cold run. Requires [`CacheMode::Shared`].
    pub trial_store: Option<std::path::PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.05,
            budget: Budget::wall_clock(Duration::from_millis(300)),
            seed: 7,
            n_datasets: Some(12),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            max_len: 7,
            max_rows: 1200,
            min_rows: 160,
            cache_mode: CacheMode::Shared,
            fleet: None,
            workers: 0,
            supervise_max_restarts: 3,
            supervise_backoff_ms: 50,
            prefix_cache: false,
            cells_out: None,
            trial_store: None,
        }
    }
}

impl HarnessConfig {
    /// Parse this process's CLI arguments over the defaults (see
    /// [`HarnessConfig::try_from_arg_slice`]); invalid arguments print
    /// a one-line error and exit with status 2.
    pub fn from_args() -> HarnessConfig {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_from_arg_slice(&args) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`HarnessConfig::try_from_arg_slice`] that panics on invalid
    /// arguments — the test-friendly wrapper.
    pub fn from_arg_slice(args: &[String]) -> HarnessConfig {
        match Self::try_from_arg_slice(args) {
            Ok(cfg) => cfg,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Parse `--key value` style arguments over the defaults.
    ///
    /// Recognized keys: `--scale`, `--budget-ms`, `--evals`, `--seed`,
    /// `--datasets` (count or `all`), `--threads`, `--max-len`,
    /// `--cache` (`shared`/`off`), `--prefix-cache` (valueless:
    /// enables the prefix-transform cache), `--cells-out`
    /// (deterministic per-cell TSV path), `--trial-store` (durable
    /// trial repository directory; see [`HarnessConfig::trial_store`]),
    /// `--remote` (comma-separated worker addresses), `--workers`
    /// (local worker processes to spawn), `--supervise-max-restarts` /
    /// `--supervise-backoff-ms` (supervisor knobs for a `--workers`
    /// fleet).
    ///
    /// Rejected outright: an explicit `--workers 0` (a zero-worker
    /// fleet can serve nothing — omit the flag for an in-process run),
    /// `--remote` addresses that are not unique `host:port` pairs with
    /// a nonzero port, `--workers` combined with `--remote` (spawn
    /// a local fleet *or* point at an existing one, not both), an
    /// empty `--cells-out` or `--trial-store` path, and `--trial-store`
    /// without [`CacheMode::Shared`] (the durable layer preloads and
    /// writes through the per-group shared caches, so there is nothing
    /// to attach it to under `off`).
    pub fn try_from_arg_slice(args: &[String]) -> Result<HarnessConfig, String> {
        fn num<T: std::str::FromStr>(val: &str, what: &str) -> Result<T, String> {
            val.parse().map_err(|_| format!("{what}, got `{val}`"))
        }
        let mut cfg = HarnessConfig::default();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].as_str();
            // `--prefix-cache` is the one valueless flag.
            if key == "--prefix-cache" {
                cfg.prefix_cache = true;
                i += 1;
                continue;
            }
            let val = args.get(i + 1).cloned().unwrap_or_default();
            match key {
                "--scale" => cfg.scale = num(&val, "--scale takes a float")?,
                "--budget-ms" => {
                    let ms: u64 = num(&val, "--budget-ms takes an integer")?;
                    cfg.budget = Budget::wall_clock(Duration::from_millis(ms));
                }
                "--evals" => {
                    let n: usize = num(&val, "--evals takes an integer")?;
                    cfg.budget = Budget::evals(n);
                }
                "--seed" => cfg.seed = num(&val, "--seed takes an integer")?,
                "--datasets" => {
                    cfg.n_datasets = if val == "all" {
                        None
                    } else {
                        Some(num(&val, "--datasets takes a count or `all`")?)
                    };
                }
                "--threads" => cfg.threads = num(&val, "--threads takes an integer")?,
                "--max-len" => cfg.max_len = num(&val, "--max-len takes an integer")?,
                "--max-rows" => cfg.max_rows = num(&val, "--max-rows takes an integer")?,
                "--min-rows" => cfg.min_rows = num(&val, "--min-rows takes an integer")?,
                "--cache" => {
                    cfg.cache_mode = match val.as_str() {
                        "shared" => CacheMode::Shared,
                        "off" => CacheMode::Off,
                        other => return Err(format!("--cache takes shared|off, got {other}")),
                    };
                }
                "--cells-out" => {
                    if val.is_empty() {
                        return Err("--cells-out needs a file path".into());
                    }
                    cfg.cells_out = Some(val.clone().into());
                }
                "--trial-store" => {
                    if val.is_empty() {
                        return Err("--trial-store needs a directory path".into());
                    }
                    cfg.trial_store = Some(val.clone().into());
                }
                "--remote" => {
                    let addrs: Vec<String> =
                        val.split(',').filter(|s| !s.is_empty()).map(String::from).collect();
                    if addrs.is_empty() {
                        return Err("--remote needs at least one host:port address".into());
                    }
                    for (idx, addr) in addrs.iter().enumerate() {
                        let well_formed = addr.rsplit_once(':').is_some_and(|(host, port)| {
                            !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0)
                        });
                        if !well_formed {
                            return Err(format!(
                                "--remote address `{addr}` is not `host:port` with a nonzero port"
                            ));
                        }
                        if addrs[..idx].contains(addr) {
                            return Err(format!(
                                "--remote lists `{addr}` more than once; \
                                 each worker address must be unique"
                            ));
                        }
                    }
                    cfg.fleet = Some(SharedFleetSpec::fixed(addrs));
                }
                "--workers" => {
                    let n: usize = num(&val, "--workers takes an integer")?;
                    if n == 0 {
                        return Err(
                            "--workers 0 would spawn an empty fleet; \
                             omit --workers for an in-process run"
                                .into(),
                        );
                    }
                    cfg.workers = n;
                }
                "--supervise-max-restarts" => {
                    cfg.supervise_max_restarts =
                        num(&val, "--supervise-max-restarts takes an integer")?;
                }
                "--supervise-backoff-ms" => {
                    cfg.supervise_backoff_ms =
                        num(&val, "--supervise-backoff-ms takes an integer")?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 2;
        }
        if cfg.workers > 0 && cfg.fleet.is_some() {
            return Err(
                "--workers spawns a local fleet and --remote points at an existing one; \
                 pass only one of them"
                    .into(),
            );
        }
        if cfg.trial_store.is_some() && cfg.cache_mode != CacheMode::Shared {
            return Err(
                "--trial-store preloads and writes through the per-group shared caches; \
                 it requires --cache shared"
                    .into(),
            );
        }
        Ok(cfg)
    }

    /// The [`SupervisorConfig`] a `--workers` fleet should run with,
    /// built from the `--supervise-*` knobs over supervisor defaults.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: self.supervise_max_restarts,
            backoff: Duration::from_millis(self.supervise_backoff_ms),
            ..SupervisorConfig::default()
        }
    }

    /// The dataset specs this run covers.
    pub fn specs(&self) -> Vec<DatasetSpec> {
        let mut specs = registry();
        if let Some(n) = self.n_datasets {
            specs.truncate(n);
        }
        specs
    }

    /// The scale a dataset is actually generated at: `scale` tightened
    /// by the `max_rows` cap and lifted by the `min_rows` floor.
    ///
    /// Remote workers regenerate datasets from (name, scale) alone, so
    /// this must be the *exact* value [`HarnessConfig::generate`] uses —
    /// both call this one function.
    pub fn effective_scale(&self, spec: &DatasetSpec) -> f64 {
        let cap_scale = self.max_rows as f64 / spec.rows as f64;
        let floor_scale = self.min_rows as f64 / spec.rows as f64;
        let scale = self.scale.min(cap_scale).max(floor_scale);
        scale.clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Generate a dataset at this config's scale, additionally capped at
    /// `max_rows` rows (the cap tightens the effective scale rather than
    /// subsampling after the fact, so generation stays cheap).
    pub fn generate(&self, spec: &DatasetSpec) -> Dataset {
        spec.generate(self.effective_scale(spec))
    }

    /// [`HarnessConfig::generate`] for every spec, fanned across
    /// `threads` pool workers; the result is in `specs` order.
    pub fn generate_all(&self, specs: &[DatasetSpec]) -> Vec<Dataset> {
        pool_map(self.threads.max(1), specs.len(), |i| self.generate(&specs[i]))
    }

    /// A fresh prefix-transform cache, as the matrix builds one per
    /// dataset under `prefix_cache`.
    pub fn new_prefix_cache(&self) -> PrefixCache {
        PrefixCache::new()
    }

    /// The evaluation-context identity of a (dataset, model) matrix
    /// group: exactly what a remote `evald` worker materializes for it.
    /// Its [`EvalContext::canonical`] string doubles as the
    /// trial-store segment key, so local, remote, and replay runs
    /// over the same config share one on-disk trial identity.
    pub fn eval_context(&self, spec: &DatasetSpec, model: ModelKind) -> EvalContext {
        EvalContext {
            dataset: spec.name.to_string(),
            scale: self.effective_scale(spec),
            model,
            train_fraction: 0.8,
            seed: self.seed,
            train_subsample: None,
        }
    }
}

/// Result of one scenario cell (dataset × model × algorithm).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub dataset: String,
    pub model: ModelKind,
    pub algorithm: &'static str,
    pub baseline: f64,
    pub best_accuracy: f64,
    pub n_evals: usize,
    pub breakdown: PhaseBreakdown,
    pub best_pipeline: String,
    /// Worst-error trials this cell hit.
    pub failures: FailureStats,
}

/// A full scenario-matrix run: per-cell results plus matrix-level
/// aggregate cache and failure tallies.
///
/// `cells` is deterministically ordered (dataset, model, algorithm) and
/// bit-identical across worker-thread counts and cache modes; `cache`
/// counters depend on cell scheduling under [`CacheMode::Shared`] (who
/// hits and who misses races), so only the *results* are reproducible,
/// not the hit/miss split.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// One entry per (dataset, model, algorithm) cell, sorted.
    pub cells: Vec<CellResult>,
    /// Trial-cache counters folded over the per-group shared caches
    /// (all zero under [`CacheMode::Off`]).
    pub cache: CacheStats,
    /// Prefix-transform cache counters folded over the per-dataset
    /// prefix caches (all zero when `prefix_cache` was off).
    pub prefix: PrefixStats,
    /// Failure tallies folded over every cell.
    pub failures: FailureStats,
    /// Fleet robustness counters (reconnects, retries, failovers,
    /// circuit-opens, respawns) from the shared remote pool; `None`
    /// for in-process runs. Deliberately excluded from [`cells_tsv`]:
    /// how the fleet healed is nondeterministic, what it computed is
    /// not.
    pub fleet: Option<FleetStats>,
    /// Durable trial-store counters folded over every context segment
    /// the run opened; `None` without `--trial-store`. Excluded from
    /// [`cells_tsv`] for the same reason as cache counters: how many
    /// trials were preloaded vs appended depends on what a previous
    /// (possibly interrupted) run persisted, while the cell results do
    /// not.
    pub store: Option<StoreStats>,
}

/// Per-socket-operation timeout for remote evaluations. Generous: a
/// slow evaluation must not be misread as a dead worker, while a dead
/// worker fails fast anyway (connection refused is immediate).
const REMOTE_TIMEOUT: Duration = Duration::from_secs(60);

/// Run `algorithms` on every (dataset, model) pair, fanned across cells
/// through the core worker pool; each search is single-threaded (paper:
/// `n_jobs = 1`).
///
/// With `config.fleet` set, every evaluator is a
/// [`RemoteEvaluator`] sharding requests over the `evald` fleet;
/// workers regenerate the named dataset at the same effective scale, so
/// results are bit-identical to an in-process run (pinned by
/// `tests/distributed.rs`).
pub fn run_matrix(
    specs: &[DatasetSpec],
    models: &[ModelKind],
    algorithms: &[AlgName],
    config: &HarnessConfig,
) -> MatrixOutcome {
    let Some(fleet) = &config.fleet else {
        return run_matrix_with(specs, models, algorithms, config, |d, c, prefix| {
            let mut ev = Evaluator::new(d, c);
            if let Some(cache) = prefix {
                ev = ev.with_prefix_cache(cache.clone());
            }
            Box::new(ev)
        });
    };
    // One pool for the whole matrix: every (dataset, model) group's
    // backend shares its connections, circuit breakers, and fleet
    // membership, so a supervisor's epoch bumps reach all of them.
    let pool = TcpPool::new(fleet.clone(), REMOTE_TIMEOUT);
    let factory_pool = pool.clone();
    // Remote evaluation ignores the harness prefix cache: the
    // workers own per-context prefix caches on their side.
    let mut outcome = run_matrix_with(specs, models, algorithms, config, move |d, c, _prefix| {
        let spec = spec_by_name(&d.name)
            .unwrap_or_else(|| panic!("remote mode needs registry dataset, got `{}`", d.name));
        let ctx = EvalContext {
            dataset: d.name.clone(),
            scale: config.effective_scale(&spec),
            model: c.model,
            train_fraction: c.train_fraction,
            seed: c.seed,
            train_subsample: c.train_subsample.map(|v| v as u64),
        };
        Box::new(RemoteEvaluator::new(Box::new(factory_pool.backend(ctx)), c))
    });
    outcome.fleet = Some(pool.fleet_stats());
    outcome
}

/// Locate the `evald` worker binary: the `EVALD_BIN` environment
/// variable when set, else a sibling of the current executable (all
/// workspace binaries land in the same target directory).
pub fn evald_binary() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("EVALD_BIN") {
        return path.into();
    }
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe.parent().unwrap_or_else(|| std::path::Path::new("."));
    dir.join(format!("evald{}", std::env::consts::EXE_SUFFIX))
}

/// Spawn `n` supervised local `evald` workers (see [`evald_binary`])
/// for a `--workers N` run: the returned [`FleetSupervisor`] owns the
/// children, and its [`FleetSupervisor::monitor`] loop respawns dead
/// ones and republishes membership. Route the matrix over its live
/// spec by putting [`FleetSupervisor::fleet`] into
/// [`HarnessConfig::fleet`].
pub fn spawn_supervised_fleet(
    n: usize,
    config: SupervisorConfig,
) -> std::io::Result<FleetSupervisor> {
    FleetSupervisor::spawn(&evald_binary(), n, config)
}

/// [`run_matrix`] with a custom evaluator factory: `make_eval` builds
/// the evaluator for each (dataset, model) group, letting tests wrap
/// the real [`Evaluator`] (fault injection, instrumentation) without a
/// parallel harness implementation. The factory's third argument is
/// the dataset's shared prefix cache when `config.prefix_cache` is on
/// (attach it with [`Evaluator::with_prefix_cache`]); factories that
/// ignore it simply run without prefix reuse.
pub fn run_matrix_with<F>(
    specs: &[DatasetSpec],
    models: &[ModelKind],
    algorithms: &[AlgName],
    config: &HarnessConfig,
    make_eval: F,
) -> MatrixOutcome
where
    F: Fn(&Dataset, EvalConfig, Option<&PrefixCache>) -> Box<dyn Evaluate> + Sync,
{
    // Set-up fans out over `config.threads` like the cells do, but it
    // ends before the first cell starts, so no cell's time hides any of
    // it. Generate datasets once, share across threads.
    let datasets = config.generate_all(specs);

    // One prefix cache per dataset, shared across every model group:
    // prefix keys exclude the model, so LR/XGB/MLP cells over one
    // dataset reuse each other's transform states.
    let prefix_caches: Option<Vec<PrefixCache>> = config
        .prefix_cache
        .then(|| datasets.iter().map(|_| config.new_prefix_cache()).collect());

    // Work items: (dataset index, model, algorithm).
    let mut cells: Vec<(usize, ModelKind, AlgName)> = Vec::new();
    for (di, _) in datasets.iter().enumerate() {
        for &m in models {
            for &a in algorithms {
                cells.push((di, m, a));
            }
        }
    }

    // Evaluators are built once per (dataset, model) to share the
    // baseline measurement across algorithms; under `CacheMode::Shared`
    // the group also owns the cache all of its cells reuse. Group `g`
    // is (dataset `g / models.len()`, model `g % models.len()`), so the
    // in-order pool result reshapes into `evaluators[di][mi]`.
    let mut built = pool_map(config.threads.max(1), datasets.len() * models.len(), |g| {
        let di = g / models.len();
        make_eval(
            &datasets[di],
            EvalConfig {
                model: models[g % models.len()],
                train_fraction: 0.8,
                seed: config.seed,
                train_subsample: None,
            },
            prefix_caches.as_ref().map(|caches| &caches[di]),
        )
    })
    .into_iter();
    let evaluators: Vec<Vec<Box<dyn Evaluate>>> =
        datasets.iter().map(|_| built.by_ref().take(models.len()).collect()).collect();
    let group_caches: Vec<Vec<EvalCache>> = if config.cache_mode == CacheMode::Shared {
        datasets
            .iter()
            .map(|_| models.iter().map(|_| EvalCache::new()).collect())
            .collect()
    } else {
        Vec::new()
    };

    // Durable layer: one on-disk segment per (dataset, model) group,
    // preloaded into the group's shared cache before any cell runs and
    // attached so finished trials write through. A store open failure
    // is fatal — silently running without persistence would break the
    // resume guarantee the caller asked for.
    if let Some(dir) = &config.trial_store {
        assert_eq!(
            config.cache_mode,
            CacheMode::Shared,
            "trial_store requires CacheMode::Shared (it rides the group caches)"
        );
        for (di, spec) in specs.iter().enumerate() {
            for (mi, &m) in models.iter().enumerate() {
                let context = config.eval_context(spec, m).canonical();
                let evaluator = evaluators[di][mi].as_ref();
                let meta = StoreMeta {
                    baseline_accuracy: evaluator.baseline_accuracy(),
                    train_rows: evaluator.train_rows() as u64,
                };
                group_caches[di][mi].attach_segment(dir, &context, meta).unwrap_or_else(
                    |err| panic!("--trial-store segment for `{context}`: {err}"),
                );
            }
        }
    }
    let model_index = |m: ModelKind| models.iter().position(|&x| x == m).expect("model listed");

    let mut out: Vec<CellResult> =
        pool_map(config.threads.max(1), cells.len(), |i| {
            let (di, model, alg) = cells[i];
            let mi = model_index(model);
            let evaluator = evaluators[di][mi].as_ref();
            let cache: Option<&EvalCache> = match config.cache_mode {
                CacheMode::Shared => Some(&group_caches[di][mi]),
                CacheMode::Off => None,
            };
            let seed = autofp_linalg::rng::derive_seed(config.seed, (i as u64) * 31);
            let mut searcher =
                make_searcher(alg, ParamSpace::default_space(), config.max_len, seed);
            let outcome =
                run_search_with(searcher.as_mut(), evaluator, config.budget, Some(1), cache);
            CellResult {
                dataset: datasets[di].name.clone(),
                model,
                algorithm: alg.as_str(),
                baseline: evaluator.baseline_accuracy(),
                best_accuracy: outcome.best_accuracy(),
                n_evals: outcome.history.len(),
                breakdown: outcome.breakdown,
                best_pipeline: outcome
                    .best()
                    .map(|t| t.pipeline.to_string())
                    .unwrap_or_else(|| "(none)".into()),
                failures: outcome.failures,
            }
        });

    let mut failures = FailureStats::new();
    for cell in &out {
        failures.absorb(&cell.failures);
    }
    // Each shared group cache, and the segment attached to it, is
    // absorbed exactly once, after every cell that touched it has
    // finished (so every write-through has landed).
    let mut cache = CacheStats::default();
    let mut store = config.trial_store.as_ref().map(|_| StoreStats::default());
    for shared in group_caches.iter().flatten() {
        cache.absorb(&shared.stats());
        if let (Some(total), Some(segment)) = (&mut store, shared.store()) {
            total.absorb(&segment.stats());
        }
    }
    // Likewise each per-dataset prefix cache, exactly once.
    let mut prefix = PrefixStats::default();
    for shared in prefix_caches.iter().flatten() {
        prefix.absorb(&shared.stats());
    }

    out.sort_by(|a, b| {
        (a.dataset.clone(), a.model.name(), a.algorithm)
            .cmp(&(b.dataset.clone(), b.model.name(), b.algorithm))
    });
    let outcome = MatrixOutcome { cells: out, cache, prefix, failures, fleet: None, store };
    if let Some(path) = &config.cells_out {
        if let Err(err) = std::fs::write(path, cells_tsv(&outcome)) {
            eprintln!("warning: could not write --cells-out {}: {err}", path.display());
        }
    }
    outcome
}

/// Serialize everything deterministic about a matrix run as TSV: cell
/// identity, f64 *bit patterns* for baseline and best accuracy, eval
/// counts, winning pipelines, and failure tallies. Cache counters and
/// wall-clock fields are deliberately excluded (hit/miss splits race
/// under shared caches; timings are nondeterministic), so two runs of
/// the same matrix config are byte-identical across thread counts,
/// cache modes, and prefix-cache settings — CI diffs this artifact to
/// pin cell-level byte-identity.
pub fn cells_tsv(outcome: &MatrixOutcome) -> String {
    use autofp_core::FailureKind;
    use std::fmt::Write as _;
    let mut s = String::from(
        "dataset\tmodel\talgorithm\tbaseline_bits\tbest_accuracy_bits\tn_evals\tbest_pipeline\tfailures\n",
    );
    for c in &outcome.cells {
        let failures: Vec<String> = FailureKind::ALL
            .iter()
            .map(|&k| format!("{}={}", k.name(), c.failures.count(k)))
            .collect();
        let _ = writeln!(
            s,
            "{}\t{}\t{}\t{:016x}\t{:016x}\t{}\t{}\t{}",
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

/// Print a fixed-width table: a header row and data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:<w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Print a matrix run's aggregate cache/failure stats block (rendered by
/// [`autofp_core::report::matrix_stats_markdown`]) under a results table.
pub fn print_matrix_stats(outcome: &MatrixOutcome) {
    println!();
    let prefix = (outcome.prefix.lookups() > 0).then_some(&outcome.prefix);
    print!(
        "{}",
        autofp_core::report::matrix_stats_markdown(
            &outcome.cache,
            prefix,
            outcome.store.as_ref(),
            &outcome.failures,
        )
    );
    if let Some(fleet) = &outcome.fleet {
        println!();
        print!("{}", autofp_core::report::fleet_stats_markdown(fleet));
    }
}

/// Format a float with 4 decimals.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_slice_parses_remote_and_worker_flags() {
        let cfg =
            HarnessConfig::from_arg_slice(&argv(&["--remote", "127.0.0.1:4000,127.0.0.1:4001"]));
        let fleet = cfg.fleet.as_ref().expect("--remote sets a fixed fleet").snapshot();
        assert_eq!(fleet.addrs, vec!["127.0.0.1:4000", "127.0.0.1:4001"]);
        let cfg = HarnessConfig::from_arg_slice(&argv(&["--workers", "2"]));
        assert_eq!(cfg.workers, 2);
        assert!(cfg.fleet.is_none());
    }

    #[test]
    fn invalid_worker_and_remote_combinations_are_rejected() {
        // An explicit zero-worker fleet is an error, not a silent no-op.
        let err = HarnessConfig::try_from_arg_slice(&argv(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers 0"), "{err}");
        // Spawning a fleet and pointing at an existing one conflict.
        let err = HarnessConfig::try_from_arg_slice(&argv(&[
            "--workers",
            "2",
            "--remote",
            "127.0.0.1:4000",
        ]))
        .unwrap_err();
        assert!(err.contains("only one"), "{err}");
        // Duplicate worker addresses would double-count a shard.
        let err = HarnessConfig::try_from_arg_slice(&argv(&[
            "--remote",
            "127.0.0.1:4000,127.0.0.1:4000",
        ]))
        .unwrap_err();
        assert!(err.contains("unique"), "{err}");
        // Malformed addresses: no port, empty host, non-numeric or
        // out-of-range or zero port.
        for bad in ["localhost", ":4000", "h:port", "h:0", "h:70000", ""] {
            let args = argv(&["--remote", bad]);
            assert!(HarnessConfig::try_from_arg_slice(&args).is_err(), "accepted `{bad}`");
        }
        // Unknown flags and unparsable values surface as errors too.
        assert!(HarnessConfig::try_from_arg_slice(&argv(&["--bogus", "1"])).is_err());
        assert!(HarnessConfig::try_from_arg_slice(&argv(&["--workers", "many"])).is_err());
    }

    #[test]
    fn supervise_knobs_parse_into_the_supervisor_config() {
        let cfg = HarnessConfig::from_arg_slice(&argv(&[
            "--workers",
            "2",
            "--supervise-max-restarts",
            "5",
            "--supervise-backoff-ms",
            "20",
        ]));
        assert_eq!(cfg.supervise_max_restarts, 5);
        assert_eq!(cfg.supervise_backoff_ms, 20);
        let sup = cfg.supervisor_config();
        assert_eq!(sup.max_restarts, 5);
        assert_eq!(sup.backoff, Duration::from_millis(20));
        // Defaults flow through unchanged.
        let defaults = HarnessConfig::default().supervisor_config();
        assert_eq!(defaults.max_restarts, 3);
        assert_eq!(defaults.backoff, Duration::from_millis(50));
    }

    #[test]
    fn trial_store_flag_parses_and_requires_shared_cache() {
        let cfg = HarnessConfig::from_arg_slice(&argv(&["--trial-store", "/tmp/afp-repo"]));
        assert_eq!(cfg.trial_store.as_deref(), Some(std::path::Path::new("/tmp/afp-repo")));
        assert_eq!(cfg.cache_mode, CacheMode::Shared);
        // The durable layer rides the per-group shared caches; without
        // them it has nothing to attach to.
        let err = HarnessConfig::try_from_arg_slice(&argv(&[
            "--trial-store",
            "/tmp/afp-repo",
            "--cache",
            "off",
        ]))
        .unwrap_err();
        assert!(err.contains("--cache shared"), "{err}");
        // A missing value is an error, not an empty path.
        assert!(HarnessConfig::try_from_arg_slice(&argv(&["--trial-store"])).is_err());
    }

    #[test]
    fn eval_context_matches_the_remote_identity() {
        let cfg = HarnessConfig::default();
        let spec = registry().into_iter().next().unwrap();
        let ctx = cfg.eval_context(&spec, ModelKind::Lr);
        assert_eq!(ctx.dataset, spec.name);
        assert_eq!(ctx.scale, cfg.effective_scale(&spec));
        assert_eq!(ctx.train_fraction, 0.8);
        assert_eq!(ctx.seed, cfg.seed);
        assert_eq!(ctx.train_subsample, None);
        // The canonical string is the repo segment key: stable per
        // config, distinct per model.
        assert_ne!(
            cfg.eval_context(&spec, ModelKind::Lr).canonical(),
            cfg.eval_context(&spec, ModelKind::Xgb).canonical()
        );
    }

    #[test]
    fn cache_flag_takes_shared_or_off_only() {
        let cfg = HarnessConfig::from_arg_slice(&argv(&["--cache", "off"]));
        assert_eq!(cfg.cache_mode, CacheMode::Off);
        let cfg = HarnessConfig::from_arg_slice(&argv(&["--cache", "shared"]));
        assert_eq!(cfg.cache_mode, CacheMode::Shared);
        // Trial caches are always unbounded and prefix caches always
        // run at their default budget: no flag sizes or splits them.
        for args in [
            &["--cache", "per-cell"][..],
            &["--cache-cap", "3"],
            &["--prefix-cache-bytes", "65536"],
        ] {
            assert!(HarnessConfig::try_from_arg_slice(&argv(args)).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn cells_out_needs_a_path() {
        // As the last argument, `--cells-out` has no value: refusing it
        // up front beats running the whole matrix and then failing to
        // write to an empty path.
        let err = HarnessConfig::try_from_arg_slice(&argv(&["--evals", "2", "--cells-out"]))
            .unwrap_err();
        assert!(err.contains("--cells-out"), "{err}");
        assert!(HarnessConfig::try_from_arg_slice(&argv(&["--cells-out", ""])).is_err());
    }

    #[test]
    fn effective_scale_matches_generate() {
        let mut cfg = HarnessConfig::default();
        cfg.scale = 0.01;
        cfg.min_rows = 150;
        cfg.max_rows = 500;
        for spec in cfg.specs() {
            let scale = cfg.effective_scale(&spec);
            assert_eq!(cfg.generate(&spec).n_rows(), spec.generate(scale).n_rows(), "{}", spec.name);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = HarnessConfig::default();
        assert!(cfg.scale > 0.0 && cfg.scale <= 1.0);
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.specs().len(), 12);
        assert_eq!(cfg.cache_mode, CacheMode::Shared);
    }

    #[test]
    fn matrix_runs_small_grid() {
        let mut cfg = HarnessConfig::default();
        cfg.scale = 0.2;
        cfg.budget = Budget::evals(4);
        cfg.threads = 2;
        let specs: Vec<DatasetSpec> = registry().into_iter().take(2).collect();
        let outcome = run_matrix(
            &specs,
            &[ModelKind::Lr],
            &[AlgName::Rs, AlgName::TevoH],
            &cfg,
        );
        assert_eq!(outcome.cells.len(), 4);
        for r in &outcome.cells {
            assert_eq!(r.n_evals, 4);
            assert!((0.0..=1.0).contains(&r.best_accuracy));
            assert!(r.best_accuracy >= 0.0);
        }
        // Baselines agree across algorithms of the same cell pair.
        assert_eq!(outcome.cells[0].baseline, outcome.cells[1].baseline);
        // Every evaluation went through the shared caches.
        assert_eq!(outcome.cache.lookups(), 16);
    }

    #[test]
    fn matrix_setup_builds_group_evaluators_concurrently() {
        // Each factory call announces itself on its own channel, then
        // waits for the other call's announcement: both arrive only if
        // both calls are in flight at once. Serial construction leaves
        // the first call waiting out its timeout.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{mpsc, Mutex};
        let mut cfg = HarnessConfig::default();
        cfg.budget = Budget::evals(2);
        cfg.threads = 2;
        let specs: Vec<DatasetSpec> = registry().into_iter().take(1).collect();
        let models = [ModelKind::Lr, ModelKind::Xgb];
        let (to_xgb, from_lr) = mpsc::channel();
        let (to_lr, from_xgb) = mpsc::channel();
        let ends = [(to_xgb, Mutex::new(from_xgb)), (to_lr, Mutex::new(from_lr))];
        let met = AtomicUsize::new(0);
        let outcome = run_matrix_with(&specs, &models, &[AlgName::Rs], &cfg, |d, c, _| {
            let (to_peer, from_peer) = &ends[usize::from(c.model == ModelKind::Xgb)];
            to_peer.send(()).expect("peer receiver lives as long as the test");
            let peer = from_peer.lock().expect("one caller per receiver");
            if peer.recv_timeout(Duration::from_secs(10)).is_ok() {
                met.fetch_add(1, Ordering::SeqCst);
            }
            Box::new(Evaluator::new(d, c))
        });
        assert_eq!(met.into_inner(), 2, "both factory calls must be in flight together");
        assert_eq!(outcome.cells.len(), 2);
    }

    #[test]
    fn cache_modes_agree_on_results() {
        let mut cfg = HarnessConfig::default();
        cfg.scale = 0.2;
        cfg.budget = Budget::evals(4);
        cfg.threads = 2;
        let specs: Vec<DatasetSpec> = registry().into_iter().take(1).collect();
        let models = [ModelKind::Lr];
        let algs = [AlgName::Rs, AlgName::TevoH];
        let shared = run_matrix(&specs, &models, &algs, &cfg);
        cfg.cache_mode = CacheMode::Off;
        let off = run_matrix(&specs, &models, &algs, &cfg);
        assert_eq!(shared.cells.len(), off.cells.len());
        for (a, b) in shared.cells.iter().zip(&off.cells) {
            assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
            assert_eq!(a.best_pipeline, b.best_pipeline);
        }
        assert_eq!(off.cache.lookups(), 0, "CacheMode::Off performs no lookups");
    }

    #[test]
    fn generate_respects_floor_and_cap() {
        let mut cfg = HarnessConfig::default();
        cfg.scale = 0.01;
        cfg.min_rows = 150;
        cfg.max_rows = 500;
        let specs = registry();
        let tiny = specs.iter().find(|s| s.name == "heart").unwrap(); // 242 rows
        let big = specs.iter().find(|s| s.name == "covtype").unwrap(); // 464809 rows
        // Floor: heart at scale 0.01 would be 2 rows; floor lifts it to 150.
        assert_eq!(cfg.generate(tiny).n_rows(), 150);
        // covtype at 0.01 would be 4648; cap brings it to 500.
        assert_eq!(cfg.generate(big).n_rows(), 500);
        // Floor can never exceed the dataset's true size.
        cfg.min_rows = 10_000;
        assert_eq!(cfg.generate(tiny).n_rows(), 242);
    }

    #[test]
    fn prefix_cache_flags_parse() {
        // `--prefix-cache` is the one valueless flag the parser accepts.
        let cfg = HarnessConfig::from_arg_slice(&argv(&["--prefix-cache"]));
        assert!(cfg.prefix_cache);
        // The flag composes with ordinary `--key value` pairs on either side.
        let cfg = HarnessConfig::from_arg_slice(&argv(&[
            "--workers",
            "2",
            "--prefix-cache",
            "--cells-out",
            "/tmp/cells.tsv",
        ]));
        assert!(cfg.prefix_cache);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.cells_out.as_deref(), Some(std::path::Path::new("/tmp/cells.tsv")));
    }

    #[test]
    fn prefix_cache_matrix_is_bit_identical_and_saves_steps() {
        let mut cfg = HarnessConfig::default();
        cfg.scale = 0.2;
        cfg.budget = Budget::evals(6);
        cfg.threads = 2;
        let specs: Vec<DatasetSpec> = registry().into_iter().take(2).collect();
        let models = [ModelKind::Lr, ModelKind::Xgb];
        let algs = [AlgName::Rs, AlgName::Pmne];
        let plain = run_matrix(&specs, &models, &algs, &cfg);
        assert_eq!(plain.prefix.lookups(), 0, "prefix cache is opt-in");
        cfg.prefix_cache = true;
        let cached = run_matrix(&specs, &models, &algs, &cfg);
        assert_eq!(plain.cells.len(), cached.cells.len());
        for (a, b) in plain.cells.iter().zip(&cached.cells) {
            assert_eq!(a.baseline.to_bits(), b.baseline.to_bits());
            assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits(), "{}", a.dataset);
            assert_eq!(a.best_pipeline, b.best_pipeline);
            assert_eq!(a.n_evals, b.n_evals);
        }
        assert!(cached.prefix.lookups() > 0, "every non-empty pipeline probes the cache");
        assert!(cached.prefix.hits > 0, "searchers revisit shared prefixes even at tiny budgets");
        assert!(cached.prefix.steps_saved > 0, "hits skip at least their prefix depth in steps");
        // The deterministic cell serialization cannot tell the two runs apart.
        assert_eq!(cells_tsv(&plain), cells_tsv(&cached));
    }
}

/// Shared driver for the Figure 8/9 One-step vs Two-step comparisons.
pub mod extended_cmp {
    use super::{f4, print_table, HarnessConfig};
    use autofp_core::{run_search, Budget, EvalConfig, Evaluator};
    use autofp_data::spec_by_name;
    use autofp_models::classifier::ModelKind;
    use autofp_preprocess::ParamSpace;
    use autofp_search::{OneStep, TwoStep};
    use std::time::Duration;

    /// Run One-step vs Two-step over a space on australian + madeline for
    /// all three models, across a time-limit sweep. Returns the number of
    /// One-step wins and total cells (for the binaries' summary lines).
    pub fn run(figure: &str, space_name: &str, make_space: fn() -> ParamSpace) -> (usize, usize) {
        let cfg = HarnessConfig::from_args();
        let max_ms = match cfg.budget {
            Budget { wall_clock: Some(d), .. } => d.as_millis() as u64,
            _ => 2000,
        };
        let limits: Vec<u64> = [10, 4, 2, 1].iter().map(|div| (max_ms / div).max(10)).collect();

        println!("== {figure}: One-step vs Two-step, {space_name} space ==");
        println!("(scale {}, time limits {:?} ms)\n", cfg.scale, limits);

        let mut header = vec!["Dataset".to_string(), "Model".to_string(), "Strategy".to_string()];
        header.extend(limits.iter().map(|ms| format!("{ms} ms")));
        header.push("".into());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

        let mut rows = Vec::new();
        let mut one_wins = 0usize;
        let mut total = 0usize;
        for name in ["austrilian", "madeline"] {
            let spec = spec_by_name(name).expect("registry dataset");
            let dataset = cfg.generate(&spec);
            for model in ModelKind::ALL {
                let ev = Evaluator::new(
                    &dataset,
                    EvalConfig { model, train_fraction: 0.8, seed: cfg.seed, train_subsample: None },
                );
                let mut one_row = vec![name.to_string(), model.name().into(), "One-step".into()];
                let mut two_row = vec![name.to_string(), model.name().into(), "Two-step".into()];
                for &ms in &limits {
                    let budget = Budget::wall_clock(Duration::from_millis(ms));
                    let mut one = OneStep::new(make_space(), cfg.max_len, cfg.seed);
                    let a1 = run_search(&mut one, &ev, budget).best_accuracy();
                    let mut two = TwoStep::new(make_space(), cfg.max_len, cfg.seed);
                    let a2 = run_search(&mut two, &ev, budget).best_accuracy();
                    one_row.push(f4(a1));
                    two_row.push(f4(a2));
                    total += 1;
                    if a1 >= a2 {
                        one_wins += 1;
                    }
                }
                let baseline = f4(ev.baseline_accuracy());
                one_row.push(format!("(no-FP {baseline})"));
                two_row.push(String::new());
                rows.push(one_row);
                rows.push(two_row);
            }
        }
        print_table(&header_refs, &rows);
        println!("\nOne-step wins or ties {one_wins}/{total} (dataset, model, limit) cells.");
        (one_wins, total)
    }
}

/// Shared driver for the Figure 10/11 AutoML-context comparisons.
pub mod automl_cmp {
    use super::{f4, print_table, HarnessConfig};
    use autofp_automl::{AutoSklearnFp, HpoSearch, TpotFp};
    use autofp_core::{pool_map, run_search, EvalConfig, Evaluator};
    use autofp_models::classifier::ModelKind;
    use autofp_preprocess::ParamSpace;
    use autofp_search::Pbt;

    /// Auto-FP (PBT over `make_space`) vs TPOT-FP vs Auto-Sklearn-FP vs
    /// HPO across the dataset × model grid, fanned across cells through
    /// the core worker pool.
    pub fn run(cfg: &HarnessConfig, figure: &str, space_name: &str, make_space: fn() -> ParamSpace) {
        let specs = cfg.specs();
        println!(
            "== {figure}: Auto-FP vs TPOT-FP vs AutoSklearn-FP vs HPO ({space_name} space) =="
        );
        println!("({} datasets, budget {:?}, scale {})\n", specs.len(), cfg.budget, cfg.scale);

        let datasets = cfg.generate_all(&specs);
        let mut cells = Vec::new();
        for di in 0..datasets.len() {
            for m in ModelKind::ALL {
                cells.push((di, m));
            }
        }
        let outputs: Vec<(Vec<String>, bool, bool)> =
            pool_map(cfg.threads.max(1), cells.len(), |i| {
                let (di, model) = cells[i];
                let seed = autofp_linalg::rng::derive_seed(cfg.seed, i as u64);
                let ev = Evaluator::new(
                    &datasets[di],
                    EvalConfig { model, train_fraction: 0.8, seed: cfg.seed, train_subsample: None },
                );
                let mut pbt = Pbt::new(make_space(), cfg.max_len, seed);
                let auto_fp = run_search(&mut pbt, &ev, cfg.budget).best_accuracy();
                let mut tpot = TpotFp::new(seed);
                let tpot_fp = run_search(&mut tpot, &ev, cfg.budget).best_accuracy();
                let mut ask = AutoSklearnFp;
                let ask_fp = run_search(&mut ask, &ev, cfg.budget).best_accuracy();
                let mut hpo = HpoSearch::new(model, seed);
                let hpo_out = hpo.run(ev.split(), cfg.budget);

                let row = vec![
                    datasets[di].name.clone(),
                    model.name().to_string(),
                    f4(ev.baseline_accuracy()),
                    f4(auto_fp),
                    f4(tpot_fp),
                    f4(ask_fp),
                    f4(hpo_out.best_accuracy),
                    if auto_fp >= tpot_fp && auto_fp >= hpo_out.best_accuracy {
                        "Auto-FP".into()
                    } else if tpot_fp >= hpo_out.best_accuracy {
                        "TPOT-FP".into()
                    } else {
                        "HPO".into()
                    },
                ];
                (row, auto_fp >= tpot_fp, auto_fp >= hpo_out.best_accuracy)
            });

        let mut rows = Vec::with_capacity(outputs.len());
        let mut beats_tpot = 0usize;
        let mut beats_hpo = 0usize;
        let total = outputs.len();
        for (row, tpot_ok, hpo_ok) in outputs {
            beats_tpot += usize::from(tpot_ok);
            beats_hpo += usize::from(hpo_ok);
            rows.push(row);
        }
        rows.sort();
        print_table(
            &["Dataset", "Model", "no-FP", "Auto-FP(PBT)", "TPOT-FP", "ASk-FP", "HPO", "Winner"],
            &rows,
        );
        println!(
            "\nAuto-FP beats or ties TPOT-FP in {beats_tpot}/{total} cells and HPO in {beats_hpo}/{total} cells.",
        );
    }
}
