//! Simulated search: replay a persisted trial repository with zero
//! real evaluations.
//!
//! A previous matrix run with `--trial-store DIR` persisted every
//! finished trial to an append-only on-disk repository. This binary
//! reruns the same dataset × model × algorithm matrix against that
//! repository alone — every evaluation is answered from disk
//! ([`ReplayEvaluator`]), no dataset is ever transformed and no model
//! is ever trained — the TabRepo-style "simulated search" the store
//! exists for.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_replay --
//!   --trial-store DIR [--scale S] [--evals N] [--datasets K|all]
//!   [--seed X] [--cells-out PATH]`
//!
//! The config flags must match the run that populated the store: the
//! repository is keyed by context identity (dataset, scale, model,
//! train fraction, seed, subsample), so a mismatched config resolves
//! to segments the original run never wrote. With a deterministic
//! `--evals` budget the replayed matrix is bit-identical to the run
//! that populated the store (CI `cmp`s the `--cells-out` TSVs); under
//! a wall-clock budget the search may propose a tail of pipelines the
//! store has never seen, which replay reports as missing.

use autofp_bench::{f4, print_matrix_stats, print_table, run_matrix_with, HarnessConfig};
use autofp_core::repo::segment_path;
use autofp_core::{EvalConfig, EvalError, Evaluate, ReplayEvaluator, Trial};
use autofp_data::spec_by_name;
use autofp_models::classifier::ModelKind;
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use autofp_search::AlgName;
use std::collections::BTreeMap;
use std::sync::Arc;

/// [`Evaluate`] by delegation to a shared [`ReplayEvaluator`], so the
/// binary can keep a handle to every group's replay counters while the
/// matrix owns the boxed evaluator.
struct SharedReplay(Arc<ReplayEvaluator>);

impl Evaluate for SharedReplay {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        self.0.evaluate_raw(pipeline, fraction, cancel)
    }

    fn config(&self) -> &EvalConfig {
        self.0.config()
    }

    fn baseline_accuracy(&self) -> f64 {
        self.0.baseline_accuracy()
    }

    fn train_rows(&self) -> usize {
        self.0.train_rows()
    }
}

fn main() {
    let mut cfg = HarnessConfig::from_args();
    let Some(dir) = cfg.trial_store.take() else {
        eprintln!(
            "error: exp_replay needs --trial-store <dir> \
             (a repository populated by a previous --trial-store run)"
        );
        std::process::exit(2);
    };
    if cfg.workers > 0 || cfg.fleet.is_some() {
        eprintln!("error: exp_replay never evaluates; --workers/--remote do not apply");
        std::process::exit(2);
    }

    let specs = cfg.specs();
    let algorithms = AlgName::ALL;
    println!(
        "== Replay: simulated search over {} datasets x 3 models x {} algorithms ==",
        specs.len(),
        algorithms.len()
    );
    println!(
        "(store {}, scale {}, budget {:?}, seed {})\n",
        dir.display(),
        cfg.scale,
        cfg.budget,
        cfg.seed
    );

    // Open and validate every (dataset, model) segment up front, so a
    // store populated under a different config fails with a per-group
    // message instead of a mid-matrix panic.
    let mut replays: BTreeMap<String, Arc<ReplayEvaluator>> = BTreeMap::new();
    for spec in &specs {
        for &model in &ModelKind::ALL {
            let context = cfg.eval_context(spec, model).canonical();
            let segment = segment_path(&dir, &context);
            if !segment.exists() {
                eprintln!(
                    "error: no segment for dataset `{}` model {} (expected {}); \
                     was the store populated with this exact config?",
                    spec.name,
                    model.name(),
                    segment.display()
                );
                std::process::exit(2);
            }
            let config = EvalConfig {
                model,
                train_fraction: 0.8,
                seed: cfg.seed,
                train_subsample: None,
            };
            let replay = ReplayEvaluator::open(&segment, &context, config).unwrap_or_else(|err| {
                eprintln!("error: segment for `{context}`: {err}");
                std::process::exit(2);
            });
            replays.insert(context, Arc::new(replay));
        }
    }

    let outcome = run_matrix_with(&specs, &ModelKind::ALL, &algorithms, &cfg, |d, c, _prefix| {
        let spec = spec_by_name(&d.name)
            .unwrap_or_else(|| panic!("replay needs registry dataset, got `{}`", d.name));
        let context = cfg.eval_context(&spec, c.model).canonical();
        let replay = replays.get(&context).expect("segment preopened above").clone();
        Box::new(SharedReplay(replay))
    });

    let rows: Vec<Vec<String>> = outcome
        .cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.clone(),
                c.model.name().to_string(),
                c.algorithm.to_string(),
                f4(c.baseline),
                f4(c.best_accuracy),
                c.n_evals.to_string(),
                c.best_pipeline.clone(),
            ]
        })
        .collect();
    print_table(
        &["Dataset", "Model", "Algorithm", "no-FP", "Best", "Evals", "Pipeline"],
        &rows,
    );
    print_matrix_stats(&outcome);

    let (replayed, missing) = replays
        .values()
        .fold((0u64, 0u64), |(r, m), e| (r + e.replayed(), m + e.missing()));
    println!("\nreplayed {replayed} stored trials, 0 real evaluations");
    if missing > 0 {
        eprintln!(
            "warning: {missing} lookups had no stored trial (degraded to worst-error); \
             the store does not cover this config's search trajectory"
        );
        std::process::exit(1);
    }
}
