//! Table 1: can data-characteristic rules predict whether FP helps?
//!
//! For each (dataset, model): measure the no-FP accuracy `A` and the
//! best accuracy `B` of N random FP pipelines; label the dataset 1 if
//! `B - A > 1.5pp`, else 0. Extract the 40 meta-features per dataset and
//! train depth-limited decision trees to predict the label, reporting
//! 3-fold CV scores (the paper finds them all ~0.5-0.7, i.e. no rule).
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_table1
//!   [--scale S] [--evals N] [--datasets K|all]`

use autofp_bench::{f2, print_table, HarnessConfig};
use autofp_core::{pool_map, run_search, Budget, EvalConfig, Evaluator};
use autofp_metafeatures::{meta_dataset, ExtractConfig};
use autofp_models::classifier::ModelKind;
use autofp_models::cv::cross_val_accuracy;
use autofp_models::tree::DecisionTreeParams;
use autofp_preprocess::ParamSpace;
use autofp_search::RandomSearch;

fn main() {
    let cfg = HarnessConfig::from_args();
    let n_pipelines = match cfg.budget {
        Budget { max_evals: Some(n), .. } => n,
        _ => 200,
    };
    let specs = cfg.specs();
    println!(
        "== Table 1: decision-tree rules from 40 meta-features ({} datasets, {} random pipelines) ==\n",
        specs.len(),
        n_pipelines
    );

    // Per model: (dataset, label) pairs, computed in parallel per dataset.
    let datasets = cfg.generate_all(&specs);
    let mut cells = Vec::new();
    for di in 0..datasets.len() {
        for m in ModelKind::ALL {
            cells.push((di, m));
        }
    }
    let labels: Vec<(usize, ModelKind, usize)> =
        pool_map(cfg.threads.max(1), cells.len(), |i| {
            let (di, model) = cells[i];
            let ev = Evaluator::new(
                &datasets[di],
                EvalConfig { model, train_fraction: 0.8, seed: cfg.seed, train_subsample: None },
            );
            let mut rs = RandomSearch::new(
                ParamSpace::default_space(),
                cfg.max_len,
                autofp_linalg::rng::derive_seed(cfg.seed, i as u64),
            );
            let out = run_search(&mut rs, &ev, Budget::evals(n_pipelines));
            let improvement = out.best_accuracy() - ev.baseline_accuracy();
            let label = usize::from(improvement > 0.015);
            (di, model, label)
        });

    // Train trees per model.
    let mf_cfg = ExtractConfig { seed: cfg.seed, ..Default::default() };
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let pairs: Vec<(autofp_data::Dataset, usize)> = labels
            .iter()
            .filter(|(_, m, _)| *m == model)
            .map(|(di, _, label)| (datasets[*di].clone(), *label))
            .collect();
        let positives = pairs.iter().filter(|(_, l)| *l == 1).count();
        let meta = meta_dataset(&pairs, &mf_cfg);
        for depth in [Some(1), Some(2), Some(3), None] {
            let tree = DecisionTreeParams::with_depth(depth);
            let cv = cross_val_accuracy(&tree, &meta, 3, cfg.seed);
            rows.push(vec![
                model.name().to_string(),
                depth.map_or("No Limit".into(), |d| d.to_string()),
                f2(cv),
                format!("{positives}/{} FP-helps labels", pairs.len()),
            ]);
        }
    }
    print_table(&["Model", "Tree Depth", "3-CV Score", "Label balance"], &rows);
    println!(
        "\nPaper's shape to match: 3-CV scores hover around 0.5-0.7 at every depth —\n\
         no data-characteristic rule reliably predicts when FP helps (Table 1)."
    );
}
