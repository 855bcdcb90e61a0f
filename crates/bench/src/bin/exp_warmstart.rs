//! §8 research opportunity 1: warm-starting evolution-based search.
//!
//! Builds a [`MetaStore`] from "historical" tasks (a slice of the
//! registry), then compares cold PBT vs warm-started PBT on held-out
//! datasets under small budgets — where initialization quality matters
//! most.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_warmstart
//!   [--scale S] [--evals N] [--seed X]`

use autofp_automl::MetaStore;
use autofp_bench::{f4, print_table, HarnessConfig};
use autofp_core::{run_search, Budget, EvalConfig, Evaluator};
use autofp_data::registry;
use autofp_metafeatures::{extract, ExtractConfig};
use autofp_preprocess::ParamSpace;
use autofp_search::{Pbt, RandomSearch};

fn main() {
    let cfg = HarnessConfig::from_args();
    let search_budget = match cfg.budget {
        Budget { max_evals: Some(n), .. } => Budget::evals(n),
        _ => Budget::evals(18),
    };
    let specs = registry();
    // Historical tasks: 8 small datasets; held-out: 4 others.
    let history_names = ["heart", "blood", "austrilian", "vehicle", "wine", "page", "wilt", "phoneme"];
    let heldout_names = ["mobile_price", "ionosphere", "kc1", "thyroid"];

    println!("== §8 extension: warm-started PBT vs cold PBT vs RS ==");
    println!("(historical tasks: {history_names:?})\n");

    let mf_cfg = ExtractConfig { seed: cfg.seed, ..Default::default() };
    let mut store = MetaStore::new();
    for name in history_names {
        let spec = specs.iter().find(|s| s.name == name).expect("registry");
        let dataset = cfg.generate(spec);
        let ev = Evaluator::new(
            &dataset,
            EvalConfig { seed: cfg.seed, ..Default::default() },
        );
        // "History": a short PBT run whose top pipelines get recorded.
        let mut pbt = Pbt::new(ParamSpace::default_space(), cfg.max_len, cfg.seed);
        let out = run_search(&mut pbt, &ev, search_budget);
        let mut trials: Vec<_> = out.history.trials().to_vec();
        trials.sort_by(|a, b| b.accuracy.total_cmp(&a.accuracy));
        let best: Vec<_> = trials.into_iter().take(3).map(|t| t.pipeline).collect();
        let meta = extract(&dataset, &mf_cfg).as_slice().to_vec();
        store.record(meta, best);
    }
    println!("meta-store built: {} tasks recorded\n", store.len());

    let mut rows = Vec::new();
    let mut warm_wins = 0;
    for name in heldout_names {
        let spec = specs.iter().find(|s| s.name == name).expect("registry");
        let dataset = cfg.generate(spec);
        let ev = Evaluator::new(
            &dataset,
            EvalConfig { seed: cfg.seed, ..Default::default() },
        );
        let meta = extract(&dataset, &mf_cfg).as_slice().to_vec();
        let seeds = store.warm_start(&meta, 3);

        let mut warm = Pbt::new(ParamSpace::default_space(), cfg.max_len, cfg.seed)
            .with_seed_pipelines(seeds.clone());
        let warm_acc = run_search(&mut warm, &ev, search_budget).best_accuracy();
        let mut cold = Pbt::new(ParamSpace::default_space(), cfg.max_len, cfg.seed);
        let cold_acc = run_search(&mut cold, &ev, search_budget).best_accuracy();
        let mut rs = RandomSearch::new(ParamSpace::default_space(), cfg.max_len, cfg.seed);
        let rs_acc = run_search(&mut rs, &ev, search_budget).best_accuracy();

        if warm_acc >= cold_acc {
            warm_wins += 1;
        }
        rows.push(vec![
            name.to_string(),
            f4(ev.baseline_accuracy()),
            f4(warm_acc),
            f4(cold_acc),
            f4(rs_acc),
            seeds.first().map(|p| p.to_string()).unwrap_or_default(),
        ]);
    }
    print_table(
        &["Held-out dataset", "no-FP", "Warm PBT", "Cold PBT", "RS", "First warm seed"],
        &rows,
    );
    println!(
        "\nWarm start matches or beats cold start on {warm_wins}/{} held-out datasets\n\
         under a tight budget — initialization from meta-similar tasks is the paper's\n\
         proposed direction for improving evolution-based Auto-FP.",
        rows.len()
    );
}
