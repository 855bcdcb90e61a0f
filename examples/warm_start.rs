//! Warm-starting pipeline search from historical tasks (paper §8).
//!
//! Builds a meta-store from searches on two "historical" datasets, then
//! warm-starts PBT on a third, related dataset: the initial population
//! begins from the best pipelines of the most meta-feature-similar task
//! instead of random pipelines.
//!
//! Run with: `cargo run --release --example warm_start`

use autofp::automl::MetaStore;
use autofp::core::{run_search, Budget, EvalConfig, Evaluator};
use autofp::data::spec_by_name;
use autofp::metafeatures::{extract, ExtractConfig};
use autofp::preprocess::ParamSpace;
use autofp::search::Pbt;

fn main() {
    let mf_cfg = ExtractConfig::default();
    let mut store = MetaStore::new();

    // Phase 1: record two historical tasks.
    for name in ["heart", "vehicle"] {
        let dataset = spec_by_name(name).expect("registry").generate(1.0);
        let evaluator = Evaluator::new(&dataset, EvalConfig::default());
        let mut pbt = Pbt::new(ParamSpace::default_space(), 7, 1);
        let outcome = run_search(&mut pbt, &evaluator, Budget::evals(30));
        let mut trials = outcome.history.trials().to_vec();
        trials.sort_by(|a, b| b.accuracy.total_cmp(&a.accuracy));
        let best: Vec<_> = trials.into_iter().take(3).map(|t| t.pipeline).collect();
        println!(
            "recorded {name}: best {:.4} via {}",
            outcome.best_accuracy(),
            best[0]
        );
        store.record(extract(&dataset, &mf_cfg).as_slice().to_vec(), best);
    }

    // Phase 2: warm-start on a new task.
    let target = spec_by_name("ionosphere").expect("registry").generate(1.0);
    let evaluator = Evaluator::new(&target, EvalConfig::default());
    let meta = extract(&target, &mf_cfg).as_slice().to_vec();
    let seeds = store.warm_start(&meta, 1);
    println!(
        "\ntarget: {} (no-FP {:.4}); warm seeds: {}",
        target.name,
        evaluator.baseline_accuracy(),
        seeds.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" | ")
    );

    let budget = Budget::evals(15);
    let mut warm =
        Pbt::new(ParamSpace::default_space(), 7, 2).with_seed_pipelines(seeds);
    let warm_out = run_search(&mut warm, &evaluator, budget);
    let mut cold = Pbt::new(ParamSpace::default_space(), 7, 2);
    let cold_out = run_search(&mut cold, &evaluator, budget);

    println!("warm PBT best after 15 evals: {:.4}", warm_out.best_accuracy());
    println!("cold PBT best after 15 evals: {:.4}", cold_out.best_accuracy());
    println!(
        "\nUnder tight budgets a good initial population is most of the battle — the\n\
         paper's first research opportunity (§8)."
    );
}
