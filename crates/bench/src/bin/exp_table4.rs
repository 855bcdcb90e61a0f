//! Table 4 (and the per-dataset Tables 12-15): run all 15 search
//! algorithms over the dataset × model grid, print per-scenario
//! improvements and the overall average ranking.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_table4
//!   [--scale S] [--budget-ms MS | --evals N] [--datasets K|all] [--seed X]
//!   [--workers N | --remote addr,addr,...]
//!   [--supervise-max-restarts R] [--supervise-backoff-ms MS]`
//!
//! `--workers N` spawns N supervised local `evald` daemons — dead
//! workers are respawned in the background and requests fail over to
//! rendezvous successors in the meantime — and routes every evaluation
//! through the sharded remote evaluator; `--remote` points at an
//! already-running (unsupervised) fleet instead.

use autofp_bench::{
    f2, print_matrix_stats, print_table, run_matrix, spawn_supervised_fleet, HarnessConfig,
};
use autofp_core::ranking::{average_rankings, order_by_rank, Scenario, IMPROVEMENT_THRESHOLD};
use autofp_models::classifier::ModelKind;
use autofp_search::AlgName;
use std::collections::BTreeMap;

fn main() {
    let mut cfg = HarnessConfig::from_args();
    // Spawn the local fleet first so it dies with this process (drop
    // shuts the children down) even if the run panics. The supervisor
    // moves onto a background monitor thread that respawns dead workers
    // and republishes the epoch-bumped fleet spec the matrix routes
    // over.
    let monitor = if cfg.workers > 0 && cfg.fleet.is_none() {
        let supervisor =
            spawn_supervised_fleet(cfg.workers, cfg.supervisor_config()).expect("spawn evald workers");
        println!(
            "spawned {} supervised evald workers: {:?}\n",
            supervisor.len(),
            supervisor.addrs()
        );
        cfg.fleet = Some(supervisor.fleet());
        Some(supervisor.monitor(std::time::Duration::from_millis(500)))
    } else {
        None
    };
    let specs = cfg.specs();
    let algorithms = AlgName::ALL;
    println!(
        "== Table 4: average ranking of 15 algorithms over {} datasets x 3 models ==",
        specs.len()
    );
    println!("(scale {}, budget {:?}, seed {})\n", cfg.scale, cfg.budget, cfg.seed);

    let outcome = run_matrix(&specs, &ModelKind::ALL, &algorithms, &cfg);
    let results = &outcome.cells;

    // Tables 12-15 analogue: per-(dataset, model) improvement in pp.
    println!("-- Per-scenario validation-accuracy improvement (percentage points) --");
    let mut header = vec!["Dataset", "Model"];
    header.extend(algorithms.iter().map(|a| a.as_str()));
    let mut grouped: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    let mut baselines: BTreeMap<(String, &'static str), f64> = BTreeMap::new();
    for r in results {
        let key = (r.dataset.clone(), r.model.name());
        let entry = grouped.entry(key.clone()).or_insert_with(|| vec![0.0; algorithms.len()]);
        let ai = algorithms.iter().position(|a| a.as_str() == r.algorithm).expect("known alg");
        entry[ai] = r.best_accuracy;
        baselines.insert(key, r.baseline);
    }
    let mut rows = Vec::new();
    for ((dataset, model), accs) in &grouped {
        let baseline = baselines[&(dataset.clone(), *model)];
        let mut row = vec![dataset.clone(), model.to_string()];
        row.extend(accs.iter().map(|a| f2(((a - baseline) * 100.0).max(0.0))));
        rows.push(row);
    }
    print_table(&header, &rows);

    // Table 4: rank per scenario over the improving scenarios.
    let mut scenarios: Vec<(ModelKind, Scenario)> = Vec::new();
    for ((dataset, model), accs) in &grouped {
        let model_kind = ModelKind::ALL.iter().copied().find(|m| m.name() == *model).unwrap();
        scenarios.push((
            model_kind,
            Scenario {
                label: format!("{dataset}/{model}"),
                baseline: baselines[&(dataset.clone(), *model)],
                accuracies: accs.clone(),
            },
        ));
    }

    println!("\n-- Average ranking (scenarios with >= 1.5pp improvement) --");
    let mut ranking_rows = Vec::new();
    for model in ModelKind::ALL {
        let per_model: Vec<Scenario> = scenarios
            .iter()
            .filter(|(m, _)| *m == model)
            .map(|(_, s)| s.clone())
            .collect();
        let (ranks, n) = average_rankings(&per_model, IMPROVEMENT_THRESHOLD);
        let mut row = vec![format!("{} ({} scenarios)", model.name(), n)];
        row.extend(ranks.iter().map(|r| f2(*r)));
        ranking_rows.push(row);
    }
    let all_s: Vec<Scenario> = scenarios.iter().map(|(_, s)| s.clone()).collect();
    let (overall, n_improving) = average_rankings(&all_s, IMPROVEMENT_THRESHOLD);
    let mut row = vec![format!("Overall ({n_improving} scenarios)")];
    row.extend(overall.iter().map(|r| f2(*r)));
    ranking_rows.push(row);
    let mut header2 = vec!["Scope"];
    header2.extend(algorithms.iter().map(|a| a.as_str()));
    print_table(&header2, &ranking_rows);

    println!("\n-- Algorithms ordered by overall average rank (best first) --");
    for (pos, idx) in order_by_rank(&overall).iter().enumerate() {
        println!(
            "  {:>2}. {:<10} ({:<22}) avg rank {}",
            pos + 1,
            algorithms[*idx].as_str(),
            algorithms[*idx].category(),
            f2(overall[*idx])
        );
    }
    println!(
        "\nPaper's shape to match: evolution-based algorithms (PBT, TEVO_*) lead; RS is a\n\
         strong baseline; RL-based (REINFORCE, ENAS), bandit-based (HYPERBAND, BOHB) and\n\
         the LSTM-surrogate PNAS variants trail RS; PMNE/PME are the surrogate exceptions."
    );
    print_matrix_stats(&outcome);

    // With a remote fleet, report each worker's cumulative counters
    // before the fleet is torn down. Under supervision the membership
    // may have changed mid-run (respawned workers come back on fresh
    // ports), so read the addresses from the live spec.
    let worker_addrs: Vec<String> = cfg.fleet.as_ref().map_or(Vec::new(), |f| f.snapshot().addrs);
    if !worker_addrs.is_empty() {
        println!("\n-- evald worker stats --");
        for addr in &worker_addrs {
            match autofp_evald::stats(addr, std::time::Duration::from_secs(5)) {
                Ok(s) => println!(
                    "  {addr}: served={} contexts={} hits={} misses={} entries={} evictions={} \
                     prefix_hits={} prefix_steps_saved={}",
                    s.served,
                    s.contexts,
                    s.hits,
                    s.misses,
                    s.entries,
                    s.evictions,
                    s.prefix_hits,
                    s.prefix_steps_saved
                ),
                Err(e) => println!("  {addr}: unreachable ({e})"),
            }
        }
    }
    drop(monitor);
}
