//! Figure 7 (and Figures 20-22): Pick/Prep/Train overhead percentage per
//! algorithm on the seven bottleneck-analysis datasets, for each
//! downstream model. Hyperband and BOHB are excluded, as in the paper
//! (their picking and evaluation phases interleave).
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_fig7
//!   [--scale S] [--budget-ms MS | --evals N] [--seed X] [--workers N]`

use autofp_bench::{f2, print_matrix_stats, print_table, run_matrix, spawn_workers, HarnessConfig};
use autofp_data::registry::bottleneck_seven;
use autofp_models::classifier::ModelKind;
use autofp_search::AlgName;

fn main() {
    let mut cfg = HarnessConfig::from_args();
    let _monitor = spawn_workers(&mut cfg);
    let specs = bottleneck_seven();
    let algorithms: Vec<AlgName> = AlgName::ALL
        .into_iter()
        .filter(|a| !matches!(a, AlgName::Hyperband | AlgName::Bohb))
        .collect();
    println!("== Figure 7: overhead breakdown (Pick / Prep / Train, % of total) ==");
    println!("({} datasets x 3 models x {} algorithms)\n", specs.len(), algorithms.len());

    let outcome = run_matrix(&specs, &ModelKind::ALL, &algorithms, &cfg);
    let results = &outcome.cells;

    let mut rows = Vec::new();
    for r in results {
        let (pick, prep, train) = r.breakdown.percentages();
        rows.push(vec![
            r.dataset.clone(),
            r.model.name().to_string(),
            r.algorithm.to_string(),
            f2(pick),
            f2(prep),
            f2(train),
            r.breakdown.bottleneck().to_string(),
            r.n_evals.to_string(),
        ]);
    }
    print_table(
        &["Dataset", "Model", "Algorithm", "Pick %", "Prep %", "Train %", "Bottleneck", "#evals"],
        &rows,
    );

    // Aggregate: how often is each phase the bottleneck?
    let mut counts = [0usize; 3];
    for r in results {
        match r.breakdown.bottleneck() {
            "Pick" => counts[0] += 1,
            "Prep" => counts[1] += 1,
            _ => counts[2] += 1,
        }
    }
    println!(
        "\nBottleneck counts: Pick {} | Prep {} | Train {} (of {} scenarios)",
        counts[0],
        counts[1],
        counts[2],
        results.len()
    );
    println!(
        "\nPaper's shape to match: Train dominates in most scenarios, then Prep, then Pick;\n\
         surrogate-heavy algorithms (SMAC, TPE, PLNE/PLE) show visibly larger Pick shares."
    );
    print_matrix_stats(&outcome);
}
