//! Table 5: dominant bottleneck by dataset dimensionality/size bucket
//! and downstream model, for RS, PBT, TEVO_H and TEVO_Y.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_table5
//!   [--scale S] [--budget-ms MS | --evals N] [--datasets K|all] [--workers N]`

use autofp_bench::{print_matrix_stats, print_table, run_matrix, spawn_workers, HarnessConfig};
use autofp_models::classifier::ModelKind;
use autofp_search::AlgName;
use std::collections::BTreeMap;

fn main() {
    let mut cfg = HarnessConfig::from_args();
    let _monitor = spawn_workers(&mut cfg);
    let specs = cfg.specs();
    let algorithms = [AlgName::Rs, AlgName::Pbt, AlgName::TevoH, AlgName::TevoY];
    println!("== Table 5: performance bottleneck by scenario bucket ==\n");

    let outcome = run_matrix(&specs, &ModelKind::ALL, &algorithms, &cfg);
    let results = &outcome.cells;

    // Bucket each dataset per the paper's rule.
    let bucket_of = |name: &str| -> String {
        let spec = specs.iter().find(|s| s.name == name).expect("spec");
        if spec.is_high_dimensional() {
            "High / All".to_string()
        } else {
            format!("Low / {}", spec.size_bucket())
        }
    };

    // Majority bottleneck per (bucket, model).
    let mut tally: BTreeMap<(String, &'static str), [usize; 3]> = BTreeMap::new();
    for r in results {
        let key = (bucket_of(&r.dataset), r.model.name());
        let t = tally.entry(key).or_insert([0; 3]);
        match r.breakdown.bottleneck() {
            "Pick" => t[0] += 1,
            "Prep" => t[1] += 1,
            _ => t[2] += 1,
        }
    }
    let mut rows = Vec::new();
    for ((bucket, model), counts) in &tally {
        let labels = ["Pick", "Prep", "Train"];
        let total: usize = counts.iter().sum();
        let winner = labels[counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap()];
        let mixed = counts.iter().filter(|&&c| c * 3 >= total).count() > 1;
        rows.push(vec![
            bucket.clone(),
            model.to_string(),
            if mixed { format!("{winner} (mixed)") } else { winner.to_string() },
            format!("Pick {} / Prep {} / Train {}", counts[0], counts[1], counts[2]),
        ]);
    }
    print_table(
        &["Dimensions / Size", "Model", "Dominant bottleneck", "Scenario counts"],
        &rows,
    );
    println!(
        "\nPaper's shape to match (Table 5): Train dominates almost everywhere; Prep shows\n\
         up for LR on low-dimensional medium datasets and mixes with Train elsewhere."
    );
    print_matrix_stats(&outcome);
}
