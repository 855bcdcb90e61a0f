//! §5.2's frequent-pattern probe: "Are there any frequent excellent
//! feature preprocessor patterns?"
//!
//! Runs PBT (the top-ranked algorithm) on each dataset, collects the
//! best pipeline per (dataset, model), and mines frequent contiguous
//! preprocessor subsequences — the paper's FP-growth analysis. Expected
//! outcome: no long pattern with meaningful support.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_patterns
//!   [--scale S] [--budget-ms MS | --evals N] [--datasets K|all] [--workers N]`

use autofp_bench::{print_matrix_stats, print_table, run_matrix, spawn_workers, HarnessConfig};
use autofp_core::patterns::{mine_frequent_subsequences, strongest_pattern};
use autofp_models::classifier::ModelKind;
use autofp_preprocess::Pipeline;
use autofp_search::AlgName;

fn main() {
    let mut cfg = HarnessConfig::from_args();
    let _monitor = spawn_workers(&mut cfg);
    let specs = cfg.specs();
    println!("== §5.2: frequent patterns in best pipelines (PBT) ==\n");

    let outcome = run_matrix(&specs, &ModelKind::ALL, &[AlgName::Pbt], &cfg);
    let results = &outcome.cells;
    // Parse the winning pipelines back from their display form via the
    // stored trial pipelines (best_pipeline strings are display-only, so
    // keep the analysis on CellResult's recorded winners).
    let best: Vec<Pipeline> = results
        .iter()
        .filter(|r| r.best_accuracy > r.baseline) // only "excellent" winners
        .filter_map(|r| parse_default_pipeline(&r.best_pipeline))
        .collect();
    println!(
        "collected {} winning pipelines from {} scenarios\n",
        best.len(),
        results.len()
    );

    let patterns = mine_frequent_subsequences(&best, 0.05, 4);
    let rows: Vec<Vec<String>> = patterns
        .iter()
        .take(20)
        .map(|p| {
            vec![
                p.display(),
                p.kinds.len().to_string(),
                p.count.to_string(),
                format!("{:.1}%", p.support * 100.0),
            ]
        })
        .collect();
    print_table(&["Pattern", "Len", "Count", "Support"], &rows);

    match strongest_pattern(&patterns, 2) {
        Some(p) => println!(
            "\nStrongest multi-preprocessor pattern: '{}' at {:.1}% support.",
            p.display(),
            p.support * 100.0
        ),
        None => println!("\nNo multi-preprocessor pattern reached 5% support."),
    }
    println!(
        "\nPaper's shape to match: \"the support of discovered patterns is very low, i.e.\n\
         there are no obvious frequent patterns\" — the search problem cannot be replaced\n\
         by a lookup rule."
    );
    print_matrix_stats(&outcome);
}

/// Parse a default-space pipeline back from its display string
/// ("A -> B"). Only default-parameter steps are produced by the
/// default-space search, so kind names suffice.
fn parse_default_pipeline(s: &str) -> Option<Pipeline> {
    if s == "(identity)" || s == "(none)" {
        return None;
    }
    let kinds: Option<Vec<_>> =
        s.split(" -> ").map(autofp_preprocess::PreprocKind::parse).collect();
    kinds.map(|k| Pipeline::from_kinds(&k))
}
