//! Quickstart: the paper's Figure 1 worked example, then a first
//! pipeline search.
//!
//! Part 1 applies each of the seven preprocessors to the column
//! `[-1.5, 1, 1.5, 2.5, 3, 4, 5]` and prints the same table as Figure 1
//! of the paper. Part 2 generates a small synthetic dataset whose
//! features have wildly different scales, and lets random search find a
//! preprocessing pipeline that beats the no-FP baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use autofp::core::{run_search, Budget, EvalConfig, Evaluator};
use autofp::data::{Personality, SynthConfig};
use autofp::linalg::Matrix;
use autofp::preprocess::{LambdaMemo, ParamSpace, Preproc, PreprocKind};
use autofp::search::RandomSearch;

fn main() {
    figure1();
    first_search();
}

/// Reproduce Figure 1: the seven preprocessors on one column.
fn figure1() {
    println!("== Part 1: Figure 1 — the seven preprocessors ==\n");
    let column = [-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0];
    let x = Matrix::column_vector(&column);

    // Fit each preprocessor on the column and collect outputs.
    let mut outputs: Vec<(String, Vec<f64>)> = vec![(
        "(none)".to_string(),
        column.to_vec(),
    )];
    for kind in PreprocKind::ALL {
        let preproc = Preproc::default_for(kind);
        let mut transformed = x.clone();
        preproc.fit(&x, &LambdaMemo::new()).transform(&mut transformed);
        outputs.push((kind.name().to_string(), transformed.col(0)));
    }

    // Print as a table, one preprocessor per column (like Figure 1).
    for (name, _) in &outputs {
        print!("{name:>20}");
    }
    println!();
    for row in 0..column.len() {
        for (_, vals) in &outputs {
            print!("{:>20.2}", vals[row]);
        }
        println!();
    }
    println!();
}

/// A first Auto-FP search on data that needs preprocessing.
fn first_search() {
    println!("== Part 2: a first pipeline search ==\n");
    // Features spread over 6 orders of magnitude with skewed marginals:
    // exactly the situation where LR needs preprocessing.
    let dataset = SynthConfig::new("quickstart", 300, 10, 2, 42)
        .with_personality(Personality {
            scale_spread: 6.0,
            skew: 0.8,
            heavy_tail: 0.5,
            class_sep: 1.0,
            label_noise: 0.05,
            ..Personality::default()
        })
        .generate();

    let evaluator = Evaluator::new(&dataset, EvalConfig::default());
    println!("no-FP baseline accuracy (LR): {:.4}", evaluator.baseline_accuracy());

    let mut searcher = RandomSearch::new(ParamSpace::default_space(), 4, 7);
    let outcome = run_search(&mut searcher, &evaluator, Budget::evals(30));

    let best = outcome.best().expect("searched something");
    println!("best pipeline after 30 evaluations: {}", best.pipeline);
    println!("best validation accuracy:           {:.4}", best.accuracy);
    println!(
        "improvement over no-FP:             {:+.2} percentage points",
        (best.accuracy - evaluator.baseline_accuracy()) * 100.0
    );
    let (pick, prep, train) = outcome.breakdown.percentages();
    println!("time breakdown: Pick {pick:.0}% | Prep {prep:.0}% | Train {train:.0}%");
}
