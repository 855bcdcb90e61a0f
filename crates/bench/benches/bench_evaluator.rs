//! End-to-end pipeline-evaluation cost (Prep + Train) across dataset
//! sizes and models — the data behind the Figure 7 / Table 5 bottleneck
//! analysis.
//!
//! An `Evaluator` answers a repeated fit from its fit memo, so the
//! scaling groups build a fresh evaluator per iteration, outside the
//! timed section, and every timed call fits. The pipeline starts with
//! the row-wise `Normalizer`: after per-column increasing steps alone,
//! XGB reads the baseline's bin codes, and a fresh evaluator answers
//! from the fit it made for its baseline. The `fit_memo` group
//! prices the memo itself: a hit against a fresh fit of the same
//! pipeline, and the memo key per matrix value, over raw bits (LR, MLP)
//! and over XGB's bin codes.

use autofp_bench::HarnessConfig;
use autofp_core::{EvalConfig, Evaluator};
use autofp_data::{spec_by_name, Dataset, SynthConfig};
use autofp_linalg::memo::{KeyWords, WordSink};
use autofp_linalg::Matrix;
use autofp_models::classifier::ModelKind;
use autofp_preprocess::{Pipeline, PreprocKind};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn heavy_pipeline() -> Pipeline {
    Pipeline::from_kinds(&[
        PreprocKind::Normalizer,
        PreprocKind::PowerTransformer,
        PreprocKind::QuantileTransformer,
        PreprocKind::StandardScaler,
    ])
}

fn bench_eval_by_rows(c: &mut Criterion) {
    let pipeline = heavy_pipeline();
    let mut group = c.benchmark_group("evaluate_rows_scaling_lr");
    group.sample_size(10);
    for rows in [200usize, 800, 3200] {
        let d = SynthConfig::new("bench-eval", rows, 12, 2, 5).generate();
        group.bench_with_input(BenchmarkId::from_parameter(rows), &d, |b, d| {
            fresh_fits(b, d, EvalConfig::default(), &pipeline)
        });
    }
    group.finish();
}

fn bench_eval_by_cols(c: &mut Criterion) {
    let pipeline = heavy_pipeline();
    let mut group = c.benchmark_group("evaluate_cols_scaling_lr");
    group.sample_size(10);
    for cols in [5usize, 20, 80] {
        let d = SynthConfig::new("bench-eval-c", 500, cols, 2, 7).generate();
        group.bench_with_input(BenchmarkId::from_parameter(cols), &d, |b, d| {
            fresh_fits(b, d, EvalConfig::default(), &pipeline)
        });
    }
    group.finish();
}

fn bench_eval_by_model(c: &mut Criterion) {
    let pipeline = heavy_pipeline();
    let d = SynthConfig::new("bench-eval-m", 600, 15, 3, 9).generate();
    let mut group = c.benchmark_group("evaluate_by_model_600x15");
    group.sample_size(10);
    for model in ModelKind::ALL {
        let config = EvalConfig { model, train_fraction: 0.8, seed: 0, train_subsample: None };
        group.bench_function(model.name(), |b| fresh_fits(b, &d, config.clone(), &pipeline));
    }
    group.finish();
}

/// Time `pipeline`'s evaluation on a fresh evaluator per iteration,
/// built untimed, so every timed call fits.
fn fresh_fits(b: &mut criterion::Bencher, d: &Dataset, config: EvalConfig, pipeline: &Pipeline) {
    b.iter_batched(
        || Evaluator::new(d, config.clone()),
        |ev| black_box(ev.evaluate(pipeline)),
        BatchSize::LargeInput,
    )
}

fn bench_fit_memo(c: &mut Criterion) {
    // The table4-mini shape: austrilian at scale 0.05.
    let pipeline = heavy_pipeline();
    let spec = spec_by_name("austrilian").expect("registry dataset");
    let d = HarnessConfig { scale: 0.05, ..HarnessConfig::default() }.generate(&spec);
    let mut group = c.benchmark_group("fit_memo");
    group.sample_size(50);
    for model in ModelKind::ALL {
        let config = EvalConfig { model, ..EvalConfig::default() };
        group.bench_function(format!("fresh/{}", model.name()), |b| {
            fresh_fits(b, &d, config.clone(), &pipeline)
        });
        let ev = Evaluator::new(&d, config);
        ev.evaluate(&pipeline);
        group.bench_function(format!("hit/{}", model.name()), |b| {
            b.iter(|| black_box(ev.evaluate(&pipeline)))
        });
    }
    group.finish();

    // The key alone, over the train + valid values of table4-mini and
    // prep-heavy split 80:20, as the memo computes it: the header, then
    // the trainer's input words. LR's are the raw bits, XGB's the bin
    // codes of 48 bins, which also cost the binning.
    for (rows, cols) in [(160usize, 14usize), (502, 259)] {
        let train_rows = rows * 4 / 5;
        let value = |i: usize| ((i * 7919) % 1000) as f64 * 0.37;
        let train = Matrix::from_vec(train_rows, cols, (0..train_rows * cols).map(value).collect());
        let valid_values = (train_rows * cols..rows * cols).map(value).collect();
        let valid = Matrix::from_vec(rows - train_rows, cols, valid_values);
        for (label, model) in [("", ModelKind::Lr), ("xgb-codes/", ModelKind::Xgb)] {
            let trainer = model.trainer(0);
            let digest = || {
                let mut key = KeyWords::new();
                for w in [train_rows as u64, cols as u64, (rows - train_rows) as u64, cols as u64] {
                    key.word(w);
                }
                key.word(1.0f64.to_bits());
                trainer.input_words(&train, &valid, &mut key);
                key.finish().digest
            };
            let iters = 200u32;
            black_box(digest());
            let start = Instant::now();
            for _ in 0..iters {
                black_box(digest());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters) / (rows * cols) as f64;
            let name = format!("fit_memo/digest/{label}{rows}x{cols}");
            println!("bench: {name:<44}{ns:>10.3} ns/value");
        }
    }
}

criterion_group!(benches, bench_eval_by_rows, bench_eval_by_cols, bench_eval_by_model, bench_fit_memo);
criterion_main!(benches);
