//! End-to-end pipeline-evaluation cost (Prep + Train) across dataset
//! sizes and models — the data behind the Figure 7 / Table 5 bottleneck
//! analysis.
//!
//! An `Evaluator` answers a repeated fit from its fit memo, so the
//! scaling groups build a fresh evaluator per iteration, outside the
//! timed section, and every timed call fits. The `fit_memo` group
//! prices the memo itself: a hit against a fresh fit of the same
//! pipeline, and the content digest per matrix value.

use autofp_bench::HarnessConfig;
use autofp_core::{EvalConfig, Evaluator};
use autofp_data::{spec_by_name, Dataset, SynthConfig};
use autofp_linalg::codec::murmur3_x64_128;
use autofp_models::classifier::ModelKind;
use autofp_preprocess::{Pipeline, PreprocKind};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn heavy_pipeline() -> Pipeline {
    Pipeline::from_kinds(&[
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

    // The digest alone, over the train + valid values of table4-mini
    // and prep-heavy, in the memo key's word order.
    for (rows, cols) in [(160usize, 14usize), (502, 259)] {
        let values: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.37).collect();
        let digest = || {
            let header = [rows as u64, cols as u64, 0, 0, 1.0f64.to_bits()];
            murmur3_x64_128(header.into_iter().chain(values.iter().map(|v| v.to_bits())))
        };
        let iters = 200u32;
        black_box(digest());
        let start = Instant::now();
        for _ in 0..iters {
            black_box(digest());
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters) / (rows * cols) as f64;
        println!("bench: fit_memo/digest/{rows}x{cols}{:>29.3} ns/value", ns);
    }
}

criterion_group!(benches, bench_eval_by_rows, bench_eval_by_cols, bench_eval_by_model, bench_fit_memo);
criterion_main!(benches);
