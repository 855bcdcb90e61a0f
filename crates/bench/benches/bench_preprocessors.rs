//! Microbenchmarks of the seven preprocessors, plus the DESIGN.md
//! ablations: Yeo-Johnson λ-search cost and QuantileTransformer
//! resolution. These costs are the "Prep" phase of Figure 7. Every
//! timed fit gets a fresh λ memo, so it searches every column; the
//! `power_lambda` group prices a search against a memo hit. The
//! `serve_transform_steps` group prices each fitted step of the served
//! artifact per value, the floor of the serving path's Prep layer.

use autofp_bench::HarnessConfig;
use autofp_core::EvalConfig;
use autofp_data::{spec_by_name, Personality, SynthConfig};
use autofp_linalg::Matrix;
use autofp_models::classifier::ModelKind;
use autofp_preprocess::artifact::step_kind;
use autofp_preprocess::power::optimal_lambda;
use autofp_preprocess::{LambdaMemo, OutputDist, Pipeline, Preproc, PreprocKind};
use autofp_serve::fit_artifact;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_each_preprocessor(c: &mut Criterion) {
    let dataset = SynthConfig::new("bench-prep", 1000, 20, 2, 5).generate();
    let mut group = c.benchmark_group("preprocessor_fit_transform_1000x20");
    group.sample_size(20);
    for kind in PreprocKind::ALL {
        let p = Preproc::default_for(kind);
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut x = dataset.x.clone();
                let fitted = p.fit_transform(&mut x, &LambdaMemo::new());
                black_box((fitted, x))
            })
        });
    }
    group.finish();
}

fn bench_yeo_johnson_lambda(c: &mut Criterion) {
    let mut group = c.benchmark_group("yeo_johnson_lambda_search");
    group.sample_size(20);
    for n in [100usize, 1000, 10_000] {
        let col: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64 / 10.0).exp()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &col, |b, col| {
            b.iter(|| black_box(optimal_lambda(col)))
        });
    }
    group.finish();
}

fn bench_power_wide(c: &mut Criterion) {
    // The wide case: Yeo-Johnson on madeline's training split at scale
    // 0.2 (402 x 259), where the per-column λ search dominates.
    let spec = spec_by_name("madeline").expect("registry dataset");
    let data = HarnessConfig { scale: 0.2, ..HarnessConfig::default() }.generate(&spec);
    let train = data.stratified_split(0.8, 7).train;
    let p = Preproc::default_for(PreprocKind::PowerTransformer);
    let mut group = c.benchmark_group("power_fit_transform_wide");
    group.sample_size(10);
    let (rows, cols) = train.x.shape();
    group.bench_function(format!("{rows}x{cols}"), |b| {
        b.iter(|| {
            let mut x = train.x.clone();
            let fitted = p.fit_transform(&mut x, &LambdaMemo::new());
            black_box((fitted, x))
        })
    });
    group.finish();
}

fn bench_power_lambda(_: &mut Criterion) {
    // λ per column, searched against answered by a memo hit, on the
    // finite training columns of table4-mini (austrilian at scale 0.05,
    // 128 x 14) and of the wide case (madeline at scale 0.2, 402 x 259).
    const PASSES: u32 = 20;
    for (name, scale) in [("austrilian", 0.05), ("madeline", 0.2)] {
        let spec = spec_by_name(name).expect("registry dataset");
        let data = HarnessConfig { scale, ..HarnessConfig::default() }.generate(&spec);
        let train = data.stratified_split(0.8, 7).train;
        let (rows, cols) = train.x.shape();
        let columns: Vec<Vec<f64>> = (0..cols)
            .map(|j| train.x.col(j).into_iter().filter(|v| v.is_finite()).collect())
            .collect();
        let memo = LambdaMemo::new();
        columns.iter().for_each(|col| assert_eq!(memo.lambda(col), optimal_lambda(col)));
        let per_column = |lambda: &dyn Fn(&[f64]) -> f64| {
            let start = Instant::now();
            for _ in 0..PASSES {
                columns.iter().for_each(|col| {
                    black_box(lambda(col));
                });
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES) / cols as f64
        };
        let search = per_column(&|col| optimal_lambda(col));
        let hit = per_column(&|col| memo.lambda(col));
        for (kind, us) in [("search", search), ("hit", hit)] {
            let name = format!("power_lambda/{kind}/{rows}x{cols}");
            println!("bench: {name:<48} {us:>12.3} us/column");
        }
    }
}

fn bench_quantile_resolution(c: &mut Criterion) {
    let dataset = SynthConfig::new("bench-q", 2000, 10, 2, 7).generate();
    let mut group = c.benchmark_group("quantile_transformer_resolution");
    group.sample_size(20);
    for q in [10usize, 100, 1000] {
        let p = Preproc::QuantileTransformer { n_quantiles: q, output: OutputDist::Uniform };
        group.bench_with_input(BenchmarkId::from_parameter(q), &p, |b, p| {
            b.iter(|| {
                let mut x = dataset.x.clone();
                black_box(p.fit_transform(&mut x, &LambdaMemo::new()));
                black_box(&x);
            })
        });
    }
    group.finish();
}

fn bench_pipeline_depth(c: &mut Criterion) {
    // Cost growth with pipeline length (scalers only, so the growth is
    // the composition overhead itself).
    let dataset = SynthConfig::new("bench-depth", 1000, 20, 2, 9).generate();
    let mut group = c.benchmark_group("pipeline_length");
    group.sample_size(20);
    for len in [1usize, 3, 7] {
        let kinds = vec![PreprocKind::StandardScaler; len];
        let p = autofp_preprocess::Pipeline::from_kinds(&kinds);
        group.bench_with_input(BenchmarkId::from_parameter(len), &p, |b, p| {
            b.iter(|| black_box(p.fit_transform(&dataset.x, &LambdaMemo::new())))
        });
    }
    group.finish();
}

fn bench_serve_transform_steps(_: &mut Criterion) {
    // The serve-tcp workload's artifact: Standard -> Power -> Quantile
    // -> MinMax fitted on its 4,000 x 24 training set. Each fitted
    // step's `transform` is timed alone, on 256-row chunks of the rows
    // that reach it, and reported in ns per transformed value.
    const CHUNK_ROWS: usize = 256;
    const PASSES: usize = 50;
    let personality = Personality { scale_spread: 5.0, skew: 0.3, ..Personality::default() };
    let dataset =
        SynthConfig::new("serve-tcp", 4_000, 24, 3, 7).with_personality(personality).generate();
    let pipeline = Pipeline::from_kinds(&[
        PreprocKind::StandardScaler,
        PreprocKind::PowerTransformer,
        PreprocKind::QuantileTransformer,
        PreprocKind::MinMaxScaler,
    ]);
    let config = EvalConfig { model: ModelKind::Lr, seed: 7, ..EvalConfig::default() };
    let artifact = fit_artifact(&dataset, &pipeline, &config).expect("artifact fits");
    let cols = dataset.x.ncols();
    let mut chunks: Vec<Matrix> = dataset
        .x
        .as_slice()
        .chunks_exact(CHUNK_ROWS * cols)
        .map(|c| Matrix::from_vec(CHUNK_ROWS, cols, c.to_vec()))
        .collect();
    let values = (chunks.len() * CHUNK_ROWS * cols) as f64;
    let mut total = 0.0;
    for step in artifact.pipeline.steps() {
        // Best of `PASSES` passes over every chunk, each pass on fresh
        // copies of the step's input.
        let mut best = Duration::MAX;
        for _ in 0..PASSES {
            let mut elapsed = Duration::ZERO;
            for chunk in &chunks {
                let mut x = chunk.clone();
                let start = Instant::now();
                step.transform(&mut x);
                elapsed += start.elapsed();
                black_box(&x);
            }
            best = best.min(elapsed);
        }
        let ns = best.as_secs_f64() * 1e9 / values;
        total += ns;
        let name = format!("serve_transform_steps/{}", step_kind(step).name());
        println!("bench: {name:<48} {ns:>12.2} ns/value ({CHUNK_ROWS}-row chunks)");
        // The next step sees this step's output.
        for chunk in &mut chunks {
            step.transform(chunk);
        }
    }
    println!("bench: {:<48} {total:>12.2} ns/value", "serve_transform_steps/total");
}

criterion_group!(
    benches,
    bench_each_preprocessor,
    bench_yeo_johnson_lambda,
    bench_power_wide,
    bench_power_lambda,
    bench_quantile_resolution,
    bench_pipeline_depth,
    bench_serve_transform_steps
);
criterion_main!(benches);
