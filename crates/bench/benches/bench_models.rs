//! Downstream-model training cost — the "Train" phase of Figure 7 —
//! plus the GBDT histogram-granularity ablation from DESIGN.md.

use autofp_bench::HarnessConfig;
use autofp_data::{spec_by_name, SynthConfig};
use autofp_models::classifier::{ModelKind, Trainer};
use autofp_models::gbdt::GbdtParams;
use autofp_models::tree::DecisionTreeParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_three_downstream_models(c: &mut Criterion) {
    let dataset = SynthConfig::new("bench-models", 500, 20, 3, 3).generate();
    let mut group = c.benchmark_group("train_500x20_3class");
    group.sample_size(10);
    for model in ModelKind::ALL {
        let trainer = model.trainer(0);
        group.bench_function(model.name(), |b| {
            b.iter(|| black_box(trainer.fit(&dataset.x, &dataset.y, dataset.n_classes)))
        });
    }
    group.finish();
}

fn bench_model_scaling_with_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("lr_train_rows_scaling");
    group.sample_size(10);
    for rows in [200usize, 800, 3200] {
        let dataset = SynthConfig::new("bench-rows", rows, 10, 2, 5).generate();
        let trainer = ModelKind::Lr.trainer(0);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &dataset, |b, d| {
            b.iter(|| black_box(trainer.fit(&d.x, &d.y, d.n_classes)))
        });
    }
    group.finish();
}

fn bench_lr_wide(c: &mut Criterion) {
    // The wide case: LR on madeline's training split at scale 0.2
    // (402 x 259), where the blocked-logits epoch kernel dominates.
    let spec = spec_by_name("madeline").expect("registry dataset");
    let data = HarnessConfig { scale: 0.2, ..HarnessConfig::default() }.generate(&spec);
    let train = data.stratified_split(0.8, 7).train;
    let mut group = c.benchmark_group("lr_train_wide");
    group.sample_size(10);
    let trainer = ModelKind::Lr.trainer(0);
    let (rows, cols) = train.x.shape();
    group.bench_function(format!("{rows}x{cols}"), |b| {
        b.iter(|| black_box(trainer.fit(&train.x, &train.y, train.n_classes)))
    });
    group.finish();
}

fn bench_train_table4_mini(c: &mut Criterion) {
    // The table4-mini shape: the three models on austrilian's training
    // split at scale 0.05 (128 x 14, 2 classes), where Train is most of
    // the matrix's time.
    let spec = spec_by_name("austrilian").expect("registry dataset");
    let data = HarnessConfig { scale: 0.05, ..HarnessConfig::default() }.generate(&spec);
    let train = data.stratified_split(0.8, 7).train;
    let (rows, cols) = train.x.shape();
    let mut group = c.benchmark_group("train_table4_mini");
    group.sample_size(100);
    for model in ModelKind::ALL {
        let trainer = model.trainer(0);
        group.bench_function(format!("{}/{rows}x{cols}", model.name()), |b| {
            b.iter(|| black_box(trainer.fit(&train.x, &train.y, train.n_classes)))
        });
    }
    group.finish();
}

fn bench_gbdt_bins_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: histogram granularity vs training cost.
    let dataset = SynthConfig::new("bench-bins", 800, 15, 2, 7).generate();
    let mut group = c.benchmark_group("gbdt_histogram_bins");
    group.sample_size(10);
    for bins in [8usize, 48, 255] {
        let params = GbdtParams { n_bins: bins, n_rounds: 15, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(bins), &params, |b, p| {
            b.iter(|| black_box(p.fit(&dataset.x, &dataset.y, dataset.n_classes)))
        });
    }
    group.finish();
}

fn bench_budgeted_training(c: &mut Criterion) {
    // Cost of Hyperband rungs: fractional budgets must be cheaper.
    let dataset = SynthConfig::new("bench-budget", 600, 12, 2, 9).generate();
    let trainer = GbdtParams::default();
    let mut group = c.benchmark_group("gbdt_budget_fraction");
    group.sample_size(10);
    for pct in [10u64, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(pct), &pct, |b, &pct| {
            b.iter(|| {
                black_box(trainer.fit_budgeted(
                    &dataset.x,
                    &dataset.y,
                    dataset.n_classes,
                    pct as f64 / 100.0,
                ))
            })
        });
    }
    group.finish();
}

fn bench_decision_tree_depths(c: &mut Criterion) {
    let dataset = SynthConfig::new("bench-tree", 600, 12, 2, 11).generate();
    let mut group = c.benchmark_group("decision_tree_depth");
    group.sample_size(10);
    for depth in [1usize, 3, 10] {
        let params = DecisionTreeParams::with_depth(Some(depth));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &params, |b, p| {
            b.iter(|| black_box(p.fit(&dataset.x, &dataset.y, dataset.n_classes)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_three_downstream_models,
    bench_model_scaling_with_rows,
    bench_lr_wide,
    bench_train_table4_mini,
    bench_gbdt_bins_ablation,
    bench_budgeted_training,
    bench_decision_tree_depths
);
criterion_main!(benches);
