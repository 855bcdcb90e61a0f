//! The skew-free export fit: produce a [`ServeArtifact`] whose served
//! predictions are bit-identical to the in-search evaluation.
//!
//! [`fit_artifact`] replicates [`autofp_core::Evaluator`]'s fit path
//! *exactly*, in the same order: stratified split at
//! (`train_fraction`, `seed`), optional training-row subsample at the
//! same seed, `Pipeline::fit_transform` on the training features,
//! `FittedPipeline::transform_new` on the validation features, and a
//! model trained through the same concrete code the boxed
//! [`autofp_models::classifier::Trainer`] runs (see
//! [`TrainedModel::train`]). Any divergence here would be train/serve
//! skew — the integration suite pins the equivalence bit-for-bit.

use crate::artifact::{ArtifactMeta, ServeArtifact};
use autofp_core::evaluator::{check_accuracy, check_transformed};
use autofp_core::{EvalConfig, EvalError};
use autofp_data::Dataset;
use autofp_models::metrics::accuracy;
use autofp_models::{CancelToken, Classifier, TrainedModel};
use autofp_preprocess::Pipeline;

/// Fit `pipeline` + the configured model on `dataset` the way the
/// evaluator would, and package the result as a serve artifact.
///
/// Returns the evaluator's failure taxonomy on the same conditions it
/// would fail (it runs the same checks): a transform that maps finite
/// train or validation input to NaN/inf, a degenerate (empty) train
/// matrix, or a non-finite validation accuracy.
pub fn fit_artifact(
    dataset: &Dataset,
    pipeline: &Pipeline,
    config: &EvalConfig,
) -> Result<ServeArtifact, EvalError> {
    // Mirror of Evaluator::new + from_split: split, then subsample.
    let mut split = dataset.stratified_split(config.train_fraction, config.seed);
    if let Some(cap) = config.train_subsample {
        split.train = split.train.subsample(cap, config.seed);
    }

    // Mirror of Evaluator::evaluate_raw at full budget.
    let (fitted, train_x) = pipeline.fit_transform(&split.train.x);
    let valid_x = fitted.transform_new(&split.valid.x);
    check_transformed(
        pipeline,
        &train_x,
        &valid_x,
        split.train.x.is_finite(),
        split.valid.x.is_finite(),
    )?;
    let (n, d) = train_x.shape();

    let model = TrainedModel::train(
        config.model,
        config.seed,
        &train_x,
        &split.train.y,
        split.train.n_classes,
        1.0,
        &CancelToken::new(),
    );
    let acc = check_accuracy(accuracy(&split.valid.y, &model.predict(&valid_x)))?;

    Ok(ServeArtifact {
        meta: ArtifactMeta {
            dataset: dataset.name.clone(),
            pipeline_key: pipeline.key(),
            model: config.model,
            seed: config.seed,
            train_fraction: config.train_fraction,
            train_subsample: config.train_subsample.unwrap_or(0) as u64,
            n_features: d as u64,
            n_classes: split.train.n_classes as u64,
            train_rows: n as u64,
            accuracy: acc,
        },
        pipeline: fitted,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_core::Evaluate;
    use autofp_data::SynthConfig;
    use autofp_models::ModelKind;
    use autofp_preprocess::PreprocKind;

    #[test]
    fn exported_accuracy_matches_the_evaluator() {
        let d = SynthConfig::new("export-ds", 240, 6, 3, 13).generate();
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler, PreprocKind::MinMaxScaler]);
        for model in ModelKind::ALL {
            let config = EvalConfig { model, seed: 5, ..Default::default() };
            let art = fit_artifact(&d, &p, &config).expect("fit");
            let ev = autofp_core::Evaluator::new(&d, config);
            let trial = ev.evaluate(&p);
            assert_eq!(
                art.meta.accuracy.to_bits(),
                trial.accuracy.to_bits(),
                "{model}: export accuracy skewed from in-search accuracy"
            );
            assert_eq!(art.meta.train_rows as usize, ev.train_rows());
        }
    }

    /// Search refuses a pipeline whose validation matrix turns
    /// non-finite; the export must refuse it too rather than package a
    /// model scored on overflowed features.
    #[test]
    fn non_finite_valid_transform_is_refused_like_search() {
        let y: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let x = |big_row: Option<usize>| {
            let rows: Vec<Vec<f64>> = (0..100)
                .map(|i| {
                    let tiny = if big_row == Some(i) { 1e308 } else { i as f64 * 1e-12 };
                    vec![(i % 2) as f64, tiny]
                })
                .collect();
            autofp_linalg::Matrix::from_rows(&rows)
        };
        let config = EvalConfig { seed: 0, ..EvalConfig::default() };
        // The split depends on labels and seed only: find a row it sends
        // to validation from its feature-1 value, then make it huge.
        let probe = Dataset::new("export-overflow", x(None), y.clone(), 2);
        let split = probe.stratified_split(config.train_fraction, config.seed);
        let valid_row = (split.valid.x.get(0, 1) / 1e-12).round() as usize;
        let d = Dataset::new("export-overflow", x(Some(valid_row)), y, 2);
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);

        let searched = autofp_core::Evaluator::new(&d, config.clone()).try_evaluate(&p);
        let Err(EvalError::NonFiniteTransform { detail }) = searched else {
            panic!("search must refuse the overflowed valid matrix, got {searched:?}");
        };
        assert!(detail.starts_with("valid matrix"), "{detail}");
        match fit_artifact(&d, &p, &config) {
            Err(EvalError::NonFiniteTransform { detail: exported }) => assert_eq!(exported, detail),
            Err(other) => panic!("wrong failure: {other:?}"),
            Ok(art) => panic!("export accepted it (accuracy {})", art.meta.accuracy),
        }
    }

    #[test]
    fn degenerate_train_matrix_is_refused() {
        let d = Dataset::new(
            "export-empty",
            autofp_linalg::Matrix::zeros(10, 0),
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
            2,
        );
        let Err(err) = fit_artifact(&d, &Pipeline::empty(), &EvalConfig::default()) else {
            panic!("expected a degenerate-matrix failure");
        };
        assert!(matches!(err, EvalError::DegenerateMatrix { .. }), "{err:?}");
    }
}
