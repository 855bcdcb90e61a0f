//! Feature preprocessing pipelines (Definition 2 of the paper).
//!
//! A [`Pipeline`] is an ordered sequence of parameterized preprocessors.
//! Fitting it on training data produces a [`FittedPipeline`]: each step
//! is fit on the output of the previous steps (scikit-learn `Pipeline`
//! semantics), and the fitted chain can then transform validation data.

use crate::kinds::PreprocKind;
use crate::power::LambdaMemo;
use crate::preproc::{FittedPreproc, Preproc};
use autofp_linalg::Matrix;
use std::fmt;

/// Maximum pipeline length of the paper's default search space.
///
/// With 7 preprocessors and lengths 1..=7 the space holds
/// `sum_{i=1}^{7} 7^i = 960_799` pipelines — the "about 1 million"
/// quoted in §7.3 of the paper.
pub const DEFAULT_MAX_LEN: usize = 7;

/// Hard cap on the pipeline length any decoder accepts (wire, trial
/// store, fitted-pipeline artifact). The search space never comes close,
/// so a longer pipeline is a corrupt payload.
pub const MAX_STEPS: u32 = 64;

/// An (unfitted) feature preprocessing pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    steps: Vec<Preproc>,
}

impl Pipeline {
    /// The empty pipeline (identity transformation / "no FP").
    pub fn empty() -> Pipeline {
        Pipeline { steps: Vec::new() }
    }

    /// Build from explicit steps.
    pub fn new(steps: Vec<Preproc>) -> Pipeline {
        Pipeline { steps }
    }

    /// Build from kinds, using each kind's default parameters.
    pub fn from_kinds(kinds: &[PreprocKind]) -> Pipeline {
        Pipeline { steps: kinds.iter().map(|&k| Preproc::default_for(k)).collect() }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the identity pipeline.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Borrow the steps.
    pub fn steps(&self) -> &[Preproc] {
        &self.steps
    }

    /// The kind sequence (the search-space "DNA" of this pipeline).
    pub fn kinds(&self) -> Vec<PreprocKind> {
        self.steps.iter().map(Preproc::kind).collect()
    }

    /// Append a step.
    pub fn push(&mut self, p: Preproc) {
        self.steps.push(p);
    }

    /// Replace the step at `i`.
    pub fn set_step(&mut self, i: usize, p: Preproc) {
        self.steps[i] = p;
    }

    /// Fit every step in sequence on (a copy of) the training features,
    /// returning the fitted chain and the fully transformed features.
    /// Power steps search λ only for columns `lambdas` has not seen.
    pub fn fit_transform(&self, x: &Matrix, lambdas: &LambdaMemo) -> (FittedPipeline, Matrix) {
        let mut data = x.clone();
        let mut fitted = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            fitted.push(step.fit_transform(&mut data, lambdas));
        }
        (FittedPipeline { steps: fitted }, data)
    }

    /// A stable textual key identifying this exact pipeline (kinds and
    /// parameters), used for deduplication in search histories.
    pub fn key(&self) -> String {
        let mut key = self.to_string();
        // Caches, histories and timing tallies keep keys for as long as
        // they live; drop the formatter's growth slack.
        key.shrink_to_fit();
        key
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return f.write_str("(identity)");
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The fitted counterpart of a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct FittedPipeline {
    steps: Vec<FittedPreproc>,
}

impl FittedPipeline {
    /// Reassemble a fitted pipeline from its fitted steps (the inverse
    /// of [`FittedPipeline::steps`]; used by the artifact codec).
    pub fn from_steps(steps: Vec<FittedPreproc>) -> FittedPipeline {
        FittedPipeline { steps }
    }

    /// Borrow the fitted steps in application order.
    pub fn steps(&self) -> &[FittedPreproc] {
        &self.steps
    }

    /// Transform features in place through every fitted step.
    pub fn transform(&self, x: &mut Matrix) {
        for step in &self.steps {
            step.transform(x);
        }
    }

    /// Transform into a new matrix.
    pub fn transform_new(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.transform(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preproc::Norm;

    #[test]
    fn empty_pipeline_is_identity() {
        let x = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        let (fitted, out) = Pipeline::empty().fit_transform(&x, &LambdaMemo::new());
        assert_eq!(out, x);
        let mut v = x.clone();
        fitted.transform(&mut v);
        assert_eq!(v, x);
    }

    #[test]
    fn composition_order_matters() {
        // P1: MinMax -> Binarizer(0.5) vs P2: Binarizer(0.5) -> MinMax
        let x = Matrix::column_vector(&[0.0, 2.0, 10.0]);
        let p1 = Pipeline::new(vec![
            Preproc::MinMaxScaler,
            Preproc::Binarizer { threshold: 0.5 },
        ]);
        let p2 = Pipeline::new(vec![
            Preproc::Binarizer { threshold: 0.5 },
            Preproc::MinMaxScaler,
        ]);
        let (_, o1) = p1.fit_transform(&x, &LambdaMemo::new());
        let (_, o2) = p2.fit_transform(&x, &LambdaMemo::new());
        // p1: minmax -> [0, .2, 1] -> binarize(.5) -> [0,0,1]
        assert_eq!(o1.col(0), vec![0.0, 0.0, 1.0]);
        // p2: binarize(.5) -> [0,1,1] -> minmax -> [0,1,1]
        assert_eq!(o2.col(0), vec![0.0, 1.0, 1.0]);
        assert_ne!(o1.col(0), o2.col(0));
    }

    #[test]
    fn paper_example_p2_composition() {
        // §3.1 Example 3.2: PowerTransformer -> MinMaxScaler -> Normalizer
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 100.0], vec![3.0, 1000.0]]);
        let p = Pipeline::from_kinds(&[
            PreprocKind::PowerTransformer,
            PreprocKind::MinMaxScaler,
            PreprocKind::Normalizer,
        ]);
        let (fitted, out) = p.fit_transform(&x, &LambdaMemo::new());
        assert!(out.is_finite());
        // Every row of the output has unit L2 norm (Normalizer is last).
        for row in out.rows_iter() {
            let n = autofp_linalg::matrix::norm_l2(row);
            assert!((n - 1.0).abs() < 1e-9 || n == 0.0);
        }
        // The fitted pipeline transforms unseen data consistently.
        let mut unseen = Matrix::from_rows(&[vec![1.5, 50.0]]);
        fitted.transform(&mut unseen);
        assert!(unseen.is_finite());
    }

    #[test]
    fn steps_fit_on_transformed_output() {
        // StandardScaler after MinMax must see the minmaxed data: the
        // fitted means must lie in [0, 1], not in the raw range.
        let x = Matrix::column_vector(&[0.0, 500.0, 1000.0]);
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::StandardScaler]);
        let (_, out) = p.fit_transform(&x, &LambdaMemo::new());
        let col = out.col(0);
        assert!(autofp_linalg::stats::mean(&col).abs() < 1e-9);
        assert!((autofp_linalg::stats::std_dev(&col) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler, PreprocKind::PowerTransformer]);
        assert_eq!(p.to_string(), "MinMaxScaler -> PowerTransformer");
        assert_eq!(Pipeline::empty().to_string(), "(identity)");
    }

    #[test]
    fn kinds_and_mutation_accessors() {
        let mut p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        assert_eq!(p.kinds(), vec![PreprocKind::Binarizer]);
        p.push(Preproc::Normalizer { norm: Norm::L1 });
        p.set_step(0, Preproc::MaxAbsScaler);
        assert_eq!(p.kinds(), vec![PreprocKind::MaxAbsScaler, PreprocKind::Normalizer]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn key_distinguishes_parameters() {
        let a = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.0 }]);
        let b = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.5 }]);
        assert_ne!(a.key(), b.key());
    }
}
