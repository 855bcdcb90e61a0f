//! The classifier/trainer abstraction shared by the whole benchmark.

use autofp_linalg::Matrix;

use crate::cancel::CancelToken;
use crate::gbdt::GbdtParams;
use crate::linear::LogisticParams;
use crate::mlp::MlpParams;

/// A trained classifier.
pub trait Classifier: Send + Sync {
    /// Predict the class of a single feature row.
    fn predict_row(&self, row: &[f64]) -> usize;

    /// Predict classes for every row of a matrix.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        x.rows_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Class-probability estimates for a row, if the model provides them.
    /// The default derives a degenerate one-hot from `predict_row`.
    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut p = vec![0.0; n_classes];
        p[self.predict_row(row).min(n_classes - 1)] = 1.0;
        p
    }
}

/// A classifier *training procedure* (model family + hyperparameters).
///
/// `budget` is the fraction of the trainer's iteration budget to spend,
/// in `(0, 1]` — the resource axis Hyperband/BOHB allocate (number of
/// boosting rounds for the GBDT, epochs for LR/MLP).
pub trait Trainer: Send + Sync {
    /// Fit on features `x` and labels `y` (`y[i] < n_classes`), spending
    /// `budget` of the full iteration budget.
    fn fit_budgeted(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
    ) -> Box<dyn Classifier>;

    /// Fit with the full budget.
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Box<dyn Classifier> {
        self.fit_budgeted(x, y, n_classes, 1.0)
    }

    /// Fit like [`Trainer::fit_budgeted`], additionally polling `cancel`
    /// between iterations (epochs / boosting rounds) and returning the
    /// partially trained model early when it fires.
    ///
    /// The default implementation ignores the token (correct for
    /// trainers without an iteration loop); the three paper model
    /// families override it. A token that never fires must not change
    /// the result in any implementation.
    fn fit_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Box<dyn Classifier> {
        let _ = cancel;
        self.fit_budgeted(x, y, n_classes, budget)
    }

    /// Short name for reports ("LR", "XGB", "MLP", ...).
    fn name(&self) -> &'static str;
}

/// The paper's three downstream model families with their default
/// hyperparameters, as a convenient value type for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (scikit-learn `LogisticRegression` analogue).
    Lr,
    /// Gradient-boosted trees (XGBoost analogue).
    Xgb,
    /// One-hidden-layer MLP (scikit-learn `MLPClassifier` analogue).
    Mlp,
}

impl ModelKind {
    /// All three, in the paper's reporting order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Lr, ModelKind::Xgb, ModelKind::Mlp];

    /// Report name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::Xgb => "XGB",
            ModelKind::Mlp => "MLP",
        }
    }

    /// Stable byte code (the position in [`ModelKind::ALL`]) used by
    /// the wire, trial-context and artifact formats.
    pub fn code(self) -> u8 {
        match self {
            ModelKind::Lr => 0,
            ModelKind::Xgb => 1,
            ModelKind::Mlp => 2,
        }
    }

    /// Inverse of [`ModelKind::code`]; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<ModelKind> {
        ModelKind::ALL.get(code as usize).copied()
    }

    /// Construct the default trainer for this family.
    ///
    /// `seed` controls any training stochasticity (minibatch order,
    /// initialization); the paper fixes library defaults, we fix seeds.
    /// LR's full-batch optimizer has none, so it takes no seed.
    pub fn trainer(self, seed: u64) -> Box<dyn Trainer> {
        match self {
            ModelKind::Lr => Box::new(LogisticParams::default()),
            ModelKind::Xgb => Box::new(GbdtParams::default().with_seed(seed)),
            ModelKind::Mlp => Box::new(MlpParams::default().with_seed(seed)),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A constant-prediction classifier (majority class); useful as a
/// baseline and as the degenerate result of zero-budget training.
pub struct MajorityClassifier {
    /// The predicted (majority) class index.
    pub class: usize,
}

impl MajorityClassifier {
    /// Fit: pick the most frequent label.
    pub fn fit(y: &[usize], n_classes: usize) -> MajorityClassifier {
        let mut counts = vec![0usize; n_classes];
        for &c in y {
            counts[c] += 1;
        }
        let class = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        MajorityClassifier { class }
    }
}

impl Classifier for MajorityClassifier {
    fn predict_row(&self, _row: &[f64]) -> usize {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_picks_modal_class() {
        let m = MajorityClassifier::fit(&[0, 1, 1, 2, 1], 3);
        assert_eq!(m.class, 1);
        assert_eq!(m.predict_row(&[0.0]), 1);
        let x = Matrix::zeros(4, 2);
        assert_eq!(m.predict(&x), vec![1, 1, 1, 1]);
    }

    #[test]
    fn default_proba_is_one_hot() {
        let m = MajorityClassifier { class: 2 };
        assert_eq!(m.predict_proba_row(&[0.0], 4), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Lr.name(), "LR");
        assert_eq!(ModelKind::Xgb.to_string(), "XGB");
        assert_eq!(ModelKind::ALL.len(), 3);
    }

    #[test]
    fn model_kind_codes_are_positions_in_all() {
        for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.code() as usize, i);
            assert_eq!(ModelKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ModelKind::from_code(3), None);
    }
}
