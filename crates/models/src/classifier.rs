//! The classifier/trainer abstraction shared by the whole benchmark.

use autofp_linalg::memo::WordSink;
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

    /// Feed `words` the input of a fit on `train` scored on `valid`:
    /// words that the validation predictions are a pure function of,
    /// for this trainer's fixed labels, classes, budget and parameters.
    /// Two inputs that feed equal words must predict alike, so the
    /// evaluator's fit memo can key on them; the caller keys the shapes
    /// itself. Returns the fit on `train`, for the caller to run on a
    /// memo miss: a trainer whose words come from work its fit also
    /// does (XGB's binning) hands that work to the fit.
    ///
    /// The default feeds every `f64` bit pattern of `train`, then of
    /// `valid`, one [`WordSink::f64_bits`] call each: exact for any
    /// trainer. Its fit is [`Trainer::fit_cancellable`]. A trainer that
    /// reads less of its input may feed less, so more inputs share one
    /// fit.
    fn input_words<'a>(
        &'a self,
        train: &'a Matrix,
        valid: &Matrix,
        words: &mut dyn WordSink,
    ) -> Fit<'a> {
        words.f64_bits(train.as_slice());
        words.f64_bits(valid.as_slice());
        Box::new(move |y, n_classes, budget, cancel| {
            self.fit_cancellable(train, y, n_classes, budget, cancel)
        })
    }
}

/// A pending fit, as [`Trainer::input_words`] returns it: called with
/// the labels, class count, budget and token of
/// [`Trainer::fit_cancellable`].
pub type Fit<'a> =
    Box<dyn FnOnce(&[usize], usize, f64, &CancelToken) -> Box<dyn Classifier> + 'a>;

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

    /// Parse a report name (case-insensitive): `lr`, `xgb` or `mlp`.
    pub fn parse(s: &str) -> Option<ModelKind> {
        Self::ALL.iter().copied().find(|m| m.name().eq_ignore_ascii_case(s))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier that implements only `predict_row`, so every other
    /// method is the trait default.
    struct Always(usize);

    impl Classifier for Always {
        fn predict_row(&self, _row: &[f64]) -> usize {
            self.0
        }
    }

    #[test]
    fn default_predict_and_proba_follow_predict_row() {
        let m = Always(2);
        assert_eq!(m.predict(&Matrix::zeros(4, 2)), vec![2, 2, 2, 2]);
        assert_eq!(m.predict_proba_row(&[0.0], 4), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Lr.name(), "LR");
        assert_eq!(ModelKind::Xgb.to_string(), "XGB");
        assert_eq!(ModelKind::ALL.len(), 3);
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
            assert_eq!(ModelKind::parse(&kind.name().to_lowercase()), Some(kind));
        }
        assert_eq!(ModelKind::parse("svm"), None);
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
