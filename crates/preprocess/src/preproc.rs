//! Parameterized preprocessors and their fitted states.
//!
//! Each preprocessor follows scikit-learn's fit/transform contract: `fit`
//! learns column statistics from the *training* matrix, producing a
//! [`FittedPreproc`] that can then transform both the training and
//! validation matrices (the paper's pipeline-error definition, Eq. 2,
//! requires exactly this asymmetry).

use crate::kinds::PreprocKind;
use crate::power::{self, LambdaMemo};
use crate::quantile;
use autofp_linalg::matrix::{norm_l1, norm_l2, norm_max};
use autofp_linalg::Matrix;
use std::fmt;

/// Row norm used by `Normalizer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Norm {
    /// Sum of absolute values.
    L1,
    /// Euclidean norm (scikit-learn default).
    L2,
    /// Largest absolute value.
    Max,
}

/// Output distribution of `QuantileTransformer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputDist {
    /// Quantile positions in [0, 1].
    Uniform,
    /// Quantile positions pushed through the inverse normal CDF.
    Normal,
}

impl Norm {
    /// Stable byte code used by the wire, trial-store and artifact
    /// formats.
    pub fn code(self) -> u8 {
        match self {
            Norm::L1 => 0,
            Norm::L2 => 1,
            Norm::Max => 2,
        }
    }

    /// Inverse of [`Norm::code`]; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Norm> {
        [Norm::L1, Norm::L2, Norm::Max].get(code as usize).copied()
    }
}

impl OutputDist {
    /// Stable byte code used by the wire, trial-store and artifact
    /// formats.
    pub fn code(self) -> u8 {
        match self {
            OutputDist::Uniform => 0,
            OutputDist::Normal => 1,
        }
    }

    /// Inverse of [`OutputDist::code`]; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<OutputDist> {
        [OutputDist::Uniform, OutputDist::Normal].get(code as usize).copied()
    }
}

/// A preprocessor specification: a kind plus concrete parameter values.
///
/// Defaults (via [`Preproc::default_for`]) match the scikit-learn
/// defaults the paper uses: `Binarizer(threshold=0)`, `Normalizer(l2)`,
/// `StandardScaler(with_mean=true)`, `PowerTransformer(standardize=true)`,
/// `QuantileTransformer(n_quantiles=1000, uniform)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Preproc {
    /// Values above `threshold` map to 1, others to 0.
    Binarizer {
        /// Decision threshold (paper default 0).
        threshold: f64,
    },
    /// Scale each column by its maximum absolute value.
    MaxAbsScaler,
    /// Scale each column to [0, 1] (paper default range).
    MinMaxScaler,
    /// Scale each row to unit `norm`.
    Normalizer {
        /// Row norm to normalize by.
        norm: Norm,
    },
    /// Yeo-Johnson transform, optionally standardized after.
    PowerTransformer {
        /// Standardize the transformed output (sklearn default true).
        standardize: bool,
    },
    /// Empirical-quantile map with `n_quantiles` references.
    QuantileTransformer {
        /// Number of reference quantiles (capped at the row count).
        n_quantiles: usize,
        /// Output distribution (uniform or normal).
        output: OutputDist,
    },
    /// Standardize (optionally without centering).
    StandardScaler {
        /// Subtract the mean before scaling (sklearn default true).
        with_mean: bool,
    },
}

impl Preproc {
    /// The scikit-learn-default parameterization of a kind.
    pub fn default_for(kind: PreprocKind) -> Preproc {
        match kind {
            PreprocKind::Binarizer => Preproc::Binarizer { threshold: 0.0 },
            PreprocKind::MaxAbsScaler => Preproc::MaxAbsScaler,
            PreprocKind::MinMaxScaler => Preproc::MinMaxScaler,
            PreprocKind::Normalizer => Preproc::Normalizer { norm: Norm::L2 },
            PreprocKind::PowerTransformer => Preproc::PowerTransformer { standardize: true },
            PreprocKind::QuantileTransformer => {
                Preproc::QuantileTransformer { n_quantiles: 1000, output: OutputDist::Uniform }
            }
            PreprocKind::StandardScaler => Preproc::StandardScaler { with_mean: true },
        }
    }

    /// The kind of this preprocessor.
    pub fn kind(&self) -> PreprocKind {
        match self {
            Preproc::Binarizer { .. } => PreprocKind::Binarizer,
            Preproc::MaxAbsScaler => PreprocKind::MaxAbsScaler,
            Preproc::MinMaxScaler => PreprocKind::MinMaxScaler,
            Preproc::Normalizer { .. } => PreprocKind::Normalizer,
            Preproc::PowerTransformer { .. } => PreprocKind::PowerTransformer,
            Preproc::QuantileTransformer { .. } => PreprocKind::QuantileTransformer,
            Preproc::StandardScaler { .. } => PreprocKind::StandardScaler,
        }
    }

    /// Fit this preprocessor on training features. A power transform
    /// searches λ only for columns `lambdas` has not seen.
    pub fn fit(&self, x: &Matrix, lambdas: &LambdaMemo) -> FittedPreproc {
        let d = x.ncols();
        match self {
            Preproc::Binarizer { threshold } => FittedPreproc::Binarizer { threshold: *threshold },
            Preproc::Normalizer { norm } => FittedPreproc::Normalizer { norm: *norm },
            Preproc::MaxAbsScaler => {
                let mut scale = Vec::with_capacity(d);
                for j in 0..d {
                    let col = finite_col(x, j);
                    let m = norm_max(&col);
                    scale.push(if m > 0.0 { m } else { 1.0 });
                }
                FittedPreproc::MaxAbs { scale }
            }
            Preproc::MinMaxScaler => {
                let mut mins = Vec::with_capacity(d);
                let mut ranges = Vec::with_capacity(d);
                for j in 0..d {
                    let col = finite_col(x, j);
                    let mn = col.iter().copied().fold(f64::INFINITY, f64::min);
                    let mx = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let (mn, mx) = if mn.is_finite() { (mn, mx) } else { (0.0, 0.0) };
                    let range = mx - mn;
                    mins.push(mn);
                    ranges.push(if range > 0.0 { range } else { 1.0 });
                }
                FittedPreproc::MinMax { mins, ranges }
            }
            Preproc::StandardScaler { with_mean } => {
                let mut means = Vec::with_capacity(d);
                let mut stds = Vec::with_capacity(d);
                for j in 0..d {
                    let col = finite_col(x, j);
                    let m = autofp_linalg::stats::mean(&col);
                    let s = autofp_linalg::stats::std_dev(&col);
                    means.push(if *with_mean { m } else { 0.0 });
                    stds.push(if s > 0.0 { s } else { 1.0 });
                }
                FittedPreproc::Standard { means, stds }
            }
            Preproc::PowerTransformer { standardize } => {
                FittedPreproc::Power(power::FittedPower::fit(x, *standardize, lambdas))
            }
            Preproc::QuantileTransformer { n_quantiles, output } => FittedPreproc::Quantile(
                quantile::FittedQuantile::fit(x, *n_quantiles, *output),
            ),
        }
    }

    /// Fit on `x` and transform it in place (the common training-side call).
    pub fn fit_transform(&self, x: &mut Matrix, lambdas: &LambdaMemo) -> FittedPreproc {
        let fitted = self.fit(x, lambdas);
        fitted.transform(x);
        fitted
    }
}

impl fmt::Display for Preproc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Preproc::Binarizer { threshold } if *threshold == 0.0 => write!(f, "Binarizer"),
            Preproc::Binarizer { threshold } => write!(f, "Binarizer(threshold={threshold})"),
            Preproc::MaxAbsScaler => write!(f, "MaxAbsScaler"),
            Preproc::MinMaxScaler => write!(f, "MinMaxScaler"),
            Preproc::Normalizer { norm: Norm::L2 } => write!(f, "Normalizer"),
            Preproc::Normalizer { norm } => write!(f, "Normalizer(norm={norm:?})"),
            Preproc::PowerTransformer { standardize: true } => write!(f, "PowerTransformer"),
            Preproc::PowerTransformer { standardize } => {
                write!(f, "PowerTransformer(standardize={standardize})")
            }
            Preproc::QuantileTransformer { n_quantiles: 1000, output: OutputDist::Uniform } => {
                write!(f, "QuantileTransformer")
            }
            Preproc::QuantileTransformer { n_quantiles, output } => {
                write!(f, "QuantileTransformer(n_quantiles={n_quantiles}, output={output:?})")
            }
            Preproc::StandardScaler { with_mean: true } => write!(f, "StandardScaler"),
            Preproc::StandardScaler { with_mean } => {
                write!(f, "StandardScaler(with_mean={with_mean})")
            }
        }
    }
}

/// Fitted state of a preprocessor, ready to transform any matrix with the
/// same column count.
#[derive(Debug, Clone)]
pub enum FittedPreproc {
    /// Stateless threshold.
    Binarizer {
        /// Decision threshold.
        threshold: f64,
    },
    /// Per-column max-abs scale factors.
    MaxAbs {
        /// Divisor per column.
        scale: Vec<f64>,
    },
    /// Per-column minimum and range.
    MinMax {
        /// Fitted column minimums.
        mins: Vec<f64>,
        /// Fitted column ranges (1 for constant columns).
        ranges: Vec<f64>,
    },
    /// Stateless row normalizer.
    Normalizer {
        /// Row norm to normalize by.
        norm: Norm,
    },
    /// Per-column mean and standard deviation.
    Standard {
        /// Fitted column means (zero when `with_mean` was false).
        means: Vec<f64>,
        /// Fitted column standard deviations (1 for constant columns).
        stds: Vec<f64>,
    },
    /// Fitted Yeo-Johnson state.
    Power(power::FittedPower),
    /// Fitted quantile references.
    Quantile(quantile::FittedQuantile),
}

impl FittedPreproc {
    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        match self {
            FittedPreproc::Binarizer { threshold } => {
                let t = *threshold;
                x.map_inplace(|v| if v > t { 1.0 } else { 0.0 });
            }
            FittedPreproc::MaxAbs { scale } => {
                apply_columnwise(x, |j, v| v / scale[j]);
            }
            FittedPreproc::MinMax { mins, ranges } => {
                apply_columnwise(x, |j, v| (v - mins[j]) / ranges[j]);
            }
            FittedPreproc::Standard { means, stds } => {
                apply_columnwise(x, |j, v| (v - means[j]) / stds[j]);
            }
            FittedPreproc::Normalizer { norm } => {
                let n_rows = x.nrows();
                for r in 0..n_rows {
                    let row = x.row_mut(r);
                    let nrm = match norm {
                        Norm::L1 => norm_l1(row),
                        Norm::L2 => norm_l2(row),
                        Norm::Max => norm_max(row),
                    };
                    if nrm > 0.0 {
                        for v in row {
                            *v /= nrm;
                        }
                    }
                }
            }
            FittedPreproc::Power(p) => p.transform(x),
            FittedPreproc::Quantile(q) => q.transform(x),
        }
    }
}

/// Column `j` with non-finite cells dropped (fit statistics must never
/// be poisoned by NaN/Inf; transform-side sanitization is the models'
/// job).
fn finite_col(x: &Matrix, j: usize) -> Vec<f64> {
    x.col(j).into_iter().filter(|v| v.is_finite()).collect()
}

#[inline]
fn apply_columnwise(x: &mut Matrix, f: impl Fn(usize, f64) -> f64) {
    let cols = x.ncols();
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = f(i % cols, *v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 example column from the paper.
    fn fig1() -> Matrix {
        Matrix::column_vector(&[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0])
    }

    fn transform_with(p: &Preproc, x: &Matrix) -> Vec<f64> {
        let mut m = x.clone();
        p.fit(x, &LambdaMemo::new()).transform(&mut m);
        m.col(0)
    }

    fn assert_close(actual: &[f64], expected: &[f64], tol: f64) {
        assert_eq!(actual.len(), expected.len());
        for (a, e) in actual.iter().zip(expected) {
            assert!((a - e).abs() <= tol, "{actual:?} vs {expected:?}");
        }
    }

    #[test]
    fn figure1_standard_scaler() {
        // Figure 1(b): [-1.87, -0.61, -0.36, 0.15, 0.40, 0.90, 1.41]
        let out = transform_with(&Preproc::StandardScaler { with_mean: true }, &fig1());
        assert_close(&out, &[-1.87, -0.61, -0.36, 0.15, 0.40, 0.90, 1.41], 0.01);
    }

    #[test]
    fn figure1_maxabs() {
        // Figure 1(c): [-0.3, 0.2, 0.3, 0.5, 0.6, 0.8, 1]
        let out = transform_with(&Preproc::MaxAbsScaler, &fig1());
        assert_close(&out, &[-0.3, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0], 1e-9);
    }

    #[test]
    fn figure1_minmax() {
        // Figure 1(d): [0, 0.38, 0.46, 0.61, 0.69, 0.85, 1]
        let out = transform_with(&Preproc::MinMaxScaler, &fig1());
        assert_close(&out, &[0.0, 0.38, 0.46, 0.61, 0.69, 0.85, 1.0], 0.01);
    }

    #[test]
    fn figure1_normalizer() {
        // Figure 1(e): single-column rows scale to sign: [-1, 1, 1, 1, 1, 1, 1]
        let out = transform_with(&Preproc::Normalizer { norm: Norm::L2 }, &fig1());
        assert_close(&out, &[-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1e-9);
    }

    #[test]
    fn figure1_binarizer() {
        // Figure 1(h): [0, 1, 1, 1, 1, 1, 1]
        let out = transform_with(&Preproc::Binarizer { threshold: 0.0 }, &fig1());
        assert_close(&out, &[0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1e-9);
    }

    #[test]
    fn figure1_quantile_uniform() {
        // Figure 1(g): [0, 1/6, 2/6, 3/6, 4/6, 5/6, 1]
        let p = Preproc::QuantileTransformer { n_quantiles: 1000, output: OutputDist::Uniform };
        let out = transform_with(&p, &fig1());
        let expected: Vec<f64> = (0..7).map(|i| i as f64 / 6.0).collect();
        assert_close(&out, &expected, 1e-6);
    }

    #[test]
    fn binarizer_threshold_strictly_greater() {
        // sklearn maps values <= threshold to 0.
        let x = Matrix::column_vector(&[-1.0, 0.0, 0.5]);
        let out = transform_with(&Preproc::Binarizer { threshold: 0.0 }, &x);
        assert_eq!(out, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn normalizer_l1_and_max() {
        let x = Matrix::from_rows(&[vec![3.0, -1.0]]);
        let mut m = x.clone();
        Preproc::Normalizer { norm: Norm::L1 }.fit(&x, &LambdaMemo::new()).transform(&mut m);
        assert_close(m.row(0), &[0.75, -0.25], 1e-12);
        let mut m = x.clone();
        Preproc::Normalizer { norm: Norm::Max }.fit(&x, &LambdaMemo::new()).transform(&mut m);
        assert_close(m.row(0), &[1.0, -1.0 / 3.0], 1e-12);
    }

    #[test]
    fn normalizer_zero_row_unchanged() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let out = transform_with(&Preproc::Normalizer { norm: Norm::L2 }, &x);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn standard_scaler_without_mean() {
        let x = Matrix::column_vector(&[2.0, 4.0]);
        let out = transform_with(&Preproc::StandardScaler { with_mean: false }, &x);
        // std = 1, values divided by std only.
        assert_close(&out, &[2.0, 4.0], 1e-12);
    }

    #[test]
    fn constant_column_is_safe_everywhere() {
        let x = Matrix::column_vector(&[5.0; 6]);
        for kind in PreprocKind::ALL {
            let p = Preproc::default_for(kind);
            let out = transform_with(&p, &x);
            assert!(out.iter().all(|v| v.is_finite()), "{kind} produced non-finite");
        }
    }

    #[test]
    fn fitted_state_applies_to_unseen_data() {
        // Fit MinMax on train, apply to valid with out-of-range values.
        let train = Matrix::column_vector(&[0.0, 10.0]);
        let fitted = Preproc::MinMaxScaler.fit(&train, &LambdaMemo::new());
        let mut valid = Matrix::column_vector(&[-5.0, 5.0, 20.0]);
        fitted.transform(&mut valid);
        assert_close(&valid.col(0), &[-0.5, 0.5, 2.0], 1e-12);
    }

    #[test]
    fn default_display_names_match_paper() {
        for kind in PreprocKind::ALL {
            assert_eq!(Preproc::default_for(kind).to_string(), kind.name());
        }
        assert_eq!(
            Preproc::Binarizer { threshold: 0.4 }.to_string(),
            "Binarizer(threshold=0.4)"
        );
    }

    #[test]
    fn kind_roundtrip() {
        for kind in PreprocKind::ALL {
            assert_eq!(Preproc::default_for(kind).kind(), kind);
        }
    }
}
