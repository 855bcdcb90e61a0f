//! `QuantileTransformer`: map each column onto its empirical quantiles.
//!
//! Fit stores `n_quantiles` reference values per column (the empirical
//! quantiles at evenly spaced probabilities, scikit-learn's scheme, with
//! `n_quantiles` capped at the number of training rows). Transform maps a
//! value to its interpolated quantile position in `[0, 1]`; with
//! `output = Normal` the position is pushed through the inverse normal
//! CDF. Values outside the fitted range clip to the boundaries, exactly
//! as scikit-learn clips.

use crate::preproc::OutputDist;
use autofp_linalg::dist::norm_ppf;
use autofp_linalg::stats::quantile_sorted;
use autofp_linalg::Matrix;

/// Fitted quantile transform (per-column reference quantiles).
#[derive(Debug, Clone)]
pub struct FittedQuantile {
    /// `references[j]` holds the sorted quantile values of column `j`.
    pub(crate) references: Vec<Vec<f64>>,
    pub(crate) output: OutputDist,
}

impl FittedQuantile {
    /// Fit on training features.
    pub fn fit(x: &Matrix, n_quantiles: usize, output: OutputDist) -> FittedQuantile {
        let n = x.nrows();
        let q = n_quantiles.clamp(2, n.max(2));
        let mut references = Vec::with_capacity(x.ncols());
        for j in 0..x.ncols() {
            let mut col: Vec<f64> = x.col(j).into_iter().filter(|v| v.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            let refs: Vec<f64> = if col.is_empty() {
                vec![0.0, 0.0]
            } else {
                (0..q).map(|i| quantile_sorted(&col, i as f64 / (q - 1) as f64)).collect()
            };
            references.push(refs);
        }
        FittedQuantile { references, output }
    }

    /// Number of stored quantiles per column.
    pub fn n_quantiles(&self) -> usize {
        self.references.first().map_or(0, Vec::len)
    }

    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        let cols = x.ncols();
        assert_eq!(cols, self.references.len(), "column count mismatch");
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            let refs = &self.references[i % cols];
            let pos = quantile_position(refs, *v);
            *v = match self.output {
                OutputDist::Uniform => pos,
                OutputDist::Normal => norm_ppf(pos),
            };
        }
    }
}

/// Interpolated quantile position of `v` within sorted `refs`, in `[0, 1]`.
fn quantile_position(refs: &[f64], v: f64) -> f64 {
    let q = refs.len();
    debug_assert!(q >= 2);
    if v.is_nan() {
        // NaN carries no rank information; map to the median position
        // (downstream models additionally sanitize their inputs).
        return 0.5;
    }
    let lo = refs[0];
    let hi = refs[q - 1];
    if v <= lo {
        return 0.0;
    }
    if v >= hi {
        return 1.0;
    }
    // Binary search for the first reference >= v. A fitted table can
    // decrease by an ulp between tied values (see `fit`), and the search
    // result on an unsorted slice is unspecified, so clamp it to the
    // interior; on a sorted table `lo < v < hi` already puts it there.
    let idx = refs.partition_point(|&r| r < v).clamp(1, q - 1);
    // refs[idx-1] < v <= refs[idx]
    let (a, b) = (refs[idx - 1], refs[idx]);
    let frac = if b > a { (v - a) / (b - a) } else { 0.0 };
    ((idx - 1) as f64 + frac) / (q - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_uniform() {
        // Column [-1.5, 1, 1.5, 2.5, 3, 4, 5] -> [0, 1/6, ..., 1].
        let x = Matrix::column_vector(&[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        for (i, v) in m.col(0).iter().enumerate() {
            assert!((v - i as f64 / 6.0).abs() < 1e-9, "{:?}", m.col(0));
        }
    }

    #[test]
    fn tied_values_can_fit_an_unsorted_table_that_still_transforms() {
        // Interpolating between tied values rounds one ulp up here.
        let x = Matrix::column_vector(&[1.7; 5]);
        let fitted = FittedQuantile::fit(&x, 4, OutputDist::Uniform);
        assert_eq!(fitted.references[0], vec![1.7, 1.7000000000000002, 1.7, 1.7]);
        // Any finite table transforms without leaving its bounds.
        let unsorted = FittedQuantile {
            references: vec![vec![0.0, 5.0, -5.0, 10.0]],
            output: OutputDist::Uniform,
        };
        for v in [-1.0, 0.5, 1.7, 4.0, 9.0, 11.0] {
            let mut m = Matrix::column_vector(&[v]);
            fitted.transform(&mut m);
            let mut u = Matrix::column_vector(&[v]);
            unsorted.transform(&mut u);
            assert!(m.col(0)[0].is_finite() && u.col(0)[0].is_finite(), "{v}");
        }
    }

    #[test]
    fn n_quantiles_capped_at_rows() {
        let x = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        assert_eq!(fitted.n_quantiles(), 3);
    }

    #[test]
    fn out_of_range_clips() {
        let x = Matrix::column_vector(&[0.0, 1.0, 2.0]);
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = Matrix::column_vector(&[-100.0, 100.0, 1.0]);
        fitted.transform(&mut m);
        let out = m.col(0);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
        assert!((out[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normal_output_is_probit_of_uniform() {
        let x = Matrix::column_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let fu = FittedQuantile::fit(&x, 5, OutputDist::Uniform);
        let fnorm = FittedQuantile::fit(&x, 5, OutputDist::Normal);
        let mut mu = x.clone();
        let mut mn = x.clone();
        fu.transform(&mut mu);
        fnorm.transform(&mut mn);
        for (u, n) in mu.col(0).iter().zip(mn.col(0)) {
            assert!((norm_ppf(*u) - n).abs() < 1e-9);
            assert!(n.is_finite());
        }
    }

    #[test]
    fn constant_column_maps_to_boundary() {
        let x = Matrix::column_vector(&[7.0; 4]);
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }

    #[test]
    fn coarse_quantiles_still_monotone() {
        let x = Matrix::column_vector(&(0..100).map(|i| (i * i) as f64).collect::<Vec<_>>());
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        for w in out.windows(2) {
            assert!(w[1] >= w[0], "not monotone");
        }
        assert_eq!(fitted.n_quantiles(), 10);
    }

    #[test]
    fn uniformizes_skewed_data() {
        // Severely skewed input becomes near-uniform: mean ~0.5, low skew.
        let col: Vec<f64> = (1..=1000).map(|i| (i as f64).powi(4)).collect();
        let x = Matrix::column_vector(&col);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        let mean = autofp_linalg::stats::mean(&out);
        let skew = autofp_linalg::stats::skewness(&out);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }
}
