//! `PowerTransformer`: the Yeo-Johnson transformation (Eq. 1 of the paper).
//!
//! For each column independently, the optimal exponent λ is found by
//! maximizing the Yeo-Johnson profile log-likelihood (the same objective
//! scikit-learn optimizes with Brent's method; we use golden-section
//! search on λ ∈ [-5, 5], which is robust because the profile likelihood
//! is unimodal in practice). With `standardize = true` (the sklearn
//! default) the transformed column is then scaled to zero mean and unit
//! variance.
//!
//! # λ memo
//!
//! The λ search is most of a power fit: 50 golden-section
//! likelihood evaluations, each one `exp` per value. Pipelines of one
//! evaluator often hand the transform a column it has already searched
//! bit for bit: a shared `PowerTransformer`-first prefix, or a
//! `Binarizer` after any sign-preserving step. So [`FittedPower::fit`]
//! takes a [`LambdaMemo`] that maps a 128-bit digest of the finite
//! column [`optimal_lambda`] reads (its length, then every `f64` bit
//! pattern) to the λ it returned. λ is a pure function of exactly
//! those bits, so a hit is the search's own answer. `-0.0` and `0.0`
//! key apart: `signum` reads the sign of zero in the Jacobian term, and
//! the key makes no argument about which bits the search may ignore.
//! The store is the fit memo's [`DigestMemo`]: debug builds keep each
//! entry's words and assert word equality on every hit, and it never
//! evicts. It lives as long as its evaluator, whose evaluation budget
//! bounds the distinct columns it can see.

use autofp_linalg::memo::{DigestKey, DigestMemo, KeyWords, WordSink};
use autofp_linalg::stats;
use autofp_linalg::Matrix;

const LAMBDA_LO: f64 = -5.0;
const LAMBDA_HI: f64 = 5.0;
/// Golden-section iterations; 48 brackets λ to ~1e-9 which is far below
/// any effect on downstream models.
const GOLDEN_ITERS: usize = 48;
/// Guard for exp overflow when computing `(1+x)^λ` in log space.
const MAX_EXPONENT: f64 = 350.0;

/// Yeo-Johnson transform of a single value (Eq. 1).
pub fn yeo_johnson(x: f64, lambda: f64) -> f64 {
    if x >= 0.0 {
        if lambda.abs() < 1e-12 {
            (x + 1.0).ln()
        } else {
            let e = lambda * (x + 1.0).ln();
            if e > MAX_EXPONENT {
                f64::INFINITY
            } else {
                (e.exp() - 1.0) / lambda
            }
        }
    } else if (lambda - 2.0).abs() < 1e-12 {
        -(1.0 - x).ln()
    } else {
        let e = (2.0 - lambda) * (1.0 - x).ln();
        if e > MAX_EXPONENT {
            f64::NEG_INFINITY
        } else {
            -(e.exp() - 1.0) / (2.0 - lambda)
        }
    }
}

/// The λ-free parts of one column's Yeo-Johnson profile log-likelihood
/// (the scipy `yeojohnson_llf` objective), built once per column so each
/// evaluation of the objective costs one `exp` per value.
struct Likelihood<'a> {
    col: &'a [f64],
    /// `ln(|x| + 1)` per value: bit for bit the `ln(x + 1)` and
    /// `ln(1 - x)` of [`yeo_johnson`], since `x + 1` (x ≥ 0) and `1 - x`
    /// (x < 0) both equal `|x| + 1` exactly.
    log1p_abs: Vec<f64>,
    /// `Σ sign(x)·ln(|x| + 1)`, the Jacobian term over `λ - 1`.
    jacobian: f64,
    /// The transformed column, reused across evaluations.
    scratch: Vec<f64>,
}

impl<'a> Likelihood<'a> {
    fn new(col: &'a [f64]) -> Self {
        let log1p_abs: Vec<f64> = col.iter().map(|&x| (x.abs() + 1.0).ln()).collect();
        let jacobian = col.iter().zip(&log1p_abs).map(|(&x, &l)| x.signum() * l).sum::<f64>();
        Likelihood { col, log1p_abs, jacobian, scratch: vec![0.0; col.len()] }
    }

    /// The log-likelihood at `lambda`: the transform is [`yeo_johnson`]'s
    /// branch for branch, evaluated from the cached logarithms.
    fn at(&mut self, lambda: f64) -> f64 {
        let n = self.col.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let near0 = lambda.abs() < 1e-12;
        let near2 = (lambda - 2.0).abs() < 1e-12;
        let iter = self.scratch.iter_mut().zip(self.col).zip(&self.log1p_abs);
        for ((t, &x), &l) in iter {
            *t = if x >= 0.0 {
                if near0 {
                    l
                } else {
                    let e = lambda * l;
                    if e > MAX_EXPONENT {
                        return f64::NEG_INFINITY;
                    }
                    (e.exp() - 1.0) / lambda
                }
            } else if near2 {
                -l
            } else {
                let e = (2.0 - lambda) * l;
                if e > MAX_EXPONENT {
                    return f64::NEG_INFINITY;
                }
                -(e.exp() - 1.0) / (2.0 - lambda)
            };
        }
        if self.scratch.iter().any(|v| !v.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let var = stats::variance(&self.scratch);
        if var <= 1e-300 {
            return f64::NEG_INFINITY;
        }
        -n / 2.0 * var.ln() + self.jacobian * (lambda - 1.0)
    }
}

/// Maximum-likelihood λ for one column via golden-section search.
pub fn optimal_lambda(col: &[f64]) -> f64 {
    // Constant columns: λ is irrelevant; use identity (λ = 1).
    if stats::variance(col) <= 1e-300 {
        return 1.0;
    }
    let mut llf = Likelihood::new(col);
    golden_section(|lambda| llf.at(lambda))
}

/// The maximizer of `f` on [`LAMBDA_LO`, `LAMBDA_HI`] by golden-section
/// search.
fn golden_section(mut f: impl FnMut(f64) -> f64) -> f64 {
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (LAMBDA_LO, LAMBDA_HI);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..GOLDEN_ITERS {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
    }
    (a + b) / 2.0
}

/// The λ memo key of `col`, the finite column [`optimal_lambda`]
/// reads: its length, then every bit pattern.
fn lambda_key(col: &[f64]) -> DigestKey {
    let mut key = KeyWords::new();
    key.word(col.len() as u64);
    key.f64_bits(col);
    key.finish()
}

/// Fitted λs keyed by the content digest of the column searched (see
/// the module docs). Share one memo across fits to search each distinct
/// column once; a fresh memo searches every column.
#[derive(Debug, Default)]
pub struct LambdaMemo(DigestMemo<f64>);

impl LambdaMemo {
    /// An empty memo.
    pub fn new() -> LambdaMemo {
        LambdaMemo::default()
    }

    /// [`optimal_lambda`] of `col`, searched only if no earlier call
    /// searched the same bits.
    pub fn lambda(&self, col: &[f64]) -> f64 {
        let key = lambda_key(col);
        if let Some(lambda) = self.0.get(&key) {
            return lambda;
        }
        let lambda = optimal_lambda(col);
        self.0.insert(key, lambda);
        lambda
    }

    /// Columns answered from the memo instead of searched. Above one
    /// thread, two fits that miss the same column at the same time both
    /// search, so the count can vary between runs.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }
}

/// Fitted Yeo-Johnson power transform: per-column λ and (optionally)
/// post-transform standardization statistics.
#[derive(Debug, Clone)]
pub struct FittedPower {
    pub(crate) lambdas: Vec<f64>,
    pub(crate) means: Vec<f64>,
    pub(crate) stds: Vec<f64>,
    pub(crate) standardize: bool,
}

impl FittedPower {
    /// Fit λ per column on the training matrix, searching only the
    /// columns `memo` has not seen.
    pub fn fit(x: &Matrix, standardize: bool, memo: &LambdaMemo) -> FittedPower {
        let d = x.ncols();
        let mut lambdas = Vec::with_capacity(d);
        let mut means = vec![0.0; d];
        let mut stds = vec![1.0; d];
        for j in 0..d {
            let col: Vec<f64> = x.col(j).into_iter().filter(|v| v.is_finite()).collect();
            let lambda = memo.lambda(&col);
            if standardize {
                let transformed: Vec<f64> =
                    col.iter().map(|&v| clamp_finite(yeo_johnson(v, lambda))).collect();
                means[j] = stats::mean(&transformed);
                let s = stats::std_dev(&transformed);
                stds[j] = if s > 0.0 { s } else { 1.0 };
            }
            lambdas.push(lambda);
        }
        FittedPower { lambdas, means, stds, standardize }
    }

    /// Per-column fitted exponents.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        let cols = x.ncols();
        assert_eq!(cols, self.lambdas.len(), "column count mismatch");
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            let j = i % cols;
            let mut t = clamp_finite(yeo_johnson(*v, self.lambdas[j]));
            if self.standardize {
                t = (t - self.means[j]) / self.stds[j];
            }
            *v = t;
        }
    }
}

/// Replace non-finite transform outputs by a large finite sentinel so
/// downstream models never see inf/NaN (can occur when validation data
/// lies far outside the fitted range).
#[inline]
fn clamp_finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(-1e12, 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_linalg::rng::{rng_from_seed, standard_normal};

    #[test]
    fn identity_when_lambda_one() {
        for &x in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((yeo_johnson(x, 1.0) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn log_branch_at_lambda_zero() {
        assert!((yeo_johnson(3.0, 0.0) - (4.0_f64).ln()).abs() < 1e-12);
        assert!((yeo_johnson(-3.0, 2.0) + (4.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn continuity_across_lambda_branches() {
        // λ → 0 for x ≥ 0 and λ → 2 for x < 0 must match the log branches.
        assert!((yeo_johnson(2.0, 1e-9) - yeo_johnson(2.0, 0.0)).abs() < 1e-6);
        assert!((yeo_johnson(-2.0, 2.0 - 1e-9) - yeo_johnson(-2.0, 2.0)).abs() < 1e-6);
    }

    #[test]
    fn monotone_in_x() {
        for &lambda in &[-2.0, 0.0, 0.5, 1.0, 2.0, 3.0] {
            let mut prev = f64::NEG_INFINITY;
            for i in -20..=20 {
                let v = yeo_johnson(i as f64 / 4.0, lambda);
                assert!(v >= prev, "not monotone at lambda {lambda}");
                prev = v;
            }
        }
    }

    #[test]
    fn paper_figure1_lambda_and_values() {
        // The paper reports λ ≈ 1.22 for the Figure 1 column and
        // PowerTransformer output (standardized) of -1.72 for x = -1.5.
        let x = Matrix::column_vector(&[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]);
        let fitted = FittedPower::fit(&x, true, &LambdaMemo::new());
        let lambda = fitted.lambdas()[0];
        assert!((lambda - 1.22).abs() < 0.15, "lambda {lambda}");
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        assert!((out[0] + 1.72).abs() < 0.1, "out {out:?}");
        assert!((out[6] - 1.53).abs() < 0.1, "out {out:?}");
        // Standardized output: zero mean, unit variance.
        assert!(stats::mean(&out).abs() < 1e-9);
        assert!((stats::std_dev(&out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_becomes_more_normal() {
        let col = lognormal_column();
        let before = stats::skewness(&col).abs();
        let x = Matrix::column_vector(&col);
        let fitted = FittedPower::fit(&x, false, &LambdaMemo::new());
        let mut m = x.clone();
        fitted.transform(&mut m);
        let after = stats::skewness(&m.col(0)).abs();
        assert!(after < before / 3.0, "skew before {before}, after {after}");
        // Right-skewed data must pick a strongly concave transform
        // (λ well below 1; the exact optimum for exp(Z) under the
        // Yeo-Johnson x+1 shift is around -0.85, not 0).
        assert!(fitted.lambdas()[0] < 0.2, "lambda {:?}", fitted.lambdas());
    }

    /// The objective [`Likelihood`] replaced: it transforms the column
    /// with [`yeo_johnson`] on every call.
    fn log_likelihood(col: &[f64], lambda: f64) -> f64 {
        let n = col.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let transformed: Vec<f64> = col.iter().map(|&x| yeo_johnson(x, lambda)).collect();
        if transformed.iter().any(|v| !v.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let var = stats::variance(&transformed);
        if var <= 1e-300 {
            return f64::NEG_INFINITY;
        }
        let jacobian: f64 =
            col.iter().map(|&x| x.signum() * (x.abs() + 1.0).ln()).sum::<f64>() * (lambda - 1.0);
        -n / 2.0 * var.ln() + jacobian
    }

    fn lognormal_column() -> Vec<f64> {
        let mut rng = rng_from_seed(3);
        (0..2000).map(|_| standard_normal(&mut rng).exp()).collect()
    }

    #[test]
    fn hoisted_likelihood_is_bit_identical() {
        let columns: [Vec<f64>; 5] = [
            vec![-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0],
            vec![-3.0, -0.0, 0.0, 0.5, -1e-300, 2.0, 7.5, -0.25],
            // ln(1e200 + 1) ≈ 460: e exceeds MAX_EXPONENT on both sides.
            vec![1e200, -1e200, 1.0, -2.0, 0.0],
            vec![4.0],
            lognormal_column(),
        ];
        let mut grid: Vec<f64> = (-50..=50).map(|i| i as f64 / 10.0).collect();
        for centre in [0.0, 2.0] {
            for off in [-1e-12, -5e-13, -1e-15, 0.0, 1e-15, 5e-13, 1e-12, 2e-12] {
                grid.push(centre + off);
            }
        }
        for col in &columns {
            let mut llf = Likelihood::new(col);
            for &lambda in &grid {
                let (fast, reference) = (llf.at(lambda), log_likelihood(col, lambda));
                assert_eq!(fast.to_bits(), reference.to_bits(), "col {col:?} lambda {lambda}");
            }
        }
        // Overflow of `(|x| + 1)^λ` makes the likelihood -inf.
        let mut llf = Likelihood::new(&columns[2]);
        assert_eq!(llf.at(1.0), f64::NEG_INFINITY);
        assert_eq!(llf.at(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn optimal_lambda_is_unchanged() {
        // Bits of the λ the per-call `yeo_johnson` objective picked.
        let fig1 = [-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0];
        let lognormal = lognormal_column();
        for (col, bits) in [(&fig1[..], 0x3ff38206c2f09334), (&lognormal[..], 0xbfebe91177797d1e)] {
            assert_eq!(optimal_lambda(col).to_bits(), bits);
            assert_eq!(golden_section(|lambda| log_likelihood(col, lambda)).to_bits(), bits);
        }
    }

    #[test]
    fn memo_answers_are_the_searched_lambdas() {
        let lognormal = lognormal_column();
        let columns: [&[f64]; 5] = [
            &[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0],
            &lognormal,
            // Overflows `(|x| + 1)^λ` on both sides.
            &[1e200, -1e200, 1.0, -2.0, 0.0],
            &[4.0],
            &[4.0; 5],
        ];
        let memo = LambdaMemo::new();
        for (i, col) in columns.iter().enumerate() {
            let searched = optimal_lambda(col).to_bits();
            assert_eq!(memo.lambda(col).to_bits(), searched, "miss on column {i}");
            assert_eq!(memo.hits(), i as u64);
            assert_eq!(memo.lambda(col).to_bits(), searched, "hit on column {i}");
            assert_eq!(memo.hits(), i as u64 + 1);
        }
        assert_eq!(memo.0.entries(), columns.len());
    }

    #[test]
    fn memo_keys_signed_zeros_apart() {
        let positive = [0.0, 1.0, -2.0, 3.5];
        let negative = [-0.0, 1.0, -2.0, 3.5];
        assert_ne!(lambda_key(&positive).digest, lambda_key(&negative).digest);
        let memo = LambdaMemo::new();
        for col in [&positive, &negative] {
            assert_eq!(memo.lambda(col).to_bits(), optimal_lambda(col).to_bits());
        }
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.0.entries(), 2);
    }

    #[test]
    fn memo_keys_the_finite_cells_a_fit_searches() {
        // Both columns hold 1, 2, 3 in order among NaN and ±inf cells.
        let x = Matrix::from_rows(&[
            vec![1.0, f64::NAN],
            vec![f64::NAN, 1.0],
            vec![2.0, 2.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![3.0, 3.0],
            vec![f64::NEG_INFINITY, f64::INFINITY],
        ]);
        let memo = LambdaMemo::new();
        let fitted = FittedPower::fit(&x, true, &memo);
        assert_eq!(memo.hits(), 1);
        let searched = optimal_lambda(&[1.0, 2.0, 3.0]).to_bits();
        assert_eq!(fitted.lambdas().iter().map(|l| l.to_bits()).collect::<Vec<_>>(), [searched; 2]);
        let fresh = FittedPower::fit(&x, true, &LambdaMemo::new());
        assert_eq!(format!("{fitted:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn memo_searches_a_repeated_column_once() {
        let skewed = lognormal_column();
        let other: Vec<f64> = skewed.iter().map(|v| -v).collect();
        let rows: Vec<Vec<f64>> =
            skewed.iter().zip(&other).map(|(&a, &b)| vec![a, b, a, a]).collect();
        let x = Matrix::from_rows(&rows);
        let memo = LambdaMemo::new();
        let first = FittedPower::fit(&x, true, &memo);
        // Two searches, columns 2 and 3 answered from column 0's.
        assert_eq!((memo.hits(), memo.0.entries()), (2, 2));
        let again = FittedPower::fit(&x, true, &memo);
        assert_eq!((memo.hits(), memo.0.entries()), (6, 2));
        let fresh = FittedPower::fit(&x, true, &LambdaMemo::new());
        for fitted in [&first, &again] {
            assert_eq!(format!("{fitted:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn constant_column_passthrough() {
        let x = Matrix::column_vector(&[4.0; 5]);
        let fitted = FittedPower::fit(&x, true, &LambdaMemo::new());
        let mut m = x.clone();
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }

    #[test]
    fn extreme_values_stay_finite() {
        let x = Matrix::column_vector(&[0.0, 1.0, 1e9, -1e9]);
        let fitted = FittedPower::fit(&x, true, &LambdaMemo::new());
        let mut m = Matrix::column_vector(&[1e15, -1e15, 5.0, 0.0]);
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }
}
