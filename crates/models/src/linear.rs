//! Multinomial logistic regression trained with full-batch Adam.
//!
//! Stands in for scikit-learn's `LogisticRegression` (the paper's most
//! popular downstream model). Like the lbfgs-based original, it is a
//! convex-optimizer-on-softmax-loss — and, crucially for this study, it
//! is *scale sensitive*: with a fixed iteration budget, badly scaled
//! features slow convergence and cost accuracy, which is precisely the
//! effect feature preprocessing repairs.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::Matrix;

/// Hyperparameters for [`LogisticRegression`] training.
#[derive(Debug, Clone)]
pub struct LogisticParams {
    /// Full-budget number of Adam epochs (sklearn `max_iter` analogue).
    pub max_epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// L2 regularization strength (sklearn `1/C` analogue).
    pub l2: f64,
    /// Relative loss-improvement tolerance for early stopping.
    pub tol: f64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams { max_epochs: 80, learning_rate: 0.1, l2: 1e-4, tol: 1e-5 }
    }
}

/// A trained multinomial logistic regression model.
pub struct LogisticRegression {
    /// Weights, `n_classes x (n_features + 1)`; last column is the bias.
    pub(crate) weights: Matrix,
    pub(crate) n_classes: usize,
}

impl LogisticRegression {
    /// Raw class scores (logits) for a feature row.
    fn logits(&self, row: &[f64]) -> Vec<f64> {
        let d = self.weights.ncols() - 1;
        (0..self.n_classes)
            .map(|c| {
                let w = self.weights.row(c);
                let mut z = w[d]; // bias
                for (j, &v) in row.iter().enumerate().take(d) {
                    z += w[j] * sanitize(v);
                }
                z
            })
            .collect()
    }
}

impl Classifier for LogisticRegression {
    fn predict_row(&self, row: &[f64]) -> usize {
        let z = self.logits(row);
        argmax(&z)
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut z = self.logits(row);
        softmax_inplace(&mut z);
        z.resize(n_classes, 0.0);
        z
    }
}

impl LogisticParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes its weights).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> LogisticRegression {
        let (n, d) = x.shape();
        assert_eq!(n, y.len());
        // `sanitize` is idempotent, so sanitizing once per fit gives every
        // epoch the operands the per-element calls would.
        let xs: Vec<f64> = x.as_slice().iter().map(|&v| sanitize(v)).collect();
        let mut logits = vec![0.0; n * n_classes];
        self.adam(d, n_classes, budget, cancel, n.max(1) as f64, |w, grad| {
            block_logits(w, &xs, d, &mut logits);
            let mut loss = 0.0;
            for (i, z) in logits.chunks_exact_mut(n_classes.max(1)).enumerate() {
                let target = z[y[i]];
                loss += softmax_lse_inplace(z) - target;
                let row = &xs[i * d..(i + 1) * d];
                for (c, &p) in z.iter().enumerate() {
                    let delta = p - if c == y[i] { 1.0 } else { 0.0 };
                    if delta == 0.0 {
                        continue;
                    }
                    let g = grad.row_mut(c);
                    for (gj, &val) in g.iter_mut().zip(row) {
                        *gj += delta * val;
                    }
                    g[d] += delta;
                }
            }
            loss
        })
    }

    /// Full-batch Adam with L2 on the non-bias weights and early stopping
    /// on `tol`. `epoch` adds the summed loss gradient at `w` into the
    /// zeroed `grad` and returns the summed loss; dividing both by `nf`
    /// makes them means.
    fn adam(
        &self,
        d: usize,
        k: usize,
        budget: f64,
        cancel: &CancelToken,
        nf: f64,
        mut epoch: impl FnMut(&Matrix, &mut Matrix) -> f64,
    ) -> LogisticRegression {
        let epochs = ((self.max_epochs as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);
        let mut w = Matrix::zeros(k, d + 1);
        let mut m = Matrix::zeros(k, d + 1);
        let mut v = Matrix::zeros(k, d + 1);
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut prev_loss = f64::INFINITY;

        let mut grad = Matrix::zeros(k, d + 1);
        for t in 1..=epochs {
            // Cooperative cancellation: always finish at least one epoch
            // so the returned model carries a real gradient step.
            if t > 1 && cancel.is_cancelled() {
                break;
            }
            grad.as_mut_slice().fill(0.0);
            let loss = epoch(&w, &mut grad) / nf;
            // L2 on non-bias weights + Adam update.
            let t = t as f64;
            let bc1 = 1.0 - b1.powf(t);
            let bc2 = 1.0 - b2.powf(t);
            for c in 0..k {
                for j in 0..=d {
                    let mut g = grad.get(c, j) / nf;
                    if j < d {
                        g += self.l2 * w.get(c, j);
                    }
                    let mm = b1 * m.get(c, j) + (1.0 - b1) * g;
                    let vv = b2 * v.get(c, j) + (1.0 - b2) * g * g;
                    m.set(c, j, mm);
                    v.set(c, j, vv);
                    let step = self.learning_rate * (mm / bc1) / ((vv / bc2).sqrt() + eps);
                    w.set(c, j, w.get(c, j) - step);
                }
            }
            if (prev_loss - loss).abs() < self.tol * prev_loss.abs().max(1.0) {
                break;
            }
            prev_loss = loss;
        }
        LogisticRegression { weights: w, n_classes: k }
    }
}

/// Softmax of `z` in place, returning the log-sum-exp of the logits:
/// bit for bit `dist::logsumexp(z)` followed by `softmax_inplace(z)`,
/// with one `exp(z - m)` per logit serving both.
///
/// The two share the max `m` and the terms `exp(z - m)`. `logsumexp`
/// sums its terms from -0.0 and `softmax_inplace` from +0.0; every term
/// is +0.0 or more (or NaN), and adding such a term to either zero gives
/// the same bits, so the two sums agree. An infinite `m` (an all -inf or
/// a +inf logit) is the log-sum-exp itself, as in `logsumexp`.
fn softmax_lse_inplace(z: &mut [f64]) -> f64 {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in z.iter_mut() {
            *v /= sum;
        }
    } else {
        z.fill(1.0 / z.len() as f64);
    }
    if m.is_infinite() {
        m
    } else {
        m + sum.ln()
    }
}

/// Rows whose logits [`block_logits`] computes together.
const ROW_BLOCK: usize = 4;

/// Every row's logits under `w` into `out` (`n x k`, row-major), for the
/// sanitized row-major `xs` with `d` columns.
///
/// Each logit is the bias plus `w[j] * x[j]` for j = 0..d, added in that
/// order, exactly as a per-row loop computes it. Rows are independent, so
/// [`ROW_BLOCK`] rows share one pass over a weight row, each with its own
/// accumulator: that breaks the serial add chain of a single dot product
/// without reordering any of them.
fn block_logits(w: &Matrix, xs: &[f64], d: usize, out: &mut [f64]) {
    let k = w.nrows();
    let n = out.len() / k.max(1);
    let row = |i: usize| &xs[i * d..(i + 1) * d];
    for i in (0..n).step_by(ROW_BLOCK) {
        let m = ROW_BLOCK.min(n - i);
        // A short last block repeats its last row; those logits are dropped.
        let rows: [&[f64]; ROW_BLOCK] = std::array::from_fn(|b| row(i + b.min(m - 1)));
        for c in 0..k {
            let (wr, bias) = w.row(c).split_at(d);
            let mut z = [bias[0]; ROW_BLOCK];
            for (j, &wj) in wr.iter().enumerate() {
                for (zb, r) in z.iter_mut().zip(rows) {
                    *zb += wj * r[j];
                }
            }
            for (b, &zb) in z[..m].iter().enumerate() {
                out[(i + b) * k + c] = zb;
            }
        }
    }
}

impl Trainer for LogisticParams {
    fn fit_budgeted(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
    ) -> Box<dyn Classifier> {
        self.fit_cancellable(x, y, n_classes, budget, &CancelToken::new())
    }

    fn fit_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Box<dyn Classifier> {
        Box::new(self.train_cancellable(x, y, n_classes, budget, cancel))
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[inline]
fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(-1e12, 1e12)
    } else {
        0.0
    }
}

#[inline]
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_data::SynthConfig;
    use crate::metrics::accuracy;

    #[test]
    fn learns_linearly_separable_binary() {
        // y = 1 iff x0 + x1 > 0.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = (i % 20) as f64 / 10.0 - 1.0;
                let b = (i % 13) as f64 / 6.0 - 1.0;
                vec![a, b]
            })
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 0.0) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let model = LogisticParams::default().fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.95, "train acc {acc}");
    }

    #[test]
    fn learns_multiclass_synthetic() {
        let d = SynthConfig::new("lr-mc", 600, 8, 4, 5)
            .with_personality(autofp_data::Personality {
                scale_spread: 0.0,
                skew: 0.0,
                heavy_tail: 0.0,
                sparsity: 0.0,
                class_sep: 3.0,
                label_noise: 0.0,
                informative_frac: 1.0,
                imbalance: 0.0,
            })
            .generate();
        let model = LogisticParams::default().fit(&d.x, &d.y, d.n_classes);
        let acc = accuracy(&d.y, &model.predict(&d.x));
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn scale_sensitivity_under_fixed_budget() {
        // The study's premise: unscaled features hurt LR under a fixed
        // iteration budget; standardizing recovers accuracy.
        let mut p = autofp_data::Personality::default();
        p.scale_spread = 6.0;
        p.skew = 0.0;
        p.class_sep = 2.0;
        p.label_noise = 0.0;
        let d = SynthConfig::new("lr-scale", 500, 10, 2, 7).with_personality(p).generate();
        let split = d.stratified_split(0.8, 1);
        let trainer = LogisticParams { max_epochs: 40, ..Default::default() };
        let raw = trainer.fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &raw.predict(&split.valid.x));

        let scaler = autofp_preprocess::Preproc::StandardScaler { with_mean: true };
        let mut xtr = split.train.x.clone();
        let fitted = scaler.fit_transform(&mut xtr, &autofp_preprocess::LambdaMemo::new());
        let mut xva = split.valid.x.clone();
        fitted.transform(&mut xva);
        let scaled = trainer.fit(&xtr, &split.train.y, 2);
        let acc_scaled = accuracy(&split.valid.y, &scaled.predict(&xva));
        assert!(
            acc_scaled > acc_raw + 0.03,
            "scaled {acc_scaled} should beat raw {acc_raw}"
        );
    }

    #[test]
    fn budget_scales_epochs_and_zero_budget_is_safe() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 1, 1];
        let model = LogisticParams::default().fit_budgeted(&x, &y, 2, 0.0);
        // One epoch only: predictions exist and are valid classes.
        for p in model.predict(&x) {
            assert!(p < 2);
        }
    }

    #[test]
    fn cancelled_fit_stops_after_one_epoch() {
        let d = SynthConfig::new("lr-cancel", 200, 6, 2, 3).generate();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let params = LogisticParams::default();
        // A cancelled token still completes exactly one epoch, which is
        // bit-identical to a one-epoch (zero-budget) fit.
        let a = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &cancelled).predict(&d.x);
        let b = params.fit_budgeted(&d.x, &d.y, 2, 0.0).predict(&d.x);
        assert_eq!(a, b);
        // An unfired token changes nothing.
        let c = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &CancelToken::new()).predict(&d.x);
        let full = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(c, full);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let y = vec![0, 1];
        let model = LogisticParams::default().fit(&x, &y, 2);
        let p = model.predict_proba_row(&[0.5, 0.5], 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// The scalar epoch loop [`block_logits`] replaced: one serial dot
    /// product per (row, class), sanitizing every operand as it is read.
    fn train_reference(
        params: &LogisticParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> LogisticRegression {
        let d = x.ncols();
        let mut probs = vec![0.0; k];
        params.adam(d, k, budget, cancel, x.nrows().max(1) as f64, |w, grad| {
            let mut loss = 0.0;
            for (i, row) in x.rows_iter().enumerate() {
                for (c, p) in probs.iter_mut().enumerate() {
                    let wr = w.row(c);
                    let mut z = wr[d];
                    for (j, &val) in row.iter().enumerate() {
                        z += wr[j] * sanitize(val);
                    }
                    *p = z;
                }
                let lse = autofp_linalg::dist::logsumexp(&probs);
                loss += lse - probs[y[i]];
                softmax_inplace(&mut probs);
                for c in 0..k {
                    let delta = probs[c] - if c == y[i] { 1.0 } else { 0.0 };
                    if delta == 0.0 {
                        continue;
                    }
                    let g = grad.row_mut(c);
                    for (j, &val) in row.iter().enumerate() {
                        g[j] += delta * sanitize(val);
                    }
                    g[d] += delta;
                }
            }
            loss
        })
    }

    fn weight_bits(model: &LogisticRegression) -> Vec<u64> {
        model.weights.as_slice().iter().map(|w| w.to_bits()).collect()
    }

    /// Fit with the blocked kernel and the scalar reference; assert the
    /// weights agree bit for bit and return them.
    fn assert_bit_identical(
        params: &LogisticParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Vec<u64> {
        let fast = weight_bits(&params.train_cancellable(x, y, k, budget, cancel));
        let reference = weight_bits(&train_reference(params, x, y, k, budget, cancel));
        assert_eq!(fast, reference, "n={} d={} k={k} budget={budget}", x.nrows(), x.ncols());
        fast
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_the_scalar_loop() {
        let params = LogisticParams::default();
        let live = CancelToken::new();
        // Every remainder of n modulo the row block, for several class counts.
        for (n, k) in [(40, 2), (41, 3), (42, 5), (43, 2), (45, 5), (3, 3)] {
            let d = SynthConfig::new("lr-bits", n, 7, k, n as u64).generate();
            assert_bit_identical(&params, &d.x, &d.y, d.n_classes, 1.0, &live);
            assert_bit_identical(&params, &d.x, &d.y, d.n_classes, 0.25, &live);
        }
        // Non-finite and huge features go through `sanitize`.
        let mut d = SynthConfig::new("lr-bits-wild", 37, 5, 3, 9).generate();
        let wild = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
        for (i, v) in wild.into_iter().enumerate() {
            d.x.set(3 * i + 1, i, v);
        }
        assert_bit_identical(&params, &d.x, &d.y, d.n_classes, 1.0, &live);
        // A pre-cancelled token stops both after one epoch.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_bit_identical(&params, &d.x, &d.y, d.n_classes, 1.0, &cancelled);
    }

    #[test]
    fn early_stop_on_tol_is_bit_identical() {
        let d = SynthConfig::new("lr-bits-tol", 50, 6, 2, 4).generate();
        let live = CancelToken::new();
        let loose = LogisticParams { tol: 1e-2, ..Default::default() };
        let stopped = assert_bit_identical(&loose, &d.x, &d.y, 2, 1.0, &live);
        let never = LogisticParams { tol: 0.0, ..Default::default() };
        let full = assert_bit_identical(&never, &d.x, &d.y, 2, 1.0, &live);
        assert_ne!(stopped, full, "tol 1e-2 must stop before the last epoch");
    }

    #[test]
    fn fused_softmax_matches_logsumexp_then_softmax() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows: [&[f64]; 12] = [
            &[0.3, -1.2],
            &[2.0, 2.0, -7.5],
            &[inf, 1.0],
            &[-inf, 0.5, 1.5],
            &[inf, inf],
            &[inf, -inf],
            &[nan, 1.0, -2.0],
            &[nan, nan],
            &[-inf, -inf, -inf],
            &[4.25],
            &[-inf],
            &[1e308, -1e308, 0.0],
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for row in rows {
            let mut fused = row.to_vec();
            let lse = softmax_lse_inplace(&mut fused);
            let mut reference = row.to_vec();
            let reference_lse = autofp_linalg::dist::logsumexp(&reference);
            softmax_inplace(&mut reference);
            assert_eq!(lse.to_bits(), reference_lse.to_bits(), "log-sum-exp of {row:?}");
            assert_eq!(bits(&fused), bits(&reference), "softmax of {row:?}");
        }
    }

    #[test]
    fn zero_feature_fit_learns_the_class_prior() {
        // n x 0: every row contributes its bias-only logits.
        let x = Matrix::zeros(6, 0);
        let y = vec![0, 1, 1, 1, 1, 0];
        let params = LogisticParams::default();
        assert_bit_identical(&params, &x, &y, 2, 1.0, &CancelToken::new());
        let model = params.fit(&x, &y, 2);
        assert_eq!(model.predict(&x), vec![1; 6]);
    }

    #[test]
    fn tolerates_nan_and_inf_features() {
        let x = Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![f64::INFINITY, -1.0]]);
        let y = vec![0, 1];
        let model = LogisticParams::default().fit(&x, &y, 2);
        let pred = model.predict(&x);
        assert!(pred.iter().all(|&p| p < 2));
    }
}
