//! One-hidden-layer multilayer perceptron (scikit-learn `MLPClassifier`
//! analogue): ReLU hidden layer, softmax output, minibatch Adam.
//!
//! Like the LR stand-in, the MLP is deliberately trained under a fixed
//! epoch budget with unit-scale He initialization — so unscaled or
//! heavily skewed inputs genuinely hurt it, reproducing the paper's
//! largest FP gains (e.g. +36% on EEG, +69% on Pd with MLP).

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use autofp_linalg::adam::Adam;
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::rng::{derive_seed, rng_from_seed, standard_normal};
use autofp_linalg::Matrix;
use rand::seq::SliceRandom;

/// Hyperparameters for [`MlpClassifier`] training.
#[derive(Debug, Clone)]
pub struct MlpParams {
    /// Hidden layer width.
    pub hidden: usize,
    /// Full-budget training epochs.
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub l2: f64,
    /// Seed for initialization and batch shuffling.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: 32,
            max_epochs: 30,
            batch_size: 32,
            learning_rate: 0.01,
            l2: 1e-5,
            seed: 0,
        }
    }
}

impl MlpParams {
    /// Set the initialization/shuffling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained MLP.
pub struct MlpClassifier {
    /// Hidden weights, `hidden x (d + 1)` (last column bias).
    pub(crate) w1: Matrix,
    /// Output weights, `k x (hidden + 1)` (last column bias).
    pub(crate) w2: Matrix,
    pub(crate) n_classes: usize,
}

impl MlpClassifier {
    fn forward(&self, row: &[f64]) -> Vec<f64> {
        let d = self.w1.ncols() - 1;
        let xs: Vec<f64> = row.iter().take(d).map(|&v| sanitize(v)).collect();
        let mut hidden = vec![0.0; self.w1.nrows()];
        let mut out = vec![0.0; self.n_classes];
        forward(&self.w1, &self.w2, &xs, &mut hidden, &mut out);
        out
    }
}

/// Hidden units whose pre-activations [`forward`] computes together.
const UNIT_BLOCK: usize = 4;

/// One forward pass for the sanitized row `xs`: ReLU activations into
/// `hidden` (one per row of `w1`) and output logits into `out` (one per
/// row of `w2`). `xs` may be shorter than the layer's input width; the
/// missing features contribute nothing.
///
/// Each hidden pre-activation is the bias plus `w[j] * x[j]` for j in
/// order, exactly as a per-unit loop computes it. Units are independent,
/// so [`UNIT_BLOCK`] units share one pass over the row, each with its own
/// accumulator: that breaks the serial add chain of a single dot product
/// without reordering any of them.
fn forward(w1: &Matrix, w2: &Matrix, xs: &[f64], hidden: &mut [f64], out: &mut [f64]) {
    let d = w1.ncols() - 1;
    let h = hidden.len();
    for u in (0..h).step_by(UNIT_BLOCK) {
        let m = UNIT_BLOCK.min(h - u);
        // A short last block repeats its last unit; those sums are dropped.
        let rows: [&[f64]; UNIT_BLOCK] = std::array::from_fn(|b| w1.row(u + b.min(m - 1)));
        let mut z: [f64; UNIT_BLOCK] = std::array::from_fn(|b| rows[b][d]);
        for (j, &v) in xs.iter().enumerate() {
            for (zb, wr) in z.iter_mut().zip(rows) {
                *zb += wr[j] * v;
            }
        }
        for (a, zb) in hidden[u..u + m].iter_mut().zip(z) {
            *a = zb.max(0.0); // ReLU
        }
    }
    output(w2, hidden, out);
}

/// The output logits for the ReLU activations `hidden` into `out` (one
/// per row of `w2`): the bias plus `w[j] * a[j]` for j in order.
fn output(w2: &Matrix, hidden: &[f64], out: &mut [f64]) {
    let h = hidden.len();
    for (c, o) in out.iter_mut().enumerate() {
        let wr = w2.row(c);
        let mut z = wr[h];
        for (&wj, &a) in wr.iter().zip(hidden.iter()) {
            z += wj * a;
        }
        *o = z;
    }
}

/// Hidden units whose pre-activations [`forward_transposed`] keeps in
/// registers together.
const UNIT_LANES: usize = 8;

/// `w1` (`h x (d + 1)`) transposed into `w1t`: `d + 1` rows of
/// `h.next_multiple_of(UNIT_LANES)` weights. Row j holds every hidden
/// unit's weight on input j, the last row their biases; the padding
/// stays zero.
fn transpose_into(w1: &Matrix, w1t: &mut [f64]) {
    let stride = w1.nrows().next_multiple_of(UNIT_LANES);
    for (u, wr) in w1.rows_iter().enumerate() {
        for (j, &w) in wr.iter().enumerate() {
            w1t[j * stride + u] = w;
        }
    }
}

/// The training forward pass: like [`forward`], but [`UNIT_LANES`]
/// hidden units advance together, one input at a time, reading the
/// transposed first layer `w1t` (see [`transpose_into`]).
///
/// Each pre-activation still starts from its bias and adds `w[j] * x[j]`
/// for j in order; only the units' interleaving changes, and units are
/// independent. The padding units' sums are dropped.
fn forward_transposed(w1t: &[f64], w2: &Matrix, xs: &[f64], hidden: &mut [f64], out: &mut [f64]) {
    let h = hidden.len();
    let stride = h.next_multiple_of(UNIT_LANES);
    let bias = &w1t[xs.len() * stride..];
    for u in (0..h).step_by(UNIT_LANES) {
        let mut z: [f64; UNIT_LANES] = std::array::from_fn(|b| bias[u + b]);
        for (j, &v) in xs.iter().enumerate() {
            let w = &w1t[j * stride + u..][..UNIT_LANES];
            for (zb, &wb) in z.iter_mut().zip(w) {
                *zb += wb * v;
            }
        }
        for (a, zb) in hidden[u..].iter_mut().zip(z) {
            *a = zb.max(0.0); // ReLU
        }
    }
    output(w2, hidden, out);
}

impl Classifier for MlpClassifier {
    fn predict_row(&self, row: &[f64]) -> usize {
        crate::linear::argmax(&self.forward(row))
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut z = self.forward(row);
        softmax_inplace(&mut z);
        z.resize(n_classes, 0.0);
        z
    }
}

impl MlpParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes its weights).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> MlpClassifier {
        let (n, d) = x.shape();
        assert_eq!(n, y.len());
        let (h, k) = (self.hidden, n_classes);
        // `sanitize` is idempotent, so sanitizing once per fit gives every
        // epoch the operands the per-element calls would.
        let xs: Vec<f64> = x.as_slice().iter().map(|&v| sanitize(v)).collect();
        let mut w1t = vec![0.0; (d + 1) * h.next_multiple_of(UNIT_LANES)];
        let mut hidden = vec![0.0; h];
        let mut probs = vec![0.0; k];
        let mut dhidden = vec![0.0; h];
        self.adam_epochs(n, d, k, budget, cancel, |w1, w2, batch, g1, g2| {
            // The weights change only between batches.
            transpose_into(w1, &mut w1t);
            for &i in batch {
                let row = &xs[i * d..(i + 1) * d];
                forward_transposed(&w1t, w2, row, &mut hidden, &mut probs);
                softmax_inplace(&mut probs);
                // Backward.
                dhidden.fill(0.0);
                for c in 0..k {
                    let delta = probs[c] - (y[i] == c) as u8 as f64;
                    if delta == 0.0 {
                        continue;
                    }
                    let gr = g2.row_mut(c);
                    for (j, &a) in hidden.iter().enumerate() {
                        gr[j] += delta * a;
                    }
                    gr[h] += delta;
                    let wr = w2.row(c);
                    for (j, dh) in dhidden.iter_mut().enumerate() {
                        *dh += delta * wr[j];
                    }
                }
                // A unit is active exactly when its ReLU output is positive
                // (never NaN: `max` drops a NaN pre-activation to 0).
                for (jh, (&dh, &a)) in dhidden.iter().zip(&hidden).enumerate() {
                    if a <= 0.0 || dh == 0.0 {
                        continue;
                    }
                    let gr = g1.row_mut(jh);
                    for (gj, &v) in gr.iter_mut().zip(row) {
                        *gj += dh * v;
                    }
                    gr[d] += dh;
                }
            }
        })
    }

    /// Initialization, the per-epoch shuffle, minibatching, L2 and Adam.
    /// `batch_gradient` adds the loss gradients at `(w1, w2)` of a batch's
    /// rows, in their (shuffled) order, into the zeroed `(g1, g2)`.
    fn adam_epochs(
        &self,
        n: usize,
        d: usize,
        k: usize,
        budget: f64,
        cancel: &CancelToken,
        mut batch_gradient: impl FnMut(&Matrix, &Matrix, &[usize], &mut Matrix, &mut Matrix),
    ) -> MlpClassifier {
        let h = self.hidden;
        let epochs = ((self.max_epochs as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);

        let mut rng = rng_from_seed(derive_seed(self.seed, 0x317));
        // He initialization for the ReLU layer, Xavier-ish for the output.
        let mut w1 = Matrix::zeros(h, d + 1);
        for v in w1.as_mut_slice() {
            *v = standard_normal(&mut rng) * (2.0 / (d.max(1) as f64)).sqrt();
        }
        let mut w2 = Matrix::zeros(k, h + 1);
        for v in w2.as_mut_slice() {
            *v = standard_normal(&mut rng) * (1.0 / (h as f64)).sqrt();
        }

        let mut adam1 = Adam::new(h * (d + 1), self.learning_rate);
        let mut adam2 = Adam::new(k * (h + 1), self.learning_rate);
        let mut g1 = Matrix::zeros(h, d + 1);
        let mut g2 = Matrix::zeros(k, h + 1);
        let mut order: Vec<usize> = (0..n).collect();

        for epoch in 0..epochs {
            // Cooperative cancellation between epochs (first epoch always
            // runs so the weights have seen the data at least once).
            if epoch > 0 && cancel.is_cancelled() {
                break;
            }
            order.shuffle(&mut rng);
            for batch in order.chunks(self.batch_size.max(1)) {
                g1.as_mut_slice().fill(0.0);
                g2.as_mut_slice().fill(0.0);
                batch_gradient(&w1, &w2, batch, &mut g1, &mut g2);
                let scale = 1.0 / batch.len() as f64;
                for (g, w) in [(&mut g1, &w1), (&mut g2, &w2)] {
                    let gs = g.as_mut_slice();
                    let ws = w.as_slice();
                    for (gv, wv) in gs.iter_mut().zip(ws) {
                        *gv = *gv * scale + self.l2 * wv;
                    }
                }
                adam1.step(w1.as_mut_slice(), g1.as_slice());
                adam2.step(w2.as_mut_slice(), g2.as_slice());
            }
        }
        MlpClassifier { w1, w2, n_classes: k }
    }
}

impl Trainer for MlpParams {
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
        "MLP"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainedModel;
    use crate::metrics::accuracy;
    use autofp_data::{Personality, SynthConfig};

    #[test]
    fn learns_xor() {
        let rows: Vec<Vec<f64>> = (0..240)
            .map(|i| {
                vec![((i * 7) % 24) as f64 / 12.0 - 1.0, ((i * 11) % 24) as f64 / 12.0 - 1.0]
            })
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| ((r[0] > 0.0) ^ (r[1] > 0.0)) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let params = MlpParams { max_epochs: 120, ..Default::default() };
        let model = params.fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SynthConfig::new("mlp-det", 150, 5, 2, 3).generate();
        let params = MlpParams { max_epochs: 5, seed: 7, ..Default::default() };
        let a = params.fit(&d.x, &d.y, 2).predict(&d.x);
        let b = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_sensitivity() {
        let mut p = Personality::default();
        p.scale_spread = 6.0;
        p.skew = 0.5;
        p.class_sep = 2.0;
        p.label_noise = 0.0;
        let d = SynthConfig::new("mlp-scale", 500, 8, 2, 13).with_personality(p).generate();
        let split = d.stratified_split(0.8, 1);
        let params = MlpParams { max_epochs: 15, ..Default::default() };
        let raw = params.fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &raw.predict(&split.valid.x));

        let scaler = autofp_preprocess::Preproc::StandardScaler { with_mean: true };
        let mut xtr = split.train.x.clone();
        let fitted = scaler.fit_transform(&mut xtr, &autofp_preprocess::LambdaMemo::new());
        let mut xva = split.valid.x.clone();
        fitted.transform(&mut xva);
        let scaled = params.fit(&xtr, &split.train.y, 2);
        let acc_scaled = accuracy(&split.valid.y, &scaled.predict(&xva));
        assert!(
            acc_scaled > acc_raw + 0.02,
            "scaled {acc_scaled} should beat raw {acc_raw}"
        );
    }

    #[test]
    fn multiclass_probabilities_normalize() {
        let d = SynthConfig::new("mlp-mc", 200, 4, 3, 5).generate();
        let model = MlpParams { max_epochs: 5, ..Default::default() }.fit(&d.x, &d.y, 3);
        let p = model.predict_proba_row(d.x.row(0), 3);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survives_pathological_inputs() {
        let x = Matrix::from_rows(&[
            vec![f64::NAN, 1e300],
            vec![f64::NEG_INFINITY, -1e300],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0, 1, 0, 1];
        let model = MlpParams { max_epochs: 3, ..Default::default() }.fit(&x, &y, 2);
        let preds = model.predict(&x);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn cancelled_fit_matches_single_epoch() {
        let d = SynthConfig::new("mlp-cancel", 120, 4, 2, 5).generate();
        let params = MlpParams { seed: 3, ..Default::default() };
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let a = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &cancelled).predict(&d.x);
        let b = params.fit_budgeted(&d.x, &d.y, 2, 0.0).predict(&d.x);
        assert_eq!(a, b);
    }

    /// The forward pass [`forward`] replaced, as `MlpClassifier::forward`
    /// ran it: one serial dot product per hidden unit, sanitizing every
    /// operand as it is read.
    fn forward_reference(model: &MlpClassifier, row: &[f64]) -> Vec<f64> {
        let d = model.w1.ncols() - 1;
        let h = model.w1.nrows();
        let mut hidden = vec![0.0; h];
        for (a, wr) in hidden.iter_mut().zip(model.w1.rows_iter()) {
            let mut z = wr[d];
            for (j, &v) in row.iter().enumerate().take(d) {
                z += wr[j] * sanitize(v);
            }
            *a = z.max(0.0); // ReLU
        }
        (0..model.n_classes)
            .map(|c| {
                let wr = model.w2.row(c);
                let mut z = wr[h];
                for (j, &a) in hidden.iter().enumerate() {
                    z += wr[j] * a;
                }
                z
            })
            .collect()
    }

    /// The per-sample step the epoch kernel replaced: per-unit forward
    /// and backward loops that sanitize each input where they read it.
    fn train_reference(
        params: &MlpParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> MlpClassifier {
        let d = x.ncols();
        let h = params.hidden;
        let mut hidden = vec![0.0; h];
        let mut act = vec![false; h];
        let mut probs = vec![0.0; k];
        let mut dhidden = vec![0.0; h];
        params.adam_epochs(x.nrows(), d, k, budget, cancel, |w1, w2, batch, g1, g2| {
            for &i in batch {
                let row = x.row(i);
                for (jh, (a, wr)) in hidden.iter_mut().zip(w1.rows_iter()).enumerate() {
                    let mut z = wr[d];
                    for (j, &v) in row.iter().enumerate() {
                        z += wr[j] * sanitize(v);
                    }
                    act[jh] = z > 0.0;
                    *a = z.max(0.0);
                }
                for (c, p) in probs.iter_mut().enumerate() {
                    let wr = w2.row(c);
                    let mut z = wr[h];
                    for (j, &a) in hidden.iter().enumerate() {
                        z += wr[j] * a;
                    }
                    *p = z;
                }
                softmax_inplace(&mut probs);
                dhidden.fill(0.0);
                for c in 0..k {
                    let delta = probs[c] - (y[i] == c) as u8 as f64;
                    if delta == 0.0 {
                        continue;
                    }
                    let gr = g2.row_mut(c);
                    for (j, &a) in hidden.iter().enumerate() {
                        gr[j] += delta * a;
                    }
                    gr[h] += delta;
                    let wr = w2.row(c);
                    for (j, dh) in dhidden.iter_mut().enumerate() {
                        *dh += delta * wr[j];
                    }
                }
                for (jh, &dh) in dhidden.iter().enumerate() {
                    if !act[jh] || dh == 0.0 {
                        continue;
                    }
                    let gr = g1.row_mut(jh);
                    for (j, &v) in row.iter().enumerate() {
                        gr[j] += dh * sanitize(v);
                    }
                    gr[d] += dh;
                }
            }
        })
    }

    fn proba_bits(model: &MlpClassifier, row: &[f64]) -> Vec<u64> {
        model.predict_proba_row(row, model.n_classes).iter().map(|p| p.to_bits()).collect()
    }

    /// Fit with the kernel and the reference; assert their artifact bytes
    /// agree, and that every row of `x` (also cut short by one feature)
    /// gets the reference forward pass's probabilities bit for bit.
    fn assert_bit_identical(
        params: &MlpParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) {
        let fast = TrainedModel::Mlp(params.train_cancellable(x, y, k, budget, cancel));
        let reference = TrainedModel::Mlp(train_reference(params, x, y, k, budget, cancel));
        assert!(
            fast.encode() == reference.encode(),
            "n={} d={} k={k} hidden={} budget={budget}",
            x.nrows(),
            x.ncols(),
            params.hidden
        );
        let TrainedModel::Mlp(model) = fast else { unreachable!() };
        for row in x.rows_iter() {
            for row in [row, &row[..row.len().saturating_sub(1)]] {
                let mut z = forward_reference(&model, row);
                softmax_inplace(&mut z);
                let reference: Vec<u64> = z.iter().map(|p| p.to_bits()).collect();
                assert_eq!(proba_bits(&model, row), reference);
            }
        }
    }

    #[test]
    fn epoch_kernel_is_bit_identical_to_the_reference() {
        let live = CancelToken::new();
        // Hidden widths below, at and above a multiple of both unit blocks.
        for (hidden, k) in [(1, 2), (5, 3), (32, 5), (33, 2)] {
            let params = MlpParams { hidden, max_epochs: 4, seed: 11, ..Default::default() };
            let d = SynthConfig::new("mlp-bits", 45, 6, k, hidden as u64).generate();
            for budget in [1.0, 0.25] {
                assert_bit_identical(&params, &d.x, &d.y, d.n_classes, budget, &live);
            }
        }
        let params = MlpParams { max_epochs: 4, ..Default::default() };
        // d = 0 and d = 1.
        let y: Vec<usize> = (0..10).map(|i| i % 3).collect();
        assert_bit_identical(&params, &Matrix::zeros(10, 0), &y, 3, 1.0, &live);
        let d = SynthConfig::new("mlp-bits-d1", 40, 1, 2, 8).generate();
        assert_bit_identical(&params, &d.x, &d.y, 2, 1.0, &live);
        // Non-finite and huge features go through `sanitize`.
        let mut d = SynthConfig::new("mlp-bits-wild", 37, 5, 3, 9).generate();
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
    fn budget_zero_trains_one_epoch() {
        let d = SynthConfig::new("mlp-b", 64, 3, 2, 1).generate();
        let model = MlpParams::default().fit_budgeted(&d.x, &d.y, 2, 0.0);
        assert!(model.predict(&d.x).iter().all(|&p| p < 2));
    }
}
