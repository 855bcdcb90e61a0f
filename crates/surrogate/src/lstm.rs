//! A from-scratch LSTM: sequence regressor (Progressive NAS surrogates
//! PLNE/PLE) and autoregressive policy (the ENAS controller).
//!
//! The cell is a standard LSTM (gates i, f, g, o) with full
//! backpropagation-through-time, trained with Adam. Pipelines enter as
//! one-hot token sequences over the preprocessor vocabulary (token 0 is
//! the start/padding symbol).

use autofp_linalg::adam::Adam;
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::rng::{derive_seed, rng_from_seed, standard_normal, weighted_index};
use rand::rngs::StdRng;

/// One LSTM cell with a flat parameter buffer.
///
/// Layout: `wx` (`4h x dim_in`), then `wh` (`4h x h`), then `b` (`4h`).
/// Gate order within the `4h` axis: input, forget, cell, output.
#[derive(Debug, Clone)]
pub struct LstmCell {
    dim_in: usize,
    dim_h: usize,
    params: Vec<f64>,
}

/// Per-timestep forward cache needed by the backward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    c: Vec<f64>,
}

impl LstmCell {
    /// A cell with seeded Xavier-style initialization.
    pub fn new(dim_in: usize, dim_h: usize, seed: u64) -> LstmCell {
        let n = 4 * dim_h * dim_in + 4 * dim_h * dim_h + 4 * dim_h;
        let mut rng = rng_from_seed(derive_seed(seed, 0x157a));
        let scale = (1.0 / (dim_in + dim_h) as f64).sqrt();
        let mut params: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng) * scale).collect();
        // Forget-gate bias starts at 1 (standard trick for gradient flow).
        let b_off = 4 * dim_h * dim_in + 4 * dim_h * dim_h;
        for j in 0..dim_h {
            params[b_off + dim_h + j] = 1.0;
        }
        LstmCell { dim_in, dim_h, params }
    }

    /// Total parameter count.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    fn wx(&self, gate_row: usize, col: usize) -> f64 {
        self.params[gate_row * self.dim_in + col]
    }

    fn wh(&self, gate_row: usize, col: usize) -> f64 {
        self.params[4 * self.dim_h * self.dim_in + gate_row * self.dim_h + col]
    }

    fn b(&self, gate_row: usize) -> f64 {
        self.params[4 * self.dim_h * (self.dim_in + self.dim_h) + gate_row]
    }

    /// One forward step.
    fn step(&self, x: &[f64], h_prev: &[f64], c_prev: &[f64]) -> (Vec<f64>, Vec<f64>, StepCache) {
        let h = self.dim_h;
        let mut z = vec![0.0; 4 * h];
        for (r, zr) in z.iter_mut().enumerate() {
            let mut s = self.b(r);
            for (j, &xv) in x.iter().enumerate() {
                if xv != 0.0 {
                    s += self.wx(r, j) * xv;
                }
            }
            for (j, &hv) in h_prev.iter().enumerate() {
                s += self.wh(r, j) * hv;
            }
            *zr = s;
        }
        let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
        let i: Vec<f64> = (0..h).map(|j| sig(z[j])).collect();
        let f: Vec<f64> = (0..h).map(|j| sig(z[h + j])).collect();
        let g: Vec<f64> = (0..h).map(|j| z[2 * h + j].tanh()).collect();
        let o: Vec<f64> = (0..h).map(|j| sig(z[3 * h + j])).collect();
        let c: Vec<f64> = (0..h).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
        let h_new: Vec<f64> = (0..h).map(|j| o[j] * c[j].tanh()).collect();
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            c: c.clone(),
        };
        (h_new, c, cache)
    }

    /// One backward step: consumes `dh`/`dc` for this timestep, adds
    /// parameter gradients into `grads`, returns `(dh_prev, dc_prev)`.
    fn step_backward(
        &self,
        cache: &StepCache,
        dh: &[f64],
        dc_in: &[f64],
        grads: &mut [f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let h = self.dim_h;
        let mut dz = vec![0.0; 4 * h];
        let mut dc_prev = vec![0.0; h];
        for j in 0..h {
            let tc = cache.c[j].tanh();
            let dc = dh[j] * cache.o[j] * (1.0 - tc * tc) + dc_in[j];
            let d_o = dh[j] * tc;
            let d_i = dc * cache.g[j];
            let d_f = dc * cache.c_prev[j];
            let d_g = dc * cache.i[j];
            dz[j] = d_i * cache.i[j] * (1.0 - cache.i[j]);
            dz[h + j] = d_f * cache.f[j] * (1.0 - cache.f[j]);
            dz[2 * h + j] = d_g * (1.0 - cache.g[j] * cache.g[j]);
            dz[3 * h + j] = d_o * cache.o[j] * (1.0 - cache.o[j]);
            dc_prev[j] = dc * cache.f[j];
        }
        // Parameter gradients.
        let wx_off = 0;
        let wh_off = 4 * h * self.dim_in;
        let b_off = wh_off + 4 * h * h;
        for r in 0..4 * h {
            let d = dz[r];
            if d == 0.0 {
                continue;
            }
            for (j, &xv) in cache.x.iter().enumerate() {
                if xv != 0.0 {
                    grads[wx_off + r * self.dim_in + j] += d * xv;
                }
            }
            for (j, &hv) in cache.h_prev.iter().enumerate() {
                grads[wh_off + r * h + j] += d * hv;
            }
            grads[b_off + r] += d;
        }
        // dh_prev = Wh^T dz.
        let mut dh_prev = vec![0.0; h];
        for r in 0..4 * h {
            let d = dz[r];
            if d == 0.0 {
                continue;
            }
            for (j, dhp) in dh_prev.iter_mut().enumerate() {
                *dhp += self.wh(r, j) * d;
            }
        }
        (dh_prev, dc_prev)
    }
}

/// Token vocabulary: 0 = start/padding, `1..=alphabet` = symbols.
fn one_hot(token: usize, vocab: usize) -> Vec<f64> {
    let mut x = vec![0.0; vocab];
    x[token.min(vocab - 1)] = 1.0;
    x
}

/// Hyperparameters of the LSTM regressor.
#[derive(Debug, Clone)]
pub struct LstmRegParams {
    /// Hidden state width.
    pub hidden: usize,
    /// Training epochs per fit.
    pub epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for LstmRegParams {
    fn default() -> Self {
        LstmRegParams { hidden: 16, epochs: 40, learning_rate: 0.02, seed: 0 }
    }
}

/// Sequence-to-scalar LSTM regressor: final hidden state -> linear head.
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    cell: LstmCell,
    head: Vec<f64>, // hidden + 1 (bias)
    vocab: usize,
}

impl LstmRegressor {
    /// Fit on token sequences (`1..=vocab-1` symbols) with scalar targets.
    pub fn fit(
        sequences: &[Vec<usize>],
        y: &[f64],
        vocab: usize,
        params: &LstmRegParams,
    ) -> LstmRegressor {
        assert_eq!(sequences.len(), y.len());
        assert!(!y.is_empty());
        let h = params.hidden;
        let mut cell = LstmCell::new(vocab, h, params.seed);
        let mut rng = rng_from_seed(derive_seed(params.seed, 0x4ead));
        let mut head: Vec<f64> =
            (0..=h).map(|_| standard_normal(&mut rng) * (1.0 / h as f64).sqrt()).collect();

        let mut opt_cell = Adam::new(cell.n_params(), params.learning_rate);
        let mut opt_head = Adam::new(h + 1, params.learning_rate);
        let n = sequences.len() as f64;

        for _ in 0..params.epochs {
            let mut gcell = vec![0.0; cell.n_params()];
            let mut ghead = vec![0.0; h + 1];
            for (seq, &target) in sequences.iter().zip(y) {
                // Forward.
                let mut hs = vec![0.0; h];
                let mut cs = vec![0.0; h];
                let mut caches = Vec::with_capacity(seq.len());
                for &tok in seq {
                    let x = one_hot(tok, vocab);
                    let (h2, c2, cache) = cell.step(&x, &hs, &cs);
                    hs = h2;
                    cs = c2;
                    caches.push(cache);
                }
                let mut pred = head[h];
                for j in 0..h {
                    pred += head[j] * hs[j];
                }
                let dpred = 2.0 * (pred - target) / n;
                // Head gradient + dh for the last step.
                let mut dh: Vec<f64> = (0..h).map(|j| dpred * head[j]).collect();
                for j in 0..h {
                    ghead[j] += dpred * hs[j];
                }
                ghead[h] += dpred;
                // BPTT.
                let mut dc = vec![0.0; h];
                for cache in caches.iter().rev() {
                    let (dhp, dcp) = cell.step_backward(cache, &dh, &dc, &mut gcell);
                    dh = dhp;
                    dc = dcp;
                }
            }
            opt_cell.step(&mut cell.params, &gcell);
            opt_head.step(&mut head, &ghead);
        }
        LstmRegressor { cell, head, vocab }
    }

    /// Predict for a token sequence.
    pub fn predict(&self, seq: &[usize]) -> f64 {
        let h = self.cell.dim_h;
        let mut hs = vec![0.0; h];
        let mut cs = vec![0.0; h];
        for &tok in seq {
            let x = one_hot(tok, self.vocab);
            let (h2, c2, _) = self.cell.step(&x, &hs, &cs);
            hs = h2;
            cs = c2;
        }
        let mut pred = self.head[h];
        for j in 0..h {
            pred += self.head[j] * hs[j];
        }
        pred
    }
}

/// Ensemble of LSTM regressors (PLE).
#[derive(Debug, Clone)]
pub struct LstmEnsemble {
    members: Vec<LstmRegressor>,
}

impl LstmEnsemble {
    /// Fit `n_members` regressors with derived seeds.
    pub fn fit(
        sequences: &[Vec<usize>],
        y: &[f64],
        vocab: usize,
        params: &LstmRegParams,
        n_members: usize,
    ) -> LstmEnsemble {
        let members = (0..n_members.max(1))
            .map(|i| {
                let mut p = params.clone();
                p.seed = derive_seed(params.seed, 31 + i as u64);
                LstmRegressor::fit(sequences, y, vocab, &p)
            })
            .collect();
        LstmEnsemble { members }
    }

    /// Mean prediction across members.
    pub fn predict(&self, seq: &[usize]) -> f64 {
        self.members.iter().map(|m| m.predict(seq)).sum::<f64>() / self.members.len() as f64
    }
}

/// Autoregressive LSTM policy over symbol sequences — the ENAS
/// controller. At each step it consumes the previous token and emits a
/// distribution over `alphabet + 1` actions (the symbols plus STOP).
#[derive(Debug, Clone)]
pub struct SequencePolicy {
    cell: LstmCell,
    /// Action head: `(alphabet + 1) x (hidden + 1)`.
    head: Vec<f64>,
    alphabet: usize,
    hidden: usize,
    max_len: usize,
    opt_cell: Adam,
    opt_head: Adam,
}

impl SequencePolicy {
    /// A policy with seeded initialization.
    pub fn new(alphabet: usize, max_len: usize, hidden: usize, lr: f64, seed: u64) -> SequencePolicy {
        let vocab = alphabet + 1; // input tokens: 0 start, 1..=alphabet
        let n_actions = alphabet + 1; // actions: 0..alphabet-1 symbols, alphabet = STOP
        let cell = LstmCell::new(vocab, hidden, seed);
        let mut rng = rng_from_seed(derive_seed(seed, 0x9011c4));
        let head: Vec<f64> = (0..n_actions * (hidden + 1))
            .map(|_| standard_normal(&mut rng) * (1.0 / hidden as f64).sqrt())
            .collect();
        let n_cell = cell.n_params();
        SequencePolicy {
            cell,
            head,
            alphabet,
            hidden,
            max_len,
            opt_cell: Adam::new(n_cell, lr),
            opt_head: Adam::new(n_actions * (hidden + 1), lr),
        }
    }

    fn logits(&self, hs: &[f64]) -> Vec<f64> {
        let h = self.hidden;
        (0..=self.alphabet)
            .map(|a| {
                let base = a * (h + 1);
                let mut z = self.head[base + h];
                for j in 0..h {
                    z += self.head[base + j] * hs[j];
                }
                z
            })
            .collect()
    }

    /// Sample a symbol sequence (kind indices in `0..alphabet`).
    /// A STOP action (or reaching `max_len`) ends the episode; at least
    /// one symbol is always emitted.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let h = self.hidden;
        let mut hs = vec![0.0; h];
        let mut cs = vec![0.0; h];
        let mut prev_token = 0usize;
        let mut seq = Vec::new();
        for step in 0..self.max_len {
            let x = one_hot(prev_token, self.alphabet + 1);
            let (h2, c2, _) = self.cell.step(&x, &hs, &cs);
            hs = h2;
            cs = c2;
            let mut probs = self.logits(&hs);
            softmax_inplace(&mut probs);
            if step == 0 {
                probs[self.alphabet] = 0.0; // cannot STOP before emitting
            }
            let action = weighted_index(rng, &probs);
            if action == self.alphabet {
                break;
            }
            seq.push(action);
            prev_token = action + 1;
        }
        if seq.is_empty() {
            seq.push(0);
        }
        seq
    }

    /// REINFORCE update: increase the log-probability of the episode that
    /// produced `seq` in proportion to `advantage` (reward - baseline).
    pub fn reinforce(&mut self, seq: &[usize], advantage: f64) {
        if advantage == 0.0 || seq.is_empty() {
            return;
        }
        let h = self.hidden;
        let n_actions = self.alphabet + 1;
        // Reconstruct the action sequence: symbols then STOP (if short).
        let mut actions: Vec<usize> = seq.to_vec();
        if seq.len() < self.max_len {
            actions.push(self.alphabet);
        }
        // Forward, caching.
        let mut hs = vec![0.0; h];
        let mut cs = vec![0.0; h];
        let mut prev_token = 0usize;
        let mut caches = Vec::with_capacity(actions.len());
        let mut step_h = Vec::with_capacity(actions.len());
        let mut step_probs = Vec::with_capacity(actions.len());
        for (step, &a) in actions.iter().enumerate() {
            let x = one_hot(prev_token, self.alphabet + 1);
            let (h2, c2, cache) = self.cell.step(&x, &hs, &cs);
            hs = h2;
            cs = c2;
            let mut probs = self.logits(&hs);
            softmax_inplace(&mut probs);
            if step == 0 {
                // Renormalize without STOP, matching sampling.
                probs[self.alphabet] = 0.0;
                let s: f64 = probs.iter().sum();
                if s > 0.0 {
                    for p in probs.iter_mut() {
                        *p /= s;
                    }
                }
            }
            caches.push(cache);
            step_h.push(hs.clone());
            step_probs.push(probs);
            if a < self.alphabet {
                prev_token = a + 1;
            }
        }
        // Backward: loss = -advantage * sum_t log pi(a_t).
        let mut gcell = vec![0.0; self.cell.n_params()];
        let mut ghead = vec![0.0; n_actions * (h + 1)];
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        for t in (0..actions.len()).rev() {
            let probs = &step_probs[t];
            let hst = &step_h[t];
            // dlogits = -advantage * (onehot(a) - probs) = advantage * (probs - onehot).
            let mut dh = dh_next.clone();
            for a in 0..n_actions {
                let dlogit = advantage * (probs[a] - (a == actions[t]) as u8 as f64);
                if dlogit == 0.0 {
                    continue;
                }
                let base = a * (h + 1);
                for j in 0..h {
                    ghead[base + j] += dlogit * hst[j];
                    dh[j] += dlogit * self.head[base + j];
                }
                ghead[base + h] += dlogit;
            }
            let (dhp, dcp) = self.cell.step_backward(&caches[t], &dh, &dc_next, &mut gcell);
            dh_next = dhp;
            dc_next = dcp;
        }
        let mut cell_params = std::mem::take(&mut self.cell.params);
        self.opt_cell.step(&mut cell_params, &gcell);
        self.cell.params = cell_params;
        let mut head = std::mem::take(&mut self.head);
        self.opt_head.step(&mut head, &ghead);
        self.head = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check for the LSTM cell + linear head.
    #[test]
    fn bptt_gradients_match_numerical() {
        let vocab = 4;
        let h = 3;
        let mut cell = LstmCell::new(vocab, h, 42);
        let head: Vec<f64> = (0..=h).map(|j| 0.1 * (j as f64 + 1.0)).collect();
        let seq = [1usize, 3, 2];
        let target = 0.7;

        let loss = |cell: &LstmCell| -> f64 {
            let mut hs = vec![0.0; h];
            let mut cs = vec![0.0; h];
            for &tok in &seq {
                let x = one_hot(tok, vocab);
                let (h2, c2, _) = cell.step(&x, &hs, &cs);
                hs = h2;
                cs = c2;
            }
            let mut pred = head[h];
            for j in 0..h {
                pred += head[j] * hs[j];
            }
            (pred - target) * (pred - target)
        };

        // Analytic gradient.
        let mut grads = vec![0.0; cell.n_params()];
        {
            let mut hs = vec![0.0; h];
            let mut cs = vec![0.0; h];
            let mut caches = Vec::new();
            for &tok in &seq {
                let x = one_hot(tok, vocab);
                let (h2, c2, cache) = cell.step(&x, &hs, &cs);
                hs = h2;
                cs = c2;
                caches.push(cache);
            }
            let mut pred = head[h];
            for j in 0..h {
                pred += head[j] * hs[j];
            }
            let dpred = 2.0 * (pred - target);
            let mut dh: Vec<f64> = (0..h).map(|j| dpred * head[j]).collect();
            let mut dc = vec![0.0; h];
            for cache in caches.iter().rev() {
                let (dhp, dcp) = cell.step_backward(cache, &dh, &dc, &mut grads);
                dh = dhp;
                dc = dcp;
            }
        }

        // Numerical gradient on a sample of parameters.
        let eps = 1e-6;
        for idx in (0..cell.n_params()).step_by(cell.n_params() / 17 + 1) {
            let orig = cell.params[idx];
            cell.params[idx] = orig + eps;
            let lp = loss(&cell);
            cell.params[idx] = orig - eps;
            let lm = loss(&cell);
            cell.params[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grads[idx]).abs() < 1e-5 * (1.0 + num.abs()),
                "param {idx}: numerical {num} vs analytic {}",
                grads[idx]
            );
        }
    }

    #[test]
    fn regressor_learns_sequence_scores() {
        // Sequences starting with token 1 score high, token 2 low.
        let mut seqs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            seqs.push(vec![1, 1 + (i % 3)]);
            ys.push(0.9);
            seqs.push(vec![2, 1 + (i % 3)]);
            ys.push(0.1);
        }
        let params = LstmRegParams { epochs: 150, ..Default::default() };
        let m = LstmRegressor::fit(&seqs, &ys, 4, &params);
        assert!(m.predict(&[1, 2]) > m.predict(&[2, 2]) + 0.3);
    }

    #[test]
    fn regressor_is_deterministic() {
        let seqs = vec![vec![1, 2], vec![2, 1], vec![3]];
        let ys = vec![0.3, 0.6, 0.9];
        let p = LstmRegParams { epochs: 10, ..Default::default() };
        let a = LstmRegressor::fit(&seqs, &ys, 4, &p).predict(&[1, 3]);
        let b = LstmRegressor::fit(&seqs, &ys, 4, &p).predict(&[1, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn ensemble_prediction_finite() {
        let seqs = vec![vec![1], vec![2], vec![3]];
        let ys = vec![0.2, 0.5, 0.8];
        let p = LstmRegParams { epochs: 10, ..Default::default() };
        let e = LstmEnsemble::fit(&seqs, &ys, 4, &p, 3);
        assert!(e.predict(&[2, 3]).is_finite());
    }

    #[test]
    fn policy_samples_valid_sequences() {
        let policy = SequencePolicy::new(7, 7, 12, 0.01, 5);
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            let s = policy.sample(&mut rng);
            assert!(!s.is_empty() && s.len() <= 7, "{s:?}");
            assert!(s.iter().all(|&a| a < 7));
        }
    }

    #[test]
    fn reinforce_shifts_policy_toward_rewarded_symbol() {
        let mut policy = SequencePolicy::new(3, 4, 10, 0.05, 7);
        let mut rng = rng_from_seed(11);
        // Reward sequences containing symbol 0; punish others.
        for _ in 0..300 {
            let s = policy.sample(&mut rng);
            let reward = s.iter().filter(|&&a| a == 0).count() as f64 / s.len() as f64;
            policy.reinforce(&s, reward - 0.33);
        }
        let mut zero_fraction = 0.0;
        let mut total = 0.0;
        for _ in 0..200 {
            let s = policy.sample(&mut rng);
            zero_fraction += s.iter().filter(|&&a| a == 0).count() as f64;
            total += s.len() as f64;
        }
        let frac = zero_fraction / total;
        assert!(frac > 0.55, "zero-symbol fraction {frac}");
    }
}
