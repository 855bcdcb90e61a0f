//! Small MLP regressor — the Progressive NAS surrogate (PMNE), and its
//! ensemble variant (PME).
//!
//! Maps an encoded pipeline (see `autofp_preprocess::encoding`) to a
//! predicted validation accuracy. Deliberately tiny: the paper observes
//! that the *low fitting cost* of the MLP surrogate is exactly why
//! PMNE/PME are the only surrogate algorithms to beat random search.

use autofp_linalg::adam::Adam;
use autofp_linalg::rng::{derive_seed, rng_from_seed, standard_normal};
use autofp_linalg::Matrix;

/// Hyperparameters of the MLP regressor.
#[derive(Debug, Clone)]
pub struct MlpRegParams {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs per fit.
    pub epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for MlpRegParams {
    fn default() -> Self {
        MlpRegParams { hidden: 16, epochs: 60, learning_rate: 0.02, seed: 0 }
    }
}

/// One-hidden-layer (tanh) regression network.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    w1: Matrix, // hidden x (d+1)
    w2: Vec<f64>, // hidden + 1
}

impl MlpRegressor {
    /// Fit on encoded rows `x` with scalar targets `y`.
    pub fn fit(x: &Matrix, y: &[f64], params: &MlpRegParams) -> MlpRegressor {
        assert_eq!(x.nrows(), y.len());
        assert!(!y.is_empty());
        let (n, d) = x.shape();
        let h = params.hidden;
        let mut rng = rng_from_seed(derive_seed(params.seed, 0x41e6));
        let mut w1 = Matrix::zeros(h, d + 1);
        for v in w1.as_mut_slice() {
            *v = standard_normal(&mut rng) * (1.0 / (d.max(1) as f64)).sqrt();
        }
        let mut w2 = vec![0.0; h + 1];
        for v in w2.iter_mut() {
            *v = standard_normal(&mut rng) * (1.0 / (h as f64)).sqrt();
        }

        let mut opt1 = Adam::new(h * (d + 1), params.learning_rate);
        let mut opt2 = Adam::new(h + 1, params.learning_rate);
        let mut g1 = vec![0.0; h * (d + 1)];
        let mut g2 = vec![0.0; h + 1];
        let mut act = vec![0.0; h];

        for _ in 0..params.epochs {
            g1.fill(0.0);
            g2.fill(0.0);
            for (i, row) in x.rows_iter().enumerate() {
                for (jh, a) in act.iter_mut().enumerate() {
                    let wr = w1.row(jh);
                    let mut z = wr[d];
                    for (j, &v) in row.iter().enumerate() {
                        z += wr[j] * v;
                    }
                    *a = z.tanh();
                }
                let mut pred = w2[h];
                for (jh, &a) in act.iter().enumerate() {
                    pred += w2[jh] * a;
                }
                let dpred = 2.0 * (pred - y[i]) / n as f64;
                for (jh, &a) in act.iter().enumerate() {
                    g2[jh] += dpred * a;
                    let dh = dpred * w2[jh] * (1.0 - a * a);
                    let base = jh * (d + 1);
                    for (j, &v) in row.iter().enumerate() {
                        g1[base + j] += dh * v;
                    }
                    g1[base + d] += dh;
                }
                g2[h] += dpred;
            }
            opt1.step(w1.as_mut_slice(), &g1);
            opt2.step(&mut w2, &g2);
        }
        MlpRegressor { w1, w2 }
    }

    /// Predict for an encoded row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let d = self.w1.ncols() - 1;
        let h = self.w1.nrows();
        let mut pred = self.w2[h];
        for jh in 0..h {
            let wr = self.w1.row(jh);
            let mut z = wr[d];
            for (j, &v) in row.iter().enumerate().take(d) {
                z += wr[j] * v;
            }
            pred += self.w2[jh] * z.tanh();
        }
        pred
    }
}

/// Ensemble of MLP regressors with different seeds (the "ensemble"
/// variants of Progressive NAS average member predictions).
#[derive(Debug, Clone)]
pub struct MlpEnsemble {
    members: Vec<MlpRegressor>,
}

impl MlpEnsemble {
    /// Fit `n_members` regressors with derived seeds.
    pub fn fit(x: &Matrix, y: &[f64], params: &MlpRegParams, n_members: usize) -> MlpEnsemble {
        let members = (0..n_members.max(1))
            .map(|i| {
                let mut p = params.clone();
                p.seed = derive_seed(params.seed, 77 + i as u64);
                MlpRegressor::fit(x, y, &p)
            })
            .collect();
        MlpEnsemble { members }
    }

    /// Mean prediction across members.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.members.iter().map(|m| m.predict(row)).sum::<f64>() / self.members.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearish() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![(i % 10) as f64 / 10.0, ((i * 3) % 10) as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 0.3 * r[0] + 0.5 * r[1] + 0.1).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_smooth_function() {
        let (x, y) = linearish();
        let m = MlpRegressor::fit(&x, &y, &MlpRegParams { epochs: 400, ..Default::default() });
        let mse: f64 = x
            .rows_iter()
            .enumerate()
            .map(|(i, r)| (m.predict(r) - y[i]).powi(2))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linearish();
        let p = MlpRegParams { epochs: 20, ..Default::default() };
        let a = MlpRegressor::fit(&x, &y, &p).predict(&[0.5, 0.5]);
        let b = MlpRegressor::fit(&x, &y, &p).predict(&[0.5, 0.5]);
        assert_eq!(a, b);
    }

    #[test]
    fn ensemble_averages_members() {
        let (x, y) = linearish();
        let p = MlpRegParams { epochs: 30, ..Default::default() };
        let e = MlpEnsemble::fit(&x, &y, &p, 3);
        assert_eq!(e.members.len(), 3);
        let pred = e.predict(&[0.2, 0.8]);
        assert!(pred.is_finite());
        // Ensemble differs from any single fixed-seed member in general.
        let single = MlpRegressor::fit(&x, &y, &p).predict(&[0.2, 0.8]);
        let _ = single;
    }

    #[test]
    fn ranks_better_candidates_higher() {
        // Target increases with feature 0; ranking must follow.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let m = MlpRegressor::fit(&x, &y, &MlpRegParams { epochs: 300, ..Default::default() });
        assert!(m.predict(&[0.9]) > m.predict(&[0.1]));
    }

    #[test]
    fn single_sample_fit_is_safe() {
        let x = Matrix::from_rows(&[vec![0.5]]);
        let m = MlpRegressor::fit(&x, &[0.7], &MlpRegParams::default());
        assert!(m.predict(&[0.5]).is_finite());
    }
}
