//! A minimal Adam optimizer over flat parameter buffers, shared by the
//! MLP classifier (`autofp-models`) and the gradient-trained surrogates
//! (MLP regressor, LSTM regressor/policy).

/// Adam state for one flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: f64,
    /// Step size.
    pub lr: f64,
}

impl Adam {
    /// Fresh optimizer state for `n_params` parameters.
    pub fn new(n_params: usize, lr: f64) -> Adam {
        Adam { m: vec![0.0; n_params], v: vec![0.0; n_params], t: 0.0, lr }
    }

    /// Apply one update: `params -= lr * mhat / (sqrt(vhat) + eps)`.
    /// Non-finite gradient entries are treated as zero.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len());
        self.t += 1.0;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powf(self.t);
        let bc2 = 1.0 - b2.powf(self.t);
        for i in 0..params.len() {
            let g = if grads[i].is_finite() { grads[i] } else { 0.0 };
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            params[i] -= self.lr * (self.m[i] / bc1) / ((self.v[i] / bc2).sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x - 3).
        let mut x = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x {}", x[0]);
    }

    #[test]
    fn ignores_non_finite_gradients() {
        let mut x = vec![1.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut x, &[f64::NAN]);
        assert!(x[0].is_finite());
    }
}
