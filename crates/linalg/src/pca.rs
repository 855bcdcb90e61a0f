//! Principal component analysis via power iteration with deflation.
//!
//! The meta-feature extractor needs three PCA-derived quantities
//! (Table 10 of the paper): skewness and kurtosis of the data projected on
//! the first principal component, and the fraction of components required
//! to explain 95% of variance. Power iteration with Hotelling deflation on
//! the covariance matrix is exact enough for those summaries and avoids a
//! full eigendecomposition.

use crate::matrix::{dot, norm_l2, Matrix};

/// Result of a (possibly truncated) PCA.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Principal axes, one row per component (unit length).
    pub components: Matrix,
    /// Variance explained by each extracted component.
    pub explained_variance: Vec<f64>,
    /// Total variance of the (centered) input.
    pub total_variance: f64,
    /// Column means used for centering.
    pub means: Vec<f64>,
}

impl Pca {
    /// Fit up to `max_components` principal components.
    ///
    /// `x` is `n_samples x n_features`. Returns fewer components if the
    /// residual variance is exhausted first.
    pub fn fit(x: &Matrix, max_components: usize) -> Pca {
        let (n, d) = x.shape();
        let means = x.col_means();
        // Covariance matrix (population, divide by n) of the centered data.
        let mut cov = Matrix::zeros(d, d);
        if n > 0 {
            for row in x.rows_iter() {
                for i in 0..d {
                    let xi = row[i] - means[i];
                    if xi == 0.0 {
                        continue;
                    }
                    for j in i..d {
                        let v = xi * (row[j] - means[j]);
                        cov.set(i, j, cov.get(i, j) + v);
                    }
                }
            }
            let nf = n as f64;
            for i in 0..d {
                for j in i..d {
                    let v = cov.get(i, j) / nf;
                    cov.set(i, j, v);
                    cov.set(j, i, v);
                }
            }
        }
        let total_variance: f64 = (0..d).map(|i| cov.get(i, i)).sum();

        let k = max_components.min(d);
        let mut components = Vec::with_capacity(k);
        let mut explained = Vec::with_capacity(k);
        let mut remaining = total_variance;
        for comp_idx in 0..k {
            if remaining <= 1e-12 * total_variance.max(1e-12) {
                break;
            }
            let (eigval, eigvec) = power_iteration(&cov, comp_idx as u64);
            if eigval <= 1e-12 {
                break;
            }
            // Hotelling deflation: cov -= lambda * v v^T
            for i in 0..d {
                for j in 0..d {
                    let v = cov.get(i, j) - eigval * eigvec[i] * eigvec[j];
                    cov.set(i, j, v);
                }
            }
            remaining -= eigval;
            components.push(eigvec);
            explained.push(eigval);
        }
        let comp_matrix = if components.is_empty() {
            Matrix::zeros(0, d)
        } else {
            Matrix::from_rows(&components)
        };
        Pca { components: comp_matrix, explained_variance: explained, total_variance, means }
    }

    /// Project the data onto the first principal component.
    pub fn project_first(&self, x: &Matrix) -> Vec<f64> {
        if self.components.nrows() == 0 {
            return vec![0.0; x.nrows()];
        }
        let axis = self.components.row(0);
        x.rows_iter()
            .map(|row| {
                row.iter().zip(axis).zip(&self.means).map(|((&v, &a), &m)| (v - m) * a).sum()
            })
            .collect()
    }

    /// Fraction of extracted components needed to reach `target` (e.g.
    /// 0.95) of total variance, expressed relative to the full feature
    /// count `d`. Mirrors Auto-Sklearn's
    /// `PCAFractionOfComponentsFor95PercentVariance`.
    pub fn fraction_for_variance(&self, target: f64, d: usize) -> f64 {
        if self.total_variance <= 0.0 || d == 0 {
            return 1.0;
        }
        let mut acc = 0.0;
        for (i, ev) in self.explained_variance.iter().enumerate() {
            acc += ev;
            if acc / self.total_variance >= target {
                return (i + 1) as f64 / d as f64;
            }
        }
        // Not reached within the extracted components: everything we have
        // plus the remainder — report pessimistically.
        1.0
    }
}

/// Dominant eigenpair of a symmetric matrix by power iteration.
fn power_iteration(a: &Matrix, seed: u64) -> (f64, Vec<f64>) {
    let d = a.nrows();
    if d == 0 {
        return (0.0, vec![]);
    }
    // Deterministic pseudo-random start vector (splitmix64 stream).
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x1234_5678);
    let mut v: Vec<f64> = (0..d)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) - 0.5
        })
        .collect();
    let nrm = norm_l2(&v).max(1e-12);
    v.iter_mut().for_each(|x| *x /= nrm);

    let mut eigval = 0.0;
    for _ in 0..200 {
        let w = a.matvec(&v);
        let nw = norm_l2(&w);
        if nw <= 1e-300 {
            return (0.0, v);
        }
        let new_v: Vec<f64> = w.iter().map(|x| x / nw).collect();
        let new_eig = dot(&new_v, &a.matvec(&new_v));
        let delta = new_v
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b).abs().min((a + b).abs()))
            .fold(0.0_f64, f64::max);
        v = new_v;
        eigval = new_eig;
        if delta < 1e-10 {
            break;
        }
    }
    (eigval.max(0.0), v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_axis() {
        // Points spread along the (1, 1) direction with small noise.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0 - 5.0;
                let noise = ((i * 37) % 11) as f64 / 100.0;
                vec![t + noise, t - noise]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let pca = Pca::fit(&x, 2);
        let axis = pca.components.row(0);
        let ratio = (axis[0] / axis[1]).abs();
        assert!((ratio - 1.0).abs() < 0.05, "axis {axis:?}");
        assert!(pca.explained_variance[0] > pca.explained_variance.get(1).copied().unwrap_or(0.0));
    }

    #[test]
    fn explained_variance_sums_to_total() {
        let rows: Vec<Vec<f64>> =
            (0..50).map(|i| vec![i as f64, (i * i % 17) as f64, ((i * 7) % 5) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let pca = Pca::fit(&x, 3);
        let sum: f64 = pca.explained_variance.iter().sum();
        assert!((sum - pca.total_variance).abs() < 1e-6 * pca.total_variance);
    }

    #[test]
    fn fraction_for_variance_single_direction() {
        // All variance on one axis -> one component suffices.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0, 0.0]).collect();
        let x = Matrix::from_rows(&rows);
        let pca = Pca::fit(&x, 3);
        assert!((pca.fraction_for_variance(0.95, 3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_data_is_safe() {
        let x = Matrix::filled(10, 4, 2.5);
        let pca = Pca::fit(&x, 2);
        assert_eq!(pca.total_variance, 0.0);
        assert_eq!(pca.fraction_for_variance(0.95, 4), 1.0);
        let proj = pca.project_first(&x);
        assert!(proj.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn projection_variance_matches_eigenvalue() {
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 13) as f64, (i % 7) as f64 * 2.0]).collect();
        let x = Matrix::from_rows(&rows);
        let pca = Pca::fit(&x, 1);
        let proj = pca.project_first(&x);
        let var = crate::stats::variance(&proj);
        assert!((var - pca.explained_variance[0]).abs() < 1e-6 * var.max(1.0));
    }
}
