//! Probability distribution helpers.
//!
//! The `QuantileTransformer` with normal output needs the inverse standard
//! normal CDF; logistic regression, the MLP, and several surrogates need
//! numerically stable softmax/log-sum-exp. Implemented from scratch:
//! Acklam's rational approximation for the probit (relative error
//! < 1.15e-9) and Abramowitz-Stegun 7.1.26 for `erf`.

/// Error function, Abramowitz & Stegun formula 7.1.26 (max abs error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal PDF.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse standard normal CDF (probit), Acklam's algorithm.
///
/// Input is clamped to `(eps, 1 - eps)` so the tails stay finite — the
/// same guard scikit-learn applies inside `QuantileTransformer`.
pub fn norm_ppf(p: f64) -> f64 {
    const EPS: f64 = 1e-10;
    let p = p.clamp(EPS, 1.0 - EPS);

    // Coefficients for the rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Numerically stable log-sum-exp.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Softmax, computed stably, in place.
pub fn softmax_inplace(xs: &mut [f64]) {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    } else {
        let u = 1.0 / xs.len() as f64;
        xs.fill(u);
    }
}

/// Softmax into a new vector.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    softmax_inplace(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn cdf_and_ppf_are_inverses() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = norm_ppf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
    }

    #[test]
    fn ppf_known_values() {
        assert!(norm_ppf(0.5).abs() < 1e-9);
        assert!((norm_ppf(0.975) - 1.959964).abs() < 1e-5);
        assert!((norm_ppf(0.025) + 1.959964).abs() < 1e-5);
    }

    #[test]
    fn ppf_clamps_extremes() {
        assert!(norm_ppf(0.0).is_finite());
        assert!(norm_ppf(1.0).is_finite());
        assert!(norm_ppf(0.0) < -6.0);
        assert!(norm_ppf(1.0) > 6.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let s = softmax(&[1000.0, 1000.0]);
        assert!((s[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_stable() {
        let v = logsumexp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + (2.0_f64).ln())).abs() < 1e-9);
        assert_eq!(logsumexp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
