//! Descriptive statistics over slices.
//!
//! These mirror the NumPy/SciPy definitions the paper's preprocessors and
//! meta-features depend on: population standard deviation (NumPy default,
//! used by `StandardScaler`), Fisher-Pearson skewness and excess kurtosis
//! (SciPy defaults, used by the statistical meta-features), and linearly
//! interpolated quantiles (used by `QuantileTransformer`).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divide by `n`); `0.0` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Fisher-Pearson coefficient of skewness (biased, SciPy `skew` default).
///
/// Returns `0.0` for constant or empty input.
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
    if m2 <= 1e-300 {
        return 0.0;
    }
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n as f64;
    m3 / m2.powf(1.5)
}

/// Excess kurtosis (biased, Fisher definition; SciPy `kurtosis` default).
///
/// Returns `0.0` for constant or empty input (SciPy returns `-3.0` for a
/// constant column, but downstream meta-features only care about spread,
/// and `0.0` keeps constant columns neutral).
pub fn kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
    if m2 <= 1e-300 {
        return 0.0;
    }
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n as f64;
    m4 / (m2 * m2) - 3.0
}

/// Minimum; `f64::NAN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum; `f64::NAN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// Quantile of **sorted** data with linear interpolation (NumPy
/// `interpolation='linear'`). `q` is clamped to `[0, 1]`.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Quantile of unsorted data (copies and sorts).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    // total_cmp: NaN-laden columns (poisoned datasets) must yield a
    // deterministic quantile, not a panic; NaNs sort to the top.
    v.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&v, q)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Shannon entropy (natural log) of a discrete distribution given as counts.
pub fn entropy_from_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Rank positions (1-based average ranks, ties share the mean rank).
///
/// Smaller values receive smaller ranks. This is the tie rule the paper
/// uses when ranking search algorithms ("if there is a tie, we give the
/// same ranking value").
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // positions i..=j (0-based) share the average of 1-based ranks
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn paper_figure1_standard_scaler_stats() {
        // Figure 1 of the paper: mu = 2.21, sigma = 1.98 for this column.
        let col = [-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0];
        assert!(close(mean(&col), 2.2142857, 1e-6));
        assert!(close(std_dev(&col), 1.98, 5e-3));
    }

    #[test]
    fn skewness_symmetric_is_zero() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(close(skewness(&xs), 0.0, 1e-12));
    }

    #[test]
    fn skewness_right_tail_positive() {
        let xs = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&xs) > 1.0);
    }

    #[test]
    fn kurtosis_normal_like() {
        // Uniform distribution has excess kurtosis -1.2.
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 / 9_999.0).collect();
        assert!(close(kurtosis(&xs), -1.2, 0.01));
    }

    #[test]
    fn constant_input_is_neutral() {
        let xs = [3.0; 10];
        assert_eq!(skewness(&xs), 0.0);
        assert_eq!(kurtosis(&xs), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!(close(quantile(&xs, 1.0 / 3.0), 2.0, 1e-12));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn entropy_uniform_binary() {
        assert!(close(entropy_from_counts(&[5, 5]), (2.0_f64).ln(), 1e-12));
        assert_eq!(entropy_from_counts(&[10, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[]), 0.0);
    }

    #[test]
    fn ranks_with_ties() {
        // values: smaller is better (rank 1)
        let r = average_ranks(&[0.3, 0.1, 0.3, 0.2]);
        assert_eq!(r, vec![3.5, 1.0, 3.5, 2.0]);
    }

    #[test]
    fn ranks_all_equal() {
        let r = average_ranks(&[1.0, 1.0, 1.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }
}
