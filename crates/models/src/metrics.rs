//! Evaluation metrics.

/// Fraction of matching predictions.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let correct = y_true.iter().zip(y_pred).filter(|(a, b)| a == b).count();
    correct as f64 / y_true.len() as f64
}

/// `1 - accuracy` (the paper's pipeline error, Eq. 2).
pub fn error_rate(y_true: &[usize], y_pred: &[usize]) -> f64 {
    1.0 - accuracy(y_true, y_pred)
}

/// Area under the ROC curve for binary labels given positive-class
/// scores, computed via the rank statistic (ties get half credit).
/// Returns 0.5 when either class is absent.
pub fn auc_binary(y_true: &[usize], scores: &[f64]) -> f64 {
    assert_eq!(y_true.len(), scores.len());
    let n_pos = y_true.iter().filter(|&&y| y == 1).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    // total_cmp instead of partial_cmp: a diverged model can emit NaN
    // scores, and a metric must never panic on the evaluation path.
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Sum of average ranks of positives (1-based, ties averaged).
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            if y_true[k] == 1 {
                rank_sum += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(error_rate(&[0, 1], &[1, 0]), 1.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let y = [0, 0, 1, 1];
        assert_eq!(auc_binary(&y, &[0.1, 0.2, 0.8, 0.9]), 1.0);
        assert_eq!(auc_binary(&y, &[0.9, 0.8, 0.2, 0.1]), 0.0);
    }

    #[test]
    fn auc_random_scores_half() {
        let y = [0, 1, 0, 1];
        let s = [0.5, 0.5, 0.5, 0.5];
        assert!((auc_binary(&y, &s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_class_returns_half() {
        assert_eq!(auc_binary(&[1, 1], &[0.1, 0.9]), 0.5);
        assert_eq!(auc_binary(&[0, 0], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn auc_known_value() {
        // One mis-ranked pair out of 4 -> 0.75.
        let y = [0, 1, 0, 1];
        let s = [0.4, 0.3, 0.1, 0.8];
        assert!((auc_binary(&y, &s) - 0.75).abs() < 1e-12);
    }
}
