//! Warm-starting pipeline search from historical tasks (§8, research
//! opportunity 1).
//!
//! The paper observes that evolution-based algorithms dominate and asks
//! how to warm-start them: "the initial population of newly-coming tasks
//! can also be warm-started by historical tasks encoded by
//! meta-features". [`MetaStore`] implements exactly that: it records,
//! per finished task, the dataset's meta-feature vector and the best
//! pipelines found; for a new task it returns the best pipelines of the
//! most similar historical tasks (z-scored Euclidean meta-feature
//! distance), which seed `Pbt::seed_pipelines`.

use autofp_linalg::stats;
use autofp_preprocess::Pipeline;

/// One recorded task: meta-features and its best pipelines.
#[derive(Debug, Clone)]
struct Entry {
    meta: Vec<f64>,
    pipelines: Vec<Pipeline>,
}

/// A store of historical (meta-features -> best pipelines) records.
#[derive(Debug, Clone, Default)]
pub struct MetaStore {
    entries: Vec<Entry>,
}

impl MetaStore {
    /// An empty store.
    pub fn new() -> MetaStore {
        MetaStore::default()
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no task has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a finished task: its meta-features and best pipelines.
    ///
    /// # Panics
    /// Panics if the meta-feature width disagrees with earlier records.
    pub fn record(&mut self, meta: Vec<f64>, pipelines: Vec<Pipeline>) {
        if let Some(first) = self.entries.first() {
            assert_eq!(first.meta.len(), meta.len(), "meta-feature width mismatch");
        }
        self.entries.push(Entry { meta, pipelines });
    }

    /// Best pipelines of the `k` most similar historical tasks, closest
    /// first, flattened and deduplicated (per-task best first).
    pub fn warm_start(&self, meta: &[f64], k: usize) -> Vec<Pipeline> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        // z-score each meta-feature over the store (+query) so scale
        // differences between features don't dominate the distance.
        let d = meta.len();
        let mut means = vec![0.0; d];
        let mut stds = vec![0.0; d];
        for j in 0..d {
            let col: Vec<f64> = self
                .entries
                .iter()
                .map(|e| sanitized(e.meta[j]))
                .chain(std::iter::once(sanitized(meta[j])))
                .collect();
            means[j] = stats::mean(&col);
            stds[j] = stats::std_dev(&col).max(1e-9);
        }
        let dist = |a: &[f64]| -> f64 {
            a.iter()
                .zip(meta)
                .enumerate()
                .map(|(j, (&x, &y))| {
                    let dx = (sanitized(x) - means[j]) / stds[j];
                    let dy = (sanitized(y) - means[j]) / stds[j];
                    (dx - dy) * (dx - dy)
                })
                .sum::<f64>()
                .sqrt()
        };
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            // nan_largest: an entry with corrupt meta-features (NaN
            // distance) is ranked least similar instead of panicking.
            autofp_core::nan_largest(&dist(&self.entries[a].meta), &dist(&self.entries[b].meta))
        });
        let mut out: Vec<Pipeline> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &i in order.iter().take(k) {
            for p in &self.entries[i].pipelines {
                if seen.insert(p.key()) {
                    out.push(p.clone());
                }
            }
        }
        out
    }
}

fn sanitized(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_preprocess::PreprocKind;

    fn pipe(kinds: &[PreprocKind]) -> Pipeline {
        Pipeline::from_kinds(kinds)
    }

    #[test]
    fn nearest_task_pipelines_come_first() {
        let mut store = MetaStore::new();
        store.record(vec![1.0, 2.0], vec![pipe(&[PreprocKind::StandardScaler])]);
        store.record(vec![100.0, -50.0], vec![pipe(&[PreprocKind::Binarizer])]);
        let warm = store.warm_start(&[1.1, 2.1], 1);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].kinds(), vec![PreprocKind::StandardScaler]);
    }

    #[test]
    fn k_controls_breadth_and_dedup_applies() {
        let mut store = MetaStore::new();
        let shared = pipe(&[PreprocKind::Normalizer]);
        store.record(vec![0.0], vec![shared.clone(), pipe(&[PreprocKind::MinMaxScaler])]);
        store.record(vec![0.1], vec![shared.clone()]);
        let warm = store.warm_start(&[0.05], 2);
        // Duplicate Normalizer appears once.
        assert_eq!(warm.len(), 2);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let store = MetaStore::new();
        assert!(store.warm_start(&[1.0], 3).is_empty());
        assert!(store.is_empty());
    }

    #[test]
    fn scale_differences_do_not_dominate() {
        // Feature 0 has huge scale; feature 1 tiny but discriminative.
        let mut store = MetaStore::new();
        store.record(vec![1e6, 0.9], vec![pipe(&[PreprocKind::PowerTransformer])]);
        store.record(vec![1.0001e6, 0.1], vec![pipe(&[PreprocKind::Binarizer])]);
        // Query: feature-0 halfway, feature-1 clearly like "match".
        let warm = store.warm_start(&[1.00005e6, 0.88], 1);
        assert_eq!(warm[0].kinds(), vec![PreprocKind::PowerTransformer]);
    }

    #[test]
    fn non_finite_meta_features_are_tolerated() {
        let mut store = MetaStore::new();
        store.record(vec![f64::NAN, 1.0], vec![pipe(&[PreprocKind::MaxAbsScaler])]);
        let warm = store.warm_start(&[f64::INFINITY, 1.0], 1);
        assert_eq!(warm.len(), 1);
    }

    #[test]
    #[should_panic(expected = "meta-feature width mismatch")]
    fn width_mismatch_panics() {
        let mut store = MetaStore::new();
        store.record(vec![1.0, 2.0], vec![]);
        store.record(vec![1.0], vec![]);
    }
}
