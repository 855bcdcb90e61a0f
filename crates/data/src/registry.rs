//! Registry of the 45 benchmark datasets (Table 9 of the paper).
//!
//! Each entry mirrors the paper's reported name, on-disk size, row count,
//! column count, and class count, and attaches a synthetic
//! [`Personality`] chosen so that the *qualitative* behaviour matches
//! what the paper observed on the real dataset: datasets on which FP gave
//! large gains for scale-sensitive models (heart, pd, hill, EEG, ...) get
//! strong scale spread/skew; datasets where FP barely moved the needle
//! (isolet, har, ...) are generated nearly homogeneous. Absolute accuracy
//! values are not expected to match the paper — see DESIGN.md.

use crate::dataset::Dataset;
use crate::synth::{Personality, SynthConfig};
use autofp_linalg::codec::fnv1a;
use autofp_linalg::rng::derive_seed;

/// Specification of one benchmark dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Name as reported in Table 9.
    pub name: &'static str,
    /// On-disk size in MB as reported in Table 9 (drives the Table 5
    /// small/medium/large bucketing).
    pub size_mb: f64,
    /// Full row count as reported in Table 9.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Class count.
    pub classes: usize,
    /// Synthetic distributional personality (see module docs).
    pub personality: Personality,
}

impl DatasetSpec {
    /// Generate the dataset at a row-count scale in `(0, 1]`.
    ///
    /// `scale = 1.0` reproduces the full Table 9 row count; experiments
    /// use smaller scales to fit laptop budgets. At least `8 * classes`
    /// rows are always generated.
    pub fn generate(&self, scale: f64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let rows = ((self.rows as f64 * scale).round() as usize).max(8 * self.classes);
        let seed = derive_seed(0xA07F, fnv1a(self.name.as_bytes()));
        SynthConfig::new(self.name, rows.min(self.rows), self.cols, self.classes, seed)
            .with_personality(self.personality)
            .generate()
    }

    /// High-dimensional per the paper's Table 5 rule (> 100 columns).
    pub fn is_high_dimensional(&self) -> bool {
        self.cols > 100
    }

    /// Paper's Table 5 size bucket for low-dimensional datasets:
    /// `"small"` (≤ 1.6 MB), `"medium"` (≤ 4 MB) or `"large"`.
    pub fn size_bucket(&self) -> &'static str {
        if self.size_mb <= 1.6 {
            "small"
        } else if self.size_mb <= 4.0 {
            "medium"
        } else {
            "large"
        }
    }
}

fn pers(
    scale_spread: f64,
    skew: f64,
    heavy_tail: f64,
    sparsity: f64,
    class_sep: f64,
    label_noise: f64,
    informative_frac: f64,
    imbalance: f64,
) -> Personality {
    Personality {
        scale_spread,
        skew,
        heavy_tail,
        sparsity,
        class_sep,
        label_noise,
        informative_frac,
        imbalance,
    }
}

/// The 45 dataset specs of Table 9.
pub fn registry() -> Vec<DatasetSpec> {
    let mut v = Vec::with_capacity(45);
    let mut add = |name: &'static str,
                   size_mb: f64,
                   rows: usize,
                   cols: usize,
                   classes: usize,
                   p: Personality| {
        v.push(DatasetSpec { name, size_mb, rows, cols, classes, personality: p });
    };

    // name, size MB, rows, cols, classes — all from Table 9.
    add("ada", 0.34, 3317, 48, 2, pers(2.5, 0.35, 0.2, 0.05, 1.1, 0.08, 0.5, 0.3));
    add("austrilian", 0.02, 552, 14, 2, pers(3.0, 0.4, 0.1, 0.0, 1.2, 0.07, 0.6, 0.2));
    add("blood", 0.01, 598, 4, 2, pers(2.0, 0.5, 0.2, 0.0, 0.9, 0.12, 0.8, 0.5));
    add("christine", 32.5, 4334, 1636, 2, pers(2.0, 0.3, 0.1, 0.2, 0.8, 0.1, 0.2, 0.0));
    add("Click_prediction_small", 2.4, 31958, 11, 2, pers(3.0, 0.6, 0.3, 0.2, 0.5, 0.1, 0.7, 0.9));
    add("covtype", 75.2, 464809, 54, 7, pers(2.0, 0.3, 0.1, 0.3, 1.0, 0.06, 0.6, 0.5));
    add("credit", 2.7, 24000, 23, 2, pers(3.5, 0.5, 0.3, 0.1, 0.8, 0.1, 0.6, 0.6));
    add("EEG", 1.7, 11984, 14, 2, pers(4.0, 0.5, 0.4, 0.0, 1.0, 0.06, 0.9, 0.1));
    add("electricity", 3.0, 36249, 8, 2, pers(2.5, 0.4, 0.2, 0.0, 1.1, 0.06, 0.8, 0.1));
    add("emotion", 0.2431, 312, 77, 2, pers(1.5, 0.3, 0.1, 0.0, 0.8, 0.12, 0.4, 0.1));
    add("fibert", 13.7, 6589, 800, 7, pers(1.5, 0.25, 0.1, 0.3, 0.9, 0.1, 0.25, 0.3));
    add("forex", 3.6, 35060, 10, 2, pers(3.0, 0.5, 0.4, 0.0, 0.45, 0.15, 0.8, 0.0));
    add("gesture", 3.5, 7898, 32, 5, pers(2.5, 0.4, 0.2, 0.0, 1.0, 0.08, 0.7, 0.2));
    add("heart", 0.01, 242, 13, 2, pers(4.0, 0.6, 0.2, 0.0, 1.2, 0.06, 0.7, 0.1));
    add("helena", 15.2, 52156, 27, 100, pers(2.5, 0.4, 0.2, 0.0, 1.4, 0.05, 0.8, 0.4));
    add("higgs", 31.4, 78439, 28, 2, pers(1.5, 0.35, 0.3, 0.0, 0.6, 0.1, 0.7, 0.0));
    add("house_data", 1.8, 17290, 18, 12, pers(3.5, 0.6, 0.3, 0.0, 1.1, 0.07, 0.7, 0.4));
    add("jannis", 38.4, 66986, 54, 4, pers(2.0, 0.4, 0.2, 0.05, 0.9, 0.08, 0.6, 0.6));
    add("jasmine", 1.0, 2387, 144, 2, pers(2.5, 0.35, 0.1, 0.3, 1.0, 0.07, 0.4, 0.0));
    add("kc1", 0.14, 1687, 21, 2, pers(3.0, 0.7, 0.4, 0.1, 0.8, 0.1, 0.6, 0.8));
    add("madeline", 3.3, 2512, 259, 2, pers(2.5, 0.3, 0.2, 0.0, 0.7, 0.1, 0.3, 0.0));
    add("numerai28.6", 24.3, 77056, 21, 2, pers(0.5, 0.1, 0.1, 0.0, 0.2, 0.2, 0.9, 0.0));
    add("pd", 5.3, 604, 753, 2, pers(5.0, 0.7, 0.3, 0.1, 1.4, 0.05, 0.2, 0.3));
    add("philippine", 14.2, 4665, 308, 2, pers(3.0, 0.5, 0.2, 0.1, 1.0, 0.08, 0.3, 0.0));
    add("phoneme", 0.26, 4323, 5, 2, pers(2.0, 0.5, 0.2, 0.0, 1.0, 0.09, 0.9, 0.4));
    add("thyroid", 0.2, 2240, 26, 5, pers(3.5, 0.6, 0.3, 0.1, 1.1, 0.07, 0.6, 0.7));
    add("vehicle", 0.05, 676, 18, 4, pers(3.0, 0.45, 0.2, 0.0, 1.1, 0.08, 0.7, 0.1));
    add("volkert", 68.1, 46648, 180, 10, pers(2.0, 0.35, 0.2, 0.2, 0.8, 0.1, 0.4, 0.4));
    add("wine", 0.35, 5197, 11, 7, pers(3.0, 0.55, 0.3, 0.0, 0.7, 0.12, 0.8, 0.5));
    add("analcatdata_authorship", 0.13, 672, 70, 4, pers(1.0, 0.2, 0.05, 0.1, 2.2, 0.01, 0.5, 0.3));
    add("gas-drift", 17.3, 11128, 128, 6, pers(2.5, 0.45, 0.2, 0.0, 1.6, 0.03, 0.5, 0.2));
    add("har", 55.4, 8239, 561, 6, pers(0.5, 0.1, 0.05, 0.0, 2.0, 0.01, 0.4, 0.1));
    add("hill", 1.3, 969, 100, 2, pers(6.0, 0.9, 0.4, 0.0, 1.0, 0.03, 0.5, 0.0));
    add("ionosphere", 0.08, 280, 34, 2, pers(2.5, 0.4, 0.2, 0.1, 1.3, 0.05, 0.6, 0.3));
    add("isolet", 2.4, 480, 617, 2, pers(0.3, 0.05, 0.02, 0.0, 2.5, 0.0, 0.4, 0.0));
    add("mobile_price", 0.12, 1600, 20, 4, pers(4.0, 0.5, 0.2, 0.0, 1.3, 0.04, 0.8, 0.0));
    add("mozilla4", 0.39, 12436, 5, 2, pers(3.0, 0.6, 0.3, 0.1, 1.2, 0.05, 0.9, 0.4));
    add("nasa", 1.6, 3749, 33, 2, pers(4.5, 0.65, 0.3, 0.0, 1.3, 0.04, 0.7, 0.2));
    add("page", 0.24, 4378, 10, 5, pers(3.0, 0.6, 0.3, 0.0, 1.4, 0.04, 0.8, 0.9));
    add("robot", 0.8, 4364, 24, 4, pers(3.5, 0.5, 0.2, 0.0, 1.5, 0.03, 0.7, 0.3));
    add("run_or_walk", 4.2, 70870, 6, 2, pers(3.0, 0.55, 0.3, 0.0, 1.3, 0.04, 0.9, 0.0));
    add("spambase", 0.7, 3680, 57, 2, pers(3.0, 0.6, 0.3, 0.4, 1.2, 0.05, 0.6, 0.2));
    add("sylvine", 0.42, 4099, 20, 2, pers(3.0, 0.5, 0.2, 0.0, 1.3, 0.05, 0.7, 0.0));
    add("wall-robot", 0.71, 4364, 24, 4, pers(3.5, 0.5, 0.2, 0.0, 1.5, 0.03, 0.7, 0.3));
    add("wilt", 0.25, 3871, 5, 2, pers(2.5, 0.55, 0.3, 0.0, 1.2, 0.05, 0.9, 0.9));
    v
}

/// Look up a spec by its Table 9 name.
pub fn spec_by_name(name: &str) -> Option<DatasetSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// The seven datasets used by the paper's Figure 7 bottleneck analysis.
pub fn bottleneck_seven() -> Vec<DatasetSpec> {
    ["blood", "heart", "emotion", "jasmine", "madeline", "EEG", "phoneme"]
        .iter()
        .filter_map(|n| spec_by_name(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table9_shape() {
        let specs = registry();
        assert_eq!(specs.len(), 45);
        let binary = specs.iter().filter(|s| s.classes == 2).count();
        let multi = specs.iter().filter(|s| s.classes > 2).count();
        // Paper: 28 binary + 17 multi-class datasets.
        assert_eq!(binary, 28);
        assert_eq!(multi, 17);
        let max_classes = specs.iter().map(|s| s.classes).max().unwrap();
        assert_eq!(max_classes, 100); // helena
        let max_cols = specs.iter().map(|s| s.cols).max().unwrap();
        assert_eq!(max_cols, 1636); // christine
        let max_rows = specs.iter().map(|s| s.rows).max().unwrap();
        assert_eq!(max_rows, 464_809); // covtype
        let min_rows = specs.iter().map(|s| s.rows).min().unwrap();
        assert_eq!(min_rows, 242); // heart
    }

    #[test]
    fn names_are_unique() {
        let specs = registry();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 45);
    }

    #[test]
    fn generate_scales_rows() {
        let spec = spec_by_name("heart").unwrap();
        let full = spec.generate(1.0);
        assert_eq!(full.n_rows(), 242);
        assert_eq!(full.n_cols(), 13);
        assert_eq!(full.n_classes, 2);
        let half = spec.generate(0.5);
        assert_eq!(half.n_rows(), 121);
    }

    #[test]
    fn generate_is_deterministic_per_name() {
        let a = spec_by_name("wine").unwrap().generate(0.1);
        let b = spec_by_name("wine").unwrap().generate(0.1);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
    }

    #[test]
    fn size_buckets_follow_paper_rules() {
        assert_eq!(spec_by_name("heart").unwrap().size_bucket(), "small");
        assert_eq!(spec_by_name("credit").unwrap().size_bucket(), "medium");
        assert_eq!(spec_by_name("run_or_walk").unwrap().size_bucket(), "large");
        assert!(spec_by_name("christine").unwrap().is_high_dimensional());
        assert!(!spec_by_name("blood").unwrap().is_high_dimensional());
    }

    #[test]
    fn small_scale_keeps_all_classes() {
        let helena = spec_by_name("helena").unwrap();
        let d = helena.generate(0.02);
        assert_eq!(d.n_classes, 100);
        assert!(d.class_counts().iter().all(|&c| c > 0));
    }
}
