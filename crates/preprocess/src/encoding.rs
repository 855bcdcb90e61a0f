//! Pipeline encodings for surrogate models and policies.
//!
//! Surrogate-model-based search algorithms (SMAC, TPE, Progressive NAS)
//! need a fixed-width numeric representation of a pipeline. It lives
//! here so every algorithm encodes pipelines identically.

use crate::kinds::PreprocKind;
use crate::pipeline::Pipeline;
use crate::preproc::{Norm, OutputDist, Preproc};

/// Features per pipeline position: 7-way kind one-hot + 3 parameter slots.
pub const POSITION_WIDTH: usize = PreprocKind::ALL.len() + 3;

/// Encode a pipeline as a fixed-width vector.
///
/// Layout: `max_len` blocks of [`POSITION_WIDTH`] (kind one-hot, then
/// normalized parameters), followed by a single normalized-length
/// feature. Empty positions are all-zero, so pipelines of every length
/// share one feature space.
pub fn encode_pipeline(p: &Pipeline, max_len: usize) -> Vec<f64> {
    let mut out = vec![0.0; max_len * POSITION_WIDTH + 1];
    for (i, step) in p.steps().iter().enumerate().take(max_len) {
        let base = i * POSITION_WIDTH;
        out[base + step.kind().index()] = 1.0;
        let params = param_features(step);
        out[base + 7..base + 10].copy_from_slice(&params);
    }
    out[max_len * POSITION_WIDTH] = p.len().min(max_len) as f64 / max_len as f64;
    out
}

/// Width of [`encode_pipeline`]'s output for a given `max_len`.
pub fn encoding_width(max_len: usize) -> usize {
    max_len * POSITION_WIDTH + 1
}

/// Three normalized parameter features of a step.
///
/// * slot 0: primary continuous parameter (threshold in `[0,1]`, or
///   `log10(n_quantiles)/log10(2000)`),
/// * slot 1: categorical secondary parameter (norm / output
///   distribution), scaled to `[0,1]`,
/// * slot 2: boolean flag (`with_mean` / `standardize`).
fn param_features(p: &Preproc) -> [f64; 3] {
    match p {
        Preproc::Binarizer { threshold } => [*threshold, 0.0, 0.0],
        Preproc::MaxAbsScaler | Preproc::MinMaxScaler => [0.0, 0.0, 0.0],
        Preproc::Normalizer { norm } => {
            let n = match norm {
                Norm::L1 => 0.0,
                Norm::L2 => 0.5,
                Norm::Max => 1.0,
            };
            [0.0, n, 0.0]
        }
        Preproc::PowerTransformer { standardize } => [0.0, 0.0, *standardize as u8 as f64],
        Preproc::QuantileTransformer { n_quantiles, output } => {
            let q = (*n_quantiles as f64).log10() / 2000f64.log10();
            let o = match output {
                OutputDist::Uniform => 0.0,
                OutputDist::Normal => 1.0,
            };
            [q, o, 0.0]
        }
        Preproc::StandardScaler { with_mean } => [0.0, 0.0, *with_mean as u8 as f64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_consistent() {
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer, PreprocKind::StandardScaler]);
        let e = encode_pipeline(&p, 7);
        assert_eq!(e.len(), encoding_width(7));
        assert_eq!(e.len(), 7 * 10 + 1);
    }

    #[test]
    fn one_hot_positions() {
        let p = Pipeline::from_kinds(&[PreprocKind::Normalizer]);
        let e = encode_pipeline(&p, 3);
        // Position 0: Normalizer has index 3.
        assert_eq!(e[3], 1.0);
        assert_eq!(e[..7].iter().sum::<f64>(), 1.0);
        // Position 1 and 2 are empty.
        assert!(e[10..20].iter().all(|&v| v == 0.0));
        // Length feature = 1/3.
        assert!((e[30] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn parameters_distinguish_variants() {
        let a = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.0 }]);
        let b = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.8 }]);
        assert_ne!(encode_pipeline(&a, 4), encode_pipeline(&b, 4));
        let c = Pipeline::new(vec![Preproc::QuantileTransformer {
            n_quantiles: 10,
            output: OutputDist::Uniform,
        }]);
        let d = Pipeline::new(vec![Preproc::QuantileTransformer {
            n_quantiles: 2000,
            output: OutputDist::Normal,
        }]);
        assert_ne!(encode_pipeline(&c, 4), encode_pipeline(&d, 4));
    }

    #[test]
    fn overlong_pipelines_truncate() {
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer; 10]);
        let e = encode_pipeline(&p, 4);
        assert_eq!(e.len(), encoding_width(4));
        assert_eq!(*e.last().unwrap(), 1.0);
    }
}
