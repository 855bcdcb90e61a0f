//! Parameter search spaces (§6 of the paper, Tables 6 and 7).
//!
//! A [`ParamSpace`] lists, for each preprocessor kind, the admissible
//! parameterizations. Three instances matter:
//!
//! * [`ParamSpace::default_space`] — one (scikit-learn-default) variant
//!   per kind; this is the §5 pipeline-search space.
//! * [`ParamSpace::low_cardinality`] — Table 6; 31 variants in total.
//! * [`ParamSpace::high_cardinality`] — Table 7; the
//!   `QuantileTransformer` dominates with ~99% of variants, which is the
//!   property that makes One-step search degenerate (§6.3).

use crate::kinds::PreprocKind;
use crate::pipeline::Pipeline;
use crate::preproc::{Norm, OutputDist, Preproc};
use rand::rngs::StdRng;
use rand::Rng;

/// Admissible parameterizations per preprocessor kind.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// `variants[k]` = parameterizations of `PreprocKind::from_index(k)`.
    variants: [Vec<Preproc>; 7],
    name: &'static str,
}

impl ParamSpace {
    /// The default search space: each kind with scikit-learn defaults.
    pub fn default_space() -> ParamSpace {
        let variants =
            PreprocKind::ALL.map(|k| vec![Preproc::default_for(k)]);
        ParamSpace { variants, name: "default" }
    }

    /// Extended low-cardinality space (Table 6). Max per-parameter
    /// cardinality is 8 (`n_quantiles`); 31 variants in total.
    pub fn low_cardinality() -> ParamSpace {
        let thresholds = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let n_quantiles = [10, 100, 200, 500, 1000, 1200, 1500, 2000];
        ParamSpace {
            variants: [
                thresholds.iter().map(|&t| Preproc::Binarizer { threshold: t }).collect(),
                vec![Preproc::MaxAbsScaler],
                vec![Preproc::MinMaxScaler],
                [Norm::L1, Norm::L2, Norm::Max]
                    .iter()
                    .map(|&n| Preproc::Normalizer { norm: n })
                    .collect(),
                [true, false]
                    .iter()
                    .map(|&s| Preproc::PowerTransformer { standardize: s })
                    .collect(),
                n_quantiles
                    .iter()
                    .flat_map(|&q| {
                        [OutputDist::Uniform, OutputDist::Normal]
                            .into_iter()
                            .map(move |o| Preproc::QuantileTransformer { n_quantiles: q, output: o })
                    })
                    .collect(),
                [true, false]
                    .iter()
                    .map(|&m| Preproc::StandardScaler { with_mean: m })
                    .collect(),
            ],
            name: "low-cardinality",
        }
    }

    /// Extended high-cardinality space (Table 7): `threshold` from 0 to 1
    /// in steps of 0.05 and `n_quantiles` from 10 to 2000 in steps of 1.
    pub fn high_cardinality() -> ParamSpace {
        let thresholds: Vec<Preproc> =
            (0..=20).map(|i| Preproc::Binarizer { threshold: i as f64 * 0.05 }).collect();
        let quantiles: Vec<Preproc> = (10..=2000)
            .flat_map(|q| {
                [OutputDist::Uniform, OutputDist::Normal]
                    .into_iter()
                    .map(move |o| Preproc::QuantileTransformer { n_quantiles: q, output: o })
            })
            .collect();
        ParamSpace {
            variants: [
                thresholds,
                vec![Preproc::MaxAbsScaler],
                vec![Preproc::MinMaxScaler],
                [Norm::L1, Norm::L2, Norm::Max]
                    .iter()
                    .map(|&n| Preproc::Normalizer { norm: n })
                    .collect(),
                [true, false]
                    .iter()
                    .map(|&s| Preproc::PowerTransformer { standardize: s })
                    .collect(),
                quantiles,
                [true, false]
                    .iter()
                    .map(|&m| Preproc::StandardScaler { with_mean: m })
                    .collect(),
            ],
            name: "high-cardinality",
        }
    }

    /// The space a command line names: `default`, `low` (Table 6) or
    /// `high` (Table 7).
    pub fn parse(s: &str) -> Option<ParamSpace> {
        match s {
            "default" => Some(ParamSpace::default_space()),
            "low" => Some(ParamSpace::low_cardinality()),
            "high" => Some(ParamSpace::high_cardinality()),
            _ => None,
        }
    }

    /// A space with exactly one fixed parameterization per kind — the
    /// Two-step strategy's inner pipeline-search space after its random
    /// parameter assignment.
    pub fn fixed_assignment(assignment: [Preproc; 7]) -> ParamSpace {
        for (i, p) in assignment.iter().enumerate() {
            assert_eq!(p.kind(), PreprocKind::from_index(i), "assignment out of order");
        }
        ParamSpace { variants: assignment.map(|p| vec![p]), name: "fixed-assignment" }
    }

    /// Space name for reporting.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Variants of one kind.
    pub fn variants_of(&self, kind: PreprocKind) -> &[Preproc] {
        &self.variants[kind.index()]
    }

    /// Total number of variants across all kinds (the One-step alphabet
    /// size: 7 for default, 31 for Table 6, ~4000 for Table 7).
    pub fn n_variants(&self) -> usize {
        self.variants.iter().map(Vec::len).sum()
    }

    /// Flattened One-step alphabet (every parameterization of every kind
    /// treated as a distinct preprocessor).
    pub fn all_variants(&self) -> Vec<Preproc> {
        self.variants.iter().flatten().cloned().collect()
    }

    /// Uniformly sample one variant of a given kind.
    pub fn sample_variant(&self, kind: PreprocKind, rng: &mut StdRng) -> Preproc {
        let vs = &self.variants[kind.index()];
        vs[rng.gen_range(0..vs.len())].clone()
    }

    /// Sample a parameter assignment: one variant per kind (the Two-step
    /// first phase: "randomly selects the parameter values for each
    /// preprocessor").
    pub fn sample_assignment(&self, rng: &mut StdRng) -> [Preproc; 7] {
        PreprocKind::ALL.map(|k| self.sample_variant(k, rng))
    }

    /// Sample a pipeline uniformly: length uniform in `1..=max_len`, then
    /// each position uniform over the *flattened* alphabet (One-step
    /// semantics; with the default space this is the §5 sampler).
    pub fn sample_pipeline(&self, rng: &mut StdRng, max_len: usize) -> Pipeline {
        let len = rng.gen_range(1..=max_len.max(1));
        let total = self.n_variants();
        let steps = (0..len)
            .map(|_| {
                let mut idx = rng.gen_range(0..total);
                for vs in &self.variants {
                    if idx < vs.len() {
                        return vs[idx].clone();
                    }
                    idx -= vs.len();
                }
                // lint:allow(panic-boundary): gen_range(0..total) < sum of variant lengths, so one bucket always matches
                unreachable!("index within total")
            })
            .collect();
        Pipeline::new(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_linalg::rng::rng_from_seed;

    #[test]
    fn default_space_has_seven_variants() {
        let s = ParamSpace::default_space();
        assert_eq!(s.n_variants(), 7);
        for kind in PreprocKind::ALL {
            assert_eq!(s.variants_of(kind).len(), 1);
            assert_eq!(s.variants_of(kind)[0], Preproc::default_for(kind));
        }
    }

    #[test]
    fn parse_takes_the_three_command_line_names() {
        let name = |s: &str| ParamSpace::parse(s).map(|space| space.name());
        assert_eq!(name("default"), Some("default"));
        assert_eq!(name("low"), Some("low-cardinality"));
        assert_eq!(name("high"), Some("high-cardinality"));
        assert_eq!(name("Low"), None);
        assert_eq!(name("low-cardinality"), None);
    }

    #[test]
    fn low_cardinality_matches_table6() {
        let s = ParamSpace::low_cardinality();
        // Paper: 6 + 1 + 1 + 3 + 2 + 2 + 16 = 31.
        assert_eq!(s.n_variants(), 31);
        assert_eq!(s.variants_of(PreprocKind::Binarizer).len(), 6);
        assert_eq!(s.variants_of(PreprocKind::QuantileTransformer).len(), 16);
        assert_eq!(s.variants_of(PreprocKind::Normalizer).len(), 3);
    }

    #[test]
    fn high_cardinality_is_quantile_dominated() {
        let s = ParamSpace::high_cardinality();
        let q = s.variants_of(PreprocKind::QuantileTransformer).len();
        assert_eq!(q, 1991 * 2);
        // The paper quotes ~99.3% quantile share.
        let share = q as f64 / s.n_variants() as f64;
        assert!(share > 0.99, "share {share}");
        assert_eq!(s.variants_of(PreprocKind::Binarizer).len(), 21);
    }

    #[test]
    fn sample_pipeline_respects_max_len_and_space() {
        let s = ParamSpace::default_space();
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            let p = s.sample_pipeline(&mut rng, 4);
            assert!(!p.is_empty() && p.len() <= 4);
            for step in p.steps() {
                assert_eq!(step, &Preproc::default_for(step.kind()));
            }
        }
    }

    #[test]
    fn one_step_sampling_over_dominated_space_picks_quantiles() {
        // The §6.3 phenomenon: in the high-cardinality space almost every
        // sampled step is a QuantileTransformer.
        let s = ParamSpace::high_cardinality();
        let mut rng = rng_from_seed(2);
        let mut quantile_steps = 0;
        let mut total = 0;
        for _ in 0..300 {
            let p = s.sample_pipeline(&mut rng, 4);
            for step in p.steps() {
                total += 1;
                if step.kind() == PreprocKind::QuantileTransformer {
                    quantile_steps += 1;
                }
            }
        }
        let share = quantile_steps as f64 / total as f64;
        assert!(share > 0.95, "share {share}");
    }

    #[test]
    fn assignment_has_one_variant_per_kind() {
        let s = ParamSpace::low_cardinality();
        let mut rng = rng_from_seed(3);
        let a = s.sample_assignment(&mut rng);
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.kind(), PreprocKind::from_index(i));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = ParamSpace::low_cardinality();
        let a = s.sample_pipeline(&mut rng_from_seed(9), 7);
        let b = s.sample_pipeline(&mut rng_from_seed(9), 7);
        assert_eq!(a, b);
    }
}
