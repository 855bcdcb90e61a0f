//! Shared pipeline mutation and token encoding/decoding helpers.
//!
//! Evolution-based algorithms mutate pipelines; surrogate algorithms
//! translate between [`Pipeline`]s and flat variant-token sequences over
//! a [`ParamSpace`]'s One-step alphabet.

use autofp_preprocess::{ParamSpace, Pipeline, Preproc};
use rand::rngs::StdRng;
use rand::Rng;

/// The flattened variant alphabet of a space, with token lookup.
pub struct Alphabet {
    variants: Vec<Preproc>,
}

impl Alphabet {
    /// Flatten a space's variants into an alphabet.
    pub fn new(space: &ParamSpace) -> Alphabet {
        Alphabet { variants: space.all_variants() }
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// True for an empty alphabet (never happens for real spaces).
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Variant for a token.
    pub fn variant(&self, token: usize) -> &Preproc {
        &self.variants[token.min(self.variants.len() - 1)]
    }

    /// Token of a variant (linear scan; alphabets are small except the
    /// high-cardinality space, where searches carry tokens alongside
    /// pipelines instead of calling this).
    pub fn token_of(&self, p: &Preproc) -> Option<usize> {
        self.variants.iter().position(|v| v == p)
    }

    /// Decode a token sequence into a pipeline.
    pub fn decode(&self, tokens: &[usize]) -> Pipeline {
        Pipeline::new(tokens.iter().map(|&t| self.variant(t).clone()).collect())
    }

    /// Encode a pipeline into tokens (None if a step is outside the
    /// alphabet).
    pub fn encode(&self, p: &Pipeline) -> Option<Vec<usize>> {
        p.steps().iter().map(|s| self.token_of(s)).collect()
    }
}

/// Mutate a pipeline: replace a random step, insert a step, or drop a
/// step (respecting `1..=max_len`). The three operators are the standard
/// chain-structure NAS mutations used by regularized evolution.
pub fn mutate(p: &Pipeline, space: &ParamSpace, max_len: usize, rng: &mut StdRng) -> Pipeline {
    let mut out = p.clone();
    let len = out.len();
    let op = if len <= 1 {
        // Cannot drop below one step.
        if len < max_len { rng.gen_range(0..2) } else { 0 }
    } else if len >= max_len {
        // Cannot grow.
        if rng.gen_bool(0.5) { 0 } else { 2 }
    } else {
        rng.gen_range(0..3)
    };
    let all = space.all_variants();
    match op {
        0 => {
            // Replace a random position.
            let pos = rng.gen_range(0..len.max(1));
            let v = all[rng.gen_range(0..all.len())].clone();
            if len == 0 {
                out.push(v);
            } else {
                out.set_step(pos, v);
            }
        }
        1 => {
            // Insert at a random position.
            let pos = rng.gen_range(0..=len);
            let v = all[rng.gen_range(0..all.len())].clone();
            let mut steps = out.steps().to_vec();
            steps.insert(pos, v);
            out = Pipeline::new(steps);
        }
        _ => {
            // Remove a random position.
            let pos = rng.gen_range(0..len);
            let mut steps = out.steps().to_vec();
            steps.remove(pos);
            out = Pipeline::new(steps);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_linalg::rng::rng_from_seed;
    use autofp_preprocess::PreprocKind;

    #[test]
    fn alphabet_roundtrip() {
        let space = ParamSpace::default_space();
        let alpha = Alphabet::new(&space);
        assert_eq!(alpha.len(), 7);
        let p = Pipeline::from_kinds(&[PreprocKind::Normalizer, PreprocKind::Binarizer]);
        let tokens = alpha.encode(&p).unwrap();
        assert_eq!(alpha.decode(&tokens), p);
    }

    #[test]
    fn mutation_stays_in_bounds() {
        let space = ParamSpace::default_space();
        let mut rng = rng_from_seed(3);
        let mut p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        for _ in 0..500 {
            p = mutate(&p, &space, 4, &mut rng);
            assert!(!p.is_empty() && p.len() <= 4, "{p}");
        }
    }

    #[test]
    fn mutation_changes_something_usually() {
        let space = ParamSpace::low_cardinality();
        let mut rng = rng_from_seed(5);
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer, PreprocKind::Normalizer]);
        let mut changed = 0;
        for _ in 0..100 {
            if mutate(&p, &space, 7, &mut rng).key() != p.key() {
                changed += 1;
            }
        }
        assert!(changed > 80, "changed {changed}/100");
    }

    #[test]
    fn encode_rejects_foreign_variants() {
        let space = ParamSpace::default_space();
        let alpha = Alphabet::new(&space);
        let p = Pipeline::new(vec![Preproc::Binarizer { threshold: 0.4 }]);
        assert!(alpha.encode(&p).is_none());
    }
}
