//! Byte codec for fitted preprocessing state.
//!
//! Serializes a [`FittedPipeline`] — every learned parameter of every
//! step (scaler mins/ranges/means/stds, quantile reference tables,
//! Yeo-Johnson λs) — into a compact, canonical byte payload so a
//! pipeline fitted once during search can be exported and served
//! without refitting (and therefore without training-serving skew).
//!
//! The payload is built from the shared [`autofp_linalg::codec`]
//! primitives (little-endian integers, `f64` as IEEE-754 bit patterns,
//! `u32`-length-prefixed vectors) with one leading tag byte per step
//! (the [`PreprocKind::index`] code). Encoding is canonical —
//! re-encoding a decoded value reproduces the input bytes exactly —
//! and decoding is **total**: arbitrary bytes produce `Ok` or
//! [`DecodeError`], never a panic, unbounded allocation, or an
//! out-of-bounds index in later `transform` calls (structural
//! invariants such as paired vector lengths are enforced here, and so
//! are the value invariants `transform` relies on: finite parameters
//! and positive divisors).

use crate::kinds::PreprocKind;
use crate::pipeline::{FittedPipeline, MAX_STEPS};
use crate::power::FittedPower;
use crate::preproc::{FittedPreproc, Norm, OutputDist};
use crate::quantile::FittedQuantile;
use autofp_linalg::codec::{Dec, DecodeError, Enc};

fn enc_step(e: &mut Enc, step: &FittedPreproc) {
    e.u8(step_kind(step).index() as u8);
    match step {
        FittedPreproc::Binarizer { threshold } => e.f64(*threshold),
        FittedPreproc::MaxAbs { scale } => e.f64_vec(scale),
        FittedPreproc::MinMax { mins, ranges } => {
            e.f64_vec(mins);
            e.f64_vec(ranges);
        }
        FittedPreproc::Normalizer { norm } => e.u8(norm.code()),
        FittedPreproc::Power(p) => {
            e.bool(p.standardize);
            e.f64_vec(&p.lambdas);
            e.f64_vec(&p.means);
            e.f64_vec(&p.stds);
        }
        FittedPreproc::Quantile(q) => {
            e.u8(q.output.code());
            e.u32(q.references.len() as u32);
            for refs in &q.references {
                e.f64_vec(refs);
            }
        }
        FittedPreproc::Standard { means, stds } => {
            e.f64_vec(means);
            e.f64_vec(stds);
        }
    }
}

/// The search-alphabet kind a fitted step was produced by.
pub fn step_kind(step: &FittedPreproc) -> PreprocKind {
    match step {
        FittedPreproc::Binarizer { .. } => PreprocKind::Binarizer,
        FittedPreproc::MaxAbs { .. } => PreprocKind::MaxAbsScaler,
        FittedPreproc::MinMax { .. } => PreprocKind::MinMaxScaler,
        FittedPreproc::Normalizer { .. } => PreprocKind::Normalizer,
        FittedPreproc::Power(_) => PreprocKind::PowerTransformer,
        FittedPreproc::Quantile(_) => PreprocKind::QuantileTransformer,
        FittedPreproc::Standard { .. } => PreprocKind::StandardScaler,
    }
}

/// Number of columns a fitted step carries parameters for; `None` for
/// the column-agnostic steps (Binarizer, Normalizer).
pub fn step_width(step: &FittedPreproc) -> Option<usize> {
    match step {
        FittedPreproc::Binarizer { .. } | FittedPreproc::Normalizer { .. } => None,
        FittedPreproc::MaxAbs { scale } => Some(scale.len()),
        FittedPreproc::MinMax { mins, .. } => Some(mins.len()),
        FittedPreproc::Power(p) => Some(p.lambdas.len()),
        FittedPreproc::Quantile(q) => Some(q.references.len()),
        FittedPreproc::Standard { means, .. } => Some(means.len()),
    }
}

/// A decoded parameter vector that must be finite: a NaN or ±inf
/// parameter would silently poison every value it transforms.
fn finite(d: &mut Dec<'_>, what: &str) -> Result<Vec<f64>, DecodeError> {
    let v = d.f64_vec()?;
    if v.iter().all(|x| x.is_finite()) {
        Ok(v)
    } else {
        Err(DecodeError::new(format!("non-finite {what}")))
    }
}

/// A decoded vector of divisors: finite and strictly positive, as `fit`
/// leaves them (a constant column gets 1, never 0).
fn divisors(d: &mut Dec<'_>, what: &str) -> Result<Vec<f64>, DecodeError> {
    let v = finite(d, what)?;
    if v.iter().all(|&x| x > 0.0) {
        Ok(v)
    } else {
        Err(DecodeError::new(format!("non-positive {what}")))
    }
}

fn dec_step(d: &mut Dec<'_>) -> Result<FittedPreproc, DecodeError> {
    let tag = d.u8()?;
    match tag {
        0 => {
            let threshold = d.f64()?;
            if !threshold.is_finite() {
                return Err(DecodeError::new("non-finite binarizer threshold"));
            }
            Ok(FittedPreproc::Binarizer { threshold })
        }
        1 => Ok(FittedPreproc::MaxAbs { scale: divisors(d, "maxabs scale")? }),
        2 => {
            let mins = finite(d, "minmax mins")?;
            let ranges = divisors(d, "minmax ranges")?;
            if mins.len() != ranges.len() {
                return Err(DecodeError::new("minmax mins/ranges length mismatch"));
            }
            Ok(FittedPreproc::MinMax { mins, ranges })
        }
        3 => {
            let code = d.u8()?;
            let norm = Norm::from_code(code)
                .ok_or_else(|| DecodeError::new(format!("invalid norm code {code}")))?;
            Ok(FittedPreproc::Normalizer { norm })
        }
        4 => {
            let standardize = d.bool()?;
            let lambdas = finite(d, "power lambdas")?;
            let means = finite(d, "power means")?;
            let stds = divisors(d, "power stds")?;
            if means.len() != lambdas.len() || stds.len() != lambdas.len() {
                return Err(DecodeError::new("power lambda/mean/std length mismatch"));
            }
            Ok(FittedPreproc::Power(FittedPower { lambdas, means, stds, standardize }))
        }
        5 => {
            let code = d.u8()?;
            let output = OutputDist::from_code(code)
                .ok_or_else(|| DecodeError::new(format!("invalid output-dist code {code}")))?;
            let cols = d.u32()? as usize;
            // Each column contributes at least a 4-byte length prefix;
            // reject counts the remaining bytes cannot possibly hold.
            if cols > d.remaining() / 4 {
                return Err(DecodeError::new("quantile column count exceeds payload"));
            }
            let mut references = Vec::with_capacity(cols);
            for _ in 0..cols {
                let refs = finite(d, "quantile references")?;
                if refs.len() < 2 {
                    return Err(DecodeError::new("quantile reference table shorter than 2"));
                }
                // A table need not be sorted: `fit` interpolates between
                // tied values and can round one ulp up, so fitted tables
                // may decrease by an ulp. `transform` stays in bounds for
                // any finite table.
                references.push(refs);
            }
            Ok(FittedPreproc::Quantile(FittedQuantile { references, output }))
        }
        6 => {
            let means = finite(d, "standard means")?;
            let stds = divisors(d, "standard stds")?;
            if means.len() != stds.len() {
                return Err(DecodeError::new("standard means/stds length mismatch"));
            }
            Ok(FittedPreproc::Standard { means, stds })
        }
        _ => Err(DecodeError::new(format!("unknown fitted-step tag {tag}"))),
    }
}

/// Encode one fitted step (tag byte + parameters).
pub fn encode_step(step: &FittedPreproc) -> Vec<u8> {
    let mut e = Enc::new();
    enc_step(&mut e, step);
    e.into_bytes()
}

/// Decode one fitted step; rejects trailing bytes.
pub fn decode_step(bytes: &[u8]) -> Result<FittedPreproc, DecodeError> {
    let mut d = Dec::new(bytes);
    let step = dec_step(&mut d)?;
    d.finish()?;
    Ok(step)
}

/// Encode a fitted pipeline: `u32` step count followed by each step.
pub fn encode_pipeline(p: &FittedPipeline) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(p.steps().len() as u32);
    for step in p.steps() {
        enc_step(&mut e, step);
    }
    e.into_bytes()
}

/// Decode a fitted pipeline; total, canonical, rejects trailing bytes.
pub fn decode_pipeline(bytes: &[u8]) -> Result<FittedPipeline, DecodeError> {
    let mut d = Dec::new(bytes);
    let n = d.u32()?;
    if n > MAX_STEPS {
        return Err(DecodeError::new(format!("pipeline of {n} steps exceeds cap {MAX_STEPS}")));
    }
    let mut steps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        steps.push(dec_step(&mut d)?);
    }
    d.finish()?;
    Ok(FittedPipeline::from_steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::power::LambdaMemo;
    use autofp_linalg::Matrix;

    fn train_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![-1.5, 10.0],
            vec![1.0, 100.0],
            vec![2.5, 1000.0],
            vec![4.0, 10000.0],
        ])
    }

    fn fit_all_kinds() -> FittedPipeline {
        let p = Pipeline::from_kinds(&PreprocKind::ALL);
        p.fit_transform(&train_matrix(), &LambdaMemo::new()).0
    }

    #[test]
    fn pipeline_round_trip_is_canonical_and_preserves_transform() {
        let fitted = fit_all_kinds();
        let bytes = encode_pipeline(&fitted);
        let back = decode_pipeline(&bytes).expect("round trip");
        // Canonical: re-encoding reproduces the exact bytes.
        assert_eq!(encode_pipeline(&back), bytes);
        // And the decoded pipeline transforms bit-identically.
        let probe = Matrix::from_rows(&[vec![0.3, 55.5], vec![-2.0, 1e6]]);
        let a = fitted.transform_new(&probe);
        let b = back.transform_new(&probe);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn every_step_shape_round_trips() {
        for kind in PreprocKind::ALL {
            let p = Pipeline::from_kinds(&[kind]);
            let fitted = p.fit_transform(&train_matrix(), &LambdaMemo::new()).0;
            let step = &fitted.steps()[0];
            let bytes = encode_step(step);
            let back = decode_step(&bytes).expect("step round trip");
            assert_eq!(encode_step(&back), bytes, "{kind}");
        }
    }

    #[test]
    fn empty_pipeline_round_trips() {
        let fitted = Pipeline::empty().fit_transform(&train_matrix(), &LambdaMemo::new()).0;
        let bytes = encode_pipeline(&fitted);
        assert_eq!(bytes, vec![0, 0, 0, 0]);
        let back = decode_pipeline(&bytes).expect("empty");
        assert!(back.steps().is_empty());
    }

    #[test]
    fn golden_bytes_are_locked() {
        // Binarizer(0.5) -> Normalizer(L2): the byte layout is part of
        // the artifact contract; changing it requires a format bump.
        let fitted = FittedPipeline::from_steps(vec![
            FittedPreproc::Binarizer { threshold: 0.5 },
            FittedPreproc::Normalizer { norm: Norm::L2 },
        ]);
        let mut expected = vec![2, 0, 0, 0]; // two steps
        expected.push(0); // Binarizer tag
        expected.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        expected.push(3); // Normalizer tag
        expected.push(1); // L2 code
        assert_eq!(encode_pipeline(&fitted), expected);

        // MinMax with explicit parameters.
        let mm = FittedPreproc::MinMax { mins: vec![1.0], ranges: vec![2.0] };
        let mut want = vec![2]; // MinMaxScaler tag
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(encode_step(&mm), want);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_pipeline(&fit_all_kinds());
        for len in 0..bytes.len() {
            assert!(
                decode_pipeline(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_pipeline(&fit_all_kinds());
        bytes.push(0);
        assert!(decode_pipeline(&bytes).is_err());
    }

    #[test]
    fn byte_flips_never_panic_and_stay_structurally_valid() {
        let bytes = encode_pipeline(&fit_all_kinds());
        for i in 0..bytes.len() {
            for v in [0u8, 1, 2, 127, 255] {
                let mut m = bytes.clone();
                if m[i] == v {
                    continue;
                }
                m[i] = v;
                // Total decode: Ok or Err, never a panic. When it does
                // decode, the structural invariants must hold so that a
                // later transform cannot index out of bounds.
                if let Ok(p) = decode_pipeline(&m) {
                    assert!(p.steps().len() <= MAX_STEPS as usize);
                }
            }
        }
    }

    #[test]
    fn structural_violations_rejected() {
        // MinMax with mismatched mins/ranges lengths.
        let mut e = vec![2u8];
        e.extend_from_slice(&1u32.to_le_bytes());
        e.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        e.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_step(&e).is_err());
        // Quantile column with a single reference value.
        let mut q = vec![5u8, 0];
        q.extend_from_slice(&1u32.to_le_bytes());
        q.extend_from_slice(&1u32.to_le_bytes());
        q.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(decode_step(&q).is_err());
        // Oversized step count.
        let mut p = Vec::new();
        p.extend_from_slice(&(MAX_STEPS + 1).to_le_bytes());
        assert!(decode_pipeline(&p).is_err());
    }
}
