//! The pipeline and trial codec shared by the trial store
//! ([`crate::repo`]) and the `autofp-evald` wire.
//!
//! Both formats carry the same evaluated unit, so they share one
//! encoding of it, built on the workspace byte codec
//! ([`autofp_linalg::codec`], re-exported here):
//!
//! ```text
//! pipeline: [u32 steps] per step: [u8 PreprocKind::index][params]
//!   Binarizer f64 threshold | MaxAbs, MinMax: none | Normalizer u8 Norm::code
//!   Power bool standardize  | Quantile u64 n_quantiles, u8 OutputDist::code
//!   Standard bool with_mean
//! trial: pipeline, f64 accuracy, f64 error, u64 prep nanos,
//!        u64 train nanos, f64 train_fraction,
//!        u8 0 | u8 1 + u8 FailureKind::index
//! ```
//!
//! Golden-bytes tests in both callers pin the layout.

use crate::error::FailureKind;
use crate::history::Trial;
use autofp_preprocess::{Norm, OutputDist, Pipeline, Preproc, PreprocKind, MAX_STEPS};
use std::time::Duration;

pub use autofp_linalg::codec::{Dec, DecodeError, Enc};

/// Append a pipeline (kinds and parameters).
pub fn enc_pipeline(e: &mut Enc, pipeline: &Pipeline) {
    e.u32(pipeline.len() as u32);
    for step in pipeline.steps() {
        e.u8(step.kind().index() as u8);
        match step {
            Preproc::Binarizer { threshold } => e.f64(*threshold),
            Preproc::MaxAbsScaler | Preproc::MinMaxScaler => {}
            Preproc::Normalizer { norm } => e.u8(norm.code()),
            Preproc::PowerTransformer { standardize } => e.bool(*standardize),
            Preproc::QuantileTransformer { n_quantiles, output } => {
                e.u64(*n_quantiles as u64);
                e.u8(output.code());
            }
            Preproc::StandardScaler { with_mean } => e.bool(*with_mean),
        }
    }
}

/// Read a pipeline written by [`enc_pipeline`].
pub fn dec_pipeline(d: &mut Dec) -> Result<Pipeline, DecodeError> {
    let n = d.u32()?;
    if n > MAX_STEPS {
        return Err(DecodeError::new(format!("pipeline of {n} steps exceeds MAX_STEPS")));
    }
    let mut steps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let code = d.u8()? as usize;
        if code >= PreprocKind::ALL.len() {
            return Err(DecodeError::new(format!("bad preprocessor code {code}")));
        }
        let step = match PreprocKind::from_index(code) {
            PreprocKind::Binarizer => Preproc::Binarizer { threshold: d.f64()? },
            PreprocKind::MaxAbsScaler => Preproc::MaxAbsScaler,
            PreprocKind::MinMaxScaler => Preproc::MinMaxScaler,
            PreprocKind::Normalizer => {
                let code = d.u8()?;
                let norm = Norm::from_code(code)
                    .ok_or_else(|| DecodeError::new(format!("bad norm code {code}")))?;
                Preproc::Normalizer { norm }
            }
            PreprocKind::PowerTransformer => Preproc::PowerTransformer { standardize: d.bool()? },
            PreprocKind::QuantileTransformer => {
                let n_quantiles = d.u64()? as usize;
                let code = d.u8()?;
                let output = OutputDist::from_code(code)
                    .ok_or_else(|| DecodeError::new(format!("bad output-dist code {code}")))?;
                Preproc::QuantileTransformer { n_quantiles, output }
            }
            PreprocKind::StandardScaler => Preproc::StandardScaler { with_mean: d.bool()? },
        };
        steps.push(step);
    }
    Ok(Pipeline::new(steps))
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Append a trial: its pipeline, scores, timings and failure kind.
pub fn enc_trial(e: &mut Enc, t: &Trial) {
    enc_pipeline(e, &t.pipeline);
    e.f64(t.accuracy);
    e.f64(t.error);
    e.u64(duration_nanos(t.prep_time));
    e.u64(duration_nanos(t.train_time));
    e.f64(t.train_fraction);
    match t.failure {
        Some(kind) => {
            e.u8(1);
            e.u8(kind.index() as u8);
        }
        None => e.u8(0),
    }
}

/// Read a trial written by [`enc_trial`].
pub fn dec_trial(d: &mut Dec) -> Result<Trial, DecodeError> {
    let pipeline = dec_pipeline(d)?;
    let accuracy = d.f64()?;
    let error = d.f64()?;
    let prep_time = Duration::from_nanos(d.u64()?);
    let train_time = Duration::from_nanos(d.u64()?);
    let train_fraction = d.f64()?;
    let failure = match d.u8()? {
        0 => None,
        1 => Some(dec_failure(d.u8()?)?),
        v => return Err(DecodeError::new(format!("bad failure flag {v}"))),
    };
    Ok(Trial { pipeline, accuracy, error, prep_time, train_time, train_fraction, failure })
}

/// The [`FailureKind`] whose [`FailureKind::index`] is `code`.
pub fn dec_failure(code: u8) -> Result<FailureKind, DecodeError> {
    FailureKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| DecodeError::new(format!("bad failure code {code}")))
}
