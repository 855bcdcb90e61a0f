//! The self-describing serve artifact: `fit once, serve many`.
//!
//! An artifact file freezes everything needed to reproduce the
//! in-search evaluation of one (pipeline, model) winner on new rows:
//! the dataset/search provenance, the fitted preprocessing parameters,
//! and the trained model weights. The layout is the trial store's
//! (`core::repo`): an 8-byte magic, then records framed by the shared
//! [`autofp_linalg::codec::frame_record`] — length-prefixed and
//! FNV-1a-checksummed —
//!
//! ```text
//! [AFPSERV1][u32 len][meta][u64 fnv1a][u32 len][pipeline][u64 fnv1a]
//!           [u32 len][model][u64 fnv1a]
//! ```
//!
//! Unlike a trial-store segment (an append-only log that tolerates a
//! torn tail), an artifact is written whole: exactly three records in
//! fixed order, and *any* deviation — truncation, checksum mismatch,
//! trailing bytes — is a hard [`ArtifactError::Corrupt`]. Decoding is
//! total (arbitrary bytes never panic) and canonical (decode → encode
//! reproduces the input byte-for-byte).

use autofp_linalg::codec::{frame_record, next_record, Dec, DecodeError, Enc};
use autofp_models::{ModelKind, TrainedModel};
use autofp_preprocess::artifact as preproc_codec;
use autofp_preprocess::FittedPipeline;
use std::fmt;
use std::path::Path;

/// Artifact file magic (format version 1).
pub const MAGIC: [u8; 8] = *b"AFPSERV1";

const REC_META: u8 = 0;
const REC_PIPELINE: u8 = 1;
const REC_MODEL: u8 = 2;

/// An artifact failed to load or decode.
#[derive(Debug)]
pub enum ArtifactError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The bytes are not a valid artifact.
    Corrupt {
        /// What was wrong, for the operator.
        detail: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Corrupt { detail } => write!(f, "corrupt artifact: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> ArtifactError {
        ArtifactError::Corrupt { detail: e.detail }
    }
}

fn corrupt(detail: impl Into<String>) -> ArtifactError {
    ArtifactError::Corrupt { detail: detail.into() }
}

/// Provenance and shape metadata pinned into every artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// Dataset the pipeline+model were fitted on.
    pub dataset: String,
    /// Human-readable pipeline description (`Pipeline::key` form).
    pub pipeline_key: String,
    /// Downstream model family.
    pub model: ModelKind,
    /// Seed the split/subsample/trainer all derived from.
    pub seed: u64,
    /// Train fraction of the stratified split.
    pub train_fraction: f64,
    /// Training-row cap applied before fitting (0 = uncapped).
    pub train_subsample: u64,
    /// Feature arity every served row must match.
    pub n_features: u64,
    /// Number of classes the model predicts over.
    pub n_classes: u64,
    /// Rows the model was trained on (after split + subsample).
    pub train_rows: u64,
    /// Validation accuracy at export time (the in-search number).
    pub accuracy: f64,
}

/// A loaded (or freshly fitted) serve artifact.
pub struct ServeArtifact {
    /// Provenance + shape metadata.
    pub meta: ArtifactMeta,
    /// The fitted preprocessing chain.
    pub pipeline: FittedPipeline,
    /// The trained model.
    pub model: TrainedModel,
}

fn encode_meta(meta: &ArtifactMeta) -> Vec<u8> {
    let mut e = Enc::tagged(REC_META);
    e.string(&meta.dataset);
    e.string(&meta.pipeline_key);
    e.u8(meta.model.code());
    e.u64(meta.seed);
    e.f64(meta.train_fraction);
    e.u64(meta.train_subsample);
    e.u64(meta.n_features);
    e.u64(meta.n_classes);
    e.u64(meta.train_rows);
    e.f64(meta.accuracy);
    e.into_bytes()
}

fn decode_meta(payload: &[u8]) -> Result<ArtifactMeta, ArtifactError> {
    let mut d = Dec::new(payload);
    if d.u8()? != REC_META {
        return Err(corrupt("first record is not the meta record"));
    }
    let dataset = d.string()?;
    let pipeline_key = d.string()?;
    let code = d.u8()?;
    let model =
        ModelKind::from_code(code).ok_or_else(|| corrupt(format!("invalid model code {code}")))?;
    let meta = ArtifactMeta {
        dataset,
        pipeline_key,
        model,
        seed: d.u64()?,
        train_fraction: d.f64()?,
        train_subsample: d.u64()?,
        n_features: d.u64()?,
        n_classes: d.u64()?,
        train_rows: d.u64()?,
        accuracy: d.f64()?,
    };
    d.finish()?;
    Ok(meta)
}

/// The record at `*pos`; an artifact is written whole, so a torn
/// record or a checksum mismatch is corruption, as is a missing one.
fn record<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ArtifactError> {
    match next_record(bytes, pos) {
        Ok(Some(payload)) => Ok(payload),
        Ok(None) => Err(corrupt("missing record")),
        Err(e) => Err(corrupt(e.to_string())),
    }
}

impl ServeArtifact {
    /// Serialize to the canonical artifact bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        frame_record(&mut out, &encode_meta(&self.meta));
        let mut pipeline = vec![REC_PIPELINE];
        pipeline.extend_from_slice(&preproc_codec::encode_pipeline(&self.pipeline));
        frame_record(&mut out, &pipeline);
        let mut model = vec![REC_MODEL];
        model.extend_from_slice(&self.model.encode());
        frame_record(&mut out, &model);
        out
    }

    /// Decode artifact bytes. Total and strict: exactly three
    /// checksummed records in fixed order, no trailing bytes, and the
    /// cross-record invariants (model family and class count match the
    /// meta, every per-column step is fitted on `meta.n_features`
    /// columns) must hold.
    pub fn decode(bytes: &[u8]) -> Result<ServeArtifact, ArtifactError> {
        if !bytes.starts_with(&MAGIC) {
            return Err(corrupt("bad magic (not a serve artifact)"));
        }
        let mut pos = MAGIC.len();
        let meta = decode_meta(record(bytes, &mut pos)?)?;
        let Some((&REC_PIPELINE, pipeline_rec)) = record(bytes, &mut pos)?.split_first() else {
            return Err(corrupt("second record is not the pipeline record"));
        };
        let pipeline = preproc_codec::decode_pipeline(pipeline_rec)?;
        let Some((&REC_MODEL, model_rec)) = record(bytes, &mut pos)?.split_first() else {
            return Err(corrupt("third record is not the model record"));
        };
        let model = TrainedModel::decode(model_rec)?;
        if pos != bytes.len() {
            return Err(corrupt(format!("{} trailing bytes", bytes.len() - pos)));
        }
        if model.kind() != meta.model {
            return Err(corrupt("model record family disagrees with meta"));
        }
        if model.n_classes() as u64 != meta.n_classes {
            return Err(corrupt("model class count disagrees with meta"));
        }
        for step in pipeline.steps() {
            let width = preproc_codec::step_width(step);
            if let Some(width) = width.filter(|&w| w as u64 != meta.n_features) {
                return Err(corrupt(format!(
                    "{} step fitted on {width} columns, meta says {}",
                    preproc_codec::step_kind(step),
                    meta.n_features
                )));
            }
        }
        Ok(ServeArtifact { meta, pipeline, model })
    }

    /// Write the artifact to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Read and decode an artifact file.
    pub fn load(path: impl AsRef<Path>) -> Result<ServeArtifact, ArtifactError> {
        let bytes = std::fs::read(path)?;
        ServeArtifact::decode(&bytes)
    }

    /// Feature arity every served row must match.
    pub fn n_features(&self) -> usize {
        self.meta.n_features as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_core::fnv1a;
    use autofp_data::SynthConfig;
    use autofp_linalg::Matrix;
    use autofp_models::CancelToken;
    use autofp_preprocess::{LambdaMemo, Pipeline, PreprocKind};

    fn sample_artifact(kind: ModelKind) -> ServeArtifact {
        let d = SynthConfig::new("artifact-serve", 90, 4, 2, 5).generate();
        let pipeline = Pipeline::from_kinds(&[
            PreprocKind::StandardScaler,
            PreprocKind::QuantileTransformer,
        ]);
        let (fitted, train_x) = pipeline.fit_transform(&d.x, &LambdaMemo::new());
        let model =
            TrainedModel::train(kind, 3, &train_x, &d.y, d.n_classes, 1.0, &CancelToken::new());
        ServeArtifact {
            meta: ArtifactMeta {
                dataset: "artifact-serve".into(),
                pipeline_key: pipeline.key(),
                model: kind,
                seed: 3,
                train_fraction: 0.8,
                train_subsample: 0,
                n_features: 4,
                n_classes: d.n_classes as u64,
                train_rows: d.x.nrows() as u64,
                accuracy: 0.875,
            },
            pipeline: fitted,
            model,
        }
    }

    #[test]
    fn round_trip_is_byte_stable_for_every_family() {
        for kind in ModelKind::ALL {
            let art = sample_artifact(kind);
            let bytes = art.encode();
            let back = ServeArtifact::decode(&bytes).expect("decode");
            assert_eq!(back.encode(), bytes, "{kind}");
            assert_eq!(back.meta, art.meta, "{kind}");
        }
    }

    #[test]
    fn save_load_round_trips() {
        let art = sample_artifact(ModelKind::Lr);
        let path = std::env::temp_dir()
            .join(format!("autofp-artifact-{}.bin", std::process::id()));
        art.save(&path).expect("save");
        let back = ServeArtifact::load(&path).expect("load");
        assert_eq!(back.encode(), art.encode());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn golden_header_bytes_are_locked() {
        // Magic + the meta record framing are a compatibility surface.
        let art = ServeArtifact {
            meta: ArtifactMeta {
                dataset: "d".into(),
                pipeline_key: "(identity)".into(),
                model: ModelKind::Lr,
                seed: 7,
                train_fraction: 0.8,
                train_subsample: 0,
                n_features: 1,
                n_classes: 2,
                train_rows: 4,
                accuracy: 0.5,
            },
            pipeline: Pipeline::empty().fit_transform(&Matrix::zeros(1, 1), &LambdaMemo::new()).0,
            model: TrainedModel::train(
                ModelKind::Lr,
                7,
                &Matrix::from_vec(4, 1, vec![0.0, 1.0, 0.0, 1.0]),
                &[0, 1, 0, 1],
                2,
                1.0,
                &CancelToken::new(),
            ),
        };
        let bytes = art.encode();
        assert_eq!(&bytes[..8], b"AFPSERV1");
        // Meta payload, transcribed by hand.
        let mut meta = vec![0u8]; // REC_META
        meta.extend_from_slice(&1u32.to_le_bytes());
        meta.extend_from_slice(b"d");
        meta.extend_from_slice(&10u32.to_le_bytes());
        meta.extend_from_slice(b"(identity)");
        meta.push(0); // ModelKind::Lr
        meta.extend_from_slice(&7u64.to_le_bytes());
        meta.extend_from_slice(&0.8f64.to_bits().to_le_bytes());
        meta.extend_from_slice(&0u64.to_le_bytes());
        meta.extend_from_slice(&1u64.to_le_bytes());
        meta.extend_from_slice(&2u64.to_le_bytes());
        meta.extend_from_slice(&4u64.to_le_bytes());
        meta.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        let mut want = Vec::new();
        want.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        want.extend_from_slice(&meta);
        want.extend_from_slice(&fnv1a(&meta).to_le_bytes());
        assert_eq!(&bytes[8..8 + want.len()], &want[..]);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = sample_artifact(ModelKind::Lr).encode();
        for len in 0..bytes.len() {
            assert!(
                ServeArtifact::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ServeArtifact::decode(&trailing).is_err());
    }

    #[test]
    fn byte_flips_never_panic() {
        // LR keeps the artifact small enough to fuzz every position.
        let bytes = sample_artifact(ModelKind::Lr).encode();
        for i in 0..bytes.len() {
            for v in [0u8, 1, 2, 127, 255] {
                let mut m = bytes.clone();
                if m[i] == v {
                    continue;
                }
                m[i] = v;
                let _ = ServeArtifact::decode(&m);
            }
        }
    }

    /// `art`'s bytes with the pipeline record replaced by the single
    /// step `step` writes (tag byte, then its fields), framed as
    /// [`ServeArtifact::encode`] frames it.
    fn with_step(art: &ServeArtifact, step: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut pipeline = Enc::tagged(REC_PIPELINE);
        pipeline.u32(1);
        step(&mut pipeline);
        let mut out = MAGIC.to_vec();
        frame_record(&mut out, &encode_meta(&art.meta));
        frame_record(&mut out, &pipeline.into_bytes());
        let mut model = vec![REC_MODEL];
        model.extend_from_slice(&art.model.encode());
        frame_record(&mut out, &model);
        out
    }

    #[test]
    fn self_contradicting_steps_rejected() {
        // Fitted-step tags (`PreprocKind::index`).
        const BINARIZER: u8 = 0;
        const MAXABS: u8 = 1;
        const MINMAX: u8 = 2;
        const POWER: u8 = 4;
        const QUANTILE: u8 = 5;
        const STANDARD: u8 = 6;
        let art = sample_artifact(ModelKind::Lr);
        assert_eq!(art.meta.n_features, 4);
        let ones: &[f64] = &[1.0; 4];
        let zeros: &[f64] = &[0.0; 4];
        // MaxAbs, MinMax and Standard: the tag, then parameter vectors.
        let vecs = |tag: u8, params: &[&[f64]]| {
            with_step(&art, |e| {
                e.u8(tag);
                params.iter().for_each(|p| e.f64_vec(p));
            })
        };
        let power = |lambdas: &[f64], stds: &[f64]| {
            with_step(&art, |e| {
                e.u8(POWER);
                e.bool(true);
                e.f64_vec(lambdas);
                e.f64_vec(&vec![0.0; lambdas.len()]);
                e.f64_vec(stds);
            })
        };
        let quantile = |refs: &[&[f64]]| {
            with_step(&art, |e| {
                e.u8(QUANTILE);
                e.u8(0);
                e.u32(refs.len() as u32);
                refs.iter().for_each(|r| e.f64_vec(r));
            })
        };
        let binarizer = |threshold: f64| {
            with_step(&art, |e| {
                e.u8(BINARIZER);
                e.f64(threshold);
            })
        };
        let sorted: &[f64] = &[0.0, 1.0, 2.0];

        // Well-formed controls decode, so each case below fails on its
        // one broken rule.
        assert!(ServeArtifact::decode(&vecs(MINMAX, &[zeros, ones])).is_ok());
        assert!(ServeArtifact::decode(&power(ones, ones)).is_ok());
        assert!(ServeArtifact::decode(&quantile(&[sorted; 4])).is_ok());
        assert!(ServeArtifact::decode(&binarizer(0.5)).is_ok());
        // `fit` can leave an ulp of decrease between tied references
        // (see `FittedQuantile::fit`), so an unsorted table is not corrupt.
        let wobble: &[f64] = &[1.7, 1.7000000000000002, 1.7, 1.7];
        assert!(ServeArtifact::decode(&quantile(&[sorted, wobble, sorted, sorted])).is_ok());

        let nan_first: &[f64] = &[f64::NAN, 0.0, 1.0];
        let cases: Vec<(&str, Vec<u8>)> = vec![
            // Per-column parameter vectors must span `n_features`. A
            // 1-column MinMax under 4 features used to decode and then
            // index out of bounds at predict time.
            ("1-column minmax", vecs(MINMAX, &[&[0.0], &[1.0]])),
            ("3-column maxabs", vecs(MAXABS, &[&[1.0; 3]])),
            ("5-column standard", vecs(STANDARD, &[&[0.0; 5], &[1.0; 5]])),
            ("2-column power", power(&[1.0; 2], &[1.0; 2])),
            ("3-column quantile", quantile(&[sorted; 3])),
            // A NaN first reference used to make `partition_point`
            // return 0 for a row below the fitted minimum, and the
            // interpolation then indexed `refs[usize::MAX]`.
            ("NaN quantile reference", quantile(&[nan_first, sorted, sorted, sorted])),
            ("infinite standard mean", vecs(STANDARD, &[&[0.0, f64::INFINITY, 0.0, 0.0], ones])),
            ("NaN power lambda", power(&[1.0, f64::NAN, 1.0, 1.0], ones)),
            ("NaN binarizer threshold", binarizer(f64::NAN)),
            ("zero minmax range", vecs(MINMAX, &[zeros, &[1.0, 0.0, 1.0, 1.0]])),
            ("negative standard std", vecs(STANDARD, &[zeros, &[1.0, 1.0, -1.0, 1.0]])),
            ("zero maxabs scale", vecs(MAXABS, &[&[1.0, 1.0, 1.0, 0.0]])),
            ("zero power std", power(ones, &[1.0, 0.0, 1.0, 1.0])),
        ];
        for (what, bytes) in cases {
            assert!(
                matches!(ServeArtifact::decode(&bytes), Err(ArtifactError::Corrupt { .. })),
                "{what} must be rejected as corrupt"
            );
        }
    }

    #[test]
    fn cross_record_disagreements_rejected() {
        // Meta says MLP but the model record holds an LR: corrupt.
        let mut art = sample_artifact(ModelKind::Lr);
        art.meta.model = ModelKind::Mlp;
        assert!(ServeArtifact::decode(&art.encode()).is_err());
        let mut art = sample_artifact(ModelKind::Lr);
        art.meta.n_classes = 99;
        assert!(ServeArtifact::decode(&art.encode()).is_err());
    }
}
