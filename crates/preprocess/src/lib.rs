#![warn(missing_docs)]
//! The seven Auto-FP feature preprocessors and pipeline machinery.
//!
//! Implements Definition 1 (feature preprocessor) and Definition 2
//! (feature preprocessing pipeline) of the paper, with the same formulas
//! and default parameters as the scikit-learn implementations the study
//! used (§2.1): `StandardScaler`, `MaxAbsScaler`, `MinMaxScaler`,
//! `Normalizer`, `PowerTransformer` (Yeo-Johnson), `QuantileTransformer`
//! and `Binarizer`.
//!
//! A [`Pipeline`] is fit on training data and then applied to validation
//! data; [`space::ParamSpace`] describes the default and extended
//! (Tables 6-7) parameter search spaces; [`encoding`] turns pipelines
//! into fixed-width vectors for surrogate models.

pub mod artifact;
pub mod encoding;
pub mod enumerate;
pub mod kinds;
pub mod pipeline;
pub mod power;
pub mod preproc;
pub mod quantile;
pub mod space;

pub use kinds::PreprocKind;
pub use pipeline::{FittedPipeline, Pipeline, MAX_STEPS};
pub use power::LambdaMemo;
pub use preproc::{FittedPreproc, Norm, OutputDist, Preproc};
pub use space::ParamSpace;
