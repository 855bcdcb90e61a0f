#![warn(missing_docs)]
//! Tabular dataset substrate for Auto-FP.
//!
//! The original study evaluates on 45 public datasets (AutoML challenge,
//! OpenML, Kaggle — Table 9 of the paper). Those files are not available
//! offline, so this crate provides the substitution documented in
//! DESIGN.md: a synthetic classification-data generator whose knobs map
//! directly onto the properties feature preprocessing interacts with
//! (feature scale spread, skew, heavy tails, sparsity, class separation,
//! label noise), plus a [`registry()`] list of 45 dataset *specs* that mirror the
//! paper's table — same names, column counts, class counts, and
//! (scalable) row counts.

pub mod csv;
pub mod dataset;
pub mod registry;
pub mod synth;

pub use dataset::{Dataset, Split};
pub use registry::{registry, spec_by_name, DatasetSpec};
pub use synth::{Personality, SynthConfig};
