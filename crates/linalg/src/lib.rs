#![warn(missing_docs)]
//! Dense linear algebra and statistics kernel for the Auto-FP workspace.
//!
//! The Auto-FP study leans on NumPy/SciPy for its numeric substrate; this
//! crate is the from-scratch Rust replacement. It deliberately stays small:
//! a row-major [`Matrix`], descriptive statistics ([`stats`]), probability
//! helpers ([`dist`]), principal component analysis ([`pca`]), seeded
//! randomness utilities ([`rng`]) and the one Adam optimizer ([`adam`]). Everything downstream (preprocessors,
//! models, surrogates, meta-features) is built on these primitives,
//! every byte format in the workspace is built on [`codec`], and both
//! digest-keyed memos on [`memo`].

pub mod adam;
pub mod codec;
pub mod dist;
pub mod matrix;
pub mod memo;
pub mod pca;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
