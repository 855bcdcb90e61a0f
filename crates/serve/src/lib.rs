//! Fit-once / serve-many inference for Auto-FP winners.
//!
//! A search finds a (pipeline, model) winner; this crate freezes that
//! winner into a self-describing artifact file and serves it:
//!
//! - [`artifact`]: the `AFPSERV1` on-disk format — fitted preprocessing
//!   parameters + trained model weights, length-prefixed and
//!   FNV-1a-checksummed, with total + canonical decoding.
//! - [`export`]: [`export::fit_artifact`] refits the winner exactly the
//!   way the in-search [`autofp_core::Evaluator`] does, so serving has
//!   zero train/serve skew (pinned bit-for-bit by the test suite).
//! - [`engine`]: batched row prediction with a malformed-row quarantine
//!   path (arity mismatch → `degenerate`, NaN/±inf → `non-finite`) and
//!   thread-count-invariant chunked parallelism.
//! - [`wire`] / [`server`] / [`client`]: a `Predict`/`PredictAck`
//!   protocol over the evald frame format, its handler on the worker
//!   daemon's frame server (same shutdown/robustness semantics), and a
//!   blocking client for the CLI and tests.

#![warn(missing_docs)]

pub mod artifact;
pub mod client;
pub mod engine;
pub mod export;
pub mod server;
pub mod wire;

pub use artifact::{ArtifactError, ArtifactMeta, ServeArtifact};
pub use client::ServeClient;
pub use engine::{parse_feature_rows, BatchReport, EngineStats, RowOutcome, ServeEngine};
pub use export::fit_artifact;
pub use server::ServeServer;
pub use wire::{ServeInfo, ServeRequest, ServeResponse};
