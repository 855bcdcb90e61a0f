#![warn(missing_docs)]
//! Surrogate models powering the surrogate-model-based, RL-based and
//! bandit-based Auto-FP search algorithms (§4.1 of the paper).
//!
//! * [`rf::RandomForestRegressor`] — SMAC's random-forest surrogate.
//! * [`tpe::CategoricalTpe`] — the Parzen-estimator machinery of TPE and
//!   BOHB, specialized to the categorical pipeline space.
//! * [`mlp_reg::MlpRegressor`] (+ ensembles) — Progressive NAS with MLP
//!   surrogates (PMNE/PME).
//! * [`lstm::LstmRegressor`] (+ ensembles) — Progressive NAS with LSTM
//!   surrogates (PLNE/PLE).
//! * [`lstm::SequencePolicy`] — the LSTM controller used by ENAS.
//!
//! All gradient-trained surrogates share the [`autofp_linalg::adam`]
//! optimizer and take explicit seeds.
//!
//! Module-to-paper map:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`rf`] | §4.1.2 SMAC's random-forest surrogate |
//! | [`tpe`] | §4.1.2 TPE / §4.1.5 BOHB density models |
//! | [`mlp_reg`] | §4.1.2 PNAS with MLP surrogates (PMNE, PME) |
//! | [`lstm`] | §4.1.2 PNAS with LSTM surrogates (PLNE, PLE); §4.1.4 ENAS controller |

pub mod lstm;
pub mod mlp_reg;
pub mod rf;
pub mod tpe;

pub use lstm::{LstmRegressor, SequencePolicy};
pub use mlp_reg::MlpRegressor;
pub use rf::RandomForestRegressor;
pub use tpe::CategoricalTpe;
