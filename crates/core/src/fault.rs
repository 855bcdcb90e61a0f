//! Deterministic fault injection for resilience testing.
//!
//! [`FaultInjector`] wraps any [`Evaluate`] implementation and makes a
//! configurable fraction of evaluations fail — by returned
//! [`EvalError`], by deliberate panic, or after an injected delay —
//! so the fault-tolerance machinery (panic shielding, worst-error
//! trials, failure accounting) can be exercised end to end.
//!
//! Determinism is the point: whether a given evaluation faults is a
//! pure function of (injector seed, pipeline identity, training
//! fraction), **not** of call order, thread scheduling, or wall
//! clock. A search run over a fault-injecting evaluator therefore
//! produces bit-identical trial histories at any worker thread count,
//! which is exactly what the resilience suite asserts.

use autofp_linalg::codec::fnv1a;
use crate::error::EvalError;
use crate::evaluator::{Evaluate, EvalConfig};
use crate::history::Trial;
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::time::Duration;

/// Panic payload used by injected panics.
///
/// Public so test harnesses can install a panic hook that silences
/// exactly these (expected) panics while leaving real ones loud:
///
/// ```ignore
/// let prev = std::panic::take_hook();
/// std::panic::set_hook(Box::new(move |info| {
///     if info.payload().downcast_ref::<InjectedPanic>().is_none() {
///         prev(info);
///     }
/// }));
/// ```
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The pipeline whose evaluation was made to panic.
    pub pipeline_key: String,
}

/// What mix of faults a [`FaultInjector`] produces.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Fraction of evaluations that fault, in `[0, 1]`.
    pub failure_rate: f64,
    /// Relative weight of deliberate panics among faults.
    pub panic_weight: f64,
    /// Relative weight of returned [`EvalError`]s among faults.
    pub error_weight: f64,
    /// Relative weight of injected delays among faults. A delay sleeps
    /// [`FaultConfig::delay`] and then evaluates normally — it slows a
    /// worker without failing the trial (deadline pressure).
    pub delay_weight: f64,
    /// How long an injected delay sleeps.
    pub delay: Duration,
    /// Seed decorrelating fault patterns across injectors.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            failure_rate: 0.1,
            panic_weight: 1.0,
            error_weight: 1.0,
            delay_weight: 1.0,
            delay: Duration::from_millis(1),
            seed: 0,
        }
    }
}

/// The three fault modes an injector can pick for an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    Panic,
    Error,
    Delay,
}

/// An [`Evaluate`] decorator that deterministically injects faults.
///
/// Wraps the inner evaluator by reference; everything not faulted is
/// delegated unchanged, so baseline/config/cache-key behavior is the
/// inner evaluator's.
pub struct FaultInjector<'a> {
    inner: &'a dyn Evaluate,
    config: FaultConfig,
}

impl<'a> FaultInjector<'a> {
    /// Wrap `inner`, faulting per `config`.
    pub fn new(inner: &'a dyn Evaluate, config: FaultConfig) -> FaultInjector<'a> {
        FaultInjector { inner, config }
    }

    /// The fault decision for one evaluation: a pure hash of
    /// (seed, pipeline key, fraction bits). Returns `None` for a clean
    /// evaluation.
    fn decide(&self, pipeline: &Pipeline, fraction: f64) -> Option<FaultMode> {
        let rate = self.config.failure_rate.clamp(0.0, 1.0);
        if rate <= 0.0 {
            return None;
        }
        let ident = format!(
            "fault;seed={};frac={};p={}",
            self.config.seed,
            fraction.clamp(0.0, 1.0).to_bits(),
            pipeline.key()
        );
        let h = fnv1a(ident.as_bytes());
        // Top 53 bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= rate {
            return None;
        }
        let total =
            self.config.panic_weight + self.config.error_weight + self.config.delay_weight;
        if total <= 0.0 {
            return None;
        }
        // Second, independent uniform draw for the mode.
        let h2 = fnv1a(format!("mode;{ident}").as_bytes());
        let v = ((h2 >> 11) as f64 / (1u64 << 53) as f64) * total;
        if v < self.config.panic_weight {
            Some(FaultMode::Panic)
        } else if v < self.config.panic_weight + self.config.error_weight {
            Some(FaultMode::Error)
        } else {
            Some(FaultMode::Delay)
        }
    }

    /// Which error an `Error`-mode fault returns: cycles through the
    /// deterministic kinds by pipeline hash.
    fn injected_error(&self, pipeline: &Pipeline) -> EvalError {
        let h = fnv1a(format!("errkind;{};{}", self.config.seed, pipeline.key()).as_bytes());
        match h % 3 {
            0 => EvalError::NonFiniteTransform {
                detail: format!("injected for `{}`", pipeline.key()),
            },
            1 => EvalError::DegenerateMatrix {
                detail: format!("injected for `{}`", pipeline.key()),
            },
            _ => EvalError::TrainerDiverged {
                detail: format!("injected for `{}`", pipeline.key()),
            },
        }
    }
}

impl Evaluate for FaultInjector<'_> {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        match self.decide(pipeline, fraction) {
            Some(FaultMode::Panic) => std::panic::panic_any(InjectedPanic {
                pipeline_key: pipeline.key(),
            }),
            Some(FaultMode::Error) => Err(self.injected_error(pipeline)),
            Some(FaultMode::Delay) => {
                std::thread::sleep(self.config.delay);
                self.inner.evaluate_raw(pipeline, fraction, cancel)
            }
            None => self.inner.evaluate_raw(pipeline, fraction, cancel),
        }
    }

    fn config(&self) -> &EvalConfig {
        self.inner.config()
    }

    fn baseline_accuracy(&self) -> f64 {
        self.inner.baseline_accuracy()
    }

    fn train_rows(&self) -> usize {
        self.inner.train_rows()
    }

    fn prefix_stats(&self) -> Option<crate::prefix::PrefixStats> {
        self.inner.prefix_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;
    use crate::evaluator::{EvalConfig, Evaluator};
    use autofp_data::SynthConfig;
    use autofp_preprocess::PreprocKind;

    fn evaluator() -> Evaluator {
        let d = SynthConfig::new("fault-ds", 160, 5, 2, 11).generate();
        Evaluator::new(&d, EvalConfig::default())
    }

    fn all_pipelines() -> Vec<Pipeline> {
        let mut out = vec![Pipeline::empty()];
        for a in PreprocKind::ALL {
            out.push(Pipeline::from_kinds(&[a]));
            for b in PreprocKind::ALL {
                out.push(Pipeline::from_kinds(&[a, b]));
            }
        }
        out
    }

    /// Replace the panic hook with one that stays quiet for
    /// [`InjectedPanic`] payloads, for the duration of `f`.
    fn with_quiet_injected_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                eprintln!("unexpected panic: {info}");
            }
        }));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn zero_rate_is_transparent() {
        let ev = evaluator();
        let inj =
            FaultInjector::new(&ev, FaultConfig { failure_rate: 0.0, ..FaultConfig::default() });
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let a = inj.try_evaluate(&p).expect("clean");
        let b = ev.try_evaluate(&p).expect("clean");
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(inj.baseline_accuracy(), ev.baseline_accuracy());
        assert_eq!(inj.train_rows(), ev.train_rows());
    }

    #[test]
    fn fault_decisions_are_deterministic_and_rate_plausible() {
        let ev = evaluator();
        let cfg = FaultConfig { failure_rate: 0.3, seed: 5, ..FaultConfig::default() };
        let inj = FaultInjector::new(&ev, cfg.clone());
        let pipelines = all_pipelines();
        let first: Vec<_> =
            pipelines.iter().map(|p| inj.decide(p, 1.0)).collect();
        let second: Vec<_> =
            pipelines.iter().map(|p| inj.decide(p, 1.0)).collect();
        assert_eq!(first, second, "decisions must not depend on call order");
        let faults = first.iter().flatten().count();
        // 0.3 of 57 pipelines ≈ 17; allow a generous band.
        assert!((5..=30).contains(&faults), "fault count {faults}");
        // A different seed produces a different pattern.
        let other = FaultInjector::new(&ev, FaultConfig { seed: 6, ..cfg });
        let third: Vec<_> = pipelines.iter().map(|p| other.decide(p, 1.0)).collect();
        assert_ne!(first, third);
    }

    #[test]
    fn injected_panics_are_contained_by_try_evaluate() {
        let ev = evaluator();
        // Panic-only mix so every fault is a panic.
        let cfg = FaultConfig {
            failure_rate: 1.0,
            panic_weight: 1.0,
            error_weight: 0.0,
            delay_weight: 0.0,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(&ev, cfg);
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let err = with_quiet_injected_panics(|| inj.try_evaluate(&p).unwrap_err());
        assert_eq!(err.kind(), FailureKind::Panic);
    }

    #[test]
    fn error_mode_returns_deterministic_error_kinds() {
        let ev = evaluator();
        let cfg = FaultConfig {
            failure_rate: 1.0,
            panic_weight: 0.0,
            error_weight: 1.0,
            delay_weight: 0.0,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(&ev, cfg);
        let mut kinds = std::collections::HashSet::new();
        for p in all_pipelines() {
            let err = inj.try_evaluate(&p).unwrap_err();
            assert_ne!(err.kind(), FailureKind::Panic);
            assert_ne!(err.kind(), FailureKind::Deadline);
            kinds.insert(err.kind());
            // Same pipeline, same error.
            assert_eq!(inj.try_evaluate(&p).unwrap_err(), err);
        }
        assert!(kinds.len() >= 2, "error kinds should vary: {kinds:?}");
    }

    #[test]
    fn delay_mode_still_returns_a_real_trial() {
        let ev = evaluator();
        let cfg = FaultConfig {
            failure_rate: 1.0,
            panic_weight: 0.0,
            error_weight: 0.0,
            delay_weight: 1.0,
            delay: Duration::from_millis(2),
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(&ev, cfg);
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let t = inj.try_evaluate(&p).expect("delayed but successful");
        assert!(t.accuracy.is_finite());
        assert!(t.failure.is_none());
    }
}
