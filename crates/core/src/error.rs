//! The evaluation-failure taxonomy.
//!
//! Real AutoML runs hit pathological pipelines constantly — a
//! `PowerTransformer` that maps a heavy-tailed column to infinity, a
//! quantile discretizer handed a single distinct value, a trainer that
//! diverges on unscaled data. Following the scikit-learn
//! `error_score` convention, a failed pipeline is not a crashed run:
//! it is a *worst-error trial* (error = 1.0 per Eq. 2 of the paper)
//! that the searcher sees and steers away from.
//!
//! [`EvalError`] carries the diagnostic detail; [`FailureKind`] is its
//! cheap, copyable discriminant stored on failed [`Trial`]s and
//! tallied by [`FailureStats`].
//!
//! [`Trial`]: crate::history::Trial

use crate::history::TrialHistory;

/// Why a pipeline evaluation failed.
///
/// Each variant corresponds to a distinct fault class observed when
/// running the paper's 7 preprocessors × 3 models over raw tabular
/// data; see the crate-level docs for how each is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A preprocessor turned finite input into NaN/±inf output.
    ///
    /// Only raised when the *input* was finite: datasets that already
    /// contain NaN columns are the trainers' job to tolerate, not an
    /// evaluation failure.
    NonFiniteTransform {
        /// Which stage produced the non-finite values, and where.
        detail: String,
    },
    /// The training matrix is unusable (zero rows or zero columns).
    DegenerateMatrix {
        /// What about the matrix shape is degenerate.
        detail: String,
    },
    /// The trainer produced a non-finite validation score.
    TrainerDiverged {
        /// Which metric was non-finite.
        detail: String,
    },
    /// The evaluation panicked; the panic was caught at the trial
    /// boundary so it costs one trial, not the run.
    Panic {
        /// Best-effort panic payload rendered as text.
        message: String,
    },
    /// The wall-clock budget deadline passed before or during the
    /// evaluation. Unlike the other kinds this is circumstantial, so
    /// it is never cached.
    DeadlineExceeded,
    /// A remote evaluation could not be completed: the worker died,
    /// the connection timed out, or a wire frame was malformed. Like
    /// [`EvalError::DeadlineExceeded`] this is circumstantial (the
    /// pipeline itself is fine), so it is never cached; unlike every
    /// other kind it is retryable.
    Transport {
        /// What failed at the transport layer.
        detail: String,
    },
}

impl EvalError {
    /// The copyable discriminant for this error.
    pub fn kind(&self) -> FailureKind {
        match self {
            EvalError::NonFiniteTransform { .. } => FailureKind::NonFinite,
            EvalError::DegenerateMatrix { .. } => FailureKind::Degenerate,
            EvalError::TrainerDiverged { .. } => FailureKind::Diverged,
            EvalError::Panic { .. } => FailureKind::Panic,
            EvalError::DeadlineExceeded => FailureKind::Deadline,
            EvalError::Transport { .. } => FailureKind::Transport,
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::NonFiniteTransform { detail } => {
                write!(f, "non-finite transform output: {detail}")
            }
            EvalError::DegenerateMatrix { detail } => {
                write!(f, "degenerate training matrix: {detail}")
            }
            EvalError::TrainerDiverged { detail } => {
                write!(f, "trainer diverged: {detail}")
            }
            EvalError::Panic { message } => write!(f, "evaluation panicked: {message}"),
            EvalError::DeadlineExceeded => write!(f, "wall-clock budget deadline exceeded"),
            EvalError::Transport { detail } => write!(f, "transport failure: {detail}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A payload that fails to decode arrived over a transport (a wire
/// frame), so it is a retryable transport fault, not a pipeline fault.
impl From<autofp_linalg::codec::DecodeError> for EvalError {
    fn from(e: autofp_linalg::codec::DecodeError) -> EvalError {
        EvalError::Transport { detail: e.detail }
    }
}

/// The discriminant of an [`EvalError`]: what *kind* of failure a
/// trial suffered, without the diagnostic payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Finite input became NaN/±inf after preprocessing.
    NonFinite,
    /// Training matrix had zero rows or zero columns.
    Degenerate,
    /// Trainer produced a non-finite validation score.
    Diverged,
    /// The evaluation panicked and was caught.
    Panic,
    /// The wall-clock deadline passed.
    Deadline,
    /// A remote evaluation failed at the transport layer (dead worker,
    /// timeout, malformed frame).
    Transport,
}

impl FailureKind {
    /// All kinds, in reporting order.
    pub const ALL: [FailureKind; 6] = [
        FailureKind::NonFinite,
        FailureKind::Degenerate,
        FailureKind::Diverged,
        FailureKind::Panic,
        FailureKind::Deadline,
        FailureKind::Transport,
    ];

    /// Stable short name used in reports and stats tables.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::NonFinite => "non-finite",
            FailureKind::Degenerate => "degenerate",
            FailureKind::Diverged => "diverged",
            FailureKind::Panic => "panic",
            FailureKind::Deadline => "deadline",
            FailureKind::Transport => "transport",
        }
    }

    /// Stable position in [`FailureKind::ALL`] — the wire code the
    /// serve protocol uses for quarantine reasons.
    pub fn index(self) -> usize {
        match self {
            FailureKind::NonFinite => 0,
            FailureKind::Degenerate => 1,
            FailureKind::Diverged => 2,
            FailureKind::Panic => 3,
            FailureKind::Deadline => 4,
            FailureKind::Transport => 5,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-run tally of evaluation failures, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    counts: [u64; FailureKind::ALL.len()],
}

impl FailureStats {
    /// Empty tally.
    pub fn new() -> FailureStats {
        FailureStats::default()
    }

    /// Tally every failed trial in a history.
    pub fn from_history(history: &TrialHistory) -> FailureStats {
        let mut stats = FailureStats::new();
        for trial in history.trials() {
            if let Some(kind) = trial.failure {
                stats.record(kind);
            }
        }
        stats
    }

    /// Count one failure of the given kind.
    pub fn record(&mut self, kind: FailureKind) {
        self.counts[kind.index()] += 1;
    }

    /// Failures of one kind.
    pub fn count(&self, kind: FailureKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Failures of any kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another tally into this one (counts summed per kind).
    /// Used to aggregate per-cell tallies into matrix-level totals.
    pub fn absorb(&mut self, other: &FailureStats) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_variant() {
        let cases: [(EvalError, FailureKind); 6] = [
            (
                EvalError::NonFiniteTransform { detail: "x".into() },
                FailureKind::NonFinite,
            ),
            (
                EvalError::DegenerateMatrix { detail: "x".into() },
                FailureKind::Degenerate,
            ),
            (
                EvalError::TrainerDiverged { detail: "x".into() },
                FailureKind::Diverged,
            ),
            (EvalError::Panic { message: "x".into() }, FailureKind::Panic),
            (EvalError::DeadlineExceeded, FailureKind::Deadline),
            (
                EvalError::Transport { detail: "x".into() },
                FailureKind::Transport,
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn all_kinds_have_unique_names_and_indices() {
        let names: std::collections::HashSet<_> =
            FailureKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FailureKind::ALL.len());
        let indices: std::collections::HashSet<_> =
            FailureKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(indices.len(), FailureKind::ALL.len());
    }

    #[test]
    fn stats_tally_by_kind() {
        let mut s = FailureStats::new();
        s.record(FailureKind::Panic);
        s.record(FailureKind::Panic);
        s.record(FailureKind::Deadline);
        assert_eq!(s.count(FailureKind::Panic), 2);
        assert_eq!(s.count(FailureKind::Deadline), 1);
        assert_eq!(s.count(FailureKind::NonFinite), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn absorb_sums_counts_per_kind() {
        let mut a = FailureStats::new();
        a.record(FailureKind::Panic);
        let mut b = FailureStats::new();
        b.record(FailureKind::Panic);
        b.record(FailureKind::Deadline);
        a.absorb(&b);
        assert_eq!(a.count(FailureKind::Panic), 2);
        assert_eq!(a.count(FailureKind::Deadline), 1);
        assert_eq!(a.total(), 3);
    }
}
