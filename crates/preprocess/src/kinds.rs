//! The preprocessor alphabet: the seven kinds of §2.1.

use std::fmt;

/// The seven widely-used preprocessor families the paper searches over.
///
/// A `PreprocKind` is the *search alphabet* symbol; a
/// [`crate::Preproc`] is a kind plus concrete parameter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PreprocKind {
    /// Threshold values to {0, 1}.
    Binarizer,
    /// Scale each column by its maximum absolute value.
    MaxAbsScaler,
    /// Scale each column to [0, 1].
    MinMaxScaler,
    /// Scale each *row* to unit norm.
    Normalizer,
    /// Yeo-Johnson power transform toward normality.
    PowerTransformer,
    /// Map each column onto its empirical quantiles.
    QuantileTransformer,
    /// Zero-mean, unit-variance standardization.
    StandardScaler,
}

impl PreprocKind {
    /// All seven kinds, in a fixed canonical order.
    pub const ALL: [PreprocKind; 7] = [
        PreprocKind::Binarizer,
        PreprocKind::MaxAbsScaler,
        PreprocKind::MinMaxScaler,
        PreprocKind::Normalizer,
        PreprocKind::PowerTransformer,
        PreprocKind::QuantileTransformer,
        PreprocKind::StandardScaler,
    ];

    /// Canonical index in `ALL` (used by encodings and policies). The
    /// match is total, so it can never disagree with `ALL` without a
    /// compile error here or in the roundtrip unit test.
    pub fn index(self) -> usize {
        match self {
            PreprocKind::Binarizer => 0,
            PreprocKind::MaxAbsScaler => 1,
            PreprocKind::MinMaxScaler => 2,
            PreprocKind::Normalizer => 3,
            PreprocKind::PowerTransformer => 4,
            PreprocKind::QuantileTransformer => 5,
            PreprocKind::StandardScaler => 6,
        }
    }

    /// Inverse of [`PreprocKind::index`].
    pub fn from_index(i: usize) -> PreprocKind {
        Self::ALL[i]
    }

    /// Parse a display name (case-insensitive), as `autofp
    /// preprocessors` lists them.
    pub fn parse(s: &str) -> Option<PreprocKind> {
        Self::ALL.iter().copied().find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PreprocKind::Binarizer => "Binarizer",
            PreprocKind::MaxAbsScaler => "MaxAbsScaler",
            PreprocKind::MinMaxScaler => "MinMaxScaler",
            PreprocKind::Normalizer => "Normalizer",
            PreprocKind::PowerTransformer => "PowerTransformer",
            PreprocKind::QuantileTransformer => "QuantileTransformer",
            PreprocKind::StandardScaler => "StandardScaler",
        }
    }
}

impl fmt::Display for PreprocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, k) in PreprocKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(PreprocKind::from_index(i), *k);
            assert_eq!(PreprocKind::parse(&k.name().to_lowercase()), Some(*k));
        }
        assert_eq!(PreprocKind::parse("Imputer"), None);
    }

    #[test]
    fn seven_kinds() {
        assert_eq!(PreprocKind::ALL.len(), 7);
        assert_eq!(PreprocKind::StandardScaler.to_string(), "StandardScaler");
    }
}
