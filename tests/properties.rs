//! Randomized property tests on the core invariants: preprocessor
//! output ranges, pipeline totality, mutation bounds, metric ranges and
//! rank consistency — over seeded random (finite) data.
//!
//! The original suite used `proptest`; the offline build environment
//! cannot fetch it, so each property is exercised over a fixed number of
//! deterministically seeded random cases instead. Shrinking is lost,
//! but every case is reproducible from its printed seed.

use autofp::linalg::rng::rng_from_seed;
use autofp::linalg::stats::average_ranks;
use autofp::linalg::Matrix;
use autofp::models::metrics::{accuracy, auc_binary};
use autofp::preprocess::{LambdaMemo, ParamSpace, Pipeline, Preproc, PreprocKind};
use rand::rngs::StdRng;
use rand::Rng;

const CASES: u64 = 64;

/// A small matrix of finite floats in a bounded range.
fn small_matrix(rng: &mut StdRng) -> Matrix {
    let rows = rng.gen_range(2..12usize);
    let cols = rng.gen_range(1..6usize);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1e6..1e6)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// A pipeline of up to 4 default-parameter steps.
fn small_pipeline(rng: &mut StdRng) -> Pipeline {
    let len = rng.gen_range(1..5usize);
    let kinds: Vec<PreprocKind> =
        (0..len).map(|_| PreprocKind::from_index(rng.gen_range(0..7usize))).collect();
    Pipeline::from_kinds(&kinds)
}

/// Run `body` over `CASES` deterministically seeded cases.
fn for_cases(test_seed: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = autofp::linalg::rng::derive_seed(test_seed, case);
        let mut rng = rng_from_seed(seed);
        body(&mut rng);
    }
}

#[test]
fn any_pipeline_on_any_data_stays_finite() {
    for_cases(0xA1, |rng| {
        let x = small_matrix(rng);
        let p = small_pipeline(rng);
        let (fitted, train_out) = p.fit_transform(&x, &LambdaMemo::new());
        assert!(train_out.is_finite(), "train output not finite for {p}");
        assert_eq!(train_out.shape(), x.shape());
        // Transforming fresh data through the fitted chain also stays finite.
        let mut other = x.clone();
        other.map_inplace(|v| v * 0.5 + 1.0);
        fitted.transform(&mut other);
        assert!(other.is_finite(), "valid output not finite for {p}");
    });
}

#[test]
fn minmax_maps_training_data_into_unit_interval() {
    for_cases(0xA2, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::MinMaxScaler.fit(&x, &LambdaMemo::new()).transform(&mut m);
        for &v in m.as_slice() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v), "minmax value {v}");
        }
    });
}

#[test]
fn maxabs_maps_training_data_into_unit_ball() {
    for_cases(0xA3, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::MaxAbsScaler.fit(&x, &LambdaMemo::new()).transform(&mut m);
        for &v in m.as_slice() {
            assert!(v.abs() <= 1.0 + 1e-9, "maxabs value {v}");
        }
    });
}

#[test]
fn binarizer_outputs_zero_or_one() {
    for_cases(0xA4, |rng| {
        let x = small_matrix(rng);
        let threshold = rng.gen_range(-10.0..10.0);
        let mut m = x.clone();
        Preproc::Binarizer { threshold }.fit(&x, &LambdaMemo::new()).transform(&mut m);
        for &v in m.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
    });
}

#[test]
fn normalizer_rows_have_unit_norm_or_zero() {
    for_cases(0xA5, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::default_for(PreprocKind::Normalizer).fit(&x, &LambdaMemo::new()).transform(&mut m);
        for row in m.rows_iter() {
            let n = autofp::linalg::matrix::norm_l2(row);
            assert!(n < 1e-9 || (n - 1.0).abs() < 1e-9, "row norm {n}");
        }
    });
}

#[test]
fn quantile_uniform_output_in_unit_interval() {
    for_cases(0xA6, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::default_for(PreprocKind::QuantileTransformer).fit(&x, &LambdaMemo::new()).transform(&mut m);
        for &v in m.as_slice() {
            assert!((0.0..=1.0).contains(&v), "quantile value {v}");
        }
    });
}

#[test]
fn standard_scaler_train_columns_are_standardized() {
    for_cases(0xA7, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::StandardScaler { with_mean: true }.fit(&x, &LambdaMemo::new()).transform(&mut m);
        for j in 0..m.ncols() {
            let col = m.col(j);
            let mean = autofp::linalg::stats::mean(&col);
            let std = autofp::linalg::stats::std_dev(&col);
            assert!(mean.abs() < 1e-6, "col mean {mean}");
            // Constant columns keep std 0; others become ~1.
            assert!(std < 1e-9 || (std - 1.0).abs() < 1e-6, "col std {std}");
        }
    });
}

#[test]
fn power_transform_is_monotone_per_column() {
    for_cases(0xA8, |rng| {
        let x = small_matrix(rng);
        let fitted = Preproc::PowerTransformer { standardize: false }.fit(&x, &LambdaMemo::new());
        let mut m = x.clone();
        fitted.transform(&mut m);
        for j in 0..x.ncols() {
            let orig = x.col(j);
            let out = m.col(j);
            let mut pairs: Vec<(f64, f64)> = orig.into_iter().zip(out).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in pairs.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "non-monotone in column {j}");
            }
        }
    });
}

#[test]
fn mutation_preserves_length_bounds() {
    for_cases(0xA9, |rng| {
        let len = rng.gen_range(1..7usize);
        let kinds: Vec<PreprocKind> =
            (0..len).map(|_| PreprocKind::from_index(rng.gen_range(0..7usize))).collect();
        let p = Pipeline::from_kinds(&kinds);
        let space = ParamSpace::default_space();
        let seed = rng.gen_range(0..1000u64);
        let mut mrng = rng_from_seed(seed);
        let m = autofp::search::mutation::mutate(&p, &space, 7, &mut mrng);
        assert!(!m.is_empty() && m.len() <= 7);
    });
}

#[test]
fn accuracy_is_bounded_and_complements_error() {
    for_cases(0xAA, |rng| {
        let n = rng.gen_range(1..40usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let preds: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let acc = accuracy(&labels, &preds);
        assert!((0.0..=1.0).contains(&acc));
        let err = autofp::models::metrics::error_rate(&labels, &preds);
        assert!((acc + err - 1.0).abs() < 1e-12);
    });
}

#[test]
fn auc_is_invariant_to_monotone_score_transforms() {
    for_cases(0xAB, |rng| {
        let n = rng.gen_range(4..30usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let a1 = auc_binary(&labels, &scores);
        let transformed: Vec<f64> = scores.iter().map(|s| s.exp().min(1e300)).collect();
        let a2 = auc_binary(&labels, &transformed);
        assert!((a1 - a2).abs() < 1e-9, "{a1} vs {a2}");
    });
}

#[test]
fn ranks_sum_is_invariant() {
    for_cases(0xAC, |rng| {
        let n = rng.gen_range(1..20usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let ranks = average_ranks(&values);
        let n = values.len() as f64;
        let expected = n * (n + 1.0) / 2.0;
        assert!((ranks.iter().sum::<f64>() - expected).abs() < 1e-9);
    });
}

#[test]
fn pipeline_encoding_width_is_stable() {
    for_cases(0xAD, |rng| {
        let p = small_pipeline(rng);
        let max_len = rng.gen_range(4..9usize);
        let e = autofp::preprocess::encoding::encode_pipeline(&p, max_len);
        assert_eq!(e.len(), autofp::preprocess::encoding::encoding_width(max_len));
        assert!(e.iter().all(|v| v.is_finite()));
    });
}
