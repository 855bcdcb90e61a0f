//! Invariants stated in the paper's text, checked against this
//! implementation: search-space sizes, Figure 1 values, Table 3
//! categorization, Table 6/7 cardinalities, Table 9 statistics.

use autofp::data::registry;
use autofp::linalg::Matrix;
use autofp::preprocess::enumerate::{enumerate_pipelines, total_count};
use autofp::preprocess::{LambdaMemo, ParamSpace, Preproc, PreprocKind};
use autofp::search::AlgName;

#[test]
fn section2_2_enumeration_is_2800() {
    // "we only consider pipelines whose length is no larger than 4,
    //  leading to a total of 2800 different pipelines"
    assert_eq!(total_count(7, 4), 2800);
    assert_eq!(enumerate_pipelines(4).len(), 2800);
}

#[test]
fn section7_3_default_space_is_about_one_million() {
    // "the search space ... of Auto-FP contains about 1 million pipelines"
    let n = total_count(7, 7);
    assert_eq!(n, 960_799);
    assert!((900_000..1_100_000).contains(&n));
}

#[test]
fn figure1_values_match_paper() {
    let column = [-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0];
    let x = Matrix::column_vector(&column);
    let check = |kind: PreprocKind, expected: &[f64], tol: f64| {
        let mut m = x.clone();
        Preproc::default_for(kind).fit(&x, &LambdaMemo::new()).transform(&mut m);
        for (got, want) in m.col(0).iter().zip(expected) {
            assert!((got - want).abs() <= tol, "{kind}: {:?} vs {expected:?}", m.col(0));
        }
    };
    // Figure 1 columns (b)-(h).
    check(PreprocKind::StandardScaler, &[-1.87, -0.61, -0.36, 0.15, 0.40, 0.90, 1.41], 0.02);
    check(PreprocKind::MaxAbsScaler, &[-0.3, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0], 1e-9);
    check(PreprocKind::MinMaxScaler, &[0.0, 0.38, 0.46, 0.61, 0.69, 0.85, 1.0], 0.01);
    check(PreprocKind::Normalizer, &[-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1e-9);
    check(PreprocKind::PowerTransformer, &[-1.72, -0.71, -0.46, 0.07, 0.35, 0.93, 1.53], 0.08);
    check(
        PreprocKind::QuantileTransformer,
        &[0.0, 1.0 / 6.0, 2.0 / 6.0, 0.5, 4.0 / 6.0, 5.0 / 6.0, 1.0],
        1e-6,
    );
    check(PreprocKind::Binarizer, &[0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1e-9);
}

#[test]
fn table3_fifteen_algorithms_in_five_categories() {
    assert_eq!(AlgName::ALL.len(), 15);
    let categories = [
        ("Traditional", 2),
        ("Surrogate-model-based", 6),
        ("Evolution-based", 3),
        ("RL-based", 2),
        ("Bandit-based", 2),
    ];
    for (cat, count) in categories {
        assert_eq!(
            AlgName::ALL.iter().filter(|a| a.category() == cat).count(),
            count,
            "{cat}"
        );
    }
}

#[test]
fn table6_low_cardinality_space() {
    let space = ParamSpace::low_cardinality();
    // "the number of preprocessors ... will be increased from 7 to
    //  6+1+1+3+2+2+16 = 31"
    assert_eq!(space.n_variants(), 31);
    // Max cardinality is n_quantiles with 8 values.
    assert_eq!(space.variants_of(PreprocKind::QuantileTransformer).len(), 8 * 2);
}

#[test]
fn table7_high_cardinality_space_is_quantile_dominated() {
    let space = ParamSpace::high_cardinality();
    let q = space.variants_of(PreprocKind::QuantileTransformer).len() as f64;
    let share = q / space.n_variants() as f64;
    // "QuantileTransformer takes a large proportion ... ~99.3%"
    assert!(share > 0.99, "share {share}");
}

#[test]
fn table9_registry_statistics() {
    let specs = registry();
    assert_eq!(specs.len(), 45);
    // "28 binary classification datasets and 17 multi-classification
    //  datasets with up to 100 classes"
    assert_eq!(specs.iter().filter(|s| s.classes == 2).count(), 28);
    assert_eq!(specs.iter().map(|s| s.classes).max(), Some(100));
    // "file size ... from 0.01 MB to 75.2 MB"
    let min_mb = specs.iter().map(|s| s.size_mb).fold(f64::INFINITY, f64::min);
    let max_mb = specs.iter().map(|s| s.size_mb).fold(0.0, f64::max);
    assert!((min_mb - 0.01).abs() < 1e-9);
    assert!((max_mb - 75.2).abs() < 1e-9);
    // "number of rows ... from 242 to 464,809; columns from 4 to 1,636"
    assert_eq!(specs.iter().map(|s| s.rows).min(), Some(242));
    assert_eq!(specs.iter().map(|s| s.rows).max(), Some(464_809));
    assert_eq!(specs.iter().map(|s| s.cols).min(), Some(4));
    assert_eq!(specs.iter().map(|s| s.cols).max(), Some(1_636));
}

#[test]
fn metafeature_list_matches_table10() {
    assert_eq!(autofp::metafeatures::NAMES.len(), 40);
    for name in ["SkewnessMean", "Landmark1NN", "ClassEntropy", "NumberOfClasses"] {
        assert!(autofp::metafeatures::NAMES.contains(&name), "{name} missing");
    }
}

#[test]
fn table8_tpot_has_five_preprocessors() {
    assert_eq!(autofp::automl::TPOT_PREPROCESSORS.len(), 5);
    // TPOT lacks the two transformers (per Table 8 discussion).
    assert!(!autofp::automl::TPOT_PREPROCESSORS.contains(&PreprocKind::PowerTransformer));
    assert!(!autofp::automl::TPOT_PREPROCESSORS.contains(&PreprocKind::QuantileTransformer));
}
