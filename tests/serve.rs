//! Integration tests of the fit-once / serve-many subsystem: zero
//! train/serve skew, quarantine routing, and the TCP path end-to-end.

use autofp::core::{EvalConfig, Evaluator};
use autofp::data::SynthConfig;
use autofp::models::classifier::ModelKind;
use autofp::models::Classifier;
use autofp::preprocess::{LambdaMemo, Pipeline, PreprocKind};
use autofp::serve::{
    fit_artifact, RowOutcome, ServeArtifact, ServeClient, ServeEngine, ServeServer,
};
use std::sync::Arc;

fn spread_dataset(name: &str, seed: u64) -> autofp::data::Dataset {
    let mut p = autofp::data::Personality::default();
    p.scale_spread = 5.0;
    p.skew = 0.3;
    p.class_sep = 1.8;
    SynthConfig::new(name, 300, 6, 3, seed).with_personality(p).generate()
}

fn full_pipeline() -> Pipeline {
    Pipeline::from_kinds(&[
        PreprocKind::StandardScaler,
        PreprocKind::PowerTransformer,
        PreprocKind::QuantileTransformer,
        PreprocKind::MinMaxScaler,
    ])
}

/// Round-trip an artifact through its wire bytes, as a served copy
/// would arrive on another machine.
fn round_tripped(artifact: ServeArtifact) -> ServeArtifact {
    ServeArtifact::decode(&artifact.encode()).expect("round trip")
}

/// The tentpole guarantee: serving an exported artifact reproduces the
/// in-search evaluation bit-for-bit — same split, same fitted
/// parameters, same model weights, same per-row predictions.
#[test]
fn serve_transform_has_zero_train_serve_skew() {
    let dataset = spread_dataset("skew-ds", 29);
    let pipeline = full_pipeline();
    for model in ModelKind::ALL {
        let config = EvalConfig { model, seed: 17, ..Default::default() };
        let artifact =
            round_tripped(fit_artifact(&dataset, &pipeline, &config).expect("export fits"));

        // The evaluator's view of the same configuration.
        let evaluator = Evaluator::new(&dataset, config);
        let trial = evaluator.evaluate(&pipeline);
        assert_eq!(
            artifact.meta.accuracy.to_bits(),
            trial.accuracy.to_bits(),
            "{model}: exported accuracy skewed from the in-search trial"
        );

        // Replay the evaluator's own fit path and compare the served
        // transform + prediction on every validation row.
        let (fitted, _train_x) =
            pipeline.fit_transform(&evaluator.split().train.x, &LambdaMemo::new());
        let valid_x = fitted.transform_new(&evaluator.split().valid.x);

        let engine = ServeEngine::new(artifact);
        let rows: Vec<Vec<f64>> =
            evaluator.split().valid.x.rows_iter().map(<[f64]>::to_vec).collect();
        let report = engine.predict_batch(&rows, 1);
        assert_eq!(report.outcomes.len(), rows.len());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let RowOutcome::Predicted(served) = outcome else {
                panic!("{model}: clean validation row {i} was quarantined: {outcome:?}");
            };
            let in_search = engine.artifact().model.predict_row(valid_x.row(i));
            assert_eq!(
                *served, in_search,
                "{model}: row {i} served prediction skewed from in-search"
            );
        }

        // And the fitted pipelines agree bitwise on the matrices.
        let mut served_valid = evaluator.split().valid.x.clone();
        engine.artifact().pipeline.transform(&mut served_valid);
        let a = valid_x.as_slice().iter().map(|v| v.to_bits());
        let b = served_valid.as_slice().iter().map(|v| v.to_bits());
        assert!(a.eq(b), "{model}: served transform differs bitwise from in-search transform");
    }
}

/// Malformed rows route to the quarantine stream with the right
/// taxonomy reason, never poisoning adjacent clean rows, and the whole
/// batch is bit-identical across thread counts.
#[test]
fn quarantine_routes_malformed_rows_by_reason() {
    let dataset = spread_dataset("quarantine-ds", 31);
    let config = EvalConfig { model: ModelKind::Lr, seed: 3, ..Default::default() };
    let artifact = fit_artifact(&dataset, &full_pipeline(), &config).expect("export fits");
    let engine = ServeEngine::new(artifact);

    // Interleave clean rows with every malformed shape.
    let clean: Vec<Vec<f64>> = dataset.x.rows_iter().take(40).map(<[f64]>::to_vec).collect();
    let mut rows = Vec::new();
    for (i, row) in clean.iter().enumerate() {
        rows.push(row.clone());
        match i % 4 {
            0 => {
                let mut bad = row.clone();
                let j = i % bad.len();
                bad[j] = f64::NAN;
                rows.push(bad);
            }
            1 => {
                let mut bad = row.clone();
                let j = i % bad.len();
                bad[j] = f64::INFINITY;
                rows.push(bad);
            }
            2 => rows.push(row[..row.len() - 1].to_vec()), // short row
            _ => {
                let mut bad = row.clone();
                bad.push(0.0); // long row
                rows.push(bad);
            }
        }
    }

    let report = engine.predict_batch(&rows, 1);
    assert_eq!(report.outcomes.len(), rows.len());
    assert_eq!(report.predicted, 40);
    assert_eq!(report.rejected_non_finite, 20, "10 NaN + 10 inf rows");
    assert_eq!(report.rejected_arity, 20, "10 short + 10 long rows");
    // Clean rows (even indices) all predicted; malformed (odd) all rejected.
    for (i, o) in report.outcomes.iter().enumerate() {
        if i % 2 == 0 {
            assert!(matches!(o, RowOutcome::Predicted(_)), "clean row {i}: {o:?}");
        } else {
            assert!(matches!(o, RowOutcome::Rejected(_)), "malformed row {i}: {o:?}");
        }
    }

    // Same batch, 8 threads: identical outcomes, counters doubled.
    let threaded = engine.predict_batch(&rows, 8);
    assert_eq!(threaded.outcomes, report.outcomes, "thread count changed outcomes");
    let stats = engine.stats();
    assert_eq!(stats.rows, 2 * rows.len() as u64);
    assert_eq!(stats.predicted, 80);
    assert_eq!(stats.rejected_non_finite, 40);
    assert_eq!(stats.rejected_arity, 40);
}

/// The TCP path end-to-end: info, batched predict (identical to the
/// in-process engine), stats accumulation, shutdown.
#[test]
fn tcp_serve_round_trip_matches_in_process_engine() {
    let dataset = spread_dataset("tcp-ds", 37);
    let config = EvalConfig { model: ModelKind::Xgb, seed: 5, ..Default::default() };
    let artifact = fit_artifact(&dataset, &full_pipeline(), &config).expect("export fits");
    let reference = ServeEngine::new(round_tripped(
        fit_artifact(&dataset, &full_pipeline(), &config).expect("export fits"),
    ));

    let engine = Arc::new(ServeEngine::new(artifact));
    let server = ServeServer::bind("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());

    let mut rows: Vec<Vec<f64>> = dataset.x.rows_iter().take(30).map(<[f64]>::to_vec).collect();
    rows.push(vec![f64::NAN; dataset.x.ncols()]);
    rows.push(vec![1.0]); // wrong arity

    let mut client = ServeClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    let info = client.info().expect("info");
    assert_eq!(info.model, "XGB");
    assert_eq!(info.n_features, dataset.x.ncols() as u64);

    let (outcomes, stats) = client.predict(rows.clone()).expect("predict");
    let local = reference.predict_batch(&rows, 1);
    assert_eq!(outcomes, local.outcomes, "TCP outcomes differ from in-process engine");
    assert_eq!(stats.rows, rows.len() as u64);
    assert_eq!(stats.predicted, 30);
    assert_eq!(stats.rejected_non_finite, 1);
    assert_eq!(stats.rejected_arity, 1);

    // A second batch accumulates into the daemon's lifetime counters.
    let _ = client.predict(rows.clone()).expect("second predict");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rows, 2 * rows.len() as u64);

    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("server thread").expect("server run");
}

/// An artifact survives disk round trips byte-stably.
#[test]
fn artifact_save_load_is_byte_stable() {
    let dataset = spread_dataset("disk-ds", 41);
    let config = EvalConfig { model: ModelKind::Mlp, seed: 9, ..Default::default() };
    let artifact = fit_artifact(&dataset, &full_pipeline(), &config).expect("export fits");
    let bytes = artifact.encode();

    let dir = std::env::temp_dir().join(format!("autofp-serve-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.afp");
    artifact.save(&path).expect("save");
    let loaded = ServeArtifact::load(&path).expect("load");
    assert_eq!(loaded.encode(), bytes, "disk round trip changed the artifact bytes");
    std::fs::remove_dir_all(&dir).ok();
}
