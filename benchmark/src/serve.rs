//! The serving workload: `serve-tcp`.
//!
//! Each round fits the fixed `[Standard, Power, Quantile, MinMax]` + LR
//! artifact on a seeded synthetic dataset, saves it, starts `autofp serve
//! --threads 1` on it and pings it (set-up). One closed-loop connection
//! then sends a fixed number of cycles of four one-row requests and one
//! request of 1,024 rows. About one row in 32 carries a NaN and one in 97
//! has the wrong arity; the server must quarantine exactly those.
//! Every response is compared with the in-process [`ServeEngine`]'s
//! answer to the identical request, and the server's final counters with
//! the generator's.

use crate::procs::{self, ServeProcess};
use crate::report::{Outcome, RoundTimes};
use autofp_core::EvalConfig;
use autofp_data::{Personality, SynthConfig};
use autofp_linalg::rng::derive_seed;
use autofp_linalg::Matrix;
use autofp_models::{Classifier, ModelKind};
use autofp_preprocess::{Pipeline, PreprocKind};
use autofp_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use autofp_serve::{
    fit_artifact, EngineStats, RowOutcome, ServeClient, ServeEngine, ServeRequest, ServeResponse,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const TRAIN_ROWS: usize = 4_000;
const FEATURES: usize = 24;
const CLASSES: usize = 3;
/// Rows of the large request of each cycle.
const LARGE_ROWS: usize = 1_024;
/// One-row requests per cycle.
const SMALL_PER_CYCLE: usize = 4;
/// Cycles per round: short rounds, so that among the many a run makes
/// some escape load from elsewhere on the machine (see
/// `report::RoundTimes`).
const CYCLES: usize = 250;
/// Distinct requests a round cycles through.
const SMALL_TEMPLATES: usize = 256;
const LARGE_TEMPLATES: usize = 16;
/// One row in `NAN_EVERY` carries a NaN; one in `ARITY_EVERY` has the
/// wrong number of features.
const NAN_EVERY: u64 = 32;
const ARITY_EVERY: u64 = 97;

fn personality() -> Personality {
    Personality { scale_spread: 5.0, skew: 0.3, ..Personality::default() }
}

fn pipeline() -> Pipeline {
    Pipeline::from_kinds(&[
        PreprocKind::StandardScaler,
        PreprocKind::PowerTransformer,
        PreprocKind::QuantileTransformer,
        PreprocKind::MinMaxScaler,
    ])
}

/// One distinct request: its rows, the in-process engine's answer, and
/// the counters it must add on the server.
struct Template {
    rows: Vec<Vec<f64>>,
    expected: Vec<RowOutcome>,
    stats: EngineStats,
}

/// The distinct requests of one round.
struct Requests {
    small: Vec<Template>,
    large: Vec<Template>,
}

impl Requests {
    /// Seeded rows drawn from a dataset of the training distribution, with
    /// NaN cells and wrong arities mixed in; `engine` gives the expected
    /// answers.
    fn generate(seed: u64, engine: &ServeEngine) -> Requests {
        let pool =
            SynthConfig::new("serve-tcp-rows", 4_096, FEATURES, CLASSES, derive_seed(seed, 1))
                .with_personality(personality())
                .generate();
        let base = derive_seed(seed, 2);
        let mut next = 0u64;
        let mut row = || {
            next += 1;
            let h = derive_seed(base, next);
            let mut r = pool.x.row((h % pool.x.nrows() as u64) as usize).to_vec();
            let g = derive_seed(h, 1);
            if g.is_multiple_of(NAN_EVERY) {
                r[((g >> 32) % FEATURES as u64) as usize] = f64::NAN;
            }
            let a = derive_seed(h, 2);
            if a.is_multiple_of(ARITY_EVERY) {
                if a >> 63 == 0 {
                    r.pop();
                } else {
                    r.push(0.5);
                }
            }
            r
        };
        let template = |rows: Vec<Vec<f64>>| Template {
            expected: engine.predict_batch(&rows, 1).outcomes,
            stats: generator_stats(&rows),
            rows,
        };
        let small = (0..SMALL_TEMPLATES).map(|_| template(vec![row()])).collect();
        let large = (0..LARGE_TEMPLATES)
            .map(|_| template((0..LARGE_ROWS).map(|_| row()).collect()))
            .collect();
        Requests { small, large }
    }

    /// The requests of cycle `c`, in sending order.
    fn cycle(&self, c: usize) -> impl Iterator<Item = &Template> {
        (0..SMALL_PER_CYCLE)
            .map(move |k| &self.small[(c * SMALL_PER_CYCLE + k) % SMALL_TEMPLATES])
            .chain(std::iter::once(&self.large[c % LARGE_TEMPLATES]))
    }
}

/// The server counters rows must produce, classified by the generator's
/// own rule (arity first, then finiteness).
fn generator_stats(rows: &[Vec<f64>]) -> EngineStats {
    let mut s = EngineStats { rows: rows.len() as u64, ..EngineStats::default() };
    for r in rows {
        if r.len() != FEATURES {
            s.rejected_arity += 1;
        } else if r.iter().any(|v| !v.is_finite()) {
            s.rejected_non_finite += 1;
        } else {
            s.predicted += 1;
        }
    }
    s
}

fn add_stats(a: &mut EngineStats, b: &EngineStats) {
    a.rows += b.rows;
    a.predicted += b.predicted;
    a.rejected_non_finite += b.rejected_non_finite;
    a.rejected_arity += b.rejected_arity;
}

/// In-process times of the layers requests pass through.
#[derive(Default, Clone, Copy)]
struct LayerTimes {
    engine: Duration,
    codec: Duration,
    transform: Duration,
    predict: Duration,
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Add the in-process time of each layer on `rows`: the whole engine
/// call, the codec work both ends do (request and response, encode and
/// decode), and inside the engine the fitted transform and the model's
/// predict on the packed clean rows.
fn probe(total: &mut LayerTimes, engine: &ServeEngine, rows: &[Vec<f64>]) {
    let mut report = None;
    total.engine += timed(|| report = Some(engine.predict_batch(black_box(rows), 1)));
    let request = ServeRequest::Predict { rows: rows.to_vec() };
    let outcomes = report.map(|r| r.outcomes).unwrap_or_default();
    let response = ServeResponse::PredictAck { outcomes, stats: engine.stats() };
    total.codec += timed(|| {
        let (req, resp) = (encode_request(&request), encode_response(&response));
        black_box((decode_request(&req).is_ok(), decode_response(&resp).is_ok()));
    });
    let clean: Vec<f64> = rows
        .iter()
        .filter(|r| r.len() == FEATURES && r.iter().all(|v| v.is_finite()))
        .flatten()
        .copied()
        .collect();
    let n = clean.len() / FEATURES;
    let mut m = Matrix::from_vec(n, FEATURES, clean);
    let artifact = engine.artifact();
    total.transform += timed(|| artifact.pipeline.transform(black_box(&mut m)));
    total.predict += timed(|| {
        for k in 0..n {
            black_box(artifact.model.predict_row(m.row(k)));
        }
    });
}

/// One serve round.
struct Round {
    setup: Duration,
    generate: Duration,
    build: Duration,
    spawn: Duration,
    loop_wall: Duration,
    /// Round trip of every request, in milliseconds.
    latencies: Vec<f64>,
    rows: u64,
    requests: u64,
    failed: u64,
    stats: EngineStats,
    server_kib: u64,
    layers: Option<LayerTimes>,
    problems: Vec<String>,
}

fn round(
    autofp: &Path,
    seed: u64,
    artifact_path: &Path,
    probe_layers: bool,
) -> std::io::Result<Round> {
    let io_err = |e: String| std::io::Error::other(e);
    let start = Instant::now();
    let dataset = SynthConfig::new("serve-tcp", TRAIN_ROWS, FEATURES, CLASSES, seed)
        .with_personality(personality())
        .generate();
    let generate = start.elapsed();
    let config = EvalConfig { model: ModelKind::Lr, seed, ..EvalConfig::default() };
    let artifact = fit_artifact(&dataset, &pipeline(), &config)
        .map_err(|e| io_err(format!("artifact fit failed: {e}")))?;
    artifact.save(artifact_path).map_err(|e| io_err(format!("artifact save failed: {e}")))?;
    let build = start.elapsed() - generate;
    let server = ServeProcess::spawn(autofp, artifact_path)?;
    let connect = |addr: &str| ServeClient::connect(addr).map_err(|e| io_err(e.to_string()));
    let mut client = connect(&server.addr)?;
    client.ping().map_err(|e| io_err(format!("ping failed: {e}")))?;
    let setup = start.elapsed();

    let engine = ServeEngine::new(artifact);
    let requests = Requests::generate(seed, &engine);
    let mut problems = Vec::new();
    let mut latencies = Vec::with_capacity(CYCLES * (SMALL_PER_CYCLE + 1));
    let mut expected = EngineStats::default();
    let (mut failed, mut mismatched) = (0u64, 0u64);
    let loop_start = Instant::now();
    for c in 0..CYCLES {
        for t in requests.cycle(c) {
            let payload = t.rows.clone();
            let sent = Instant::now();
            let answer = client.predict(payload);
            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            add_stats(&mut expected, &t.stats);
            match answer {
                Ok((outcomes, _)) => mismatched += u64::from(outcomes != t.expected),
                Err(_) => {
                    failed += 1;
                    client = connect(&server.addr)?;
                }
            }
        }
    }
    let loop_wall = loop_start.elapsed();
    if mismatched > 0 {
        problems.push(format!("{mismatched} responses differ from the in-process engine"));
    }
    let stats = client.stats().map_err(|e| io_err(format!("stats failed: {e}")))?;
    if failed == 0 && stats != expected {
        problems
            .push(format!("server counters {stats:?} differ from the generator's {expected:?}"));
    }

    let layers = probe_layers.then(|| {
        let mut total = LayerTimes::default();
        for c in 0..CYCLES {
            for t in requests.cycle(c) {
                probe(&mut total, &engine, &t.rows);
            }
        }
        total
    });

    let server_kib = procs::hwm_kib(&server.pid().to_string()).unwrap_or(0);
    client.shutdown().map_err(|e| io_err(format!("shutdown failed: {e}")))?;
    server.wait()?;
    Ok(Round {
        setup,
        generate,
        build,
        spawn: setup - generate - build,
        loop_wall,
        latencies,
        rows: expected.rows,
        requests: (CYCLES * (SMALL_PER_CYCLE + 1)) as u64,
        failed,
        stats,
        server_kib,
        layers,
        problems,
    })
}

/// `serve-tcp`.
pub fn serve_tcp(seed: u64, seconds: f64, trace: bool, scratch: &Path, autofp: &Path) -> Outcome {
    let mut out = Outcome::default();
    let results = crate::rounds(seconds, |r| {
        let path = scratch.join(format!("serve-{r}.afp"));
        round(autofp, crate::round_seed(seed, r), &path, trace && r == 0)
    });
    let mut done = Vec::new();
    for (r, result) in results.into_iter().enumerate() {
        match result {
            Ok(round) => {
                out.problems.extend(round.problems.iter().map(|p| format!("round {r}: {p}")));
                done.push(round);
            }
            Err(err) => out.problems.push(format!("round {r}: {err}")),
        }
    }
    let Some(first) = done.first() else {
        return out;
    };
    out.attempted = done.iter().map(|r| r.requests).sum();
    out.failed = done.iter().map(|r| r.failed).sum();
    let mut times = RoundTimes::default();
    for r in &done {
        times.push(r.setup, r.rows, r.loop_wall, r.latencies.clone());
    }
    times.fill(&mut out);
    let server_kib = done.iter().map(|r| r.server_kib).max().unwrap_or(0);
    out.set("peak_rss_mb", (procs::hwm_kib("self").unwrap_or(0) + server_kib) as f64 / 1024.0);

    // Per-layer shares of the first round's request loop.
    let wall = first.loop_wall.as_secs_f64();
    let round_trips: f64 = first.latencies.iter().sum::<f64>() / 1e3;
    let layers = first.layers.unwrap_or_default();
    let share = |d: Duration| d.as_secs_f64() / wall;
    out.set("bench.busy_frac", round_trips / wall);
    out.set("core.eval.frac", share(layers.engine));
    out.set("preprocess.frac", share(layers.transform));
    out.set("models.frac", share(layers.predict));
    out.set("wire.frac", (round_trips - layers.engine.as_secs_f64()) / wall);
    out.set("serve.codec_frac", share(layers.codec));
    out.set("core.eval.calls", first.requests as f64);
    out.set("serve.predicted", first.stats.predicted as f64);
    out.set("serve.rejected_non_finite", first.stats.rejected_non_finite as f64);
    out.set("serve.rejected_arity", first.stats.rejected_arity as f64);
    let setup_total: f64 = done.iter().map(|r| r.setup.as_secs_f64()).sum();
    let setup_share = |f: fn(&Round) -> Duration| {
        done.iter().map(|r| f(r).as_secs_f64()).sum::<f64>() / setup_total
    };
    out.set("setup.generate_frac", setup_share(|r| r.generate));
    out.set("setup.build_frac", setup_share(|r| r.build));
    out.set("setup.spawn_frac", setup_share(|r| r.spawn));
    out
}
