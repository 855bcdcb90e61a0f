//! The `prep-heavy` workload: Table 5's Prep-dominated case.
//!
//! Each round evaluates every pipeline of one or two steps over the seven
//! preprocessors (56 pipelines, default parameters) with LR on `madeline`
//! at scale 0.2 (502 rows x 259 columns), through the batch evaluator on
//! two threads with a prefix cache. On so wide a matrix the per-column
//! work of the transforms dominates, so data-plane and prefix-cache
//! changes show here and barely on `table4-mini`.
//!
//! A fixed pipeline family rather than a search keeps a round's work the
//! same for every seed: on wide data one transform step costs from under a
//! millisecond (a scaler) to a hundred (a power transform), so which
//! pipelines a search happens to propose moves a round's cost by a fifth.
//! The seed sets the split, the model's initialisation and the order of
//! evaluation.

use crate::report::{nearest_rank, Outcome, RoundTimes};
use crate::search::THREADS;
use crate::timed::{into_tally, Tally, Timed};
use autofp_bench::HarnessConfig;
use autofp_core::{fnv1a, BatchEvaluator, EvalConfig, Evaluate, Evaluator, PrefixStats, Trial};
use autofp_data::spec_by_name;
use autofp_linalg::rng::{derive_seed, permutation, rng_from_seed};
use autofp_models::ModelKind;
use autofp_preprocess::{Pipeline, PreprocKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DATASET: &str = "madeline";
const SCALE: f64 = 0.2;

/// Every pipeline of one step, then every pipeline of two steps, each
/// group in a seeded order. Evaluated as two batches, every evaluation
/// runs exactly one transform step: a two-step pipeline finds its first
/// step in the prefix cache.
fn family(seed: u64) -> [Vec<Pipeline>; 2] {
    let singles: Vec<Pipeline> =
        PreprocKind::ALL.iter().map(|&k| Pipeline::from_kinds(&[k])).collect();
    let pairs: Vec<Pipeline> = PreprocKind::ALL
        .iter()
        .flat_map(|&a| PreprocKind::ALL.iter().map(move |&b| Pipeline::from_kinds(&[a, b])))
        .collect();
    let mut rng = rng_from_seed(derive_seed(seed, 3));
    [singles, pairs].map(|group| {
        permutation(&mut rng, group.len()).into_iter().map(|i| group[i].clone()).collect()
    })
}

/// One round.
struct Round {
    setup: Duration,
    generate: Duration,
    measured: Duration,
    tally: Tally,
    trials: Vec<Trial>,
    prefix: PrefixStats,
}

impl Round {
    /// `fnv1a` over (pipeline, accuracy bits) in pipeline-key order, so
    /// the digest does not depend on the evaluation order.
    fn digest(&self) -> u64 {
        let mut lines: Vec<String> = self
            .trials
            .iter()
            .map(|t| format!("{}\t{:016x}", t.pipeline.key(), t.accuracy.to_bits()))
            .collect();
        lines.sort();
        fnv1a(lines.join("\n").as_bytes())
    }
}

fn round(seed: u64, prefix_cache: bool) -> Round {
    let cfg = HarnessConfig { scale: SCALE, ..HarnessConfig::default() };
    let start = Instant::now();
    let data = cfg.generate(&spec_by_name(DATASET).expect("registry dataset"));
    let generate = start.elapsed();
    let mut ev =
        Evaluator::new(&data, EvalConfig { model: ModelKind::Lr, seed, ..EvalConfig::default() });
    if prefix_cache {
        ev = ev.with_prefix_cache(cfg.new_prefix_cache());
    }
    let ev = Timed { inner: Box::new(ev), tally: Arc::new(Mutex::new(Tally::default())) };
    let setup = start.elapsed();

    let loop_start = Instant::now();
    let batch = BatchEvaluator::new(&ev).with_threads(THREADS);
    let trials = family(seed).iter().flat_map(|group| batch.evaluate_batch(group)).collect();
    let measured = loop_start.elapsed();
    let prefix = ev.prefix_stats().unwrap_or_default();
    Round { setup, generate, measured, tally: into_tally(ev.tally), trials, prefix }
}

/// `prep-heavy`.
pub fn prep_heavy(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut times = RoundTimes::default();
    let rounds = crate::rounds(seconds, |r| round(crate::round_seed(seed, r), true));
    let [mut measured, mut setup, mut generate, mut busy, mut prep, mut train] =
        [Duration::ZERO; 6];
    let mut prefix = PrefixStats::default();
    // Every round evaluates the same pipelines, so each pipeline's latency
    // is its fastest over the rounds, the one least disturbed by other
    // load; the percentiles are over pipelines.
    let mut fastest: BTreeMap<&str, Duration> = BTreeMap::new();
    let expected = family(0).iter().map(Vec::len).sum::<usize>();
    for (r, round) in rounds.iter().enumerate() {
        out.check(round.trials.len() == expected, || {
            format!("round {r}: {} trials, expected {expected}", round.trials.len())
        });
        out.attempted += round.trials.len() as u64;
        out.failed += round.trials.iter().filter(|t| t.is_failed()).count() as u64;
        for (key, &took) in round.tally.pipelines.iter().zip(&round.tally.calls) {
            let best = fastest.entry(key).or_insert(took);
            *best = (*best).min(took);
        }
        times.push(round.setup, round.trials.len() as u64, round.measured, Vec::new());
        measured += round.measured;
        setup += round.setup;
        generate += round.generate;
        busy += round.tally.busy();
        prep += round.tally.prep;
        train += round.tally.train;
        prefix.absorb(&round.prefix);
    }
    let first = &rounds[0];

    // Reference: the first round's seed without the prefix cache.
    let (want, got) = (first.digest(), round(seed, false).digest());
    out.check(want == got, || {
        format!("round 0 digest {want:016x} differs from the prefix-cache-off reference {got:016x}")
    });
    out.digest = Some(want);

    times.fill(&mut out);
    let mut latencies: Vec<f64> = fastest.values().map(|d| d.as_secs_f64() * 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    out.set("p50_ms", nearest_rank(&latencies, 50.0));
    out.set("p90_ms", nearest_rank(&latencies, 90.0));
    out.set("peak_rss_mb", crate::procs::hwm_kib("self").unwrap_or(0) as f64 / 1024.0);
    let thread_time = THREADS as f64 * measured.as_secs_f64();
    let share = |d: Duration| d.as_secs_f64() / thread_time;
    out.set("bench.busy_frac", share(busy));
    out.set("core.eval.frac", share(busy));
    out.set("preprocess.frac", share(prep));
    out.set("models.frac", share(train));
    out.set("core.eval.calls", first.tally.calls.len() as f64);
    out.set("core.prefix.hit_rate", prefix.hit_rate());
    out.set("core.prefix.steps_saved", first.prefix.steps_saved as f64);
    out.set("core.prefix.bytes", first.prefix.bytes as f64);
    out.set("setup.generate_frac", generate.as_secs_f64() / setup.as_secs_f64());
    out.set("setup.build_frac", (setup - generate).as_secs_f64() / setup.as_secs_f64());
    if trace {
        crate::report::check_busy(&mut out);
    }
    out
}
