//! # The Auto-FP benchmark
//!
//! One binary measures the system end to end and layer by layer, from
//! outside: it calls the public API (`run_matrix_with` with its own
//! evaluator factory, an `Evaluate` wrapper that times each fresh
//! evaluation, `BatchEvaluator`, `ServeClient`, `ServeEngine`,
//! `serve::wire`) and reads the counters the program already returns
//! (`CacheStats`, `PrefixStats`, `StoreStats`, `FleetStats`,
//! `WorkerStats`, `EngineStats`, `CellResult::breakdown`).
//! `BENCHMARK.json` at the repository root declares the workloads, the
//! metrics and the regression bounds.
//!
//! ```text
//! bash benchmark/run.sh --seed 7                      # every workload, cross-checked
//! bash benchmark/run.sh --seed 7 --trace              # the traced run: per-layer metrics
//! bash benchmark/run.sh --workload serve-tcp --seed 3 --seconds 25 --trace 0
//! bash benchmark/run.sh --workload prep-heavy --repeat 10   # median, p25, p75 per metric
//! cargo test --manifest-path benchmark/Cargo.toml           # this package's unit tests
//! ```
//!
//! `run.sh` builds `autofp` and `evald` from the repository and this
//! package into one target directory (`$CARGO_TARGET_DIR`, default
//! `.bench_build`), then runs `benchmark`. Each workload runs in its own
//! process, so its memory peak is its own. A run prints every metric as
//! `workload metric value unit`, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. It exits nonzero
//! if any correctness check fails.
//!
//! ## Load shape
//!
//! Sized for a two-core machine: 2 evaluation threads (pinned, not read
//! from the machine), 2 evald workers, and one closed-loop connection to
//! `autofp serve --threads 1`. All load comes from this one process. A
//! run repeats rounds of its workload, each with its own seed derived
//! from `--seed` (the first round uses `--seed` itself) and its own
//! set-up, until `--seconds` have passed, with at least three rounds.
//! Rounds are kept to about a second, so a run makes some twenty of them.
//! The programs see only the generated inputs.
//!
//! ## Workloads
//!
//! | name | a round | why |
//! |---|---|---|
//! | `table4-mini` | In-process Table 4 matrix: `austrilian` at scale 0.05 (160 x 14) x LR/XGB/MLP x all 15 algorithms, 12 evaluations each, max length 7, shared trial cache on, prefix cache off: 540 trials. | The paper's central experiment at small per-evaluation size: per-evaluation overhead, model training, the trial cache and the searchers' Pick time dominate. Prefix cache, wire and disk are bypassed. |
//! | `prep-heavy` | In-process, LR only: every one- and two-step pipeline over the 7 preprocessors (56, default parameters) on `madeline` at scale 0.2 (502 x 259), through the batch evaluator on 2 threads with a prefix cache; one-step pipelines first, so each evaluation runs exactly one transform step. | Table 5's Prep-dominated case: on a wide matrix the per-column transform work dominates, so data-plane (`linalg`/`preprocess`) and prefix-cache changes show here and barely on `table4-mini`. A fixed pipeline family keeps the work the same for every seed (see `prep.rs`). |
//! | `fleet-resume` | The `table4-mini` matrix with every evaluation sent over TCP to 2 supervised local evald workers, writing a fresh trial store; then 3 resume runs over that store (everything preloaded, no evaluation). | Same evaluations as `table4-mini` over another transport: the difference isolates evald wire, client and server plus store writes (cold run) and store reads (resume). |
//! | `serve-tcp` | `autofp serve --threads 1` on an LR artifact with the fixed pipeline `[Standard, Power, Quantile, MinMax]` fit on a seeded 4,000 x 24 dataset; 250 cycles of {4 one-row requests, 1 request of 1,024 rows}; about 1 row in 32 has a NaN and 1 in 97 the wrong arity. | The deployment path: small requests price per-request overhead (frames, syscalls, codec), large ones transform + predict + quarantine. No search layer runs. |
//!
//! ## End-to-end metrics (untraced run)
//!
//! Every workload prints all five.
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | Median set-up of a round. Search: evald fleet spawn to ready (fleet only) plus the time from the `run_matrix_with` call to the return of its last evaluator-factory call (dataset generation and evaluator construction with its no-FP baseline fits). Prep: dataset generation and evaluator construction. Serve: dataset + `fit_artifact` + save + spawn + ready line + first `Ping`. |
//! | `ops_per_s` | 1/s | Operations per second of the round's measured time, best round. Search: trials recorded (cache hits count, as they count toward budgets) over matrix wall time after set-up; `fleet-resume` counts its cold and resume runs together. Prep: evaluations. Serve: rows sent over the request loop. |
//! | `p50_ms`, `p90_ms` | ms | Nearest-rank latency of an operation, best round. Search: a fresh evaluation, timed at the `Evaluate` boundary (over TCP for `fleet-resume`). Prep: over the 56 pipelines, each at its fastest evaluation over the rounds. Serve: a request's client-observed round trip; four in five are one-row requests, so p50 prices the small request and p90 the large one. |
//! | `peak_rss_mb` | MiB | `VmHWM` of the workload process plus the largest sum over a round of its children's (evald workers, `autofp serve`), read before they stop. |
//!
//! Throughput and latency come from the least disturbed round because
//! load from elsewhere on a shared machine only ever slows a round down,
//! in episodes of seconds that can cost a third of a round's speed (see
//! `report::RoundTimes`). Operations that fail (worst-error trials,
//! requests answered with an error) are the result's `failed` count
//! against `attempted`; the workloads are chosen so that none fails.
//! Quarantined rows are expected outcomes, checked exactly, not failures.
//!
//! ## Per-layer metrics (traced run)
//!
//! Shares are of the measured thread time: 2 threads x the measured wall
//! for search and prep, the first round's request loop for serve. A layer
//! a workload does not pass through reads 0. Sums are over fresh
//! evaluations only: a trial-cache hit returns its memoized Prep and Train
//! times, so summing over the history would count them twice.
//!
//! | metric | measured by | should move | on |
//! |---|---|---|---|
//! | `bench.busy_frac` | (Σ Pick + Σ fresh evaluation) / thread time; serve: Σ round trips / loop wall | `ops_per_s` | table4-mini, prep-heavy (must lie in [0.80, 1.05]) |
//! | `search.pick_frac`, `.surrogate` | Σ `CellResult::breakdown.pick`, all cells and the PNAS x4, SMAC and TPE cells | `ops_per_s` | table4-mini |
//! | `core.eval.frac`, `core.eval.calls` | the `Evaluate` wrapper: time in and count of fresh evaluations (count: first round); serve: in-process `ServeEngine::predict_batch` on the identical requests, and requests sent | `ops_per_s`, `p50_ms` | all |
//! | `preprocess.frac` | Σ `Trial::prep_time` of fresh evaluations; serve: `FittedPipeline::transform` on the packed clean rows | `ops_per_s`, `p90_ms` | prep-heavy, serve-tcp |
//! | `models.frac` | Σ `Trial::train_time` of fresh evaluations; serve: the `predict_row` loop | `ops_per_s`, `p90_ms` | table4-mini, serve-tcp |
//! | `wire.frac` | fleet: Σ (call − worker Prep − worker Train); serve: Σ (round trip − engine): codec, frames, syscalls, loopback, wake-ups | `p50_ms`, `ops_per_s` | fleet-resume, serve-tcp |
//! | `serve.codec_frac` | `serve::wire` encode + decode of request and response for the identical messages | `p50_ms` | serve-tcp |
//! | `core.cache.hit_rate`, `.lookups` | matrix `CacheStats` | `ops_per_s` | table4-mini, fleet-resume |
//! | `core.prefix.hit_rate`, `.steps_saved`, `.bytes` | `PrefixStats` of the evaluators (fleet: hit rate from the workers' `WorkerStats`) | `ops_per_s`, `peak_rss_mb` | prep-heavy |
//! | `core.repo.appended`, `.preloaded`, `.segment_bytes` | `StoreStats` and segment file sizes, first round | `ops_per_s` | fleet-resume |
//! | `core.repo.resume_frac` | resume wall / (cold measured + resume wall) | `ops_per_s` | fleet-resume |
//! | `evald.faults`, `evald.worker_hits` | `FleetStats` reconnects + retries + failovers; Σ `WorkerStats::hits` | `ops_per_s` | fleet-resume |
//! | `serve.predicted`, `.rejected_non_finite`, `.rejected_arity` | final `EngineStats` of the first round, checked exactly | none | serve-tcp |
//! | `setup.generate_frac`, `.build_frac`, `.spawn_frac` | shares of set-up: data generation, evaluator construction or artifact fit, process spawn to ready | `setup_s` | all |
//!
//! The evaluation wrapper runs in the untraced run too, since the
//! latency metrics need it; the traced run adds only work outside the
//! measured loops (serve layer probes, worker stats queries), so it has no
//! in-loop overhead to report.
//!
//! ## Correctness
//!
//! * Search: every round yields one cell per (model, algorithm) with
//!   accuracies in [0, 1]. After the measured rounds, a reference run
//!   repeats the first round's seed down a plainer path, and its
//!   `autofp_core::fnv1a` digest of `cells_tsv` must equal the first
//!   round's: trial cache off for `table4-mini`, in-process for
//!   `fleet-resume`. Every resume run must reproduce its cold run's cells
//!   with no cache miss and no evaluation.
//! * Prep: every pipeline's accuracy must equal, bit for bit, a reference
//!   run of the first round's seed without the prefix cache.
//! * Serve: every response must equal the in-process engine's outcomes
//!   for the identical request, and the server's final counters must
//!   equal the generator's counts.
//! * Driving every workload (no `--workload`) also requires `table4-mini`
//!   and `fleet-resume` to print the same digest, and at seed 7 the
//!   digests pinned in [`PINNED_SEED7`]. A change that alters search
//!   results on purpose updates them.
//! * No child process may outlive its workload, and the scratch
//!   directory `.bench_tmp/` is removed on every exit path.

mod prep;
mod procs;
mod report;
mod search;
mod serve;
mod timed;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["table4-mini", "prep-heavy", "fleet-resume", "serve-tcp"];

const DEFAULT_SEED: u64 = 7;

/// Measuring time of one run, as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

/// Rounds a run makes at least, so set-up is sampled several times.
const MIN_ROUNDS: usize = 3;

/// Digests of the first round at seed 7.
const PINNED_SEED7: [(&str, &str); 3] = [
    ("table4-mini", "e33918691e93d042"),
    ("prep-heavy", "f8c79e3f50e2f316"),
    ("fleet-resume", "e33918691e93d042"),
];

/// Seed of round `round`: the run's seed first, then derived ones.
pub(crate) fn round_seed(seed: u64, round: usize) -> u64 {
    match round {
        0 => seed,
        r => autofp_linalg::rng::derive_seed(seed, r as u64),
    }
}

/// Run rounds until `seconds` have passed, at least [`MIN_ROUNDS`].
pub(crate) fn rounds<R>(seconds: f64, mut round: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        out.push(round(out.len()));
    }
    out
}

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]

  --workload NAME  one of table4-mini, prep-heavy, fleet-resume, serve-tcp;
                   without it every workload runs, each in its own process,
                   and their digests are cross-checked
  --seed N         input seed [default: 7]
  --seconds S      measuring time of each run [default: 25]
  --trace [0|1]    print the per-layer metrics instead of the end-to-end ones
  --repeat N       run N times with seeds N, N+1, ... and print each metric's
                   median, p25, p75 and spread (p75 - p25) / median
";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                out.trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1")
            }
            "--workload" | "--seed" | "--seconds" | "--repeat" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let number = || value.parse().map_err(|_| format!("{flag} needs an integer"));
                match flag.as_str() {
                    "--workload" if WORKLOADS.contains(&value.as_str()) => {
                        out.workload = Some(value.clone());
                    }
                    "--workload" => return Err(format!("unknown workload `{value}`")),
                    "--seed" => out.seed = number()?,
                    "--seconds" => out.seconds = number()?,
                    _ => out.repeat = number()?,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.repeat == 0 {
        return Err("--repeat needs at least 1".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) if args.repeat == 1 => run_one(workload, &args),
        _ => drive(&args),
    }
}

/// Run one workload in this process and print its result.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    // The binaries a workload drives must exist before any work starts.
    let needs = match workload {
        "fleet-resume" => Some("evald"),
        "serve-tcp" => Some("autofp"),
        _ => None,
    };
    let binary = match needs.map(procs::sibling_binary).transpose() {
        Ok(binary) => binary.unwrap_or_default(),
        Err(err) => {
            eprintln!("benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    let scratch = match procs::Scratch::new(workload) {
        Ok(scratch) => scratch,
        Err(err) => {
            eprintln!("benchmark: cannot create the scratch directory: {err}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds as f64, args.trace);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match workload {
        "table4-mini" => search::table4_mini(seed, seconds, trace),
        "prep-heavy" => prep::prep_heavy(seed, seconds, trace),
        "fleet-resume" => search::fleet_resume(seed, seconds, trace, scratch.path()),
        _ => serve::serve_tcp(seed, seconds, trace, scratch.path(), &binary),
    }));
    drop(scratch);
    let leftover = procs::children();
    match result {
        Ok(mut out) => {
            out.check(leftover.is_empty(), || {
                format!("child processes still running: {leftover:?}")
            });
            if out.print(workload, trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(_) => {
            eprintln!("benchmark: workload {workload} panicked; leftover children: {leftover:?}");
            ExitCode::FAILURE
        }
    }
}

/// Problems with the digests one seed's workloads printed.
fn cross_check(digests: &BTreeMap<String, String>, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if let (Some(local), Some(fleet)) = (digests.get("table4-mini"), digests.get("fleet-resume")) {
        if local != fleet {
            problems
                .push(format!("table4-mini digest {local} differs from fleet-resume's {fleet}"));
        }
    }
    if seed == 7 {
        for (workload, pinned) in PINNED_SEED7 {
            match digests.get(workload) {
                Some(digest) if digest != pinned => {
                    problems.push(format!(
                        "{workload} digest {digest} differs from the pinned {pinned}"
                    ));
                }
                _ => {}
            }
        }
    }
    problems
}

/// Run workloads as child processes: every workload when none is named,
/// `--repeat` times with consecutive seeds.
fn drive(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("benchmark: cannot locate this executable: {err}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    // (workload, metric) -> (unit, values over repeats)
    let mut samples: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    for seed in args.seed..args.seed + args.repeat {
        let mut digests = BTreeMap::new();
        for workload in &workloads {
            let lines = match run_child(&exe, workload, seed, args) {
                Ok((success, lines)) => {
                    ok &= success;
                    lines
                }
                Err(err) => {
                    eprintln!("benchmark: cannot run workload {workload}: {err}");
                    ok = false;
                    continue;
                }
            };
            for line in lines {
                if args.repeat == 1 {
                    println!("{line}");
                }
                match line.split_whitespace().collect::<Vec<_>>()[..] {
                    [w, "digest", hex] => {
                        digests.insert(w.to_string(), hex.to_string());
                    }
                    [w, name, value, unit] => {
                        let entry = samples
                            .entry((w.to_string(), name.to_string()))
                            .or_insert_with(|| (unit.to_string(), Vec::new()));
                        entry.1.extend(value.parse::<f64>().ok());
                    }
                    _ => {}
                }
            }
        }
        for problem in cross_check(&digests, seed) {
            eprintln!("benchmark: seed {seed}: {problem}");
            ok = false;
        }
    }
    if args.repeat > 1 {
        println!("workload metric median p25 p75 spread unit");
        for ((workload, metric), (unit, values)) in &samples {
            let [q1, q2, q3] = report::quartiles(values);
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
            println!("{workload} {metric} {q2} {q1} {q3} {spread:.4} {unit}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process; returns whether it succeeded
/// and its output lines except the JSON result.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    args: &Args,
) -> std::io::Result<(bool, Vec<String>)> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines = stdout.lines().filter(|l| !l.starts_with('{')).map(String::from).collect();
    Ok((output.status.success(), lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The `"key": "value"` strings of one top-level array of
    /// `BENCHMARK.json` (names and units hold no brackets).
    fn strings_in(section: &str, key: &str) -> Vec<String> {
        let start = DECLARED.find(&format!("\"{section}\"")).expect("section present");
        let body = &DECLARED[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let pattern = format!("\"{key}\": \"");
        body.match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &body[at + pattern.len()..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_and_every_declared_one_printed() {
        for (section, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names = strings_in(section, "name");
            let units = strings_in(section, "unit");
            let ours: Vec<(String, String)> =
                decls.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
            let declared: Vec<(String, String)> = names.into_iter().zip(units).collect();
            assert_eq!(ours, declared, "{section} differs from BENCHMARK.json");
        }
        assert_eq!(strings_in("workloads", "name"), WORKLOADS);
    }

    #[test]
    fn default_run_length_matches_the_declared_one() {
        let at = DECLARED.find("\"run_seconds\":").expect("run_seconds present");
        let rest = DECLARED[at + "\"run_seconds\":".len()..].trim_start();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        assert_eq!(digits.parse::<u64>().ok(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn digests_cross_check() {
        let digests = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs.iter().map(|(w, d)| (w.to_string(), d.to_string())).collect()
        };
        // Any seed: the in-process and fleet matrices must agree.
        assert!(
            cross_check(&digests(&[("table4-mini", "ab"), ("fleet-resume", "ab")]), 3).is_empty()
        );
        let problems = cross_check(&digests(&[("table4-mini", "ab"), ("fleet-resume", "cd")]), 3);
        assert_eq!(problems.len(), 1, "{problems:?}");
        // A workload run alone has nothing to compare against.
        assert!(cross_check(&digests(&[("fleet-resume", "cd")]), 3).is_empty());
        // Seed 7 pins each digest.
        assert!(cross_check(&digests(&PINNED_SEED7), 7).is_empty());
        let problems = cross_check(&digests(&[("prep-heavy", "not-pinned")]), 7);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn round_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(round_seed(7, 0), 7);
        assert_ne!(round_seed(7, 1), round_seed(7, 2));
        assert_ne!(round_seed(7, 1), round_seed(8, 1));
    }

    #[test]
    fn arguments_parse() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-tcp --seed 3 --seconds 5 --trace 0")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("serve-tcp".into()),
                seed: 3,
                seconds: 5,
                trace: false,
                repeat: 1
            }
        );
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        let bare = parse_args(&argv("--trace --seed 9")).unwrap();
        assert!(bare.trace && bare.seed == 9);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--repeat 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
