//! `autofp` — command-line pipeline search on a CSV file, plus the
//! fit-once / serve-many path.
//!
//! ```text
//! autofp search --csv data.csv [--model lr|xgb|mlp] [--alg PBT] \
//!        [--budget-ms 5000 | --evals 200] [--max-len 7] [--seed 42] \
//!        [--space default|low|high]
//! autofp export --csv data.csv --out model.afp [--pipeline NAMES] [...]
//! autofp serve --artifact model.afp [--bind ADDR] [--port P] [--threads N]
//! autofp predict (--artifact model.afp | --addr HOST:PORT) --csv rows.csv
//! autofp repo gc --dir DIR [--keep CTX]... [--dry-run]
//! autofp algorithms            # list the 15 search algorithms
//! autofp preprocessors         # list the 7 preprocessors
//! ```
//!
//! The CSV format is: optional header, numeric feature columns, label in
//! the last column (integers or strings). `predict` CSVs carry feature
//! columns only (no label).

use autofp::core::{run_search, Budget, EvalConfig, Evaluator, Flags};
use autofp::data::csv::read_csv_file;
use autofp::data::Dataset;
use autofp::metafeatures::{extract, ExtractConfig};
use autofp::models::classifier::ModelKind;
use autofp::preprocess::{ParamSpace, Pipeline, PreprocKind};
use autofp::search::{make_searcher, AlgName};
use autofp::serve::{
    fit_artifact, parse_feature_rows, RowOutcome, ServeArtifact, ServeClient, ServeEngine,
    ServeServer,
};
use std::io::Write;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("search") => cmd_search(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("repo") => cmd_repo(&args[1..]),
        Some("algorithms") => cmd_algorithms(),
        Some("preprocessors") => cmd_preprocessors(),
        Some("help") | Some("--help") | Some("-h") | None => usage(0),
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage(2);
        }
    }
}

fn usage(code: i32) -> ! {
    println!(
        "autofp — automated feature preprocessing for tabular data\n\
         \n\
         USAGE:\n\
         \u{20}  autofp search --csv FILE [options]   search the best pipeline for a CSV\n\
         \u{20}  autofp export --csv FILE --out FILE  fit a pipeline+model, write an artifact\n\
         \u{20}  autofp serve --artifact FILE         serve an artifact over TCP\n\
         \u{20}  autofp predict ... --csv FILE        predict rows (file or TCP mode)\n\
         \u{20}  autofp repo gc --dir DIR             sweep dead trial-store segments\n\
         \u{20}  autofp algorithms                    list the 15 search algorithms\n\
         \u{20}  autofp preprocessors                 list the 7 preprocessors\n\
         \n\
         SEARCH OPTIONS:\n\
         \u{20}  --csv FILE          CSV with numeric features, label last (required)\n\
         \u{20}  --model lr|xgb|mlp  downstream model family      [default: lr]\n\
         \u{20}  --alg NAME          search algorithm (see `autofp algorithms`) [default: PBT]\n\
         \u{20}  --budget-ms MS      wall-clock budget            [default: 5000]\n\
         \u{20}  --evals N           evaluation-count budget (overrides --budget-ms)\n\
         \u{20}  --max-len N         maximum pipeline length      [default: 7]\n\
         \u{20}  --space default|low|high   parameter search space [default: default]\n\
         \u{20}  --seed N            random seed                  [default: 42]\n\
         \u{20}  --no-header         the CSV has no header row\n\
         \u{20}  --meta              also print the 40 dataset meta-features\n\
         \n\
         EXPORT OPTIONS (search options above also apply):\n\
         \u{20}  --out FILE          artifact output path (required)\n\
         \u{20}  --pipeline NAMES    comma-separated preprocessor names; skips the search\n\
         \n\
         SERVE OPTIONS:\n\
         \u{20}  --artifact FILE     artifact to serve (required)\n\
         \u{20}  --bind ADDR         IP address to bind         [default: 127.0.0.1]\n\
         \u{20}  --port P            TCP port (0 = OS-assigned) [default: 0]\n\
         \u{20}  --threads N         per-batch prediction threads [default: 1]\n\
         \n\
         PREDICT OPTIONS:\n\
         \u{20}  --artifact FILE     predict in-process from an artifact file\n\
         \u{20}  --addr HOST:PORT    predict against a running `autofp serve`\n\
         \u{20}  --csv FILE          feature rows, no label column (required)\n\
         \u{20}  --threads N         file-mode prediction threads [default: 1]\n\
         \u{20}  --no-header         the CSV has no header row\n\
         \n\
         REPO GC OPTIONS:\n\
         \u{20}  --dir DIR           trial-store directory (required)\n\
         \u{20}  --keep CTX          context to keep (repeatable)\n\
         \u{20}  --dry-run           report what would be removed, delete nothing"
    );
    exit(code)
}

/// Print `msg` and the usage text, then exit 2.
fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    usage(2)
}

/// Exit 2 unless the required option `flag` was given.
fn require(value: &str, flag: &str) {
    if value.is_empty() {
        bail(&format!("{flag} is required"));
    }
}

struct SearchArgs {
    csv: String,
    model: ModelKind,
    alg: AlgName,
    budget: Budget,
    max_len: usize,
    seed: u64,
    space: ParamSpace,
    header: bool,
    meta: bool,
}

impl SearchArgs {
    fn new() -> SearchArgs {
        SearchArgs {
            csv: String::new(),
            model: ModelKind::Lr,
            alg: AlgName::Pbt,
            budget: Budget::wall_clock(Duration::from_millis(5000)),
            max_len: 7,
            seed: 42,
            space: ParamSpace::default_space(),
            header: true,
            meta: false,
        }
    }

    /// Apply one search option; any other token is an error.
    fn apply(&mut self, flag: &str, flags: &mut Flags) -> Result<(), String> {
        match flag {
            "--csv" => self.csv = flags.value()?.to_string(),
            "--model" => {
                let v = flags.value()?;
                self.model = ModelKind::parse(v).ok_or_else(|| format!("unknown model '{v}'"))?;
            }
            "--alg" => {
                let v = flags.value()?;
                self.alg = AlgName::parse(v).ok_or_else(|| format!("unknown algorithm '{v}'"))?;
            }
            "--budget-ms" => {
                let ms = flags.parse("an integer")?;
                self.budget = Budget::wall_clock(Duration::from_millis(ms));
            }
            "--evals" => self.budget = Budget::evals(flags.parse("an integer")?),
            "--max-len" => self.max_len = flags.parse("an integer")?,
            "--seed" => self.seed = flags.parse("an integer")?,
            "--space" => {
                let v = flags.value()?;
                self.space = ParamSpace::parse(v)
                    .ok_or_else(|| format!("unknown space '{v}' (default|low|high)"))?;
            }
            "--no-header" => self.header = false,
            "--meta" => self.meta = true,
            other => return Err(format!("unknown option '{other}'")),
        }
        Ok(())
    }
}

/// Read a labelled CSV or exit with a diagnostic.
fn load_dataset(csv: &str, header: bool) -> Dataset {
    let result = if header {
        read_csv_file(csv)
    } else {
        std::fs::read_to_string(csv).and_then(|text| {
            autofp::data::csv::parse_csv("csv", &text, false)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        })
    };
    match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {csv}: {e}");
            exit(1);
        }
    }
}

fn cmd_search(args: &[String]) {
    let mut a = SearchArgs::new();
    Flags::walk(args, |flag, flags| a.apply(flag, flags)).unwrap_or_else(|e| bail(&e));
    require(&a.csv, "--csv");
    let dataset = load_dataset(&a.csv, a.header);
    println!(
        "dataset: {} rows x {} cols, {} classes",
        dataset.n_rows(),
        dataset.n_cols(),
        dataset.n_classes
    );
    if a.meta {
        let mf = extract(&dataset, &ExtractConfig { seed: a.seed, ..Default::default() });
        println!("\nmeta-features:");
        for (name, value) in autofp::metafeatures::NAMES.iter().zip(mf.as_slice()) {
            println!("  {name:<45} {value:.4}");
        }
        println!();
    }

    let evaluator = Evaluator::new(
        &dataset,
        EvalConfig { model: a.model, train_fraction: 0.8, seed: a.seed, train_subsample: None },
    );
    println!("model: {}   algorithm: {}   space: {}", a.model, a.alg, a.space.name());
    println!("no-FP baseline accuracy: {:.4}", evaluator.baseline_accuracy());

    let mut searcher = make_searcher(a.alg, a.space, a.max_len, a.seed);
    let outcome = run_search(searcher.as_mut(), &evaluator, a.budget);
    match outcome.best() {
        None => {
            eprintln!("budget too small: no pipeline was evaluated");
            exit(1);
        }
        Some(best) => {
            println!("\nevaluated {} pipelines in {:?}", outcome.history.len(), outcome.elapsed);
            let (pick, prep, train) = outcome.breakdown.percentages();
            println!("time breakdown: Pick {pick:.0}% | Prep {prep:.0}% | Train {train:.0}%");
            println!("\nbest pipeline:  {}", best.pipeline);
            println!("best accuracy:  {:.4}", best.accuracy);
            println!(
                "improvement:    {:+.2} percentage points over no-FP",
                (best.accuracy - evaluator.baseline_accuracy()) * 100.0
            );
        }
    }
}

/// Parse a comma-separated preprocessor list (`autofp preprocessors`
/// names, case-insensitive) into a pipeline.
fn parse_pipeline(spec: &str) -> Result<Pipeline, String> {
    let kinds = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            PreprocKind::parse(name).ok_or_else(|| {
                format!("unknown preprocessor '{name}' (see `autofp preprocessors`)")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Pipeline::from_kinds(&kinds))
}

fn cmd_export(args: &[String]) {
    let mut a = SearchArgs::new();
    let mut out_path = String::new();
    let mut explicit = None;
    // Parsing validates an explicit pipeline before touching the
    // filesystem.
    Flags::walk(args, |flag, flags| {
        match flag {
            "--out" => out_path = flags.value()?.to_string(),
            "--pipeline" => explicit = Some(parse_pipeline(flags.value()?)?),
            other => a.apply(other, flags)?,
        }
        Ok(())
    })
    .unwrap_or_else(|e| bail(&e));
    require(&out_path, "--out");
    require(&a.csv, "--csv");
    let dataset = load_dataset(&a.csv, a.header);
    let config =
        EvalConfig { model: a.model, train_fraction: 0.8, seed: a.seed, train_subsample: None };

    let pipeline = match explicit {
        Some(p) => p,
        None => {
            // No explicit pipeline: search for the winner first, the
            // same way `autofp search` does.
            let evaluator = Evaluator::new(&dataset, config.clone());
            let mut searcher = make_searcher(a.alg, a.space, a.max_len, a.seed);
            let outcome = run_search(searcher.as_mut(), &evaluator, a.budget);
            match outcome.best() {
                Some(best) => {
                    println!(
                        "search: {} pipelines evaluated, winner `{}` at accuracy {:.4}",
                        outcome.history.len(),
                        best.pipeline,
                        best.accuracy
                    );
                    best.pipeline.clone()
                }
                None => {
                    eprintln!("budget too small: no pipeline was evaluated");
                    exit(1);
                }
            }
        }
    };

    let artifact = match fit_artifact(&dataset, &pipeline, &config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: export fit failed: {e}");
            exit(1);
        }
    };
    if let Err(e) = artifact.save(&out_path) {
        eprintln!("error: cannot write {out_path}: {e}");
        exit(1);
    }
    let m = &artifact.meta;
    println!(
        "exported {out_path}: dataset {} ({} features, {} classes), pipeline `{}`, \
         model {}, seed {}, {} train rows, accuracy {:.4}",
        m.dataset, m.n_features, m.n_classes, m.pipeline_key, m.model, m.seed, m.train_rows,
        m.accuracy
    );
}

/// Load an artifact or exit with a diagnostic.
fn load_artifact(path: &str) -> ServeArtifact {
    match ServeArtifact::load(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot load artifact {path}: {e}");
            exit(1);
        }
    }
}

fn cmd_serve(args: &[String]) {
    let mut artifact_path = String::new();
    let mut bind: std::net::IpAddr = std::net::Ipv4Addr::LOCALHOST.into();
    let mut port: u16 = 0;
    let mut threads: usize = 1;
    Flags::walk(args, |flag, flags| {
        match flag {
            "--artifact" => artifact_path = flags.value()?.to_string(),
            "--bind" => bind = flags.parse("an IP address (e.g. 127.0.0.1)")?,
            "--port" => port = flags.parse("an integer in 0..=65535")?,
            "--threads" => threads = flags.parse("an integer")?,
            other => return Err(format!("unknown option '{other}'")),
        }
        Ok(())
    })
    .unwrap_or_else(|e| bail(&e));
    require(&artifact_path, "--artifact");
    let artifact = load_artifact(&artifact_path);
    let m = &artifact.meta;
    eprintln!(
        "serving {}: pipeline `{}`, model {}, {} features, {} classes",
        m.dataset, m.pipeline_key, m.model, m.n_features, m.n_classes
    );
    let engine = Arc::new(ServeEngine::new(artifact));
    let server = match ServeServer::bind((bind, port), engine, threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind {bind}:{port}: {e}");
            exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: local_addr: {e}");
            exit(1);
        }
    };
    // Supervisors block on this exact line; flush so a piped stdout
    // delivers it before the first request arrives.
    println!("autofp serve listening on {addr}");
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("error: serve: {e}");
        exit(1);
    }
}

/// Render predict outcomes — the one format both predict modes share,
/// so file mode and TCP mode are byte-comparable.
fn print_outcomes(outcomes: &[RowOutcome]) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for o in outcomes {
        let line = match o {
            RowOutcome::Predicted(class) => class.to_string(),
            RowOutcome::Rejected(kind) => format!("reject:{}", kind.name()),
        };
        if writeln!(out, "{line}").is_err() {
            exit(1);
        }
    }
    let _ = out.flush();
}

fn cmd_predict(args: &[String]) {
    let mut artifact_path = String::new();
    let mut addr = String::new();
    let mut csv = String::new();
    let mut threads: usize = 1;
    let mut header = true;
    Flags::walk(args, |flag, flags| {
        match flag {
            "--artifact" => artifact_path = flags.value()?.to_string(),
            "--addr" => addr = flags.value()?.to_string(),
            "--csv" => csv = flags.value()?.to_string(),
            "--threads" => threads = flags.parse("an integer")?,
            "--no-header" => header = false,
            other => return Err(format!("unknown option '{other}'")),
        }
        Ok(())
    })
    .unwrap_or_else(|e| bail(&e));
    require(&csv, "--csv");
    if artifact_path.is_empty() == addr.is_empty() {
        bail("exactly one of --artifact (file mode) or --addr (TCP mode) is required");
    }
    let text = match std::fs::read_to_string(&csv) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {csv}: {e}");
            exit(1);
        }
    };
    let rows = parse_feature_rows(&text, header);

    let (outcomes, predicted, rejected) = if addr.is_empty() {
        let engine = ServeEngine::new(load_artifact(&artifact_path));
        let report = engine.predict_batch(&rows, threads);
        let rejected = report.rejected_non_finite + report.rejected_arity;
        (report.outcomes, report.predicted, rejected)
    } else {
        let result = ServeClient::connect(&addr).and_then(|mut c| c.predict(rows));
        match result {
            Ok((outcomes, _stats)) => {
                let predicted = outcomes
                    .iter()
                    .filter(|o| matches!(o, RowOutcome::Predicted(_)))
                    .count() as u64;
                let rejected = outcomes.len() as u64 - predicted;
                (outcomes, predicted, rejected)
            }
            Err(e) => {
                eprintln!("error: predict against {addr}: {e}");
                exit(1);
            }
        }
    };
    print_outcomes(&outcomes);
    // Summary goes to stderr so the two modes' stdout stays
    // byte-identical and machine-consumable.
    eprintln!("{} rows: {predicted} predicted, {rejected} rejected", outcomes.len());
}

fn cmd_repo(args: &[String]) {
    if args.first().map(String::as_str) != Some("gc") {
        bail("`autofp repo` supports one subcommand: gc");
    }
    let mut dir = String::new();
    let mut keep: Vec<String> = Vec::new();
    let mut dry_run = false;
    Flags::walk(&args[1..], |flag, flags| {
        match flag {
            "--dir" => dir = flags.value()?.to_string(),
            "--keep" => keep.push(flags.value()?.to_string()),
            "--dry-run" => dry_run = true,
            other => return Err(format!("unknown option '{other}'")),
        }
        Ok(())
    })
    .unwrap_or_else(|e| bail(&e));
    require(&dir, "--dir");
    let report = match autofp::core::repo::gc(std::path::Path::new(&dir), &keep, dry_run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: gc failed: {e}");
            exit(1);
        }
    };
    let verb = if report.dry_run { "would remove" } else { "removed" };
    for seg in &report.removed {
        println!("{verb} {} ({} bytes, context `{}`)", seg.path.display(), seg.bytes, seg.context);
    }
    for path in &report.skipped {
        println!("skipped unreadable {}", path.display());
    }
    println!(
        "{} segments kept, {} {verb}, {} bytes {}",
        report.kept.len(),
        report.removed.len(),
        report.reclaimed_bytes,
        if report.dry_run { "reclaimable" } else { "reclaimed" },
    );
}

fn cmd_algorithms() {
    println!("The 15 Auto-FP search algorithms (paper Table 3):\n");
    println!("{:<11} {:<23} NOTES", "NAME", "CATEGORY");
    for alg in AlgName::ALL {
        let notes = match alg {
            AlgName::Pbt => "best overall average ranking in the paper",
            AlgName::Rs => "strong baseline",
            AlgName::Hyperband | AlgName::Bohb => "bandit: partial-training rungs",
            _ => "",
        };
        println!("{:<11} {:<23} {}", alg.as_str(), alg.category(), notes);
    }
}

fn cmd_preprocessors() {
    println!("The 7 feature preprocessors (paper §2.1):\n");
    for kind in PreprocKind::ALL {
        let what = match kind {
            PreprocKind::Binarizer => "threshold values to {0, 1}",
            PreprocKind::MaxAbsScaler => "scale each column by max |value|",
            PreprocKind::MinMaxScaler => "scale each column to [0, 1]",
            PreprocKind::Normalizer => "scale each row to unit norm",
            PreprocKind::PowerTransformer => "Yeo-Johnson transform toward normality",
            PreprocKind::QuantileTransformer => "map columns onto empirical quantiles",
            PreprocKind::StandardScaler => "zero-mean, unit-variance standardization",
        };
        println!("  {:<21} {}", kind.name(), what);
    }
}
