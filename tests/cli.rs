//! Integration tests of the `autofp` command-line binary.

use std::process::Command;

fn autofp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autofp"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = autofp().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_commands() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("autofp search"));
    assert!(stdout.contains("--budget-ms"));
}

#[test]
fn algorithms_lists_all_fifteen() {
    let (stdout, _, ok) = run(&["algorithms"]);
    assert!(ok);
    for name in ["RS", "PBT", "TEVO_H", "BOHB", "PMNE", "ENAS"] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

#[test]
fn preprocessors_lists_all_seven() {
    let (stdout, _, ok) = run(&["preprocessors"]);
    assert!(ok);
    for name in [
        "Binarizer",
        "MaxAbsScaler",
        "MinMaxScaler",
        "Normalizer",
        "PowerTransformer",
        "QuantileTransformer",
        "StandardScaler",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn search_on_a_csv_end_to_end() {
    // Build a learnable CSV: label = (feature > 50).
    let mut csv = String::from("f0,f1,label\n");
    for i in 0..60 {
        csv.push_str(&format!("{},{},{}\n", i, i * 1000, usize::from(i > 30)));
    }
    let path = std::env::temp_dir().join("autofp_cli_it.csv");
    std::fs::write(&path, csv).unwrap();

    let (stdout, stderr, ok) = run(&[
        "search",
        "--csv",
        path.to_str().unwrap(),
        "--evals",
        "12",
        "--alg",
        "TEVO_H",
        "--max-len",
        "3",
        "--seed",
        "1",
    ]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("best pipeline:"), "{stdout}");
    assert!(stdout.contains("dataset: 60 rows x 2 cols, 2 classes"), "{stdout}");
    assert!(stdout.contains("evaluated 12 pipelines"), "{stdout}");
}

#[test]
fn unknown_algorithm_fails_cleanly() {
    let (_, stderr, ok) = run(&["search", "--csv", "x.csv", "--alg", "NOPE"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
}

#[test]
fn missing_csv_fails_cleanly() {
    let (_, stderr, ok) = run(&["search", "--csv", "/definitely/not/here.csv", "--evals", "1"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

fn evald(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_evald")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn evald_serve_on_an_already_bound_port_fails_with_a_clear_error() {
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = holder.local_addr().expect("addr").port();
    let (_, stderr, code) = evald(&["serve", "--port", &port.to_string()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("already in use"), "{stderr}");
    assert!(stderr.contains(&port.to_string()), "{stderr}");
}

#[test]
fn evald_rejects_bad_usage_with_exit_two() {
    let (_, stderr, code) = evald(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"), "{stderr}");
    let (_, stderr, code) = evald(&["stats"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("needs a worker address"), "{stderr}");
    let (_, stderr, code) = evald(&["serve", "--port", "notaport"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--port"), "{stderr}");
    // Cache sizes are fixed, not flags. The held port turns a flag that
    // parsed into a failed bind (exit 1) rather than a running daemon.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = holder.local_addr().expect("addr").port().to_string();
    for flag in ["--cache-cap", "--prefix-cache-bytes"] {
        let (_, stderr, code) = evald(&["serve", flag, "3", "--port", &port]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("unknown serve flag"), "{stderr}");
    }
}

#[test]
fn meta_flag_prints_forty_features() {
    let mut csv = String::from("a,b,c,label\n");
    for i in 0..40 {
        csv.push_str(&format!("{},{},{},{}\n", i, i % 7, i % 3, i % 2));
    }
    let path = std::env::temp_dir().join("autofp_cli_meta.csv");
    std::fs::write(&path, csv).unwrap();
    let (stdout, _, ok) = run(&[
        "search",
        "--csv",
        path.to_str().unwrap(),
        "--evals",
        "2",
        "--meta",
    ]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("SkewnessMean"));
    assert!(stdout.contains("Landmark1NN"));
}

#[test]
fn export_then_predict_round_trip() {
    // Build a learnable CSV: label = (feature > 30).
    let mut csv = String::from("f0,f1,label\n");
    for i in 0..80 {
        csv.push_str(&format!("{},{},{}\n", i, (i * 37) % 100, usize::from(i > 30)));
    }
    let dir = std::env::temp_dir().join(format!("autofp_cli_export_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let train = dir.join("train.csv");
    std::fs::write(&train, csv).unwrap();

    let artifact = dir.join("model.afp");
    let (stdout, stderr, ok) = run(&[
        "export",
        "--csv",
        train.to_str().unwrap(),
        "--out",
        artifact.to_str().unwrap(),
        "--pipeline",
        "StandardScaler,MinMaxScaler",
        "--seed",
        "7",
    ]);
    assert!(ok, "export failed: {stderr}");
    assert!(stdout.contains("exported"), "{stdout}");
    assert!(stdout.contains("StandardScaler -> MinMaxScaler"), "{stdout}");
    assert!(artifact.exists());

    // Two clean rows, one non-finite, one wrong-arity.
    let rows = dir.join("rows.csv");
    std::fs::write(&rows, "f0,f1\n5,10\n70,2\nnotanumber,3\n1,2,3\n").unwrap();
    let (stdout, stderr, ok) = run(&[
        "predict",
        "--artifact",
        artifact.to_str().unwrap(),
        "--csv",
        rows.to_str().unwrap(),
    ]);
    assert!(ok, "predict failed: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert_eq!(lines[0], "0");
    assert_eq!(lines[1], "1");
    assert_eq!(lines[2], "reject:non-finite");
    assert_eq!(lines[3], "reject:degenerate");
    assert!(stderr.contains("2 predicted, 2 rejected"), "{stderr}");

    // Thread count must not change stdout.
    let (threaded, _, ok) = run(&[
        "predict",
        "--artifact",
        artifact.to_str().unwrap(),
        "--csv",
        rows.to_str().unwrap(),
        "--threads",
        "8",
    ]);
    assert!(ok);
    assert_eq!(threaded, stdout, "thread count changed predict output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_and_predict_reject_bad_usage() {
    let (_, stderr, ok) = run(&["export", "--csv", "x.csv"]);
    assert!(!ok);
    assert!(stderr.contains("--out is required"), "{stderr}");
    let (_, stderr, ok) = run(&["predict", "--csv", "x.csv"]);
    assert!(!ok);
    assert!(stderr.contains("exactly one of"), "{stderr}");
    let (_, stderr, ok) = run(&["predict", "--artifact", "a", "--addr", "b", "--csv", "x.csv"]);
    assert!(!ok);
    assert!(stderr.contains("exactly one of"), "{stderr}");
    let (_, stderr, ok) = run(&[
        "export",
        "--csv",
        "x.csv",
        "--out",
        "y.afp",
        "--pipeline",
        "NotAPreprocessor",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown preprocessor"), "{stderr}");
    let (_, stderr, ok) = run(&["serve", "--port", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--artifact is required"), "{stderr}");
    let (_, stderr, ok) = run(&["serve", "--artifact", "x.afp", "--bind", "nothost"]);
    assert!(!ok);
    assert!(stderr.contains("--bind"), "{stderr}");
}

#[test]
fn repo_gc_dry_run_reports_without_deleting() {
    let dir = std::env::temp_dir().join(format!("autofp_cli_gc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (stdout, _, ok) =
        run(&["repo", "gc", "--dir", dir.to_str().unwrap(), "--dry-run"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 segments kept"), "{stdout}");
    let (_, stderr, ok) = run(&["repo", "frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("gc"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_value_flag_does_not_swallow_the_next_flag() {
    for (args, flag) in [
        (&["search", "--csv", "--no-header"][..], "--csv"),
        (&["repo", "gc", "--dir", "--dry-run"], "--dir"),
    ] {
        let out = autofp().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{flag}` needs a value")), "{args:?}: {stderr}");
    }
}
