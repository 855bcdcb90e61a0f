//! Run every experiment binary sequentially with quick settings.
//!
//! Usage: `cargo run --release -p autofp-bench --bin run_all [-- args...]`
//! Extra args are forwarded to every experiment (e.g. `--scale 0.05`).
//!
//! `exp_replay` is not in the list: it replays a trial store that an
//! earlier `--trial-store` run must have populated.

use std::process::Command;

const EXPERIMENTS: [&str; 18] = [
    "exp_trend",
    "exp_patterns",
    "exp_fig5",
    "exp_table8",
    "exp_fig2",
    "exp_table2",
    "exp_table1",
    "exp_table4",
    "exp_fig6",
    "exp_fig7",
    "exp_table5",
    "exp_fig8",
    "exp_fig9",
    "exp_fig10",
    "exp_fig11",
    "exp_deep_probe",
    "exp_warmstart",
    "exp_reduction",
];

fn main() {
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("current exe");
    let bin_dir = self_path.parent().expect("bin dir");
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n################ {exp} ################\n");
        let status = Command::new(bin_dir.join(exp))
            .args(&forwarded)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            failed.push(exp);
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
