//! CLI for the in-repo static analysis tool.
//!
//! ```text
//! cargo run -p xtask -- lint         # the gate: fails on any finding
//! cargo run -p xtask -- lint --json  # machine-readable findings
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::lint_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut command = None;
    for arg in &args {
        match arg.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--json" => json = true,
            "--help" | "-h" | "help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if command != Some("lint") {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }

    // `CARGO_MANIFEST_DIR` is crates/xtask at compile time; the
    // workspace root is two levels up. This keeps the tool working no
    // matter which directory `cargo run -p xtask` is invoked from.
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf();

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xtask lint: failed to scan workspace: {err}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", render_json(&report.violations));
    } else {
        for v in &report.violations {
            println!("{}", v.render());
        }
        println!("xtask lint: {} file(s), {} violation(s)", report.files, report.violations.len());
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Render findings as a JSON array (schema: rule, path, line, chain,
/// excerpt). Hand-rolled — the workspace carries no serde dependency.
fn render_json(violations: &[xtask::rules::Violation]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain: Vec<String> = v.chain.iter().map(|c| format!("\"{}\"", esc(c))).collect();
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"chain\": [{}], \
             \"excerpt\": \"{}\"}}",
            esc(v.rule),
            esc(&v.path),
            v.line,
            chain.join(", "),
            esc(&v.excerpt),
        ));
    }
    out.push_str(if violations.is_empty() { "]" } else { "\n]" });
    out
}

fn usage() -> String {
    "\
xtask — in-repo static analysis for the Auto-FP workspace

USAGE:
    cargo run -p xtask -- lint [--json]

RULES (justify exceptions with `// lint:allow(<rule>): <reason>`):
    nan-ord         no raw `partial_cmp` outside core::order
    nondet          no wall-clock outside core::budget/bench, no unseeded
                    RNG, no HashMap/HashSet in determinism-critical modules
    panic-boundary  no unwrap/expect/panic! in the evaluation hot path
    cache-purity    no interior mutability / clock / RNG in cache-identity code
    panic-reach     hot-path entry points must not transitively reach
                    unwrap/expect/panic!/fallible indexing (call-graph rule;
                    findings carry the full call chain)
    nondet-flow     wall-clock/unseeded-RNG taint must not reach
                    determinism-critical roots except via core::budget
    lock-order      no same-class Mutex re-acquisition, no pairwise
                    lock-order inversions (transitive, via the call graph)

Any finding fails the run.

FLAGS:
    --json             emit findings as JSON (rule, path, line, chain, excerpt)
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::render_json;
    use xtask::rules::Violation;

    #[test]
    fn json_escapes_and_carries_the_chain() {
        let v = Violation {
            rule: "panic-reach",
            path: "crates/a/src/one.rs".to_string(),
            line: 7,
            message: String::new(),
            excerpt: "x.expect(\"boom\\n\")".to_string(),
            chain: vec!["entry (crates/a/src/one.rs:1)".to_string()],
        };
        let json = render_json(std::slice::from_ref(&v));
        assert_eq!(
            json,
            "[\n  {\"rule\": \"panic-reach\", \"path\": \"crates/a/src/one.rs\", \
             \"line\": 7, \"chain\": [\"entry (crates/a/src/one.rs:1)\"], \
             \"excerpt\": \"x.expect(\\\"boom\\\\n\\\")\"}\n]"
        );
        assert_eq!(render_json(&[]), "[]");
    }
}
