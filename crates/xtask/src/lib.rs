//! `xtask` — in-repo static analysis for the Auto-FP workspace.
//!
//! Run as `cargo run -p xtask -- lint` (see `main.rs` for the CLI).
//! The library surface exists so the fixture suites in `tests/` can
//! drive the engine on synthetic sources.
//!
//! Why an in-repo tool instead of clippy: the rules encode *this*
//! repository's invariants — where wall-clock reads are allowed, which
//! modules form the panic-shielded evaluation hot path, what counts as
//! cache-identity code, which entry points must never transitively
//! reach a panic. Clippy has no vocabulary for any of that, and the
//! offline build environment rules out external lint frameworks
//! (dylint, custom rustc drivers).
//!
//! Pipeline (each stage a module):
//!
//! 1. [`scanner`] — blank comments/strings, extract `lint:allow` tags
//!    and test spans (per file);
//! 2. [`rules`] — line-local rule families (nan-ord, nondet,
//!    panic-boundary, cache-purity);
//! 3. [`index`] — workspace item index: every `fn` with its body span
//!    and `impl`/`trait` owner;
//! 4. [`graph`] — call-graph via name-resolution-lite, plus lock
//!    acquisition events;
//! 5. [`graphrules`] — cross-file families (panic-reach, nondet-flow,
//!    lock-order) whose findings carry full call-chain traces;
//! 6. [`baseline`] — checked-in suppression for incremental adoption.

pub mod baseline;
pub mod graph;
pub mod graphrules;
pub mod index;
pub mod rules;
pub mod scanner;
pub mod walk;

use baseline::Baseline;
use rules::Violation;
use scanner::CleanSource;
use std::path::Path;

/// Outcome of linting a whole workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Findings not covered by the baseline (failures).
    pub fresh: Vec<Violation>,
    /// Findings suppressed by the baseline.
    pub baselined: Vec<Violation>,
    /// Number of files scanned.
    pub files: usize,
}

/// Run the full engine — line-local rules, then the cross-file graph
/// rules over the item index and call graph — on a set of sources
/// (repo-relative path, file text). This is the whole pipeline as a
/// pure function, which is what the fixture suites drive directly.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let scanned: Vec<(String, CleanSource)> =
        sources.iter().map(|(p, s)| (p.clone(), scanner::scan(s))).collect();

    let mut raw: Vec<Violation> = Vec::new();
    for (path, src) in &scanned {
        rules::collect_local(path, src, &mut raw);
    }

    let ix = index::Index::build(&scanned);
    let g = graph::Graph::build(&ix);
    graphrules::panic_reach(&ix, &g, &mut raw);
    graphrules::nondet_flow(&ix, &g, &mut raw);
    graphrules::lock_order(&ix, &g, &mut raw);

    // Justification tags are line-local, so apply them per file.
    // Graph rules only attribute findings to scanned files, so every
    // path groups back to its own scan.
    let mut by_path: std::collections::BTreeMap<String, Vec<Violation>> = Default::default();
    for v in raw {
        by_path.entry(v.path.clone()).or_default().push(v);
    }
    let mut out: Vec<Violation> = Vec::new();
    for (path, src) in &scanned {
        let mine = by_path.remove(path).unwrap_or_default();
        rules::apply_allows(path, src, mine, &mut out);
    }
    out.sort_by(|a, b| {
        a.path.cmp(&b.path).then_with(|| a.line.cmp(&b.line)).then_with(|| a.rule.cmp(b.rule))
    });
    out
}

/// Rule configuration that no longer resolves against `sources`: a
/// configured file that is absent, or a panic-reach entry, nondet-flow
/// root or cache-purity span that names nothing. The rules skip such
/// entries silently (fixture runs lint subsets of the workspace), so
/// moving code would quietly shrink coverage; the workspace suite
/// asserts this list is empty.
pub fn stale_config(sources: &[(String, String)]) -> Vec<String> {
    let scanned: Vec<(String, CleanSource)> =
        sources.iter().map(|(p, s)| (p.clone(), scanner::scan(s))).collect();
    let mut out = rules::stale_config(&scanned);
    out.extend(graphrules::stale_config(&index::Index::build(&scanned)));
    out
}

/// Every lintable workspace source file under `root`, as
/// (repo-relative path, file text).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    walk::lintable_files(root)?
        .iter()
        .map(|rel| Ok((walk::display_path(rel), std::fs::read_to_string(root.join(rel))?)))
        .collect()
}

/// Lint every workspace source file under `root`. `baseline` is the
/// parsed baseline to subtract; pass an empty one for `--strict`.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> std::io::Result<LintReport> {
    let sources = workspace_sources(root)?;
    let all = lint_sources(&sources);
    let (fresh, baselined) = baseline.partition(all);
    Ok(LintReport { fresh, baselined, files: sources.len() })
}
