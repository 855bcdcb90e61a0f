//! The graph-powered rule families: panic-reach, nondet-flow, and
//! lock-order.
//!
//! Module map (the graph engine's third layer — see ARCHITECTURE.md):
//!
//! - [`panic_reach`] — designated hot-path entry points must not
//!   *transitively* reach a panicking construct through unshielded
//!   edges; findings carry the full call chain to the sink line.
//! - [`nondet_flow`] — wall-clock / unseeded-RNG reads are taint
//!   sources propagated along call edges; determinism-critical roots
//!   must not reach one except through the blessed `core::budget`
//!   layer (edges into `budget.rs` are never traversed, which is
//!   exactly the "clock policy lives in budget" contract).
//! - [`lock_order`] — per-function lock acquisition sequences are
//!   propagated through calls; pairwise inverted orders and
//!   same-class re-acquisition (std `Mutex` is not reentrant) are
//!   flagged with the witness chain.
//!
//! Suppression is line-local like every other rule: the violation is
//! attributed to the *sink* line (panic-reach), the *source* line
//! (nondet-flow), or the second acquisition's line in the witnessing
//! function (lock-order), and a `lint:allow(<rule>): <reason>` tag on
//! that line justifies it.

use crate::graph::{Event, Graph};
use crate::index::{FileView, Index};
use crate::rules::{has_token, is_bench, Violation, PANIC_TOKENS, TIME_TOKENS, UNSEEDED_RNG_TOKENS};
use std::collections::BTreeMap;

/// Hot-path entry points for panic-reach: (file, fn name). Everything
/// transitively callable from these, minus `catch_unwind`-shielded
/// edges, must be panic-free.
const PANIC_REACH_ENTRIES: [(&str, &str); 17] = [
    // The shielded evaluation surface searchers program against.
    ("crates/core/src/evaluator.rs", "try_evaluate"),
    ("crates/core/src/evaluator.rs", "try_evaluate_budgeted"),
    ("crates/core/src/evaluator.rs", "try_evaluate_cancellable"),
    ("crates/core/src/evaluator.rs", "evaluate_or_worst"),
    // The wire decoders face untrusted bytes.
    ("crates/evald/src/wire.rs", "decode_request"),
    ("crates/evald/src/wire.rs", "decode_response"),
    // Distributed routing and the supervisor tick run outside any
    // catch_unwind shield: a panic kills a client thread or the fleet.
    ("crates/core/src/remote.rs", "evaluate_raw"),
    ("crates/evald/src/launch.rs", "supervise_once"),
    // The durable trial store decodes untrusted on-disk bytes (a torn
    // or corrupted segment) on open and load, and append runs inside
    // the bench write-through path; all must fail with RepoError, never
    // panic.
    ("crates/core/src/repo.rs", "open"),
    ("crates/core/src/repo.rs", "load"),
    ("crates/core/src/repo.rs", "append"),
    // The serving path: its wire decoders face untrusted request
    // frames and the artifact decoder faces untrusted files.
    ("crates/serve/src/wire.rs", "decode_request"),
    ("crates/serve/src/wire.rs", "decode_response"),
    ("crates/serve/src/artifact.rs", "decode"),
    // The shared frame server's per-connection loop, plus each
    // protocol's frame handler (the loop reaches them through a
    // closure, which the call graph cannot follow): a panic anywhere
    // under them drops a client or, via the accept loop, the daemon.
    ("crates/evald/src/server.rs", "serve_connection"),
    ("crates/evald/src/server.rs", "handle_frame"),
    ("crates/serve/src/server.rs", "handle_frame"),
];

/// Files where slice/array indexing counts as a panic-reach sink. The
/// evaluation cone tolerates a panic (catch_unwind burns the trial);
/// the distributed layer does not — an out-of-bounds index takes out a
/// worker, the client pool, or the supervisor — and the trial store
/// decodes arbitrary (possibly torn) on-disk bytes, where an index
/// panic would turn a recoverable corrupt tail into a crash loop. The
/// shared byte codec sits under every one of those decoders. Other
/// matrix-shaped indexing in `preprocess`/`models`/`linalg` stays
/// idiomatic and out of scope.
const INDEX_SINK_FILES: [&str; 13] = [
    "crates/linalg/src/codec.rs",
    "crates/evald/src/wire.rs",
    "crates/evald/src/client.rs",
    "crates/evald/src/fleet.rs",
    "crates/evald/src/launch.rs",
    "crates/evald/src/server.rs",
    "crates/evald/src/service.rs",
    "crates/core/src/remote.rs",
    "crates/core/src/repo.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/artifact.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/client.rs",
];

/// Panicking constructs beyond [`PANIC_TOKENS`]: `std::panic::panic_any`
/// panics without the `panic!(` spelling (the fault injector uses it).
const EXTRA_PANIC_TOKENS: [&str; 1] = ["panic_any"];

/// Determinism-critical roots for nondet-flow.
const NONDET_FLOW_OWNER_ROOTS: [(&str, &str); 2] = [
    ("crates/core/src/cache.rs", "CacheKey"),
    ("crates/core/src/prefix.rs", "PrefixKey"),
];
const NONDET_FLOW_FN_ROOTS: [(&str, &str); 4] = [
    ("crates/core/src/remote.rs", "shard"),
    ("crates/core/src/remote.rs", "shard_weight"),
    ("crates/core/src/remote.rs", "shard_order"),
    ("crates/preprocess/src/pipeline.rs", "key"),
];
/// Every `Searcher::search` impl is a root: the proposal sequence must
/// be a pure function of the seed and the trial history.
const NONDET_FLOW_SEARCH_PREFIX: &str = "crates/search/src/";

/// The blessed wall-clock layer: taint never propagates through it.
const BLESSED_TIME_FILE: &str = "crates/core/src/budget.rs";

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_text(file: &FileView, line: usize) -> &str {
    let start = file.line_starts[line - 1];
    let end = file
        .line_starts
        .get(line)
        .map(|&e| e.saturating_sub(1))
        .unwrap_or(file.cleaned.len());
    &file.cleaned[start..end]
}

fn violation(
    ix: &Index,
    rule: &'static str,
    file: usize,
    line: usize,
    message: String,
    chain: Vec<String>,
) -> Violation {
    let fv = &ix.files[file];
    Violation {
        rule,
        path: fv.path.clone(),
        line,
        message,
        excerpt: line_text(fv, line).trim().to_string(),
        chain,
    }
}

/// Body line range of item `id` (1-based, inclusive).
fn body_lines(ix: &Index, id: usize) -> (usize, usize) {
    let f = &ix.fns[id];
    let fv = &ix.files[f.file];
    (fv.line_of(f.body_open), fv.line_of(f.body_close))
}

/// Does this cleaned line contain a fallible slice/array index
/// expression? `v[i]`, `v[i..]`, `m[r][c]` count; `#[attr]`, `vec![`,
/// type positions (`[u8; 4]`), and the infallible `[..]` do not.
fn has_index_expr(line: &str) -> bool {
    let b = line.as_bytes();
    for i in 0..b.len() {
        if b[i] != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1];
        if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        // Matching `]` on the same line (multi-line index exprs are not
        // idiomatic in this codebase).
        let mut depth = 0usize;
        let mut end = None;
        for (j, &c) in b.iter().enumerate().skip(i) {
            match c {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { continue };
        if line[i + 1..end].trim() == ".." {
            continue; // RangeFull never panics
        }
        return true;
    }
    false
}

/// Graph-rule configuration that does not resolve against `ix`: a
/// listed file that is absent, or a panic-reach entry or nondet-flow
/// root that names no non-test fn (see [`crate::stale_config`]).
pub(crate) fn stale_config(ix: &Index) -> Vec<String> {
    let exists = |path: &str| ix.files.iter().any(|f| f.path == path);
    let mut out: Vec<String> = INDEX_SINK_FILES
        .iter()
        .chain([&BLESSED_TIME_FILE])
        .filter(|path| !exists(path))
        .map(|path| format!("{path}: configured file does not exist"))
        .collect();
    for (path, name) in PANIC_REACH_ENTRIES.iter().chain(&NONDET_FLOW_FN_ROOTS) {
        if entry_ids(ix, &[(path, name)]).is_empty() {
            out.push(format!("{path}: entry `fn {name}` names no fn"));
        }
    }
    for (path, owner) in NONDET_FLOW_OWNER_ROOTS {
        let owned = |f: &crate::index::FnItem| {
            !f.is_test && ix.files[f.file].path == path && f.owner.as_deref() == Some(owner)
        };
        if !ix.fns.iter().any(owned) {
            out.push(format!("{path}: root `impl {owner}` has no fn"));
        }
    }
    if !ix.files.iter().any(|f| f.path.starts_with(NONDET_FLOW_SEARCH_PREFIX)) {
        out.push(format!("{NONDET_FLOW_SEARCH_PREFIX}: no file under the configured prefix"));
    }
    out
}

/// Resolve entry ids for (file, name) pairs. Missing entries are
/// skipped, because fixture runs hand `lint_sources` a subset of the
/// workspace; [`stale_config`] is what catches a stale entry.
fn entry_ids(ix: &Index, entries: &[(&str, &str)]) -> Vec<usize> {
    ix.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && entries.iter().any(|(p, n)| ix.files[f.file].path == *p && f.name == *n)
        })
        .map(|(id, _)| id)
        .collect()
}

// ------------------------------------------------------------ panic-reach

pub fn panic_reach(ix: &Index, graph: &Graph, out: &mut Vec<Violation>) {
    let entries = entry_ids(ix, &PANIC_REACH_ENTRIES);
    if entries.is_empty() {
        return;
    }
    // One finding per sink line, with the shortest entry chain.
    let mut seen_sinks: BTreeMap<(usize, usize), ()> = BTreeMap::new();
    for (id, f) in ix.fns.iter().enumerate() {
        if f.is_test || is_bench(&ix.files[f.file].path) {
            continue;
        }
        let sinks = panic_sinks(ix, id);
        if sinks.is_empty() {
            continue;
        }
        let Some(chain) = graph.reach_chain(ix, &entries, id, true) else { continue };
        let labels: Vec<String> = chain.iter().map(|&i| ix.label(i)).collect();
        for (line, what) in sinks {
            if seen_sinks.insert((f.file, line), ()).is_some() {
                continue;
            }
            out.push(violation(
                ix,
                "panic-reach",
                f.file,
                line,
                format!(
                    "{what} reachable from hot-path entry `{}` — a panic here escapes \
                     every catch_unwind shield; return an EvalError instead",
                    ix.fns[chain[0]].name
                ),
                labels.clone(),
            ));
        }
    }
}

/// Panic sink lines inside item `id`'s body.
fn panic_sinks(ix: &Index, id: usize) -> Vec<(usize, String)> {
    let f = &ix.fns[id];
    let fv = &ix.files[f.file];
    let index_sinks = INDEX_SINK_FILES.contains(&fv.path.as_str());
    let (start, end) = body_lines(ix, id);
    let mut out = Vec::new();
    for line in start..=end {
        if fv.is_test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        let text = line_text(fv, line);
        let mut hit = None;
        for token in PANIC_TOKENS.iter().chain(EXTRA_PANIC_TOKENS.iter()) {
            if has_token(text, token) {
                hit = Some(format!("`{token}`"));
                break;
            }
        }
        if hit.is_none() && index_sinks && has_index_expr(text) {
            hit = Some("fallible slice/array indexing".to_string());
        }
        if let Some(what) = hit {
            out.push((line, what));
        }
    }
    out
}

// ------------------------------------------------------------ nondet-flow

pub fn nondet_flow(ix: &Index, graph: &Graph, out: &mut Vec<Violation>) {
    let roots: Vec<usize> = ix
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && is_nondet_root(ix, f))
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    // Forward BFS from each root; edges into the blessed budget layer
    // are not traversed. First source fn reached gives the shortest
    // laundering chain. One finding per source line.
    let mut findings: BTreeMap<(usize, usize), (Vec<String>, String)> = BTreeMap::new();
    for &root in &roots {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut seen = vec![false; ix.fns.len()];
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(at) = queue.pop_front() {
            if let Some((line, token)) = own_source(ix, at) {
                let mut chain = vec![at];
                let mut cur = at;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                let labels: Vec<String> = chain.iter().map(|&i| ix.label(i)).collect();
                findings
                    .entry((ix.fns[at].file, line))
                    .or_insert((labels, format!("`{token}`")));
                // Keep exploring: other sources may be reachable too.
            }
            for edge in &graph.edges[at] {
                let callee = &ix.fns[edge.callee];
                if callee.is_test
                    || ix.files[callee.file].path == BLESSED_TIME_FILE
                    || seen[edge.callee]
                {
                    continue;
                }
                seen[edge.callee] = true;
                parent.insert(edge.callee, at);
                queue.push_back(edge.callee);
            }
        }
    }
    for ((file, line), (chain, token)) in findings {
        out.push(violation(
            ix,
            "nondet-flow",
            file,
            line,
            format!(
                "{token} read tainting determinism-critical root `{}` — results must be \
                 a pure function of seed, data, and config; route timing through \
                 core::budget or justify that it never feeds a decision",
                chain.first().map(String::as_str).unwrap_or("?"),
            ),
            chain,
        ));
    }
}

fn is_nondet_root(ix: &Index, f: &crate::index::FnItem) -> bool {
    let path = ix.files[f.file].path.as_str();
    if NONDET_FLOW_OWNER_ROOTS
        .iter()
        .any(|(p, o)| path == *p && f.owner.as_deref() == Some(*o))
    {
        return true;
    }
    if NONDET_FLOW_FN_ROOTS.iter().any(|(p, n)| path == *p && f.name == *n) {
        return true;
    }
    path.starts_with(NONDET_FLOW_SEARCH_PREFIX) && f.name == "search" && f.owner.is_some()
}

/// First wall-clock / unseeded-RNG read inside item `id`'s own body.
fn own_source(ix: &Index, id: usize) -> Option<(usize, &'static str)> {
    let f = &ix.fns[id];
    let fv = &ix.files[f.file];
    if fv.path == BLESSED_TIME_FILE || is_bench(&fv.path) {
        return None;
    }
    let (start, end) = body_lines(ix, id);
    for line in start..=end {
        if fv.is_test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        let text = line_text(fv, line);
        for token in TIME_TOKENS.iter().chain(UNSEEDED_RNG_TOKENS.iter()) {
            if has_token(text, token) {
                return Some((line, token));
            }
        }
    }
    None
}

// ------------------------------------------------------------- lock-order

/// A transitive acquisition reachable from some function: the chain of
/// call labels leading to it and the acquisition site itself.
#[derive(Debug, Clone)]
struct AcqPath {
    /// Call-chain labels from the function being summarized (exclusive)
    /// down to the acquiring function (inclusive); empty for a direct
    /// acquisition.
    hops: Vec<String>,
    /// `path:line` of the actual `.lock()` site.
    site: String,
}

pub fn lock_order(ix: &Index, graph: &Graph, out: &mut Vec<Violation>) {
    // Summaries: class -> representative path, per function (memoized
    // DFS; cycles terminate via the in-progress marker).
    let mut memo: Vec<Option<BTreeMap<String, AcqPath>>> = vec![None; ix.fns.len()];
    let mut visiting = vec![false; ix.fns.len()];
    for id in 0..ix.fns.len() {
        summarize(ix, graph, id, &mut memo, &mut visiting);
    }

    // Walk each function's events in order under the conservative hold
    // model: a bound guard is held to the end of the function.
    // pair (held class, acquired class) -> witness.
    struct Witness {
        file: usize,
        line: usize,
        held_line: usize,
        chain: Vec<String>,
        site: String,
    }
    let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for (id, f) in ix.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let fv = &ix.files[f.file];
        // (class, acquisition line, binding name if a simple `let`).
        let mut held: Vec<(String, usize, Option<String>)> = Vec::new();
        for event in &graph.events[id] {
            match event {
                Event::Acquire(a) => {
                    for (h, hl, _) in &held {
                        pairs.entry((h.clone(), a.class.clone())).or_insert(Witness {
                            file: f.file,
                            line: a.line,
                            held_line: *hl,
                            chain: vec![ix.label(id)],
                            site: format!("{}:{}", fv.path, a.line),
                        });
                    }
                    if a.bound {
                        held.push((a.class.clone(), a.line, a.binding.clone()));
                    }
                }
                Event::Call(c) => {
                    if ix.fns[c.callee].is_test {
                        continue;
                    }
                    let summary = memo[c.callee].clone().unwrap_or_default();
                    for (class, path) in &summary {
                        for (h, hl, _) in &held {
                            // Summary hops are exclusive of the callee
                            // itself, so splice its label in.
                            let mut chain = vec![ix.label(id), ix.label(c.callee)];
                            chain.extend(path.hops.iter().cloned());
                            pairs.entry((h.clone(), class.clone())).or_insert(Witness {
                                file: f.file,
                                line: c.line,
                                held_line: *hl,
                                chain,
                                site: path.site.clone(),
                            });
                        }
                    }
                    if ix.fns[c.callee].returns_guard
                        && line_text(fv, c.line).contains("let ")
                    {
                        // The callee's guard outlives the call: its
                        // direct classes become held here.
                        let binding = crate::graph::let_binding(line_text(fv, c.line));
                        for event in &graph.events[c.callee] {
                            if let Event::Acquire(a) = event {
                                held.push((a.class.clone(), c.line, binding.clone()));
                            }
                        }
                    }
                }
                Event::Release { name } => {
                    // `drop(name)` releases the most recent guard bound
                    // to that name (shadowing picks the innermost).
                    if let Some(at) =
                        held.iter().rposition(|(_, _, b)| b.as_deref() == Some(name))
                    {
                        held.remove(at);
                    }
                }
            }
        }
    }

    // Same-class re-acquisition: std::sync::Mutex self-deadlocks.
    for ((h, a), w) in &pairs {
        if h == a {
            out.push(violation(
                ix,
                "lock-order",
                w.file,
                w.line,
                format!(
                    "lock `{a}` acquired at {} while already held since line {} — \
                     std::sync::Mutex is not reentrant, so this self-deadlocks unless \
                     the first guard is provably dropped first",
                    w.site, w.held_line
                ),
                w.chain.clone(),
            ));
        }
    }
    // Pairwise inversion: (A held -> B acquired) and (B held -> A).
    for ((h, a), w) in &pairs {
        if h < a {
            if let Some(rev) = pairs.get(&(a.clone(), h.clone())) {
                let rev_at = format!("{}:{}", ix.files[rev.file].path, rev.line);
                out.push(violation(
                    ix,
                    "lock-order",
                    w.file,
                    w.line,
                    format!(
                        "inconsistent lock order: `{h}` then `{a}` here, but `{a}` then \
                         `{h}` at {rev_at} — a deadlock window under concurrent callers",
                    ),
                    w.chain.clone(),
                ));
                out.push(violation(
                    ix,
                    "lock-order",
                    rev.file,
                    rev.line,
                    format!(
                        "inconsistent lock order: `{a}` then `{h}` here, but `{h}` then \
                         `{a}` at {}:{} — a deadlock window under concurrent callers",
                        ix.files[w.file].path, w.line,
                    ),
                    rev.chain.clone(),
                ));
            }
        }
    }
}

/// Classes (with representative paths) acquired during a call to `id`,
/// including everything its callees acquire.
fn summarize(
    ix: &Index,
    graph: &Graph,
    id: usize,
    memo: &mut Vec<Option<BTreeMap<String, AcqPath>>>,
    visiting: &mut Vec<bool>,
) -> BTreeMap<String, AcqPath> {
    if let Some(done) = &memo[id] {
        return done.clone();
    }
    if visiting[id] {
        return BTreeMap::new(); // recursion: the cycle adds nothing new
    }
    visiting[id] = true;
    let mut out: BTreeMap<String, AcqPath> = BTreeMap::new();
    let fv = &ix.files[ix.fns[id].file];
    for event in &graph.events[id] {
        match event {
            // A transient acquisition still deadlocks a caller holding
            // the same class, so releases don't edit the summary.
            Event::Release { .. } => {}
            Event::Acquire(a) => {
                out.entry(a.class.clone()).or_insert(AcqPath {
                    hops: Vec::new(),
                    site: format!("{}:{}", fv.path, a.line),
                });
            }
            Event::Call(c) => {
                if ix.fns[c.callee].is_test {
                    continue;
                }
                for (class, sub) in summarize(ix, graph, c.callee, memo, visiting) {
                    out.entry(class).or_insert_with(|| {
                        let mut hops = vec![ix.label(c.callee)];
                        hops.extend(sub.hops.iter().cloned());
                        AcqPath { hops, site: sub.site.clone() }
                    });
                }
            }
        }
    }
    visiting[id] = false;
    memo[id] = Some(out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_expr_detection() {
        assert!(has_index_expr("let x = buf[i];"));
        assert!(has_index_expr("let x = &buf[got..];"));
        assert!(has_index_expr("m[r][c] = 0.0;"));
        assert!(!has_index_expr("let x = &frame[..];"));
        assert!(!has_index_expr("#[derive(Debug)]"));
        assert!(!has_index_expr("let v = vec![1, 2];"));
        assert!(!has_index_expr("let t: [u8; 4] = x;"));
        assert!(!has_index_expr("fn f(xs: &[f64]) {}"));
    }
}
