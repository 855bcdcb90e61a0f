//! The line-local lint rules, plus the allow-tag machinery every rule
//! family (including the graph rules in [`crate::graphrules`]) shares.
//!
//! Four line-local families guard the invariants the evaluation
//! service rests on (see ARCHITECTURE.md "Static analysis &
//! invariants"; the three call-graph families live in
//! [`crate::graphrules`]):
//!
//! - **nan-ord** — float comparisons must use the total-order helpers
//!   in `core::order`; a raw `partial_cmp` is one NaN away from a panic
//!   or a nondeterministic sort.
//! - **nondet** — wall-clock reads live in `core::budget` and the bench
//!   harness only; RNGs are always seeded; determinism-critical modules
//!   do not use `HashMap`/`HashSet` (iteration order varies per run).
//! - **panic-boundary** — the evaluation hot path (`core::{batch,
//!   evaluator, cache}`, `preprocess`, `models`) returns errors instead
//!   of panicking: a panic there is contained by `catch_unwind`, but it
//!   costs the trial and hides the real failure taxonomy.
//! - **cache-purity** — cache-identity code (`CacheKey`, `fnv1a`, the
//!   fit memo's `murmur3_x64_128`, `Pipeline::key`) is a pure function
//!   of its inputs: no interior mutability, no clock, no RNG.
//!
//! The pipeline split: `collect_local` gathers raw line-local
//! findings per file; the graph rules append theirs (attributed to
//! sink/source/acquisition lines); `apply_allows` then applies the
//! file's `lint:allow` tags to the combined set, so one suppression
//! mechanism serves all seven families.
//!
//! A violating line can carry `// lint:allow(<rule>): <reason>` (same
//! line, or a comment line directly above) with a non-empty reason.
//! Malformed tags and tags that suppress nothing are violations too
//! (`bad-tag`, `unused-allow`), so the justification record stays
//! honest.

use crate::scanner::{named_spans, CleanSource};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule family (or `bad-tag` / `unused-allow`).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// Trimmed cleaned source of the line.
    pub excerpt: String,
    /// For graph rules: the call chain from entry/root to this line,
    /// as `name (path:line)` labels. Empty for line-local rules.
    pub chain: Vec<String>,
}

impl Violation {
    /// Human-readable report line; graph rules append the call chain.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {} — `{}`",
            self.path, self.line, self.rule, self.message, self.excerpt
        );
        if !self.chain.is_empty() {
            out.push_str(&format!("\n    chain: {}", self.chain.join(" -> ")));
        }
        out
    }
}

/// Evaluation hot-path modules where panicking constructs are banned.
/// `core/remote.rs` and the evald client/fleet/launch/wire modules sit
/// on the distributed eval path: a panic there takes out a worker, a
/// supervisor, or a whole search; the wire decoder in particular faces
/// untrusted bytes, and the client/supervisor must degrade dead
/// workers to failover or worst-error trials, never to a crash.
/// `core/repo.rs` decodes untrusted on-disk bytes the same way the
/// wire decoder does: open+scan over an arbitrary (possibly torn or
/// corrupted) segment file must be total. The whole `serve` crate is
/// hot path too: its decoders face untrusted artifact files and
/// untrusted request frames, and its engine/server answer live
/// traffic where a panic drops the daemon. `linalg/codec.rs` is the
/// byte codec every one of those decoders is built on.
const HOT_PATH: [&str; 12] = [
    "crates/linalg/src/codec.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/evaluator.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/prefix.rs",
    "crates/core/src/lru.rs",
    "crates/core/src/remote.rs",
    "crates/core/src/repo.rs",
    "crates/evald/src/wire.rs",
    "crates/evald/src/client.rs",
    "crates/evald/src/fleet.rs",
    "crates/evald/src/launch.rs",
];
const HOT_PATH_PREFIXES: [&str; 3] =
    ["crates/preprocess/src/", "crates/models/src/", "crates/serve/src/"];

/// Modules whose outputs feed `History`, reports, or cache keys: hash
/// containers (nondeterministic iteration order) need justification.
/// `core/repo.rs` is the durable end of that chain: record identity
/// and segment layout must be pure functions of the trial data —
/// no wall clock, no unstable iteration order.
/// The serve codecs and engine join for the same reason: artifact
/// bytes, wire bytes, and served predictions must be pure functions
/// of their inputs (the train/serve skew and thread-invariance
/// guarantees depend on it). `linalg/codec.rs` encodes all of those
/// bytes and hashes every fingerprint.
const DET_CRITICAL: [&str; 17] = [
    "crates/linalg/src/codec.rs",
    "crates/core/src/history.rs",
    "crates/core/src/report.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/prefix.rs",
    "crates/core/src/lru.rs",
    "crates/core/src/ranking.rs",
    "crates/core/src/patterns.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/framework.rs",
    "crates/core/src/repo.rs",
    "crates/evald/src/service.rs",
    "crates/evald/src/fleet.rs",
    "crates/evald/src/launch.rs",
    "crates/serve/src/artifact.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/wire.rs",
];

/// Cache-identity regions: (file, block introducer). The rule applies
/// inside the brace block following the introducer.
const CACHE_PURITY_SPANS: [(&str, &str); 5] = [
    ("crates/core/src/cache.rs", "impl CacheKey"),
    ("crates/linalg/src/codec.rs", "fn fnv1a"),
    ("crates/linalg/src/codec.rs", "fn murmur3_x64_128"),
    ("crates/core/src/prefix.rs", "impl PrefixKey"),
    ("crates/preprocess/src/pipeline.rs", "fn key"),
];

/// Panicking constructs banned on the hot path. `.unwrap()` is matched
/// with its parens so `unwrap_or` / `unwrap_or_else` (total fallbacks)
/// stay legal.
pub(crate) const PANIC_TOKENS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Wall-clock reads.
pub(crate) const TIME_TOKENS: [&str; 3] = ["Instant::now", "SystemTime::now", "UNIX_EPOCH"];

/// Unseeded / OS-entropy RNG constructions. The vendored `rand` shim
/// only offers `seed_from_u64`, so these also guard against someone
/// widening the shim.
pub(crate) const UNSEEDED_RNG_TOKENS: [&str; 4] =
    ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Interior mutability, clocks, RNG, and unstable hashers — none of
/// which belong in a pure cache-identity computation.
const CACHE_IMPURE_TOKENS: [&str; 17] = [
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicI64",
    "static mut",
    "Instant::now",
    "SystemTime",
    "DefaultHasher",
    "RandomState",
    "thread_rng",
];

pub(crate) fn is_bench(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

fn in_hot_path(path: &str) -> bool {
    HOT_PATH.contains(&path) || HOT_PATH_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Substring search requiring identifier boundaries wherever the token
/// itself starts/ends with an identifier character.
pub(crate) fn has_token(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let head_ident = token.bytes().next().is_some_and(is_ident);
    let tail_ident = token.bytes().last().is_some_and(is_ident);
    let mut from = 0usize;
    while let Some(pos) = line[from..].find(token) {
        let at = from + pos;
        let end = at + token.len();
        let left_ok = !head_ident || at == 0 || !is_ident(bytes[at - 1]);
        let right_ok = !tail_ident || end >= bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Run the full engine (line-local *and* graph rules) over one file.
/// `path` must be repo-relative with forward slashes; `source` is the
/// file's text. Single-file convenience wrapper over
/// [`crate::lint_sources`].
pub fn lint_file(path: &str, source: &str) -> Vec<Violation> {
    crate::lint_sources(&[(path.to_string(), source.to_string())])
}

/// Run the line-local rule collectors over one scanned file.
pub(crate) fn collect_local(path: &str, src: &CleanSource, out: &mut Vec<Violation>) {
    collect_nan_ord(path, src, out);
    collect_nondet(path, src, out);
    collect_panic_boundary(path, src, out);
    collect_cache_purity(path, src, out);
}

/// Apply one file's justification tags to its raw findings: a
/// well-formed allow suppresses every finding of its rule on its target
/// line, and must suppress at least one to be considered used.
/// Malformed tags (`bad-tag`) and stale tags (`unused-allow`) are
/// appended as violations of their own.
pub(crate) fn apply_allows(
    path: &str,
    src: &CleanSource,
    raw: Vec<Violation>,
    out: &mut Vec<Violation>,
) {
    let mut used = vec![false; src.allows.len()];
    for v in raw {
        let mut suppressed = false;
        for (i, allow) in src.allows.iter().enumerate() {
            if allow.rule == v.rule && allow.target == v.line {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }
    for bad in &src.bad_tags {
        out.push(Violation {
            rule: "bad-tag",
            path: path.to_string(),
            line: bad.line,
            message: bad.message.clone(),
            excerpt: excerpt(src, bad.line),
            chain: Vec::new(),
        });
    }
    for (allow, used) in src.allows.iter().zip(&used) {
        if !used {
            out.push(Violation {
                rule: "unused-allow",
                path: path.to_string(),
                line: allow.line,
                message: format!(
                    "lint:allow({}) suppresses nothing on line {} — remove the stale tag",
                    allow.rule, allow.target
                ),
                excerpt: excerpt(src, allow.line),
                chain: Vec::new(),
            });
        }
    }
}

fn excerpt(src: &CleanSource, line: usize) -> String {
    src.lines.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default()
}

fn push(
    out: &mut Vec<Violation>,
    src: &CleanSource,
    path: &str,
    rule: &'static str,
    line: usize,
    message: String,
) {
    out.push(Violation {
        rule,
        path: path.to_string(),
        line,
        message,
        excerpt: excerpt(src, line),
        chain: Vec::new(),
    });
}

/// Lines to scan for `rule`: cleaned, with test code skipped.
fn code_lines(src: &CleanSource) -> impl Iterator<Item = (usize, &str)> {
    src.lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !src.is_test.get(*i).copied().unwrap_or(false))
        .map(|(i, l)| (i + 1, l.as_str()))
}

fn collect_nan_ord(path: &str, src: &CleanSource, out: &mut Vec<Violation>) {
    if path == "crates/core/src/order.rs" {
        return;
    }
    for (line, text) in code_lines(src) {
        if has_token(text, "partial_cmp") {
            push(
                out,
                src,
                path,
                "nan-ord",
                line,
                "`partial_cmp` outside core::order — use order::nan_smallest / \
                 order::nan_largest (total, NaN-deterministic) or f64::total_cmp"
                    .to_string(),
            );
        }
    }
}

fn collect_nondet(path: &str, src: &CleanSource, out: &mut Vec<Violation>) {
    let time_exempt = path == "crates/core/src/budget.rs" || is_bench(path);
    let det_critical = DET_CRITICAL.contains(&path);
    for (line, text) in code_lines(src) {
        if !time_exempt {
            for token in TIME_TOKENS {
                if has_token(text, token) {
                    push(
                        out,
                        src,
                        path,
                        "nondet",
                        line,
                        format!(
                            "wall-clock read `{token}` outside core::budget and the bench \
                             harness — results must not depend on when they run"
                        ),
                    );
                }
            }
        }
        for token in UNSEEDED_RNG_TOKENS {
            if has_token(text, token) {
                push(
                    out,
                    src,
                    path,
                    "nondet",
                    line,
                    format!("unseeded RNG `{token}` — every RNG must derive from an explicit seed"),
                );
            }
        }
        // `use` lines don't iterate anything; the rule fires where the
        // container is actually named in code.
        if det_critical && !text.trim_start().starts_with("use ") {
            for token in ["HashMap", "HashSet"] {
                if has_token(text, token) {
                    push(
                        out,
                        src,
                        path,
                        "nondet",
                        line,
                        format!(
                            "`{token}` in a determinism-critical module — iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet, or justify that the \
                             container is never iterated"
                        ),
                    );
                }
            }
        }
    }
}

fn collect_panic_boundary(path: &str, src: &CleanSource, out: &mut Vec<Violation>) {
    if !in_hot_path(path) {
        return;
    }
    for (line, text) in code_lines(src) {
        for token in PANIC_TOKENS {
            if has_token(text, token) {
                push(
                    out,
                    src,
                    path,
                    "panic-boundary",
                    line,
                    format!(
                        "`{token}` in the evaluation hot path — return an EvalError or use a \
                         total fallback (unwrap_or / map_or); a panic here burns the trial"
                    ),
                );
            }
        }
    }
}

/// Line-rule configuration that does not resolve against `sources`:
/// a listed file that is absent, a prefix no file starts with, or a
/// cache-purity introducer that opens no block (see
/// [`crate::stale_config`]).
pub(crate) fn stale_config(sources: &[(String, CleanSource)]) -> Vec<String> {
    let src = |path: &str| sources.iter().find(|(p, _)| p == path).map(|(_, s)| s);
    let mut out: Vec<String> = HOT_PATH
        .iter()
        .chain(&DET_CRITICAL)
        .filter(|path| src(path).is_none())
        .map(|path| format!("{path}: configured file does not exist"))
        .collect();
    for prefix in HOT_PATH_PREFIXES {
        if !sources.iter().any(|(p, _)| p.starts_with(prefix)) {
            out.push(format!("{prefix}: no file under the configured prefix"));
        }
    }
    for (path, needle) in CACHE_PURITY_SPANS {
        match src(path) {
            None => out.push(format!("{path}: configured file does not exist")),
            Some(s) if named_spans(s, needle).is_empty() => {
                out.push(format!("{path}: cache-purity span `{needle}` opens no block"));
            }
            Some(_) => {}
        }
    }
    out
}

fn collect_cache_purity(path: &str, src: &CleanSource, out: &mut Vec<Violation>) {
    let spans: Vec<(usize, usize)> = CACHE_PURITY_SPANS
        .iter()
        .filter(|(p, _)| *p == path)
        .flat_map(|(_, needle)| named_spans(src, needle))
        .collect();
    if spans.is_empty() {
        return;
    }
    for (line, text) in code_lines(src) {
        if !spans.iter().any(|&(s, e)| line >= s && line <= e) {
            continue;
        }
        for token in CACHE_IMPURE_TOKENS {
            if has_token(text, token) {
                push(
                    out,
                    src,
                    path,
                    "cache-purity",
                    line,
                    format!(
                        "`{token}` inside cache-identity code — fingerprints must be pure \
                         functions of the pipeline, fraction, and evaluator config"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries_respected() {
        assert!(has_token("a.partial_cmp(b)", "partial_cmp"));
        assert!(!has_token("my_partial_cmp2(b)", "partial_cmp"));
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("x.unwrap_or(0)", ".unwrap()"));
        assert!(has_token("HashMap::new()", "HashMap"));
        assert!(!has_token("MyHashMapLike::new()", "HashMap"));
    }
}
