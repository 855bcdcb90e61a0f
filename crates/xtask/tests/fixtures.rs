//! Fixture suite for the lint engine: every rule family must (a) fire
//! on a seeded violation, (b) stay quiet on the idiomatic alternative,
//! and (c) respect a justified `lint:allow` tag — while malformed or
//! stale tags are themselves violations.
//!
//! Fixtures are synthetic sources handed straight to
//! [`xtask::rules::lint_file`] under paths chosen to land in (or out
//! of) each rule's scope.

use xtask::rules::{lint_file, Violation};

fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- nan-ord

#[test]
fn nan_ord_fires_on_raw_partial_cmp() {
    let src = "pub fn worst(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let vs = lint_file("crates/search/src/seeded.rs", src);
    assert_eq!(rules_fired(&vs), vec!["nan-ord"]);
    assert_eq!(vs[0].line, 2);
}

#[test]
fn nan_ord_exempts_core_order_and_ignores_strings_and_comments() {
    let order = "pub fn cmp(a: &f64, b: &f64) { a.partial_cmp(b); }\n";
    assert!(lint_file("crates/core/src/order.rs", order).is_empty());

    let masked = "// partial_cmp in a comment\nlet s = \"partial_cmp\";\nlet r = r#\"partial_cmp\"#;\n";
    assert!(lint_file("crates/search/src/seeded.rs", masked).is_empty());
}

#[test]
fn nan_ord_respects_justified_allow() {
    let src = "\
// lint:allow(nan-ord): ordering feeds a debug log only, never a selection
let x = a.partial_cmp(&b);
";
    assert!(lint_file("crates/search/src/seeded.rs", src).is_empty());
}

// ----------------------------------------------------------------- nondet

#[test]
fn nondet_fires_on_wall_clock_outside_budget() {
    let src = "pub fn f() { let t = std::time::Instant::now(); }\n";
    let vs = lint_file("crates/search/src/seeded.rs", src);
    assert_eq!(rules_fired(&vs), vec!["nondet"]);
}

#[test]
fn nondet_exempts_budget_bench_and_tests() {
    let src = "pub fn f() { let t = std::time::Instant::now(); }\n";
    assert!(lint_file("crates/core/src/budget.rs", src).is_empty());
    assert!(lint_file("crates/bench/src/lib.rs", src).is_empty());

    let in_tests = "\
#[cfg(test)]
mod tests {
    fn t() { let t = std::time::Instant::now(); }
}
";
    assert!(lint_file("crates/search/src/seeded.rs", in_tests).is_empty());
}

#[test]
fn nondet_fires_on_unseeded_rng_everywhere() {
    let src = "pub fn f() { let mut rng = rand::thread_rng(); }\n";
    let vs = lint_file("crates/core/src/budget.rs", src);
    assert_eq!(rules_fired(&vs), vec!["nondet"]);
    assert!(vs[0].message.contains("unseeded RNG"));
}

#[test]
fn nondet_fires_on_hash_containers_in_det_critical_modules_only() {
    let src = "use std::collections::HashMap;\npub fn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
    let vs = lint_file("crates/core/src/history.rs", src);
    assert_eq!(rules_fired(&vs), vec!["nondet"]);
    // Same source outside the determinism-critical list: clean.
    assert!(lint_file("crates/search/src/seeded.rs", src).is_empty());
    // BTreeMap is the sanctioned container.
    let btree = "use std::collections::BTreeMap;\npub fn f() { let m: BTreeMap<u8, u8> = BTreeMap::new(); }\n";
    assert!(lint_file("crates/core/src/history.rs", btree).is_empty());
}

#[test]
fn nondet_respects_justified_allow() {
    let src = "\
pub fn f() {
    // lint:allow(nondet): keyed lookup only; iteration order is never observed
    let m: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
}
";
    assert!(lint_file("crates/core/src/history.rs", src).is_empty());
}

// --------------------------------------------------------- panic-boundary

#[test]
fn panic_boundary_fires_in_hot_path_modules() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    for path in [
        "crates/core/src/batch.rs",
        "crates/core/src/evaluator.rs",
        "crates/preprocess/src/seeded.rs",
        "crates/models/src/seeded.rs",
    ] {
        let vs = lint_file(path, src);
        assert_eq!(rules_fired(&vs), vec!["panic-boundary"], "{path}");
    }
    let explicit = "pub fn f() { panic!(\"boom\"); }\n";
    assert_eq!(rules_fired(&lint_file("crates/models/src/seeded.rs", explicit)), vec![
        "panic-boundary"
    ]);
}

#[test]
fn panic_boundary_covers_the_distributed_eval_path() {
    // The wire decoder faces untrusted bytes and the remote evaluator
    // sits inside every distributed search — both are hot-path scoped.
    let src = "pub fn f(x: Option<u8>) -> u8 { x.expect(\"always there\") }\n";
    for path in ["crates/evald/src/wire.rs", "crates/core/src/remote.rs"] {
        let vs = lint_file(path, src);
        assert_eq!(rules_fired(&vs), vec!["panic-boundary"], "{path}");
    }
    // The rest of the evald crate (server loop, CLI) is not hot-path.
    assert!(lint_file("crates/evald/src/server.rs", src).is_empty());
}

#[test]
fn nondet_covers_the_worker_context_map() {
    // The worker's context map feeds aggregated stats; hash containers
    // are banned there like in the other determinism-critical modules.
    let src = "pub fn f() { let m: std::collections::HashMap<u8, u8> = Default::default(); }\n";
    let vs = lint_file("crates/evald/src/service.rs", src);
    assert_eq!(rules_fired(&vs), vec!["nondet"]);
    assert!(lint_file("crates/evald/src/client.rs", src).is_empty());
}

#[test]
fn panic_boundary_ignores_cold_modules_total_fallbacks_and_tests() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(lint_file("crates/search/src/seeded.rs", src).is_empty());

    let total = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
    assert!(lint_file("crates/models/src/seeded.rs", total).is_empty());

    let in_tests = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
    assert!(lint_file("crates/models/src/seeded.rs", in_tests).is_empty());
}

#[test]
fn panic_boundary_respects_justified_allow() {
    let src = "\
pub fn f(slots: &[Option<u8>]) -> u8 {
    // lint:allow(panic-boundary): every slot is written exactly once before this read
    slots[0].unwrap()
}
";
    assert!(lint_file("crates/core/src/batch.rs", src).is_empty());
}

// ----------------------------------------------------------- cache-purity

#[test]
fn cache_purity_fires_inside_cache_key_code() {
    let src = "\
pub struct CacheKey;
impl CacheKey {
    pub fn new() -> u64 {
        let t = std::time::Instant::now();
        0
    }
}
";
    let vs = lint_file("crates/core/src/cache.rs", src);
    // The clock read violates cache-purity; the same line also violates
    // the workspace-wide nondet time rule.
    assert!(rules_fired(&vs).contains(&"cache-purity"));

    let interior = "\
pub struct CacheKey;
impl CacheKey {
    fn memo() -> std::cell::RefCell<u64> {
        std::cell::RefCell::new(0)
    }
}
";
    let vs = lint_file("crates/core/src/cache.rs", interior);
    assert_eq!(rules_fired(&vs), vec!["cache-purity"]);
}

#[test]
fn cache_purity_scopes_to_named_spans_only() {
    // RefCell *outside* the CacheKey impl: cache.rs keeps its mutex'd
    // store; purity applies to key/fingerprint computation only.
    let src = "\
pub struct CacheKey;
impl CacheKey {
    pub fn fingerprint() -> u64 { 0 }
}
pub struct Store {
    inner: std::sync::Mutex<u64>,
}
";
    assert!(lint_file("crates/core/src/cache.rs", src).is_empty());
    // fnv1a is covered wherever it appears in the byte codec.
    let fnv = "fn fnv1a(bytes: &[u8]) -> u64 {\n    let h = std::time::SystemTime::now();\n    0\n}\n";
    let vs = lint_file("crates/linalg/src/codec.rs", fnv);
    assert!(rules_fired(&vs).contains(&"cache-purity"));
    // So is the fit memo's content digest: a std hasher or a cell
    // inside it fires, the same tokens beside it do not.
    let digest = "\
fn murmur3_x64_128(words: &[u64]) -> u128 {
    let h = std::collections::hash_map::DefaultHasher::new();
    let seen = std::cell::Cell::new(0u64);
    0
}
fn beside() -> std::cell::Cell<u64> {
    std::cell::Cell::new(0)
}
";
    let vs = lint_file("crates/linalg/src/codec.rs", digest);
    assert_eq!(rules_fired(&vs), vec!["cache-purity"]);
    let mut lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
    lines.dedup();
    assert_eq!(lines, vec![2, 3]);
}

#[test]
fn cache_purity_respects_justified_allow() {
    let src = "\
pub struct CacheKey;
impl CacheKey {
    pub fn new() -> u64 {
        // lint:allow(cache-purity): fixture — proves the tag machinery, not a real site
        // lint:allow(nondet): fixture — same line trips the workspace time rule too
        // lint:allow(nondet-flow): fixture — CacheKey fns are taint roots, so the graph rule fires here too
        let t = std::time::Instant::now();
        0
    }
}
";
    assert!(lint_file("crates/core/src/cache.rs", src).is_empty());
}

// ------------------------------------------------------------ tag hygiene

#[test]
fn bad_tags_are_violations() {
    let empty_reason = "// lint:allow(nan-ord):\nlet x = a.partial_cmp(&b);\n";
    let vs = lint_file("crates/search/src/seeded.rs", empty_reason);
    assert!(rules_fired(&vs).contains(&"bad-tag"));
    // The un-justified violation still fires.
    assert!(rules_fired(&vs).contains(&"nan-ord"));

    let unknown_rule = "// lint:allow(made-up-rule): reason\nlet x = 1;\n";
    let vs = lint_file("crates/search/src/seeded.rs", unknown_rule);
    assert_eq!(rules_fired(&vs), vec!["bad-tag"]);
}

#[test]
fn stale_allows_are_violations() {
    let src = "// lint:allow(nan-ord): nothing here actually violates it\nlet x = 1;\n";
    let vs = lint_file("crates/search/src/seeded.rs", src);
    assert_eq!(rules_fired(&vs), vec!["unused-allow"]);
}

// ------------------------------------------------- the workspace itself

/// The repo's own acceptance criterion: the workspace is lint-clean
/// (every exception is an inline justified tag). This is the same
/// check CI runs via `lint`.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean_without_baseline() {
    let report = xtask::lint_workspace(&workspace_root()).expect("scan workspace");
    assert!(report.files > 60, "expected to scan the whole workspace, saw {}", report.files);
    let rendered: Vec<String> = report.violations.iter().map(|v| v.render()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

/// Every file, entry point, root and span the rules are configured with
/// resolves in the workspace: moving code must re-point the config, not
/// silently shrink a rule's coverage.
#[test]
fn lint_config_resolves_against_the_workspace() {
    let sources = xtask::workspace_sources(&workspace_root()).expect("scan workspace");
    let stale = xtask::stale_config(&sources);
    assert!(stale.is_empty(), "stale lint config:\n{}", stale.join("\n"));
}

#[test]
fn stale_config_names_missing_files_entries_and_spans() {
    let stale = xtask::stale_config(&[]);
    for want in [
        "crates/linalg/src/codec.rs: configured file does not exist",
        "crates/evald/src/server.rs: entry `fn serve_connection` names no fn",
        "crates/core/src/cache.rs: root `impl CacheKey` has no fn",
        "crates/serve/src/: no file under the configured prefix",
    ] {
        assert!(stale.iter().any(|s| s == want), "missing `{want}` in {stale:#?}");
    }
    // The file exists but the introducer no longer opens a block.
    let moved = [("crates/linalg/src/codec.rs".to_string(), "pub fn other() {}\n".to_string())];
    let stale = xtask::stale_config(&moved);
    assert!(stale.contains(&"crates/linalg/src/codec.rs: cache-purity span `fn fnv1a` opens no block".to_string()), "{stale:#?}");
    assert!(stale.contains(&"crates/linalg/src/codec.rs: cache-purity span `fn murmur3_x64_128` opens no block".to_string()), "{stale:#?}");
    assert!(!stale.iter().any(|s| s == "crates/linalg/src/codec.rs: configured file does not exist"));
}

// ------------------------------------------------- scanner regressions

/// Raw strings with hash delimiters, nested block comments, and their
/// interactions. Each case seeds an `unwrap` *inside* the masked
/// region and real code after it: the rule token must survive only in
/// the code half.
mod scanner_regressions {
    use xtask::scanner::scan;

    #[test]
    fn raw_string_hash_interior_is_blanked() {
        let s = scan("let a = r#\"x.unwrap()\"#; let b = y.unwrap();\n");
        assert!(!s.lines[0][..24].contains("unwrap"), "raw interior blanked");
        assert!(s.lines[0].contains("let b = y.unwrap();"), "code after raw string intact");
    }

    #[test]
    fn two_hash_raw_string_ignores_single_hash_closer() {
        // Delimiter is two hashes; an interior `"#` must NOT close it.
        let s = scan("let a = r##\"end\"# not yet\"##; let b = y.unwrap();\n");
        assert!(!s.lines[0].contains("not yet"));
        assert!(s.lines[0].contains("let b = y.unwrap();"));
    }

    #[test]
    fn byte_raw_string_is_masked() {
        let s = scan("let a = br#\"x.unwrap()\"#; let b = y.unwrap();\n");
        assert!(!s.lines[0][..25].contains("unwrap"));
        assert!(s.lines[0].contains("let b = y.unwrap();"));
    }

    #[test]
    fn multiline_raw_string_blanks_interior_lines() {
        let s = scan("let a = r#\"line one\nx.unwrap()\nlast\"#;\nlet b = y.unwrap();\n");
        assert!(!s.lines[1].contains("unwrap"), "raw interior line blanked");
        assert!(s.lines[3].contains("let b = y.unwrap();"));
    }

    #[test]
    fn string_containing_comment_markers_stays_a_string() {
        let s = scan("let s = \"/* not a comment\"; let t = y.unwrap(); let u = \"*/\";\n");
        assert!(s.lines[0].contains("let t = y.unwrap();"), "code between strings stays code");
    }

    #[test]
    fn block_comment_closes_at_terminator_even_inside_quotes() {
        // rustc closes a block comment at the first `*/`, quotes or not.
        let s = scan("/* \"*/ let x = y.unwrap();\n");
        assert!(s.lines[0].contains("let x = y.unwrap();"));
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let s = scan("/* outer /* \"inner\" */ tail */ let x = y.unwrap();\n");
        assert!(s.lines[0].contains("let x = y.unwrap();"));
    }

    #[test]
    fn string_with_open_marker_then_real_nested_comment() {
        let s =
            scan("let s = \"a /* b\"; /* real /* nested */ comment */ let c = y.unwrap();\n");
        assert!(s.lines[0].contains("let c = y.unwrap();"));
        assert!(!s.lines[0].contains("real"));
    }

    #[test]
    fn char_literals_do_not_start_raw_strings() {
        let s = scan("let a = 'r'; let h = '#'; let q = b'r'; let b2 = y.unwrap();\n");
        assert!(s.lines[0].contains("let b2 = y.unwrap();"));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let s = scan("let r#type = 1; let b = y.unwrap();\n");
        assert!(s.lines[0].contains("let b = y.unwrap();"));
    }

    #[test]
    fn format_string_with_hash_brace_and_escaped_quote() {
        let s = scan("write!(f, \"{:#?} r#\\\"\", x); let b = y.unwrap();\n");
        assert!(s.lines[0].contains("let b = y.unwrap();"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan(
            "fn f<'a>(x: &'a str) { let s: &'static str = \"x.unwrap()\"; y.unwrap(); }\n",
        );
        assert!(s.lines[0].contains("&'static str"));
        assert!(s.lines[0].contains("y.unwrap();"));
        assert!(!s.lines[0].contains("x.unwrap"));
    }

    #[test]
    fn raw_string_inside_line_comment_is_comment() {
        let s = scan("// r#\"x.unwrap()\"#\nlet b = y.unwrap();\n");
        assert!(!s.lines[0].contains("unwrap"));
        assert!(s.lines[1].contains("let b = y.unwrap();"));
    }
}

// ------------------------------------------------- graph rule families

/// Multi-file fixtures driven through [`xtask::lint_sources`]: the
/// cross-file families must find seeded chains and render them.
mod graph_rules {
    use xtask::lint_sources;
    use xtask::rules::Violation;

    fn lint(sources: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> =
            sources.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        lint_sources(&owned)
    }

    fn of<'a>(vs: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
        vs.iter().filter(|v| v.rule == rule).collect()
    }

    #[test]
    fn panic_reach_follows_a_three_hop_chain_across_files() {
        let vs = lint(&[
            ("crates/core/src/evaluator.rs", "pub fn try_evaluate() { mid_hop(); }\n"),
            ("crates/core/src/remote.rs", "pub fn mid_hop() { deep_sink(); }\n"),
            (
                "crates/evald/src/wire.rs",
                "pub fn deep_sink() {\n    let x: Option<u8> = None;\n    x.unwrap();\n}\n",
            ),
        ]);
        let hits = of(&vs, "panic-reach");
        assert_eq!(hits.len(), 1, "{vs:?}");
        let v = hits[0];
        assert_eq!((v.path.as_str(), v.line), ("crates/evald/src/wire.rs", 3));
        assert_eq!(v.chain.len(), 3, "entry, hop, sink: {:?}", v.chain);
        assert!(v.chain[0].starts_with("try_evaluate ("));
        assert!(v.chain[1].starts_with("mid_hop ("));
        assert!(v.chain[2].starts_with("deep_sink ("));
        let rendered = v.render();
        assert!(
            rendered.contains("chain: try_evaluate (crates/core/src/evaluator.rs:1) -> mid_hop"),
            "chain must be rendered: {rendered}"
        );
    }

    #[test]
    fn panic_reach_respects_catch_unwind_shields() {
        let vs = lint(&[
            (
                "crates/core/src/evaluator.rs",
                "pub fn try_evaluate() { let r = std::panic::catch_unwind(|| risky()); }\n",
            ),
            ("crates/core/src/remote.rs", "pub fn risky() { None::<u8>.unwrap(); }\n"),
        ]);
        assert!(of(&vs, "panic-reach").is_empty(), "shielded edge must not be traversed");
    }

    #[test]
    fn panic_reach_honors_a_justified_allow_on_the_sink_line() {
        let vs = lint(&[
            ("crates/core/src/evaluator.rs", "pub fn try_evaluate() { hop(); }\n"),
            (
                "crates/core/src/remote.rs",
                "pub fn hop() {\n    // lint:allow(panic-reach): fixture — sink is statically impossible\n    None::<u8>.unwrap();\n}\n",
            ),
        ]);
        assert!(of(&vs, "panic-reach").is_empty());
    }

    #[test]
    fn panic_reach_covers_the_trial_store_persistence_entry_points() {
        // `TrialStore::open` decodes untrusted on-disk bytes and `append`
        // runs inside the bench write-through path — both are entry
        // points, so a panic reachable from either must be flagged.
        let vs = lint(&[
            (
                "crates/core/src/repo.rs",
                "pub fn open() { decode_record(); }\npub fn append() { decode_record(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn decode_record() {\n    let x: Option<u8> = None;\n    x.unwrap();\n}\n",
            ),
        ]);
        let hits = of(&vs, "panic-reach");
        assert_eq!(hits.len(), 1, "one finding per sink line: {vs:?}");
        let v = hits[0];
        assert_eq!((v.path.as_str(), v.line), ("crates/core/src/util.rs", 3));
        assert!(
            v.chain[0].starts_with("open (") || v.chain[0].starts_with("append ("),
            "chain starts at a persistence entry point: {:?}",
            v.chain
        );
        // A fn named `open` outside repo.rs is not an entry point.
        let vs = lint(&[
            ("crates/core/src/elsewhere.rs", "pub fn open() { None::<u8>.unwrap(); }\n"),
        ]);
        assert!(of(&vs, "panic-reach").is_empty(), "entry is scoped to repo.rs: {vs:?}");
    }

    #[test]
    fn nondet_flow_catches_taint_laundered_through_a_helper_file() {
        let vs = lint(&[
            (
                "crates/search/src/myalg.rs",
                "struct S;\nimpl S {\n    pub fn search(&self) { launder(); }\n}\n",
            ),
            ("crates/core/src/util.rs", "pub fn launder() { tick(); }\n"),
            (
                "crates/core/src/util2.rs",
                "pub fn tick() {\n    let t = std::time::Instant::now();\n}\n",
            ),
        ]);
        let hits = of(&vs, "nondet-flow");
        assert_eq!(hits.len(), 1, "{vs:?}");
        let v = hits[0];
        assert_eq!((v.path.as_str(), v.line), ("crates/core/src/util2.rs", 2));
        let names: Vec<&str> =
            v.chain.iter().map(|c| c.split(' ').next().unwrap_or("")).collect();
        assert_eq!(names, vec!["search", "launder", "tick"], "laundering chain");
        assert!(v.render().contains("chain: search ("));
    }

    #[test]
    fn nondet_flow_blesses_the_budget_layer() {
        let vs = lint(&[
            (
                "crates/search/src/myalg.rs",
                "struct S;\nimpl S {\n    pub fn search(&self) { budget_probe(); }\n}\n",
            ),
            (
                "crates/core/src/budget.rs",
                "pub fn budget_probe() { let t = std::time::Instant::now(); }\n",
            ),
        ]);
        assert!(of(&vs, "nondet-flow").is_empty(), "edges into budget.rs are never traversed");
    }

    #[test]
    fn lock_order_flags_a_two_lock_inversion_in_both_directions() {
        let src = "\
struct S { alpha: std::sync::Mutex<u8>, beta: std::sync::Mutex<u8> }
impl S {
    pub fn ab(&self) {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
    }
    pub fn ba(&self) {
        let b = self.beta.lock().unwrap();
        let a = self.alpha.lock().unwrap();
    }
}
";
        let vs = lint(&[("crates/evald/src/locks.rs", src)]);
        let hits = of(&vs, "lock-order");
        assert_eq!(hits.len(), 2, "one finding per direction: {vs:?}");
        assert_eq!(hits[0].line, 5, "ab's second acquisition");
        assert_eq!(hits[1].line, 9, "ba's second acquisition");
        assert!(hits[0].message.contains("locks.rs:9"), "cross-references the inverse site");
        assert!(hits[1].message.contains("locks.rs:5"));
        assert!(hits[0].render().contains("chain: ab ("));
    }

    #[test]
    fn lock_order_flags_reacquisition_through_a_wrapper_call() {
        let src = "\
struct S { inner: std::sync::Mutex<u8> }
impl S {
    fn lock(&self) -> std::sync::MutexGuard<'_, u8> {
        self.inner.lock().unwrap()
    }
    pub fn outer(&self) {
        let g = self.lock();
        self.reenter();
    }
    pub fn reenter(&self) {
        let h = self.lock();
    }
}
";
        let vs = lint(&[("crates/evald/src/locks.rs", src)]);
        let hits = of(&vs, "lock-order");
        assert_eq!(hits.len(), 1, "{vs:?}");
        let v = hits[0];
        assert_eq!(v.line, 8, "the reentering call site");
        assert!(v.message.contains("`locks::inner`"));
        let names: Vec<&str> =
            v.chain.iter().map(|c| c.split(' ').next().unwrap_or("")).collect();
        assert_eq!(names, vec!["outer", "reenter", "lock"], "witness chain");
    }

    #[test]
    fn lock_order_sees_an_explicit_drop_release() {
        let src = "\
struct S { alpha: std::sync::Mutex<u8> }
impl S {
    pub fn seq(&self) {
        let g = self.alpha.lock().unwrap();
        drop(g);
        let h = self.alpha.lock().unwrap();
    }
}
";
        let vs = lint(&[("crates/evald/src/locks.rs", src)]);
        assert!(of(&vs, "lock-order").is_empty(), "drop(g) releases the guard: {vs:?}");
    }

    #[test]
    fn lock_order_honors_a_justified_allow_on_the_second_acquisition() {
        let src = "\
struct S { alpha: std::sync::Mutex<u8>, beta: std::sync::Mutex<u8> }
impl S {
    pub fn ab(&self) {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
    }
    pub fn ba(&self) {
        let b = self.beta.lock().unwrap();
        // lint:allow(lock-order): fixture — single-threaded caller, inversion is unreachable
        let a = self.alpha.lock().unwrap();
    }
}
";
        let vs = lint(&[("crates/evald/src/locks.rs", src)]);
        let hits = of(&vs, "lock-order");
        assert_eq!(hits.len(), 1, "only the untagged direction fires: {vs:?}");
        assert_eq!(hits[0].line, 5);
    }
}
