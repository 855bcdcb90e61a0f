//! Workspace item indexer: every `fn` in every scanned file, with its
//! body span, enclosing `impl`/`trait` owner, and lookup tables.
//!
//! Module map (the graph engine's first layer — see ARCHITECTURE.md):
//!
//! - [`FnItem`] — one function: name, owner, file, signature line, body
//!   byte/line span, test-ness, and whether it returns a lock guard.
//! - [`FileView`] — one scanned file: cleaned text, line-start offsets,
//!   and the `impl`/`trait` owner spans recovered by brace matching.
//! - [`Index`] — the workspace: all items plus `by_name` /
//!   `by_owner` resolution tables consumed by [`crate::graph`].
//!
//! Parsing is the same philosophy as [`crate::scanner`]: not a parser.
//! Items are found by scanning the *cleaned* text (comments and string
//! interiors already blanked) for `fn` / `impl` / `trait` tokens at
//! identifier boundaries and brace-matching the blocks that follow.
//! That recovers names, owners, and spans exactly for idiomatic code;
//! soundness caveats live with the resolver in [`crate::graph`].

use crate::scanner::{matching_brace, CleanSource};
use std::collections::BTreeMap;

/// One function item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl Type` / `impl Trait for Type` / `trait Type`
    /// block's type name, if any.
    pub owner: Option<String>,
    /// Index into [`Index::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Byte offset (cleaned text) of the body's `{`.
    pub body_open: usize,
    /// Byte offset (cleaned text) of the body's `}`.
    pub body_close: usize,
    /// True when the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// True when the declared return type mentions a lock `Guard`.
    pub returns_guard: bool,
    /// True when the fn declares a parameter besides its `self`
    /// receiver, so a method call with an empty argument list (`x.f()`)
    /// cannot name it.
    pub takes_args: bool,
}

/// Per-file view shared by the indexer and the call-graph builder.
pub struct FileView {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// File-stem module name (`crates/core/src/remote.rs` → `remote`).
    pub stem: String,
    /// Cleaned text (lines rejoined with `\n`).
    pub cleaned: String,
    /// Byte offset of the start of each 0-based line.
    pub line_starts: Vec<usize>,
    /// Per 0-based line: inside test code.
    pub is_test: Vec<bool>,
}

impl FileView {
    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

/// The workspace item index.
pub struct Index {
    /// One view per scanned file, same order as the input.
    pub files: Vec<FileView>,
    /// Every function item, all files.
    pub fns: Vec<FnItem>,
    /// fn name → item ids (all files, tests included).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (owner type name, fn name) → item ids.
    pub by_owner: BTreeMap<(String, String), Vec<usize>>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of keyword `kw` at identifier boundaries in `text`.
fn keyword_sites(text: &str, kw: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(kw) {
        let at = from + pos;
        from = at + 1;
        let left_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + kw.len();
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(at);
        }
    }
    out
}

/// Read the identifier starting at `at` (skipping a leading `r#`).
fn ident_at(bytes: &[u8], mut at: usize) -> Option<(String, usize)> {
    if bytes.get(at) == Some(&b'r') && bytes.get(at + 1) == Some(&b'#') {
        at += 2;
    }
    let start = at;
    while at < bytes.len() && is_ident_byte(bytes[at]) {
        at += 1;
    }
    if at == start || bytes[start].is_ascii_digit() {
        None
    } else {
        Some((String::from_utf8_lossy(&bytes[start..at]).into_owned(), at))
    }
}

fn skip_ws(bytes: &[u8], mut at: usize) -> usize {
    while at < bytes.len() && bytes[at].is_ascii_whitespace() {
        at += 1;
    }
    at
}

/// `impl`/`trait` block owner spans: (type name, block start, block end).
fn owner_spans(cleaned: &str) -> Vec<(String, usize, usize)> {
    let bytes = cleaned.as_bytes();
    let mut spans = Vec::new();
    for kw in ["impl", "trait"] {
        for at in keyword_sites(cleaned, kw) {
            // Header text runs to the block `{` (or a `;`, which means
            // no block: e.g. `impl Trait for T;` never occurs, but a
            // blanked macro could produce one).
            let mut j = at + kw.len();
            while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] == b';' {
                continue;
            }
            let Some(end) = matching_brace(bytes, j) else { continue };
            let header = &cleaned[at + kw.len()..j];
            let Some(name) = owner_name(kw, header) else { continue };
            spans.push((name, at, end));
        }
    }
    spans
}

/// Extract the owning type name from an `impl`/`trait` header:
/// `impl<T> Foo<T>` → `Foo`, `impl Evaluate for Bar<B>` → `Bar`,
/// `trait Evaluate: Send` → `Evaluate`.
fn owner_name(kw: &str, header: &str) -> Option<String> {
    let mut rest = header.trim();
    // Strip a leading generics list.
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    // `impl Trait for Type` names the implementing type.
    if kw == "impl" {
        if let Some(pos) = rest.find(" for ") {
            rest = rest[pos + " for ".len()..].trim_start();
        }
    }
    // Skip reference/pointer/dyn noise, then take the *last* path
    // segment's head identifier (`crate::remote::RemoteEvaluator<B>` →
    // `RemoteEvaluator`).
    let rest = rest.trim_start_matches(['&', '*']).trim_start();
    let rest = rest.strip_prefix("dyn ").unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let head_len = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    let path = &rest[..head_len];
    let name = path.rsplit("::").next().unwrap_or(path);
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name.to_string())
    }
}

/// Does a signature (the text between the fn name and its body)
/// declare a parameter besides a `self` receiver? The parameter list is
/// the first `(` outside the generics; it splits at top-level commas.
fn declares_args(sig: &str) -> bool {
    let bytes = sig.as_bytes();
    let is_arrow = |i: usize| i > 0 && bytes[i - 1] == b'-';
    let mut angle = 0usize;
    let Some(open) = bytes.iter().enumerate().position(|(i, &b)| match b {
        b'<' => {
            angle += 1;
            false
        }
        b'>' if !is_arrow(i) => {
            angle = angle.saturating_sub(1);
            false
        }
        b'(' => angle == 0,
        _ => false,
    }) else {
        return false;
    };
    let mut params = Vec::new();
    let (mut depth, mut start) = (0usize, open + 1);
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        match b {
            b'>' if is_arrow(i) => {}
            b'(' | b'[' | b'<' => depth += 1,
            b')' if depth == 0 => {
                params.push(&sig[start..i]);
                break;
            }
            b')' | b']' | b'>' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                params.push(&sig[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    let params: Vec<&str> = params.into_iter().map(str::trim).filter(|p| !p.is_empty()).collect();
    let receiver = params.first().is_some_and(|p| {
        p.split(':').next().unwrap_or(p).trim().rsplit([' ', '&']).next() == Some("self")
    });
    params.len() > usize::from(receiver)
}

impl Index {
    /// Build the index over scanned sources (path, scan result).
    pub fn build(scanned: &[(String, CleanSource)]) -> Index {
        let mut files = Vec::with_capacity(scanned.len());
        let mut fns: Vec<FnItem> = Vec::new();
        for (fi, (path, src)) in scanned.iter().enumerate() {
            let cleaned = src.lines.join("\n");
            let mut line_starts = vec![0usize];
            for (off, b) in cleaned.bytes().enumerate() {
                if b == b'\n' {
                    line_starts.push(off + 1);
                }
            }
            let stem = path
                .rsplit('/')
                .next()
                .unwrap_or(path)
                .trim_end_matches(".rs")
                .to_string();
            let owners = owner_spans(&cleaned);
            let bytes = cleaned.as_bytes();
            for at in keyword_sites(&cleaned, "fn") {
                let after = skip_ws(bytes, at + 2);
                let Some((name, name_end)) = ident_at(bytes, after) else {
                    continue; // `fn(..)` pointer type
                };
                // Signature runs to the body `{` or a `;` (declaration).
                let mut j = name_end;
                let mut angle = 0usize;
                while j < bytes.len() {
                    match bytes[j] {
                        b'<' => angle += 1,
                        b'>' => angle = angle.saturating_sub(1),
                        b'{' if angle == 0 => break,
                        b';' if angle == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] == b';' {
                    continue; // trait method declaration: no body to analyze
                }
                let Some(body_close) = matching_brace(bytes, j) else { continue };
                let sig = &cleaned[name_end..j];
                let returns_guard = sig.contains("Guard");
                let takes_args = declares_args(sig);
                let sig_line = {
                    let mut n = 1;
                    for &b in &bytes[..at] {
                        if b == b'\n' {
                            n += 1;
                        }
                    }
                    n
                };
                // Innermost owner block containing this fn.
                let owner = owners
                    .iter()
                    .filter(|(_, s, e)| *s <= at && at <= *e)
                    .min_by_key(|(_, s, e)| e - s)
                    .map(|(n, _, _)| n.clone());
                let is_test = src.is_test.get(sig_line - 1).copied().unwrap_or(false);
                fns.push(FnItem {
                    name,
                    owner,
                    file: fi,
                    sig_line,
                    body_open: j,
                    body_close,
                    is_test,
                    returns_guard,
                    takes_args,
                });
            }
            files.push(FileView {
                path: path.clone(),
                stem,
                cleaned,
                line_starts,
                is_test: src.is_test.clone(),
            });
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(owner) = &f.owner {
                by_owner.entry((owner.clone(), f.name.clone())).or_default().push(id);
            }
        }
        Index { files, fns, by_name, by_owner }
    }

    /// The innermost non-excluded fn whose body contains byte `offset`
    /// of file `file`.
    pub fn fn_at(&self, file: usize, offset: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.file == file && f.body_open < offset && offset < f.body_close
            })
            .min_by_key(|(_, f)| f.body_close - f.body_open)
            .map(|(id, _)| id)
    }

    /// Display label for chain traces: `name (path:line)`.
    pub fn label(&self, id: usize) -> String {
        let f = &self.fns[id];
        format!("{} ({}:{})", f.name, self.files[f.file].path, f.sig_line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn build(path: &str, src: &str) -> Index {
        Index::build(&[(path.to_string(), scan(src))])
    }

    #[test]
    fn indexes_free_impl_and_trait_fns() {
        let src = "\
pub fn free() {}
struct Foo;
impl Foo {
    fn method(&self) {}
}
impl Clone for Foo {
    fn clone(&self) -> Foo { Foo }
}
trait Eval {
    fn go(&self) { self.run() }
    fn run(&self);
}
";
        let ix = build("crates/core/src/x.rs", src);
        let names: Vec<(&str, Option<&str>)> =
            ix.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("Foo")),
                ("clone", Some("Foo")),
                ("go", Some("Eval")),
            ],
            "trait method declarations without bodies are skipped"
        );
    }

    #[test]
    fn generic_impls_resolve_owner() {
        let src = "\
impl<'a, B: Backend> RemoteEvaluator<'a, B> {
    fn shard(&self) {}
}
impl<T> std::fmt::Display for Wrapper<T> {
    fn fmt(&self) {}
}
";
        let ix = build("crates/core/src/x.rs", src);
        assert_eq!(ix.fns[0].owner.as_deref(), Some("RemoteEvaluator"));
        assert_eq!(ix.fns[1].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn guard_returns_and_test_flags() {
        let src = "\
struct S;
impl S {
    fn lock(&self) -> std::sync::MutexGuard<'_, u8> { self.m.lock().unwrap() }
}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let ix = build("crates/core/src/x.rs", src);
        assert!(ix.fns[0].returns_guard);
        assert!(!ix.fns[0].is_test);
        assert!(ix.fns[1].is_test);
    }

    #[test]
    fn declared_arguments_exclude_the_receiver() {
        for sig in ["()", "(self)", "(&self)", "(&'a mut self)", "(self: Arc<Self>,\n)", "<T>()"] {
            assert!(!declares_args(sig), "{sig}");
        }
        for sig in [
            "(self, algorithm: &'static str)",
            "(&mut self, x: u8)",
            "(x: u8)",
            "<F: Fn(u8) -> u8>(f: F) -> u8",
            "(map: BTreeMap<u8, u8>)",
        ] {
            assert!(declares_args(sig), "{sig}");
        }
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn real(cb: fn(u8) -> u8) -> u8 { cb(1) }\n";
        let ix = build("crates/core/src/x.rs", src);
        assert_eq!(ix.fns.len(), 1);
        assert_eq!(ix.fns[0].name, "real");
    }
}
