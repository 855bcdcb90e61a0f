//! Workspace call graph over [`crate::index::Index`] items.
//!
//! Module map (the graph engine's second layer — see ARCHITECTURE.md):
//!
//! - call-site extraction — every `ident(`, `Qual::ident(`, and
//!   `.ident(` in a function body, with macros (`ident!(`) skipped;
//! - name-resolution-lite — same-file candidates first, then the
//!   workspace `by_name`/`by_owner` tables as an over-approximation;
//!   `Self::` resolves through the caller's owner; calls into `std`
//!   resolve to nothing and produce no edge;
//! - lock-acquisition collection — `.lock()` on a *field* receiver is
//!   a direct acquisition (class = `file_stem::field`), `.lock()` on
//!   `self` is a call edge to the file's guard-returning wrapper;
//! - [`Graph::reach_chain`] — BFS with parent tracking, so every rule
//!   finding renders a shortest full call chain.
//!
//! Soundness caveats (documented, deliberate): method calls resolve by
//! name, so a `.helper()` can over-approximate onto every workspace
//! `helper` (narrowed only by whether the call passes arguments: an
//! empty `.helper()` never names a `helper(&self, x)`); names colliding with std collection/iterator vocabulary
//! ([`STD_METHODS`]) are dropped for non-`self` receivers instead —
//! trading that false-positive source for a documented false negative
//! (`self.cache.insert(..)` produces no edge to `Cache::insert`);
//! turbofish calls (`f::<T>(`) and calls through function
//! pointers/closures produce no edge; trait objects fan out to all
//! same-named impls. Rules on top treat the graph as an
//! over-approximation of real control flow.

use crate::index::{FnItem, Index};
use std::collections::BTreeMap;

/// How a call site names its callee.
#[derive(Debug)]
enum Callee {
    /// `ident(` — free-function call.
    Free(String),
    /// `Qual::ident(` — the immediate qualifier segment only.
    Qualified(String, String),
    /// `.ident(` — method call. `recv_self` is true only for a literal
    /// `self.ident(` receiver; field, local, and expression receivers
    /// (including chained `self.field.ident(`) are all `false`.
    /// `has_args` is false for an empty argument list (`.ident()`).
    Method { name: String, recv_self: bool, has_args: bool },
}

/// Method names that collide with std collection/iterator/Option/io
/// vocabulary. A `.insert(` on a `HashMap` local must not resolve onto
/// every workspace `insert`; calls through a non-`self` receiver with
/// one of these names produce no edge. The cost is a documented false
/// negative: a genuine workspace method with a colliding name called
/// via a field receiver (`self.cache.insert(..)`) is invisible to the
/// graph. `self.insert(..)` still resolves normally.
const STD_METHODS: [&str; 41] = [
    "and_then",
    "as_bytes",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "contains",
    "contains_key",
    "drain",
    "entry",
    "extend",
    "flush",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "len",
    "map",
    "next",
    "pop",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "replace",
    "retain",
    "send",
    "split_off",
    "take",
    "to_owned",
    "to_string",
    "unwrap_or",
    "values",
    "wait",
    "write",
];

/// One resolved call edge out of a function body.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Callee item id.
    pub callee: usize,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
    /// True when the call-site line contains `catch_unwind`: the
    /// callee's panics are contained, so panic-reach does not traverse
    /// this edge (taint and lock analysis still do).
    pub shielded: bool,
}

/// One direct lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock class, `file_stem::field` (e.g. `service::contexts`).
    pub class: String,
    /// 1-based acquisition line.
    pub line: usize,
    /// True when the guard is bound (`let` on the line), i.e. held
    /// past the statement under the conservative hold model.
    pub bound: bool,
    /// The guard's binding name for a simple `let [mut] name = ..`
    /// line — lets an explicit `drop(name)` release it.
    pub binding: Option<String>,
}

/// Body events, in line order, consumed by lock-order.
#[derive(Debug, Clone)]
pub enum Event {
    Call(CallEdge),
    Acquire(Acquire),
    /// `drop(name)` — releases a held guard bound to `name`.
    Release { name: String },
}

/// The workspace call graph: per-item outgoing edges and body events.
pub struct Graph {
    /// `edges[id]` — resolved outgoing calls of item `id`.
    pub edges: Vec<Vec<CallEdge>>,
    /// `events[id]` — calls + direct lock acquisitions in line order.
    pub events: Vec<Vec<Event>>,
}

const KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "let", "else", "fn",
    "unsafe", "where", "ref", "box",
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Walk back from `end` (exclusive) over one identifier; returns its
/// start, or `None` if the preceding char is not an identifier char.
fn ident_start(bytes: &[u8], end: usize) -> Option<usize> {
    if end == 0 || !is_ident_byte(bytes[end - 1]) {
        return None;
    }
    let mut s = end;
    while s > 0 && is_ident_byte(bytes[s - 1]) {
        s -= 1;
    }
    Some(s)
}

/// Extract raw call sites `(offset_of_ident, callee)` from `cleaned`.
fn call_sites(cleaned: &str) -> Vec<(usize, Callee)> {
    let bytes = cleaned.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        let Some(s) = ident_start(bytes, i) else { continue };
        let name = &cleaned[s..i];
        if KEYWORDS.contains(&name) || bytes[s].is_ascii_digit() {
            continue;
        }
        // Qualified: `Qual::name(` — capture the immediate qualifier.
        if s >= 2 && &bytes[s - 2..s] == b"::" {
            let qual = match ident_start(bytes, s - 2) {
                Some(qs) => cleaned[qs..s - 2].to_string(),
                None => String::new(), // `<T as Trait>::name(`
            };
            out.push((s, Callee::Qualified(qual, name.to_string())));
        } else if s >= 1 && bytes[s - 1] == b'.' {
            let recv_self = receiver_field(bytes, s).is_some_and(|r| r == "self");
            let has_args = cleaned[i + 1..].trim_start().as_bytes().first() != Some(&b')');
            out.push((s, Callee::Method { name: name.to_string(), recv_self, has_args }));
        } else {
            out.push((s, Callee::Free(name.to_string())));
        }
    }
    out
}

/// Lock-acquisition method names. `.read()`/`.write()` are only
/// treated as acquisitions in files that mention `RwLock` at all —
/// `io::Read::read` shares the name.
fn is_lock_method(name: &str, file_has_rwlock: bool) -> bool {
    name == "lock" || (file_has_rwlock && (name == "read" || name == "write"))
}

/// For a method call at ident offset `s` (receiver ends at `s - 1`,
/// which is the `.`), walk back over the receiver chain and return the
/// last field identifier — `self.inner.state.lock()` → `state`;
/// `slots[i].lock()` → `slots`; `self.lock()` → `self`.
/// Binding name for a simple `let [mut] name = ..` line; `None` for
/// pattern bindings (`if let Some(g) = ..`), whose guard lifetime the
/// conservative hold model keeps pessimistic.
pub(crate) fn let_binding(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest.trim_start());
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
    if end == 0 || !rest[end..].trim_start().starts_with('=') {
        return None;
    }
    Some(rest[..end].to_string())
}

fn receiver_field(bytes: &[u8], s: usize) -> Option<String> {
    let mut j = s - 1; // the `.`
    // Skip a balanced `[..]` index chain (`slots[i].lock()`).
    while j > 0 && bytes[j - 1] == b']' {
        let mut depth = 0usize;
        while j > 0 {
            j -= 1;
            match bytes[j] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let start = ident_start(bytes, j)?;
    Some(String::from_utf8_lossy(&bytes[start..j]).into_owned())
}

impl Graph {
    /// Build edges and events for every indexed item.
    pub fn build(ix: &Index) -> Graph {
        let mut edges: Vec<Vec<CallEdge>> = vec![Vec::new(); ix.fns.len()];
        let mut events: Vec<Vec<Event>> = vec![Vec::new(); ix.fns.len()];
        for (fi, file) in ix.files.iter().enumerate() {
            let bytes = file.cleaned.as_bytes();
            let file_has_rwlock = file.cleaned.contains("RwLock");
            for (off, callee) in call_sites(&file.cleaned) {
                let Some(caller) = ix.fn_at(fi, off) else { continue };
                let line = file.line_of(off);
                let line_text = line_text(file, line);
                // Direct lock acquisition: `.lock()` with a field (not
                // `self`) receiver. Recorded as an event, not an edge.
                if let Callee::Method { name, .. } = &callee {
                    if is_lock_method(name, file_has_rwlock) {
                        if let Some(recv) = receiver_field(bytes, off) {
                            if recv != "self" {
                                let class = format!("{}::{}", file.stem, recv);
                                let bound = line_text.contains("let ");
                                let binding = let_binding(line_text);
                                events[caller].push(Event::Acquire(Acquire {
                                    class,
                                    line,
                                    bound,
                                    binding,
                                }));
                                continue;
                            }
                        }
                    }
                }
                // `drop(guard)` releases a held binding; std's `drop`
                // never resolves to a workspace item.
                if let Callee::Free(name) = &callee {
                    if name == "drop" {
                        let arg_end = off + name.len() + 1;
                        let arg = file.cleaned[arg_end..]
                            .split(')')
                            .next()
                            .unwrap_or("")
                            .trim()
                            .to_string();
                        if !arg.is_empty() && arg.bytes().all(is_ident_byte) {
                            events[caller].push(Event::Release { name: arg });
                        }
                        continue;
                    }
                }
                let targets = resolve(ix, fi, caller, &callee);
                let shielded = line_text.contains("catch_unwind");
                for callee_id in targets {
                    let edge = CallEdge { callee: callee_id, line, shielded };
                    edges[caller].push(edge.clone());
                    events[caller].push(Event::Call(edge));
                }
            }
        }
        Graph { edges, events }
    }

    /// Shortest call chain (item ids, entry first) from any of
    /// `entries` to `target`, traversing unshielded edges only when
    /// `respect_shields` is set. Returns `None` when unreachable.
    pub fn reach_chain(
        &self,
        ix: &Index,
        entries: &[usize],
        target: usize,
        respect_shields: bool,
    ) -> Option<Vec<usize>> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = entries.iter().copied().collect();
        let mut seen: Vec<bool> = vec![false; ix.fns.len()];
        for &e in entries {
            seen[e] = true;
        }
        while let Some(at) = queue.pop_front() {
            if at == target {
                let mut chain = vec![at];
                let mut cur = at;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return Some(chain);
            }
            for edge in &self.edges[at] {
                if respect_shields && edge.shielded {
                    continue;
                }
                // Test code is out of scope for every graph rule.
                if ix.fns[edge.callee].is_test {
                    continue;
                }
                if !seen[edge.callee] {
                    seen[edge.callee] = true;
                    parent.insert(edge.callee, at);
                    queue.push_back(edge.callee);
                }
            }
        }
        None
    }
}

fn line_text(file: &crate::index::FileView, line: usize) -> &str {
    let start = file.line_starts[line - 1];
    let end = file
        .line_starts
        .get(line)
        .map(|&e| e.saturating_sub(1))
        .unwrap_or(file.cleaned.len());
    &file.cleaned[start..end]
}

/// Name-resolution-lite. Same-file candidates win; otherwise the
/// workspace tables over-approximate. Calls that resolve to nothing
/// (std, vendored deps) produce no edge.
fn resolve(ix: &Index, file: usize, caller: usize, callee: &Callee) -> Vec<usize> {
    let same_file = |pred: &dyn Fn(&FnItem) -> bool| -> Vec<usize> {
        ix.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && pred(f))
            .map(|(id, _)| id)
            .collect()
    };
    match callee {
        Callee::Free(name) => {
            let local = same_file(&|f: &FnItem| f.name == *name && f.owner.is_none());
            if !local.is_empty() {
                return local;
            }
            ix.by_name
                .get(name)
                .map(|ids| {
                    ids.iter().copied().filter(|&id| ix.fns[id].owner.is_none()).collect()
                })
                .unwrap_or_default()
        }
        Callee::Qualified(qual, name) => {
            if qual == "Self" {
                let owner = ix.fns[caller].owner.clone();
                if let Some(owner) = owner {
                    return ix.by_owner.get(&(owner, name.clone())).cloned().unwrap_or_default();
                }
                return Vec::new();
            }
            if qual.is_empty() {
                // `<T as Trait>::name(` — fan out to every impl.
                return ix
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter().copied().filter(|&id| ix.fns[id].owner.is_some()).collect()
                    })
                    .unwrap_or_default();
            }
            let mut out: Vec<usize> =
                ix.by_owner.get(&(qual.clone(), name.clone())).cloned().unwrap_or_default();
            // Module-qualified free call: `order::nan_largest(`.
            if out.is_empty() {
                out = ix
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| {
                                ix.fns[id].owner.is_none()
                                    && ix.files[ix.fns[id].file].stem == *qual
                            })
                            .collect()
                    })
                    .unwrap_or_default();
            }
            out
        }
        Callee::Method { name, recv_self, has_args } => {
            // `x.insert(..)` on a collection must not fan out to every
            // workspace `insert`; `self.insert(..)` is never std.
            if !recv_self && STD_METHODS.contains(&name.as_str()) {
                return Vec::new();
            }
            // Rust has no overloading: `d.finish()` cannot name a
            // `finish(self, algorithm)`, nor `x.f(a)` a `f(&self)`.
            let is_method =
                |f: &FnItem| f.name == *name && f.owner.is_some() && f.takes_args == *has_args;
            let mut out = {
                let local = same_file(&is_method);
                if !local.is_empty() {
                    local
                } else {
                    ix.by_name
                        .get(name)
                        .map(|ids| ids.iter().copied().filter(|&id| is_method(&ix.fns[id])).collect())
                        .unwrap_or_default()
                }
            };
            // `slot.breaker.record_success()` inside `fn record_success`
            // names a different receiver's method, not recursion — keep
            // self-edges only for literal `self.f()` calls.
            if !recv_self {
                out.retain(|&id| id != caller);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn build(sources: &[(&str, &str)]) -> (Index, Graph) {
        let scanned: Vec<(String, crate::scanner::CleanSource)> =
            sources.iter().map(|(p, s)| (p.to_string(), scan(s))).collect();
        let ix = Index::build(&scanned);
        let g = Graph::build(&ix);
        (ix, g)
    }

    fn id(ix: &Index, name: &str) -> usize {
        ix.by_name[name][0]
    }

    #[test]
    fn free_qualified_and_method_calls_resolve() {
        let (ix, g) = build(&[
            ("crates/a/src/one.rs", "pub fn top() { helper(); two::leaf(); }\nfn helper() {}\n"),
            ("crates/a/src/two.rs", "pub fn leaf() {}\nstruct S;\nimpl S { fn m(&self) {} }\n"),
            ("crates/a/src/three.rs", "pub fn call_m(s: &super::two::S) { s.m(); }\n"),
        ]);
        let top = id(&ix, "top");
        let callees: Vec<&str> =
            g.edges[top].iter().map(|e| ix.fns[e.callee].name.as_str()).collect();
        assert_eq!(callees, vec!["helper", "leaf"]);
        let call_m = id(&ix, "call_m");
        assert_eq!(g.edges[call_m].len(), 1);
        assert_eq!(ix.fns[g.edges[call_m][0].callee].name, "m");
    }

    #[test]
    fn method_calls_only_resolve_to_matching_arity() {
        let (ix, g) = build(&[
            ("crates/a/src/dec.rs", "struct Dec;\nimpl Dec { fn finish(self) {} }\n"),
            ("crates/a/src/ctx.rs", "struct Ctx;\nimpl Ctx { fn finish(self, alg: &str) {} }\n"),
            ("crates/a/src/use.rs", "fn a(d: Dec) { d.finish(); }\nfn b(c: Ctx) { c.finish(\"RS\"); }\n"),
        ]);
        let target = |caller: &str| -> Vec<String> {
            g.edges[id(&ix, caller)].iter().map(|e| ix.files[ix.fns[e.callee].file].stem.clone()).collect()
        };
        assert_eq!(target("a"), vec!["dec"]);
        assert_eq!(target("b"), vec!["ctx"]);
    }

    #[test]
    fn macros_and_std_calls_produce_no_edges() {
        let (ix, g) = build(&[(
            "crates/a/src/one.rs",
            "pub fn top() { println!(\"x\"); Vec::new(); format!(\"y\"); }\n",
        )]);
        assert!(g.edges[id(&ix, "top")].is_empty());
    }

    #[test]
    fn shielded_edges_are_marked() {
        let (ix, g) = build(&[(
            "crates/a/src/one.rs",
            "pub fn top() { let r = catch_unwind(|| risky()); }\nfn risky() {}\n",
        )]);
        let top = id(&ix, "top");
        assert_eq!(g.edges[top].len(), 1);
        assert!(g.edges[top][0].shielded);
        assert!(
            g.reach_chain(&ix, &[top], id(&ix, "risky"), true).is_none(),
            "panic-reach must not cross a catch_unwind line"
        );
        assert!(g.reach_chain(&ix, &[top], id(&ix, "risky"), false).is_some());
    }

    #[test]
    fn field_lock_is_acquisition_self_lock_is_wrapper_call() {
        let src = "\
struct S;
impl S {
    fn lock(&self) -> std::sync::MutexGuard<'_, u8> { self.inner.lock().unwrap_or_else(|e| e.into_inner()) }
    fn use_both(&self) {
        let a = self.lock();
        self.other.lock();
    }
}
";
        let (ix, g) = build(&[("crates/a/src/state.rs", src)]);
        let wrapper = id(&ix, "lock");
        let classes: Vec<String> = g.events[wrapper]
            .iter()
            .filter_map(|e| match e {
                Event::Acquire(a) => Some(a.class.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec!["state::inner"]);
        let user = id(&ix, "use_both");
        let mut calls = 0;
        let mut acquires = Vec::new();
        for e in &g.events[user] {
            match e {
                Event::Call(c) => {
                    assert_eq!(ix.fns[c.callee].name, "lock");
                    calls += 1;
                }
                Event::Acquire(a) => acquires.push((a.class.clone(), a.bound)),
                Event::Release { .. } => panic!("no drop() in this fixture"),
            }
        }
        assert_eq!(calls, 1, "`self.lock()` resolves to the same-file wrapper");
        assert_eq!(acquires, vec![("state::other".to_string(), false)]);
    }

    #[test]
    fn chains_are_shortest_and_entry_first() {
        let (ix, g) = build(&[(
            "crates/a/src/one.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn a2() { c(); }\n",
        )]);
        let chain = g
            .reach_chain(&ix, &[id(&ix, "a"), id(&ix, "a2")], id(&ix, "c"), true)
            .expect("reachable");
        let names: Vec<&str> = chain.iter().map(|&i| ix.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["a2", "c"], "BFS finds the 1-hop chain");
    }
}
