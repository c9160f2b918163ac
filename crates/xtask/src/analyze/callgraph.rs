//! Intra-workspace call graph over the [`super::model`].
//!
//! Call sites are extracted lexically from masked function bodies and
//! resolved to model functions:
//!
//! * `self.method(…)` — methods of the enclosing `impl` type; if the type
//!   has no such method, every workspace function with that name (the
//!   method may come from a trait default).
//! * `self.field.method(…)` — the struct field's type (wrappers like
//!   `Option<Box<dyn T>>` stripped). A trait-typed field resolves to the
//!   trait's own defaults *and* every `impl Trait for Type` implementor.
//! * `Type::method(…)` / `module::function(…)` — the named type's methods
//!   when `Type` is a workspace type; otherwise functions in the file
//!   whose stem matches the module segment, falling back to free
//!   functions of that name.
//! * `local.method(…)` — typed via `let local: T = …`, `let local =
//!   T::new(…)`, `let local = self.field…` (through reference-preserving
//!   calls like `.lock()`/`.take()`/`.as_mut()`), a destructuring
//!   `let T { field, .. } = …` pattern, or a `local: T` parameter;
//!   otherwise every workspace *method* of that name (deliberate
//!   over-approximation — safe for reachability). Method syntax never
//!   resolves to free functions.
//!
//! Calls that resolve to nothing in the workspace (std and other external
//! APIs) produce no edges: external calls are assumed panic-free, which is
//! part of the documented trust model (DESIGN.md §10). As a second,
//! deliberate precision/soundness tradeoff, a fixed list of ubiquitous
//! std combinator names ([`OPAQUE_STD_METHODS`]) never resolves through an
//! *unresolved* receiver: `items.iter().enumerate()` must not create an
//! edge to every workspace method that happens to be called `enumerate`.
//! Workspace methods sharing such a name are still reached through typed
//! receivers, which is how all of them are called today.

use super::model::{strip_wrappers, FnItem, Model};
use std::collections::{BTreeMap, BTreeSet};

/// The call graph: `edges[f]` are the model ids `f` may call.
#[derive(Debug, Default)]
pub struct Graph {
    /// Callee ids per function id.
    pub edges: Vec<Vec<usize>>,
    /// Caller ids per function id (transpose of `edges`).
    pub callers: Vec<Vec<usize>>,
}

impl Graph {
    /// Builds the graph for every function in the model.
    pub fn build(model: &Model) -> Graph {
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(model.fns.len());
        for f in &model.fns {
            let mut out = BTreeSet::new();
            let locals = local_types(f, model);
            for call in call_sites(&f.body) {
                resolve(model, f, &call, &locals, &mut out);
            }
            edges.push(out.into_iter().collect());
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); model.fns.len()];
        for (from, outs) in edges.iter().enumerate() {
            for &to in outs {
                callers[to].push(from);
            }
        }
        Graph { edges, callers }
    }
}

/// One syntactic call site.
#[derive(Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (method or function).
    pub name: String,
    /// Receiver chain for method calls: `self.file.sync()` → `["self",
    /// "file"]`; `x.run()` → `["x"]`. Index projections are skipped:
    /// `self.shards[i].lock()` → `["self", "shards"]`. Empty for
    /// path/free calls.
    pub recv: Vec<String>,
    /// Path qualifier segments for `a::b::name(` calls (without `name`).
    pub path: Vec<String>,
    /// True when written as a method call (`.name(`).
    pub is_method: bool,
    /// Byte offset of the called name within the body — lets the lock
    /// pass relate call sites to guard live ranges.
    pub at: usize,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "unsafe", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "const", "static", "Some", "Ok", "Err", "None",
];

/// Extracts call sites from a masked body.
pub fn call_sites(body: &str) -> Vec<CallSite> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            // Mid-identifier (e.g. a digit-led tail) — skip the rest.
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &body[start..i];
        let mut j = i;
        while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Tuple-struct / enum-variant constructors in UpperCamelCase that
        // are not known calls still resolve to nothing later; keep them.
        let (recv, path, is_method) = context_before(bytes, body, start);
        out.push(CallSite {
            name: name.to_string(),
            recv,
            path,
            is_method,
            at: start,
        });
    }
    out
}

/// Classifies what syntactically precedes the called identifier.
fn context_before(bytes: &[u8], body: &str, start: usize) -> (Vec<String>, Vec<String>, bool) {
    if start == 0 {
        return (Vec::new(), Vec::new(), false);
    }
    match bytes[start - 1] {
        b'.' => {
            // Walk the receiver chain backwards: ident(.ident)*, tolerating
            // rustfmt's multi-line chains (whitespace around the dots) —
            // any other shape (call results, indexing) is an opaque
            // receiver.
            let mut chain = Vec::new();
            let mut k = start - 1;
            loop {
                let mut end = k; // points at '.'
                while end > 0 && bytes[end - 1].is_ascii_whitespace() {
                    end -= 1;
                }
                // `self.shards[i].lock()` — skip the index projection so
                // the chain keeps the field name (the element type is what
                // matters for resolution).
                if end > 0 && bytes[end - 1] == b']' {
                    let mut depth = 0usize;
                    let mut p = end;
                    let mut matched = false;
                    while p > 0 {
                        p -= 1;
                        match bytes[p] {
                            b']' => depth += 1,
                            b'[' => {
                                depth -= 1;
                                if depth == 0 {
                                    matched = true;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    if !matched {
                        return (Vec::new(), Vec::new(), true);
                    }
                    end = p;
                }
                let mut s = end;
                while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                    s -= 1;
                }
                if s == end {
                    // `)`/`]`/`?` etc. — opaque receiver.
                    return (Vec::new(), Vec::new(), true);
                }
                chain.push(body[s..end].to_string());
                let mut p = s;
                while p > 0 && bytes[p - 1].is_ascii_whitespace() {
                    p -= 1;
                }
                if p > 0 && bytes[p - 1] == b'.' {
                    k = p - 1;
                } else {
                    chain.reverse();
                    return (chain, Vec::new(), true);
                }
            }
        }
        b':' if start >= 2 && bytes[start - 2] == b':' => {
            let mut segs = Vec::new();
            let mut k = start - 2;
            loop {
                let end = k;
                let mut s = end;
                while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                    s -= 1;
                }
                if s == end {
                    break;
                }
                segs.push(body[s..end].to_string());
                if s >= 2 && bytes[s - 1] == b':' && bytes[s - 2] == b':' {
                    k = s - 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            (Vec::new(), segs, false)
        }
        _ => (Vec::new(), Vec::new(), false),
    }
}

/// Std combinator names that never resolve through an unresolved receiver
/// (see the module docs for the tradeoff).
const OPAQUE_STD_METHODS: &[&str] = &[
    "all",
    "any",
    "append",
    "by_ref",
    "chain",
    "chunks",
    "clear",
    "cloned",
    "collect",
    "contains_key",
    "copied",
    "count",
    "cycle",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "fuse",
    "insert",
    "inspect",
    "iter",
    "iter_mut",
    "last",
    "map",
    "map_while",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "nth",
    "partition",
    "peekable",
    "pop",
    "position",
    "product",
    "push",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "scan",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "splice",
    "split_off",
    "step_by",
    "sum",
    "swap_remove",
    "take_while",
    "truncate",
    "unzip",
    "windows",
    "write",
    "zip",
];

/// Reference-preserving call suffixes: `self.journal.take()` still hands
/// out the `Journal` for typing purposes.
const PASS_THROUGH_SUFFIXES: &[&str] = &[
    ".lock()",
    ".take()",
    ".as_mut()",
    ".as_ref()",
    ".borrow_mut()",
    ".borrow()",
    ".clone()",
    ".unwrap()",
];

/// Strips pass-through suffixes, `?`, and index projections `[…]` from the
/// front of `tail`, returning the remainder.
fn strip_projections(mut tail: &str) -> &str {
    loop {
        let before = tail;
        for suffix in PASS_THROUGH_SUFFIXES {
            if let Some(t) = tail.strip_prefix(suffix) {
                tail = t;
                break;
            }
        }
        if let Some(t) = tail.strip_prefix('?') {
            tail = t;
        }
        // `self.shards[i]` — an index projection hands out the element.
        if tail.starts_with('[') {
            let bytes = tail.as_bytes();
            let mut depth = 0usize;
            let mut end = None;
            for (idx, &b) in bytes.iter().enumerate() {
                match b {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(idx + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if let Some(end) = end {
                tail = &tail[end..];
            }
        }
        if tail.len() == before.len() {
            break;
        }
    }
    tail
}

/// True when `t` is only a statement/block terminator — nothing but
/// projections followed the expression we typed.
fn terminated(t: &str) -> bool {
    let t = t.trim_start();
    t.is_empty()
        || t.starts_with(';')
        || t.starts_with('{')
        || t.starts_with(')')
        || t.starts_with(',')
        || t.starts_with('}')
        || t.starts_with("else")
}

/// The stripped field type when a `let` right-hand side is `self.<field>`
/// (optionally behind `&`/`&mut`, pass-through suffixes and index
/// projections, and followed only by a statement/block terminator).
fn self_field_rhs_type(rhs: &str, owner: Option<&str>, model: &Model) -> Option<String> {
    let owner = owner?;
    let rhs = rhs.trim_start().trim_start_matches('&').trim_start();
    let rhs = rhs.strip_prefix("mut ").unwrap_or(rhs).trim_start();
    let rest = rhs.strip_prefix("self.")?;
    let field: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if field.is_empty() {
        return None;
    }
    let tail = strip_projections(&rest[field.len()..]);
    if !terminated(tail) {
        return None;
    }
    model.fields.get(&(owner.to_string(), field)).cloned()
}

/// The return type of a method when a `let` right-hand side is
/// `self.<method>(…)` — `let shard = self.shard_for(id)?` carries the
/// `Result<&Mutex<Shard>>` return type through to `shard`.
fn self_method_rhs_type(rhs: &str, owner: Option<&str>, model: &Model) -> Option<String> {
    let owner = owner?;
    let rhs = rhs.trim_start().trim_start_matches('&').trim_start();
    let rhs = rhs.strip_prefix("mut ").unwrap_or(rhs).trim_start();
    let rest = rhs.strip_prefix("self.")?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let after = rest[name.len()..].trim_start();
    if name.is_empty() || !after.starts_with('(') {
        return None;
    }
    // Skip the balanced argument list.
    let bytes = after.as_bytes();
    let mut depth = 0usize;
    let mut args_end = None;
    for (idx, &b) in bytes.iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    args_end = Some(idx + 1);
                    break;
                }
            }
            _ => {}
        }
    }
    let tail = strip_projections(&after[args_end?..]);
    if !terminated(tail) {
        return None;
    }
    let id = *model.methods_of(owner, &name).first()?;
    return_type_of(&model.fns[id].sig)
}

/// The stripped return type of a masked signature, unwrapping a top-level
/// `Result<…>` / `Option<…>`: `-> Result<&Mutex<Shard>>` → `Shard`.
pub fn return_type_of(sig: &str) -> Option<String> {
    let (_, ret) = sig.split_once("->")?;
    let ret = ret.split(" where ").next().unwrap_or(ret).trim();
    let inner = ["Result", "Option"].iter().find_map(|kw| {
        let rest = ret.strip_prefix(kw)?.trim_start();
        let rest = rest.strip_prefix('<')?;
        // Balanced up to the matching `>`, then the first type parameter.
        let bytes = rest.as_bytes();
        let mut depth = 1usize;
        let mut end = rest.len();
        for (idx, &b) in bytes.iter().enumerate() {
            match b {
                b'<' => depth += 1,
                b'>' if idx == 0 || bytes[idx - 1] != b'-' => {
                    depth -= 1;
                    if depth == 0 {
                        end = idx;
                        break;
                    }
                }
                _ => {}
            }
        }
        let inner = &rest[..end];
        split_top_level(inner).first().map(|s| s.to_string())
    });
    let ty = strip_wrappers(inner.as_deref().unwrap_or(ret));
    // Only plain type names are useful for receiver typing — tuples,
    // lifetimes, and generic applications resolve to nothing anyway.
    (!ty.is_empty() && ty.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')).then_some(ty)
}

/// The type of a `let` right-hand side that is another, already-typed
/// local behind projections: `let guard = shard.lock();`.
fn local_rhs_type(rhs: &str, locals: &BTreeMap<String, String>) -> Option<String> {
    let rhs = rhs.trim_start().trim_start_matches('&').trim_start();
    let rhs = rhs.strip_prefix("mut ").unwrap_or(rhs).trim_start();
    let name: String = rhs
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let tail = strip_projections(&rhs[name.len()..]);
    if !terminated(tail) {
        return None;
    }
    locals.get(&name).cloned()
}

/// Types of locals and parameters, scraped from the signature, simple
/// `let` forms, and `for` bindings in the body.
pub fn local_types(f: &FnItem, model: &Model) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // Parameters: `name: Type` pairs inside the signature parens.
    if let (Some(open), Some(close)) = (f.sig.find('('), f.sig.rfind(')')) {
        if open < close {
            for part in split_top_level(&f.sig[open + 1..close]) {
                if let Some((name, ty)) = part.split_once(':') {
                    let name = name.trim().trim_start_matches("mut ").trim();
                    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                        && !name.is_empty()
                    {
                        out.insert(name.to_string(), strip_wrappers(ty));
                    }
                }
            }
        }
    }
    // Body scans insert types that later scans may depend on (`for s in
    // self.shards` before `let g = s.lock()` and vice versa) — iterate to
    // a fixpoint; chains are shallow so this converges in a pass or two.
    loop {
        let before = out.len();
        scan_let_bindings(f, model, &mut out);
        scan_for_bindings(f, model, &mut out);
        if out.len() == before {
            break;
        }
    }
    out
}

/// `let [mut] name: Type = …`, `let [mut] name = Type::…`, and the typed
/// right-hand-side forms (`self.field`, `self.method(…)`, another local).
fn scan_let_bindings(f: &FnItem, model: &Model, out: &mut BTreeMap<String, String>) {
    let body = &f.body;
    let bytes = body.as_bytes();
    let mut i = 0;
    while let Some(pos) = body[i..].find("let ") {
        let at = i + pos;
        i = at + 4;
        let boundary_ok =
            at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        if !boundary_ok {
            continue;
        }
        let rest = &body[at + 4..];
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        // `let Type { field, other: rename, .. } = …` — each binding gets
        // the field's declared (stripped) type on the named struct.
        {
            let first: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if first.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let after_first = rest[first.len()..].trim_start();
                if let Some(pat_body) = after_first.strip_prefix('{') {
                    if let Some(close) = pat_body.find('}') {
                        for part in pat_body[..close].split(',') {
                            let part = part.trim();
                            if part.is_empty() || part == ".." {
                                continue;
                            }
                            let (fname, bind) = match part.split_once(':') {
                                Some((fname, bind)) => (fname.trim(), bind.trim()),
                                None => (part, part),
                            };
                            let bind = bind
                                .trim_start_matches("ref ")
                                .trim_start_matches("mut ")
                                .trim();
                            if !bind.is_empty()
                                && bind.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                            {
                                if let Some(ty) =
                                    model.fields.get(&(first.clone(), fname.to_string()))
                                {
                                    out.insert(bind.to_string(), ty.clone());
                                }
                            }
                        }
                        continue;
                    }
                }
            }
        }
        // `let Some(name) = expr` / `let Ok(name) = expr`.
        let (pat_name, after_pat) = if let Some(inner) = rest
            .strip_prefix("Some(")
            .or_else(|| rest.strip_prefix("Ok("))
        {
            let Some(close) = inner.find(')') else {
                continue;
            };
            (inner[..close].trim().to_string(), &inner[close + 1..])
        } else {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let after = &rest[name.len()..];
            (name, after)
        };
        if pat_name.is_empty() {
            continue;
        }
        let after = after_pat.trim_start();
        if let Some(ty_rest) = after.strip_prefix(':') {
            let ty: String = ty_rest
                .chars()
                .take_while(|&c| c != '=' && c != ';')
                .collect();
            let stripped = strip_wrappers(&ty);
            if !stripped.is_empty() {
                out.insert(pat_name, stripped);
            }
        } else if let Some(eq_rest) = after.strip_prefix('=') {
            let rhs = eq_rest.trim_start();
            let first: String = rhs
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let after_first = &rhs[first.len()..];
            if after_first.starts_with("::")
                && first.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            {
                out.insert(pat_name, first);
            } else if let Some(ty) = self_field_rhs_type(rhs, f.owner.as_deref(), model) {
                out.insert(pat_name, ty);
            } else if let Some(ty) = self_method_rhs_type(rhs, f.owner.as_deref(), model) {
                out.insert(pat_name, ty);
            } else if let Some(ty) = local_rhs_type(rhs, out) {
                out.insert(pat_name, ty);
            }
        }
    }
}

/// `for shard in self.shards.iter()` — the binding gets the field's
/// (element) type; `.iter()`/`.iter_mut()`/`.into_iter()` and `&`/`&mut`
/// are reference-preserving for typing purposes.
fn scan_for_bindings(f: &FnItem, model: &Model, out: &mut BTreeMap<String, String>) {
    let body = &f.body;
    let bytes = body.as_bytes();
    let mut i = 0;
    while let Some(pos) = body[i..].find("for ") {
        let at = i + pos;
        i = at + 4;
        let boundary_ok =
            at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        if !boundary_ok {
            continue;
        }
        let rest = &body[at + 4..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = rest[name.len()..].trim_start();
        let Some(expr) = after.strip_prefix("in ") else {
            continue;
        };
        let Some(brace) = expr.find('{') else {
            continue;
        };
        let mut expr = expr[..brace].trim();
        expr = expr.trim_start_matches('&').trim_start();
        expr = expr.strip_prefix("mut ").unwrap_or(expr).trim_start();
        for suffix in [".iter()", ".iter_mut()", ".into_iter()"] {
            expr = expr.strip_suffix(suffix).unwrap_or(expr);
        }
        if let Some(ty) = self_field_rhs_type(expr, f.owner.as_deref(), model) {
            out.insert(name, ty);
        } else if let Some(ty) = local_rhs_type(expr, out) {
            out.insert(name, ty);
        }
    }
}

/// Splits on top-level commas (ignoring nested `()`/`<>`/`[]`).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0isize;
    let mut start = 0;
    let bytes = s.as_bytes();
    for (idx, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' => depth -= 1,
            b'>' if idx > 0 && bytes[idx - 1] != b'-' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&s[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Resolves one call site to model function ids — the lock pass's entry
/// point into the resolution rules above.
pub fn resolve_site(
    model: &Model,
    caller: &FnItem,
    call: &CallSite,
    locals: &BTreeMap<String, String>,
) -> Vec<usize> {
    let mut out = BTreeSet::new();
    resolve(model, caller, call, locals, &mut out);
    out.into_iter().collect()
}

/// Like [`resolve_site`], but without the unresolved-receiver
/// over-approximation: a method call whose receiver cannot be typed
/// contributes no edges at all. The lock pass resolves its call edges
/// through this — its rules are zero-tolerance, so one phantom edge onto
/// a same-named workspace method (`frames.len()` landing on `PPart::len`)
/// becomes an unfixable hard finding. The precision this costs is
/// backstopped dynamically by the ThreadSanitizer stress job.
pub fn resolve_site_typed(
    model: &Model,
    caller: &FnItem,
    call: &CallSite,
    locals: &BTreeMap<String, String>,
) -> Vec<usize> {
    if call.is_method && receiver_type(model, caller, call, locals).is_none() {
        return Vec::new();
    }
    resolve_site(model, caller, call, locals)
}

/// Types a method call's receiver chain, if the chain is one the model
/// can follow: `self`, `self.field`, a typed local, or a typed local's
/// field.
fn receiver_type(
    model: &Model,
    caller: &FnItem,
    call: &CallSite,
    locals: &BTreeMap<String, String>,
) -> Option<String> {
    let recv: Vec<&str> = call.recv.iter().map(String::as_str).collect();
    match recv.as_slice() {
        ["self"] => caller.owner.clone(),
        ["self", field] => caller
            .owner
            .as_ref()
            .and_then(|o| model.fields.get(&(o.clone(), field.to_string())).cloned()),
        [local] => locals.get(*local).cloned(),
        [local, field] => locals
            .get(*local)
            .and_then(|t| model.fields.get(&(t.clone(), field.to_string())).cloned()),
        _ => None,
    }
}

/// Ids of functions named `name` owned by `ty`, following trait
/// implementors when `ty` is a trait.
fn typed_targets(model: &Model, ty: &str, name: &str) -> Vec<usize> {
    let mut ids = model.methods_of(ty, name);
    if model.traits.contains(ty) {
        for implementor in model.impls.get(ty).map(Vec::as_slice).unwrap_or(&[]) {
            ids.extend(model.methods_of(implementor, name));
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn resolve(
    model: &Model,
    caller: &FnItem,
    call: &CallSite,
    locals: &BTreeMap<String, String>,
    out: &mut BTreeSet<usize>,
) {
    let all_named = |model: &Model| -> Vec<usize> {
        model.by_name.get(&call.name).cloned().unwrap_or_default()
    };
    // Method syntax can only land on methods (inherent, trait, or trait
    // default) with a `self` receiver — never on free functions or
    // associated functions (`x.create(true)` cannot dispatch to
    // `Manifest::create(path, …)`).
    let all_methods = |model: &Model| -> Vec<usize> {
        all_named(model)
            .into_iter()
            .filter(|&id| {
                let f = &model.fns[id];
                f.owner.is_some() && f.has_self_receiver()
            })
            .collect()
    };
    if call.is_method {
        match receiver_type(model, caller, call, locals) {
            Some(ty) if model.known_types.contains(&ty) => {
                let ids: Vec<usize> = typed_targets(model, &ty, &call.name)
                    .into_iter()
                    .filter(|&id| model.fns[id].has_self_receiver())
                    .collect();
                if !ids.is_empty() {
                    out.extend(ids);
                } else if call.recv.first().map(String::as_str) == Some("self")
                    && call.recv.len() == 1
                {
                    // Possibly a trait-default method on self: fall back.
                    out.extend(all_methods(model));
                }
                // A known type without that method and a non-self receiver:
                // the call goes to a std method on a wrapper (e.g.
                // `Option::take`) — no edge.
            }
            Some(_) => {} // std/primitive type — external, no edge
            None => {
                // Unresolved receiver: over-approximate with every
                // workspace method of that name — except the ubiquitous
                // std combinators, which would wire iterator chains into
                // unrelated same-named workspace methods.
                if !OPAQUE_STD_METHODS.contains(&call.name.as_str()) {
                    out.extend(all_methods(model));
                }
            }
        }
        return;
    }
    if let Some(last) = call.path.last() {
        if model.known_types.contains(last) {
            out.extend(typed_targets(model, last, &call.name));
            return;
        }
        // Module-qualified free call: prefer functions in a file whose
        // stem matches the module segment.
        let in_module: Vec<usize> = all_named(model)
            .into_iter()
            .filter(|&id| {
                let f = &model.fns[id];
                f.owner.is_none()
                    && f.file
                        .rsplit('/')
                        .next()
                        .is_some_and(|stem| stem == format!("{last}.rs"))
            })
            .collect();
        if !in_module.is_empty() {
            out.extend(in_module);
            return;
        }
        if matches!(last.as_str(), "crate" | "self" | "super") {
            out.extend(
                all_named(model)
                    .into_iter()
                    .filter(|&id| model.fns[id].owner.is_none()),
            );
        }
        // Unknown external path (std::…): no edge.
        return;
    }
    // Bare call: free functions, same file first.
    let free: Vec<usize> = all_named(model)
        .into_iter()
        .filter(|&id| model.fns[id].owner.is_none())
        .collect();
    let same_file: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&id| model.fns[id].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        out.extend(same_file);
    } else {
        out.extend(free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_method_and_path_calls() {
        let sites = call_sites("{ self.file.sync(); crate::ops::go(x); helper(); v.len(); }");
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["sync", "go", "helper", "len"], "{sites:?}");
        assert_eq!(sites[0].recv, ["self", "file"]);
        assert_eq!(sites[1].path, ["crate", "ops"]);
        assert!(!sites[2].is_method);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let sites = call_sites("{ if (x) { return (y); } assert!(z); vec![w]; }");
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn iterator_next_on_unknown_receiver_resolves_nowhere() {
        // A bare `chunks.next()` inside one crate must not wire an edge to
        // an unrelated workspace method that happens to be named `next`
        // (e.g. a tokenizer) — `next` is an opaque std combinator.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Tokenizer;\n\
             impl Tokenizer { fn next(&mut self) {} }\n\
             fn fan_out(items: &[u32]) { let mut chunks = items.chunks(4);\n    chunks.next(); }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let fan = m
            .fns
            .iter()
            .position(|f| f.name == "fan_out")
            .expect("fan_out");
        assert!(
            g.edges[fan].is_empty(),
            "fan_out must not reach Tokenizer::next: {:?}",
            g.edges[fan]
        );
    }

    #[test]
    fn method_calls_never_land_on_associated_functions() {
        // `OpenOptions::new().create(true)` has an opaque receiver; the
        // over-approximation may fan out to workspace *methods* named
        // `create`, but an associated function (`Manifest::create(path)`)
        // is not a method-dispatch target and must stay edge-free, or
        // every builder chain wires the whole constructor graph together.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Manifest;\n\
             impl Manifest { fn create(path: u32) {} }\n\
             struct Cache;\n\
             impl Cache { fn create(&mut self, flag: bool) {} }\n\
             fn open_file(opts: u32) { let o = mystery(opts);\n    o.create(true); }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let open = m
            .fns
            .iter()
            .position(|f| f.name == "open_file")
            .expect("open_file");
        let targets: Vec<String> = g.edges[open]
            .iter()
            .map(|&id| m.fns[id].qualified())
            .collect();
        assert_eq!(targets, ["Cache::create"], "{targets:?}");
    }

    #[test]
    fn self_receiver_detection_reads_the_signature() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct S;\n\
             impl S {\n\
             fn a(&self) {}\n\
             fn b(&mut self, x: u32) {}\n\
             fn c(self) {}\n\
             fn d(mut self) {}\n\
             fn e(&'a self) {}\n\
             fn f(self: Box<S>) {}\n\
             fn g() {}\n\
             fn h(path: u32) {}\n\
             fn i(selfish: u32) {}\n\
             }\n",
        )
        .expect("parse");
        for f in &m.fns {
            let expect = matches!(f.name.as_str(), "a" | "b" | "c" | "d" | "e" | "f");
            assert_eq!(f.has_self_receiver(), expect, "{}: `{}`", f.name, f.sig);
        }
    }

    #[test]
    fn typed_resolver_drops_unresolved_receivers() {
        // `entries.len()` on an untyped receiver over-approximates in the
        // full graph, but must contribute no edge under the typed resolver
        // the lock pass uses — a phantom edge there is a hard finding.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Part;\n\
             impl Part { fn len(&self) {} }\n\
             fn walk(x: u32) { let entries = mystery(x);\n    entries.len(); }\n",
        )
        .expect("parse");
        let walk = &m.fns[m.fns.iter().position(|f| f.name == "walk").expect("walk")];
        let locals = local_types(walk, &m);
        let sites = call_sites(&walk.body);
        let site = sites.iter().find(|s| s.name == "len").expect("len site");
        assert!(!resolve_site(&m, walk, site, &locals).is_empty());
        assert!(
            resolve_site_typed(&m, walk, site, &locals).is_empty(),
            "typed resolver must not land on Part::len"
        );
    }

    #[test]
    fn resolves_field_receiver_through_trait() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "trait Flush { fn flush(&mut self); }\n\
             struct Disk;\n\
             impl Flush for Disk { fn flush(&mut self) {} }\n\
             struct Holder { out: Box<dyn Flush> }\n\
             impl Holder { fn go(&mut self) { self.out.flush(); } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let go = m.fns.iter().position(|f| f.name == "go").expect("go");
        let disk_flush = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Disk::flush")
            .expect("impl");
        assert!(
            g.edges[go].contains(&disk_flush),
            "go must reach the trait implementor: {:?}",
            g.edges[go]
        );
    }

    #[test]
    fn lock_bound_local_resolves_through_field_type() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Inner { pager: Pager }\n\
             struct Pager;\n\
             impl Pager { fn commit(&mut self) {} }\n\
             struct Decoy;\n\
             impl Decoy { fn commit(&mut self) {} }\n\
             struct Pool { inner: Mutex<Inner> }\n\
             impl Pool { fn commit(&self) { let mut inner = self.inner.lock();\n    inner.pager.commit(); } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let pool = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pool::commit")
            .expect("pool");
        let pager = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pager::commit")
            .expect("pager");
        let decoy = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Decoy::commit")
            .expect("decoy");
        assert!(g.edges[pool].contains(&pager), "{:?}", g.edges[pool]);
        assert!(!g.edges[pool].contains(&decoy), "{:?}", g.edges[pool]);
    }

    #[test]
    fn if_let_some_field_binding_is_typed() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Journal;\n\
             impl Journal { fn sync(&mut self) {} }\n\
             struct Other;\n\
             impl Other { fn sync(&mut self) {} }\n\
             struct Pager { journal: Option<Journal> }\n\
             impl Pager { fn flush(&mut self) { if let Some(j) = &mut self.journal {\n    j.sync();\n} } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let flush = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pager::flush")
            .expect("flush");
        let journal = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Journal::sync")
            .expect("journal");
        let other = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Other::sync")
            .expect("other");
        assert!(g.edges[flush].contains(&journal), "{:?}", g.edges[flush]);
        assert!(!g.edges[flush].contains(&other), "{:?}", g.edges[flush]);
    }

    #[test]
    fn struct_destructure_binds_field_types() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "trait Vfs { fn delete(&self); }\n\
             struct RealVfs;\n\
             impl Vfs for RealVfs { fn delete(&self) {} }\n\
             fn delete() {}\n\
             struct Journal { vfs: Arc<dyn Vfs> }\n\
             impl Journal { fn commit(self) { let Journal { vfs, .. } = self;\n    vfs.delete(); } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let commit = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Journal::commit")
            .expect("commit");
        let real = m
            .fns
            .iter()
            .position(|f| f.qualified() == "RealVfs::delete")
            .expect("real");
        let free = m
            .fns
            .iter()
            .position(|f| f.owner.is_none() && f.name == "delete")
            .expect("free");
        assert!(g.edges[commit].contains(&real), "{:?}", g.edges[commit]);
        assert!(
            !g.edges[commit].contains(&free),
            "method call must not reach the free fn: {:?}",
            g.edges[commit]
        );
    }

    #[test]
    fn opaque_iterator_combinators_make_no_edges() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Tables;\n\
             impl Tables { fn enumerate(&self) {} }\n\
             fn walk(v: &Vec2) { for (i, x) in v.iter().enumerate() { x; } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let walk = m.fns.iter().position(|f| f.name == "walk").expect("walk");
        let method = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Tables::enumerate")
            .expect("m");
        assert!(
            !g.edges[walk].contains(&method),
            "opaque .enumerate() must stay external: {:?}",
            g.edges[walk]
        );
    }

    #[test]
    fn multiline_chain_receiver_resolves() {
        // rustfmt breaks long chains as `store\n    .put(...)`; the
        // whitespace before the dot must not make the receiver opaque.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Store; impl Store { fn put(&mut self) {} }\n\
             struct Blob; impl Blob { fn put(&mut self) {} }\n\
             fn driver() {\n\
                 let mut store = Store::fresh();\n\
                 store\n\
                     .put();\n\
             }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let driver = m.fns.iter().position(|f| f.name == "driver").expect("d");
        let store_put = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Store::put")
            .expect("sp");
        let blob_put = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Blob::put")
            .expect("bp");
        assert!(
            g.edges[driver].contains(&store_put),
            "{:?}",
            g.edges[driver]
        );
        assert!(
            !g.edges[driver].contains(&blob_put),
            "multi-line chain over-approximated: {:?}",
            g.edges[driver]
        );
    }

    #[test]
    fn indexed_lock_guard_is_typed_through_the_field() {
        // Regression: `let guard = self.shards[i].lock()` must carry the
        // shard type through the index projection — previously the `[i]`
        // made the rhs untyped and `guard.hit(id)` over-approximated onto
        // every workspace method named `hit`.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Shard; impl Shard { fn hit(&mut self, id: u32) {} }\n\
             struct Decoy; impl Decoy { fn hit(&mut self, id: u32) {} }\n\
             struct Pool { shards: Box<[Mutex<Shard>]> }\n\
             impl Pool { fn touch(&self, i: usize, id: u32) {\n\
                 let mut guard = self.shards[i].lock();\n\
                 guard.hit(id);\n\
             } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let touch = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pool::touch")
            .expect("touch");
        let shard_hit = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Shard::hit")
            .expect("shard");
        let decoy_hit = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Decoy::hit")
            .expect("decoy");
        assert!(g.edges[touch].contains(&shard_hit), "{:?}", g.edges[touch]);
        assert!(
            !g.edges[touch].contains(&decoy_hit),
            "index projection must not erase the receiver type: {:?}",
            g.edges[touch]
        );
    }

    #[test]
    fn method_return_types_a_local() {
        // `let shard = self.shard_for(id)?` — the local carries the
        // method's (unwrapped) return type.
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Shard; impl Shard { fn evict(&mut self) {} }\n\
             struct Decoy; impl Decoy { fn evict(&mut self) {} }\n\
             struct Pool;\n\
             impl Pool {\n\
                 fn shard_for(&self, id: u32) -> Result<&Mutex<Shard>> { todo!() }\n\
                 fn trim(&self, id: u32) {\n\
                     let shard = self.shard_for(id)?;\n\
                     let mut guard = shard.lock();\n\
                     guard.evict();\n\
                 }\n\
             }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let trim = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pool::trim")
            .expect("trim");
        let shard_evict = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Shard::evict")
            .expect("shard");
        let decoy_evict = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Decoy::evict")
            .expect("decoy");
        assert!(g.edges[trim].contains(&shard_evict), "{:?}", g.edges[trim]);
        assert!(!g.edges[trim].contains(&decoy_evict), "{:?}", g.edges[trim]);
    }

    #[test]
    fn for_loop_binding_over_a_field_is_typed() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct Shard; impl Shard { fn wipe(&mut self) {} }\n\
             struct Decoy; impl Decoy { fn wipe(&mut self) {} }\n\
             struct Pool { shards: Box<[Mutex<Shard>]> }\n\
             impl Pool { fn reset(&self) {\n\
                 for shard in self.shards.iter() {\n\
                     let mut guard = shard.lock();\n\
                     guard.wipe();\n\
                 }\n\
             } }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let reset = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Pool::reset")
            .expect("reset");
        let shard_wipe = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Shard::wipe")
            .expect("shard");
        let decoy_wipe = m
            .fns
            .iter()
            .position(|f| f.qualified() == "Decoy::wipe")
            .expect("decoy");
        assert!(g.edges[reset].contains(&shard_wipe), "{:?}", g.edges[reset]);
        assert!(
            !g.edges[reset].contains(&decoy_wipe),
            "{:?}",
            g.edges[reset]
        );
    }

    #[test]
    fn return_type_of_unwraps_result_and_wrappers() {
        assert_eq!(
            return_type_of("fn shard_for(&self) -> Result<&Mutex<Shard>>").as_deref(),
            Some("Shard")
        );
        assert_eq!(
            return_type_of("fn get(&self) -> Option<Arc<Page>>").as_deref(),
            Some("Page")
        );
        assert_eq!(return_type_of("fn go(&self)"), None);
        assert_eq!(
            return_type_of("fn pick(&self) -> Result<(u32, bool), Error>"),
            None,
            "tuple returns carry no single type"
        );
    }

    #[test]
    fn unresolved_receiver_over_approximates() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "struct A; impl A { fn run(&self) {} }\n\
             fn driver(h: &H) { mystery().run(); }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let driver = m.fns.iter().position(|f| f.name == "driver").expect("d");
        let run = m.fns.iter().position(|f| f.name == "run").expect("r");
        assert!(g.edges[driver].contains(&run), "{:?}", g.edges[driver]);
    }
}
