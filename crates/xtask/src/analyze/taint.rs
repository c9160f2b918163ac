//! Untrusted-bytes taint analysis: values decoded from raw on-disk bytes
//! must be validated before they steer memory or control flow.
//!
//! The vocabulary is three `// analyze:` markers from [`super::model`]:
//!
//! * `untrusted-source` — the function returns a value read straight from
//!   disk bytes (page buffers, journal records, segment/manifest header
//!   slots, posting-block sections). The function itself must be *total*
//!   (error, never panic, on any input — the panic pass and the decode
//!   fuzz harness enforce that side); its **result is tainted**.
//! * `validates(len|offset|pageid|count)` — a declared validation
//!   boundary: the function checks the listed quantities and its result
//!   is trusted. Its integer/byte-slice parameters are treated as tainted
//!   inside its own body, so the declared checks are themselves analyzed.
//! * `taint-exempt(<reason>)` — a reviewed leaf that intentionally works
//!   on raw values (branchless bit tricks, CRC folds) and is total over
//!   all inputs. The reason string is mandatory.
//!
//! Within each function body the pass replays, in byte order: `let`/`for`
//! bindings (a binding whose right-hand side mentions a tainted value or
//! calls a source becomes tainted; a clean rebinding clears), guard exits
//! (`if <comparison on tainted x> { return/break/Err … }` clears `x` from
//! the end of the block on), and the six sink shapes:
//!
//! * `taint-index` — tainted value inside an index/slice expression;
//! * `taint-alloc` — tainted value sizing `with_capacity` / `reserve` /
//!   `resize` / `vec![…; n]`;
//! * `taint-loop` — tainted range bound (`for … in a..b`) or `while`
//!   condition;
//! * `taint-arith` — tainted operand of `+ - * / % ^ << >>` (compound
//!   assignment included) outside a guard condition;
//! * `taint-pageid` — tainted value inside a `PageId(…)` constructor;
//! * `taint-escape` — tainted value passed to (or receiving) a resolved
//!   workspace function that declares no taint contract: the missing-
//!   validator case. Mark the callee `validates(…)` or validate first.
//!
//! Taint is cleared by `.min(…)` / `.clamp(…)`, by flowing through a
//! `validates`/`taint-exempt` call, or by a comparison guard that
//! diverges. Reading `.len()` / `.is_empty()` / bit-count methods of a
//! tainted value yields a clean result. Documented approximations: the
//! pass is lexical and intra-procedural (markers carry taint across
//! calls); arithmetic inside `if`/`while` conditions is allowed (the
//! comparison *is* the validation; overflow there is the panic pass's and
//! the fuzz harness's job); sinks inside a diverging guard block are
//! skipped (that arm is the rejection path); plain reassignment without
//! `let` is not tracked — shadow with `let` instead. The structure-aware
//! decode fuzz harness (`crates/store/tests/decode_fuzz.rs`) backstops
//! all of this dynamically. Triage guide: DESIGN.md §16.

use super::callgraph::{call_sites, local_types, resolve_site_typed};
use super::model::{FnItem, Marker, Model};
use super::report::Violation;
use std::collections::BTreeSet;
use std::ops::Range;

/// Runs the taint analysis; findings are zero-tolerance. With
/// `require_anchors` (workspace runs) at least one `untrusted-source`
/// marker must exist, so the pass cannot rot away silently.
pub fn run(model: &Model, require_anchors: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    let any_source = model
        .fns
        .iter()
        .any(|f| f.has_marker(|m| matches!(m, Marker::UntrustedSource)));
    if require_anchors && !any_source {
        out.push(Violation {
            rule: "taint-anchor",
            file: "<workspace>".into(),
            line: 0,
            message: "no `untrusted-source` markers found; the taint pass has nothing \
                      to track — re-mark the decode seam (see DESIGN.md §16)"
                .into(),
        });
    }
    for f in &model.fns {
        if f.is_test
            || f.has_marker(|m| matches!(m, Marker::UntrustedSource | Marker::TaintExempt(_)))
        {
            continue;
        }
        analyze_fn(model, f, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// How one call site relates to the taint contract.
#[derive(Clone, Debug, PartialEq)]
enum Class {
    /// Resolves to an `untrusted-source` fn: the result is tainted.
    Source,
    /// Resolves to a `validates(…)`/`taint-exempt(…)` fn: the result is
    /// trusted and tainted arguments are fine.
    Boundary,
    /// Resolves to unannotated workspace code: tainted arguments escape.
    Plain(String),
    /// Std/external: no workspace edge, no contract to enforce.
    External,
}

/// One classified call site with its argument span.
struct Site {
    at: usize,
    name: String,
    recv_head: Option<String>,
    args: Option<Range<usize>>,
    class: Class,
}

/// One replay item, ordered by byte offset within the body.
enum Item {
    /// `let` binding: names become tainted iff the rhs span is.
    Bind {
        names: Vec<String>,
        rhs: Range<usize>,
    },
    /// `for <name> in <expr> {`: the binding follows the iterated expr;
    /// a tainted *range* bound is a `taint-loop` finding.
    ForBind { name: String, expr: Range<usize> },
    /// End of a diverging comparison guard: clear the compared idents.
    GuardClear { cond: Range<usize> },
    /// A sink to check against the taint state at this offset.
    Sink { kind: SinkKind, span: Range<usize> },
    /// Tainted use of `ident` adjacent to an arithmetic operator.
    Arith { ident: String },
    /// Call into unannotated workspace code: args/receiver must be clean.
    Escape {
        target: String,
        args: Range<usize>,
        recv_head: Option<String>,
    },
}

#[derive(Clone, Copy, Debug)]
enum SinkKind {
    Index,
    Alloc,
    PageId,
    While,
}

impl SinkKind {
    fn rule(self) -> &'static str {
        match self {
            SinkKind::Index => "taint-index",
            SinkKind::Alloc => "taint-alloc",
            SinkKind::PageId => "taint-pageid",
            SinkKind::While => "taint-loop",
        }
    }

    fn describe(self) -> &'static str {
        match self {
            SinkKind::Index => "as a slice index",
            SinkKind::Alloc => "as an allocation size",
            SinkKind::PageId => "as a page id",
            SinkKind::While => "as a loop bound",
        }
    }
}

fn analyze_fn(model: &Model, f: &FnItem, out: &mut Vec<Violation>) {
    let body = &f.body;
    if body.is_empty() {
        return;
    }
    let locals = local_types(f, model);
    let sites = classify_sites(model, f, &locals);

    let mut items: Vec<(usize, Item)> = Vec::new();
    scan_let_bindings(body, &mut items);
    scan_for_loops(body, &mut items);
    let (cond_spans, diverging) = scan_guards(body, &mut items);
    scan_whiles(body, &cond_spans, &mut items);
    scan_index_sinks(body, &mut items);
    scan_alloc_sinks(body, &mut items);
    scan_pageid_sinks(body, &mut items);
    scan_arith(body, &cond_spans, &mut items);
    for s in &sites {
        if let (Class::Plain(target), Some(args)) = (&s.class, &s.args) {
            items.push((
                s.at,
                Item::Escape {
                    target: target.clone(),
                    args: args.clone(),
                    recv_head: s.recv_head.clone(),
                },
            ));
        }
    }
    // The rejection arm of a diverging guard may mention the rejected
    // value (error messages); sinks there are not reachable misuse.
    items.retain(|(at, item)| {
        matches!(item, Item::GuardClear { .. }) || !diverging.iter().any(|d| d.contains(at))
    });
    items.sort_by_key(|(at, _)| *at);

    // Validators analyze their own declared checks: raw integer and byte
    // parameters start tainted.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    if f.has_marker(|m| matches!(m, Marker::Validates(_))) {
        for (name, ty) in &locals {
            if is_raw_param_type(ty) && param_names(f).contains(name) {
                tainted.insert(name.clone());
            }
        }
    }

    let body_line = f.line + f.sig.bytes().filter(|&b| b == b'\n').count();
    let line_at = |pos: usize| {
        body_line
            + body[..pos.min(body.len())]
                .bytes()
                .filter(|&b| b == b'\n')
                .count()
    };
    let mut push = |rule: &'static str, at: usize, message: String| {
        out.push(Violation {
            rule,
            file: f.file.clone(),
            line: line_at(at),
            message,
        });
    };

    for (at, item) in items {
        match item {
            Item::Bind { names, rhs } => match span_culprit(body, &rhs, &tainted, &sites) {
                Some(_) => tainted.extend(names),
                None => {
                    for n in &names {
                        tainted.remove(n);
                    }
                }
            },
            Item::ForBind { name, expr } => match span_culprit(body, &expr, &tainted, &sites) {
                Some(culprit) => {
                    if body[expr.clone()].contains("..") {
                        push(
                            "taint-loop",
                            at,
                            format!(
                                "`{}` bounds a loop with untrusted {culprit} \
                                     without validation",
                                f.qualified()
                            ),
                        );
                    }
                    tainted.insert(name);
                }
                None => {
                    tainted.remove(&name);
                }
            },
            Item::GuardClear { cond } => {
                let cleared: Vec<String> = tainted
                    .iter()
                    .filter(|n| mentions_ident(&body[cond.clone()], n))
                    .cloned()
                    .collect();
                for n in cleared {
                    tainted.remove(&n);
                }
            }
            Item::Sink { kind, span } => {
                if let Some(culprit) = span_culprit(body, &span, &tainted, &sites) {
                    push(
                        kind.rule(),
                        at,
                        format!(
                            "`{}` uses untrusted {culprit} {} without validation",
                            f.qualified(),
                            kind.describe()
                        ),
                    );
                }
            }
            Item::Arith { ident } => {
                if tainted.contains(&ident) {
                    push(
                        "taint-arith",
                        at,
                        format!(
                            "`{}` does arithmetic on untrusted `{ident}` without \
                             validation",
                            f.qualified()
                        ),
                    );
                }
            }
            Item::Escape {
                target,
                args,
                recv_head,
            } => {
                let culprit = span_culprit(body, &args, &tainted, &sites).or_else(|| {
                    recv_head
                        .filter(|h| tainted.contains(h))
                        .map(|h| format!("`{h}`"))
                });
                if let Some(culprit) = culprit {
                    push(
                        "taint-escape",
                        at,
                        format!(
                            "`{}` passes untrusted {culprit} to `{target}`, which \
                             declares no validation (mark it `validates(…)`/\
                             `taint-exempt(…)` or validate first)",
                            f.qualified()
                        ),
                    );
                }
            }
        }
    }
}

/// Classifies every call site in `f`'s body through the typed resolver —
/// like the lock pass, taint is zero-tolerance, so one phantom edge onto a
/// same-named method would be an unfixable finding.
fn classify_sites(
    model: &Model,
    f: &FnItem,
    locals: &std::collections::BTreeMap<String, String>,
) -> Vec<Site> {
    let body = &f.body;
    let mut out = Vec::new();
    for call in call_sites(body) {
        let targets = resolve_site_typed(model, f, &call, locals);
        let has = |pred: &dyn Fn(&Marker) -> bool| {
            targets.iter().any(|&id| model.fns[id].has_marker(pred))
        };
        let class = if has(&|m| matches!(m, Marker::UntrustedSource)) {
            Class::Source
        } else if has(&|m| matches!(m, Marker::Validates(_) | Marker::TaintExempt(_))) {
            Class::Boundary
        } else if let Some(&id) = targets.first() {
            Class::Plain(model.fns[id].qualified())
        } else {
            Class::External
        };
        out.push(Site {
            at: call.at,
            name: call.name.clone(),
            recv_head: call.recv.iter().find(|r| r.as_str() != "self").cloned(),
            args: args_span(body, call.at + call.name.len()),
            class,
        });
    }
    out
}

/// Integer and raw-byte parameter types a validator treats as tainted.
fn is_raw_param_type(ty: &str) -> bool {
    matches!(
        ty,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// Declared parameter names of `f` (from the masked signature).
fn param_names(f: &FnItem) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let (Some(open), Some(close)) = (f.sig.find('('), f.sig.rfind(')')) {
        if open < close {
            for part in f.sig[open + 1..close].split(',') {
                if let Some((name, _)) = part.split_once(':') {
                    let name = name.trim().trim_start_matches("mut ").trim();
                    if !name.is_empty()
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        out.insert(name.to_string());
                    }
                }
            }
        }
    }
    out
}

/// Results that are clean even when read off a tainted value.
const CLEAN_SUFFIXES: &[&str] = &[
    ".len()",
    ".is_empty()",
    ".count_ones()",
    ".count_zeros()",
    ".leading_zeros()",
    ".trailing_zeros()",
];

/// Why `span` is tainted: the first tainted identifier or source call in
/// it, unless a clearing construct (`.min(`/`.clamp(`, a boundary call)
/// covers the span.
fn span_culprit(
    body: &str,
    span: &Range<usize>,
    tainted: &BTreeSet<String>,
    sites: &[Site],
) -> Option<String> {
    let text = body.get(span.clone())?;
    if text.contains(".min(") || text.contains(".clamp(") {
        return None;
    }
    if sites
        .iter()
        .any(|s| span.contains(&s.at) && s.class == Class::Boundary)
    {
        return None;
    }
    if let Some(s) = sites
        .iter()
        .find(|s| span.contains(&s.at) && s.class == Class::Source)
    {
        return Some(format!("result of `{}(…)`", s.name));
    }
    for (at, ident) in idents(text) {
        if tainted.contains(ident)
            && !CLEAN_SUFFIXES
                .iter()
                .any(|c| text[at + ident.len()..].starts_with(c))
        {
            return Some(format!("`{ident}`"));
        }
    }
    None
}

/// True when `text` contains `ident` on word boundaries.
fn mentions_ident(text: &str, ident: &str) -> bool {
    idents(text).any(|(_, i)| i == ident)
}

/// `(offset, ident)` for every identifier token in `text`.
fn idents(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = text.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                return Some((start, &text[start..i]));
            }
            if b.is_ascii_digit() {
                // Skip numeric literals together with their suffix
                // (`0u8`, `1_000usize`) so the suffix is not an ident.
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                continue;
            }
            i += 1;
        }
        None
    })
}

/// Balanced-delimiter end (one past the closer) for the opener at `at`.
fn balanced(bytes: &[u8], at: usize) -> usize {
    let open = bytes[at];
    let close = match open {
        b'(' => b')',
        b'[' => b']',
        b'{' => b'}',
        _ => return at + 1,
    };
    let mut depth = 0usize;
    let mut i = at;
    while i < bytes.len() {
        if bytes[i] == open {
            depth += 1;
        } else if bytes[i] == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// The content span inside the call parens that follow `pos` (after the
/// called name), if any.
fn args_span(body: &str, pos: usize) -> Option<Range<usize>> {
    let bytes = body.as_bytes();
    let mut j = pos;
    while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
        j += 1;
    }
    if bytes.get(j) != Some(&b'(') {
        return None;
    }
    let end = balanced(bytes, j);
    Some(j + 1..end.saturating_sub(1))
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `kw` (plus a trailing space) at word boundaries, yielding the
/// offset just past the keyword and its space.
fn keyword_starts<'a>(body: &'a str, kw: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = body.as_bytes();
    let pat = format!("{kw} ");
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = body[from..].find(&pat) {
            let at = from + pos;
            from = at + pat.len();
            if at == 0 || !is_ident_byte(bytes[at - 1]) {
                return Some(at + pat.len());
            }
        }
        None
    })
}

/// `let` bindings: plain idents, `Some(x)`/`Ok(x)` patterns, and tuple
/// patterns. The binding event carries the right-hand-side span up to the
/// statement's top-level `;`.
fn scan_let_bindings(body: &str, items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    for after_let in keyword_starts(body, "let") {
        let rest = &body[after_let..];
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let pat_start = after_let + (body[after_let..].len() - rest.len());
        let mut names = Vec::new();
        let mut cursor;
        if let Some(inner) = rest
            .strip_prefix("Some(")
            .or_else(|| rest.strip_prefix("Ok("))
        {
            let Some(close) = inner.find(')') else {
                continue;
            };
            collect_pattern_names(&inner[..close], &mut names);
            cursor = pat_start + (rest.len() - inner.len()) + close + 1;
        } else if rest.starts_with('(') {
            let open = pat_start;
            let end = balanced(bytes, open);
            collect_pattern_names(&body[open + 1..end.saturating_sub(1)], &mut names);
            cursor = end;
        } else {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            cursor = pat_start + name.len();
            names.push(name);
        }
        // Skip an optional `: Type` annotation up to `=`/`;` at top level.
        while cursor < bytes.len() && bytes[cursor] != b'=' && bytes[cursor] != b';' {
            match bytes[cursor] {
                b'(' | b'[' | b'{' => cursor = balanced(bytes, cursor),
                _ => cursor += 1,
            }
        }
        if bytes.get(cursor) != Some(&b'=') || names.is_empty() {
            continue;
        }
        let rhs_start = cursor + 1;
        let mut end = rhs_start;
        while end < bytes.len() && bytes[end] != b';' {
            match bytes[end] {
                b'(' | b'[' | b'{' => end = balanced(bytes, end),
                _ => end += 1,
            }
        }
        items.push((
            after_let,
            Item::Bind {
                names,
                rhs: rhs_start..end,
            },
        ));
    }
}

fn collect_pattern_names(pat: &str, names: &mut Vec<String>) {
    for part in pat.split(',') {
        let part = part
            .trim()
            .trim_start_matches("ref ")
            .trim_start_matches("mut ")
            .trim();
        if !part.is_empty()
            && part != "_"
            && part.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            names.push(part.to_string());
        }
    }
}

/// `for <name> in <expr> {` loops.
fn scan_for_loops(body: &str, items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    for after_for in keyword_starts(body, "for") {
        let rest = &body[after_for..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = rest[name.len()..].trim_start();
        let Some(expr_rel) = after.strip_prefix("in ") else {
            continue;
        };
        let expr_start = after_for + (rest.len() - expr_rel.len());
        // Condition runs to the loop `{` at top paren depth.
        let mut end = expr_start;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        items.push((
            after_for,
            Item::ForBind {
                name,
                expr: expr_start..end,
            },
        ));
    }
}

/// Comparison guards that diverge. Returns every `if`/`while` condition
/// span (arithmetic there is the validation itself) and the spans of
/// diverging guard blocks (sinks there sit on the rejection path).
fn scan_guards(
    body: &str,
    items: &mut Vec<(usize, Item)>,
) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let bytes = body.as_bytes();
    let mut conds = Vec::new();
    let mut diverging = Vec::new();
    for after_if in keyword_starts(body, "if") {
        if body[after_if..].starts_with("let ") {
            continue;
        }
        let cond_start = after_if;
        let mut end = cond_start;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        if bytes.get(end) != Some(&b'{') {
            continue;
        }
        let cond = cond_start..end;
        let text = &body[cond.clone()];
        let compares =
            text.contains("==") || text.contains("!=") || text.contains('<') || text.contains('>');
        conds.push(cond.clone());
        if !compares {
            continue;
        }
        let block_end = balanced(bytes, end);
        let block = &body[end..block_end];
        let diverges = mentions_ident(block, "return")
            || mentions_ident(block, "break")
            || mentions_ident(block, "continue")
            || block.contains("Err(");
        if diverges {
            diverging.push(end..block_end);
            items.push((block_end, Item::GuardClear { cond }));
        }
    }
    (conds, diverging)
}

/// `while <cond> {` loops — a tainted condition is a tainted loop bound.
fn scan_whiles(body: &str, conds_out: &Vec<Range<usize>>, items: &mut Vec<(usize, Item)>) {
    let _ = conds_out;
    let bytes = body.as_bytes();
    for after_while in keyword_starts(body, "while") {
        if body[after_while..].starts_with("let ") {
            continue;
        }
        let mut end = after_while;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        items.push((
            after_while,
            Item::Sink {
                kind: SinkKind::While,
                span: after_while..end,
            },
        ));
    }
}

/// Index/slice expressions: `x[…]` where the `[` follows a value.
fn scan_index_sinks(body: &str, items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        let end = balanced(bytes, i);
        items.push((
            i,
            Item::Sink {
                kind: SinkKind::Index,
                span: i + 1..end.saturating_sub(1),
            },
        ));
    }
}

/// Allocation sizes: `with_capacity(…)`, `.reserve(…)`, `.resize(…)`,
/// `vec![…]`.
fn scan_alloc_sinks(body: &str, items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    for pat in ["with_capacity(", ".reserve(", ".reserve_exact(", ".resize("] {
        let mut from = 0;
        while let Some(pos) = body[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            let open = at + pat.len() - 1;
            let end = balanced(bytes, open);
            items.push((
                at,
                Item::Sink {
                    kind: SinkKind::Alloc,
                    span: open + 1..end.saturating_sub(1),
                },
            ));
        }
    }
    let mut from = 0;
    while let Some(pos) = body[from..].find("vec![") {
        let at = from + pos;
        from = at + 5;
        let end = balanced(bytes, at + 4);
        items.push((
            at,
            Item::Sink {
                kind: SinkKind::Alloc,
                span: at + 5..end.saturating_sub(1),
            },
        ));
    }
}

/// `PageId(…)` constructions.
fn scan_pageid_sinks(body: &str, items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    let mut from = 0;
    while let Some(pos) = body[from..].find("PageId(") {
        let at = from + pos;
        from = at + 7;
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let end = balanced(bytes, at + 6);
        items.push((
            at,
            Item::Sink {
                kind: SinkKind::PageId,
                span: at + 7..end.saturating_sub(1),
            },
        ));
    }
}

/// Identifier occurrences adjacent to arithmetic operators, outside
/// `if`/`while` conditions.
fn scan_arith(body: &str, conds: &[Range<usize>], items: &mut Vec<(usize, Item)>) {
    let bytes = body.as_bytes();
    for (at, ident) in idents(body) {
        if conds.iter().any(|c| c.contains(&at)) {
            continue;
        }
        if arith_before(bytes, at) || arith_after(bytes, at + ident.len()) {
            items.push((
                at,
                Item::Arith {
                    ident: ident.to_string(),
                },
            ));
        }
    }
}

/// True when the nearest non-space text before `at` is an arithmetic
/// operator (comparisons, references, logical ops and `->` excluded).
fn arith_before(bytes: &[u8], at: usize) -> bool {
    let mut i = at;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let prev = bytes[i - 1];
    let prev2 = if i >= 2 { Some(bytes[i - 2]) } else { None };
    match prev {
        b'+' | b'*' | b'/' | b'%' | b'^' => prev2 != Some(prev) || prev == b'+',
        // `-` is arithmetic; `->` cannot directly precede a value ident.
        b'-' => true,
        b'<' => prev2 == Some(b'<'),
        b'>' => prev2 == Some(b'>') && (i < 3 || bytes[i - 3] != b'-'),
        b'=' => matches!(
            prev2,
            Some(b'+') | Some(b'-') | Some(b'*') | Some(b'/') | Some(b'%') | Some(b'^')
        ),
        _ => false,
    }
}

/// True when the nearest non-space text after `end` is an arithmetic
/// operator (comparisons, `..` ranges, and plain `=` excluded).
fn arith_after(bytes: &[u8], end: usize) -> bool {
    let mut i = end;
    // `?` propagates before the operator applies: `x? + 1`.
    while bytes
        .get(i)
        .is_some_and(|&b| b.is_ascii_whitespace() || b == b'?')
    {
        i += 1;
    }
    let Some(&next) = bytes.get(i) else {
        return false;
    };
    let next2 = bytes.get(i + 1).copied();
    match next {
        b'+' | b'*' | b'/' | b'%' | b'^' => true,
        b'-' => next2 != Some(b'>'),
        b'<' => next2 == Some(b'<'),
        b'>' => next2 == Some(b'>'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Violation> {
        let mut m = Model::default();
        m.add_file("crates/store/src/demo.rs", src).expect("parse");
        run(&m, false)
    }

    const SOURCE: &str = "// analyze: untrusted-source\n\
                          fn read_raw(b: &[u8], at: usize) -> u64 { 0 }\n";

    #[test]
    fn tainted_index_is_flagged() {
        let v = findings(&format!(
            "{SOURCE}fn decode(b: &[u8]) -> u8 {{ let n = read_raw(b, 0); b[n] }}\n"
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-index");
        assert!(v[0].message.contains("`n`"), "{}", v[0].message);
    }

    #[test]
    fn guard_clears_taint() {
        let v = findings(&format!(
            "{SOURCE}fn decode(b: &[u8]) -> u8 {{ let n = read_raw(b, 0);\n\
             if n >= b.len() {{ return 0; }}\n b[n] }}\n"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn min_clamp_clears_taint() {
        let v = findings(&format!(
            "{SOURCE}fn decode(b: &[u8]) {{ let n = read_raw(b, 0);\n\
             let n = n.min(b.len());\n let v = Vec::with_capacity(n); }}\n"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn tainted_alloc_and_loop_and_arith_flagged() {
        let v = findings(&format!(
            "{SOURCE}fn decode(b: &[u8]) {{ let n = read_raw(b, 0);\n\
             let v = Vec::with_capacity(n);\n\
             for i in 0..n {{ }}\n\
             let m = n * 8;\n }}\n"
        ));
        let rules: Vec<&str> = v.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"taint-alloc"), "{v:?}");
        assert!(rules.contains(&"taint-loop"), "{v:?}");
        assert!(rules.contains(&"taint-arith"), "{v:?}");
    }

    #[test]
    fn validator_call_clears_and_escape_fires_without_one() {
        let with_validator = findings(&format!(
            "{SOURCE}// analyze: validates(count)\n\
             fn checked(n: u64) -> u64 {{ if n > 4096 {{ return 0; }} n }}\n\
             fn decode(b: &[u8]) {{ let n = checked(read_raw(b, 0));\n\
             let v = Vec::with_capacity(n); }}\n"
        ));
        assert!(with_validator.is_empty(), "{with_validator:?}");

        let without = findings(&format!(
            "{SOURCE}fn helper(n: u64) -> u64 {{ n }}\n\
             fn decode(b: &[u8]) {{ let n = read_raw(b, 0);\n let v = helper(n); }}\n"
        ));
        assert_eq!(without.len(), 1, "{without:?}");
        assert_eq!(without[0].rule, "taint-escape");
        assert!(
            without[0].message.contains("helper"),
            "{}",
            without[0].message
        );
    }

    #[test]
    fn source_call_in_sink_position_is_flagged() {
        let v = findings(&format!(
            "{SOURCE}fn root(b: &[u8]) -> PageId {{ PageId(read_raw(b, 0) - 1) }}\n"
        ));
        assert!(
            v.iter().any(|f| f.rule == "taint-pageid"),
            "direct source call inside PageId(…) must be flagged: {v:?}"
        );
    }

    #[test]
    fn exempt_leaf_and_clean_len_are_quiet() {
        let v = findings(&format!(
            "{SOURCE}// analyze: taint-exempt(branchless bit trick, total on all inputs)\n\
             fn select(w: u64) -> u64 {{ w & w - 1 }}\n\
             fn decode(b: &[u8]) {{ let w = read_raw(b, 0);\n\
             let s = select(w);\n let l = b.len(); }}\n"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn validator_params_are_tainted_inside_its_body() {
        let v = findings(
            "// analyze: validates(len)\n\
             fn bad_validator(b: &[u8], n: usize) -> u8 { b[n] }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-index");
    }

    #[test]
    fn anchor_required_on_workspace_runs() {
        let mut m = Model::default();
        m.add_file("crates/store/src/demo.rs", "fn f() {}\n")
            .expect("parse");
        assert!(run(&m, false).is_empty());
        let v = run(&m, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-anchor");
    }

    #[test]
    fn shadowing_rebind_clears() {
        let v = findings(&format!(
            "{SOURCE}fn decode(b: &[u8]) {{ let n = read_raw(b, 0);\n\
             let n = 4usize;\n let v = Vec::with_capacity(n); }}\n"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn while_bound_from_source_is_flagged() {
        let v = findings(&format!(
            "{SOURCE}fn walk(b: &[u8]) {{ let end = read_raw(b, 4);\n\
             let mut off = 8u64;\n while off < end {{ off += 1; }} }}\n"
        ));
        assert!(
            v.iter().any(|f| f.rule == "taint-loop"),
            "tainted while bound must be flagged: {v:?}"
        );
    }
}
