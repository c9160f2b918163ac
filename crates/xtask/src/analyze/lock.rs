//! Lock discipline: classes, acquisition order, I/O under guards, and
//! single-writer ownership.
//!
//! Every `Mutex`/`RwLock` struct field must be classified into a declared
//! **lock class** with a field-level `// analyze: lock-class(<name>)`
//! marker ([`super::model::LockField`]). The classes form a total order
//! ([`LOCK_CLASSES`]):
//!
//! ```text
//! manifest (rank 0, no I/O)  ->  shard (rank 1, no I/O)
//!   ->  pager (rank 2, I/O)  ->  vfs-state (rank 3, no I/O)
//! ```
//!
//! Four zero-tolerance rules are proved over the masked bodies and the
//! call graph:
//!
//! * `lock-class` — every lock field carries a known class; an
//!   unclassified field or an unknown class name is a hard finding, as is
//!   one content type classified into two different classes (acquisition
//!   sites are classified *by content type*, so the mapping must be a
//!   function).
//! * `lock-order` — while a guard of class `c` is live, no acquisition of
//!   rank ≤ rank(`c`) may happen, directly in the same body or
//!   transitively through any callee (`acq*` fixpoint). Same-class
//!   re-acquisition is the degenerate inversion (self-deadlock on a
//!   non-reentrant mutex).
//! * `lock-guard-io` — while a guard of a *no-I/O* class is live, no call
//!   may reach the `Vfs`/`VfsFile` seam except through a call site that
//!   is itself under a live guard of an I/O-allowed class (the pager
//!   mediates: `flush_dirty` holds the shard lock across the pager
//!   write-back *by design* — releasing it first would let a reader
//!   fault-in the stale on-disk page). Calls to a user-supplied closure
//!   parameter under *any* live guard are findings: the closure's body is
//!   outside the analysis and may take arbitrary locks or block.
//! * `reader-writes` — no `&self` method of a store handle type
//!   ([`STORE_HANDLES`]) may reach a `txn-sink` (a mutating storage
//!   write). This is the single-writer half of the snapshot contract:
//!   readers share a handle, and with it the buffer pool, but must never
//!   write pages back; every write takes `&mut self` or `self`.
//!
//! Additionally the pass emits one **ratcheted census finding** (rule
//! `lock-discipline`) per classified acquisition site, so the
//! `[lock-discipline]` baseline section tracks where locking happens —
//! a new acquisition site anywhere fails the ratchet until reviewed.
//!
//! Guard live ranges are lexical, mirroring Rust's drop rules closely
//! enough for this codebase: a `let`-bound guard lives to the end of its
//! enclosing block, cut short by `drop(<name>)` or a shadowing
//! rebinding; an unbound (temporary) guard lives to the end of its
//! statement. Like the transaction pass, the workspace run is anchored
//! ([`run`] with `require_anchors`): every declared class must be
//! inhabited and the store handle types must exist, so the checks cannot
//! rot away silently in a refactor.

use super::callgraph::{call_sites, local_types, resolve_site_typed, Graph};
use super::model::{FnItem, Marker, Model, Receiver};
use super::report::Violation;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One declared lock class.
struct LockClass {
    name: &'static str,
    /// Position in the total acquisition order (acquire ascending).
    rank: usize,
    /// Whether calls under a guard of this class may reach the VFS seam.
    io_allowed: bool,
}

/// The declared classes, in acquisition order. `manifest` guards the
/// segmented store's published source-set pointer (an RCU swap: guards are
/// statement-scoped temporaries covering one `Arc` clone or one pointer
/// store, never I/O), `shard` a buffer shard's frame table, `pager` the
/// file-backed pager (the only class whose guards may cover I/O),
/// `vfs-state` the fault-injection VFS's in-memory bookkeeping.
const LOCK_CLASSES: &[LockClass] = &[
    LockClass {
        name: "manifest",
        rank: 0,
        io_allowed: false,
    },
    LockClass {
        name: "shard",
        rank: 1,
        io_allowed: false,
    },
    LockClass {
        name: "pager",
        rank: 2,
        io_allowed: true,
    },
    LockClass {
        name: "vfs-state",
        rank: 3,
        io_allowed: false,
    },
];

/// Store handle types: their `&self` methods must never reach a
/// `txn-sink`.
const STORE_HANDLES: &[&str] = &[
    "IndexStore",
    "DocumentStore",
    "SegmentedIndexStore",
    "SegmentedReader",
];

/// The I/O seam: owners whose methods count as performing I/O.
const VFS_SEAM_TRAITS: &[&str] = &["Vfs", "VfsFile"];

fn class_index(name: &str) -> Option<usize> {
    LOCK_CLASSES.iter().position(|c| c.name == name)
}

fn order_hint() -> String {
    LOCK_CLASSES
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Validates every lock field's class and builds the content-type →
/// class map used to classify acquisitions through typed locals.
fn classify_fields(model: &Model) -> (Vec<Violation>, BTreeMap<String, usize>) {
    let mut hard = Vec::new();
    let mut by_content: BTreeMap<String, usize> = BTreeMap::new();
    for ((owner, field), lf) in &model.lock_fields {
        let class = match &lf.class {
            None => {
                hard.push(Violation {
                    rule: "lock-class",
                    file: lf.file.clone(),
                    line: lf.line,
                    message: format!(
                        "lock field `{owner}.{field}` has no class; add \
                         `// analyze: lock-class(<name>)` above it (known classes: {})",
                        order_hint()
                    ),
                });
                continue;
            }
            Some(name) => match class_index(name) {
                Some(idx) => idx,
                None => {
                    hard.push(Violation {
                        rule: "lock-class",
                        file: lf.file.clone(),
                        line: lf.line,
                        message: format!(
                            "unknown lock class `{name}` on `{owner}.{field}`; known \
                             classes: {}",
                            order_hint()
                        ),
                    });
                    continue;
                }
            },
        };
        match by_content.get(&lf.content) {
            Some(&prev) if prev != class => hard.push(Violation {
                rule: "lock-class",
                file: lf.file.clone(),
                line: lf.line,
                message: format!(
                    "lock content type `{}` is classified both `{}` and `{}`; \
                     acquisition sites are classified by content type, so the \
                     mapping must be unambiguous",
                    lf.content, LOCK_CLASSES[prev].name, LOCK_CLASSES[class].name
                ),
            }),
            _ => {
                by_content.insert(lf.content.clone(), class);
            }
        }
    }
    (hard, by_content)
}

/// One classified lock acquisition inside a function body.
struct Acq {
    /// Index into [`LOCK_CLASSES`].
    class: usize,
    /// Byte offset of the acquisition method name within the body.
    at: usize,
    /// Exclusive end of the guard's lexical live range.
    end: usize,
    /// 1-based line of the acquisition in the original file.
    line: usize,
}

/// Everything the per-function checks need, computed in one scan.
struct FnLockData {
    acqs: Vec<Acq>,
    /// `(offset, qualified display name, resolved callee ids)` per call.
    calls: Vec<(usize, String, Vec<usize>)>,
    /// `(offset, parameter name)` for calls to closure parameters.
    closure_calls: Vec<(usize, String)>,
}

/// True when the parens after `after_name` are an empty argument list —
/// distinguishes `pager.lock()` from `file.read(buf)`.
fn empty_args(body: &str, after_name: usize) -> bool {
    let bytes = body.as_bytes();
    let mut i = after_name;
    while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    if bytes.get(i) != Some(&b'(') {
        return false;
    }
    i += 1;
    while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    bytes.get(i) == Some(&b')')
}

/// The `let`-binding (or reassignment) name when the statement containing
/// the acquisition at `name_at` binds it, `None` for a temporary guard.
fn binding_name(body: &str, name_at: usize) -> Option<String> {
    let bytes = body.as_bytes();
    let stmt_start = bytes[..name_at]
        .iter()
        .rposition(|&b| b == b';' || b == b'{' || b == b'}')
        .map(|p| p + 1)
        .unwrap_or(0);
    let head = body[stmt_start..name_at].trim_start();
    let rest = match head.strip_prefix("let ") {
        Some(r) => r
            .trim_start()
            .strip_prefix("mut ")
            .unwrap_or(r)
            .trim_start(),
        None => head,
    };
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    // `guard = …` (binding or reassignment) but not `guard == …`.
    (after.starts_with('=') && !after.starts_with("==")).then_some(name)
}

/// Exclusive end of the guard's lexical live range.
fn live_range_end(body: &str, name_at: usize) -> usize {
    let bytes = body.as_bytes();
    match binding_name(body, name_at) {
        Some(name) => {
            // To the end of the enclosing block…
            let mut depth = 0usize;
            let mut end = body.len();
            let mut i = name_at;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => depth += 1,
                    b'}' => {
                        if depth == 0 {
                            end = i;
                            break;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
                i += 1;
            }
            // …cut short by `drop(name)` or a shadowing `let name =`.
            if let Some(at) = find_drop(body, name_at, end, &name) {
                end = at;
            }
            if let Some(at) = find_shadow(body, name_at, end, &name) {
                end = end.min(at);
            }
            end
        }
        None => {
            // Temporary: to the end of the statement. A block returning to
            // depth 0 (`if let … = tmp.lock()… { … }`) ends the statement
            // unless the expression continues (`else`, a method chain, or
            // the block is itself a sub-expression).
            let mut depth = 0isize;
            let mut i = name_at;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' => {
                        if depth == 0 {
                            return i;
                        }
                        depth -= 1;
                    }
                    b'}' => {
                        if depth == 0 {
                            return i;
                        }
                        depth -= 1;
                        if depth == 0 {
                            let mut j = i + 1;
                            while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
                                j += 1;
                            }
                            let cont = matches!(
                                bytes.get(j),
                                Some(&b'.') | Some(&b'?') | Some(&b')') | Some(&b',')
                            ) || body[j.min(body.len())..].starts_with("else");
                            if !cont {
                                return i;
                            }
                        }
                    }
                    b';' if depth == 0 => return i,
                    _ => {}
                }
                i += 1;
            }
            body.len()
        }
    }
}

/// Position of `drop(<name>)` between `from` and `to`, if any.
fn find_drop(body: &str, from: usize, to: usize, name: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut i = from;
    while let Some(pos) = body[i..to.min(body.len())].find("drop") {
        let at = i + pos;
        i = at + 4;
        let boundary = (at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_')
            && bytes.get(at + 4) == Some(&b'(');
        if !boundary {
            continue;
        }
        let inner = body[at + 5..].trim_start();
        if inner
            .strip_prefix(name)
            .is_some_and(|r| r.trim_start().starts_with(')'))
        {
            return Some(at);
        }
    }
    None
}

/// Position of a shadowing `let [mut] <name> =` after `from`, if any.
fn find_shadow(body: &str, from: usize, to: usize, name: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut i = from + 1;
    while let Some(pos) = body[i..to.min(body.len())].find("let ") {
        let at = i + pos;
        i = at + 4;
        let boundary = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        if !boundary {
            continue;
        }
        let rest = body[at + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        if rest
            .strip_prefix(name)
            .is_some_and(|r| !r.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
        {
            return Some(at);
        }
    }
    None
}

/// Closure parameter names: `f: impl FnOnce(…)`, `f: F` with
/// `F: FnMut(…)` in the generics or `where` clause.
fn closure_params(sig: &str) -> Vec<String> {
    let bytes = sig.as_bytes();
    // Generics region: `<…>` balanced (skipping `->`) before the params.
    let mut generics: Option<(usize, usize)> = None;
    let mut params_open = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => {
                let start = i;
                let mut depth = 0isize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'<' => depth += 1,
                        b'>' if i > 0 && bytes[i - 1] != b'-' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                generics = Some((start + 1, i.min(bytes.len())));
                i += 1;
            }
            b'(' => {
                params_open = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let mut fn_generics: BTreeSet<String> = BTreeSet::new();
    let mut collect_bounds = |clause: &str| {
        for part in split_commas(clause) {
            if let Some((name, bound)) = part.split_once(':') {
                let name = name.trim();
                if bound.contains("Fn")
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !name.is_empty()
                {
                    fn_generics.insert(name.to_string());
                }
            }
        }
    };
    if let Some((s, e)) = generics {
        if s < e {
            collect_bounds(&sig[s..e]);
        }
    }
    if let Some(wh) = sig.find(" where ") {
        collect_bounds(&sig[wh + 7..]);
    }
    let mut out = Vec::new();
    let Some(open) = params_open else { return out };
    // Matching close paren of the parameter list.
    let mut depth = 0isize;
    let mut close = None;
    for (idx, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(idx);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else { return out };
    for part in split_commas(&sig[open + 1..close]) {
        if let Some((name, ty)) = part.split_once(':') {
            let name = name
                .trim()
                .strip_prefix("mut ")
                .unwrap_or(name.trim())
                .trim();
            let ty = ty.trim();
            let bare = super::model::strip_wrappers(ty);
            if (ty.contains("Fn") || fn_generics.contains(&bare))
                && !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Splits on top-level commas (nested `()`/`<>`/`[]` ignored).
fn split_commas(s: &str) -> Vec<&str> {
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

/// Classifies the receiver of an acquisition call, if it is a known lock.
fn classify_receiver(
    model: &Model,
    f: &FnItem,
    recv: &[String],
    locals: &BTreeMap<String, String>,
    by_content: &BTreeMap<String, usize>,
) -> Option<usize> {
    let field_class = |owner: &str, field: &str| {
        model
            .lock_fields
            .get(&(owner.to_string(), field.to_string()))
            .and_then(|lf| lf.class.as_deref())
            .and_then(class_index)
    };
    match recv {
        [s, field] if s == "self" => field_class(f.owner.as_deref()?, field),
        [local] => by_content.get(locals.get(local)?).copied(),
        [local, field] => field_class(locals.get(local)?, field),
        _ => None,
    }
}

/// Scans one function's body for acquisitions, resolved calls, and
/// closure-parameter calls.
fn scan_fn(model: &Model, f: &FnItem, by_content: &BTreeMap<String, usize>) -> FnLockData {
    let locals = local_types(f, model);
    let params = closure_params(&f.sig);
    let body_line = f.line + f.sig.bytes().filter(|&b| b == b'\n').count();
    let line_at = |pos: usize| {
        body_line
            + f.body.as_bytes()[..pos]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
    };
    let mut data = FnLockData {
        acqs: Vec::new(),
        calls: Vec::new(),
        closure_calls: Vec::new(),
    };
    for call in call_sites(&f.body) {
        if call.is_method
            && matches!(call.name.as_str(), "lock" | "read" | "write")
            && empty_args(&f.body, call.at + call.name.len())
        {
            if let Some(class) = classify_receiver(model, f, &call.recv, &locals, by_content) {
                data.acqs.push(Acq {
                    class,
                    at: call.at,
                    end: live_range_end(&f.body, call.at),
                    line: line_at(call.at),
                });
                continue;
            }
        }
        if !call.is_method && call.path.is_empty() && params.contains(&call.name) {
            data.closure_calls.push((call.at, call.name.clone()));
            continue;
        }
        let callees = resolve_site_typed(model, f, &call, &locals);
        if !callees.is_empty() {
            data.calls.push((call.at, call.name.clone(), callees));
        }
    }
    data
}

/// Result of the lock pass.
#[derive(Debug, Default)]
pub struct LockReport {
    /// Zero-tolerance findings (`lock-class`, `lock-order`,
    /// `lock-guard-io`, `reader-writes`).
    pub hard: Vec<Violation>,
    /// The `lock-discipline` acquisition census, gated by the baseline.
    pub census: Vec<Violation>,
}

/// Runs the lock-discipline analysis. With `require_anchors` (workspace
/// runs) every declared class must be inhabited, the store handle types
/// must exist with non-test methods, and a `txn-sink` must exist — so the
/// rules cannot be refactored into vacuity.
pub fn run(model: &Model, graph: &Graph, require_anchors: bool) -> LockReport {
    let (mut hard, by_content) = classify_fields(model);
    let n = model.fns.len();
    let data: Vec<Option<FnLockData>> = model
        .fns
        .iter()
        .map(|f| (!f.is_test).then(|| scan_fn(model, f, &by_content)))
        .collect();

    // acq*[f]: bitmask of classes f may acquire, transitively.
    let mut acq_star: Vec<u32> = data
        .iter()
        .map(|d| {
            d.as_ref()
                .map(|d| d.acqs.iter().fold(0u32, |m, a| m | 1 << a.class))
                .unwrap_or(0)
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            let Some(d) = &data[id] else { continue };
            let mut mask = acq_star[id];
            for (_, _, callees) in &d.calls {
                for &callee in callees {
                    mask |= acq_star[callee];
                }
            }
            if mask != acq_star[id] {
                acq_star[id] = mask;
                changed = true;
            }
        }
    }

    // Seam membership: trait methods and every implementor's methods.
    let seam_owners: BTreeSet<&str> = VFS_SEAM_TRAITS
        .iter()
        .copied()
        .chain(VFS_SEAM_TRAITS.iter().flat_map(|t| {
            model
                .impls
                .get(*t)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(String::as_str)
        }))
        .collect();
    // vfs-unguarded fixpoint: f reaches the seam through a call site not
    // mediated by a live I/O-allowed guard in f.
    let io_ranges: Vec<Vec<(usize, usize)>> = data
        .iter()
        .map(|d| {
            d.as_ref()
                .map(|d| {
                    d.acqs
                        .iter()
                        .filter(|a| LOCK_CLASSES[a.class].io_allowed)
                        .map(|a| (a.at, a.end))
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    let mediated = |id: usize, at: usize| io_ranges[id].iter().any(|&(s, e)| s < at && at < e);
    let mut vfs_unguarded: Vec<bool> = model
        .fns
        .iter()
        .map(|f| f.owner.as_deref().is_some_and(|o| seam_owners.contains(o)))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if vfs_unguarded[id] {
                continue;
            }
            let Some(d) = &data[id] else { continue };
            let reaches = d.calls.iter().any(|(at, _, callees)| {
                !mediated(id, *at) && callees.iter().any(|&c| vfs_unguarded[c])
            });
            if reaches {
                vfs_unguarded[id] = true;
                changed = true;
            }
        }
    }

    for (id, f) in model.fns.iter().enumerate() {
        let Some(d) = &data[id] else { continue };
        let body_line = f.line + f.sig.bytes().filter(|&b| b == b'\n').count();
        let line_at = |pos: usize| {
            body_line
                + f.body.as_bytes()[..pos]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
        };
        for a in &d.acqs {
            let held = &LOCK_CLASSES[a.class];
            // Direct ordering: later acquisitions inside the live range.
            for b in &d.acqs {
                if b.at <= a.at || b.at >= a.end {
                    continue;
                }
                let taken = &LOCK_CLASSES[b.class];
                if taken.rank > held.rank {
                    continue;
                }
                hard.push(Violation {
                    rule: "lock-order",
                    file: f.file.clone(),
                    line: b.line,
                    message: if b.class == a.class {
                        format!(
                            "`{}` re-acquires lock class `{}` while already holding it \
                             (self-deadlock on a non-reentrant lock)",
                            f.qualified(),
                            held.name
                        )
                    } else {
                        format!(
                            "`{}` acquires `{}` while holding `{}`; the declared order \
                             is {}",
                            f.qualified(),
                            taken.name,
                            held.name,
                            order_hint()
                        )
                    },
                });
            }
            // Transitive ordering: callees that may acquire ≤ rank.
            for (at, name, callees) in &d.calls {
                if *at <= a.at || *at >= a.end {
                    continue;
                }
                let mut flagged: u32 = 0;
                for &callee in callees {
                    for (ci, c) in LOCK_CLASSES.iter().enumerate() {
                        if acq_star[callee] & (1 << ci) == 0
                            || c.rank > held.rank
                            || flagged & (1 << ci) != 0
                        {
                            continue;
                        }
                        flagged |= 1 << ci;
                        hard.push(Violation {
                            rule: "lock-order",
                            file: f.file.clone(),
                            line: line_at(*at),
                            message: format!(
                                "`{}` holds `{}` across a call to `{}` (via `{}`) which \
                                 may acquire `{}`; the declared order is {}",
                                f.qualified(),
                                held.name,
                                model.fns[callee].qualified(),
                                name,
                                c.name,
                                order_hint()
                            ),
                        });
                    }
                }
            }
            // I/O under a no-I/O guard, unless pager-mediated at the site.
            if !held.io_allowed {
                for (at, _, callees) in &d.calls {
                    if *at <= a.at || *at >= a.end || mediated(id, *at) {
                        continue;
                    }
                    if let Some(&callee) = callees.iter().find(|&&c| vfs_unguarded[c]) {
                        hard.push(Violation {
                            rule: "lock-guard-io",
                            file: f.file.clone(),
                            line: line_at(*at),
                            message: format!(
                                "`{}` holds no-I/O lock class `{}` across a call to \
                                 `{}` that reaches the VFS seam; release the guard or \
                                 mediate through a `pager`-class guard",
                                f.qualified(),
                                held.name,
                                model.fns[callee].qualified()
                            ),
                        });
                    }
                }
            }
            // Any guard across a user-closure call.
            for (at, pname) in &d.closure_calls {
                if *at <= a.at || *at >= a.end {
                    continue;
                }
                hard.push(Violation {
                    rule: "lock-guard-io",
                    file: f.file.clone(),
                    line: line_at(*at),
                    message: format!(
                        "`{}` holds lock class `{}` across a call to its closure \
                         parameter `{}`; user code must run outside all locks",
                        f.qualified(),
                        held.name,
                        pname
                    ),
                });
            }
        }
    }

    hard.extend(reader_writes(model, graph));
    if require_anchors {
        hard.extend(check_anchors(model, &data));
    }

    let mut census = Vec::new();
    for (id, f) in model.fns.iter().enumerate() {
        let Some(d) = &data[id] else { continue };
        for a in &d.acqs {
            census.push(Violation {
                rule: "lock-discipline",
                file: f.file.clone(),
                line: a.line,
                message: format!(
                    "`{}` acquires lock class `{}`",
                    f.qualified(),
                    LOCK_CLASSES[a.class].name
                ),
            });
        }
    }
    census.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    hard.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    hard.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });
    LockReport { hard, census }
}

/// Single-writer rule: a store handle's `&self` methods must not reach a
/// `txn-sink`.
fn reader_writes(model: &Model, graph: &Graph) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, f) in model.fns.iter().enumerate() {
        let Some(handle) = f.owner.as_deref().filter(|o| STORE_HANDLES.contains(o)) else {
            continue;
        };
        if f.is_test || f.receiver() != Some(Receiver::Shared) {
            continue;
        }
        // BFS with parent links for an example path.
        let mut parent: Vec<Option<usize>> = vec![None; model.fns.len()];
        let mut visited = vec![false; model.fns.len()];
        let mut queue = VecDeque::new();
        visited[id] = true;
        queue.push_back(id);
        let mut found = None;
        'bfs: while let Some(cur) = queue.pop_front() {
            for &next in &graph.edges[cur] {
                if visited[next] {
                    continue;
                }
                visited[next] = true;
                parent[next] = Some(cur);
                if model.fns[next].has_marker(|m| matches!(m, Marker::TxnSink)) {
                    found = Some(next);
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        let Some(mut sink) = found else { continue };
        let mut names = vec![model.fns[sink].qualified()];
        while sink != id {
            match parent[sink] {
                Some(p) => {
                    sink = p;
                    names.push(model.fns[sink].qualified());
                }
                None => break,
            }
        }
        names.reverse();
        out.push(Violation {
            rule: "reader-writes",
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "`{}` takes `&self` on store handle `{}` but reaches a mutating \
                 write: {}",
                f.qualified(),
                handle,
                names.join(" -> ")
            ),
        });
    }
    out
}

/// Workspace anchors: the classes must be inhabited, the store handle
/// types must exist, and a sink must exist for `reader-writes` to bite.
fn check_anchors(model: &Model, data: &[Option<FnLockData>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ci, class) in LOCK_CLASSES.iter().enumerate() {
        let inhabited = model
            .lock_fields
            .values()
            .any(|lf| lf.class.as_deref().and_then(class_index) == Some(ci));
        if !inhabited {
            out.push(Violation {
                rule: "lock-class",
                file: "<workspace>".into(),
                line: 0,
                message: format!(
                    "anchor: no lock field is classified `{}`; update the class table \
                     in crates/xtask/src/analyze/lock.rs if the locking design changed",
                    class.name
                ),
            });
        }
    }
    for handle in STORE_HANDLES {
        let exists = model
            .fns
            .iter()
            .any(|f| !f.is_test && f.owner.as_deref() == Some(*handle));
        if !exists {
            out.push(Violation {
                rule: "reader-writes",
                file: "<workspace>".into(),
                line: 0,
                message: format!(
                    "anchor: store handle `{handle}` has no non-test methods; update \
                     STORE_HANDLES in crates/xtask/src/analyze/lock.rs if it moved"
                ),
            });
        }
    }
    let has_sink = model
        .fns
        .iter()
        .any(|f| f.has_marker(|m| matches!(m, Marker::TxnSink)));
    if !has_sink {
        out.push(Violation {
            rule: "reader-writes",
            file: "<workspace>".into(),
            line: 0,
            message: "anchor: no `txn-sink` markers found; the single-writer rule is \
                      vacuous without sinks"
                .into(),
        });
    }
    let any_acq = data.iter().flatten().any(|d| !d.acqs.is_empty());
    if !any_acq {
        out.push(Violation {
            rule: "lock-class",
            file: "<workspace>".into(),
            line: 0,
            message: "anchor: no classified lock acquisitions found anywhere; the \
                      ordering rules are vacuous"
                .into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str) -> (Model, Graph) {
        let mut m = Model::default();
        m.add_file("crates/store/src/demo.rs", src).expect("parse");
        let g = Graph::build(&m);
        (m, g)
    }

    fn run_src(src: &str) -> LockReport {
        let (m, g) = setup(src);
        run(&m, &g, false)
    }

    const POOL: &str = "struct Shard;\nstruct Pager;\nstruct Pool {\n\
                        // analyze: lock-class(shard)\nshards: Box<[Mutex<Shard>]>,\n\
                        // analyze: lock-class(pager)\npager: Mutex<Pager>,\n}\n";

    #[test]
    fn unclassified_lock_field_is_hard() {
        let r = run_src("struct S;\nstruct P { naked: Mutex<S> }\n");
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-class");
        assert!(r.hard[0].message.contains("no class"));
    }

    #[test]
    fn unknown_class_is_hard_even_without_anchors() {
        let r =
            run_src("struct S;\nstruct P {\n// analyze: lock-class(bogus)\nnaked: Mutex<S>,\n}\n");
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert!(r.hard[0].message.contains("unknown lock class `bogus`"));
    }

    #[test]
    fn correct_order_is_clean_and_censused() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn ok(&self, i: usize) {{\n\
             let mut shard = self.shards[i].lock();\n\
             let mut pager = self.pager.lock();\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
        assert_eq!(r.census.len(), 2, "{:?}", r.census);
    }

    #[test]
    fn inversion_is_flagged() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn bad(&self, i: usize) {{\n\
             let mut pager = self.pager.lock();\n\
             let mut shard = self.shards[i].lock();\n\
             }} }}\n"
        ));
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-order");
        assert!(r.hard[0]
            .message
            .contains("acquires `shard` while holding `pager`"));
    }

    #[test]
    fn same_class_reacquisition_is_flagged() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn bad(&self, i: usize, j: usize) {{\n\
             let a = self.shards[i].lock();\n\
             let b = self.shards[j].lock();\n\
             }} }}\n"
        ));
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert!(r.hard[0].message.contains("re-acquires"));
    }

    #[test]
    fn dropping_the_guard_ends_its_range() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn ok(&self, i: usize) {{\n\
             let mut pager = self.pager.lock();\n\
             drop(pager);\n\
             let mut shard = self.shards[i].lock();\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
    }

    #[test]
    fn block_scope_ends_the_range() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn ok(&self, i: usize) {{\n\
             {{ let mut pager = self.pager.lock(); }}\n\
             let mut shard = self.shards[i].lock();\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
    }

    #[test]
    fn if_let_temporary_guard_ends_with_its_block() {
        // `if let … = tmp.lock().probe() { … }` — the temporary guard dies
        // with the if-block; a later acquisition is not a re-acquisition.
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn ok(&self, i: usize) {{\n\
             if let Some(x) = self.shards[i].lock().probe() {{ return; }}\n\
             let g = self.shards[i].lock();\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
        assert_eq!(r.census.len(), 2, "{:?}", r.census);
    }

    #[test]
    fn manifest_class_orders_before_shard() {
        // The RCU pointer class ranks lowest: taking it while a shard
        // guard is live is an inversion, the opposite order is clean.
        let src = "struct SourceSet;\nstruct Shard;\nstruct Store {\n\
                   // analyze: lock-class(manifest)\npublished: Arc<Mutex<Arc<SourceSet>>>,\n\
                   // analyze: lock-class(shard)\nshard: Mutex<Shard>,\n}\n\
                   impl Store {\nfn bad(&self) {\n\
                   let g = self.shard.lock();\n\
                   let set = Arc::clone(&*self.published.lock());\n\
                   }\nfn ok(&self) {\n\
                   let set = Arc::clone(&*self.published.lock());\n\
                   let g = self.shard.lock();\n\
                   }\n}\n";
        let r = run_src(src);
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-order");
        assert!(
            r.hard[0]
                .message
                .contains("acquires `manifest` while holding `shard`"),
            "{:?}",
            r.hard
        );
        assert_eq!(r.census.len(), 4, "{:?}", r.census);
    }

    #[test]
    fn transitive_inversion_is_flagged() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{\n\
             fn leaf(&self, i: usize) {{ let g = self.shards[i].lock(); }}\n\
             fn bad(&self, i: usize) {{\n\
             let mut pager = self.pager.lock();\n\
             self.leaf(i);\n\
             }} }}\n"
        ));
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-order");
        assert!(
            r.hard[0].message.contains("may acquire `shard`"),
            "{:?}",
            r.hard
        );
    }

    const VFS: &str = "trait VfsFile { fn sync(&mut self); }\n\
                       struct RealFile;\nimpl VfsFile for RealFile {\nfn sync(&mut self) {}\n}\n";

    #[test]
    fn io_under_shard_guard_is_flagged() {
        let r = run_src(&format!(
            "{VFS}struct Shard;\nstruct Pool {{\n\
             // analyze: lock-class(shard)\nshard: Mutex<Shard>,\nfile: Box<dyn VfsFile>,\n}}\n\
             impl Pool {{ fn bad(&mut self) {{\n\
             let g = self.shard.lock();\n\
             self.file.sync();\n\
             }} }}\n"
        ));
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-guard-io");
        assert!(r.hard[0].message.contains("reaches the VFS seam"));
    }

    #[test]
    fn pager_mediation_legalises_io_under_shard_guard() {
        // flush_dirty's shape: the seam call runs under the pager guard
        // while the shard guard is also live — legal by design.
        let r = run_src(&format!(
            "{VFS}struct Shard;\nstruct Pager {{ file: Box<dyn VfsFile> }}\n\
             impl Pager {{ fn write_back(&mut self) {{ self.file.sync(); }} }}\n\
             struct Pool {{\n\
             // analyze: lock-class(shard)\nshard: Mutex<Shard>,\n\
             // analyze: lock-class(pager)\npager: Mutex<Pager>,\n}}\n\
             impl Pool {{ fn flush(&self) {{\n\
             let mut shard = self.shard.lock();\n\
             let mut pager = self.pager.lock();\n\
             pager.write_back();\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
    }

    #[test]
    fn closure_call_under_any_guard_is_flagged() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn scan<F: FnMut(u32)>(&self, i: usize, mut f: F) {{\n\
             let g = self.shards[i].lock();\n\
             f(1);\n\
             }} }}\n"
        ));
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "lock-guard-io");
        assert!(r.hard[0].message.contains("closure parameter `f`"));
    }

    #[test]
    fn closure_call_outside_guards_is_clean() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{ fn scan(&self, i: usize, f: impl FnOnce(u32)) {{\n\
             {{ let g = self.shards[i].lock(); }}\n\
             f(1);\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
    }

    #[test]
    fn reader_reaching_a_sink_is_flagged() {
        let r = run_src(
            "struct Pager;\nimpl Pager {\n// analyze: txn-sink\n\
             fn write_page(&mut self) {}\n}\n\
             struct IndexStore { pager: Pager }\n\
             impl IndexStore {\nfn backfill(&self) { self.pager.write_page(); }\n\
             fn put(&mut self) { self.pager.write_page(); }\n\
             fn compact_to(self) { self.pager.write_page(); }\n}\n",
        );
        assert_eq!(r.hard.len(), 1, "{:?}", r.hard);
        assert_eq!(r.hard[0].rule, "reader-writes");
        assert!(r.hard[0].message.contains("backfill"));
        assert!(r.hard[0].message.contains("write_page"));
    }

    #[test]
    fn anchors_demand_inhabited_classes() {
        let (m, g) = setup("fn unrelated() {}\n");
        let r = run(&m, &g, true);
        let classes = r.hard.iter().filter(|v| v.rule == "lock-class").count();
        let readers = r.hard.iter().filter(|v| v.rule == "reader-writes").count();
        assert_eq!(classes, LOCK_CLASSES.len() + 1, "{:?}", r.hard);
        assert_eq!(readers, STORE_HANDLES.len() + 1, "{:?}", r.hard);
    }

    #[test]
    fn temporary_guard_covers_its_statement_only() {
        let r = run_src(&format!(
            "{POOL}impl Pool {{\n\
             fn leaf(&self, i: usize) {{ let g = self.shards[i].lock(); }}\n\
             fn ok(&self, i: usize) {{\n\
             self.pager.lock();\n\
             self.leaf(i);\n\
             }} }}\n"
        ));
        assert!(r.hard.is_empty(), "{:?}", r.hard);
        assert_eq!(r.census.len(), 2, "{:?}", r.census);
    }
}
