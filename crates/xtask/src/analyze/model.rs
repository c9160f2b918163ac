//! The parsed-item model: a cheap, offline-friendly approximation of the
//! workspace's items, built on the [`crate::lexer`] masker instead of a
//! full parser.
//!
//! For every `.rs` file the model records:
//!
//! * functions — name, owning `impl`/`trait` type, masked signature and
//!   body text, whether the item is test-only, and any `// analyze:`
//!   marker directives written above it;
//! * struct fields — `(type, field) -> field type`, used by the call
//!   graph to resolve `self.field.method(...)` receivers;
//! * `impl Trait for Type` pairs, used to resolve calls through trait
//!   objects (`Box<dyn VfsFile>`) to every implementor.
//!
//! The parser is intentionally lexical: it brace-matches on masked text
//! (strings and comments blanked), so it never confuses a `{` in a string
//! for a block. Known approximations are documented in DESIGN.md §10.

use crate::lexer::{line_of, mask};
use std::collections::BTreeMap;
use std::fmt;

/// A `// analyze: …` directive attached to the function below it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Marker {
    /// `entrypoint(recovery)` — a recovery entry point; *zero* reachable
    /// panic sites tolerated.
    EntryRecovery,
    /// `entrypoint` — an audited entry point; reachable panic sites are
    /// ratcheted via the `[panic-reach]` baseline section.
    Entry,
    /// `trusted(<reason>)` — a reviewed leaf whose panic sites are
    /// excluded from seeding. The reason is mandatory.
    Trusted(String),
    /// `txn-boundary` — this function opens (and closes) a journal
    /// transaction around everything it runs.
    TxnBoundary,
    /// `txn-sink` — a mutating storage write; every unguarded path from a
    /// root to one of these is a discipline violation.
    TxnSink,
    /// `txn-exempt(<reason>)` — deliberately writes outside a transaction
    /// (e.g. initialising a fresh file). The reason is mandatory.
    TxnExempt(String),
    /// `untrusted-source` — the function's return value originates from
    /// raw on-disk bytes (page buffers, journal records, headers). The
    /// function must be *total* — erroring, never panicking, on any input
    /// — and every caller must validate the value before using it as an
    /// index, length, allocation size, page id, loop bound, or arithmetic
    /// operand.
    UntrustedSource,
    /// `validates(len|offset|pageid|count)` — a validation boundary: the
    /// function fully checks the listed kinds of untrusted quantities and
    /// its return value is trusted. Kinds are `|`-separated and restricted
    /// to the four listed.
    Validates(Vec<String>),
    /// `taint-exempt(<reason>)` — a reviewed leaf that intentionally
    /// operates on raw untrusted values (e.g. branchless bit tricks that
    /// are total over all inputs). The reason is mandatory.
    TaintExempt(String),
}

/// The only quantities `validates(…)` may claim to check.
pub const VALIDATE_KINDS: &[&str] = &["len", "offset", "pageid", "count"];

impl Marker {
    fn parse(text: &str) -> Result<Marker, String> {
        let text = text.trim();
        let (name, arg) = match text.split_once('(') {
            Some((name, rest)) => {
                let arg = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unclosed `(` in `// analyze: {text}`"))?;
                (name.trim(), Some(arg.trim()))
            }
            None => (text, None),
        };
        match (name, arg) {
            ("entrypoint", Some("recovery")) => Ok(Marker::EntryRecovery),
            ("entrypoint", None) => Ok(Marker::Entry),
            ("trusted", Some(reason)) if !reason.is_empty() => {
                Ok(Marker::Trusted(reason.to_string()))
            }
            ("trusted", _) => Err("`trusted` needs a non-empty reason: trusted(<why>)".into()),
            ("txn-boundary", None) => Ok(Marker::TxnBoundary),
            ("txn-sink", None) => Ok(Marker::TxnSink),
            ("txn-exempt", Some(reason)) if !reason.is_empty() => {
                Ok(Marker::TxnExempt(reason.to_string()))
            }
            ("txn-exempt", _) => Err("`txn-exempt` needs a reason: txn-exempt(<why>)".into()),
            ("untrusted-source", None) => Ok(Marker::UntrustedSource),
            ("untrusted-source", Some(_)) => Err("`untrusted-source` takes no argument".into()),
            ("validates", Some(kinds)) if !kinds.is_empty() => {
                let parts: Vec<String> = kinds.split('|').map(|k| k.trim().to_string()).collect();
                for k in &parts {
                    if !VALIDATE_KINDS.contains(&k.as_str()) {
                        return Err(format!(
                            "`validates({k})` is not a known kind; use one of \
                             validates({})",
                            VALIDATE_KINDS.join("|")
                        ));
                    }
                }
                Ok(Marker::Validates(parts))
            }
            ("validates", _) => Err(format!(
                "`validates` needs the checked kinds: validates({})",
                VALIDATE_KINDS.join("|")
            )),
            ("taint-exempt", Some(reason)) if !reason.is_empty() => {
                Ok(Marker::TaintExempt(reason.to_string()))
            }
            ("taint-exempt", _) => Err("`taint-exempt` needs a reason: taint-exempt(<why>)".into()),
            ("lock-class", _) => Err(
                "`lock-class` is a field-level directive; write it directly above the \
                 Mutex/RwLock field it classifies"
                    .into(),
            ),
            _ => Err(format!("unknown analyze directive `{text}`")),
        }
    }
}

/// One function (free function, inherent/trait method, or trait default
/// method) in the model.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` owner type name, `None` for free functions.
    pub owner: Option<String>,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Masked signature text (from `fn` to the body `{` / `;`).
    pub sig: String,
    /// Masked body text including the outer braces; empty for
    /// signature-only trait methods.
    pub body: String,
    /// Byte offset of the body start within the masked file, for
    /// line-number reporting of seeds inside the body.
    pub body_offset: usize,
    /// True inside `#[cfg(test)]` regions or under a `#[test]` attribute.
    pub is_test: bool,
    /// True when the declared return type mentions `Result`.
    pub returns_result: bool,
    /// Markers written above the function.
    pub markers: Vec<Marker>,
}

impl FnItem {
    /// `Type::name` or the bare name, for reports.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// True when any marker matches the predicate.
    pub fn has_marker(&self, pred: impl Fn(&Marker) -> bool) -> bool {
        self.markers.iter().any(pred)
    }

    /// True when the first parameter is a `self` receiver (`self`,
    /// `&self`, `&mut self`, `mut self`, `&'a self`, `self: …`). Only
    /// such functions are dispatch targets of method-call syntax;
    /// associated functions like `Manifest::create(path, …)` are not.
    pub fn has_self_receiver(&self) -> bool {
        self.receiver().is_some()
    }

    /// How the function takes `self`, or `None` when its first parameter
    /// is not a `self` receiver. A typed receiver (`self: Box<Self>`)
    /// counts as by value.
    pub fn receiver(&self) -> Option<Receiver> {
        let open = self.sig.find('(')?;
        let first = self.sig[open + 1..].trim_start();
        let (borrowed, first) = match first.strip_prefix('&') {
            Some(rest) => (true, rest.trim_start()),
            None => (false, first),
        };
        // Skip an optional lifetime (`'a `) and `mut` on the receiver.
        let first = match first.strip_prefix('\'') {
            Some(rest) => rest
                .split_once(char::is_whitespace)
                .map(|(_, r)| r)
                .unwrap_or("")
                .trim_start(),
            None => first,
        };
        let (mutable, first) = match first.strip_prefix("mut ") {
            Some(rest) => (true, rest.trim_start()),
            None => (false, first),
        };
        let is_self = first == "self"
            || first.strip_prefix("self").is_some_and(|r| {
                r.starts_with(|c: char| c == ',' || c == ')' || c == ':' || c.is_whitespace())
            });
        is_self.then_some(match (borrowed, mutable) {
            (true, false) => Receiver::Shared,
            (true, true) => Receiver::Exclusive,
            (false, _) => Receiver::Value,
        })
    }
}

/// How a method takes `self`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// `&self`: the caller may share the value while the call runs.
    Shared,
    /// `&mut self`.
    Exclusive,
    /// `self`, `mut self` or a typed `self: …`.
    Value,
}

impl fmt::Display for FnItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.qualified(), self.file, self.line)
    }
}

/// One `Mutex`/`RwLock` struct field — the unit the lock-discipline pass
/// classifies. Declared with `// analyze: lock-class(<name>)` directly
/// above the field; a lock field without a class is a hard finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockField {
    /// Declared lock class, `None` when the field carries no marker.
    pub class: Option<String>,
    /// Stripped content type behind the lock (`Mutex<Pager>` → `Pager`),
    /// used to classify acquisitions through typed locals.
    pub content: String,
    /// Repo-relative file of the declaration.
    pub file: String,
    /// 1-based line of the field.
    pub line: usize,
}

/// The whole-workspace model.
#[derive(Debug, Default)]
pub struct Model {
    /// All functions; indices are the `FnId`s used by the call graph.
    pub fns: Vec<FnItem>,
    /// `(owner type, field name) -> field type` (last path segment, with
    /// `Option`/`Box`/`Arc`/`Rc`/`Mutex`/`RefCell`/`dyn`/refs stripped).
    pub fields: BTreeMap<(String, String), String>,
    /// `(owner type, field name) -> lock field` for every `Mutex`/`RwLock`
    /// field, with its declared `lock-class(<name>)` when present.
    pub lock_fields: BTreeMap<(String, String), LockField>,
    /// `trait -> implementing types` from `impl Trait for Type` items.
    pub impls: BTreeMap<String, Vec<String>>,
    /// Names of types that appear as an `impl`/`struct`/`trait` owner.
    pub known_types: std::collections::BTreeSet<String>,
    /// Names declared with `trait Name`.
    pub traits: std::collections::BTreeSet<String>,
    /// `fn name -> fn ids` across the workspace.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Every `pub enum`/`pub struct` whose name ends in `Error`.
    pub(crate) error_types: Vec<ErrorType>,
    /// `(file, type)` of every `impl … Error for Type`.
    pub(crate) error_impls: Vec<(String, String)>,
}

/// A public type named like an error, declared at `file:line`.
#[derive(Debug)]
pub(crate) struct ErrorType {
    /// The type's name.
    pub(crate) name: String,
    /// Repo-relative file of the declaration.
    pub(crate) file: String,
    /// 1-based line of the declaration.
    pub(crate) line: usize,
}

impl Model {
    /// Parses `source` (the contents of `file`) into the model.
    pub fn add_file(&mut self, file: &str, source: &str) -> Result<(), String> {
        let masked = mask(source);
        let bytes = masked.as_bytes();
        let test_ranges = test_ranges(bytes);
        let regions = owner_regions(bytes);
        parse_struct_fields(
            &masked,
            source,
            file,
            &mut self.fields,
            &mut self.lock_fields,
        )
        .map_err(|e| format!("{file}: {e}"))?;
        for region in &regions {
            self.known_types.insert(region.name.clone());
            if region.is_trait {
                self.traits.insert(region.name.clone());
            }
            if let Some(trait_name) = &region.trait_name {
                self.impls
                    .entry(trait_name.clone())
                    .or_default()
                    .push(region.name.clone());
                if trait_name == "Error" {
                    self.error_impls
                        .push((file.to_string(), region.name.clone()));
                }
            }
        }
        for kind in ["pub enum ", "pub struct "] {
            for (at, _) in masked.match_indices(kind) {
                let (name, _) = read_ident(bytes, at + kind.len());
                if name.ends_with("Error") {
                    self.error_types.push(ErrorType {
                        name,
                        file: file.to_string(),
                        line: line_of(&masked, at),
                    });
                }
            }
        }
        let mut i = 0;
        while let Some(at) = find_kw(bytes, i, b"fn") {
            i = at + 2;
            let Some(parsed) = parse_fn(&masked, source, at) else {
                continue;
            };
            let owner = regions
                .iter()
                .filter(|r| r.body.0 < at && at < r.body.1)
                .max_by_key(|r| r.body.0)
                .map(|r| r.name.clone());
            let in_test_range = test_ranges.iter().any(|(s, e)| *s <= at && at < *e);
            let id = self.fns.len();
            let item = FnItem {
                name: parsed.name.clone(),
                owner,
                file: file.to_string(),
                line: line_of(&masked, at),
                sig: parsed.sig,
                body: parsed.body,
                body_offset: parsed.body_offset,
                is_test: in_test_range || parsed.attr_test,
                returns_result: parsed.returns_result,
                markers: parsed.markers.map_err(|e| format!("{file}: {e}"))?,
            };
            self.by_name.entry(parsed.name).or_default().push(id);
            self.fns.push(item);
            i = parsed.next;
        }
        Ok(())
    }

    /// Ids of functions named `name` owned by `owner`.
    pub fn methods_of(&self, owner: &str, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.fns[id].owner.as_deref() == Some(owner))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Finds keyword `kw` at or after `from`, on identifier boundaries.
fn find_kw(bytes: &[u8], mut from: usize, kw: &[u8]) -> Option<usize> {
    while from + kw.len() <= bytes.len() {
        if bytes[from..].starts_with(kw) {
            let before_ok = from == 0 || !is_ident_byte(bytes[from - 1]);
            let after = bytes.get(from + kw.len());
            let after_ok = !after.is_some_and(|&b| is_ident_byte(b));
            if before_ok && after_ok {
                return Some(from);
            }
        }
        from += 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    i
}

fn read_ident(bytes: &[u8], mut i: usize) -> (String, usize) {
    let start = i;
    while bytes.get(i).is_some_and(|&b| is_ident_byte(b)) {
        i += 1;
    }
    (String::from_utf8_lossy(&bytes[start..i]).into_owned(), i)
}

/// Matches a bracketed region starting at `open_at` (which must hold the
/// opening delimiter); returns the offset one past the closing delimiter.
/// Angle brackets are handled `->`-aware by the caller, this one is for
/// `(`/`[`/`{` which cannot appear unbalanced in masked code.
fn match_delim(bytes: &[u8], open_at: usize) -> usize {
    let open = bytes[open_at];
    let close = match open {
        b'(' => b')',
        b'[' => b']',
        b'{' => b'}',
        _ => return open_at + 1,
    };
    let mut depth = 0usize;
    let mut i = open_at;
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

/// Skips a generics list starting at `<`; `>` preceded by `-` (i.e. `->`)
/// does not close.
fn skip_generics(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// `#[cfg(test)]` item ranges of masked source: from the attribute to the
/// end of the annotated item's brace-matched block (typically `mod tests`)
/// or its `;`.
fn test_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let needle = b"#[cfg(test)]";
    let mut out = Vec::new();
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle {
            let mut j = i + needle.len();
            while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
                j += 1;
            }
            let end = if bytes.get(j) == Some(&b'{') {
                match_delim(bytes, j)
            } else {
                (j + 1).min(bytes.len())
            };
            out.push((i, end));
            i = j;
        }
        i += 1;
    }
    out
}

struct OwnerRegion {
    name: String,
    trait_name: Option<String>,
    is_trait: bool,
    body: (usize, usize),
}

/// `impl …` and `trait …` regions with the owning type name.
fn owner_regions(bytes: &[u8]) -> Vec<OwnerRegion> {
    let mut out = Vec::new();
    for kw in [&b"impl"[..], &b"trait"[..]] {
        let mut i = 0;
        while let Some(at) = find_kw(bytes, i, kw) {
            i = at + kw.len();
            let mut j = skip_ws(bytes, i);
            if bytes.get(j) == Some(&b'<') {
                j = skip_generics(bytes, j);
                j = skip_ws(bytes, j);
            }
            // Collect path tokens up to `{`, `for`, or `where`.
            let mut first = read_path_type(bytes, &mut j);
            let mut trait_name = None;
            let mut is_for = false;
            loop {
                j = skip_ws(bytes, j);
                match bytes.get(j) {
                    Some(b'{') => break,
                    _ => {
                        if let Some(rest) = find_kw(bytes, j, b"for").filter(|&p| p == j) {
                            let _ = rest;
                            is_for = true;
                            j = skip_ws(bytes, j + 3);
                            trait_name = Some(first.clone());
                            first = read_path_type(bytes, &mut j);
                        } else if let Some(p) = find_kw(bytes, j, b"where").filter(|&p| p == j) {
                            // Skip the where clause up to `{`.
                            j = p + 5;
                            while j < bytes.len() && bytes[j] != b'{' {
                                j += 1;
                            }
                        } else if j >= bytes.len() {
                            break;
                        } else {
                            j += 1;
                        }
                    }
                }
            }
            if bytes.get(j) != Some(&b'{') || first.is_empty() {
                continue;
            }
            let end = match_delim(bytes, j);
            out.push(OwnerRegion {
                name: first,
                trait_name: if is_for { trait_name } else { None },
                is_trait: kw == b"trait",
                body: (j, end),
            });
        }
    }
    out
}

/// Reads a type path at `*j` (e.g. `crate::vfs::VfsFile<'a>`), returning
/// the last path segment and advancing `*j` past the path and any generic
/// arguments.
fn read_path_type(bytes: &[u8], j: &mut usize) -> String {
    let mut last = String::new();
    loop {
        *j = skip_ws(bytes, *j);
        if bytes.get(*j) == Some(&b'&') || bytes.get(*j) == Some(&b'\'') {
            *j += 1;
            continue;
        }
        let (ident, next) = read_ident(bytes, *j);
        if ident.is_empty() {
            break;
        }
        *j = next;
        if bytes.get(*j) == Some(&b'<') {
            let after = skip_generics(bytes, *j);
            if ident != "dyn" && ident != "mut" {
                last = ident;
            }
            *j = after;
            break;
        }
        if bytes.get(*j) == Some(&b':') && bytes.get(*j + 1) == Some(&b':') {
            *j += 2;
            continue;
        }
        if ident != "dyn" && ident != "mut" {
            last = ident;
        }
        break;
    }
    last
}

/// Strips wrapper types to the interesting last segment:
/// `Option<Box<dyn VfsFile>>` → `VfsFile`.
pub fn strip_wrappers(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        t = t
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim()
            .trim_start_matches("dyn ")
            .trim();
        // `&'a BufferPool` — drop the lifetime token.
        if let Some(rest) = t.strip_prefix('\'') {
            t = match rest.find(char::is_whitespace) {
                Some(ws) => rest[ws..].trim_start(),
                None => "",
            };
            continue;
        }
        let mut advanced = false;
        for wrapper in [
            "Option<", "Box<", "Arc<", "Rc<", "Mutex<", "RwLock<", "RefCell<", "Vec<",
        ] {
            if let Some(rest) = t.strip_prefix(wrapper) {
                t = rest.strip_suffix('>').unwrap_or(rest);
                advanced = true;
                break;
            }
        }
        // Slice / array types: `[Mutex<Shard>]`, `[u8; 4]` → element type.
        if !advanced {
            if let Some(rest) = t.strip_prefix('[') {
                let inner = rest.strip_suffix(']').unwrap_or(rest);
                t = inner.split(';').next().unwrap_or(inner).trim();
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    // Last path segment, generics dropped.
    let t = t.split('<').next().unwrap_or(t);
    let t = t.rsplit("::").next().unwrap_or(t);
    t.trim().to_string()
}

/// Parses `struct Name { field: Type, … }` declarations into `fields`,
/// recording every `Mutex`/`RwLock` field into `lock_fields` together with
/// its `// analyze: lock-class(<name>)` marker (scanned from the *raw*
/// source above the field — comments are blanked in the masked text).
/// A malformed or misplaced field directive is a parse error, exactly like
/// an unknown function marker.
fn parse_struct_fields(
    masked: &str,
    raw: &str,
    file: &str,
    fields: &mut BTreeMap<(String, String), String>,
    lock_fields: &mut BTreeMap<(String, String), LockField>,
) -> Result<(), String> {
    let bytes = masked.as_bytes();
    let mut i = 0;
    while let Some(at) = find_kw(bytes, i, b"struct") {
        i = at + 6;
        let mut j = skip_ws(bytes, i);
        let (name, next) = read_ident(bytes, j);
        j = next;
        if name.is_empty() {
            continue;
        }
        if bytes.get(j) == Some(&b'<') {
            j = skip_generics(bytes, j);
        }
        j = skip_ws(bytes, j);
        // Skip a where clause.
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' && bytes[j] != b'(' {
            j += 1;
        }
        if bytes.get(j) != Some(&b'{') {
            continue; // unit or tuple struct
        }
        let end = match_delim(bytes, j);
        let body_start = j + 1;
        let body = &masked[body_start..end.saturating_sub(1)];
        for (part_at, raw_part) in split_fields(body) {
            let mut part = raw_part.trim_start();
            let mut offset = part_at + (raw_part.len() - part.len());
            // `pub` / `pub(crate)` visibility prefixes. Token boundary
            // required: a field *named* `published` starts with the same
            // three bytes.
            let visibility = part
                .strip_prefix("pub")
                .filter(|r| r.starts_with('(') || r.starts_with(|c: char| c.is_whitespace()));
            if let Some(rest) = visibility {
                let rest2 = rest.trim_start();
                let stripped = match rest2.strip_prefix('(') {
                    Some(vis) => vis.split_once(')').map(|(_, r)| r).unwrap_or(rest2),
                    None => rest2,
                };
                offset += part.len() - stripped.len();
                part = stripped;
                let trimmed = part.trim_start();
                offset += part.len() - trimmed.len();
                part = trimmed;
            }
            let part = part.trim_end();
            let Some((fname, ftype)) = part.split_once(':') else {
                continue;
            };
            let fname = fname.trim();
            if fname.is_empty() || !fname.bytes().all(is_ident_byte) {
                continue;
            }
            let ftype = ftype.trim();
            let field_at = body_start + offset;
            let line = line_of(masked, field_at);
            let marker = field_marker(raw, field_at)?;
            if let Some(lock) = lock_content_type(ftype) {
                lock_fields.insert(
                    (name.clone(), fname.to_string()),
                    LockField {
                        class: marker,
                        content: lock,
                        file: file.to_string(),
                        line,
                    },
                );
            } else if let Some(class) = marker {
                return Err(format!(
                    "`lock-class({class})` on `{name}.{fname}`, which is not a \
                     Mutex/RwLock field"
                ));
            }
            fields.insert((name.clone(), fname.to_string()), strip_wrappers(ftype));
        }
        i = j;
    }
    Ok(())
}

/// The stripped content type when `ftype` is (or wraps) a `Mutex`/`RwLock`:
/// `Arc<Mutex<FaultState>>` → `FaultState`, `Box<[Mutex<Shard>]>` → `Shard`.
fn lock_content_type(ftype: &str) -> Option<String> {
    let at = ["Mutex<", "RwLock<"].iter().find_map(|kw| {
        ftype.find(kw).and_then(|p| {
            // Token boundary: `FxMutex<` must not match.
            let boundary = p == 0 || !is_ident_byte(ftype.as_bytes()[p - 1]);
            boundary.then_some(p + kw.len())
        })
    })?;
    let inner_end = skip_generics(ftype.as_bytes(), at - 1).saturating_sub(1);
    let inner = ftype.get(at..inner_end)?;
    // Mutex/RwLock take one type parameter; a top-level comma means we
    // misparsed — bail out rather than classify garbage.
    Some(strip_wrappers(split_top(inner, ',').first()?))
}

/// First segments of `s` split on top-level `sep` (nested brackets ignored).
fn split_top(s: &str, sep: char) -> Vec<&str> {
    let bytes = s.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0isize;
    let mut start = 0;
    for (idx, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' => depth -= 1,
            b'>' if idx > 0 && bytes[idx - 1] != b'-' => depth -= 1,
            _ if b == sep as u8 && depth == 0 => {
                parts.push(&s[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Scans the comment/attribute lines directly above the field at byte
/// offset `field_at` for a `// analyze: lock-class(<name>)` directive.
/// Any other `// analyze:` directive above a field is an error.
fn field_marker(raw: &str, field_at: usize) -> Result<Option<String>, String> {
    let mut class: Option<String> = None;
    let line_start = raw[..field_at.min(raw.len())]
        .rfind('\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let mut cursor = line_start;
    while cursor > 0 {
        let prev_start = raw[..cursor - 1].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let trimmed = raw[prev_start..cursor - 1].trim();
        if let Some(directive) = trimmed.strip_prefix("// analyze:") {
            let directive = directive.trim();
            let inner = directive
                .strip_prefix("lock-class(")
                .and_then(|rest| rest.strip_suffix(')'))
                .map(str::trim);
            match inner {
                Some(name)
                    if !name.is_empty() && name.bytes().all(|b| is_ident_byte(b) || b == b'-') =>
                {
                    if class.is_some() {
                        return Err("duplicate `lock-class` directives on one field".into());
                    }
                    class = Some(name.to_string());
                }
                _ => {
                    return Err(format!(
                        "unknown field directive `{directive}` (fields accept only \
                         `lock-class(<name>)`)"
                    ))
                }
            }
        } else if !(trimmed.starts_with("///")
            || trimmed.starts_with("//")
            || trimmed.starts_with("#["))
        {
            break;
        }
        cursor = prev_start;
        if prev_start == 0 {
            break;
        }
    }
    Ok(class)
}

/// Splits a struct body on top-level commas (nested `()`/`[]`/`<>`
/// ignored, `->` inside `Fn(…) -> T` fields handled), keeping each part's
/// byte offset within `body`.
fn split_fields(body: &str) -> Vec<(usize, &str)> {
    let bytes = body.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0isize;
    let mut start = 0;
    for (idx, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' => depth -= 1,
            b'>' if idx > 0 && bytes[idx - 1] != b'-' => depth -= 1,
            b',' if depth == 0 => {
                parts.push((start, &body[start..idx]));
                start = idx + 1;
            }
            _ => {}
        }
    }
    parts.push((start, &body[start..]));
    parts
}

struct ParsedFn {
    name: String,
    sig: String,
    body: String,
    body_offset: usize,
    returns_result: bool,
    attr_test: bool,
    markers: Result<Vec<Marker>, String>,
    next: usize,
}

/// Parses the function starting with the `fn` keyword at `at`. Returns
/// `None` for `fn(` pointer types and other non-items.
fn parse_fn(masked: &str, raw: &str, at: usize) -> Option<ParsedFn> {
    let bytes = masked.as_bytes();
    let mut j = skip_ws(bytes, at + 2);
    let (name, next) = read_ident(bytes, j);
    if name.is_empty() {
        return None; // `fn(` pointer type
    }
    j = next;
    if bytes.get(j) == Some(&b'<') {
        j = skip_generics(bytes, j);
    }
    j = skip_ws(bytes, j);
    if bytes.get(j) != Some(&b'(') {
        return None;
    }
    let args_end = match_delim(bytes, j);
    // Scan from the end of the argument list to the body `{` or a `;`
    // (trait method signature), at top level.
    let mut k = args_end;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => break,
            b';' => break,
            b'(' | b'[' => k = match_delim(bytes, k),
            b'<' => k = skip_generics(bytes, k),
            _ => k += 1,
        }
    }
    let sig = masked[at..k.min(masked.len())].to_string();
    let returns_result = sig.contains("Result");
    let (body, body_offset, next) = if bytes.get(k) == Some(&b'{') {
        let end = match_delim(bytes, k);
        (masked[k..end].to_string(), k, end)
    } else {
        (String::new(), k, k + 1)
    };
    let (attr_test, markers) = preamble(raw, masked, at);
    Some(ParsedFn {
        name,
        sig,
        body,
        body_offset,
        returns_result,
        attr_test,
        markers,
        next,
    })
}

/// Scans the attribute/doc/marker lines directly above the `fn` at `at`:
/// collects `// analyze:` directives (from the *raw* source — comments are
/// blanked in the masked text) and detects `#[test]`-style attributes.
fn preamble(raw: &str, masked: &str, at: usize) -> (bool, Result<Vec<Marker>, String>) {
    let mut markers = Vec::new();
    let mut attr_test = false;
    // Byte offset of the start of the fn's line.
    let line_start = raw[..at.min(raw.len())]
        .rfind('\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    // Words like `pub`, `const`, `unsafe` may precede `fn` on the same
    // line; anything above is the preamble.
    let mut cursor = line_start;
    loop {
        if cursor == 0 {
            break;
        }
        let prev_start = raw[..cursor - 1].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let raw_line = &raw[prev_start..cursor - 1];
        let trimmed = raw_line.trim();
        let masked_line = masked.get(prev_start..cursor - 1).unwrap_or("");
        if let Some(directive) = trimmed.strip_prefix("// analyze:") {
            match Marker::parse(directive) {
                Ok(m) => markers.push(m),
                Err(e) => return (attr_test, Err(e)),
            }
        } else if trimmed.starts_with("///")
            || trimmed.starts_with("//")
            || trimmed.starts_with("#[")
            || masked_line.trim_start().starts_with("#[")
        {
            let attr = masked_line.trim();
            if attr.starts_with("#[") && (attr.contains("test") || attr.contains("bench")) {
                attr_test = true;
            }
        } else {
            break;
        }
        cursor = prev_start;
        if prev_start == 0 {
            break;
        }
    }
    markers.reverse();
    (attr_test, Ok(markers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        let mut m = Model::default();
        m.add_file("crates/store/src/demo.rs", src).expect("parse");
        m
    }

    #[test]
    fn parses_free_and_method_fns() {
        let m = model_of(
            "fn free(x: u32) -> Result<(), E> { x; }\n\
             struct S { file: Box<dyn VfsFile>, n: u32 }\n\
             impl S {\n    fn method(&self) { self.n; }\n}\n\
             impl VfsFile for S {\n    fn sync(&mut self) {}\n}\n",
        );
        let names: Vec<String> = m.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["free", "S::method", "S::sync"], "{names:?}");
        assert!(m.fns[0].returns_result);
        assert!(!m.fns[1].returns_result);
        assert_eq!(
            m.fields
                .get(&("S".into(), "file".into()))
                .map(String::as_str),
            Some("VfsFile")
        );
        assert_eq!(m.impls.get("VfsFile"), Some(&vec!["S".to_string()]));
    }

    #[test]
    fn test_code_is_flagged() {
        let m = model_of(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n",
        );
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test, "helper inside cfg(test) mod");
        assert!(m.fns[2].is_test);
    }

    #[test]
    fn markers_parse_and_attach() {
        let m = model_of(
            "/// Docs.\n// analyze: entrypoint(recovery)\n// analyze: txn-boundary\npub fn open() {}\n\
             // analyze: trusted(const offsets)\nfn leaf() {}\n",
        );
        assert_eq!(
            m.fns[0].markers,
            vec![Marker::EntryRecovery, Marker::TxnBoundary]
        );
        assert_eq!(
            m.fns[1].markers,
            vec![Marker::Trusted("const offsets".into())]
        );
    }

    #[test]
    fn taint_markers_parse_and_attach() {
        let m = model_of(
            "// analyze: untrusted-source\nfn read_u64() {}\n\
             // analyze: validates(len|count)\nfn parse_layout() {}\n\
             // analyze: taint-exempt(branchless bit trick, total on all inputs)\n\
             fn select_zero() {}\n",
        );
        assert_eq!(m.fns[0].markers, vec![Marker::UntrustedSource]);
        assert_eq!(
            m.fns[1].markers,
            vec![Marker::Validates(vec!["len".into(), "count".into()])]
        );
        assert_eq!(
            m.fns[2].markers,
            vec![Marker::TaintExempt(
                "branchless bit trick, total on all inputs".into()
            )]
        );
    }

    #[test]
    fn malformed_taint_markers_are_errors() {
        for src in [
            "// analyze: untrusted-source(page)\nfn f() {}\n",
            "// analyze: validates\nfn f() {}\n",
            "// analyze: validates(size)\nfn f() {}\n",
            "// analyze: validates(len|sizes)\nfn f() {}\n",
            "// analyze: taint-exempt\nfn f() {}\n",
            "// analyze: taint-exempt()\nfn f() {}\n",
        ] {
            let mut m = Model::default();
            let err = m.add_file("f.rs", src);
            assert!(err.is_err(), "`{src}` must be rejected");
        }
    }

    #[test]
    fn bad_marker_is_an_error() {
        let mut m = Model::default();
        let err = m.add_file("f.rs", "// analyze: entrypiont\nfn f() {}\n");
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn strip_wrappers_unwraps_nesting() {
        assert_eq!(strip_wrappers("Option<Box<dyn VfsFile>>"), "VfsFile");
        assert_eq!(strip_wrappers("&mut BTree"), "BTree");
        assert_eq!(strip_wrappers("&'a BufferPool"), "BufferPool");
        assert_eq!(strip_wrappers("&'a mut Tree"), "Tree");
        assert_eq!(strip_wrappers("crate::pager::Pager"), "Pager");
        assert_eq!(strip_wrappers("u32"), "u32");
        assert_eq!(strip_wrappers("Box<[Mutex<Shard>]>"), "Shard");
        assert_eq!(strip_wrappers("[u8; 4]"), "u8");
    }

    #[test]
    fn lock_fields_record_classes_and_content() {
        let m = model_of(
            "struct Pool {\n\
             \x20   /// The pager.\n\
             \x20   // analyze: lock-class(pager)\n\
             \x20   pager: Mutex<Pager>,\n\
             \x20   // analyze: lock-class(shard)\n\
             \x20   shards: Box<[Mutex<Shard>]>,\n\
             \x20   naked: Mutex<State>,\n\
             \x20   n: u32,\n\
             }\n",
        );
        let pager = m
            .lock_fields
            .get(&("Pool".into(), "pager".into()))
            .expect("pager");
        assert_eq!(pager.class.as_deref(), Some("pager"));
        assert_eq!(pager.content, "Pager");
        let shards = m
            .lock_fields
            .get(&("Pool".into(), "shards".into()))
            .expect("shards");
        assert_eq!(shards.class.as_deref(), Some("shard"));
        assert_eq!(shards.content, "Shard");
        let naked = m
            .lock_fields
            .get(&("Pool".into(), "naked".into()))
            .expect("naked");
        assert_eq!(naked.class, None, "unmarked lock field has no class");
        assert!(
            !m.lock_fields.contains_key(&("Pool".into(), "n".into())),
            "plain fields are not lock fields"
        );
    }

    #[test]
    fn pub_prefixed_field_names_keep_their_name() {
        // `published` starts with the bytes `pub`; the visibility stripper
        // must not eat them.
        let m = model_of(
            "struct Store {\n\
             // analyze: lock-class(manifest)\n\
             published: Arc<Mutex<Arc<SourceSet>>>,\n\
             pub pubsub: Mutex<Bus>,\n\
             }\n",
        );
        let p = m
            .lock_fields
            .get(&("Store".into(), "published".into()))
            .expect("published");
        assert_eq!(p.class.as_deref(), Some("manifest"));
        assert_eq!(p.content, "SourceSet");
        let b = m
            .lock_fields
            .get(&("Store".into(), "pubsub".into()))
            .expect("pubsub");
        assert_eq!(b.content, "Bus");
    }

    #[test]
    fn unknown_field_directive_is_an_error() {
        let mut m = Model::default();
        let err = m.add_file(
            "f.rs",
            "struct S {\n    // analyze: lock-klass(shard)\n    x: Mutex<T>,\n}\n",
        );
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn lock_class_on_non_lock_field_is_an_error() {
        let mut m = Model::default();
        let err = m.add_file(
            "f.rs",
            "struct S {\n    // analyze: lock-class(shard)\n    x: u32,\n}\n",
        );
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn lock_class_on_a_fn_is_an_error() {
        let mut m = Model::default();
        let err = m.add_file("f.rs", "// analyze: lock-class(shard)\nfn f() {}\n");
        assert!(err.is_err(), "{err:?}");
    }
}
