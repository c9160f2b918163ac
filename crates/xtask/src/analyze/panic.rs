//! Panic-reachability: prove that recovery entry points cannot reach a
//! panic site.
//!
//! *Seeds* are syntactic panic sites in non-test code:
//!
//! * `.unwrap()` / `.expect(…)` (and the `_err` variants);
//! * the panicking macros `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`;
//! * indexing / slicing `x[…]` (an `Index` impl may panic);
//! * the length-checked slice ops `copy_from_slice`, `clone_from_slice`,
//!   `split_at`, `split_at_mut`.
//!
//! `debug_assert!` is deliberately **not** a seed: panic-freedom on the
//! recovery path is a release-build property, and `debug_assert` is the
//! project's sanctioned self-audit mechanism (DESIGN.md §7). Calls into
//! `std` are assumed panic-free for valid arguments; the seeds above are
//! exactly the argument-dependent escape hatches.
//!
//! Functions marked `// analyze: trusted(<reason>)` contribute no seeds
//! (a reviewed leaf such as the fixed-offset page accessors); their
//! callees are still traversed.
//!
//! Reachability runs from every `entrypoint(recovery)` function (zero
//! seeds tolerated — hard failure) and every `entrypoint` function
//! (findings ratcheted through the `[panic-reach]` baseline section).

use super::callgraph::Graph;
use super::model::{Marker, Model};
use super::report::Violation;
use std::collections::VecDeque;

/// One panic site inside a function body.
#[derive(Clone, Debug)]
pub struct Seed {
    /// 1-based line in the original file.
    pub line: usize,
    /// What the site is, e.g. "`.unwrap()`" or "indexing `[...]`".
    pub what: String,
}

const SEED_METHODS: &[&str] = &[
    "unwrap",
    "unwrap_err",
    "expect",
    "expect_err",
    "copy_from_slice",
    "clone_from_slice",
    "split_at",
    "split_at_mut",
];

const SEED_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Lexical panic seeds in a masked function body. `start_line` is the
/// line of the body's opening brace.
pub fn seeds_of_body(body: &str, start_line: usize) -> Vec<Seed> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let line_at = |pos: usize| {
        start_line
            + body.as_bytes()[..pos]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
    };
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'[' {
            // Indexing: `[` directly after a value (identifier, call or
            // index result, or `?`). Attribute `#[…]`, macro `…![…]`,
            // types and array/pattern literals are preceded by other bytes.
            let prev_at = bytes[..i].iter().rposition(|b| !b.is_ascii_whitespace());
            let is_index = prev_at.is_some_and(|p| {
                let b = bytes[p];
                if b == b')' || b == b']' || b == b'?' {
                    return true;
                }
                if !(b.is_ascii_alphanumeric() || b == b'_') {
                    return false;
                }
                // `let [a, b] = …` patterns: the "value" before `[` is a
                // keyword, not an expression.
                let mut s = p;
                while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                    s -= 1;
                }
                !matches!(
                    &body[s..=p],
                    "let"
                        | "in"
                        | "return"
                        | "else"
                        | "mut"
                        | "ref"
                        | "move"
                        | "break"
                        | "continue"
                        | "match"
                        | "if"
                        | "while"
                )
            });
            if is_index {
                out.push(Seed {
                    line: line_at(i),
                    what: "indexing `[...]`".into(),
                });
            }
            i += 1;
            continue;
        }
        if !(b.is_ascii_alphabetic() || b == b'_')
            || (i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &body[start..i];
        let prev_dot = start > 0 && bytes[start - 1] == b'.';
        let next = bytes.get(i);
        if prev_dot && next == Some(&b'(') && SEED_METHODS.contains(&name) {
            out.push(Seed {
                line: line_at(start),
                what: format!("`.{name}(...)`"),
            });
        } else if next == Some(&b'!') && SEED_MACROS.contains(&name) {
            out.push(Seed {
                line: line_at(start),
                what: format!("`{name}!`"),
            });
        }
    }
    out
}

/// Seeds of every non-test, non-trusted function, indexed like
/// `model.fns`.
pub fn all_seeds(model: &Model) -> Vec<Vec<Seed>> {
    model
        .fns
        .iter()
        .map(|f| {
            if f.is_test || f.has_marker(|m| matches!(m, Marker::Trusted(_))) {
                Vec::new()
            } else {
                let body_line = f.line + f.sig.bytes().filter(|&b| b == b'\n').count();
                seeds_of_body(&f.body, body_line)
            }
        })
        .collect()
}

/// Result of the reachability pass.
#[derive(Debug, Default)]
pub struct PanicReport {
    /// Hard failures: seeds reachable from `entrypoint(recovery)`.
    pub recovery: Vec<Violation>,
    /// Ratcheted findings: seeds reachable from plain `entrypoint`s.
    pub ratcheted: Vec<Violation>,
}

/// Runs panic-reachability over the model.
pub fn run(model: &Model, graph: &Graph, seeds: &[Vec<Seed>]) -> PanicReport {
    let mut report = PanicReport::default();
    for (entry_id, entry) in model.fns.iter().enumerate() {
        let recovery = entry.has_marker(|m| matches!(m, Marker::EntryRecovery));
        let ratcheted = entry.has_marker(|m| matches!(m, Marker::Entry));
        if !recovery && !ratcheted {
            continue;
        }
        // BFS with parent links for an example path.
        let mut parent: Vec<Option<usize>> = vec![None; model.fns.len()];
        let mut visited = vec![false; model.fns.len()];
        let mut queue = VecDeque::new();
        visited[entry_id] = true;
        queue.push_back(entry_id);
        while let Some(id) = queue.pop_front() {
            for &next in &graph.edges[id] {
                if !visited[next] {
                    visited[next] = true;
                    parent[next] = Some(id);
                    queue.push_back(next);
                }
            }
        }
        for (id, f) in model.fns.iter().enumerate() {
            if !visited[id] || seeds[id].is_empty() {
                continue;
            }
            let path = path_to(model, &parent, entry_id, id);
            for seed in &seeds[id] {
                let v = Violation {
                    rule: if recovery {
                        "panic-recovery"
                    } else {
                        "panic-reach"
                    },
                    file: f.file.clone(),
                    line: seed.line,
                    message: format!(
                        "{} reachable from `{}`: {}",
                        seed.what,
                        entry.qualified(),
                        path
                    ),
                };
                if recovery {
                    report.recovery.push(v);
                } else {
                    report.ratcheted.push(v);
                }
            }
        }
    }
    dedup(&mut report.recovery);
    dedup(&mut report.ratcheted);
    report
}

/// Drops duplicate findings for the same site (reached from several
/// entry points) so baseline counts track *sites*, not paths.
fn dedup(violations: &mut Vec<Violation>) {
    violations.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    violations.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}

fn path_to(model: &Model, parent: &[Option<usize>], entry: usize, mut id: usize) -> String {
    let mut names = vec![model.fns[id].qualified()];
    while id != entry {
        match parent[id] {
            Some(p) => {
                id = p;
                names.push(model.fns[id].qualified());
            }
            None => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_scan_finds_the_catalogue() {
        let seeds = seeds_of_body(
            "{ x.unwrap(); y.expect(\"m\"); panic!(\"n\"); v[0]; s[1..2]; \
             a.copy_from_slice(b); assert!(c); }",
            1,
        );
        assert_eq!(seeds.len(), 7, "{seeds:?}");
    }

    #[test]
    fn seed_scan_skips_non_seeds() {
        let seeds = seeds_of_body(
            "{ x.unwrap_or(0); y.unwrap_or_else(f); vec![1]; #[allow(dead_code)] \
             let a: [u8; 4] = [0; 4]; debug_assert!(x, \"m\"); matches!(x, Y); \
             map.get(&k); }",
            1,
        );
        assert!(seeds.is_empty(), "{seeds:?}");
    }

    #[test]
    fn reachability_reports_a_path() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "// analyze: entrypoint(recovery)\nfn open() { helper(); }\n\
             fn helper() { inner(); }\nfn inner(v: &[u8]) { v[0]; }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let seeds = all_seeds(&m);
        let report = run(&m, &g, &seeds);
        assert_eq!(report.recovery.len(), 1, "{report:?}");
        assert!(report.recovery[0]
            .message
            .contains("open -> helper -> inner"));
        assert!(report.ratcheted.is_empty());
    }

    #[test]
    fn trusted_suppresses_seeds() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/a.rs",
            "// analyze: entrypoint(recovery)\nfn open() { leaf(); }\n\
             // analyze: trusted(fixed offsets)\nfn leaf(v: &[u8]) { v[0]; }\n",
        )
        .expect("parse");
        let g = Graph::build(&m);
        let seeds = all_seeds(&m);
        let report = run(&m, &g, &seeds);
        assert!(report.recovery.is_empty(), "{report:?}");
    }
}
