//! Transaction discipline: every call path that reaches a mutating
//! storage write must pass through a function that opens a journal
//! transaction, and commit paths must order data-sync before journal
//! retire.
//!
//! The vocabulary is the `// analyze:` markers from [`super::model`]:
//!
//! * `txn-sink` — a mutating write (`Pager::write_page`, buffer-pool page
//!   mutation, …);
//! * `txn-boundary` — opens and closes a transaction around everything it
//!   runs (`ops::transactional`, `Source::put_trees`);
//! * `txn-exempt(<reason>)` — reviewed out-of-transaction writes
//!   (initialising a fresh file, flushing already-committed state).
//!
//! A function is **covered** when it carries a boundary/exempt marker or
//! its body directly calls a boundary function — the latter handles the
//! `self.transactional(|store| …)` closure idiom, where the closure's
//! calls lexically belong to the enclosing function. A function has
//! **unguarded reach** when it can reach a sink through uncovered
//! functions only. The violations are the non-test *roots* (functions
//! with no non-test workspace callers) with unguarded reach: some public
//! path mutates storage with no transaction anywhere above it.
//!
//! The ordering check is anchored: `Pager::commit` must sync the data
//! file before retiring the journal, and `BufferPool::commit` must flush
//! dirty frames before committing the pager. In workspace runs the
//! anchors are required — renaming them away fails the pass, so the check
//! cannot rot silently.

use super::callgraph::Graph;
use super::model::{Marker, Model};
use super::report::Violation;

/// Computes per-function "can reach a sink through uncovered functions".
fn unguarded_reach(model: &Model, graph: &Graph) -> Vec<bool> {
    let n = model.fns.len();
    let sink: Vec<bool> = model
        .fns
        .iter()
        .map(|f| f.has_marker(|m| matches!(m, Marker::TxnSink)))
        .collect();
    let covered: Vec<bool> = model
        .fns
        .iter()
        .enumerate()
        .map(|(id, f)| {
            if f.has_marker(|m| matches!(m, Marker::TxnBoundary | Marker::TxnExempt(_))) {
                return true;
            }
            graph.edges[id]
                .iter()
                .any(|&c| model.fns[c].has_marker(|m| matches!(m, Marker::TxnBoundary)))
        })
        .collect();
    // Fixpoint: reach[f] = sink[f] || (!covered[f] && any(reach[callee])).
    // A covered function cuts propagation: everything below it runs
    // inside (or is excused from) a transaction.
    let mut reach = sink.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if reach[id] || covered[id] {
                continue;
            }
            if graph.edges[id].iter().any(|&c| reach[c] && !covered[c]) {
                reach[id] = true;
                changed = true;
            }
        }
    }
    // A sink that is itself covered must not propagate either.
    for id in 0..n {
        if covered[id] && !sink[id] {
            reach[id] = false;
        }
    }
    reach
}

/// Example path from `from` to the nearest reachable sink through
/// uncovered functions, for the report.
fn path_to_sink(model: &Model, graph: &Graph, from: usize) -> String {
    let mut parent: Vec<Option<usize>> = vec![None; model.fns.len()];
    let mut visited = vec![false; model.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[from] = true;
    queue.push_back(from);
    let mut found = None;
    'bfs: while let Some(id) = queue.pop_front() {
        for &next in &graph.edges[id] {
            if visited[next] {
                continue;
            }
            visited[next] = true;
            parent[next] = Some(id);
            if model.fns[next].has_marker(|m| matches!(m, Marker::TxnSink)) {
                found = Some(next);
                break 'bfs;
            }
            let covered = model.fns[next]
                .has_marker(|m| matches!(m, Marker::TxnBoundary | Marker::TxnExempt(_)));
            if !covered {
                queue.push_back(next);
            }
        }
    }
    let Some(mut id) = found else {
        return model.fns[from].qualified();
    };
    let mut names = vec![model.fns[id].qualified()];
    while id != from {
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

/// Runs the discipline analysis; violations are zero-tolerance.
pub fn run(model: &Model, graph: &Graph) -> Vec<Violation> {
    let reach = unguarded_reach(model, graph);
    let mut out = Vec::new();
    for (id, f) in model.fns.iter().enumerate() {
        if f.is_test || !reach[id] {
            continue;
        }
        let is_root = graph.callers[id]
            .iter()
            .all(|&c| model.fns[c].is_test || c == id);
        if !is_root {
            continue;
        }
        let covered = f.has_marker(|m| matches!(m, Marker::TxnBoundary | Marker::TxnExempt(_)));
        if covered {
            continue;
        }
        out.push(Violation {
            rule: "txn-discipline",
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "`{}` reaches a mutating write with no transaction on the path: {}",
                f.qualified(),
                path_to_sink(model, graph, id)
            ),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// One ordering anchor: within `owner::name`, the token `first` must
/// appear before the token `then`.
struct Anchor {
    owner: &'static str,
    name: &'static str,
    first: &'static str,
    then: &'static str,
    why: &'static str,
}

const ANCHORS: &[Anchor] = &[
    Anchor {
        owner: "Pager",
        name: "commit",
        first: ".file.sync(",
        then: ".journal.take(",
        why: "data must be durable before the journal is retired \
              (retiring first loses the rollback images for unsynced data)",
    },
    Anchor {
        owner: "BufferPool",
        name: "commit",
        first: "flush_dirty(",
        then: "pager.commit(",
        why: "dirty frames must reach the pager before its commit syncs the file",
    },
];

/// Statically checks commit ordering. With `require_anchors`, a missing
/// anchor function (or missing tokens) is itself a violation, so the
/// check cannot be silently refactored away.
pub fn check_ordering(model: &Model, require_anchors: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for anchor in ANCHORS {
        let found = model
            .fns
            .iter()
            .find(|f| f.owner.as_deref() == Some(anchor.owner) && f.name == anchor.name);
        let Some(f) = found else {
            if require_anchors {
                out.push(Violation {
                    rule: "txn-ordering",
                    file: "<workspace>".into(),
                    line: 0,
                    message: format!(
                        "ordering anchor `{}::{}` not found; update the anchors in \
                         crates/xtask/src/analyze/txn.rs if it moved",
                        anchor.owner, anchor.name
                    ),
                });
            }
            continue;
        };
        let first = f.body.find(anchor.first);
        let then = f.body.find(anchor.then);
        match (first, then) {
            (Some(a), Some(b)) if a < b => {}
            (Some(_), Some(_)) => out.push(Violation {
                rule: "txn-ordering",
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "`{}::{}` must run `{}` before `{}`: {}",
                    anchor.owner, anchor.name, anchor.first, anchor.then, anchor.why
                ),
            }),
            _ if require_anchors => out.push(Violation {
                rule: "txn-ordering",
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "`{}::{}` no longer contains the `{}` / `{}` tokens the ordering \
                     check anchors on; update crates/xtask/src/analyze/txn.rs",
                    anchor.owner, anchor.name, anchor.first, anchor.then
                ),
            }),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::callgraph::Graph;
    use super::*;

    fn setup(src: &str) -> (Model, Graph) {
        let mut m = Model::default();
        m.add_file("crates/store/src/demo.rs", src).expect("parse");
        let g = Graph::build(&m);
        (m, g)
    }

    #[test]
    fn unguarded_root_is_flagged() {
        let (m, g) = setup(
            "struct P;\nimpl P {\n// analyze: txn-sink\nfn write_page(&mut self) {}\n}\n\
             fn naked(p: &mut P) { p.write_page(); }\n",
        );
        let v = run(&m, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("naked"));
    }

    #[test]
    fn boundary_and_closure_idiom_cover() {
        let (m, g) = setup(
            "struct P;\nimpl P {\n// analyze: txn-sink\nfn write_page(&mut self) {}\n}\n\
             // analyze: txn-boundary\nfn transactional(p: &mut P) { helper(p); }\n\
             fn helper(p: &mut P) { p.write_page(); }\n\
             fn put(p: &mut P) { transactional(p); helper(p); }\n",
        );
        let v = run(&m, &g);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn exempt_root_is_fine() {
        let (m, g) = setup(
            "struct P;\nimpl P {\n// analyze: txn-sink\nfn write_page(&mut self) {}\n}\n\
             // analyze: txn-exempt(fresh file, nothing to protect)\n\
             fn create(p: &mut P) { p.write_page(); }\n",
        );
        let v = run(&m, &g);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ordering_violation_detected() {
        let (m, _) = setup(
            "struct Pager;\nimpl Pager {\nfn commit(&mut self) {\n\
             self.journal.take();\nself.file.sync();\n}\n}\n",
        );
        let v = check_ordering(&m, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("before"));
    }

    #[test]
    fn missing_anchor_fails_workspace_runs_only() {
        let (m, _) = setup("fn unrelated() {}\n");
        assert!(check_ordering(&m, false).is_empty());
        assert_eq!(check_ordering(&m, true).len(), 2);
    }
}
