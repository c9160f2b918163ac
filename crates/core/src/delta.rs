//! The delta function `δ(T, ē)` (Definition 4, Lemma 1, Algorithm 2).
//!
//! For a tree `T` and a (reverse) edit operation `ē`, `δ(T, ē)` is the set of
//! pq-grams of `T` that the edit undone by `ē` introduced:
//!
//! * `ē = REN(n, l')` or `ē = DEL(n)` — all grams containing `n`: the window
//!   `P(v) ∘ Q^{k..k}(v)` at `n`'s position under its parent `v`, plus the
//!   full gram families `P(x) ∘ Q(x)` of every `x ∈ desc_{p−1}(n)`;
//! * `ē = INS(n, v, k, m)` — all grams containing `v` and one of the
//!   children `c_k … c_m`: the window `P(v) ∘ Q^{k..m}(v)`, plus
//!   `P(x) ∘ Q(x)` for every `x ∈ desc_{p−2}(c_k, …, c_m)`.
//!
//! Definition 4 makes `δ` **total**: when `ē` is not applicable to `T`
//! (which routinely happens when the log entry of an intermediate version is
//! evaluated on the final tree `Tₙ`), `δ(T, ē) = ∅`.
//!
//! The grams are accumulated into the [`DeltaTables`] pair, de-duplicated by
//! construction.

use crate::params::PQParams;
use crate::table::{DeltaTables, PEntry, TableError};
use pqgram_tree::{EditOp, InsertAnchor, LabelSym, LogOp, NodeId, Tree};

/// Computes `δ(tree, entry)` and merges it into `tables`.
///
/// Returns `Ok(true)` if the operation was applicable (grams were added),
/// `Ok(false)` for the `δ = ∅` branch of Definition 4. Errors only on table
/// inconsistencies, which indicate a log/tree mismatch.
///
/// An `INS` entry is resolved through its [`InsertAnchor`]: the children it
/// adopts (or the gap it enters) are identified *by node identity*, not by
/// the positional `k..=m` recorded against the intermediate tree version —
/// sibling positions under the same parent may have shifted since. When the
/// anchor no longer resolves on `tree`, the operation has no tree `Tᵢ` with
/// `Tᵢ = ē(T)` in the sense of the paper's node-set semantics and `δ = ∅`.
pub fn accumulate_delta(
    tables: &mut DeltaTables,
    tree: &Tree,
    entry: &LogOp,
    params: PQParams,
) -> Result<bool, TableError> {
    match entry.op {
        EditOp::Rename { .. } | EditOp::Delete { .. } => {
            // Predicate: all grams containing n. Empty if n is gone (or is
            // the root, which valid logs never edit).
            let node = entry.op.target();
            if !tree.contains(node) {
                return Ok(false);
            }
            let Some(v) = tree.parent(node) else {
                return Ok(false);
            };
            let k = tree.sibling_pos(node).ok_or(TableError::Inconsistency(
                node,
                "non-root node has no sibling position",
            ))? as u32;
            add_p(tables, tree, v, params)?;
            add_q_window(tables, tree, v, k, k, params)?;
            for x in tree.descendants_within(node, params.p() - 1) {
                add_p(tables, tree, x, params)?;
                add_q_full(tables, tree, x, params)?;
            }
            Ok(true)
        }
        EditOp::Insert {
            node, parent: v, ..
        } => {
            if tree.contains(node) || !tree.contains(v) {
                return Ok(false);
            }
            let anchor = entry.anchor.as_ref().ok_or(TableError::Inconsistency(
                node,
                "log insert carries no anchor",
            ))?;
            match anchor {
                InsertAnchor::Adopted(run) => adopted_delta(tables, tree, v, run, params),
                InsertAnchor::Gap { pred, succ } => {
                    let Some(k) = resolve_gap(tree, v, *pred, *succ) else {
                        return Ok(false);
                    };
                    add_p(tables, tree, v, params)?;
                    // Zero-width window Q^{k..k-1}(v): the rows crossing the
                    // insertion gap.
                    add_q_window(tables, tree, v, k as u32, k as u32 - 1, params)?;
                    Ok(true)
                }
            }
        }
    }
}

/// Predicate delta of a non-leaf insert: all grams of `tree` containing `v`
/// and at least one *surviving* member of the adopted node set `C`.
///
/// Surviving members are always descendants of `v` (children can only move
/// deeper while `v` stays alive), so every qualifying gram has `v` in its
/// p-part and the member either in the p-part below `v` (gram anchored
/// inside the member's subtree) or in the q-part (gram anchored at the
/// member's parent, window covering it). When the recorded run is still the
/// intact child range `c_k…c_m` of `v` this enumerates exactly
/// `P(v)∘Q^{k..m}(v) ∪ P(x)∘Q(x), x ∈ desc_{p−2}(c_k…c_m)` — Table 1.
fn adopted_delta(
    tables: &mut DeltaTables,
    tree: &Tree,
    v: NodeId,
    run: &[NodeId],
    params: PQParams,
) -> Result<bool, TableError> {
    let p = params.p();
    let mut any = false;
    for &c in run {
        if !tree.contains(c) {
            continue;
        }
        // Distance from v down to c (walk up from c, at most p steps — any
        // farther and no gram can contain both).
        let mut d = 0usize;
        let mut cur = c;
        let found = loop {
            if cur == v {
                break d > 0;
            }
            if d >= p {
                break false;
            }
            match tree.parent(cur) {
                Some(up) => {
                    cur = up;
                    d += 1;
                }
                None => break false,
            }
        };
        if !found {
            continue;
        }
        any = true;
        // Grams with c in the q-part: anchored at c's parent (which is at
        // distance d−1 ≤ p−1 from v), windows covering c.
        let parent = tree
            .parent(c)
            .ok_or(TableError::Inconsistency(c, "adopted node lost its parent"))?;
        let pos = tree.sibling_pos(c).ok_or(TableError::Inconsistency(
            c,
            "adopted node has no sibling position",
        ))? as u32;
        add_p(tables, tree, parent, params)?;
        add_q_window(tables, tree, parent, pos, pos, params)?;
        // Grams with c in the p-part: anchored in c's subtree within
        // distance p−1 of v, i.e. within p−1−d of c.
        if p > d {
            for x in tree.descendants_within(c, p - 1 - d) {
                add_p(tables, tree, x, params)?;
                add_q_full(tables, tree, x, params)?;
            }
        }
    }
    Ok(any)
}

/// Resolves the gap of a logged leaf insert on `tree` by the identity of its
/// neighbors; `None` when the adjacency no longer exists.
fn resolve_gap(
    tree: &Tree,
    v: NodeId,
    pred: Option<NodeId>,
    succ: Option<NodeId>,
) -> Option<usize> {
    let children = tree.children(v);
    let pos_of = |n: NodeId| -> Option<usize> {
        if tree.contains(n) && tree.parent(n) == Some(v) {
            tree.sibling_pos(n)
        } else {
            None
        }
    };
    match (pred, succ) {
        (None, None) => children.is_empty().then_some(1),
        (None, Some(s)) => (pos_of(s)? == 1).then_some(1),
        (Some(pr), None) => {
            let pp = pos_of(pr)?;
            (pp == children.len()).then_some(pp + 1)
        }
        (Some(pr), Some(s)) => {
            let pp = pos_of(pr)?;
            (pos_of(s)? == pp + 1).then_some(pp + 1)
        }
    }
}

/// Builds the `P` entry of `x` from the tree: the null-padded ancestor
/// chain, the parent id and the sibling position (Section 8.1).
pub fn p_entry_of(tree: &Tree, x: NodeId, params: PQParams) -> PEntry {
    let p = params.p();
    let mut ppart = vec![LabelSym::NULL; p];
    ppart[p - 1] = tree.label(x);
    let mut cur = x;
    for slot in (0..p - 1).rev() {
        match tree.parent(cur) {
            Some(a) => {
                ppart[slot] = tree.label(a);
                cur = a;
            }
            None => break,
        }
    }
    PEntry {
        parent: tree.parent(x),
        sib_pos: tree.sibling_pos(x).unwrap_or(0) as u32,
        ppart,
    }
}

fn add_p(
    tables: &mut DeltaTables,
    tree: &Tree,
    x: NodeId,
    params: PQParams,
) -> Result<(), TableError> {
    tables.insert_p(x, p_entry_of(tree, x, params))
}

/// Adds all rows of the full q-matrix `Q(x)` (Definition 7).
fn add_q_full(
    tables: &mut DeltaTables,
    tree: &Tree,
    x: NodeId,
    params: PQParams,
) -> Result<(), TableError> {
    let q = params.q();
    let children = tree.children(x);
    let f = children.len();
    if f == 0 {
        return tables.insert_q_row(x, 1, vec![LabelSym::NULL; q]);
    }
    add_rows(tables, tree, x, 1, (f + q - 1) as u32, params)
}

/// Adds the window rows `k ..= m+q−1` of `Q(v)` — `Q^{k..m}(v)`, including
/// the zero-width insert window `m = k − 1` and the leaf special case.
fn add_q_window(
    tables: &mut DeltaTables,
    tree: &Tree,
    v: NodeId,
    k: u32,
    m: u32,
    params: PQParams,
) -> Result<(), TableError> {
    let q = params.q();
    if tree.is_leaf(v) {
        // Q^{k..m} of a leaf is the canonical 1×q null row.
        return tables.insert_q_row(v, 1, vec![LabelSym::NULL; q]);
    }
    add_rows(tables, tree, v, k, m + q as u32 - 1, params)
}

/// Adds rows `first ..= last` of the q-matrix of `v` read off the tree:
/// row `r` holds the children `c_{r−q+1} … c_r` (null outside `1..=f`).
fn add_rows(
    tables: &mut DeltaTables,
    tree: &Tree,
    v: NodeId,
    first: u32,
    last: u32,
    params: PQParams,
) -> Result<(), TableError> {
    let q = params.q() as i64;
    let children = tree.children(v);
    let f = children.len() as i64;
    debug_assert!(i64::from(last) < f + q, "row beyond matrix");
    for r in first..=last {
        let mut row = Vec::with_capacity(q as usize);
        for t in 1..=q {
            let idx = i64::from(r) - q + t; // child index, 1-based
            row.push(if (1..=f).contains(&idx) {
                tree.label(children[(idx - 1) as usize])
            } else {
                LabelSym::NULL
            });
        }
        tables.insert_q_row(v, r, row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::label_tuple_fingerprint;
    use crate::index::GramKey;
    use crate::reference;
    use pqgram_tree::LabelTable;

    /// T2 of Figure 2 with Example-5 labels: a(c e f(g) c).
    fn paper_t2() -> (Tree, LabelTable, Vec<NodeId>) {
        // Build T0 = a(c b(e f) c), then apply e1, e2 to get T2, preserving
        // the paper's node identities.
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let b = lt.intern("b");
        let c = lt.intern("c");
        let e = lt.intern("e");
        let f = lt.intern("f");
        let g = lt.intern("g");
        let mut t = Tree::with_root(a);
        let n1 = t.root();
        let n2 = t.add_child(n1, c);
        let n3 = t.add_child(n1, b);
        let n4 = t.add_child(n1, c);
        let n5 = t.add_child(n3, e);
        let n6 = t.add_child(n3, f);
        let n7 = t.next_node_id();
        // e1 = INS((n7, g), n6, 1, 0); e2 = DEL(n3).
        t.apply(EditOp::Insert {
            node: n7,
            label: g,
            parent: n6,
            k: 1,
            m: 0,
        })
        .unwrap();
        t.apply(EditOp::Delete { node: n3 }).unwrap();
        (t, lt, vec![n1, n2, n3, n4, n5, n6, n7])
    }

    fn sorted_keys(mut v: Vec<GramKey>) -> Vec<GramKey> {
        v.sort_unstable();
        v
    }

    #[test]
    fn example5_delta_plus() {
        // Δ2+ = δ(T2, ē1) ∪ δ(T2, ē2) — 9 pq-grams with the label tuples
        // listed at the end of Example 5.
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(3, 3);
        let b_label = lt.lookup("b").unwrap();
        let e1_bar = LogOp::new(EditOp::Delete { node: n[6] }, None);
        let e2_bar = LogOp::new(
            EditOp::Insert {
                node: n[2],
                label: b_label,
                parent: n[0],
                k: 2,
                m: 3,
            },
            Some(InsertAnchor::Adopted([n[4], n[5]].into())),
        );

        let mut tables = DeltaTables::new();
        assert!(accumulate_delta(&mut tables, &t2, &e1_bar, params).unwrap());
        assert!(accumulate_delta(&mut tables, &t2, &e2_bar, params).unwrap());
        tables.validate().unwrap();

        let s = |x: &str| lt.lookup(x).unwrap();
        let nl = LabelSym::NULL;
        let (a, c, e, f, g) = (s("a"), s("c"), s("e"), s("f"), s("g"));
        let expected: Vec<GramKey> = [
            vec![nl, nl, a, nl, c, e],
            vec![nl, nl, a, c, e, f],
            vec![nl, nl, a, e, f, c],
            vec![nl, nl, a, f, c, nl],
            vec![nl, a, e, nl, nl, nl],
            vec![nl, a, f, nl, nl, g],
            vec![nl, a, f, nl, g, nl],
            vec![nl, a, f, g, nl, nl],
            vec![a, f, g, nl, nl, nl],
        ]
        .into_iter()
        .map(|tup| label_tuple_fingerprint(tup, &lt))
        .collect();
        assert_eq!(
            tables.lambda(&lt).map(sorted_keys),
            Ok(sorted_keys(expected))
        );
    }

    #[test]
    fn delta_of_inapplicable_op_is_empty() {
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(3, 3);
        let mut tables = DeltaTables::new();
        // n3 is not in T2: deleting or renaming it is not applicable.
        assert!(!accumulate_delta(
            &mut tables,
            &t2,
            &LogOp::new(EditOp::Delete { node: n[2] }, None),
            params
        )
        .unwrap());
        let x = lt.lookup("g").unwrap();
        assert!(!accumulate_delta(
            &mut tables,
            &t2,
            &LogOp::new(
                EditOp::Rename {
                    node: n[2],
                    label: x
                },
                None
            ),
            params
        )
        .unwrap());
        // Inserting an already-present node is not applicable either.
        assert!(!accumulate_delta(
            &mut tables,
            &t2,
            &LogOp::new(
                EditOp::Insert {
                    node: n[6],
                    label: x,
                    parent: n[0],
                    k: 1,
                    m: 0
                },
                Some(InsertAnchor::Gap {
                    pred: None,
                    succ: Some(n[1])
                }),
            ),
            params
        )
        .unwrap());
        // An adopted run whose nodes are gone does not resolve.
        assert!(!accumulate_delta(
            &mut tables,
            &t2,
            &LogOp::new(
                EditOp::Insert {
                    node: n[2],
                    label: x,
                    parent: n[0],
                    k: 1,
                    m: 1
                },
                Some(InsertAnchor::Adopted([NodeId::from_index(40)].into())),
            ),
            params
        )
        .unwrap());
        assert!(tables.is_empty());
    }

    #[test]
    fn anchorless_insert_entry_is_an_error_not_a_panic() {
        // A hand-forged (untrusted) log entry: an applicable insert with no
        // anchor. Must surface as a structured inconsistency.
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(3, 3);
        let x = lt.lookup("g").unwrap();
        let node = NodeId::from_index(9);
        // Bypasses `LogOp::new` (which asserts the invariant) the way any
        // deserialized/forged log could: the fields are public.
        let forged = LogOp {
            op: EditOp::Insert {
                node,
                label: x,
                parent: n[0],
                k: 1,
                m: 0,
            },
            anchor: None,
        };
        let mut tables = DeltaTables::new();
        assert_eq!(
            accumulate_delta(&mut tables, &t2, &forged, params),
            Err(TableError::Inconsistency(
                node,
                "log insert carries no anchor"
            ))
        );
        assert!(tables.is_empty());
    }

    #[test]
    fn anchor_resolution_follows_identity_not_position() {
        // In T2, n7 sits at position 1 under n6. An insert entry recorded as
        // position 1 but anchored to the *gap after n7* must resolve to
        // position 2.
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(3, 3);
        let x = lt.lookup("g").unwrap();
        let entry = LogOp::new(
            EditOp::Insert {
                node: NodeId::from_index(9),
                label: x,
                parent: n[5],
                k: 1,
                m: 0,
            },
            Some(InsertAnchor::Gap {
                pred: Some(n[6]),
                succ: None,
            }),
        );
        let mut tables = DeltaTables::new();
        assert!(accumulate_delta(&mut tables, &t2, &entry, params).unwrap());
        // The window rows are those of gap position k = 2: rows 2..=3.
        let rows: Vec<u32> = tables.q_rows(n[5]).unwrap().keys().copied().collect();
        assert_eq!(rows, vec![2, 3]);
    }

    #[test]
    fn delta_matches_definition_on_defining_tree() {
        // On the tree version a log entry was recorded against, identity and
        // positional semantics coincide and δ(T_i, ē_i) = P_i \ P_{i-1}
        // (Definition 4).
        use pqgram_tree::generate::{random_tree, RandomTreeConfig};
        use pqgram_tree::{record_script, ScriptConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lt = LabelTable::new();
            let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(40, 4));
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(8, alphabet));
            let params = PQParams::new(3, 3);
            let versions = reference::rewind_versions(&tree, &log);
            for (i, entry) in log.ops().iter().enumerate() {
                // Entry i (ē_{i+1}) is defined on version i+1.
                let defining = &versions[i + 1];
                let mut tables = DeltaTables::new();
                let applied = accumulate_delta(&mut tables, defining, entry, params).unwrap();
                assert!(
                    applied,
                    "seed {seed}: entry must apply on its defining tree"
                );
                let profile = reference::delta_by_definition(defining, entry.op, params)
                    .expect("applicable on defining tree");
                let expected: Vec<GramKey> =
                    profile.iter().map(|g| g.tuple_fingerprint(&lt)).collect();
                assert_eq!(
                    tables.lambda(&lt).map(sorted_keys),
                    Ok(sorted_keys(expected)),
                    "seed {seed} entry {i} op {:?}",
                    entry.op
                );
            }
        }
    }

    #[test]
    fn p_entry_of_pads_with_nulls() {
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(4, 2);
        let entry = p_entry_of(&t2, n[6], params); // n7, depth 2
        let nl = LabelSym::NULL;
        assert_eq!(
            entry.ppart,
            vec![
                nl,
                lt.lookup("a").unwrap(),
                lt.lookup("f").unwrap(),
                lt.lookup("g").unwrap()
            ]
        );
        assert_eq!(entry.parent, Some(n[5]));
        assert_eq!(entry.sib_pos, 1);
        let root_entry = p_entry_of(&t2, n[0], params);
        assert_eq!(root_entry.parent, None);
        assert_eq!(root_entry.sib_pos, 0);
    }
}
