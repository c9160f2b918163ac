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
use crate::table::{DeltaTables, PEntry, Scratch, TableError};
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
    if (tables.p(), tables.q()) != (params.p(), params.q()) {
        return Err(TableError::Shape("tables were made for other parameters"));
    }
    let buf = tables.take_scratch();
    let mut acc = Accumulator { tables, tree, buf };
    let applied = acc.accumulate(entry);
    acc.tables.put_scratch(acc.buf);
    applied
}

/// The 1-based sibling position of a non-root `node`.
fn position(tree: &Tree, node: NodeId) -> Result<u32, TableError> {
    tree.sibling_pos(node)
        .and_then(|k| u32::try_from(k).ok())
        .ok_or(TableError::Inconsistency(
            node,
            "non-root node has no sibling position",
        ))
}

/// One `δ` evaluation: the tables, the tree, and the tables' scratch
/// buffers (`buf.labels` holds each p-part and each stretch of rows).
struct Accumulator<'t> {
    tables: &'t mut DeltaTables,
    tree: &'t Tree,
    buf: Scratch,
}

impl Accumulator<'_> {
    /// `δ(tree, entry)` into the tables.
    fn accumulate(&mut self, entry: &LogOp) -> Result<bool, TableError> {
        let (tree, p) = (self.tree, self.tables.p());
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
                let k = position(tree, node)?;
                self.add_p(v)?;
                self.add_q_window(v, k, k)?;
                self.add_families(node, p - 1)?;
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
                    InsertAnchor::Adopted(run) => self.adopted_delta(v, run, p),
                    InsertAnchor::Gap { pred, succ } => {
                        let Some(k) = resolve_gap(tree, v, *pred, *succ) else {
                            return Ok(false);
                        };
                        self.add_p(v)?;
                        // Zero-width window Q^{k..k-1}(v): the rows crossing the
                        // insertion gap.
                        self.add_q_window(v, k, k - 1)?;
                        Ok(true)
                    }
                }
            }
        }
    }

    /// Predicate delta of a non-leaf insert: all grams of `tree` containing
    /// `v` and at least one *surviving* member of the adopted node set `C`.
    ///
    /// Surviving members are always descendants of `v` (children can only
    /// move deeper while `v` stays alive), so every qualifying gram has `v`
    /// in its p-part and the member either in the p-part below `v` (gram
    /// anchored inside the member's subtree) or in the q-part (gram
    /// anchored at the member's parent, window covering it). When the
    /// recorded run is still the intact child range `c_k…c_m` of `v` this
    /// enumerates exactly `P(v)∘Q^{k..m}(v) ∪ P(x)∘Q(x), x ∈
    /// desc_{p−2}(c_k…c_m)` — Table 1.
    fn adopted_delta(&mut self, v: NodeId, run: &[NodeId], p: usize) -> Result<bool, TableError> {
        let tree = self.tree;
        let mut any = false;
        for &c in run {
            if !tree.contains(c) {
                continue;
            }
            // Distance from v down to c (walk up from c, at most p steps —
            // any farther and no gram can contain both).
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
            // Grams with c in the q-part: anchored at c's parent (which is
            // at distance d−1 ≤ p−1 from v), windows covering c.
            let parent = tree
                .parent(c)
                .ok_or(TableError::Inconsistency(c, "adopted node lost its parent"))?;
            let pos = position(tree, c)?;
            self.add_p(parent)?;
            self.add_q_window(parent, pos, pos)?;
            // Grams with c in the p-part: anchored in c's subtree within
            // distance p−1 of v, i.e. within p−1−d of c.
            if p > d {
                self.add_families(c, p - 1 - d)?;
            }
        }
        Ok(any)
    }

    /// Adds `P(x) ∘ Q(x)` for every `x ∈ desc_d(n)`; an anchor whose full
    /// q-matrix is already stored is skipped.
    fn add_families(&mut self, n: NodeId, d: usize) -> Result<(), TableError> {
        if !self.tables.has_full_q(n) {
            self.add_p(n)?;
            self.add_q_full(n)?;
        }
        if d > 0 {
            let tree = self.tree;
            for &c in tree.children(n) {
                self.add_families(c, d - 1)?;
            }
        }
        Ok(())
    }

    /// Adds the `P` entry of `x` read off the tree: the null-padded
    /// ancestor chain, the parent id and the sibling position (Section
    /// 8.1).
    fn add_p(&mut self, x: NodeId) -> Result<(), TableError> {
        let tree = self.tree;
        let parent = tree.parent(x);
        let sib_pos = match parent {
            Some(_) => position(tree, x)?,
            None => 0,
        };
        fill_ppart(tree, x, self.tables.p(), &mut self.buf.labels);
        self.tables.insert_p(
            x,
            PEntry {
                parent,
                sib_pos,
                ppart: &self.buf.labels,
            },
        )
    }

    /// Adds all rows of the full q-matrix `Q(x)` (Definition 7).
    fn add_q_full(&mut self, x: NodeId) -> Result<(), TableError> {
        let f = self.tree.children(x).len();
        if f == 0 {
            self.add_leaf_row(x)?;
        } else {
            let last = u32::try_from(f + self.tables.q() - 1)
                .map_err(|_| TableError::Inconsistency(x, "fanout beyond row numbers"))?;
            self.add_rows(x, 1, last)?;
        }
        self.tables.mark_full_q(x);
        Ok(())
    }

    /// Adds the window rows `k ..= m+q−1` of `Q(v)` — `Q^{k..m}(v)`,
    /// including the zero-width insert window `m = k − 1` and the leaf
    /// special case.
    fn add_q_window(&mut self, v: NodeId, k: u32, m: u32) -> Result<(), TableError> {
        if self.tables.has_full_q(v) {
            return Ok(());
        }
        if self.tree.is_leaf(v) {
            // Q^{k..m} of a leaf is the canonical 1×q null row.
            return self.add_leaf_row(v);
        }
        let last = u32::try_from(self.tables.q() - 1)
            .ok()
            .and_then(|w| m.checked_add(w))
            .ok_or(TableError::Inconsistency(v, "window beyond row numbers"))?;
        self.add_rows(v, k, last)
    }

    fn add_leaf_row(&mut self, x: NodeId) -> Result<(), TableError> {
        self.buf.labels.clear();
        self.buf.labels.resize(self.tables.q(), LabelSym::NULL);
        self.tables.insert_q_row(x, 1, &self.buf.labels)
    }

    /// Adds rows `first ..= last` of the q-matrix of `v` read off the tree:
    /// row `r` holds the children `c_{r−q+1} … c_r` (null outside
    /// `1..=f`). The buffer holds the stretch of the null-padded child
    /// sequence the rows cover; each row is a window of it.
    fn add_rows(&mut self, v: NodeId, first: u32, last: u32) -> Result<(), TableError> {
        let q = self.tables.q();
        let tree = self.tree;
        let children = tree.children(v);
        // Padded sequence index i holds child i − (q − 1) (0-based); row r
        // starts at index r − 1.
        let start = first.saturating_sub(1) as usize;
        let end = last as usize + q - 1;
        if first == 0 || end > children.len() + 2 * (q - 1) {
            return Err(TableError::Inconsistency(
                v,
                "q-matrix row beyond the matrix",
            ));
        }
        self.buf.labels.clear();
        self.buf.labels.extend((start..end).map(|i| {
            i.checked_sub(q - 1)
                .and_then(|c| children.get(c))
                .map_or(LabelSym::NULL, |&c| tree.label(c))
        }));
        self.tables
            .insert_q_rows(v, (first..).zip(self.buf.labels.windows(q)))
    }
}

/// Resolves the gap of a logged leaf insert on `tree` by the identity of its
/// neighbors; `None` when the adjacency no longer exists.
fn resolve_gap(tree: &Tree, v: NodeId, pred: Option<NodeId>, succ: Option<NodeId>) -> Option<u32> {
    let children = tree.children(v);
    let pos_of = |n: NodeId| -> Option<usize> {
        if tree.contains(n) && tree.parent(n) == Some(v) {
            tree.sibling_pos(n)
        } else {
            None
        }
    };
    let k = match (pred, succ) {
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
    }?;
    u32::try_from(k).ok()
}

/// Fills `out` with the p-part of `x`: its ancestor chain's labels,
/// null-padded to `p`, farthest ancestor first and `x` last.
pub fn fill_ppart(tree: &Tree, x: NodeId, p: usize, out: &mut Vec<LabelSym>) {
    out.clear();
    out.resize(p, LabelSym::NULL);
    let mut cur = Some(x);
    for slot in out.iter_mut().rev() {
        let Some(n) = cur else { break };
        *slot = tree.label(n);
        cur = tree.parent(n);
    }
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

        let mut tables = DeltaTables::new(params);
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
        let mut tables = DeltaTables::new(params);
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
        let mut tables = DeltaTables::new(params);
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
        let mut tables = DeltaTables::new(params);
        assert!(accumulate_delta(&mut tables, &t2, &entry, params).unwrap());
        // The window rows are those of gap position k = 2: rows 2..=3.
        let rows: Vec<u32> = tables.q_rows(n[5]).map(|(r, _)| r).collect();
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
            let versions = reference::rewind_versions(&tree, &log).unwrap();
            for (i, entry) in log.ops().iter().enumerate() {
                // Entry i (ē_{i+1}) is defined on version i+1.
                let defining = &versions[i + 1];
                let mut tables = DeltaTables::new(params);
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
    fn fill_ppart_pads_with_nulls() {
        let (t2, lt, n) = paper_t2();
        let mut ppart = Vec::new();
        fill_ppart(&t2, n[6], 4, &mut ppart); // n7, depth 2
        let nl = LabelSym::NULL;
        assert_eq!(
            ppart,
            vec![
                nl,
                lt.lookup("a").unwrap(),
                lt.lookup("f").unwrap(),
                lt.lookup("g").unwrap()
            ]
        );
        fill_ppart(&t2, n[0], 2, &mut ppart);
        assert_eq!(ppart, vec![nl, lt.lookup("a").unwrap()]);
    }

    #[test]
    fn entries_carry_parent_and_position() {
        // δ of renaming n7 (under n6 at position 1) stores P(n6) and P(n7)
        // with their parents and sibling positions.
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(3, 2);
        let z = lt.lookup("g").unwrap();
        let mut tables = DeltaTables::new(params);
        let entry = LogOp::new(
            EditOp::Rename {
                node: n[6],
                label: z,
            },
            None,
        );
        assert!(accumulate_delta(&mut tables, &t2, &entry, params).unwrap());
        let e7 = tables.p_entry(n[6]).unwrap();
        assert_eq!((e7.parent, e7.sib_pos), (Some(n[5]), 1));
        let e6 = tables.p_entry(n[5]).unwrap();
        assert_eq!((e6.parent, e6.sib_pos), (Some(n[0]), 3));
        // Tables made for other parameters are refused.
        let mut other = DeltaTables::new(PQParams::new(2, 2));
        assert_eq!(
            accumulate_delta(&mut other, &t2, &entry, params),
            Err(TableError::Shape("tables were made for other parameters"))
        );
    }

    #[test]
    fn a_full_anchor_is_skipped_not_rebuilt() {
        // Deleting and renaming the same node adds the same families: the
        // second evaluation finds every full q-matrix already stored.
        let (t2, lt, n) = paper_t2();
        let params = PQParams::new(2, 3);
        let g = lt.lookup("g").unwrap();
        let mut tables = DeltaTables::new(params);
        let del = LogOp::new(EditOp::Delete { node: n[5] }, None);
        let ren = LogOp::new(
            EditOp::Rename {
                node: n[5],
                label: g,
            },
            None,
        );
        assert!(accumulate_delta(&mut tables, &t2, &del, params).unwrap());
        let grams = tables.q_len();
        assert!(tables.has_full_q(n[5]) && tables.has_full_q(n[6]));
        assert!(accumulate_delta(&mut tables, &t2, &ren, params).unwrap());
        assert_eq!(tables.q_len(), grams);
        tables.validate().unwrap();
    }
}
