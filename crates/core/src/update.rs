//! The profile update function `U` on the `(P, Q)` tables
//! (Definition 5, Table 1, Algorithms 3 and 4).
//!
//! `U(p_j, ē)` replaces, inside a stored set of pq-grams of the current tree
//! `T_j`, the new grams `δ(T_j, ē)` by the old grams `δ(T_i, e)` of the tree
//! `T_i = ē(T_j)` — *without access to either tree*: everything needed is in
//! the tables and the operation itself. Iterating `U` over the log converts
//! `Δₙ⁺` into `Δₙ⁻` (Theorem 2).
//!
//! Besides the gram rewrites of Table 1, the implementation maintains the
//! coordinates of the *untouched* entries, as Section 8.4 prescribes: when an
//! edit changes a child list, the row numbers of later q-matrix rows and the
//! `sibPos` of later siblings shift, and re-parented children get their
//! `parId` updated.

use crate::matrix::QBlock;
use crate::params::PQParams;
use crate::table::{DeltaTables, PEntry, TableError};
use pqgram_tree::{EditOp, LabelSym, NodeId};

/// Applies `U(·, op)` to the tables in place.
///
/// Requires `params.supports_incremental()` (checked by the caller) and that
/// the tables contain `δ(T_j, op)` — guaranteed by Lemma 7 when the tables
/// were seeded with `Δₙ⁺` and `U` is applied in reverse log order. A missing
/// entry therefore means the log does not belong to the tree/index and is
/// reported as an error.
pub fn apply_update(
    tables: &mut DeltaTables,
    op: EditOp,
    params: PQParams,
) -> Result<(), TableError> {
    debug_assert!(
        params.supports_incremental(),
        "apply_update requires incremental-capable params, got {params:?}"
    );
    match op {
        EditOp::Rename { node, label } => rename(tables, node, label, params),
        EditOp::Delete { node } => delete(tables, node, params),
        EditOp::Insert {
            node,
            label,
            parent,
            k,
            m,
        } => insert(tables, node, label, parent, k as u32, m as u32, params),
    }
}

/// `U` for `ē = REN(n, l′)` (Algorithm 3, case 1).
fn rename(
    tables: &mut DeltaTables,
    n: NodeId,
    new_label: LabelSym,
    params: PQParams,
) -> Result<(), TableError> {
    let (p, q) = (params.p() as u32, params.q() as u32);
    let t = tables.p_entry_required(n)?.clone();
    let v = t.parent.expect("log must not edit the root");
    let k = t.sib_pos;

    // Q ← Q \ Q^{k..k}(v) ∪ [Q^{k..k}(v) ∥ D((id(n), l′))]
    let window_rows = tables.take_q_range(v, k, k + q - 1)?;
    let window = QBlock::from_rows(k, &window_rows, q as usize);
    debug_assert_eq!(
        window.diagonals().len(),
        1,
        "rename window has exactly one diagonal"
    );
    for (r, row) in window.replace_diagonals(&[new_label]).rows() {
        tables.insert_q_row(v, r, row)?;
    }

    // s ← subStr(ppart, 1, p−1) ∘ l′ ; changePParts(P, n, s, p−1).
    let mut s = t.ppart.clone();
    s[p as usize - 1] = new_label;
    change_pparts(tables, n, &s, p as usize - 1)
}

/// `U` for `ē = DEL(n)` (Algorithm 3, case 2).
fn delete(tables: &mut DeltaTables, n: NodeId, params: PQParams) -> Result<(), TableError> {
    let (p, q) = (params.p(), params.q() as u32);
    let t = tables.p_entry_required(n)?.clone();
    let v = t.parent.expect("log must not edit the root");
    let k = t.sib_pos;

    // Q ← Q \ [Q^{k..k}(v) ∪ Q(n)] ∪ [Q^{k..k}(v) ∥ Q(n)]
    let window_rows = tables.take_q_range(v, k, k + q - 1)?;
    let window = QBlock::from_rows(k, &window_rows, q as usize);
    let n_rows = tables.take_q_all(n);
    if n_rows.is_empty() || n_rows[0].0 != 1 || n_rows.last().unwrap().0 != n_rows.len() as u32 {
        return Err(TableError::MissingQRows(n, 1, n_rows.len() as u32));
    }
    let n_row_contents: Vec<_> = n_rows.into_iter().map(|(_, r)| r).collect();
    let n_matrix = QBlock::from_rows(1, &n_row_contents, q as usize);
    // `g` is the fanout of n. Rows of v after the window shift by g − 1
    // (the window grows from q rows to g + q − 1 rows).
    let g = n_matrix.diagonals().len() as i64;
    tables.shift_q_rows(v, k + q - 1, g - 1);
    for (r, row) in window.replace_diagonals(n_matrix.diagonals()).rows() {
        tables.insert_q_row(v, r, row)?;
    }

    // s ← λ(•) ∘ subStr(ppart, 1, p−1) ; changePParts(P, n, s, p−1), then
    // drop n's own entry.
    let mut s = Vec::with_capacity(p);
    s.push(LabelSym::NULL);
    s.extend_from_slice(&t.ppart[..p - 1]);
    change_pparts(tables, n, &s, p - 1)?;

    // Structural bookkeeping (Section 8.4): n's children move under v at
    // positions k…, later siblings of v shift by g − 1.
    let kids: Vec<(NodeId, u32)> = tables
        .children_in_p(n)
        .iter()
        .map(|&c| {
            (
                c,
                tables.p_entry(c).expect("children index in sync").sib_pos,
            )
        })
        .collect();
    tables.shift_sib_pos(v, k, g - 1)?;
    for (c, pos) in kids {
        tables.set_parent_pos(c, Some(v), k + pos - 1)?;
    }
    tables.remove_p(n);
    Ok(())
}

/// `U` for `ē = INS(n, v, k, m)` (Algorithm 3, case 3).
fn insert(
    tables: &mut DeltaTables,
    n: NodeId,
    label: LabelSym,
    v: NodeId,
    k: u32,
    m: u32,
    params: PQParams,
) -> Result<(), TableError> {
    let (p, q) = (params.p(), params.q() as u32);
    let pv = tables.p_entry_required(v)?.clone();

    // Extract the window Q^{k..m}(v). When v is a leaf (k = 1, m = 0) the
    // stored representation is the canonical 1×q null row.
    let v_is_leaf = tables.q_rows(v).is_some_and(|rows| {
        rows.len() == 1 && rows.get(&1).is_some_and(|r| r.iter().all(|l| l.is_null()))
    });
    let window = if v_is_leaf {
        tables.take_q_range(v, 1, 1)?;
        QBlock::leaf(q as usize)
    } else {
        let rows = tables.take_q_range(v, k, m + q - 1)?;
        QBlock::from_rows(k, &rows, q as usize)
    };
    let moved_diag = window.diagonals().to_vec(); // labels of c_k … c_m

    // Q ← … ∪ [Q^{k..m}(v) ∥ D_v(n)] ∪ [D_n(•) ∥ Q^{k..m}(v)]
    // Rows of v after the old window shift by k − m (window shrinks from
    // m−k+q rows to q rows).
    if !v_is_leaf {
        tables.shift_q_rows(v, m + q - 1, i64::from(k) - i64::from(m));
    }
    for (r, row) in window.replace_diagonals(&[label]).rows() {
        tables.insert_q_row(v, r, row)?;
    }
    for (r, row) in QBlock::full(&moved_diag, q as usize).rows() {
        tables.insert_q_row(n, r, row)?;
    }

    // s ← subStr(ppart(v), 2, p) ∘ λ(n): the p-part of the new node n.
    let mut s = pv.ppart[1..].to_vec();
    s.push(label);

    // For each stored child c of v in the moved range: rewrite the p-parts
    // of c's subtree within distance p − 2 (they gain n as an ancestor).
    let moved: Vec<(NodeId, u32)> = tables
        .children_in_p(v)
        .iter()
        .filter_map(|&c| {
            let pos = tables.p_entry(c).expect("children index in sync").sib_pos;
            (k..=m).contains(&pos).then_some((c, pos))
        })
        .collect();
    if p >= 2 {
        for &(c, _) in &moved {
            let c_label = *tables
                .p_entry_required(c)?
                .ppart
                .last()
                .expect("ppart never empty");
            let mut s_c = s[1..].to_vec();
            s_c.push(c_label);
            change_pparts(tables, c, &s_c, p - 2)?;
        }
    }

    // Structural bookkeeping: moved children now live under n; later
    // siblings of v shift by −(m − k); n itself enters P at position k.
    for &(c, pos) in &moved {
        tables.set_parent_pos(c, Some(n), pos - k + 1)?;
    }
    tables.shift_sib_pos(v, m, i64::from(k) - i64::from(m))?;
    tables.insert_p(
        n,
        PEntry {
            parent: Some(v),
            sib_pos: k,
            ppart: s,
        },
    )
}

/// Algorithm 4: rewrites the p-parts of `n` and of its stored descendants
/// within distance `d`. For an anchor `x` at distance `i ≤ d` from `n`, the
/// first `p − i` labels (the part at or above `n`) are replaced by the last
/// `p − i` labels of `s`; the `i` labels strictly below `n` are invariant.
fn change_pparts(
    tables: &mut DeltaTables,
    n: NodeId,
    s: &[LabelSym],
    d: usize,
) -> Result<(), TableError> {
    let p = s.len();
    let mut level: Vec<NodeId> = vec![n];
    for i in 0..=d.min(p - 1) {
        let mut next = Vec::new();
        for &x in &level {
            let entry = tables.p_entry_required(x)?;
            let mut ppart = Vec::with_capacity(p);
            ppart.extend_from_slice(&s[i..]);
            ppart.extend_from_slice(&entry.ppart[p - i..]);
            tables.set_ppart(x, ppart)?;
            if i < d {
                next.extend_from_slice(tables.children_in_p(x));
            }
        }
        if next.is_empty() {
            break;
        }
        level = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::accumulate_delta;
    use crate::gram::label_tuple_fingerprint;
    use crate::index::GramKey;
    use pqgram_tree::{LabelTable, Tree};

    use pqgram_tree::{InsertAnchor, LogOp};

    /// Rebuilds the Example 5 setting: T2 with node identities of Figure 2.
    fn example5() -> (Tree, LabelTable, Vec<NodeId>, LogOp, LogOp) {
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
        t.apply(EditOp::Insert {
            node: n7,
            label: g,
            parent: n6,
            k: 1,
            m: 0,
        })
        .unwrap();
        t.apply(EditOp::Delete { node: n3 }).unwrap();
        let e1_bar = LogOp::new(EditOp::Delete { node: n7 }, None);
        let e2_bar = LogOp::new(
            EditOp::Insert {
                node: n3,
                label: b,
                parent: n1,
                k: 2,
                m: 3,
            },
            Some(InsertAnchor::Adopted([n5, n6].into())),
        );
        (t, lt, vec![n1, n2, n3, n4, n5, n6, n7], e1_bar, e2_bar)
    }

    fn sorted(mut v: Vec<GramKey>) -> Vec<GramKey> {
        v.sort_unstable();
        v
    }

    #[test]
    fn example5_full_trace() {
        // Δ2+ --U(·, ē2)--> intermediate --U(·, ē1)--> Δ2−, with the exact
        // label tuples printed in Example 5.
        let (t2, lt, _n, e1_bar, e2_bar) = example5();
        let params = PQParams::new(3, 3);
        let mut tables = DeltaTables::new();
        accumulate_delta(&mut tables, &t2, &e1_bar, params).unwrap();
        accumulate_delta(&mut tables, &t2, &e2_bar, params).unwrap();

        let s = |x: &str| lt.lookup(x).unwrap();
        let nl = LabelSym::NULL;
        let (a, b, c, e, f, g) = (s("a"), s("b"), s("c"), s("e"), s("f"), s("g"));
        let fp = |tuples: Vec<Vec<LabelSym>>| -> Vec<GramKey> {
            sorted(
                tuples
                    .into_iter()
                    .map(|t| label_tuple_fingerprint(t, &lt))
                    .collect(),
            )
        };

        // First U call: ē2 = INS((n3, b), n1, 2, 3).
        apply_update(&mut tables, e2_bar.op, params).unwrap();
        tables.validate().unwrap();
        let expected_mid = fp(vec![
            vec![nl, nl, a, nl, c, b],
            vec![nl, nl, a, c, b, c],
            vec![nl, nl, a, b, c, nl],
            vec![nl, a, b, nl, nl, e],
            vec![nl, a, b, nl, e, f],
            vec![nl, a, b, e, f, nl],
            vec![nl, a, b, f, nl, nl],
            vec![a, b, e, nl, nl, nl],
            vec![a, b, f, nl, nl, g],
            vec![a, b, f, nl, g, nl],
            vec![a, b, f, g, nl, nl],
            vec![b, f, g, nl, nl, nl],
        ]);
        assert_eq!(tables.lambda(&lt).map(sorted), Ok(expected_mid));

        // Second U call: ē1 = DEL(n7).
        apply_update(&mut tables, e1_bar.op, params).unwrap();
        tables.validate().unwrap();
        let expected_minus = fp(vec![
            vec![nl, nl, a, nl, c, b],
            vec![nl, nl, a, c, b, c],
            vec![nl, nl, a, b, c, nl],
            vec![nl, a, b, nl, nl, e],
            vec![nl, a, b, nl, e, f],
            vec![nl, a, b, e, f, nl],
            vec![nl, a, b, f, nl, nl],
            vec![a, b, e, nl, nl, nl],
            vec![a, b, f, nl, nl, nl],
        ]);
        assert_eq!(tables.lambda(&lt).map(sorted), Ok(expected_minus));
    }

    #[test]
    fn single_rename_roundtrip_through_u() {
        // δ(T_j, REN) transformed by U must equal δ(T_i, REN back) computed
        // on the old tree directly.
        let (t2, mut lt, n, _, _) = example5();
        let params = PQParams::new(3, 3);
        let z = lt.intern("z");
        // Forward op: rename n5 (e) to z. T_j = renamed tree.
        let mut tj = t2.clone();
        let rev = tj
            .apply(EditOp::Rename {
                node: n[4],
                label: z,
            })
            .unwrap();

        let mut tables = DeltaTables::new();
        accumulate_delta(&mut tables, &tj, &LogOp::new(rev, None), params).unwrap();
        apply_update(&mut tables, rev, params).unwrap();
        tables.validate().unwrap();

        let mut expected = DeltaTables::new();
        // On T_i (= t2), the grams δ(T_i, forward REN) are those containing
        // n5 with its old label.
        accumulate_delta(
            &mut expected,
            &t2,
            &LogOp::new(
                EditOp::Rename {
                    node: n[4],
                    label: z,
                },
                None,
            ),
            params,
        )
        .unwrap();
        assert_eq!(
            tables.lambda(&lt).map(sorted),
            expected.lambda(&lt).map(sorted)
        );
    }

    #[test]
    fn update_errors_on_foreign_log() {
        // A log entry that references a node the tables know nothing about
        // must surface as an error, not corrupt memory.
        let (_t2, mut lt, _n, _, _) = example5();
        let params = PQParams::new(3, 3);
        let mut tables = DeltaTables::new();
        let ghost = NodeId::from_index(77);
        let err = apply_update(&mut tables, EditOp::Delete { node: ghost }, params).unwrap_err();
        assert_eq!(err, TableError::MissingPEntry(ghost));
        let z = lt.intern("z");
        let err = apply_update(
            &mut tables,
            EditOp::Rename {
                node: ghost,
                label: z,
            },
            params,
        )
        .unwrap_err();
        assert_eq!(err, TableError::MissingPEntry(ghost));
    }
}
