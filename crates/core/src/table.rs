//! The `(P, Q)` table pair that stores delta pq-grams (Section 8.1).
//!
//! Delta sets can contain thousands of pq-grams whose p-parts and q-matrix
//! rows overlap heavily; the paper therefore stores them structure-shared:
//!
//! * `P` holds, per anchor node `n`, the tuple `(n, sibPos, parId, ppart)` —
//!   the single p-part shared by all of `n`'s pq-grams plus the structural
//!   bookkeeping (`n` is the `sibPos`-th child of `parId`) the update
//!   function needs;
//! * `Q` holds q-matrix rows `(n, row, qpart)`.
//!
//! A pq-gram is reconstructed by joining `P` and `Q` on the anchor
//! (`λ(P, Q) = π_{ppart ∘ qpart}[P ⋈ Q]`, Equation 31). Duplicates are
//! prevented on insert, matching the set semantics of profiles; conflicting
//! re-insertions (same key, different content) are reported as errors since
//! they indicate a corrupted log.

use crate::gram::label_tuple_fingerprint;
use crate::index::GramKey;
use crate::matrix::QRow;
use pqgram_tree::{FxHashMap, LabelSym, LabelTable, NodeId};
use std::collections::BTreeMap;

/// A `P`-table entry: the p-part of one anchor plus structural bookkeeping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PEntry {
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// 1-based sibling position (`0` for the root).
    pub sib_pos: u32,
    /// The p-part labels `(a_{p−1}, …, a_1, anchor)`, null-padded.
    pub ppart: Vec<LabelSym>,
}

/// The `(P, Q)` table pair.
#[derive(Clone, Default, Debug)]
pub struct DeltaTables {
    p: FxHashMap<NodeId, PEntry>,
    /// Secondary index: parent → anchors in `P` (unordered).
    children: FxHashMap<NodeId, Vec<NodeId>>,
    q: FxHashMap<NodeId, BTreeMap<u32, QRow>>,
}

/// Inconsistency detected while manipulating the tables — always indicates
/// that the log does not match the tree/index it is applied to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// Re-insert of an anchor with different content.
    ConflictingPEntry(NodeId),
    /// Re-insert of a q-row with different content.
    ConflictingQRow(NodeId, u32),
    /// The update function needed an entry the tables do not contain.
    MissingPEntry(NodeId),
    /// The update function needed q-rows the tables do not contain.
    MissingQRows(NodeId, u32, u32),
    /// A log entry asserted a structural fact the tree contradicts (e.g. an
    /// insert without its anchor, or a node whose recorded adjacency is
    /// gone). Reachable from untrusted edit logs, so it is an error — never
    /// a panic.
    Inconsistency(NodeId, &'static str),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::ConflictingPEntry(n) => write!(f, "conflicting P entry for {n:?}"),
            TableError::ConflictingQRow(n, r) => write!(f, "conflicting Q row {r} for {n:?}"),
            TableError::MissingPEntry(n) => write!(f, "missing P entry for {n:?}"),
            TableError::MissingQRows(n, k, m) => {
                write!(f, "missing Q rows {k}..={m} for {n:?}")
            }
            TableError::Inconsistency(n, what) => {
                write!(f, "log/tree inconsistency at {n:?}: {what}")
            }
        }
    }
}

impl std::error::Error for TableError {}

impl DeltaTables {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no pq-gram is stored.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Number of stored p-parts.
    pub fn p_len(&self) -> usize {
        self.p.len()
    }

    /// Number of stored q-rows (= number of stored pq-grams).
    pub fn q_len(&self) -> usize {
        self.q.values().map(BTreeMap::len).sum()
    }

    /// Looks up the p-part of an anchor.
    pub fn p_entry(&self, anchor: NodeId) -> Option<&PEntry> {
        self.p.get(&anchor)
    }

    /// Looks up the p-part of an anchor, erroring if absent.
    pub fn p_entry_required(&self, anchor: NodeId) -> Result<&PEntry, TableError> {
        self.p.get(&anchor).ok_or(TableError::MissingPEntry(anchor))
    }

    /// Anchors recorded in `P` whose parent is `parent` (arbitrary order).
    pub fn children_in_p(&self, parent: NodeId) -> &[NodeId] {
        self.children.get(&parent).map_or(&[], Vec::as_slice)
    }

    /// Inserts a p-part; duplicate identical inserts are no-ops.
    pub fn insert_p(&mut self, anchor: NodeId, entry: PEntry) -> Result<(), TableError> {
        if let Some(existing) = self.p.get(&anchor) {
            if *existing == entry {
                return Ok(());
            }
            return Err(TableError::ConflictingPEntry(anchor));
        }
        if let Some(parent) = entry.parent {
            self.children.entry(parent).or_default().push(anchor);
        }
        self.p.insert(anchor, entry);
        Ok(())
    }

    /// Removes an anchor's p-part (and its `children` index entry).
    pub fn remove_p(&mut self, anchor: NodeId) -> Option<PEntry> {
        let entry = self.p.remove(&anchor)?;
        if let Some(parent) = entry.parent {
            if let Some(list) = self.children.get_mut(&parent) {
                list.retain(|&c| c != anchor);
                if list.is_empty() {
                    self.children.remove(&parent);
                }
            }
        }
        Some(entry)
    }

    /// Overwrites the ppart labels of an existing anchor.
    pub fn set_ppart(&mut self, anchor: NodeId, ppart: Vec<LabelSym>) -> Result<(), TableError> {
        let entry = self
            .p
            .get_mut(&anchor)
            .ok_or(TableError::MissingPEntry(anchor))?;
        entry.ppart = ppart;
        Ok(())
    }

    /// Re-parents / repositions an existing anchor, keeping the `children`
    /// index consistent.
    pub fn set_parent_pos(
        &mut self,
        anchor: NodeId,
        parent: Option<NodeId>,
        sib_pos: u32,
    ) -> Result<(), TableError> {
        let entry = self
            .p
            .get_mut(&anchor)
            .ok_or(TableError::MissingPEntry(anchor))?;
        let old_parent = entry.parent;
        entry.parent = parent;
        entry.sib_pos = sib_pos;
        if old_parent != parent {
            if let Some(op) = old_parent {
                if let Some(list) = self.children.get_mut(&op) {
                    list.retain(|&c| c != anchor);
                    if list.is_empty() {
                        self.children.remove(&op);
                    }
                }
            }
            if let Some(np) = parent {
                self.children.entry(np).or_default().push(anchor);
            }
        }
        Ok(())
    }

    /// Inserts one q-row; duplicate identical inserts are no-ops.
    pub fn insert_q_row(&mut self, anchor: NodeId, row: u32, qrow: QRow) -> Result<(), TableError> {
        let rows = self.q.entry(anchor).or_default();
        if let Some(existing) = rows.get(&row) {
            if *existing == qrow {
                return Ok(());
            }
            return Err(TableError::ConflictingQRow(anchor, row));
        }
        rows.insert(row, qrow);
        Ok(())
    }

    /// The stored rows of one anchor (row number → row), if any.
    pub fn q_rows(&self, anchor: NodeId) -> Option<&BTreeMap<u32, QRow>> {
        self.q.get(&anchor)
    }

    /// Extracts (removes) the contiguous rows `k ..= last` of `anchor`,
    /// erroring unless all of them are present.
    pub fn take_q_range(
        &mut self,
        anchor: NodeId,
        k: u32,
        last: u32,
    ) -> Result<Vec<QRow>, TableError> {
        let rows = self
            .q
            .get_mut(&anchor)
            .ok_or(TableError::MissingQRows(anchor, k, last))?;
        let mut out = Vec::with_capacity((last - k + 1) as usize);
        for r in k..=last {
            match rows.remove(&r) {
                Some(row) => out.push(row),
                None => return Err(TableError::MissingQRows(anchor, k, last)),
            }
        }
        if rows.is_empty() {
            self.q.remove(&anchor);
        }
        Ok(out)
    }

    /// Removes *all* rows of an anchor, returning them ascending by row
    /// number (empty if none stored).
    pub fn take_q_all(&mut self, anchor: NodeId) -> Vec<(u32, QRow)> {
        self.q
            .remove(&anchor)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default()
    }

    /// Shifts the row numbers of all stored rows of `anchor` strictly above
    /// `after` by `delta` (used when an edit grows/shrinks a child list).
    pub fn shift_q_rows(&mut self, anchor: NodeId, after: u32, delta: i64) {
        if delta == 0 {
            return;
        }
        let Some(rows) = self.q.get_mut(&anchor) else {
            return;
        };
        for (r, qrow) in rows.split_off(&(after + 1)) {
            let new_row = (i64::from(r) + delta) as u32;
            let prev = rows.insert(new_row, qrow);
            debug_assert!(prev.is_none(), "row shift collided at {new_row}");
        }
    }

    /// Shifts `sib_pos` of every `P` anchor whose parent is `parent` and
    /// whose position is strictly greater than `after` by `delta`.
    pub fn shift_sib_pos(
        &mut self,
        parent: NodeId,
        after: u32,
        delta: i64,
    ) -> Result<(), TableError> {
        if delta == 0 {
            return Ok(());
        }
        let Some(anchors) = self.children.get(&parent) else {
            return Ok(());
        };
        for anchor in anchors {
            let entry = self
                .p
                .get_mut(anchor)
                .ok_or(TableError::MissingPEntry(*anchor))?;
            if entry.sib_pos > after {
                entry.sib_pos = (i64::from(entry.sib_pos) + delta) as u32;
            }
        }
        Ok(())
    }

    /// Enumerates the stored pq-grams as `(anchor, row, label-tuple)` —
    /// the join `P ⋈ Q` of Equation 31. A `Q` anchor without its `P` entry
    /// (tables out of sync) yields [`TableError::MissingPEntry`].
    pub fn enumerate(
        &self,
    ) -> impl Iterator<Item = Result<(NodeId, u32, Vec<LabelSym>), TableError>> + '_ {
        self.q.iter().flat_map(move |(&anchor, rows)| {
            let entry = self.p_entry_required(anchor);
            rows.iter().map(move |(&row, qrow)| {
                let ppart = &entry.clone()?.ppart;
                let mut tuple = Vec::with_capacity(ppart.len() + qrow.len());
                tuple.extend_from_slice(ppart);
                tuple.extend_from_slice(qrow);
                Ok((anchor, row, tuple))
            })
        })
    }

    /// `λ(P, Q)`: the bag of label-tuple fingerprints of the stored
    /// pq-grams (Equation 31).
    pub fn lambda(&self, labels: &LabelTable) -> Result<Vec<GramKey>, TableError> {
        self.enumerate()
            .map(|gram| gram.map(|(_, _, tuple)| label_tuple_fingerprint(tuple, labels)))
            .collect()
    }

    /// Structural invariant audit of the table pair. Checks, in order:
    ///
    /// * the `children` secondary index agrees with `P` in both directions
    ///   (every indexed anchor has a matching `P` entry; every parented
    ///   `P` entry is indexed) — the shared-p-part reference counts;
    /// * `children` lists hold no duplicates and no stale empty lists
    ///   survive;
    /// * every `Q` anchor joins to a `P` entry and holds at least one row
    ///   (P/Q row correspondence, Equation 31);
    /// * all stored p-parts have one common width and all q-rows another
    ///   (a mixed-parameter table cannot arise from one `PQParams`).
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (&parent, list) in &self.children {
            if list.is_empty() {
                return Err(format!("stale empty children list for {parent:?}"));
            }
            let mut dedup = list.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != list.len() {
                return Err(format!("duplicate children index entries under {parent:?}"));
            }
            for &anchor in list {
                match self.p.get(&anchor) {
                    Some(e) if e.parent == Some(parent) => {}
                    other => return Err(format!("children index stale: {anchor:?} -> {other:?}")),
                }
            }
        }
        for (&anchor, entry) in &self.p {
            if let Some(parent) = entry.parent {
                if !self
                    .children
                    .get(&parent)
                    .is_some_and(|l| l.contains(&anchor))
                {
                    return Err(format!("missing children index entry for {anchor:?}"));
                }
            }
        }
        for (&anchor, rows) in &self.q {
            if !self.p.contains_key(&anchor) {
                return Err(format!("Q rows without P entry for {anchor:?}"));
            }
            if rows.is_empty() {
                return Err(format!("stale empty Q row map for {anchor:?}"));
            }
        }
        let mut ppart_width: Option<usize> = None;
        for (&anchor, entry) in &self.p {
            match ppart_width {
                None => ppart_width = Some(entry.ppart.len()),
                Some(w) if w == entry.ppart.len() => {}
                Some(w) => {
                    return Err(format!(
                        "p-part width {} for {anchor:?}, other entries have {w}",
                        entry.ppart.len()
                    ))
                }
            }
        }
        let mut qrow_width: Option<usize> = None;
        for (&anchor, rows) in &self.q {
            for (&row, qrow) in rows {
                match qrow_width {
                    None => qrow_width = Some(qrow.len()),
                    Some(w) if w == qrow.len() => {}
                    Some(w) => {
                        return Err(format!(
                            "q-row width {} at ({anchor:?}, {row}), other rows have {w}",
                            qrow.len()
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::LabelTable;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn entry(lt: &mut LabelTable, parent: Option<usize>, pos: u32, labels: &[&str]) -> PEntry {
        PEntry {
            parent: parent.map(nid),
            sib_pos: pos,
            ppart: labels
                .iter()
                .map(|l| {
                    if *l == "*" {
                        LabelSym::NULL
                    } else {
                        lt.intern(l)
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn p_insert_is_idempotent_and_conflicts_detected() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let e = entry(&mut lt, Some(0), 1, &["*", "a", "b"]);
        t.insert_p(nid(1), e.clone()).unwrap();
        t.insert_p(nid(1), e).unwrap(); // identical: fine
        let different = entry(&mut lt, Some(0), 2, &["*", "a", "b"]);
        assert_eq!(
            t.insert_p(nid(1), different),
            Err(TableError::ConflictingPEntry(nid(1)))
        );
        t.validate().unwrap();
    }

    #[test]
    fn children_index_tracks_mutations() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        t.insert_p(nid(1), entry(&mut lt, Some(0), 1, &["a", "b"]))
            .unwrap();
        t.insert_p(nid(2), entry(&mut lt, Some(0), 2, &["a", "c"]))
            .unwrap();
        assert_eq!(t.children_in_p(nid(0)).len(), 2);
        t.set_parent_pos(nid(2), Some(nid(1)), 1).unwrap();
        assert_eq!(t.children_in_p(nid(0)), &[nid(1)]);
        assert_eq!(t.children_in_p(nid(1)), &[nid(2)]);
        t.remove_p(nid(2));
        assert!(t.children_in_p(nid(1)).is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn q_rows_roundtrip_and_conflicts() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let x = lt.intern("x");
        let row = vec![x, LabelSym::NULL];
        t.insert_q_row(nid(1), 1, row.clone()).unwrap();
        t.insert_q_row(nid(1), 1, row.clone()).unwrap();
        assert_eq!(
            t.insert_q_row(nid(1), 1, vec![LabelSym::NULL, x]),
            Err(TableError::ConflictingQRow(nid(1), 1))
        );
        assert_eq!(t.q_len(), 1);
        let got = t.take_q_range(nid(1), 1, 1).unwrap();
        assert_eq!(got, vec![row]);
        assert!(t.is_empty());
    }

    #[test]
    fn take_q_range_requires_contiguity() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let x = lt.intern("x");
        t.insert_q_row(nid(1), 1, vec![x]).unwrap();
        t.insert_q_row(nid(1), 3, vec![x]).unwrap();
        assert!(matches!(
            t.take_q_range(nid(1), 1, 3),
            Err(TableError::MissingQRows(..))
        ));
    }

    #[test]
    fn shift_q_rows_moves_only_later_rows() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let x = lt.intern("x");
        for r in [1u32, 2, 5, 6] {
            t.insert_q_row(nid(1), r, vec![lt.intern(&format!("r{r}")), x])
                .unwrap();
        }
        t.shift_q_rows(nid(1), 2, 3);
        let rows: Vec<u32> = t.q_rows(nid(1)).unwrap().keys().copied().collect();
        assert_eq!(rows, vec![1, 2, 8, 9]);
        t.shift_q_rows(nid(1), 2, -3);
        let rows: Vec<u32> = t.q_rows(nid(1)).unwrap().keys().copied().collect();
        assert_eq!(rows, vec![1, 2, 5, 6]);
    }

    #[test]
    fn shift_sib_pos_moves_only_later_siblings() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        for (i, pos) in [(1usize, 1u32), (2, 2), (3, 4)] {
            t.insert_p(nid(i), entry(&mut lt, Some(0), pos, &["a", "x"]))
                .unwrap();
        }
        assert_eq!(t.shift_sib_pos(nid(0), 1, 1), Ok(()));
        assert_eq!(t.p_entry(nid(1)).unwrap().sib_pos, 1);
        assert_eq!(t.p_entry(nid(2)).unwrap().sib_pos, 3);
        assert_eq!(t.p_entry(nid(3)).unwrap().sib_pos, 5);
    }

    #[test]
    fn out_of_sync_tables_are_errors_not_panics() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        // A q-row whose anchor never got its p-part: the join has no left side.
        assert_eq!(t.insert_q_row(nid(7), 1, vec![lt.intern("x")]), Ok(()));
        assert_eq!(t.lambda(&lt), Err(TableError::MissingPEntry(nid(7))));
        assert!(t.enumerate().all(|gram| gram.is_err()));
        // A children-index entry whose anchor left P behind its back.
        let orphan = entry(&mut lt, Some(0), 2, &["a", "x"]);
        assert_eq!(t.insert_p(nid(1), orphan), Ok(()));
        t.p.remove(&nid(1));
        assert_eq!(
            t.shift_sib_pos(nid(0), 1, 1),
            Err(TableError::MissingPEntry(nid(1)))
        );
    }

    #[test]
    fn lambda_joins_p_and_q() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let (a, b, c) = (lt.intern("a"), lt.intern("b"), lt.intern("c"));
        t.insert_p(
            nid(1),
            PEntry {
                parent: None,
                sib_pos: 0,
                ppart: vec![LabelSym::NULL, a],
            },
        )
        .unwrap();
        t.insert_q_row(nid(1), 1, vec![LabelSym::NULL, b]).unwrap();
        t.insert_q_row(nid(1), 2, vec![b, c]).unwrap();
        let mut expected = vec![
            label_tuple_fingerprint([LabelSym::NULL, a, LabelSym::NULL, b], &lt),
            label_tuple_fingerprint([LabelSym::NULL, a, b, c], &lt),
        ];
        expected.sort_unstable();
        let grams = t.lambda(&lt).map(|mut grams| {
            grams.sort_unstable();
            grams
        });
        assert_eq!(grams, Ok(expected));
        t.validate().unwrap();
    }

    fn corrupt_message(r: Result<(), String>) -> String {
        match r {
            Err(m) => m,
            Ok(()) => panic!("expected validate() to report corruption"),
        }
    }

    #[test]
    fn validate_reports_stale_children_index() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        t.insert_p(nid(1), entry(&mut lt, Some(0), 1, &["a", "b"]))
            .unwrap();
        // An anchor indexed under nid(0) without a matching P entry.
        if let Some(list) = t.children.get_mut(&nid(0)) {
            list.push(nid(9));
        }
        let m = corrupt_message(t.validate());
        assert!(m.contains("children index stale"), "got: {m}");
    }

    #[test]
    fn validate_reports_duplicate_children_entries() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        t.insert_p(nid(1), entry(&mut lt, Some(0), 1, &["a", "b"]))
            .unwrap();
        if let Some(list) = t.children.get_mut(&nid(0)) {
            list.push(nid(1));
        }
        let m = corrupt_message(t.validate());
        assert!(m.contains("duplicate children index entries"), "got: {m}");
    }

    #[test]
    fn validate_reports_missing_children_entry() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        t.insert_p(nid(1), entry(&mut lt, Some(0), 1, &["a", "b"]))
            .unwrap();
        // Drop the secondary index while the parented P entry survives.
        t.children.remove(&nid(0));
        let m = corrupt_message(t.validate());
        assert!(m.contains("missing children index entry"), "got: {m}");
    }

    #[test]
    fn validate_reports_orphan_q_rows_and_stale_maps() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        let x = lt.intern("x");
        // Q rows for an anchor that has no P entry.
        t.q.entry(nid(3)).or_default().insert(1, vec![x]);
        let m = corrupt_message(t.validate());
        assert!(m.contains("Q rows without P entry"), "got: {m}");

        let mut t = DeltaTables::new();
        t.insert_p(nid(3), entry(&mut lt, None, 0, &["*", "a"]))
            .unwrap();
        t.q.entry(nid(3)).or_default();
        let m = corrupt_message(t.validate());
        assert!(m.contains("stale empty Q row map"), "got: {m}");
    }

    #[test]
    fn validate_reports_mixed_widths() {
        let mut lt = LabelTable::new();
        let mut t = DeltaTables::new();
        t.insert_p(nid(1), entry(&mut lt, None, 0, &["*", "a"]))
            .unwrap();
        t.insert_p(nid(2), entry(&mut lt, Some(1), 1, &["a", "b", "c"]))
            .unwrap();
        let m = corrupt_message(t.validate());
        assert!(m.contains("p-part width"), "got: {m}");

        let mut t = DeltaTables::new();
        let x = lt.intern("x");
        t.insert_p(nid(1), entry(&mut lt, None, 0, &["*", "a"]))
            .unwrap();
        t.insert_q_row(nid(1), 1, vec![x, x]).unwrap();
        t.insert_q_row(nid(1), 2, vec![x]).unwrap();
        let m = corrupt_message(t.validate());
        assert!(m.contains("q-row width"), "got: {m}");
    }
}
