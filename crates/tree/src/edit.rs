//! Tree edit operations and edit logs (Section 3.1).
//!
//! The three standard node edit operations of Zhang & Shasha transform a tree
//! `Tᵢ` into `Tⱼ`:
//!
//! * `INS(n, v, k, m)` — insert node `n` as the k-th child of `v`,
//!   substituting children `c_k..c_m` of `v` which become children of `n`
//!   (with `m = k − 1` the insert is a leaf insert);
//! * `DEL(n)` — delete `n`, splicing its children into its parent's child
//!   list at `n`'s position;
//! * `REN(n, l′)` — change the label of `n` to `l′ ≠ l`.
//!
//! Every application returns the **inverse** operation, so that recording a
//! sequence of forward edits yields the *log* `L = (ē₁, …, ēₙ)` of inverse
//! operations the incremental index maintenance consumes.

use crate::label::LabelSym;
use crate::tree::{NodeId, Tree};
use std::fmt;

/// A tree edit operation (forward or inverse — the set is closed under
/// inversion).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EditOp {
    /// `INS(n, v, k, m)`: insert `node` with `label` as the k-th child of
    /// `parent`, adopting the former children `k..=m` (1-based, inclusive;
    /// `m == k - 1` inserts a leaf).
    Insert {
        /// The node being created (must not be live in the tree).
        node: NodeId,
        /// Its label.
        label: LabelSym,
        /// The parent gaining the node.
        parent: NodeId,
        /// 1-based insertion position among the parent's children.
        k: usize,
        /// Last adopted child position (`k − 1` for a leaf insert).
        m: usize,
    },
    /// `DEL(n)`: delete `node`, promoting its children.
    Delete {
        /// The node being removed.
        node: NodeId,
    },
    /// `REN(n, l')`: relabel `node` to `label`.
    Rename {
        /// The node being relabeled.
        node: NodeId,
        /// The new label (must differ from the current one).
        label: LabelSym,
    },
}

impl EditOp {
    /// The node this operation creates, removes or relabels.
    pub fn target(&self) -> NodeId {
        match *self {
            EditOp::Insert { node, .. } | EditOp::Delete { node } | EditOp::Rename { node, .. } => {
                node
            }
        }
    }
}

/// Why an edit operation cannot be applied to a given tree.
///
/// Definition 4 of the paper makes the delta function total by mapping
/// non-applicable operations to the empty set, so this error doubles as the
/// "otherwise" branch of that definition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EditError {
    /// Referenced node does not exist (or is dead) in the tree.
    MissingNode(NodeId),
    /// Insert of a node id that is already live in the tree.
    NodeExists(NodeId),
    /// The paper assumes the root node is never edited.
    RootEdit,
    /// Child range `k..=m` invalid for the parent's fanout.
    BadRange {
        /// Requested first adopted position.
        k: usize,
        /// Requested last adopted position.
        m: usize,
        /// The parent's actual fanout.
        fanout: usize,
    },
    /// Rename to the label the node already has (`l ≠ l'` is required).
    SameLabel,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditError::MissingNode(n) => write!(f, "node {n:?} does not exist in the tree"),
            EditError::NodeExists(n) => write!(f, "node {n:?} already exists in the tree"),
            EditError::RootEdit => write!(f, "the root node must not be edited"),
            EditError::BadRange { k, m, fanout } => {
                write!(f, "child range {k}..={m} invalid for fanout {fanout}")
            }
            EditError::SameLabel => write!(f, "rename requires a different label"),
        }
    }
}

impl std::error::Error for EditError {}

/// Identity anchor of a logged `INS` operation.
///
/// A log entry `INS(n, v, k, m)` is *defined on* one intermediate tree
/// version; when the delta function later evaluates it on the final tree
/// `Tₙ` (Section 6), sibling positions under `v` may have shifted, so the
/// positional range `k..=m` alone would re-bind to different children. The
/// paper's Lemma 1/Lemma 3 treat `C = {c_k, …, c_m}` as a fixed *node set*
/// (nodes are (id, label) pairs); the anchor records that identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertAnchor {
    /// Non-leaf insert: the exact children the node adopts, in order.
    Adopted(Box<[NodeId]>),
    /// Leaf insert: the neighboring siblings of the insertion gap
    /// (`None` at the ends of the child list).
    Gap {
        /// Sibling immediately left of the gap.
        pred: Option<NodeId>,
        /// Sibling immediately right of the gap.
        succ: Option<NodeId>,
    },
}

/// One log entry: an inverse edit operation plus, for inserts, the identity
/// anchor captured when the entry was recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogOp {
    /// The inverse edit operation (positional form, valid on the tree
    /// version it was recorded against).
    pub op: EditOp,
    /// Identity anchor; always `Some` for `Insert`, `None` otherwise.
    pub anchor: Option<InsertAnchor>,
}

impl LogOp {
    /// Wraps an operation with its anchor. `Insert` entries require an
    /// anchor; `Delete`/`Rename` must not carry one.
    pub fn new(op: EditOp, anchor: Option<InsertAnchor>) -> Self {
        match op {
            EditOp::Insert { .. } => {
                assert!(anchor.is_some(), "logged inserts need an identity anchor")
            }
            _ => assert!(anchor.is_none(), "only inserts carry an anchor"),
        }
        LogOp { op, anchor }
    }
}

/// A log of inverse edit operations `(ē₁, …, ēₙ)`.
///
/// Entry `i` (0-based `i-1`) undoes forward edit `eᵢ`; applying the entries
/// **in reverse order** to `Tₙ` reconstructs `T₀`. Build entries with
/// [`Tree::apply_logged`], which captures the insert anchors.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct EditLog {
    ops: Vec<LogOp>,
}

impl EditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the inverse of the forward edit that was just applied.
    pub fn push(&mut self, inverse: LogOp) {
        self.ops.push(inverse);
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The inverse operations `ē₁, …, ēₙ` in log order.
    pub fn ops(&self) -> &[LogOp] {
        &self.ops
    }

    /// Applies the whole log to `tree` (in reverse order), rewinding `Tₙ`
    /// back to `T₀`.
    pub fn rewind(&self, tree: &mut Tree) -> Result<(), EditError> {
        for entry in self.ops.iter().rev() {
            apply(tree, entry.op)?;
        }
        Ok(())
    }
}

impl FromIterator<LogOp> for EditLog {
    fn from_iter<I: IntoIterator<Item = LogOp>>(iter: I) -> Self {
        EditLog {
            ops: iter.into_iter().collect(),
        }
    }
}

/// Checks whether `op` is applicable to `tree` — the "∃ Tᵢ : Tᵢ = ē(Tⱼ)"
/// condition of Definition 4.
pub fn check(tree: &Tree, op: EditOp) -> Result<(), EditError> {
    match op {
        EditOp::Insert {
            node, parent, k, m, ..
        } => {
            if tree.contains(node) {
                return Err(EditError::NodeExists(node));
            }
            if !tree.contains(parent) {
                return Err(EditError::MissingNode(parent));
            }
            let f = tree.fanout(parent);
            // 1 <= k, k - 1 <= m <= f  (m = k - 1 means leaf insert).
            if k < 1 || k > f + 1 || m + 1 < k || m > f {
                return Err(EditError::BadRange { k, m, fanout: f });
            }
            Ok(())
        }
        EditOp::Delete { node } => {
            if !tree.contains(node) {
                return Err(EditError::MissingNode(node));
            }
            if node == tree.root() {
                return Err(EditError::RootEdit);
            }
            Ok(())
        }
        EditOp::Rename { node, label } => {
            if !tree.contains(node) {
                return Err(EditError::MissingNode(node));
            }
            if tree.label(node) == label {
                return Err(EditError::SameLabel);
            }
            Ok(())
        }
    }
}

/// Applies `op` to `tree`, returning the inverse operation.
///
/// * inverse of `INS(n, v, k, m)` is `DEL(n)`;
/// * inverse of `DEL(n)` is `INS(n, v, k, k + f_n − 1)` where `n` was the
///   k-th child of `v` with fanout `f_n`;
/// * inverse of `REN(n, l′)` is `REN(n, l)`.
pub fn apply(tree: &mut Tree, op: EditOp) -> Result<EditOp, EditError> {
    check(tree, op)?;
    Ok(match op {
        EditOp::Insert {
            node,
            label,
            parent,
            k,
            m,
        } => {
            tree.insert_node(node, label, parent, k, m);
            EditOp::Delete { node }
        }
        EditOp::Delete { node } => {
            let parent = tree.parent(node).ok_or(EditError::RootEdit)?;
            let k = tree.sibling_pos(node).ok_or(EditError::RootEdit)?;
            let f = tree.fanout(node);
            let label = tree.label(node);
            tree.delete_node(node, parent);
            EditOp::Insert {
                node,
                label,
                parent,
                k,
                m: k + f - 1,
            }
        }
        EditOp::Rename { node, label } => {
            let old = tree.label(node);
            tree.set_label(node, label);
            EditOp::Rename { node, label: old }
        }
    })
}

impl Tree {
    /// Applies an edit operation, returning its inverse. See [`apply`].
    pub fn apply(&mut self, op: EditOp) -> Result<EditOp, EditError> {
        apply(self, op)
    }

    /// Applies an edit operation and returns a *log entry* for its inverse:
    /// the inverse operation plus, when the inverse is an insert, the
    /// identity anchor ([`InsertAnchor`]) the incremental index maintenance
    /// needs to evaluate the entry on a different tree version.
    pub fn apply_logged(&mut self, op: EditOp) -> Result<LogOp, EditError> {
        check(self, op)?;
        let anchor = match op {
            EditOp::Delete { node } => {
                // Inverse is INS(node, v, k, m): it re-adopts node's current
                // children, or — if node is a leaf — re-enters the gap
                // between node's current neighbors.
                let children = self.children(node);
                if children.is_empty() {
                    let parent = self.parent(node).ok_or(EditError::RootEdit)?;
                    let siblings = self.children(parent);
                    let pos = self.sibling_pos(node).ok_or(EditError::RootEdit)?;
                    Some(InsertAnchor::Gap {
                        pred: (pos > 1).then(|| siblings[pos - 2]),
                        succ: siblings.get(pos).copied(),
                    })
                } else {
                    Some(InsertAnchor::Adopted(children.into()))
                }
            }
            EditOp::Insert { .. } | EditOp::Rename { .. } => None,
        };
        let inverse = apply(self, op)?;
        Ok(LogOp {
            op: inverse,
            anchor,
        })
    }

    /// Checks applicability without mutating. See [`check`].
    pub fn check_edit(&self, op: EditOp) -> Result<(), EditError> {
        check(self, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelTable;

    /// Builds the tree T0 = a(b c(e f) d) of Figure 2.
    fn figure2_t0() -> (Tree, LabelTable, Vec<NodeId>) {
        let mut lt = LabelTable::new();
        let syms: Vec<_> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|s| lt.intern(s))
            .collect();
        let mut t = Tree::with_root(syms[0]);
        let n1 = t.root();
        let n2 = t.add_child(n1, syms[1]);
        let n3 = t.add_child(n1, syms[2]);
        let n4 = t.add_child(n1, syms[3]);
        let n5 = t.add_child(n3, syms[4]);
        let n6 = t.add_child(n3, syms[5]);
        (t, lt, vec![n1, n2, n3, n4, n5, n6])
    }

    #[test]
    fn figure2_sequence() {
        // Figure 2: T0 --e1=INS((n7,g),n6,1,0)--> T1 --e2=DEL(n3)--> T2
        //              --e3=REN(n2,s)--> T3
        let (mut t, mut lt, n) = figure2_t0();
        let g = lt.intern("g");
        let s = lt.intern("s");
        let n7 = t.next_node_id();

        let i1 = t
            .apply(EditOp::Insert {
                node: n7,
                label: g,
                parent: n[5],
                k: 1,
                m: 0,
            })
            .unwrap();
        assert_eq!(i1, EditOp::Delete { node: n7 });
        assert_eq!(t.children(n[5]), &[n7]);

        let old_c = t.label(n[2]);
        let i2 = t.apply(EditOp::Delete { node: n[2] }).unwrap();
        // n3 was 2nd child of n1 with fanout 2 -> INS(n3, n1, 2, 3)
        assert_eq!(
            i2,
            EditOp::Insert {
                node: n[2],
                label: old_c,
                parent: n[0],
                k: 2,
                m: 3
            }
        );
        assert_eq!(t.children(n[0]), &[n[1], n[4], n[5], n[3]]);

        let i3 = t
            .apply(EditOp::Rename {
                node: n[1],
                label: s,
            })
            .unwrap();
        assert_eq!(
            i3,
            EditOp::Rename {
                node: n[1],
                label: lt.lookup("b").unwrap()
            }
        );

        // Rewind the log and recover T0 exactly (identity-aware equality).
        let (orig, _, _) = figure2_t0();
        let log: EditLog = [
            LogOp::new(i1, None),
            LogOp::new(i2, Some(InsertAnchor::Adopted([n[4], n[5]].into()))),
            LogOp::new(i3, None),
        ]
        .into_iter()
        .collect();
        log.rewind(&mut t).unwrap();
        assert_eq!(t, orig);
    }

    #[test]
    fn insert_rejects_live_node() {
        let (mut t, mut lt, n) = figure2_t0();
        let x = lt.intern("x");
        let err = t
            .apply(EditOp::Insert {
                node: n[1],
                label: x,
                parent: n[0],
                k: 1,
                m: 0,
            })
            .unwrap_err();
        assert_eq!(err, EditError::NodeExists(n[1]));
    }

    #[test]
    fn insert_rejects_bad_ranges() {
        let (mut t, mut lt, n) = figure2_t0();
        let x = lt.intern("x");
        let id = t.next_node_id();
        for (k, m) in [(0, 0), (5, 4), (1, 4), (3, 1)] {
            let err = t
                .apply(EditOp::Insert {
                    node: id,
                    label: x,
                    parent: n[0],
                    k,
                    m,
                })
                .unwrap_err();
            assert!(
                matches!(err, EditError::BadRange { .. }),
                "k={k} m={m}: {err:?}"
            );
        }
        // Full adoption of all 3 children is fine.
        t.apply(EditOp::Insert {
            node: id,
            label: x,
            parent: n[0],
            k: 1,
            m: 3,
        })
        .unwrap();
        assert_eq!(t.children(n[0]), &[id]);
    }

    #[test]
    fn delete_rejects_root_and_missing() {
        let (mut t, _, n) = figure2_t0();
        assert_eq!(
            t.apply(EditOp::Delete { node: n[0] }).unwrap_err(),
            EditError::RootEdit
        );
        let ghost = NodeId::from_index(99);
        assert_eq!(
            t.apply(EditOp::Delete { node: ghost }).unwrap_err(),
            EditError::MissingNode(ghost)
        );
    }

    #[test]
    fn rename_rejects_same_label() {
        let (mut t, _, n) = figure2_t0();
        let cur = t.label(n[1]);
        assert_eq!(
            t.apply(EditOp::Rename {
                node: n[1],
                label: cur
            })
            .unwrap_err(),
            EditError::SameLabel
        );
    }

    #[test]
    fn double_inverse_is_identity() {
        let (mut t, mut lt, n) = figure2_t0();
        let orig = t.clone();
        let x = lt.intern("x");
        let ops = [
            EditOp::Insert {
                node: t.next_node_id(),
                label: x,
                parent: n[2],
                k: 1,
                m: 2,
            },
            EditOp::Rename {
                node: n[3],
                label: x,
            },
            EditOp::Delete { node: n[1] },
        ];
        let mut inverses = Vec::new();
        for op in ops {
            inverses.push(t.apply(op).unwrap());
        }
        for inv in inverses.into_iter().rev() {
            t.apply(inv).unwrap();
        }
        assert_eq!(t, orig);
        t.validate().unwrap();
    }

    #[test]
    fn delete_then_inverse_restores_adopted_children() {
        let (mut t, _, n) = figure2_t0();
        let orig = t.clone();
        let inv = t.apply(EditOp::Delete { node: n[2] }).unwrap();
        assert_eq!(t.node_count(), 5);
        t.apply(inv).unwrap();
        assert_eq!(t, orig);
    }

    #[test]
    fn log_rewind_order_matters() {
        // Two dependent edits: insert x under root, then rename it.
        let (mut t, mut lt, _) = figure2_t0();
        let orig = t.clone();
        let x = lt.intern("x");
        let y = lt.intern("y");
        let id = t.next_node_id();
        let mut log = EditLog::new();
        log.push(
            t.apply_logged(EditOp::Insert {
                node: id,
                label: x,
                parent: t.root(),
                k: 1,
                m: 3,
            })
            .unwrap(),
        );
        log.push(
            t.apply_logged(EditOp::Rename { node: id, label: y })
                .unwrap(),
        );
        assert_eq!(log.len(), 2);
        log.rewind(&mut t).unwrap();
        assert_eq!(t, orig);
    }

    #[test]
    fn apply_logged_captures_anchors() {
        let (mut t, _, n) = figure2_t0();
        // Delete the inner node n3 (children n5, n6): anchor = Adopted.
        let entry = t.apply_logged(EditOp::Delete { node: n[2] }).unwrap();
        assert!(matches!(entry.op, EditOp::Insert { .. }));
        assert_eq!(
            entry.anchor,
            Some(InsertAnchor::Adopted([n[4], n[5]].into()))
        );
        // Delete the (now promoted) leaf n5: gap between n2 and n6.
        let entry = t.apply_logged(EditOp::Delete { node: n[4] }).unwrap();
        assert_eq!(
            entry.anchor,
            Some(InsertAnchor::Gap {
                pred: Some(n[1]),
                succ: Some(n[5])
            })
        );
        // Delete the first leaf: no predecessor.
        let entry = t.apply_logged(EditOp::Delete { node: n[1] }).unwrap();
        assert_eq!(
            entry.anchor,
            Some(InsertAnchor::Gap {
                pred: None,
                succ: Some(n[5])
            })
        );
        // Rename carries no anchor.
        let lbl = t.label(n[3]);
        let entry = t.apply_logged(EditOp::Delete { node: n[3] }).unwrap();
        let _ = lbl;
        assert!(matches!(entry.anchor, Some(InsertAnchor::Gap { .. })));
    }

    #[test]
    #[should_panic(expected = "identity anchor")]
    fn log_op_insert_requires_anchor() {
        let (_, mut lt, n) = figure2_t0();
        let x = lt.intern("x");
        LogOp::new(
            EditOp::Insert {
                node: NodeId::from_index(50),
                label: x,
                parent: n[0],
                k: 1,
                m: 0,
            },
            None,
        );
    }
}
