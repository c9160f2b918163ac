//! Ordered labeled trees with stable node identifiers (Section 3.1).
//!
//! A [`Tree`] is an arena of node slots. [`NodeId`]s index the arena and are
//! **never reused**: deleting a node leaves a dead slot behind so that an edit
//! log recorded against an earlier version of the tree can still refer to the
//! node, and so that the node can be resurrected by the inverse insert with
//! the same identity — the paper's proofs equate nodes of different tree
//! versions by `(identifier, label)`.

use crate::label::LabelSym;
use std::fmt;

/// Identifier of a node, unique and stable within one [`Tree`] lineage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    const NONE: u32 = u32::MAX;

    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index. Panics when `index` falls
    /// outside the id space (`u32` less the sentinel), like a `Vec` that
    /// outgrows its capacity.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        let v = u32::try_from(index).unwrap_or(Self::NONE);
        assert_ne!(v, Self::NONE, "node index {index} is out of range");
        NodeId(v)
    }

    /// A `NodeId` read from untrusted bytes: `None` outside the id space.
    pub(crate) fn checked(raw: u64) -> Option<Self> {
        u32::try_from(raw)
            .ok()
            .filter(|&v| v != Self::NONE)
            .map(NodeId)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, PartialEq, Eq)]
struct Slot {
    label: LabelSym,
    /// Parent id, or `NodeId::NONE` packed as raw sentinel for the root/dead.
    parent: u32,
    children: Vec<NodeId>,
    /// 1-based position among the parent's children (`0` for the root and
    /// dead slots); kept in step with `children` by every mutator.
    pos: u32,
    alive: bool,
}

/// An ordered labeled tree.
///
/// Nodes are created through [`Tree::with_root`], [`Tree::add_child`] or the
/// edit operations in [`crate::edit`]. Structural navigation (`parent`,
/// `children`, `sibling_pos`, ancestor/descendant queries) is O(1) or output
/// sensitive.
#[derive(Clone)]
pub struct Tree {
    slots: Vec<Slot>,
    root: NodeId,
    alive: usize,
}

impl Tree {
    /// Creates a tree consisting of a single root node.
    pub fn with_root(label: LabelSym) -> Self {
        Tree {
            slots: vec![Slot {
                label,
                parent: NodeId::NONE,
                children: Vec::new(),
                pos: 0,
                alive: true,
            }],
            root: NodeId(0),
            alive: 1,
        }
    }

    /// The root node. The paper assumes the root is never edited.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.alive
    }

    /// Number of arena slots ever allocated (live + dead).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// True if `node` refers to a live node of this tree.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(|s| s.alive)
    }

    /// The id the next allocated node will get.
    #[inline]
    pub fn next_node_id(&self) -> NodeId {
        NodeId::from_index(self.slots.len())
    }

    /// Label of a live node.
    #[inline]
    pub fn label(&self, node: NodeId) -> LabelSym {
        let s = &self.slots[node.index()];
        debug_assert!(s.alive, "label() on dead node {node:?}");
        s.label
    }

    /// Parent of a live node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let s = &self.slots[node.index()];
        debug_assert!(s.alive, "parent() on dead node {node:?}");
        (s.parent != NodeId::NONE).then_some(NodeId(s.parent))
    }

    /// Children of a node, in sibling order.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.slots[node.index()].children
    }

    /// Fanout (number of children).
    #[inline]
    pub fn fanout(&self, node: NodeId) -> usize {
        self.children(node).len()
    }

    /// True if `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// 1-based position of `node` among its siblings (the paper's `k` such
    /// that `node` is the k-th child of its parent). Returns `None` for the
    /// root.
    pub fn sibling_pos(&self, node: NodeId) -> Option<usize> {
        self.parent(node)?;
        self.slots.get(node.index()).map(|s| s.pos as usize)
    }

    /// Renumbers the children of `parent` from 0-based index `from` on.
    fn renumber(&mut self, parent: NodeId, from: usize) {
        let Some(children) = self
            .slots
            .get_mut(parent.index())
            .map(|s| std::mem::take(&mut s.children))
        else {
            return;
        };
        for (i, &c) in children.iter().enumerate().skip(from) {
            if let Some(slot) = self.slots.get_mut(c.index()) {
                slot.pos = u32::try_from(i + 1).unwrap_or(u32::MAX);
            }
        }
        if let Some(slot) = self.slots.get_mut(parent.index()) {
            slot.children = children;
        }
    }

    /// Ancestor of `node` at distance `dist` (`dist = 0` is the node itself,
    /// `1` the parent, …). `None` if the root is closer than `dist`.
    pub fn ancestor_at(&self, node: NodeId, dist: usize) -> Option<NodeId> {
        let mut cur = node;
        for _ in 0..dist {
            cur = self.parent(cur)?;
        }
        Some(cur)
    }

    /// Iterator over ancestors from the parent up to the root.
    pub fn ancestors(&self, node: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            cur: self.parent(node),
        }
    }

    /// The paper's `desc_d(n)`: `n` together with all descendants within
    /// distance `d`, in preorder. `desc_0(n) = {n}`.
    pub fn descendants_within(&self, node: NodeId, d: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        // (node, remaining depth budget)
        let mut stack = vec![(node, d)];
        while let Some((n, budget)) = stack.pop() {
            out.push(n);
            if budget > 0 {
                for &c in self.children(n).iter().rev() {
                    stack.push((c, budget - 1));
                }
            }
        }
        out
    }

    /// Preorder traversal of the subtree rooted at `node`.
    pub fn preorder(&self, node: NodeId) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![node],
        }
    }

    /// Postorder traversal of the subtree rooted at `node`.
    /// (Left-to-right postorder, as used by Zhang–Shasha.)
    pub fn postorder(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        // Two-stack iterative postorder.
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend_from_slice(self.children(n));
        }
        out.reverse();
        out
    }

    /// Number of nodes in the subtree rooted at `node`.
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.preorder(node).count()
    }

    /// Length of the longest root-to-leaf path (a single node has depth 1).
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(self.root, 1usize)];
        while let Some((n, d)) = stack.pop() {
            max = max.max(d);
            for &c in self.children(n) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// Depth of `node` below the root (root has depth 0).
    pub fn node_depth(&self, node: NodeId) -> usize {
        self.ancestors(node).count()
    }

    /// Appends a new child with `label` to `parent`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, label: LabelSym) -> NodeId {
        debug_assert!(self.contains(parent), "add_child to dead node {parent:?}");
        let pos = u32::try_from(self.fanout(parent) + 1).unwrap_or(u32::MAX);
        let id = self.alloc(label, parent, pos);
        self.slots[parent.index()].children.push(id);
        id
    }

    /// Inserts a new child with `label` under `parent` at 1-based position
    /// `pos` (existing children at `pos..` shift right). Unlike the INS edit
    /// operation this never re-parents existing children.
    pub fn insert_leaf_at(&mut self, parent: NodeId, pos: usize, label: LabelSym) -> NodeId {
        assert!(
            pos >= 1 && pos <= self.fanout(parent) + 1,
            "position out of range"
        );
        let id = self.alloc(label, parent, 0);
        self.slots[parent.index()].children.insert(pos - 1, id);
        self.renumber(parent, pos - 1);
        id
    }

    fn alloc(&mut self, label: LabelSym, parent: NodeId, pos: u32) -> NodeId {
        let id = NodeId::from_index(self.slots.len());
        self.slots.push(Slot {
            label,
            parent: parent.0,
            children: Vec::new(),
            pos,
            alive: true,
        });
        self.alive += 1;
        id
    }

    // ----- internal mutators used by `edit::apply` -------------------------

    pub(crate) fn set_label(&mut self, node: NodeId, label: LabelSym) {
        debug_assert!(self.contains(node), "set_label on dead node {node:?}");
        self.slots[node.index()].label = label;
    }

    /// Implements `INS(n, v, k, m)` with an explicit node identity: creates
    /// (or resurrects) slot `node`, substitutes children `k..=m` of `parent`
    /// with it and re-parents them under `node`. Validity must have been
    /// checked by the caller.
    pub(crate) fn insert_node(
        &mut self,
        node: NodeId,
        label: LabelSym,
        parent: NodeId,
        k: usize,
        m: usize,
    ) {
        // Grow the arena with dead slots if the id is from a future version.
        while self.slots.len() <= node.index() {
            self.slots.push(Slot {
                label: LabelSym::NULL,
                parent: NodeId::NONE,
                children: Vec::new(),
                pos: 0,
                alive: false,
            });
        }
        let slot = &mut self.slots[node.index()];
        debug_assert!(!slot.alive, "insert of an already-live node");
        slot.label = label;
        slot.parent = parent.0;
        slot.alive = true;
        self.alive += 1;

        // Move children c_k..c_m of the parent under `node`.
        let moved: Vec<NodeId> = if m >= k {
            self.slots[parent.index()]
                .children
                .splice(k - 1..m, [node])
                .collect()
        } else {
            // Leaf insert: m = k - 1, nothing moves.
            self.slots[parent.index()].children.insert(k - 1, node);
            Vec::new()
        };
        for &c in &moved {
            self.slots[c.index()].parent = node.0;
        }
        self.slots[node.index()].children = moved;
        self.renumber(parent, k - 1);
        self.renumber(node, 0);
    }

    /// Implements `DEL(n)`: removes `node` and splices its children into
    /// `parent`'s child list at `node`'s position. Validity (`parent` is
    /// `node`'s parent) must have been checked by the caller. The slot
    /// stays allocated (dead) so the id is never reused.
    pub(crate) fn delete_node(&mut self, node: NodeId, parent: NodeId) {
        let pos = self.slots[node.index()].pos as usize - 1;
        let children = std::mem::take(&mut self.slots[node.index()].children);
        for &c in &children {
            self.slots[c.index()].parent = parent.0;
        }
        self.slots[parent.index()]
            .children
            .splice(pos..=pos, children);
        self.renumber(parent, pos);
        let slot = &mut self.slots[node.index()];
        slot.alive = false;
        slot.parent = NodeId::NONE;
        slot.pos = 0;
        self.alive -= 1;
    }

    /// Checks all structural invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if !self.contains(self.root) {
            return Err("root is dead".into());
        }
        if self.slots[self.root.index()].parent != NodeId::NONE {
            return Err("root has a parent".into());
        }
        let mut seen = vec![false; self.slots.len()];
        let mut count = 0usize;
        for n in self.preorder(self.root) {
            if seen[n.index()] {
                return Err(format!("node {n:?} reachable twice"));
            }
            seen[n.index()] = true;
            count += 1;
            for &c in self.children(n) {
                let cs = &self.slots[c.index()];
                if !cs.alive {
                    return Err(format!("dead child {c:?} of {n:?}"));
                }
                if cs.parent != n.0 {
                    return Err(format!("parent pointer of {c:?} disagrees with {n:?}"));
                }
            }
            for (i, &c) in self.children(n).iter().enumerate() {
                if self.slots[c.index()].pos as usize != i + 1 {
                    return Err(format!("position of {c:?} is not {}", i + 1));
                }
            }
        }
        if count != self.alive {
            return Err(format!(
                "alive count {} but reachable {}",
                self.alive, count
            ));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.alive && !seen[i] {
                return Err(format!("live node n{i} unreachable from root"));
            }
        }
        Ok(())
    }

    /// Structural + label equality ignoring node identities.
    pub fn isomorphic(&self, other: &Tree) -> bool {
        // Iterative to avoid stack overflow on deep trees.
        let mut stack = vec![(self.root, other.root)];
        while let Some((an, bn)) = stack.pop() {
            if self.label(an) != other.label(bn) || self.fanout(an) != other.fanout(bn) {
                return false;
            }
            stack.extend(
                self.children(an)
                    .iter()
                    .copied()
                    .zip(other.children(bn).iter().copied()),
            );
        }
        true
    }
}

impl PartialEq for Tree {
    /// Identity-aware equality: equal iff the same live `(id, label)` pairs
    /// with the same parent/child structure — the equality used in the
    /// paper's proofs.
    fn eq(&self, other: &Tree) -> bool {
        if self.root != other.root || self.alive != other.alive {
            return false;
        }
        for n in self.preorder(self.root) {
            if !other.contains(n)
                || self.label(n) != other.label(n)
                || self.children(n) != other.children(n)
            {
                return false;
            }
        }
        true
    }
}

impl Eq for Tree {}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(t: &Tree, n: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{:?}:{:?}", n, t.label(n))?;
            if !t.is_leaf(n) {
                write!(f, "(")?;
                for (i, &c) in t.children(n).iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    rec(t, c, f)?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
        rec(self, self.root, f)
    }
}

/// Iterator over a node's proper ancestors, closest first.
pub struct Ancestors<'t> {
    tree: &'t Tree,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.cur?;
        self.cur = self.tree.parent(n);
        Some(n)
    }
}

/// Preorder iterator (node before its children, siblings left to right).
pub struct Preorder<'t> {
    tree: &'t Tree,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        self.stack.extend(self.tree.children(n).iter().rev());
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelTable;

    fn sample() -> (Tree, LabelTable, Vec<NodeId>) {
        // a(b c(e f) d)  — shaped like T0 of Figure 2.
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let b = lt.intern("b");
        let c = lt.intern("c");
        let d = lt.intern("d");
        let e = lt.intern("e");
        let fl = lt.intern("f");
        let mut t = Tree::with_root(a);
        let n1 = t.root();
        let n2 = t.add_child(n1, b);
        let n3 = t.add_child(n1, c);
        let n4 = t.add_child(n1, d);
        let n5 = t.add_child(n3, e);
        let n6 = t.add_child(n3, fl);
        (t, lt, vec![n1, n2, n3, n4, n5, n6])
    }

    #[test]
    fn navigation() {
        let (t, _, n) = sample();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.parent(n[0]), None);
        assert_eq!(t.parent(n[4]), Some(n[2]));
        assert_eq!(t.children(n[0]), &[n[1], n[2], n[3]]);
        assert_eq!(t.sibling_pos(n[2]), Some(2));
        assert_eq!(t.sibling_pos(n[0]), None);
        assert_eq!(t.fanout(n[0]), 3);
        assert!(t.is_leaf(n[1]));
        assert!(!t.is_leaf(n[2]));
    }

    #[test]
    fn ancestors_and_distance() {
        let (t, _, n) = sample();
        assert_eq!(t.ancestor_at(n[4], 0), Some(n[4]));
        assert_eq!(t.ancestor_at(n[4], 1), Some(n[2]));
        assert_eq!(t.ancestor_at(n[4], 2), Some(n[0]));
        assert_eq!(t.ancestor_at(n[4], 3), None);
        let anc: Vec<_> = t.ancestors(n[4]).collect();
        assert_eq!(anc, vec![n[2], n[0]]);
        assert_eq!(t.node_depth(n[4]), 2);
    }

    #[test]
    fn descendants_within() {
        let (t, _, n) = sample();
        assert_eq!(t.descendants_within(n[0], 0), vec![n[0]]);
        assert_eq!(t.descendants_within(n[0], 1), vec![n[0], n[1], n[2], n[3]]);
        assert_eq!(
            t.descendants_within(n[0], 2),
            vec![n[0], n[1], n[2], n[4], n[5], n[3]]
        );
        assert_eq!(t.descendants_within(n[2], 1), vec![n[2], n[4], n[5]]);
    }

    #[test]
    fn traversals() {
        let (t, _, n) = sample();
        let pre: Vec<_> = t.preorder(t.root()).collect();
        assert_eq!(pre, vec![n[0], n[1], n[2], n[4], n[5], n[3]]);
        let post = t.postorder(t.root());
        assert_eq!(post, vec![n[1], n[4], n[5], n[2], n[3], n[0]]);
        assert_eq!(t.subtree_size(n[2]), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn insert_and_delete_node_roundtrip() {
        let (mut t, mut lt, n) = sample();
        let orig = t.clone();
        let x = lt.intern("x");
        let id = t.next_node_id();
        // insert x as 2nd child of root adopting children 2..=3 (c and d)
        t.insert_node(id, x, n[0], 2, 3);
        t.validate().unwrap();
        assert_eq!(t.children(n[0]), &[n[1], id]);
        assert_eq!(t.children(id), &[n[2], n[3]]);
        assert_eq!(t.parent(n[2]), Some(id));
        assert_eq!(t.node_count(), 7);
        assert_eq!((t.sibling_pos(id), t.sibling_pos(n[3])), (Some(2), Some(2)));

        t.delete_node(id, n[0]);
        t.validate().unwrap();
        assert_eq!(t, orig);
        assert_eq!(t.sibling_pos(n[3]), Some(3));
    }

    #[test]
    fn leaf_insert_via_insert_node() {
        let (mut t, mut lt, n) = sample();
        let x = lt.intern("x");
        let id = t.next_node_id();
        // m = k - 1: pure leaf insert at position 2
        t.insert_node(id, x, n[0], 2, 1);
        t.validate().unwrap();
        assert_eq!(t.children(n[0]), &[n[1], id, n[2], n[3]]);
        assert!(t.is_leaf(id));
        assert_eq!(t.sibling_pos(n[3]), Some(4));
    }

    #[test]
    fn delete_leaf() {
        let (mut t, _, n) = sample();
        t.delete_node(n[1], n[0]);
        t.validate().unwrap();
        assert_eq!(t.children(n[0]), &[n[2], n[3]]);
        assert_eq!(t.sibling_pos(n[3]), Some(2));
        assert!(!t.contains(n[1]));
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn isomorphism_ignores_ids_equality_does_not() {
        let (t1, _, _) = sample();
        let (mut t2, _, _) = sample();
        assert!(t1.isomorphic(&t2));
        assert_eq!(t1, t2);
        // Delete + re-add an identical-looking leaf: isomorphic, not equal.
        let root = t2.root();
        let first = t2.children(root)[0];
        let lbl = t2.label(first);
        t2.delete_node(first, root);
        t2.insert_leaf_at(root, 1, lbl);
        assert!(t1.isomorphic(&t2));
        assert_ne!(t1, t2);
    }

    #[test]
    fn validate_detects_corruption() {
        let (mut t, _, n) = sample();
        // Manually corrupt a parent pointer.
        t.slots[n[4].index()].parent = n[0].0;
        assert!(t.validate().is_err());
        // A stale sibling position.
        let (mut t, _, n) = sample();
        t.slots[n[3].index()].pos = 1;
        assert_eq!(
            t.validate(),
            Err(format!("position of {:?} is not 3", n[3]))
        );
    }

    #[test]
    fn deep_tree_no_stack_overflow() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let mut t = Tree::with_root(a);
        let mut cur = t.root();
        for _ in 0..100_000 {
            cur = t.add_child(cur, a);
        }
        assert_eq!(t.depth(), 100_001);
        assert_eq!(t.preorder(t.root()).count(), 100_001);
        t.validate().unwrap();
        let t2 = t.clone();
        assert!(t.isomorphic(&t2));
        assert_eq!(t, t2);
    }
}
