//! Zhang–Shasha tree edit distance.
//!
//! The pq-gram distance of the reproduced paper is an *approximation* of the
//! tree edit distance of Zhang & Shasha (*Simple fast algorithms for the
//! editing distance between trees and related problems*, SIAM J. Comput.
//! 18(6), 1989 — reference \[20\] of the paper). This crate implements the
//! exact distance with unit costs so that the approximation quality of the
//! pq-gram distance can be evaluated, as the original pq-gram paper (VLDB
//! 2005) does.
//!
//! The algorithm runs in `O(n₁·n₂·min(d₁,l₁)·min(d₂,l₂))` time and
//! `O(n₁·n₂)` space; it is intended for moderate tree sizes (the reference
//! metric in experiments), not for the multi-million-node documents the
//! index itself handles.
//!
//! ```
//! use pqgram_tree::{LabelTable, Tree};
//! use pqgram_ted::tree_edit_distance;
//!
//! let mut lt = LabelTable::new();
//! let (a, b, c) = (lt.intern("a"), lt.intern("b"), lt.intern("c"));
//! let mut t1 = Tree::with_root(a);
//! t1.add_child(t1.root(), b);
//! let mut t2 = Tree::with_root(a);
//! t2.add_child(t2.root(), c);
//! assert_eq!(tree_edit_distance(&t1, &t2), 1); // one rename
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use pqgram_tree::{LabelSym, NodeId, Tree};

/// Unit edit costs: insert = delete = rename = 1 (rename of equal labels = 0).
const INS: u64 = 1;
const DEL: u64 = 1;

#[inline]
fn ren(a: LabelSym, b: LabelSym) -> u64 {
    u64::from(a != b)
}

/// Postorder view of a tree with the auxiliary arrays of Zhang–Shasha.
struct PostorderView {
    /// Label of the i-th node in left-to-right postorder (0-based).
    labels: Vec<LabelSym>,
    /// `l[i]`: postorder number of the leftmost leaf descendant of node i.
    lld: Vec<usize>,
    /// Postorder numbers of the LR-keyroots, ascending.
    keyroots: Vec<usize>,
}

impl PostorderView {
    fn new(tree: &Tree) -> Self {
        let order = tree.postorder(tree.root());
        let n = order.len();
        let mut number = vec![0usize; tree.slot_count()];
        for (i, &node) in order.iter().enumerate() {
            number[node.index()] = i;
        }
        let mut labels = Vec::with_capacity(n);
        let mut lld = vec![0usize; n];
        for (i, &node) in order.iter().enumerate() {
            labels.push(tree.label(node));
            lld[i] = number[leftmost_leaf(tree, node).index()];
        }
        // A node is a keyroot iff it has no parent, or it is not the leftmost
        // child (equivalently: no ancestor has the same leftmost leaf).
        let mut keyroots = Vec::new();
        for (i, &node) in order.iter().enumerate() {
            let is_keyroot = match tree.parent(node) {
                None => true,
                Some(p) => tree.children(p)[0] != node,
            };
            if is_keyroot {
                keyroots.push(i);
            }
        }
        PostorderView {
            labels,
            lld,
            keyroots,
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

fn leftmost_leaf(tree: &Tree, mut node: NodeId) -> NodeId {
    while let Some(&first) = tree.children(node).first() {
        node = first;
    }
    node
}

/// Computes the exact tree edit distance between two ordered labeled trees
/// with unit costs.
pub fn tree_edit_distance(t1: &Tree, t2: &Tree) -> u64 {
    let v1 = PostorderView::new(t1);
    let v2 = PostorderView::new(t2);
    let (n1, n2) = (v1.len(), v2.len());

    // treedist[i][j]: distance between subtrees rooted at postorder i and j.
    let mut treedist = vec![0u64; n1 * n2];
    // Forest-distance scratch, reused across keyroot pairs.
    let mut fd = vec![0u64; (n1 + 1) * (n2 + 1)];
    let fcols = n2 + 1;

    for &i in &v1.keyroots {
        for &j in &v2.keyroots {
            compute_treedist(&v1, &v2, i, j, &mut treedist, &mut fd, fcols, n2);
        }
    }
    treedist[(n1 - 1) * n2 + (n2 - 1)]
}

#[allow(clippy::too_many_arguments)]
fn compute_treedist(
    v1: &PostorderView,
    v2: &PostorderView,
    i: usize,
    j: usize,
    treedist: &mut [u64],
    fd: &mut [u64],
    fcols: usize,
    n2: usize,
) {
    let li = v1.lld[i];
    let lj = v2.lld[j];
    // fd indices are offset by the leftmost leaves: forest (li..=x, lj..=y)
    // is stored at fd[(x - li + 1) * fcols + (y - lj + 1)].
    let at = |x: usize, y: usize| x * fcols + y;

    fd[at(0, 0)] = 0;
    for x in 1..=(i - li + 1) {
        fd[at(x, 0)] = fd[at(x - 1, 0)] + DEL;
    }
    for y in 1..=(j - lj + 1) {
        fd[at(0, y)] = fd[at(0, y - 1)] + INS;
    }
    for x in 1..=(i - li + 1) {
        let px = li + x - 1; // postorder number in t1
        for y in 1..=(j - lj + 1) {
            let py = lj + y - 1; // postorder number in t2
            if v1.lld[px] == li && v2.lld[py] == lj {
                // Both forests are whole trees: record a tree distance.
                let d = (fd[at(x - 1, y)] + DEL)
                    .min(fd[at(x, y - 1)] + INS)
                    .min(fd[at(x - 1, y - 1)] + ren(v1.labels[px], v2.labels[py]));
                fd[at(x, y)] = d;
                treedist[px * n2 + py] = d;
            } else {
                let xl = v1.lld[px] - li; // size of t1 prefix before subtree px
                let yl = v2.lld[py] - lj;
                fd[at(x, y)] = (fd[at(x - 1, y)] + DEL)
                    .min(fd[at(x, y - 1)] + INS)
                    .min(fd[at(xl, yl)] + treedist[px * n2 + py]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{EditOp, LabelTable, ScriptConfig, ScriptMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn leaf_chain(lt: &mut LabelTable, labels: &[&str]) -> Tree {
        let mut t = Tree::with_root(lt.intern(labels[0]));
        let mut cur = t.root();
        for l in &labels[1..] {
            cur = t.add_child(cur, lt.intern(l));
        }
        t
    }

    #[test]
    fn identical_trees_distance_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = LabelTable::new();
        let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(40, 5));
        assert_eq!(tree_edit_distance(&t, &t), 0);
    }

    #[test]
    fn single_rename() {
        let mut lt = LabelTable::new();
        let t1 = leaf_chain(&mut lt, &["a", "b", "c"]);
        let t2 = leaf_chain(&mut lt, &["a", "x", "c"]);
        assert_eq!(tree_edit_distance(&t1, &t2), 1);
    }

    #[test]
    fn chain_vs_single_node() {
        let mut lt = LabelTable::new();
        let t1 = leaf_chain(&mut lt, &["a", "b", "c", "d"]);
        let t2 = leaf_chain(&mut lt, &["a"]);
        assert_eq!(tree_edit_distance(&t1, &t2), 3);
        assert_eq!(tree_edit_distance(&t2, &t1), 3);
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // The well-known example from the original paper:
        // T1 = f(d(a c(b)) e), T2 = f(c(d(a b)) e), distance 2.
        let mut lt = LabelTable::new();
        let (a, b, c, d, e, f) = (
            lt.intern("a"),
            lt.intern("b"),
            lt.intern("c"),
            lt.intern("d"),
            lt.intern("e"),
            lt.intern("f"),
        );
        let mut t1 = Tree::with_root(f);
        let d1 = t1.add_child(t1.root(), d);
        t1.add_child(t1.root(), e);
        t1.add_child(d1, a);
        let c1 = t1.add_child(d1, c);
        t1.add_child(c1, b);

        let mut t2 = Tree::with_root(f);
        let c2 = t2.add_child(t2.root(), c);
        t2.add_child(t2.root(), e);
        let d2 = t2.add_child(c2, d);
        t2.add_child(d2, a);
        t2.add_child(d2, b);

        assert_eq!(tree_edit_distance(&t1, &t2), 2);
    }

    #[test]
    fn sibling_order_matters() {
        let mut lt = LabelTable::new();
        let (r, a, b) = (lt.intern("r"), lt.intern("a"), lt.intern("b"));
        let mut t1 = Tree::with_root(r);
        t1.add_child(t1.root(), a);
        t1.add_child(t1.root(), b);
        let mut t2 = Tree::with_root(r);
        t2.add_child(t2.root(), b);
        t2.add_child(t2.root(), a);
        assert_eq!(tree_edit_distance(&t1, &t2), 2);
    }

    #[test]
    fn symmetry_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lt = LabelTable::new();
        for _ in 0..10 {
            let t1 = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(25, 4));
            let t2 = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(30, 4));
            assert_eq!(tree_edit_distance(&t1, &t2), tree_edit_distance(&t2, &t1));
        }
    }

    #[test]
    fn triangle_inequality_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lt = LabelTable::new();
        for _ in 0..10 {
            let a = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(15, 3));
            let b = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(20, 3));
            let c = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(18, 3));
            let ab = tree_edit_distance(&a, &b);
            let bc = tree_edit_distance(&b, &c);
            let ac = tree_edit_distance(&a, &c);
            assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        }
    }

    #[test]
    fn bounded_by_script_length() {
        // k edit operations can move the tree at most distance k... for
        // renames and leaf inserts/deletes this is exact unit-cost bound;
        // inner INS/DEL also cost 1 in the Zhang-Shasha model.
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..10u64 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut lt = LabelTable::new();
            let mut t = random_tree(&mut rng2, &mut lt, &RandomTreeConfig::new(30, 4));
            let t0 = t.clone();
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            let mut cfg = ScriptConfig::new(5, alphabet);
            // Leaf-local edits only so each op is one unit-cost edit.
            cfg.max_adopted = 0;
            cfg.mix = ScriptMix {
                insert: 1,
                delete: 0,
                rename: 2,
            };
            let (_, forward) = pqgram_tree::record_script(&mut rng, &mut t, &cfg);
            assert_eq!(forward.len(), 5);
            assert!(forward
                .iter()
                .all(|op| !matches!(op, EditOp::Delete { .. })));
            let d = tree_edit_distance(&t0, &t);
            assert!(d <= 5, "distance {d} exceeds script length");
        }
    }

    #[test]
    fn insert_inner_node_costs_one() {
        let mut lt = LabelTable::new();
        let (r, a, b, x) = (
            lt.intern("r"),
            lt.intern("a"),
            lt.intern("b"),
            lt.intern("x"),
        );
        let mut t1 = Tree::with_root(r);
        t1.add_child(t1.root(), a);
        t1.add_child(t1.root(), b);
        let mut t2 = t1.clone();
        let id = t2.next_node_id();
        t2.apply(EditOp::Insert {
            node: id,
            label: x,
            parent: t2.root(),
            k: 1,
            m: 2,
        })
        .unwrap();
        assert_eq!(tree_edit_distance(&t1, &t2), 1);
    }
}
