//! pq-gram profiles (Definition 2), gram enumeration and the gram
//! fingerprint kernel.
//!
//! [`for_each_gram`] walks the tree once and emits every pq-gram of the
//! null-extended tree `T'` at node level, without materializing anything per
//! gram. Every node `a` with fanout `f_a` anchors `max(f_a + q − 1, 1)`
//! grams, so a tree has `Σ_a max(f_a + q − 1, 1)` of them.
//!
//! [`compute_profile`] materializes the profile as a set of node-level
//! [`PQGram`]s; it is used by the reference implementations and tests (the
//! incremental machinery never needs a full profile).
//!
//! [`GramKernel`] is the one place where "the grams of an anchor" become
//! index keys: [`for_each_key`] (the walk behind [`crate::build_index`])
//! and `pqgram_xml::stream_index` both feed it an ancestor path and the
//! anchor's child fingerprints. It shares
//! the work the anchor's `f + q − 1` label tuples have in common instead of
//! folding each tuple from scratch; `for_each_gram` + `combine` stays the
//! independent definition it is tested against (DESIGN.md §18).

use crate::gram::{GramNode, PQGram};
use crate::index::GramKey;
use crate::params::PQParams;
use pqgram_tree::fingerprint::{
    add, base_power, combine, scale, term, Fingerprint, NULL_FINGERPRINT, TUPLE_SEED,
};
use pqgram_tree::{FxHashSet, LabelTable, NodeId, Tree};

/// The pq-gram profile of a tree: the set of all its pq-grams.
pub type Profile = FxHashSet<PQGram>;

/// Calls `f(ppart, qpart)` for every pq-gram of `tree`.
///
/// `ppart` has length `p` (`(a_{p-1}, …, a_1, anchor)`, null-padded at the
/// front), `qpart` has length `q` (a window of the anchor's children with
/// `q − 1` null nodes of padding on each side; a single all-null window for
/// leaves). The slices are reused between calls — clone if you keep them.
pub fn for_each_gram<F>(tree: &Tree, params: PQParams, mut f: F)
where
    F: FnMut(&[GramNode], &[GramNode]),
{
    let (p, q) = (params.p(), params.q());
    // Ancestor chain from the root down to the current node (inclusive).
    let mut path: Vec<GramNode> = Vec::new();
    let mut ppart: Vec<GramNode> = vec![GramNode::Null; p];
    let mut window: Vec<GramNode> = vec![GramNode::Null; q];

    // Iterative DFS; `Frame::Leave` pops the path.
    enum Step {
        Enter(NodeId),
        Leave,
    }
    let mut stack = vec![Step::Enter(tree.root())];
    while let Some(step) = stack.pop() {
        let node = match step {
            Step::Leave => {
                path.pop();
                continue;
            }
            Step::Enter(n) => n,
        };
        path.push(GramNode::Node(node, tree.label(node)));

        // p-part: last p entries of the path, null-padded at the front.
        for (i, slot) in ppart.iter_mut().enumerate() {
            let need_depth = p - 1 - i; // distance of this slot from anchor
            *slot = if need_depth < path.len() {
                path[path.len() - 1 - need_depth]
            } else {
                GramNode::Null
            };
        }

        let children = tree.children(node);
        if children.is_empty() {
            window.fill(GramNode::Null);
            f(&ppart, &window);
        } else {
            // Slide a q-window over (•^{q-1}, c_1 … c_f, •^{q-1}).
            let fanout = children.len();
            for start in 0..fanout + q - 1 {
                for (t, slot) in window.iter_mut().enumerate() {
                    // extended index of this slot: start + t, children occupy
                    // extended positions q-1 .. q-1+fanout-1.
                    let ext = start + t;
                    *slot = if ext >= q - 1 && ext < q - 1 + fanout {
                        let c = children[ext - (q - 1)];
                        GramNode::Node(c, tree.label(c))
                    } else {
                        GramNode::Null
                    };
                }
                f(&ppart, &window);
            }
        }

        stack.push(Step::Leave);
        for &c in children.iter().rev() {
            stack.push(Step::Enter(c));
        }
    }
}

/// Fingerprints all pq-grams of one anchor at a time.
///
/// [`combine`] is Horner's rule, so the key of the gram with p-part
/// `a_{p−1} … a_0` and q-part `w_0 … w_{q−1}` is the polynomial
///
/// ```text
/// stem(a_{p−1} … a_0) · B^q  +  Σ_j term(w_j) · B^(q−1−j)
/// ```
///
/// whose first summand is the same for every gram of the anchor and whose
/// other summands each depend on one child (or `•`) and its window slot.
/// The kernel folds the stem once per anchor, multiplies each child's term
/// by `B^0 … B^(q−1)` once, and completes every gram by additions — the
/// same residue, hence the same bits, as folding the `p + q` labels.
#[derive(Clone, Debug)]
pub struct GramKernel {
    p: usize,
    /// `B^q`: lifts the stem over the q-part.
    lift: Fingerprint,
    /// `B^i`: weight of a window entry with `i` entries after it.
    weights: Vec<Fingerprint>,
    /// `leading[i]`: what the `q − 1 − i` leading nulls of the `i`-th
    /// window of an anchor add up to.
    leading: Vec<Fingerprint>,
    /// `trailing[k − 1] = Σ_{i<k} B^i`: what `k = 1 … q − 1` trailing nulls
    /// add up to.
    trailing: Vec<Fingerprint>,
    /// The all-null window of a leaf.
    all_null: Fingerprint,
    /// Scratch: the `q` windows the next child falls into, oldest first.
    windows: Vec<Fingerprint>,
}

impl GramKernel {
    /// The kernel for one `(p, q)` shape. Reusable across anchors and trees.
    pub fn new(params: PQParams) -> Self {
        let q = params.q();
        let weights: Vec<Fingerprint> = (0..q).map(base_power).collect();
        // `•` has fingerprint 0, hence term 1: a null weighs exactly what
        // its slot does, and a run of nulls is a sum of weights.
        debug_assert_eq!(
            term(NULL_FINGERPRINT),
            1,
            "a null's term is its slot's weight"
        );
        fn nulls<'a>(slots: impl Iterator<Item = &'a Fingerprint>) -> Fingerprint {
            slots.fold(0, |sum, &w| add(sum, w))
        }
        GramKernel {
            p: params.p(),
            lift: base_power(q),
            // Window `i` opens with nulls at the weights `B^(q−1) … B^(i+1)`.
            leading: (0..q).map(|i| nulls(weights.iter().skip(i + 1))).collect(),
            trailing: (1..q).map(|k| nulls(weights.iter().take(k))).collect(),
            all_null: nulls(weights.iter()),
            weights,
            windows: Vec::with_capacity(q),
        }
    }

    /// The p-part accumulator of the anchor at the end of `path` (label
    /// fingerprints root first, anchor last): the last `p` entries,
    /// null-padded at the front, folded from [`TUPLE_SEED`].
    fn stem(&self, path: &[Fingerprint]) -> Fingerprint {
        let pad = self.p.saturating_sub(path.len());
        let nulls = (0..pad).fold(TUPLE_SEED, |acc, _| combine(acc, NULL_FINGERPRINT));
        path.iter()
            .skip(path.len().saturating_sub(self.p))
            .fold(nulls, |acc, &a| combine(acc, a))
    }

    /// Calls `emit` with the key of every gram anchored at the last node of
    /// `path` (label fingerprints root first, anchor last; never empty for
    /// a real anchor) whose children carry the label fingerprints
    /// `children`, in sibling order: `f + q − 1` keys, or one for a leaf.
    pub fn anchor<I, F>(&mut self, path: &[Fingerprint], children: I, mut emit: F)
    where
        I: IntoIterator<Item = Fingerprint>,
        F: FnMut(GramKey),
    {
        let head = scale(self.stem(path), self.lift);
        // The q windows the first child falls into: window `i` takes it at
        // slot `q − 1 − i`, after its leading nulls.
        self.windows.clear();
        self.windows
            .extend(self.leading.iter().map(|&nulls| add(head, nulls)));
        let mut leaf = true;
        for child in children {
            leaf = false;
            let t = term(child);
            for (window, &weight) in self.windows.iter_mut().zip(&self.weights) {
                *window = add(*window, scale(t, weight));
            }
            // The oldest window just received its last entry; the window
            // opening after this child takes its place at the young end.
            if let Some(oldest) = self.windows.first_mut() {
                emit(*oldest);
                *oldest = head;
            }
            self.windows.rotate_left(1);
        }
        if leaf {
            // A leaf anchors the single all-null window.
            emit(add(head, self.all_null));
            return;
        }
        // The windows still open run out into 1, 2, … trailing nulls; the
        // youngest holds no child at all and is not a gram (`trailing` is
        // one short, so the zip leaves it out).
        for (&window, &nulls) in self.windows.iter().zip(&self.trailing) {
            emit(add(window, nulls));
        }
    }
}

/// Calls `emit` with the index key (label-tuple fingerprint) of every
/// pq-gram of `tree` — the keys `for_each_gram` + [`combine`] would produce,
/// as a bag, without visiting a gram twice: one depth-first walk carries the
/// label fingerprints of the current node's ancestors and hands each node,
/// with its children's fingerprints, to a [`GramKernel`].
pub fn for_each_key<F>(tree: &Tree, labels: &LabelTable, params: PQParams, mut emit: F)
where
    F: FnMut(GramKey),
{
    let fp = |node| labels.fingerprint(tree.label(node));
    let mut kernel = GramKernel::new(params);
    // Label fingerprints from the root down to the current node.
    let mut path: Vec<Fingerprint> = Vec::new();
    let mut stack = vec![(tree.root(), 0)];
    while let Some((node, depth)) = stack.pop() {
        path.truncate(depth);
        path.push(fp(node));
        let children = tree.children(node);
        kernel.anchor(&path, children.iter().map(|&c| fp(c)), &mut emit);
        stack.extend(children.iter().rev().map(|&c| (c, depth + 1)));
    }
}

/// Materializes the profile `P(T)` (Definition 2).
pub fn compute_profile(tree: &Tree, params: PQParams) -> Profile {
    let mut profile = Profile::default();
    for_each_gram(tree, params, |ppart, qpart| {
        profile.insert(PQGram::new(ppart, qpart));
    });
    profile
}

/// Number of pq-grams of `tree` (= profile size; duplicates cannot occur at
/// node level).
pub fn gram_count(tree: &Tree, params: PQParams) -> u64 {
    let q = params.q() as u64;
    tree.preorder(tree.root())
        .map(|n| {
            let f = tree.fanout(n) as u64;
            if f == 0 {
                1
            } else {
                f + q - 1
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::LabelTable;

    /// Builds the tree T0 of Figure 2 with the labels implied by Figure 4 /
    /// Example 5: a(c b(e f) c). Returns (tree, labels, node ids n1..n6).
    pub(crate) fn paper_t0() -> (Tree, LabelTable, Vec<NodeId>) {
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let b = lt.intern("b");
        let c = lt.intern("c");
        let e = lt.intern("e");
        let f = lt.intern("f");
        let mut t = Tree::with_root(a);
        let n1 = t.root();
        let n2 = t.add_child(n1, c);
        let n3 = t.add_child(n1, b);
        let n4 = t.add_child(n1, c);
        let n5 = t.add_child(n3, e);
        let n6 = t.add_child(n3, f);
        (t, lt, vec![n1, n2, n3, n4, n5, n6])
    }

    fn g(tree: &Tree, ids: &[Option<NodeId>], p: usize) -> PQGram {
        let entries: Vec<GramNode> = ids
            .iter()
            .map(|&id| match id {
                None => GramNode::Null,
                Some(n) => GramNode::Node(n, tree.label(n)),
            })
            .collect();
        PQGram::new(&entries[..p], &entries[p..])
    }

    #[test]
    fn example1_count() {
        // "The total number of pq-grams of T0 is 13." (p = q = 3)
        let (t, _, _) = paper_t0();
        assert_eq!(gram_count(&t, PQParams::new(3, 3)), 13);
        assert_eq!(compute_profile(&t, PQParams::new(3, 3)).len(), 13);
    }

    #[test]
    fn example2_profile_p0() {
        let (t, _, n) = paper_t0();
        let (n1, n2, n3, n4, n5, n6) = (
            Some(n[0]),
            Some(n[1]),
            Some(n[2]),
            Some(n[3]),
            Some(n[4]),
            Some(n[5]),
        );
        let x = None;
        let expected: Profile = [
            g(&t, &[x, x, n1, x, x, n2], 3),
            g(&t, &[x, x, n1, x, n2, n3], 3),
            g(&t, &[x, x, n1, n2, n3, n4], 3),
            g(&t, &[x, x, n1, n3, n4, x], 3),
            g(&t, &[x, x, n1, n4, x, x], 3),
            g(&t, &[x, n1, n2, x, x, x], 3),
            g(&t, &[x, n1, n3, x, x, n5], 3),
            g(&t, &[x, n1, n3, x, n5, n6], 3),
            g(&t, &[x, n1, n3, n5, n6, x], 3),
            g(&t, &[x, n1, n3, n6, x, x], 3),
            g(&t, &[n1, n3, n5, x, x, x], 3),
            g(&t, &[n1, n3, n6, x, x, x], 3),
            g(&t, &[x, n1, n4, x, x, x], 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(compute_profile(&t, PQParams::new(3, 3)), expected);
    }

    #[test]
    fn example4_grams_anchored_at_root() {
        // P(n1) ∘ Q(n1) from Example 4: five grams with anchor n1.
        let (t, _, n) = paper_t0();
        let profile = compute_profile(&t, PQParams::new(3, 3));
        let anchored: Vec<_> = profile
            .iter()
            .filter(|g| g.anchor().id() == Some(n[0]))
            .collect();
        assert_eq!(anchored.len(), 5);
        // All share the same p-part (•, •, n1).
        for g in anchored {
            assert_eq!(g.ppart()[0], GramNode::Null);
            assert_eq!(g.ppart()[1], GramNode::Null);
            assert_eq!(g.ppart()[2].id(), Some(n[0]));
        }
    }

    #[test]
    fn single_node_tree_has_one_gram() {
        let mut lt = LabelTable::new();
        let t = Tree::with_root(lt.intern("a"));
        let params = PQParams::new(3, 3);
        let profile = compute_profile(&t, params);
        assert_eq!(profile.len(), 1);
        let gram = profile.iter().next().unwrap();
        assert_eq!(gram.ppart()[2].id(), Some(t.root()));
        assert!(gram.qpart().iter().all(|e| e.is_null()));
        assert!(gram.ppart()[..2].iter().all(|e| e.is_null()));
    }

    #[test]
    fn q1_and_p1_grams() {
        let (t, _, _) = paper_t0();
        // q = 1: each node window is exactly one child (or one null for a
        // leaf): root has 3, n3 has 2, leaves have 1 → 3 + 1 + 2 + 1 + 1 + 1.
        assert_eq!(compute_profile(&t, PQParams::new(1, 1)).len(), 9);
        // p = 1, q = 2: every node anchors max(f+1, 1) grams: 4+1+3+1+1+1.
        assert_eq!(compute_profile(&t, PQParams::new(1, 2)).len(), 11);
    }

    #[test]
    fn gram_count_matches_enumeration_on_generated_trees() {
        use pqgram_tree::generate::{random_tree, RandomTreeConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut lt = LabelTable::new();
        for _ in 0..5 {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(120, 5));
            for params in [
                PQParams::new(3, 3),
                PQParams::new(2, 2),
                PQParams::new(1, 2),
            ] {
                let mut emitted = 0u64;
                for_each_gram(&t, params, |pp, qp| {
                    assert_eq!(pp.len(), params.p());
                    assert_eq!(qp.len(), params.q());
                    emitted += 1;
                });
                assert_eq!(emitted, gram_count(&t, params));
                assert_eq!(compute_profile(&t, params).len() as u64, emitted);
            }
        }
    }

    #[test]
    fn anchor_is_never_null_and_labels_match_ids() {
        let (t, _, _) = paper_t0();
        for_each_gram(&t, PQParams::new(3, 2), |pp, qp| {
            let anchor = pp[pp.len() - 1];
            assert!(!anchor.is_null());
            for e in pp.iter().chain(qp) {
                if let GramNode::Node(id, l) = e {
                    assert_eq!(t.label(*id), *l);
                }
            }
        });
    }

    #[test]
    fn deep_tree_enumeration_does_not_overflow_stack() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let mut t = Tree::with_root(a);
        let mut cur = t.root();
        for _ in 0..50_000 {
            cur = t.add_child(cur, a);
        }
        // 50,000 unary nodes anchor f+q-1 = 3 grams each, the leaf anchors 1.
        assert_eq!(gram_count(&t, PQParams::new(3, 3)), 50_000 * 3 + 1);
        let mut count = 0u64;
        for_each_gram(&t, PQParams::new(3, 3), |_, _| count += 1);
        assert_eq!(count, 50_000 * 3 + 1);
    }
}
