//! Heuristic tree diff: turn two document *versions* into an edit script.
//!
//! The paper's maintenance scenario assumes the application supplies the log
//! of edit operations. When only the two document versions exist (the
//! common case for file-based documents), a diff must derive a script. This
//! crate implements a Merkle-hash guided structural diff in the spirit of
//! XyDiff / change-detection systems (the paper's reference \[4\]):
//!
//! 1. every subtree gets a fingerprint (label + child fingerprints);
//! 2. per node, the child lists of the two versions are aligned on equal
//!    fingerprints with a longest-increasing-subsequence match
//!    (`O(n log n)` per child list, robust to repeated content);
//! 3. aligned-but-unequal pairs recurse, extra old children are deleted,
//!    extra new children are inserted (as whole subtrees), and label
//!    mismatches become renames.
//!
//! The script is applied to the old tree as it is produced (node ids stay in
//! the old tree's lineage) and returned as an [`EditLog`] — ready for the
//! incremental index maintenance. The result is **not guaranteed minimal**
//! (minimal edit scripts cost `O(n³)`); it is verified label-isomorphic and
//! is near-minimal for local changes.
//!
//! ```
//! use pqgram_tree::{LabelTable, Tree};
//! use pqgram_diff::sync;
//!
//! let mut labels = LabelTable::new();
//! let (a, b, c) = (labels.intern("a"), labels.intern("b"), labels.intern("c"));
//! let mut old = Tree::with_root(a);
//! let root = old.root();
//! old.add_child(root, b);
//!
//! let mut new = Tree::with_root(a);
//! let new_root = new.root();
//! new.add_child(new_root, c);
//!
//! let new_labels = labels.clone();
//! let log = sync(&mut old, &mut labels, &new, &new_labels).unwrap();
//! assert_eq!(log.len(), 1); // one rename b -> c
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use pqgram_tree::fingerprint::{arity_mark, combine, mix, Fingerprint, TUPLE_SEED};
use pqgram_tree::subtree::{delete_subtree, insert_subtree, Spec};
use pqgram_tree::{EditError, EditLog, EditOp, FxHashMap, LabelSym, LabelTable, NodeId, Tree};

/// Why a diff could not be computed.
#[derive(Debug, PartialEq, Eq)]
pub enum DiffError {
    /// The root labels differ; the edit model never edits the root
    /// (re-index from scratch instead).
    RootRelabeled,
    /// An edit failed to apply (internal invariant violation).
    Edit(EditError),
    /// The produced script did not converge to the target (would indicate a
    /// fingerprint collision; astronomically unlikely).
    Diverged,
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::RootRelabeled => {
                write!(
                    f,
                    "the root label changed; the edit model cannot rename the root"
                )
            }
            DiffError::Edit(e) => write!(f, "derived edit failed to apply: {e}"),
            DiffError::Diverged => write!(f, "diff did not converge (fingerprint collision?)"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<EditError> for DiffError {
    fn from(e: EditError) -> Self {
        DiffError::Edit(e)
    }
}

/// Transforms `old` (in place) into a tree label-isomorphic to `new`,
/// returning the edit log. Labels of `new` are interned into `labels` (the
/// table `old` uses); `new_labels` is `new`'s own table.
pub fn sync(
    old: &mut Tree,
    labels: &mut LabelTable,
    new: &Tree,
    new_labels: &LabelTable,
) -> Result<EditLog, DiffError> {
    // Map every label of `new` into `old`'s table.
    let mut sym_map: FxHashMap<LabelSym, LabelSym> = FxHashMap::default();
    for n in new.preorder(new.root()) {
        let s = new.label(n);
        sym_map
            .entry(s)
            .or_insert_with(|| labels.intern(new_labels.name(s)));
    }

    if labels.fingerprint(old.label(old.root()))
        != labels.fingerprint(sym_map[&new.label(new.root())])
    {
        return Err(DiffError::RootRelabeled);
    }

    let new_hashes = subtree_hashes(new, |s| labels.fingerprint(sym_map[&s]));

    let mut log = EditLog::new();
    align(
        old,
        labels,
        new,
        &sym_map,
        &new_hashes,
        old.root(),
        new.root(),
        &mut log,
    )?;

    if !label_isomorphic(old, new, &sym_map) {
        return Err(DiffError::Diverged);
    }
    Ok(log)
}

/// Merkle fingerprints of every subtree of `tree` (indexed by slot).
fn subtree_hashes(tree: &Tree, label_fp: impl Fn(LabelSym) -> Fingerprint) -> Vec<Fingerprint> {
    let mut hashes = vec![0u64; tree.slot_count()];
    for node in tree.postorder(tree.root()) {
        let mut acc = combine(TUPLE_SEED, label_fp(tree.label(node)));
        for &c in tree.children(node) {
            acc = combine(acc, mix(hashes[c.index()]));
        }
        // Close the node with its arity: see `fingerprint::arity_mark`.
        hashes[node.index()] = combine(acc, arity_mark(tree.fanout(node)));
    }
    hashes
}

/// Recomputes the Merkle hash of one old-tree subtree on demand (the old
/// tree mutates during the diff, so old hashes cannot be precomputed once).
fn old_hash(tree: &Tree, labels: &LabelTable, node: NodeId) -> Fingerprint {
    // Iterative postorder accumulation over the (small) subtree.
    let mut memo: FxHashMap<NodeId, Fingerprint> = FxHashMap::default();
    for n in tree.postorder(node) {
        let mut acc = combine(TUPLE_SEED, labels.fingerprint(tree.label(n)));
        for &c in tree.children(n) {
            acc = combine(acc, mix(memo[&c]));
        }
        memo.insert(n, combine(acc, arity_mark(tree.fanout(n))));
    }
    memo[&node]
}

#[allow(clippy::too_many_arguments)]
fn align(
    old: &mut Tree,
    labels: &mut LabelTable,
    new: &Tree,
    sym_map: &FxHashMap<LabelSym, LabelSym>,
    new_hashes: &[Fingerprint],
    old_node: NodeId,
    new_node: NodeId,
    log: &mut EditLog,
) -> Result<(), DiffError> {
    // Label fix-up (the root is guaranteed equal by `sync`).
    let want = sym_map[&new.label(new_node)];
    if old.label(old_node) != want {
        log.push(old.apply_logged(EditOp::Rename {
            node: old_node,
            label: want,
        })?);
    }

    let old_children: Vec<NodeId> = old.children(old_node).to_vec();
    let new_children: Vec<NodeId> = new.children(new_node).to_vec();

    // Fingerprints of both child lists.
    let old_fps: Vec<Fingerprint> = old_children
        .iter()
        .map(|&c| old_hash(old, labels, c))
        .collect();
    let new_fps: Vec<Fingerprint> = new_children
        .iter()
        .map(|&c| new_hashes[c.index()])
        .collect();

    // Greedy hash assignment + LIS: a linearithmic common-subsequence
    // approximation that is exact when equal subtrees are unique.
    let matched = match_children(&old_fps, &new_fps);

    // Between consecutive matches, pair leftovers positionally; surplus old
    // children are deleted, surplus new children inserted.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut deletions: Vec<NodeId> = Vec::new();
    let mut insertions: Vec<usize> = Vec::new(); // indices into `new_children`
    {
        let mut oi = 0usize;
        let mut ni = 0usize;
        let anchors = matched
            .iter()
            .copied()
            .chain([(old_children.len(), new_children.len())]);
        for (ao, an) in anchors {
            let gap_old = &old_children[oi..ao];
            let gap_new = &new_children[ni..an];
            let paired = gap_old.len().min(gap_new.len());
            for k in 0..paired {
                pairs.push((gap_old[k], gap_new[k]));
            }
            deletions.extend_from_slice(&gap_old[paired..]);
            insertions.extend(ni + paired..an);
            oi = ao + 1;
            ni = an + 1;
        }
    }

    // 1. Remove surplus old subtrees (ids are stable under sibling shifts).
    for d in deletions {
        for entry in delete_subtree(old, d)? {
            log.push(entry);
        }
    }
    // 2. Insert surplus new subtrees at their final positions. After the
    //    deletions, the old child list contains exactly the counterparts of
    //    the kept new children, in matching relative order, so the target
    //    position equals the new-tree position.
    for i in insertions {
        let spec = capture_spec(new, new_children[i], sym_map);
        let (_, entries) = insert_subtree(old, old_node, i + 1, &spec)?;
        for entry in entries {
            log.push(entry);
        }
    }
    // 3. Recurse into imperfectly-matched pairs (matched anchors are equal
    //    subtrees and need nothing).
    for (o, n) in pairs {
        align(old, labels, new, sym_map, new_hashes, o, n, log)?;
    }
    Ok(())
}

/// Matches equal fingerprints between two child lists, keeping a longest
/// increasing subsequence so matches never cross.
fn match_children(old_fps: &[Fingerprint], new_fps: &[Fingerprint]) -> Vec<(usize, usize)> {
    // hash -> queue of new positions (ascending).
    let mut by_hash: FxHashMap<Fingerprint, std::collections::VecDeque<usize>> =
        FxHashMap::default();
    for (i, &h) in new_fps.iter().enumerate() {
        by_hash.entry(h).or_default().push_back(i);
    }
    // Greedy assignment in old order.
    let mut candidate: Vec<(usize, usize)> = Vec::new(); // (old_idx, new_idx)
    for (oi, &h) in old_fps.iter().enumerate() {
        if let Some(queue) = by_hash.get_mut(&h) {
            if let Some(ni) = queue.pop_front() {
                candidate.push((oi, ni));
            }
        }
    }
    // LIS over the new indices.
    lis_by_second(&candidate)
}

/// Longest strictly-increasing subsequence of `pairs` by the second
/// component (first components are already ascending). `O(n log n)`.
fn lis_by_second(pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    if pairs.is_empty() {
        return Vec::new();
    }
    // tails[k] = index into `pairs` of the smallest tail of an increasing
    // subsequence of length k+1.
    let mut tails: Vec<usize> = Vec::new();
    let mut prev: Vec<Option<usize>> = vec![None; pairs.len()];
    for (i, &(_, n)) in pairs.iter().enumerate() {
        let pos = tails.partition_point(|&t| pairs[t].1 < n);
        if pos > 0 {
            prev[i] = Some(tails[pos - 1]);
        }
        if pos == tails.len() {
            tails.push(i);
        } else {
            tails[pos] = i;
        }
    }
    let mut out = Vec::with_capacity(tails.len());
    let mut cur = tails.last().copied();
    while let Some(i) = cur {
        out.push(pairs[i]);
        cur = prev[i];
    }
    out.reverse();
    out
}

/// Captures a new-tree subtree as a [`Spec`] with labels mapped into the
/// old tree's table.
fn capture_spec(new: &Tree, node: NodeId, sym_map: &FxHashMap<LabelSym, LabelSym>) -> Spec {
    Spec {
        label: sym_map[&new.label(node)],
        children: new
            .children(node)
            .iter()
            .map(|&c| capture_spec(new, c, sym_map))
            .collect(),
    }
}

/// Structural equality with labels compared through the sym map.
fn label_isomorphic(old: &Tree, new: &Tree, sym_map: &FxHashMap<LabelSym, LabelSym>) -> bool {
    let mut stack = vec![(old.root(), new.root())];
    while let Some((o, n)) = stack.pop() {
        if old.label(o) != sym_map[&new.label(n)] || old.fanout(o) != new.fanout(n) {
            return false;
        }
        stack.extend(
            old.children(o)
                .iter()
                .copied()
                .zip(new.children(n).iter().copied()),
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(labels: &mut LabelTable, names: &[&str]) -> Tree {
        let mut t = Tree::with_root(labels.intern(names[0]));
        let mut cur = t.root();
        for n in &names[1..] {
            cur = t.add_child(cur, labels.intern(n));
        }
        t
    }

    #[test]
    fn identical_trees_need_no_edits() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = LabelTable::new();
        let mut old = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(80, 5));
        let new = old.clone();
        let new_lt = lt.clone();
        let log = sync(&mut old, &mut lt, &new, &new_lt).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn single_rename_found() {
        let mut lt = LabelTable::new();
        let mut old = chain(&mut lt, &["a", "b", "c"]);
        let mut nlt = LabelTable::new();
        let new = chain(&mut nlt, &["a", "x", "c"]);
        let before = old.node_count();
        let log = sync(&mut old, &mut lt, &new, &nlt).unwrap();
        assert_eq!(log.len(), 1);
        assert!(matches!(log.ops()[0].op, EditOp::Rename { .. }));
        assert_eq!(old.node_count(), before);
    }

    #[test]
    fn root_relabel_rejected() {
        let mut lt = LabelTable::new();
        let mut old = chain(&mut lt, &["a", "b"]);
        let mut nlt = LabelTable::new();
        let new = chain(&mut nlt, &["z", "b"]);
        assert_eq!(
            sync(&mut old, &mut lt, &new, &nlt).unwrap_err(),
            DiffError::RootRelabeled
        );
    }

    #[test]
    fn added_and_removed_fields() {
        let mut lt = LabelTable::new();
        let a = lt.intern("article");
        let mut old = Tree::with_root(a);
        let or = old.root();
        for f in ["author", "title", "year"] {
            let n = old.add_child(or, lt.intern(f));
            old.add_child(n, lt.intern(&format!("{f}-value")));
        }
        let mut nlt = LabelTable::new();
        let mut new = Tree::with_root(nlt.intern("article"));
        let nr = new.root();
        for f in ["author", "booktitle", "year", "pages"] {
            let n = new.add_child(nr, nlt.intern(f));
            new.add_child(n, nlt.intern(&format!("{f}-value")));
        }
        // old: author title year; new: author booktitle year pages.
        let log = sync(&mut old, &mut lt, &new, &nlt).unwrap();
        // title→booktitle is a positional pair (2 renames: field + value);
        // pages(+value) is an insertion (2 ops). Allow the heuristic some
        // slack but catch regressions into delete-everything behaviour.
        assert!(log.len() <= 6, "script too long: {}", log.len());
        assert_eq!(old.node_count(), 9);
    }

    #[test]
    fn moved_subtree_is_delete_plus_insert() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let (b, c, d) = (lt.intern("b"), lt.intern("c"), lt.intern("d"));
        let mut old = Tree::with_root(a);
        let or = old.root();
        let ob = old.add_child(or, b);
        old.add_child(ob, d);
        old.add_child(or, c);
        // new: subtree b(d) moved under c.
        let mut nlt = LabelTable::new();
        let mut new = Tree::with_root(nlt.intern("a"));
        let nr = new.root();
        let nc = new.add_child(nr, nlt.intern("c"));
        let nb = new.add_child(nc, nlt.intern("b"));
        new.add_child(nb, nlt.intern("d"));
        let log = sync(&mut old, &mut lt, &new, &nlt).unwrap();
        assert!(!log.is_empty());
        assert!(old.isomorphic(&{
            // Rebuild expected via the same labels table for comparison.
            let mut e = Tree::with_root(a);
            let er = e.root();
            let ec = e.add_child(er, c);
            let eb = e.add_child(ec, b);
            e.add_child(eb, d);
            e
        }));
    }

    #[test]
    fn log_rewinds_back_to_original() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lt = LabelTable::new();
            let mut old = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(60, 5));
            let snapshot = old.clone();
            // Target: an edited copy (this also exercises non-trivial but
            // related structures).
            let mut target = old.clone();
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            record_script(&mut rng, &mut target, &ScriptConfig::new(10, alphabet));
            let target_labels = lt.clone();
            let log = sync(&mut old, &mut lt, &target, &target_labels).unwrap();
            assert!(old.isomorphic(&target), "seed {seed}");
            log.rewind(&mut old).unwrap();
            assert_eq!(
                old, snapshot,
                "seed {seed}: log must rewind to the original"
            );
        }
    }

    #[test]
    fn script_is_local_for_local_changes() {
        // One changed leaf in a 2000-node document must not trigger a
        // wholesale rewrite.
        let mut rng = StdRng::seed_from_u64(9);
        let mut lt = LabelTable::new();
        let mut old = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(2_000, 8));
        let mut target = old.clone();
        let leaf = target
            .preorder(target.root())
            .find(|&n| target.is_leaf(n))
            .unwrap();
        let z = lt.intern("zzz-new");
        target
            .apply(EditOp::Rename {
                node: leaf,
                label: z,
            })
            .unwrap();
        let tlt = lt.clone();
        let log = sync(&mut old, &mut lt, &target, &tlt).unwrap();
        assert!(
            log.len() <= 2,
            "expected a near-minimal script, got {}",
            log.len()
        );
    }

    #[test]
    fn lis_picks_longest_noncrossing() {
        let m = lis_by_second(&[(0, 5), (1, 1), (2, 2), (3, 0), (4, 3)]);
        assert_eq!(m, vec![(1, 1), (2, 2), (4, 3)]);
        assert!(lis_by_second(&[]).is_empty());
    }

    #[test]
    fn repeated_subtrees_match_in_order() {
        // Old: x x x ; New: x x — one deletion, no churn.
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let x = lt.intern("x");
        let mut old = Tree::with_root(a);
        let or = old.root();
        for _ in 0..3 {
            old.add_child(or, x);
        }
        let mut nlt = LabelTable::new();
        let mut new = Tree::with_root(nlt.intern("a"));
        let nr = new.root();
        for _ in 0..2 {
            new.add_child(nr, nlt.intern("x"));
        }
        let log = sync(&mut old, &mut lt, &new, &nlt).unwrap();
        assert_eq!(log.len(), 1, "exactly one delete");
    }
}
