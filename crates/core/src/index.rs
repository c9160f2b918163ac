//! The pq-gram index (Definition 3), the pq-gram distance, and approximate
//! lookups in forests.
//!
//! The index of a tree is the **bag** of label-tuples of its pq-grams,
//! stored as fixed-width fingerprints with multiplicities — exactly the
//! relation `(treeId, pqg, cnt)` of Figure 4, with [`ForestIndex`] playing
//! the role of the relation over a whole forest.

use crate::gram::label_tuple_fingerprint;
use crate::params::PQParams;
use crate::profile::for_each_key;
use pqgram_tree::fingerprint::Fingerprint;
use pqgram_tree::{FxHashMap, LabelTable, Tree};
use std::fmt;

/// Fingerprint of a pq-gram label-tuple — the `pqg` column of Figure 4.
pub type GramKey = Fingerprint;

/// Identifier of a tree within a forest — the `treeId` column of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeId(pub u64);

impl fmt::Debug for TreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The pq-gram index `I(T)` of one tree: a bag of gram fingerprints.
#[derive(Clone, PartialEq, Eq)]
pub struct TreeIndex {
    params: PQParams,
    counts: FxHashMap<GramKey, u32>,
    total: u64,
}

impl TreeIndex {
    /// An empty index (no grams) for the given parameters.
    pub fn empty(params: PQParams) -> Self {
        TreeIndex {
            params,
            counts: FxHashMap::default(),
            total: 0,
        }
    }

    /// An empty index with room for `distinct` different grams.
    fn with_capacity(params: PQParams, distinct: usize) -> Self {
        TreeIndex {
            params,
            counts: FxHashMap::with_capacity_and_hasher(distinct, Default::default()),
            total: 0,
        }
    }

    /// The index holding exactly the stored `(gram, count)` rows, in a bag
    /// sized for them: no growth while it is filled. A gram listed twice
    /// sums its counts; a zero count stores nothing.
    pub fn from_rows(params: PQParams, rows: &[(GramKey, u32)]) -> Self {
        let mut index = TreeIndex::with_capacity(params, rows.len());
        for &(gram, count) in rows {
            index.add_n(gram, count);
        }
        index
    }

    /// The pq-gram parameters this index was built with.
    #[inline]
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// Bag cardinality `|I(T)|` (number of pq-grams, duplicates counted).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct label-tuples.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of one gram fingerprint.
    #[inline]
    pub fn count(&self, key: GramKey) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Iterates `(fingerprint, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (GramKey, u32)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// Adds one occurrence of a gram.
    pub fn add(&mut self, key: GramKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds `n` occurrences of a gram in one step — `O(1)` instead of the
    /// `O(n)` loop of repeated [`TreeIndex::add`]. Reconstructing an index
    /// from stored `(gram, count)` rows is `O(distinct)` with this.
    pub fn add_n(&mut self, key: GramKey, n: u32) {
        if n == 0 {
            return;
        }
        *self.counts.entry(key).or_insert(0) += n;
        self.total += u64::from(n);
    }

    /// Removes one occurrence; returns `false` if the gram was absent
    /// (the index is left unchanged in that case).
    pub fn remove(&mut self, key: GramKey) -> bool {
        match self.counts.get_mut(&key) {
            Some(c) if *c > 1 => {
                *c -= 1;
            }
            Some(_) => {
                self.counts.remove(&key);
            }
            None => return false,
        }
        self.total -= 1;
        true
    }

    /// Size of the index in bytes under the compact on-disk encoding
    /// (varint fingerprint + varint count per distinct gram). Used by the
    /// index-size experiment (Figure 14, left).
    pub fn encoded_size(&self) -> usize {
        fn varint_len(mut v: u64) -> usize {
            let mut n = 1;
            while v >= 0x80 {
                v >>= 7;
                n += 1;
            }
            n
        }
        self.counts
            .iter()
            .map(|(&k, &c)| varint_len(k) + varint_len(u64::from(c)))
            .sum()
    }

    /// Structural invariant audit: every stored multiplicity is positive
    /// and the cached bag cardinality equals the sum of multiplicities.
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if let Some((&key, _)) = self.counts.iter().find(|(_, &c)| c == 0) {
            return Err(format!("gram {key:#x} stored with zero multiplicity"));
        }
        let sum: u64 = self.counts.values().map(|&c| u64::from(c)).sum();
        if sum != self.total {
            return Err(format!(
                "cached total {} disagrees with multiplicity sum {sum}",
                self.total
            ));
        }
        Ok(())
    }

    /// Audits this index against the tree it claims to describe: internal
    /// consistency ([`Self::validate`]), bag cardinality equal to the
    /// profile size `|P(T)|`, and gram-for-gram agreement with a fresh
    /// build. This is the invariant incremental maintenance must preserve
    /// (Theorem 3); property tests call it after every update batch.
    pub fn validate_against(&self, tree: &Tree, labels: &LabelTable) -> Result<(), String> {
        self.validate()?;
        let expected_total = crate::profile::gram_count(tree, self.params);
        if self.total != expected_total {
            return Err(format!(
                "bag cardinality {} != profile size {expected_total}",
                self.total
            ));
        }
        let fresh = build_index(tree, labels, self.params);
        for (key, count) in fresh.iter() {
            let have = self.count(key);
            if have != count {
                return Err(format!(
                    "gram {key:#x}: multiplicity {have}, fresh build has {count}"
                ));
            }
        }
        if self.distinct() != fresh.distinct() {
            return Err(format!(
                "{} distinct grams, fresh build has {}",
                self.distinct(),
                fresh.distinct()
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for TreeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeIndex")
            .field("params", &self.params)
            .field("distinct", &self.distinct())
            .field("total", &self.total)
            .finish()
    }
}

/// Builds the pq-gram index of `tree` in one depth-first pass
/// ([`for_each_key`]); no profile and no node-level gram is materialized.
pub fn build_index(tree: &Tree, labels: &LabelTable, params: PQParams) -> TreeIndex {
    // A tree has between n and q·n grams; most documents repeat few of them.
    let mut index = TreeIndex::with_capacity(params, tree.node_count());
    for_each_key(tree, labels, params, |key| index.add(key));
    index
}

/// Indexes a whole forest, fanning the per-tree work out over `threads`
/// scoped workers through [`crate::par`] (index construction is
/// embarrassingly parallel across documents — the dominant cost of initial
/// indexing, Figure 13 left). Each worker profiles its chunk of trees into
/// a private buffer; the buffers are merged in chunk order at the end, so
/// the result is identical to the serial build for every thread count.
pub fn build_forest_index_parallel(
    trees: &[(TreeId, &Tree)],
    labels: &LabelTable,
    params: PQParams,
    threads: usize,
) -> ForestIndex {
    let mut forest = ForestIndex::new();
    for (id, index) in crate::par::map(trees, threads, |&(id, tree)| {
        (id, build_index(tree, labels, params))
    }) {
        forest.insert(id, index);
    }
    forest
}

/// Builds the index directly from a label-tuple iterator — used by tests
/// and by the reference implementations.
pub fn index_from_tuples<I>(tuples: I, labels: &LabelTable, params: PQParams) -> TreeIndex
where
    I: IntoIterator,
    I::Item: IntoIterator<Item = pqgram_tree::LabelSym>,
{
    let mut index = TreeIndex::empty(params);
    for tuple in tuples {
        index.add(label_tuple_fingerprint(tuple, labels));
    }
    index
}

/// Two indexes built with different [`PQParams`] were compared.
///
/// Distances across parameterizations are meaningless — the bags draw from
/// different gram shapes — so the comparison is rejected as an invalid
/// argument instead of computed, mirroring the `check_params` guard of the
/// persistent stores. Indexes can come from untrusted files, so this is a
/// data condition, not a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamsMismatch {
    /// Parameters of the query (left-hand) index.
    pub got: PQParams,
    /// Parameters of the indexed (right-hand) side.
    pub expected: PQParams,
}

impl fmt::Display for ParamsMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid argument: parameter mismatch: got {:?}, index built with {:?}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for ParamsMismatch {}

/// The pq-gram distance (Section 3.2):
/// `dist(T, T') = 1 − 2·|I(T) ∩ I(T')| / |I(T) ⊎ I(T')|`,
/// with bag intersection and bag union. Ranges over `[0, 1]`; `0` for trees
/// with identical indexes, `1` for trees sharing no pq-grams. Two *empty*
/// indexes are at distance `0`: with nothing in either bag the trees are
/// indistinguishable under these parameters.
///
/// # Errors
///
/// Returns [`ParamsMismatch`] if the indexes were built with different
/// [`PQParams`]. The check precedes every other code path, including the
/// empty-bags shortcut: "both empty, distance 0" would silently paper over
/// a caller mixing parameterizations.
pub fn pq_distance(a: &TreeIndex, b: &TreeIndex) -> Result<f64, ParamsMismatch> {
    if a.params != b.params {
        return Err(ParamsMismatch {
            got: a.params,
            expected: b.params,
        });
    }
    let denominator = a.total + b.total;
    if denominator == 0 {
        return Ok(0.0);
    }
    // Iterate the smaller side.
    let (small, large) = if a.counts.len() <= b.counts.len() {
        (a, b)
    } else {
        (b, a)
    };
    let mut intersection = 0u64;
    for (&key, &c) in &small.counts {
        intersection += u64::from(c.min(large.count(key)));
    }
    Ok(1.0 - 2.0 * intersection as f64 / denominator as f64)
}

/// One approximate-lookup result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LookupHit {
    /// The matching tree.
    pub tree_id: TreeId,
    /// Its pq-gram distance to the query.
    pub distance: f64,
}

/// The pq-gram index of a forest `F = {T_1, …, T_N}` — the persistent
/// relation of Figure 4, kept per tree for distance computation.
#[derive(Clone, Debug, Default)]
pub struct ForestIndex {
    trees: FxHashMap<TreeId, TreeIndex>,
}

impl ForestIndex {
    /// An empty forest index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if no tree is indexed.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Inserts (or replaces) the index of `id`.
    pub fn insert(&mut self, id: TreeId, index: TreeIndex) -> Option<TreeIndex> {
        self.trees.insert(id, index)
    }

    /// Removes a tree's index.
    pub fn remove(&mut self, id: TreeId) -> Option<TreeIndex> {
        self.trees.remove(&id)
    }

    /// The index of one tree.
    pub fn get(&self, id: TreeId) -> Option<&TreeIndex> {
        self.trees.get(&id)
    }

    /// Mutable access (for incremental maintenance of a member tree).
    pub fn get_mut(&mut self, id: TreeId) -> Option<&mut TreeIndex> {
        self.trees.get_mut(&id)
    }

    /// Iterates `(id, index)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, &TreeIndex)> {
        self.trees.iter().map(|(&id, idx)| (id, idx))
    }

    /// The approximate lookup of Section 3.2: all trees whose pq-gram
    /// distance to `query` is below `tau`, sorted by ascending distance
    /// (ties by id). Fails with [`ParamsMismatch`] if the query was built
    /// with different parameters than the forest members.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>, ParamsMismatch> {
        let mut hits: Vec<LookupHit> = Vec::new();
        for (&tree_id, index) in &self.trees {
            let distance = pq_distance(query, index)?;
            if distance < tau {
                hits.push(LookupHit { tree_id, distance });
            }
        }
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.tree_id.cmp(&b.tree_id))
        });
        Ok(hits)
    }

    /// The `k` nearest trees to `query` by pq-gram distance (ascending;
    /// ties by id). Unlike [`ForestIndex::lookup`] there is no threshold —
    /// useful for "find the best matches" interfaces.
    pub fn lookup_top_k(
        &self,
        query: &TreeIndex,
        k: usize,
    ) -> Result<Vec<LookupHit>, ParamsMismatch> {
        let mut hits: Vec<LookupHit> = Vec::new();
        for (&tree_id, index) in &self.trees {
            let distance = pq_distance(query, index)?;
            hits.push(LookupHit { tree_id, distance });
        }
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.tree_id.cmp(&b.tree_id))
        });
        hits.truncate(k);
        Ok(hits)
    }

    /// [`ForestIndex::lookup`] with the distance computations fanned out
    /// over `threads` scoped workers through [`crate::par`]; lookup is
    /// read-only and embarrassingly parallel over trees. The final sort
    /// (distance, then id) makes the result identical to the serial path.
    pub fn lookup_parallel(
        &self,
        query: &TreeIndex,
        tau: f64,
        threads: usize,
    ) -> Result<Vec<LookupHit>, ParamsMismatch> {
        let entries: Vec<(&TreeId, &TreeIndex)> = self.trees.iter().collect();
        let mut hits: Vec<LookupHit> = Vec::new();
        for part in crate::par::map_chunks(&entries, threads, |part| {
            let mut out = Vec::new();
            for &(&tree_id, index) in part {
                let distance = pq_distance(query, index)?;
                if distance < tau {
                    out.push(LookupHit { tree_id, distance });
                }
            }
            Ok::<_, ParamsMismatch>(out)
        }) {
            hits.extend(part?);
        }
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.tree_id.cmp(&b.tree_id))
        });
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{EditOp, LabelTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_t0() -> (Tree, LabelTable) {
        let mut lt = LabelTable::new();
        let a = lt.intern("a");
        let b = lt.intern("b");
        let c = lt.intern("c");
        let e = lt.intern("e");
        let f = lt.intern("f");
        let mut t = Tree::with_root(a);
        let n1 = t.root();
        t.add_child(n1, c);
        let n3 = t.add_child(n1, b);
        t.add_child(n1, c);
        t.add_child(n3, e);
        t.add_child(n3, f);
        (t, lt)
    }

    #[test]
    fn index_counts_duplicates() {
        // Figure 4: the label-tuple (*,a,c,*,*,*) occurs twice in T0 (leaves
        // n2 and n4 share label c).
        let (t, lt) = paper_t0();
        let idx = build_index(&t, &lt, PQParams::new(3, 3));
        assert_eq!(idx.total(), 13);
        assert_eq!(idx.distinct(), 12);
        let null = pqgram_tree::LabelSym::NULL;
        let a = lt.lookup("a").unwrap();
        let c = lt.lookup("c").unwrap();
        let dup = label_tuple_fingerprint([null, a, c, null, null, null], &lt);
        assert_eq!(idx.count(dup), 2);
    }

    #[test]
    fn validate_reports_total_and_multiplicity_corruption() {
        let (t, lt) = paper_t0();
        let mut idx = build_index(&t, &lt, PQParams::new(3, 3));
        assert_eq!(idx.validate(), Ok(()));
        assert_eq!(idx.validate_against(&t, &lt), Ok(()));

        // Cached cardinality drifts from the stored multiplicities.
        idx.total += 1;
        let msg = idx.validate().unwrap_err();
        assert!(msg.contains("disagrees with multiplicity sum"), "{msg}");
        idx.total -= 1;

        // A gram stored with multiplicity zero (must be removed, not kept).
        let Some((&key, _)) = idx.counts.iter().next() else {
            panic!("paper tree index is non-empty");
        };
        if let Some(c) = idx.counts.get_mut(&key) {
            *c = 0;
        }
        let msg = idx.validate().unwrap_err();
        assert!(msg.contains("zero multiplicity"), "{msg}");
    }

    #[test]
    fn validate_against_reports_foreign_tree() {
        let (t, lt) = paper_t0();
        let idx = build_index(&t, &lt, PQParams::new(3, 3));
        let mut lt2 = LabelTable::new();
        let other = Tree::with_root(lt2.intern("z"));
        let msg = idx.validate_against(&other, &lt2).unwrap_err();
        assert!(msg.contains("bag cardinality"), "{msg}");
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        let (t, lt) = paper_t0();
        let i1 = build_index(&t, &lt, PQParams::default());
        let i2 = build_index(&t, &lt, PQParams::default());
        assert_eq!(pq_distance(&i1, &i2), Ok(0.0));
    }

    #[test]
    fn disjoint_trees_have_distance_one() {
        let mut lt = LabelTable::new();
        let t1 = Tree::with_root(lt.intern("x"));
        let t2 = Tree::with_root(lt.intern("y"));
        let p = PQParams::default();
        let d = pq_distance(&build_index(&t1, &lt, p), &build_index(&t2, &lt, p));
        assert_eq!(d, Ok(1.0));
    }

    #[test]
    fn small_edit_small_distance() -> Result<(), ParamsMismatch> {
        let mut rng = StdRng::seed_from_u64(8);
        let mut lt = LabelTable::new();
        let t1 = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(300, 5));
        let mut t2 = t1.clone();
        let x = lt.intern("completely-new-label");
        let leaf = t2
            .preorder(t2.root())
            .find(|&n| t2.is_leaf(n) && n != t2.root())
            .unwrap();
        t2.apply(EditOp::Rename {
            node: leaf,
            label: x,
        })
        .unwrap();
        let p = PQParams::default();
        let d = pq_distance(&build_index(&t1, &lt, p), &build_index(&t2, &lt, p))?;
        assert!(d > 0.0 && d < 0.1, "distance {d} out of expected band");
        Ok(())
    }

    #[test]
    fn distance_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lt = LabelTable::new();
        let p = PQParams::new(2, 3);
        for _ in 0..5 {
            let t1 = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(80, 4));
            let t2 = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(90, 4));
            let (i1, i2) = (build_index(&t1, &lt, p), build_index(&t2, &lt, p));
            assert_eq!(pq_distance(&i1, &i2), pq_distance(&i2, &i1));
        }
    }

    #[test]
    fn mismatched_params_are_rejected() {
        let (t, lt) = paper_t0();
        let i1 = build_index(&t, &lt, PQParams::new(2, 2));
        let i2 = build_index(&t, &lt, PQParams::new(3, 3));
        let err = pq_distance(&i1, &i2).unwrap_err();
        assert_eq!(err.got, PQParams::new(2, 2));
        assert_eq!(err.expected, PQParams::new(3, 3));
        let msg = err.to_string();
        assert!(msg.contains("parameter mismatch"), "{msg}");
    }

    #[test]
    fn mismatched_params_rejected_even_for_empty_indexes() {
        // The parameter check must come before the empty-bags shortcut:
        // "both empty, distance 0" would silently paper over a caller mixing
        // parameterizations.
        let err = pq_distance(
            &TreeIndex::empty(PQParams::new(2, 2)),
            &TreeIndex::empty(PQParams::new(3, 3)),
        )
        .unwrap_err();
        assert_eq!(err.got, PQParams::new(2, 2));
    }

    #[test]
    fn add_remove_roundtrip() {
        let (t, lt) = paper_t0();
        let mut idx = build_index(&t, &lt, PQParams::default());
        let snapshot = idx.clone();
        let key = 12345u64;
        assert!(!idx.remove(key), "absent key must not be removable");
        idx.add(key);
        idx.add(key);
        assert_eq!(idx.count(key), 2);
        assert!(idx.remove(key));
        assert_eq!(idx.count(key), 1);
        assert!(idx.remove(key));
        assert_eq!(idx, snapshot);
    }

    #[test]
    fn add_n_matches_repeated_add() {
        let (t, lt) = paper_t0();
        let mut by_loop = TreeIndex::empty(PQParams::default());
        let mut by_batch = TreeIndex::empty(PQParams::default());
        for (key, count) in build_index(&t, &lt, PQParams::default()).iter() {
            for _ in 0..count {
                by_loop.add(key);
            }
            by_batch.add_n(key, count);
        }
        assert_eq!(by_loop, by_batch);
        assert_eq!(by_batch.validate(), Ok(()));
        // add_n(_, 0) is a no-op, not a zero-multiplicity entry.
        by_batch.add_n(0xdead, 0);
        assert_eq!(by_batch.count(0xdead), 0);
        assert_eq!(by_batch.validate(), Ok(()));
    }

    #[test]
    fn forest_lookup_orders_by_distance() -> Result<(), ParamsMismatch> {
        let mut rng = StdRng::seed_from_u64(10);
        let mut lt = LabelTable::new();
        let p = PQParams::default();
        let base = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(200, 5));
        let query = build_index(&base, &lt, p);

        let mut forest = ForestIndex::new();
        // T0: identical; T1: slightly edited; T2: unrelated.
        forest.insert(TreeId(0), query.clone());
        let mut edited = base.clone();
        let nn = lt.intern("zz-edit");
        let some_leaf = edited
            .preorder(edited.root())
            .find(|&n| edited.is_leaf(n))
            .unwrap();
        edited
            .apply(EditOp::Rename {
                node: some_leaf,
                label: nn,
            })
            .unwrap();
        forest.insert(TreeId(1), build_index(&edited, &lt, p));
        let unrelated = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(200, 5));
        forest.insert(TreeId(2), build_index(&unrelated, &lt, p));

        let hits = forest.lookup(&query, 0.5)?;
        assert!(hits.len() >= 2);
        assert_eq!(hits[0].tree_id, TreeId(0));
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits[1].tree_id, TreeId(1));
        assert!(hits[1].distance > 0.0);
        assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        Ok(())
    }

    #[test]
    fn parallel_lookup_matches_serial() -> Result<(), ParamsMismatch> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lt = LabelTable::new();
        let p = PQParams::new(2, 2);
        let mut forest = ForestIndex::new();
        for i in 0..37 {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(60, 4));
            forest.insert(TreeId(i), build_index(&t, &lt, p));
        }
        let q = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(60, 4));
        let query = build_index(&q, &lt, p);
        let serial = forest.lookup(&query, 0.9)?;
        for threads in [1, 2, 4, 16, 64] {
            assert_eq!(forest.lookup_parallel(&query, 0.9, threads)?, serial);
        }
        Ok(())
    }

    #[test]
    fn forest_lookup_rejects_mismatched_query() {
        let (t, lt) = paper_t0();
        let mut forest = ForestIndex::new();
        forest.insert(TreeId(0), build_index(&t, &lt, PQParams::new(3, 3)));
        let query = build_index(&t, &lt, PQParams::new(2, 2));
        assert!(forest.lookup(&query, 0.5).is_err());
        assert!(forest.lookup_top_k(&query, 3).is_err());
        assert!(forest.lookup_parallel(&query, 0.5, 4).is_err());
    }

    #[test]
    fn encoded_size_grows_with_content() {
        let (t, lt) = paper_t0();
        let idx = build_index(&t, &lt, PQParams::default());
        let empty = TreeIndex::empty(PQParams::default());
        assert_eq!(empty.encoded_size(), 0);
        assert!(idx.encoded_size() >= idx.distinct() * 2);
    }
}

#[cfg(test)]
mod top_k_tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top_k_orders_and_truncates() -> Result<(), ParamsMismatch> {
        let mut rng = StdRng::seed_from_u64(21);
        let mut lt = LabelTable::new();
        let params = PQParams::new(2, 2);
        let mut forest = ForestIndex::new();
        for i in 0..25u64 {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(40, 4));
            forest.insert(TreeId(i), build_index(&t, &lt, params));
        }
        let q = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(40, 4));
        let query = build_index(&q, &lt, params);
        let top = forest.lookup_top_k(&query, 5)?;
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].distance <= w[1].distance));
        // Consistent with the thresholded lookup at tau just above the 5th.
        let tau = top[4].distance + 1e-9;
        let thresholded = forest.lookup(&query, tau)?;
        assert_eq!(&thresholded[..5], &top[..]);
        // k larger than the forest returns everything.
        assert_eq!(forest.lookup_top_k(&query, 100)?.len(), 25);
        assert!(forest.lookup_top_k(&query, 0)?.is_empty());
        Ok(())
    }
}

#[cfg(test)]
mod parallel_build_tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_build_matches_serial() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut lt = LabelTable::new();
        let params = PQParams::new(2, 3);
        let trees: Vec<Tree> = (0..23)
            .map(|_| random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(80, 5)))
            .collect();
        let refs: Vec<(TreeId, &Tree)> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| (TreeId(i as u64), t))
            .collect();
        for threads in [1, 3, 8, 64] {
            let forest = build_forest_index_parallel(&refs, &lt, params, threads);
            assert_eq!(forest.len(), 23);
            for (i, t) in trees.iter().enumerate() {
                assert_eq!(
                    forest.get(TreeId(i as u64)).unwrap(),
                    &build_index(t, &lt, params)
                );
            }
        }
        // Empty forest edge case.
        assert!(build_forest_index_parallel(&[], &lt, params, 4).is_empty());
    }
}
