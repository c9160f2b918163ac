//! The persistent pq-gram forest index.
//!
//! One store file holds the relation `(treeId, pqg, cnt)` of Figure 4 plus
//! two derived relations — the inverted postings `(pqg, treeId, cnt)` and
//! the per-tree bag sizes `(treeId, |I(T)|)` — in three B+-trees of the
//! same file (see [`crate::ops`] for the layout and format versioning),
//! plus the `p, q` parameters in the header. All mutating operations are
//! transactional (rollback journal) and maintain the three relations
//! together: a crash mid-update leaves the previous, mutually consistent
//! state.
//!
//! The two workloads of the paper's evaluation map to:
//!
//! * **approximate lookup** ([`IndexStore::lookup`],
//!   [`IndexStore::lookup_top_k`]) — a planner-driven candidate merge over
//!   the inverted relation: consult the gram filter and the feasible
//!   size window, probe only the query grams that can matter, verify only
//!   the candidates the planner cannot rule out (Section 9.1). Every
//!   threshold runs this one plan — `τ > 1` enumerates the zero-overlap
//!   trees from the totals relation instead of scanning;
//! * **incremental update** ([`IndexStore::apply_delta`],
//!   [`IndexStore::update_from_log`]) — applies `I ← I \ I⁻ ⊎ I⁺` from an
//!   edit log without touching unrelated entries (Sections 8–9.2).

use crate::btree::{BTree, Fill};
use crate::ops::{
    check_params, lookup, BuildRows, LookupStats, RelationBytes, Sources, StoreCheck, Want,
    SLOT_FWD,
};
use crate::pager::StoreError;
use crate::segment::{Role, Source};
use pqgram_core::maintain::{compute_index_delta, IndexDelta, MaintainError, UpdateStats};
use pqgram_core::par::Helpers;
use pqgram_core::{GramKey, LookupHit, PQParams, TreeId, TreeIndex};
use pqgram_tree::{EditLog, LabelTable, Tree};
use std::fmt;
use std::path::Path;

/// Errors of the persistent index layer.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Store(StoreError),
    /// Incremental maintenance failure (log/tree/index mismatch).
    Maintain(MaintainError),
    /// A delta removal referenced a gram the stored tree does not have.
    InconsistentDelta(TreeId, GramKey),
    /// Operation on a tree that is not in the store.
    UnknownTree(TreeId),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Store(e) => write!(f, "storage error: {e}"),
            IndexError::Maintain(e) => write!(f, "maintenance error: {e}"),
            IndexError::InconsistentDelta(t, g) => {
                write!(f, "delta removes gram {g:#x} absent from {t:?}")
            }
            IndexError::UnknownTree(t) => write!(f, "tree {t:?} is not in the store"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StoreError> for IndexError {
    fn from(e: StoreError) -> Self {
        IndexError::Store(e)
    }
}

impl From<MaintainError> for IndexError {
    fn from(e: MaintainError) -> Self {
        IndexError::Maintain(e)
    }
}

type Result<T> = std::result::Result<T, IndexError>;

/// A persistent forest index file: one [`Source`] — the relation file and
/// its resident mirrors — plus the parameters its grams were built with.
///
/// Single writer XOR many readers is the borrow checker's rule: writes
/// take `&mut self`, and no `&self` method writes a page (`cargo xtask
/// analyze` proves it, rule `reader-writes`). So any number of threads may
/// share a `&IndexStore` (or an `Arc<IndexStore>`) and look up at once;
/// the buffer pool's sharded read path lets them proceed concurrently.
pub struct IndexStore {
    file: Source,
    params: PQParams,
}

// Readers share the store across threads; if a future change smuggles a
// non-Send/Sync member into it, fail the build here rather than at every
// call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IndexStore>();
};

impl IndexStore {
    /// Creates a new store file for the given pq-gram parameters.
    pub fn create(path: &Path, params: PQParams) -> Result<IndexStore> {
        Self::create_with(path, params, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`IndexStore::create`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    pub fn create_with(
        path: &Path,
        params: PQParams,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
    ) -> Result<IndexStore> {
        let file = Source::create(vfs, path, params, Role::Main, |_| Ok(()))?;
        Ok(IndexStore { file, params })
    }

    /// Opens an existing store (running crash recovery if needed).
    pub fn open(path: &Path) -> Result<IndexStore> {
        Self::open_with(path, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`IndexStore::open`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    // analyze: entrypoint(recovery)
    pub fn open_with(path: &Path, vfs: std::sync::Arc<dyn crate::vfs::Vfs>) -> Result<IndexStore> {
        let (file, params) = Source::open(vfs, path, Role::Main)?;
        Ok(IndexStore { file, params })
    }

    /// The store over an opened file of another role (a document store's),
    /// whose grams were built with `params`.
    pub(crate) fn over(file: Source, params: PQParams) -> IndexStore {
        IndexStore { file, params }
    }

    /// The pq-gram parameters this store was created with.
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// The store's one source: its file, masking nothing.
    pub(crate) fn source(&self) -> &Source {
        &self.file
    }

    /// The store's one source, for a writer that keeps more in the file
    /// than the relations (a document store's blobs).
    pub(crate) fn source_mut(&mut self) -> &mut Source {
        &mut self.file
    }

    /// Inserts (or replaces) the index of one tree. Transactional.
    // analyze: entrypoint
    pub fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<()> {
        check_params(index.params(), self.params)?;
        self.file.put_trees(&[(id, index)], |_| Ok(()))
    }

    /// Inserts (or replaces) a whole batch of trees in **one** transaction —
    /// the single-writer half of the parallel ingest pipeline: callers
    /// profile documents concurrently (`pqgram_core::par`), then hand the
    /// finished batch to this method. One journal capture and one commit
    /// sync amortize over the batch instead of per tree.
    // analyze: entrypoint
    pub fn put_trees(&mut self, batch: &[(TreeId, TreeIndex)]) -> Result<()> {
        for (_, index) in batch {
            check_params(index.params(), self.params)?;
        }
        let batch: Vec<(TreeId, &TreeIndex)> = batch.iter().map(|(id, ix)| (*id, ix)).collect();
        self.file.put_trees(&batch, |_| Ok(()))
    }

    /// Removes a tree from the store. Transactional. Returns `true` if the
    /// tree existed.
    pub fn remove_tree(&mut self, id: TreeId) -> Result<bool> {
        let existed = self.contains_tree(id)?;
        if existed {
            self.file.remove_tree(id, |_| Ok::<_, IndexError>(()))?;
        }
        Ok(existed)
    }

    /// True if any gram of `id` is stored: answered by the totals mirror,
    /// no page read.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        Ok(self.file.totals().get(id.0).is_some())
    }

    /// Materializes the in-memory index of one stored tree.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        Ok(crate::ops::tree_index(self.file.pool(), self.params, id)?)
    }

    /// All stored tree ids, ascending: read off the totals mirror, no page
    /// read.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        let ids = self.file.totals().sorted().into_iter();
        Ok(ids.map(|(t, _)| TreeId(t)).collect())
    }

    /// Applies an incremental update delta (`I ← I \ I⁻ ⊎ I⁺`) to one tree.
    /// Transactional: on any inconsistency the store is left unchanged.
    pub fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<()> {
        self.file
            .apply_delta(id, delta, IndexError::InconsistentDelta, |_| Ok(()))
    }

    /// The full pipeline of the paper: given the stored old index of `id`,
    /// the resulting tree and the log of inverse operations, computes
    /// `I⁺`/`I⁻` (Algorithm 1) and applies them in one transaction.
    pub fn update_from_log(
        &mut self,
        id: TreeId,
        tree: &Tree,
        labels: &LabelTable,
        log: &EditLog,
    ) -> Result<UpdateStats> {
        if !self.contains_tree(id)? {
            return Err(IndexError::UnknownTree(id));
        }
        let (delta, mut stats) = compute_index_delta(tree, labels, log, self.params)?;
        let t = std::time::Instant::now();
        self.apply_delta(id, &delta)?;
        stats.apply = t.elapsed();
        Ok(stats)
    }

    /// The approximate lookup of Section 3.2 over the stored forest: all
    /// trees with `dist(query, T) < tau`, ascending by distance. Every
    /// threshold runs the planner-driven candidate merge over the inverted
    /// relation; `τ > 1` additionally enumerates the zero-overlap trees
    /// (distance exactly 1) from the totals relation.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_with_stats(query, tau)?.0)
    }

    /// The `k` stored trees nearest to `query` by pq-gram distance,
    /// ascending by `(distance, id)` — exactly the first `k` entries of
    /// the distance-sorted exhaustive answer. The merge's pruning bound
    /// starts at distance 1 and tightens to the heap's worst kept distance
    /// as it fills.
    pub fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_top_k_with_stats(query, k)?.0)
    }

    /// [`IndexStore::lookup_top_k`] also returning the access-path
    /// counters of the executed plan.
    // analyze: entrypoint
    pub fn lookup_top_k_with_stats(
        &self,
        query: &TreeIndex,
        k: usize,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.search(query, Want::Nearest(k))
    }

    /// [`IndexStore::lookup`] also returning the access-path counters of
    /// the executed plan.
    // analyze: entrypoint
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.search(query, Want::Within(tau))
    }

    /// The one lookup walk (`crate::ops::lookup`) over the store's one
    /// file, with no segment: no helper is ever asked for anything.
    fn search(&self, query: &TreeIndex, want: Want) -> Result<(Vec<LookupHit>, LookupStats)> {
        check_params(query.params(), self.params)?;
        let (helpers, file) = (Helpers::resident(), Sources::File(&self.file));
        Ok(lookup(helpers, file, None, query, want)?)
    }

    /// Number of distinct `(tree, gram)` rows (size of the relation).
    pub fn row_count(&self) -> Result<u64> {
        Ok(BTree::open_existing(self.file.pool(), SLOT_FWD)?.len()?)
    }

    /// Whether the persisted gram filter decoded and validated at open.
    /// Crash tests assert recovery always lands on a *loadable* filter —
    /// every committed state has one — not merely on correct answers.
    #[doc(hidden)]
    pub fn has_gram_filter(&self) -> bool {
        self.file.filter().is_some()
    }

    /// Verifies the on-disk B+-tree invariants of all three relations plus
    /// their cross-relation consistency (see
    /// [`crate::ops::verify_relations`]), and the resident mirrors against
    /// the file.
    pub fn verify(&self) -> Result<StoreCheck> {
        Ok(self.file.verify()?)
    }

    /// Creates a store and bulk-loads a whole forest in one pass (sorted
    /// bottom-up B+-tree build) — much faster than per-tree [`Self::put_tree`]
    /// for initial indexing.
    pub fn bulk_create<'a, I>(path: &Path, params: PQParams, forest: I) -> Result<IndexStore>
    where
        I: IntoIterator<Item = (TreeId, &'a TreeIndex)>,
    {
        Self::bulk_create_with(
            path,
            params,
            forest,
            std::sync::Arc::new(crate::vfs::RealVfs),
        )
    }

    /// [`IndexStore::bulk_create`] on an explicit vfs (crash-enumeration
    /// tests bulk-build block-bearing stores through a fault-injecting vfs).
    pub fn bulk_create_with<'a, I>(
        path: &Path,
        params: PQParams,
        forest: I,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
    ) -> Result<IndexStore>
    where
        I: IntoIterator<Item = (TreeId, &'a TreeIndex)>,
    {
        let mut forest: Vec<(TreeId, &TreeIndex)> = forest.into_iter().collect();
        for (_, index) in &forest {
            check_params(index.params(), params)?;
        }
        // Ranks follow ids: the trees are sorted, never their rows.
        forest.sort_unstable_by_key(|&(id, _)| id);
        let mut build = BuildRows::with_capacity(forest.iter().map(|(_, i)| i.distinct()).sum());
        for (id, index) in forest {
            build.push_tree(id.0, index);
        }
        let file = Source::build(vfs, path, params, Role::Main, build, &[], Fill::Slack)?;
        Ok(IndexStore { file, params })
    }

    /// On-disk footprint of the three relations, in bytes.
    pub fn relation_bytes(&self) -> Result<RelationBytes> {
        Ok(crate::ops::relation_bytes(self.file.pool())?)
    }

    /// Rewrites the store into a fresh compact file at `target` (bulk-built
    /// B+-trees, no free pages, nodes filled to [`Fill::Slack`]: the new
    /// file takes in-place writes) and returns the new store.
    /// Takes the store: this is a write, of another file.
    pub fn compact_to(self, target: &Path) -> Result<IndexStore> {
        let src = BTree::open_existing(self.file.pool(), SLOT_FWD)?;
        let mut build = BuildRows::default();
        src.for_each_range((0, 0), (u64::MAX, u64::MAX), |(t, g), c| {
            build.push(t, g, c);
            true
        })?;
        let vfs = std::sync::Arc::new(crate::vfs::RealVfs);
        let file = Source::build(
            vfs,
            target,
            self.params,
            Role::Main,
            build,
            &[],
            Fill::Slack,
        )?;
        Ok(IndexStore {
            file,
            params: self.params,
        })
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test checks that a refused open leaves the file byte for byte"
)]
mod tests {
    use super::*;
    use crate::ops::LookupPlan;
    use pqgram_core::{build_index, pq_distance, ForestIndex};
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;
    use std::sync::Arc;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn tmp(name: &str) -> PathBuf {
        crate::scratch_path("istore", name)
    }

    fn setup(seed: u64, n: usize) -> (Tree, LabelTable) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(n, 6));
        (t, lt)
    }

    #[test]
    fn put_get_roundtrip() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(1, 300);
        let idx = build_index(&t, &lt, params);
        let mut store = IndexStore::create(&tmp("roundtrip.pqg"), params)?;
        store.put_tree(TreeId(7), &idx)?;
        let back = store.tree_index(TreeId(7))?.ok_or("tree 7 missing")?;
        assert_eq!(back, idx);
        assert!(store.tree_index(TreeId(8))?.is_none());
        assert_eq!(store.tree_ids()?, vec![TreeId(7)]);
        Ok(())
    }

    /// The totals mirror stands in for the totals relation (point reads
    /// here and owner resolution in the segmented engine go through it):
    /// `verify` compares them.
    #[test]
    fn verify_rejects_a_totals_mirror_that_drifted() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(1, 100);
        let mut store = IndexStore::create(&tmp("mirror.pqg"), params)?;
        let idx = build_index(&t, &lt, params);
        store.put_tree(TreeId(7), &idx)?;
        store.verify()?;
        store.file.totals_mut().remove(7);
        assert!(matches!(
            store.verify(),
            Err(IndexError::Store(StoreError::Corrupt(_)))
        ));
        store.file.totals_mut().set(7, u32::try_from(idx.total())?);
        store.verify()?;
        Ok(())
    }

    /// Every write leaves the totals mirror equal to the totals relation
    /// (`verify`) and point reads answering from it — a rejected delta
    /// included, whose rollback must not reach the mirror. A bulk-built or
    /// reopened file mirrors its directory until a put, a delta or a remove
    /// drops the fence; lookups equal the in-memory oracle on both sides.
    #[test]
    fn totals_mirror_follows_every_committed_write() -> TestResult {
        let params = PQParams::default();
        let (t1, lt1) = setup(21, 80);
        let (t2, lt2) = setup(22, 120);
        let a = build_index(&t1, &lt1, params);
        let b = build_index(&t2, &lt2, params);
        let path = tmp("mirror-ops.pqg");
        let check = |store: &IndexStore, oracle: &ForestIndex, fenced: bool| -> TestResult {
            let mut want: Vec<(u64, u64)> =
                oracle.iter().map(|(t, ix)| (t.0, ix.total())).collect();
            want.sort_unstable();
            let ids: Vec<TreeId> = want.iter().map(|&(t, _)| TreeId(t)).collect();
            assert_eq!(store.tree_ids()?, ids);
            for t in 0..5 {
                assert_eq!(store.contains_tree(TreeId(t))?, ids.contains(&TreeId(t)));
            }
            let mirrored = store.file.totals().sorted();
            let mirrored: Vec<(u64, u64)> = mirrored.iter().map(|&(t, c)| (t, c.into())).collect();
            assert_eq!(mirrored, want);
            assert_eq!(store.file.fence().is_some(), fenced);
            for query in [&a, &b] {
                for tau in [0.3, 0.7, 1.0, 1.5] {
                    let hits = store.lookup(query, tau)?;
                    assert_eq!(hits, oracle.lookup(query, tau)?, "tau {tau}");
                }
            }
            store.verify()?;
            Ok(())
        };
        let mut oracle = ForestIndex::new();
        let mut store = IndexStore::bulk_create(&path, params, [(TreeId(1), &a)])?;
        oracle.insert(TreeId(1), a.clone());
        check(&store, &oracle, true)?;
        // A batch naming tree 2 twice ends on its later bag.
        let batch = [
            (TreeId(2), a.clone()),
            (TreeId(3), b.clone()),
            (TreeId(2), b.clone()),
        ];
        store.put_trees(&batch)?;
        oracle.insert(TreeId(2), b.clone());
        oracle.insert(TreeId(3), b.clone());
        check(&store, &oracle, false)?;
        store.put_tree(TreeId(1), &b)?; // replace
        oracle.insert(TreeId(1), b.clone());
        check(&store, &oracle, false)?;
        store.put_tree(TreeId(3), &TreeIndex::empty(params))?; // an empty bag is not stored
        oracle.remove(TreeId(3));
        check(&store, &oracle, false)?;
        let reopen = |store: IndexStore| {
            drop(store);
            IndexStore::open(&path)
        };
        store = reopen(store)?;
        check(&store, &oracle, true)?;
        assert!(store.remove_tree(TreeId(2))?);
        assert!(!store.remove_tree(TreeId(2))?);
        oracle.remove(TreeId(2));
        check(&store, &oracle, false)?;
        store = reopen(store)?;
        check(&store, &oracle, true)?;
        let held = b.iter().map(|(g, _)| g).min().ok_or("empty bag")?;
        let consistent = IndexDelta {
            additions: vec![0xdead_beef, 0xfeed],
            removals: vec![held],
        };
        store.apply_delta(TreeId(1), &consistent)?;
        let edited = oracle.get_mut(TreeId(1)).ok_or("tree 1 missing")?;
        edited.remove(held);
        edited.add(0xdead_beef);
        edited.add(0xfeed);
        check(&store, &oracle, false)?;
        // A rejected delta rolls back, but the fence was dropped before the
        // transaction began.
        store = reopen(store)?;
        let rejected = IndexDelta {
            additions: vec![1, 2, 3],
            removals: vec![0x1234_5678_9abc], // never in the bag
        };
        let err = store.apply_delta(TreeId(1), &rejected).unwrap_err();
        assert!(matches!(err, IndexError::InconsistentDelta(..)));
        check(&store, &oracle, false)?;
        let stored = store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?;
        let emptying = IndexDelta {
            additions: Vec::new(),
            removals: stored
                .iter()
                .flat_map(|(g, n)| (0..n).map(move |_| g))
                .collect(),
        };
        store.apply_delta(TreeId(1), &emptying)?;
        oracle.remove(TreeId(1));
        check(&store, &oracle, false)?;
        Ok(())
    }

    /// A top-k lookup sharing no gram with any stored tree offers them all
    /// at distance 1, ascending by id, and stops at the first rejection:
    /// the `k` smallest ids come back and `k + 1` trees are counted, though
    /// the totals mirror holds them in no order.
    #[test]
    fn top_k_zero_overlap_takes_the_smallest_ids() -> TestResult {
        let params = PQParams::default();
        let bag = |g: u64| {
            let mut index = TreeIndex::empty(params);
            index.add(g);
            index
        };
        let ids = [40u64, 7, 23, 3, 91, 12, 58, 1];
        let mut store = IndexStore::create(&tmp("zero-overlap.pqg"), params)?;
        for &t in &ids {
            store.put_tree(TreeId(t), &bag(1000 + t))?;
        }
        let mut ascending = ids.to_vec();
        ascending.sort_unstable();
        for k in 1..=ids.len() + 1 {
            let (hits, stats) = store.lookup_top_k_with_stats(&bag(1), k)?;
            let got: Vec<u64> = hits.iter().map(|h| h.tree_id.0).collect();
            assert_eq!(got, ascending[..k.min(ids.len())], "k {k}");
            let offered = (k + 1).min(ids.len());
            assert_eq!((stats.candidates, stats.verified), (offered, offered));
        }
        Ok(())
    }

    #[test]
    fn reopen_preserves_params_and_data() -> TestResult {
        let params = PQParams::new(2, 4);
        let path = tmp("reopen.pqg");
        let (t, lt) = setup(2, 200);
        let idx = build_index(&t, &lt, params);
        {
            let mut store = IndexStore::create(&path, params)?;
            store.put_tree(TreeId(1), &idx)?;
        }
        let store = IndexStore::open(&path)?;
        assert_eq!(store.params(), params);
        assert_eq!(store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?, idx);
        Ok(())
    }

    #[test]
    fn put_replaces_previous_index() -> TestResult {
        let params = PQParams::default();
        let (t1, lt) = setup(3, 150);
        let (t2, lt2) = setup(4, 150);
        let mut store = IndexStore::create(&tmp("replace.pqg"), params)?;
        store.put_tree(TreeId(1), &build_index(&t1, &lt, params))?;
        let idx2 = build_index(&t2, &lt2, params);
        store.put_tree(TreeId(1), &idx2)?;
        assert_eq!(store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?, idx2);
        Ok(())
    }

    /// A put writes the net difference between the stored rows and the new
    /// bag: re-putting a tree's own bag writes no relation row, so its
    /// transaction does no more I/O than an empty batch's.
    #[test]
    fn re_putting_a_stored_bag_writes_no_relation_row() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(8, 400);
        let idx = build_index(&t, &lt, params);
        let vfs = crate::vfs::FaultVfs::new();
        let path = Path::new("/istore/reput.pqg");
        let mut store = IndexStore::create_with(path, params, Arc::new(vfs.clone()))?;
        store.put_tree(TreeId(1), &idx)?;
        let events = |store: &mut IndexStore, batch: &[(TreeId, TreeIndex)]| -> Result<u64> {
            let before = vfs.io_events();
            store.put_trees(batch)?;
            Ok(vfs.io_events() - before)
        };
        let empty = events(&mut store, &[])?;
        let again = events(&mut store, &[(TreeId(1), idx.clone())])?;
        assert!(
            again <= empty,
            "re-put {again} I/O events, empty batch {empty}"
        );
        assert_eq!(store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?, idx);
        store.verify()?;
        Ok(())
    }

    #[test]
    fn remove_tree_works() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(5, 100);
        let mut store = IndexStore::create(&tmp("remove.pqg"), params)?;
        store.put_tree(TreeId(3), &build_index(&t, &lt, params))?;
        assert!(store.remove_tree(TreeId(3))?);
        assert!(!store.remove_tree(TreeId(3))?);
        assert!(store.tree_index(TreeId(3))?.is_none());
        assert_eq!(store.row_count()?, 0);
        Ok(())
    }

    #[test]
    fn lookup_matches_in_memory_distance() -> TestResult {
        let params = PQParams::default();
        let mut store = IndexStore::create(&tmp("lookup.pqg"), params)?;
        let mut indexes = Vec::new();
        for i in 0..20u64 {
            let (t, lt) = setup(100 + i, 120);
            let idx = build_index(&t, &lt, params);
            store.put_tree(TreeId(i), &idx)?;
            indexes.push(idx);
        }
        let (q, qlt) = setup(100, 120); // same seed as tree 0: identical
        let query = build_index(&q, &qlt, params);
        let hits = store.lookup(&query, 1.01)?;
        assert_eq!(hits.len(), 20);
        assert_eq!(hits[0].tree_id, TreeId(0));
        assert_eq!(hits[0].distance, 0.0);
        for hit in &hits {
            let expected = pq_distance(&query, &indexes[hit.tree_id.0 as usize])?;
            assert!((hit.distance - expected).abs() < 1e-12);
        }
        // Threshold filters.
        let close = store.lookup(&query, 0.5)?;
        assert!(close.len() < 20);
        assert!(close.iter().any(|h| h.tree_id == TreeId(0)));
        Ok(())
    }

    #[test]
    fn incremental_update_from_log_matches_rebuild() -> TestResult {
        let params = PQParams::default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut lt = LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(400, 6));
        let mut store = IndexStore::create(&tmp("incr.pqg"), params)?;
        store.put_tree(TreeId(0), &build_index(&tree, &lt, params))?;

        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(60, alphabet));
        let stats = store.update_from_log(TreeId(0), &tree, &lt, &log)?;
        assert_eq!(stats.ops, 60);
        let stored = store.tree_index(TreeId(0))?.ok_or("tree 0 missing")?;
        assert_eq!(stored, build_index(&tree, &lt, params));
        Ok(())
    }

    #[test]
    fn update_unknown_tree_fails() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(6, 50);
        let mut store = IndexStore::create(&tmp("unknown.pqg"), params)?;
        let err = store
            .update_from_log(TreeId(9), &t, &lt, &EditLog::new())
            .unwrap_err();
        assert!(matches!(err, IndexError::UnknownTree(TreeId(9))));
        Ok(())
    }

    #[test]
    fn inconsistent_delta_rolls_back() -> TestResult {
        let params = PQParams::default();
        let (t, lt) = setup(7, 100);
        let idx = build_index(&t, &lt, params);
        let mut store = IndexStore::create(&tmp("badelta.pqg"), params)?;
        store.put_tree(TreeId(0), &idx)?;
        // A delta that adds one gram and removes an absent one: the whole
        // transaction must roll back.
        let delta = IndexDelta {
            additions: vec![0xdead_beef],
            removals: vec![0x1234_5678_9abc], // never in the index
        };
        let err = store.apply_delta(TreeId(0), &delta).unwrap_err();
        assert!(matches!(err, IndexError::InconsistentDelta(..)));
        assert_eq!(
            store.tree_index(TreeId(0))?.ok_or("tree 0 missing")?,
            idx,
            "rolled back"
        );
        Ok(())
    }

    #[test]
    fn many_trees_skip_scan() -> TestResult {
        let params = PQParams::new(2, 2);
        let mut store = IndexStore::create(&tmp("ids.pqg"), params)?;
        for i in [5u64, 17, 0, 99, 3] {
            let (t, lt) = setup(i, 30);
            store.put_tree(TreeId(i), &build_index(&t, &lt, params))?;
        }
        assert_eq!(
            store.tree_ids()?,
            vec![TreeId(0), TreeId(3), TreeId(5), TreeId(17), TreeId(99)]
        );
        Ok(())
    }

    #[test]
    fn inverted_plan_matches_exhaustive_scan() -> TestResult {
        let params = PQParams::default();
        let mut store = IndexStore::create(&tmp("plans.pqg"), params)?;
        for i in 0..30u64 {
            let (t, lt) = setup(500 + i, 80);
            store.put_tree(TreeId(i), &build_index(&t, &lt, params))?;
        }
        let (q, qlt) = setup(515, 80);
        let query = build_index(&q, &qlt, params);
        for tau in [0.2, 0.6, 1.0, 1.5, 2.0] {
            let (inv_hits, inv_stats) = store.lookup_with_stats(&query, tau)?;
            let (scan_hits, scan_stats) =
                crate::fuzz::lookup_exhaustive_with_stats(&store, &query, tau)?;
            assert_eq!(inv_stats.plan, LookupPlan::CandidateMerge, "tau={tau}");
            assert_eq!(scan_stats.plan, LookupPlan::ExhaustiveReference);
            assert_eq!(inv_hits, scan_hits, "tau={tau}");
            assert_eq!(scan_stats.rows_read, store.row_count()?);
            // The merge plan never reads more rows than the full scan did.
            assert!(inv_stats.rows_read < scan_stats.rows_read, "tau={tau}");
        }
        // τ > 1: every stored tree is a hit, through the same plan — the
        // zero-overlap trees are enumerated from the totals relation (one
        // row each), not by scanning the forward relation.
        let (all_hits, stats) = store.lookup_with_stats(&query, 1.5)?;
        assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        assert_eq!(all_hits.len(), 30);
        Ok(())
    }

    #[test]
    fn top_k_equals_sorted_exhaustive_prefix() -> TestResult {
        let params = PQParams::default();
        let mut store = IndexStore::create(&tmp("topk.pqg"), params)?;
        for i in 0..25u64 {
            let size = 60 + usize::try_from(i % 7).unwrap_or(0) * 10;
            let (t, lt) = setup(700 + i % 5, size);
            store.put_tree(TreeId(i), &build_index(&t, &lt, params))?;
        }
        let (q, qlt) = setup(702, 80);
        let query = build_index(&q, &qlt, params);
        // Oracle: exhaustive scan at tau > 1 admits every tree (zero-overlap
        // trees sit at distance exactly 1 < 1.5), already distance-sorted
        // with ascending-id tie-breaks.
        let (oracle, _) = crate::fuzz::lookup_exhaustive_with_stats(&store, &query, 1.5)?;
        assert_eq!(oracle.len(), 25);
        for k in [0usize, 1, 3, 10, 25, 40] {
            let (hits, stats) = store.lookup_top_k_with_stats(&query, k)?;
            assert_eq!(hits, oracle[..k.min(oracle.len())], "k={k}");
            assert_eq!(stats.hits, k.min(oracle.len()));
            assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        }
        Ok(())
    }

    /// Exactly the current format version opens. Anything else — the
    /// unstamped slot of a create that died early, the formats older builds
    /// wrote, a future one — is rejected by the version found, and the
    /// failed open leaves the file as it was: nothing is migrated.
    #[test]
    fn future_format_version_is_rejected() -> TestResult {
        let params = PQParams::default();
        let path = tmp("versions.pqg");
        for version in [0, 2, 3, 5] {
            assert_ne!(version, crate::ops::FORMAT_VERSION);
            {
                let (t, lt) = setup(version, 60);
                let mut store = IndexStore::create(&path, params)?;
                store.put_tree(TreeId(1), &build_index(&t, &lt, params))?;
                let pool = store.file.pool();
                pool.set_meta(crate::ops::SLOT_VERSION, version)?;
                pool.sync()?;
            }
            let before = std::fs::read(&path)?;
            let Err(err) = IndexStore::open(&path) else {
                return Err(format!("version {version} opened").into());
            };
            let IndexError::Store(StoreError::Corrupt(message)) = err else {
                return Err(format!("version {version}: {err}").into());
            };
            assert!(
                message.contains(&format!("format version {version} ")),
                "{message}"
            );
            assert_eq!(std::fs::read(&path)?, before, "version {version}");
            std::fs::remove_file(&path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn document_store_file_is_rejected_by_index_store(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        let path = crate::scratch_path("kind", "docs-as-index.docs");
        crate::DocumentStore::create(&path, PQParams::default())?;
        let err = IndexStore::open(&path).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            IndexError::Store(StoreError::WrongKind { .. })
        ));
        Ok(())
    }
}
