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

use crate::btree::BTree;
use crate::ops::{
    check_params, lookup_merged, lookup_top_k_merged, LookupStats, RelationBytes, StoreCheck,
    SLOT_FWD,
};
use crate::pager::StoreError;
use crate::segment::{Role, Source};
use pqgram_core::maintain::{compute_index_delta, IndexDelta, MaintainError, UpdateStats};
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
pub struct IndexStore {
    file: Source,
    params: PQParams,
}

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

    /// The pq-gram parameters this store was created with.
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// The store's one source: its file, masking nothing.
    pub(crate) fn source(&self) -> &Source {
        &self.file
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
        Ok(self.file.totals().iter().map(|(t, _)| TreeId(t)).collect())
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
        check_params(query.params(), self.params)?;
        let sources = std::iter::once(&self.file);
        Ok(lookup_top_k_merged(sources, None, query, k)?)
    }

    /// [`IndexStore::lookup`] also returning the access-path counters of
    /// the executed plan.
    // analyze: entrypoint
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        check_params(query.params(), self.params)?;
        let sources = std::iter::once(&self.file);
        Ok(lookup_merged(sources, None, query, tau)?)
    }

    /// Number of distinct `(tree, gram)` rows (size of the relation).
    pub fn row_count(&self) -> Result<u64> {
        Ok(BTree::open(self.file.pool(), SLOT_FWD)?.len()?)
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

    /// Flushes caches to disk (no-op for data already committed).
    pub fn flush(&self) -> Result<()> {
        Ok(self.file.pool().flush()?)
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
        let mut rows: Vec<((u64, u64), u32)> = Vec::new();
        for (id, index) in forest {
            check_params(index.params(), params)?;
            crate::ops::push_tree_rows(&mut rows, id.0, index);
        }
        // Each tree's rows are in order already; this pass only has work to
        // do when the forest did not arrive in id order.
        rows.sort_unstable_by_key(|&(k, _)| k);
        let file = Source::build(vfs, path, params, Role::Main, &rows, &[])?;
        Ok(IndexStore { file, params })
    }

    /// On-disk footprint of the three relations, in bytes.
    pub fn relation_bytes(&self) -> Result<RelationBytes> {
        Ok(crate::ops::relation_bytes(self.file.pool())?)
    }

    /// Rewrites the store into a fresh compact file at `target` (bulk-built
    /// B+-trees, no free pages, ~90% leaf fill) and returns the new store.
    pub fn compact_to(&self, target: &Path) -> Result<IndexStore> {
        let src = BTree::open(self.file.pool(), SLOT_FWD)?;
        let mut rows: Vec<((u64, u64), u32)> = Vec::new();
        src.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, v| {
            rows.push((k, v));
            true
        })?;
        let vfs = std::sync::Arc::new(crate::vfs::RealVfs);
        let file = Source::build(vfs, target, self.params, Role::Main, &rows, &[])?;
        Ok(IndexStore {
            file,
            params: self.params,
        })
    }

    /// Consumes the store into a shareable read-only handle for concurrent
    /// lookups. Taking `self` by value enforces the engine's single-writer
    /// XOR many-readers discipline in the type system: while reader clones
    /// exist there is no `&mut IndexStore` anywhere, so no write can race a
    /// lookup. Reclaim write access with
    /// [`IndexStoreReader::try_into_store`] once all clones are dropped.
    pub fn into_reader(self) -> IndexStoreReader {
        IndexStoreReader {
            inner: std::sync::Arc::new(self),
        }
    }
}

/// A cloneable, `Send + Sync` read-only view of an [`IndexStore`], built
/// with [`IndexStore::into_reader`]. Clones share one buffer pool, whose
/// sharded read path lets lookups proceed concurrently; every method here
/// takes `&self` and only reads, so any number of threads may hold clones.
#[derive(Clone)]
pub struct IndexStoreReader {
    inner: std::sync::Arc<IndexStore>,
}

// The whole point of the reader is to cross threads; if a future change
// smuggles a non-Send/Sync member into the store, fail the build here
// rather than at every call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IndexStoreReader>();
};

impl IndexStoreReader {
    /// The pq-gram parameters the underlying store was created with.
    pub fn params(&self) -> PQParams {
        self.inner.params()
    }

    /// The approximate lookup ([`IndexStore::lookup`]); safe to call from
    /// any number of threads at once.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>> {
        self.inner.lookup(query, tau)
    }

    /// [`IndexStore::lookup_with_stats`] through the shared handle.
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.inner.lookup_with_stats(query, tau)
    }

    /// [`IndexStore::lookup_top_k`] through the shared handle.
    pub fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Vec<LookupHit>> {
        self.inner.lookup_top_k(query, k)
    }

    /// [`IndexStore::lookup_top_k_with_stats`] through the shared handle.
    pub fn lookup_top_k_with_stats(
        &self,
        query: &TreeIndex,
        k: usize,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.inner.lookup_top_k_with_stats(query, k)
    }

    /// True if any gram of `id` is stored.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        self.inner.contains_tree(id)
    }

    /// Materializes the in-memory index of one stored tree.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        self.inner.tree_index(id)
    }

    /// All stored tree ids, ascending.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        self.inner.tree_ids()
    }

    /// Verifies the on-disk invariants (read-only audit).
    pub fn verify(&self) -> Result<StoreCheck> {
        self.inner.verify()
    }

    /// Reclaims exclusive (write) access. Fails with `self` unchanged if
    /// other reader clones are still alive.
    pub fn try_into_store(self) -> std::result::Result<IndexStore, IndexStoreReader> {
        std::sync::Arc::try_unwrap(self.inner).map_err(|inner| IndexStoreReader { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LookupPlan;
    use pqgram_core::{build_index, pq_distance};
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-istore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(PathBuf::from(j)).ok();
        p
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
    /// included, whose rollback must not reach the mirror.
    #[test]
    fn totals_mirror_follows_every_committed_write() -> TestResult {
        let params = PQParams::default();
        let (t1, lt1) = setup(21, 80);
        let (t2, lt2) = setup(22, 120);
        let a = build_index(&t1, &lt1, params);
        let b = build_index(&t2, &lt2, params);
        let mut store = IndexStore::create(&tmp("mirror-ops.pqg"), params)?;
        let check = |store: &IndexStore, want: &[(u64, u64)]| -> TestResult {
            let ids: Vec<TreeId> = want.iter().map(|&(t, _)| TreeId(t)).collect();
            assert_eq!(store.tree_ids()?, ids);
            for t in 0..5 {
                assert_eq!(store.contains_tree(TreeId(t))?, ids.contains(&TreeId(t)));
            }
            let totals = store.file.totals();
            let mirrored: Vec<(u64, u64)> = totals.iter().map(|(t, c)| (t, u64::from(c))).collect();
            assert_eq!(mirrored, want);
            store.verify()?;
            Ok(())
        };
        check(&store, &[])?;
        store.put_tree(TreeId(1), &a)?;
        check(&store, &[(1, a.total())])?;
        // A batch naming tree 2 twice ends on its later bag.
        let batch = [
            (TreeId(2), a.clone()),
            (TreeId(3), b.clone()),
            (TreeId(2), b.clone()),
        ];
        store.put_trees(&batch)?;
        check(&store, &[(1, a.total()), (2, b.total()), (3, b.total())])?;
        store.put_tree(TreeId(1), &b)?; // replace
        check(&store, &[(1, b.total()), (2, b.total()), (3, b.total())])?;
        store.put_tree(TreeId(3), &TreeIndex::empty(params))?; // an empty bag is not stored
        check(&store, &[(1, b.total()), (2, b.total())])?;
        assert!(store.remove_tree(TreeId(2))?);
        assert!(!store.remove_tree(TreeId(2))?);
        check(&store, &[(1, b.total())])?;
        let held = b.iter().map(|(g, _)| g).min().ok_or("empty bag")?;
        let consistent = IndexDelta {
            additions: vec![0xdead_beef, 0xfeed],
            removals: vec![held],
        };
        store.apply_delta(TreeId(1), &consistent)?;
        check(&store, &[(1, b.total() + 1)])?;
        let rejected = IndexDelta {
            additions: vec![1, 2, 3],
            removals: vec![0x1234_5678_9abc], // never in the bag
        };
        let err = store.apply_delta(TreeId(1), &rejected).unwrap_err();
        assert!(matches!(err, IndexError::InconsistentDelta(..)));
        check(&store, &[(1, b.total() + 1)])?;
        let stored = store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?;
        let emptying = IndexDelta {
            additions: Vec::new(),
            removals: stored
                .iter()
                .flat_map(|(g, n)| (0..n).map(move |_| g))
                .collect(),
        };
        store.apply_delta(TreeId(1), &emptying)?;
        check(&store, &[])?;
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
    use std::path::PathBuf;

    #[test]
    fn document_store_file_is_rejected_by_index_store(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join(format!("pqgram-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let path: PathBuf = dir.join("docs-as-index.docs");
        std::fs::remove_file(&path).ok();
        crate::DocumentStore::create(&path, PQParams::default())?;
        let err = IndexStore::open(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::Store(StoreError::Corrupt(_))));
        Ok(())
    }
}
