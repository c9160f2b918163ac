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
use crate::buffer::BufferPool;
use crate::filter::{self, GramFilter};
use crate::ops::{
    check_params, lookup_merged, lookup_top_k_merged, total_u32, transactional, LookupStats,
    RelationBytes, Source, SourceProbe, StoreCheck, TotalsView, KIND_INDEX_STORE, MAIN_SOURCE,
    SLOT_FWD,
};
use crate::pager::StoreError;
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

/// A persistent forest index file.
pub struct IndexStore {
    pool: BufferPool,
    params: PQParams,
    /// RAM mirror of the on-disk gram filter: probed on every lookup
    /// without page reads, updated in lockstep with committed writes (the
    /// disk and RAM inserts set the same bits). `None` when the persisted
    /// filter is absent or failed validation — lookups stay correct.
    filter: Option<GramFilter>,
    /// RAM mirror of the totals relation, set from each committed write:
    /// which trees are stored, emit-time size-window pruning and totals
    /// reads, all without page I/O.
    totals: TotalsView,
}

impl IndexStore {
    /// Creates a new store file for the given pq-gram parameters.
    pub fn create(path: &Path, params: PQParams) -> Result<IndexStore> {
        Self::create_with(path, params, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`IndexStore::create`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    // analyze: txn-exempt(store bootstrap: writes to a file created in this call that no reader has opened; a failed create is fatal and the file is discarded)
    pub fn create_with(
        path: &Path,
        params: PQParams,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
    ) -> Result<IndexStore> {
        let pool = crate::ops::create_file(path, vfs, params, KIND_INDEX_STORE)?;
        crate::ops::init_relations(&pool)?;
        pool.flush()?;
        Self::with_mirrors(pool, params)
    }

    /// Opens an existing store (running crash recovery if needed).
    pub fn open(path: &Path) -> Result<IndexStore> {
        Self::open_with(path, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`IndexStore::open`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    // analyze: entrypoint(recovery)
    pub fn open_with(path: &Path, vfs: std::sync::Arc<dyn crate::vfs::Vfs>) -> Result<IndexStore> {
        let (pool, params) = crate::ops::open_file(path, vfs, KIND_INDEX_STORE)?;
        crate::ops::ensure_format(&pool)?;
        Self::with_mirrors(pool, params)
    }

    /// The pq-gram parameters this store was created with.
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// Wraps an initialised store file, loading both RAM mirrors from it.
    fn with_mirrors(pool: BufferPool, params: PQParams) -> Result<IndexStore> {
        let filter = filter::load(&pool)?;
        let totals = TotalsView::load(&pool)?;
        Ok(IndexStore {
            pool,
            params,
            filter,
            totals,
        })
    }

    /// Records the bag size a committed write left `id` with — the value
    /// that write stored in the totals relation — in the totals mirror
    /// (0 — the tree is gone).
    fn mirror_total(&mut self, id: TreeId, total: u32) {
        if total == 0 {
            self.totals.remove(id.0);
        } else {
            self.totals.set(id.0, total);
        }
    }

    /// Folds committed gram insertions into the RAM filter mirror, or
    /// reloads it when the transaction rebuilt (or dropped) the persisted
    /// filter. The mirror and the disk filter set identical bits, so no
    /// reload is needed on the common in-place path.
    fn refresh_filter(
        &mut self,
        rebuilt: bool,
        grams: impl IntoIterator<Item = GramKey>,
    ) -> Result<()> {
        if rebuilt {
            self.filter = filter::load(&self.pool)?;
        } else if let Some(f) = self.filter.as_mut() {
            for g in grams {
                f.insert(g);
            }
        }
        Ok(())
    }

    /// This file as a lookup source — the only one of a single-file store,
    /// the oldest of a segmented one: probed through its filter and totals
    /// mirrors, masking nothing (no source is older).
    pub(crate) fn source(&self) -> Source<'_> {
        Source {
            id: MAIN_SOURCE,
            pool: &self.pool,
            probe: SourceProbe {
                fence: None,
                filter: self.filter.as_ref(),
                totals: Some(&self.totals),
            },
            owned: &[],
        }
    }

    /// Inserts (or replaces) the index of one tree. Transactional.
    // analyze: entrypoint
    pub fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<()> {
        check_params(index.params(), self.params)?;
        let mut rebuilt = false;
        transactional(&self.pool, || {
            crate::ops::delete_tree_entries(&self.pool, id)?;
            rebuilt = crate::ops::put_tree_entries(&self.pool, id, index)?;
            Ok::<_, IndexError>(())
        })?;
        self.mirror_total(id, total_u32(index.total())?);
        self.refresh_filter(rebuilt, index.iter().map(|(g, _)| g))
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
        let mut rebuilt = false;
        transactional(&self.pool, || {
            for (id, index) in batch {
                crate::ops::delete_tree_entries(&self.pool, *id)?;
                rebuilt |= crate::ops::put_tree_entries(&self.pool, *id, index)?;
            }
            Ok::<_, IndexError>(())
        })?;
        // In batch order: a tree id given twice ends on its later bag.
        for (id, index) in batch {
            self.mirror_total(*id, total_u32(index.total())?);
        }
        let grams = batch.iter().flat_map(|(_, index)| index.iter().map(|(g, _)| g));
        self.refresh_filter(rebuilt, grams.collect::<Vec<_>>())
    }

    /// Removes a tree from the store. Transactional. Returns `true` if the
    /// tree existed.
    pub fn remove_tree(&mut self, id: TreeId) -> Result<bool> {
        let existed = self.contains_tree(id)?;
        if existed {
            transactional(&self.pool, || {
                crate::ops::delete_tree_entries(&self.pool, id)
            })?;
            // The gram filter stays a superset — deletes never shrink it.
            self.totals.remove(id.0);
        }
        Ok(existed)
    }

    /// True if any gram of `id` is stored: answered by the totals mirror,
    /// no page read.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        Ok(self.totals.get(id.0).is_some())
    }

    /// Materializes the in-memory index of one stored tree.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        Ok(crate::ops::tree_index(&self.pool, self.params, id)?)
    }

    /// All stored tree ids, ascending: read off the totals mirror, no page
    /// read.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        Ok(self.totals.iter().map(|(t, _)| TreeId(t)).collect())
    }

    /// Applies an incremental update delta (`I ← I \ I⁻ ⊎ I⁺`) to one tree.
    /// Transactional: on any inconsistency the store is left unchanged.
    pub fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<()> {
        let mut applied = (0, false);
        transactional(&self.pool, || {
            applied = crate::ops::apply_delta_rows(&self.pool, id, delta)?
                .map_err(|gram| IndexError::InconsistentDelta(id, gram))?;
            Ok::<_, IndexError>(())
        })?;
        let (total, rebuilt) = applied;
        self.mirror_total(id, total);
        self.refresh_filter(rebuilt, delta.additions.iter().copied())
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
        let sources = [self.source()].into_iter();
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
        let sources = [self.source()].into_iter();
        Ok(lookup_merged(sources, None, query, tau)?)
    }

    /// The version-1 lookup plan — one ordered scan of the forward relation
    /// verifying every stored tree — regardless of `tau`. Kept as the
    /// reference side for benchmarks and equivalence tests.
    pub fn lookup_exhaustive_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        check_params(query.params(), self.params)?;
        Ok(crate::ops::lookup_scan_with_stats(&self.pool, query, tau)?)
    }

    /// Number of distinct `(tree, gram)` rows (size of the relation).
    pub fn row_count(&self) -> Result<u64> {
        Ok(BTree::open(&self.pool, SLOT_FWD)?.len()?)
    }

    /// Whether the persisted gram filter decoded and validated at open.
    /// Crash tests assert recovery always lands on a *loadable* filter —
    /// every committed state has one — not merely on correct answers.
    #[doc(hidden)]
    pub fn has_gram_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Verifies the on-disk B+-tree invariants of all three relations plus
    /// their cross-relation consistency (see
    /// [`crate::ops::verify_relations`]), and the totals mirror against the
    /// totals relation.
    pub fn verify(&self) -> Result<StoreCheck> {
        let check = crate::ops::verify_relations(&self.pool)?;
        self.totals.verify(&self.pool)?;
        Ok(check)
    }

    /// Flushes caches to disk (no-op for data already committed).
    pub fn flush(&self) -> Result<()> {
        Ok(self.pool.flush()?)
    }

    /// Creates a store and bulk-loads a whole forest in one pass (sorted
    /// bottom-up B+-tree build) — much faster than per-tree [`Self::put_tree`]
    /// for initial indexing.
    // analyze: txn-exempt(bulk bootstrap: loads into a store file created by this call that no reader has opened yet)
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
    // analyze: txn-exempt(bulk bootstrap: loads into a store file created by this call that no reader can have opened yet)
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
        Self::bulk_create_rows_with(path, params, vfs, &rows)
    }

    /// On-disk footprint of the three relations, in bytes.
    pub fn relation_bytes(&self) -> Result<RelationBytes> {
        Ok(crate::ops::relation_bytes(&self.pool)?)
    }

    /// Rewrites the store into a fresh compact file at `target` (bulk-built
    /// B+-trees, no free pages, ~90% leaf fill) and returns the new store.
    // analyze: txn-exempt(writes only to the fresh target file created by this call; the source store is read-only here)
    pub fn compact_to(&self, target: &Path) -> Result<IndexStore> {
        let src = BTree::open(&self.pool, SLOT_FWD)?;
        let mut rows: Vec<((u64, u64), u32)> = Vec::new();
        src.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, v| {
            rows.push((k, v));
            true
        })?;
        let vfs = std::sync::Arc::new(crate::vfs::RealVfs);
        Self::bulk_create_rows_with(target, self.params, vfs, &rows)
    }

    /// Read-only access to the underlying pool for sibling modules: the
    /// segmented engine runs its point reads and compaction scans against
    /// the main file's relations directly.
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The totals mirror: which trees this file stores, and their bag
    /// sizes, without a page read. The segmented engine resolves a tree's
    /// owner and lists the main file's ids from it.
    pub(crate) fn totals(&self) -> &TotalsView {
        &self.totals
    }

    /// [`IndexStore::bulk_create`] on an explicit vfs from pre-sorted rows
    /// — the segmented engine builds main-file generations with this
    /// before the manifest references them.
    // analyze: txn-exempt(bulk bootstrap: loads into a store file created by this call that no reader has opened yet)
    pub(crate) fn bulk_create_rows_with(
        path: &Path,
        params: PQParams,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
        rows: &[((u64, u64), u32)],
    ) -> Result<IndexStore> {
        let pool = crate::ops::create_file(path, vfs, params, KIND_INDEX_STORE)?;
        crate::ops::init_relations(&pool)?;
        let built = crate::ops::bulk_load_relations(&pool, rows)?;
        // Full durability barrier: the bulk-built state is the baseline
        // every later transaction's rollback falls back to, so it must
        // survive any crash that happens after this constructor returns.
        pool.sync()?;
        Ok(IndexStore {
            pool,
            params,
            filter: Some(built.filter),
            totals: built.totals,
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
        store.totals.remove(7);
        assert!(matches!(
            store.verify(),
            Err(IndexError::Store(StoreError::Corrupt(_)))
        ));
        store.totals.set(7, u32::try_from(idx.total())?);
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
            let mirrored: Vec<(u64, u64)> = store
                .totals
                .iter()
                .map(|(t, c)| (t, u64::from(c)))
                .collect();
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
            let (scan_hits, scan_stats) = store.lookup_exhaustive_with_stats(&query, tau)?;
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
        let (oracle, _) = store.lookup_exhaustive_with_stats(&query, 1.5)?;
        assert_eq!(oracle.len(), 25);
        for k in [0usize, 1, 3, 10, 25, 40] {
            let (hits, stats) = store.lookup_top_k_with_stats(&query, k)?;
            assert_eq!(hits, oracle[..k.min(oracle.len())], "k={k}");
            assert_eq!(stats.hits, k.min(oracle.len()));
            assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        }
        Ok(())
    }

    #[test]
    fn opening_a_version1_file_migrates_in_place() -> TestResult {
        // Build a version-1 file by hand: forward relation only, version
        // slot unset — exactly what a pre-dual-relation build wrote.
        let params = PQParams::new(2, 3);
        let path = tmp("legacy.pqg");
        let (t1, lt1) = setup(11, 200);
        let (t2, lt2) = setup(12, 150);
        let idx1 = build_index(&t1, &lt1, params);
        let idx2 = build_index(&t2, &lt2, params);
        {
            let vfs = std::sync::Arc::new(crate::vfs::RealVfs);
            let pool = crate::ops::create_file(&path, vfs, params, KIND_INDEX_STORE)?;
            let fwd = BTree::open(&pool, crate::ops::SLOT_FWD)?;
            let mut rows: Vec<((u64, u64), u32)> = Vec::new();
            for (g, c) in idx1.iter() {
                rows.push(((1, g), c));
            }
            for (g, c) in idx2.iter() {
                rows.push(((2, g), c));
            }
            rows.sort_unstable_by_key(|&(k, _)| k);
            fwd.bulk_load(rows)?;
            pool.flush()?;
        }
        let store = IndexStore::open(&path)?;
        let check = store.verify()?;
        assert_eq!(check.trees, 2);
        // Multi-gram blocks collapse many postings per directory row; the
        // verifier already proved the expanded rows match the forward
        // relation, so here it suffices that blocks exist.
        assert!(check.blocks > 0, "migration must produce posting blocks");
        assert!(check.inverted.entries < check.forward.entries);
        assert_eq!(store.tree_index(TreeId(1))?.ok_or("tree 1 missing")?, idx1);
        assert_eq!(store.tree_index(TreeId(2))?.ok_or("tree 2 missing")?, idx2);
        assert_eq!(store.tree_ids()?, vec![TreeId(1), TreeId(2)]);
        let query = idx1.clone();
        let (hits, stats) = store.lookup_with_stats(&query, 0.5)?;
        assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        assert_eq!(hits[0].tree_id, TreeId(1));
        assert_eq!(hits[0].distance, 0.0);
        drop(store);
        // The migration was committed: a second open must not migrate again
        // and must see the same consistent state.
        let again = IndexStore::open(&path)?;
        assert_eq!(again.verify()?.trees, 2);
        Ok(())
    }

    /// Builds a format-v2 file by hand through `vfs`: forward relation,
    /// **row-per-posting** inverted relation, totals, and version slot 2 —
    /// exactly what a pre-posting-block build wrote. Returns the indexes
    /// keyed by tree id so callers can check migrated contents.
    fn write_version2_file(
        path: &std::path::Path,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
        params: PQParams,
        forest: &[(u64, TreeIndex)],
    ) -> TestResult {
        let pool = crate::ops::create_file(path, vfs, params, KIND_INDEX_STORE)?;
        let mut fwd: Vec<((u64, u64), u32)> = Vec::new();
        let mut inv: Vec<((u64, u64), u32)> = Vec::new();
        let mut tot: Vec<((u64, u64), u32)> = Vec::new();
        for (t, idx) in forest {
            for (g, c) in idx.iter() {
                fwd.push(((*t, g), c));
                inv.push(((g, *t), c));
            }
            tot.push(((*t, 0), u32::try_from(idx.total())?));
        }
        fwd.sort_unstable_by_key(|&(k, _)| k);
        inv.sort_unstable_by_key(|&(k, _)| k);
        BTree::open(&pool, crate::ops::SLOT_FWD)?.bulk_load(fwd)?;
        BTree::open(&pool, crate::ops::SLOT_INV)?.bulk_load(inv)?;
        BTree::open(&pool, crate::ops::SLOT_TOT)?.bulk_load(tot)?;
        pool.set_meta(crate::ops::SLOT_VERSION, crate::ops::FORMAT_VERSION_V2)?;
        pool.sync()?;
        Ok(())
    }

    /// Six identical trees give every gram six postings — over the block
    /// threshold, so the migrated inverted relation must contain blocks.
    fn version2_forest(params: PQParams) -> Vec<(u64, TreeIndex)> {
        let (t, lt) = setup(77, 180);
        let idx = build_index(&t, &lt, params);
        (1..=6u64).map(|i| (i, idx.clone())).collect()
    }

    #[test]
    fn opening_a_version2_file_migrates_to_posting_blocks() -> TestResult {
        let params = PQParams::new(2, 3);
        let path = tmp("legacy-v2.pqg");
        let forest = version2_forest(params);
        write_version2_file(
            &path,
            std::sync::Arc::new(crate::vfs::RealVfs),
            params,
            &forest,
        )?;
        let store = IndexStore::open(&path)?;
        let check = store.verify()?;
        assert_eq!(check.trees, 6);
        assert!(
            check.blocks > 0,
            "migration must re-encode shared grams as posting blocks"
        );
        for (t, idx) in &forest {
            assert_eq!(&store.tree_index(TreeId(*t))?.ok_or("tree missing")?, idx);
        }
        let (hits, stats) = store.lookup_with_stats(&forest[0].1, 0.5)?;
        assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        assert_eq!(hits.len(), 6, "all six identical trees are at distance 0");
        drop(store);
        // The migration was committed: a second open sees format v3 state.
        let again = IndexStore::open(&path)?;
        assert!(again.verify()?.blocks > 0);
        Ok(())
    }

    type WriteLegacyFile = fn(
        &std::path::Path,
        std::sync::Arc<dyn crate::vfs::Vfs>,
        PQParams,
        &[(u64, TreeIndex)],
    ) -> TestResult;

    /// Crash enumeration over an open-time migration of the legacy file
    /// `write_legacy` produces: whatever I/O event the crash lands on, the
    /// reopened file either still holds the legacy state (rolled back,
    /// migrates again) or the committed migrated state — the visible
    /// contents never change and verification always passes.
    fn migration_recovers_at_every_crash_point(
        path: &std::path::Path,
        write_legacy: WriteLegacyFile,
    ) -> TestResult {
        let params = PQParams::new(2, 3);
        let forest = version2_forest(params);

        // Fault-free pass: count the setup I/O and the migration I/O.
        let vfs = crate::vfs::FaultVfs::new();
        write_legacy(path, std::sync::Arc::new(vfs.clone()), params, &forest)?;
        let setup_events = vfs.io_events();
        let store = IndexStore::open_with(path, std::sync::Arc::new(vfs.clone()))?;
        drop(store);
        let total_events = vfs.io_events();
        assert!(total_events > setup_events, "migration must do I/O");

        for mode in [
            crate::vfs::CrashMode::KeepUnsynced,
            crate::vfs::CrashMode::DropUnsynced,
            crate::vfs::CrashMode::DropUnsyncedMatching("-journal".into()),
            crate::vfs::CrashMode::DropUnsyncedMatching(".pqg".into()),
        ] {
            for n in setup_events..total_events {
                let vfs = crate::vfs::FaultVfs::new();
                write_legacy(path, std::sync::Arc::new(vfs.clone()), params, &forest)?;
                assert_eq!(vfs.io_events(), setup_events, "setup is deterministic");
                vfs.crash_at(n, mode.clone());
                // The migrating open may fail; the error is the point.
                let _ = IndexStore::open_with(path, std::sync::Arc::new(vfs.clone()));
                assert!(vfs.crashed(), "crash point {n} ({mode:?}) never fired");
                let reopened = IndexStore::open_with(path, std::sync::Arc::new(vfs.surviving()))
                    .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): reopen failed: {e}"));
                reopened
                    .verify()
                    .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): verify: {e}"));
                for (t, idx) in &forest {
                    assert_eq!(
                        reopened.tree_index(TreeId(*t))?.as_ref(),
                        Some(idx),
                        "crash point {n} ({mode:?}): tree {t} changed across migration"
                    );
                }
            }
        }
        Ok(())
    }

    /// The v2 → v3 migration (posting-block re-encode) under crash
    /// enumeration.
    #[test]
    fn version2_migration_recovers_at_every_crash_point() -> TestResult {
        let path = std::path::Path::new("/fault/migrate-v2.pqg");
        migration_recovers_at_every_crash_point(path, write_version2_file)
    }

    /// Demotes a freshly built store to format v3 through `vfs`: frees the
    /// gram filter and stamps version 3 — exactly the state a pre-filter
    /// build left behind.
    fn write_version3_file(
        path: &std::path::Path,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
        params: PQParams,
        forest: &[(u64, TreeIndex)],
    ) -> TestResult {
        let store = IndexStore::bulk_create_with(
            path,
            params,
            forest.iter().map(|(t, idx)| (TreeId(*t), idx)),
            vfs,
        )?;
        crate::filter::free_filter(&store.pool)?;
        store.pool.set_meta(crate::ops::SLOT_VERSION, crate::ops::FORMAT_VERSION_V3)?;
        store.pool.sync()?;
        Ok(())
    }

    #[test]
    fn opening_a_version3_file_builds_the_gram_filter() -> TestResult {
        let params = PQParams::new(2, 3);
        let path = tmp("legacy-v3.pqg");
        let forest = version2_forest(params);
        write_version3_file(
            &path,
            std::sync::Arc::new(crate::vfs::RealVfs),
            params,
            &forest,
        )?;
        let store = IndexStore::open(&path)?;
        assert!(
            store.filter.is_some(),
            "v3 migration must build the gram filter"
        );
        store.verify()?; // includes the filter-superset audit
        let (hits, stats) = store.lookup_with_stats(&forest[0].1, 0.5)?;
        assert_eq!(hits.len(), 6);
        assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        Ok(())
    }

    /// The v3 → v4 migration (gram-filter build) under crash enumeration.
    #[test]
    fn version3_migration_recovers_at_every_crash_point() -> TestResult {
        let path = std::path::Path::new("/fault/migrate-v3.pqg");
        migration_recovers_at_every_crash_point(path, write_version3_file)
    }

    #[test]
    fn future_format_version_is_rejected() -> TestResult {
        let params = PQParams::default();
        let path = tmp("future.pqg");
        {
            IndexStore::create(&path, params)?;
        }
        {
            let vfs = std::sync::Arc::new(crate::vfs::RealVfs);
            let (pool, _) = crate::ops::open_file(&path, vfs, KIND_INDEX_STORE)?;
            pool.set_meta(crate::ops::SLOT_VERSION, crate::ops::FORMAT_VERSION + 1)?;
            pool.flush()?;
        }
        let err = IndexStore::open(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::Store(StoreError::Corrupt(_))));
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
