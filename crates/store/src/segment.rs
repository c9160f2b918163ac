//! One opened relation file with its resident mirrors: the source type
//! behind every store handle.
//!
//! A relation file holds the forward, inverted and totals relations and the
//! gram filter (see [`crate::ops`]). A [`Source`] is such a file opened:
//! its buffer pool plus what is kept in RAM so lookups and point access
//! need not read pages — the gram filter, an exact mirror of the totals
//! relation and, for a segment, the directory fence and the id lists that
//! drive shadowing. [`crate::index_store::IndexStore`] and
//! [`crate::document::DocumentStore`] are one source plus their `p, q`
//! parameters; a segmented store is a list of them, newest first. Every
//! kind of file is created, opened, bulk-built, written in place and
//! verified here, so the mirrors cannot drift from the file by a path that
//! forgot one of them.
//!
//! A **segment** is a source with a fourth **tombstone** relation
//! `(treeId, 0) → 1` at slot [`SLOT_TOMB`]: trees removed (or replaced by
//! an empty index) while the source memtable was live. A segment **owns** a
//! tree id if it stores data or a tombstone for it; during merged lookups
//! the owning segment's verdict shadows every older source. Segments (and
//! the main file of a segmented store) are written exactly once —
//! bulk-built, fully synced, then registered in the manifest — and never
//! mutated afterwards. That immutability is what makes them safe to share
//! across reader snapshots without any locking beyond the buffer pool's own
//! shards.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::fence::Fence;
use crate::filter::{self, GramFilter};
use crate::ops::{
    self, StoreCheck, TotalsView, FORMAT_VERSION, KIND_DOCUMENT_STORE, KIND_INDEX_STORE,
    KIND_SEGMENT, MAIN_SOURCE, SLOT_INV, SLOT_VERSION,
};
use crate::pager::{Result, StoreError};
use crate::vfs::Vfs;
use pqgram_core::maintain::IndexDelta;
use pqgram_core::{GramKey, PQParams, TreeId, TreeIndex};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Meta slot of the tombstone relation root: `(treeId, 0) → 1`. Slot 3 is
/// unused by the index-store relation layout (0 forward, 1–2 parameters,
/// 4 inverted, 5 totals, 6 version, 7 kind).
pub(crate) const SLOT_TOMB: usize = 3;

/// Which file of a store a [`Source`] is: decides the kind marker it
/// carries and whether it masks older sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// The file of an index store, or the main file of a segmented one.
    Main,
    /// The file of a document store (slot 3 roots its blob directory).
    Documents,
    /// An immutable segment, by its manifest sequence number.
    Segment(u64),
}

impl Role {
    fn kind(self) -> u64 {
        match self {
            Role::Main => KIND_INDEX_STORE,
            Role::Documents => KIND_DOCUMENT_STORE,
            Role::Segment(_) => KIND_SEGMENT,
        }
    }

    fn is_segment(self) -> bool {
        matches!(self, Role::Segment(_))
    }
}

/// One opened relation file and its resident mirrors.
pub(crate) struct Source {
    pool: BufferPool,
    role: Role,
    /// RAM mirror of the on-disk gram filter: probed on every lookup
    /// without page reads, updated in lockstep with committed writes (the
    /// disk and RAM inserts set the same bits). `None` when the persisted
    /// filter is absent or failed validation — the filter is advisory, so
    /// lookups simply probe every gram.
    filter: Option<GramFilter>,
    /// RAM mirror of the totals relation, exact after every committed
    /// write: which trees are stored, emit-time size-window pruning and
    /// totals reads, all without page I/O.
    totals: TotalsView,
    /// Resident mirror of the inverted directory, kept for segments only:
    /// probes answer from its flat arrays instead of descending the
    /// directory B+-tree. The main file has none (a measured choice,
    /// DESIGN.md §14).
    fence: Option<Fence>,
    /// Every tree id this source masks in older ones, ascending: what a
    /// segment decides (data and tombstones). Empty for a main or document
    /// file — no source is older.
    owned: Vec<u64>,
    /// The tombstoned subset of `owned`, ascending.
    tombstones: Vec<u64>,
}

impl Source {
    /// Creates an empty relation file; `init` roots whatever else the file
    /// carries before the first flush.
    // analyze: txn-exempt(store bootstrap: writes to a file created in this call that no reader has opened; a failed create is fatal and the file is discarded)
    pub(crate) fn create(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        role: Role,
        init: impl FnOnce(&BufferPool) -> Result<()>,
    ) -> Result<Source> {
        let pool = ops::create_file(path, vfs, params, role.kind())?;
        ops::init_relations(&pool)?;
        init(&pool)?;
        pool.flush()?;
        Source::over(pool, role)
    }

    /// Opens a relation file (running crash recovery if needed), checking
    /// the kind marker, the format version and the header's `p, q`, which it
    /// returns. Exactly [`FORMAT_VERSION`] opens: nothing is migrated.
    // analyze: entrypoint(recovery)
    pub(crate) fn open(vfs: Arc<dyn Vfs>, path: &Path, role: Role) -> Result<(Source, PQParams)> {
        let (pool, params) = ops::open_file(path, vfs, role.kind())?;
        let version = pool.meta(SLOT_VERSION);
        if version != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "format version {version} (this build reads and writes version {FORMAT_VERSION} only)"
            )));
        }
        Ok((Source::over(pool, role)?, params))
    }

    /// Loads the mirrors of an initialised file.
    fn over(pool: BufferPool, role: Role) -> Result<Source> {
        let filter = filter::load(&pool)?;
        let totals = TotalsView::load(&pool)?;
        let mut src = Source::unmasked(pool, role, filter, totals);
        if role.is_segment() {
            src.tombstones = stored_tombstones(&src.pool)?;
            src.fence = Some(Fence::build(&BTree::open_existing(&src.pool, SLOT_INV)?)?);
            src.owned = src.decided();
        }
        Ok(src)
    }

    /// A source that masks nothing: what a main or document file is, and
    /// what a segment is before its fence and id lists are filled in.
    fn unmasked(
        pool: BufferPool,
        role: Role,
        filter: Option<GramFilter>,
        totals: TotalsView,
    ) -> Source {
        Source {
            pool,
            role,
            filter,
            totals,
            fence: None,
            owned: Vec::new(),
            tombstones: Vec::new(),
        }
    }

    /// Bulk-builds a relation file from forward rows sorted strictly
    /// ascending by `(treeId, pqg)` — and, for a segment, the ids it
    /// tombstones, ascending — and syncs it to durable storage. The mirrors
    /// come from the build; nothing is read back.
    // analyze: txn-exempt(bulk bootstrap: loads into a file created by this call that no reader has opened; a manifest references it only after the durability barrier at the end, and a failed build is discarded)
    pub(crate) fn build(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        role: Role,
        rows: &[((u64, u64), u32)],
        tombstones: &[u64],
    ) -> Result<Source> {
        let pool = ops::create_file(path, vfs, params, role.kind())?;
        ops::init_relations(&pool)?;
        let built = ops::bulk_load_relations(&pool, rows)?;
        let mut src = Source::unmasked(pool, role, Some(built.filter), built.totals);
        if role.is_segment() {
            let tomb = BTree::open(&src.pool, SLOT_TOMB)?;
            tomb.bulk_load(tombstones.iter().map(|&t| ((t, 0), 1)))?;
            src.tombstones = tombstones.to_vec();
            src.fence = Some(Fence::from_directory(&built.directory));
            src.owned = src.decided();
        }
        // Full durability barrier: the bulk-built state is the baseline
        // every later transaction's rollback falls back to, and what a
        // manifest is about to reference.
        src.pool.sync()?;
        Ok(src)
    }

    /// Bulk-builds the segment of one memtable flush at `path`. The caller
    /// registers the file in the manifest only after this returns — a crash
    /// before registration leaves an orphan that the next open sweeps away.
    pub(crate) fn build_segment(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        seq: u64,
        entries: &BTreeMap<u64, Option<TreeIndex>>,
    ) -> Result<Source> {
        // The map yields tree ids ascending, so sorting each tree's rows
        // by gram leaves the whole relation in key order.
        // One row per distinct gram of each live tree — the number the
        // flush threshold counted.
        let distinct = entries.values().flatten().map(TreeIndex::distinct).sum();
        let mut rows: Vec<((u64, u64), u32)> = Vec::with_capacity(distinct);
        let mut tombstones = Vec::new();
        for (&t, entry) in entries {
            match entry {
                Some(index) if index.total() > 0 => ops::push_tree_rows(&mut rows, t, index),
                _ => tombstones.push(t),
            }
        }
        Source::build(vfs, path, params, Role::Segment(seq), &rows, &tombstones)
    }

    /// Key of this source's entry in [`ops::LookupStats::by_source`]: a
    /// segment's sequence number, or [`MAIN_SOURCE`].
    pub(crate) fn id(&self) -> u64 {
        match self.role {
            Role::Segment(seq) => seq,
            Role::Main | Role::Documents => MAIN_SOURCE,
        }
    }

    /// The file holding this source's relations.
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The gram filter mirror, if the file carries a loadable filter.
    pub(crate) fn filter(&self) -> Option<&GramFilter> {
        self.filter.as_ref()
    }

    /// The totals mirror: which trees this file stores, and their bag
    /// sizes, without a page read.
    pub(crate) fn totals(&self) -> &TotalsView {
        &self.totals
    }

    /// The totals mirror, for tests that make it drift from the file.
    #[cfg(test)]
    pub(crate) fn totals_mut(&mut self) -> &mut TotalsView {
        &mut self.totals
    }

    /// The directory fence (segments only).
    pub(crate) fn fence(&self) -> Option<&Fence> {
        self.fence.as_ref()
    }

    /// Every tree id this source masks in older sources, ascending.
    pub(crate) fn owned(&self) -> &[u64] {
        &self.owned
    }

    /// The tree ids this source tombstones, ascending.
    pub(crate) fn tombstones(&self) -> &[u64] {
        &self.tombstones
    }

    /// The source's verdict on `id`, from its mirrors alone (no page is
    /// touched): `None` if it does not decide the tree, `Some(false)` for a
    /// tombstone, `Some(true)` for stored rows.
    pub(crate) fn decides(&self, id: u64) -> Option<bool> {
        if self.totals.get(id).is_some() {
            Some(true)
        } else {
            self.tombstones.binary_search(&id).is_ok().then_some(false)
        }
    }

    /// Every tree id this source decides — stores or tombstones —
    /// ascending: a segment's `owned` list, and what a main file would own
    /// if anything were older.
    pub(crate) fn decided(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.totals.iter().map(|(t, _)| t).collect();
        ids.extend(&self.tombstones);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Inserts (or replaces) the indexes of `batch` in one transaction;
    /// `also` runs inside it once the relations are written, for whatever
    /// else the file keeps per tree.
    // analyze: txn-boundary
    pub(crate) fn put_trees<E: From<StoreError>>(
        &mut self,
        batch: &[(TreeId, &TreeIndex)],
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut rebuilt = false;
        ops::transactional(&self.pool, || {
            for &(id, index) in batch {
                ops::delete_tree_entries(&self.pool, id)?;
                rebuilt |= ops::put_tree_entries(&self.pool, id, index)?;
            }
            also(&self.pool)
        })?;
        // In batch order: a tree id given twice ends on its later bag.
        for &(id, index) in batch {
            self.mirror_total(id, ops::total_u32(index.total())?);
        }
        let grams = batch.iter().flat_map(|(_, index)| index.iter());
        self.refresh_filter(rebuilt, grams.map(|(g, _)| g))?;
        Ok(())
    }

    /// Deletes every row of `id` in one transaction, with `also` as in
    /// [`Source::put_trees`].
    // analyze: txn-boundary
    pub(crate) fn remove_tree<E: From<StoreError>>(
        &mut self,
        id: TreeId,
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        ops::transactional(&self.pool, || {
            ops::delete_tree_entries(&self.pool, id)?;
            also(&self.pool)
        })?;
        // The gram filter stays a superset — deletes never shrink it.
        self.totals.remove(id.0);
        Ok(())
    }

    /// Applies `I ← I \ I⁻ ⊎ I⁺` to the rows of `id` in one transaction,
    /// with `also` as in [`Source::put_trees`]. A removal the stored bag
    /// cannot satisfy rolls everything back and is reported through
    /// `inconsistent`.
    // analyze: txn-boundary
    pub(crate) fn apply_delta<E: From<StoreError>>(
        &mut self,
        id: TreeId,
        delta: &IndexDelta,
        inconsistent: impl FnOnce(TreeId, GramKey) -> E,
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut applied = (0, false);
        ops::transactional(&self.pool, || {
            applied = ops::apply_delta_rows(&self.pool, id, delta)?
                .map_err(|gram| inconsistent(id, gram))?;
            also(&self.pool)
        })?;
        let (total, rebuilt) = applied;
        self.mirror_total(id, total);
        self.refresh_filter(rebuilt, delta.additions.iter().copied())?;
        Ok(())
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

    /// Folds committed gram insertions into the filter mirror, or reloads
    /// it when the transaction rebuilt (or dropped) the persisted filter.
    /// The mirror and the disk filter set identical bits, so no reload is
    /// needed on the common in-place path.
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

    /// Verifies the relation invariants (see [`ops::verify_relations`]), a
    /// segment's tombstone relation and its disjointness from the data
    /// rows, and everything point access trusts instead of reading: the
    /// totals mirror against a scan of the totals relation, `owned` and
    /// `tombstones` against the id lists the file yields now. A
    /// disagreement is corruption — never a wrong "not mine".
    pub(crate) fn verify(&self) -> Result<StoreCheck> {
        let check = ops::verify_relations(&self.pool)?;
        self.totals.verify(&self.pool)?;
        let (mut owned, mut tombstones) = (Vec::new(), Vec::new());
        if self.role.is_segment() {
            BTree::open_existing(&self.pool, SLOT_TOMB)?.verify()?;
            tombstones = stored_tombstones(&self.pool)?;
            owned = self.decided();
        }
        if owned != self.owned || tombstones != self.tombstones {
            return Err(StoreError::Corrupt(format!(
                "{:?}: cached id lists disagree with its totals and tombstone relations",
                self.role
            )));
        }
        if let Some(t) = tombstones.iter().find(|&&t| self.totals.get(t).is_some()) {
            return Err(StoreError::Corrupt(format!(
                "{:?} both stores and tombstones tree {t}",
                self.role
            )));
        }
        Ok(check)
    }
}

/// The ids in the tombstone relation of a segment file, ascending.
fn stored_tombstones(pool: &BufferPool) -> Result<Vec<u64>> {
    let mut tombstones = Vec::new();
    let tomb = BTree::open_existing(pool, SLOT_TOMB)?;
    tomb.for_each_range((0, 0), (u64::MAX, u64::MAX), |(t, _), _| {
        tombstones.push(t);
        true
    })?;
    Ok(tombstones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn bag(grams: std::ops::Range<u64>) -> TreeIndex {
        let mut index = TreeIndex::empty(PQParams::default());
        grams.for_each(|g| index.add(g));
        index
    }

    /// Trees 1 and 2 stored; a segment also tombstones tree 3. A segment
    /// and a main file are bulk-built, a document file written in place.
    fn source(role: Role) -> Result<Source> {
        let params = PQParams::default();
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
        let path = Path::new("/src/verify");
        let (one, two) = (bag(0..5), bag(3..9));
        match role {
            Role::Segment(seq) => {
                let entries = BTreeMap::from([(1, Some(one)), (2, Some(two)), (3, None)]);
                Source::build_segment(vfs, path, params, seq, &entries)
            }
            Role::Main => {
                let mut rows = Vec::new();
                ops::push_tree_rows(&mut rows, 1, &one);
                ops::push_tree_rows(&mut rows, 2, &two);
                Source::build(vfs, path, params, role, &rows, &[])
            }
            Role::Documents => {
                let mut src = Source::create(vfs, path, params, role, |_| Ok(()))?;
                let batch = [(TreeId(1), &one), (TreeId(2), &two)];
                src.put_trees(&batch, |_| Ok::<_, StoreError>(()))?;
                Ok(src)
            }
        }
    }

    #[test]
    fn verdicts_come_from_the_id_lists() -> TestResult {
        let seg = source(Role::Segment(0))?;
        assert_eq!(seg.decides(1), Some(true));
        assert_eq!(seg.decides(3), Some(false));
        assert_eq!(seg.decides(4), None);
        assert_eq!(seg.owned(), [1, 2, 3]);
        assert_eq!(seg.decided(), [1, 2, 3]);
        let stored = ops::tree_index(seg.pool(), PQParams::default(), TreeId(2))?;
        assert_eq!(stored.map(|index| index.total()), Some(6));
        seg.verify()?;
        // A main file decides what it stores and masks nothing.
        let main = source(Role::Main)?;
        assert_eq!(main.decides(2), Some(true));
        assert_eq!(main.decides(3), None);
        assert_eq!(main.decided(), [1, 2]);
        assert!(main.owned().is_empty() && main.fence().is_none());
        main.verify()?;
        Ok(())
    }

    /// Adds `t` to an ascending id list that lacks it, removes it from one
    /// that holds it: either way the list no longer says what the file does.
    fn toggle(ids: &mut Vec<u64>, t: u64) {
        match ids.binary_search(&t) {
            Ok(at) => drop(ids.remove(at)),
            Err(at) => ids.insert(at, t),
        }
    }

    /// Point access trusts `owned`, `tombstones` and the totals mirror in
    /// place of the file: `verify` must notice when any of them drifts, on
    /// every kind of file.
    #[test]
    fn verify_rejects_mirrors_that_disagree_with_the_file() -> TestResult {
        let drifts: [fn(&mut Source); 5] = [
            |src| toggle(&mut src.owned, 2), // a stored tree "not mine" / masked by a main file
            |src| src.owned.push(7),         // a tree never written
            |src| toggle(&mut src.tombstones, 3), // a tombstone forgotten / invented
            |src| src.totals.remove(1),      // a mirror row lost
            |src| src.totals.set(2, 99),     // a bag size off
        ];
        for role in [Role::Segment(0), Role::Main, Role::Documents] {
            source(role)?.verify()?;
            for drift in drifts {
                let mut src = source(role)?;
                drift(&mut src);
                let verdict = src.verify();
                assert!(matches!(verdict, Err(StoreError::Corrupt(_))), "{role:?}");
            }
        }
        Ok(())
    }
}
