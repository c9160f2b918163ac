//! One opened relation file with its resident mirrors: the source type
//! behind every store handle.
//!
//! A relation file holds the forward, inverted and totals relations and the
//! gram filter (see [`crate::ops`]). A [`Source`] is such a file opened:
//! its buffer pool plus what is kept in RAM so lookups and point access
//! need not read pages — the gram filter, an exact mirror of the totals
//! relation, the directory fence until the first in-place write and, for
//! a segment, the ids it tombstones.
//! [`crate::index_store::IndexStore`] is one source plus its `p, q`
//! parameters, and [`crate::document::DocumentStore`] is an index store
//! whose file also roots a blob directory; a segmented store is a list of
//! sources, newest first. Every kind of file is created, opened,
//! bulk-built, written in place and verified here, so the mirrors cannot
//! drift from the file by a path that forgot one of them.
//!
//! A **segment** is a source with a fourth **tombstone** relation
//! `(treeId, 0) → 1` at slot [`SLOT_TOMB`]: trees removed (or replaced by
//! an empty index) while the source memtable was live. A segment
//! **decides** a tree id if it stores data or a tombstone for it; the
//! newest segment deciding an id shadows every older source (a segmented
//! store's owner map, `crate::segmented`). Segments (and
//! the main file of a segmented store) are written exactly once —
//! bulk-built, fully synced, then registered in the manifest — and never
//! mutated afterwards. That immutability is what makes them safe to share
//! across reader snapshots without any locking beyond the buffer pool's own
//! shards.

use crate::btree::{BTree, Fill};
use crate::buffer::BufferPool;
use crate::fence::Fence;
use crate::filter::{self, GramFilter};
use crate::ops::{
    self, BuildRows, FileKind, StoreCheck, TotalsView, Written, FORMAT_VERSION, MAIN_SOURCE,
    SLOT_INV, SLOT_VERSION,
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
    fn kind(self) -> FileKind {
        match self {
            Role::Main => FileKind::IndexStore,
            Role::Documents => FileKind::DocumentStore,
            Role::Segment(_) => FileKind::Segment,
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
    /// Resident mirror of the inverted directory, kept while no write has
    /// touched the file: probes answer from its flat arrays instead of
    /// walking the directory B+-tree. Handed over by a build, scanned at
    /// open, and dropped by the first in-place write (DESIGN.md §14).
    fence: Option<Fence>,
    /// The tree ids a segment tombstones, ascending. Empty for a main or
    /// document file.
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
        src.fence = Some(stored_directory(&src.pool)?);
        if role.is_segment() {
            src.tombstones = stored_tombstones(&src.pool)?;
        }
        Ok(src)
    }

    /// A source that masks nothing and mirrors no directory: what a file
    /// is before its fence (and, for a segment, its id lists) is filled in.
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
            tombstones: Vec::new(),
        }
    }

    /// Bulk-builds a relation file from the rows of `build` — and, for a
    /// segment, the ids it tombstones, ascending — with B+-tree nodes
    /// filled to `fill`, and syncs it to durable storage. The mirrors come
    /// from the build; nothing is read back.
    // analyze: txn-exempt(bulk bootstrap: loads into a file created by this call that no reader has opened; a manifest references it only after the durability barrier at the end, and a failed build is discarded)
    pub(crate) fn build(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        role: Role,
        build: BuildRows,
        tombstones: &[u64],
        fill: Fill,
    ) -> Result<Source> {
        let pool = ops::create_file(path, vfs, params, role.kind())?;
        ops::init_relations(&pool)?;
        let built = ops::bulk_load_relations(&pool, build, fill)?;
        let mut src = Source::unmasked(pool, role, Some(built.filter), built.totals);
        src.fence = Some(Fence::from_directory(&built.directory));
        if role.is_segment() {
            let tomb = BTree::open(&src.pool, SLOT_TOMB)?;
            tomb.bulk_load_with(tombstones.iter().map(|&t| ((t, 0), 1)), fill)?;
            src.tombstones = tombstones.to_vec();
        }
        // Full durability barrier: the bulk-built state is the baseline
        // every later transaction's rollback falls back to, and what a
        // manifest is about to reference.
        src.pool.sync()?;
        Ok(src)
    }

    /// Bulk-builds the segment of one memtable flush at `path`, packed
    /// full: a segment never takes an insert. The caller registers the
    /// file in the manifest only after this returns — a crash before
    /// registration leaves an orphan that the next open sweeps away.
    pub(crate) fn build_segment(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        seq: u64,
        entries: &BTreeMap<u64, Option<TreeIndex>>,
    ) -> Result<Source> {
        // The map yields tree ids ascending: the build's rank order. One
        // row per distinct gram of each live tree — the number the flush
        // threshold counted.
        let distinct = entries.values().flatten().map(TreeIndex::distinct).sum();
        let mut build = BuildRows::with_capacity(distinct);
        let mut tombstones = Vec::new();
        for (&t, entry) in entries {
            match entry {
                Some(index) if index.total() > 0 => build.push_tree(t, index),
                _ => tombstones.push(t),
            }
        }
        let role = Role::Segment(seq);
        Source::build(vfs, path, params, role, build, &tombstones, Fill::Full)
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

    /// The directory fence, while no write has touched the file.
    pub(crate) fn fence(&self) -> Option<&Fence> {
        self.fence.as_ref()
    }

    /// Every tree id this source decides, in no particular order: those it
    /// stores, then those it tombstones.
    pub(crate) fn decided(&self) -> impl Iterator<Item = u64> + '_ {
        let stored = self.totals.iter().map(|(t, _)| t);
        stored.chain(self.tombstones.iter().copied())
    }

    /// Inserts (or replaces) the indexes of `batch` in one
    /// [`Source::write_in_place`]: each tree's stored rows against its new
    /// bag. A tree id given twice ends on its later bag.
    // analyze: txn-boundary
    pub(crate) fn put_trees<E: From<StoreError>>(
        &mut self,
        batch: &[(TreeId, &TreeIndex)],
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.write_in_place(also, |pool| {
            let mut written = Vec::with_capacity(batch.len());
            for &(id, index) in batch {
                let changes = ops::replacing(pool, id, index.iter())?;
                written.push((id, ops::write_changes(pool, id, changes)?));
            }
            Ok(written)
        })
    }

    /// Deletes every row of `id` in one [`Source::write_in_place`].
    // analyze: txn-boundary
    pub(crate) fn remove_tree<E: From<StoreError>>(
        &mut self,
        id: TreeId,
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.write_in_place(also, |pool| {
            let changes = ops::replacing(pool, id, std::iter::empty())?;
            Ok(vec![(id, ops::write_changes(pool, id, changes)?)])
        })
    }

    /// Applies `I ← I \ I⁻ ⊎ I⁺` to the rows of `id` in one
    /// [`Source::write_in_place`]. A removal the stored bag cannot serve
    /// rolls everything back and is reported through `inconsistent`.
    // analyze: txn-boundary
    pub(crate) fn apply_delta<E: From<StoreError>>(
        &mut self,
        id: TreeId,
        delta: &IndexDelta,
        inconsistent: impl FnOnce(TreeId, GramKey) -> E,
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.write_in_place(also, |pool| {
            let changes =
                ops::delta_changes(pool, id, delta)?.map_err(|gram| inconsistent(id, gram))?;
            Ok(vec![(id, ops::write_changes(pool, id, changes)?)])
        })
    }

    /// The one in-place write. Drops the directory fence first — from here
    /// on probes walk the B+-tree, and a rolled-back write leaves it
    /// dropped — then runs `write` (one [`ops::write_changes`] per tree)
    /// and `also`, for whatever else the file keeps per tree, in one
    /// transaction. Only once that committed are the totals and filter
    /// mirrors set to what it wrote.
    ///
    /// The three writers keep the `txn-boundary` marker: the analyzer
    /// counts their callers' `also` closures as the callers' own calls, so
    /// the boundary has to be the method the closure is handed to.
    fn write_in_place<E: From<StoreError>>(
        &mut self,
        also: impl FnOnce(&BufferPool) -> std::result::Result<(), E>,
        write: impl FnOnce(&BufferPool) -> std::result::Result<Vec<(TreeId, Written)>, E>,
    ) -> std::result::Result<(), E> {
        self.fence = None;
        let mut written = Vec::new();
        ops::transactional(&self.pool, || {
            written = write(&self.pool)?;
            also(&self.pool)
        })?;
        // In write order: a tree written twice ends on its later total —
        // the value the write stored in the totals relation, 0 if the tree
        // is gone.
        let mut rebuilt = false;
        for (id, tree) in &written {
            match tree.total {
                0 => self.totals.remove(id.0),
                total => self.totals.set(id.0, total),
            }
            rebuilt |= tree.rebuilt;
        }
        // The filter mirror sets the bits the write set on disk, unless the
        // write rebuilt (or dropped) the persisted filter: then it reloads.
        if rebuilt {
            self.filter = filter::load(&self.pool)?;
        } else if let Some(f) = self.filter.as_mut() {
            for &g in written.iter().flat_map(|(_, tree)| &tree.fresh) {
                f.insert(g);
            }
        }
        Ok(())
    }

    /// Verifies the relation invariants (see [`ops::verify_relations`]), a
    /// segment's tombstone relation and its disjointness from the data
    /// rows, and everything point access and lookups trust instead of
    /// reading: the totals mirror against a scan of the totals relation,
    /// the fence against a scan of the directory, `tombstones` against the
    /// tombstone relation. A disagreement is corruption — never a wrong
    /// "not mine".
    pub(crate) fn verify(&self) -> Result<StoreCheck> {
        let check = ops::verify_relations(&self.pool)?;
        self.totals.verify(&self.pool)?;
        if let Some(fence) = &self.fence {
            if *fence != stored_directory(&self.pool)? {
                return Err(StoreError::Corrupt(format!(
                    "{:?}: directory mirror disagrees with the inverted directory",
                    self.role
                )));
            }
        }
        let mut tombstones = Vec::new();
        if self.role.is_segment() {
            BTree::open_existing(&self.pool, SLOT_TOMB)?.verify()?;
            tombstones = stored_tombstones(&self.pool)?;
        }
        if tombstones != self.tombstones {
            return Err(StoreError::Corrupt(format!(
                "{:?}: tombstone mirror disagrees with the tombstone relation",
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

/// A fence over the inverted directory of `pool`, by one scan.
fn stored_directory(pool: &BufferPool) -> Result<Fence> {
    Fence::build(&BTree::open_existing(pool, SLOT_INV)?)
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
    /// and a main file are bulk-built, a document file written in place
    /// and reopened.
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
                let mut build = BuildRows::default();
                build.push_tree(1, &one);
                build.push_tree(2, &two);
                Source::build(vfs, path, params, role, build, &[], Fill::Slack)
            }
            Role::Documents => {
                let mut src = Source::create(vfs.clone(), path, params, role, |_| Ok(()))?;
                let batch = [(TreeId(1), &one), (TreeId(2), &two)];
                src.put_trees(&batch, |_| Ok::<_, StoreError>(()))?;
                assert!(src.fence().is_none(), "a write drops the fence");
                drop(src);
                Ok(Source::open(vfs, path, role)?.0)
            }
        }
    }

    #[test]
    fn a_segment_decides_what_it_stores_and_tombstones() -> TestResult {
        let decided = |src: &Source| {
            let mut ids: Vec<u64> = src.decided().collect();
            ids.sort_unstable();
            ids
        };
        let seg = source(Role::Segment(0))?;
        assert_eq!(decided(&seg), [1, 2, 3]);
        assert_eq!(seg.tombstones, [3]);
        let stored = ops::tree_index(seg.pool(), PQParams::default(), TreeId(2))?;
        assert_eq!(stored.map(|index| index.total()), Some(6));
        seg.verify()?;
        // A main file decides what it stores; until a write touches it, it
        // mirrors its directory as a segment does.
        let main = source(Role::Main)?;
        assert_eq!(decided(&main), [1, 2]);
        assert!(main.fence().is_some());
        main.verify()?;
        // So does a reopened document file.
        assert!(source(Role::Documents)?.fence().is_some());
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

    /// Changes the fence's first directory row (the test files' eleven
    /// postings sit in one block: one row).
    fn drift_fence(src: &mut Source, change: fn(&mut u64, &mut u32)) {
        if let Some((gram, value)) = src.fence.as_mut().and_then(|f| f.row_mut(0)) {
            change(gram, value);
        }
    }

    /// Point access and the owner map trust `tombstones` and the totals
    /// mirror in place of the file, and lookups trust the directory fence:
    /// `verify` must notice when any of them drifts, on every kind of file.
    /// (A drifted owner map is `crate::segmented`'s case.)
    #[test]
    fn verify_rejects_mirrors_that_disagree_with_the_file() -> TestResult {
        let drifts: [fn(&mut Source); 6] = [
            |src| toggle(&mut src.tombstones, 3), // a tombstone forgotten / invented
            |src| src.tombstones.push(1),         // a stored tree also tombstoned
            |src| src.totals.remove(1),           // a mirror row lost
            |src| src.totals.set(2, 99),          // a bag size off
            |src| drift_fence(src, |_, v| *v += 1), // a directory value off
            |src| drift_fence(src, |g, _| *g += 1), // a directory gram off
        ];
        for role in [Role::Segment(0), Role::Main, Role::Documents] {
            source(role)?.verify()?;
            for (i, drift) in drifts.iter().enumerate() {
                let mut src = source(role)?;
                drift(&mut src);
                let verdict = src.verify();
                assert!(
                    matches!(verdict, Err(StoreError::Corrupt(_))),
                    "{role:?}, drift {i}: {verdict:?}"
                );
            }
        }
        Ok(())
    }
}
