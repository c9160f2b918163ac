//! Immutable sorted segment files of the segmented ingest path.
//!
//! A segment is a small store file holding the same three relations as the
//! main file (forward, inverted, totals — see [`crate::ops`]) plus a
//! fourth **tombstone** relation `(treeId, 0) → 1` at slot
//! [`SLOT_TOMB`]: trees removed (or replaced by an empty index) while the
//! source memtable was live. A segment **owns** a tree id if it stores
//! data or a tombstone for it; during merged lookups the owning segment's
//! verdict shadows every older segment and the main file.
//!
//! Segments are written exactly once — bulk-built, fully synced, then
//! registered in the manifest — and never mutated afterwards. That
//! immutability is what makes them safe to share across reader snapshots
//! without any locking beyond the buffer pool's own shards.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::fence::Fence;
use crate::filter::{self, GramFilter};
use crate::ops::{
    Source, SourceProbe, TotalsView, FORMAT_VERSION, FORMAT_VERSION_V3, KIND_SEGMENT, SLOT_INV,
    SLOT_VERSION,
};
use crate::pager::{Result, StoreError};
use crate::vfs::Vfs;
use pqgram_core::{PQParams, TreeIndex};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Meta slot of the tombstone relation root: `(treeId, 0) → 1`. Slot 3 is
/// unused by the index-store relation layout (0 forward, 1–2 parameters,
/// 4 inverted, 5 totals, 6 version, 7 kind).
pub(crate) const SLOT_TOMB: usize = 3;

/// One immutable segment: its buffer pool, its manifest sequence number,
/// and the cached id sets that drive shadowing during merged reads.
pub(crate) struct Segment {
    pool: BufferPool,
    seq: u64,
    /// Every tree id this segment decides (data and tombstones), ascending.
    owned: Vec<u64>,
    /// The tombstoned subset of `owned`, ascending.
    tombstones: Vec<u64>,
    /// Resident mirror of the immutable inverted directory: probes answer
    /// from its flat arrays instead of descending the directory B+-tree.
    fence: Fence,
    /// Gram membership filter, loaded once at open (segments are
    /// immutable). `None` on segments written before format v4 — the
    /// filter is advisory, so merged lookups simply probe such segments.
    filter: Option<GramFilter>,
    /// In-memory mirror of the totals relation, loaded once at open:
    /// merged lookups answer size-window checks and per-candidate totals
    /// reads from it without touching the segment's pages.
    totals: TotalsView,
}

impl Segment {
    /// Bulk-builds a segment at `path` from memtable entries and syncs it
    /// to durable storage. The caller registers the file in the manifest
    /// only after this returns — a crash before registration leaves an
    /// orphan that the next open sweeps away.
    // analyze: txn-exempt(segment bootstrap: writes a fresh file no reader has opened; the manifest references it only after the durability barrier at the end, and a failed build is discarded by the orphan sweep)
    pub(crate) fn build(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        seq: u64,
        entries: &BTreeMap<u64, Option<TreeIndex>>,
    ) -> Result<Segment> {
        // A stale file can only be a pre-crash orphan (sequence numbers are
        // reserved durably before any build starts, so live segments never
        // collide); replace it.
        if vfs.exists(path) {
            vfs.delete(path)?;
        }
        let pool = crate::ops::create_file(path, vfs, params, KIND_SEGMENT)?;
        crate::ops::init_relations(&pool)?;
        // The map yields tree ids ascending, so sorting each tree's rows
        // by gram leaves the whole relation in key order.
        // One row per distinct gram of each live tree — the number the
        // flush threshold counted.
        let distinct = entries.values().flatten().map(TreeIndex::distinct).sum();
        let mut rows: Vec<((u64, u64), u32)> = Vec::with_capacity(distinct);
        let mut owned = Vec::with_capacity(entries.len());
        let mut tombstones = Vec::new();
        for (&t, entry) in entries {
            owned.push(t);
            match entry {
                Some(index) if index.total() > 0 => crate::ops::push_tree_rows(&mut rows, t, index),
                _ => tombstones.push(t),
            }
        }
        let built = crate::ops::bulk_load_relations(&pool, &rows)?;
        BTree::open(&pool, SLOT_TOMB)?.bulk_load(tombstones.iter().map(|&t| ((t, 0), 1)))?;
        pool.sync()?;
        Ok(Segment {
            pool,
            seq,
            owned,
            tombstones,
            fence: Fence::from_directory(&built.directory),
            filter: Some(built.filter),
            totals: built.totals,
        })
    }

    /// Opens a live segment, checking the kind marker, format version, and
    /// parameters against the manifest's, and caches the owned-id sets.
    // analyze: entrypoint(recovery)
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        params: PQParams,
        seq: u64,
    ) -> Result<Segment> {
        let (pool, stored) = crate::ops::open_file(path, vfs, KIND_SEGMENT)?;
        let version = pool.meta(SLOT_VERSION);
        // v3 segments (no gram filter) stay readable: segments are
        // immutable, so there is nothing to migrate — the filter is simply
        // absent and merged lookups probe the segment unconditionally.
        if version != FORMAT_VERSION && version != FORMAT_VERSION_V3 {
            return Err(StoreError::Corrupt(format!(
                "segment format version {version} (this build writes {FORMAT_VERSION})"
            )));
        }
        if stored != params {
            return Err(StoreError::Corrupt(format!(
                "segment parameters {stored:?} disagree with the manifest's {params:?}"
            )));
        }
        let totals = TotalsView::load(&pool)?;
        let (owned, tombstones) = id_lists(&pool, &totals)?;
        let fence = Fence::build(&BTree::open_existing(&pool, SLOT_INV)?)?;
        let filter = filter::load(&pool)?;
        Ok(Segment {
            pool,
            seq,
            owned,
            tombstones,
            fence,
            filter,
            totals,
        })
    }

    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// This segment as a lookup source: keyed by its sequence number,
    /// probed through its fence, its gram filter (if the file carries one)
    /// and its totals mirror, masking every tree id it owns.
    pub(crate) fn source(&self) -> Source<'_> {
        Source {
            id: self.seq,
            pool: &self.pool,
            probe: SourceProbe {
                fence: Some(&self.fence),
                filter: self.filter.as_ref(),
                totals: Some(&self.totals),
            },
            owned: &self.owned,
        }
    }

    /// Whether this segment's gram filter decoded and validated at open
    /// (always true for files this build writes; version-3 segments have
    /// none).
    pub(crate) fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Every tree id this segment decides, ascending.
    pub(crate) fn owned(&self) -> &[u64] {
        &self.owned
    }

    /// True if this segment tombstones `id` (in-memory check).
    pub(crate) fn is_tombstoned(&self, id: u64) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// The segment's verdict on `id`, from its id lists alone (no page is
    /// touched): `None` if it does not own the tree, `Some(false)` for a
    /// tombstone, `Some(true)` for stored rows.
    pub(crate) fn decides(&self, id: u64) -> Option<bool> {
        self.owned.binary_search(&id).ok()?;
        Some(!self.is_tombstoned(id))
    }

    /// The file holding this segment's relations, for reads of a tree it
    /// [`Segment::decides`] to hold.
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Verifies the relation invariants, the tombstone relation's
    /// disjointness from the data rows, and everything point access trusts
    /// instead of reading: the totals mirror against a scan of the totals
    /// relation, `owned` and `tombstones` against the id lists the file
    /// yields now. A disagreement is corruption — never a wrong "not mine".
    pub(crate) fn verify(&self) -> Result<crate::ops::StoreCheck> {
        let check = crate::ops::verify_relations(&self.pool)?;
        BTree::open_existing(&self.pool, SLOT_TOMB)?.verify()?;
        self.totals.verify(&self.pool)?;
        let (owned, tombstones) = id_lists(&self.pool, &self.totals)?;
        if owned != self.owned || tombstones != self.tombstones {
            return Err(StoreError::Corrupt(format!(
                "segment {}: cached id lists disagree with its totals and tombstone relations",
                self.seq
            )));
        }
        if let Some(t) = tombstones.iter().find(|&&t| self.totals.get(t).is_some()) {
            return Err(StoreError::Corrupt(format!(
                "segment {} both stores and tombstones tree {t}",
                self.seq
            )));
        }
        Ok(check)
    }
}

/// The id lists of a segment file whose totals relation `totals` mirrors:
/// `(owned, tombstones)`, both ascending — the tombstone relation's ids,
/// and their union with the ids that have a totals row.
fn id_lists(pool: &BufferPool, totals: &TotalsView) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut tombstones = Vec::new();
    let tomb = BTree::open_existing(pool, SLOT_TOMB)?;
    tomb.for_each_range((0, 0), (u64::MAX, u64::MAX), |(t, _), _| {
        tombstones.push(t);
        true
    })?;
    let mut owned: Vec<u64> = totals.iter().map(|(t, _)| t).collect();
    owned.extend(&tombstones);
    owned.sort_unstable();
    owned.dedup();
    Ok((owned, tombstones))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;
    use pqgram_core::TreeId;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    /// Trees 1 and 2 stored, tree 3 tombstoned.
    fn segment() -> Result<Segment> {
        let params = PQParams::default();
        let bag = |grams: std::ops::Range<u64>| {
            let mut index = TreeIndex::empty(params);
            grams.for_each(|g| index.add(g));
            Some(index)
        };
        let entries = BTreeMap::from([(1, bag(0..5)), (2, bag(3..9)), (3, None)]);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
        Segment::build(vfs, Path::new("/seg/verify.seg.0"), params, 0, &entries)
    }

    #[test]
    fn verdicts_come_from_the_id_lists() -> TestResult {
        let seg = segment()?;
        assert_eq!(seg.decides(1), Some(true));
        assert_eq!(seg.decides(3), Some(false));
        assert_eq!(seg.decides(4), None);
        let stored = crate::ops::tree_index(seg.pool(), PQParams::default(), TreeId(2))?;
        assert_eq!(stored.map(|index| index.total()), Some(6));
        seg.verify()?;
        Ok(())
    }

    /// Point access trusts `owned`, `tombstones` and the totals mirror in
    /// place of the file: `verify` must notice when any of them drifts.
    #[test]
    fn verify_rejects_mirrors_that_disagree_with_the_file() -> TestResult {
        let drifts: [fn(&mut Segment); 5] = [
            |seg| seg.owned.retain(|&t| t != 2), // a stored tree "not mine"
            |seg| seg.owned.push(7),             // a tree never written
            |seg| seg.tombstones.clear(),        // a tombstone forgotten
            |seg| seg.totals.remove(1),          // a mirror row lost
            |seg| seg.totals.set(2, 99),         // a bag size off
        ];
        for drift in drifts {
            let mut seg = segment()?;
            drift(&mut seg);
            assert!(matches!(seg.verify(), Err(StoreError::Corrupt(_))));
        }
        Ok(())
    }
}
