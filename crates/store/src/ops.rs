//! Relation-level operations shared by every store handle, and the one
//! read model behind them: a store is an ordered list of [`Source`]s
//! (`crate::segment`), newest first, plus an optional memtable, and
//! [`lookup_merged`] / [`lookup_top_k_merged`] are the only two lookup
//! walks — [`crate::index_store::IndexStore`] and
//! [`crate::document::DocumentStore`] pass their one file,
//! [`crate::segmented::SegmentedIndexStore`] its segments and main file.
//! The header every file kind shares ([`create_file`] / [`open_file`]) and
//! the in-place writers' transaction wrapper live here too.
//!
//! Since format version 2 a store file holds **three** B+-tree relations,
//! maintained together inside every transaction:
//!
//! * **forward** (slot [`SLOT_FWD`]) — `(treeId, pqg) → cnt`, the relation
//!   of Figure 4; one contiguous key range per tree;
//! * **inverted** (slot [`SLOT_INV`]) — `(pqg, treeId) → cnt`, the postings
//!   of each gram; one contiguous key range per gram;
//! * **totals** (slot [`SLOT_TOT`]) — `(treeId, 0) → |I(T)|`, the bag size
//!   of every stored tree. A tree has a totals row iff it has forward rows,
//!   so "is this tree stored" is a single point lookup.
//!
//! The inverted relation turns the approximate lookup from a full scan of
//! the forward relation into a candidate merge: probe only the query's
//! distinct grams, accumulate per-candidate bag intersections, and verify
//! just the candidates a [`pqgram_core::plan::LookupPlanner`] cannot rule
//! out. The planner derives every pruning decision losslessly from the
//! pq-gram distance formula: query grams may be skipped while the overlap
//! they could contribute stays below the admissible bound (the exact
//! overlap is recovered by forward-relation point reads for surviving
//! candidates), posting rows of trees whose bag size falls outside the
//! feasible window are dropped at emit time, and candidates whose observed
//! overlap cannot reach the bound are never verified. One plan serves every
//! `τ`: thresholds above 1 — where zero-overlap trees, at distance exactly
//! 1, are also results — enumerate those trees from the totals relation
//! instead of falling back to an exhaustive scan.
//!
//! All writers sort their rows and go through
//! [`crate::btree::BTree::apply_batch_sorted`], so one tree's update costs
//! a handful of descents plus sequential leaf edits instead of a random
//! root-to-leaf walk per gram.
//!
//! Since format version 3 the inverted relation is a posting *directory*:
//! short posting lists stay as inline rows, long ones are grouped into
//! partitioned Elias-Fano posting blocks on dedicated pack pages (see
//! `crate::postings`). Since format version 4 each store also persists a
//! gram membership filter (see `crate::filter`), maintained in the same
//! transaction as the relations, so lookups can skip probes — and whole
//! sources — that provably hold none of the query's grams. A file of any
//! other version is rejected on open: nothing is migrated.

use crate::btree::{BTree, BTreeCheck};
use crate::buffer::{BufferPool, DEFAULT_CAPACITY};
use crate::filter::{self, GramFilter};
use crate::memtable::Memtable;
use crate::page::PAGE_SIZE_U64;
use crate::pager::{Pager, Result, StoreError};
use crate::postings::{self, DirCursor, DirRow, ProbeCounters};
use crate::segment::Source;
use crate::vfs::Vfs;
use pqgram_core::join::overlap_distance;
use pqgram_core::maintain::IndexDelta;
use pqgram_core::plan::LookupPlanner;
use pqgram_core::topk::TopK;
use pqgram_core::{GramKey, LookupHit, PQParams, TreeId, TreeIndex};
use pqgram_tree::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Meta slot of the forward relation root: `(treeId, pqg) → cnt`.
pub(crate) const SLOT_FWD: usize = 0;
/// Meta slot of the inverted relation root: `(pqg, treeId) → cnt`.
pub(crate) const SLOT_INV: usize = 4;
/// Meta slot of the totals relation root: `(treeId, 0) → |I(T)|`.
pub(crate) const SLOT_TOT: usize = 5;
/// Meta slot holding the on-disk format version.
pub(crate) const SLOT_VERSION: usize = 6;
/// Current format: dual relations + totals + posting directory, plus a
/// per-file gram membership filter (`crate::filter`). The only version
/// that opens (`crate::segment::Source::open`).
pub(crate) const FORMAT_VERSION: u64 = 4;

const KEY_MIN: (u64, u64) = (0, 0);
const KEY_MAX: (u64, u64) = (u64::MAX, u64::MAX);

pub(crate) fn total_u32(total: u64) -> Result<u32> {
    u32::try_from(total).map_err(|_| {
        StoreError::Corrupt(format!("bag size {total} exceeds the u32 totals encoding"))
    })
}

/// Meta slot of the pq-gram parameter `p`.
pub(crate) const META_P: usize = 1;
/// Meta slot of the pq-gram parameter `q`.
pub(crate) const META_Q: usize = 2;
/// Meta slot of the file-kind marker: every file of the engine carries a
/// distinct kind, so none can be opened as another by accident.
pub(crate) const META_KIND: usize = 7;
pub(crate) const KIND_INDEX_STORE: u64 = 1;
pub(crate) const KIND_DOCUMENT_STORE: u64 = 2;
pub(crate) const KIND_MANIFEST: u64 = 3;
pub(crate) const KIND_SEGMENT: u64 = 4;

fn kind_name(kind: u64) -> &'static str {
    match kind {
        KIND_INDEX_STORE => "an index store",
        KIND_DOCUMENT_STORE => "a document store",
        KIND_MANIFEST => "a segmented-store manifest",
        KIND_SEGMENT => "a segment file",
        _ => "of no known kind",
    }
}

/// Creates the file at `path` and stamps the header every kind shares:
/// the pq-gram parameters and the kind marker.
pub(crate) fn create_file(
    path: &Path,
    vfs: Arc<dyn Vfs>,
    params: PQParams,
    kind: u64,
) -> Result<BufferPool> {
    let pool = BufferPool::new(Pager::create_with(path, vfs)?, DEFAULT_CAPACITY);
    pool.set_meta(META_P, u64::try_from(params.p()).unwrap_or(u64::MAX))?;
    pool.set_meta(META_Q, u64::try_from(params.q()).unwrap_or(u64::MAX))?;
    pool.set_meta(META_KIND, kind)?;
    Ok(pool)
}

/// Opens the file at `path` (running pager crash recovery), rejects it
/// unless its kind marker is `kind`, and validates the header's pq-gram
/// parameters.
pub(crate) fn open_file(
    path: &Path,
    vfs: Arc<dyn Vfs>,
    kind: u64,
) -> Result<(BufferPool, PQParams)> {
    let pool = BufferPool::new(Pager::open_with(path, vfs)?, DEFAULT_CAPACITY);
    let found = pool.meta(META_KIND);
    if found != kind {
        return Err(StoreError::Corrupt(format!(
            "not {} (kind marker mismatch: the file is {})",
            kind_name(kind),
            kind_name(found)
        )));
    }
    let p = usize::try_from(pool.meta(META_P)).unwrap_or(0);
    let q = usize::try_from(pool.meta(META_Q)).unwrap_or(0);
    match PQParams::try_new(p, q) {
        Some(params) => Ok((pool, params)),
        None => Err(StoreError::Corrupt(
            "missing pq parameters in header".into(),
        )),
    }
}

/// Rejects an index or query built with different `p, q` parameters — a
/// lookup or update against mismatched grams would be silently wrong.
pub(crate) fn check_params(got: PQParams, expected: PQParams) -> Result<()> {
    if got == expected {
        Ok(())
    } else {
        Err(StoreError::InvalidArgument(format!(
            "parameter mismatch: got {got:?}, store built with {expected:?}"
        )))
    }
}

/// Runs `f` inside one journal transaction on a store's relations: commit
/// on `Ok`, rollback (leaving the previous, mutually consistent state) on
/// `Err`.
// analyze: txn-boundary
pub(crate) fn transactional<E: From<StoreError>>(
    pool: &BufferPool,
    f: impl FnOnce() -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    pool.begin()?;
    match f() {
        Ok(()) => {
            pool.commit()?;
            // Debug builds audit the full storage invariants after
            // every committed mutation; release builds pay nothing.
            #[cfg(debug_assertions)]
            {
                verify_relations(pool)?;
                pool.validate_pager()?;
            }
            Ok(())
        }
        Err(e) => {
            pool.rollback()?;
            Err(e)
        }
    }
}

/// Creates the three relation roots and stamps the format version. Called
/// once per `create` (the pager journals meta slots with the header).
// analyze: txn-exempt(store bootstrap: runs during create before any reader can open the file; callers treat a failed create as fatal and discard the half-built store)
pub(crate) fn init_relations(pool: &BufferPool) -> Result<()> {
    BTree::open(pool, SLOT_FWD)?;
    BTree::open(pool, SLOT_INV)?;
    BTree::open(pool, SLOT_TOT)?;
    filter::create(pool, 0)?;
    pool.set_meta(SLOT_VERSION, FORMAT_VERSION)
}

/// What one bulk build wrote, kept for the handle that opens on top of it:
/// the mirrors [`TotalsView::load`], [`crate::filter::load`] and
/// [`Fence::build`] would otherwise read back from the pages just written.
pub(crate) struct Built {
    /// Mirror of the totals relation.
    pub(crate) totals: TotalsView,
    /// The gram filter that was persisted.
    pub(crate) filter: GramFilter,
    /// The rows of the inverted directory, ascending.
    pub(crate) directory: Vec<DirRow>,
}

/// Appends the forward rows of tree `t`, ascending by gram.
pub(crate) fn push_tree_rows(rows: &mut Vec<((u64, u64), u32)>, t: u64, index: &TreeIndex) {
    let start = rows.len();
    rows.extend(index.iter().map(|(gram, count)| ((t, gram), count)));
    if let Some(own) = rows.get_mut(start..) {
        own.sort_unstable_by_key(|&(k, _)| k);
    }
}

/// Bulk-loads all three relations and the gram filter from rows sorted
/// strictly ascending by `(treeId, pqg)`; the relations must be empty.
/// Everything is derived from `rows` in one pass — nothing is read back.
pub(crate) fn bulk_load_relations(pool: &BufferPool, rows: &[((u64, u64), u32)]) -> Result<Built> {
    BTree::open(pool, SLOT_FWD)?.bulk_load(rows.iter().copied())?;
    let mut inv_rows: Vec<((u64, u64), u32)> = Vec::with_capacity(rows.len());
    let mut totals: Vec<(u64, u64)> = Vec::new();
    for &((t, g), c) in rows {
        match totals.last_mut() {
            Some((last, total)) if *last == t => *total += u64::from(c),
            _ => totals.push((t, u64::from(c))),
        }
        inv_rows.push(((g, t), c));
    }
    inv_rows.sort_unstable_by_key(|&(k, _)| k);
    let inv = BTree::open(pool, SLOT_INV)?;
    let directory = postings::bulk_load_inverted(pool, &inv, &inv_rows)?;
    let mut view = TotalsView::empty();
    let mut tot_rows: Vec<((u64, u64), u32)> = Vec::with_capacity(totals.len());
    for (t, total) in totals {
        let total = total_u32(total)?;
        view.set(t, total);
        tot_rows.push(((t, 0), total));
    }
    BTree::open(pool, SLOT_TOT)?.bulk_load(tot_rows)?;
    // The sorted inverted rows hold every gram's postings side by side.
    let mut grams: Vec<u64> = Vec::new();
    for &((g, _), _) in &inv_rows {
        if grams.last() != Some(&g) {
            grams.push(g);
        }
    }
    let filter = filter::build(pool, &grams)?;
    Ok(Built {
        totals: view,
        filter,
        directory,
    })
}

/// Deletes every row of `id` from all three relations.
pub(crate) fn delete_tree_entries(pool: &BufferPool, id: TreeId) -> Result<()> {
    let fwd = BTree::open(pool, SLOT_FWD)?;
    let mut grams = Vec::new();
    fwd.for_each_range((id.0, 0), (id.0, u64::MAX), |(_, g), _| {
        grams.push(g);
        true
    })?;
    if grams.is_empty() {
        return Ok(());
    }
    // The range scan yields grams ascending: the batch is sorted.
    fwd.apply_batch_sorted(grams.iter().map(|&g| ((id.0, g), None)))?;
    let inv = BTree::open(pool, SLOT_INV)?;
    for &g in &grams {
        if !postings::remove_posting(pool, &inv, g, id.0)? {
            return Err(StoreError::Corrupt(format!(
                "inverted relation missing posting ({g}, {}) during delete",
                id.0
            )));
        }
    }
    BTree::open(pool, SLOT_TOT)?.delete((id.0, 0))?;
    Ok(())
}

/// Inserts all rows of `index` under `id` into all three relations (caller
/// clears old rows first) and folds the tree's grams into the gram filter.
/// An empty index stores nothing — empty trees are not representable in the
/// relation, matching version 1. Returns `true` if the filter was rebuilt
/// (or dropped) rather than updated in place: callers holding an in-memory
/// mirror of the filter must reload it.
pub(crate) fn put_tree_entries(pool: &BufferPool, id: TreeId, index: &TreeIndex) -> Result<bool> {
    let mut rows: Vec<(GramKey, u32)> = index.iter().collect();
    if rows.is_empty() {
        return Ok(false);
    }
    rows.sort_unstable_by_key(|&(g, _)| g);
    BTree::open(pool, SLOT_FWD)?
        .apply_batch_sorted(rows.iter().map(|&(g, c)| ((id.0, g), Some(c))))?;
    let inv = BTree::open(pool, SLOT_INV)?;
    for &(g, c) in &rows {
        postings::upsert_posting(pool, &inv, g, id.0, c)?;
    }
    BTree::open(pool, SLOT_TOT)?.insert((id.0, 0), total_u32(index.total())?)?;
    let mut grams: Vec<u64> = rows.iter().map(|&(g, _)| g).collect();
    filter::insert_grams(pool, &mut grams)
}

/// Materializes the stored index of `id` (`None` if no rows): one forward
/// range read, then a bag sized for exactly the rows read — a bag grown
/// while the rows arrive rehashes several times over.
pub(crate) fn tree_index(
    pool: &BufferPool,
    params: PQParams,
    id: TreeId,
) -> Result<Option<TreeIndex>> {
    let tree = BTree::open_existing(pool, SLOT_FWD)?;
    let mut rows: Vec<(GramKey, u32)> = Vec::new();
    tree.for_each_range((id.0, 0), (id.0, u64::MAX), |(_, gram), count| {
        rows.push((gram, count));
        true
    })?;
    let index = TreeIndex::from_rows(params, &rows);
    Ok((index.total() > 0).then_some(index))
}

/// Applies `I ← I \ I⁻ ⊎ I⁺` to the rows of `id` across all three
/// relations, folding the added grams into the gram filter (removals never
/// shrink it — the filter stays a superset). The inner `Err` is the first
/// gram (in `delta.removals` order) whose removal failed — nothing has been
/// written and the caller rolls the transaction back. The inner `Ok` is
/// `(total, rebuilt)`: the tree's new bag size (0 — the tree is gone) and
/// whether the filter was rebuilt (or dropped) rather than updated in
/// place, for callers holding in-memory mirrors of either.
pub(crate) fn apply_delta_rows(
    pool: &BufferPool,
    id: TreeId,
    delta: &IndexDelta,
) -> Result<std::result::Result<(u32, bool), GramKey>> {
    let fwd = BTree::open(pool, SLOT_FWD)?;
    // Current multiplicity of every touched gram (one point read each).
    let mut stored: FxHashMap<GramKey, u32> = FxHashMap::default();
    for &g in delta.removals.iter().chain(&delta.additions) {
        if let std::collections::hash_map::Entry::Vacant(e) = stored.entry(g) {
            e.insert(fwd.get((id.0, g))?.unwrap_or(0));
        }
    }
    // Replay removals in order *before* writing anything, so the reported
    // gram matches the one-at-a-time semantics of version 1.
    let mut after = stored.clone();
    for &g in &delta.removals {
        match after.get_mut(&g) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return Ok(Err(g)),
        }
    }
    for &g in &delta.additions {
        if let Some(c) = after.get_mut(&g) {
            *c += 1;
        }
    }
    // Net row mutations, sorted by gram; unchanged multiplicities drop out.
    let mut ops: Vec<(GramKey, Option<u32>)> = after
        .iter()
        .filter(|&(g, &c)| stored.get(g) != Some(&c))
        .map(|(&g, &c)| (g, (c > 0).then_some(c)))
        .collect();
    ops.sort_unstable_by_key(|&(g, _)| g);
    fwd.apply_batch_sorted(ops.iter().map(|&(g, v)| ((id.0, g), v)))?;
    let inv = BTree::open(pool, SLOT_INV)?;
    for &(g, v) in &ops {
        match v {
            Some(c) => postings::upsert_posting(pool, &inv, g, id.0, c)?,
            None => {
                if !postings::remove_posting(pool, &inv, g, id.0)? {
                    return Err(StoreError::Corrupt(format!(
                        "inverted relation missing posting ({g}, {}) during delta",
                        id.0
                    )));
                }
            }
        }
    }
    let tot = BTree::open(pool, SLOT_TOT)?;
    let old_total = u64::from(tot.get((id.0, 0))?.unwrap_or(0));
    let removed = u64::try_from(delta.removals.len()).unwrap_or(u64::MAX);
    let added = u64::try_from(delta.additions.len()).unwrap_or(u64::MAX);
    let Some(new_total) = (old_total + added).checked_sub(removed) else {
        return Err(StoreError::Corrupt(format!(
            "delta removes more grams than {id:?} holds (total {old_total})"
        )));
    };
    let new_total = total_u32(new_total)?;
    if new_total == 0 {
        tot.delete((id.0, 0))?;
    } else {
        tot.insert((id.0, 0), new_total)?;
    }
    let mut added: Vec<u64> = delta.additions.clone();
    let rebuilt = if added.is_empty() {
        false
    } else {
        filter::insert_grams(pool, &mut added)?
    };
    Ok(Ok((new_total, rebuilt)))
}

/// Source id used in [`LookupStats::by_source`] for the main store file.
/// Segment sources report their sequence number instead.
pub const MAIN_SOURCE: u64 = u64::MAX;

/// Source id used in [`LookupStats::by_source`] for the in-memory
/// memtable (it reads no disk rows, so its row count is always zero).
pub const MEMTABLE_SOURCE: u64 = u64::MAX - 1;

/// Which access plan a lookup executed.
///
/// Every threshold runs the candidate merge. Thresholds above 1 — where
/// zero-overlap trees, at distance exactly 1, are also results — enumerate
/// those trees from the totals relation (one row per tree) instead of
/// falling back to an exhaustive forward scan, so the old `τ > 1` cost
/// cliff ("every row in the store") no longer exists; see DESIGN.md §15.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LookupPlan {
    /// Planner-driven candidate merge over the inverted posting directory.
    #[default]
    CandidateMerge,
    /// Exhaustive forward scan requested explicitly (benchmark reference
    /// and test oracle).
    ExhaustiveReference,
}

/// On-disk footprint of one store's relations, in bytes (whole pages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelationBytes {
    /// Forward relation B+-tree pages.
    pub forward: u64,
    /// Inverted posting-directory B+-tree pages.
    pub inverted_directory: u64,
    /// Pack pages holding Elias-Fano posting blocks.
    pub posting_blocks: u64,
    /// Totals relation B+-tree pages.
    pub totals: u64,
}

impl RelationBytes {
    /// Bytes of the whole inverted relation: directory plus posting blocks.
    pub fn inverted_total(&self) -> u64 {
        self.inverted_directory + self.posting_blocks
    }

    /// Bytes across all relations.
    pub fn total(&self) -> u64 {
        self.forward + self.inverted_directory + self.posting_blocks + self.totals
    }
}

/// Measures the on-disk footprint of each relation by walking its pages.
pub(crate) fn relation_bytes(pool: &BufferPool) -> Result<RelationBytes> {
    let fwd = BTree::open_existing(pool, SLOT_FWD)?;
    let inv = BTree::open_existing(pool, SLOT_INV)?;
    let tot = BTree::open_existing(pool, SLOT_TOT)?;
    let (_, _, pack_pages) = postings::expand_all(pool, &inv)?;
    Ok(RelationBytes {
        forward: fwd.page_span()? * PAGE_SIZE_U64,
        inverted_directory: inv.page_span()? * PAGE_SIZE_U64,
        posting_blocks: u64::try_from(pack_pages.len()).unwrap_or(u64::MAX) * PAGE_SIZE_U64,
        totals: tot.page_span()? * PAGE_SIZE_U64,
    })
}

/// Access-path and work counters of one lookup: a [`lookup_merged`] or
/// [`lookup_top_k_merged`] walk over a store's sources, or the reference
/// scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// B+-tree rows read: posting rows, one totals row per candidate (or
    /// zero-overlap tree), and one forward point read per budget-skipped
    /// gram per verified candidate on the merge plan; every forward row on
    /// the scan plan.
    pub rows_read: u64,
    /// Distinct query grams actually probed (merge plan only).
    pub grams_probed: usize,
    /// Trees that surfaced as candidates: trees sharing a probed gram with
    /// the query, plus the zero-overlap trees enumerated when `τ > 1` (scan
    /// plan: every stored tree).
    pub candidates: usize,
    /// Candidates surviving the planner's size window whose distance was
    /// computed.
    pub verified: usize,
    /// Results admitted by the threshold (or kept by the top-k heap).
    pub hits: usize,
    /// Which access plan ran.
    pub plan: LookupPlan,
    /// Sources (memtable, segments, main file) the lookup considered.
    pub sources_considered: usize,
    /// Sources skipped whole because their gram filter rejected every
    /// query gram.
    pub sources_skipped_filter: usize,
    /// Sources skipped whole because no stored bag size in the source's
    /// totals range fits the planner's feasible size window.
    pub sources_skipped_window: usize,
    /// Query grams never probed because a source's filter rejected them.
    pub grams_skipped_filter: usize,
    /// Query grams never probed because the overlap they could contribute
    /// stays below the planner's admissible bound (their exact overlap is
    /// recovered per verified candidate by forward point reads).
    pub grams_skipped_budget: usize,
    /// Probes the gram filter admitted that then produced no posting rows.
    pub filter_false_positive_probes: u64,
    /// Posting rows dropped at emit time because the tree's bag size falls
    /// outside the planner's feasible size window.
    pub rows_pruned_window: u64,
    /// Posting blocks the probe phase decoded rows from: a block counts
    /// when a gram first decodes it, and again only if the probe's
    /// two-block memo dropped it in between. A boundary block that was
    /// fetched only to be skipped does not count.
    pub blocks_decoded: u64,
    /// Boundary blocks — the first block keyed past a probed gram — ruled
    /// out by the first key in their header, once per gram that ruled one
    /// out (the next gram may still decode the same block).
    pub blocks_skipped: u64,
    /// Entry bytes (header, payload and checksum) of the blocks counted in
    /// `blocks_decoded`.
    pub bytes_decoded: u64,
    /// Rows read per source, in probe order: one `(source, rows)` entry per
    /// live segment (keyed by its sequence number) and one for the main
    /// file (keyed by [`MAIN_SOURCE`]). A single-file store reports exactly
    /// one [`MAIN_SOURCE`] entry.
    pub by_source: Vec<(u64, u64)>,
    /// Where the call's wall time went.
    pub phases: LookupPhases,
}

/// Coarse phase clocks of one lookup, summed over its sources. Every
/// phase boundary reads the clock once and charges everything since the
/// previous boundary (three reads per source), so the four phases add up
/// to the call's wall time with no gaps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupPhases {
    /// Deciding what to read: sorting the query's grams, filter and
    /// size-window consults, the directory visit of every probe gram, the
    /// skip-cost estimates and the budget cut.
    pub plan: Duration,
    /// Reading it: posting fetch, validation, decode and the per-tree
    /// overlap merge, including re-probes of provisional skips.
    pub probe: Duration,
    /// Totals reads, compensation point reads and exact distances for the
    /// surviving candidates, the zero-overlap sweep, and the memtable pass.
    pub verify: Duration,
    /// Ordering the hits.
    pub sort: Duration,
}

impl LookupPhases {
    /// The four phases together.
    pub fn total(&self) -> Duration {
        self.plan + self.probe + self.verify + self.sort
    }
}

/// The lap timer behind [`LookupPhases`].
struct PhaseClock(Instant);

impl PhaseClock {
    fn start() -> PhaseClock {
        PhaseClock(Instant::now())
    }

    /// Time since the previous lap (or the start).
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// The query as the candidate merge consumes it: its `(gram,
/// multiplicity)` list ascending by gram — sorted once per lookup and
/// shared by every source — and its bag size.
struct QueryGrams {
    grams: Vec<(GramKey, u32)>,
    total: u64,
}

impl QueryGrams {
    fn of(query: &TreeIndex) -> QueryGrams {
        let mut grams: Vec<(GramKey, u32)> = query.iter().collect();
        grams.sort_unstable_by_key(|&(g, _)| g);
        QueryGrams {
            grams,
            total: query.total(),
        }
    }
}

impl LookupStats {
    /// Folds probe-phase decode counters into the stats.
    fn absorb(&mut self, counters: &ProbeCounters) {
        self.rows_read += counters.rows;
        self.blocks_decoded += counters.blocks_decoded;
        self.blocks_skipped += counters.blocks_skipped;
        self.bytes_decoded += counters.bytes_decoded;
    }
}

/// An in-memory mirror of one source's totals relation: the exact
/// `treeId → |I(T)|` map plus loose min/max bag-size bounds. The bounds
/// only widen (removals never shrink them), so they always cover every
/// stored bag size — a conservative input to the planner's size window.
#[derive(Clone, Debug, Default)]
pub(crate) struct TotalsView {
    map: BTreeMap<u64, u32>,
    min_total: u32,
    max_total: u32,
}

impl TotalsView {
    /// An empty view (bounds cover nothing).
    pub(crate) fn empty() -> TotalsView {
        TotalsView {
            map: BTreeMap::new(),
            min_total: u32::MAX,
            max_total: 0,
        }
    }

    /// Loads the view from one ordered scan of the totals relation.
    pub(crate) fn load(pool: &BufferPool) -> Result<TotalsView> {
        let tot = BTree::open_existing(pool, SLOT_TOT)?;
        let mut view = TotalsView::empty();
        tot.for_each_range(KEY_MIN, KEY_MAX, |(t, _), c| {
            view.set(t, c);
            true
        })?;
        Ok(view)
    }

    /// Checks the view against a fresh scan of the totals relation it
    /// mirrors: the same trees with the same bag sizes. Point access trusts
    /// the view in place of that relation, so a disagreement is corruption.
    pub(crate) fn verify(&self, pool: &BufferPool) -> Result<()> {
        if TotalsView::load(pool)?.map != self.map {
            return Err(StoreError::Corrupt(
                "totals mirror disagrees with the totals relation".into(),
            ));
        }
        Ok(())
    }

    /// Inserts or updates one tree's bag size, widening the bounds.
    pub(crate) fn set(&mut self, t: u64, total: u32) {
        self.min_total = self.min_total.min(total);
        self.max_total = self.max_total.max(total);
        self.map.insert(t, total);
    }

    /// Removes one tree (the bounds stay wide — still a superset).
    pub(crate) fn remove(&mut self, t: u64) {
        self.map.remove(&t);
    }

    /// The stored bag size of `t`, if present.
    pub(crate) fn get(&self, t: u64) -> Option<u32> {
        self.map.get(&t).copied()
    }

    /// Conservative `(lo, hi)` covering every stored bag size. An empty
    /// view returns an empty range (`lo > hi`).
    pub(crate) fn bounds(&self) -> (u64, u64) {
        if self.map.is_empty() {
            (1, 0)
        } else {
            (u64::from(self.min_total), u64::from(self.max_total))
        }
    }

    /// All `(treeId, total)` pairs, ascending by tree id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.map.iter().map(|(&t, &c)| (t, c))
    }
}

/// Budget skipping only pays when a gram's postings dwarf the per-survivor
/// compensation point read; grams estimated below this many rows are
/// always probed.
const SKIP_MIN_ROWS: u64 = 16;

/// The probe phase's output for one source.
#[derive(Default)]
struct Gathered {
    /// `(treeId, observed overlap)` of every surviving candidate,
    /// ascending by tree id.
    candidates: Vec<(u64, u64)>,
    /// Budget-skipped query grams `(gram, query multiplicity)`, ascending
    /// by gram; their overlap is recovered per candidate at verify time.
    skipped: Vec<(GramKey, u32)>,
}

/// One query gram of a source's probe list with the directory rows its
/// one directory visit returned (a range into the shared row buffer).
struct ProbeGram {
    gram: GramKey,
    qc: u32,
    dir: Range<usize>,
}

fn dir_rows<'r>(rows: &'r [DirRow], p: &ProbeGram) -> &'r [DirRow] {
    rows.get(p.dir.clone()).unwrap_or(&[])
}

/// `Merge::shared` value of a tree whose bag size lies outside the size
/// window: its rows count as pruned, it is never a candidate.
const PRUNED: u64 = u64::MAX;
/// `Merge::shared` value of a tree owned by a newer source.
const MASKED: u64 = u64::MAX - 1;
/// Value of a free [`OverlapTable`] slot. Every overlap is a sum of `u32`
/// multiplicities over at most 2^32 grams, far below the three sentinels.
const EMPTY: u64 = u64::MAX - 2;

/// The `treeId → value` table of the overlap merge: open addressing over
/// one slot array, multiplicative hashing, linear probing, doubled when
/// half full, so a posting row costs one multiplication and — nearly
/// always — one slot. A slot is free while its value is [`EMPTY`]; keys
/// are any `u64`.
struct OverlapTable {
    /// `(treeId, value)` slots, a power of two of them.
    slots: Vec<(u64, u64)>,
    used: usize,
    /// `64 - log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
}

impl OverlapTable {
    /// `log2` of the slots a table starts with: 16 KiB, 512 trees before
    /// the first doubling. Growing is what costs — a table that starts at
    /// 64 slots and doubles four times to hold the ≈ 380 trees a
    /// `lookup-hot` lookup surfaces gives back more than half of what the
    /// table saves over the hash map (EXPERIMENTS.md, PR 21).
    const INITIAL_BITS: u32 = 10;

    fn with_bits(bits: u32) -> OverlapTable {
        OverlapTable {
            slots: vec![(0, EMPTY); 1usize << bits],
            used: 0,
            shift: 64 - bits,
        }
    }

    /// Index of the slot holding `t`, or of the free slot `t` would take.
    #[inline]
    fn find(&self, t: u64) -> usize {
        let mask = self.slots.len() - 1;
        let hash = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift;
        let mut i = usize::try_from(hash).unwrap_or(0);
        while (self.slots.get(i)).is_some_and(|&(k, v)| v != EMPTY && k != t) {
            i = (i + 1) & mask;
        }
        i
    }

    /// Fills the free slot `i` that [`OverlapTable::find`] returned for
    /// `t`, then doubles the table if that left it more than half full.
    fn insert(&mut self, i: usize, t: u64, value: u64) {
        self.place(i, t, value);
        self.used += 1;
        if self.used * 2 > self.slots.len() {
            let mut grown = OverlapTable::with_bits(65 - self.shift);
            for (k, v) in self.iter() {
                grown.place(grown.find(k), k, v);
            }
            grown.used = self.used;
            *self = grown;
        }
    }

    fn place(&mut self, i: usize, t: u64, value: u64) {
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = (t, value);
        }
    }

    /// Every `(treeId, value)` held, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().copied().filter(|&(_, v)| v != EMPTY)
    }
}

/// The per-tree overlap merge of one source's probes. Every posting row
/// costs one [`OverlapTable`] slot; the skip mask, the totals mirror and
/// the size window are consulted only when a tree id is first seen, and a
/// tree they rule out is remembered under a sentinel so its later rows are
/// still counted exactly.
pub(crate) struct Merge<'a> {
    skip: &'a FxHashSet<u64>,
    /// The source's totals mirror.
    totals: &'a TotalsView,
    /// The planner's inclusive bag-size window, derived once per source.
    window: (u64, u64),
    /// `treeId → observed overlap`, or [`PRUNED`] / [`MASKED`].
    shared: OverlapTable,
    /// Entries of `shared` that are real candidates.
    pub(crate) live: usize,
    pruned_window: u64,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(
        skip: &'a FxHashSet<u64>,
        totals: &'a TotalsView,
        window: (u64, u64),
    ) -> Merge<'a> {
        Merge {
            skip,
            totals,
            window,
            shared: OverlapTable::with_bits(OverlapTable::INITIAL_BITS),
            live: 0,
            pruned_window: 0,
        }
    }

    /// Folds one posting row — tree `t` stores the probed gram `c` times,
    /// the query `qc` times — into the tree's overlap.
    #[inline]
    pub(crate) fn emit(&mut self, qc: u32, t: u64, c: u32) {
        let i = self.shared.find(t);
        match self.shared.slots.get_mut(i) {
            Some((_, PRUNED)) => self.pruned_window += 1,
            Some((_, MASKED)) => {}
            Some((_, seen)) if *seen != EMPTY => *seen += u64::from(qc.min(c)),
            _ => {
                let (lo, hi) = self.window;
                let outside = |m: u32| !(lo..=hi).contains(&u64::from(m));
                let first = if self.skip.contains(&t) {
                    MASKED
                } else if self.totals.get(t).is_some_and(outside) {
                    self.pruned_window += 1;
                    PRUNED
                } else {
                    self.live += 1;
                    u64::from(qc.min(c))
                };
                self.shared.insert(i, t, first);
            }
        }
    }

    /// `(treeId, observed overlap)` of every real candidate, unordered.
    fn candidates(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.shared.iter().filter(|&(_, o)| o < MASKED)
    }
}

/// The probe phase of the candidate merge against one source: consult the
/// gram filter, the planner's size window, and the overlap budget, then
/// probe the remaining query grams and accumulate per-tree bag
/// intersections.
///
/// `skip` masks out trees owned by a newer source in a segmented store:
/// their posting rows are still read (and counted) during the probe, but
/// they contribute no candidate. An empty mask is the plain single-file
/// plan, byte for byte.
///
/// Charges its planning stage to `stats.phases.plan`; the caller charges
/// the rest of the call to `probe`.
fn gather_candidates(
    src: &Source,
    query: &QueryGrams,
    planner: &LookupPlanner,
    skip: &FxHashSet<u64>,
    stats: &mut LookupStats,
    clock: &mut PhaseClock,
) -> Result<Gathered> {
    stats.sources_considered += 1;
    let mut grams: Vec<(GramKey, u32)> = query.grams.clone();
    // Membership filter: a rejected gram is definitively absent from
    // this source — zero overlap, nothing to probe or compensate.
    if let Some(f) = src.filter() {
        let before = grams.len();
        grams.retain(|&(g, _)| f.contains(g));
        stats.grams_skipped_filter += before - grams.len();
        if before > 0 && grams.is_empty() && !planner.needs_zero_overlap() {
            stats.sources_skipped_filter += 1;
            return Ok(Gathered::default());
        }
    }
    // Size window: if no bag size this source stores can reach the
    // bound even at maximal overlap, nothing here is a result. (When
    // the bound admits distance 1.0 every size is feasible, so this
    // never conflicts with zero-overlap enumeration.)
    let (lo, hi) = src.totals().bounds();
    if !planner.admits_total_range(lo, hi) && !planner.needs_zero_overlap() {
        stats.sources_skipped_window += 1;
        return Ok(Gathered::default());
    }
    // One directory visit per gram, in ascending order behind a forward
    // cursor; its rows serve the skip-cost estimate and the probe alike
    // (walks are not counted as reads).
    let pool = src.pool();
    let mut dir = DirCursor::open(pool, src.fence())?;
    let mut rows: Vec<DirRow> = Vec::new();
    let mut probe: Vec<ProbeGram> = Vec::with_capacity(grams.len());
    for (gram, qc) in grams {
        let from = rows.len();
        dir.visit(gram, &mut rows)?;
        probe.push(ProbeGram {
            gram,
            qc,
            dir: from..rows.len(),
        });
    }
    // Overlap budget: a set of grams whose summed query multiplicity stays
    // at or below the budget can be skipped — a tree found only in them
    // cannot reach the bound, and one found elsewhere gets their exact
    // contribution back via forward point reads. Skip the costliest grams
    // first, by directory row estimates (ties: ascending gram).
    let mut skipped: Vec<(u64, ProbeGram)> = Vec::new();
    let mut skipped_mass = 0u64;
    let budget = planner.overlap_budget();
    if budget > 0 {
        let mut est: Vec<(u64, usize, u64)> = (probe.iter().enumerate())
            .map(|(i, p)| {
                (
                    postings::estimate_rows(dir_rows(&rows, p), p.gram),
                    i,
                    u64::from(p.qc),
                )
            })
            .collect();
        est.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut cut: Vec<(usize, u64)> = Vec::new();
        for &(est_rows, i, qc) in est.iter().take_while(|e| e.0 >= SKIP_MIN_ROWS) {
            if skipped_mass + qc <= budget {
                skipped_mass += qc;
                cut.push((i, est_rows));
            }
        }
        cut.sort_unstable();
        for &(i, est_rows) in cut.iter().rev() {
            skipped.push((est_rows, probe.remove(i)));
        }
    }
    stats.phases.plan += clock.lap();
    let mut merge = Merge::new(skip, src.totals(), planner.total_window());
    let mut counters = ProbeCounters::default();
    let mut cache = postings::BlockCache::default();
    let count_false_positives = src.filter().is_some();
    let mut probe_one = |merge: &mut Merge<'_>, stats: &mut LookupStats, p: &ProbeGram| {
        let before = counters.rows;
        let mut emit = |t: u64, c: u32| merge.emit(p.qc, t, c);
        let dir = dir_rows(&rows, p);
        postings::for_each_posting(pool, dir, p.gram, &mut cache, &mut counters, &mut emit)?;
        if count_false_positives && counters.rows == before {
            stats.filter_false_positive_probes += 1;
        }
        Ok::<_, StoreError>(())
    };
    for p in &probe {
        probe_one(&mut merge, stats, p)?;
    }
    let mut probed = probe.len();
    // Second look at the provisional skips: compensation later costs
    // one forward point read per surviving candidate, so a skipped
    // gram only pays off when its posting list outweighs the current
    // candidate set. Re-probe the rest, cheapest first — a re-probe
    // can only add candidates, so the greedy cut is monotone.
    skipped.sort_unstable_by_key(|(est_rows, p)| (*est_rows, p.gram));
    let mut kept: Vec<(GramKey, u32)> = Vec::with_capacity(skipped.len());
    for (est_rows, p) in &skipped {
        if *est_rows <= u64::try_from(merge.live).unwrap_or(u64::MAX) {
            probe_one(&mut merge, stats, p)?;
            skipped_mass -= u64::from(p.qc);
            probed += 1;
        } else {
            kept.push((p.gram, p.qc));
        }
    }
    stats.grams_probed += probed;
    stats.grams_skipped_budget += kept.len();
    stats.absorb(&counters);
    stats.rows_pruned_window += merge.pruned_window;
    stats.candidates += merge.live;
    // Coarse overlap prune: `observed + skipped_mass` bounds the true
    // overlap from above, so a candidate the planner rejects here cannot
    // reach the bound with any compensation.
    let mut candidates: Vec<(u64, u64)> = merge
        .candidates()
        .filter(|&(_, o)| planner.admits_overlap(o + skipped_mass))
        .collect();
    candidates.sort_unstable_by_key(|&(t, _)| t);
    kept.sort_unstable_by_key(|&(g, _)| g);
    Ok(Gathered {
        candidates,
        skipped: kept,
    })
}

/// Enumerates the trees of one source sharing **no** gram with the query —
/// at pq-gram distance exactly 1 — ascending by tree id, excluding the
/// `skip` mask and the already-surfaced `exclude` candidates (sorted by
/// tree id). Runs only when the planner admits distance 1.0, in which case
/// no window or overlap prune can have fired, so `exclude` holds *every*
/// tree sharing a gram and the union is exactly the stored forest. Each
/// enumerated tree costs one totals row, read from the mirror.
fn for_each_zero_overlap(
    src: &Source,
    skip: &FxHashSet<u64>,
    exclude: &[(u64, u64)],
    stats: &mut LookupStats,
    mut f: impl FnMut(u64, u32) -> bool,
) {
    let mut i = 0usize;
    for (t, m) in src.totals().iter() {
        while exclude.get(i).is_some_and(|&(e, _)| e < t) {
            i += 1;
        }
        if exclude.get(i).is_some_and(|&(e, _)| e == t) || skip.contains(&t) {
            continue;
        }
        stats.rows_read += 1;
        stats.candidates += 1;
        stats.verified += 1;
        if !f(t, m) {
            break;
        }
    }
}

/// The candidate check of both walks: the exact distance of candidate
/// `(treeId, observed overlap)` of `src` — or `None` if its bag size falls
/// outside the planner's window. Costs one totals read (from the mirror)
/// and, for a survivor, one forward point read per budget-skipped gram of
/// `skipped`.
fn candidate_distance(
    src: &Source,
    fwd: &BTree<'_>,
    query: &QueryGrams,
    planner: &LookupPlanner,
    skipped: &[(GramKey, u32)],
    (t, mut overlap): (u64, u64),
    stats: &mut LookupStats,
) -> Result<Option<f64>> {
    let total = src.totals().get(t).ok_or_else(|| {
        StoreError::Corrupt(format!("tree {t} has inverted rows but no totals row"))
    })?;
    let total = u64::from(total);
    stats.rows_read += 1;
    if !planner.admits_total(total) {
        return Ok(None);
    }
    for &(g, qc) in skipped {
        stats.rows_read += 1;
        if let Some(c) = fwd.get((t, g))? {
            overlap += u64::from(qc.min(c));
        }
    }
    stats.verified += 1;
    Ok(Some(overlap_distance(overlap, query.total, total)))
}

/// The planner-driven candidate merge against one source, appending its
/// hits (unsorted — the caller sorts once at the end). Verification costs
/// one [`candidate_distance`] per candidate, ascending by tree id.
fn lookup_source_threshold(
    src: &Source,
    query: &QueryGrams,
    planner: &LookupPlanner,
    skip: &FxHashSet<u64>,
    stats: &mut LookupStats,
    clock: &mut PhaseClock,
    hits: &mut Vec<LookupHit>,
) -> Result<()> {
    let gathered = gather_candidates(src, query, planner, skip, stats, clock)?;
    stats.phases.probe += clock.lap();
    let fwd = BTree::open_existing(src.pool(), SLOT_FWD)?;
    let mut admit = |t: u64, distance: f64| {
        if planner.admits_distance(distance) {
            hits.push(LookupHit {
                tree_id: TreeId(t),
                distance,
            });
        }
    };
    let skipped = &gathered.skipped;
    for &candidate in &gathered.candidates {
        let checked = candidate_distance(src, &fwd, query, planner, skipped, candidate, stats)?;
        if let Some(distance) = checked {
            admit(candidate.0, distance);
        }
    }
    if planner.needs_zero_overlap() {
        for_each_zero_overlap(src, skip, &gathered.candidates, stats, |t, m| {
            admit(t, overlap_distance(0, query.total, u64::from(m)));
            true
        });
    }
    stats.phases.verify += clock.lap();
    Ok(())
}

/// The top-k candidate merge against one source, folding its trees into
/// the shared heap. Verification is sequential in descending observed
/// overlap (ties: ascending tree id) so the heap's bound tightens as early
/// as possible; once the planner rejects an observed overlap it rejects
/// every later one, so the loop breaks. Zero-overlap trees (distance
/// exactly 1) are enumerated ascending only while the heap still admits
/// them.
fn lookup_source_top_k(
    src: &Source,
    query: &QueryGrams,
    planner: &mut LookupPlanner,
    topk: &mut TopK,
    skip: &FxHashSet<u64>,
    stats: &mut LookupStats,
    clock: &mut PhaseClock,
) -> Result<()> {
    planner.tighten_to(topk.bound());
    let gathered = gather_candidates(src, query, planner, skip, stats, clock)?;
    stats.phases.probe += clock.lap();
    let fwd = BTree::open_existing(src.pool(), SLOT_FWD)?;
    let skipped = &gathered.skipped;
    let mass: u64 = skipped.iter().map(|&(_, qc)| u64::from(qc)).sum();
    let mut by_overlap = gathered.candidates.clone();
    by_overlap.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for &candidate in &by_overlap {
        planner.tighten_to(topk.bound());
        if !planner.admits_overlap(candidate.1 + mass) {
            break;
        }
        let checked = candidate_distance(src, &fwd, query, planner, skipped, candidate, stats)?;
        if let Some(distance) = checked {
            topk.offer(TreeId(candidate.0), distance);
        }
    }
    planner.tighten_to(topk.bound());
    if planner.needs_zero_overlap() {
        // All zero-overlap trees sit at distance exactly 1 and are offered
        // in ascending id order, so the first rejection ends the source.
        for_each_zero_overlap(src, skip, &gathered.candidates, stats, |t, m| {
            let distance = overlap_distance(0, query.total, u64::from(m));
            topk.offer(TreeId(t), distance)
        });
    }
    stats.phases.verify += clock.lap();
    Ok(())
}

/// Shared memtable pass of the two walks: masks every memtable-owned id
/// and hands each buffered index (with its exact query overlap) to `emit`.
/// The memtable is in-memory, so it reads no disk rows and probes no filter
/// — but the callers feed its trees through the same planner arithmetic as
/// the on-disk sources, keeping merged results bit-identical to a single
/// file holding the merged forest.
fn memtable_pass(
    mt: &Memtable,
    query: &QueryGrams,
    skip: &mut FxHashSet<u64>,
    mut emit: impl FnMut(u64, u64, &TreeIndex),
) {
    for (t, entry) in mt.iter() {
        skip.insert(t);
        let Some(index) = entry else { continue };
        let mut overlap = 0u64;
        for &(g, qc) in &query.grams {
            overlap += u64::from(qc.min(index.count(g)));
        }
        emit(t, overlap, index);
    }
}

/// The approximate lookup, behind every store handle: the memtable (if
/// any), then `sources` newest first, each masked by everything newer.
/// Every source runs the one planner-driven candidate merge for every
/// threshold — `τ > 1` enumerates the zero-overlap trees from the totals
/// relation, there is no exhaustive fallback — so the result is
/// bit-identical to a single file holding the merged forest, and a
/// single-file lookup *is* this walk over one source.
pub(crate) fn lookup_merged<'a>(
    sources: impl Iterator<Item = &'a Source>,
    memtable: Option<&Memtable>,
    query: &TreeIndex,
    tau: f64,
) -> Result<(Vec<LookupHit>, LookupStats)> {
    let mut stats = LookupStats::default();
    let mut clock = PhaseClock::start();
    let query = QueryGrams::of(query);
    stats.phases.plan += clock.lap();
    let planner = LookupPlanner::threshold(query.total, tau);
    let mut skip: FxHashSet<u64> = FxHashSet::default();
    let mut hits: Vec<LookupHit> = Vec::new();
    if let Some(mt) = memtable.filter(|mt| !mt.is_empty()) {
        memtable_pass(mt, &query, &mut skip, |t, overlap, index| {
            // Mirror the candidate-merge plan: trees sharing a gram are
            // candidates (plus every tree when the bound admits the
            // zero-overlap distance), size-window survivors get
            // verified.
            if overlap == 0 && !planner.needs_zero_overlap() {
                return;
            }
            stats.candidates += 1;
            if !planner.admits_total(index.total()) {
                return;
            }
            stats.verified += 1;
            let distance = overlap_distance(overlap, query.total, index.total());
            if planner.admits_distance(distance) {
                hits.push(LookupHit {
                    tree_id: TreeId(t),
                    distance,
                });
            }
        });
        stats.by_source.push((MEMTABLE_SOURCE, 0));
        stats.phases.verify += clock.lap();
    }
    for src in sources {
        let before = stats.rows_read;
        lookup_source_threshold(
            src, &query, &planner, &skip, &mut stats, &mut clock, &mut hits,
        )?;
        stats.by_source.push((src.id(), stats.rows_read - before));
        skip.extend(src.owned().iter().copied());
    }
    sort_hits(&mut hits);
    stats.phases.sort += clock.lap();
    stats.hits = hits.len();
    Ok((hits, stats))
}

/// The k-nearest lookup: the same newest-to-oldest masked walk as
/// [`lookup_merged`], but over one shared max-heap and one planner whose
/// bound starts at distance 1 (every stored tree qualifies) and tightens
/// to the heap's worst kept distance as it fills — sources probed later
/// benefit from every result a newer source already produced. Returns the
/// hits ascending by `(distance, id)`: exactly the first `k` of the
/// distance-sorted exhaustive answer.
pub(crate) fn lookup_top_k_merged<'a>(
    sources: impl Iterator<Item = &'a Source>,
    memtable: Option<&Memtable>,
    query: &TreeIndex,
    k: usize,
) -> Result<(Vec<LookupHit>, LookupStats)> {
    let mut stats = LookupStats::default();
    if k == 0 {
        return Ok((Vec::new(), stats));
    }
    let mut clock = PhaseClock::start();
    let query = QueryGrams::of(query);
    stats.phases.plan += clock.lap();
    let mut planner = LookupPlanner::nearest(query.total);
    let mut topk = TopK::new(k);
    let mut skip: FxHashSet<u64> = FxHashSet::default();
    if let Some(mt) = memtable.filter(|mt| !mt.is_empty()) {
        memtable_pass(mt, &query, &mut skip, |t, overlap, index| {
            stats.candidates += 1;
            stats.verified += 1;
            let distance = overlap_distance(overlap, query.total, index.total());
            topk.offer(TreeId(t), distance);
        });
        stats.by_source.push((MEMTABLE_SOURCE, 0));
        stats.phases.verify += clock.lap();
    }
    for src in sources {
        let before = stats.rows_read;
        lookup_source_top_k(
            src,
            &query,
            &mut planner,
            &mut topk,
            &skip,
            &mut stats,
            &mut clock,
        )?;
        stats.by_source.push((src.id(), stats.rows_read - before));
        skip.extend(src.owned().iter().copied());
    }
    let hits = topk.into_sorted_hits();
    stats.phases.sort += clock.lap();
    stats.hits = hits.len();
    Ok((hits, stats))
}

/// One ordered scan of the forward relation computing the distance of
/// `query` to every stored tree — the version-1 plan, kept only as the
/// reference side of the benchmark harness and as the test-suite oracle.
pub(crate) fn lookup_scan_with_stats(
    pool: &BufferPool,
    query: &TreeIndex,
    tau: f64,
) -> Result<(Vec<LookupHit>, LookupStats)> {
    let tree = BTree::open_existing(pool, SLOT_FWD)?;
    let mut stats = LookupStats {
        plan: LookupPlan::ExhaustiveReference,
        ..LookupStats::default()
    };
    let mut hits = Vec::new();
    let mut cur: Option<u64> = None;
    let mut stored_total = 0u64;
    let mut intersection = 0u64;
    let mut flush = |cur: Option<u64>, stored_total: u64, intersection: u64| {
        if let Some(t) = cur {
            let distance = overlap_distance(intersection, query.total(), stored_total);
            if distance < tau {
                hits.push(LookupHit {
                    tree_id: TreeId(t),
                    distance,
                });
            }
        }
    };
    tree.for_each_range(KEY_MIN, KEY_MAX, |(t, gram), count| {
        stats.rows_read += 1;
        if cur != Some(t) {
            flush(cur, stored_total, intersection);
            cur = Some(t);
            stats.candidates += 1;
            stored_total = 0;
            intersection = 0;
        }
        stored_total += u64::from(count);
        intersection += u64::from(count.min(query.count(gram)));
        true
    })?;
    flush(cur, stored_total, intersection);
    stats.verified = stats.candidates;
    sort_hits(&mut hits);
    stats.hits = hits.len();
    stats.by_source = vec![(MAIN_SOURCE, stats.rows_read)];
    Ok((hits, stats))
}

fn sort_hits(hits: &mut [LookupHit]) {
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.tree_id.cmp(&b.tree_id))
    });
}

/// Result of a whole-store verification: per-relation B+-tree shape checks
/// plus the cross-relation consistency audit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCheck {
    /// Shape of the forward relation `(treeId, pqg) → cnt`.
    pub forward: BTreeCheck,
    /// Shape of the inverted relation `(pqg, treeId) → cnt`.
    pub inverted: BTreeCheck,
    /// Shape of the totals relation `(treeId, 0) → |I(T)|`.
    pub totals: BTreeCheck,
    /// Number of stored trees (totals rows).
    pub trees: u64,
    /// Elias-Fano posting blocks in the inverted directory.
    pub blocks: u64,
    /// Distinct pack pages holding those blocks.
    pub pack_pages: u64,
}

/// Verifies each relation's B+-tree invariants and that the three relations
/// describe the same forest: every forward row has its mirrored inverted
/// row (and nothing else), every tree's totals row equals the sum of its
/// multiplicities, and no row stores a zero count.
pub(crate) fn verify_relations(pool: &BufferPool) -> Result<StoreCheck> {
    let fwd = BTree::open_existing(pool, SLOT_FWD)?;
    let inv = BTree::open_existing(pool, SLOT_INV)?;
    let tot = BTree::open_existing(pool, SLOT_TOT)?;
    let check = StoreCheck {
        forward: fwd.verify()?,
        inverted: inv.verify()?,
        totals: tot.verify()?,
        trees: 0,
        blocks: 0,
        pack_pages: 0,
    };
    let mut inv_expect: Vec<((u64, u64), u32)> = Vec::new();
    let mut tot_expect: Vec<(u64, u64)> = Vec::new();
    let mut zero_row = false;
    let mut cur: Option<u64> = None;
    let mut acc = 0u64;
    fwd.for_each_range(KEY_MIN, KEY_MAX, |(t, g), c| {
        if c == 0 {
            zero_row = true;
            return false;
        }
        if cur != Some(t) {
            if let Some(done) = cur {
                tot_expect.push((done, acc));
            }
            cur = Some(t);
            acc = 0;
        }
        acc += u64::from(c);
        inv_expect.push(((g, t), c));
        true
    })?;
    if zero_row {
        return Err(StoreError::Corrupt(
            "forward relation stores a zero multiplicity".into(),
        ));
    }
    if let Some(done) = cur {
        tot_expect.push((done, acc));
    }
    inv_expect.sort_unstable_by_key(|&(k, _)| k);
    // The gram filter is advisory — lookups stay correct without it — but
    // a loadable filter must be a superset of the stored grams: a false
    // negative would silently drop candidates.
    if let Some(f) = filter::load(pool)? {
        let mut last: Option<u64> = None;
        for &((g, _), _) in &inv_expect {
            if last == Some(g) {
                continue;
            }
            last = Some(g);
            if !f.contains(g) {
                return Err(StoreError::Corrupt(format!(
                    "gram filter is missing stored gram {g}"
                )));
            }
        }
    }
    // Expanding the directory decodes (and structurally validates) every
    // posting block: CRC, monotonicity, key agreement with the directory.
    let (inv_rows, blocks, pack_pages) = postings::expand_all(pool, &inv)?;
    if inv_rows != inv_expect {
        return Err(StoreError::Corrupt(
            "inverted relation disagrees with forward relation".into(),
        ));
    }
    let mut j = 0usize;
    let mut tot_ok = true;
    tot.for_each_range(KEY_MIN, KEY_MAX, |(t, z), c| {
        tot_ok = z == 0 && tot_expect.get(j) == Some(&(t, u64::from(c)));
        j += 1;
        tot_ok
    })?;
    if !tot_ok || j != tot_expect.len() {
        return Err(StoreError::Corrupt(
            "totals relation disagrees with forward relation".into(),
        ));
    }
    Ok(StoreCheck {
        trees: u64::try_from(tot_expect.len()).unwrap_or(u64::MAX),
        blocks,
        pack_pages: u64::try_from(pack_pages.len()).unwrap_or(u64::MAX),
        ..check
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// What [`Merge::emit`] must remember per tree.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        Masked,
        Pruned,
        Overlap(u64),
    }

    /// The merge over an ordered map: `(live, pruned_window, candidates)`.
    fn model(
        rows: &[(u64, u32, u32)],
        skip: &FxHashSet<u64>,
        (view, (lo, hi)): (&TotalsView, (u64, u64)),
    ) -> (usize, u64, Vec<(u64, u64)>) {
        let mut seen: BTreeMap<u64, Seen> = BTreeMap::new();
        let (mut live, mut pruned) = (0usize, 0u64);
        for &(t, qc, c) in rows {
            let first = if skip.contains(&t) {
                Seen::Masked
            } else if (view.get(t)).is_some_and(|m| u64::from(m) < lo || u64::from(m) > hi) {
                Seen::Pruned
            } else {
                Seen::Overlap(0)
            };
            let state = seen.entry(t).or_insert_with(|| {
                live += usize::from(first == Seen::Overlap(0));
                first
            });
            match state {
                Seen::Masked => {}
                Seen::Pruned => pruned += 1,
                Seen::Overlap(o) => *o += u64::from(qc.min(c)),
            }
        }
        let candidates = seen
            .iter()
            .filter_map(|(&t, s)| match s {
                Seen::Overlap(o) => Some((t, *o)),
                _ => None,
            })
            .collect();
        (live, pruned, candidates)
    }

    fn merged(
        rows: &[(u64, u32, u32)],
        skip: &FxHashSet<u64>,
        (view, window): (&TotalsView, (u64, u64)),
    ) -> (usize, u64, Vec<(u64, u64)>) {
        let mut merge = Merge::new(skip, view, window);
        for &(t, qc, c) in rows {
            merge.emit(qc, t, c);
        }
        let mut candidates: Vec<(u64, u64)> = merge.candidates().collect();
        candidates.sort_unstable();
        (merge.live, merge.pruned_window, candidates)
    }

    /// Tree ids that stress the table: small and dense, the top of the
    /// range (the three sentinels are values, never keys — as keys they
    /// are ordinary), and multiples of 2^32 whose products share low bits.
    fn tree_id(i: u64) -> u64 {
        match i % 3 {
            0 => i / 3,
            1 => u64::MAX - i / 3,
            _ => (i / 3) << 32,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_overlap_table_matches_an_ordered_map(
            stream in proptest::collection::vec((0u64..900, 1u32..6, 1u32..6), 0..2500),
            masked in proptest::collection::vec(0u64..900, 0..40),
            totals in proptest::collection::vec((0u64..900, 1u32..60), 0..600),
            window in (0u64..40, 0u64..70),
            mirrored in any::<bool>(),
        ) {
            let rows: Vec<(u64, u32, u32)> =
                stream.iter().map(|&(i, qc, c)| (tree_id(i), qc, c)).collect();
            let skip: FxHashSet<u64> = masked.iter().map(|&i| tree_id(i)).collect();
            // A tree the mirror does not hold is never pruned: an empty
            // mirror switches the window off.
            let mut view = TotalsView::empty();
            for &(i, m) in totals.iter().filter(|_| mirrored) {
                view.set(tree_id(i), m);
            }
            let window = (&view, window);
            prop_assert_eq!(merged(&rows, &skip, window), model(&rows, &skip, window));
        }
    }

    #[test]
    fn the_overlap_table_grows_past_its_first_slots_and_keeps_every_key() {
        let (skip, view) = (FxHashSet::default(), TotalsView::empty());
        let mut merge = Merge::new(&skip, &view, (0, u64::MAX));
        let initial = merge.shared.slots.len();
        let keys: Vec<u64> = [0, u64::MAX, EMPTY, MASKED]
            .into_iter()
            .chain((1..=700).map(|i| i * 0x1_0000_0001))
            .collect();
        for round in 1..=3u64 {
            for &t in &keys {
                merge.emit(2, t, 5);
            }
            assert_eq!(merge.live, keys.len(), "round {round}");
            let got: BTreeSet<(u64, u64)> = merge.candidates().collect();
            let expect: BTreeSet<(u64, u64)> = keys.iter().map(|&t| (t, 2 * round)).collect();
            assert_eq!(got, expect, "round {round}");
        }
        let slots = merge.shared.slots.len();
        assert!(
            slots > initial && slots.is_power_of_two(),
            "{initial} -> {slots}"
        );
        assert!(merge.shared.used * 2 <= slots, "at most half full");
    }

    #[test]
    fn pruned_rows_are_counted_at_every_sighting_and_masked_rows_never() {
        let skip: FxHashSet<u64> = [7].into_iter().collect();
        let mut view = TotalsView::empty();
        view.set(7, 10);
        view.set(8, 99);
        view.set(9, 10);
        let mut merge = Merge::new(&skip, &view, (5, 20));
        for _ in 0..4 {
            merge.emit(1, 7, 1); // masked by a newer source
            merge.emit(1, 8, 1); // bag size outside the window
            merge.emit(3, 9, 2); // a candidate
            merge.emit(1, 10, 1); // not in the mirror: never pruned
        }
        assert_eq!((merge.live, merge.pruned_window), (2, 4));
        let mut candidates: Vec<(u64, u64)> = merge.candidates().collect();
        candidates.sort_unstable();
        assert_eq!(candidates, [(9, 8), (10, 4)]);
    }
}
