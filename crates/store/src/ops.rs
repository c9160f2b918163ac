//! Relation-level operations shared by every store handle, and the one
//! read model behind them: a store is an ordered list of [`Source`]s
//! (`crate::segment`), newest first, plus an optional memtable, and
//! [`lookup`] is the only lookup walk, for a threshold and a top-k request
//! alike ([`Want`]) — [`crate::index_store::IndexStore`] passes its one
//! file (a document store looks up through its index store),
//! [`crate::segmented::SegmentedReader`] its snapshot: segments, main
//! file and owner map.
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
//! Every in-place write — a put, a removal, a delta — is one
//! [`write_changes`] per tree: the net difference between the tree's
//! stored rows and its new bag, ascending by gram, as a `(key,
//! Option<value>)` edit of each relation. The forward rows go through
//! [`crate::btree::BTree::apply_batch_sorted`], so one tree's update costs
//! a handful of descents plus sequential leaf edits instead of a random
//! root-to-leaf walk per gram; the postings go through
//! `postings::set_posting`. Only the readers differ: a put or a removal
//! reads the tree's forward rows ([`replacing`]), a delta only the grams it
//! names ([`delta_changes`]).
//!
//! Since format version 3 the inverted relation is a posting *directory*:
//! short posting lists stay as inline rows, long ones are grouped into
//! partitioned Elias-Fano posting blocks on dedicated pack pages (see
//! `crate::postings`). Since format version 4 each store also persists a
//! gram membership filter (see `crate::filter`), maintained in the same
//! transaction as the relations, so lookups can skip probes — and whole
//! sources — that provably hold none of the query's grams. A file of any
//! other version is rejected on open: nothing is migrated.

use crate::btree::{BTree, BTreeCheck, Fill};
use crate::buffer::{BufferPool, DEFAULT_CAPACITY};
use crate::filter::{self, GramFilter};
use crate::memtable::Memtable;
use crate::page::PAGE_SIZE_U64;
use crate::pager::{Pager, Result, StoreError};
use crate::postings::{self, DirCursor, DirRow, ProbeCounters, Row};
use crate::segment::Source;
use crate::segmented::SourceSet;
use crate::vfs::Vfs;
use pqgram_core::join::overlap_distance;
use pqgram_core::maintain::IndexDelta;
use pqgram_core::par::{self, Helpers};
use pqgram_core::plan::LookupPlanner;
use pqgram_core::topk::TopK;
use pqgram_core::{GramKey, LookupHit, PQParams, TreeId, TreeIndex};
use pqgram_tree::{FxHashMap, FxHashSet};
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

fn total_u32(total: u64) -> Result<u32> {
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

/// What a file of the engine is, by the kind marker in its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// An index store, or the main file of a segmented store.
    IndexStore,
    /// A document store.
    DocumentStore,
    /// The manifest of a segmented store.
    Manifest,
    /// A segment of a segmented store.
    Segment,
    /// A marker this build does not write.
    Unknown(u64),
}

impl FileKind {
    fn marker(self) -> u64 {
        match self {
            FileKind::IndexStore => 1,
            FileKind::DocumentStore => 2,
            FileKind::Manifest => 3,
            FileKind::Segment => 4,
            FileKind::Unknown(marker) => marker,
        }
    }

    // analyze: taint-exempt(compares the marker with the known kinds; the value steers no memory)
    fn from_marker(marker: u64) -> FileKind {
        let known = [
            FileKind::IndexStore,
            FileKind::DocumentStore,
            FileKind::Manifest,
            FileKind::Segment,
        ];
        let found = known.into_iter().find(|kind| kind.marker() == marker);
        found.unwrap_or(FileKind::Unknown(marker))
    }
}

impl std::fmt::Display for FileKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FileKind::IndexStore => "an index store",
            FileKind::DocumentStore => "a document store",
            FileKind::Manifest => "a segmented-store manifest",
            FileKind::Segment => "a segment file",
            FileKind::Unknown(_) => "of no known kind",
        })
    }
}

/// Creates the file at `path` and stamps the header every kind shares:
/// the pq-gram parameters and the kind marker.
pub(crate) fn create_file(
    path: &Path,
    vfs: Arc<dyn Vfs>,
    params: PQParams,
    kind: FileKind,
) -> Result<BufferPool> {
    let pool = BufferPool::new(Pager::create_with(path, vfs)?, DEFAULT_CAPACITY);
    pool.set_meta(META_P, u64::try_from(params.p()).unwrap_or(u64::MAX))?;
    pool.set_meta(META_Q, u64::try_from(params.q()).unwrap_or(u64::MAX))?;
    pool.set_meta(META_KIND, kind.marker())?;
    Ok(pool)
}

/// Opens the file at `path` (running pager crash recovery), rejects it
/// with [`StoreError::WrongKind`] unless its kind marker is `kind`, and
/// validates the header's pq-gram parameters.
pub(crate) fn open_file(
    path: &Path,
    vfs: Arc<dyn Vfs>,
    kind: FileKind,
) -> Result<(BufferPool, PQParams)> {
    let pool = BufferPool::new(Pager::open_with(path, vfs)?, DEFAULT_CAPACITY);
    let found = FileKind::from_marker(pool.meta(META_KIND));
    if found != kind {
        return Err(StoreError::WrongKind {
            expected: kind,
            found,
        });
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

/// The rows of one bulk build, `((treeId, pqg), cnt)`: trees in ascending
/// id order, each tree's rows together, its grams in any order. The build
/// sorts every row once, by gram alone ([`bulk_load_relations`]).
#[derive(Default)]
pub(crate) struct BuildRows {
    /// Per tree, in order: its id, its row count and its bag size.
    trees: Vec<(u64, usize, u64)>,
    /// The rows, each tree's together.
    rows: Vec<Row>,
    /// Whether some tree's grams arrived out of ascending order.
    unordered: bool,
}

impl BuildRows {
    /// An empty build with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> BuildRows {
        BuildRows {
            rows: Vec::with_capacity(rows),
            ..BuildRows::default()
        }
    }

    /// Appends the row `(t, gram) → count`. A tree other than the last
    /// one pushed starts a new tree.
    pub(crate) fn push(&mut self, t: u64, gram: u64, count: u32) {
        match self.trees.last_mut() {
            Some((id, n, total)) if *id == t => {
                *n += 1;
                *total += u64::from(count);
                self.unordered |= self.rows.last().is_some_and(|&((_, g), _)| g >= gram);
            }
            _ => self.trees.push((t, 1, u64::from(count))),
        }
        self.rows.push(((t, gram), count));
    }

    /// Appends the rows of tree `t`, in bag order.
    pub(crate) fn push_tree(&mut self, t: u64, index: &TreeIndex) {
        for (gram, count) in index.iter() {
            self.push(t, gram, count);
        }
    }
}

/// Fewest forward rows per build worker: below this a thread costs more to
/// start than its share of the sort saves.
const MIN_ROWS_PER_BUILD_THREAD: usize = 4096;

/// Rows sampled to place the gram ranges of a build's transpose.
const SPLITTER_SAMPLE: usize = 1024;

/// Bulk-loads all three relations and the gram filter from `build`, their
/// B+-tree nodes filled to `fill`; the relations must be empty. Everything
/// is derived from the rows — nothing is read back. The CPU-only work fans
/// out over one worker per core (DESIGN.md, "Parallel seams").
pub(crate) fn bulk_load_relations(
    pool: &BufferPool,
    build: BuildRows,
    fill: Fill,
) -> Result<Built> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = cores
        .min(build.rows.len() / MIN_ROWS_PER_BUILD_THREAD)
        .max(1);
    bulk_load_relations_on(pool, build, threads, fill)
}

/// [`bulk_load_relations`] on at most `threads` threads. Every page write
/// stays on the calling thread, and the file is the same for every
/// `threads`: the workers only sort and encode.
pub(crate) fn bulk_load_relations_on(
    pool: &BufferPool,
    build: BuildRows,
    threads: usize,
    fill: Fill,
) -> Result<Built> {
    let sorted = sort_build(build, threads)?;
    BTree::open(pool, SLOT_FWD)?.bulk_load_with(sorted.forward, fill)?;
    let inv = BTree::open(pool, SLOT_INV)?;
    let directory = postings::bulk_load_inverted(pool, &inv, &sorted.inverted, threads, fill)?;
    let mut view = TotalsView::empty();
    let mut tot_rows: Vec<((u64, u64), u32)> = Vec::with_capacity(sorted.totals.len());
    for (t, total) in sorted.totals {
        let total = total_u32(total)?;
        view.set(t, total);
        tot_rows.push(((t, 0), total));
    }
    BTree::open(pool, SLOT_TOT)?.bulk_load_with(tot_rows, fill)?;
    // The sorted inverted rows hold every gram's postings side by side.
    let mut grams: Vec<u64> = Vec::new();
    for &((g, _), _) in &sorted.inverted {
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

/// The rows of a build in both key orders, and each tree's bag size.
struct Sorted {
    /// `((treeId, pqg), cnt)`, strictly ascending when the build's keys
    /// are distinct.
    forward: Vec<Row>,
    /// `((pqg, treeId), cnt)`, likewise.
    inverted: Vec<Row>,
    /// `(treeId, |I(T)|)`, ascending.
    totals: Vec<(u64, u64)>,
}

/// Sorts each row of `build` once, on at most `threads` threads:
/// [`invert`] orders the rows by gram. Where every tree's grams arrived
/// ascending — as a compaction reads them — the rows are the forward rows
/// already. Otherwise each row's tree goes by its rank, its position among
/// the build's trees, and one counting pass ([`scatter`]) deals the
/// inverted rows out to the forward order, where each tree's rows then lie
/// ascending by gram.
fn sort_build(build: BuildRows, threads: usize) -> Result<Sorted> {
    let BuildRows {
        trees,
        mut rows,
        unordered,
    } = build;
    if !trees.is_sorted_by(|a, b| a.0 < b.0) {
        return Err(StoreError::InvalidArgument(
            "bulk build: tree ids are not strictly ascending".into(),
        ));
    }
    let totals = trees.iter().map(|&(t, _, total)| (t, total)).collect();
    if !unordered {
        let inverted = invert(&rows, threads);
        return Ok(Sorted {
            forward: rows,
            inverted,
            totals,
        });
    }
    let ranks = (0u64..).zip(&trees);
    let ranks = ranks.flat_map(|(rank, &(_, n, _))| std::iter::repeat_n(rank, n));
    for (row, rank) in rows.iter_mut().zip(ranks) {
        row.0 .0 = rank;
    }
    let mut inverted = invert(&rows, threads);
    // The rank rows are spent: their buffer takes the forward rows.
    let mut forward = rows;
    scatter(&mut inverted, &trees, &mut forward)?;
    Ok(Sorted {
        forward,
        inverted,
        totals,
    })
}

/// Most bits of a gram's offset within its share that pick its bucket in
/// [`invert`].
const BUCKET_BITS: u32 = 16;

/// Transposes rows `((tree, pqg), cnt)` whose tree keys (ids or ranks)
/// never descend into `((pqg, tree), cnt)` rows sorted by `(pqg, tree)`.
///
/// The grams are cut into at most `threads` ranges by [`gram_splitters`],
/// and each range into buckets by the top bits of a gram's offset in it.
/// One pass over the rows, in parallel chunks, counts the rows of every
/// bucket. Then one worker per range deals that range's rows, in input
/// order, into its buckets in its own slice of the one output vector, and
/// sorts each bucket by gram alone. Both steps are stable and rows of one
/// gram arrive in tree order, so the slice comes out in `(pqg, tree)`
/// order. The ranges are disjoint and ascending, so the slices in order
/// are the serially sorted vector, whatever the split.
fn invert(rows: &[Row], threads: usize) -> Vec<Row> {
    let sample = gram_sample(rows);
    let (Some(&lowest), Some(&highest)) = (sample.first(), sample.last()) else {
        return Vec::new();
    };
    let splitters = gram_splitters(&sample, threads);
    let share = |g: u64| splitters.partition_point(|&s| s <= g);
    let shares = splitters.len() + 1;
    // About 8 rows per bucket, at most 2^BUCKET_BITS buckets per range.
    let per_share = rows.len() / shares;
    let bits = (usize::BITS - per_share.leading_zeros())
        .saturating_sub(3)
        .min(BUCKET_BITS);
    let buckets = 1usize << bits;
    // Range `k` spans `[s[k-1], s[k])`; the outer ranges end at the
    // sample's extremes, and a gram past them joins the edge bucket.
    let lows = std::iter::once(lowest).chain(splitters.iter().copied());
    let highs = splitters.iter().map(|&s| s - 1).chain([highest]);
    let layout: Vec<(u64, u32)> = lows
        .zip(highs)
        .map(|(lo, hi)| {
            let span = u64::BITS - hi.saturating_sub(lo).leading_zeros();
            (lo, span.saturating_sub(bits))
        })
        .collect();
    // The index of `g`'s bucket among all ranges' buckets.
    let slot = |g: u64| {
        let k = share(g);
        let (lo, shift) = layout.get(k).copied().unwrap_or((lowest, 0));
        let b = usize::try_from(g.saturating_sub(lo) >> shift).unwrap_or(usize::MAX);
        k * buckets + b.min(buckets - 1)
    };
    let mut counts = vec![0usize; shares * buckets];
    for part in pqgram_core::par::map_chunks(rows, threads, |part| {
        let mut counts = vec![0usize; shares * buckets];
        for &((_, g), _) in part {
            if let Some(n) = counts.get_mut(slot(g)) {
                *n += 1;
            }
        }
        counts
    }) {
        for (total, n) in counts.iter_mut().zip(part) {
            *total += n;
        }
    }
    let lens: Vec<usize> = counts.chunks(buckets).map(|c| c.iter().sum()).collect();
    let mut inv = vec![((0, 0), 0); rows.len()];
    pqgram_core::par::map_chunks_mut(&mut inv, &lens, |k, out| {
        // `ends[b]`: first the start of bucket `b`, then, once dealt, its end.
        let mut ends = counts
            .get(k * buckets..(k + 1) * buckets)
            .unwrap_or(&[])
            .to_vec();
        let mut at = 0;
        for end in &mut ends {
            (*end, at) = (at, at + *end);
        }
        for &((r, g), c) in rows.iter().filter(|&&((_, g), _)| share(g) == k) {
            if let Some(end) = ends.get_mut(slot(g) - k * buckets) {
                if let Some(out) = out.get_mut(*end) {
                    *out = ((g, r), c);
                }
                *end += 1;
            }
        }
        let mut start = 0;
        for &end in &ends {
            if let Some(run) = out.get_mut(start..end) {
                run.sort_by_key(|&((g, _), _)| g);
            }
            start = end;
        }
    });
    inv
}

/// Deals the inverted rows of [`invert`], sorted by `(pqg, rank)`, out to
/// `fwd` as the forward rows `((treeId, pqg), cnt)` in one counting pass:
/// rank `r` owns the `trees[r].1` slots after the ranks before it, and its
/// rows arrive in gram order. The same pass writes each row's tree id over
/// its rank, which leaves `inv` sorted by `(pqg, treeId)`.
fn scatter(inv: &mut [Row], trees: &[(u64, usize, u64)], fwd: &mut [Row]) -> Result<()> {
    let mut next: Vec<(u64, usize)> = Vec::with_capacity(trees.len());
    let mut at = 0;
    for &(t, n, _) in trees {
        next.push((t, at));
        at += n;
    }
    for row in inv.iter_mut() {
        let ((g, r), c) = *row;
        let place = usize::try_from(r).ok().and_then(|r| next.get_mut(r));
        let Some((t, at)) = place else {
            return Err(StoreError::Corrupt(format!(
                "bulk build: rank {r} out of range"
            )));
        };
        if let Some(slot) = fwd.get_mut(*at) {
            *slot = ((*t, g), c);
        }
        *at += 1;
        row.0 .1 = *t;
    }
    Ok(())
}

/// The grams of an evenly strided sample of about [`SPLITTER_SAMPLE`]
/// rows, ascending.
fn gram_sample(rows: &[Row]) -> Vec<u64> {
    let step = (rows.len() / SPLITTER_SAMPLE).max(1);
    let mut sample: Vec<u64> = rows.iter().step_by(step).map(|&((_, g), _)| g).collect();
    sample.sort_unstable();
    sample
}

/// Gram values that cut the rows of which `sample` is the
/// [`gram_sample`] into at most `threads` ranges of about equal row count,
/// ascending and distinct: range `k` holds the grams in `[s[k-1], s[k])`.
/// They are the sample's quantiles, so they follow the keys wherever they
/// lie (Karp–Rabin gram keys stay below 2⁶¹: a cut on a fixed high bit
/// would split nothing). A cut at the smallest sampled gram is dropped, so
/// every range holds at least the rows of its own lowest cut.
fn gram_splitters(sample: &[u64], threads: usize) -> Vec<u64> {
    let Some(&lowest) = sample.first() else {
        return Vec::new();
    };
    let mut cuts: Vec<u64> = (1..threads.max(1))
        .filter_map(|k| sample.get(k * sample.len() / threads).copied())
        .filter(|&cut| cut > lowest)
        .collect();
    cuts.dedup();
    cuts
}

/// One gram an in-place write touches: `(gram, stored count, target
/// count)`, 0 meaning no row.
pub(crate) type Change = (GramKey, u32, u32);

/// What [`write_changes`] left one tree with.
pub(crate) struct Written {
    /// The tree's new bag size (0 — the tree is gone).
    pub(crate) total: u32,
    /// The grams it now stores that it did not hold before: what went into
    /// the gram filter.
    pub(crate) fresh: Vec<GramKey>,
    /// Whether the filter was rebuilt (or dropped) rather than updated in
    /// place: callers holding an in-memory mirror of it must reload it.
    pub(crate) rebuilt: bool,
}

/// The changes of a put or a removal of `id`, ascending by gram: every
/// stored row of the tree (one forward range read) against `target`, its
/// new bag — empty for a removal. An empty bag stores nothing: empty trees
/// are not representable in the relation.
pub(crate) fn replacing(
    pool: &BufferPool,
    id: TreeId,
    target: impl IntoIterator<Item = (GramKey, u32)>,
) -> Result<Vec<Change>> {
    let mut changes: Vec<Change> = Vec::new();
    BTree::open(pool, SLOT_FWD)?.for_each_range((id.0, 0), (id.0, u64::MAX), |(_, g), c| {
        changes.push((g, c, 0));
        true
    })?;
    changes.extend(target.into_iter().map(|(g, c)| (g, 0, c)));
    changes.sort_unstable_by_key(|&(g, _, _)| g);
    // A gram is stored at most once and targeted at most once: fold the
    // two into one change.
    changes.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
            kept.2 += later.2;
        }
        same
    });
    Ok(changes)
}

/// The changes of the delta `I ← I \ I⁻ ⊎ I⁺` on `id`, ascending by gram:
/// the stored count of every gram the delta names — one forward point read
/// each, never the whole tree — with its removals replayed one at a time,
/// in order, before anything is written. The inner `Err` is the first gram
/// (in `delta.removals` order) whose removal the stored bag cannot serve;
/// nothing has been written and the caller rolls the transaction back.
pub(crate) fn delta_changes(
    pool: &BufferPool,
    id: TreeId,
    delta: &IndexDelta,
) -> Result<std::result::Result<Vec<Change>, GramKey>> {
    let fwd = BTree::open(pool, SLOT_FWD)?;
    let named = delta.removals.iter().chain(&delta.additions);
    let mut grams: Vec<GramKey> = named.copied().collect();
    grams.sort_unstable();
    grams.dedup();
    let mut changes: Vec<Change> = Vec::with_capacity(grams.len());
    for g in grams {
        let stored = fwd.get((id.0, g))?.unwrap_or(0);
        changes.push((g, stored, stored));
    }
    for &g in &delta.removals {
        match target_of(&mut changes, g) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return Ok(Err(g)),
        }
    }
    for &g in &delta.additions {
        if let Some(c) = target_of(&mut changes, g) {
            *c += 1;
        }
    }
    Ok(Ok(changes))
}

/// The target count of `gram` among `changes`, ascending by gram.
fn target_of(changes: &mut [Change], gram: GramKey) -> Option<&mut u32> {
    let i = changes.binary_search_by_key(&gram, |&(g, _, _)| g).ok()?;
    changes.get_mut(i).map(|c| &mut c.2)
}

/// Writes the net difference `changes` — ascending by gram, as
/// [`replacing`] and [`delta_changes`] read them — to the rows of `id`:
/// the forward, inverted and totals relations, in that order, then folds
/// the newly stored grams into the gram filter (removals never shrink it:
/// it stays a superset). A gram whose count does not change writes
/// nothing. The one writer behind every in-place write.
pub(crate) fn write_changes(
    pool: &BufferPool,
    id: TreeId,
    mut changes: Vec<Change>,
) -> Result<Written> {
    changes.retain(|&(_, stored, target)| stored != target);
    let row = |count: u32| (count > 0).then_some(count);
    BTree::open(pool, SLOT_FWD)?
        .apply_batch_sorted(changes.iter().map(|&(g, _, c)| ((id.0, g), row(c))))?;
    let inv = BTree::open(pool, SLOT_INV)?;
    let (mut net, mut fresh) = (0i64, Vec::new());
    for &(g, stored, target) in &changes {
        if postings::set_posting(pool, &inv, g, id.0, row(target))? != (stored > 0) {
            return Err(StoreError::Corrupt(format!(
                "inverted relation disagrees with the forward relation on posting ({g}, {})",
                id.0
            )));
        }
        net += i64::from(target) - i64::from(stored);
        if stored == 0 {
            fresh.push(g);
        }
    }
    let tot = BTree::open(pool, SLOT_TOT)?;
    let old = tot.get((id.0, 0))?.unwrap_or(0);
    let total = u32::try_from(i64::from(old) + net).map_err(|_| {
        StoreError::Corrupt(format!(
            "write moves {id:?} by {net} grams from {old}, out of the u32 totals encoding"
        ))
    })?;
    if total != old {
        tot.apply_batch_sorted([((id.0, 0), row(total))])?;
    }
    let rebuilt = filter::insert_grams(pool, &mut fresh)?;
    Ok(Written {
        total,
        fresh,
        rebuilt,
    })
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

/// Access-path and work counters of one lookup: a [`lookup`] walk over a
/// store's sources, for a threshold or a top-k request, or the reference
/// scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// B+-tree rows read: posting rows, one totals row per candidate (or
    /// zero-overlap tree), and the [`LookupStats::compensation_reads`] on
    /// the merge plan; every forward row on the scan plan. A candidate
    /// rejected at its exact bag size costs its totals row and nothing
    /// more.
    pub rows_read: u64,
    /// Distinct query grams actually probed (merge plan only).
    pub grams_probed: usize,
    /// Trees that surfaced as candidates: trees sharing a probed gram with
    /// the query, plus the zero-overlap trees enumerated when `τ > 1` (scan
    /// plan: every stored tree).
    pub candidates: usize,
    /// Candidates whose exact distance was computed: those that could
    /// still reach the bound at their exact bag size with everything
    /// their overlap was missing. A candidate rejected at its exact size
    /// (before or between compensation reads, or part-way through a
    /// memtable scan) is not verified.
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
    /// recovered by forward point reads for the candidates that can still
    /// reach the bound at their exact bag size).
    pub grams_skipped_budget: usize,
    /// Forward point reads at verify time: one per budget-skipped gram a
    /// candidate's exact overlap still needed, stopped at the first read
    /// after which the candidate cannot reach the bound at its exact bag
    /// size. Also counted in [`LookupStats::rows_read`].
    pub compensation_reads: u64,
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
    /// Where the call's wall time went (see [`LookupPhases`]).
    pub phases: LookupPhases,
}

/// Coarse phase clocks of one lookup, summed over its sources. Every
/// phase boundary reads the clock once and charges everything since the
/// previous boundary (three reads per source), so the four phases add up
/// to the call's wall time with no gaps. They time the calling thread
/// only: time it spends waiting for helpers counts as `probe` — for a
/// segment a helper ran (a [`lookup`] hands its segments out), and for
/// the chunks a helper probed when a lookup with no segment splits its
/// main file's probe. A segment the caller claimed keeps its own phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupPhases {
    /// Deciding what to read: sorting the query's grams, filter and
    /// size-window consults, the directory visit of every probe gram, the
    /// skip-cost estimates and the budget cut.
    pub plan: Duration,
    /// Reading it: posting fetch, validation, decode and the per-tree
    /// overlap merge, including re-probes of provisional skips, the fold
    /// of a split probe's tallies and the wait for helpers.
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

    /// Adds the counters of the next source in walk order. `plan` and
    /// `hits` are the whole lookup's, not a source's: they stay.
    fn join(&mut self, share: LookupStats) {
        let LookupStats {
            rows_read,
            grams_probed,
            candidates,
            verified,
            hits: _,
            plan: _,
            sources_considered,
            sources_skipped_filter,
            sources_skipped_window,
            grams_skipped_filter,
            grams_skipped_budget,
            compensation_reads,
            filter_false_positive_probes,
            rows_pruned_window,
            blocks_decoded,
            blocks_skipped,
            bytes_decoded,
            by_source,
            phases,
        } = share;
        self.rows_read += rows_read;
        self.grams_probed += grams_probed;
        self.candidates += candidates;
        self.verified += verified;
        self.sources_considered += sources_considered;
        self.sources_skipped_filter += sources_skipped_filter;
        self.sources_skipped_window += sources_skipped_window;
        self.grams_skipped_filter += grams_skipped_filter;
        self.grams_skipped_budget += grams_skipped_budget;
        self.compensation_reads += compensation_reads;
        self.filter_false_positive_probes += filter_false_positive_probes;
        self.rows_pruned_window += rows_pruned_window;
        self.blocks_decoded += blocks_decoded;
        self.blocks_skipped += blocks_skipped;
        self.bytes_decoded += bytes_decoded;
        self.by_source.extend(by_source);
        self.phases.plan += phases.plan;
        self.phases.probe += phases.probe;
        self.phases.verify += phases.verify;
        self.phases.sort += phases.sort;
    }

    /// Counts one zero-overlap tree taken from the totals mirror: its
    /// totals row, as a candidate and as verified.
    fn count_zero_overlap(&mut self) {
        self.rows_read += 1;
        self.candidates += 1;
        self.verified += 1;
    }
}

/// An in-memory mirror of one source's totals relation: the exact
/// `treeId → |I(T)|` map plus loose min/max bag-size bounds. The bounds
/// only widen (removals never shrink them), so they always cover every
/// stored bag size — a conservative input to the planner's size window.
///
/// The map is hashed: a lookup asks it once per tree a probe first meets
/// and once per verified candidate, so `get` is the question that has to
/// be cheap. The zero-overlap sweep walks it unordered and keeps the
/// smallest ids the answer could take (`smallest_ids`: `k + 1` for a top-k
/// sweep, all for a threshold sweep); the listings that need every id in
/// order (`tree_ids`) sort what they collect ([`TotalsView::sorted`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct TotalsView {
    map: FxHashMap<u64, u32>,
    min_total: u32,
    max_total: u32,
}

impl TotalsView {
    /// An empty view (bounds cover nothing).
    pub(crate) fn empty() -> TotalsView {
        TotalsView {
            map: FxHashMap::default(),
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

    /// All `(treeId, total)` pairs, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.map.iter().map(|(&t, &c)| (t, c))
    }

    /// All `(treeId, total)` pairs, ascending by tree id.
    pub(crate) fn sorted(&self) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u32)> = self.iter().collect();
        all.sort_unstable();
        all
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

/// Which trees newer sources hide from the source a walk probes: every id
/// the memtable decides, and every id the snapshot's owner map gives to a
/// segment newer than the walked source ([`SourceSet::newer_decides`]).
/// Cloned into a helper's job for the price of two shared pointers.
#[derive(Clone, Default)]
pub(crate) struct Mask {
    /// The ids the memtable decides, when it holds entries.
    memtable: Option<Arc<FxHashSet<u64>>>,
    /// A segmented store's snapshot, with the walked source's index in
    /// probe order.
    snapshot: Option<(Arc<SourceSet>, usize)>,
}

impl Mask {
    /// Whether a newer source decides tree `t`.
    fn hides(&self, t: u64) -> bool {
        self.memtable.as_ref().is_some_and(|ids| ids.contains(&t))
            || (self.snapshot.as_ref()).is_some_and(|(set, at)| set.newer_decides(*at, t))
    }
}

/// The per-tree overlap merge of one source's probes. Every posting row
/// costs one [`OverlapTable`] slot; the mask, the totals mirror and
/// the size window are consulted only when a tree id is first seen, and a
/// tree they rule out is remembered under a sentinel so its later rows are
/// still counted exactly.
pub(crate) struct Merge<'a> {
    mask: &'a Mask,
    /// The source's totals mirror.
    totals: &'a TotalsView,
    /// The planner's inclusive bag-size window, derived once per source.
    window: (u64, u64),
    tally: Tally,
}

/// What a [`Merge`] has gathered, apart from the rules it gathered it
/// under: what each worker of a split probe owns and hands back.
struct Tally {
    /// `treeId → observed overlap`, or [`PRUNED`] / [`MASKED`].
    shared: OverlapTable,
    /// Entries of `shared` that are real candidates.
    live: usize,
    pruned_window: u64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            shared: OverlapTable::with_bits(OverlapTable::INITIAL_BITS),
            live: 0,
            pruned_window: 0,
        }
    }
}

impl Tally {
    /// Folds in what another worker gathered from other grams under the
    /// same rules: overlaps add, and so do window-pruned rows. [`MASKED`]
    /// and [`PRUNED`] are properties of a tree, so both workers agree on
    /// them, and `live` counts the distinct live trees of the union.
    fn absorb(&mut self, other: Tally) {
        self.pruned_window += other.pruned_window;
        for (t, value) in other.shared.iter() {
            let i = self.shared.find(t);
            match self.shared.slots.get_mut(i) {
                Some((_, seen)) if *seen != EMPTY => {
                    if *seen < MASKED && value < MASKED {
                        *seen += value;
                    }
                }
                _ => {
                    self.live += usize::from(value < MASKED);
                    self.shared.insert(i, t, value);
                }
            }
        }
    }
}

impl<'a> Merge<'a> {
    pub(crate) fn new(mask: &'a Mask, totals: &'a TotalsView, window: (u64, u64)) -> Merge<'a> {
        Merge::resume(mask, totals, window, Tally::default())
    }

    /// A merge that goes on from `tally`, gathered under the same rules.
    fn resume(
        mask: &'a Mask,
        totals: &'a TotalsView,
        window: (u64, u64),
        tally: Tally,
    ) -> Merge<'a> {
        Merge {
            mask,
            totals,
            window,
            tally,
        }
    }

    /// Trees surfaced so far that are real candidates.
    pub(crate) fn live(&self) -> usize {
        self.tally.live
    }

    /// Folds one posting row — tree `t` stores the probed gram `c` times,
    /// the query `qc` times — into the tree's overlap.
    #[inline]
    pub(crate) fn emit(&mut self, qc: u32, t: u64, c: u32) {
        let tally = &mut self.tally;
        let i = tally.shared.find(t);
        match tally.shared.slots.get_mut(i) {
            Some((_, PRUNED)) => tally.pruned_window += 1,
            Some((_, MASKED)) => {}
            Some((_, seen)) if *seen != EMPTY => *seen += u64::from(qc.min(c)),
            _ => {
                let (lo, hi) = self.window;
                let outside = |m: u32| !(lo..=hi).contains(&u64::from(m));
                let first = if self.mask.hides(t) {
                    MASKED
                } else if self.totals.get(t).is_some_and(outside) {
                    tally.pruned_window += 1;
                    PRUNED
                } else {
                    tally.live += 1;
                    u64::from(qc.min(c))
                };
                tally.shared.insert(i, t, first);
            }
        }
    }

    /// What the merge has gathered, to go on from with
    /// [`Merge::resume`].
    fn into_tally(self) -> Tally {
        self.tally
    }

    /// `(treeId, observed overlap)` of every real candidate, unordered.
    fn candidates(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tally.shared.iter().filter(|&(_, o)| o < MASKED)
    }
}

/// Probe grams per chunk of a split probe. A parked helper makes its
/// first claim ≈ 6–11 µs after the hand-off, and a probed gram costs
/// ≈ 0.35–0.65 µs on `lookup-hot`, so a chunk (≈ 8–16 µs) outlasts the
/// hand-off (DESIGN.md §11).
const SPLIT_CHUNK_GRAMS: usize = 24;

/// Fewest chunks worth handing to a helper: with one, the caller could
/// only wait for the helper to do what it would do itself.
const MIN_SPLIT_CHUNKS: usize = 2;

/// One source of a [`lookup`] with the mask of ids a newer source
/// decides, as [`lookup_source`] walks it.
#[derive(Clone, Copy)]
enum Walk<'a> {
    /// Probed on the caller alone.
    Alone(&'a Source, &'a Mask),
    /// Held as a helper thread can hold it, with the helpers its probe may
    /// be split with: the main file of a segment-less lookup over a
    /// segmented store's snapshot.
    Split(&'a Arc<Source>, &'a Mask, &'a Helpers),
}

impl<'a> Walk<'a> {
    fn source(self) -> &'a Source {
        match self {
            Walk::Alone(src, _) => src,
            Walk::Split(src, _, _) => src,
        }
    }

    fn mask(self) -> &'a Mask {
        match self {
            Walk::Alone(_, mask) => mask,
            Walk::Split(_, mask, _) => mask,
        }
    }
}

/// One source's probe list as every worker of its probe reads it.
struct ProbeList {
    /// The directory rows the probe grams' visits returned.
    rows: Vec<DirRow>,
    grams: Vec<ProbeGram>,
    /// Where each chunk but the first starts in `grams`, ascending.
    cuts: Vec<usize>,
}

impl ProbeList {
    fn chunks(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The grams of chunk `i`.
    fn chunk(&self, i: usize) -> &[ProbeGram] {
        let from = i.checked_sub(1).and_then(|k| self.cuts.get(k)).copied();
        let to = self.cuts.get(i).copied().unwrap_or(self.grams.len());
        self.grams.get(from.unwrap_or(0)..to).unwrap_or(&[])
    }
}

/// Where to cut `grams` into chunks: after every [`SPLIT_CHUNK_GRAMS`]
/// grams, each cut moved on past a gram that may decode a posting block
/// with the gram before it. Chunks then share no block, so every block
/// is decoded exactly as often as in one walk over `grams`, and the
/// decode counters of a split probe are the serial walk's.
fn chunk_cuts(rows: &[DirRow], grams: &[ProbeGram]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut since = 0;
    for (i, pair) in grams.windows(2).enumerate() {
        since += 1;
        if let [before, next] = pair {
            if since >= SPLIT_CHUNK_GRAMS && !share_a_block(rows, before, next) {
                cuts.push(i + 1);
                since = 0;
            }
        }
    }
    cuts
}

/// Whether the probe of `a` and that of the next probe gram `b` can
/// decode one block. Their directory visits meet only where the boundary
/// row of `a` — the first keyed past it — is the first row of `b`, and
/// only a block there holds rows of both. (A block that two grams decode
/// covers every gram between them, so it is also in both visits of any
/// two neighbours in between.)
fn share_a_block(rows: &[DirRow], a: &ProbeGram, b: &ProbeGram) -> bool {
    match (dir_rows(rows, a).last(), dir_rows(rows, b).first()) {
        (Some(last), Some(first)) => {
            last == first && matches!(postings::dir_value(last.1), postings::DirValue::Block(_))
        }
        _ => false,
    }
}

/// One worker's share of a probe: its own overlap tally, decode counters
/// and block memo, so workers share nothing while they probe.
#[derive(Default)]
struct Probed {
    /// Started at the first chunk the worker probes.
    tally: Option<Tally>,
    counters: ProbeCounters,
    /// Probes the gram filter admitted that produced no posting row.
    false_positives: u64,
    cache: postings::BlockCache,
    /// The latest chunk in which this worker decoded a block: the memo of
    /// the worker with the latest such chunk is the serial walk's memo
    /// after the last chunk.
    memo_chunk: Option<usize>,
    /// The first read error and the chunk it stopped.
    failed: Option<(usize, StoreError)>,
}

impl Probed {
    /// Probes the grams of chunk `i` of `list` against `src`, masked by
    /// `mask`, into this worker's tally. After an error the worker probes
    /// nothing more.
    fn probe_chunk(
        &mut self,
        src: &Source,
        mask: &Mask,
        window: (u64, u64),
        list: &ProbeList,
        i: usize,
    ) {
        if self.failed.is_some() {
            return;
        }
        let tally = self.tally.take().unwrap_or_default();
        let mut merge = Merge::resume(mask, src.totals(), window, tally);
        let decoded = self.counters.blocks_decoded;
        let probed = (list.chunk(i).iter())
            .try_for_each(|p| self.probe_gram(src, &list.rows, p, &mut merge));
        self.tally = Some(merge.into_tally());
        if self.counters.blocks_decoded > decoded {
            self.memo_chunk = Some(i);
        }
        if let Err(e) = probed {
            self.failed = Some((i, e));
        }
    }

    /// Streams the postings of one probe gram into `merge`.
    fn probe_gram(
        &mut self,
        src: &Source,
        rows: &[DirRow],
        p: &ProbeGram,
        merge: &mut Merge<'_>,
    ) -> Result<()> {
        let before = self.counters.rows;
        let mut emit = |t: u64, c: u32| merge.emit(p.qc, t, c);
        let dir = dir_rows(rows, p);
        let (cache, counters) = (&mut self.cache, &mut self.counters);
        postings::for_each_posting(src.pool(), dir, p.gram, cache, counters, &mut emit)?;
        if src.filter().is_some() && self.counters.rows == before {
            self.false_positives += 1;
        }
        Ok(())
    }

    /// Takes in another worker's share of the same probe: its tally and
    /// counters, its error if that stopped an earlier chunk, and its block
    /// memo if it decoded a block in a later chunk.
    fn absorb(&mut self, other: Probed) {
        self.counters += other.counters;
        self.false_positives += other.false_positives;
        if let Some(theirs) = other.tally {
            match &mut self.tally {
                Some(mine) => mine.absorb(theirs),
                none => *none = Some(theirs),
            }
        }
        if other.memo_chunk > self.memo_chunk {
            self.cache = other.cache;
            self.memo_chunk = other.memo_chunk;
        }
        if let Some((at, e)) = other.failed {
            if self.failed.as_ref().is_none_or(|&(first, _)| at < first) {
                self.failed = Some((at, e));
            }
        }
    }
}

/// The probe phase of the candidate merge against one source: consult the
/// gram filter, the planner's size window, and the overlap budget, then
/// probe the remaining query grams and accumulate per-tree bag
/// intersections.
///
/// The walk's mask skips trees owned by a newer source in a segmented
/// store: their posting rows are still read (and counted) during the
/// probe, but they contribute no candidate. An empty mask is the plain
/// single-file plan, byte for byte.
///
/// A [`Walk::Split`] probe list of [`MIN_SPLIT_CHUNKS`] chunks or more is
/// split: the caller and the idle helpers claim its chunks from one
/// cursor ([`par::fold_claims`]), each into its own tally, and the caller
/// folds the helpers' tallies into its own. A [`Walk::Alone`], or fewer
/// chunks, has the caller probe every chunk in order: the one serial
/// walk. Either way the caller alone then runs the re-probe of
/// provisional skips, and every counter equals the serial walk's.
///
/// Charges its planning stage to `stats.phases.plan`; the caller charges
/// the rest of the call, the wait for helpers included, to `probe`.
fn gather_candidates(
    walk: Walk<'_>,
    query: &QueryGrams,
    planner: &LookupPlanner,
    stats: &mut LookupStats,
    clock: &mut PhaseClock,
) -> Result<Gathered> {
    let (src, mask) = (walk.source(), walk.mask());
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
    let mut dir = DirCursor::open(src.pool(), src.fence())?;
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
    // first, by directory row estimates (ties: ascending gram). Only grams
    // estimated at `SKIP_MIN_ROWS` or more can be cut, so only those are
    // sorted.
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
            .filter(|&(est_rows, _, _)| est_rows >= SKIP_MIN_ROWS)
            .collect();
        est.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut cut: Vec<(usize, u64)> = Vec::new();
        for &(est_rows, i, qc) in &est {
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
    let cuts = match walk {
        Walk::Split(..) => chunk_cuts(&rows, &probe),
        Walk::Alone(..) => Vec::new(),
    };
    stats.phases.plan += clock.lap();
    let window = planner.total_window();
    let list = Arc::new(ProbeList {
        rows,
        grams: probe,
        cuts,
    });
    let mut mine = Probed::default();
    match walk {
        Walk::Split(src, mask, helpers) if list.chunks() >= MIN_SPLIT_CHUNKS => {
            let chunks = list.chunks();
            let (src, mask, list) = (Arc::clone(src), mask.clone(), Arc::clone(&list));
            let fold = move |w: &mut Probed, i| w.probe_chunk(&src, &mask, window, &list, i);
            let (folded, theirs) = par::fold_claims(helpers, chunks, fold, mine);
            mine = folded;
            theirs.into_iter().for_each(|w| mine.absorb(w));
        }
        _ => (0..list.chunks()).for_each(|i| mine.probe_chunk(src, mask, window, &list, i)),
    }
    if let Some((_, e)) = mine.failed.take() {
        return Err(e);
    }
    let tally = mine.tally.take().unwrap_or_default();
    let mut merge = Merge::resume(mask, src.totals(), window, tally);
    let mut probed = list.grams.len();
    // Second look at the provisional skips: compensation later costs up
    // to one forward point read per surviving candidate, so a skipped
    // gram only pays off when its posting list outweighs the current
    // candidate set. Re-probe the rest, cheapest first — a re-probe
    // can only add candidates, so the greedy cut is monotone.
    skipped.sort_unstable_by_key(|(est_rows, p)| (*est_rows, p.gram));
    let mut kept: Vec<(GramKey, u32)> = Vec::with_capacity(skipped.len());
    for (est_rows, p) in &skipped {
        if *est_rows <= u64::try_from(merge.live()).unwrap_or(u64::MAX) {
            mine.probe_gram(src, &list.rows, p, &mut merge)?;
            skipped_mass -= u64::from(p.qc);
            probed += 1;
        } else {
            kept.push((p.gram, p.qc));
        }
    }
    stats.grams_probed += probed;
    stats.grams_skipped_budget += kept.len();
    stats.absorb(&mine.counters);
    stats.filter_false_positive_probes += mine.false_positives;
    stats.rows_pruned_window += merge.tally.pruned_window;
    stats.candidates += merge.live();
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

/// The `(treeId, total)` pairs of one source sharing **no** gram with the
/// query — at pq-gram distance exactly 1 — in no particular order,
/// excluding what `mask` hides and the already-surfaced `exclude`
/// candidates. Runs only when the planner admits distance 1.0, in which
/// case no window or overlap prune can have fired, so `exclude` holds
/// *every* tree sharing a gram and the union is exactly the stored forest.
/// Each tree the caller takes costs one totals row, read from the mirror
/// ([`LookupStats::count_zero_overlap`]).
fn zero_overlap<'a>(
    src: &'a Source,
    mask: &'a Mask,
    exclude: &[(u64, u64)],
) -> impl Iterator<Item = (u64, u32)> + 'a {
    let surfaced: FxHashSet<u64> = exclude.iter().map(|&(t, _)| t).collect();
    src.totals()
        .iter()
        .filter(move |&(t, _)| !surfaced.contains(&t) && !mask.hides(t))
}

/// The `n` smallest of `pairs` by tree id, ascending — all of them when
/// `n` is at least their count. One pass holding at most `2n` pairs:
/// whenever the buffer holds more than `n`, a selection keeps its `n`
/// smallest, and only pairs below the smallest one it dropped are taken
/// in after that.
fn smallest_ids(mut pairs: impl Iterator<Item = (u64, u32)>, n: usize) -> Vec<(u64, u32)> {
    let mut kept: Vec<(u64, u32)> = pairs.by_ref().take(n.saturating_mul(2)).collect();
    while kept.len() > n {
        let cut = *kept.select_nth_unstable(n).1;
        kept.truncate(n);
        kept.extend(pairs.by_ref().filter(|&pair| pair < cut).take(n));
    }
    kept.sort_unstable();
    kept
}

/// The candidate check of every source: the exact distance of candidate
/// `(treeId, observed overlap)` of `src`, or `None` once its exact bag size
/// rules it out. `mass` is the summed query multiplicity of the
/// budget-skipped grams `skipped`, the most they can add to the observed
/// overlap. Costs one totals read (from the mirror); then, while the
/// overlap so far plus the skipped mass not yet read can still reach the
/// bound at that size, one forward point read per skipped gram.
fn candidate_distance(
    src: &Source,
    fwd: &BTree<'_>,
    query: &QueryGrams,
    planner: &LookupPlanner,
    (skipped, mass): (&[(GramKey, u32)], u64),
    (t, mut overlap): (u64, u64),
    stats: &mut LookupStats,
) -> Result<Option<f64>> {
    let total = src.totals().get(t).ok_or_else(|| {
        StoreError::Corrupt(format!("tree {t} has inverted rows but no totals row"))
    })?;
    let total = u64::from(total);
    stats.rows_read += 1;
    let mut rest = mass;
    if !planner.admits_overlap_at(overlap + rest, total) {
        return Ok(None);
    }
    for &(g, qc) in skipped {
        stats.rows_read += 1;
        stats.compensation_reads += 1;
        if let Some(c) = fwd.get((t, g))? {
            overlap += u64::from(qc.min(c));
        }
        rest = rest.saturating_sub(u64::from(qc));
        if !planner.admits_overlap_at(overlap + rest, total) {
            return Ok(None);
        }
    }
    stats.verified += 1;
    Ok(Some(overlap_distance(overlap, query.total, total)))
}

/// The memtable's candidate check of one buffered bag: whether it shares a
/// gram with the query, and its exact overlap — or `None` once the bag
/// cannot reach the bound at its exact size. That is tested before the
/// scan, then after each query gram against the overlap so far plus the
/// query mass not yet scanned. A scan cut short still settles "shares a
/// gram" by looking ahead to the first shared gram.
fn memtable_overlap(
    query: &QueryGrams,
    planner: &LookupPlanner,
    index: &TreeIndex,
) -> (bool, Option<u64>) {
    let total = index.total();
    let shares = |grams: &[(GramKey, u32)]| grams.iter().any(|&(g, _)| index.count(g) > 0);
    if !planner.admits_total(total) {
        return (shares(&query.grams), None);
    }
    let mut overlap = 0u64;
    let mut rest = query.total;
    for (i, &(g, qc)) in query.grams.iter().enumerate() {
        overlap += u64::from(qc.min(index.count(g)));
        rest = rest.saturating_sub(u64::from(qc));
        if !planner.admits_overlap_at(overlap + rest, total) {
            let unscanned = query.grams.get(i + 1..).unwrap_or(&[]);
            return (overlap > 0 || shares(unscanned), None);
        }
    }
    (overlap > 0, Some(overlap))
}

/// What a lookup asks for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Want {
    /// Every stored tree at distance below `τ` (Section 3.2).
    Within(f64),
    /// The `k` stored trees nearest to the query, ties broken by id.
    Nearest(usize),
}

impl Want {
    /// The planner and the empty answer of the request over a query of
    /// `query_total` grams — or `None` when the answer can hold nothing
    /// (`k = 0`), which is then answered without a lookup.
    fn start(self, query_total: u64) -> Option<(LookupPlanner, Answer)> {
        match self {
            Want::Within(tau) => Some((
                LookupPlanner::threshold(query_total, tau),
                Answer::Within(Vec::new()),
            )),
            Want::Nearest(0) => None,
            Want::Nearest(k) => Some((
                LookupPlanner::nearest(query_total),
                Answer::Nearest(TopK::new(k), k),
            )),
        }
    }
}

/// The answer a [`lookup`] builds: the only place the threshold and the
/// top-k lookup differ. The walk asks it for the bound to tighten the
/// planner to, the order to verify candidates in, whether a verified tree
/// is kept, and how many zero-overlap trees it could keep.
enum Answer {
    /// Every admitted hit, sorted once at the end.
    Within(Vec<LookupHit>),
    /// The `k` nearest so far, and `k`.
    Nearest(TopK, usize),
}

impl Answer {
    /// The bound the planner tightens to: the heap's worst kept distance
    /// once it is full. A threshold never moves (`tighten_to` ignores it).
    fn bound(&self) -> f64 {
        match self {
            Answer::Within(_) => 1.0,
            Answer::Nearest(heap, _) => heap.bound(),
        }
    }

    /// Orders one source's candidates for verification. A threshold keeps
    /// them ascending by id; top-k verifies the largest observed overlap
    /// first (ties: ascending id), so its bound tightens as early as it can.
    fn order(&self, candidates: &mut [(u64, u64)]) {
        if let Answer::Nearest(..) = self {
            candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
    }

    /// Offers tree `t` at its exact `distance`; returns whether it is kept.
    fn offer(&mut self, planner: &LookupPlanner, t: u64, distance: f64) -> bool {
        match self {
            Answer::Within(hits) => {
                let kept = planner.admits_distance(distance);
                if kept {
                    hits.push(LookupHit {
                        tree_id: TreeId(t),
                        distance,
                    });
                }
                kept
            }
            Answer::Nearest(heap, _) => heap.offer(TreeId(t), distance),
        }
    }

    /// How many zero-overlap trees, smallest id first, can be offered
    /// before one is rejected. A threshold keeps them all (each is a hit at
    /// distance 1). The heap holds `k`, and equal distances rank by id, so
    /// the `k + 1`-th is rejected at the latest.
    fn zero_overlap_limit(&self) -> usize {
        match self {
            Answer::Within(_) => usize::MAX,
            Answer::Nearest(_, k) => k.saturating_add(1),
        }
    }

    /// Takes in another source's answer to the same request: a
    /// threshold's admitted hits, or every hit of a top-k heap offered to
    /// this one. The sources' trees are disjoint, so the `k` best of the
    /// union are among the `k` best of each, and ties still rank by id.
    fn join(&mut self, other: Answer) {
        match (self, other) {
            (Answer::Within(hits), Answer::Within(more)) => hits.extend(more),
            (Answer::Nearest(heap, _), Answer::Nearest(more, _)) => {
                for hit in more.into_sorted_hits() {
                    heap.offer(hit.tree_id, hit.distance);
                }
            }
            // Every share of one lookup starts from the same `Want`.
            _ => {}
        }
    }

    /// The hits, ascending by `(distance, id)`.
    fn into_hits(self) -> Vec<LookupHit> {
        match self {
            Answer::Within(mut hits) => {
                sort_hits(&mut hits);
                hits
            }
            Answer::Nearest(heap, _) => heap.into_sorted_hits(),
        }
    }
}

/// One source's step of a [`lookup`]: the planner-driven candidate merge
/// against the walk's source under its mask (its probe split if the walk
/// allows; see [`gather_candidates`]), offering its trees to `answer`. Returns
/// the source's own counters, its `by_source` entry included. Candidates
/// are verified in the answer's order, the planner tightened to the
/// answer's bound before each: once it rejects an observed overlap plus
/// the skipped mass, it rejects every later one in that order, so the loop
/// breaks. (A threshold never tightens, and [`gather_candidates`] has
/// already dropped what its planner rejects.) Zero-overlap trees (distance
/// exactly 1) are offered smallest id first until the answer rejects one,
/// so a threshold's zero-overlap hits reach the final `(distance, id)` sort
/// as one ascending run.
fn lookup_source(
    walk: Walk<'_>,
    query: &QueryGrams,
    planner: &mut LookupPlanner,
    answer: &mut Answer,
    clock: &mut PhaseClock,
) -> Result<LookupStats> {
    let (src, mask) = (walk.source(), walk.mask());
    let mut stats = LookupStats::default();
    planner.tighten_to(answer.bound());
    let mut gathered = gather_candidates(walk, query, planner, &mut stats, clock)?;
    stats.phases.probe += clock.lap();
    let fwd = BTree::open_existing(src.pool(), SLOT_FWD)?;
    let mass: u64 = gathered.skipped.iter().map(|&(_, qc)| u64::from(qc)).sum();
    let skipped = (gathered.skipped.as_slice(), mass);
    answer.order(&mut gathered.candidates);
    for &candidate in &gathered.candidates {
        planner.tighten_to(answer.bound());
        if !planner.admits_overlap(candidate.1 + mass) {
            break;
        }
        let checked =
            candidate_distance(src, &fwd, query, planner, skipped, candidate, &mut stats)?;
        if let Some(distance) = checked {
            answer.offer(planner, candidate.0, distance);
        }
    }
    planner.tighten_to(answer.bound());
    if planner.needs_zero_overlap() {
        let zero = zero_overlap(src, mask, &gathered.candidates);
        for (t, m) in smallest_ids(zero, answer.zero_overlap_limit()) {
            stats.count_zero_overlap();
            let distance = overlap_distance(0, query.total, u64::from(m));
            if !answer.offer(planner, t, distance) {
                break;
            }
        }
    }
    stats.phases.verify += clock.lap();
    stats.by_source.push((src.id(), stats.rows_read));
    Ok(stats)
}

/// The sources a [`lookup`] walks, as their store holds them.
#[derive(Clone, Copy)]
pub(crate) enum Sources<'a> {
    /// A single-file store's own file. The store writes it in place
    /// through `&mut`, and a queued helper job can outlive the lookup, so
    /// its probe never leaves the caller.
    File(&'a Source),
    /// A segmented store's published snapshot, shared with every reader of
    /// it: its segments go to the helpers, and a lookup with no segment
    /// may split its main file's probe.
    Snapshot(&'a Arc<SourceSet>),
}

/// The approximate lookup behind every store handle, threshold and top-k
/// alike, over the memtable (if any) and `sources`: a snapshot's segments
/// newest first and its main file, or a single store file. Each source
/// runs the one planner-driven candidate merge under a [`Mask`] of every
/// id a newer source decides — the memtable's ids, copied once, and the
/// snapshot's owner map — so the result is bit-identical to a single file
/// holding the merged forest: hits ascending by `(distance, id)`, a top-k
/// answer exactly the first `k` of the distance-sorted exhaustive answer.
///
/// Every request runs one schedule through [`par::fan_out`]: the segments
/// go to `helpers` (the store passes [`Helpers::resident`]), each with a
/// fresh planner and answer of its own, while the caller runs the
/// memtable pass and the main file, then claims whatever segment no helper
/// has. The sources' trees are disjoint, so the shares merge in walk order
/// into the caller's answer ([`Answer::join`]), the first error included.
/// With no segment, the caller splits a snapshot's main-file probe with
/// `helpers` through [`par::fold_claims`] and runs the rest of the lookup
/// itself ([`gather_candidates`]); a single-file store's
/// [`Sources::File`] is probed on the caller alone. The phase clocks time
/// the caller: time spent waiting for a helper — for a segment, or for
/// chunks of a split probe — counts as `probe`.
pub(crate) fn lookup(
    helpers: &Helpers,
    sources: Sources<'_>,
    memtable: Option<&Memtable>,
    query: &TreeIndex,
    want: Want,
) -> Result<(Vec<LookupHit>, LookupStats)> {
    let mut stats = LookupStats::default();
    let Some((mut planner, mut answer)) = want.start(query.total()) else {
        return Ok((Vec::new(), stats));
    };
    let mut clock = PhaseClock::start();
    let query = Arc::new(QueryGrams::of(query));
    let memtable = memtable.filter(|mt| !mt.is_empty());
    let set = match sources {
        Sources::Snapshot(set) => Some(Arc::clone(set)),
        Sources::File(_) => None,
    };
    let segments = set.as_ref().map_or(0, |set| set.segments().len());
    let mask = Mask {
        memtable: memtable.map(|mt| Arc::new(mt.iter().map(|(t, _)| t).collect())),
        snapshot: set.as_ref().map(|set| (Arc::clone(set), segments)),
    };
    stats.phases.plan += clock.lap();
    let shared = (set, mask.clone(), Arc::clone(&query));
    let segment_share = move |i: usize| {
        let (set, mask, query) = &shared;
        let segment = set.as_ref().and_then(|set| set.segments().get(i));
        let share = match (segment, want.start(query.total)) {
            (Some(src), Some((mut planner, mut answer))) => {
                let clock = &mut PhaseClock::start();
                let mut mask = mask.clone();
                if let Some((_, at)) = &mut mask.snapshot {
                    *at = i;
                }
                let walk = Walk::Alone(src, &mask);
                lookup_source(walk, query, &mut planner, &mut answer, clock)
                    .map(|share| (answer, share))
            }
            _ => Err(StoreError::Corrupt(format!("no segment {i} to probe"))),
        };
        (std::thread::current().id(), share)
    };
    let caller = std::thread::current().id();
    let main = match sources {
        Sources::Snapshot(set) if segments == 0 => Walk::Split(set.main(), &mask, helpers),
        Sources::Snapshot(set) => Walk::Alone(set.main(), &mask),
        Sources::File(src) => Walk::Alone(src, &mask),
    };
    let ((memtable_share, main_share), segment_shares) =
        par::fan_out(helpers, segments, segment_share, || {
            let memtable_share =
                memtable.map(|mt| memtable_pass(mt, &query, &planner, &mut answer, &mut clock));
            let main_share = lookup_source(main, &query, &mut planner, &mut answer, &mut clock);
            (memtable_share, main_share)
        });
    // The segments the caller claimed keep their phases; the rest of its
    // wait counts as probing.
    let fanned = clock.lap();
    let mut ran_here = Duration::ZERO;
    stats.join(memtable_share.unwrap_or_default());
    for (ran_on, share) in segment_shares {
        let (hits, mut share) = share?;
        if ran_on == caller {
            ran_here += share.phases.total();
        } else {
            share.phases = LookupPhases::default();
        }
        answer.join(hits);
        stats.join(share);
    }
    stats.join(main_share?);
    stats.phases.probe += fanned.saturating_sub(ran_here);
    let hits = answer.into_hits();
    stats.phases.sort += clock.lap();
    stats.hits = hits.len();
    Ok((hits, stats))
}

/// The candidate merge in memory over a non-empty memtable — no disk row,
/// no filter — through the same planner arithmetic: trees sharing a gram
/// are candidates (every tree, when the bound admits distance 1), and a
/// bag that can still reach the bound at its exact size is verified. A
/// top-k planner is still at distance 1 here, which admits every tree and
/// every size. The memtable is the newest source: nothing masks it. Its
/// counters come back like a source's, charged to `verify`.
fn memtable_pass(
    mt: &Memtable,
    query: &QueryGrams,
    planner: &LookupPlanner,
    answer: &mut Answer,
    clock: &mut PhaseClock,
) -> LookupStats {
    let mut stats = LookupStats::default();
    for (t, entry) in mt.iter() {
        let Some(index) = entry else { continue };
        let (shared, overlap) = memtable_overlap(query, planner, index);
        if !shared && !planner.needs_zero_overlap() {
            continue;
        }
        stats.candidates += 1;
        let Some(overlap) = overlap else { continue };
        stats.verified += 1;
        let distance = overlap_distance(overlap, query.total, index.total());
        answer.offer(planner, t, distance);
    }
    stats.by_source.push((MEMTABLE_SOURCE, 0));
    stats.phases.verify += clock.lap();
    stats
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
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// What [`Merge::emit`] must remember per tree.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        Masked,
        Pruned,
        Overlap(u64),
    }

    /// A mask hiding `ids`, as a memtable that decides them does.
    fn hiding(ids: impl IntoIterator<Item = u64>) -> Mask {
        Mask {
            memtable: Some(Arc::new(ids.into_iter().collect())),
            ..Mask::default()
        }
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
        mask: &Mask,
        (view, window): (&TotalsView, (u64, u64)),
    ) -> (usize, u64, Vec<(u64, u64)>) {
        let mut merge = Merge::new(mask, view, window);
        for &(t, qc, c) in rows {
            merge.emit(qc, t, c);
        }
        let mut candidates: Vec<(u64, u64)> = merge.candidates().collect();
        candidates.sort_unstable();
        (merge.live(), merge.tally.pruned_window, candidates)
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

    #[test]
    fn the_overlap_table_matches_an_ordered_map() {
        check::cases("the_overlap_table_matches_an_ordered_map", 64, |g| {
            let stream = check::vec(g, 0..2500, |g| {
                (
                    g.random_range(0u64..900),
                    g.random_range(1u32..6),
                    g.random_range(1u32..6),
                )
            });
            let masked = check::vec(g, 0..40, |g| g.random_range(0u64..900));
            let totals = check::vec(g, 0..600, |g| {
                (g.random_range(0u64..900), g.random_range(1u32..60))
            });
            let window = (g.random_range(0u64..40), g.random_range(0u64..70));
            let mirrored = g.random_bool(0.5);
            let rows: Vec<(u64, u32, u32)> = stream
                .iter()
                .map(|&(i, qc, c)| (tree_id(i), qc, c))
                .collect();
            let skip: FxHashSet<u64> = masked.iter().map(|&i| tree_id(i)).collect();
            let mask = hiding(skip.iter().copied());
            // A tree the mirror does not hold is never pruned: an empty
            // mirror switches the window off.
            let mut view = TotalsView::empty();
            for &(i, m) in totals.iter().filter(|_| mirrored) {
                view.set(tree_id(i), m);
            }
            let window = (&view, window);
            assert_eq!(merged(&rows, &mask, window), model(&rows, &skip, window));
        });
    }

    #[test]
    fn the_totals_mirror_matches_an_ordered_map() {
        check::cases("the_totals_mirror_matches_an_ordered_map", 64, |g| {
            let writes = check::vec(g, 0..300, |g| {
                (
                    g.random_range(0u64..64),
                    g.random_range(0u8..4),
                    g.random_range(0..=u32::MAX),
                )
            });
            let mut view = TotalsView::empty();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            // The bounds only widen: every bag size ever set.
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for (i, kind, total) in writes {
                let t = tree_id(i);
                if kind == 0 {
                    view.remove(t);
                    model.remove(&t);
                } else {
                    view.set(t, total);
                    model.insert(t, total);
                    (lo, hi) = (lo.min(total), hi.max(total));
                }
                let bounds = if model.is_empty() {
                    (1, 0)
                } else {
                    (u64::from(lo), u64::from(hi))
                };
                assert_eq!(view.bounds(), bounds);
            }
            for i in 0..64 {
                assert_eq!(view.get(tree_id(i)), model.get(&tree_id(i)).copied());
            }
            let ordered: Vec<(u64, u32)> = model.into_iter().collect();
            assert_eq!(view.iter().count(), ordered.len());
            assert_eq!(view.sorted(), ordered);
        });
    }

    #[test]
    fn the_bounded_selection_is_the_sorted_prefix() {
        check::cases("the_bounded_selection_is_the_sorted_prefix", 64, |g| {
            let ids = check::vec(g, 0..200, |g| g.random_range(0u64..300));
            let n = g.random_range(0usize..220);
            let pairs: BTreeMap<u64, u32> = ids.iter().map(|&i| (tree_id(i), 1)).collect();
            let ordered: Vec<(u64, u32)> = pairs.clone().into_iter().take(n).collect();
            assert_eq!(smallest_ids(pairs.into_iter().rev(), n), ordered);
        });
    }

    #[test]
    fn the_overlap_table_grows_past_its_first_slots_and_keeps_every_key() {
        let (mask, view) = (Mask::default(), TotalsView::empty());
        let mut merge = Merge::new(&mask, &view, (0, u64::MAX));
        let initial = merge.tally.shared.slots.len();
        let keys: Vec<u64> = [0, u64::MAX, EMPTY, MASKED]
            .into_iter()
            .chain((1..=700).map(|i| i * 0x1_0000_0001))
            .collect();
        for round in 1..=3u64 {
            for &t in &keys {
                merge.emit(2, t, 5);
            }
            assert_eq!(merge.live(), keys.len(), "round {round}");
            let got: BTreeSet<(u64, u64)> = merge.candidates().collect();
            let expect: BTreeSet<(u64, u64)> = keys.iter().map(|&t| (t, 2 * round)).collect();
            assert_eq!(got, expect, "round {round}");
        }
        let slots = merge.tally.shared.slots.len();
        assert!(
            slots > initial && slots.is_power_of_two(),
            "{initial} -> {slots}"
        );
        assert!(merge.tally.shared.used * 2 <= slots, "at most half full");
    }

    #[test]
    fn pruned_rows_are_counted_at_every_sighting_and_masked_rows_never() {
        let mask = hiding([7]);
        let mut view = TotalsView::empty();
        view.set(7, 10);
        view.set(8, 99);
        view.set(9, 10);
        let mut merge = Merge::new(&mask, &view, (5, 20));
        for _ in 0..4 {
            merge.emit(1, 7, 1); // masked by a newer source
            merge.emit(1, 8, 1); // bag size outside the window
            merge.emit(3, 9, 2); // a candidate
            merge.emit(1, 10, 1); // not in the mirror: never pruned
        }
        assert_eq!((merge.live(), merge.tally.pruned_window), (2, 4));
        let mut candidates: Vec<(u64, u64)> = merge.candidates().collect();
        candidates.sort_unstable();
        assert_eq!(candidates, [(9, 8), (10, 4)]);
    }

    // -----------------------------------------------------------------
    // The parallel build: the same file at every thread count.
    // -----------------------------------------------------------------

    use crate::postings::{BLOCK_MIN, MAX_BLOCK_ROWS};
    use crate::vfs::FaultVfs;

    /// Forward rows from `(tree, gram, count)` triples: sorted by
    /// `(tree, gram)`, one row per key, counts forced positive.
    fn forward(mut triples: Vec<(u64, u64, u32)>) -> Vec<Row> {
        triples.sort_unstable_by_key(|&(t, g, _)| (t, g));
        triples.dedup_by_key(|&mut (t, g, _)| (t, g));
        triples
            .into_iter()
            .map(|(t, g, c)| ((t, g), c.max(1)))
            .collect()
    }

    /// splitmix64 over `n` draws of `(tree < trees, gram < grams, count)`.
    fn random_rows(seed: u64, n: usize, trees: u64, grams: u64) -> Vec<Row> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let triples = (0..n)
            .map(|_| {
                (
                    next() % trees,
                    next() % grams,
                    u32::try_from(next() % 9).unwrap_or(1),
                )
            })
            .collect();
        forward(triples)
    }

    /// The page image and the directory a build of `rows` on `threads`
    /// threads leaves behind; the file must pass the full verify.
    fn build_image(rows: &[Row], threads: usize) -> Result<(Vec<u8>, Vec<DirRow>)> {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
        let path = Path::new("/build/relations");
        let pool = create_file(
            path,
            Arc::clone(&vfs),
            PQParams::new(2, 3),
            FileKind::Segment,
        )?;
        init_relations(&pool)?;
        let built = bulk_load_relations_on(&pool, build_of(rows), threads, Fill::Full)?;
        pool.sync()?;
        verify_relations(&pool)?;
        let mut file = vfs.open(path)?;
        let mut image = vec![0u8; usize::try_from(file.size()?).unwrap_or(0)];
        file.read_exact_at(0, &mut image)?;
        Ok((image, built.directory))
    }

    /// Builds `rows` at 1, 2, 3, 4 and 8 threads and requires one image.
    fn assert_thread_invariant(rows: &[Row]) -> Result<()> {
        let serial = build_image(rows, 1)?;
        for threads in [2, 3, 4, 8] {
            let parallel = build_image(rows, threads)?;
            assert!(
                parallel.0 == serial.0,
                "page image differs at {threads} threads"
            );
            assert_eq!(
                parallel.1, serial.1,
                "directory differs at {threads} threads"
            );
        }
        let mut sorted: Vec<Row> = rows.iter().map(|&((t, g), c)| ((g, t), c)).collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        for threads in [1, 2, 3, 4, 8] {
            let both = sort_build(build_of(rows), threads)?;
            assert_eq!(both.inverted, sorted, "{threads}");
            assert_eq!(both.forward, rows, "{threads}");
        }
        Ok(())
    }

    /// The build of forward rows `rows`, in their order.
    fn build_of(rows: &[Row]) -> BuildRows {
        let mut build = BuildRows::with_capacity(rows.len());
        for &((t, g), c) in rows {
            build.push(t, g, c);
        }
        build
    }

    #[test]
    fn empty_and_single_row_builds_do_not_depend_on_threads() -> Result<()> {
        assert_thread_invariant(&[])?;
        assert_thread_invariant(&[((3, 77), 2)])
    }

    #[test]
    fn one_gram_stays_in_one_share() -> Result<()> {
        let rows = forward((0..10_000).map(|t| (t, 0x1234_5678, 1)).collect());
        for threads in [2, 4, 8] {
            assert!(
                gram_splitters(&gram_sample(&rows), threads).is_empty(),
                "{threads}"
            );
        }
        assert_thread_invariant(&rows)
    }

    #[test]
    fn keys_below_two_to_the_61_still_split() -> Result<()> {
        let rows = random_rows(61, 6_000, 1 << 61, 1 << 61);
        assert!(rows.iter().all(|&((t, g), _)| t < 1 << 61 && g < 1 << 61));
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                gram_splitters(&gram_sample(&rows), threads).len(),
                threads - 1,
                "{threads}"
            );
        }
        assert_thread_invariant(&rows)
    }

    #[test]
    fn a_block_group_straddles_a_share_boundary() -> Result<()> {
        // Few grams with long posting lists: the 256-row groups run across
        // the gram-range cut, which falls inside a group.
        let rows = random_rows(7, 3_000, 400, 24);
        let inv = invert(&rows, 2);
        let cut = gram_splitters(&gram_sample(&rows), 2);
        let at = inv.partition_point(|&((g, _), _)| cut.first().is_none_or(|&c| g < c));
        assert!(
            at > 0 && at < inv.len() && at % MAX_BLOCK_ROWS != 0,
            "cut at row {at}"
        );
        assert_thread_invariant(&rows)
    }

    #[test]
    fn short_tail_groups_stay_inline_at_every_split() -> Result<()> {
        // 2 * 256 + 2 rows: the last group is shorter than a block, and at
        // three threads it is the last worker's whole run.
        for extra in [1, BLOCK_MIN - 1] {
            let n = 2 * MAX_BLOCK_ROWS + extra;
            let rows = forward(
                (0..u64::try_from(n).unwrap_or(0))
                    .map(|i| (i, i % 5, 1))
                    .collect(),
            );
            assert_eq!(rows.len(), n);
            assert_thread_invariant(&rows)?;
            let (_, directory) = build_image(&rows, 3)?;
            assert!(directory.iter().rev().take(extra).all(|&(_, v)| {
                matches!(postings::dir_value(v), postings::DirValue::Inline(_))
            }));
        }
        Ok(())
    }

    #[test]
    fn shares_are_contiguous_ascending_and_complete() {
        for (seed, grams) in [(1, 1u64 << 61), (2, 40), (3, 3), (4, u64::MAX)] {
            let rows = random_rows(seed, 5_000, 300, grams);
            for threads in 1..=8 {
                let cuts = gram_splitters(&gram_sample(&rows), threads);
                assert!(cuts.len() < threads.max(1), "{threads}: {cuts:?}");
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "ascending: {cuts:?}");
                // Every row falls in exactly one range, the ranges cover the
                // gram order in sequence, and none is empty.
                let share = |g: u64| cuts.partition_point(|&s| s <= g);
                let inv = invert(&rows, threads);
                let shares: Vec<usize> = inv.iter().map(|&((g, _), _)| share(g)).collect();
                assert!(shares.windows(2).all(|w| w[0] <= w[1]), "contiguous");
                let mut seen = shares.clone();
                seen.dedup();
                assert_eq!(seen, (0..=cuts.len()).collect::<Vec<_>>(), "complete");
            }
        }
    }

    #[test]
    fn random_builds_do_not_depend_on_threads() {
        check::cases("random_builds_do_not_depend_on_threads", 24, |g| {
            let triples = check::vec(g, 0..1_500, |g| {
                (
                    g.random_range(0u64..60),
                    g.random_range(0u64..400),
                    g.random_range(1u32..40),
                )
            });
            let wide = g.random_bool(0.5);
            let spread = |g: u64| {
                if wide {
                    g.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3
                } else {
                    g
                }
            };
            let rows = forward(
                triples
                    .into_iter()
                    .map(|(t, g, c)| (t, spread(g), c))
                    .collect(),
            );
            assert_thread_invariant(&rows).unwrap();
        });
    }

    /// The transpose and the rank scatter give both orders of a build
    /// exactly as sorting every row by its key does, at 1, 2 and 3
    /// threads: sparse ascending tree ids, each tree's grams in draw
    /// order (or, in a quarter of the cases, ascending) and shared with
    /// other trees, ids and grams near 2⁶¹ in half
    /// the cases, and builds of no row, of one tree and of one gram.
    #[test]
    fn the_transpose_equals_a_sort_of_both_orders_at_every_thread_count() {
        let name = "the_transpose_equals_a_sort_of_both_orders_at_every_thread_count";
        check::cases(name, 64, |g| {
            let trees = match g.random_range(0..4) {
                0 => 0,
                1 => 1,
                _ => g.random_range(2..80),
            };
            let grams: u64 = if g.random_bool(0.2) {
                1
            } else {
                g.random_range(1..600)
            };
            let base = if g.random_bool(0.5) {
                (1u64 << 61) - 1_000_000
            } else {
                0
            };
            let ascending = g.random_bool(0.25);
            let mut rows: Vec<Row> = Vec::new();
            let mut t = base;
            for _ in 0..trees {
                t += g.random_range(1u64..1_000);
                let mut seen = BTreeSet::new();
                let mut own = check::vec(g, 0..120, |g| base + g.random_range(0..grams));
                own.retain(|&gram| seen.insert(gram));
                if ascending {
                    own.sort_unstable();
                }
                for gram in own {
                    rows.push(((t, gram), g.random_range(1..=u32::MAX)));
                }
            }
            let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
            for &((t, _), c) in &rows {
                *totals.entry(t).or_default() += u64::from(c);
            }
            let mut inverted: Vec<Row> = rows.iter().map(|&((t, g), c)| ((g, t), c)).collect();
            inverted.sort_unstable_by_key(|&(k, _)| k);
            let mut forward = rows.clone();
            forward.sort_unstable_by_key(|&(k, _)| k);
            for threads in 1..=3 {
                let sorted = sort_build(build_of(&rows), threads).unwrap();
                assert_eq!(sorted.forward, forward, "forward at {threads} threads");
                assert_eq!(sorted.inverted, inverted, "inverted at {threads} threads");
                assert!(sorted.totals.iter().copied().eq(totals.clone()), "totals");
            }
        });
    }

    #[test]
    fn a_build_refuses_tree_ids_out_of_order() {
        let mut build = BuildRows::default();
        build.push(5, 1, 1);
        build.push(3, 1, 1);
        assert!(matches!(
            sort_build(build, 1),
            Err(StoreError::InvalidArgument(_))
        ));
    }

    // -----------------------------------------------------------------
    // The split probe: any share of the chunks gives the serial walk's
    // tally and counters.
    // -----------------------------------------------------------------

    use crate::segment::Role;

    /// Forward rows of 60 trees over the even grams below 6000, so every
    /// odd gram is absent and a posting block runs across ≈ 25 grams,
    /// plus three trees on the even grams from 5900 only, which the last
    /// chunk alone probes: tree 60 (to be masked), tree 61 (bag size 50,
    /// below the window) and tree 62 (a candidate).
    fn even_gram_rows() -> Vec<Row> {
        let rows = random_rows(38, 30_000, 60, 3_000);
        let late = (5_900..6_000).step_by(2);
        let late = late.flat_map(|g| [(60, g, 1), (61, g, 1), (62, g, 100)]);
        let even = rows.iter().map(|&((t, g), c)| (t, 2 * g, c));
        forward(even.chain(late).collect())
    }

    /// A main file bulk-built from `rows`, reopened so its pool is cold.
    fn cold_source(vfs: &FaultVfs, rows: &[Row]) -> Result<Source> {
        let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let path = Path::new("/split/main");
        let params = PQParams::new(2, 3);
        drop(Source::build(
            Arc::clone(&v),
            path,
            params,
            Role::Main,
            build_of(rows),
            &[],
            Fill::Full,
        )?);
        Ok(Source::open(v, path, Role::Main)?.0)
    }

    /// The probe list of `grams`, ascending, against `src`, cut into
    /// chunks.
    fn probe_list(src: &Source, grams: &[u64]) -> Result<ProbeList> {
        let mut dir = DirCursor::open(src.pool(), src.fence())?;
        let (mut rows, mut probe) = (Vec::new(), Vec::new());
        for &gram in grams {
            let from = rows.len();
            dir.visit(gram, &mut rows)?;
            let qc = u32::try_from(1 + gram % 3).unwrap_or(1);
            let dir = from..rows.len();
            probe.push(ProbeGram { gram, qc, dir });
        }
        let cuts = chunk_cuts(&rows, &probe);
        Ok(ProbeList {
            rows,
            grams: probe,
            cuts,
        })
    }

    /// Every tenth stored gram — a query's grams are a sparse subset —
    /// with one absent (odd) gram put right before every cut those grams
    /// alone get. Each is a filter false positive, and the first lands at
    /// a chunk edge (the later ones may drift off it: every absent gram
    /// moves the next cut on by one).
    fn grams_with_absent_at_edges(src: &Source, rows: &[Row]) -> Result<(Vec<u64>, Vec<u64>)> {
        let mut stored: Vec<u64> = rows.iter().map(|&((_, g), _)| g).collect();
        stored.sort_unstable();
        stored.dedup();
        let mut grams: Vec<u64> = stored.into_iter().step_by(10).collect();
        let even = probe_list(src, &grams)?;
        let absent: Vec<u64> = (even.cuts.iter())
            .filter_map(|&c| even.grams.get(c).map(|p| p.gram - 1))
            .collect();
        grams.extend(&absent);
        grams.sort_unstable();
        Ok((grams, absent))
    }

    /// Everything a worker's probe left: the whole tree table (sentinels
    /// included) ascending, `live`, the window-pruned rows, the decode
    /// counters and the false positives.
    type Outcome = (Vec<(u64, u64)>, usize, u64, ProbeCounters, u64);

    fn outcome(w: &Probed) -> Outcome {
        let tally = w.tally.as_ref();
        let mut table: Vec<(u64, u64)> =
            tally.map(|t| t.shared.iter().collect()).unwrap_or_default();
        table.sort_unstable();
        let live = tally.map_or(0, |t| t.live);
        let pruned = tally.map_or(0, |t| t.pruned_window);
        (table, live, pruned, w.counters, w.false_positives)
    }

    /// The chunks of `list` probed by two workers, each in ascending order:
    /// the second takes chunk `i` when bit `i` of `share` is set. Then the
    /// first takes in the second, as the caller takes in a helper.
    fn probed_by_two(
        src: &Source,
        rules: (&Mask, (u64, u64)),
        list: &ProbeList,
        share: u64,
    ) -> (Probed, Outcome) {
        let (mask, window) = rules;
        let (mut caller, mut helper) = (Probed::default(), Probed::default());
        for i in 0..list.chunks() {
            let w = if share >> i & 1 == 1 {
                &mut helper
            } else {
                &mut caller
            };
            w.probe_chunk(src, mask, window, list, i);
        }
        let failed = |w: &Probed| w.failed.as_ref().map(|&(at, _)| at);
        let first_failure = [failed(&caller), failed(&helper)]
            .into_iter()
            .flatten()
            .min();
        caller.absorb(helper);
        assert_eq!(failed(&caller), first_failure, "the earliest chunk's error");
        let seen = outcome(&caller);
        (caller, seen)
    }

    /// Shares of the chunks between two workers: none (the serial walk),
    /// all, alternating, halves, the last chunk alone, and a scatter.
    fn shares(chunks: usize) -> Vec<u64> {
        let all = (1u64 << chunks) - 1;
        let half = (1u64 << (chunks / 2)) - 1;
        let last = 1u64 << (chunks - 1);
        vec![
            0,
            all,
            0x5555_5555 & all,
            0xAAAA_AAAA & all,
            half,
            all ^ half,
            last,
            0x2C69 & all,
        ]
    }

    #[test]
    fn a_split_probe_equals_the_serial_walk_however_the_chunks_are_shared() -> Result<()> {
        let rows = even_gram_rows();
        let vfs = FaultVfs::new();
        let src = cold_source(&vfs, &rows)?;
        let (grams, absent) = grams_with_absent_at_edges(&src, &rows)?;
        let list = probe_list(&src, &grams)?;
        let chunks = list.chunks();
        assert!((4..40).contains(&chunks), "{chunks} chunks");
        // A natural cut (every SPLIT_CHUNK_GRAMS grams) that fell inside a
        // block moved on: some chunk but the last is longer.
        let longer = (0..chunks - 1).filter(|&i| list.chunk(i).len() > SPLIT_CHUNK_GRAMS);
        assert!(longer.count() > 0, "no cut moved past a shared block");
        let edges: Vec<u64> = (0..chunks)
            .flat_map(|i| [list.chunk(i).first(), list.chunk(i).last()])
            .flatten()
            .map(|p| p.gram)
            .collect();
        assert!(absent.iter().any(|g| edges.contains(g)), "{absent:?}");
        // Trees 3 and 60 are owned by a newer source; the smallest of the
        // 60 random trees and tree 61 fall below the size window. Trees 3
        // and the smallest have rows in every chunk, trees 60–62 only in
        // the last.
        let last = list.chunk(chunks - 1).first().map_or(u64::MAX, |p| p.gram);
        assert!(last <= 5_900, "the last chunk starts at gram {last}");
        let mask = hiding([3, 60]);
        let random = src.totals().iter().filter(|&(t, _)| t < 60);
        let lo = random.map(|(_, m)| u64::from(m)).min().unwrap_or(0);
        let window = (lo + 1, u64::MAX);
        let (_, expected) = probed_by_two(&src, (&mask, window), &list, 0);
        let seen = |t: u64| expected.0.iter().find(|&&(u, _)| u == t).map(|&(_, v)| v);
        assert_eq!(
            (seen(3), seen(60), seen(61)),
            (Some(MASKED), Some(MASKED), Some(PRUNED))
        );
        assert!(
            seen(62).is_some_and(|o| o < MASKED),
            "tree 62 is a candidate"
        );
        assert!(
            expected.2 > 50,
            "rows of the smallest random tree were pruned"
        );
        assert!(expected.4 >= u64::try_from(absent.len()).unwrap_or(0));
        for share in shares(chunks) {
            let (mut split, seen) = probed_by_two(&src, (&mask, window), &list, share);
            assert_eq!(seen, expected, "share {share:#b}");
            let (mut serial, _) = probed_by_two(&src, (&mask, window), &list, 0);
            // The block memo carried on is the serial walk's: probing the
            // grams again, the last first, decodes the same blocks.
            let (mut merge, mut again) = (Merge::new(&mask, src.totals(), window), Vec::new());
            for w in [&mut serial, &mut split] {
                w.counters = ProbeCounters::default();
                for p in list.grams.iter().rev() {
                    w.probe_gram(&src, &list.rows, p, &mut merge)?;
                }
                again.push(w.counters);
            }
            assert_eq!(again[0], again[1], "share {share:#b}");
        }
        Ok(())
    }

    /// A read fault in a late chunk — every page of the early chunks is
    /// cached — stops the split probe with the error of its earliest
    /// failing chunk, which is the serial walk's error.
    #[test]
    fn a_read_fault_in_a_late_chunk_of_a_split_probe_is_the_serial_walks_error() -> Result<()> {
        let rows = even_gram_rows();
        let probe_after_warming = |share: u64| -> Result<(usize, String)> {
            let vfs = FaultVfs::new();
            let src = cold_source(&vfs, &rows)?;
            let (grams, _) = grams_with_absent_at_edges(&src, &rows)?;
            let list = probe_list(&src, &grams)?;
            let (mask, window) = (Mask::default(), (0, u64::MAX));
            let mut warm = Probed::default();
            for i in 0..list.chunks() / 2 {
                warm.probe_chunk(&src, &mask, window, &list, i);
            }
            for nth in 0..100_000 {
                vfs.fail_read(nth);
            }
            let (w, _) = probed_by_two(&src, (&mask, window), &list, share);
            match w.failed {
                Some((at, e)) if at >= list.chunks() / 2 => Ok((at, e.to_string())),
                other => Err(StoreError::Corrupt(format!("no late fault: {other:?}"))),
            }
        };
        let (serial_at, serial) = probe_after_warming(0)?;
        assert!(serial.contains("injected fault"), "{serial}");
        for share in shares(12) {
            let (at, err) = probe_after_warming(share)?;
            assert_eq!(err, serial, "share {share:#b}");
            assert!(at >= serial_at, "share {share:#b}");
        }
        Ok(())
    }
}
