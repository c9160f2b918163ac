//! The segmented ingest engine: memtable → immutable segments →
//! compaction, under one manifest.
//!
//! A [`SegmentedIndexStore`] spreads one logical forest over several
//! files, all named off one `base` path:
//!
//! * `<base>` — the [`crate::manifest::Manifest`], the **only** file ever
//!   mutated in place (journal-protected transactions);
//! * `<base>.main.<g>` — the main file, a plain index-store file (it opens
//!   as a [`crate::IndexStore`]) holding the compacted bulk of the forest;
//!   immutable between compactions;
//! * `<base>.seg.<s>` — immutable segment files, the flushed memtables,
//!   newest sequence number winning.
//!
//! Every one of them but the manifest is a [`Source`] (`crate::segment`):
//! the opened file with its resident mirrors.
//!
//! **Write path.** Puts and removals buffer in a [`Memtable`]. A flush
//! durably reserves a sequence number (manifest transaction A), bulk-builds
//! and syncs the segment file, then registers it (manifest transaction B).
//! A crash anywhere lands on exactly one side of B: either the segment is
//! live, or it is an unreferenced orphan the next open deletes — the
//! sequence high-water mark committed by A guarantees the orphan can never
//! be confused with a future segment. No file the store builds takes an
//! insert afterwards, so each is packed full (`Fill::Full`).
//!
//! **Owner map.** A published snapshot (`SourceSet`) is its live
//! segments by descending sequence, its main file, and one map built when
//! it is published: every tree id some segment decides — rows or a
//! tombstone — to the sequence number of the newest segment deciding it.
//! An id the map lacks belongs to the main file. Lookup masks, point
//! access, `tree_ids` and compaction all read that one map.
//!
//! **Read path.** Lookups hand the memtable and the snapshot to the one
//! walk of [`crate::ops`] (`lookup`, for a threshold and a top-k request
//! alike), which runs the per-source plan under a *mask*: the memtable's
//! ids, and every id the map gives to a newer segment. The segments run
//! on the resident helper threads while the caller runs the memtable and
//! the main file, with the same merged counters. A single-file store takes
//! the same walk with no segment, so merged results are bit-identical to a
//! store holding the merged forest. [`SegmentedReader`] clones share a
//! published snapshot pointer and see each flush/compaction atomically.
//! The writer holds one such reader and reads through it, passing its
//! memtable as the newest source.
//!
//! **Point access.** One tree is located without touching a page
//! (`SourceSet::owner`): the memtable's entry if there is one, else the
//! source the map names — or the main file — if its totals mirror holds
//! the id. Whatever is then read comes from that one file, once; an
//! update edits a bag the memtable already buffers where it lies.
//!
//! **Compaction.** Folds all live segments into a fresh
//! `<base>.main.<g+1>` (newest-wins, tombstones erased): it visits the
//! merged ids ascending and copies each tree's rows from its owner's
//! forward relation, so the rows arrive in key order and no row of a
//! shadowed tree is read. It then commits the generation bump and the
//! emptied segment list in one manifest transaction; superseded files are
//! deleted best-effort afterwards and swept at the next open if a crash
//! intervenes.

use crate::btree::{BTree, Fill};
use crate::index_store::IndexError;
use crate::manifest::Manifest;
use crate::memtable::Memtable;
use crate::ops::{
    check_params, lookup, BuildRows, LookupStats, Sources, StoreCheck, Want, SLOT_FWD,
};
use crate::pager::StoreError;
use crate::segment::{Role, Source};
use crate::sync::Mutex;
use crate::vfs::{RealVfs, Vfs};
use pqgram_core::maintain::{compute_index_delta, IndexDelta, UpdateStats};
use pqgram_core::par::Helpers;
use pqgram_core::{GramKey, LookupHit, PQParams, TreeId, TreeIndex};
use pqgram_tree::{EditLog, FxHashMap, FxHashSet, LabelTable, Tree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

type Result<T> = std::result::Result<T, IndexError>;

/// Deletes whatever `path` holds. Every caller names a file the committed
/// manifest does not reference — a pre-crash orphan or a superseded file —
/// so there is nothing to lose, and usually nothing there.
fn delete_stale(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<()> {
    if vfs.exists(path) {
        vfs.delete(path).map_err(StoreError::from)?;
    }
    Ok(())
}

/// Names the file an open-time failure came from: a segmented store spans
/// several, and one file's bare error does not say which.
fn in_file(path: &Path, e: IndexError) -> IndexError {
    use StoreError::{Corrupt, InvalidArgument, Io, WrongKind};
    let IndexError::Store(e) = e else { return e };
    let at = path.display();
    IndexError::Store(match e {
        Io(e) => Io(std::io::Error::new(e.kind(), format!("{at}: {e}"))),
        Corrupt(m) => Corrupt(format!("{at}: {m}")),
        WrongKind { expected, found } => Corrupt(format!(
            "{at}: not {expected} (kind marker mismatch: the file is {found})"
        )),
        InvalidArgument(m) => InvalidArgument(format!("{at}: {m}")),
    })
}

/// Memtable flush threshold: buffered distinct grams (a proxy for the
/// eventual segment size) beyond which a put triggers an automatic flush.
const DEFAULT_FLUSH_GRAMS: u64 = 64 * 1024;

/// Most sequence numbers the open-time orphan sweep will probe below the
/// manifest's high-water mark. The mark is raw disk state: without a cap a
/// corrupt (inflated) value would turn open into an unbounded existence
/// scan.
const SWEEP_PROBE_CAP: u64 = 64 * 1024;

fn suffixed(base: &Path, suffix: &str) -> PathBuf {
    let mut s = base.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Path of main-file generation `gen` under `base`.
// analyze: taint-exempt(formats a file name; the value steers no memory)
pub(crate) fn main_path(base: &Path, gen: u64) -> PathBuf {
    suffixed(base, &format!(".main.{gen}"))
}

/// Path of segment sequence `seq` under `base`.
// analyze: taint-exempt(formats a file name; the value steers no memory)
pub(crate) fn seg_path(base: &Path, seq: u64) -> PathBuf {
    suffixed(base, &format!(".seg.{seq}"))
}

/// A snapshot's owner map: every tree id some segment decides (stores or
/// tombstones), to the sequence number of the newest segment deciding it.
type Owners = FxHashMap<u64, u64>;

/// One immutable snapshot of the on-disk sources, newest segment first,
/// with its owner map. Published via an RCU pointer: writers swap in a
/// fresh `Arc`, readers clone the current one and keep querying it
/// unperturbed. Built by `SourceSet::new` (a test may publish a drifted
/// copy), so the map is the segments'; only this module reads it.
pub(crate) struct SourceSet {
    /// The live segments, descending by sequence number (newest first).
    segments: Vec<Arc<Source>>,
    /// The compacted main file, older than every segment.
    main: Arc<Source>,
    /// The owner map of `segments`.
    owners: Owners,
}

impl SourceSet {
    /// The snapshot of `segments`, newest first, over `main`. Its owner map
    /// comes from the segments' resident mirrors: the oldest inserts its
    /// ids first, and a newer segment replaces their entries.
    fn new(segments: Vec<Arc<Source>>, main: Arc<Source>) -> SourceSet {
        let mut owners = Owners::default();
        for seg in segments.iter().rev() {
            owners.extend(seg.decided().map(|t| (t, seg.id())));
        }
        SourceSet {
            segments,
            main,
            owners,
        }
    }

    /// The live segments, newest first.
    pub(crate) fn segments(&self) -> &[Arc<Source>] {
        &self.segments
    }

    /// The main file, older than every segment.
    pub(crate) fn main(&self) -> &Arc<Source> {
        &self.main
    }

    /// Whether the owner map gives `id` to a segment newer than the source
    /// at probe-order index `at`: to any segment, when `at` is the main
    /// file's. A lookup's mask hides such an id from that source.
    pub(crate) fn newer_decides(&self, at: usize, id: u64) -> bool {
        (self.owners.get(&id))
            .is_some_and(|&seq| self.segments.get(at).is_none_or(|seg| seq > seg.id()))
    }

    /// The on-disk sources in probe order: the segments, then the main
    /// file.
    fn sources(&self) -> impl Iterator<Item = &Source> {
        self.segments.iter().chain([&self.main]).map(|src| &**src)
    }

    /// Source `at` in probe order.
    fn source(&self, at: usize) -> &Source {
        self.segments.get(at).unwrap_or(&self.main)
    }

    /// Owner resolution — the one way a tree id is located on disk: the
    /// probe-order index of the file holding the rows of `id` in the
    /// merged view, or `None` if no source stores it. The segment the
    /// owner map names decides — rows, or a tombstone that hides every
    /// older copy — and an id it lacks is the main file's. Reads resident
    /// mirrors only: no page of any source is touched, and the sources are
    /// immutable, so the mirrors are exact (`verify` checks them against
    /// the files, and the map against them).
    fn owner_at(&self, id: u64) -> Option<usize> {
        let at = match self.owners.get(&id) {
            Some(&seq) => (self.segments.binary_search_by(|seg| seq.cmp(&seg.id()))).ok()?,
            None => self.segments.len(),
        };
        self.source(at).totals().get(id).is_some().then_some(at)
    }

    /// The file holding the rows of `id` ([`SourceSet::owner_at`]).
    fn owner(&self, id: TreeId) -> Option<&Source> {
        self.owner_at(id.0).map(|at| self.source(at))
    }

    /// Every tree id the snapshot stores, ascending, with its owner's
    /// probe-order index: the ids of the owner map and of the main file's
    /// mirror that resolve to rows.
    fn stored(&self) -> Vec<(u64, usize)> {
        let ids = self.owners.keys().copied();
        let ids = ids.chain(self.main.totals().iter().map(|(t, _)| t));
        let mut stored: Vec<_> = ids.filter_map(|t| Some((t, self.owner_at(t)?))).collect();
        stored.sort_unstable();
        stored.dedup();
        stored
    }

    /// Resolves `id` once: the entry of `memtable` (the writer's, newest
    /// of all sources) if it holds one, else the owner among these sources.
    fn home(&self, memtable: Option<&Memtable>, id: TreeId) -> Home<'_> {
        match memtable.and_then(|mt| mt.get(id)) {
            Some(Some(_)) => Home::Memtable,
            Some(None) => Home::Nowhere,
            None => self.owner(id).map_or(Home::Nowhere, Home::Disk),
        }
    }

    /// Materializes the index of one tree from its owner: one file, read
    /// once.
    fn tree_index(&self, params: PQParams, id: TreeId) -> Result<Option<TreeIndex>> {
        match self.owner(id) {
            Some(src) => Ok(crate::ops::tree_index(src.pool(), params, id)?),
            None => Ok(None),
        }
    }
}

/// Where the merged view keeps one tree.
enum Home<'a> {
    /// A bag buffered in the memtable.
    Memtable,
    /// Rows in one immutable file (see [`SourceSet::owner`]).
    Disk(&'a Source),
    /// Not stored: unknown to every source, or tombstoned by the newest one
    /// that knows it.
    Nowhere,
}

/// The single-writer handle of a segmented store. It reads through the
/// [`SegmentedReader`] it hands out, with its memtable as the newest source.
pub struct SegmentedIndexStore {
    vfs: Arc<dyn Vfs>,
    base: PathBuf,
    manifest: Manifest,
    memtable: Memtable,
    flush_grams: u64,
    /// Superseded files the compactor failed to unlink. They hold no live
    /// data (the manifest commit already excluded them) and the next
    /// open's orphan sweep retries; the count is surfaced so callers can
    /// observe leaked disk space instead of the error vanishing.
    deferred_cleanup: usize,
    reader: SegmentedReader,
}

impl SegmentedIndexStore {
    /// Creates a new segmented store: `<base>.main.0` (empty) plus the
    /// manifest at `base`.
    pub fn create(base: &Path, params: PQParams) -> Result<SegmentedIndexStore> {
        Self::create_with(base, params, Arc::new(RealVfs))
    }

    /// [`SegmentedIndexStore::create`] on an explicit vfs (fault
    /// injection, tests). The main file is built and synced first, so a
    /// committed manifest always implies its generation-0 main exists; a
    /// crash in between leaves only a main-file orphan that a later
    /// `create` replaces.
    pub fn create_with(
        base: &Path,
        params: PQParams,
        vfs: Arc<dyn Vfs>,
    ) -> Result<SegmentedIndexStore> {
        let mp = main_path(base, 0);
        delete_stale(&vfs, &mp)?;
        let main = Source::build(
            Arc::clone(&vfs),
            &mp,
            params,
            Role::Main,
            BuildRows::default(),
            &[],
            Fill::Full,
        )?;
        let manifest = Manifest::create(base, params, Arc::clone(&vfs))?;
        let set = SourceSet::new(Vec::new(), Arc::new(main));
        Ok(Self::over(vfs, base, manifest, set))
    }

    /// The handle over an opened manifest and the sources it lists.
    fn over(
        vfs: Arc<dyn Vfs>,
        base: &Path,
        manifest: Manifest,
        set: SourceSet,
    ) -> SegmentedIndexStore {
        let reader = SegmentedReader {
            shared: Arc::new(Mutex::new(Arc::new(set))),
            params: manifest.params(),
        };
        SegmentedIndexStore {
            vfs,
            base: base.to_path_buf(),
            manifest,
            memtable: Memtable::new(),
            flush_grams: DEFAULT_FLUSH_GRAMS,
            deferred_cleanup: 0,
            reader,
        }
    }

    /// Opens an existing segmented store (running crash recovery on the
    /// manifest, then sweeping every file the committed manifest state
    /// does not reference).
    pub fn open(base: &Path) -> Result<SegmentedIndexStore> {
        Self::open_with(base, Arc::new(RealVfs))
    }

    /// [`SegmentedIndexStore::open`] on an explicit vfs.
    ///
    /// The orphan sweep probes at most the `SWEEP_PROBE_CAP` most recently
    /// reserved sequence numbers below the high-water mark, so open cost
    /// is bounded no matter how many flushes the store has lived through
    /// (or what a corrupt mark claims).
    // analyze: entrypoint(recovery)
    pub fn open_with(base: &Path, vfs: Arc<dyn Vfs>) -> Result<SegmentedIndexStore> {
        let manifest = Manifest::open(base, Arc::clone(&vfs))?;
        let params = manifest.params();
        let gen = manifest.generation();
        // A crashed compaction can leave the superseded main (gen - 1,
        // commit won) or an unfinished next main (gen + 1, commit lost).
        // `gen` is raw manifest state: saturate instead of overflowing and
        // let the `u64::MAX` guard skip both wrap artifacts.
        for g in [gen.wrapping_sub(1), gen.saturating_add(1)] {
            if g == gen || g == u64::MAX {
                continue;
            }
            delete_stale(&vfs, &main_path(base, g))?;
        }
        let live = manifest.live_segments()?;
        let hwm = manifest.hwm();
        if live.iter().any(|&s| s >= hwm) {
            return Err(IndexError::Store(StoreError::Corrupt(
                "live segment sequence at or above the high-water mark".into(),
            )));
        }
        let live_set: FxHashSet<u64> = live.iter().copied().collect();
        // The sweep is opportunistic garbage collection, not a correctness
        // requirement: an orphan that survives it is wasted disk, nothing
        // more. Bounding the walk to the top window below `hwm` keeps a
        // corrupt (inflated) high-water mark from stalling open with
        // billions of existence probes; legitimate stores sit far below
        // the cap, and crash orphans are always recent reservations.
        for s in hwm.saturating_sub(SWEEP_PROBE_CAP)..hwm {
            if live_set.contains(&s) {
                continue;
            }
            delete_stale(&vfs, &seg_path(base, s))?;
        }
        let open = |path: PathBuf, role| {
            let (src, stored) = Source::open(Arc::clone(&vfs), &path, role)
                .map_err(|e| in_file(&path, e.into()))?;
            if stored != params {
                let clash =
                    format!("parameters {stored:?} disagree with the manifest's {params:?}");
                return Err(in_file(&path, StoreError::Corrupt(clash).into()));
            }
            Ok(Arc::new(src))
        };
        let segments = (live.iter().rev())
            .map(|&s| open(seg_path(base, s), Role::Segment(s)))
            .collect::<Result<Vec<_>>>()?;
        let main = open(main_path(base, gen), Role::Main)?;
        let set = SourceSet::new(segments, main);
        Ok(Self::over(vfs, base, manifest, set))
    }

    /// The pq-gram parameters this store was created with.
    pub fn params(&self) -> PQParams {
        self.reader.params
    }

    /// The current main-file generation (bumps once per compaction).
    pub fn generation(&self) -> u64 {
        self.manifest.generation()
    }

    /// Number of live segment files (excludes the memtable).
    pub fn segment_count(&self) -> usize {
        self.reader.snapshot().segments.len()
    }

    /// Whether the main file *and* every live segment carry a loadable
    /// gram filter. Crash tests assert recovery always lands here —
    /// every committed source has a filter — not merely on correct
    /// answers.
    #[doc(hidden)]
    pub fn has_gram_filters(&self) -> bool {
        self.reader
            .snapshot()
            .sources()
            .all(|src| src.filter().is_some())
    }

    /// Number of entries buffered in the memtable (tombstones included).
    pub fn pending_entries(&self) -> usize {
        self.memtable.len()
    }

    /// Distinct grams buffered in the memtable, summed over its entries: the
    /// row count of the segment a flush would write, and the number the
    /// flush threshold is compared with.
    pub fn pending_grams(&self) -> u64 {
        self.memtable.grams()
    }

    /// Number of superseded files compaction failed to unlink so far.
    /// They carry no live data and the next open's orphan sweep retries
    /// the deletes; a nonzero count means disk space is leaked until then.
    pub fn deferred_cleanup(&self) -> usize {
        self.deferred_cleanup
    }

    /// Overrides the automatic flush threshold (buffered distinct grams).
    /// Tests and benchmarks use this to force small or suppressed flushes.
    pub fn set_flush_threshold(&mut self, grams: u64) {
        self.flush_grams = grams;
    }

    /// Swaps `set` in as the published snapshot, for this writer and every
    /// reader it handed out.
    fn publish(&mut self, set: SourceSet) {
        let next = Arc::new(set);
        // Typed, so the lock pass of `cargo xtask analyze` classifies the
        // acquisition (class `manifest`) through the local.
        let published: &Mutex<Arc<SourceSet>> = &self.reader.shared;
        *published.lock() = next;
    }

    /// Inserts (or replaces) the index of one tree. Buffered: durable at
    /// the next flush (explicit, threshold-triggered, or on
    /// [`SegmentedIndexStore::reader`]).
    pub fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<()> {
        check_params(index.params(), self.params())?;
        self.memtable.put(id, index.clone());
        self.maybe_flush()
    }

    /// Inserts (or replaces) a whole batch of trees through the memtable.
    pub fn put_trees(&mut self, batch: &[(TreeId, TreeIndex)]) -> Result<()> {
        for (_, index) in batch {
            check_params(index.params(), self.params())?;
        }
        for (id, index) in batch {
            self.memtable.put(*id, index.clone());
        }
        self.maybe_flush()
    }

    /// Removes a tree (a memtable tombstone). Returns `true` if the tree
    /// existed in the merged view.
    pub fn remove_tree(&mut self, id: TreeId) -> Result<bool> {
        let existed = self.contains_tree(id)?;
        if existed {
            self.memtable.remove(id);
        }
        Ok(existed)
    }

    /// True if `id` is stored in the merged view.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        Ok(self.reader.contains_in(Some(&self.memtable), id))
    }

    /// Materializes the merged in-memory index of one stored tree.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        self.reader.tree_index_in(Some(&self.memtable), id)
    }

    /// All stored tree ids of the merged view, ascending.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        Ok(tree_ids_merged(
            &self.reader.snapshot(),
            Some(&self.memtable),
        ))
    }

    /// Applies an incremental update delta (`I ← I \ I⁻ ⊎ I⁺`) to one
    /// tree. A bag the memtable already buffers is edited where it lies;
    /// any other tree is read once from the file that owns it (a tree
    /// stored nowhere counts as the empty bag) and buffered as a full
    /// replacement. All-or-nothing: the first inconsistent removal rejects
    /// the whole delta and leaves memtable and store as they were.
    // analyze: entrypoint
    pub fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<()> {
        let set = self.reader.snapshot();
        let home = set.home(Some(&self.memtable), id);
        self.apply_at(home, id, delta)
    }

    /// [`SegmentedIndexStore::apply_delta`] on a tree already resolved.
    fn apply_at(&mut self, home: Home<'_>, id: TreeId, delta: &IndexDelta) -> Result<()> {
        let inconsistent = |gram| IndexError::InconsistentDelta(id, gram);
        match self.memtable.edit(id, |bag| apply_checked(bag, delta)) {
            Some(outcome) => outcome.map_err(inconsistent)?,
            None => {
                let stored = match home {
                    Home::Disk(src) => crate::ops::tree_index(src.pool(), self.params(), id)?,
                    Home::Memtable | Home::Nowhere => None,
                };
                let mut index = stored.unwrap_or_else(|| TreeIndex::empty(self.params()));
                apply_checked(&mut index, delta).map_err(inconsistent)?;
                self.memtable.put(id, index);
            }
        }
        self.maybe_flush()
    }

    /// The full incremental pipeline: resolves the tree once (an unknown
    /// tree is rejected before any delta work), computes `I⁺`/`I⁻` from the
    /// edit log (Algorithm 1) and applies them where the tree was found,
    /// as [`SegmentedIndexStore::apply_delta`] does.
    // analyze: entrypoint
    pub fn update_from_log(
        &mut self,
        id: TreeId,
        tree: &Tree,
        labels: &LabelTable,
        log: &EditLog,
    ) -> Result<UpdateStats> {
        let set = self.reader.snapshot();
        let home = set.home(Some(&self.memtable), id);
        if matches!(home, Home::Nowhere) {
            return Err(IndexError::UnknownTree(id));
        }
        let (delta, mut stats) = compute_index_delta(tree, labels, log, self.params())?;
        let t = std::time::Instant::now();
        self.apply_at(home, id, &delta)?;
        stats.apply = t.elapsed();
        Ok(stats)
    }

    /// The approximate lookup over the merged view, ascending by distance.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_with_stats(query, tau)?.0)
    }

    /// [`SegmentedIndexStore::lookup`] with per-source access counters.
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.reader
            .search(Some(&self.memtable), query, Want::Within(tau))
    }

    /// The `k` nearest stored trees of the merged view, ascending by
    /// `(distance, tree_id)` — exactly the first `k` of the
    /// distance-sorted exhaustive answer.
    pub fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_top_k_with_stats(query, k)?.0)
    }

    /// [`SegmentedIndexStore::lookup_top_k`] with per-source access
    /// counters.
    pub fn lookup_top_k_with_stats(
        &self,
        query: &TreeIndex,
        k: usize,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.reader
            .search(Some(&self.memtable), query, Want::Nearest(k))
    }

    /// Flushes the memtable into one new immutable segment. No-op when
    /// empty. Crash-safe: sequence reservation and segment registration
    /// are separate manifest transactions around a fully synced build.
    pub fn flush(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let seq = self.manifest.reserve_seq()?;
        // Sequence numbers are reserved durably before any build starts, so
        // no live segment holds this name.
        let path = seg_path(&self.base, seq);
        delete_stale(&self.vfs, &path)?;
        let vfs = Arc::clone(&self.vfs);
        let params = self.params();
        let built = Source::build_segment(vfs, &path, params, seq, self.memtable.entries());
        let seg = self.discard_on_error(&path, built)?;
        self.manifest.register_segment(seq)?;
        self.memtable.clear();
        let current = self.reader.snapshot();
        let segments = std::iter::once(Arc::new(seg)).chain(current.segments.iter().cloned());
        let main = Arc::clone(&current.main);
        self.publish(SourceSet::new(segments.collect(), main));
        Ok(())
    }

    /// Passes a build's outcome through; after a failed build, deletes
    /// the partial file at `path` first, best effort (a failed unlink is
    /// counted, and the next open's sweep retries it). No manifest names
    /// the file yet, so nothing can need it. A failure after the build
    /// (registration, the compaction commit) leaves its file alone: the
    /// manifest may already name it, and the open-time sweep decides.
    fn discard_on_error(
        &mut self,
        path: &Path,
        built: crate::pager::Result<Source>,
    ) -> Result<Source> {
        if built.is_err() && delete_stale(&self.vfs, path).is_err() {
            self.deferred_cleanup += 1;
        }
        Ok(built?)
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.memtable.grams() >= self.flush_grams {
            self.flush()?;
        }
        Ok(())
    }

    /// Folds the memtable and every live segment into a fresh main file
    /// (newest-wins; tombstones erased for good), commits the generation
    /// bump, and deletes the superseded files. Readers holding the old
    /// snapshot keep working — the deletes are POSIX-unlink style, the
    /// open pools stay valid until dropped.
    pub fn compact(&mut self) -> Result<()> {
        self.flush()?;
        let current = self.reader.snapshot();
        if current.segments.is_empty() {
            return Ok(());
        }
        // A tree belongs wholesale to its owner, and every forward relation
        // is ascending by `(tree, gram)`: the merged ids, ascending, each
        // sought on its owner's forward cursor, yield the merged relation
        // in key order.
        let mut cursors = (current.sources())
            .map(|src| Ok(BTree::open_existing(src.pool(), SLOT_FWD)?.cursor()))
            .collect::<std::result::Result<Vec<_>, StoreError>>()?;
        let mut build = BuildRows::default();
        for (t, at) in current.stored() {
            if let Some(fwd) = cursors.get_mut(at) {
                fwd.seek((t, 0), |(u, g), c| {
                    (u == t).then(|| build.push(t, g, c)).is_some()
                })?;
            }
        }
        let old_gen = self.manifest.generation();
        if old_gen >= u64::MAX - 1 {
            return Err(IndexError::Store(StoreError::Corrupt(
                "main-file generation space exhausted".into(),
            )));
        }
        let new_gen = old_gen + 1;
        let path = main_path(&self.base, new_gen);
        delete_stale(&self.vfs, &path)?;
        let vfs = Arc::clone(&self.vfs);
        // Packed full: nothing writes to a main file until it is replaced.
        let params = self.params();
        let built = Source::build(vfs, &path, params, Role::Main, build, &[], Fill::Full);
        let new_main = self.discard_on_error(&path, built)?;
        self.manifest.commit_compaction(new_gen)?;
        // Best-effort cleanup; a crash or failure from here on only leaves
        // garbage the next open sweeps (the commit above already decided
        // the outcome), so failed unlinks are counted, not propagated.
        let mut superseded = vec![main_path(&self.base, old_gen)];
        superseded.extend((current.segments.iter()).map(|seg| seg_path(&self.base, seg.id())));
        for path in &superseded {
            if delete_stale(&self.vfs, path).is_err() {
                self.deferred_cleanup += 1;
            }
        }
        self.publish(SourceSet::new(Vec::new(), Arc::new(new_main)));
        Ok(())
    }

    /// A cloneable snapshot-following read handle. Flushes the memtable
    /// first so the reader sees everything written so far; afterwards the
    /// reader observes each flush/compaction atomically through the shared
    /// snapshot pointer while this writer keeps ingesting.
    pub fn reader(&mut self) -> Result<SegmentedReader> {
        self.flush()?;
        Ok(self.reader.clone())
    }

    /// Verifies every on-disk source (relation invariants, tombstone
    /// disjointness, resident mirrors), the owner map against one rebuilt
    /// from those verified mirrors, and the manifest/published-set
    /// agreement. The shape statistics returned are the main file's.
    pub fn verify(&self) -> Result<StoreCheck> {
        let set = self.reader.snapshot();
        let mut check = StoreCheck::default();
        for src in set.sources() {
            // The main file is verified last: its check is the one kept.
            check = src.verify()?;
        }
        let rebuilt = SourceSet::new(set.segments.clone(), Arc::clone(&set.main));
        if set.owners != rebuilt.owners {
            return Err(IndexError::Store(StoreError::Corrupt(
                "owner map disagrees with the segments' totals and tombstones".into(),
            )));
        }
        let live = self.manifest.live_segments()?;
        let mut published: Vec<u64> = set.segments.iter().map(|s| s.id()).collect();
        published.reverse();
        if live != published {
            return Err(IndexError::Store(StoreError::Corrupt(format!(
                "manifest live segments {live:?} disagree with published {published:?}"
            ))));
        }
        let trees = tree_ids_merged(&set, Some(&self.memtable)).len();
        Ok(StoreCheck {
            trees: u64::try_from(trees).unwrap_or(u64::MAX),
            ..check
        })
    }

    /// On-disk footprint of every live source, newest first: one
    /// `(source, bytes)` entry per segment (keyed by sequence number) and
    /// one for the main file (keyed by [`crate::ops::MAIN_SOURCE`]).
    pub fn relation_bytes(&self) -> Result<Vec<(u64, crate::ops::RelationBytes)>> {
        let set = self.reader.snapshot();
        let mut out = Vec::with_capacity(set.segments.len() + 1);
        for src in set.sources() {
            out.push((src.id(), crate::ops::relation_bytes(src.pool())?));
        }
        Ok(out)
    }
}

/// A cloneable, `Send + Sync` read handle over the published snapshot of a
/// [`SegmentedIndexStore`]. Each call re-reads the snapshot pointer, so a
/// reader observes every flush and compaction the writer publishes — but
/// any single lookup runs against one consistent snapshot.
#[derive(Clone)]
pub struct SegmentedReader {
    // analyze: lock-class(manifest)
    shared: Arc<Mutex<Arc<SourceSet>>>,
    params: PQParams,
}

// Compile-time proof the reader handle crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SegmentedReader>()
};

impl SegmentedReader {
    /// The pq-gram parameters of the underlying store.
    pub fn params(&self) -> PQParams {
        self.params
    }

    fn snapshot(&self) -> Arc<SourceSet> {
        let set = Arc::clone(&*self.shared.lock());
        set
    }

    /// The approximate lookup over the current published snapshot.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_with_stats(query, tau)?.0)
    }

    /// [`SegmentedReader::lookup`] with per-source access counters.
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.search(None, query, Want::Within(tau))
    }

    /// The `k` nearest stored trees of the published snapshot, ascending
    /// by `(distance, tree_id)`.
    pub fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_top_k_with_stats(query, k)?.0)
    }

    /// [`SegmentedReader::lookup_top_k`] with per-source access counters.
    pub fn lookup_top_k_with_stats(
        &self,
        query: &TreeIndex,
        k: usize,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        self.search(None, query, Want::Nearest(k))
    }

    /// True if `id` is stored in the current published snapshot.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        Ok(self.contains_in(None, id))
    }

    /// Materializes the index of one stored tree from the snapshot.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        self.tree_index_in(None, id)
    }

    /// All stored tree ids of the snapshot, ascending.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        Ok(tree_ids_merged(&self.snapshot(), None))
    }

    /// The one lookup walk (`crate::ops::lookup`, on the process-wide
    /// helpers) over the published snapshot, with `memtable` — the
    /// writer's — as the newest source.
    fn search(
        &self,
        memtable: Option<&Memtable>,
        query: &TreeIndex,
        want: Want,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        check_params(query.params(), self.params)?;
        let (helpers, set) = (Helpers::resident(), self.snapshot());
        Ok(lookup(
            helpers,
            Sources::Snapshot(&set),
            memtable,
            query,
            want,
        )?)
    }

    /// Whether the snapshot, with `memtable` as its newest source, stores
    /// `id`.
    fn contains_in(&self, memtable: Option<&Memtable>, id: TreeId) -> bool {
        !matches!(self.snapshot().home(memtable, id), Home::Nowhere)
    }

    /// The index of `id` from `memtable` if it holds an entry, else from
    /// the snapshot.
    fn tree_index_in(&self, memtable: Option<&Memtable>, id: TreeId) -> Result<Option<TreeIndex>> {
        match memtable.and_then(|mt| mt.get(id)) {
            Some(entry) => Ok(entry.clone()),
            None => self.snapshot().tree_index(self.params, id),
        }
    }
}

/// All tree ids of the merged view, ascending — from the owner map and
/// the sources' resident mirrors, no page read. A memtable entry overrides
/// the snapshot.
fn tree_ids_merged(set: &SourceSet, memtable: Option<&Memtable>) -> Vec<TreeId> {
    let mut ids: Vec<u64> = set.stored().into_iter().map(|(t, _)| t).collect();
    if let Some(mt) = memtable {
        ids.retain(|&t| mt.get(TreeId(t)).is_none());
        let live = mt.iter().filter(|(_, entry)| entry.is_some());
        ids.extend(live.map(|(t, _)| t));
        ids.sort_unstable();
    }
    ids.into_iter().map(TreeId).collect()
}

/// `index ← index \ I⁻ ⊎ I⁺`, all-or-nothing: every removal is checked
/// against the bag before the first change, so an `Err` — the first gram,
/// in `delta.removals` order, that the bag runs out of — leaves `index` as
/// it was.
fn apply_checked(index: &mut TreeIndex, delta: &IndexDelta) -> std::result::Result<(), GramKey> {
    let mut wanted: FxHashMap<GramKey, u32> =
        FxHashMap::with_capacity_and_hasher(delta.removals.len(), Default::default());
    for &gram in &delta.removals {
        let n = wanted.entry(gram).or_insert(0);
        *n += 1;
        if *n > index.count(gram) {
            return Err(gram);
        }
    }
    for &gram in &delta.removals {
        index.remove(gram);
    }
    for &gram in &delta.additions {
        index.add(gram);
    }
    Ok(())
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test looks up through a reader on a thread of its own"
)]
mod tests {
    use super::*;
    use crate::ops::{MAIN_SOURCE, MEMTABLE_SOURCE};
    use crate::vfs::FaultVfs;
    use crate::IndexStore;
    use pqgram_core::build_index;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type TestResult<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

    fn mem_vfs() -> Arc<dyn Vfs> {
        Arc::new(FaultVfs::new())
    }

    fn make_indexes(seed: u64, n: usize, params: PQParams) -> Vec<TreeIndex> {
        make_indexes_of(seed, n, 60, params)
    }

    fn make_indexes_of(seed: u64, n: usize, nodes: usize, params: PQParams) -> Vec<TreeIndex> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, 5));
            out.push(build_index(&t, &lt, params));
        }
        out
    }

    /// Builds a segmented store whose forest is spread over all four source
    /// kinds (main, two segments, memtable) plus the equivalent single-file
    /// store, and returns both.
    fn spread_store(
        v: &Arc<dyn Vfs>,
        params: PQParams,
        idxs: &[TreeIndex],
    ) -> TestResult<(SegmentedIndexStore, IndexStore)> {
        let mut seg =
            SegmentedIndexStore::create_with(Path::new("/seg/db"), params, Arc::clone(v))?;
        seg.set_flush_threshold(u64::MAX);
        let cut = idxs.len() / 3;
        for (i, idx) in idxs.iter().enumerate() {
            seg.put_tree(TreeId(i as u64), idx)?;
            if i + 1 == cut {
                seg.compact()?; // these land in the main file
            } else if (i + 1) % 5 == 0 && i + 1 > cut && i + 2 < idxs.len() {
                seg.flush()?; // these land in segments
            }
            // the tail stays in the memtable
        }
        let mut single = IndexStore::create_with(Path::new("/ref/db"), params, Arc::clone(v))?;
        for (i, idx) in idxs.iter().enumerate() {
            single.put_tree(TreeId(i as u64), idx)?;
        }
        Ok((seg, single))
    }

    #[test]
    fn merged_reads_equal_single_file() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let idxs = make_indexes(11, 24, params);
        let (seg, single) = spread_store(&v, params, &idxs)?;
        assert!(
            seg.segment_count() >= 2,
            "spread left {} segments",
            seg.segment_count()
        );
        assert!(seg.pending_entries() > 0, "spread left an empty memtable");
        assert_eq!(seg.tree_ids()?, single.tree_ids()?);
        for i in 0..idxs.len() as u64 {
            assert_eq!(
                seg.contains_tree(TreeId(i))?,
                single.contains_tree(TreeId(i))?
            );
            assert_eq!(seg.tree_index(TreeId(i))?, single.tree_index(TreeId(i))?);
        }
        for tau in [0.3, 0.7, 1.0, 1.5] {
            for q in idxs.iter().step_by(7) {
                let (mh, ms) = seg.lookup_with_stats(q, tau)?;
                let (sh, ss) = single.lookup_with_stats(q, tau)?;
                assert_eq!(mh, sh, "tau {tau}");
                assert_eq!(ms.plan, ss.plan);
                assert_eq!(ms.hits, ss.hits);
            }
        }
        seg.verify()?;
        Ok(())
    }

    #[test]
    fn newer_sources_shadow_older_ones() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let idxs = make_indexes(12, 3, params);
        let mut seg =
            SegmentedIndexStore::create_with(Path::new("/shadow/db"), params, Arc::clone(&v))?;
        seg.set_flush_threshold(u64::MAX);
        seg.put_tree(TreeId(1), &idxs[0])?;
        seg.compact()?; // v1 lives in the main file
        seg.put_tree(TreeId(1), &idxs[1])?;
        seg.flush()?; // v2 lives in a segment
        assert_eq!(seg.tree_index(TreeId(1))?.as_ref(), Some(&idxs[1]));
        seg.put_tree(TreeId(1), &idxs[2])?; // v3 in the memtable
        assert_eq!(seg.tree_index(TreeId(1))?.as_ref(), Some(&idxs[2]));
        let hits = seg.lookup(&idxs[2], 0.95)?;
        assert!(hits
            .iter()
            .all(|h| h.tree_id != TreeId(1) || h.distance == 0.0));
        // Tombstone in the memtable shadows both older copies.
        assert!(seg.remove_tree(TreeId(1))?);
        assert!(!seg.contains_tree(TreeId(1))?);
        assert!(seg.lookup(&idxs[2], 1.01)?.is_empty());
        seg.flush()?; // tombstone now in a segment
        assert!(!seg.contains_tree(TreeId(1))?);
        assert_eq!(seg.tree_ids()?, Vec::<TreeId>::new());
        seg.compact()?; // tombstone erased for good
        assert_eq!(seg.segment_count(), 0);
        assert!(!seg.contains_tree(TreeId(1))?);
        seg.verify()?;
        Ok(())
    }

    #[test]
    fn reopen_recovers_all_sources() -> TestResult {
        let params = PQParams::new(2, 4);
        let v = mem_vfs();
        let idxs = make_indexes(13, 9, params);
        let base = Path::new("/reopen/db");
        {
            let mut seg = SegmentedIndexStore::create_with(base, params, Arc::clone(&v))?;
            seg.set_flush_threshold(u64::MAX);
            for (i, idx) in idxs.iter().enumerate().take(4) {
                seg.put_tree(TreeId(i as u64), idx)?;
            }
            seg.compact()?;
            for (i, idx) in idxs.iter().enumerate().skip(4).take(3) {
                seg.put_tree(TreeId(i as u64), idx)?;
            }
            seg.flush()?;
            for (i, idx) in idxs.iter().enumerate().skip(7) {
                seg.put_tree(TreeId(i as u64), idx)?;
            }
            seg.flush()?;
        }
        let seg = SegmentedIndexStore::open_with(base, Arc::clone(&v))?;
        assert_eq!(seg.params(), params);
        assert_eq!(seg.segment_count(), 2);
        assert_eq!(seg.generation(), 1);
        for (i, idx) in idxs.iter().enumerate() {
            assert_eq!(seg.tree_index(TreeId(i as u64))?.as_ref(), Some(idx));
        }
        seg.verify()?;
        Ok(())
    }

    #[test]
    fn reader_follows_published_snapshots() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let idxs = make_indexes(15, 6, params);
        let mut seg =
            SegmentedIndexStore::create_with(Path::new("/rdr/db"), params, Arc::clone(&v))?;
        seg.set_flush_threshold(u64::MAX);
        for (i, idx) in idxs.iter().enumerate().take(5) {
            seg.put_tree(TreeId(i as u64), idx)?;
        }
        let reader = seg.reader()?;
        assert_eq!(seg.pending_entries(), 0, "reader() must flush");
        let from_thread = std::thread::scope(|s| {
            let r = reader.clone();
            let q = &idxs[0];
            s.spawn(move || r.lookup(q, 0.9)).join()
        });
        let hits = match from_thread {
            Ok(h) => h?,
            Err(_) => return Err("reader thread panicked".into()),
        };
        assert_eq!(hits, seg.lookup(&idxs[0], 0.9)?);
        // The reader observes the writer's next flush and compaction.
        seg.put_tree(TreeId(5), &idxs[5])?;
        assert!(
            !reader.contains_tree(TreeId(5))?,
            "memtable is writer-private"
        );
        seg.flush()?;
        assert!(reader.contains_tree(TreeId(5))?);
        seg.compact()?;
        assert!(reader.contains_tree(TreeId(5))?);
        assert_eq!(reader.tree_ids()?, seg.tree_ids()?);
        Ok(())
    }

    #[test]
    fn stats_attribute_rows_per_source() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let idxs = make_indexes(16, 24, params);
        let (seg, single) = spread_store(&v, params, &idxs)?;
        let (_, stats) = seg.lookup_with_stats(&idxs[0], 1.0)?;
        let sources: Vec<u64> = stats.by_source.iter().map(|&(s, _)| s).collect();
        assert_eq!(sources.first(), Some(&MEMTABLE_SOURCE));
        assert_eq!(sources.last(), Some(&MAIN_SOURCE));
        assert!(
            sources.len() >= 4,
            "expected >= 2 segment entries: {sources:?}"
        );
        let sum: u64 = stats.by_source.iter().map(|&(_, r)| r).sum();
        assert_eq!(sum, stats.rows_read);
        let (_, sstats) = single.lookup_with_stats(&idxs[0], 1.0)?;
        assert_eq!(sstats.by_source, vec![(MAIN_SOURCE, sstats.rows_read)]);
        Ok(())
    }

    /// [`spread_store`] plus the masks a fanned-out lookup has to get
    /// right: trees of the main file and of a segment re-put in a newer
    /// segment, tombstones in a segment over the main file and over a
    /// segment, and a memtable holding a put, a re-put and a tombstone.
    fn layered_store(v: &Arc<dyn Vfs>, idxs: &[TreeIndex]) -> TestResult<SegmentedIndexStore> {
        let (mut seg, _) = spread_store(v, PQParams::default(), idxs)?;
        seg.put_tree(TreeId(3), &idxs[20])?;
        seg.put_tree(TreeId(12), &idxs[1])?;
        seg.remove_tree(TreeId(5))?;
        seg.remove_tree(TreeId(16))?;
        seg.flush()?;
        seg.put_tree(TreeId(40), &idxs[7])?;
        seg.put_tree(TreeId(13), &idxs[2])?;
        seg.remove_tree(TreeId(21))?;
        assert!(seg.segment_count() >= 4 && seg.pending_entries() == 3);
        Ok(seg)
    }

    /// The merged view of `seg` as the in-memory oracle.
    fn oracle(seg: &SegmentedIndexStore) -> TestResult<pqgram_core::ForestIndex> {
        let mut forest = pqgram_core::ForestIndex::new();
        for id in seg.tree_ids()? {
            forest.insert(id, seg.tree_index(id)?.ok_or("listed tree missing")?);
        }
        Ok(forest)
    }

    /// A segmented store compacted to its main file, of trees large
    /// enough that a lookup's probe holds several chunks.
    fn compacted_store(v: &Arc<dyn Vfs>, idxs: &[TreeIndex]) -> TestResult<SegmentedIndexStore> {
        let base = Path::new("/split/db");
        let mut seg = SegmentedIndexStore::create_with(base, PQParams::default(), Arc::clone(v))?;
        seg.set_flush_threshold(u64::MAX);
        for (i, idx) in idxs.iter().enumerate() {
            seg.put_tree(TreeId(i as u64), idx)?;
        }
        seg.compact()?;
        Ok(seg)
    }

    /// Runs thresholds and top-k requests for every query against `seg`
    /// on 1 and 3 helpers and on none, requiring the hits and every
    /// counter but the phase clocks to agree and the hits to be those of
    /// `forest`. Returns whether both helper counts started a helper
    /// thread.
    fn helpers_agree_with_none(
        seg: &SegmentedIndexStore,
        forest: &pqgram_core::ForestIndex,
        queries: &[&TreeIndex],
    ) -> TestResult<bool> {
        use crate::ops::LookupPhases;
        let set = seg.reader.snapshot();
        let snapshot = Sources::Snapshot(&set);
        let untimed = |stats: LookupStats| LookupStats {
            phases: LookupPhases::default(),
            ..stats
        };
        let wants = [0.3, 0.6, 0.8, 1.0, 1.5].map(Want::Within);
        let wants = wants.into_iter().chain([1, 5, 40].map(Want::Nearest));
        let none = Helpers::new(0);
        let mut started = true;
        for helpers in [1, 3] {
            let helpers = Helpers::new(helpers);
            for want in wants.clone() {
                for &q in queries {
                    let walk = |helpers: &Helpers| {
                        let memtable = Some(&seg.memtable);
                        lookup(helpers, snapshot, memtable, q, want)
                    };
                    let (hits, stats) = walk(&none)?;
                    let expected = match want {
                        Want::Within(tau) => forest.lookup(q, tau)?,
                        Want::Nearest(k) => forest.lookup_top_k(q, k)?,
                    };
                    assert_eq!(hits, expected, "{want:?}");
                    let (fanned_hits, fanned) = walk(&helpers)?;
                    assert_eq!(fanned_hits, hits, "{want:?}");
                    assert_eq!(untimed(fanned), untimed(stats), "{want:?}");
                }
            }
            started &= helpers.started() > 0;
        }
        Ok(started)
    }

    /// A lookup on 1 and 3 helpers returns the hits and every counter but
    /// the phase clocks of the same lookup on none (every source, and
    /// every chunk of a split probe, then runs on the caller): over
    /// segments and a memtable, and with no segment — a compacted store
    /// whose probes split, alone and under a memtable that masks and
    /// replaces trees of its main file.
    #[test]
    fn lookups_on_helpers_equal_the_lookup_on_none() -> TestResult {
        let v = mem_vfs();
        let idxs = make_indexes(21, 30, PQParams::default());
        let foreign = make_indexes(22, 2, PQParams::default());
        let queries: Vec<&TreeIndex> = idxs.iter().step_by(3).chain(&foreign).collect();
        let layered = layered_store(&v, &idxs)?;
        assert!(helpers_agree_with_none(
            &layered,
            &oracle(&layered)?,
            &queries
        )?);
        let big = make_indexes_of(25, 40, 300, PQParams::default());
        let mut seg = compacted_store(&v, &big)?;
        let queries: Vec<&TreeIndex> = big.iter().step_by(4).chain(&foreign).collect();
        assert!(seg.reader.snapshot().segments.is_empty());
        assert!(
            helpers_agree_with_none(&seg, &oracle(&seg)?, &queries)?,
            "no probe was split"
        );
        seg.put_tree(TreeId(4), &big[9])?;
        seg.put_tree(TreeId(8), &foreign[0])?;
        seg.remove_tree(TreeId(12))?;
        assert!(seg.reader.snapshot().segments.is_empty() && seg.pending_entries() == 3);
        assert!(
            helpers_agree_with_none(&seg, &oracle(&seg)?, &queries)?,
            "no probe was split"
        );
        Ok(())
    }

    /// Tree 5 stored in the main file, tombstoned by a segment, re-put by
    /// a newer segment, then removed and re-put through the memtable: at
    /// every step `contains_tree`, `tree_index`, `tree_ids`, thresholds and
    /// top-k on 0, 1 and 3 helpers answer as the in-memory forest does;
    /// then the store compacts and verifies.
    #[test]
    fn one_tree_through_every_layer_reads_as_the_forest() -> TestResult {
        let params = PQParams::default();
        let idxs = make_indexes(31, 12, params);
        let base = Path::new("/layers/db");
        let mut seg = SegmentedIndexStore::create_with(base, params, mem_vfs())?;
        seg.set_flush_threshold(u64::MAX);
        let mut forest = pqgram_core::ForestIndex::new();
        let queries: Vec<&TreeIndex> = idxs.iter().step_by(2).collect();
        let agree = |seg: &SegmentedIndexStore, forest: &pqgram_core::ForestIndex| {
            let mut ids: Vec<TreeId> = forest.iter().map(|(t, _)| t).collect();
            ids.sort_unstable();
            assert_eq!(seg.tree_ids()?, ids);
            for t in (0..12).map(TreeId) {
                assert_eq!(seg.contains_tree(t)?, forest.get(t).is_some(), "{t:?}");
                assert_eq!(seg.tree_index(t)?.as_ref(), forest.get(t), "{t:?}");
            }
            helpers_agree_with_none(seg, forest, &queries)
        };
        let (id, put) = (TreeId(5), |t: u64, at: usize| (TreeId(t), idxs[at].clone()));
        for (t, index) in (0..8).map(|t| put(t, usize::try_from(t).unwrap_or(0))) {
            seg.put_tree(t, &index)?;
            forest.insert(t, index);
        }
        seg.compact()?;
        agree(&seg, &forest)?;
        // Each segment also holds a tree of its own.
        seg.remove_tree(id)?;
        forest.remove(id);
        let (t, index) = put(8, 8);
        seg.put_tree(t, &index)?;
        forest.insert(t, index);
        seg.flush()?;
        agree(&seg, &forest)?;
        for (t, at) in [(5, 9), (9, 10)] {
            let (t, index) = put(t, at);
            seg.put_tree(t, &index)?;
            forest.insert(t, index);
        }
        seg.flush()?;
        assert_eq!(seg.segment_count(), 2);
        agree(&seg, &forest)?;
        assert!(seg.remove_tree(id)?);
        forest.remove(id);
        agree(&seg, &forest)?;
        let (_, index) = put(5, 11);
        seg.put_tree(id, &index)?;
        forest.insert(id, index);
        assert_eq!(seg.pending_entries(), 1);
        assert!(
            agree(&seg, &forest)?,
            "a lookup over segments starts helpers"
        );
        seg.compact()?;
        assert_eq!(seg.segment_count(), 0);
        agree(&seg, &forest)?;
        seg.verify()?;
        Ok(())
    }

    /// Point access, listing and every lookup mask trust the owner map in
    /// place of the segments: `verify` rebuilds it from their verified
    /// mirrors and rejects a map that names an older segment, misses an
    /// id, or invents one.
    #[test]
    fn verify_rejects_an_owner_map_that_disagrees_with_the_segments() -> TestResult {
        let v = mem_vfs();
        let idxs = make_indexes(32, 24, PQParams::default());
        let mut seg = layered_store(&v, &idxs)?;
        seg.flush()?;
        seg.verify()?;
        let set = seg.reader.snapshot();
        // Tree 13 is re-put by the newest segment over an older one.
        let seqs: Vec<u64> = set.segments.iter().map(|s| s.id()).collect();
        let (newest, oldest) = (seqs.first().copied(), seqs.last().copied());
        assert_eq!(set.owners.get(&13).copied(), newest);
        // A lookup masks it from every older source, the main file too,
        // and tree 0, stored in main only, from none.
        let hidden = |id| {
            (0..=seqs.len())
                .filter(|&at| set.newer_decides(at, id))
                .count()
        };
        assert_eq!((hidden(13), hidden(0)), (seqs.len(), 0));
        let oldest = oldest.ok_or("no segment")?;
        for i in 0..3 {
            let mut owners = set.owners.clone();
            match i {
                0 => owners.insert(13, oldest),
                1 => owners.remove(&13),
                _ => owners.insert(77, oldest),
            };
            let drifted = SourceSet {
                segments: set.segments.clone(),
                main: Arc::clone(&set.main),
                owners,
            };
            seg.publish(drifted);
            let verdict = seg.verify();
            assert!(
                matches!(verdict, Err(IndexError::Store(StoreError::Corrupt(_)))),
                "drift {i}: {verdict:?}"
            );
        }
        Ok(())
    }

    /// A top-k over segments keeps one heap per source and merges them on
    /// the caller. On 0, 1 and 3 helpers, and through the writer handle
    /// with its memtable, the merge is the oracle's answer: a tie at the
    /// k-th distance split across two segments goes to the smaller id; a
    /// query sharing no gram takes the smallest live ids, past tombstones
    /// and a memtable re-put; and a `k` past the forest returns it whole.
    #[test]
    fn top_k_heaps_of_every_source_merge_into_the_oracles_answer() -> TestResult {
        use crate::ops::LookupPhases;
        let params = PQParams::default();
        let bag = |grams: &[u64]| {
            let mut index = TreeIndex::empty(params);
            grams.iter().for_each(|&g| index.add(g));
            index
        };
        // Twins sit at distance 0 from the query `twin`; `[5, 7]` and
        // `[5, 1016]` at 0.5; every other tree at 1.
        let twin = bag(&[5, 6]);
        let base = Path::new("/heaps/db");
        let mut seg = SegmentedIndexStore::create_with(base, params, mem_vfs())?;
        seg.set_flush_threshold(u64::MAX);
        for t in 0..12 {
            seg.put_tree(TreeId(t), &bag(&[1000 + t]))?;
        }
        seg.put_tree(TreeId(14), &bag(&[5, 7]))?;
        seg.put_tree(TreeId(20), &twin)?;
        seg.compact()?;
        // The older segment re-puts 9 as a twin over the main file's 9,
        // tombstones 2 and ties 16 with the main file's 14.
        seg.put_tree(TreeId(9), &twin)?;
        seg.remove_tree(TreeId(2))?;
        seg.put_tree(TreeId(16), &bag(&[5, 1016]))?;
        seg.flush()?;
        // The newer one holds the twins 4 and 11: at k = 2 its heap keeps
        // 11, which loses the tie to the older segment's 9.
        seg.put_tree(TreeId(4), &twin)?;
        seg.put_tree(TreeId(11), &twin)?;
        seg.flush()?;
        seg.remove_tree(TreeId(0))?;
        seg.put_tree(TreeId(1), &bag(&[2001]))?;
        assert!(seg.segment_count() == 2 && seg.pending_entries() == 2);
        let forest = oracle(&seg)?;
        let set = seg.reader.snapshot();
        let snapshot = Sources::Snapshot(&set);
        let untimed = |stats: LookupStats| LookupStats {
            phases: LookupPhases::default(),
            ..stats
        };
        let ids = |hits: &[LookupHit]| hits.iter().map(|h| h.tree_id.0).collect::<Vec<_>>();
        let none = bag(&[1]);
        assert_eq!(ids(&forest.lookup_top_k(&twin, 2)?), [4, 9]);
        assert_eq!(ids(&forest.lookup_top_k(&twin, 5)?), [4, 9, 11, 20, 14]);
        assert_eq!(ids(&forest.lookup_top_k(&none, 3)?), [1, 3, 4]);
        let everything = forest.len();
        let helpers = [0, 1, 3].map(Helpers::new);
        for q in [&twin, &none, &bag(&[5])] {
            for k in (1..=everything + 1).chain([100]) {
                let expected = forest.lookup_top_k(q, k)?;
                assert_eq!(expected.len(), k.min(everything));
                assert_eq!(seg.lookup_top_k(q, k)?, expected, "writer, k {k}");
                let mut counted = None;
                for h in &helpers {
                    let memtable = Some(&seg.memtable);
                    let (hits, stats) = lookup(h, snapshot, memtable, q, Want::Nearest(k))?;
                    assert_eq!(hits, expected, "{} helpers, k {k}", h.started());
                    let stats = untimed(stats);
                    assert_eq!(counted.get_or_insert_with(|| stats.clone()), &stats);
                }
            }
        }
        let started = helpers.map(|h| h.started());
        assert_eq!(started, [0, 1, 3], "a top-k over segments starts helpers");
        Ok(())
    }

    /// A single-file store never hands a lookup to a helper, so no helper
    /// thread starts. A segmented store with no segment starts one once
    /// its main file's probe holds two chunks, and a lookup over segments
    /// — a threshold or a top-k — starts one too.
    #[test]
    fn a_single_file_lookup_starts_no_helper() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let idxs = make_indexes_of(24, 12, 300, params);
        let (mut seg, single) = spread_store(&v, params, &idxs)?;
        seg.compact()?;
        seg.put_tree(TreeId(40), &idxs[3])?;
        let set = seg.reader.snapshot();
        assert!(set.segments.is_empty());
        let helpers = Helpers::new(1);
        let wants = [Want::Within(0.8), Want::Within(1.5), Want::Nearest(5)];
        let (file, snapshot) = (Sources::File(single.source()), Sources::Snapshot(&set));
        for want in wants {
            lookup(&helpers, file, None, &idxs[4], want)?;
            assert_eq!(helpers.started(), 0, "{want:?}");
        }
        // A query of a handful of grams probes one chunk.
        let tiny = make_indexes_of(27, 1, 4, params);
        lookup(&helpers, snapshot, None, &tiny[0], Want::Within(1.5))?;
        assert_eq!(helpers.started(), 0);
        for want in wants {
            lookup(&helpers, snapshot, Some(&seg.memtable), &idxs[4], want)?;
            assert_eq!(helpers.started(), 1, "{want:?}");
        }
        seg.flush()?;
        let set = seg.reader.snapshot();
        let snapshot = Sources::Snapshot(&set);
        for want in [Want::Nearest(5), Want::Within(0.8)] {
            let helpers = Helpers::new(1);
            lookup(&helpers, snapshot, None, &idxs[4], want)?;
            assert_eq!(helpers.started(), 1, "{want:?} over segments");
        }
        Ok(())
    }

    /// A [`FaultVfs`] whose reads of the `failing` files error, naming the
    /// file, once `armed` is set — or, with a `spare` thread, pass on that
    /// thread and panic on every other.
    struct FailingReads {
        inner: FaultVfs,
        failing: Arc<Vec<PathBuf>>,
        armed: Arc<std::sync::atomic::AtomicBool>,
        spare: Option<std::thread::ThreadId>,
    }

    struct FailingFile {
        inner: Box<dyn crate::vfs::VfsFile>,
        path: PathBuf,
        failing: Arc<Vec<PathBuf>>,
        armed: Arc<std::sync::atomic::AtomicBool>,
        spare: Option<std::thread::ThreadId>,
    }

    impl FailingReads {
        fn wrap(
            &self,
            path: &Path,
            inner: Box<dyn crate::vfs::VfsFile>,
        ) -> Box<dyn crate::vfs::VfsFile> {
            Box::new(FailingFile {
                inner,
                path: path.to_path_buf(),
                failing: Arc::clone(&self.failing),
                armed: Arc::clone(&self.armed),
                spare: self.spare,
            })
        }
    }

    impl Vfs for FailingReads {
        fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.create_new(path)?))
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.create_truncate(path)?))
        }
        fn open(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.open(path)?))
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn delete(&self, path: &Path) -> std::io::Result<()> {
            self.inner.delete(path)
        }
    }

    impl crate::vfs::VfsFile for FailingFile {
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
            let armed = self.armed.load(std::sync::atomic::Ordering::SeqCst);
            if armed && self.failing.contains(&self.path) {
                let at = self.path.display();
                match self.spare {
                    None => {
                        return Err(std::io::Error::other(format!("injected read fault: {at}")))
                    }
                    Some(spare) if spare != std::thread::current().id() => {
                        panic!("injected read panic: {at}")
                    }
                    Some(_) => {}
                }
            }
            self.inner.read_at(offset, buf)
        }
        fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
            self.inner.write_all_at(offset, buf)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn truncate(&mut self, size: u64) -> std::io::Result<()> {
            self.inner.truncate(size)
        }
        fn size(&mut self) -> std::io::Result<u64> {
            self.inner.size()
        }
    }

    /// Every source of a lookup runs, and the error returned is the one of
    /// the first failing source in walk order — on 1 and 3 helpers as on
    /// none — whichever thread ran which source.
    #[test]
    fn a_read_fault_reports_the_first_failing_source_in_walk_order() -> TestResult {
        let fault = FaultVfs::new();
        let idxs = make_indexes(23, 30, PQParams::default());
        let base = Path::new("/seg/db");
        let v: Arc<dyn Vfs> = Arc::new(fault.clone());
        let gen = spread_store(&v, PQParams::default(), &idxs)?.0.generation();
        // Segments 1, 2 and 3 hold ids 10–14, 15–19 and 20–24: the newest
        // reads fine, the middle one (whose trees are the queries), the
        // oldest one and the main file fail.
        let failing = vec![seg_path(base, 2), seg_path(base, 1), main_path(base, gen)];
        let reads = FailingReads {
            inner: fault,
            failing: Arc::new(failing),
            armed: Arc::default(),
            spare: None,
        };
        let armed = Arc::clone(&reads.armed);
        let store = SegmentedIndexStore::open_with(base, Arc::new(reads))?;
        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let set = store.reader.snapshot();
        let snapshot = Sources::Snapshot(&set);
        let seqs: Vec<u64> = set.segments.iter().map(|s| s.id()).collect();
        assert_eq!(seqs, [3, 2, 1]);
        let expected = seg_path(base, 2).display().to_string();
        let none = Helpers::new(0);
        for helpers in [1, 3] {
            let helpers = Helpers::new(helpers);
            for want in [Want::Within(0.8), Want::Nearest(5)] {
                for q in &idxs[15..20] {
                    let walk = |helpers: &Helpers| {
                        let found = lookup(helpers, snapshot, None, q, want);
                        found.map(|_| ()).map_err(|e| e.to_string())
                    };
                    let Err(err) = walk(&helpers) else {
                        return Err("a faulted source read nothing".into());
                    };
                    assert!(err.contains(&expected), "{err}");
                    assert_eq!(Err(err), walk(&none), "{want:?}");
                }
            }
        }
        Ok(())
    }

    /// A read fault of a segment-less store's main file ends a split
    /// probe with the serial walk's error, on 1 and 3 helpers alike.
    #[test]
    fn a_read_fault_in_a_split_probe_is_the_serial_walks_error() -> TestResult {
        let fault = FaultVfs::new();
        let idxs = make_indexes_of(28, 40, 300, PQParams::default());
        let v: Arc<dyn Vfs> = Arc::new(fault.clone());
        let gen = compacted_store(&v, &idxs)?.generation();
        let base = Path::new("/split/db");
        let reads = FailingReads {
            inner: fault,
            failing: Arc::new(vec![main_path(base, gen)]),
            armed: Arc::default(),
            spare: None,
        };
        let armed = Arc::clone(&reads.armed);
        let store = SegmentedIndexStore::open_with(base, Arc::new(reads))?;
        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let set = store.reader.snapshot();
        let snapshot = Sources::Snapshot(&set);
        let expected = main_path(base, gen).display().to_string();
        let none = Helpers::new(0);
        for helpers in [1, 3] {
            let helpers = Helpers::new(helpers);
            for want in [Want::Within(0.8), Want::Within(1.5), Want::Nearest(5)] {
                for q in idxs.iter().step_by(5) {
                    let walk = |helpers: &Helpers| {
                        let found = lookup(helpers, snapshot, None, q, want);
                        found.map(|_| ()).map_err(|e| e.to_string())
                    };
                    let Err(err) = walk(&none) else {
                        return Err("a faulted main file read nothing".into());
                    };
                    assert!(err.contains(&expected), "{err}");
                    assert_eq!(walk(&helpers), Err(err), "{want:?}");
                }
            }
            assert!(helpers.started() > 0, "no probe was split");
        }
        Ok(())
    }

    /// A panic in a helper's chunk of a split probe is re-raised on the
    /// caller. Reads panic on every thread but the caller's, so the first
    /// chunk a helper claims that reads a page panics; a lookup whose
    /// helper claimed no such chunk is retried on a freshly opened store,
    /// whose pool is cold again.
    #[test]
    fn a_panic_in_a_helpers_chunk_is_re_raised_on_the_caller() -> TestResult {
        let fault = FaultVfs::new();
        let idxs = make_indexes_of(29, 40, 300, PQParams::default());
        let v: Arc<dyn Vfs> = Arc::new(fault.clone());
        let gen = compacted_store(&v, &idxs)?.generation();
        let base = Path::new("/split/db");
        let armed: Arc<std::sync::atomic::AtomicBool> = Arc::default();
        let helpers = Helpers::new(1);
        for attempt in 0..200 {
            let reads = FailingReads {
                inner: fault.clone(),
                failing: Arc::new(vec![main_path(base, gen)]),
                armed: Arc::clone(&armed),
                spare: Some(std::thread::current().id()),
            };
            let store = SegmentedIndexStore::open_with(base, Arc::new(reads))?;
            let set = store.reader.snapshot();
            let (snapshot, q) = (Sources::Snapshot(&set), &idxs[attempt % idxs.len()]);
            armed.store(true, std::sync::atomic::Ordering::SeqCst);
            let found = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lookup(&helpers, snapshot, None, q, Want::Within(1.5))
            }));
            armed.store(false, std::sync::atomic::Ordering::SeqCst);
            match found {
                Ok(looked) => drop(looked?),
                Err(payload) => {
                    let message = payload.downcast_ref::<String>().cloned();
                    let message = message.unwrap_or_default();
                    assert!(message.starts_with("injected read panic"), "{message}");
                    return Ok(());
                }
            }
        }
        Err("no helper ever claimed a chunk that reads a page".into())
    }

    #[test]
    fn incremental_update_from_log_matches_rebuild() -> TestResult {
        let params = PQParams::default();
        let v = mem_vfs();
        let mut rng = StdRng::seed_from_u64(17);
        let mut lt = LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(300, 6));
        let mut seg =
            SegmentedIndexStore::create_with(Path::new("/upd/db"), params, Arc::clone(&v))?;
        seg.set_flush_threshold(u64::MAX);
        seg.put_tree(TreeId(0), &build_index(&tree, &lt, params))?;
        seg.compact()?; // the old index lives in the main file
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(40, alphabet));
        let stats = seg.update_from_log(TreeId(0), &tree, &lt, &log)?;
        assert_eq!(stats.ops, 40);
        let stored = seg.tree_index(TreeId(0))?.ok_or("tree 0 missing")?;
        assert_eq!(stored, build_index(&tree, &lt, params));
        let Err(err) = seg.update_from_log(TreeId(9), &tree, &lt, &log) else {
            return Err("update of an unknown tree must fail".into());
        };
        assert!(matches!(err, IndexError::UnknownTree(TreeId(9))));
        Ok(())
    }

    /// A vfs whose writes fail to every file whose name holds the armed
    /// suffix stem: `1` fails segments (`.seg.`), `2` main files
    /// (`.main.`), `0` nothing.
    struct FailingBuilds {
        inner: FaultVfs,
        armed: Arc<std::sync::atomic::AtomicU8>,
    }

    struct FailingBuild {
        inner: Box<dyn crate::vfs::VfsFile>,
        kind: u8,
        armed: Arc<std::sync::atomic::AtomicU8>,
    }

    impl FailingBuilds {
        fn wrap(
            &self,
            path: &Path,
            inner: Box<dyn crate::vfs::VfsFile>,
        ) -> Box<dyn crate::vfs::VfsFile> {
            let name = path.to_string_lossy();
            let kind = if name.contains(".seg.") {
                1
            } else {
                u8::from(name.contains(".main.")) * 2
            };
            Box::new(FailingBuild {
                inner,
                kind,
                armed: Arc::clone(&self.armed),
            })
        }
    }

    impl Vfs for FailingBuilds {
        fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.create_new(path)?))
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.create_truncate(path)?))
        }
        fn open(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(self.wrap(path, self.inner.open(path)?))
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn delete(&self, path: &Path) -> std::io::Result<()> {
            self.inner.delete(path)
        }
    }

    impl crate::vfs::VfsFile for FailingBuild {
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read_at(offset, buf)
        }
        fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
            let armed = self.armed.load(std::sync::atomic::Ordering::SeqCst);
            if self.kind != 0 && armed == self.kind {
                return Err(std::io::Error::other("injected build write fault"));
            }
            self.inner.write_all_at(offset, buf)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn truncate(&mut self, size: u64) -> std::io::Result<()> {
            self.inner.truncate(size)
        }
        fn size(&mut self) -> std::io::Result<u64> {
            self.inner.size()
        }
    }

    /// A flush or a compaction whose build fails deletes the file it was
    /// building: after three failed flushes and a failed compaction, then
    /// good ones, only the live files remain, every answer is the
    /// forest's, and a reopen finds the same store.
    #[test]
    fn a_failed_build_leaves_no_partial_file() -> TestResult {
        use std::sync::atomic::{AtomicU8, Ordering};
        let params = PQParams::default();
        let fault = FaultVfs::new();
        let armed = Arc::new(AtomicU8::new(0));
        let v: Arc<dyn Vfs> = Arc::new(FailingBuilds {
            inner: fault.clone(),
            armed: Arc::clone(&armed),
        });
        let base = Path::new("/partial/db");
        let idxs = make_indexes(41, 12, params);
        let mut seg = SegmentedIndexStore::create_with(base, params, Arc::clone(&v))?;
        seg.set_flush_threshold(u64::MAX);
        let mut forest = pqgram_core::ForestIndex::new();
        let mut put = |seg: &mut SegmentedIndexStore, at: usize| {
            let t = TreeId(u64::try_from(at).unwrap_or(0));
            forest.insert(t, idxs[at].clone());
            seg.put_tree(t, &idxs[at])
        };
        for at in 0..4 {
            put(&mut seg, at)?;
        }
        seg.flush()?;
        armed.store(1, Ordering::SeqCst);
        for at in 4..7 {
            put(&mut seg, at)?;
            assert!(seg.flush().is_err(), "the segment build must fail");
        }
        armed.store(0, Ordering::SeqCst);
        seg.flush()?;
        put(&mut seg, 7)?;
        armed.store(2, Ordering::SeqCst);
        assert!(seg.compact().is_err(), "the main-file build must fail");
        armed.store(0, Ordering::SeqCst);
        put(&mut seg, 8)?;
        seg.flush()?;
        let live = |seg: &SegmentedIndexStore| -> TestResult<()> {
            let segments = seg.manifest.live_segments()?;
            for s in 0..16 {
                let kept = v.exists(&seg_path(base, s));
                assert_eq!(kept, segments.contains(&s), "segment {s}");
            }
            for g in 0..4 {
                let kept = v.exists(&main_path(base, g));
                assert_eq!(kept, g == seg.generation(), "main file {g}");
            }
            Ok(())
        };
        live(&seg)?;
        assert_eq!(seg.deferred_cleanup(), 0);
        let forest = forest;
        let agree = |seg: &SegmentedIndexStore| -> TestResult<()> {
            for q in idxs.iter().step_by(3) {
                for tau in [0.4, 1.5] {
                    assert_eq!(seg.lookup(q, tau)?, forest.lookup(q, tau)?, "tau {tau}");
                }
            }
            seg.verify()?;
            Ok(())
        };
        agree(&seg)?;
        let segments = seg.segment_count();
        drop(seg);
        let mut seg = SegmentedIndexStore::open_with(base, Arc::clone(&v))?;
        assert_eq!((seg.segment_count(), seg.deferred_cleanup()), (segments, 0));
        live(&seg)?;
        agree(&seg)?;
        seg.compact()?;
        live(&seg)?;
        agree(&seg)
    }
}
