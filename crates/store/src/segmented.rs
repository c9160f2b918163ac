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
//! be confused with a future segment.
//!
//! **Read path.** A store is one ordered list of sources — the live
//! segments by descending sequence, the main file last: lookups hand the
//! memtable and that list to the one walk of [`crate::ops`]
//! (`lookup_merged` / `lookup_top_k_merged`),
//! which runs the per-source plan with a *mask* of every tree id a newer
//! source owns. A single-file store takes the same walk over its one
//! source, so merged results are bit-identical to a store holding the
//! merged forest.
//! [`SegmentedReader`] clones share a published snapshot pointer and see
//! each flush/compaction atomically.
//!
//! **Point access.** One tree is located without touching a page
//! (`SourceSet::owner`): the memtable's entry if there is one, else the
//! newest source whose resident mirrors decide the id — rows or a
//! tombstone. Whatever is then read comes from
//! that one file, once; an update edits a bag the memtable already buffers
//! where it lies.
//!
//! **Compaction.** Folds all live segments into a fresh
//! `<base>.main.<g+1>` (newest-wins, tombstones erased) — a k-way merge by
//! tree id over the sources' forward relations, which arrives in key order
//! and reads no row of a shadowed tree — then commits the
//! generation bump and the emptied segment list in one manifest
//! transaction; superseded files are deleted best-effort afterwards and
//! swept at the next open if a crash intervenes.

use crate::btree::BTree;
use crate::index_store::IndexError;
use crate::manifest::Manifest;
use crate::memtable::Memtable;
use crate::ops::{
    check_params, lookup_merged, lookup_top_k_merged, LookupStats, StoreCheck, SLOT_FWD,
};
use crate::pager::StoreError;
use crate::segment::{Role, Source};
use crate::sync::Mutex;
use crate::vfs::{RealVfs, Vfs};
use pqgram_core::maintain::{compute_index_delta, IndexDelta, UpdateStats};
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
    use StoreError::{Corrupt, InvalidArgument, Io};
    let IndexError::Store(e) = e else { return e };
    let at = path.display();
    IndexError::Store(match e {
        Io(e) => Io(std::io::Error::new(e.kind(), format!("{at}: {e}"))),
        Corrupt(m) => Corrupt(format!("{at}: {m}")),
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

/// One immutable snapshot of the on-disk sources, newest segment first.
/// Published via an RCU pointer: writers swap in a fresh `Arc`, readers
/// clone the current one and keep querying it unperturbed.
pub(crate) struct SourceSet {
    /// The live segments, descending by sequence number (newest first),
    /// then the compacted main file: never empty, the main file last.
    sources: Vec<Arc<Source>>,
}

impl SourceSet {
    /// The on-disk sources in probe order, newest first and the main file
    /// last.
    fn sources(&self) -> impl Iterator<Item = &Source> {
        self.sources.iter().map(|src| &**src)
    }

    /// The live segments, newest first: every source but the last.
    fn segments(&self) -> &[Arc<Source>] {
        let segments = self.sources.len().saturating_sub(1);
        self.sources.get(..segments).unwrap_or(&[])
    }

    /// Owner resolution — the one way a tree id is located on disk: the
    /// file holding the rows of `id` in the merged view, or `None` if no
    /// source stores it. The newest source deciding the id decides (rows,
    /// or a tombstone that hides every older copy). Searches over resident
    /// mirrors: no page of any source is touched, and the sources are
    /// immutable, so the mirrors are exact (`verify` checks them against
    /// the files).
    fn owner(&self, id: TreeId) -> Option<&Source> {
        for src in self.sources() {
            if let Some(stored) = src.decides(id.0) {
                return stored.then_some(src);
            }
        }
        None
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

/// Where the merged view of a writer keeps one tree.
enum Home<'a> {
    /// A bag buffered in the memtable.
    Memtable,
    /// Rows in one immutable file (see [`SourceSet::owner`]).
    Disk(&'a Source),
    /// Not stored: unknown to every source, or tombstoned by the newest one
    /// that knows it.
    Nowhere,
}

/// The single-writer handle of a segmented store.
pub struct SegmentedIndexStore {
    vfs: Arc<dyn Vfs>,
    base: PathBuf,
    params: PQParams,
    manifest: Manifest,
    memtable: Memtable,
    flush_grams: u64,
    /// Superseded files the compactor failed to unlink. They hold no live
    /// data (the manifest commit already excluded them) and the next
    /// open's orphan sweep retries; the count is surfaced so callers can
    /// observe leaked disk space instead of the error vanishing.
    deferred_cleanup: usize,
    // analyze: lock-class(manifest)
    published: Arc<Mutex<Arc<SourceSet>>>,
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
        let main = Source::build(Arc::clone(&vfs), &mp, params, Role::Main, &[], &[])?;
        let manifest = Manifest::create(base, params, Arc::clone(&vfs))?;
        Ok(Self::over(vfs, base, manifest, vec![Arc::new(main)]))
    }

    /// The handle over an opened manifest and the sources it lists.
    fn over(
        vfs: Arc<dyn Vfs>,
        base: &Path,
        manifest: Manifest,
        sources: Vec<Arc<Source>>,
    ) -> SegmentedIndexStore {
        SegmentedIndexStore {
            vfs,
            base: base.to_path_buf(),
            params: manifest.params(),
            manifest,
            memtable: Memtable::new(),
            flush_grams: DEFAULT_FLUSH_GRAMS,
            deferred_cleanup: 0,
            published: Arc::new(Mutex::new(Arc::new(SourceSet { sources }))),
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
        let segments = live
            .iter()
            .rev()
            .map(|&s| (seg_path(base, s), Role::Segment(s)));
        let mut sources = Vec::with_capacity(live.len() + 1);
        for (path, role) in segments.chain([(main_path(base, gen), Role::Main)]) {
            let (src, stored) = Source::open(Arc::clone(&vfs), &path, role)
                .map_err(|e| in_file(&path, e.into()))?;
            if stored != params {
                let clash =
                    format!("parameters {stored:?} disagree with the manifest's {params:?}");
                return Err(in_file(&path, StoreError::Corrupt(clash).into()));
            }
            sources.push(Arc::new(src));
        }
        Ok(Self::over(vfs, base, manifest, sources))
    }

    /// The pq-gram parameters this store was created with.
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// The current main-file generation (bumps once per compaction).
    pub fn generation(&self) -> u64 {
        self.manifest.generation()
    }

    /// Number of live segment files (excludes the memtable).
    pub fn segment_count(&self) -> usize {
        self.snapshot().segments().len()
    }

    /// Whether the main file *and* every live segment carry a loadable
    /// gram filter. Crash tests assert recovery always lands here —
    /// every committed source has a filter — not merely on correct
    /// answers.
    #[doc(hidden)]
    pub fn has_gram_filters(&self) -> bool {
        self.snapshot().sources().all(|src| src.filter().is_some())
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

    fn snapshot(&self) -> Arc<SourceSet> {
        let set = Arc::clone(&*self.published.lock());
        set
    }

    fn publish(&self, set: SourceSet) {
        let next = Arc::new(set);
        *self.published.lock() = next;
    }

    /// Inserts (or replaces) the index of one tree. Buffered: durable at
    /// the next flush (explicit, threshold-triggered, or on
    /// [`SegmentedIndexStore::reader`]).
    pub fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<()> {
        check_params(index.params(), self.params)?;
        self.memtable.put(id, index.clone());
        self.maybe_flush()
    }

    /// Inserts (or replaces) a whole batch of trees through the memtable.
    pub fn put_trees(&mut self, batch: &[(TreeId, TreeIndex)]) -> Result<()> {
        for (_, index) in batch {
            check_params(index.params(), self.params)?;
        }
        for (id, index) in batch {
            self.memtable.put(*id, index.clone());
        }
        self.maybe_flush()
    }

    /// Resolves `id` once: the memtable's entry if it buffers one, else the
    /// owner among the on-disk sources of `set`.
    fn home<'a>(&self, set: &'a SourceSet, id: TreeId) -> Home<'a> {
        match self.memtable.get(id) {
            Some(Some(_)) => Home::Memtable,
            Some(None) => Home::Nowhere,
            None => set.owner(id).map_or(Home::Nowhere, Home::Disk),
        }
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
        let set = self.snapshot();
        Ok(!matches!(self.home(&set, id), Home::Nowhere))
    }

    /// Materializes the merged in-memory index of one stored tree.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        match self.memtable.get(id) {
            Some(entry) => Ok(entry.clone()),
            None => self.snapshot().tree_index(self.params, id),
        }
    }

    /// All stored tree ids of the merged view, ascending.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        Ok(tree_ids_merged(&self.snapshot(), Some(&self.memtable)))
    }

    /// Applies an incremental update delta (`I ← I \ I⁻ ⊎ I⁺`) to one
    /// tree. A bag the memtable already buffers is edited where it lies;
    /// any other tree is read once from the file that owns it (a tree
    /// stored nowhere counts as the empty bag) and buffered as a full
    /// replacement. All-or-nothing: the first inconsistent removal rejects
    /// the whole delta and leaves memtable and store as they were.
    // analyze: entrypoint
    pub fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<()> {
        let set = self.snapshot();
        let home = self.home(&set, id);
        self.apply_at(home, id, delta)
    }

    /// [`SegmentedIndexStore::apply_delta`] on a tree already resolved.
    fn apply_at(&mut self, home: Home<'_>, id: TreeId, delta: &IndexDelta) -> Result<()> {
        let inconsistent = |gram| IndexError::InconsistentDelta(id, gram);
        match self.memtable.edit(id, |bag| apply_checked(bag, delta)) {
            Some(outcome) => outcome.map_err(inconsistent)?,
            None => {
                let stored = match home {
                    Home::Disk(src) => crate::ops::tree_index(src.pool(), self.params, id)?,
                    Home::Memtable | Home::Nowhere => None,
                };
                let mut index = stored.unwrap_or_else(|| TreeIndex::empty(self.params));
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
        let set = self.snapshot();
        let home = self.home(&set, id);
        if matches!(home, Home::Nowhere) {
            return Err(IndexError::UnknownTree(id));
        }
        let (delta, mut stats) = compute_index_delta(tree, labels, log, self.params)?;
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
        check_params(query.params(), self.params)?;
        let set = self.snapshot();
        let memtable = Some(&self.memtable);
        Ok(lookup_merged(set.sources(), memtable, query, tau)?)
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
        check_params(query.params(), self.params)?;
        let set = self.snapshot();
        let memtable = Some(&self.memtable);
        Ok(lookup_top_k_merged(set.sources(), memtable, query, k)?)
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
        let seg = Source::build_segment(vfs, &path, self.params, seq, self.memtable.entries())?;
        self.manifest.register_segment(seq)?;
        self.memtable.clear();
        let current = self.snapshot();
        let mut sources = Vec::with_capacity(current.sources.len() + 1);
        sources.push(Arc::new(seg));
        sources.extend(current.sources.iter().cloned());
        self.publish(SourceSet { sources });
        Ok(())
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
        let current = self.snapshot();
        if current.segments().is_empty() {
            return Ok(());
        }
        // A k-way merge by tree id. Every source yields the ids it decides
        // in ascending order, its forward relation is ascending by
        // `(tree, gram)`, and a tree belongs wholesale to the newest source
        // deciding it — so taking the smallest pending id, copying its rows
        // from the first source that lists it (none, for a tombstone) and
        // stepping every source past it yields the merged relation in key
        // order.
        let decided: Vec<Vec<u64>> = current.sources().map(Source::decided).collect();
        let mut streams = Vec::with_capacity(decided.len());
        for (src, ids) in current.sources().zip(&decided) {
            let fwd = BTree::open_existing(src.pool(), SLOT_FWD).map_err(IndexError::Store)?;
            streams.push((ids.as_slice(), fwd.cursor()));
        }
        let mut rows: Vec<((u64, u64), u32)> = Vec::new();
        while let Some(t) = streams
            .iter()
            .filter_map(|(ids, _)| ids.first())
            .min()
            .copied()
        {
            let mut decided = false;
            for (ids, fwd) in &mut streams {
                if ids.first() != Some(&t) {
                    continue;
                }
                *ids = ids.get(1..).unwrap_or(&[]);
                if !decided {
                    decided = true;
                    fwd.seek((t, 0), |k, c| {
                        let own = k.0 == t;
                        if own {
                            rows.push((k, c));
                        }
                        own
                    })
                    .map_err(IndexError::Store)?;
                }
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
        let new_main = Source::build(vfs, &path, self.params, Role::Main, &rows, &[])?;
        self.manifest.commit_compaction(new_gen)?;
        // Best-effort cleanup; a crash or failure from here on only leaves
        // garbage the next open sweeps (the commit above already decided
        // the outcome), so failed unlinks are counted, not propagated.
        let mut superseded = vec![main_path(&self.base, old_gen)];
        superseded.extend((current.segments().iter()).map(|seg| seg_path(&self.base, seg.id())));
        for path in &superseded {
            if delete_stale(&self.vfs, path).is_err() {
                self.deferred_cleanup += 1;
            }
        }
        self.publish(SourceSet {
            sources: vec![Arc::new(new_main)],
        });
        Ok(())
    }

    /// A cloneable snapshot-following read handle. Flushes the memtable
    /// first so the reader sees everything written so far; afterwards the
    /// reader observes each flush/compaction atomically through the shared
    /// snapshot pointer while this writer keeps ingesting.
    pub fn reader(&mut self) -> Result<SegmentedReader> {
        self.flush()?;
        Ok(SegmentedReader {
            shared: Arc::clone(&self.published),
            params: self.params,
        })
    }

    /// Verifies every on-disk source (relation invariants, tombstone
    /// disjointness, resident mirrors) plus the manifest/published-set
    /// agreement. The shape statistics returned are the main file's.
    pub fn verify(&self) -> Result<StoreCheck> {
        let set = self.snapshot();
        let mut check = StoreCheck::default();
        for src in set.sources() {
            // The main file is verified last: its check is the one kept.
            check = src.verify()?;
        }
        let live = self.manifest.live_segments()?;
        let mut published: Vec<u64> = set.segments().iter().map(|s| s.id()).collect();
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
        let set = self.snapshot();
        let mut out = Vec::with_capacity(set.sources.len());
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
        check_params(query.params(), self.params)?;
        let set = self.snapshot();
        Ok(lookup_merged(set.sources(), None, query, tau)?)
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
        check_params(query.params(), self.params)?;
        let set = self.snapshot();
        Ok(lookup_top_k_merged(set.sources(), None, query, k)?)
    }

    /// True if `id` is stored in the current published snapshot.
    pub fn contains_tree(&self, id: TreeId) -> Result<bool> {
        Ok(self.snapshot().owner(id).is_some())
    }

    /// Materializes the index of one stored tree from the snapshot.
    pub fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        self.snapshot().tree_index(self.params, id)
    }

    /// All stored tree ids of the snapshot, ascending.
    pub fn tree_ids(&self) -> Result<Vec<TreeId>> {
        Ok(tree_ids_merged(&self.snapshot(), None))
    }
}

/// All tree ids of the merged view, ascending — from the sources' resident
/// mirrors, no page read.
fn tree_ids_merged(set: &SourceSet, memtable: Option<&Memtable>) -> Vec<TreeId> {
    let mut claimed: FxHashSet<u64> = FxHashSet::default();
    let mut ids: Vec<u64> = Vec::new();
    if let Some(mt) = memtable {
        for (t, entry) in mt.iter() {
            claimed.insert(t);
            if entry.is_some() {
                ids.push(t);
            }
        }
    }
    for src in set.sources() {
        for (t, _) in src.totals().iter() {
            if claimed.insert(t) {
                ids.push(t);
            }
        }
        claimed.extend(src.tombstones());
    }
    ids.sort_unstable();
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
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(60, 5));
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
}
