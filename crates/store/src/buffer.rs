//! A sharded clock-eviction buffer pool over the [`Pager`].
//!
//! The B+-tree reads `O(depth)` pages per operation and rewrites the same
//! leaves over and over during bulk index updates; the pool keeps hot pages
//! in memory and defers writes until commit or eviction. Deferred writes
//! compose correctly with the rollback journal: the disk image of a page is
//! untouched until its first flush inside the transaction, which is exactly
//! when the pager captures it in the journal.
//!
//! # Sharding
//!
//! Frames live in `N` shards (a power of two, derived from the capacity),
//! each behind its own mutex and keyed by the low bits of the [`PageId`].
//! A lookup touching shard `i` never contends with a lookup touching shard
//! `j ≠ i`; the pager itself sits behind a separate mutex that is only
//! taken on a cache miss, an eviction write-back, or a transaction edge.
//!
//! The lock order is **shard → pager**, always. A thread holding the pager
//! lock never takes a shard lock, so the pair cannot deadlock. Cache-miss
//! reads release the shard lock across the page I/O and re-check on
//! re-entry, so a slow read does not serialize the rest of the shard. The
//! fields carry `// analyze: lock-class(...)` markers and the order is
//! machine-checked by the lock-discipline pass of `cargo xtask analyze`
//! (DESIGN.md §12), including the one sanctioned overlap: `flush_dirty`
//! and `pick_victim` hold a shard lock across the pager write-back *by
//! design* — releasing it first would let a reader fault the stale
//! on-disk image back in.
//!
//! # Read path
//!
//! Frames hold their page behind an [`Arc`]; [`BufferPool::with_page`]
//! clones the `Arc` under the shard lock and runs the caller's closure
//! *outside* every pool lock. Two readers — even of the same shard, even
//! when one parks inside its closure — always make progress. Writers clone
//! the payload on demand (`Arc::make_mut`), so an in-flight reader keeps an
//! immutable snapshot while the writer updates the cached frame. The read
//! path never writes: a cache miss installs through
//! [`BufferPool::install_clean`], which skips dirty frames in its sweep
//! and serves the page uncached rather than write anything back — so
//! shared read-only handles ([`crate::IndexStoreReader`]) provably never
//! reach the pager's mutating surface.
//!
//! # Bulk builds
//!
//! A bulk build produces every page once, finished, and more pages than
//! the pool holds — caching them would only evict them again. Builders
//! take their pages with `BufferPool::allocate_run`, which installs no
//! frames, and hand each one over through a `RunWriter`, which writes
//! stretches of consecutive pages straight to the file under the pager
//! lock alone (never a shard lock, so the shard → pager order is not in
//! play). Such pages are unreachable until the builder links them in, and
//! enter the cache the ordinary way when first read.
//!
//! # Concurrency contract
//!
//! The pool is internally synchronized (callers use `&self`); the engine's
//! write path is single-writer by construction (`&mut` on the stores, or an
//! exclusively-owned store before an `IndexStoreReader` is split off), but
//! read-only lookups may share the pool across any number of threads.

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pager::{Pager, Result, StoreError};
use crate::sync::Mutex;
use pqgram_tree::FxHashMap;
use std::sync::Arc;

struct Frame {
    id: PageId,
    page: Arc<PageBuf>,
    dirty: bool,
    referenced: bool,
    /// The page's decoder has validated these exact bytes since they
    /// entered the frame (see [`BufferPool::mark_validated`]). Every path
    /// that puts different bytes in the frame builds it `false`.
    validated: bool,
}

/// An `Arc` snapshot of a page that outlives every pool lock, plus whether
/// its frame was marked validated when the snapshot was taken. A page
/// served uncached is never validated.
pub(crate) struct Pinned {
    pub(crate) page: Arc<PageBuf>,
    pub(crate) validated: bool,
}

/// One cache shard: a clock over its own frames. Never touches the pager —
/// anything that needs I/O lives on [`BufferPool`] so the shard → pager
/// lock order is visible at the call sites.
struct Shard {
    frames: Vec<Frame>,
    by_id: FxHashMap<PageId, usize>,
    clock: usize,
}

impl Shard {
    /// Snapshot of a cached page, bumping its clock reference bit.
    fn hit(&mut self, id: PageId) -> Option<Pinned> {
        let &slot = self.by_id.get(&id)?;
        let frame = self.frames.get_mut(slot)?;
        frame.referenced = true;
        Some(Pinned {
            page: Arc::clone(&frame.page),
            validated: frame.validated,
        })
    }

    /// The frame at `slot`, or `Corrupt` if the slot map and frame table
    /// ever disagree (they cannot, absent a bug in this module).
    fn frame_mut(&mut self, slot: usize) -> Result<&mut Frame> {
        self.frames
            .get_mut(slot)
            .ok_or_else(|| StoreError::Corrupt(format!("buffer frame {slot} out of range")))
    }
}

/// Sharded buffer pool; owns the pager.
pub struct BufferPool {
    // analyze: lock-class(pager)
    pager: Mutex<Pager>,
    // analyze: lock-class(shard)
    shards: Box<[Mutex<Shard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: usize,
    /// Frame budget per shard; totals at most the requested capacity.
    per_shard: usize,
}

/// Default cache capacity (pages): 4 MiB.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Ceiling on the shard count — past this, shard mutexes stop paying for
/// their footprint on the thread counts the engine targets.
const MAX_SHARDS: usize = 16;

/// Minimum frames per shard; a shard smaller than this would thrash its
/// clock on a single B+-tree root-to-leaf path.
const MIN_SHARD_CAPACITY: usize = 8;

impl BufferPool {
    /// Wraps a pager with a cache of `capacity` pages (floored at
    /// [`MIN_SHARD_CAPACITY`]), split over the largest power-of-two shard
    /// count that keeps every shard at least that minimum.
    pub fn new(pager: Pager, capacity: usize) -> Self {
        let capacity = capacity.max(MIN_SHARD_CAPACITY);
        let mut count = 1;
        while count < MAX_SHARDS && count * 2 * MIN_SHARD_CAPACITY <= capacity {
            count *= 2;
        }
        let shards = (0..count)
            .map(|_| {
                Mutex::new(Shard {
                    frames: Vec::new(),
                    by_id: FxHashMap::default(),
                    clock: 0,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BufferPool {
            pager: Mutex::new(pager),
            shards,
            shard_mask: count - 1,
            per_shard: capacity / count,
        }
    }

    /// The shard responsible for `id` (low bits of the page number).
    fn shard_for(&self, id: PageId) -> Result<&Mutex<Shard>> {
        let at = id.index() & self.shard_mask;
        self.shards
            .get(at)
            .ok_or_else(|| StoreError::Corrupt(format!("buffer shard {at} out of range")))
    }

    /// An `Arc` snapshot of the page, faulting it in on a miss. The shard
    /// lock is *not* held across the pager read, and the caller holds no
    /// pool lock at all once the snapshot is returned.
    fn snapshot(&self, id: PageId) -> Result<Pinned> {
        let shard = self.shard_for(id)?;
        let mut fetched: Option<Arc<PageBuf>> = None;
        loop {
            {
                let mut guard = shard.lock();
                // Cached — or installed by another thread while we read.
                if let Some(pinned) = guard.hit(id) {
                    return Ok(pinned);
                }
                if let Some(page) = fetched {
                    self.install_clean(&mut guard, id, Arc::clone(&page));
                    return Ok(Pinned {
                        page,
                        validated: false,
                    });
                }
            }
            // Miss: do the I/O without the shard lock so readers of other
            // pages in this shard are not serialized behind it.
            let mut pager = self.pager.lock();
            fetched = Some(Arc::new(pager.read_page(id)?));
        }
    }

    /// Pins a page for decoding in place: the snapshot outlives every pool
    /// lock and can be kept across calls. The bytes are raw disk state —
    /// unless `validated` says this frame's decoder already checked them,
    /// the caller validates before they steer memory.
    // analyze: untrusted-source
    pub(crate) fn pin(&self, id: PageId) -> Result<Pinned> {
        self.snapshot(id)
    }

    /// Records that the decoder owning page `id` validated `page`. A no-op
    /// unless the frame still holds exactly that snapshot: a frame that
    /// was rewritten, evicted or never cached in the meantime stays
    /// unvalidated, so its next reader validates again.
    pub(crate) fn mark_validated(&self, id: PageId, page: &Arc<PageBuf>) -> Result<()> {
        let shard = self.shard_for(id)?;
        let mut guard = shard.lock();
        if let Some(&slot) = guard.by_id.get(&id) {
            let frame = guard.frame_mut(slot)?;
            if Arc::ptr_eq(&frame.page, page) {
                frame.validated = true;
            }
        }
        Ok(())
    }

    /// Runs `f` against a read-only view of the page. `f` runs outside all
    /// pool locks: it may block without stalling any other reader.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&PageBuf) -> R) -> Result<R> {
        let pinned = self.snapshot(id)?;
        Ok(f(&pinned.page))
    }

    /// Runs `f` against a mutable view of the page and marks it dirty.
    ///
    /// `f` runs *outside* every pool lock, against a private copy-on-write
    /// clone of the page (`Arc::make_mut`); the result is swapped into the
    /// cached frame under the shard lock afterwards. Losing an interleaved
    /// update is impossible because the engine's write path is
    /// single-writer by contract (readers never mutate frame payloads);
    /// concurrent readers of the same page keep their pre-write snapshots.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut PageBuf) -> R) -> Result<R> {
        let mut page = self.snapshot(id)?.page;
        let out = f(Arc::make_mut(&mut page));
        let shard = self.shard_for(id)?;
        let mut guard = shard.lock();
        match guard.by_id.get(&id).copied() {
            Some(slot) => {
                let frame = guard.frame_mut(slot)?;
                frame.page = page;
                frame.dirty = true;
                frame.referenced = true;
                frame.validated = false;
            }
            None => {
                // The frame was evicted (or never cached) while `f` ran;
                // install the mutated page as a fresh dirty frame.
                self.install(&mut guard, id, page, true)?;
            }
        }
        Ok(out)
    }

    /// Allocates a fresh page (cached as an all-zero dirty frame).
    pub fn allocate(&self) -> Result<PageId> {
        let id = {
            let mut pager = self.pager.lock();
            pager.allocate()?
        };
        // Pager lock released before the shard lock: lock order is
        // shard → pager, never the reverse.
        let shard = self.shard_for(id)?;
        let mut guard = shard.lock();
        self.install(&mut guard, id, Arc::new(PageBuf::zeroed()), true)?;
        Ok(id)
    }

    /// Allocates `n` pages in one pager call ([`Pager::allocate_run`]: one
    /// header write, one growth of the file) and caches a frame for none
    /// of them. For bulk builders, which fill every page of the run
    /// privately and hand it over once through a `RunWriter`; a page the
    /// builder leaves out reads back as zeros if it came from the end of
    /// the file.
    pub(crate) fn allocate_run(&self, n: usize) -> Result<Vec<PageId>> {
        let mut pager = self.pager.lock();
        pager.allocate_run(n)
    }

    /// Writes the images of consecutive pages straight to the file
    /// ([`Pager::write_run`]), under the pager lock alone. Only for pages no
    /// frame is cached for — see [`RunWriter`].
    fn write_run(&self, first: PageId, images: &[u8]) -> Result<()> {
        let mut pager = self.pager.lock();
        pager.write_run(first, images)
    }

    /// Frees a page, dropping any cached frame.
    pub fn free(&self, id: PageId) -> Result<()> {
        let shard = self.shard_for(id)?;
        {
            let mut guard = shard.lock();
            if let Some(slot) = guard.by_id.remove(&id) {
                if let Some(frame) = guard.frames.get_mut(slot) {
                    frame.id = PageId::NONE;
                    frame.dirty = false;
                }
            }
        }
        let mut pager = self.pager.lock();
        pager.free(id)
    }

    /// Reads a user metadata slot. The value is raw header-page state off
    /// disk: callers must validate it before it steers a page id, length,
    /// or allocation.
    // analyze: untrusted-source
    pub fn meta(&self, slot: usize) -> u64 {
        let pager = self.pager.lock();
        pager.meta(slot)
    }

    /// Writes a user metadata slot.
    pub fn set_meta(&self, slot: usize, value: u64) -> Result<()> {
        let mut pager = self.pager.lock();
        pager.set_meta(slot, value)
    }

    /// Number of pages in the underlying file.
    pub fn page_count(&self) -> u32 {
        let pager = self.pager.lock();
        pager.page_count()
    }

    /// Number of frames currently cached across all shards — never exceeds
    /// the capacity the pool was built with.
    pub fn resident_pages(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            total += shard.lock().frames.len();
        }
        total
    }

    /// Starts a transaction (flushes pending writes first so the journal
    /// sees the logical pre-transaction state).
    // analyze: txn-boundary
    pub fn begin(&self) -> Result<()> {
        self.flush_dirty()?;
        let mut pager = self.pager.lock();
        pager.begin()
    }

    /// Commits: flush dirty frames, sync, retire journal.
    pub fn commit(&self) -> Result<()> {
        self.flush_dirty()?;
        let mut pager = self.pager.lock();
        pager.commit()
    }

    /// Rolls back: drop all cached frames (they may hold uncommitted data),
    /// then restore the file.
    pub fn rollback(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            guard.frames.clear();
            guard.by_id.clear();
            guard.clock = 0;
        }
        let mut pager = self.pager.lock();
        pager.rollback()
    }

    /// Flushes all dirty frames (no transaction semantics).
    pub fn flush(&self) -> Result<()> {
        self.flush_dirty()
    }

    /// Flushes all dirty frames and syncs the underlying file — the
    /// durability barrier a bootstrap bulk load needs before any other file
    /// (a manifest, say) is allowed to reference the one being built.
    pub fn sync(&self) -> Result<()> {
        self.flush_dirty()?;
        let mut pager = self.pager.lock();
        pager.sync_file()
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        let pager = self.pager.lock();
        pager.in_transaction()
    }

    /// Runs [`Pager::validate`] — the structural audit of the header and
    /// free list — on the underlying pager. Free pages are never cached, so
    /// no flush is needed for the walk to see the logical state.
    pub fn validate_pager(&self) -> Result<u32> {
        let mut pager = self.pager.lock();
        pager.validate()
    }

    /// Installs a clean page on the read path. **Never performs I/O**: the
    /// clock sweep skips dirty frames (a reader must not write pages back
    /// — that is the writer's, and only the writer's, job), and when every
    /// frame is dirty or hot the page is simply not cached — the caller
    /// already holds its `Arc` snapshot, so correctness is unaffected.
    fn install_clean(&self, shard: &mut Shard, id: PageId, page: Arc<PageBuf>) {
        if shard.by_id.contains_key(&id) {
            return;
        }
        if shard.frames.len() < self.per_shard {
            shard.frames.push(Frame {
                id,
                page,
                dirty: false,
                referenced: true,
                validated: false,
            });
            shard.by_id.insert(id, shard.frames.len() - 1);
            return;
        }
        let n = shard.frames.len();
        for _ in 0..n * 2 {
            let slot = shard.clock;
            shard.clock = (shard.clock + 1) % n;
            let Some(frame) = shard.frames.get_mut(slot) else {
                shard.clock = 0;
                continue;
            };
            if frame.dirty {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let old_id = frame.id;
            *frame = Frame {
                id,
                page,
                dirty: false,
                referenced: true,
                validated: false,
            };
            if old_id != PageId::NONE {
                shard.by_id.remove(&old_id);
            }
            shard.by_id.insert(id, slot);
            return;
        }
    }

    /// Installs a page into `shard`, evicting if the shard is at budget.
    /// Writer-path only (readers go through [`Self::install_clean`]).
    /// Caller holds the shard lock; the pager lock is taken only for a
    /// dirty victim's write-back (shard → pager order).
    fn install(
        &self,
        shard: &mut Shard,
        id: PageId,
        page: Arc<PageBuf>,
        dirty: bool,
    ) -> Result<usize> {
        if let Some(&slot) = shard.by_id.get(&id) {
            // Re-install over an existing frame (e.g. allocate of a freed,
            // still-cached page).
            *shard.frame_mut(slot)? = Frame {
                id,
                page,
                dirty,
                referenced: true,
                validated: false,
            };
            return Ok(slot);
        }
        let slot = if shard.frames.len() < self.per_shard {
            shard.frames.push(Frame {
                id,
                page,
                dirty,
                referenced: true,
                validated: false,
            });
            shard.frames.len() - 1
        } else {
            let victim = self.pick_victim(shard)?;
            let old = std::mem::replace(
                shard.frame_mut(victim)?,
                Frame {
                    id,
                    page,
                    dirty,
                    referenced: true,
                    validated: false,
                },
            );
            if old.id != PageId::NONE {
                shard.by_id.remove(&old.id);
            }
            victim
        };
        shard.by_id.insert(id, slot);
        Ok(slot)
    }

    /// Clock sweep over one shard; flushes a dirty victim before eviction.
    ///
    /// The write-back below targets a frame some writer dirtied *inside* the
    /// transaction that is still open (deferred writes never outlive their
    /// transaction: begin/commit/rollback all drain or drop them), so its
    /// original image is already journaled by the pager.
    // analyze: txn-exempt(evicting a dirty frame re-writes a page first written inside the transaction that dirtied it; the pager journals it on first overwrite)
    fn pick_victim(&self, shard: &mut Shard) -> Result<usize> {
        let n = shard.frames.len();
        if n == 0 {
            return Err(StoreError::InvalidArgument("buffer shard empty".into()));
        }
        for _ in 0..n * 2 + 1 {
            let slot = shard.clock;
            shard.clock = (shard.clock + 1) % n;
            let Some(frame) = shard.frames.get_mut(slot) else {
                shard.clock = 0;
                continue;
            };
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if frame.dirty && frame.id != PageId::NONE {
                let mut pager = self.pager.lock();
                pager.write_page(frame.id, &frame.page)?;
                frame.dirty = false;
            }
            return Ok(slot);
        }
        Err(StoreError::InvalidArgument("buffer shard exhausted".into()))
    }

    // analyze: txn-exempt(drains frames dirtied under the currently open transaction — or pre-transaction bootstrap writes on a store no reader has opened yet)
    fn flush_dirty(&self) -> Result<()> {
        // Inside a transaction every original goes to the journal first,
        // under one journal sync; the write-backs below then find their
        // pages captured. (A mid-transaction eviction still records, syncs
        // and writes its one page.)
        let mut dirty = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.lock();
            let frames = guard.frames.iter();
            dirty.extend(
                frames
                    .filter(|f| f.dirty && f.id != PageId::NONE)
                    .map(|f| f.id),
            );
        }
        if !dirty.is_empty() {
            let mut pager = self.pager.lock();
            pager.journal_pages(dirty)?;
        }
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            let mut pager = self.pager.lock();
            for frame in guard.frames.iter_mut() {
                if frame.dirty && frame.id != PageId::NONE {
                    pager.write_page(frame.id, &frame.page)?;
                    frame.dirty = false;
                }
            }
        }
        Ok(())
    }
}

/// Longest stretch a [`RunWriter`] gathers before writing it: 1 MiB.
const RUN_PAGES: usize = 256;

/// The pages a bulk build has finished, on their way to the file behind
/// the pool's back: consecutive page ids are gathered and written with one
/// file write per stretch, through the pager lock only. The pages must
/// come from [`BufferPool::allocate_run`] — the pool caches no frame for
/// them, and none may be read before [`RunWriter::end_run`].
#[must_use = "pages still gathered are lost unless `end_run` writes them"]
pub(crate) struct RunWriter<'p> {
    pool: &'p BufferPool,
    first: PageId,
    images: Vec<u8>,
}

impl<'p> RunWriter<'p> {
    pub(crate) fn new(pool: &'p BufferPool) -> RunWriter<'p> {
        RunWriter {
            pool,
            first: PageId::NONE,
            images: Vec::new(),
        }
    }

    /// Takes the finished image of page `id`.
    pub(crate) fn push(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        let gathered = self.images.len() / PAGE_SIZE;
        let next = u32::try_from(gathered)
            .ok()
            .and_then(|g| self.first.0.checked_add(g));
        if gathered >= RUN_PAGES || next != Some(id.0) {
            self.write()?;
            self.first = id;
        }
        self.images.extend_from_slice(page.as_bytes());
        Ok(())
    }

    /// Writes what is still gathered.
    pub(crate) fn end_run(mut self) -> Result<()> {
        self.write()
    }

    fn write(&mut self) -> Result<()> {
        if !self.images.is_empty() {
            self.pool.write_run(self.first, &self.images)?;
            self.images.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(PathBuf::from(j)).ok();
        p
    }

    #[test]
    fn cached_reads_see_writes() -> Result<()> {
        let pool = BufferPool::new(Pager::create(&tmp("rw.db"))?, 16);
        let id = pool.allocate()?;
        pool.with_page_mut(id, |p| p.put_u64(0, 42))?;
        let got = pool.with_page(id, |p| p.get_u64(0))?;
        assert_eq!(got, 42);
        Ok(())
    }

    #[test]
    fn eviction_flushes_dirty_pages() -> Result<()> {
        let path = tmp("evict.db");
        let pool = BufferPool::new(Pager::create(&path)?, 8);
        // Write through far more pages than the pool holds.
        let ids: Vec<PageId> = (0..50).map(|_| pool.allocate()).collect::<Result<_>>()?;
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u64(0, i as u64))?;
        }
        for (i, &id) in ids.iter().enumerate() {
            let got = pool.with_page(id, |p| p.get_u64(0))?;
            assert_eq!(got, i as u64, "page {id:?}");
        }
        Ok(())
    }

    #[test]
    fn transaction_rollback_through_pool() -> Result<()> {
        let path = tmp("txpool.db");
        let pool = BufferPool::new(Pager::create(&path)?, 8);
        let id = pool.allocate()?;
        pool.with_page_mut(id, |p| p.put_u64(0, 1))?;
        pool.flush()?;

        pool.begin()?;
        pool.with_page_mut(id, |p| p.put_u64(0, 2))?;
        // Force the dirty page to disk (inside the tx) via many allocations.
        for _ in 0..40 {
            pool.allocate()?;
        }
        pool.rollback()?;
        assert_eq!(pool.with_page(id, |p| p.get_u64(0))?, 1);
        assert_eq!(pool.page_count(), 2);
        Ok(())
    }

    #[test]
    fn commit_then_reopen() -> Result<()> {
        let path = tmp("commitpool.db");
        {
            let pool = BufferPool::new(Pager::create(&path)?, 8);
            pool.begin()?;
            let id = pool.allocate()?;
            pool.with_page_mut(id, |p| p.put_u64(8, 0xfeed))?;
            pool.set_meta(3, 33)?;
            pool.commit()?;
        }
        let pool = BufferPool::new(Pager::open(&path)?, 8);
        assert_eq!(pool.meta(3), 33);
        assert_eq!(pool.with_page(PageId(1), |p| p.get_u64(8))?, 0xfeed);
        Ok(())
    }

    #[test]
    fn free_and_reuse_through_pool() -> Result<()> {
        let pool = BufferPool::new(Pager::create(&tmp("freepool.db"))?, 8);
        let a = pool.allocate()?;
        pool.with_page_mut(a, |p| p.put_u64(0, 7))?;
        pool.free(a)?;
        let b = pool.allocate()?;
        assert_eq!(a, b);
        // Fresh allocation must be zeroed, not show stale cache content.
        assert_eq!(pool.with_page(b, |p| p.get_u64(0))?, 0);
        Ok(())
    }

    /// A reader parked inside its `with_page` closure must not block a
    /// second reader — even one targeting the *same shard* (capacity 8
    /// forces a single shard, the strongest version of the claim).
    #[test]
    fn parked_reader_does_not_block_other_readers() -> Result<()> {
        use std::sync::mpsc;
        let pool = BufferPool::new(Pager::create(&tmp("mt.db"))?, 8);
        let a = pool.allocate()?;
        let b = pool.allocate()?;
        pool.with_page_mut(a, |p| p.put_u64(0, 1))?;
        pool.with_page_mut(b, |p| p.put_u64(0, 2))?;

        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let pool = &pool;
        std::thread::scope(|scope| -> Result<()> {
            let parked = scope.spawn(move || {
                pool.with_page(a, |p| {
                    entered_tx.send(()).ok();
                    // Park until the main thread has finished its read.
                    release_rx.recv().ok();
                    p.get_u64(0)
                })
            });
            entered_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .map_err(|_| StoreError::InvalidArgument("first reader never started".into()))?;
            // The first reader is now parked inside its closure. If the
            // closure ran under a pool lock, this read would deadlock.
            assert_eq!(pool.with_page(b, |p| p.get_u64(0))?, 2);
            release_tx.send(()).ok();
            match parked.join() {
                Ok(got) => assert_eq!(got?, 1),
                Err(_) => return Err(StoreError::InvalidArgument("reader panicked".into())),
            }
            Ok(())
        })
    }

    /// Random multi-shard traffic on a capacity-K pool: the pool never
    /// holds more than K frames, and no dirty page is ever evicted without
    /// going through the journal — observable because rollback must restore
    /// every page exactly, which only works if each eviction write-back was
    /// journaled by the pager first.
    #[test]
    fn capacity_and_journal_hold_under_random_access() -> Result<()> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for &capacity in &[8usize, 16, 24, 64] {
            let path = tmp(&format!("prop{capacity}.db"));
            let pool = BufferPool::new(Pager::create(&path)?, capacity);
            let ids: Vec<PageId> = (0..120).map(|_| pool.allocate()).collect::<Result<_>>()?;
            let mut stamp: u64 = 0;
            let mut expect = Vec::new();
            for &id in &ids {
                stamp += 1;
                pool.with_page_mut(id, |p| p.put_u64(0, stamp))?;
                expect.push(stamp);
            }
            pool.flush()?;

            pool.begin()?;
            for round in 0..600 {
                let at = rng.random_range(0..ids.len());
                let (id, want) = match (ids.get(at), expect.get(at)) {
                    (Some(&id), Some(&want)) => (id, want),
                    _ => continue,
                };
                if rng.random_bool(0.5) {
                    stamp += 1;
                    pool.with_page_mut(id, |p| p.put_u64(0, stamp))?;
                } else {
                    // Reads see either the pre-tx value or some in-tx stamp.
                    let got = pool.with_page(id, |p| p.get_u64(0))?;
                    assert!(
                        got == want || got > u64::try_from(ids.len()).unwrap_or(0),
                        "round {round}: page {id:?} read {got}, expected {want} or an in-tx stamp"
                    );
                }
                let resident = pool.resident_pages();
                assert!(
                    resident <= capacity,
                    "capacity {capacity} exceeded: {resident} frames resident"
                );
            }
            pool.rollback()?;
            for (&id, &want) in ids.iter().zip(&expect) {
                assert_eq!(
                    pool.with_page(id, |p| p.get_u64(0))?,
                    want,
                    "rollback lost the journaled image of {id:?} (capacity {capacity})"
                );
            }
        }
        Ok(())
    }
}
