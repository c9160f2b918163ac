//! The page file: header, allocation, free list, transactions.
//!
//! Page 0 is the header:
//!
//! ```text
//! 0   magic "PQGSTORE"
//! 8   format version u32
//! 12  page_count u32           (including the header page)
//! 16  freelist head PageId
//! 20  reserved u32
//! 24  user metadata u64 × 8    (slot 0: B+-tree root, slots 1..: caller's)
//! 88  …zeros…
//! 4092 header crc32 over bytes 0..4092
//! ```
//!
//! Writes inside a transaction go straight to the file; atomicity comes from
//! the [`crate::journal`]: the original image of every page touched by the
//! transaction is journaled (and synced) before its first overwrite. Opening
//! a store with a hot journal rolls the incomplete transaction back.
//!
//! Pages are allocated in runs ([`Pager::allocate_run`]; a single
//! [`Pager::allocate`] is a run of one): one header write and one
//! zero-filling growth of the file per run, after which the header is on
//! disk and every fresh page reads back as zeros — so a bulk builder
//! writes each page it fills exactly once (`Pager::write_run`) and
//! nothing else.
//!
//! All file access is routed through a [`Vfs`] handle. [`Pager::create`] and
//! [`Pager::open`] use the real file system ([`crate::vfs::RealVfs`]);
//! [`Pager::create_with`]/[`Pager::open_with`] accept any implementation —
//! in particular [`crate::vfs::FaultVfs`], which the crash-enumeration suite
//! uses to interrupt a transaction at every single I/O boundary.

use crate::crc::crc32;
use crate::journal::{recover, Journal};
use crate::page::{PageBuf, PageId, PAGE_SIZE, PAGE_SIZE_U64};
use crate::vfs::{RealVfs, Vfs, VfsFile};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PQGSTORE";
const VERSION: u32 = 1;
const OFF_PAGE_COUNT: usize = 12;
const OFF_FREELIST: usize = 16;
const OFF_META: usize = 24;
const OFF_CRC: usize = PAGE_SIZE - 4;

/// Number of `u64` user metadata slots in the header.
///
/// Grew from 8 to 16 for format v3 (the pack fill-page slot). Old headers
/// simply carry zeros in the new slots — the region was always part of the
/// checksummed header page — so the extension is backward compatible.
pub const META_SLOTS: usize = 16;

/// Storage-layer errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural corruption detected (bad magic, checksum, page id…).
    Corrupt(String),
    /// API misuse (e.g. nested transactions).
    InvalidArgument(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// A page file with free-list allocation and journaled transactions.
pub struct Pager {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    header: PageBuf,
    journal: Option<Journal>,
    /// Page count at `begin()`, for new-page journaling decisions.
    tx_original_pages: u32,
}

impl Pager {
    /// Creates a new store file (fails if it already exists).
    pub fn create(path: &Path) -> Result<Pager> {
        Self::create_with(path, Arc::new(RealVfs))
    }

    /// Opens an existing store, running crash recovery if a hot journal is
    /// found.
    pub fn open(path: &Path) -> Result<Pager> {
        Self::open_with(path, Arc::new(RealVfs))
    }

    /// [`Pager::create`] on an explicit [`Vfs`].
    pub fn create_with(path: &Path, vfs: Arc<dyn Vfs>) -> Result<Pager> {
        let file = vfs.create_new(path)?;
        let mut header = PageBuf::zeroed();
        header.put_slice(0, MAGIC);
        header.put_u32(8, VERSION);
        header.put_u32(OFF_PAGE_COUNT, 1);
        header.put_page_id(OFF_FREELIST, PageId::NONE);
        let mut pager = Pager {
            vfs,
            file,
            path: path.to_owned(),
            header,
            journal: None,
            tx_original_pages: 0,
        };
        pager.flush_header()?;
        pager.file.sync()?;
        Ok(pager)
    }

    /// [`Pager::open`] on an explicit [`Vfs`].
    // analyze: entrypoint(recovery)
    pub fn open_with(path: &Path, vfs: Arc<dyn Vfs>) -> Result<Pager> {
        let mut file = vfs.open(path)?;
        recover(vfs.as_ref(), path, file.as_mut())?;
        let mut raw = vec![0u8; PAGE_SIZE];
        file.read_exact_at(0, &mut raw)?;
        let header = PageBuf::from_bytes(&raw);
        if header.slice(0, 8) != MAGIC {
            return Err(StoreError::Corrupt("bad magic".into()));
        }
        if header.get_u32(8) != VERSION {
            return Err(StoreError::Corrupt("unsupported version".into()));
        }
        if crc32(header.slice(0, OFF_CRC)) != header.get_u32(OFF_CRC) {
            return Err(StoreError::Corrupt("header checksum mismatch".into()));
        }
        let pages = header.get_u32(OFF_PAGE_COUNT);
        let expect_len = u64::from(pages) * PAGE_SIZE_U64;
        if file.size()? < expect_len {
            return Err(StoreError::Corrupt("file shorter than page count".into()));
        }
        Ok(Pager {
            vfs,
            file,
            path: path.to_owned(),
            header,
            journal: None,
            tx_original_pages: 0,
        })
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages (including header and free pages).
    pub fn page_count(&self) -> u32 {
        self.header.get_u32(OFF_PAGE_COUNT)
    }

    /// Reads a user metadata slot; out-of-range slots read as zero.
    pub fn meta(&self, slot: usize) -> u64 {
        debug_assert!(slot < META_SLOTS, "meta slot {slot} out of range");
        if slot >= META_SLOTS {
            return 0;
        }
        self.header.get_u64(OFF_META + slot * 8)
    }

    /// Writes a user metadata slot (journaled with the header).
    // analyze: txn-sink
    pub fn set_meta(&mut self, slot: usize, value: u64) -> Result<()> {
        if slot >= META_SLOTS {
            return Err(StoreError::InvalidArgument(format!(
                "meta slot {slot} out of range"
            )));
        }
        self.journal_page(PageId(0))?;
        self.header.put_u64(OFF_META + slot * 8, value);
        self.flush_header()
    }

    /// Reads page `id` from the file.
    pub fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.check_id(id)?;
        if id == PageId(0) {
            return Ok(self.header.clone());
        }
        let mut raw = vec![0u8; PAGE_SIZE];
        self.file.read_exact_at(id.offset(), &mut raw)?;
        Ok(PageBuf::from_bytes(&raw))
    }

    /// Writes page `id`, journaling its original image first when inside a
    /// transaction.
    // analyze: txn-sink
    pub fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.write_run(id, page.as_bytes())
    }

    /// Writes the images of the consecutive pages `first, first + 1, …`
    /// (`images` is a whole number of pages) with one file write. Inside a
    /// transaction the original of every page in the run is journaled and
    /// the journal synced — once for the run — before the write.
    // analyze: txn-sink
    pub(crate) fn write_run(&mut self, first: PageId, images: &[u8]) -> Result<()> {
        if images.is_empty() || !images.len().is_multiple_of(PAGE_SIZE) {
            return Err(StoreError::InvalidArgument(
                "a run is a whole number of pages".into(),
            ));
        }
        let pages = u32::try_from(images.len() / PAGE_SIZE).unwrap_or(u32::MAX);
        if first == PageId(0) {
            return Err(StoreError::InvalidArgument(
                "header is written via set_meta".into(),
            ));
        }
        self.check_id(first)?;
        self.check_id(PageId(first.0.saturating_add(pages - 1)))?;
        self.journal_pages((first.0..first.0.saturating_add(pages)).map(PageId))?;
        self.file.write_all_at(first.offset(), images)?;
        Ok(())
    }

    /// Records the original image of every page of `ids` the open
    /// transaction has not captured yet, then syncs the journal once: from
    /// here on those pages may be overwritten without another journal
    /// sync. A no-op outside a transaction.
    pub(crate) fn journal_pages(&mut self, ids: impl IntoIterator<Item = PageId>) -> Result<()> {
        for id in ids {
            self.journal_page(id)?;
        }
        if let Some(j) = &mut self.journal {
            j.sync()?;
        }
        Ok(())
    }

    /// Allocates a page (reusing the free list when possible).
    // analyze: txn-sink
    pub fn allocate(&mut self) -> Result<PageId> {
        self.allocate_run(1)?
            .pop()
            .ok_or_else(|| StoreError::Corrupt("allocate_run(1) returned no page".into()))
    }

    /// Allocates `n` pages with one header write: free-list pages first
    /// (exactly the ids `n` calls of [`Pager::allocate`] would return, in
    /// that order), the rest by one zero-filling growth of the file. When
    /// this returns the header is on disk and every page taken from the end
    /// of the file reads back as zeros, so a caller may write only the
    /// pages it fills. Inside a transaction the header is journaled first,
    /// as for any other header change.
    // analyze: txn-sink
    pub fn allocate_run(&mut self, n: usize) -> Result<Vec<PageId>> {
        let mut ids = Vec::with_capacity(n);
        if n == 0 {
            return Ok(ids);
        }
        let mut head = self.header.get_page_id(OFF_FREELIST);
        while head != PageId::NONE && ids.len() < n {
            ids.push(head);
            head = self.read_page(head)?.get_page_id(0);
        }
        let old_count = self.page_count();
        let new_count = u32::try_from(n - ids.len())
            .ok()
            .and_then(|grow| old_count.checked_add(grow))
            .filter(|&count| count < PageId::NONE.0)
            .ok_or_else(|| StoreError::InvalidArgument("page id space exhausted".into()))?;
        if new_count > old_count {
            // `open` tolerates a file longer than its page count; cut such
            // a tail off first so it cannot leak into the new pages.
            let old_len = PageId(old_count).offset();
            if self.file.size()? > old_len {
                self.file.truncate(old_len)?;
            }
            self.file.truncate(PageId(new_count).offset())?;
        }
        self.journal_page(PageId(0))?;
        self.header.put_page_id(OFF_FREELIST, head);
        self.header.put_u32(OFF_PAGE_COUNT, new_count);
        self.flush_header()?;
        ids.extend((old_count..new_count).map(PageId));
        Ok(ids)
    }

    /// Returns a page to the free list.
    // analyze: txn-sink
    pub fn free(&mut self, id: PageId) -> Result<()> {
        self.check_id(id)?;
        if id == PageId(0) {
            return Err(StoreError::InvalidArgument("cannot free the header".into()));
        }
        let mut page = PageBuf::zeroed();
        page.put_page_id(0, self.header.get_page_id(OFF_FREELIST));
        self.write_page(id, &page)?;
        self.journal_page(PageId(0))?;
        self.header.put_page_id(OFF_FREELIST, id);
        self.flush_header()
    }

    /// Starts a transaction.
    // analyze: txn-boundary
    pub fn begin(&mut self) -> Result<()> {
        if self.journal.is_some() {
            return Err(StoreError::InvalidArgument(
                "transaction already open".into(),
            ));
        }
        self.tx_original_pages = self.page_count();
        self.journal = Some(Journal::begin(
            Arc::clone(&self.vfs),
            &self.path,
            self.tx_original_pages,
        )?);
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.journal.is_some()
    }

    /// Commits: syncs the data file, then retires the journal.
    ///
    /// The data sync happens *before* the journal handle is taken: if the
    /// sync fails, the transaction stays open and [`Pager::rollback`] still
    /// works — a failed commit surfaces as an `Err` and never silently
    /// drops the journal.
    pub fn commit(&mut self) -> Result<()> {
        if self.journal.is_none() {
            return Err(StoreError::InvalidArgument("no open transaction".into()));
        }
        self.file.sync()?;
        if let Some(journal) = self.journal.take() {
            journal.commit()?;
        }
        Ok(())
    }

    /// Rolls the open transaction back to its start state.
    pub fn rollback(&mut self) -> Result<()> {
        let Some(journal) = self.journal.take() else {
            return Err(StoreError::InvalidArgument("no open transaction".into()));
        };
        journal.rollback(self.file.as_mut())?;
        // Reload the (possibly restored) header.
        let mut raw = vec![0u8; PAGE_SIZE];
        self.file.read_exact_at(0, &mut raw)?;
        self.header = PageBuf::from_bytes(&raw);
        Ok(())
    }

    /// Forces everything written so far down to durable storage without
    /// transaction semantics. Bootstrap bulk loads run outside any journal;
    /// they need this barrier before another file is allowed to reference
    /// the one being built.
    pub fn sync_file(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }

    /// Structural invariant audit of the page file.
    ///
    /// Checks that the header's page count is covered by the file length and
    /// that the free list is in-bounds, acyclic, and never contains the
    /// header page. Returns the free-list length on success. Cost is
    /// O(free pages); callers run it from tests and debug assertions, not on
    /// the hot path.
    pub fn validate(&mut self) -> Result<u32> {
        let pages = self.page_count();
        let file_len = self.file.size()?;
        let need = u64::from(pages) * PAGE_SIZE_U64;
        if file_len < need {
            return Err(StoreError::Corrupt(format!(
                "file length {file_len} below {pages} pages ({need} bytes)"
            )));
        }
        let mut seen = vec![false; PageId(pages).index()];
        let mut cursor = self.header.get_page_id(OFF_FREELIST);
        let mut free = 0u32;
        while cursor != PageId::NONE {
            if cursor == PageId(0) {
                return Err(StoreError::Corrupt(
                    "free list contains the header page".into(),
                ));
            }
            if cursor.0 >= pages {
                return Err(StoreError::Corrupt(format!(
                    "free list page {cursor:?} out of range ({pages} pages)"
                )));
            }
            if seen.get(cursor.index()).copied().unwrap_or(false) {
                return Err(StoreError::Corrupt(format!(
                    "free list cycle at {cursor:?}"
                )));
            }
            if let Some(slot) = seen.get_mut(cursor.index()) {
                *slot = true;
            }
            free += 1;
            cursor = self.read_page(cursor)?.get_page_id(0);
        }
        Ok(free)
    }

    fn journal_page(&mut self, id: PageId) -> Result<()> {
        let in_tx_scope = self
            .journal
            .as_ref()
            .is_some_and(|j| id.0 < self.tx_original_pages && !j.contains(id));
        if !in_tx_scope {
            return Ok(());
        }
        let original = if id == PageId(0) {
            // The in-memory header may already differ from disk within
            // earlier (committed) operations, but at this point disk and
            // memory agree because every mutation flushes; journal the
            // current image.
            self.header.clone()
        } else {
            let mut raw = vec![0u8; PAGE_SIZE];
            self.file.read_exact_at(id.offset(), &mut raw)?;
            PageBuf::from_bytes(&raw)
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.record(id, &original)?;
        }
        Ok(())
    }

    fn flush_header(&mut self) -> Result<()> {
        if let Some(j) = &mut self.journal {
            j.sync()?;
        }
        let crc = crc32(self.header.slice(0, OFF_CRC));
        self.header.put_u32(OFF_CRC, crc);
        self.file.write_all_at(0, self.header.as_bytes())?;
        Ok(())
    }

    fn check_id(&self, id: PageId) -> Result<()> {
        if id == PageId::NONE || id.0 >= self.page_count() {
            return Err(StoreError::Corrupt(format!(
                "page id {id:?} out of range ({} pages)",
                self.page_count()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(Journal::path_for(&p)).ok();
        p
    }

    fn page_with(b: u8) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.as_bytes_mut().fill(b);
        p
    }

    #[test]
    fn create_open_roundtrip() -> Result<()> {
        let path = tmp("roundtrip.db");
        {
            let mut pager = Pager::create(&path)?;
            let id = pager.allocate()?;
            pager.write_page(id, &page_with(0x42))?;
            pager.set_meta(1, 777)?;
        }
        let mut pager = Pager::open(&path)?;
        assert_eq!(pager.page_count(), 2);
        assert_eq!(pager.meta(1), 777);
        assert_eq!(pager.read_page(PageId(1))?, page_with(0x42));
        Ok(())
    }

    #[test]
    fn create_refuses_existing() -> Result<()> {
        let path = tmp("exists.db");
        Pager::create(&path)?;
        assert!(Pager::create(&path).is_err());
        Ok(())
    }

    #[test]
    fn free_list_reuses_pages() -> Result<()> {
        let path = tmp("freelist.db");
        let mut pager = Pager::create(&path)?;
        let a = pager.allocate()?;
        let b = pager.allocate()?;
        assert_ne!(a, b);
        pager.free(a)?;
        let c = pager.allocate()?;
        assert_eq!(c, a, "freed page must be reused");
        assert_eq!(pager.page_count(), 3);
        pager.free(b)?;
        pager.free(c)?;
        let d = pager.allocate()?;
        let e = pager.allocate()?;
        assert_eq!((d, e), (c, b), "LIFO free list");
        Ok(())
    }

    /// `allocate_run(n)` hands out exactly what `n` calls of `allocate`
    /// would: the free list first, LIFO, then fresh pages off the end.
    #[test]
    fn allocate_run_returns_the_ids_of_repeated_allocate() -> Result<()> {
        let prepare = |name: &str| -> Result<Pager> {
            let mut pager = Pager::create(&tmp(name))?;
            let ids: Vec<PageId> = (0..4).map(|_| pager.allocate()).collect::<Result<_>>()?;
            pager.free(ids[1])?;
            pager.free(ids[3])?;
            Ok(pager)
        };
        let mut one_by_one = prepare("run-single.db")?;
        let mut in_a_run = prepare("run-batch.db")?;
        let want: Vec<PageId> = (0..5)
            .map(|_| one_by_one.allocate())
            .collect::<Result<_>>()?;
        let got = in_a_run.allocate_run(5)?;
        assert_eq!(got, want);
        assert_eq!(got, [4, 2, 5, 6, 7].map(PageId), "free list first, LIFO");
        assert_eq!(in_a_run.page_count(), one_by_one.page_count());
        assert_eq!(in_a_run.validate()?, 0, "the free list is used up");
        assert!(in_a_run.allocate_run(0)?.is_empty());
        assert_eq!(in_a_run.page_count(), 8);
        Ok(())
    }

    /// The contract bulk builders rely on: when `allocate_run` returns,
    /// the header is on disk (no sync needed for a reopen to see the
    /// pages) and the fresh pages read back as zeros, even over a stale
    /// tail the file carried beyond its page count.
    #[test]
    fn allocated_runs_read_as_zeros_and_survive_reopen() -> Result<()> {
        let path = tmp("run-zeros.db");
        {
            let mut pager = Pager::create(&path)?;
            pager.allocate()?;
            // A stale tail past the page count, as `open` tolerates.
            let mut f = OpenOptions::new().append(true).open(&path)?;
            std::io::Write::write_all(&mut f, &[0xee; 100])?;
            drop(f);
            let ids = pager.allocate_run(300)?;
            assert_eq!(ids.first(), Some(&PageId(2)));
            assert_eq!(ids.last(), Some(&PageId(301)));
            for &id in &ids {
                assert_eq!(pager.read_page(id)?, PageBuf::zeroed(), "{id:?}");
            }
            pager.write_run(PageId(3), &[page_with(7).as_bytes().as_slice(); 2].concat())?;
        }
        let mut pager = Pager::open(&path)?;
        assert_eq!(pager.page_count(), 302);
        assert_eq!(pager.read_page(PageId(2))?, PageBuf::zeroed());
        assert_eq!(pager.read_page(PageId(3))?, page_with(7));
        assert_eq!(pager.read_page(PageId(4))?, page_with(7));
        assert_eq!(pager.read_page(PageId(5))?, PageBuf::zeroed());
        assert_eq!(pager.validate()?, 0);
        Ok(())
    }

    #[test]
    fn write_run_rejects_what_is_not_a_run_of_allocated_pages() -> Result<()> {
        let mut pager = Pager::create(&tmp("run-reject.db"))?;
        pager.allocate_run(2)?;
        let page = page_with(1);
        let two = [page.as_bytes().as_slice(); 2].concat();
        assert!(pager.write_run(PageId(1), &[]).is_err());
        assert!(pager.write_run(PageId(1), &two[..PAGE_SIZE + 1]).is_err());
        assert!(
            pager.write_run(PageId(0), &two).is_err(),
            "never the header"
        );
        assert!(
            pager.write_run(PageId(2), &two).is_err(),
            "past the last page"
        );
        pager.write_run(PageId(1), &two)?;
        assert_eq!(pager.read_page(PageId(2))?, page);
        Ok(())
    }

    /// A run inside a transaction — free-list pages journaled before their
    /// overwrite, fresh ones cut off again — rolls back without a trace.
    #[test]
    fn rolled_back_run_leaves_the_page_count_where_it_started() -> Result<()> {
        let mut pager = Pager::create(&tmp("run-rollback.db"))?;
        let ids = pager.allocate_run(3)?;
        pager.write_page(ids[0], &page_with(1))?;
        pager.free(ids[1])?;
        let link = pager.read_page(ids[1])?;

        pager.begin()?;
        let run = pager.allocate_run(40)?;
        assert_eq!(run[0], ids[1], "the freed page leads the run");
        assert_eq!(pager.page_count(), 43);
        pager.write_run(run[0], page_with(9).as_bytes())?;
        let fresh: Vec<u8> = (0..39).flat_map(|_| *page_with(8).as_bytes()).collect();
        pager.write_run(run[1], &fresh)?;
        pager.rollback()?;

        assert_eq!(pager.page_count(), 4);
        assert_eq!(pager.validate()?, 1, "the freed page is free again");
        assert_eq!(pager.read_page(ids[0])?, page_with(1));
        assert_eq!(pager.read_page(ids[1])?, link);
        assert_eq!(pager.allocate_run(2)?, vec![ids[1], PageId(4)]);
        Ok(())
    }

    #[test]
    fn rollback_undoes_everything() -> Result<()> {
        let path = tmp("tx-rollback.db");
        let mut pager = Pager::create(&path)?;
        let id = pager.allocate()?;
        pager.write_page(id, &page_with(1))?;
        pager.set_meta(0, 10)?;

        pager.begin()?;
        pager.write_page(id, &page_with(2))?;
        let extra = pager.allocate()?;
        pager.write_page(extra, &page_with(3))?;
        pager.set_meta(0, 20)?;
        pager.rollback()?;

        assert_eq!(pager.read_page(id)?, page_with(1));
        assert_eq!(pager.meta(0), 10);
        assert_eq!(pager.page_count(), 2);
        // Post-rollback allocation works on the truncated file.
        let again = pager.allocate()?;
        assert_eq!(again, extra);
        Ok(())
    }

    #[test]
    fn commit_persists_across_reopen() -> Result<()> {
        let path = tmp("tx-commit.db");
        {
            let mut pager = Pager::create(&path)?;
            pager.begin()?;
            let id = pager.allocate()?;
            pager.write_page(id, &page_with(9))?;
            pager.set_meta(2, 99)?;
            pager.commit()?;
        }
        let mut pager = Pager::open(&path)?;
        assert_eq!(pager.meta(2), 99);
        assert_eq!(pager.read_page(PageId(1))?, page_with(9));
        Ok(())
    }

    #[test]
    fn crash_mid_transaction_recovers_on_open() -> Result<()> {
        let path = tmp("crash.db");
        {
            let mut pager = Pager::create(&path)?;
            let id = pager.allocate()?;
            pager.write_page(id, &page_with(1))?;
            pager.set_meta(0, 5)?;
            pager.begin()?;
            pager.write_page(id, &page_with(0xbb))?;
            pager.set_meta(0, 6)?;
            let extra = pager.allocate()?;
            pager.write_page(extra, &page_with(0xcc))?;
            // Simulate a crash: leak the journal so no rollback runs.
            std::mem::forget(pager);
        }
        let mut pager = Pager::open(&path)?;
        assert_eq!(pager.meta(0), 5, "metadata rolled back");
        assert_eq!(
            pager.read_page(PageId(1))?,
            page_with(1),
            "page rolled back"
        );
        assert_eq!(pager.page_count(), 2, "appended pages truncated");
        Ok(())
    }

    #[test]
    fn nested_transactions_rejected() -> Result<()> {
        let path = tmp("nested.db");
        let mut pager = Pager::create(&path)?;
        pager.begin()?;
        assert!(matches!(pager.begin(), Err(StoreError::InvalidArgument(_))));
        pager.commit()?;
        assert!(matches!(
            pager.commit(),
            Err(StoreError::InvalidArgument(_))
        ));
        Ok(())
    }

    #[test]
    fn failed_data_sync_keeps_transaction_open() -> Result<()> {
        use crate::vfs::FaultVfs;
        let path = PathBuf::from("/fault/sync.db");
        let vfs = FaultVfs::new();
        let mut pager = Pager::create_with(&path, Arc::new(vfs.clone()))?;
        let id = pager.allocate()?;
        pager.write_page(id, &page_with(1))?;
        pager.begin()?;
        pager.write_page(id, &page_with(2))?;
        // Syncs so far: 0 create, 1 journal; the commit's data sync is #2.
        vfs.fail_sync(2);
        assert!(matches!(pager.commit(), Err(StoreError::Io(_))));
        assert!(pager.in_transaction(), "failed commit keeps the tx open");
        pager.rollback()?;
        assert_eq!(pager.read_page(id)?, page_with(1));
        Ok(())
    }

    #[test]
    fn out_of_range_page_rejected() -> Result<()> {
        let path = tmp("range.db");
        let mut pager = Pager::create(&path)?;
        assert!(matches!(
            pager.read_page(PageId(5)),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            pager.read_page(PageId::NONE),
            Err(StoreError::Corrupt(_))
        ));
        Ok(())
    }

    #[test]
    fn corrupt_header_detected() -> Result<()> {
        let path = tmp("corrupt.db");
        Pager::create(&path)?;
        // Flip a byte inside the checksummed region.
        let mut data = std::fs::read(&path)?;
        data[20] ^= 0xff;
        std::fs::write(&path, &data)?;
        assert!(matches!(Pager::open(&path), Err(StoreError::Corrupt(_))));
        Ok(())
    }

    /// Extracts the corruption message or panics with the actual outcome.
    fn corrupt_message<T: std::fmt::Debug>(r: Result<T>) -> String {
        match r {
            Err(StoreError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn validate_passes_healthy_file_and_counts_free_pages() -> Result<()> {
        let path = tmp("validate-ok.db");
        let mut pager = Pager::create(&path)?;
        let a = pager.allocate()?;
        let b = pager.allocate()?;
        pager.allocate()?;
        assert_eq!(pager.validate()?, 0);
        pager.free(a)?;
        pager.free(b)?;
        assert_eq!(pager.validate()?, 2);
        Ok(())
    }

    #[test]
    fn validate_reports_free_list_cycle() -> Result<()> {
        let path = tmp("validate-cycle.db");
        let mut pager = Pager::create(&path)?;
        let a = pager.allocate()?;
        let b = pager.allocate()?;
        pager.free(a)?;
        pager.free(b)?; // list: b -> a -> NONE
                        // Point a's next pointer back at b: b -> a -> b.
        let mut page = pager.read_page(a)?;
        page.put_page_id(0, b);
        pager.write_page(a, &page)?;
        let msg = corrupt_message(pager.validate());
        assert!(msg.contains("free list cycle"), "{msg}");
        Ok(())
    }

    #[test]
    fn validate_reports_header_in_free_list() -> Result<()> {
        let path = tmp("validate-header.db");
        let mut pager = Pager::create(&path)?;
        let a = pager.allocate()?;
        pager.free(a)?;
        let mut page = pager.read_page(a)?;
        page.put_page_id(0, PageId(0));
        pager.write_page(a, &page)?;
        let msg = corrupt_message(pager.validate());
        assert!(msg.contains("free list contains the header page"), "{msg}");
        Ok(())
    }

    #[test]
    fn validate_reports_out_of_range_free_page() -> Result<()> {
        let path = tmp("validate-range.db");
        let mut pager = Pager::create(&path)?;
        let a = pager.allocate()?;
        pager.free(a)?;
        let mut page = pager.read_page(a)?;
        page.put_page_id(0, PageId(999));
        pager.write_page(a, &page)?;
        let msg = corrupt_message(pager.validate());
        assert!(msg.contains("out of range"), "{msg}");
        Ok(())
    }

    #[test]
    fn validate_reports_truncated_file() -> Result<()> {
        let path = tmp("validate-trunc.db");
        let mut pager = Pager::create(&path)?;
        pager.allocate()?;
        // Shear the tail off behind the pager's back.
        let f = OpenOptions::new().write(true).open(&path)?;
        f.set_len(PAGE_SIZE_U64 + 7)?;
        drop(f);
        let msg = corrupt_message(pager.validate());
        assert!(msg.contains("below"), "{msg}");
        Ok(())
    }
}
