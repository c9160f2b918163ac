//! Rollback journal: atomic multi-page commits and crash recovery.
//!
//! Before a transaction first modifies a page, the page's *original* image
//! is appended to a side file (`<store>-journal`). If the process crashes
//! mid-transaction, the next open finds the hot journal and copies the
//! original images back, truncating the file to its original length — the
//! store is restored to the pre-transaction state. Committing syncs the data
//! file and deletes the journal.
//!
//! All file access goes through the [`crate::vfs`] seam, which is how the
//! crash-enumeration suite (`crates/store/tests/crash.rs`) proves the
//! sync-ordering invariants below at every I/O boundary instead of trusting
//! this comment.
//!
//! Format (all little-endian):
//!
//! ```text
//! header:  magic "PQGJRNL2" | original_page_count u32 | header_crc u32
//! entry*:  page_id u32 | seq u32 | entry_crc u32 | image [PAGE_SIZE]
//! ```
//!
//! `seq` is the zero-based position of the entry in the journal; replay
//! insists on the sequence being exactly 0, 1, 2, …, so a misordered or
//! duplicated block (e.g. from a storage layer reordering writes) can never
//! be applied. `entry_crc` covers page id, seq, and image, so a torn tail
//! write is detected and ignored: a torn entry's data page was never
//! modified (the journal is synced before the first data write of each
//! entry's page), so skipping it is safe. Journals are ephemeral — they
//! never outlive one process generation in a healthy store — so the format
//! bump from `PQGJRNL1` needs no migration: a leftover v1 journal fails the
//! header check and is discarded exactly like any never-hot journal.

use crate::bytes::{le32, sub};
use crate::crc::{crc32, update};
use crate::page::{PageBuf, PageId, PAGE_SIZE, PAGE_SIZE_U64};
use crate::vfs::{len_u64, Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PQGJRNL2";
const HEADER_LEN: usize = 16;
const HEADER_LEN_U64: u64 = 16;
const ENTRY_HEAD: usize = 12;
const ENTRY_LEN: usize = ENTRY_HEAD + PAGE_SIZE;

/// An open, *hot* journal for one transaction.
pub struct Journal {
    file: Box<dyn VfsFile>,
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Pages already journaled in this transaction.
    journaled: std::collections::BTreeSet<u32>,
    /// Sequence number of the next entry.
    next_seq: u32,
    /// Append offset of the next entry.
    end: u64,
    synced: bool,
}

impl Journal {
    /// Path of the journal side file for a store file.
    pub fn path_for(store: &Path) -> PathBuf {
        let mut os = store.as_os_str().to_owned();
        os.push("-journal");
        PathBuf::from(os)
    }

    /// Starts a journal recording `original_page_count`.
    pub fn begin(vfs: Arc<dyn Vfs>, store: &Path, original_page_count: u32) -> io::Result<Journal> {
        let path = Self::path_for(store);
        let mut file = vfs.create_truncate(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&original_page_count.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all_at(0, &header)?;
        Ok(Journal {
            file,
            vfs,
            path,
            journaled: Default::default(),
            next_seq: 0,
            end: HEADER_LEN_U64,
            synced: false,
        })
    }

    /// True if `page` has already been captured in this transaction.
    pub fn contains(&self, page: PageId) -> bool {
        self.journaled.contains(&page.0)
    }

    /// Appends the original image of `page` (one write: head and image
    /// together, so a crash tears at most one entry). Idempotent per
    /// transaction.
    pub fn record(&mut self, page: PageId, image: &PageBuf) -> io::Result<()> {
        if !self.journaled.insert(page.0) {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut entry = Vec::with_capacity(ENTRY_LEN);
        entry.extend_from_slice(&page.0.to_le_bytes());
        entry.extend_from_slice(&seq.to_le_bytes());
        let crc = entry_crc(&entry, image.as_bytes());
        entry.extend_from_slice(&crc.to_le_bytes());
        entry.extend_from_slice(image.as_bytes());
        self.file.write_all_at(self.end, &entry)?;
        self.end += len_u64(entry.len());
        self.synced = false;
        Ok(())
    }

    /// Syncs the journal; must happen before the first data-file write that
    /// overwrites any recorded page.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.synced {
            self.file.sync()?;
            self.synced = true;
        }
        Ok(())
    }

    /// Commits the transaction by deleting the journal (the caller must
    /// have synced the data file first).
    pub fn commit(self) -> io::Result<()> {
        let Journal {
            file, vfs, path, ..
        } = self;
        drop(file);
        vfs.delete(&path)
    }

    /// Rolls the data file back to the recorded images and removes the
    /// journal.
    pub fn rollback(self, data: &mut dyn VfsFile) -> io::Result<()> {
        let Journal {
            file, vfs, path, ..
        } = self;
        drop(file);
        replay(vfs.as_ref(), &path, data)?;
        vfs.delete(&path)
    }
}

/// CRC over an entry's head fields (page id, seq) and page image.
fn entry_crc(head: &[u8], image: &[u8]) -> u32 {
    let state = update(0xffff_ffff, head);
    update(state, image) ^ 0xffff_ffff
}

/// Summary returned by [`validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalCheck {
    /// Page count the store had when the journal was begun.
    pub original_pages: u32,
    /// Number of intact entries.
    pub entries: u32,
}

/// Structural invariant audit of a journal file: header magic and CRC,
/// per-entry CRCs, and the monotone sequence 0, 1, 2, … with no gaps or
/// duplicates. Unlike [`replay`], which silently stops at the first broken
/// entry (by design — that is crash recovery), `validate` reports the
/// precise violation.
// analyze: entrypoint(recovery)
pub fn validate(vfs: &dyn Vfs, journal_path: &Path) -> io::Result<JournalCheck> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut journal = vfs.open(journal_path)?;
    let mut header = [0u8; HEADER_LEN];
    if journal.read_exact_at(0, &mut header).is_err() || sub(&header, 0, 8) != MAGIC.as_slice() {
        return Err(bad("journal header magic mismatch".into()));
    }
    if Some(crc32(sub(&header, 0, 12))) != le32(&header, 12) {
        return Err(bad("journal header checksum mismatch".into()));
    }
    let original_pages = le32(&header, 8).ok_or_else(|| bad("journal header truncated".into()))?;
    let mut entry = vec![0u8; ENTRY_LEN];
    let mut entries = 0u32;
    let mut pos = HEADER_LEN_U64;
    while read_exact_or_eof(journal.as_mut(), pos, &mut entry)? {
        pos += len_u64(entry.len());
        let seq = le32(&entry, 4)
            .ok_or_else(|| bad(format!("journal entry {entries}: truncated head")))?;
        let head_crc = entry_crc(sub(&entry, 0, 8), sub(&entry, ENTRY_HEAD, PAGE_SIZE));
        if Some(head_crc) != le32(&entry, 8) {
            return Err(bad(format!("journal entry {entries}: checksum mismatch")));
        }
        if seq != entries {
            return Err(bad(format!(
                "journal entry {entries}: sequence number {seq}, expected {entries}"
            )));
        }
        entries += 1;
    }
    Ok(JournalCheck {
        original_pages,
        entries,
    })
}

/// Recovers `data` from a hot journal next to `store`, if one exists.
/// Returns `true` if a rollback was performed.
// analyze: entrypoint(recovery)
pub fn recover(vfs: &dyn Vfs, store: &Path, data: &mut dyn VfsFile) -> io::Result<bool> {
    let path = Journal::path_for(store);
    if !vfs.exists(&path) {
        return Ok(false);
    }
    match replay(vfs, &path, data) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // Header invalid: journal never became hot; discard it.
        }
        Err(e) => return Err(e),
    }
    vfs.delete(&path)?;
    Ok(true)
}

/// Copies all valid journal entries back into `data` and truncates it to
/// the original page count. Invalid or out-of-sequence tails are ignored;
/// an invalid header is an `InvalidData` error (the journal never became
/// hot).
// analyze: entrypoint(recovery)
fn replay(vfs: &dyn Vfs, journal_path: &Path, data: &mut dyn VfsFile) -> io::Result<()> {
    let invalid = || io::Error::new(io::ErrorKind::InvalidData, "invalid journal header");
    let mut journal = vfs.open(journal_path)?;
    let mut header = [0u8; HEADER_LEN];
    if journal.read_exact_at(0, &mut header).is_err()
        || sub(&header, 0, 8) != MAGIC.as_slice()
        || Some(crc32(sub(&header, 0, 12))) != le32(&header, 12)
    {
        return Err(invalid());
    }
    let original_pages = le32(&header, 8).ok_or_else(invalid)?;

    let mut entry = vec![0u8; ENTRY_LEN];
    let mut expected_seq = 0u32;
    let mut pos = HEADER_LEN_U64;
    while read_exact_or_eof(journal.as_mut(), pos, &mut entry)? {
        pos += len_u64(entry.len());
        let (Some(page), Some(seq)) = (le32(&entry, 0), le32(&entry, 4)) else {
            break; // unreachable: ENTRY_LEN covers the head
        };
        let image = sub(&entry, ENTRY_HEAD, PAGE_SIZE);
        if Some(entry_crc(sub(&entry, 0, 8), image)) != le32(&entry, 8) {
            break; // torn tail: its data page was never modified
        }
        if seq != expected_seq {
            break; // reordered or duplicated block: refuse to apply
        }
        expected_seq += 1;
        data.write_all_at(PageId(page).offset(), image)?;
    }
    data.truncate(u64::from(original_pages) * PAGE_SIZE_U64)?;
    data.sync()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes at `offset`, or returns `Ok(false)` on
/// clean or torn EOF (partial reads count as torn tail).
fn read_exact_or_eof(f: &mut dyn VfsFile, offset: u64, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            return Ok(true);
        };
        match f.read_at(offset + len_u64(filled), rest)? {
            0 => return Ok(false),
            n => filled += n,
        }
    }
    Ok(true)
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests tear and rewrite journal files behind the engine's back"
)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    fn page_with(byte: u8) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.as_bytes_mut().fill(byte);
        p
    }

    fn write_page(f: &mut dyn VfsFile, id: PageId, p: &PageBuf) -> io::Result<()> {
        f.write_all_at(id.offset(), p.as_bytes())
    }

    fn read_page(f: &mut dyn VfsFile, id: PageId) -> io::Result<PageBuf> {
        let mut page = PageBuf::zeroed();
        f.read_exact_at(id.offset(), page.as_bytes_mut())?;
        Ok(page)
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }

    fn fresh_store(name: &str, pages: u32) -> io::Result<(PathBuf, Box<dyn VfsFile>)> {
        let store = check::scratch_file("journal", name);
        let mut f = RealVfs.create_truncate(&store)?;
        for i in 0..pages {
            write_page(f.as_mut(), PageId(i), &page_with(i as u8))?;
        }
        Ok((store, f))
    }

    #[test]
    fn rollback_restores_images_and_length() -> io::Result<()> {
        let (store, mut f) = fresh_store("rollback.db", 3)?;
        let mut j = Journal::begin(vfs(), &store, 3)?;
        j.record(PageId(1), &read_page(f.as_mut(), PageId(1))?)?;
        j.sync()?;
        write_page(f.as_mut(), PageId(1), &page_with(0xff))?;
        write_page(f.as_mut(), PageId(3), &page_with(0xee))?; // newly appended page
        j.rollback(f.as_mut())?;
        assert_eq!(read_page(f.as_mut(), PageId(1))?, page_with(1));
        assert_eq!(f.size()?, 3 * PAGE_SIZE_U64);
        assert!(!Journal::path_for(&store).exists());
        Ok(())
    }

    #[test]
    fn commit_removes_journal() -> io::Result<()> {
        let (store, mut f) = fresh_store("commit.db", 2)?;
        let mut j = Journal::begin(vfs(), &store, 2)?;
        j.record(PageId(0), &read_page(f.as_mut(), PageId(0))?)?;
        j.sync()?;
        write_page(f.as_mut(), PageId(0), &page_with(0xaa))?;
        f.sync()?;
        j.commit()?;
        assert!(!Journal::path_for(&store).exists());
        assert_eq!(read_page(f.as_mut(), PageId(0))?, page_with(0xaa));
        Ok(())
    }

    #[test]
    fn recover_applies_hot_journal() -> io::Result<()> {
        let (store, mut f) = fresh_store("recover.db", 2)?;
        {
            let mut j = Journal::begin(vfs(), &store, 2)?;
            j.record(PageId(1), &read_page(f.as_mut(), PageId(1))?)?;
            j.sync()?;
            write_page(f.as_mut(), PageId(1), &page_with(0x99))?;
            // Crash: journal dropped without commit/rollback.
            std::mem::forget(j);
        }
        assert!(recover(&RealVfs, &store, f.as_mut())?);
        assert_eq!(read_page(f.as_mut(), PageId(1))?, page_with(1));
        assert!(
            !recover(&RealVfs, &store, f.as_mut())?,
            "journal must be gone"
        );
        Ok(())
    }

    #[test]
    fn recover_ignores_torn_tail() -> io::Result<()> {
        let (store, mut f) = fresh_store("torn.db", 3)?;
        {
            let mut j = Journal::begin(vfs(), &store, 3)?;
            j.record(PageId(1), &read_page(f.as_mut(), PageId(1))?)?;
            j.record(PageId(2), &read_page(f.as_mut(), PageId(2))?)?;
            j.sync()?;
            write_page(f.as_mut(), PageId(1), &page_with(0x77))?;
            std::mem::forget(j);
        }
        // Tear the second entry.
        let jpath = Journal::path_for(&store);
        let len = std::fs::metadata(&jpath)?.len();
        let mut f2 = RealVfs.open(&jpath)?;
        f2.truncate(len - 100)?;
        drop(f2);
        assert!(recover(&RealVfs, &store, f.as_mut())?);
        // First entry applied; torn second entry (page 2 unmodified) skipped.
        assert_eq!(read_page(f.as_mut(), PageId(1))?, page_with(1));
        assert_eq!(read_page(f.as_mut(), PageId(2))?, page_with(2));
        Ok(())
    }

    #[test]
    fn recover_discards_journal_with_bad_header() -> io::Result<()> {
        let (store, mut f) = fresh_store("badheader.db", 2)?;
        std::fs::write(Journal::path_for(&store), b"garbage")?;
        let before = read_page(f.as_mut(), PageId(1))?;
        assert!(recover(&RealVfs, &store, f.as_mut())?);
        assert_eq!(read_page(f.as_mut(), PageId(1))?, before);
        assert!(!Journal::path_for(&store).exists());
        Ok(())
    }

    #[test]
    fn record_is_idempotent_per_page() -> io::Result<()> {
        let (store, mut f) = fresh_store("idem.db", 2)?;
        let mut j = Journal::begin(vfs(), &store, 2)?;
        let img = read_page(f.as_mut(), PageId(1))?;
        j.record(PageId(1), &img)?;
        let len_one = std::fs::metadata(Journal::path_for(&store))?.len();
        j.record(PageId(1), &page_with(0x55))?; // ignored duplicate
        j.sync()?;
        assert_eq!(std::fs::metadata(Journal::path_for(&store))?.len(), len_one);
        write_page(f.as_mut(), PageId(1), &page_with(0x11))?;
        j.rollback(f.as_mut())?;
        assert_eq!(read_page(f.as_mut(), PageId(1))?, img);
        Ok(())
    }

    #[test]
    fn validate_accepts_well_formed_journal() -> io::Result<()> {
        let (store, mut f) = fresh_store("validate-ok.db", 3)?;
        let mut j = Journal::begin(vfs(), &store, 3)?;
        j.record(PageId(1), &read_page(f.as_mut(), PageId(1))?)?;
        j.record(PageId(2), &read_page(f.as_mut(), PageId(2))?)?;
        j.sync()?;
        let check = validate(&RealVfs, &Journal::path_for(&store))?;
        assert_eq!(
            check,
            JournalCheck {
                original_pages: 3,
                entries: 2
            }
        );
        j.rollback(f.as_mut())?;
        Ok(())
    }

    #[test]
    fn replay_refuses_out_of_sequence_entries() -> io::Result<()> {
        let (store, mut f) = fresh_store("seq.db", 3)?;
        {
            let mut j = Journal::begin(vfs(), &store, 3)?;
            j.record(PageId(1), &read_page(f.as_mut(), PageId(1))?)?;
            j.record(PageId(2), &read_page(f.as_mut(), PageId(2))?)?;
            j.sync()?;
            write_page(f.as_mut(), PageId(1), &page_with(0x70))?;
            std::mem::forget(j);
        }
        // Swap the two entries wholesale, simulating storage-level
        // reordering. CRCs stay valid, sequence numbers do not.
        let jpath = Journal::path_for(&store);
        let mut raw = std::fs::read(&jpath)?;
        let (head, body) = raw.split_at_mut(HEADER_LEN);
        let _ = head;
        let (a, b) = body.split_at_mut(ENTRY_LEN);
        a.swap_with_slice(&mut b[..ENTRY_LEN]);
        std::fs::write(&jpath, &raw)?;

        let Err(err) = validate(&RealVfs, &jpath) else {
            panic!("swapped entries must not validate");
        };
        assert!(
            err.to_string().contains("sequence number 1, expected 0"),
            "{err}"
        );
        // Recovery applies nothing (first entry already out of sequence)
        // rather than applying pages in the wrong order.
        assert!(recover(&RealVfs, &store, f.as_mut())?);
        assert_eq!(read_page(f.as_mut(), PageId(2))?, page_with(2));
        Ok(())
    }
}
