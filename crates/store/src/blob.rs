//! Blob storage: arbitrary byte values in chained pages.
//!
//! The document store keeps each document's serialized tree next to its
//! index rows so that edit scripts can be derived and replayed against the
//! stored version. Blobs are keyed by `u64`, stored in a chain of pages,
//! and looked up through a directory B+-tree (`key → first page`), so they
//! share the pager/journal transaction machinery with the index.
//!
//! Chain page layout:
//!
//! ```text
//! 0  next page (PageId, NONE at the tail)
//! 4  payload length in this page (u16)
//! 8  payload …
//! ```

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Result;

const OFF_NEXT: usize = 0;
const OFF_LEN: usize = 4;
const OFF_PAYLOAD: usize = 8;
/// Payload bytes per chain page.
pub const BLOB_PAGE_PAYLOAD: usize = PAGE_SIZE - OFF_PAYLOAD;

/// A blob namespace backed by a directory tree in `meta_slot`.
pub struct BlobStore<'p> {
    pool: &'p BufferPool,
    directory: BTree<'p>,
}

impl<'p> BlobStore<'p> {
    /// Opens (or creates) the blob directory rooted at `meta_slot`.
    pub fn open(pool: &'p BufferPool, meta_slot: usize) -> Result<Self> {
        Ok(BlobStore {
            pool,
            directory: BTree::open(pool, meta_slot)?,
        })
    }

    /// Opens a blob directory that must already exist — the read path's
    /// entry point, which never allocates (see [`BTree::open_existing`]).
    pub fn open_existing(pool: &'p BufferPool, meta_slot: usize) -> Result<Self> {
        Ok(BlobStore {
            pool,
            directory: BTree::open_existing(pool, meta_slot)?,
        })
    }

    /// Stores `data` under `key`, replacing any previous blob.
    pub fn put(&self, key: u64, data: &[u8]) -> Result<()> {
        self.delete(key)?;
        // Write the chain back-to-front so each page knows its successor.
        let mut next = PageId::NONE;
        let chunks: Vec<&[u8]> = data.chunks(BLOB_PAGE_PAYLOAD).collect();
        if chunks.is_empty() {
            // Empty blob: a single empty page marks existence.
            let page = self.pool.allocate()?;
            self.pool.with_page_mut(page, |p| {
                p.put_page_id(OFF_NEXT, PageId::NONE);
                p.put_u16(OFF_LEN, 0);
            })?;
            self.directory.insert((key, 0), page.0)?;
            return Ok(());
        }
        for chunk in chunks.iter().rev() {
            let page = self.pool.allocate()?;
            self.pool.with_page_mut(page, |p| {
                p.put_page_id(OFF_NEXT, next);
                // A chunk holds at most BLOB_PAGE_PAYLOAD < 2^16 bytes.
                p.put_u16(OFF_LEN, u16::try_from(chunk.len()).unwrap_or(u16::MAX));
                p.put_slice(OFF_PAYLOAD, chunk);
            })?;
            next = page;
        }
        self.directory.insert((key, 0), next.0)?;
        Ok(())
    }

    /// Reads the blob stored under `key`.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        let Some(first) = self.directory.get((key, 0))? else {
            return Ok(None);
        };
        let mut out = Vec::new();
        let mut cur = PageId(first);
        while cur != PageId::NONE {
            let next = self.pool.with_page(cur, |p| {
                let len = usize::from(p.get_u16(OFF_LEN));
                out.extend_from_slice(p.slice(OFF_PAYLOAD, len));
                p.get_page_id(OFF_NEXT)
            })?;
            cur = next;
        }
        Ok(Some(out))
    }

    /// Removes the blob under `key`, freeing its pages. Returns `true` if it
    /// existed.
    pub fn delete(&self, key: u64) -> Result<bool> {
        let Some(first) = self.directory.delete((key, 0))? else {
            return Ok(false);
        };
        let mut cur = PageId(first);
        while cur != PageId::NONE {
            let next = self.pool.with_page(cur, |p| p.get_page_id(OFF_NEXT))?;
            self.pool.free(cur)?;
            cur = next;
        }
        Ok(true)
    }

    /// True if a blob exists under `key`.
    pub fn contains(&self, key: u64) -> Result<bool> {
        Ok(self.directory.get((key, 0))?.is_some())
    }

    /// All keys, ascending.
    pub fn keys(&self) -> Result<Vec<u64>> {
        let mut keys = Vec::new();
        self.directory
            .for_each_range((0, 0), (u64::MAX, u64::MAX), |(k, _), _| {
                keys.push(k);
                true
            })?;
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    use crate::pager::Result;

    fn pool(name: &str) -> Result<BufferPool> {
        Ok(BufferPool::new(
            Pager::create(&check::scratch_file("blob", name))?,
            64,
        ))
    }

    #[test]
    fn small_blob_roundtrip() -> Result<()> {
        let pool = pool("small.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        blobs.put(7, b"hello world")?;
        assert_eq!(blobs.get(7)?, Some(b"hello world".to_vec()));
        assert!(blobs.get(8)?.is_none());
        assert!(blobs.contains(7)?);
        Ok(())
    }

    #[test]
    fn empty_blob_is_distinguishable_from_absent() -> Result<()> {
        let pool = pool("empty.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        blobs.put(1, b"")?;
        assert_eq!(blobs.get(1)?, Some(Vec::new()));
        assert!(blobs.contains(1)?);
        assert!(!blobs.contains(2)?);
        Ok(())
    }

    #[test]
    fn multi_page_blob_roundtrip() -> Result<()> {
        let pool = pool("big.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 31 % 251) as u8).collect();
        blobs.put(3, &data)?;
        assert_eq!(blobs.get(3)?, Some(data));
        Ok(())
    }

    #[test]
    fn replace_frees_old_chain() -> Result<()> {
        let pool = pool("replace.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        let big = vec![0xabu8; 30_000];
        blobs.put(1, &big)?;
        let pages_after_big = pool.page_count();
        blobs.put(1, b"tiny")?;
        assert_eq!(blobs.get(1)?, Some(b"tiny".to_vec()));
        // Replacing with another big blob must reuse the freed pages.
        blobs.put(1, &big)?;
        assert_eq!(
            pool.page_count(),
            pages_after_big,
            "chain pages must be recycled"
        );
        assert_eq!(blobs.get(1)?, Some(big));
        Ok(())
    }

    #[test]
    fn delete_removes_and_frees() -> Result<()> {
        let pool = pool("delete.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        blobs.put(5, &vec![1u8; 10_000])?;
        assert!(blobs.delete(5)?);
        assert!(!blobs.delete(5)?);
        assert!(blobs.get(5)?.is_none());
        Ok(())
    }

    #[test]
    fn many_blobs_keys_sorted() -> Result<()> {
        let pool = pool("many.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        for k in [9u64, 2, 55, 13] {
            blobs.put(k, &k.to_le_bytes())?;
        }
        assert_eq!(blobs.keys()?, vec![2, 9, 13, 55]);
        for k in [9u64, 2, 55, 13] {
            assert_eq!(blobs.get(k)?, Some(k.to_le_bytes().to_vec()));
        }
        Ok(())
    }

    #[test]
    fn blobs_participate_in_transactions() -> Result<()> {
        let pool = pool("tx.db")?;
        let blobs = BlobStore::open(&pool, 1)?;
        blobs.put(1, b"committed")?;
        pool.flush()?;
        pool.begin()?;
        blobs.put(1, b"uncommitted")?;
        blobs.put(2, b"new")?;
        pool.rollback()?;
        let blobs = BlobStore::open(&pool, 1)?;
        assert_eq!(blobs.get(1)?, Some(b"committed".to_vec()));
        assert!(blobs.get(2)?.is_none());
        Ok(())
    }
}
