//! The manifest file of a segmented store — the single transactional
//! commit point of the whole engine.
//!
//! Everything else on disk (the main file, every segment) is bulk-built,
//! synced, and immutable; only the manifest mutates, and only inside the
//! pager's rollback-journal transactions. The set of files that *count* is
//! therefore always exactly what one committed manifest state says:
//!
//! * slot [`SLOT_SEGS`] — B+-tree `(seq, 0) → 1`, the live segment list;
//! * the shared header slots of [`crate::ops::create_file`] — the forest's
//!   pq-gram parameters and the manifest kind marker;
//! * slot [`SLOT_GEN`] — the current main-file generation `g`
//!   (`<base>.main.<g>`);
//! * slot [`SLOT_HWM`] — the segment sequence high-water mark: every
//!   sequence number ever handed out is `< hwm`. Sequences are reserved
//!   **durably before** any segment file is created, so a `.seg.<s>` file
//!   with `s ≥ hwm` cannot exist and every on-disk segment not in the live
//!   list is a dead orphan the open-time sweep may delete.
//!
//! A crash at any point therefore recovers to exactly the pre- or
//! post-commit file set: the journal restores the manifest, and the sweep
//! removes files only the losing side referenced.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::ops::KIND_MANIFEST;
use crate::pager::{Result, StoreError};
use crate::vfs::Vfs;
use pqgram_core::PQParams;
use std::path::Path;
use std::sync::Arc;

/// Meta slot of the live-segment list root: `(seq, 0) → 1`.
const SLOT_SEGS: usize = 0;
/// Meta slot of the current main-file generation.
const SLOT_GEN: usize = 3;
/// Meta slot of the segment sequence high-water mark.
const SLOT_HWM: usize = 4;
/// Meta slot of the manifest format version.
const SLOT_VERSION: usize = 6;
/// Current manifest format.
const MANIFEST_VERSION: u64 = 1;

/// The open manifest of one segmented store.
pub(crate) struct Manifest {
    pool: BufferPool,
    params: PQParams,
}

impl Manifest {
    /// Creates a fresh manifest (generation 0, no segments, hwm 0). The
    /// caller builds `<base>.main.0` **before** this, so a committed
    /// manifest always implies its main file exists.
    // analyze: txn-exempt(store bootstrap: writes to a file created in this call that no reader can open yet; a failed create is fatal and the file is discarded)
    pub(crate) fn create(path: &Path, params: PQParams, vfs: Arc<dyn Vfs>) -> Result<Manifest> {
        let pool = crate::ops::create_file(path, vfs, params, KIND_MANIFEST)?;
        pool.set_meta(SLOT_VERSION, MANIFEST_VERSION)?;
        BTree::open(&pool, SLOT_SEGS)?;
        pool.sync()?;
        Ok(Manifest { pool, params })
    }

    /// Opens a manifest, running pager crash recovery first.
    // analyze: entrypoint(recovery)
    pub(crate) fn open(path: &Path, vfs: Arc<dyn Vfs>) -> Result<Manifest> {
        let (pool, params) = crate::ops::open_file(path, vfs, KIND_MANIFEST)?;
        let version = pool.meta(SLOT_VERSION);
        if version != MANIFEST_VERSION {
            return Err(StoreError::Corrupt(format!(
                "manifest format version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        Ok(Manifest { pool, params })
    }

    pub(crate) fn params(&self) -> PQParams {
        self.params
    }

    /// The current main-file generation. Raw manifest state: callers must
    /// not trust it as a loop bound or arithmetic operand unchecked.
    // analyze: untrusted-source
    pub(crate) fn generation(&self) -> u64 {
        self.pool.meta(SLOT_GEN)
    }

    /// The segment sequence high-water mark (first unreserved sequence).
    /// Raw manifest state — see [`generation`](Self::generation).
    // analyze: untrusted-source
    pub(crate) fn hwm(&self) -> u64 {
        self.pool.meta(SLOT_HWM)
    }

    /// Live segment sequence numbers, ascending.
    pub(crate) fn live_segments(&self) -> Result<Vec<u64>> {
        let segs = BTree::open(&self.pool, SLOT_SEGS)?;
        let mut out = Vec::new();
        segs.for_each_range((0, 0), (u64::MAX, u64::MAX), |(s, _), _| {
            out.push(s);
            true
        })?;
        Ok(out)
    }

    /// Durably reserves a fresh segment sequence number. Committed
    /// **before** the segment file is created, upholding the orphan-sweep
    /// invariant (`.seg.<s>` on disk implies `s < hwm`).
    pub(crate) fn reserve_seq(&mut self) -> Result<u64> {
        let seq = self.hwm();
        if seq == u64::MAX {
            return Err(StoreError::InvalidArgument(
                "segment sequence space exhausted".into(),
            ));
        }
        let next = seq + 1;
        self.transactional(|pool| pool.set_meta(SLOT_HWM, next))?;
        Ok(seq)
    }

    /// Commits a freshly built (and already synced) segment into the live
    /// list — the publication point of a memtable flush.
    pub(crate) fn register_segment(&mut self, seq: u64) -> Result<()> {
        self.transactional(|pool| {
            BTree::open(pool, SLOT_SEGS)?.insert((seq, 0), 1)?;
            Ok(())
        })
    }

    /// Commits a compaction: the main file advances to `new_gen` and the
    /// live segment list empties, in one transaction. The caller deletes
    /// the superseded files afterwards (best effort; the open-time sweep
    /// finishes the job after a crash).
    pub(crate) fn commit_compaction(&mut self, new_gen: u64) -> Result<()> {
        let live = self.live_segments()?;
        self.transactional(|pool| {
            pool.set_meta(SLOT_GEN, new_gen)?;
            let segs = BTree::open(pool, SLOT_SEGS)?;
            for &s in &live {
                segs.delete((s, 0))?;
            }
            Ok(())
        })
    }

    // analyze: txn-boundary
    fn transactional(&mut self, f: impl FnOnce(&BufferPool) -> Result<()>) -> Result<()> {
        self.pool.begin()?;
        match f(&self.pool) {
            Ok(()) => {
                self.pool.commit()?;
                #[cfg(debug_assertions)]
                {
                    self.pool.validate_pager()?;
                }
                Ok(())
            }
            Err(e) => {
                self.pool.rollback()?;
                Err(e)
            }
        }
    }
}
