#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Persistent storage for the pq-gram index.
//!
//! The paper stores the index of a forest as a relation `(treeId, pqg, cnt)`
//! in an RDBMS and stresses that the index is *persistent* — lookups and
//! incremental updates run against stored data, never against freshly
//! extracted pq-grams. This crate supplies that substrate as a small,
//! self-contained storage engine:
//!
//! * [`crc`] — CRC-32 checksums (from scratch);
//! * [`page`] — 4 KiB page abstraction with typed little-endian accessors;
//! * [`pager`] — a page file with a header page and a free list;
//! * [`journal`] — a rollback journal giving atomic multi-page commits
//!   (crash recovery restores the pre-transaction images);
//! * [`buffer`] — a clock-eviction buffer pool over the pager;
//! * [`btree`] — a B+-tree with fixed-width `(tree_id, gram)` keys and `u32`
//!   counts, leaf-chained for range scans;
//! * [`mod@ops`] — the relation layer every store shares: the paper's
//!   forward relation `(treeId, pqg, cnt)`, inverted postings `(pqg,
//!   treeId, cnt)` and per-tree totals, maintained together in every
//!   transaction, with a candidate-merge lookup plan; a file holding them,
//!   opened with its resident mirrors, is one private type (`segment.rs`);
//! * [`index_store`] — the persistent forest index: per-tree pq-gram bags,
//!   approximate lookups and transactional application of incremental
//!   update deltas ([`pqgram_core::maintain::IndexDelta`]);
//! * [`segmented`] — the segmented ingest path over the same relation
//!   format: an in-memory memtable flushes into immutable sorted segment
//!   files under one journal-protected manifest, background compaction
//!   folds segments back into the main file, and lookups candidate-merge
//!   across all live sources with results bit-identical to a single-file
//!   store;
//! * [`vfs`] — the file-system seam: [`vfs::RealVfs`] passes through to
//!   `std::fs`, [`vfs::FaultVfs`] deterministically injects crashes and
//!   I/O errors so the crash-recovery invariants above are tested at every
//!   single I/O boundary, not just at hand-picked points.
//!
//! # Quick example
//!
//! ```
//! use pqgram_core::{build_index, PQParams, TreeId};
//! use pqgram_store::index_store::IndexStore;
//! use pqgram_tree::{LabelTable, Tree};
//!
//! let dir = std::env::temp_dir().join(format!("pqgram-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("forest.pqg");
//!
//! let mut labels = LabelTable::new();
//! let mut tree = Tree::with_root(labels.intern("a"));
//! tree.add_child(tree.root(), labels.intern("b"));
//! let params = PQParams::default();
//!
//! let mut store = IndexStore::create(&path, params).unwrap();
//! store.put_tree(TreeId(1), &build_index(&tree, &labels, params)).unwrap();
//! drop(store);
//!
//! // Reopen: the index is still there.
//! let store = IndexStore::open(&path).unwrap();
//! let back = store.tree_index(TreeId(1)).unwrap().unwrap();
//! assert_eq!(back.total(), build_index(&tree, &labels, params).total());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod blob;
pub mod btree;
pub mod buffer;
mod bytes;
pub mod crc;
pub mod document;
mod fence;
mod filter;
pub mod index_store;
pub mod journal;
mod manifest;
mod memtable;
pub mod ops;
pub mod page;
pub mod pager;
mod postings;
mod segment;
pub mod segmented;
mod sync;
pub mod vfs;

/// Structure-aware fuzzing hooks over the internal decode entry points.
///
/// Hidden from docs and exempt from any stability promise: this exists so
/// the out-of-crate byte-mutator harness (`tests/decode_fuzz.rs`) can
/// drive `pub(crate)` decoders — posting-block decode, fence
/// construction/probe — directly, without widening the real API. Never
/// call this from production code.
#[doc(hidden)]
pub mod fuzz {
    use crate::pager::Result;
    use crate::postings;

    /// Upper bound on rows per posting block (mirrors the internal cap).
    pub const MAX_BLOCK_ROWS: usize = postings::MAX_BLOCK_ROWS;

    /// Encodes sorted `((gram, treeId), count)` rows into one block entry
    /// (used to build seed corpora, not to fuzz the encoder).
    pub fn encode_block(rows: &[((u64, u64), u32)]) -> Result<Vec<u8>> {
        postings::encode_block(rows)
    }

    /// Full posting-block decode. The contract under fuzzing: any byte
    /// string returns `Ok` or `Err(Corrupt)` — never a panic, hang, or
    /// allocation beyond the structural caps.
    pub fn decode_block(bytes: &[u8]) -> Result<Vec<((u64, u64), u32)>> {
        postings::decode_block(bytes).map(|d| d.rows)
    }

    /// The probe path's decode of one gram out of an encoded block entry:
    /// the entry is laid out on a pack page, the page validated the way a
    /// buffer-resident one is, and the gram's `(treeId, count)` rows
    /// decoded in place (`Arc<PageBuf>` + parsed layout, no copy). Same
    /// contract under fuzzing as [`decode_block`], and whenever that one
    /// decodes the entry the rows must agree.
    pub fn decode_gram_in_place(bytes: &[u8], gram: u64) -> Result<Vec<(u64, u32)>> {
        postings::decode_gram_in_place(bytes, gram)
    }

    /// Gram-filter page layout constants for field-targeted mutation and
    /// CRC repair in the fuzz harness (`crate::filter` documents the
    /// format; these mirror its internal offsets).
    pub mod filter_layout {
        /// Trailing CRC-32 offset on the filter header page.
        pub const OFF_HEADER_CRC: usize = crate::filter::OFF_HEADER_CRC;
        /// Payload CRC-32 offset on data / indirect pages.
        pub const OFF_PAGE_CRC: usize = crate::filter::OFF_PAGE_CRC;
        /// Payload start on data / indirect pages.
        pub const OFF_PAYLOAD: usize = crate::filter::OFF_PAYLOAD;
        /// Payload bytes covered by a data page's CRC.
        pub const DATA_PAYLOAD: usize = crate::filter::DATA_PAYLOAD;
    }

    /// Byte offsets of the gram-filter pages (header page first, then data
    /// pages, then indirect pages) inside the single-file store at `path`;
    /// empty when no valid filter is installed. For aiming on-disk
    /// mutations at the filter decoder.
    pub fn filter_page_offsets(path: &std::path::Path) -> Result<Vec<u64>> {
        let pool = crate::buffer::BufferPool::new(crate::pager::Pager::open(path)?, 16);
        let ids = crate::filter::page_ids(&pool)?.unwrap_or_default();
        let page = u64::try_from(crate::page::PAGE_SIZE).unwrap_or(0);
        Ok(ids.iter().map(|id| u64::from(id.0) * page).collect())
    }

    /// Runs the gram-filter loader against the store file at `path`:
    /// `Ok(true)` means a filter loaded, `Ok(false)` that it was rejected
    /// (the filter is advisory, so rejection is a clean outcome). The
    /// contract under fuzzing: any on-disk bytes return `Ok` or `Err` —
    /// never a panic, hang, or allocation beyond the structural caps.
    pub fn filter_load(path: &std::path::Path) -> Result<bool> {
        let pool = crate::buffer::BufferPool::new(crate::pager::Pager::open(path)?, 16);
        Ok(crate::filter::load(&pool)?.is_some())
    }

    /// The stages of a lookup's probe phase over one single-file store,
    /// callable one at a time — for the `probe_pipeline` bench group
    /// (`crates/bench/benches/components.rs`).
    pub struct ProbeStages {
        pool: crate::buffer::BufferPool,
        fence: crate::fence::Fence,
    }

    impl ProbeStages {
        /// Opens the store file at `path` behind a default-sized pool and
        /// mirrors its inverted directory into a fence.
        pub fn open(path: &std::path::Path) -> Result<ProbeStages> {
            let pool = crate::buffer::BufferPool::new(
                crate::pager::Pager::open(path)?,
                crate::buffer::DEFAULT_CAPACITY,
            );
            let dir = crate::btree::BTree::open_existing(&pool, crate::ops::SLOT_INV)?;
            let fence = crate::fence::Fence::build(&dir)?;
            Ok(ProbeStages { pool, fence })
        }

        /// One forward-cursor directory visit per gram (ascending) —
        /// through the fence when `fenced`, else down the B+-tree —
        /// returning the visited rows.
        pub fn visit(&self, grams: &[u64], fenced: bool) -> Result<Vec<postings::DirRow>> {
            let fence = fenced.then_some(&self.fence);
            let mut dir = postings::DirCursor::open(&self.pool, fence)?;
            let mut rows = Vec::new();
            for &g in grams {
                dir.visit(g, &mut rows)?;
            }
            Ok(rows)
        }

        /// Fetches every posting block among `rows` (validated pin, entry
        /// lookup, layout parse) and returns how many there were: each
        /// straight from the pool, or — `memo` — through one probe's
        /// block memo, where a block on the page the memo already holds
        /// re-uses that page.
        pub fn fetch_blocks(&self, rows: &[postings::DirRow], memo: bool) -> Result<u64> {
            if memo {
                // No block holds gram 0, so every one is fetched into the
                // memo, ruled out by its header and counted skipped.
                let mut counters = postings::ProbeCounters::default();
                postings::for_each_posting(
                    &self.pool,
                    rows,
                    0,
                    &mut postings::BlockCache::default(),
                    &mut counters,
                    &mut |_, _| (),
                )?;
                return Ok(counters.blocks_skipped + counters.blocks_decoded);
            }
            let mut blocks = 0;
            for &(key, raw) in rows {
                if let postings::DirValue::Block(page) = postings::dir_value(raw) {
                    postings::fetch_block(&self.pool, page, key)?;
                    blocks += 1;
                }
            }
            Ok(blocks)
        }

        /// Probes `grams` (ascending) the way a lookup's probe phase does
        /// — one fenced directory visit each, the postings decoded in
        /// place through one block memo — and returns the rows decoded
        /// with a checksum of them.
        pub fn probe(&self, grams: &[u64]) -> Result<(u64, u64)> {
            let mut dir = postings::DirCursor::open(&self.pool, Some(&self.fence))?;
            let mut cache = postings::BlockCache::default();
            let mut counters = postings::ProbeCounters::default();
            let (mut rows, mut sum) = (Vec::new(), 0u64);
            for &gram in grams {
                rows.clear();
                dir.visit(gram, &mut rows)?;
                let mut fold = |t: u64, c: u32| sum = sum.wrapping_add(t ^ u64::from(c));
                postings::for_each_posting(
                    &self.pool,
                    &rows,
                    gram,
                    &mut cache,
                    &mut counters,
                    &mut fold,
                )?;
            }
            Ok((counters.rows, sum))
        }
    }

    /// The probe phase's per-row merge step over already-decoded
    /// `(treeId, count)` rows; returns the number of candidates.
    pub fn merge_rows(rows: &[(u64, u32)]) -> usize {
        let skip = pqgram_tree::FxHashSet::default();
        let totals = crate::ops::TotalsView::empty();
        let mut merge = crate::ops::Merge::new(&skip, &totals, (0, u64::MAX));
        for &(t, c) in rows {
            merge.emit(1, t, c);
        }
        merge.live
    }

    /// The reference lookup: one ordered scan of the forward relation of
    /// `store` computing the distance of `query` to every stored tree,
    /// whatever `tau` — the version-1 plan, kept as the oracle the planned
    /// lookup is compared with in tests and benchmarks.
    pub fn lookup_exhaustive_with_stats(
        store: &crate::IndexStore,
        query: &pqgram_core::TreeIndex,
        tau: f64,
    ) -> Result<(Vec<pqgram_core::LookupHit>, crate::LookupStats)> {
        crate::ops::check_params(query.params(), store.params())?;
        crate::ops::lookup_scan_with_stats(store.source().pool(), query, tau)
    }

    /// A fence built over a sorted gram column (treeIds and inline values
    /// synthesised), probed via [`Fence::locate`].
    pub struct Fence(crate::fence::Fence);

    impl Fence {
        pub fn over_grams(grams: Vec<u64>) -> Fence {
            let n = grams.len();
            let tids = (0..u64::try_from(n).unwrap_or(0)).collect();
            let vals = vec![postings::INLINE_BIT | 1; n];
            Fence(crate::fence::Fence::from_rows(grams, tids, vals))
        }

        pub fn locate(&self, gram: u64) -> std::ops::Range<usize> {
            self.0.locate(gram)
        }
    }
}

pub use btree::BTree;
pub use document::DocumentStore;
pub use index_store::{IndexStore, IndexStoreReader};
pub use ops::{
    LookupPhases, LookupPlan, LookupStats, RelationBytes, StoreCheck, MAIN_SOURCE, MEMTABLE_SOURCE,
};
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use pager::{Pager, StoreError};
pub use segmented::{SegmentedIndexStore, SegmentedReader};
pub use vfs::{CrashMode, FaultVfs, RealVfs, Vfs, VfsFile};
