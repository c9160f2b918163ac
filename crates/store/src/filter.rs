//! Per-source gram membership filters: a split-block Bloom filter over the
//! distinct grams of one store file, persisted in dedicated pages under the
//! same journal commit as the relations it summarises.
//!
//! Before a lookup probes a source's posting directory (or fence), it
//! consults the source's filter: query grams whose filter bits are absent
//! provably have no postings here and are never probed, and a source
//! containing *none* of the query's grams is skipped without touching its
//! relations at all. The filter is strictly **advisory** — every answer a
//! lookup produces is re-derived from the relations, so a false positive
//! only costs an empty probe and a dropped (or absent, or corrupt) filter
//! only costs un-skipped work. What must hold is the *superset invariant*:
//! a filter that loads successfully contains every distinct gram of the
//! forward relation; [`crate::ops::verify_relations`] audits exactly that,
//! which puts filter maintenance under the same crash-enumeration
//! microscope as the relations themselves.
//!
//! # Shape
//!
//! A split-block Bloom filter ([Putze, Sanders, Singler 2007]; the same
//! shape MSQ-Index uses per partition): ~[`BITS_PER_GRAM`] bits per
//! expected gram, rounded up to 512-bit blocks of eight 64-bit words. A
//! gram hashes (splitmix64, multiply-shift range reduction) to one block
//! and sets one bit per word — eight probes, all inside one cache line
//! in RAM and always inside one page on disk.
//!
//! # On-disk layout
//!
//! Meta slot [`SLOT_FILTER`] holds the header page id (0 = no filter).
//!
//! * **Header page** (`"PQGF"`): version, `nblocks`, gram `capacity`, the
//!   approximate distinct-gram `count`, the data-page table (first
//!   [`MAX_DIRECT`] ids inline, the rest on indirect pages), and a trailing
//!   CRC-32 over the whole page.
//! * **Data page** (`"PQFD"`): [`BLOCKS_PER_PAGE`] filter blocks as
//!   little-endian words, CRC-32 over the payload. Blocks never straddle
//!   pages.
//! * **Indirect page** (`"PQFI"`): up to [`IDS_PER_INDIRECT`] further data
//!   page ids, CRC-32 over the id array.
//!
//! Deletes leave the filter untouched (bits are never cleared), keeping it
//! a superset at the price of stale false positives. Inserts set bits in
//! place and bump `count` for grams that were new; once `count` exceeds
//! `capacity` the filter is rebuilt from a forward-relation scan at twice
//! the distinct-gram count, inside the same transaction. A build sets its
//! bits in RAM and then lays the words out on private pages that take one
//! page run and are written once ([`build`]); a bulk load hands it the
//! distinct grams it already has in order and keeps the RAM filter as the
//! open store's mirror.

use crate::btree::BTree;
use crate::buffer::{BufferPool, RunWriter};
use crate::crc::crc32;
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pager::Result;
use pqgram_tree::FxHashSet;

/// Meta slot holding the filter header page id (0 = no filter).
pub(crate) const SLOT_FILTER: usize = 9;

/// Target filter density: bits per expected distinct gram.
const BITS_PER_GRAM: u64 = 10;
/// Capacity floor for newly created filters (grams).
const DEFAULT_CAPACITY: u64 = 1024;
/// Words per 512-bit filter block.
const BLOCK_WORDS: usize = 8;
/// Filter blocks per data page (504 words / 4032 payload bytes, so blocks
/// never straddle a page boundary).
const BLOCKS_PER_PAGE: usize = 63;
/// Upper bound on `nblocks` accepted from disk (128 MiB of filter),
/// bounding the allocation a corrupt-but-CRC-colliding header could ask
/// for.
const MAX_NBLOCKS: u64 = 1 << 24;

const MAGIC_HEADER: u32 = u32::from_le_bytes(*b"PQGF");
const MAGIC_DATA: u32 = u32::from_le_bytes(*b"PQFD");
const MAGIC_INDIRECT: u32 = u32::from_le_bytes(*b"PQFI");
const FILTER_VERSION: u32 = 1;

// Header page field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_NBLOCKS: usize = 8;
const OFF_CAPACITY: usize = 16;
const OFF_COUNT: usize = 24;
const OFF_NPAGES: usize = 32;
const OFF_NINDIRECT: usize = 36;
const OFF_DIRECT: usize = 40;
/// Direct data-page ids held on the header page itself.
const MAX_DIRECT: usize = 512;
const OFF_INDIRECT: usize = OFF_DIRECT + 4 * MAX_DIRECT;
pub(crate) const OFF_HEADER_CRC: usize = PAGE_SIZE - 4;
/// Indirect page ids that fit on the header page.
const MAX_INDIRECT: usize = (OFF_HEADER_CRC - OFF_INDIRECT) / 4;

// Data / indirect page field offsets (shared shape: magic, CRC, payload).
pub(crate) const OFF_PAGE_CRC: usize = 4;
pub(crate) const OFF_PAYLOAD: usize = 8;
pub(crate) const DATA_PAYLOAD: usize = BLOCKS_PER_PAGE * BLOCK_WORDS * 8;
/// Data-page ids per indirect page.
const IDS_PER_INDIRECT: usize = (PAGE_SIZE - OFF_PAYLOAD) / 4;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Block index of a gram: multiply-shift range reduction of a full-width
/// hash, bias-free for any `nblocks`.
fn block_of(nblocks: u64, gram: u64) -> usize {
    let h = splitmix64(gram ^ 0x517c_c1b7_2722_0a95);
    usize::try_from((u128::from(h) * u128::from(nblocks)) >> 64).unwrap_or(0)
}

/// One bit position (0..64) per block word, from an independent hash.
fn word_bits(gram: u64) -> [u32; BLOCK_WORDS] {
    let h = splitmix64(gram ^ 0x2545_f491_4f6c_dd1d);
    std::array::from_fn(|i| {
        let byte = (h >> (8 * i)) & 0x3f;
        u32::try_from(byte).unwrap_or(0)
    })
}

fn blocks_for_capacity(capacity: u64) -> u64 {
    (capacity.max(1) * BITS_PER_GRAM).div_ceil(512).max(1)
}

fn pages_for_blocks(nblocks: u64) -> u64 {
    nblocks.div_ceil(BLOCKS_PER_PAGE as u64)
}

fn indirect_for_pages(npages: u64) -> u64 {
    npages
        .saturating_sub(MAX_DIRECT as u64)
        .div_ceil(IDS_PER_INDIRECT as u64)
}

/// The RAM-resident filter an open store probes against. Byte-identical to
/// the persisted words: point inserts can be mirrored here without
/// re-reading the file.
#[derive(Clone, Debug)]
pub(crate) struct GramFilter {
    nblocks: u64,
    words: Vec<u64>,
}

impl GramFilter {
    fn empty(nblocks: u64) -> Self {
        let words = vec![
            0u64;
            usize::try_from(nblocks)
                .unwrap_or(usize::MAX)
                .saturating_mul(BLOCK_WORDS)
        ];
        GramFilter { nblocks, words }
    }

    /// Might `gram` be stored in this source? `false` is definitive.
    pub(crate) fn contains(&self, gram: u64) -> bool {
        let base = block_of(self.nblocks, gram) * BLOCK_WORDS;
        word_bits(gram)
            .iter()
            .enumerate()
            .all(|(i, &bit)| self.words.get(base + i).is_some_and(|w| w >> bit & 1 == 1))
    }

    /// Sets `gram`'s bits; returns `true` if any bit was newly set. Mirrors
    /// exactly what [`insert_grams`] does to the persisted words.
    pub(crate) fn insert(&mut self, gram: u64) -> bool {
        let base = block_of(self.nblocks, gram) * BLOCK_WORDS;
        let mut fresh = false;
        for (i, &bit) in word_bits(gram).iter().enumerate() {
            if let Some(w) = self.words.get_mut(base + i) {
                fresh |= *w >> bit & 1 == 0;
                *w |= 1u64 << bit;
            }
        }
        fresh
    }
}

/// The parsed, validated header: where every filter page lives.
struct Layout {
    header: PageId,
    nblocks: u64,
    capacity: u64,
    count: u64,
    /// Data pages in block order.
    pages: Vec<PageId>,
    /// Indirect pages (freed with the filter, otherwise opaque).
    indirect: Vec<PageId>,
}

// analyze: validates(pageid)
fn plausible_id(raw: u32) -> Option<PageId> {
    if raw == 0 || raw == u32::MAX {
        return None;
    }
    Some(PageId(raw))
}

/// Reads and validates the filter header (magic, version, CRC, consistent
/// page counts, plausible page ids). Any validation failure yields
/// `Ok(None)` — the filter is advisory and an unreadable one is simply
/// not used — while pool-level I/O errors propagate.
// analyze: validates(len|offset|pageid|count)
fn read_layout(pool: &BufferPool) -> Result<Option<Layout>> {
    let slot = pool.meta(SLOT_FILTER);
    let Ok(raw) = u32::try_from(slot) else {
        return Ok(None);
    };
    let Some(header) = plausible_id(raw) else {
        return Ok(None);
    };
    let parsed = pool.with_page(header, |p| {
        if p.get_u32(OFF_MAGIC) != MAGIC_HEADER
            || p.get_u32(OFF_VERSION) != FILTER_VERSION
            || crc32(p.slice(0, OFF_HEADER_CRC)) != p.get_u32(OFF_HEADER_CRC)
        {
            return None;
        }
        let nblocks = p.get_u64(OFF_NBLOCKS);
        let capacity = p.get_u64(OFF_CAPACITY);
        let count = p.get_u64(OFF_COUNT);
        let npages = u64::from(p.get_u32(OFF_NPAGES));
        let nindirect = u64::from(p.get_u32(OFF_NINDIRECT));
        if nblocks == 0
            || nblocks > MAX_NBLOCKS
            || npages != pages_for_blocks(nblocks)
            || nindirect != indirect_for_pages(npages)
            || nindirect > MAX_INDIRECT as u64
        {
            return None;
        }
        let direct = npages.min(MAX_DIRECT as u64);
        let mut pages = Vec::new();
        for i in 0..usize::try_from(direct).unwrap_or(0) {
            pages.push(p.get_u32(OFF_DIRECT + 4 * i));
        }
        let mut indirect = Vec::new();
        for i in 0..usize::try_from(nindirect).unwrap_or(0) {
            indirect.push(p.get_u32(OFF_INDIRECT + 4 * i));
        }
        Some((nblocks, capacity, count, npages, pages, indirect))
    })?;
    let Some((nblocks, capacity, count, npages, raw_pages, raw_indirect)) = parsed else {
        return Ok(None);
    };
    let mut pages = Vec::with_capacity(usize::try_from(npages).unwrap_or(0));
    for raw in raw_pages {
        let Some(id) = plausible_id(raw) else {
            return Ok(None);
        };
        pages.push(id);
    }
    let mut indirect = Vec::new();
    let mut remaining = npages.saturating_sub(MAX_DIRECT as u64);
    for raw in raw_indirect {
        let Some(id) = plausible_id(raw) else {
            return Ok(None);
        };
        indirect.push(id);
        let take = remaining.min(IDS_PER_INDIRECT as u64);
        let more = pool.with_page(id, |p| {
            if p.get_u32(OFF_MAGIC) != MAGIC_INDIRECT
                || crc32(p.slice(OFF_PAYLOAD, PAGE_SIZE - OFF_PAYLOAD)) != p.get_u32(OFF_PAGE_CRC)
            {
                return None;
            }
            let mut out = Vec::new();
            for i in 0..usize::try_from(take).unwrap_or(0) {
                out.push(p.get_u32(OFF_PAYLOAD + 4 * i));
            }
            Some(out)
        })?;
        let Some(more) = more else {
            return Ok(None);
        };
        for raw in more {
            let Some(id) = plausible_id(raw) else {
                return Ok(None);
            };
            pages.push(id);
        }
        remaining -= take;
    }
    if u64::try_from(pages.len()) != Ok(npages) || remaining != 0 {
        return Ok(None);
    }
    Ok(Some(Layout {
        header,
        nblocks,
        capacity,
        count,
        pages,
        indirect,
    }))
}

/// Loads the whole filter into RAM for probing. `Ok(None)` when the store
/// has no filter or its pages fail validation — lookups then simply probe
/// every gram (correctness never depends on the filter).
// analyze: validates(len|offset|count)
/// Every page the filter occupies (header first, then data pages, then
/// indirect pages), or `None` when no valid filter is installed. Lets the
/// out-of-crate fuzz harness aim on-disk mutations at the filter decoder.
pub(crate) fn page_ids(pool: &BufferPool) -> Result<Option<Vec<PageId>>> {
    Ok(read_layout(pool)?.map(|l| {
        let mut ids = Vec::with_capacity(1 + l.pages.len() + l.indirect.len());
        ids.push(l.header);
        ids.extend(l.pages);
        ids.extend(l.indirect);
        ids
    }))
}

pub(crate) fn load(pool: &BufferPool) -> Result<Option<GramFilter>> {
    let Some(layout) = read_layout(pool)? else {
        return Ok(None);
    };
    let mut filter = GramFilter::empty(layout.nblocks);
    let total_words = filter.words.len();
    for (pi, &page) in layout.pages.iter().enumerate() {
        let start = pi * BLOCKS_PER_PAGE * BLOCK_WORDS;
        let take = total_words
            .saturating_sub(start)
            .min(BLOCKS_PER_PAGE * BLOCK_WORDS);
        let words = pool.with_page(page, |p| {
            if p.get_u32(OFF_MAGIC) != MAGIC_DATA
                || crc32(p.slice(OFF_PAYLOAD, DATA_PAYLOAD)) != p.get_u32(OFF_PAGE_CRC)
            {
                return None;
            }
            let mut out = Vec::with_capacity(take);
            for i in 0..take {
                out.push(p.get_u64(OFF_PAYLOAD + 8 * i));
            }
            Some(out)
        })?;
        let Some(words) = words else {
            return Ok(None);
        };
        let Some(dst) = filter.words.get_mut(start..start + take) else {
            return Ok(None);
        };
        for (d, s) in dst.iter_mut().zip(&words) {
            *d = *s;
        }
    }
    Ok(Some(filter))
}

/// Creates an empty filter sized for `capacity` grams and points
/// [`SLOT_FILTER`] at it. Any existing filter must be freed first.
pub(crate) fn create(pool: &BufferPool, capacity: u64) -> Result<()> {
    let capacity = capacity.max(DEFAULT_CAPACITY);
    let empty = GramFilter::empty(blocks_for_capacity(capacity));
    persist(pool, &empty, capacity, 0)
}

/// Builds the filter of exactly `grams` — ascending and distinct — sized
/// at twice their count (floored at [`DEFAULT_CAPACITY`]), replacing any
/// existing one. Returns the RAM filter; the persisted words are its
/// byte image.
pub(crate) fn build(pool: &BufferPool, grams: &[u64]) -> Result<GramFilter> {
    free_filter(pool)?;
    let distinct = u64::try_from(grams.len()).unwrap_or(u64::MAX);
    let capacity = distinct.saturating_mul(2).max(DEFAULT_CAPACITY);
    let mut filter = GramFilter::empty(blocks_for_capacity(capacity));
    let mut fresh = 0u64;
    for &g in grams {
        fresh += u64::from(filter.insert(g));
    }
    persist(pool, &filter, capacity, fresh)?;
    Ok(filter)
}

/// Lays `filter` out on private pages — data pages, then indirect pages,
/// then the header — takes one page run for them, hands every page over
/// once and points [`SLOT_FILTER`] at the header.
fn persist(pool: &BufferPool, filter: &GramFilter, capacity: u64, count: u64) -> Result<()> {
    let data_pages = pages_for_blocks(filter.nblocks);
    let npages = usize::try_from(data_pages).unwrap_or(usize::MAX);
    let nindirect = usize::try_from(indirect_for_pages(data_pages)).unwrap_or(usize::MAX);
    let ids = pool.allocate_run(npages.saturating_add(nindirect).saturating_add(1))?;
    let (Some(pages), Some(indirect), Some(&header)) = (
        ids.get(..npages),
        ids.get(npages..npages.saturating_add(nindirect)),
        ids.last(),
    ) else {
        return Err(crate::pager::StoreError::Corrupt(
            "gram filter page run too short".into(),
        ));
    };
    let mut out = RunWriter::new(pool);
    let mut page = PageBuf::zeroed();
    let mut words = filter.words.chunks(BLOCKS_PER_PAGE * BLOCK_WORDS);
    for &id in pages {
        page.as_bytes_mut().fill(0);
        page.put_u32(OFF_MAGIC, MAGIC_DATA);
        for (i, &w) in words.next().unwrap_or(&[]).iter().enumerate() {
            page.put_u64(OFF_PAYLOAD + 8 * i, w);
        }
        let crc = crc32(page.slice(OFF_PAYLOAD, DATA_PAYLOAD));
        page.put_u32(OFF_PAGE_CRC, crc);
        out.push(id, &page)?;
    }
    let spilled = pages.get(MAX_DIRECT.min(npages)..).unwrap_or(&[]);
    for (&id, chunk) in indirect.iter().zip(spilled.chunks(IDS_PER_INDIRECT)) {
        page.as_bytes_mut().fill(0);
        page.put_u32(OFF_MAGIC, MAGIC_INDIRECT);
        for (i, data) in chunk.iter().enumerate() {
            page.put_u32(OFF_PAYLOAD + 4 * i, data.0);
        }
        let crc = crc32(page.slice(OFF_PAYLOAD, PAGE_SIZE - OFF_PAYLOAD));
        page.put_u32(OFF_PAGE_CRC, crc);
        out.push(id, &page)?;
    }
    page.as_bytes_mut().fill(0);
    page.put_u32(OFF_MAGIC, MAGIC_HEADER);
    page.put_u32(OFF_VERSION, FILTER_VERSION);
    page.put_u64(OFF_NBLOCKS, filter.nblocks);
    page.put_u64(OFF_CAPACITY, capacity);
    page.put_u64(OFF_COUNT, count);
    page.put_u32(OFF_NPAGES, u32::try_from(npages).unwrap_or(u32::MAX));
    page.put_u32(OFF_NINDIRECT, u32::try_from(nindirect).unwrap_or(u32::MAX));
    for (i, data) in pages.iter().take(MAX_DIRECT).enumerate() {
        page.put_u32(OFF_DIRECT + 4 * i, data.0);
    }
    for (i, id) in indirect.iter().enumerate() {
        page.put_u32(OFF_INDIRECT + 4 * i, id.0);
    }
    let crc = crc32(page.slice(0, OFF_HEADER_CRC));
    page.put_u32(OFF_HEADER_CRC, crc);
    out.push(header, &page)?;
    out.end_run()?;
    pool.set_meta(SLOT_FILTER, u64::from(header.0))
}

/// Frees the filter's pages (when its header is still readable) and clears
/// [`SLOT_FILTER`]. A filter whose header fails validation is only
/// unlinked — leaking its pages is preferable to freeing pages it never
/// owned.
fn free_filter(pool: &BufferPool) -> Result<()> {
    if let Some(layout) = read_layout(pool)? {
        for id in layout.pages.iter().chain(&layout.indirect) {
            pool.free(*id)?;
        }
        pool.free(layout.header)?;
    }
    pool.set_meta(SLOT_FILTER, 0)
}

/// Sets the bits of `grams` (deduplicated, sorted for deterministic page
/// writes) in the persisted filter, growing it by rebuild when the distinct
/// count outruns capacity. Returns `true` if a rebuild replaced the filter
/// (the caller's RAM mirror is then stale and must be reloaded). A store
/// without a filter is a no-op; a filter that fails validation mid-write is
/// dropped entirely rather than left half-updated.
pub(crate) fn insert_grams(pool: &BufferPool, grams: &mut Vec<u64>) -> Result<bool> {
    grams.sort_unstable();
    grams.dedup();
    if grams.is_empty() {
        return Ok(false);
    }
    let Some(layout) = read_layout(pool)? else {
        return Ok(false);
    };
    match write_grams(pool, &layout, grams)? {
        None => {
            // A data page failed validation: drop the filter (advisory —
            // lookups fall back to probing every gram).
            free_filter(pool)?;
            Ok(true)
        }
        Some(fresh) => {
            let count = layout.count + fresh;
            if count > layout.capacity {
                rebuild_from_forward(pool)?;
                return Ok(true);
            }
            if fresh > 0 {
                pool.with_page_mut(layout.header, |p| {
                    p.put_u64(OFF_COUNT, count);
                    let crc = crc32(p.slice(0, OFF_HEADER_CRC));
                    p.put_u32(OFF_HEADER_CRC, crc);
                })?;
            }
            Ok(false)
        }
    }
}

/// Sets the bits of sorted `grams` on the layout's data pages. Returns the
/// number of grams that set at least one new bit, or `None` if a touched
/// page failed validation.
fn write_grams(pool: &BufferPool, layout: &Layout, grams: &[u64]) -> Result<Option<u64>> {
    // Group grams by data page, processed in page order for deterministic
    // journal traffic.
    let mut by_page: Vec<(usize, u64)> = grams
        .iter()
        .map(|&g| (block_of(layout.nblocks, g) / BLOCKS_PER_PAGE, g))
        .collect();
    by_page.sort_unstable();
    let mut fresh = 0u64;
    for chunk in by_page.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(page_idx, _)) = chunk.first() else {
            continue;
        };
        let Some(&page) = layout.pages.get(page_idx) else {
            return Ok(None);
        };
        let ok = pool.with_page_mut(page, |p| {
            if p.get_u32(OFF_MAGIC) != MAGIC_DATA
                || crc32(p.slice(OFF_PAYLOAD, DATA_PAYLOAD)) != p.get_u32(OFF_PAGE_CRC)
            {
                return false;
            }
            for &(_, gram) in chunk {
                let block_in_page = block_of(layout.nblocks, gram) % BLOCKS_PER_PAGE;
                let base = OFF_PAYLOAD + block_in_page * BLOCK_WORDS * 8;
                let mut new_bit = false;
                for (i, &bit) in word_bits(gram).iter().enumerate() {
                    let off = base + 8 * i;
                    let word = p.get_u64(off);
                    new_bit |= word >> bit & 1 == 0;
                    p.put_u64(off, word | 1u64 << bit);
                }
                if new_bit {
                    fresh += 1;
                }
            }
            let crc = crc32(p.slice(OFF_PAYLOAD, DATA_PAYLOAD));
            p.put_u32(OFF_PAGE_CRC, crc);
            true
        })?;
        if !ok {
            return Ok(None);
        }
    }
    Ok(Some(fresh))
}

/// Builds (or rebuilds) the filter from the distinct grams of the forward
/// relation, sized at twice the current distinct-gram count. Runs inside
/// the caller's transaction, when point inserts saturate the filter.
fn rebuild_from_forward(pool: &BufferPool) -> Result<()> {
    let fwd = BTree::open(pool, crate::ops::SLOT_FWD)?;
    let mut distinct: FxHashSet<u64> = FxHashSet::default();
    fwd.for_each_range((0, 0), (u64::MAX, u64::MAX), |(_, g), _| {
        distinct.insert(g);
        true
    })?;
    let mut grams: Vec<u64> = distinct.into_iter().collect();
    grams.sort_unstable();
    build(pool, &grams).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-filter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(PathBuf::from(j)).ok();
        p
    }

    fn pool(name: &str) -> Result<BufferPool> {
        let pool = BufferPool::new(Pager::create(&tmp(name))?, 64);
        crate::ops::init_relations(&pool)?;
        Ok(pool)
    }

    fn grams(seed: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| splitmix64(seed ^ (i << 7))).collect()
    }

    #[test]
    fn ram_and_disk_filters_agree() -> Result<()> {
        let pool = pool("agree.db")?;
        let stored = grams(1, 900);
        let mut ram = {
            create(&pool, 1024)?;
            let layout_nblocks = read_layout(&pool)?.expect("layout").nblocks;
            GramFilter::empty(layout_nblocks)
        };
        insert_grams(&pool, &mut stored.clone())?;
        for &g in &stored {
            ram.insert(g);
        }
        let loaded = load(&pool)?.expect("filter loads");
        assert_eq!(loaded.nblocks, ram.nblocks);
        assert_eq!(loaded.words, ram.words, "disk bits mirror RAM inserts");
        for &g in &stored {
            assert!(loaded.contains(g), "stored gram {g:#x} must be present");
        }
        // The false-positive rate at ~10 bits/gram is around a percent;
        // 1000 absent probes virtually never all pass.
        let absent = grams(2, 1000);
        let fp = absent.iter().filter(|&&g| loaded.contains(g)).count();
        assert!(fp < 100, "false-positive rate out of control: {fp}/1000");
        Ok(())
    }

    #[test]
    fn saturation_rebuild_grows_and_keeps_every_gram() -> Result<()> {
        let pool = pool("saturate.db")?;
        // Store forward rows so the rebuild scan sees the grams.
        let mut all = grams(3, 3000);
        all.sort_unstable();
        all.dedup();
        let rows: Vec<((u64, u64), u32)> = all.iter().map(|&g| ((1, g), 1)).collect();
        BTree::open(&pool, crate::ops::SLOT_FWD)?.bulk_load(rows)?;
        create(&pool, 0)?; // DEFAULT_CAPACITY, far below 3000
        let rebuilt = insert_grams(&pool, &mut all.clone())?;
        assert!(rebuilt, "inserting 3000 grams into a 1024 filter rebuilds");
        let loaded = load(&pool)?.expect("rebuilt filter loads");
        for &g in &all {
            assert!(loaded.contains(g));
        }
        let layout = read_layout(&pool)?.expect("layout");
        assert!(layout.capacity >= 2 * all.len() as u64);
        assert_eq!(layout.count, all.len() as u64);
        Ok(())
    }

    #[test]
    fn corrupt_pages_unload_the_filter_without_error() -> Result<()> {
        let pool = pool("tamper.db")?;
        create(&pool, 1024)?;
        insert_grams(&pool, &mut grams(4, 100))?;
        let layout = read_layout(&pool)?.expect("layout");
        // Flip one payload bit on the first data page, fixing nothing else:
        // the page CRC no longer matches, so the filter must refuse to load.
        pool.with_page_mut(layout.pages[0], |p| {
            let w = p.get_u64(OFF_PAYLOAD);
            p.put_u64(OFF_PAYLOAD, w ^ 1);
        })?;
        assert!(load(&pool)?.is_none(), "corrupt data page must not load");
        // Maintenance on a corrupt filter drops it instead of extending it.
        let rebuilt = insert_grams(&pool, &mut grams(5, 10))?;
        assert!(rebuilt);
        assert_eq!(pool.meta(SLOT_FILTER), 0, "broken filter is dropped");
        Ok(())
    }

    #[test]
    fn multi_page_filters_round_trip() -> Result<()> {
        let pool = pool("multipage.db")?;
        let mut many = grams(6, 20_000);
        create(&pool, many.len() as u64)?;
        insert_grams(&pool, &mut many)?;
        let layout = read_layout(&pool)?.expect("layout");
        assert!(layout.pages.len() > 1, "expected a multi-page filter");
        let loaded = load(&pool)?.expect("loads");
        for &g in &many {
            assert!(loaded.contains(g));
        }
        Ok(())
    }
}
