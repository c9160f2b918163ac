//! Succinct posting-block storage for the inverted relation (format v3).
//!
//! The inverted relation maps `(pqgram, treeId) -> count`. In format v2
//! every posting was its own B+-tree row — 20-odd bytes per posting once
//! leaf overhead is counted. Format v3 keeps the same B+-tree as a
//! *directory* but partitions the full `(gram, treeId)` row sequence into
//! compressed **posting blocks** stored on dedicated pack pages:
//!
//! * **Inline posting** — directory row `(gram, treeId) -> count | INLINE_BIT`.
//!   Used for fresh point inserts and tiny relations.
//! * **Posting block** — directory row `(last_gram, last_treeId) -> pack
//!   PageId`. The block holds up to [`MAX_BLOCK_ROWS`] lexicographically
//!   ascending `(gram, treeId, count)` rows — *across gram boundaries* —
//!   encoded as an Elias-Fano sequence of the distinct grams, bit-packed
//!   cumulative per-gram row counts, bit-packed treeIds and counts, ending
//!   in a CRC-32. Blocks are not per-gram: rare grams share blocks with their
//!   neighbours, so the directory shrinks to one row per ~256 postings.
//!
//! Keying blocks by their *last* row makes the covering block of a point
//! `(g, t)` the first directory entry `>= (g, t)` — one bounded B+-tree
//! descent, no reverse scan. Block row ranges are disjoint and ascending,
//! and inline rows never fall inside a block's range, so range probes
//! stream the directory in order, skip blocks whose header range excludes
//! the probed gram (per-block metadata, no decode), and decode the rest.
//!
//! All decode paths are reachable from recovery and lookup entrypoints, so
//! every read is bounds-checked and every structural violation returns
//! [`StoreError::Corrupt`] — this module must never panic on disk bytes.

use crate::btree::{BTree, Fill, LeafCursor};
use crate::buffer::{BufferPool, RunWriter};
use crate::crc::crc32;
use crate::fence::{Fence, FenceCursor};
use crate::ops::SLOT_INV;
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pager::{Result, StoreError};
use std::sync::Arc;

/// One posting row: `((gram, treeId), count)`.
pub(crate) type Row = ((u64, u64), u32);

/// Meta slot holding the current fill pack page (`id + 1`, `0` = none).
pub(crate) const SLOT_FILL: usize = 8;

/// Tag bit distinguishing inline directory values from pack-page pointers.
pub(crate) const INLINE_BIT: u32 = 1 << 31;

/// Maximum postings per block.
pub(crate) const MAX_BLOCK_ROWS: usize = 256;

/// Bulk loads leave row chunks below this size inline: a block costs a
/// directory row plus the pack entry header, which only pays off once a
/// few rows share them.
pub(crate) const BLOCK_MIN: usize = 4;

/// Maintenance collapses a run of at least this many consecutive inline
/// postings into a block.
const COLLAPSE_MIN: usize = 64;

/// First byte of a pack page.
const PACK_TAG: u8 = 0xB7;

/// Pack-page header: tag u8, pad u8, n_entries u16, used u16, pad u16.
const PACK_HDR: usize = 8;

/// Pack-entry header: last_gram u64, last_tid u64, first_gram u64,
/// first_tid u64, n u16, len u16. The directory key comes first so entry
/// lookup reads one aligned pair.
const ENTRY_HDR: usize = 36;

/// Payload prefix: G u16, gram-low width u8, run width u8, treeId width
/// u8, count width u8.
const PREFIX: usize = 6;

/// Payload bytes available on one pack page.
const PACK_CAPACITY: usize = PAGE_SIZE - PACK_HDR;

/// Tags a raw posting count as an inline directory value.
pub(crate) fn inline_value(count: u32) -> Result<u32> {
    if count == 0 || count >= INLINE_BIT {
        return Err(StoreError::Corrupt(format!(
            "posting count {count} out of range for inline encoding"
        )));
    }
    Ok(count | INLINE_BIT)
}

/// Tags a pack page id as a block directory value.
fn block_value(page: PageId) -> Result<u32> {
    if page.0 >= INLINE_BIT {
        return Err(StoreError::Corrupt(format!(
            "pack page id {} out of range for block encoding",
            page.0
        )));
    }
    Ok(page.0)
}

/// A directory value, untagged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DirValue {
    /// The posting count is stored inline in the directory row.
    Inline(u32),
    /// The postings live in a block on this pack page.
    Block(PageId),
}

/// Decodes a tagged directory value.
pub(crate) fn dir_value(raw: u32) -> DirValue {
    if raw & INLINE_BIT != 0 {
        DirValue::Inline(raw & !INLINE_BIT)
    } else {
        DirValue::Block(PageId(raw))
    }
}

/// Decodes a tagged directory value, rejecting zero inline counts.
pub(crate) fn dir_value_checked(raw: u32) -> Result<DirValue> {
    match dir_value(raw) {
        DirValue::Inline(0) => Err(corrupt("inline posting with zero count")),
        v => Ok(v),
    }
}

fn corrupt(msg: &str) -> StoreError {
    StoreError::Corrupt(format!("posting block: {msg}"))
}

// ---------------------------------------------------------------------------
// Bit-level encoding
// ---------------------------------------------------------------------------

/// The low `width` bits set.
fn low_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// ORs the low `width` bits of `value` into `bytes` at absolute bit
/// position `pos` (LSB-first). The target bits must still be zero: the
/// encoder writes every position once into a zeroed buffer. A value that
/// fits the eight bytes at its first byte is one load, OR and store; a
/// wider one, or one of a section's last few, goes through a `u128`.
#[inline]
fn put_bits(bytes: &mut [u8], pos: usize, value: u64, width: u8) -> Result<()> {
    if width == 0 {
        return Ok(());
    }
    let value = value & low_mask(width);
    let shift = pos % 8;
    if shift + usize::from(width) <= 64 {
        if let Some(chunk) = bytes
            .get_mut(pos / 8..)
            .and_then(<[u8]>::first_chunk_mut::<8>)
        {
            *chunk = (u64::from_le_bytes(*chunk) | value << shift).to_le_bytes();
            return Ok(());
        }
    }
    let need = (shift + usize::from(width)).div_ceil(8);
    let dst = (pos / 8)
        .checked_add(need)
        .and_then(|end| bytes.get_mut(pos / 8..end))
        .ok_or_else(|| corrupt("bit position out of range while encoding"))?;
    let word = (u128::from(value) << shift).to_le_bytes();
    for (d, s) in dst.iter_mut().zip(word) {
        *d |= s;
    }
    Ok(())
}

/// The eight bytes at `byte`, little-endian — `None` when fewer are left.
// analyze: untrusted-source
#[inline]
fn word_at(bytes: &[u8], byte: usize) -> Option<u64> {
    let chunk = bytes.get(byte..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*chunk))
}

/// LSB-first bit reader over a byte slice.
struct BitReader<'a> {
    bytes: &'a [u8],
}

impl BitReader<'_> {
    /// Reads `width` bits starting at absolute bit `pos`. A value of at
    /// most 56 bits lies inside the eight bytes at its first byte: one
    /// load, shift and mask. Wider values, and the last few of a section,
    /// go through [`BitReader::read_tail`].
    // analyze: untrusted-source
    #[inline]
    fn read(&self, pos: usize, width: u8) -> Result<u64> {
        if width <= 56 {
            if let Some(word) = word_at(self.bytes, pos / 8) {
                return Ok((word >> (pos % 8)) & low_mask(width));
            }
        }
        self.read_tail(pos, width)
    }

    /// [`BitReader::read`] for any width up to 64 and any position: the
    /// value spans at most 9 bytes, copied into a `u128` and shifted.
    // analyze: untrusted-source
    fn read_tail(&self, pos: usize, width: u8) -> Result<u64> {
        if width == 0 {
            return Ok(0);
        }
        let byte = pos / 8;
        let shift = pos % 8;
        let need = (shift + usize::from(width)).div_ceil(8);
        let end = byte
            .checked_add(need)
            .ok_or_else(|| corrupt("bit cursor overflow while decoding"))?;
        let src = self
            .bytes
            .get(byte..end)
            .ok_or_else(|| corrupt("bit position out of range while decoding"))?;
        let mut buf = [0u8; 16];
        if let Some(dst) = buf.get_mut(..need) {
            dst.copy_from_slice(src);
        }
        let word = u128::from_le_bytes(buf) >> shift;
        u64::try_from(word & u128::from(low_mask(width)))
            .map_err(|_| corrupt("bit read exceeds word"))
    }
}

/// Bits needed for `v` (0 for `v == 0`).
fn bit_width(v: u64) -> u8 {
    u8::try_from(64 - v.leading_zeros()).unwrap_or(64)
}

/// Low-bit width for Elias-Fano over universe `u` with `n` elements.
fn low_width(u: u64, n: u64) -> u8 {
    if n == 0 || u / n == 0 {
        0
    } else {
        u8::try_from(63 - (u / n).leading_zeros()).unwrap_or(63)
    }
}

// ---------------------------------------------------------------------------
// Block encode / decode
// ---------------------------------------------------------------------------

/// The size plan of one block encoding: the distinct-gram count, section
/// widths and the total entry length. Made once per block and shared by
/// the chunker and the encoder, so "will it fit a pack page" is answered
/// without encoding and never asked twice.
pub(crate) struct Plan {
    grams: usize,
    gw: u8,
    rw: u8,
    tw: u8,
    cw: u8,
    gram_high_bits: usize,
    total: usize,
}

/// Byte length of `n` values of `width` bits each.
fn section_bytes(n: usize, width: u8) -> usize {
    (n * usize::from(width)).div_ceil(8)
}

/// Validates `rows` (non-empty, ≤ [`MAX_BLOCK_ROWS`], strictly ascending
/// `(gram, treeId)` pairs, positive counts) and computes the size plan, in
/// one pass.
fn plan_block(rows: &[Row]) -> Result<Plan> {
    let n = rows.len();
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return Err(corrupt("row count out of range while encoding"));
    };
    if n > MAX_BLOCK_ROWS {
        return Err(corrupt("row count out of range while encoding"));
    }
    let mut prev: Option<(u64, u64)> = None;
    let (mut grams, mut max_tid, mut max_count) = (0usize, 0u64, 0u32);
    for &(key, c) in rows {
        if prev.is_some_and(|p| p >= key) {
            return Err(corrupt("rows not strictly ascending while encoding"));
        }
        if c == 0 {
            return Err(corrupt("zero posting count while encoding"));
        }
        if prev.map(|p| p.0) != Some(key.0) {
            grams += 1;
        }
        max_tid = max_tid.max(key.1);
        max_count = max_count.max(c - 1);
        prev = Some(key);
    }
    let g_count = u64::try_from(grams).map_err(|_| corrupt("gram count too large"))?;
    let u_g = last.0 .0 - first.0 .0;
    let gw = low_width(u_g, g_count);
    let n64 = u64::try_from(n).map_err(|_| corrupt("row count too large"))?;
    let rw = bit_width(n64 - 1);
    let tw = bit_width(max_tid);
    let cw = bit_width(u64::from(max_count));
    let gram_high_bits = grams
        .checked_add(usize::try_from(u_g >> gw).map_err(|_| corrupt("gram universe too large"))?)
        .and_then(|v| v.checked_add(1))
        .ok_or_else(|| corrupt("gram universe too large"))?;
    let sections = gram_high_bits
        .div_ceil(8)
        .checked_add(section_bytes(grams, gw))
        .and_then(|v| v.checked_add(section_bytes(grams, rw)))
        .and_then(|v| v.checked_add(section_bytes(n, tw)))
        .and_then(|v| v.checked_add(section_bytes(n, cw)))
        .ok_or_else(|| corrupt("payload too large"))?;
    let total = ENTRY_HDR
        .checked_add(PREFIX)
        .and_then(|v| v.checked_add(sections))
        .and_then(|v| v.checked_add(4)) // trailing crc
        .ok_or_else(|| corrupt("payload too large"))?;
    Ok(Plan {
        grams,
        gw,
        rw,
        tw,
        cw,
        gram_high_bits,
        total,
    })
}

/// A decoded posting block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Decoded {
    /// Smallest `(gram, treeId)` in the block.
    pub first: (u64, u64),
    /// Largest `(gram, treeId)` in the block (the directory key).
    pub last: (u64, u64),
    /// Rows, strictly ascending by `(gram, treeId)`.
    pub rows: Vec<Row>,
}

/// Encodes one posting block (entry header + payload + CRC).
///
/// `rows` must be non-empty, at most [`MAX_BLOCK_ROWS`] long, strictly
/// ascending by `(gram, treeId)`, with positive counts, and the encoding
/// must fit a pack page — use [`chunk_rows`] to pre-split.
pub(crate) fn encode_block(rows: &[Row]) -> Result<Vec<u8>> {
    let plan = plan_block(rows)?;
    let mut out = Vec::with_capacity(plan.total);
    encode_planned(rows, &plan, &mut out)?;
    Ok(out)
}

/// Appends the block entry of `rows` to `out`, laid out by `plan` — the
/// plan [`plan_block`] made for exactly these rows.
fn encode_planned(rows: &[Row], plan: &Plan, out: &mut Vec<u8>) -> Result<()> {
    if plan.total > PACK_CAPACITY {
        return Err(corrupt("encoded block exceeds pack page capacity"));
    }
    let n = rows.len();
    let (first, last) = match (rows.first(), rows.last()) {
        (Some(f), Some(l)) => (f.0, l.0),
        _ => return Err(corrupt("row count out of range while encoding")),
    };
    let len16 = u16::try_from(plan.total - ENTRY_HDR).map_err(|_| corrupt("payload too large"))?;
    let n16 = u16::try_from(n).map_err(|_| corrupt("row count too large"))?;
    let g16 = u16::try_from(plan.grams).map_err(|_| corrupt("gram count too large"))?;

    let start = out.len();
    out.extend_from_slice(&last.0.to_le_bytes());
    out.extend_from_slice(&last.1.to_le_bytes());
    out.extend_from_slice(&first.0.to_le_bytes());
    out.extend_from_slice(&first.1.to_le_bytes());
    out.extend_from_slice(&n16.to_le_bytes());
    out.extend_from_slice(&len16.to_le_bytes());
    out.extend_from_slice(&g16.to_le_bytes());
    out.extend_from_slice(&[plan.gw, plan.rw, plan.tw, plan.cw]);

    // The five bit sections, each starting on a byte: gram high bits
    // (unary), gram low bits, cumulative run lengths, treeIds, counts.
    let sections_at = out.len();
    out.resize(start + plan.total - 4, 0);
    let sections = out.get_mut(sections_at..).unwrap_or(&mut []);
    let low_at = 8 * plan.gram_high_bits.div_ceil(8);
    let run_at = low_at + 8 * section_bytes(plan.grams, plan.gw);
    let tid_at = run_at + 8 * section_bytes(plan.grams, plan.rw);
    let count_at = tid_at + 8 * section_bytes(n, plan.tw);
    let mut gram_index = 0usize;
    for (i, &((gram, t), c)) in rows.iter().enumerate() {
        put_bits(sections, tid_at + i * usize::from(plan.tw), t, plan.tw)?;
        put_bits(
            sections,
            count_at + i * usize::from(plan.cw),
            u64::from(c - 1),
            plan.cw,
        )?;
        if rows.get(i + 1).is_some_and(|next| next.0 .0 == gram) {
            continue;
        }
        // Last row of this gram's run.
        let delta = gram - first.0;
        let high = usize::try_from(delta >> plan.gw)
            .ok()
            .and_then(|p| p.checked_add(gram_index))
            .filter(|&p| p < plan.gram_high_bits)
            .ok_or_else(|| corrupt("gram universe too large"))?;
        put_bits(sections, high, 1, 1)?;
        put_bits(
            sections,
            low_at + gram_index * usize::from(plan.gw),
            delta,
            plan.gw,
        )?;
        // Cumulative row count through this gram, biased by one: probes
        // read any gram's row prefix and run length in O(1).
        let cum = u64::try_from(i).map_err(|_| corrupt("row count too large"))?;
        put_bits(
            sections,
            run_at + gram_index * usize::from(plan.rw),
            cum,
            plan.rw,
        )?;
        gram_index += 1;
    }
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
    if out.len() - start != plan.total || gram_index != plan.grams {
        return Err(corrupt("encoder produced an inconsistent length"));
    }
    Ok(())
}

/// Splits `rows` into consecutive chunks that each satisfy the block
/// limits (row count and pack-page capacity), each with the plan that says
/// so. Concatenating the chunks in order reproduces `rows`.
pub(crate) fn chunk_rows(rows: &[Row]) -> Result<Vec<(&[Row], Plan)>> {
    let mut out = Vec::new();
    if rows.is_empty() {
        return Ok(out);
    }
    // Depth-first halving over index ranges; pushing the right half first
    // keeps the popped order left-to-right.
    let mut stack = vec![(0usize, rows.len(), 0u32)];
    while let Some((start, end, depth)) = stack.pop() {
        if depth > 64 {
            return Err(corrupt("block chunking did not converge"));
        }
        let chunk = rows
            .get(start..end)
            .ok_or_else(|| corrupt("block chunking range out of bounds"))?;
        if chunk.len() <= MAX_BLOCK_ROWS {
            let plan = plan_block(chunk)?;
            if plan.total <= PACK_CAPACITY {
                out.push((chunk, plan));
                continue;
            }
        }
        if chunk.len() < 2 {
            return Err(corrupt("single row exceeds pack page capacity"));
        }
        let mid = start + chunk.len() / 2;
        stack.push((mid, end, depth + 1));
        stack.push((start, mid, depth + 1));
    }
    Ok(out)
}

// analyze: untrusted-source
fn read_u64(bytes: &[u8], off: usize) -> Result<u64> {
    let end = off
        .checked_add(8)
        .ok_or_else(|| corrupt("offset overflow"))?;
    let slice = bytes
        .get(off..end)
        .ok_or_else(|| corrupt("entry truncated"))?;
    let arr: [u8; 8] = slice.try_into().map_err(|_| corrupt("entry truncated"))?;
    Ok(u64::from_le_bytes(arr))
}

// analyze: untrusted-source
fn read_u16(bytes: &[u8], off: usize) -> Result<u16> {
    let end = off
        .checked_add(2)
        .ok_or_else(|| corrupt("offset overflow"))?;
    let slice = bytes
        .get(off..end)
        .ok_or_else(|| corrupt("entry truncated"))?;
    let arr: [u8; 2] = slice.try_into().map_err(|_| corrupt("entry truncated"))?;
    Ok(u16::from_le_bytes(arr))
}

/// Bounds-checked section view of one pack entry: header fields parsed and
/// validated, every section sliced. Built by [`parse_sections`] (no CRC) or
/// [`validate_entry`] (with CRC); rows are decoded lazily from this.
struct Sections<'a> {
    first: (u64, u64),
    last: (u64, u64),
    n: usize,
    g_count: usize,
    gw: u8,
    rw: u8,
    tw: u8,
    cw: u8,
    gram_high_bits: usize,
    gram_high: &'a [u8],
    gram_low: BitReader<'a>,
    run_bits: BitReader<'a>,
    tid_bits: BitReader<'a>,
    count_bits: BitReader<'a>,
}

/// The validated section layout of one pack entry: header fields plus the
/// byte offset of every section. Plain data (no borrows), so the probe
/// memo in [`BlockCache`] can keep it alongside the pinned page and skip
/// re-parsing on every hit.
#[derive(Clone, Copy)]
struct Layout {
    first: (u64, u64),
    last: (u64, u64),
    n: usize,
    g_count: usize,
    gw: u8,
    rw: u8,
    tw: u8,
    cw: u8,
    gram_high_bits: usize,
    gram_low_off: usize,
    run_off: usize,
    tid_off: usize,
    count_off: usize,
    crc_off: usize,
}

/// Slices the sections of `bytes` according to an already-parsed `Layout`
/// (which must have been produced from these same bytes).
// analyze: validates(offset|len)
fn sections_of<'a>(bytes: &'a [u8], l: &Layout) -> Result<Sections<'a>> {
    let section = |a: usize, b: usize| -> Result<&'a [u8]> {
        bytes.get(a..b).ok_or_else(|| corrupt("entry truncated"))
    };
    Ok(Sections {
        first: l.first,
        last: l.last,
        n: l.n,
        g_count: l.g_count,
        gw: l.gw,
        rw: l.rw,
        tw: l.tw,
        cw: l.cw,
        gram_high_bits: l.gram_high_bits,
        gram_high: section(ENTRY_HDR + PREFIX, l.gram_low_off)?,
        gram_low: BitReader {
            bytes: section(l.gram_low_off, l.run_off)?,
        },
        run_bits: BitReader {
            bytes: section(l.run_off, l.tid_off)?,
        },
        tid_bits: BitReader {
            bytes: section(l.tid_off, l.count_off)?,
        },
        count_bits: BitReader {
            bytes: section(l.count_off, l.crc_off)?,
        },
    })
}

/// Parses and bounds-checks the header and section layout of one entry
/// *without* verifying the CRC — callers either verify it themselves
/// ([`validate_entry`], [`validated_pack_page`]) or hold an entry of a page
/// that already passed [`pin_pack`].
// analyze: validates(len|offset|count)
fn parse_layout(bytes: &[u8]) -> Result<Layout> {
    if bytes.len() < ENTRY_HDR + PREFIX + 4 {
        return Err(corrupt("entry shorter than minimum"));
    }
    let last = (read_u64(bytes, 0)?, read_u64(bytes, 8)?);
    let first = (read_u64(bytes, 16)?, read_u64(bytes, 24)?);
    let n = usize::from(read_u16(bytes, 32)?);
    let len = usize::from(read_u16(bytes, 34)?);
    if ENTRY_HDR
        .checked_add(len)
        .map(|total| total != bytes.len())
        .unwrap_or(true)
    {
        return Err(corrupt("entry length disagrees with header"));
    }
    if n == 0 || n > MAX_BLOCK_ROWS {
        return Err(corrupt("row count out of range"));
    }
    if last < first {
        return Err(corrupt("last row below first"));
    }
    let g_count = usize::from(read_u16(bytes, ENTRY_HDR)?);
    let widths = bytes
        .get(ENTRY_HDR + 2..ENTRY_HDR + PREFIX)
        .ok_or_else(|| corrupt("entry truncated"))?;
    let (gw, rw, tw, cw) = (widths[0], widths[1], widths[2], widths[3]);
    if g_count == 0 || g_count > n {
        return Err(corrupt("gram count out of range"));
    }
    if gw > 63 || rw > 8 || tw > 64 || cw > 32 {
        return Err(corrupt("section width out of range"));
    }
    let u_g = last
        .0
        .checked_sub(first.0)
        .ok_or_else(|| corrupt("last row below first"))?;
    let gram_high_bits = g_count
        .checked_add(usize::try_from(u_g >> gw).map_err(|_| corrupt("gram universe too large"))?)
        .and_then(|v| v.checked_add(1))
        .ok_or_else(|| corrupt("gram universe too large"))?;
    let gram_high_len = gram_high_bits.div_ceil(8);
    let gram_low_len = (g_count * usize::from(gw)).div_ceil(8);
    let run_len = (g_count * usize::from(rw)).div_ceil(8);
    let tid_len = (n * usize::from(tw)).div_ceil(8);
    let count_len = (n * usize::from(cw)).div_ceil(8);
    let expect_len = gram_high_len
        .checked_add(gram_low_len)
        .and_then(|v| v.checked_add(run_len))
        .and_then(|v| v.checked_add(tid_len))
        .and_then(|v| v.checked_add(count_len))
        .and_then(|v| v.checked_add(PREFIX + 4))
        .ok_or_else(|| corrupt("section sizes overflow"))?;
    if expect_len != len {
        return Err(corrupt("section sizes disagree with entry length"));
    }
    let gram_high_off = ENTRY_HDR + PREFIX;
    let gram_low_off = gram_high_off + gram_high_len;
    let run_off = gram_low_off + gram_low_len;
    Ok(Layout {
        first,
        last,
        n,
        g_count,
        gw,
        rw,
        tw,
        cw,
        gram_high_bits,
        gram_low_off,
        run_off,
        tid_off: run_off + run_len,
        count_off: run_off + run_len + tid_len,
        crc_off: bytes.len() - 4,
    })
}

/// [`parse_layout`] plus section slicing.
// analyze: validates(len|offset|count)
fn parse_sections(bytes: &[u8]) -> Result<Sections<'_>> {
    let layout = parse_layout(bytes)?;
    sections_of(bytes, &layout)
}

/// Verifies the trailing CRC of one entry (covers everything before the
/// last 4 bytes).
// analyze: taint-exempt(verifies the trailing checksum; total — every read is a bounds-checked slice and nothing here steers memory)
fn check_crc(bytes: &[u8]) -> Result<()> {
    let crc_off = bytes
        .len()
        .checked_sub(4)
        .ok_or_else(|| corrupt("entry truncated"))?;
    let body = bytes
        .get(..crc_off)
        .ok_or_else(|| corrupt("entry truncated"))?;
    let stored = u32::from_le_bytes(
        bytes
            .get(crc_off..)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .ok_or_else(|| corrupt("entry truncated"))?,
    );
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(())
}

/// [`parse_sections`] plus CRC verification.
// analyze: validates(len|offset|count)
fn validate_entry(bytes: &[u8]) -> Result<Sections<'_>> {
    let sections = parse_sections(bytes)?;
    check_crc(bytes)?;
    Ok(sections)
}

/// Calls `f` with the position of every set bit among the first `nbits`
/// bits of `section`, word-at-a-time (zeros are skipped 64 bits per step).
/// `f` returns `false` to stop the scan.
// analyze: taint-exempt(branchless bit trick over raw words; total on all inputs, emits positions only)
fn scan_set_bits(section: &[u8], nbits: usize, mut f: impl FnMut(usize) -> bool) {
    let mut base = 0usize;
    for chunk in section.chunks(8) {
        let mut buf = [0u8; 8];
        if let Some(dst) = buf.get_mut(..chunk.len()) {
            dst.copy_from_slice(chunk);
        }
        let mut word = u64::from_le_bytes(buf);
        if nbits < base + 64 {
            // Mask garbage past the logical end of the section.
            let keep = u32::try_from(nbits.saturating_sub(base)).unwrap_or(64);
            word &= 1u64.checked_shl(keep).map(|v| v - 1).unwrap_or(u64::MAX);
        }
        while word != 0 {
            let bit = usize::try_from(word.trailing_zeros()).unwrap_or(usize::MAX);
            if !f(base + bit) {
                return;
            }
            word &= word - 1;
        }
        base += 64;
    }
}

/// Position of the `b`-th zero bit (1-indexed) among the first `nbits`
/// bits of `section`, word-at-a-time: whole words of set bits are skipped
/// with a popcount, and the final word is selected by clearing low bits.
/// `None` when the section holds fewer than `b` zeros.
// analyze: taint-exempt(branchless popcount select over raw words; total on all inputs, emits positions only)
fn select_zero(section: &[u8], nbits: usize, b: usize) -> Option<usize> {
    if b == 0 {
        return None;
    }
    let mut remaining = b;
    let mut base = 0usize;
    for chunk in section.chunks(8) {
        if base >= nbits {
            break;
        }
        let mut buf = [0u8; 8];
        if let Some(dst) = buf.get_mut(..chunk.len()) {
            dst.copy_from_slice(chunk);
        }
        // Complement so zeros become the countable bits, masking garbage
        // past the logical end of the section.
        let mut word = !u64::from_le_bytes(buf);
        let keep = u32::try_from(nbits.saturating_sub(base).min(64)).unwrap_or(64);
        word &= 1u64.checked_shl(keep).map(|v| v - 1).unwrap_or(u64::MAX);
        let zeros = usize::try_from(word.count_ones()).unwrap_or(64);
        if remaining > zeros {
            remaining -= zeros;
        } else {
            for _ in 1..remaining {
                word &= word - 1;
            }
            return Some(base + usize::try_from(word.trailing_zeros()).unwrap_or(0));
        }
        base += 64;
    }
    None
}

/// The bit at `pos` among the first `nbits` bits of `section` (`false`
/// past the logical end).
// analyze: taint-exempt(single checked bit probe; total on all inputs)
fn bit_at(section: &[u8], nbits: usize, pos: usize) -> bool {
    pos < nbits
        && section
            .get(pos / 8)
            .is_some_and(|&b| b >> (pos % 8) & 1 != 0)
}

/// The `i`-th distinct gram from the Elias-Fano sections, given the
/// position of its set high bit.
// analyze: untrusted-source
fn ef_gram(s: &Sections<'_>, i: usize, pos: usize) -> Result<u64> {
    let bucket = pos
        .checked_sub(i)
        .ok_or_else(|| corrupt("gram high bit before its rank"))
        .map(u64::try_from)?
        .map_err(|_| corrupt("gram high bit out of range"))?;
    let lo = if s.gw > 0 {
        s.gram_low.read(i * usize::from(s.gw), s.gw)?
    } else {
        0
    };
    let delta = bucket
        .checked_shl(u32::from(s.gw))
        .and_then(|v| v.checked_add(lo))
        .ok_or_else(|| corrupt("gram delta overflow"))?;
    s.first
        .0
        .checked_add(delta)
        .ok_or_else(|| corrupt("gram overflow"))
}

/// Cumulative row count through the `i`-th distinct gram (rows of grams
/// `0..=i`). Stored biased by one so a probe reads any gram's row prefix
/// and run length in O(1) instead of summing run lengths.
// analyze: untrusted-source
fn ef_cum(s: &Sections<'_>, i: usize) -> Result<usize> {
    let raw = if s.rw > 0 {
        s.run_bits.read(i * usize::from(s.rw), s.rw)?
    } else {
        0
    };
    usize::try_from(raw)
        .ok()
        .and_then(|r| r.checked_add(1))
        .ok_or_else(|| corrupt("cumulative count overflow"))
}

/// Decodes one posting block entry (header + payload + CRC).
///
/// Every structural violation — truncation, CRC mismatch, non-monotone
/// rows, header/payload disagreement — returns [`StoreError::Corrupt`];
/// this function must never panic on arbitrary bytes.
// analyze: validates(len|offset|count)
pub(crate) fn decode_block(bytes: &[u8]) -> Result<Decoded> {
    let s = validate_entry(bytes)?;
    let (first, last) = (s.first, s.last);

    // Distinct grams: Elias-Fano, strictly ascending.
    let mut grams = Vec::with_capacity(s.g_count);
    let mut scan_err: Option<StoreError> = None;
    scan_set_bits(s.gram_high, s.gram_high_bits, |pos| {
        let i = grams.len();
        if i >= s.g_count {
            scan_err = Some(corrupt("more set gram bits than grams"));
            return false;
        }
        match ef_gram(&s, i, pos) {
            Ok(gram) => {
                if grams.last().is_some_and(|&p| gram <= p) {
                    scan_err = Some(corrupt("grams not strictly ascending"));
                    return false;
                }
                grams.push(gram);
                true
            }
            Err(e) => {
                scan_err = Some(e);
                false
            }
        }
    });
    if let Some(e) = scan_err {
        return Err(e);
    }
    if grams.len() != s.g_count {
        return Err(corrupt("fewer set gram bits than grams"));
    }

    // Cumulative counts: strictly increasing, ending exactly at n.
    let mut runs = Vec::with_capacity(s.g_count);
    let mut prev = 0usize;
    for i in 0..s.g_count {
        let cum = ef_cum(&s, i)?;
        if cum <= prev || cum > s.n {
            return Err(corrupt("cumulative counts not strictly increasing"));
        }
        runs.push(cum - prev);
        prev = cum;
    }
    if prev != s.n {
        return Err(corrupt("cumulative counts disagree with row count"));
    }

    // Rows: per-gram strictly ascending treeIds, positive counts.
    let mut rows: Vec<Row> = Vec::with_capacity(s.n);
    let mut at = 0usize;
    for (&gram, &run) in grams.iter().zip(runs.iter()) {
        for_each_row(&s, at, at + run, &mut |tid, count| {
            rows.push(((gram, tid), count))
        })?;
        at += run;
    }
    if rows.first().map(|r| r.0) != Some(first) {
        return Err(corrupt("first row disagrees with header"));
    }
    if rows.last().map(|r| r.0) != Some(last) {
        return Err(corrupt("last row disagrees with header"));
    }
    Ok(Decoded { first, last, rows })
}

/// Streams the rows of a single `gram` out of one entry that has already
/// passed validation (see [`pin_pack`]): a select-zero jump lands on the
/// gram's Elias-Fano bucket, the cumulative-count section gives its row
/// prefix and run length in O(1), then only that run's treeIds and counts
/// are decoded — the rest of the block is never materialised.
fn for_each_gram_in_sections(
    s: &Sections<'_>,
    gram: u64,
    counters: &mut ProbeCounters,
    f: &mut impl FnMut(u64, u32),
) -> Result<()> {
    if gram < s.first.0 || gram > s.last.0 {
        return Ok(());
    }
    let delta = gram - s.first.0;
    let bucket = delta.checked_shr(u32::from(s.gw)).unwrap_or(0);
    let lo_t = delta & low_mask(s.gw);
    // Bucket `b`'s set bits (grams sharing the high part) sit between the
    // b-th and (b+1)-th zero bits; bucket 0 starts at position 0.
    let (mut idx, mut pos) = if bucket == 0 {
        (0usize, 0usize)
    } else {
        let b = usize::try_from(bucket).map_err(|_| corrupt("gram bucket overflow"))?;
        let pz = select_zero(s.gram_high, s.gram_high_bits, b)
            .ok_or_else(|| corrupt("gram bucket past high-bit section"))?;
        let idx = (pz + 1)
            .checked_sub(b)
            .ok_or_else(|| corrupt("gram high bit before its rank"))?;
        (idx, pz + 1)
    };
    // Walk the bucket's consecutive set bits; low bits ascend strictly
    // within a bucket, so the first miss past `lo_t` ends the search.
    let mut found: Option<usize> = None;
    while idx < s.g_count && bit_at(s.gram_high, s.gram_high_bits, pos) {
        let lo = if s.gw > 0 {
            s.gram_low.read(idx * usize::from(s.gw), s.gw)?
        } else {
            0
        };
        if lo >= lo_t {
            if lo == lo_t {
                found = Some(idx);
            }
            break;
        }
        idx += 1;
        pos += 1;
    }
    let Some(index) = found else { return Ok(()) };
    let prefix = if index == 0 { 0 } else { ef_cum(s, index - 1)? };
    let end = ef_cum(s, index)?;
    if end > s.n || prefix >= end {
        return Err(corrupt("cumulative counts disagree with row count"));
    }
    counters.rows += u64::try_from(end - prefix).unwrap_or(u64::MAX);
    for_each_row(s, prefix, end, f)
}

/// Streams rows `start..end` of one gram's run — bit-packed treeIds,
/// strictly ascending, and biased counts (`count - 1` on disk, nothing
/// when `cw == 0`) — to `f`: by whole words when [`is_word_run`] says the
/// run allows it, else value by value.
fn for_each_row(
    s: &Sections<'_>,
    start: usize,
    end: usize,
    f: &mut impl FnMut(u64, u32),
) -> Result<()> {
    if is_word_run(s, end) {
        word_rows(s, start, end, f)
    } else {
        checked_rows(s, start, end, f)
    }
}

/// The one bounds decision a run gets: can every value of a run ending
/// before row `end` be read as the eight bytes at its first byte? That
/// takes treeIds of at most 56 bits and, in both sections, eight bytes
/// from where row `end` would start. Runs at the tail of a section and
/// blocks with wider treeIds are read value by value.
fn is_word_run(s: &Sections<'_>, end: usize) -> bool {
    let whole = |r: &BitReader<'_>, width: u8| {
        width == 0 || (end * usize::from(width)) / 8 + 8 <= r.bytes.len()
    };
    s.tw <= 56 && whole(&s.tid_bits, s.tw) && whole(&s.count_bits, s.cw)
}

/// [`for_each_row`] for a run [`is_word_run`] admits: one 8-byte load,
/// shift and mask per value, and the two row checks (treeIds ascend, the
/// count does not overflow) folded into one flag tested after the last
/// row. `f` may therefore see rows of a run that then returns `Err`,
/// which discards everything the caller gathered.
fn word_rows<'a>(
    s: &Sections<'a>,
    start: usize,
    end: usize,
    f: &mut impl FnMut(u64, u32),
) -> Result<()> {
    // A zero-width section has no bytes: every value in it is zero, read
    // as zero bits of this word.
    let words = |r: &BitReader<'a>, width: u8| match width {
        0 => &[0u8; 8][..],
        _ => r.bytes,
    };
    let (tids, cnts) = (words(&s.tid_bits, s.tw), words(&s.count_bits, s.cw));
    let (tw, cw) = (usize::from(s.tw), usize::from(s.cw));
    let (tmask, cmask) = (low_mask(s.tw), low_mask(s.cw));
    // treeIds here are at most 56 bits wide, so `tid + 1` cannot wrap.
    let (mut floor, mut bad) = (0u64, false);
    for i in start..end {
        let (tbit, cbit) = (i * tw, i * cw);
        let (Some(tword), Some(cword)) = (word_at(tids, tbit / 8), word_at(cnts, cbit / 8)) else {
            return Err(corrupt("bit position out of range while decoding"));
        };
        let tid = (tword >> (tbit % 8)) & tmask;
        let raw = u32::try_from((cword >> (cbit % 8)) & cmask).unwrap_or(u32::MAX);
        bad |= (tid < floor) | (raw == u32::MAX);
        floor = tid + 1;
        f(tid, raw.wrapping_add(1));
    }
    if bad {
        return Err(corrupt("treeIds not strictly ascending or count overflow"));
    }
    Ok(())
}

/// [`for_each_row`] for any run: every value bounds-checked, every row
/// checked before it is reported.
fn checked_rows(
    s: &Sections<'_>,
    start: usize,
    end: usize,
    f: &mut impl FnMut(u64, u32),
) -> Result<()> {
    let (tw, cw) = (usize::from(s.tw), usize::from(s.cw));
    let mut prev: Option<u64> = None;
    for i in start..end {
        let tid = s.tid_bits.read(i * tw, s.tw)?;
        let count = u32::try_from(s.count_bits.read(i * cw, s.cw)?)
            .ok()
            .and_then(|c| c.checked_add(1))
            .ok_or_else(|| corrupt("count overflow"))?;
        if prev.is_some_and(|p| tid <= p) {
            return Err(corrupt("treeIds not strictly ascending"));
        }
        prev = Some(tid);
        f(tid, count);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pack pages
// ---------------------------------------------------------------------------

/// Total bounds-checked u16 read off a pack page (raw disk bytes).
// analyze: untrusted-source
fn pack_u16(p: &PageBuf, off: usize) -> Result<u16> {
    if off.checked_add(2).is_none_or(|e| e > PAGE_SIZE) {
        return Err(corrupt("pack read out of page bounds"));
    }
    Ok(p.get_u16(off))
}

/// Total bounds-checked u64 read off a pack page (raw disk bytes).
// analyze: untrusted-source
fn pack_u64(p: &PageBuf, off: usize) -> Result<u64> {
    if off.checked_add(8).is_none_or(|e| e > PAGE_SIZE) {
        return Err(corrupt("pack read out of page bounds"));
    }
    Ok(p.get_u64(off))
}

// analyze: untrusted-source
fn pack_used(p: &PageBuf) -> usize {
    usize::from(p.get_u16(4))
}

// analyze: untrusted-source
fn pack_entry_count(p: &PageBuf) -> usize {
    usize::from(p.get_u16(2))
}

/// The smallest possible pack entry: header, empty-payload prefix, CRC.
const MIN_ENTRY: usize = ENTRY_HDR + PREFIX + 4;

/// Reads and validates the pack-page header, returning the entry count
/// and the end of the used region. The count is clamped against the
/// smallest possible entry and the used bytes against the page capacity,
/// so a corrupt header can never size an allocation or bound a walk.
// analyze: validates(len|count)
fn pack_header(p: &PageBuf) -> Result<(usize, usize)> {
    if !is_pack(p) {
        return Err(corrupt("page is not a pack page"));
    }
    let used = pack_used(p);
    let n = pack_entry_count(p);
    if used > PACK_CAPACITY || n > PACK_CAPACITY / MIN_ENTRY {
        return Err(corrupt("pack page header out of range"));
    }
    Ok((n, PACK_HDR + used))
}

fn pack_init(p: &mut PageBuf) {
    p.put_slice(0, &[0u8; PAGE_SIZE]);
    p.put_u8(0, PACK_TAG);
}

fn is_pack(p: &PageBuf) -> bool {
    p.get_u8(0) == PACK_TAG
}

/// Walks the entries of a pack page, returning `(offset, total_len)` pairs.
///
/// Validates that every entry (header plus payload) lies inside the used
/// region and that the entries exactly fill it.
// analyze: validates(offset|len|count)
fn pack_entries(p: &PageBuf) -> Result<Vec<(usize, usize)>> {
    let (n, end) = pack_header(p)?;
    let mut out = Vec::with_capacity(n);
    let mut off = PACK_HDR;
    for _ in 0..n {
        let len_off = off
            .checked_add(34)
            .filter(|&o| o + 2 <= end)
            .ok_or_else(|| corrupt("pack entry header out of range"))?;
        let len = usize::from(pack_u16(p, len_off)?);
        let total = ENTRY_HDR
            .checked_add(len)
            .ok_or_else(|| corrupt("pack entry length overflow"))?;
        let entry_end = off
            .checked_add(total)
            .filter(|&e| e <= end)
            .ok_or_else(|| corrupt("pack entry exceeds used region"))?;
        out.push((off, total));
        off = entry_end;
    }
    if off != end {
        return Err(corrupt("pack page used-bytes mismatch"));
    }
    Ok(out)
}

/// Finds the entry keyed by its last row `key` on a pack page. Walks the
/// entries without materialising them (probe hot path): bounds checks
/// match [`pack_entries`], but the walk stops at the match.
// analyze: validates(offset|len|count)
fn pack_find(p: &PageBuf, key: (u64, u64)) -> Result<Option<(usize, usize)>> {
    let (n, end) = pack_header(p)?;
    let mut off = PACK_HDR;
    for _ in 0..n {
        let len_off = off
            .checked_add(34)
            .filter(|&o| o + 2 <= end)
            .ok_or_else(|| corrupt("pack entry header out of range"))?;
        let len = usize::from(pack_u16(p, len_off)?);
        let total = ENTRY_HDR
            .checked_add(len)
            .ok_or_else(|| corrupt("pack entry length overflow"))?;
        let entry_end = off
            .checked_add(total)
            .filter(|&e| e <= end)
            .ok_or_else(|| corrupt("pack entry exceeds used region"))?;
        if (pack_u64(p, off)?, pack_u64(p, off + 8)?) == key {
            return Ok(Some((off, total)));
        }
        off = entry_end;
    }
    Ok(None)
}

/// Appends an encoded entry to a pack page if it fits.
fn pack_try_add(p: &mut PageBuf, bytes: &[u8]) -> Result<bool> {
    let (n, end) = pack_header(p)?;
    let new_end = match end.checked_add(bytes.len()) {
        Some(e) if e <= PAGE_SIZE => e,
        _ => return Ok(false),
    };
    p.put_slice(end, bytes);
    let used16 =
        u16::try_from(new_end - PACK_HDR).map_err(|_| corrupt("pack page used-bytes overflow"))?;
    let n16 = u16::try_from(n + 1).map_err(|_| corrupt("pack entry count overflow"))?;
    p.put_u16(2, n16);
    p.put_u16(4, used16);
    Ok(true)
}

/// Removes the entry keyed `key` from a pack page.
fn pack_remove(p: &mut PageBuf, key: (u64, u64)) -> Result<()> {
    let (off, total) = find_entry(p, key)?;
    let (n, end) = pack_header(p)?;
    let tail = p.slice(off + total, end - (off + total)).to_vec();
    p.put_slice(off, &tail);
    // Zero the freed region so stale bytes never alias a live entry.
    let freed_at = off + tail.len();
    p.put_slice(freed_at, &vec![0u8; end - freed_at]);
    let used16 = u16::try_from(end - PACK_HDR - total)
        .map_err(|_| corrupt("pack page used-bytes overflow"))?;
    p.put_u16(2, u16::try_from(n.saturating_sub(1)).unwrap_or(0));
    p.put_u16(4, used16);
    Ok(())
}

/// Turns a non-zero fill-page meta slot (`id + 1` biased) into a checked
/// [`PageId`]. A raw slot value is attacker-controlled disk state: reject
/// anything that cannot be a page id rather than wrapping.
// analyze: validates(pageid)
fn page_id_from_meta(raw: u64) -> Result<PageId> {
    if raw == 0 || raw > u64::from(u32::MAX) {
        return Err(corrupt("fill page meta slot out of range"));
    }
    u32::try_from(raw - 1)
        .map(PageId)
        .map_err(|_| corrupt("fill page meta slot out of range"))
}

/// Stores an encoded block, preferring the current fill page.
///
/// Returns the pack page that received the entry and updates the fill-page
/// meta slot when a new page is opened.
fn place_block(pool: &BufferPool, bytes: &[u8]) -> Result<PageId> {
    let fill = pool.meta(SLOT_FILL);
    if fill != 0 {
        let id = page_id_from_meta(fill)?;
        let added = pool.with_page_mut(id, |p| {
            if is_pack(p) {
                pack_try_add(p, bytes)
            } else {
                Ok(false)
            }
        })??;
        if added {
            return Ok(id);
        }
    }
    let id = pool.allocate()?;
    block_value(id)?;
    let added = pool.with_page_mut(id, |p| {
        pack_init(p);
        pack_try_add(p, bytes)
    })??;
    if !added {
        return Err(corrupt("encoded block exceeds pack page capacity"));
    }
    pool.set_meta(SLOT_FILL, u64::from(id.0) + 1)?;
    Ok(id)
}

/// True when a pack page holds no entries. The raw count never leaves
/// this function — only the comparison does.
// analyze: validates(count)
fn pack_is_empty(p: &PageBuf) -> bool {
    is_pack(p) && pack_entry_count(p) == 0
}

/// Frees a pack page once its last entry is removed.
fn free_if_empty(pool: &BufferPool, id: PageId) -> Result<()> {
    let empty = pool.with_page(id, pack_is_empty)?;
    if empty {
        if pool.meta(SLOT_FILL) == u64::from(id.0) + 1 {
            pool.set_meta(SLOT_FILL, 0)?;
        }
        pool.free(id)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

/// What one build worker made of its run of [`MAX_BLOCK_ROWS`]-row groups,
/// in row order: the encoded blocks back to back, and one piece per
/// directory row.
#[derive(Default)]
struct Encoded {
    bytes: Vec<u8>,
    pieces: Vec<Piece>,
}

enum Piece {
    /// A row of a group too short for a block, already in directory form.
    Inline(DirRow),
    /// A block keyed by its last row. Its entry ends at this offset of
    /// [`Encoded::bytes`] and starts where the previous block ended.
    Block((u64, u64), usize),
}

/// Chunks and encodes each group of `groups`; CPU only, no page touched.
fn encode_groups(groups: &[&[Row]]) -> Result<Encoded> {
    let mut out = Encoded::default();
    for &group in groups {
        if group.len() < BLOCK_MIN {
            for &(k, c) in group {
                out.pieces.push(Piece::Inline((k, inline_value(c)?)));
            }
            continue;
        }
        for (chunk, plan) in chunk_rows(group)? {
            let last = chunk.last().map(|r| r.0).unwrap_or((0, 0));
            encode_planned(chunk, &plan, &mut out.bytes)?;
            out.pieces.push(Piece::Block(last, out.bytes.len()));
        }
    }
    Ok(out)
}

/// Bulk loads the inverted directory from `(gram, treeId) -> count` rows
/// sorted ascending: the row sequence is partitioned into
/// ~[`MAX_BLOCK_ROWS`]-row blocks across gram boundaries, a tail too short
/// for a block stays inline. Blocks fill private pack pages front to back;
/// the finished pages take one page run and go to the file once. Returns
/// the directory rows it loaded, for callers that mirror the directory in
/// memory.
///
/// The groups go to at most `threads` workers in contiguous runs, and the
/// calling thread packs their blocks in group order, so the pages do not
/// depend on `threads`. The directory's nodes are filled to `fill`.
pub(crate) fn bulk_load_inverted(
    pool: &BufferPool,
    dir: &BTree<'_>,
    rows: &[Row],
    threads: usize,
    fill: Fill,
) -> Result<Vec<DirRow>> {
    let groups: Vec<&[Row]> = rows.chunks(MAX_BLOCK_ROWS).collect();
    let encoded = pqgram_core::par::map_chunks(&groups, threads, encode_groups);
    // Until the run is allocated a block row carries the index of its
    // pack page in `packs` where the page id will go.
    let mut dir_rows: Vec<DirRow> = Vec::new();
    let mut packs: Vec<PageBuf> = Vec::new();
    for part in encoded {
        let part = part?;
        let mut start = 0;
        for piece in part.pieces {
            let (last, end) = match piece {
                Piece::Inline(row) => {
                    dir_rows.push(row);
                    continue;
                }
                Piece::Block(last, end) => (last, end),
            };
            let bytes = part
                .bytes
                .get(start..end)
                .ok_or_else(|| corrupt("encoded block out of range"))?;
            start = end;
            let fits = match packs.last_mut() {
                Some(fill) => pack_try_add(fill, bytes)?,
                None => false,
            };
            if !fits {
                let mut fresh = PageBuf::zeroed();
                pack_init(&mut fresh);
                if !pack_try_add(&mut fresh, bytes)? {
                    return Err(corrupt("encoded block exceeds pack page capacity"));
                }
                packs.push(fresh);
            }
            let index = u32::try_from(packs.len() - 1)
                .map_err(|_| corrupt("pack page count out of range"))?;
            dir_rows.push((last, block_value(PageId(index))?));
        }
    }
    let ids = pool.allocate_run(packs.len())?;
    let mut out = RunWriter::new(pool);
    for (&id, pack) in ids.iter().zip(&packs) {
        out.push(id, pack)?;
    }
    out.end_run()?;
    if let Some(fill) = ids.last() {
        pool.set_meta(SLOT_FILL, u64::from(fill.0) + 1)?;
    }
    for row in &mut dir_rows {
        if let DirValue::Block(PageId(index)) = dir_value(row.1) {
            let id = usize::try_from(index).ok().and_then(|i| ids.get(i));
            row.1 = block_value(*id.ok_or_else(|| corrupt("pack page run too short"))?)?;
        }
    }
    dir.bulk_load_with(dir_rows.iter().copied(), fill)?;
    Ok(dir_rows)
}

// ---------------------------------------------------------------------------
// Probing
// ---------------------------------------------------------------------------

/// Decode-side counters surfaced through `LookupStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ProbeCounters {
    /// Posting rows materialised (inline rows plus decoded block rows).
    pub rows: u64,
    /// Posting blocks a gram decoded rows from, each counted when the
    /// first gram decodes it and again only after the probe's
    /// [`BlockCache`] has moved on to another block and come back. A block
    /// fetched and then skipped is not counted here.
    pub blocks_decoded: u64,
    /// Boundary blocks — keyed past the probed gram — that their header's
    /// first key ruled out, once per gram that ruled one out.
    pub blocks_skipped: u64,
    /// Entry bytes (header, payload, CRC) of the blocks counted in
    /// `blocks_decoded`.
    pub bytes_decoded: u64,
}

impl std::ops::AddAssign for ProbeCounters {
    fn add_assign(&mut self, other: ProbeCounters) {
        self.rows += other.rows;
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_skipped += other.blocks_skipped;
        self.bytes_decoded += other.bytes_decoded;
    }
}

/// Reads and decodes the block keyed `key` from a pack page.
pub(crate) fn read_block(
    pool: &BufferPool,
    page: PageId,
    key: (u64, u64),
    counters: &mut ProbeCounters,
) -> Result<Decoded> {
    let bytes = pool.with_page(page, |p| {
        let (off, total) = find_entry(p, key)?;
        Ok::<_, StoreError>(p.slice(off, total).to_vec())
    })??;
    counters.blocks_decoded += 1;
    counters.bytes_decoded += u64::try_from(bytes.len()).unwrap_or(u64::MAX);
    let decoded = decode_block(&bytes)?;
    if decoded.last != key {
        return Err(corrupt("pack entry key disagrees with directory"));
    }
    Ok(decoded)
}

/// Checks a whole pack page — the entry chain exactly fills the used
/// region, and every entry passes the layout parse and its CRC — and
/// hands the page back as the proof.
// analyze: validates(offset|len|count)
fn validated_pack_page(p: Arc<PageBuf>) -> Result<Arc<PageBuf>> {
    for (off, total) in pack_entries(&p)? {
        let entry = p.slice(off, total);
        parse_layout(entry)?;
        check_crc(entry)?;
    }
    Ok(p)
}

/// Pins pack page `page` for in-place decoding. The probe path's
/// invariant: *no decoder reads pack-entry bytes that have not passed
/// layout + CRC validation since the page entered its buffer frame or was
/// last written by this process.* The frame remembers a passed
/// validation ([`BufferPool::mark_validated`]); a write, an eviction or
/// an uncached read forgets it, and the page is validated again here.
// analyze: validates(offset|len|count)
fn pin_pack(pool: &BufferPool, page: PageId) -> Result<Arc<PageBuf>> {
    let pinned = pool.pin(page)?;
    if pinned.validated {
        return Ok(pinned.page);
    }
    let buf = validated_pack_page(pinned.page)?;
    pool.mark_validated(page, &buf)?;
    Ok(buf)
}

/// Where the entry keyed `key` sits on a validated pack page.
fn find_entry(p: &PageBuf, key: (u64, u64)) -> Result<(usize, usize)> {
    pack_find(p, key)?.ok_or_else(|| corrupt("directory points at a missing pack entry"))
}

/// One posting block pinned for decoding in place: the validated page,
/// the entry's extent on it and its parsed [`Layout`].
pub(crate) struct PinnedBlock {
    tag: (u32, (u64, u64)),
    page: Arc<PageBuf>,
    off: usize,
    len: usize,
    layout: Layout,
}

impl PinnedBlock {
    /// The block keyed `key` on a pack page that passed
    /// [`validated_pack_page`]: the bounds-checked entry lookup plus the
    /// layout parse.
    // analyze: validates(offset|len|count)
    fn on_page(page: Arc<PageBuf>, id: PageId, key: (u64, u64)) -> Result<PinnedBlock> {
        let (off, len) = find_entry(&page, key)?;
        let layout = parse_layout(page.slice(off, len))?;
        Ok(PinnedBlock {
            tag: (id.0, key),
            page,
            off,
            len,
            layout,
        })
    }

    /// Streams the rows of `gram`, decoded selectively off the pinned page.
    fn for_each_gram(
        &self,
        gram: u64,
        counters: &mut ProbeCounters,
        f: &mut impl FnMut(u64, u32),
    ) -> Result<()> {
        let s = sections_of(self.page.slice(self.off, self.len), &self.layout)?;
        for_each_gram_in_sections(&s, gram, counters, f)
    }
}

/// Fetches the block keyed `key` on `page` for decoding in place — what a
/// [`BlockCache`] miss costs: a validated pin, the entry lookup and the
/// layout parse.
pub(crate) fn fetch_block(pool: &BufferPool, page: PageId, key: (u64, u64)) -> Result<PinnedBlock> {
    PinnedBlock::on_page(pin_pack(pool, page)?, page, key)
}

/// The probe path's decode of `gram` out of one encoded entry, laid out as
/// the only entry of a pack page: page validation, entry lookup, layout
/// parse and the selective in-place decode, exactly as a [`BlockCache`]
/// miss runs them. The fuzz harness's door to `Arc<PageBuf>` + [`Layout`]
/// decoding; same contract as [`decode_block`].
pub(crate) fn decode_gram_in_place(bytes: &[u8], gram: u64) -> Result<Vec<(u64, u32)>> {
    let mut page = PageBuf::zeroed();
    pack_init(&mut page);
    if !pack_try_add(&mut page, bytes)? {
        return Err(corrupt("encoded block exceeds pack page capacity"));
    }
    let page = validated_pack_page(Arc::new(page))?;
    let key = (pack_u64(&page, PACK_HDR)?, pack_u64(&page, PACK_HDR + 8)?);
    let block = PinnedBlock::on_page(page, PageId::NONE, key)?;
    let mut rows = Vec::new();
    block.for_each_gram(gram, &mut ProbeCounters::default(), &mut |t, c| {
        rows.push((t, c))
    })?;
    Ok(rows)
}

/// Two-block memo for probe loops: the block last decoded, and the block
/// last fetched that no gram has decoded yet (a boundary block its header
/// ruled out). Query grams are probed in ascending order and multi-gram
/// blocks hold ~[`MAX_BLOCK_ROWS`] rows, so consecutive grams usually land
/// in the same block, and the boundary block one gram rules out is the
/// block the next gram decodes: a block is pinned, found on its page and
/// layout-parsed once however many grams look at it.
#[derive(Default)]
pub(crate) struct BlockCache {
    decoded: Option<PinnedBlock>,
    fetched: Option<PinnedBlock>,
}

impl BlockCache {
    /// Streams the rows of `gram` from the block keyed `key` on `page`,
    /// decoding them selectively, in place, off the pinned page — unless
    /// the block is keyed past the gram and its header says it also starts
    /// past it, which counts it skipped. A block counts as decoded when a
    /// gram first decodes it, not when it is fetched.
    pub(crate) fn for_each_gram(
        &mut self,
        pool: &BufferPool,
        page: PageId,
        key: (u64, u64),
        gram: u64,
        counters: &mut ProbeCounters,
        f: &mut impl FnMut(u64, u32),
    ) -> Result<()> {
        let tag = (page.0, key);
        // Keyed past the gram and starting past it: no row of the gram.
        let past = |b: &PinnedBlock| key.0 != gram && b.layout.first.0 > gram;
        let block = match &self.decoded {
            Some(b) if b.tag == tag => b,
            _ => {
                let b = match self.fetched.take() {
                    Some(b) if b.tag == tag => b,
                    other => self.fetch(pool, page, key, other.as_ref())?,
                };
                if past(&b) {
                    counters.blocks_skipped += 1;
                    self.fetched = Some(b);
                    return Ok(());
                }
                counters.blocks_decoded += 1;
                counters.bytes_decoded += u64::try_from(b.len).unwrap_or(u64::MAX);
                self.decoded.insert(b)
            }
        };
        if past(block) {
            counters.blocks_skipped += 1;
            return Ok(());
        }
        block.for_each_gram(gram, counters, f)
    }

    /// Fetches the block keyed `key` on `page`. A page the memo already
    /// holds (`other` is the slot the caller emptied) was validated when it
    /// was pinned, and is used again instead of going back to the pool.
    fn fetch(
        &self,
        pool: &BufferPool,
        page: PageId,
        key: (u64, u64),
        other: Option<&PinnedBlock>,
    ) -> Result<PinnedBlock> {
        match [self.decoded.as_ref(), other]
            .into_iter()
            .flatten()
            .find(|b| b.tag.0 == page.0)
        {
            Some(b) => PinnedBlock::on_page(Arc::clone(&b.page), page, key),
            None => fetch_block(pool, page, key),
        }
    }
}

/// Reads the first `(gram, treeId)` of the block keyed `key` straight from
/// its entry header — maintenance's placement test ahead of a full
/// [`read_block`].
// analyze: untrusted-source
pub(crate) fn peek_block_first(
    pool: &BufferPool,
    page: PageId,
    key: (u64, u64),
) -> Result<(u64, u64)> {
    pool.with_page(page, |p| entry_first(p, key))?
}

/// The first `(gram, treeId)` field of the entry keyed `key`.
// analyze: untrusted-source
fn entry_first(p: &PageBuf, key: (u64, u64)) -> Result<(u64, u64)> {
    let (off, _) = find_entry(p, key)?;
    Ok((pack_u64(p, off + 16)?, pack_u64(p, off + 24)?))
}

/// One directory row: `((gram, treeId), tagged value)`.
pub(crate) type DirRow = ((u64, u64), u32);

/// A forward cursor over one source's inverted directory — the B+-tree's
/// leaf chain, or the resident mirror of a file no write has touched — for
/// a probe that visits its grams in ascending order.
pub(crate) enum DirCursor<'a> {
    /// A file written in place since its build or open: the directory
    /// B+-tree.
    Tree(LeafCursor<'a>),
    /// A file no write has touched: the in-memory mirror of its directory.
    Fence(FenceCursor<'a>),
}

impl<'a> DirCursor<'a> {
    /// A cursor over `fence` when the source has one, else over the
    /// directory relation of `pool`.
    pub(crate) fn open(pool: &'a BufferPool, fence: Option<&'a Fence>) -> Result<DirCursor<'a>> {
        Ok(match fence {
            Some(f) => DirCursor::Fence(f.cursor()),
            None => DirCursor::Tree(BTree::open_existing(pool, SLOT_INV)?.cursor()),
        })
    }

    /// Appends the directory rows that can hold postings of `gram`: every
    /// row keyed inside the gram plus the first row keyed past it (whose
    /// block may still start inside the gram). The one directory visit a
    /// gram gets: [`estimate_rows`] and [`for_each_posting`] both consume
    /// these rows. Grams must be visited in ascending order.
    pub(crate) fn visit(&mut self, gram: u64, out: &mut Vec<DirRow>) -> Result<()> {
        match self {
            DirCursor::Tree(c) => c.seek((gram, 0), |k, v| {
                out.push((k, v));
                k.0 == gram
            }),
            DirCursor::Fence(c) => {
                c.visit(gram, out);
                Ok(())
            }
        }
    }
}

/// Row estimate for `gram`'s postings from its visited directory rows —
/// no block decode, no pack-page reads. Inline rows count one (exact).
/// Blocks are keyed by their *last* row and may span gram boundaries, so
/// only blocks beyond the first keyed inside the gram are known to start
/// inside it too: those count the per-block cap, while the first such
/// block and the boundary block just past the gram (each possibly holding
/// only a handful of this gram's rows) count [`BLOCK_MIN`]. Deliberately
/// an *estimate*, not a bound: it feeds the lookup planner's skip-cost
/// ordering only, and any value is correct — over-counting a straddled
/// gram would make the planner skip it and then pay more in compensation
/// reads than the probe it avoided.
pub(crate) fn estimate_rows(rows: &[DirRow], gram: u64) -> u64 {
    let cap = u64::try_from(MAX_BLOCK_ROWS).unwrap_or(u64::MAX);
    let straddle = u64::try_from(BLOCK_MIN).unwrap_or(u64::MAX);
    let mut est = 0u64;
    let mut blocks_inside = 0u64;
    for &((g, _), raw) in rows {
        match dir_value(raw) {
            DirValue::Inline(_) => est += u64::from(g == gram),
            DirValue::Block(_) if g == gram => {
                est += if blocks_inside == 0 { straddle } else { cap };
                blocks_inside += 1;
            }
            DirValue::Block(_) => est += straddle,
        }
    }
    est
}

/// Streams every posting of `gram`, ascending by treeId, from its visited
/// directory rows: inline rows straight from the directory, blocks decoded
/// in place through `cache`. The boundary row keyed past the gram can only
/// contribute as a block, and its header decides that without a decode.
pub(crate) fn for_each_posting(
    pool: &BufferPool,
    rows: &[DirRow],
    gram: u64,
    cache: &mut BlockCache,
    counters: &mut ProbeCounters,
    f: &mut impl FnMut(u64, u32),
) -> Result<()> {
    for &((g, t), raw) in rows {
        match dir_value_checked(raw)? {
            DirValue::Inline(c) => {
                if g == gram {
                    counters.rows += 1;
                    f(t, c);
                }
            }
            DirValue::Block(page) => cache.for_each_gram(pool, page, (g, t), gram, counters, f)?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Point maintenance
// ---------------------------------------------------------------------------

/// Removes the entry keyed `old_key` (on `old_page`) and re-inserts
/// `rows` as one or more freshly placed blocks. The general rewrite path:
/// handles key changes, page changes, and splits in one sweep.
fn reinsert_chunks(
    pool: &BufferPool,
    dir: &BTree<'_>,
    old_key: (u64, u64),
    old_page: PageId,
    rows: &[Row],
) -> Result<()> {
    pool.with_page_mut(old_page, |p| pack_remove(p, old_key))??;
    dir.delete(old_key)?;
    insert_blocks(pool, dir, rows)?;
    free_if_empty(pool, old_page)?;
    Ok(())
}

/// Chunks `rows`, places one block per chunk and inserts its directory row.
fn insert_blocks(pool: &BufferPool, dir: &BTree<'_>, rows: &[Row]) -> Result<()> {
    let mut bytes = Vec::new();
    for (chunk, plan) in chunk_rows(rows)? {
        let last = chunk.last().map(|r| r.0).unwrap_or((0, 0));
        bytes.clear();
        encode_planned(chunk, &plan, &mut bytes)?;
        let page = place_block(pool, &bytes)?;
        dir.insert(last, block_value(page)?)?;
    }
    Ok(())
}

/// Rewrites the block keyed `old_key` with new rows, updating the
/// directory when the key or the pack page changes and splitting when the
/// rows no longer fit one block. `rows` must be non-empty.
fn rewrite_block(
    pool: &BufferPool,
    dir: &BTree<'_>,
    old_key: (u64, u64),
    old_page: PageId,
    rows: &[Row],
) -> Result<()> {
    let plan = if rows.len() <= MAX_BLOCK_ROWS {
        Some(plan_block(rows)?).filter(|plan| plan.total <= PACK_CAPACITY)
    } else {
        None
    };
    let Some(plan) = plan else {
        return reinsert_chunks(pool, dir, old_key, old_page, rows);
    };
    let new_key = rows.last().map(|r| r.0).unwrap_or((0, 0));
    let mut bytes = Vec::with_capacity(plan.total);
    encode_planned(rows, &plan, &mut bytes)?;
    // Try to reuse the slot on the same page: remove then re-add.
    let readded = pool.with_page_mut(old_page, |p| {
        pack_remove(p, old_key)?;
        pack_try_add(p, &bytes)
    })??;
    let page = if readded {
        old_page
    } else {
        let page = place_block(pool, &bytes)?;
        free_if_empty(pool, old_page)?;
        page
    };
    if new_key != old_key {
        dir.delete(old_key)?;
        dir.insert(new_key, block_value(page)?)?;
    } else if page != old_page {
        dir.insert(old_key, block_value(page)?)?;
    }
    Ok(())
}

/// Sets the posting `(gram, tid)`: `Some(count)` inserts or overwrites it,
/// `None` removes it. Returns whether the posting was stored before.
///
/// Runs inside the caller's open transaction. A posting inside a block's
/// row range is edited in its block. A new posting outside every block
/// goes inline, and a long enough run of consecutive inline postings is
/// then collapsed into a block; overwriting an inline posting collapses
/// nothing.
pub(crate) fn set_posting(
    pool: &BufferPool,
    dir: &BTree<'_>,
    gram: u64,
    tid: u64,
    count: Option<u32>,
) -> Result<bool> {
    let inline = count.map(inline_value).transpose()?;
    let key = (gram, tid);
    // The first directory entry at or after the posting.
    let mut next = None;
    dir.cursor().seek(key, |k, v| {
        next = Some((k, v));
        false
    })?;
    let block = match next {
        Some((at, raw)) => match dir_value(raw) {
            DirValue::Inline(_) if at == key => {
                match inline {
                    Some(v) => dir.insert(key, v)?,
                    None => dir.delete(key)?,
                };
                return Ok(true);
            }
            // A block that starts past the posting leaves it in the gap
            // before the block.
            DirValue::Block(page) if peek_block_first(pool, page, at)? <= key => Some((at, page)),
            _ => None,
        },
        None => None,
    };
    let Some((at, page)) = block else {
        if let Some(v) = inline {
            dir.insert(key, v)?;
            maybe_collapse(pool, dir, gram)?;
        }
        return Ok(false);
    };
    let mut rows = read_block(pool, page, at, &mut ProbeCounters::default())?.rows;
    let found = rows.binary_search_by_key(&key, |r| r.0);
    match (found, count) {
        (Ok(i), Some(c)) => {
            if let Some(r) = rows.get_mut(i) {
                r.1 = c;
            }
        }
        (Err(i), Some(c)) => rows.insert(i, (key, c)),
        (Ok(i), None) => {
            rows.remove(i);
        }
        (Err(_), None) => return Ok(false),
    }
    if rows.is_empty() {
        pool.with_page_mut(page, |p| pack_remove(p, at))??;
        free_if_empty(pool, page)?;
        dir.delete(at)?;
    } else {
        rewrite_block(pool, dir, at, page, &rows)?;
    }
    Ok(found.is_ok())
}

/// Collapses a run of consecutive inline postings starting at or after
/// `(gram, 0)` into a block once it reaches [`COLLAPSE_MIN`] rows,
/// bounding directory growth under point inserts between bulk rebuilds.
/// Runs may cross gram boundaries — blocks are not per-gram.
fn maybe_collapse(pool: &BufferPool, dir: &BTree<'_>, gram: u64) -> Result<()> {
    let mut run: Vec<Row> = Vec::new();
    let mut best: Option<Vec<Row>> = None;
    dir.for_each_range((gram, 0), (u64::MAX, u64::MAX), |k, v| {
        match dir_value(v) {
            DirValue::Inline(c) => {
                run.push((k, c));
                if run.len() >= MAX_BLOCK_ROWS {
                    best = Some(std::mem::take(&mut run));
                    return false;
                }
            }
            DirValue::Block(_) => {
                if run.len() >= COLLAPSE_MIN {
                    best = Some(std::mem::take(&mut run));
                }
                return false;
            }
        }
        true
    })?;
    if best.is_none() && run.len() >= COLLAPSE_MIN {
        best = Some(run);
    }
    let Some(rows) = best else { return Ok(()) };
    // Delete every inline key of the run, then insert one block row per
    // chunk (inline keys never sit inside a block's row range, so the new
    // blocks stay disjoint from their neighbours).
    let ops: Vec<((u64, u64), Option<u32>)> = rows.iter().map(|&(k, _)| (k, None)).collect();
    dir.apply_batch_sorted(ops)?;
    insert_blocks(pool, dir, &rows)
}

// ---------------------------------------------------------------------------
// Verification support
// ---------------------------------------------------------------------------

/// Expands every directory row of the inverted relation into posting rows,
/// verifying block structure along the way. Returns the posting rows (in
/// directory order), the number of blocks, and the distinct pack pages.
pub(crate) fn expand_all(
    pool: &BufferPool,
    dir: &BTree<'_>,
) -> Result<(Vec<Row>, u64, Vec<PageId>)> {
    let mut dir_rows: Vec<((u64, u64), u32)> = Vec::new();
    dir.for_each_range((u64::MIN, u64::MIN), (u64::MAX, u64::MAX), |k, v| {
        dir_rows.push((k, v));
        true
    })?;
    let mut rows = Vec::new();
    let mut blocks = 0u64;
    let mut pages: Vec<PageId> = Vec::new();
    let mut counters = ProbeCounters::default();
    for (key, raw) in dir_rows {
        match dir_value_checked(raw)? {
            DirValue::Inline(c) => {
                rows.push((key, c));
            }
            DirValue::Block(page) => {
                if !pages.contains(&page) {
                    // First visit: walk the whole entry chain, validating
                    // that it exactly fills the page's used region —
                    // [`pack_find`] alone stops at its match.
                    pool.with_page(page, pack_entries)??;
                    pages.push(page);
                }
                let decoded = read_block(pool, page, key, &mut counters)?;
                blocks += 1;
                rows.extend(decoded.rows);
            }
        }
    }
    Ok((rows, blocks, pages))
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests read the committed decode corpus and corrupt pack pages on disk"
)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    /// `n` rows spread over `grams` distinct grams with the given treeId
    /// stride.
    fn sample_rows(n: u64, grams: u64, stride: u64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let g = 1000 + (i % grams.max(1)) * 77;
                let t = 100 + (i / grams.max(1)) * stride;
                ((g, t), u32::try_from(i % 7 + 1).unwrap_or(1))
            })
            .collect::<Vec<_>>()
            .tap_sort()
    }

    trait TapSort {
        fn tap_sort(self) -> Self;
    }
    impl TapSort for Vec<Row> {
        fn tap_sort(mut self) -> Self {
            self.sort_unstable_by_key(|&(k, _)| k);
            self
        }
    }

    #[test]
    fn roundtrip_dense_and_sparse() {
        for grams in [1u64, 2, 5, 64] {
            for stride in [1u64, 13, 1_000_000] {
                for n in [1u64, 2, 7, 64, 256] {
                    let rows = sample_rows(n, grams.min(n), stride);
                    let bytes = encode_block(&rows).unwrap();
                    let back = decode_block(&bytes).unwrap();
                    assert_eq!(back.rows, rows, "grams {grams} stride {stride} n {n}");
                    assert_eq!(back.first, rows.first().unwrap().0);
                    assert_eq!(back.last, rows.last().unwrap().0);
                }
            }
        }
    }

    /// The block entry of `rows` written one bit at a time: the header as
    /// the encoder lays it out, then every section value bit by bit into
    /// a zeroed buffer, then the CRC.
    fn bit_by_bit(rows: &[Row]) -> Vec<u8> {
        let plan = plan_block(rows).unwrap();
        let (first, last) = (rows[0].0, rows[rows.len() - 1].0);
        let mut out = Vec::new();
        for v in [last.0, last.1, first.0, first.1] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [rows.len(), plan.total - ENTRY_HDR, plan.grams] {
            out.extend_from_slice(&u16::try_from(v).unwrap().to_le_bytes());
        }
        out.extend_from_slice(&[plan.gw, plan.rw, plan.tw, plan.cw]);
        let mut bits = vec![false; 8 * (plan.total - 4 - out.len())];
        let mut put = |at: usize, value: u64, width: u8| {
            for b in 0..usize::from(width) {
                bits[at + b] = (value >> b) & 1 == 1;
            }
        };
        let low_at = 8 * plan.gram_high_bits.div_ceil(8);
        let run_at = low_at + 8 * section_bytes(plan.grams, plan.gw);
        let tid_at = run_at + 8 * section_bytes(plan.grams, plan.rw);
        let count_at = tid_at + 8 * section_bytes(rows.len(), plan.tw);
        let (tw, cw, gw, rw) = (plan.tw, plan.cw, plan.gw, plan.rw);
        let mut gram_index = 0;
        for (i, &((gram, t), c)) in rows.iter().enumerate() {
            put(tid_at + i * usize::from(tw), t, tw);
            put(count_at + i * usize::from(cw), u64::from(c - 1), cw);
            if rows.get(i + 1).is_some_and(|next| next.0 .0 == gram) {
                continue;
            }
            let delta = gram - first.0;
            let high = usize::try_from(delta >> gw).unwrap() + gram_index;
            put(high, 1, 1);
            put(
                low_at + gram_index * usize::from(gw),
                delta & low_mask(gw),
                gw,
            );
            put(
                run_at + gram_index * usize::from(rw),
                u64::try_from(i).unwrap(),
                rw,
            );
            gram_index += 1;
        }
        for byte in bits.chunks(8) {
            out.push(
                byte.iter()
                    .rev()
                    .fold(0, |acc, &bit| (acc << 1) | u8::from(bit)),
            );
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// The encoder's word writes leave the bytes a bit-at-a-time writer
    /// leaves, at every tree-id width up to 64 (64 takes the `u128`
    /// path) and every count width up to 32 (counts up to `u32::MAX`);
    /// the count section ends in the entry's last 8 bytes, where every
    /// write falls back too. Every block decodes back to its rows.
    #[test]
    fn the_word_writer_encodes_what_a_bit_writer_does() {
        let top = |width: u32| u64::MAX.checked_shr(64 - width).unwrap_or(0);
        check::cases("the_word_writer_encodes_what_a_bit_writer_does", 200, |g| {
            let tw: u32 = g.random_range(0..=64);
            let cw: u32 = g.random_range(0..=32);
            let step = 1u64 << g.random_range(0..50);
            let mut rows: Vec<Row> = Vec::new();
            let mut gram = g.random_range(0..1u64 << 61);
            while rows.is_empty() || (rows.len() < 120 && g.random_range(0..12) > 0) {
                gram += g.random_range(1u64..=4) * step;
                let mut tids = check::vec(g, 1..6, |g| g.next_u64() & top(tw));
                if rows.is_empty() {
                    tids.push(top(tw));
                }
                tids.sort_unstable();
                tids.dedup();
                for t in tids {
                    let c = g.next_u64() & top(cw);
                    rows.push(((gram, t), u32::try_from(c + 1).unwrap_or(u32::MAX)));
                }
            }
            rows[0].1 = u32::try_from(top(cw) + 1).unwrap_or(u32::MAX);
            let bytes = encode_block(&rows).unwrap();
            let widths = [tw, cw].map(|w| u8::try_from(w).unwrap());
            assert_eq!(bytes[ENTRY_HDR + 4..ENTRY_HDR + 6], widths);
            assert_eq!(bytes, bit_by_bit(&rows), "tw {tw} cw {cw}");
            assert_eq!(decode_block(&bytes).unwrap().rows, rows);
        });
    }

    #[test]
    fn single_gram_dense_runs_compress_hard() {
        // 256 postings of one gram over 1000 consecutive trees with unit
        // counts: the dominant shape in a bulk-loaded skewed collection.
        let rows: Vec<Row> = (0..256u64).map(|t| ((42, t * 3), 1)).collect();
        let bytes = encode_block(&rows).unwrap();
        // tids fit 10 bits each; everything else is near-zero overhead.
        assert!(
            bytes.len() < ENTRY_HDR + PREFIX + 4 + 256 * 2,
            "len {}",
            bytes.len()
        );
        assert_eq!(decode_block(&bytes).unwrap().rows, rows);
    }

    /// Regression: an inflated on-disk row count must be rejected by the
    /// layout parse — before it can size any decode allocation. The cap
    /// is structural (`MAX_BLOCK_ROWS`), not the CRC: a forged checksum
    /// changes nothing.
    #[test]
    fn inflated_row_count_is_rejected_before_allocating() {
        let rows = sample_rows(64, 8, 13);
        let Ok(mut bytes) = encode_block(&rows) else {
            panic!("fixture block must encode");
        };
        for n in [0u16, 257, 4096, u16::MAX] {
            bytes[32..34].copy_from_slice(&n.to_le_bytes());
            let crc = crate::crc::crc32(&bytes[..bytes.len() - 4]);
            let at = bytes.len() - 4;
            bytes[at..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                decode_block(&bytes).is_err(),
                "row count {n} must be out of range"
            );
        }
    }

    /// Regression: a pack page advertising more entries than could
    /// physically fit must be rejected by the header clamp — previously
    /// `pack_entries` sized a `Vec` straight from the raw u16 (up to
    /// ~64 Ki spurious capacity per corrupted page).
    #[test]
    fn inflated_pack_entry_count_is_rejected_by_the_header_clamp() {
        let mut p = PageBuf::zeroed();
        pack_init(&mut p);
        assert_eq!(pack_header(&p).ok(), Some((0, PACK_HDR)));
        p.put_u16(2, u16::MAX); // entry count: impossible
        assert!(pack_header(&p).is_err());
        assert!(pack_entries(&p).is_err());
        p.put_u16(2, 0);
        p.put_u16(4, u16::MAX); // used bytes: beyond the page
        assert!(pack_header(&p).is_err());
        // Largest consistent claim: capacity full of minimal entries.
        p.put_u16(2, u16::try_from(PACK_CAPACITY / MIN_ENTRY).unwrap_or(0));
        p.put_u16(4, u16::try_from(PACK_CAPACITY).unwrap_or(0));
        assert!(pack_header(&p).is_ok());
    }

    #[test]
    fn encode_rejects_bad_input() {
        assert!(encode_block(&[]).is_err());
        assert!(encode_block(&[((1, 5), 1), ((1, 5), 1)]).is_err());
        assert!(encode_block(&[((1, 5), 1), ((1, 4), 1)]).is_err());
        assert!(encode_block(&[((2, 5), 1), ((1, 9), 1)]).is_err());
        assert!(encode_block(&[((1, 5), 0)]).is_err());
        let too_many: Vec<Row> = (0..257u64).map(|i| ((1, i), 1)).collect();
        assert!(encode_block(&too_many).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rows = sample_rows(50, 7, 17);
        let bytes = encode_block(&rows).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_block(&bad) {
                Err(StoreError::Corrupt(_)) => {}
                Err(e) => panic!("flip at bit {bit}: unexpected error {e:?}"),
                Ok(d) => {
                    // A flip that survives CRC must not silently change the
                    // decoded rows (CRC-32 catches all single-bit flips, so
                    // this should be unreachable).
                    panic!("flip at bit {bit} went undetected: {d:?}");
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let rows = sample_rows(30, 4, 5);
        let bytes = encode_block(&rows).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_block(&bytes[..cut]), Err(StoreError::Corrupt(_))),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn valid_crc_but_non_monotone_is_detected() {
        // Craft an entry whose header says first > last but with a correct
        // CRC: structural checks must still reject it.
        let rows = sample_rows(10, 3, 3);
        let mut bytes = encode_block(&rows).unwrap();
        // Swap the last/first header pairs, then fix up the CRC.
        let last: [u8; 16] = bytes[0..16].try_into().unwrap();
        let first: [u8; 16] = bytes[16..32].try_into().unwrap();
        bytes[0..16].copy_from_slice(&first);
        bytes[16..32].copy_from_slice(&last);
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(decode_block(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn decode_never_panics_on_random_bytes() {
        // Deterministic xorshift fuzzing: decode must return, never panic.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for len in [0usize, 1, 27, 42, 46, 100, 500, 4000] {
            for _ in 0..50 {
                let mut bytes = vec![0u8; len];
                for b in bytes.iter_mut() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *b = u8::try_from(state & 0xff).unwrap_or(0);
                }
                let _ = decode_block(&bytes);
            }
        }
    }

    #[test]
    fn adversarial_rows_chunk_to_fitting_blocks() {
        // 256 rows of distinct far-apart grams, 64-bit treeIds and max
        // counts: too big for one pack page, so chunking must split them
        // while preserving order and content.
        let rows: Vec<Row> = (0..256u64)
            .map(|i| {
                (
                    (i * ((1u64 << 50) / 256), u64::MAX - 1024 + i),
                    u32::MAX - 1,
                )
            })
            .collect();
        let chunks = chunk_rows(&rows).unwrap();
        assert!(chunks.len() >= 2, "adversarial rows must split");
        let mut rejoined = Vec::new();
        for (chunk, _) in chunks {
            let bytes = encode_block(chunk).unwrap();
            assert!(bytes.len() <= PACK_CAPACITY, "len {}", bytes.len());
            rejoined.extend(decode_block(&bytes).unwrap().rows);
        }
        assert_eq!(rejoined, rows);
    }

    #[test]
    fn typical_mixed_block_fits_a_pack_page() {
        // The bulk-load shape: 256 rows over a few dozen grams, small ids.
        let rows = sample_rows(256, 40, 2);
        let bytes = encode_block(&rows).unwrap();
        assert!(bytes.len() <= PACK_CAPACITY, "len {}", bytes.len());
        assert_eq!(decode_block(&bytes).unwrap().rows, rows);
    }

    // -----------------------------------------------------------------
    // Reader equivalence: the word path of `BitReader::read` against the
    // byte path, the word rows of `for_each_row` against the checked rows.
    // -----------------------------------------------------------------

    #[test]
    fn word_reads_equal_byte_reads_at_every_width_offset_and_tail() {
        let bytes: Vec<u8> = (0u8..32)
            .map(|i| i.wrapping_mul(151).wrapping_add(43))
            .collect();
        let reader = BitReader { bytes: &bytes };
        let bit = |pos: usize| u64::from(bytes[pos / 8] >> (pos % 8) & 1);
        for width in 0..=64u8 {
            for offset in 0..8usize {
                for left in 0..=9usize {
                    let pos = (bytes.len() - left) * 8 + offset;
                    let what = format!("width {width} offset {offset} with {left} bytes left");
                    let fits = offset + usize::from(width) <= left * 8;
                    let naive = (0..usize::from(width)).fold(0u64, |v, i| {
                        if fits {
                            v | bit(pos + i) << i
                        } else {
                            v
                        }
                    });
                    match (reader.read(pos, width), reader.read_tail(pos, width)) {
                        (Ok(word), Ok(tail)) => {
                            assert!(fits || width == 0, "{what}: read past the slice");
                            assert_eq!((word, tail), (naive, naive), "{what}");
                        }
                        (Err(_), Err(_)) => assert!(!fits, "{what}: both paths refused"),
                        (word, tail) => panic!("{what}: paths disagree: {word:?} vs {tail:?}"),
                    }
                }
            }
        }
    }

    /// A block whose first gram holds a run of `run` rows with treeIds
    /// exactly `tw` bits wide, then `pad` single-row grams, counts exactly
    /// `cw` bits wide. `None` where the shape cannot exist (`run` distinct
    /// treeIds need `run <= 2^tw`).
    fn run_block(tw: u8, cw: u8, run: u64, pad: u64) -> Option<Vec<Row>> {
        let top = low_mask(tw);
        if top < run - 1 {
            return None;
        }
        let wide = if cw == 0 {
            1
        } else {
            u32::try_from((1u64 << (cw - 1)) + 1).ok()?
        };
        let mut rows: Vec<Row> = (0..run)
            .map(|i| {
                (
                    (500, top - (run - 1) + i),
                    if i % 3 == 0 { wide } else { 1 },
                )
            })
            .collect();
        rows.extend((0..pad).map(|j| ((501 + j, top >> (j % 2)), wide)));
        Some(rows)
    }

    #[test]
    fn word_rows_equal_checked_rows_up_to_the_section_tail() -> Result<()> {
        for tw in [1u8, 9, 56, 57, 64] {
            for cw in [0u8, 1, 17, 32] {
                for run in [1u64, 2, 256] {
                    // Enough single-row grams behind the run to move its
                    // end from the section tail to nine bytes before it.
                    for pad in 0..=(72 / u64::from(tw) + 1).min(256 - run) {
                        let Some(rows) = run_block(tw, cw, run, pad) else {
                            continue;
                        };
                        let what = format!("tw {tw} cw {cw} run {run} pad {pad}");
                        let bytes = encode_block(&rows)?;
                        let s = parse_sections(&bytes)?;
                        assert_eq!((s.tw, s.cw), (tw, cw), "{what}: widths");
                        let n = rows.len();
                        let run = usize::try_from(run).unwrap_or(n);
                        let expect: Vec<(u64, u32)> =
                            rows.iter().map(|&((_, t), c)| (t, c)).collect();
                        // The run, then every single-row gram behind it.
                        let runs = std::iter::once((0, run)).chain((run..n).map(|i| (i, i + 1)));
                        for (start, end) in runs {
                            // A word run ends eight bytes before the tail
                            // of both sections, and its treeIds fit 56 bits.
                            let clear = |width: u8, len: usize| {
                                width == 0 || end * usize::from(width) / 8 + 8 <= len
                            };
                            let by_words = tw <= 56
                                && clear(tw, s.tid_bits.bytes.len())
                                && clear(cw, s.count_bits.bytes.len());
                            assert_eq!(is_word_run(&s, end), by_words, "{what}: ..{end}");
                            let mut checked = Vec::new();
                            checked_rows(&s, start, end, &mut |t, c| checked.push((t, c)))?;
                            assert_eq!(checked, expect[start..end], "{what}: checked rows");
                            if by_words {
                                let mut words = Vec::new();
                                word_rows(&s, start, end, &mut |t, c| words.push((t, c)))?;
                                assert_eq!(words, checked, "{what}: word rows {start}..{end}");
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A 40-row run of gram 9 — 16-bit treeIds, 32-bit counts — then
    /// `pad` single-row grams, with `damage` done to the entry under a
    /// repaired checksum.
    fn damaged(pad: u64, damage: impl FnOnce(&mut [u8], &Layout)) -> Result<Vec<u8>> {
        let mut rows: Vec<Row> = (0..40u32)
            .map(|i| {
                (
                    (9, 40_000 + u64::from(i) * 7),
                    if i == 0 { u32::MAX } else { i },
                )
            })
            .collect();
        rows.extend((0..pad).map(|j| ((10 + j, 7), 1)));
        let mut bytes = encode_block(&rows)?;
        let layout = parse_layout(&bytes)?;
        assert_eq!((layout.tw, layout.cw), (16, 32));
        damage(&mut bytes, &layout);
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        Ok(bytes)
    }

    #[test]
    fn in_place_decode_rejects_bad_rows_by_words_and_value_by_value() -> Result<()> {
        // Alone in its block the run ends at the section tails and is read
        // value by value; with eight rows behind it, by words.
        for (pad, by_words) in [(0, false), (8, true)] {
            let pristine = damaged(pad, |_, _| ())?;
            assert_eq!(decode_gram_in_place(&pristine, 9)?.len(), 40);
            assert_eq!(is_word_run(&parse_sections(&pristine)?, 40), by_words);
            for row in [1, 20, 39] {
                let swapped = damaged(pad, |b, l| {
                    b[l.tid_off + 2 * (row - 1)..][..4].rotate_left(2)
                })?;
                let overflowing = damaged(pad, |b, l| b[l.count_off + 4 * row..][..4].fill(0xff))?;
                for (bytes, what) in [
                    (swapped, "treeIds swapped"),
                    (overflowing, "count all ones"),
                ] {
                    for result in [
                        decode_gram_in_place(&bytes, 9).map(|_| ()),
                        decode_block(&bytes).map(|_| ()),
                    ] {
                        assert!(
                            matches!(result, Err(StoreError::Corrupt(_))),
                            "{what} at row {row}, {pad} rows behind: {result:?}"
                        );
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn committed_corpus_seeds_decode_to_the_pinned_rows() -> Result<()> {
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("crates/store"))
            .join("tests/corpus/decode");
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.path());
        }
        names.sort();
        let (mut seen, mut flat) = (0usize, Vec::new());
        for name in &names {
            let seed = std::fs::read(name)?;
            let rows = decode_block(&seed)?.rows;
            assert_eq!(encode_block(&rows)?, seed, "{name:?} re-encodes to itself");
            seen += rows.len();
            for ((g, t), c) in rows {
                flat.extend_from_slice(&g.to_le_bytes());
                flat.extend_from_slice(&t.to_le_bytes());
                flat.extend_from_slice(&c.to_le_bytes());
            }
        }
        // Pinned: a change of reader must not move a decoded row.
        assert_eq!((names.len(), seen, crc32(&flat)), (6, 913, 1_349_463_526));
        Ok(())
    }

    // -----------------------------------------------------------------
    // Residency validation: a pack page is validated once per stay in a
    // buffer frame — never decoded unverified, never re-CRC'd while it
    // stays put.
    // -----------------------------------------------------------------

    use crate::pager::Pager;
    use std::path::PathBuf;

    /// A committed store file behind a one-shard, eight-frame pool: two
    /// grams in one posting block, plus filler pages to evict with.
    /// Returns the path, the pool, the block's pack page and the filler.
    fn small_pool_store(name: &str) -> Result<(PathBuf, BufferPool, PageId, Vec<PageId>)> {
        let path = check::scratch_file("residency", name);
        let pool = BufferPool::new(Pager::create(&path)?, 8);
        pool.begin()?;
        let inv = BTree::open(&pool, SLOT_INV)?;
        let rows: Vec<Row> = (0..200u64)
            .map(|i| ((7 + i / 150, 10 + i * 3), 1))
            .collect();
        bulk_load_inverted(&pool, &inv, &rows, 1, Fill::Slack)?;
        let filler: Vec<PageId> = (0..32).map(|_| pool.allocate()).collect::<Result<_>>()?;
        pool.commit()?;
        let mut pack = None;
        inv.for_each_range((0, 0), (u64::MAX, u64::MAX), |_, raw| {
            if let DirValue::Block(page) = dir_value(raw) {
                pack = Some(page);
            }
            true
        })?;
        let pack = pack.ok_or_else(|| corrupt("fixture holds no block"))?;
        Ok((path, pool, pack, filler))
    }

    /// The lookup's probe of one gram: directory visit, then the emitter
    /// over a fresh block memo.
    fn probe(pool: &BufferPool, gram: u64) -> Result<Vec<(u64, u32)>> {
        let mut rows = Vec::new();
        DirCursor::open(pool, None)?.visit(gram, &mut rows)?;
        let mut out = Vec::new();
        for_each_posting(
            pool,
            &rows,
            gram,
            &mut BlockCache::default(),
            &mut ProbeCounters::default(),
            &mut |t, c| out.push((t, c)),
        )?;
        Ok(out)
    }

    /// Flips one payload byte of the first entry on pack page `pack`,
    /// in the file image only.
    fn tamper(path: &PathBuf, pack: PageId) -> Result<()> {
        let mut image = std::fs::read(path)?;
        image[pack.index() * PAGE_SIZE + PACK_HDR + ENTRY_HDR + PREFIX + 2] ^= 0x40;
        Ok(std::fs::write(path, &image)?)
    }

    fn evict_everything(pool: &BufferPool, filler: &[PageId]) -> Result<()> {
        for &id in filler {
            pool.with_page(id, |_| ())?;
        }
        Ok(())
    }

    #[test]
    fn a_tampered_pack_page_is_caught_at_its_next_fault() -> Result<()> {
        let (path, pool, pack, filler) = small_pool_store("evict.db")?;
        evict_everything(&pool, &filler)?;
        assert_eq!(probe(&pool, 7)?.len(), 150);
        assert!(
            pool.pin(pack)?.validated,
            "a probed page is marked validated"
        );
        // While the page stays resident its bytes are the validated ones:
        // the damaged file image is not consulted, nothing is re-checked.
        tamper(&path, pack)?;
        assert_eq!(probe(&pool, 8)?.len(), 50);
        // Once evicted, the next probe faults the damaged image in and must
        // reject it before decoding a row.
        evict_everything(&pool, &filler)?;
        assert!(matches!(probe(&pool, 7), Err(StoreError::Corrupt(_))));
        assert!(
            !pool.pin(pack)?.validated,
            "a rejected page is never marked"
        );
        Ok(())
    }

    #[test]
    fn damage_done_while_resident_is_caught_after_reopen() -> Result<()> {
        let (path, pool, pack, _) = small_pool_store("reopen.db")?;
        assert_eq!(probe(&pool, 7)?.len(), 150);
        tamper(&path, pack)?;
        drop(pool);
        let pool = BufferPool::new(Pager::open(&path)?, 8);
        assert!(matches!(probe(&pool, 8), Err(StoreError::Corrupt(_))));
        Ok(())
    }

    #[test]
    fn a_rewritten_block_is_validated_again_on_its_next_probe() -> Result<()> {
        let (_, pool, pack, _) = small_pool_store("rewrite.db")?;
        assert_eq!(probe(&pool, 8)?.len(), 50);
        assert!(pool.pin(pack)?.validated);
        pool.begin()?;
        let inv = BTree::open(&pool, SLOT_INV)?;
        set_posting(&pool, &inv, 8, 11, Some(5))?;
        assert!(!pool.pin(pack)?.validated, "a write forgets the validation");
        let rows = probe(&pool, 8)?;
        assert_eq!((rows.len(), rows.first()), (51, Some(&(11, 5))));
        assert!(
            pool.pin(pack)?.validated,
            "the rewritten bytes were checked"
        );
        pool.commit()
    }

    #[test]
    fn uncached_reads_validate_every_time() -> Result<()> {
        let (path, pool, pack, filler) = small_pool_store("uncached.db")?;
        // Dirty every frame: a reader cannot evict dirty frames, so the
        // pack page is served uncached from here on.
        pool.begin()?;
        for &id in filler.iter().take(8) {
            pool.with_page_mut(id, |p| p.put_u64(0, 1))?;
        }
        assert_eq!(probe(&pool, 7)?.len(), 150);
        assert!(
            !pool.pin(pack)?.validated,
            "an uncached page has no frame to mark"
        );
        // No residency, so no trust: damage shows on the very next read.
        tamper(&path, pack)?;
        assert!(matches!(probe(&pool, 7), Err(StoreError::Corrupt(_))));
        pool.rollback()
    }

    /// Probes `grams`, ascending, through one block memo, as a lookup does.
    fn probe_counting(pool: &BufferPool, grams: &[u64]) -> Result<ProbeCounters> {
        let mut dir = DirCursor::open(pool, None)?;
        let (mut cache, mut counters) = (BlockCache::default(), ProbeCounters::default());
        for &gram in grams {
            let mut rows = Vec::new();
            dir.visit(gram, &mut rows)?;
            for_each_posting(pool, &rows, gram, &mut cache, &mut counters, &mut |_, _| ())?;
        }
        Ok(counters)
    }

    /// The fixture's one block holds grams 7 and 8; to grams 5 and 6 it is
    /// the boundary block, and its header (first gram 7) rules it out.
    #[test]
    fn a_block_counts_as_decoded_when_a_gram_decodes_it_not_when_it_is_fetched() -> Result<()> {
        let (_, pool, _, _) = small_pool_store("counters.db")?;
        let decoded_once = probe_counting(&pool, &[7])?;
        assert_eq!((decoded_once.blocks_decoded, decoded_once.rows), (1, 150));
        assert!(decoded_once.bytes_decoded > 0);
        // Fetched, skipped, never decoded.
        let skipped = ProbeCounters {
            blocks_skipped: 1,
            ..ProbeCounters::default()
        };
        assert_eq!(probe_counting(&pool, &[5])?, skipped);
        assert_eq!(probe_counting(&pool, &[5, 6])?.blocks_skipped, 2);
        // Fetched and skipped by one gram, decoded by the next.
        let expect = ProbeCounters {
            blocks_skipped: 1,
            ..decoded_once
        };
        assert_eq!(probe_counting(&pool, &[5, 7])?, expect);
        // Decoded by one gram, found in the memo by the next.
        let both = probe_counting(&pool, &[5, 7, 8])?;
        assert_eq!(
            (both.blocks_decoded, both.blocks_skipped, both.rows),
            (1, 1, 200)
        );
        assert_eq!(both.bytes_decoded, decoded_once.bytes_decoded);
        Ok(())
    }
}
