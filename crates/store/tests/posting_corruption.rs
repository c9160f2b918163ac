//! On-disk corruption of posting-block pack pages must be *detected*,
//! never trusted and never a panic.
//!
//! A block-bearing store is bulk-built, then bytes of its pack pages
//! (tag byte `0xB7`) are bit-flipped one at a time. Every flipped store
//! must fail verification with a corruption error — and lookups against
//! it must return (`Ok` or `Err`), never panic or serve silently wrong
//! postings without the verifier also objecting.
//!
//! Exhaustive per-bit coverage of the *decoder* lives in the in-crate
//! unit tests (`postings::tests::every_single_bit_flip_is_detected`);
//! this suite proves the same property end-to-end through real files,
//! `IndexStore::open`, `verify`, and `lookup`.

use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::{IndexStore, PAGE_SIZE};
use pqgram_tree::{LabelTable, Tree};
use std::path::{Path, PathBuf};

/// Tag byte every pack page starts with (see `crates/store/src/postings.rs`).
const PACK_TAG: u8 = 0xB7;
/// Pack-page header length: tag, pad, n_entries u16, used u16, pad.
const PACK_HDR: usize = 8;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqgram-postcorrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    let mut j = p.as_os_str().to_owned();
    j.push("-journal");
    std::fs::remove_file(PathBuf::from(j)).ok();
    p
}

/// Deterministic tree: node `i` hangs off `i / 2`, five cycling labels.
fn sample_tree(lt: &mut LabelTable, tag: &str, nodes: usize) -> Tree {
    let mut tree = Tree::with_root(lt.intern(&format!("{tag}0")));
    let mut ids = vec![tree.root()];
    for i in 1..nodes {
        let parent = ids[i / 2];
        ids.push(tree.add_child(parent, lt.intern(&format!("{tag}{}", i % 5))));
    }
    tree
}

/// Builds a store whose inverted relation holds real posting blocks
/// (eight clones of one tree put every gram well over the threshold)
/// and returns its path plus a query index that probes those blocks.
fn block_bearing_store(name: &str) -> (PathBuf, TreeIndex) {
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let tree = sample_tree(&mut lt, "x", 120);
    let idx = build_index(&tree, &lt, params);
    let forest: Vec<(TreeId, &TreeIndex)> = (1..=8).map(|i| (TreeId(i), &idx)).collect();
    let path = tmp(name);
    let store = IndexStore::bulk_create(&path, params, forest).unwrap();
    let check = store.verify().unwrap();
    assert!(check.blocks > 0, "fixture must contain posting blocks");
    drop(store);
    (path, idx)
}

/// Byte offsets of every pack page in the raw file image.
fn pack_page_offsets(image: &[u8]) -> Vec<usize> {
    (0..image.len() / PAGE_SIZE)
        .map(|p| p * PAGE_SIZE)
        .filter(|&off| image[off] == PACK_TAG)
        .collect()
}

/// Bytes used by entries on the pack page at `off` (little-endian u16 at
/// header offset 4), clamped to the page.
fn pack_used(image: &[u8], off: usize) -> usize {
    let used = u16::from_le_bytes([image[off + 4], image[off + 5]]) as usize;
    used.min(PAGE_SIZE - PACK_HDR)
}

/// Flips one bit, reopens, and demands loud detection: `open` or `verify`
/// must error, and a lookup through the corrupt block must not panic.
fn assert_flip_detected(path: &Path, image: &[u8], bit: usize, query: &TreeIndex) {
    let mut bytes = image.to_vec();
    bytes[bit / 8] ^= 1 << (bit % 8);
    std::fs::write(path, &bytes).unwrap();
    match IndexStore::open(path) {
        Err(_) => {} // detected at open: acceptable and loud
        Ok(store) => {
            let verdict = store.verify();
            assert!(
                verdict.is_err(),
                "bit flip at byte {} bit {} went undetected by verify",
                bit / 8,
                bit % 8,
            );
            // Lookups across the corrupt block must stay panic-free: any
            // Err is fine, and an Ok must at least have been derivable
            // without decoding garbage (e.g. the flip hit a dead region).
            let _ = store.lookup(query, 0.4);
        }
    }
}

#[test]
fn every_sampled_bit_flip_in_pack_pages_is_detected() {
    let (path, query) = block_bearing_store("flips.pqg");
    let image = std::fs::read(&path).unwrap();
    let packs = pack_page_offsets(&image);
    assert!(!packs.is_empty(), "fixture must contain pack pages");

    let mut flips = 0usize;
    for &page in &packs {
        let used = pack_used(&image, page);
        // Every bit of the meaningful header fields and the first entry,
        // then a stride over the rest of the used region (the decoder's
        // own unit tests cover every bit of every encoding exhaustively).
        // Header bytes 1, 6 and 7 are padding: flips there are invisible
        // by design and excluded.
        let dense = (page * 8)..((page + PACK_HDR + 64).min(page + PACK_HDR + used) * 8);
        let sparse = (dense.end..(page + PACK_HDR + used) * 8).step_by(97);
        for bit in dense.chain(sparse) {
            if matches!(bit / 8 - page, 1 | 6 | 7) {
                continue;
            }
            assert_flip_detected(&path, &image, bit, &query);
            flips += 1;
        }
    }
    assert!(flips > 500, "sampling must actually cover bits ({flips})");
    // Restore the pristine image: the store must be healthy again.
    std::fs::write(&path, &image).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}

#[test]
fn truncated_pack_entry_is_detected() {
    let (path, _query) = block_bearing_store("trunc.pqg");
    let mut image = std::fs::read(&path).unwrap();
    let packs = pack_page_offsets(&image);
    let page = packs[0];
    // Shrink `used` by one byte: the entry walk can no longer land exactly
    // on the recorded end and must report the page as corrupt.
    let used = pack_used(&image, page) as u16 - 1;
    image[page + 4..page + 6].copy_from_slice(&used.to_le_bytes());
    std::fs::write(&path, &image).unwrap();
    let verdict = IndexStore::open(&path).and_then(|s| s.verify());
    assert!(verdict.is_err(), "truncated pack entry went undetected");
}

#[test]
fn zeroed_pack_page_is_detected() {
    let (path, _query) = block_bearing_store("zeroed.pqg");
    let mut image = std::fs::read(&path).unwrap();
    let page = pack_page_offsets(&image)[0];
    image[page..page + PAGE_SIZE].fill(0);
    std::fs::write(&path, &image).unwrap();
    let verdict = IndexStore::open(&path).and_then(|s| s.verify());
    assert!(
        verdict.is_err(),
        "a directory entry points into a zeroed page; verify must object"
    );
}

// ---------------------------------------------------------------------------
// Segment + manifest header corruption (the fence probes live on top of
// segment files; the manifest's scalar slots bound open-time work)
// ---------------------------------------------------------------------------

/// Header-page layout constants (see `crates/store/src/pager.rs`): meta
/// slot `i` is the little-endian u64 at byte `24 + 8 * i` of page 0, and
/// the header CRC-32 covers bytes `0..PAGE_SIZE - 4`.
const OFF_META: usize = 24;
const OFF_HDR_CRC: usize = PAGE_SIZE - 4;

/// Rewrites meta slot `slot` of the header page in `image`, then repairs
/// the header CRC so only *semantic* validation can reject the value.
fn set_meta_raw(image: &mut [u8], slot: usize, value: u64) {
    let at = OFF_META + slot * 8;
    image[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let crc = pqgram_store::crc::crc32(&image[..OFF_HDR_CRC]);
    image[OFF_HDR_CRC..OFF_HDR_CRC + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Builds a segmented store with one flushed (live) segment holding real
/// posting blocks, returning `(base, query)`.
fn segmented_fixture(name: &str) -> (PathBuf, TreeIndex) {
    use pqgram_store::SegmentedIndexStore;
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let tree = sample_tree(&mut lt, "x", 120);
    let idx = build_index(&tree, &lt, params);
    let base = tmp(name);
    for suffix in [".main.0", ".seg.0", ".seg.1"] {
        let mut p = base.as_os_str().to_owned();
        p.push(suffix);
        std::fs::remove_file(PathBuf::from(p)).ok();
    }
    let mut store = SegmentedIndexStore::create(&base, params).unwrap();
    for i in 1..=8 {
        store.put_tree(TreeId(i), &idx).unwrap();
    }
    store.flush().unwrap();
    assert_eq!(store.segment_count(), 1, "fixture must hold a live segment");
    store.verify().unwrap();
    drop(store);
    (base, idx)
}

/// Every semantically tampered manifest header (CRC repaired, so the
/// value is "validly committed" garbage) must fail open with an error,
/// never a panic, hang, or silent acceptance.
#[test]
fn tampered_manifest_headers_are_rejected() {
    use pqgram_store::SegmentedIndexStore;
    let (base, _query) = segmented_fixture("manifest.pqg");
    let pristine = std::fs::read(&base).unwrap();
    // (slot, value): wrong kind marker, wrong format version, zeroed
    // pq-parameters, and an HWM below the live segment sequence.
    for (slot, value) in [(7, 1u64), (7, 999), (6, 99), (1, 0), (2, 0), (4, 0)] {
        let mut image = pristine.clone();
        set_meta_raw(&mut image, slot, value);
        std::fs::write(&base, &image).unwrap();
        assert!(
            SegmentedIndexStore::open(&base).is_err(),
            "tampered manifest meta slot {slot} = {value} went undetected"
        );
    }
    std::fs::write(&base, &pristine).unwrap();
    SegmentedIndexStore::open(&base).unwrap().verify().unwrap();
}

/// An inflated high-water mark must not stall open: the orphan sweep is
/// probe-capped, so open terminates (quickly) and still serves lookups.
#[test]
fn inflated_high_water_mark_cannot_stall_open() {
    use pqgram_store::SegmentedIndexStore;
    let (base, query) = segmented_fixture("hwm.pqg");
    let mut image = std::fs::read(&base).unwrap();
    // Far above any real reservation, still above the live sequences.
    set_meta_raw(&mut image, 4, u64::MAX - 1);
    std::fs::write(&base, &image).unwrap();
    let store = SegmentedIndexStore::open(&base).expect("capped sweep must terminate");
    let hits = store.lookup(&query, 0.4).unwrap();
    assert!(!hits.is_empty(), "postings must survive the inflated mark");
}

/// Every semantically tampered segment header must fail open of the
/// segmented store (the segment's kind, version and parameters are
/// cross-checked against the manifest's).
#[test]
fn tampered_segment_headers_are_rejected() {
    use pqgram_store::SegmentedIndexStore;
    let (base, _query) = segmented_fixture("seghdr.pqg");
    let mut seg = base.as_os_str().to_owned();
    seg.push(".seg.0");
    let seg = PathBuf::from(seg);
    let pristine = std::fs::read(&seg).unwrap();
    for (slot, value) in [(7, 1u64), (7, 0), (6, 2), (6, 99), (1, 9), (2, 0)] {
        let mut image = pristine.clone();
        set_meta_raw(&mut image, slot, value);
        std::fs::write(&seg, &image).unwrap();
        assert!(
            SegmentedIndexStore::open(&base).is_err(),
            "tampered segment meta slot {slot} = {value} went undetected"
        );
    }
    std::fs::write(&seg, &pristine).unwrap();
    SegmentedIndexStore::open(&base).unwrap().verify().unwrap();
}

/// Bit flips inside a segment's pack pages must never mis-probe through
/// the fence: open may reject, otherwise verify must object and
/// lookups must stay panic-free.
#[test]
fn segment_pack_page_flips_never_misprobe_through_the_fence() {
    use pqgram_store::SegmentedIndexStore;
    let (base, query) = segmented_fixture("segflip.pqg");
    let mut seg = base.as_os_str().to_owned();
    seg.push(".seg.0");
    let seg = PathBuf::from(seg);
    let pristine = std::fs::read(&seg).unwrap();
    let packs = pack_page_offsets(&pristine);
    assert!(!packs.is_empty(), "segment must contain pack pages");

    let mut flips = 0usize;
    for &page in &packs {
        let used = pack_used(&pristine, page);
        for bit in ((page * 8)..(page + PACK_HDR + used) * 8).step_by(53) {
            if matches!(bit / 8 - page, 1 | 6 | 7) {
                continue;
            }
            let mut image = pristine.clone();
            image[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&seg, &image).unwrap();
            match SegmentedIndexStore::open(&base) {
                Err(_) => {}
                Ok(store) => {
                    // The flip may sit in a dead region; if verification
                    // passes, the lookup must agree with the pristine
                    // answer — a mis-probe here is silent wrong data.
                    let verdict = store.verify();
                    let looked = store.lookup(&query, 0.4);
                    if verdict.is_ok() {
                        assert!(
                            looked.is_ok(),
                            "verified store failed lookup after flip at byte {}",
                            bit / 8
                        );
                    }
                }
            }
            flips += 1;
        }
    }
    assert!(flips > 50, "sampling must actually cover bits ({flips})");
    std::fs::write(&seg, &pristine).unwrap();
    SegmentedIndexStore::open(&base).unwrap().verify().unwrap();
}

/// Point access answers "which source holds this tree" from mirrors of
/// each segment's totals relation, never from its pages — so a damaged
/// totals leaf must be *rejected* (by `open` or by `verify`), not turned
/// into a wrong "not mine". The leaf is damaged three ways that each keep
/// it a well-formed B+-tree node: a tree id renamed, the last row dropped,
/// one bag size changed.
#[test]
fn damaged_segment_totals_leaf_is_rejected() {
    use pqgram_store::SegmentedIndexStore;
    /// Meta slot of the totals relation's root (stored as page id + 1).
    const SLOT_TOT: usize = 5;
    /// B+-tree leaf layout: tag 1, count u16 @1, 20-byte entries @16
    /// (`key.hi` = tree id u64, `key.lo` u64, value u32).
    const OFF_COUNT: usize = 1;
    const OFF_ENTRIES: usize = 16;
    const ENTRY: usize = 20;

    let (base, _query) = segmented_fixture("segtotals.pqg");
    let mut seg = base.as_os_str().to_owned();
    seg.push(".seg.0");
    let seg = PathBuf::from(seg);
    let pristine = std::fs::read(&seg).unwrap();
    let meta = OFF_META + SLOT_TOT * 8;
    let root = u64::from_le_bytes(pristine[meta..meta + 8].try_into().unwrap()) - 1;
    let leaf = root as usize * PAGE_SIZE;
    assert_eq!(pristine[leaf], 1, "eight totals rows fit the root leaf");
    let rows = u16::from_le_bytes([pristine[leaf + OFF_COUNT], pristine[leaf + OFF_COUNT + 1]]);
    assert_eq!(rows, 8, "one totals row per stored tree");
    let last = leaf + OFF_ENTRIES + 7 * ENTRY;
    let (id, size) = (last..last + 8, last + 16);
    assert_eq!(pristine[id.clone()], 8u64.to_le_bytes(), "tree 8 is last");

    let renamed = 9u64.to_le_bytes();
    let resized = [pristine[size] ^ 1];
    let damages: [(&str, usize, &[u8]); 3] = [
        ("tree id renamed", id.start, &renamed),
        ("last row dropped", leaf + OFF_COUNT, &[7]),
        ("bag size changed", size, &resized),
    ];
    for (what, at, bytes) in damages {
        let mut image = pristine.clone();
        image[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&seg, &image).unwrap();
        if let Ok(store) = SegmentedIndexStore::open(&base) {
            assert!(
                store.verify().is_err(),
                "segment totals leaf with {what} passed open and verify"
            );
        }
    }
    std::fs::write(&seg, &pristine).unwrap();
    let store = SegmentedIndexStore::open(&base).unwrap();
    store.verify().unwrap();
    assert!(store.contains_tree(TreeId(8)).unwrap());
}

// ---------------------------------------------------------------------------
// Gram-filter corruption: the filter is *advisory*, so the failure mode
// inverts — damage must never change answers, only cost extra probes.
// A filter page whose CRC no longer matches is dropped at load; a header
// whose CRC was forged back to validity is rejected by semantic checks;
// forged *extra* bits keep the superset invariant and thus only produce
// false-positive probes.
// ---------------------------------------------------------------------------

/// Builds a store whose trees use disjoint label sets, so a query over
/// tree 1 genuinely exercises the gram filter (most stored grams are
/// absent from the query and vice versa), plus a "foreign" query sharing
/// no labels with the store at all. Returns `(path, member, foreign)`.
fn filter_bearing_store(name: &str) -> (PathBuf, TreeIndex, TreeIndex) {
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let unique_tree = |tag: &str, nodes: usize, lt: &mut LabelTable| {
        let mut tree = Tree::with_root(lt.intern(&format!("{tag}root")));
        let mut ids = vec![tree.root()];
        for i in 1..nodes {
            let parent = ids[i / 2];
            ids.push(tree.add_child(parent, lt.intern(&format!("{tag}n{i}"))));
        }
        tree
    };
    let trees: Vec<Tree> = (0..6)
        .map(|t| unique_tree(&format!("u{t}"), 150, &mut lt))
        .collect();
    let indexes: Vec<TreeIndex> = trees.iter().map(|t| build_index(t, &lt, params)).collect();
    let forest: Vec<(TreeId, &TreeIndex)> = indexes
        .iter()
        .enumerate()
        .map(|(i, idx)| (TreeId(u64::try_from(i).unwrap_or(0) + 1), idx))
        .collect();
    let path = tmp(name);
    let store = IndexStore::bulk_create(&path, params, forest).unwrap();
    store.verify().unwrap();
    drop(store);
    let foreign = build_index(&unique_tree("zz", 80, &mut lt), &lt, params);
    (path, indexes[0].clone(), foreign)
}

/// The answer set probed by every tamper case: sub-unit and super-unit
/// thresholds plus a top-k plan, over a member and a foreign query.
fn filter_answers(
    path: &Path,
    member: &TreeIndex,
    foreign: &TreeIndex,
) -> Vec<Vec<pqgram_core::LookupHit>> {
    let store = IndexStore::open(path).unwrap();
    vec![
        store.lookup(member, 0.8).unwrap(),
        store.lookup(member, 1.5).unwrap(),
        store.lookup(foreign, 0.8).unwrap(),
        store.lookup_top_k(member, 3).unwrap(),
    ]
}

/// Pristine and corrupted stores must answer identically for both
/// queries across threshold and top-k plans, and verification must still
/// pass: the filter is advisory, so damage to it is *not* a store error.
fn assert_same_answers(
    path: &Path,
    member: &TreeIndex,
    foreign: &TreeIndex,
    baseline: &[Vec<pqgram_core::LookupHit>],
    what: &str,
) {
    IndexStore::open(path)
        .unwrap_or_else(|e| panic!("{what}: open failed: {e}"))
        .verify()
        .unwrap_or_else(|e| panic!("{what}: verify failed: {e}"));
    let got = filter_answers(path, member, foreign);
    for (i, (hits, base)) in got.iter().zip(baseline.iter()).enumerate() {
        assert_eq!(hits, base, "{what}: query {i} answered differently");
    }
}

/// A bit flip in a filter data page (CRC now stale) drops the filter at
/// load: answers identical, the only cost is un-skipped probes — visible
/// as the foreign query's filter skip counters falling to zero.
#[test]
fn flipped_filter_data_page_is_dropped_not_trusted() {
    let (path, member, foreign) = filter_bearing_store("filterflip.pqg");
    let baseline = filter_answers(&path, &member, &foreign);
    {
        let store = IndexStore::open(&path).unwrap();
        let (_, stats) = store.lookup_with_stats(&foreign, 0.8).unwrap();
        assert!(
            stats.grams_skipped_filter > 0,
            "pristine filter must actually skip foreign grams"
        );
    }
    let pristine = std::fs::read(&path).unwrap();
    let offsets = pqgram_store::fuzz::filter_page_offsets(&path).unwrap();
    assert!(offsets.len() >= 2, "filter must have data pages");

    // Flip one payload bit on every filter data page in turn.
    for &off in &offsets[1..] {
        let off = usize::try_from(off).unwrap();
        let mut image = pristine.clone();
        image[off + pqgram_store::fuzz::filter_layout::OFF_PAYLOAD + 17] ^= 0x20;
        std::fs::write(&path, &image).unwrap();
        assert!(
            !pqgram_store::fuzz::filter_load(&path).unwrap(),
            "stale-CRC filter page must be rejected"
        );
        assert_same_answers(&path, &member, &foreign, &baseline, "flipped data page");
        let store = IndexStore::open(&path).unwrap();
        let (_, stats) = store.lookup_with_stats(&foreign, 0.8).unwrap();
        assert_eq!(
            stats.grams_skipped_filter, 0,
            "dropped filter must not skip anything"
        );
    }
    std::fs::write(&path, &pristine).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}

/// Forged *extra* bits (payload bytes forced to 0xFF, page CRC repaired)
/// keep the filter loadable and keep the superset invariant: verification
/// passes and answers stay identical — the damage can only manifest as
/// false-positive probes.
#[test]
fn forged_extra_filter_bits_only_cost_false_positive_probes() {
    use pqgram_store::fuzz::filter_layout as fl;
    let (path, member, foreign) = filter_bearing_store("filterbits.pqg");
    let baseline = filter_answers(&path, &member, &foreign);
    let pristine = std::fs::read(&path).unwrap();
    let offsets = pqgram_store::fuzz::filter_page_offsets(&path).unwrap();

    let mut image = pristine.clone();
    for &off in &offsets[1..] {
        let off = usize::try_from(off).unwrap();
        for b in 0..64 {
            image[off + fl::OFF_PAYLOAD + b * 9] = 0xFF;
        }
        let crc = pqgram_store::crc::crc32(
            &image[off + fl::OFF_PAYLOAD..off + fl::OFF_PAYLOAD + fl::DATA_PAYLOAD],
        );
        image[off + fl::OFF_PAGE_CRC..off + fl::OFF_PAGE_CRC + 4]
            .copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(&path, &image).unwrap();
    assert!(
        pqgram_store::fuzz::filter_load(&path).unwrap(),
        "extra bits keep the filter loadable"
    );
    assert_same_answers(&path, &member, &foreign, &baseline, "forged extra bits");
}

/// Semantically tampered filter headers (CRC forged back to validity)
/// must be rejected by the plausibility checks — zero or absurd block
/// counts, inconsistent page counts, null page ids — and a rejected
/// filter never changes answers.
#[test]
fn tampered_filter_headers_are_rejected_cleanly() {
    use pqgram_store::fuzz::filter_layout as fl;
    let (path, member, foreign) = filter_bearing_store("filterhdr.pqg");
    let baseline = filter_answers(&path, &member, &foreign);
    let pristine = std::fs::read(&path).unwrap();
    let header =
        usize::try_from(pqgram_store::fuzz::filter_page_offsets(&path).unwrap()[0]).unwrap();

    // (offset-in-page, u64 value): nblocks 0 / huge, npages+nindirect
    // garbage, first direct page id nulled.
    let cases: &[(usize, u64)] = &[
        (8, 0),
        (8, u64::MAX),
        (8, (1 << 24) + 1),
        (32, u64::MAX),
        (40, 0),
        (40, u64::from(u32::MAX)),
    ];
    for &(at, value) in cases {
        let mut image = pristine.clone();
        image[header + at..header + at + 8].copy_from_slice(&value.to_le_bytes());
        let crc = pqgram_store::crc::crc32(&image[header..header + fl::OFF_HEADER_CRC]);
        image[header + fl::OFF_HEADER_CRC..header + fl::OFF_HEADER_CRC + 4]
            .copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &image).unwrap();
        assert!(
            !pqgram_store::fuzz::filter_load(&path).unwrap(),
            "forged header field at {at} = {value} must be rejected"
        );
        assert_same_answers(&path, &member, &foreign, &baseline, "forged header");
    }
    std::fs::write(&path, &pristine).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}

/// A filter meta slot pointing at the wrong page (or no u32 page at all)
/// is rejected by the magic/plausibility checks, never trusted.
#[test]
fn filter_slot_pointing_at_garbage_is_rejected() {
    let (path, member, foreign) = filter_bearing_store("filterslot.pqg");
    let baseline = filter_answers(&path, &member, &foreign);
    let pristine = std::fs::read(&path).unwrap();
    // Slot 9 (`SLOT_FILTER`): a live non-filter page, then a non-u32 value.
    for value in [1u64, u64::MAX - 7] {
        let mut image = pristine.clone();
        set_meta_raw(&mut image, 9, value);
        std::fs::write(&path, &image).unwrap();
        assert!(
            !pqgram_store::fuzz::filter_load(&path).unwrap(),
            "filter slot {value} must be rejected"
        );
        assert_same_answers(&path, &member, &foreign, &baseline, "garbage filter slot");
    }
    std::fs::write(&path, &pristine).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}

/// Inflating a pack page's length fields (entry count and used bytes) to
/// their u16 maxima must be detected as corruption — and must not drive a
/// huge allocation: the entry count is clamped against the smallest
/// physical entry before any `Vec::with_capacity`.
#[test]
fn inflated_pack_length_fields_are_rejected_without_overallocation() {
    let (path, _query) = block_bearing_store("inflate.pqg");
    let pristine = std::fs::read(&path).unwrap();
    let page = pack_page_offsets(&pristine)[0];
    for (off, value) in [(2usize, u16::MAX), (4, u16::MAX)] {
        let mut image = pristine.clone();
        image[page + off..page + off + 2].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&path, &image).unwrap();
        let verdict = IndexStore::open(&path).and_then(|s| s.verify());
        assert!(
            verdict.is_err(),
            "inflated pack length field at offset {off} went undetected"
        );
    }
}
