//! Structure-aware decode fuzzing — the dynamic backstop behind the
//! static taint pass (`cargo xtask analyze`, DESIGN.md §16).
//!
//! Every decoder that consumes raw disk bytes must *verify or reject*:
//! any input returns `Ok` or a corruption error — never a panic, hang,
//! over-allocation, or silently wrong answer. The harness mutates a
//! committed seed corpus (`tests/corpus/decode/`) with structure-aware
//! byte operations (field-targeted overwrites, bit flips, truncation,
//! splicing, CRC repair so deeper validation layers get exercised) and
//! asserts those contracts over the posting-block decoder, the fence,
//! and real store/segment/manifest headers.
//!
//! Self-contained by design: its own splitmix64, no fuzzing crates, no
//! nightly — it runs as a plain `cargo test` and gates every PR via the
//! CI smoke job. Scale the case count with `DECODE_FUZZ_CASES`.
#![allow(
    clippy::disallowed_methods,
    reason = "the harness reads its seed corpus and mutates real store files"
)]

use pqgram_store::fuzz;
use pqgram_store::{IndexStore, SegmentedIndexStore, PAGE_SIZE};
use std::path::PathBuf;

/// splitmix64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        usize::try_from(self.next() % u64::try_from(n).unwrap_or(1)).unwrap_or(0)
    }
}

/// Mutation budget per case, env-tunable (`DECODE_FUZZ_CASES`). The
/// default keeps the suite a smoke test; CI raises it.
fn cases() -> usize {
    std::env::var("DECODE_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000)
}

/// `tests/corpus/decode` under the store crate, resolved for both cargo
/// and bare-rustc (offline) invocations from the workspace root.
fn corpus_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("crates/store"))
        .join("tests/corpus/decode")
}

fn load_corpus() -> Vec<Vec<u8>> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("read corpus dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    let mut seeds: Vec<Vec<u8>> = names
        .iter()
        .map(|p| std::fs::read(p).expect("read seed"))
        .collect();
    assert!(!seeds.is_empty(), "committed corpus must not be empty");
    seeds.extend(section_tail_seeds());
    seeds
}

/// Seeds built here rather than committed: two-gram blocks whose second
/// run ends on the last bits of the treeId and count sections — where the
/// in-place decoder goes from whole-word loads to value-by-value reads —
/// at treeId widths on both sides of the 56-bit word limit and count
/// widths from none to the full 32 bits.
fn section_tail_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    for (tid_bits, count) in [
        (9u32, 1u32),
        (16, u32::MAX),
        (56, 3),
        (57, 1 << 17),
        (64, u32::MAX),
    ] {
        let top = u64::MAX >> (64 - tid_bits);
        for n in [6u64, 40, 256] {
            let run = |gram: u64, len: u64| {
                (0..len).map(move |i| {
                    (
                        (gram, top - (len - 1) + i),
                        if i % 3 == 0 { count } else { 1 },
                    )
                })
            };
            let rows: Vec<((u64, u64), u32)> = run(100, n - 5).chain(run(101, 5)).collect();
            seeds.push(fuzz::encode_block(&rows).expect("section-tail seed must encode"));
        }
    }
    seeds
}

/// One structure-aware mutation step: field-targeted overwrites hit the
/// header scalars validation branches on, generic ops hit everything else.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.below(9) {
        // Bit flip among the last 24 bytes: the tails of the treeId and
        // count sections, and the checksum.
        8 => {
            if !bytes.is_empty() {
                let at = bytes.len() - 1 - rng.below(bytes.len().min(24));
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Bit flip anywhere.
        0 | 1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a u16 field, biased toward the header scalars
        // (row count at 32, payload length at 34, gram count at 36).
        2 => {
            let at = match rng.below(4) {
                0 => 32,
                1 => 34,
                2 => 36,
                _ => rng.below(bytes.len().saturating_sub(1).max(1)),
            };
            if at + 2 <= bytes.len() {
                let v = match rng.below(4) {
                    0 => 0u16,
                    1 => u16::MAX,
                    2 => 257,
                    _ => u16::try_from(rng.next() & 0xffff).unwrap_or(0),
                };
                bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
            }
        }
        // Overwrite one of the first/last key u64s.
        3 => {
            let at = 8 * rng.below(4);
            if at + 8 <= bytes.len() {
                let v = match rng.below(3) {
                    0 => 0u64,
                    1 => u64::MAX,
                    _ => rng.next(),
                };
                bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        // Truncate.
        4 => {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        // Extend with garbage.
        5 => {
            for _ in 0..=rng.below(32) {
                bytes.push(u8::try_from(rng.next() & 0xff).unwrap_or(0));
            }
        }
        // Random byte write.
        6 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = u8::try_from(rng.next() & 0xff).unwrap_or(0);
            }
        }
        // Section-width bytes just past the entry header (offset 38..42).
        _ => {
            let at = 38 + rng.below(4);
            if at < bytes.len() {
                bytes[at] = u8::try_from(rng.next() & 0xff).unwrap_or(0);
            }
        }
    }
}

/// Repairs the trailing CRC-32 so mutations reach the validation layers
/// behind the checksum.
fn fix_crc(bytes: &mut [u8]) {
    if bytes.len() >= 4 {
        let at = bytes.len() - 4;
        let crc = pqgram_store::crc::crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Row invariants a successful decode must always uphold, whatever the
/// input bytes looked like.
fn assert_decoded_invariants(rows: &[((u64, u64), u32)], what: &str) {
    assert!(!rows.is_empty(), "{what}: decoded zero rows");
    assert!(
        rows.len() <= fuzz::MAX_BLOCK_ROWS,
        "{what}: decoded {} rows past the structural cap",
        rows.len()
    );
    for w in rows.windows(2) {
        assert!(w[0].0 < w[1].0, "{what}: rows not strictly ascending");
    }
    assert!(
        rows.iter().all(|&(_, c)| c > 0),
        "{what}: non-positive posting count"
    );
}

/// The probe path decodes in place — off an `Arc<PageBuf>` with a parsed
/// layout, after whole-page validation — instead of through
/// `decode_block`. Drives that entry over the same bytes: when the full
/// decode accepts the entry, every gram must decode in place to exactly
/// its rows (and an absent gram to none); when it rejects, the in-place
/// decode of the header's own grams must still return — `Ok` only with
/// ascending treeIds and positive counts — and never panic.
fn assert_in_place_agrees(bytes: &[u8], full: Option<&[((u64, u64), u32)]>, what: &str) {
    let header_gram = |at: usize| {
        bytes
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    match full {
        Some(rows) if bytes.len() <= PAGE_SIZE - 8 => {
            let mut grams: Vec<u64> = rows.iter().map(|&((g, _), _)| g).collect();
            grams.dedup();
            for &gram in &grams {
                let expect: Vec<(u64, u32)> = rows
                    .iter()
                    .filter(|&&((g, _), _)| g == gram)
                    .map(|&((_, t), c)| (t, c))
                    .collect();
                let got = fuzz::decode_gram_in_place(bytes, gram)
                    .unwrap_or_else(|e| panic!("{what}: in-place decode of gram {gram}: {e}"));
                assert_eq!(got, expect, "{what}: in-place rows of gram {gram}");
            }
            for absent in [
                grams[0].wrapping_sub(1),
                grams[grams.len() - 1].wrapping_add(1),
            ] {
                if !grams.contains(&absent) {
                    let got = fuzz::decode_gram_in_place(bytes, absent).expect("validated entry");
                    assert!(got.is_empty(), "{what}: rows for absent gram {absent}");
                }
            }
        }
        _ => {
            for gram in [header_gram(0), header_gram(16)].into_iter().flatten() {
                if let Ok(rows) = fuzz::decode_gram_in_place(bytes, gram) {
                    assert!(rows.len() <= fuzz::MAX_BLOCK_ROWS, "{what}: row cap");
                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{what}: treeIds");
                    assert!(rows.iter().all(|&(_, c)| c > 0), "{what}: counts");
                }
            }
        }
    }
}

#[test]
fn committed_seeds_decode_cleanly() {
    for (i, seed) in load_corpus().iter().enumerate() {
        let rows = fuzz::decode_block(seed).expect("corpus seed must be a valid block");
        assert_decoded_invariants(&rows, &format!("seed {i}"));
        assert_in_place_agrees(seed, Some(&rows), &format!("seed {i}"));
    }
}

#[test]
fn mutated_posting_blocks_verify_or_reject() {
    let seeds = load_corpus();
    let mut rng = Rng(0x5eed_0001);
    for case in 0..cases() {
        let mut bytes = seeds[case % seeds.len()].clone();
        for _ in 0..=rng.below(6) {
            mutate(&mut rng, &mut bytes);
        }
        // Half the cases get a repaired checksum: those exercise the
        // structural validation; the rest exercise CRC rejection.
        if rng.below(2) == 0 {
            fix_crc(&mut bytes);
        }
        let full = fuzz::decode_block(&bytes).ok();
        if let Some(rows) = &full {
            assert_decoded_invariants(rows, &format!("case {case}"));
        }
        assert_in_place_agrees(&bytes, full.as_deref(), &format!("case {case}"));
    }
}

#[test]
fn random_garbage_blocks_never_panic() {
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..cases() {
        let len = rng.below(600);
        let mut bytes = vec![0u8; len];
        for b in bytes.iter_mut() {
            *b = u8::try_from(rng.next() & 0xff).unwrap_or(0);
        }
        if rng.below(3) == 0 {
            fix_crc(&mut bytes);
        }
        let full = fuzz::decode_block(&bytes).ok();
        if let Some(rows) = &full {
            assert_decoded_invariants(rows, "garbage");
        }
        assert_in_place_agrees(&bytes, full.as_deref(), "garbage");
    }
}

#[test]
fn fuzzed_fence_probes_match_binary_search() {
    let mut rng = Rng(0x5eed_0003);
    for _ in 0..cases() / 40 {
        let n = 1 + rng.below(3_000);
        let mut grams: Vec<u64> = (0..n)
            .map(|_| match rng.below(4) {
                // Tight cluster, duplicate-heavy run, or full-range point.
                0 => rng.next(),
                1 => (1 << 44) + rng.next() % 64,
                _ => (1 << 20) + rng.next() % 4_096,
            })
            .collect();
        grams.sort_unstable();
        let fence = fuzz::Fence::over_grams(grams.clone());
        let mut probes: Vec<u64> = (0..64).map(|_| rng.next()).collect();
        probes.extend((0..64).map(|_| grams[rng.below(n)]));
        probes.push(0);
        probes.push(u64::MAX);
        for probe in probes {
            let expect =
                grams.partition_point(|&g| g < probe)..grams.partition_point(|&g| g <= probe);
            assert_eq!(fence.locate(probe), expect, "probe {probe} over {n} rows");
        }
    }
}

// ---------------------------------------------------------------------------
// Header fuzz over real files: store, segment, and manifest opens must
// return (Ok or Err) on arbitrary header-page bytes — never panic or
// stall. File I/O bounds the case count.
// ---------------------------------------------------------------------------

fn tmp(name: &str) -> PathBuf {
    check::scratch_file("decodefuzz", name)
}

/// Mutates the header page (page 0) of `image`: meta-slot overwrites with
/// boundary values, raw byte writes, truncation — CRC repaired half the
/// time so semantic validation runs.
fn mutate_header(rng: &mut Rng, image: &mut Vec<u8>) {
    let hdr = PAGE_SIZE.min(image.len());
    match rng.below(6) {
        // Meta slot (u64 at 24 + 8i) with a boundary value.
        0..=2 => {
            let at = 24 + 8 * rng.below(16);
            if at + 8 <= hdr {
                let v = match rng.below(5) {
                    0 => 0u64,
                    1 => u64::MAX,
                    2 => u64::MAX - 1,
                    3 => 1 << 32,
                    _ => rng.next(),
                };
                image[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        3 => {
            let at = rng.below(hdr);
            image[at] ^= 1 << rng.below(8);
        }
        4 => {
            let keep = rng.below(image.len() + 1);
            image.truncate(keep);
        }
        _ => {
            let at = rng.below(hdr);
            image[at] = u8::try_from(rng.next() & 0xff).unwrap_or(0);
        }
    }
    if image.len() >= PAGE_SIZE && rng.below(2) == 0 {
        let crc = pqgram_store::crc::crc32(&image[..PAGE_SIZE - 4]);
        image[PAGE_SIZE - 4..PAGE_SIZE].copy_from_slice(&crc.to_le_bytes());
    }
}

#[test]
fn fuzzed_store_headers_never_panic_on_open() {
    use pqgram_core::{build_index, PQParams, TreeId};
    use pqgram_tree::{LabelTable, Tree};

    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let mut tree = Tree::with_root(lt.intern("r"));
    let root = tree.root();
    for i in 0..40 {
        tree.add_child(root, lt.intern(&format!("c{}", i % 5)));
    }
    let idx = build_index(&tree, &lt, params);
    let path = tmp("hdr.pqg");
    std::fs::remove_file(&path).ok();
    let store = IndexStore::bulk_create(&path, params, vec![(TreeId(1), &idx)]).unwrap();
    drop(store);
    let pristine = std::fs::read(&path).unwrap();

    let mut rng = Rng(0x5eed_0004);
    for _ in 0..(cases() / 10).max(50) {
        let mut image = pristine.clone();
        for _ in 0..=rng.below(3) {
            mutate_header(&mut rng, &mut image);
        }
        std::fs::write(&path, &image).unwrap();
        if let Ok(s) = IndexStore::open(&path) {
            let _ = s.verify();
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}

#[test]
fn fuzzed_manifest_and_segment_headers_never_panic_on_open() {
    use pqgram_core::{build_index, PQParams, TreeId};
    use pqgram_tree::{LabelTable, Tree};

    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let mut tree = Tree::with_root(lt.intern("r"));
    let root = tree.root();
    for i in 0..40 {
        tree.add_child(root, lt.intern(&format!("c{}", i % 5)));
    }
    let idx = build_index(&tree, &lt, params);
    let base = tmp("seg.pqg");
    for suffix in ["", ".main.0", ".seg.0", ".seg.1"] {
        let mut p = base.as_os_str().to_owned();
        p.push(suffix);
        std::fs::remove_file(PathBuf::from(p)).ok();
    }
    let mut store = SegmentedIndexStore::create(&base, params).unwrap();
    for i in 1..=4 {
        store.put_tree(TreeId(i), &idx).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    let mut seg = base.as_os_str().to_owned();
    seg.push(".seg.0");
    let seg = PathBuf::from(seg);
    let pristine_manifest = std::fs::read(&base).unwrap();
    let pristine_seg = std::fs::read(&seg).unwrap();

    let mut rng = Rng(0x5eed_0005);
    for case in 0..(cases() / 20).max(25) {
        let mut manifest = pristine_manifest.clone();
        let mut segment = pristine_seg.clone();
        // Alternate targets; occasionally corrupt both at once.
        if case % 3 != 1 {
            mutate_header(&mut rng, &mut manifest);
        }
        if case % 3 != 0 {
            mutate_header(&mut rng, &mut segment);
        }
        std::fs::write(&base, &manifest).unwrap();
        std::fs::write(&seg, &segment).unwrap();
        if let Ok(s) = SegmentedIndexStore::open(&base) {
            let _ = s.verify();
        }
    }
    std::fs::write(&base, &pristine_manifest).unwrap();
    std::fs::write(&seg, &pristine_seg).unwrap();
    SegmentedIndexStore::open(&base).unwrap().verify().unwrap();
}

// ---------------------------------------------------------------------------
// Gram-filter page fuzz: the filter loader must *load or reject* any
// bytes (it is advisory — rejection is the designed response to damage),
// and a store that still opens must never fabricate lookup answers,
// because every hit is re-derived from the relations.
// ---------------------------------------------------------------------------

/// One structure-aware mutation inside a random gram-filter page: header
/// scalars (`nblocks`/`capacity`/`count` at 8/16/24, `npages`/`nindirect`
/// at 32/36), direct page ids (from 40), plus generic bit flips and byte
/// writes — with the page CRC repaired half the time so the validation
/// behind the checksum gets exercised.
fn mutate_filter_page(rng: &mut Rng, image: &mut [u8], offsets: &[u64]) {
    let off = usize::try_from(offsets[rng.below(offsets.len())]).unwrap_or(0);
    if off + PAGE_SIZE > image.len() {
        return;
    }
    match rng.below(6) {
        // Header scalar with a boundary value (straddles the two u32
        // counters when it lands at 32 — deliberate).
        0 | 1 => {
            let at = off
                + match rng.below(5) {
                    0 => 8,
                    1 => 16,
                    2 => 24,
                    3 => 32,
                    _ => 36,
                };
            let v = match rng.below(6) {
                0 => 0u64,
                1 => u64::MAX,
                2 => 1 << 24,
                3 => (1 << 24) + 1,
                4 => 1,
                _ => rng.next(),
            };
            image[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        // A direct data-page id: null, sentinel, aliased low page, random.
        2 => {
            let at = off + 40 + 4 * rng.below(512);
            let v = match rng.below(4) {
                0 => 0u32,
                1 => u32::MAX,
                2 => 7,
                _ => u32::try_from(rng.next() & 0xffff_ffff).unwrap_or(0),
            };
            image[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Bit flip anywhere on the page.
        3 | 4 => {
            let at = off + rng.below(PAGE_SIZE);
            image[at] ^= 1 << rng.below(8);
        }
        // Random byte write.
        _ => {
            let at = off + rng.below(PAGE_SIZE);
            image[at] = u8::try_from(rng.next() & 0xff).unwrap_or(0);
        }
    }
    if rng.below(2) == 0 {
        use fuzz::filter_layout as fl;
        if off == usize::try_from(offsets[0]).unwrap_or(0) {
            let at = off + fl::OFF_HEADER_CRC;
            let crc = pqgram_store::crc::crc32(&image[off..at]);
            image[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        } else {
            let p = off + fl::OFF_PAYLOAD;
            let crc = pqgram_store::crc::crc32(&image[p..p + fl::DATA_PAYLOAD]);
            let at = off + fl::OFF_PAGE_CRC;
            image[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

#[test]
fn fuzzed_filter_pages_load_or_reject_and_never_fabricate_hits() {
    use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
    use pqgram_tree::{LabelTable, Tree};

    // Unique labels per tree push the distinct-gram count past one data
    // page, so the fuzzer reaches the multi-page layout (direct table,
    // page chaining), not just a single-page special case.
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let indexes: Vec<TreeIndex> = (0..8)
        .map(|t| {
            let mut tree = Tree::with_root(lt.intern(&format!("u{t}root")));
            let mut ids = vec![tree.root()];
            for i in 1..200 {
                let parent = ids[i / 2];
                ids.push(tree.add_child(parent, lt.intern(&format!("u{t}n{i}"))));
            }
            build_index(&tree, &lt, params)
        })
        .collect();
    let forest: Vec<(TreeId, &TreeIndex)> = indexes
        .iter()
        .enumerate()
        .map(|(i, idx)| (TreeId(u64::try_from(i).unwrap_or(0) + 1), idx))
        .collect();
    let path = tmp("filter.pqg");
    std::fs::remove_file(&path).ok();
    let store = IndexStore::bulk_create(&path, params, forest).unwrap();
    let query = &indexes[0];
    let baseline = store.lookup(query, 0.8).unwrap();
    assert!(!baseline.is_empty(), "fixture query must have matches");
    drop(store);
    let pristine = std::fs::read(&path).unwrap();

    let offsets = fuzz::filter_page_offsets(&path).unwrap();
    assert!(
        offsets.len() >= 3,
        "fixture filter must span several pages (got {})",
        offsets.len()
    );
    assert!(
        fuzz::filter_load(&path).unwrap(),
        "pristine filter must load"
    );

    let mut rng = Rng(0x5eed_0006);
    for _ in 0..(cases() / 10).max(50) {
        let mut image = pristine.clone();
        for _ in 0..=rng.below(3) {
            mutate_filter_page(&mut rng, &mut image, &offsets);
        }
        std::fs::write(&path, &image).unwrap();
        // Decode contract: loaded or rejected, never a panic, hang, or
        // allocation beyond the structural caps.
        let _ = fuzz::filter_load(&path);
        // End-to-end: a mutated filter either fails to load (dropped,
        // answers re-derive unpruned) or loads with its CRC forged back
        // to validity — and then the verifier's superset audit is the
        // backstop: a filter that *lost* bits undercounts overlap and is
        // flagged there. So whenever verification passes, answers must be
        // bit-identical to the pristine store; when it objects, lookups
        // must still return without panicking.
        if let Ok(s) = IndexStore::open(&path) {
            let verdict = s.verify();
            let looked = s.lookup(query, 0.8);
            if verdict.is_ok() {
                let hits = looked.expect("verified store must serve lookups");
                assert_eq!(hits, baseline, "verified store answered differently");
            }
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    IndexStore::open(&path).unwrap().verify().unwrap();
}
