//! Build invariance: a bulk build may get cheaper, what it produces may not
//! move.
//!
//! Two fixed forests (own splitmix64, no `rand` — the numbers must not
//! depend on which generator the build links) go through the two bulk-build
//! paths: a single file via `IndexStore::bulk_create`, and a segmented
//! store via memtable → three flushes → `compact`. The page count of every
//! file and the footprint of every relation are pinned to the values
//! captured on the commit *before* the write path was rebuilt (pages filled
//! locally, allocated in runs, every relation derived from the rows in
//! hand, merge compaction): that change altered what a build costs, never
//! which pages it produces. Besides the pins, every file must `verify()`,
//! hold exactly `build_index(tree)` under every id, and answer lookups
//! like the in-memory `ForestIndex`.
//!
//! On a deliberate layout change, run with `--nocapture`: the failure
//! prints the actual lines in the format of [`PINNED`].

use pqgram_core::{build_index, ForestIndex, PQParams, TreeId, TreeIndex};
use pqgram_store::buffer::BufferPool;
use pqgram_store::{
    FaultVfs, IndexStore, Pager, RelationBytes, SegmentedIndexStore, Vfs, MAIN_SOURCE,
};
use pqgram_tree::{LabelTable, Tree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
        usize::try_from(self.next() % u64::try_from(n.max(1)).unwrap_or(1)).unwrap_or(0)
    }
}

/// `docs` trees over a shared 20-node skeleton (its grams sit in every
/// tree, so their posting lists grow into blocks) with skewed sizes and a
/// small skewed vocabulary; every seventeenth tree is large.
fn forest(seed: u64, docs: usize, params: PQParams) -> Vec<TreeIndex> {
    let mut rng = Rng(seed);
    let mut lt = LabelTable::new();
    (0..docs)
        .map(|i| {
            let nodes = match i % 17 {
                0 => 300 + rng.below(200),
                1..=4 => 24 + rng.below(12),
                _ => 40 + rng.below(60),
            };
            let mut tree = Tree::with_root(lt.intern("root"));
            let mut ids = vec![tree.root()];
            for n in 1..nodes {
                let (parent, label) = if n < 20 {
                    ((n - 1) / 2, 100 + n % 5)
                } else {
                    (n - 1 - rng.below(6), rng.below(40).min(rng.below(40)))
                };
                ids.push(tree.add_child(ids[parent], lt.intern(&format!("l{label}"))));
            }
            build_index(&tree, &lt, params)
        })
        .collect()
}

fn page_count(vfs: &Arc<dyn Vfs>, path: &Path) -> u32 {
    BufferPool::new(Pager::open_with(path, Arc::clone(vfs)).unwrap(), 8).page_count()
}

fn line(name: &str, pages: u32, b: &RelationBytes) -> String {
    format!(
        "{name}: pages={pages} forward={} inverted_directory={} posting_blocks={} totals={}",
        b.forward, b.inverted_directory, b.posting_blocks, b.totals
    )
}

fn suffixed(base: &str, suffix: &str) -> PathBuf {
    PathBuf::from(format!("{base}{suffix}"))
}

/// `verify()` passed by the caller; here: every tree reads back as built
/// and thresholds on both sides of 1 answer like the oracle.
fn check_contents(
    expect: &[(u64, &TreeIndex)],
    tree_index: impl Fn(TreeId) -> Option<TreeIndex>,
    lookup: impl Fn(&TreeIndex, f64) -> Vec<pqgram_core::LookupHit>,
) {
    let mut oracle = ForestIndex::new();
    for &(id, index) in expect {
        assert_eq!(tree_index(TreeId(id)).as_ref(), Some(index), "tree {id}");
        oracle.insert(TreeId(id), index.clone());
    }
    for &(_, query) in expect.iter().step_by(expect.len() / 5) {
        for tau in [0.5, 0.9, 1.3] {
            assert_eq!(lookup(query, tau), oracle.lookup(query, tau).unwrap());
        }
    }
}

#[test]
fn bulk_builds_produce_the_pinned_pages() {
    let params = PQParams::default();
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
    let mut lines = Vec::new();

    // Single file: one bulk_create over the whole forest.
    let one = forest(0xb01d_0001, 600, params);
    let path = Path::new("/build/single");
    let ids = one.iter().zip(0u64..).map(|(ix, i)| (TreeId(i), ix));
    let store = IndexStore::bulk_create_with(path, params, ids, Arc::clone(&vfs)).unwrap();
    store.verify().unwrap();
    lines.push(line(
        "single",
        page_count(&vfs, path),
        &store.relation_bytes().unwrap(),
    ));
    let expect: Vec<(u64, &TreeIndex)> = (0u64..).zip(&one).collect();
    check_contents(
        &expect,
        |id| store.tree_index(id).unwrap(),
        |q, tau| store.lookup(q, tau).unwrap(),
    );

    // Segmented: three memtable flushes (the later ones overwrite and
    // tombstone ids of the earlier), then one compaction.
    let many = forest(0xb01d_0002, 900, params);
    let base = "/build/seg";
    let mut seg =
        SegmentedIndexStore::create_with(Path::new(base), params, Arc::clone(&vfs)).unwrap();
    seg.set_flush_threshold(u64::MAX);
    let mut latest: std::collections::BTreeMap<u64, &TreeIndex> = Default::default();
    for (round, chunk) in many.chunks(300).enumerate() {
        for (i, index) in chunk.iter().enumerate() {
            // Rounds 1 and 2 re-put every tenth id of the round before.
            let id = if round > 0 && i % 10 == 0 {
                (round - 1) * 300 + i
            } else {
                round * 300 + i
            };
            seg.put_tree(TreeId(id as u64), index).unwrap();
            latest.insert(id as u64, index);
        }
        if round > 0 {
            let gone = ((round - 1) * 300 + 7) as u64;
            assert!(seg.remove_tree(TreeId(gone)).unwrap());
            latest.remove(&gone);
        }
        seg.flush().unwrap();
    }
    assert_eq!(seg.segment_count(), 3);
    seg.verify().unwrap();
    let expect: Vec<(u64, &TreeIndex)> = latest.iter().map(|(&id, &ix)| (id, ix)).collect();
    let check = |seg: &SegmentedIndexStore| {
        check_contents(
            &expect,
            |id| seg.tree_index(id).unwrap(),
            |q, tau| seg.lookup(q, tau).unwrap(),
        )
    };
    check(&seg);
    for (source, bytes) in seg.relation_bytes().unwrap() {
        let (name, file) = if source == MAIN_SOURCE {
            ("main.0".to_owned(), suffixed(base, ".main.0"))
        } else {
            (
                format!("seg.{source}"),
                suffixed(base, &format!(".seg.{source}")),
            )
        };
        lines.push(line(&name, page_count(&vfs, &file), &bytes));
    }
    seg.compact().unwrap();
    assert_eq!(seg.segment_count(), 0);
    seg.verify().unwrap();
    check(&seg);
    let after = seg.relation_bytes().unwrap();
    assert_eq!(after.len(), 1);
    lines.push(line(
        "main.1",
        page_count(&vfs, &suffixed(base, ".main.1")),
        &after[0].1,
    ));

    let actual = lines.join("\n");
    assert!(
        actual == PINNED.trim(),
        "a bulk build moved off the pinned layout; actual lines:\n{actual}"
    );
}

/// Captured on the parent commit of the write-path rebuild.
const PINNED: &str = "
single: pages=953 forward=2793472 inverted_directory=16384 posting_blocks=843776 totals=20480
seg.2: pages=517 forward=1433600 inverted_directory=12288 posting_blocks=528384 totals=12288
seg.1: pages=513 forward=1441792 inverted_directory=12288 posting_blocks=503808 totals=12288
seg.0: pages=494 forward=1421312 inverted_directory=12288 posting_blocks=446464 totals=12288
main.0: pages=6 forward=4096 inverted_directory=4096 posting_blocks=0 totals=4096
main.1: pages=1404 forward=4132864 inverted_directory=20480 posting_blocks=1245184 totals=24576
";
