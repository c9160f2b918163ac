//! The isolated probes of the traced run: one public function of one
//! layer at a time, fed rows cut from a corpus generated with the run's
//! seed, each repeated for at least [`PROBE_SECONDS`]. They give the
//! per-layer costs no outside span can separate (a B+-tree descent inside
//! a lookup, a block decode inside a probe), at the price of running the
//! layer out of context — read them as unit costs, not as shares of an
//! operation.

use crate::adapter::probe::{
    decode_block, encode_block, filter_load, BTree, BufferPool, Fence, IndexStore, PageId, Pager,
};
use crate::adapter::{build_index, pq_distance, Oracle, Res, TreeId, TreeIndex};
use crate::corpus::{query_variant, skewed};
use crate::counting_vfs::FileClass;
use crate::metrics::ratio;
use crate::workloads::{Cfg, Env, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum measuring time per probe.
const PROBE_SECONDS: f64 = 0.15;
/// Rows per posting block fed to the codec probes.
const BLOCK_ROWS: usize = 256;
/// Pages of the buffer-pool scratch file and frames of its pool.
const BUFFER_PAGES: u32 = 4_096;
const BUFFER_FRAMES: usize = 1_024;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Repeats `body` (which returns how many units of work it did) until
/// `min` has passed; returns nanoseconds per unit.
fn per_unit(min: Duration, mut body: impl FnMut() -> Res<u64>) -> Res<f64> {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += body()?;
        if start.elapsed() >= min {
            return Ok(ratio(start.elapsed().as_nanos() as f64, units as f64));
        }
    }
}

/// Encodes `rows` as posting blocks of up to [`BLOCK_ROWS`] rows, halving
/// any chunk whose encoding would not fit a pack page.
fn encode_blocks(rows: &[((u64, u64), u32)], out: &mut Vec<Vec<u8>>) -> Res<()> {
    for chunk in rows.chunks(BLOCK_ROWS) {
        match encode_block(chunk) {
            Ok(bytes) => out.push(bytes),
            Err(_) if chunk.len() > 1 => {
                let (a, b) = chunk.split_at(chunk.len() / 2);
                encode_blocks(a, out)?;
                encode_blocks(b, out)?;
            }
            Err(e) => return Err(text(e)),
        }
    }
    Ok(())
}

/// Runs every probe and records the probe metrics.
pub fn run(cfg: &Cfg, env: &Env, out: &mut Outcome) -> Res<()> {
    let min = Duration::from_secs_f64(if cfg.smoke { 0.0 } else { PROBE_SECONDS });
    let (docs, fat_nodes) = if cfg.smoke { (50, 300) } else { (400, 1_500) };
    let corpus = skewed(cfg.seed, docs, fat_nodes);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0004);
    let indexes: Vec<TreeIndex> = corpus
        .docs
        .iter()
        .map(|tree| build_index(tree, &corpus.labels))
        .collect();
    let v = &mut out.values;

    // core
    let mut next = 0usize;
    v.set(
        "core.profile_ns_per_node",
        per_unit(min, || {
            let tree = &corpus.docs[next % corpus.docs.len()];
            next += 1;
            black_box(build_index(black_box(tree), &corpus.labels));
            Ok(tree.node_count() as u64)
        })?,
    );
    v.set(
        "core.distance_ns_per_pair",
        per_unit(min, || {
            for pair in indexes.windows(2) {
                black_box(pq_distance(black_box(&pair[0]), black_box(&pair[1])));
            }
            Ok(indexes.len() as u64 - 1)
        })?,
    );
    let mut forest = Oracle::new();
    for (i, index) in indexes.iter().enumerate() {
        forest.insert(TreeId(i as u64), index.clone());
    }
    let query = build_index(&query_variant(&mut rng, &corpus.docs[0]), &corpus.labels);
    v.set(
        "core.mem_lookup_us",
        per_unit(min, || {
            black_box(forest.lookup(black_box(&query), 0.6));
            Ok(1)
        })? / 1e3,
    );
    drop(forest);

    // The corpus as relation rows: forward order `(treeId, gram)` and
    // inverted order `(gram, treeId)`.
    let mut forward: Vec<((u64, u64), u32)> = Vec::new();
    for (i, index) in indexes.iter().enumerate() {
        forward.extend(index.iter().map(|(g, c)| ((i as u64, g), c)));
    }
    forward.sort_unstable_by_key(|&(k, _)| k);
    let mut inverted: Vec<((u64, u64), u32)> =
        forward.iter().map(|&((t, g), c)| ((g, t), c)).collect();
    inverted.sort_unstable_by_key(|&(k, _)| k);
    let rows = forward.len() as u64;

    // postings
    let mut blocks = Vec::new();
    encode_blocks(&inverted, &mut blocks)?;
    v.set(
        "postings.bytes_per_row",
        ratio(
            blocks.iter().map(Vec::len).sum::<usize>() as f64,
            rows as f64,
        ),
    );
    v.set(
        "postings.encode_ns_per_row",
        per_unit(min, || {
            let mut sink = Vec::with_capacity(blocks.len());
            encode_blocks(black_box(&inverted), &mut sink)?;
            black_box(sink);
            Ok(rows)
        })?,
    );
    v.set(
        "postings.decode_ns_per_row",
        per_unit(min, || {
            let mut decoded = 0u64;
            for block in &blocks {
                decoded += decode_block(black_box(block)).map_err(text)?.len() as u64;
            }
            Ok(decoded)
        })?,
    );
    drop(blocks);

    // fence
    let grams: Vec<u64> = inverted.iter().map(|&((g, _), _)| g).collect();
    let keys: Vec<u64> = (0..4_096)
        .map(|_| grams[rng.random_range(0..grams.len())])
        .collect();
    let fence = Fence::over_grams(grams.clone());
    v.set(
        "fence.locate_ns",
        per_unit(min, || {
            for &k in &keys {
                black_box(fence.locate(black_box(k)));
            }
            Ok(keys.len() as u64)
        })?,
    );
    v.set(
        "fence.binsearch_ns",
        per_unit(min, || {
            for &k in &keys {
                black_box(grams.partition_point(|&g| g < black_box(k)));
            }
            Ok(keys.len() as u64)
        })?,
    );
    drop((fence, grams));

    // btree
    {
        let path = env.scratch("probe-btree.main.0");
        let pool = BufferPool::new(
            Pager::create_with(&path, env.arc_vfs()).map_err(text)?,
            BUFFER_FRAMES,
        );
        let tree = BTree::open(&pool, 0).map_err(text)?;
        let t = Instant::now();
        tree.bulk_load(forward.iter().copied()).map_err(text)?;
        v.set(
            "btree.bulk_load_ns_per_row",
            ratio(t.elapsed().as_nanos() as f64, rows as f64),
        );
        let probes: Vec<(u64, u64)> = (0..4_096)
            .map(|_| forward[rng.random_range(0..forward.len())].0)
            .collect();
        v.set(
            "btree.get_ns",
            per_unit(min, || {
                for &k in &probes {
                    black_box(tree.get(black_box(k)).map_err(text)?);
                }
                Ok(probes.len() as u64)
            })?,
        );
        v.set(
            "btree.range_ns_per_row",
            per_unit(min, || {
                let mut seen = 0u64;
                tree.for_each_range((0, 0), (u64::MAX, u64::MAX), |_, c| {
                    seen += u64::from(black_box(c) > 0);
                    true
                })
                .map_err(text)?;
                Ok(seen)
            })?,
        );
        let mut bump = 0u32;
        v.set(
            "btree.batch_ns_per_row",
            per_unit(min, || {
                bump += 1;
                let batch = forward
                    .iter()
                    .step_by(8)
                    .map(|&(k, c)| (k, Some(c.wrapping_add(bump))));
                tree.apply_batch_sorted(batch).map_err(text)?;
                Ok(rows.div_ceil(8))
            })?,
        );
    }

    // buffer
    {
        let path = env.scratch("probe-buffer.main.0");
        let mut pager = Pager::create_with(&path, env.arc_vfs()).map_err(text)?;
        let pages = if cfg.smoke { 64 } else { BUFFER_PAGES };
        for _ in 0..pages {
            pager.allocate().map_err(text)?;
        }
        let pool = BufferPool::new(pager, BUFFER_FRAMES);
        let touch = |id: u32| {
            pool.with_page(PageId(id), |p| black_box(p.get_u8(0)))
                .map_err(text)
        };
        let resident = (BUFFER_FRAMES as u32 / 2).min(pages);
        v.set(
            "buffer.hit_ns",
            per_unit(min, || {
                for id in 1..=resident {
                    touch(id)?;
                }
                Ok(u64::from(resident))
            })?,
        );
        // A cyclic scan over four times the pool defeats clock eviction:
        // every touch is a miss served by the pager.
        v.set(
            "buffer.miss_us",
            per_unit(min, || {
                for id in 1..=pages {
                    touch(id)?;
                }
                Ok(u64::from(pages))
            })? / 1e3,
        );

        // pager / journal: the pool's own transaction over eight pages.
        let before = env.vfs.counts();
        let mut commits = 0u64;
        let mut stamp = 0u64;
        v.set(
            "pager.commit_us_8p",
            per_unit(min, || {
                pool.begin().map_err(text)?;
                stamp += 1;
                for id in 1..=8 {
                    pool.with_page_mut(PageId(id), |p| p.put_u64(8, stamp))
                        .map_err(text)?;
                }
                pool.commit().map_err(text)?;
                commits += 1;
                Ok(1)
            })? / 1e3,
        );
        let io = env.vfs.counts().since(&before);
        let journal = FileClass::Journal as usize;
        v.set(
            "journal.bytes_per_commit_8p",
            ratio(io.write_bytes[journal] as f64, commits as f64),
        );
        v.set(
            "journal.syncs_per_commit",
            ratio(io.sync_calls.iter().sum::<u64>() as f64, commits as f64),
        );
    }

    // index_store, filter
    {
        let path = env.scratch("probe-bulk.main.0");
        let mut built = 0u64;
        v.set(
            "index_store.bulk_create_ns_per_row",
            per_unit(min, || {
                let _ = std::fs::remove_file(&path);
                let forest = indexes
                    .iter()
                    .enumerate()
                    .map(|(i, index)| (TreeId(i as u64), index));
                black_box(
                    IndexStore::bulk_create(&path, crate::adapter::params(), forest)
                        .map_err(text)?,
                );
                built += 1;
                Ok(rows)
            })?,
        );
        v.set(
            "filter.load_us",
            per_unit(min, || {
                let loaded = filter_load(&path).map_err(text)?;
                if loaded {
                    Ok(1)
                } else {
                    Err("bulk-created store carries no loadable gram filter".to_owned())
                }
            })? / 1e3,
        );
        out.notes.push(("probe_rows", rows.to_string()));
        out.notes.push(("probe_bulk_creates", built.to_string()));
    }
    Ok(())
}
