//! Criterion benchmarks for the extension components: approximate join,
//! tree diff, streaming XML indexing, the blob store, and the stages of
//! profile construction, of the store's lookup probe phase, of its
//! bulk-build write path and of a point update by where the tree lives.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pqgram_core::join::{join, join_nested_loop};
use pqgram_core::{build_index, ForestIndex, PQParams, TreeId};
use pqgram_tree::generate::{dblp, random_tree, xmark, RandomTreeConfig};
use pqgram_tree::{record_script, LabelTable, ScriptConfig, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_join(c: &mut Criterion) {
    let params = PQParams::new(2, 3);
    let mut rng = StdRng::seed_from_u64(1);
    let mut labels = LabelTable::new();
    let mut left = ForestIndex::new();
    let mut right = ForestIndex::new();
    for i in 0..150u64 {
        let t = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(60, 8));
        left.insert(TreeId(i), build_index(&t, &labels, params));
        let mut noisy = t.clone();
        let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
        record_script(&mut rng, &mut noisy, &ScriptConfig::new(3, alphabet));
        right.insert(TreeId(1000 + i), build_index(&noisy, &labels, params));
    }
    let mut group = c.benchmark_group("approximate_join_150x150");
    group.sample_size(20);
    group.bench_function("inverted_index", |b| {
        b.iter(|| join(black_box(&left), black_box(&right), 0.4))
    });
    group.bench_function("nested_loop", |b| {
        b.iter(|| join_nested_loop(black_box(&left), black_box(&right), 0.4))
    });
    group.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut labels = LabelTable::new();
    let base = dblp(&mut rng, &mut labels, 20_000);
    let mut edited = base.clone();
    let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
    record_script(&mut rng, &mut edited, &ScriptConfig::new(50, alphabet));
    let edited_labels = labels.clone();
    let mut group = c.benchmark_group("tree_diff_20k_nodes_50_edits");
    group.sample_size(20);
    group.bench_function("sync", |b| {
        b.iter(|| {
            let mut old = base.clone();
            let mut lt = labels.clone();
            pqgram_diff::sync(&mut old, &mut lt, &edited, &edited_labels).unwrap()
        })
    });
    group.finish();
}

fn bench_stream_vs_dom(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut labels = LabelTable::new();
    let tree = dblp(&mut rng, &mut labels, 20_000);
    let xml = pqgram_xml::write_document(&tree, &labels, &pqgram_xml::WriteOptions::default());
    let params = PQParams::default();
    let mut group = c.benchmark_group("xml_indexing_20k_nodes");
    group.throughput(criterion::Throughput::Bytes(xml.len() as u64));
    group.bench_function("stream_index", |b| {
        b.iter(|| {
            pqgram_xml::stream_index(
                black_box(&xml),
                params,
                &pqgram_xml::ParseOptions::default(),
            )
            .unwrap()
        })
    });
    group.bench_function("parse_then_build", |b| {
        b.iter(|| {
            let mut lt = LabelTable::new();
            let t = pqgram_xml::parse_document(black_box(&xml), &mut lt).unwrap();
            build_index(&t, &lt, params)
        })
    });
    group.finish();
}

fn bench_blob_store(c: &mut Criterion) {
    use pqgram_store::blob::BlobStore;
    use pqgram_store::buffer::BufferPool;
    use pqgram_store::Pager;
    let dir = std::env::temp_dir().join(format!("pqgram-bench-blob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blobs.db");
    std::fs::remove_file(&path).ok();
    let pool = BufferPool::new(Pager::create(&path).unwrap(), 1024);
    let blobs = BlobStore::open(&pool, 1).unwrap();
    let payload = vec![0x5au8; 64 * 1024];
    let mut key = 0u64;
    let mut group = c.benchmark_group("blob_store_64KiB");
    group.throughput(criterion::Throughput::Bytes(payload.len() as u64));
    group.bench_function("put", |b| {
        b.iter(|| {
            key += 1;
            blobs.put(key % 64, black_box(&payload)).unwrap()
        })
    });
    group.bench_function("get", |b| b.iter(|| blobs.get(black_box(1)).unwrap()));
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The stages of a lookup's probe phase, one number each: ns/gram for the
/// one directory visit a gram gets (down the B+-tree, and through a
/// fence over the same directory), ns/block for fetching a posting
/// block whose pack page is resident and already validated (from the
/// pool, and through a probe's block memo, which re-uses the page it
/// holds), ns/row for probing grams with short (1–3 rows) and long
/// (≥ 64 rows) posting lists, and ns/row for the per-row overlap merge.
fn bench_probe_pipeline(c: &mut Criterion) {
    use pqgram_store::fuzz::{merge_rows, ProbeStages};
    use pqgram_store::IndexStore;
    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(4);
    let mut labels = LabelTable::new();
    // A small alphabet shares grams across trees: posting lists grow into
    // blocks, as on a real collection.
    let indexes: Vec<_> = (0..400)
        .map(|_| {
            let t = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(120, 6));
            build_index(&t, &labels, params)
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("pqgram-bench-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.pqg");
    std::fs::remove_file(&path).ok();
    let forest = indexes.iter().zip(0u64..).map(|(ix, i)| (TreeId(i), ix));
    drop(IndexStore::bulk_create(&path, params, forest).unwrap());
    let stages = ProbeStages::open(&path).unwrap();
    let mut grams: Vec<u64> = indexes[0].iter().map(|(g, _)| g).collect();
    grams.sort_unstable();
    let rows = stages.visit(&grams, false).unwrap();
    assert_eq!(rows, stages.visit(&grams, true).unwrap());
    let blocks = stages.fetch_blocks(&rows, false).unwrap();
    assert!(blocks > 0, "the fixture must hold posting blocks");
    assert_eq!(blocks, stages.fetch_blocks(&rows, true).unwrap());
    // Posting-list length per gram: in how many trees it occurs.
    let mut lists: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for index in &indexes {
        for (gram, _) in index.iter() {
            *lists.entry(gram).or_default() += 1;
        }
    }
    let grams_with = |keep: fn(u64) -> bool| -> Vec<u64> {
        let picked = lists.iter().filter(|&(_, &len)| keep(len));
        picked.map(|(&gram, _)| gram).take(2_000).collect()
    };
    let (short, long) = (grams_with(|len| len <= 3), grams_with(|len| len >= 64));
    let (short_rows, _) = stages.probe(&short).unwrap();
    let (long_rows, _) = stages.probe(&long).unwrap();
    assert!(
        short_rows > 0 && long_rows > 0,
        "the fixture must hold both kinds of run"
    );
    let postings: Vec<(u64, u32)> = (0..20_000u64).map(|i| (i * 7 % 400, 1)).collect();

    let mut group = c.benchmark_group("probe_pipeline");
    group.throughput(criterion::Throughput::Elements(grams.len() as u64));
    group.bench_function("dir_visit_btree", |b| {
        b.iter(|| stages.visit(black_box(&grams), false).unwrap())
    });
    group.bench_function("dir_visit_fence", |b| {
        b.iter(|| stages.visit(black_box(&grams), true).unwrap())
    });
    group.throughput(criterion::Throughput::Elements(blocks));
    group.bench_function("block_fetch_resident", |b| {
        b.iter(|| stages.fetch_blocks(black_box(&rows), false).unwrap())
    });
    group.bench_function("block_fetch_same_page", |b| {
        b.iter(|| stages.fetch_blocks(black_box(&rows), true).unwrap())
    });
    group.throughput(criterion::Throughput::Elements(short_rows));
    group.bench_function("run_decode_short", |b| {
        b.iter(|| stages.probe(black_box(&short)).unwrap())
    });
    group.throughput(criterion::Throughput::Elements(long_rows));
    group.bench_function("run_decode_long", |b| {
        b.iter(|| stages.probe(black_box(&long)).unwrap())
    });
    group.throughput(criterion::Throughput::Elements(postings.len() as u64));
    group.bench_function("emit", |b| b.iter(|| merge_rows(black_box(&postings))));
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The stages of a bulk build, one number each: ns/row for a B+-tree bulk
/// load and for posting-block encoding, and per row of the files written
/// for a memtable flush (one `Segment::build` of ~64 Ki rows between its
/// two manifest commits) and for a compaction of a main file plus four
/// segments.
fn bench_write_pipeline(c: &mut Criterion) {
    use pqgram_store::buffer::BufferPool;
    use pqgram_store::{BTree, Pager, SegmentedIndexStore};
    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(5);
    let mut labels = LabelTable::new();
    let mut indexes = Vec::new();
    let mut rows = 0usize;
    while rows < 5 * 64 * 1024 {
        let t = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(300, 6));
        let index = build_index(&t, &labels, params);
        rows += index.distinct();
        indexes.push(index);
    }
    let fifth = indexes.len() / 5;
    let rows_of =
        |part: &[pqgram_core::TreeIndex]| part.iter().map(|ix| ix.distinct() as u64).sum();
    let mut forward: Vec<((u64, u64), u32)> = Vec::new();
    for (index, t) in indexes[..fifth].iter().zip(0u64..) {
        forward.extend(index.iter().map(|(g, n)| ((t, g), n)));
    }
    forward.sort_unstable_by_key(|&(k, _)| k);
    let mut inverted: Vec<((u64, u64), u32)> =
        forward.iter().map(|&((t, g), n)| ((g, t), n)).collect();
    inverted.sort_unstable_by_key(|&(k, _)| k);

    let dir = std::env::temp_dir().join(format!("pqgram-bench-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut fresh = 0u64;
    let mut fresh_path = |stem: &str| {
        fresh += 1;
        dir.join(format!("{stem}-{fresh}"))
    };
    // A store holding `parts[0]` compacted into main and every further part
    // in a segment of its own, with `last` still in the memtable.
    let store = |base: &std::path::Path, parts: &[&[pqgram_core::TreeIndex]]| {
        let mut store = SegmentedIndexStore::create(base, params).unwrap();
        store.set_flush_threshold(u64::MAX);
        let mut id = 0u64;
        for (i, part) in parts.iter().enumerate() {
            for index in part.iter() {
                store.put_tree(TreeId(id), index).unwrap();
                id += 1;
            }
            match i {
                0 if parts.len() > 1 => store.compact().unwrap(),
                i if i + 1 < parts.len() => store.flush().unwrap(),
                _ => {}
            }
        }
        store
    };

    let mut group = c.benchmark_group("write_pipeline");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(forward.len() as u64));
    group.bench_function("btree_bulk_load", |b| {
        b.iter_batched(
            || BufferPool::new(Pager::create(&fresh_path("bulk")).unwrap(), 1024),
            |pool| {
                let tree = BTree::open(&pool, 0).unwrap();
                tree.bulk_load(black_box(&forward).iter().copied()).unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("encode_block", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for chunk in black_box(&inverted).chunks(pqgram_store::fuzz::MAX_BLOCK_ROWS) {
                bytes += pqgram_store::fuzz::encode_block(chunk).unwrap().len();
            }
            bytes
        })
    });
    group.throughput(criterion::Throughput::Elements(rows_of(&indexes[..fifth])));
    group.bench_function("segment_build_64Ki_rows", |b| {
        b.iter_batched(
            || store(&fresh_path("flush"), &[&indexes[..fifth]]),
            |mut store| store.flush().unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.throughput(criterion::Throughput::Elements(rows_of(&indexes)));
    group.bench_function("compact_main_plus_4_segments", |b| {
        b.iter_batched(
            || {
                let parts: Vec<&[_]> = indexes.chunks(fifth).take(5).collect();
                let mut store = store(&fresh_path("compact"), &parts);
                store.flush().unwrap();
                assert_eq!(store.segment_count(), 4);
                store
            },
            |mut store| store.compact().unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The stages of `build_index`, one by one, on the three shapes where a
/// per-anchor / per-child / per-gram cost split could differ: a deep chain
/// (every anchor has one child, paths are long), a wide star (one anchor,
/// every gram a window slide) and an XMark-like document. `enumerate` is
/// the node-level walk (`for_each_gram`, counting only); `fold_reference`
/// adds the definition's `combine` fold over all `p + q` labels of every
/// gram; `keys` is the shared kernel walk (`for_each_key`) with no bag;
/// `build_index` adds the bag.
fn bench_profile_pipeline(c: &mut Criterion) {
    use pqgram_core::gram::label_tuple_fingerprint;
    use pqgram_core::{for_each_gram, for_each_key};
    const NODES: usize = 20_000;
    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut labels = LabelTable::new();
    let syms: Vec<_> = (0..16).map(|i| labels.intern(&format!("l{i}"))).collect();
    let label_of = |i: usize| syms[i % syms.len()];
    let mut chain = Tree::with_root(label_of(0));
    let mut tip = chain.root();
    for i in 1..NODES {
        tip = chain.add_child(tip, label_of(i));
    }
    let mut star = Tree::with_root(label_of(0));
    for i in 1..NODES {
        star.add_child(star.root(), label_of(i));
    }
    let document = xmark(&mut rng, &mut labels, NODES);

    let mut group = c.benchmark_group("profile_pipeline");
    group.sample_size(20);
    for (shape, tree) in [("chain", &chain), ("star", &star), ("xmark", &document)] {
        group.throughput(criterion::Throughput::Elements(tree.node_count() as u64));
        group.bench_function(format!("enumerate/{shape}"), |b| {
            b.iter(|| {
                let mut grams = 0u64;
                for_each_gram(black_box(tree), params, |_, _| grams += 1);
                grams
            })
        });
        group.bench_function(format!("fold_reference/{shape}"), |b| {
            b.iter(|| {
                let mut sum = 0u64;
                for_each_gram(black_box(tree), params, |ppart, qpart| {
                    let tuple = ppart.iter().chain(qpart).map(|e| e.label());
                    sum ^= label_tuple_fingerprint(tuple, &labels);
                });
                sum
            })
        });
        group.bench_function(format!("keys/{shape}"), |b| {
            b.iter(|| {
                let mut sum = 0u64;
                for_each_key(black_box(tree), &labels, params, |key| sum ^= key);
                sum
            })
        });
        group.bench_function(format!("build_index/{shape}"), |b| {
            b.iter(|| build_index(black_box(tree), &labels, params))
        });
    }
    group.finish();
}

/// What one point update costs by where the tree lives: `apply_delta` of a
/// delta of three removals and three additions, and `update_from_log` of a
/// one-edit log (δ/λ included), on a 200-node and a 5 000-node tree that is
/// buffered in the memtable, stored in the newest of four segments, or
/// stored in the main file underneath them. Every sample runs on a freshly
/// opened store (an update moves the tree into the memtable) whose pages
/// for the tree are already in the pool.
fn bench_update_pipeline(c: &mut Criterion) {
    use pqgram_core::maintain::IndexDelta;
    use pqgram_store::SegmentedIndexStore;
    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(8);
    let mut labels = LabelTable::new();
    let mut tree_of = |nodes: usize| {
        let tree = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(nodes, 6));
        let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
        let mut edited = tree.clone();
        let (log, _) = record_script(&mut rng, &mut edited, &ScriptConfig::new(1, alphabet));
        (build_index(&tree, &labels, params), edited, log)
    };
    let docs = [("200_nodes", tree_of(200)), ("5000_nodes", tree_of(5_000))];
    let filler: Vec<_> = (0..110).map(|_| tree_of(200).0).collect();

    let dir = std::env::temp_dir().join(format!("pqgram-bench-update-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("store");
    // Tree `3 * d + 2` of document `d` goes to the main file, `3 * d + 1`
    // to the newest segment; `3 * d` is put into the memtable per sample.
    let mut store = SegmentedIndexStore::create(&base, params).unwrap();
    store.set_flush_threshold(u64::MAX);
    let mut fill = filler.iter().zip(100u64..);
    for (index, id) in fill.by_ref().take(30) {
        store.put_tree(TreeId(id), index).unwrap();
    }
    for (d, (_, (index, _, _))) in docs.iter().enumerate() {
        store.put_tree(TreeId(3 * d as u64 + 2), index).unwrap();
    }
    store.compact().unwrap();
    for segment in 0..4 {
        for (index, id) in fill.by_ref().take(20) {
            store.put_tree(TreeId(id), index).unwrap();
        }
        if segment == 3 {
            for (d, (_, (index, _, _))) in docs.iter().enumerate() {
                store.put_tree(TreeId(3 * d as u64 + 1), index).unwrap();
            }
        }
        store.flush().unwrap();
    }
    assert_eq!(store.segment_count(), 4);
    drop(store);

    let mut group = c.benchmark_group("update_pipeline");
    group.sample_size(20);
    for (d, (size, (index, edited, log))) in docs.iter().enumerate() {
        let mut held: Vec<u64> = index.iter().map(|(g, _)| g).collect();
        held.sort_unstable();
        let delta = IndexDelta {
            removals: held[..3].to_vec(),
            additions: vec![1, 2, 3],
        };
        let places = ["memtable", "newest_segment", "main_under_4_segments"];
        for (place, id) in places.into_iter().zip(3 * d as u64..) {
            let id = TreeId(id);
            let fresh = || {
                let mut store = SegmentedIndexStore::open(&base).unwrap();
                store.set_flush_threshold(u64::MAX);
                if place == "memtable" {
                    store.put_tree(id, index).unwrap();
                }
                assert_eq!(store.tree_index(id).unwrap().as_ref(), Some(index));
                store
            };
            group.bench_function(format!("apply_delta/{size}/{place}"), |b| {
                b.iter_batched(
                    fresh,
                    |mut store| {
                        store.apply_delta(id, black_box(&delta)).unwrap();
                        store
                    },
                    BatchSize::PerIteration,
                )
            });
            group.bench_function(format!("update_from_log/{size}/{place}"), |b| {
                b.iter_batched(
                    fresh,
                    |mut store| {
                        store.update_from_log(id, edited, &labels, log).unwrap();
                        store
                    },
                    BatchSize::PerIteration,
                )
            });
        }
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_join,
    bench_diff,
    bench_stream_vs_dom,
    bench_blob_store,
    bench_profile_pipeline,
    bench_probe_pipeline,
    bench_write_pipeline,
    bench_update_pipeline
);
criterion_main!(benches);
