//! Criterion benchmarks for the extension components: approximate join,
//! tree diff, streaming XML indexing, the blob store, and the stages of
//! the store lookup's probe phase.

use criterion::{criterion_group, criterion_main, Criterion};
use pqgram_core::join::{join, join_nested_loop};
use pqgram_core::{build_index, ForestIndex, PQParams, TreeId};
use pqgram_tree::generate::{dblp, random_tree, RandomTreeConfig};
use pqgram_tree::{record_script, LabelTable, ScriptConfig};
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
/// learned fence over the same directory), ns/block for fetching a posting
/// block whose pack page is resident and already validated, and ns/row
/// for the per-row overlap merge.
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
    let blocks = stages.fetch_blocks(&rows).unwrap();
    assert!(blocks > 0, "the fixture must hold posting blocks");
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
        b.iter(|| stages.fetch_blocks(black_box(&rows)).unwrap())
    });
    group.throughput(criterion::Throughput::Elements(postings.len() as u64));
    group.bench_function("emit", |b| b.iter(|| merge_rows(black_box(&postings))));
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_join,
    bench_diff,
    bench_stream_vs_dom,
    bench_blob_store,
    bench_probe_pipeline
);
criterion_main!(benches);
