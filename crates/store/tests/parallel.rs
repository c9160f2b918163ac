//! Determinism and concurrency contracts of the parallel engine.
//!
//! 1. **Byte-identical ingest** — profiling a forest over any number of
//!    threads (`pqgram_core::par`) and feeding the batches to the single
//!    writer ([`IndexStore::put_trees`]) produces a store file that is
//!    byte-for-byte identical to the serial pipeline's. The parallel seam
//!    only fans out the pure profiling step; row order and transaction
//!    boundaries — everything the on-disk layout depends on — are fixed.
//!
//! 2. **Concurrent lookups** — any number of [`IndexStoreReader`] clones
//!    may run lookups at once, and every one of them returns exactly the
//!    serial answer.

use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::{IndexStore, IndexStoreReader, LookupPlan};
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::{LabelTable, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqgram-par-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    let mut j = p.as_os_str().to_owned();
    j.push("-journal");
    std::fs::remove_file(PathBuf::from(j)).ok();
    p
}

fn forest(count: usize, nodes: usize) -> (Vec<(TreeId, Tree)>, LabelTable) {
    let mut rng = StdRng::seed_from_u64(0xf0_7e57);
    let mut labels = LabelTable::new();
    let docs = (0..count)
        .map(|i| {
            let tree = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(nodes, 6));
            (TreeId(i as u64), tree)
        })
        .collect();
    (docs, labels)
}

/// The full ingest pipeline: profile `docs` over `threads` workers, then
/// stream sorted batches of 10 into the single writer.
fn ingest(path: &Path, docs: &[(TreeId, Tree)], labels: &LabelTable, threads: usize) -> IndexStore {
    let params = PQParams::default();
    let batch: Vec<(TreeId, TreeIndex)> = pqgram_core::par::map(docs, threads, |(id, tree)| {
        (*id, build_index(tree, labels, params))
    });
    let mut store = IndexStore::create(path, params).expect("create");
    for chunk in batch.chunks(10) {
        store.put_trees(chunk).expect("put_trees");
    }
    store.flush().expect("flush");
    store
}

#[test]
fn parallel_ingest_is_byte_identical_to_serial() {
    let (docs, labels) = forest(100, 60);
    let serial_path = tmp("serial.pqg");
    let serial = ingest(&serial_path, &docs, &labels, 1);
    drop(serial);
    for threads in [2usize, 4, 8] {
        let par_path = tmp(&format!("par{threads}.pqg"));
        let store = ingest(&par_path, &docs, &labels, threads);
        store.verify().expect("parallel-ingested store verifies");
        drop(store);
        let a = std::fs::read(&serial_path).expect("read serial file");
        let b = std::fs::read(&par_path).expect("read parallel file");
        assert!(
            a == b,
            "{threads}-thread ingest produced a different file ({} vs {} bytes)",
            b.len(),
            a.len()
        );
    }
}

#[test]
fn concurrent_readers_agree_with_serial_lookup() {
    let (docs, labels) = forest(60, 50);
    let params = PQParams::default();
    let indexes: Vec<(TreeId, TreeIndex)> = docs
        .iter()
        .map(|(id, tree)| (*id, build_index(tree, &labels, params)))
        .collect();
    let store = IndexStore::bulk_create(
        &tmp("readers.pqg"),
        params,
        indexes.iter().map(|(id, idx)| (*id, idx)),
    )
    .expect("bulk_create");

    let queries: Vec<TreeIndex> = indexes
        .iter()
        .step_by(7)
        .map(|(_, idx)| idx.clone())
        .collect();
    let tau = 0.8;
    let expected: Vec<_> = queries
        .iter()
        .map(|q| store.lookup(q, tau).expect("serial lookup"))
        .collect();

    let reader = store.into_reader();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reader: IndexStoreReader = reader.clone();
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..5 {
                        for (q, want) in queries.iter().zip(expected) {
                            let (hits, stats) =
                                reader.lookup_with_stats(q, tau).expect("concurrent lookup");
                            assert_eq!(stats.plan, LookupPlan::CandidateMerge);
                            assert_eq!(&hits, want);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
    });

    // All clones dropped: write access comes back.
    let store = match reader.try_into_store() {
        Ok(store) => store,
        Err(_) => panic!("no clones left, try_into_store must succeed"),
    };
    assert!(store.contains_tree(TreeId(0)).expect("contains"));
}

/// Reader storm across ingest rounds: between `put_trees` batches the
/// store flips into a shared reader, and a pack of threads hammers every
/// read surface at once (lookups, id scans, containment probes) while
/// asserting each read sees **exactly** the committed
/// post-batch snapshot — never a partially applied batch, never a stale
/// page resurrected by the buffer pool's eviction. Reads racing a write
/// are ruled out in the type system (`into_reader` consumes the store),
/// so "pre- or post-batch" collapses to "the snapshot the handle was
/// built from"; this test pins that down under thread contention, and is
/// the main workload of the nightly ThreadSanitizer job.
#[test]
fn reader_storm_sees_exact_post_batch_snapshots() {
    let (docs, labels) = forest(90, 40);
    let params = PQParams::default();
    let indexes: Vec<(TreeId, TreeIndex)> = docs
        .iter()
        .map(|(id, tree)| (*id, build_index(tree, &labels, params)))
        .collect();
    let mut store = IndexStore::create(&tmp("storm.pqg"), params).expect("create");
    let mut rng = StdRng::seed_from_u64(0x5_7012);
    let tau = 0.9;
    for batch in indexes.chunks(30) {
        store.put_trees(batch).expect("batch ingest");

        // Serial post-batch oracle over randomized queries drawn from
        // everything ingested so far.
        let ids = store.tree_ids().expect("ids");
        let queries: Vec<TreeIndex> = (0..5)
            .map(|_| {
                let pick = rng.random_range(0..ids.len());
                indexes[ids[pick].0 as usize].1.clone()
            })
            .collect();
        let expected: Vec<Vec<_>> = queries
            .iter()
            .map(|q| store.lookup(q, tau).expect("oracle lookup"))
            .collect();

        let reader = store.into_reader();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|worker| {
                    let reader = reader.clone();
                    let (queries, expected, ids) = (&queries, &expected, &ids);
                    scope.spawn(move || {
                        for (q, want) in queries.iter().zip(expected) {
                            let (hits, _) = reader.lookup_with_stats(q, tau).expect("storm lookup");
                            assert_eq!(&hits, want, "lookup drifted from the snapshot");
                        }
                        assert_eq!(&reader.tree_ids().expect("ids"), ids);
                        let probe = ids[worker % ids.len()];
                        assert!(reader.contains_tree(probe).expect("contains"));
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("storm thread");
            }
        });
        store = match reader.try_into_store() {
            Ok(store) => store,
            Err(_) => panic!("no clones left, try_into_store must succeed"),
        };
    }
    store.verify().expect("post-storm store verifies");
}
