//! Determinism and concurrency contracts of the parallel engine.
//!
//! 1. **Byte-identical ingest** — profiling a forest over any number of
//!    threads (`pqgram_core::par`) and feeding the batches to the single
//!    writer ([`IndexStore::put_trees`]) produces a store file that is
//!    byte-for-byte identical to the serial pipeline's. The parallel seam
//!    only fans out the pure profiling step; row order and transaction
//!    boundaries — everything the on-disk layout depends on — are fixed.
//!
//! 2. **Concurrent lookups** — any number of threads sharing one
//!    `&IndexStore` may run lookups at once, and every one of them returns
//!    exactly the serial answer.
//!
//! 3. **Fanned-out lookups** — threads sharing one segmented store run
//!    threshold lookups whose segments go to the resident helper threads
//!    (`pqgram_core::par::fan_out`) at the same time, and every answer
//!    equals the in-memory `ForestIndex`.
#![allow(
    clippy::disallowed_methods,
    reason = "the tests compare real store files and storm a store from threads of their own"
)]

use pqgram_core::{build_index, ForestIndex, PQParams, TreeId, TreeIndex};
use pqgram_store::{IndexStore, LookupPlan, SegmentedIndexStore};
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::{LabelTable, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    check::scratch_file("par", name)
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

    let reader = &store;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
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

    // The shared borrows ended with the scope: write access comes back.
    let mut store = store;
    assert!(store.remove_tree(TreeId(0)).expect("remove"));
}

/// Reader storm across ingest rounds: between `put_trees` batches a pack
/// of threads shares the store and hammers every read surface at once (lookups, id scans, containment probes) while
/// asserting each read sees **exactly** the committed
/// post-batch snapshot — never a partially applied batch, never a stale
/// page resurrected by the buffer pool's eviction. Reads racing a write
/// are ruled out by the borrow checker (the readers share `&store`, the
/// writer needs `&mut store`), so "pre- or post-batch" collapses to "the
/// state the borrow began on"; this test pins that down under thread
/// contention, and is the main workload of the nightly ThreadSanitizer job.
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

        let reader = &store;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|worker| {
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
    }
    store.verify().expect("post-storm store verifies");
}

/// Four readers share one segmented store — a main file, three segments
/// (with re-puts and tombstones over older sources) and a memtable — and
/// issue threshold lookups at once. Each lookup hands its segments to the
/// resident helpers while its own thread probes the memtable and the main
/// file, so the helpers serve several callers' jobs in turn. Every answer
/// must equal the in-memory `ForestIndex`.
#[test]
fn fanned_out_lookups_from_four_readers_match_the_oracle() {
    let (docs, labels) = forest(150, 40);
    let params = PQParams::default();
    let indexes: Vec<(TreeId, TreeIndex)> = docs
        .iter()
        .map(|(id, tree)| (*id, build_index(tree, &labels, params)))
        .collect();
    let mut store = SegmentedIndexStore::create(&tmp("fanned.pqg"), params).expect("create");
    store.set_flush_threshold(u64::MAX);
    let mut oracle = ForestIndex::new();
    for (round, batch) in indexes.chunks(30).enumerate() {
        for (id, index) in batch {
            store.put_tree(*id, index).expect("put");
            oracle.insert(*id, index.clone());
        }
        if round > 0 {
            // Re-put one tree of the round before under a new bag, and
            // tombstone another.
            let (moved, gone) = (TreeId(round as u64 * 30 - 3), TreeId(round as u64 * 30 - 7));
            let bag = &indexes[round * 30 + 1].1;
            store.put_tree(moved, bag).expect("re-put");
            oracle.insert(moved, bag.clone());
            assert!(store.remove_tree(gone).expect("remove"));
            oracle.remove(gone);
        }
        match round {
            0 => store.compact().expect("compact"),
            1..=3 => store.flush().expect("flush"),
            _ => {}
        }
    }
    assert_eq!(store.segment_count(), 3);
    assert!(
        store.pending_entries() > 0,
        "the last round stays in the memtable"
    );

    let taus = [0.5, 0.9, 1.2];
    let cases: Vec<(&TreeIndex, f64, Vec<_>)> = indexes
        .iter()
        .step_by(9)
        .flat_map(|(_, q)| taus.map(|tau| (q, tau, oracle.lookup(q, tau).expect("oracle"))))
        .collect();
    let reader = &store;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let cases = &cases;
                scope.spawn(move || {
                    for round in 0..3 {
                        // Each reader walks the cases from its own offset.
                        let offset = (worker * 5 + round) % cases.len();
                        for (q, tau, want) in cases.iter().cycle().skip(offset).take(cases.len()) {
                            let hits = reader.lookup(q, *tau).expect("fanned lookup");
                            assert_eq!(&hits, want, "tau {tau}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
    });
    store.verify().expect("store verifies after the storm");
}
