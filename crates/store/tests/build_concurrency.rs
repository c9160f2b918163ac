//! A relation build fans its sort and encode out over the cores while
//! readers keep looking up.
//!
//! A segmented store's compaction rebuilds every relation on the parallel
//! build path (`pqgram_core::par` workers sort and encode, the writer
//! thread writes every page). Readers run lookups on other threads the
//! whole time and must see exactly the answers of the store before the
//! compaction: compaction moves rows, it never changes them. The store
//! is large enough that its build uses more than one worker on a
//! multi-core host, so the ThreadSanitizer recipe runs this test too.
#![allow(
    clippy::disallowed_methods,
    reason = "the test sets up real files and runs readers on threads of its own"
)]

use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::SegmentedIndexStore;
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::LabelTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    check::scratch_file("build", name)
}

#[test]
fn compaction_builds_in_parallel_while_readers_look_up() {
    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(0xb_0117);
    let mut labels = LabelTable::new();
    let indexes: Vec<(TreeId, TreeIndex)> = (0..240u64)
        .map(|i| {
            let tree = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(60, 6));
            (TreeId(i), build_index(&tree, &labels, params))
        })
        .collect();
    // Two 4096-row shares at the least: enough for two build workers.
    let rows: usize = indexes.iter().map(|(_, index)| index.distinct()).sum();
    assert!(rows >= 2 * 4096, "{rows} rows");
    let mut store = SegmentedIndexStore::create(&tmp("store.pqg"), params).expect("create");
    for batch in indexes.chunks(60) {
        store.put_trees(batch).expect("put_trees");
        store.flush().expect("flush");
    }
    assert!(
        store.segment_count() > 1,
        "compaction needs sources to merge"
    );

    let queries: Vec<&TreeIndex> = indexes.iter().step_by(17).map(|(_, q)| q).collect();
    let expected: Vec<Vec<_>> = queries
        .iter()
        .map(|q| store.lookup(q, 0.8).expect("oracle lookup"))
        .collect();
    let reader = store.reader().expect("reader");
    std::thread::scope(|scope| {
        let lookups: Vec<_> = (0..2)
            .map(|_| {
                let reader = reader.clone();
                let (queries, expected) = (&queries, &expected);
                scope.spawn(move || {
                    for _ in 0..20 {
                        for (q, want) in queries.iter().zip(expected) {
                            let hits = reader.lookup(q, 0.8).expect("reader lookup");
                            assert_eq!(&hits, want, "a lookup saw the compaction");
                        }
                    }
                })
            })
            .collect();
        store.compact().expect("compact");
        for handle in lookups {
            handle.join().expect("reader thread");
        }
    });
    assert_eq!(
        store.segment_count(),
        0,
        "every row now lives in the main file"
    );
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&reader.lookup(q, 0.8).expect("lookup"), want);
    }
    store.verify().expect("compacted store verifies");
}
