//! Cross-crate integration: XML → tree → index → persistent store →
//! incremental maintenance → approximate lookup.

use pqgram::{
    build_index, parse_document, record_script, update_index, write_document, IndexStore,
    LabelTable, PQParams, ScriptConfig, TreeId, WriteOptions,
};
use pqgram_tree::generate::{dblp, xmark};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    check::scratch_file("e2e", name)
}

#[test]
fn xml_to_persistent_index_to_lookup() {
    let params = PQParams::default();
    let mut labels = LabelTable::new();

    // Generate documents, serialize to XML, parse back (exercising the
    // whole XML path), index, and persist.
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = IndexStore::create(&tmp("e2e.pqg"), params).unwrap();
    let mut parsed = Vec::new();
    for i in 0..8u64 {
        let tree = if i % 2 == 0 {
            xmark(&mut rng, &mut labels, 1_500)
        } else {
            dblp(&mut rng, &mut labels, 1_500)
        };
        let xml = write_document(&tree, &labels, &WriteOptions::default());
        let back = parse_document(&xml, &mut labels).unwrap();
        assert_eq!(back.node_count(), tree.node_count(), "XML roundtrip");
        store
            .put_tree(TreeId(i), &build_index(&back, &labels, params))
            .unwrap();
        parsed.push(back);
    }

    // Querying with one of the documents finds it first, at distance 0.
    let query = build_index(&parsed[3], &labels, params);
    let hits = store.lookup(&query, 0.9).unwrap();
    assert_eq!(hits[0].tree_id, TreeId(3));
    assert!(hits[0].distance.abs() < 1e-12);
    // XMark documents rank far from DBLP documents.
    let xmark_hits = store
        .lookup(&build_index(&parsed[0], &labels, params), 0.5)
        .unwrap();
    assert!(xmark_hits.iter().all(|h| h.tree_id.0 % 2 == 0));
}

#[test]
fn persistent_incremental_update_survives_reopen() {
    let params = PQParams::new(2, 3);
    let path = tmp("reopen-update.pqg");
    let mut labels = LabelTable::new();
    let mut rng = StdRng::seed_from_u64(2);
    let mut tree = xmark(&mut rng, &mut labels, 5_000);

    {
        let mut store = IndexStore::create(&path, params).unwrap();
        store
            .put_tree(TreeId(0), &build_index(&tree, &labels, params))
            .unwrap();
    }

    // Evolve the document; update the reopened store from the log.
    let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
    let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(150, alphabet));
    {
        let mut store = IndexStore::open(&path).unwrap();
        store
            .update_from_log(TreeId(0), &tree, &labels, &log)
            .unwrap();
    }

    // Reopen once more and verify against a rebuild.
    let store = IndexStore::open(&path).unwrap();
    let stored = store.tree_index(TreeId(0)).unwrap().unwrap();
    assert_eq!(stored, build_index(&tree, &labels, params));
}

#[test]
fn in_memory_and_persistent_updates_agree() {
    let params = PQParams::default();
    let mut labels = LabelTable::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mut tree = dblp(&mut rng, &mut labels, 3_000);
    let old = build_index(&tree, &labels, params);

    let mut store = IndexStore::create(&tmp("agree.pqg"), params).unwrap();
    store.put_tree(TreeId(0), &old).unwrap();

    let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
    let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(80, alphabet));

    let in_memory = update_index(&old, &tree, &labels, &log).unwrap().index;
    store
        .update_from_log(TreeId(0), &tree, &labels, &log)
        .unwrap();
    let persistent = store.tree_index(TreeId(0)).unwrap().unwrap();
    assert_eq!(in_memory, persistent);
}

#[test]
fn multi_document_store_with_mixed_updates() {
    // Several documents in one store; some get updated, some don't; lookups
    // reflect the current state.
    let params = PQParams::default();
    let mut labels = LabelTable::new();
    let mut rng = StdRng::seed_from_u64(4);
    let mut store = IndexStore::create(&tmp("multi.pqg"), params).unwrap();

    let mut docs: Vec<_> = (0..5).map(|_| dblp(&mut rng, &mut labels, 2_000)).collect();
    for (i, d) in docs.iter().enumerate() {
        store
            .put_tree(TreeId(i as u64), &build_index(d, &labels, params))
            .unwrap();
    }
    let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
    for i in [1usize, 3] {
        let (log, _) = record_script(
            &mut rng,
            &mut docs[i],
            &ScriptConfig::new(40, alphabet.clone()),
        );
        store
            .update_from_log(TreeId(i as u64), &docs[i], &labels, &log)
            .unwrap();
    }
    for (i, d) in docs.iter().enumerate() {
        let stored = store.tree_index(TreeId(i as u64)).unwrap().unwrap();
        assert_eq!(stored, build_index(d, &labels, params), "doc {i}");
    }
    assert_eq!(store.tree_ids().unwrap().len(), 5);
}
