//! Model-based and stress tests for the storage engine: the B+-tree must
//! behave exactly like `std::collections::BTreeMap` under arbitrary
//! operation sequences, transactions must be all-or-nothing across crashes,
//! the buffer pool must serve concurrent readers, and the segmented store's
//! point operations must behave like a `BTreeMap<TreeId, TreeIndex>` — and
//! its lookups like a `ForestIndex` over that map — wherever a tree happens
//! to live.

use pqgram_store::btree::{BTree, Key};
use pqgram_store::buffer::BufferPool;
use pqgram_store::{PageId, Pager};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqgram-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    let mut j = p.as_os_str().to_owned();
    j.push("-journal");
    std::fs::remove_file(PathBuf::from(j)).ok();
    p
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, u32),
    Delete(Key),
    Get(Key),
    Scan(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key universe so operations collide often.
    let key = (0u64..4, 0u64..600).prop_map(|(a, b)| (a, b));
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Delete),
        key.prop_map(Op::Get),
        (0u64..4).prop_map(Op::Scan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..400), case in 0u64..u64::MAX) {
        let path = tmp(&format!("model-{case}.db"));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 32);
        let tree = BTree::open(&pool, 0).unwrap();
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let expected = model.insert(k, v);
                    prop_assert_eq!(tree.insert(k, v).unwrap(), expected);
                }
                Op::Delete(k) => {
                    let expected = model.remove(&k);
                    prop_assert_eq!(tree.delete(k).unwrap(), expected);
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(k).unwrap(), model.get(&k).copied());
                }
                Op::Scan(t) => {
                    let mut got = Vec::new();
                    tree.for_each_range((t, 0), (t, u64::MAX), |k, v| {
                        got.push((k, v));
                        true
                    }).unwrap();
                    let expected: Vec<(Key, u32)> = model
                        .range((t, 0)..=(t, u64::MAX))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    prop_assert_eq!(got, expected);
                }
            }
        }
        prop_assert_eq!(tree.len().unwrap(), model.len() as u64);
        let check = tree.verify().unwrap();
        prop_assert_eq!(check.entries, model.len() as u64);
        pool.validate_pager().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_between_transactions_keeps_last_commit(
        committed in proptest::collection::vec((0u64..3, 0u64..200, any::<u32>()), 1..60),
        uncommitted in proptest::collection::vec((0u64..3, 0u64..200, any::<u32>()), 1..60),
        case in 0u64..u64::MAX,
    ) {
        let path = tmp(&format!("crash-{case}.db"));
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        {
            let pool = BufferPool::new(Pager::create(&path).unwrap(), 16);
            let tree = BTree::open(&pool, 0).unwrap();
            pool.begin().unwrap();
            for &(a, b, v) in &committed {
                tree.insert((a, b), v).unwrap();
                model.insert((a, b), v);
            }
            pool.commit().unwrap();
            // Second transaction: crashes before commit.
            pool.begin().unwrap();
            for &(a, b, v) in &uncommitted {
                tree.insert((a, b), v.wrapping_add(1)).unwrap();
            }
            pool.flush().unwrap(); // dirty pages reach disk, journal is hot
            // Crash: drop everything without commit/rollback.
            std::mem::forget(pool);
        }
        let pool = BufferPool::new(Pager::open(&path).unwrap(), 16);
        let tree = BTree::open(&pool, 0).unwrap();
        let mut got = Vec::new();
        tree.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, v| {
            got.push((k, v));
            true
        }).unwrap();
        let expected: Vec<(Key, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, expected, "recovery must restore the last commit");
        tree.verify().unwrap();
        pool.validate_pager().unwrap();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn concurrent_readers_share_the_pool() {
    let path = tmp("concurrent.db");
    let pool = BufferPool::new(Pager::create(&path).unwrap(), 64);
    let tree = BTree::open(&pool, 0).unwrap();
    for g in 0..20_000u64 {
        tree.insert((g % 8, g), g as u32).unwrap();
    }
    pool.flush().unwrap();
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let pool = &pool;
            scope.spawn(move || {
                let tree = BTree::open(pool, 0).unwrap();
                let mut count = 0u64;
                tree.for_each_range((t % 8, 0), (t % 8, u64::MAX), |_, _| {
                    count += 1;
                    true
                })
                .unwrap();
                assert_eq!(count, 2_500);
                for g in (0..20_000u64).step_by(101) {
                    let expect = (g % 8 == t % 8).then_some(g as u32);
                    let got = tree.get((t % 8, g)).unwrap();
                    if g % 8 == t % 8 {
                        assert_eq!(got, expect);
                    }
                }
            });
        }
    });
}

#[test]
fn reopen_after_many_transactions() {
    let path = tmp("manytx.db");
    {
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 32);
        let tree = BTree::open(&pool, 0).unwrap();
        for round in 0..30u64 {
            pool.begin().unwrap();
            for g in 0..200u64 {
                tree.insert((round % 4, round * 1_000 + g), (round * g) as u32)
                    .unwrap();
            }
            if round % 5 == 4 {
                pool.rollback().unwrap();
            } else {
                pool.commit().unwrap();
            }
        }
    }
    let pool = BufferPool::new(Pager::open(&path).unwrap(), 32);
    let tree = BTree::open(&pool, 0).unwrap();
    // 30 rounds, every 5th rolled back -> 24 committed * 200 entries.
    assert_eq!(tree.len().unwrap(), 24 * 200);
    tree.verify().unwrap();
    pool.validate_pager().unwrap();
}

#[test]
fn header_page_is_never_handed_out() {
    let path = tmp("headerguard.db");
    let pool = BufferPool::new(Pager::create(&path).unwrap(), 8);
    let first = pool.allocate().unwrap();
    assert_ne!(first, PageId(0), "allocation must never return the header");
}

#[test]
fn bulk_create_equals_put_tree() {
    use pqgram_core::{build_index, PQParams, TreeId};
    use pqgram_store::IndexStore;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(1);
    let mut lt = LabelTable::new();
    let indexes: Vec<_> = (0..12u64)
        .map(|i| {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(150, 6));
            (TreeId(i), build_index(&t, &lt, params))
        })
        .collect();

    let bulk_path = tmp("bulk.pqg");
    let bulk = IndexStore::bulk_create(
        &bulk_path,
        params,
        indexes.iter().map(|(id, idx)| (*id, idx)),
    )
    .unwrap();
    bulk.verify().unwrap();

    let put_path = tmp("put.pqg");
    let mut put = IndexStore::create(&put_path, params).unwrap();
    for (id, idx) in &indexes {
        put.put_tree(*id, idx).unwrap();
    }
    for (id, idx) in &indexes {
        assert_eq!(bulk.tree_index(*id).unwrap().unwrap(), *idx);
        assert_eq!(put.tree_index(*id).unwrap().unwrap(), *idx);
    }
    assert_eq!(bulk.row_count().unwrap(), put.row_count().unwrap());
    // Bulk files are tighter than incrementally split files.
    let bulk_len = std::fs::metadata(&bulk_path).unwrap().len();
    let put_len = std::fs::metadata(&put_path).unwrap().len();
    assert!(bulk_len <= put_len, "bulk {bulk_len} > put {put_len}");
}

#[test]
fn compaction_preserves_content_and_shrinks() {
    use pqgram_core::{build_index, PQParams, TreeId};
    use pqgram_store::IndexStore;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let params = PQParams::default();
    let mut rng = StdRng::seed_from_u64(2);
    let mut lt = LabelTable::new();
    let path = tmp("frag.pqg");
    let mut store = IndexStore::create(&path, params).unwrap();
    // Fragment the file: insert and remove several generations of trees.
    for round in 0..4u64 {
        for i in 0..8u64 {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(200, 6));
            store
                .put_tree(TreeId(round * 100 + i), &build_index(&t, &lt, params))
                .unwrap();
        }
        if round < 3 {
            for i in 0..8u64 {
                store.remove_tree(TreeId(round * 100 + i)).unwrap();
            }
        }
    }
    store.flush().unwrap();
    let before = std::fs::metadata(&path).unwrap().len();
    let compact_path = tmp("compact.pqg");
    let compacted = store.compact_to(&compact_path).unwrap();
    compacted.verify().unwrap();
    let after = std::fs::metadata(&compact_path).unwrap().len();
    assert!(
        after < before,
        "compaction must shrink: {after} vs {before}"
    );
    assert_eq!(compacted.tree_ids().unwrap(), store.tree_ids().unwrap());
    for id in store.tree_ids().unwrap() {
        assert_eq!(
            compacted.tree_index(id).unwrap().unwrap(),
            store.tree_index(id).unwrap().unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// The segmented store's point operations and lookups against a map of bags.
//
// Every step draws an operation, a tree id from a universe of eight (so
// the same tree is hit while it lives in the memtable, in a young segment,
// under several segments, in the main file, behind a tombstone, or
// nowhere) and a seed the step derives its tree, edit script or delta from.
// ---------------------------------------------------------------------------

mod point_ops {
    use pqgram_core::maintain::{compute_index_delta, IndexDelta};
    use pqgram_core::{build_index, ForestIndex, GramKey, PQParams, TreeId, TreeIndex};
    use pqgram_store::index_store::IndexError;
    use pqgram_store::{FaultVfs, SegmentedIndexStore, Vfs};
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, LabelTable, ScriptConfig, Tree};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::Path;
    use std::sync::Arc;

    const IDS: u64 = 8;

    /// What the store must hold: the bag of every stored tree, and the
    /// document each id was last given (kept across removals, so an
    /// `update_from_log` can also hit a tree the store no longer knows).
    #[derive(Clone, Default)]
    struct Model {
        bags: BTreeMap<u64, TreeIndex>,
        docs: BTreeMap<u64, Tree>,
    }

    impl Model {
        fn set(&mut self, id: u64, bag: TreeIndex) {
            if bag.total() > 0 {
                self.bags.insert(id, bag);
            } else {
                self.bags.remove(&id); // an empty bag is not stored
            }
        }
    }

    /// The reference `I \\ I⁻ ⊎ I⁺`: one removal at a time on a copy; the
    /// first gram that cannot be removed rejects the delta.
    fn reference_apply(bag: &TreeIndex, delta: &IndexDelta) -> Result<TreeIndex, GramKey> {
        let mut out = bag.clone();
        for &g in &delta.removals {
            if !out.remove(g) {
                return Err(g);
            }
        }
        for &g in &delta.additions {
            out.add(g);
        }
        Ok(out)
    }

    /// A delta against `bag`: removals drawn from the grams it holds (never
    /// more copies than it has), a few additions — and, if `spoil`, one
    /// removal the bag cannot serve slipped in at a random position.
    fn random_delta(rng: &mut StdRng, bag: &TreeIndex, spoil: bool) -> IndexDelta {
        let mut held: Vec<(GramKey, u32)> = bag.iter().collect();
        held.sort_unstable();
        let mut delta = IndexDelta::default();
        for &(g, n) in &held {
            if rng.random_range(0..4) == 0 {
                let copies = rng.random_range(1..=n);
                delta.removals.extend((0..copies).map(|_| g));
            }
        }
        for _ in 0..rng.random_range(0..4) {
            // Some additions re-add a gram the bag holds or just lost.
            let g = match held.get(rng.random_range(0..held.len().max(1))) {
                Some(&(g, _)) if rng.random_bool(0.5) => g,
                _ => rng.random_range(1..1u64 << 40),
            };
            delta.additions.push(g);
        }
        if spoil {
            // One copy too many of a held gram, or a gram never held.
            let g = match held.get(rng.random_range(0..held.len().max(1))) {
                Some(&(g, n)) if rng.random_bool(0.5) => {
                    let taken = delta.removals.iter().filter(|&&r| r == g).count();
                    let missing = n as usize - taken;
                    delta.removals.extend((0..missing).map(|_| g));
                    g
                }
                _ => (1u64 << 41) + rng.random_range(0..9u64),
            };
            let at = rng.random_range(0..=delta.removals.len());
            delta.removals.insert(at, g);
        }
        delta
    }

    /// Holds the store's verdict on one delta to the reference's: both
    /// accept (the new bag is returned), or both reject at the same gram
    /// (`None` — all-or-nothing, so the model stays as it was and
    /// `check_step` holds the store to it).
    fn agree<T: std::fmt::Debug>(
        tid: TreeId,
        got: Result<T, IndexError>,
        want: Result<TreeIndex, GramKey>,
    ) -> Result<Option<TreeIndex>, TestCaseError> {
        match (got, want) {
            (Ok(_), Ok(after)) => Ok(Some(after)),
            (Err(IndexError::InconsistentDelta(t, g)), Err(gram)) => {
                prop_assert_eq!((t, g), (tid, gram));
                Ok(None)
            }
            (got, want) => Err(TestCaseError::fail(format!(
                "store {got:?}, reference {:?}",
                want.map(|_| ())
            ))),
        }
    }

    /// A query near the model: one of its bags (any, when it has some) that
    /// lost a few grams and gained a few foreign ones.
    fn model_query(rng: &mut StdRng, model: &Model, params: PQParams) -> TreeIndex {
        let pick = rng.random_range(0..model.bags.len().max(1));
        let mut query = match model.bags.values().nth(pick) {
            Some(bag) => bag.clone(),
            None => TreeIndex::empty(params),
        };
        let mut held: Vec<GramKey> = query.iter().map(|(g, _)| g).collect();
        held.sort_unstable();
        for g in held {
            if rng.random_range(0..4) == 0 {
                query.remove(g);
            }
        }
        for _ in 0..rng.random_range(1..4) {
            query.add(rng.random_range(1..1u64 << 40));
        }
        query
    }

    /// After every step: every id answers as the model does, the memtable —
    /// the ids in `buffered` — counts the grams of exactly the bags it
    /// buffers, and one threshold lookup and one top-k answer as a
    /// `ForestIndex` over the model's bags does (hits, distances, order) —
    /// on the writer, and on a reader whenever the memtable is empty (so
    /// that asking for one flushes nothing).
    fn check_step(
        store: &mut SegmentedIndexStore,
        model: &Model,
        buffered: &BTreeSet<u64>,
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        let bags = buffered.iter().filter_map(|id| model.bags.get(id));
        let grams: usize = bags.map(TreeIndex::distinct).sum();
        prop_assert_eq!(store.pending_grams(), grams as u64);
        prop_assert_eq!(store.pending_entries(), buffered.len());
        for id in 0..IDS {
            let want = model.bags.get(&id);
            prop_assert_eq!(store.contains_tree(TreeId(id)).unwrap(), want.is_some());
            let stored = store.tree_index(TreeId(id)).unwrap();
            prop_assert_eq!(stored.as_ref(), want);
        }
        let ids: Vec<TreeId> = model.bags.keys().map(|&t| TreeId(t)).collect();
        prop_assert_eq!(store.tree_ids().unwrap(), ids);

        let mut oracle = ForestIndex::new();
        for (&t, bag) in &model.bags {
            oracle.insert(TreeId(t), bag.clone());
        }
        let query = model_query(rng, model, store.params());
        let tau = [0.3, 0.8, 1.5][rng.random_range(0..3usize)];
        let k = [1usize, 3, 8][rng.random_range(0..3usize)];
        let within = oracle.lookup(&query, tau).unwrap();
        let nearest = oracle.lookup_top_k(&query, k).unwrap();
        prop_assert_eq!(&store.lookup(&query, tau).unwrap(), &within, "tau {}", tau);
        prop_assert_eq!(&store.lookup_top_k(&query, k).unwrap(), &nearest, "k {}", k);
        if store.pending_entries() == 0 {
            let r = store.reader().unwrap();
            prop_assert_eq!(
                &r.lookup(&query, tau).unwrap(),
                &within,
                "reader, tau {}",
                tau
            );
            prop_assert_eq!(
                &r.lookup_top_k(&query, k).unwrap(),
                &nearest,
                "reader, k {}",
                k
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn point_operations_match_a_map_of_bags(
            steps in proptest::collection::vec((0u8..20, 0u64..IDS, any::<u64>()), 1..120),
            small_memtable in any::<bool>(),
        ) {
            let params = PQParams::new(2, 3);
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
            let base = Path::new("/model/db");
            let open = |fresh: bool| {
                let mut store = if fresh {
                    SegmentedIndexStore::create_with(base, params, Arc::clone(&vfs)).unwrap()
                } else {
                    SegmentedIndexStore::open_with(base, Arc::clone(&vfs)).unwrap()
                };
                // Either no automatic flush at all, or one every few trees.
                store.set_flush_threshold(if small_memtable { 120 } else { u64::MAX });
                store
            };
            let mut store = open(true);
            let mut labels = LabelTable::new();
            let alphabet: Vec<_> = (0..6).map(|i| labels.intern(&format!("l{i}"))).collect();
            let mut model = Model::default();
            // The model as of the last flush: what a reopen comes back to.
            let mut durable = model.clone();
            // Ids the memtable holds an entry for (a bag or a tombstone).
            let mut buffered: BTreeSet<u64> = BTreeSet::new();

            for &(kind, id, seed) in &steps {
                let mut rng = StdRng::seed_from_u64(seed);
                let tid = TreeId(id);
                match kind {
                    0..=3 => {
                        // One put in eight stores the empty bag: a removal.
                        let shape = RandomTreeConfig::new(rng.random_range(1..30), 4);
                        let doc = random_tree(&mut rng, &mut labels, &shape);
                        let bag = match seed % 8 {
                            0 => TreeIndex::empty(params),
                            _ => build_index(&doc, &labels, params),
                        };
                        store.put_tree(tid, &bag).unwrap();
                        model.docs.insert(id, doc);
                        model.set(id, bag);
                        buffered.insert(id);
                    }
                    4..=5 => {
                        let existed = store.remove_tree(tid).unwrap();
                        prop_assert_eq!(existed, model.bags.remove(&id).is_some());
                        if existed {
                            buffered.insert(id);
                        }
                    }
                    6..=10 => {
                        // A tree stored nowhere counts as the empty bag.
                        let empty = TreeIndex::empty(params);
                        let bag = model.bags.get(&id).unwrap_or(&empty);
                        let delta = random_delta(&mut rng, bag, kind >= 9);
                        let want = reference_apply(bag, &delta);
                        if let Some(after) = agree(tid, store.apply_delta(tid, &delta), want)? {
                            model.set(id, after);
                            buffered.insert(id);
                        }
                    }
                    11..=14 => {
                        // Edit the id's document (if it ever had one) and hand
                        // the store `(Tₙ, L)`. The bag may have drifted from
                        // the document through `apply_delta`, so this is also
                        // a source of inconsistent deltas.
                        if let Some(doc) = model.docs.get_mut(&id) {
                            let edits = rng.random_range(1..6);
                            let script = ScriptConfig::new(edits, alphabet.clone());
                            let (log, _) = record_script(&mut rng, doc, &script);
                            let got = store.update_from_log(tid, doc, &labels, &log);
                            if let Some(bag) = model.bags.get(&id) {
                                let (delta, _) =
                                    compute_index_delta(doc, &labels, &log, params).unwrap();
                                let want = reference_apply(bag, &delta);
                                if let Some(after) = agree(tid, got, want)? {
                                    model.set(id, after);
                                    buffered.insert(id);
                                }
                            } else {
                                let unknown =
                                    matches!(got, Err(IndexError::UnknownTree(t)) if t == tid);
                                prop_assert!(unknown, "update of a tree not stored: {got:?}");
                            }
                        }
                    }
                    15..=16 => store.flush().unwrap(),
                    17 => store.compact().unwrap(),
                    _ => {
                        // Reopen without a flush: the memtable is lost.
                        drop(store);
                        store = open(false);
                        model = durable.clone();
                    }
                }
                if store.pending_entries() == 0 {
                    // Flushed (asked for, or by the threshold), or reopened.
                    durable = model.clone();
                    buffered.clear();
                }
                check_step(&mut store, &model, &buffered, &mut rng)?;
            }
            let check = store.verify().unwrap();
            prop_assert_eq!(check.trees, model.bags.len() as u64);
        }
    }
}
