//! Model-based and stress tests for the storage engine: the B+-tree must
//! behave exactly like `std::collections::BTreeMap` under arbitrary
//! operation sequences, transactions must be all-or-nothing across crashes,
//! the buffer pool must serve concurrent readers, and the segmented store's
//! point operations must behave like a `BTreeMap<TreeId, TreeIndex>` — and
//! its lookups like a `ForestIndex` over that map — wherever a tree happens
//! to live.
#![allow(
    clippy::disallowed_methods,
    reason = "the tests set up real store files and drive them from threads of their own"
)]

use pqgram_store::btree::{BTree, Key};
use pqgram_store::buffer::BufferPool;
use pqgram_store::{PageId, Pager};
use rand::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    check::scratch_file("model", name)
}

#[derive(Debug)]
enum Op {
    Insert(Key, u32),
    Delete(Key),
    Get(Key),
    Scan(u64),
}

/// One operation over a small key universe, so operations collide often.
fn draw_op(g: &mut check::Gen) -> Op {
    let key = |g: &mut check::Gen| (g.random_range(0u64..4), g.random_range(0u64..600));
    match g.random_range(0..4) {
        0 => Op::Insert(key(g), g.random_range(0..=u32::MAX)),
        1 => Op::Delete(key(g)),
        2 => Op::Get(key(g)),
        _ => Op::Scan(g.random_range(0u64..4)),
    }
}

/// Rows `(a, b, value)` of a transaction over keys `(a, b)`.
fn draw_rows(g: &mut check::Gen) -> Vec<(u64, u64, u32)> {
    check::vec(g, 1..60, |g| {
        (
            g.random_range(0u64..3),
            g.random_range(0u64..200),
            g.random_range(0..=u32::MAX),
        )
    })
}

#[test]
fn btree_matches_btreemap_model() {
    check::cases("btree_matches_btreemap_model", 64, |g| {
        let ops = check::vec(g, 1..400, draw_op);
        let case = g.random_range(0..u64::MAX);
        let path = tmp(&format!("model-{case}.db"));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 32);
        let tree = BTree::open(&pool, 0).unwrap();
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let expected = model.insert(k, v);
                    assert_eq!(tree.insert(k, v).unwrap(), expected);
                }
                Op::Delete(k) => {
                    let expected = model.remove(&k);
                    assert_eq!(tree.delete(k).unwrap(), expected);
                }
                Op::Get(k) => {
                    assert_eq!(tree.get(k).unwrap(), model.get(&k).copied());
                }
                Op::Scan(t) => {
                    let mut got = Vec::new();
                    tree.for_each_range((t, 0), (t, u64::MAX), |k, v| {
                        got.push((k, v));
                        true
                    })
                    .unwrap();
                    let expected: Vec<(Key, u32)> = model
                        .range((t, 0)..=(t, u64::MAX))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(got, expected);
                }
            }
        }
        assert_eq!(tree.len().unwrap(), model.len() as u64);
        let check = tree.verify().unwrap();
        assert_eq!(check.entries, model.len() as u64);
        pool.validate_pager().unwrap();
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn crash_between_transactions_keeps_last_commit() {
    check::cases("crash_between_transactions_keeps_last_commit", 64, |g| {
        let (committed, uncommitted) = (draw_rows(g), draw_rows(g));
        let case = g.random_range(0..u64::MAX);
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
            // Dirty pages reach disk, the journal is hot.
            pool.flush().unwrap();
            // Crash: drop everything without commit/rollback.
            std::mem::forget(pool);
        }
        let pool = BufferPool::new(Pager::open(&path).unwrap(), 16);
        let tree = BTree::open(&pool, 0).unwrap();
        let mut got = Vec::new();
        tree.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, v| {
            got.push((k, v));
            true
        })
        .unwrap();
        let expected: Vec<(Key, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, expected, "recovery must restore the last commit");
        tree.verify().unwrap();
        pool.validate_pager().unwrap();
        std::fs::remove_file(&path).ok();
    });
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
    let before = std::fs::metadata(&path).unwrap().len();
    let ids = store.tree_ids().unwrap();
    let indexes: Vec<_> = ids
        .iter()
        .map(|&id| store.tree_index(id).unwrap())
        .collect();
    let compact_path = tmp("compact.pqg");
    let compacted = store.compact_to(&compact_path).unwrap();
    compacted.verify().unwrap();
    let after = std::fs::metadata(&compact_path).unwrap().len();
    assert!(
        after < before,
        "compaction must shrink: {after} vs {before}"
    );
    assert_eq!(compacted.tree_ids().unwrap(), ids);
    for (id, index) in ids.into_iter().zip(indexes) {
        assert_eq!(compacted.tree_index(id).unwrap(), index);
    }
}

// ---------------------------------------------------------------------------
// Point operations and lookups against a map of bags, on the segmented
// store and on the single-file store that edits its file in place.
//
// Every step draws an operation, a tree id from a universe of eight (so
// the same tree is hit while it lives in the memtable, in a young segment,
// under several segments, in the main file, behind a tombstone, or
// nowhere) and a seed the step derives its tree, edit script or delta from.
// ---------------------------------------------------------------------------

mod point_ops {
    use pqgram_core::maintain::{compute_index_delta, IndexDelta, UpdateStats};
    use pqgram_core::{build_index, ForestIndex, GramKey, LookupHit, PQParams, TreeId, TreeIndex};
    use pqgram_store::index_store::IndexError;
    use pqgram_store::{FaultVfs, IndexStore, SegmentedIndexStore, Vfs};
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, EditLog, LabelSym, LabelTable, ScriptConfig, Tree};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
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
    ) -> Option<TreeIndex> {
        match (got, want) {
            (Ok(_), Ok(after)) => Some(after),
            (Err(IndexError::InconsistentDelta(t, g)), Err(gram)) => {
                assert_eq!((t, g), (tid, gram), "both reject, at the same gram");
                None
            }
            (got, want) => panic!("store {got:?}, reference {:?}", want.map(|_| ())),
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

    type Hits = Vec<LookupHit>;

    /// What the steps and `check_step` drive: the write and read surface
    /// both store layouts share, plus where each keeps unflushed entries
    /// and a second read path to hold to the same answers.
    trait PointStore {
        fn params(&self) -> PQParams;
        fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<(), IndexError>;
        fn remove_tree(&mut self, id: TreeId) -> Result<bool, IndexError>;
        fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<(), IndexError>;
        fn update_from_log(
            &mut self,
            id: TreeId,
            tree: &Tree,
            labels: &LabelTable,
            log: &EditLog,
        ) -> Result<UpdateStats, IndexError>;
        fn contains_tree(&self, id: TreeId) -> Result<bool, IndexError>;
        fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>, IndexError>;
        fn tree_ids(&self) -> Result<Vec<TreeId>, IndexError>;
        fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Hits, IndexError>;
        fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Hits, IndexError>;
        /// Entries and distinct grams buffered in a memtable.
        fn pending(&self) -> (usize, u64);
        /// The threshold and top-k lookups through a second read path, if
        /// the store offers one right now.
        fn second_reader(&mut self, query: &TreeIndex, tau: f64, k: usize) -> Option<(Hits, Hits)>;
    }

    /// The methods both stores have under the same names and signatures.
    macro_rules! shared_surface {
        () => {
            fn params(&self) -> PQParams {
                Self::params(self)
            }
            fn put_tree(&mut self, id: TreeId, index: &TreeIndex) -> Result<(), IndexError> {
                Self::put_tree(self, id, index)
            }
            fn remove_tree(&mut self, id: TreeId) -> Result<bool, IndexError> {
                Self::remove_tree(self, id)
            }
            fn apply_delta(&mut self, id: TreeId, delta: &IndexDelta) -> Result<(), IndexError> {
                Self::apply_delta(self, id, delta)
            }
            fn update_from_log(
                &mut self,
                id: TreeId,
                tree: &Tree,
                labels: &LabelTable,
                log: &EditLog,
            ) -> Result<UpdateStats, IndexError> {
                Self::update_from_log(self, id, tree, labels, log)
            }
            fn contains_tree(&self, id: TreeId) -> Result<bool, IndexError> {
                Self::contains_tree(self, id)
            }
            fn tree_index(&self, id: TreeId) -> Result<Option<TreeIndex>, IndexError> {
                Self::tree_index(self, id)
            }
            fn tree_ids(&self) -> Result<Vec<TreeId>, IndexError> {
                Self::tree_ids(self)
            }
            fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Hits, IndexError> {
                Self::lookup(self, query, tau)
            }
            fn lookup_top_k(&self, query: &TreeIndex, k: usize) -> Result<Hits, IndexError> {
                Self::lookup_top_k(self, query, k)
            }
        };
    }

    impl PointStore for SegmentedIndexStore {
        shared_surface!();

        fn pending(&self) -> (usize, u64) {
            (self.pending_entries(), self.pending_grams())
        }

        /// A reader, whenever the memtable is empty (so that asking for one
        /// flushes nothing).
        fn second_reader(&mut self, query: &TreeIndex, tau: f64, k: usize) -> Option<(Hits, Hits)> {
            if self.pending_entries() != 0 {
                return None;
            }
            let r = self.reader().unwrap();
            Some((
                r.lookup(query, tau).unwrap(),
                r.lookup_top_k(query, k).unwrap(),
            ))
        }
    }

    impl PointStore for IndexStore {
        shared_surface!();

        fn pending(&self) -> (usize, u64) {
            (0, 0)
        }

        /// A second thread sharing the store as `&IndexStore`.
        fn second_reader(&mut self, query: &TreeIndex, tau: f64, k: usize) -> Option<(Hits, Hits)> {
            let store: &IndexStore = self;
            std::thread::scope(|scope| {
                let lookups = scope.spawn(|| {
                    let within = store.lookup(query, tau).unwrap();
                    (within, store.lookup_top_k(query, k).unwrap())
                });
                lookups.join().ok()
            })
        }
    }

    /// Applies one write step of kind `0..=14` — a put, a removal, a delta
    /// (consistent or spoiled) or an edit log — to the store and the model.
    /// Returns whether the store took the write (a memtable now buffers an
    /// entry for the id).
    fn write_step<S: PointStore>(
        store: &mut S,
        model: &mut Model,
        (kind, id, seed): (u8, u64, u64),
        rng: &mut StdRng,
        labels: &mut LabelTable,
        alphabet: &[LabelSym],
    ) -> bool {
        let params = store.params();
        let tid = TreeId(id);
        match kind {
            0..=3 => {
                // One put in eight stores the empty bag: a removal. One in
                // eight replaces a stored bag with an edited copy of itself,
                // so the put keeps, changes, drops and adds grams at once.
                // One in eight stores an oversized tree, many times the size
                // of a query drawn from the others: lookups meet bags they
                // can rule out by size alone, in the memtable and on disk.
                let nodes = match seed % 8 {
                    2 => rng.random_range(120..200),
                    _ => rng.random_range(1..30),
                };
                let shape = RandomTreeConfig::new(nodes, 4);
                let doc = random_tree(rng, labels, &shape);
                let bag = match (seed % 8, model.bags.get(&id)) {
                    (0, _) => TreeIndex::empty(params),
                    (1, Some(stored)) => {
                        let delta = random_delta(rng, stored, false);
                        reference_apply(stored, &delta).unwrap()
                    }
                    _ => build_index(&doc, labels, params),
                };
                store.put_tree(tid, &bag).unwrap();
                model.docs.insert(id, doc);
                model.set(id, bag);
                true
            }
            4..=5 => {
                let existed = store.remove_tree(tid).unwrap();
                assert_eq!(existed, model.bags.remove(&id).is_some(), "removal of {id}");
                existed
            }
            6..=10 => {
                // A tree stored nowhere counts as the empty bag.
                let empty = TreeIndex::empty(params);
                let bag = model.bags.get(&id).unwrap_or(&empty);
                let delta = random_delta(rng, bag, kind >= 9);
                let want = reference_apply(bag, &delta);
                let Some(after) = agree(tid, store.apply_delta(tid, &delta), want) else {
                    return false;
                };
                model.set(id, after);
                true
            }
            _ => {
                // Edit the id's document (if it ever had one) and hand the
                // store `(Tₙ, L)`. The bag may have drifted from the
                // document through `apply_delta`, so this is also a source
                // of inconsistent deltas.
                let Some(doc) = model.docs.get_mut(&id) else {
                    return false;
                };
                let edits = rng.random_range(1..6);
                let script = ScriptConfig::new(edits, alphabet.to_vec());
                let (log, _) = record_script(rng, doc, &script);
                let got = store.update_from_log(tid, doc, labels, &log);
                let Some(bag) = model.bags.get(&id) else {
                    let unknown = matches!(got, Err(IndexError::UnknownTree(t)) if t == tid);
                    assert!(unknown, "update of a tree not stored: {got:?}");
                    return false;
                };
                let (delta, _) = compute_index_delta(doc, labels, &log, params).unwrap();
                let want = reference_apply(bag, &delta);
                let Some(after) = agree(tid, got, want) else {
                    return false;
                };
                model.set(id, after);
                true
            }
        }
    }

    /// After every step: every id answers as the model does, the memtable —
    /// the ids in `buffered` — counts the grams of exactly the bags it
    /// buffers, and one threshold lookup and one top-k answer as a
    /// `ForestIndex` over the model's bags does (hits, distances, order) —
    /// on the store, and on its second read path when it offers one.
    fn check_step<S: PointStore>(
        store: &mut S,
        model: &Model,
        buffered: &BTreeSet<u64>,
        rng: &mut StdRng,
    ) {
        let bags = buffered.iter().filter_map(|id| model.bags.get(id));
        let grams: usize = bags.map(TreeIndex::distinct).sum();
        assert_eq!(store.pending(), (buffered.len(), grams as u64), "memtable");
        for id in 0..IDS {
            let want = model.bags.get(&id);
            assert_eq!(
                store.contains_tree(TreeId(id)).unwrap(),
                want.is_some(),
                "contains {id}"
            );
            let stored = store.tree_index(TreeId(id)).unwrap();
            assert_eq!(stored.as_ref(), want, "bag of {id}");
        }
        let ids: Vec<TreeId> = model.bags.keys().map(|&t| TreeId(t)).collect();
        assert_eq!(store.tree_ids().unwrap(), ids, "stored ids");

        let mut oracle = ForestIndex::new();
        for (&t, bag) in &model.bags {
            oracle.insert(TreeId(t), bag.clone());
        }
        let query = model_query(rng, model, store.params());
        let tau = [0.3, 0.8, 1.5][rng.random_range(0..3usize)];
        let k = [0usize, 1, 3, 8][rng.random_range(0..4usize)];
        let within = oracle.lookup(&query, tau).unwrap();
        let nearest = oracle.lookup_top_k(&query, k).unwrap();
        assert_eq!(&store.lookup(&query, tau).unwrap(), &within, "tau {}", tau);
        assert_eq!(&store.lookup_top_k(&query, k).unwrap(), &nearest, "k {}", k);
        if let Some((hits, top)) = store.second_reader(&query, tau, k) {
            assert_eq!(&hits, &within, "reader, tau {}", tau);
            assert_eq!(&top, &nearest, "reader, k {}", k);
        }
    }

    #[test]
    fn point_operations_match_a_map_of_bags() {
        check::cases("point_operations_match_a_map_of_bags", 48, |g| {
            let steps = check::vec(g, 1..120, |g| {
                (
                    g.random_range(0u8..20),
                    g.random_range(0..IDS),
                    g.next_u64(),
                )
            });
            let small_memtable = g.random_bool(0.5);
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
                match kind {
                    0..=14 => {
                        let step = (kind, id, seed);
                        if write_step(
                            &mut store,
                            &mut model,
                            step,
                            &mut rng,
                            &mut labels,
                            &alphabet,
                        ) {
                            buffered.insert(id);
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
                check_step(&mut store, &model, &buffered, &mut rng);
            }
            let check = store.verify().unwrap();
            assert_eq!(check.trees, model.bags.len() as u64);
        });
    }

    /// The same writes against a single-file store, which edits its
    /// file in place: every write is durable when it returns, so a
    /// reopen keeps the whole model. No flush or compaction steps.
    #[test]
    fn in_place_operations_match_a_map_of_bags() {
        check::cases("in_place_operations_match_a_map_of_bags", 48, |g| {
            let steps = check::vec(g, 1..120, |g| {
                (
                    g.random_range(0u8..17),
                    g.random_range(0..IDS),
                    g.next_u64(),
                )
            });
            let params = PQParams::new(2, 3);
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
            let path = Path::new("/model/in-place.pqg");
            let mut store = IndexStore::create_with(path, params, Arc::clone(&vfs)).unwrap();
            let mut labels = LabelTable::new();
            let alphabet: Vec<_> = (0..6).map(|i| labels.intern(&format!("l{i}"))).collect();
            let mut model = Model::default();
            for &(kind, id, seed) in &steps {
                let mut rng = StdRng::seed_from_u64(seed);
                if kind <= 14 {
                    let step = (kind, id, seed);
                    write_step(
                        &mut store,
                        &mut model,
                        step,
                        &mut rng,
                        &mut labels,
                        &alphabet,
                    );
                } else {
                    drop(store);
                    store = IndexStore::open_with(path, Arc::clone(&vfs)).unwrap();
                }
                check_step(&mut store, &model, &BTreeSet::new(), &mut rng);
            }
            let check = store.verify().unwrap();
            assert_eq!(check.trees, model.bags.len() as u64);
        });
    }
}
