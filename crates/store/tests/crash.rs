//! Exhaustive crash-point enumeration for the storage engine.
//!
//! A scripted workload runs against a [`FaultVfs`]; a fault-free pass
//! measures the total number of mutating I/O events and records the store
//! contents after every committed transaction. Then, for **every** event
//! index `n` of the mutation phase and every [`CrashMode`], a fresh run is
//! crashed at `n`, the surviving bytes are reopened, and the recovered store
//! must (a) pass structural verification and (b) hold *exactly* one of the
//! recorded snapshots — the state before or after some transaction, never a
//! hybrid of the two.
//!
//! The enumeration starts after store creation: creation is not a
//! transaction (there is no previous state to fall back to), so a crash
//! during it legitimately leaves an unopenable file.
//!
//! Mode coverage:
//! * `KeepUnsynced` — the kernel flushed everything, including the torn
//!   half of the in-flight write;
//! * `DropUnsynced` — power loss with volatile caches: only honestly synced
//!   bytes survive, for every file;
//! * `DropUnsyncedMatching("-journal")` — the journal loses its unsynced
//!   tail while the data file keeps everything (catches a data write racing
//!   its journal sync);
//! * `DropUnsyncedMatching(".db")` — the mirror asymmetry: the data file
//!   loses unsynced writes while the journal keeps them.

use pqgram_core::maintain::IndexDelta;
use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::{CrashMode, DocumentStore, FaultVfs, IndexStore};
use pqgram_tree::{LabelTable, Tree};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const DB: &str = "/fault/crash.db";

fn modes() -> Vec<CrashMode> {
    vec![
        CrashMode::KeepUnsynced,
        CrashMode::DropUnsynced,
        CrashMode::DropUnsyncedMatching("-journal".into()),
        CrashMode::DropUnsyncedMatching(".db".into()),
    ]
}

/// A deterministic tree: node `i` hangs off node `i / 2`, labels cycle
/// through five `{tag}{k}` names interned in the shared table.
fn sample_tree(lt: &mut LabelTable, tag: &str, nodes: usize) -> Tree {
    let mut tree = Tree::with_root(lt.intern(&format!("{tag}0")));
    let mut ids = vec![tree.root()];
    for i in 1..nodes {
        let parent = ids[i / 2];
        ids.push(tree.add_child(parent, lt.intern(&format!("{tag}{}", i % 5))));
    }
    tree
}

// ---------------------------------------------------------------------------
// IndexStore
// ---------------------------------------------------------------------------

struct IndexFixtures {
    params: PQParams,
    a: TreeIndex,
    a2: TreeIndex,
    b: TreeIndex,
    c: TreeIndex,
}

fn index_fixtures() -> IndexFixtures {
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let mk = |lt: &mut LabelTable, tag, n| {
        let tree = sample_tree(lt, tag, n);
        build_index(&tree, lt, params)
    };
    IndexFixtures {
        params,
        a: mk(&mut lt, "a", 18),
        a2: mk(&mut lt, "r", 24),
        b: mk(&mut lt, "b", 12),
        c: mk(&mut lt, "c", 60),
    }
}

/// Fault-free setup phase: bulk-create the store with the initial trees
/// plus four clones of tree `a` — every gram of `a` then carries five
/// postings, over the block threshold, so the mutation phase below
/// exercises posting-block rewrites (not just inline rows) at every
/// enumerated crash point.
fn index_setup(vfs: &FaultVfs, fx: &IndexFixtures) -> IndexStore {
    let vfs: Arc<FaultVfs> = Arc::new(vfs.clone());
    let forest = [
        (TreeId(1), &fx.a),
        (TreeId(2), &fx.b),
        (TreeId(11), &fx.a),
        (TreeId(12), &fx.a),
        (TreeId(13), &fx.a),
        (TreeId(14), &fx.a),
    ];
    let store = IndexStore::bulk_create_with(Path::new(DB), fx.params, forest, vfs).unwrap();
    assert!(
        store.verify().unwrap().blocks > 0,
        "setup must produce a block-bearing inverted relation"
    );
    store
}

/// The mutation phase, one closure per transaction.
type IndexOp<'a> =
    Box<dyn Fn(&mut IndexStore) -> Result<(), pqgram_store::index_store::IndexError> + 'a>;

fn index_ops(fx: &IndexFixtures) -> Vec<IndexOp<'_>> {
    vec![
        Box::new(|s| s.put_tree(TreeId(1), &fx.a2)),
        Box::new(|s| s.put_tree(TreeId(3), &fx.c)),
        Box::new(|s| s.remove_tree(TreeId(2)).map(|_| ())),
        // An incremental delta: removals and additions mutate all three
        // relations (forward, inverted, totals) in one transaction.
        Box::new(|s| {
            let mut grams: Vec<_> = fx.a2.iter().map(|(g, _)| g).collect();
            grams.sort_unstable();
            let delta = IndexDelta {
                removals: grams.into_iter().take(2).collect(),
                additions: vec![0xfeed_f00d, 0x0dd_ba11],
            };
            s.apply_delta(TreeId(1), &delta)
        }),
    ]
}

/// Everything the store holds, as seen through its public API.
fn index_contents(store: &IndexStore) -> BTreeMap<u64, TreeIndex> {
    store
        .tree_ids()
        .unwrap()
        .into_iter()
        .map(|id| (id.0, store.tree_index(id).unwrap().unwrap()))
        .collect()
}

#[test]
fn index_store_recovers_at_every_crash_point() {
    let fx = index_fixtures();

    // Fault-free pass: measure the event clock and record one snapshot per
    // committed transaction (reads do not tick the clock, so snapshotting
    // mid-run does not shift the crash points of the replays below).
    let vfs = FaultVfs::new();
    let mut store = index_setup(&vfs, &fx);
    let setup_events = vfs.io_events();
    let mut snapshots = vec![index_contents(&store)];
    for op in index_ops(&fx) {
        op(&mut store).unwrap();
        snapshots.push(index_contents(&store));
    }
    drop(store);
    let total_events = vfs.io_events();
    assert!(total_events > setup_events, "mutation phase must do I/O");

    for mode in modes() {
        for n in setup_events..total_events {
            let vfs = FaultVfs::new();
            let mut store = index_setup(&vfs, &fx);
            assert_eq!(vfs.io_events(), setup_events, "workload is deterministic");
            vfs.crash_at(n, mode.clone());
            for op in index_ops(&fx) {
                // Post-crash operations fail; the errors are the point.
                let _ = op(&mut store);
            }
            drop(store);
            assert!(vfs.crashed(), "crash point {n} ({mode:?}) never fired");

            let reopened = IndexStore::open_with(Path::new(DB), Arc::new(vfs.surviving()))
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): reopen failed: {e}"));
            reopened
                .verify()
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): verify failed: {e}"));
            // Filter pages commit under the same journal as the relations,
            // so recovery must land on a *loadable* filter (verify already
            // audited it as a superset) — a dropped filter would mean a
            // torn filter write survived the journal.
            assert!(
                reopened.has_gram_filter(),
                "crash point {n} ({mode:?}): recovered without a loadable gram filter",
            );
            let recovered = index_contents(&reopened);
            assert!(
                snapshots.contains(&recovered),
                "crash point {n} ({mode:?}): recovered to a hybrid state with ids {:?}",
                recovered.keys().collect::<Vec<_>>(),
            );
        }
    }
}

/// An injected sync failure must surface as an `Err` that aborts the
/// transaction — never as silent corruption. After reopening (the documented
/// recovery path), the store holds the pre-transaction state and the same
/// mutation succeeds on retry.
#[test]
fn failed_sync_aborts_the_transaction_and_reopen_recovers() {
    let fx = index_fixtures();

    // Count the syncs of one fault-free run so every ordinal gets a turn.
    let probe = FaultVfs::new();
    let mut store = index_setup(&probe, &fx);
    store.put_tree(TreeId(1), &fx.a2).unwrap();
    drop(store);
    // Sync ordinals are not exposed directly; the event clock bounds them.
    let sync_bound = probe.io_events();

    let mut fired = 0u64;
    for nth in 0..sync_bound {
        let vfs = FaultVfs::new();
        let mut store = index_setup(&vfs, &fx);
        let before = index_contents(&store);
        vfs.fail_sync(nth);
        match store.put_tree(TreeId(1), &fx.a2) {
            Ok(()) => {
                // `nth` pointed at a setup-phase sync that already ran.
                assert_eq!(index_contents(&store)[&1], fx.a2);
                continue;
            }
            Err(e) => {
                fired += 1;
                let msg = e.to_string();
                assert!(msg.contains("injected"), "unexpected error: {msg}");
            }
        }
        drop(store);
        let mut store = IndexStore::open_with(Path::new(DB), Arc::new(vfs.surviving())).unwrap();
        store.verify().unwrap();
        assert_eq!(
            index_contents(&store),
            before,
            "failed sync must abort cleanly"
        );
        store.put_tree(TreeId(1), &fx.a2).unwrap();
        assert_eq!(
            index_contents(&store)[&1],
            fx.a2,
            "retry after reopen succeeds"
        );
    }
    assert!(fired > 0, "no sync ordinal of the transaction was hit");
}

/// A drive that acknowledges syncs it never performs defeats journaling by
/// definition — but the failure must be *loud*: with nothing durable, reopen
/// reports corruption instead of serving stale or hybrid data.
#[test]
fn lying_syncs_lose_everything_loudly() {
    let fx = index_fixtures();
    let vfs = FaultVfs::new();
    vfs.lie_on_syncs();
    let mut store = index_setup(&vfs, &fx);
    let setup_events = vfs.io_events();
    vfs.crash_at(setup_events + 7, CrashMode::DropUnsynced);
    for op in index_ops(&fx) {
        let _ = op(&mut store);
    }
    drop(store);
    assert!(vfs.crashed());
    // No honest sync ever ran, so nothing is durable: the surviving data
    // file is empty and the open must fail — an error, not silent data loss.
    assert!(IndexStore::open_with(Path::new(DB), Arc::new(vfs.surviving())).is_err());

    // With flushed kernel caches (`KeepUnsynced`) the same lying drive is
    // harmless: recovery still lands on a real snapshot.
    let vfs = FaultVfs::new();
    vfs.lie_on_syncs();
    let mut store = index_setup(&vfs, &fx);
    let before = index_contents(&store);
    vfs.crash_at(vfs.io_events() + 7, CrashMode::KeepUnsynced);
    for op in index_ops(&fx) {
        let _ = op(&mut store);
    }
    drop(store);
    let reopened = IndexStore::open_with(Path::new(DB), Arc::new(vfs.surviving())).unwrap();
    reopened.verify().unwrap();
    let recovered = index_contents(&reopened);
    let mut after = before.clone();
    after.insert(1, fx.a2.clone());
    assert!(
        recovered == before || recovered == after,
        "lying syncs + kept caches must still recover to pre- or post-state"
    );
}

// ---------------------------------------------------------------------------
// DocumentStore
// ---------------------------------------------------------------------------

struct DocFixtures {
    params: PQParams,
    lt: LabelTable,
    t1: Tree,
    t1b: Tree,
    t1c: Tree,
    t2: Tree,
    t3: Tree,
}

fn doc_fixtures() -> DocFixtures {
    let params = PQParams::new(2, 3);
    let mut lt = LabelTable::new();
    let t1 = sample_tree(&mut lt, "a", 16);
    let t1b = sample_tree(&mut lt, "r", 22);
    // A small edit of t1b with the same root label: `sync` derives a script
    // and takes the incremental index-update path, not the re-index one.
    let mut t1c = t1b.clone();
    let n = t1c.add_child(t1c.root(), lt.intern("x1"));
    t1c.add_child(n, lt.intern("x2"));
    let t2 = sample_tree(&mut lt, "b", 10);
    let t3 = sample_tree(&mut lt, "c", 48);
    DocFixtures {
        params,
        lt,
        t1,
        t1b,
        t1c,
        t2,
        t3,
    }
}

fn doc_setup(vfs: &FaultVfs, fx: &DocFixtures) -> DocumentStore {
    let vfs: Arc<FaultVfs> = Arc::new(vfs.clone());
    let mut store = DocumentStore::create_with(Path::new(DB), fx.params, vfs).unwrap();
    store.put(TreeId(1), &fx.t1, &fx.lt).unwrap();
    store.put(TreeId(2), &fx.t2, &fx.lt).unwrap();
    store
}

type DocOp<'a> =
    Box<dyn Fn(&mut DocumentStore) -> Result<(), pqgram_store::document::DocError> + 'a>;

fn doc_ops(fx: &DocFixtures) -> Vec<DocOp<'_>> {
    vec![
        Box::new(|s| s.put(TreeId(1), &fx.t1b, &fx.lt)),
        Box::new(|s| s.put(TreeId(3), &fx.t3, &fx.lt)),
        Box::new(|s| s.remove(TreeId(2)).map(|_| ())),
        // Diff-driven incremental sync: index delta + new blob, one tx.
        Box::new(|s| s.sync(TreeId(1), &fx.t1c, &fx.lt).map(|_| ())),
    ]
}

/// Store contents in a table-independent form: each document decoded to its
/// preorder `(fanout, label-name)` sequence, plus its stored pq-gram index.
fn doc_contents(store: &DocumentStore) -> BTreeMap<u64, (Vec<String>, TreeIndex)> {
    store
        .ids()
        .unwrap()
        .into_iter()
        .map(|id| {
            let (tree, labels) = store.document(id).unwrap().unwrap();
            let shape = tree
                .preorder(tree.root())
                .map(|n| format!("{}:{}", tree.fanout(n), labels.name(tree.label(n))))
                .collect();
            let index = store.document_index(id).unwrap().unwrap();
            (id.0, (shape, index))
        })
        .collect()
}

#[test]
fn document_store_recovers_at_every_crash_point() {
    let fx = doc_fixtures();

    let vfs = FaultVfs::new();
    let mut store = doc_setup(&vfs, &fx);
    let setup_events = vfs.io_events();
    let mut snapshots = vec![doc_contents(&store)];
    for op in doc_ops(&fx) {
        op(&mut store).unwrap();
        snapshots.push(doc_contents(&store));
    }
    drop(store);
    let total_events = vfs.io_events();
    assert!(total_events > setup_events, "mutation phase must do I/O");

    for mode in modes() {
        for n in setup_events..total_events {
            let vfs = FaultVfs::new();
            let mut store = doc_setup(&vfs, &fx);
            assert_eq!(vfs.io_events(), setup_events, "workload is deterministic");
            vfs.crash_at(n, mode.clone());
            for op in doc_ops(&fx) {
                let _ = op(&mut store);
            }
            drop(store);
            assert!(vfs.crashed(), "crash point {n} ({mode:?}) never fired");

            let reopened = DocumentStore::open_with(Path::new(DB), Arc::new(vfs.surviving()))
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): reopen failed: {e}"));
            // The relations, and the mirrors the open loaded against them.
            reopened
                .verify()
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): verify failed: {e}"));
            assert!(
                reopened.has_gram_filter(),
                "crash point {n} ({mode:?}): recovered without a loadable gram filter",
            );
            let recovered = doc_contents(&reopened);
            assert!(
                snapshots.contains(&recovered),
                "crash point {n} ({mode:?}): recovered to a hybrid state with ids {:?}",
                recovered.keys().collect::<Vec<_>>(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SegmentedIndexStore
// ---------------------------------------------------------------------------

use pqgram_store::SegmentedIndexStore;

/// Fault-free setup: create the segmented store and flush the initial trees
/// into segment 0, so the mutation phase starts from a durable state.
fn seg_setup(vfs: &FaultVfs, fx: &IndexFixtures) -> SegmentedIndexStore {
    let vfs: Arc<FaultVfs> = Arc::new(vfs.clone());
    let mut store = SegmentedIndexStore::create_with(Path::new(DB), fx.params, vfs).unwrap();
    store.put_tree(TreeId(1), &fx.a).unwrap();
    store.put_tree(TreeId(2), &fx.b).unwrap();
    store.flush().unwrap();
    store
}

type SegOp<'a> =
    Box<dyn Fn(&mut SegmentedIndexStore) -> Result<(), pqgram_store::index_store::IndexError> + 'a>;

/// The mutation phase. The memtable is volatile by contract, so every op
/// ends at a durability point (flush or compaction commit) — the recorded snapshots are exactly the states a
/// crash is allowed to recover to.
fn seg_ops(fx: &IndexFixtures) -> Vec<SegOp<'_>> {
    vec![
        // Memtable flush: an overwrite plus an insert become one segment,
        // registered in one manifest commit.
        Box::new(|s| {
            s.put_tree(TreeId(1), &fx.a2)?;
            s.put_tree(TreeId(3), &fx.c)?;
            s.flush()
        }),
        // Tombstone flush: the segment shadows tree 2 without touching it.
        Box::new(|s| {
            s.remove_tree(TreeId(2))?;
            s.flush()
        }),
        // Batch put: two new trees through the memtable into one segment.
        Box::new(|s| {
            s.put_trees(&[(TreeId(4), fx.b.clone()), (TreeId(5), fx.c.clone())])?;
            s.flush()
        }),
        // Compaction: all segments fold into main generation 1; the old
        // main and every segment file are deleted after the commit.
        Box::new(|s| s.compact()),
        // Post-compaction incremental delta, flushed into a fresh segment.
        Box::new(|s| {
            let mut grams: Vec<_> = fx.a2.iter().map(|(g, _)| g).collect();
            grams.sort_unstable();
            let delta = IndexDelta {
                removals: grams.into_iter().take(2).collect(),
                additions: vec![0xfeed_f00d, 0x0dd_ba11],
            };
            s.apply_delta(TreeId(1), &delta)?;
            s.flush()
        }),
    ]
}

fn seg_contents(store: &SegmentedIndexStore) -> BTreeMap<u64, TreeIndex> {
    store
        .tree_ids()
        .unwrap()
        .into_iter()
        .map(|id| (id.0, store.tree_index(id).unwrap().unwrap()))
        .collect()
}

/// The segmented moat: for every mutating I/O event of a workload covering
/// flush, batch put, manifest swap, and compaction — and every crash
/// mode — recovery lands on exactly a pre- or post-commit segment set,
/// passes structural verification, and never serves a hybrid forest.
#[test]
fn segmented_store_recovers_at_every_crash_point() {
    let fx = index_fixtures();

    let vfs = FaultVfs::new();
    let mut store = seg_setup(&vfs, &fx);
    let setup_events = vfs.io_events();
    let mut snapshots = vec![seg_contents(&store)];
    for op in seg_ops(&fx) {
        op(&mut store).unwrap();
        snapshots.push(seg_contents(&store));
    }
    drop(store);
    let total_events = vfs.io_events();
    assert!(total_events > setup_events, "mutation phase must do I/O");

    for mode in modes() {
        for n in setup_events..total_events {
            let vfs = FaultVfs::new();
            let mut store = seg_setup(&vfs, &fx);
            assert_eq!(vfs.io_events(), setup_events, "workload is deterministic");
            vfs.crash_at(n, mode.clone());
            for op in seg_ops(&fx) {
                let _ = op(&mut store);
            }
            drop(store);
            assert!(vfs.crashed(), "crash point {n} ({mode:?}) never fired");

            let reopened = SegmentedIndexStore::open_with(Path::new(DB), Arc::new(vfs.surviving()))
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): reopen failed: {e}"));
            reopened
                .verify()
                .unwrap_or_else(|e| panic!("crash point {n} ({mode:?}): verify failed: {e}"));
            // Every recovered source — main file and each live segment —
            // must carry a loadable gram filter: segment builds and
            // compactions write it before the manifest commit publishes
            // them.
            assert!(
                reopened.has_gram_filters(),
                "crash point {n} ({mode:?}): a recovered source lost its gram filter",
            );
            let recovered = seg_contents(&reopened);
            assert!(
                snapshots.contains(&recovered),
                "crash point {n} ({mode:?}): recovered to a hybrid state with ids {:?}",
                recovered.keys().collect::<Vec<_>>(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Page runs: grown, not yet written
// ---------------------------------------------------------------------------

use pqgram_store::{Vfs, PAGE_SIZE};

/// How many pages of the file at `path` are inside its header's page count
/// and hold nothing but zeros (0 if the file is missing or has no readable
/// header): the trace a bulk build leaves when it dies between the growth
/// of a page run and the write of its content.
fn zero_filled_pages(vfs: &FaultVfs, path: &Path) -> usize {
    let Ok(mut file) = vfs.open(path) else {
        return 0;
    };
    let mut count = [0u8; 4];
    if file.read_exact_at(12, &mut count).is_err() {
        return 0;
    }
    let mut page = vec![0u8; PAGE_SIZE];
    (1..u64::from(u32::from_le_bytes(count)))
        .filter(|id| {
            let read = file.read_exact_at(id * PAGE_SIZE as u64, &mut page);
            read.is_ok() && page.iter().all(|&b| b == 0)
        })
        .count()
}

/// A tree big enough that its relations span several leaves and pack
/// pages, so the build takes multi-page runs.
fn wide_index(fx: &IndexFixtures) -> TreeIndex {
    let mut lt = LabelTable::new();
    build_index(&sample_tree(&mut lt, "w", 900), &lt, fx.params)
}

/// Bulk builds allocate their pages in runs: one growth of the file, then
/// the content. A crash in between leaves allocated pages full of zeros —
/// in a segment the manifest never registered. Reopening must sweep that
/// orphan (and answer from the pre-flush state), never open it.
#[test]
fn a_flush_that_dies_between_growth_and_content_leaves_a_swept_orphan() {
    let fx = index_fixtures();
    let wide = wide_index(&fx);
    let flush = |s: &mut SegmentedIndexStore| {
        s.put_tree(TreeId(1), &fx.a2)?;
        s.put_tree(TreeId(3), &wide)?;
        s.flush()
    };

    let vfs = FaultVfs::new();
    let mut store = seg_setup(&vfs, &fx);
    let before = seg_contents(&store);
    let start = vfs.io_events();
    flush(&mut store).unwrap();
    let after = seg_contents(&store);
    drop(store);
    let end = vfs.io_events();
    // `seg_setup` flushed segment 0; this flush builds segment 1.
    let orphan = Path::new("/fault/crash.db.seg.1");
    assert!(vfs.exists(orphan), "the fault-free flush builds {orphan:?}");
    assert_eq!(
        zero_filled_pages(&vfs, orphan),
        0,
        "a finished build writes every page"
    );

    let mut grown_not_written = 0;
    for n in start..end {
        let vfs = FaultVfs::new();
        let mut store = seg_setup(&vfs, &fx);
        vfs.crash_at(n, CrashMode::KeepUnsynced);
        assert!(flush(&mut store).is_err(), "crash point {n} never fired");
        drop(store);
        let survived = vfs.surviving();
        let zeros = zero_filled_pages(&survived, orphan);

        let reopened = SegmentedIndexStore::open_with(Path::new(DB), Arc::new(survived.clone()))
            .unwrap_or_else(|e| panic!("crash point {n}: reopen failed: {e}"));
        reopened
            .verify()
            .unwrap_or_else(|e| panic!("crash point {n}: verify failed: {e}"));
        let recovered = seg_contents(&reopened);
        if zeros > 0 {
            grown_not_written += 1;
            assert!(
                recovered == before,
                "crash point {n}: a half-written segment went live"
            );
        }
        if recovered == before {
            assert!(
                !survived.exists(orphan),
                "crash point {n}: orphan not swept"
            );
        } else {
            assert!(recovered == after, "crash point {n}: hybrid state");
        }
    }
    assert!(
        grown_not_written > 0,
        "no crash point fell between a run's growth and its content write"
    );
}

/// The same window in a single-file bulk build, where nothing sweeps: the
/// file is the caller's to discard, but if it is opened anyway a
/// zero-filled page is rejected (no node type, no pack tag, no filter
/// magic), never served — what opens and passes the audit holds the whole
/// forest, or nothing (a crash before the relations were even rooted).
#[test]
fn a_bulk_create_that_dies_mid_run_is_rejected_not_served() {
    let fx = index_fixtures();
    let wide = wide_index(&fx);
    let forest = [(TreeId(1), &fx.a), (TreeId(2), &wide), (TreeId(3), &fx.c)];
    let create = |vfs: &FaultVfs| {
        IndexStore::bulk_create_with(Path::new(DB), fx.params, forest, Arc::new(vfs.clone()))
    };

    let vfs = FaultVfs::new();
    let full = index_contents(&create(&vfs).unwrap());
    let total = vfs.io_events();
    assert_eq!(zero_filled_pages(&vfs, Path::new(DB)), 0);

    let (mut grown_not_written, mut rejected) = (0, 0);
    for n in 0..total {
        let vfs = FaultVfs::new();
        vfs.crash_at(n, CrashMode::KeepUnsynced);
        assert!(create(&vfs).is_err(), "crash point {n} never fired");
        let survived = vfs.surviving();
        let zeros = zero_filled_pages(&survived, Path::new(DB));
        grown_not_written += usize::from(zeros > 0);
        let audited = IndexStore::open_with(Path::new(DB), Arc::new(survived))
            .and_then(|store| store.verify().map(|_| store));
        match audited {
            Ok(store) => {
                assert_eq!(
                    zeros, 0,
                    "crash point {n}: audit passed over zero-filled pages"
                );
                let recovered = index_contents(&store);
                assert!(
                    recovered == full || recovered.is_empty(),
                    "crash point {n}: partial store"
                );
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(grown_not_written > 0 && rejected >= grown_not_written);
}
