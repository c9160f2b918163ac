//! Property tests: the persistent lookup plans agree with each other and
//! with the in-memory [`ForestIndex`] oracle.
//!
//! Three implementations of the same approximate lookup are compared on
//! random forests:
//!
//! 1. the planner-driven candidate merge over the inverted relation — the
//!    only plan, for **every** threshold including `τ > 1`
//!    ([`IndexStore::lookup_with_stats`]; `τ > 1` enumerates the
//!    zero-overlap trees from the totals relation, there is no exhaustive
//!    fallback);
//! 2. the exhaustive forward-relation scan
//!    ([`pqgram_store::fuzz::lookup_exhaustive_with_stats`], the version-1
//!    plan, kept as the reference oracle);
//! 3. [`ForestIndex::lookup`], the in-memory oracle.
//!
//! Top-k lookups are checked against the same reference: `top_k(K)` must
//! equal the first `K` entries of the distance-sorted exhaustive answer,
//! ties broken by tree id.
//!
//! Equality is **exact** (no epsilon): all three compute
//! `1 − 2·|I₁ ∩ I₂| / (|I₁| + |I₂|)` over the same integers with the same
//! float operations (`pqgram_core::join::overlap_distance` /
//! `pq_distance`), so the results are bit-identical.
//!
//! Forests include members with *empty* bags: [`IndexStore::put_tree`]
//! stores zero rows for them, making them invisible to persistent lookups,
//! so the oracle only receives the non-empty members.

use pqgram_core::{build_index, ForestIndex, PQParams, TreeId, TreeIndex};
use pqgram_store::fuzz::lookup_exhaustive_with_stats;
use pqgram_store::{
    FaultVfs, IndexStore, LookupPlan, SegmentedIndexStore, MAIN_SOURCE, MEMTABLE_SOURCE,
};
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::LabelTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqgram-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    let mut j = p.as_os_str().to_owned();
    j.push("-journal");
    std::fs::remove_file(PathBuf::from(j)).ok();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn persistent_lookup_plans_match_the_in_memory_oracle(
        // (node count, seed) per member; node count 0 means an empty bag.
        members in proptest::collection::vec((0usize..40, any::<u64>()), 1..16),
        query_nodes in 1usize..60,
        query_seed in any::<u64>(),
        tau_pick in 0usize..5,
        case in 0u64..u64::MAX,
    ) {
        // τ = 1.0 exercises the plan's boundary (distance-1.0 non-hits);
        // τ > 1 exercises the zero-overlap enumeration (distance-1.0 hits).
        let tau = [0.1, 0.5, 1.0, 1.5, 2.0][tau_pick];
        let params = PQParams::new(2, 3);
        let path = tmp(&format!("equiv-{case}.pqg"));
        let mut lt = LabelTable::new();
        let mut store = IndexStore::create(&path, params).unwrap();
        let mut oracle = ForestIndex::new();
        for (i, &(nodes, seed)) in members.iter().enumerate() {
            let id = TreeId(i as u64);
            let index = if nodes == 0 {
                TreeIndex::empty(params)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, 5));
                build_index(&tree, &lt, params)
            };
            store.put_tree(id, &index).unwrap();
            if index.total() > 0 {
                oracle.insert(id, index);
            }
        }
        let mut rng = StdRng::seed_from_u64(query_seed);
        let qtree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(query_nodes, 5));
        let query = build_index(&qtree, &lt, params);

        let expected = oracle.lookup(&query, tau).unwrap();
        let (inverted, inv_stats) = store.lookup_with_stats(&query, tau).unwrap();
        let (scanned, scan_stats) = lookup_exhaustive_with_stats(&store, &query, tau).unwrap();
        // Every threshold — τ > 1 included — runs the candidate merge.
        prop_assert_eq!(inv_stats.plan, LookupPlan::CandidateMerge);
        prop_assert_eq!(scan_stats.plan, LookupPlan::ExhaustiveReference);
        prop_assert_eq!(&inverted, &expected);
        prop_assert_eq!(&scanned, &expected);
        // The scan reads the whole forward relation.
        prop_assert_eq!(scan_stats.rows_read, store.row_count().unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// The segmented engine must answer every lookup **bit-identically** to
    /// a single-file store holding the merged forest, no matter how the
    /// members are spread over memtable, segment files (an N-way merge with
    /// overwrites and tombstones), and the compacted main file.
    #[test]
    fn segmented_lookups_match_the_single_file_plan_and_oracle(
        members in proptest::collection::vec((0usize..40, any::<u64>()), 1..20),
        // Per-member placement directive, cycled: after this member, 0-2 do
        // nothing, 3 flushes the memtable, 4 compacts everything.
        moves in proptest::collection::vec(0u8..5, 1..20),
        // Members overwritten with a fresh index and members tombstoned.
        overwrites in proptest::collection::vec((any::<prop::sample::Index>(), any::<u64>()), 0..4),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        query_nodes in 1usize..60,
        query_seed in any::<u64>(),
        tau_pick in 0usize..5,
    ) {
        let tau = [0.1, 0.5, 1.0, 1.5, 2.0][tau_pick];
        let params = PQParams::new(2, 3);
        let vfs: Arc<dyn pqgram_store::Vfs> = Arc::new(FaultVfs::new());
        let mut lt = LabelTable::new();
        let mut seg =
            SegmentedIndexStore::create_with(Path::new("/equiv/seg"), params, Arc::clone(&vfs))
                .unwrap();
        seg.set_flush_threshold(u64::MAX);
        let mk = |lt: &mut LabelTable, nodes: usize, seed: u64| {
            if nodes == 0 {
                TreeIndex::empty(params)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = random_tree(&mut rng, lt, &RandomTreeConfig::new(nodes, 5));
                build_index(&tree, lt, params)
            }
        };
        // Final logical contents, mirrored into the single-file reference
        // and the oracle after the segmented store is fully built.
        let mut latest: Vec<TreeIndex> = Vec::new();
        for (i, &(nodes, seed)) in members.iter().enumerate() {
            let index = mk(&mut lt, nodes, seed);
            seg.put_tree(TreeId(i as u64), &index).unwrap();
            latest.push(index);
            match moves[i % moves.len()] {
                3 => seg.flush().unwrap(),
                4 => seg.compact().unwrap(),
                _ => {}
            }
        }
        for (pick, seed) in &overwrites {
            let i = pick.index(members.len());
            let index = mk(&mut lt, members[i].0 / 2 + 1, *seed);
            seg.put_tree(TreeId(i as u64), &index).unwrap();
            latest[i] = index;
        }
        for pick in &removals {
            let i = pick.index(members.len());
            seg.remove_tree(TreeId(i as u64)).unwrap();
            latest[i] = TreeIndex::empty(params);
        }

        let mut single =
            IndexStore::create_with(Path::new("/equiv/single"), params, Arc::clone(&vfs)).unwrap();
        let mut oracle = ForestIndex::new();
        for (i, index) in latest.iter().enumerate() {
            single.put_tree(TreeId(i as u64), index).unwrap();
            if index.total() > 0 {
                oracle.insert(TreeId(i as u64), index.clone());
            }
        }

        let mut rng = StdRng::seed_from_u64(query_seed);
        let qtree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(query_nodes, 5));
        let query = build_index(&qtree, &lt, params);

        let expected = oracle.lookup(&query, tau).unwrap();
        let (single_hits, _) = single.lookup_with_stats(&query, tau).unwrap();
        let (merged, stats) = seg.lookup_with_stats(&query, tau).unwrap();
        prop_assert_eq!(&single_hits, &expected);
        prop_assert_eq!(&merged, &expected);
        prop_assert_eq!(seg.tree_ids().unwrap(), single.tree_ids().unwrap());
        // Row attribution covers every source exactly once, memtable (if
        // non-empty) first, main last, and sums to the rows read.
        let sources: Vec<u64> = stats.by_source.iter().map(|&(s, _)| s).collect();
        prop_assert_eq!(sources.last(), Some(&MAIN_SOURCE));
        prop_assert_eq!(
            sources.iter().filter(|&&s| s == MEMTABLE_SOURCE).count(),
            usize::from(seg.pending_entries() > 0)
        );
        prop_assert_eq!(
            stats.by_source.iter().map(|&(_, r)| r).sum::<u64>(),
            stats.rows_read
        );
        seg.verify().unwrap();

        // Top-k over the N-way merge must equal top-k over the single
        // file, which must equal the first k of the distance-sorted
        // exhaustive answer (τ = 1.5 admits every stored tree).
        let (all_sorted, _) = lookup_exhaustive_with_stats(&single, &query, 1.5).unwrap();
        for k in [0usize, 1, 3, latest.len() + 4] {
            let top_seg = seg.lookup_top_k(&query, k).unwrap();
            let top_single = single.lookup_top_k(&query, k).unwrap();
            prop_assert_eq!(&top_seg, &top_single);
            prop_assert_eq!(&top_seg[..], &all_sorted[..k.min(all_sorted.len())]);
        }

        // Reopening after a clean shutdown (flush) preserves equivalence.
        seg.flush().unwrap();
        drop(seg);
        let seg = SegmentedIndexStore::open_with(Path::new("/equiv/seg"), vfs).unwrap();
        prop_assert_eq!(seg.lookup(&query, tau).unwrap(), expected);
        prop_assert_eq!(seg.lookup_top_k(&query, 3).unwrap(), &all_sorted[..3.min(all_sorted.len())]);
    }

    /// A bulk-created posting-block store must answer every lookup
    /// **bit-identically** to the in-memory oracle — through arbitrary
    /// point mutations, which rewrite, split, shrink and collapse blocks
    /// in place.
    #[test]
    fn posting_block_stores_match_the_oracle(
        members in proptest::collection::vec((0usize..40, any::<u64>()), 1..12),
        // Each member is cloned under this many ids: ≥ 4 clones push every
        // shared gram over the block threshold, so real blocks form.
        clones in 1usize..6,
        overwrites in proptest::collection::vec((any::<prop::sample::Index>(), any::<u64>()), 0..4),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        query_nodes in 1usize..60,
        query_seed in any::<u64>(),
        tau_pick in 0usize..5,
    ) {
        let tau = [0.1, 0.5, 1.0, 1.5, 2.0][tau_pick];
        let params = PQParams::new(2, 3);
        let vfs: Arc<dyn pqgram_store::Vfs> = Arc::new(FaultVfs::new());
        let mut lt = LabelTable::new();
        let mk = |lt: &mut LabelTable, nodes: usize, seed: u64| {
            if nodes == 0 {
                TreeIndex::empty(params)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = random_tree(&mut rng, lt, &RandomTreeConfig::new(nodes, 5));
                build_index(&tree, lt, params)
            }
        };
        // Forest: member i cloned under ids i, i+N, i+2N, … — shared grams
        // then carry `clones` postings each.
        let n = members.len() as u64;
        let mut latest: Vec<(TreeId, TreeIndex)> = Vec::new();
        for (i, &(nodes, seed)) in members.iter().enumerate() {
            let index = mk(&mut lt, nodes, seed);
            for c in 0..clones as u64 {
                latest.push((TreeId(i as u64 + c * n), index.clone()));
            }
        }
        latest.sort_unstable_by_key(|&(id, _)| id);
        let mut blocked = IndexStore::bulk_create_with(
            Path::new("/equiv/blocked"),
            params,
            latest.iter().map(|(id, ix)| (*id, ix)),
            Arc::clone(&vfs),
        ).unwrap();
        if clones >= 4 && members.iter().any(|&(nodes, _)| nodes > 0) {
            prop_assert!(
                blocked.verify().unwrap().blocks > 0,
                "≥ 4 clones of a non-empty member must produce blocks"
            );
        }

        // Point mutations: overwrites and removals hit a clone of a random
        // member, exercising block rewrite/split/shrink.
        for (pick, seed) in &overwrites {
            let i = pick.index(latest.len());
            let id = latest[i].0;
            let index = mk(&mut lt, members[pick.index(members.len())].0 / 2 + 1, *seed);
            blocked.put_tree(id, &index).unwrap();
            latest[i].1 = index;
        }
        for pick in &removals {
            let i = pick.index(latest.len());
            let id = latest[i].0;
            blocked.remove_tree(id).unwrap();
            latest[i].1 = TreeIndex::empty(params);
        }
        blocked.verify().unwrap();

        let mut oracle = ForestIndex::new();
        for (id, index) in &latest {
            if index.total() > 0 {
                oracle.insert(*id, index.clone());
            }
        }
        let mut rng = StdRng::seed_from_u64(query_seed);
        let qtree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(query_nodes, 5));
        let query = build_index(&qtree, &lt, params);

        let expected = oracle.lookup(&query, tau).unwrap();
        let (blocked_hits, blocked_stats) = blocked.lookup_with_stats(&query, tau).unwrap();
        prop_assert_eq!(&blocked_hits, &expected);
        // The candidate merge is the only plan, for every threshold.
        prop_assert_eq!(blocked_stats.plan, LookupPlan::CandidateMerge);
    }

    /// `top_k(K)` on a single-file store must equal the first `K` entries
    /// of the distance-sorted exhaustive answer — for every `K`, including
    /// 0, exact forest size, and past-the-end — with ties broken by tree
    /// id on both sides.
    #[test]
    fn top_k_matches_the_distance_sorted_exhaustive_prefix(
        members in proptest::collection::vec((0usize..40, any::<u64>()), 1..16),
        query_nodes in 1usize..60,
        query_seed in any::<u64>(),
        case in 0u64..u64::MAX,
    ) {
        let params = PQParams::new(2, 3);
        let path = tmp(&format!("topk-{case}.pqg"));
        let mut lt = LabelTable::new();
        let mut store = IndexStore::create(&path, params).unwrap();
        for (i, &(nodes, seed)) in members.iter().enumerate() {
            let index = if nodes == 0 {
                TreeIndex::empty(params)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, 5));
                build_index(&tree, &lt, params)
            };
            store.put_tree(TreeId(i as u64), &index).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(query_seed);
        let qtree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(query_nodes, 5));
        let query = build_index(&qtree, &lt, params);

        // τ = 1.5 admits every stored tree (all distances are ≤ 1), so the
        // sorted scan is the full nearest-neighbour ranking.
        let (all_sorted, _) = lookup_exhaustive_with_stats(&store, &query, 1.5).unwrap();
        for k in [0usize, 1, 2, members.len(), members.len() + 5] {
            let (top, stats) = store.lookup_top_k_with_stats(&query, k).unwrap();
            prop_assert_eq!(&top[..], &all_sorted[..k.min(all_sorted.len())]);
            prop_assert_eq!(stats.hits, top.len());
            prop_assert_eq!(stats.plan, LookupPlan::CandidateMerge);
        }
        std::fs::remove_file(&path).ok();
    }
}
