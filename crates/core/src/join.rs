//! Approximate joins over forests — the application scenario of Guha et al.
//! (the paper's references [7, 8]) that motivates indexed approximate
//! lookups: find all pairs `(T₁ ∈ F₁, T₂ ∈ F₂)` with
//! `dist(T₁, T₂) < τ`.
//!
//! The naive join computes `|F₁| · |F₂|` distances. This module prunes with
//! two classic filters derived from the bag-overlap form of the pq-gram
//! distance `d = 1 − 2·|I₁ ∩ I₂| / (|I₁| + |I₂|)`:
//!
//! * **size filter** — `|I₁ ∩ I₂| ≤ min(|I₁|, |I₂|)` implies
//!   `d ≥ 1 − 2·min / (|I₁| + |I₂|)`; for `d < τ` the bag sizes must satisfy
//!   `(1 − τ)·(|I₁| + |I₂|) < 2·min(|I₁|, |I₂|)` — wildly different sizes
//!   can never join. This is [`LookupPlanner::admits_total`], the bound the
//!   in-memory and persistent lookups prune with;
//! * **candidate generation** — an inverted index (gram → posting list)
//!   over the smaller forest; only trees sharing at least one gram with the
//!   probe can have `d < 1`, and for `τ ≤ 1` everything else is skipped
//!   without touching it.
//!
//! Both filters are *lossless*: [`join`] returns exactly the pairs the
//! nested-loop join would. Two degenerate regions need care to keep that
//! guarantee:
//!
//! * a pair of *empty* bags has distance 0 (they are indistinguishable), so
//!   for `τ > 0` every empty×empty pair joins even though no gram ever
//!   surfaces it as a candidate — [`join`] enumerates those pairs
//!   explicitly;
//! * for `τ > 1` *every* pair joins (the distance never exceeds 1), so the
//!   filters cannot prune anything and [`join`] degenerates to the
//!   exhaustive scan.

use crate::index::{pq_distance, ForestIndex, GramKey, ParamsMismatch, TreeId, TreeIndex};
use crate::plan::LookupPlanner;
use pqgram_tree::{FxHashMap, FxHashSet};

/// One join result pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinPair {
    /// Tree from the left forest.
    pub left: TreeId,
    /// Tree from the right forest.
    pub right: TreeId,
    /// Their pq-gram distance.
    pub distance: f64,
}

/// An inverted index over a forest: gram fingerprint → posting list of
/// `(tree, multiplicity)`.
///
/// Built once per join (or maintained alongside the forest). Because the
/// postings carry multiplicities, a probe can accumulate its exact bag
/// intersection with *every* candidate in one merge pass over its own
/// grams' posting lists — no candidate index is ever fetched.
#[derive(Default, Debug)]
pub struct InvertedIndex {
    postings: FxHashMap<GramKey, Vec<Posting>>,
    totals: FxHashMap<TreeId, u64>,
}

/// One posting-list entry: a tree containing the gram, the gram's
/// multiplicity in that tree, and the tree's bag size. Carrying the total
/// here makes [`InvertedIndex::intersections`] self-contained: the distance
/// of a candidate is computable without any fallible side lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// The tree containing the gram.
    pub tree: TreeId,
    /// Multiplicity of the gram in the tree's bag.
    pub count: u32,
    /// Bag size `|I(tree)|`.
    pub total: u64,
}

/// Accumulated overlap of a probe with one candidate tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overlap {
    /// Bag intersection `|I(probe) ∩ I(cand)|`.
    pub shared: u64,
    /// Candidate bag size `|I(cand)|`.
    pub total: u64,
}

impl InvertedIndex {
    /// Builds the inverted index of a forest.
    pub fn build(forest: &ForestIndex) -> Self {
        let mut inv = InvertedIndex::default();
        for (id, index) in forest.iter() {
            inv.add(id, index);
        }
        inv
    }

    /// Adds one tree's index.
    pub fn add(&mut self, id: TreeId, index: &TreeIndex) {
        let total = index.total();
        for (gram, count) in index.iter() {
            self.postings.entry(gram).or_default().push(Posting {
                tree: id,
                count,
                total,
            });
        }
        self.totals.insert(id, total);
    }

    /// Trees sharing at least one distinct gram with `probe`, deduplicated
    /// and sorted.
    pub fn candidates(&self, probe: &TreeIndex) -> Vec<TreeId> {
        let mut seen: FxHashSet<TreeId> = FxHashSet::default();
        for (gram, _) in probe.iter() {
            if let Some(list) = self.postings.get(&gram) {
                seen.extend(list.iter().map(|p| p.tree));
            }
        }
        let mut out: Vec<TreeId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Exact bag overlaps `|I(probe) ∩ I(cand)|` (with the candidate's bag
    /// size) for every candidate sharing at least one gram with `probe`,
    /// in one merge pass over the probe's grams' posting lists.
    pub fn intersections(&self, probe: &TreeIndex) -> FxHashMap<TreeId, Overlap> {
        let mut acc: FxHashMap<TreeId, Overlap> = FxHashMap::default();
        for (gram, probe_count) in probe.iter() {
            if let Some(list) = self.postings.get(&gram) {
                for posting in list {
                    let overlap = acc.entry(posting.tree).or_insert(Overlap {
                        shared: 0,
                        total: posting.total,
                    });
                    overlap.shared += u64::from(probe_count.min(posting.count));
                }
            }
        }
        acc
    }

    /// Bag size of one indexed tree.
    pub fn total(&self, id: TreeId) -> Option<u64> {
        self.totals.get(&id).copied()
    }

    /// Number of distinct grams indexed.
    pub fn distinct_grams(&self) -> usize {
        self.postings.len()
    }
}

/// The pq-gram distance from an accumulated bag overlap:
/// `1 − 2·shared / (total_a + total_b)`, with two empty bags at distance 0.
/// This is [`pq_distance`] expressed over the merge-join quantities, shared
/// by the in-memory join and the persistent store's candidate-merge lookup
/// so both paths compute bit-identical distances.
#[inline]
pub fn overlap_distance(shared: u64, total_a: u64, total_b: u64) -> f64 {
    let denom = total_a + total_b;
    if denom == 0 {
        return 0.0;
    }
    1.0 - 2.0 * shared as f64 / denom as f64
}

/// Statistics of one join run (how much the filters pruned).
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinStats {
    /// `|F₁| · |F₂|`: pairs a nested-loop join would examine.
    pub pairs_naive: u64,
    /// Pairs surviving candidate generation, plus the explicitly enumerated
    /// empty×empty pairs. For `τ > 1` the filters prune nothing and this
    /// equals `pairs_naive`.
    pub pairs_candidates: u64,
    /// Pairs whose distance was actually computed (candidates surviving the
    /// size filter, plus the enumerated empty×empty pairs).
    pub pairs_verified: u64,
    /// Result pairs below `tau`.
    pub pairs_joined: u64,
    /// Which plan ran: `true` when candidate generation + size filter
    /// pruned the pair space, `false` when `τ > 1` forced the exhaustive
    /// nested scan (the filters cannot prune — a production cliff callers
    /// should see, not guess).
    pub used_filter: bool,
}

/// Approximate join: [`join_parallel`] on the calling thread alone.
///
/// # Errors
///
/// Returns [`ParamsMismatch`] under the same conditions as
/// [`join_parallel`].
pub fn join(
    left: &ForestIndex,
    right: &ForestIndex,
    tau: f64,
) -> Result<(Vec<JoinPair>, JoinStats), ParamsMismatch> {
    join_parallel(left, right, tau, 1)
}

/// Approximate join: all pairs across the two forests with pq-gram distance
/// below `tau`. Returns the pairs (sorted by distance) and pruning stats.
///
/// Exact: identical results to the nested-loop join, typically at a small
/// fraction of the distance computations. The two regions the inverted
/// index cannot see are handled separately (see the module docs): for
/// `τ > 1` the join is exhaustive, and for `0 < τ ≤ 1` the empty×empty
/// pairs (distance 0) are enumerated directly.
///
/// Candidate verification fans out over `threads` scoped workers through
/// [`crate::par`] (one thread spawns nothing and is the serial loop). The
/// inverted index is built once and shared read-only; each worker probes a
/// contiguous chunk of the probe side and verifies its own candidates
/// (size filter + exact distance). Per-worker pair lists and pruning
/// counters merge in chunk order and the final sort fixes the pair order,
/// so the result is identical for every thread count.
///
/// # Errors
///
/// Returns [`ParamsMismatch`] if the `τ > 1` exhaustive region encounters
/// trees indexed under different `PQParams` (the filtered region never
/// compares raw bags, so it cannot observe a mismatch).
pub fn join_parallel(
    left: &ForestIndex,
    right: &ForestIndex,
    tau: f64,
    threads: usize,
) -> Result<(Vec<JoinPair>, JoinStats), ParamsMismatch> {
    let mut stats = JoinStats {
        pairs_naive: left.len() as u64 * right.len() as u64,
        ..Default::default()
    };
    let mut pairs = Vec::new();
    if tau > 1.0 {
        // Exhaustive region: fan the left side out, scan the right per probe.
        let probes: Vec<(TreeId, &TreeIndex)> = left.iter().collect();
        for part in crate::par::map_chunks(&probes, threads, |part| {
            let mut out = Vec::new();
            for &(l, li) in part {
                for (r, ri) in right.iter() {
                    out.push(JoinPair {
                        left: l,
                        right: r,
                        distance: pq_distance(li, ri)?,
                    });
                }
            }
            Ok::<_, ParamsMismatch>(out)
        }) {
            pairs.extend(part?);
        }
        stats.pairs_candidates = stats.pairs_naive;
        stats.pairs_verified = stats.pairs_naive;
    } else {
        stats.used_filter = true;
        let invert_left = left.len() <= right.len();
        let (build_side, probe_side) = if invert_left {
            (left, right)
        } else {
            (right, left)
        };
        let inverted = InvertedIndex::build(build_side);
        let probes: Vec<(TreeId, &TreeIndex)> = probe_side.iter().collect();
        for (part_pairs, candidates, verified) in crate::par::map_chunks(&probes, threads, |part| {
            let mut out = Vec::new();
            let mut candidates = 0u64;
            let mut verified = 0u64;
            for &(probe_id, probe_index) in part {
                let planner = LookupPlanner::threshold(probe_index.total(), tau);
                let intersections = inverted.intersections(probe_index);
                candidates += intersections.len() as u64;
                for (cand, overlap) in intersections {
                    if !planner.admits_total(overlap.total) {
                        continue;
                    }
                    verified += 1;
                    let distance =
                        overlap_distance(overlap.shared, probe_index.total(), overlap.total);
                    if planner.admits_distance(distance) {
                        let (l, r) = if invert_left {
                            (cand, probe_id)
                        } else {
                            (probe_id, cand)
                        };
                        pairs_push(&mut out, l, r, distance);
                    }
                }
            }
            (out, candidates, verified)
        }) {
            pairs.extend(part_pairs);
            stats.pairs_candidates += candidates;
            stats.pairs_verified += verified;
        }
        if tau > 0.0 {
            // Empty bags share no gram with anything, so candidate generation
            // never surfaces them — yet two empty bags are at distance 0 and
            // join for every tau > 0.
            let empties = |forest: &ForestIndex| -> Vec<TreeId> {
                let empty = forest.iter().filter(|(_, i)| i.total() == 0);
                empty.map(|(id, _)| id).collect()
            };
            let right_empty = empties(right);
            for l in empties(left) {
                for &r in &right_empty {
                    stats.pairs_candidates += 1;
                    stats.pairs_verified += 1;
                    pairs_push(&mut pairs, l, r, 0.0);
                }
            }
        }
    }
    stats.pairs_joined = pairs.len() as u64;
    sort_pairs(&mut pairs);
    Ok((pairs, stats))
}

/// Orders result pairs by distance, ties by `(left, right)` id.
fn sort_pairs(pairs: &mut [JoinPair]) {
    pairs.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.left.cmp(&b.left))
            .then_with(|| a.right.cmp(&b.right))
    });
}

fn pairs_push(out: &mut Vec<JoinPair>, left: TreeId, right: TreeId, distance: f64) {
    out.push(JoinPair {
        left,
        right,
        distance,
    });
}

/// Reference nested-loop join (used by tests and benchmarks).
///
/// # Errors
///
/// Returns [`ParamsMismatch`] when two trees were indexed under different
/// `PQParams`.
pub fn join_nested_loop(
    left: &ForestIndex,
    right: &ForestIndex,
    tau: f64,
) -> Result<Vec<JoinPair>, ParamsMismatch> {
    let mut pairs = Vec::new();
    for (l, li) in left.iter() {
        for (r, ri) in right.iter() {
            let distance = pq_distance(li, ri)?;
            if distance < tau {
                pairs.push(JoinPair {
                    left: l,
                    right: r,
                    distance,
                });
            }
        }
    }
    sort_pairs(&mut pairs);
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use crate::params::PQParams;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, LabelTable, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two forests where each right tree is a noisy copy of a left tree.
    fn forests(seed: u64, n: usize) -> (ForestIndex, ForestIndex, LabelTable) {
        let params = PQParams::new(2, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let mut left = ForestIndex::new();
        let mut right = ForestIndex::new();
        for i in 0..n as u64 {
            let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(60, 6));
            left.insert(TreeId(i), build_index(&tree, &lt, params));
            let mut noisy = tree.clone();
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            record_script(&mut rng, &mut noisy, &ScriptConfig::new(3, alphabet));
            right.insert(TreeId(1000 + i), build_index(&noisy, &lt, params));
        }
        (left, right, lt)
    }

    #[test]
    fn join_matches_nested_loop() -> Result<(), ParamsMismatch> {
        for seed in 0..5 {
            let (left, right, _) = forests(seed, 25);
            for tau in [0.2, 0.5, 0.8] {
                let (fast, stats) = join(&left, &right, tau)?;
                let slow = join_nested_loop(&left, &right, tau)?;
                assert_eq!(fast, slow, "seed {seed} tau {tau}");
                assert!(stats.pairs_verified <= stats.pairs_naive);
                assert_eq!(stats.pairs_joined, fast.len() as u64);
                assert!(stats.used_filter, "tau <= 1 runs the filtered plan");
            }
        }
        Ok(())
    }

    #[test]
    fn join_finds_the_noisy_copies() -> Result<(), ParamsMismatch> {
        let (left, right, _) = forests(9, 30);
        let (pairs, _) = join(&left, &right, 0.5)?;
        // Every left tree joins with (at least) its own noisy copy.
        for i in 0..30u64 {
            assert!(
                pairs
                    .iter()
                    .any(|p| p.left == TreeId(i) && p.right == TreeId(1000 + i)),
                "pair {i} missing"
            );
        }
        Ok(())
    }

    #[test]
    fn filters_prune_on_heterogeneous_collections() -> Result<(), ParamsMismatch> {
        // Clusters with disjoint vocabularies and varied sizes: candidate
        // generation and the size filter both prune.
        let params = PQParams::new(2, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut left = ForestIndex::new();
        let mut right = ForestIndex::new();
        for cluster in 0..4usize {
            let mut lt = LabelTable::new();
            for i in 0..10u64 {
                let nodes = 20 + 60 * cluster; // size varies across clusters
                let mut cfg = RandomTreeConfig::new(nodes, 5);
                cfg.label_prefix = ["alpha", "beta", "gamma", "delta"][cluster];
                let tree = random_tree(&mut rng, &mut lt, &cfg);
                let id = (cluster as u64) * 100 + i;
                left.insert(TreeId(id), build_index(&tree, &lt, params));
                right.insert(TreeId(5000 + id), build_index(&tree, &lt, params));
            }
        }
        let (pairs, stats) = join(&left, &right, 0.3)?;
        assert_eq!(stats.pairs_naive, 1600);
        assert!(
            stats.pairs_verified < stats.pairs_naive / 2,
            "expected >2x pruning, verified {} of {}",
            stats.pairs_verified,
            stats.pairs_naive
        );
        assert_eq!(join_nested_loop(&left, &right, 0.3)?, pairs);
        // Every tree joins with its identical twin.
        assert!(pairs.len() >= 40);
        Ok(())
    }

    #[test]
    fn size_window_is_sound_and_useful() {
        let admits = |a: u64, b: u64, tau: f64| LookupPlanner::threshold(a, tau).admits_total(b);
        // Sound: never prunes a pair that could join.
        assert!(admits(100, 100, 0.1));
        assert!(admits(0, 0, 0.5));
        // A 100-gram tree and a 10-gram tree have distance >= 1 - 20/110.
        assert!(!admits(100, 10, 0.5));
        assert!(admits(100, 95, 0.2));
        // Boundary: d_min = 1 - 2*50/150 = 1/3.
        assert!(!admits(100, 50, 1.0 / 3.0));
        assert!(admits(100, 50, 0.34));
    }

    #[test]
    fn empty_forests() -> Result<(), ParamsMismatch> {
        let empty = ForestIndex::new();
        let (pairs, stats) = join(&empty, &empty, 0.5)?;
        assert!(pairs.is_empty());
        assert_eq!(stats.pairs_naive, 0);
        Ok(())
    }

    #[test]
    fn empty_trees_join_each_other() -> Result<(), ParamsMismatch> {
        // An empty tree index (e.g. a tree too small to yield any gram bag
        // under the store's conventions) is at distance 0 from any other
        // empty one — the pair must join for every tau > 0 even though no
        // gram ever surfaces it as a candidate.
        let params = PQParams::new(2, 3);
        let (mut left, mut right, _) = forests(17, 4);
        left.insert(TreeId(50), TreeIndex::empty(params));
        right.insert(TreeId(60), TreeIndex::empty(params));
        right.insert(TreeId(61), TreeIndex::empty(params));
        for tau in [0.5, 1.0] {
            let (fast, stats) = join(&left, &right, tau)?;
            let slow = join_nested_loop(&left, &right, tau)?;
            assert_eq!(fast, slow, "tau {tau}");
            for r in [60, 61] {
                assert!(
                    fast.iter()
                        .any(|p| p.left == TreeId(50) && p.right == TreeId(r) && p.distance == 0.0),
                    "empty pair (50, {r}) missing at tau {tau}"
                );
            }
            assert_eq!(stats.pairs_joined, fast.len() as u64);
            assert!(stats.pairs_verified >= 2, "empty pairs count as verified");
        }
        // tau = 0 admits nothing, not even identical trees.
        let (none, _) = join(&left, &right, 0.0)?;
        assert_eq!(none, join_nested_loop(&left, &right, 0.0)?);
        assert!(none.is_empty());
        Ok(())
    }

    #[test]
    fn tau_above_one_joins_every_pair() -> Result<(), ParamsMismatch> {
        // Distances never exceed 1, so tau > 1 joins all pairs — including
        // vocabulary-disjoint ones with zero gram overlap that the inverted
        // index cannot surface.
        let params = PQParams::new(2, 3);
        let mut rng = StdRng::seed_from_u64(23);
        let mut left = ForestIndex::new();
        let mut right = ForestIndex::new();
        let mut lt = LabelTable::new();
        for (side, forest) in [("alpha", &mut left), ("beta", &mut right)] {
            for i in 0..6u64 {
                let mut cfg = RandomTreeConfig::new(25, 4);
                cfg.label_prefix = side;
                let tree = random_tree(&mut rng, &mut lt, &cfg);
                forest.insert(TreeId(i), build_index(&tree, &lt, params));
            }
        }
        let (fast, stats) = join(&left, &right, 1.2)?;
        let slow = join_nested_loop(&left, &right, 1.2)?;
        assert_eq!(fast, slow);
        assert_eq!(fast.len() as u64, stats.pairs_naive, "every pair joins");
        assert_eq!(stats.pairs_candidates, stats.pairs_naive);
        assert_eq!(stats.pairs_verified, stats.pairs_naive);
        assert!(!stats.used_filter, "tau > 1 runs the exhaustive plan");
        // At tau = 1.0 the disjoint pairs (distance exactly 1) drop out.
        let (at_one, at_one_stats) = join(&left, &right, 1.0)?;
        assert_eq!(at_one, join_nested_loop(&left, &right, 1.0)?);
        assert!(at_one.len() < fast.len());
        assert!(at_one_stats.used_filter);
        Ok(())
    }

    #[test]
    fn parallel_join_matches_serial() -> Result<(), ParamsMismatch> {
        let params = PQParams::new(2, 3);
        let (mut left, mut right, _) = forests(29, 20);
        // Include the degenerate regions: empty bags on both sides.
        left.insert(TreeId(700), TreeIndex::empty(params));
        right.insert(TreeId(800), TreeIndex::empty(params));
        for tau in [0.0, 0.3, 0.8, 1.0, 1.2] {
            let (serial_pairs, serial_stats) = join(&left, &right, tau)?;
            for threads in [1, 2, 3, 8, 64] {
                let (pairs, stats) = join_parallel(&left, &right, tau, threads)?;
                assert_eq!(pairs, serial_pairs, "tau {tau} threads {threads}");
                assert_eq!(
                    stats.pairs_candidates, serial_stats.pairs_candidates,
                    "tau {tau} threads {threads}"
                );
                assert_eq!(stats.pairs_verified, serial_stats.pairs_verified);
                assert_eq!(stats.pairs_joined, serial_stats.pairs_joined);
                assert_eq!(stats.pairs_naive, serial_stats.pairs_naive);
                assert_eq!(stats.used_filter, serial_stats.used_filter);
            }
        }
        Ok(())
    }

    #[test]
    fn inverted_index_candidates_share_grams() {
        let (left, _, lt) = forests(13, 10);
        let inv = InvertedIndex::build(&left);
        assert!(inv.distinct_grams() > 0);
        let _ = lt;
        // A probe equal to one member must list that member as candidate.
        let member = left.get(TreeId(3)).unwrap();
        let cands = inv.candidates(member);
        assert!(cands.contains(&TreeId(3)));
    }
}
