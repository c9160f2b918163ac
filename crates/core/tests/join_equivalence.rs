//! Property test: the filtered approximate join is *exact* — it returns
//! precisely the pairs the nested-loop join returns, for arbitrary forests
//! including the degenerate shapes that historically broke the claim:
//! empty tree indexes (distance 0 to each other, invisible to the inverted
//! index), single-node trees, vocabulary-disjoint pairs, and thresholds
//! above 1 (where every pair joins).

use pqgram_core::join::join_nested_loop;
use pqgram_core::{build_index, join_parallel, ForestIndex, PQParams, TreeId, TreeIndex};
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::LabelTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Label vocabularies cycled over the trees of a forest, so that some pairs
/// share grams and some are fully disjoint.
const PREFIXES: &[&str] = &["alpha", "beta", "gamma"];

/// Builds one forest from a size vector: size 0 → an empty index, size 1 →
/// a single-node tree, larger → a random tree of that many nodes.
fn forest_from_sizes(
    rng: &mut StdRng,
    lt: &mut LabelTable,
    params: PQParams,
    sizes: &[usize],
    id_base: u64,
) -> ForestIndex {
    let mut forest = ForestIndex::new();
    for (i, &size) in sizes.iter().enumerate() {
        let id = TreeId(id_base + i as u64);
        let index = match size {
            0 => TreeIndex::empty(params),
            _ => {
                let mut cfg = RandomTreeConfig::new(size, 4);
                cfg.label_prefix = PREFIXES[i % PREFIXES.len()];
                let tree = random_tree(rng, lt, &cfg);
                build_index(&tree, lt, params)
            }
        };
        forest.insert(id, index);
    }
    forest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `join_parallel` ≡ `join_nested_loop` for every thread count (one
    /// thread is `join`) over random forests with empty and tiny trees, for
    /// thresholds spanning 0 < τ ≤ 1 and τ > 1, with coherent pruning
    /// statistics.
    #[test]
    fn prop_join_equals_nested_loop(
        seed in 0u64..1_000_000,
        left_sizes in prop::collection::vec(0usize..12, 0..8),
        right_sizes in prop::collection::vec(0usize..12, 0..8),
        tau_sel in 0usize..4,
    ) {
        let tau = [0.1, 0.5, 1.0, 1.2][tau_sel];
        let params = PQParams::new(2, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let left = forest_from_sizes(&mut rng, &mut lt, params, &left_sizes, 0);
        let right = forest_from_sizes(&mut rng, &mut lt, params, &right_sizes, 1000);

        let slow = join_nested_loop(&left, &right, tau).unwrap();
        for threads in [1usize, 2, 4] {
            let (fast, stats) = join_parallel(&left, &right, tau, threads).unwrap();
            prop_assert_eq!(&fast, &slow, "join must equal the nested-loop join");

            prop_assert_eq!(stats.pairs_naive,
                left_sizes.len() as u64 * right_sizes.len() as u64);
            prop_assert!(stats.pairs_candidates <= stats.pairs_naive);
            prop_assert!(stats.pairs_verified <= stats.pairs_candidates);
            prop_assert!(stats.pairs_joined <= stats.pairs_verified);
            prop_assert_eq!(stats.pairs_joined, fast.len() as u64);
        }
    }
}
