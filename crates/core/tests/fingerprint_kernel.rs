//! The fingerprint kernel against the definition: `build_index` — one stem
//! per anchor, one scaled term per child, additions per gram — must equal,
//! bit for bit, the bag obtained by enumerating every pq-gram at node level
//! and folding its `p + q` labels through `combine`
//! (`reference::index_by_definition`), for every gram shape and on the tree
//! shapes where anchors, children and window padding are weighted
//! differently: a single node, a deep chain, a wide star.

use pqgram_core::reference::index_by_definition;
use pqgram_core::{build_index, GramKernel, PQParams};
use pqgram_tree::fingerprint::{combine, NULL_FINGERPRINT, TUPLE_SEED};
use pqgram_tree::generate::{random_tree, RandomTreeConfig};
use pqgram_tree::{LabelTable, Tree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gram shapes with `p < q`, `p = q`, `p > q` and the degenerate `1`s.
const SHAPES: [(usize, usize); 5] = [(1, 1), (1, 2), (2, 3), (3, 3), (4, 2)];

fn assert_kernel_matches_definition(tree: &Tree, labels: &LabelTable, what: &str) {
    for (p, q) in SHAPES {
        let params = PQParams::new(p, q);
        let built = build_index(tree, labels, params);
        assert_eq!(built.validate(), Ok(()), "{what} p={p} q={q}");
        assert_eq!(
            built,
            index_by_definition(tree, labels, params),
            "{what} p={p} q={q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_build_index_equals_fold_over_for_each_gram(
        seed in 0u64..1_000_000,
        nodes in 1usize..160,
        alphabet in 1usize..12,
        shape in 0usize..SHAPES.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = LabelTable::new();
        let tree = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(nodes, alphabet));
        let (p, q) = SHAPES[shape];
        let params = PQParams::new(p, q);
        prop_assert_eq!(
            build_index(&tree, &labels, params),
            index_by_definition(&tree, &labels, params)
        );
    }
}

#[test]
fn single_node() {
    let mut labels = LabelTable::new();
    let tree = Tree::with_root(labels.intern("only"));
    assert_kernel_matches_definition(&tree, &labels, "single node");
}

#[test]
fn deep_chain() {
    let mut labels = LabelTable::new();
    let syms: Vec<_> = (0..5).map(|i| labels.intern(&format!("c{i}"))).collect();
    let mut tree = Tree::with_root(syms[0]);
    let mut tip = tree.root();
    for i in 1..2_000 {
        tip = tree.add_child(tip, syms[i * i % syms.len()]);
    }
    assert_kernel_matches_definition(&tree, &labels, "2000-deep chain");
}

#[test]
fn wide_star() {
    let mut labels = LabelTable::new();
    let syms: Vec<_> = (0..7).map(|i| labels.intern(&format!("s{i}"))).collect();
    let mut tree = Tree::with_root(syms[0]);
    for i in 1..2_000 {
        tree.add_child(tree.root(), syms[i * i % syms.len()]);
    }
    assert_kernel_matches_definition(&tree, &labels, "2000-wide star");
}

/// The kernel on its own, against a hand-written fold: an anchor `b` under
/// `a` with children `x y`, at p = 2, q = 3, has the four windows
/// `••x`, `•xy`, `xy•`, `y••`; a leaf has the single window `•••`.
#[test]
fn kernel_emits_the_windows_of_one_anchor_in_order() {
    let fold = |tuple: &[u64]| tuple.iter().fold(TUPLE_SEED, |acc, &l| combine(acc, l));
    let (a, b, x, y, n) = (11, 22, 33, 44, NULL_FINGERPRINT);
    let mut kernel = GramKernel::new(PQParams::new(2, 3));
    let mut keys = Vec::new();
    kernel.anchor(&[a, b], [x, y], |key| keys.push(key));
    let expected: Vec<u64> = [[n, n, x], [n, x, y], [x, y, n], [y, n, n]]
        .iter()
        .map(|w| fold(&[a, b, w[0], w[1], w[2]]))
        .collect();
    assert_eq!(keys, expected);
    // The kernel is reusable: a leaf right after, deeper than p and at the root.
    keys.clear();
    kernel.anchor(&[a, b, x], [], |key| keys.push(key));
    kernel.anchor(&[a], [], |key| keys.push(key));
    assert_eq!(keys, [fold(&[b, x, n, n, n]), fold(&[n, a, n, n, n])]);
    // Child fingerprints need not be residues: any u64 folds the same way.
    keys.clear();
    kernel.anchor(&[u64::MAX], [u64::MAX, 1 << 61], |key| keys.push(key));
    assert_eq!(keys.first(), Some(&fold(&[n, u64::MAX, n, n, u64::MAX])));
    assert_eq!(
        keys.get(2),
        Some(&fold(&[n, u64::MAX, u64::MAX, 1 << 61, n]))
    );
}
