//! The generator's output, pinned. Every seeded test and every corpus of
//! the `perf/` benchmark draws from `rand::rngs::StdRng` (the in-repo
//! xoshiro256++ under `perf/shims/rand`) through `generate`; a change to
//! either re-bases the tests and the benchmark at once, so it must fail
//! here first.

use pqgram_tree::generate::{dblp, random_tree, xmark, RandomTreeConfig};
use pqgram_tree::script::{record_script, ScriptConfig};
use pqgram_tree::serial::{write_log, write_tree};
use pqgram_tree::{LabelTable, Tree};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// FNV-1a over the preorder sequence of (label name, fanout).
fn shape_digest(tree: &Tree, labels: &LabelTable) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in tree.preorder(tree.root()) {
        let fanout = tree.fanout(n) as u64;
        for b in labels
            .name(tree.label(n))
            .bytes()
            .chain(fanout.to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_first_words_of_seed_1_are_pinned() {
    let mut rng = StdRng::seed_from_u64(1);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            0xcfc5_d07f_6f03_c29b,
            0xbf42_4132_963f_e08d,
            0x19a3_7d57_57aa_f520,
            0xbf08_119f_05cd_56d6,
        ]
    );
}

#[test]
fn an_xmark_document_at_seed_7_is_pinned() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut labels = LabelTable::new();
    let tree = xmark(&mut rng, &mut labels, 2_000);
    assert_eq!(
        (tree.node_count(), tree.depth(), labels.len()),
        (1_985, 7, 1_092)
    );
    assert_eq!(shape_digest(&tree, &labels), 0xe4d1_b8a3_d704_600d);
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every generator and the script recorder, pinned byte for byte: the
/// serialized trees of `xmark`, `dblp` and `random_tree`, then the
/// serialized log `record_script` records on the XMark tree (the shape of
/// the benchmark's update corpora: one adopted child at most). A change in
/// any random draw changes a digest.
#[test]
fn generated_trees_and_a_recorded_script_at_seed_3_are_pinned() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut labels = LabelTable::new();
    let mut bytes = Vec::new();
    let mut tree = xmark(&mut rng, &mut labels, 600);
    write_tree(&mut bytes, &tree, &labels).unwrap();
    let random = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(300, 9));
    write_tree(&mut bytes, &random, &labels).unwrap();
    let papers = dblp(&mut rng, &mut labels, 400);
    write_tree(&mut bytes, &papers, &labels).unwrap();
    let trees = fnv1a(&bytes);

    let alphabet: Vec<_> = labels.iter().map(|(sym, _)| sym).take(40).collect();
    let mut cfg = ScriptConfig::new(60, alphabet);
    cfg.max_adopted = 1;
    let (log, forward) = record_script(&mut rng, &mut tree, &cfg);
    let mut log_bytes = Vec::new();
    write_log(&mut log_bytes, &log).unwrap();
    write_tree(&mut log_bytes, &tree, &labels).unwrap();
    assert_eq!(
        (trees, fnv1a(&log_bytes), forward.len()),
        (0xef72_4056_4ab7_a70d, 0x86e3_c7b3_bb5a_1c6a, 60)
    );
}
