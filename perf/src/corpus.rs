//! Seeded input generation: the clustered corpus, the query variants and
//! the answer digest. Everything here is a pure function of the seed; the
//! store under test only ever sees the generated trees and indexes.

use crate::adapter::tree::{
    record_script, xmark, EditLog, FxHashMap, LabelSym, LabelTable, ScriptConfig, Tree,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Members per small-document vocabulary cluster.
pub const CLUSTER: usize = 100;
/// One document in this many is fat.
pub const FAT_EVERY: usize = 25;
/// Node range of a small document (the lower end keeps a query's gram bag
/// large enough that the overlap budget covers every scaffold gram).
pub const SMALL_NODES: std::ops::RangeInclusive<usize> = 56..=120;

/// A generated collection over one label table. Document `i` is stored
/// under tree id `i`.
pub struct Corpus {
    /// Label table shared by every tree and query of the run.
    pub labels: LabelTable,
    /// The documents: `small` small ones, then the fat ones.
    pub docs: Vec<Tree>,
    /// Number of small documents (they occupy ids `0..small`).
    pub small: usize,
}

impl Corpus {
    /// Total node count.
    pub fn nodes(&self) -> u64 {
        self.docs.iter().map(|t| t.node_count() as u64).sum()
    }

    /// Order-sensitive 64-bit digest of every tree's shape and labels —
    /// two seeds must not produce the same corpus.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for tree in &self.docs {
            for node in tree.preorder(tree.root()) {
                d.push(tree.label(node).index() as u64);
                d.push(tree.fanout(node) as u64);
            }
        }
        d.finish()
    }
}

/// An XMark-shaped document whose labels below the top two levels carry
/// `@tag`: documents with different tags overlap only on the handful of
/// scaffold grams around `site` and its hubs (the `store_lookup`
/// experiment's heterogeneous-collection model, rebuilt here so the
/// benchmark does not depend on `crates/bench`).
fn tagged_xmark(rng: &mut StdRng, labels: &mut LabelTable, nodes: usize, tag: &str) -> Tree {
    let base = xmark(rng, labels, nodes);
    let mut out = Tree::with_root(base.label(base.root()));
    let mut mapped = vec![out.root(); base.slot_count()];
    let mut tagged: FxHashMap<LabelSym, LabelSym> = FxHashMap::default();
    // Preorder maps each parent before its children and keeps sibling
    // order, so `out` is an exact structural copy of `base`.
    let order: Vec<_> = base.preorder(base.root()).collect();
    for node in order {
        let Some(parent) = base.parent(node) else {
            continue;
        };
        let orig = base.label(node);
        let sym = if base.node_depth(node) < 2 {
            orig
        } else {
            *tagged
                .entry(orig)
                .or_insert_with(|| labels.intern(&format!("{}@{tag}", labels.name(orig))))
        };
        mapped[node.index()] = out.add_child(mapped[parent.index()], sym);
    }
    out
}

/// `small` tagged-XMark documents with node counts drawn from
/// `small_nodes`, in [`CLUSTER`]-member clusters with a per-cluster
/// vocabulary, followed by `fat` documents of `fat_nodes` nodes sharing
/// the vocabulary `big`.
pub fn clustered(
    seed: u64,
    small: usize,
    small_nodes: std::ops::RangeInclusive<usize>,
    fat: usize,
    fat_nodes: usize,
) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = LabelTable::new();
    let docs = (0..small + fat)
        .map(|i| {
            if i < small {
                let nodes = rng.random_range(small_nodes.clone());
                tagged_xmark(&mut rng, &mut labels, nodes, &format!("c{}", i / CLUSTER))
            } else {
                tagged_xmark(&mut rng, &mut labels, fat_nodes, "big")
            }
        })
        .collect();
    Corpus {
        labels,
        docs,
        small,
    }
}

/// The lookup and ingest collections: `n` documents, one in
/// [`FAT_EVERY`] fat, the rest [`SMALL_NODES`] small.
pub fn skewed(seed: u64, n: usize, fat_nodes: usize) -> Corpus {
    let fat = n / FAT_EVERY;
    clustered(seed, n - fat, SMALL_NODES, fat, fat_nodes)
}

/// The labels a tree uses, in first-occurrence order.
pub fn alphabet_of(tree: &Tree) -> Vec<LabelSym> {
    let mut seen: FxHashMap<LabelSym, ()> = FxHashMap::default();
    let mut out = Vec::new();
    for node in tree.preorder(tree.root()) {
        let l = tree.label(node);
        if seen.insert(l, ()).is_none() {
            out.push(l);
        }
    }
    out
}

/// Applies `ops` random valid INS/DEL/REN edits (equal thirds, at most one
/// adopted child per insert, labels drawn from `alphabet`) to `tree` and
/// returns the inverse log — the paper's maintenance input `(Tₙ, L)`.
pub fn edit(rng: &mut StdRng, tree: &mut Tree, alphabet: &[LabelSym], ops: usize) -> EditLog {
    let mut cfg = ScriptConfig::new(ops, alphabet.to_vec());
    cfg.max_adopted = 1;
    record_script(rng, tree, &cfg).0
}

/// A query document: `base` plus three random edits within its own
/// vocabulary.
pub fn query_variant(rng: &mut StdRng, base: &Tree) -> Tree {
    let mut q = base.clone();
    edit(rng, &mut q, &alphabet_of(base), 3);
    q
}

/// The open probe's query: one small document in a vocabulary no corpus
/// uses, the same for every seed. Only the scaffold grams can match, so
/// answering it costs every source one filter pass, one fence probe per
/// surviving gram and a few scaffold posting lists — the first-answer cost
/// of an open store, without the seed-dependent cost of a real hit list.
pub fn foreign_document() -> (Tree, LabelTable) {
    let mut rng = StdRng::seed_from_u64(0x0F0E_16E4);
    let mut labels = LabelTable::new();
    let tree = tagged_xmark(&mut rng, &mut labels, 90, "foreign");
    (tree, labels)
}

/// Order-sensitive 64-bit digest (FNV-1a over 64-bit words, then one
/// avalanche round).
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^ (x >> 33)
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let a = skewed(1, 60, 400);
        let b = skewed(1, 60, 400);
        let c = skewed(2, 60, 400);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.small, 58);
        // `xmark` lands within a few percent of the requested size.
        assert!(a.docs[..58]
            .iter()
            .all(|t| (40..140).contains(&t.node_count())));
        assert!(a.docs[59].node_count() > 300);
    }

    #[test]
    fn queries_stay_in_the_base_vocabulary() {
        let corpus = skewed(3, 30, 400);
        let mut rng = StdRng::seed_from_u64(9);
        let base = &corpus.docs[0];
        let q = query_variant(&mut rng, base);
        let alphabet = alphabet_of(base);
        assert!(alphabet_of(&q).iter().all(|l| alphabet.contains(l)));
        q.validate().expect("edited tree stays valid");
    }
}
