//! Workload generators — substitutes for the paper's datasets.
//!
//! The paper evaluates on synthetic XML produced by `xmlgen` (the XMark
//! benchmark) and on the DBLP bibliography (211 MB, 11 M nodes). Neither is
//! shipped here, so this module generates documents with the same *shape
//! statistics* the experiments depend on — label hierarchy, fanout skew and
//! value-vocabulary reuse — at laptop-friendly scales:
//!
//! * [`random_tree`] — uniform random recursive trees for property tests;
//! * [`xmark`] — XMark-schema-shaped auction documents;
//! * [`dblp`] — DBLP-schema-shaped bibliography documents.

use crate::label::{LabelSym, LabelTable};
use crate::tree::{NodeId, Tree};
use rand::seq::IndexedRandom;
use rand::Rng;

/// Configuration for [`random_tree`].
#[derive(Clone, Debug)]
pub struct RandomTreeConfig {
    /// Total number of nodes (≥ 1).
    pub nodes: usize,
    /// Number of distinct labels to intern/draw (≥ 1).
    pub alphabet: usize,
    /// Prefix for generated label names (so multiple generators can share a
    /// [`LabelTable`] without colliding).
    pub label_prefix: &'static str,
}

impl RandomTreeConfig {
    /// `nodes` nodes over `alphabet` distinct labels.
    pub fn new(nodes: usize, alphabet: usize) -> Self {
        RandomTreeConfig {
            nodes,
            alphabet,
            label_prefix: "l",
        }
    }
}

/// Generates a uniform random recursive tree: each new node attaches to a
/// uniformly chosen existing node. Expected depth is `O(log n)`, fanout is
/// skewed — a reasonable stand-in for document trees in property tests.
pub fn random_tree<R: Rng + ?Sized>(
    rng: &mut R,
    labels: &mut LabelTable,
    cfg: &RandomTreeConfig,
) -> Tree {
    assert!(
        cfg.nodes >= 1 && cfg.alphabet >= 1,
        "a tree needs a node and a label"
    );
    let alphabet: Vec<LabelSym> = (0..cfg.alphabet)
        .map(|i| labels.intern(&format!("{}{}", cfg.label_prefix, i)))
        .collect();
    let mut tree = Tree::with_root(alphabet[0]);
    let mut nodes: Vec<NodeId> = Vec::with_capacity(cfg.nodes);
    nodes.push(tree.root());
    while nodes.len() < cfg.nodes {
        let (Some(&parent), Some(&label)) = (nodes.choose(rng), alphabet.choose(rng)) else {
            break;
        };
        nodes.push(tree.add_child(parent, label));
    }
    tree
}

/// Adds `tag(value)` under `parent`: an element node with a single value
/// leaf. Returns the element node.
fn kv(t: &mut Tree, parent: NodeId, tag: LabelSym, value: LabelSym) -> NodeId {
    let e = t.add_child(parent, tag);
    t.add_child(e, value);
    e
}

/// A Zipf-ish sampler over a word vocabulary: word `i` is drawn with weight
/// `1 / (i + 1)`. Reused values create duplicate pq-grams, which drives the
/// sublinear index growth of Figure 14 (left).
struct Vocabulary {
    words: Vec<LabelSym>,
    /// Cumulative weights scaled to u32 for cheap sampling.
    cumulative: Vec<f64>,
}

impl Vocabulary {
    fn new(labels: &mut LabelTable, prefix: &str, size: usize) -> Self {
        let words: Vec<LabelSym> = (0..size)
            .map(|i| labels.intern(&format!("{prefix}{i}")))
            .collect();
        let mut cumulative = Vec::with_capacity(size);
        let mut acc = 0.0f64;
        for i in 0..size {
            acc += 1.0 / (i as f64 + 1.0);
            cumulative.push(acc);
        }
        Vocabulary { words, cumulative }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> LabelSym {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.random_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c < x);
        self.words[idx.min(self.words.len() - 1)]
    }
}

/// Generates an XMark-shaped auction site document with roughly
/// `target_nodes` nodes (the actual count lands within a few percent).
///
/// Shape: `site(regions(africa…(item*)) people(person*) open_auctions(…)
/// closed_auctions(…))`, with items, persons and auctions replicated until
/// the node budget is exhausted. Value leaves draw from Zipf vocabularies.
pub fn xmark<R: Rng + ?Sized>(rng: &mut R, labels: &mut LabelTable, target_nodes: usize) -> Tree {
    let s = |labels: &mut LabelTable, n: &str| labels.intern(n);
    let site = s(labels, "site");
    let regions = s(labels, "regions");
    let region_names: Vec<LabelSym> = [
        "africa",
        "asia",
        "australia",
        "europe",
        "namerica",
        "samerica",
    ]
    .iter()
    .map(|r| s(labels, r))
    .collect();
    let item = s(labels, "item");
    let location = s(labels, "location");
    let quantity = s(labels, "quantity");
    let name = s(labels, "name");
    let payment = s(labels, "payment");
    let description = s(labels, "description");
    let text = s(labels, "text");
    let shipping = s(labels, "shipping");
    let incategory = s(labels, "incategory");
    let people = s(labels, "people");
    let person = s(labels, "person");
    let emailaddress = s(labels, "emailaddress");
    let phone = s(labels, "phone");
    let address = s(labels, "address");
    let street = s(labels, "street");
    let city = s(labels, "city");
    let country = s(labels, "country");
    let zipcode = s(labels, "zipcode");
    let profile = s(labels, "profile");
    let interest = s(labels, "interest");
    let open_auctions = s(labels, "open_auctions");
    let open_auction = s(labels, "open_auction");
    let initial = s(labels, "initial");
    let bidder = s(labels, "bidder");
    let date = s(labels, "date");
    let time = s(labels, "time");
    let increase = s(labels, "increase");
    let current = s(labels, "current");
    let itemref = s(labels, "itemref");
    let seller = s(labels, "seller");
    let closed_auctions = s(labels, "closed_auctions");
    let closed_auction = s(labels, "closed_auction");
    let price = s(labels, "price");
    let buyer = s(labels, "buyer");

    let words = Vocabulary::new(labels, "w", 500);
    let numbers = Vocabulary::new(labels, "num", 200);
    let names = Vocabulary::new(labels, "pname", 300);
    let cats = Vocabulary::new(labels, "cat", 50);

    let mut t = Tree::with_root(site);
    let root = t.root();
    let regions_n = t.add_child(root, regions);
    let region_nodes: Vec<NodeId> = region_names
        .iter()
        .map(|&r| t.add_child(regions_n, r))
        .collect();
    let people_n = t.add_child(root, people);
    let open_n = t.add_child(root, open_auctions);
    let closed_n = t.add_child(root, closed_auctions);

    // One "round" adds one item, one person and (every other round) one
    // auction; loop until the budget is spent.
    let mut round = 0usize;
    while t.node_count() + 16 < target_nodes {
        round += 1;
        // Item under a random region.
        let Some(&region) = region_nodes.choose(rng) else {
            break;
        };
        let it = t.add_child(region, item);
        kv(&mut t, it, location, country);
        kv(&mut t, it, quantity, numbers.sample(rng));
        kv(&mut t, it, name, words.sample(rng));
        kv(&mut t, it, payment, words.sample(rng));
        let desc = t.add_child(it, description);
        let txt = t.add_child(desc, text);
        for _ in 0..rng.random_range(1..=4) {
            t.add_child(txt, words.sample(rng));
        }
        if rng.random_bool(0.6) {
            t.add_child(it, shipping);
        }
        for _ in 0..rng.random_range(1..=3) {
            kv(&mut t, it, incategory, cats.sample(rng));
        }

        if t.node_count() + 14 >= target_nodes {
            break;
        }
        // Person.
        let p = t.add_child(people_n, person);
        kv(&mut t, p, name, names.sample(rng));
        kv(&mut t, p, emailaddress, names.sample(rng));
        if rng.random_bool(0.5) {
            kv(&mut t, p, phone, numbers.sample(rng));
        }
        if rng.random_bool(0.4) {
            let a = t.add_child(p, address);
            kv(&mut t, a, street, words.sample(rng));
            kv(&mut t, a, city, words.sample(rng));
            kv(&mut t, a, country, words.sample(rng));
            kv(&mut t, a, zipcode, numbers.sample(rng));
        }
        if rng.random_bool(0.5) {
            let pr = t.add_child(p, profile);
            for _ in 0..rng.random_range(0..=3) {
                kv(&mut t, pr, interest, cats.sample(rng));
            }
        }

        if t.node_count() + 18 >= target_nodes {
            break;
        }
        // Auctions.
        if round.is_multiple_of(2) {
            let a = t.add_child(open_n, open_auction);
            kv(&mut t, a, initial, numbers.sample(rng));
            for _ in 0..rng.random_range(0..=4) {
                let b = t.add_child(a, bidder);
                kv(&mut t, b, date, numbers.sample(rng));
                kv(&mut t, b, time, numbers.sample(rng));
                kv(&mut t, b, increase, numbers.sample(rng));
            }
            kv(&mut t, a, current, numbers.sample(rng));
            t.add_child(a, itemref);
            kv(&mut t, a, seller, names.sample(rng));
        } else {
            let a = t.add_child(closed_n, closed_auction);
            kv(&mut t, a, seller, names.sample(rng));
            kv(&mut t, a, buyer, names.sample(rng));
            t.add_child(a, itemref);
            kv(&mut t, a, price, numbers.sample(rng));
            kv(&mut t, a, date, numbers.sample(rng));
        }
    }
    t
}

/// Generates a DBLP-shaped bibliography with roughly `target_nodes` nodes.
///
/// Shape: `dblp(article|inproceedings*)`, each publication with `author+`,
/// `title`, `year`, venue, `pages`, `ee`, `url` children whose value leaves
/// draw from Zipf vocabularies (author names and venues repeat heavily, as
/// in the real DBLP).
pub fn dblp<R: Rng + ?Sized>(rng: &mut R, labels: &mut LabelTable, target_nodes: usize) -> Tree {
    let dblp = labels.intern("dblp");
    let article = labels.intern("article");
    let inproceedings = labels.intern("inproceedings");
    let author = labels.intern("author");
    let title = labels.intern("title");
    let year = labels.intern("year");
    let journal = labels.intern("journal");
    let booktitle = labels.intern("booktitle");
    let pages = labels.intern("pages");
    let ee = labels.intern("ee");
    let url = labels.intern("url");

    let authors = Vocabulary::new(labels, "auth", 1_000);
    let titlewords = Vocabulary::new(labels, "tw", 1_500);
    let venues = Vocabulary::new(labels, "venue", 120);
    let years: Vec<LabelSym> = (1960..2007)
        .map(|y| labels.intern(&y.to_string()))
        .collect();
    let pageranges = Vocabulary::new(labels, "pp", 600);
    let urls = Vocabulary::new(labels, "u", 800);

    let mut t = Tree::with_root(dblp);
    let root = t.root();
    while t.node_count() + 24 < target_nodes {
        let is_article = rng.random_bool(0.45);
        let pub_n = t.add_child(root, if is_article { article } else { inproceedings });
        for _ in 0..rng.random_range(1..=4) {
            kv(&mut t, pub_n, author, authors.sample(rng));
        }
        let ti = t.add_child(pub_n, title);
        for _ in 0..rng.random_range(3..=8) {
            t.add_child(ti, titlewords.sample(rng));
        }
        let Some(&y) = years.choose(rng) else {
            break;
        };
        kv(&mut t, pub_n, year, y);
        let venue_tag = if is_article { journal } else { booktitle };
        kv(&mut t, pub_n, venue_tag, venues.sample(rng));
        kv(&mut t, pub_n, pages, pageranges.sample(rng));
        if rng.random_bool(0.8) {
            kv(&mut t, pub_n, ee, urls.sample(rng));
        }
        if rng.random_bool(0.3) {
            kv(&mut t, pub_n, url, urls.sample(rng));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = LabelTable::new();
        for n in [1, 2, 10, 500] {
            let t = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(n, 4));
            assert_eq!(t.node_count(), n);
            t.validate().unwrap();
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut lt = LabelTable::new();
            random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(100, 5))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn xmark_lands_near_target() {
        // The generator stops adding records once the next one might not
        // fit, guarding each kind by less than its largest instance (an
        // open auction with four bidders is 36 nodes behind a guard of 18).
        // So, for *any* random stream, it ends less than one record away
        // from the target on either side (and so above 0.8 × target).
        const RECORD: usize = 18;
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lt = LabelTable::new();
            for target in [200usize, 2_000, 20_000] {
                let t = xmark(&mut rng, &mut lt, target);
                t.validate().unwrap();
                let n = t.node_count();
                assert!(n < target + RECORD, "seed {seed}: overshoot {n} > {target}");
                assert!(
                    n + RECORD >= target,
                    "seed {seed}: stopped early, {n} < {target}"
                );
            }
        }
    }

    #[test]
    fn xmark_has_schema_roots() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lt = LabelTable::new();
        let t = xmark(&mut rng, &mut lt, 1_000);
        assert_eq!(lt.name(t.label(t.root())), "site");
        let top: Vec<&str> = t
            .children(t.root())
            .iter()
            .map(|&c| lt.name(t.label(c)))
            .collect();
        assert_eq!(
            top,
            vec!["regions", "people", "open_auctions", "closed_auctions"]
        );
    }

    #[test]
    fn dblp_lands_near_target_and_reuses_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lt = LabelTable::new();
        let t = dblp(&mut rng, &mut lt, 50_000);
        t.validate().unwrap();
        let n = t.node_count();
        assert!(n <= 50_000 && n * 10 >= 8 * 50_000);
        // Zipf reuse: far fewer distinct labels than nodes.
        assert!(lt.len() < n / 3, "labels {} vs nodes {n}", lt.len());
    }

    #[test]
    fn vocabulary_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lt = LabelTable::new();
        let v = Vocabulary::new(&mut lt, "w", 100);
        let first = v.words[0];
        let hits = (0..10_000).filter(|_| v.sample(&mut rng) == first).count();
        // Weight of rank 0 is 1/H(100) ≈ 0.19.
        assert!(hits > 1_000, "rank-0 sampled only {hits}/10000 times");
    }
}
