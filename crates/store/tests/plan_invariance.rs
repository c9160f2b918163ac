//! Plan invariance: the probe phase may get cheaper, the plan may not move.
//!
//! A fixed corpus (own splitmix64, no `rand` — the numbers must not depend
//! on which generator the build links) is loaded into a single-file store
//! and into a segmented store spread over memtable + 2 segments + main,
//! and the full [`LookupStats`] of a fixed query set are pinned for
//! τ ∈ {0.6, 0.8, 1.2} and top-k 10. The pinned lines were captured on the
//! commit *before* the probe pipeline was rebuilt (integer size window,
//! one directory visit per gram, residency-validated blocks decoded in
//! place): every counter — rows, grams, candidates, verifications, budget
//! skips, window prunes, block decodes and skips, bytes, false-positive
//! probes, per-source rows — must come out identical, because that change
//! altered what a probe costs, never what it reads.
//!
//! On a deliberate plan change, run with `--nocapture`: the failure prints
//! the actual lines in the format of [`PINNED`].

use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::{FaultVfs, IndexStore, LookupStats, SegmentedIndexStore, Vfs};
use pqgram_tree::{LabelTable, Tree};
use std::path::Path;
use std::sync::Arc;

/// splitmix64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % u64::try_from(n.max(1)).unwrap_or(1)).unwrap_or(0)
    }
}

/// A tree as `(parent position, label number)` per non-root node, so a
/// query variant is the same shape with a few labels changed.
type Spec = Vec<(usize, usize)>;

/// Nodes of the skeleton every document starts with (XMark-style shared
/// structure): its grams sit in every tree, so their posting lists are
/// long enough to form blocks and to be worth budget-skipping.
const SKELETON: usize = 24;

/// A family base: the shared skeleton, then skewed shape and vocabulary —
/// parents near the tail (deep, narrow runs), labels biased toward a
/// shared head.
fn spec(rng: &mut Rng, nodes: usize, vocab: usize) -> Spec {
    (1..nodes)
        .map(|i| {
            if i < SKELETON {
                return ((i - 1) / 2, 100 + i % 5);
            }
            let parent = i - 1 - rng.below(6);
            let label = rng.below(vocab).min(rng.below(vocab));
            (parent, label)
        })
        .collect()
}

/// A family member: the base cut to `nodes` with about one label in
/// `every` redrawn.
fn member(rng: &mut Rng, base: &Spec, nodes: usize, every: usize, vocab: usize) -> Spec {
    base.iter()
        .take(nodes.max(SKELETON))
        .enumerate()
        .map(|(i, &(p, l))| {
            if i >= SKELETON && rng.below(every) == 0 {
                (p, rng.below(vocab))
            } else {
                (p, l)
            }
        })
        .collect()
}

fn index_of(lt: &mut LabelTable, spec: &Spec, params: PQParams) -> TreeIndex {
    let mut tree = Tree::with_root(lt.intern("root"));
    let mut ids = vec![tree.root()];
    for &(parent, label) in spec {
        ids.push(tree.add_child(ids[parent], lt.intern(&format!("l{label}"))));
    }
    build_index(&tree, lt, params)
}

/// `spec` with every `stride`-th label moved to a fresh vocabulary.
fn variant(spec: &Spec, stride: usize) -> Spec {
    spec.iter()
        .enumerate()
        .map(|(i, &(p, l))| {
            if i % stride == 0 {
                (p, l + 1000)
            } else {
                (p, l)
            }
        })
        .collect()
}

struct Corpus {
    params: PQParams,
    /// `(id, index)` in write order; later entries overwrite earlier ones.
    writes: Vec<(u64, TreeIndex)>,
    queries: Vec<TreeIndex>,
}

fn corpus() -> Corpus {
    let params = PQParams::default();
    let mut rng = Rng(0x1ee7_c0de);
    let mut lt = LabelTable::new();
    let bases: Vec<Spec> = (0..9).map(|_| spec(&mut rng, 400, 10)).collect();
    let mut specs: Vec<Spec> = Vec::new();
    for i in 0..700usize {
        let nodes = match i % 17 {
            0 => 260 + rng.below(120),
            1..=4 => 26 + rng.below(12),
            _ => 40 + rng.below(50),
        };
        specs.push(member(&mut rng, &bases[i % bases.len()], nodes, 7, 10));
    }
    let mut writes: Vec<(u64, TreeIndex)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, index_of(&mut lt, s, params)))
        .collect();
    // Overwrites land in younger sources than the id they replace.
    for (id, stride) in [(5u64, 3usize), (17, 2), (40, 5), (6, 4), (405, 3), (8, 2)] {
        let s = variant(&specs[id as usize], stride);
        writes.push((id, index_of(&mut lt, &s, params)));
    }
    let queries = [(0usize, 9usize), (34, 4), (3, 2), (450, 6)]
        .iter()
        .map(|&(of, stride)| index_of(&mut lt, &variant(&specs[of], stride), params))
        .collect();
    Corpus {
        params,
        writes,
        queries,
    }
}

/// The segmented layout: ids `0..400` compacted into main, two flushed
/// segments carrying new ids plus overwrites and a tombstone each, and a
/// live memtable with one more overwrite and tombstone.
fn segmented(c: &Corpus, vfs: Arc<dyn Vfs>) -> SegmentedIndexStore {
    let mut store =
        SegmentedIndexStore::create_with(Path::new("/plan/seg"), c.params, vfs).unwrap();
    store.set_flush_threshold(u64::MAX);
    let put = |store: &mut SegmentedIndexStore, range: std::ops::Range<usize>| {
        for (id, index) in &c.writes[range] {
            store.put_tree(TreeId(*id), index).unwrap();
        }
    };
    put(&mut store, 0..400);
    store.compact().unwrap();
    put(&mut store, 400..520);
    put(&mut store, 700..703);
    store.remove_tree(TreeId(7)).unwrap();
    store.flush().unwrap();
    put(&mut store, 520..640);
    put(&mut store, 703..705);
    store.remove_tree(TreeId(401)).unwrap();
    store.flush().unwrap();
    put(&mut store, 640..700);
    put(&mut store, 705..706);
    store.remove_tree(TreeId(521)).unwrap();
    assert_eq!(store.segment_count(), 2);
    assert!(store.pending_entries() > 0, "the memtable must be live");
    store
}

/// A single file bulk-loaded with the same merged forest.
fn single(c: &Corpus, vfs: Arc<dyn Vfs>) -> IndexStore {
    let mut latest: std::collections::BTreeMap<u64, &TreeIndex> = std::collections::BTreeMap::new();
    for (id, index) in &c.writes {
        latest.insert(*id, index);
    }
    for gone in [7u64, 401, 521] {
        latest.remove(&gone);
    }
    let forest = latest.iter().map(|(&id, &index)| (TreeId(id), index));
    IndexStore::bulk_create_with(Path::new("/plan/single"), c.params, forest, vfs).unwrap()
}

fn line(store: &str, mode: &str, q: usize, s: &LookupStats) -> String {
    format!(
        "{store} {mode} q{q}: rows_read={} grams_probed={} candidates={} verified={} hits={} \
         skipped_budget={} skipped_filter={} pruned_window={} blocks_decoded={} blocks_skipped={} \
         bytes_decoded={} false_positive={} by_source={:?}",
        s.rows_read,
        s.grams_probed,
        s.candidates,
        s.verified,
        s.hits,
        s.grams_skipped_budget,
        s.grams_skipped_filter,
        s.rows_pruned_window,
        s.blocks_decoded,
        s.blocks_skipped,
        s.bytes_decoded,
        s.filter_false_positive_probes,
        s.by_source,
    )
}

#[test]
fn lookup_stats_are_pinned_to_the_pre_rebuild_plan() {
    let c = corpus();
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
    let one = single(&c, Arc::clone(&vfs));
    let seg = segmented(&c, vfs);
    one.verify().unwrap();
    seg.verify().unwrap();
    let mut lines = Vec::new();
    for (q, query) in c.queries.iter().enumerate() {
        for tau in [0.6, 0.8, 1.2] {
            let (a, sa) = one.lookup_with_stats(query, tau).unwrap();
            let (b, sb) = seg.lookup_with_stats(query, tau).unwrap();
            assert_eq!(a, b, "q{q} tau {tau}: layouts must answer identically");
            lines.push(line("single", &format!("tau={tau}"), q, &sa));
            lines.push(line("segmented", &format!("tau={tau}"), q, &sb));
        }
        let (a, sa) = one.lookup_top_k_with_stats(query, 10).unwrap();
        let (b, sb) = seg.lookup_top_k_with_stats(query, 10).unwrap();
        assert_eq!(a, b, "q{q} top-10: layouts must answer identically");
        lines.push(line("single", "top10", q, &sa));
        lines.push(line("segmented", "top10", q, &sb));
    }
    let actual = lines.join("\n");
    assert!(
        actual == PINNED.trim(),
        "LookupStats moved off the pinned plan; actual lines:\n{actual}"
    );
}

/// The four phase clocks charge every lap of a call to exactly one phase,
/// so together they account for the call's wall time.
#[test]
fn phase_clocks_add_up_to_the_wall_time_of_the_call() {
    use std::time::{Duration, Instant};
    let c = corpus();
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
    let one = single(&c, Arc::clone(&vfs));
    let seg = segmented(&c, vfs);
    let (mut wall, mut phases) = (Duration::ZERO, LookupStats::default().phases);
    let mut add = |wall_of_call: Duration, s: LookupStats| {
        wall += wall_of_call;
        phases.plan += s.phases.plan;
        phases.probe += s.phases.probe;
        phases.verify += s.phases.verify;
        phases.sort += s.phases.sort;
    };
    for _ in 0..10 {
        for query in &c.queries {
            let t = Instant::now();
            let (_, s) = one.lookup_with_stats(query, 0.8).unwrap();
            add(t.elapsed(), s);
            let t = Instant::now();
            let (_, s) = seg.lookup_with_stats(query, 1.2).unwrap();
            add(t.elapsed(), s);
            let t = Instant::now();
            let (_, s) = seg.lookup_top_k_with_stats(query, 10).unwrap();
            add(t.elapsed(), s);
        }
    }
    let (total, wall) = (phases.total().as_secs_f64(), wall.as_secs_f64());
    assert!(
        total <= wall && total >= 0.95 * wall,
        "phases sum to {total:.6} s of {wall:.6} s wall"
    );
    for (name, d) in [
        ("plan", phases.plan),
        ("probe", phases.probe),
        ("verify", phases.verify),
    ] {
        assert!(d > Duration::ZERO, "phase {name} was never charged");
    }
}

/// Captured on the parent commit of the probe-pipeline rebuild.
const PINNED: &str = "
single tau=0.6 q0: rows_read=5887 grams_probed=450 candidates=233 verified=3 hits=1 skipped_budget=23 skipped_filter=253 pruned_window=1959 blocks_decoded=281 blocks_skipped=2 bytes_decoded=246824 false_positive=0 by_source=[(18446744073709551615, 5887)]
segmented tau=0.6 q0: rows_read=16253 grams_probed=1045 candidates=273 verified=30 hits=1 skipped_budget=10 skipped_filter=1123 pruned_window=8885 blocks_decoded=391 blocks_skipped=5 bytes_decoded=388785 false_positive=0 by_source=[(18446744073709551614, 0), (2, 3753), (1, 3673), (18446744073709551615, 8827)]
single tau=0.8 q0: rows_read=21781 grams_probed=473 candidates=616 verified=17 hits=8 skipped_budget=0 skipped_filter=253 pruned_window=1929 blocks_decoded=365 blocks_skipped=2 bytes_decoded=291020 false_positive=0 by_source=[(18446744073709551615, 21781)]
segmented tau=0.8 q0: rows_read=20236 grams_probed=1055 candidates=623 verified=70 hits=8 skipped_budget=0 skipped_filter=1123 pruned_window=1761 blocks_decoded=421 blocks_skipped=5 bytes_decoded=408639 false_positive=0 by_source=[(18446744073709551614, 0), (2, 3754), (1, 3676), (18446744073709551615, 12806)]
single tau=1.2 q0: rows_read=22461 grams_probed=473 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=253 pruned_window=0 blocks_decoded=341 blocks_skipped=2 bytes_decoded=273716 false_positive=0 by_source=[(18446744073709551615, 22461)]
segmented tau=1.2 q0: rows_read=20856 grams_probed=1055 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=1123 pruned_window=0 blocks_decoded=405 blocks_skipped=5 bytes_decoded=395161 false_positive=0 by_source=[(18446744073709551614, 0), (2, 3874), (1, 3794), (18446744073709551615, 13188)]
single top10 q0: rows_read=21784 grams_probed=473 candidates=697 verified=20 hits=10 skipped_budget=0 skipped_filter=253 pruned_window=0 blocks_decoded=341 blocks_skipped=2 bytes_decoded=273716 false_positive=0 by_source=[(18446744073709551615, 21784)]
segmented top10 q0: rows_read=20251 grams_probed=1055 candidates=697 verified=92 hits=10 skipped_budget=0 skipped_filter=1123 pruned_window=0 blocks_decoded=421 blocks_skipped=5 bytes_decoded=408639 false_positive=0 by_source=[(18446744073709551614, 0), (2, 3765), (1, 3678), (18446744073709551615, 12808)]
single tau=0.6 q1: rows_read=2922 grams_probed=252 candidates=118 verified=0 hits=0 skipped_budget=7 skipped_filter=586 pruned_window=1627 blocks_decoded=194 blocks_skipped=0 bytes_decoded=171736 false_positive=0 by_source=[(18446744073709551615, 2922)]
segmented tau=0.6 q1: rows_read=6388 grams_probed=474 candidates=180 verified=15 hits=0 skipped_budget=2 skipped_filter=2059 pruned_window=4461 blocks_decoded=286 blocks_skipped=0 bytes_decoded=288852 false_positive=0 by_source=[(18446744073709551614, 0), (2, 1363), (1, 1376), (18446744073709551615, 3649)]
single tau=0.8 q1: rows_read=7788 grams_probed=259 candidates=554 verified=1 hits=1 skipped_budget=0 skipped_filter=586 pruned_window=1093 blocks_decoded=219 blocks_skipped=0 bytes_decoded=184636 false_positive=0 by_source=[(18446744073709551615, 7788)]
segmented tau=0.8 q1: rows_read=7189 grams_probed=476 candidates=568 verified=48 hits=1 skipped_budget=0 skipped_filter=2059 pruned_window=983 blocks_decoded=292 blocks_skipped=0 bytes_decoded=293043 false_positive=0 by_source=[(18446744073709551614, 0), (2, 1363), (1, 1376), (18446744073709551615, 4450)]
single tau=1.2 q1: rows_read=8484 grams_probed=259 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=586 pruned_window=0 blocks_decoded=214 blocks_skipped=0 bytes_decoded=180551 false_positive=0 by_source=[(18446744073709551615, 8484)]
segmented tau=1.2 q1: rows_read=7824 grams_probed=476 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=2059 pruned_window=0 blocks_decoded=289 blocks_skipped=0 bytes_decoded=290236 false_positive=0 by_source=[(18446744073709551614, 0), (2, 1484), (1, 1497), (18446744073709551615, 4843)]
single top10 q1: rows_read=7805 grams_probed=259 candidates=697 verified=18 hits=10 skipped_budget=0 skipped_filter=586 pruned_window=0 blocks_decoded=214 blocks_skipped=0 bytes_decoded=180551 false_positive=0 by_source=[(18446744073709551615, 7805)]
segmented top10 q1: rows_read=7215 grams_probed=476 candidates=697 verified=88 hits=10 skipped_budget=0 skipped_filter=2059 pruned_window=0 blocks_decoded=292 blocks_skipped=0 bytes_decoded=293043 false_positive=0 by_source=[(18446744073709551614, 0), (2, 1372), (1, 1383), (18446744073709551615, 4460)]
single tau=0.6 q2: rows_read=326 grams_probed=54 candidates=163 verified=2 hits=1 skipped_budget=4 skipped_filter=10 pruned_window=59 blocks_decoded=51 blocks_skipped=0 bytes_decoded=44365 false_positive=0 by_source=[(18446744073709551615, 326)]
segmented tau=0.6 q2: rows_read=2830 grams_probed=90 candidates=659 verified=58 hits=1 skipped_budget=0 skipped_filter=114 pruned_window=210 blocks_decoded=82 blocks_skipped=0 bytes_decoded=87382 false_positive=0 by_source=[(18446744073709551614, 0), (2, 544), (1, 590), (18446744073709551615, 1696)]
single tau=0.8 q2: rows_read=341 grams_probed=54 candidates=163 verified=5 hits=2 skipped_budget=4 skipped_filter=10 pruned_window=59 blocks_decoded=51 blocks_skipped=0 bytes_decoded=44365 false_positive=0 by_source=[(18446744073709551615, 341)]
segmented tau=0.8 q2: rows_read=2833 grams_probed=90 candidates=659 verified=61 hits=2 skipped_budget=0 skipped_filter=114 pruned_window=210 blocks_decoded=82 blocks_skipped=0 bytes_decoded=87382 false_positive=0 by_source=[(18446744073709551614, 0), (2, 545), (1, 592), (18446744073709551615, 1696)]
single tau=1.2 q2: rows_read=3798 grams_probed=58 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=10 pruned_window=0 blocks_decoded=65 blocks_skipped=0 bytes_decoded=51292 false_positive=0 by_source=[(18446744073709551615, 3798)]
segmented tau=1.2 q2: rows_read=3465 grams_probed=90 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=114 pruned_window=0 blocks_decoded=82 blocks_skipped=0 bytes_decoded=87382 false_positive=0 by_source=[(18446744073709551614, 0), (2, 664), (1, 711), (18446744073709551615, 2090)]
single top10 q2: rows_read=3798 grams_probed=58 candidates=697 verified=697 hits=10 skipped_budget=0 skipped_filter=10 pruned_window=0 blocks_decoded=65 blocks_skipped=0 bytes_decoded=51292 false_positive=0 by_source=[(18446744073709551615, 3798)]
segmented top10 q2: rows_read=3465 grams_probed=90 candidates=697 verified=697 hits=10 skipped_budget=0 skipped_filter=114 pruned_window=0 blocks_decoded=82 blocks_skipped=0 bytes_decoded=87382 false_positive=0 by_source=[(18446744073709551614, 0), (2, 664), (1, 711), (18446744073709551615, 2090)]
single tau=0.6 q3: rows_read=2953 grams_probed=98 candidates=259 verified=44 hits=1 skipped_budget=18 skipped_filter=35 pruned_window=200 blocks_decoded=91 blocks_skipped=1 bytes_decoded=79277 false_positive=0 by_source=[(18446744073709551615, 2953)]
segmented tau=0.6 q3: rows_read=13356 grams_probed=263 candidates=659 verified=98 hits=1 skipped_budget=0 skipped_filter=190 pruned_window=856 blocks_decoded=223 blocks_skipped=1 bytes_decoded=217961 false_positive=1 by_source=[(18446744073709551614, 0), (2, 2581), (1, 2523), (18446744073709551615, 8252)]
single tau=0.8 q3: rows_read=15072 grams_probed=116 candidates=697 verified=695 hits=67 skipped_budget=0 skipped_filter=35 pruned_window=0 blocks_decoded=156 blocks_skipped=1 bytes_decoded=113374 false_positive=0 by_source=[(18446744073709551615, 15072)]
segmented tau=0.8 q3: rows_read=13950 grams_probed=263 candidates=697 verified=696 hits=67 skipped_budget=0 skipped_filter=190 pruned_window=0 blocks_decoded=223 blocks_skipped=1 bytes_decoded=217961 false_positive=1 by_source=[(18446744073709551614, 0), (2, 2691), (1, 2640), (18446744073709551615, 8619)]
single tau=1.2 q3: rows_read=15074 grams_probed=116 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=35 pruned_window=0 blocks_decoded=154 blocks_skipped=1 bytes_decoded=111438 false_positive=0 by_source=[(18446744073709551615, 15074)]
segmented tau=1.2 q3: rows_read=13951 grams_probed=263 candidates=697 verified=697 hits=697 skipped_budget=0 skipped_filter=190 pruned_window=0 blocks_decoded=221 blocks_skipped=1 bytes_decoded=216609 false_positive=1 by_source=[(18446744073709551614, 0), (2, 2691), (1, 2641), (18446744073709551615, 8619)]
single top10 q3: rows_read=14446 grams_probed=116 candidates=697 verified=68 hits=10 skipped_budget=0 skipped_filter=35 pruned_window=0 blocks_decoded=154 blocks_skipped=1 bytes_decoded=111438 false_positive=0 by_source=[(18446744073709551615, 14446)]
segmented top10 q3: rows_read=13378 grams_probed=263 candidates=682 verified=123 hits=10 skipped_budget=0 skipped_filter=190 pruned_window=340 blocks_decoded=223 blocks_skipped=1 bytes_decoded=217961 false_positive=1 by_source=[(18446744073709551614, 0), (2, 2585), (1, 2532), (18446744073709551615, 8261)]
";
