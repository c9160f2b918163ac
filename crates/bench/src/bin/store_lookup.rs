//! `store-lookup` experiment: exhaustive forward-relation scan vs. the
//! planned inverted candidate-merge of the persistent store.
//!
//! ```sh
//! cargo run --release -p pqgram-bench --bin store_lookup            # full
//! cargo run --release -p pqgram-bench --bin store_lookup -- --smoke # CI
//! ```
//!
//! Builds forests of {16, 125, 1000, 10000} XMark documents (plus a
//! 100000-document row in full mode), stores them in an [`IndexStore`],
//! and looks up a locally edited variant of one member with both plans.
//! Document sizes are skewed, as
//! in real collections: ~4% of the documents are large and carry most of
//! the nodes, the rest are small. Content vocabularies are diversified
//! the way real corpora are: the query document shares its labels with a
//! small cluster of peers, every other small document draws from a
//! cluster-local vocabulary, and all documents overlap on a handful of
//! shared scaffold grams (see `tagged_xmark_tree`). The scan plan pays
//! for every row of every document; the planned merge budget-skips the
//! scaffold grams and verifies only the query's cluster. Emits
//! `bench_results/store_lookup.csv` and `BENCH_store_lookup.json` (repo
//! root) and asserts the acceptance criteria: both plans return identical
//! hits at every cardinality; `τ > 1` thresholds run the same
//! candidate-merge plan bit-identically to the exhaustive reference; at
//! ≥1000 documents the planned merge reads ≥10× fewer rows than the scan
//! and wins on wall clock.

use pqgram_bench::datasets::tagged_xmark_tree;
use pqgram_bench::experiments::query_variant;
use pqgram_bench::report::Table;
use pqgram_core::{build_index, ForestIndex, PQParams, TreeId};
use pqgram_store::fuzz::lookup_exhaustive_with_stats;
use pqgram_store::{IndexStore, LookupPlan};
use pqgram_tree::{LabelTable, Tree};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TAU: f64 = 0.8;
/// Thresholds above 1: the planner must run the same candidate-merge
/// plan (zero-overlap trees come from the totals relation, there is no
/// exhaustive fallback) and agree with the reference scan bit for bit.
const WIDE_TAUS: [f64; 2] = [1.2, 2.0];
const SMOKE_COUNTS: [usize; 4] = [16, 125, 1_000, 10_000];
const FULL_COUNTS: [usize; 5] = [16, 125, 1_000, 10_000, 100_000];
/// Documents sharing the query's vocabulary (the expected hit cluster).
const QUERY_CLUSTER: usize = 8;
/// Vocabulary-cluster size for every other small document.
const CLUSTER: usize = 100;

struct Row {
    trees: usize,
    nodes_total: usize,
    hits: usize,
    scan_rows: u64,
    inv_rows: u64,
    row_ratio: f64,
    scan_ms: f64,
    inv_ms: f64,
    speedup: f64,
    /// Inverted relation on disk (directory plus posting blocks).
    inv_bytes: u64,
    blocks_decoded: u64,
    /// Candidates whose distance the planned merge computed.
    verified: usize,
    /// Planned-merge pruning stats: posting rows dropped by the size
    /// window, query grams skipped on the overlap budget, query grams the
    /// gram filter proved absent.
    rows_pruned_window: u64,
    grams_skipped_budget: usize,
    grams_skipped_filter: usize,
}

/// Median-of-`reps` wall time for one lookup closure.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    let mut result = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        result = Some(f());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    (result.unwrap(), times[times.len() / 2])
}

/// The vocabulary tag of document `i`: the first [`QUERY_CLUSTER`]
/// documents share the query's tag, every later document belongs to a
/// [`CLUSTER`]-sized cluster with its own tag. Large documents get the
/// shared tag `big`: they are the collection's byte mass, and a common
/// vocabulary among them keeps the posting lists that dominate the
/// inverted relation long.
fn doc_tag(i: usize, small: usize) -> String {
    if i >= small {
        "big".to_owned()
    } else if i < QUERY_CLUSTER {
        "q".to_owned()
    } else {
        format!("g{}", (i - QUERY_CLUSTER) / CLUSTER)
    }
}

/// The skewed forest: `count` documents, ~4% of them large (splitting
/// `big_pool` nodes between them), the rest small (splitting `small_pool`).
/// Small documents come first so `trees[0]` — the query's source — is
/// small and shares the `q` vocabulary tag with its cluster.
fn skewed_forest(
    count: usize,
    small_pool: usize,
    big_pool: usize,
    labels: &mut LabelTable,
) -> Vec<Tree> {
    let big = (count / 25).max(1);
    let small = count - big;
    // ≥ 56 nodes keeps the query's gram bag large enough that the overlap
    // budget (≈ bag/9 at τ = 0.8) covers every scaffold gram — about a
    // dozen once empty-hub pad windows and query-edit noise are counted.
    // One probed scaffold gram would surface the whole collection as
    // candidates, so the margin matters more than the exact pool split.
    let per_small = (small_pool / small).max(56);
    let per_big = big_pool / big;
    (0..count)
        .map(|i| {
            let nodes = if i < small { per_small } else { per_big };
            tagged_xmark_tree(2_000 + i as u64, labels, nodes, &doc_tag(i, small))
        })
        .collect()
}

fn run_count(
    count: usize,
    small_pool: usize,
    big_pool: usize,
    reps: usize,
    work_dir: &Path,
) -> Row {
    let params = PQParams::default();
    let mut labels = LabelTable::new();
    let trees = skewed_forest(count, small_pool, big_pool, &mut labels);
    let nodes_total: usize = trees.iter().map(Tree::node_count).sum();
    let query_tree = query_variant(&trees[0], &mut labels, 11);
    let query = build_index(&query_tree, &labels, params);

    let mut forest = ForestIndex::new();
    for (i, t) in trees.iter().enumerate() {
        forest.insert(TreeId(i as u64), build_index(t, &labels, params));
    }
    let store_path = work_dir.join(format!("store-lookup-{count}.pqg"));
    std::fs::remove_file(&store_path).ok();
    let store = IndexStore::bulk_create(&store_path, params, forest.iter()).expect("bulk create");
    let inv_bytes = store.relation_bytes().expect("bytes").inverted_total();

    let ((scan_hits, scan_stats), scan_t) = best_of(reps, || {
        lookup_exhaustive_with_stats(&store, &query, TAU).expect("scan")
    });
    let ((inv_hits, inv_stats), inv_t) = best_of(reps, || {
        store.lookup_with_stats(&query, TAU).expect("inverted")
    });

    // τ > 1 thresholds: same candidate-merge plan, bit-identical to the
    // exhaustive reference (which admits every stored document).
    for tau in WIDE_TAUS {
        let (wide, wide_stats) = store.lookup_with_stats(&query, tau).expect("wide");
        let (reference, _) = lookup_exhaustive_with_stats(&store, &query, tau).expect("wide scan");
        assert_eq!(
            wide_stats.plan,
            LookupPlan::CandidateMerge,
            "τ = {tau} must stay on the merge"
        );
        assert_eq!(
            wide, reference,
            "candidate merge diverged from the reference at τ = {tau}, {count} trees"
        );
        assert_eq!(wide.len(), store.tree_ids().expect("ids").len());
    }
    std::fs::remove_file(&store_path).ok();

    assert_eq!(
        inv_stats.plan,
        LookupPlan::CandidateMerge,
        "τ = {TAU} must use the inverted plan"
    );
    assert_eq!(scan_stats.plan, LookupPlan::ExhaustiveReference);
    assert_eq!(inv_hits, scan_hits, "plans disagree at {count} trees");
    assert!(
        !inv_hits.is_empty(),
        "the query's source document must match"
    );

    let scan_ms = scan_t.as_secs_f64() * 1e3;
    let inv_ms = inv_t.as_secs_f64() * 1e3;
    Row {
        trees: count,
        nodes_total,
        hits: inv_hits.len(),
        scan_rows: scan_stats.rows_read,
        inv_rows: inv_stats.rows_read,
        row_ratio: scan_stats.rows_read as f64 / inv_stats.rows_read.max(1) as f64,
        scan_ms,
        inv_ms,
        speedup: scan_ms / inv_ms.max(1e-9),
        inv_bytes,
        blocks_decoded: inv_stats.blocks_decoded,
        verified: inv_stats.verified,
        rows_pruned_window: inv_stats.rows_pruned_window,
        grams_skipped_budget: inv_stats.grams_skipped_budget,
        grams_skipped_filter: inv_stats.grams_skipped_filter,
    }
}

fn write_json(path: &str, mode: &str, rows: &[Row]) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"store_lookup\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"tau\": {TAU},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"trees\": {}, \"nodes_total\": {}, \"hits\": {}, \
             \"scan_rows\": {}, \"inverted_rows\": {}, \"row_ratio\": {:.2}, \
             \"scan_ms\": {:.3}, \"inverted_ms\": {:.3}, \"speedup\": {:.2}, \
             \"inverted_bytes\": {}, \"blocks_decoded\": {}, \"verified\": {}, \
             \"rows_pruned_window\": {}, \"grams_skipped_budget\": {}, \
             \"grams_skipped_filter\": {}}}{comma}",
            r.trees,
            r.nodes_total,
            r.hits,
            r.scan_rows,
            r.inv_rows,
            r.row_ratio,
            r.scan_ms,
            r.inv_ms,
            r.speedup,
            r.inv_bytes,
            r.blocks_decoded,
            r.verified,
            r.rows_pruned_window,
            r.grams_skipped_budget,
            r.grams_skipped_filter,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(path, json).expect("write json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The small pool (and with it the query document) keeps the same size
    // at both scales; `--smoke` only shrinks the large documents, the
    // repetition count, and drops the 100k-document row.
    let (small_pool, big_pool, reps) = if smoke {
        (40_000, 240_000, 3)
    } else {
        (40_000, 720_000, 15)
    };
    let counts: &[usize] = if smoke { &SMOKE_COUNTS } else { &FULL_COUNTS };
    let work_dir = std::env::temp_dir().join(format!("pqgram-store-lookup-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");

    println!(
        "store-lookup: scan vs inverted candidate-merge ({} scale, τ = {TAU})",
        if smoke { "smoke" } else { "full" },
    );
    let mut rows = Vec::new();
    for &count in counts {
        let row = run_count(count, small_pool, big_pool, reps, &work_dir);
        println!(
            "  {:>6} trees: scan {:>8} rows / {:>9.3} ms, planned {:>7} rows / {:>9.3} ms \
             ({:.1}x fewer rows, {:.1}x faster, {} hits, {} verified); inverted relation {:>9} B",
            row.trees,
            row.scan_rows,
            row.scan_ms,
            row.inv_rows,
            row.inv_ms,
            row.row_ratio,
            row.speedup,
            row.hits,
            row.verified,
            row.inv_bytes,
        );
        rows.push(row);
    }
    std::fs::remove_dir_all(&work_dir).ok();

    // Acceptance criteria from ≥1000 documents on: the planned merge must
    // read ≥10× fewer rows than the scan and win on wall clock.
    for r in rows.iter().filter(|r| r.trees >= 1_000) {
        assert!(
            r.row_ratio >= 10.0,
            "inverted plan read only {:.1}x fewer rows than the scan at {} trees",
            r.row_ratio,
            r.trees,
        );
        assert!(
            r.inv_ms < r.scan_ms,
            "inverted plan ({:.3} ms) not faster than scan ({:.3} ms) at {} trees",
            r.inv_ms,
            r.scan_ms,
            r.trees,
        );
    }

    let mut table = Table::new(
        "store-lookup: exhaustive scan vs planned candidate-merge",
        &[
            "trees",
            "nodes_total",
            "hits",
            "scan_rows",
            "inverted_rows",
            "row_ratio",
            "scan_ms",
            "inverted_ms",
            "speedup",
            "inverted_bytes",
            "verified",
            "rows_pruned_window",
            "grams_skipped_budget",
            "grams_skipped_filter",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.trees.to_string(),
            r.nodes_total.to_string(),
            r.hits.to_string(),
            r.scan_rows.to_string(),
            r.inv_rows.to_string(),
            format!("{:.2}", r.row_ratio),
            format!("{:.3}", r.scan_ms),
            format!("{:.3}", r.inv_ms),
            format!("{:.2}", r.speedup),
            r.inv_bytes.to_string(),
            r.verified.to_string(),
            r.rows_pruned_window.to_string(),
            r.grams_skipped_budget.to_string(),
            r.grams_skipped_filter.to_string(),
        ]);
    }
    print!("{}", table.render());
    let json_name = "BENCH_store_lookup.json";
    match table.write_csv(&PathBuf::from("bench_results"), "store_lookup") {
        Ok(path) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("   (csv not written: {e})"),
    }
    write_json(json_name, if smoke { "smoke" } else { "full" }, &rows);
    println!("   -> {json_name}");
}
