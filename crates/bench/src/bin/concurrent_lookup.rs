//! `concurrent-lookup` experiment: query throughput scaling with reader
//! threads, plus the parallel-vs-serial profiling fan-out of ingest.
//!
//! ```sh
//! cargo run --release -p pqgram-bench --bin concurrent_lookup            # full
//! cargo run --release -p pqgram-bench --bin concurrent_lookup -- --smoke # CI
//! ```
//!
//! Builds a skewed 1000-document XMark forest, ingests it through the
//! batched pipeline ([`pqgram_core::par::map`] profiling fan-out feeding
//! the [`IndexStore::put_trees`] single writer) at 1 and 4 threads, then
//! hands the store to an [`IndexStoreReader`] and drives a fixed lookup
//! workload from 1, 2, 4 and 8 concurrent reader threads. Emits
//! `bench_results/concurrent_lookup.csv` and `BENCH_concurrent_lookup.json`
//! (repo root) with aggregate QPS and p50/p99 per-lookup latency per thread
//! count. Every worker asserts its hits equal the serial answer, at every
//! thread count.
//!
//! Scaling acceptance criteria — ≥ 3× aggregate QPS at 4 reader threads
//! and ≥ 2× ingest speedup at 4 profiling threads — are asserted when the
//! host exposes at least 4 CPUs; on smaller hosts (1-core CI containers)
//! the workload still runs and the correctness assertions still hold, but
//! the scaling bars are reported without being enforced (recorded as
//! `"scaling_asserted": false` in the JSON). The host core count is recorded in the JSON, and a
//! baseline recorded with `"scaling_asserted": true` is **not** silently
//! downgraded: rerunning on a smaller host refuses to overwrite it unless
//! `--force` is passed.

use pqgram_bench::datasets::xmark_tree;
use pqgram_bench::experiments::query_variant;
use pqgram_bench::report::Table;
use pqgram_core::{build_index, PQParams, TreeId, TreeIndex};
use pqgram_store::{IndexStore, IndexStoreReader, LookupPlan};
use pqgram_tree::{LabelTable, Tree};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TAU: f64 = 0.8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const INGEST_THREADS: usize = 4;
const QUERIES: usize = 8;
const BATCH: usize = 32;

fn ok<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{what}: {e}"),
    }
}

struct Row {
    threads: usize,
    ops: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup: f64,
}

/// The skewed forest of `store_lookup`: ~4% large documents carry most of
/// the nodes; small documents come first so queries derive from them.
fn skewed_forest(
    count: usize,
    small_pool: usize,
    big_pool: usize,
    labels: &mut LabelTable,
) -> Vec<Tree> {
    let big = (count / 25).max(1);
    let small = count - big;
    let per_small = (small_pool / small).max(16);
    let per_big = big_pool / big;
    (0..count)
        .map(|i| {
            let nodes = if i < small { per_small } else { per_big };
            xmark_tree(7_000 + i as u64, labels, nodes)
        })
        .collect()
}

fn remove_store(path: &Path) {
    std::fs::remove_file(path).ok();
    let mut journal = path.as_os_str().to_owned();
    journal.push("-journal");
    std::fs::remove_file(PathBuf::from(journal)).ok();
}

/// One full ingest: fan the pure profiling step out over `threads`, then
/// stream sorted batches into the single writer. Returns the wall time.
fn ingest(
    path: &Path,
    docs: &[(TreeId, Tree)],
    labels: &LabelTable,
    params: PQParams,
    threads: usize,
) -> Duration {
    remove_store(path);
    let t = Instant::now();
    let batch: Vec<(TreeId, TreeIndex)> = pqgram_core::par::map(docs, threads, |(id, tree)| {
        (*id, build_index(tree, labels, params))
    });
    let mut store = ok(IndexStore::create(path, params), "create store");
    for chunk in batch.chunks(BATCH) {
        ok(store.put_trees(chunk), "put_trees");
    }
    ok(store.flush(), "flush");
    t.elapsed()
}

/// Median wall time of `reps` ingests at the given thread count.
fn ingest_median(
    path: &Path,
    docs: &[(TreeId, Tree)],
    labels: &LabelTable,
    params: PQParams,
    threads: usize,
    reps: usize,
) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| ingest(path, docs, labels, params, threads))
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Drives `total_ops` lookups split evenly across `threads` reader threads,
/// asserting every answer against the serial expectation. Returns
/// (aggregate QPS, p50 ms, p99 ms).
fn run_threads(
    reader: &IndexStoreReader,
    queries: &[TreeIndex],
    expected: &[Vec<pqgram_core::LookupHit>],
    total_ops: usize,
    threads: usize,
) -> (f64, f64, f64) {
    let per = total_ops / threads;
    let wall = Instant::now();
    let mut lats: Vec<Duration> = Vec::with_capacity(total_ops);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let reader = reader.clone();
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per);
                    for k in 0..per {
                        let qi = (w * per + k) % queries.len();
                        let t = Instant::now();
                        let (hits, stats) = ok(
                            reader.lookup_with_stats(&queries[qi], TAU),
                            "concurrent lookup",
                        );
                        local.push(t.elapsed());
                        assert_eq!(
                            stats.plan,
                            LookupPlan::CandidateMerge,
                            "τ = {TAU} must use the inverted plan"
                        );
                        assert_eq!(hits, expected[qi], "worker {w} op {k} diverged from serial");
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => lats.extend(local),
                Err(_) => panic!("reader worker panicked"),
            }
        }
    });
    let wall = wall.elapsed();
    lats.sort_unstable();
    let p50 = lats[lats.len() / 2];
    let p99 = lats[(lats.len() * 99 / 100).min(lats.len() - 1)];
    (
        total_ops as f64 / wall.as_secs_f64().max(1e-9),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    )
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    mode: &str,
    cores: usize,
    trees: usize,
    scaling_asserted: bool,
    serial_ms: f64,
    parallel_ms: f64,
    rows: &[Row],
) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"concurrent_lookup\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"tau\": {TAU},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"trees\": {trees},");
    let _ = writeln!(json, "  \"scaling_asserted\": {scaling_asserted},");
    let _ = writeln!(
        json,
        "  \"ingest\": {{\"serial_ms\": {serial_ms:.3}, \"parallel_ms\": {parallel_ms:.3}, \
         \"threads\": {INGEST_THREADS}, \"speedup\": {:.2}}},",
        serial_ms / parallel_ms.max(1e-9),
    );
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"ops\": {}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"speedup\": {:.2}}}{comma}",
            r.threads, r.ops, r.qps, r.p50_ms, r.p99_ms, r.speedup,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    ok(std::fs::write(path, json), "write json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (count, small_pool, big_pool, total_ops, ingest_reps) = if smoke {
        (200, 8_000, 48_000, 48, 2)
    } else {
        (1_000, 40_000, 240_000, 240, 3)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let work_dir =
        std::env::temp_dir().join(format!("pqgram-concurrent-lookup-{}", std::process::id()));
    ok(std::fs::create_dir_all(&work_dir), "work dir");
    let store_path = work_dir.join("forest.pqg");

    println!(
        "concurrent-lookup: reader scaling over a {count}-document forest \
         ({} scale, τ = {TAU}, {cores} core(s))",
        if smoke { "smoke" } else { "full" }
    );

    let params = PQParams::default();
    let mut labels = LabelTable::new();
    let trees = skewed_forest(count, small_pool, big_pool, &mut labels);
    let docs: Vec<(TreeId, Tree)> = trees
        .iter()
        .enumerate()
        .map(|(i, t)| (TreeId(i as u64), t.clone()))
        .collect();

    // Ingest: serial baseline vs the 4-thread profiling fan-out. Both feed
    // the same single writer; `crates/store/tests/parallel.rs` proves the
    // resulting files are byte-identical.
    let serial = ingest_median(&store_path, &docs, &labels, params, 1, ingest_reps);
    let parallel = ingest_median(
        &store_path,
        &docs,
        &labels,
        params,
        INGEST_THREADS,
        ingest_reps,
    );
    let serial_ms = serial.as_secs_f64() * 1e3;
    let parallel_ms = parallel.as_secs_f64() * 1e3;
    let ingest_speedup = serial_ms / parallel_ms.max(1e-9);
    println!(
        "  ingest: serial {serial_ms:.1} ms, {INGEST_THREADS}-thread {parallel_ms:.1} ms \
         ({ingest_speedup:.2}x)"
    );

    // Queries derive from small members; expected answers come from the
    // serial plan before any reader thread starts.
    let small = count - (count / 25).max(1);
    let queries: Vec<TreeIndex> = (0..QUERIES)
        .map(|k| {
            let variant = query_variant(&trees[(k * 13) % small], &mut labels, 11);
            build_index(&variant, &labels, params)
        })
        .collect();
    let store = ok(IndexStore::open(&store_path), "reopen store");
    let expected: Vec<Vec<pqgram_core::LookupHit>> = queries
        .iter()
        .map(|q| ok(store.lookup(q, TAU), "serial lookup"))
        .collect();
    assert!(
        expected.iter().any(|hits| !hits.is_empty()),
        "at least one query must match its source document"
    );
    let reader = store.into_reader();

    // Warm the buffer pool once so every thread count sees the same cache.
    for (q, want) in queries.iter().zip(&expected) {
        let (hits, _) = ok(reader.lookup_with_stats(q, TAU), "warmup");
        assert_eq!(&hits, want);
    }

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (qps, p50_ms, p99_ms) = run_threads(&reader, &queries, &expected, total_ops, threads);
        let speedup = rows.first().map_or(1.0, |base| qps / base.qps.max(1e-9));
        println!(
            "  {threads} thread(s): {qps:>8.1} qps, p50 {p50_ms:>7.3} ms, p99 {p99_ms:>7.3} ms \
             ({speedup:.2}x)"
        );
        rows.push(Row {
            threads,
            ops: total_ops,
            qps,
            p50_ms,
            p99_ms,
            speedup,
        });
    }
    ok(
        std::fs::remove_dir_all(&work_dir).map_err(|e| e.to_string()),
        "cleanup",
    );

    // Scaling acceptance criteria need real CPUs to be meaningful.
    let scaling_asserted = cores >= 4;
    if scaling_asserted {
        let four = rows
            .iter()
            .find(|r| r.threads == 4)
            .map_or(0.0, |r| r.speedup);
        assert!(
            four >= 3.0,
            "aggregate QPS at 4 reader threads only {four:.2}x the single-thread rate"
        );
        assert!(
            ingest_speedup >= 2.0,
            "{INGEST_THREADS}-thread ingest only {ingest_speedup:.2}x over serial"
        );
    } else {
        println!(
            "  (scaling assertions skipped: {cores} core(s) available, need >= 4; \
             correctness was still asserted on every lookup)"
        );
    }

    let mut table = Table::new(
        "concurrent-lookup: aggregate QPS and latency by reader threads",
        &["threads", "ops", "qps", "p50_ms", "p99_ms", "speedup"],
    );
    for r in &rows {
        table.row(vec![
            r.threads.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.qps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.2}", r.speedup),
        ]);
    }
    print!("{}", table.render());
    match table.write_csv(&PathBuf::from("bench_results"), "concurrent_lookup") {
        Ok(path) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("   (csv not written: {e})"),
    }
    // A baseline recorded on a real multi-core host (scaling_asserted:
    // true) must not be silently replaced by an unasserted run from a
    // 1-core container — that would erase the only enforced numbers.
    let json_path = "BENCH_concurrent_lookup.json";
    let force = std::env::args().any(|a| a == "--force");
    let baseline_asserted = std::fs::read_to_string(json_path)
        .map(|s| s.contains("\"scaling_asserted\": true"))
        .unwrap_or(false);
    if baseline_asserted && !scaling_asserted && !force {
        eprintln!(
            "refusing to overwrite {json_path}: the existing baseline was recorded with \
             scaling assertions enforced, but this host has only {cores} core(s) \
             (need >= 4). Pass --force to downgrade it anyway."
        );
        std::process::exit(1);
    }
    write_json(
        json_path,
        if smoke { "smoke" } else { "full" },
        cores,
        count,
        scaling_asserted,
        serial_ms,
        parallel_ms,
        &rows,
    );
    println!("   -> {json_path}");
}
