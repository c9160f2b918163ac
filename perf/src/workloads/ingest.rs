//! `ingest`: a write-only stream into a fresh store.
//!
//! One round creates an empty store and streams the whole shuffled corpus
//! into it in batches of [`BATCH`]: `build_index` each document, then
//! `put_trees(batch)`. The store flushes at its own default memtable
//! threshold; the harness compacts whenever [`COMPACT_AT_SEGMENTS`]
//! segments are live and once more after a final `flush()`. The operation
//! timed is one batch, compaction stall included; the closing flush and
//! compaction count toward throughput only. Afterwards (untimed) the store
//! must `verify()`, hold every tree with exactly the index `build_index`
//! gives, and answer a lookup like the oracle.

use super::{
    open_probe, run_rounds, set_io_values, timed_setups, write_amp, Cfg, Env, Outcome, Phase,
    ProbeQuery, Samples, BATCH, COMPACT_AT_SEGMENTS,
};
use crate::adapter::{build_index, Oracle, Res, Store, TreeId, TreeIndex};
use crate::corpus::{skewed, Corpus};
use crate::metrics::{ratio, Values};
use crate::trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

struct Ready {
    corpus: Corpus,
    /// Arrival order of the documents.
    order: Vec<usize>,
    /// `build_index` of every document, for the final comparison.
    indexes: Vec<TreeIndex>,
    probe: ProbeQuery,
}

fn setup(cfg: &Cfg) -> Res<Ready> {
    let (docs, fat_nodes) = if cfg.smoke {
        (100, 800)
    } else {
        (2_000, 5_000)
    };
    let corpus = skewed(cfg.seed, docs, fat_nodes);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0002);
    let mut order: Vec<usize> = (0..corpus.docs.len()).collect();
    order.shuffle(&mut rng);
    let indexes: Vec<TreeIndex> = corpus
        .docs
        .iter()
        .map(|tree| build_index(tree, &corpus.labels))
        .collect();
    let mut oracle = Oracle::new();
    for (i, index) in indexes.iter().enumerate() {
        oracle.insert(TreeId(i as u64), index.clone());
    }
    let probe = ProbeQuery::new(&oracle);
    Ok(Ready {
        corpus,
        order,
        indexes,
        probe,
    })
}

/// Timing values of one round (the best round's value is reported for each).
const ROUND_TIMINGS: [&str; 8] = [
    "op_p50_us",
    "op_tail_us",
    "ops_per_s",
    "ingest_docs_per_s",
    "segmented.put_us_per_doc",
    "segmented.flush_ms_total",
    "segmented.compact_ms_total",
    "segmented.stall_share",
];

/// Counts of one round (reported from the first measured round).
struct Counts {
    flushes: u64,
    compactions: u64,
    distinct_grams: u64,
    disk_bytes: u64,
}

fn one_round(
    env: &Env,
    ready: &Ready,
    out: &mut Outcome,
    full_check: bool,
) -> Res<(Values, Counts, f64)> {
    env.wipe()?;
    let mut store = Store::create(&env.base(), env.arc_vfs())?;
    let mut batches = Samples::default();
    let (mut op_ns, mut put_ns, mut flush_ns, mut compact_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut flushes, mut compactions, mut distinct_grams) = (0u64, 0u64, 0u64);
    for batch in ready.order.chunks(BATCH) {
        let t = Instant::now();
        let result: Res<()> = (|| {
            let _op = trace::enter("op.ingest_batch");
            let indexed: Vec<(TreeId, TreeIndex)> = batch
                .iter()
                .map(|&i| {
                    let index = build_index(&ready.corpus.docs[i], &ready.corpus.labels);
                    (TreeId(i as u64), index)
                })
                .collect();
            distinct_grams += indexed
                .iter()
                .map(|(_, x)| x.distinct() as u64)
                .sum::<u64>();
            let before = store.segment_count();
            let t_put = Instant::now();
            store.put_trees(&indexed)?;
            let put = t_put.elapsed().as_nanos() as u64;
            put_ns += put;
            if store.segment_count() > before {
                flushes += 1;
                flush_ns += put;
            }
            if store.segment_count() >= COMPACT_AT_SEGMENTS {
                let t_compact = Instant::now();
                store.compact()?;
                compact_ns += t_compact.elapsed().as_nanos() as u64;
                compactions += 1;
            }
            Ok(())
        })();
        let ns = t.elapsed().as_nanos() as u64;
        op_ns += ns;
        batches.push(ns);
        out.check(result.is_ok(), || {
            format!("ingest batch failed: {result:?}")
        });
    }
    let t = Instant::now();
    let closing: Res<()> = (|| {
        let _op = trace::enter("op.ingest_finish");
        let before = store.segment_count();
        let t_flush = Instant::now();
        store.flush()?;
        if store.segment_count() > before {
            flushes += 1;
            flush_ns += t_flush.elapsed().as_nanos() as u64;
        }
        if store.segment_count() > 0 {
            let t_compact = Instant::now();
            store.compact()?;
            compact_ns += t_compact.elapsed().as_nanos() as u64;
            compactions += 1;
        }
        Ok(())
    })();
    op_ns += t.elapsed().as_nanos() as u64;
    out.check(closing.is_ok(), || {
        format!("closing flush/compact failed: {closing:?}")
    });

    let docs = ready.order.len() as u64;
    super::check_verify(&store, docs, out);
    if full_check {
        for (i, want) in ready.indexes.iter().enumerate() {
            let got = store.tree_index(TreeId(i as u64));
            out.check(got.as_ref().is_ok_and(|g| g.as_ref() == Some(want)), || {
                format!("tree {i}: stored index differs from build_index")
            });
        }
    }

    let mut v = Values::default();
    let docs_per_s = ratio(docs as f64, op_ns as f64 / 1e9);
    v.set("op_p50_us", batches.quantile_us(0.50));
    v.set("op_tail_us", batches.quantile_us(0.90));
    v.set("ops_per_s", docs_per_s);
    v.set("ingest_docs_per_s", docs_per_s);
    v.set(
        "segmented.put_us_per_doc",
        ratio(put_ns as f64 / 1e3, docs as f64),
    );
    v.set("segmented.flush_ms_total", flush_ns as f64 / 1e6);
    v.set("segmented.compact_ms_total", compact_ns as f64 / 1e6);
    v.set(
        "segmented.stall_share",
        ratio((flush_ns + compact_ns) as f64, op_ns as f64),
    );
    let counts = Counts {
        flushes,
        compactions,
        distinct_grams,
        disk_bytes: env.disk_bytes(),
    };
    Ok((v, counts, ratio(op_ns as f64, docs as f64)))
}

/// Runs `ingest`.
pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let (ready, setup_s) = timed_setups(cfg, || setup(cfg))?;
    let mut out = Outcome::default();
    out.values.set("setup_s", setup_s);

    let env = Env::fresh(cfg, "store")?;
    let mut rounds: Vec<Values> = Vec::new();
    let mut first = None;
    let docs = ready.order.len();
    let result = run_rounds(cfg, 1, &env.vfs, |phase| {
        // The complete per-tree comparison runs once, on the first
        // measured round; every round is verified.
        let full_check = phase != Phase::WarmUp && rounds.is_empty();
        let (values, counts, time) = one_round(&env, &ready, &mut out, full_check)?;
        if phase != Phase::WarmUp {
            first.get_or_insert(counts);
            rounds.push(values);
        }
        Ok(time)
    })?;

    super::best_over(&rounds, &result.untraced, &ROUND_TIMINGS, &mut out.values);
    let first = first.expect("at least one measured round");
    let io = result.io;
    set_io_values(&mut out.values, &io);
    out.values
        .set("write_amp", write_amp(&io, first.distinct_grams));
    out.values
        .set("segmented.flush_count", first.flushes as f64);
    out.values
        .set("segmented.compact_count", first.compactions as f64);
    out.values.set(
        "disk_bytes_per_node",
        ratio(first.disk_bytes as f64, ready.corpus.nodes() as f64),
    );
    out.values
        .set("trace_overhead_pct", result.trace_overhead_pct);
    if !cfg.smoke {
        out.gate(first.compactions >= 2, || {
            format!(
                "{} compactions in an ingest round, want a policy compaction beside the closing one",
                first.compactions
            )
        });
    }
    out.note("docs_per_round", docs);
    out.note("nodes_per_round", ready.corpus.nodes());
    out.note("distinct_grams_per_round", first.distinct_grams);
    out.note("measured_rounds", rounds.len());
    out.note("corpus_digest", format!("{:#018x}", ready.corpus.digest()));

    let Ready {
        probe,
        corpus,
        indexes,
        ..
    } = ready;
    drop((corpus, indexes));
    out.values.set("rss_mb", super::rss_mb());
    open_probe(cfg, &env, &probe, &mut out)?;
    if cfg.trace {
        crate::probes::run(cfg, &env, &mut out)?;
    }
    Ok(out)
}
