//! `lookup-hot` and `lookup-cold`: one lookup mix, two opposite
//! bottlenecks.
//!
//! Both draw a fixed pool of query documents (a corpus member plus three
//! edits), fix each query's operation — 60 % `τ = 0.6`, 20 % `τ = 0.8`,
//! 15 % top-k `k = 10`, 5 % a fat query at `τ = 0.8` — and replay one
//! seed-shuffled sequence of whole passes over the pool every round (so
//! the class mix of a round is exact, not sampled), through a
//! [`crate::adapter::Reader`]. Every answer is compared with the digest
//! of the in-memory oracle's answer, outside the timed span.
//!
//! * **hot**: the store is compacted to one main file smaller than the
//!   1024-page pool, so every page a round touches stays resident: the planner, posting decode, filters, B+-tree descent
//!   and distance verification do all the work, `vfs` is idle. The fat
//!   class owns the tail.
//! * **cold**: documents arrive in shuffled order; half are compacted
//!   into a main file several pools large, the rest stay in four live
//!   segments; the pool is spread over every cluster. The same code now
//!   misses the buffer pool on most page touches and merges five sources.

use super::{
    best_over, ingest_untimed, open_probe, run_rounds, set_io_values, timed_setups, Cfg, Env,
    Outcome, Phase, ProbeQuery, Samples,
};
use crate::adapter::{
    build_index, LookupHit, LookupStats, Lookups, Oracle, Reader, Res, Store, TreeId, TreeIndex,
};
use crate::corpus::{query_variant, skewed, Corpus, Digest};
use crate::metrics::{ratio, Values};
use crate::trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Which of the two lookup workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temperature {
    /// Working set inside the buffer pool.
    Hot,
    /// Working set several pools large, five sources.
    Cold,
}

/// Live segments the cold store keeps beside its main file.
const COLD_SEGMENTS: usize = 4;
/// `k` of the top-k queries.
const K: usize = 10;

struct Scale {
    docs: usize,
    fat_nodes: usize,
    pool: usize,
    /// Passes over the whole pool per round: every query, and so every
    /// query class, has exactly the same share of every round.
    passes: usize,
}

fn scale(temp: Temperature, smoke: bool) -> Scale {
    match (temp, smoke) {
        (Temperature::Hot, false) => Scale {
            docs: 400,
            fat_nodes: 800,
            pool: 240,
            passes: 4,
        },
        (Temperature::Cold, false) => Scale {
            docs: 3_000,
            fat_nodes: 2_000,
            pool: 160,
            passes: 3,
        },
        (_, true) => Scale {
            docs: 250,
            fat_nodes: 400,
            pool: 40,
            passes: 1,
        },
    }
}

/// What a pool query asks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ask {
    Threshold { tau: f64, fat: bool },
    TopK,
}

/// The mix, as a repeating pattern of 20 pool slots.
fn ask_for_slot(slot: usize) -> Ask {
    match slot % 20 {
        0..=11 => Ask::Threshold {
            tau: 0.6,
            fat: false,
        },
        12..=15 => Ask::Threshold {
            tau: 0.8,
            fat: false,
        },
        16..=18 => Ask::TopK,
        _ => Ask::Threshold {
            tau: 0.8,
            fat: true,
        },
    }
}

struct PoolQuery {
    index: TreeIndex,
    ask: Ask,
    /// Digest of the oracle's answer.
    expect: u64,
}

/// Digest of an answer: `(TreeId, distance bits)*` in result order.
pub fn answer_digest(hits: &[LookupHit]) -> u64 {
    let mut d = Digest::new();
    for h in hits {
        d.push(h.tree_id.0);
        d.push(h.distance.to_bits());
    }
    d.finish()
}

fn answer(src: &impl Lookups, q: &PoolQuery) -> Res<(Vec<LookupHit>, LookupStats)> {
    match q.ask {
        Ask::Threshold { tau, .. } => src.lookup(&q.index, tau),
        Ask::TopK => src.top_k(&q.index, K),
    }
}

/// Fills in `expect` from the oracle, on two threads (the oracle is a
/// full scan per query and dominates set-up otherwise).
fn oracle_answers(oracle: &Oracle, pool: &mut [PoolQuery]) {
    let half = pool.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        for part in pool.chunks_mut(half) {
            scope.spawn(move || {
                for q in part {
                    let hits = match q.ask {
                        Ask::Threshold { tau, .. } => oracle.lookup(&q.index, tau),
                        Ask::TopK => oracle.top_k(&q.index, K),
                    };
                    q.expect = answer_digest(&hits);
                }
            });
        }
    });
}

/// Everything a set-up produces.
struct Ready {
    env: Env,
    /// Keeps the published snapshot (and the manifest) alive.
    writer: Store,
    reader: Reader,
    pool: Vec<PoolQuery>,
    sequence: Vec<u32>,
    probe: ProbeQuery,
    segments: usize,
    nodes: u64,
    corpus_digest: u64,
}

fn build_pool(corpus: &Corpus, sc: &Scale, rng: &mut StdRng) -> Vec<PoolQuery> {
    let small = corpus.small;
    (0..sc.pool)
        .map(|slot| {
            let ask = ask_for_slot(slot);
            let doc = match ask {
                Ask::Threshold { fat: true, .. } => rng.random_range(small..corpus.docs.len()),
                _ => rng.random_range(0..small),
            };
            let tree = query_variant(rng, &corpus.docs[doc]);
            PoolQuery {
                index: build_index(&tree, &corpus.labels),
                ask,
                expect: 0,
            }
        })
        .collect()
}

fn setup(cfg: &Cfg, temp: Temperature, sc: &Scale) -> Res<Ready> {
    let corpus = skewed(cfg.seed, sc.docs, sc.fat_nodes);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0001);
    let indexed: Vec<(TreeId, TreeIndex)> = corpus
        .docs
        .iter()
        .enumerate()
        .map(|(i, tree)| (TreeId(i as u64), build_index(tree, &corpus.labels)))
        .collect();

    let env = Env::fresh(cfg, "store")?;
    let mut store = Store::create(&env.base(), env.arc_vfs())?;
    match temp {
        Temperature::Hot => {
            ingest_untimed(&mut store, &indexed)?;
            store.compact()?;
        }
        Temperature::Cold => {
            let mut order: Vec<usize> = (0..indexed.len()).collect();
            order.shuffle(&mut rng);
            let shuffled: Vec<(TreeId, TreeIndex)> =
                order.iter().map(|&i| indexed[i].clone()).collect();
            let (main, rest) = shuffled.split_at(shuffled.len() / 2);
            ingest_untimed(&mut store, main)?;
            store.compact()?;
            // One batch per segment: `put_trees` checks the flush
            // threshold once, after the whole batch is buffered.
            for part in rest.chunks(rest.len().div_ceil(COLD_SEGMENTS)) {
                store.put_trees(part)?;
                store.flush()?;
            }
        }
    }
    let reader = store.reader()?;

    let mut oracle = Oracle::new();
    for (id, index) in indexed {
        oracle.insert(id, index);
    }
    let mut pool = build_pool(&corpus, sc, &mut rng);
    oracle_answers(&oracle, &mut pool);
    let mut sequence: Vec<u32> = (0..sc.passes).flat_map(|_| 0..pool.len() as u32).collect();
    sequence.shuffle(&mut rng);
    let probe = ProbeQuery::new(&oracle);
    Ok(Ready {
        segments: store.segment_count(),
        nodes: corpus.nodes(),
        corpus_digest: corpus.digest(),
        env,
        writer: store,
        reader,
        pool,
        sequence,
        probe,
    })
}

/// Summed [`LookupStats`] of a round.
#[derive(Default)]
pub(super) struct StatSums {
    pub(super) lookups: u64,
    rows_read: u64,
    grams_probed: u64,
    candidates: u64,
    verified: u64,
    hits: u64,
    sources: u64,
    sources_skipped_filter: u64,
    grams_skipped_filter: u64,
    grams_skipped_budget: u64,
    false_positive: u64,
    rows_pruned_window: u64,
    blocks_decoded: u64,
    blocks_skipped: u64,
    bytes_decoded: u64,
}

impl StatSums {
    pub(super) fn add(&mut self, s: &LookupStats) {
        self.lookups += 1;
        self.rows_read += s.rows_read;
        self.grams_probed += s.grams_probed as u64;
        self.candidates += s.candidates as u64;
        self.verified += s.verified as u64;
        self.hits += s.hits as u64;
        self.sources += s.sources_considered as u64;
        self.sources_skipped_filter += s.sources_skipped_filter as u64;
        self.grams_skipped_filter += s.grams_skipped_filter as u64;
        self.grams_skipped_budget += s.grams_skipped_budget as u64;
        self.false_positive += s.filter_false_positive_probes;
        self.rows_pruned_window += s.rows_pruned_window;
        self.blocks_decoded += s.blocks_decoded;
        self.blocks_skipped += s.blocks_skipped;
        self.bytes_decoded += s.bytes_decoded;
    }

    pub(super) fn write(&self, v: &mut Values) {
        let per = |x: u64| ratio(x as f64, self.lookups as f64);
        v.set("ops.rows_per_lookup", per(self.rows_read));
        v.set("ops.grams_probed_per_lookup", per(self.grams_probed));
        v.set("ops.candidates_per_lookup", per(self.candidates));
        v.set(
            "ops.hits_per_verified",
            ratio(self.hits as f64, self.verified as f64),
        );
        v.set("ops.hits_per_lookup", per(self.hits));
        v.set(
            "ops.grams_skipped_budget_per_lookup",
            per(self.grams_skipped_budget),
        );
        v.set(
            "ops.rows_pruned_window_per_lookup",
            per(self.rows_pruned_window),
        );
        v.set(
            "postings.blocks_decoded_per_lookup",
            per(self.blocks_decoded),
        );
        v.set(
            "postings.blocks_skipped_per_lookup",
            per(self.blocks_skipped),
        );
        v.set("postings.bytes_decoded_per_lookup", per(self.bytes_decoded));
        v.set(
            "filter.grams_skipped_per_lookup",
            per(self.grams_skipped_filter),
        );
        v.set(
            "filter.sources_skipped_per_lookup",
            per(self.sources_skipped_filter),
        );
        v.set("filter.false_positive_per_lookup", per(self.false_positive));
        v.set("segmented.sources_per_lookup", per(self.sources));
    }
}

/// Names of the per-round timing values (the best round's value is reported
/// for each).
const ROUND_TIMINGS: [&str; 9] = [
    "op_p50_us",
    "op_tail_us",
    "ops_per_s",
    "lookup_p50_us",
    "lookup_p99_us",
    "topk_p50_us",
    "lookups_per_s",
    "ops.small_lookup_p50_us",
    "ops.fat_lookup_p50_us",
];

fn one_round(ready: &Ready, out: &mut Outcome, check: bool) -> (Values, StatSums, f64) {
    let mut all = Samples::default();
    let mut threshold = Samples::default();
    let mut topk = Samples::default();
    let mut small = Samples::default();
    let mut fat = Samples::default();
    let mut sums = StatSums::default();
    let mut op_ns = 0u64;
    for &slot in &ready.sequence {
        let q = &ready.pool[slot as usize];
        let t = Instant::now();
        let result = {
            let _op = trace::enter(match q.ask {
                Ask::Threshold { .. } => "op.lookup",
                Ask::TopK => "op.topk",
            });
            answer(&ready.reader, q)
        };
        let ns = t.elapsed().as_nanos() as u64;
        op_ns += ns;
        all.push(ns);
        match q.ask {
            Ask::Threshold { fat: is_fat, .. } => {
                threshold.push(ns);
                if is_fat { &mut fat } else { &mut small }.push(ns);
            }
            Ask::TopK => {
                topk.push(ns);
                small.push(ns);
            }
        }
        if let Ok((_, stats)) = &result {
            sums.add(stats);
        }
        if check {
            let got = result.map(|(hits, _)| answer_digest(&hits));
            out.check(got == Ok(q.expect), || {
                format!(
                    "pool query {slot} ({:?}): got {got:?}, oracle {:#x}",
                    q.ask, q.expect
                )
            });
        }
    }
    let mut v = Values::default();
    let per_s = ratio(all.count() as f64, op_ns as f64 / 1e9);
    v.set("op_p50_us", all.quantile_us(0.50));
    v.set("op_tail_us", all.quantile_us(0.99));
    v.set("ops_per_s", per_s);
    v.set("lookup_p50_us", threshold.quantile_us(0.50));
    v.set("lookup_p99_us", threshold.quantile_us(0.99));
    v.set("topk_p50_us", topk.quantile_us(0.50));
    v.set("lookups_per_s", per_s);
    v.set("ops.small_lookup_p50_us", small.quantile_us(0.50));
    v.set("ops.fat_lookup_p50_us", fat.quantile_us(0.50));
    (v, sums, ratio(op_ns as f64, all.count() as f64))
}

/// Runs `lookup-hot` or `lookup-cold`.
pub fn run(cfg: &Cfg, temp: Temperature) -> Res<Outcome> {
    let sc = scale(temp, cfg.smoke);
    let (ready, setup_s) = timed_setups(cfg, || setup(cfg, temp, &sc))?;
    let mut out = Outcome::default();
    out.values.set("setup_s", setup_s);
    out.values
        .set("segmented.segment_count", ready.segments as f64);
    let want_segments = match temp {
        Temperature::Hot => 0,
        Temperature::Cold => COLD_SEGMENTS,
    };
    out.gate(ready.segments == want_segments, || {
        format!(
            "{} live segments at measure start, want {want_segments}",
            ready.segments
        )
    });

    let mut rounds: Vec<Values> = Vec::new();
    let mut counted = StatSums::default();
    let result = run_rounds(cfg, 1, &ready.env.vfs, |phase| {
        // Every answer of every round is checked; the oracle digest makes
        // that one comparison per lookup.
        let (values, sums, time) = one_round(&ready, &mut out, phase != Phase::WarmUp);
        if phase != Phase::WarmUp {
            if rounds.is_empty() {
                counted = sums;
            }
            rounds.push(values);
        }
        Ok(time)
    })?;

    best_over(&rounds, &result.untraced, &ROUND_TIMINGS, &mut out.values);
    counted.write(&mut out.values);
    set_io_values(&mut out.values, &result.io);
    let miss = ratio(result.io.data_read_calls() as f64, counted.lookups as f64);
    out.values.set("buffer.miss_per_lookup", miss);
    out.values
        .set("trace_overhead_pct", result.trace_overhead_pct);
    if !cfg.smoke {
        match temp {
            Temperature::Hot => out.gate(miss <= 0.05, || {
                format!("buffer.miss_per_lookup = {miss:.3} on lookup-hot, want <= 0.05")
            }),
            Temperature::Cold => out.gate(miss >= 10.0, || {
                format!("buffer.miss_per_lookup = {miss:.3} on lookup-cold, want >= 10")
            }),
        }
    }
    let wrote: u64 = result.io.write_bytes.iter().sum();
    out.gate(wrote == 0, || {
        format!("{wrote} bytes written during a lookup round")
    });

    out.values.set("rss_mb", super::rss_mb());
    out.values.set(
        "disk_bytes_per_node",
        ratio(ready.env.disk_bytes() as f64, ready.nodes as f64),
    );
    out.note("docs", sc.docs);
    out.note("nodes", ready.nodes);
    out.note("pool_queries", ready.pool.len());
    out.note("lookups_per_round", ready.sequence.len());
    out.note("measured_rounds", rounds.len());
    out.note("traced_rounds", result.traced.len());
    out.note("corpus_digest", format!("{:#018x}", ready.corpus_digest));

    let Ready {
        env,
        writer,
        reader,
        probe,
        ..
    } = ready;
    drop((reader, writer));
    open_probe(cfg, &env, &probe, &mut out)?;
    if cfg.trace {
        crate::probes::run(cfg, &env, &mut out)?;
    }
    Ok(out)
}
