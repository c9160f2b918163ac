//! `edit-stream`: the paper's contribution on the persistent path, writes
//! beside reads.
//!
//! The store holds many small trees and a few large ones. One cycle is one
//! `update_from_log` plus four `τ = 0.6` lookups, all on the writer handle
//! so the memtable is a live lookup source. An update picks a tree (10 %
//! large), applies a random INS/DEL/REN script of 1, 10 or 100 edits
//! (weights 70/20/10) to the harness's own copy and hands the store the
//! edited tree and the inverse log — exactly the paper's `(Tₙ, L)`. Which
//! cycle gets which tree class and log size is a seed-shuffled schedule
//! of 100 cycles holding those shares exactly, so every full round sees
//! the same mix. The
//! harness compacts when [`COMPACT_AT_SEGMENTS`] segments are live; that
//! stall belongs to the update that caused it. Every
//! [`CHECK_EVERY`]th lookup is compared with an oracle rebuilt from the
//! harness's trees; at the end the store must `verify()` and hold, for
//! every tree, exactly `build_index` of the harness's copy.
//!
//! The store evolves, so rounds are not alike: latencies are quantiles
//! over all samples of the untraced measured rounds, and counts cover the
//! first [`COUNT_ROUNDS`] rounds — several flushes and at least one
//! compaction.

use super::lookup::{answer_digest, StatSums};
use super::{
    ingest_untimed, open_probe, run_rounds, set_io_values, timed_setups, write_amp, Cfg, Env,
    Outcome, Phase, ProbeQuery, Samples, COMPACT_AT_SEGMENTS,
};
use crate::adapter::tree::{LabelSym, LabelTable, Tree};
use crate::adapter::{build_index, Lookups, Oracle, Res, Store, TreeId, TreeIndex, UpdateStats};
use crate::corpus::{alphabet_of, clustered, edit, query_variant};
use crate::metrics::ratio;
use crate::trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Threshold of every lookup in the stream.
const TAU: f64 = 0.6;
/// Lookups per update.
const LOOKUPS_PER_UPDATE: usize = 4;
/// One lookup in this many is compared with the oracle.
const CHECK_EVERY: u64 = 50;
/// Rounds whose counts are reported.
const COUNT_ROUNDS: usize = 4;

struct Scale {
    small: usize,
    small_nodes: usize,
    large: usize,
    large_nodes: usize,
    cycles_per_round: usize,
    count_rounds: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            small: 60,
            small_nodes: 200,
            large: 4,
            large_nodes: 1_000,
            cycles_per_round: 8,
            count_rounds: 1,
        }
    } else {
        Scale {
            small: 600,
            small_nodes: 200,
            large: 32,
            large_nodes: 5_000,
            cycles_per_round: 100,
            count_rounds: COUNT_ROUNDS,
        }
    }
}

struct Ready {
    env: Env,
    labels: LabelTable,
    trees: Vec<Tree>,
    /// Labels each tree's edits draw from (its vocabulary at set-up).
    alphabets: Vec<Vec<LabelSym>>,
    oracle: Oracle,
    small: usize,
    corpus_digest: u64,
}

fn setup(cfg: &Cfg, sc: &Scale) -> Res<Ready> {
    let corpus = clustered(
        cfg.seed,
        sc.small,
        sc.small_nodes..=sc.small_nodes,
        sc.large,
        sc.large_nodes,
    );
    let indexed: Vec<(TreeId, TreeIndex)> = corpus
        .docs
        .iter()
        .enumerate()
        .map(|(i, tree)| (TreeId(i as u64), build_index(tree, &corpus.labels)))
        .collect();
    let env = Env::fresh(cfg, "store")?;
    let mut store = Store::create(&env.base(), env.arc_vfs())?;
    ingest_untimed(&mut store, &indexed)?;
    // Durable and closed: the run re-opens it (that is the open probe).
    store.flush()?;
    drop(store);
    let mut oracle = Oracle::new();
    for (id, index) in indexed {
        oracle.insert(id, index);
    }
    let alphabets = corpus.docs.iter().map(alphabet_of).collect();
    Ok(Ready {
        env,
        small: sc.small,
        corpus_digest: corpus.digest(),
        trees: corpus.docs,
        labels: corpus.labels,
        alphabets,
        oracle,
    })
}

/// Samples and sums of one round.
#[derive(Default)]
struct Round {
    updates: Samples,
    small_updates: Samples,
    large_updates: Samples,
    lookups: Samples,
    update_ns: u64,
    lookup_ns: u64,
    flush_ns: u64,
    compact_ns: u64,
    flushes: u64,
    compactions: u64,
    log_entries: u64,
    delta_grams: u64,
    delta_plus: Duration,
    lambda_plus: Duration,
    delta_minus: Duration,
    lambda_minus: Duration,
    apply: Duration,
}

impl Round {
    fn absorb(&mut self, other: &Round) {
        self.updates.extend(&other.updates);
        self.small_updates.extend(&other.small_updates);
        self.large_updates.extend(&other.large_updates);
        self.lookups.extend(&other.lookups);
        self.update_ns += other.update_ns;
        self.lookup_ns += other.lookup_ns;
        self.flush_ns += other.flush_ns;
        self.compact_ns += other.compact_ns;
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.log_entries += other.log_entries;
        self.delta_grams += other.delta_grams;
        self.delta_plus += other.delta_plus;
        self.lambda_plus += other.lambda_plus;
        self.delta_minus += other.delta_minus;
        self.lambda_minus += other.lambda_minus;
        self.apply += other.apply;
    }

    fn add_update_stats(&mut self, s: &UpdateStats) {
        self.delta_grams += (s.plus_grams + s.minus_grams) as u64;
        self.delta_plus += s.delta_plus;
        self.lambda_plus += s.lambda_plus;
        self.delta_minus += s.delta_minus;
        self.lambda_minus += s.lambda_minus;
        self.apply += s.apply;
    }
}

/// 100 cycles: 10 on large trees, 90 on small ones, each class with log
/// sizes 1 / 10 / 100 in shares 70 / 20 / 10, in seed-shuffled order.
fn schedule(rng: &mut StdRng) -> Vec<(bool, usize)> {
    let mut cycles = Vec::with_capacity(100);
    for (large, count) in [(true, 10), (false, 90)] {
        for k in 0..count {
            let edits = match k * 10 / count {
                0..=6 => 1,
                7..=8 => 10,
                _ => 100,
            };
            cycles.push((large, edits));
        }
    }
    cycles.shuffle(rng);
    cycles
}

/// The evolving state one cycle after another works on.
struct Stream {
    ready: Ready,
    store: Store,
    rng: StdRng,
    /// Trees edited since the oracle last saw them.
    dirty: Vec<usize>,
    /// `(large tree?, log entries)` of cycle `c` at `c % 100`.
    schedule: Vec<(bool, usize)>,
    cycles_done: usize,
    lookups_done: u64,
    /// `LookupStats` of the counted rounds.
    counted_lookups: StatSums,
    counting: bool,
}

impl Stream {
    /// Brings the oracle up to date with the harness's trees.
    fn refresh_oracle(&mut self) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for i in self.dirty.drain(..) {
            let index = build_index(&self.ready.trees[i], &self.ready.labels);
            self.ready.oracle.insert(TreeId(i as u64), index);
        }
    }

    fn update(&mut self, sc: &Scale, round: &mut Round, out: &mut Outcome) {
        let r = &mut self.ready;
        let (large, edits) = self.schedule[self.cycles_done % self.schedule.len()];
        self.cycles_done += 1;
        let i = if large {
            r.small + self.rng.random_range(0..sc.large)
        } else {
            self.rng.random_range(0..r.small)
        };
        let log = edit(&mut self.rng, &mut r.trees[i], &r.alphabets[i], edits);
        self.dirty.push(i);

        let store = &mut self.store;
        let before = store.segment_count();
        let t = Instant::now();
        let result = {
            let _op = trace::enter("op.update");
            let stats = store.update_from_log(TreeId(i as u64), &r.trees[i], &r.labels, &log);
            let flushed = store.segment_count() > before;
            if flushed {
                round.flushes += 1;
                round.flush_ns += t.elapsed().as_nanos() as u64;
            }
            stats.and_then(|stats| {
                if store.segment_count() >= COMPACT_AT_SEGMENTS {
                    let t_compact = Instant::now();
                    store.compact()?;
                    round.compact_ns += t_compact.elapsed().as_nanos() as u64;
                    round.compactions += 1;
                }
                Ok(stats)
            })
        };
        let ns = t.elapsed().as_nanos() as u64;
        round.update_ns += ns;
        round.updates.push(ns);
        if large {
            &mut round.large_updates
        } else {
            &mut round.small_updates
        }
        .push(ns);
        round.log_entries += log.len() as u64;
        if let Ok(stats) = &result {
            round.add_update_stats(stats);
        }
        out.check(result.is_ok(), || {
            format!("update of tree {i} failed: {result:?}")
        });
    }

    fn lookup(&mut self, round: &mut Round, out: &mut Outcome) {
        let base = self.rng.random_range(0..self.ready.small);
        let query = query_variant(&mut self.rng, &self.ready.trees[base]);
        let query = build_index(&query, &self.ready.labels);
        let t = Instant::now();
        let result = {
            let _op = trace::enter("op.lookup");
            self.store.lookup(&query, TAU)
        };
        let ns = t.elapsed().as_nanos() as u64;
        round.lookup_ns += ns;
        round.lookups.push(ns);
        self.lookups_done += 1;
        match result {
            Ok((hits, stats)) => {
                if self.counting {
                    self.counted_lookups.add(&stats);
                }
                if self.lookups_done.is_multiple_of(CHECK_EVERY) {
                    self.refresh_oracle();
                    let want = answer_digest(&self.ready.oracle.lookup(&query, TAU));
                    let got = answer_digest(&hits);
                    out.check(got == want, || {
                        format!("lookup near tree {base}: got {got:#x}, oracle {want:#x}")
                    });
                } else {
                    out.check(true, String::new);
                }
            }
            Err(e) => out.check(false, || format!("lookup near tree {base} failed: {e}")),
        }
    }

    fn round(&mut self, sc: &Scale, out: &mut Outcome) -> Round {
        let mut round = Round::default();
        for _ in 0..sc.cycles_per_round {
            self.update(sc, &mut round, out);
            for _ in 0..LOOKUPS_PER_UPDATE {
                self.lookup(&mut round, out);
            }
        }
        round
    }
}

/// Runs `edit-stream`.
pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let sc = scale(cfg.smoke);
    let (ready, setup_s) = timed_setups(cfg, || setup(cfg, &sc))?;
    let mut out = Outcome::default();
    out.values.set("setup_s", setup_s);

    // The open probe runs first, on the store exactly as set-up left it —
    // main file plus the segments of the initial load — because where the
    // stream leaves the store depends on how far the host got in the time
    // budget (and open cost grows with the flushes a store has seen).
    open_probe(cfg, &ready.env, &ProbeQuery::new(&ready.oracle), &mut out)?;
    let store = Store::open(&ready.env.base(), ready.env.arc_vfs())?;
    out.values
        .set("segmented.segment_count", store.segment_count() as f64);

    let vfs = ready.env.vfs.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0003);
    let mut stream = Stream {
        ready,
        store,
        schedule: schedule(&mut rng),
        cycles_done: 0,
        rng,
        dirty: Vec::new(),
        lookups_done: 0,
        counted_lookups: StatSums::default(),
        counting: false,
    };
    let mut rounds: Vec<Round> = Vec::new();
    let result = run_rounds(cfg, sc.count_rounds, &vfs, |phase| {
        stream.counting = phase != Phase::WarmUp && rounds.len() < sc.count_rounds;
        let round = stream.round(&sc, &mut out);
        // Flush and compaction stalls fall into different rounds on the
        // traced and the untraced side; the overhead estimate compares
        // operation time without them.
        let time = ratio(
            (round.update_ns + round.lookup_ns - round.flush_ns - round.compact_ns) as f64,
            (round.updates.count() + round.lookups.count()) as u64 as f64,
        );
        if phase != Phase::WarmUp {
            rounds.push(round);
        }
        Ok(time)
    })?;

    // Latencies: all samples of the untraced measured rounds.
    let mut all = Round::default();
    for &i in &result.untraced {
        all.absorb(&rounds[i]);
    }
    // Counts: the first `count_rounds` rounds (never traced).
    let mut counted = Round::default();
    for round in rounds.iter().take(sc.count_rounds) {
        counted.absorb(round);
    }

    let v = &mut out.values;
    let updates = all.updates.count() as f64;
    let op_s = (all.update_ns + all.lookup_ns) as f64 / 1e9;
    v.set("op_p50_us", all.updates.quantile_us(0.50));
    v.set("op_tail_us", all.updates.quantile_us(0.95));
    v.set(
        "ops_per_s",
        ratio(updates + all.lookups.count() as f64, op_s),
    );
    v.set("update_p50_us", all.updates.quantile_us(0.50));
    v.set("update_p99_us", all.updates.quantile_us(0.99));
    v.set(
        "edits_per_s",
        ratio(all.log_entries as f64, all.update_ns as f64 / 1e9),
    );
    v.set("lookup_p50_us", all.lookups.quantile_us(0.50));
    v.set("lookup_p99_us", all.lookups.quantile_us(0.99));
    v.set(
        "lookups_per_s",
        ratio(all.lookups.count() as f64, all.lookup_ns as f64 / 1e9),
    );
    v.set("ops.small_lookup_p50_us", all.lookups.quantile_us(0.50));
    let small_p50 = all.small_updates.quantile_us(0.50);
    let large_p50 = all.large_updates.quantile_us(0.50);
    v.set("segmented.update_small_p50_us", small_p50);
    v.set("segmented.update_large_p50_us", large_p50);
    v.set(
        "segmented.update_large_over_small",
        ratio(large_p50, small_p50),
    );
    v.set(
        "segmented.apply_share",
        ratio(all.apply.as_nanos() as f64, all.update_ns as f64),
    );
    v.set("segmented.flush_ms_total", all.flush_ns as f64 / 1e6);
    v.set("segmented.compact_ms_total", all.compact_ns as f64 / 1e6);
    v.set(
        "segmented.stall_share",
        ratio((all.flush_ns + all.compact_ns) as f64, op_s * 1e9),
    );
    let per_update_us = |d: Duration| ratio(d.as_nanos() as f64 / 1e3, updates);
    v.set("core.delta_plus_us", per_update_us(all.delta_plus));
    v.set("core.lambda_plus_us", per_update_us(all.lambda_plus));
    v.set("core.delta_minus_us", per_update_us(all.delta_minus));
    v.set("core.lambda_minus_us", per_update_us(all.lambda_minus));
    v.set(
        "core.delta_grams_per_edit",
        ratio(counted.delta_grams as f64, counted.log_entries as f64),
    );
    v.set("segmented.flush_count", counted.flushes as f64);
    v.set("segmented.compact_count", counted.compactions as f64);
    v.set("write_amp", write_amp(&result.io, counted.delta_grams));
    stream.counted_lookups.write(v);
    set_io_values(v, &result.io);
    v.set(
        "buffer.miss_per_lookup",
        ratio(
            result.io.data_read_calls() as f64,
            stream.counted_lookups.lookups as f64,
        ),
    );
    v.set("trace_overhead_pct", result.trace_overhead_pct);
    let compactions: u64 = rounds.iter().map(|r| r.compactions).sum();
    if !cfg.smoke {
        out.gate(counted.compactions >= 1, || {
            format!(
                "no compaction in the first {} rounds of edit-stream",
                sc.count_rounds
            )
        });
    }

    // Final state: everything the stream wrote must be there.
    let Stream {
        ready, mut store, ..
    } = stream;
    out.note("corpus_digest", format!("{:#018x}", ready.corpus_digest));
    let Ready {
        env,
        labels,
        trees,
        oracle,
        ..
    } = ready;
    drop(oracle);
    super::check_verify(&store, trees.len() as u64, &mut out);
    let mut nodes = 0u64;
    for (i, tree) in trees.iter().enumerate() {
        nodes += tree.node_count() as u64;
        let want = build_index(tree, &labels);
        let got = store.tree_index(TreeId(i as u64));
        out.check(
            got.as_ref().is_ok_and(|g| g.as_ref() == Some(&want)),
            || format!("tree {i}: stored index differs from build_index of the edited tree"),
        );
    }
    // Where the time budget ends — memtable half full, two segments or
    // seven — is an accident of the host's speed. Space is taken from the
    // one state every run can reach: compacted.
    let compacted = store.compact();
    out.check(compacted.is_ok(), || {
        format!("closing compaction failed: {compacted:?}")
    });
    drop((trees, labels));
    out.values.set("rss_mb", super::rss_mb());
    out.values.set(
        "disk_bytes_per_node",
        ratio(env.disk_bytes() as f64, nodes as f64),
    );
    out.note("cycles_per_round", sc.cycles_per_round);
    out.note("counted_rounds", sc.count_rounds);
    out.note("measured_rounds", rounds.len());
    out.note("compactions", compactions);
    out.note("updates_sampled", all.updates.count());

    drop(store);
    if cfg.trace {
        crate::probes::run(cfg, &env, &mut out)?;
    }
    Ok(out)
}
