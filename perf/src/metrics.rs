//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics — one table each, from which the run output,
//! `BENCHMARK.json`, the README glossary and `perf compare` are all
//! derived or checked — plus the sample statistics every workload uses.

use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit tag.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression; `None` for per-layer metrics (not gated).
    pub bound: Option<f64>,
    /// One-line definition (README glossary).
    pub what: &'static str,
}

/// A workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lookup-hot",
        why: "compacted store whose working set fits the 1024-page pool: CPU-bound read path (planner, posting decode, filter, btree, distance)",
    },
    Workload {
        name: "lookup-cold",
        why: "same lookup mix over a main file several pools large plus 4 live segments: buffer misses, pager/vfs reads, fences, filters, source merge, open",
    },
    Workload {
        name: "ingest",
        why: "write-only stream into a fresh store: profile, memtable, segment build, manifest and journal commits, compaction bulk load, posting encode, space",
    },
    Workload {
        name: "edit-stream",
        why: "the paper's claim on the persistent path: update_from_log on small and large trees beside lookups over memtable and young segments",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

/// End-to-end metrics: reported by every workload on the untraced run and
/// gated by their bound. "The operation" is a lookup (threshold or top-k)
/// on the lookup workloads, one `put_trees` batch of 16 documents (profile
/// included) on `ingest`, and one `update_from_log` on `edit-stream`.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25,
        "generate inputs + oracle answers + build the starting store; median of 3 complete set-ups"),
    e2e("op_p50_us", "us", Lower, 0.25,
        "median latency of the workload's operation"),
    e2e("op_tail_us", "us", Lower, 0.25,
        "tail latency of the same samples: p99 of lookups (the fat class), p90 of ingest batches (the flushing ones), p95 of updates (large trees and 100-edit logs)"),
    e2e("ops_per_s", "1/s", Higher, 0.25,
        "lookups, documents, or cycle operations (1 update + 4 lookups) per second of summed operation time, stalls included"),
    e2e("disk_bytes_per_node", "B", Lower, 0.05,
        "live store file bytes / tree nodes stored, at the end of the measured phase"),
];

/// Per-layer metrics: reported by every workload on the traced run (0
/// where a layer is idle on that workload), never gated. Layer = module
/// name; unprefixed names are the per-operation-type end-to-end numbers
/// that exist on some workloads only.
pub const PER_LAYER: [Metric; 82] = [
    // Per-operation-type numbers (workload-specific, so not in END_TO_END).
    layer("lookup_p50_us", "us", Lower, "median threshold-lookup latency (all tau, small + fat); lookup-*, edit-stream"),
    layer("lookup_p99_us", "us", Lower, "p99 of the same samples; lookup-*"),
    layer("topk_p50_us", "us", Lower, "median lookup_top_k(k=10) latency; lookup-*"),
    layer("lookups_per_s", "1/s", Higher, "lookups / summed lookup time; lookup-*, edit-stream"),
    layer("ingest_docs_per_s", "1/s", Higher, "documents / (build_index + put_trees + flush + compact time); ingest"),
    layer("write_amp", "ratio", Lower, "bytes handed to write_all_at / (20 B x logical rows changed); ingest, edit-stream"),
    layer("update_p50_us", "us", Lower, "median update_from_log latency, triggered flush/compaction included; edit-stream"),
    layer("update_p99_us", "us", Lower, "p99 of the same samples; edit-stream"),
    layer("edits_per_s", "1/s", Higher, "log entries / summed update time; edit-stream"),
    layer("rss_mb", "MiB", Lower, "VmRSS at the end of the measured phase, corpus and oracle already dropped (allocator retention included)"),
    layer("open_ms", "ms", Lower, "lower quartile of 301 x (open_with + reader + first answer to a fixed foreign query)"),
    // core
    layer("core.profile_ns_per_node", "ns", Lower, "probe: build_index over corpus trees"),
    layer("core.distance_ns_per_pair", "ns", Lower, "probe: pq_distance over corpus index pairs"),
    layer("core.mem_lookup_us", "us", Lower, "probe: in-memory ForestIndex::lookup (the paper's Fig. 13 baseline)"),
    layer("core.delta_plus_us", "us", Lower, "mean UpdateStats::delta_plus per update"),
    layer("core.lambda_plus_us", "us", Lower, "mean UpdateStats::lambda_plus per update"),
    layer("core.delta_minus_us", "us", Lower, "mean UpdateStats::delta_minus per update"),
    layer("core.lambda_minus_us", "us", Lower, "mean UpdateStats::lambda_minus per update"),
    layer("core.delta_grams_per_edit", "count", Lower, "(plus_grams + minus_grams) / log entries"),
    // ops
    layer("ops.rows_per_lookup", "count", Lower, "LookupStats::rows_read per lookup"),
    layer("ops.grams_probed_per_lookup", "count", Lower, "LookupStats::grams_probed per lookup"),
    layer("ops.candidates_per_lookup", "count", Lower, "LookupStats::candidates per lookup"),
    layer("ops.hits_per_verified", "ratio", Higher, "hits / verified candidates (useful / attempted distance computations)"),
    layer("ops.hits_per_lookup", "count", Higher, "LookupStats::hits per lookup"),
    layer("ops.grams_skipped_budget_per_lookup", "count", Higher, "LookupStats::grams_skipped_budget per lookup"),
    layer("ops.rows_pruned_window_per_lookup", "count", Higher, "LookupStats::rows_pruned_window per lookup"),
    layer("ops.small_lookup_p50_us", "us", Lower, "median latency of small-query lookups"),
    layer("ops.fat_lookup_p50_us", "us", Lower, "median latency of fat-query lookups"),
    // postings
    layer("postings.blocks_decoded_per_lookup", "count", Lower, "LookupStats::blocks_decoded per lookup"),
    layer("postings.blocks_skipped_per_lookup", "count", Higher, "LookupStats::blocks_skipped per lookup"),
    layer("postings.bytes_decoded_per_lookup", "B", Lower, "LookupStats::bytes_decoded per lookup"),
    layer("postings.decode_ns_per_row", "ns", Lower, "probe: fuzz::decode_block on 256-row blocks"),
    layer("postings.encode_ns_per_row", "ns", Lower, "probe: fuzz::encode_block on 256-row blocks"),
    layer("postings.bytes_per_row", "B", Lower, "probe: encoded block bytes / rows"),
    // filter
    layer("filter.grams_skipped_per_lookup", "count", Higher, "LookupStats::grams_skipped_filter per lookup"),
    layer("filter.sources_skipped_per_lookup", "count", Higher, "LookupStats::sources_skipped_filter per lookup"),
    layer("filter.false_positive_per_lookup", "count", Lower, "LookupStats::filter_false_positive_probes per lookup"),
    layer("filter.load_us", "us", Lower, "probe: fuzz::filter_load of a bulk-created scratch store"),
    // fence
    layer("fence.locate_ns", "ns", Lower, "probe: fuzz::Fence::locate on the corpus's sorted gram column"),
    layer("fence.binsearch_ns", "ns", Lower, "probe: partition_point on the same column"),
    // btree
    layer("btree.get_ns", "ns", Lower, "probe: BTree::get on a scratch tree of corpus rows"),
    layer("btree.range_ns_per_row", "ns", Lower, "probe: BTree::for_each_range over the scratch tree"),
    layer("btree.bulk_load_ns_per_row", "ns", Lower, "probe: BTree::bulk_load of the corpus rows"),
    layer("btree.batch_ns_per_row", "ns", Lower, "probe: BTree::apply_batch_sorted upserts"),
    // buffer
    layer("buffer.miss_per_lookup", "count", Lower, "read calls on main + segment files / lookups"),
    layer("buffer.hit_ns", "ns", Lower, "probe: BufferPool::with_page on resident pages"),
    layer("buffer.miss_us", "us", Lower, "probe: BufferPool::with_page cycling 4096 pages through a 1024-frame pool"),
    // pager / journal
    layer("pager.commit_us_8p", "us", Lower, "probe: begin, dirty 8 pages, commit"),
    layer("journal.bytes_per_commit_8p", "B", Lower, "probe: journal bytes written per such commit"),
    layer("journal.syncs_per_commit", "count", Lower, "probe: sync calls (data + journal) per such commit"),
    // vfs (counts of the first measured rounds, see README)
    layer("vfs.read_calls", "count", Lower, "VfsFile::read_at calls"),
    layer("vfs.read_bytes", "B", Lower, "bytes returned by read_at"),
    layer("vfs.write_calls", "count", Lower, "VfsFile::write_all_at calls"),
    layer("vfs.write_bytes", "B", Lower, "bytes handed to write_all_at"),
    layer("vfs.sync_calls", "count", Lower, "VfsFile::sync calls (forwarded to fdatasync)"),
    layer("vfs.open_calls", "count", Lower, "Vfs::{create_new, create_truncate, open} calls"),
    layer("vfs.write_bytes.main", "B", Lower, "write bytes to <base>.main.<g>"),
    layer("vfs.write_bytes.seg", "B", Lower, "write bytes to <base>.seg.<s>"),
    layer("vfs.write_bytes.manifest", "B", Lower, "write bytes to the manifest"),
    layer("vfs.write_bytes.journal", "B", Lower, "write bytes to any -journal file"),
    layer("vfs.sync_calls.main", "count", Lower, "syncs of main files"),
    layer("vfs.sync_calls.seg", "count", Lower, "syncs of segment files"),
    layer("vfs.sync_calls.manifest", "count", Lower, "syncs of the manifest"),
    layer("vfs.sync_calls.journal", "count", Lower, "syncs of journal files"),
    layer("vfs.busy_us", "us", Lower, "traced rounds: mean time inside vfs calls per operation"),
    // index_store
    layer("index_store.bulk_create_ns_per_row", "ns", Lower, "probe: IndexStore::bulk_create of corpus indexes"),
    // segmented
    layer("segmented.segment_count", "count", Lower, "live segments when the measured phase starts"),
    layer("segmented.sources_per_lookup", "count", Lower, "LookupStats::sources_considered per lookup"),
    layer("segmented.flush_count", "count", Lower, "store calls during which segment_count grew"),
    layer("segmented.compact_count", "count", Lower, "compact() calls that folded at least one segment"),
    layer("segmented.put_us_per_doc", "us", Lower, "put_trees time / documents, flushing calls included"),
    layer("segmented.flush_ms_total", "ms", Lower, "summed duration of the flushing calls, per round"),
    layer("segmented.compact_ms_total", "ms", Lower, "summed duration of compact() calls, per round"),
    layer("segmented.stall_share", "ratio", Lower, "(flush + compact time) / summed operation time"),
    layer("segmented.open_self_ms", "ms", Lower, "traced: mean self time of open_with (duration minus vfs children)"),
    layer("segmented.lookup_self_us", "us", Lower, "traced: mean self time of a lookup call (duration minus vfs children)"),
    layer("segmented.update_small_p50_us", "us", Lower, "median update_from_log latency on small trees"),
    layer("segmented.update_large_p50_us", "us", Lower, "median update_from_log latency on large trees"),
    layer("segmented.update_large_over_small", "ratio", Lower, "ratio of the two medians (the paper's claim: 1.0)"),
    layer("segmented.apply_share", "ratio", Lower, "UpdateStats::apply / update time"),
    // harness
    layer("trace_overhead_pct", "%", Lower, "median over traced rounds of traced / neighbouring untraced operation time - 1"),
    layer("trace_spans", "count", Lower, "spans written to the trace file"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Values of one run, by metric name. Only names present in the tables
/// can be set; a metric never set reads as `0`.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`; panics on a name outside the tables —
    /// a typo must not silently create an undeclared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = find(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(metric.name, value);
    }

    /// The recorded value, `0` when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The `q`-quantile (nearest rank on the sorted samples); `0` when empty.
/// Sorts in place.
pub fn quantile<T: Copy + Ord + Into<u64>>(samples: &mut [T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    let v: u64 = samples[rank.clamp(1, samples.len()) - 1].into();
    v as f64
}

/// Median of floats (mean of the middle two for even counts); `0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, `0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The markdown glossary (`perf glossary`, embedded in README.md).
pub fn glossary() -> String {
    let mut out =
        String::from("| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let bound = m
            .bound
            .map_or_else(|| "-".to_owned(), |b| format!("{:.0} %", b * 100.0));
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v[..1], 0.99), 1.0);
        assert_eq!(quantile::<u32>(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
