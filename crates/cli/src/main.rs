#![forbid(unsafe_code)]
//! `pqgram` — command-line interface to the pq-gram index.
//!
//! ```text
//! pqgram create  <store.pqg> [--p 3 --q 3] [--segmented]
//! pqgram add     <store.pqg> --id <n> <doc.xml>...
//! pqgram remove  <store.pqg> --id <n>
//! pqgram lookup  <store.pqg> <query.xml> [--tau 0.6] [--top-k K] [--top 10] [--stats]
//! pqgram stats   <store.pqg>
//! pqgram dist    <a.xml> <b.xml> [--p 3 --q 3] [--ted]
//! pqgram grams   <doc.xml> [--p 3 --q 3] [--limit 20]
//! pqgram gen     <xmark|dblp|random> [--nodes 10000] [--seed 1] [--out file.xml]
//!
//! # document store (documents + index, synced via tree diff)
//! pqgram init    <store.docs> [--p 3 --q 3]
//! pqgram put     <store.docs> --id <n> <doc.xml>
//! pqgram syncdoc <store.docs> --id <n> <new.xml>
//! pqgram get     <store.docs> --id <n> [--out file.xml]
//! pqgram find    <store.docs> <query.xml> [--tau 0.6] [--top 10]
//! pqgram diff    <a.xml> <b.xml>
//! ```
#![warn(missing_docs)]

mod args;

use args::Args;
use pqgram_core::{build_index, pq_distance, PQParams, TreeId};
use pqgram_store::document::{DocumentStore, SyncOutcome};
use pqgram_store::{
    IndexStore, LookupPlan, LookupStats, RelationBytes, SegmentedIndexStore, StoreCheck,
    MAIN_SOURCE, MEMTABLE_SOURCE,
};
use pqgram_tree::generate::{dblp, random_tree, xmark, RandomTreeConfig};
use pqgram_tree::{LabelTable, Tree};
use pqgram_xml::{parse_document, write_document, WriteOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
pqgram — incrementally maintainable pq-gram index (VLDB 2006)

USAGE:
  pqgram create  <store.pqg> [--p 3 --q 3]        create an index store
                 [--segmented]                    (memtable/segment layout)
  pqgram add     <store.pqg> --id <n> <doc.xml>…  index XML document(s)
                 [--threads N]                    (parallel profiling)
  pqgram remove  <store.pqg> --id <n>             drop a document's index
  pqgram lookup  <store.pqg> <query.xml>          approximate lookup
                 [--tau 0.6] [--top 10]
                 [--top-k K]                      (k nearest, any distance)
                 [--stats]                        (pruning/access counters)
  pqgram stats   <store.pqg>                      store statistics
  pqgram dist    <a.xml> <b.xml> [--p --q] [--ted]  pairwise distance
  pqgram grams   <doc.xml> [--p --q] [--limit 20] dump pq-gram tuples
  pqgram gen     <xmark|dblp|random> [--nodes N] [--seed S] [--out F]

document store (documents + index in one file, synced via tree diff):
  pqgram init    <store.docs> [--p 3 --q 3]       create a document store
  pqgram put     <store.docs> --id <n> <doc.xml>  store + index a document
  pqgram syncdoc <store.docs> --id <n> <new.xml>  diff against the stored
                                                  version, update incrementally
  pqgram get     <store.docs> --id <n> [--out F]  dump a stored document
  pqgram find    <store.docs> <query.xml>         approximate lookup
  pqgram diff    <a.xml> <b.xml>                  show the derived edit script
  pqgram join    <left.pqg> <right.pqg> [--tau]   approximate join of stores
                 [--threads N] [--stats]          (parallel verification)
  pqgram show    <doc.xml> [--limit 50] [--dot]   render the document tree
  pqgram compact <store.pqg> <out.pqg>            rewrite a store compactly
  pqgram update  <store.pqg> --id <n> <old.xml> <new.xml>
                                                  incremental index update by
                                                  diffing two file versions
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "create" => cmd_create(&args),
        "add" => cmd_add(&args),
        "remove" => cmd_remove(&args),
        "lookup" => cmd_lookup(&args),
        "stats" => cmd_stats(&args),
        "dist" => cmd_dist(&args),
        "grams" => cmd_grams(&args),
        "gen" => cmd_gen(&args),
        "init" => cmd_init(&args),
        "put" => cmd_put(&args),
        "syncdoc" => cmd_syncdoc(&args),
        "get" => cmd_get(&args),
        "find" => cmd_find(&args),
        "diff" => cmd_diff(&args),
        "join" => cmd_join(&args),
        "show" => cmd_show(&args),
        "compact" => cmd_compact(&args),
        "update" => cmd_update(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn params_from(args: &Args) -> Result<PQParams, String> {
    let p = args.opt_or::<usize>("p", 3)?;
    let q = args.opt_or::<usize>("q", 3)?;
    if p == 0 || q == 0 {
        return Err("p and q must be at least 1".into());
    }
    Ok(PQParams::new(p, q))
}

fn load_document(path: &str, labels: &mut LabelTable) -> Result<Tree, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_document(&content, labels).map_err(|e| format!("{path}: {e}"))
}

/// An index store of either on-disk layout. The two formats carry
/// distinct kind markers, so opening a path probes the single-file layout
/// first and falls back to the segmented manifest — commands work on both
/// without a flag. When neither opens, the error reported is the one of
/// the layout the path holds: the single-file open names the kind it found.
enum AnyStore {
    Single(IndexStore),
    Segmented(SegmentedIndexStore),
}

impl AnyStore {
    fn open(path: &str) -> Result<AnyStore, String> {
        let single_err = match IndexStore::open(Path::new(path)) {
            Ok(store) => return Ok(AnyStore::Single(store)),
            Err(e) => e.to_string(),
        };
        match SegmentedIndexStore::open(Path::new(path)) {
            Ok(store) => Ok(AnyStore::Segmented(store)),
            Err(e) if single_err.contains("the file is a segmented-store manifest") => {
                Err(e.to_string())
            }
            Err(_) => Err(single_err),
        }
    }

    fn params(&self) -> PQParams {
        match self {
            AnyStore::Single(s) => s.params(),
            AnyStore::Segmented(s) => s.params(),
        }
    }

    // Segmented mutations buffer in an in-process memtable; the CLI is a
    // one-shot process, so every mutating command must flush before exit
    // or the change silently evaporates with the process.
    fn put_trees(&mut self, batch: &[(TreeId, pqgram_core::TreeIndex)]) -> Result<(), String> {
        match self {
            AnyStore::Single(s) => s.put_trees(batch),
            AnyStore::Segmented(s) => s.put_trees(batch).and_then(|()| s.flush()),
        }
        .map_err(|e| e.to_string())
    }

    fn remove_tree(&mut self, id: TreeId) -> Result<bool, String> {
        match self {
            AnyStore::Single(s) => s.remove_tree(id),
            AnyStore::Segmented(s) => s
                .remove_tree(id)
                .and_then(|existed| s.flush().map(|()| existed)),
        }
        .map_err(|e| e.to_string())
    }

    fn update_from_log(
        &mut self,
        id: TreeId,
        tree: &Tree,
        labels: &LabelTable,
        log: &pqgram_tree::EditLog,
    ) -> Result<pqgram_core::UpdateStats, String> {
        match self {
            AnyStore::Single(s) => s.update_from_log(id, tree, labels, log),
            AnyStore::Segmented(s) => s
                .update_from_log(id, tree, labels, log)
                .and_then(|stats| s.flush().map(|()| stats)),
        }
        .map_err(|e| e.to_string())
    }

    fn lookup_with_stats(
        &self,
        query: &pqgram_core::TreeIndex,
        tau: f64,
    ) -> Result<(Vec<pqgram_core::LookupHit>, LookupStats), String> {
        match self {
            AnyStore::Single(s) => s.lookup_with_stats(query, tau),
            AnyStore::Segmented(s) => s.lookup_with_stats(query, tau),
        }
        .map_err(|e| e.to_string())
    }

    fn lookup_top_k_with_stats(
        &self,
        query: &pqgram_core::TreeIndex,
        k: usize,
    ) -> Result<(Vec<pqgram_core::LookupHit>, LookupStats), String> {
        match self {
            AnyStore::Single(s) => s.lookup_top_k_with_stats(query, k),
            AnyStore::Segmented(s) => s.lookup_top_k_with_stats(query, k),
        }
        .map_err(|e| e.to_string())
    }

    fn tree_ids(&self) -> Result<Vec<TreeId>, String> {
        match self {
            AnyStore::Single(s) => s.tree_ids(),
            AnyStore::Segmented(s) => s.tree_ids(),
        }
        .map_err(|e| e.to_string())
    }

    fn tree_index(&self, id: TreeId) -> Result<Option<pqgram_core::TreeIndex>, String> {
        match self {
            AnyStore::Single(s) => s.tree_index(id),
            AnyStore::Segmented(s) => s.tree_index(id),
        }
        .map_err(|e| e.to_string())
    }

    fn verify(&self) -> Result<StoreCheck, String> {
        match self {
            AnyStore::Single(s) => s.verify(),
            AnyStore::Segmented(s) => s.verify(),
        }
        .map_err(|e| e.to_string())
    }
}

/// Per-relation on-disk footprint as one human-readable line.
fn describe_relation_bytes(b: &RelationBytes) -> String {
    let kib = |n: u64| format!("{:.1} KiB", n as f64 / 1024.0);
    format!(
        "forward {}, inverted {} (directory {} + blocks {}), totals {}, relations total {}",
        kib(b.forward),
        kib(b.inverted_total()),
        kib(b.inverted_directory),
        kib(b.posting_blocks),
        kib(b.totals),
        kib(b.total())
    )
}

/// `by_source` rendered as `memtable`, `seg <n>`, and `main` row counts.
fn describe_sources(stats: &LookupStats) -> String {
    stats
        .by_source
        .iter()
        .map(|&(source, rows)| match source {
            MEMTABLE_SOURCE => format!("memtable {rows}"),
            MAIN_SOURCE => format!("main {rows}"),
            seq => format!("seg {seq}: {rows}"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_create(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let params = params_from(args)?;
    if args.flag("segmented") {
        SegmentedIndexStore::create(Path::new(store_path), params).map_err(|e| e.to_string())?;
        println!("created segmented store {store_path} ({params}-grams)");
    } else {
        IndexStore::create(Path::new(store_path), params).map_err(|e| e.to_string())?;
        println!("created {store_path} ({params}-grams)");
    }
    Ok(())
}

fn cmd_add(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let docs = args.rest(1);
    if docs.is_empty() {
        return Err("missing <doc.xml>".into());
    }
    let first_id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let threads = args.opt_or::<usize>("threads", 1)?;
    let mut store = AnyStore::open(store_path)?;
    let params = store.params();
    let mut labels = LabelTable::new();
    let mut trees = Vec::new();
    for (offset, doc) in docs.iter().enumerate() {
        let tree = load_document(doc, &mut labels)?;
        trees.push((TreeId(first_id + offset as u64), tree));
    }
    // Profile in parallel (pure and deterministic per document), then feed
    // the whole batch to the writer: one transaction on a single-file
    // store, one segment on a segmented one.
    let batch: Vec<(TreeId, pqgram_core::TreeIndex)> =
        pqgram_core::par::map(&trees, threads, |(id, tree)| {
            (*id, build_index(tree, &labels, params))
        });
    store.put_trees(&batch)?;
    for (((id, tree), (_, index)), doc) in trees.iter().zip(&batch).zip(docs) {
        println!(
            "indexed {doc} as tree {}: {} nodes, {} pq-grams ({} distinct)",
            id.0,
            tree.node_count(),
            index.total(),
            index.distinct()
        );
    }
    Ok(())
}

fn cmd_remove(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let mut store = AnyStore::open(store_path)?;
    if store.remove_tree(TreeId(id))? {
        println!("removed tree {id}");
        Ok(())
    } else {
        Err(format!("tree {id} is not in the store"))
    }
}

fn cmd_lookup(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let query_path = args.positional(1, "query.xml")?;
    let tau = args.opt_or::<f64>("tau", 0.6)?;
    let top = args.opt_or::<usize>("top", 10)?;
    let store = AnyStore::open(store_path)?;
    let mut labels = LabelTable::new();
    let query_tree = load_document(query_path, &mut labels)?;
    let query = build_index(&query_tree, &labels, store.params());
    let top_k = args.opt::<usize>("top-k")?;
    let (hits, stats) = match top_k {
        // --top-k: the k nearest trees regardless of any threshold, via
        // the heap-tightened planner bound.
        Some(k) => store.lookup_top_k_with_stats(&query, k)?,
        None => store.lookup_with_stats(&query, tau)?,
    };
    let plan = match stats.plan {
        LookupPlan::CandidateMerge => "inverted candidate-merge",
        LookupPlan::ExhaustiveReference => "exhaustive scan (reference)",
    };
    match top_k {
        Some(k) => eprintln!("plan: {plan} (top-k = {k})"),
        None => eprintln!("plan: {plan} (tau = {tau})"),
    }
    if args.flag("stats") {
        println!(
            "plan: {plan} ({} rows read, {} grams probed, {} candidates, {} verified)",
            stats.rows_read, stats.grams_probed, stats.candidates, stats.verified
        );
        println!(
            "pruning: {} sources considered, {} skipped by filter, {} skipped by size \
             window; {} grams skipped by filter, {} by overlap budget; {} rows pruned by \
             size window, {} filter false-positive probes",
            stats.sources_considered,
            stats.sources_skipped_filter,
            stats.sources_skipped_window,
            stats.grams_skipped_filter,
            stats.grams_skipped_budget,
            stats.rows_pruned_window,
            stats.filter_false_positive_probes
        );
        println!(
            "postings: {} blocks decoded ({} bytes), {} blocks skipped",
            stats.blocks_decoded, stats.bytes_decoded, stats.blocks_skipped
        );
        println!("rows by source: {}", describe_sources(&stats));
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        let ph = &stats.phases;
        println!(
            "phases: plan {:.1} us, probe {:.1} us, verify {:.1} us, sort {:.1} us ({:.1} us total)",
            us(ph.plan),
            us(ph.probe),
            us(ph.verify),
            us(ph.sort),
            us(ph.total())
        );
    }
    if hits.is_empty() {
        match top_k {
            Some(_) => println!("no documents in the store"),
            None => println!("no documents within distance {tau}"),
        }
        return Ok(());
    }
    println!("{:>8}  {:>10}", "tree", "distance");
    for hit in hits.iter().take(top) {
        println!("{:>8}  {:>10.4}", hit.tree_id.0, hit.distance);
    }
    if hits.len() > top {
        println!("… {} more below tau (raise --top)", hits.len() - top);
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let store = AnyStore::open(store_path)?;
    let ids = store.tree_ids()?;
    println!("store:      {store_path}");
    println!("params:     {}-grams", store.params());
    println!("documents:  {}", ids.len());
    match &store {
        AnyStore::Single(s) => {
            let rows = s.row_count().map_err(|e| e.to_string())?;
            let file_len = std::fs::metadata(store_path).map(|m| m.len()).unwrap_or(0);
            println!("index rows: {rows}");
            println!("file size:  {:.1} KiB", file_len as f64 / 1024.0);
            let bytes = s.relation_bytes().map_err(|e| e.to_string())?;
            println!("on disk:    {}", describe_relation_bytes(&bytes));
        }
        AnyStore::Segmented(s) => {
            println!(
                "layout:     segmented (generation {}, {} live segment(s), {} buffered \
                 memtable entries)",
                s.generation(),
                s.segment_count(),
                s.pending_entries()
            );
            let mut sum = RelationBytes::default();
            for (source, bytes) in s.relation_bytes().map_err(|e| e.to_string())? {
                let name = match source {
                    MAIN_SOURCE => "main".to_string(),
                    seq => format!("seg {seq}"),
                };
                println!("  {name:<9} {}", describe_relation_bytes(&bytes));
                sum.forward += bytes.forward;
                sum.inverted_directory += bytes.inverted_directory;
                sum.posting_blocks += bytes.posting_blocks;
                sum.totals += bytes.totals;
            }
            println!("  {:<9} {}", "all", describe_relation_bytes(&sum));
        }
    }
    if args.flag("verify") {
        let check = store.verify()?;
        println!(
            "integrity:  ok ({} trees; forward {} entries depth {}, inverted {} entries depth {}, \
             totals {} entries)",
            check.trees,
            check.forward.entries,
            check.forward.depth,
            check.inverted.entries,
            check.inverted.depth,
            check.totals.entries
        );
    }
    for id in ids.iter().take(20) {
        if let Some(idx) = store.tree_index(*id)? {
            println!(
                "  tree {:>6}: {:>8} grams ({} distinct)",
                id.0,
                idx.total(),
                idx.distinct()
            );
        }
    }
    if ids.len() > 20 {
        println!("  … {} more", ids.len() - 20);
    }
    Ok(())
}

fn cmd_dist(args: &Args) -> Result<(), String> {
    let a_path = args.positional(0, "a.xml")?;
    let b_path = args.positional(1, "b.xml")?;
    let params = params_from(args)?;
    let mut labels = LabelTable::new();
    let a = load_document(a_path, &mut labels)?;
    let b = load_document(b_path, &mut labels)?;
    let d = pq_distance(
        &build_index(&a, &labels, params),
        &build_index(&b, &labels, params),
    )
    .map_err(|e| e.to_string())?;
    println!("pq-gram distance ({params}-grams): {d:.6}");
    if args.flag("ted") {
        let ted = pqgram_ted::tree_edit_distance(&a, &b);
        println!("exact tree edit distance:        {ted}");
    }
    Ok(())
}

fn cmd_grams(args: &Args) -> Result<(), String> {
    let doc_path = args.positional(0, "doc.xml")?;
    let params = params_from(args)?;
    let limit = args.opt_or::<usize>("limit", 20)?;
    let mut labels = LabelTable::new();
    let tree = load_document(doc_path, &mut labels)?;
    let mut shown = 0usize;
    let mut total = 0usize;
    pqgram_core::for_each_gram(&tree, params, |ppart, qpart| {
        total += 1;
        if shown < limit {
            let fmt = |e: &pqgram_core::GramNode| labels.name(e.label()).to_string();
            let pp: Vec<_> = ppart.iter().map(fmt).collect();
            let qp: Vec<_> = qpart.iter().map(fmt).collect();
            println!("({} | {})", pp.join(","), qp.join(","));
            shown += 1;
        }
    });
    if total > shown {
        println!("… {} more ({} total)", total - shown, total);
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let kind = args.positional(0, "xmark|dblp|random")?;
    let nodes = args.opt_or::<usize>("nodes", 10_000)?;
    let seed = args.opt_or::<u64>("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = LabelTable::new();
    let tree = match kind {
        "xmark" => xmark(&mut rng, &mut labels, nodes),
        "dblp" => dblp(&mut rng, &mut labels, nodes),
        "random" => random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(nodes, 12)),
        other => return Err(format!("unknown generator {other:?} (xmark|dblp|random)")),
    };
    let xml = write_document(
        &tree,
        &labels,
        &WriteOptions {
            indent: None,
            declaration: true,
        },
    );
    match args.opt::<String>("out")? {
        Some(path) => {
            std::fs::write(&path, &xml).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote {} ({} nodes, {:.1} KiB)",
                path,
                tree.node_count(),
                xml.len() as f64 / 1024.0
            );
        }
        None => print!("{xml}"),
    }
    Ok(())
}

fn cmd_init(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.docs")?;
    let params = params_from(args)?;
    DocumentStore::create(Path::new(store_path), params).map_err(|e| e.to_string())?;
    println!("created document store {store_path} ({params}-grams)");
    Ok(())
}

fn cmd_put(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.docs")?;
    let doc = args.positional(1, "doc.xml")?;
    let id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let mut store = DocumentStore::open(Path::new(store_path)).map_err(|e| e.to_string())?;
    let mut labels = LabelTable::new();
    let tree = load_document(doc, &mut labels)?;
    store
        .put(TreeId(id), &tree, &labels)
        .map_err(|e| e.to_string())?;
    println!(
        "stored {doc} as document {id} ({} nodes)",
        tree.node_count()
    );
    Ok(())
}

fn cmd_syncdoc(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.docs")?;
    let doc = args.positional(1, "new.xml")?;
    let id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let mut store = DocumentStore::open(Path::new(store_path)).map_err(|e| e.to_string())?;
    let mut labels = LabelTable::new();
    let tree = load_document(doc, &mut labels)?;
    match store
        .sync(TreeId(id), &tree, &labels)
        .map_err(|e| e.to_string())?
    {
        SyncOutcome::Incremental {
            script_len,
            optimized_len,
            stats,
        } => {
            println!(
                "synced document {id}: {script_len} derived edits ({optimized_len} after \
                 preprocessing), index updated incrementally in {:.2?} \
                 (+{} / -{} grams)",
                stats.total(),
                stats.plus_grams,
                stats.minus_grams,
            );
        }
        SyncOutcome::Reindexed => {
            println!("synced document {id}: root changed, re-indexed from scratch");
        }
    }
    Ok(())
}

fn cmd_get(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.docs")?;
    let id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let store = DocumentStore::open(Path::new(store_path)).map_err(|e| e.to_string())?;
    let Some((tree, labels)) = store.document(TreeId(id)).map_err(|e| e.to_string())? else {
        return Err(format!("document {id} is not in the store"));
    };
    let xml = write_document(
        &tree,
        &labels,
        &WriteOptions {
            indent: Some(2),
            declaration: true,
        },
    );
    match args.opt::<String>("out")? {
        Some(path) => {
            std::fs::write(&path, &xml).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path} ({} nodes)", tree.node_count());
        }
        None => print!("{xml}"),
    }
    Ok(())
}

fn cmd_find(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.docs")?;
    let query_path = args.positional(1, "query.xml")?;
    let tau = args.opt_or::<f64>("tau", 0.6)?;
    let top = args.opt_or::<usize>("top", 10)?;
    let store = DocumentStore::open(Path::new(store_path)).map_err(|e| e.to_string())?;
    let mut labels = LabelTable::new();
    let query_tree = load_document(query_path, &mut labels)?;
    let query = build_index(&query_tree, &labels, store.params());
    let hits = store.lookup(&query, tau).map_err(|e| e.to_string())?;
    if hits.is_empty() {
        println!("no documents within distance {tau}");
        return Ok(());
    }
    println!("{:>8}  {:>10}", "doc", "distance");
    for hit in hits.iter().take(top) {
        println!("{:>8}  {:>10.4}", hit.tree_id.0, hit.distance);
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), String> {
    let a_path = args.positional(0, "a.xml")?;
    let b_path = args.positional(1, "b.xml")?;
    let mut labels = LabelTable::new();
    let mut a = load_document(a_path, &mut labels)?;
    let mut b_labels = LabelTable::new();
    let b = load_document(b_path, &mut b_labels)?;
    let log = pqgram_diff::sync(&mut a, &mut labels, &b, &b_labels).map_err(|e| e.to_string())?;
    println!(
        "{} edit operations transform {a_path} into {b_path}:",
        log.len()
    );
    for (i, entry) in log.ops().iter().enumerate().take(50) {
        use pqgram_tree::EditOp;
        // The log holds inverse operations; print the forward reading.
        let line = match entry.op {
            EditOp::Delete { node } => format!("INS {node:?}"),
            EditOp::Insert { node, .. } => format!("DEL {node:?}"),
            EditOp::Rename { node, label } => {
                format!("REN {node:?} (was {:?})", labels.name(label))
            }
        };
        println!("  {:>4}. {line}", i + 1);
    }
    if log.len() > 50 {
        println!("  … {} more", log.len() - 50);
    }
    Ok(())
}

fn cmd_join(args: &Args) -> Result<(), String> {
    let left_path = args.positional(0, "left.pqg")?;
    let right_path = args.positional(1, "right.pqg")?;
    let tau = args.opt_or::<f64>("tau", 0.5)?;
    let top = args.opt_or::<usize>("top", 20)?;
    let threads = args.opt_or::<usize>("threads", 1)?;
    let load = |path: &str| -> Result<pqgram_core::ForestIndex, String> {
        let store = AnyStore::open(path)?;
        let mut forest = pqgram_core::ForestIndex::new();
        for id in store.tree_ids()? {
            let idx = store
                .tree_index(id)?
                .ok_or_else(|| format!("{path}: tree {} is listed but has no index rows", id.0))?;
            forest.insert(id, idx);
        }
        Ok(forest)
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    let (pairs, stats) =
        pqgram_core::join_parallel(&left, &right, tau, threads).map_err(|e| e.to_string())?;
    let plan = if stats.used_filter {
        "inverted candidate filter"
    } else {
        "exhaustive nested scan"
    };
    // tau > 1 silently falls off the filtered plan; always say so on stderr.
    eprintln!("plan: {plan} (tau = {tau})");
    if args.flag("stats") {
        println!(
            "plan: {plan} ({} naive, {} candidates, {} verified)",
            stats.pairs_naive, stats.pairs_candidates, stats.pairs_verified
        );
    }
    println!(
        "join of {} x {} trees (tau = {tau}): {} pairs \
         ({} naive -> {} candidates -> {} verified)",
        left.len(),
        right.len(),
        pairs.len(),
        stats.pairs_naive,
        stats.pairs_candidates,
        stats.pairs_verified
    );
    println!("{:>8} {:>8} {:>10}", "left", "right", "distance");
    for p in pairs.iter().take(top) {
        println!("{:>8} {:>8} {:>10.4}", p.left.0, p.right.0, p.distance);
    }
    if pairs.len() > top {
        println!("… {} more (raise --top)", pairs.len() - top);
    }
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let doc_path = args.positional(0, "doc.xml")?;
    let limit = args.opt_or::<usize>("limit", 50)?;
    let mut labels = LabelTable::new();
    let tree = load_document(doc_path, &mut labels)?;
    if args.flag("dot") {
        print!("{}", pqgram_tree::render::render_dot(&tree, &labels, limit));
    } else {
        print!(
            "{}",
            pqgram_tree::render::render_text(&tree, &labels, tree.root(), limit)
        );
    }
    Ok(())
}

fn cmd_compact(args: &Args) -> Result<(), String> {
    let src = args.positional(0, "store.pqg")?;
    let dst = args.positional(1, "out.pqg")?;
    let store = IndexStore::open(Path::new(src)).map_err(|e| e.to_string())?;
    let compacted = store
        .compact_to(Path::new(dst))
        .map_err(|e| e.to_string())?;
    compacted.verify().map_err(|e| e.to_string())?;
    let before = std::fs::metadata(src).map(|m| m.len()).unwrap_or(0);
    let after = std::fs::metadata(dst).map(|m| m.len()).unwrap_or(0);
    println!(
        "compacted {src} ({:.1} KiB) -> {dst} ({:.1} KiB)",
        before as f64 / 1024.0,
        after as f64 / 1024.0
    );
    Ok(())
}

fn cmd_update(args: &Args) -> Result<(), String> {
    let store_path = args.positional(0, "store.pqg")?;
    let old_path = args.positional(1, "old.xml")?;
    let new_path = args.positional(2, "new.xml")?;
    let id = args.opt::<u64>("id")?.ok_or("missing --id <n>")?;
    let mut store = AnyStore::open(store_path)?;
    // Parsing is deterministic, so re-parsing old.xml reproduces the exact
    // arena the stored index was built from.
    let mut labels = LabelTable::new();
    let mut tree = load_document(old_path, &mut labels)?;
    let mut new_labels = LabelTable::new();
    let new_tree = load_document(new_path, &mut new_labels)?;
    let log = pqgram_diff::sync(&mut tree, &mut labels, &new_tree, &new_labels)
        .map_err(|e| e.to_string())?;
    let (optimized, opt_stats) = pqgram_tree::optimize_log(&tree, &log);
    let stats = store.update_from_log(TreeId(id), &tree, &labels, &optimized)?;
    println!(
        "updated tree {id}: {} derived edits ({} after preprocessing)",
        opt_stats.original_len, opt_stats.optimized_len
    );
    println!("  {stats}");
    Ok(())
}
