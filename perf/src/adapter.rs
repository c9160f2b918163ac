//! The benchmark's only door into the repository: this is the one file
//! that names a `pqgram_*` crate. Everything the workloads do to the
//! system under test goes through the wrappers below, so an API change in
//! the store is absorbed here, and every call into the library is wrapped
//! in one span (`segmented.*`, `core.*`) for the traced run.
//!
//! The system under test is a [`SegmentedIndexStore`] on a caller-supplied
//! [`Vfs`]; a compacted one is the single-file `IndexStore` path. The
//! ablation entry points (`lookup_unpruned_*`, `lookup_exhaustive_*`,
//! `InvertedEncoding`, `LookupStats::used_inverted`) and `crates/bench`
//! are deliberately not used: they are slated for removal.

use crate::trace;
use pqgram_core::{ForestIndex, PQParams};
use pqgram_store::{SegmentedIndexStore, SegmentedReader};
use std::path::Path;
use std::sync::Arc;

pub use pqgram_core::{LookupHit, TreeId, TreeIndex, UpdateStats};
pub use pqgram_store::{LookupStats, RealVfs, Vfs, VfsFile};

/// Input-generation surface of `pqgram-tree` (used by `corpus` only).
pub mod tree {
    pub use pqgram_tree::generate::xmark;
    pub use pqgram_tree::{
        record_script, EditLog, FxHashMap, LabelSym, LabelTable, ScriptConfig, Tree,
    };
}

/// Layer internals for the isolated probes of the traced run only.
pub mod probe {
    pub use pqgram_store::buffer::BufferPool;
    pub use pqgram_store::fuzz::{decode_block, encode_block, filter_load, Fence};
    pub use pqgram_store::{BTree, IndexStore, PageId, Pager};
}

/// Every failure is reported as text: the harness only counts and prints.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The pq-gram parameters of every run (the paper's default, 3,3).
pub fn params() -> PQParams {
    PQParams::default()
}

/// `I(T)`: the profile → index construction, one `core.build_index` span.
pub fn build_index(tree: &tree::Tree, labels: &tree::LabelTable) -> TreeIndex {
    let _span = trace::enter("core.build_index");
    pqgram_core::build_index(tree, labels, params())
}

/// The pq-gram distance of two indexes built with [`params`].
pub fn pq_distance(a: &TreeIndex, b: &TreeIndex) -> f64 {
    pqgram_core::pq_distance(a, b).expect("both indexes use adapter::params()")
}

/// The in-memory reference every stored answer is checked against: a
/// linear scan computing every distance ([`ForestIndex`]).
#[derive(Default)]
pub struct Oracle(ForestIndex);

impl Oracle {
    /// An empty forest.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Inserts or replaces one tree's index.
    pub fn insert(&mut self, id: TreeId, index: TreeIndex) {
        self.0.insert(id, index);
    }

    /// All trees within `tau`, ascending by `(distance, id)`.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Vec<LookupHit> {
        self.0
            .lookup(query, tau)
            .expect("both indexes use adapter::params()")
    }

    /// The `k` nearest trees, ascending by `(distance, id)`.
    pub fn top_k(&self, query: &TreeIndex, k: usize) -> Vec<LookupHit> {
        self.0
            .lookup_top_k(query, k)
            .expect("both indexes use adapter::params()")
    }
}

/// The two read entry points, shared by the writer handle (memtable is a
/// live source) and the snapshot reader.
pub trait Lookups {
    /// `lookup_with_stats`: all stored trees within `tau` of `query`.
    fn lookup(&self, query: &TreeIndex, tau: f64) -> Res<(Vec<LookupHit>, LookupStats)>;
    /// `lookup_top_k_with_stats`: the `k` nearest stored trees.
    fn top_k(&self, query: &TreeIndex, k: usize) -> Res<(Vec<LookupHit>, LookupStats)>;
}

/// The single-writer handle of the store under test.
pub struct Store(SegmentedIndexStore);

impl Store {
    /// `create_with`: a new empty store at `base`.
    pub fn create(base: &Path, vfs: Arc<dyn Vfs>) -> Res<Store> {
        let _span = trace::enter("segmented.create");
        SegmentedIndexStore::create_with(base, params(), vfs)
            .map(Store)
            .map_err(text)
    }

    /// `open_with`: recovery, orphan sweep, source opens.
    pub fn open(base: &Path, vfs: Arc<dyn Vfs>) -> Res<Store> {
        let _span = trace::enter("segmented.open");
        SegmentedIndexStore::open_with(base, vfs)
            .map(Store)
            .map_err(text)
    }

    /// `put_trees`: one batch through the memtable (may flush).
    pub fn put_trees(&mut self, batch: &[(TreeId, TreeIndex)]) -> Res<()> {
        let _span = trace::enter("segmented.put_trees");
        self.0.put_trees(batch).map_err(text)
    }

    /// `update_from_log`: Algorithm 1 from `(Tₙ, L)`, then apply (may
    /// flush).
    pub fn update_from_log(
        &mut self,
        id: TreeId,
        tree: &tree::Tree,
        labels: &tree::LabelTable,
        log: &tree::EditLog,
    ) -> Res<UpdateStats> {
        let _span = trace::enter("segmented.update_from_log");
        self.0.update_from_log(id, tree, labels, log).map_err(text)
    }

    /// `flush`: memtable → one new segment.
    pub fn flush(&mut self) -> Res<()> {
        let _span = trace::enter("segmented.flush");
        self.0.flush().map_err(text)
    }

    /// `compact`: fold every segment into a fresh main file.
    pub fn compact(&mut self) -> Res<()> {
        let _span = trace::enter("segmented.compact");
        self.0.compact().map_err(text)
    }

    /// `reader`: flushes, then hands out the snapshot-following reader.
    pub fn reader(&mut self) -> Res<Reader> {
        let _span = trace::enter("segmented.reader");
        self.0.reader().map(Reader).map_err(text)
    }

    /// `segment_count`: live segment files.
    pub fn segment_count(&self) -> usize {
        self.0.segment_count()
    }

    /// `verify`: every on-disk invariant; returns the stored tree count.
    pub fn verify(&self) -> Res<u64> {
        self.0.verify().map(|check| check.trees).map_err(text)
    }

    /// `tree_index`: the merged stored index of one tree.
    pub fn tree_index(&self, id: TreeId) -> Res<Option<TreeIndex>> {
        self.0.tree_index(id).map_err(text)
    }
}

impl Lookups for Store {
    fn lookup(&self, query: &TreeIndex, tau: f64) -> Res<(Vec<LookupHit>, LookupStats)> {
        let _span = trace::enter("segmented.lookup");
        self.0.lookup_with_stats(query, tau).map_err(text)
    }

    fn top_k(&self, query: &TreeIndex, k: usize) -> Res<(Vec<LookupHit>, LookupStats)> {
        let _span = trace::enter("segmented.lookup");
        self.0.lookup_top_k_with_stats(query, k).map_err(text)
    }
}

/// The snapshot-following read handle.
pub struct Reader(SegmentedReader);

impl Lookups for Reader {
    fn lookup(&self, query: &TreeIndex, tau: f64) -> Res<(Vec<LookupHit>, LookupStats)> {
        let _span = trace::enter("segmented.lookup");
        self.0.lookup_with_stats(query, tau).map_err(text)
    }

    fn top_k(&self, query: &TreeIndex, k: usize) -> Res<(Vec<LookupHit>, LookupStats)> {
        let _span = trace::enter("segmented.lookup");
        self.0.lookup_top_k_with_stats(query, k).map_err(text)
    }
}
