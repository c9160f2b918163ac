//! The document store: documents *and* their pq-gram index in one file.
//!
//! [`crate::index_store::IndexStore`] implements exactly the paper's
//! scenario — the application supplies the edit log. `DocumentStore` covers
//! the common practical case where no instrumented editor exists: it keeps
//! the serialized document next to its index rows, and [`DocumentStore::sync`]
//! accepts a *new version* of a document, derives an edit script against the
//! stored version (`pqgram-diff`), preprocesses the log (Section 10), and
//! applies the incremental index update plus the new document blob in one
//! transaction.
//!
//! Header metadata slots: 0 = forward index root, 1 = `p`, 2 = `q`,
//! 3 = blob directory root, 4 = inverted index root, 5 = totals root,
//! 6 = format version, 7 = file-kind marker (see [`crate::ops`]).

use crate::blob::BlobStore;
use crate::btree::BTree;
use crate::ops::{check_params, LookupStats, StoreCheck};
use crate::pager::StoreError;
use crate::segment::{Role, Source};
use pqgram_core::maintain::{compute_index_delta, MaintainError, UpdateStats};
use pqgram_core::{build_index, GramKey, LookupHit, PQParams, TreeId, TreeIndex};
use pqgram_diff::DiffError;
use pqgram_tree::serial::{read_tree, write_tree};
use pqgram_tree::{optimize_log, LabelTable, Tree};
use std::fmt;
use std::path::Path;

const META_BLOBS: usize = 3;

/// Errors of the document store.
#[derive(Debug)]
pub enum DocError {
    /// Underlying storage failure.
    Store(StoreError),
    /// Incremental maintenance failure.
    Maintain(MaintainError),
    /// The diff could not produce a script (e.g. the root label changed and
    /// `sync` was asked not to fall back).
    Diff(DiffError),
    /// Operation on a document that is not in the store.
    UnknownDocument(TreeId),
    /// A delta removal referenced a gram the stored index does not have.
    InconsistentDelta(TreeId, GramKey),
    /// The stored blob could not be decoded.
    CorruptDocument(TreeId, String),
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Store(e) => write!(f, "storage error: {e}"),
            DocError::Maintain(e) => write!(f, "maintenance error: {e}"),
            DocError::Diff(e) => write!(f, "diff error: {e}"),
            DocError::UnknownDocument(t) => write!(f, "document {t:?} is not in the store"),
            DocError::InconsistentDelta(t, g) => {
                write!(f, "delta removes gram {g:#x} absent from {t:?}")
            }
            DocError::CorruptDocument(t, m) => write!(f, "document {t:?} corrupt: {m}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<StoreError> for DocError {
    fn from(e: StoreError) -> Self {
        DocError::Store(e)
    }
}

impl From<MaintainError> for DocError {
    fn from(e: MaintainError) -> Self {
        DocError::Maintain(e)
    }
}

impl From<DiffError> for DocError {
    fn from(e: DiffError) -> Self {
        DocError::Diff(e)
    }
}

type Result<T> = std::result::Result<T, DocError>;

/// How [`DocumentStore::sync`] brought the stored document up to date.
#[derive(Clone, Debug)]
pub enum SyncOutcome {
    /// An edit script was derived and the index updated incrementally.
    Incremental {
        /// Edit operations in the derived script.
        script_len: usize,
        /// Operations left after log preprocessing.
        optimized_len: usize,
        /// Maintenance timing breakdown.
        stats: UpdateStats,
    },
    /// The diff was impossible (root relabeled); the document was re-indexed
    /// from scratch.
    Reindexed,
}

/// Documents plus their pq-gram index, in one transactional file: one
/// [`Source`] whose slot [`META_BLOBS`] roots the document blobs, written in
/// the same transaction as the index rows.
pub struct DocumentStore {
    file: Source,
    params: PQParams,
}

impl DocumentStore {
    /// Creates a new document store.
    pub fn create(path: &Path, params: PQParams) -> Result<DocumentStore> {
        Self::create_with(path, params, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`DocumentStore::create`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    pub fn create_with(
        path: &Path,
        params: PQParams,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
    ) -> Result<DocumentStore> {
        let root_blobs = |pool: &_| BlobStore::open(pool, META_BLOBS).map(|_| ());
        let file = Source::create(vfs, path, params, Role::Documents, root_blobs)?;
        Ok(DocumentStore { file, params })
    }

    /// Opens an existing document store (with crash recovery).
    pub fn open(path: &Path) -> Result<DocumentStore> {
        Self::open_with(path, std::sync::Arc::new(crate::vfs::RealVfs))
    }

    /// [`DocumentStore::open`] on an explicit [`crate::vfs::Vfs`] (fault
    /// injection, tests).
    // analyze: entrypoint(recovery)
    pub fn open_with(
        path: &Path,
        vfs: std::sync::Arc<dyn crate::vfs::Vfs>,
    ) -> Result<DocumentStore> {
        let (file, params) = Source::open(vfs, path, Role::Documents)?;
        Ok(DocumentStore { file, params })
    }

    /// The pq-gram parameters of this store.
    pub fn params(&self) -> PQParams {
        self.params
    }

    fn blobs(&self) -> Result<BlobStore<'_>> {
        Ok(BlobStore::open(self.file.pool(), META_BLOBS)?)
    }

    /// Stores (or replaces) a document and its index. Transactional.
    // analyze: entrypoint
    pub fn put(&mut self, id: TreeId, tree: &Tree, labels: &LabelTable) -> Result<()> {
        let index = build_index(tree, labels, self.params);
        let mut blob = Vec::new();
        write_tree(&mut blob, tree, labels).map_err(|e| DocError::Store(StoreError::Io(e)))?;
        self.file.put_trees(&[(id, &index)], |pool| {
            BlobStore::open(pool, META_BLOBS)?.put(id.0, &blob)?;
            Ok(())
        })
    }

    /// Loads a stored document (tree + its label table).
    pub fn document(&self, id: TreeId) -> Result<Option<(Tree, LabelTable)>> {
        let Some(bytes) = self.blobs()?.get(id.0)? else {
            return Ok(None);
        };
        read_tree(&mut bytes.as_slice())
            .map(Some)
            .map_err(|e| DocError::CorruptDocument(id, e.to_string()))
    }

    /// The stored index of a document.
    pub fn document_index(&self, id: TreeId) -> Result<Option<TreeIndex>> {
        Ok(crate::ops::tree_index(self.file.pool(), self.params, id)?)
    }

    /// Removes a document (blob + index rows). Returns `true` if present.
    pub fn remove(&mut self, id: TreeId) -> Result<bool> {
        if !self.blobs()?.contains(id.0)? {
            return Ok(false);
        }
        self.file.remove_tree(id, |pool| {
            BlobStore::open(pool, META_BLOBS)?.delete(id.0)?;
            Ok::<_, DocError>(())
        })?;
        Ok(true)
    }

    /// All stored document ids, ascending.
    pub fn ids(&self) -> Result<Vec<TreeId>> {
        Ok(self.blobs()?.keys()?.into_iter().map(TreeId).collect())
    }

    /// Brings document `id` up to date with `new_tree`: derives an edit
    /// script against the stored version, preprocesses it, updates the index
    /// incrementally, and stores the new document blob — all in one
    /// transaction. Falls back to a full re-index when the diff is
    /// impossible (root relabeled).
    // analyze: entrypoint
    pub fn sync(
        &mut self,
        id: TreeId,
        new_tree: &Tree,
        new_labels: &LabelTable,
    ) -> Result<SyncOutcome> {
        let Some((mut tree, mut labels)) = self.document(id)? else {
            return Err(DocError::UnknownDocument(id));
        };
        let log = match pqgram_diff::sync(&mut tree, &mut labels, new_tree, new_labels) {
            Ok(log) => log,
            Err(DiffError::RootRelabeled) => {
                self.put(id, new_tree, new_labels)?;
                return Ok(SyncOutcome::Reindexed);
            }
            Err(e) => return Err(e.into()),
        };
        let script_len = log.len();
        let (optimized, _) = optimize_log(&tree, &log);
        let (delta, mut stats) = compute_index_delta(&tree, &labels, &optimized, self.params)?;

        let mut blob = Vec::new();
        write_tree(&mut blob, &tree, &labels).map_err(|e| DocError::Store(StoreError::Io(e)))?;
        let t = std::time::Instant::now();
        self.file
            .apply_delta(id, &delta, DocError::InconsistentDelta, |pool| {
                BlobStore::open(pool, META_BLOBS)?.put(id.0, &blob)?;
                Ok(())
            })?;
        stats.apply = t.elapsed();
        Ok(SyncOutcome::Incremental {
            script_len,
            optimized_len: optimized.len(),
            stats,
        })
    }

    /// Approximate lookup over the stored forest: the same walk every
    /// index-store handle takes ([`crate::ops`]'s planner-driven candidate
    /// merge, for every `τ`), over this file as its one source.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>> {
        Ok(self.lookup_with_stats(query, tau)?.0)
    }

    /// [`DocumentStore::lookup`] also returning the access-path counters of
    /// the executed plan.
    // analyze: entrypoint
    pub fn lookup_with_stats(
        &self,
        query: &TreeIndex,
        tau: f64,
    ) -> Result<(Vec<LookupHit>, LookupStats)> {
        check_params(query.params(), self.params)?;
        let sources = std::iter::once(&self.file);
        Ok(crate::ops::lookup_merged(sources, None, query, tau)?)
    }

    /// Number of index rows.
    pub fn row_count(&self) -> Result<u64> {
        Ok(BTree::open(self.file.pool(), crate::ops::SLOT_FWD)?.len()?)
    }

    /// Verifies the on-disk B+-tree invariants of all three index relations
    /// plus their cross-relation consistency (see
    /// [`crate::ops::verify_relations`]), and the resident mirrors against
    /// the file.
    pub fn verify(&self) -> Result<StoreCheck> {
        Ok(self.file.verify()?)
    }

    /// Whether the persisted gram filter decoded and validated at open —
    /// see `IndexStore::has_gram_filter`; crash tests assert this after
    /// every recovery.
    #[doc(hidden)]
    pub fn has_gram_filter(&self) -> bool {
        self.file.filter().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{dblp, random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-docstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(PathBuf::from(j)).ok();
        p
    }

    #[test]
    fn put_document_and_read_back() -> TestResult {
        let params = PQParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = LabelTable::new();
        let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(150, 5));
        let mut store = DocumentStore::create(&tmp("put.docs"), params)?;
        store.put(TreeId(1), &tree, &lt)?;
        let (back, back_lt) = store.document(TreeId(1))?.ok_or("document 1 missing")?;
        assert_eq!(back.node_count(), tree.node_count());
        // Label-name sequences match (ids are renumbered by serialization).
        let names = |t: &Tree, l: &LabelTable| -> Vec<String> {
            t.preorder(t.root())
                .map(|n| l.name(t.label(n)).to_string())
                .collect()
        };
        assert_eq!(names(&tree, &lt), names(&back, &back_lt));
        assert_eq!(
            store
                .document_index(TreeId(1))?
                .ok_or("index for tree 1 missing")?,
            build_index(&tree, &lt, params)
        );
        Ok(())
    }

    #[test]
    fn sync_applies_incremental_update() -> TestResult {
        let params = PQParams::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut lt = LabelTable::new();
        let mut tree = dblp(&mut rng, &mut lt, 3_000);
        let mut store = DocumentStore::create(&tmp("sync.docs"), params)?;
        store.put(TreeId(1), &tree, &lt)?;

        // The document evolves elsewhere; only the new version arrives.
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        record_script(&mut rng, &mut tree, &ScriptConfig::new(40, alphabet));
        let outcome = store.sync(TreeId(1), &tree, &lt)?;
        match outcome {
            SyncOutcome::Incremental {
                script_len,
                optimized_len,
                ..
            } => {
                assert!(script_len > 0);
                assert!(optimized_len <= script_len);
                // A 40-edit change must not look like a full rewrite.
                assert!(script_len < 600, "script_len {script_len}");
            }
            SyncOutcome::Reindexed => return Err("expected incremental sync".into()),
        }
        // The stored index equals a rebuild of the new version.
        let stored = store
            .document_index(TreeId(1))?
            .ok_or("index for tree 1 missing")?;
        assert_eq!(stored, build_index(&tree, &lt, params));
        // The stored document matches the new version.
        let (back, back_lt) = store.document(TreeId(1))?.ok_or("document 1 missing")?;
        let names = |t: &Tree, l: &LabelTable| -> Vec<String> {
            t.preorder(t.root())
                .map(|n| l.name(t.label(n)).to_string())
                .collect()
        };
        assert_eq!(names(&tree, &lt), names(&back, &back_lt));
        Ok(())
    }

    #[test]
    fn repeated_syncs_stay_consistent() -> TestResult {
        let params = PQParams::new(2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut lt = LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(400, 6));
        let mut store = DocumentStore::create(&tmp("repeat.docs"), params)?;
        store.put(TreeId(9), &tree, &lt)?;
        for round in 0..5 {
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            record_script(&mut rng, &mut tree, &ScriptConfig::new(15, alphabet));
            store.sync(TreeId(9), &tree, &lt)?;
            let stored = store
                .document_index(TreeId(9))?
                .ok_or("index for tree 9 missing")?;
            assert_eq!(stored, build_index(&tree, &lt, params), "round {round}");
        }
        Ok(())
    }

    #[test]
    fn root_relabel_falls_back_to_reindex() -> TestResult {
        let params = PQParams::default();
        let mut lt = LabelTable::new();
        let mut t1 = Tree::with_root(lt.intern("old-root"));
        t1.add_child(t1.root(), lt.intern("x"));
        let mut store = DocumentStore::create(&tmp("fallback.docs"), params)?;
        store.put(TreeId(1), &t1, &lt)?;
        let mut t2 = Tree::with_root(lt.intern("new-root"));
        t2.add_child(t2.root(), lt.intern("x"));
        let outcome = store.sync(TreeId(1), &t2, &lt)?;
        assert!(matches!(outcome, SyncOutcome::Reindexed));
        assert_eq!(
            store
                .document_index(TreeId(1))?
                .ok_or("index for tree 1 missing")?,
            build_index(&t2, &lt, params)
        );
        Ok(())
    }

    #[test]
    fn sync_unknown_document_fails() -> TestResult {
        let params = PQParams::default();
        let mut lt = LabelTable::new();
        let t = Tree::with_root(lt.intern("a"));
        let mut store = DocumentStore::create(&tmp("unknown.docs"), params)?;
        assert!(matches!(
            store.sync(TreeId(5), &t, &lt),
            Err(DocError::UnknownDocument(TreeId(5)))
        ));
        Ok(())
    }

    #[test]
    fn remove_drops_blob_and_rows() -> TestResult {
        let params = PQParams::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut lt = LabelTable::new();
        let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(80, 4));
        let mut store = DocumentStore::create(&tmp("remove.docs"), params)?;
        store.put(TreeId(1), &tree, &lt)?;
        assert!(store.remove(TreeId(1))?);
        assert!(!store.remove(TreeId(1))?);
        assert!(store.document(TreeId(1))?.is_none());
        assert_eq!(store.row_count()?, 0);
        assert!(store.ids()?.is_empty());
        Ok(())
    }

    #[test]
    fn reopen_and_lookup() -> TestResult {
        let params = PQParams::default();
        let path = tmp("reopen.docs");
        let mut rng = StdRng::seed_from_u64(5);
        let mut lt = LabelTable::new();
        let trees: Vec<_> = (0..5)
            .map(|_| random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(120, 5)))
            .collect();
        {
            let mut store = DocumentStore::create(&path, params)?;
            for (i, t) in trees.iter().enumerate() {
                store.put(TreeId(i as u64), t, &lt)?;
            }
        }
        let store = DocumentStore::open(&path)?;
        assert_eq!(store.ids()?.len(), 5);
        let query = build_index(trees.get(2).ok_or("tree 2 missing")?, &lt, params);
        let hits = store.lookup(&query, 0.9)?;
        let best = hits.first().ok_or("no lookup hits")?;
        assert_eq!(best.tree_id, TreeId(2));
        assert!(best.distance.abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn lookup_matches_an_index_store_holding_the_same_forest() -> TestResult {
        let params = PQParams::default();
        let mut rng = StdRng::seed_from_u64(6);
        let mut lt = LabelTable::new();
        let mut docs = DocumentStore::create(&tmp("walk.docs"), params)?;
        let mut index = crate::IndexStore::create(&tmp("walk.pqg"), params)?;
        let mut queries = Vec::new();
        for i in 0..12u64 {
            let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(90, 5));
            docs.put(TreeId(i), &tree, &lt)?;
            let idx = build_index(&tree, &lt, params);
            index.put_tree(TreeId(i), &idx)?;
            queries.push(idx);
        }
        for tau in [0.5, 1.2] {
            for q in queries.iter().step_by(5) {
                let (doc_hits, doc_stats) = docs.lookup_with_stats(q, tau)?;
                assert_eq!(doc_hits, index.lookup(q, tau)?, "tau {tau}");
                assert!(!doc_hits.is_empty(), "the query's own document is a hit");
                assert_eq!(
                    doc_stats.by_source,
                    vec![(crate::MAIN_SOURCE, doc_stats.rows_read)]
                );
            }
        }
        Ok(())
    }

    /// The store against the in-memory oracle through every kind of write
    /// and a reopen, its mirrors live on the walk: after each step `verify`
    /// (mirrors against the file) passes and lookups are bit-identical.
    #[test]
    fn lookups_match_the_oracle_through_put_sync_remove_and_reopen() -> TestResult {
        enum Step {
            Put(u64),
            Sync(u64),
            Remove(u64),
            Reopen,
        }
        use Step::{Put, Remove, Reopen, Sync};
        let steps = [
            Put(0),
            Put(1),
            Put(2),
            Put(3),
            Sync(1),
            Reopen,
            Sync(1),
            Remove(2),
            Put(0),    // replace
            Remove(7), // never stored
            Put(2),
            Sync(3),
            Reopen,
            Remove(0),
        ];
        let params = PQParams::default();
        let path = tmp("oracle.docs");
        let mut rng = StdRng::seed_from_u64(8);
        let mut lt = LabelTable::new();
        let mut docs = DocumentStore::create(&path, params)?;
        let mut oracle = pqgram_core::ForestIndex::new();
        let mut current: std::collections::BTreeMap<u64, Tree> = Default::default();
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Put(id) => {
                    let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(70, 5));
                    docs.put(TreeId(id), &tree, &lt)?;
                    oracle.insert(TreeId(id), build_index(&tree, &lt, params));
                    current.insert(id, tree);
                }
                Sync(id) => {
                    let tree = current.get_mut(&id).ok_or("sync of an unstored document")?;
                    let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
                    record_script(&mut rng, tree, &ScriptConfig::new(6, alphabet));
                    docs.sync(TreeId(id), tree, &lt)?;
                    oracle.insert(TreeId(id), build_index(tree, &lt, params));
                }
                Remove(id) => {
                    let stored = current.remove(&id).is_some();
                    assert_eq!(docs.remove(TreeId(id))?, stored, "step {n}");
                    oracle.remove(TreeId(id));
                }
                Reopen => {
                    drop(docs);
                    docs = DocumentStore::open(&path)?;
                }
            }
            assert_eq!(
                docs.verify()?.trees,
                u64::try_from(oracle.len())?,
                "step {n}"
            );
            assert!(docs.has_gram_filter(), "step {n}");
            let stored: Vec<TreeIndex> = oracle.iter().map(|(_, index)| index.clone()).collect();
            for tau in [0.3, 0.7, 1.0, 1.5] {
                for query in &stored {
                    let hits = docs.lookup(query, tau)?;
                    assert_eq!(hits, oracle.lookup(query, tau)?, "step {n}, tau {tau}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn index_store_file_is_rejected() -> TestResult {
        let params = PQParams::default();
        let path = tmp("wrongkind.docs");
        crate::IndexStore::create(&path, params)?;
        let err = match DocumentStore::open(&path) {
            Ok(_) => return Err("open accepted an index-store file".into()),
            Err(e) => e,
        };
        assert!(matches!(err, DocError::Store(StoreError::Corrupt(_))));
        Ok(())
    }
}
