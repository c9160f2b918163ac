//! A managed in-memory forest: documents, shared labels, and an always
//! up-to-date pq-gram index behind one API.
//!
//! [`crate::index::ForestIndex`] is the bare index; [`Forest`] additionally
//! owns the trees and the label table and keeps the index maintained
//! *incrementally* whenever a document is edited — the intended usage
//! pattern of the paper, packaged. Every edit goes through
//! [`Forest::edit`], which applies the operations, records the inverse log
//! and runs Algorithm 1 on that document's index.
//!
//! ```
//! use pqgram_core::forest::Forest;
//! use pqgram_core::PQParams;
//! use pqgram_tree::{EditOp, LabelTable, Tree};
//!
//! let mut forest = Forest::new(PQParams::default());
//! let article = forest.labels_mut().intern("article");
//! let title = forest.labels_mut().intern("title");
//!
//! let mut doc = Tree::with_root(article);
//! doc.add_child(doc.root(), title);
//! let id = forest.insert(doc);
//!
//! // Edit through the forest: the index is maintained incrementally.
//! let node = forest.get(id).unwrap().children(forest.get(id).unwrap().root())[0];
//! let new_label = forest.labels_mut().intern("headline");
//! forest.edit(id, &[EditOp::Rename { node, label: new_label }]).unwrap();
//!
//! let hits = forest.lookup_tree(forest.get(id).unwrap(), forest.labels(), 0.1).unwrap();
//! assert_eq!(hits[0].tree_id, id);
//! ```

use crate::index::{build_index, ForestIndex, LookupHit, ParamsMismatch, TreeId, TreeIndex};
use crate::maintain::{update_index, MaintainError, UpdateStats};
use crate::params::PQParams;
use pqgram_tree::{EditError, EditLog, EditOp, FxHashMap, LabelTable, Tree};

/// Why a [`Forest`] operation failed.
#[derive(Debug, PartialEq)]
pub enum ForestError {
    /// No document with this id.
    UnknownTree(TreeId),
    /// An edit operation was invalid for the document (nothing applied).
    Edit(EditError),
    /// Incremental maintenance failed (internal inconsistency).
    Maintain(MaintainError),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::UnknownTree(t) => write!(f, "no document {t:?} in the forest"),
            ForestError::Edit(e) => write!(f, "invalid edit: {e}"),
            ForestError::Maintain(e) => write!(f, "maintenance failed: {e}"),
        }
    }
}

impl std::error::Error for ForestError {}

/// Documents + labels + incrementally maintained index.
pub struct Forest {
    params: PQParams,
    labels: LabelTable,
    trees: FxHashMap<TreeId, Tree>,
    index: ForestIndex,
    next_id: u64,
}

impl Forest {
    /// An empty forest.
    pub fn new(params: PQParams) -> Self {
        assert!(
            params.supports_incremental(),
            "Forest maintains indexes incrementally and requires q >= 2"
        );
        Forest {
            params,
            labels: LabelTable::new(),
            trees: FxHashMap::default(),
            index: ForestIndex::new(),
            next_id: 0,
        }
    }

    /// The pq-gram parameters.
    pub fn params(&self) -> PQParams {
        self.params
    }

    /// The shared label table.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Mutable access to the shared label table (for interning).
    pub fn labels_mut(&mut self) -> &mut LabelTable {
        &mut self.labels
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the forest holds no documents.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Inserts a document (labels must come from [`Forest::labels_mut`]),
    /// assigning the next free id.
    pub fn insert(&mut self, tree: Tree) -> TreeId {
        while self.trees.contains_key(&TreeId(self.next_id)) {
            self.next_id += 1;
        }
        let id = TreeId(self.next_id);
        self.next_id += 1;
        self.insert_with_id(id, tree);
        id
    }

    /// Inserts a document under a caller-chosen id (replacing any previous
    /// document with that id).
    pub fn insert_with_id(&mut self, id: TreeId, tree: Tree) {
        self.index
            .insert(id, build_index(&tree, &self.labels, self.params));
        self.trees.insert(id, tree);
    }

    /// Borrows a document.
    pub fn get(&self, id: TreeId) -> Option<&Tree> {
        self.trees.get(&id)
    }

    /// The maintained index of a document.
    pub fn index_of(&self, id: TreeId) -> Option<&TreeIndex> {
        self.index.get(id)
    }

    /// Removes a document, returning it.
    pub fn remove(&mut self, id: TreeId) -> Option<Tree> {
        self.index.remove(id);
        self.trees.remove(&id)
    }

    /// All ids, ascending.
    pub fn ids(&self) -> Vec<TreeId> {
        let mut ids: Vec<TreeId> = self.trees.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Applies forward edit operations to a document and maintains its
    /// index incrementally (Algorithm 1 over the recorded inverse log).
    ///
    /// Validation happens before any mutation: on an invalid operation the
    /// forest is unchanged. Returns the maintenance statistics.
    pub fn edit(&mut self, id: TreeId, ops: &[EditOp]) -> Result<UpdateStats, ForestError> {
        let tree = self
            .trees
            .get_mut(&id)
            .ok_or(ForestError::UnknownTree(id))?;
        let old_index = self.index.get(id).ok_or(ForestError::UnknownTree(id))?;
        // Dry-run validation on a clone (ops may depend on one another, so
        // they must be validated sequentially).
        let mut probe = tree.clone();
        for &op in ops {
            probe.apply(op).map_err(ForestError::Edit)?;
        }
        // Apply for real, recording the log.
        let mut log = EditLog::new();
        for &op in ops {
            log.push(tree.apply_logged(op).map_err(ForestError::Edit)?);
        }
        let outcome =
            update_index(old_index, tree, &self.labels, &log).map_err(ForestError::Maintain)?;
        let stats = outcome.stats;
        self.index.insert(id, outcome.index);
        Ok(stats)
    }

    /// Edits a document through a closure that returns the recorded log
    /// entries — the bridge for subtree-level operations
    /// ([`pqgram_tree::subtree`]) and other log-producing edit APIs:
    ///
    /// ```
    /// # use pqgram_core::forest::Forest;
    /// # use pqgram_core::PQParams;
    /// # use pqgram_tree::subtree::{insert_subtree, Spec};
    /// # let mut forest = Forest::new(PQParams::default());
    /// # let a = forest.labels_mut().intern("a");
    /// # let b = forest.labels_mut().intern("b");
    /// # let id = forest.insert(pqgram_tree::Tree::with_root(a));
    /// forest.edit_logged(id, |tree| {
    ///     let root = tree.root();
    ///     let (_, log) = insert_subtree(tree, root, 1, &Spec::leaf(b))?;
    ///     Ok(log)
    /// }).unwrap();
    /// # forest.check_consistency().unwrap();
    /// ```
    ///
    /// The closure must return exactly the log entries of the edits it
    /// applied (in order); entries produced by [`pqgram_tree::Tree::apply_logged`]
    /// and the subtree helpers satisfy this by construction. A wrong log is
    /// detected by the maintenance (error) in almost all cases; the edits
    /// themselves are kept either way, with the index rebuilt on error.
    pub fn edit_logged<F>(&mut self, id: TreeId, f: F) -> Result<UpdateStats, ForestError>
    where
        F: FnOnce(&mut Tree) -> Result<Vec<pqgram_tree::LogOp>, EditError>,
    {
        let tree = self
            .trees
            .get_mut(&id)
            .ok_or(ForestError::UnknownTree(id))?;
        let old_index = self.index.get(id).ok_or(ForestError::UnknownTree(id))?;
        let entries = f(tree).map_err(ForestError::Edit)?;
        let log: EditLog = entries.into_iter().collect();
        match update_index(old_index, tree, &self.labels, &log) {
            Ok(outcome) => {
                let stats = outcome.stats;
                self.index.insert(id, outcome.index);
                Ok(stats)
            }
            Err(e) => {
                // Keep the document; restore index coherence by rebuilding.
                let rebuilt = build_index(tree, &self.labels, self.params);
                self.index.insert(id, rebuilt);
                Err(ForestError::Maintain(e))
            }
        }
    }

    /// Approximate lookup with a query document (indexed on the fly).
    ///
    /// `query_labels` is the table the query's `LabelSym`s were interned in
    /// — pass [`Forest::labels`] for queries built through this forest.
    /// Fingerprints are derived from label *names*, so a query interned in
    /// a different table still matches correctly; resolving its symbols
    /// against the forest's table instead would silently compute distances
    /// between unrelated labels that happen to share a symbol id.
    ///
    /// # Errors
    ///
    /// Never fails in practice — the query is indexed under this forest's
    /// own parameters — but propagates [`ParamsMismatch`] for API symmetry
    /// with [`Forest::lookup`].
    pub fn lookup_tree(
        &self,
        query: &Tree,
        query_labels: &LabelTable,
        tau: f64,
    ) -> Result<Vec<LookupHit>, ParamsMismatch> {
        let query_index = build_index(query, query_labels, self.params);
        self.index.lookup(&query_index, tau)
    }

    /// Approximate lookup with a prebuilt query index.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsMismatch`] if `query` was built under different
    /// `PQParams` than this forest.
    pub fn lookup(&self, query: &TreeIndex, tau: f64) -> Result<Vec<LookupHit>, ParamsMismatch> {
        self.index.lookup(query, tau)
    }

    /// The underlying bare index (e.g. for joins).
    pub fn as_forest_index(&self) -> &ForestIndex {
        &self.index
    }

    /// Debug helper: every document's maintained index equals a rebuild.
    pub fn check_consistency(&self) -> Result<(), TreeId> {
        for (&id, tree) in &self.trees {
            let rebuilt = build_index(tree, &self.labels, self.params);
            if self.index.get(id) != Some(&rebuilt) {
                return Err(id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forest_with_docs(seed: u64, n: usize) -> (Forest, Vec<TreeId>) {
        let mut forest = Forest::new(PQParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = (0..n)
            .map(|_| {
                let tree =
                    random_tree(&mut rng, forest.labels_mut(), &RandomTreeConfig::new(60, 5));
                forest.insert(tree)
            })
            .collect();
        (forest, ids)
    }

    #[test]
    fn insert_assigns_fresh_ids() {
        let (forest, ids) = forest_with_docs(1, 5);
        assert_eq!(forest.len(), 5);
        assert_eq!(ids.len(), 5);
        assert_eq!(forest.ids(), ids);
        forest.check_consistency().unwrap();
    }

    #[test]
    fn edit_maintains_index() {
        let (mut forest, ids) = forest_with_docs(2, 3);
        let id = ids[1];
        // Build a small valid script against the current tree.
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = forest.get(id).unwrap().clone();
        let alphabet: Vec<_> = forest.labels().iter().map(|(s, _)| s).collect();
        let (_, forward) = record_script(&mut rng, &mut scratch, &ScriptConfig::new(12, alphabet));
        let stats = forest.edit(id, &forward).unwrap();
        assert_eq!(stats.ops, 12);
        forest.check_consistency().unwrap();
        // The edited tree in the forest matches the scratch evolution.
        assert_eq!(forest.get(id).unwrap(), &scratch);
    }

    #[test]
    fn invalid_edit_leaves_forest_unchanged() {
        let (mut forest, ids) = forest_with_docs(4, 2);
        let id = ids[0];
        let before = forest.get(id).unwrap().clone();
        let root = before.root();
        let bad = EditOp::Delete { node: root };
        assert!(matches!(forest.edit(id, &[bad]), Err(ForestError::Edit(_))));
        assert_eq!(forest.get(id).unwrap(), &before);
        forest.check_consistency().unwrap();
    }

    #[test]
    fn partially_invalid_scripts_are_atomic() {
        let (mut forest, ids) = forest_with_docs(5, 1);
        let id = ids[0];
        let before = forest.get(id).unwrap().clone();
        let tree = forest.get(id).unwrap();
        let leaf = tree
            .preorder(tree.root())
            .find(|&n| tree.is_leaf(n) && n != tree.root());
        let Some(leaf) = leaf else { return };
        // First op valid, second invalid (delete the same node twice).
        let script = [EditOp::Delete { node: leaf }, EditOp::Delete { node: leaf }];
        assert!(forest.edit(id, &script).is_err());
        assert_eq!(forest.get(id).unwrap(), &before, "nothing may be applied");
    }

    #[test]
    fn lookup_finds_edited_document() -> Result<(), ParamsMismatch> {
        let (mut forest, ids) = forest_with_docs(6, 10);
        let id = ids[4];
        let snapshot = forest.get(id).unwrap().clone();
        // After editing, looking up the *new* version finds it at ~0.
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = snapshot.clone();
        let alphabet: Vec<_> = forest.labels().iter().map(|(s, _)| s).collect();
        let (_, forward) = record_script(&mut rng, &mut scratch, &ScriptConfig::new(5, alphabet));
        forest.edit(id, &forward).unwrap();
        let hits = forest.lookup_tree(&scratch, forest.labels(), 0.2)?;
        assert_eq!(hits[0].tree_id, id);
        assert!(hits[0].distance.abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn lookup_accepts_foreign_label_tables() -> Result<(), ParamsMismatch> {
        let mut forest = Forest::new(PQParams::default());
        let a = forest.labels_mut().intern("a");
        let b = forest.labels_mut().intern("b");
        let c = forest.labels_mut().intern("c");
        let mut doc = Tree::with_root(a);
        let mid = doc.add_child(doc.root(), b);
        doc.add_child(mid, c);
        let id = forest.insert(doc);

        // A client builds the same document against its own label table,
        // where the symbol ids happen to be assigned in opposite order —
        // every symbol collides with a *different* forest label.
        let mut foreign = LabelTable::new();
        let fc = foreign.intern("c");
        let fb = foreign.intern("b");
        let fa = foreign.intern("a");
        assert_eq!(fc, a, "ids collide across tables by construction");
        let mut query = Tree::with_root(fa);
        let qmid = query.add_child(query.root(), fb);
        query.add_child(qmid, fc);

        let hits = forest.lookup_tree(&query, &foreign, 0.5)?;
        assert!(!hits.is_empty(), "foreign-table query must match");
        assert_eq!(hits[0].tree_id, id);
        assert!(hits[0].distance.abs() < 1e-12);

        // Same hits as a twin re-interned in the forest's own table.
        let mut twin = Tree::with_root(a);
        let tmid = twin.add_child(twin.root(), b);
        twin.add_child(tmid, c);
        assert_eq!(forest.lookup_tree(&twin, forest.labels(), 0.5)?, hits);
        Ok(())
    }

    #[test]
    fn remove_then_insert_reuses_nothing() {
        let (mut forest, ids) = forest_with_docs(8, 3);
        let removed = forest.remove(ids[1]).unwrap();
        assert_eq!(forest.len(), 2);
        assert!(forest.get(ids[1]).is_none());
        let new_id = forest.insert(removed);
        assert_ne!(new_id, ids[0]);
        forest.check_consistency().unwrap();
    }

    #[test]
    fn unknown_tree_reported() {
        let (mut forest, _) = forest_with_docs(9, 1);
        assert_eq!(
            forest.edit(TreeId(99), &[]).unwrap_err(),
            ForestError::UnknownTree(TreeId(99))
        );
    }

    #[test]
    #[should_panic(expected = "q >= 2")]
    fn q1_forest_rejected() {
        Forest::new(PQParams::new(3, 1));
    }
}

#[cfg(test)]
mod edit_logged_tests {
    use super::*;
    use pqgram_tree::subtree::{delete_subtree, insert_subtree, move_subtree, Spec};

    #[test]
    fn subtree_edits_through_forest() {
        let mut forest = Forest::new(PQParams::default());
        let a = forest.labels_mut().intern("a");
        let b = forest.labels_mut().intern("b");
        let c = forest.labels_mut().intern("c");
        let mut doc = pqgram_tree::Tree::with_root(a);
        doc.add_child(doc.root(), b);
        let id = forest.insert(doc);

        // Insert a subtree, move it, delete another — all through the
        // managed API; the index stays consistent throughout.
        forest
            .edit_logged(id, |tree| {
                let root = tree.root();
                let spec = Spec::node(c, vec![Spec::leaf(b), Spec::leaf(b)]);
                let (_, log) = insert_subtree(tree, root, 1, &spec)?;
                Ok(log)
            })
            .unwrap();
        forest.check_consistency().unwrap();

        forest
            .edit_logged(id, |tree| {
                let root = tree.root();
                let target = *tree.children(root).last().expect("b child");
                let subject = tree.children(root)[0];
                let (_, log) = move_subtree(tree, subject, target, 1)?;
                Ok(log)
            })
            .unwrap();
        forest.check_consistency().unwrap();

        forest
            .edit_logged(id, |tree| {
                let root = tree.root();
                let victim = tree.children(root)[0];
                delete_subtree(tree, victim)
            })
            .unwrap();
        forest.check_consistency().unwrap();
        assert_eq!(forest.get(id).unwrap().node_count(), 1);
    }

    #[test]
    fn closure_error_leaves_forest_intact() {
        let mut forest = Forest::new(PQParams::default());
        let a = forest.labels_mut().intern("a");
        let id = forest.insert(pqgram_tree::Tree::with_root(a));
        let before = forest.get(id).unwrap().clone();
        let err = forest
            .edit_logged(id, |tree| {
                let root = tree.root();
                delete_subtree(tree, root) // root deletion: always fails
            })
            .unwrap_err();
        assert!(matches!(err, ForestError::Edit(EditError::RootEdit)));
        assert_eq!(forest.get(id).unwrap(), &before);
        forest.check_consistency().unwrap();
    }
}
