//! Ordered labeled trees with stable node identity, tree edit operations and
//! workload generators.
//!
//! This crate is the data-model substrate of the `pqgram` workspace, a
//! reproduction of *Augsten, Böhlen, Gamper: "An Incrementally Maintainable
//! Index for Approximate Lookups in Hierarchical Data" (VLDB 2006)*.
//!
//! The paper models hierarchical data (Section 3.1) as directed, acyclic,
//! connected graphs with ordered siblings, where every node is an
//! *(identifier, label)* pair. Identifiers are unique within a tree and stable
//! across edit operations — the correctness proofs of the incremental index
//! maintenance depend on being able to equate nodes of different versions of
//! the same document. [`Tree`] implements exactly this model: an arena of node
//! slots whose indices are never reused, interned labels, and the three
//! standard node edit operations `INS`, `DEL`, `REN` of Zhang & Shasha with
//! their inverses ([`EditOp`]).
//!
//! # Quick example
//!
//! ```
//! use pqgram_tree::{Tree, LabelTable, EditOp};
//!
//! let mut labels = LabelTable::new();
//! let (a, b, c) = (labels.intern("a"), labels.intern("b"), labels.intern("c"));
//!
//! // build   a
//! //        / \
//! //       b   c
//! let mut tree = Tree::with_root(a);
//! let root = tree.root();
//! let nb = tree.add_child(root, b);
//! let _nc = tree.add_child(root, c);
//!
//! // rename b -> c and remember the inverse operation
//! let inverse = tree.apply(EditOp::Rename { node: nb, label: c }).unwrap();
//! assert_eq!(tree.label(nb), c);
//! // undo
//! tree.apply(inverse).unwrap();
//! assert_eq!(tree.label(nb), b);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod edit;
pub mod fingerprint;
pub mod generate;
pub mod hash;
pub mod label;
pub mod optimize;
pub mod render;
pub mod script;
pub mod serial;
pub mod subtree;
pub mod tree;

pub use edit::{EditError, EditLog, EditOp, InsertAnchor, LogOp};
pub use fingerprint::{karp_rabin, Fingerprint};
pub use hash::{FxHashMap, FxHashSet};
pub use label::{LabelSym, LabelTable};
pub use optimize::{optimize_log, OptimizeStats};
pub use script::{record_script, ScriptConfig, ScriptMix};
pub use tree::{NodeId, Tree};
