#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The pq-gram index and its incremental maintenance — the primary
//! contribution of *Augsten, Böhlen, Gamper: "An Incrementally Maintainable
//! Index for Approximate Lookups in Hierarchical Data" (VLDB 2006)*.
//!
//! # Overview
//!
//! The *pq-grams* of a tree are all its subtree patterns of a specific shape
//! (Definition 1): `p` nodes on an ancestor path ending in an *anchor* node,
//! plus `q` contiguous children of the anchor, where the tree is conceptually
//! extended with null nodes so that every node anchors at least one pq-gram.
//!
//! * [`profile`] enumerates pq-grams and computes profiles (Definition 2);
//! * [`index`] holds the pq-gram index — the bag of label-tuple fingerprints
//!   (Definition 3) — the pq-gram distance, and approximate lookups over
//!   forests;
//! * [`matrix`] implements the p-/q-matrix representation and the operators
//!   of Section 7 (`P⁺`, `P⁻`, replacement, windows `Q^{k..m}`, diagonal
//!   replacement `A ∥ B`, `D(n)`);
//! * [`table`] is the `(P, Q)` table pair of Section 8.1 that stores delta
//!   pq-grams with structure-shared p-parts and q-matrix rows;
//! * [`delta`] computes the delta function `δ(T, ē)` (Definition 4,
//!   Algorithm 2);
//! * [`update`] applies the profile update function `U` to the table pair
//!   (Definition 5, Algorithms 3–4);
//! * [`mod@join`] implements approximate joins over forests with lossless
//!   size/candidate pruning (the Guha et al. scenario of the related work);
//! * [`par`] is the workspace's only sanctioned threading seam: a
//!   deterministic fork/join fan-out used by parallel index construction,
//!   parallel lookups and parallel candidate verification;
//! * [`maintain`] is Algorithm 1: the end-to-end incremental index update
//!   from the old index, the resulting tree and the log of inverse edit
//!   operations, with the per-phase timing breakdown of Table 2;
//! * [`mod@reference`] contains deliberately naive oracle implementations used
//!   by the test suites to validate Theorems 1 and 2 and Lemma 2.
//!
//! # Quick example
//!
//! ```
//! use pqgram_core::{build_index, maintain::update_index, PQParams};
//! use pqgram_tree::{record_script, LabelTable, ScriptConfig, Tree};
//! use pqgram_tree::generate::{random_tree, RandomTreeConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut labels = LabelTable::new();
//! let mut tree = random_tree(&mut rng, &mut labels, &RandomTreeConfig::new(200, 6));
//! let params = PQParams::new(2, 3);
//!
//! // Index the original document T0 …
//! let old_index = build_index(&tree, &labels, params);
//!
//! // … the document evolves (we only keep the log of inverse operations) …
//! let alphabet: Vec<_> = labels.iter().map(|(s, _)| s).collect();
//! let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(20, alphabet));
//!
//! // … and the index is updated from (old index, resulting tree, log) only.
//! let updated = update_index(&old_index, &tree, &labels, &log).unwrap().index;
//! assert_eq!(updated, build_index(&tree, &labels, params));
//! ```

pub mod canonical;
pub mod delta;
pub mod forest;
pub mod gram;
pub mod index;
pub mod join;
pub mod maintain;
pub mod matrix;
pub mod par;
pub mod params;
pub mod plan;
pub mod profile;
pub mod reference;
pub mod table;
pub mod topk;
pub mod update;

pub use canonical::{build_unordered_index, canonicalize, unordered_fingerprint};
pub use forest::Forest;
pub use gram::{GramNode, PQGram};
pub use index::{
    build_forest_index_parallel, build_index, pq_distance, ForestIndex, GramKey, LookupHit,
    ParamsMismatch, TreeId, TreeIndex,
};
pub use join::{join, join_parallel, overlap_distance, InvertedIndex, JoinPair, JoinStats};
pub use maintain::{update_index, IndexDelta, MaintainError, UpdateOutcome, UpdateStats};
pub use params::PQParams;
pub use plan::{Bound, LookupPlanner};
pub use profile::{compute_profile, for_each_gram, for_each_key, GramKernel, Profile};
pub use topk::TopK;
