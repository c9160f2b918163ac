//! Algorithm 1: the end-to-end incremental index update.
//!
//! Input — exactly the paper's application scenario (Figure 5):
//! * the *old index* `I₀` of the original document `T₀`;
//! * the *resulting tree* `Tₙ` after a sequence of edits;
//! * the *log* `L = (ē₁, …, ēₙ)` of inverse edit operations.
//!
//! `T₀` and all intermediate versions are **not** available and are never
//! reconstructed. The update runs in three steps:
//!
//! 1. `Δₙ⁺ = ⋃ₖ δ(Tₙ, ēₖ)` — evaluate the delta function of every log
//!    entry on `Tₙ` (Theorem 1) and collect the result in the `(P, Q)`
//!    tables; project to `I⁺ = λ(Δₙ⁺)`.
//! 2. Apply the profile update function for `ēₙ, …, ē₁` in turn, morphing
//!    the tables into `Δₙ⁻` (Theorem 2); project to `I⁻ = λ(Δₙ⁻)`.
//! 3. `Iₙ = I₀ \ I⁻ ⊎ I⁺` (Lemma 2).
//!
//! Every step is timed separately so the Table 2 breakdown of the paper can
//! be reproduced ([`UpdateStats`]).

use crate::delta::accumulate_delta;
use crate::index::{GramKey, TreeIndex};
use crate::params::PQParams;
use crate::table::{DeltaTables, TableError};
use crate::update::apply_update;
use pqgram_tree::{EditLog, LabelTable, Tree};
use std::fmt;
use std::time::{Duration, Instant};

/// Why an incremental update failed. All variants indicate a mismatch
/// between index, tree and log — the update never partially applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintainError {
    /// The index was built with parameters the incremental maintenance does
    /// not support (`q = 1`; see [`PQParams::supports_incremental`]).
    UnsupportedParams(PQParams),
    /// The log edits the root, which the paper's model forbids.
    RootEdit,
    /// A log entry carries arguments no valid recording can produce.
    InvalidOp(pqgram_tree::EditOp),
    /// The `(P, Q)` tables became inconsistent — the log does not belong to
    /// this tree.
    Table(TableError),
    /// `I⁻` asked to remove a gram the old index does not contain — the old
    /// index does not belong to this tree/log.
    InconsistentIndex(GramKey),
}

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintainError::UnsupportedParams(p) => {
                write!(f, "incremental maintenance requires q >= 2, got {p}")
            }
            MaintainError::RootEdit => write!(f, "the log must not edit the root node"),
            MaintainError::InvalidOp(op) => write!(f, "malformed log entry {op:?}"),
            MaintainError::Table(e) => write!(f, "delta tables inconsistent: {e}"),
            MaintainError::InconsistentIndex(k) => {
                write!(f, "old index lacks gram {k:#x} scheduled for removal")
            }
        }
    }
}

impl std::error::Error for MaintainError {}

impl From<TableError> for MaintainError {
    fn from(e: TableError) -> Self {
        MaintainError::Table(e)
    }
}

/// Wall-clock breakdown of one incremental update — the rows of Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateStats {
    /// Number of log entries processed.
    pub ops: usize,
    /// Log entries whose delta was empty on `Tₙ` (not applicable there).
    pub skipped_deltas: usize,
    /// Time to compute `Δₙ⁺` (delta function on `Tₙ` for every log entry).
    pub delta_plus: Duration,
    /// Time to project `I⁺ = λ(Δₙ⁺)`.
    pub lambda_plus: Duration,
    /// Time to rewind the tables to `Δₙ⁻` (profile update function).
    pub delta_minus: Duration,
    /// Time to project `I⁻ = λ(Δₙ⁻)`.
    pub lambda_minus: Duration,
    /// Time to apply `I₀ \ I⁻ ⊎ I⁺`.
    pub apply: Duration,
    /// `|Δₙ⁺|` in pq-grams.
    pub plus_grams: usize,
    /// `|Δₙ⁻|` in pq-grams.
    pub minus_grams: usize,
}

impl UpdateStats {
    /// Total wall time of the update.
    pub fn total(&self) -> Duration {
        self.delta_plus + self.lambda_plus + self.delta_minus + self.lambda_minus + self.apply
    }
}

impl fmt::Display for UpdateStats {
    /// One-line human-readable summary (Table 2 in miniature).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} inapplicable on Tn): Δ+ {} grams in {:.3?}, Δ- {} grams in {:.3?},              λ {:.3?}, apply {:.3?}, total {:.3?}",
            self.ops,
            self.skipped_deltas,
            self.plus_grams,
            self.delta_plus,
            self.minus_grams,
            self.delta_minus,
            self.lambda_plus + self.lambda_minus,
            self.apply,
            self.total()
        )
    }
}

/// The bag-level difference between old and new index.
#[derive(Clone, Debug, Default)]
pub struct IndexDelta {
    /// `I⁺ = λ(Δₙ⁺)`: fingerprints to add (bag, duplicates meaningful).
    pub additions: Vec<GramKey>,
    /// `I⁻ = λ(Δₙ⁻)`: fingerprints to remove.
    pub removals: Vec<GramKey>,
}

/// Result of a successful incremental update.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The new index `Iₙ`.
    pub index: TreeIndex,
    /// The applied bag difference.
    pub delta: IndexDelta,
    /// Timing breakdown.
    pub stats: UpdateStats,
}

/// Computes `I⁺`/`I⁻` from the resulting tree and the log only (steps 1–2 of
/// Algorithm 1). Useful when the index lives elsewhere (e.g. on disk in
/// `pqgram-store`) and the caller applies the delta itself.
pub fn compute_index_delta(
    tree: &Tree,
    labels: &LabelTable,
    log: &EditLog,
    params: PQParams,
) -> Result<(IndexDelta, UpdateStats), MaintainError> {
    if !params.supports_incremental() {
        return Err(MaintainError::UnsupportedParams(params));
    }
    for entry in log.ops() {
        if entry.op.target() == tree.root() {
            return Err(MaintainError::RootEdit);
        }
        if let pqgram_tree::EditOp::Insert { k, m, .. } = entry.op {
            // Guard table arithmetic against absurd positional arguments
            // (hand-crafted logs): positions fit u32 and `m ≥ k − 1`.
            const LIMIT: usize = u32::MAX as usize / 4;
            if k == 0 || m + 1 < k || k > LIMIT || m > LIMIT {
                return Err(MaintainError::InvalidOp(entry.op));
            }
        }
    }
    let mut stats = UpdateStats {
        ops: log.len(),
        ..Default::default()
    };
    let mut tables = DeltaTables::new();

    // Step 1: Δₙ⁺ = ⋃ δ(Tₙ, ēᵢ).
    let t = Instant::now();
    for entry in log.ops() {
        if !accumulate_delta(&mut tables, tree, entry, params)? {
            stats.skipped_deltas += 1;
        }
    }
    stats.delta_plus = t.elapsed();

    // I⁺ = λ(Δₙ⁺).
    let t = Instant::now();
    let additions = tables.lambda(labels)?;
    stats.lambda_plus = t.elapsed();
    stats.plus_grams = additions.len();

    // Step 2: rewind through the log — U(…U(Δₙ⁺, ēₙ)…, ē₁) = Δₙ⁻.
    let t = Instant::now();
    for entry in log.ops().iter().rev() {
        apply_update(&mut tables, entry.op, params)?;
    }
    stats.delta_minus = t.elapsed();

    // I⁻ = λ(Δₙ⁻).
    let t = Instant::now();
    let removals = tables.lambda(labels)?;
    stats.lambda_minus = t.elapsed();
    stats.minus_grams = removals.len();

    Ok((
        IndexDelta {
            additions,
            removals,
        },
        stats,
    ))
}

/// Algorithm 1: `updateIndex(I₀, Tₙ, L) → Iₙ`.
///
/// The old index is not modified; on success the new index is returned
/// together with the applied delta and the timing breakdown.
pub fn update_index(
    old_index: &TreeIndex,
    tree: &Tree,
    labels: &LabelTable,
    log: &EditLog,
) -> Result<UpdateOutcome, MaintainError> {
    let params = old_index.params();
    let (delta, mut stats) = compute_index_delta(tree, labels, log, params)?;

    // Step 3: Iₙ = I₀ \ I⁻ ⊎ I⁺. `I⁻ ⊆ I₀` (Lemma 2), so removing before
    // adding can never underflow on a consistent input.
    let t = Instant::now();
    let mut index = old_index.clone();
    for &key in &delta.removals {
        if !index.remove(key) {
            return Err(MaintainError::InconsistentIndex(key));
        }
    }
    for &key in &delta.additions {
        index.add(key);
    }
    stats.apply = t.elapsed();

    Ok(UpdateOutcome {
        index,
        delta,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, EditOp, LabelTable, ScriptConfig, ScriptMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario(
        seed: u64,
        nodes: usize,
        ops: usize,
        mix: ScriptMix,
    ) -> (Tree, Tree, LabelTable, EditLog) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, 5));
        let t0 = tree.clone();
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let mut cfg = ScriptConfig::new(ops, alphabet);
        cfg.mix = mix;
        let (log, _) = record_script(&mut rng, &mut tree, &cfg);
        (t0, tree, lt, log)
    }

    fn check(seed: u64, nodes: usize, ops: usize, mix: ScriptMix, params: PQParams) {
        let (t0, tn, lt, log) = scenario(seed, nodes, ops, mix);
        let old_index = build_index(&t0, &lt, params);
        let outcome =
            update_index(&old_index, &tn, &lt, &log).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let expected = build_index(&tn, &lt, params);
        assert_eq!(outcome.index, expected, "seed {seed} params {params:?}");
    }

    #[test]
    fn incremental_equals_rebuild_rename_only() {
        for seed in 0..10 {
            check(
                seed,
                60,
                12,
                ScriptMix {
                    insert: 0,
                    delete: 0,
                    rename: 1,
                },
                PQParams::new(3, 3),
            );
        }
    }

    #[test]
    fn incremental_equals_rebuild_insert_only() {
        for seed in 0..10 {
            check(
                seed,
                60,
                12,
                ScriptMix {
                    insert: 1,
                    delete: 0,
                    rename: 0,
                },
                PQParams::new(3, 3),
            );
        }
    }

    #[test]
    fn incremental_equals_rebuild_delete_only() {
        for seed in 0..10 {
            check(
                seed,
                60,
                12,
                ScriptMix {
                    insert: 0,
                    delete: 1,
                    rename: 0,
                },
                PQParams::new(3, 3),
            );
        }
    }

    #[test]
    fn incremental_equals_rebuild_mixed() {
        for seed in 0..25 {
            check(seed, 80, 20, ScriptMix::default(), PQParams::new(3, 3));
        }
    }

    #[test]
    fn incremental_equals_rebuild_other_params() {
        for params in [
            PQParams::new(1, 2),
            PQParams::new(2, 2),
            PQParams::new(2, 4),
            PQParams::new(4, 3),
        ] {
            for seed in 0..8 {
                check(seed, 50, 15, ScriptMix::default(), params);
            }
        }
    }

    #[test]
    fn empty_log_is_identity() {
        let (t0, _, lt, _) = scenario(1, 40, 0, ScriptMix::default());
        let params = PQParams::new(3, 3);
        let idx = build_index(&t0, &lt, params);
        let outcome = update_index(&idx, &t0, &lt, &EditLog::new()).unwrap();
        assert_eq!(outcome.index, idx);
        assert!(outcome.delta.additions.is_empty());
        assert!(outcome.delta.removals.is_empty());
    }

    #[test]
    fn q1_params_rejected() {
        let (t0, tn, lt, log) = scenario(2, 40, 5, ScriptMix::default());
        let idx = build_index(&t0, &lt, PQParams::new(3, 1));
        assert_eq!(
            update_index(&idx, &tn, &lt, &log).unwrap_err(),
            MaintainError::UnsupportedParams(PQParams::new(3, 1))
        );
    }

    #[test]
    fn root_edit_rejected() {
        let (t0, tn, mut lt, _) = scenario(3, 40, 0, ScriptMix::default());
        let idx = build_index(&t0, &lt, PQParams::new(3, 3));
        let z = lt.intern("zzz");
        let log: EditLog = [pqgram_tree::LogOp::new(
            EditOp::Rename {
                node: tn.root(),
                label: z,
            },
            None,
        )]
        .into_iter()
        .collect();
        assert_eq!(
            update_index(&idx, &tn, &lt, &log).unwrap_err(),
            MaintainError::RootEdit
        );
    }

    #[test]
    fn mismatched_index_detected() {
        // Update a foreign index with a log: the removals cannot all apply.
        let (_, tn, lt, log) = scenario(4, 60, 10, ScriptMix::default());
        let (other, _, other_lt, _) = scenario(99, 60, 0, ScriptMix::default());
        let params = PQParams::new(3, 3);
        let foreign = build_index(&other, &other_lt, params);
        // Either an explicit error or (astronomically unlikely) a wrong
        // index; assert the error.
        match update_index(&foreign, &tn, &lt, &log) {
            Err(MaintainError::InconsistentIndex(_)) | Err(MaintainError::Table(_)) => {}
            other => panic!("expected inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let (t0, tn, lt, log) = scenario(5, 100, 15, ScriptMix::default());
        let params = PQParams::new(3, 3);
        let idx = build_index(&t0, &lt, params);
        let outcome = update_index(&idx, &tn, &lt, &log).unwrap();
        let s = outcome.stats;
        assert_eq!(s.ops, 15);
        assert_eq!(s.plus_grams, outcome.delta.additions.len());
        assert_eq!(s.minus_grams, outcome.delta.removals.len());
        assert!(s.total() >= s.delta_plus);
        assert!(s.plus_grams > 0 && s.minus_grams > 0);
    }

    #[test]
    fn deep_chain_edits() {
        // Regression guard for ancestor-chain handling: edits at the bottom
        // of a deep unary chain.
        let mut lt = LabelTable::new();
        let labels: Vec<_> = (0..8).map(|i| lt.intern(&format!("d{i}"))).collect();
        let mut t = Tree::with_root(labels[0]);
        let mut cur = t.root();
        for i in 1..60 {
            cur = t.add_child(cur, labels[i % 8]);
        }
        let t0 = t.clone();
        let params = PQParams::new(4, 2);
        let idx = build_index(&t0, &lt, params);
        let mut rng = StdRng::seed_from_u64(7);
        let mut cfg = ScriptConfig::new(12, labels.clone());
        cfg.max_adopted = 1;
        let (log, _) = record_script(&mut rng, &mut t, &cfg);
        let outcome = update_index(&idx, &t, &lt, &log).unwrap();
        assert_eq!(outcome.index, build_index(&t, &lt, params));
    }
}

#[cfg(test)]
mod invalid_op_tests {
    use super::*;
    use crate::index::build_index;
    use pqgram_tree::{EditOp, InsertAnchor, LabelTable, LogOp};

    #[test]
    fn absurd_insert_positions_rejected() {
        let mut lt = LabelTable::new();
        let mut t = Tree::with_root(lt.intern("a"));
        let b = lt.intern("b");
        t.add_child(t.root(), b);
        let idx = build_index(&t, &lt, PQParams::default());
        for (k, m) in [(0usize, 0usize), (5, 2), (usize::MAX / 2, usize::MAX / 2)] {
            let log: EditLog = [LogOp::new(
                EditOp::Insert {
                    node: pqgram_tree::NodeId::from_index(50),
                    label: b,
                    parent: t.root(),
                    k,
                    m,
                },
                Some(InsertAnchor::Gap {
                    pred: None,
                    succ: None,
                }),
            )]
            .into_iter()
            .collect();
            assert!(
                matches!(
                    update_index(&idx, &t, &lt, &log),
                    Err(MaintainError::InvalidOp(_))
                ),
                "k={k} m={m} must be rejected"
            );
        }
    }
}
