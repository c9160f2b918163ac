//! Random edit-script generation — the update workloads of Section 9.
//!
//! [`record_script`] applies a random but always-valid sequence of forward
//! edit operations to a tree and records the log of inverse operations, i.e.
//! it produces exactly the input triple of the paper's maintenance problem:
//! the resulting tree `Tₙ` and the log `L = (ē₁, …, ēₙ)` (the original `T₀`
//! is assumed to be thrown away).

use crate::edit::{EditLog, EditOp};
use crate::label::LabelSym;
use crate::tree::{NodeId, Tree};
use rand::seq::IndexedRandom;
use rand::Rng;

/// Relative weights of the three edit operations in a generated script.
#[derive(Clone, Copy, Debug)]
pub struct ScriptMix {
    /// Weight of `INS` operations.
    pub insert: u32,
    /// Weight of `DEL` operations.
    pub delete: u32,
    /// Weight of `REN` operations.
    pub rename: u32,
}

impl Default for ScriptMix {
    /// Equal thirds.
    fn default() -> Self {
        ScriptMix {
            insert: 1,
            delete: 1,
            rename: 1,
        }
    }
}

/// Configuration for [`record_script`].
#[derive(Clone, Debug)]
pub struct ScriptConfig {
    /// Number of edit operations to apply.
    pub ops: usize,
    /// Operation mix.
    pub mix: ScriptMix,
    /// Labels to draw from for inserts and renames (must be non-empty;
    /// renames need at least two labels to always make progress).
    pub alphabet: Vec<LabelSym>,
    /// Cap on the number of children an insert adopts (keeps deltas local,
    /// like real document edits). `0` means inserts are always leaf inserts.
    pub max_adopted: usize,
}

impl ScriptConfig {
    /// A sensible default configuration over the given alphabet.
    pub fn new(ops: usize, alphabet: Vec<LabelSym>) -> Self {
        ScriptConfig {
            ops,
            mix: ScriptMix::default(),
            alphabet,
            max_adopted: 3,
        }
    }
}

/// Applies up to `cfg.ops` random valid edits to `tree` and returns the log
/// of inverse operations (plus the applied forward operations, for
/// debugging and for oracle tests that replay intermediate versions).
///
/// The root is never edited, matching the paper's assumption. If the tree
/// and mix cannot support further operations (e.g. a delete-only mix on a
/// single-node tree), the script ends early with fewer operations. Panics
/// if the alphabet is empty.
pub fn record_script<R: Rng + ?Sized>(
    rng: &mut R,
    tree: &mut Tree,
    cfg: &ScriptConfig,
) -> (EditLog, Vec<EditOp>) {
    assert!(!cfg.alphabet.is_empty(), "alphabet must not be empty");
    let mut live: Vec<NodeId> = tree.preorder(tree.root()).collect();
    let mut log = EditLog::new();
    let mut forward = Vec::with_capacity(cfg.ops);

    let total = cfg.mix.insert + cfg.mix.delete + cfg.mix.rename;
    assert!(total > 0, "mix weights must not all be zero");

    let mut failed_attempts = 0usize;
    while forward.len() < cfg.ops {
        if failed_attempts > 300 {
            // No applicable operation exists for this tree/mix (e.g. only
            // deletes requested and only the root remains): stop early.
            break;
        }
        let roll = rng.random_range(0..total);
        let op = if roll < cfg.mix.insert {
            gen_insert(rng, tree, &live, cfg)
        } else if roll < cfg.mix.insert + cfg.mix.delete {
            gen_delete(rng, tree, &live)
        } else {
            gen_rename(rng, tree, &live, cfg)
        };
        let Some(op) = op else {
            failed_attempts += 1;
            continue;
        };
        // Generated operations are valid, so this never fails.
        let Ok(inverse) = tree.apply_logged(op) else {
            failed_attempts += 1;
            continue;
        };
        failed_attempts = 0;
        match op {
            EditOp::Insert { node, .. } => live.push(node),
            EditOp::Delete { node } => {
                if let Some(idx) = live.iter().position(|&n| n == node) {
                    live.swap_remove(idx);
                }
            }
            EditOp::Rename { .. } => {}
        }
        log.push(inverse);
        forward.push(op);
    }
    (log, forward)
}

fn gen_insert<R: Rng + ?Sized>(
    rng: &mut R,
    tree: &Tree,
    live: &[NodeId],
    cfg: &ScriptConfig,
) -> Option<EditOp> {
    let &parent = live.choose(rng)?;
    let f = tree.fanout(parent);
    let k = rng.random_range(1..=f + 1);
    let max_m = (k - 1 + cfg.max_adopted).min(f);
    let m = rng.random_range(k - 1..=max_m);
    let label = *cfg.alphabet.choose(rng)?;
    Some(EditOp::Insert {
        node: tree.next_node_id(),
        label,
        parent,
        k,
        m,
    })
}

fn gen_delete<R: Rng + ?Sized>(rng: &mut R, tree: &Tree, live: &[NodeId]) -> Option<EditOp> {
    if live.len() <= 1 {
        return None;
    }
    let &node = live.choose(rng)?;
    if node == tree.root() {
        return None;
    }
    Some(EditOp::Delete { node })
}

fn gen_rename<R: Rng + ?Sized>(
    rng: &mut R,
    tree: &Tree,
    live: &[NodeId],
    cfg: &ScriptConfig,
) -> Option<EditOp> {
    let &node = live.choose(rng)?;
    if node == tree.root() {
        return None;
    }
    let current = tree.label(node);
    let label = *cfg.alphabet.choose(rng)?;
    if label == current {
        return None;
    }
    Some(EditOp::Rename { node, label })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_tree, RandomTreeConfig};
    use crate::label::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, nodes: usize) -> (Tree, LabelTable, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, 8));
        (tree, lt, rng)
    }

    #[test]
    fn script_is_valid_and_rewindable() {
        for seed in 0..20 {
            let (mut tree, lt, mut rng) = setup(seed, 60);
            let orig = tree.clone();
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            let cfg = ScriptConfig::new(25, alphabet);
            let (log, forward) = record_script(&mut rng, &mut tree, &cfg);
            assert_eq!(log.len(), 25);
            assert_eq!(forward.len(), 25);
            tree.validate().unwrap();
            log.rewind(&mut tree).unwrap();
            tree.validate().unwrap();
            assert_eq!(tree, orig, "seed {seed}: rewind must restore T0");
        }
    }

    #[test]
    fn script_respects_mix() {
        let (mut tree, lt, mut rng) = setup(7, 200);
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let mut cfg = ScriptConfig::new(50, alphabet);
        cfg.mix = ScriptMix {
            insert: 1,
            delete: 0,
            rename: 0,
        };
        let (_, forward) = record_script(&mut rng, &mut tree, &cfg);
        assert!(forward.iter().all(|op| matches!(op, EditOp::Insert { .. })));
        assert_eq!(tree.node_count(), 250);
    }

    #[test]
    fn rename_only_scripts_preserve_structure() {
        let (mut tree, lt, mut rng) = setup(9, 100);
        let shape_before: Vec<_> = tree.preorder(tree.root()).collect();
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let mut cfg = ScriptConfig::new(30, alphabet);
        cfg.mix = ScriptMix {
            insert: 0,
            delete: 0,
            rename: 1,
        };
        record_script(&mut rng, &mut tree, &cfg);
        let shape_after: Vec<_> = tree.preorder(tree.root()).collect();
        assert_eq!(shape_before, shape_after);
    }

    #[test]
    fn delete_heavy_script_never_deletes_root() {
        let (mut tree, lt, mut rng) = setup(11, 40);
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let mut cfg = ScriptConfig::new(35, alphabet);
        cfg.mix = ScriptMix {
            insert: 0,
            delete: 1,
            rename: 0,
        };
        let (_, forward) = record_script(&mut rng, &mut tree, &cfg);
        assert_eq!(forward.len(), 35);
        assert_eq!(tree.node_count(), 5);
        assert!(tree.contains(tree.root()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::{random_tree, RandomTreeConfig};
    use crate::label::LabelTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Records a script of `ops` edits of mix `mix_sel` on a random tree,
    /// then rewinds its log: the tree must come back exactly.
    fn record_then_rewind(
        seed: u64,
        nodes: usize,
        ops: usize,
        mix_sel: u8,
        adopted: usize,
        alphabet: usize,
    ) {
        let mix = match mix_sel {
            0 => ScriptMix {
                insert: 1,
                delete: 0,
                rename: 0,
            },
            1 => ScriptMix {
                insert: 0,
                delete: 1,
                rename: 0,
            },
            2 => ScriptMix {
                insert: 0,
                delete: 0,
                rename: 1,
            },
            3 => ScriptMix {
                insert: 1,
                delete: 1,
                rename: 0,
            },
            _ => ScriptMix::default(),
        };
        let alphabet = if mix_sel == 2 || mix_sel == 4 {
            alphabet.max(2)
        } else {
            alphabet
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lt = LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(nodes, alphabet));
        let snapshot = tree.clone();
        let syms: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let mut cfg = ScriptConfig::new(ops.min(nodes.saturating_sub(2).max(1)), syms);
        cfg.mix = mix;
        cfg.max_adopted = adopted;
        let (log, forward) = record_script(&mut rng, &mut tree, &cfg);
        assert_eq!(log.len(), forward.len());
        tree.validate().unwrap();
        log.rewind(&mut tree).unwrap();
        assert_eq!(tree, snapshot);
    }

    /// Any recorded script rewinds exactly, regardless of size, mix or
    /// adoption width — the foundational contract of the edit model.
    #[test]
    fn prop_record_then_rewind_is_identity() {
        check::cases("prop_record_then_rewind_is_identity", 96, |g| {
            let (seed, nodes, ops) = (
                g.random_range(0..1_000_000),
                g.random_range(1..100),
                g.random_range(0..40),
            );
            let (mix_sel, adopted, alphabet) = (
                g.random_range(0..5),
                g.random_range(0..5),
                g.random_range(1..7),
            );
            record_then_rewind(seed, nodes, ops, mix_sel, adopted, alphabet);
        });
    }

    /// A case the property once failed on: a one-node tree under a
    /// delete-only mix (nothing but the root to delete), one label.
    #[test]
    fn a_delete_only_script_on_a_lone_root_rewinds() {
        record_then_rewind(0, 1, 1, 1, 0, 1);
    }
}
