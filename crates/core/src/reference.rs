//! Deliberately naive oracle implementations of the paper's definitions.
//!
//! These recompute everything from materialized profiles of **all**
//! intermediate tree versions — exactly what the incremental algorithm
//! avoids — and exist solely to validate the optimized implementation:
//!
//! * `Δₙ⁺ = Pₙ \ Cₙ` and `Δₙ⁻ = P₀ \ Cₙ` with `Cₙ = P₀ ∩ … ∩ Pₙ`
//!   (Definition 6);
//! * `δ(T_j, ē) = P_j \ P_i` (Definition 4);
//! * the updated index by full recomputation;
//! * the index itself, gram by gram and label by label
//!   ([`index_by_definition`]) — the oracle for the fingerprint kernel.

use crate::gram::{label_tuple_fingerprint, PQGram};
use crate::index::{GramKey, TreeIndex};
use crate::params::PQParams;
use crate::profile::{compute_profile, for_each_gram, Profile};
use pqgram_tree::{EditLog, EditOp, LabelTable, Tree};

/// Reconstructs all intermediate versions `[T₀, T₁, …, Tₙ]` from the final
/// tree and the log of inverse operations. Panics if the log does not match
/// the tree (oracle code).
pub fn rewind_versions(final_tree: &Tree, log: &EditLog) -> Vec<Tree> {
    let mut versions = Vec::with_capacity(log.len() + 1);
    versions.push(final_tree.clone());
    let mut cur = final_tree.clone();
    for entry in log.ops().iter().rev() {
        cur.apply(entry.op).expect("oracle: log must be applicable");
        versions.push(cur.clone());
    }
    versions.reverse();
    versions
}

/// `Cₙ`: the pq-grams shared by all versions (Equation 11).
pub fn invariant_grams(versions: &[Tree], params: PQParams) -> Profile {
    let mut iter = versions.iter();
    let first = iter.next().expect("at least one version");
    let mut inv = compute_profile(first, params);
    for t in iter {
        let profile = compute_profile(t, params);
        inv.retain(|g| profile.contains(g));
    }
    inv
}

/// `Δₙ⁺ = Pₙ \ Cₙ` (Equation 12).
pub fn delta_plus_by_definition(versions: &[Tree], params: PQParams) -> Profile {
    let last = versions.last().expect("at least one version");
    let inv = invariant_grams(versions, params);
    let mut profile = compute_profile(last, params);
    profile.retain(|g| !inv.contains(g));
    profile
}

/// `Δₙ⁻ = P₀ \ Cₙ` (Equation 12).
pub fn delta_minus_by_definition(versions: &[Tree], params: PQParams) -> Profile {
    let first = versions.first().expect("at least one version");
    let inv = invariant_grams(versions, params);
    let mut profile = compute_profile(first, params);
    profile.retain(|g| !inv.contains(g));
    profile
}

/// `δ(T_j, ē) = P_j \ P_i` where `T_i = ē(T_j)`, or `None` when `ē` is not
/// applicable (Definition 4's ∅ branch).
pub fn delta_by_definition(tree: &Tree, op: EditOp, params: PQParams) -> Option<Profile> {
    let mut older = tree.clone();
    older.apply(op).ok()?;
    let older_profile = compute_profile(&older, params);
    let mut delta = compute_profile(tree, params);
    delta.retain(|g| !older_profile.contains(g));
    Some(delta)
}

/// `I(T)` by definition (Definition 3): enumerate every pq-gram at node
/// level and fold its `p + q` labels, one `combine` each, into its key.
/// [`crate::build_index`] must produce exactly this bag, bit for bit.
pub fn index_by_definition(tree: &Tree, labels: &LabelTable, params: PQParams) -> TreeIndex {
    let mut index = TreeIndex::empty(params);
    for_each_gram(tree, params, |ppart, qpart| {
        let tuple = ppart.iter().chain(qpart).map(|e| e.label());
        index.add(label_tuple_fingerprint(tuple, labels));
    });
    index
}

/// Projects a profile to the sorted bag of label-tuple fingerprints — the
/// comparison currency of the oracle tests.
pub fn lambda_keys(profile: &Profile, labels: &LabelTable) -> Vec<GramKey> {
    let mut keys: Vec<GramKey> = profile
        .iter()
        .map(|g: &PQGram| g.tuple_fingerprint(labels))
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_tree::generate::{random_tree, RandomTreeConfig};
    use pqgram_tree::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn versions_start_at_t0_and_end_at_tn() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = pqgram_tree::LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(30, 4));
        let t0 = tree.clone();
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(6, alphabet));
        let versions = rewind_versions(&tree, &log);
        assert_eq!(versions.len(), 7);
        assert_eq!(versions[0], t0);
        assert_eq!(versions[6], tree);
    }

    #[test]
    fn empty_log_has_empty_deltas() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lt = pqgram_tree::LabelTable::new();
        let tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(30, 4));
        let versions = vec![tree.clone()];
        let params = PQParams::default();
        assert!(delta_plus_by_definition(&versions, params).is_empty());
        assert!(delta_minus_by_definition(&versions, params).is_empty());
        assert_eq!(
            invariant_grams(&versions, params).len(),
            compute_profile(&tree, params).len()
        );
    }

    #[test]
    fn deltas_are_disjoint_from_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lt = pqgram_tree::LabelTable::new();
        let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(50, 4));
        let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
        let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(10, alphabet));
        let versions = rewind_versions(&tree, &log);
        let params = PQParams::new(2, 2);
        let inv = invariant_grams(&versions, params);
        let plus = delta_plus_by_definition(&versions, params);
        let minus = delta_minus_by_definition(&versions, params);
        assert!(plus.iter().all(|g| !inv.contains(g)));
        assert!(minus.iter().all(|g| !inv.contains(g)));
        // P_n = C_n ∪ Δ+ and P_0 = C_n ∪ Δ− (Lemma 2's first step).
        assert_eq!(
            compute_profile(versions.last().unwrap(), params).len(),
            inv.len() + plus.len()
        );
        assert_eq!(
            compute_profile(&versions[0], params).len(),
            inv.len() + minus.len()
        );
    }
}
