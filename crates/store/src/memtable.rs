//! The in-memory write buffer of the segmented engine.
//!
//! A [`Memtable`] absorbs puts and removals until the segmented store
//! flushes it into one immutable segment file
//! ([`crate::segment::Segment`]). Entries are keyed by tree id; a `None`
//! value is a **tombstone** — the tree was removed (or replaced by an
//! empty index, which the relation format cannot represent; see
//! [`crate::ops::put_tree_entries`]) and the flushed segment must shadow
//! any older rows of that tree.
//!
//! The memtable is the newest source in the lookup merge order, so its
//! entries win over every segment and over the main file. Nothing here is
//! durable: a crash loses exactly the buffered entries and nothing else —
//! the usual memtable contract.

use pqgram_core::{TreeId, TreeIndex};
use std::collections::BTreeMap;

/// Buffered per-tree replacements, newest state only: a second put of the
/// same tree overwrites the first in place.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    entries: BTreeMap<u64, Option<TreeIndex>>,
    grams: u64,
}

impl Memtable {
    pub(crate) fn new() -> Memtable {
        Memtable::default()
    }

    /// Number of buffered entries (tombstones included).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct grams buffered, summed over the entries the map holds now
    /// (an entry a later put or removal replaced no longer counts) — the
    /// flush-threshold heuristic: the row count of the segment a flush
    /// would write.
    pub(crate) fn grams(&self) -> u64 {
        self.grams
    }

    /// Buffers a full replacement of `id`. An empty index becomes a
    /// tombstone, matching the single-file semantics where empty trees are
    /// not representable in the relation.
    pub(crate) fn put(&mut self, id: TreeId, index: TreeIndex) {
        self.set(id, (index.total() > 0).then_some(index));
    }

    /// Buffers a removal of `id` (a tombstone).
    pub(crate) fn remove(&mut self, id: TreeId) {
        self.set(id, None);
    }

    fn set(&mut self, id: TreeId, entry: Option<TreeIndex>) {
        self.grams += entry.as_ref().map_or(0, distinct);
        if let Some(Some(replaced)) = self.entries.insert(id.0, entry) {
            self.grams -= distinct(&replaced);
        }
    }

    /// Edits the buffered bag of `id` where it lies: taken out of its
    /// entry, handed to `change`, put back (as a tombstone if `change`
    /// emptied it), with [`Memtable::grams`] adjusted by the difference.
    /// `None` — and `change` not called — if the memtable buffers no bag
    /// for `id` (nothing, or a tombstone). `change` must be all-or-nothing:
    /// after an `Err` the bag goes back as it came.
    pub(crate) fn edit<E>(
        &mut self,
        id: TreeId,
        change: impl FnOnce(&mut TreeIndex) -> Result<(), E>,
    ) -> Option<Result<(), E>> {
        let entry = self.entries.get_mut(&id.0)?;
        let mut index = entry.take()?;
        let before = distinct(&index);
        let outcome = change(&mut index);
        self.grams = self.grams - before + distinct(&index);
        *entry = (index.total() > 0).then_some(index);
        Some(outcome)
    }

    /// The buffered entry of `id`: `None` if the memtable holds nothing
    /// for this tree, `Some(None)` for a tombstone.
    pub(crate) fn get(&self, id: TreeId) -> Option<&Option<TreeIndex>> {
        self.entries.get(&id.0)
    }

    /// All buffered entries, ascending by tree id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Option<TreeIndex>)> {
        self.entries.iter().map(|(&t, e)| (t, e))
    }

    /// Read access to the whole map (segment builds iterate it in order).
    pub(crate) fn entries(&self) -> &BTreeMap<u64, Option<TreeIndex>> {
        &self.entries
    }

    /// Empties the memtable after a successful flush.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.grams = 0;
    }
}

/// What one buffered bag adds to [`Memtable::grams`].
fn distinct(index: &TreeIndex) -> u64 {
    u64::try_from(index.distinct()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqgram_core::PQParams;

    #[test]
    fn put_of_empty_index_is_a_tombstone() {
        let params = PQParams::default();
        let mut mt = Memtable::new();
        mt.put(TreeId(3), TreeIndex::empty(params));
        assert_eq!(mt.get(TreeId(3)), Some(&None));
        let mut idx = TreeIndex::empty(params);
        idx.add(7);
        mt.put(TreeId(3), idx.clone());
        assert_eq!(mt.get(TreeId(3)), Some(&Some(idx)));
        mt.remove(TreeId(3));
        assert_eq!(mt.get(TreeId(3)), Some(&None));
        assert_eq!(mt.len(), 1);
        mt.clear();
        assert!(mt.is_empty());
        assert_eq!(mt.grams(), 0);
    }

    /// `grams()` is the distinct-gram count of what the map holds, whatever
    /// sequence of puts, re-puts and removals led there.
    #[test]
    fn grams_counts_only_the_entries_still_buffered() {
        let params = PQParams::default();
        let index = |grams: std::ops::Range<u64>| {
            let mut idx = TreeIndex::empty(params);
            for g in grams {
                idx.add(g);
                idx.add(g); // multiplicity does not count, distinct grams do
            }
            idx
        };
        let buffered = |mt: &Memtable| -> usize {
            mt.iter()
                .map(|(_, e)| e.as_ref().map_or(0, TreeIndex::distinct))
                .sum()
        };
        let mut mt = Memtable::new();
        mt.put(TreeId(1), index(0..10));
        mt.put(TreeId(2), index(5..25));
        assert_eq!(mt.grams(), 30);
        mt.put(TreeId(1), index(0..12)); // re-put: 10 leave, 12 enter
        assert_eq!(mt.grams(), 32);
        mt.put(TreeId(1), index(0..12)); // the same bag again: no growth
        assert_eq!(mt.grams(), 32);
        mt.remove(TreeId(2)); // a buffered tree turns into a tombstone
        assert_eq!(mt.grams(), 12);
        mt.remove(TreeId(3)); // a tombstone for a tree never buffered
        mt.put(TreeId(3), index(0..4)); // a put over a tombstone
        assert_eq!(mt.grams(), 16);
        mt.put(TreeId(1), TreeIndex::empty(params)); // empty bag = tombstone
        assert_eq!(mt.grams(), 4);
        assert_eq!(usize::try_from(mt.grams()), Ok(buffered(&mt)));
    }

    /// An in-place edit moves `grams()` by exactly the distinct grams the
    /// bag gained or lost, and a failed one moves nothing.
    #[test]
    fn edit_in_place_keeps_grams_in_step_with_the_bag() {
        let params = PQParams::default();
        let mut bag = TreeIndex::empty(params);
        for g in 0..10 {
            bag.add(g);
        }
        bag.add(0); // gram 0 twice: 10 distinct, 11 in total
        let mut mt = Memtable::new();
        mt.put(TreeId(1), bag.clone());
        mt.put(TreeId(2), bag.clone());
        assert_eq!(mt.grams(), 20);

        // Nothing buffered, or a tombstone: no bag to edit, closure not run.
        mt.remove(TreeId(3));
        for id in [TreeId(3), TreeId(4)] {
            let ran = mt.edit(id, |_| -> Result<(), ()> { panic!("no bag to hand out") });
            assert!(ran.is_none());
        }
        assert_eq!(mt.grams(), 20);

        // Adds grams: three new ones and one more of a gram already held.
        let grew = mt.edit(TreeId(1), |b| {
            (100..103).for_each(|g| b.add(g));
            b.add(5);
            Ok::<(), ()>(())
        });
        assert_eq!(grew, Some(Ok(())));
        assert_eq!(mt.grams(), 23);

        // Removes grams: one of two copies (still distinct), two for good.
        let shrank = mt.edit(TreeId(1), |b| {
            assert!(b.remove(0) && b.remove(1) && b.remove(2));
            Ok::<(), ()>(())
        });
        assert_eq!(shrank, Some(Ok(())));
        assert_eq!(mt.grams(), 21);
        let held = mt.get(TreeId(1)).and_then(Option::as_ref);
        assert_eq!(held.map(|b| (b.distinct(), b.total())), Some((11, 12)));

        // A refused edit hands the bag back untouched.
        let refused = mt.edit(TreeId(2), |_| Err("no"));
        assert_eq!(refused, Some(Err("no")));
        assert_eq!(mt.get(TreeId(2)), Some(&Some(bag.clone())));
        assert_eq!(mt.grams(), 21);

        // Emptying the bag leaves a tombstone, as `put` of an empty bag does.
        let emptied = mt.edit(TreeId(2), |b| {
            let grams: Vec<_> = b.iter().collect();
            for (g, n) in grams {
                (0..n).for_each(|_| assert!(b.remove(g)));
            }
            Ok::<(), ()>(())
        });
        assert_eq!(emptied, Some(Ok(())));
        assert_eq!(mt.get(TreeId(2)), Some(&None));
        assert_eq!(mt.grams(), 11);
        assert_eq!(mt.len(), 3);
    }
}
