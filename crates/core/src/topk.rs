//! A bounded max-heap over verified lookup results, for top-k lookups.
//!
//! [`TopK`] keeps the `k` best `(distance, tree_id)` pairs seen so far
//! under the same total order the lookup paths sort hits by: ascending
//! distance via [`f64::total_cmp`], ties broken by ascending tree id. Once
//! full, its worst kept distance becomes a pruning bound
//! ([`TopK::bound`]) that a [`crate::plan::LookupPlanner`] can tighten to
//! — non-strictly, because a pair at exactly the bound distance can still
//! displace the kept worst if its tree id is smaller.

use crate::index::{LookupHit, TreeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by `(distance, tree_id)`; the heap keeps the
/// *largest* (worst) entry at the top so it can be displaced first.
#[derive(Debug)]
struct Entry {
    distance: f64,
    tree_id: TreeId,
}

impl Entry {
    fn cmp_key(&self, other: &Entry) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.tree_id.cmp(&other.tree_id))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key(other)
    }
}

/// The `k` nearest results seen so far, with the displacement bound.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Entry>,
}

impl TopK {
    /// An empty collector for the `k` best results.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 20)),
        }
    }

    /// Number of results currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once `k` results are kept (further offers must displace).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Offers a verified result; keeps it if the heap has room or if
    /// `(distance, tree_id)` beats the current worst kept pair. Returns
    /// whether the result was kept. Each tree must be offered at most
    /// once.
    pub fn offer(&mut self, tree_id: TreeId, distance: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        let entry = Entry { distance, tree_id };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return true;
        }
        match self.heap.peek() {
            Some(worst) if entry < *worst => {
                self.heap.pop();
                self.heap.push(entry);
                true
            }
            _ => false,
        }
    }

    /// The current pruning bound: until the heap fills every distance is
    /// admissible (every pq-gram distance is ≤ 1), afterwards only
    /// distances at or below the worst kept one can still displace it.
    pub fn bound(&self) -> f64 {
        if self.is_full() {
            self.heap.peek().map_or(1.0, |worst| worst.distance)
        } else {
            1.0
        }
    }

    /// Consumes the heap into hits sorted ascending by `(distance, id)` —
    /// exactly the first `k` of the distance-sorted oracle.
    pub fn into_sorted_hits(self) -> Vec<LookupHit> {
        let mut hits: Vec<LookupHit> = self
            .heap
            .into_iter()
            .map(|e| LookupHit {
                tree_id: e.tree_id,
                distance: e.distance,
            })
            .collect();
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.tree_id.cmp(&b.tree_id))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64).
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Offering every pair in any order and draining equals sorting all
    /// pairs and truncating — including duplicate distances, where ties
    /// break on the id.
    #[test]
    fn matches_sort_then_truncate() {
        let mut state = 7u64;
        for case in 0..200 {
            let len = (mix(&mut state) % 40) as usize;
            let k = (mix(&mut state) % 12) as usize;
            let mut pairs: Vec<(TreeId, f64)> = (0..len)
                .map(|i| {
                    // Coarse buckets force distance collisions.
                    let d = (mix(&mut state) % 8) as f64 / 8.0;
                    (TreeId(1000 * case + i as u64), d)
                })
                .collect();
            let mut topk = TopK::new(k);
            for &(id, d) in &pairs {
                topk.offer(id, d);
            }
            let got = topk.into_sorted_hits();
            pairs.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            pairs.truncate(k);
            let want: Vec<(TreeId, f64)> = pairs;
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.tree_id, g.distance), *w, "case {case}");
            }
        }
    }

    #[test]
    fn bound_tightens_as_the_heap_fills() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.bound(), 1.0);
        assert!(topk.offer(TreeId(5), 0.9));
        assert_eq!(topk.bound(), 1.0, "not full yet: everything admissible");
        assert!(topk.offer(TreeId(3), 0.4));
        assert_eq!(topk.bound(), 0.9);
        assert!(
            !topk.offer(TreeId(9), 0.9),
            "worse id at the bound distance"
        );
        assert!(
            topk.offer(TreeId(1), 0.9),
            "better id at the bound distance"
        );
        assert_eq!(topk.bound(), 0.9);
        assert!(topk.offer(TreeId(8), 0.2));
        assert_eq!(topk.bound(), 0.4);
        let hits = topk.into_sorted_hits();
        assert_eq!(
            hits.iter().map(|h| h.tree_id).collect::<Vec<_>>(),
            vec![TreeId(8), TreeId(3)]
        );
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut topk = TopK::new(0);
        assert!(topk.is_full());
        assert!(!topk.offer(TreeId(1), 0.0));
        assert!(topk.into_sorted_hits().is_empty());
    }
}
