//! Lookup planning: lossless pruning bounds derived from the pq-gram
//! distance formula.
//!
//! Every pruning decision of the persistent lookup path goes through
//! [`LookupPlanner`], which knows only the query bag size `n = |I(Q)|` and
//! the distance bound the caller wants satisfied. The planner answers one
//! kind of question: *given partial knowledge of a stored tree `T` (an
//! upper bound on the bag overlap, or its bag size, or a bag-size range
//! covering a whole source), could `T` still satisfy the bound?* Whenever
//! the answer is no, the tree (or gram probe, or entire source) is skipped
//! without ever computing its exact distance.
//!
//! All answers reduce to one identity. The pq-gram distance is
//! `d = 1 − 2·s / (n + m)` with `s = |I(Q) ∩ I(T)|` and `m = |I(T)|`,
//! which is decreasing in `s` and (for fixed `s`) increasing in `m`, while
//! `s ≤ min(n, m)` always. So the *smallest distance compatible with a
//! constraint* is reached by pushing `s` to its cap and `m` down onto `s`
//! — and that minimum is computed by the **same**
//! [`overlap_distance`] call the verification phase uses, with the same
//! integer inputs and the same float operations. IEEE-754 division and
//! subtraction are correctly rounded and therefore monotone in their real
//! arguments (all intermediate integers stay far below 2⁵³, so the casts
//! are exact), which turns the real-number monotonicity into a float-level
//! guarantee: if the planner rejects, the verified distance could not have
//! satisfied the bound. Pruning is lossless by construction, with no
//! epsilon anywhere.
//!
//! Two bound shapes are supported ([`Bound`]): the threshold lookup admits
//! `d < τ` (strict, matching the paper's `dist(Q, T) < τ`), and the top-k
//! lookup admits `d ≤ b` where `b` is the current worst distance kept by
//! the result heap — non-strict, because a tree at exactly `b` can still
//! displace a kept result with a larger tree id. A top-k bound only ever
//! tightens ([`LookupPlanner::tighten_to`]), so decisions made under an
//! earlier, looser bound remain conservative.

use crate::join::overlap_distance;

/// A distance bound a lookup result must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Admit distances strictly below the threshold (`d < τ`).
    Below(f64),
    /// Admit distances at or below the cutoff (`d ≤ b`) — the top-k shape,
    /// where equality still matters for tie-breaking on tree ids.
    AtMost(f64),
}

impl Bound {
    /// Does `distance` satisfy the bound? (`NaN` satisfies nothing.)
    #[inline]
    pub fn admits(self, distance: f64) -> bool {
        match self {
            Bound::Below(tau) => distance < tau,
            Bound::AtMost(b) => distance <= b,
        }
    }
}

/// The unified lookup planner: one bound, every pruning decision.
///
/// The same planner drives every `τ` — there is no separate plan for
/// `τ > 1`. At such thresholds [`LookupPlanner::admits_overlap`] reports
/// that even a zero-overlap tree satisfies the bound (its distance is
/// exactly 1), which the lookup answers by enumerating the trees the
/// candidate merge cannot see from the totals relation instead of falling
/// back to an exhaustive scan; see [`LookupPlanner::needs_zero_overlap`].
#[derive(Clone, Copy, Debug)]
pub struct LookupPlanner {
    query_total: u64,
    bound: Bound,
}

impl LookupPlanner {
    /// Planner for a threshold lookup: admit `d < tau`.
    pub fn threshold(query_total: u64, tau: f64) -> Self {
        LookupPlanner {
            query_total,
            bound: Bound::Below(tau),
        }
    }

    /// Planner for a top-k lookup. Starts at `d ≤ 1` (every pq-gram
    /// distance is within 1, so nothing is pruned until the result heap
    /// fills) and tightens via [`LookupPlanner::tighten_to`].
    pub fn nearest(query_total: u64) -> Self {
        LookupPlanner {
            query_total,
            bound: Bound::AtMost(1.0),
        }
    }

    /// The current bound.
    pub fn bound(&self) -> Bound {
        self.bound
    }

    /// The query bag size `|I(Q)|` the planner was built for.
    pub fn query_total(&self) -> u64 {
        self.query_total
    }

    /// Tightens an [`Bound::AtMost`] bound to `b` (no-op if `b` is not
    /// smaller, or for threshold bounds — a threshold never moves).
    pub fn tighten_to(&mut self, b: f64) {
        if let Bound::AtMost(cur) = self.bound {
            if b < cur {
                self.bound = Bound::AtMost(b);
            }
        }
    }

    /// Does an exactly computed `distance` satisfy the bound?
    #[inline]
    pub fn admits_distance(&self, distance: f64) -> bool {
        self.bound.admits(distance)
    }

    /// Could a tree whose bag overlap with the query is at most `o_max`
    /// satisfy the bound, for *some* bag size? The minimum distance is
    /// reached at `s = min(o_max, n)` and `m = max(s, 1)` (stored bags are
    /// never empty).
    #[inline]
    pub fn admits_overlap(&self, o_max: u64) -> bool {
        let s = o_max.min(self.query_total);
        self.bound
            .admits(overlap_distance(s, self.query_total, s.max(1)))
    }

    /// Could a tree with bag size `total` satisfy the bound? The overlap
    /// cap is `min(n, total)`; this is the classic size filter of the
    /// approximate join ([`crate::join`]) for both bound shapes.
    #[inline]
    pub fn admits_total(&self, total: u64) -> bool {
        let s = total.min(self.query_total);
        self.bound
            .admits(overlap_distance(s, self.query_total, total))
    }

    /// Could *any* tree with bag size in `[lo, hi]` satisfy the bound?
    /// The feasible bag sizes form one contiguous window around `n`
    /// (distance at the overlap cap falls toward `m = n` and rises past
    /// it), so clamping `n` into the range tests its best member. An empty
    /// range (`lo > hi`, e.g. a source with no trees) admits nothing.
    #[inline]
    pub fn admits_total_range(&self, lo: u64, hi: u64) -> bool {
        lo <= hi && self.admits_total(self.query_total.clamp(lo, hi))
    }

    /// The feasible bag sizes as one integer interval: for every `total`
    /// in `0..=u32::MAX` (the range of the stored totals encoding),
    /// [`Self::admits_total`]`(total)` holds iff `lo <= total <= hi`; an
    /// empty window is `(1, 0)`. The answers come from the same
    /// [`overlap_distance`] expression: `admits_total` only rises on the
    /// way up to `n` and only falls past it, so each edge is one binary
    /// search — computed once per source, so a probe loop tests a posting
    /// with two integer compares instead of a float division.
    pub fn total_window(&self) -> (u64, u64) {
        let max = u64::from(u32::MAX);
        let peak = self.query_total.min(max);
        if !self.admits_total(peak) {
            return (1, 0);
        }
        // Smallest admitted size in [0, peak].
        let (mut lo, mut hi) = (0u64, peak);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.admits_total(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let first = lo;
        // Largest admitted size in [peak, max].
        let (mut lo, mut hi) = (peak, max);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.admits_total(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        (first, lo)
    }

    /// Must zero-overlap trees be enumerated? True when even `s = 0`
    /// satisfies the bound (`τ > 1`, or a top-k heap still accepting
    /// distance-1 results) — such trees never surface from any posting
    /// probe, so the lookup reports them from the totals relation.
    #[inline]
    pub fn needs_zero_overlap(&self) -> bool {
        self.admits_overlap(0)
    }

    /// The largest overlap mass `U` such that a tree whose entire overlap
    /// fits in `U` can be pruned: probes may skip query grams whose summed
    /// multiplicities stay within this budget, because any tree appearing
    /// *only* in skipped grams has overlap ≤ `U` and cannot satisfy the
    /// bound. Trees that do surface elsewhere carry the skipped mass as
    /// slack (`admits_overlap(observed + U)`) until their exact overlap is
    /// recovered. `0` means no probe may be skipped.
    pub fn overlap_budget(&self) -> u64 {
        let n = self.query_total;
        if self.admits_overlap(0) {
            return 0;
        }
        if !self.admits_overlap(n) {
            // Nothing satisfies the bound (τ ≤ 0): every probe is skippable.
            return n;
        }
        // Smallest admitting overlap in [1, n]; admits_overlap is monotone.
        let (mut lo, mut hi) = (1u64, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.admits_overlap(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAUS: [f64; 8] = [0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 2.0];

    /// The lossless-pruning contract, brute-forced: whenever a concrete
    /// `(s, n, m)` satisfies the bound, every planner answer consistent
    /// with it must admit.
    #[test]
    fn pruning_never_loses_a_satisfying_tree() {
        for &tau in &TAUS {
            for n in 0u64..30 {
                let planner = LookupPlanner::threshold(n, tau);
                for m in 1u64..40 {
                    for s in 0..=n.min(m) {
                        let d = overlap_distance(s, n, m);
                        if planner.admits_distance(d) {
                            for o_max in s..=(n + 2) {
                                assert!(
                                    planner.admits_overlap(o_max),
                                    "tau {tau} n {n} m {m} s {s} o_max {o_max}"
                                );
                            }
                            assert!(planner.admits_total(m), "tau {tau} n {n} m {m} s {s}");
                            assert!(
                                planner.admits_total_range(m.saturating_sub(3), m + 3),
                                "tau {tau} n {n} m {m}"
                            );
                            if s > 0 {
                                assert!(
                                    s > planner.overlap_budget(),
                                    "budget {} must not cover satisfying overlap {s} \
                                     (tau {tau} n {n})",
                                    planner.overlap_budget()
                                );
                            } else {
                                // Zero-overlap trees are invisible to every
                                // probe; the planner must demand the
                                // totals-relation sweep instead.
                                assert!(planner.needs_zero_overlap(), "tau {tau} n {n} m {m}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The budget is tight: an overlap exactly at the budget can never
    /// satisfy the bound, for either bound shape.
    #[test]
    fn overlap_budget_is_sound_and_maximal() {
        for &tau in &TAUS {
            for n in 0u64..60 {
                for planner in [
                    LookupPlanner::threshold(n, tau),
                    LookupPlanner {
                        query_total: n,
                        bound: Bound::AtMost(tau),
                    },
                ] {
                    let b = planner.overlap_budget();
                    assert!(!planner.admits_overlap(b) || b == 0);
                    if b > 0 {
                        assert!(!planner.admits_overlap(b));
                    }
                    if b < n {
                        // One more unit of overlap could satisfy the bound
                        // (maximality), unless nothing at all does.
                        if planner.admits_overlap(n) {
                            assert!(planner.admits_overlap(b + 1), "tau {tau} n {n} budget {b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thresholds_above_one_admit_zero_overlap() {
        let p = LookupPlanner::threshold(25, 1.2);
        assert!(p.needs_zero_overlap());
        assert_eq!(p.overlap_budget(), 0, "nothing may be skipped");
        // Every bag size is feasible.
        assert!(p.admits_total(1));
        assert!(p.admits_total(1 << 31));
        // τ ≤ 1 never needs the zero-overlap sweep: distance-1 trees miss.
        assert!(!LookupPlanner::threshold(25, 1.0).needs_zero_overlap());
        assert!(!LookupPlanner::threshold(25, 0.5).needs_zero_overlap());
    }

    #[test]
    fn empty_ranges_admit_nothing() {
        let p = LookupPlanner::threshold(10, 0.8);
        assert!(!p.admits_total_range(5, 4));
        assert!(!p.admits_total_range(u64::MAX, 0));
        assert!(p.admits_total_range(10, 10));
    }

    #[test]
    fn top_k_bounds_only_tighten() {
        let mut p = LookupPlanner::nearest(20);
        assert!(p.needs_zero_overlap(), "d = 1 results count until k fill");
        assert!(p.admits_distance(1.0));
        p.tighten_to(0.5);
        assert!(!p.admits_distance(0.7));
        assert!(p.admits_distance(0.5), "top-k bounds are non-strict");
        p.tighten_to(0.8); // looser: ignored
        assert!(!p.admits_distance(0.7));
        let mut t = LookupPlanner::threshold(20, 0.9);
        t.tighten_to(0.1); // thresholds never move
        assert!(t.admits_distance(0.7));
    }

    /// `total_window` is `admits_total` as an interval, on every size the
    /// probe loop can meet.
    fn assert_window_matches(p: &LookupPlanner) {
        let (lo, hi) = p.total_window();
        let n = p.query_total();
        let probes = (0..=4 * n + 8).chain([u64::from(u32::MAX) - 1, u64::from(u32::MAX)]);
        for m in probes {
            assert_eq!(
                lo <= m && m <= hi,
                p.admits_total(m),
                "{p:?}: window [{lo}, {hi}] disagrees at m = {m}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn total_window_agrees_with_admits_total(
            n in 0u64..400,
            tau_pick in 0usize..5,
            cuts in proptest::collection::vec(0.0f64..1.1, 0..6),
        ) {
            let tau = [0.0, 0.1, 0.6, 1.0, 1.2][tau_pick];
            assert_window_matches(&LookupPlanner::threshold(n, tau));
            // A top-k bound as the heap fills: admit-everything at first,
            // then whatever an arbitrary tightening sequence leaves.
            let mut p = LookupPlanner::nearest(n);
            assert_window_matches(&p);
            for b in cuts {
                p.tighten_to(b);
                assert_window_matches(&p);
            }
        }
    }

    #[test]
    fn total_window_edges() {
        // Nothing is below τ = 0: the empty window.
        assert_eq!(LookupPlanner::threshold(25, 0.0).total_window(), (1, 0));
        // τ > 1 and an unfilled top-k heap admit every size.
        let all = (0, u64::from(u32::MAX));
        assert_eq!(LookupPlanner::threshold(25, 1.2).total_window(), all);
        assert_eq!(LookupPlanner::nearest(25).total_window(), all);
        // A top-k bound tightened to 0 keeps exactly the query's own size.
        let mut p = LookupPlanner::nearest(25);
        p.tighten_to(0.0);
        assert_eq!(p.total_window(), (25, 25));
        // An empty query is at distance 1 from every stored (non-empty) bag.
        assert_eq!(LookupPlanner::threshold(0, 1.0).total_window(), (0, 0));
        assert_eq!(LookupPlanner::threshold(0, 1.2).total_window(), all);
    }

    /// The planner's size answer agrees with the classic size bound of the
    /// approximate join, `1 − 2·min(n, m) / (n + m) < τ`, on every input
    /// where that bound is tight (`τ > 0`).
    #[test]
    fn threshold_size_answers_match_the_classic_size_bound() {
        let classic = |n: u64, m: u64, tau: f64| {
            let (min, sum) = (n.min(m) as f64, (n + m) as f64);
            1.0 - 2.0 * min / sum < tau
        };
        for &tau in &TAUS[1..] {
            for n in 0u64..50 {
                let p = LookupPlanner::threshold(n, tau);
                for m in 1u64..80 {
                    assert_eq!(
                        p.admits_total(m),
                        classic(n, m, tau),
                        "tau {tau} n {n} m {m}"
                    );
                }
            }
        }
    }
}
