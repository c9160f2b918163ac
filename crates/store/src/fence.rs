//! PGM-style learned fence index over an immutable inverted directory.
//!
//! Immutable segments never mutate their inverted relation after bulk load,
//! so the directory can be mirrored into three flat arrays at open time and
//! probed without any B+-tree descent. On top of the arrays sits a
//! piecewise-linear model (one-pass shrinking-cone fit, max error
//! [`FENCE_EPSILON`]): `locate` predicts the position of a gram, verifies
//! the prediction with an O(1) neighbour check, and only falls back to a
//! full binary search when floating-point precision loss over 64-bit gram
//! fingerprints makes the prediction unusable. Lookup correctness never
//! depends on the model — the model only narrows the search window.
//!
//! A probe reads a gram's directory rows through a [`FenceCursor`];
//! `crate::postings` turns them into postings exactly as it does for rows
//! read off the B+-tree (inline rows as they are, blocks decoded from
//! their pack pages).

use std::ops::Range;

use crate::btree::BTree;
use crate::pager::Result;
use crate::postings::DirRow;

/// Maximum positions a prediction may be off before `locate` falls back to
/// binary search within the window.
const FENCE_EPSILON: usize = 16;

/// One linear segment of the piecewise model: for grams at or after `key`,
/// predicted index = `intercept + slope * (gram - key)`.
#[derive(Clone, Copy, Debug)]
struct PlaSegment {
    key: u64,
    slope: f64,
    intercept: f64,
}

/// A learned fence over one immutable inverted directory.
#[derive(Clone, Debug, Default)]
pub(crate) struct Fence {
    grams: Vec<u64>,
    tids: Vec<u64>,
    vals: Vec<u32>,
    segs: Vec<PlaSegment>,
}

impl Fence {
    /// Builds a fence by scanning the inverted directory once.
    pub fn build(dir: &BTree<'_>) -> Result<Fence> {
        let mut grams = Vec::new();
        let mut tids = Vec::new();
        let mut vals = Vec::new();
        dir.for_each_range((u64::MIN, u64::MIN), (u64::MAX, u64::MAX), |(g, t), v| {
            grams.push(g);
            tids.push(t);
            vals.push(v);
            true
        })?;
        Ok(Fence::from_rows(grams, tids, vals))
    }

    /// Builds a fence over directory rows already in hand, ascending.
    pub fn from_directory(rows: &[DirRow]) -> Fence {
        Fence::from_rows(
            rows.iter().map(|&((g, _), _)| g).collect(),
            rows.iter().map(|&((_, t), _)| t).collect(),
            rows.iter().map(|&(_, v)| v).collect(),
        )
    }

    /// Builds a fence from already-materialised directory columns.
    pub fn from_rows(grams: Vec<u64>, tids: Vec<u64>, vals: Vec<u32>) -> Fence {
        let segs = fit_pla(&grams);
        Fence {
            grams,
            tids,
            vals,
            segs,
        }
    }

    /// Number of directory rows covered by the fence.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Number of linear segments in the model (diagnostics).
    #[cfg(test)]
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// The directory row range holding `gram`'s entries (empty if absent).
    pub fn locate(&self, gram: u64) -> Range<usize> {
        let start = self.lower_bound(gram);
        let end = start + gallop(self.grams.get(start..).unwrap_or(&[]), |g| g <= gram);
        debug_assert!(
            start <= end && end <= self.grams.len(),
            "locate range must be ordered and in bounds"
        );
        start..end
    }

    /// First index with `grams[i] >= gram`: the model's prediction when it
    /// verifies, a full binary search when it does not.
    fn lower_bound(&self, gram: u64) -> usize {
        self.predict(gram)
            .unwrap_or_else(|| self.grams.partition_point(|&g| g < gram))
    }

    /// A forward cursor for a probe visiting its grams in ascending order.
    pub(crate) fn cursor(&self) -> FenceCursor<'_> {
        FenceCursor {
            fence: self,
            pos: None,
        }
    }

    /// Predicted-and-verified first index with `grams[i] >= gram`, or
    /// `None` when the prediction cannot be validated in O(1).
    fn predict(&self, gram: u64) -> Option<usize> {
        let n = self.grams.len();
        let si = self.segs.partition_point(|s| s.key <= gram);
        let seg = self.segs.get(si.checked_sub(1)?)?;
        let dx = (gram - seg.key) as f64;
        let raw = seg.intercept + seg.slope * dx;
        let guess = if raw.is_finite() && raw > 0.0 {
            (raw as usize).min(n)
        } else {
            0
        };
        let lo = guess.saturating_sub(FENCE_EPSILON);
        let hi = (guess + FENCE_EPSILON).min(n);
        let window = self.grams.get(lo..hi)?;
        let p = lo + window.partition_point(|&g| g < gram);
        // O(1) validation: p must be the true partition point globally.
        let ok_left = p == 0 || self.grams.get(p - 1).is_some_and(|&g| g < gram);
        let ok_right = p == n || self.grams.get(p).is_some_and(|&g| g >= gram);
        (ok_left && ok_right).then_some(p)
    }
}

/// Length of the prefix of the sorted `xs` that satisfies the monotone
/// `pred`, by exponential then binary search: `O(log answer)`, so a short
/// forward step costs a couple of compares however long the array is.
fn gallop(xs: &[u64], pred: impl Fn(u64) -> bool) -> usize {
    let mut bound = 1usize;
    while xs.get(bound - 1).is_some_and(|&x| pred(x)) {
        bound *= 2;
    }
    // `pred` holds on `xs[..bound / 2]` and fails at `xs[bound - 1]` (or
    // the array ended first).
    let lo = bound / 2;
    let hi = (bound - 1).min(xs.len());
    lo + xs
        .get(lo..hi)
        .map_or(0, |mid| mid.partition_point(|&x| pred(x)))
}

/// A forward cursor over a [`Fence`]. The first visit lands by model
/// prediction; every later one gallops from where the previous visit
/// stopped — a probe's sorted grams sit a few rows apart, so the step is
/// a handful of compares instead of a prediction plus two binary searches
/// over the rest of the array.
pub(crate) struct FenceCursor<'a> {
    fence: &'a Fence,
    /// Index of the boundary row the previous visit stopped on.
    pos: Option<usize>,
}

impl FenceCursor<'_> {
    /// Appends the directory rows that can hold postings of `gram`: every
    /// row keyed inside the gram plus the first row keyed past it (blocks
    /// span gram boundaries, so its block may still start inside the
    /// gram). Grams must be visited in ascending order.
    pub(crate) fn visit(&mut self, gram: u64, out: &mut Vec<DirRow>) {
        let f = self.fence;
        let mut i = match self.pos {
            None => f.lower_bound(gram),
            Some(p) => p + gallop(f.grams.get(p..).unwrap_or(&[]), |g| g < gram),
        };
        while let (Some(&g), Some(&t), Some(&v)) = (f.grams.get(i), f.tids.get(i), f.vals.get(i)) {
            out.push(((g, t), v));
            if g != gram {
                break;
            }
            i += 1;
        }
        self.pos = Some(i);
    }
}

/// One-pass shrinking-cone piecewise-linear fit over the first index of
/// each distinct gram, with maximum prediction error [`FENCE_EPSILON`].
fn fit_pla(grams: &[u64]) -> Vec<PlaSegment> {
    let eps = FENCE_EPSILON as f64;
    let mut segs: Vec<PlaSegment> = Vec::new();
    let mut origin: Option<(u64, usize)> = None;
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;

    let mut seal = |origin: &mut Option<(u64, usize)>, lo: &mut f64, hi: &mut f64| {
        if let Some((x0, y0)) = origin.take() {
            let slope = match (lo.is_finite(), hi.is_finite()) {
                (true, true) => (*lo + *hi) / 2.0,
                (true, false) => *lo,
                (false, true) => *hi,
                (false, false) => 0.0,
            };
            segs.push(PlaSegment {
                key: x0,
                slope,
                intercept: y0 as f64,
            });
        }
        *lo = f64::NEG_INFINITY;
        *hi = f64::INFINITY;
    };

    let mut prev_gram: Option<u64> = None;
    for (i, &g) in grams.iter().enumerate() {
        if prev_gram == Some(g) {
            continue;
        }
        prev_gram = Some(g);
        match origin {
            None => {
                origin = Some((g, i));
            }
            Some((x0, y0)) => {
                let dx = (g - x0) as f64;
                let y = i as f64;
                let y0f = y0 as f64;
                // Feasible slope band for this point, intersected with the cone.
                let band_lo = (y - eps - y0f) / dx;
                let band_hi = (y + eps - y0f) / dx;
                let new_lo = lo.max(band_lo);
                let new_hi = hi.min(band_hi);
                if new_lo > new_hi || !dx.is_finite() || dx == 0.0 {
                    seal(&mut origin, &mut lo, &mut hi);
                    origin = Some((g, i));
                } else {
                    lo = new_lo;
                    hi = new_hi;
                }
            }
        }
    }
    seal(&mut origin, &mut lo, &mut hi);
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fence_over(grams: Vec<u64>) -> Fence {
        let n = grams.len();
        let tids = (0..n as u64).collect();
        let vals = vec![crate::postings::INLINE_BIT | 1; n];
        Fence::from_rows(grams, tids, vals)
    }

    #[test]
    fn locate_matches_binary_search_on_linear_keys() {
        let grams: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
        let fence = fence_over(grams.clone());
        assert!(
            fence.segments() < 50,
            "linear data should need few segments"
        );
        for probe in [0u64, 1, 2, 3, 299, 300, 29_997, 29_998, 40_000] {
            let expect =
                grams.partition_point(|&g| g < probe)..grams.partition_point(|&g| g <= probe);
            assert_eq!(fence.locate(probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn locate_matches_binary_search_on_adversarial_keys() {
        // Clustered + huge jumps + duplicate runs: precision loss territory.
        let mut grams = Vec::new();
        for base in [0u64, 1 << 20, 1 << 44, u64::MAX - 4096] {
            for i in 0..512u64 {
                grams.push(base + i / 4); // runs of 4 duplicates
            }
        }
        grams.sort_unstable();
        let fence = fence_over(grams.clone());
        let mut probes: Vec<u64> = grams.clone();
        probes.extend([5u64, 1 << 30, u64::MAX, 0]);
        for probe in probes {
            let expect =
                grams.partition_point(|&g| g < probe)..grams.partition_point(|&g| g <= probe);
            assert_eq!(fence.locate(probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn empty_fence_locates_nothing() {
        let fence = fence_over(Vec::new());
        assert_eq!(fence.locate(42), 0..0);
        assert_eq!(fence.len(), 0);
        assert_eq!(fence.segments(), 0, "no rows fit no model segments");
    }

    /// Binary-search oracle: `locate` must equal the partition-point range
    /// for every probe, no matter what the model predicts.
    fn assert_matches_oracle(grams: &[u64], probes: impl IntoIterator<Item = u64>) {
        let fence = fence_over(grams.to_vec());
        for probe in probes {
            let expect =
                grams.partition_point(|&g| g < probe)..grams.partition_point(|&g| g <= probe);
            assert_eq!(fence.locate(probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn single_key_directory_round_trips() {
        for key in [0u64, 1, 7, u64::MAX - 1, u64::MAX] {
            assert_matches_oracle(
                &[key],
                [
                    key,
                    key.saturating_sub(1),
                    key.saturating_add(1),
                    0,
                    u64::MAX,
                ],
            );
        }
    }

    #[test]
    fn all_duplicate_directory_round_trips() {
        let grams = vec![99u64; 1000];
        assert_matches_oracle(&grams, [98, 99, 100, 0, u64::MAX]);
    }

    /// Duplicate runs of exactly [`FENCE_EPSILON`] rows shift every later
    /// first-index by the model's maximum tolerated error, pinning
    /// predictions to the verification boundary. `locate` must stay exact
    /// whether the prediction is accepted or falls back.
    #[test]
    fn predictions_exactly_epsilon_off_stay_correct() {
        let mut grams = Vec::new();
        for i in 0..256u64 {
            grams.push(i * 2);
            if i % 32 == 31 {
                // A run that drifts positions by exactly the model error.
                for _ in 0..FENCE_EPSILON {
                    grams.push(i * 2);
                }
            }
        }
        let probes: Vec<u64> = (0..520u64).collect();
        assert_matches_oracle(&grams, probes);
    }

    /// Randomised clustered keys against the oracle, deterministic
    /// splitmix64 (self-contained: the suite must build without external
    /// crates).
    #[test]
    fn randomised_directories_match_binary_search() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..20 {
            let n = 1 + usize::try_from(next() % 2000).unwrap_or(0);
            let mut grams: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix tight clusters with full-range outliers.
                    if next() % 4 == 0 {
                        next()
                    } else {
                        (1 << 40) + next() % 512
                    }
                })
                .collect();
            grams.sort_unstable();
            let mut probes: Vec<u64> = grams.clone();
            for _ in 0..64 {
                probes.push(next());
            }
            probes.push(0);
            probes.push(u64::MAX);
            assert_matches_oracle(&grams, probes);
            let _ = round;
        }
    }
}
