//! The resident mirror of an immutable inverted directory.
//!
//! Immutable segments never mutate their inverted relation after bulk load,
//! so the directory is mirrored into three flat columns at open time and
//! probed without any B+-tree descent: one binary search lands a probe's
//! first gram, and a forward gallop reaches each later one.
//!
//! A probe reads a gram's directory rows through a [`FenceCursor`];
//! `crate::postings` turns them into postings exactly as it does for rows
//! read off the B+-tree (inline rows as they are, blocks decoded from
//! their pack pages).

use std::ops::Range;

use crate::btree::BTree;
use crate::pager::Result;
use crate::postings::DirRow;

/// The directory rows of one immutable source, column by column and
/// ascending by `(gram, treeId)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Fence {
    grams: Vec<u64>,
    tids: Vec<u64>,
    vals: Vec<u32>,
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
        Fence { grams, tids, vals }
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

    /// First index with `grams[i] >= gram`.
    fn lower_bound(&self, gram: u64) -> usize {
        self.grams.partition_point(|&g| g < gram)
    }

    /// A forward cursor for a probe visiting its grams in ascending order.
    pub(crate) fn cursor(&self) -> FenceCursor<'_> {
        FenceCursor {
            fence: self,
            pos: None,
        }
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

/// A forward cursor over a [`Fence`]. The first visit lands by binary
/// search; every later one gallops from where the previous visit stopped —
/// a probe's sorted grams sit a few rows apart, so the step is a handful of
/// compares instead of a search over the rest of the array.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fence_over(grams: Vec<u64>) -> Fence {
        let n = grams.len();
        let tids = (0u64..).take(n).collect();
        let vals = vec![crate::postings::INLINE_BIT | 1; n];
        Fence::from_rows(grams, tids, vals)
    }

    #[test]
    fn locate_matches_binary_search_on_linear_keys() {
        let grams: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
        let fence = fence_over(grams.clone());
        for probe in [0u64, 1, 2, 3, 299, 300, 29_997, 29_998, 40_000] {
            let expect =
                grams.partition_point(|&g| g < probe)..grams.partition_point(|&g| g <= probe);
            assert_eq!(fence.locate(probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn locate_matches_binary_search_on_adversarial_keys() {
        // Clustered + huge jumps + duplicate runs.
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
    }

    /// Binary-search oracle: `locate` must equal the partition-point range
    /// for every probe.
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
