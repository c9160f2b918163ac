//! Offline stand-in for `rand` 0.9: the benchmark's checkout has no
//! registry, so the workspace's `rand` dependency is patched to this file.
//! Only the surface `pqgram-tree`'s generators and the benchmark use
//! exists — [`Rng::random_range`], [`Rng::random_bool`],
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`],
//! [`seq::IndexedRandom::choose`] and [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ seeded through splitmix64, not the real
//! crate's ChaCha12: streams differ from upstream `rand`, but a seed still
//! maps to exactly one stream, which is all the benchmark relies on.
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of uniformly random 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// A generator constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// The generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range a uniform value of type `T` can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value; panics on an empty range, like upstream.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a random word onto `0..span` by widening multiply (bias below
/// 2⁻⁶⁴·span, irrelevant for workload generation).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A uniform `f64` in `[0, 1)` from the top 53 bits of one word.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), seeded through splitmix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Random selection from and permutation of slices.
pub mod seq {
    use super::Rng;

    /// Uniform choice of one element.
    pub trait IndexedRandom {
        /// The element type.
        type Output;
        /// A uniformly chosen element, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.random_range(0..self.len()))
            }
        }
    }

    /// In-place uniform permutation.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }
}

/// The traits and generators most callers import together.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::{IndexedRandom, SliceRandom};
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn a_seed_fixes_the_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..10_000 {
            assert!((3..9).contains(&a.random_range(3..9)));
            assert!((-2..=2).contains(&a.random_range(-2..=2)));
            assert!((0.0..1.5).contains(&a.random_range(0.0..1.5)));
        }
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut a);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        assert!([1, 2, 3].choose(&mut a).is_some());
        assert!(<[u8]>::choose(&[], &mut a).is_none());
    }
}
