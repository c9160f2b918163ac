//! Seeded property checking for the workspace's test suites.
//!
//! [`cases`] runs a property a fixed number of times, each case on a fresh
//! [`Gen`] seeded from the property's name and the case's index. Every
//! value a case draws goes through [`rand::Rng`] on its `Gen`, so through
//! one [`RngCore::next_u64`]. [`vec`] and [`string`] draw the two shapes
//! the suites need beyond single values.
//!
//! A failing case prints a value of the environment variable [`VAR`]
//! (`PQGRAM_CHECK`), `name@seed`. With it set, the property `name` runs
//! exactly that case, once; every other property runs its own case count.
//!
//! There is no shrinking: a failure reports the case as it was drawn.
//!
//! [`scratch_file`] gives a test a path for a real file in a temp
//! directory that is removed when the test ends.

mod scratch;

pub use scratch::scratch_file;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The environment variable that replays one case.
pub const VAR: &str = "PQGRAM_CHECK";

/// Rejected cases a property may draw on top of its count (proptest's
/// default global limit).
const MAX_REJECTS: u32 = 1024;

/// The source one case draws all its values from.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
    rejected: bool,
}

impl Gen {
    /// Discards the current case, as a failed `prop_assume!` does: the
    /// property returns right after, and [`cases`] draws a fresh case in
    /// its place without counting this one.
    pub fn reject(&mut self) {
        self.rejected = true;
    }
}

impl RngCore for Gen {
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// A vector whose length is drawn from `lens`, each element by `f`.
pub fn vec<T>(g: &mut Gen, lens: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
    let n = g.random_range(lens);
    (0..n).map(|_| f(g)).collect()
}

/// A string of at most `max` chars, each any `char` but `'\n'` (the regex
/// `.`). Half the draws are ASCII, where markup's metacharacters live.
pub fn string(g: &mut Gen, max: usize) -> String {
    let n = g.random_range(0..=max);
    (0..n)
        .map(|_| loop {
            let top = if g.random_bool(0.5) { 0x7f } else { 0x10_ffff };
            match char::from_u32(g.random_range(0..=top)) {
                Some(c) if c != '\n' => break c,
                _ => {}
            }
        })
        .collect()
}

/// Runs `property` on `n` accepted cases of the property `name`, or on the
/// one case [`VAR`] names. A failing case prints
/// the `VAR` value that replays it, then fails with the case's own panic.
pub fn cases(name: &str, n: u32, property: impl FnMut(&mut Gen)) {
    run(name, n, &std::env::var(VAR).unwrap_or_default(), property);
}

/// The first case seed of the property `name` (FNV-1a of the name); case
/// `i` runs on seed `first + i`.
fn first_seed(name: &str) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// [`cases`] under the setting `setting` of [`VAR`].
fn run(name: &str, n: u32, setting: &str, mut property: impl FnMut(&mut Gen)) {
    let (first, want, tries) = match setting.split_once('@') {
        Some((which, seed)) if which == name => match u64::from_str_radix(seed, 16) {
            Ok(seed) => (seed, 1, 1),
            Err(e) => panic!("{VAR}={setting}: the seed is not hexadecimal: {e}"),
        },
        None if !setting.is_empty() => panic!("{VAR}={setting}: expected name@seed"),
        _ => (first_seed(name), n, n.saturating_add(MAX_REJECTS)),
    };
    let mut passed = 0u32;
    for seed in (0..tries).map(|i| first.wrapping_add(u64::from(i))) {
        if passed == want {
            return;
        }
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
            rejected: false,
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let case = seed.wrapping_sub(first);
            eprintln!("{name}: case {case} failed; replay it alone with {VAR}={name}@{seed:x}");
            resume_unwind(panic);
        }
        passed += u32::from(!g.rejected);
    }
    assert_eq!(passed, want, "{name}: too many rejected cases");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_seed_replays_the_failing_case_alone() {
        let draw = |g: &mut Gen| g.random_range(0..10u32);
        let mut drawn = Vec::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run("demo", 200, "", |g| {
                drawn.push(draw(g));
                assert!(drawn.last() != Some(&7), "hit");
            })
        }));
        assert!(failed.is_err(), "some case of 200 draws 7");
        let case = u64::try_from(drawn.len() - 1).unwrap_or(u64::MAX);
        let setting = format!("demo@{:x}", first_seed("demo").wrapping_add(case));
        let mut replayed = Vec::new();
        run("demo", 200, &setting, |g| replayed.push(draw(g)));
        assert_eq!(replayed, [7], "the failing case, once");
    }

    #[test]
    fn rejected_cases_are_drawn_again_and_not_counted() {
        let (mut accepted, mut calls) = (0, 0);
        run("rejects", 50, "", |g| {
            calls += 1;
            if g.random_bool(0.5) {
                return g.reject();
            }
            accepted += 1;
        });
        assert_eq!(accepted, 50, "every accepted case counts");
        assert!(calls > 50, "rejected cases ran too");
        let always = catch_unwind(|| run("never", 1, "", Gen::reject));
        assert!(always.is_err(), "a property that rejects everything fails");
    }

    #[test]
    fn another_propertys_replay_leaves_the_count_as_it_is_and_a_bare_value_fails() {
        let mut calls = 0;
        run("counted", 10, "other@1f", |_| calls += 1);
        assert_eq!(calls, 10, "every case of its own count");
        let count = catch_unwind(|| run("bad", 1, "10", |_| {}));
        assert!(count.is_err(), "a setting without a seed");
    }

    #[test]
    fn vectors_and_strings_stay_in_their_ranges() {
        run("shapes", 200, "", |g| {
            let v = vec(g, 2..5, |g| g.random_range(0..3u8));
            assert!((2..5).contains(&v.len()), "{v:?}");
            assert!(v.iter().all(|&x| x < 3), "{v:?}");
            let s = string(g, 30);
            assert!(s.chars().count() <= 30 && !s.contains('\n'), "{s:?}");
        });
    }
}
