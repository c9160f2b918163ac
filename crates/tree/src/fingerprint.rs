//! Karp–Rabin label fingerprints (Section 3.2 of the paper).
//!
//! The pq-gram index does not store node labels — which in XML documents can
//! be arbitrarily long — but a fixed-width fingerprint `h(l)` that is unique
//! with high probability. The only operation the index ever performs on
//! labels is an equality check, for which fingerprints suffice.
//!
//! We implement the classic Karp–Rabin scheme: the label bytes are read as the
//! coefficients of a polynomial which is evaluated at a fixed base modulo a
//! large prime. Two different labels collide with probability ≈ `len / P`,
//! negligible for realistic label sets.

/// A 64-bit Karp–Rabin fingerprint of a label.
pub type Fingerprint = u64;

/// Mersenne prime `2^61 - 1`; fits products of two 61-bit residues in `u128`.
const P: u128 = (1 << 61) - 1;
const P64: u64 = P as u64;
/// Evaluation point for the Karp–Rabin polynomial (a fixed random odd value).
const BASE: u128 = 0x2d35_8dcc_aa6c_78a5 % P;

/// Fingerprint reserved for the *null label* `*` of the extended tree
/// (Definition 1). Matches the paper's example hash table where `h(*) = 0`.
pub const NULL_FINGERPRINT: Fingerprint = 0;

/// Computes the Karp–Rabin fingerprint of a label.
///
/// The result is guaranteed to be non-zero so that it can never collide with
/// [`NULL_FINGERPRINT`]; real labels and the null node are always
/// distinguishable.
pub fn karp_rabin(label: &str) -> Fingerprint {
    // Horner evaluation over the bytes: acc = acc * BASE + (b + 1)  (mod P),
    // which is one `combine` step per byte; `b + 1` keeps leading NUL bytes
    // significant.
    let bytes = label.bytes().fold(0, |acc, b| combine(acc, u64::from(b)));
    // Mix in the length so that e.g. "a" and "a\0" (after the +1 shift: labels
    // that are prefixes under the accumulator) stay distinct, then ensure
    // non-zero.
    match combine(bytes, label.len() as u64) {
        0 => 1,
        fp => fp,
    }
}

/// Incrementally combines label fingerprints into a tuple fingerprint
/// (Horner evaluation over the same field as [`karp_rabin`]).
///
/// The pq-gram index stores one fixed-width value per pq-gram: the paper
/// concatenates the fixed-width hashes of the `p + q` labels; we fold them
/// with the same Karp–Rabin polynomial instead, which keeps the value at 64
/// bits for any `p, q` while remaining position-sensitive. Start from
/// [`TUPLE_SEED`] and fold each label fingerprint in order.
#[inline]
pub fn combine(acc: Fingerprint, label_fp: Fingerprint) -> Fingerprint {
    reduce(u128::from(acc) * BASE + u128::from(label_fp) + 1)
}

/// Initial accumulator for [`combine`].
pub const TUPLE_SEED: Fingerprint = 0x5eed;

/// A fanout token for Merkle-style subtree fingerprints.
///
/// [`combine`] is an affine fold, so hashing a node as
/// `fold(label, child-hashes…)` alone is ambiguous: child sequences
/// *flatten* and differently-bracketed trees collide systematically (e.g.
/// `a(a(a a))` vs `a(a a(a))`). Appending `arity_mark(fanout)` after the
/// children delimits nodes; additionally every *child hash* must pass
/// through the non-linear [`mix`] before folding — under a purely affine
/// fold, hash differences telescope through the levels and cancel
/// *identically*, markers or not.
#[inline]
pub fn arity_mark(fanout: usize) -> Fingerprint {
    ((fanout as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1) % P64
}

/// Non-linear 64-bit permutation (the splitmix64 finalizer). Apply to child
/// hashes before [`combine`]-folding them into a parent's Merkle hash; see
/// [`arity_mark`] for why linearity is fatal there.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical residue of any `u128` modulo `2^61 − 1`: `2^61 ≡ 1`, so the
/// high bits fold onto the low 61. Two folds bring any input below `P + 2^7`;
/// one conditional subtraction finishes.
#[inline]
fn reduce(x: u128) -> Fingerprint {
    let x = (x & P) + (x >> 61);
    let x = (x & P) + (x >> 61);
    (if x >= P { x - P } else { x }) as u64
}

// --- The field view of `combine` -------------------------------------------
//
// `combine` is Horner's rule over GF(2^61 − 1): folding `w_0 … w_{k-1}` into
// `acc` yields `acc·B^k + Σ_j term(w_j)·B^(k−1−j)`. The helpers below let a
// caller evaluate that polynomial summand by summand — sharing the summands
// that many tuples have in common — and arrive at the *same residue*, hence
// the same bits, as the fold.

/// What one folded label fingerprint adds to the polynomial: `h + 1`.
#[inline]
pub fn term(label_fp: Fingerprint) -> Fingerprint {
    reduce(u128::from(label_fp) + 1)
}

/// `x · factor` in the field.
#[inline]
pub fn scale(x: Fingerprint, factor: Fingerprint) -> Fingerprint {
    reduce(u128::from(x) * u128::from(factor))
}

/// `a + b` in the field. Both must be residues (`< 2^61 − 1`), which is what
/// [`combine`], [`term`], [`scale`], [`base_power`] and `add` itself return.
#[inline]
pub fn add(a: Fingerprint, b: Fingerprint) -> Fingerprint {
    debug_assert!(a < P64 && b < P64, "add() on non-residues");
    let s = a + b;
    if s >= P64 {
        s - P64
    } else {
        s
    }
}

/// `B^k`, the weight [`combine`] gives a summand folded `k` steps ago.
pub fn base_power(k: usize) -> Fingerprint {
    (0..k).fold(1, |acc, _| scale(acc, BASE as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(karp_rabin("article"), karp_rabin("article"));
    }

    #[test]
    fn distinct_for_small_alphabet() {
        let labels = ["a", "b", "c", "d", "aa", "ab", "ba", "", " ", "article"];
        let fps: HashSet<_> = labels.iter().map(|l| karp_rabin(l)).collect();
        assert_eq!(fps.len(), labels.len());
    }

    #[test]
    fn never_null() {
        for l in ["", "x", "\0", "\0\0", "long label with spaces"] {
            assert_ne!(karp_rabin(l), NULL_FINGERPRINT);
        }
    }

    #[test]
    fn no_collisions_over_many_generated_labels() {
        let mut fps = HashSet::new();
        for i in 0..50_000u32 {
            assert!(
                fps.insert(karp_rabin(&format!("label-{i}"))),
                "collision at {i}"
            );
        }
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(karp_rabin("ab"), karp_rabin("ba"));
    }

    #[test]
    fn length_sensitive() {
        assert_ne!(karp_rabin("a"), karp_rabin("aa"));
        assert_ne!(karp_rabin(""), karp_rabin("\0"));
    }

    /// `combine` as it was written before the Mersenne fold in `reduce`: one
    /// partial fold of the product, then a generic 128-bit remainder.
    fn combine_by_remainder(acc: Fingerprint, label_fp: Fingerprint) -> Fingerprint {
        let prod = u128::from(acc) * BASE;
        let folded = (prod & P) + (prod >> 61);
        let folded = if folded >= P { folded - P } else { folded };
        ((folded + u128::from(label_fp) + 1) % P) as u64
    }

    /// Stored files hold these values: pinned as the commit before the
    /// shared `reduce` computed them.
    #[test]
    fn fingerprints_are_pinned() {
        for (label, fp) in [
            ("", 0x1),
            ("a", 0x0e80_4859_3d86_2fb6),
            ("article", 0x080d_0f6e_a9ed_f1d9),
            ("\0", 0x0d35_8dcc_aa6c_78a8),
            ("long label with spaces é€", 0x0649_143c_06ae_308b),
        ] {
            assert_eq!(karp_rabin(label), fp, "{label:?}");
        }
        let tuple = ["dblp", "article", "author"]
            .iter()
            .fold(TUPLE_SEED, |acc, l| combine(acc, karp_rabin(l)));
        assert_eq!(combine(tuple, NULL_FINGERPRINT), 0x1dd0_3dd7_4204_dabc);
    }

    /// Boundary residues and non-residues, then a deterministic random tail.
    fn probe_values() -> Vec<u64> {
        let mut values = vec![
            0,
            1,
            2,
            TUPLE_SEED,
            P64 - 1,
            P64,
            P64 + 1,
            2 * P64,
            2 * P64 + 1,
            1 << 61,
            1 << 62,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x = mix(x);
            values.push(x);
        }
        values
    }

    #[test]
    fn combine_is_bit_identical_to_the_remainder_form() {
        for &acc in &probe_values() {
            for &fp in &probe_values() {
                assert_eq!(
                    combine(acc, fp),
                    combine_by_remainder(acc, fp),
                    "acc={acc:#x} fp={fp:#x}"
                );
            }
        }
    }

    #[test]
    fn reduce_is_the_remainder() {
        for &hi in &probe_values() {
            for &lo in &probe_values() {
                let x = (u128::from(hi) << 64) | u128::from(lo);
                assert_eq!(u128::from(reduce(x)), x % P, "x={x:#x}");
            }
        }
        assert_eq!(u128::from(reduce(u128::MAX)), u128::MAX % P);
    }

    #[test]
    fn term_scale_add_agree_with_wide_arithmetic() {
        for &a in &probe_values() {
            assert_eq!(u128::from(term(a)), (u128::from(a) + 1) % P);
            for &b in &probe_values() {
                assert_eq!(u128::from(scale(a, b)), (u128::from(a) * u128::from(b)) % P);
                let (ra, rb) = (a % P64, b % P64);
                assert_eq!(
                    u128::from(add(ra, rb)),
                    (u128::from(ra) + u128::from(rb)) % P
                );
            }
        }
        // The corners of `add`: the sum lands exactly on, and just around, P.
        assert_eq!(add(P64 - 1, 1), 0);
        assert_eq!(add(P64 - 1, P64 - 1), P64 - 2);
        assert_eq!(add(0, 0), 0);
    }

    #[test]
    fn base_power_is_repeated_scaling() {
        assert_eq!(base_power(0), 1);
        assert_eq!(u128::from(base_power(1)), BASE);
        for k in 1..12 {
            assert_eq!(base_power(k), scale(base_power(k - 1), BASE as u64));
        }
    }

    /// The identity the gram kernel rests on: folding `k` fingerprints into
    /// an accumulator is `acc·B^k + Σ_j term(w_j)·B^(k−1−j)`.
    #[test]
    fn fold_is_a_polynomial_in_the_base() {
        let values = probe_values();
        for (i, window) in values.windows(4).enumerate() {
            let acc = combine(TUPLE_SEED, i as u64);
            let folded = window.iter().fold(acc, |acc, &w| combine(acc, w));
            let k = window.len();
            let summed = window
                .iter()
                .enumerate()
                .fold(scale(acc, base_power(k)), |sum, (j, &w)| {
                    add(sum, scale(term(w), base_power(k - 1 - j)))
                });
            assert_eq!(folded, summed, "window {i}");
        }
    }
}
