//! A fast, non-cryptographic hasher for internal hash maps.
//!
//! The workspace deliberately avoids external utility crates; this is the
//! classic Fx multiply-rotate hash (as used by rustc) implemented in ~40
//! lines. HashDoS resistance is not required: keys are internal node ids,
//! interned label symbols and fingerprints, never attacker-controlled maps.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher; very fast for short fixed-size keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn hash_differs_for_nearby_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FxHasher> = Default::default();
        let h1 = b.hash_one(1u64);
        let h2 = b.hash_one(2u64);
        assert_ne!(h1, h2);
    }

    #[test]
    fn byte_writes_equivalent_lengths_do_not_collide_trivially() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FxHasher> = Default::default();
        let h1 = b.hash_one([1u8, 2, 3].as_slice());
        let h2 = b.hash_one([3u8, 2, 1].as_slice());
        assert_ne!(h1, h2);
    }
}
