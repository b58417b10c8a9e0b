//! Integer-keyed hash tables for the per-frame path.
//!
//! std's default hasher (SipHash-1-3 under a random key) defends a
//! table against keys an adversary picks. The simulator's tables are
//! keyed by numbers the stack assigns itself — etags, subject uids,
//! `(round, slot)` pairs — so that defence buys nothing, and SipHash
//! costs more than the look-up it guards. [`IntMap`] hashes each key
//! word with one add and one multiply and finishes with a rotate that
//! brings the well-mixed high bits of the product down to where
//! `HashMap` picks its bucket. It has no random state, so iteration
//! order is the same run to run (no reader may rely on it all the same:
//! it still depends on the insertion history).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers or tuples of integers, hashed with
/// [`IntHasher`]. Build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Multiply-rotate hasher for integer keys (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

/// An odd constant with well-spread bits (the one `rustc-hash` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash(7u16), hash(7u16));
        let low_bits: std::collections::HashSet<u64> =
            (0..1024u16).map(|e| hash(e) & 1023).collect();
        // Sequential etags land in most of 1024 buckets, not a few.
        assert!(low_bits.len() > 600, "{}", low_bits.len());
        assert_ne!(hash((1u64, 2usize)), hash((2u64, 1usize)));
    }

    #[test]
    fn works_as_a_map() {
        let mut m: IntMap<u64, &str> = IntMap::default();
        m.insert(u64::MAX, "max");
        m.insert(0, "zero");
        assert_eq!(m[&u64::MAX], "max");
        assert_eq!(m.get(&0), Some(&"zero"));
        assert!(!m.contains_key(&1));
    }
}
