//! A multiplicative (Fx-style) hasher for the hash-consing tables.
//!
//! Every hash-consing table in this crate — the builder's online CSE
//! and constant caches, the word optimizer's CSE/constant/assert sets,
//! and the bit lowerings' cons tables — is keyed by compiler-generated
//! values: wire ids, opcodes, and plan constants. None is ever keyed by
//! request bytes, so SipHash's resistance to crafted collisions buys
//! nothing there, while its per-lookup cost is paid once per gate.
//! This hasher is one add and one multiply per word.
//!
//! None of these tables is iterated, so the hasher cannot change any
//! circuit the crate emits: only lookup speed moves.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant rustc-hash uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Add-then-multiply word hasher. `finish` rotates the well-mixed high
/// bits of the product into the low bits that pick a bucket.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` under [`FxHasher`]; build with `FxHashMap::default()`.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` under [`FxHasher`]; build with `FxHashSet::default()`.
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn operand_order_and_opcode_change_the_hash() {
        assert_ne!(hash_of(&Gate::Add(1, 2)), hash_of(&Gate::Add(2, 1)));
        assert_ne!(hash_of(&Gate::Add(1, 2)), hash_of(&Gate::Sub(1, 2)));
        assert_eq!(hash_of(&Gate::Mux(3, 4, 5)), hash_of(&Gate::Mux(3, 4, 5)));
    }

    #[test]
    fn byte_writes_cover_a_partial_tail() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefghj"));
    }

    #[test]
    fn dense_wire_ids_spread_over_low_bits() {
        // Sequential ids must not pile into a few buckets of a
        // power-of-two table (hashbrown indexes with the low bits).
        let buckets: FxHashSet<u64> = (0u32..4096).map(|w| hash_of(&w) & 1023).collect();
        assert!(buckets.len() > 900, "{} of 1024 buckets hit", buckets.len());
    }
}
