//! A fast, deterministic hasher for simulator-internal maps.
//!
//! `std`'s default `SipHash` is DoS-resistant but costs tens of cycles
//! per key — measurable on the per-packet fast paths (TCP demux,
//! key-value store, open-fault journal index). The simulator needs no
//! DoS resistance: keys are small integers or tuples of them, generated
//! by the simulation itself. This multiplicative hasher (the FxHash
//! construction used by rustc) is a few cycles per word and — unlike
//! `RandomState` — has **no per-process seed**, so map layout is
//! identical across runs and machines. Observable behaviour must still
//! never depend on map iteration order; determinism comes from the
//! discipline of iterating sorted or intrusive structures, the fixed
//! seed just removes one source of accidental run-to-run variation.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word-at-a-time hasher (FxHash).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// 2^64 / golden ratio, the classic Fibonacci-hashing multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail) | (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with the deterministic [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(h: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut hasher = FxHasher::default();
        h(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(|h| h.write_u64(0xdead_beef));
        let b = hash_of(|h| h.write_u64(0xdead_beef));
        assert_eq!(a, b);
        assert_ne!(a, hash_of(|h| h.write_u64(0xdead_bef0)));
    }

    #[test]
    fn byte_stream_tail_lengths_disambiguate() {
        // A trailing zero byte must hash differently from its absence
        // (the length tag in the tail word).
        let a = hash_of(|h| h.write(&[1, 2, 3]));
        let b = hash_of(|h| h.write(&[1, 2, 3, 0]));
        assert_ne!(a, b);
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 7, i), i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 10)), Some(&30));
        assert_eq!(m.remove(&(3, 10)), Some(30));
        assert_eq!(m.get(&(3, 10)), None);
    }
}
