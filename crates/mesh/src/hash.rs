//! A small FxHash-style hasher.
//!
//! The workspace keys hash maps by small integer ids (MCC ids, node ids).
//! SipHash's HashDoS resistance buys nothing here and costs measurably in
//! the routing hot loops (see the Rust Performance Book's "Hashing"
//! chapter), so we ship the classic Fx multiply-xor hasher. The constant is
//! the one used by rustc; no external crate needed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (FxHash). Not HashDoS-resistant: use only for
/// internal keys, never attacker-controlled input.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add_to_hash(n as u32 as u64);
    }
}

/// SplitMix64 seed derivation: mixes a base seed with up to two stream
/// indices into an independent, well-spread substream seed.
///
/// This is the workspace's one canonical mixer — the experiment
/// harnesses and the traffic simulator all derive their per-task /
/// per-node RNG streams through it, so determinism contracts stay in
/// one place. Pass `0` for an unused stream index.
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut z = base ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `BuildHasher` for [`FxHasher`].
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<Coord, u32> = FxHashMap::default();
        m.insert(Coord::new(1, 2), 10);
        m.insert(Coord::new(3, 4), 20);
        assert_eq!(m[&Coord::new(1, 2)], 10);
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }

    #[test]
    fn hashing_is_deterministic_within_process() {
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"meshpath");
        h2.write(b"meshpath");
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn derive_seed_spreads_and_repeats() {
        assert_eq!(derive_seed(42, 1, 2), derive_seed(42, 1, 2));
        assert_ne!(derive_seed(42, 1, 2), derive_seed(42, 2, 1));
        assert_ne!(derive_seed(42, 1, 2), derive_seed(43, 1, 2));
        // b = 0 degenerates to two-stream mixing, used by the traffic
        // simulator's per-node streams.
        assert_ne!(derive_seed(42, 1, 0), derive_seed(42, 2, 0));
    }

    #[test]
    fn different_inputs_hash_differently() {
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write_u64(1);
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
