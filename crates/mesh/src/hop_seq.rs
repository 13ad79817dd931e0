//! A walk through the mesh as its hop directions, two bits a hop.

use std::fmt;

use crate::dir::Dir;

/// Hops held per `u64` word.
const HOPS_PER_WORD: usize = 32;
/// Words stored inline: 128 hops, which covers every minimal route of a
/// 64x64 mesh (at most 126 hops).
const INLINE_WORDS: usize = 4;
const INLINE_HOPS: usize = INLINE_WORDS * HOPS_PER_WORD;

/// A sequence of hop directions packed two bits per hop into `u64`
/// words: the one route representation of the workspace (the offline
/// engine's result, the service cache's entry, the fabric's compiled
/// route).
///
/// Up to 128 hops live inline, so building, cloning and dropping such a
/// walk never touches the heap; longer walks spill to a vector. The
/// representation is canonical — inline exactly when `len <= 128`, the
/// vector exactly `ceil(len / 32)` words, every bit past `len` zero — so
/// the derived `==` compares walks, not buffers.
#[derive(Clone, PartialEq, Eq)]
pub struct HopSeq(Repr);

/// The hop count sits inside each variant, beside the discriminant, so
/// the whole sequence is 40 bytes rather than 48.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u32, words: [u64; INLINE_WORDS] },
    Heap { len: u32, words: Vec<u64> },
}

impl Default for HopSeq {
    fn default() -> Self {
        HopSeq(Repr::Inline { len: 0, words: [0; INLINE_WORDS] })
    }
}

#[inline]
fn dir_in(words: &[u64], i: usize) -> Dir {
    Dir::ALL[(words[i / HOPS_PER_WORD] >> (2 * (i % HOPS_PER_WORD))) as usize & 3]
}

impl HopSeq {
    /// The empty walk.
    pub fn new() -> Self {
        HopSeq::default()
    }

    /// Number of hops.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            Repr::Inline { len, .. } | Repr::Heap { len, .. } => len as usize,
        }
    }

    /// Whether the walk has no hop.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { words, .. } => words,
            Repr::Heap { words, .. } => words,
        }
    }

    /// Appends one hop.
    #[inline]
    pub fn push(&mut self, dir: Dir) {
        let i = self.len();
        let (word, bits) = (i / HOPS_PER_WORD, (dir as u64) << (2 * (i % HOPS_PER_WORD)));
        match &mut self.0 {
            Repr::Inline { len, words } if i < INLINE_HOPS => {
                words[word] |= bits;
                *len += 1;
            }
            Repr::Inline { len, words } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_WORDS);
                spilled.extend_from_slice(words);
                spilled.push(bits);
                self.0 = Repr::Heap { len: *len + 1, words: spilled };
            }
            Repr::Heap { len, words } => {
                if word == words.len() {
                    words.push(bits);
                } else {
                    words[word] |= bits;
                }
                *len = len.checked_add(1).expect("a walk holds at most u32::MAX hops");
            }
        }
    }

    /// Hop `i` of the walk.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> Dir {
        assert!(i < self.len(), "hop {i} of a {}-hop walk", self.len());
        dir_in(self.words(), i)
    }

    /// The hops in walk order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Dir> + '_ {
        let words = self.words();
        (0..self.len()).map(move |i| dir_in(words, i))
    }
}

impl FromIterator<Dir> for HopSeq {
    fn from_iter<T: IntoIterator<Item = Dir>>(iter: T) -> Self {
        let mut seq = HopSeq::new();
        for dir in iter {
            seq.push(dir);
        }
        seq
    }
}

impl fmt::Debug for HopSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Push/get/iter/len/`==` against a `Vec<Dir>` oracle, over
        /// lengths that cross the 32-hop word boundaries and the
        /// 128-hop inline-to-heap boundary.
        #[test]
        fn matches_a_vec_of_dirs((len, seed) in (0usize..601, 0u64..u64::MAX)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let oracle: Vec<Dir> = (0..len).map(|_| Dir::ALL[rng.gen_range(0..4usize)]).collect();
            let mut seq = HopSeq::new();
            for (i, &dir) in oracle.iter().enumerate() {
                prop_assert_eq!(seq.len(), i);
                seq.push(dir);
                prop_assert_eq!(seq.get(i), dir);
            }
            prop_assert_eq!(seq.len(), len);
            prop_assert_eq!(seq.is_empty(), len == 0);
            prop_assert_eq!(seq.iter().len(), len);
            prop_assert_eq!(seq.iter().collect::<Vec<_>>(), oracle.clone());
            // Equality is by walk: a clone and an independently built
            // sequence are equal, any one-hop difference is not.
            prop_assert_eq!(&seq, &seq.clone());
            prop_assert_eq!(&seq, &oracle.iter().copied().collect::<HopSeq>());
            let mut longer = seq.clone();
            longer.push(Dir::PlusX);
            prop_assert!(longer != seq, "a +X suffix (all-zero bits) must still differ");
            if len > 0 {
                let at = rng.gen_range(0..len);
                let flipped: HopSeq = oracle
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| if i == at { d.opposite() } else { d })
                    .collect();
                prop_assert!(flipped != seq);
            }
        }
    }

    #[test]
    fn every_boundary_length_round_trips() {
        for len in [0usize, 1, 31, 32, 33, 127, 128, 129, 159, 160, 161, 256, 257] {
            let oracle: Vec<Dir> = (0..len).map(|i| Dir::ALL[(i * 7 + i / 5) % 4]).collect();
            let seq: HopSeq = oracle.iter().copied().collect();
            assert_eq!(seq.iter().collect::<Vec<_>>(), oracle, "len {len}");
            assert_eq!(matches!(seq.0, Repr::Inline { .. }), len <= INLINE_HOPS, "len {len}");
            assert_eq!(format!("{seq:?}"), format!("{oracle:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "hop 128 of a 128-hop walk")]
    fn get_past_len_panics_inline() {
        let seq: HopSeq = [Dir::MinusY; 128].into_iter().collect();
        seq.get(128);
    }

    #[test]
    #[should_panic(expected = "hop 200 of a 130-hop walk")]
    fn get_past_len_panics_on_the_heap() {
        let seq: HopSeq = [Dir::PlusY; 130].into_iter().collect();
        seq.get(200);
    }

    #[test]
    #[should_panic(expected = "hop 0 of a 0-hop walk")]
    fn get_on_the_empty_walk_panics() {
        HopSeq::new().get(0);
    }
}
