use crate::FlatVec;

/// A growable bit vector backed by `u64` words.
///
/// The words live in a [`FlatVec`], so a bit vector can be either owned
/// (while building) or a zero-copy view into a mapped archive section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: FlatVec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec { words: FlatVec::Owned(vec![0; len.div_ceil(64)]), len }
    }

    /// Rebuilds a bit vector from its backing words (e.g. a mapped archive
    /// section) and its bit length.
    ///
    /// Validates the representation invariants — the word count matches
    /// `len` and the bits beyond `len` in the last word are zero — so a
    /// corrupt section is an error, never a structure that silently
    /// miscounts ranks.
    pub fn from_words(words: FlatVec<u64>, len: usize) -> Result<Self, String> {
        if words.len() != len.div_ceil(64) {
            return Err(format!(
                "bitvec of {len} bits needs {} words, got {}",
                len.div_ceil(64),
                words.len()
            ));
        }
        if !len.is_multiple_of(64) {
            let last = words[words.len() - 1];
            if last >> (len % 64) != 0 {
                return Err(format!("bitvec has nonzero bits beyond len {len}"));
            }
        }
        Ok(BitVec { words, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit (copy-on-write when the words are a mapped view).
    pub fn push(&mut self, bit: bool) {
        let w = self.len / 64;
        let words = self.words.to_mut();
        if w == words.len() {
            words.push(0);
        }
        if bit {
            words[w] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads the bit at `i`.
    ///
    /// # Panics
    /// When `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `i`.
    ///
    /// # Panics
    /// When `i >= len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % 64);
        let words = self.words.to_mut();
        if bit {
            words[i / 64] |= mask;
        } else {
            words[i / 64] &= !mask;
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (trailing bits beyond `len` are zero).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing `u64` words, for batch scans (e.g. iterating set bits of
    /// a bitmap-encoded trie level). Trailing bits beyond `len` are zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Approximate heap size in bytes (0 when the words are a mapped view).
    pub fn mem_bytes(&self) -> usize {
        self.words.mem_bytes()
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        for i in 0..130 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 130);
        for i in 0..130 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn zeros_then_set() {
        let mut bv = BitVec::zeros(100);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(63, true);
        bv.set(64, true);
        bv.set(99, true);
        assert_eq!(bv.count_ones(), 4);
        assert!(bv.get(63));
        assert!(!bv.get(62));
        bv.set(63, false);
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn from_iterator() {
        let bv: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(bv.len(), 3);
        assert!(bv.get(0) && !bv.get(1) && bv.get(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn word_boundary_exactness() {
        let mut bv = BitVec::new();
        for _ in 0..64 {
            bv.push(true);
        }
        assert_eq!(bv.count_ones(), 64);
        bv.push(false);
        bv.push(true);
        assert_eq!(bv.count_ones(), 65);
        assert!(!bv.get(64));
        assert!(bv.get(65));
    }
}
