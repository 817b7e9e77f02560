use crate::BitVec;

/// Constant-time rank (and logarithmic select) over an immutable [`BitVec`].
///
/// Ranks are precomputed per 512-bit superblock; a query scans at most eight
/// words. This is the classic layout SuRF's LOUDS-DS uses for its
/// upper-level bitmaps.
#[derive(Debug, Clone)]
pub struct RankSelect {
    bits: BitVec,
    /// `super_ranks[i]` = number of ones before superblock `i` (512 bits).
    super_ranks: Vec<u64>,
    total_ones: usize,
}

const WORDS_PER_BLOCK: usize = 8; // 512 bits

impl RankSelect {
    /// Builds the rank directory for `bits`.
    pub fn new(bits: BitVec) -> Self {
        let words = bits.words();
        let n_blocks = words.len().div_ceil(WORDS_PER_BLOCK);
        let mut super_ranks = Vec::with_capacity(n_blocks + 1);
        let mut acc = 0u64;
        super_ranks.push(0);
        for block in 0..n_blocks {
            let start = block * WORDS_PER_BLOCK;
            let end = (start + WORDS_PER_BLOCK).min(words.len());
            for w in &words[start..end] {
                acc += u64::from(w.count_ones());
            }
            super_ranks.push(acc);
        }
        let total_ones = acc as usize;
        RankSelect { bits, super_ranks, total_ones }
    }

    /// The underlying bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// `rank1(i)`: number of set bits strictly before position `i`
    /// (`0 <= i <= len`).
    pub fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.bits.len(), "rank index out of bounds");
        let words = self.bits.words();
        let block = i / (WORDS_PER_BLOCK * 64);
        let mut r = self.super_ranks[block] as usize;
        let first_word = block * WORDS_PER_BLOCK;
        let word = i / 64;
        for w in &words[first_word..word] {
            r += w.count_ones() as usize;
        }
        let rem = i % 64;
        if rem > 0 {
            r += (words[word] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        r
    }

    /// `rank0(i)`: number of clear bits strictly before position `i`.
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// `select1(k)`: position of the `k`-th set bit (0-based), or `None`
    /// when fewer than `k + 1` bits are set.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.total_ones {
            return None;
        }
        // Binary search the superblock, then scan words.
        let target = k as u64 + 1;
        let mut lo = 0usize;
        let mut hi = self.super_ranks.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.super_ranks[mid + 1] >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let block = lo;
        let mut remaining = target - self.super_ranks[block];
        let words = self.bits.words();
        let start = block * WORDS_PER_BLOCK;
        for (wi, w) in words[start..(start + WORDS_PER_BLOCK).min(words.len())]
            .iter()
            .enumerate()
        {
            let ones = u64::from(w.count_ones());
            if ones >= remaining {
                // find the `remaining`-th set bit inside this word
                let mut word = *w;
                for _ in 1..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some((start + wi) * 64 + word.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        unreachable!("select accounting is inconsistent");
    }

    /// Approximate heap size in bytes (bits + directory).
    pub fn mem_bytes(&self) -> usize {
        self.bits.mem_bytes() + self.super_ranks.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_rank(bits: &BitVec, i: usize) -> usize {
        (0..i).filter(|&j| bits.get(j)).count()
    }

    #[test]
    fn rank_on_small_pattern() {
        let bv: BitVec = [true, false, true, true, false].into_iter().collect();
        let rs = RankSelect::new(bv);
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.rank1(1), 1);
        assert_eq!(rs.rank1(3), 2);
        assert_eq!(rs.rank1(5), 3);
        assert_eq!(rs.rank0(5), 2);
    }

    #[test]
    fn select_inverts_rank() {
        let bv: BitVec = (0..1000).map(|i| i % 7 == 0).collect();
        let rs = RankSelect::new(bv);
        for k in 0..rs.count_ones() {
            let pos = rs.select1(k).unwrap();
            assert!(rs.bits().get(pos));
            assert_eq!(rs.rank1(pos), k);
        }
        assert_eq!(rs.select1(rs.count_ones()), None);
    }

    #[test]
    fn empty_vector() {
        let rs = RankSelect::new(BitVec::new());
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(0), None);
        assert_eq!(rs.count_ones(), 0);
    }

    #[test]
    fn all_ones_across_blocks() {
        let bv: BitVec = (0..2000).map(|_| true).collect();
        let rs = RankSelect::new(bv);
        assert_eq!(rs.rank1(2000), 2000);
        assert_eq!(rs.rank1(513), 513);
        assert_eq!(rs.select1(512), Some(512));
        assert_eq!(rs.select1(1999), Some(1999));
    }

    proptest! {
        #[test]
        fn rank_matches_naive(bits in proptest::collection::vec(any::<bool>(), 0..1500)) {
            let bv: BitVec = bits.iter().copied().collect();
            let rs = RankSelect::new(bv.clone());
            // probe a few positions including the ends
            let n = bv.len();
            for i in [0, n / 3, n / 2, n.saturating_sub(1), n] {
                prop_assert_eq!(rs.rank1(i), naive_rank(&bv, i));
            }
        }

        #[test]
        fn select_then_rank_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..1500)) {
            let bv: BitVec = bits.iter().copied().collect();
            let rs = RankSelect::new(bv);
            let ones = rs.count_ones();
            if ones > 0 {
                for k in [0, ones / 2, ones - 1] {
                    let pos = rs.select1(k).unwrap();
                    prop_assert_eq!(rs.rank1(pos), k);
                    prop_assert!(rs.bits().get(pos));
                }
            }
        }
    }
}
