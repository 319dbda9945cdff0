//! Seeded input generation: a std-only splitmix64. The seed drives the
//! order of compiles and the request mix; the programs under test see only
//! the generated inputs, never the seed.

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by rejection, so no value is favoured.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_reference_values() {
        // reference outputs of splitmix64 seeded with 1234567
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix64::new(43);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..100).collect();
        let mut x = base.clone();
        let mut y = base.clone();
        SplitMix64::new(7).shuffle(&mut x);
        SplitMix64::new(7).shuffle(&mut y);
        assert_eq!(x, y, "same seed, same order");
        assert_ne!(x, base, "the order changed");
        let mut z = base.clone();
        SplitMix64::new(8).shuffle(&mut z);
        assert_ne!(x, z, "another seed, another order");
        x.sort_unstable();
        assert_eq!(x, base, "same multiset");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        for n in [1u64, 2, 3, 10, 1 << 40] {
            for _ in 0..100 {
                assert!(r.below(n) < n);
            }
        }
    }
}
