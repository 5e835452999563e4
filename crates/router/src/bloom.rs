//! Bloom filters — one of the three physical lookup-table representations
//! the paper evaluates (Appendix C.1). False positives cost extra
//! participants at run time but never break correctness.

use schism_workload::splitmix64;

/// A Bloom filter over `u64` keys with double hashing.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

impl BloomFilter {
    /// Sizes the filter for `expected_items` at `fp_rate` false positives
    /// (`m = -n ln p / ln2²`, `k = m/n ln2`).
    pub fn new(expected_items: usize, fp_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fp_rate) && fp_rate > 0.0,
            "bad fp rate"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * fp_rate.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((m as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        Self {
            bits: vec![0u64; m.div_ceil(64) as usize],
            num_bits: m,
            num_hashes: k,
        }
    }

    fn hashes(&self, key: u64) -> (u64, u64) {
        // splitmix64 twice with different increments.
        let h1 = splitmix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let h2 = splitmix64(key.wrapping_add(0xD1B5_4A32_D192_ED03)) | 1; // odd stride
        (h1, h2)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = self.hashes(key);
        for i in 0..self.num_hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Membership test; false positives possible, false negatives not.
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = self.hashes(key);
        (0..self.num_hashes as u64).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Size of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(10_000, 0.01);
        for k in (0..10_000u64).map(|i| i * 7 + 3) {
            b.insert(k);
        }
        for k in (0..10_000u64).map(|i| i * 7 + 3) {
            assert!(b.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_in_ballpark() {
        let mut b = BloomFilter::new(10_000, 0.01);
        for k in 0..10_000u64 {
            b.insert(k);
        }
        let fps = (10_000u64..110_000).filter(|&k| b.contains(k)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} far above target 0.01");
    }

    #[test]
    fn sizing_tradeoff() {
        let tight = BloomFilter::new(1000, 0.001);
        let loose = BloomFilter::new(1000, 0.1);
        assert!(tight.size_bytes() > loose.size_bytes());
        assert!(tight.num_hashes() > loose.num_hashes());
    }

    #[test]
    fn empty_filter_contains_nothing_much() {
        let b = BloomFilter::new(1000, 0.01);
        let hits = (0..1000u64).filter(|&k| b.contains(k)).count();
        assert_eq!(hits, 0, "empty filter must reject everything");
    }
}
