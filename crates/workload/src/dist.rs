//! Key-selection distributions: uniform and YCSB-style Zipfian.

use crate::tuple::fnv1a;
use rand::Rng;

/// Zipfian distribution over `0..n` with parameter `theta` (YCSB uses
/// 0.99). Implementation follows the classic Gray et al. rejection-free
/// formula used by YCSB's `ZipfianGenerator`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Builds a Zipfian over `0..n`. `theta` in `(0, 1)`; YCSB default 0.99.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// YCSB-default skew.
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, 0.99)
    }

    /// Draws a key in `0..n`; key 0 is the most popular.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * spread) as u64 % self.n
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `zeta(2, theta)` constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum; domains here are <= a few million and construction happens
    // once per workload.
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Scrambled Zipfian: Zipfian popularity ranks spread over the key space by
/// a hash, so hot keys are not clustered in contiguous ranges. YCSB applies
/// this for workloads where locality would be unrealistic.
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        Self {
            inner: Zipfian::new(n, theta),
        }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let rank = self.inner.sample(rng);
        fnv1a(&rank.to_le_bytes()) % self.inner.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::ycsb(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            let k = z.sample(&mut rng) as usize;
            assert!(k < 1000);
            counts[k] += 1;
        }
        // Head heavier than tail: top-10 keys should take >> 1% of mass.
        let head: u32 = counts[..10].iter().sum();
        assert!(head > 5_000, "head mass too small: {head}");
        let tail: u32 = counts[900..].iter().sum();
        assert!(head > tail * 3, "not skewed: head {head} tail {tail}");
    }

    #[test]
    fn zipfian_theta_zero_is_uniformish() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < min * 2,
            "theta=0 should be near-uniform: {min}..{max}"
        );
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let s = ScrambledZipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = std::collections::HashSet::new();
        for _ in 0..1000 {
            hits.insert(s.sample(&mut rng));
        }
        // Hot ranks map to scattered keys; samples must not concentrate in
        // the low range the way plain Zipfian does.
        let low = hits.iter().filter(|&&k| k < 100).count();
        assert!(
            low < hits.len() / 2,
            "hot keys not scrambled: {low}/{}",
            hits.len()
        );
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipfian_rejects_empty() {
        Zipfian::ycsb(0);
    }
}
