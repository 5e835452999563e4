//! Order statistics the report is built from: nearest-rank percentiles,
//! medians, and per-slice aggregation of a window of timed operations.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the two middle ones for an even
/// count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts `values` and returns the `p`-percentile.
pub fn percentile_of(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    percentile(values, p)
}

/// One window cut into equal slices: how many operations completed in each
/// and the latencies of those operations.
pub struct Slices {
    slice_ns: u64,
    latencies_ns: Vec<Vec<u64>>,
}

impl Slices {
    /// `count` slices of `slice_ns` each, covering `0..count * slice_ns`.
    pub fn new(count: usize, slice_ns: u64) -> Self {
        Self {
            slice_ns,
            latencies_ns: vec![Vec::new(); count],
        }
    }

    /// Files one operation under the slice its completion time (offset from
    /// the window start) falls in; operations outside the window are dropped.
    pub fn add(&mut self, done_at_ns: u64, latency_ns: u64) {
        if let Some(slot) = self
            .latencies_ns
            .get_mut((done_at_ns / self.slice_ns) as usize)
        {
            slot.push(latency_ns);
        }
    }

    /// Median over slices of operations completed per second.
    pub fn median_rate_per_s(&self) -> f64 {
        let per_s = 1e9 / self.slice_ns as f64;
        let rates: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|s| s.len() as f64 * per_s)
            .collect();
        median(&rates)
    }

    /// Median over slices of each slice's `p`-percentile latency, and the
    /// smallest per-slice sample count behind it.
    pub fn median_percentile_ns(&mut self, p: f64) -> (f64, usize) {
        let per_slice: Vec<f64> = self
            .latencies_ns
            .iter_mut()
            .map(|s| percentile_of(s, p) as f64)
            .collect();
        let min_samples = self.latencies_ns.iter().map(Vec::len).min().unwrap_or(0);
        (median(&per_slice), min_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Three 1-second slices: 10, 20 and 10 operations; the middle one
        // holds a single 1 s outlier that must not own the reported p99.
        let mut s = Slices::new(3, 1_000_000_000);
        for i in 0..10u64 {
            s.add(i, 100);
            s.add(2_000_000_000 + i, 300);
        }
        for i in 0..19u64 {
            s.add(1_000_000_000 + i, 200);
        }
        s.add(1_500_000_000, 1_000_000_000);
        s.add(3_000_000_000, 5); // past the window: dropped
        assert_eq!(s.median_rate_per_s(), 10.0);
        let (p99, min_samples) = s.median_percentile_ns(0.99);
        assert_eq!(p99, 300.0);
        assert_eq!(min_samples, 10);
    }
}
