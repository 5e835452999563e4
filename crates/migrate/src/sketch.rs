//! Fixed-memory drift histograms: count-min sketch + deterministic
//! heavy-hitter reservoir.
//!
//! The exact [`AccessHistogram`](crate::drift::AccessHistogram) keeps one
//! counter per distinct tuple, so a drift monitor over a hot set of
//! millions of tuples carries O(hot set) memory *per window* — the piece
//! that stops scaling first at 1e8-access traces. [`SketchHistogram`] is
//! the fixed-memory replacement behind the same observe/distance API:
//!
//! - a **count-min sketch** (`depth` rows × `width` counters) answers
//!   per-tuple frequency queries with a one-sided error: estimates never
//!   undercount, and overcount by more than `ε·N` (`ε ≈ 2/width`, `N` =
//!   total accesses) only with probability `~2^-depth` per query;
//! - a **deterministic heavy-hitter reservoir** (SpaceSaving, capacity
//!   `heavy_hitters`) tracks the keys worth comparing individually. Every
//!   tuple whose true count exceeds `N / heavy_hitters` is guaranteed to be
//!   present, and the structure is a pure function of the observation
//!   sequence — no RNG, no hashing races — so windows fed in index order
//!   are reproducible.
//!
//! Distances ([`SketchHistogram::distance`]) are computed over the **union
//! of the two reservoirs**, in ascending-tuple order, plus one aggregate
//! *residual* bin (summed last) holding the tail mass neither reservoir
//! tracks — the same TV / JS sum the exact histogram uses, so the result is
//! the same bits on every build. That is exactly the distance of a
//! coarsened pair of distributions, so by the data-processing inequality
//! the sketched TV/JS can only *under*-shoot the exact distance by the
//! detail lost in the tail bin — while CMS overestimation noise can push
//! it either way by at most `~|U|·ε`. [`SketchHistogram::distance_with_bound`]
//! returns both the distance and that error bound; the pinned tests hold
//! sketch-vs-exact within it on real drifting traces.
//!
//! Memory is `depth · width · 8` bytes of counters plus the reservoir —
//! independent of the trace length and of the hot-set size. The defaults
//! (4 × 8192 counters + 1024 heavy hitters) fit in ~300 KiB.
//!
//! There is no sketched detector: a caller keeps a reference
//! `SketchHistogram`, scores each window's sketch against it, and hands
//! the distance to [`DriftReport::new`](crate::drift::DriftReport::new),
//! the one trigger.

use crate::drift::{sorted_union, DistanceMetric};
use schism_workload::{splitmix64, tuple_hash, TraceSource, TupleId, TupleMap, TupleState};
use std::collections::BTreeSet;

/// Sketch sizing. All three knobs trade accuracy for (fixed) memory; none
/// of them grows with the trace.
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Count-min counters per row. Expected per-query overestimate is
    /// `~2·N/width` accesses (see [`SketchHistogram::epsilon`]).
    pub width: usize,
    /// Count-min rows (independent hash functions). Each extra row halves
    /// (at least) the probability of a large overestimate.
    pub depth: usize,
    /// SpaceSaving reservoir capacity: every tuple with true count above
    /// `N / heavy_hitters` is guaranteed tracked.
    pub heavy_hitters: usize,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self {
            width: 8192,
            depth: 4,
            heavy_hitters: 1024,
        }
    }
}

/// A fixed-memory access histogram of one trace window.
#[derive(Clone, Debug)]
pub struct SketchHistogram {
    cfg: SketchConfig,
    /// `depth` rows of `width` counters, flattened row-major.
    counters: Vec<u64>,
    /// SpaceSaving counts: tuple → upper-bound count.
    heavy: TupleMap<u64>,
    /// Mirror of `heavy` ordered by `(count, tuple)` for O(log K) min
    /// eviction with a deterministic tie-break.
    order: BTreeSet<(u64, TupleId)>,
    total: u64,
}

impl SketchHistogram {
    pub fn new(cfg: SketchConfig) -> Self {
        assert!(cfg.width >= 2 && cfg.depth >= 1 && cfg.heavy_hitters >= 1);
        Self {
            counters: vec![0; cfg.width * cfg.depth],
            heavy: TupleMap::with_capacity_and_hasher(cfg.heavy_hitters + 1, TupleState::default()),
            order: BTreeSet::new(),
            total: 0,
            cfg,
        }
    }

    /// Records one access. Deterministic: the histogram is a pure function
    /// of the observation sequence.
    pub fn observe(&mut self, t: TupleId) {
        self.total += 1;
        let h = tuple_hash(t);
        for row in 0..self.cfg.depth {
            let idx = (splitmix64(h ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                % self.cfg.width as u64) as usize;
            self.counters[row * self.cfg.width + idx] += 1;
        }
        // SpaceSaving: tracked keys bump; new keys inherit the evicted
        // minimum's count + 1 (an upper bound on their true count).
        if let Some(c) = self.heavy.get_mut(&t) {
            let old = *c;
            *c += 1;
            self.order.remove(&(old, t));
            self.order.insert((old + 1, t));
        } else if self.heavy.len() < self.cfg.heavy_hitters {
            self.heavy.insert(t, 1);
            self.order.insert((1, t));
        } else {
            let &(min_count, min_t) = self.order.first().expect("non-empty reservoir");
            self.order.remove(&(min_count, min_t));
            self.heavy.remove(&min_t);
            self.heavy.insert(t, min_count + 1);
            self.order.insert((min_count + 1, t));
        }
    }

    /// Feeds every access of a window streamed from any [`TraceSource`],
    /// without materializing a `Trace`.
    pub fn observe_source<S>(&mut self, source: &S)
    where
        S: TraceSource + ?Sized,
    {
        source.for_chunk(0..source.len(), &mut |_, txn| {
            for t in txn.accessed() {
                self.observe(t);
            }
        });
    }

    /// Builds a sketch of a whole window.
    pub fn from_source<S>(cfg: SketchConfig, source: &S) -> Self
    where
        S: TraceSource + ?Sized,
    {
        let mut h = Self::new(cfg);
        h.observe_source(source);
        h
    }

    /// Count-min frequency estimate: never undercounts the true count;
    /// overcounts by more than `epsilon() * total` only with probability
    /// `~2^-depth`.
    pub fn estimate(&self, t: TupleId) -> u64 {
        let h = tuple_hash(t);
        let mut best = u64::MAX;
        for row in 0..self.cfg.depth {
            let idx = (splitmix64(h ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                % self.cfg.width as u64) as usize;
            best = best.min(self.counters[row * self.cfg.width + idx]);
        }
        if best == u64::MAX {
            0
        } else {
            best
        }
    }

    /// Estimated probability mass of `t` in this window.
    pub fn mass(&self, t: TupleId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.estimate(t) as f64 / self.total as f64
        }
    }

    /// Per-query expected overestimate as a fraction of the total count
    /// (`~2/width`; Markov on one row, and the min over `depth` rows only
    /// tightens it).
    pub fn epsilon(&self) -> f64 {
        2.0 / self.cfg.width as f64
    }

    /// Distance between two sketched windows (see module docs for the
    /// coarsening semantics).
    pub fn distance(&self, other: &Self, metric: DistanceMetric) -> f64 {
        self.distance_with_bound(other, metric).0
    }

    /// Distance plus its error bound vs. the exact (per-tuple) distance.
    ///
    /// The distance is computed over the union `U` of the two reservoirs'
    /// key sets in ascending order, with per-key masses from the count-min
    /// estimates, plus one residual bin per side holding
    /// `max(0, 1 - Σ_U mass)` — the tail neither reservoir tracks.
    ///
    /// The bound combines the two error sources: `|U| · (ε_a + ε_b)` of
    /// count-min overestimation slack across the queried keys (an expected
    /// bound; `depth` rows make larger excursions exponentially unlikely)
    /// and `(r_a + r_b) / 2 + ...` for the per-key detail aggregated away
    /// in the residual bins. It is stated for total variation; for
    /// Jensen–Shannon the same value is returned as a heuristic (JS of a
    /// coarsening is likewise a lower bound of the exact JS, but the CMS
    /// noise term has no closed form). Pinned against the exact histogram in
    /// `tests/drift_sketch.rs`.
    pub fn distance_with_bound(&self, other: &Self, metric: DistanceMetric) -> (f64, f64) {
        if self.total == 0 || other.total == 0 {
            // An empty window carries no evidence either way.
            return (0.0, 0.0);
        }
        let keys = sorted_union(&self.heavy, &other.heavy);
        let masses: Vec<(f64, f64)> = keys
            .iter()
            .map(|&t| (self.mass(t), other.mass(t)))
            .collect();
        let (sum_p, sum_q) = masses
            .iter()
            .fold((0.0f64, 0.0f64), |(sp, sq), &(p, q)| (sp + p, sq + q));
        let rp = (1.0 - sum_p).max(0.0);
        let rq = (1.0 - sum_q).max(0.0);
        let distance = metric.between(masses.into_iter().chain(std::iter::once((rp, rq))));
        let cms_slack = keys.len() as f64 * (self.epsilon() + other.epsilon());
        let bound = cms_slack + 0.5 * (rp + rq) + 0.5 * cms_slack;
        (distance, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::{Trace, TxnBuilder};

    fn point_trace(rows: &[u64]) -> Trace {
        Trace {
            transactions: rows
                .iter()
                .map(|&r| {
                    let mut b = TxnBuilder::new(false);
                    b.read(TupleId::new(0, r));
                    b.finish()
                })
                .collect(),
        }
    }

    #[test]
    fn estimates_never_undercount() {
        let mut h = SketchHistogram::new(SketchConfig {
            width: 64,
            depth: 3,
            heavy_hitters: 8,
        });
        for i in 0..500u64 {
            h.observe(TupleId::new(0, i % 37));
        }
        for i in 0..37u64 {
            let t = TupleId::new(0, i);
            let truth = (500 / 37) + u64::from(i < 500 % 37);
            assert!(h.estimate(t) >= truth, "CMS undercounted {i}");
        }
        assert_eq!(h.total, 500);
    }

    #[test]
    fn heavy_hitters_guarantee_holds() {
        // One key with 40% of the mass must be tracked even with a tiny
        // reservoir under heavy churn from 1000 cold keys.
        let mut h = SketchHistogram::new(SketchConfig {
            width: 1024,
            depth: 4,
            heavy_hitters: 16,
        });
        for i in 0..1000u64 {
            h.observe(TupleId::new(0, 7)); // hot
            h.observe(TupleId::new(1, i)); // churn
        }
        assert!(
            h.heavy.contains_key(&TupleId::new(0, 7)),
            "hot key evicted from the SpaceSaving reservoir"
        );
    }

    #[test]
    fn identical_windows_have_zero_distance() {
        let t = point_trace(&[1, 2, 3, 1, 1, 5]);
        let h = SketchHistogram::from_source(SketchConfig::default(), &t);
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert!(h.distance(&h, m).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_windows_have_maximal_distance() {
        let a = SketchHistogram::from_source(SketchConfig::default(), &point_trace(&[1, 2, 3]));
        let b = SketchHistogram::from_source(SketchConfig::default(), &point_trace(&[10, 11, 12]));
        assert!((a.distance(&b, DistanceMetric::TotalVariation) - 1.0).abs() < 1e-9);
        assert!((a.distance(&b, DistanceMetric::JensenShannon) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = SketchHistogram::from_source(SketchConfig::default(), &point_trace(&[1, 1, 2, 3]));
        let b =
            SketchHistogram::from_source(SketchConfig::default(), &point_trace(&[2, 3, 3, 4, 5]));
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert_eq!(a.distance(&b, m).to_bits(), b.distance(&a, m).to_bits());
        }
    }

    #[test]
    fn incremental_observe_equals_from_source() {
        let t = point_trace(&[5, 5, 9, 1, 5, 2, 2]);
        let whole = SketchHistogram::from_source(SketchConfig::default(), &t);
        let mut inc = SketchHistogram::new(SketchConfig::default());
        for txn in &t.transactions {
            for a in txn.accessed() {
                inc.observe(a);
            }
        }
        assert_eq!(inc.total, whole.total);
        assert_eq!(
            inc.distance(&whole, DistanceMetric::TotalVariation).abs(),
            0.0
        );
    }
}
