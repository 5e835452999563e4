//! Windowed drift detection over workload traces.
//!
//! A caller keeps a *reference* access histogram — the distribution the
//! current partitioning was computed from — and compares each incoming
//! window's histogram against it with a distribution distance.
//! [`DriftReport::new`] is the trigger: when the distance crosses
//! [`THRESHOLD`] on a window of at least [`MIN_TRANSACTIONS`], the
//! workload has drifted enough that the placement is stale and a (warm)
//! re-partition pays off.
//!
//! Two distances are offered:
//!
//! - **Total variation**: `0.5 * Σ |p_i - q_i|` — the fraction of access
//!   mass that sits on the "wrong" tuples; directly interpretable as "x% of
//!   traffic moved".
//! - **Jensen–Shannon divergence** (base-2, so in `[0, 1]`): smoother under
//!   sampling noise and symmetric, the usual choice for drift monitors.
//!
//! Each is written once ([`DistanceMetric`]'s sum over `(p, q)` mass
//! pairs) and fed bins in ascending-tuple order, by the exact histogram
//! here and the sketched one in [`crate::sketch`]. So a distance is the
//! same bits on every build of the same windows, whatever key the
//! histograms' hash maps drew.
//!
//! Histograms are per-tuple. At production scale callers would coarsen to
//! key ranges first; the windowed API only assumes the histogram keys are
//! comparable across windows.

use schism_workload::{TraceSource, TupleId, TupleMap};

/// Distribution distance between two access histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceMetric {
    TotalVariation,
    JensenShannon,
}

impl DistanceMetric {
    /// The distance between two distributions given as `(p, q)` mass
    /// pairs, one per bin, summed in the order given — callers pass bins
    /// in ascending-tuple order so the result does not depend on map order.
    pub(crate) fn between(self, masses: impl Iterator<Item = (f64, f64)>) -> f64 {
        let d: f64 = match self {
            DistanceMetric::TotalVariation => 0.5 * masses.map(|(p, q)| (p - q).abs()).sum::<f64>(),
            DistanceMetric::JensenShannon => {
                let kl_term = |p: f64, m: f64| if p > 0.0 { p * (p / m).log2() } else { 0.0 };
                masses
                    .map(|(p, q)| {
                        let m = 0.5 * (p + q);
                        0.5 * kl_term(p, m) + 0.5 * kl_term(q, m)
                    })
                    .sum()
            }
        };
        d.clamp(0.0, 1.0)
    }
}

/// The keys of two histograms, ascending and without duplicates.
pub(crate) fn sorted_union(a: &TupleMap<u64>, b: &TupleMap<u64>) -> Vec<TupleId> {
    let mut keys: Vec<TupleId> = a.keys().chain(b.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Distance above which a window counts as drifted.
pub const THRESHOLD: f64 = 0.15;

/// Windows with fewer transactions than this never trigger (too noisy).
pub const MIN_TRANSACTIONS: usize = 100;

/// A normalized access histogram of one trace window.
#[derive(Clone, Debug, Default)]
pub struct AccessHistogram {
    counts: TupleMap<u64>,
    total: u64,
}

impl AccessHistogram {
    /// Counts every access (point reads, scan members, writes) of a window
    /// streamed from any [`TraceSource`] — an in-memory
    /// [`Trace`](schism_workload::Trace) is one.
    pub fn from_source<S>(source: &S) -> Self
    where
        S: TraceSource + ?Sized,
    {
        let mut h = Self::default();
        h.observe_source(source);
        h
    }

    /// Records one access. The histogram is a running count: callers can
    /// feed accesses as they arrive instead of batching a window first.
    pub fn observe(&mut self, t: TupleId) {
        *self.counts.entry(t).or_insert(0) += 1;
        self.total += 1;
    }

    /// Feeds every access of a streamed window into the running counts.
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

    /// Probability mass of `t` in this window.
    pub fn mass(&self, t: TupleId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&t).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Distance between two windows' access distributions, over the
    /// union of their tuples in ascending order.
    pub fn distance(&self, other: &Self, metric: DistanceMetric) -> f64 {
        if self.total == 0 || other.total == 0 {
            // An empty window carries no evidence either way.
            return 0.0;
        }
        let keys = sorted_union(&self.counts, &other.counts);
        metric.between(keys.into_iter().map(|t| (self.mass(t), other.mass(t))))
    }
}

/// What the trigger said about one window.
#[derive(Clone, Copy, Debug)]
pub struct DriftReport {
    /// Distance from the reference distribution.
    pub distance: f64,
    /// Whether the threshold was crossed (and the window was big enough).
    pub drifted: bool,
}

impl DriftReport {
    /// The drift trigger: a window of `window_txns` transactions at
    /// `distance` from the reference has drifted when the distance exceeds
    /// [`THRESHOLD`] and the window holds at least [`MIN_TRANSACTIONS`].
    pub fn new(distance: f64, window_txns: usize) -> Self {
        Self {
            distance,
            drifted: window_txns >= MIN_TRANSACTIONS && distance > THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::drifting::{self, DriftingConfig};
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
    fn identical_windows_have_zero_distance() {
        let t = point_trace(&[1, 2, 3, 1, 1, 5]);
        let h = AccessHistogram::from_source(&t);
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert!(h.distance(&h, m).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_windows_have_maximal_distance() {
        let a = AccessHistogram::from_source(&point_trace(&[1, 2, 3]));
        let b = AccessHistogram::from_source(&point_trace(&[10, 11, 12]));
        assert!((a.distance(&b, DistanceMetric::TotalVariation) - 1.0).abs() < 1e-12);
        assert!((a.distance(&b, DistanceMetric::JensenShannon) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = AccessHistogram::from_source(&point_trace(&[1, 1, 2, 3]));
        let b = AccessHistogram::from_source(&point_trace(&[2, 3, 3, 4, 5]));
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert_eq!(a.distance(&b, m).to_bits(), b.distance(&a, m).to_bits());
        }
    }

    /// The trigger on `window` against `reference`, as the controller
    /// pulls it.
    fn judge(reference: &Trace, window: &Trace) -> DriftReport {
        let distance = AccessHistogram::from_source(window).distance(
            &AccessHistogram::from_source(reference),
            DistanceMetric::JensenShannon,
        );
        DriftReport::new(distance, window.len())
    }

    #[test]
    fn detector_fires_on_real_drift_not_on_noise() {
        let cfg = DriftingConfig::default();
        let w0 = drifting::window(&cfg, 0);
        // A fresh sample of the same distribution: below threshold.
        let same = drifting::generate(&DriftingConfig {
            seed: 1234,
            ..cfg.clone()
        });
        let quiet = judge(&w0.trace, &same.trace);
        assert!(!quiet.drifted, "noise misread as drift: {}", quiet.distance);
        // A rotated hot spot: above threshold.
        let moved = drifting::window(&cfg, 3);
        let loud = judge(&w0.trace, &moved.trace);
        assert!(loud.drifted, "drift missed: {}", loud.distance);
        assert!(loud.distance > quiet.distance);
    }

    #[test]
    fn small_windows_never_trigger() {
        let r = judge(&point_trace(&[1, 2, 3]), &point_trace(&[50, 51, 52]));
        assert!(r.distance > 0.9, "disjoint windows are far apart");
        assert!(!r.drifted, "3-txn window is below MIN_TRANSACTIONS");
    }
}
