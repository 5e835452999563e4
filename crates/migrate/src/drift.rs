//! Windowed drift detection over workload traces.
//!
//! The detector keeps a *reference* access histogram — the distribution the
//! current partitioning was computed from — and compares each incoming
//! window's histogram against it with a distribution distance. When the
//! distance crosses [`THRESHOLD`] on a window of at least
//! [`MIN_TRANSACTIONS`], the workload has drifted enough that the
//! placement is stale and a (warm) re-partition pays off.
//!
//! Two distances are offered:
//!
//! - **Total variation**: `0.5 * Σ |p_i - q_i|` — the fraction of access
//!   mass that sits on the "wrong" tuples; directly interpretable as "x% of
//!   traffic moved".
//! - **Jensen–Shannon divergence** (base-2, so in `[0, 1]`): smoother under
//!   sampling noise and symmetric, the usual choice for drift monitors.
//!
//! Histograms are per-tuple. At production scale callers would coarsen to
//! key ranges first; the windowed API only assumes the histogram keys are
//! comparable across windows.

use schism_workload::{Trace, TraceSource, TupleId, TupleMap};

/// Distribution distance used by the detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceMetric {
    TotalVariation,
    JensenShannon,
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
    /// Counts every access (point reads, scan members, writes).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_source(trace)
    }

    /// Counts every access of a window streamed from any [`TraceSource`]
    /// — no materialized `Trace` needed.
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

    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    pub fn distinct_tuples(&self) -> usize {
        self.counts.len()
    }

    /// Probability mass of `t` in this window.
    pub fn mass(&self, t: TupleId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&t).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Distance between two windows' access distributions.
    pub fn distance(&self, other: &Self, metric: DistanceMetric) -> f64 {
        if self.total == 0 || other.total == 0 {
            // An empty window carries no evidence either way.
            return 0.0;
        }
        match metric {
            DistanceMetric::TotalVariation => {
                let mut sum = 0.0f64;
                for (&t, &c) in &self.counts {
                    let p = c as f64 / self.total as f64;
                    let q = other.mass(t);
                    sum += (p - q).abs();
                }
                // Keys only in `other`.
                for (&t, &c) in &other.counts {
                    if !self.counts.contains_key(&t) {
                        sum += c as f64 / other.total as f64;
                    }
                }
                0.5 * sum
            }
            DistanceMetric::JensenShannon => {
                let mut js = 0.0f64;
                let kl_term = |p: f64, m: f64| if p > 0.0 { p * (p / m).log2() } else { 0.0 };
                for (&t, &c) in &self.counts {
                    let p = c as f64 / self.total as f64;
                    let q = other.mass(t);
                    let m = 0.5 * (p + q);
                    js += 0.5 * kl_term(p, m);
                }
                for (&t, &c) in &other.counts {
                    let q = c as f64 / other.total as f64;
                    let p = self.mass(t);
                    let m = 0.5 * (p + q);
                    js += 0.5 * kl_term(q, m);
                }
                js.clamp(0.0, 1.0)
            }
        }
    }
}

/// What the detector said about one window.
#[derive(Clone, Copy, Debug)]
pub struct DriftReport {
    /// Distance from the reference distribution.
    pub distance: f64,
    /// Whether the threshold was crossed (and the window was big enough).
    pub drifted: bool,
    /// Transactions in the observed window.
    pub window_txns: usize,
}

impl DriftReport {
    /// The trigger both detectors share: a window of `window_txns`
    /// transactions at `distance` from the reference.
    pub(crate) fn new(distance: f64, window_txns: usize) -> Self {
        Self {
            distance,
            drifted: window_txns >= MIN_TRANSACTIONS && distance > THRESHOLD,
            window_txns,
        }
    }
}

/// Windowed drift detector: reference histogram + threshold trigger.
pub struct DriftDetector {
    metric: DistanceMetric,
    reference: AccessHistogram,
}

impl DriftDetector {
    /// `reference` is the trace the current placement was computed from.
    pub fn new(metric: DistanceMetric, reference: &Trace) -> Self {
        Self {
            metric,
            reference: AccessHistogram::from_trace(reference),
        }
    }

    /// Scores one window against the reference.
    pub fn observe(&self, window: &Trace) -> DriftReport {
        let hist = AccessHistogram::from_trace(window);
        DriftReport::new(hist.distance(&self.reference, self.metric), window.len())
    }

    /// Resets the reference after a repartition: future windows are judged
    /// against the distribution the *new* placement was computed from.
    pub fn rebase(&mut self, trace: &Trace) {
        self.reference = AccessHistogram::from_trace(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::drifting::{self, DriftingConfig};
    use schism_workload::TxnBuilder;

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
        let h = AccessHistogram::from_trace(&t);
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert!(h.distance(&h, m).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_windows_have_maximal_distance() {
        let a = AccessHistogram::from_trace(&point_trace(&[1, 2, 3]));
        let b = AccessHistogram::from_trace(&point_trace(&[10, 11, 12]));
        assert!((a.distance(&b, DistanceMetric::TotalVariation) - 1.0).abs() < 1e-12);
        assert!((a.distance(&b, DistanceMetric::JensenShannon) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = AccessHistogram::from_trace(&point_trace(&[1, 1, 2, 3]));
        let b = AccessHistogram::from_trace(&point_trace(&[2, 3, 3, 4, 5]));
        for m in [
            DistanceMetric::TotalVariation,
            DistanceMetric::JensenShannon,
        ] {
            assert!((a.distance(&b, m) - b.distance(&a, m)).abs() < 1e-12);
        }
    }

    #[test]
    fn detector_fires_on_real_drift_not_on_noise() {
        let cfg = DriftingConfig::default();
        let w0 = drifting::window(&cfg, 0);
        let detector = DriftDetector::new(DistanceMetric::JensenShannon, &w0.trace);
        // A fresh sample of the same distribution: below threshold.
        let same = drifting::generate(&DriftingConfig {
            seed: 1234,
            ..cfg.clone()
        });
        let quiet = detector.observe(&same.trace);
        assert!(!quiet.drifted, "noise misread as drift: {}", quiet.distance);
        // A rotated hot spot: above threshold.
        let moved = drifting::window(&cfg, 3);
        let loud = detector.observe(&moved.trace);
        assert!(loud.drifted, "drift missed: {}", loud.distance);
        assert!(loud.distance > quiet.distance);
    }

    #[test]
    fn small_windows_never_trigger() {
        let detector = DriftDetector::new(DistanceMetric::JensenShannon, &point_trace(&[1, 2, 3]));
        let r = detector.observe(&point_trace(&[50, 51, 52]));
        assert!(r.distance > 0.9, "disjoint windows are far apart");
        assert!(!r.drifted, "3-txn window is below MIN_TRANSACTIONS");
    }

    #[test]
    fn rebase_resets_reference() {
        let rows = |from: u64| (from..from + MIN_TRANSACTIONS as u64).collect::<Vec<_>>();
        let mut d = DriftDetector::new(DistanceMetric::JensenShannon, &point_trace(&rows(0)));
        let far = point_trace(&rows(1_000));
        assert!(d.observe(&far).drifted);
        d.rebase(&far);
        assert!(!d.observe(&far).drifted);
    }
}
