//! Pins for the fixed-memory drift path (`schism_migrate::sketch`)
//! against the exact detector:
//!
//! - the sketched TV distance stays within the error bound
//!   [`SketchHistogram::distance_with_bound`] reports, on real drifting
//!   traces across seeds, rotations, and sketch sizes;
//! - with an exact-capacity sketch (reservoir covering the whole keyspace,
//!   collision-free width) the sketched and exact distances coincide;
//! - both detectors agree on the trigger decision for the drifting
//!   workload the migration controller monitors — quiet windows stay
//!   quiet, rotated hot spots fire;
//! - histograms fed incrementally from a streamed `TraceSource` match
//!   batch construction from the materialized trace.

use proptest::prelude::*;
use schism_migrate::drift::{AccessHistogram, DistanceMetric, DriftDetector};
use schism_migrate::sketch::{SketchConfig, SketchDriftDetector, SketchHistogram};
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::TraceSource;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// |sketched TV - exact TV| <= reported bound, for every window pair
    /// and sketch size tried.
    #[test]
    fn sketched_tv_stays_within_reported_bound(
        seed in 0..20u64,
        rotation in 0..4u64,
        width_pow in 9..=13u32,
        heavy_idx in 0..3usize,
    ) {
        let heavy = [64usize, 256, 2048][heavy_idx];
        let cfg = DriftingConfig {
            num_txns: 1_000,
            seed,
            ..Default::default()
        };
        let a = drifting::window(&cfg, 0);
        let b = drifting::window(&cfg, rotation);
        let exact = AccessHistogram::from_trace(&a.trace)
            .distance(&AccessHistogram::from_trace(&b.trace), DistanceMetric::TotalVariation);

        let scfg = SketchConfig {
            width: 1 << width_pow,
            depth: 4,
            heavy_hitters: heavy,
        };
        let sa = SketchHistogram::from_source(scfg, &a.trace);
        let sb = SketchHistogram::from_source(scfg, &b.trace);
        let (tv, bound) = sa.distance_with_bound(&sb, DistanceMetric::TotalVariation);
        prop_assert!(
            (tv - exact).abs() <= bound,
            "sketched TV {tv:.4} vs exact {exact:.4} exceeds bound {bound:.4} \
             (width {}, heavy {heavy})",
            1 << width_pow
        );
    }

    /// An exact-capacity sketch (reservoir >= keyspace, wide rows) agrees
    /// with the exact histogram to within count-min collision noise — and
    /// that noise is itself inside the bound.
    #[test]
    fn exact_capacity_sketch_matches_exact_distance(
        seed in 0..20u64,
        rotation in 1..4u64,
    ) {
        let cfg = DriftingConfig {
            num_txns: 1_000,
            seed,
            ..Default::default()
        };
        let a = drifting::window(&cfg, 0);
        let b = drifting::window(&cfg, rotation);
        let exact = AccessHistogram::from_trace(&a.trace)
            .distance(&AccessHistogram::from_trace(&b.trace), DistanceMetric::TotalVariation);
        // 1600 keys into 64k counters x 4 rows: collisions are negligible,
        // and the 1600-slot reservoir holds every key exactly.
        let scfg = SketchConfig {
            width: 1 << 16,
            depth: 4,
            heavy_hitters: cfg.records as usize,
        };
        let sa = SketchHistogram::from_source(scfg, &a.trace);
        let sb = SketchHistogram::from_source(scfg, &b.trace);
        let tv = sa.distance(&sb, DistanceMetric::TotalVariation);
        prop_assert!(
            (tv - exact).abs() < 0.02,
            "lossless-regime sketch drifted from exact: {tv:.4} vs {exact:.4}"
        );
    }

    /// Trigger agreement on the controller's workload: the sketched and
    /// exact detectors see the same quiet resample and the same rotated
    /// hot spot.
    #[test]
    fn sketched_and_exact_detectors_agree_on_triggers(seed in 0..10u64) {
        let cfg = DriftingConfig {
            num_txns: 2_000,
            seed,
            ..Default::default()
        };
        let reference = drifting::window(&cfg, 0);
        let quiet = drifting::generate(&DriftingConfig {
            seed: seed ^ 0x5EED,
            ..cfg.clone()
        });
        let loud = drifting::window(&cfg, 3);

        // The controller's metric (Jensen-Shannon) — total variation over
        // per-tuple histograms reads resampling noise as ~0.24 at this
        // window size, which is exactly why the controller uses JS.
        let metric = DistanceMetric::JensenShannon;
        let exact = DriftDetector::new(metric, &reference.trace);
        let sketched =
            SketchDriftDetector::new(metric, SketchConfig::default(), &reference.trace);

        let (eq, sq) = (exact.observe(&quiet.trace), sketched.observe(&quiet.trace));
        prop_assert!(!eq.drifted && !sq.drifted,
            "noise misread as drift: exact {:.3} sketched {:.3}", eq.distance, sq.distance);
        let (el, sl) = (exact.observe(&loud.trace), sketched.observe(&loud.trace));
        prop_assert!(el.drifted && sl.drifted,
            "drift missed: exact {:.3} sketched {:.3}", el.distance, sl.distance);
    }
}

/// Streamed (incremental, chunk-fed) and batch histogram construction are
/// indistinguishable, for both the exact and the sketched histogram.
#[test]
fn streamed_and_batch_histograms_agree() {
    let cfg = DriftingConfig {
        num_txns: 800,
        ..Default::default()
    };
    let src = drifting::stream(&cfg);
    let trace = src.materialize();

    let batch_exact = AccessHistogram::from_trace(&trace);
    let streamed_exact = AccessHistogram::from_source(&src);
    assert_eq!(
        batch_exact.total_accesses(),
        streamed_exact.total_accesses()
    );
    assert!(
        batch_exact
            .distance(&streamed_exact, DistanceMetric::TotalVariation)
            .abs()
            < 1e-12
    );

    let scfg = SketchConfig::default();
    let batch_sketch = SketchHistogram::from_source(scfg, &trace);
    let streamed_sketch = SketchHistogram::from_source(scfg, &src);
    assert_eq!(
        batch_sketch.total_accesses(),
        streamed_sketch.total_accesses()
    );
    assert!(
        batch_sketch
            .distance(&streamed_sketch, DistanceMetric::TotalVariation)
            .abs()
            < 1e-12
    );
}
