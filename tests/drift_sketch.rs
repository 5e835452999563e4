//! Pins for the fixed-memory drift path (`schism_migrate::sketch`)
//! against the exact detector:
//!
//! - the sketched TV distance stays within the error bound
//!   [`SketchHistogram::distance_with_bound`] reports, on real drifting
//!   traces across seeds, rotations, and sketch sizes;
//! - with an exact-capacity sketch (reservoir covering the whole keyspace,
//!   collision-free width) the sketched and exact distances coincide;
//! - exact and sketched histograms agree on the trigger decision
//!   ([`DriftReport::new`]) for the drifting workload the migration
//!   controller monitors — quiet windows stay quiet, rotated hot spots fire;
//! - histograms fed incrementally from a streamed `TraceSource` match
//!   batch construction from the materialized trace;
//! - every build of a window's histogram scores the same bits against a
//!   fixed other window, whatever key its hash map drew.

use proptest::prelude::*;
use schism_migrate::drift::{AccessHistogram, DistanceMetric, DriftReport};
use schism_migrate::sketch::{SketchConfig, SketchHistogram};
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::{TraceSource, TupleId, Workload};

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
        let exact = AccessHistogram::from_source(&a.trace)
            .distance(&AccessHistogram::from_source(&b.trace), DistanceMetric::TotalVariation);

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
        let exact = AccessHistogram::from_source(&a.trace)
            .distance(&AccessHistogram::from_source(&b.trace), DistanceMetric::TotalVariation);
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
    /// exact histograms see the same quiet resample and the same rotated
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
        let scfg = SketchConfig::default();
        let exact_ref = AccessHistogram::from_source(&reference.trace);
        let sketch_ref = SketchHistogram::from_source(scfg, &reference.trace);
        let exact = |w: &Workload| DriftReport::new(
            AccessHistogram::from_source(&w.trace).distance(&exact_ref, metric),
            w.trace.len(),
        );
        let sketched = |w: &Workload| DriftReport::new(
            SketchHistogram::from_source(scfg, &w.trace).distance(&sketch_ref, metric),
            w.trace.len(),
        );

        let (eq, sq) = (exact(&quiet), sketched(&quiet));
        prop_assert!(!eq.drifted && !sq.drifted,
            "noise misread as drift: exact {:.3} sketched {:.3}", eq.distance, sq.distance);
        let (el, sl) = (exact(&loud), sketched(&loud));
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

    let accessed: Vec<TupleId> = trace
        .transactions
        .iter()
        .flat_map(|t| t.accessed())
        .collect();
    let batch_exact = AccessHistogram::from_source(&trace);
    let streamed_exact = AccessHistogram::from_source(&src);
    for &t in &accessed {
        assert_eq!(
            batch_exact.mass(t).to_bits(),
            streamed_exact.mass(t).to_bits()
        );
    }
    assert!(
        batch_exact
            .distance(&streamed_exact, DistanceMetric::TotalVariation)
            .abs()
            < 1e-12
    );

    let scfg = SketchConfig::default();
    let batch_sketch = SketchHistogram::from_source(scfg, &trace);
    let streamed_sketch = SketchHistogram::from_source(scfg, &src);
    for &t in &accessed {
        assert_eq!(
            batch_sketch.mass(t).to_bits(),
            streamed_sketch.mass(t).to_bits()
        );
    }
    assert!(
        batch_sketch
            .distance(&streamed_sketch, DistanceMetric::TotalVariation)
            .abs()
            < 1e-12
    );
}

/// A distance is a function of the two windows, not of the hash key each
/// histogram's map drew: twenty builds of one window's histogram, exact
/// and sketched, score the same bits against one fixed other window under
/// both metrics.
#[test]
fn every_build_of_a_window_scores_the_same_bits() {
    let cfg = DriftingConfig::default();
    let window = drifting::window(&cfg, 0);
    let other = drifting::generate(&DriftingConfig {
        seed: 1234,
        ..cfg.clone()
    });
    let scfg = SketchConfig::default();
    let exact_other = AccessHistogram::from_source(&other.trace);
    let sketch_other = SketchHistogram::from_source(scfg, &other.trace);
    for metric in [
        DistanceMetric::TotalVariation,
        DistanceMetric::JensenShannon,
    ] {
        let exact: Vec<u64> = (0..20)
            .map(|_| {
                AccessHistogram::from_source(&window.trace)
                    .distance(&exact_other, metric)
                    .to_bits()
            })
            .collect();
        let sketched: Vec<u64> = (0..20)
            .map(|_| {
                SketchHistogram::from_source(scfg, &window.trace)
                    .distance(&sketch_other, metric)
                    .to_bits()
            })
            .collect();
        for (name, bits) in [("exact", exact), ("sketched", sketched)] {
            assert!(
                bits.iter().all(|&b| b == bits[0]),
                "{name} {metric:?} distance varies across builds: {:?}",
                bits.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>()
            );
        }
    }
}
