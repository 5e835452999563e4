//! Property pins for the streaming graph builder's filtering heuristics
//! (§5.1: access-weighted tuple sampling, blanket-scan dropping) and its
//! ingestion contract:
//!
//! - tuple sampling may only *shrink* the node set — every tuple surviving
//!   a sampled build exists in the full build;
//! - `BuildStats` bookkeeping (`sampled_txns`, `dropped_scans`) and the
//!   whole graph are identical between chunked (streaming-source) and
//!   whole-trace ingestion, for any tuple-sampling rate and seed;
//! - the sharded pass-1 merge is invisible in the output: every shard
//!   count (4× the thread count) × ingestion path digests identically.

use proptest::prelude::*;
use schism_core::{build_graph, build_graph_source, CoAccess, GraphBackend, SchismConfig};
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::ycsb::{self, YcsbConfig};
use schism_workload::TraceSource;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A sampled build's node set is a subset of the full build's, and the
    /// represented transaction count never exceeds the trace.
    #[test]
    fn sampling_yields_a_subset_of_the_full_node_set(
        tuple_pct in 20..=100u32,
        seed in 0..20u64,
    ) {
        let w = ycsb::generate(&YcsbConfig {
            records: 600,
            num_txns: 800,
            seed,
            ..YcsbConfig::workload_e()
        });
        let mut full_cfg = SchismConfig::new(2);
        full_cfg.seed = seed;
        let full = build_graph(&w, &w.trace, &full_cfg);

        let mut sampled_cfg = full_cfg.clone();
        sampled_cfg.tuple_sample = f64::from(tuple_pct) / 100.0;
        let sampled = build_graph(&w, &w.trace, &sampled_cfg);

        let full_set: HashSet<_> = full.tuples().iter().copied().collect();
        for t in sampled.tuples() {
            prop_assert!(
                full_set.contains(t),
                "sampled build invented tuple {t:?} absent from the full build"
            );
        }
        prop_assert!(sampled.stats.sampled_txns <= w.trace.len());
        prop_assert!(sampled.stats.distinct_tuples <= full.stats.distinct_tuples);
    }

    /// Chunked (streaming-source) and whole-trace ingestion agree on the
    /// graph and on `BuildStats` — including under tuple sampling.
    #[test]
    fn chunked_and_whole_trace_stats_are_consistent(
        tuple_pct in 30..=100u32,
        seed in 0..20u64,
        threads in 1..=4usize,
    ) {
        let dcfg = DriftingConfig {
            num_txns: 600,
            seed,
            ..Default::default()
        };
        let w = drifting::generate(&dcfg);
        let src = drifting::stream(&dcfg);

        let mut cfg = SchismConfig::new(2);
        cfg.seed = seed;
        cfg.threads = threads;
        cfg.tuple_sample = f64::from(tuple_pct) / 100.0;

        let chunked = build_graph_source(&src, &cfg);
        let whole = build_graph(&w, &src.materialize(), &cfg);
        prop_assert_eq!(chunked.stats.sampled_txns, whole.stats.sampled_txns);
        prop_assert_eq!(chunked.stats.dropped_scans, whole.stats.dropped_scans);
        prop_assert_eq!(chunked.stats, whole.stats);
        prop_assert_eq!(chunked.digest(), whole.digest());
    }

    /// Scan-dropping accounting survives chunking too: a strict blanket
    /// threshold drops the same scans (TPC-C's order-line and stock scans)
    /// on both ingestion paths.
    #[test]
    fn blanket_filter_consistent_across_ingestion(
        seed in 0..10u64,
        threads in 1..=4usize,
    ) {
        let tcfg = TpccConfig {
            num_txns: 500,
            seed,
            ..TpccConfig::small(2)
        };
        let w = tpcc::generate(&tcfg);
        let src = tpcc::stream(&tcfg);
        let mut cfg = SchismConfig::new(2);
        cfg.seed = seed;
        cfg.threads = threads;
        cfg.blanket_threshold = 4;

        let chunked = build_graph_source(&src, &cfg);
        let whole = build_graph(&w, &src.materialize(), &cfg);
        prop_assert!(chunked.stats.dropped_scans > 0, "threshold too lax for the pin");
        prop_assert_eq!(chunked.stats, whole.stats);
        prop_assert_eq!(chunked.digest(), whole.digest());
    }

    /// The clique and hypergraph backends are two views of the same sampled
    /// workload: identical tuple set, node count, per-vertex (and hence
    /// total) access weights, and bookkeeping — only the co-access
    /// representation (clique edges vs transaction nets) differs.
    #[test]
    fn backends_agree_on_vertices_and_weights(
        tuple_pct in 40..=100u32,
        seed in 0..20u64,
        threads in 1..=4usize,
    ) {
        let ycfg = YcsbConfig {
            records: 500,
            num_txns: 700,
            seed,
            scan_max: 9,
            ..YcsbConfig::workload_e()
        };
        let w = ycsb::generate(&ycfg);
        let mut cfg = SchismConfig::new(2);
        cfg.seed = seed;
        cfg.threads = threads;
        cfg.tuple_sample = f64::from(tuple_pct) / 100.0;
        let clique = build_graph(&w, &w.trace, &cfg);
        let mut hcfg = cfg.clone();
        hcfg.graph_backend = GraphBackend::Hypergraph;
        let hyper = build_graph(&w, &w.trace, &hcfg);

        prop_assert_eq!(clique.tuples(), hyper.tuples());
        prop_assert_eq!(clique.num_nodes(), hyper.num_nodes());
        let (CoAccess::Clique(cg), CoAccess::Hyper(hg)) = (&clique.graph, &hyper.graph) else {
            panic!("each build must emit its backend's representation");
        };
        prop_assert!(hg.validate().is_ok());
        let total_clique: u64 = (0..clique.num_nodes() as u32)
            .map(|v| u64::from(cg.vertex_weight(v)))
            .sum();
        prop_assert_eq!(total_clique, hg.total_vertex_weight());
        for v in 0..clique.num_nodes() as u32 {
            prop_assert_eq!(
                cg.vertex_weight(v),
                hg.vertex_weight(v),
                "vertex {} weight diverged between backends",
                v
            );
        }
        // Bookkeeping agrees modulo the representation counters.
        let mut cs = clique.stats;
        let mut hs = hyper.stats;
        cs.edges = 0;
        hs.hyperedges = 0;
        hs.pins = 0;
        prop_assert_eq!(cs, hs);
    }

    /// The sharded pass-1 merge is invisible in the output: the builder
    /// shards 4× its thread count, so threads 1/2/3/4 merge through
    /// 4/8/12/16 shards — even and uneven counts — and both ingestion paths
    /// must build the bit-identical graph at each, with tuple sampling and
    /// coalescing on so the merge is exercised on every `TupleStats` field
    /// it folds.
    #[test]
    fn sharded_merge_is_bit_identical_across_shard_counts(
        tuple_pct in 50..=100u32,
        seed in 0..20u64,
    ) {
        let dcfg = DriftingConfig {
            num_txns: 600,
            seed,
            ..Default::default()
        };
        let w = drifting::generate(&dcfg);
        let src = drifting::stream(&dcfg);

        let mut cfg = SchismConfig::new(2);
        cfg.seed = seed;
        cfg.threads = 1;
        cfg.tuple_sample = f64::from(tuple_pct) / 100.0;
        let reference = build_graph_source(&src, &cfg);
        prop_assert_eq!(
            build_graph(&w, &src.materialize(), &cfg).digest(),
            reference.digest()
        );

        for threads in 2..=4usize {
            cfg.threads = threads;
            let chunked = build_graph_source(&src, &cfg);
            let whole = build_graph(&w, &src.materialize(), &cfg);
            prop_assert_eq!(chunked.stats, reference.stats);
            prop_assert_eq!(
                chunked.digest(),
                reference.digest(),
                "threads={} ({} merge shards) changed the graph",
                threads,
                4 * threads
            );
            prop_assert_eq!(whole.digest(), reference.digest());
        }
    }
}
