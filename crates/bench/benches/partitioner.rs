//! Criterion micro-benchmarks for the multilevel graph partitioner — the
//! machinery behind Figure 5 — on planted graphs, and on the hypergraph the
//! repo benchmark's `advisor_hyper` workload partitions, so the partitioner
//! layer has a before/after of its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schism_core::{build_graph, GraphBackend, SchismConfig};
use schism_graph::{gen, partition, partition_warm, PartitionerConfig};
use schism_workload::tpcc::{self, TpccConfig};

fn bench_partition_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/planted");
    group.sample_size(10);
    for &(groups, per_group) in &[(4usize, 500usize), (8, 1_000), (16, 2_000)] {
        let g = gen::planted_partition(groups, per_group, per_group * 6, per_group / 2, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}v", g.num_vertices())),
            &g,
            |b, g| b.iter(|| partition(g, &PartitionerConfig::with_k(groups as u32))),
        );
    }
    group.finish();
}

fn bench_partition_k(c: &mut Criterion) {
    let g = gen::planted_partition(16, 1_000, 6_000, 500, 3);
    let mut group = c.benchmark_group("partition/k-sweep");
    group.sample_size(10);
    for &k in &[2u32, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| partition(&g, &PartitionerConfig::with_k(k)))
        });
    }
    group.finish();
}

/// The hypergraph `Schism::run` partitions on the repo benchmark's
/// `advisor_hyper` workload (`benchmark/src/advisor.rs::hyper_spec`) at
/// trace seed 7: the training split of 20 000 full-cardinality TPC-C
/// transactions over 50 warehouses, one net each, nothing sampled or
/// filtered, k = 8. Cold is `partition`; warm is `partition_warm` from the
/// cold result (what `Schism::rerun` pays).
fn bench_partition_hyper(c: &mut Criterion) {
    let workload = tpcc::generate(&TpccConfig {
        num_txns: 20_000,
        seed: 7,
        ..TpccConfig::full(50)
    });
    let mut cfg = SchismConfig::new(8);
    cfg.tuple_sample = 1.0;
    cfg.blanket_threshold = usize::MAX;
    cfg.replication = false;
    cfg.graph_backend = GraphBackend::Hypergraph;
    // The split `Schism::run` makes before it builds the graph.
    let (train, _test) = workload.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
    let wg = build_graph(&workload, &train, &cfg);
    let hg = wg.hgraph.as_ref().expect("hypergraph backend");
    let pcfg = |threads: usize| PartitionerConfig {
        k: cfg.k,
        seed: cfg.seed,
        threads,
        ..cfg.partitioner.clone()
    };
    let cold = partition(hg, &pcfg(1));

    let mut group = c.benchmark_group("partition/hyper");
    group.sample_size(10);
    for threads in [1usize, 2] {
        let pcfg = pcfg(threads);
        group.bench_function(BenchmarkId::new("cold", format!("{threads}t")), |b| {
            b.iter(|| partition(hg, &pcfg))
        });
        group.bench_function(BenchmarkId::new("warm", format!("{threads}t")), |b| {
            b.iter(|| partition_warm(hg, &cold.assignment, &pcfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_scaling,
    bench_partition_k,
    bench_partition_hyper
);
criterion_main!(benches);
