//! Criterion micro-benchmarks for the multilevel graph partitioner — the
//! machinery behind Figure 5 — on planted graphs, and on the two structures
//! the repo benchmark's advisor workloads partition (`advisor_tpcc`'s clique
//! graph, `advisor_hyper`'s hypergraph), so the partitioner layer has a
//! before/after of its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schism_core::{build_graph, CoAccess, GraphBackend, SchismConfig, WorkloadGraph};
use schism_graph::{gen, partition, partition_warm, PartitionerConfig, Partitioning};
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

/// The structure `Schism::run` partitions for `tpcc` under `cfg`: built from
/// the training split it makes before it builds the graph.
fn training_graph(tpcc: &TpccConfig, cfg: &SchismConfig) -> WorkloadGraph {
    let workload = tpcc::generate(tpcc);
    let (train, _test) = workload.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
    build_graph(&workload, &train, cfg)
}

/// `partition/<name>/{cold,warm}/{1t,2t}` with k and seed from `cfg`. Cold is
/// `partition`; warm is `partition_warm` from the cold result (what
/// `rerun_incremental` pays).
fn bench_cold_and_warm(
    c: &mut Criterion,
    name: &str,
    cfg: &SchismConfig,
    cold: impl Fn(&PartitionerConfig) -> Partitioning,
    warm: impl Fn(&[u32], &PartitionerConfig) -> Partitioning,
) {
    let pcfg = |threads: usize| PartitionerConfig {
        k: cfg.k,
        seed: cfg.seed,
        threads,
        ..cfg.partitioner.clone()
    };
    let start = cold(&pcfg(1)).assignment;

    let mut group = c.benchmark_group(format!("partition/{name}"));
    group.sample_size(10);
    for threads in [1usize, 2] {
        let pcfg = pcfg(threads);
        group.bench_function(BenchmarkId::new("cold", format!("{threads}t")), |b| {
            b.iter(|| cold(&pcfg))
        });
        group.bench_function(BenchmarkId::new("warm", format!("{threads}t")), |b| {
            b.iter(|| warm(&start, &pcfg))
        });
    }
    group.finish();
}

/// The hypergraph of the repo benchmark's `advisor_hyper` workload
/// (`benchmark/src/advisor.rs::hyper_spec`) at trace seed 7: 20 000
/// full-cardinality TPC-C transactions over 50 warehouses, one net each,
/// nothing sampled or filtered, k = 8.
fn bench_partition_hyper(c: &mut Criterion) {
    let mut cfg = SchismConfig::new(8);
    cfg.tuple_sample = 1.0;
    cfg.blanket_threshold = usize::MAX;
    cfg.replication = false;
    cfg.graph_backend = GraphBackend::Hypergraph;
    let tpcc = TpccConfig {
        num_txns: 20_000,
        seed: 7,
        ..TpccConfig::full(50)
    };
    let wg = training_graph(&tpcc, &cfg);
    let CoAccess::Hyper(hg) = &wg.graph else {
        panic!("hypergraph backend expected");
    };
    bench_cold_and_warm(
        c,
        "hyper",
        &cfg,
        |p| partition(hg, p),
        |from, p| partition_warm(hg, from, p),
    );
}

/// The clique graph of `advisor_tpcc` (`tpcc_spec`) at trace seed 7: 44 000
/// transactions over 16 warehouses at a tenth-of-a-percent of TPC-C's
/// per-warehouse cardinalities, 5 % tuple sampling, k = 8 — 373 085
/// vertices in equal-weight transaction cliques.
fn bench_partition_clique(c: &mut Criterion) {
    let mut cfg = SchismConfig::new(8);
    cfg.tuple_sample = 0.05;
    let tpcc = TpccConfig {
        warehouses: 16,
        customers_per_district: 30,
        items: 1_000,
        init_orders_per_district: 30,
        num_txns: 44_000,
        seed: 7,
        ..TpccConfig::full(16)
    };
    let CoAccess::Clique(g) = &training_graph(&tpcc, &cfg).graph else {
        panic!("clique backend expected");
    };
    bench_cold_and_warm(
        c,
        "clique",
        &cfg,
        |p| partition(g, p),
        |from, p| partition_warm(g, from, p),
    );
}

criterion_group!(
    benches,
    bench_partition_scaling,
    bench_partition_k,
    bench_partition_hyper,
    bench_partition_clique
);
criterion_main!(benches);
