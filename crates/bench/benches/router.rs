//! Criterion micro-benchmarks for the routing layer: lookup-table backends
//! (Appendix C.1) and replication-aware transaction routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schism_router::{
    route_transaction, BitArrayBackend, IndexBackend, LookupBackend, LookupScheme, MissPolicy,
    PartitionSet,
};
use schism_workload::{MaterializedDb, TupleId, TxnBuilder};

const N: u64 = 100_000;
const K: u32 = 8;

fn entries() -> Vec<(u64, PartitionSet)> {
    (0..N)
        .map(|r| (r, PartitionSet::single((r % K as u64) as u32)))
        .collect()
}

fn bench_lookup_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup/get");
    let index = IndexBackend::new(entries());
    let bits = BitArrayBackend::new(N, entries());
    let backends: Vec<(&str, &dyn LookupBackend)> = vec![("index", &index), ("bit-array", &bits)];
    for (name, b) in backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), &b, |bench, b| {
            let mut row = 0u64;
            bench.iter(|| {
                row = (row + 7919) % N;
                b.get(row)
            })
        });
    }
    group.finish();
}

fn bench_route_transaction(c: &mut Criterion) {
    let scheme = LookupScheme::new(
        K,
        vec![Some(
            Box::new(BitArrayBackend::new(N, entries())) as Box<dyn LookupBackend>
        )],
        vec![None],
        MissPolicy::Replicate,
    );
    let db = MaterializedDb::new();
    let mut txns = Vec::new();
    for i in 0..64u64 {
        let mut b = TxnBuilder::new(false);
        for j in 0..10 {
            b.read(TupleId::new(0, (i * 997 + j * 131) % N));
        }
        b.write(TupleId::new(0, (i * 7919) % N));
        txns.push(b.finish());
    }
    c.bench_function("route/txn-10r1w", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % txns.len();
            route_transaction(&txns[i], &scheme, &db)
        })
    });
}

criterion_group!(benches, bench_lookup_backends, bench_route_transaction);
criterion_main!(benches);
