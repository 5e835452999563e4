//! Criterion micro-benchmark for the discrete-event simulator: events per
//! second of simulated point-read traffic.

use criterion::{criterion_group, criterion_main, Criterion};
use schism_sim::{run, SimConfig, SimOp, SimTxn};

fn pool(servers: u32) -> Vec<SimTxn> {
    (0..256u64)
        .map(|i| SimTxn {
            ops: vec![
                SimOp {
                    server: (i % servers as u64) as u32,
                    key: (0, i * 2),
                    write: false,
                },
                SimOp {
                    server: (i % servers as u64) as u32,
                    key: (0, i * 2 + 1),
                    write: i % 4 == 0,
                },
            ],
        })
        .collect()
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/run-1s");
    group.sample_size(10);
    let cfg = SimConfig {
        num_servers: 4,
        num_clients: 100,
        warmup: 200_000,
        duration: 1_000_000,
        ..SimConfig::figure1(4)
    };
    group.bench_function("4srv-100cli", |b| b.iter(|| run(&cfg, &pool(4))));
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
