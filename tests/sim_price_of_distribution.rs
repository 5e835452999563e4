//! Integration: the §3 result must emerge from the simulator + workload +
//! router stack — distributed transactions cost ~2x in throughput and
//! latency versus single-partition execution of the same work.

use schism_router::{PartitionSet, RangeRule, RangeScheme, TablePolicy};
use schism_sim::{run, SimConfig, SimTxn};
use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};

fn stripes(rows: u64, servers: u32) -> RangeScheme {
    let stripe = rows / servers as u64;
    let rules: Vec<RangeRule> = (0..servers)
        .map(|p| RangeRule {
            conds: vec![(
                0,
                (p as u64 * stripe) as i64,
                if p == servers - 1 {
                    i64::MAX
                } else {
                    ((p as u64 + 1) * stripe - 1) as i64
                },
            )],
            partitions: PartitionSet::single(p),
        })
        .collect();
    RangeScheme::new(
        servers,
        vec![TablePolicy::Rules {
            rules,
            default: PartitionSet::single(0),
        }],
    )
}

#[test]
fn distributed_transactions_halve_throughput() {
    let servers = 3u32;
    let mut results = Vec::new();
    for mode in [AccessMode::SinglePartition, AccessMode::Distributed] {
        let w = simplecount::generate(&SimpleCountConfig {
            servers,
            mode,
            num_txns: 3_000,
            ..Default::default()
        });
        let scheme = stripes(w.total_tuples(), servers);
        let pool = SimTxn::from_trace(&w.trace, &scheme, &*w.db);
        // Shorter run than the figure binary keeps the test fast.
        let cfg = SimConfig {
            num_clients: 90,
            warmup: 1_000_000,
            duration: 6_000_000,
            ..SimConfig::figure1(servers)
        };
        results.push(run(&cfg, &pool));
    }
    let (single, dist) = (&results[0], &results[1]);
    assert!(
        single.completed > 1_000,
        "single completed {}",
        single.completed
    );
    let ratio = single.throughput / dist.throughput;
    assert!(
        (1.6..=2.8).contains(&ratio),
        "throughput ratio {ratio:.2} outside the ~2x band ({} vs {})",
        single.throughput,
        dist.throughput
    );
    assert!(
        dist.mean_latency_ms > 1.5 * single.mean_latency_ms,
        "latency {} vs {}",
        dist.mean_latency_ms,
        single.mean_latency_ms
    );
    // The router marked the right transactions distributed.
    assert!(single.distributed_fraction < 0.01);
    assert!(dist.distributed_fraction > 0.99);
}
