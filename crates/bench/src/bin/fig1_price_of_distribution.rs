//! **Figure 1 + §3** — "The Price of Distribution".
//!
//! The `simplecount` micro-benchmark: 150 closed-loop clients issue
//! two-point-read transactions against 1..=5 servers, either entirely
//! within one server's range stripe (single partition) or forced across
//! two servers (two-phase commit). The paper reports distributed
//! transactions costing ~2x in throughput and ~2x in latency (3.5 ms vs
//! 6.7 ms at 5 servers).
//!
//! ```text
//! cargo run --release -p schism-bench --bin fig1_price_of_distribution
//! ```

use schism_bench::table::Table;
use schism_router::{PartitionSet, RangeRule, RangeScheme, TablePolicy};
use schism_sim::{run, SimConfig, SimTxn};
use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};

fn main() {
    schism_bench::reject_unknown_args(&["--full"]);
    let full = schism_bench::full_scale();
    let num_txn_pool = if full { 20_000 } else { 5_000 };

    println!("=== Figure 1: throughput of single-partition vs distributed transactions ===");
    println!("(simplecount: 150 clients, two point reads per transaction)\n");

    let mut table = Table::new(&[
        "servers",
        "single-part (txn/s)",
        "distributed (txn/s)",
        "ratio",
        "lat single (ms)",
        "lat dist (ms)",
    ]);

    for servers in 1..=5u32 {
        let mut per_mode = Vec::new();
        for mode in [AccessMode::SinglePartition, AccessMode::Distributed] {
            let wcfg = SimpleCountConfig {
                servers,
                mode,
                num_txns: num_txn_pool,
                ..Default::default()
            };
            let w = simplecount::generate(&wcfg);
            // Ground-truth range striping: stripe s -> partition s.
            let rows = w.total_tuples();
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
            let scheme = RangeScheme::new(
                servers,
                vec![TablePolicy::Rules {
                    rules,
                    default: PartitionSet::single(0),
                }],
            );
            let pool = SimTxn::from_trace(&w.trace, &scheme, &*w.db);
            let cfg = SimConfig::figure1(servers);
            let report = run(&cfg, &pool);
            per_mode.push(report);
        }
        let (single, dist) = (&per_mode[0], &per_mode[1]);
        table.row(vec![
            servers.to_string(),
            format!("{:.0}", single.throughput),
            format!("{:.0}", dist.throughput),
            format!("{:.2}x", single.throughput / dist.throughput.max(1e-9)),
            format!("{:.2}", single.mean_latency_ms),
            format!("{:.2}", dist.mean_latency_ms),
        ]);
    }
    println!("{}", table.render());
    println!("paper: distributed throughput ~0.5x of single-partition at every cluster size;");
    println!("       latency ~2x (3.5 ms single vs 6.7 ms distributed at 5 servers).");
    println!("note:  servers=1 has no distributed mode; both columns coincide there.");
}
