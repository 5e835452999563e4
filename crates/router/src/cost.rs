//! The cost metric of the whole paper: the number of distributed
//! transactions a scheme induces on a (test) trace (§4.4, §6.1).

use crate::router::route_transaction;
use crate::scheme::Scheme;
use schism_workload::{Trace, TupleValues};

/// Evaluation result for one scheme on one trace.
#[derive(Clone, Debug)]
pub struct CostReport {
    pub total_txns: usize,
    pub distributed_txns: usize,
    /// Sum of participant counts (for mean participants).
    pub total_participants: u64,
    /// Transactions per partition (load balance view), indexed by
    /// partition id.
    pub txns_per_partition: Vec<u64>,
}

impl CostReport {
    /// Fraction of distributed transactions — the paper's y-axis in
    /// Figure 4.
    pub fn distributed_fraction(&self) -> f64 {
        if self.total_txns == 0 {
            0.0
        } else {
            self.distributed_txns as f64 / self.total_txns as f64
        }
    }

    /// Mean participants per transaction.
    pub fn mean_participants(&self) -> f64 {
        if self.total_txns == 0 {
            0.0
        } else {
            self.total_participants as f64 / self.total_txns as f64
        }
    }

    /// Load imbalance across partitions (`max * k / total`), 1.0 = perfect.
    pub fn load_imbalance(&self) -> f64 {
        let total: u64 = self.txns_per_partition.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.txns_per_partition.iter().max().expect("k >= 1");
        max as f64 * self.txns_per_partition.len() as f64 / total as f64
    }
}

/// Counts distributed transactions for `scheme` over `trace`.
pub fn evaluate(scheme: &dyn Scheme, trace: &Trace, db: &dyn TupleValues) -> CostReport {
    let mut report = CostReport {
        total_txns: trace.len(),
        distributed_txns: 0,
        total_participants: 0,
        txns_per_partition: vec![0; scheme.k() as usize],
    };
    for txn in &trace.transactions {
        let p = route_transaction(txn, scheme, db);
        if p.len() > 1 {
            report.distributed_txns += 1;
        }
        report.total_participants += p.len() as u64;
        for part in p.iter() {
            report.txns_per_partition[part as usize] += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashScheme;
    use crate::scheme::ReplicationScheme;
    use schism_workload::random::{self, RandomConfig};
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};

    #[test]
    fn replication_costs_every_write() {
        // Random workload: every transaction is a 2-tuple write, so full
        // replication makes 100% distributed (the paper's worst case).
        let w = random::generate(&RandomConfig {
            records: 1000,
            num_txns: 500,
            ..Default::default()
        });
        let r = evaluate(&ReplicationScheme::new(4), &w.trace, &*w.db);
        assert_eq!(r.distributed_txns, 500);
        assert!((r.distributed_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r.mean_participants(), 4.0);
    }

    #[test]
    fn random_workload_hash_cost_matches_theory() {
        // Two uniform tuples on k=2: P(same partition) = 1/2.
        let w = random::generate(&RandomConfig {
            records: 100_000,
            num_txns: 4_000,
            ..Default::default()
        });
        let r = evaluate(&HashScheme::by_row_id(2), &w.trace, &*w.db);
        let f = r.distributed_fraction();
        assert!((0.45..=0.55).contains(&f), "expected ~0.5, got {f}");
    }

    #[test]
    fn aligned_range_workload_is_local_under_matching_hash() {
        // SimpleCount in single-partition mode + a scheme that maps each
        // range stripe to one partition = zero distributed transactions.
        // Emulate the range scheme with the ground-truth striping.
        use crate::pset::PartitionSet;
        use crate::range::{RangeRule, RangeScheme, TablePolicy};
        let cfg = SimpleCountConfig {
            clients: 10,
            rows_per_client: 100,
            servers: 4,
            mode: AccessMode::SinglePartition,
            num_txns: 1_000,
            ..Default::default()
        };
        let w = simplecount::generate(&cfg);
        let stripe = 1000 / 4;
        let rules: Vec<RangeRule> = (0..4)
            .map(|p| RangeRule {
                conds: vec![(0, (p as i64) * stripe, (p as i64 + 1) * stripe - 1)],
                partitions: PartitionSet::single(p),
            })
            .collect();
        let scheme = RangeScheme::new(
            4,
            vec![TablePolicy::Rules {
                rules,
                default: PartitionSet::single(0),
            }],
        );
        let r = evaluate(&scheme, &w.trace, &*w.db);
        assert_eq!(r.distributed_txns, 0, "aligned scheme must be all-local");
        // And the same scheme on the distributed-mode workload fails hard.
        let w2 = simplecount::generate(&SimpleCountConfig {
            mode: AccessMode::Distributed,
            ..cfg
        });
        let r2 = evaluate(&scheme, &w2.trace, &*w2.db);
        assert!(r2.distributed_fraction() > 0.99);
    }

    #[test]
    fn load_balance_accounting() {
        let w = random::generate(&RandomConfig {
            records: 10_000,
            num_txns: 2_000,
            ..Default::default()
        });
        let r = evaluate(&HashScheme::by_row_id(4), &w.trace, &*w.db);
        assert!(
            r.load_imbalance() < 1.2,
            "hash should balance: {}",
            r.load_imbalance()
        );
        let total: u64 = r.txns_per_partition.iter().sum();
        assert_eq!(total, r.total_participants);
    }
}
