//! The "impossible to partition" Random workload (§6.1, Appendix D.5):
//! every transaction updates two tuples chosen uniformly at random from a
//! large table. No good partitioning exists; the experiment checks that the
//! validation phase falls back to hash partitioning.

use crate::trace::{Trace, Workload};
use crate::tuple::{TupleId, TupleValues};
use crate::txn::TxnBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::sync::Arc;

/// Generator configuration; the paper uses a 1M-tuple table.
#[derive(Clone, Debug)]
pub struct RandomConfig {
    pub records: u64,
    pub num_txns: usize,
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        Self {
            records: 1_000_000,
            num_txns: 10_000,
            seed: 0,
        }
    }
}

struct RandomDb;

impl TupleValues for RandomDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        match (t.table, col) {
            (0, 0) => Some(t.row as i64),
            _ => None,
        }
    }
}

/// `rtable(id, payload)`.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        "rtable",
        &[("id", ColumnType::Int), ("payload", ColumnType::Str)],
        &["id"],
    );
    s
}

/// Generates the workload.
pub fn generate(cfg: &RandomConfig) -> Workload {
    assert!(cfg.records >= 2);
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = AttributeStats::default();
    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        let a = rng.gen_range(0..cfg.records);
        let mut b = rng.gen_range(0..cfg.records);
        while b == a {
            b = rng.gen_range(0..cfg.records);
        }
        let mut tb = TxnBuilder::new(false);
        for id in [a, b] {
            tb.write(TupleId::new(0, id));
            let stmt = Statement::update(0, Predicate::Eq(0, Value::Int(id as i64)));
            stats.observe(&stmt);
        }
        txns.push(tb.finish());
    }
    Workload {
        name: "random".to_owned(),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(RandomDb),
        table_rows: vec![cfg.records],
        attr_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_txn_writes_two_distinct_tuples() {
        let cfg = RandomConfig {
            records: 1000,
            num_txns: 500,
            ..Default::default()
        };
        let w = generate(&cfg);
        for t in &w.trace.transactions {
            assert_eq!(t.writes.len(), 2);
            assert!(t.reads.is_empty());
            assert_ne!(t.writes[0], t.writes[1]);
        }
    }

    #[test]
    fn accesses_are_spread_out() {
        let cfg = RandomConfig {
            records: 10_000,
            num_txns: 5_000,
            ..Default::default()
        };
        let w = generate(&cfg);
        let distinct = w.trace.distinct_tuples().len();
        // 10k draws over 10k keys: ~63% coverage expected; anything above
        // half rules out accidental clustering.
        assert!(distinct > 5_000, "only {distinct} distinct tuples");
    }
}
