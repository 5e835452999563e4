//! The `simplecount` micro-benchmark from §3 ("The Price of Distribution").
//!
//! One table with `id` and `counter` columns; every transaction reads two
//! rows with point SELECTs. Two access modes reproduce the paper's two
//! configurations: both reads on one server's key range, or forced across
//! two servers (requiring two-phase commit in the real system).

use crate::trace::{Trace, Workload};
use crate::tuple::{TupleId, TupleValues};
use crate::txn::TxnBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::sync::Arc;

/// Which partitioning stress mode to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// Both keys fall in the same server's contiguous key range.
    SinglePartition,
    /// The two keys fall in two different servers' ranges.
    Distributed,
}

/// Generator configuration; defaults follow Appendix A (150 clients × 1k
/// rows = 150k rows).
#[derive(Clone, Debug)]
pub struct SimpleCountConfig {
    pub clients: u64,
    pub rows_per_client: u64,
    /// Number of servers the id space is range-striped over.
    pub servers: u32,
    pub mode: AccessMode,
    /// Probability that an access is an UPDATE instead of a SELECT (the
    /// paper "ran similar experiments for update transactions", §3).
    pub update_fraction: f64,
    pub num_txns: usize,
    pub seed: u64,
}

impl Default for SimpleCountConfig {
    fn default() -> Self {
        Self {
            clients: 150,
            rows_per_client: 1_000,
            servers: 2,
            mode: AccessMode::SinglePartition,
            update_fraction: 0.0,
            num_txns: 10_000,
            seed: 0,
        }
    }
}

struct SimpleCountDb;

impl TupleValues for SimpleCountDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        match (t.table, col) {
            (0, 0) => Some(t.row as i64), // id == row
            _ => None,
        }
    }

    fn tuple_bytes(&self, _table: schism_sql::TableId) -> u32 {
        16 // two ints
    }
}

/// Builds the schema: `simplecount(id, counter)`.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        "simplecount",
        &[("id", ColumnType::Int), ("counter", ColumnType::Int)],
        &["id"],
    );
    s
}

/// Generates the workload.
pub fn generate(cfg: &SimpleCountConfig) -> Workload {
    assert!(cfg.servers >= 1);
    let rows = cfg.clients * cfg.rows_per_client;
    assert!(
        rows >= 2 * cfg.servers as u64,
        "need at least 2 rows per server"
    );
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let range = rows / cfg.servers as u64;
    let mut txns = Vec::with_capacity(cfg.num_txns);
    let mut stats = AttributeStats::default();

    for _ in 0..cfg.num_txns {
        let (a, b) = match cfg.mode {
            AccessMode::SinglePartition => {
                let s = rng.gen_range(0..cfg.servers) as u64;
                let base = s * range;
                let a = base + rng.gen_range(0..range);
                let mut b = base + rng.gen_range(0..range);
                while b == a {
                    b = base + rng.gen_range(0..range);
                }
                (a, b)
            }
            AccessMode::Distributed => {
                let s1 = rng.gen_range(0..cfg.servers);
                let s2 = if cfg.servers == 1 {
                    s1
                } else {
                    (s1 + rng.gen_range(1..cfg.servers)) % cfg.servers
                };
                let a = s1 as u64 * range + rng.gen_range(0..range);
                let b = s2 as u64 * range + rng.gen_range(0..range);
                (a, b)
            }
        };
        let mut tb = TxnBuilder::new(false);
        for id in [a, b] {
            let stmt = if cfg.update_fraction > 0.0 && rng.gen_bool(cfg.update_fraction) {
                tb.write(TupleId::new(0, id));
                Statement::update(0, Predicate::Eq(0, Value::Int(id as i64)))
            } else {
                tb.read(TupleId::new(0, id));
                Statement::select(0, Predicate::Eq(0, Value::Int(id as i64)))
            };
            stats.observe(&stmt);
        }
        txns.push(tb.finish());
    }

    Workload {
        name: format!(
            "simplecount-{}srv-{}",
            cfg.servers,
            match cfg.mode {
                AccessMode::SinglePartition => "local",
                AccessMode::Distributed => "distributed",
            }
        ),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(SimpleCountDb),
        table_rows: vec![rows],
        attr_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_mode_stays_in_range() {
        let cfg = SimpleCountConfig {
            clients: 10,
            rows_per_client: 100,
            servers: 4,
            num_txns: 500,
            ..Default::default()
        };
        let w = generate(&cfg);
        assert_eq!(w.total_tuples(), 1000);
        let range = 1000 / 4;
        for t in &w.trace.transactions {
            assert_eq!(t.reads.len(), 2);
            let s0 = t.reads[0].row / range;
            let s1 = t.reads[1].row / range;
            assert_eq!(s0, s1, "both reads must hit one server range");
        }
    }

    #[test]
    fn distributed_mode_crosses_ranges() {
        let cfg = SimpleCountConfig {
            clients: 10,
            rows_per_client: 100,
            servers: 4,
            mode: AccessMode::Distributed,
            num_txns: 500,
            ..Default::default()
        };
        let w = generate(&cfg);
        for t in &w.trace.transactions {
            let range = 1000 / 4;
            let s0 = t.reads[0].row / range;
            let s1 = t.reads[1].row / range;
            assert_ne!(s0, s1, "reads must span two server ranges");
        }
    }

    #[test]
    fn db_oracle_and_stats() {
        let cfg = SimpleCountConfig {
            clients: 2,
            rows_per_client: 10,
            servers: 1,
            num_txns: 50,
            ..Default::default()
        };
        let w = generate(&cfg);
        assert_eq!(w.db.value(TupleId::new(0, 7), 0), Some(7));
        assert_eq!(w.db.value(TupleId::new(0, 7), 1), None);
        // Every statement constrains `id`.
        assert_eq!(w.attr_stats.frequent_attributes(0, 0.9), vec![0]);
        assert_eq!(w.attr_stats.table_count(0), 2 * 50);
    }

    #[test]
    fn determinism() {
        let cfg = SimpleCountConfig {
            num_txns: 100,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        for (x, y) in a.trace.transactions.iter().zip(&b.trace.transactions) {
            assert_eq!(x.reads, y.reads);
        }
    }
}
