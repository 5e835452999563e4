//! YCSB workloads A and E (Cooper et al., SoCC 2010), as used in §6.1.
//!
//! - **Workload A**: 50/50 single-tuple reads and updates, Zipfian keys.
//!   Every transaction touches one tuple, so any non-replicated scheme has
//!   zero distributed transactions — the experiment exists to show the
//!   validation phase picking plain hash partitioning.
//! - **Workload E**: 95% short scans (uniform length), 5% single-tuple
//!   updates. Scans defeat hash partitioning and reward ranges.

use crate::dist::Zipfian;
use crate::trace::{Trace, Workload};
use crate::tuple::{TupleId, TupleValues};
use crate::txn::TxnBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::sync::Arc;

/// Which core YCSB workload to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50% read / 50% update, one tuple per transaction.
    A,
    /// 95% scan (length uniform in `0..=scan_max`) / 5% update.
    E,
}

/// Zipfian skew: YCSB's default.
const THETA: f64 = 0.99;

/// Generator configuration. Paper parameters: 100k-tuple table, 10k
/// transactions, Zipfian with YCSB's default skew (`THETA`), scan length
/// 0–10 (§6.1).
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    pub workload: YcsbWorkload,
    pub records: u64,
    pub num_txns: usize,
    /// Maximum scan length for workload E.
    pub scan_max: u64,
    pub seed: u64,
}

impl YcsbConfig {
    pub fn workload_a() -> Self {
        Self {
            workload: YcsbWorkload::A,
            records: 100_000,
            num_txns: 10_000,
            scan_max: 10,
            seed: 0,
        }
    }

    pub fn workload_e() -> Self {
        Self {
            workload: YcsbWorkload::E,
            ..Self::workload_a()
        }
    }
}

struct YcsbDb;

impl TupleValues for YcsbDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        match (t.table, col) {
            (0, 0) => Some(t.row as i64),
            _ => None,
        }
    }

    fn tuple_bytes(&self, _table: schism_sql::TableId) -> u32 {
        1_000 // YCSB's 10 x 100-byte fields
    }
}

/// `usertable(ycsb_key, field0)`.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        "usertable",
        &[("ycsb_key", ColumnType::Int), ("field0", ColumnType::Str)],
        &["ycsb_key"],
    );
    s
}

/// Generates the workload.
pub fn generate(cfg: &YcsbConfig) -> Workload {
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = Zipfian::new(cfg.records, THETA);
    let mut stats = AttributeStats::default();
    let mut txns = Vec::with_capacity(cfg.num_txns);

    for _ in 0..cfg.num_txns {
        let mut tb = TxnBuilder::new(false);
        match cfg.workload {
            YcsbWorkload::A => {
                let key = zipf.sample(&mut rng);
                let is_read = rng.gen_bool(0.5);
                let stmt = if is_read {
                    tb.read(TupleId::new(0, key));
                    Statement::select(0, Predicate::Eq(0, Value::Int(key as i64)))
                } else {
                    tb.write(TupleId::new(0, key));
                    Statement::update(0, Predicate::Eq(0, Value::Int(key as i64)))
                };
                stats.observe(&stmt);
            }
            YcsbWorkload::E => {
                if rng.gen_bool(0.95) {
                    let start = zipf.sample(&mut rng);
                    let len = rng.gen_range(0..=cfg.scan_max);
                    let end = (start + len).min(cfg.records - 1);
                    let tuples: Vec<TupleId> = (start..=end).map(|r| TupleId::new(0, r)).collect();
                    tb.scan(tuples);
                    let stmt = Statement::select(
                        0,
                        Predicate::Between(0, Value::Int(start as i64), Value::Int(end as i64)),
                    );
                    stats.observe(&stmt);
                } else {
                    let key = zipf.sample(&mut rng);
                    tb.write(TupleId::new(0, key));
                    let stmt = Statement::update(0, Predicate::Eq(0, Value::Int(key as i64)));
                    stats.observe(&stmt);
                }
            }
        }
        txns.push(tb.finish());
    }

    Workload {
        name: match cfg.workload {
            YcsbWorkload::A => "ycsb-a".to_owned(),
            YcsbWorkload::E => "ycsb-e".to_owned(),
        },
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(YcsbDb),
        table_rows: vec![cfg.records],
        attr_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_a_is_single_tuple() {
        let cfg = YcsbConfig {
            records: 1000,
            num_txns: 2000,
            ..YcsbConfig::workload_a()
        };
        let w = generate(&cfg);
        let mut reads = 0usize;
        let mut writes = 0usize;
        for t in &w.trace.transactions {
            assert_eq!(t.num_accesses(), 1);
            reads += t.reads.len();
            writes += t.writes.len();
        }
        // Roughly 50/50.
        assert!((800..=1200).contains(&reads), "reads {reads}");
        assert!((800..=1200).contains(&writes), "writes {writes}");
    }

    #[test]
    fn workload_e_scans_are_contiguous() {
        let cfg = YcsbConfig {
            records: 1000,
            num_txns: 2000,
            ..YcsbConfig::workload_e()
        };
        let w = generate(&cfg);
        let mut scan_txns = 0usize;
        for t in &w.trace.transactions {
            for s in &t.scans {
                scan_txns += 1;
                for win in s.windows(2) {
                    assert_eq!(win[1].row, win[0].row + 1, "scan must be contiguous");
                }
                assert!(s.len() <= 11);
            }
            assert!(t.writes.len() <= 1);
        }
        assert!(scan_txns > 1200, "too few scans: {scan_txns}");
    }

    #[test]
    fn zipfian_head_is_hot() {
        let cfg = YcsbConfig {
            records: 10_000,
            num_txns: 5000,
            ..YcsbConfig::workload_a()
        };
        let w = generate(&cfg);
        let hot = w
            .trace
            .transactions
            .iter()
            .flat_map(|t| t.accessed())
            .filter(|t| t.row < 100)
            .count();
        assert!(hot > 1000, "zipfian head too cold: {hot}");
    }

    #[test]
    fn stats_name_the_key_column() {
        let cfg = YcsbConfig {
            records: 100,
            num_txns: 100,
            ..YcsbConfig::workload_e()
        };
        let w = generate(&cfg);
        assert_eq!(w.attr_stats.frequent_attributes(0, 0.9), vec![0]);
        assert_eq!(w.name, "ycsb-e");
    }
}
