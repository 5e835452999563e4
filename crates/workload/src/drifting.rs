//! A drifting YCSB-style workload for incremental-repartitioning
//! experiments (`schism-migrate`).
//!
//! Keys are grouped into contiguous *blocks* of co-accessed tuples (the
//! moral equivalent of a TPC-C warehouse neighborhood or a YCSB user's
//! working set): every transaction touches 2–4 distinct keys of a single
//! block, so the workload graph decomposes into many small clusters — far
//! more clusters than partitions, which is what makes from-scratch
//! repartitioning scatter data while a warm-started re-run keeps it pinned.
//!
//! Block popularity is Zipfian over a **rotating ranking**: window `w`
//! shifts the hot block by `hot_offset` positions, modeling the hot-key
//! drift of a live service (yesterday's hot users cool down, new ones heat
//! up). Generate one [`Workload`] per window with [`window`], or call
//! [`generate`] with an explicit offset.

use crate::dist::Zipfian;
use crate::trace::{Trace, TraceSource, Workload};
use crate::tuple::{splitmix_pair, TupleId, TupleValues};
use crate::txn::{Transaction, TxnBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::ops::Range;
use std::sync::Arc;

/// Zipfian skew over block ranks.
const THETA: f64 = 0.9;

/// Fraction of accesses that are writes.
const WRITE_FRACTION: f64 = 0.3;

/// Generator configuration. Defaults give 100 blocks of 16 keys with a
/// strong Zipfian head and a 10%-of-keyspace rotation per window.
#[derive(Clone, Debug)]
pub struct DriftingConfig {
    /// Total keys; must be a multiple of `block_span`.
    pub records: u64,
    /// Keys per co-access block.
    pub block_span: u64,
    /// Transactions per generated window.
    pub num_txns: usize,
    /// Blocks the hot spot advances per window (used by [`window`]).
    pub drift_blocks_per_window: u64,
    /// Explicit rotation of the block ranking for this generation.
    pub hot_offset: u64,
    pub seed: u64,
    pub keep_statements: bool,
}

impl Default for DriftingConfig {
    fn default() -> Self {
        Self {
            records: 1_600,
            block_span: 16,
            num_txns: 4_000,
            drift_blocks_per_window: 10,
            hot_offset: 0,
            seed: 0,
            keep_statements: false,
        }
    }
}

impl DriftingConfig {
    pub fn num_blocks(&self) -> u64 {
        self.records / self.block_span
    }
}

struct DriftDb;

impl TupleValues for DriftDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        match (t.table, col) {
            (0, 0) => Some(t.row as i64),
            _ => None,
        }
    }

    fn tuple_bytes(&self, _table: schism_sql::TableId) -> u32 {
        1_000
    }
}

/// `usertable(ycsb_key, field0)`, as in the plain YCSB generator.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        "usertable",
        &[("ycsb_key", ColumnType::Int), ("field0", ColumnType::Str)],
        &["ycsb_key"],
    );
    s
}

/// Generates window `w`: the hot spot sits `w * drift_blocks_per_window`
/// blocks away from window 0's, with a per-window RNG stream.
pub fn window(cfg: &DriftingConfig, w: u64) -> Workload {
    generate(&DriftingConfig {
        hot_offset: (w * cfg.drift_blocks_per_window) % cfg.num_blocks(),
        seed: cfg.seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..cfg.clone()
    })
}

/// Generates one window with the configured `hot_offset`.
pub fn generate(cfg: &DriftingConfig) -> Workload {
    assert!(
        cfg.block_span >= 2,
        "blocks need at least 2 keys to co-access"
    );
    assert_eq!(
        cfg.records % cfg.block_span,
        0,
        "records must be a multiple of block_span"
    );
    let blocks = cfg.num_blocks();
    assert!(blocks >= 1);
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = Zipfian::new(blocks, THETA);
    let mut stats = AttributeStats::default();
    let mut txns = Vec::with_capacity(cfg.num_txns);

    for _ in 0..cfg.num_txns {
        let rank = zipf.sample(&mut rng);
        let block = (rank + cfg.hot_offset) % blocks;
        let base = block * cfg.block_span;
        let mut tb = TxnBuilder::new(cfg.keep_statements);
        let accesses = rng.gen_range(2..=4u32);
        for _ in 0..accesses {
            let key = base + rng.gen_range(0..cfg.block_span);
            let write = rng.gen_bool(WRITE_FRACTION);
            let stmt = if write {
                tb.write(TupleId::new(0, key));
                Statement::update(0, Predicate::Eq(0, Value::Int(key as i64)))
            } else {
                tb.read(TupleId::new(0, key));
                Statement::select(0, Predicate::Eq(0, Value::Int(key as i64)))
            };
            stats.observe(&stmt);
            tb.stmt(move || stmt.clone());
        }
        txns.push(tb.finish());
    }

    Workload {
        name: format!("ycsb-drift@{}", cfg.hot_offset),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(DriftDb),
        table_rows: vec![cfg.records],
        attr_stats: stats,
    }
}

/// Streaming counterpart of [`generate`]: a [`TraceSource`] that produces
/// each transaction on demand from a per-index RNG stream instead of one
/// sequential stream, so any chunk of the trace can be generated
/// independently (and concurrently) without materializing the whole
/// `Vec<Transaction>`.
///
/// The transaction at index `i` is a pure function of `(cfg, i)`; the
/// resulting trace follows the same block/Zipfian/write-fraction
/// distributions as [`generate`] but is a *different* (equally valid)
/// sample, because the batch generator draws from one sequential stream.
/// Statements and [`AttributeStats`] are not produced — the streaming path
/// exists for graph building, which consumes only read/write sets.
pub struct DriftingSource {
    cfg: DriftingConfig,
    zipf: Zipfian,
    blocks: u64,
}

/// Builds the streaming source for one window (same validation as
/// [`generate`]).
pub fn stream(cfg: &DriftingConfig) -> DriftingSource {
    assert!(
        cfg.block_span >= 2,
        "blocks need at least 2 keys to co-access"
    );
    assert_eq!(
        cfg.records % cfg.block_span,
        0,
        "records must be a multiple of block_span"
    );
    let blocks = cfg.num_blocks();
    assert!(blocks >= 1);
    DriftingSource {
        zipf: Zipfian::new(blocks, THETA),
        blocks,
        cfg: cfg.clone(),
    }
}

impl DriftingSource {
    fn txn(&self, idx: usize) -> Transaction {
        let cfg = &self.cfg;
        // One independent RNG seed per transaction index, so `stream`
        // regenerates any chunk's transactions in isolation.
        let mut rng = StdRng::seed_from_u64(splitmix_pair(cfg.seed, idx as u64));
        let rank = self.zipf.sample(&mut rng);
        let block = (rank + cfg.hot_offset) % self.blocks;
        let base = block * cfg.block_span;
        let mut tb = TxnBuilder::new(false);
        let accesses = rng.gen_range(2..=4u32);
        for _ in 0..accesses {
            let key = base + rng.gen_range(0..cfg.block_span);
            if rng.gen_bool(WRITE_FRACTION) {
                tb.write(TupleId::new(0, key));
            } else {
                tb.read(TupleId::new(0, key));
            }
        }
        tb.finish()
    }
}

impl TraceSource for DriftingSource {
    fn len(&self) -> usize {
        self.cfg.num_txns
    }

    fn for_chunk(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &Transaction)) {
        for idx in range {
            let t = self.txn(idx);
            visit(idx, &t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_stay_within_one_block() {
        let cfg = DriftingConfig {
            num_txns: 500,
            ..Default::default()
        };
        let w = generate(&cfg);
        for t in &w.trace.transactions {
            let blocks: Vec<u64> = t.accessed().map(|x| x.row / cfg.block_span).collect();
            assert!(blocks.windows(2).all(|p| p[0] == p[1]), "{blocks:?}");
        }
    }

    #[test]
    fn hot_block_rotates_with_offset() {
        let hottest = |w: &Workload| -> u64 {
            let mut counts = vec![0u64; 100];
            for t in &w.trace.transactions {
                for a in t.accessed() {
                    counts[(a.row / 16) as usize] += 1;
                }
            }
            (0..100).max_by_key(|&b| counts[b as usize]).unwrap()
        };
        let w0 = generate(&DriftingConfig {
            hot_offset: 0,
            ..Default::default()
        });
        let w1 = generate(&DriftingConfig {
            hot_offset: 37,
            ..Default::default()
        });
        assert_eq!(hottest(&w0), 0, "rank-0 block is the head of the zipfian");
        assert_eq!(hottest(&w1), 37, "offset must rotate the head");
    }

    #[test]
    fn window_helper_applies_drift_and_reseeds() {
        let cfg = DriftingConfig::default();
        let w0 = window(&cfg, 0);
        let w2 = window(&cfg, 2);
        assert_eq!(w0.name, "ycsb-drift@0");
        assert_eq!(w2.name, "ycsb-drift@20");
        assert_eq!(w0.trace.len(), w2.trace.len());
    }

    #[test]
    fn stream_is_deterministic_and_chunk_independent() {
        let cfg = DriftingConfig {
            num_txns: 300,
            ..Default::default()
        };
        let src = stream(&cfg);
        assert_eq!(TraceSource::len(&src), 300);
        let whole = src.materialize();
        // Re-streaming in odd chunks yields byte-identical transactions.
        let mut seen = 0usize;
        for start in (0..300).step_by(77) {
            let end = (start + 77).min(300);
            src.for_chunk(start..end, &mut |i, t| {
                assert_eq!(t.reads, whole.transactions[i].reads);
                assert_eq!(t.writes, whole.transactions[i].writes);
                seen += 1;
            });
        }
        assert_eq!(seen, 300);
        // Streamed transactions respect the one-block co-access invariant.
        for t in &whole.transactions {
            let blocks: Vec<u64> = t.accessed().map(|x| x.row / cfg.block_span).collect();
            assert!(blocks.windows(2).all(|p| p[0] == p[1]), "{blocks:?}");
        }
    }

    #[test]
    fn stream_hot_block_rotates_with_offset() {
        let hottest = |t: &Trace| -> u64 {
            let mut counts = vec![0u64; 100];
            for txn in &t.transactions {
                for a in txn.accessed() {
                    counts[(a.row / 16) as usize] += 1;
                }
            }
            (0..100).max_by_key(|&b| counts[b as usize]).unwrap()
        };
        let t0 = stream(&DriftingConfig::default()).materialize();
        let t37 = stream(&DriftingConfig {
            hot_offset: 37,
            ..Default::default()
        })
        .materialize();
        assert_eq!(hottest(&t0), 0);
        assert_eq!(hottest(&t37), 37);
    }

    #[test]
    fn write_fraction_is_respected() {
        let w = generate(&DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        });
        let (mut reads, mut writes) = (0usize, 0usize);
        for t in &w.trace.transactions {
            reads += t.reads.len();
            writes += t.writes.len();
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!(
            (frac - WRITE_FRACTION).abs() < 0.05,
            "write fraction {frac}"
        );
    }
}
