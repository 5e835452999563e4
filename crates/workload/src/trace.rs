//! Workload traces: schema + transactions + tuple-value access, with
//! train/test splitting and chunked streaming via [`TraceSource`].

use crate::tuple::{TupleId, TupleValues};
use crate::txn::Transaction;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use schism_sql::{AttributeStats, Schema, TableId};
use std::ops::Range;
use std::sync::Arc;

/// A source of transactions consumed in contiguous index chunks, so large
/// traces never have to be materialized as one `Vec<Transaction>`.
///
/// This is the ingestion abstraction of the streaming graph builder: pass 1
/// and pass 2 each walk the source in transaction chunks (possibly from
/// several worker threads at once, hence the `Sync` bound), and generators
/// can produce each chunk on demand instead of holding the whole trace in
/// memory.
///
/// # Contract
///
/// A source is an immutable, indexable sequence of [`Transaction`]s:
///
/// - [`TraceSource::for_chunk`] must visit exactly the transactions with
///   global indices in `range`, in ascending order, and the transaction
///   yielded for index `i` must be identical on every call — regardless of
///   how the full range `0..len()` is cut into chunks and regardless of
///   which thread asks. Chunked and whole-trace ingestion are therefore
///   indistinguishable to a consumer, which is what lets the graph builder
///   promise bit-identical output for both.
/// - `len()` is the fixed number of transactions; out-of-range chunks are a
///   caller bug (implementations may panic).
///
/// The in-memory [`Trace`] implements it by slicing; the drifting and TPC-C
/// generators implement it by regenerating transactions per index (see
/// `drifting::stream`, `tpcc::stream`).
pub trait TraceSource: Sync {
    /// Total number of transactions in the source.
    fn len(&self) -> usize;

    /// Whether the source has no transactions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits the transactions with indices in `range`, in ascending index
    /// order, passing each transaction's global index alongside it.
    fn for_chunk(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &Transaction));

    /// Materializes the whole source into an in-memory [`Trace`] (the
    /// whole-trace path; tests use it to pin chunked == whole).
    fn materialize(&self) -> Trace {
        let mut transactions = Vec::with_capacity(self.len());
        self.for_chunk(0..self.len(), &mut |_, t| transactions.push(t.clone()));
        Trace { transactions }
    }
}

impl TraceSource for Trace {
    fn len(&self) -> usize {
        self.transactions.len()
    }

    fn for_chunk(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &Transaction)) {
        let start = range.start;
        for (i, t) in self.transactions[range].iter().enumerate() {
            visit(start + i, t);
        }
    }

    fn materialize(&self) -> Trace {
        self.clone()
    }
}

/// A transaction trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub transactions: Vec<Transaction>,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Randomized split into `(train, test)` with `train_frac` of the
    /// transactions in the training trace. Deterministic per seed; relative
    /// order is preserved within each half.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Trace, Trace) {
        assert!((0.0..=1.0).contains(&train_frac), "fraction out of range");
        let n = self.transactions.len();
        let n_train = ((n as f64) * train_frac).round() as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut train_mask = vec![false; n];
        for &i in &idx[..n_train.min(n)] {
            train_mask[i] = true;
        }
        let mut train = Vec::with_capacity(n_train);
        let mut test = Vec::with_capacity(n - n_train);
        for (i, t) in self.transactions.iter().enumerate() {
            if train_mask[i] {
                train.push(t.clone());
            } else {
                test.push(t.clone());
            }
        }
        (
            Trace {
                transactions: train,
            },
            Trace { transactions: test },
        )
    }

    /// Distinct tuples accessed anywhere in the trace.
    pub fn distinct_tuples(&self) -> Vec<TupleId> {
        let mut all: Vec<TupleId> = self
            .transactions
            .iter()
            .flat_map(|t| t.accessed())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// A complete workload: schema, trace, tuple-value oracle, table sizes, and
/// WHERE-clause statistics — everything the Schism pipeline consumes.
#[derive(Clone)]
pub struct Workload {
    /// Human-readable name (e.g. `"tpcc-2w"`).
    pub name: String,
    pub schema: Arc<Schema>,
    pub trace: Trace,
    /// Attribute-value oracle for the tuples in the trace.
    pub db: Arc<dyn TupleValues>,
    /// Row count per table (dense row-id space), indexed by `TableId`.
    pub table_rows: Vec<u64>,
    /// WHERE-clause usage statistics, accumulated during generation so that
    /// traces do not need to retain statements.
    pub attr_stats: AttributeStats,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("tables", &self.schema.num_tables())
            .field("transactions", &self.trace.len())
            .field("table_rows", &self.table_rows)
            .finish()
    }
}

impl Workload {
    /// Total tuples across all tables.
    pub fn total_tuples(&self) -> u64 {
        self.table_rows.iter().sum()
    }

    /// Rows in one table.
    pub fn rows(&self, table: TableId) -> u64 {
        self.table_rows[table as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnBuilder;

    fn txn(rows: &[u64]) -> Transaction {
        let mut b = TxnBuilder::new(false);
        for &r in rows {
            b.read(TupleId::new(0, r));
        }
        b.finish()
    }

    #[test]
    fn split_is_exhaustive_and_deterministic() {
        let trace = Trace {
            transactions: (0..100).map(|i| txn(&[i])).collect(),
        };
        let (tr1, te1) = trace.split(0.8, 42);
        let (tr2, te2) = trace.split(0.8, 42);
        assert_eq!(tr1.len(), 80);
        assert_eq!(te1.len(), 20);
        assert_eq!(tr1.len() + te1.len(), trace.len());
        // Determinism.
        let ids =
            |t: &Trace| -> Vec<u64> { t.transactions.iter().map(|x| x.reads[0].row).collect() };
        assert_eq!(ids(&tr1), ids(&tr2));
        assert_eq!(ids(&te1), ids(&te2));
        // Disjoint cover.
        let mut all = ids(&tr1);
        all.extend(ids(&te1));
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_edges() {
        let trace = Trace {
            transactions: (0..10).map(|i| txn(&[i])).collect(),
        };
        let (tr, te) = trace.split(1.0, 0);
        assert_eq!((tr.len(), te.len()), (10, 0));
        let (tr, te) = trace.split(0.0, 0);
        assert_eq!((tr.len(), te.len()), (0, 10));
    }

    #[test]
    fn distinct_tuples_dedup_across_txns() {
        let trace = Trace {
            transactions: vec![txn(&[1, 2]), txn(&[2, 3])],
        };
        let d = trace.distinct_tuples();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn trace_source_chunks_cover_in_order() {
        let trace = Trace {
            transactions: (0..10).map(|i| txn(&[i])).collect(),
        };
        // Any chunking yields the same (index, row) sequence as the whole.
        let collect = |chunks: Vec<Range<usize>>| -> Vec<(usize, u64)> {
            let mut out = Vec::new();
            for c in chunks {
                trace.for_chunk(c, &mut |i, t| out.push((i, t.reads[0].row)));
            }
            out
        };
        let mut whole = Vec::new();
        trace.for_chunk(0..10, &mut |i, t| whole.push((i, t.reads[0].row)));
        assert_eq!(whole, (0..10).map(|i| (i as usize, i)).collect::<Vec<_>>());
        assert_eq!(collect(vec![0..3, 3..7, 7..10]), whole);
        assert_eq!(TraceSource::len(&trace), 10);
        assert!(!TraceSource::is_empty(&trace));
    }

    #[test]
    fn trace_source_materialize_roundtrips() {
        let trace = Trace {
            transactions: (0..5).map(|i| txn(&[i, i + 1])).collect(),
        };
        let m = trace.materialize();
        assert_eq!(m.len(), trace.len());
        for (a, b) in m.transactions.iter().zip(&trace.transactions) {
            assert_eq!(a.reads, b.reads);
        }
    }
}
