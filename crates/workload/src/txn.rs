//! Transactions: read/write tuple sets plus (optionally) the SQL statements
//! that produced them.
//!
//! The paper's trace extractor (§5.3) turns SQL logs into
//! `(tuple id, transaction)` pairs; graph construction consumes only those
//! read/write sets, while the runtime router consumes statements.
//!
//! Reads coming from *multi-tuple scan statements* are kept in per-statement
//! groups ([`Transaction::scans`]) so Schism's blanket-statement filtering
//! (§5.1) can drop the occasional huge scan from the graph without touching
//! the rest of the transaction. Statement retention is optional because
//! large traces don't need SQL text for partitioning.

use crate::tuple::TupleId;
use schism_sql::Statement;

/// One transaction from a workload trace.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    /// Tuples point-read (sorted, deduplicated; excludes written tuples —
    /// a tuple both read and written appears only in `writes`).
    pub reads: Vec<TupleId>,
    /// Tuples written (sorted, deduplicated).
    pub writes: Vec<TupleId>,
    /// Read sets of multi-tuple scan statements, one group per statement.
    pub scans: Vec<Vec<TupleId>>,
    /// The statements, when the trace was generated with statement
    /// retention.
    pub statements: Vec<Statement>,
}

impl Transaction {
    /// All accessed tuples: point reads, scan reads, then writes.
    /// May contain duplicates across groups (e.g. a tuple both scanned and
    /// point-read); consumers that need a set must dedup.
    pub fn accessed(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.reads
            .iter()
            .copied()
            .chain(self.scans.iter().flatten().copied())
            .chain(self.writes.iter().copied())
    }

    /// Number of accesses (upper bound on distinct tuples).
    pub fn num_accesses(&self) -> usize {
        self.reads.len() + self.scans.iter().map(Vec::len).sum::<usize>() + self.writes.len()
    }
}

/// Incremental builder enforcing the read/write set invariants.
#[derive(Clone, Debug, Default)]
pub struct TxnBuilder {
    reads: Vec<TupleId>,
    writes: Vec<TupleId>,
    scans: Vec<Vec<TupleId>>,
    statements: Vec<Statement>,
    keep_statements: bool,
}

impl TxnBuilder {
    pub fn new(keep_statements: bool) -> Self {
        Self {
            keep_statements,
            ..Self::default()
        }
    }

    /// Records a point read of `t`.
    pub fn read(&mut self, t: TupleId) -> &mut Self {
        self.reads.push(t);
        self
    }

    /// Records a write of `t` (also covers read-modify-write).
    pub fn write(&mut self, t: TupleId) -> &mut Self {
        self.writes.push(t);
        self
    }

    /// Records the read set of one scan statement. Empty and single-tuple
    /// groups degrade to point reads.
    pub fn scan(&mut self, tuples: Vec<TupleId>) -> &mut Self {
        if tuples.len() <= 1 {
            self.reads.extend(tuples);
        } else {
            self.scans.push(tuples);
        }
        self
    }

    /// Records a statement if retention is on (the closure avoids building
    /// SQL objects for discarded statements).
    pub fn stmt(&mut self, s: impl FnOnce() -> Statement) -> &mut Self {
        if self.keep_statements {
            self.statements.push(s());
        }
        self
    }

    /// Finalizes: sorts, dedups, removes read/write overlap (write wins).
    pub fn finish(mut self) -> Transaction {
        self.writes.sort_unstable();
        self.writes.dedup();
        self.reads.sort_unstable();
        self.reads.dedup();
        let writes = &self.writes;
        self.reads.retain(|t| writes.binary_search(t).is_err());
        Transaction {
            reads: self.reads,
            writes: self.writes,
            scans: self.scans,
            statements: self.statements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(table: u16, row: u64) -> TupleId {
        TupleId::new(table, row)
    }

    #[test]
    fn builder_normalizes_sets() {
        let mut b = TxnBuilder::new(false);
        b.read(t(0, 5)).read(t(0, 1)).read(t(0, 5));
        b.write(t(0, 1)).write(t(1, 0));
        let txn = b.finish();
        assert_eq!(txn.reads, vec![t(0, 5)]); // (0,1) promoted to write; dup removed
        assert_eq!(txn.writes, vec![t(0, 1), t(1, 0)]);
        assert_eq!(txn.num_accesses(), 3);
    }

    #[test]
    fn scans_stay_grouped() {
        let mut b = TxnBuilder::new(false);
        b.scan(vec![t(0, 1), t(0, 2), t(0, 3)]);
        b.scan(vec![t(0, 9)]); // single tuple -> point read
        b.scan(vec![]);
        let txn = b.finish();
        assert_eq!(txn.scans.len(), 1);
        assert_eq!(txn.scans[0].len(), 3);
        assert_eq!(txn.reads, vec![t(0, 9)]);
        assert_eq!(txn.num_accesses(), 4);
    }

    #[test]
    fn statement_retention_flag() {
        use schism_sql::{Predicate, Value};
        let mk = || Statement::select(0, Predicate::Eq(0, Value::Int(1)));
        let mut keep = TxnBuilder::new(true);
        keep.stmt(mk);
        assert_eq!(keep.finish().statements.len(), 1);
        let mut drop = TxnBuilder::new(false);
        drop.stmt(mk);
        assert!(drop.finish().statements.is_empty());
    }

    #[test]
    fn accessed_iterates_all_groups() {
        let mut b = TxnBuilder::new(false);
        b.read(t(0, 1)).write(t(0, 2));
        b.scan(vec![t(0, 3), t(0, 4)]);
        let txn = b.finish();
        let mut all: Vec<_> = txn.accessed().collect();
        all.sort_unstable();
        assert_eq!(all, vec![t(0, 1), t(0, 2), t(0, 3), t(0, 4)]);
    }
}
