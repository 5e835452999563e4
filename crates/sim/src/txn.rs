//! Simulator transaction representation and construction from workload
//! traces + partitioning schemes.

use crate::locks::Key;
use schism_router::Scheme;
use schism_workload::{Trace, Transaction, TupleId, TupleValues};

/// One statement-level operation: a read or write of one row on one server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOp {
    pub server: u32,
    pub key: Key,
    pub write: bool,
}

/// A transaction to execute: ops run sequentially (one statement round-trip
/// each, as a JDBC client would); commit is implicit after the last op —
/// one-phase locally, two-phase when ops span servers.
#[derive(Clone, Debug, Default)]
pub struct SimTxn {
    pub ops: Vec<SimOp>,
}

impl SimTxn {
    /// Distinct participating servers.
    pub fn participants(&self) -> Vec<u32> {
        let mut p: Vec<u32> = self.ops.iter().map(|o| o.server).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// Whether two-phase commit is required.
    pub fn is_distributed(&self) -> bool {
        self.participants().len() > 1
    }

    /// Maps a workload transaction onto servers according to `scheme`.
    ///
    /// Writes touch every replica of a tuple (one op per replica); reads
    /// pick one replica, preferring a server already participating. Ops are
    /// emitted in one global `(table, row)` order, so every transaction
    /// acquires locks in the same total order — deadlock cycles cannot form
    /// (real TPC-C implementations order accesses the same way:
    /// warehouse → district → …).
    pub fn from_transaction(
        txn: &Transaction,
        scheme: &dyn Scheme,
        db: &dyn TupleValues,
    ) -> SimTxn {
        // Merge accesses into (tuple, write) with write winning duplicates.
        let mut accesses: Vec<(TupleId, bool)> = txn
            .writes
            .iter()
            .map(|&t| (t, true))
            .chain(txn.reads.iter().map(|&t| (t, false)))
            .chain(txn.scans.iter().flatten().map(|&t| (t, false)))
            .collect();
        accesses.sort_unstable_by_key(|&(t, w)| (t, !w));
        accesses.dedup_by_key(|&mut (t, _)| t);

        // First pass: writes pin their replica servers.
        let mut used: Vec<u32> = Vec::new();
        for &(t, write) in &accesses {
            if write {
                for server in scheme.locate_tuple(t, db).iter() {
                    if !used.contains(&server) {
                        used.push(server);
                    }
                }
            }
        }
        let mut ops: Vec<SimOp> = Vec::with_capacity(accesses.len());
        for (t, write) in accesses {
            let pset = scheme.locate_tuple(t, db);
            if write {
                for server in pset.iter() {
                    ops.push(SimOp {
                        server,
                        key: (t.table, t.row),
                        write: true,
                    });
                }
            } else {
                let server = pset
                    .iter()
                    .find(|s| used.contains(s))
                    .or_else(|| pset.first())
                    .unwrap_or(0);
                ops.push(SimOp {
                    server,
                    key: (t.table, t.row),
                    write: false,
                });
                if !used.contains(&server) {
                    used.push(server);
                }
            }
        }
        SimTxn { ops }
    }

    /// Maps a whole trace.
    pub fn from_trace(trace: &Trace, scheme: &dyn Scheme, db: &dyn TupleValues) -> Vec<SimTxn> {
        trace
            .transactions
            .iter()
            .map(|t| Self::from_transaction(t, scheme, db))
            .filter(|t| !t.ops.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_router::{HashScheme, ReplicationScheme};
    use schism_workload::{MaterializedDb, TxnBuilder};

    #[test]
    fn replicated_write_fans_out() {
        let scheme = ReplicationScheme::new(3);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.write(TupleId::new(0, 7));
        let st = SimTxn::from_transaction(&b.finish(), &scheme, &db);
        assert_eq!(st.ops.len(), 3);
        assert!(st.is_distributed());
        assert_eq!(st.participants(), vec![0, 1, 2]);
    }

    #[test]
    fn replicated_read_stays_single() {
        let scheme = ReplicationScheme::new(3);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.read(TupleId::new(0, 1)).read(TupleId::new(0, 2));
        let st = SimTxn::from_transaction(&b.finish(), &scheme, &db);
        assert_eq!(st.ops.len(), 2);
        assert!(!st.is_distributed());
    }

    #[test]
    fn read_prefers_write_server() {
        // Write pins server via hash; replicated read must follow it.
        let hash = HashScheme::by_row_id(4);
        let db = MaterializedDb::new();
        let w_server = hash.locate_tuple(TupleId::new(0, 5), &db).first().unwrap();
        let mut b = TxnBuilder::new(false);
        b.write(TupleId::new(0, 5));
        b.read(TupleId::new(0, 5));
        let st = SimTxn::from_transaction(&b.finish(), &hash, &db);
        // Read of the written tuple lands on the same server.
        assert!(st.ops.iter().all(|o| o.server == w_server));
    }
}
