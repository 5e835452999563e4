//! Simulator transaction representation and construction from workload
//! traces + partitioning schemes.

use crate::locks::Key;
use rand::rngs::StdRng;
use rand::Rng;
use schism_router::{PartitionSet, Scheme};
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

    /// One migration copy: read `tuple` on `src`, write it on every server
    /// of `added` (which excludes `src`) — a distributed transaction, which
    /// is the migration's 2PC tax on the cluster. `None` when nothing gains
    /// a copy (a drop-only move puts no bytes on the wire).
    ///
    /// Ops ascend by server — the per-key order foreground replica writes
    /// use ([`from_transaction`](Self::from_transaction) fans a write out
    /// over `pset.iter()`, which ascends) — so a copy and a foreground
    /// write to the same tuple can never acquire its per-server locks in
    /// opposite orders. Emitting the source read first looks natural but
    /// deadlocks: a copy holding `S key@3` waiting on `X key@1` while a
    /// replica write holds `X key@1` waiting on `key@3` is a cycle the
    /// engine can only break by lock timeout, and it re-forms on exactly
    /// the hot tuples a drifted plan moves.
    pub fn copy(tuple: TupleId, src: u32, added: PartitionSet) -> Option<SimTxn> {
        if added.is_empty() {
            return None;
        }
        let key = (tuple.table, tuple.row);
        let mut ops: Vec<SimOp> = added
            .iter()
            .map(|server| SimOp {
                server,
                key,
                write: true,
            })
            .collect();
        ops.push(SimOp {
            server: src,
            key,
            write: false,
        });
        ops.sort_unstable_by_key(|o| o.server);
        Some(SimTxn { ops })
    }
}

/// Supplies transactions to closed-loop clients.
pub trait TxnSource {
    /// Next transaction for `client`.
    fn next_txn(&mut self, client: u32, rng: &mut StdRng) -> SimTxn;
}

/// Draws uniformly (with replacement) from a prebuilt transaction pool, so
/// the offered mix is stationary for the whole run.
pub struct PoolSource {
    pool: Vec<SimTxn>,
}

impl PoolSource {
    pub fn new(pool: Vec<SimTxn>) -> Self {
        assert!(!pool.is_empty(), "empty transaction pool");
        Self { pool }
    }
}

impl TxnSource for PoolSource {
    fn next_txn(&mut self, _client: u32, rng: &mut StdRng) -> SimTxn {
        self.pool[rng.gen_range(0..self.pool.len())].clone()
    }
}

/// Called when a batch has fully issued; returns whether the batch is
/// *acknowledged* (copied, verified, and flipped), allowing the next batch
/// to start. Returning `false` halts injection — the migration paused or
/// aborted, and its remaining traffic must never reach the cluster.
pub type BatchAckFn<'a> = Box<dyn FnMut(usize) -> bool + 'a>;

/// Interleaves live-migration copy traffic with a foreground workload
/// source, one *acknowledged batch* at a time.
///
/// Every `inject_every`-th request (counted across all clients) is taken
/// from the current migration batch instead of the foreground source: a
/// move is a read on the source server plus a write on each destination
/// server — a distributed transaction whenever source and destination
/// differ, which is exactly how the throttled copy traffic of a migration
/// plan taxes the cluster. The rate is the caller's: it is an argument of
/// the two constructors and read nowhere else.
///
/// Batches gate on acknowledgements: when batch `k`'s last move has been
/// issued, the `on_batch_issued` callback fires with `k` — this is where
/// the caller executes the batch against real stores (copy, verify) and
/// flips routing. Batch `k + 1` starts **only if the callback returned
/// `true`**; otherwise injection halts for good. The previous model
/// advanced the moved-set optimistically while a fixed 1-in-N stream
/// drained, so routing could lead the bytes; with the gate, copy traffic is
/// driven by actually executed batches and the moved-set can never lead an
/// acknowledgement. When all batches are acknowledged the source degrades
/// to the foreground workload, so a single simulation run shows throughput
/// dipping during the migration and recovering after it.
pub struct MigrationSource<'a, S: TxnSource> {
    base: S,
    batches: Vec<Vec<SimTxn>>,
    batch: usize,
    pos: usize,
    inject_every: u32,
    since_injection: u32,
    halted: bool,
    on_batch_issued: Option<BatchAckFn<'a>>,
}

impl<S: TxnSource> MigrationSource<'static, S> {
    /// Single unacknowledged batch: the whole queue issues at the throttle
    /// with no execution gate (models a long-running copy stream whose tax
    /// is being measured, not a plan being executed). `inject_every = N`
    /// issues one migration move per `N` foreground transactions
    /// (`N >= 1`; `1` alternates move/foreground).
    pub fn new(base: S, moves: Vec<SimTxn>, inject_every: u32) -> Self {
        Self::batched(base, vec![moves], inject_every, None)
    }
}

impl<'a, S: TxnSource> MigrationSource<'a, S> {
    /// Acknowledgement-gated batches, aligned 1:1 with a migration plan's
    /// batches (the callback argument is the batch index = flip sequence
    /// number). Empty batches (e.g. all drop-only moves) are acknowledged
    /// immediately without issuing traffic, keeping sequence numbers
    /// aligned.
    pub fn batched(
        base: S,
        batches: Vec<Vec<SimTxn>>,
        inject_every: u32,
        on_batch_issued: Option<BatchAckFn<'a>>,
    ) -> Self {
        assert!(inject_every >= 1, "inject_every must be >= 1");
        Self {
            base,
            batches,
            batch: 0,
            pos: 0,
            inject_every,
            since_injection: 0,
            halted: false,
            on_batch_issued,
        }
    }

    /// Moves not yet handed to a client (0 when halted: a halted source
    /// will never issue its remaining moves).
    pub fn remaining_moves(&self) -> usize {
        if self.halted || self.batch >= self.batches.len() {
            return 0;
        }
        (self.batches[self.batch].len() - self.pos)
            + self.batches[self.batch + 1..]
                .iter()
                .map(Vec::len)
                .sum::<usize>()
    }

    /// Whether every batch has been issued and acknowledged.
    pub fn drained(&self) -> bool {
        !self.halted && self.batch == self.batches.len()
    }

    /// Batches fully issued so far (acknowledged or halted-on).
    pub fn batches_issued(&self) -> usize {
        self.batch
    }

    /// Whether a batch acknowledgement came back negative and injection
    /// stopped.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Fires the issued callback for batch `b` and advances past it.
    fn finish_batch(&mut self, b: usize) {
        let acked = match &mut self.on_batch_issued {
            Some(cb) => cb(b),
            None => true,
        };
        self.batch += 1;
        self.pos = 0;
        if !acked {
            self.halted = true;
        }
    }
}

impl<S: TxnSource> TxnSource for MigrationSource<'_, S> {
    fn next_txn(&mut self, client: u32, rng: &mut StdRng) -> SimTxn {
        // Batches with no copy traffic complete (and gate) without
        // consuming an injection slot.
        while !self.halted && self.batch < self.batches.len() && self.batches[self.batch].is_empty()
        {
            self.finish_batch(self.batch);
        }
        if !self.halted && self.batch < self.batches.len() {
            // A move is the (N+1)-th request after N foreground ones, so
            // the documented 1-move-per-N-foreground ratio holds exactly
            // (inject_every = 1 alternates move/foreground).
            if self.since_injection >= self.inject_every {
                self.since_injection = 0;
                let m = self.batches[self.batch][self.pos].clone();
                self.pos += 1;
                if self.pos == self.batches[self.batch].len() {
                    self.finish_batch(self.batch);
                }
                return m;
            }
            self.since_injection += 1;
        }
        self.base.next_txn(client, rng)
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
        let mut b = TxnBuilder::new(false);
        b.write(TupleId::new(0, 5));
        let w_server = hash.locate_tuple(TupleId::new(0, 5), &db).first().unwrap();
        let _ = PartitionSet::empty();
        let mut b2 = TxnBuilder::new(false);
        b2.write(TupleId::new(0, 5));
        b2.read(TupleId::new(0, 5));
        let st = SimTxn::from_transaction(&b2.finish(), &hash, &db);
        // Read of the written tuple lands on the same server.
        assert!(st.ops.iter().all(|o| o.server == w_server));
        let _ = b;
    }

    /// The lock-order rule (a copy's source read used to come first, and
    /// mid-migration p99 sat at the lock timeout): for every source and
    /// every set of receivers over four servers, a copy takes servers in
    /// strictly ascending order with its one read on the source — and a
    /// replicated foreground write to the same key takes the servers the
    /// two share in that same order.
    #[test]
    fn copy_ascends_by_server_like_a_replica_write() {
        const K: u32 = 4;
        let tuple = TupleId::new(0, 7);
        let mut w = TxnBuilder::new(false);
        w.write(tuple);
        let write = SimTxn::from_transaction(
            &w.finish(),
            &ReplicationScheme::new(K),
            &MaterializedDb::new(),
        );
        let write_order: Vec<u32> = write.ops.iter().map(|o| o.server).collect();
        assert_eq!(write_order, (0..K).collect::<Vec<_>>());

        for src in 0..K {
            assert!(SimTxn::copy(tuple, src, PartitionSet::empty()).is_none());
            for mask in 1u32..1 << K {
                if mask & (1 << src) != 0 {
                    continue;
                }
                let added: PartitionSet = (0..K).filter(|s| mask & (1 << s) != 0).collect();
                let copy = SimTxn::copy(tuple, src, added).expect("something gains a copy");
                let servers: Vec<u32> = copy.ops.iter().map(|o| o.server).collect();
                assert!(servers.windows(2).all(|p| p[0] < p[1]), "{servers:?}");
                assert_eq!(servers.len() as u32, added.len() + 1);
                assert!(copy.is_distributed());
                for op in &copy.ops {
                    assert_eq!(op.key, (tuple.table, tuple.row));
                    assert_eq!(op.write, op.server != src, "one read, on the source");
                    assert!(op.server == src || added.contains(op.server));
                }
                let common: Vec<u32> = write_order
                    .iter()
                    .copied()
                    .filter(|s| servers.contains(s))
                    .collect();
                assert_eq!(common, servers, "src {src} added {added:?}");
            }
        }
    }

    #[test]
    fn migration_source_throttles_and_drains() {
        use rand::SeedableRng;
        let fg = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        let mv = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, 9),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, 9),
                    write: true,
                },
            ],
        };
        let mut src =
            MigrationSource::new(PoolSource::new(vec![fg]), vec![mv.clone(), mv.clone()], 3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut moves_seen = 0usize;
        let mut order = Vec::new();
        for _ in 0..12 {
            let t = src.next_txn(0, &mut rng);
            let is_move = t.ops.len() == 2;
            moves_seen += usize::from(is_move);
            order.push(is_move);
        }
        assert_eq!(moves_seen, 2, "queue must drain exactly once: {order:?}");
        assert!(src.drained());
        assert_eq!(src.remaining_moves(), 0);
        // Throttle: exactly 3 foreground transactions precede each move.
        assert_eq!(
            &order[..8],
            &[false, false, false, true, false, false, false, true],
            "{order:?}"
        );
    }

    #[test]
    fn migration_source_inject_one_alternates() {
        use rand::SeedableRng;
        let fg = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        let mv = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, 9),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, 9),
                    write: true,
                },
            ],
        };
        let mut src = MigrationSource::new(PoolSource::new(vec![fg]), vec![mv; 3], 1);
        let mut rng = StdRng::seed_from_u64(0);
        let order: Vec<bool> = (0..6)
            .map(|_| src.next_txn(0, &mut rng).ops.len() == 2)
            .collect();
        assert_eq!(
            order,
            vec![false, true, false, true, false, true],
            "strict alternation"
        );
    }

    #[test]
    fn batched_source_gates_on_acknowledgement() {
        use rand::SeedableRng;
        use std::cell::RefCell;
        let fg = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        // Batch 0 moves rows 10, 11; batch 1 moves row 12 — distinguishable
        // by key so the issue order can be audited.
        let mv = |row: u64| SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, row),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, row),
                    write: true,
                },
            ],
        };
        let acks: RefCell<Vec<usize>> = RefCell::new(Vec::new());
        let mut src = MigrationSource::batched(
            PoolSource::new(vec![fg]),
            vec![vec![mv(10), mv(11)], vec![mv(12)]],
            1,
            Some(Box::new(|b| {
                acks.borrow_mut().push(b);
                true
            })),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut issued_moves = Vec::new();
        for _ in 0..8 {
            let t = src.next_txn(0, &mut rng);
            if t.ops.len() == 2 {
                // Batch 1's move must never be issued before ack(0) fired.
                if t.ops[0].key.1 == 12 {
                    assert_eq!(acks.borrow().first(), Some(&0), "batch 1 led its gate");
                }
                issued_moves.push(t.ops[0].key.1);
            }
        }
        assert_eq!(issued_moves, vec![10, 11, 12]);
        assert_eq!(*acks.borrow(), vec![0, 1]);
        assert!(src.drained());
        assert_eq!(src.batches_issued(), 2);
    }

    #[test]
    fn negative_acknowledgement_halts_injection() {
        use rand::SeedableRng;
        let fg = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        let mv = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, 9),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, 9),
                    write: true,
                },
            ],
        };
        let mut src = MigrationSource::batched(
            PoolSource::new(vec![fg]),
            vec![vec![mv.clone()], vec![mv.clone(), mv]],
            1,
            Some(Box::new(|_| false)), // executor aborted batch 0
        );
        let mut rng = StdRng::seed_from_u64(0);
        let moves: usize = (0..20)
            .filter(|_| src.next_txn(0, &mut rng).ops.len() == 2)
            .count();
        assert_eq!(moves, 1, "only the rejected batch's traffic was issued");
        assert!(src.is_halted());
        assert!(!src.drained(), "a halted migration never drains");
        assert_eq!(
            src.remaining_moves(),
            0,
            "halted source issues nothing more"
        );
    }

    #[test]
    fn empty_batches_acknowledge_without_traffic() {
        use rand::SeedableRng;
        use std::cell::RefCell;
        let fg = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        let mv = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, 9),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, 9),
                    write: true,
                },
            ],
        };
        let acks: RefCell<Vec<usize>> = RefCell::new(Vec::new());
        // Batch 0 is drop-only (no copy txns); batch 1 has one move.
        let mut src = MigrationSource::batched(
            PoolSource::new(vec![fg]),
            vec![vec![], vec![mv]],
            1,
            Some(Box::new(|b| {
                acks.borrow_mut().push(b);
                true
            })),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let moves: usize = (0..6)
            .filter(|_| src.next_txn(0, &mut rng).ops.len() == 2)
            .count();
        assert_eq!(moves, 1);
        assert_eq!(*acks.borrow(), vec![0, 1], "empty batch still sequenced");
        assert!(src.drained());
    }

    #[test]
    fn pool_source_is_stationary() {
        use rand::SeedableRng;
        let pool = vec![
            SimTxn {
                ops: vec![SimOp {
                    server: 0,
                    key: (0, 1),
                    write: false,
                }],
            },
            SimTxn {
                ops: vec![SimOp {
                    server: 1,
                    key: (0, 2),
                    write: false,
                }],
            },
        ];
        let mut src = PoolSource::new(pool);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            let t = src.next_txn(0, &mut rng);
            counts[t.ops[0].server as usize] += 1;
        }
        assert!(counts[0] > 350 && counts[1] > 350, "{counts:?}");
    }
}
