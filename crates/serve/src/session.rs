//! Client sessions: per-statement replica-spreading salts and a
//! read-your-writes guard.
//!
//! A bare [`Server::execute`] derives its replica-pick salt from the
//! statement text, so a client hammering one hot key rereads the same
//! replica every time — correct, but it concentrates load. A [`Session`]
//! derives the salt from its seed and a statement counter instead, so
//! repeated identical statements spread across the key's replica set.
//!
//! The session also remembers every key it has written and pins later
//! reads of those keys to the (possibly promoted) leader. Under the
//! synchronous replication the server implements, any live replica holds
//! every *acknowledged* write — the pin additionally covers the
//! client-visible window around a failure, where a write this session
//! issued may have landed on the leader but not yet been acknowledged.

use crate::server::{ExecOpts, ServeError, ServeOutcome, Server};
use schism_sql::{parse_statement, Statement};
use schism_workload::{splitmix64, TupleId, TupleState};
use std::collections::HashSet;

/// One client's view of a [`Server`]: salted replica picks plus
/// read-your-writes over the keys this session has written.
pub struct Session<'a> {
    server: &'a Server,
    seed: u64,
    counter: u64,
    written: HashSet<TupleId, TupleState>,
    wrote_unpinned: bool,
}

impl<'a> Session<'a> {
    pub(crate) fn new(server: &'a Server, seed: u64) -> Self {
        Self {
            server,
            seed,
            counter: 0,
            written: HashSet::default(),
            wrote_unpinned: false,
        }
    }

    /// Executes one already-parsed statement under this session's
    /// guarantees.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ServeOutcome, ServeError> {
        self.counter = self.counter.wrapping_add(1);
        let opts = ExecOpts {
            salt: Some(splitmix(self.seed ^ self.counter)),
            leader_keys: (!self.written.is_empty()).then_some(&self.written),
            leader_all: self.wrote_unpinned,
        };
        let res = self.server.execute_opts(stmt, opts);
        if stmt.kind.is_write() {
            // Track attempted writes too (not just acknowledged ones): a
            // failed write may have partially applied, and pinning its
            // key to the leader is the conservative read after that.
            match self.server.pinned_tuples(stmt) {
                Some(ts) => self.written.extend(ts),
                None => self.wrote_unpinned = true,
            }
        }
        res
    }

    /// Parses and executes one SQL statement under this session.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ServeOutcome, ServeError> {
        let stmt = parse_statement(self.server.schema(), sql)?;
        self.execute(&stmt)
    }

    /// The keys this session pins to the leader (its write set so far).
    pub fn written(&self) -> &HashSet<TupleId, TupleState> {
        &self.written
    }
}

/// splitmix64: decorrelates `seed ^ counter` into a well-mixed salt, so
/// consecutive statements land on effectively independent replica picks.
fn splitmix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}
