//! The serving front door: parse → classify → view → plan → scatter →
//! gather → ack.
//!
//! [`Server`] is the public API and one driver. Every statement attempt
//! snapshots a view — the active [`Scheme`], the routing db and one
//! [`HealthMap::view`] — asks `plan.rs` (pure routing, promotion and
//! quorum rules over that view) what to send and what must come back,
//! hands each phase to `scatter.rs` (the worker-per-shard queues: the only
//! code that knows threads and channels), marks the shards that failed
//! down, and checks the plan's acks. [`ServeError::Unavailable`] from any
//! of those steps loops back to a fresh view — the one retry loop, bounded
//! by `READ_RETRIES` / `WRITE_RETRIES`.
//!
//! ## Serving across a live migration
//!
//! The active scheme is swappable under traffic
//! ([`Server::install_scheme`]), and a
//! [`VersionedScheme`](schism_router::VersionedScheme) keeps serving
//! correct while a `MigrationExecutor` flips batches underneath:
//!
//! - **Writes** follow the scheme's ordered
//!   [`write_phases`](Scheme::write_phases): all old-epoch copies are
//!   written and acknowledged before any new-epoch pre-copy. Because the
//!   executor re-reads the source during copy *verification*, an
//!   acknowledged write is never lost to a flip — either the verified copy
//!   already contains it, or the phase-1 write lands on the destination
//!   copy after it.
//! - **Point reads** route to one owner and retry (bounded by
//!   `READ_RETRIES`) when a miss coincides with an ownership change —
//!   the flip + post-flip-delete window between routing and execution.
//! - **Scans** fan out to the union route of both epochs; duplicate rows
//!   from not-yet-flipped destination copies are resolved in the gather
//!   step by preferring the shard that currently owns the tuple.
//!
//! Deleting a key that a not-yet-flipped migration batch is about to
//! copy is handled by the executor's tombstone path: a vanished source
//! row propagates as a delete to the destination copies and verification
//! accepts both sides absent, so in-plan DELETEs serve normally
//! mid-migration (`tests/serve_consistency.rs` pins the pass-through).
//!
//! ## Replication, quorums & failover
//!
//! Leader-first quorum-acked writes, salted any-live-replica reads and
//! lowest-live-id promotion are the rules of `plan.rs`; its module docs
//! state them. What this file adds is the failure handling around them.
//! Detection is deterministic and timeout-free: a crashed worker drops
//! its queue receiver (the next send fails) and the task it dies with
//! destroys its reply channel (the gather disconnects). Either signal comes back
//! from the scatter as a failed shard, and the driver marks it **down**
//! in the shared [`HealthMap`] before it checks any ack — the only write
//! the request path makes to the map.
//!
//! Down is not terminal: [`Server::revive_shard`] respawns a dead
//! shard's worker and moves it to **catching up** — it receives every
//! foreground write from that point on (so it misses nothing new) but
//! serves no reads, leads nothing, and counts toward no quorum until a
//! catch-up copy (`schism_migrate::catchup`, reusing the executor's
//! copy → verify machinery against a live replica) flips it back live.
//! Fault injection for all of this lives in [`FaultPlan`], including
//! deterministic revive schedules
//! ([`revive_worker`](FaultPlan::revive_worker)).

use crate::plan::{ask, Phase, Plan, View};
use crate::row::encode_row;
use crate::scatter::{first_copy, Gather, Workers};
use schism_router::{statement_salt, PartitionSet, Scheme};
use schism_sql::{
    parse_statement, ColId, ColumnType, ParseError, Schema, Statement, StatementKind, TableId,
    Value,
};
use schism_store::{FaultPlan, HealthMap, ShardId, ShardStore, StoreError};
use schism_workload::{TupleId, TupleState, TupleValues};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, RwLock};

/// How many times a read re-resolves its owners and goes again: a missing
/// point-read whose owner moved (a scheme flip landed between routing and
/// execution), or any read that lost a shard mid-flight.
const READ_RETRIES: u32 = 3;

/// How many times a write statement redoes itself against the surviving
/// replicas after a shard fails mid-write (puts and deletes are
/// idempotent, so redoing the whole statement is safe).
const WRITE_RETRIES: u32 = 2;

/// Serving failure, typed by layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The SQL text did not parse.
    Parse(ParseError),
    /// There is no row to place: an INSERT that does not pin exactly one
    /// integer key, or a [`load_table`] table or row without a usable
    /// primary key. Statements nothing can prune are not refused; they
    /// broadcast.
    Unroutable { table: TableId, reason: String },
    /// The storage layer failed.
    Store(StoreError),
    /// A stored row failed to decode (corrupt or foreign payload).
    Corrupt { shard: ShardId, tuple: TupleId },
    /// A shard needed by this statement is down (crashed worker or every
    /// replica of a touched tuple gone) and retries were exhausted.
    Unavailable { shard: ShardId },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "{e}"),
            ServeError::Unroutable { table, reason } => {
                write!(f, "unroutable statement on table {table}: {reason}")
            }
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Corrupt { shard, tuple } => {
                write!(f, "row {tuple} on shard {shard} failed to decode")
            }
            ServeError::Unavailable { shard } => {
                write!(
                    f,
                    "shard {shard} is down and no live replica can serve this statement"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl ServeError {
    pub(crate) fn unroutable(table: TableId, reason: &str) -> Self {
        ServeError::Unroutable {
            table,
            reason: reason.to_owned(),
        }
    }
}

/// Server configuration. A statement nothing can prune (a blanket scan, a
/// predicate the scheme cannot use) always executes as a broadcast.
#[derive(Clone, Debug, Default)]
pub struct ServeConfig {
    /// Deterministic worker crashes: each shard worker asks the plan on
    /// every dequeue whether to exit. `None` serves faithfully.
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared failure registry. Pass the map a concurrently running
    /// `MigrationExecutor` consults so serving-detected crashes reroute
    /// its copy sources too; `None` creates a private map.
    pub health: Option<Arc<HealthMap>>,
}

/// Per-call execution options. A [`Session`](crate::Session) uses these
/// to spread its replica picks and to pin reads of keys it has written to
/// the leader (read-your-writes).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ExecOpts<'a> {
    /// Replica-pick salt for point reads. `None` derives one from the
    /// statement text — stable, so a client repeating one hot statement
    /// rereads the same replica; sessions pass a counter-derived salt so
    /// repeats spread across the replica set.
    pub salt: Option<u64>,
    /// Keys whose point reads must go to the (possibly promoted) leader.
    pub leader_keys: Option<&'a HashSet<TupleId, TupleState>>,
    /// Pin every read to the leader (the caller wrote through a statement
    /// it could not key-pin, so any key may be dirty).
    pub leader_all: bool,
}

impl ExecOpts<'_> {
    /// Whether a read of `t` must be answered by its leader.
    fn pins(&self, t: TupleId) -> bool {
        self.leader_all || self.leader_keys.is_some_and(|keys| keys.contains(&t))
    }
}

/// How a served statement was routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// One shard.
    Point,
    /// A strict subset of shards.
    Multi,
    /// Every shard.
    Broadcast,
}

/// Per-request observability.
#[derive(Clone, Copy, Debug)]
pub struct RequestMetrics {
    pub route: RouteKind,
    /// Distinct shards this request touched (0 when routing proved the
    /// result empty without any shard work).
    pub shards_touched: u32,
    /// Longest time any sub-request waited in a shard queue, microseconds.
    pub queue_us: u64,
    /// Longest shard-local execution time, microseconds.
    pub exec_us: u64,
    /// Rounds sent again after the first: a point read chasing an
    /// ownership change, or any statement redone after a shard failed.
    pub retries: u32,
}

/// A served statement's result.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Matching rows (SELECT), decoded, in tuple order.
    pub rows: Vec<(TupleId, Vec<Value>)>,
    /// Distinct logical rows written or deleted (writes).
    pub affected: u64,
    pub metrics: RequestMetrics,
}

/// [`TupleValues`] view for serve workloads, where each table's single
/// integer primary key *is* the dense row id (`TupleId::row` = pk value).
/// Attribute-hash and lookup schemes route with this identity without
/// materializing any rows.
pub struct PkValues {
    key_cols: Vec<Option<ColId>>,
}

impl PkValues {
    pub fn from_schema(schema: &Schema) -> Self {
        Self {
            key_cols: pk_cols(schema),
        }
    }
}

impl TupleValues for PkValues {
    fn value(&self, t: TupleId, col: ColId) -> Option<i64> {
        match self.key_cols.get(t.table as usize).copied().flatten() {
            Some(k) if k == col => i64::try_from(t.row).ok(),
            _ => None,
        }
    }
}

/// Per-table single-column integer primary key, when one exists — the
/// column point routing pins on.
fn pk_cols(schema: &Schema) -> Vec<Option<ColId>> {
    schema
        .tables()
        .map(|(_, t)| match t.primary_key.as_slice() {
            [c] if t.column(*c).ty == ColumnType::Int => Some(*c),
            _ => None,
        })
        .collect()
}

/// The storable tuple id of primary-key value `v`: integers ≥ 0 only.
fn key_tuple(table: TableId, v: &Value) -> Option<TupleId> {
    let row = u64::try_from(v.as_int()?).ok()?;
    Some(TupleId::new(table, row))
}

/// Loads `rows` into `store` under `scheme`: each row's tuple id is its
/// primary-key value and every copy in the scheme's copy set receives the
/// encoded payload. Returns physical rows written.
///
/// A `table` without a single integer primary key, or a row whose key
/// value is missing or not a non-negative integer, is
/// [`ServeError::Unroutable`]; rows before the offending one stay loaded.
pub fn load_table(
    store: &dyn ShardStore,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    schema: &Schema,
    table: TableId,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Result<u64, ServeError> {
    let refuse = |reason| ServeError::unroutable(table, reason);
    let key = pk_cols(schema)
        .get(table as usize)
        .copied()
        .flatten()
        .ok_or_else(|| refuse("load_table requires a single integer primary key"))?;
    let mut written = 0u64;
    for row in rows {
        let t = row
            .get(key as usize)
            .and_then(|v| key_tuple(table, v))
            .ok_or_else(|| refuse("a loaded row's primary key must be a non-negative integer"))?;
        let payload = encode_row(&row);
        for shard in scheme.locate_tuple(t, db).iter() {
            store.put(shard, t, payload.clone())?;
            written += 1;
        }
    }
    Ok(written)
}

/// The serving front door. Dropping the server closes every shard queue
/// and joins the workers (clean shutdown).
pub struct Server {
    schema: Arc<Schema>,
    // Every statement attempt holds this read guard until its last reply
    // (see `view`), so a swap waits out the attempts on the old scheme.
    // Nothing that can panic runs under the write guard, so the `expect`s
    // on this lock only trip on a bug in this file.
    scheme: RwLock<Arc<dyn Scheme>>,
    db: Arc<dyn TupleValues>,
    key_cols: Vec<Option<ColId>>,
    health: Arc<HealthMap>,
    workers: Workers,
}

impl Server {
    /// Starts one worker per shard of `store`. `scheme` is the initially
    /// active scheme; `db` is the attribute view routing consults (usually
    /// [`PkValues`]).
    pub fn new(
        schema: Arc<Schema>,
        store: Arc<dyn ShardStore>,
        scheme: Arc<dyn Scheme>,
        db: Arc<dyn TupleValues>,
        cfg: ServeConfig,
    ) -> Self {
        Self {
            key_cols: pk_cols(&schema),
            workers: Workers::start(store, Arc::clone(&schema), cfg.faults),
            schema,
            scheme: RwLock::new(scheme),
            db,
            health: cfg.health.unwrap_or_default(),
        }
    }

    /// Respawns the worker of a shard that is currently marked
    /// [`Down`](schism_store::HealthState::Down) and transitions it to
    /// [`CatchingUp`](schism_store::HealthState::CatchingUp): from this
    /// call on the shard receives every foreground write (so it misses
    /// nothing new) but serves no reads and counts toward no quorum. Run
    /// a catch-up copy (`schism_migrate::catchup`) and
    /// [`HealthMap::mark_live`] to return it to full membership. Returns
    /// `false` (and spawns nothing) unless the shard is strictly down.
    pub fn revive_shard(&self, shard: ShardId) -> bool {
        // The fresh queue is swapped in before health flips, so a write
        // routed at the catching-up shard always finds the new worker.
        self.health.is_down(shard)
            && self.workers.respawn(shard)
            && self.health.begin_catch_up(shard)
    }

    /// Swaps the active scheme under live traffic. Returns once every
    /// statement attempt routed on the old scheme has had its last reply,
    /// so no attempt outlives the scheme it routed with; the next attempt
    /// routes with `scheme`.
    pub fn install_scheme(&self, scheme: Arc<dyn Scheme>) {
        *self.scheme.write().expect("scheme lock poisoned") = scheme;
    }

    /// Snapshot of the active scheme.
    pub fn scheme(&self) -> Arc<dyn Scheme> {
        Arc::clone(&self.scheme.read().expect("scheme lock poisoned"))
    }

    /// The schema this server validates statements against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The shard-store backend the workers execute against. Shared with
    /// catch-up copies (`schism_migrate::catchup`) and chaos harnesses —
    /// a worker crash never loses the backend, only the worker.
    pub fn store(&self) -> &Arc<dyn ShardStore> {
        &self.workers.store
    }

    /// The attribute view routing consults (the `db` passed to
    /// [`new`](Self::new)) — catch-up planning needs the same view the
    /// server routes with.
    pub fn routing_db(&self) -> &Arc<dyn TupleValues> {
        &self.db
    }

    /// The shared liveness registry: the `Live / Down / CatchingUp` state
    /// of every shard this server routes around.
    pub fn health(&self) -> &Arc<HealthMap> {
        &self.health
    }

    /// How many distinct shard failures this server has absorbed.
    pub fn failovers(&self) -> u64 {
        self.health.failures()
    }

    /// How many shards have completed a catch-up and rejoined.
    pub fn rejoins(&self) -> u64 {
        self.health.rejoins()
    }

    /// The shard leading `t` right now under the active scheme and
    /// failure state: the scheme's leader when live, else the promoted
    /// member ([`Unavailable`](ServeError::Unavailable) when the whole
    /// replica set is down).
    pub fn current_leader(&self, t: TupleId) -> Result<ShardId, ServeError> {
        self.view().leader(t)
    }

    /// Opens a client session: per-statement salted replica picks plus a
    /// read-your-writes guard over the keys the session writes.
    pub fn session(&self, seed: u64) -> crate::session::Session<'_> {
        crate::session::Session::new(self, seed)
    }

    /// Parses and executes one SQL statement.
    pub fn execute_sql(&self, sql: &str) -> Result<ServeOutcome, ServeError> {
        self.execute(&parse_statement(&self.schema, sql)?)
    }

    /// Executes one already-parsed statement.
    pub fn execute(&self, stmt: &Statement) -> Result<ServeOutcome, ServeError> {
        self.execute_opts(stmt, ExecOpts::default())
    }

    /// Executes one already-parsed statement with explicit [`ExecOpts`].
    pub(crate) fn execute_opts(
        &self,
        stmt: &Statement,
        opts: ExecOpts<'_>,
    ) -> Result<ServeOutcome, ServeError> {
        let pinned = self.pinned_tuples(stmt);
        if stmt.kind == StatementKind::Insert {
            // One new row, placed at every copy the scheme assigns its key.
            let refusal = match pinned.as_deref() {
                Some([_]) => None,
                None => Some("INSERT does not set an integer primary key"),
                Some(_) => {
                    Some("INSERT must pin exactly one non-negative integer primary key value")
                }
            };
            if let Some(reason) = refusal {
                return Err(ServeError::unroutable(stmt.table, reason));
            }
        }
        let stmt = &Arc::new(stmt.clone());
        match (stmt.kind, pinned) {
            (StatementKind::Select, Some(tuples)) => self.point_read(stmt, tuples, opts),
            (StatementKind::Select, None) => self.scan_read(stmt, opts),
            (_, pinned) => self.write(stmt, pinned.as_deref()),
        }
    }

    /// The tuple ids a statement pins on its table's integer primary key,
    /// when it pins any (sorted, deduplicated; negative and non-integer
    /// key values address no storable row and drop out). Sessions use
    /// this to track which keys a statement wrote.
    pub(crate) fn pinned_tuples(&self, stmt: &Statement) -> Option<Vec<TupleId>> {
        let key = self.key_cols.get(stmt.table as usize).copied().flatten()?;
        let vals = stmt.predicate.pinned_values(key)?;
        let mut tuples: Vec<TupleId> = vals
            .iter()
            .filter_map(|v| key_tuple(stmt.table, v))
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        Some(tuples)
    }

    /// What one statement attempt decides against: the active scheme, held
    /// under its read guard until the attempt drops the view, and the
    /// liveness of every shard, each read exactly once. An attempt takes
    /// no second view: a read queued behind a waiting
    /// [`install_scheme`](Self::install_scheme) would deadlock.
    fn view(&self) -> View<'_> {
        View {
            scheme: self.scheme.read().expect("scheme lock poisoned"),
            db: &*self.db,
            health: self.health.view(),
        }
    }

    /// The one retry loop. Every statement is a sequence of attempts, each
    /// under a fresh [`View`] and told how many went before it. An attempt
    /// that comes back [`ServeError::Unavailable`] — refused by the plan,
    /// or a shard failed under it and is marked down by now — goes again
    /// against the survivors until `limit` retries are spent; `Ok(None)`
    /// asks for another round without having failed.
    fn retry(
        &self,
        limit: u32,
        mut attempt: impl FnMut(&View<'_>, u32) -> Result<Option<ServeOutcome>, ServeError>,
    ) -> Result<ServeOutcome, ServeError> {
        let mut retries = 0u32;
        loop {
            match attempt(&self.view(), retries) {
                Ok(Some(out)) => return Ok(out),
                Ok(None) => {}
                Err(ServeError::Unavailable { .. }) if retries < limit => {}
                Err(e) => return Err(e),
            }
            retries += 1;
        }
    }

    /// Scatters `plan`'s phases in order, each fully gathered into `g`
    /// before the next is sent, marks every shard that failed under one
    /// down, and checks the plan's acks against the shards that applied.
    fn run(&self, stmt: &Arc<Statement>, mut plan: Plan, g: &mut Gather) -> Result<(), ServeError> {
        let strict = plan.acks.is_none();
        let mut applied = PartitionSet::empty();
        for phase in plan.phases.drain(..) {
            let round = self.workers.scatter(stmt, phase, g);
            for shard in round.failed.iter() {
                self.health.mark_down(shard);
            }
            applied.union_with(&round.into_applied(strict)?);
        }
        plan.acked(&applied)
    }

    /// UPDATE / DELETE / INSERT: per-tuple ordered write phases when the
    /// statement pins keys, the scheme's statement-level phases when it
    /// does not. A replica that dies mid-write leaves the statement
    /// unacknowledged; puts and deletes are idempotent, so redoing the
    /// whole statement against the survivors is safe.
    fn write(
        &self,
        stmt: &Arc<Statement>,
        pinned: Option<&[TupleId]>,
    ) -> Result<ServeOutcome, ServeError> {
        self.retry(WRITE_RETRIES, |view, retries| {
            let plan = match pinned {
                Some(tuples) => view.write_tuples(tuples)?,
                None => view.scan_write(stmt)?,
            };
            let mut g = Gather::default();
            self.run(stmt, plan, &mut g)?;
            Ok(Some(g.into_outcome(None, retries, first_copy)))
        })
    }

    /// Unpinned SELECT. A scan that lost a shard mid-flight may hold
    /// partial rows, so every attempt gathers the whole scan afresh.
    fn scan_read(
        &self,
        stmt: &Arc<Statement>,
        opts: ExecOpts<'_>,
    ) -> Result<ServeOutcome, ServeError> {
        let salt = opts.salt.unwrap_or_else(|| statement_salt(stmt));
        self.retry(READ_RETRIES, |view, retries| {
            let plan = view.scan_read(stmt, salt)?;
            let route = plan.route;
            let mut g = Gather::default();
            self.run(stmt, plan, &mut g)?;
            let rank = |t, shard| view.copy_rank(opts.pins(t), t, shard);
            Ok(Some(g.into_outcome(route, retries, rank)))
        })
    }

    /// Key-pinned SELECT: each tuple is asked of one live currently-owning
    /// replica (the leader, for read-your-writes-pinned keys) and leaves
    /// `pending` once a row came back, so one gather spans every round and
    /// never holds two copies of a tuple.
    fn point_read(
        &self,
        stmt: &Arc<Statement>,
        tuples: Vec<TupleId>,
        opts: ExecOpts<'_>,
    ) -> Result<ServeOutcome, ServeError> {
        let salt = opts.salt.unwrap_or_else(|| statement_salt(stmt));
        // Each unanswered tuple, with the owner that last answered "no
        // such row" (`None`: not asked yet, or the shard asked failed).
        let mut pending: Vec<(TupleId, Option<ShardId>)> =
            tuples.into_iter().map(|t| (t, None)).collect();
        let mut g = Gather::default();
        self.retry(READ_RETRIES, |view, retries| {
            let mut phase = Phase::new();
            let mut asked = Vec::with_capacity(pending.len());
            for &(t, missed_at) in &pending {
                let owner = match view.read_owner(t, salt, opts.pins(t)) {
                    Ok(owner) if missed_at != Some(owner) => owner,
                    Err(e) if missed_at.is_none() => return Err(e),
                    // A miss is retried only when the owner moved between
                    // routing and execution (a flip landed); a stable
                    // owner means the row is genuinely absent (or
                    // filtered out by the predicate).
                    _ => continue,
                };
                ask(&mut phase, owner, t);
                asked.push((t, owner));
            }
            if phase.is_empty() {
                // Nothing left to ask: what is gathered is the answer,
                // and this attempt sent no retry round.
                let sent = retries.saturating_sub(1);
                return Ok(Some(
                    std::mem::take(&mut g).into_outcome(None, sent, first_copy),
                ));
            }
            let round = self.run(stmt, Plan::strict(phase, None), &mut g);
            let answered = g.answered();
            asked.retain(|(t, _)| !answered.contains(t));
            // Every tuple a failed round still owes is re-resolved against
            // the survivors without the owner-moved filter: its owner
            // genuinely changes, to a promoted or re-picked live copy.
            pending = asked
                .into_iter()
                .map(|(t, owner)| (t, round.is_ok().then_some(owner)))
                .collect();
            round?;
            let done = pending.is_empty() || retries >= READ_RETRIES;
            Ok(done.then(|| std::mem::take(&mut g).into_outcome(None, retries, first_copy)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::decode_row;
    use schism_router::{HashScheme, ReplicatedScheme, ReplicationScheme};
    use schism_store::MemStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_table(
            "account",
            &[
                ("id", ColumnType::Int),
                ("name", ColumnType::Str),
                ("bal", ColumnType::Int),
            ],
            &["id"],
        );
        Arc::new(s)
    }

    fn fixture(k: u32, rows: u64) -> (Server, Arc<MemStore>, Arc<dyn Scheme>) {
        let schema = schema();
        let store = Arc::new(MemStore::new(k));
        let scheme: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(k, vec![Some(0)]));
        let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
        load_table(
            &*store,
            &*scheme,
            &*db,
            &schema,
            0,
            (0..rows).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("acct-{i}")),
                    Value::Int(100 + i as i64),
                ]
            }),
        )
        .unwrap();
        let server = Server::new(
            schema,
            store.clone() as Arc<dyn ShardStore>,
            Arc::clone(&scheme),
            db,
            ServeConfig::default(),
        );
        (server, store, scheme)
    }

    #[test]
    fn point_select_roundtrips() {
        let (server, _, _) = fixture(4, 32);
        let out = server
            .execute_sql("SELECT * FROM account WHERE id = 7")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].0, TupleId::new(0, 7));
        assert_eq!(
            out.rows[0].1,
            vec![Value::Int(7), Value::Str("acct-7".into()), Value::Int(107)]
        );
        assert_eq!(out.metrics.route, RouteKind::Point);
        assert_eq!(out.metrics.shards_touched, 1);
        // Missing key: empty result, not an error.
        let miss = server
            .execute_sql("SELECT * FROM account WHERE id = 999")
            .unwrap();
        assert!(miss.rows.is_empty());
    }

    #[test]
    fn insert_update_delete_lifecycle() {
        let (server, _, _) = fixture(4, 8);
        let ins = server
            .execute_sql("INSERT INTO account (id, name, bal) VALUES (100, 'zoe', 5)")
            .unwrap();
        assert_eq!(ins.affected, 1);
        assert_eq!(ins.metrics.route, RouteKind::Point);
        let upd = server
            .execute_sql("UPDATE account SET bal = 42 WHERE id = 100")
            .unwrap();
        assert_eq!(upd.affected, 1);
        let got = server
            .execute_sql("SELECT * FROM account WHERE id = 100")
            .unwrap();
        assert_eq!(
            got.rows[0].1,
            vec![Value::Int(100), Value::Str("zoe".into()), Value::Int(42)]
        );
        let del = server
            .execute_sql("DELETE FROM account WHERE id = 100")
            .unwrap();
        assert_eq!(del.affected, 1);
        let gone = server
            .execute_sql("SELECT * FROM account WHERE id = 100")
            .unwrap();
        assert!(gone.rows.is_empty());
    }

    #[test]
    fn in_list_fans_out_and_orders_rows() {
        let (server, _, _) = fixture(4, 32);
        let out = server
            .execute_sql("SELECT * FROM account WHERE id IN (9, 1, 25, 1)")
            .unwrap();
        let ids: Vec<u64> = out.rows.iter().map(|(t, _)| t.row).collect();
        assert_eq!(ids, vec![1, 9, 25], "tuple order, deduplicated");
        assert!(out.metrics.shards_touched >= 1);
    }

    #[test]
    fn scan_with_range_predicate_broadcasts_and_filters() {
        let (server, _, _) = fixture(4, 32);
        let out = server
            .execute_sql("SELECT * FROM account WHERE bal >= 125")
            .unwrap();
        assert_eq!(out.rows.len(), 7, "bal 125..=131 -> ids 25..=31");
        assert_eq!(out.metrics.route, RouteKind::Broadcast);
        assert_eq!(out.metrics.shards_touched, 4);
    }

    #[test]
    fn scan_update_applies_set_everywhere() {
        let (server, _, _) = fixture(2, 16);
        let out = server
            .execute_sql("UPDATE account SET bal = 0 WHERE bal > 107")
            .unwrap();
        assert_eq!(out.affected, 8, "ids 8..=15");
        let check = server
            .execute_sql("SELECT * FROM account WHERE bal = 0")
            .unwrap();
        assert_eq!(check.rows.len(), 8);
    }

    #[test]
    fn parse_and_insert_errors_are_typed() {
        let (server, _, _) = fixture(2, 4);
        assert!(matches!(
            server.execute_sql("FROB account").unwrap_err(),
            ServeError::Parse(_)
        ));
        assert!(matches!(
            server
                .execute_sql("INSERT INTO account (name) VALUES ('nokey')")
                .unwrap_err(),
            ServeError::Unroutable { .. }
        ));
        assert!(matches!(
            server
                .execute_sql("INSERT INTO account (id, name) VALUES (-3, 'neg')")
                .unwrap_err(),
            ServeError::Unroutable { .. }
        ));
    }

    #[test]
    fn replicated_reads_pick_one_replica_and_writes_hit_all() {
        let schema = schema();
        let store = Arc::new(MemStore::new(3));
        let scheme: Arc<dyn Scheme> = Arc::new(ReplicationScheme::new(3));
        let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
        load_table(
            &*store,
            &*scheme,
            &*db,
            &schema,
            0,
            (0..4u64).map(|i| vec![Value::Int(i as i64), Value::Null, Value::Int(0)]),
        )
        .unwrap();
        let server = Server::new(
            schema,
            store.clone() as Arc<dyn ShardStore>,
            scheme,
            db,
            ServeConfig::default(),
        );
        let w = server
            .execute_sql("UPDATE account SET bal = 9 WHERE id = 2")
            .unwrap();
        assert_eq!(w.affected, 1, "one logical row");
        assert_eq!(w.metrics.shards_touched, 3, "every replica written");
        let r = server
            .execute_sql("SELECT * FROM account WHERE id = 2")
            .unwrap();
        assert_eq!(r.metrics.shards_touched, 1, "one replica read");
        assert_eq!(r.rows[0].1[2], Value::Int(9));
        // All three physical copies converged.
        for shard in 0..3 {
            let bytes = store.get(shard, TupleId::new(0, 2)).unwrap().unwrap();
            assert_eq!(decode_row(&bytes).unwrap()[2], Value::Int(9));
        }
    }

    #[test]
    fn install_scheme_swaps_routing_under_traffic() {
        let (server, store, _) = fixture(2, 8);
        // Re-place everything by hand under a k=2 row-id hash, then swap.
        let schema = server.schema().clone();
        let db = PkValues::from_schema(&schema);
        let next: Arc<dyn Scheme> = Arc::new(HashScheme::by_row_id(2));
        for t in (0..8u64).map(|r| TupleId::new(0, r)) {
            let old_shard = server.scheme().locate_tuple(t, &db).first().unwrap();
            let bytes = store.get(old_shard, t).unwrap().unwrap();
            let new_shard = next.locate_tuple(t, &db).first().unwrap();
            if new_shard != old_shard {
                store.put(new_shard, t, bytes).unwrap();
                store.delete(old_shard, t).unwrap();
            }
        }
        server.install_scheme(Arc::clone(&next));
        assert_eq!(server.scheme().name(), next.name());
        for id in 0..8 {
            let out = server
                .execute_sql(&format!("SELECT * FROM account WHERE id = {id}"))
                .unwrap();
            assert_eq!(out.rows.len(), 1, "id {id} served after swap");
        }
    }

    fn replicated_fixture(
        k: u32,
        rf: u32,
        rows: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> (Server, Arc<MemStore>, Arc<dyn Scheme>) {
        let schema = schema();
        let store = Arc::new(MemStore::new(k));
        let scheme: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(
            rf,
            Arc::new(HashScheme::by_attrs(k, vec![Some(0)])),
        ));
        let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
        load_table(
            &*store,
            &*scheme,
            &*db,
            &schema,
            0,
            (0..rows).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("acct-{i}")),
                    Value::Int(100 + i as i64),
                ]
            }),
        )
        .unwrap();
        let server = Server::new(
            schema,
            store.clone() as Arc<dyn ShardStore>,
            Arc::clone(&scheme),
            db,
            ServeConfig {
                faults,
                ..ServeConfig::default()
            },
        );
        (server, store, scheme)
    }

    #[test]
    fn leader_crash_fails_over_writes_and_reads() {
        // Key 5's leader crashes on its first dequeue; its ring follower
        // absorbs the write and is promoted.
        let probe_schema = schema();
        let db = PkValues::from_schema(&probe_schema);
        let probe: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(
            2,
            Arc::new(HashScheme::by_attrs(4, vec![Some(0)])),
        ));
        let t = TupleId::new(0, 5);
        let rs = probe.replica_set(t, &db);
        let plan = Arc::new(FaultPlan::default().crash_worker(rs.leader, 1));
        let (server, _, _) = replicated_fixture(4, 2, 16, Some(plan));
        let out = server
            .execute_sql("UPDATE account SET bal = 777 WHERE id = 5")
            .unwrap();
        assert_eq!(out.affected, 1);
        assert!(out.metrics.retries >= 1, "write retried after the crash");
        assert_eq!(server.failovers(), 1);
        assert!(server.health().view().down.contains(rs.leader));
        let promoted = server.current_leader(t).unwrap();
        assert_ne!(promoted, rs.leader);
        assert!(rs.followers.contains(promoted));
        // The acknowledged write survives the failover.
        let r = server
            .execute_sql("SELECT * FROM account WHERE id = 5")
            .unwrap();
        assert_eq!(r.rows[0].1[2], Value::Int(777));
    }

    #[test]
    fn session_salts_spread_replica_reads() {
        // rf = k = 3: every shard holds every key, so the dequeue counters
        // are a clean per-replica request histogram.
        let plan = Arc::new(FaultPlan::default());
        let (server, _, _) = replicated_fixture(3, 3, 8, Some(Arc::clone(&plan)));
        let mut session = server.session(42);
        for _ in 0..300 {
            let out = session
                .execute_sql("SELECT * FROM account WHERE id = 5")
                .unwrap();
            assert_eq!(out.rows.len(), 1);
        }
        let counts: Vec<u64> = (0..3).map(|s| plan.dequeued(s)).collect();
        assert!(
            counts.iter().all(|&c| c >= 40),
            "session reads must spread across replicas: {counts:?}"
        );
        // A bare execute reuses the statement-derived salt: one replica
        // soaks the whole hot-key load (the skew bench_serve had).
        let before: Vec<u64> = (0..3).map(|s| plan.dequeued(s)).collect();
        for _ in 0..50 {
            server
                .execute_sql("SELECT * FROM account WHERE id = 5")
                .unwrap();
        }
        let hot: Vec<u64> = (0..3u32)
            .map(|s| plan.dequeued(s) - before[s as usize])
            .collect();
        assert_eq!(hot.iter().filter(|&&d| d > 0).count(), 1, "{hot:?}");
        assert_eq!(hot.iter().sum::<u64>(), 50);
    }

    #[test]
    fn session_reads_its_writes_from_the_leader() {
        let (server, store, scheme) = replicated_fixture(4, 2, 8, None);
        let db = PkValues::from_schema(server.schema());
        let t = TupleId::new(0, 3);
        let rs = scheme.replica_set(t, &db);
        let mut session = server.session(9);
        session
            .execute_sql("UPDATE account SET bal = 55 WHERE id = 3")
            .unwrap();
        assert!(session.written().contains(&t));
        // Simulate a lagging replica: clobber the follower's copy with
        // stale bytes. The session must keep answering from the leader no
        // matter how its per-statement salt falls.
        let follower = rs.followers.first().unwrap();
        let stale = encode_row(&[Value::Int(3), Value::Str("acct-3".into()), Value::Int(103)]);
        store.put(follower, t, stale).unwrap();
        for _ in 0..32 {
            let out = session
                .execute_sql("SELECT * FROM account WHERE id = 3")
                .unwrap();
            assert_eq!(out.rows[0].1[2], Value::Int(55), "read-your-writes");
        }
    }

    #[test]
    fn scans_survive_a_dead_shard_via_replicas() {
        // Shard 1 crashes on its first dequeue; rf = 2 keeps every tuple
        // covered by a ring neighbour, so the broadcast scan still sees
        // every row after one retry.
        let plan = Arc::new(FaultPlan::default().crash_worker(1, 1));
        let (server, _, _) = replicated_fixture(4, 2, 24, Some(plan));
        let out = server
            .execute_sql("SELECT * FROM account WHERE bal >= 100")
            .unwrap();
        assert_eq!(out.rows.len(), 24, "no row lost to the dead shard");
        assert!(out.metrics.retries >= 1);
        assert!(server.health().view().down.contains(1));
        // Point reads of the dead shard's keys reroute to replicas too.
        for id in 0..24 {
            let r = server
                .execute_sql(&format!("SELECT * FROM account WHERE id = {id}"))
                .unwrap();
            assert_eq!(r.rows.len(), 1, "id {id} served after the crash");
        }
    }

    #[test]
    fn statement_fails_unavailable_when_every_replica_is_down() {
        let plan = Arc::new(FaultPlan::default().crash_worker(0, 1).crash_worker(1, 1));
        let (server, _, _) = replicated_fixture(2, 2, 4, Some(plan));
        let err = server
            .execute_sql("UPDATE account SET bal = 1 WHERE id = 0")
            .unwrap_err();
        assert!(matches!(err, ServeError::Unavailable { .. }), "{err}");
        let err = server
            .execute_sql("SELECT * FROM account WHERE id = 0")
            .unwrap_err();
        assert!(matches!(err, ServeError::Unavailable { .. }), "{err}");
        assert_eq!(server.failovers(), 2);
        assert!(server.current_leader(TupleId::new(0, 0)).is_err());
    }

    #[test]
    fn metrics_report_latency_components() {
        let (server, _, _) = fixture(2, 16);
        let out = server
            .execute_sql("SELECT * FROM account WHERE id = 3")
            .unwrap();
        // Sanity only: timers are monotonic micros, not guaranteed > 0.
        assert!(out.metrics.exec_us < 10_000_000);
        assert_eq!(out.metrics.retries, 0);
    }

    #[test]
    fn load_table_rejects_unroutable_input_without_panicking() {
        let schema = schema();
        let store = MemStore::new(2);
        let scheme = HashScheme::by_attrs(2, vec![Some(0)]);
        let db = PkValues::from_schema(&schema);
        let load = |schema: &Schema, row: Vec<Value>| {
            load_table(&store, &scheme, &db, schema, 0, std::iter::once(row))
        };
        let rest = || [Value::Str("x".into()), Value::Int(1)];
        let bad_rows = [
            vec![],
            [Value::Int(-1)].into_iter().chain(rest()).collect(),
            [Value::Str("7".into())].into_iter().chain(rest()).collect(),
            [Value::Null].into_iter().chain(rest()).collect(),
        ];
        for row in bad_rows {
            let err = load(&schema, row.clone()).unwrap_err();
            assert!(
                matches!(err, ServeError::Unroutable { table: 0, .. }),
                "{row:?}: {err}"
            );
        }
        // No single integer primary key: string pk, composite pk, no table.
        let mut keyless = Schema::new();
        keyless.add_table("s", &[("name", ColumnType::Str)], &["name"]);
        keyless.add_table(
            "c",
            &[("a", ColumnType::Int), ("b", ColumnType::Int)],
            &["a", "b"],
        );
        for table in 0..3 {
            let rows = std::iter::once(vec![Value::Int(1), Value::Int(2)]);
            let err = load_table(&store, &scheme, &db, &keyless, table, rows).unwrap_err();
            assert!(matches!(err, ServeError::Unroutable { .. }), "{err}");
        }
        assert_eq!(
            store.stats(0).unwrap().rows + store.stats(1).unwrap().rows,
            0
        );
        // A good row after all that still loads.
        let good = [Value::Int(7)].into_iter().chain(rest()).collect();
        assert_eq!(load(&schema, good), Ok(1));
    }

    #[test]
    fn a_miss_under_a_stable_owner_is_not_a_retry() {
        let (server, _, _) = fixture(4, 8);
        let miss = server
            .execute_sql("SELECT * FROM account WHERE id = 999")
            .unwrap();
        assert!(miss.rows.is_empty());
        assert_eq!(miss.metrics.shards_touched, 1);
        assert_eq!(miss.metrics.retries, 0);
        // A key that addresses no storable row asks no shard at all.
        let none = server
            .execute_sql("SELECT * FROM account WHERE id = -4")
            .unwrap();
        assert!(none.rows.is_empty());
        assert_eq!(none.metrics.shards_touched, 0);
        assert_eq!(none.metrics.retries, 0);
    }

    /// Delegates to an inner scheme, counting every call the server makes.
    struct Counting {
        inner: Arc<dyn Scheme>,
        calls: AtomicU64,
    }

    impl Counting {
        fn count<T>(&self, call: impl FnOnce(&dyn Scheme) -> T) -> T {
            self.calls.fetch_add(1, Ordering::Relaxed);
            call(&*self.inner)
        }
    }

    impl Scheme for Counting {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn k(&self) -> u32 {
            self.inner.k()
        }
        fn complexity(&self) -> schism_router::Complexity {
            self.inner.complexity()
        }
        fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
            self.count(|s| s.locate_tuple(t, db))
        }
        fn route_statement(&self, stmt: &Statement) -> schism_router::Route {
            self.count(|s| s.route_statement(stmt))
        }
        fn route_predicate_salted(
            &self,
            stmt: &Statement,
            salt: u64,
        ) -> schism_router::RouteDecision {
            self.count(|s| s.route_predicate_salted(stmt, salt))
        }
        fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> schism_router::ReplicaSet {
            self.count(|s| s.replica_set(t, db))
        }
        fn route_read_fallback(
            &self,
            stmt: &Statement,
            down: &PartitionSet,
        ) -> Option<PartitionSet> {
            self.count(|s| s.route_read_fallback(stmt, down))
        }
        fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
            self.count(|s| s.write_phases(t, db))
        }
        fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
            self.count(|s| s.route_write_phases(stmt))
        }
    }

    #[test]
    fn key_pinned_statements_route_each_tuple_once() {
        let (server, _, scheme) = replicated_fixture(4, 2, 16, None);
        let counting = Arc::new(Counting {
            inner: scheme,
            calls: Default::default(),
        });
        server.install_scheme(Arc::clone(&counting) as Arc<dyn Scheme>);
        let calls_of = |sql: &str, rows: usize| {
            let before = counting.calls.load(Ordering::Relaxed);
            let out = server.execute_sql(sql).unwrap();
            assert_eq!(out.rows.len() + out.affected as usize, rows, "{sql}");
            counting.calls.load(Ordering::Relaxed) - before
        };
        let select = calls_of("SELECT * FROM account WHERE id = 3", 1);
        assert_eq!(select, 1, "one-key SELECT: locate_tuple");
        let update = calls_of("UPDATE account SET bal = 1 WHERE id = 3", 1);
        assert_eq!(update, 2, "one-key UPDATE: replica_set + write_phases");
        let multi = calls_of("SELECT * FROM account WHERE id IN (1, 2, 3)", 3);
        assert_eq!(multi, 3, "three-key IN: one locate_tuple per key");
        // A miss re-resolves its owner once (did a flip move it?) and a
        // session's read-your-writes read asks for the leader: one call each
        // on top of the first.
        assert_eq!(calls_of("SELECT * FROM account WHERE id = 999", 0), 2);
        let mut session = server.session(1);
        session
            .execute_sql("UPDATE account SET bal = 2 WHERE id = 3")
            .unwrap();
        let before = counting.calls.load(Ordering::Relaxed);
        session
            .execute_sql("SELECT * FROM account WHERE id = 3")
            .unwrap();
        let pinned = counting.calls.load(Ordering::Relaxed) - before;
        assert_eq!(pinned, 1, "leader-pinned SELECT: replica_set");
    }
}
