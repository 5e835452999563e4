//! Scatter / gather over the worker-per-shard queues — the only module in
//! this crate that knows threads and channels.
//!
//! [`Workers`] owns one thread per shard, each draining a bounded request
//! queue against its shard of the [`ShardStore`] — the same shared-nothing
//! execution model the work-sharing pool in `schism-par` uses, specialized
//! to long-lived per-shard queues so shard-local execution never contends
//! across shards. [`Workers::scatter`] is the one function that sends
//! [`Task`]s: one per shard of a [`Phase`], in ascending shard order, then
//! every reply folded into a [`Gather`].
//!
//! Failure detection is channel-structural, never timed: a crashed
//! worker's queue rejects the send, and a worker that dies with a task
//! destroys its reply sender, so the gather loop terminates with
//! that shard missing from the replies. `scatter` only *reports* both as
//! [`Scattered::failed`]; what a failure means — mark the shard down, fail
//! the statement or count a quorum without it — is the caller's decision
//! (`server.rs` and the ack rules in `plan.rs`).

use crate::plan::Phase;
use crate::row::{decode_row, encode_row};
use crate::server::{RequestMetrics, RouteKind, ServeError, ServeOutcome};
use schism_router::PartitionSet;
use schism_sql::{Schema, Statement, StatementKind, Value};
use schism_store::{FaultPlan, ShardId, ShardStore, StoreError};
use schism_workload::{TupleId, TupleState};
use std::collections::{BTreeMap, HashSet};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bound of each per-shard request queue; senders block when a queue is
/// full (closed-loop backpressure instead of unbounded buffering).
const QUEUE_CAPACITY: usize = 1024;

/// What one shard returns for one task.
#[derive(Default)]
struct ShardOutput {
    rows: Vec<(TupleId, Vec<Value>)>,
    wrote: Vec<TupleId>,
}

struct ShardReply {
    shard: ShardId,
    queue_us: u64,
    exec_us: u64,
    result: Result<ShardOutput, ServeError>,
}

/// One unit of shard-local work.
struct Task {
    stmt: Arc<Statement>,
    /// Tuples to touch on this shard; `None` scans the statement's table.
    tuples: Option<Vec<TupleId>>,
    enqueued: Instant,
    resp: Sender<ShardReply>,
}

/// What one scatter round observed, per shard.
#[derive(Default)]
pub(crate) struct Scattered {
    /// Shards that replied `Ok`.
    pub applied: PartitionSet,
    /// Shards that failed structurally: their queue rejected the send, or
    /// their task died without a reply.
    pub failed: PartitionSet,
    /// The lowest shard whose queue rejected the send, if any did.
    rejected: Option<ShardId>,
    /// The first unknown-shard or error reply, if any.
    error: Option<ServeError>,
}

impl Scattered {
    /// Folds the round into the shards that applied, or its first error.
    /// An error reply always fails the round. `strict` callers (reads and
    /// scans, which need every task answered) also turn a failed shard
    /// into [`ServeError::Unavailable`], in the precedence a client has
    /// always seen: rejected send, then first error reply, then missing
    /// reply. Quorum writes pass `false` and count `applied` themselves.
    pub fn into_applied(self, strict: bool) -> Result<PartitionSet, ServeError> {
        let down = |shard| ServeError::Unavailable { shard };
        let (rejected, silent) = if strict {
            (self.rejected, self.failed.first())
        } else {
            (None, None)
        };
        match rejected.map(down).or(self.error).or(silent.map(down)) {
            Some(e) => Err(e),
            None => Ok(self.applied),
        }
    }
}

/// The shard workers: one thread and one bounded queue per shard.
/// Dropping it closes every queue and joins the threads.
pub(crate) struct Workers {
    /// The backend every worker executes against; kept so
    /// [`respawn`](Self::respawn) can start a worker over the same one.
    pub store: Arc<dyn ShardStore>,
    schema: Arc<Schema>,
    faults: Option<Arc<FaultPlan>>,
    // Both locks guard plain `Vec` pushes and slot swaps that cannot
    // panic midway, so poisoning can only follow a bug in this file.
    queues: RwLock<Vec<SyncSender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Workers {
    /// Starts one worker per shard of `store`.
    pub fn start(
        store: Arc<dyn ShardStore>,
        schema: Arc<Schema>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let (queues, handles) = (0..store.num_shards())
            .map(|shard| spawn_worker(shard, &store, &schema, &faults))
            .unzip();
        Self {
            store,
            schema,
            faults,
            queues: RwLock::new(queues),
            handles: Mutex::new(handles),
        }
    }

    /// Replaces the (dead) worker of `shard` with a fresh thread and
    /// queue. Returns `false` for a shard this store does not have.
    pub fn respawn(&self, shard: ShardId) -> bool {
        if shard as usize >= self.queues.read().expect("queue lock poisoned").len() {
            return false;
        }
        let (queue, handle) = spawn_worker(shard, &self.store, &self.schema, &self.faults);
        self.queues.write().expect("queue lock poisoned")[shard as usize] = queue;
        self.handles
            .lock()
            .expect("handle lock poisoned")
            .push(handle);
        true
    }

    /// Sends one task per shard of `phase` (ascending) and gathers every
    /// reply into `g`. All replies are drained even after an error, so
    /// worker queues never hold dangling response channels.
    pub fn scatter(&self, stmt: &Arc<Statement>, phase: Phase, g: &mut Gather) -> Scattered {
        let mut out = Scattered::default();
        if phase.is_empty() {
            return out;
        }
        let (tx, rx) = channel();
        let mut sent = PartitionSet::empty();
        {
            let queues = self.queues.read().expect("queue lock poisoned");
            for (shard, tuples) in phase {
                let Some(queue) = queues.get(shard as usize) else {
                    out.error
                        .get_or_insert(ServeError::Store(StoreError::NoSuchShard(shard)));
                    continue;
                };
                let task = Task {
                    stmt: Arc::clone(stmt),
                    tuples,
                    enqueued: Instant::now(),
                    resp: tx.clone(),
                };
                if queue.send(task).is_ok() {
                    sent.insert(shard);
                } else {
                    out.rejected.get_or_insert(shard);
                    out.failed.insert(shard);
                }
            }
        }
        drop(tx);
        let mut replied = PartitionSet::empty();
        // Terminates when every task-held sender clone is gone — replied
        // to, or destroyed by a crashed worker.
        for reply in rx.iter() {
            replied.insert(reply.shard);
            g.queue_us = g.queue_us.max(reply.queue_us);
            g.exec_us = g.exec_us.max(reply.exec_us);
            match reply.result {
                Ok(done) => {
                    out.applied.insert(reply.shard);
                    g.raw_rows
                        .extend(done.rows.into_iter().map(|(t, r)| (reply.shard, t, r)));
                    g.wrote.extend(done.wrote);
                }
                Err(e) => {
                    out.error.get_or_insert(e);
                }
            }
        }
        g.replied.union_with(&replied);
        out.failed.union_with(&sent.difference(&replied));
        out
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closing the queues lets each worker drain and exit; joining
        // makes shutdown observable (no detached threads left behind).
        // `Drop` must not panic, so a poisoned lock is skipped, not
        // unwrapped.
        if let Ok(queues) = self.queues.get_mut() {
            queues.clear();
        }
        if let Ok(handles) = self.handles.get_mut() {
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Scatter-gather accumulator across one or more scatter rounds.
#[derive(Default)]
pub(crate) struct Gather {
    raw_rows: Vec<(ShardId, TupleId, Vec<Value>)>,
    wrote: HashSet<TupleId, TupleState>,
    replied: PartitionSet,
    queue_us: u64,
    exec_us: u64,
}

impl Gather {
    /// The tuples some shard has returned a row for so far.
    pub fn answered(&self) -> HashSet<TupleId, TupleState> {
        self.raw_rows.iter().map(|(_, t, _)| *t).collect()
    }

    /// The statement's outcome from everything gathered: distinct rows
    /// written, and the rows read in tuple order. Duplicate copies of a
    /// tuple (replicas, or a not-yet-flipped migration pre-copy) resolve
    /// to the highest-`rank` copy, first one winning ties — see
    /// `View::copy_rank` for the ordering scans use. `route` defaults to
    /// what the reply count shows.
    pub fn into_outcome(
        self,
        route: Option<RouteKind>,
        retries: u32,
        rank: impl Fn(TupleId, ShardId) -> u8,
    ) -> ServeOutcome {
        let shards_touched = self.replied.len();
        let by_count = match shards_touched {
            0 | 1 => RouteKind::Point,
            _ => RouteKind::Multi,
        };
        let mut best: BTreeMap<TupleId, (u8, Vec<Value>)> = BTreeMap::new();
        for (shard, t, row) in self.raw_rows {
            let r = rank(t, shard);
            match best.get(&t) {
                Some((held, _)) if *held >= r => {}
                _ => {
                    best.insert(t, (r, row));
                }
            }
        }
        ServeOutcome {
            rows: best.into_iter().map(|(t, (_, row))| (t, row)).collect(),
            affected: self.wrote.len() as u64,
            metrics: RequestMetrics {
                route: route.unwrap_or(by_count),
                shards_touched,
                queue_us: self.queue_us,
                exec_us: self.exec_us,
                retries,
            },
        }
    }
}

/// The rank of a gather that cannot hold two copies of one tuple (writes
/// return no rows; a point read asks each tuple of one shard at a time).
pub(crate) fn first_copy(_: TupleId, _: ShardId) -> u8 {
    0
}

/// Spawns one shard worker and returns its queue sender and join handle.
fn spawn_worker(
    shard: ShardId,
    store: &Arc<dyn ShardStore>,
    schema: &Arc<Schema>,
    faults: &Option<Arc<FaultPlan>>,
) -> (SyncSender<Task>, JoinHandle<()>) {
    let (tx, rx) = sync_channel(QUEUE_CAPACITY);
    let store = Arc::clone(store);
    let schema = Arc::clone(schema);
    let faults = faults.clone();
    // Spawning fails only when the OS is out of threads, and a shard
    // without a worker has no degraded mode to fall back to.
    let handle = std::thread::Builder::new()
        .name(format!("serve-shard-{shard}"))
        .spawn(move || run_worker(shard, &*store, &schema, &rx, faults))
        .expect("spawn shard worker");
    (tx, handle)
}

fn run_worker(
    shard: ShardId,
    store: &dyn ShardStore,
    schema: &Schema,
    rx: &Receiver<Task>,
    faults: Option<Arc<FaultPlan>>,
) {
    while let Ok(task) = rx.recv() {
        // A crash returns, dropping `rx` (future sends to this shard fail)
        // and `task` (its reply sender disconnects) — the two structural
        // signals the gatherer reports as a failed shard.
        if faults.as_deref().is_some_and(|f| f.on_dequeue(shard)) {
            return;
        }
        let queue_us = task.enqueued.elapsed().as_micros() as u64;
        let started = Instant::now();
        let result = execute_on_shard(shard, store, schema, &task.stmt, task.tuples.as_deref());
        let exec_us = started.elapsed().as_micros() as u64;
        // A gatherer that gave up (error elsewhere) may have dropped the
        // receiver; that is not the worker's problem.
        let _ = task.resp.send(ShardReply {
            shard,
            queue_us,
            exec_us,
            result,
        });
    }
}

/// Shard-local execution of one statement over either a routed tuple list
/// or a table scan.
fn execute_on_shard(
    shard: ShardId,
    store: &dyn ShardStore,
    schema: &Schema,
    stmt: &Statement,
    tuples: Option<&[TupleId]>,
) -> Result<ShardOutput, ServeError> {
    let width = schema.table(stmt.table).columns.len();
    let mut out = ShardOutput::default();
    if stmt.kind == StatementKind::Insert {
        let row = insert_row(schema, stmt);
        let payload = encode_row(&row);
        for &t in tuples.unwrap_or(&[]) {
            store.put(shard, t, payload.clone())?;
            out.wrote.push(t);
        }
        return Ok(out);
    }
    let candidates: Vec<(TupleId, Vec<u8>)> = match tuples {
        Some(ts) => {
            let mut v = Vec::with_capacity(ts.len());
            for &t in ts {
                if let Some(bytes) = store.get(shard, t)? {
                    v.push((t, bytes));
                }
            }
            v
        }
        None => store.scan_range(shard, stmt.table, 0..u64::MAX)?,
    };
    for (t, bytes) in candidates {
        let row = match decode_row(&bytes) {
            Some(r) if r.len() == width => r,
            _ => return Err(ServeError::Corrupt { shard, tuple: t }),
        };
        if !stmt.predicate.matches(&row) {
            continue;
        }
        match stmt.kind {
            StatementKind::Select => out.rows.push((t, row)),
            StatementKind::Update => {
                let mut row = row;
                for (c, v) in &stmt.set {
                    row[*c as usize] = v.clone();
                }
                store.put(shard, t, encode_row(&row))?;
                out.wrote.push(t);
            }
            StatementKind::Delete => {
                store.delete(shard, t)?;
                out.wrote.push(t);
            }
            StatementKind::Insert => unreachable!("handled above"),
        }
    }
    Ok(out)
}

/// Materializes an INSERT's full-width row: unset columns are NULL.
fn insert_row(schema: &Schema, stmt: &Statement) -> Vec<Value> {
    let mut row = vec![Value::Null; schema.table(stmt.table).columns.len()];
    for (c, v) in stmt.insert_values() {
        row[c as usize] = v;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_reads_strictly_or_leniently_in_the_documented_precedence() {
        let round = |rejected: Option<ShardId>, error: bool, silent: &[ShardId]| Scattered {
            applied: PartitionSet::single(0),
            failed: silent.iter().copied().chain(rejected).collect(),
            rejected,
            error: error.then_some(ServeError::Store(StoreError::NoSuchShard(9))),
        };
        let down = |shard| Err(ServeError::Unavailable { shard });
        let hard = Err(ServeError::Store(StoreError::NoSuchShard(9)));
        let clean = Ok(PartitionSet::single(0));
        // Strict: rejected send, then first error reply, then missing reply.
        assert_eq!(round(Some(3), true, &[1]).into_applied(true), down(3));
        assert_eq!(round(None, true, &[1]).into_applied(true), hard);
        assert_eq!(round(None, false, &[2, 1]).into_applied(true), down(1));
        assert_eq!(round(None, false, &[]).into_applied(true), clean);
        // Lenient: failed shards are the caller's to count; errors still fail.
        assert_eq!(round(Some(3), false, &[1]).into_applied(false), clean);
        assert_eq!(round(Some(3), true, &[1]).into_applied(false), hard);
    }
}
