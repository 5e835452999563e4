//! The two decorators the traced run wraps around the program's own
//! extension points — [`TimedScheme`] over any [`Scheme`], [`TimedStore`]
//! over any [`ShardStore`] — plus a counting [`FaultHook`] for
//! `LogStore`'s `log.sync` point. Each delegates, adds call counts and
//! busy nanoseconds to relaxed atomics (they are statistics; they publish
//! nothing), and records a span when the call belongs to a traced
//! operation.

use crate::trace::{self, Inflight, Tracer};
use schism::router::{Complexity, PartitionSet, ReplicaSet, Route, RouteDecision, Scheme};
use schism::sql::{Statement, TableId};
use schism::store::{FaultHook, ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism::workload::{TupleId, TupleValues};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Calls and busy time of one kind of call.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl CallStats {
    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Relaxed)
    }

    /// Mean nanoseconds per call; 0 with no calls.
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.busy_ns() as f64 / n as f64,
        }
    }
}

/// Everything the decorators of one traced run share.
pub struct Probe {
    pub tracer: Tracer,
    pub inflight: Inflight,
    /// Whether the measured window is open: set-up traffic (loading, ramp)
    /// and post-window verification stay out of counters and spans.
    window_open: AtomicBool,
    pub route: CallStats,
    pub store: StoreStats,
    pub syncs: AtomicU64,
}

impl Probe {
    pub fn new(span_capacity: usize, clients: usize) -> Arc<Self> {
        Arc::new(Self {
            tracer: Tracer::new(span_capacity),
            inflight: Inflight::new(clients),
            window_open: AtomicBool::new(false),
            route: CallStats::default(),
            store: StoreStats::default(),
            syncs: AtomicU64::new(0),
        })
    }

    pub fn set_window_open(&self, open: bool) {
        self.window_open.store(open, Relaxed);
    }

    fn window_open(&self) -> bool {
        self.window_open.load(Relaxed)
    }
}

/// Store-side counters. Calls made on a thread that announced a context
/// through [`trace::enter`] with [`BACKGROUND_OP`] set — the migration
/// driver — are kept apart from the foreground calls the shard workers
/// make for statements.
#[derive(Default)]
pub struct StoreStats {
    pub get: CallStats,
    /// Single-row `put` and `delete`: the statement write path.
    pub write: CallStats,
    pub scan: CallStats,
    /// Foreground payload bytes handed to `put`.
    pub put_bytes: AtomicU64,
    /// Rows inside the `apply_batch` puts of the migration driver.
    pub background_batch_rows: AtomicU64,
    /// Payload bytes inside those puts.
    pub background_batch_bytes: AtomicU64,
}

/// Operation ids at or above this mark belong to background work (the
/// migration driver), below it to statements. The driver's thread carries
/// the bare mark between sampled steps and `mark + step number` on one.
pub const BACKGROUND_OP: u64 = 1 << 62;

/// A [`Scheme`] that times every call the server makes into the scheme it
/// wraps. Calls the inner scheme makes on itself are not seen, so nothing
/// is counted twice.
pub struct TimedScheme {
    inner: Arc<dyn Scheme>,
    probe: Arc<Probe>,
}

impl TimedScheme {
    pub fn new(inner: Arc<dyn Scheme>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce(&dyn Scheme) -> T) -> T {
        if !self.probe.window_open() {
            return call(&*self.inner);
        }
        let start = self.probe.tracer.now_ns();
        let out = call(&*self.inner);
        self.probe.route.add(self.probe.tracer.now_ns() - start);
        let ctx = trace::current();
        if ctx.0 != 0 {
            self.probe.tracer.record(name, start, ctx);
        }
        out
    }
}

impl Scheme for TimedScheme {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn k(&self) -> u32 {
        self.inner.k()
    }

    fn complexity(&self) -> Complexity {
        self.inner.complexity()
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        self.timed("router.locate_tuple", |s| s.locate_tuple(t, db))
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        self.timed("router.route_statement", |s| s.route_statement(stmt))
    }

    fn route_predicate(&self, stmt: &Statement) -> RouteDecision {
        self.timed("router.route_predicate", |s| s.route_predicate(stmt))
    }

    fn route_predicate_salted(&self, stmt: &Statement, salt: u64) -> RouteDecision {
        self.timed("router.route_predicate", |s| {
            s.route_predicate_salted(stmt, salt)
        })
    }

    fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> ReplicaSet {
        self.timed("router.replica_set", |s| s.replica_set(t, db))
    }

    fn route_read_fallback(&self, stmt: &Statement, down: &PartitionSet) -> Option<PartitionSet> {
        self.timed("router.route_read_fallback", |s| {
            s.route_read_fallback(stmt, down)
        })
    }

    fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
        self.timed("router.write_phases", |s| s.write_phases(t, db))
    }

    fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
        self.timed("router.route_write_phases", |s| s.route_write_phases(stmt))
    }
}

/// A [`ShardStore`] that times every call into the store it wraps.
pub struct TimedStore {
    inner: Arc<dyn ShardStore>,
    probe: Arc<Probe>,
}

/// Which foreground counter a call lands in.
enum Kind {
    Get,
    Write,
    Scan,
    Other,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn ShardStore>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }

    /// Times one call. `key` is the row it touches, when it touches one:
    /// that is how a call made on a shard worker finds its statement.
    fn timed<T>(
        &self,
        name: &'static str,
        kind: Kind,
        key: Option<u64>,
        call: impl FnOnce(&dyn ShardStore) -> T,
    ) -> T {
        if !self.probe.window_open() {
            return call(&*self.inner);
        }
        let start = self.probe.tracer.now_ns();
        let out = call(&*self.inner);
        let ns = self.probe.tracer.now_ns() - start;
        let own = trace::current();
        let stats = &self.probe.store;
        if own.0 < BACKGROUND_OP {
            match kind {
                Kind::Get => stats.get.add(ns),
                Kind::Write => stats.write.add(ns),
                Kind::Scan => stats.scan.add(ns),
                Kind::Other => {}
            }
        }
        // A context of this thread's own wins over a look-up by key; the
        // bare background mark means "the driver, on a step that is not
        // sampled", which records nothing.
        let ctx = if own.0 != 0 {
            (own.0 != BACKGROUND_OP).then_some(own)
        } else {
            key.and_then(|k| self.probe.inflight.find(k))
        };
        if let Some(ctx) = ctx {
            self.probe.tracer.record(name, start, ctx);
        }
        out
    }
}

impl ShardStore for TimedStore {
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed("store.get", Kind::Get, Some(t.row), |s| s.get(shard, t))
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        if self.probe.window_open() && trace::current().0 < BACKGROUND_OP {
            self.probe
                .store
                .put_bytes
                .fetch_add(value.len() as u64, Relaxed);
        }
        self.timed("store.put", Kind::Write, Some(t.row), |s| {
            s.put(shard, t, value)
        })
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        self.timed("store.delete", Kind::Write, Some(t.row), |s| {
            s.delete(shard, t)
        })
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        self.timed("store.scan_range", Kind::Scan, None, |s| {
            s.scan_range(shard, table, rows)
        })
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        if self.probe.window_open() && trace::current().0 >= BACKGROUND_OP {
            let (mut rows, mut bytes) = (0u64, 0u64);
            for op in ops {
                if let WriteOp::Put(_, v) = op {
                    rows += 1;
                    bytes += v.len() as u64;
                }
            }
            let stats = &self.probe.store;
            stats.background_batch_rows.fetch_add(rows, Relaxed);
            stats.background_batch_bytes.fetch_add(bytes, Relaxed);
        }
        self.timed("store.apply_batch", Kind::Other, None, |s| {
            s.apply_batch(shard, ops)
        })
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        self.inner.stats(shard)
    }

    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        self.timed("store.checksum", Kind::Other, Some(t.row), |s| {
            s.checksum(shard, t)
        })
    }
}

/// Counts `log.sync` hits: one per `fdatasync` a synced `LogStore` commit
/// is about to make.
pub struct SyncCounter(pub Arc<Probe>);

impl FaultHook for SyncCounter {
    fn at(&self, point: &'static str, _shard: ShardId) {
        if point == schism::store::sync_points::LOG_SYNC && self.0.window_open() {
            self.0.syncs.fetch_add(1, Relaxed);
        }
    }
}
