//! Deterministic fault injection for the storage layer.
//!
//! [`FaultHook`] + [`FaultStore`]: an injectable [`ShardStore`] wrapper
//! that fires a hook at **named sync points** before delegating each
//! operation. The serving layer's `FaultPlan` implements the hook to
//! stall a backend mid-operation (seeded and replayable); [`LogStore`]
//! additionally fires [`sync_points::LOG_SYNC`] between writing a commit
//! record and `fdatasync`ing it, so tests can pin that a stalled flush
//! never acknowledges a batch early.
//!
//! Shard liveness (which workers have stopped answering) is state, not
//! injection, and lives in [`health`](crate::health).
//!
//! [`LogStore`]: crate::LogStore

use crate::{ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_sql::TableId;
use schism_workload::TupleId;
use std::ops::Range;
use std::sync::Arc;

/// The named sync points [`FaultStore`] and [`LogStore`](crate::LogStore)
/// fire. The full map (which operation, fired when) is documented in the
/// "Replication & failover" chapter of `docs/ARCHITECTURE.md`.
pub mod sync_points {
    /// Before a point read.
    pub const GET: &str = "store.get";
    /// Before a single-row write.
    pub const PUT: &str = "store.put";
    /// Before a single-row delete.
    pub const DELETE: &str = "store.delete";
    /// Before a range scan.
    pub const SCAN: &str = "store.scan";
    /// Before an atomic batch commit.
    pub const APPLY_BATCH: &str = "store.apply_batch";
    /// Before a checksum read.
    pub const CHECKSUM: &str = "store.checksum";
    /// Inside `LogStore` with `sync_commits` on: after the commit record
    /// is written but **before** `fdatasync` — the window in which a
    /// stalled flush must not acknowledge the batch.
    pub const LOG_SYNC: &str = "log.sync";
}

/// Observer invoked at named sync points. Implementations may sleep (to
/// model a stalled disk or a slow replica) but must return — the store
/// blocks inside the hook, which is the point: the operation, and with it
/// the acknowledgement, cannot complete early.
pub trait FaultHook: Send + Sync {
    /// Called with the sync-point name and the shard the operation targets.
    fn at(&self, point: &'static str, shard: ShardId);
}

/// A [`ShardStore`] wrapper that fires a [`FaultHook`] at a named sync
/// point before delegating each operation to the inner backend.
pub struct FaultStore {
    inner: Arc<dyn ShardStore>,
    hook: Arc<dyn FaultHook>,
}

impl FaultStore {
    pub fn new(inner: Arc<dyn ShardStore>, hook: Arc<dyn FaultHook>) -> Self {
        Self { inner, hook }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn ShardStore> {
        &self.inner
    }
}

impl ShardStore for FaultStore {
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        self.hook.at(sync_points::GET, shard);
        self.inner.get(shard, t)
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        self.hook.at(sync_points::PUT, shard);
        self.inner.put(shard, t, value)
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        self.hook.at(sync_points::DELETE, shard);
        self.inner.delete(shard, t)
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        self.hook.at(sync_points::SCAN, shard);
        self.inner.scan_range(shard, table, rows)
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        self.hook.at(sync_points::APPLY_BATCH, shard);
        self.inner.apply_batch(shard, ops)
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        self.inner.stats(shard)
    }

    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        self.hook.at(sync_points::CHECKSUM, shard);
        self.inner.checksum(shard, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts invocations per sync point (no sleeping).
    #[derive(Default)]
    struct Counter {
        gets: AtomicU64,
        batches: AtomicU64,
    }

    impl FaultHook for Counter {
        fn at(&self, point: &'static str, _shard: ShardId) {
            match point {
                sync_points::GET => self.gets.fetch_add(1, Ordering::SeqCst),
                sync_points::APPLY_BATCH => self.batches.fetch_add(1, Ordering::SeqCst),
                _ => 0,
            };
        }
    }

    #[test]
    fn fault_store_fires_hooks_and_delegates() {
        let hook = Arc::new(Counter::default());
        let store = FaultStore::new(
            Arc::new(MemStore::new(2)),
            Arc::clone(&hook) as Arc<dyn FaultHook>,
        );
        let t = TupleId::new(0, 1);
        store.put(0, t, vec![1, 2]).unwrap();
        assert_eq!(store.get(0, t).unwrap(), Some(vec![1, 2]));
        store.apply_batch(1, &[WriteOp::Put(t, vec![3])]).unwrap();
        assert_eq!(store.get(1, t).unwrap(), Some(vec![3]));
        assert_eq!(hook.gets.load(Ordering::SeqCst), 2);
        assert_eq!(hook.batches.load(Ordering::SeqCst), 1);
        assert_eq!(store.num_shards(), 2);
        assert_eq!(store.stats(0).unwrap().rows, 1);
        assert!(store.checksum(0, t).unwrap().is_some());
    }
}
