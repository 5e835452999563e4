//! A test-only [`ShardStore`] wrapper that drives the migration executor
//! through faults: it corrupts a victim tuple's copies, fails one chosen
//! delete, and records every `apply_batch` call in order. Beside it, two
//! helpers over any store: [`wipe_shard`] and [`total_rows`].
//!
//! The migrate crate's unit and integration tests and the umbrella
//! integration tests include this file by `#[path]`, and no one of them
//! calls every item.
#![allow(dead_code)]

use schism_store::{ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_workload::TupleId;
use std::ops::Range;
use std::sync::Mutex;

/// Deletes every row of `table` from `shard`: a failed node's replacement
/// comes up with an empty disk, so a rejoin must re-copy everything
/// rather than trust residue.
pub fn wipe_shard(store: &dyn ShardStore, shard: ShardId, table: u16) {
    for (t, _) in store.scan_range(shard, table, 0..u64::MAX).unwrap() {
        store.delete(shard, t).unwrap();
    }
}

/// Rows held across every shard, summed from each shard's stats.
pub fn total_rows(store: &dyn ShardStore) -> u64 {
    (0..store.num_shards())
        .map(|s| store.stats(s).unwrap().rows)
        .sum()
}

/// Wraps a store; every call not named below passes straight through.
pub struct TestStore<'a> {
    inner: &'a dyn ShardStore,
    /// The tuple whose copies are corrupted, and how many more of its
    /// `apply_batch` puts to corrupt.
    corrupt: Mutex<Option<(TupleId, u32)>>,
    /// The `(shard, tuple)` whose next `delete` fails.
    fail_delete: Mutex<Option<(ShardId, TupleId)>>,
    /// Every `apply_batch` call, in order, as applied.
    applied: Mutex<Vec<(ShardId, Vec<WriteOp>)>>,
}

impl<'a> TestStore<'a> {
    pub fn new(inner: &'a dyn ShardStore) -> Self {
        Self {
            inner,
            corrupt: Mutex::new(None),
            fail_delete: Mutex::new(None),
            applied: Mutex::new(Vec::new()),
        }
    }

    /// Corrupts the next `times` puts of `victim` that arrive through
    /// `apply_batch` — the executor's copy path — by bumping the payload's
    /// first byte, so copy verification sees a checksum mismatch.
    pub fn corrupting(self, victim: TupleId, times: u32) -> Self {
        *self.corrupt.lock().unwrap() = Some((victim, times));
        self
    }

    /// Makes the next `delete(shard, t)` fail with a store error.
    pub fn failing_delete(self, shard: ShardId, t: TupleId) -> Self {
        *self.fail_delete.lock().unwrap() = Some((shard, t));
        self
    }

    /// The `apply_batch` calls so far, in order.
    pub fn applied(&self) -> Vec<(ShardId, Vec<WriteOp>)> {
        self.applied.lock().unwrap().clone()
    }
}

impl ShardStore for TestStore<'_> {
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(shard, t)
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        self.inner.put(shard, t, value)
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        let mut fail = self.fail_delete.lock().unwrap();
        if *fail == Some((shard, t)) {
            *fail = None;
            return Err(StoreError::Io(format!("injected delete of {t} on {shard}")));
        }
        self.inner.delete(shard, t)
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: u16,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        self.inner.scan_range(shard, table, rows)
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        let mut ops = ops.to_vec();
        if let Some((victim, left)) = self.corrupt.lock().unwrap().as_mut() {
            for op in &mut ops {
                if let WriteOp::Put(t, payload) = op {
                    if t == victim && *left > 0 {
                        *left -= 1;
                        match payload.first_mut() {
                            Some(b) => *b = b.wrapping_add(1),
                            None => payload.push(0xff),
                        }
                    }
                }
            }
        }
        self.applied.lock().unwrap().push((shard, ops.clone()));
        self.inner.apply_batch(shard, &ops)
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        self.inner.stats(shard)
    }

    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        self.inner.checksum(shard, t)
    }
}
