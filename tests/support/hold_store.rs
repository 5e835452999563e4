//! A test-only [`ShardStore`] wrapper that holds one call — the first
//! `get` or the first `put` of one tuple — until the test releases it, so
//! a statement attempt can be stretched across whatever runs meanwhile.
//! Every other call passes straight through, the held one too once
//! released.

use schism_store::{ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_workload::TupleId;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

/// Which call on the tuple is held.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Held {
    Get,
    Put,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// The held call has not arrived yet.
    Armed,
    /// The held call is waiting for `release`.
    Holding,
    Released,
}

pub struct HoldStore {
    inner: Arc<dyn ShardStore>,
    held: Held,
    tuple: TupleId,
    state: Mutex<State>,
    changed: Condvar,
}

impl HoldStore {
    pub fn new(inner: Arc<dyn ShardStore>, held: Held, tuple: TupleId) -> Self {
        Self {
            inner,
            held,
            tuple,
            state: Mutex::new(State::Armed),
            changed: Condvar::new(),
        }
    }

    /// Blocks until the held call has arrived (or the hold was released).
    pub fn wait_held(&self) {
        let mut s = self.state.lock().unwrap();
        while *s == State::Armed {
            s = self.changed.wait(s).unwrap();
        }
    }

    /// Lets the held call go on; no later call is held.
    pub fn release(&self) {
        *self.state.lock().unwrap() = State::Released;
        self.changed.notify_all();
    }

    /// Holds the caller when this is the first `call` of the tuple.
    fn hold(&self, call: Held, t: TupleId) {
        if call != self.held || t != self.tuple {
            return;
        }
        let mut s = self.state.lock().unwrap();
        if *s != State::Armed {
            return;
        }
        *s = State::Holding;
        self.changed.notify_all();
        while *s == State::Holding {
            s = self.changed.wait(s).unwrap();
        }
    }
}

impl ShardStore for HoldStore {
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        self.hold(Held::Get, t);
        self.inner.get(shard, t)
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        self.hold(Held::Put, t);
        self.inner.put(shard, t, value)
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
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
        self.inner.apply_batch(shard, ops)
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        self.inner.stats(shard)
    }

    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        self.inner.checksum(shard, t)
    }
}
