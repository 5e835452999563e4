//! In-memory sharded backend: one ordered map per shard behind its own
//! lock, with rows/bytes accounting maintained on every mutation.
//!
//! This is the first physical backend from the ROADMAP's multi-backend
//! line: it is exactly enough store for the migration executor to copy,
//! verify, and roll back real bytes, while staying deterministic and
//! allocation-cheap for tests and benches. The per-shard `RwLock` means
//! shards never contend with each other — the same isolation a real
//! shared-nothing deployment would give — and `apply_batch` holds one
//! write guard for the whole batch, which is what makes it atomic.

use crate::{ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_sql::TableId;
use schism_workload::TupleId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::RwLock;

#[derive(Default)]
struct Shard {
    rows: BTreeMap<TupleId, Vec<u8>>,
    bytes: u64,
}

impl Shard {
    fn put(&mut self, t: TupleId, value: Vec<u8>) {
        self.bytes += value.len() as u64;
        if let Some(prev) = self.rows.insert(t, value) {
            self.bytes -= prev.len() as u64;
        }
    }

    fn delete(&mut self, t: TupleId) -> bool {
        match self.rows.remove(&t) {
            Some(prev) => {
                self.bytes -= prev.len() as u64;
                true
            }
            None => false,
        }
    }
}

/// In-memory [`ShardStore`]: `BTreeMap<TupleId, Vec<u8>>` per shard.
pub struct MemStore {
    shards: Vec<RwLock<Shard>>,
}

impl MemStore {
    /// An empty store with `num_shards` shards.
    pub fn new(num_shards: u32) -> Self {
        Self {
            shards: (0..num_shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
        }
    }

    fn shard(&self, shard: ShardId) -> Result<&RwLock<Shard>, StoreError> {
        self.shards
            .get(shard as usize)
            .ok_or(StoreError::NoSuchShard(shard))
    }

    /// Total payload bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        (0..self.num_shards())
            .map(|s| self.stats(s).expect("shard in range").bytes)
            .sum()
    }
}

impl ShardStore for MemStore {
    fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        let guard = self.shard(shard)?.read().expect("shard lock poisoned");
        Ok(guard.rows.get(&t).cloned())
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        let mut guard = self.shard(shard)?.write().expect("shard lock poisoned");
        guard.put(t, value);
        Ok(())
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        let mut guard = self.shard(shard)?.write().expect("shard lock poisoned");
        Ok(guard.delete(t))
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        let guard = self.shard(shard)?.read().expect("shard lock poisoned");
        if rows.start >= rows.end {
            return Ok(Vec::new()); // BTreeMap::range panics on start > end
        }
        Ok(guard
            .rows
            .range(TupleId::new(table, rows.start)..TupleId::new(table, rows.end))
            .map(|(&t, v)| (t, v.clone()))
            .collect())
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        let mut guard = self.shard(shard)?.write().expect("shard lock poisoned");
        for op in ops {
            match op {
                WriteOp::Put(t, value) => guard.put(*t, value.clone()),
                WriteOp::Delete(t) => {
                    guard.delete(*t);
                }
            }
        }
        Ok(())
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        let guard = self.shard(shard)?.read().expect("shard lock poisoned");
        Ok(ShardStats {
            rows: guard.rows.len() as u64,
            bytes: guard.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;

    #[test]
    fn put_get_delete_roundtrip_with_accounting() {
        let s = MemStore::new(2);
        let t = TupleId::new(0, 5);
        s.put(0, t, vec![1, 2, 3]).unwrap();
        assert_eq!(s.get(0, t).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(s.get(1, t).unwrap(), None);
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 3 });
        // Overwrite replaces, accounting follows.
        s.put(0, t, vec![9; 10]).unwrap();
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 10 });
        assert!(s.delete(0, t).unwrap());
        assert!(!s.delete(0, t).unwrap(), "second delete is a no-op");
        assert_eq!(s.stats(0).unwrap(), ShardStats::default());
    }

    #[test]
    fn unknown_shard_errors() {
        let s = MemStore::new(1);
        let t = TupleId::new(0, 0);
        assert_eq!(s.get(3, t).unwrap_err(), StoreError::NoSuchShard(3));
        assert_eq!(s.put(3, t, vec![]).unwrap_err(), StoreError::NoSuchShard(3));
        assert_eq!(s.stats(3).unwrap_err(), StoreError::NoSuchShard(3));
    }

    #[test]
    fn scan_range_is_table_scoped_and_ordered() {
        let s = MemStore::new(1);
        for row in [4u64, 1, 9] {
            s.put(0, TupleId::new(1, row), vec![row as u8]).unwrap();
        }
        s.put(0, TupleId::new(0, 2), vec![0]).unwrap(); // other table
        s.put(0, TupleId::new(2, 2), vec![0]).unwrap(); // other table
        let hits = s.scan_range(0, 1, 0..10).unwrap();
        let rows: Vec<u64> = hits.iter().map(|(t, _)| t.row).collect();
        assert_eq!(rows, vec![1, 4, 9]);
        let partial = s.scan_range(0, 1, 2..9).unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].0.row, 4);
        // Empty and inverted ranges scan to nothing instead of panicking
        // (BTreeMap::range would panic on start > end).
        assert!(s.scan_range(0, 1, 4..4).unwrap().is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 9u64..2u64;
        assert!(s.scan_range(0, 1, inverted).unwrap().is_empty());
    }

    #[test]
    fn apply_batch_is_all_or_nothing_per_guard() {
        let s = MemStore::new(1);
        let a = TupleId::new(0, 1);
        let b = TupleId::new(0, 2);
        s.put(0, a, vec![1]).unwrap();
        s.apply_batch(0, &[WriteOp::Delete(a), WriteOp::Put(b, vec![2, 2])])
            .unwrap();
        assert_eq!(s.get(0, a).unwrap(), None);
        assert_eq!(s.get(0, b).unwrap(), Some(vec![2, 2]));
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 2 });
    }

    #[test]
    fn checksum_matches_payload() {
        let s = MemStore::new(1);
        let t = TupleId::new(0, 7);
        assert_eq!(s.checksum(0, t).unwrap(), None);
        s.put(0, t, vec![5, 6, 7]).unwrap();
        assert_eq!(s.checksum(0, t).unwrap(), Some(fnv1a(&[5, 6, 7])));
    }
}
