//! # schism-store
//!
//! Pluggable physical shard stores: the storage layer migration batches
//! actually move bytes through. The rest of the workspace reasons about
//! *placements* (which partition owns which tuple); this crate holds the
//! partitions themselves, so the migration executor in `schism-migrate`
//! can copy real rows, verify them (count + checksum), and only then flip
//! routing.
//!
//! Two backends implement the one [`ShardStore`] contract:
//!
//! | backend | durability | layout | when |
//! |---------|------------|--------|------|
//! | [`MemStore`] | volatile | one ordered map per shard behind a lock | tests, simulation, baselines |
//! | [`LogStore`] | persistent | one append-only, checksummed segment file per shard; in-memory index rebuilt on open; torn tails truncated; size-triggered compaction | measured copy rates, crash-recovery, anything that must survive the process |
//!
//! They are **observationally equivalent** — property tests in the
//! umbrella crate (`tests/store_backends.rs`) drive random op
//! interleavings, executor runs, and kill-at-any-byte-offset recoveries
//! through both and require identical answers. The contract itself
//! (atomicity, visibility, accounting, error surface) and the `LogStore`
//! record format are documented in `docs/STORES.md`, the storage chapter
//! of the architecture book.
//!
//! | item | role |
//! |------|------|
//! | [`ShardStore`] | the backend trait: get/put/delete, range scans, atomic per-shard batches, byte accounting |
//! | [`MemStore`] / [`LogStore`] | the two backends; [`BackendKind`] parses `--backend mem\|log` |
//! | [`load_assignment`] | seed a store from a per-tuple placement, one deterministic row per copy |
//! | [`seed_row`] / [`fnv1a`] | deterministic row payloads and the checksum used by copy verification |
//! | [`FaultPlan`] / [`FaultHook`] | the one count-triggered fault schedule (worker crashes, revivals, sync-point stalls) and the hook a store fires at a named sync point |
//! | [`HealthMap`] / [`HealthView`] | per-shard `Live / Down / CatchingUp` state machine shared by the server and the migration executor, and its one-lock snapshot |
//! | [`tempdir::TempDir`] | self-cleaning scratch directories for tests and benches |
//!
//! Backends are shared by reference (`&dyn ShardStore`) between the
//! executor and any concurrent readers, so all mutation goes through
//! interior mutability; implementations must make
//! [`apply_batch`](ShardStore::apply_batch) atomic per shard — the
//! executor relies on that for clean abort-with-rollback, and `LogStore`
//! extends the same guarantee across a crash: a batch is either wholly
//! visible after reopen or wholly discarded.
//!
//! ```
//! use schism_store::{tempdir::TempDir, LogStore, ShardStore, WriteOp};
//! use schism_workload::TupleId;
//!
//! let dir = TempDir::new("schism-store-doc")?;
//! let a = TupleId::new(0, 1);
//! let b = TupleId::new(0, 2);
//! {
//!     let store = LogStore::open(dir.path(), 2)?;
//!     store.apply_batch(0, &[
//!         WriteOp::Put(a, b"alpha".to_vec()),
//!         WriteOp::Put(b, b"beta".to_vec()),
//!     ])?;
//! } // dropped: all state now lives in the segment files
//! let store = LogStore::open(dir.path(), 2)?; // replays the log
//! assert_eq!(store.get(0, a)?, Some(b"alpha".to_vec()));
//! assert_eq!(store.get(0, b)?, Some(b"beta".to_vec()));
//! assert_eq!(store.stats(0)?.rows, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod fault;
pub mod health;
pub mod log;
pub mod mem;
pub mod tempdir;

pub use fault::{sync_points, FaultHook, FaultPlan};
pub use health::{HealthMap, HealthState, HealthView};
pub use log::{LogStore, LogStoreConfig};
pub use mem::MemStore;
pub use schism_workload::fnv1a;

use std::str::FromStr;

/// Which [`ShardStore`] implementation to construct — the `--backend`
/// flag of the bench/example binaries parses into this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// [`MemStore`]: volatile, ordered map per shard.
    Mem,
    /// [`LogStore`]: persistent, one append-only segment file per shard.
    Log,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Mem => "mem",
            BackendKind::Log => "log",
        })
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mem" => Ok(BackendKind::Mem),
            "log" => Ok(BackendKind::Log),
            other => Err(format!("unknown backend {other:?} (expected mem|log)")),
        }
    }
}

use schism_router::PartitionSet;
use schism_sql::TableId;
use schism_workload::{splitmix64, TupleId, TupleValues};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;

/// Identifies one physical shard. Shard ids coincide with partition ids:
/// partition `p` of a placement lives on shard `p` of the store.
pub type ShardId = u32;

/// Storage-layer failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The shard id is outside the store's range.
    NoSuchShard(ShardId),
    /// A row that must exist (e.g. a migration copy source) is missing.
    NotFound { shard: ShardId, tuple: TupleId },
    /// A persistent backend failed at the filesystem layer (the message
    /// carries the `std::io::Error` and the path involved).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchShard(s) => write!(f, "no such shard {s}"),
            StoreError::NotFound { shard, tuple } => {
                write!(f, "tuple {tuple} not found on shard {shard}")
            }
            StoreError::Io(msg) => write!(f, "storage i/o: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One write in an atomic per-shard batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    Put(TupleId, Vec<u8>),
    Delete(TupleId),
}

/// Per-shard size accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live rows on the shard.
    pub rows: u64,
    /// Sum of live row payload sizes in bytes.
    pub bytes: u64,
}

/// A physical backend holding `num_shards` independent shards of rows
/// keyed by [`TupleId`].
///
/// All methods take `&self`: stores are shared between the migration
/// executor and foreground readers, so implementations use interior
/// mutability (per-shard locks in [`MemStore`]). Only `apply_batch` is
/// required to be atomic, and only per shard — cross-shard atomicity is
/// the *executor's* job (that is what the verify/flip protocol provides).
pub trait ShardStore: Send + Sync {
    /// Number of shards (= partitions) this store holds.
    fn num_shards(&self) -> u32;

    /// Reads one row, `None` if absent.
    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError>;

    /// Writes one row (insert or overwrite).
    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError>;

    /// Deletes one row; returns whether it existed.
    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError>;

    /// All rows of `table` on `shard` whose row id falls in `rows`, in row
    /// order.
    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError>;

    /// Applies `ops` to `shard` atomically: a concurrent reader sees all
    /// of the batch or none of it, never a prefix.
    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError>;

    /// Row/byte accounting for `shard`.
    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError>;

    /// Checksum of one row's payload (`None` if absent). The executor
    /// compares source and destination checksums during copy verification;
    /// backends that hold payloads out of process can override this to
    /// avoid shipping the row back.
    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        Ok(self.get(shard, t)?.map(|v| fnv1a(&v)))
    }
}

/// Deterministic row payload for tuple `t`: `len` bytes derived from the
/// tuple identity by a splitmix-style generator, so two independently
/// seeded stores agree on every row and corruption is detectable.
pub fn seed_row(t: TupleId, len: u32) -> Vec<u8> {
    let mut x = (u64::from(t.table) << 48) ^ t.row ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(len as usize);
    while out.len() < len as usize {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out.extend_from_slice(&splitmix64(x).to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

/// Materializes a placement into `store`: every tuple gets one
/// [`seed_row`] payload (sized by [`TupleValues::tuple_bytes`]) on every
/// shard in its copy set. Returns the number of rows written.
pub fn load_assignment(
    store: &dyn ShardStore,
    assignment: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    db: &dyn TupleValues,
) -> Result<u64, StoreError> {
    let mut written = 0u64;
    for (&t, pset) in assignment {
        let row = seed_row(t, db.tuple_bytes(t.table));
        for shard in pset.iter() {
            store.put(shard, t, row.clone())?;
            written += 1;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_discriminates() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn seed_row_deterministic_and_sized() {
        let t = TupleId::new(3, 17);
        assert_eq!(seed_row(t, 64), seed_row(t, 64));
        assert_eq!(seed_row(t, 10).len(), 10);
        assert_ne!(seed_row(t, 64), seed_row(TupleId::new(3, 18), 64));
        assert_ne!(seed_row(t, 64), seed_row(TupleId::new(4, 17), 64));
        assert!(seed_row(t, 0).is_empty());
    }

    #[test]
    fn load_assignment_places_every_copy() {
        use schism_workload::MaterializedDb;
        let store = MemStore::new(3);
        let mut asg = HashMap::new();
        asg.insert(TupleId::new(0, 1), PartitionSet::single(0));
        asg.insert(TupleId::new(0, 2), [1u32, 2].into_iter().collect());
        let written = load_assignment(&store, &asg, &MaterializedDb::new()).unwrap();
        assert_eq!(written, 3);
        assert!(store.get(0, TupleId::new(0, 1)).unwrap().is_some());
        assert!(store.get(1, TupleId::new(0, 2)).unwrap().is_some());
        assert!(store.get(2, TupleId::new(0, 2)).unwrap().is_some());
        assert!(store.get(1, TupleId::new(0, 1)).unwrap().is_none());
        // Replicated copies are byte-identical.
        assert_eq!(
            store.get(1, TupleId::new(0, 2)).unwrap(),
            store.get(2, TupleId::new(0, 2)).unwrap()
        );
    }
}
