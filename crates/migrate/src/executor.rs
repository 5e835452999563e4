//! The migration executor: runs a [`MigrationPlan`] against physical
//! shard stores, batch by batch, and drives routing from acknowledgements.
//!
//! One [`MigrationExecutor::step`] takes the next batch through
//!
//! ```text
//! planned ──► copy ──► verify ──► flip ──► flipped
//!              ▲         │
//!              └─ retry ◄┤ (checksum/count mismatch, ≤ max_retries)
//!                        └──► rollback (copied rows deleted) ──► aborted
//! ```
//!
//! so a caller observes a batch only as planned, flipped or aborted:
//! [`MigrationExecutor::progress`] counts the flipped prefix, and a batch
//! that cannot complete is rolled back and stops the executor.
//!
//! Callers pace the migration by calling `step` or not: between two
//! steps the stores and the moved-set are at a batch boundary, so a
//! caller that stops stepping has paused, and one that never steps
//! again has abandoned the unexecuted batches without touching them.
//!
//! - **copy** reads every moved row from its source shard and writes it to
//!   each shard gaining a copy (one atomic [`ShardStore::apply_batch`] per
//!   destination shard); a row that has vanished from a live source was
//!   deleted by a foreground DELETE while in plan, and the copy propagates
//!   the tombstone (deletes it from the destinations) instead of aborting;
//! - **verify** re-reads both sides and compares row count and checksum —
//!   a mismatch re-copies the batch up to [`ExecutorConfig::max_retries`]
//!   times, then aborts (a tombstoned row verifies as absent-everywhere);
//! - **flip** is the only point routing changes: the batch is acknowledged
//!   into the [`VersionedScheme`] moved-set via the sequenced
//!   [`VersionedScheme::flip_batch`] API, after which (and only after
//!   which) the shards dropping a copy delete theirs.
//!
//! Because a batch either flips completely or is rolled back completely,
//! stopping at any batch boundary leaves every key with exactly one owner
//! and the stores bit-identical to the pre-migration state for all
//! unflipped batches — the property test in the umbrella crate drives
//! random plans through random stopping points to prove it.

use crate::plan::{MigrationPlan, TupleMove};
use schism_router::{FlipError, VersionedScheme};
use schism_store::{HealthMap, ShardId, ShardStore, StoreError, WriteOp};
use schism_workload::TupleId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Executor tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct ExecutorConfig {
    /// Copy re-attempts per batch after a failed verification (0 = a
    /// single verify failure aborts the migration).
    pub max_retries: u32,
    /// Shard liveness shared with the serving layer. When set, copy and
    /// verify read their source row from the first **live** member of a
    /// move's copy set — a failed shard's store is still readable but
    /// stale (writes skip it from the moment it is marked down), and a
    /// catching-up shard is stale until its own copy verifies, so using
    /// either as a copy source would migrate pre-failure values and lose
    /// acknowledged writes.
    pub health: Option<Arc<HealthMap>>,
}

/// Why a migration stopped making progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The backend failed.
    Store(StoreError),
    /// A moved tuple has no **live** source shard left to read from (every
    /// authoritative copy is down or catching up). A row that is merely
    /// absent on a live source is not an error: the executor treats it as
    /// a tombstone (the key was deleted while in plan) and propagates the
    /// delete to the destination copies.
    MissingSource(TupleId),
    /// Copy verification kept failing after all retries.
    VerifyFailed { batch: usize, attempts: u32 },
    /// The routing layer rejected the batch acknowledgement.
    Flip(FlipError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Store(e) => write!(f, "store error: {e}"),
            ExecError::MissingSource(t) => write!(f, "no source copy for tuple {t}"),
            ExecError::VerifyFailed { batch, attempts } => {
                write!(f, "batch {batch} failed verification {attempts} time(s)")
            }
            ExecError::Flip(e) => write!(f, "flip rejected: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StoreError> for ExecError {
    fn from(e: StoreError) -> Self {
        ExecError::Store(e)
    }
}

/// What one flipped batch actually did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// Batch index in the plan (= flip sequence number).
    pub batch: usize,
    /// Tuples processed (including drop-only moves).
    pub tuples: usize,
    /// Row copies written to destination shards.
    pub rows_copied: u64,
    /// Payload bytes written, measured from the rows themselves (not the
    /// plan's estimate).
    pub bytes_copied: u64,
    /// Replica copies deleted after the flip.
    pub rows_dropped: u64,
    /// Copy re-attempts this batch needed before verification passed.
    pub retries: u32,
}

/// Result of one [`MigrationExecutor::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The next batch copied, verified, and flipped.
    Flipped(BatchReport),
    /// Never returned: callers pace by calling `step` or not. Kept so
    /// that existing exhaustive `match`es still compile.
    Paused,
    /// No batches remain (all flipped, or the migration was aborted).
    Done,
    /// This batch could not be completed; its copies were rolled back and
    /// the migration stopped.
    Aborted { batch: usize, error: ExecError },
}

/// Totals across the executed prefix of the plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorReport {
    pub batches_flipped: usize,
    pub tuples_moved: usize,
    pub rows_copied: u64,
    pub bytes_copied: u64,
    pub rows_dropped: u64,
    pub retries: u32,
}

/// Executes a [`MigrationPlan`] against a [`ShardStore`], flipping routing
/// in a [`VersionedScheme`] one acknowledged batch at a time.
///
/// The executor is deliberately synchronous and single-stepped: callers
/// (the bench bin, a serving loop beside a live server) own the pacing,
/// interleaving foreground work between steps; not calling
/// [`step`](Self::step) is how a caller pauses or abandons a migration.
pub struct MigrationExecutor<'a> {
    plan: &'a MigrationPlan,
    store: &'a dyn ShardStore,
    scheme: &'a VersionedScheme,
    cfg: ExecutorConfig,
    /// Batches `..next` have flipped; the rest are planned, or will never
    /// execute once `aborted` is set (a batch failed).
    next: usize,
    aborted: bool,
    /// Totals over the flipped batches, a batch whose post-flip cleanup
    /// failed included.
    report: ExecutorReport,
}

impl<'a> MigrationExecutor<'a> {
    /// Prepares to execute `plan`. The scheme must be at the start of its
    /// epoch (no batches flipped yet).
    pub fn new(
        plan: &'a MigrationPlan,
        store: &'a dyn ShardStore,
        scheme: &'a VersionedScheme,
        cfg: ExecutorConfig,
    ) -> Self {
        assert_eq!(
            scheme.flipped_batches(),
            0,
            "executor requires a fresh migration epoch"
        );
        Self {
            plan,
            store,
            scheme,
            cfg,
            next: 0,
            aborted: false,
            report: ExecutorReport::default(),
        }
    }

    /// `(flipped, total)` batch counts.
    pub fn progress(&self) -> (usize, usize) {
        (self.next, self.plan.batches.len())
    }

    /// Aggregated totals over the executed prefix.
    pub fn report(&self) -> ExecutorReport {
        self.report.clone()
    }

    /// Executes the next batch through copy → verify → flip.
    pub fn step(&mut self) -> StepOutcome {
        if self.aborted || self.next >= self.plan.batches.len() {
            return StepOutcome::Done;
        }
        let i = self.next;
        match self.execute_batch(i) {
            Ok(b) => {
                self.count_flipped(&b);
                StepOutcome::Flipped(b)
            }
            Err((error, flipped)) => {
                // A flip that landed before the failure (post-flip drop
                // cleanup) gives the new placement this batch, so it counts
                // as flipped, with what it did before the failure — rolling
                // it back now would contradict the moved-set. A pre-flip
                // failure was rolled back inside execute_batch, so the
                // stores match pre-batch state.
                if let Some(b) = flipped {
                    self.count_flipped(&b);
                }
                self.aborted = true;
                StepOutcome::Aborted { batch: i, error }
            }
        }
    }

    /// Advances the cursor past a flipped batch and adds its report to the
    /// running totals.
    fn count_flipped(&mut self, b: &BatchReport) {
        self.next += 1;
        let r = &mut self.report;
        r.batches_flipped += 1;
        r.tuples_moved += b.tuples;
        r.rows_copied += b.rows_copied;
        r.bytes_copied += b.bytes_copied;
        r.rows_dropped += b.rows_dropped;
        r.retries += b.retries;
    }

    /// A failure carries the batch's report when the batch had already
    /// flipped (post-flip failures must not roll back, and what the batch
    /// did still counts).
    fn execute_batch(&self, i: usize) -> Result<BatchReport, (ExecError, Option<BatchReport>)> {
        let moves = &self.plan.batches[i].moves;
        let mut retries = 0u32;
        let (rows_copied, bytes_copied) = loop {
            let copied = match self.copy_batch(moves) {
                Ok(c) => c,
                Err(e) => return Err((self.rolled_back(i, e), None)),
            };
            match self.verify_batch(moves) {
                Ok(true) => break copied,
                Ok(false) if retries >= self.cfg.max_retries => {
                    let e = ExecError::VerifyFailed {
                        batch: i,
                        attempts: retries + 1,
                    };
                    return Err((self.rolled_back(i, e), None));
                }
                Ok(false) => retries += 1,
                Err(e) => return Err((self.rolled_back(i, e), None)),
            }
        };
        // The acknowledgement: routing flips only now, and only in order.
        if let Err(e) = self
            .scheme
            .flip_batch(i as u64, moves.iter().map(|m| m.tuple))
        {
            return Err((self.rolled_back(i, ExecError::Flip(e)), None));
        }
        let mut report = BatchReport {
            batch: i,
            tuples: moves.len(),
            rows_copied,
            bytes_copied,
            rows_dropped: 0,
            retries,
        };
        // Post-flip cleanup: shards losing a copy drop theirs. Routing
        // already points elsewhere, so this can never orphan a key.
        for m in moves {
            for shard in m.copies_dropped().iter() {
                match self.store.delete(shard, m.tuple) {
                    Ok(true) => report.rows_dropped += 1,
                    Ok(false) => {}
                    Err(e) => return Err((ExecError::Store(e), Some(report))),
                }
            }
        }
        Ok(report)
    }

    /// Rolls batch `i`'s destination copies back and returns the error to
    /// report: `cause`, unless the rollback itself failed — a store that
    /// can no longer be written is the graver fault.
    fn rolled_back(&self, i: usize, cause: ExecError) -> ExecError {
        match self.rollback_batch(i) {
            Ok(()) => cause,
            Err(e) => e,
        }
    }

    /// The shard copy and verify read `m`'s row from: the first live
    /// member of the source copy set (every live authoritative copy holds
    /// every acknowledged write — see [`ExecutorConfig::health`]). Down
    /// *and* catching-up members are both excluded: a catching-up shard
    /// is stale until its own copy verifies.
    fn live_source(&self, m: &TupleMove) -> Result<ShardId, ExecError> {
        let from = match &self.cfg.health {
            Some(h) => m.from.difference(&h.view().not_live()),
            None => m.from,
        };
        from.first().ok_or(ExecError::MissingSource(m.tuple))
    }

    /// Copies every row of `moves` to its gaining shards; one atomic write
    /// batch per destination shard, in ascending shard order. Returns
    /// `(rows, bytes)` written.
    fn copy_batch(&self, moves: &[TupleMove]) -> Result<(u64, u64), ExecError> {
        let mut per_shard: BTreeMap<ShardId, Vec<WriteOp>> = BTreeMap::new();
        let mut rows = 0u64;
        let mut bytes = 0u64;
        for m in moves {
            let added = m.copies_added();
            if added.is_empty() {
                continue; // drop-only move: nothing to copy
            }
            let src = self.live_source(m)?;
            let Some(row) = self.store.get(src, m.tuple)? else {
                // Tombstone: the key was deleted (by a foreground DELETE)
                // after the plan was cut. Propagate the delete so a stale
                // copy from an earlier attempt can't survive, and let
                // verify pass on absent-everywhere.
                for shard in added.iter() {
                    per_shard
                        .entry(shard)
                        .or_default()
                        .push(WriteOp::Delete(m.tuple));
                }
                continue;
            };
            for shard in added.iter() {
                rows += 1;
                bytes += row.len() as u64;
                per_shard
                    .entry(shard)
                    .or_default()
                    .push(WriteOp::Put(m.tuple, row.clone()));
            }
        }
        for (shard, ops) in per_shard {
            self.store.apply_batch(shard, &ops)?;
        }
        Ok((rows, bytes))
    }

    /// Count + checksum verification: every destination shard must hold
    /// every copied row with the source's checksum — and for a tombstoned
    /// row (`want = None`, deleted while in plan) the destinations must be
    /// absent too.
    fn verify_batch(&self, moves: &[TupleMove]) -> Result<bool, ExecError> {
        for m in moves {
            let added = m.copies_added();
            if added.is_empty() {
                continue;
            }
            let src = self.live_source(m)?;
            let want = self.store.checksum(src, m.tuple)?;
            for shard in added.iter() {
                if self.store.checksum(shard, m.tuple)? != want {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Deletes whatever the in-flight batch copied to destination shards,
    /// restoring them to their pre-batch contents (a gaining shard never
    /// held the row before this batch — `copies_added = to \ from`). One
    /// write batch per shard, in ascending shard order.
    fn rollback_batch(&self, i: usize) -> Result<(), ExecError> {
        let mut per_shard: BTreeMap<ShardId, Vec<WriteOp>> = BTreeMap::new();
        for m in &self.plan.batches[i].moves {
            for shard in m.copies_added().iter() {
                per_shard
                    .entry(shard)
                    .or_default()
                    .push(WriteOp::Delete(m.tuple));
            }
        }
        for (shard, ops) in per_shard {
            self.store.apply_batch(shard, &ops)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_migration, PlanConfig};
    use crate::test_store::{total_rows, TestStore};
    use schism_router::{PartitionSet, Scheme};
    use schism_store::{load_assignment, MemStore};
    use schism_workload::MaterializedDb;
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn asg(pairs: &[(u64, u32)]) -> Map<TupleId, PartitionSet> {
        pairs
            .iter()
            .map(|&(r, p)| (TupleId::new(0, r), PartitionSet::single(p)))
            .collect()
    }

    fn scheme_for(asg: &Map<TupleId, PartitionSet>, k: u32) -> Arc<dyn Scheme> {
        let entries: Vec<(u64, PartitionSet)> = asg.iter().map(|(t, &p)| (t.row, p)).collect();
        Arc::new(schism_router::LookupScheme::new(
            k,
            vec![Some(Box::new(schism_router::IndexBackend::new(entries))
                as Box<dyn schism_router::LookupBackend>)],
            vec![None],
            schism_router::MissPolicy::HashRow,
        ))
    }

    /// Steps `exec` until a step flips nothing; returns that step's outcome.
    fn run(exec: &mut MigrationExecutor<'_>) -> StepOutcome {
        loop {
            match exec.step() {
                StepOutcome::Flipped(_) => {}
                other => return other,
            }
        }
    }

    /// Store seeded from `old`, scheme pair over `old`/`new`, plan between
    /// them.
    fn fixture(
        old: &Map<TupleId, PartitionSet>,
        new: &Map<TupleId, PartitionSet>,
        k: u32,
        rows_per_batch: usize,
    ) -> (MemStore, VersionedScheme, MigrationPlan) {
        let db = MaterializedDb::new();
        let store = MemStore::new(k);
        load_assignment(&store, old, &db).unwrap();
        let vs = VersionedScheme::new(scheme_for(old, k), scheme_for(new, k));
        let plan = plan_migration(
            old,
            new,
            &db,
            &PlanConfig {
                max_rows_per_batch: rows_per_batch,
            },
        );
        (store, vs, plan)
    }

    #[test]
    fn full_run_converges_store_and_routing() {
        let old = asg(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]);
        let new = asg(&[(0, 1), (1, 0), (2, 2), (3, 0), (4, 2)]);
        let (store, vs, plan) = fixture(&old, &new, 3, 2);
        let db = MaterializedDb::new();
        let mut exec = MigrationExecutor::new(&plan, &store, &vs, ExecutorConfig::default());
        assert_eq!(run(&mut exec), StepOutcome::Done);
        assert_eq!(exec.progress(), (plan.batches.len(), plan.batches.len()));
        let report = exec.report();
        assert_eq!(report.batches_flipped, plan.batches.len());
        assert_eq!(report.tuples_moved, plan.total_moves);
        assert_eq!(
            report.bytes_copied, plan.total_bytes,
            "64B rows, 1 copy each"
        );
        assert_eq!(report.rows_dropped, report.rows_copied);
        // Store and routing agree: the row lives exactly where the scheme
        // says, and nowhere else.
        for (&t, pset) in &new {
            assert_eq!(vs.locate_tuple(t, &db), *pset);
            for shard in 0..3u32 {
                assert_eq!(
                    store.get(shard, t).unwrap().is_some(),
                    pset.contains(shard),
                    "tuple {t} on shard {shard}"
                );
            }
        }
        assert_eq!(total_rows(&store), new.len() as u64);
    }

    #[test]
    fn replication_grow_and_shrink_execute() {
        let mut old = Map::new();
        old.insert(TupleId::new(0, 0), PartitionSet::single(0));
        old.insert(
            TupleId::new(0, 1),
            [0u32, 1, 2].into_iter().collect::<PartitionSet>(),
        );
        let mut new = Map::new();
        new.insert(
            TupleId::new(0, 0),
            [0u32, 1].into_iter().collect::<PartitionSet>(),
        );
        new.insert(TupleId::new(0, 1), PartitionSet::single(2));
        let (store, vs, plan) = fixture(&old, &new, 3, 10);
        let mut exec = MigrationExecutor::new(&plan, &store, &vs, ExecutorConfig::default());
        assert!(matches!(exec.step(), StepOutcome::Flipped(_)));
        // Grow: copy on shard 1; shrink: only shard 2 keeps tuple 1.
        assert!(store.get(1, TupleId::new(0, 0)).unwrap().is_some());
        assert!(store.get(0, TupleId::new(0, 1)).unwrap().is_none());
        assert!(store.get(1, TupleId::new(0, 1)).unwrap().is_none());
        assert!(store.get(2, TupleId::new(0, 1)).unwrap().is_some());
    }

    #[test]
    fn transient_corruption_is_retried_and_healed() {
        let old = asg(&[(0, 0), (1, 0)]);
        let new = asg(&[(0, 1), (1, 1)]);
        let (store, vs, plan) = fixture(&old, &new, 2, 10);
        // The first two attempts write a bad copy.
        let faulty = TestStore::new(&store).corrupting(TupleId::new(0, 0), 2);
        let cfg = ExecutorConfig {
            max_retries: 2,
            ..ExecutorConfig::default()
        };
        let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, cfg);
        let report = match exec.step() {
            StepOutcome::Flipped(r) => r,
            other => panic!("expected flip after retries, got {other:?}"),
        };
        assert_eq!(report.retries, 2);
        assert_eq!(exec.progress(), (1, 1));
        // Healed: destination bytes equal the deterministic seed payload.
        let want = schism_store::seed_row(TupleId::new(0, 0), 64);
        assert_eq!(store.get(1, TupleId::new(0, 0)).unwrap(), Some(want));
    }

    #[test]
    fn persistent_corruption_aborts_with_rollback() {
        let old = asg(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let new = asg(&[(0, 1), (1, 1), (2, 1), (3, 1)]);
        let (store, vs, plan) = fixture(&old, &new, 2, 2);
        // Batch 1 never verifies: both its attempts write a bad copy.
        let faulty = TestStore::new(&store).corrupting(plan.batches[1].moves[0].tuple, 2);
        let cfg = ExecutorConfig {
            max_retries: 1,
            ..ExecutorConfig::default()
        };
        let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, cfg);
        assert!(matches!(exec.step(), StepOutcome::Flipped(_)));
        match exec.step() {
            StepOutcome::Aborted { batch, error } => {
                assert_eq!(batch, 1);
                assert_eq!(
                    error,
                    ExecError::VerifyFailed {
                        batch: 1,
                        attempts: 2
                    }
                );
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(exec.step(), StepOutcome::Done, "aborted executor is done");
        assert_eq!(exec.progress(), (1, 2));
        assert_eq!(vs.flipped_batches(), 1, "only the verified batch flipped");
        // Batch 0's tuples moved; batch 1's were rolled back to shard 0.
        let db = MaterializedDb::new();
        for m in plan.batches[0].moves.iter() {
            assert!(store.get(1, m.tuple).unwrap().is_some());
            assert!(store.get(0, m.tuple).unwrap().is_none());
            assert_eq!(vs.locate_tuple(m.tuple, &db), PartitionSet::single(1));
        }
        for m in plan.batches[1].moves.iter() {
            assert!(store.get(0, m.tuple).unwrap().is_some(), "source intact");
            assert!(store.get(1, m.tuple).unwrap().is_none(), "copy rolled back");
            assert_eq!(vs.locate_tuple(m.tuple, &db), PartitionSet::single(0));
        }
    }

    #[test]
    fn rejected_flip_rolls_copies_back() {
        let old = asg(&[(0, 0), (1, 0)]);
        let new = asg(&[(0, 1), (1, 1)]);
        let (store, vs, plan) = fixture(&old, &new, 2, 10);
        let mut exec = MigrationExecutor::new(&plan, &store, &vs, ExecutorConfig::default());
        // An out-of-band flip desynchronizes the sequence: the executor's
        // own flip of batch 0 is now rejected, and the already-copied rows
        // must be rolled back off the destination shards.
        vs.flip_batch(0, []).unwrap();
        match exec.step() {
            StepOutcome::Aborted { batch, error } => {
                assert_eq!(batch, 0);
                assert_eq!(
                    error,
                    ExecError::Flip(FlipError {
                        expected: 1,
                        got: 0
                    })
                );
            }
            other => panic!("expected abort, got {other:?}"),
        }
        for t in [TupleId::new(0, 0), TupleId::new(0, 1)] {
            assert!(store.get(0, t).unwrap().is_some(), "source intact");
            assert!(store.get(1, t).unwrap().is_none(), "copy rolled back");
        }
        assert_eq!(exec.step(), StepOutcome::Done, "aborted executor is done");
        assert_eq!(exec.progress(), (0, 1));
    }

    #[test]
    fn vanished_source_row_tombstones_instead_of_aborting() {
        // Key (0,0) is deleted by a foreground DELETE after the plan was
        // cut; its live source set is intact, so the executor propagates
        // the tombstone and the migration completes — the mid-migration
        // in-plan DELETE no longer aborts.
        let old = asg(&[(0, 0), (1, 0)]);
        let new = asg(&[(0, 1), (1, 1)]);
        let (store, vs, plan) = fixture(&old, &new, 2, 10);
        store.delete(0, TupleId::new(0, 0)).unwrap();
        let mut exec = MigrationExecutor::new(&plan, &store, &vs, ExecutorConfig::default());
        assert!(matches!(exec.step(), StepOutcome::Flipped(_)));
        assert_eq!(exec.progress(), (1, 1));
        assert_eq!(vs.flipped_batches(), 1);
        // The deleted key exists nowhere; the surviving key moved whole.
        assert!(store.get(0, TupleId::new(0, 0)).unwrap().is_none());
        assert!(store.get(1, TupleId::new(0, 0)).unwrap().is_none());
        assert!(store.get(1, TupleId::new(0, 1)).unwrap().is_some());
        assert!(store.get(0, TupleId::new(0, 1)).unwrap().is_none());
        assert_eq!(exec.report().rows_copied, 1);

        // An entirely empty store degenerates to an all-tombstone
        // migration that still converges routing.
        let old = asg(&[(0, 0)]);
        let new = asg(&[(0, 1)]);
        let db = MaterializedDb::new();
        let empty = MemStore::new(2); // never loaded: every source row absent
        let vs2 = VersionedScheme::new(scheme_for(&old, 2), scheme_for(&new, 2));
        let plan2 = plan_migration(&old, &new, &db, &PlanConfig::default());
        let mut exec2 = MigrationExecutor::new(&plan2, &empty, &vs2, ExecutorConfig::default());
        assert!(matches!(exec2.step(), StepOutcome::Flipped(_)));
        assert_eq!(vs2.flipped_batches(), 1);
        assert_eq!(total_rows(&empty), 0);
    }

    #[test]
    fn copy_source_skips_down_shards() {
        use schism_store::{HealthMap, ShardStore};
        // Tuple 0 is replicated on {0, 1}; it moves to {1, 2}. Shard 0 —
        // the default copy source — holds a stale payload and is marked
        // down; the executor must copy shard 1's (fresh) bytes instead.
        let mut old = Map::new();
        old.insert(
            TupleId::new(0, 0),
            [0u32, 1].into_iter().collect::<PartitionSet>(),
        );
        let mut new = Map::new();
        new.insert(
            TupleId::new(0, 0),
            [1u32, 2].into_iter().collect::<PartitionSet>(),
        );
        let (store, vs, plan) = fixture(&old, &new, 3, 10);
        let stale = b"stale-pre-failure".to_vec();
        store.put(0, TupleId::new(0, 0), stale.clone()).unwrap();
        let fresh = store.get(1, TupleId::new(0, 0)).unwrap().unwrap();
        assert_ne!(fresh, stale);
        let health = Arc::new(HealthMap::new());
        health.mark_down(0);
        let mut exec = MigrationExecutor::new(
            &plan,
            &store,
            &vs,
            ExecutorConfig {
                health: Some(Arc::clone(&health)),
                ..ExecutorConfig::default()
            },
        );
        assert!(matches!(exec.step(), StepOutcome::Flipped(_)));
        assert_eq!(
            store.get(2, TupleId::new(0, 0)).unwrap(),
            Some(fresh),
            "destination must receive the live replica's bytes"
        );
        // All authoritative sources down: a clean MissingSource abort.
        let (store2, vs2, plan2) = fixture(&old, &new, 3, 10);
        let dead = Arc::new(HealthMap::new());
        dead.mark_down(0);
        dead.mark_down(1);
        let mut exec2 = MigrationExecutor::new(
            &plan2,
            &store2,
            &vs2,
            ExecutorConfig {
                health: Some(dead),
                ..ExecutorConfig::default()
            },
        );
        match exec2.step() {
            StepOutcome::Aborted { error, .. } => {
                assert_eq!(error, ExecError::MissingSource(TupleId::new(0, 0)));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn writes_reach_shards_in_one_order_every_run() {
        // Every batch copies to, and the aborted one rolls back from,
        // several shards at once.
        let old = asg(&(0..12).map(|r| (r, 0)).collect::<Vec<_>>());
        let new = asg(&(0..12).map(|r| (r, 1 + (r % 3) as u32)).collect::<Vec<_>>());
        let run = || {
            let (store, vs, plan) = fixture(&old, &new, 4, 6);
            let faulty = TestStore::new(&store).corrupting(plan.batches[1].moves[0].tuple, 1);
            let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, ExecutorConfig::default());
            assert!(matches!(
                run(&mut exec),
                StepOutcome::Aborted { batch: 1, .. }
            ));
            faulty.applied()
        };
        let first = run();
        let shards: Vec<ShardId> = first.iter().map(|&(s, _)| s).collect();
        assert_eq!(shards, [1, 2, 3, 1, 2, 3, 1, 2, 3], "copy, copy, rollback");
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn failed_cleanup_after_the_flip_keeps_the_batch_flipped() {
        let old = asg(&(0..6).map(|r| (r, 0)).collect::<Vec<_>>());
        let new = asg(&(0..6).map(|r| (r, 1)).collect::<Vec<_>>());
        let (store, vs, plan) = fixture(&old, &new, 2, 2);
        // Batch 1's first drop from the losing shard fails.
        let victim = plan.batches[1].moves[0].tuple;
        let faulty = TestStore::new(&store).failing_delete(0, victim);
        let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, ExecutorConfig::default());
        assert!(matches!(exec.step(), StepOutcome::Flipped(_)));
        assert!(matches!(
            exec.step(),
            StepOutcome::Aborted {
                batch: 1,
                error: ExecError::Store(_)
            }
        ));
        assert_eq!(exec.progress(), (2, 3), "batch 1 counts as flipped");
        assert_eq!(vs.flipped_batches(), 2);
        // The report counts both flipped batches, batch 1's copies with
        // them: every tuple of the first two batches gained one copy, and
        // only batch 0's drops went through.
        let report = exec.report();
        assert_eq!(report.batches_flipped, exec.progress().0);
        assert_eq!(report.tuples_moved, 4);
        assert_eq!(report.rows_copied, 4);
        assert_eq!(report.rows_dropped, 2);
        let db = MaterializedDb::new();
        for m in &plan.batches[1].moves {
            assert_eq!(vs.locate_tuple(m.tuple, &db), PartitionSet::single(1));
            assert!(store.get(1, m.tuple).unwrap().is_some());
        }
        // The failed drop left its stale copy; nothing was rolled back.
        assert!(store.get(0, victim).unwrap().is_some());
        assert_eq!(exec.step(), StepOutcome::Done);
    }
}
