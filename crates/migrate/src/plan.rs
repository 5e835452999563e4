//! Migration planning: diff two placements into a throttled, batched move
//! plan.
//!
//! A [`TupleMove`] records one tuple's copy-set transition `from → to`;
//! partitions in `to \ from` receive a copy, partitions in `from \ to` drop
//! theirs once the move commits. Moves are packed into [`MigrationBatch`]es
//! under per-batch row *and* byte budgets — the executor's throttle unit:
//! one batch is what a live system copies, then marks moved in the
//! [`schism_router::VersionedScheme`], before yielding to foreground
//! traffic.
//!
//! Only tuples present in **both** assignments generate moves: a tuple seen
//! for the first time has no authoritative copy to relocate (the lookup
//! scheme's miss policy places it), and a tuple that vanished from the
//! trace keeps its old home until a later plan touches it.

use schism_router::PartitionSet;
use schism_workload::{TupleId, TupleValues};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// One tuple's placement change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TupleMove {
    pub tuple: TupleId,
    /// Copy set before the migration.
    pub from: PartitionSet,
    /// Copy set after the migration.
    pub to: PartitionSet,
}

impl TupleMove {
    /// Partitions that must receive a copy.
    pub fn copies_added(&self) -> PartitionSet {
        self.to.difference(&self.from)
    }

    /// Partitions that drop their copy after commit.
    pub fn copies_dropped(&self) -> PartitionSet {
        self.from.difference(&self.to)
    }
}

/// Row budget for one batch; the byte budget is [`MAX_BYTES_PER_BATCH`].
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Maximum tuples per batch.
    pub max_rows_per_batch: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            max_rows_per_batch: 1_000,
        }
    }
}

/// One throttle unit of work.
#[derive(Clone, Debug, Default)]
pub struct MigrationBatch {
    pub moves: Vec<TupleMove>,
    /// Payload bytes this batch copies.
    pub bytes: u64,
}

/// The full, ordered move plan between two placements.
#[derive(Clone, Debug, Default)]
pub struct MigrationPlan {
    pub batches: Vec<MigrationBatch>,
    pub total_moves: usize,
    pub total_bytes: u64,
}

impl MigrationPlan {
    pub fn is_empty(&self) -> bool {
        self.total_moves == 0
    }

    /// All moves in plan order.
    pub fn moves(&self) -> impl Iterator<Item = &TupleMove> + '_ {
        self.batches.iter().flat_map(|b| b.moves.iter())
    }
}

/// Diffs `old` against `new` and packs the changed tuples into batches.
///
/// Deterministic: moves are emitted in `TupleId` order regardless of map
/// iteration order, so the same pair of assignments always yields the same
/// plan.
pub fn plan_migration(
    old: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    new: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    db: &dyn TupleValues,
    cfg: &PlanConfig,
) -> MigrationPlan {
    let mut moves: Vec<TupleMove> = new
        .iter()
        .filter_map(|(&t, &to)| {
            let &from = old.get(&t)?;
            (from != to).then_some(TupleMove { tuple: t, from, to })
        })
        .collect();
    moves.sort_unstable_by_key(|m| m.tuple);
    pack(moves, db, cfg)
}

/// Maximum payload bytes per batch: a tuple's bytes count once per
/// receiving partition.
pub const MAX_BYTES_PER_BATCH: u64 = 16 << 20;

/// Packs `moves`, in the order given, into batches under `cfg`'s row
/// budget and [`MAX_BYTES_PER_BATCH`] — the one packer behind every plan (a
/// migration's and a rejoin's catch-up).
pub(crate) fn pack(
    moves: impl IntoIterator<Item = TupleMove>,
    db: &dyn TupleValues,
    cfg: &PlanConfig,
) -> MigrationPlan {
    assert!(cfg.max_rows_per_batch >= 1);
    let mut plan = MigrationPlan::default();
    let mut batch = MigrationBatch::default();
    for m in moves {
        // Payload is copy bandwidth only: a drop-only move (replication
        // shrink) transfers no bytes; it still occupies a row slot in its
        // batch because the executor must process (and mark) it.
        let payload = u64::from(db.tuple_bytes(m.tuple.table)) * u64::from(m.copies_added().len());
        let would_overflow = !batch.moves.is_empty()
            && (batch.moves.len() >= cfg.max_rows_per_batch
                || batch.bytes + payload > MAX_BYTES_PER_BATCH);
        if would_overflow {
            plan.batches.push(std::mem::take(&mut batch));
        }
        batch.bytes += payload;
        plan.total_bytes += payload;
        batch.moves.push(m);
        plan.total_moves += 1;
    }
    if !batch.moves.is_empty() {
        plan.batches.push(batch);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::MaterializedDb;

    fn asg(pairs: &[(u64, u32)]) -> HashMap<TupleId, PartitionSet> {
        pairs
            .iter()
            .map(|&(r, p)| (TupleId::new(0, r), PartitionSet::single(p)))
            .collect()
    }

    #[test]
    fn diff_only_changed_tuples_in_order() {
        let old = asg(&[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let new = asg(&[(0, 0), (1, 1), (2, 0), (3, 1), (9, 0)]);
        let plan = plan_migration(&old, &new, &MaterializedDb::new(), &PlanConfig::default());
        let rows: Vec<u64> = plan.moves().map(|m| m.tuple.row).collect();
        assert_eq!(rows, vec![1, 2], "only changed & common tuples, sorted");
        assert_eq!(plan.total_moves, 2);
    }

    #[test]
    fn batches_respect_row_budget() {
        let old = asg(&(0..25).map(|r| (r, 0)).collect::<Vec<_>>());
        let new = asg(&(0..25).map(|r| (r, 1)).collect::<Vec<_>>());
        let cfg = PlanConfig {
            max_rows_per_batch: 10,
        };
        let plan = plan_migration(&old, &new, &MaterializedDb::new(), &cfg);
        let sizes: Vec<usize> = plan.batches.iter().map(|b| b.moves.len()).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
        assert_eq!(plan.total_moves, 25);
    }

    #[test]
    fn batches_respect_byte_budget() {
        // Tuples of 40% of the budget: two fit a batch, a third would not.
        let tuple_bytes = MAX_BYTES_PER_BATCH * 2 / 5;
        let mut db = MaterializedDb::new();
        let t = db.add_table(1);
        db.set_tuple_bytes(t, u32::try_from(tuple_bytes).unwrap());
        let old = asg(&(0..10).map(|r| (r, 0)).collect::<Vec<_>>());
        let new = asg(&(0..10).map(|r| (r, 1)).collect::<Vec<_>>());
        let plan = plan_migration(&old, &new, &db, &PlanConfig::default());
        for b in &plan.batches {
            assert!(b.bytes <= MAX_BYTES_PER_BATCH, "batch bytes {}", b.bytes);
        }
        assert_eq!(plan.total_bytes, 10 * tuple_bytes);
        assert_eq!(plan.batches.len(), 5);
    }

    #[test]
    fn replication_changes_count_copy_bytes() {
        let old = asg(&[(0, 0)]);
        let mut new = HashMap::new();
        new.insert(
            TupleId::new(0, 0),
            [0u32, 1, 2].into_iter().collect::<PartitionSet>(),
        );
        let plan = plan_migration(&old, &new, &MaterializedDb::new(), &PlanConfig::default());
        assert_eq!(plan.total_moves, 1);
        let m = plan.moves().next().unwrap();
        assert_eq!(m.copies_added().iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(m.copies_dropped().is_empty());
        assert_eq!(plan.total_bytes, 2 * 64, "64 default bytes x 2 new copies");
    }

    #[test]
    fn drop_only_moves_carry_no_payload() {
        // Replication shrink {0,1} -> {0}: a move (the replica must be
        // dropped and the tuple marked) but zero copy bytes, so it never
        // trips the byte throttle.
        let mut old = HashMap::new();
        old.insert(
            TupleId::new(0, 0),
            [0u32, 1].into_iter().collect::<PartitionSet>(),
        );
        let new = asg(&[(0, 0)]);
        let plan = plan_migration(&old, &new, &MaterializedDb::new(), &PlanConfig::default());
        assert_eq!(plan.total_moves, 1);
        assert_eq!(plan.total_bytes, 0);
        assert_eq!(plan.batches.len(), 1);
        let m = plan.moves().next().unwrap();
        assert!(m.copies_added().is_empty());
        assert_eq!(m.copies_dropped().iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn empty_diff_empty_plan() {
        let a = asg(&[(0, 0)]);
        let plan = plan_migration(&a, &a, &MaterializedDb::new(), &PlanConfig::default());
        assert!(plan.is_empty());
        assert!(plan.batches.is_empty());
    }
}
