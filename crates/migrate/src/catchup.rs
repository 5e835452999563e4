//! Shard rejoin: catch-up copies that stream a recovering shard back to
//! the live leaders' state.
//!
//! A shard that crashed and was revived re-enters as
//! [`CatchingUp`](schism_store::HealthState::CatchingUp): it receives
//! every *new* foreground write from the moment its worker respawns, but
//! everything written while it was down is missing, and anything it held
//! at the moment of the crash may be stale. The catch-up path closes that
//! gap by reusing the migration machinery wholesale:
//!
//! 1. [`catch_up_plan`] walks the key universe and emits one
//!    [`TupleMove`] per tuple the recovering shard should hold, with
//!    `from` = the other members of its copy set and `to` = `from ∪ {S}`
//!    — so `copies_added() = {S}` and nothing is ever dropped;
//! 2. [`run_catch_up`] executes that plan with a [`MigrationExecutor`]
//!    over a **throwaway** [`VersionedScheme`] whose old and new epochs
//!    are the same scheme: the copy → verify → flip lifecycle runs
//!    unchanged (including retry-on-mismatch, which is what heals races
//!    with concurrent foreground writes), while the flip is a routing
//!    no-op and `copies_dropped()` is empty everywhere;
//! 3. on completion the shard is flipped
//!    [`Live`](schism_store::HealthState::Live) via
//!    [`HealthMap::mark_live`] — only then does it serve reads and count
//!    toward write quorums again.
//!
//! Because the executor's copy source is always a **live** member (see
//! [`ExecutorConfig::health`]) and verification compares checksums
//! against that live source, every key the rejoining shard ends up with
//! — including any stale pre-crash residue, which the copy overwrites,
//! and any key deleted while it was down, which the tombstone pass-through
//! removes — matches the leader's current state before the shard goes
//! Live.

use crate::executor::{ExecError, ExecutorConfig, ExecutorReport, MigrationExecutor, StepOutcome};
use crate::plan::{pack, MigrationPlan, PlanConfig, TupleMove};
use schism_router::{PartitionSet, Scheme, VersionedScheme};
use schism_store::{HealthMap, ShardId, ShardStore};
use schism_workload::{TupleId, TupleValues};
use std::sync::Arc;

/// Copy re-attempts [`run_catch_up`] allows per batch. Under live traffic
/// a foreground write between copy and verify makes the checksums
/// disagree once, so a handful of retries is normal; the bound only stops
/// a batch that can never verify.
const CATCH_UP_RETRIES: u32 = 1_000_000;

/// Builds the rejoin plan for `shard`: one move per candidate tuple whose
/// copy set (under `scheme`) contains `shard`, copying from the set's
/// *other* members onto `shard` alone. Tuples whose only copy lives on
/// `shard` itself are skipped — there is no surviving source to catch up
/// from, and the shard's own store is the best (only) copy there is.
///
/// `candidates` must cover the key universe the server routes (e.g. every
/// pk of every loaded table); keys that do not map to `shard` cost one
/// routing probe each and produce no move.
pub fn catch_up_plan(
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    candidates: impl IntoIterator<Item = TupleId>,
    shard: ShardId,
    cfg: &PlanConfig,
) -> MigrationPlan {
    let only = PartitionSet::single(shard);
    let moves = candidates.into_iter().filter_map(|t| {
        let to = scheme.locate_tuple(t, db);
        let from = to.difference(&only);
        // Not a member, or the sole owner: nothing to catch up from.
        (to.contains(shard) && !from.is_empty()).then_some(TupleMove { tuple: t, from, to })
    });
    pack(moves, db, cfg)
}

/// Streams `shard` up to the live members' state and flips it Live.
///
/// The shard must already be
/// [`CatchingUp`](schism_store::HealthState::CatchingUp) (its worker
/// respawned and receiving foreground writes — `Server::revive_shard` in
/// `schism-serve` does both); this runs the [`catch_up_plan`] through a
/// [`MigrationExecutor`] with `health` as the copy-source filter, and on
/// success calls [`HealthMap::mark_live`]. On abort (every source of some
/// tuple is gone, or verification kept failing) the shard is **left**
/// catching up: it keeps absorbing writes and the caller may retry.
///
/// Each batch re-copies up to a million times. The returned report is the
/// executor's: `tuples_moved` counts the tuples the shard is a member for,
/// `rows_copied` those minus tombstones, and `retries` is non-zero under
/// concurrent foreground writes — expected, not an error.
pub fn run_catch_up(
    shard: ShardId,
    scheme: &Arc<dyn Scheme>,
    db: &dyn TupleValues,
    candidates: impl IntoIterator<Item = TupleId>,
    store: &dyn ShardStore,
    health: &Arc<HealthMap>,
    cfg: &PlanConfig,
) -> Result<ExecutorReport, ExecError> {
    assert_eq!(
        health.state(shard),
        schism_store::HealthState::CatchingUp,
        "catch-up requires the shard to be revived into CatchingUp first"
    );
    let plan = catch_up_plan(&**scheme, db, candidates, shard, cfg);
    // Same scheme on both sides: flips are routing no-ops, so the
    // executor's lifecycle runs untouched without ever moving a route.
    let vs = VersionedScheme::new(Arc::clone(scheme), Arc::clone(scheme));
    let mut exec = MigrationExecutor::new(
        &plan,
        store,
        &vs,
        ExecutorConfig {
            max_retries: CATCH_UP_RETRIES,
            health: Some(Arc::clone(health)),
        },
    );
    loop {
        match exec.step() {
            StepOutcome::Flipped(_) => {}
            StepOutcome::Done => break,
            StepOutcome::Aborted { error, .. } => return Err(error),
            StepOutcome::Paused => unreachable!("step never pauses"),
        }
    }
    health.mark_live(shard);
    Ok(exec.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_store::wipe_shard;
    use schism_router::{HashScheme, ReplicatedScheme};
    use schism_store::MemStore;
    use schism_workload::MaterializedDb;

    const K: u32 = 4;
    const RF: u32 = 3;
    const N_KEYS: u64 = 48;

    fn keys() -> impl Iterator<Item = TupleId> {
        (0..N_KEYS).map(|r| TupleId::new(0, r))
    }

    fn rf3() -> Arc<dyn Scheme> {
        Arc::new(ReplicatedScheme::new(
            RF,
            Arc::new(HashScheme::by_attrs(K, vec![Some(0)])),
        ))
    }

    /// A store loaded per the scheme's placement, with every shard holding
    /// exactly the rows it routes.
    fn loaded(scheme: &Arc<dyn Scheme>, db: &MaterializedDb) -> MemStore {
        let store = MemStore::new(K);
        for t in keys() {
            for shard in scheme.locate_tuple(t, db).iter() {
                store
                    .put(shard, t, format!("row-{}", t.row).into_bytes())
                    .unwrap();
            }
        }
        store
    }

    #[test]
    fn plan_targets_only_the_rejoining_shard() {
        let scheme = rf3();
        let db = MaterializedDb::new();
        let plan = catch_up_plan(&*scheme, &db, keys(), 2, &PlanConfig::default());
        assert!(!plan.is_empty(), "hash spreads some keys onto shard 2");
        for m in plan.moves() {
            assert_eq!(m.copies_added(), PartitionSet::single(2));
            assert!(m.copies_dropped().is_empty(), "catch-up never drops");
            assert!(!m.from.contains(2));
            assert_eq!(m.from.len(), RF - 1);
        }
        let member_count = keys()
            .filter(|&t| scheme.locate_tuple(t, &db).contains(2))
            .count();
        assert_eq!(plan.total_moves, member_count);
    }

    #[test]
    fn catch_up_heals_a_wiped_shard_and_flips_it_live() {
        let scheme = rf3();
        let db = MaterializedDb::new();
        let store = loaded(&scheme, &db);
        let health = Arc::new(HealthMap::new());
        // Shard 2 crashes losing everything, then is revived empty.
        health.mark_down(2);
        wipe_shard(&store, 2, 0);
        // A key it held is deleted while it is down: catch-up must NOT
        // resurrect it (tombstone pass-through), and a key it held gets
        // overwritten: catch-up must copy the fresh bytes.
        let gone = keys()
            .find(|&t| scheme.locate_tuple(t, &db).contains(2))
            .unwrap();
        for shard in scheme.locate_tuple(gone, &db).iter() {
            store.delete(shard, gone).unwrap();
        }
        assert!(health.begin_catch_up(2));
        let report = run_catch_up(
            2,
            &scheme,
            &db,
            keys(),
            &store,
            &health,
            &PlanConfig::default(),
        )
        .unwrap();
        assert_eq!(health.state(2), schism_store::HealthState::Live);
        assert_eq!(health.rejoins(), 1);
        assert_eq!(
            report.rows_copied,
            report.tuples_moved as u64 - 1,
            "one tombstone"
        );
        // Every key shard 2 routes is back, byte-identical to the leader.
        for t in keys() {
            let copies = scheme.locate_tuple(t, &db);
            if !copies.contains(2) {
                continue;
            }
            let src = copies.difference(&PartitionSet::single(2)).first().unwrap();
            assert_eq!(store.get(2, t).unwrap(), store.get(src, t).unwrap());
        }
        assert!(store.get(2, gone).unwrap().is_none(), "tombstone honored");
    }

    #[test]
    fn catch_up_aborts_when_every_source_is_down() {
        let scheme = rf3();
        let db = MaterializedDb::new();
        let store = loaded(&scheme, &db);
        let health = Arc::new(HealthMap::new());
        // Take down an entire replica group's other members: shard 2's
        // keys led by 0 have copies on {0, 1, 2}; kill 0 and 1 too.
        for s in [0, 1, 2] {
            health.mark_down(s);
        }
        assert!(health.begin_catch_up(2));
        let err = run_catch_up(
            2,
            &scheme,
            &db,
            keys(),
            &store,
            &health,
            &PlanConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MissingSource(_)));
        assert_eq!(
            health.state(2),
            schism_store::HealthState::CatchingUp,
            "a failed catch-up leaves the shard catching up for retry"
        );
    }
}
