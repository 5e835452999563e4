//! Property-based invariants of the migration *executor*: stopping a
//! migration at any batch boundary — or having a batch fail its copy
//! verification — must leave the system consistent: every key routable to
//! exactly one owner whose shard physically holds the row, and the stores
//! bit-identical to the pre-migration state for every unflipped batch.

use proptest::prelude::*;
use schism_migrate::{plan_migration, ExecutorConfig, MigrationExecutor, PlanConfig, StepOutcome};
use schism_router::{
    IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet, Scheme, VersionedScheme,
};
use schism_store::{load_assignment, seed_row, MemStore, ShardStore};
use schism_workload::{MaterializedDb, TupleId};
use std::collections::HashMap;
use std::sync::Arc;
use test_store::TestStore;

#[path = "support/test_store.rs"]
mod test_store;

fn assignment(pairs: &[(u64, u32)]) -> HashMap<TupleId, PartitionSet> {
    pairs
        .iter()
        .map(|&(r, p)| (TupleId::new(0, r), PartitionSet::single(p)))
        .collect()
}

/// Single-owner lookup scheme over an explicit row→partition map.
fn lookup_scheme(asg: &HashMap<TupleId, PartitionSet>, k: u32) -> Arc<dyn Scheme> {
    let entries: Vec<(u64, PartitionSet)> = asg.iter().map(|(t, &p)| (t.row, p)).collect();
    Arc::new(LookupScheme::new(
        k,
        vec![Some(
            Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>
        )],
        vec![None],
        MissPolicy::HashRow,
    ))
}

/// Asserts the global single-owner + bytes-match-routing invariant, plus
/// pre-migration store state for every batch that did not flip.
fn check_consistency(
    store: &MemStore,
    vs: &VersionedScheme,
    exec: &MigrationExecutor<'_>,
    plan: &schism_migrate::MigrationPlan,
    old: &HashMap<TupleId, PartitionSet>,
    k: u32,
) {
    let db = MaterializedDb::new();
    // Which tuples flipped is decided batch-wise by the executor: the
    // flipped batches are the prefix `progress` counts.
    let flipped_tuples: std::collections::HashSet<TupleId> = plan.batches[..exec.progress().0]
        .iter()
        .flat_map(|b| b.moves.iter().map(|m| m.tuple))
        .collect();
    for (&t, &old_owner) in old {
        let loc = vs.locate_tuple(t, &db);
        assert_eq!(loc.len(), 1, "tuple {t} has {} owners", loc.len());
        // The routed owner physically holds the row…
        let owner = loc.first().unwrap();
        assert!(
            store.get(owner, t).unwrap().is_some(),
            "tuple {t} routed to shard {owner} which does not hold it"
        );
        if !flipped_tuples.contains(&t) {
            // …and an unflipped tuple is exactly where it started, with
            // its original bytes, on its original shards only.
            assert_eq!(loc, old_owner, "unflipped tuple {t} routed off its owner");
            for shard in 0..k {
                let row = store.get(shard, t).unwrap();
                if old_owner.contains(shard) {
                    assert_eq!(
                        row,
                        Some(seed_row(t, 64)),
                        "unflipped tuple {t} altered on shard {shard}"
                    );
                } else {
                    assert_eq!(row, None, "unflipped tuple {t} leaked to shard {shard}");
                }
            }
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Stop stepping after an arbitrary number of flipped batches: the
    /// moved-set equals the flipped prefix, every key has exactly one
    /// owner backed by real bytes, and unflipped batches left no trace in
    /// the stores.
    #[test]
    fn abort_at_any_batch_boundary_is_consistent(
        rows in prop::collection::vec((0..120u64, 0..5u32, 0..5u32), 1..80),
        max_rows in 1..8usize,
        stop_pick in 0..1000usize,
    ) {
        let k = 5u32;
        let mut old_pairs: Vec<(u64, u32)> = Vec::new();
        let mut new_pairs: Vec<(u64, u32)> = Vec::new();
        for &(r, po, pn) in &rows {
            old_pairs.push((r, po));
            new_pairs.push((r, pn));
        }
        let old = assignment(&old_pairs);
        let new = assignment(&new_pairs);
        let db = MaterializedDb::new();
        let store = MemStore::new(k);
        load_assignment(&store, &old, &db).unwrap();
        let vs = VersionedScheme::new(lookup_scheme(&old, k), lookup_scheme(&new, k));
        let plan = plan_migration(&old, &new, &db, &PlanConfig {
            max_rows_per_batch: max_rows,
        });

        let mut exec = MigrationExecutor::new(&plan, &store, &vs, ExecutorConfig::default());
        let stop_after = stop_pick % (plan.batches.len() + 1);
        // The moved-set advances with each acknowledged batch, never ahead.
        for i in 0..stop_after {
            match exec.step() {
                StepOutcome::Flipped(b) => prop_assert_eq!(b.batch, i),
                other => prop_assert!(false, "batch {} did not flip: {:?}", i, other),
            }
            prop_assert_eq!(vs.flipped_batches(), i as u64 + 1);
            prop_assert_eq!(exec.progress().0, i + 1);
        }
        prop_assert_eq!(exec.progress().0, stop_after);
        prop_assert_eq!(vs.flipped_batches(), stop_after as u64);

        check_consistency(&store, &vs, &exec, &plan, &old, k);
        // Flipped tuples route (and live) on their new placement.
        for (i, b) in plan.batches.iter().enumerate() {
            if i < stop_after {
                for m in &b.moves {
                    prop_assert_eq!(vs.locate_tuple(m.tuple, &db), m.to);
                }
            }
        }
    }

    /// A batch whose copies never verify aborts the migration mid-plan;
    /// the failed batch rolls back and the same invariants hold.
    #[test]
    fn verify_failure_rolls_back_and_stays_consistent(
        rows in prop::collection::vec((0..80u64, 0..4u32, 0..4u32), 4..60),
        max_rows in 1..6usize,
        bad_pick in 0..1000usize,
    ) {
        let k = 4u32;
        let mut old_pairs: Vec<(u64, u32)> = Vec::new();
        let mut new_pairs: Vec<(u64, u32)> = Vec::new();
        for &(r, po, pn) in &rows {
            old_pairs.push((r, po));
            new_pairs.push((r, pn));
        }
        let old = assignment(&old_pairs);
        let new = assignment(&new_pairs);
        let db = MaterializedDb::new();
        let store = MemStore::new(k);
        load_assignment(&store, &old, &db).unwrap();
        let vs = VersionedScheme::new(lookup_scheme(&old, k), lookup_scheme(&new, k));
        let plan = plan_migration(&old, &new, &db, &PlanConfig {
            max_rows_per_batch: max_rows,
        });
        if plan.batches.is_empty() {
            return; // nothing changed placement; nothing to corrupt
        }

        // Corrupt one batch's first copy on both its attempts: it can never
        // verify.
        let bad = bad_pick % plan.batches.len();
        let victim = plan.batches[bad]
            .moves
            .iter()
            .find(|m| !m.copies_added().is_empty())
            .map(|m| m.tuple);
        let faulty = match victim {
            Some(t) => TestStore::new(&store).corrupting(t, 2),
            None => TestStore::new(&store),
        };
        let cfg = ExecutorConfig {
            max_retries: 1,
            ..ExecutorConfig::default()
        };
        let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, cfg);
        // A batch with no copied bytes (all drop-only moves) has nothing to
        // corrupt, so nothing fails verification — the executor completes.
        let outcome = run(&mut exec);
        if victim.is_none() {
            prop_assert_eq!(outcome, StepOutcome::Done);
            prop_assert_eq!(exec.progress().0, plan.batches.len());
        } else {
            prop_assert_eq!(outcome, StepOutcome::Aborted {
                batch: bad,
                error: schism_migrate::ExecError::VerifyFailed { batch: bad, attempts: 2 },
            });
            prop_assert_eq!(vs.flipped_batches(), bad as u64);
            check_consistency(&store, &vs, &exec, &plan, &old, k);
        }
    }
}
