//! End-to-end: a drifting workload drives the controller, and the
//! resulting plan is executed against shard stores — in memory and on disk
//! — until store contents and routing both match the new placement, with
//! routing flips driven by batch acknowledgements, never ahead of them.

use schism_core::{build_graph, build_lookup_scheme, run_partition_phase, Placement, SchismConfig};
use schism_migrate::{
    ControllerConfig, ExecutorConfig, MigrationController, MigrationExecutor, MigrationOutcome,
    MigrationPlan, StepOutcome, Tick,
};
use schism_router::{PartitionSet, Scheme, VersionedScheme};
use schism_store::{load_assignment, tempdir::TempDir, LogStore, MemStore, ShardStore};
use test_store::total_rows;

#[path = "../../../tests/support/test_store.rs"]
mod test_store;
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::{TupleMap, Workload};
use std::sync::Arc;

const K: u32 = 4;

type Fixture = (
    MigrationOutcome,
    TupleMap<PartitionSet>,
    Arc<dyn Scheme>,
    Arc<dyn Scheme>,
    Workload,
);

/// Drift → plan: bootstrap on window 0, observe window 3. Returns the
/// outcome, the pre-migration placement, and the old/new lookup schemes.
fn drifted_fixture(num_txns: usize) -> Fixture {
    let dcfg = DriftingConfig {
        num_txns,
        ..Default::default()
    };
    let w0 = drifting::window(&dcfg, 0);
    let cfg = SchismConfig::new(K);
    let wg = build_graph(&w0, &w0.trace, &cfg);
    let prev: TupleMap<PartitionSet> = run_partition_phase(&wg, &cfg).assignment.iter().collect();
    let mut ctl = MigrationController::with_assignment(&w0, prev.clone(), ControllerConfig::new(K));
    let w3 = drifting::window(&dcfg, 3);
    let outcome = match ctl.observe(&w3) {
        Tick::Migrate(m) => m,
        Tick::Stable(r) => panic!("drift missed: {}", r.distance),
    };
    let old: Arc<dyn Scheme> = Arc::new(build_lookup_scheme(
        &w0,
        &w0.trace,
        &Placement::from(&prev),
        K,
    ));
    let new: Arc<dyn Scheme> = Arc::new(build_lookup_scheme(
        &w3,
        &w3.trace,
        &Placement::from(ctl.assignment()),
        K,
    ));
    (outcome, prev, old, new, w3)
}

/// Every migrated tuple's row lives on exactly the shards the new
/// placement names, nowhere else.
fn assert_rows_on_new_shards(store: &dyn ShardStore, plan: &MigrationPlan) {
    for m in plan.moves() {
        for shard in 0..K {
            assert_eq!(
                store.get(shard, m.tuple).unwrap().is_some(),
                m.to.contains(shard),
                "tuple {} on shard {shard}",
                m.tuple
            );
        }
    }
}

/// Runs the fixture's plan to completion on `store` (seeded with the
/// pre-migration placement) and checks that store contents and routing
/// both land on the new placement.
fn assert_plan_converges(store: &dyn ShardStore, fixture: &Fixture) {
    let (outcome, prev, old, new, w3) = fixture;

    // Physical shards hold the pre-migration placement.
    load_assignment(store, prev, &*w3.db).expect("seed store");
    let rows_before = total_rows(store);

    let vs = VersionedScheme::new(old.clone(), new.clone());
    let mut exec = MigrationExecutor::new(&outcome.plan, store, &vs, ExecutorConfig::default());
    while let StepOutcome::Flipped(_) = exec.step() {}

    let report = exec.report();
    assert_eq!(report.batches_flipped, outcome.plan.batches.len());
    assert_eq!(report.tuples_moved, outcome.plan.total_moves);
    assert_eq!(report.bytes_copied, outcome.plan.total_bytes);
    assert_eq!(vs.moved_count(), outcome.plan.total_moves);
    assert_eq!(vs.flipped_batches(), outcome.plan.batches.len() as u64);

    // Store contents and routing agree for every migrated tuple, and the
    // versioned scheme resolves to the new epoch.
    for m in outcome.plan.moves() {
        assert_eq!(
            vs.locate_tuple(m.tuple, &*w3.db),
            new.locate_tuple(m.tuple, &*w3.db)
        );
    }
    assert_rows_on_new_shards(store, &outcome.plan);
    // Single-primary placements: copies added == copies dropped, so the
    // store's total row count is preserved by a completed migration.
    let copies_delta: i64 = outcome
        .plan
        .moves()
        .map(|m| i64::from(m.copies_added().len()) - i64::from(m.copies_dropped().len()))
        .sum();
    assert_eq!(total_rows(store) as i64, rows_before as i64 + copies_delta);

    let finalized = vs.finalize();
    assert_eq!(finalized.name(), new.name());
}

/// The controller's plan converges on both backends, and on the
/// persistent one the moved rows survive a reopen from disk.
#[test]
fn executed_plan_converges_store_and_router() {
    let fixture = drifted_fixture(1_500);
    assert!(!fixture.0.plan.is_empty());
    assert_plan_converges(&MemStore::new(K), &fixture);

    let dir = TempDir::new("schism-live-migration").expect("temp dir");
    {
        let log = LogStore::open(dir.path(), K).expect("open LogStore");
        assert_plan_converges(&log, &fixture);
    }
    let reopened = LogStore::open(dir.path(), K).expect("reopen LogStore");
    assert_rows_on_new_shards(&reopened, &fixture.0.plan);
}

/// Routing flips happen inside the batch acknowledgement: after each step
/// the moved-set holds exactly the acknowledged batches' tuples, and every
/// tuple of a batch not yet acknowledged still routes by the old placement.
#[test]
fn moved_set_never_leads_acknowledged_batches() {
    let (outcome, prev, old, new, w3) = drifted_fixture(1_000);
    let plan = &outcome.plan;
    assert!(!plan.is_empty());

    let store = MemStore::new(K);
    load_assignment(&store, &prev, &*w3.db).expect("seed store");
    let vs = VersionedScheme::new(old.clone(), new);
    let mut exec = MigrationExecutor::new(plan, &store, &vs, ExecutorConfig::default());

    let mut acknowledged_tuples = 0;
    for (b, batch) in plan.batches.iter().enumerate() {
        assert_eq!(
            vs.flipped_batches(),
            b as u64,
            "moved-set led the acknowledgement at batch {b}"
        );
        assert_eq!(vs.moved_count(), acknowledged_tuples);
        for m in plan.batches[b..].iter().flat_map(|later| &later.moves) {
            assert!(!vs.is_moved(m.tuple), "tuple {} moved early", m.tuple);
            assert_eq!(
                vs.locate_tuple(m.tuple, &*w3.db),
                old.locate_tuple(m.tuple, &*w3.db)
            );
        }

        match exec.step() {
            StepOutcome::Flipped(r) => assert_eq!(r.batch, b),
            other => panic!("batch {b} must execute cleanly: {other:?}"),
        }
        acknowledged_tuples += batch.moves.len();
        assert_eq!(vs.flipped_batches(), b as u64 + 1);
        assert_eq!(vs.moved_count(), acknowledged_tuples);
        assert!(batch.moves.iter().all(|m| vs.is_moved(m.tuple)));
        assert_eq!(exec.progress().0, b + 1);
    }
    assert_eq!(exec.step(), StepOutcome::Done);
    assert_eq!(vs.flipped_batches(), plan.batches.len() as u64);
    assert_eq!(vs.moved_count(), plan.total_moves);
}
