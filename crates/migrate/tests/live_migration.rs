//! End-to-end: a drifting workload drives the controller, the resulting
//! plan is executed against in-memory shard stores while the simulator
//! shows the migration's throughput tax — with routing flips driven by
//! batch acknowledgements, never ahead of them.

use schism_core::{build_graph, run_partition_phase, SchismConfig};
use schism_migrate::{ControllerConfig, MigrationController, MigrationPlan, StepOutcome, Tick};
use schism_router::{Scheme, VersionedScheme};
use schism_sim::{run, MigrationSource, PoolSource, SimConfig, SimTxn};
use schism_store::{load_assignment, MemStore, ShardStore};
use schism_workload::drifting::{self, DriftingConfig};
use std::sync::Arc;

const K: u32 = 4;

/// The plan's copy traffic as the simulator sees it, batch for batch
/// (drop-only moves render to nothing: no bytes cross the wire).
fn copy_batches(plan: &MigrationPlan) -> Vec<Vec<SimTxn>> {
    plan.batches
        .iter()
        .map(|b| {
            b.moves
                .iter()
                .filter_map(|m| SimTxn::copy(m.tuple, m.from.first()?, m.copies_added()))
                .collect()
        })
        .collect()
}

fn controller_at_window0(dcfg: &DriftingConfig) -> MigrationController {
    let w0 = drifting::window(dcfg, 0);
    MigrationController::bootstrap(&w0, ControllerConfig::new(K))
}

#[test]
fn migration_traffic_costs_throughput_then_recovers() {
    let dcfg = DriftingConfig {
        num_txns: 2_000,
        ..Default::default()
    };
    let mut ctl = controller_at_window0(&dcfg);
    let w2 = drifting::window(&dcfg, 2);
    let outcome = match ctl.observe(&w2) {
        Tick::Migrate(m) => m,
        Tick::Stable(r) => panic!("drift missed: {}", r.distance),
    };
    assert!(!outcome.plan.is_empty());

    // Foreground: the drifted window routed through the *new* placement.
    let scheme = schism_core::build_lookup_scheme(&w2, &w2.trace, ctl.assignment(), K);
    let pool = SimTxn::from_trace(&w2.trace, &scheme, &*w2.db);
    let sim_cfg = SimConfig {
        num_servers: K,
        num_clients: 40,
        duration: 4_000_000,
        warmup: 1_000_000,
        ..SimConfig::default()
    };
    let quiet = run(&sim_cfg, &mut PoolSource::new(pool.clone()));

    // Same foreground plus copy traffic, one move per 2 txns. The plan's
    // own queue drains in a fraction of the run, so cycle it into a
    // sustained stream that outlives the measurement window — modeling a
    // long-running migration at this throttle.
    let moves: Vec<SimTxn> = copy_batches(&outcome.plan).into_iter().flatten().collect();
    assert!(!moves.is_empty(), "plan must induce copy transactions");
    assert!(
        moves.iter().all(SimTxn::is_distributed),
        "copies cross servers"
    );
    let sustained: Vec<SimTxn> = moves.iter().cloned().cycle().take(60_000).collect();
    let mut source = MigrationSource::new(PoolSource::new(pool), sustained, 2);
    let busy = run(&sim_cfg, &mut source);
    assert!(
        !source.drained(),
        "copy stream must outlive the run for the tax to be measurable"
    );

    assert!(
        busy.throughput < 0.9 * quiet.throughput,
        "migration traffic must cost throughput: {} vs {}",
        busy.throughput,
        quiet.throughput
    );
    assert!(
        busy.p99_latency_ms > 0.0 && busy.p99_latency_ms >= busy.p95_latency_ms,
        "mid-migration p99 must be reported: {busy:?}"
    );
}

type Placement = std::collections::HashMap<schism_workload::TupleId, schism_router::PartitionSet>;
type Fixture = (
    schism_migrate::MigrationOutcome,
    Placement,
    Arc<dyn Scheme>,
    Arc<dyn Scheme>,
    schism_workload::Workload,
);

/// Builds the drift → plan fixture: outcome, pre-migration placement, and
/// the old/new lookup schemes.
fn drifted_fixture(num_txns: usize) -> Fixture {
    let dcfg = DriftingConfig {
        num_txns,
        ..Default::default()
    };
    let w0 = drifting::window(&dcfg, 0);
    let cfg = SchismConfig::new(K);
    let wg = build_graph(&w0, &w0.trace, &cfg);
    let prev = run_partition_phase(&wg, &cfg).assignment;

    let mut ctl = MigrationController::with_assignment(&w0, prev.clone(), ControllerConfig::new(K));
    let w3 = drifting::window(&dcfg, 3);
    let outcome = match ctl.observe(&w3) {
        Tick::Migrate(m) => m,
        Tick::Stable(r) => panic!("drift missed: {}", r.distance),
    };

    let old: Arc<dyn Scheme> = Arc::new(schism_core::build_lookup_scheme(&w0, &w0.trace, &prev, K));
    let new: Arc<dyn Scheme> = Arc::new(schism_core::build_lookup_scheme(
        &w3,
        &w3.trace,
        ctl.assignment(),
        K,
    ));
    (outcome, prev, old, new, w3)
}

#[test]
fn executed_plan_converges_store_and_router() {
    let (outcome, prev, old, new, w3) = drifted_fixture(1_500);

    // Physical shards hold the pre-migration placement.
    let store = MemStore::new(K);
    load_assignment(&store, &prev, &*w3.db).expect("seed store");
    let rows_before = store.total_rows();

    let vs = VersionedScheme::new(old, new.clone());
    let mut exec = outcome.executor(&store, &vs);
    assert_eq!(exec.run_to_completion(), StepOutcome::Done);
    assert!(exec.is_complete());

    let report = exec.report();
    assert_eq!(report.batches_flipped, outcome.plan.batches.len());
    assert_eq!(report.tuples_moved, outcome.plan.total_moves);
    assert_eq!(report.bytes_copied, outcome.plan.total_bytes);
    assert_eq!(vs.moved_count(), outcome.plan.total_moves);
    assert_eq!(vs.flipped_batches(), outcome.plan.batches.len() as u64);

    // Store contents and routing agree for every migrated tuple: the row
    // lives on exactly the shards the new placement names, nowhere else,
    // and the versioned scheme resolves to the new epoch.
    for m in outcome.plan.moves() {
        assert_eq!(
            vs.locate_tuple(m.tuple, &*w3.db),
            new.locate_tuple(m.tuple, &*w3.db)
        );
        for shard in 0..K {
            assert_eq!(
                store.get(shard, m.tuple).unwrap().is_some(),
                m.to.contains(shard),
                "tuple {} on shard {shard}",
                m.tuple
            );
        }
    }
    // Single-primary placements: copies added == copies dropped, so the
    // store's total row count is preserved by a completed migration.
    let copies_delta: i64 = outcome
        .plan
        .moves()
        .map(|m| i64::from(m.copies_added().len()) - i64::from(m.copies_dropped().len()))
        .sum();
    assert_eq!(store.total_rows() as i64, rows_before as i64 + copies_delta);

    let finalized = vs.finalize();
    assert_eq!(finalized.name(), new.name());
}

/// Regression for the optimistic moved-set advance: with the
/// acknowledgement-gated source, routing flips happen *inside* the batch
/// acknowledgement, so the moved-set can never lead the copy traffic the
/// cluster has actually absorbed.
#[test]
fn moved_set_never_leads_acknowledged_batches() {
    let (outcome, prev, old, new, w3) = drifted_fixture(1_000);

    let store = MemStore::new(K);
    load_assignment(&store, &prev, &*w3.db).expect("seed store");
    let vs = VersionedScheme::new(old, new);
    let mut exec = outcome.executor(&store, &vs);

    // Foreground traffic routed through the versioned scheme (the live
    // epoch), plus the plan's copy batches gated on executor progress.
    let pool = SimTxn::from_trace(&w3.trace, &vs, &*w3.db);
    let batches = copy_batches(&outcome.plan);
    let total_batches = batches.len();
    let mut source = MigrationSource::batched(
        PoolSource::new(pool),
        batches,
        1,
        Some(Box::new(|b| {
            // The invariant under test: when batch b's traffic has just
            // been issued, exactly b batches have been acknowledged.
            assert_eq!(
                vs.flipped_batches(),
                b as u64,
                "moved-set led the acknowledgement at batch {b}"
            );
            let flipped = matches!(exec.step(), StepOutcome::Flipped(_));
            assert!(flipped, "batch {b} must execute cleanly");
            assert_eq!(vs.flipped_batches(), b as u64 + 1);
            true
        })),
    );
    let sim_cfg = SimConfig {
        num_servers: K,
        num_clients: 40,
        duration: 8_000_000,
        warmup: 500_000,
        ..SimConfig::default()
    };
    let report = run(&sim_cfg, &mut source);
    assert!(report.completed > 0);

    // However far the run got, flips equal acknowledged batches exactly.
    let issued = source.batches_issued();
    assert_eq!(vs.flipped_batches(), issued as u64);
    assert!(
        issued > 0,
        "sim run must make migration progress (plan has {total_batches} batches)"
    );
    drop(source);
    assert_eq!(exec.progress().0, issued);
}
