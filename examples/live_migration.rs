//! Live migration, end to end: drift → detect → plan → execute → flip.
//!
//! A drifting hot-key workload is bootstrapped onto physical shard stores
//! — in-memory by default, or the persistent log-structured [`LogStore`]
//! with `--backend log`. When the hot spot rotates, the
//! [`MigrationController`] detects the drift, re-partitions warm, and
//! emits a batched move plan; a [`MigrationExecutor`] then runs that plan
//! against the shards — copying each batch's rows, verifying count +
//! checksum, and flipping routing in the [`VersionedScheme`] only on the
//! verified acknowledgement. At the end, routing and physical bytes
//! agree, shard by shard (and with `--backend log`, survive the process).
//!
//! ```text
//! cargo run --release -p schism --example live_migration [-- --backend mem|log]
//! ```

use schism::core::{
    build_graph, build_lookup_scheme, run_partition_phase, Placement, SchismConfig,
};
use schism::migrate::{
    ControllerConfig, ExecutorConfig, MigrationController, MigrationExecutor, StepOutcome, Tick,
};
use schism::router::{PartitionSet, Scheme, VersionedScheme};
use schism::store::{
    load_assignment, tempdir::TempDir, BackendKind, LogStore, MemStore, ShardStore,
};
use schism::workload::drifting::{self, DriftingConfig};
use schism::workload::TupleMap;
use std::sync::Arc;

fn main() {
    let backend: BackendKind = std::env::args()
        .skip_while(|a| a != "--backend")
        .nth(1)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or(BackendKind::Mem);
    let k = 4u32;
    let dcfg = DriftingConfig {
        records: 3_200,
        num_txns: 4_000,
        drift_blocks_per_window: 20,
        ..Default::default()
    };

    // Bootstrap: partition window 0 and materialize it on physical shards.
    let w0 = drifting::window(&dcfg, 0);
    let cfg = SchismConfig::new(k);
    let wg = build_graph(&w0, &w0.trace, &cfg);
    let placement: TupleMap<PartitionSet> =
        run_partition_phase(&wg, &cfg).assignment.iter().collect();
    let store_dir = TempDir::new("schism-example-live-migration").expect("temp dir");
    let store: Box<dyn ShardStore> = match backend {
        BackendKind::Mem => Box::new(MemStore::new(k)),
        BackendKind::Log => Box::new(LogStore::open(store_dir.path(), k).expect("open LogStore")),
    };
    let seeded = load_assignment(&*store, &placement, &*w0.db).expect("seed shards");
    println!("bootstrap: {seeded} tuples placed on {k} {backend} shards");
    for shard in 0..k {
        let s = store.stats(shard).unwrap();
        println!("  shard {shard}: {:>5} rows, {:>6} bytes", s.rows, s.bytes);
    }

    // Drift: the hot spot has rotated by window 3. Small batches so the
    // copy → verify → flip lifecycle is visible per batch.
    let mut ccfg = ControllerConfig::new(k);
    ccfg.plan.max_rows_per_batch = 200;
    let mut ctl = MigrationController::with_assignment(&w0, placement.clone(), ccfg);
    let w3 = drifting::window(&dcfg, 3);
    let outcome = match ctl.observe(&w3) {
        Tick::Migrate(m) => m,
        Tick::Stable(r) => panic!("drift missed: distance {}", r.distance),
    };
    println!(
        "\nwindow 3: drift {:.3} — plan: {} moves in {} batches, {:.1} KiB",
        outcome.report.distance,
        outcome.plan.total_moves,
        outcome.plan.batches.len(),
        outcome.plan.total_bytes as f64 / 1024.0,
    );

    // Execute: copy → verify → flip, batch by batch.
    let old: Arc<dyn Scheme> = Arc::new(build_lookup_scheme(
        &w0,
        &w0.trace,
        &Placement::from(&placement),
        k,
    ));
    let new: Arc<dyn Scheme> = Arc::new(build_lookup_scheme(
        &w3,
        &w3.trace,
        &Placement::from(ctl.assignment()),
        k,
    ));
    let vs = VersionedScheme::new(old, new.clone());
    let mut exec = MigrationExecutor::new(&outcome.plan, &*store, &vs, ExecutorConfig::default());
    loop {
        match exec.step() {
            StepOutcome::Flipped(b) => println!(
                "  batch {:>3}: copied {:>4} rows ({:>6} B), dropped {:>4}, retries {} — flipped",
                b.batch, b.rows_copied, b.bytes_copied, b.rows_dropped, b.retries
            ),
            StepOutcome::Done => break,
            other => panic!("unexpected executor outcome: {other:?}"),
        }
    }
    let report = exec.report();
    println!(
        "\nexecuted: {} batches, {} tuples, {} rows / {} bytes copied, moved-set at {}",
        report.batches_flipped,
        report.tuples_moved,
        report.rows_copied,
        report.bytes_copied,
        vs.moved_count(),
    );

    // Verify convergence: routing and bytes agree for every moved tuple.
    let mut checked = 0usize;
    for m in outcome.plan.moves() {
        assert_eq!(
            vs.locate_tuple(m.tuple, &*w3.db),
            new.locate_tuple(m.tuple, &*w3.db),
            "routing must follow the flip"
        );
        for shard in 0..k {
            assert_eq!(
                store.get(shard, m.tuple).unwrap().is_some(),
                m.to.contains(shard),
                "tuple {} on shard {shard}",
                m.tuple
            );
        }
        checked += 1;
    }
    println!("verified: store contents and routing agree for {checked} moved tuples");
    for shard in 0..k {
        let s = store.stats(shard).unwrap();
        println!("  shard {shard}: {:>5} rows, {:>6} bytes", s.rows, s.bytes);
    }

    // The epoch ends: the new scheme alone is authoritative.
    let finalized = vs.finalize();
    println!(
        "\nepoch finalized: router now serves \"{}\"",
        finalized.name()
    );

    // With the persistent backend, the migrated bytes outlive the store
    // handle: drop it, reopen the same segment files, and re-check a moved
    // tuple's new home.
    if backend == BackendKind::Log {
        drop(store);
        let reopened = LogStore::open(store_dir.path(), k).expect("reopen LogStore");
        let mut survived = 0usize;
        for m in outcome.plan.moves() {
            for shard in 0..k {
                assert_eq!(
                    reopened.get(shard, m.tuple).unwrap().is_some(),
                    m.to.contains(shard),
                    "tuple {} on shard {shard} after reopen",
                    m.tuple
                );
            }
            survived += 1;
        }
        println!(
            "reopened {} segment files: all {survived} moved tuples still in their new homes",
            k
        );
    }
}
