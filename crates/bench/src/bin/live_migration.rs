//! **Live-migration executor benchmark** — the full `drift → detect →
//! plan → execute → flip` loop against real shard stores, reporting
//! *executed* migration throughput (rows/bytes actually copied and
//! verified, per tick). What a migration in flight costs foreground
//! statements is the benchmark's `serve_migrate` workload, measured on the
//! real server.
//!
//! Two measurements:
//!
//! 1. **standalone executor** — the plan runs back to back (one tick = one
//!    batch lifecycle: copy, verify, flip); per-batch wall-clock gives copy
//!    throughput in rows/s and MiB/s.
//! 2. **calibration** (`--calibrate`) — the timed batches from (1) are fit
//!    into a [`MigrationCostModel`]; the fit is validated on held-out
//!    batches (predicted vs measured must stay within 2×), mapped back
//!    onto planner budgets via `PlanConfig::for_target_batch_duration`,
//!    and recorded as the `"calibrate"` section of
//!    `crates/bench/BENCH_store.json`. A batch whose step
//!    compacted a `LogStore` segment is printed with its ratio but neither
//!    fit nor judged (`"compaction_batches"` in the JSON): the model
//!    prices copies, not segment rewrites.
//!
//! ```text
//! cargo run --release -p schism-bench --bin live_migration \
//!     [--full] [--backend mem|log] [--calibrate]
//! ```
//!
//! `--backend log` runs every store in this benchmark on the persistent
//! [`LogStore`] (segment files under a temp dir,
//! honoring `TMPDIR`), so
//! the measured copy rates include real record framing, checksums, and
//! file appends — those are the numbers worth calibrating against.

use schism_bench::table::Table;
use schism_core::{build_graph, build_lookup_scheme, run_partition_phase, SchismConfig};
use schism_migrate::{
    ControllerConfig, CostSample, MigrationController, MigrationCostModel, PlanConfig, StepOutcome,
    Tick,
};
use schism_router::VersionedScheme;
use schism_store::{
    load_assignment, tempdir::TempDir, BackendKind, LogStore, MemStore, ShardStore,
};
use schism_workload::drifting::{self, DriftingConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    schism_bench::reject_unknown_args(&["--full", "--backend", "--calibrate"]);
    let full = schism_bench::full_scale();
    let backend = schism_bench::backend_kind();
    let calibrate = schism_bench::flag("--calibrate");
    let store_dir = TempDir::new("schism-live-migration").expect("temp dir for stores");
    let k = 8u32;
    let dcfg = DriftingConfig {
        records: if full { 16_000 } else { 3_200 },
        num_txns: if full { 20_000 } else { 5_000 },
        drift_blocks_per_window: if full { 80 } else { 16 },
        ..Default::default()
    };

    // Bootstrap placement + physical shards from window 0.
    let w0 = drifting::window(&dcfg, 0);
    let cfg = SchismConfig::new(k);
    let wg = build_graph(&w0, &w0.trace, &cfg);
    let placement = run_partition_phase(&wg, &cfg).assignment;
    println!(
        "bootstrap on {}: {} tuples over {k} shards, backend {backend}",
        w0.name,
        placement.len()
    );

    // Drift to window 3 → plan. Batch budget sized so the plan spans many
    // ticks (one tick = one copy/verify/flip lifecycle).
    let mut ccfg = ControllerConfig::new(k);
    ccfg.plan.max_rows_per_batch = if full { 256 } else { 64 };
    let mut ctl = MigrationController::with_assignment(&w0, placement.clone(), ccfg);
    let w3 = drifting::window(&dcfg, 3);
    let outcome = match ctl.observe(&w3) {
        Tick::Migrate(m) => m,
        Tick::Stable(r) => panic!("drift missed: {}", r.distance),
    };
    println!(
        "drift {:.3} → plan: {} moves, {} batches, {:.1} KiB\n",
        outcome.report.distance,
        outcome.plan.total_moves,
        outcome.plan.batches.len(),
        outcome.plan.total_bytes as f64 / 1024.0
    );

    // ---- 1. Standalone executor throughput (one tick = one batch). ----
    // A `LogStore` is opened concretely so each step can be checked for a
    // segment compaction, which the per-batch cost model does not price.
    let log_store = (backend == BackendKind::Log).then(|| {
        LogStore::open(store_dir.path().join("standalone"), k)
            .expect("open LogStore under temp dir")
    });
    let mem_store = MemStore::new(k);
    let store: &dyn ShardStore = match &log_store {
        Some(log) => log,
        None => &mem_store,
    };
    let compactions = || log_store.as_ref().map_or(0, LogStore::compactions);
    load_assignment(store, &placement, &*w3.db).expect("seed shards");
    let vs = VersionedScheme::new(
        Arc::new(build_lookup_scheme(&w0, &w0.trace, &placement, k)),
        Arc::new(build_lookup_scheme(&w3, &w3.trace, ctl.assignment(), k)),
    );
    let mut exec = outcome.executor(store, &vs);
    let mut samples: Vec<CostSample> = Vec::new();
    // Indices into `samples` of the batches whose step compacted a segment.
    let mut compacted: Vec<usize> = Vec::new();
    let t0 = Instant::now();
    loop {
        let c0 = compactions();
        let b0 = Instant::now();
        match exec.step() {
            StepOutcome::Flipped(b) => samples.push(CostSample {
                rows: b.rows_copied,
                bytes: b.bytes_copied,
                wall_us: b0.elapsed().as_secs_f64() * 1e6,
            }),
            StepOutcome::Done => break,
            other => panic!("unexpected executor outcome: {other:?}"),
        }
        if compactions() > c0 {
            compacted.push(samples.len() - 1);
        }
    }
    let wall = t0.elapsed();
    let report = exec.report();

    let mut ticks = Table::new(&["tick", "tuples", "rows", "KiB", "drops", "retries", "ms"]);
    let shown = exec.batch_reports().len().min(12);
    for (b, s) in exec.batch_reports()[..shown].iter().zip(&samples) {
        ticks.row(vec![
            format!("{}", b.batch),
            format!("{}", b.tuples),
            format!("{}", b.rows_copied),
            format!("{:.1}", b.bytes_copied as f64 / 1024.0),
            format!("{}", b.rows_dropped),
            format!("{}", b.retries),
            format!("{:.3}", s.wall_us / 1e3),
        ]);
    }
    println!(
        "per-tick executed batches (first {shown} of {}):",
        report.batches_flipped
    );
    println!("{}", ticks.render());
    let secs = wall.as_secs_f64().max(1e-9);
    let rows_per_sec = report.rows_copied as f64 / secs;
    let mib_per_sec = report.bytes_copied as f64 / (1 << 20) as f64 / secs;
    println!(
        "executor[{backend}]: {} rows / {:.1} KiB copied+verified in {:.1} ms → {:.0} rows/s, {:.1} MiB/s\n",
        report.rows_copied,
        report.bytes_copied as f64 / 1024.0,
        wall.as_secs_f64() * 1e3,
        rows_per_sec,
        mib_per_sec,
    );

    // ---- 2. Calibration: measured batches → cost model → planner. ----
    if !calibrate {
        return;
    }
    // A batch whose step compacted a segment also paid for rewriting it,
    // which the model does not price: such batches are shown, not fit or
    // judged. Of the rest, fit on even-indexed batches and judge on all:
    // the 2× gate below is not allowed to lean on in-sample flattery alone.
    let judged: Vec<CostSample> = (0..samples.len())
        .filter(|i| !compacted.contains(i))
        .map(|i| samples[i])
        .collect();
    let train: Vec<CostSample> = if judged.len() >= 4 {
        judged.iter().copied().step_by(2).collect()
    } else {
        judged.clone()
    };
    let model = MigrationCostModel::fit(&train).expect("at least one batch that did not compact");
    let ratio = |s: &CostSample| model.max_ratio(std::slice::from_ref(s));
    let max_ratio = model.max_ratio(&judged);
    let avg_row_bytes = (report.bytes_copied / report.rows_copied.max(1)).max(1) as u32;

    println!(
        "\ncalibration[{backend}] over {} timed batches ({} judged, {} train):",
        samples.len(),
        judged.len(),
        train.len()
    );
    println!(
        "  model: batch_fixed {:.1} us + {:.3} us/row + {:.5} us/byte",
        model.batch_fixed_us, model.row_us, model.byte_us
    );
    let mut cal = Table::new(&[
        "batch",
        "rows",
        "KiB",
        "measured ms",
        "predicted ms",
        "ratio",
    ]);
    for (i, s) in samples.iter().enumerate().take(10) {
        let pred = model.predict_batch_us(s.rows, s.bytes);
        cal.row(vec![
            format!("{i}"),
            format!("{}", s.rows),
            format!("{:.1}", s.bytes as f64 / 1024.0),
            format!("{:.3}", s.wall_us / 1e3),
            format!("{:.3}", pred / 1e3),
            format!("{:.2}", ratio(s)),
        ]);
    }
    println!("{}", cal.render());
    for &i in &compacted {
        println!(
            "  batch {i} compacted a segment: ratio {:.2}x, not judged",
            ratio(&samples[i])
        );
    }
    let plan_pred_us = model.predict_plan_us(samples.iter().map(|s| (s.rows, s.bytes)));
    println!(
        "  plan total: predicted {:.1} ms vs measured {:.1} ms; worst judged per-batch ratio {max_ratio:.2}x ({})",
        plan_pred_us / 1e3,
        wall.as_secs_f64() * 1e3,
        if max_ratio <= 2.0 { "within 2x gate" } else { "EXCEEDS 2x gate" },
    );
    assert!(
        max_ratio <= 2.0,
        "calibrated model drifted {max_ratio:.2}x from measurement"
    );

    // Feedback edge: budgets for a 2 ms batch target under this backend.
    let target_us = 2_000.0;
    let fed = PlanConfig::for_target_batch_duration(&model, target_us, avg_row_bytes);
    println!(
        "  feedback: target {:.1} ms/batch → PlanConfig {{ max_rows_per_batch: {}, max_bytes_per_batch: {} }} at {} B/row",
        target_us / 1e3,
        fed.max_rows_per_batch,
        fed.max_bytes_per_batch,
        avg_row_bytes,
    );

    let section = format!(
        "{{ \"backend\": \"{backend}\", \"full\": {full}, \"shards\": {k}, \
         \"batches\": {batches}, \"rows_copied\": {rows}, \"bytes_copied\": {bytes}, \
         \"wall_ms\": {wall_ms:.3}, \"rows_per_sec\": {rows_per_sec:.0}, \
         \"mib_per_sec\": {mib_per_sec:.2}, \"model\": {{ \"batch_fixed_us\": {fixed:.3}, \
         \"row_us\": {row:.5}, \"byte_us\": {byte:.7} }}, \"worst_batch_ratio\": {max_ratio:.3}, \
         \"compaction_batches\": {compacted:?}, \"target_batch_us\": {target_us:.0}, \
         \"fed_back_plan_config\": {{ \"max_rows_per_batch\": {fr}, \"max_bytes_per_batch\": {fb} }} }}",
        batches = report.batches_flipped,
        rows = report.rows_copied,
        bytes = report.bytes_copied,
        wall_ms = wall.as_secs_f64() * 1e3,
        fixed = model.batch_fixed_us,
        row = model.row_us,
        byte = model.byte_us,
        fr = fed.max_rows_per_batch,
        fb = fed.max_bytes_per_batch,
    );
    schism_bench::write_sections(
        "BENCH_store.json",
        "live_migration",
        &["calibrate"],
        &[("calibrate", section)],
    );
}
