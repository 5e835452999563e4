//! **Drift benchmark** — incremental (warm-started) repartitioning vs. a
//! from-scratch re-run on a drifting hot-key workload, window by window:
//! tuples moved, edge-cut retained, distributed-transaction fraction, and
//! wall-clock.
//!
//! The from-scratch baseline is relabeled as favorably as possible
//! (Hungarian matching of new→old partition ids), so the comparison is
//! against the *best case* of periodic cold repartitioning — the gap shown
//! here is purely the warm start keeping data pinned.
//!
//! ```text
//! cargo run --release -p schism-bench --bin drift_migration \
//!     [--full] [--threads N]
//! ```
//!
//! `--full` uses more windows and a bigger trace (slower; same shapes).
//! `--threads N` sizes the partitioner's worker pool for both the warm and
//! cold re-runs (0/absent = auto via `SCHISM_THREADS` or hardware); the
//! partitions are bit-identical whatever the value.

use schism_bench::table::Table;
use schism_core::{build_graph, run_partition_phase, Schism, SchismConfig};
use schism_migrate::incremental::{distributed_fraction, rerun_incremental, rerun_scratch};
use schism_migrate::{plan_migration, DriftConfig, DriftDetector, PlanConfig};
use schism_workload::drifting::{self, DriftingConfig};

fn main() {
    schism_bench::reject_unknown_args(&["--full", "--threads"]);
    let full = schism_bench::full_scale();
    let k = 8u32;
    let windows = if full { 8u64 } else { 4 };
    let dcfg = DriftingConfig {
        records: if full { 16_000 } else { 3_200 },
        num_txns: if full { 20_000 } else { 5_000 },
        drift_blocks_per_window: if full { 80 } else { 16 },
        ..Default::default()
    };

    let mut cfg = SchismConfig::new(k);
    cfg.seed = 1;
    cfg.threads = schism_bench::arg_value("--threads")
        .map(|v| v.parse().expect("--threads takes a non-negative integer"))
        .unwrap_or(0);
    let schism = Schism::new(cfg.clone());

    let w0 = drifting::window(&dcfg, 0);
    let wg = build_graph(&w0, &w0.trace, &cfg);
    let phase = run_partition_phase(&wg, &cfg);
    println!(
        "bootstrap on {}: {} tuples, edge cut {}, imbalance {:.3}\n",
        w0.name,
        phase.assignment.len(),
        phase.edge_cut,
        phase.imbalance
    );

    let mut detector = DriftDetector::new(DriftConfig::default(), &w0.trace);
    let mut prev = phase.assignment;
    let mut table = Table::new(&[
        "window",
        "drift",
        "moved(inc)",
        "moved(scr)",
        "ratio",
        "cut(inc)",
        "cut(scr)",
        "dist(inc)",
        "dist(scr)",
        "batches",
        "ms(inc)",
        "ms(scr)",
    ]);

    for w in 1..=windows {
        let wl = drifting::window(&dcfg, w);
        let drift = detector.observe(&wl.trace).distance;

        let inc = rerun_incremental(&schism, &wl, &wl.trace, &prev);
        let scratch_cfg = Schism::new(SchismConfig {
            seed: 1000 + w,
            ..cfg.clone()
        });
        let scr = rerun_scratch(&scratch_cfg, &wl, &wl.trace, &prev);

        let (train, test) = wl.trace.split(0.8, w ^ 42);
        let dist_inc = distributed_fraction(&wl, &train, &test, &inc.assignment, k);
        let dist_scr = distributed_fraction(&wl, &train, &test, &scr.assignment, k);
        let plan = plan_migration(&prev, &inc.assignment, &*wl.db, &PlanConfig::default());

        let ratio = if scr.relabeling.moved > 0 {
            inc.relabeling.moved as f64 / scr.relabeling.moved as f64
        } else {
            0.0
        };
        table.row(vec![
            format!("{w}"),
            format!("{drift:.3}"),
            format!("{}", inc.relabeling.moved),
            format!("{}", scr.relabeling.moved),
            format!("{:.2}", ratio),
            format!("{}", inc.edge_cut),
            format!("{}", scr.edge_cut),
            format!("{:.3}", dist_inc),
            format!("{:.3}", dist_scr),
            format!("{}", plan.batches.len()),
            format!("{}", inc.wall_time.as_millis()),
            format!("{}", scr.wall_time.as_millis()),
        ]);

        detector.rebase(&wl.trace);
        prev = inc.assignment;
    }

    println!("{}", table.render());
    println!(
        "partitioner threads: {} ({})",
        schism_par::resolve_threads(cfg.threads),
        if cfg.threads == 0 { "auto" } else { "explicit" },
    );
    println!("moved(x): tuples whose primary partition changes, after relabeling");
    println!("ratio   : moved(inc) / moved(scr) — the acceptance bar is < 0.50");
    println!("dist(x) : distributed-txn fraction on a held-out slice of the window");
}
