//! Incremental repartitioning on a drifting workload, end to end.
//!
//! A YCSB-style hot-key workload drifts across five windows (the Zipfian
//! hot spot rotates through the key space). A [`MigrationController`]
//! watches each window: it scores the window's access distribution
//! against the reference, and when the threshold is crossed it re-runs the
//! partitioner *warm-started* from the current placement, relabels the
//! result to minimize movement, and emits a throttled migration plan.
//! For every triggered migration the from-scratch baseline is shown too —
//! the warm start's entire value is the `moved` column staying a fraction
//! of the cold one at comparable quality.
//!
//! ```text
//! cargo run --release -p schism --example drifting_workload
//! ```

use schism::core::SchismConfig;
use schism::migrate::incremental::rerun_scratch;
use schism::migrate::{ControllerConfig, MigrationController, Tick};
use schism::workload::drifting::{self, DriftingConfig};

fn main() {
    let k = 4u32;
    let dcfg = DriftingConfig {
        records: 3_200,
        num_txns: 5_000,
        drift_blocks_per_window: 20,
        ..Default::default()
    };

    println!(
        "drifting hot-key workload: {} keys in blocks of {}, k = {k}",
        dcfg.records, dcfg.block_span
    );
    println!(
        "windows of {} txns; hot spot advances {} blocks per window\n",
        dcfg.num_txns, dcfg.drift_blocks_per_window
    );

    let w0 = drifting::window(&dcfg, 0);
    let mut ctl = MigrationController::bootstrap(&w0, ControllerConfig::new(k));
    println!(
        "bootstrap on window 0: {} tuples placed\n",
        ctl.assignment().len()
    );

    for w in 1..=5u64 {
        let window = drifting::window(&dcfg, w);
        // The cold baseline must diff against the *pre-observation* state.
        let prev = ctl.assignment().clone();
        match ctl.observe(&window) {
            Tick::Stable(r) => {
                println!(
                    "window {w}: drift {:.3} — stable, no repartition",
                    r.distance
                );
            }
            Tick::Migrate(m) => {
                let mut scfg = SchismConfig::new(k);
                scfg.seed = 900 + w;
                let scratch = rerun_scratch(&scfg, &window, &window.trace, &prev);
                let pct = |moved: u64, common: u64| 100.0 * moved as f64 / common.max(1) as f64;
                println!(
                    "window {w}: drift {:.3} — REPARTITION (warm)",
                    m.report.distance
                );
                println!(
                    "  incremental: {:>6} tuples moved ({:>5.1}% of common), edge cut {}",
                    m.repartition.relabeling.moved,
                    pct(
                        m.repartition.relabeling.moved,
                        m.repartition.relabeling.common
                    ),
                    m.repartition.edge_cut,
                );
                println!(
                    "  from scratch: {:>5} tuples moved ({:>5.1}% of common), edge cut {}",
                    scratch.relabeling.moved,
                    pct(scratch.relabeling.moved, scratch.relabeling.common),
                    scratch.edge_cut,
                );
                println!(
                    "  plan: {} moves in {} batches, {:.1} KiB payload",
                    m.plan.total_moves,
                    m.plan.batches.len(),
                    m.plan.total_bytes as f64 / 1024.0,
                );
            }
        }
    }
}
