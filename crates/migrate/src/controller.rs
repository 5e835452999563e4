//! The continuous loop: watch windows, detect drift, repartition warm,
//! relabel, and emit a migration plan.
//!
//! [`MigrationController`] owns the loop's state — the exact
//! [`AccessHistogram`] of the window the current placement was computed
//! from, that per-tuple placement, and the planner budgets — and exposes
//! a single [`observe`](MigrationController::observe) entry point per
//! window. Each window's histogram is scored against the reference under
//! Jensen–Shannon and handed to [`DriftReport::new`], the trigger; on a
//! drift the window's histogram becomes the new reference. The caller
//! executes the returned plan at its own pace: build a
//! [`MigrationExecutor`](crate::MigrationExecutor) over the plan, the live
//! [`schism_store::ShardStore`] and a [`schism_router::VersionedScheme`],
//! then [`step`](crate::MigrationExecutor::step) it between foreground
//! work. Routing flips only on each batch's verified-copy
//! acknowledgement, so traffic keeps being served correctly for the whole
//! migration.
//!
//! Windows arrive as materialized [`Workload`]s, so the exact histogram is
//! bounded by data the caller already holds. A source too large to
//! materialize is watched with a fixed-memory
//! [`SketchHistogram`](crate::SketchHistogram) and the same trigger.

use crate::drift::{AccessHistogram, DistanceMetric, DriftReport};
use crate::incremental::{rerun_incremental, RepartitionOutcome};
use crate::plan::{plan_migration, MigrationPlan, PlanConfig};
use schism_core::{build_graph, run_partition_phase, SchismConfig};
use schism_router::PartitionSet;
use schism_workload::{TupleMap, Workload};

/// The controller's drift distance: Jensen–Shannon reads resampling noise
/// as far smaller than total variation does on per-tuple histograms.
const METRIC: DistanceMetric = DistanceMetric::JensenShannon;

/// Everything the controller needs to run the loop.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    pub schism: SchismConfig,
    pub plan: PlanConfig,
}

impl ControllerConfig {
    pub fn new(k: u32) -> Self {
        Self {
            schism: SchismConfig::new(k),
            plan: PlanConfig::default(),
        }
    }
}

/// What one observed window produced.
// One `Tick` exists per observed window and is consumed immediately, so
// the size gap between the variants never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
pub enum Tick {
    /// No repartition: the window matches the reference distribution (or
    /// is too small to trust).
    Stable(DriftReport),
    /// Drift crossed the threshold: a warm repartition ran and this is the
    /// resulting (possibly empty) migration.
    Migrate(MigrationOutcome),
}

/// A triggered repartition: the drift evidence, the warm re-run, and the
/// batched plan from the old placement to the new one.
pub struct MigrationOutcome {
    pub report: DriftReport,
    pub repartition: RepartitionOutcome,
    pub plan: MigrationPlan,
}

/// Drift-detect → warm repartition → relabel → plan, with state carried
/// across windows.
pub struct MigrationController {
    cfg: ControllerConfig,
    /// Access histogram of the window the placement was computed from.
    reference: AccessHistogram,
    assignment: TupleMap<PartitionSet>,
}

impl MigrationController {
    /// Bootstraps from an initial workload: one cold partition of its
    /// trace becomes the reference placement and drift baseline.
    pub fn bootstrap(workload: &Workload, cfg: ControllerConfig) -> Self {
        let wg = build_graph(workload, &workload.trace, &cfg.schism);
        let phase = run_partition_phase(&wg, &cfg.schism);
        Self {
            cfg,
            reference: AccessHistogram::from_source(&workload.trace),
            assignment: phase.assignment,
        }
    }

    /// Adopts an existing placement (e.g. from a previous
    /// [`schism_core::Recommendation`]) instead of bootstrapping cold.
    pub fn with_assignment(
        reference: &Workload,
        assignment: TupleMap<PartitionSet>,
        cfg: ControllerConfig,
    ) -> Self {
        Self {
            cfg,
            reference: AccessHistogram::from_source(&reference.trace),
            assignment,
        }
    }

    /// The current authoritative placement.
    pub fn assignment(&self) -> &TupleMap<PartitionSet> {
        &self.assignment
    }

    /// Feeds one window (a [`Workload`] whose trace is the window).
    ///
    /// On drift: runs the warm repartition, swaps the controller's
    /// placement to the relabeled result, adopts the window's histogram as
    /// the drift reference, and returns the move plan. The caller owns plan
    /// execution; the controller's state already reflects the
    /// post-migration world.
    pub fn observe(&mut self, window: &Workload) -> Tick {
        let hist = AccessHistogram::from_source(&window.trace);
        let report = DriftReport::new(hist.distance(&self.reference, METRIC), window.trace.len());
        if !report.drifted {
            return Tick::Stable(report);
        }
        let repartition =
            rerun_incremental(&self.cfg.schism, window, &window.trace, &self.assignment);
        let plan = plan_migration(
            &self.assignment,
            &repartition.assignment,
            &*window.db,
            &self.cfg.plan,
        );
        self.assignment = repartition.assignment.clone();
        self.reference = hist;
        Tick::Migrate(MigrationOutcome {
            report,
            repartition,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::drifting::{self, DriftingConfig};

    #[test]
    fn stable_windows_do_not_migrate() {
        let dcfg = DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        };
        let w0 = drifting::window(&dcfg, 0);
        let mut ctl = MigrationController::bootstrap(&w0, ControllerConfig::new(4));
        let before = ctl.assignment().clone();
        // A fresh sample of the same window distribution.
        let same = drifting::generate(&DriftingConfig { seed: 777, ..dcfg });
        match ctl.observe(&same) {
            Tick::Stable(r) => assert!(!r.drifted),
            Tick::Migrate(m) => panic!("spurious migration, distance {}", m.report.distance),
        }
        assert_eq!(ctl.assignment().len(), before.len(), "state untouched");
    }

    #[test]
    fn drifted_window_triggers_plan_and_rebase() {
        let dcfg = DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        };
        let w0 = drifting::window(&dcfg, 0);
        let mut ctl = MigrationController::bootstrap(&w0, ControllerConfig::new(4));
        let w3 = drifting::window(&dcfg, 3);
        let outcome = match ctl.observe(&w3) {
            Tick::Migrate(m) => m,
            Tick::Stable(r) => panic!("drift missed, distance {}", r.distance),
        };
        assert!(outcome.report.drifted);
        // The plan diffs old vs relabeled-new placements exactly.
        let moved_by_plan = outcome.plan.total_moves;
        assert!(moved_by_plan > 0, "a rotated hotspot must move something");
        // Controller adopted the new placement…
        assert_eq!(ctl.assignment().len(), outcome.repartition.assignment.len());
        // …and rebased: replaying the same window is now stable.
        match ctl.observe(&w3) {
            Tick::Stable(r) => assert!(!r.drifted, "rebase failed: {}", r.distance),
            Tick::Migrate(_) => panic!("same window migrated twice"),
        }
    }
}
