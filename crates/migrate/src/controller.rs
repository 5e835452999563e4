//! The continuous loop: watch windows, detect drift, repartition warm,
//! relabel, and emit a migration plan.
//!
//! [`MigrationController`] owns the pieces the rest of the crate provides —
//! an exact Jensen–Shannon [`DriftDetector`] rebased on every repartition,
//! the current per-tuple placement, and the planner budgets — and exposes
//! a single [`observe`](MigrationController::observe) entry point per
//! window. The caller executes the returned plan at its own pace: build a
//! [`MigrationExecutor`] via [`MigrationOutcome::executor`] over the live
//! [`schism_store::ShardStore`] and a [`schism_router::VersionedScheme`],
//! then [`step`](MigrationExecutor::step) it between foreground work.
//! Routing flips only on each batch's verified-copy acknowledgement, so
//! traffic keeps being served correctly for the whole migration.
//!
//! Windows arrive as materialized [`Workload`]s, so the exact detector's
//! per-tuple histogram is bounded by data the caller already holds. A
//! source too large to materialize is watched with the fixed-memory
//! [`SketchDriftDetector`](crate::SketchDriftDetector) directly.

use crate::drift::{DistanceMetric, DriftDetector, DriftReport};
use crate::executor::{ExecutorConfig, MigrationExecutor};
use crate::incremental::{rerun_incremental, RepartitionOutcome};
use crate::plan::{plan_migration, MigrationPlan, PlanConfig};
use schism_core::{build_graph, run_partition_phase, Schism, SchismConfig};
use schism_router::{PartitionSet, VersionedScheme};
use schism_store::ShardStore;
use schism_workload::{TupleMap, Workload};

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

impl MigrationOutcome {
    /// Builds the executor for this outcome's plan: `store` holds the
    /// physical shards, `scheme` is the fresh old→new epoch whose moved-set
    /// the executor will advance batch by batch.
    pub fn executor<'a>(
        &'a self,
        store: &'a dyn ShardStore,
        scheme: &'a VersionedScheme,
    ) -> MigrationExecutor<'a> {
        MigrationExecutor::new(&self.plan, store, scheme, ExecutorConfig::default())
    }
}

/// Drift-detect → warm repartition → relabel → plan, with state carried
/// across windows.
pub struct MigrationController {
    cfg: ControllerConfig,
    detector: DriftDetector,
    assignment: TupleMap<PartitionSet>,
}

impl MigrationController {
    /// Bootstraps from an initial workload: one cold partition of its
    /// trace becomes the reference placement and drift baseline.
    pub fn bootstrap(workload: &Workload, cfg: ControllerConfig) -> Self {
        let wg = build_graph(workload, &workload.trace, &cfg.schism);
        let phase = run_partition_phase(&wg, &cfg.schism);
        let detector = DriftDetector::new(DistanceMetric::JensenShannon, &workload.trace);
        Self {
            cfg,
            detector,
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
        let detector = DriftDetector::new(DistanceMetric::JensenShannon, &reference.trace);
        Self {
            cfg,
            detector,
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
    /// placement to the relabeled result, rebases the drift reference, and
    /// returns the move plan. The caller owns plan execution; the
    /// controller's state already reflects the post-migration world.
    pub fn observe(&mut self, window: &Workload) -> Tick {
        let report = self.detector.observe(&window.trace);
        if !report.drifted {
            return Tick::Stable(report);
        }
        let schism = Schism::new(self.cfg.schism.clone());
        let repartition = rerun_incremental(&schism, window, &window.trace, &self.assignment);
        let plan = plan_migration(
            &self.assignment,
            &repartition.assignment,
            &*window.db,
            &self.cfg.plan,
        );
        self.assignment = repartition.assignment.clone();
        self.detector.rebase(&window.trace);
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
