//! # schism-migrate
//!
//! Incremental repartitioning for Schism: the continuous loop the paper
//! leaves as future work (§7 names "detecting significant workload shifts"
//! as the open problem; SWORD and STAR later made repartitioning
//! incremental and placement adaptive). The crate turns the one-shot
//! advisor into detect → repartition-warm → relabel → plan → migrate-live:
//!
//! | module | role |
//! |--------|------|
//! | [`drift`] | windowed access histograms, the one TV / JS distance, the [`DriftReport::new`] trigger |
//! | [`sketch`] | fixed-memory drift: count-min sketch + heavy-hitter reservoir |
//! | [`incremental`] | warm-started re-partition and the from-scratch baseline |
//! | [`relabel`](mod@relabel) | Hungarian matching of new→old partition ids to minimize movement |
//! | [`plan`] | diff two placements into throttled, batched tuple moves |
//! | [`executor`] | run a plan against [`schism_store`] shards: copy → verify → flip per batch |
//! | [`controller`] | the loop: state, trigger, repartition, plan hand-off |
//! | [`catchup`] | shard rejoin: catch-up copy plans over the same executor |
//!
//! Mid-migration routing correctness lives in
//! [`schism_router::VersionedScheme`] (old/new scheme pair + moved-set);
//! the [`executor`] owns each batch's copy/verify lifecycle against a
//! [`schism_store::ShardStore`] and advances that moved-set only on
//! acknowledgement ([`schism_router::VersionedScheme::flip_batch`]).
//! A plan is plain data ([`MigrationPlan::batches`]); what executing one
//! costs foreground statements is measured on the real server (the
//! benchmark's `serve_migrate` workload), not modelled here.
//!
//! ```
//! use schism_migrate::controller::{ControllerConfig, MigrationController, Tick};
//! use schism_workload::drifting::{self, DriftingConfig};
//!
//! let cfg = DriftingConfig { num_txns: 1_500, ..Default::default() };
//! let mut ctl = MigrationController::bootstrap(
//!     &drifting::window(&cfg, 0),
//!     ControllerConfig::new(4),
//! );
//! // The hot spot rotates: the trigger fires and a move plan comes back.
//! match ctl.observe(&drifting::window(&cfg, 3)) {
//!     Tick::Migrate(m) => assert!(m.plan.total_moves > 0),
//!     Tick::Stable(r) => panic!("drift missed: {}", r.distance),
//! }
//! ```

pub mod catchup;
pub mod controller;
pub mod drift;
pub mod executor;
pub mod incremental;
pub mod plan;
pub mod relabel;
pub mod sketch;

#[cfg(test)]
#[path = "../../../tests/support/test_store.rs"]
mod test_store;

pub use catchup::{catch_up_plan, run_catch_up};
pub use controller::{ControllerConfig, MigrationController, MigrationOutcome, Tick};
pub use drift::{AccessHistogram, DistanceMetric, DriftReport};
pub use executor::{
    BatchReport, ExecError, ExecutorConfig, ExecutorReport, MigrationExecutor, StepOutcome,
};
pub use incremental::{distributed_fraction, rerun_incremental, rerun_scratch, RepartitionOutcome};
pub use plan::{plan_migration, MigrationBatch, MigrationPlan, PlanConfig, TupleMove};
pub use relabel::{apply_relabel, relabel, Relabeling};
pub use sketch::{SketchConfig, SketchHistogram};
