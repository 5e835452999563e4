//! Incremental vs. from-scratch repartitioning.
//!
//! [`rerun_incremental`] is the warm path: rebuild the workload graph from
//! the drifted trace, seed each group with the previous per-tuple
//! placement ([`schism_core::WorkloadGraph::seed_assignment`]), refine that
//! seed ([`schism_core::run_partition_phase_warm`]), then solve the
//! relabeling problem against the previous assignment so ids line up.
//! Because refinement only moves vertices for balance or cut gains, the
//! resulting diff — the data migration — stays small. Tuples unseen in
//! the previous placement start where their co-accessed neighbours live,
//! or on the lightest partition.
//!
//! [`rerun_scratch`] is the control: a cold multilevel partition of the
//! same graph, relabeled as favorably as possible. Even with optimal
//! relabeling a cold run re-decides every tuple, so its diff approaches the
//! random-permutation bound — the gap between the two is the entire point
//! of incremental repartitioning (SWORD makes the same argument for
//! hypergraph containers).
//!
//! Both paths honor `SchismConfig::threads` end to end: the per-window
//! graph rebuild (the streaming parallel `build_graph`) and the warm/cold
//! partition run on the same worker pool, so a rerun racing a drift window
//! uses every core without changing its output.

use crate::relabel::{apply_relabel, relabel, Relabeling};
use schism_core::{
    build_graph, run_partition_phase, run_partition_phase_warm, PartitionPhase, Placement,
    SchismConfig,
};
use schism_router::{evaluate, PartitionSet};
use schism_workload::{Trace, TupleId, TupleMap, Workload};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// A repartitioning outcome with ids aligned to the previous assignment.
#[derive(Clone, Debug)]
pub struct RepartitionOutcome {
    /// The relabeled new placement.
    pub assignment: TupleMap<PartitionSet>,
    /// How the new partition ids were matched onto the old ones.
    pub relabeling: Relabeling,
    /// Edge cut of the underlying graph partitioning.
    pub edge_cut: u64,
    /// Load imbalance (1.0 = perfect).
    pub imbalance: f64,
}

impl RepartitionOutcome {
    /// Fraction of common tuples whose primary partition moved.
    pub fn moved_fraction(&self) -> f64 {
        self.relabeling.moved_fraction()
    }
}

/// Warm-started re-partition of `train`, aligned to `prev`.
pub fn rerun_incremental(
    cfg: &SchismConfig,
    workload: &Workload,
    train: &Trace,
    prev: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
) -> RepartitionOutcome {
    let wg = build_graph(workload, train, cfg);
    let initial = wg.seed_assignment(&Placement::from(prev), cfg.k);
    aligned(run_partition_phase_warm(&wg, cfg, &initial), prev, cfg.k)
}

/// From-scratch re-partition of `train`, aligned to `prev` (baseline).
pub fn rerun_scratch(
    cfg: &SchismConfig,
    workload: &Workload,
    train: &Trace,
    prev: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
) -> RepartitionOutcome {
    let wg = build_graph(workload, train, cfg);
    aligned(run_partition_phase(&wg, cfg), prev, cfg.k)
}

/// Relabels `phase`'s placement onto `prev`'s partition ids, as the keyed
/// map the migration plane edits.
fn aligned(
    phase: PartitionPhase,
    prev: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    k: u32,
) -> RepartitionOutcome {
    let mut assignment: TupleMap<PartitionSet> = phase.assignment.iter().collect();
    let relabeling = relabel(prev, &assignment, k);
    apply_relabel(&mut assignment, &relabeling.mapping);
    RepartitionOutcome {
        assignment,
        relabeling,
        edge_cut: phase.edge_cut,
        imbalance: phase.imbalance,
    }
}

/// Distributed-transaction fraction of a placement on a trace, evaluated
/// through the fine-grained lookup scheme it induces.
pub fn distributed_fraction(
    workload: &Workload,
    train: &Trace,
    eval: &Trace,
    placement: &Placement,
    k: u32,
) -> f64 {
    let scheme = schism_core::build_lookup_scheme(workload, train, placement, k);
    evaluate(&scheme, eval, &*workload.db).distributed_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_workload::drifting::{self, DriftingConfig};

    fn cfg(k: u32, seed: u64) -> SchismConfig {
        let mut c = SchismConfig::new(k);
        c.seed = seed;
        c
    }

    #[test]
    fn incremental_rerun_on_identical_trace_moves_almost_nothing() {
        let dcfg = DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        };
        let w = drifting::window(&dcfg, 0);
        let cfg = cfg(4, 7);
        let wg = build_graph(&w, &w.trace, &cfg);
        let prev: TupleMap<_> = run_partition_phase(&wg, &cfg).assignment.iter().collect();
        let out = rerun_incremental(&cfg, &w, &w.trace, &prev);
        assert!(
            out.moved_fraction() < 0.05,
            "no drift should mean (almost) no movement, got {}",
            out.moved_fraction()
        );
    }

    #[test]
    fn incremental_beats_scratch_on_drifted_trace() {
        let dcfg = DriftingConfig {
            num_txns: 3_000,
            ..Default::default()
        };
        let w0 = drifting::window(&dcfg, 0);
        let w1 = drifting::window(&dcfg, 1);
        let (train, test) = w1.trace.split(0.8, 17);

        // How far a cold run lands from the previous placement is luck of
        // the seed (the drifted window has many equally good cuts), so the
        // headline ratio is judged over five warm seeds × three cold seeds
        // rather than on one pair. The cold seeds differ from the warm ones
        // so the cold run explores a different landscape, as a periodic
        // re-run in production would.
        let mut under_half = 0;
        let mut pairs = Vec::new();
        for seed in 3..=7 {
            let warm = cfg(4, seed);
            let wg = build_graph(&w0, &w0.trace, &warm);
            let prev: TupleMap<_> = run_partition_phase(&wg, &warm).assignment.iter().collect();
            let inc = rerun_incremental(&warm, &w1, &w1.trace, &prev);
            let f_inc =
                distributed_fraction(&w1, &train, &test, &Placement::from(&inc.assignment), 4);
            for cold_seed in [99, 100, 101] {
                let scratch = rerun_scratch(&cfg(4, cold_seed), &w1, &w1.trace, &prev);
                let (moved, cold_moved) = (inc.relabeling.moved, scratch.relabeling.moved);
                under_half += usize::from((moved as f64) < 0.5 * cold_moved as f64);
                pairs.push(format!("{seed}/{cold_seed}: {moved} vs {cold_moved}"));
                // On every pair, the partitioning quality the warm path
                // serves stays within 10% of what the cold run would deliver
                // (distributed-txn fraction on a held-out slice of the
                // drifted window).
                let f_scr = distributed_fraction(
                    &w1,
                    &train,
                    &test,
                    &Placement::from(&scratch.assignment),
                    4,
                );
                assert!(
                    f_inc <= f_scr + 0.10,
                    "seeds {seed}/{cold_seed}: incremental dist fraction {f_inc:.4} \
                     strays from scratch {f_scr:.4}"
                );
            }
        }
        // The headline acceptance criterion: the warm path moves less than
        // half the data of a from-scratch repartition — on at least two
        // thirds of the pairs.
        assert!(
            under_half >= 10,
            "incremental moved under half of scratch on only {under_half} of 15 \
             (warm seed/cold seed: incremental vs scratch): {pairs:?}"
        );
    }
}
