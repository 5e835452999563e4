//! The graph-partitioning phase (§4.2): run the multilevel partitioner on
//! the workload graph and resolve the node assignment back to per-tuple
//! partition sets (replicated tuples map to several partitions).
//!
//! Dispatches on the representation the build produced — the one
//! multilevel driver minimizes edge cut on a clique graph and (λ−1)
//! connectivity when [`crate::config::GraphBackend::Hypergraph`] built a
//! net-per-transaction hypergraph. Everything downstream (explanation,
//! validation, migration) consumes the resolved per-tuple sets and is
//! backend-agnostic; for the hypergraph path `edge_cut` reports the
//! connectivity cost — the exact number of extra partitions transactions
//! span, weighted by transaction count.

use crate::config::SchismConfig;
use crate::graph_builder::{CoAccess, WorkloadGraph};
use schism_graph::{partition, partition_warm};
use schism_router::PartitionSet;
use schism_workload::{TupleMap, TupleState};
use std::time::{Duration, Instant};

/// Output of the partitioning phase.
pub struct PartitionPhase {
    /// Partition set per observed tuple (singleton = not replicated).
    pub assignment: TupleMap<PartitionSet>,
    /// Trace access count per observed tuple (explanation weighting).
    pub access_counts: TupleMap<u32>,
    /// Edge cut of the underlying graph partitioning.
    pub edge_cut: u64,
    /// Load imbalance of the graph partitioning (1.0 = perfect).
    pub imbalance: f64,
    /// Wall-clock time spent inside the graph partitioner.
    pub partition_time: Duration,
    /// Number of tuples the partitioner chose to replicate.
    pub replicated_tuples: usize,
}

/// Runs the partitioner over a built [`WorkloadGraph`].
pub fn run_partition_phase(wg: &WorkloadGraph, cfg: &SchismConfig) -> PartitionPhase {
    partition_and_resolve(wg, cfg, None)
}

/// Runs the *warm-started* partitioner: the per-node `initial` assignment
/// (built with [`WorkloadGraph::seed_assignment`]) is rebalanced and
/// refined rather than repartitioned from scratch, so tuples stay where
/// they were unless the drifted workload gives the refiner a reason to
/// move them.
pub fn run_partition_phase_warm(
    wg: &WorkloadGraph,
    cfg: &SchismConfig,
    initial: &[u32],
) -> PartitionPhase {
    partition_and_resolve(wg, cfg, Some(initial))
}

/// Cold (`initial = None`) or warm partitioning of whichever
/// representation the build produced, timed, then resolved to tuples.
fn partition_and_resolve(
    wg: &WorkloadGraph,
    cfg: &SchismConfig,
    initial: Option<&[u32]>,
) -> PartitionPhase {
    let mut pcfg = cfg.partitioner.clone();
    pcfg.k = cfg.k;
    pcfg.seed = cfg.seed;
    pcfg.threads = cfg.threads;
    let start = Instant::now();
    let partitioning = match (&wg.graph, initial) {
        (CoAccess::Clique(g), None) => partition(g, &pcfg),
        (CoAccess::Clique(g), Some(init)) => partition_warm(g, init, &pcfg),
        (CoAccess::Hyper(h), None) => partition(h, &pcfg),
        (CoAccess::Hyper(h), Some(init)) => partition_warm(h, init, &pcfg),
    };
    let partition_time = start.elapsed();

    let mut assignment =
        TupleMap::with_capacity_and_hasher(wg.tuples().len(), TupleState::default());
    let mut replicated = 0usize;
    for (tuple, pset) in wg.tuple_partitions(&partitioning.assignment) {
        replicated += usize::from(!pset.is_single());
        assignment.insert(tuple, pset);
    }
    let access_counts: TupleMap<u32> = wg.tuple_access_counts().collect();

    PartitionPhase {
        assignment,
        access_counts,
        edge_cut: partitioning.edge_cut,
        imbalance: partitioning.imbalance(),
        partition_time,
        replicated_tuples: replicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_builder::build_graph;
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};

    #[test]
    fn range_striped_workload_partitions_cleanly() {
        // SimpleCount single-partition mode over 2 "servers": the graph has
        // two natural halves; the partitioner must find a near-zero cut and
        // the assignment must respect the stripes.
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 4,
            rows_per_client: 100,
            servers: 2,
            mode: AccessMode::SinglePartition,
            num_txns: 4_000,
            ..Default::default()
        });
        let mut cfg = SchismConfig::new(2);
        cfg.replication = false; // point reads only; stars are noise here
        let wg = build_graph(&w, &w.trace, &cfg);
        let phase = run_partition_phase(&wg, &cfg);
        assert!(phase.imbalance < 1.3, "imbalance {}", phase.imbalance);
        // The two stripes must separate: count cross-stripe co-location.
        let stripe = 400 / 2;
        let mut stripe_parts: Vec<Vec<u32>> = vec![Vec::new(); 2];
        for (t, pset) in &phase.assignment {
            let s = (t.row / stripe) as usize;
            stripe_parts[s].push(pset.first().unwrap());
        }
        for parts in &stripe_parts {
            let ones = parts.iter().filter(|&&p| p == 1).count();
            let frac = ones as f64 / parts.len() as f64;
            assert!(
                !(0.1..=0.9).contains(&frac),
                "stripe not cleanly assigned: {frac}"
            );
        }
    }

    #[test]
    fn hypergraph_backend_partitions_cleanly() {
        // Same striped workload as the clique test, via the hypergraph
        // path: the (λ−1) partitioner must separate the stripes too, and
        // the reported cut is the distributed-transaction weight.
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 4,
            rows_per_client: 100,
            servers: 2,
            mode: AccessMode::SinglePartition,
            num_txns: 4_000,
            ..Default::default()
        });
        let mut cfg = SchismConfig::new(2);
        cfg.graph_backend = crate::config::GraphBackend::Hypergraph;
        cfg.replication = false;
        let wg = build_graph(&w, &w.trace, &cfg);
        assert!(matches!(wg.graph, CoAccess::Hyper(_)));
        let phase = run_partition_phase(&wg, &cfg);
        assert!(phase.imbalance < 1.3, "imbalance {}", phase.imbalance);
        let stripe = 400 / 2;
        let mut stripe_parts: Vec<Vec<u32>> = vec![Vec::new(); 2];
        for (t, pset) in &phase.assignment {
            let s = (t.row / stripe) as usize;
            stripe_parts[s].push(pset.first().unwrap());
        }
        for parts in &stripe_parts {
            let ones = parts.iter().filter(|&&p| p == 1).count();
            let frac = ones as f64 / parts.len() as f64;
            assert!(
                !(0.1..=0.9).contains(&frac),
                "stripe not cleanly assigned: {frac}"
            );
        }
    }

    #[test]
    fn hypergraph_warm_start_respects_seed() {
        // A warm rerun from a clean previous placement must keep tuples
        // where they were (no drift, nothing to move).
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 2,
            rows_per_client: 100,
            servers: 2,
            mode: AccessMode::SinglePartition,
            num_txns: 2_000,
            ..Default::default()
        });
        let mut cfg = SchismConfig::new(2);
        cfg.graph_backend = crate::config::GraphBackend::Hypergraph;
        cfg.replication = false;
        let wg = build_graph(&w, &w.trace, &cfg);
        let cold = run_partition_phase(&wg, &cfg);
        let seed = wg.seed_assignment(&cold.assignment, cfg.k);
        let warm = run_partition_phase_warm(&wg, &cfg, &seed);
        assert!(
            warm.edge_cut <= cold.edge_cut,
            "warm start must not regress"
        );
        let moved = warm
            .assignment
            .iter()
            .filter(|(t, ps)| cold.assignment.get(t) != Some(ps))
            .count();
        assert!(
            moved * 10 <= warm.assignment.len(),
            "warm start moved {moved} of {} tuples",
            warm.assignment.len()
        );
    }

    #[test]
    fn assignment_covers_all_observed_tuples() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 2,
            rows_per_client: 50,
            servers: 2,
            num_txns: 500,
            ..Default::default()
        });
        let cfg = SchismConfig::new(2);
        let wg = build_graph(&w, &w.trace, &cfg);
        let phase = run_partition_phase(&wg, &cfg);
        assert_eq!(phase.assignment.len(), wg.tuples().len());
        for pset in phase.assignment.values() {
            assert!(!pset.is_empty());
        }
    }
}
