//! The graph-partitioning phase (§4.2): run the multilevel partitioner on
//! the workload graph and resolve the node assignment back to per-tuple
//! partition sets (replicated tuples map to several partitions).
//!
//! Dispatches on the representation the build produced — the one
//! multilevel driver minimizes edge cut on a clique graph and (λ−1)
//! connectivity when [`crate::config::GraphBackend::Hypergraph`] built a
//! net-per-transaction hypergraph. For the hypergraph path `edge_cut`
//! reports the connectivity cost — the exact number of extra partitions
//! transactions span, weighted by transaction count.
//!
//! The phase's result is a [`Placement`]: the build's sorted tuple list
//! with one [`PartitionSet`] per tuple, plus an aligned access-count
//! column. Like the paper's lookup tables (§4.4, Appendix C.1) it is a
//! dense column, not a map: the resolve copies the tuple list and collects
//! one set per tuple, and its readers (the explanation, the lookup table)
//! walk one table's contiguous range at a time. The migration
//! plane, which edits placements key by key, converts once into a keyed
//! map where it takes a phase over.

use crate::config::SchismConfig;
use crate::graph_builder::{CoAccess, WorkloadGraph};
use schism_graph::{partition, partition_warm};
use schism_router::PartitionSet;
use schism_sql::TableId;
use schism_workload::TupleId;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;
use std::time::{Duration, Instant};

/// A per-tuple placement: tuples sorted by `(table, row)`, each with the
/// set of partitions holding a copy (singleton = not replicated).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    tuples: Vec<TupleId>,
    sets: Vec<PartitionSet>,
}

impl Placement {
    /// Number of placed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether no tuple is placed.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The placed tuples, sorted.
    pub fn tuples(&self) -> &[TupleId] {
        &self.tuples
    }

    /// The partition sets, aligned with [`Placement::tuples`].
    pub fn sets(&self) -> &[PartitionSet] {
        &self.sets
    }

    /// The partition sets in tuple order.
    pub fn values(&self) -> std::slice::Iter<'_, PartitionSet> {
        self.sets.iter()
    }

    /// `(tuple, partition set)` in tuple order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TupleId, PartitionSet)> + '_ {
        self.tuples.iter().copied().zip(self.sets.iter().copied())
    }

    /// The partition set of `t`, or `None` when `t` is not placed.
    pub fn get(&self, t: &TupleId) -> Option<&PartitionSet> {
        self.tuples.binary_search(t).ok().map(|i| &self.sets[i])
    }

    /// The positions of `table`'s tuples: a range into [`Placement::tuples`],
    /// [`Placement::sets`] and any column aligned with them.
    pub fn table(&self, table: TableId) -> Range<usize> {
        let start = self.tuples.partition_point(|t| t.table < table);
        let end = start + self.tuples[start..].partition_point(|t| t.table == table);
        start..end
    }
}

/// Collects `(tuple, set)` pairs, each tuple at most once, in any order;
/// an already-sorted input (the resolve's) is taken as it comes.
impl FromIterator<(TupleId, PartitionSet)> for Placement {
    fn from_iter<I: IntoIterator<Item = (TupleId, PartitionSet)>>(iter: I) -> Self {
        let (tuples, sets): (Vec<TupleId>, Vec<PartitionSet>) = iter.into_iter().unzip();
        if tuples.is_sorted() {
            return Self { tuples, sets };
        }
        let mut pairs: Vec<(TupleId, PartitionSet)> = tuples.into_iter().zip(sets).collect();
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let (tuples, sets) = pairs.into_iter().unzip();
        Self { tuples, sets }
    }
}

/// The placement a keyed map holds (the migration plane's form).
impl<S: BuildHasher> From<&HashMap<TupleId, PartitionSet, S>> for Placement {
    fn from(map: &HashMap<TupleId, PartitionSet, S>) -> Self {
        map.iter().map(|(&t, &p)| (t, p)).collect()
    }
}

/// Output of the partitioning phase.
pub struct PartitionPhase {
    /// Partition set per observed tuple (singleton = not replicated).
    pub assignment: Placement,
    /// Trace access count per placed tuple, aligned with `assignment`
    /// (explanation weighting).
    pub access_counts: Vec<u32>,
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

    let assignment = wg.placement(&partitioning.assignment);
    let replicated = assignment.values().filter(|p| !p.is_single()).count();
    let access_counts = wg.tuple_access_counts().collect();

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
    use crate::pipeline::build_lookup_scheme;
    use schism_router::Scheme;
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};
    use schism_workload::tpcc::{self, TpccConfig};
    use schism_workload::ycsb::{self, YcsbConfig};
    use schism_workload::{splitmix64, Workload};

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
        for (t, pset) in phase.assignment.iter() {
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
        for (t, pset) in phase.assignment.iter() {
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

    /// The placement is the resolve it replaces: `get` finds every
    /// `(tuple, set)` `tuple_partitions` yields and nothing else, each
    /// table's range is the column filtered by table, and the lookup
    /// scheme built from it locates every placed tuple at exactly its set.
    fn placement_matches_resolve(w: &Workload, k: u32) {
        let cfg = SchismConfig::new(k);
        let wg = build_graph(w, &w.trace, &cfg);
        let labels: Vec<u32> = (0..wg.num_nodes() as u64)
            .map(|v| (splitmix64(v) % u64::from(k)) as u32)
            .collect();
        let placement = wg.placement(&labels);
        assert_eq!(placement.len(), wg.tuples().len());
        for (t, pset) in wg.tuple_partitions(&labels) {
            assert_eq!(placement.get(&t), Some(&pset), "tuple {t}");
        }
        assert!(
            placement.values().any(|p| !p.is_single()),
            "sanity: replicated tuples"
        );

        let tuples = placement.tuples();
        let gap = tuples
            .windows(2)
            .find(|p| p[0].table == p[1].table && p[1].row > p[0].row + 1)
            .expect("sanity: a row between two placed rows");
        let between = TupleId::new(gap[0].table, gap[0].row + 1);
        assert_eq!(placement.get(&between), None, "row between {gap:?}");
        let last = tuples[tuples.len() - 1];
        assert_eq!(placement.get(&TupleId::new(last.table, last.row + 1)), None);
        let unplaced = last.table + 1;
        assert_eq!(placement.get(&TupleId::new(unplaced, 0)), None);

        for table in 0..=unplaced {
            let range = placement.table(table);
            let filtered: Vec<(TupleId, PartitionSet)> =
                placement.iter().filter(|(t, _)| t.table == table).collect();
            let ranged: Vec<(TupleId, PartitionSet)> = placement
                .iter()
                .skip(range.start)
                .take(range.len())
                .collect();
            assert_eq!(ranged, filtered, "table {table}");
        }

        let lookup = build_lookup_scheme(w, &w.trace, &placement, k);
        for (t, pset) in placement.iter() {
            assert_eq!(lookup.locate_tuple(t, &*w.db), pset, "tuple {t}");
        }
    }

    #[test]
    fn placement_matches_resolve_on_ycsb_e() {
        // Scans coalesce tuples into groups; the zipfian head gets stars.
        let w = ycsb::generate(&YcsbConfig {
            records: 4_000,
            num_txns: 2_000,
            ..YcsbConfig::workload_e()
        });
        placement_matches_resolve(&w, 4);
    }

    #[test]
    fn placement_matches_resolve_on_tpcc() {
        placement_matches_resolve(&tpcc::generate(&TpccConfig::small(2)), 3);
    }

    #[test]
    fn placement_collects_in_any_order() {
        let set = PartitionSet::single;
        let placement: Placement = [
            (TupleId::new(2, 1), set(1)),
            (TupleId::new(0, 5), set(0)),
            (TupleId::new(0, 1), set(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            placement.tuples(),
            [TupleId::new(0, 1), TupleId::new(0, 5), TupleId::new(2, 1)]
        );
        assert_eq!(placement.get(&TupleId::new(0, 5)), Some(&set(0)));
        assert_eq!(placement.get(&TupleId::new(0, 3)), None);
        assert_eq!(placement.table(0), 0..2);
        assert_eq!(placement.table(1), 2..2, "a table with no tuples");
        assert_eq!(placement.get(&TupleId::new(1, 0)), None);
        assert_eq!(placement.table(2), 2..3);
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
        assert_eq!(phase.assignment.tuples(), wg.tuples());
        assert_eq!(phase.access_counts.len(), wg.tuples().len());
        for pset in phase.assignment.values() {
            assert!(!pset.is_empty());
        }
    }
}
