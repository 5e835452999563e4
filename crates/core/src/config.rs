//! Configuration of the end-to-end Schism pipeline.

use schism_graph::PartitionerConfig;

/// Which co-access representation the graph build emits and the
/// partitioning phase consumes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GraphBackend {
    /// The paper's clique expansion (§4.1): a transaction touching `t`
    /// groups contributes `t(t-1)/2` unit edges, partitioned under the
    /// edge-cut metric. Memory is quadratic in transaction width, which is
    /// what [`SchismConfig::blanket_threshold`] exists to contain.
    #[default]
    Clique,
    /// One hyperedge (net) per transaction, partitioned under the (λ−1)
    /// connectivity metric — the *exact* distributed-transaction count the
    /// edge cut only approximates. Memory is linear in the trace, so wide
    /// transactions need no blanket-scan dropping.
    Hypergraph,
}

/// Pipeline configuration. Defaults reproduce the paper's standard setup.
///
/// Only what a caller varies is a field. The rest of §4–§5 is fixed: the
/// graph represents every training transaction, tuples with the same
/// access multiset always coalesce into one vertex, a vertex weighs its
/// access count, and the decision tree trains with `explain`'s constant
/// knobs.
#[derive(Clone, Debug)]
pub struct SchismConfig {
    /// Number of partitions.
    pub k: u32,
    /// Master seed (graph sampling, partitioner, cross-validation).
    pub seed: u64,
    /// Worker threads for the parallel phases: graph building (both passes
    /// of [`crate::build_graph`]), partitioning (cold and warm), the
    /// explanation phase (per table, the full-data tree and the
    /// cross-validation folds train as independent tasks) and the train
    /// check of [`crate::Schism::run_split`] (lookup and range schemes
    /// costed side by side).
    /// `0` = auto: the `SCHISM_THREADS` environment variable if set,
    /// otherwise all hardware threads. Results are bit-identical for every
    /// value — every parallel task is a pure function of its inputs and
    /// results are combined in task order (an ordered reduce) — so this
    /// knob only trades wall-clock, never output.
    pub threads: usize,

    // --- graph representation (§4.1) ---
    /// Co-access representation: clique expansion (the paper's §4.1) or one
    /// hyperedge per transaction (linear memory, exact distributed-txn
    /// metric). Both backends share pass 1, tuple sampling, blanket
    /// filtering, replication stars and coalescing; the partitioning phase
    /// dispatches on the built representation, so `Schism::run` and the
    /// migration path's warm reruns work unchanged under either.
    pub graph_backend: GraphBackend,
    /// Enable tuple-level replication via star explosion.
    pub replication: bool,

    // --- scalability heuristics (§5.1) ---
    /// Tuple-level sampling: fraction of tuples kept as graph nodes,
    /// access-weighted (a tuple survives with probability
    /// `min(1, tuple_sample * accesses)`) — which is also how rarely-touched
    /// tuples are dropped (§5.1's relevance filtering).
    pub tuple_sample: f64,
    /// Blanket-statement filtering: scan statements touching more than this
    /// many tuples contribute no edges.
    pub blanket_threshold: usize,

    // --- graph partitioning (§4.2) ---
    /// Balance tolerance (`epsilon`) and independent runs (`ncuts`). Its
    /// `k`, `seed` and `threads` are **not** read: the partitioning phase
    /// overwrites them with this struct's [`k`](Self::k),
    /// [`seed`](Self::seed) and [`threads`](Self::threads) at use.
    pub partitioner: PartitionerConfig,

    // --- explanation (§4.3, §5.2) ---
    /// Cap on training tuples per table for the classifier.
    pub explain_sample_per_table: usize,

    // --- final validation (§4.4) ---
    /// Fraction of the trace used for training (rest is the test set the
    /// costs are measured on).
    pub train_fraction: f64,
    /// The fixed tie and balance rule for picking the winning scheme.
    pub selection: crate::validate::SelectionRules,
}

impl SchismConfig {
    /// Defaults for `k` partitions.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            seed: 0,
            threads: 0,
            graph_backend: GraphBackend::Clique,
            replication: true,
            tuple_sample: 1.0,
            blanket_threshold: 64,
            partitioner: PartitionerConfig::with_k(k),
            explain_sample_per_table: 10_000,
            train_fraction: 0.8,
            selection: crate::validate::SelectionRules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = SchismConfig::new(8);
        assert_eq!(cfg.k, 8);
        assert_eq!(cfg.partitioner.k, 8);
        assert_eq!(cfg.graph_backend, GraphBackend::Clique);
        assert!(cfg.replication);
        assert!((0.0..=1.0).contains(&cfg.train_fraction));
    }
}
