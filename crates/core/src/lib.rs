//! # schism-core
//!
//! A from-scratch Rust implementation of **Schism** (Curino, Jones, Zhang,
//! Madden — VLDB 2010): workload-driven replication and partitioning for
//! shared-nothing OLTP databases.
//!
//! The pipeline mirrors the paper's five steps (§2):
//!
//! 1. **Data pre-processing** — transactions arrive as read/write tuple
//!    sets ([`schism_workload::Trace`]).
//! 2. **Graph creation** ([`graph_builder`]) — a node per tuple (or
//!    coalesced tuple group), clique edges between co-accessed tuples,
//!    star-shaped replication sub-graphs, with access-weighted tuple
//!    sampling (which is also the relevance filter) and blanket-statement
//!    filtering (§5.1). The
//!    build streams the trace in chunks ([`build_graph_source`] over any
//!    [`schism_workload::TraceSource`]) across [`SchismConfig::threads`]
//!    workers, with bit-identical output for every thread count.
//! 3. **Graph partitioning** ([`partition_phase`]) — balanced min-cut via
//!    the multilevel partitioner in [`schism_graph`]; with
//!    [`SchismConfig::graph_backend`]` = Hypergraph` the build emits one
//!    hyperedge per transaction instead of the clique expansion and the
//!    (λ−1)-connectivity hypergraph partitioner runs in its place.
//! 4. **Explanation** ([`explain`]) — a C4.5-style decision tree over
//!    frequently-queried attributes turns the per-tuple assignment into
//!    range predicates (with CFS attribute selection and cross-validation).
//! 5. **Final validation** ([`validate`](mod@validate)) — lookup tables vs. range
//!    predicates vs. hashing vs. full replication, by distributed
//!    transactions on a held-out test trace; ties go to the simpler scheme.
//!
//! ```
//! use schism_core::{Schism, SchismConfig};
//! use schism_workload::ycsb::{self, YcsbConfig};
//!
//! let workload = ycsb::generate(&YcsbConfig { records: 500, num_txns: 500, ..YcsbConfig::workload_a() });
//! let rec = Schism::new(SchismConfig::new(2)).run(&workload);
//! assert_eq!(rec.chosen(), "hashing"); // single-tuple txns: hash suffices
//! ```

pub mod config;
pub mod explain;
pub mod graph_builder;
pub mod partition_phase;
pub mod pipeline;
pub mod report;
pub mod validate;

pub use config::{GraphBackend, SchismConfig};
pub use explain::{Explanation, TableExplanation};
pub use graph_builder::{build_graph, build_graph_source, BuildStats, CoAccess, WorkloadGraph};
pub use partition_phase::{run_partition_phase, run_partition_phase_warm, PartitionPhase};
pub use pipeline::{build_lookup_scheme, hash_on_frequent_attributes, Recommendation, Schism};
pub use validate::{validate, Candidate, SelectionRules, Validation};
