//! # schism-workload
//!
//! The benchmark suite of the Schism evaluation (§6, Appendix D), rebuilt as
//! trace generators:
//!
//! | module | paper experiment |
//! |--------|------------------|
//! | [`simplecount`] | §3 "The Price of Distribution" (Figure 1) |
//! | [`ycsb`] | YCSB-A / YCSB-E (Figure 4) |
//! | [`tpcc`] | TPC-C 2W / 50W (Figures 4, 6; Table 1) |
//! | [`tpce`] | TPC-E, 1000 customers (Figure 4; Table 1) |
//! | [`epinions`] | Epinions.com social workload (Figure 4; Table 1) |
//! | [`random`] | the "impossible" Random workload (Figure 4) |
//! | [`drifting`] | hot-key drift across windows (incremental repartitioning) |
//!
//! Every generator returns a [`Workload`]: schema, transaction [`Trace`]
//! (read/write sets, optional SQL statements), a [`TupleValues`] oracle for
//! tuple attribute values, per-table row counts, and WHERE-clause attribute
//! statistics. Generators are deterministic for a fixed seed.
//!
//! Traces can also be consumed without materializing them: [`TraceSource`]
//! is the chunked-iteration abstraction the streaming graph builder
//! ingests, implemented by the in-memory [`Trace`] and by the streaming
//! generator paths (`drifting::stream`, `tpcc::stream`).

pub mod dist;
pub mod drifting;
pub mod epinions;
pub mod random;
pub mod simplecount;
pub mod sqllog;
pub mod tpcc;
pub mod tpce;
pub mod trace;
pub mod tuple;
pub mod txn;
pub mod ycsb;

pub use dist::{ScrambledZipfian, Zipfian};
pub use sqllog::{render_log, SqlLogError, SqlLogSource, SqlLogStats};
pub use trace::{Trace, TraceSource, Workload};
pub use tuple::{
    fnv1a, splitmix64, splitmix_pair, tuple_hash, MaterializedDb, TupleHasher, TupleId, TupleMap,
    TupleState, TupleValues,
};
pub use txn::{Transaction, TxnBuilder};
