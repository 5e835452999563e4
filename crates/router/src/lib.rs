//! # schism-router
//!
//! The routing middleware and partitioning-scheme runtime from §5.4 and
//! Appendix C: partition sets, the [`Scheme`] abstraction, hash / range /
//! lookup-table / full-replication schemes, the two physical lookup-table
//! backends (index, bit-array), replication-aware
//! transaction routing, and the distributed-transaction cost evaluator that
//! drives Schism's final validation.

pub mod cost;
pub mod hash;
pub mod lookup;
pub mod pset;
pub mod range;
pub mod replica;
pub mod router;
pub mod scheme;
pub mod versioned;

pub use cost::{evaluate, CostReport};
pub use hash::{HashBy, HashScheme};
pub use lookup::{BitArrayBackend, IndexBackend, LookupBackend, LookupScheme, MissPolicy, RowKey};
pub use pset::{PartitionSet, MAX_PARTITIONS};
pub use range::{RangeRule, RangeScheme, TablePolicy};
pub use replica::{ReplicaSet, ReplicatedScheme};
pub use router::route_transaction;
pub use scheme::{
    pick_any, statement_salt, Complexity, ReplicationScheme, Route, RouteDecision, Scheme,
};
pub use versioned::{FlipError, VersionedScheme};
