//! # schism-sim
//!
//! A discrete-event simulator of the paper's experimental testbed (§3,
//! §6.3, Appendix A): a shared-nothing cluster of single-CPU database
//! servers behind a LAN, with row-level S/X locking held to commit,
//! one-phase commit for single-site transactions and two-phase commit for
//! distributed ones, driven by closed-loop clients.
//!
//! The simulator regenerates the *shapes* of Figure 1 (distributed
//! transactions halve throughput and double latency) and Figure 6 (TPC-C
//! scale-out flattens at 2 warehouses/server because of warehouse-row lock
//! contention; 16 warehouses/server scales near-linearly). Absolute numbers
//! depend on calibration constants in [`SimConfig`], documented as the
//! Table 2 substitution.
//!
//! It models no data movement: what a live migration costs foreground
//! statements is measured on the real server, by the benchmark's
//! `serve_migrate` workload.

pub mod config;
pub mod engine;
pub mod locks;
pub mod metrics;
pub mod txn;

pub use config::{Micros, SimConfig};
pub use engine::run;
pub use locks::{Key, LockManager, LockMode, LockResult};
pub use metrics::{SimReport, SimStats};
pub use txn::{SimOp, SimTxn};
