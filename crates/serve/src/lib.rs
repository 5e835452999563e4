//! # schism-serve
//!
//! The end-to-end serving stack: the "JDBC middleware" of Appendix C.2
//! grown into a front door that accepts SQL text, plans each statement
//! against the active partitioning [`Scheme`], executes it on
//! worker-per-shard queues over a [`ShardStore`], and gathers typed
//! results — while the scheme underneath can be swapped atomically and a
//! live migration can flip batches between routing and execution.
//!
//! One statement attempt is view → plan → scatter → gather → ack, and
//! each step has one owner:
//!
//! | module | owns |
//! |--------|------|
//! | [`server`] | the public API ([`Server`], [`ServeConfig`], [`ServeError`], [`load_table`]) and the one driver: snapshot a view (scheme, routing db, one [`HealthMap::view`](schism_store::HealthMap::view)), run the plan, mark failed shards down, retry on `Unavailable` |
//! | `plan` (private) | the pure routing / promotion / quorum rules over that view: who leads, which ordered phases apply a write, who must ack, which replica a read uses, which fan-out still covers a scan |
//! | `scatter` (private) | the worker-per-shard queues — the only code that knows threads and channels — and the one function that sends tasks and gathers replies |
//! | [`session`] | per-client replica-spreading salts and read-your-writes |
//! | [`row`] | the stored-row codec |
//!
//! The serving contract during a migration (details in [`server`]):
//! ordered dual-write phases keep acknowledged writes from being lost to
//! a batch flip, and bounded owner-rechecking point-read retries absorb
//! the flip window. Scan gathers resolve duplicate copies by preferring
//! the shard that currently owns each tuple.
//!
//! Under a replicating scheme the same machinery serves leader-ordered
//! quorum-acked writes, salted follower reads ([`Session`] spreads
//! repeated statements across replicas and guards read-your-writes), and
//! deterministic failover: crashed shards are detected structurally
//! (failed sends, disconnected reply channels — never timeouts), marked
//! down in a sticky [`HealthMap`](schism_store::HealthMap), and statements
//! retry against the promoted survivors. Crashes are injected by the
//! storage crate's [`FaultPlan`](schism_store::FaultPlan), handed in
//! through [`ServeConfig::faults`]. The failure model all of this assumes
//! is listed in `docs/ARCHITECTURE.md` ("Replication & failover").
//!
//! [`Scheme`]: schism_router::Scheme
//! [`ShardStore`]: schism_store::ShardStore

mod plan;
pub mod row;
mod scatter;
pub mod server;
pub mod session;

pub use row::{decode_row, encode_row};
pub use server::{
    load_table, PkValues, RequestMetrics, RouteKind, ServeConfig, ServeError, ServeOutcome, Server,
};
pub use session::Session;
