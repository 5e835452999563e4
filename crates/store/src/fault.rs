//! Deterministic, replayable fault injection: the one hook a store fires
//! and the one schedule that drives it.
//!
//! A [`FaultPlan`] describes *when* things break, in terms a harness can
//! replay exactly: every trigger counts **events** (worker dequeues, store
//! sync-point hits), never wall-clock time. Given the same plan and the
//! same request sequence, the same faults fire at the same instants — the
//! property `tests/failover_chaos.rs` leans on to make every failing seed
//! reproducible. Three rule kinds:
//! - **crash**: a serving shard worker exits mid-loop
//!   ([`crash_worker`](FaultPlan::crash_worker)); the worker asks
//!   [`on_dequeue`](FaultPlan::on_dequeue) for every task it takes. The
//!   crash is detected without timeouts: the dead worker's queue receiver
//!   is dropped, so the next send fails, and the in-flight task's reply
//!   channel is destroyed, so the gatherer's `recv` disconnects — both
//!   deterministic signals. Crash rules are **one-shot**: a revived worker
//!   does not re-trip the rule that killed it, and stacking several
//!   `crash_worker` calls on one shard schedules kill → rejoin →
//!   kill-again sequences.
//! - **revive**: a schedule hint, not a fault:
//!   [`revive_worker`](FaultPlan::revive_worker) arms a rule that becomes
//!   due once the *total* dequeue count across all shards reaches a
//!   threshold. The plan performs no revival itself — the driving harness
//!   polls [`due_revivals`](FaultPlan::due_revivals) between operations
//!   and calls `Server::revive_shard` + the catch-up path, keeping the
//!   whole rejoin deterministic and replayable.
//! - **stall**: a store blocks at a named sync point
//!   ([`stall`](FaultPlan::stall)). The plan implements [`FaultHook`], so
//!   installing it with [`LogStore::set_fault_hook`] stalls the real
//!   operation, ack and all: [`LogStore`] fires [`sync_points::LOG_SYNC`]
//!   between writing a commit record and `fdatasync`ing it, so tests can
//!   pin that a stalled flush never acknowledges a batch early.
//!
//! Every trigger is a per-rule atomic, so the plan holds no lock. Shard
//! liveness (which workers have stopped answering) is state, not
//! injection, and lives in [`health`](crate::health).
//!
//! [`LogStore`]: crate::LogStore
//! [`LogStore::set_fault_hook`]: crate::LogStore::set_fault_hook

use crate::ShardId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The named sync points a store fires. The map (which operation, fired
/// when) is documented in the "Replication & failover" chapter of
/// `docs/ARCHITECTURE.md`.
pub mod sync_points {
    /// Inside `LogStore` with `sync_commits` on: after the commit record
    /// is written but **before** `fdatasync` — the window in which a
    /// stalled flush must not acknowledge the batch.
    pub const LOG_SYNC: &str = "log.sync";
}

/// Observer invoked at named sync points. Implementations may sleep (to
/// model a stalled disk or a slow replica) but must return — the store
/// blocks inside the hook, which is the point: the operation, and with it
/// the acknowledgement, cannot complete early.
pub trait FaultHook: Send + Sync {
    /// Called with the sync-point name and the shard the operation targets.
    fn at(&self, point: &'static str, shard: ShardId);
}

/// One scheduled worker crash. One-shot: `fired_at` latches the dequeue
/// count the rule fired at (0 = not yet), so a revived worker (whose
/// dequeue counter keeps counting up) is not re-killed by it.
#[derive(Debug)]
struct CrashRule {
    shard: ShardId,
    at: u64,
    fired_at: AtomicU64,
}

/// One scheduled revival, due when the total dequeue count across all
/// shards reaches `at`. Take-once via `taken`.
#[derive(Debug)]
struct ReviveRule {
    shard: ShardId,
    at: u64,
    taken: AtomicBool,
}

/// Stall the next `remaining` hits of `point` (on `shard`, or any shard
/// when `None`) by `stall` each.
#[derive(Debug)]
struct StallRule {
    point: &'static str,
    shard: Option<ShardId>,
    stall: Duration,
    remaining: AtomicU64,
}

/// A replayable fault schedule. Build one with the chained constructors,
/// hand it to the serving layer's `ServeConfig::faults` (worker crashes)
/// and — for store stalls — install it as a [`FaultHook`] on the backend.
/// See the module docs for semantics.
#[derive(Debug)]
pub struct FaultPlan {
    crashes: Vec<CrashRule>,
    revives: Vec<ReviveRule>,
    stalls: Vec<StallRule>,
    /// Per-shard dequeue counters, indexed by shard id (sized for the
    /// router's partition bound so the plan needs no shard count up
    /// front).
    dequeues: Vec<AtomicU64>,
}

impl Default for FaultPlan {
    /// An empty plan: nothing fires, dequeues are only counted.
    fn default() -> Self {
        Self {
            crashes: Vec::new(),
            revives: Vec::new(),
            stalls: Vec::new(),
            dequeues: (0..schism_router::MAX_PARTITIONS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

impl FaultPlan {
    /// Crash `shard`'s worker when its (monotonic, revival-spanning)
    /// dequeue count reaches `after` (1-based; `after = 1` crashes on the
    /// first message). One-shot: the rule fires once and never re-kills a
    /// revived worker. Call repeatedly with increasing thresholds to
    /// schedule kill → rejoin → kill-again sequences on one shard.
    pub fn crash_worker(mut self, shard: ShardId, after: u64) -> Self {
        self.crashes.push(CrashRule {
            shard,
            at: after.max(1),
            fired_at: AtomicU64::new(0),
        });
        self
    }

    /// Arm a revival for `shard`, due once the **total** dequeue count
    /// across all shards reaches `after_total` — a deterministic global
    /// progress clock that keeps ticking while the shard itself is dead.
    /// The plan only reports the rule via
    /// [`due_revivals`](Self::due_revivals); the harness does the actual
    /// revive + catch-up.
    pub fn revive_worker(mut self, shard: ShardId, after_total: u64) -> Self {
        self.revives.push(ReviveRule {
            shard,
            at: after_total.max(1),
            taken: AtomicBool::new(false),
        });
        self
    }

    /// Stall the next `times` hits of the named store sync `point` (see
    /// [`sync_points`]) by `stall`, optionally restricted to one shard.
    pub fn stall(
        mut self,
        point: &'static str,
        shard: Option<ShardId>,
        stall: Duration,
        times: u64,
    ) -> Self {
        self.stalls.push(StallRule {
            point,
            shard,
            stall,
            remaining: AtomicU64::new(times),
        });
        self
    }

    /// Revivals that have become due since the last call (take-once; each
    /// rule is returned exactly one time). Poll between operations and
    /// feed the result to `Server::revive_shard` + the catch-up path.
    pub fn due_revivals(&self) -> Vec<ShardId> {
        if self.revives.is_empty() {
            return Vec::new();
        }
        let total: u64 = self.dequeues.iter().map(|d| d.load(Ordering::SeqCst)).sum();
        self.revives
            .iter()
            .filter(|r| {
                total >= r.at
                    && r.taken
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
            })
            .map(|r| r.shard)
            .collect()
    }

    /// Called by a shard worker for each dequeued message: counts the
    /// dequeue and reports whether a crash rule fires now (the worker
    /// must then exit). At most one rule fires per dequeue.
    pub fn on_dequeue(&self, shard: ShardId) -> bool {
        let n = self.dequeues[shard as usize].fetch_add(1, Ordering::SeqCst) + 1;
        self.crashes.iter().any(|rule| {
            rule.shard == shard
                && n >= rule.at
                && rule
                    .fired_at
                    .compare_exchange(0, n, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        })
    }

    /// Messages `shard`'s worker has dequeued so far (including crashing
    /// ones). The replica-skew test reads these as a passive per-shard
    /// request counter.
    pub fn dequeued(&self, shard: ShardId) -> u64 {
        self.dequeues[shard as usize].load(Ordering::SeqCst)
    }

    /// Crashes that actually fired, in rule order: `(shard, dequeue count
    /// at crash)`.
    pub fn crashes_fired(&self) -> Vec<(ShardId, u64)> {
        self.crashes
            .iter()
            .filter_map(|r| match r.fired_at.load(Ordering::SeqCst) {
                0 => None,
                n => Some((r.shard, n)),
            })
            .collect()
    }
}

impl FaultHook for FaultPlan {
    fn at(&self, point: &'static str, shard: ShardId) {
        // Lock-free, so the sleep holds nothing: concurrent non-stalled
        // operations on other shards keep moving.
        let due = self.stalls.iter().find(|r| {
            r.point == point
                && r.shard.is_none_or(|s| s == shard)
                && r.remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
        });
        if let Some(rule) = due {
            std::thread::sleep(rule.stall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn crash_fires_at_threshold_and_is_recorded() {
        let p = FaultPlan::default().crash_worker(2, 3);
        assert!(!p.on_dequeue(2));
        assert!(!p.on_dequeue(2));
        assert!(p.on_dequeue(2));
        // Other shards never crash.
        for _ in 0..5 {
            assert!(!p.on_dequeue(0));
        }
        assert_eq!(p.crashes_fired(), vec![(2, 3)]);
        assert_eq!(p.dequeued(2), 3);
        assert_eq!(p.dequeued(0), 5);
    }

    #[test]
    fn crash_rules_are_one_shot_and_stackable() {
        let p = FaultPlan::default().crash_worker(1, 2).crash_worker(1, 5);
        assert!(!p.on_dequeue(1)); // n=1
        assert!(p.on_dequeue(1)); // n=2: first rule
                                  // A revived worker keeps dequeuing on the same counter and must
                                  // not be re-killed by the rule that already fired.
        assert!(!p.on_dequeue(1)); // n=3
        assert!(!p.on_dequeue(1)); // n=4
        assert!(p.on_dequeue(1)); // n=5: second rule
        assert!(!p.on_dequeue(1)); // n=6
        assert_eq!(p.crashes_fired(), vec![(1, 2), (1, 5)]);
    }

    #[test]
    fn revivals_come_due_on_total_progress_and_are_taken_once() {
        let p = FaultPlan::default().crash_worker(0, 1).revive_worker(0, 5);
        assert!(p.on_dequeue(0));
        assert!(p.due_revivals().is_empty(), "total = 1, due at 5");
        for _ in 0..3 {
            assert!(!p.on_dequeue(2));
        }
        assert!(p.due_revivals().is_empty(), "total = 4");
        p.on_dequeue(3);
        assert_eq!(p.due_revivals(), vec![0], "total = 5: due");
        assert!(p.due_revivals().is_empty(), "take-once");
    }

    #[test]
    fn stall_hook_is_bounded_and_point_scoped() {
        let p = FaultPlan::default().stall("log.sync", Some(0), Duration::from_millis(20), 2);
        let t0 = std::time::Instant::now();
        p.at("log.sync", 1); // wrong shard: no stall
        p.at("store.get", 0); // wrong point: no stall
        assert!(t0.elapsed() < Duration::from_millis(15));
        let t1 = std::time::Instant::now();
        p.at("log.sync", 0);
        p.at("log.sync", 0);
        assert!(t1.elapsed() >= Duration::from_millis(40));
        let t2 = std::time::Instant::now();
        p.at("log.sync", 0); // budget exhausted
        assert!(t2.elapsed() < Duration::from_millis(15));
    }

    #[test]
    fn concurrent_dequeues_fire_each_crash_once_and_revive_once() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 25;
        let p = Arc::new(
            FaultPlan::default()
                .crash_worker(0, 5)
                .crash_worker(0, 40)
                .revive_worker(0, 100),
        );
        let barrier = Arc::new(Barrier::new(THREADS));
        let crashed: usize = (0..THREADS)
            .map(|_| {
                let (p, barrier) = (Arc::clone(&p), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..PER_THREAD).filter(|_| p.on_dequeue(0)).count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(crashed, 2, "each stacked rule fires exactly once");
        assert_eq!(p.dequeued(0), (THREADS * PER_THREAD) as u64);
        // Each rule once, in rule order, at a count at or past its
        // threshold; one dequeue fires at most one rule.
        let fired = p.crashes_fired();
        assert_eq!(fired.len(), 2, "{fired:?}");
        assert!(fired[0].0 == 0 && fired[0].1 >= 5, "{fired:?}");
        assert!(fired[1].0 == 0 && fired[1].1 >= 40, "{fired:?}");
        assert_ne!(fired[0].1, fired[1].1, "{fired:?}");

        // Total = 100: the revival is due, and exactly one poller takes it.
        let taken: Vec<Vec<ShardId>> = (0..THREADS)
            .map(|_| {
                let (p, barrier) = (Arc::clone(&p), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    p.due_revivals()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(taken.concat(), vec![0], "take-once across pollers");
    }
}
