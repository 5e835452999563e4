//! Shard liveness: the `Live / Down / CatchingUp` registry every tier
//! above the store shares.
//!
//! The server marks a shard down when its worker stops answering; the
//! migration executor consults the same [`HealthMap`] so a copy source is
//! always a *live* replica holding the acked-write frontier. A downed
//! shard is not stuck forever: once its worker is respawned it
//! transitions through [`HealthState::CatchingUp`] — receiving all
//! foreground writes but serving no reads and counting toward no quorum —
//! until a catch-up copy verifies it against a live replica and flips it
//! back to [`HealthState::Live`]. Because a shard only re-enters the
//! read/quorum set *after* that verified copy, "every live copy has every
//! acknowledged write" stays an invariant instead of becoming a race.
//!
//! Liveness is state, not fault injection: nothing here fires a fault.
//! The fault schedule lives in [`fault`](crate::fault)
//! ([`FaultPlan`](crate::FaultPlan)). Every reader takes liveness one
//! way: a single shard's [`HealthMap::state`], or a [`HealthView`]
//! ([`HealthMap::view`], one lock) when several decisions must agree on
//! one consistent liveness state.

use crate::ShardId;
use schism_router::PartitionSet;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Per-shard liveness state. Absent from the [`HealthMap`] means `Live`.
///
/// ```text
///            mark_down                begin_catch_up
///   Live ───────────────► Down ───────────────────► CatchingUp
///    ▲                     ▲                             │
///    │      mark_live      │         mark_down           │
///    └─────────────────────┼─────────────────────────────┤
///                          └─────────────────────────────┘
/// ```
///
/// `CatchingUp` is the rejoin window: the shard's worker is back and the
/// serving layer targets it with every foreground write (so it misses
/// nothing new), but it serves no reads, leads no replica set, and counts
/// toward no write quorum until a catch-up copy (copy → verify against a
/// live replica) flips it `Live`. If the catch-up fails or the worker dies
/// again, `mark_down` sends it back to `Down`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Holds the acked-write frontier; full read/write/quorum member.
    Live,
    /// Worker dead; receives nothing, serves nothing.
    Down,
    /// Worker back up and receiving writes, but stale until its catch-up
    /// copy verifies — excluded from reads, leadership, and quorums.
    CatchingUp,
}

/// One consistent snapshot of every non-live shard ([`HealthMap::view`]):
/// what a reader decides against when several decisions (leader, write
/// targets, quorum, read owner) must agree on the same liveness state.
/// Everything in neither set is `Live`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthView {
    /// Strictly [`HealthState::Down`]: receives nothing, serves nothing.
    pub down: PartitionSet,
    /// [`HealthState::CatchingUp`]: receives writes, serves nothing.
    pub catching_up: PartitionSet,
}

impl HealthView {
    /// Everything that is not `Live` (`down ∪ catching_up`): the set to
    /// exclude from reads, leader choice, and quorum counting.
    pub fn not_live(&self) -> PartitionSet {
        self.down.union(&self.catching_up)
    }
}

/// Shared shard-liveness map. `mark_down` is the only transition the data
/// path takes on its own (structural failure detection); the recovery
/// transitions `begin_catch_up` and `mark_live` are driven by whoever runs
/// the rejoin (`Server::revive_shard` plus a catch-up copy, as the chaos
/// and bench harnesses do), and
/// `mark_live` must only be called after a verified catch-up copy — the
/// map itself cannot know whether the shard's store is current.
#[derive(Debug, Default)]
pub struct HealthMap {
    /// Every holder does one map operation and nothing that can panic, so
    /// the `expect`s on this lock can only trip on a bug in this file.
    states: RwLock<BTreeMap<ShardId, HealthState>>,
    /// Counts *new* failures (transitions into `Down`) — the serving
    /// layer's failover counter.
    failures: AtomicU64,
    /// Counts completed rejoins (transitions `CatchingUp` → `Live`).
    rejoins: AtomicU64,
}

impl HealthMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state of `shard`.
    pub fn state(&self, shard: ShardId) -> HealthState {
        self.states
            .read()
            .expect("health lock poisoned")
            .get(&shard)
            .copied()
            .unwrap_or(HealthState::Live)
    }

    /// Whether `shard` is strictly [`HealthState::Down`] (its worker is
    /// dead and no recovery has started).
    pub fn is_down(&self, shard: ShardId) -> bool {
        self.state(shard) == HealthState::Down
    }

    /// Marks `shard` failed (from any state). Returns whether it was newly
    /// marked — re-marking an already-down shard is not a new failure, but
    /// killing a catching-up shard is.
    pub fn mark_down(&self, shard: ShardId) -> bool {
        let newly = self
            .states
            .write()
            .expect("health lock poisoned")
            .insert(shard, HealthState::Down)
            != Some(HealthState::Down);
        if newly {
            self.failures.fetch_add(1, Ordering::SeqCst);
        }
        newly
    }

    /// Transitions `shard` from `Down` to `CatchingUp`. Call *after* its
    /// worker is respawned, so foreground writes targeted at the
    /// catching-up shard land instead of failing. Returns `false` (no-op)
    /// unless the shard is currently `Down`.
    pub fn begin_catch_up(&self, shard: ShardId) -> bool {
        let mut states = self.states.write().expect("health lock poisoned");
        match states.get(&shard) {
            Some(HealthState::Down) => {
                states.insert(shard, HealthState::CatchingUp);
                true
            }
            _ => false,
        }
    }

    /// Transitions `shard` from `CatchingUp` to `Live`. Only valid after a
    /// verified catch-up copy; returns `false` (no-op) unless the shard is
    /// currently `CatchingUp`.
    pub fn mark_live(&self, shard: ShardId) -> bool {
        let mut states = self.states.write().expect("health lock poisoned");
        match states.get(&shard) {
            Some(HealthState::CatchingUp) => {
                states.remove(&shard);
                self.rejoins.fetch_add(1, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Snapshot of every non-live shard under **one** lock acquisition, so
    /// the two sets are mutually consistent.
    pub fn view(&self) -> HealthView {
        let mut view = HealthView::default();
        for (&shard, &state) in self.states.read().expect("health lock poisoned").iter() {
            match state {
                HealthState::Live => {}
                HealthState::Down => view.down.insert(shard),
                HealthState::CatchingUp => view.catching_up.insert(shard),
            }
        }
        view
    }

    /// Number of failures (transitions into `Down`) recorded so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }

    /// Number of completed rejoins (`CatchingUp` → `Live`) so far.
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_map_counts_new_failures_once() {
        let h = HealthMap::new();
        assert!(!h.is_down(3));
        assert_eq!(h.state(3), HealthState::Live);
        assert!(h.view().down.is_empty());
        assert!(h.mark_down(3));
        assert!(!h.mark_down(3), "re-marking is not a new failure");
        assert!(h.mark_down(1));
        assert!(h.is_down(3) && h.is_down(1) && !h.is_down(0));
        assert_eq!(h.failures(), 2);
        let set = h.view().down;
        assert_eq!(set.len(), 2);
        assert!(set.contains(1) && set.contains(3));
    }

    #[test]
    fn health_state_machine_walks_down_catching_up_live() {
        let h = HealthMap::new();
        // Recovery transitions are no-ops from the wrong state.
        assert!(!h.begin_catch_up(2), "cannot catch up a live shard");
        assert!(!h.mark_live(2), "cannot re-mark a live shard");

        assert!(h.mark_down(2));
        assert_eq!(h.state(2), HealthState::Down);
        assert!(!h.mark_live(2), "down shard must catch up first");

        assert!(h.begin_catch_up(2));
        assert!(!h.begin_catch_up(2), "already catching up");
        assert_eq!(h.state(2), HealthState::CatchingUp);
        // Catching up is neither down nor live: excluded from reads and
        // quorums, but no longer treated as failed for routing.
        assert!(!h.is_down(2) && h.state(2) != HealthState::Live);
        assert!(h.view().down.is_empty());
        assert!(h.view().catching_up.contains(2));
        assert!(h.view().not_live().contains(2));

        assert!(h.mark_live(2));
        assert_eq!(h.state(2), HealthState::Live);
        assert_eq!(h.state(2), HealthState::Live);
        assert!(h.view().not_live().is_empty());
        assert_eq!(h.rejoins(), 1);
        assert_eq!(h.failures(), 1);
    }

    #[test]
    fn killing_a_catching_up_shard_is_a_new_failure() {
        let h = HealthMap::new();
        assert!(h.mark_down(5));
        assert!(h.begin_catch_up(5));
        assert!(h.mark_down(5), "dying mid-catch-up is a fresh failure");
        assert_eq!(h.state(5), HealthState::Down);
        assert_eq!(h.failures(), 2);
        assert_eq!(h.rejoins(), 0);
    }

    #[test]
    fn view_is_one_consistent_snapshot_of_both_sets() {
        let h = HealthMap::new();
        assert_eq!(h.view(), HealthView::default());
        h.mark_down(1);
        h.mark_down(4);
        h.begin_catch_up(4);
        let v = h.view();
        assert_eq!(v.down, PartitionSet::single(1));
        assert_eq!(v.catching_up, PartitionSet::single(4));
        assert_eq!(v.not_live(), [1u32, 4].into_iter().collect());
        assert!(v.down.intersect(&v.catching_up).is_empty());
    }
}
