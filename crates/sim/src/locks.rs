//! Row-level shared/exclusive locks with FIFO queueing, per server.
//!
//! Lock waits are what make the 16-warehouse TPC-C configuration of §6.3
//! stop scaling: payment's exclusive warehouse-row lock serializes
//! transactions when only two warehouses live on a server.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// A lockable row key: `(table, row)`.
pub type Key = (u16, u64);

/// Transaction identifier within the simulator.
pub type TxnId = u64;

#[derive(Debug, Default)]
struct LockState {
    /// Current holders; all `Shared`, or exactly one `Exclusive`.
    holders: Vec<(TxnId, LockMode)>,
    /// FIFO queue of waiters.
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        if self.holders.iter().any(|&(t, _)| t == txn) {
            // Re-acquisition: same mode or S-under-X is fine; S->X upgrade
            // only when sole holder.
            return match mode {
                LockMode::Shared => true,
                LockMode::Exclusive => self.holders.len() == 1,
            };
        }
        match mode {
            LockMode::Shared => {
                self.holders.iter().all(|&(_, m)| m == LockMode::Shared)
                    && self.waiters.iter().all(|&(_, m)| m == LockMode::Shared)
                // FIFO fairness: a shared request behind a queued exclusive
                // waits (no starvation of writers).
            }
            LockMode::Exclusive => self.holders.is_empty(),
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if let Some(h) = self.holders.iter_mut().find(|(t, _)| *t == txn) {
            if mode == LockMode::Exclusive {
                h.1 = LockMode::Exclusive; // upgrade
            }
        } else {
            self.holders.push((txn, mode));
        }
    }
}

/// Result of a lock request.
#[derive(Debug, PartialEq, Eq)]
pub enum LockResult {
    Granted,
    Queued,
}

/// Per-server lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<Key, LockState>,
    /// Keys held per transaction (for release).
    held: HashMap<TxnId, Vec<Key>>,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `key` in `mode`. `Queued` means the caller must park the
    /// transaction until [`LockManager::release_all`] wakes it via the
    /// returned grant list.
    pub fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> LockResult {
        let state = self.locks.entry(key).or_default();
        if state.compatible(txn, mode) {
            state.grant(txn, mode);
            self.held.entry(txn).or_default().push(key);
            LockResult::Granted
        } else {
            state.waiters.push_back((txn, mode));
            LockResult::Queued
        }
    }

    /// Releases every lock `txn` holds and removes it from wait queues;
    /// returns the transactions whose queued requests are now granted.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut woken = Vec::new();
        let keys = self.held.remove(&txn).unwrap_or_default();
        for key in keys {
            if let Entry::Occupied(mut e) = self.locks.entry(key) {
                let state = e.get_mut();
                state.holders.retain(|&(t, _)| t != txn);
                Self::promote(state, &mut self.held, &mut woken, key);
                if state.holders.is_empty() && state.waiters.is_empty() {
                    e.remove();
                }
            }
        }
        // Remove txn from any wait queues (abort path).
        self.locks.retain(|_, s| {
            s.waiters.retain(|&(t, _)| t != txn);
            !(s.holders.is_empty() && s.waiters.is_empty())
        });
        woken
    }

    fn promote(
        state: &mut LockState,
        held: &mut HashMap<TxnId, Vec<Key>>,
        woken: &mut Vec<TxnId>,
        key: Key,
    ) {
        // Grant from the queue head: one exclusive, or a run of shareds.
        while let Some(&(t, m)) = state.waiters.front() {
            let ok = match m {
                LockMode::Exclusive => state.holders.is_empty(),
                LockMode::Shared => state.holders.iter().all(|&(_, hm)| hm == LockMode::Shared),
            };
            if !ok {
                break;
            }
            state.waiters.pop_front();
            state.holders.push((t, m));
            held.entry(t).or_default().push(key);
            woken.push(t);
            if m == LockMode::Exclusive {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: Key = (0, 1);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, K, LockMode::Shared), LockResult::Granted);
        assert_eq!(lm.acquire(2, K, LockMode::Shared), LockResult::Granted);
        assert_eq!(lm.acquire(3, K, LockMode::Exclusive), LockResult::Queued);
    }

    #[test]
    fn exclusive_is_exclusive() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, K, LockMode::Exclusive), LockResult::Granted);
        assert_eq!(lm.acquire(2, K, LockMode::Shared), LockResult::Queued);
        let woken = lm.release_all(1);
        assert_eq!(woken, vec![2]);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut lm = LockManager::new();
        lm.acquire(1, K, LockMode::Shared);
        assert_eq!(lm.acquire(2, K, LockMode::Exclusive), LockResult::Queued);
        // A later shared request must queue behind the exclusive.
        assert_eq!(lm.acquire(3, K, LockMode::Shared), LockResult::Queued);
        let woken = lm.release_all(1);
        assert_eq!(woken, vec![2], "writer first");
        let woken = lm.release_all(2);
        assert_eq!(woken, vec![3]);
    }

    #[test]
    fn shared_run_granted_together() {
        let mut lm = LockManager::new();
        lm.acquire(1, K, LockMode::Exclusive);
        lm.acquire(2, K, LockMode::Shared);
        lm.acquire(3, K, LockMode::Shared);
        let woken = lm.release_all(1);
        assert_eq!(woken, vec![2, 3], "both shared waiters wake");
    }

    #[test]
    fn reacquire_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, K, LockMode::Shared), LockResult::Granted);
        assert_eq!(lm.acquire(1, K, LockMode::Shared), LockResult::Granted);
        // Sole holder upgrades.
        assert_eq!(lm.acquire(1, K, LockMode::Exclusive), LockResult::Granted);
        assert_eq!(lm.acquire(2, K, LockMode::Shared), LockResult::Queued);
    }

    #[test]
    fn abort_removes_from_queues() {
        let mut lm = LockManager::new();
        lm.acquire(1, K, LockMode::Exclusive);
        lm.acquire(2, K, LockMode::Exclusive);
        lm.release_all(2); // abort path: just dequeues
        let woken = lm.release_all(1);
        assert!(woken.is_empty());
    }

    #[test]
    fn independent_keys_do_not_interact() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(1, (0, 1), LockMode::Exclusive),
            LockResult::Granted
        );
        assert_eq!(
            lm.acquire(2, (0, 2), LockMode::Exclusive),
            LockResult::Granted
        );
        assert_eq!(
            lm.acquire(3, (1, 1), LockMode::Exclusive),
            LockResult::Granted
        );
    }
}
