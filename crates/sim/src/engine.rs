//! The discrete-event engine: closed-loop clients, FIFO CPUs, LAN
//! round-trips, row locks, one-phase and two-phase commit.
//!
//! Every statement is a client→server round trip (as with a JDBC driver);
//! locks are taken before the statement consumes CPU and held until commit.
//! Transactions spanning multiple servers run the §3 protocol: prepare on
//! every participant (parallel), then commit on every participant — two
//! extra message rounds plus the prepare/commit CPU on each server, which
//! is exactly where Figure 1's ~2× throughput gap comes from.

use crate::config::{Micros, SimConfig};
use crate::locks::{LockManager, LockMode, LockResult};
use crate::metrics::{SimReport, SimStats};
use crate::txn::SimTxn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

type TxnId = u64;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ClientStart(u32),
    OpArrive(TxnId),
    OpDone(TxnId),
    PrepareDone(TxnId, u32),
    CommitDone(TxnId, u32),
    LockTimeout(TxnId, u32),
}

#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Executing,
    Preparing,
    Committing,
}

struct ActiveTxn {
    client: u32,
    txn: SimTxn,
    next_op: usize,
    first_start: Micros,
    pending_acks: u32,
    phase: Phase,
    attempt: u32,
    waiting: bool,
}

impl ActiveTxn {
    /// Servers that have executed at least one op so far (lock holders).
    fn touched_servers(&self) -> Vec<u32> {
        let upto = self.next_op.min(self.txn.ops.len());
        let mut s: Vec<u32> = self.txn.ops[..upto].iter().map(|o| o.server).collect();
        // The op currently waiting also enqueued a lock request.
        if self.waiting && self.next_op < self.txn.ops.len() {
            s.push(self.txn.ops[self.next_op].server);
        }
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Runs one simulation to completion and reports the measurement window.
///
/// Each client draws its next transaction uniformly (with replacement)
/// from `pool`, so the offered mix is stationary for the whole run.
pub fn run(cfg: &SimConfig, pool: &[SimTxn]) -> SimReport {
    assert!(!pool.is_empty(), "empty transaction pool");
    let mut sim = Sim::new(cfg, pool);
    sim.bootstrap();
    sim.run_loop();
    SimReport::from_stats(sim.stats, cfg.duration - cfg.warmup)
}

struct Sim<'a> {
    cfg: &'a SimConfig,
    pool: &'a [SimTxn],
    clock: Micros,
    seq: u64,
    events: BinaryHeap<Reverse<(Micros, u64, Event)>>,
    cpu_free: Vec<Micros>,
    locks: Vec<LockManager>,
    active: HashMap<TxnId, ActiveTxn>,
    next_id: TxnId,
    stats: SimStats,
    rng: StdRng,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a SimConfig, pool: &'a [SimTxn]) -> Self {
        Self {
            cfg,
            pool,
            clock: 0,
            seq: 0,
            events: BinaryHeap::new(),
            cpu_free: vec![0; cfg.num_servers as usize],
            locks: (0..cfg.num_servers).map(|_| LockManager::new()).collect(),
            active: HashMap::new(),
            next_id: 0,
            stats: SimStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    fn push(&mut self, at: Micros, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    /// Reserves CPU on `server` for `work` starting no earlier than `at`;
    /// returns the completion time.
    fn cpu(&mut self, server: u32, at: Micros, work: Micros) -> Micros {
        let s = server as usize;
        let start = self.cpu_free[s].max(at);
        self.cpu_free[s] = start + work;
        start + work
    }

    fn bootstrap(&mut self) {
        for c in 0..self.cfg.num_clients {
            // Staggered start to avoid a synchronized thundering herd.
            self.push((c as Micros) * 137 % 10_000, Event::ClientStart(c));
        }
    }

    fn run_loop(&mut self) {
        while let Some(Reverse((at, _, ev))) = self.events.pop() {
            if at > self.cfg.duration {
                break;
            }
            self.clock = at;
            match ev {
                Event::ClientStart(c) => self.client_start(c),
                Event::OpArrive(id) => self.op_arrive(id),
                Event::OpDone(id) => self.op_done(id),
                Event::PrepareDone(id, s) => self.prepare_done(id, s),
                Event::CommitDone(id, s) => self.commit_done(id, s),
                Event::LockTimeout(id, attempt) => self.lock_timeout(id, attempt),
            }
        }
    }

    fn client_start(&mut self, client: u32) {
        let txn = self.pool[self.rng.gen_range(0..self.pool.len())].clone();
        debug_assert!(!txn.ops.is_empty());
        let id = self.next_id;
        self.next_id += 1;
        self.active.insert(
            id,
            ActiveTxn {
                client,
                txn,
                next_op: 0,
                first_start: self.clock,
                pending_acks: 0,
                phase: Phase::Executing,
                attempt: 0,
                waiting: false,
            },
        );
        let at = self.clock + self.cfg.rtt / 2;
        self.push(at, Event::OpArrive(id));
    }

    fn op_arrive(&mut self, id: TxnId) {
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        let op = t.txn.ops[t.next_op];
        let mode = if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        match self.locks[op.server as usize].acquire(id, op.key, mode) {
            LockResult::Granted => {
                let done = self.cpu(op.server, self.clock, self.cfg.stmt_cpu);
                self.push(done, Event::OpDone(id));
            }
            LockResult::Queued => {
                t.waiting = true;
                let attempt = t.attempt;
                let at = self.clock + self.cfg.lock_timeout;
                self.push(at, Event::LockTimeout(id, attempt));
            }
        }
    }

    /// Lock-manager wakeups: the woken transaction's pending op can now
    /// consume CPU.
    fn wake(&mut self, woken: Vec<TxnId>, server: u32) {
        for id in woken {
            let Some(t) = self.active.get_mut(&id) else {
                continue;
            };
            if !t.waiting {
                continue; // stale wake (e.g. re-granted after abort raced)
            }
            t.waiting = false;
            debug_assert_eq!(t.txn.ops[t.next_op].server, server);
            let done = self.cpu(server, self.clock, self.cfg.stmt_cpu);
            self.push(done, Event::OpDone(id));
        }
    }

    fn op_done(&mut self, id: TxnId) {
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        t.next_op += 1;
        if t.next_op < t.txn.ops.len() {
            // Reply to client + next statement request.
            let at = self.clock + self.cfg.rtt;
            self.push(at, Event::OpArrive(id));
            return;
        }
        // Commit.
        let participants = t.txn.participants();
        t.pending_acks = participants.len() as u32;
        if participants.len() == 1 {
            t.phase = Phase::Committing;
            let server = participants[0];
            let arrive = self.clock + self.cfg.rtt; // reply + COMMIT message
            let commit_cpu = self.cfg.commit_cpu;
            let done = self.cpu(server, arrive, commit_cpu);
            self.push(done, Event::CommitDone(id, server));
        } else {
            t.phase = Phase::Preparing;
            let arrive = self.clock + self.cfg.rtt; // reply + PREPARE fan-out
            let prep = self.cfg.prepare_cpu;
            for s in participants {
                let done = self.cpu(s, arrive, prep);
                self.push(done, Event::PrepareDone(id, s));
            }
        }
    }

    fn prepare_done(&mut self, id: TxnId, _server: u32) {
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        debug_assert_eq!(t.phase, Phase::Preparing);
        t.pending_acks -= 1;
        if t.pending_acks > 0 {
            return;
        }
        // All prepared: ack to coordinator + COMMIT fan-out.
        let participants = t.txn.participants();
        t.phase = Phase::Committing;
        t.pending_acks = participants.len() as u32;
        let arrive = self.clock + self.cfg.rtt;
        let commit_cpu = self.cfg.commit_cpu;
        for s in participants {
            let done = self.cpu(s, arrive, commit_cpu);
            self.push(done, Event::CommitDone(id, s));
        }
    }

    fn commit_done(&mut self, id: TxnId, server: u32) {
        let woken = self.locks[server as usize].release_all(id);
        self.wake(woken, server);
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        t.pending_acks -= 1;
        if t.pending_acks > 0 {
            return;
        }
        let finish = self.clock + self.cfg.rtt / 2;
        let latency = finish - t.first_start;
        let distributed = t.txn.is_distributed();
        let client = t.client;
        if finish >= self.cfg.warmup {
            self.stats.record(latency, distributed);
        }
        self.active.remove(&id);
        self.push(finish, Event::ClientStart(client));
    }

    fn lock_timeout(&mut self, id: TxnId, attempt: u32) {
        let Some(t) = self.active.get(&id) else {
            return;
        };
        if t.attempt != attempt || !t.waiting {
            return; // stale timeout
        }
        // Abort: release everything everywhere, retry the same transaction.
        let touched = t.touched_servers();
        for s in touched {
            let woken = self.locks[s as usize].release_all(id);
            self.wake(woken, s);
        }
        if self.clock >= self.cfg.warmup {
            self.stats.aborts += 1;
        }
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        t.next_op = 0;
        t.attempt += 1;
        t.waiting = false;
        t.phase = Phase::Executing;
        t.pending_acks = 0;
        let at = self.clock + self.cfg.retry_backoff + self.cfg.rtt / 2;
        self.push(at, Event::OpArrive(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::SimOp;

    fn point_read_pool(servers: u32, distributed: bool) -> Vec<SimTxn> {
        // Two point reads per txn over distinct keys; either colocated or
        // forced across two servers (the §3 experiment).
        let mut pool = Vec::new();
        for i in 0..200u64 {
            let (s1, s2) = if distributed && servers > 1 {
                (
                    (i % servers as u64) as u32,
                    ((i + 1) % servers as u64) as u32,
                )
            } else {
                let s = (i % servers as u64) as u32;
                (s, s)
            };
            pool.push(SimTxn {
                ops: vec![
                    SimOp {
                        server: s1,
                        key: (0, i * 2),
                        write: false,
                    },
                    SimOp {
                        server: s2,
                        key: (0, i * 2 + 1),
                        write: false,
                    },
                ],
            });
        }
        pool
    }

    #[test]
    fn local_beats_distributed_by_about_2x() {
        let cfg = SimConfig {
            num_servers: 3,
            num_clients: 90,
            ..SimConfig::figure1(3)
        };
        let local = run(&cfg, &point_read_pool(3, false));
        let dist = run(&cfg, &point_read_pool(3, true));
        assert!(local.throughput > 0.0 && dist.throughput > 0.0);
        let ratio = local.throughput / dist.throughput;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "expected ~2x gap, got {ratio:.2} ({} vs {})",
            local.throughput,
            dist.throughput
        );
        assert!(
            dist.mean_latency_ms > 1.4 * local.mean_latency_ms,
            "distributed latency should be much higher: {} vs {}",
            dist.mean_latency_ms,
            local.mean_latency_ms
        );
    }

    #[test]
    fn throughput_scales_with_servers_when_local() {
        let t1 = run(
            &SimConfig {
                num_clients: 60,
                ..SimConfig::figure1(1)
            },
            &point_read_pool(1, false),
        );
        let t4 = run(
            &SimConfig {
                num_clients: 240,
                ..SimConfig::figure1(4)
            },
            &point_read_pool(4, false),
        );
        let speedup = t4.throughput / t1.throughput;
        assert!(
            (3.0..=5.0).contains(&speedup),
            "expected ~4x, got {speedup:.2}"
        );
    }

    #[test]
    fn hot_lock_serializes() {
        // Every transaction writes the same row: throughput is bounded by
        // lock hold time, far below CPU capacity, and adding clients does
        // not help.
        let hot = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (9, 0),
                    write: true,
                },
                SimOp {
                    server: 0,
                    key: (0, 1),
                    write: false,
                },
            ],
        };
        let cold_pool: Vec<SimTxn> = (0..64)
            .map(|i| SimTxn {
                ops: vec![
                    SimOp {
                        server: 0,
                        key: (9, 1000 + i),
                        write: true,
                    },
                    SimOp {
                        server: 0,
                        key: (0, 2000 + i),
                        write: false,
                    },
                ],
            })
            .collect();
        let cfg = SimConfig {
            num_clients: 40,
            ..SimConfig::figure1(1)
        };
        let hot_rep = run(&cfg, &[hot]);
        let cold_rep = run(&cfg, &cold_pool);
        assert!(
            hot_rep.throughput < 0.6 * cold_rep.throughput,
            "contention must cost throughput: hot {} vs cold {}",
            hot_rep.throughput,
            cold_rep.throughput
        );
    }

    #[test]
    fn no_lost_transactions() {
        // Conservation: with conflicting writes and retries, the simulator
        // still completes a healthy number of transactions and never loses
        // clients (throughput stays positive across a long run).
        let pool: Vec<SimTxn> = (0..8)
            .map(|i| SimTxn {
                ops: vec![
                    SimOp {
                        server: 0,
                        key: (0, i % 4),
                        write: true,
                    },
                    SimOp {
                        server: 0,
                        key: (0, 100 + i),
                        write: true,
                    },
                ],
            })
            .collect();
        let cfg = SimConfig {
            num_clients: 16,
            ..SimConfig::figure1(1)
        };
        let rep = run(&cfg, &pool);
        assert!(rep.completed > 100, "completed {}", rep.completed);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig {
            num_clients: 30,
            ..SimConfig::figure1(2)
        };
        let a = run(&cfg, &point_read_pool(2, true));
        let b = run(&cfg, &point_read_pool(2, true));
        assert_eq!(a.completed, b.completed);
        assert!((a.mean_latency_ms - b.mean_latency_ms).abs() < 1e-12);
    }

    #[test]
    fn draws_uniformly_from_the_pool() {
        let local = SimTxn {
            ops: vec![SimOp {
                server: 0,
                key: (0, 1),
                write: false,
            }],
        };
        let distributed = SimTxn {
            ops: vec![
                SimOp {
                    server: 0,
                    key: (0, 2),
                    write: false,
                },
                SimOp {
                    server: 1,
                    key: (0, 3),
                    write: false,
                },
            ],
        };
        let cfg = SimConfig {
            warmup: 200_000,
            duration: 1_200_000,
            ..SimConfig::figure1(2)
        };
        let rep = run(&cfg, &[local, distributed]);
        assert!(
            (0.45..=0.55).contains(&rep.distributed_fraction),
            "{} of {} completed were distributed",
            rep.distributed_fraction,
            rep.completed
        );
    }
}
