//! Property-based contract tests for the storage layer: the volatile
//! `MemStore` and the persistent `LogStore` must be **observationally
//! equivalent** under any interleaving of `apply_batch`, single-op
//! writes, reads, scans, and executor-style rollbacks — and the
//! `LogStore` must additionally survive a kill at *any* byte offset of a
//! segment write, recovering to exactly the last committed batch.
//!
//! These are the tests `docs/STORES.md` points at from the "`ShardStore`
//! contract" section: a new backend that passes this file honors the
//! atomicity, visibility, and accounting invariants the migration
//! executor builds on.

use proptest::prelude::*;
use schism_migrate::{plan_migration, ExecutorConfig, MigrationExecutor, PlanConfig, StepOutcome};
use schism_router::{
    IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet, Scheme, VersionedScheme,
};
use schism_store::{
    load_assignment, log::EXTENT, tempdir::TempDir, LogStore, LogStoreConfig, MemStore, ShardStats,
    ShardStore, StoreError, WriteOp,
};
use schism_workload::{splitmix64, MaterializedDb, TupleId};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use test_store::TestStore;

#[path = "support/test_store.rs"]
mod test_store;

const TABLES: u16 = 3;
const ROWS: u64 = 20;
const SHARDS: u32 = 3;

/// Advances `state` by the SplitMix64 increment and mixes it.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    splitmix64(*state)
}

fn rand_tuple(state: &mut u64) -> TupleId {
    TupleId::new(
        (splitmix(state) % u64::from(TABLES)) as u16,
        splitmix(state) % ROWS,
    )
}

fn rand_value(state: &mut u64) -> Vec<u8> {
    let len = (splitmix(state) % 80) as usize;
    (0..len).map(|_| splitmix(state) as u8).collect()
}

fn rand_ops(state: &mut u64, max: u64) -> Vec<WriteOp> {
    let n = 1 + splitmix(state) % max;
    (0..n)
        .map(|_| {
            let t = rand_tuple(state);
            if splitmix(state).is_multiple_of(4) {
                WriteOp::Delete(t)
            } else {
                WriteOp::Put(t, rand_value(state))
            }
        })
        .collect()
}

/// Per-shard list of `(tuple, value)` rows — one inner vec per shard.
type ShardContents = Vec<Vec<(TupleId, Vec<u8>)>>;

/// Full observable contents of every shard, via the trait only (so it
/// works identically on both backends).
fn contents(store: &dyn ShardStore) -> ShardContents {
    (0..store.num_shards())
        .map(|s| {
            (0..TABLES)
                .flat_map(|tb| store.scan_range(s, tb, 0..10_000).unwrap())
                .collect()
        })
        .collect()
}

/// `stats()` must agree with what the scans actually return — this is the
/// accounting invariant (rows = live rows, bytes = live payload bytes),
/// and in particular the overwrite case: replaced values' bytes must be
/// subtracted, batch after batch.
fn assert_accounting_exact(store: &dyn ShardStore) {
    for (shard, rows) in contents(store).iter().enumerate() {
        let stats = store.stats(shard as u32).unwrap();
        let want = ShardStats {
            rows: rows.len() as u64,
            bytes: rows.iter().map(|(_, v)| v.len() as u64).sum(),
        };
        assert_eq!(stats, want, "shard {shard} accounting drifted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random interleavings of batches, single ops, reads, scans, and
    /// rollback pairs observe identical results on both backends; the
    /// LogStore additionally reports the same observable state after a
    /// drop + reopen. Compaction is tuned aggressive so several rewrite
    /// cycles happen *mid-interleaving*.
    #[test]
    fn backends_observationally_equivalent(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let dir = TempDir::new("schism-prop-diff").unwrap();
        let mem = MemStore::new(SHARDS);
        let log = LogStore::with_config(
            dir.path(),
            SHARDS,
            LogStoreConfig { compact_min_bytes: 2_048, sync_commits: false },
        ).unwrap();
        for _ in 0..60 {
            let shard = (splitmix(&mut st) % u64::from(SHARDS + 1)) as u32; // sometimes out of range
            match splitmix(&mut st) % 6 {
                0 | 1 => {
                    let ops = rand_ops(&mut st, 8);
                    prop_assert_eq!(mem.apply_batch(shard, &ops), log.apply_batch(shard, &ops));
                }
                2 => {
                    let t = rand_tuple(&mut st);
                    let v = rand_value(&mut st);
                    prop_assert_eq!(mem.put(shard, t, v.clone()), log.put(shard, t, v));
                    let back = rand_tuple(&mut st);
                    prop_assert_eq!(mem.get(shard, back), log.get(shard, back));
                }
                3 => {
                    let t = rand_tuple(&mut st);
                    prop_assert_eq!(mem.delete(shard, t), log.delete(shard, t));
                }
                4 => {
                    let tb = (splitmix(&mut st) % u64::from(TABLES)) as u16;
                    let a = splitmix(&mut st) % (ROWS + 2);
                    let b = splitmix(&mut st) % (ROWS + 2);
                    prop_assert_eq!(
                        mem.scan_range(shard, tb, a..b),
                        log.scan_range(shard, tb, a..b)
                    );
                }
                _ => {
                    // Executor-style abort: copy a batch of previously
                    // absent keys, then roll it back with the inverse
                    // deletes. Both backends must return to the prior
                    // observable state (this is exactly what
                    // MigrationExecutor::rollback_batch issues).
                    if shard >= SHARDS { continue; }
                    let before_mem = contents(&mem);
                    let fresh: Vec<TupleId> = (0..4)
                        .map(|i| TupleId::new(TABLES - 1, ROWS + 10 + i)) // outside keyspace: absent
                        .collect();
                    let puts: Vec<WriteOp> = fresh.iter()
                        .map(|&t| WriteOp::Put(t, rand_value(&mut st)))
                        .collect();
                    mem.apply_batch(shard, &puts).unwrap();
                    log.apply_batch(shard, &puts).unwrap();
                    let dels: Vec<WriteOp> = fresh.iter().map(|&t| WriteOp::Delete(t)).collect();
                    mem.apply_batch(shard, &dels).unwrap();
                    log.apply_batch(shard, &dels).unwrap();
                    prop_assert_eq!(contents(&mem), before_mem.clone());
                    prop_assert_eq!(contents(&log), before_mem);
                }
            }
        }
        prop_assert_eq!(contents(&mem), contents(&log));
        assert_accounting_exact(&mem);
        assert_accounting_exact(&log);
        // Persistence: the log backend's observable state survives reopen.
        let final_state = contents(&log);
        drop(log);
        let reopened = LogStore::open(dir.path(), SHARDS).unwrap();
        prop_assert_eq!(contents(&reopened), final_state);
        assert_accounting_exact(&reopened);
    }

    /// Kill-at-any-write-offset: truncate the segment at **every** byte
    /// offset and reopen. The recovered state must be exactly the state
    /// after the last batch whose commit record fit under the cut — no
    /// torn batch ever half-applies, no committed batch is ever lost.
    #[test]
    fn logstore_recovers_exact_committed_prefix(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let dir = TempDir::new("schism-prop-kill").unwrap();
        // Compaction off: rewrites would change offsets out from under
        // the boundary bookkeeping this test does.
        let cfg = LogStoreConfig { compact_min_bytes: u64::MAX, ..LogStoreConfig::default() };
        let mut snapshots: Vec<ShardContents> = Vec::new();
        let mut boundaries: Vec<u64> = Vec::new(); // committed end after snapshot i
        let seg = {
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            snapshots.push(contents(&s));
            boundaries.push(0);
            let batches = 2 + splitmix(&mut st) % 4;
            for _ in 0..batches {
                s.apply_batch(0, &rand_ops(&mut st, 5)).unwrap();
                snapshots.push(contents(&s));
                boundaries.push(s.segment_bytes(0).unwrap());
            }
            s.segment_path(0)
        };
        let full = std::fs::read(&seg).unwrap();
        prop_assert_eq!(*boundaries.last().unwrap() as usize, full.len());
        for cut in 0..=full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            let expect = boundaries.iter().rposition(|&b| b <= cut as u64).unwrap();
            prop_assert_eq!(
                contents(&s),
                snapshots[expect].clone(),
                "cut at {} must recover snapshot {}", cut, expect
            );
            // And the truncated store still accepts writes.
            if cut == full.len() / 2 {
                s.put(0, TupleId::new(0, 999), vec![1, 2, 3]).unwrap();
                prop_assert_eq!(s.get(0, TupleId::new(0, 999)).unwrap(), Some(vec![1, 2, 3]));
            }
        }
    }

    /// Torn-write recovery under `sync_commits = true` (the ROADMAP
    /// durability item's missing test): with per-commit fdatasync, every
    /// batch whose commit record was fully appended is a *synced committed
    /// prefix* the store has promised to keep. A synced segment grows in
    /// sparse `EXTENT`s, so a kill leaves one of two images at every byte
    /// offset of the committed records: the truncated one (killed before
    /// the extent grew) and the preallocated one (killed inside an extent:
    /// the written prefix, then zeros up to the file's length). Reopen
    /// both: recovery must restore exactly the last synced commit at or
    /// under the cut — a torn tail batch never half-applies, and no synced
    /// batch is ever rolled back. Where the records themselves hold zero
    /// bytes just past the cut, the preallocated image is byte-identical
    /// to a longer cut's, so it is judged at the end of that zero run. The
    /// recovered store must also still accept (synced) writes.
    #[test]
    fn logstore_sync_commits_survive_torn_writes(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let dir = TempDir::new("schism-prop-sync-kill").unwrap();
        // Per-commit fsync on; compaction off so offsets stay stable under
        // the boundary bookkeeping below.
        let cfg = LogStoreConfig {
            compact_min_bytes: u64::MAX,
            sync_commits: true,
        };
        let mut snapshots: Vec<ShardContents> = Vec::new();
        let mut boundaries: Vec<u64> = Vec::new(); // synced committed end after batch i
        let seg = {
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            snapshots.push(contents(&s));
            boundaries.push(0);
            let batches = 2 + splitmix(&mut st) % 4;
            for _ in 0..batches {
                s.apply_batch(0, &rand_ops(&mut st, 5)).unwrap();
                snapshots.push(contents(&s));
                boundaries.push(s.segment_bytes(0).unwrap());
            }
            s.segment_path(0)
        };
        let full = std::fs::read(&seg).unwrap();
        let committed = *boundaries.last().unwrap() as usize;
        prop_assert_eq!(full.len() as u64 % EXTENT, 0, "the file grows in whole extents");
        prop_assert!(full.len() >= committed);
        prop_assert!(full[committed..].iter().all(|&b| b == 0), "the extent's rest reads zero");
        for cut in 0..=committed {
            // The preallocated image reads the record's bytes up to the
            // first nonzero one past the cut.
            let zeros_from_cut = full[cut..committed].iter().take_while(|&&b| b == 0).count();
            for (image_len, reach) in [(cut, cut), (full.len(), cut + zeros_from_cut)] {
                let file = std::fs::File::create(&seg).unwrap();
                (&file).write_all(&full[..cut]).unwrap();
                file.set_len(image_len as u64).unwrap();
                drop(file);
                let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
                let expect = boundaries.iter().rposition(|&b| b <= reach as u64).unwrap();
                prop_assert_eq!(
                    contents(&s),
                    snapshots[expect].clone(),
                    "sync_commits cut at {} (file {} bytes) must recover synced snapshot {}",
                    cut, image_len, expect
                );
                // A cut at a synced boundary is a clean kill: nothing may be
                // missing. (Cuts between boundaries are torn tails; the
                // rposition check above already pins them to the prior commit.)
                if cut > 0 && boundaries.contains(&(cut as u64)) {
                    prop_assert_eq!(
                        contents(&s),
                        snapshots[boundaries.iter().position(|&b| b == cut as u64).unwrap()].clone()
                    );
                }
                // And the truncated store still accepts synced writes.
                if cut == committed / 2 {
                    s.put(0, TupleId::new(0, 999), vec![4, 5, 6]).unwrap();
                    prop_assert_eq!(s.get(0, TupleId::new(0, 999)).unwrap(), Some(vec![4, 5, 6]));
                }
            }
        }
    }

    /// The full migration executor behaves identically on both backends,
    /// and on a `LogStore` that compacts segments mid-plan.
    #[test]
    fn executor_runs_identically_on_both_backends(seed in 0u64..u64::MAX) {
        run_executor_on_every_backend(seed);
    }
}

/// Runs one seeded random plan through the executor on a `MemStore`, a
/// default `LogStore` and a `LogStore` that compacts any segment past 256
/// bytes: same step outcomes (each flipped batch's report, retries from
/// injected corruption, the final abort-with-rollback), same totals, same
/// final physical state. Returns how many compactions the compacting store
/// ran while the plan executed.
fn run_executor_on_every_backend(seed: u64) -> u64 {
    let mut st = seed;
    let db = MaterializedDb::new();
    let n_rows = 12 + splitmix(&mut st) % 20;
    let old: HashMap<TupleId, PartitionSet> = (0..n_rows)
        .map(|r| {
            let p = PartitionSet::single((splitmix(&mut st) % 3) as u32);
            (TupleId::new(0, r), p)
        })
        .collect();
    let new: HashMap<TupleId, PartitionSet> = old
        .keys()
        .map(|&t| (t, PartitionSet::single((splitmix(&mut st) % 3) as u32)))
        .collect();
    let plan = plan_migration(
        &old,
        &new,
        &db,
        &PlanConfig {
            max_rows_per_batch: 4,
        },
    );
    // Sometimes poison one batch's first copy persistently: every backend
    // must retry, fail verification, roll back, and abort identically.
    let (cfg, victim) = if splitmix(&mut st).is_multiple_of(2) && !plan.batches.is_empty() {
        let bad = (splitmix(&mut st) % plan.batches.len() as u64) as usize;
        let cfg = ExecutorConfig {
            max_retries: 1,
            ..ExecutorConfig::default()
        };
        let first_copy = plan.batches[bad]
            .moves
            .iter()
            .find(|m| !m.copies_added().is_empty());
        (cfg, first_copy.map(|m| m.tuple))
    } else {
        (ExecutorConfig::default(), None)
    };

    let dir = TempDir::new("schism-prop-exec").unwrap();
    let mem = MemStore::new(SHARDS);
    let log = LogStore::open(dir.path().join("default"), SHARDS).unwrap();
    let compacting = LogStore::with_config(
        dir.path().join("compacting"),
        SHARDS,
        LogStoreConfig {
            compact_min_bytes: 256,
            ..LogStoreConfig::default()
        },
    )
    .unwrap();
    for store in [&mem as &dyn ShardStore, &log, &compacting] {
        load_assignment(store, &old, &db).unwrap();
    }
    let compactions_before = compacting.compactions();
    let run = |store: &dyn ShardStore| {
        let vs = VersionedScheme::new(lookup_scheme(&old), lookup_scheme(&new));
        let faulty = match victim {
            Some(t) => TestStore::new(store).corrupting(t, 2),
            None => TestStore::new(store),
        };
        let mut exec = MigrationExecutor::new(&plan, &faulty, &vs, cfg.clone());
        let mut outcomes = Vec::new();
        loop {
            let o = exec.step();
            let done = matches!(o, StepOutcome::Done);
            outcomes.push(o);
            if done {
                break;
            }
        }
        (outcomes, exec.report())
    };
    let (mo, mtotal) = run(&mem);
    for store in [&log as &dyn ShardStore, &compacting] {
        let (o, total) = run(store);
        assert_eq!(o, mo);
        assert_eq!(total, mtotal);
        assert_eq!(contents(store), contents(&mem));
        assert_accounting_exact(store);
    }
    compacting.compactions() - compactions_before
}

/// A fixed seed whose plan compacts a segment while it runs, so the
/// executor's copy / verify / flip is checked across a compaction every
/// run, not only when the proptest happens to draw one.
#[test]
fn executor_matches_memstore_across_a_compaction() {
    // Seed 1 compacts three segments mid-plan.
    let compactions = run_executor_on_every_backend(1);
    assert!(compactions > 0, "no segment compacted during the plan");
}

fn lookup_scheme(asg: &HashMap<TupleId, PartitionSet>) -> Arc<dyn Scheme> {
    let entries: Vec<(u64, PartitionSet)> = asg.iter().map(|(t, &p)| (t.row, p)).collect();
    Arc::new(LookupScheme::new(
        SHARDS,
        vec![Some(
            Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>
        )],
        vec![None],
        MissPolicy::HashRow,
    ))
}

/// Regression (ISSUE 3 satellite): overwrite-heavy batches must keep
/// rows/bytes accounting exact on *both* backends. The audit that came
/// with this test found `MemStore::put` already subtracts the replaced
/// value's bytes (since the executor PR); this pins the behavior so it
/// cannot regress silently, and holds `LogStore` to the same standard.
#[test]
fn overwrite_heavy_batches_keep_accounting_exact() {
    let dir = TempDir::new("schism-overwrite-acct").unwrap();
    let mem = MemStore::new(1);
    let log = LogStore::open(dir.path(), 1).unwrap();
    for store in [&mem as &dyn ShardStore, &log as &dyn ShardStore] {
        // 40 batches, each overwriting the same 5 keys with new sizes.
        for round in 0..40u64 {
            let ops: Vec<WriteOp> = (0..5u64)
                .map(|r| {
                    WriteOp::Put(
                        TupleId::new(0, r),
                        vec![round as u8; 10 + (round as usize * 7 + r as usize) % 90],
                    )
                })
                .collect();
            store.apply_batch(0, &ops).unwrap();
        }
        let stats = store.stats(0).unwrap();
        assert_eq!(stats.rows, 5, "live rows");
        let scanned: u64 = store
            .scan_range(0, 0, 0..10)
            .unwrap()
            .iter()
            .map(|(_, v)| v.len() as u64)
            .sum();
        assert_eq!(stats.bytes, scanned, "bytes drifted under overwrites");
    }
}

/// Both backends agree on error surfaces too: out-of-range shards fail
/// identically whatever the op.
#[test]
fn error_surface_matches_across_backends() {
    let dir = TempDir::new("schism-errors").unwrap();
    let mem = MemStore::new(2);
    let log = LogStore::open(dir.path(), 2).unwrap();
    let t = TupleId::new(0, 0);
    for store in [&mem as &dyn ShardStore, &log as &dyn ShardStore] {
        assert_eq!(store.get(5, t).unwrap_err(), StoreError::NoSuchShard(5));
        assert_eq!(
            store.put(5, t, vec![]).unwrap_err(),
            StoreError::NoSuchShard(5)
        );
        assert_eq!(store.delete(5, t).unwrap_err(), StoreError::NoSuchShard(5));
        assert_eq!(store.stats(5).unwrap_err(), StoreError::NoSuchShard(5));
        assert_eq!(
            store.apply_batch(5, &[]).unwrap_err(),
            StoreError::NoSuchShard(5)
        );
        assert_eq!(
            store.scan_range(5, 0, 0..1).unwrap_err(),
            StoreError::NoSuchShard(5)
        );
    }
}

/// Satellite of the fault-injection work: a stalled `fdatasync` at the
/// `log.sync` point must *delay* the batch ack, never let it race ahead —
/// the commit is acknowledged strictly after the stall elapses, and the
/// store then holds exactly what a fault-free `MemStore` holds for the
/// same batch (differential check).
#[test]
fn stalled_log_sync_never_acks_early() {
    use schism_store::{sync_points, FaultHook, FaultPlan};
    use std::time::{Duration, Instant};

    const STALL: Duration = Duration::from_millis(200);
    let dir = TempDir::new("schism-stall").unwrap();
    let log = Arc::new(
        LogStore::with_config(
            dir.path(),
            SHARDS,
            LogStoreConfig {
                sync_commits: true,
                ..LogStoreConfig::default()
            },
        )
        .unwrap(),
    );
    let mem = MemStore::new(SHARDS);
    let mut state = 0xFEED_u64;
    let ops = rand_ops(&mut state, 12);
    let plan = Arc::new(FaultPlan::default().stall(sync_points::LOG_SYNC, Some(0), STALL, 1));
    log.set_fault_hook(Some(Arc::clone(&plan) as Arc<dyn FaultHook>));

    let (tx, rx) = std::sync::mpsc::channel();
    let flusher = {
        let (log, ops) = (Arc::clone(&log), ops.clone());
        std::thread::spawn(move || {
            let started = Instant::now();
            log.apply_batch(0, &ops).unwrap();
            tx.send(started.elapsed()).unwrap();
        })
    };
    // Mid-stall the ack must not have arrived.
    assert!(
        rx.recv_timeout(STALL / 2).is_err(),
        "batch acked while its commit sync was stalled"
    );
    let elapsed = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a stalled flush must still ack once the stall lifts");
    assert!(
        elapsed >= STALL,
        "ack after {elapsed:?} outran the {STALL:?} sync stall"
    );
    flusher.join().unwrap();

    // Differential: once acked, the stalled LogStore batch is bit-for-bit
    // what the fault-free MemStore applied.
    mem.apply_batch(0, &ops).unwrap();
    assert_eq!(contents(&*log), contents(&mem));
    assert_accounting_exact(&*log);

    // The stall budget is spent: the next synced commit is not delayed.
    let started = Instant::now();
    log.put(0, TupleId::new(0, 999), b"post-stall".to_vec())
        .unwrap();
    assert!(
        started.elapsed() < STALL / 2,
        "stall with times=1 must not throttle later commits"
    );
}

/// The stall holds no lock while it sleeps: with shard 0's commit sync
/// stalled, a synced batch on shard 1 from another thread acks at its own
/// pace instead of queueing behind the stall.
#[test]
fn stalled_log_sync_does_not_hold_up_other_shards() {
    use schism_store::{sync_points, FaultHook, FaultPlan, ShardId};
    use std::sync::mpsc::{channel, Sender};
    use std::time::{Duration, Instant};

    /// Reports each sync-point hit, then lets the plan stall it.
    struct Reporting(FaultPlan, Sender<ShardId>);
    impl FaultHook for Reporting {
        fn at(&self, point: &'static str, shard: ShardId) {
            let _ = self.1.send(shard);
            self.0.at(point, shard);
        }
    }

    const STALL: Duration = Duration::from_millis(300);
    let dir = TempDir::new("schism-stall-other").unwrap();
    let log = Arc::new(
        LogStore::with_config(
            dir.path(),
            SHARDS,
            LogStoreConfig {
                sync_commits: true,
                ..LogStoreConfig::default()
            },
        )
        .unwrap(),
    );
    let (hit_tx, hit_rx) = channel();
    let plan = FaultPlan::default().stall(sync_points::LOG_SYNC, Some(0), STALL, 1);
    log.set_fault_hook(Some(Arc::new(Reporting(plan, hit_tx))));
    let mut state = 0x0DD5_u64;
    let ops = rand_ops(&mut state, 12);

    let stalled = {
        let (log, ops) = (Arc::clone(&log), ops.clone());
        std::thread::spawn(move || log.apply_batch(0, &ops).unwrap())
    };
    assert_eq!(hit_rx.recv().unwrap(), 0, "shard 0 reached its sync point");
    let other = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || {
            let started = Instant::now();
            log.apply_batch(1, &ops).unwrap();
            started.elapsed()
        })
    };
    let acked_in = other.join().unwrap();
    assert!(
        acked_in < Duration::from_millis(100),
        "shard 1's synced batch took {acked_in:?} behind shard 0's {STALL:?} stall"
    );
    assert!(
        !stalled.is_finished(),
        "shard 0 must still be stalled when shard 1 acks"
    );
    stalled.join().unwrap();
}
