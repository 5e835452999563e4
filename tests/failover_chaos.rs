//! Chaos harness for the serve/migrate/store stack: seeded, replayable
//! interleavings of client sessions, migration-executor steps, and a
//! deterministic leader kill injected by a [`FaultPlan`].
//!
//! Invariants checked at every step:
//!
//! 1. **No lost acknowledged writes** — every value a session saw acked is
//!    returned by every later read, through the kill and after cutover.
//! 2. **Read-your-writes** — a session's reads of its own write set hold.
//! 3. **Single live leader per key** — `current_leader` is deterministic,
//!    names a live shard, and stays inside the key's replica set.
//!
//! The vendored proptest has no failure persistence, so the harness rolls
//! its own replayability: every case is driven by one u64 seed; a failing
//! case prints `replay with SCHISM_CHAOS_SEED=<seed>` and writes the seed
//! plus panic message under `target/chaos-failures/` (uploaded as a CI
//! artifact). `SCHISM_CHAOS_SEED=<seed> cargo test -p schism chaos` reruns
//! exactly that interleaving — all fault triggers are count-based, not
//! timer-based, so the replay is bit-identical.

use schism_migrate::{
    plan_migration, run_catch_up, ExecutorConfig, MigrationExecutor, PlanConfig, StepOutcome,
};
use schism_router::{
    HashScheme, IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet,
    ReplicatedScheme, RowKey, Scheme, VersionedScheme,
};
use schism_serve::{load_table, PkValues, ServeConfig, ServeError, Server};
use schism_sql::{ColumnType, Schema, Value};
use schism_store::{FaultPlan, HealthMap, MemStore, ShardStore};
use schism_workload::{splitmix64, TupleId, TupleValues};
use std::collections::HashMap;
use std::sync::Arc;
use test_store::wipe_shard;

#[path = "support/test_store.rs"]
mod test_store;

const K: u32 = 4;
const RF: u32 = 2;
const RF3: u32 = 3;
const N_KEYS: u64 = 32;

/// Steps `exec` until a step flips nothing; returns that step's outcome.
fn run(exec: &mut MigrationExecutor<'_>) -> StepOutcome {
    loop {
        match exec.step() {
            StepOutcome::Flipped(_) => {}
            other => return other,
        }
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
}

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_table(
        "account",
        &[("id", ColumnType::Int), ("bal", ColumnType::Int)],
        &["id"],
    );
    Arc::new(s)
}

struct Fixture {
    server: Server,
    vs: Arc<VersionedScheme>,
    new_scheme: Arc<dyn Scheme>,
    plan: schism_migrate::MigrationPlan,
    store: Arc<MemStore>,
    health: Arc<HealthMap>,
    faults: Arc<FaultPlan>,
}

/// `N_KEYS` accounts under an rf=2 replicated hash scheme, migrating to an
/// rf=2 replicated lookup scheme that rotates every key's primary to the
/// next shard. `victim`'s worker crashes on its `kill_after`-th dequeue;
/// the serve path and the executor share one [`HealthMap`].
fn fixture(victim: u32, kill_after: u64) -> Fixture {
    fixture_rf(RF, FaultPlan::default().crash_worker(victim, kill_after))
}

/// The same topology at an arbitrary replication factor and fault plan —
/// rf=3 is where the majority-quorum write rule takes over from the rf=2
/// view-change rule.
fn fixture_rf(rf: u32, faults: FaultPlan) -> Fixture {
    let schema = schema();
    let store = Arc::new(MemStore::new(K));
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let old_inner: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(K, vec![Some(0)]));
    let entries: Vec<(u64, PartitionSet)> = (0..N_KEYS)
        .map(|r| {
            let t = TupleId::new(0, r);
            let from = old_inner.locate_tuple(t, &*db).first().unwrap();
            (r, PartitionSet::single((from + 1) % K))
        })
        .collect();
    let new_inner: Arc<dyn Scheme> = Arc::new(LookupScheme::new(
        K,
        vec![Some(
            Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>
        )],
        vec![Some(RowKey { col: 0, offset: 0 })],
        MissPolicy::HashRow,
    ));
    let old: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(rf, old_inner));
    let new: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(rf, new_inner));
    load_table(
        &*store,
        &*old,
        &*db,
        &schema,
        0,
        (0..N_KEYS).map(|i| vec![Value::Int(i as i64), Value::Int(0)]),
    )
    .unwrap();
    let locate_all = |s: &Arc<dyn Scheme>| -> HashMap<TupleId, PartitionSet> {
        (0..N_KEYS)
            .map(|r| {
                let t = TupleId::new(0, r);
                (t, s.locate_tuple(t, &*db))
            })
            .collect()
    };
    let plan = plan_migration(
        &locate_all(&old),
        &locate_all(&new),
        &*db,
        &PlanConfig {
            max_rows_per_batch: 4,
        },
    );
    let vs = Arc::new(VersionedScheme::new(old, Arc::clone(&new)));
    let health = Arc::new(HealthMap::new());
    let faults = Arc::new(faults);
    let server = Server::new(
        schema,
        Arc::clone(&store) as Arc<dyn ShardStore>,
        Arc::clone(&vs) as Arc<dyn Scheme>,
        db,
        ServeConfig {
            faults: Some(Arc::clone(&faults)),
            health: Some(Arc::clone(&health)),
        },
    );
    Fixture {
        server,
        vs,
        new_scheme: new,
        plan,
        store,
        health,
        faults,
    }
}

/// One fully deterministic chaos case: three sessions, one executor, one
/// count-triggered leader kill, all interleaved by the seed's op stream.
fn chaos_case(seed: u64) {
    let mut rng = Rng(seed);
    let victim = (rng.next() % u64::from(K)) as u32;
    let kill_after = 1 + rng.next() % 60;
    let f = fixture(victim, kill_after);
    let db = PkValues::from_schema(f.server.schema());
    let mut exec = MigrationExecutor::new(
        &f.plan,
        &*f.store,
        &f.vs,
        ExecutorConfig {
            health: Some(Arc::clone(&f.health)),
            max_retries: 10_000,
        },
    );
    let mut sessions: Vec<_> = (0..3).map(|i| f.server.session(seed ^ i)).collect();
    let mut model: HashMap<u64, i64> = (0..N_KEYS).map(|k| (k, 0)).collect();
    for step in 0..160 {
        let sid = (rng.next() % 3) as usize;
        let key = rng.next() % N_KEYS;
        match rng.next() % 10 {
            0..=3 => {
                let v = (rng.next() % 100_000) as i64;
                let out = sessions[sid]
                    .execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = {key}"))
                    .unwrap_or_else(|e| panic!("step {step}: write to key {key} failed: {e}"));
                assert_eq!(out.affected, 1, "step {step}: key {key} must exist");
                model.insert(key, v);
            }
            4..=7 => {
                let out = sessions[sid]
                    .execute_sql(&format!("SELECT * FROM account WHERE id = {key}"))
                    .unwrap_or_else(|e| panic!("step {step}: read of key {key} failed: {e}"));
                assert_eq!(out.rows.len(), 1, "step {step}: key {key} must resolve");
                assert_eq!(
                    out.rows[0].1[1],
                    Value::Int(model[&key]),
                    "step {step}: key {key} lost an acked write"
                );
            }
            8 => {
                let k2 = rng.next() % N_KEYS;
                let out = sessions[sid]
                    .execute_sql(&format!("SELECT * FROM account WHERE id IN ({key}, {k2})"))
                    .unwrap_or_else(|e| panic!("step {step}: multi-read failed: {e}"));
                assert_eq!(out.rows.len(), if key == k2 { 1 } else { 2 });
                for (t, row) in &out.rows {
                    assert_eq!(
                        row[1],
                        Value::Int(model[&t.row]),
                        "step {step}: key {}",
                        t.row
                    );
                }
            }
            _ => {
                let outcome = exec.step();
                assert!(
                    !matches!(outcome, StepOutcome::Aborted { .. }),
                    "step {step}: migration aborted: {outcome:?}"
                );
            }
        }
        // Single live leader per key, at every step of the interleaving.
        for k in 0..N_KEYS {
            let t = TupleId::new(0, k);
            let leader = f
                .server
                .current_leader(t)
                .unwrap_or_else(|e| panic!("step {step}: key {k} has no live leader: {e}"));
            assert_eq!(
                leader,
                f.server.current_leader(t).unwrap(),
                "step {step}: leader of key {k} must be deterministic"
            );
            assert!(
                !f.health.is_down(leader),
                "step {step}: key {k} led by down shard {leader}"
            );
            assert!(
                f.vs.replica_set(t, &db).all().contains(leader),
                "step {step}: leader {leader} of key {k} outside its replica set"
            );
        }
    }
    // Drain the migration under whatever outage the seed produced, cut the
    // server over, and re-verify every acknowledged write.
    assert_eq!(run(&mut exec), StepOutcome::Done);
    f.server.install_scheme(Arc::clone(&f.new_scheme));
    drop(sessions);
    let mut check = f.server.session(seed ^ 0xC0DE);
    for (&k, &v) in &model {
        let out = check
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap_or_else(|e| panic!("post-cutover read of key {k} failed: {e}"));
        assert_eq!(out.rows.len(), 1, "key {k} lost after cutover");
        assert_eq!(out.rows[0].1[1], Value::Int(v), "key {k} value diverged");
    }
    if !f.faults.crashes_fired().is_empty() {
        assert_eq!(
            f.server.failovers(),
            1,
            "one fired kill must mean exactly one failed-over shard"
        );
    }
}

/// Runs one seed; on failure, prints the replay command and drops the seed
/// into `target/chaos-failures/` for CI to upload.
fn run_seed(seed: u64) {
    run_named(seed, chaos_case);
}

/// [`run_seed`] for an arbitrary seeded case function — the replay file and
/// command are per-seed, so every chaos family shares the machinery.
fn run_named(seed: u64, case: fn(u64)) {
    let result = std::panic::catch_unwind(|| case(seed));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        eprintln!("chaos case failed; replay with SCHISM_CHAOS_SEED={seed}");
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-failures");
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(
            dir.join(format!("seed-{seed}.txt")),
            format!("SCHISM_CHAOS_SEED={seed}\n{msg}\n"),
        );
        panic!("chaos seed {seed} failed: {msg}");
    }
}

/// Eight seeded interleavings (or exactly the one named by
/// `SCHISM_CHAOS_SEED`): sessions, executor steps, and a leader kill whose
/// victim, trigger count, and op stream all derive from the seed.
#[test]
fn chaos_seeded_interleavings() {
    if let Ok(s) = std::env::var("SCHISM_CHAOS_SEED") {
        run_seed(s.parse().expect("SCHISM_CHAOS_SEED must be a u64"));
        return;
    }
    for i in 0..8u64 {
        run_seed(0xC4A0_5EED ^ (i.wrapping_mul(0x9E37_79B9)));
    }
}

/// The fixed scenario the issue names: kill the leader of a hot key while
/// the migration is mid-flight. Every acknowledged write must survive the
/// promotion, and the promoted leader must be a live follower.
#[test]
fn leader_kill_mid_migration_keeps_acked_writes() {
    let db = PkValues::from_schema(&schema());
    let probe: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(K, vec![Some(0)]));
    let victim = probe.locate_tuple(TupleId::new(0, 7), &db).first().unwrap();
    let f = fixture(victim, 30);
    let mut exec = MigrationExecutor::new(
        &f.plan,
        &*f.store,
        &f.vs,
        ExecutorConfig {
            health: Some(Arc::clone(&f.health)),
            max_retries: 10_000,
        },
    );
    // Acknowledge a write to every key, then flip a few batches so the
    // kill lands mid-migration.
    let mut writer = f.server.session(1);
    for k in 0..N_KEYS {
        let out = writer
            .execute_sql(&format!(
                "UPDATE account SET bal = {} WHERE id = {k}",
                1000 + k
            ))
            .unwrap();
        assert_eq!(out.affected, 1);
    }
    for _ in 0..3 {
        assert!(!matches!(exec.step(), StepOutcome::Aborted { .. }));
    }
    // Hammer reads until the count-based crash fires; every read must keep
    // returning the acked value straight through the failover.
    let mut reader = f.server.session(2);
    for i in 0..400u64 {
        if !f.faults.crashes_fired().is_empty() {
            break;
        }
        let k = i % N_KEYS;
        let out = reader
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap();
        assert_eq!(out.rows[0].1[1], Value::Int((1000 + k) as i64));
    }
    assert!(
        !f.faults.crashes_fired().is_empty(),
        "the leader kill must fire under this fixed load"
    );
    assert_eq!(f.server.failovers(), 1);
    assert!(f.health.is_down(victim));
    for k in 0..N_KEYS {
        let t = TupleId::new(0, k);
        let leader = f.server.current_leader(t).unwrap();
        assert_ne!(leader, victim, "key {k} still led by the dead shard");
        assert!(f.vs.replica_set(t, &db).all().contains(leader));
        let out = reader
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap();
        assert_eq!(
            out.rows[0].1[1],
            Value::Int((1000 + k) as i64),
            "key {k} lost its acked write across the kill"
        );
    }
    // The migration itself must drain with the shard down (live-source
    // reads route around it), and the writes survive cutover.
    assert_eq!(run(&mut exec), StepOutcome::Done);
    f.server.install_scheme(Arc::clone(&f.new_scheme));
    let mut check = f.server.session(3);
    for k in 0..N_KEYS {
        let out = check
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap();
        assert_eq!(out.rows.len(), 1, "key {k} lost after cutover");
        assert_eq!(out.rows[0].1[1], Value::Int((1000 + k) as i64));
    }
}

/// Wipes a down shard's backend, respawns its worker, and streams it back
/// to the live members' state — the full crash-recovery path a real node
/// replacement would take. Panics if the shard was not strictly down.
fn rejoin(f: &Fixture, shard: u32) {
    wipe_shard(&*f.store, shard, 0);
    assert!(f.server.revive_shard(shard), "shard {shard} must be down");
    run_catch_up(
        shard,
        &f.server.scheme(),
        &**f.server.routing_db(),
        (0..N_KEYS).map(|r| TupleId::new(0, r)),
        &*f.store,
        &f.health,
        &PlanConfig::default(),
    )
    .unwrap_or_else(|e| panic!("catch-up of shard {shard} failed: {e}"));
}

/// One seeded kill → rejoin → kill-again interleaving at rf=3: the victim
/// crashes mid-traffic, is revived on the fault plan's schedule (wiped
/// disk, catch-up copy, Live flip), then crashes a second time — and with
/// at most one member of any group dead at a time, every write stays
/// available under the majority quorum and no acked write is ever lost.
fn chaos_rejoin_case(seed: u64) {
    let mut rng = Rng(seed ^ 0x5E_ED0F_2E10);
    let victim = (rng.next() % u64::from(K)) as u32;
    let kill1 = 1 + rng.next() % 30;
    let revive_total = 60 + rng.next() % 60;
    let kill2 = kill1 + 40 + rng.next() % 40;
    let faults = FaultPlan::default()
        .crash_worker(victim, kill1)
        .crash_worker(victim, kill2)
        .revive_worker(victim, revive_total);
    let f = fixture_rf(RF3, faults);
    let mut exec = MigrationExecutor::new(
        &f.plan,
        &*f.store,
        &f.vs,
        ExecutorConfig {
            health: Some(Arc::clone(&f.health)),
            max_retries: 10_000,
        },
    );
    let mut sessions: Vec<_> = (0..3).map(|i| f.server.session(seed ^ i)).collect();
    let mut model: HashMap<u64, i64> = (0..N_KEYS).map(|k| (k, 0)).collect();
    for step in 0..240 {
        for shard in f.faults.due_revivals() {
            if f.health.is_down(shard) {
                rejoin(&f, shard);
            }
        }
        let sid = (rng.next() % 3) as usize;
        let key = rng.next() % N_KEYS;
        match rng.next() % 10 {
            0..=3 => {
                let v = (rng.next() % 100_000) as i64;
                let out = sessions[sid]
                    .execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = {key}"))
                    .unwrap_or_else(|e| {
                        panic!("step {step}: write under single failure refused: {e}")
                    });
                assert_eq!(out.affected, 1, "step {step}: key {key} must exist");
                model.insert(key, v);
            }
            4..=8 => {
                let out = sessions[sid]
                    .execute_sql(&format!("SELECT * FROM account WHERE id = {key}"))
                    .unwrap_or_else(|e| panic!("step {step}: read of key {key} failed: {e}"));
                assert_eq!(out.rows.len(), 1, "step {step}: key {key} must resolve");
                assert_eq!(
                    out.rows[0].1[1],
                    Value::Int(model[&key]),
                    "step {step}: key {key} lost an acked write"
                );
            }
            _ => {
                let outcome = exec.step();
                assert!(
                    !matches!(outcome, StepOutcome::Aborted { .. }),
                    "step {step}: migration aborted: {outcome:?}"
                );
            }
        }
    }
    // Whatever the seed produced is replayable; the bookkeeping must agree
    // with it exactly: each fired kill is one failover, each consumed
    // revival one rejoin.
    let fired = f.faults.crashes_fired().len() as u64;
    assert_eq!(f.server.failovers(), fired);
    assert_eq!(f.server.rejoins(), f.health.rejoins());
    if fired == 2 {
        assert_eq!(
            f.server.rejoins(),
            1,
            "a second kill of the same shard requires it to have rejoined"
        );
    }
    assert_eq!(run(&mut exec), StepOutcome::Done);
    f.server.install_scheme(Arc::clone(&f.new_scheme));
    drop(sessions);
    let mut check = f.server.session(seed ^ 0xCA7C);
    for (&k, &v) in &model {
        let out = check
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap_or_else(|e| panic!("post-cutover read of key {k} failed: {e}"));
        assert_eq!(out.rows.len(), 1, "key {k} lost after cutover");
        assert_eq!(out.rows[0].1[1], Value::Int(v), "key {k} value diverged");
    }
}

/// Six seeded kill → rejoin → kill-again schedules (or exactly the one
/// named by `SCHISM_CHAOS_SEED`, offset to stay disjoint from the base
/// harness's seed space).
#[test]
fn chaos_seeded_kill_rejoin_kill_again() {
    if let Ok(s) = std::env::var("SCHISM_CHAOS_SEED") {
        let seed: u64 = s.parse().expect("SCHISM_CHAOS_SEED must be a u64");
        run_named(seed, chaos_rejoin_case);
        return;
    }
    for i in 0..6u64 {
        run_named(
            0x2E_1015_5EED ^ (i.wrapping_mul(0x9E37_79B9)),
            chaos_rejoin_case,
        );
    }
}

/// The fixed two-failures-in-one-rf=3-group scenario: writes stay
/// available while any majority of the group is live, are refused the
/// moment it is not (without partial application), and a rejoined shard
/// restores both write availability and read service — with no acked
/// write lost across kill → rejoin → kill-again.
#[test]
fn rf3_two_failures_in_one_group_gate_writes_on_majority() {
    let f = fixture_rf(RF3, FaultPlan::default());
    let db = PkValues::from_schema(f.server.schema());
    let t = TupleId::new(0, 0);
    let rs = f.vs.replica_set(t, &db);
    let leader = rs.leader;
    let followers: Vec<u32> = rs.followers.iter().collect();
    assert_eq!(followers.len(), 2);
    let mut s = f.server.session(11);
    let mut write = |v: i64| {
        s.execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = 0"))
            .map(|out| assert_eq!(out.affected, 1))
    };
    write(111).unwrap();
    // One of three down: quorum (2 of 3) still reachable.
    f.health.mark_down(leader);
    write(222).unwrap();
    // Two of three down: the majority is gone — writes must refuse
    // up front, with nothing partially applied.
    f.health.mark_down(followers[0]);
    assert!(matches!(write(333), Err(ServeError::Unavailable { .. })));
    // A revived-but-catching-up shard counts toward no quorum yet.
    wipe_shard(&*f.store, leader, 0);
    assert!(f.server.revive_shard(leader));
    assert!(matches!(write(444), Err(ServeError::Unavailable { .. })));
    // The lone live member still serves reads, and the refused writes
    // left no trace.
    let mut reader = f.server.session(12);
    let out = reader
        .execute_sql("SELECT * FROM account WHERE id = 0")
        .unwrap();
    assert_eq!(out.rows[0].1[1], Value::Int(222));
    // Catch-up completes from the one live source and restores quorum.
    run_catch_up(
        leader,
        &f.server.scheme(),
        &db,
        (0..N_KEYS).map(|r| TupleId::new(0, r)),
        &*f.store,
        &f.health,
        &PlanConfig::default(),
    )
    .unwrap();
    let mut s2 = f.server.session(13);
    let mut write = |v: i64| {
        s2.execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = 0"))
            .map(|out| assert_eq!(out.affected, 1))
    };
    write(555).unwrap();
    // Kill-again, this time the member that never failed: the rejoined
    // shard alone is a minority, so writes refuse — but it serves reads
    // with the caught-up (not pre-crash) state.
    f.health.mark_down(followers[1]);
    assert!(matches!(write(666), Err(ServeError::Unavailable { .. })));
    let mut reader2 = f.server.session(14);
    let out = reader2
        .execute_sql("SELECT * FROM account WHERE id = 0")
        .unwrap();
    assert_eq!(
        out.rows[0].1[1],
        Value::Int(555),
        "the rejoined shard must serve the caught-up value"
    );
    // A second rejoin restores the majority once more.
    rejoin(&f, followers[0]);
    let mut s3 = f.server.session(15);
    let out = s3
        .execute_sql("UPDATE account SET bal = 777 WHERE id = 0")
        .unwrap();
    assert_eq!(out.affected, 1);
    let out = s3
        .execute_sql("SELECT * FROM account WHERE id = 0")
        .unwrap();
    assert_eq!(out.rows[0].1[1], Value::Int(777));
    assert_eq!(f.server.failovers(), 3);
    assert_eq!(f.server.rejoins(), 2);
}

/// Read-your-writes across a leader kill: a session that wrote a key keeps
/// reading its own value while the key's leader crashes under it and a
/// follower is promoted.
#[test]
fn session_reads_its_writes_across_leader_kill() {
    let db = PkValues::from_schema(&schema());
    let probe: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(K, vec![Some(0)]));
    let victim = probe.locate_tuple(TupleId::new(0, 3), &db).first().unwrap();
    let f = fixture(victim, 4);
    let mut session = f.server.session(9);
    session
        .execute_sql("UPDATE account SET bal = 777 WHERE id = 3")
        .unwrap();
    // The session pins key 3's reads to its leader (the victim), so a few
    // reads are enough to hit the crash threshold; the read that trips it
    // must already be answered by the promoted follower.
    for _ in 0..20 {
        let out = session
            .execute_sql("SELECT * FROM account WHERE id = 3")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].1[1], Value::Int(777));
    }
    assert!(!f.faults.crashes_fired().is_empty());
    assert_eq!(f.server.failovers(), 1);
    let promoted = f.server.current_leader(TupleId::new(0, 3)).unwrap();
    assert_ne!(promoted, victim);
    assert!(f
        .vs
        .replica_set(TupleId::new(0, 3), &db)
        .all()
        .contains(promoted));
}
