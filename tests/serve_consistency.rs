//! Serving-layer consistency across a live migration: statements executed
//! through a [`Server`] routing over a [`VersionedScheme`] while a
//! [`MigrationExecutor`] flips batches must (a) always resolve every key
//! to exactly one owner, (b) never lose an acknowledged write, and
//! (c) keep read-your-own-writes intact for every client.
//!
//! DELETEs of *out-of-plan* keys run inside the model proptest (they are
//! safe at any point of the migration); DELETE of an *in-plan* key — once
//! a documented limitation that aborted the migration — now passes
//! through: the executor propagates the vanished source as a tombstone,
//! pinned by [`delete_of_in_plan_key_passes_through_migration`].
//!
//! The replication model proptest
//! ([`acked_writes_survive_minority_crashes_and_rejoins`]) drives an rf=3
//! server through seeded crash / revive / catch-up interleavings: an
//! acked write must survive any minority subset of replica crashes, a
//! write must refuse cleanly when the majority is gone, and a rejoined
//! shard — whose store is deliberately poisoned before revival — must
//! never serve a read until its catch-up flips it Live.
//!
//! A statement attempt never outlives the scheme it routed with:
//! [`a_held_read_fences_the_next_epoch`] and
//! [`a_held_write_fences_the_next_epoch`] stall one UPDATE's store call
//! while a migrator installs a `VersionedScheme`, runs its plan and
//! installs the new scheme, and check the UPDATE neither misses its row
//! nor writes a copy the migration already dropped.

use hold_store::{Held, HoldStore};
use proptest::prelude::*;
use schism_migrate::{
    plan_migration, run_catch_up, ExecutorConfig, MigrationExecutor, PlanConfig, StepOutcome,
};
use schism_router::{
    HashScheme, IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet,
    ReplicatedScheme, RowKey, Scheme, VersionedScheme,
};
use schism_serve::{decode_row, encode_row, load_table, PkValues, ServeConfig, ServeError, Server};
use schism_sql::{ColumnType, Schema, Value};
use schism_store::{HealthMap, HealthState, MemStore, ShardStore};
use schism_workload::{TupleId, TupleValues};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use test_store::wipe_shard;

#[path = "support/hold_store.rs"]
mod hold_store;
#[path = "support/test_store.rs"]
mod test_store;

const K: u32 = 4;

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_table(
        "account",
        &[("id", ColumnType::Int), ("bal", ColumnType::Int)],
        &["id"],
    );
    Arc::new(s)
}

/// Steps `exec` until a step flips nothing; returns that step's outcome.
fn run(exec: &mut MigrationExecutor<'_>) -> StepOutcome {
    loop {
        match exec.step() {
            StepOutcome::Flipped(_) => {}
            other => return other,
        }
    }
}

struct Fixture {
    server: Server,
    vs: Arc<VersionedScheme>,
    new_scheme: Arc<dyn Scheme>,
    plan: schism_migrate::MigrationPlan,
    store: Arc<MemStore>,
}

/// `n_keys` accounts under a k=4 attribute-hash scheme, migrating to a
/// lookup scheme that rotates every key's owner to the next shard (every
/// key moves — the worst case for serving). A further `extras` accounts
/// (ids `n_keys..n_keys + extras`) are loaded but *out of plan*: the
/// lookup scheme maps them to their old placement, so they never move —
/// the keys DELETE is allowed to target mid-migration.
fn fixture(n_keys: u64, rows_per_batch: usize, extras: u64) -> Fixture {
    let schema = schema();
    let store = Arc::new(MemStore::new(K));
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let old: Arc<dyn Scheme> = Arc::new(schism_router::HashScheme::by_attrs(K, vec![Some(0)]));
    let entries: Vec<(u64, PartitionSet)> = (0..n_keys + extras)
        .map(|r| {
            let t = TupleId::new(0, r);
            let from = old.locate_tuple(t, &*db).first().unwrap();
            let to = if r < n_keys { (from + 1) % K } else { from };
            (r, PartitionSet::single(to))
        })
        .collect();
    let new: Arc<dyn Scheme> = Arc::new(LookupScheme::new(
        K,
        vec![Some(
            Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>
        )],
        vec![Some(RowKey { col: 0, offset: 0 })],
        MissPolicy::HashRow,
    ));
    load_table(
        &*store,
        &*old,
        &*db,
        &schema,
        0,
        (0..n_keys + extras).map(|i| vec![Value::Int(i as i64), Value::Int(0)]),
    )
    .unwrap();
    let old_asg: HashMap<TupleId, PartitionSet> = (0..n_keys)
        .map(|r| {
            (
                TupleId::new(0, r),
                old.locate_tuple(TupleId::new(0, r), &*db),
            )
        })
        .collect();
    let new_asg: HashMap<TupleId, PartitionSet> = (0..n_keys)
        .map(|r| {
            (
                TupleId::new(0, r),
                new.locate_tuple(TupleId::new(0, r), &*db),
            )
        })
        .collect();
    let plan = plan_migration(
        &old_asg,
        &new_asg,
        &*db,
        &PlanConfig {
            max_rows_per_batch: rows_per_batch,
        },
    );
    let vs = Arc::new(VersionedScheme::new(old, Arc::clone(&new)));
    let server = Server::new(
        schema,
        Arc::clone(&store) as Arc<dyn ShardStore>,
        Arc::clone(&vs) as Arc<dyn Scheme>,
        db,
        ServeConfig::default(),
    );
    Fixture {
        server,
        vs,
        new_scheme: new,
        plan,
        store,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write(u64, i64),
    Read(u64),
    /// DELETE of an out-of-plan key — legal at any migration point.
    DeleteExtra(u64),
    Step,
}

/// Decodes a raw sample into an op: kinds are weighted 4/4/2/2
/// write/read/step/delete (the vendored proptest has no `prop_oneof`).
fn decode_op((kind, key, val): (u32, u64, i64)) -> Op {
    match kind {
        0..=3 => Op::Write(key, val),
        4..=7 => Op::Read(key),
        8..=9 => Op::Step,
        _ => Op::DeleteExtra(key),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Sequentially interleaved serving and migration steps: the served
    /// view must always match a simple key→value model, and every key
    /// must resolve to exactly one owner at every point.
    #[test]
    fn serving_matches_model_across_flips(
        raw_ops in prop::collection::vec((0..12u32, 0..24u64, -1000i64..1000), 1..60)
    ) {
        let n_keys = 24u64;
        let extras = 8u64;
        let f = fixture(n_keys, 4, extras);
        let db = PkValues::from_schema(f.server.schema());
        let mut exec =
            MigrationExecutor::new(&f.plan, &*f.store, &f.vs, ExecutorConfig::default());
        let mut model: HashMap<u64, i64> = (0..n_keys).map(|k| (k, 0)).collect();
        let mut extras_alive: HashMap<u64, bool> =
            (n_keys..n_keys + extras).map(|k| (k, true)).collect();
        for op in raw_ops.into_iter().map(decode_op) {
            match op {
                Op::Write(k, v) => {
                    let out = f
                        .server
                        .execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = {k}"))
                        .unwrap();
                    prop_assert_eq!(out.affected, 1, "key {} must exist", k);
                    model.insert(k, v);
                }
                Op::Read(k) => {
                    let out = f
                        .server
                        .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
                        .unwrap();
                    prop_assert_eq!(out.rows.len(), 1);
                    prop_assert_eq!(&out.rows[0].1[1], &Value::Int(model[&k]));
                }
                Op::DeleteExtra(k) => {
                    let id = n_keys + k % extras;
                    let was_alive = extras_alive[&id];
                    let out = f
                        .server
                        .execute_sql(&format!("DELETE FROM account WHERE id = {id}"))
                        .unwrap();
                    prop_assert_eq!(out.affected, u64::from(was_alive), "delete of key {}", id);
                    extras_alive.insert(id, false);
                    let out = f
                        .server
                        .execute_sql(&format!("SELECT * FROM account WHERE id = {id}"))
                        .unwrap();
                    prop_assert!(out.rows.is_empty(), "key {} readable after DELETE", id);
                }
                Op::Step => {
                    let outcome = exec.step();
                    prop_assert!(
                        !matches!(outcome, StepOutcome::Aborted { .. }),
                        "migration aborted: {:?}",
                        outcome
                    );
                }
            }
            for k in 0..n_keys {
                prop_assert!(
                    f.vs.locate_tuple(TupleId::new(0, k), &db).is_single(),
                    "key {} must have exactly one owner",
                    k
                );
            }
        }
        // Finish the migration, cut the server over, and re-verify all
        // acknowledged writes under the finalized scheme.
        prop_assert_eq!(run(&mut exec), StepOutcome::Done);
        prop_assert_eq!(exec.report().batches_flipped, f.plan.batches.len());
        f.server.install_scheme(Arc::clone(&f.new_scheme));
        for (k, v) in model {
            let out = f
                .server
                .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
                .unwrap();
            prop_assert_eq!(out.rows.len(), 1, "key {} lost after cutover", k);
            prop_assert_eq!(&out.rows[0].1[1], &Value::Int(v));
        }
        for (id, alive) in extras_alive {
            let out = f
                .server
                .execute_sql(&format!("SELECT * FROM account WHERE id = {id}"))
                .unwrap();
            prop_assert_eq!(
                out.rows.len(),
                usize::from(alive),
                "out-of-plan key {} wrong after cutover",
                id
            );
            if alive {
                prop_assert_eq!(&out.rows[0].1[1], &Value::Int(0));
            }
        }
    }
}

/// The old serving limitation, converted to a pass-through regression
/// test: DELETE of an *in-plan* key before its batch copies no longer
/// aborts the migration — the executor propagates the vanished source as
/// a tombstone, the migration completes, and the key stays deleted on
/// every shard through cutover.
#[test]
fn delete_of_in_plan_key_passes_through_migration() {
    let f = fixture(8, 2, 0);
    let out = f
        .server
        .execute_sql("DELETE FROM account WHERE id = 3")
        .unwrap();
    assert_eq!(out.affected, 1);
    let mut exec = MigrationExecutor::new(&f.plan, &*f.store, &f.vs, ExecutorConfig::default());
    assert_eq!(run(&mut exec), StepOutcome::Done);
    assert_eq!(exec.report().batches_flipped, f.plan.batches.len());
    let out = f
        .server
        .execute_sql("SELECT * FROM account WHERE id = 3")
        .unwrap();
    assert!(out.rows.is_empty(), "deleted key visible mid-epoch");
    f.server.install_scheme(Arc::clone(&f.new_scheme));
    let out = f
        .server
        .execute_sql("SELECT * FROM account WHERE id = 3")
        .unwrap();
    assert!(out.rows.is_empty(), "deleted key resurrected by migration");
    for shard in 0..K {
        assert!(
            f.store.get(shard, TupleId::new(0, 3)).unwrap().is_none(),
            "shard {shard} still holds a copy of the deleted key"
        );
    }
    for k in (0..8u64).filter(|&k| k != 3) {
        let out = f
            .server
            .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
            .unwrap();
        assert_eq!(out.rows.len(), 1, "surviving key {k} lost");
    }
}

/// An rf=3 server with no migration in flight, for the replication model
/// proptest: every key lives on three ring-successor shards of a k=4
/// cluster.
struct Rf3Fixture {
    server: Server,
    scheme: Arc<dyn Scheme>,
    store: Arc<MemStore>,
    health: Arc<HealthMap>,
}

fn rf3_fixture(n_keys: u64) -> Rf3Fixture {
    let schema = schema();
    let store = Arc::new(MemStore::new(K));
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let scheme: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(
        3,
        Arc::new(HashScheme::by_attrs(K, vec![Some(0)])),
    ));
    load_table(
        &*store,
        &*scheme,
        &*db,
        &schema,
        0,
        (0..n_keys).map(|i| vec![Value::Int(i as i64), Value::Int(0)]),
    )
    .unwrap();
    let health = Arc::new(HealthMap::new());
    let server = Server::new(
        schema,
        Arc::clone(&store) as Arc<dyn ShardStore>,
        Arc::clone(&scheme),
        db,
        ServeConfig {
            health: Some(Arc::clone(&health)),
            ..ServeConfig::default()
        },
    );
    Rf3Fixture {
        server,
        scheme,
        store,
        health,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Seeded crash / revive / catch-up interleavings over an rf=3 server,
    /// with a full oracle sweep after every op:
    ///
    /// - a write must succeed iff a majority of its key's full replica set
    ///   is Live (a catching-up member counts for nothing), and a refused
    ///   write must leave no trace;
    /// - every read must return the oracle's value — a revived shard's
    ///   store is poisoned with a sentinel before its worker respawns, so
    ///   this also proves a catching-up shard never serves a read until
    ///   its catch-up flips it Live;
    /// - after the final catch-up, every live copy of every key is
    ///   byte-identical across its replica set (no poison residue).
    #[test]
    fn acked_writes_survive_minority_crashes_and_rejoins(
        raw_ops in prop::collection::vec((0..12u32, 0..16u64, -1000i64..1000), 1..70)
    ) {
        let n_keys = 16u64;
        let f = rf3_fixture(n_keys);
        let db = PkValues::from_schema(f.server.schema());
        let mut model: HashMap<u64, i64> = (0..n_keys).map(|k| (k, 0)).collect();
        let poison = encode_row(&[Value::Int(-1), Value::Int(-999_999)]);
        let catch_up = |shard: u32| {
            run_catch_up(
                shard,
                &f.server.scheme(),
                &db,
                (0..n_keys).map(|r| TupleId::new(0, r)),
                &*f.store,
                &f.health,
                &PlanConfig::default(),
            )
            .unwrap_or_else(|e| panic!("catch-up of shard {shard} failed: {e}"));
        };
        for (kind, key, val) in raw_ops {
            match kind {
                0..=4 => {
                    let t = TupleId::new(0, key);
                    let group = f.scheme.locate_tuple(t, &db);
                    let live = group.difference(&f.health.view().not_live());
                    let res = f
                        .server
                        .execute_sql(&format!("UPDATE account SET bal = {val} WHERE id = {key}"));
                    if live.len() >= 2 {
                        let out = res.unwrap_or_else(|e| {
                            panic!("write to key {key} refused with a live majority: {e}")
                        });
                        prop_assert_eq!(out.affected, 1);
                        model.insert(key, val);
                    } else {
                        prop_assert!(
                            matches!(res, Err(ServeError::Unavailable { .. })),
                            "write to key {} must refuse without a majority: {:?}",
                            key,
                            res
                        );
                    }
                }
                5..=8 => {
                    let out = f
                        .server
                        .execute_sql(&format!("SELECT * FROM account WHERE id = {key}"))
                        .unwrap();
                    prop_assert_eq!(out.rows.len(), 1);
                    prop_assert_eq!(&out.rows[0].1[1], &Value::Int(model[&key]));
                }
                9..=10 => {
                    // Crash a live shard, capped at two non-live shards so
                    // every 3-member group keeps at least one live copy.
                    let victim = (key % u64::from(K)) as u32;
                    if f.health.state(victim) == HealthState::Live && f.health.view().not_live().len() < 2 {
                        f.health.mark_down(victim);
                    }
                }
                _ => {
                    // Finish one in-flight catch-up, else revive one down
                    // shard with a poisoned store.
                    if let Some(s) = f.health.view().catching_up.first() {
                        catch_up(s);
                    } else if let Some(s) = f.health.view().down.first() {
                        for r in 0..n_keys {
                            let t = TupleId::new(0, r);
                            if f.scheme.locate_tuple(t, &db).contains(s) {
                                f.store.put(s, t, poison.clone()).unwrap();
                            }
                        }
                        prop_assert!(f.server.revive_shard(s));
                    }
                }
            }
            // Oracle sweep: every key must read its model value — a
            // poisoned catching-up shard serving any read would fail here.
            for k in 0..n_keys {
                let out = f
                    .server
                    .execute_sql(&format!("SELECT * FROM account WHERE id = {k}"))
                    .unwrap();
                prop_assert_eq!(out.rows.len(), 1, "key {} unreadable", k);
                prop_assert_eq!(&out.rows[0].1[1], &Value::Int(model[&k]));
            }
        }
        // Heal everything and verify byte-identical replicas.
        for s in f.health.view().catching_up.iter() {
            catch_up(s);
        }
        for s in f.health.view().down.iter() {
            wipe_shard(&*f.store, s, 0);
            prop_assert!(f.server.revive_shard(s));
            catch_up(s);
        }
        prop_assert!(f.health.view().not_live().is_empty());
        for k in 0..n_keys {
            let t = TupleId::new(0, k);
            let copies: Vec<u32> = f.scheme.locate_tuple(t, &db).iter().collect();
            let want = f.store.get(copies[0], t).unwrap();
            prop_assert!(want.is_some());
            prop_assert!(
                want != Some(poison.clone()),
                "poison survived catch-up on key {}",
                k
            );
            for &s in &copies[1..] {
                prop_assert_eq!(
                    &f.store.get(s, t).unwrap(),
                    &want,
                    "key {} diverges between replicas {} and {}",
                    k,
                    copies[0],
                    s
                );
            }
        }
    }
}

/// Concurrent chaos: four closed-loop clients write and immediately read
/// their own keys while the migration executor flips every batch under
/// them. No acknowledged write may be lost and read-your-own-write must
/// hold throughout.
#[test]
fn concurrent_clients_survive_live_migration() {
    const N_KEYS: u64 = 64;
    const ITERS: i64 = 40;
    let f = fixture(N_KEYS, 8, 0);
    std::thread::scope(|s| {
        for client in 0..4u64 {
            let server = &f.server;
            s.spawn(move || {
                for iter in 0..ITERS {
                    for key in (client..N_KEYS).step_by(4) {
                        let v = iter * 1000 + key as i64;
                        let w = server
                            .execute_sql(&format!("UPDATE account SET bal = {v} WHERE id = {key}"))
                            .unwrap();
                        assert_eq!(w.affected, 1, "client {client} key {key}");
                        let r = server
                            .execute_sql(&format!("SELECT * FROM account WHERE id = {key}"))
                            .unwrap();
                        assert_eq!(r.rows.len(), 1, "client {client} lost key {key}");
                        assert_eq!(
                            r.rows[0].1[1],
                            Value::Int(v),
                            "client {client} read-your-own-write on key {key}"
                        );
                    }
                }
            });
        }
        let (plan, store, vs) = (&f.plan, &f.store, &f.vs);
        s.spawn(move || {
            // Generous verify retries: foreground writes racing a batch
            // copy fail its checksum verification and force a re-copy.
            let mut exec = MigrationExecutor::new(
                plan,
                &**store,
                vs,
                ExecutorConfig {
                    max_retries: 10_000,
                    ..ExecutorConfig::default()
                },
            );
            loop {
                match exec.step() {
                    StepOutcome::Flipped(_) => {
                        std::thread::sleep(std::time::Duration::from_micros(200))
                    }
                    StepOutcome::Done => break,
                    StepOutcome::Paused => unreachable!("step never pauses"),
                    StepOutcome::Aborted { batch, error } => {
                        panic!("migration aborted at batch {batch}: {error}")
                    }
                }
            }
            assert_eq!(exec.report().batches_flipped, plan.batches.len());
        });
    });
    // Every key moved; cut over and verify the final value each client
    // acknowledged last.
    assert_eq!(f.vs.moved_count() as u64, N_KEYS);
    f.server.install_scheme(Arc::clone(&f.new_scheme));
    for key in 0..N_KEYS {
        let out = f
            .server
            .execute_sql(&format!("SELECT * FROM account WHERE id = {key}"))
            .unwrap();
        assert_eq!(out.rows.len(), 1, "key {key} lost after migration");
        assert_eq!(
            out.rows[0].1[1],
            Value::Int((ITERS - 1) * 1000 + key as i64)
        );
    }
}

/// One UPDATE of key 1 whose `held` store call waits while a migrator
/// thread installs a `VersionedScheme`, runs the one-batch plan that
/// moves the key to the next shard, and installs the new scheme. The
/// call goes on once the migrator is done, or after 500 ms when the
/// migrator is waiting for the statement. Returns the rows the UPDATE
/// affected and the balance the key's new owner holds afterwards.
fn update_across_an_epoch(held: Held) -> (u64, Value) {
    let schema = schema();
    let mem = Arc::new(MemStore::new(K));
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let old: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(K, vec![Some(0)]));
    let key = TupleId::new(0, 1);
    let row = vec![Value::Int(1), Value::Int(0)];
    load_table(&*mem, &*old, &*db, &schema, 0, std::iter::once(row)).unwrap();
    let from = old.locate_tuple(key, &*db);
    let to = PartitionSet::single((from.first().unwrap() + 1) % K);
    let new: Arc<dyn Scheme> = Arc::new(LookupScheme::new(
        K,
        vec![Some(
            Box::new(IndexBackend::new(vec![(1, to)])) as Box<dyn LookupBackend>
        )],
        vec![Some(RowKey { col: 0, offset: 0 })],
        MissPolicy::HashRow,
    ));
    let plan = plan_migration(
        &HashMap::from([(key, from)]),
        &HashMap::from([(key, to)]),
        &*db,
        &PlanConfig::default(),
    );
    assert_eq!(plan.batches.len(), 1);
    let store = Arc::new(HoldStore::new(Arc::clone(&mem) as _, held, key));
    let server = Server::new(
        schema,
        Arc::clone(&store) as _,
        Arc::clone(&old),
        db,
        ServeConfig::default(),
    );
    let (done, migrated) = mpsc::channel();
    let affected = std::thread::scope(|s| {
        let (server, plan) = (&server, &plan);
        let update = s.spawn(move || {
            server
                .execute_sql("UPDATE account SET bal = 7 WHERE id = 1")
                .unwrap()
                .affected
        });
        store.wait_held();
        s.spawn(move || {
            let vs = Arc::new(VersionedScheme::new(old, Arc::clone(&new)));
            server.install_scheme(Arc::clone(&vs) as _);
            let mut exec =
                MigrationExecutor::new(plan, &**server.store(), &vs, ExecutorConfig::default());
            assert_eq!(run(&mut exec), StepOutcome::Done);
            server.install_scheme(new);
            done.send(()).unwrap();
        });
        // Under the fence the migrator waits in `install_scheme` for the
        // held attempt, so this wait runs out.
        let _ = migrated.recv_timeout(Duration::from_millis(500));
        store.release();
        update.join().unwrap()
    });
    let owned = mem.get(to.first().unwrap(), key).unwrap();
    let row = decode_row(&owned.expect("the new owner holds the row")).unwrap();
    (affected, row[1].clone())
}

/// The UPDATE's read of its row is held across the migration: run on the
/// scheme it routed with after the next epoch dropped that copy, it
/// would find no row.
#[test]
fn a_held_read_fences_the_next_epoch() {
    assert_eq!(update_across_an_epoch(Held::Get), (1, Value::Int(7)));
}

/// The UPDATE's write is held across the migration: landing on the old
/// copy after the migration verified and dropped it, the acknowledged
/// balance would be lost to the new owner.
#[test]
fn a_held_write_fences_the_next_epoch() {
    assert_eq!(update_across_an_epoch(Held::Put), (1, Value::Int(7)));
}
