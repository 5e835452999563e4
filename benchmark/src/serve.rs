//! The three serving workloads: SQL text in, rows out, through `Server` and
//! per-client `Session`s, closed loop. `serve_point` runs on `MemStore`,
//! `serve_durable` on a synced `LogStore`, `serve_migrate` is `serve_point`
//! with a migration driver moving the whole table, round after round, for
//! the whole window. See `README.md` for why each exists.

use crate::json::Json;
use crate::report::{repeat_set_up, RunOpts, RunResult};
use crate::stats::{median, percentile_of, Slices};
use crate::sys;
use crate::timed::{Probe, SyncCounter, TimedScheme, TimedStore, BACKGROUND_OP};
use crate::trace;
use schism::migrate::{plan_migration, ExecutorConfig, MigrationExecutor, PlanConfig, StepOutcome};
use schism::router::{
    BitArrayBackend, HashScheme, LookupBackend, LookupScheme, MissPolicy, PartitionSet, RowKey,
    Scheme, VersionedScheme,
};
use schism::serve::{
    decode_row, encode_row, load_table, PkValues, RouteKind, ServeConfig, ServeOutcome, Server,
    Session,
};
use schism::sql::{classify_routability, parse_statement, ColumnType, Schema, Value};
use schism::store::{LogStore, LogStoreConfig, MemStore, ShardStore};
use schism::workload::{TupleId, TupleValues};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Point,
    Durable,
    Migrate,
}

/// Sizes of one serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    kind: Kind,
    shards: u32,
    rows: u64,
    /// Percent of statements: point `UPDATE`, three-key `IN` `SELECT`; the
    /// rest are point `SELECT`s.
    update_pct: u64,
    multi_pct: u64,
    /// `LogStore` only.
    compact_min_bytes: u64,
}

pub fn spec(kind: Kind, smoke: bool) -> Spec {
    let scale = if smoke { 10 } else { 1 };
    match kind {
        Kind::Point | Kind::Migrate => Spec {
            kind,
            shards: 8,
            rows: 200_000 / scale,
            update_pct: 25,
            multi_pct: 5,
            compact_min_bytes: 0,
        },
        // Writes dominate so that the median sits in the synced-write
        // mode; the 2 % of three-key reads keep a distributed share to
        // report. The compaction floor is lowered from 1 MiB so that every
        // shard's segment is rewritten at least twice inside the window.
        Kind::Durable => Spec {
            kind,
            shards: 4,
            rows: 20_000 / scale,
            update_pct: 80,
            multi_pct: 2,
            compact_min_bytes: 128 << 10,
        },
    }
}

/// Rows per migration batch.
const BATCH_ROWS: usize = 256;
/// One statement in this many records spans; one migration step in
/// [`STEP_SAMPLE`].
const STATEMENT_SAMPLE: u64 = 32;
const STEP_SAMPLE: u64 = 256;
const SPAN_CAPACITY: usize = 1 << 17;
/// Longest a ramp-up lasts.
const MAX_RAMP_S: f64 = 1.0;
/// Statements the single-thread parse/classify/codec replays run over.
const REPLAY_STATEMENTS: usize = 20_000;

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_table(
        "account",
        &[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("bal", ColumnType::Int),
        ],
        &["id"],
    );
    Arc::new(s)
}

fn account_row(id: u64) -> Vec<Value> {
    vec![
        Value::Int(id as i64),
        Value::Str(format!("account-{id:08}")),
        Value::Int(0),
    ]
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }
}

/// A scratch directory inside the benchmark's own `out/` (the benchmark
/// writes nowhere else), removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = crate::out_dir().join(format!(
            "tmp-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A directory left by a killed run under a recycled pid must not be
        // adopted: its segments would leak into a store meant to be fresh.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory under benchmark/out");
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded store, ready to serve.
struct Loaded {
    store: Arc<dyn ShardStore>,
    /// The same store, concretely, and the directory its segments live
    /// in, when it is a `LogStore`.
    log: Option<(Arc<LogStore>, ScratchDir)>,
    scheme: Arc<dyn Scheme>,
}

fn log_config(spec: &Spec, sync_commits: bool) -> LogStoreConfig {
    LogStoreConfig {
        compact_min_bytes: spec.compact_min_bytes,
        sync_commits,
        ..LogStoreConfig::default()
    }
}

/// Everything before the first timed statement: build the store, load the
/// table under the hash scheme, and for the durable workload flush, close
/// and reopen it with synced commits.
fn set_up(spec: &Spec, schema: &Schema, db: &PkValues) -> Loaded {
    let scheme: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(spec.shards, vec![Some(0)]));
    let rows = (0..spec.rows).map(account_row);
    match spec.kind {
        Kind::Point | Kind::Migrate => {
            let store = Arc::new(MemStore::new(spec.shards));
            load_table(&*store, &*scheme, db, schema, 0, rows).expect("load MemStore");
            Loaded {
                store,
                log: None,
                scheme,
            }
        }
        Kind::Durable => {
            let dir = ScratchDir::new("durable");
            {
                let unsynced = LogStore::with_config(&dir.0, spec.shards, log_config(spec, false))
                    .expect("create LogStore");
                load_table(&unsynced, &*scheme, db, schema, 0, rows).expect("load LogStore");
                unsynced.sync_all().expect("flush loaded LogStore");
            }
            let log = Arc::new(
                LogStore::with_config(&dir.0, spec.shards, log_config(spec, true))
                    .expect("reopen LogStore"),
            );
            Loaded {
                store: Arc::clone(&log) as Arc<dyn ShardStore>,
                log: Some((log, dir)),
                scheme,
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write,
    Multi,
}

/// One timed statement of the window.
struct Sample {
    /// Completion time, nanoseconds after the window opened.
    done_ns: u64,
    latency_ns: u64,
    /// Traced run only.
    parse_ns: u64,
    queue_us: u64,
    exec_us: u64,
    op: Op,
    shards_touched: u32,
    retries: u32,
    point: bool,
}

/// What one client hands back.
struct ClientReport {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    /// Last acknowledged balance of each key this client wrote.
    shadow: HashMap<u64, i64>,
}

/// The statement generator and result checker of one closed-loop client.
/// Client `id` of `clients` writes only keys `k` with `k % clients == id`,
/// so it alone knows what every read of such a key must return.
struct Client {
    id: u64,
    clients: u64,
    spec: Spec,
    rng: Rng,
    writes: i64,
    shadow: HashMap<u64, i64>,
}

struct Statement {
    op: Op,
    keys: [u64; trace::MAX_KEYS],
    nkeys: usize,
    /// The balance an `UPDATE` sets.
    value: i64,
    sql: String,
}

impl Client {
    fn new(id: usize, clients: usize, spec: Spec, seed: u64) -> Self {
        Self {
            id: id as u64,
            clients: clients as u64,
            spec,
            rng: Rng(splitmix(seed ^ ((id as u64 + 1) << 32))),
            writes: 0,
            shadow: HashMap::new(),
        }
    }

    fn next_statement(&mut self) -> Statement {
        let rows = self.spec.rows;
        let roll = self.rng.next() % 100;
        if roll < self.spec.update_pct {
            let stripe = rows / self.clients;
            let key = (self.rng.next() % stripe) * self.clients + self.id;
            self.writes += 1;
            let value = self.writes * self.clients as i64 + self.id as i64;
            Statement {
                op: Op::Write,
                keys: [key, 0, 0],
                nkeys: 1,
                value,
                sql: format!("UPDATE account SET bal = {value} WHERE id = {key}"),
            }
        } else if roll < self.spec.update_pct + self.spec.multi_pct {
            let keys = [
                self.rng.next() % rows,
                self.rng.next() % rows,
                self.rng.next() % rows,
            ];
            Statement {
                op: Op::Multi,
                keys,
                nkeys: 3,
                value: 0,
                sql: format!(
                    "SELECT * FROM account WHERE id IN ({}, {}, {})",
                    keys[0], keys[1], keys[2]
                ),
            }
        } else {
            let key = self.rng.next() % rows;
            Statement {
                op: Op::Read,
                keys: [key, 0, 0],
                nkeys: 1,
                value: 0,
                sql: format!("SELECT * FROM account WHERE id = {key}"),
            }
        }
    }

    /// The balance a read of `key` must show, when this client is the one
    /// who knows.
    fn expected(&self, key: u64) -> Option<i64> {
        (key % self.clients == self.id).then(|| self.shadow.get(&key).copied().unwrap_or(0))
    }

    /// Checks one outcome against what the client knows; `Err` says what
    /// was wrong.
    fn check(&mut self, st: &Statement, out: &ServeOutcome) -> Result<(), String> {
        if st.op == Op::Write {
            if out.affected != 1 {
                return Err(format!("{}: affected {} rows", st.sql, out.affected));
            }
            self.shadow.insert(st.keys[0], st.value);
            return Ok(());
        }
        let mut want: Vec<u64> = st.keys[..st.nkeys].to_vec();
        want.sort_unstable();
        want.dedup();
        let got: Vec<u64> = out.rows.iter().map(|(t, _)| t.row).collect();
        if got != want {
            return Err(format!("{}: returned rows {got:?}", st.sql));
        }
        for (t, row) in &out.rows {
            let (id, bal) = (row[0].as_int(), row[2].as_int());
            if id != Some(t.row as i64) {
                return Err(format!("{}: row {} carries id {id:?}", st.sql, t.row));
            }
            if let Some(expect) = self.expected(t.row) {
                if bal != Some(expect) {
                    return Err(format!(
                        "{}: key {} reads {bal:?}, last acknowledged write was {expect}",
                        st.sql, t.row
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The clock and switches the threads of one window share.
struct WindowClock {
    opens: Instant,
    closes: Instant,
}

impl WindowClock {
    fn new(ramp_s: f64, window_s: f64) -> Self {
        let opens = Instant::now() + Duration::from_secs_f64(ramp_s);
        Self {
            opens,
            closes: opens + Duration::from_secs_f64(window_s),
        }
    }
}

fn run_client(
    server: &Server,
    mut client: Client,
    clock: &WindowClock,
    probe: Option<&Probe>,
) -> ClientReport {
    let slot = client.id as usize;
    let mut session: Session<'_> = server.session(client.rng.next());
    let mut report = ClientReport {
        samples: Vec::with_capacity(1 << 16),
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        shadow: HashMap::new(),
    };
    let mut seq = 0u64;
    loop {
        let started = Instant::now();
        if started >= clock.closes {
            break;
        }
        let st = client.next_statement();
        seq += 1;
        let mut parse_ns = 0u64;
        let result = match probe {
            None => session.execute_sql(&st.sql),
            Some(p) => {
                // The same two steps `execute_sql` makes, taken apart so
                // that parsing can be timed on its own.
                let sampled = seq.is_multiple_of(STATEMENT_SAMPLE);
                let op_id = (client.id << 40) | seq;
                let (root, exec) = (p.tracer.reserve_id(), p.tracer.reserve_id());
                let t_root = p.tracer.now_ns();
                let parsed = parse_statement(server.schema(), &st.sql);
                parse_ns = p.tracer.now_ns() - t_root;
                match parsed {
                    Err(e) => Err(e.into()),
                    Ok(stmt) => {
                        if sampled {
                            p.tracer.record("sql.parse", t_root, (op_id, root));
                            p.inflight.post(slot, (op_id, exec), &st.keys[..st.nkeys]);
                            trace::enter((op_id, exec));
                        }
                        let t_exec = p.tracer.now_ns();
                        let result = session.execute(&stmt);
                        if sampled {
                            trace::enter((0, 0));
                            p.inflight.clear(slot);
                            p.tracer
                                .record_as(exec, "serve.execute", t_exec, (op_id, root));
                            p.tracer
                                .record_as(root, "serve.statement", t_root, (op_id, 0));
                        }
                        result
                    }
                }
            }
        };
        let done = Instant::now();
        report.attempted += 1;
        let checked = match &result {
            Ok(out) => client.check(&st, out),
            Err(e) => Err(format!("{}: {e}", st.sql)),
        };
        if let Err(why) = checked {
            report.failed += 1;
            if report.failures.len() < 5 {
                report.failures.push(why);
            }
            continue;
        }
        let out = result.expect("checked above");
        if started >= clock.opens && done < clock.closes {
            report.samples.push(Sample {
                done_ns: (done - clock.opens).as_nanos() as u64,
                latency_ns: (done - started).as_nanos() as u64,
                parse_ns,
                queue_us: out.metrics.queue_us,
                exec_us: out.metrics.exec_us,
                op: st.op,
                shards_touched: out.metrics.shards_touched,
                retries: out.metrics.retries,
                point: out.metrics.route == RouteKind::Point,
            });
        }
    }
    report.shadow = client.shadow;
    report
}

/// What the migration driver hands back.
#[derive(Default)]
struct MigrationReport {
    /// Rows flipped by steps that ended inside the window.
    rows_moved: u64,
    batches_flipped: u64,
    copy_retries: u64,
    step_us: Vec<u64>,
    plan_s: Vec<f64>,
    /// Nanoseconds of the window during which a plan was in flight.
    active_ns: u64,
    rounds: u64,
    error: Option<String>,
}

/// One planned round: the whole table one shard further round the ring.
struct Round {
    new: Arc<dyn Scheme>,
    versioned: Arc<VersionedScheme>,
    plan: schism::migrate::MigrationPlan,
    /// Where every row lives once the round is done: the next round's start.
    placement: HashMap<TupleId, PartitionSet>,
}

fn placement(
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    rows: u64,
) -> HashMap<TupleId, PartitionSet> {
    (0..rows)
        .map(|r| {
            let t = TupleId::new(0, r);
            (t, scheme.locate_tuple(t, db))
        })
        .collect()
}

/// Plans the round that starts from `old` / `from`.
fn plan_round(
    old: &Arc<dyn Scheme>,
    from: &HashMap<TupleId, PartitionSet>,
    db: &dyn TupleValues,
    spec: &Spec,
) -> Round {
    let to: HashMap<TupleId, PartitionSet> = from
        .iter()
        .map(|(&t, owners)| {
            let owner = owners.first().expect("every row has an owner");
            (t, PartitionSet::single((owner + 1) % spec.shards))
        })
        .collect();
    let backend = BitArrayBackend::new(spec.rows, to.iter().map(|(t, p)| (t.row, *p)));
    let new: Arc<dyn Scheme> = Arc::new(LookupScheme::new(
        spec.shards,
        vec![Some(Box::new(backend) as Box<dyn LookupBackend>)],
        vec![Some(RowKey { col: 0, offset: 0 })],
        MissPolicy::HashRow,
    ));
    let plan = plan_migration(
        from,
        &to,
        db,
        &PlanConfig {
            max_rows_per_batch: BATCH_ROWS,
            ..PlanConfig::default()
        },
    );
    Round {
        versioned: Arc::new(VersionedScheme::new(Arc::clone(old), Arc::clone(&new))),
        new,
        plan,
        placement: to,
    }
}

/// Moves the whole table one shard round the ring, then again, for as long
/// as the window is open: install a `VersionedScheme`, step the executor
/// batch by batch, install the finished placement. The next round is
/// planned while the current one still has its last batch to flip, so a
/// plan is in flight — and the foreground routes through a
/// `VersionedScheme` — for all of the window but the two installs between
/// rounds. The round in flight when the window closes is finished
/// (uncounted), so the run ends on a settled placement.
fn drive_migration(
    server: &Server,
    spec: &Spec,
    start: Arc<dyn Scheme>,
    clock: &WindowClock,
    probe: Option<&Arc<Probe>>,
) -> MigrationReport {
    let db = PkValues::from_schema(server.schema());
    let wrap = |s: Arc<dyn Scheme>| -> Arc<dyn Scheme> {
        match probe {
            Some(p) => Arc::new(TimedScheme::new(s, Arc::clone(p))),
            None => s,
        }
    };
    let in_window = |from: Instant, to: Instant| -> u64 {
        let (from, to) = (from.max(clock.opens), to.min(clock.closes));
        to.saturating_duration_since(from).as_nanos() as u64
    };
    let mut report = MigrationReport::default();
    let timed_plan = |old: &Arc<dyn Scheme>, from: &HashMap<TupleId, PartitionSet>| {
        let t = Instant::now();
        let round = plan_round(old, from, &db, spec);
        (round, t.elapsed().as_secs_f64())
    };
    let mut steps = 0u64;
    trace::enter((BACKGROUND_OP, 0));
    let (mut round, plan_s) = timed_plan(&start, &placement(&*start, &db, spec.rows));
    report.plan_s.push(plan_s);
    while Instant::now() < clock.closes {
        server.install_scheme(wrap(Arc::clone(&round.versioned) as Arc<dyn Scheme>));
        let mut exec = MigrationExecutor::new(
            &round.plan,
            &**server.store(),
            &round.versioned,
            ExecutorConfig {
                // A foreground write racing a batch's copy fails its
                // verification; the batch is copied again, never aborted.
                max_retries: u32::MAX,
                ..ExecutorConfig::default()
            },
        );
        let t_active = Instant::now();
        let mut next = None;
        loop {
            let (flipped, total) = exec.progress();
            if flipped + 1 == total && next.is_none() {
                let (planned, plan_s) = timed_plan(&round.new, &round.placement);
                report.plan_s.push(plan_s);
                next = Some(planned);
            }
            steps += 1;
            let sampled = probe.filter(|_| steps.is_multiple_of(STEP_SAMPLE));
            let span = sampled.map(|p| {
                let id = p.tracer.reserve_id();
                trace::enter((BACKGROUND_OP + steps, id));
                (id, p.tracer.now_ns())
            });
            let t_step = Instant::now();
            let outcome = exec.step();
            let t_done = Instant::now();
            if let (Some(p), Some((id, start_ns))) = (sampled, span) {
                trace::enter((BACKGROUND_OP, 0));
                p.tracer
                    .record_as(id, "migrate.step", start_ns, (BACKGROUND_OP + steps, 0));
            }
            match outcome {
                StepOutcome::Flipped(batch) => {
                    if t_step >= clock.opens && t_done < clock.closes {
                        report.rows_moved += batch.tuples as u64;
                        report.batches_flipped += 1;
                        report.copy_retries += u64::from(batch.retries);
                        report.step_us.push((t_done - t_step).as_micros() as u64);
                    }
                }
                StepOutcome::Done => break,
                StepOutcome::Paused => unreachable!("the driver never pauses"),
                StepOutcome::Aborted { batch, error } => {
                    report.error = Some(format!("migration aborted at batch {batch}: {error}"));
                    trace::enter((0, 0));
                    return report;
                }
            }
        }
        report.active_ns += in_window(t_active, Instant::now());
        report.rounds += 1;
        server.install_scheme(wrap(Arc::clone(&round.new)));
        round = next.expect("every plan has a last batch");
    }
    trace::enter((0, 0));
    report
}

/// Everything one window produced.
struct Window {
    clients: Vec<ClientReport>,
    migration: Option<MigrationReport>,
    seconds: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    written_bytes: u64,
    compactions: u64,
    /// Verification reads made after the window, and how many disagreed.
    verified: u64,
    mismatches: Vec<String>,
    mismatched: u64,
    space_amp: f64,
}

/// Reads every row at the placement `scheme` gives it and compares it with
/// the last balance its writer had acknowledged.
fn verify_table(
    store: &dyn ShardStore,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    rows: u64,
    shadows: &[&HashMap<u64, i64>],
    window: &mut Window,
) {
    for key in 0..rows {
        let t = TupleId::new(0, key);
        let want = shadows[(key % shadows.len() as u64) as usize]
            .get(&key)
            .copied()
            .unwrap_or(0);
        for shard in scheme.locate_tuple(t, db).iter() {
            window.verified += 1;
            let got = store
                .get(shard, t)
                .ok()
                .flatten()
                .and_then(|bytes| decode_row(&bytes))
                .map(|row| (row[0].as_int(), row[2].as_int()));
            if got != Some((Some(key as i64), Some(want))) {
                window.mismatched += 1;
                if window.mismatches.len() < 5 {
                    window.mismatches.push(format!(
                        "key {key} on shard {shard}: stored {got:?}, last acknowledged {want}"
                    ));
                }
            }
        }
    }
}

/// Serves one ramp plus one window over a freshly set-up store and checks
/// the table afterwards. With a probe, scheme and store are wrapped in the
/// timing decorators and statements are sampled into spans.
fn run_window(
    spec: &Spec,
    loaded: Loaded,
    opts: &RunOpts,
    window_s: f64,
    probe: Option<&Arc<Probe>>,
) -> Window {
    let schema = schema();
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let Loaded { store, log, scheme } = loaded;
    let (served_store, served_scheme): (Arc<dyn ShardStore>, Arc<dyn Scheme>) = match probe {
        Some(p) => {
            if let Some((log, _)) = &log {
                log.set_fault_hook(Some(Arc::new(SyncCounter(Arc::clone(p)))));
            }
            (
                Arc::new(TimedStore::new(Arc::clone(&store), Arc::clone(p))),
                Arc::new(TimedScheme::new(Arc::clone(&scheme), Arc::clone(p))),
            )
        }
        None => (Arc::clone(&store), Arc::clone(&scheme)),
    };
    let server = Server::new(
        Arc::clone(&schema),
        served_store,
        served_scheme,
        Arc::clone(&db),
        ServeConfig::default(),
    );
    // One thread of the budget drives the migration, when there is one.
    let clients = match spec.kind {
        Kind::Migrate => opts.threads - 1,
        Kind::Point | Kind::Durable => opts.threads,
    };
    let clock = WindowClock::new(MAX_RAMP_S.min(window_s * 0.25), window_s);
    let mut window = Window {
        clients: Vec::new(),
        migration: None,
        seconds: window_s,
        cpu_s: 0.0,
        peak_rss_mib: 0.0,
        written_bytes: 0,
        compactions: 0,
        verified: 0,
        mismatches: Vec::new(),
        mismatched: 0,
        space_amp: 0.0,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = Client::new(c, clients, *spec, opts.seed);
                let (server, clock) = (&server, &clock);
                let probe = probe.map(|p| &**p);
                s.spawn(move || run_client(server, client, clock, probe))
            })
            .collect();
        let migration = (spec.kind == Kind::Migrate).then(|| {
            let (server, clock, start) = (&server, &clock, Arc::clone(&scheme));
            s.spawn(move || drive_migration(server, spec, start, clock, probe))
        });
        // This thread only brackets the window: it sleeps through it.
        std::thread::sleep(clock.opens.saturating_duration_since(Instant::now()));
        sys::reset_peak_rss();
        let compactions0 = log.as_ref().map_or(0, |(l, _)| l.compactions());
        let written0 = sys::written_bytes();
        let cpu0 = sys::cpu_seconds();
        if let Some(p) = probe {
            p.set_window_open(true);
        }
        std::thread::sleep(clock.closes.saturating_duration_since(Instant::now()));
        if let Some(p) = probe {
            p.set_window_open(false);
        }
        window.cpu_s = sys::cpu_seconds() - cpu0;
        window.written_bytes = sys::written_bytes() - written0;
        window.peak_rss_mib = sys::peak_rss_mib();
        if let Some((l, _)) = &log {
            window.compactions = l.compactions() - compactions0;
            let segments: u64 = (0..spec.shards)
                .map(|s| l.segment_bytes(s).expect("shard in range"))
                .sum();
            window.space_amp = segments as f64 / l.total_bytes().max(1) as f64;
        }
        window.clients = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        window.migration = migration.map(|h| h.join().expect("migration thread panicked"));
    });

    // Post-window check: every row, at its final placement, holds the last
    // value its writer saw acknowledged. The durable workload first drops
    // server and store and reopens the log from the files alone.
    let final_scheme = server.scheme();
    let shadows: Vec<HashMap<u64, i64>> = window
        .clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.shadow))
        .collect();
    let shadow_refs: Vec<&HashMap<u64, i64>> = shadows.iter().collect();
    match log {
        Some((log, dir)) => {
            drop((server, store, log));
            let reopened = LogStore::with_config(&dir.0, spec.shards, log_config(spec, true))
                .expect("reopen LogStore after the window");
            verify_table(
                &reopened,
                &*scheme,
                &*db,
                spec.rows,
                &shadow_refs,
                &mut window,
            );
        }
        None => verify_table(
            &*store,
            &*final_scheme,
            &*db,
            spec.rows,
            &shadow_refs,
            &mut window,
        ),
    }
    window
}

/// All samples of a window, pooled over clients.
fn pooled(window: &Window) -> impl Iterator<Item = &Sample> {
    window.clients.iter().flat_map(|c| c.samples.iter())
}

fn sliced(window: &Window) -> Slices {
    // One-second slices; a window shorter than two seconds is one slice.
    let count = (window.seconds as usize).max(1);
    let slice_ns = (window.seconds * 1e9 / count as f64) as u64;
    let mut slices = Slices::new(count, slice_ns);
    for s in pooled(window) {
        slices.add(s.done_ns, s.latency_ns);
    }
    slices
}

/// Folds a window's failures into the result.
fn account(window: &Window, out: &mut RunResult) {
    for c in &window.clients {
        out.attempted += c.attempted;
        if c.failed > 0 {
            out.fail(c.failed, c.failures.join("; "));
        }
    }
    out.attempted += window.verified;
    if window.mismatched > 0 {
        out.fail(window.mismatched, window.mismatches.join("; "));
    }
    if let Some(e) = window.migration.as_ref().and_then(|m| m.error.clone()) {
        out.fail(1, e);
    }
}

fn describe(spec: &Spec, opts: &RunOpts, clients: usize, out: &mut RunResult) {
    out.note(
        "sizes",
        Json::obj([
            ("rows", Json::Int(spec.rows as i64)),
            ("shards", Json::Int(i64::from(spec.shards))),
            ("clients", Json::Int(clients as i64)),
            (
                "migration_threads",
                Json::Int((opts.threads - clients) as i64),
            ),
            ("update_pct", Json::Int(spec.update_pct as i64)),
            ("three_key_in_pct", Json::Int(spec.multi_pct as i64)),
            (
                "store",
                Json::str(match spec.kind {
                    Kind::Durable => "LogStore",
                    Kind::Point | Kind::Migrate => "MemStore",
                }),
            ),
            ("sync_commits", Json::Bool(spec.kind == Kind::Durable)),
            (
                "compact_min_bytes",
                Json::Int(spec.compact_min_bytes as i64),
            ),
            ("migration_batch_rows", Json::Int(BATCH_ROWS as i64)),
            ("loop", Json::str("closed")),
        ]),
    );
}

/// The untraced run: set up several times over ([`repeat_set_up`]), serve
/// one window on the last store, verify.
pub fn run_untraced(spec: &Spec, opts: &RunOpts) -> RunResult {
    let mut out = RunResult::new();
    let schema = schema();
    let db = PkValues::from_schema(&schema);
    let (loaded, setups) = repeat_set_up(|| set_up(spec, &schema, &db));
    let window = run_window(spec, loaded, opts, opts.seconds, None);
    account(&window, &mut out);
    describe(spec, opts, window.clients.len(), &mut out);

    let ops = pooled(&window).count() as f64;
    let mut slices = sliced(&window);
    let (p99_ns, p99_samples) = slices.median_percentile_ns(0.99);
    let mut latencies: Vec<u64> = pooled(&window).map(|s| s.latency_ns).collect();
    let distributed = pooled(&window).filter(|s| s.shards_touched > 1).count() as f64;
    out.set_setup(&setups);
    out.set("throughput_ops_s", slices.median_rate_per_s());
    out.set(
        "latency_p50_ms",
        percentile_of(&mut latencies, 0.5) as f64 / 1e6,
    );
    out.set("cpu_us_per_op", window.cpu_s / ops * 1e6);
    out.set("peak_rss_mib", window.peak_rss_mib);
    out.set("distributed_fraction", distributed / ops);
    out.note("window_ops", Json::Int(ops as i64));
    // The tail is too unsteady on a shared box to carry a regression bound
    // (see README, "Steadiness"); it is shown here and, from the traced
    // window, as the per-layer `serve.p99_us`.
    out.note("latency_p99_ms", Json::Num(p99_ns / 1e6));
    out.note("p99_min_samples_per_slice", Json::Int(p99_samples as i64));
    if let Some(m) = &window.migration {
        out.note("migration_rounds", Json::Int(m.rounds as i64));
        out.note(
            "migrate_rows_s",
            Json::Num(m.rows_moved as f64 / window.seconds),
        );
    }
    out
}

/// Times `parse_statement`, `classify_routability` and the row codec over a
/// fresh stream of the workload's own statements, on this thread alone.
fn replay(spec: &Spec, opts: &RunOpts, out: &mut RunResult) {
    let schema = schema();
    let mut client = Client::new(0, 1, *spec, opts.seed);
    let sql: Vec<String> = (0..REPLAY_STATEMENTS)
        .map(|_| client.next_statement().sql)
        .collect();
    let t0 = Instant::now();
    let parsed: Vec<_> = sql
        .iter()
        .filter_map(|s| parse_statement(&schema, s).ok())
        .collect();
    let parse_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for stmt in &parsed {
        std::hint::black_box(classify_routability(std::hint::black_box(stmt)));
    }
    let classify_ns = t0.elapsed().as_nanos() as f64;
    out.set(
        "sql.classify_ns_per_stmt",
        classify_ns / parsed.len().max(1) as f64,
    );
    out.set("sql.parse_errors", (sql.len() - parsed.len()) as f64);
    out.note(
        "sql.parse_replay_ns_per_stmt",
        Json::Num(parse_ns / sql.len() as f64),
    );

    let rows: Vec<Vec<Value>> = (0..REPLAY_STATEMENTS as u64).map(account_row).collect();
    let t0 = Instant::now();
    for row in &rows {
        let decoded = decode_row(&encode_row(std::hint::black_box(row)));
        std::hint::black_box(decoded);
    }
    out.set(
        "serve.row.codec_ns_per_row",
        t0.elapsed().as_nanos() as f64 / rows.len() as f64,
    );
}

/// The traced run: a short undecorated window for reference, then the
/// decorated, span-recording window the per-layer numbers come from.
pub fn run_traced(name: &str, spec: &Spec, opts: &RunOpts) -> (RunResult, Json) {
    let mut out = RunResult::new();
    let schema = schema();
    let db = PkValues::from_schema(&schema);

    let plain = run_window(
        spec,
        set_up(spec, &schema, &db),
        opts,
        opts.seconds * 0.3,
        None,
    );
    account(&plain, &mut out);
    let plain_rate = sliced(&plain).median_rate_per_s();

    let clients = plain.clients.len();
    let probe = Probe::new(SPAN_CAPACITY, clients);
    let traced_s = opts.seconds * 0.7;
    let window = run_window(
        spec,
        set_up(spec, &schema, &db),
        opts,
        traced_s,
        Some(&probe),
    );
    account(&window, &mut out);
    describe(spec, opts, clients, &mut out);

    let ops = pooled(&window).count().max(1) as f64;
    let of = |f: &dyn Fn(&Sample) -> bool, v: &dyn Fn(&Sample) -> u64| -> Vec<u64> {
        pooled(&window).filter(|s| f(s)).map(v).collect()
    };
    let all = |_: &Sample| true;
    let p = |mut v: Vec<u64>, q: f64| percentile_of(&mut v, q) as f64;

    let parse_total: u64 = pooled(&window).map(|s| s.parse_ns).sum();
    out.set("sql.parse_ns_per_stmt", parse_total as f64 / ops);
    replay(spec, opts, &mut out);

    out.set("router.route_ns_per_call", probe.route.ns_per_call());
    out.set(
        "router.route_calls_per_op",
        probe.route.calls() as f64 / ops,
    );

    out.set("serve.queue_us_p50", p(of(&all, &|s| s.queue_us), 0.5));
    out.set("serve.queue_us_p99", p(of(&all, &|s| s.queue_us), 0.99));
    out.set("serve.exec_us_p50", p(of(&all, &|s| s.exec_us), 0.5));
    // What is left of a statement's latency once parsing, the longest
    // shard-queue wait and the longest shard execution are taken out:
    // routing, hand-off, channel and gather.
    let dispatch_ns = |s: &Sample| {
        s.latency_ns
            .saturating_sub(s.parse_ns + (s.queue_us + s.exec_us) * 1_000)
    };
    out.set(
        "serve.dispatch_us_p50",
        p(of(&all, &dispatch_ns), 0.5) / 1e3,
    );
    let touched: u64 = pooled(&window).map(|s| u64::from(s.shards_touched)).sum();
    let retries: u64 = pooled(&window).map(|s| u64::from(s.retries)).sum();
    out.set("serve.shards_touched_mean", touched as f64 / ops);
    out.set("serve.retries_per_op", retries as f64 / ops);
    let latency = |s: &Sample| s.latency_ns;
    out.set(
        "serve.read_p50_us",
        p(of(&|s| s.op == Op::Read, &latency), 0.5) / 1e3,
    );
    out.set(
        "serve.write_p50_us",
        p(of(&|s| s.op == Op::Write, &latency), 0.5) / 1e3,
    );
    out.set(
        "serve.multi_p50_us",
        p(of(&|s| s.op == Op::Multi, &latency), 0.5) / 1e3,
    );
    let mut slices = sliced(&window);
    let (p99_ns, p99_samples) = slices.median_percentile_ns(0.99);
    out.set("serve.p99_us", p99_ns / 1e3);
    out.note("p99_min_samples_per_slice", Json::Int(p99_samples as i64));
    out.set(
        "serve.point_share",
        pooled(&window).filter(|s| s.point).count() as f64 / ops,
    );

    let st = &probe.store;
    let fg_calls = st.get.calls() + st.write.calls() + st.scan.calls();
    let fg_busy = st.get.busy_ns() + st.write.busy_ns() + st.scan.busy_ns();
    let latency_total: u64 = pooled(&window).map(|s| s.latency_ns).sum();
    out.set("store.get_ns_per_call", st.get.ns_per_call());
    out.set("store.write_us_per_call", st.write.ns_per_call() / 1e3);
    out.set("store.calls_per_op", fg_calls as f64 / ops);
    out.set(
        "store.busy_share",
        fg_busy as f64 / latency_total.max(1) as f64,
    );
    let syncs = probe.syncs.load(Ordering::Relaxed);
    out.set(
        "store.syncs_per_write",
        syncs as f64 / st.write.calls().max(1) as f64,
    );
    let payload =
        st.put_bytes.load(Ordering::Relaxed) + st.background_batch_bytes.load(Ordering::Relaxed);
    let on_disk = spec.kind == Kind::Durable;
    out.set(
        "store.write_amp",
        if on_disk {
            window.written_bytes as f64 / payload.max(1) as f64
        } else {
            0.0
        },
    );
    out.set("store.space_amp", window.space_amp);
    out.set("store.compactions", window.compactions as f64);

    if let Some(m) = &window.migration {
        let mut steps = m.step_us.clone();
        out.set("migrate.rows_s", m.rows_moved as f64 / window.seconds);
        out.set("migrate.plan_s", median(&m.plan_s));
        out.set("migrate.step_us_p50", percentile_of(&mut steps, 0.5) as f64);
        out.set(
            "migrate.step_us_p99",
            percentile_of(&mut steps, 0.99) as f64,
        );
        out.set("migrate.batches_flipped", m.batches_flipped as f64);
        out.set("migrate.copy_retries", m.copy_retries as f64);
        out.set(
            "migrate.rows_copied_per_row_moved",
            st.background_batch_rows.load(Ordering::Relaxed) as f64 / m.rows_moved.max(1) as f64,
        );
        out.set(
            "migrate.active_share",
            m.active_ns as f64 / (window.seconds * 1e9),
        );
        out.note("migration_rounds", Json::Int(m.rounds as i64));
        out.note("migrate_step_samples", Json::Int(m.step_us.len() as i64));
    }

    let traced_rate = slices.median_rate_per_s();
    out.set(
        "serve.trace_overhead_pct",
        (1.0 - traced_rate / plain_rate) * 100.0,
    );
    out.note("window_ops", Json::Int(ops as i64));
    out.note("untraced_ops_s", Json::Num(plain_rate));
    out.note("traced_ops_s", Json::Num(traced_rate));
    out.note("statement_sample", Json::Int(STATEMENT_SAMPLE as i64));
    out.note("step_sample", Json::Int(STEP_SAMPLE as i64));
    let trace_file = trace::to_json(name, &probe.tracer.spans(), probe.tracer.dropped());
    (out, trace_file)
}
