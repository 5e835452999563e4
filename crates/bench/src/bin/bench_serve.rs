//! **Closed-loop serving benchmark** — N concurrent clients issue SQL
//! text at a [`Server`] front door, each waiting for
//! its result before sending the next statement (closed loop), while the
//! driver measures per-statement latency percentiles and steady-state
//! throughput. Three scenarios:
//!
//! 1. **steady** — a static hash scheme; the baseline serving cost of
//!    parse → route → shard-queue → execute → gather, and the fault runs'
//!    same-process, fault-free reference. It must finish with zero
//!    serving errors. (Serving through a live migration is the
//!    benchmark's `serve_migrate` workload.)
//!
//! 2. **failover** (`--faults`) — the mix runs over a replication-factor-2
//!    scheme while a count-triggered [`FaultPlan`] crashes one shard worker
//!    mid-run; the driver records availability (served / attempted),
//!    the longest client-observed success gap, and p99 inside the
//!    one-second window after the kill.
//!
//! 3. **kill-rejoin** (`--faults`) — the mix over a replication-factor-3
//!    scheme, where writes are acked by a majority quorum of the full
//!    replica set. A seeded kill takes one shard down mid-run; after a
//!    short outage the driver revives it (`Down → CatchingUp`) and runs
//!    the catch-up copy ([`run_catch_up`]) under live traffic, recording
//!    availability across the whole outage, the wall-clock catch-up
//!    duration, and p99 of ops issued while the shard was catching up.
//!
//! The op mix is point-heavy OLTP: 70% point SELECT, 25% point UPDATE, 5%
//! three-key IN SELECT, no DELETEs.
//! Every client runs a [`schism_serve::Session`], so repeated hot statements spread
//! across replicas instead of re-picking the same salted replica.
//!
//! ```text
//! cargo run --release -p schism-bench --bin bench_serve \
//!     [--smoke] [--full] [--faults] [--clients N] [--seconds S] [--backend mem|log]
//! ```
//!
//! `--smoke` runs a short CI-sized pass and records nothing; otherwise
//! each scenario run lands as its own section (`steady`, `failover`,
//! `kill_rejoin`) of `crates/bench/BENCH_serve.json`. Latency percentiles
//! exclude a 10% warm-up ramp. With more clients than host cores the
//! latencies measure oversubscribed queueing, not parallel speedup, and
//! each section's note says so.

use schism_migrate::{run_catch_up, PlanConfig};
use schism_router::{HashScheme, ReplicatedScheme, Scheme};
use schism_serve::{load_table, PkValues, RouteKind, ServeConfig, Server};
use schism_sql::{ColumnType, Schema, Value};
use schism_store::{tempdir::TempDir, FaultPlan, ShardStore};
use schism_workload::{splitmix64, TupleId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 8;
/// The shard `--faults` kills, and after how many of its dequeues.
const VICTIM: u32 = 3;

fn splitmix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Minimal deterministic per-client RNG (no external crates in bins).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }
}

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

/// Per-run aggregate a client thread hands back.
#[derive(Default)]
struct ClientStats {
    latencies_us: Vec<u64>,
    ops: u64,
    /// Every success, including ramp-up (the availability denominator).
    ok_all: u64,
    errors: u64,
    point: u64,
    multi: u64,
    broadcast: u64,
    /// Longest wall-clock gap between two consecutive successes.
    max_gap_us: u64,
    /// `(start offset from run start, latency)` per measured op;
    /// only filled on fault runs, where the kill window needs it.
    timeline: Vec<(u64, u64)>,
}

/// Wall-clock context shared by the clients of a fault run.
struct FaultCtx {
    start: Instant,
    /// Micros after `start` when the watcher saw the crash fire;
    /// `u64::MAX` until then.
    kill_at_us: AtomicU64,
    /// Micros after `start` when the rejoin's catch-up copy began;
    /// `u64::MAX` on runs that never rejoin.
    catch_up_start_us: AtomicU64,
    /// Wall-clock duration of the catch-up copy in micros; `u64::MAX`
    /// until it completes.
    catch_up_us: AtomicU64,
}

/// One closed-loop client: issue, wait, record, repeat until `deadline`.
fn run_client(
    server: &Server,
    seed: u64,
    rows: u64,
    rampup_until: Instant,
    deadline: Instant,
    live_ops: &AtomicU64,
    faults: Option<&FaultCtx>,
) -> ClientStats {
    let mut rng = Rng(seed);
    let mut stats = ClientStats::default();
    // A session per client: its per-statement salts spread repeated reads
    // across replicas, and its write set keeps reads-after-writes on the
    // leader. A bare `execute_sql` would re-pick one salted replica forever.
    let mut session = server.session(seed);
    let mut last_ok: Option<Instant> = None;
    while Instant::now() < deadline {
        let key = rng.next() % rows;
        let roll = rng.next() % 100;
        let sql = if roll < 70 {
            format!("SELECT * FROM account WHERE id = {key}")
        } else if roll < 95 {
            format!(
                "UPDATE account SET bal = {} WHERE id = {key}",
                (rng.next() % 100_000) as i64
            )
        } else {
            let k2 = rng.next() % rows;
            let k3 = rng.next() % rows;
            format!("SELECT * FROM account WHERE id IN ({key}, {k2}, {k3})")
        };
        let started = Instant::now();
        match session.execute_sql(&sql) {
            Ok(out) => {
                stats.ok_all += 1;
                match out.metrics.route {
                    RouteKind::Point => stats.point += 1,
                    RouteKind::Multi => stats.multi += 1,
                    RouteKind::Broadcast => stats.broadcast += 1,
                }
                let lat = started.elapsed().as_micros() as u64;
                if started >= rampup_until {
                    stats.latencies_us.push(lat);
                    stats.ops += 1;
                    live_ops.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(ctx) = faults {
                    let done = started + Duration::from_micros(lat);
                    if let Some(prev) = last_ok {
                        let gap = done.saturating_duration_since(prev).as_micros() as u64;
                        stats.max_gap_us = stats.max_gap_us.max(gap);
                    }
                    last_ok = Some(done);
                    if started >= rampup_until {
                        let off = started.duration_since(ctx.start).as_micros() as u64;
                        stats.timeline.push((off, lat));
                    }
                }
            }
            Err(e) => {
                // Fault runs expect a handful of Unavailable errors around
                // the kill; anything else is still worth shouting about.
                if faults.is_none() {
                    eprintln!("serve error: {e} (statement: {sql})");
                }
                stats.errors += 1;
            }
        }
    }
    stats
}

struct RunResult {
    ops: u64,
    errors: u64,
    throughput: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    point: u64,
    multi: u64,
    broadcast: u64,
    /// successes / attempts over the whole run (1.0 on fault-free runs).
    availability: f64,
    /// Longest client-observed gap between consecutive successes.
    max_gap_us: u64,
    /// p99 of ops started within one second after the shard kill.
    p99_kill_us: u64,
    /// Shards the server marked down and failed over from.
    failovers: u64,
    /// Shards that completed a catch-up copy and rejoined as live.
    rejoins: u64,
    /// Wall-clock duration of the rejoin's catch-up copy.
    catch_up_us: u64,
    /// p99 of ops started while the rejoined shard was catching up.
    p99_catchup_us: u64,
}

impl RunResult {
    /// This run's one-line section of BENCH_serve.json; `setup` holds the
    /// fields every run of one invocation shares.
    fn section(&self, setup: &str) -> String {
        let mut s = format!(
            "{{ {setup}, \"ops\": {}, \"throughput_ops_s\": {:.0}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"point\": {}, \"multi\": {}, \"broadcast\": {}, \
             \"errors\": {}",
            self.ops,
            self.throughput,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.point,
            self.multi,
            self.broadcast,
            self.errors
        );
        if self.failovers > 0 {
            s += &format!(
                ", \"availability\": {:.4}, \"max_gap_us\": {}, \"p99_kill_us\": {}, \
                 \"failovers\": {}",
                self.availability, self.max_gap_us, self.p99_kill_us, self.failovers
            );
        }
        if self.rejoins > 0 {
            s += &format!(
                ", \"rejoins\": {}, \"catch_up_us\": {}, \"p99_catchup_us\": {}",
                self.rejoins, self.catch_up_us, self.p99_catchup_us
            );
        }
        s + " }"
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    store: Arc<dyn ShardStore>,
    serve_scheme: Arc<dyn Scheme>,
    schema: &Arc<Schema>,
    rows: u64,
    clients: u32,
    seconds: f64,
    faults: Option<Arc<FaultPlan>>,
    rejoin_delay: Option<Duration>,
) -> RunResult {
    let exec_store = Arc::clone(&store);
    let server = Server::new(
        Arc::clone(schema),
        store,
        serve_scheme,
        Arc::new(PkValues::from_schema(schema)),
        ServeConfig {
            faults: faults.clone(),
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    let rampup_until = start + Duration::from_secs_f64(seconds * 0.1);
    let deadline = start + Duration::from_secs_f64(seconds);
    let live_ops = AtomicU64::new(0);
    let fault_ctx = faults.as_ref().map(|_| FaultCtx {
        start,
        kill_at_us: AtomicU64::new(u64::MAX),
        catch_up_start_us: AtomicU64::new(u64::MAX),
        catch_up_us: AtomicU64::new(u64::MAX),
    });

    let mut per_client: Vec<ClientStats> = Vec::new();
    std::thread::scope(|s| {
        // The crash trigger is count-based (deterministic); a watcher
        // timestamps when it fired so the kill-window p99 can be cut out,
        // and on kill-rejoin runs it also drives the rejoin: after
        // `rejoin_delay` of outage it revives the victim (Down →
        // CatchingUp) and runs the catch-up copy under live traffic.
        if let (Some(plan), Some(ctx)) = (&faults, &fault_ctx) {
            let server = &server;
            let store = &exec_store;
            s.spawn(move || {
                let killed = loop {
                    if !plan.crashes_fired().is_empty() {
                        let off = ctx.start.elapsed().as_micros() as u64;
                        ctx.kill_at_us.store(off, Ordering::Relaxed);
                        break true;
                    }
                    if Instant::now() >= deadline {
                        break false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                let Some(delay) = rejoin_delay else { return };
                if !killed {
                    return;
                }
                std::thread::sleep(delay);
                let (victim, _) = plan.crashes_fired()[0];
                assert!(
                    server.revive_shard(victim),
                    "shard {victim} must be down before the rejoin"
                );
                let t0 = Instant::now();
                ctx.catch_up_start_us
                    .store(ctx.start.elapsed().as_micros() as u64, Ordering::Relaxed);
                run_catch_up(
                    victim,
                    &server.scheme(),
                    &**server.routing_db(),
                    (0..rows).map(|r| TupleId::new(0, r)),
                    &**store,
                    server.health(),
                    &PlanConfig {
                        max_rows_per_batch: 256,
                    },
                )
                .unwrap_or_else(|e| panic!("catch-up of shard {victim} failed: {e}"));
                ctx.catch_up_us
                    .store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            });
        }
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (server, live_ops) = (&server, &live_ops);
                let fault_ctx = fault_ctx.as_ref();
                s.spawn(move || {
                    run_client(
                        server,
                        0xC0FFEE ^ (u64::from(c) << 32),
                        rows,
                        rampup_until,
                        deadline,
                        live_ops,
                        fault_ctx,
                    )
                })
            })
            .collect();
        per_client = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let measured_s = seconds * 0.9;
    let mut latencies: Vec<u64> = Vec::new();
    let mut ok_all = 0u64;
    let mut timeline: Vec<(u64, u64)> = Vec::new();
    let mut result = RunResult {
        ops: 0,
        errors: 0,
        throughput: 0.0,
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        point: 0,
        multi: 0,
        broadcast: 0,
        availability: 1.0,
        max_gap_us: 0,
        p99_kill_us: 0,
        failovers: server.failovers(),
        rejoins: server.rejoins(),
        catch_up_us: 0,
        p99_catchup_us: 0,
    };
    for c in per_client {
        latencies.extend(c.latencies_us);
        timeline.extend(c.timeline);
        ok_all += c.ok_all;
        result.ops += c.ops;
        result.errors += c.errors;
        result.point += c.point;
        result.multi += c.multi;
        result.broadcast += c.broadcast;
        result.max_gap_us = result.max_gap_us.max(c.max_gap_us);
    }
    latencies.sort_unstable();
    result.throughput = result.ops as f64 / measured_s;
    result.p50_us = percentile(&latencies, 0.50);
    result.p95_us = percentile(&latencies, 0.95);
    result.p99_us = percentile(&latencies, 0.99);
    if ok_all + result.errors > 0 {
        result.availability = ok_all as f64 / (ok_all + result.errors) as f64;
    }
    if let Some(ctx) = &fault_ctx {
        let kill_at = ctx.kill_at_us.load(Ordering::Relaxed);
        if kill_at != u64::MAX {
            let mut window: Vec<u64> = timeline
                .iter()
                .filter(|(off, _)| (kill_at..kill_at + 1_000_000).contains(off))
                .map(|&(_, lat)| lat)
                .collect();
            window.sort_unstable();
            result.p99_kill_us = percentile(&window, 0.99);
        }
        let cu_start = ctx.catch_up_start_us.load(Ordering::Relaxed);
        let cu_us = ctx.catch_up_us.load(Ordering::Relaxed);
        if cu_start != u64::MAX && cu_us != u64::MAX {
            result.catch_up_us = cu_us;
            let mut window: Vec<u64> = timeline
                .iter()
                .filter(|(off, _)| (cu_start..cu_start + cu_us.max(1)).contains(off))
                .map(|&(_, lat)| lat)
                .collect();
            window.sort_unstable();
            result.p99_catchup_us = percentile(&window, 0.99);
        }
    }
    assert_eq!(live_ops.load(Ordering::Relaxed), result.ops);
    println!(
        "{name}: {} ops in {measured_s:.1}s ({:.0} ops/s), p50 {}us p95 {}us p99 {}us, \
         {} point / {} multi / {} broadcast, {} errors",
        result.ops,
        result.throughput,
        result.p50_us,
        result.p95_us,
        result.p99_us,
        result.point,
        result.multi,
        result.broadcast,
        result.errors
    );
    if faults.is_some() {
        println!(
            "{name}: availability {:.4}, max success gap {}us, p99 in kill window {}us, \
             {} shard(s) failed over",
            result.availability, result.max_gap_us, result.p99_kill_us, result.failovers
        );
    }
    if result.rejoins > 0 {
        println!(
            "{name}: {} shard(s) rejoined, catch-up copy took {}us, p99 during catch-up {}us",
            result.rejoins, result.catch_up_us, result.p99_catchup_us
        );
    }
    result
}

fn main() {
    schism_bench::reject_unknown_args(&[
        "--smoke",
        "--faults",
        "--full",
        "--backend",
        "--clients",
        "--seconds",
    ]);
    let smoke = schism_bench::flag("--smoke");
    let faults_on = schism_bench::flag("--faults");
    let full = schism_bench::full_scale();
    let backend = schism_bench::backend_kind();
    let clients: u32 = schism_bench::arg_value("--clients")
        .map(|v| v.parse().expect("--clients takes a positive integer"))
        .unwrap_or(if smoke { 4 } else { 8 });
    let seconds: f64 = schism_bench::arg_value("--seconds")
        .map(|v| v.parse().expect("--seconds takes a float"))
        .unwrap_or(if smoke { 1.0 } else { 5.0 });
    let rows: u64 = if full {
        100_000
    } else if smoke {
        2_000
    } else {
        20_000
    };
    let schema = schema();
    let db = PkValues::from_schema(&schema);
    let dir = TempDir::new("schism-bench-serve").expect("temp dir for stores");
    let host_cores = schism_par::available_parallelism();
    println!(
        "bench_serve: {rows} rows over {SHARDS} shards, {clients} closed-loop clients, \
         {seconds:.1}s per run, backend {backend}, {host_cores} host core(s)"
    );

    let old: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(SHARDS, vec![Some(0)]));
    let table_rows =
        |n: u64| (0..n).map(|i| vec![Value::Int(i as i64), Value::Null, Value::Int(0)]);

    // Run 1: steady state under the static hash scheme.
    let store1: Arc<dyn ShardStore> =
        Arc::from(schism_bench::open_backend(backend, SHARDS, &dir, "steady"));
    load_table(&*store1, &*old, &db, &schema, 0, table_rows(rows)).expect("load steady store");
    let steady = run_scenario(
        "steady",
        store1,
        Arc::clone(&old),
        &schema,
        rows,
        clients,
        seconds,
        None,
        None,
    );
    assert_eq!(steady.errors, 0, "the steady run must complete error-free");
    assert!(steady.ops > 0, "clients must make progress");

    // Run 2 (--faults): the mix over a replication-factor-2 scheme while a
    // seeded plan crashes one shard worker; the clients ride the failover.
    let failover = faults_on.then(|| {
        let store2: Arc<dyn ShardStore> = Arc::from(schism_bench::open_backend(
            backend, SHARDS, &dir, "failover",
        ));
        let rep: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(2, Arc::clone(&old)));
        load_table(&*store2, &*rep, &db, &schema, 0, table_rows(rows))
            .expect("load failover store");
        let after = if smoke { 200 } else { 2_000 };
        let plan = Arc::new(FaultPlan::default().crash_worker(VICTIM, after));
        let r = run_scenario(
            "failover",
            store2,
            rep,
            &schema,
            rows,
            clients,
            seconds,
            Some(plan),
            None,
        );
        assert_eq!(
            r.failovers, 1,
            "the failover run must kill exactly one shard and fail over from it"
        );
        assert!(
            r.availability > 0.9,
            "availability must stay high across a single-shard kill (got {:.4})",
            r.availability
        );
        r
    });

    // Run 3 (--faults): the mix over a replication-factor-3 scheme with
    // quorum-acked writes. The seeded kill takes one shard down; after a
    // short outage the watcher revives it and runs the catch-up copy under
    // the live clients, so the run measures the whole down → catching-up →
    // live arc, not just the failover.
    let rejoin = faults_on.then(|| {
        let store3: Arc<dyn ShardStore> =
            Arc::from(schism_bench::open_backend(backend, SHARDS, &dir, "rejoin"));
        let rep3: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(3, Arc::clone(&old)));
        load_table(&*store3, &*rep3, &db, &schema, 0, table_rows(rows)).expect("load rejoin store");
        let after = if smoke { 200 } else { 2_000 };
        let plan = Arc::new(FaultPlan::default().crash_worker(VICTIM, after));
        let outage = Duration::from_secs_f64(seconds * 0.15);
        let r = run_scenario(
            "kill_rejoin",
            store3,
            rep3,
            &schema,
            rows,
            clients,
            seconds,
            Some(plan),
            Some(outage),
        );
        assert_eq!(
            r.failovers, 1,
            "the kill-rejoin run must kill exactly one shard"
        );
        assert_eq!(
            r.rejoins, 1,
            "the killed shard must finish its catch-up and rejoin as live"
        );
        assert!(
            r.catch_up_us > 0,
            "the catch-up copy must take measurable wall-clock time"
        );
        assert!(
            r.availability > 0.9,
            "majority quorums must keep writes available across the kill (got {:.4})",
            r.availability
        );
        r
    });

    let mut runs = vec![("steady", steady)];
    runs.extend(failover.map(|r| ("failover", r)));
    runs.extend(rejoin.map(|r| ("kill_rejoin", r)));
    if smoke {
        let served: Vec<String> = runs
            .iter()
            .map(|(name, r)| format!("{name} availability {:.4}", r.availability))
            .collect();
        println!("smoke OK: {}", served.join(", "));
        return;
    }
    let note = schism_bench::host_note(host_cores, clients as usize);
    let setup = format!(
        "\"mix\": \"70% point SELECT, 25% point UPDATE, 5% 3-key IN\", \"rows\": {rows}, \
         \"shards\": {SHARDS}, \"clients\": {clients}, \"seconds\": {seconds}, \
         \"backend\": \"{backend}\", \"full\": {full}, \"note\": \"{note}\""
    );
    let fresh: Vec<(&str, String)> = runs.iter().map(|(n, r)| (*n, r.section(&setup))).collect();
    schism_bench::write_sections(
        "BENCH_serve.json",
        "bench_serve",
        &["steady", "failover", "kill_rejoin"],
        &fresh,
    );
}
