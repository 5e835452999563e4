//! The two advisor workloads: accesses in, placement and explained scheme
//! out. `advisor_tpcc` runs the clique backend, `advisor_hyper` the
//! hypergraph backend; see `README.md` for why each exists and how its
//! sizes were chosen.

use crate::json::Json;
use crate::report::{repeat_set_up, RunOpts, RunResult};
use crate::stats::median;
use crate::sys;
use crate::trace::{self, Span, Tracer};
use schism::core::{
    build_graph, build_lookup_scheme, explain::explain, hash_on_frequent_attributes,
    run_partition_phase, validate, BuildStats, GraphBackend, PartitionPhase, Recommendation,
    Schism, SchismConfig,
};
use schism::router::{evaluate, ReplicationScheme, Scheme};
use schism::workload::tpcc::{self, TpccConfig};
use schism::workload::{TupleId, Workload};
use std::time::Instant;

/// Partitions the advisor cuts the database into.
const K: u32 = 8;
/// Slack on the partitioner's balance bound: vertex weights are integers,
/// so the heaviest part may overshoot `1 + epsilon` by a vertex.
const IMBALANCE_SLACK: f64 = 0.005;
/// Timed passes never number fewer than this, however short the window.
const MIN_TIMED_PASSES: usize = 2;

/// Sizes of one advisor workload.
pub struct Spec {
    tpcc: TpccConfig,
    cfg: SchismConfig,
}

/// `advisor_tpcc`: 16 warehouses at a tenth-of-a-percent of TPC-C's
/// per-warehouse cardinalities, 5 % tuple sampling, clique backend. Two
/// warehouses per partition is a placement the partitioner finds on every
/// seed (distributed fraction ≈ 0.10, the paper's figure); at full
/// cardinalities and 50 warehouses the chosen fraction swings between 0.32
/// and 0.51 from seed to seed, which no regression bound survives.
pub fn tpcc_spec(threads: usize, smoke: bool) -> Spec {
    let mut cfg = SchismConfig::new(K);
    cfg.threads = threads;
    cfg.tuple_sample = 0.05;
    Spec {
        tpcc: TpccConfig {
            warehouses: 16,
            customers_per_district: 30,
            items: 1_000,
            init_orders_per_district: 30,
            num_txns: if smoke { 6_000 } else { 44_000 },
            ..TpccConfig::full(16)
        },
        cfg,
    }
}

/// `advisor_hyper`: full-cardinality TPC-C over 50 warehouses, every
/// transaction one net, no sampling, no blanket filter, no replication.
pub fn hyper_spec(threads: usize, smoke: bool) -> Spec {
    let mut cfg = SchismConfig::new(K);
    cfg.threads = threads;
    cfg.tuple_sample = 1.0;
    cfg.blanket_threshold = usize::MAX;
    cfg.replication = false;
    cfg.graph_backend = GraphBackend::Hypergraph;
    Spec {
        tpcc: TpccConfig {
            num_txns: if smoke { 2_000 } else { 20_000 },
            ..TpccConfig::full(50)
        },
        cfg,
    }
}

fn generate(spec: &Spec, seed: u64) -> Workload {
    tpcc::generate(&TpccConfig {
        seed,
        ..spec.tpcc.clone()
    })
}

/// What must be bit-identical from pass to pass.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Fingerprint {
    distributed_fraction: f64,
    cut: u64,
}

/// The checks every pass of a run goes through: every assigned tuple maps
/// into `0..k`, the partitioning is balanced within the configured bound,
/// and placement quality is bit-identical to the run's first pass.
struct Checks {
    k: u32,
    imbalance_bound: f64,
    /// Distinct tuples of the trace, computed once per run.
    tuples: Vec<TupleId>,
    first: Option<Fingerprint>,
    passes: usize,
}

impl Checks {
    fn new(spec: &Spec, workload: &Workload) -> Self {
        Self {
            k: spec.cfg.k,
            imbalance_bound: 1.0 + spec.cfg.partitioner.epsilon + IMBALANCE_SLACK,
            tuples: workload.trace.distinct_tuples(),
            first: None,
            passes: 0,
        }
    }

    fn pass(&mut self, assignment_ok: bool, imbalance: f64, got: Fingerprint, out: &mut RunResult) {
        let pass = self.passes;
        self.passes += 1;
        out.attempted += 1;
        let want = *self.first.get_or_insert(got);
        if !assignment_ok {
            out.fail(
                1,
                format!("pass {pass}: a tuple maps outside 0..{}", self.k),
            );
        } else if imbalance > self.imbalance_bound {
            let bound = self.imbalance_bound;
            out.fail(
                1,
                format!("pass {pass}: imbalance {imbalance} exceeds {bound}"),
            );
        } else if got != want {
            out.fail(
                1,
                format!("pass {pass}: {got:?} differs from the first pass's {want:?}"),
            );
        }
    }

    /// `Recommendation` keeps the winner's scheme but not the per-tuple
    /// assignment, so an untraced pass is checked by locating every tuple
    /// of the trace through the lookup candidate instead.
    fn recommendation_in_range(&self, rec: &Recommendation, workload: &Workload) -> bool {
        let lookup = &rec
            .validation
            .candidates
            .iter()
            .find(|c| c.name == "lookup-table")
            .expect("the lookup table is always a candidate")
            .scheme;
        self.tuples.iter().all(|&t| {
            let pset = lookup.locate_tuple(t, &*workload.db);
            !pset.is_empty() && pset.iter().all(|p| p < self.k)
        })
    }
}

fn assignment_in_range(phase: &PartitionPhase, k: u32) -> bool {
    phase
        .assignment
        .values()
        .all(|pset| !pset.is_empty() && pset.iter().all(|p| p < k))
}

/// One pass through the public front door, timed as a whole.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
}

fn untraced_pass(
    spec: &Spec,
    workload: &Workload,
    checks: &mut Checks,
    out: &mut RunResult,
) -> Pass {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let rec = Schism::new(spec.cfg.clone()).run(workload);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    checks.pass(
        checks.recommendation_in_range(&rec, workload),
        rec.imbalance,
        Fingerprint {
            distributed_fraction: rec.chosen_fraction(),
            cut: rec.edge_cut,
        },
        out,
    );
    Pass { wall_s, cpu_s }
}

fn describe(spec: &Spec, workload: &Workload, opts: &RunOpts, out: &mut RunResult) {
    let t = &spec.tpcc;
    out.note(
        "sizes",
        Json::obj([
            ("warehouses", Json::Int(i64::from(t.warehouses))),
            (
                "customers_per_district",
                Json::Int(t.customers_per_district as i64),
            ),
            ("items", Json::Int(t.items as i64)),
            ("txns", Json::Int(workload.trace.len() as i64)),
            ("k", Json::Int(i64::from(spec.cfg.k))),
            ("tuple_sample", Json::Num(spec.cfg.tuple_sample)),
            (
                "backend",
                Json::str(&format!("{:?}", spec.cfg.graph_backend)),
            ),
            ("replication", Json::Bool(spec.cfg.replication)),
            ("advisor_threads", Json::Int(opts.threads as i64)),
        ]),
    );
}

/// The untraced run: set-up several times over ([`repeat_set_up`]), one
/// warm-up pass on a cold heap (peak RSS), then timed passes through
/// `Schism::run` for the window.
pub fn run_untraced(spec: &Spec, opts: &RunOpts) -> RunResult {
    let mut out = RunResult::new();
    let (workload, setups) = repeat_set_up(|| generate(spec, opts.seed));
    describe(spec, &workload, opts, &mut out);

    let mut checks = Checks::new(spec, &workload);
    let rss_reset = sys::reset_peak_rss();
    untraced_pass(spec, &workload, &mut checks, &mut out);
    let peak_rss_mib = sys::peak_rss_mib();

    let window = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_TIMED_PASSES || window.elapsed().as_secs_f64() < opts.seconds {
        passes.push(untraced_pass(spec, &workload, &mut checks, &mut out));
    }

    let txns = workload.trace.len() as f64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let wall = median(&walls);
    out.set_setup(&setups);
    out.set("throughput_ops_s", txns / wall);
    out.set("latency_p50_ms", wall * 1e3);
    out.set("cpu_us_per_op", median(&cpus) / txns * 1e6);
    out.set("peak_rss_mib", peak_rss_mib);
    out.set(
        "distributed_fraction",
        checks.first.map_or(0.0, |f| f.distributed_fraction),
    );
    out.note("timed_passes", Json::Int(passes.len() as i64));
    out.note("pass_wall_s", Json::nums(&walls));
    out.note("rss_reset", Json::Bool(rss_reset));
    out
}

/// Layer numbers of one traced pass.
struct Layers {
    spans: Vec<Span>,
    wall_s: f64,
    build_peak_mib: f64,
    partition_peak_mib: f64,
    rules: usize,
    trusted: bool,
    /// Held-out distributed fraction of the winner.
    chosen_fraction: f64,
    /// Of the lookup, range and hash candidates (0 for one not fielded).
    fractions: [f64; 3],
    assignment_ok: bool,
    cut: u64,
    imbalance: f64,
    replicated_tuples: usize,
    build: BuildStats,
    train_txns: usize,
}

/// One pass as `Schism::run` makes it — split, build, partition, explain,
/// train-check, validate, and the freeing of what those built — each step
/// called from here with a span around it.
fn traced_pass(spec: &Spec, workload: &Workload, tracer: &Tracer, op_id: u64) -> Layers {
    let cfg = &spec.cfg;
    let root = tracer.reserve_id();
    let root_start = tracer.now_ns();
    let ctx = (op_id, root);
    trace::enter(ctx);
    let step = |name: &'static str, start_ns: u64| tracer.record(name, start_ns, ctx);

    let t = tracer.now_ns();
    let (train, test) = workload.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
    step("workload.split", t);

    sys::reset_peak_rss();
    let t = tracer.now_ns();
    let wg = build_graph(workload, &train, cfg);
    step("core.graph_builder.build", t);
    let build_peak_mib = sys::peak_rss_mib();

    sys::reset_peak_rss();
    let t = tracer.now_ns();
    let phase = run_partition_phase(&wg, cfg);
    step("core.partition_phase.partition", t);
    let partition_peak_mib = sys::peak_rss_mib();

    let t = tracer.now_ns();
    let mut explanation = explain(workload, &phase.assignment, &phase.access_counts, cfg);
    step("core.explain.explain", t);

    let t = tracer.now_ns();
    let lookup = build_lookup_scheme(workload, &train, &phase.assignment, cfg.k);
    let lookup_train = evaluate(&lookup, &train, &*workload.db).distributed_fraction();
    let range_train = evaluate(&explanation.scheme, &train, &*workload.db).distributed_fraction();
    explanation.trusted = range_train <= lookup_train * 1.5 + 0.02;
    step("router.evaluate", t);

    let t = tracer.now_ns();
    let mut candidates: Vec<(String, Box<dyn Scheme>)> =
        vec![("lookup-table".to_owned(), Box::new(lookup))];
    if explanation.trusted {
        candidates.push((
            "range-predicates".to_owned(),
            Box::new(explanation.scheme.clone()),
        ));
    }
    candidates.push((
        "hashing".to_owned(),
        Box::new(hash_on_frequent_attributes(workload, cfg.k)),
    ));
    candidates.push((
        "replication".to_owned(),
        Box::new(ReplicationScheme::new(cfg.k)),
    ));
    let validation = validate(candidates, &test, &*workload.db, cfg.selection);
    step("core.validate.validate", t);

    let fraction_of = |name: &str| {
        validation
            .candidates
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.fraction())
    };
    let mut layers = Layers {
        spans: Vec::new(),
        wall_s: 0.0,
        build_peak_mib,
        partition_peak_mib,
        rules: explanation
            .per_table
            .iter()
            .map(|t| t.rules_rendered.len())
            .sum(),
        trusted: explanation.trusted,
        chosen_fraction: validation.winner().fraction(),
        fractions: [
            fraction_of("lookup-table"),
            fraction_of("range-predicates"),
            fraction_of("hashing"),
        ],
        assignment_ok: assignment_in_range(&phase, cfg.k),
        cut: phase.edge_cut,
        imbalance: phase.imbalance,
        replicated_tuples: phase.replicated_tuples,
        build: wg.stats,
        train_txns: train.len(),
    };

    // `Schism::run` frees the graph, the assignment, the split traces and
    // the losing candidates before it returns; a pass that is to add up to
    // its wall time frees them inside a span too.
    let t = tracer.now_ns();
    drop((wg, phase, explanation, validation, train, test));
    step("advisor.teardown", t);

    trace::enter((0, 0));
    tracer.record_as(root, "advisor.pass", root_start, (op_id, 0));
    layers.wall_s = (tracer.now_ns() - root_start) as f64 / 1e9;
    layers.spans = tracer.spans();
    layers.spans.retain(|s| s.op_id == op_id);
    layers
}

/// The traced run: one warm-up, then untraced and traced passes taking
/// turns for the window, so tracing overhead and the span sum are both
/// judged against untraced passes of the same process.
pub fn run_traced(name: &str, spec: &Spec, opts: &RunOpts) -> (RunResult, Json) {
    let mut out = RunResult::new();
    let t0 = Instant::now();
    let workload = generate(spec, opts.seed);
    out.set("workload.generate_s", t0.elapsed().as_secs_f64());
    out.set("workload.txns", workload.trace.len() as f64);
    let accesses: usize = workload
        .trace
        .transactions
        .iter()
        .map(|t| t.num_accesses())
        .sum();
    out.set("workload.accesses", accesses as f64);
    describe(spec, &workload, opts, &mut out);

    let tracer = Tracer::new(1 << 12);
    let mut checks = Checks::new(spec, &workload);
    untraced_pass(spec, &workload, &mut checks, &mut out);

    let window = Instant::now();
    let mut plain = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    while traced.len() < 2 || window.elapsed().as_secs_f64() < opts.seconds {
        plain.push(untraced_pass(spec, &workload, &mut checks, &mut out).wall_s);
        let layers = traced_pass(spec, &workload, &tracer, checks.passes as u64 + 1);
        checks.pass(
            layers.assignment_ok,
            layers.imbalance,
            Fingerprint {
                distributed_fraction: layers.chosen_fraction,
                cut: layers.cut,
            },
            &mut out,
        );
        traced.push(layers);
    }

    let span_s = |layers: &Layers, name: &str| {
        layers
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
    };
    let med = |f: &dyn Fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let last = traced.last().expect("at least two traced passes");

    out.set(
        "core.graph_builder.build_s",
        med(&|l| span_s(l, "core.graph_builder.build")),
    );
    out.set("core.graph_builder.peak_mib", med(&|l| l.build_peak_mib));
    out.set("core.graph_builder.nodes", last.build.nodes as f64);
    out.set("core.graph_builder.edges", last.build.edges as f64);
    out.set("core.graph_builder.pins", last.build.pins as f64);
    out.set(
        "core.graph_builder.sampled_txns",
        last.build.sampled_txns as f64,
    );
    out.set(
        "core.graph_builder.dropped_scans",
        last.build.dropped_scans as f64,
    );
    out.set(
        "core.partition_phase.partition_s",
        med(&|l| span_s(l, "core.partition_phase.partition")),
    );
    out.set(
        "core.partition_phase.peak_mib",
        med(&|l| l.partition_peak_mib),
    );
    out.set("graph.cut", last.cut as f64);
    out.set("graph.imbalance", last.imbalance);
    out.set("graph.replicated_tuples", last.replicated_tuples as f64);
    out.set(
        "core.explain.explain_s",
        med(&|l| span_s(l, "core.explain.explain")),
    );
    out.set("core.explain.rules", last.rules as f64);
    out.set("core.explain.trusted", f64::from(u8::from(last.trusted)));
    let evaluate_s = med(&|l| span_s(l, "router.evaluate"));
    out.set("router.evaluate_s", evaluate_s);
    out.set(
        "router.evaluate_txns_s",
        2.0 * last.train_txns as f64 / evaluate_s,
    );
    out.set(
        "core.validate.validate_s",
        med(&|l| span_s(l, "core.validate.validate")),
    );
    out.set("core.validate.lookup_fraction", last.fractions[0]);
    out.set("core.validate.range_fraction", last.fractions[1]);
    out.set("core.validate.hash_fraction", last.fractions[2]);

    // Children of the pass span: everything but the root itself.
    let span_sum = med(&|l| {
        l.spans
            .iter()
            .filter(|s| s.parent != 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    });
    let plain_wall = median(&plain);
    out.set("advisor.span_sum_s", span_sum);
    out.set("advisor.span_sum_ratio", span_sum / plain_wall);
    out.set(
        "advisor.trace_overhead_pct",
        (med(&|l| l.wall_s) / plain_wall - 1.0) * 100.0,
    );
    out.note("traced_passes", Json::Int(traced.len() as i64));
    out.note("untraced_pass_wall_s", Json::Num(plain_wall));
    out.note(
        "cut_kind",
        Json::str(match spec.cfg.graph_backend {
            GraphBackend::Clique => "edge-cut",
            GraphBackend::Hypergraph => "sum(lambda-1)",
        }),
    );
    let trace_file = trace::to_json(name, &tracer.spans(), tracer.dropped());
    (out, trace_file)
}
