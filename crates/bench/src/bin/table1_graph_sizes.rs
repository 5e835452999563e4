//! **Table 1 + §6.2** — graph sizes for the three largest evaluation
//! datasets: tuples in the database, transactions in the trace, and
//! resulting graph nodes/edges (after the §5.1 heuristics) — plus
//! thread-scaling of the streaming parallel graph build.
//!
//! ```text
//! cargo run --release -p schism-bench --bin table1_graph_sizes \
//!     [--full] [--threads N] [--scaling-only] \
//!     [--huge [--smoke] [--backend clique|hypergraph]] \
//!     [--backends [--smoke]]
//! ```
//!
//! `--threads N` (any `N >= 1`) sizes the builder's worker pool for the
//! size table **and** enables the thread-scaling measurement: the largest
//! trace (TPC-C 50W) is ingested at every power-of-two thread count up to
//! `N`, plus `N` itself when it is not one — asserting the built graphs
//! bit-identical via [`schism_core::WorkloadGraph::digest`] while timing —
//! plus once more through the chunked streaming source (`tpcc::stream`).
//!
//! `--scaling-only` skips the other two dataset builds (CI smoke).
//!
//! `--huge` runs the fixed-memory stress: a **1e8-access** drifting trace
//! is streamed end to end — graph build (`build_graph_source`, never a
//! materialized `Trace`), partition phase, and a sketched drift check that
//! a rotated window must trigger and a resampled one must not —
//! while peak RSS (`VmHWM`) is asserted under a hard ceiling. `--smoke`
//! scales it down 100x (~1e6 accesses, CI-sized) and additionally
//! round-trips a statement-retaining trace through `render_log` →
//! `SqlLogSource`, asserting the streamed-SQL graph digest matches the
//! in-memory build. `--backend hypergraph` runs the same stress through
//! the net-per-transaction hypergraph backend (recorded as its own
//! `"huge_hyper"` section, so the clique record survives).
//!
//! `--backends` is the head-to-head backend comparison: for each of
//! tpcc-wide / ycsb-e / drifting, a **fresh subprocess per (workload,
//! backend) pair** builds the graph and partitions it with per-phase peak
//! RSS isolated via `clear_refs` resets, then scores the placement's
//! distributed-transaction fraction on the full trace. Both backends run
//! blanket-filter-free (`blanket_threshold = MAX`) so coverage is equal:
//! the clique pays O(width²) edges for every wide transaction, the
//! hypergraph O(width) pins. On tpcc-wide the run *asserts* the hypergraph
//! build peaks strictly lower than the clique build and that its
//! distributed fraction is no worse. `--smoke` scales the traces down
//! (CI-sized).
//!
//! Results land in `crates/bench/BENCH_graph.json` as independent
//! `"scaling"` / `"huge"` / `"huge_hyper"` / `"backends"` sections (a run
//! refreshes its own section and carries the others over only from a file
//! measured on a host with as many cores), together with the host's core
//! count — speedups are only meaningful when the host actually has that
//! many cores; past them a run measures oversubscription, not scaling, and
//! the JSON says so. `--smoke` runs record nothing.

use schism_bench::table::Table;
use schism_core::{GraphBackend, SchismConfig};
use schism_migrate::{
    distributed_fraction, DistanceMetric, DriftReport, SketchConfig, SketchHistogram,
};
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::epinions::{self, EpinionsConfig};
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::tpce::{self, TpceConfig};
use schism_workload::ycsb::{self, YcsbConfig};
use schism_workload::{render_log, SqlLogSource, TraceSource, Workload};
use std::sync::Arc;
use std::time::Instant;

struct Row<'a> {
    name: &'static str,
    paper: (&'static str, &'static str, &'static str, &'static str),
    workload: &'a Workload,
    cfg: SchismConfig,
}

/// The TPC-C 50W configuration (the largest trace; what the thread-scaling
/// measurement ingests).
fn tpcc_cfg(full: bool) -> TpccConfig {
    TpccConfig {
        num_txns: if full { 100_000 } else { 40_000 },
        ..TpccConfig::full(50)
    }
}

/// Ingest the largest trace at 1, 2, 4, ..., `max_threads` (powers of two,
/// plus `max_threads` itself when it is not one) and through the chunked
/// streaming source, asserting every build digests identically. Returns
/// the `"scaling"` section for BENCH_graph.json.
fn thread_scaling(w: &Workload, wcfg: &TpccConfig, full: bool, max_threads: usize) -> String {
    let counts = schism_bench::thread_counts(max_threads);
    let host_cores = schism_par::available_parallelism();

    let mut cfg = SchismConfig::new(10);
    cfg.tuple_sample = 0.05;
    println!(
        "=== graph-build thread scaling on the largest trace (tpcc-50w, {} txns) ===",
        w.trace.len()
    );
    println!("host cores: {host_cores}\n");

    let mut baseline: Option<(f64, u64)> = None;
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    let mut table = Table::new(&[
        "ingestion",
        "threads",
        "wall (s)",
        "speedup",
        "nodes",
        "edges",
    ]);
    let mut stats = None;
    for &t in &counts {
        cfg.threads = t;
        let t0 = Instant::now();
        let wg = schism_core::build_graph(w, &w.trace, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        match &baseline {
            None => baseline = Some((dt, wg.digest())),
            Some((_, digest)) => assert_eq!(
                wg.digest(),
                *digest,
                "threads={t} changed the workload graph — determinism contract broken"
            ),
        }
        let speedup = baseline.as_ref().unwrap().0 / dt.max(1e-9);
        rows.push((format!("whole/{t}"), dt, speedup));
        table.row(vec![
            "whole-trace".into(),
            t.to_string(),
            format!("{dt:.2}"),
            format!("{speedup:.2}x"),
            wg.stats.nodes.to_string(),
            wg.stats.edges.to_string(),
        ]);
        stats = Some(wg.stats);
    }

    // Chunked ingestion through the scripted streaming source, at the full
    // budget: same graph, no materialized trace.
    cfg.threads = max_threads;
    let src = tpcc::stream(wcfg);
    let t0 = Instant::now();
    let wg = schism_core::build_graph_source(&src, &cfg);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(
        wg.digest(),
        baseline.as_ref().unwrap().1,
        "chunked streaming ingestion changed the workload graph"
    );
    let speedup = baseline.as_ref().unwrap().0 / dt.max(1e-9);
    rows.push((format!("streamed/{max_threads}"), dt, speedup));
    table.row(vec![
        "streamed".into(),
        max_threads.to_string(),
        format!("{dt:.2}"),
        format!("{speedup:.2}x"),
        wg.stats.nodes.to_string(),
        wg.stats.edges.to_string(),
    ]);
    println!("{}", table.render());
    let note = schism_bench::host_note(host_cores, max_threads);

    let entries: Vec<String> = rows
        .iter()
        .map(|(label, dt, sp)| {
            format!("{{ \"run\": \"{label}\", \"wall_s\": {dt:.3}, \"speedup_vs_1\": {sp:.3} }}")
        })
        .collect();
    let stats = stats.expect("at least one build ran");
    format!(
        "{{ \"threads\": {max_threads}, \"workload\": \"tpcc-50w (5% tuples)\", \
         \"txns\": {txns}, \"nodes\": {nodes}, \"edges\": {edges}, \"full\": {full}, \
         \"note\": \"{note}\", \"deterministic_across_threads\": true, \
         \"chunked_equals_whole\": true, \"runs\": [{runs}] }}",
        txns = w.trace.len(),
        nodes = stats.nodes,
        edges = stats.edges,
        runs = entries.join(", "),
    )
}

/// The `--huge` drifting configuration: ~3 accesses per transaction, so
/// `num_txns` of 33.34M yields ~1e8 accesses over a 1.6M-key space (100k
/// co-access blocks). `--smoke` scales both down 100x (~1e6 accesses).
fn huge_cfg(smoke: bool) -> DriftingConfig {
    let scale: u64 = if smoke { 1 } else { 100 };
    let records = 16_000 * scale;
    let block_span = 16;
    DriftingConfig {
        records,
        block_span,
        num_txns: (333_400 * scale) as usize,
        // One window of drift rotates the hot spot by 10% of the keyspace.
        drift_blocks_per_window: records / block_span / 10,
        hot_offset: 0,
        seed: 42,
        keep_statements: false,
    }
}

/// End-to-end fixed-memory stress: streamed build → partition → sketched
/// drift window, with peak RSS asserted under `ceiling_mib`. Returns the
/// `"huge"` (clique) or `"huge_hyper"` (hypergraph) section for
/// BENCH_graph.json.
fn huge(smoke: bool, threads: usize, backend: GraphBackend) -> String {
    let wcfg = huge_cfg(smoke);
    // The peak-RSS ceiling the run must stay under: ~2x the measured
    // high-water mark (788 MiB full, 18 MiB smoke — the smoke floor is
    // dominated by what a materialized 1e6-access trace would cost), so a
    // real memory regression (an accidentally materialized trace, replica
    // star explosion sneaking back in) trips the assert while allocator
    // jitter does not.
    let ceiling_mib: u64 = if smoke { 128 } else { 2_048 };

    let src = drifting::stream(&wcfg);
    let mut cfg = SchismConfig::new(8);
    cfg.threads = threads;
    cfg.graph_backend = backend;
    // Replication's star explosion allocates replica nodes proportional to
    // each hot group's *access count* — O(accesses) memory on a Zipfian
    // trace, exactly what a fixed-memory run must exclude. The paper's
    // levers for this scale (§5.1) are sampling/filtering, not replication.
    cfg.replication = false;
    let (backend_name, cut_metric) = schism_bench::graph_backend_names(backend);

    println!(
        "=== --huge{}: streamed drifting trace, {} txns over {} keys, {} thread(s), {backend_name} backend ===",
        if smoke { " --smoke" } else { "" },
        wcfg.num_txns,
        wcfg.records,
        threads,
    );
    let t0 = Instant::now();
    let wg = schism_core::build_graph_source(&src, &cfg);
    let build_s = t0.elapsed().as_secs_f64();
    let accesses: u64 = wg.tuple_access_counts().map(|(_, c)| c as u64).sum();
    let structure = match backend {
        GraphBackend::Clique => format!("{} edges", wg.stats.edges),
        GraphBackend::Hypergraph => format!(
            "{} nets / {} pins (widest txn {})",
            wg.stats.hyperedges, wg.stats.pins, wg.stats.widest_txn
        ),
    };
    println!(
        "build: {build_s:.1}s, {accesses} accesses -> {} nodes / {structure}",
        wg.stats.nodes
    );

    let t0 = Instant::now();
    let phase = schism_core::run_partition_phase(&wg, &cfg);
    let partition_s = t0.elapsed().as_secs_f64();
    println!(
        "partition: {partition_s:.1}s, edge cut {} (imbalance {:.3})",
        phase.edge_cut, phase.imbalance
    );

    // Drift check on sketched (fixed-memory) histograms: a fresh window
    // with the hot spot rotated one drift step must trigger against a
    // reference window of the built distribution, and a fresh window of
    // the same distribution (another seed, no rotation) must not.
    let window_txns = wcfg.num_txns / 33;
    let reference = drifting::stream(&DriftingConfig {
        num_txns: window_txns,
        ..wcfg.clone()
    });
    let observed = drifting::stream(&DriftingConfig {
        num_txns: window_txns,
        hot_offset: wcfg.drift_blocks_per_window,
        seed: wcfg.seed ^ 0xD1F7,
        ..wcfg.clone()
    });
    // At full scale the theta=0.9 Zipfian over 100k blocks is flat enough
    // that the default 1024-entry reservoir covers only ~16% of the access
    // mass — a fully rotated hot set then scores barely over threshold.
    // 8192 heavy hitters (~top-512 blocks, ~40% of mass) keep the trigger
    // margin comfortable at a still-fixed ~1 MiB of sketch.
    let scfg = if smoke {
        SketchConfig::default()
    } else {
        SketchConfig {
            width: 1 << 15,
            depth: 4,
            heavy_hitters: 8192,
        }
    };
    let t0 = Instant::now();
    let reference = SketchHistogram::from_source(scfg, &reference);
    let distance = SketchHistogram::from_source(scfg, &observed)
        .distance(&reference, DistanceMetric::TotalVariation);
    let report = DriftReport::new(distance, observed.len());
    let drift_s = t0.elapsed().as_secs_f64();
    println!(
        "drift window ({window_txns} txns): {drift_s:.1}s, TV distance {:.3} -> drifted={}",
        report.distance, report.drifted
    );
    assert!(
        report.drifted,
        "rotated hot spot must trigger on the sketched histograms (TV {:.3})",
        report.distance
    );
    let resampled = drifting::stream(&DriftingConfig {
        num_txns: window_txns,
        seed: wcfg.seed ^ 0x5A3E,
        ..wcfg.clone()
    });
    let noise = SketchHistogram::from_source(scfg, &resampled)
        .distance(&reference, DistanceMetric::TotalVariation);
    let quiet = DriftReport::new(noise, resampled.len());
    println!(
        "same-distribution window ({window_txns} txns): TV distance {:.3} -> drifted={}",
        quiet.distance, quiet.drifted
    );
    assert!(
        !quiet.drifted,
        "a resampled window of the same distribution must not trigger (TV {:.3})",
        quiet.distance
    );

    if smoke {
        sqllog_round_trip(threads);
    }

    let peak = schism_bench::peak_rss_bytes().expect("VmHWM in /proc/self/status");
    let peak_mib = peak / (1 << 20);
    println!("peak RSS: {peak_mib} MiB (ceiling {ceiling_mib} MiB)");
    assert!(
        peak_mib <= ceiling_mib,
        "peak RSS {peak_mib} MiB exceeds the fixed-memory ceiling {ceiling_mib} MiB"
    );

    format!(
        "{{ \"workload\": \"ycsb-drift streamed\", \"smoke\": {smoke}, \
         \"backend\": \"{backend_name}\", \
         \"records\": {records}, \"txns\": {txns}, \"accesses\": {accesses}, \
         \"threads\": {threads}, \"replication\": false, \
         \"nodes\": {nodes}, \"edges\": {edges}, \"hyperedges\": {hyperedges}, \
         \"pins\": {pins}, \"widest_txn\": {widest}, \
         \"build_wall_s\": {build_s:.1}, \"partition_wall_s\": {partition_s:.1}, \
         \"drift_wall_s\": {drift_s:.1}, \"cut_metric\": \"{cut_metric}\", \
         \"cut\": {cut}, \
         \"drift_tv\": {tv:.3}, \"drifted\": true, \"window_txns\": {window_txns}, \
         \"peak_rss_mib\": {peak_mib}, \"rss_ceiling_mib\": {ceiling_mib} }}",
        records = wcfg.records,
        txns = wcfg.num_txns,
        nodes = wg.stats.nodes,
        edges = wg.stats.edges,
        hyperedges = wg.stats.hyperedges,
        pins = wg.stats.pins,
        widest = wg.stats.widest_txn,
        cut = phase.edge_cut,
        tv = report.distance,
    )
}

/// Streams a statement-retaining drifting trace through `render_log` →
/// [`SqlLogSource`] and asserts the SQL-text path builds the bit-identical
/// graph (same digest) as the in-memory trace.
fn sqllog_round_trip(threads: usize) {
    let w = drifting::generate(&DriftingConfig {
        num_txns: 2_000,
        keep_statements: true,
        ..DriftingConfig::default()
    });
    let log = render_log(&w.schema, &w.trace);
    let src = SqlLogSource::from_string(Arc::clone(&w.schema), log).expect("rendered log parses");
    assert_eq!(src.len(), w.trace.len());
    let mut cfg = SchismConfig::new(4);
    cfg.threads = threads;
    let from_trace = schism_core::build_graph(&w, &w.trace, &cfg);
    let from_sql = schism_core::build_graph_source(&src, &cfg);
    assert_eq!(
        from_sql.digest(),
        from_trace.digest(),
        "SQL-log streaming ingestion changed the workload graph"
    );
    println!(
        "sql-log round trip: {} txns re-ingested from SQL text, digests match",
        src.len()
    );
}

/// Writes the section this run measured into BENCH_graph.json.
fn write_bench_json(name: &str, section: String) {
    schism_bench::write_sections(
        "BENCH_graph.json",
        "table1_graph_sizes",
        &["scaling", "huge", "huge_hyper", "backends"],
        &[(name, section)],
    );
}

/// One `--probe` subprocess: build + partition + placement scoring for a
/// single (workload, backend) pair, with per-phase peak RSS isolated by
/// resetting the `VmHWM` high-water mark between phases. A fresh process
/// per pair keeps the high-water mark honest — nothing a previous build
/// allocated can mask this one's peak. Emits one `PROBE_JSON {...}` line
/// on stdout for the `--backends` parent to collect.
fn probe(name: &str, backend: GraphBackend, smoke: bool, threads: usize) {
    let k = 8u32;
    let w = match name {
        // TPC-C with its wide stock-level scans (several hundred tuples per
        // transaction): the clique's quadratic case.
        "tpcc-wide" => tpcc::generate(&TpccConfig {
            num_txns: if smoke { 8_000 } else { 20_000 },
            ..TpccConfig::full(50)
        }),
        // YCSB-E with long range scans — mid-width transactions.
        "ycsb-e" => ycsb::generate(&YcsbConfig {
            records: if smoke { 5_000 } else { 50_000 },
            num_txns: if smoke { 10_000 } else { 50_000 },
            scan_max: 64,
            ..YcsbConfig::workload_e()
        }),
        // Drifting point-access trace (~3 tuples per transaction): the
        // parity case where the two representations nearly coincide.
        "drifting" => drifting::generate(&DriftingConfig {
            num_txns: if smoke { 20_000 } else { 200_000 },
            ..Default::default()
        }),
        other => panic!("unknown probe workload {other}"),
    };
    let mut cfg = SchismConfig::new(k);
    cfg.threads = threads;
    cfg.graph_backend = backend;
    // Equal, blanket-filter-free coverage on both backends: no scan is
    // dropped, so the clique pays the full O(width^2) edges for every wide
    // transaction while the hypergraph pays O(width) pins for the same
    // transactions.
    cfg.blanket_threshold = usize::MAX;
    // Keep the peak-RSS attribution on the co-access structure itself;
    // replica stars would add identical 2-pin structure on both backends.
    cfg.replication = false;

    let peak_reset = schism_bench::reset_peak_rss();
    let t0 = Instant::now();
    let wg = schism_core::build_graph(&w, &w.trace, &cfg);
    let build_s = t0.elapsed().as_secs_f64();
    let build_peak_mib = peak_mib_now();

    schism_bench::reset_peak_rss();
    let t0 = Instant::now();
    let phase = schism_core::run_partition_phase(&wg, &cfg);
    let partition_s = t0.elapsed().as_secs_f64();
    let partition_peak_mib = peak_mib_now();

    // Score the placement the way the paper does (§6.1): fraction of the
    // trace's transactions that span more than one partition under the
    // resulting routing scheme.
    let frac = distributed_fraction(&w, &w.trace, &w.trace, &phase.assignment, k);

    let (backend_name, cut_metric) = schism_bench::graph_backend_names(backend);
    println!(
        "PROBE_JSON {{ \"workload\": \"{name}\", \"backend\": \"{backend_name}\", \
         \"txns\": {txns}, \"nodes\": {nodes}, \"edges\": {edges}, \
         \"hyperedges\": {hyperedges}, \"pins\": {pins}, \"widest_txn\": {widest}, \
         \"build_s\": {build_s:.2}, \"partition_s\": {partition_s:.2}, \
         \"build_peak_mib\": {build_peak_mib:.1}, \
         \"partition_peak_mib\": {partition_peak_mib:.1}, \"peak_reset\": {peak_reset}, \
         \"cut_metric\": \"{cut_metric}\", \"cut\": {cut}, \"imbalance\": {imb:.3}, \
         \"distributed_fraction\": {frac:.4} }}",
        txns = w.trace.len(),
        nodes = wg.stats.nodes,
        edges = wg.stats.edges,
        hyperedges = wg.stats.hyperedges,
        pins = wg.stats.pins,
        widest = wg.stats.widest_txn,
        cut = phase.edge_cut,
        imb = phase.imbalance,
    );
}

/// Current `VmHWM` in MiB (fractional), or -1.0 where procfs is missing.
fn peak_mib_now() -> f64 {
    schism_bench::peak_rss_bytes().map_or(-1.0, |b| b as f64 / f64::from(1u32 << 20))
}

/// The `--backends` head-to-head: spawn one probe subprocess per
/// (workload, backend) pair, collect the `PROBE_JSON` rows, assert the
/// acceptance criteria on the wide-transaction TPC-C pair, and return the
/// `"backends"` section for BENCH_graph.json.
fn backends_compare(smoke: bool, threads: usize) -> String {
    let exe = std::env::current_exe().expect("current exe");
    let mut rows: Vec<String> = Vec::new();
    println!(
        "=== backend head-to-head{}: clique vs hypergraph, k=8, blanket-free ===\n",
        if smoke { " --smoke" } else { "" }
    );
    for wname in ["tpcc-wide", "ycsb-e", "drifting"] {
        let mut pair: Vec<String> = Vec::new();
        for b in ["clique", "hypergraph"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--probe", wname, "--backend", b, "--threads"])
                .arg(threads.to_string());
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("spawn probe subprocess");
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            assert!(
                out.status.success(),
                "probe {wname}/{b} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let frag = stdout
                .lines()
                .find_map(|l| l.strip_prefix("PROBE_JSON "))
                .unwrap_or_else(|| panic!("probe {wname}/{b} emitted no PROBE_JSON line"))
                .to_string();
            pair.push(frag);
        }
        let (clique, hyper) = (&pair[0], &pair[1]);
        let num = |frag: &str, key: &str| {
            schism_bench::json_num(frag, key)
                .unwrap_or_else(|| panic!("probe row missing \"{key}\": {frag}"))
        };
        let (c_peak, h_peak) = (num(clique, "build_peak_mib"), num(hyper, "build_peak_mib"));
        let (c_frac, h_frac) = (
            num(clique, "distributed_fraction"),
            num(hyper, "distributed_fraction"),
        );
        println!(
            "{wname}: build peak {c_peak:.1} MiB (clique) vs {h_peak:.1} MiB (hypergraph); \
             distributed {:.2}% vs {:.2}%\n",
            c_frac * 100.0,
            h_frac * 100.0
        );
        if wname == "tpcc-wide" {
            let reset_ok =
                clique.contains("\"peak_reset\": true") && hyper.contains("\"peak_reset\": true");
            assert!(
                reset_ok,
                "VmHWM reset unavailable: per-phase peaks are whole-process bounds, \
                 the strict comparison would be meaningless"
            );
            assert!(
                h_peak < c_peak,
                "hypergraph build peak {h_peak:.1} MiB must be strictly below the clique's \
                 {c_peak:.1} MiB on wide-transaction TPC-C"
            );
            assert!(
                h_frac <= c_frac + 1e-9,
                "hypergraph distributed fraction {h_frac:.4} must be no worse than the \
                 clique's {c_frac:.4} at the same k"
            );
        }
        rows.extend(pair);
    }
    format!(
        "{{ \"smoke\": {smoke}, \"threads\": {threads}, \"k\": 8, \"replication\": false, \
         \"blanket_free\": true, \"rows\": [{}] }}",
        rows.join(", ")
    )
}

fn main() {
    schism_bench::reject_unknown_args(&[
        "--full",
        "--threads",
        "--scaling-only",
        "--probe",
        "--backend",
        "--smoke",
        "--backends",
        "--huge",
    ]);
    let full = schism_bench::full_scale();
    let threads: usize = schism_bench::arg_value("--threads")
        .map(|v| v.parse().expect("--threads takes a non-negative integer"))
        .unwrap_or(0);
    let scaling_only = schism_bench::flag("--scaling-only");
    let scale = |small: usize, paper: usize| if full { paper } else { small };

    // A `--probe` child of the `--backends` comparison: one (workload,
    // backend) measurement in a fresh process, then exit.
    if let Some(wname) = schism_bench::arg_value("--probe") {
        probe(
            &wname,
            schism_bench::graph_backend_arg(),
            schism_bench::flag("--smoke"),
            schism_par::resolve_threads(threads),
        );
        return;
    }

    // The backend head-to-head, recorded as the `"backends"` section. The
    // smoke run still *asserts* (the criteria hold at CI scale too) but
    // records nothing: its numbers are not the full-scale measurement.
    if schism_bench::flag("--backends") {
        let smoke = schism_bench::flag("--smoke");
        let section = backends_compare(smoke, schism_par::resolve_threads(threads));
        if !smoke {
            write_bench_json("backends", section);
        }
        return;
    }

    // The fixed-memory stress replaces the Table-1 / scaling runs: it is a
    // different measurement with its own BENCH_graph.json section (one per
    // backend, so the records can sit side by side).
    if schism_bench::flag("--huge") {
        let smoke = schism_bench::flag("--smoke");
        let backend = schism_bench::graph_backend_arg();
        let section = huge(smoke, schism_par::resolve_threads(threads), backend);
        let name = match backend {
            GraphBackend::Clique => "huge",
            GraphBackend::Hypergraph => "huge_hyper",
        };
        // A smoke run validates the path and records nothing: its
        // 1e6-sized numbers are not the 1e8 measurement.
        if !smoke {
            write_bench_json(name, section);
        }
        return;
    }

    // The largest trace; shared by the Table-1 row and the thread-scaling
    // measurement so the most expensive generation runs once.
    let tpcc_wcfg = tpcc_cfg(full);
    let tpcc_w = tpcc::generate(&tpcc_wcfg);

    if !scaling_only {
        println!("=== Table 1: graph sizes ===");
        println!("(paper columns in parentheses; our datasets are scaled-down substitutions,");
        println!(" so absolute sizes differ while node/edge-per-transaction ratios match)\n");

        let epinions_w = epinions::generate(&EpinionsConfig {
            num_txns: scale(30_000, 100_000),
            ..Default::default()
        });
        let tpce_w = tpce::generate(&TpceConfig {
            num_txns: scale(30_000, 100_000),
            ..TpceConfig::with_customers(1_000)
        });
        let tpcc_row_cfg = {
            let mut cfg = SchismConfig::new(10);
            cfg.tuple_sample = 0.05;
            cfg
        };
        let rows = vec![
            Row {
                name: "epinions",
                paper: ("2.5M", "100k", "0.6M", "5M"),
                workload: &epinions_w,
                cfg: SchismConfig::new(2),
            },
            Row {
                name: "tpcc-50w",
                paper: ("25.0M", "100k", "2.5M", "65M"),
                workload: &tpcc_w,
                cfg: tpcc_row_cfg,
            },
            Row {
                name: "tpce",
                paper: ("2.0M", "100k", "3.0M", "100M"),
                workload: &tpce_w,
                cfg: SchismConfig::new(2),
            },
        ];

        let mut table = Table::new(&[
            "dataset", "tuples", "(paper)", "txns", "(paper)", "nodes", "(paper)", "edges",
            "(paper)",
        ]);
        for row in rows {
            let mut cfg = row.cfg;
            cfg.threads = threads;
            let wg = schism_core::build_graph(row.workload, &row.workload.trace, &cfg);
            table.row(vec![
                row.name.to_string(),
                human(row.workload.total_tuples()),
                row.paper.0.to_string(),
                human(row.workload.trace.len() as u64),
                row.paper.1.to_string(),
                human(wg.stats.nodes as u64),
                row.paper.2.to_string(),
                human(wg.stats.edges as u64),
                row.paper.3.to_string(),
            ]);
        }
        println!("{}", table.render());
    }

    // Thread scaling on the largest trace, recorded to BENCH_graph.json.
    // Opt-in via `--threads N` (any N >= 1; a 1-thread record is a valid
    // single-run baseline) or `--scaling-only`, so a plain Table-1
    // reproduction never overwrites the committed record as a side effect.
    if threads > 0 || scaling_only {
        let max_threads = schism_par::resolve_threads(threads);
        let section = thread_scaling(&tpcc_w, &tpcc_wcfg, full, max_threads);
        write_bench_json("scaling", section);
    }
}

fn human(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}
