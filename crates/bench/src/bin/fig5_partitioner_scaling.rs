//! **Figure 5 + §6.2** — graph partitioner scalability: running time for a
//! growing number of partitions (2..=512) on the three evaluation graphs
//! of Table 1 (Epinions, TPC-C 50W, TPC-E), plus thread-scaling of the
//! parallel multilevel pipeline.
//!
//! The paper's observations to reproduce: partitioning time grows only
//! mildly with k but roughly linearly with the number of edges.
//!
//! ```text
//! cargo run --release -p schism-bench --bin fig5_partitioner_scaling \
//!     [--full] [--threads N] [--speedup-only] [--backend clique|hypergraph]
//! ```
//!
//! `--backend` selects the co-access representation the sweep partitions:
//! the default clique graph (edge-cut objective) or the one-net-per-
//! transaction hypergraph ((λ−1) connectivity objective). Each backend
//! records its thread-scaling run under its own section of
//! `crates/bench/BENCH_partition.json`, so the two can be compared
//! head-to-head; a run refreshes its own section and carries the other
//! over if it was measured on a host with as many cores.
//!
//! `--threads N` sizes the partitioner's worker pool for the k sweep
//! (0/absent = auto via `SCHISM_THREADS` or hardware) **and** enables the
//! thread-scaling measurement: the largest graph is partitioned at every
//! power-of-two thread count up to `N` (and at `N` itself), wall-clocks and
//! speedup ratios are printed, and the result is recorded together with the
//! host's core count
//! (speedups are only meaningful when the host actually has that many
//! cores). Partitions are asserted bit-identical across thread counts
//! while measuring — the determinism contract, enforced where the speedup
//! is claimed.
//!
//! `--speedup-only` skips the k sweep (CI smoke).

use schism_bench::table::Table;
use schism_core::{
    build_graph, run_partition_phase, CoAccess, GraphBackend, SchismConfig, WorkloadGraph,
};
use schism_workload::epinions::{self, EpinionsConfig};
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::tpce::{self, TpceConfig};

/// A built co-access representation plus the configuration that built it.
/// Both backends carry the same vertices and weights (the build invariant);
/// only the structure being cut — pairwise edges vs transaction nets —
/// differs, and `run_partition_phase` hands whichever was built to the one
/// multilevel driver.
struct Built {
    wg: WorkloadGraph,
    cfg: SchismConfig,
}

impl Built {
    /// Structure size: edges for the clique graph, pins for the hypergraph
    /// — the quantity partitioning time actually scales with.
    fn structure_size(&self) -> usize {
        match &self.wg.graph {
            CoAccess::Hyper(h) => h.num_pins(),
            CoAccess::Clique(g) => g.num_edges(),
        }
    }

    fn cut_metric(&self) -> &'static str {
        schism_bench::graph_backend_names(self.cfg.graph_backend).1
    }

    /// The partitioning phase at `k` parts on `threads` workers (default
    /// partitioner tuning, seed 0).
    fn partition(&self, k: u32, threads: usize) -> schism_core::PartitionPhase {
        let mut cfg = self.cfg.clone();
        cfg.k = k;
        cfg.threads = threads;
        run_partition_phase(&self.wg, &cfg)
    }
}

fn build(name: &str, full: bool, backend: GraphBackend) -> (String, Built) {
    let scale = |small: usize, paper: usize| if full { paper } else { small };
    let mut cfg = SchismConfig::new(2);
    cfg.graph_backend = backend;
    let (label, workload) = match name {
        "epinions" => {
            let w = epinions::generate(&EpinionsConfig {
                num_txns: scale(30_000, 100_000),
                ..Default::default()
            });
            ("epinions".to_string(), w)
        }
        "tpcc-50w" => {
            cfg.tuple_sample = 0.05;
            let w = tpcc::generate(&TpccConfig {
                num_txns: scale(40_000, 100_000),
                ..TpccConfig::full(50)
            });
            ("tpcc-50w (1% tuples)".to_string(), w)
        }
        "tpce" => {
            let w = tpce::generate(&TpceConfig {
                num_txns: scale(30_000, 100_000),
                ..TpceConfig::with_customers(1_000)
            });
            ("tpce".to_string(), w)
        }
        other => panic!("unknown graph {other}"),
    };
    let wg = build_graph(&workload, &workload.trace, &cfg);
    let structure = match &wg.graph {
        CoAccess::Hyper(h) => format!("{} nets / {} pins", h.num_nets(), h.num_pins()),
        CoAccess::Clique(g) => format!("{} edges", g.num_edges()),
    };
    (
        format!("{label}: {} nodes, {structure}", wg.num_nodes()),
        Built { wg, cfg },
    )
}

/// Partition the largest graph at every [`schism_bench::thread_counts`]
/// of `max_threads` and record wall-clocks + speedups. Panics if any
/// thread count changes the labels or cut — thread scaling is only worth
/// reporting if the determinism contract holds on the graph being timed.
/// Returns this backend's one-line section for BENCH_partition.json.
fn thread_scaling(built: &Built, label: &str, k: u32, max_threads: usize, full: bool) -> String {
    let counts = schism_bench::thread_counts(max_threads);
    let host_cores = schism_par::available_parallelism();
    println!("=== thread scaling on the largest graph ({label}), k={k} ===");
    println!("host cores: {host_cores}\n");

    let mut baseline: Option<(f64, schism_core::PartitionPhase)> = None;
    let mut rows: Vec<(usize, f64, f64)> = Vec::new(); // (threads, secs, speedup)
    let mut table = Table::new(&["threads", "wall (s)", "speedup", "cut"]);
    for &t in &counts {
        let p = built.partition(k, t);
        let dt = p.partition_time.as_secs_f64();
        let cut = p.edge_cut;
        match &baseline {
            None => baseline = Some((dt, p)),
            Some((_, base)) => {
                assert_eq!(
                    p.assignment, base.assignment,
                    "threads={t} changed partition labels — determinism contract broken"
                );
                assert_eq!(cut, base.edge_cut, "threads={t} changed the cut");
            }
        }
        let speedup = baseline.as_ref().unwrap().0 / dt.max(1e-9);
        rows.push((t, dt, speedup));
        table.row(vec![
            format!("{t}"),
            format!("{dt:.2}"),
            format!("{speedup:.2}x"),
            format!("{cut}"),
        ]);
    }
    println!("{}", table.render());
    let note = schism_bench::host_note(host_cores, max_threads);

    let entries: Vec<String> = rows
        .iter()
        .map(|(t, dt, sp)| {
            format!("{{ \"threads\": {t}, \"wall_s\": {dt:.3}, \"speedup_vs_1\": {sp:.3} }}")
        })
        .collect();
    format!(
        "{{ \"graph\": \"{label}\", \"nodes\": {nodes}, \"structure_size\": {size}, \
         \"cut_metric\": \"{metric}\", \"cut\": {cut}, \"k\": {k}, \"full\": {full}, \
         \"threads\": {max_threads}, \"note\": \"{note}\", \
         \"deterministic_across_threads\": true, \"runs\": [{runs}] }}",
        nodes = built.wg.num_nodes(),
        size = built.structure_size(),
        metric = built.cut_metric(),
        cut = baseline.as_ref().unwrap().1.edge_cut,
        runs = entries.join(", "),
    )
}

fn main() {
    schism_bench::reject_unknown_args(&["--full", "--threads", "--speedup-only", "--backend"]);
    let full = schism_bench::full_scale();
    let threads: usize = schism_bench::arg_value("--threads")
        .map(|v| v.parse().expect("--threads takes a non-negative integer"))
        .unwrap_or(0);
    let speedup_only = schism_bench::flag("--speedup-only");
    let backend = schism_bench::graph_backend_arg();
    let (backend_name, _) = schism_bench::graph_backend_names(backend);

    // The k sweep needs all three evaluation graphs; the thread-scaling
    // measurement only times the largest (tpce), so the smoke path skips
    // the other two builds.
    let names: &[&str] = if speedup_only {
        &["tpce"]
    } else {
        &["epinions", "tpcc-50w", "tpce"]
    };
    let graphs: Vec<(String, Built)> = names.iter().map(|n| build(n, full, backend)).collect();
    println!("backend: {backend_name}");
    for (label, _) in &graphs {
        println!("graph {label}");
    }
    println!();

    if !speedup_only {
        println!("=== Figure 5: partitioning time vs number of partitions ===\n");
        let ks = [2u32, 4, 8, 16, 32, 64, 128, 256, 512];
        let mut table = Table::new(&["k", "epinions (s)", "tpcc-50w (s)", "tpce (s)"]);
        let mut rows: Vec<Vec<String>> = ks.iter().map(|k| vec![k.to_string()]).collect();
        for (_, built) in &graphs {
            for (i, &k) in ks.iter().enumerate() {
                let p = built.partition(k, threads);
                let dt = p.partition_time.as_secs_f64();
                rows[i].push(format!("{dt:.2}"));
                eprintln!(
                    "[fig5] k={k}: {dt:.2}s {}={} imbalance={:.3}",
                    built.cut_metric(),
                    p.edge_cut,
                    p.imbalance
                );
            }
        }
        for r in rows {
            table.row(r);
        }
        println!("{}", table.render());
        println!("paper: time grows slightly with k (2..512 spans ~2-4x) and roughly");
        println!("       linearly with graph size; largest graph partitions in tens of seconds.");
        println!();
    }

    // Thread scaling on the largest graph (by structure size), recorded to
    // BENCH_partition.json. Opt-in via `--threads N` (or `--speedup-only`)
    // so a plain Figure-5 reproduction never overwrites the committed
    // record as a side effect.
    if threads > 1 || speedup_only {
        let (label, built) = graphs
            .iter()
            .max_by_key(|(_, b)| b.structure_size())
            .expect("at least one graph");
        let max_threads = schism_par::resolve_threads(threads).max(2);
        let section = thread_scaling(built, label, 8, max_threads, full);
        // One section per backend; the one not measured is carried over.
        schism_bench::write_sections(
            "BENCH_partition.json",
            "fig5_partitioner_scaling",
            &["clique", "hypergraph"],
            &[(backend_name, section)],
        );
    }
}
