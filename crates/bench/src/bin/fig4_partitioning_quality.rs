//! **Figure 4 + §6.1** — Schism partitioning performance on the nine
//! evaluation workloads, against the manual, full-replication, and
//! hash-partitioning baselines, measured as % distributed transactions on
//! a held-out test trace.
//!
//! ```text
//! cargo run --release -p schism-bench --bin fig4_partitioning_quality \
//!     [--full] [--backend clique|hypergraph]
//! ```
//!
//! `--full` uses paper-scale trace sizes (slower; same shapes).
//! `--backend` picks the co-access representation every experiment
//! partitions (default `clique`); the per-run `cut` is that backend's own
//! metric, which stderr names.

use schism_bench::manual::{ManualEpinions, ManualTpcc};
use schism_bench::table::Table;
use schism_bench::{paper_row, PAPER_FIG4};
use schism_core::{Schism, SchismConfig};
use schism_router::{evaluate, HashScheme, Scheme};
use schism_workload::epinions::{self, EpinionsConfig};
use schism_workload::random::{self, RandomConfig};
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::tpce::{self, TpceConfig};
use schism_workload::ycsb::{self, YcsbConfig};
use schism_workload::Workload;

struct Experiment {
    name: &'static str,
    workload: Workload,
    cfg: SchismConfig,
    manual: Option<Box<dyn Scheme>>,
}

fn experiments(full: bool) -> Vec<Experiment> {
    let mut out = Vec::new();
    let scale = |small: usize, paper: usize| if full { paper } else { small };

    // --- YCSB-A: 100k tuples, 10k transactions (paper-scale already). ---
    {
        let w = ycsb::generate(&YcsbConfig::workload_a());
        let cfg = SchismConfig::new(2);
        out.push(Experiment {
            name: "ycsb-a",
            manual: Some(Box::new(HashScheme::by_row_id(2))),
            workload: w,
            cfg,
        });
    }
    // --- YCSB-E: scans defeat hashing; manual = equal range stripes. ---
    {
        let w = ycsb::generate(&YcsbConfig::workload_e());
        let cfg = SchismConfig::new(2);
        let records = w.rows(0);
        out.push(Experiment {
            name: "ycsb-e",
            manual: Some(Box::new(stripes_scheme(records, 2))),
            workload: w,
            cfg,
        });
    }
    // --- TPC-C 2W. ---
    {
        let tcfg = TpccConfig {
            num_txns: scale(30_000, 100_000),
            ..TpccConfig::full(2)
        };
        let w = tpcc::generate(&tcfg);
        let cfg = SchismConfig::new(2);
        out.push(Experiment {
            name: "tpcc-2w",
            manual: Some(Box::new(ManualTpcc::new(tcfg, 2))),
            workload: w,
            cfg,
        });
    }
    // --- TPC-C 2W, stress-tested sampling (§6.1: 20k txns, ~3% of
    //     tuples, <=250 training tuples per table). ---
    {
        let tcfg = TpccConfig {
            num_txns: 20_000,
            ..TpccConfig::full(2)
        };
        let w = tpcc::generate(&tcfg);
        let mut cfg = SchismConfig::new(2);
        cfg.tuple_sample = 0.03;
        cfg.explain_sample_per_table = 250;
        out.push(Experiment {
            name: "tpcc-2w-sampled",
            manual: Some(Box::new(ManualTpcc::new(tcfg, 2))),
            workload: w,
            cfg,
        });
    }
    // --- TPC-C 50W / 10 partitions, 1% tuple sampling. ---
    {
        let tcfg = TpccConfig {
            num_txns: scale(60_000, 150_000),
            ..TpccConfig::full(50)
        };
        let w = tpcc::generate(&tcfg);
        let mut cfg = SchismConfig::new(10);
        // Our tuple sampling is access-weighted (see DESIGN.md), so 5%
        // here corresponds to a coverage in the ballpark of the paper's 1%
        // uniform sample.
        cfg.tuple_sample = 0.05;
        cfg.partitioner.ncuts = 4;
        out.push(Experiment {
            name: "tpcc-50w",
            manual: Some(Box::new(ManualTpcc::new(tcfg, 10))),
            workload: w,
            cfg,
        });
    }
    // --- TPC-E, 1000 customers. ---
    {
        let ecfg = TpceConfig {
            num_txns: scale(30_000, 100_000),
            ..TpceConfig::with_customers(1_000)
        };
        let w = tpce::generate(&ecfg);
        let cfg = SchismConfig::new(2);
        out.push(Experiment {
            name: "tpce",
            manual: None,
            workload: w,
            cfg,
        });
    }
    // --- Epinions, 2 and 10 partitions. ---
    for (name, k) in [("epinions-2", 2u32), ("epinions-10", 10)] {
        let ecfg = EpinionsConfig {
            num_txns: scale(30_000, 100_000),
            reviews: 20_000,
            trust_edges: 10_000,
            ..Default::default()
        };
        let w = epinions::generate(&ecfg);
        let mut cfg = SchismConfig::new(k);
        cfg.partitioner.epsilon = 0.1;
        out.push(Experiment {
            name,
            manual: Some(Box::new(ManualEpinions::new(k))),
            workload: w,
            cfg,
        });
    }
    // --- Random: impossible to partition. ---
    {
        let w = random::generate(&RandomConfig {
            num_txns: scale(10_000, 10_000),
            ..Default::default()
        });
        let cfg = SchismConfig::new(2);
        out.push(Experiment {
            name: "random",
            manual: Some(Box::new(HashScheme::by_row_id(2))),
            workload: w,
            cfg,
        });
    }
    out
}

/// Equal range stripes over a single-table key space (the "manual" scheme
/// for YCSB-E).
fn stripes_scheme(records: u64, k: u32) -> schism_router::RangeScheme {
    use schism_router::{PartitionSet, RangeRule, RangeScheme, TablePolicy};
    let stripe = records / k as u64;
    let rules: Vec<RangeRule> = (0..k)
        .map(|p| RangeRule {
            conds: vec![(
                0,
                (p as u64 * stripe) as i64,
                if p == k - 1 {
                    i64::MAX
                } else {
                    ((p as u64 + 1) * stripe - 1) as i64
                },
            )],
            partitions: PartitionSet::single(p),
        })
        .collect();
    RangeScheme::new(
        k,
        vec![TablePolicy::Rules {
            rules,
            default: PartitionSet::single(0),
        }],
    )
}

fn main() {
    schism_bench::reject_unknown_args(&["--full", "--backend"]);
    let full = schism_bench::full_scale();
    let backend = schism_bench::graph_backend_arg();
    let (backend_name, cut_metric) = schism_bench::graph_backend_names(backend);
    eprintln!("[fig4] backend {backend_name}: cut is the {cut_metric}");
    println!(
        "=== Figure 4: % distributed transactions per workload and strategy ({}) ===\n",
        if full {
            "paper-scale traces"
        } else {
            "reduced traces; pass --full for paper scale"
        }
    );

    let mut table = Table::new(&[
        "workload",
        "SCHISM",
        "(paper)",
        "manual",
        "(paper)",
        "replication",
        "(paper)",
        "hashing",
        "(paper)",
        "chosen",
        "(paper chose)",
    ]);
    let mut details = String::new();

    for mut exp in experiments(full) {
        exp.cfg.graph_backend = backend;
        let t0 = std::time::Instant::now();
        let (train, test) = exp
            .workload
            .trace
            .split(exp.cfg.train_fraction, exp.cfg.seed ^ 0x7E57);
        let schism = Schism::new(exp.cfg.clone());
        let rec = schism.run_split(&exp.workload, &train, &test);

        let manual_frac = exp
            .manual
            .as_ref()
            .map(|m| evaluate(&**m, &test, &*exp.workload.db).distributed_fraction());
        let replication = rec.fraction_of("replication").unwrap_or(1.0);
        // Figure 4's "hashing" baseline: hash on primary key / tuple id.
        let hash_id = evaluate(&HashScheme::by_row_id(exp.cfg.k), &test, &*exp.workload.db)
            .distributed_fraction();
        let paper = paper_row(exp.name).expect("paper row");

        table.row(vec![
            exp.name.to_string(),
            format!("{:.1}%", rec.chosen_fraction() * 100.0),
            format!("{:.1}%", paper.schism),
            manual_frac.map_or("-".into(), |f| format!("{:.1}%", f * 100.0)),
            paper.manual.map_or("-".into(), |f| format!("{f:.1}%")),
            format!("{:.1}%", replication * 100.0),
            format!("{:.1}%", paper.replication),
            format!("{:.1}%", hash_id * 100.0),
            format!("{:.1}%", paper.hashing),
            rec.chosen().to_string(),
            paper.chosen.to_string(),
        ]);

        let s = &rec.build_stats;
        details.push_str(&format!(
            "{}: k={} | graph {} nodes / {} edges ({} tuples, {} exploded groups) | cut {} | \
             partition {:.2?} | total {:.2?} | lookup {} | range {} | hash(freq-attr) {}\n",
            exp.name,
            exp.cfg.k,
            s.nodes,
            s.edges,
            s.distinct_tuples,
            s.exploded_groups,
            rec.edge_cut,
            rec.partition_time,
            rec.total_time,
            rec.fraction_of("lookup-table")
                .map_or("-".into(), |f| format!("{:.1}%", f * 100.0)),
            rec.fraction_of("range-predicates")
                .map_or("untrusted".into(), |f| format!("{:.1}%", f * 100.0)),
            rec.fraction_of("hashing")
                .map_or("-".into(), |f| format!("{:.1}%", f * 100.0)),
        ));
        eprintln!("[fig4] {} done in {:.1?}", exp.name, t0.elapsed());
    }

    println!("{}", table.render());
    println!("per-run details:\n{details}");
    println!(
        "paper reference rows decoded from Figure 4 ({} workloads); \
         'SCHISM' is the strategy picked by final validation.",
        PAPER_FIG4.len()
    );
}
