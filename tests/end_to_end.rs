//! Cross-crate integration: the full Schism pipeline on every workload
//! family, asserting the paper's headline outcomes at test-friendly scale.

use schism_core::{Schism, SchismConfig};
use schism_workload::epinions::{self, EpinionsConfig};
use schism_workload::random::{self, RandomConfig};
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::tpce::{self, TpceConfig};
use schism_workload::ycsb::{self, YcsbConfig};

#[test]
fn ycsb_a_chooses_hashing_at_zero_cost() {
    let w = ycsb::generate(&YcsbConfig {
        records: 2_000,
        num_txns: 4_000,
        ..YcsbConfig::workload_a()
    });
    let rec = Schism::new(SchismConfig::new(2)).run(&w);
    assert_eq!(rec.chosen(), "hashing");
    assert!(rec.chosen_fraction() < 0.01, "{}", rec.chosen_fraction());
}

#[test]
fn ycsb_e_scans_defeat_hashing() {
    let w = ycsb::generate(&YcsbConfig {
        records: 5_000,
        num_txns: 6_000,
        ..YcsbConfig::workload_e()
    });
    let rec = Schism::new(SchismConfig::new(2)).run(&w);
    // Ranges (or lookup) near zero; hashing pays for almost every scan.
    assert!(rec.chosen_fraction() < 0.05, "{}", rec.chosen_fraction());
    let hash = rec.fraction_of("hashing").unwrap();
    assert!(hash > 0.4, "hashing should be bad: {hash}");
    assert_ne!(rec.chosen(), "hashing");
}

#[test]
fn tpcc_derives_warehouse_partitioning() {
    let w = tpcc::generate(&TpccConfig {
        num_txns: 12_000,
        ..TpccConfig::small(2)
    });
    let rec = Schism::new(SchismConfig::new(2)).run(&w);
    assert_eq!(
        rec.chosen(),
        "range-predicates",
        "candidates: {:?}",
        rec.validation
            .candidates
            .iter()
            .map(|c| (c.name.clone(), c.fraction()))
            .collect::<Vec<_>>()
    );
    // Cost ~= the multi-warehouse fraction (10.7%), far below hashing.
    assert!(
        (0.06..=0.2).contains(&rec.chosen_fraction()),
        "{}",
        rec.chosen_fraction()
    );
    // The item table must be replicated in the explanation.
    let item = rec
        .explanation
        .per_table
        .iter()
        .find(|e| e.table_name == "item")
        .expect("item table explained");
    assert!(
        matches!(item.policy, schism_router::TablePolicy::Replicate),
        "item policy: {:?}",
        item.rules_rendered
    );
}

/// fig4's tpcc-2w row as a test: full-cardinality TPC-C (two warehouses,
/// every table at its specification size, k = 2) on the default backend
/// must choose range predicates within two points of manual warehouse
/// partitioning. At full cardinality the test trace reaches tuples training
/// never saw, so only the explanation's rules can place them.
#[test]
fn tpcc_full_cardinality_matches_manual_partitioning() {
    let tcfg = TpccConfig {
        num_txns: 30_000,
        ..TpccConfig::full(2)
    };
    let w = tpcc::generate(&tcfg);
    let cfg = SchismConfig::new(2);
    let (train, test) = w.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
    let rec = Schism::new(cfg).run_split(&w, &train, &test);
    // Manual: every table split by warehouse, `item` replicated, so a
    // transaction is distributed iff it touches two warehouses.
    let multi = test.transactions.iter().filter(|t| {
        let mut ws: Vec<u64> = t
            .accessed()
            .filter_map(|tp| tpcc::warehouse_of(&tcfg, tp))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws.len() > 1
    });
    let manual = multi.count() as f64 / test.len() as f64;
    let candidates: Vec<_> = rec
        .validation
        .candidates
        .iter()
        .map(|c| (c.name.clone(), c.fraction()))
        .collect();
    assert_eq!(
        rec.chosen(),
        "range-predicates",
        "candidates: {candidates:?}"
    );
    assert!(
        rec.chosen_fraction() <= manual + 0.02,
        "range predicates at {} against manual at {manual}",
        rec.chosen_fraction()
    );
}

#[test]
fn epinions_lookup_beats_all_simple_schemes() {
    let w = epinions::generate(&EpinionsConfig {
        users: 1_000,
        items: 2_000,
        reviews: 10_000,
        trust_edges: 5_000,
        num_txns: 15_000,
        ..Default::default()
    });
    let mut cfg = SchismConfig::new(2);
    cfg.partitioner.epsilon = 0.1;
    let rec = Schism::new(cfg).run(&w);
    assert_eq!(
        rec.chosen(),
        "lookup-table",
        "candidates: {:?}",
        rec.validation
            .candidates
            .iter()
            .map(|c| (c.name.clone(), c.fraction()))
            .collect::<Vec<_>>()
    );
    let lookup = rec.fraction_of("lookup-table").unwrap();
    let replication = rec.fraction_of("replication").unwrap();
    assert!(
        lookup < replication,
        "lookup {lookup} vs replication {replication}"
    );
}

#[test]
fn random_falls_back_to_hash() {
    let w = random::generate(&RandomConfig {
        records: 20_000,
        num_txns: 8_000,
        ..Default::default()
    });
    let rec = Schism::new(SchismConfig::new(2)).run(&w);
    assert_eq!(rec.chosen(), "hashing");
    assert!((0.4..=0.6).contains(&rec.chosen_fraction()));
}

#[test]
fn tpce_runs_end_to_end() {
    // TPC-E is the stress test for schema complexity (17 tables, 10 txn
    // types). The join-based explanation of §5.2 is not implemented, so we
    // only assert the pipeline completes and beats hashing soundly.
    let w = tpce::generate(&TpceConfig {
        num_txns: 8_000,
        ..TpceConfig::small()
    });
    let rec = Schism::new(SchismConfig::new(2)).run(&w);
    let chosen = rec.chosen_fraction();
    let hash = schism_router::evaluate(&schism_router::HashScheme::by_row_id(2), &w.trace, &*w.db)
        .distributed_fraction();
    assert!(chosen < hash * 0.6, "chosen {chosen} vs hash {hash}");
}

#[test]
fn deterministic_recommendations() {
    let w = ycsb::generate(&YcsbConfig {
        records: 1_000,
        num_txns: 2_000,
        ..YcsbConfig::workload_e()
    });
    let a = Schism::new(SchismConfig::new(2)).run(&w);
    let b = Schism::new(SchismConfig::new(2)).run(&w);
    assert_eq!(a.chosen(), b.chosen());
    assert_eq!(a.chosen_fraction(), b.chosen_fraction());
    assert_eq!(a.edge_cut, b.edge_cut);
}
