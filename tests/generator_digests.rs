//! Every trace generator's output, pinned by digest at a small fixed size:
//! each transaction's reads, writes, scan groups and statement count, the
//! per-table row counts, the WHERE-clause attribute statistics, and the
//! value oracle over the first rows of every table. A change to a
//! generator's configuration surface must leave these digests unchanged
//! unless it means to move a trace; a failure prints the new digest.
//!
//! Re-recorded on purpose: TPC-E's, when its private mixer (SplitMix64
//! without the finaliser's second multiply) was folded into
//! `splitmix_pair`. Every other digest is the one first recorded.

use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::epinions::{self, EpinionsConfig};
use schism_workload::random::{self, RandomConfig};
use schism_workload::simplecount::{self, SimpleCountConfig};
use schism_workload::tpce::{self, TpceConfig};
use schism_workload::ycsb::{self, YcsbConfig};
use schism_workload::{splitmix_pair, TupleId, Workload};

/// Rows per table whose oracle values enter the digest.
const VALUE_ROWS: u64 = 64;

fn digest(w: &Workload) -> u64 {
    let mut h = 0u64;
    let mut fold = |x: u64| h = splitmix_pair(h, x);
    fold(w.trace.len() as u64);
    for t in &w.trace.transactions {
        for group in [&t.reads, &t.writes] {
            fold(group.len() as u64);
            for a in group {
                fold(u64::from(a.table));
                fold(a.row);
            }
        }
        fold(t.scans.len() as u64);
        for scan in &t.scans {
            fold(scan.len() as u64);
            for a in scan {
                fold(u64::from(a.table));
                fold(a.row);
            }
        }
        fold(t.statements.len() as u64);
    }
    fold(w.table_rows.len() as u64);
    for &rows in &w.table_rows {
        fold(rows);
    }
    for (table, def) in w.schema.tables() {
        fold(w.attr_stats.table_count(table));
        let frequent = w.attr_stats.frequent_attributes(table, 0.0);
        fold(frequent.len() as u64);
        for col in frequent {
            fold(u64::from(col));
            fold(w.attr_stats.count(table, col));
        }
        let rows = w.table_rows[table as usize].min(VALUE_ROWS);
        for row in 0..rows {
            for col in 0..def.columns.len() {
                let v = w.db.value(TupleId::new(table, row), col as u16);
                fold(v.map_or(u64::MAX, |v| v as u64));
            }
        }
    }
    h
}

fn check(w: &Workload, golden: u64) {
    let d = digest(w);
    assert_eq!(
        d, golden,
        "{}: digest {d:#018x} is not the golden one",
        w.name
    );
}

#[test]
fn tpce_trace_matches_golden_digest() {
    check(
        &tpce::generate(&TpceConfig {
            num_txns: 1_000,
            seed: 3,
            ..TpceConfig::with_customers(50)
        }),
        0xa680_47d9_301c_6b89,
    );
}

#[test]
fn epinions_trace_matches_golden_digest() {
    check(
        &epinions::generate(&EpinionsConfig {
            users: 300,
            items: 600,
            reviews: 3_000,
            trust_edges: 1_500,
            num_txns: 1_000,
            seed: 3,
        }),
        0xfdce_57f7_ba74_39e5,
    );
}

#[test]
fn ycsb_traces_match_golden_digests() {
    let small = |cfg: YcsbConfig| YcsbConfig {
        records: 2_000,
        num_txns: 1_000,
        seed: 3,
        ..cfg
    };
    check(
        &ycsb::generate(&small(YcsbConfig::workload_a())),
        0x6dbe_86e6_a637_587e,
    );
    check(
        &ycsb::generate(&small(YcsbConfig::workload_e())),
        0xbc77_5d82_2f77_4bfe,
    );
}

#[test]
fn random_trace_matches_golden_digest() {
    check(
        &random::generate(&RandomConfig {
            records: 5_000,
            num_txns: 1_000,
            seed: 3,
        }),
        0xcdd7_0420_754a_7c23,
    );
}

#[test]
fn simplecount_trace_matches_golden_digest() {
    check(
        &simplecount::generate(&SimpleCountConfig {
            clients: 10,
            rows_per_client: 100,
            servers: 4,
            update_fraction: 0.2,
            num_txns: 1_000,
            seed: 3,
            ..Default::default()
        }),
        0xae88_cc71_1af4_680d,
    );
}

#[test]
fn drifting_trace_matches_golden_digest() {
    check(
        &drifting::generate(&DriftingConfig {
            num_txns: 1_000,
            hot_offset: 3,
            seed: 3,
            ..Default::default()
        }),
        0xa2b9_2442_27b1_3fb8,
    );
}
