//! The end-to-end Schism pipeline (§2's five steps): pre-process the trace,
//! build the graph, partition it, explain the partitioning, and validate
//! the candidate schemes on a held-out test trace.
//!
//! Steps 3–5 share the partition phase's [`Placement`]: the explanation
//! samples it and [`build_lookup_scheme`] feeds each table's range of it
//! to that table's lookup backend. A caller holding a keyed placement
//! (the migration plane) converts it with `Placement::from` first.

use crate::config::SchismConfig;
use crate::explain::{explain, Explanation};
use crate::graph_builder::{build_graph, BuildStats};
use crate::partition_phase::{run_partition_phase, Placement};
use crate::validate::{validate, Validation};
use schism_par::{resolve_threads, Pool};
use schism_router::{
    BitArrayBackend, HashScheme, IndexBackend, LookupBackend, LookupScheme, MissPolicy,
    ReplicationScheme, RowKey, Scheme,
};
use schism_sql::ColId;
use schism_workload::{Trace, TupleId, Workload};
use std::time::{Duration, Instant};

/// Rows above which a table's lookup backend switches from the dense
/// bit-array to the hash index (sparse access at huge scale).
const BITARRAY_MAX_ROWS: u64 = 1 << 24;

/// The pipeline driver.
pub struct Schism {
    pub cfg: SchismConfig,
}

/// Everything the run produced.
pub struct Recommendation {
    pub workload_name: String,
    pub k: u32,
    pub train_txns: usize,
    pub test_txns: usize,
    pub build_stats: BuildStats,
    pub edge_cut: u64,
    pub imbalance: f64,
    pub replicated_tuples: usize,
    pub graph_build_time: Duration,
    pub partition_time: Duration,
    pub explanation: Explanation,
    pub validation: Validation,
    pub total_time: Duration,
}

impl Recommendation {
    /// Name of the chosen strategy.
    pub fn chosen(&self) -> &str {
        &self.validation.winner().name
    }

    /// Distributed-transaction fraction of the chosen strategy on the test
    /// trace.
    pub fn chosen_fraction(&self) -> f64 {
        self.validation.winner().fraction()
    }

    /// Distributed fraction of a named candidate, if present.
    pub fn fraction_of(&self, name: &str) -> Option<f64> {
        self.validation
            .candidates
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.fraction())
    }
}

impl Schism {
    pub fn new(cfg: SchismConfig) -> Self {
        Self { cfg }
    }

    /// Runs the pipeline, splitting the workload trace into train/test
    /// internally.
    pub fn run(&self, workload: &Workload) -> Recommendation {
        let (train, test) = workload
            .trace
            .split(self.cfg.train_fraction, self.cfg.seed ^ 0x7E57);
        self.run_split(workload, &train, &test)
    }

    /// Runs the pipeline on an explicit train/test split.
    pub fn run_split(&self, workload: &Workload, train: &Trace, test: &Trace) -> Recommendation {
        let cfg = &self.cfg;
        let t0 = Instant::now();

        // Steps 1-2: read/write sets are already in the trace; build the
        // graph (streaming parallel — `cfg.threads` workers, bit-identical
        // output at any count).
        let wg = build_graph(workload, train, cfg);
        let graph_build_time = t0.elapsed();

        // Step 3: partition.
        let phase = run_partition_phase(&wg, cfg);

        // Step 4: explain.
        let mut explanation = explain(workload, &phase.assignment, &phase.access_counts, cfg);

        // §4.3(ii): "measure the cost in terms of number of distributed
        // transactions and discard explanations that degrade the graph
        // solution" — compare the range scheme against the fine-grained
        // lookup scheme on the *training* trace.
        // The two costs share nothing, so they run side by side.
        let db = &*workload.db;
        let ((lookup, lookup_train), range_train) = Pool::new(resolve_threads(cfg.threads)).join(
            || {
                let lookup = build_lookup_scheme(workload, train, &phase.assignment, cfg.k);
                let cost = schism_router::evaluate(&lookup, train, db).distributed_fraction();
                (lookup, cost)
            },
            || schism_router::evaluate(&explanation.scheme, train, db).distributed_fraction(),
        );
        explanation.trusted = range_train <= lookup_train * 1.5 + 0.02;

        // Step 5: validate.
        let candidates = self.candidates(workload, lookup, &explanation);
        let validation = validate(candidates, test, &*workload.db, cfg.selection);

        Recommendation {
            workload_name: workload.name.clone(),
            k: cfg.k,
            train_txns: train.len(),
            test_txns: test.len(),
            build_stats: wg.stats,
            edge_cut: phase.edge_cut,
            imbalance: phase.imbalance,
            replicated_tuples: phase.replicated_tuples,
            graph_build_time,
            partition_time: phase.partition_time,
            explanation,
            validation,
            total_time: t0.elapsed(),
        }
    }

    /// Builds the §4.4 candidates. An *untrusted* explanation — one whose
    /// training-trace cost degrades the graph solution (§4.3 criterion ii)
    /// — is discarded before validation: its apparent test cost is an
    /// artifact, typically "won" by piling unseen tuples onto one rule's
    /// partition.
    fn candidates(
        &self,
        workload: &Workload,
        lookup: LookupScheme,
        explanation: &Explanation,
    ) -> Vec<(String, Box<dyn Scheme>)> {
        let k = self.cfg.k;
        let hash = hash_on_frequent_attributes(workload, k);
        let mut out: Vec<(String, Box<dyn Scheme>)> = vec![(
            "lookup-table".to_owned(),
            Box::new(lookup) as Box<dyn Scheme>,
        )];
        if explanation.trusted {
            let range = explanation.scheme.clone();
            out.push((
                "range-predicates".to_owned(),
                Box::new(range) as Box<dyn Scheme>,
            ));
        }
        out.push(("hashing".to_owned(), Box::new(hash) as Box<dyn Scheme>));
        out.push((
            "replication".to_owned(),
            Box::new(ReplicationScheme::new(k)) as Box<dyn Scheme>,
        ));
        out
    }
}

/// Hash partitioning "on the most frequently used attributes" (§4.4).
pub fn hash_on_frequent_attributes(workload: &Workload, k: u32) -> HashScheme {
    let attrs: Vec<Option<ColId>> = workload
        .schema
        .tables()
        .map(|(tid, _)| {
            workload
                .attr_stats
                .frequent_attributes(tid, 0.0)
                .first()
                .copied()
        })
        .collect();
    HashScheme::by_attrs(k, attrs)
}

/// Builds the fine-grained lookup scheme from the partitioning-phase
/// placement: dense bit-arrays for moderate tables, hash indexes for huge
/// ones, each fed its table's range of the placement; per-table row keys
/// for statement routing; miss policy chosen by the workload's write
/// fraction (§6.1's Epinions note: read-mostly workloads replicate
/// never-seen tuples).
pub fn build_lookup_scheme(
    workload: &Workload,
    train: &Trace,
    placement: &Placement,
    k: u32,
) -> LookupScheme {
    let backends: Vec<Option<Box<dyn LookupBackend>>> = workload
        .schema
        .tables()
        .map(|(tid, _)| {
            let range = placement.table(tid);
            if range.is_empty() {
                return None;
            }
            let entries = placement.tuples()[range.clone()]
                .iter()
                .zip(&placement.sets()[range])
                .map(|(t, &pset)| (t.row, pset));
            let rows = workload.table_rows.get(tid as usize).copied().unwrap_or(0);
            let backend: Box<dyn LookupBackend> = if rows > 0 && rows <= BITARRAY_MAX_ROWS {
                Box::new(BitArrayBackend::new(rows, entries))
            } else {
                Box::new(IndexBackend::new(entries))
            };
            Some(backend)
        })
        .collect();

    let row_keys: Vec<Option<RowKey>> = workload
        .schema
        .tables()
        .map(|(tid, tdef)| {
            if tdef.primary_key.len() != 1 {
                return None;
            }
            let col = tdef.primary_key[0];
            detect_row_key_offset(workload, tid, col).map(|offset| RowKey { col, offset })
        })
        .collect();

    let miss = if write_fraction(train) < 0.25 {
        MissPolicy::Replicate
    } else {
        MissPolicy::HashRow
    };
    LookupScheme::new(k, backends, row_keys, miss)
}

/// Checks (on two probe rows) that `pk_value = row + offset` holds, i.e.
/// the table's key is a dense integer sequence the lookup can be addressed
/// by.
fn detect_row_key_offset(workload: &Workload, table: u16, col: ColId) -> Option<i64> {
    let rows = workload
        .table_rows
        .get(table as usize)
        .copied()
        .unwrap_or(0);
    if rows == 0 {
        return None;
    }
    let probe = |row: u64| -> Option<i64> {
        workload
            .db
            .value(TupleId::new(table, row), col)
            .map(|v| v - row as i64)
    };
    let o1 = probe(0)?;
    let o2 = probe(rows - 1)?;
    (o1 == o2).then_some(o1)
}

/// Fraction of accesses that are writes.
fn write_fraction(trace: &Trace) -> f64 {
    let mut writes = 0usize;
    let mut total = 0usize;
    for t in &trace.transactions {
        writes += t.writes.len();
        total += t.num_accesses();
    }
    if total == 0 {
        0.0
    } else {
        writes as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_router::PartitionSet;
    use schism_workload::random::{self, RandomConfig};
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};
    use schism_workload::ycsb::{self, YcsbConfig};

    #[test]
    fn ycsb_a_selects_hashing() {
        // §6.1: "the validation phase detects that simple hash-partitioning
        // is preferable to the more complicated lookup tables and range
        // partitioning".
        let w = ycsb::generate(&YcsbConfig {
            records: 2_000,
            num_txns: 4_000,
            ..YcsbConfig::workload_a()
        });
        let rec = Schism::new(SchismConfig::new(2)).run(&w);
        assert_eq!(rec.chosen(), "hashing", "candidates: {:?}", summary(&rec));
        assert!(rec.chosen_fraction() < 0.01);
    }

    #[test]
    fn random_falls_back_to_hashing() {
        // §6.1 Random: no good partitioning exists; hash wins the tie and
        // replication is strictly worse.
        // Enough transactions that the ~50% fractions of lookup and hash
        // concentrate within the tie window (small traces leave +-3% noise).
        let w = random::generate(&RandomConfig {
            records: 20_000,
            num_txns: 8_000,
            ..Default::default()
        });
        let rec = Schism::new(SchismConfig::new(2)).run(&w);
        assert_eq!(rec.chosen(), "hashing", "candidates: {:?}", summary(&rec));
        let hash = rec.fraction_of("hashing").unwrap();
        assert!((0.4..=0.6).contains(&hash), "hash {hash}");
        let rep = rec.fraction_of("replication").unwrap();
        assert!(rep > 0.99, "replication {rep}");
    }

    #[test]
    fn striped_workload_prefers_ranges_and_goes_local() {
        // SimpleCount with aligned ranges: the graph finds the stripes, the
        // tree explains them, and the final cost is ~0 distributed. The 30%
        // update mix keeps full replication from also being free.
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 4,
            rows_per_client: 200,
            servers: 4,
            mode: AccessMode::SinglePartition,
            update_fraction: 0.3,
            num_txns: 6_000,
            ..Default::default()
        });
        let rec = Schism::new(SchismConfig::new(4)).run(&w);
        let range = rec.fraction_of("range-predicates").unwrap();
        let lookup = rec.fraction_of("lookup-table").unwrap();
        assert!(
            range < 0.05,
            "range fraction {range} (summary {:?})",
            summary(&rec)
        );
        assert!(lookup < 0.05, "lookup fraction {lookup}");
        // Hash scatters the two-tuple transactions.
        let hash = rec.fraction_of("hashing").unwrap();
        assert!(hash > 0.5, "hash {hash}");
        assert_eq!(rec.chosen(), "range-predicates", "{:?}", summary(&rec));
    }

    #[test]
    fn lookup_scheme_addressable_by_statements() {
        let w = ycsb::generate(&YcsbConfig {
            records: 1_000,
            num_txns: 500,
            ..YcsbConfig::workload_a()
        });
        let (train, _) = w.trace.split(0.8, 1);
        let placement: Placement = w
            .trace
            .distinct_tuples()
            .into_iter()
            .map(|t| (t, PartitionSet::single((t.row % 2) as u32)))
            .collect();
        let scheme = build_lookup_scheme(&w, &train, &placement, 2);
        use schism_sql::{Predicate, Statement, Value};
        // ycsb_key == row (offset 0); pick an assigned row.
        let some_row = placement.tuples()[0].row;
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(some_row as i64)));
        let r = scheme.route_statement(&stmt);
        assert!(r.targets.is_single());
        assert_eq!(r.targets.first().unwrap(), (some_row % 2) as u32);
    }

    fn summary(rec: &Recommendation) -> Vec<(String, f64)> {
        rec.validation
            .candidates
            .iter()
            .map(|c| (c.name.clone(), c.fraction()))
            .collect()
    }
}
