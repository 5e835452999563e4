//! The explanation phase (§4.3, §5.2): learn a compact predicate-based
//! description of the per-tuple partitioning with a decision tree, per
//! table, restricted to frequently-queried attributes.
//!
//! The input is the partition phase's [`Placement`] and its aligned access
//! counts. Each table is one contiguous, sorted range of that column, so
//! the training sample is a stride over positions: no tuple is hashed or
//! looked up.

use crate::config::SchismConfig;
use crate::partition_phase::Placement;
use schism_ml::{cfs_select, cross_validate, extract_rules, Attribute, Dataset, TreeConfig};
use schism_par::{resolve_threads, Pool};
use schism_router::{PartitionSet, RangeRule, RangeScheme, TablePolicy};
use schism_sql::{ColId, TableId};
use schism_workload::{TupleId, Workload};
use std::collections::HashMap;

/// What the classifier produced for one table.
pub struct TableExplanation {
    pub table: TableId,
    pub table_name: String,
    /// Attributes the tree was allowed to split on (post-CFS).
    pub attrs: Vec<ColId>,
    pub policy: TablePolicy,
    /// Held-out accuracy of the classifier (k-fold CV).
    pub cv_accuracy: f64,
    /// Training (resubstitution) accuracy, the paper's `1 - pred. error`.
    pub training_accuracy: f64,
    /// Whether the explanation passed the overfitting gate.
    pub trusted: bool,
    /// Paper-style rendered rules.
    pub rules_rendered: Vec<String>,
    /// Training tuples used.
    pub training_tuples: usize,
}

/// The full explanation: per-table reports plus the executable scheme.
pub struct Explanation {
    pub per_table: Vec<TableExplanation>,
    pub scheme: RangeScheme,
    /// True when every populated table produced a trusted explanation.
    pub trusted: bool,
}

/// Maximum distinct replication sets kept as individual virtual labels;
/// rarer sets collapse into "replicate everywhere".
const MAX_VIRTUAL_LABELS: usize = 7;

/// Caps the per-tuple training weight (hot tuples dominate but must not
/// blow the training set up).
const MAX_TUPLE_WEIGHT: u32 = 32;

/// Runs the explanation phase over the partitioning-phase placement.
///
/// `access_counts`, aligned with the placement's tuples, weight the
/// training set by access frequency: the classifier learns the mapping for
/// the tuples the workload actually touches, which is what makes the
/// paper's `item` example come out as "replicate" despite a long tail of
/// barely-seen tuples (§5.2). An empty slice weighs every tuple 1.
///
/// Tables are explained one after another, each from its contiguous range
/// of the placement; within a table the full-data tree and the
/// cross-validation folds train concurrently on [`SchismConfig::threads`]
/// workers, bit-identical at any count.
pub fn explain(
    workload: &Workload,
    placement: &Placement,
    access_counts: &[u32],
    cfg: &SchismConfig,
) -> Explanation {
    let k = cfg.k;
    let pool = Pool::new(resolve_threads(cfg.threads));
    let mut per_table = Vec::new();
    let mut policies: Vec<TablePolicy> = Vec::new();

    // Per-table write fractions (drive the low-confidence fallback below).
    let mut reads = vec![0u64; workload.schema.num_tables()];
    let mut writes = vec![0u64; workload.schema.num_tables()];
    for txn in &workload.trace.transactions {
        for t in txn.reads.iter().chain(txn.scans.iter().flatten()) {
            if let Some(r) = reads.get_mut(t.table as usize) {
                *r += 1;
            }
        }
        for t in &txn.writes {
            if let Some(w) = writes.get_mut(t.table as usize) {
                *w += 1;
            }
        }
    }

    for (tid, _) in workload.schema.tables() {
        let mut exp = explain_table(workload, tid, placement, access_counts, cfg, &pool);
        // Low-confidence fallback (the paper's `item` narrative, §5.2): a
        // table whose classifier cannot generalize gets replicated when it
        // is (nearly) read-only — reads stay local everywhere and rare
        // writes pay the distributed cost — or pinned to the majority
        // partition otherwise.
        let tot = reads[tid as usize] + writes[tid as usize];
        let write_frac = if tot == 0 {
            0.0
        } else {
            writes[tid as usize] as f64 / tot as f64
        };
        if exp.training_tuples >= TINY_TABLE_ROWS
            && exp.cv_accuracy < MIN_CV_ACCURACY
            && write_frac < 0.05
            && k > 1
        {
            exp.policy = TablePolicy::Replicate;
            exp.rules_rendered = vec![format!(
                "<low-confidence, {:.1}% writes>: replicate",
                write_frac * 100.0
            )];
        }
        policies.push(exp.policy.clone());
        per_table.push(exp);
    }

    let trusted = per_table
        .iter()
        .filter(|e| e.training_tuples > 0)
        .all(|e| e.trusted);
    Explanation {
        per_table,
        scheme: RangeScheme::new(k, policies),
        trusted,
    }
}

fn explain_table(
    workload: &Workload,
    table: TableId,
    placement: &Placement,
    access_counts: &[u32],
    cfg: &SchismConfig,
    pool: &Pool,
) -> TableExplanation {
    let k = cfg.k;
    let table_name = &workload.schema.table(table).name;
    let rows = placement.table(table);
    // Untouched table: nothing to learn; replicate the (reference) table.
    if rows.is_empty() {
        return TableExplanation {
            table,
            table_name: table_name.to_owned(),
            attrs: Vec::new(),
            policy: TablePolicy::Replicate,
            cv_accuracy: 1.0,
            training_accuracy: 1.0,
            trusted: true,
            rules_rendered: vec!["<untouched>: replicate".to_owned()],
            training_tuples: 0,
        };
    }

    // Deterministic training sample: a stride over the table's sorted
    // range, each sampled position with its tuple, set and weight.
    let cap = cfg.explain_sample_per_table.max(1);
    let stride = rows.len().div_ceil(cap);
    let sample: Vec<(TupleId, PartitionSet, u32)> = rows
        .step_by(stride.max(1))
        .map(|i| {
            let weight = access_counts.get(i).copied().unwrap_or(1);
            (placement.tuples()[i], placement.sets()[i], weight)
        })
        .collect();

    // Label space: partitions 0..k, then the most common replication sets.
    let mut set_freq: HashMap<PartitionSet, usize> = HashMap::new();
    for (_, pset, _) in &sample {
        if !pset.is_single() {
            *set_freq.entry(*pset).or_insert(0) += 1;
        }
    }
    // Most frequent first; ties go to the set whose sorted member list is
    // smaller, so no tie is left to the map's (per-instance random) order.
    let mut multi_sets: Vec<(PartitionSet, usize)> = set_freq.into_iter().collect();
    multi_sets.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.iter().cmp(b.0.iter())));
    multi_sets.truncate(MAX_VIRTUAL_LABELS);
    let virtual_of = |pset: &PartitionSet| -> u32 {
        if let Some(p) = pset.first().filter(|_| pset.is_single()) {
            return p;
        }
        match multi_sets.iter().position(|(s, _)| s == pset) {
            Some(i) => k + i as u32,
            None => k + multi_sets.len() as u32, // catch-all "replicate everywhere"
        }
    };
    let label_set = |label: u32| -> PartitionSet {
        if label < k {
            PartitionSet::single(label)
        } else if let Some((s, _)) = multi_sets.get((label - k) as usize) {
            *s
        } else {
            PartitionSet::all(k)
        }
    };
    let num_labels = k + multi_sets.len() as u32 + 1;

    // Candidate attributes: frequently queried (§4.3 requirement (i)).
    let candidates: Vec<ColId> = workload
        .attr_stats
        .frequent_attributes(table, MIN_ATTR_FREQUENCY);

    // Fetch attribute values; tuples with unavailable values are skipped.
    // Each tuple contributes one training row per (capped) trace access, so
    // the classifier optimizes for the tuples the workload actually reads.
    let mut columns: Vec<Vec<i64>> = vec![Vec::with_capacity(sample.len()); candidates.len()];
    let mut labels: Vec<u32> = Vec::with_capacity(sample.len());
    'tuples: for &(t, pset, weight) in &sample {
        let mut row = Vec::with_capacity(candidates.len());
        for &col in &candidates {
            match workload.db.value(t, col) {
                Some(v) => row.push(v),
                None => continue 'tuples,
            }
        }
        for _ in 0..weight.clamp(1, MAX_TUPLE_WEIGHT) {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
            labels.push(virtual_of(&pset));
        }
    }
    let training_tuples = labels.len();

    // Majority fallback when the classifier has nothing to work with.
    let majority_policy = |labels: &[u32]| -> (TablePolicy, String) {
        let mut counts = vec![0usize; num_labels as usize];
        for &l in labels {
            counts[l as usize] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(l, _)| l as u32)
            .unwrap_or(0);
        let (policy, target) = whole_table(label_set(best), k);
        (policy, format!("<empty>: {target}"))
    };

    if candidates.is_empty() || training_tuples < 2 {
        let (policy, rendered) =
            majority_policy(if labels.is_empty() { &[0][..] } else { &labels });
        return TableExplanation {
            table,
            table_name: table_name.to_owned(),
            attrs: Vec::new(),
            policy,
            cv_accuracy: 1.0,
            training_accuracy: 1.0,
            trusted: true,
            rules_rendered: vec![rendered],
            training_tuples,
        };
    }

    // Build the dataset over candidate attributes.
    let attrs_meta: Vec<Attribute> = candidates
        .iter()
        .map(|&c| Attribute {
            name: workload.schema.table(table).column(c).name.clone(),
        })
        .collect();
    let ds = Dataset::new(attrs_meta, columns, labels, num_labels);

    // Attribute selection (§5.2): CFS keeps label-correlated attributes.
    let cfs = cfs_select(&ds);
    let selected: Vec<usize> = if cfs.selected.is_empty() {
        (0..candidates.len()).collect()
    } else {
        cfs.selected
    };
    let proj = ds.project(&selected);
    let selected_cols: Vec<ColId> = selected.iter().map(|&a| candidates[a]).collect();

    // Train + validate. Tiny tables (TPC-C has a 2-row warehouse table at
    // 2 warehouses) need proportionally smaller leaf-support floors, and
    // cross-validation is meaningless on a handful of rows — they are
    // gated on training accuracy instead.
    let tiny = training_tuples < TINY_TABLE_ROWS;
    let mut tree_cfg = TreeConfig {
        min_leaf: MIN_LEAF,
        ..TreeConfig::default()
    };
    if tiny {
        tree_cfg.min_leaf = tree_cfg.min_leaf.min((training_tuples as u32 / 4).max(1));
        tree_cfg.min_split = tree_cfg.min_split.min((training_tuples as u32 / 2).max(2));
    } else {
        // Aggressive pruning (§4.3): every rule must cover at least 2% of
        // the table's training mass, collapsing label noise (sparsely
        // accessed `item` tuples) into the majority decision instead of
        // spurious id ranges.
        // The floor scales inversely with k: legitimate rules can be as
        // small as one partition's share of the table (k=10 TPC-C needs one
        // interval per warehouse at ~2% support each).
        let floor = training_tuples / (25 * k as usize).max(50);
        tree_cfg.min_leaf = tree_cfg.min_leaf.max(floor as u32);
        tree_cfg.min_split = tree_cfg.min_split.max(tree_cfg.min_leaf * 2);
    }
    let cv = cross_validate(&proj, &tree_cfg, cfg.seed ^ 0xC0FFEE, pool);
    let rules = extract_rules(&cv.tree);

    // Rules -> executable policy.
    let names: Vec<&str> = proj.attrs().iter().map(|a| a.name.as_str()).collect();
    let rendered: Vec<String> = rules
        .iter()
        .map(|r| {
            let (_, target) = whole_table(label_set(r.label), k);
            let lhs = r.render(&names);
            let lhs = lhs.split(": label").next().unwrap_or(&lhs).to_owned();
            format!(
                "{lhs}: {target} (support {}, pred. error {:.2}%)",
                r.support,
                r.error_rate * 100.0
            )
        })
        .collect();

    // Single empty rule = whole-table decision (the paper's item table).
    let policy = if rules.len() == 1 && rules[0].conds.is_empty() {
        whole_table(label_set(rules[0].label), k).0
    } else {
        let range_rules: Vec<RangeRule> = rules
            .iter()
            .map(|r| RangeRule {
                conds: r
                    .conds
                    .iter()
                    .map(|c| (selected_cols[c.attr], c.lo, c.hi))
                    .collect(),
                partitions: label_set(r.label),
            })
            .collect();
        // Default: the most supported rule's target.
        let default = rules
            .iter()
            .max_by_key(|r| r.support)
            .map(|r| label_set(r.label))
            .unwrap_or_else(|| PartitionSet::all(k));
        TablePolicy::Rules {
            rules: range_rules,
            default,
        }
    };

    let trusted = if tiny {
        cv.training_accuracy >= MIN_CV_ACCURACY
    } else {
        cv.accuracy >= MIN_CV_ACCURACY
    };
    TableExplanation {
        table,
        table_name: table_name.to_owned(),
        attrs: selected_cols,
        policy,
        cv_accuracy: cv.accuracy,
        training_accuracy: cv.training_accuracy,
        trusted,
        rules_rendered: rendered,
        training_tuples,
    }
}

/// The policy that sends a whole table to `pset`, and its rendered target:
/// every partition of `k > 1` is replication, one partition is a pin, and
/// any other set is a rule-less default.
fn whole_table(pset: PartitionSet, k: u32) -> (TablePolicy, String) {
    if pset.len() == k && k > 1 {
        (TablePolicy::Replicate, "replicate".to_owned())
    } else if let Some(p) = pset.first().filter(|_| pset.is_single()) {
        (TablePolicy::Single(p), format!("partition {p}"))
    } else {
        let policy = TablePolicy::Rules {
            rules: Vec::new(),
            default: pset,
        };
        (policy, format!("partitions {pset:?}"))
    }
}

/// Below this many training rows, cross-validation is noise; small tables
/// are gated on training accuracy and get proportionally relaxed leaf
/// support.
const TINY_TABLE_ROWS: usize = 100;

/// Leaf-support floor the decision tree starts from (every other tree knob
/// is `schism-ml`'s default) before `explain_table` scales it to the table.
const MIN_LEAF: u32 = 4;

/// An attribute must appear in at least this fraction of a table's
/// statements to be a split candidate (§4.3 requirement (i)).
const MIN_ATTR_FREQUENCY: f64 = 0.25;

/// Explanations whose cross-validated accuracy falls below this are
/// flagged as overfit (the validation phase will usually discard the
/// range scheme then).
const MIN_CV_ACCURACY: f64 = 0.75;

#[cfg(test)]
mod tests {
    use super::*;
    use schism_router::Scheme;
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};

    /// Build an assignment by striping the id space — mimics what the graph
    /// phase produces for SimpleCount — and check the tree recovers the
    /// stripes as ranges.
    #[test]
    fn recovers_range_stripes() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 4,
            rows_per_client: 100,
            servers: 4,
            mode: AccessMode::SinglePartition,
            num_txns: 2_000,
            ..Default::default()
        });
        let stripe = 400 / 4;
        let mut assignment = HashMap::new();
        for t in w.trace.distinct_tuples() {
            assignment.insert(t, PartitionSet::single((t.row / stripe) as u32));
        }
        let cfg = SchismConfig::new(4);
        let exp = explain(&w, &Placement::from(&assignment), &[], &cfg);
        assert!(exp.trusted, "stripes are perfectly learnable");
        let e = &exp.per_table[0];
        assert!(e.cv_accuracy > 0.95, "cv accuracy {}", e.cv_accuracy);
        match &e.policy {
            TablePolicy::Rules { rules, .. } => {
                assert!(
                    rules.len() >= 4,
                    "expected >=4 range rules, got {}",
                    rules.len()
                );
                // Every observed tuple must be routed to its stripe.
                let scheme = &exp.scheme;
                for (&t, &want) in &assignment {
                    let got = scheme.locate_tuple(t, &*w.db);
                    assert_eq!(got, want, "tuple {t}");
                }
            }
            other => panic!("expected rules, got {other:?}"),
        }
    }

    /// More replication sets than virtual labels, tied on count and on
    /// first partition: which sets keep a label of their own, and each
    /// label's id, must not depend on a hash map's iteration order.
    #[test]
    fn tied_replication_sets_label_the_same_way_every_call() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 9,
            rows_per_client: 100,
            servers: 1,
            num_txns: 1_000,
            ..Default::default()
        });
        // Stripe j of 100 rows lives on {0, j + 1}: nine sets, all with
        // count 100 and first partition 0, each an id range.
        let assignment: HashMap<TupleId, PartitionSet> = (0..900u64)
            .map(|row| {
                let set = [0, (row / 100) as u32 + 1].into_iter().collect();
                (TupleId::new(0, row), set)
            })
            .collect();
        let cfg = SchismConfig::new(10);
        let run = || {
            let e = &explain(&w, &Placement::from(&assignment), &[], &cfg).per_table[0];
            (e.rules_rendered.clone(), format!("{:?}", e.policy))
        };
        let first = run();
        assert!(first.0.len() >= 8, "stripes are learnable: {:?}", first.0);
        for _ in 0..10 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn replicated_table_collapses_to_replicate_policy() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 1,
            rows_per_client: 200,
            servers: 1,
            num_txns: 500,
            ..Default::default()
        });
        let mut assignment = HashMap::new();
        for t in w.trace.distinct_tuples() {
            assignment.insert(t, PartitionSet::all(2));
        }
        let cfg = SchismConfig::new(2);
        let exp = explain(&w, &Placement::from(&assignment), &[], &cfg);
        let e = &exp.per_table[0];
        assert!(
            matches!(e.policy, TablePolicy::Replicate),
            "expected Replicate, got {:?} / rules {:?}",
            e.policy,
            e.rules_rendered
        );
    }

    #[test]
    fn untouched_table_is_replicated() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 1,
            rows_per_client: 10,
            servers: 1,
            num_txns: 10,
            ..Default::default()
        });
        let cfg = SchismConfig::new(2);
        let exp = explain(&w, &Placement::default(), &[], &cfg); // nothing observed
        assert!(matches!(exp.per_table[0].policy, TablePolicy::Replicate));
        assert_eq!(exp.per_table[0].training_tuples, 0);
    }

    #[test]
    fn random_assignment_is_flagged_untrusted() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 2,
            rows_per_client: 200,
            servers: 1,
            num_txns: 2_000,
            ..Default::default()
        });
        let mut assignment = HashMap::new();
        for t in w.trace.distinct_tuples() {
            // Pseudo-random labels uncorrelated with id ranges (full
            // splitmix64 round; weaker mixes leave range-learnable runs).
            let mut h = t.row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            assignment.insert(t, PartitionSet::single((h % 2) as u32));
        }
        let cfg = SchismConfig::new(2);
        let exp = explain(&w, &Placement::from(&assignment), &[], &cfg);
        let e = &exp.per_table[0];
        assert!(
            !e.trusted || e.cv_accuracy < 0.75,
            "random labels must not yield a trusted explanation (cv {})",
            e.cv_accuracy
        );
    }

    #[test]
    fn scheme_places_unseen_tuples_reasonably() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 4,
            rows_per_client: 100,
            servers: 2,
            mode: AccessMode::SinglePartition,
            num_txns: 1_000,
            ..Default::default()
        });
        let stripe = 400 / 2;
        let mut assignment = HashMap::new();
        for t in w.trace.distinct_tuples() {
            assignment.insert(t, PartitionSet::single((t.row / stripe) as u32));
        }
        let cfg = SchismConfig::new(2);
        let exp = explain(&w, &Placement::from(&assignment), &[], &cfg);
        // A tuple the trace never touched still routes by range.
        let unseen = TupleId::new(0, 10);
        let got = exp.scheme.locate_tuple(unseen, &*w.db);
        assert_eq!(got, PartitionSet::single(0));
        let _ = w.db.value(unseen, 0);
    }
}
