//! Property-based invariants across the workspace's core data structures:
//! the graph partitioner, partition sets, the replication-aware router, the
//! decision tree, and the SQL front door.

use proptest::prelude::*;
use schism_graph::{partition, GraphBuilder, PartitionerConfig};
use schism_ml::{extract_rules, DatasetBuilder, DecisionTree, TreeConfig};
use schism_router::{
    route_transaction, IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet,
};
use schism_sql::{parse_statement, ColumnType, Schema};
use schism_workload::sqllog::SqlLogSource;
use schism_workload::{MaterializedDb, TraceSource, TupleId, TxnBuilder};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every vertex is assigned a partition in range, and the balance
    /// constraint holds (up to one max-weight vertex of slack).
    #[test]
    fn partitioner_assignment_is_valid(
        edges in prop::collection::vec((0..60u32, 0..60u32, 1..5u32), 1..300),
        k in 1..6u32,
        seed in 0..50u64,
    ) {
        let mut b = GraphBuilder::new(60);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let cfg = PartitionerConfig { k, seed, ..Default::default() };
        let p = partition(&g, &cfg);
        prop_assert_eq!(p.assignment.len(), g.num_vertices());
        prop_assert!(p.assignment.iter().all(|&a| a < k));
        // Reported cut must equal a recount.
        prop_assert_eq!(p.edge_cut, schism_graph::edge_cut(&g, &p.assignment));
        // Balance: within (1+eps)*total/k plus one vertex of slack.
        let cap = ((g.total_vertex_weight() as f64) * 1.05 / k as f64).ceil() as u64 + 1;
        for &w in &p.part_weights {
            prop_assert!(w <= cap, "weight {} > cap {}", w, cap);
        }
    }

    /// PartitionSet behaves like a set of u32 under insert/union/intersect.
    #[test]
    fn partition_set_is_a_set(
        a in prop::collection::btree_set(0..256u32, 0..40),
        b in prop::collection::btree_set(0..256u32, 0..40),
    ) {
        let pa: PartitionSet = a.iter().copied().collect();
        let pb: PartitionSet = b.iter().copied().collect();
        prop_assert_eq!(pa.len() as usize, a.len());
        let union: Vec<u32> = pa.union(&pb).iter().collect();
        let expect: Vec<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(union, expect);
        let inter: Vec<u32> = pa.intersect(&pb).iter().collect();
        let expect: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(inter, expect);
        for x in &a {
            prop_assert!(pa.contains(*x));
        }
    }

    /// The router never returns an empty participant set, and includes
    /// every write's full copy set.
    #[test]
    fn router_covers_all_writes(
        reads in prop::collection::vec(0..500u64, 0..10),
        writes in prop::collection::vec(0..500u64, 0..10),
        k in 1..6u32,
    ) {
        let entries: Vec<(u64, PartitionSet)> = (0..500u64)
            .map(|r| {
                if r % 7 == 0 {
                    (r, PartitionSet::all(k))
                } else {
                    (r, PartitionSet::single((r % k as u64) as u32))
                }
            })
            .collect();
        let scheme = LookupScheme::new(
            k,
            vec![Some(Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>)],
            vec![None],
            MissPolicy::HashRow,
        );
        let db = MaterializedDb::new();
        let mut tb = TxnBuilder::new(false);
        for &r in &reads {
            tb.read(TupleId::new(0, r));
        }
        for &w in &writes {
            tb.write(TupleId::new(0, w));
        }
        let txn = tb.finish();
        let participants = route_transaction(&txn, &scheme, &db);
        prop_assert!(!participants.is_empty());
        use schism_router::Scheme;
        for &w in &writes {
            let home = scheme.locate_tuple(TupleId::new(0, w), &db);
            prop_assert_eq!(
                participants.union(&home),
                participants,
                "write {} copies not covered", w
            );
        }
    }

    /// Decision-tree rules and tree predictions agree on every training
    /// row, and the rules tile the space (exactly one matches).
    #[test]
    fn tree_rules_agree_with_predictions(
        rows in prop::collection::vec((0..100i64, 0..100i64, 0..4u32), 5..150),
    ) {
        let mut b = DatasetBuilder::new().numeric("x").numeric("y");
        for &(x, y, label) in &rows {
            b.row(&[x, y], label);
        }
        let ds = b.build();
        let tree = DecisionTree::train(&ds, &TreeConfig { prune_cf: 1.0, ..Default::default() });
        let rules = extract_rules(&tree);
        for &(x, y, _) in &rows {
            let matched: Vec<_> = rules.iter().filter(|r| r.matches(&[x, y])).collect();
            prop_assert_eq!(matched.len(), 1, "row ({},{}) matched {} rules", x, y, matched.len());
            prop_assert_eq!(matched[0].label, tree.predict(&[x, y]));
        }
    }
}

/// Where a fuzzed string starts: nothing, or a valid statement prefix so
/// the fragments after it reach the predicate and literal parsers.
const SQL_PREFIXES: &[&str] = &[
    "",
    "SELECT * FROM account WHERE ",
    "UPDATE account SET bal = ",
    "INSERT INTO account (id, name, bal) VALUES (",
    "DELETE FROM account WHERE ",
    "BEGIN;\nSELECT id FROM account WHERE ",
];

/// Keywords and the fuzz schema's table and column names.
const SQL_WORDS: &[&str] = &[
    "SELECT",
    "*",
    "FROM",
    "WHERE",
    "UPDATE",
    "SET",
    "INSERT",
    "INTO",
    "VALUES",
    "DELETE",
    "AND",
    "OR",
    "BETWEEN",
    "IN",
    "BEGIN",
    "COMMIT",
    "END",
    "account",
    "id",
    "name",
    "bal",
    "account.id",
    "other.id",
    "nowhere",
];

/// Operators, punctuation and separators.
const SQL_OPS: &[&str] = &[
    "=", "<", "<=", ">", ">=", "<>", "!=", ",", ";", "-", ".", "(", ")", " ", "\n", "--",
];

/// Appends one fragment of a SQL-shaped string, its kind picked by
/// `kind` (comparisons and keywords most often, arbitrary chars rarely)
/// and filled in from `x`.
fn push_sql_fragment(out: &mut String, kind: u32, x: u64) {
    let pick = |list: &[&'static str]| list[(x % list.len() as u64) as usize];
    match kind {
        0..=3 => out.push_str(pick(SQL_WORDS)),
        // `col op literal`, the atom every predicate is built from.
        4..=7 => {
            let col = ["id", "bal", "name", "account.bal"][(x >> 8) as usize % 4];
            let op = ["=", "<", ">=", "<>", "IN (", "BETWEEN"][(x >> 16) as usize % 6];
            out.push_str(&format!("{col} {op} {}", x % 100));
        }
        // Integers: small, anywhere in i64, and past i64::MAX.
        8..=9 => match x % 4 {
            0 | 1 => out.push_str(&((x >> 2) % 1_000).to_string()),
            2 => out.push_str(&(x as i64).to_string()),
            _ => out.push_str(&(x | 1 << 63).to_string()),
        },
        // A string with `''` escapes; every fifth one is left unterminated.
        10 => {
            out.push('\'');
            for i in 0..x % 6 {
                out.push_str(if (x >> i) & 1 == 1 { "''" } else { "ab" });
            }
            if !x.is_multiple_of(5) {
                out.push('\'');
            }
        }
        // A run of up to 200 opening or closing parentheses.
        11 => out.push_str(&(if x & 1 == 0 { "(" } else { ")" }).repeat((x >> 1) as usize % 201)),
        12..=14 => out.push_str(pick(SQL_OPS)),
        // Any char, ASCII half the time.
        _ => {
            let range = if x & 1 == 0 { 0x80 } else { 0x11_0000 };
            out.push(char::from_u32(((x >> 1) % range) as u32).unwrap_or('\u{FFFD}'));
        }
    }
    out.push(' ');
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5_000, ..ProptestConfig::default() })]

    /// Hostile text never panics or aborts the SQL front door: the parser
    /// and the statement-log index pass return `Ok` or a typed error, and a
    /// log that indexes also replays.
    #[test]
    fn sql_front_door_never_panics(
        prefix in 0..SQL_PREFIXES.len(),
        fragments in prop::collection::vec((0..16u32, 0..u64::MAX), 0..10),
    ) {
        let mut schema = Schema::new();
        schema.add_table(
            "account",
            &[("id", ColumnType::Int), ("name", ColumnType::Str), ("bal", ColumnType::Int)],
            &["id"],
        );
        let schema = Arc::new(schema);
        let mut sql = SQL_PREFIXES[prefix].to_owned();
        for &(kind, x) in &fragments {
            push_sql_fragment(&mut sql, kind, x);
        }
        if let Err(e) = parse_statement(&schema, &sql) {
            prop_assert!(!e.to_string().is_empty());
        }
        match SqlLogSource::from_string(Arc::clone(&schema), sql) {
            Ok(log) => prop_assert_eq!(log.materialize().len(), log.len()),
            Err(e) => prop_assert!(e.line >= 1, "{}", e),
        }
    }
}
