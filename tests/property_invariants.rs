//! Property-based invariants across the workspace's core data structures:
//! the graph partitioner, partition sets, Bloom-backed lookup tables, the
//! replication-aware router, and the decision tree.

use proptest::prelude::*;
use schism_graph::{partition, GraphBuilder, PartitionerConfig};
use schism_ml::{extract_rules, DatasetBuilder, DecisionTree, TreeConfig};
use schism_router::{
    route_transaction, BloomBackend, IndexBackend, LookupBackend, LookupScheme, MissPolicy,
    PartitionSet,
};
use schism_workload::{MaterializedDb, TupleId, TxnBuilder};

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

    /// A Bloom-backed lookup table may add partitions (false positives) but
    /// never loses a tuple's true home relative to the exact index.
    #[test]
    fn bloom_lookup_is_superset_of_index(
        rows in prop::collection::vec(0..10_000u64, 1..200),
        k in 2..8u32,
    ) {
        let entries: Vec<(u64, PartitionSet)> = rows
            .iter()
            .map(|&r| (r, PartitionSet::single((r % k as u64) as u32)))
            .collect();
        let index = IndexBackend::new(entries.clone());
        let bloom = BloomBackend::new(k, entries.len(), 0.05, entries);
        for &r in &rows {
            let exact = index.get(r).expect("present in index");
            let fuzzy = bloom.get(r).expect("present in bloom");
            prop_assert_eq!(fuzzy.union(&exact), fuzzy, "bloom lost home of {}", r);
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
        prop_assert!(!participants.set.is_empty());
        use schism_router::Scheme;
        for &w in &writes {
            let home = scheme.locate_tuple(TupleId::new(0, w), &db);
            prop_assert_eq!(
                participants.set.union(&home),
                participants.set,
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
