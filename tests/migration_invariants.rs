//! Property-based invariants of the migration subsystem: plan completeness,
//! single-owner resolution mid-migration through the versioned router, and
//! the relabeling never-worse-than-identity guarantee.

use proptest::prelude::*;
use schism_migrate::{plan_migration, relabel, PlanConfig};
use schism_router::{
    IndexBackend, LookupBackend, LookupScheme, MissPolicy, PartitionSet, Scheme, VersionedScheme,
};
use schism_workload::{MaterializedDb, TupleId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn assignment(pairs: &[(u64, u32)]) -> HashMap<TupleId, PartitionSet> {
    pairs
        .iter()
        .map(|&(r, p)| (TupleId::new(0, r), PartitionSet::single(p)))
        .collect()
}

/// Single-owner lookup scheme over an explicit row→partition map.
fn lookup_scheme(pairs: &[(u64, u32)], k: u32) -> Arc<dyn Scheme> {
    let entries: Vec<(u64, PartitionSet)> = pairs
        .iter()
        .map(|&(r, p)| (r, PartitionSet::single(p)))
        .collect();
    Arc::new(LookupScheme::new(
        k,
        vec![Some(
            Box::new(IndexBackend::new(entries)) as Box<dyn LookupBackend>
        )],
        vec![None],
        MissPolicy::HashRow,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every tuple whose placement changed appears in the plan exactly
    /// once; tuples with unchanged placement never appear; batch budgets
    /// hold.
    #[test]
    fn plan_moves_every_changed_tuple_exactly_once(
        rows in prop::collection::vec((0..200u64, 0..6u32, 0..6u32), 1..120),
        max_rows in 1..10usize,
    ) {
        // Dedup rows: the last write wins, as in a HashMap.
        let mut old_pairs: Vec<(u64, u32)> = Vec::new();
        let mut new_pairs: Vec<(u64, u32)> = Vec::new();
        for &(r, po, pn) in &rows {
            old_pairs.push((r, po));
            new_pairs.push((r, pn));
        }
        let old = assignment(&old_pairs);
        let new = assignment(&new_pairs);
        let cfg = PlanConfig { max_rows_per_batch: max_rows };
        let plan = plan_migration(&old, &new, &MaterializedDb::new(), &cfg);

        let changed: HashSet<TupleId> = new
            .iter()
            .filter(|(t, ps)| old.get(t).is_some_and(|o| o != *ps))
            .map(|(&t, _)| t)
            .collect();
        let mut seen: HashSet<TupleId> = HashSet::new();
        for m in plan.moves() {
            prop_assert!(seen.insert(m.tuple), "tuple {} moved twice", m.tuple);
            prop_assert!(changed.contains(&m.tuple), "tuple {} did not change", m.tuple);
            prop_assert_eq!(m.from, old[&m.tuple]);
            prop_assert_eq!(m.to, new[&m.tuple]);
        }
        prop_assert_eq!(seen.len(), changed.len(), "some changed tuple was never planned");
        prop_assert_eq!(plan.total_moves, changed.len());
        for b in &plan.batches {
            prop_assert!(!b.moves.is_empty());
            prop_assert!(b.moves.len() <= max_rows);
        }
    }

    /// Mid-migration the versioned scheme resolves every key to exactly
    /// one live partition at every step: the old owner before its move,
    /// the new owner after, never both and never none.
    #[test]
    fn versioned_router_single_owner_at_every_step(
        rows in prop::collection::vec((0..80u64, 0..5u32, 0..5u32), 1..60),
        k in 5..8u32,
    ) {
        let mut old_pairs: Vec<(u64, u32)> = Vec::new();
        let mut new_pairs: Vec<(u64, u32)> = Vec::new();
        for &(r, po, pn) in &rows {
            old_pairs.push((r, po));
            new_pairs.push((r, pn));
        }
        let old_map = assignment(&old_pairs);
        let new_map = assignment(&new_pairs);
        let db = MaterializedDb::new();
        let old = lookup_scheme(&old_pairs, k);
        let new = lookup_scheme(&new_pairs, k);
        let vs = VersionedScheme::new(old.clone(), new.clone());

        let plan = plan_migration(&old_map, &new_map, &db, &PlanConfig::default());
        let keys: Vec<TupleId> = old_map.keys().copied().collect();
        let mut moved: HashSet<TupleId> = HashSet::new();

        let check_all = |moved: &HashSet<TupleId>| {
            for &t in &keys {
                let loc = vs.locate_tuple(t, &db);
                assert_eq!(loc.len(), 1, "tuple {} has {} owners", t, loc.len());
                let expect = if moved.contains(&t) {
                    new.locate_tuple(t, &db)
                } else {
                    old.locate_tuple(t, &db)
                };
                assert_eq!(loc, expect, "tuple {t} resolved to the wrong epoch");
            }
        };

        check_all(&moved); // before the first batch
        // One-tuple flips in sequence, so every single move is observable.
        for (seq, m) in plan.moves().enumerate() {
            vs.flip_batch(seq as u64, [m.tuple]).unwrap();
            moved.insert(m.tuple);
            check_all(&moved); // after every single move
        }
        prop_assert_eq!(vs.moved_count(), plan.total_moves);
    }

    /// Relabeling never moves more tuples than the identity mapping, and
    /// its mapping is always a permutation.
    #[test]
    fn relabeling_never_worse_than_identity(
        rows in prop::collection::vec((0..300u64, 0..7u32, 0..7u32), 1..200),
        k in 1..8u32,
    ) {
        let old = assignment(
            &rows.iter().map(|&(r, p, _)| (r, p % k)).collect::<Vec<_>>(),
        );
        let new = assignment(
            &rows.iter().map(|&(r, _, p)| (r, p % k)).collect::<Vec<_>>(),
        );
        let r = relabel(&old, &new, k);
        prop_assert!(r.moved <= r.identity_moved);
        prop_assert!(r.moved <= r.common);
        let mut sorted = r.mapping.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..k).collect::<Vec<_>>(), "not a permutation");
    }
}
