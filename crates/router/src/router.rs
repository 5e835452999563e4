//! Replication-aware transaction routing.
//!
//! Given a transaction's read/write tuple sets and a scheme, compute the
//! participant set: writes touch every copy of a tuple; reads may pick any
//! single copy, and per §5.4 "Schism attempts to choose a replica on a
//! partition that has already been accessed in the same transaction". The
//! residual choice is a small set-cover problem solved greedily.

use crate::pset::{PartitionSet, MAX_PARTITIONS};
use crate::scheme::Scheme;
use schism_workload::{splitmix64, Transaction, TupleValues};

/// Routes a transaction: returns the minimal-ish participant set. The
/// transaction is distributed when the set holds more than one partition.
pub fn route_transaction(
    txn: &Transaction,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
) -> PartitionSet {
    let mut participants = PartitionSet::empty();

    // Writes pin every copy.
    for &w in &txn.writes {
        participants.union_with(&scheme.locate_tuple(w, db));
    }

    // Reads: fixed single-copy reads first, then the flexible (replicated)
    // ones via greedy cover.
    let mut flexible: Vec<PartitionSet> = Vec::new();
    for r in txn.reads.iter().chain(txn.scans.iter().flatten()) {
        let pset = scheme.locate_tuple(*r, db);
        if pset.is_single() {
            participants.union_with(&pset);
        } else {
            flexible.push(pset);
        }
    }

    // Drop flexible reads already satisfied by a chosen participant, then
    // repeatedly pick the partition covering the most remaining reads.
    // Count ties are broken by a per-transaction pseudo-random preference:
    // a fixed tie-break (e.g. lowest id) would route every fully-replicated
    // read-only transaction to the same partition and destroy load balance.
    // `splitmix64` is a bijection, so no two partitions tie on the key.
    flexible.retain(|p| p.intersect(&participants).is_empty());
    let salt = txn
        .accessed()
        .next()
        .map(|t| t.row ^ (t.table as u64).rotate_left(32))
        .unwrap_or(0);
    while !flexible.is_empty() {
        let mut counts = [0u32; MAX_PARTITIONS as usize];
        let mut candidates = PartitionSet::empty();
        for pset in &flexible {
            candidates.union_with(pset);
            for p in pset.iter() {
                counts[p as usize] += 1;
            }
        }
        let best = candidates
            .iter()
            .max_by_key(|&p| (counts[p as usize], splitmix64(p as u64 ^ salt)))
            .expect("flexible non-empty");
        participants.insert(best);
        flexible.retain(|p| !p.contains(best));
    }

    // A transaction with no accesses still runs somewhere.
    if participants.is_empty() {
        participants.insert(0);
    }
    participants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{IndexBackend, LookupScheme, MissPolicy};
    use crate::scheme::ReplicationScheme;
    use proptest::prelude::*;
    use schism_workload::{MaterializedDb, TupleId, TxnBuilder};
    use std::collections::HashMap;

    fn lookup_scheme(entries: Vec<(u64, PartitionSet)>) -> LookupScheme {
        LookupScheme::new(
            4,
            vec![Some(Box::new(IndexBackend::new(entries)) as Box<_>)],
            vec![None],
            MissPolicy::HashRow,
        )
    }

    #[test]
    fn single_partition_transaction() {
        let s = lookup_scheme(vec![
            (0, PartitionSet::single(2)),
            (1, PartitionSet::single(2)),
        ]);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.read(TupleId::new(0, 0)).write(TupleId::new(0, 1));
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p, PartitionSet::single(2));
    }

    #[test]
    fn replicated_read_joins_write_partition() {
        // Tuple 0 replicated on {0,1,2,3}; write forces partition 3; the
        // read must NOT add a second participant.
        let s = lookup_scheme(vec![
            (0, PartitionSet::all(4)),
            (1, PartitionSet::single(3)),
        ]);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.read(TupleId::new(0, 0)).write(TupleId::new(0, 1));
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p, PartitionSet::single(3));
    }

    #[test]
    fn write_to_replicated_tuple_is_distributed() {
        let s = lookup_scheme(vec![(0, PartitionSet::all(4))]);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.write(TupleId::new(0, 0));
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn greedy_cover_prefers_shared_partition() {
        // Two replicated reads {0,1} and {1,2}: one participant (1) covers
        // both.
        let s = lookup_scheme(vec![
            (0, [0u32, 1].into_iter().collect()),
            (1, [1u32, 2].into_iter().collect()),
        ]);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.read(TupleId::new(0, 0)).read(TupleId::new(0, 1));
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p, PartitionSet::single(1));
    }

    #[test]
    fn full_replication_reads_local_writes_everywhere() {
        let s = ReplicationScheme::new(3);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.read(TupleId::new(0, 0))
            .read(TupleId::new(0, 1))
            .read(TupleId::new(1, 5));
        let p = route_transaction(&b.finish(), &s, &db);
        assert!(
            p.is_single(),
            "read-only under replication is local: {:?}",
            p
        );
        let mut b = TxnBuilder::new(false);
        b.write(TupleId::new(0, 0));
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn empty_transaction_gets_a_home() {
        let s = ReplicationScheme::new(2);
        let db = MaterializedDb::new();
        let p = route_transaction(&TxnBuilder::new(false).finish(), &s, &db);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn scan_groups_participate() {
        let s = lookup_scheme(vec![
            (0, PartitionSet::single(0)),
            (1, PartitionSet::single(1)),
        ]);
        let db = MaterializedDb::new();
        let mut b = TxnBuilder::new(false);
        b.scan(vec![TupleId::new(0, 0), TupleId::new(0, 1)]);
        let p = route_transaction(&b.finish(), &s, &db);
        assert_eq!(p.len(), 2);
    }

    /// The greedy cover as it was first written, counting into a map per
    /// round: the oracle the counting array must reproduce.
    fn route_with_map(
        txn: &Transaction,
        scheme: &dyn Scheme,
        db: &dyn TupleValues,
    ) -> PartitionSet {
        let mut participants = PartitionSet::empty();
        for &w in &txn.writes {
            participants.union_with(&scheme.locate_tuple(w, db));
        }
        let mut flexible: Vec<PartitionSet> = Vec::new();
        for r in txn.reads.iter().chain(txn.scans.iter().flatten()) {
            let pset = scheme.locate_tuple(*r, db);
            if pset.is_single() {
                participants.union_with(&pset);
            } else {
                flexible.push(pset);
            }
        }
        flexible.retain(|p| p.intersect(&participants).is_empty());
        let salt = txn
            .accessed()
            .next()
            .map(|t| t.row ^ (t.table as u64).rotate_left(32))
            .unwrap_or(0);
        while !flexible.is_empty() {
            let mut counts = HashMap::new();
            for pset in &flexible {
                for p in pset.iter() {
                    *counts.entry(p).or_insert(0usize) += 1;
                }
            }
            let (&best, _) = counts
                .iter()
                .max_by_key(|&(p, &c)| (c, splitmix64(*p as u64 ^ salt)))
                .expect("flexible non-empty");
            participants.insert(best);
            flexible.retain(|p| !p.contains(best));
        }
        if participants.is_empty() {
            participants.insert(0);
        }
        participants
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random copy sets over 1 to 256 partitions, random reads, scans
        /// and writes: the counting array picks what the map picked.
        #[test]
        fn greedy_cover_matches_the_map_oracle(
            (log_k, copies, reads, writes, seed) in (
                0..=8u32,
                1..=6u32,
                prop::collection::vec(0..64u64, 0..24),
                prop::collection::vec(0..64u64, 0..3),
                0..u64::MAX,
            ),
        ) {
            let k = (1u32 << log_k).min(MAX_PARTITIONS);
            let entries = (0..64u64).map(|row| {
                let h = splitmix64(seed ^ row);
                let n = 1 + (h % u64::from(copies)) as u32;
                let set = (0..n)
                    .map(|i| (splitmix64(h.wrapping_add(u64::from(i))) % u64::from(k)) as u32)
                    .collect();
                (row, set)
            });
            let scheme = LookupScheme::new(
                k,
                vec![Some(Box::new(IndexBackend::new(entries)) as Box<_>)],
                vec![None],
                MissPolicy::HashRow,
            );
            let db = MaterializedDb::new();
            let mut b = TxnBuilder::new(false);
            let (scan, point) = reads.split_at(reads.len() / 3);
            for &r in point {
                b.read(TupleId::new(0, r));
            }
            if !scan.is_empty() {
                b.scan(scan.iter().map(|&r| TupleId::new(0, r)).collect());
            }
            for &w in &writes {
                b.write(TupleId::new(0, w));
            }
            let txn = b.finish();
            prop_assert_eq!(
                route_transaction(&txn, &scheme, &db),
                route_with_map(&txn, &scheme, &db)
            );
        }
    }
}
