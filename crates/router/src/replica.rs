//! Per-tuple replica sets: the leader/follower structure the serving
//! layer's replicated execution is built on (paper §3.2's replicated
//! tuples, with STAR-style asymmetric roles — writes go to the leader and
//! are applied synchronously on followers before acknowledgement; reads
//! may be served by any member).
//!
//! [`ReplicaSet`] is the split itself; [`ReplicatedScheme`] wraps any
//! base [`Scheme`] and replicates every tuple onto `rf` ring-successor
//! partitions of its base placement, which keeps the leader exactly where
//! the unreplicated scheme would have put the tuple (so replication can
//! be layered onto an existing placement without moving anything).

use crate::pset::PartitionSet;
use crate::scheme::{Complexity, Route, Scheme};
use schism_sql::Statement;
use schism_workload::{TupleId, TupleValues};
use std::sync::Arc;

/// One tuple's copy set split into roles: a single leader (all writes
/// enter here first; point of truth for read-your-writes) and zero or
/// more followers (synchronously applied replicas that may serve reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaSet {
    /// The partition every write reaches first.
    pub leader: u32,
    /// Synchronous replicas; never contains `leader`.
    pub followers: PartitionSet,
}

impl ReplicaSet {
    /// Splits an undifferentiated copy set: the first copy leads, the rest
    /// follow. Panics on an empty copy set (schemes never produce one).
    pub fn from_copies(copies: &PartitionSet) -> Self {
        let leader = copies.first().expect("copy set must be non-empty");
        Self {
            leader,
            followers: copies.difference(&PartitionSet::single(leader)),
        }
    }

    /// Leader and followers together.
    pub fn all(&self) -> PartitionSet {
        self.followers.union(&PartitionSet::single(self.leader))
    }

    /// Whether the tuple has any follower at all.
    pub fn is_replicated(&self) -> bool {
        !self.followers.is_empty()
    }

    /// The majority-quorum size over the **full** replica set (leader
    /// included), counting every member whether currently live or not:
    /// `⌊n/2⌋ + 1`. A write is acknowledgeable once this many members
    /// (one of them the acting leader) have applied it; with fewer than
    /// this many live members the group must refuse writes rather than
    /// ack against a minority (Spinnaker's rule, arXiv 1103.2408).
    pub fn quorum(&self) -> u32 {
        self.all().len() / 2 + 1
    }
}

/// Replicates every tuple of a base scheme onto `rf` partitions: the base
/// placement's first copy stays leader, and the `rf - 1` ring successors
/// (`leader + i mod k`) become followers.
///
/// Routing semantics:
/// - point reads (base route hits one partition) may be served by **any**
///   member of the group — [`Scheme::route_predicate_salted`] picks one;
/// - writes must reach the whole group, leader first
///   ([`write_phases`](Scheme::write_phases) =
///   `[{leader}, followers]`);
/// - multi-partition reads fan out to every member and rely on the
///   serving layer's per-tuple dedup — which is what lets a scan survive
///   a down leader: dropping the dead shard from the fan-out still leaves
///   every tuple covered by a live replica.
pub struct ReplicatedScheme {
    inner: Arc<dyn Scheme>,
    rf: u32,
}

impl ReplicatedScheme {
    /// Wraps `inner`, replicating every tuple onto `rf` partitions total
    /// (`rf = 1` degenerates to the base scheme's placement).
    pub fn new(rf: u32, inner: Arc<dyn Scheme>) -> Self {
        assert!(
            rf >= 1 && rf <= inner.k(),
            "replication factor {rf} outside [1, k={}]",
            inner.k()
        );
        Self { inner, rf }
    }

    /// The wrapped base scheme.
    pub fn inner(&self) -> &Arc<dyn Scheme> {
        &self.inner
    }

    /// The replication factor.
    pub fn rf(&self) -> u32 {
        self.rf
    }

    /// The replica group led by partition `leader`: the ring successors
    /// that hold copies of everything `leader` leads.
    fn group_of(&self, leader: u32) -> PartitionSet {
        let k = self.inner.k();
        (0..self.rf).map(|i| (leader + i) % k).collect()
    }

    /// Expands a base-route target set to the union of its replica groups.
    fn expand(&self, targets: &PartitionSet) -> PartitionSet {
        let mut out = PartitionSet::empty();
        for p in targets.iter() {
            out.union_with(&self.group_of(p));
        }
        out
    }
}

impl Scheme for ReplicatedScheme {
    fn name(&self) -> String {
        format!("replicated(rf={}, {})", self.rf, self.inner.name())
    }

    fn k(&self) -> u32 {
        self.inner.k()
    }

    fn complexity(&self) -> Complexity {
        self.inner.complexity().max(Complexity::Replication)
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        self.replica_set(t, db).all()
    }

    fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> ReplicaSet {
        let leader = self
            .inner
            .locate_tuple(t, db)
            .first()
            .expect("base scheme produced an empty copy set");
        ReplicaSet {
            leader,
            followers: self
                .group_of(leader)
                .difference(&PartitionSet::single(leader)),
        }
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        let base = self.inner.route_statement(stmt);
        if stmt.kind.is_write() {
            // Writes reach every copy; ordering is route_write_phases' job.
            Route::must(self.expand(&base.targets))
        } else if base.targets.is_single() {
            // A point read: any member of the one group can serve it.
            Route::any(self.expand(&base.targets))
        } else {
            // A multi-partition read: fan out to all replicas and let the
            // gather layer dedup per tuple (see type docs).
            Route::must(self.expand(&base.targets))
        }
    }

    fn route_read_fallback(&self, stmt: &Statement, down: &PartitionSet) -> Option<PartitionSet> {
        let base = self.inner.route_statement(stmt).targets;
        // Every touched replica group must keep at least one live member;
        // then the live members of the expanded fan-out cover everything.
        for leader in base.iter() {
            if self.group_of(leader).difference(down).is_empty() {
                return None;
            }
        }
        Some(self.expand(&base).difference(down))
    }

    fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
        let rs = self.replica_set(t, db);
        if rs.is_replicated() {
            vec![PartitionSet::single(rs.leader), rs.followers]
        } else {
            vec![PartitionSet::single(rs.leader)]
        }
    }

    fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
        let leaders = self.inner.route_statement(stmt).targets;
        let followers = self.expand(&leaders).difference(&leaders);
        if followers.is_empty() {
            vec![leaders]
        } else {
            vec![leaders, followers]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashScheme;
    use crate::scheme::RouteDecision;
    use schism_sql::{Predicate, Value};
    use schism_workload::MaterializedDb;

    fn scheme(k: u32, rf: u32) -> ReplicatedScheme {
        ReplicatedScheme::new(rf, Arc::new(HashScheme::by_attrs(k, vec![Some(0)])))
    }

    #[test]
    fn replica_set_split_roundtrips() {
        let copies: PartitionSet = [2u32, 5, 7].into_iter().collect();
        let rs = ReplicaSet::from_copies(&copies);
        assert_eq!(rs.leader, 2);
        assert_eq!(rs.followers, [5u32, 7].into_iter().collect());
        assert!(rs.is_replicated());
        assert_eq!(rs.all(), copies);
        let solo = ReplicaSet::from_copies(&PartitionSet::single(3));
        assert!(!solo.is_replicated());
        assert_eq!(solo.all(), PartitionSet::single(3));
    }

    #[test]
    fn quorum_is_a_strict_majority_of_the_full_set() {
        assert_eq!(
            ReplicaSet::from_copies(&PartitionSet::single(0)).quorum(),
            1
        );
        let rf2 = ReplicaSet::from_copies(&[0u32, 1].into_iter().collect());
        assert_eq!(rf2.quorum(), 2, "rf=2 tolerates no failure");
        let rf3 = ReplicaSet::from_copies(&[0u32, 1, 2].into_iter().collect());
        assert_eq!(rf3.quorum(), 2, "rf=3 tolerates one failure");
        let rf5 = ReplicaSet::from_copies(&[0u32, 1, 2, 3, 4].into_iter().collect());
        assert_eq!(rf5.quorum(), 3);
    }

    #[test]
    fn leader_stays_on_base_placement() {
        let s = scheme(4, 3);
        let db = MaterializedDb::new();
        for row in 0..32u64 {
            let t = TupleId::new(0, row);
            let base = s.inner().locate_tuple(t, &db).first().unwrap();
            let rs = s.replica_set(t, &db);
            assert_eq!(rs.leader, base, "replication must not move the leader");
            assert_eq!(rs.followers.len(), 2);
            assert!(!rs.followers.contains(rs.leader));
            assert_eq!(s.locate_tuple(t, &db), rs.all());
        }
    }

    #[test]
    fn ring_wraps_and_rf_one_degenerates() {
        let s = scheme(4, 2);
        let db = MaterializedDb::new();
        // Some tuple leads on partition 3; its follower must wrap to 0.
        let wrapped = (0..64u64)
            .map(|r| s.replica_set(TupleId::new(0, r), &db))
            .find(|rs| rs.leader == 3)
            .expect("hash spreads over all partitions");
        assert_eq!(wrapped.followers, PartitionSet::single(0));
        let solo = scheme(4, 1);
        let t = TupleId::new(0, 9);
        assert!(!solo.replica_set(t, &db).is_replicated());
        assert_eq!(solo.locate_tuple(t, &db), solo.inner().locate_tuple(t, &db));
        assert_eq!(solo.write_phases(t, &db).len(), 1);
    }

    #[test]
    fn writes_phase_leader_before_followers() {
        let s = scheme(4, 3);
        let db = MaterializedDb::new();
        let t = TupleId::new(0, 5);
        let rs = s.replica_set(t, &db);
        let phases = s.write_phases(t, &db);
        assert_eq!(phases, vec![PartitionSet::single(rs.leader), rs.followers]);
        // Statement-level: leaders of the touched groups, then followers.
        // A broadcast write's groups cover everything, so every partition
        // already leads and the follower phase collapses away.
        let w = Statement::update(0, Predicate::True);
        let phases = s.route_write_phases(&w);
        assert_eq!(phases, vec![PartitionSet::all(4)]);
        let point = Statement::update(0, Predicate::Eq(0, Value::Int(5)));
        let phases = s.route_write_phases(&point);
        assert_eq!(phases[0].len(), 1);
        assert_eq!(phases[1].len(), 2);
        assert!(phases[0].intersect(&phases[1]).is_empty());
    }

    #[test]
    fn point_reads_offer_any_replica_and_spread_by_salt() {
        let s = scheme(4, 3);
        let read = Statement::select(0, Predicate::Eq(0, Value::Int(5)));
        let r = s.route_statement(&read);
        assert!(r.any_one);
        assert_eq!(r.targets.len(), 3);
        let picks: std::collections::HashSet<u32> = (0..64u64)
            .map(
                |salt| match s.route_predicate_salted(&read, salt.wrapping_mul(0x9E37)) {
                    RouteDecision::Single(p) => p,
                    other => panic!("expected Single, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(picks.len(), 3, "salted picks must cover the whole group");
        for p in picks {
            assert!(r.targets.contains(p));
        }
    }

    #[test]
    fn scan_reads_fan_out_to_every_replica() {
        let s = scheme(4, 2);
        let scan = Statement::select(0, Predicate::True);
        let r = s.route_statement(&scan);
        assert!(!r.any_one);
        assert_eq!(r.targets, PartitionSet::all(4));
        assert_eq!(s.complexity(), Complexity::Replication);
        assert!(s.name().starts_with("replicated(rf=2"));
    }
}
