//! The partitioning-scheme abstraction shared by the router, the cost
//! evaluator, and Schism's final validation phase.

use crate::pset::PartitionSet;
use crate::replica::ReplicaSet;
use schism_sql::Statement;
use schism_workload::{splitmix64, TupleId, TupleValues};

/// Scheme complexity, for the validation phase's tie-break (§4.4): "we
/// prefer hash partitioning or replication over predicate-based
/// partitioning, and predicate-based partitioning over lookup tables."
/// Lower is simpler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Complexity {
    Hash = 0,
    Replication = 1,
    Range = 2,
    Lookup = 3,
}

/// Collapsed routing verdict for one statement: the shape the serving
/// layer dispatches on, produced by [`Scheme::route_predicate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Exactly one partition serves the statement (a point route, or a
    /// replicated read collapsed to one chosen replica).
    Single(u32),
    /// A strict subset of the partitions must all participate.
    Multi(PartitionSet),
    /// Every partition must participate: nothing in the WHERE clause is
    /// routable under this scheme.
    Broadcast(PartitionSet),
}

impl RouteDecision {
    /// The partitions involved.
    pub fn targets(&self) -> PartitionSet {
        match self {
            RouteDecision::Single(p) => PartitionSet::single(*p),
            RouteDecision::Multi(s) | RouteDecision::Broadcast(s) => *s,
        }
    }
}

/// Deterministic member choice for any-one routes: the member minimizing
/// a salted splitmix, so the pick is stable for one statement but spreads
/// across members as the salt varies (per key, per statement).
pub fn pick_any(targets: &PartitionSet, salt: u64) -> Option<u32> {
    targets
        .iter()
        .min_by_key(|&p| splitmix64(u64::from(p) ^ salt))
}

/// Replica-pick salt derived from a statement's table, constrained
/// columns, and pinned values — equal statements always salt equally.
pub fn statement_salt(stmt: &Statement) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(stmt.table);
    let mut cols = Vec::new();
    stmt.predicate.collect_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    for c in cols {
        h = splitmix64(h ^ u64::from(c));
        if let Some(vs) = stmt.predicate.pinned_values(c) {
            for v in vs {
                if let Some(i) = v.as_int() {
                    h = splitmix64(h ^ i as u64);
                }
            }
        }
    }
    h
}

/// Where a statement must go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Candidate partitions.
    pub targets: PartitionSet,
    /// When true, any single member of `targets` suffices (replicated
    /// read); when false every member must participate.
    pub any_one: bool,
}

impl Route {
    pub fn must(targets: PartitionSet) -> Self {
        Self {
            targets,
            any_one: false,
        }
    }

    pub fn any(targets: PartitionSet) -> Self {
        Self {
            targets,
            any_one: true,
        }
    }
}

/// A replication/partitioning strategy.
///
/// `locate_tuple` returns the *copy set* of a tuple — every partition
/// holding a replica. Reads may pick any one member; writes must touch all
/// members. `route_statement` is the runtime path used by the middleware
/// router, driven by WHERE-clause predicates.
pub trait Scheme: Send + Sync {
    /// Short human-readable description (e.g. `"hash(w_id)"`).
    fn name(&self) -> String;

    /// Number of partitions.
    fn k(&self) -> u32;

    /// Complexity rank for validation tie-breaks.
    fn complexity(&self) -> Complexity;

    /// Copy set of `t`. Never empty.
    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet;

    /// Partitions a statement must reach, based on its predicate.
    fn route_statement(&self, stmt: &Statement) -> Route;

    /// Collapses [`route_statement`](Self::route_statement) into a
    /// [`RouteDecision`]: the single shared routing entry point for the
    /// serving and simulation layers. Any-one routes (replicated reads)
    /// pick one member deterministically via [`pick_any`], salted by the
    /// statement so distinct keys spread across replicas while one key
    /// never flip-flops; must-routes covering every partition become
    /// [`RouteDecision::Broadcast`].
    fn route_predicate(&self, stmt: &Statement) -> RouteDecision {
        self.route_predicate_salted(stmt, statement_salt(stmt))
    }

    /// [`route_predicate`](Self::route_predicate) with an explicit replica
    /// pick salt. Sessions feed a per-statement counter-derived salt here
    /// so *repeated* statements (a closed-loop client hammering one key)
    /// still spread across replicas, where the statement-derived salt
    /// alone would pin them all to one member.
    fn route_predicate_salted(&self, stmt: &Statement, salt: u64) -> RouteDecision {
        let r = self.route_statement(stmt);
        if r.any_one {
            if let Some(p) = pick_any(&r.targets, salt) {
                return RouteDecision::Single(p);
            }
        }
        if r.targets.is_single() {
            return RouteDecision::Single(r.targets.first().expect("non-empty route"));
        }
        if r.targets.len() >= self.k() {
            RouteDecision::Broadcast(r.targets)
        } else {
            RouteDecision::Multi(r.targets)
        }
    }

    /// Leader/follower split of `t`'s copy set. The default names the
    /// first copy leader and the rest followers, which makes the leader
    /// deterministic for every scheme. Schemes that place replicas
    /// deliberately (e.g. [`ReplicatedScheme`](crate::ReplicatedScheme))
    /// override this; [`VersionedScheme`](crate::VersionedScheme)
    /// delegates per tuple to whichever epoch currently owns it.
    fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> ReplicaSet {
        ReplicaSet::from_copies(&self.locate_tuple(t, db))
    }

    /// The shards a read fan-out can use while the shards in `down` are
    /// failed, or `None` when the statement's rows cannot all be covered
    /// by live shards. The default has no redundancy to offer: any down
    /// target makes the read uncoverable.
    /// [`ReplicatedScheme`](crate::ReplicatedScheme) overrides this to
    /// drop down members whose replica group still has a live copy.
    fn route_read_fallback(&self, stmt: &Statement, down: &PartitionSet) -> Option<PartitionSet> {
        let targets = self.route_statement(stmt).targets;
        if targets.intersect(down).is_empty() {
            Some(targets)
        } else {
            None
        }
    }

    /// Copy sets a *write* to tuple `t` must reach, as ordered phases:
    /// callers must fully apply (and observe completion of) each phase
    /// before starting the next, and only acknowledge the write after all
    /// of them. For a plain scheme every copy is one phase.
    ///
    /// Two overrides give the ordering its meaning:
    /// [`ReplicatedScheme`](crate::ReplicatedScheme) puts the leader in
    /// phase 0 and followers in phase 1 (leader-first, STAR-style
    /// synchronous apply), and [`VersionedScheme`](crate::VersionedScheme)
    /// appends the new placement's extra copies as a *final* phase — the
    /// old placement lands first, which is what makes a concurrent
    /// copy→verify→flip migration unable to lose an acknowledged write
    /// (the verify step re-reads the source, so a source write before the
    /// destination write is always either re-copied or already present).
    fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
        vec![self.locate_tuple(t, db)]
    }

    /// Statement-level analogue of [`write_phases`](Self::write_phases)
    /// for writes whose WHERE clause pins no key (scan-writes): the
    /// ordered phases of partitions the statement must reach.
    fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
        vec![self.route_statement(stmt).targets]
    }
}

/// Full-table replication of the entire database: reads are local
/// everywhere, every write touches all partitions (§4.4's "full-table
/// replication" baseline).
#[derive(Clone, Debug)]
pub struct ReplicationScheme {
    k: u32,
}

impl ReplicationScheme {
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        Self { k }
    }
}

impl Scheme for ReplicationScheme {
    fn name(&self) -> String {
        "full-replication".to_owned()
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Replication
    }

    fn locate_tuple(&self, _t: TupleId, _db: &dyn TupleValues) -> PartitionSet {
        PartitionSet::all(self.k)
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        if stmt.kind.is_write() {
            Route::must(PartitionSet::all(self.k))
        } else {
            Route::any(PartitionSet::all(self.k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_sql::{Predicate, Value};
    use schism_workload::MaterializedDb;

    #[test]
    fn replication_semantics() {
        let s = ReplicationScheme::new(4);
        let db = MaterializedDb::new();
        let loc = s.locate_tuple(TupleId::new(0, 5), &db);
        assert_eq!(loc.len(), 4);
        let read = s.route_statement(&Statement::select(0, Predicate::Eq(0, Value::Int(1))));
        assert!(read.any_one);
        let write = s.route_statement(&Statement::update(0, Predicate::Eq(0, Value::Int(1))));
        assert!(!write.any_one);
        assert_eq!(write.targets.len(), 4);
        assert_eq!(s.complexity(), Complexity::Replication);
    }

    #[test]
    fn complexity_ordering_matches_paper() {
        assert!(Complexity::Hash < Complexity::Replication);
        assert!(Complexity::Replication < Complexity::Range);
        assert!(Complexity::Range < Complexity::Lookup);
    }

    #[test]
    fn route_predicate_collapses_replicated_reads_to_one_replica() {
        let s = ReplicationScheme::new(4);
        let read = Statement::select(0, Predicate::Eq(0, Value::Int(7)));
        match s.route_predicate(&read) {
            RouteDecision::Single(p) => assert!(p < 4),
            other => panic!("expected Single, got {other:?}"),
        }
        // Deterministic: the same statement always picks the same replica.
        assert_eq!(s.route_predicate(&read), s.route_predicate(&read));
        // Distinct keys spread across replicas.
        let picks: std::collections::HashSet<u32> = (0..64)
            .map(|i| {
                match s.route_predicate(&Statement::select(0, Predicate::Eq(0, Value::Int(i)))) {
                    RouteDecision::Single(p) => p,
                    other => panic!("expected Single, got {other:?}"),
                }
            })
            .collect();
        assert!(picks.len() > 1, "replica picks should spread over keys");
    }

    #[test]
    fn route_predicate_classifies_broadcast_and_multi() {
        use crate::hash::HashScheme;
        let s = HashScheme::by_attrs(16, vec![Some(0)]);
        // Unpinned predicate: every partition participates.
        let scan = Statement::select(0, Predicate::True);
        match s.route_predicate(&scan) {
            RouteDecision::Broadcast(t) => assert_eq!(t.len(), 16),
            other => panic!("expected Broadcast, got {other:?}"),
        }
        // Pinned equality: a single partition.
        let point = Statement::select(0, Predicate::Eq(0, Value::Int(5)));
        assert!(matches!(
            s.route_predicate(&point),
            RouteDecision::Single(_)
        ));
        // An IN-list over several keys: a strict subset.
        let multi = Statement::select(0, Predicate::In(0, (0..8).map(Value::Int).collect()));
        match s.route_predicate(&multi) {
            RouteDecision::Multi(t) => assert!(t.len() > 1 && t.len() < 16),
            RouteDecision::Single(_) => {} // hash collisions could collapse it
            other => panic!("expected Multi/Single, got {other:?}"),
        }
    }

    #[test]
    fn default_write_phases_put_everything_in_one_phase() {
        use schism_workload::MaterializedDb;
        let s = ReplicationScheme::new(3);
        let db = MaterializedDb::new();
        let phases = s.write_phases(TupleId::new(0, 4), &db);
        assert_eq!(phases, vec![PartitionSet::all(3)]);
        let w = Statement::update(0, Predicate::True);
        assert_eq!(s.route_write_phases(&w), vec![PartitionSet::all(3)]);
    }

    #[test]
    fn default_replica_set_names_first_copy_leader() {
        use schism_workload::MaterializedDb;
        let s = ReplicationScheme::new(3);
        let db = MaterializedDb::new();
        let rs = s.replica_set(TupleId::new(0, 4), &db);
        assert_eq!(rs.leader, 0);
        assert_eq!(rs.followers, [1u32, 2].into_iter().collect());
        assert_eq!(rs.all(), PartitionSet::all(3));
    }

    #[test]
    fn route_predicate_salted_spreads_one_statement_across_replicas() {
        let s = ReplicationScheme::new(4);
        let read = Statement::select(0, Predicate::Eq(0, Value::Int(7)));
        let picks: std::collections::HashSet<u32> = (0..64u64)
            .map(
                |salt| match s.route_predicate_salted(&read, splitmix64(salt)) {
                    RouteDecision::Single(p) => p,
                    other => panic!("expected Single, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(picks.len(), 4, "varying salts must reach every replica");
        // And a fixed salt is stable.
        assert_eq!(
            s.route_predicate_salted(&read, 42),
            s.route_predicate_salted(&read, 42)
        );
    }

    #[test]
    fn route_decision_accessors() {
        let d = RouteDecision::Single(3);
        assert_eq!(d.targets(), PartitionSet::single(3));
        let set: PartitionSet = [0u32, 2].into_iter().collect();
        assert_eq!(RouteDecision::Multi(set).targets(), set);
        assert_eq!(RouteDecision::Broadcast(set).targets(), set);
    }
}
