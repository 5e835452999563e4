//! Versioned scheme swap: correct routing *during* a live migration.
//!
//! While a migration plan executes, two placements are live at once: tuples
//! not yet moved still live where the **old** scheme says, tuples already
//! moved live where the **new** scheme says. [`VersionedScheme`] pairs the
//! two schemes with a per-tuple moved-set and routes accordingly, the same
//! way the lookup-table backends pair a [`crate::PartitionSet`] per row:
//!
//! - `locate_tuple` consults the moved-set and delegates to exactly one of
//!   the two schemes, so a single-owner tuple has a single owner at every
//!   instant of the migration (the property tests in the umbrella crate
//!   prove this along full move sequences);
//! - `route_statement` must be conservative — a predicate can match both
//!   moved and unmoved tuples, so the route is the union of both schemes'
//!   routes and stays `must`-semantics unless both sides allow any-one.
//!
//! The moved-set is interior-mutable (`RwLock`) because the router shares
//! schemes as `&dyn Scheme`; flipping a batch is the commit point of its
//! copy.
//!
//! ## Acknowledgement-driven flips
//!
//! The executor-facing API is [`flip_batch`](VersionedScheme::flip_batch):
//! batches flip strictly in plan order, each flip carrying the sequence
//! number of the batch whose copy was verified — the acknowledgement. An
//! out-of-order or duplicate flip is rejected with [`FlipError`] instead of
//! silently advancing the moved-set, so routing can never *lead* the bytes:
//! a tuple routes to the new placement only after its batch's copy has been
//! acknowledged. It is the moved-set's only writer.

use crate::pset::PartitionSet;
use crate::scheme::{Complexity, Route, Scheme};
use schism_sql::Statement;
use schism_workload::{TupleId, TupleState, TupleValues};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, RwLock};

/// An out-of-order or duplicate batch flip: the moved-set only advances on
/// the acknowledgement of the next expected batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlipError {
    /// The sequence number the scheme expected next.
    pub expected: u64,
    /// The sequence number the caller tried to flip.
    pub got: u64,
}

impl fmt::Display for FlipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch flip out of order: expected seq {}, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for FlipError {}

#[derive(Default)]
struct MovedState {
    set: HashSet<TupleId, TupleState>,
    /// Number of batches flipped; also the next expected sequence number.
    flipped_batches: u64,
}

/// A scheme pair (old → new) plus the set of tuples already migrated.
pub struct VersionedScheme {
    old: Arc<dyn Scheme>,
    new: Arc<dyn Scheme>,
    moved: RwLock<MovedState>,
}

impl VersionedScheme {
    /// Starts a migration epoch: everything still routes to `old`.
    pub fn new(old: Arc<dyn Scheme>, new: Arc<dyn Scheme>) -> Self {
        Self {
            old,
            new,
            moved: RwLock::new(MovedState::default()),
        }
    }

    /// Flips batch `seq` on acknowledgement of its verified copy. Batches
    /// flip strictly in order: `seq` must equal
    /// [`flipped_batches`](Self::flipped_batches), otherwise nothing
    /// changes and a [`FlipError`] reports the expected sequence. The flip
    /// is atomic — a concurrent reader sees the whole batch moved or none
    /// of it. Returns the number of newly moved tuples.
    pub fn flip_batch<I: IntoIterator<Item = TupleId>>(
        &self,
        seq: u64,
        tuples: I,
    ) -> Result<usize, FlipError> {
        let mut state = self.moved.write().expect("moved-set poisoned");
        if seq != state.flipped_batches {
            return Err(FlipError {
                expected: state.flipped_batches,
                got: seq,
            });
        }
        state.flipped_batches += 1;
        Ok(tuples.into_iter().filter(|&t| state.set.insert(t)).count())
    }

    /// Number of batches flipped; equivalently, the next expected
    /// sequence number.
    pub fn flipped_batches(&self) -> u64 {
        self.moved
            .read()
            .expect("moved-set poisoned")
            .flipped_batches
    }

    /// Whether `t` has been migrated.
    pub fn is_moved(&self, t: TupleId) -> bool {
        self.moved
            .read()
            .expect("moved-set poisoned")
            .set
            .contains(&t)
    }

    /// Number of tuples migrated so far.
    pub fn moved_count(&self) -> usize {
        self.moved.read().expect("moved-set poisoned").set.len()
    }

    /// Ends the epoch: the new scheme is authoritative for everything.
    /// Callers swap the returned scheme into the router and drop `self`.
    pub fn finalize(self) -> Arc<dyn Scheme> {
        self.new
    }
}

impl Scheme for VersionedScheme {
    fn name(&self) -> String {
        format!("versioned({} -> {})", self.old.name(), self.new.name())
    }

    fn k(&self) -> u32 {
        self.old.k().max(self.new.k())
    }

    fn complexity(&self) -> Complexity {
        self.old.complexity().max(self.new.complexity())
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        if self.is_moved(t) {
            self.new.locate_tuple(t, db)
        } else {
            self.old.locate_tuple(t, db)
        }
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        let a = self.old.route_statement(stmt);
        let b = self.new.route_statement(stmt);
        Route {
            targets: a.targets.union(&b.targets),
            // Any-one is only safe if both epochs would allow it (a
            // replicated read can be served anywhere in either placement).
            any_one: a.any_one && b.any_one,
        }
    }

    /// Replica roles follow ownership: a moved tuple's leader and
    /// followers are the new epoch's, an unmoved tuple's the old epoch's.
    /// New-epoch pre-copies of an unmoved tuple are *not* part of its
    /// replica set — they lag until their batch is copied, so they are
    /// never promotion candidates (see the serving layer's failover docs).
    fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> crate::replica::ReplicaSet {
        if self.is_moved(t) {
            self.new.replica_set(t, db)
        } else {
            self.old.replica_set(t, db)
        }
    }

    /// Both epochs must be able to cover their tuples from live shards: a
    /// predicate can match moved and unmoved tuples alike, so the
    /// fallback is the union of both epochs' fallbacks (and `None` as
    /// soon as either epoch is uncoverable).
    fn route_read_fallback(&self, stmt: &Statement, down: &PartitionSet) -> Option<PartitionSet> {
        let a = self.old.route_read_fallback(stmt, down)?;
        let b = self.new.route_read_fallback(stmt, down)?;
        Some(a.union(&b))
    }

    /// Mid-migration write ordering: a moved tuple is wholly owned by the
    /// new placement (its own phases apply); an unmoved tuple writes its
    /// authoritative old-epoch phases first, then pre-writes any extra
    /// new-epoch copies as one final phase. The executor's verify step
    /// re-reads the source, so this ordering guarantees a
    /// verified-then-flipped batch always carries (or is followed onto the
    /// destination by) every acknowledged write.
    fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
        if self.is_moved(t) {
            self.new.write_phases(t, db)
        } else {
            let mut phases = self.old.write_phases(t, db);
            let old_all = self.old.locate_tuple(t, db);
            let extra = self.new.locate_tuple(t, db).difference(&old_all);
            if !extra.is_empty() {
                phases.push(extra);
            }
            phases
        }
    }

    fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
        // A predicate can match moved and unmoved tuples alike, so be
        // conservative: the old epoch's phases first, then whatever the
        // new epoch adds on top.
        let mut phases = self.old.route_write_phases(stmt);
        let old_all = self.old.route_statement(stmt).targets;
        let extra = self.new.route_statement(stmt).targets.difference(&old_all);
        if !extra.is_empty() {
            phases.push(extra);
        }
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashScheme;
    use crate::scheme::ReplicationScheme;
    use schism_sql::{Predicate, Value};
    use schism_workload::MaterializedDb;

    fn hash_pair() -> (Arc<dyn Scheme>, Arc<dyn Scheme>) {
        (
            Arc::new(HashScheme::by_row_id(2)) as Arc<dyn Scheme>,
            Arc::new(HashScheme::by_row_id(4)) as Arc<dyn Scheme>,
        )
    }

    #[test]
    fn routes_old_until_moved_then_new() {
        let (old, new) = hash_pair();
        let db = MaterializedDb::new();
        let vs = VersionedScheme::new(old.clone(), new.clone());
        let t = TupleId::new(0, 42);
        assert_eq!(vs.locate_tuple(t, &db), old.locate_tuple(t, &db));
        assert_eq!(vs.flip_batch(0, [t]).unwrap(), 1);
        assert_eq!(
            vs.flip_batch(1, [t]).unwrap(),
            0,
            "re-flipping a moved tuple moves nothing"
        );
        assert_eq!(vs.locate_tuple(t, &db), new.locate_tuple(t, &db));
        // Unmoved neighbors are untouched.
        let u = TupleId::new(0, 43);
        assert_eq!(vs.locate_tuple(u, &db), old.locate_tuple(u, &db));
        assert_eq!(vs.moved_count(), 1);
    }

    #[test]
    fn statement_route_covers_both_epochs() {
        let (old, new) = hash_pair();
        let vs = VersionedScheme::new(old.clone(), new.clone());
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(7)));
        let r = vs.route_statement(&stmt);
        let a = old.route_statement(&stmt);
        let b = new.route_statement(&stmt);
        assert_eq!(r.targets, a.targets.union(&b.targets));
        assert!(!r.any_one, "point-lookup routes are must-routes");
    }

    #[test]
    fn any_one_requires_both_epochs() {
        let old: Arc<dyn Scheme> = Arc::new(ReplicationScheme::new(3));
        let new: Arc<dyn Scheme> = Arc::new(ReplicationScheme::new(3));
        let vs = VersionedScheme::new(old, new);
        let read = Statement::select(0, Predicate::Eq(0, Value::Int(1)));
        assert!(vs.route_statement(&read).any_one);
        let write = Statement::update(0, Predicate::Eq(0, Value::Int(1)));
        assert!(!vs.route_statement(&write).any_one);
    }

    #[test]
    fn flip_batches_in_order_only() {
        let (old, new) = hash_pair();
        let db = MaterializedDb::new();
        let vs = VersionedScheme::new(old.clone(), new.clone());
        let b0 = [TupleId::new(0, 1), TupleId::new(0, 2)];
        let b1 = [TupleId::new(0, 3)];
        assert_eq!(vs.flipped_batches(), 0);
        // Flipping batch 1 before batch 0 is rejected and changes nothing.
        let err = vs.flip_batch(1, b1).unwrap_err();
        assert_eq!(
            err,
            FlipError {
                expected: 0,
                got: 1
            }
        );
        assert_eq!(vs.moved_count(), 0);
        assert_eq!(
            vs.locate_tuple(TupleId::new(0, 3), &db),
            old.locate_tuple(TupleId::new(0, 3), &db),
            "rejected flip must not affect routing"
        );
        // In order: both flips land, routing follows.
        assert_eq!(vs.flip_batch(0, b0).unwrap(), 2);
        assert_eq!(vs.flip_batch(1, b1).unwrap(), 1);
        assert_eq!(vs.flipped_batches(), 2);
        assert_eq!(
            vs.locate_tuple(TupleId::new(0, 3), &db),
            new.locate_tuple(TupleId::new(0, 3), &db)
        );
        // Replaying an already-flipped batch is rejected (duplicate ack).
        let dup = vs.flip_batch(0, b0).unwrap_err();
        assert_eq!(dup.expected, 2);
        assert_eq!(vs.moved_count(), 3);
    }

    #[test]
    fn finalize_hands_back_new_scheme() {
        let (old, new) = hash_pair();
        let vs = VersionedScheme::new(old, new.clone());
        vs.flip_batch(0, [TupleId::new(0, 1), TupleId::new(0, 2)])
            .unwrap();
        let done = vs.finalize();
        assert_eq!(done.name(), new.name());
    }

    #[test]
    fn write_phases_order_old_before_new_until_moved() {
        let (old, new) = hash_pair();
        let db = MaterializedDb::new();
        let vs = VersionedScheme::new(old.clone(), new.clone());
        // Find a tuple whose placement actually changes between epochs.
        let t = (0..256)
            .map(|r| TupleId::new(0, r))
            .find(|&t| old.locate_tuple(t, &db) != new.locate_tuple(t, &db))
            .expect("k=2 -> k=4 must relocate something");
        let phases = vs.write_phases(t, &db);
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0],
            old.locate_tuple(t, &db),
            "phase 0 is the old epoch"
        );
        assert_eq!(
            phases[1],
            new.locate_tuple(t, &db)
                .difference(&old.locate_tuple(t, &db)),
            "the final phase pre-writes only the new epoch's extra copies"
        );
        assert!(
            phases[0].intersect(&phases[1]).is_empty(),
            "phases never overlap"
        );
        // Once moved, the new placement is the only write target.
        vs.flip_batch(0, [t]).unwrap();
        assert_eq!(vs.write_phases(t, &db), vec![new.locate_tuple(t, &db)]);
    }

    #[test]
    fn replica_set_follows_ownership_epoch() {
        use crate::replica::ReplicatedScheme;
        let db = MaterializedDb::new();
        let old: Arc<dyn Scheme> =
            Arc::new(ReplicatedScheme::new(2, Arc::new(HashScheme::by_row_id(4))));
        let new: Arc<dyn Scheme> = Arc::new(ReplicatedScheme::new(
            2,
            Arc::new(HashScheme::by_attrs(4, vec![Some(0)])),
        ));
        let vs = VersionedScheme::new(old.clone(), new.clone());
        let t = TupleId::new(0, 6);
        assert_eq!(vs.replica_set(t, &db), old.replica_set(t, &db));
        vs.flip_batch(0, [t]).unwrap();
        assert_eq!(vs.replica_set(t, &db), new.replica_set(t, &db));
        // An unmoved tuple's new-epoch pre-copies are write targets but
        // never replica-set members (they lag until copied).
        let u = TupleId::new(0, 7);
        let phases = vs.write_phases(u, &db);
        let union = phases
            .iter()
            .fold(PartitionSet::empty(), |acc, p| acc.union(p));
        let rs = vs.replica_set(u, &db);
        assert!(rs.all().iter().all(|p| union.contains(p)));
        assert_eq!(rs.all(), old.locate_tuple(u, &db));
    }

    #[test]
    fn route_write_phases_cover_both_epochs_in_order() {
        let (old, new) = hash_pair();
        let vs = VersionedScheme::new(old.clone(), new.clone());
        let w = Statement::update(0, Predicate::True);
        let phases = vs.route_write_phases(&w);
        assert_eq!(phases[0], old.route_statement(&w).targets);
        let union = phases
            .iter()
            .fold(PartitionSet::empty(), |acc, p| acc.union(p));
        assert_eq!(
            union,
            vs.route_statement(&w).targets,
            "all phases together cover the conservative union route"
        );
        for i in 0..phases.len() {
            for j in i + 1..phases.len() {
                assert!(phases[i].intersect(&phases[j]).is_empty());
            }
        }
    }

    #[test]
    fn k_and_complexity_are_conservative() {
        let (old, new) = hash_pair();
        let vs = VersionedScheme::new(old, new);
        assert_eq!(vs.k(), 4);
        assert_eq!(vs.complexity(), Complexity::Hash);
        assert!(vs.name().starts_with("versioned("));
    }
}
