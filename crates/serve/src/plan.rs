//! The routing / quorum plan: every replication, promotion and quorum
//! rule of the front door, as pure functions of one statement attempt's
//! [`View`] — the active scheme under its read guard, the routing db and
//! a [`HealthView`] taken by value. Nothing here sends, waits or marks;
//! `server.rs` drives a [`Plan`] through `scatter.rs` and applies its
//! [`Ack`]s to what came back.
//!
//! ## Replication, quorums & failover
//!
//! Under a replicating scheme (e.g.
//! [`ReplicatedScheme`](schism_router::ReplicatedScheme)) execution is
//! asymmetric, STAR-style: writes reach the tuple's **leader** first,
//! then every follower, and are acknowledged once the effective leader
//! plus a **majority quorum** of the full replica set
//! ([`ReplicaSet::quorum`], `⌊n/2⌋ + 1`) have applied — a minority of slow
//! or dying followers does not hold up the ack, and with fewer than a
//! quorum of live members the group refuses writes instead of acking
//! against a minority. (Two-member groups cannot hold a majority after
//! any failure, so they keep the perfect-failure-detector view-change
//! rule: the survivor serves alone.) Point reads may be served by *any*
//! live replica (a salted deterministic pick); multi-shard reads fan out
//! to all live replicas and dedup per tuple in the gather step.
//!
//! Every member that fails mid-write is marked down by the driver before
//! the acks are checked, so "every live replica holds every acknowledged
//! write" stays invariant under quorum acks, and promotion keeps choosing
//! from the acked frontier: the effective leader is the scheme leader if
//! live, else the lowest-id live member of the tuple's replica set (never
//! a new-epoch pre-copy, which lags until its batch is copied). With no
//! live member, the statement fails [`ServeError::Unavailable`].
//!
//! A **catching-up** shard (revived, not yet verified) receives every
//! foreground write — it stays in the write phases, so it misses nothing
//! new — but serves no reads, leads nothing, and counts toward no quorum.

use crate::server::{RouteKind, ServeError};
use schism_router::{pick_any, PartitionSet, ReplicaSet, Scheme};
use schism_sql::Statement;
use schism_store::{HealthView, ShardId};
use schism_workload::{TupleId, TupleValues};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLockReadGuard};

/// Everything one statement attempt decides against, read once: the rules
/// below never see a scheme swap or a liveness change midway. The scheme
/// is borrowed under the server's read guard, so it cannot be swapped
/// until the attempt drops its view.
pub(crate) struct View<'a> {
    pub scheme: RwLockReadGuard<'a, Arc<dyn Scheme>>,
    pub db: &'a dyn TupleValues,
    pub health: HealthView,
}

/// One scatter round: target shard → the tuples to touch there (`None`
/// scans the statement's table). Map order is the send order.
pub(crate) type Phase = BTreeMap<ShardId, Option<Vec<TupleId>>>;

/// Adds `t` to the tuples `shard` is asked for in `phase`.
pub(crate) fn ask(phase: &mut Phase, shard: ShardId, t: TupleId) {
    if let Some(tuples) = phase.entry(shard).or_insert_with(|| Some(Vec::new())) {
        tuples.push(t);
    }
}

/// A phase that scans the statement's table on every shard of `targets`.
fn scan(targets: &PartitionSet) -> Phase {
    targets.iter().map(|shard| (shard, None)).collect()
}

/// The ack rule of one written tuple, fixed before anything is sent.
#[derive(Debug)]
pub(crate) struct Ack {
    /// The effective (possibly promoted) leader; it must apply.
    pub leader: ShardId,
    /// The live members of the replica set — the only ones that count.
    pub members: PartitionSet,
    /// How many of `members` must apply ([`write_quorum`]).
    pub need: u32,
}

/// What one statement attempt sends, and what must come back.
pub(crate) struct Plan {
    /// Scatter rounds, in order: each is fully gathered before the next is
    /// sent — the leader and old-epoch copies apply before followers and
    /// new-epoch pre-copies.
    pub phases: Vec<Phase>,
    /// `None`: every task must be answered (reads and scans — a missing
    /// shard means missing rows). `Some`: a member that fails to apply is
    /// marked down without failing the statement, and these per-tuple
    /// rules decide availability from the shards that did apply.
    pub acks: Option<Vec<Ack>>,
    /// The route kind to report; `None` derives it from the reply count.
    pub route: Option<RouteKind>,
}

impl Plan {
    /// A one-round plan whose every task must be answered.
    pub fn strict(phase: Phase, route: Option<RouteKind>) -> Self {
        Self {
            phases: vec![phase],
            acks: None,
            route,
        }
    }

    /// Whether `applied` (the shards that applied any phase) acknowledges
    /// the statement. Every failed member is down by now, so an acked
    /// write is on every live member — the promotion frontier — even when
    /// the quorum is less than the whole group. A refusal acknowledges
    /// nothing; the statement-level retry redoes it against the survivors.
    pub fn acked(&self, applied: &PartitionSet) -> Result<(), ServeError> {
        for ack in self.acks.iter().flatten() {
            if !applied.contains(ack.leader) || applied.intersect(&ack.members).len() < ack.need {
                return Err(ServeError::Unavailable { shard: ack.leader });
            }
        }
        Ok(())
    }
}

/// The ack requirement for one tuple's replica set. Groups of three or
/// more require a strict majority of the **full** set
/// ([`ReplicaSet::quorum`]) — Spinnaker's rule, which both tolerates a
/// minority of failed members and refuses to ack against one. A
/// two-member group cannot hold a majority after any failure (every
/// failure is exactly half), so it keeps the perfect-failure-detector
/// view-change rule of the pre-quorum design: the effective leader alone
/// suffices, and safety comes from every failed member being marked down
/// before the ack.
fn write_quorum(rs: &ReplicaSet) -> u32 {
    if rs.all().len() >= 3 {
        rs.quorum()
    } else {
        1
    }
}

impl View<'_> {
    /// The shard a leader-pinned operation on `t` uses right now: the
    /// scheme's leader when live, else the lowest-id live member of the
    /// replica set. Every live member holds every acknowledged write (a
    /// member that fails mid-write is marked down before the ack, and a
    /// rejoiner only turns live after a verified catch-up), so promotion
    /// only needs to be deterministic — lowest id is, and every server
    /// picks the same one. A catching-up member is never chosen.
    pub fn leader(&self, t: TupleId) -> Result<ShardId, ServeError> {
        let rs = self.scheme.replica_set(t, self.db);
        promote(&rs, &rs.all().difference(&self.health.not_live()))
    }

    /// Who must ack a write of `t`, and the ordered phases that apply it:
    /// with everything live, exactly the scheme's phases; otherwise the
    /// (possibly promoted) live leader goes first, down shards drop out
    /// of every phase, and catching-up shards stay in — they must see
    /// every foreground write to converge. Fewer live members than the
    /// quorum refuses up front rather than leave a partially applied
    /// minority write.
    pub fn write_tuple(&self, t: TupleId) -> Result<(Ack, Vec<PartitionSet>), ServeError> {
        let rs = self.scheme.replica_set(t, self.db);
        let not_live = self.health.not_live();
        let members = rs.all().difference(&not_live);
        let leader = promote(&rs, &members)?;
        let need = write_quorum(&rs);
        if members.len() < need {
            return Err(ServeError::Unavailable { shard: rs.leader });
        }
        let mut phases = self.scheme.write_phases(t, self.db);
        if !not_live.is_empty() {
            let lead = PartitionSet::single(leader);
            let behind = phases
                .iter()
                .map(|p| p.difference(&self.health.down).difference(&lead));
            phases = std::iter::once(lead)
                .chain(behind.filter(|p| !p.is_empty()))
                .collect();
        }
        let ack = Ack {
            leader,
            members,
            need,
        };
        Ok((ack, phases))
    }

    /// Key-pinned write: every tuple's phases merged by position, so one
    /// shard gets one task per phase however many tuples it holds.
    pub fn write_tuples(&self, tuples: &[TupleId]) -> Result<Plan, ServeError> {
        let mut phases: Vec<Phase> = Vec::new();
        let mut acks = Vec::with_capacity(tuples.len());
        for &t in tuples {
            let (ack, tuple_phases) = self.write_tuple(t)?;
            acks.push(ack);
            if phases.len() < tuple_phases.len() {
                phases.resize_with(tuple_phases.len(), Phase::new);
            }
            for (phase, shards) in phases.iter_mut().zip(&tuple_phases) {
                for shard in shards.iter() {
                    ask(phase, shard, t);
                }
            }
        }
        Ok(Plan {
            phases,
            acks: Some(acks),
            route: None,
        })
    }

    /// The replica a point read of `t` uses right now: the live leader
    /// when the caller needs read-your-writes, else a deterministic pick
    /// from the live members of the current copy set, salted per
    /// statement and per key. Catching-up copies are excluded alongside
    /// down ones: a rejoiner is stale until its catch-up flip.
    pub fn read_owner(
        &self,
        t: TupleId,
        salt: u64,
        pin_leader: bool,
    ) -> Result<ShardId, ServeError> {
        if pin_leader {
            return self.leader(t);
        }
        let copies = self.scheme.locate_tuple(t, self.db);
        let live = copies.difference(&self.health.not_live());
        // With no live copy the lowest dead one names the outage. (An
        // empty copy set breaks `Scheme::locate_tuple`'s contract; it
        // reads as shard 0 unavailable, not as a panic.)
        pick_any(&live, salt ^ t.row.wrapping_mul(0x9E37_79B9_7F4A_7C15)).ok_or(
            ServeError::Unavailable {
                shard: copies.first().unwrap_or_default(),
            },
        )
    }

    /// Unpinned SELECT: the decision's target shards, or — with anything
    /// not live — the scheme's coverage-preserving live fan-out. Under
    /// failure the salted single-replica shortcut is off: only the scheme
    /// knows which live fan-out still covers every logical row (`None` =
    /// some row has no live copy). Down and catching-up shards are both
    /// out: neither holds servable state.
    pub fn scan_read(&self, stmt: &Statement, salt: u64) -> Result<Plan, ServeError> {
        let not_live = self.health.not_live();
        let targets = match not_live.first() {
            None => self.scheme.route_predicate_salted(stmt, salt).targets(),
            Some(suspect) => self
                .scheme
                .route_read_fallback(stmt, &not_live)
                .ok_or(ServeError::Unavailable { shard: suspect })?,
        };
        let route = if targets.is_single() {
            RouteKind::Point
        } else if targets.len() >= self.scheme.k() {
            RouteKind::Broadcast
        } else {
            RouteKind::Multi
        };
        Ok(Plan::strict(scan(&targets), Some(route)))
    }

    /// Unpinned UPDATE/DELETE: a scan-write over the scheme's ordered
    /// statement-level write phases.
    pub fn scan_write(&self, stmt: &Statement) -> Result<Plan, ServeError> {
        let phases = self.scheme.route_write_phases(stmt);
        // Coverage gate: a scan-write must still reach every logical row
        // it matches — reuse the read-coverage rule (over everything not
        // live, since a catching-up copy is not authoritative), which
        // answers exactly "does every touched tuple keep a live copy".
        let not_live = self.health.not_live();
        if let Some(suspect) = not_live.first() {
            if self.scheme.route_read_fallback(stmt, &not_live).is_none() {
                return Err(ServeError::Unavailable { shard: suspect });
            }
        }
        // Write targets exclude only the strictly-down shards: a
        // catching-up shard still applies every foreground write. (Its
        // predicate sees its own — possibly stale — bytes, which is fine:
        // every key it holds is re-copied from a live source before it
        // turns live again.)
        let live = phases.iter().map(|p| p.difference(&self.health.down));
        Ok(Plan {
            phases: live.filter(|p| !p.is_empty()).map(|p| scan(&p)).collect(),
            acks: None,
            route: None,
        })
    }

    /// Ranking for duplicate copies of one tuple in a scan gather: a
    /// read-your-writes-pinned tuple's leader copy outranks everything,
    /// then shards that currently own the tuple outrank strays (stale
    /// bytes on a not-yet-flipped migration destination).
    pub fn copy_rank(&self, pinned: bool, t: TupleId, shard: ShardId) -> u8 {
        if pinned && self.leader(t).is_ok_and(|l| l == shard) {
            return 2;
        }
        u8::from(self.scheme.locate_tuple(t, self.db).contains(shard))
    }
}

/// The scheme leader when it is among the live `members` of `rs`, else
/// the lowest-id one; [`ServeError::Unavailable`] when there is none.
fn promote(rs: &ReplicaSet, members: &PartitionSet) -> Result<ShardId, ServeError> {
    if members.contains(rs.leader) {
        return Ok(rs.leader);
    }
    members
        .first()
        .ok_or(ServeError::Unavailable { shard: rs.leader })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PkValues;
    use proptest::prelude::*;
    use schism_router::{HashScheme, ReplicatedScheme, VersionedScheme};
    use schism_sql::{parse_statement, ColumnType, Schema};
    use std::sync::RwLock;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(
            "account",
            &[("id", ColumnType::Int), ("bal", ColumnType::Int)],
            &["id"],
        );
        s
    }

    /// `rf` ring replicas over a k-way hash of the key — optionally the
    /// old epoch of a migration to a row-id hash with every even key
    /// already flipped.
    fn scheme(k: u32, rf: u32, versioned: bool, keys: &[u64]) -> Arc<dyn Scheme> {
        let replicated = |inner: HashScheme| -> Arc<dyn Scheme> {
            Arc::new(ReplicatedScheme::new(rf, Arc::new(inner)))
        };
        let old = replicated(HashScheme::by_attrs(k, vec![Some(0)]));
        if !versioned {
            return old;
        }
        let vs = VersionedScheme::new(old, replicated(HashScheme::by_row_id(k)));
        vs.flip_batch(
            0,
            keys.iter()
                .filter(|r| *r % 2 == 0)
                .map(|&r| TupleId::new(0, r)),
        )
        .unwrap();
        Arc::new(vs)
    }

    fn bits(mask: u32) -> PartitionSet {
        (0..8).filter(|s| mask & (1 << s) != 0).collect()
    }

    fn union(phases: &[PartitionSet]) -> PartitionSet {
        phases
            .iter()
            .fold(PartitionSet::empty(), |acc, p| acc.union(p))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The per-tuple and per-scan rules against random liveness states
        /// of a k ≤ 8 cluster (two masks ANDed per set, so about a quarter
        /// of the shards are down and a fifth catching up).
        #[test]
        fn plans_respect_liveness(
            (k, rf_seed, versioned, salt) in (1..=8u32, 1..=3u32, 0..2u32, 0..u64::MAX),
            (d1, d2, c1, c2) in (0..256u32, 0..256u32, 0..256u32, 0..256u32),
            keys in prop::collection::vec(0..10_000u64, 1..12),
        ) {
            let rf = rf_seed.min(k);
            let schema = schema();
            let db = PkValues::from_schema(&schema);
            let scheme = scheme(k, rf, versioned == 1, &keys);
            let all = PartitionSet::all(k);
            let down = bits(d1 & d2).intersect(&all);
            let health = HealthView {
                down,
                catching_up: bits(c1 & c2).intersect(&all).difference(&down),
            };
            let not_live = health.not_live();
            let lock = RwLock::new(Arc::clone(&scheme));
            let view = View { scheme: lock.read().unwrap(), db: &db, health };
            for &row in &keys {
                let t = TupleId::new(0, row);
                let rs = scheme.replica_set(t, &db);
                let copies = scheme.locate_tuple(t, &db);
                let live = rs.all().difference(&not_live);
                // Promotion: the scheme leader when live, else lowest live id.
                let leader = Some(rs.leader).filter(|l| live.contains(*l)).or(live.first());
                prop_assert_eq!(view.leader(t).ok(), leader);
                prop_assert_eq!(view.read_owner(t, salt, true).ok(), leader);

                let planned = view.write_tuple(t);
                prop_assert_eq!(planned.is_err(), live.len() < write_quorum(&rs), "refusal");
                if let Ok((ack, phases)) = planned {
                    let targets = union(&phases);
                    prop_assert!(targets.intersect(&health.down).is_empty(), "down target");
                    let rejoining = copies.intersect(&health.catching_up);
                    prop_assert_eq!(targets.intersect(&rejoining), rejoining, "rejoiner skipped");
                    prop_assert_eq!(Some(ack.leader), leader);
                    prop_assert!(phases[0].contains(ack.leader), "leader applies first");
                    prop_assert_eq!(ack.members, live);
                    prop_assert_eq!(ack.need, write_quorum(&rs));
                    if not_live.is_empty() {
                        prop_assert_eq!(phases, scheme.write_phases(t, &db));
                    }
                }

                let readable = copies.difference(&not_live);
                match view.read_owner(t, salt, false) {
                    Ok(owner) => prop_assert!(readable.contains(owner), "non-live read"),
                    Err(_) => prop_assert!(readable.is_empty()),
                }
            }

            // Scans: nothing non-live is read from, nothing down written to.
            let shards = |plan: &Plan| -> PartitionSet {
                plan.phases.iter().flatten().map(|(shard, _)| *shard).collect()
            };
            let scan = "SELECT * FROM account WHERE bal >= 0";
            if let Ok(plan) = view.scan_read(&parse_statement(&schema, scan).unwrap(), salt) {
                prop_assert!(shards(&plan).intersect(&not_live).is_empty());
            }
            let update = "UPDATE account SET bal = 1 WHERE bal >= 0";
            if let Ok(plan) = view.scan_write(&parse_statement(&schema, update).unwrap()) {
                prop_assert!(shards(&plan).intersect(&health.down).is_empty());
                prop_assert!(plan.phases.iter().all(|p| !p.is_empty()));
            }
        }
    }

    #[test]
    fn healthy_view_plans_exactly_the_scheme_phases() {
        let schema = schema();
        let db = PkValues::from_schema(&schema);
        for versioned in [false, true] {
            let keys: Vec<u64> = (0..64).collect();
            let scheme = scheme(5, 3, versioned, &keys);
            let lock = RwLock::new(Arc::clone(&scheme));
            let view = View {
                scheme: lock.read().unwrap(),
                db: &db,
                health: HealthView::default(),
            };
            for &row in &keys {
                let t = TupleId::new(0, row);
                let (ack, phases) = view.write_tuple(t).unwrap();
                assert_eq!(phases, scheme.write_phases(t, &db));
                assert_eq!(ack.leader, scheme.replica_set(t, &db).leader);
                assert_eq!(ack.need, 2, "majority of three");
            }
        }
    }

    #[test]
    fn write_tuples_merges_phases_into_one_task_per_shard() {
        let schema = schema();
        let db = PkValues::from_schema(&schema);
        let keys: Vec<u64> = (0..32).collect();
        let scheme = scheme(4, 2, false, &keys);
        let lock = RwLock::new(Arc::clone(&scheme));
        let view = View {
            scheme: lock.read().unwrap(),
            db: &db,
            health: HealthView::default(),
        };
        let tuples: Vec<TupleId> = keys.iter().map(|&r| TupleId::new(0, r)).collect();
        let plan = view.write_tuples(&tuples).unwrap();
        assert_eq!(plan.phases.len(), 2, "leaders, then followers");
        assert_eq!(plan.acks.as_ref().map(Vec::len), Some(32));
        for (i, phase) in plan.phases.iter().enumerate() {
            let asked: usize = phase.values().map(|ts| ts.as_ref().unwrap().len()).sum();
            assert_eq!(asked, 32, "every tuple once per phase");
            for (&shard, ts) in phase {
                for &t in ts.as_ref().unwrap() {
                    assert!(scheme.write_phases(t, &db)[i].contains(shard));
                }
            }
        }
    }

    #[test]
    fn acks_need_the_leader_and_a_quorum_of_live_members() {
        let ack = |leader, members: &[u32], need| Ack {
            leader,
            members: members.iter().copied().collect(),
            need,
        };
        let plan = Plan {
            phases: Vec::new(),
            acks: Some(vec![ack(1, &[1, 2, 3], 2)]),
            route: None,
        };
        let set = |s: &[u32]| s.iter().copied().collect::<PartitionSet>();
        assert_eq!(plan.acked(&set(&[1, 2])), Ok(()));
        assert_eq!(plan.acked(&set(&[1, 3, 0])), Ok(()));
        let refused = Err(ServeError::Unavailable { shard: 1 });
        assert_eq!(plan.acked(&set(&[2, 3])), refused, "leader must apply");
        assert_eq!(plan.acked(&set(&[1, 0])), refused, "outsiders do not count");
        // A strict plan has no per-tuple rule: its scatter already failed.
        assert_eq!(Plan::strict(Phase::new(), None).acked(&set(&[])), Ok(()));
    }
}
