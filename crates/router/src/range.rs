//! Range-predicate partitioning: the output of Schism's explanation phase
//! (§4.3) — per-table first-match rule lists over attribute ranges, with
//! whole-table replication as a policy (the `item` table in TPC-C).

use crate::pset::PartitionSet;
use crate::scheme::{Complexity, Route, Scheme};
use schism_sql::{ColId, Predicate, Statement, Value};
use schism_workload::{TupleId, TupleValues};

/// One rule: a conjunction of inclusive ranges over attributes, mapping to
/// a set of partitions (a set because replicated tuples map to several).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeRule {
    /// `(attr, lo, hi)` — attr value must be within `lo..=hi`.
    pub conds: Vec<(ColId, i64, i64)>,
    pub partitions: PartitionSet,
}

impl RangeRule {
    /// Whether a tuple's attribute values satisfy every condition, `None`
    /// at the first value missing. The first-match loop over these is the
    /// reference `RangeScheme::locate_tuple` is tested against.
    #[cfg(test)]
    fn matches(&self, t: TupleId, db: &dyn TupleValues) -> Option<bool> {
        for &(col, lo, hi) in &self.conds {
            let v = db.value(t, col)?;
            if !(lo..=hi).contains(&v) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Whether a statement's predicate could select rows in this rule's
    /// region (conservative: unknown → true).
    fn overlaps(&self, pred: &Predicate) -> bool {
        for &(col, lo, hi) in &self.conds {
            if let Some(values) = pred.pinned_values(col) {
                let any_in = values.iter().any(|v| match v {
                    Value::Int(i) => (lo..=hi).contains(i),
                    _ => false,
                });
                if !any_in {
                    return false;
                }
            }
        }
        true
    }
}

/// Per-table placement policy.
#[derive(Clone, Debug)]
pub enum TablePolicy {
    /// First-match rule list; tuples matching no rule fall to `default`.
    Rules {
        rules: Vec<RangeRule>,
        default: PartitionSet,
    },
    /// The whole table is replicated everywhere.
    Replicate,
    /// The whole table lives on one partition.
    Single(u32),
}

/// Distinct columns whose values one `locate_tuple` call remembers on the
/// stack; a rule list over more columns remembers them in a `Vec` of its
/// own. Every rule list `explain` draws for TPC-C tests one column, and a
/// `Vec` allocated per call costs as much as the memo saves.
const STACK_COLS: usize = 8;

/// A table's policy as `locate_tuple` runs it: the rules in order, each
/// condition's column replaced by its index among the distinct columns the
/// rules test (`cols`, in first-use order), so that one call reads each
/// column once and remembers its value (`TupleValues::value` is pure). It
/// keeps first-match order and gives `default` to a tuple that lacks a
/// value as soon as a rule that needs it is reached. A replicated or
/// single-partition table is a list of no rules.
#[derive(Clone, Debug)]
struct Compiled {
    cols: Vec<ColId>,
    /// The rules, each condition's column an index into `cols`.
    rules: Vec<RangeRule>,
    default: PartitionSet,
}

impl Compiled {
    fn new(policy: &TablePolicy, k: u32) -> Self {
        let (rules, default) = match policy {
            TablePolicy::Rules { rules, default } => (&rules[..], *default),
            TablePolicy::Replicate => (&[][..], PartitionSet::all(k)),
            TablePolicy::Single(p) => (&[][..], PartitionSet::single(*p)),
        };
        let mut cols = Vec::new();
        let mut index = |col: ColId| match cols.iter().position(|&c| c == col) {
            Some(i) => i as ColId,
            None => {
                cols.push(col);
                (cols.len() - 1) as ColId
            }
        };
        let rules = rules
            .iter()
            .map(|r| RangeRule {
                conds: r
                    .conds
                    .iter()
                    .map(|&(c, lo, hi)| (index(c), lo, hi))
                    .collect(),
                partitions: r.partitions,
            })
            .collect();
        Self {
            cols,
            rules,
            default,
        }
    }

    /// The partitions of the first rule `t` matches; `default` when none
    /// does.
    fn locate(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        let mut stack = [None; STACK_COLS];
        let mut heap;
        let read: &mut [Option<i64>] = match self.cols.len() {
            n if n <= STACK_COLS => &mut stack[..n],
            n => {
                heap = vec![None; n];
                &mut heap
            }
        };
        'rules: for r in &self.rules {
            for &(i, lo, hi) in &r.conds {
                let i = usize::from(i);
                let v = match read[i] {
                    Some(v) => v,
                    None => match db.value(t, self.cols[i]) {
                        Some(v) => *read[i].insert(v),
                        None => return self.default, // missing attribute value
                    },
                };
                if !(lo..=hi).contains(&v) {
                    continue 'rules;
                }
            }
            return r.partitions;
        }
        self.default
    }
}

/// A range-predicate scheme: one policy per table.
#[derive(Clone, Debug)]
pub struct RangeScheme {
    k: u32,
    policies: Vec<TablePolicy>,
    /// `compiled[table]`: `policies[table]` as `locate_tuple` runs it.
    compiled: Vec<Compiled>,
}

impl RangeScheme {
    /// Builds a scheme; `policies[table]` must cover every table id used.
    pub fn new(k: u32, policies: Vec<TablePolicy>) -> Self {
        assert!(k >= 1);
        let compiled = policies.iter().map(|p| Compiled::new(p, k)).collect();
        Self {
            k,
            policies,
            compiled,
        }
    }

    fn policy(&self, table: u16) -> &TablePolicy {
        self.policies
            .get(table as usize)
            .unwrap_or(&TablePolicy::Replicate)
    }

    /// Read-only access to the policies (for reporting).
    pub fn policies(&self) -> &[TablePolicy] {
        &self.policies
    }
}

impl Scheme for RangeScheme {
    fn name(&self) -> String {
        let rules: usize = self
            .policies
            .iter()
            .map(|p| match p {
                TablePolicy::Rules { rules, .. } => rules.len(),
                _ => 0,
            })
            .sum();
        format!("range-predicates ({rules} rules) k={}", self.k)
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Range
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        // A table no policy names is replicated, as in `policy`.
        self.compiled
            .get(t.table as usize)
            .map_or_else(|| PartitionSet::all(self.k), |c| c.locate(t, db))
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        let write = stmt.kind.is_write();
        match self.policy(stmt.table) {
            TablePolicy::Replicate => {
                if write {
                    Route::must(PartitionSet::all(self.k))
                } else {
                    Route::any(PartitionSet::all(self.k))
                }
            }
            TablePolicy::Single(p) => Route::must(PartitionSet::single(*p)),
            TablePolicy::Rules { rules, default } => {
                let mut targets = PartitionSet::empty();
                let mut fully_pinned = true;
                for r in rules {
                    if r.overlaps(&stmt.predicate) {
                        targets.union_with(&r.partitions);
                    }
                    for &(col, _, _) in &r.conds {
                        if stmt.predicate.pinned_values(col).is_none() {
                            fully_pinned = false;
                        }
                    }
                }
                // If the statement doesn't pin all ruled attributes, rows
                // outside every rule could match too.
                if !fully_pinned || targets.is_empty() {
                    targets.union_with(default);
                }
                Route::must(targets)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use schism_workload::{splitmix64, MaterializedDb};
    use std::sync::Mutex;

    /// The reference: every rule tried in order through
    /// `RangeRule::matches`, which reads each condition's column afresh.
    fn first_match_oracle(s: &RangeScheme, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        match s.policy(t.table) {
            TablePolicy::Replicate => PartitionSet::all(s.k),
            TablePolicy::Single(p) => PartitionSet::single(*p),
            TablePolicy::Rules { rules, default } => {
                for r in rules {
                    match r.matches(t, db) {
                        Some(true) => return r.partitions,
                        Some(false) => continue,
                        None => return *default, // missing attribute value
                    }
                }
                *default
            }
        }
    }

    /// A `TupleValues` that logs the column of every read.
    struct Counting<'a> {
        db: &'a MaterializedDb,
        reads: Mutex<Vec<ColId>>,
    }

    impl<'a> Counting<'a> {
        fn new(db: &'a MaterializedDb) -> Self {
            Self {
                db,
                reads: Mutex::new(Vec::new()),
            }
        }

        /// The columns read since the last call, sorted.
        fn take(&self) -> Vec<ColId> {
            let mut reads = std::mem::take(&mut *self.reads.lock().unwrap());
            reads.sort_unstable();
            reads
        }
    }

    impl TupleValues for Counting<'_> {
        fn value(&self, t: TupleId, col: ColId) -> Option<i64> {
            self.reads.lock().unwrap().push(col);
            self.db.value(t, col)
        }
    }

    /// Draws from one seed: `splitmix64` over a counter.
    struct Draw(u64);

    impl Draw {
        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 = self.0.wrapping_add(1);
            lo + (splitmix64(self.0) % (hi - lo) as u64) as i64
        }

        /// True one time in `n`.
        fn one_in(&mut self, n: i64) -> bool {
            self.range(0, n) == 0
        }

        /// A non-empty subset of four partitions.
        fn partition_set(&mut self) -> PartitionSet {
            let bits = self.range(1, 16);
            let mut set = PartitionSet::empty();
            for p in (0..4).filter(|p| bits >> p & 1 == 1) {
                set.insert(p);
            }
            set
        }

        /// A rule of 0–3 conditions over columns `0..cols`, bounds around
        /// the values the rows hold, now and then open-ended or empty.
        fn rule(&mut self, cols: i64) -> RangeRule {
            let conds = (0..self.range(0, 4))
                .map(|_| {
                    let col = self.range(0, cols) as ColId;
                    let lo = if self.one_in(7) {
                        i64::MIN
                    } else {
                        self.range(-3, 12)
                    };
                    let len = self.range(-1, 8);
                    let hi = if self.one_in(7) {
                        i64::MAX
                    } else {
                        lo.saturating_add(len)
                    };
                    (col, lo, hi)
                })
                .collect();
            RangeRule {
                conds,
                partitions: self.partition_set(),
            }
        }

        /// Up to 8 rules over 1–3 columns, or over 9–12 (more than
        /// `STACK_COLS`), for table 0, table 1
        /// replicated, table 2 on one partition; and rows `0..40` of table
        /// 0, each of whose columns is unset or holds values for a prefix
        /// of the rows (the rest lack it).
        fn scheme_and_db(&mut self) -> (RangeScheme, MaterializedDb) {
            let cols = if self.one_in(2) {
                self.range(1, 4)
            } else {
                self.range(9, 13)
            };
            let rules = (0..self.range(0, 9)).map(|_| self.rule(cols)).collect();
            let default = self.partition_set();
            let single = self.range(0, 4) as u32;
            let policies = vec![
                TablePolicy::Rules { rules, default },
                TablePolicy::Replicate,
                TablePolicy::Single(single),
            ];
            let mut db = MaterializedDb::new();
            let t = db.add_table(cols as usize);
            for col in 0..cols as ColId {
                if !self.one_in(7) {
                    let rows = self.range(0, 41);
                    db.set_column(t, col, (0..rows).map(|_| self.range(-3, 12)).collect());
                }
            }
            (RangeScheme::new(4, policies), db)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// `locate_tuple` is the per-rule first-match loop, on overlapping
        /// rules over one to three columns (and over nine to twelve, more
        /// than `STACK_COLS`), rules without conditions,
        /// values a tuple lacks, replicated and single-partition tables and
        /// a table no policy names — and reads each column at most once.
        #[test]
        fn locate_tuple_is_the_first_match_loop(seed in 0..u64::MAX) {
            let (s, db) = Draw(seed).scheme_and_db();
            let counted = Counting::new(&db);
            for table in 0..4 {
                for row in 0..42 {
                    let t = TupleId::new(table, row);
                    let want = first_match_oracle(&s, t, &db);
                    prop_assert_eq!(s.locate_tuple(t, &counted), want, "{}", t);
                    let reads = counted.take();
                    prop_assert!(
                        reads.windows(2).all(|w| w[0] != w[1]),
                        "{} read a column twice: {:?}", t, reads
                    );
                }
            }
        }
    }

    #[test]
    fn each_column_is_read_once_per_call() {
        // Three rules on two columns: the per-rule loop reads column 0
        // three times and column 1 twice for a row that matches only the
        // default; `locate_tuple` reads each once.
        let mut db = MaterializedDb::new();
        let t = db.add_table(2);
        db.set_column(t, 0, vec![5]);
        db.set_column(t, 1, vec![5]);
        let rules = vec![
            RangeRule {
                conds: vec![(0, 0, 9), (1, 0, 1)],
                partitions: PartitionSet::single(0),
            },
            RangeRule {
                conds: vec![(0, 0, 9), (1, 2, 3)],
                partitions: PartitionSet::single(1),
            },
            RangeRule {
                conds: vec![(0, 7, 9)],
                partitions: PartitionSet::single(2),
            },
        ];
        let default = PartitionSet::single(3);
        let s = RangeScheme::new(4, vec![TablePolicy::Rules { rules, default }]);
        let counted = Counting::new(&db);
        let row = TupleId::new(0, 0);
        assert_eq!(first_match_oracle(&s, row, &counted), default);
        assert_eq!(counted.take(), [0, 0, 0, 1, 1]);
        assert_eq!(s.locate_tuple(row, &counted), default);
        assert_eq!(counted.take(), [0, 1]);
    }

    #[test]
    fn more_columns_than_the_stack_holds() {
        // Rule `c` tests column `c`, ten columns in all: row 0 (every
        // column 1) matches only the last rule, row 1 lacks the last
        // column and falls to the default when that rule is reached.
        let cols = STACK_COLS as ColId + 2;
        let mut db = MaterializedDb::new();
        let t = db.add_table(cols as usize);
        for col in 0..cols {
            let rows = if col + 1 == cols { 1 } else { 2 };
            db.set_column(t, col, vec![1; rows]);
        }
        let rules = (0..cols)
            .map(|c| {
                let v = i64::from(c + 1 == cols);
                RangeRule {
                    conds: vec![(c, v, v)],
                    partitions: PartitionSet::single(u32::from(c % 3)),
                }
            })
            .collect();
        let default = PartitionSet::single(3);
        let s = RangeScheme::new(4, vec![TablePolicy::Rules { rules, default }]);
        let counted = Counting::new(&db);
        for (row, want) in [(0, PartitionSet::single(0)), (1, default)] {
            let t = TupleId::new(0, row);
            assert_eq!(first_match_oracle(&s, t, &db), want);
            assert_eq!(s.locate_tuple(t, &counted), want);
            assert_eq!(counted.take(), (0..cols).collect::<Vec<_>>());
        }
    }

    /// The paper's TPC-C outcome: stock split by s_w_id, item replicated.
    fn tpcc_like() -> (RangeScheme, MaterializedDb) {
        let mut db = MaterializedDb::new();
        let stock = db.add_table(2);
        // s_w_id for rows 0..6: w 1,1,1,2,2,2
        db.set_column(stock, 0, vec![1, 1, 1, 2, 2, 2]);
        let _item = db.add_table(1);
        let scheme = RangeScheme::new(
            2,
            vec![
                TablePolicy::Rules {
                    rules: vec![
                        RangeRule {
                            conds: vec![(0, i64::MIN, 1)],
                            partitions: PartitionSet::single(0),
                        },
                        RangeRule {
                            conds: vec![(0, 2, i64::MAX)],
                            partitions: PartitionSet::single(1),
                        },
                    ],
                    default: PartitionSet::single(0),
                },
                TablePolicy::Replicate,
            ],
        );
        (scheme, db)
    }

    #[test]
    fn locates_by_rule() {
        let (s, db) = tpcc_like();
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 0), &db),
            PartitionSet::single(0)
        );
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 4), &db),
            PartitionSet::single(1)
        );
        // Replicated table.
        assert_eq!(s.locate_tuple(TupleId::new(1, 0), &db).len(), 2);
    }

    #[test]
    fn routes_pinned_statement_to_one_partition() {
        let (s, _) = tpcc_like();
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(2)));
        let r = s.route_statement(&stmt);
        assert_eq!(r.targets, PartitionSet::single(1));
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(1)));
        assert_eq!(s.route_statement(&stmt).targets, PartitionSet::single(0));
    }

    #[test]
    fn unpinned_statement_broadcasts() {
        let (s, _) = tpcc_like();
        let stmt = Statement::select(0, Predicate::True);
        assert_eq!(s.route_statement(&stmt).targets.len(), 2);
    }

    #[test]
    fn replicated_read_vs_write() {
        let (s, _) = tpcc_like();
        let read = s.route_statement(&Statement::select(1, Predicate::True));
        assert!(read.any_one);
        let write = s.route_statement(&Statement::update(1, Predicate::True));
        assert!(!write.any_one);
    }

    #[test]
    fn missing_attribute_falls_to_default() {
        let (s, db) = tpcc_like();
        // Row 100 has no materialized s_w_id.
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 100), &db),
            PartitionSet::single(0)
        );
        // Unknown table id -> replicate by default policy.
        assert_eq!(s.locate_tuple(TupleId::new(9, 0), &db).len(), 2);
    }

    #[test]
    fn multi_attribute_rule() {
        let mut db = MaterializedDb::new();
        let t = db.add_table(2);
        db.set_column(t, 0, vec![1, 1, 2, 2]);
        db.set_column(t, 1, vec![1, 2, 1, 2]);
        let s = RangeScheme::new(
            4,
            vec![TablePolicy::Rules {
                rules: vec![
                    RangeRule {
                        conds: vec![(0, 1, 1), (1, 1, 1)],
                        partitions: PartitionSet::single(0),
                    },
                    RangeRule {
                        conds: vec![(0, 1, 1), (1, 2, 2)],
                        partitions: PartitionSet::single(1),
                    },
                    RangeRule {
                        conds: vec![(0, 2, 2), (1, 1, 1)],
                        partitions: PartitionSet::single(2),
                    },
                ],
                default: PartitionSet::single(3),
            }],
        );
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 0), &db),
            PartitionSet::single(0)
        );
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 1), &db),
            PartitionSet::single(1)
        );
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 2), &db),
            PartitionSet::single(2)
        );
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 3), &db),
            PartitionSet::single(3)
        );
        // Statement pinning both attrs hits exactly one rule... plus the
        // default because rule regions don't provably cover the pin? No —
        // both attrs pinned, one rule overlaps.
        let stmt = Statement::select(
            0,
            Predicate::And(vec![
                Predicate::Eq(0, Value::Int(1)),
                Predicate::Eq(1, Value::Int(2)),
            ]),
        );
        assert_eq!(s.route_statement(&stmt).targets, PartitionSet::single(1));
    }
}
