//! Workload analysis over statement streams.
//!
//! §4.3: "An explanation is only useful if it is based on attributes used
//! frequently in the queries." This module counts how often each column
//! appears in WHERE clauses, per table, and selects the *frequent attribute
//! set* the explanation phase is allowed to split on.

use crate::schema::{ColId, TableId};
use crate::statement::Statement;
use std::collections::HashMap;

/// WHERE-clause attribute usage statistics.
#[derive(Clone, Debug, Default)]
pub struct AttributeStats {
    /// `(table, col) -> number of statements whose WHERE clause references
    /// the column`.
    counts: HashMap<(TableId, ColId), u64>,
    /// `table -> number of statements that touch the table`.
    table_counts: HashMap<TableId, u64>,
}

impl AttributeStats {
    /// Records one statement.
    pub fn observe(&mut self, stmt: &Statement) {
        *self.table_counts.entry(stmt.table).or_insert(0) += 1;
        let mut cols = Vec::new();
        stmt.predicate.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            *self.counts.entry((stmt.table, c)).or_insert(0) += 1;
        }
    }

    /// Records a statement by shape only: the table and the distinct columns
    /// its WHERE clause constrains. Workload generators use this to feed the
    /// statistics without materializing `Statement` objects for every access
    /// in a 100k-transaction trace.
    pub fn observe_shape(&mut self, table: TableId, cols: &[ColId]) {
        *self.table_counts.entry(table).or_insert(0) += 1;
        for &c in cols {
            *self.counts.entry((table, c)).or_insert(0) += 1;
        }
    }

    /// Number of statements that referenced `(table, col)` in their WHERE
    /// clause.
    pub fn count(&self, table: TableId, col: ColId) -> u64 {
        self.counts.get(&(table, col)).copied().unwrap_or(0)
    }

    /// Number of statements that touched `table` at all.
    pub fn table_count(&self, table: TableId) -> u64 {
        self.table_counts.get(&table).copied().unwrap_or(0)
    }

    /// Fraction of `table`'s statements that reference `col`.
    pub fn frequency(&self, table: TableId, col: ColId) -> f64 {
        let t = self.table_count(table);
        if t == 0 {
            0.0
        } else {
            self.count(table, col) as f64 / t as f64
        }
    }

    /// The frequent attribute set for `table`: columns referenced by at
    /// least `min_frequency` (fraction in `[0, 1]`) of the statements on
    /// that table, most frequent first.
    pub fn frequent_attributes(&self, table: TableId, min_frequency: f64) -> Vec<ColId> {
        let total = self.table_count(table);
        if total == 0 {
            return Vec::new();
        }
        let mut cols: Vec<(ColId, u64)> = self
            .counts
            .iter()
            .filter(|((t, _), _)| *t == table)
            .map(|((_, c), &n)| (*c, n))
            .filter(|&(_, n)| (n as f64 / total as f64) >= min_frequency)
            .collect();
        cols.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cols.into_iter().map(|(c, _)| c).collect()
    }
}

/// How much routing signal a statement's WHERE clause carries, judged
/// from the predicate alone (before any scheme is consulted).
///
/// Appendix C.2's middleware "extracts predicates ... and compares the
/// attributes to the partitioning scheme"; this is the extraction half,
/// shared by every scheme. Routing itself never refuses a statement: one
/// nothing can prune broadcasts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Routability {
    /// At least one column is pinned to a finite value set (equality,
    /// IN-list, or small BETWEEN — see
    /// [`Predicate::pinned_values`](crate::Predicate::pinned_values)); a
    /// scheme partitioned on any of these columns can route without a
    /// broadcast. Columns are sorted and deduplicated.
    Pinned(Vec<ColId>),
    /// Columns are constrained, but only by ranges/inequalities no scheme
    /// can collapse to a finite value set; range schemes may still prune,
    /// everything else broadcasts. Columns are sorted and deduplicated.
    RangeOnly(Vec<ColId>),
    /// No column constraints at all (blanket scan): every scheme must
    /// broadcast.
    Blanket,
}

/// Classifies how routable `stmt` is from its WHERE clause alone.
pub fn classify_routability(stmt: &Statement) -> Routability {
    let mut cols = Vec::new();
    stmt.predicate.collect_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    if cols.is_empty() {
        return Routability::Blanket;
    }
    let pinned: Vec<ColId> = cols
        .iter()
        .copied()
        .filter(|&c| stmt.predicate.pinned_values(c).is_some())
        .collect();
    if pinned.is_empty() {
        Routability::RangeOnly(cols)
    } else {
        Routability::Pinned(pinned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::value::Value;

    #[test]
    fn frequency_counting() {
        let stmts = [
            Statement::select(
                0,
                Predicate::And(vec![
                    Predicate::Eq(0, Value::Int(1)),
                    Predicate::Eq(1, Value::Int(2)),
                ]),
            ),
            Statement::select(0, Predicate::Eq(1, Value::Int(2))),
            Statement::update(0, Predicate::Eq(1, Value::Int(3))),
            Statement::select(0, Predicate::True),
        ];
        let mut stats = AttributeStats::default();
        stmts.iter().for_each(|s| stats.observe(s));
        assert_eq!(stats.table_count(0), 4);
        assert_eq!(stats.count(0, 0), 1);
        assert_eq!(stats.count(0, 1), 3);
        assert_eq!(stats.count(0, 2), 0);
        assert!((stats.frequency(0, 1) - 0.75).abs() < 1e-9);
        // s_w_id qualifies at 50% threshold; s_i_id does not.
        assert_eq!(stats.frequent_attributes(0, 0.5), vec![1]);
        assert_eq!(stats.frequent_attributes(0, 0.2), vec![1, 0]);
    }

    #[test]
    fn duplicate_columns_in_one_statement_count_once() {
        let stmts = [Statement::select(
            0,
            Predicate::Or(vec![
                Predicate::Eq(0, Value::Int(1)),
                Predicate::Eq(0, Value::Int(2)),
            ]),
        )];
        let mut stats = AttributeStats::default();
        stmts.iter().for_each(|s| stats.observe(s));
        assert_eq!(stats.count(0, 0), 1);
    }

    #[test]
    fn routability_blanket_when_nothing_constrained() {
        let r = classify_routability(&Statement::select(0, Predicate::True));
        assert_eq!(r, Routability::Blanket);
        assert_eq!(
            classify_routability(&Statement::delete(0, Predicate::And(vec![]))),
            Routability::Blanket
        );
    }

    #[test]
    fn routability_range_only_for_inequalities() {
        use crate::predicate::CmpOp;
        let stmt = Statement::select(
            0,
            Predicate::And(vec![
                Predicate::Cmp(2, CmpOp::Gt, Value::Int(0)),
                Predicate::Cmp(0, CmpOp::Le, Value::Int(100)),
            ]),
        );
        let r = classify_routability(&stmt);
        assert_eq!(r, Routability::RangeOnly(vec![0, 2]));
    }

    #[test]
    fn routability_pinned_keeps_only_pinned_columns() {
        use crate::predicate::CmpOp;
        // col 0 pinned by equality; col 2 only ranged.
        let stmt = Statement::update(
            0,
            Predicate::And(vec![
                Predicate::Eq(0, Value::Int(7)),
                Predicate::Cmp(2, CmpOp::Lt, Value::Int(5)),
            ]),
        );
        assert_eq!(classify_routability(&stmt), Routability::Pinned(vec![0]));
        // An IN-list pins too, and inserts pin every written column.
        let ins = Statement::insert(0, vec![(1, Value::Int(3)), (0, Value::Int(1))]);
        assert_eq!(classify_routability(&ins), Routability::Pinned(vec![0, 1]));
    }

    #[test]
    fn routability_or_with_unpinned_branch_downgrades() {
        // One OR branch leaves col 0 unpinned, poisoning the pin; the
        // statement still references columns, so it is range-only, not
        // blanket.
        let stmt = Statement::select(
            0,
            Predicate::Or(vec![
                Predicate::Eq(0, Value::Int(1)),
                Predicate::Cmp(0, crate::predicate::CmpOp::Gt, Value::Int(50)),
            ]),
        );
        assert_eq!(classify_routability(&stmt), Routability::RangeOnly(vec![0]));
    }
}
