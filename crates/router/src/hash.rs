//! Hash partitioning — the paper's simple automatic baseline ("hash
//! partitioning on the primary key or tuple id", §6.1) and one of the four
//! candidates in final validation ("hash-partitioning on the most
//! frequently used attributes", §4.4).

use crate::pset::PartitionSet;
use crate::scheme::{Complexity, Route, Scheme};
use schism_sql::{ColId, Statement, TableId, Value};
use schism_workload::{splitmix64, tuple_hash, TupleId, TupleValues};

/// What to hash.
#[derive(Clone, Debug)]
pub enum HashBy {
    /// Hash the dense tuple row id (with the table id mixed in).
    RowId,
    /// Hash one attribute per table (`None` falls back to the row id).
    Attr(Vec<Option<ColId>>),
}

/// Hash partitioning scheme.
#[derive(Clone, Debug)]
pub struct HashScheme {
    k: u32,
    by: HashBy,
}

impl HashScheme {
    /// Hash by tuple row id.
    pub fn by_row_id(k: u32) -> Self {
        assert!(k >= 1);
        Self {
            k,
            by: HashBy::RowId,
        }
    }

    /// Hash by one attribute per table; tables with `None` hash the row id.
    pub fn by_attrs(k: u32, attrs: Vec<Option<ColId>>) -> Self {
        assert!(k >= 1);
        Self {
            k,
            by: HashBy::Attr(attrs),
        }
    }

    fn bucket_value(&self, v: i64) -> u32 {
        (splitmix64(v as u64) % self.k as u64) as u32
    }

    fn bucket_row(&self, table: TableId, row: u64) -> u32 {
        (tuple_hash(TupleId::new(table, row)) % self.k as u64) as u32
    }

    fn hash_attr(&self, table: TableId) -> Option<ColId> {
        match &self.by {
            HashBy::RowId => None,
            HashBy::Attr(v) => v.get(table as usize).copied().flatten(),
        }
    }
}

impl Scheme for HashScheme {
    fn name(&self) -> String {
        match &self.by {
            HashBy::RowId => format!("hash(row-id) k={}", self.k),
            HashBy::Attr(_) => format!("hash(attrs) k={}", self.k),
        }
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Hash
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        let p = match self.hash_attr(t.table) {
            Some(col) => match db.value(t, col) {
                Some(v) => self.bucket_value(v),
                None => self.bucket_row(t.table, t.row),
            },
            None => self.bucket_row(t.table, t.row),
        };
        PartitionSet::single(p)
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        match self.hash_attr(stmt.table) {
            Some(col) => match stmt.predicate.pinned_values(col) {
                Some(values) => {
                    let targets: PartitionSet = values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int(i) => Some(self.bucket_value(*i)),
                            _ => None,
                        })
                        .collect();
                    if targets.is_empty() {
                        Route::must(PartitionSet::all(self.k))
                    } else {
                        Route::must(targets)
                    }
                }
                None => Route::must(PartitionSet::all(self.k)),
            },
            // Row-id hashing cannot be derived from predicates without the
            // key layout: broadcast.
            None => Route::must(PartitionSet::all(self.k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_sql::Predicate;
    use schism_workload::MaterializedDb;

    fn db_with_attr() -> MaterializedDb {
        let mut db = MaterializedDb::new();
        let t = db.add_table(2);
        db.set_column(t, 1, vec![10, 10, 20, 20, 30]);
        db
    }

    #[test]
    fn row_id_hash_spreads_tuples() {
        let s = HashScheme::by_row_id(4);
        let db = MaterializedDb::new();
        let mut seen = std::collections::HashSet::new();
        for r in 0..100 {
            let loc = s.locate_tuple(TupleId::new(0, r), &db);
            assert!(loc.is_single());
            seen.insert(loc.first().unwrap());
        }
        assert_eq!(seen.len(), 4, "all buckets should be used");
    }

    #[test]
    fn attr_hash_colocates_equal_values() {
        let s = HashScheme::by_attrs(8, vec![Some(1)]);
        let db = db_with_attr();
        let a = s.locate_tuple(TupleId::new(0, 0), &db);
        let b = s.locate_tuple(TupleId::new(0, 1), &db);
        assert_eq!(a, b, "same attribute value must co-locate");
        // Statement routing agrees with tuple placement.
        let r = s.route_statement(&Statement::select(0, Predicate::Eq(1, Value::Int(10))));
        assert_eq!(r.targets, a);
        assert!(!r.any_one);
    }

    #[test]
    fn unpinned_statement_broadcasts() {
        let s = HashScheme::by_attrs(4, vec![Some(1)]);
        let r = s.route_statement(&Statement::select(0, Predicate::True));
        assert_eq!(r.targets.len(), 4);
        // Pinned on a different column also broadcasts.
        let r = s.route_statement(&Statement::select(0, Predicate::Eq(0, Value::Int(5))));
        assert_eq!(r.targets.len(), 4);
    }

    #[test]
    fn in_list_routes_to_union() {
        let s = HashScheme::by_attrs(16, vec![Some(1)]);
        let r = s.route_statement(&Statement::select(
            0,
            Predicate::In(1, vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ));
        assert!(r.targets.len() <= 3 && !r.targets.is_empty());
    }

    #[test]
    fn deterministic_and_in_range() {
        let s = HashScheme::by_row_id(5);
        let db = MaterializedDb::new();
        for r in 0..50 {
            let a = s.locate_tuple(TupleId::new(1, r), &db);
            let b = s.locate_tuple(TupleId::new(1, r), &db);
            assert_eq!(a, b);
            assert!(a.first().unwrap() < 5);
        }
    }
}
