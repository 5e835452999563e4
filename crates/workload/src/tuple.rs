//! Tuple identities and per-tuple attribute access.

use schism_sql::{ColId, TableId};

/// Globally unique tuple identity: `(table, row)`. Rows are dense per-table
/// indices starting at 0 — the "system-generated dense set of integers" the
/// paper's lookup tables rely on (Appendix C.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    pub table: TableId,
    pub row: u64,
}

impl TupleId {
    pub const fn new(table: TableId, row: u64) -> Self {
        Self { table, row }
    }
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}r{}", self.table, self.row)
    }
}

/// The SplitMix64 finaliser (Steele, Lea & Flood 2014): a bijective 64-bit
/// mixer. The one hash every layer derives its deterministic choices from
/// — tuple sampling and the graph digest, hash routing and replica picks,
/// Count-Min rows — so outputs that must agree across crates (e.g. a
/// tuple's hash shard) are computed by the same function.
pub fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Read access to tuple attribute values.
///
/// Workload generators implement this (usually as cheap arithmetic on the
/// row id) so that the explanation phase can label tuples with attribute
/// values and range/hash schemes can place tuples — without materializing
/// millions of rows.
///
/// Only integer-valued attributes are exposed; the partitioning-relevant
/// columns in every evaluation workload (ids, keys) are integers.
pub trait TupleValues: Send + Sync {
    /// Value of `col` for tuple `t`, or `None` if the column is not
    /// materialized / not an integer.
    fn value(&self, t: TupleId, col: ColId) -> Option<i64>;

    /// Approximate size in bytes of a row of `table` (for data-size
    /// balancing). Defaults to 64.
    fn tuple_bytes(&self, table: TableId) -> u32 {
        let _ = table;
        64
    }
}

/// A fully materialized integer-column store, for tests and small datasets.
#[derive(Clone, Debug, Default)]
pub struct MaterializedDb {
    /// `tables[table][col]` is `Some(values)` when materialized.
    tables: Vec<Vec<Option<Vec<i64>>>>,
    bytes: Vec<u32>,
}

impl MaterializedDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `table` exists with `num_cols` column slots.
    pub fn add_table(&mut self, num_cols: usize) -> TableId {
        let id = self.tables.len() as TableId;
        self.tables.push(vec![None; num_cols]);
        self.bytes.push(64);
        id
    }

    /// Sets a whole column.
    pub fn set_column(&mut self, table: TableId, col: ColId, values: Vec<i64>) {
        self.tables[table as usize][col as usize] = Some(values);
    }

    /// Sets the per-row byte estimate for a table.
    pub fn set_tuple_bytes(&mut self, table: TableId, bytes: u32) {
        self.bytes[table as usize] = bytes;
    }
}

impl TupleValues for MaterializedDb {
    fn value(&self, t: TupleId, col: ColId) -> Option<i64> {
        self.tables
            .get(t.table as usize)?
            .get(col as usize)?
            .as_ref()?
            .get(t.row as usize)
            .copied()
    }

    fn tuple_bytes(&self, table: TableId) -> u32 {
        self.bytes.get(table as usize).copied().unwrap_or(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_ordering_groups_by_table() {
        let a = TupleId::new(0, 99);
        let b = TupleId::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "t0r99");
    }

    #[test]
    fn materialized_db_roundtrip() {
        let mut db = MaterializedDb::new();
        let t = db.add_table(2);
        db.set_column(t, 1, vec![10, 20, 30]);
        db.set_tuple_bytes(t, 128);
        assert_eq!(db.value(TupleId::new(t, 1), 1), Some(20));
        assert_eq!(db.value(TupleId::new(t, 1), 0), None); // not materialized
        assert_eq!(db.value(TupleId::new(t, 9), 1), None); // out of range
        assert_eq!(db.value(TupleId::new(5, 0), 0), None); // unknown table
        assert_eq!(db.tuple_bytes(t), 128);
    }
}
