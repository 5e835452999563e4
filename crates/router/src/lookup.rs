//! Per-tuple lookup tables — the fine-grained output of the graph
//! partitioner (§4.2, Appendix C.1), with two of the physical backends the
//! paper discusses: a traditional index (hash map) for sparse row ids and
//! a dense bit-array (one byte per row id). The paper's third, per-partition
//! Bloom filters, trades exactness for memory; no scheme here needs it.

use crate::pset::PartitionSet;
use crate::scheme::{Complexity, Route, Scheme};
use schism_sql::{ColId, Statement, Value};
use schism_workload::{tuple_hash, TupleId, TupleState, TupleValues};
use std::collections::HashMap;

/// What to do for tuples absent from the lookup table (never accessed by
/// the training trace). The paper replicates them in read-mostly workloads
/// ("tuples not present in the initial lookup table have been replicated
/// across all partitions", §6.1) and otherwise inserts into a random
/// partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissPolicy {
    Replicate,
    /// A missed row goes where [`crate::HashScheme::by_row_id`] sends it.
    HashRow,
}

/// A physical lookup-table representation for one table.
pub trait LookupBackend: Send + Sync {
    /// Copy set for `row`, or `None` when the row is not in the table.
    fn get(&self, row: u64) -> Option<PartitionSet>;

    /// Approximate memory footprint.
    fn size_bytes(&self) -> usize;
}

/// Hash-index backend: exact, works for sparse row ids.
pub struct IndexBackend {
    map: HashMap<u64, PartitionSet, TupleState>,
}

impl IndexBackend {
    pub fn new(entries: impl IntoIterator<Item = (u64, PartitionSet)>) -> Self {
        Self {
            map: entries.into_iter().collect(),
        }
    }
}

impl LookupBackend for IndexBackend {
    fn get(&self, row: u64) -> Option<PartitionSet> {
        self.map.get(&row).copied()
    }

    fn size_bytes(&self) -> usize {
        self.map.len() * (8 + std::mem::size_of::<PartitionSet>())
    }
}

/// Dense bit-array backend: one byte per row id — the paper's "16 GB of RAM
/// can hold 15 billion tuples" representation. Replicated (multi-partition)
/// tuples overflow to a side index.
pub struct BitArrayBackend {
    /// Partition id per row; `MISS` when absent, `MULTI` when in
    /// `overflow`.
    slots: Vec<u8>,
    overflow: HashMap<u64, PartitionSet, TupleState>,
}

impl BitArrayBackend {
    const MISS: u8 = 0xFF;
    const MULTI: u8 = 0xFE;

    /// Builds for a table of `num_rows` dense row ids.
    ///
    /// Partition ids must be `< 254`; larger ids go to the overflow map.
    pub fn new(num_rows: u64, entries: impl IntoIterator<Item = (u64, PartitionSet)>) -> Self {
        let mut slots = vec![Self::MISS; num_rows as usize];
        let mut overflow = HashMap::default();
        for (row, pset) in entries {
            debug_assert!((row as usize) < slots.len(), "row {row} out of range");
            if let Some(slot) = slots.get_mut(row as usize) {
                match pset.first() {
                    Some(p) if pset.is_single() && p < Self::MULTI as u32 => *slot = p as u8,
                    _ => {
                        *slot = Self::MULTI;
                        overflow.insert(row, pset);
                    }
                }
            }
        }
        Self { slots, overflow }
    }
}

impl LookupBackend for BitArrayBackend {
    fn get(&self, row: u64) -> Option<PartitionSet> {
        match self.slots.get(row as usize) {
            None | Some(&Self::MISS) => None,
            Some(&Self::MULTI) => self.overflow.get(&row).copied(),
            Some(&p) => Some(PartitionSet::single(p as u32)),
        }
    }

    fn size_bytes(&self) -> usize {
        self.slots.len() + self.overflow.len() * (8 + std::mem::size_of::<PartitionSet>())
    }
}

/// Statement-routing metadata for one table: lookup tables are keyed by row
/// id, so predicates on the (dense integer) primary key map to rows as
/// `row = pk_value - offset`. Tables without such a key broadcast.
#[derive(Clone, Copy, Debug)]
pub struct RowKey {
    pub col: ColId,
    /// `row = value - offset` (offset 1 for 1-based keys).
    pub offset: i64,
}

/// The fine-grained per-tuple scheme.
pub struct LookupScheme {
    k: u32,
    backends: Vec<Option<Box<dyn LookupBackend>>>,
    row_keys: Vec<Option<RowKey>>,
    miss: MissPolicy,
}

impl LookupScheme {
    /// `backends[table]` may be `None` for tables with no lookup data
    /// (treated as fully missing → miss policy).
    pub fn new(
        k: u32,
        backends: Vec<Option<Box<dyn LookupBackend>>>,
        row_keys: Vec<Option<RowKey>>,
        miss: MissPolicy,
    ) -> Self {
        assert!(k >= 1);
        Self {
            k,
            backends,
            row_keys,
            miss,
        }
    }

    fn miss_set(&self, t: TupleId) -> PartitionSet {
        match self.miss {
            MissPolicy::Replicate => PartitionSet::all(self.k),
            MissPolicy::HashRow => PartitionSet::single((tuple_hash(t) % u64::from(self.k)) as u32),
        }
    }

    /// Total memory footprint of the backends.
    pub fn size_bytes(&self) -> usize {
        self.backends.iter().flatten().map(|b| b.size_bytes()).sum()
    }
}

impl Scheme for LookupScheme {
    fn name(&self) -> String {
        format!("lookup-table k={}", self.k)
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Lookup
    }

    fn locate_tuple(&self, t: TupleId, _db: &dyn TupleValues) -> PartitionSet {
        self.backends
            .get(t.table as usize)
            .and_then(|b| b.as_ref())
            .and_then(|b| b.get(t.row))
            .unwrap_or_else(|| self.miss_set(t))
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        let write = stmt.kind.is_write();
        let Some(Some(key)) = self.row_keys.get(stmt.table as usize) else {
            return Route::must(PartitionSet::all(self.k));
        };
        let Some(values) = stmt.predicate.pinned_values(key.col) else {
            return Route::must(PartitionSet::all(self.k));
        };
        let mut targets = PartitionSet::empty();
        let mut single_replicated_read = !write && values.len() == 1;
        for v in &values {
            let Value::Int(i) = v else {
                return Route::must(PartitionSet::all(self.k));
            };
            let row = i - key.offset;
            if row < 0 {
                return Route::must(PartitionSet::all(self.k));
            }
            let t = TupleId::new(stmt.table, row as u64);
            let pset = self
                .backends
                .get(stmt.table as usize)
                .and_then(|b| b.as_ref())
                .and_then(|b| b.get(row as u64))
                .unwrap_or_else(|| self.miss_set(t));
            if pset.is_single() {
                single_replicated_read = false;
            }
            targets.union_with(&pset);
        }
        if single_replicated_read && targets.len() > 1 {
            Route::any(targets)
        } else {
            Route::must(targets)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_sql::Predicate;
    use schism_workload::MaterializedDb;

    fn entries() -> Vec<(u64, PartitionSet)> {
        vec![
            (0, PartitionSet::single(0)),
            (1, PartitionSet::single(1)),
            (2, [0u32, 1].into_iter().collect()), // replicated tuple
        ]
    }

    fn backends_roundtrip(b: &dyn LookupBackend) {
        assert_eq!(b.get(0), Some(PartitionSet::single(0)));
        assert_eq!(b.get(1), Some(PartitionSet::single(1)));
        let two = b.get(2).expect("replicated entry present");
        assert!(two.contains(0) && two.contains(1));
        // Row 50 was never inserted: both backends answer None exactly.
    }

    #[test]
    fn index_backend() {
        let b = IndexBackend::new(entries());
        backends_roundtrip(&b);
        assert_eq!(b.get(50), None);
    }

    #[test]
    fn bitarray_backend() {
        let b = BitArrayBackend::new(100, entries());
        backends_roundtrip(&b);
        assert_eq!(b.get(50), None);
        assert_eq!(b.get(1_000_000), None); // out of range
        assert!(b.size_bytes() >= 100);
    }

    #[test]
    fn scheme_miss_policies() {
        let db = MaterializedDb::new();
        let mk = |miss| {
            LookupScheme::new(
                2,
                vec![Some(
                    Box::new(IndexBackend::new(entries())) as Box<dyn LookupBackend>
                )],
                vec![Some(RowKey { col: 0, offset: 0 })],
                miss,
            )
        };
        let s = mk(MissPolicy::Replicate);
        assert_eq!(s.locate_tuple(TupleId::new(0, 99), &db).len(), 2);
        let s = mk(MissPolicy::HashRow);
        let by_row = crate::HashScheme::by_row_id(2);
        for t in (90..100).map(|r| TupleId::new(0, r)) {
            assert_eq!(s.locate_tuple(t, &db), by_row.locate_tuple(t, &db));
        }
        // Known tuple resolves exactly.
        assert_eq!(
            s.locate_tuple(TupleId::new(0, 1), &db),
            PartitionSet::single(1)
        );
    }

    #[test]
    fn statement_routing_through_row_key() {
        let s = LookupScheme::new(
            2,
            vec![Some(
                Box::new(IndexBackend::new(entries())) as Box<dyn LookupBackend>
            )],
            vec![Some(RowKey { col: 0, offset: 10 })], // pk = row + 10
            MissPolicy::Replicate,
        );
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(11))); // row 1
        assert_eq!(s.route_statement(&stmt).targets, PartitionSet::single(1));
        // Replicated tuple read: any_one.
        let stmt = Statement::select(0, Predicate::Eq(0, Value::Int(12))); // row 2
        let r = s.route_statement(&stmt);
        assert!(r.any_one);
        assert_eq!(r.targets.len(), 2);
        // Write to a replicated tuple must touch both.
        let stmt = Statement::update(0, Predicate::Eq(0, Value::Int(12)));
        let r = s.route_statement(&stmt);
        assert!(!r.any_one);
        // Unpinned -> broadcast.
        let stmt = Statement::select(0, Predicate::True);
        assert_eq!(s.route_statement(&stmt).targets.len(), 2);
    }
}
