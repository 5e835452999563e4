//! Tuple identities and per-tuple attribute access.

use schism_sql::{ColId, TableId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

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
/// tuple's hash shard) are computed by the same function. It also
/// finishes [`TupleHasher`], the hasher behind every [`TupleMap`].
pub fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// [`splitmix64`] of `a ^ b·φ`: two words mixed into one — a generator's
/// draw per `(row, field)`, a stream seed per `(seed, index)`.
#[inline]
pub fn splitmix_pair(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a over a byte slice: the store's row checksum and the workloads'
/// scatter of a rank or an id.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A tuple's hash, `splitmix_pair(row, table)`: what tuple sampling, the
/// drift sketch's rows and hashing by row id all place a tuple by.
#[inline]
pub fn tuple_hash(t: TupleId) -> u64 {
    splitmix_pair(t.row, u64::from(t.table))
}

/// The hasher for maps keyed by tuples and row ids: each written word is
/// folded in as `state = (state.rotl(5) ^ word) · φ`, and [`splitmix64`]
/// mixes the result, so the low bits a hash table indexes by depend on
/// every bit of the key. Over one table's rows the fold is a bijection,
/// so two rows never collide in 64 bits. Built for integer keys: byte
/// slices fold in 8-byte words, with no length.
///
/// The state starts at a per-map key ([`TupleState`]). Statement logs are
/// hostile input, and an unkeyed SplitMix could be inverted to aim row ids
/// at one bucket; the key hides where a row lands. It is not a keyed PRF
/// like std's SipHash.
#[derive(Clone, Copy, Debug)]
pub struct TupleHasher {
    state: u64,
}

impl TupleHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for TupleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// The [`BuildHasher`] of [`TupleHasher`]. Each `default()` draws a fresh
/// key from std's [`RandomState`], as std does per map, so a map copied
/// into another in iteration order does not land clustered. Iteration
/// order is unspecified, as with std's maps.
#[derive(Clone, Copy, Debug)]
pub struct TupleState {
    key: u64,
}

impl Default for TupleState {
    fn default() -> Self {
        Self {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for TupleState {
    type Hasher = TupleHasher;

    #[inline]
    fn build_hasher(&self) -> TupleHasher {
        TupleHasher { state: self.key }
    }
}

/// A map keyed by tuple, hashed by [`TupleHasher`] under a per-map key.
pub type TupleMap<V> = HashMap<TupleId, V, TupleState>;

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
    ///
    /// A pure function of `(t, col)` while `self` is shared: asking twice
    /// gives the same answer, and asking changes nothing. Callers rely on
    /// it — `RangeScheme::locate_tuple` reads a column at most once per
    /// call, however many of the table's rules test it.
    fn value(&self, t: TupleId, col: ColId) -> Option<i64>;

    /// Approximate size in bytes of a row of `table`: the length of the
    /// payload `schism_store::seed_row` loads for one, and what a migration
    /// plan's byte budget counts per copy it adds. Defaults to 64.
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
    use proptest::prelude::*;

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

    #[test]
    fn each_tuple_state_draws_its_own_key() {
        let t = TupleId::new(3, 17);
        let (a, b) = (TupleState::default(), TupleState::default());
        assert_ne!(a.hash_one(t), b.hash_one(t));
    }

    /// Largest `2^12`-bucket load over `rows`, hashed by the low 12 bits
    /// of one map's hasher (the bits a hash table indexes by), against the
    /// mean load.
    fn max_over_mean_load(rows: impl Iterator<Item = u64>) -> f64 {
        const BUCKETS: usize = 1 << 12;
        let state = TupleState::default();
        let mut load = vec![0u32; BUCKETS];
        let mut n = 0usize;
        for row in rows {
            load[(state.hash_one(TupleId::new(2, row)) as usize) & (BUCKETS - 1)] += 1;
            n += 1;
        }
        let max = *load.iter().max().expect("buckets") as f64;
        max / (n as f64 / BUCKETS as f64)
    }

    #[test]
    fn dense_and_strided_rows_spread_over_low_bit_buckets() {
        let dense = max_over_mean_load(0..1 << 16);
        assert!(dense <= 3.0, "dense rows: max load {dense:.2}x the mean");
        let strided = max_over_mean_load((0..1u64 << 16).map(|i| i << 12));
        assert!(
            strided <= 3.0,
            "strided rows: max load {strided:.2}x the mean"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Under one key, rows of one table never collide in 64 bits —
        /// checked on rows one bit apart, in the low and the high word.
        #[test]
        fn rows_of_one_table_never_collide(
            (table, row, bit, other) in (0..64u16, 0..u64::MAX, 0..64u32, 0..u64::MAX),
        ) {
            let state = TupleState::default();
            let hash = |row| state.hash_one(TupleId::new(table, row));
            prop_assert_ne!(hash(row), hash(row ^ (1 << bit)));
            if other != row {
                prop_assert_ne!(hash(row), hash(other));
            }
        }
    }
}
