//! Streaming SQL-statement-log ingestion: a [`TraceSource`] over raw SQL
//! text, feeding the chunked graph builder without ever materializing a
//! [`Trace`](crate::Trace).
//!
//! This is the paper's §5.3 trace extractor as a streaming adapter: DBMSs
//! log executed statements, and Schism consumes `(tuple, transaction)`
//! pairs. [`SqlLogSource`] bridges the two — it holds the log text,
//! indexes it once (one byte range per transaction), then re-parses each
//! transaction block on demand as the builder's workers ask for chunks. A
//! caller holding a log file reads it into a `String` first
//! ([`std::fs::read_to_string`]) and hands that to
//! [`SqlLogSource::from_string`].
//!
//! # Log format
//!
//! One statement per line, optional trailing `;`. Blank lines and `--`
//! comments are skipped. A `BEGIN` (or `START TRANSACTION`) … `COMMIT`
//! (or `END`) pair groups statements into one transaction; a statement
//! outside such a block is its own single-statement transaction. Keywords
//! are case-insensitive. A block left open at end of log is an error
//! (truncated logs should fail loudly, not silently drop the tail).
//!
//! # Row resolution
//!
//! Read/write sets need *row ids*, but a log line only carries predicate
//! values. Each table resolves through one integer **key column**: its
//! primary key when that is a single column (a composite key has no
//! log-recoverable mapping to dense row ids, so its table's statements are
//! skipped). A statement whose predicate pins that column to a finite value
//! set ([`schism_sql::Predicate::pinned_values`]: equalities, IN-lists,
//! small BETWEEN ranges — also under conjunctions) contributes those rows;
//! writes go to the write set, multi-row reads become one scan group (so
//! blanket-statement filtering still sees them as one statement). Anything
//! else — range scans, unpinned predicates, non-key tables — is *skipped
//! and counted* in [`SqlLogStats::skipped_statements`]; the source never
//! guesses.
//!
//! # Determinism
//!
//! Parsing is validated up front, so `for_chunk` is a pure function of the
//! indexed byte ranges: the transaction yielded for index `i` is identical
//! for every chunking and every thread, as the [`TraceSource`] contract
//! requires.

use crate::trace::TraceSource;
use crate::tuple::TupleId;
use crate::txn::{Transaction, TxnBuilder};
use schism_sql::{parse_statement, ColId, Schema, Statement, StatementKind};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// What the index pass saw (fixed at construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct SqlLogStats {
    /// Parsed statements across all transactions.
    pub statements: usize,
    /// Statements that resolved to no rows (unpinned key, range predicate,
    /// non-integer values, or a table without a key column).
    pub skipped_statements: usize,
    /// Total resolved tuple accesses.
    pub accesses: u64,
}

/// Indexing/validation failure: the offending line and why.
#[derive(Clone, Debug)]
pub struct SqlLogError {
    /// 1-based line number in the log.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for SqlLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sql log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SqlLogError {}

/// A SQL statement log as a chunked [`TraceSource`]. The transactions it
/// yields carry read/write sets only, no statements: the graph builder
/// needs nothing else.
pub struct SqlLogSource {
    schema: Arc<Schema>,
    /// Per-table key column (indexed by `TableId`): the integer column
    /// whose pinned predicate values are the row ids — the primary key when
    /// it is a single column. `None` marks a table as unresolvable: its
    /// statements are counted skipped.
    key_cols: Vec<Option<ColId>>,
    /// The whole log.
    text: String,
    /// Byte range of each transaction block in `text` (single statement
    /// line, or `BEGIN` through `COMMIT` inclusive).
    blocks: Vec<(usize, usize)>,
    stats: SqlLogStats,
}

impl fmt::Debug for SqlLogSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SqlLogSource")
            .field("transactions", &self.blocks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn keyword(line: &str, kws: &[&str]) -> bool {
    let bare = line.trim().trim_end_matches(';').trim();
    kws.iter().any(|k| bare.eq_ignore_ascii_case(k))
}

fn is_noise(line: &str) -> bool {
    let t = line.trim();
    t.is_empty() || t.starts_with("--")
}

impl SqlLogSource {
    /// Indexes and validates an in-memory log.
    pub fn from_string(schema: Arc<Schema>, log: impl Into<String>) -> Result<Self, SqlLogError> {
        let key_cols = schema
            .tables()
            .map(|(_, t)| match t.primary_key.as_slice() {
                [pk] => Some(*pk),
                _ => None,
            })
            .collect();
        let mut s = Self {
            schema,
            key_cols,
            text: log.into(),
            blocks: Vec::new(),
            stats: SqlLogStats::default(),
        };
        s.index()?;
        Ok(s)
    }

    /// What the validation pass counted.
    pub fn stats(&self) -> &SqlLogStats {
        &self.stats
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// One pass over the log: record each transaction block's byte range,
    /// parse + resolve every statement once to validate and count.
    fn index(&mut self) -> Result<(), SqlLogError> {
        let mut blocks = Vec::new();
        let mut offset = 0;
        let mut lineno = 0usize;
        // Open BEGIN block: (start offset, start line number).
        let mut open: Option<(usize, usize)> = None;
        for line in self.text.split_inclusive('\n') {
            lineno += 1;
            let start = offset;
            offset += line.len();
            if is_noise(line) {
                continue;
            }
            if keyword(line, &["BEGIN", "START TRANSACTION"]) {
                if open.is_some() {
                    return Err(SqlLogError {
                        line: lineno,
                        message: "nested BEGIN".into(),
                    });
                }
                open = Some((start, lineno));
            } else if keyword(line, &["COMMIT", "END"]) {
                let (s, _) = open.take().ok_or(SqlLogError {
                    line: lineno,
                    message: "COMMIT without BEGIN".into(),
                })?;
                blocks.push((s, offset));
            } else {
                let stmt = parse_statement(&self.schema, line.trim().trim_end_matches(';'))
                    .map_err(|e| SqlLogError {
                        line: lineno,
                        message: e.to_string(),
                    })?;
                let rows = self.resolve(&stmt);
                self.stats.statements += 1;
                match rows {
                    Some(tuples) => self.stats.accesses += tuples.len() as u64,
                    None => self.stats.skipped_statements += 1,
                }
                if open.is_none() {
                    blocks.push((start, offset));
                }
            }
        }
        if let Some((_, l)) = open {
            return Err(SqlLogError {
                line: l,
                message: "BEGIN without COMMIT (truncated log?)".into(),
            });
        }
        self.blocks = blocks;
        Ok(())
    }

    /// Rows a statement accesses, via the table's key column. `None` =
    /// unresolvable (see module docs).
    fn resolve(&self, stmt: &Statement) -> Option<Vec<TupleId>> {
        let key = (*self.key_cols.get(stmt.table as usize)?)?;
        let vals = stmt.predicate.pinned_values(key)?;
        let tuples: Vec<TupleId> = vals
            .iter()
            .filter_map(|v| v.as_int())
            .filter(|&i| i >= 0)
            .map(|i| TupleId::new(stmt.table, i as u64))
            .collect();
        if tuples.is_empty() {
            None
        } else {
            Some(tuples)
        }
    }

    /// Parses one indexed block back into a transaction. Infallible after
    /// validation: the index pass parsed these exact lines.
    fn parse_block(&self, block: &str) -> Transaction {
        let mut b = TxnBuilder::new(false);
        for line in block.lines() {
            if is_noise(line) || keyword(line, &["BEGIN", "START TRANSACTION", "COMMIT", "END"]) {
                continue;
            }
            let stmt = parse_statement(&self.schema, line.trim().trim_end_matches(';'))
                .expect("statement validated at index time");
            if let Some(tuples) = self.resolve(&stmt) {
                if stmt.kind.is_write() {
                    for t in tuples {
                        b.write(t);
                    }
                } else {
                    b.scan(tuples);
                }
            }
        }
        b.finish()
    }
}

impl TraceSource for SqlLogSource {
    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn for_chunk(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &Transaction)) {
        for i in range {
            let (s, e) = self.blocks[i];
            let txn = self.parse_block(&self.text[s..e]);
            visit(i, &txn);
        }
    }
}

/// Renders a statement-retaining trace back into the log format
/// [`SqlLogSource`] ingests (round-trip tooling and tests). Transactions
/// with one statement become a bare line; larger ones get `BEGIN`/`COMMIT`.
///
/// Updates built without `SET` tracking render a placeholder assignment
/// (`<col0> = 0`) so the line stays parseable — the extractor only consumes
/// the WHERE clause, so round-tripped access sets are unaffected.
///
/// # Panics
/// Panics if any transaction carries no statements (the trace must be
/// generated with `keep_statements`).
pub fn render_log(schema: &Schema, trace: &crate::Trace) -> String {
    let mut out = String::new();
    for (i, txn) in trace.transactions.iter().enumerate() {
        assert!(
            !txn.statements.is_empty(),
            "transaction {i} has no statements: generate the trace with keep_statements"
        );
        let render = |s: &Statement| -> String {
            if s.kind == StatementKind::Update && s.set.is_empty() {
                let t = schema.table(s.table);
                format!(
                    "UPDATE {} SET {} = 0 WHERE {}",
                    t.name,
                    t.columns[0].name,
                    // to_sql's WHERE rendering, reused via a SELECT shim.
                    Statement::select(s.table, s.predicate.clone())
                        .to_sql(schema)
                        .split_once(" WHERE ")
                        .map(|(_, w)| w.to_owned())
                        .unwrap_or_else(|| "1 = 1".to_owned()),
                )
            } else {
                s.to_sql(schema)
            }
        };
        if txn.statements.len() == 1 {
            out.push_str(&render(&txn.statements[0]));
            out.push_str(";\n");
        } else {
            out.push_str("BEGIN;\n");
            for s in &txn.statements {
                out.push_str(&render(s));
                out.push_str(";\n");
            }
            out.push_str("COMMIT;\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drifting::{self, DriftingConfig};
    use schism_sql::ColumnType;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_table(
            "users",
            &[("id", ColumnType::Int), ("name", ColumnType::Str)],
            &["id"],
        );
        s.add_table(
            "orders",
            &[
                ("oid", ColumnType::Int),
                ("user_id", ColumnType::Int),
                ("qty", ColumnType::Int),
            ],
            &["oid"],
        );
        Arc::new(s)
    }

    const LOG: &str = "\
-- point read, its own transaction
SELECT * FROM users WHERE id = 7;

BEGIN;
SELECT * FROM users WHERE id IN (1, 2, 3);
UPDATE orders SET qty = 5 WHERE oid = 42;
-- a comment inside the block
INSERT INTO orders (oid, user_id, qty) VALUES (43, 7, 1);
COMMIT;

-- unresolvable: range over the key column
SELECT * FROM orders WHERE oid > 100;
";

    #[test]
    fn indexes_blocks_and_resolves_accesses() {
        let src = SqlLogSource::from_string(schema(), LOG).unwrap();
        assert_eq!(src.len(), 3);
        assert_eq!(src.stats().statements, 5);
        assert_eq!(src.stats().skipped_statements, 1);
        assert_eq!(src.stats().accesses, 1 + 3 + 1 + 1);
        let trace = src.materialize();
        assert_eq!(trace.transactions[0].reads, vec![TupleId::new(0, 7)]);
        let t1 = &trace.transactions[1];
        assert_eq!(
            t1.scans,
            vec![vec![
                TupleId::new(0, 1),
                TupleId::new(0, 2),
                TupleId::new(0, 3),
            ]]
        );
        assert_eq!(t1.writes, vec![TupleId::new(1, 42), TupleId::new(1, 43)]);
        // The unresolvable range scan leaves an empty transaction.
        assert!(trace.transactions[2].accessed().next().is_none());
    }

    #[test]
    fn chunked_equals_whole() {
        let src = SqlLogSource::from_string(schema(), LOG).unwrap();
        let whole = src.materialize();
        // (the trailing empty chunk must be a no-op)
        for cuts in [vec![0..1, 1..3], vec![0..2, 2..3], vec![0..3, 3..3]] {
            let mut seen = Vec::new();
            for c in cuts {
                src.for_chunk(c, &mut |i, t| seen.push((i, t.clone())));
            }
            assert_eq!(seen.len(), whole.len());
            for (i, t) in seen {
                assert_eq!(t.reads, whole.transactions[i].reads);
                assert_eq!(t.writes, whole.transactions[i].writes);
                assert_eq!(t.scans, whole.transactions[i].scans);
            }
        }
    }

    #[test]
    fn truncated_block_fails_loudly() {
        let err = SqlLogSource::from_string(schema(), "BEGIN;\nSELECT * FROM users WHERE id = 1;")
            .unwrap_err();
        assert!(err.message.contains("BEGIN without COMMIT"), "{err}");
        let err =
            SqlLogSource::from_string(schema(), "SELECT * FROM nowhere WHERE id = 1;").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn deep_nesting_is_a_line_error() {
        let deep = 100_000;
        let line = format!(
            "SELECT * FROM users WHERE {}id = 1{};",
            "(".repeat(deep),
            ")".repeat(deep)
        );
        let err = SqlLogSource::from_string(schema(), line).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nested"), "{err}");
    }

    #[test]
    fn drifting_round_trip_preserves_access_sets() {
        let w = drifting::generate(&DriftingConfig {
            num_txns: 300,
            keep_statements: true,
            ..Default::default()
        });
        let log = render_log(&w.schema, &w.trace);
        let src = SqlLogSource::from_string(Arc::clone(&w.schema), log).unwrap();
        assert_eq!(src.len(), w.trace.len());
        assert_eq!(src.stats().skipped_statements, 0);
        let rt = src.materialize();
        for (i, (a, b)) in rt
            .transactions
            .iter()
            .zip(&w.trace.transactions)
            .enumerate()
        {
            assert_eq!(a.reads, b.reads, "txn {i} reads");
            assert_eq!(a.writes, b.writes, "txn {i} writes");
            assert_eq!(a.scans, b.scans, "txn {i} scans");
        }
    }
}
