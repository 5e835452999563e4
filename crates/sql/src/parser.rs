//! Recursive-descent parser for the SQL subset that appears in OLTP traces.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! stmt    := select | update | insert | delete
//! select  := SELECT (STAR | ident (, ident)*) FROM ident [WHERE expr]
//! update  := UPDATE ident SET ident = literal (, ident = literal)* [WHERE expr]
//! insert  := INSERT INTO ident ( ident (, ident)* ) VALUES ( literal (, literal)* )
//! delete  := DELETE FROM ident [WHERE expr]
//! expr    := conj (OR conj)*
//! conj    := atom (AND atom)*
//! atom    := ( expr )
//!          | ident (= | < | <= | > | >= | <>) literal
//!          | ident BETWEEN literal AND literal
//!          | ident IN ( literal (, literal)* )
//! literal := INT | -INT | 'string'
//! ```
//!
//! Column names may be qualified (`table.col`); the table prefix is ignored
//! after checking it matches the statement's table. Parentheses nest at
//! most [`MAX_NESTING`] deep, so hostile input cannot exhaust the stack.

use crate::lexer::{lex, LexError, Token};
use crate::predicate::{CmpOp, Predicate};
use crate::schema::{ColId, Schema, TableId};
use crate::statement::Statement;
use crate::value::Value;
use std::fmt;

/// Parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Deepest parenthesis nesting [`parse_statement`] accepts; deeper input is
/// a [`ParseError`].
pub const MAX_NESTING: usize = 64;

/// Parses one statement against `schema`.
pub fn parse_statement(schema: &Schema, sql: &str) -> Result<Statement, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        schema,
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_optional_semicolon();
    if p.pos != p.tokens.len() {
        return Err(p.err(format!("trailing tokens starting at {}", p.peek_display())));
    }
    Ok(stmt)
}

struct Parser<'a> {
    schema: &'a Schema,
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: String) -> ParseError {
        ParseError { message }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_display(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".to_owned(),
        }
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(ref got) if got == t => Ok(()),
            Some(got) => Err(self.err(format!("expected '{t}', found '{got}'"))),
            None => Err(self.err(format!("expected '{t}', found end of input"))),
        }
    }

    /// Consumes an identifier and returns it.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map_or("end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    /// Consumes a keyword (case-insensitive).
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.ident()?;
        if id.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found '{id}'")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_optional_semicolon(&mut self) {
        if matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let kw = self.ident()?;
        if kw.eq_ignore_ascii_case("SELECT") {
            self.select()
        } else if kw.eq_ignore_ascii_case("UPDATE") {
            self.update()
        } else if kw.eq_ignore_ascii_case("INSERT") {
            self.insert()
        } else if kw.eq_ignore_ascii_case("DELETE") {
            self.delete()
        } else {
            Err(self.err(format!("unsupported statement '{kw}'")))
        }
    }

    fn select(&mut self) -> Result<Statement, ParseError> {
        // Projection list — validated later once we know the table, but the
        // router only needs the WHERE clause, so names are merely recorded.
        let mut projected: Vec<String> = Vec::new();
        if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
        } else {
            loop {
                projected.push(self.ident()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.keyword("FROM")?;
        let table = self.table()?;
        for name in &projected {
            // Aggregates like count(...) are not idents and already failed;
            // verify plain columns exist.
            self.resolve_col_checked(table, name)?;
        }
        let predicate = self.opt_where(table)?;
        Ok(Statement::select(table, predicate))
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        let table = self.table()?;
        self.keyword("SET")?;
        let mut set: Vec<(ColId, Value)> = Vec::new();
        loop {
            let name = self.ident()?;
            let col = self.resolve_col_checked(table, &name)?;
            self.expect(&Token::Eq)?;
            set.push((col, self.literal()?));
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let predicate = self.opt_where(table)?;
        Ok(Statement::update_set(table, set, predicate))
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.keyword("INTO")?;
        let table = self.table()?;
        self.expect(&Token::LParen)?;
        let mut cols: Vec<ColId> = Vec::new();
        loop {
            let name = self.ident()?;
            cols.push(self.resolve_col_checked(table, &name)?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        self.keyword("VALUES")?;
        self.expect(&Token::LParen)?;
        let mut vals = Vec::new();
        loop {
            vals.push(self.literal()?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        if cols.len() != vals.len() {
            return Err(self.err(format!(
                "INSERT has {} columns but {} values",
                cols.len(),
                vals.len()
            )));
        }
        Ok(Statement::insert(
            table,
            cols.into_iter().zip(vals).collect(),
        ))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.keyword("FROM")?;
        let table = self.table()?;
        let predicate = self.opt_where(table)?;
        Ok(Statement::delete(table, predicate))
    }

    fn table(&mut self) -> Result<TableId, ParseError> {
        let name = self.ident()?;
        self.schema
            .table_id(&name)
            .ok_or_else(|| self.err(format!("unknown table '{name}'")))
    }

    fn opt_where(&mut self, table: TableId) -> Result<Predicate, ParseError> {
        if self.peek_keyword("WHERE") {
            self.pos += 1;
            self.expr(table)
        } else {
            Ok(Predicate::True)
        }
    }

    fn expr(&mut self, table: TableId) -> Result<Predicate, ParseError> {
        let mut branches = vec![self.conj(table)?];
        while self.peek_keyword("OR") {
            self.pos += 1;
            branches.push(self.conj(table)?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Predicate::Or(branches)
        })
    }

    fn conj(&mut self, table: TableId) -> Result<Predicate, ParseError> {
        let mut parts = vec![self.atom(table)?];
        while self.peek_keyword("AND") {
            self.pos += 1;
            parts.push(self.atom(table)?);
        }
        Ok(Predicate::and(parts))
    }

    fn atom(&mut self, table: TableId) -> Result<Predicate, ParseError> {
        if matches!(self.peek(), Some(Token::LParen)) {
            if self.depth == MAX_NESTING {
                return Err(self.err(format!("parentheses nested deeper than {MAX_NESTING}")));
            }
            self.pos += 1;
            self.depth += 1;
            let inner = self.expr(table)?;
            self.depth -= 1;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let col = self.resolve_col_checked(table, &name)?;
        match self.next() {
            Some(Token::Eq) => Ok(Predicate::Eq(col, self.literal()?)),
            Some(Token::Lt) => Ok(Predicate::Cmp(col, CmpOp::Lt, self.literal()?)),
            Some(Token::Le) => Ok(Predicate::Cmp(col, CmpOp::Le, self.literal()?)),
            Some(Token::Gt) => Ok(Predicate::Cmp(col, CmpOp::Gt, self.literal()?)),
            Some(Token::Ge) => Ok(Predicate::Cmp(col, CmpOp::Ge, self.literal()?)),
            Some(Token::Ne) => Ok(Predicate::Cmp(col, CmpOp::Ne, self.literal()?)),
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("BETWEEN") => {
                let lo = self.literal()?;
                self.keyword("AND")?;
                let hi = self.literal()?;
                Ok(Predicate::Between(col, lo, hi))
            }
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("IN") => {
                self.expect(&Token::LParen)?;
                let mut vals = Vec::new();
                loop {
                    vals.push(self.literal()?);
                    if matches!(self.peek(), Some(Token::Comma)) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                Ok(Predicate::In(col, vals))
            }
            other => Err(self.err(format!(
                "expected comparison after column '{name}', found {}",
                other.map_or("end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(i)) => Ok(Value::Int(-i)),
                other => Err(self.err(format!(
                    "expected integer after '-', found {}",
                    other.map_or("end of input".into(), |t| format!("'{t}'"))
                ))),
            },
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            other => Err(self.err(format!(
                "expected literal, found {}",
                other.map_or("end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    /// Resolves a possibly table-qualified column name against `table`.
    fn resolve_col_checked(&self, table: TableId, name: &str) -> Result<ColId, ParseError> {
        let t = self.schema.table(table);
        let bare = match name.split_once('.') {
            Some((prefix, rest)) => {
                if !prefix.eq_ignore_ascii_case(&t.name) {
                    return Err(self.err(format!(
                        "column '{name}' is qualified with a table other than '{}'",
                        t.name
                    )));
                }
                rest
            }
            None => name,
        };
        t.column_id(bare)
            .ok_or_else(|| self.err(format!("unknown column '{bare}' in table '{}'", t.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::statement::StatementKind;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(
            "account",
            &[
                ("id", ColumnType::Int),
                ("name", ColumnType::Str),
                ("bal", ColumnType::Int),
            ],
            &["id"],
        );
        s.add_table(
            "stock",
            &[
                ("s_i_id", ColumnType::Int),
                ("s_w_id", ColumnType::Int),
                ("s_qty", ColumnType::Int),
            ],
            &["s_i_id", "s_w_id"],
        );
        s
    }

    #[test]
    fn parses_select_eq() {
        let s = schema();
        let stmt = parse_statement(&s, "SELECT * FROM account WHERE id = 5").unwrap();
        assert_eq!(stmt.kind, StatementKind::Select);
        assert_eq!(stmt.table, 0);
        assert_eq!(stmt.predicate, Predicate::Eq(0, Value::Int(5)));
    }

    #[test]
    fn parses_update_with_set_list() {
        let s = schema();
        let stmt =
            parse_statement(&s, "update account set bal = 60, name = 'evan' where id=2;").unwrap();
        assert_eq!(stmt.kind, StatementKind::Update);
        assert_eq!(stmt.predicate, Predicate::Eq(0, Value::Int(2)));
        assert_eq!(
            stmt.set,
            vec![(2, Value::Int(60)), (1, Value::Str("evan".into()))]
        );
    }

    #[test]
    fn parses_insert() {
        let s = schema();
        let stmt = parse_statement(
            &s,
            "INSERT INTO account (id, name, bal) VALUES (7, 'yang', -3)",
        )
        .unwrap();
        assert_eq!(stmt.kind, StatementKind::Insert);
        assert_eq!(stmt.predicate.pinned_values(0), Some(vec![Value::Int(7)]));
        assert_eq!(stmt.predicate.pinned_values(2), Some(vec![Value::Int(-3)]));
    }

    #[test]
    fn parses_delete_and_in_list() {
        let s = schema();
        let stmt = parse_statement(&s, "DELETE FROM account WHERE id IN (1, 3)").unwrap();
        assert_eq!(stmt.kind, StatementKind::Delete);
        assert_eq!(
            stmt.predicate,
            Predicate::In(0, vec![Value::Int(1), Value::Int(3)])
        );
    }

    #[test]
    fn parses_between_and_boolean_precedence() {
        let s = schema();
        let stmt = parse_statement(
            &s,
            "SELECT * FROM account WHERE id BETWEEN 1 AND 10 AND bal > 0 OR name = 'x'",
        )
        .unwrap();
        // OR binds loosest: (BETWEEN AND bal>0) OR name='x'
        match &stmt.predicate {
            Predicate::Or(branches) => {
                assert_eq!(branches.len(), 2);
                assert!(matches!(branches[0], Predicate::And(_)));
                assert_eq!(branches[1], Predicate::Eq(1, Value::Str("x".into())));
            }
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn parses_qualified_columns() {
        let s = schema();
        let stmt = parse_statement(&s, "SELECT * FROM stock WHERE stock.s_w_id = 3").unwrap();
        assert_eq!(stmt.predicate, Predicate::Eq(1, Value::Int(3)));
    }

    #[test]
    fn parses_parenthesized_or_inside_and() {
        let s = schema();
        let stmt = parse_statement(
            &s,
            "SELECT * FROM account WHERE (id = 1 OR id = 2) AND bal >= 100",
        )
        .unwrap();
        match &stmt.predicate {
            Predicate::And(parts) => {
                assert!(matches!(parts[0], Predicate::Or(_)));
                assert_eq!(parts[1], Predicate::Cmp(2, CmpOp::Ge, Value::Int(100)));
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn error_on_unknown_table_or_column() {
        let s = schema();
        assert!(parse_statement(&s, "SELECT * FROM nope WHERE id = 1").is_err());
        assert!(parse_statement(&s, "SELECT * FROM account WHERE missing = 1").is_err());
        assert!(parse_statement(&s, "SELECT * FROM account WHERE stock.id = 1").is_err());
    }

    #[test]
    fn error_on_arity_mismatch_and_trailing() {
        let s = schema();
        assert!(parse_statement(&s, "INSERT INTO account (id, name) VALUES (1)").is_err());
        assert!(parse_statement(&s, "SELECT * FROM account WHERE id = 1 garbage").is_err());
    }

    /// `depth` parentheses around one comparison.
    fn nested(depth: usize) -> String {
        format!(
            "SELECT * FROM account WHERE {}id = 1{}",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn nesting_is_bounded() {
        let s = schema();
        let stmt = parse_statement(&s, &nested(MAX_NESTING)).unwrap();
        assert_eq!(stmt.predicate, Predicate::Eq(0, Value::Int(1)));
        assert!(parse_statement(&s, &nested(MAX_NESTING + 1)).is_err());
        // Deep enough to overflow a test thread's stack without the bound.
        let err = parse_statement(&s, &nested(100_000)).unwrap_err();
        assert!(err.message.contains("nested"), "{err}");
    }

    #[test]
    fn roundtrip_through_to_sql() {
        let s = schema();
        for sql in [
            "SELECT * FROM account WHERE id = 5",
            "DELETE FROM account WHERE id IN (1, 3)",
            "SELECT * FROM stock WHERE s_w_id BETWEEN 1 AND 4",
            "UPDATE account SET bal = -7, name = 'kim' WHERE id = 2",
        ] {
            let stmt = parse_statement(&s, sql).unwrap();
            let rendered = stmt.to_sql(&s);
            let reparsed = parse_statement(&s, &rendered).unwrap();
            assert_eq!(stmt, reparsed, "roundtrip changed {sql}");
        }
    }
}
