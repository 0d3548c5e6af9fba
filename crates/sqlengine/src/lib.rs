//! In-memory relational execution engine.
//!
//! The FinSQL paper's evaluation metric is *execution accuracy* (EX): the
//! predicted and gold SQL are executed against the database and their
//! result sets compared. Its CoT augmentation likewise needs an
//! execution-based self-check. This crate provides the substrate for
//! both: typed in-memory tables over the [`sqlkit::catalog`] schema types
//! and an interpreter for the full [`sqlkit::ast`] dialect — joins,
//! grouping, aggregation, having, ordering, limits, (correlated)
//! subqueries and set operations.
//!
//! Each statement runs in one execution context that carries a
//! per-statement subquery memo: an uncorrelated subquery runs once, when
//! an outer row first reaches it, and every later row reuses its result.
//! A node counts as uncorrelated when it runs without any outer scope;
//! one that fails that way runs once per outer row. The memo dies with
//! the statement, so a later statement always sees appended data.
//!
//! The engine favours predictable SQLite-like semantics over strictness:
//! bare columns alongside aggregates evaluate against the group's first
//! row, comparisons coerce Int/Float, and dates are lexicographically
//! comparable `YYYY-MM-DD` strings.

#![forbid(unsafe_code)]

pub mod database;
pub mod error;
pub mod executor;
pub mod expr_eval;
pub mod result;
pub mod value;
pub mod wal;

pub use database::{Database, Table};
pub use error::{ExecError, ExecResult};
pub use executor::execute;
pub use result::{results_match, ResultSet};
pub use value::Value;
pub use wal::{ChangeLog, ChangeRecord, DataEpoch, WalError};

use sqlkit::ast::Statement;

/// Parses and executes SQL text against a database.
pub fn run_sql(db: &Database, sql: &str) -> ExecResult<ResultSet> {
    let stmt = sqlkit::parse_statement(sql).map_err(|e| ExecError::Parse(e.to_string()))?;
    match stmt {
        Statement::Select(q) => execute(db, &q),
    }
}

/// Executes both queries and reports whether their results match under the
/// EX criterion (see [`results_match`]). Either side failing to execute
/// counts as a mismatch (even when both fail: an unexecutable prediction is
/// wrong regardless of the gold query's health — and gold queries in the
/// benchmark always execute).
pub fn execution_accuracy(db: &Database, predicted: &str, gold: &str) -> bool {
    let ordered = sql_has_order_by(gold);
    match (run_sql(db, predicted), run_sql(db, gold)) {
        (Ok(p), Ok(g)) => results_match(&p, &g, ordered),
        _ => false,
    }
}

fn sql_has_order_by(sql: &str) -> bool {
    match sqlkit::parse_statement(sql) {
        Ok(Statement::Select(q)) => !q.order_by.is_empty(),
        Err(_) => false,
    }
}
