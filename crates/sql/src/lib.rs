//! SQL front end: lexer, AST, parser and pretty printer.
//!
//! This crate is shared by two consumers:
//!
//! * the query engine (`plaway-engine`) parses full SQL statements, and
//! * the PL/pgSQL front end (`plaway-plsql`) reuses the [`lexer`] and the
//!   expression grammar — PL/pgSQL expressions *are* SQL expressions, and
//!   embedded queries `Q1..Qn` are ordinary scalar subqueries.
//!
//! The dialect is the PostgreSQL subset the paper exercises, plus the
//! `WITH ITERATE` extension of Passing et al. (EDBT 2017) that §3 of the
//! paper implements inside PostgreSQL 11.3.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::*;
pub use lexer::Lexer;
pub use parser::Parser;

use plaway_common::Result;

/// Parse a complete SQL statement (query or DDL/DML).
pub fn parse_statement(sql: &str) -> Result<Stmt> {
    Parser::new(sql)?.parse_statement_eof()
}

/// Parse a sequence of `;`-separated SQL statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Stmt>> {
    Parser::new(sql)?.parse_statements_eof()
}

/// Parse a single SELECT query.
pub fn parse_query(sql: &str) -> Result<Query> {
    Parser::new(sql)?.parse_query_eof()
}

/// Parse a single scalar expression (used by the PL/pgSQL front end).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    Parser::new(sql)?.parse_expr_eof()
}
