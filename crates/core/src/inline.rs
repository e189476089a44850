//! Call-site inlining (§2 "Finalization").
//!
//! "A merge of body(f*, r) with the SQL code template yields a pure SQL
//! expression which may be inlined at f's call sites in the embracing
//! query Q." This module performs that splice: every `f(args)` call in Q
//! becomes a scalar subquery holding the compiled `WITH RECURSIVE` query
//! with `args` substituted for the function's parameters.

use plaway_common::Result;
use plaway_engine::Catalog;
use plaway_sql::ast::{Expr, InsertSource, Query, Stmt};

use crate::cte::bind_args;
use crate::pipeline::Compiled;

/// Inline all calls to `compiled`'s function inside `query`: in every
/// expression slot of the query and of every query nested in it.
pub fn inline_into_query(query: Query, compiled: &Compiled, catalog: &Catalog) -> Result<Query> {
    // The rewrite is infallible; the first binding error is carried out.
    let mut failure = None;
    let out = query.rewrite(
        &mut |e| match e {
            Expr::Func { name, args } if name == compiled.source.name && failure.is_none() => {
                match bind_args(&compiled.query, &compiled.param_names, &args, catalog) {
                    Ok(bound) => Expr::Subquery(Box::new(bound)),
                    Err(err) => {
                        failure = Some(err);
                        Expr::null()
                    }
                }
            }
            other => other,
        },
        &mut |_, _| true,
    );
    match failure {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

/// Inline into any statement (queries, INSERT ... SELECT, etc.).
pub fn inline_into_stmt(stmt: Stmt, compiled: &Compiled, catalog: &Catalog) -> Result<Stmt> {
    Ok(match stmt {
        Stmt::Query(q) => Stmt::Query(inline_into_query(q, compiled, catalog)?),
        Stmt::Insert {
            table,
            columns,
            source,
        } => Stmt::Insert {
            table,
            columns,
            source: match source {
                InsertSource::Query(q) => {
                    InsertSource::Query(Box::new(inline_into_query(*q, compiled, catalog)?))
                }
                other => other,
            },
        },
        other => other,
    })
}
