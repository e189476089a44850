//! Rewriting references to a `FOR rec IN <query>` loop variable.
//!
//! The row variable of a query-driven FOR loop is not a scalar: its fields
//! are reached as `rec.field` (a qualified column in SQL syntax) and the
//! whole record as bare `rec`. Neither back end keeps a record variable
//! around at runtime — the interpreter binds fields to numbered slots, the
//! compiler to fresh temporaries — so both rewrite the loop body up front
//! with [`rewrite_stmts`], substituting every reference through a caller
//! supplied mapping.
//!
//! The rewrite is shadowing-aware on two levels:
//!
//! * a nested `FOR` loop or block declaration reusing the variable name
//!   shadows it for the nested statements, and
//! * a (sub)query whose FROM clause binds the name as a table or alias
//!   captures it — references inside that query are table columns, not
//!   record fields, and are left alone.

use plaway_sql::ast::{Expr, Query, QueryScope, SetExpr, TableRef};

use crate::ast::{ExceptionHandler, PlStmt, VarDecl};

/// One reference to the loop variable `rec`: a field (`rec.f`) or the whole
/// record (bare `rec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordRef<'a> {
    /// `rec.field`.
    Field(&'a str),
    /// Bare `rec`.
    Whole,
}

/// Rewrite every reference to the record variable `var` in a statement
/// list. `mk` maps each reference to its replacement expression.
pub fn rewrite_stmts(
    stmts: Vec<PlStmt>,
    var: &str,
    mk: &mut dyn FnMut(RecordRef) -> Expr,
) -> Vec<PlStmt> {
    stmts
        .into_iter()
        .map(|s| rewrite_stmt(s, var, mk))
        .collect()
}

/// Rewrite record references inside one expression (descending into
/// subqueries that do not capture the name).
pub fn rewrite_expr(e: Expr, var: &str, mk: &mut dyn FnMut(RecordRef) -> Expr) -> Expr {
    e.rewrite(&mut |sub| rw_ref(sub, var, mk), &mut |q, scope| {
        enters(q, scope, var)
    })
}

/// Rewrite record references inside a full query (the loop source of a
/// nested `FOR rec IN <query>`, which may correlate on the outer record).
pub fn rewrite_query(q: Query, var: &str, mk: &mut dyn FnMut(RecordRef) -> Expr) -> Query {
    q.rewrite(&mut |sub| rw_ref(sub, var, mk), &mut |q, scope| {
        enters(q, scope, var)
    })
}

fn rewrite_stmt(s: PlStmt, var: &str, mk: &mut dyn FnMut(RecordRef) -> Expr) -> PlStmt {
    match s {
        PlStmt::Assign { var: v, expr } => PlStmt::Assign {
            var: v,
            expr: rewrite_expr(expr, var, mk),
        },
        PlStmt::If { branches, else_ } => PlStmt::If {
            branches: branches
                .into_iter()
                .map(|(c, b)| (rewrite_expr(c, var, mk), rewrite_stmts(b, var, mk)))
                .collect(),
            else_: rewrite_stmts(else_, var, mk),
        },
        PlStmt::CaseStmt {
            operand,
            branches,
            else_,
        } => PlStmt::CaseStmt {
            operand: operand.map(|o| rewrite_expr(o, var, mk)),
            branches: branches
                .into_iter()
                .map(|(vals, b)| {
                    (
                        vals.into_iter().map(|v| rewrite_expr(v, var, mk)).collect(),
                        rewrite_stmts(b, var, mk),
                    )
                })
                .collect(),
            else_: else_.map(|b| rewrite_stmts(b, var, mk)),
        },
        PlStmt::Loop { label, body } => PlStmt::Loop {
            label,
            body: rewrite_stmts(body, var, mk),
        },
        PlStmt::While { label, cond, body } => PlStmt::While {
            label,
            cond: rewrite_expr(cond, var, mk),
            body: rewrite_stmts(body, var, mk),
        },
        PlStmt::ForRange {
            label,
            var: v,
            from,
            to,
            by,
            reverse,
            body,
        } => {
            let from = rewrite_expr(from, var, mk);
            let to = rewrite_expr(to, var, mk);
            let by = by.map(|b| rewrite_expr(b, var, mk));
            // An inner loop variable reusing the name shadows the record.
            let body = if v == var {
                body
            } else {
                rewrite_stmts(body, var, mk)
            };
            PlStmt::ForRange {
                label,
                var: v,
                from,
                to,
                by,
                reverse,
                body,
            }
        }
        PlStmt::ForQuery {
            label,
            var: v,
            query,
            body,
        } => {
            // The nested loop's query still sees the outer record; its body
            // does only when the inner variable does not shadow it.
            let query = rewrite_query(query, var, mk);
            let body = if v == var {
                body
            } else {
                rewrite_stmts(body, var, mk)
            };
            PlStmt::ForQuery {
                label,
                var: v,
                query,
                body,
            }
        }
        PlStmt::Exit { label, when } => PlStmt::Exit {
            label,
            when: when.map(|w| rewrite_expr(w, var, mk)),
        },
        PlStmt::Continue { label, when } => PlStmt::Continue {
            label,
            when: when.map(|w| rewrite_expr(w, var, mk)),
        },
        PlStmt::Return { expr } => PlStmt::Return {
            expr: expr.map(|x| rewrite_expr(x, var, mk)),
        },
        PlStmt::Null => PlStmt::Null,
        PlStmt::Raise {
            level,
            format,
            args,
            condition,
        } => PlStmt::Raise {
            level,
            format,
            args: args.into_iter().map(|a| rewrite_expr(a, var, mk)).collect(),
            condition,
        },
        PlStmt::Perform { expr } => PlStmt::Perform {
            expr: rewrite_expr(expr, var, mk),
        },
        PlStmt::Block {
            decls,
            body,
            handlers,
        } => {
            let shadowed = decls.iter().any(|d| d.name == var);
            let decls: Vec<VarDecl> = decls
                .into_iter()
                .map(|d| VarDecl {
                    init: d.init.map(|i| rewrite_expr(i, var, mk)),
                    ..d
                })
                .collect();
            let (body, handlers) = if shadowed {
                (body, handlers)
            } else {
                (
                    rewrite_stmts(body, var, mk),
                    handlers
                        .into_iter()
                        .map(|h| ExceptionHandler {
                            conditions: h.conditions,
                            body: rewrite_stmts(h.body, var, mk),
                        })
                        .collect(),
                )
            };
            PlStmt::Block {
                decls,
                body,
                handlers,
            }
        }
    }
}

fn rw_ref(e: Expr, var: &str, mk: &mut dyn FnMut(RecordRef) -> Expr) -> Expr {
    match e {
        Expr::Column {
            qualifier: Some(ref q),
            ref name,
        } if q == var => mk(RecordRef::Field(name)),
        Expr::Column {
            qualifier: None,
            ref name,
        } if name == var => mk(RecordRef::Whole),
        other => other,
    }
}

/// The scope rule: CTE bodies are self-contained scopes, and a query whose
/// FROM binds the name reads table columns, not record fields; both are
/// left alone.
fn enters(q: &Query, scope: QueryScope, var: &str) -> bool {
    scope != QueryScope::Cte && !query_binds_name(q, var)
}

/// Does any FROM item of the query's top-level selects bind `name` as a
/// table, table alias or derived-table alias?
fn query_binds_name(q: &Query, name: &str) -> bool {
    fn table_binds(t: &TableRef, name: &str) -> bool {
        match t {
            TableRef::Table { name: n, alias } => {
                alias.as_ref().map(|a| a.name.as_str()).unwrap_or(n) == name
            }
            TableRef::Derived { alias, .. } => alias.name == name,
            TableRef::Join { left, right, .. } => {
                table_binds(left, name) || table_binds(right, name)
            }
        }
    }
    fn set_binds(s: &SetExpr, name: &str) -> bool {
        match s {
            SetExpr::Select(sel) => sel.from.iter().any(|t| table_binds(t, name)),
            SetExpr::SetOp { left, right, .. } => set_binds(left, name) || set_binds(right, name),
            SetExpr::Values(_) => false,
            SetExpr::Query(q) => set_binds(&q.body, name),
        }
    }
    set_binds(&q.body, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_sql::ast::BinOp;

    fn sub(e: &str, var: &str) -> String {
        let parsed = plaway_sql::parse_expr(e).unwrap();
        rewrite_expr(parsed, var, &mut |r| match r {
            RecordRef::Field(f) => Expr::col(format!("f_{f}")),
            RecordRef::Whole => Expr::col("whole"),
        })
        .to_string()
    }

    #[test]
    fn fields_and_whole_record_rewrite() {
        assert_eq!(sub("rec.a + rec.b", "rec"), "f_a + f_b");
        assert_eq!(sub("rec", "rec"), "whole");
        assert_eq!(sub("other.a", "rec"), "other.a");
        assert_eq!(
            sub("(SELECT sum(t.x) OVER (ORDER BY rec.a) FROM t)", "rec"),
            "(SELECT sum(t.x) OVER (ORDER BY f_a) FROM t)"
        );
    }

    #[test]
    fn subquery_alias_captures_the_name() {
        // `rec` is a table alias inside the subquery: left alone there,
        // rewritten outside.
        let got = sub(
            "rec.a + (SELECT rec.x FROM t AS rec WHERE rec.x > 0)",
            "rec",
        );
        assert_eq!(got, "f_a + (SELECT rec.x FROM t AS rec WHERE rec.x > 0)");
    }

    #[test]
    fn correlated_subquery_rewrites() {
        let got = sub("(SELECT t.v FROM t WHERE t.k = rec.key)", "rec");
        assert_eq!(got, "(SELECT t.v FROM t WHERE t.k = f_key)");
    }

    #[test]
    fn nested_for_same_name_shadows_body_not_query() {
        let inner_query =
            plaway_sql::parse_query("SELECT t.v AS v FROM t WHERE t.k = r.key").unwrap();
        let body = vec![PlStmt::Assign {
            var: "x".into(),
            expr: Expr::qcol("r", "v"),
        }];
        let stmts = vec![PlStmt::ForQuery {
            label: None,
            var: "r".into(),
            query: inner_query,
            body,
        }];
        let out = rewrite_stmts(stmts, "r", &mut |r| match r {
            RecordRef::Field(f) => Expr::col(format!("up_{f}")),
            RecordRef::Whole => Expr::col("up"),
        });
        let PlStmt::ForQuery { query, body, .. } = &out[0] else {
            panic!()
        };
        // Outer `r.key` in the nested query was rewritten...
        assert!(query.to_string().contains("up_key"), "{query}");
        // ...but the inner body's `r.v` belongs to the inner loop variable.
        let PlStmt::Assign { expr, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(
            *expr,
            Expr::qcol("r", "v"),
            "shadowed body must be untouched"
        );
    }

    #[test]
    fn statement_shapes_rewrite() {
        let stmts = vec![PlStmt::If {
            branches: vec![(
                Expr::binary(BinOp::Gt, Expr::qcol("rec", "v"), Expr::int(0)),
                vec![PlStmt::Return {
                    expr: Some(Expr::qcol("rec", "v")),
                }],
            )],
            else_: vec![],
        }];
        let out = rewrite_stmts(stmts, "rec", &mut |_| Expr::col("x"));
        let PlStmt::If { branches, .. } = &out[0] else {
            panic!()
        };
        assert_eq!(branches[0].0.to_string(), "x > 0");
    }
}
