//! Capture-aware variable substitution in SQL expressions.
//!
//! PL/pgSQL variables appear inside embedded queries as bare identifiers
//! (`WHERE location = p.loc` — `location` is a variable, `loc` a column).
//! Whenever the compiler renames variables (SSA), redirects them to the
//! recursive CTE's row (`r.location1`), or inlines arguments, it must
//! substitute *only* identifiers that are not captured by a column of an
//! enclosing query scope. This module implements that substitution with
//! catalog-assisted column-visibility tracking — the same preference the
//! engine's planner applies (columns win over parameters).

use std::collections::HashMap;

use plaway_engine::{known_from_columns, known_output_columns, Catalog};
use plaway_sql::ast::{Expr, Query, Select, SelectItem, SetExpr, TableRef, WindowRef, WindowSpec};

/// A substitution: variable name → replacement expression.
pub type Subst = HashMap<String, Expr>;

/// Substitute free variables in an expression. `visible` carries the column
/// names visible from enclosing query scopes (a name present there is a
/// column and is never substituted).
pub fn subst_expr(e: Expr, map: &Subst, catalog: &Catalog, visible: &[String]) -> Expr {
    match e {
        Expr::Column {
            qualifier: None,
            ref name,
        } if !visible.contains(name) => match map.get(name) {
            Some(replacement) => replacement.clone(),
            None => e,
        },
        Expr::Column { .. } => e,
        Expr::Literal(_) | Expr::Param(_) | Expr::CountStar => e,
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(subst_expr(*left, map, catalog, visible)),
            right: Box::new(subst_expr(*right, map, catalog, visible)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            low: Box::new(subst_expr(*low, map, catalog, visible)),
            high: Box::new(subst_expr(*high, map, catalog, visible)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            list: list
                .into_iter()
                .map(|i| subst_expr(i, map, catalog, visible))
                .collect(),
            negated,
        },
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            query: Box::new(subst_query(*query, map, catalog, visible)),
            negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            pattern: Box::new(subst_expr(*pattern, map, catalog, visible)),
            negated,
        },
        Expr::Case {
            operand,
            branches,
            else_,
        } => Expr::Case {
            operand: operand.map(|o| Box::new(subst_expr(*o, map, catalog, visible))),
            branches: branches
                .into_iter()
                .map(|(w, t)| {
                    (
                        subst_expr(w, map, catalog, visible),
                        subst_expr(t, map, catalog, visible),
                    )
                })
                .collect(),
            else_: else_.map(|e| Box::new(subst_expr(*e, map, catalog, visible))),
        },
        Expr::Func { name, args } => Expr::Func {
            name,
            args: args
                .into_iter()
                .map(|a| subst_expr(a, map, catalog, visible))
                .collect(),
        },
        Expr::WindowFunc { name, args, window } => Expr::WindowFunc {
            name,
            args: args
                .into_iter()
                .map(|a| subst_expr(a, map, catalog, visible))
                .collect(),
            window: match window {
                WindowRef::Named(n) => WindowRef::Named(n),
                WindowRef::Inline(spec) => {
                    WindowRef::Inline(subst_window_spec(spec, map, catalog, visible))
                }
            },
        },
        Expr::Subquery(q) => Expr::Subquery(Box::new(subst_query(*q, map, catalog, visible))),
        Expr::Exists(q) => Expr::Exists(Box::new(subst_query(*q, map, catalog, visible))),
        Expr::Row(items) => Expr::Row(
            items
                .into_iter()
                .map(|i| subst_expr(i, map, catalog, visible))
                .collect(),
        ),
        Expr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(subst_expr(*expr, map, catalog, visible)),
            ty,
        },
    }
}

/// Substitute free variables in a whole query (descending into FROM,
/// WHERE, windows, CTEs, set operations).
pub fn subst_query(q: Query, map: &Subst, catalog: &Catalog, visible: &[String]) -> Query {
    // CTE columns contribute nothing to *expression* scopes directly (they
    // are table-like), but CTE bodies see the same outer visibility.
    let with = q.with.map(|mut with| {
        with.ctes = with
            .ctes
            .into_iter()
            .map(|mut cte| {
                cte.query = subst_query(cte.query, map, catalog, visible);
                cte
            })
            .collect();
        with
    });
    let body = subst_set_expr(q.body, map, catalog, visible);
    // ORDER BY / LIMIT of the outer query see the query's own columns too;
    // approximating with the body's visibility is safe (output columns stem
    // from the select list which is already substituted).
    let visible_here = {
        let mut v = visible.to_vec();
        known_output_columns(&body, catalog, &mut v);
        v
    };
    Query {
        with,
        order_by: q
            .order_by
            .into_iter()
            .map(|mut oi| {
                oi.expr = subst_expr(oi.expr, map, catalog, &visible_here);
                oi
            })
            .collect(),
        limit: q.limit.map(|e| subst_expr(e, map, catalog, &visible_here)),
        offset: q.offset.map(|e| subst_expr(e, map, catalog, &visible_here)),
        body,
    }
}

fn subst_set_expr(body: SetExpr, map: &Subst, catalog: &Catalog, visible: &[String]) -> SetExpr {
    match body {
        SetExpr::Select(sel) => {
            SetExpr::Select(Box::new(subst_select(*sel, map, catalog, visible)))
        }
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => SetExpr::SetOp {
            op,
            all,
            left: Box::new(subst_set_expr(*left, map, catalog, visible)),
            right: Box::new(subst_set_expr(*right, map, catalog, visible)),
        },
        SetExpr::Values(rows) => SetExpr::Values(
            rows.into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|e| subst_expr(e, map, catalog, visible))
                        .collect()
                })
                .collect(),
        ),
        SetExpr::Query(q) => SetExpr::Query(Box::new(subst_query(*q, map, catalog, visible))),
    }
}

fn subst_select(sel: Select, map: &Subst, catalog: &Catalog, visible: &[String]) -> Select {
    // Columns brought into scope by this SELECT's FROM clause.
    let mut inner_visible = visible.to_vec();
    for t in &sel.from {
        known_from_columns(t, catalog, &mut inner_visible);
    }

    // FROM items are substituted left to right: a LATERAL subquery sees the
    // outer scope plus the columns of *preceding* items only — never its
    // own alias columns (a let named like an outer variable must still have
    // its right-hand side substituted) and never following items'.
    let mut preceding = visible.to_vec();
    let from = sel
        .from
        .into_iter()
        .map(|t| subst_table_ref(t, map, catalog, visible, &mut preceding))
        .collect();
    Select {
        distinct: sel.distinct,
        items: sel
            .items
            .into_iter()
            .map(|item| match item {
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: subst_expr(expr, map, catalog, &inner_visible),
                    alias,
                },
                other => other,
            })
            .collect(),
        from,
        where_: sel
            .where_
            .map(|e| subst_expr(e, map, catalog, &inner_visible)),
        group_by: sel
            .group_by
            .into_iter()
            .map(|e| subst_expr(e, map, catalog, &inner_visible))
            .collect(),
        having: sel
            .having
            .map(|e| subst_expr(e, map, catalog, &inner_visible)),
        windows: sel
            .windows
            .into_iter()
            .map(|(n, spec)| (n, subst_window_spec(spec, map, catalog, &inner_visible)))
            .collect(),
    }
}

fn subst_window_spec(
    spec: WindowSpec,
    map: &Subst,
    catalog: &Catalog,
    visible: &[String],
) -> WindowSpec {
    WindowSpec {
        base: spec.base,
        partition_by: spec
            .partition_by
            .into_iter()
            .map(|e| subst_expr(e, map, catalog, visible))
            .collect(),
        order_by: spec
            .order_by
            .into_iter()
            .map(|mut oi| {
                oi.expr = subst_expr(oi.expr, map, catalog, visible);
                oi
            })
            .collect(),
        frame: spec.frame,
    }
}

fn subst_table_ref(
    t: TableRef,
    map: &Subst,
    catalog: &Catalog,
    outer_visible: &[String],
    preceding: &mut Vec<String>,
) -> TableRef {
    subst_table_ref_inner(t, map, catalog, outer_visible, preceding, false)
}

/// `preceding` accumulates the columns of FROM items already processed (in
/// join order); on return it additionally holds this item's columns.
fn subst_table_ref_inner(
    t: TableRef,
    map: &Subst,
    catalog: &Catalog,
    outer_visible: &[String],
    preceding: &mut Vec<String>,
    parent_lateral: bool,
) -> TableRef {
    match t {
        TableRef::Table { .. } => {
            known_from_columns(&t, catalog, preceding);
            t
        }
        TableRef::Derived {
            lateral,
            query,
            alias,
        } => {
            // LATERAL subqueries additionally see the columns of items to
            // their left; non-lateral ones see only the outer visibility.
            // Neither sees its own alias columns. The LATERAL marker may
            // sit on the Derived itself (comma-list item) or on the
            // enclosing Join (`JOIN LATERAL`).
            let vis: &[String] = if lateral || parent_lateral {
                preceding
            } else {
                outer_visible
            };
            let out = TableRef::Derived {
                lateral,
                query: Box::new(subst_query(*query, map, catalog, vis)),
                alias,
            };
            known_from_columns(&out, catalog, preceding);
            out
        }
        TableRef::Join {
            left,
            right,
            kind,
            lateral,
            on,
        } => {
            let left = Box::new(subst_table_ref_inner(
                *left,
                map,
                catalog,
                outer_visible,
                preceding,
                false,
            ));
            let right = Box::new(subst_table_ref_inner(
                *right,
                map,
                catalog,
                outer_visible,
                preceding,
                lateral,
            ));
            // ON sees both sides (now accumulated in `preceding`).
            TableRef::Join {
                left,
                right,
                kind,
                lateral,
                on: on.map(|e| subst_expr(e, map, catalog, preceding)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::Session;
    use plaway_sql::{parse_expr, parse_query};

    fn catalog_with_policy() -> Catalog {
        let mut s = Session::default();
        s.run("CREATE TABLE policy (loc int, action text)").unwrap();
        s.run("CREATE TABLE actions (here int, action text, there int, prob float8)")
            .unwrap();
        (*s.catalog).clone()
    }

    fn m(pairs: &[(&str, &str)]) -> Subst {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), parse_expr(v).unwrap()))
            .collect()
    }

    #[test]
    fn substitutes_free_variable_not_column() {
        let cat = catalog_with_policy();
        // `location` is free (a PL/SQL variable), `loc`/`action` are columns.
        let e = parse_expr("(SELECT p.action FROM policy AS p WHERE location = p.loc)").unwrap();
        let out = subst_expr(e, &m(&[("location", "r.location1")]), &cat, &[]);
        let printed = out.to_string();
        assert!(printed.contains("r.location1 = p.loc"), "{printed}");
    }

    #[test]
    fn column_of_scanned_table_is_not_captured() {
        let cat = catalog_with_policy();
        // `action` IS a column of actions: must NOT be substituted.
        let e = parse_expr("(SELECT a.there FROM actions AS a WHERE action = 'up')").unwrap();
        let out = subst_expr(e, &m(&[("action", "r.movement1")]), &cat, &[]);
        let printed = out.to_string();
        assert!(
            printed.contains("action = 'up'") && !printed.contains("r.movement1"),
            "{printed}"
        );
    }

    #[test]
    fn qualified_references_never_substituted() {
        let cat = Catalog::new();
        let e = parse_expr("q.location + location").unwrap();
        let out = subst_expr(e, &m(&[("location", "9")]), &cat, &[]);
        assert_eq!(out.to_string(), "q.location + 9");
    }

    #[test]
    fn derived_table_alias_columns_shadow() {
        let cat = Catalog::new();
        // `lo` is bound by the derived table alias; must not be replaced.
        let e = parse_expr(
            "(SELECT m.loc FROM (SELECT 1, 2, 3) AS m(loc, lo, hi) WHERE roll BETWEEN lo AND hi)",
        )
        .unwrap();
        let out = subst_expr(
            e,
            &m(&[("roll", "0.5"), ("lo", "999"), ("hi", "999")]),
            &cat,
            &[],
        );
        let printed = out.to_string();
        assert!(printed.contains("0.5 BETWEEN lo AND hi"), "{printed}");
    }

    #[test]
    fn nested_subqueries_accumulate_visibility() {
        let cat = catalog_with_policy();
        let q = parse_query(
            "SELECT (SELECT p.action FROM policy AS p WHERE loc = outer_var) FROM actions",
        )
        .unwrap();
        // `loc` is visible from the inner policy scan -> column; `outer_var`
        // is free -> substituted.
        let out = subst_query(q, &m(&[("outer_var", "42"), ("loc", "13")]), &cat, &[]);
        let printed = out.to_string();
        assert!(printed.contains("loc = 42"), "{printed}");
        assert!(!printed.contains("13"), "{printed}");
    }

    #[test]
    fn window_clause_expressions_are_substituted() {
        let cat = catalog_with_policy();
        let q = parse_query(
            "SELECT SUM(a.prob) OVER w FROM actions AS a \
             WINDOW w AS (PARTITION BY freevar ORDER BY a.there)",
        )
        .unwrap();
        let out = subst_query(q, &m(&[("freevar", "7")]), &cat, &[]);
        assert!(out.to_string().contains("PARTITION BY 7"), "{}", out);
    }

    #[test]
    fn substitution_inside_paper_q2_touches_only_variables() {
        let cat = catalog_with_policy();
        let q2 = parse_expr(
            "(SELECT move.loc \
              FROM (SELECT a.there AS loc, \
                           COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo, \
                           SUM(a.prob) OVER leq AS hi \
                    FROM actions AS a \
                    WHERE location = a.here AND movement = a.action \
                    WINDOW leq AS (ORDER BY a.there), \
                           lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) \
                   ) AS move(loc, lo, hi) \
              WHERE roll BETWEEN move.lo AND move.hi)",
        )
        .unwrap();
        let out = subst_expr(
            q2,
            &m(&[
                ("location", "r.location1"),
                ("movement", "movement2"),
                ("roll", "roll"),
            ]),
            &cat,
            &[],
        );
        let printed = out.to_string();
        assert!(printed.contains("r.location1 = a.here"), "{printed}");
        assert!(printed.contains("movement2 = a.action"), "{printed}");
        // Columns of the derived alias survive untouched.
        assert!(printed.contains("move.lo"), "{printed}");
    }
}
