//! The shared traversals of the SQL AST.
//!
//! Every analysis or rewrite of an expression tree that is a traversal, not
//! a behaviour, goes through these functions: they are the one place that
//! lists which slot of a [`Query`] holds an expression. A read-only walk
//! ([`Expr::walk`], [`Expr::walk_nested`], [`Query::walk`],
//! [`SetExpr::walk`]) visits expressions pre-order; a rewrite
//! ([`Expr::rewrite`], [`Query::rewrite`]) replaces them bottom-up, in place.
//! Both enter inline `OVER (...)` specs and named `WINDOW` specs.
//!
//! Nested queries are entered through a per-subquery hook, `enter(query,
//! scope)`, asked before each query's slots are visited; returning `false`
//! leaves that query (and everything inside it) alone, so a caller can stop
//! at a scope that binds a name. The slots of a query, in the order they are
//! visited: CTE bodies, select items, FROM (derived tables, `JOIN ... ON`),
//! WHERE, GROUP BY, HAVING, named windows, VALUES rows, ORDER BY, LIMIT and
//! OFFSET.

use crate::ast::{
    Expr, OrderItem, Query, Select, SelectItem, SetExpr, TableRef, WindowRef, WindowSpec,
};

/// Where a query sits, as the subquery hook of the visitors sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryScope {
    /// The query a [`Query::walk`] / [`Query::rewrite`] started from.
    Root,
    /// The body of a `WITH` item.
    Cte,
    /// Any other nested query: a scalar, `EXISTS` or `IN` subquery, a
    /// derived table, or a parenthesized set-operation arm.
    Nested,
}

impl Expr {
    /// Visit this expression and its sub-expressions, pre-order. Nested
    /// queries are opaque; see [`Expr::walk_nested`].
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        walk_expr(self, f, &mut |_, _| false);
    }

    /// [`Expr::walk`] that also visits the expressions of every nested
    /// query for which `enter` returns `true`.
    pub fn walk_nested<'a>(
        &'a self,
        f: &mut impl FnMut(&'a Expr),
        enter: &mut impl FnMut(&'a Query, QueryScope) -> bool,
    ) {
        walk_expr(self, f, enter);
    }

    /// Replace every sub-expression `e` by `f(e)`, bottom-up, including
    /// those of the nested queries for which `enter` returns `true`.
    pub fn rewrite(
        mut self,
        f: &mut impl FnMut(Expr) -> Expr,
        enter: &mut impl FnMut(&Query, QueryScope) -> bool,
    ) -> Expr {
        rewrite_expr(&mut self, f, enter);
        self
    }

    /// Does the expression contain a subquery or `EXISTS`/`IN (SELECT)`?
    /// Such expressions cannot take the PL/pgSQL "simple expression" fast
    /// path.
    pub fn has_subquery(&self) -> bool {
        let mut found = false;
        walk_expr(self, &mut |_| {}, &mut |_, _| {
            found = true;
            false
        });
        found
    }
}

impl Query {
    /// Visit every expression of the query, pre-order, entering the query
    /// itself (as [`QueryScope::Root`]) and each nested query for which
    /// `enter` returns `true`.
    pub fn walk<'a>(
        &'a self,
        f: &mut impl FnMut(&'a Expr),
        enter: &mut impl FnMut(&'a Query, QueryScope) -> bool,
    ) {
        walk_query(self, QueryScope::Root, f, enter);
    }

    /// Replace every expression `e` of the query by `f(e)`, bottom-up,
    /// entering the query itself (as [`QueryScope::Root`]) and each nested
    /// query for which `enter` returns `true`.
    pub fn rewrite(
        mut self,
        f: &mut impl FnMut(Expr) -> Expr,
        enter: &mut impl FnMut(&Query, QueryScope) -> bool,
    ) -> Query {
        rewrite_query(&mut self, QueryScope::Root, f, enter);
        self
    }
}

impl SetExpr {
    /// [`Query::walk`] over a query body alone.
    pub fn walk<'a>(
        &'a self,
        f: &mut impl FnMut(&'a Expr),
        enter: &mut impl FnMut(&'a Query, QueryScope) -> bool,
    ) {
        walk_set(self, f, enter);
    }

    /// Call `f` on each SELECT block of this body, through set-operation
    /// arms. A parenthesized arm is a nested query and is not entered.
    pub fn for_each_select<'a>(&'a self, f: &mut impl FnMut(&'a Select)) {
        match self {
            SetExpr::Select(s) => f(s),
            SetExpr::SetOp { left, right, .. } => {
                left.for_each_select(f);
                right.for_each_select(f);
            }
            SetExpr::Values(_) | SetExpr::Query(_) => {}
        }
    }
}

impl TableRef {
    /// Call `f` on each table and derived table of this FROM item, through
    /// joins, left to right.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a TableRef)) {
        match self {
            TableRef::Join { left, right, .. } => {
                left.for_each_leaf(f);
                right.for_each_leaf(f);
            }
            TableRef::Table { .. } | TableRef::Derived { .. } => f(self),
        }
    }
}

// ---------------------------------------------------------------------------
// Read-only walk

#[deny(clippy::wildcard_enum_match_arm)]
fn walk_expr<'a, F, H>(e: &'a Expr, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    f(e);
    match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) | Expr::CountStar => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            walk_expr(expr, f, enter)
        }
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f, enter);
            walk_expr(right, f, enter);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f, enter);
            walk_expr(low, f, enter);
            walk_expr(high, f, enter);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f, enter);
            list.iter().for_each(|e| walk_expr(e, f, enter));
        }
        Expr::InSubquery { expr, query, .. } => {
            walk_expr(expr, f, enter);
            walk_query(query, QueryScope::Nested, f, enter);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f, enter);
            walk_expr(pattern, f, enter);
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            if let Some(o) = operand {
                walk_expr(o, f, enter);
            }
            for (w, t) in branches {
                walk_expr(w, f, enter);
                walk_expr(t, f, enter);
            }
            if let Some(e) = else_ {
                walk_expr(e, f, enter);
            }
        }
        Expr::Func { args, .. } | Expr::Row(args) => {
            args.iter().for_each(|a| walk_expr(a, f, enter));
        }
        Expr::WindowFunc { args, window, .. } => {
            args.iter().for_each(|a| walk_expr(a, f, enter));
            match window {
                WindowRef::Named(_) => {}
                WindowRef::Inline(spec) => walk_window(spec, f, enter),
            }
        }
        Expr::Subquery(q) | Expr::Exists(q) => walk_query(q, QueryScope::Nested, f, enter),
    }
}

fn walk_query<'a, F, H>(q: &'a Query, scope: QueryScope, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    if !enter(q, scope) {
        return;
    }
    for cte in q.with.iter().flat_map(|w| &w.ctes) {
        walk_query(&cte.query, QueryScope::Cte, f, enter);
    }
    walk_set(&q.body, f, enter);
    walk_order(&q.order_by, f, enter);
    for e in q.limit.iter().chain(&q.offset) {
        walk_expr(e, f, enter);
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn walk_set<'a, F, H>(body: &'a SetExpr, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    match body {
        SetExpr::Select(s) => walk_select(s, f, enter),
        SetExpr::SetOp { left, right, .. } => {
            walk_set(left, f, enter);
            walk_set(right, f, enter);
        }
        SetExpr::Values(rows) => rows.iter().flatten().for_each(|e| walk_expr(e, f, enter)),
        SetExpr::Query(q) => walk_query(q, QueryScope::Nested, f, enter),
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn walk_select<'a, F, H>(s: &'a Select, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    for item in &s.items {
        match item {
            SelectItem::Expr { expr, .. } => walk_expr(expr, f, enter),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {}
        }
    }
    s.from.iter().for_each(|t| walk_table(t, f, enter));
    for e in s.where_.iter().chain(&s.group_by).chain(&s.having) {
        walk_expr(e, f, enter);
    }
    for (_, spec) in &s.windows {
        walk_window(spec, f, enter);
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn walk_table<'a, F, H>(t: &'a TableRef, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => walk_query(query, QueryScope::Nested, f, enter),
        TableRef::Join {
            left, right, on, ..
        } => {
            walk_table(left, f, enter);
            walk_table(right, f, enter);
            if let Some(on) = on {
                walk_expr(on, f, enter);
            }
        }
    }
}

fn walk_window<'a, F, H>(spec: &'a WindowSpec, f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    spec.partition_by
        .iter()
        .for_each(|e| walk_expr(e, f, enter));
    walk_order(&spec.order_by, f, enter);
}

fn walk_order<'a, F, H>(items: &'a [OrderItem], f: &mut F, enter: &mut H)
where
    F: FnMut(&'a Expr),
    H: FnMut(&'a Query, QueryScope) -> bool,
{
    items.iter().for_each(|o| walk_expr(&o.expr, f, enter));
}

// ---------------------------------------------------------------------------
// In-place rewrite (same slots, same order, children before parents)

#[deny(clippy::wildcard_enum_match_arm)]
fn rewrite_expr<F, H>(e: &mut Expr, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) | Expr::CountStar => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            rewrite_expr(expr, f, enter)
        }
        Expr::Binary { left, right, .. } => {
            rewrite_expr(left, f, enter);
            rewrite_expr(right, f, enter);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            rewrite_expr(expr, f, enter);
            rewrite_expr(low, f, enter);
            rewrite_expr(high, f, enter);
        }
        Expr::InList { expr, list, .. } => {
            rewrite_expr(expr, f, enter);
            list.iter_mut().for_each(|e| rewrite_expr(e, f, enter));
        }
        Expr::InSubquery { expr, query, .. } => {
            rewrite_expr(expr, f, enter);
            rewrite_query(query, QueryScope::Nested, f, enter);
        }
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr(expr, f, enter);
            rewrite_expr(pattern, f, enter);
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            if let Some(o) = operand {
                rewrite_expr(o, f, enter);
            }
            for (w, t) in branches {
                rewrite_expr(w, f, enter);
                rewrite_expr(t, f, enter);
            }
            if let Some(e) = else_ {
                rewrite_expr(e, f, enter);
            }
        }
        Expr::Func { args, .. } | Expr::Row(args) => {
            args.iter_mut().for_each(|a| rewrite_expr(a, f, enter));
        }
        Expr::WindowFunc { args, window, .. } => {
            args.iter_mut().for_each(|a| rewrite_expr(a, f, enter));
            match window {
                WindowRef::Named(_) => {}
                WindowRef::Inline(spec) => rewrite_window(spec, f, enter),
            }
        }
        Expr::Subquery(q) | Expr::Exists(q) => rewrite_query(q, QueryScope::Nested, f, enter),
    }
    let old = std::mem::replace(e, Expr::null());
    *e = f(old);
}

fn rewrite_query<F, H>(q: &mut Query, scope: QueryScope, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    if !enter(q, scope) {
        return;
    }
    for cte in q.with.iter_mut().flat_map(|w| &mut w.ctes) {
        rewrite_query(&mut cte.query, QueryScope::Cte, f, enter);
    }
    rewrite_set(&mut q.body, f, enter);
    rewrite_order(&mut q.order_by, f, enter);
    for e in q.limit.iter_mut().chain(&mut q.offset) {
        rewrite_expr(e, f, enter);
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn rewrite_set<F, H>(body: &mut SetExpr, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    match body {
        SetExpr::Select(s) => rewrite_select(s, f, enter),
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set(left, f, enter);
            rewrite_set(right, f, enter);
        }
        SetExpr::Values(rows) => rows
            .iter_mut()
            .flatten()
            .for_each(|e| rewrite_expr(e, f, enter)),
        SetExpr::Query(q) => rewrite_query(q, QueryScope::Nested, f, enter),
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn rewrite_select<F, H>(s: &mut Select, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    for item in &mut s.items {
        match item {
            SelectItem::Expr { expr, .. } => rewrite_expr(expr, f, enter),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {}
        }
    }
    s.from.iter_mut().for_each(|t| rewrite_table(t, f, enter));
    for e in s
        .where_
        .iter_mut()
        .chain(&mut s.group_by)
        .chain(&mut s.having)
    {
        rewrite_expr(e, f, enter);
    }
    for (_, spec) in &mut s.windows {
        rewrite_window(spec, f, enter);
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
fn rewrite_table<F, H>(t: &mut TableRef, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => rewrite_query(query, QueryScope::Nested, f, enter),
        TableRef::Join {
            left, right, on, ..
        } => {
            rewrite_table(left, f, enter);
            rewrite_table(right, f, enter);
            if let Some(on) = on {
                rewrite_expr(on, f, enter);
            }
        }
    }
}

fn rewrite_window<F, H>(spec: &mut WindowSpec, f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    spec.partition_by
        .iter_mut()
        .for_each(|e| rewrite_expr(e, f, enter));
    rewrite_order(&mut spec.order_by, f, enter);
}

fn rewrite_order<F, H>(items: &mut [OrderItem], f: &mut F, enter: &mut H)
where
    F: FnMut(Expr) -> Expr,
    H: FnMut(&Query, QueryScope) -> bool,
{
    items
        .iter_mut()
        .for_each(|o| rewrite_expr(&mut o.expr, f, enter));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    /// One marker column `m<i>` in every expression slot a query has.
    const EVERY_SLOT: &str = "WITH c AS (SELECT m1 FROM t) \
        SELECT m2, sum(m3) OVER (PARTITION BY m4 ORDER BY m5), rank() OVER w, \
               (SELECT m6), EXISTS (SELECT m7), m8 IN (SELECT m9), m10 IN (m11, m12), \
               CASE m13 WHEN m14 THEN m15 ELSE m16 END, m17 BETWEEN m18 AND m19, \
               m20 LIKE m21, CAST(m22 AS int), ROW(m23, m24), -m25, m26 IS NULL, f(m27) \
        FROM t JOIN (SELECT m28 FROM u) AS d ON m29, (VALUES (m30, m31)) AS v \
        WHERE m32 GROUP BY m33 HAVING m34 \
        WINDOW w AS (PARTITION BY m35 ORDER BY m36) \
        UNION ALL (SELECT m37 ORDER BY m38 LIMIT m39) \
        ORDER BY m40 LIMIT m41 OFFSET m42";
    const MARKERS: usize = 42;

    fn marker(e: &Expr) -> Option<usize> {
        match e {
            Expr::Column { name, .. } => name.strip_prefix('m')?.parse().ok(),
            _ => None,
        }
    }

    fn assert_each_once(mut seen: Vec<usize>) {
        seen.sort_unstable();
        assert_eq!(seen, (1..=MARKERS).collect::<Vec<_>>());
    }

    #[test]
    fn walk_reaches_every_slot_once() {
        let q = parse_query(EVERY_SLOT).unwrap();
        let mut seen = Vec::new();
        let mut scopes = Vec::new();
        q.walk(&mut |e| seen.extend(marker(e)), &mut |_, scope| {
            scopes.push(scope);
            true
        });
        assert_each_once(seen);
        // Root, the CTE, and six nested queries.
        assert_eq!(scopes[..2], [QueryScope::Root, QueryScope::Cte]);
        assert_eq!(scopes.len(), 8);
        assert!(scopes[2..].iter().all(|s| *s == QueryScope::Nested));
    }

    #[test]
    fn rewrite_reaches_every_slot_once() {
        let q = parse_query(EVERY_SLOT).unwrap();
        let mut seen = Vec::new();
        let out = q.rewrite(
            &mut |e| match marker(&e) {
                Some(i) => {
                    seen.push(i);
                    Expr::int(i as i64)
                }
                None => e,
            },
            &mut |_, _| true,
        );
        assert_each_once(seen);
        let mut left = Vec::new();
        out.walk(&mut |e| left.extend(marker(e)), &mut |_, _| true);
        assert!(left.is_empty(), "{left:?}");
    }

    #[test]
    fn hook_stops_at_a_scope() {
        let q = parse_query(EVERY_SLOT).unwrap();
        let (mut walked, mut rewritten) = (Vec::new(), Vec::new());
        q.walk(&mut |e| walked.extend(marker(e)), &mut |_, s| {
            s == QueryScope::Root
        });
        q.clone().rewrite(
            &mut |e| {
                rewritten.extend(marker(&e));
                e
            },
            &mut |_, s| s == QueryScope::Root,
        );
        let outer = [
            2, 3, 4, 5, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
            29, 32, 33, 34, 35, 36, 40, 41, 42,
        ];
        assert_eq!(walked, outer);
        assert_eq!(rewritten.len(), outer.len());
    }

    #[test]
    fn expr_walk_enters_inline_windows_not_subqueries() {
        let q = parse_query("SELECT sum(m1) OVER (PARTITION BY m2 ORDER BY (SELECT m3))").unwrap();
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let mut seen = Vec::new();
        expr.walk(&mut |e| seen.extend(marker(e)));
        assert_eq!(seen, [1, 2]);
        assert!(expr.has_subquery());
        seen.clear();
        expr.walk_nested(&mut |e| seen.extend(marker(e)), &mut |_, _| true);
        assert_eq!(seen, [1, 2, 3]);
    }
}
