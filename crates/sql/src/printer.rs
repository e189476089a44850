//! SQL pretty printer.
//!
//! Produces text that re-parses to the same AST (property-tested). Used for
//! the compiler's generated queries (Figures 7–9 of the paper), error
//! messages, and the examples that show intermediate forms.

use std::fmt::Write;

use plaway_common::Value;

use crate::ast::*;

/// Operator precedence used to decide parenthesization; mirrors the parser.
fn prec_of(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 5,
            BinOp::Concat => 7,
            BinOp::Add | BinOp::Sub => 8,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 9,
        },
        Expr::Unary { op: UnOp::Not, .. } => 3,
        Expr::IsNull { .. } => 4,
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. } => 6,
        Expr::Unary { op: UnOp::Neg, .. } => 10,
        Expr::Cast { .. } => 11,
        _ => 12,
    }
}

/// Quote an identifier if it is not a plain lowercase name (or would clash
/// with syntax). Quoted form always re-lexes to the same identifier.
pub fn quote_ident(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    write_ident(&mut out, name);
    out
}

/// [`quote_ident`], written into `out`.
fn write_ident(out: &mut String, name: &str) {
    let plain = name
        .bytes()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == b'_')
        && name
            .bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_');
    if plain && !needs_quotes(name) {
        out.push_str(name);
    } else {
        out.push('"');
        for c in name.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    }
}

/// A handful of words the parser treats specially even in ident position.
fn needs_quotes(name: &str) -> bool {
    matches!(
        name,
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "offset"
            | "union"
            | "except"
            | "intersect"
            | "case"
            | "when"
            | "then"
            | "else"
            | "end"
            | "null"
            | "true"
            | "false"
            | "and"
            | "or"
            | "not"
            | "as"
            | "on"
            | "join"
            | "left"
            | "cross"
            | "lateral"
            | "exists"
            | "row"
            | "cast"
            | "between"
            | "in"
            | "like"
            | "is"
            | "with"
            | "values"
            | "window"
            | "over"
    )
}

/// `name1, name2, ...`, each quoted as needed.
fn write_ident_list(out: &mut String, names: &[String]) {
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_ident(out, n);
    }
}

/// `e1, e2, ...`.
fn write_expr_list(out: &mut String, exprs: &[Expr]) {
    for (i, e) in exprs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, e, 0);
    }
}

/// A literal; the forms generated queries are made of are written in place.
fn write_literal(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        other => out.push_str(&other.to_sql_literal()),
    }
}

/// Render an expression, parenthesizing children of lower precedence.
fn write_expr(out: &mut String, e: &Expr, min_prec: u8) {
    let p = prec_of(e);
    let need_parens = p < min_prec;
    if need_parens {
        out.push('(');
    }
    match e {
        Expr::Literal(v) => write_literal(out, v),
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                write_ident(out, q);
                out.push('.');
            }
            write_ident(out, name);
        }
        // Parameters have no surface syntax; print as a column so the
        // text stays parseable (resolution re-creates the Param).
        Expr::Param(name) => write_ident(out, name),
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => {
                out.push('-');
                write_expr(out, expr, 10);
            }
            UnOp::Not => {
                out.push_str("NOT ");
                write_expr(out, expr, 3);
            }
        },
        Expr::Binary { op, left, right } => {
            // Left-assoc: left child may be same precedence, right must be
            // strictly higher.
            write_expr(out, left, p);
            out.push(' ');
            out.push_str(op.sql());
            out.push(' ');
            write_expr(out, right, p + 1);
        }
        Expr::IsNull { expr, negated } => {
            write_expr(out, expr, 5);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_expr(out, low, 7);
            out.push_str(" AND ");
            write_expr(out, high, 7);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_expr_list(out, list);
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_query(out, query);
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_expr(out, pattern, 7);
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op, 0);
            }
            for (when, then) in branches {
                out.push_str(" WHEN ");
                write_expr(out, when, 0);
                out.push_str(" THEN ");
                write_expr(out, then, 0);
            }
            if let Some(els) = else_ {
                out.push_str(" ELSE ");
                write_expr(out, els, 0);
            }
            out.push_str(" END");
        }
        Expr::Func { name, args } => {
            write_ident(out, name);
            out.push('(');
            write_expr_list(out, args);
            out.push(')');
        }
        Expr::CountStar => out.push_str("count(*)"),
        Expr::WindowFunc { name, args, window } => {
            if name == "count" && args.is_empty() {
                out.push_str("count(*)");
            } else {
                write_ident(out, name);
                out.push('(');
                write_expr_list(out, args);
                out.push(')');
            }
            out.push_str(" OVER ");
            match window {
                WindowRef::Named(n) => write_ident(out, n),
                WindowRef::Inline(spec) => {
                    out.push('(');
                    write_window_spec(out, spec);
                    out.push(')');
                }
            }
        }
        Expr::Subquery(q) => {
            out.push('(');
            write_query(out, q);
            out.push(')');
        }
        Expr::Exists(q) => {
            out.push_str("EXISTS (");
            write_query(out, q);
            out.push(')');
        }
        Expr::Row(items) => {
            out.push_str("ROW(");
            write_expr_list(out, items);
            out.push(')');
        }
        Expr::Cast { expr, ty } => {
            // Always use CAST() form: `::` on complex operands needs parens
            // anyway and CAST is unambiguous.
            out.push_str("CAST(");
            write_expr(out, expr, 0);
            out.push_str(" AS ");
            out.push_str(ty);
            out.push(')');
        }
    }
    if need_parens {
        out.push(')');
    }
}

fn write_window_spec(out: &mut String, spec: &WindowSpec) {
    let mut first = true;
    let space = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(' ');
        }
        *first = false;
    };
    if let Some(base) = &spec.base {
        space(out, &mut first);
        write_ident(out, base);
    }
    if !spec.partition_by.is_empty() {
        space(out, &mut first);
        out.push_str("PARTITION BY ");
        write_expr_list(out, &spec.partition_by);
    }
    if !spec.order_by.is_empty() {
        space(out, &mut first);
        out.push_str("ORDER BY ");
        write_order_items(out, &spec.order_by);
    }
    if let Some(frame) = &spec.frame {
        space(out, &mut first);
        out.push_str(match frame.units {
            FrameUnits::Rows => "ROWS",
            FrameUnits::Range => "RANGE",
        });
        out.push_str(" BETWEEN ");
        write_frame_bound(out, &frame.start);
        out.push_str(" AND ");
        write_frame_bound(out, &frame.end);
        if frame.exclude_current_row {
            out.push_str(" EXCLUDE CURRENT ROW");
        }
    }
}

fn write_frame_bound(out: &mut String, b: &FrameBound) {
    let _ = match b {
        FrameBound::UnboundedPreceding => write!(out, "UNBOUNDED PRECEDING"),
        FrameBound::Preceding(n) => write!(out, "{n} PRECEDING"),
        FrameBound::CurrentRow => write!(out, "CURRENT ROW"),
        FrameBound::Following(n) => write!(out, "{n} FOLLOWING"),
        FrameBound::UnboundedFollowing => write!(out, "UNBOUNDED FOLLOWING"),
    };
}

fn write_order_items(out: &mut String, items: &[OrderItem]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, &item.expr, 0);
        if item.desc {
            out.push_str(" DESC");
        }
        match item.nulls_first {
            Some(true) => out.push_str(" NULLS FIRST"),
            Some(false) => out.push_str(" NULLS LAST"),
            None => {}
        }
    }
}

fn write_table_ref(out: &mut String, t: &TableRef) {
    match t {
        TableRef::Table { name, alias } => {
            write_ident(out, name);
            if let Some(a) = alias {
                write_alias(out, a);
            }
        }
        TableRef::Derived {
            lateral,
            query,
            alias,
        } => {
            if *lateral {
                out.push_str("LATERAL ");
            }
            out.push('(');
            write_query(out, query);
            out.push(')');
            write_alias(out, alias);
        }
        TableRef::Join {
            left,
            right,
            kind,
            lateral,
            on,
        } => {
            write_table_ref(out, left);
            out.push_str(match kind {
                JoinKind::Inner => " JOIN ",
                JoinKind::Left => " LEFT JOIN ",
                JoinKind::Cross => " CROSS JOIN ",
            });
            if *lateral {
                out.push_str("LATERAL ");
            }
            // Parenthesize nested joins on the right to keep associativity.
            if matches!(**right, TableRef::Join { .. }) {
                out.push('(');
                write_table_ref(out, right);
                out.push(')');
            } else {
                write_table_ref(out, right);
            }
            if let Some(on) = on {
                out.push_str(" ON ");
                write_expr(out, on, 0);
            }
        }
    }
}

fn write_alias(out: &mut String, a: &TableAlias) {
    out.push_str(" AS ");
    write_ident(out, &a.name);
    if !a.columns.is_empty() {
        out.push('(');
        write_ident_list(out, &a.columns);
        out.push(')');
    }
}

/// `(e1, ...), (e2, ...)` of a VALUES list.
fn write_values_rows(out: &mut String, rows: &[Vec<Expr>]) {
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('(');
        write_expr_list(out, row);
        out.push(')');
    }
}

/// Append a SELECT block to `out`.
pub fn write_select(out: &mut String, s: &Select) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                write_ident(out, q);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr, 0);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    write_ident(out, a);
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, t) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_table_ref(out, t);
        }
    }
    if let Some(w) = &s.where_ {
        out.push_str(" WHERE ");
        write_expr(out, w, 0);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        write_expr_list(out, &s.group_by);
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        write_expr(out, h, 0);
    }
    if !s.windows.is_empty() {
        out.push_str(" WINDOW ");
        for (i, (name, spec)) in s.windows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_ident(out, name);
            out.push_str(" AS (");
            write_window_spec(out, spec);
            out.push(')');
        }
    }
}

/// Append a query body (SELECT, set operation, VALUES) to `out`.
pub fn write_set_expr(out: &mut String, body: &SetExpr) {
    match body {
        SetExpr::Select(s) => write_select(out, s),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            write_set_expr(out, left);
            out.push_str(match op {
                SetOp::Union => " UNION",
                SetOp::Except => " EXCEPT",
                SetOp::Intersect => " INTERSECT",
            });
            if *all {
                out.push_str(" ALL");
            }
            out.push(' ');
            write_set_expr(out, right);
        }
        SetExpr::Values(rows) => {
            out.push_str("VALUES ");
            write_values_rows(out, rows);
        }
        SetExpr::Query(q) => {
            out.push('(');
            write_query(out, q);
            out.push(')');
        }
    }
}

/// Append a full query to `out`. Nested queries (subqueries, derived
/// tables, CTE bodies) are written into the same buffer.
pub fn write_query(out: &mut String, q: &Query) {
    if let Some(with) = &q.with {
        out.push_str("WITH ");
        if with.recursive {
            out.push_str("RECURSIVE ");
        } else if with.iterate {
            out.push_str("ITERATE ");
        } else if with.retire {
            out.push_str("RETIRE ");
        }
        for (i, cte) in with.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_ident(out, &cte.name);
            if !cte.columns.is_empty() {
                out.push('(');
                write_ident_list(out, &cte.columns);
                out.push(')');
            }
            out.push_str(" AS (");
            write_query(out, &cte.query);
            out.push(')');
        }
        out.push(' ');
    }
    write_set_expr(out, &q.body);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        write_order_items(out, &q.order_by);
    }
    if let Some(l) = &q.limit {
        out.push_str(" LIMIT ");
        write_expr(out, l, 0);
    }
    if let Some(o) = &q.offset {
        out.push_str(" OFFSET ");
        write_expr(out, o, 0);
    }
}

/// Render into a fresh buffer and hand it to a formatter.
fn display_with<T: ?Sized>(
    f: &mut std::fmt::Formatter<'_>,
    value: &T,
    write: fn(&mut String, &T),
) -> std::fmt::Result {
    let mut out = String::new();
    write(&mut out, value);
    f.write_str(&out)
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        display_with(f, self, |out, e| write_expr(out, e, 0))
    }
}

impl std::fmt::Display for Select {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        display_with(f, self, write_select)
    }
}

impl std::fmt::Display for SetExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        display_with(f, self, write_set_expr)
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        display_with(f, self, write_query)
    }
}

impl std::fmt::Display for Stmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stmt::Query(q) => write!(f, "{q}"),
            Stmt::Explain { analyze, stmt } => write!(
                f,
                "EXPLAIN {}{}",
                if *analyze { "ANALYZE " } else { "" },
                stmt
            ),
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|(c, t)| format!("{} {}", quote_ident(c), t))
                    .collect();
                write!(
                    f,
                    "CREATE TABLE {}{} ({})",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" },
                    quote_ident(name),
                    cols.join(", ")
                )
            }
            Stmt::CreateIndex {
                name,
                table,
                column,
                using,
            } => write!(
                f,
                "CREATE INDEX {} ON {}{} ({})",
                quote_ident(name),
                quote_ident(table),
                using
                    .map(|m| format!(" USING {}", m.sql()))
                    .unwrap_or_default(),
                quote_ident(column)
            ),
            Stmt::CreateFunction(cf) => {
                let params: Vec<String> = cf
                    .params
                    .iter()
                    .map(|(p, t)| format!("{} {}", quote_ident(p), t))
                    .collect();
                // Choose a dollar-quote tag that does not occur in the body,
                // and print the body verbatim so CREATE FUNCTION round-trips.
                let mut tag = String::new();
                while cf.body.contains(&format!("${tag}$")) {
                    tag.push('q');
                }
                write!(
                    f,
                    "CREATE {}FUNCTION {}({}) RETURNS {} AS ${tag}${}${tag}$ LANGUAGE {}",
                    if cf.or_replace { "OR REPLACE " } else { "" },
                    quote_ident(&cf.name),
                    params.join(", "),
                    cf.returns,
                    cf.body,
                    match cf.language {
                        Language::Sql => "SQL",
                        Language::PlPgSql => "PLPGSQL",
                    }
                )
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => {
                let mut out = String::from("INSERT INTO ");
                write_ident(&mut out, table);
                if !columns.is_empty() {
                    out.push_str(" (");
                    write_ident_list(&mut out, columns);
                    out.push(')');
                }
                match source {
                    InsertSource::Values(rows) => {
                        out.push_str(" VALUES ");
                        write_values_rows(&mut out, rows);
                    }
                    InsertSource::Query(q) => {
                        out.push(' ');
                        write_query(&mut out, q);
                    }
                }
                f.write_str(&out)
            }
            Stmt::Update {
                table,
                sets,
                where_,
            } => {
                let mut out = format!("UPDATE {} SET ", quote_ident(table));
                for (i, (c, e)) in sets.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{} = ", quote_ident(c));
                    write_expr(&mut out, e, 0);
                }
                if let Some(w) = where_ {
                    out.push_str(" WHERE ");
                    write_expr(&mut out, w, 0);
                }
                f.write_str(&out)
            }
            Stmt::Delete { table, where_ } => {
                let mut out = format!("DELETE FROM {}", quote_ident(table));
                if let Some(w) = where_ {
                    out.push_str(" WHERE ");
                    write_expr(&mut out, w, 0);
                }
                f.write_str(&out)
            }
            Stmt::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                quote_ident(name)
            ),
            Stmt::DropFunction { name, if_exists } => write!(
                f,
                "DROP FUNCTION {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                quote_ident(name)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse_expr, parse_query, parse_statement};

    /// Print → parse must reproduce the same AST.
    fn roundtrip_expr(sql: &str) {
        let ast = parse_expr(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} does not re-parse: {e}"));
        assert_eq!(ast, reparsed, "round trip changed AST for {printed:?}");
    }

    fn roundtrip_query(sql: &str) {
        let ast = parse_query(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} does not re-parse: {e}"));
        assert_eq!(ast, reparsed, "round trip changed AST for {printed:?}");
    }

    #[test]
    fn exprs_round_trip() {
        for sql in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "-x + 1",
            "NOT a AND b OR c",
            "a || b || 'x'",
            "x BETWEEN 1 AND 2 OR y",
            "x NOT IN (1, 2, 3)",
            "CASE WHEN a THEN 1 ELSE 2 END",
            "CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END",
            "COALESCE(SUM(a.prob), 0.0)",
            "roll BETWEEN move.lo AND move.hi",
            "CAST(NULL AS int)",
            "x::float8::text",
            "ROW(true, ROW(1, 2), NULL)",
            "a IS NOT NULL",
            "(SELECT 1)",
            "EXISTS (SELECT 1 FROM t WHERE t.a = x)",
            "f(g(1), h())",
            "step * sign(reward)",
            "s LIKE 'a%'",
        ] {
            roundtrip_expr(sql);
        }
    }

    #[test]
    fn queries_round_trip() {
        for sql in [
            "SELECT 1",
            "SELECT a, b AS c FROM t WHERE a > 1 ORDER BY b DESC NULLS FIRST LIMIT 2 OFFSET 1",
            "SELECT DISTINCT x FROM t GROUP BY x HAVING COUNT(*) > 1",
            "SELECT * FROM a, b WHERE a.x = b.y",
            "SELECT t.* FROM t LEFT JOIN s ON t.a = s.a",
            "SELECT * FROM (SELECT 1) AS q(one) CROSS JOIN t",
            "SELECT * FROM run AS r, LATERAL (SELECT r.x) AS s(y)",
            "WITH RECURSIVE run(a, b) AS (SELECT 1, 2 UNION ALL SELECT a+1, b FROM run WHERE a < 3) SELECT * FROM run",
            "WITH ITERATE go(x) AS (SELECT 0 UNION ALL SELECT x+1 FROM go WHERE x < 9) SELECT x FROM go",
            "WITH RETIRE go(id, x) AS (SELECT 1, 0 UNION ALL SELECT id, x+1 FROM go WHERE x < 9) SELECT id, x FROM go",
            "VALUES (1, 'a'), (2, 'b')",
            "SELECT 1 UNION ALL SELECT 2",
            "SELECT sum(x) OVER w FROM t WINDOW w AS (ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW EXCLUDE CURRENT ROW)",
            "SELECT count(*) OVER (PARTITION BY a ORDER BY b) FROM t",
        ] {
            roundtrip_query(sql);
        }
    }

    #[test]
    fn walk_q2_round_trips() {
        // The gnarliest query in the paper (Q2 of Figure 3).
        roundtrip_query(
            "SELECT move.loc \
             FROM (SELECT a.there AS loc, \
                          COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo, \
                          SUM(a.prob) OVER leq AS hi \
                   FROM actions AS a \
                   WHERE location = a.here AND movement = a.action \
                   WINDOW leq AS (ORDER BY a.there), \
                          lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) \
                  ) AS move(loc, lo, hi) \
             WHERE roll BETWEEN move.lo AND move.hi",
        );
    }

    #[test]
    fn statements_round_trip() {
        for sql in [
            "CREATE TABLE t (a int, b text)",
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "INSERT INTO t SELECT * FROM s",
            "UPDATE t SET a = a + 1 WHERE b = 'x'",
            "DELETE FROM t WHERE a = 1",
            "DROP TABLE IF EXISTS t",
            "CREATE INDEX i ON t (a)",
            "CREATE INDEX i ON t USING btree (a)",
            "CREATE INDEX i ON t USING hash (a)",
            "EXPLAIN SELECT a FROM t WHERE a = 1",
            "EXPLAIN ANALYZE SELECT count(*) FROM t",
            "EXPLAIN ANALYZE INSERT INTO t (a, b) VALUES (1, 'x')",
        ] {
            let ast = parse_statement(sql).unwrap();
            let printed = ast.to_string();
            let reparsed = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("{printed:?} does not re-parse: {e}"));
            assert_eq!(ast, reparsed);
        }
    }

    #[test]
    fn quoted_idents_round_trip() {
        roundtrip_query(r#"SELECT r."call?" FROM run AS r WHERE NOT r."call?""#);
        let ast = parse_statement(
            r#"CREATE FUNCTION "walk*"(n int) RETURNS int AS $$ SELECT n $$ LANGUAGE SQL"#,
        )
        .unwrap();
        let printed = ast.to_string();
        assert!(printed.contains("\"walk*\""));
        assert_eq!(parse_statement(&printed).unwrap(), ast);
    }

    // ---- exact text. Compiled queries are cached, keyed and reported under
    // the printed text, so the printer's bytes are part of its contract.

    #[test]
    fn identifiers_print_exactly() {
        use super::quote_ident;
        use crate::ast::Expr;
        for (name, want) in [
            ("x", "x"),
            ("_x", "_x"),
            ("step1_b", "step1_b"),
            ("fn", "fn"),
            ("select", r#""select""#),
            ("window", r#""window""#),
            ("lateral", r#""lateral""#),
            ("Abc", r#""Abc""#),
            ("ABC", r#""ABC""#),
            (r#"a"b"#, r#""a""b""#),
            ("call?", r#""call?""#),
            ("call#", r#""call#""#),
            ("fib*", r#""fib*""#),
            ("1a", r#""1a""#),
            ("", r#""""#),
        ] {
            assert_eq!(quote_ident(name), want, "quote_ident({name:?})");
            assert_eq!(Expr::col(name).to_string(), want, "column {name:?}");
            assert_eq!(Expr::Param(name.into()).to_string(), want, "param {name:?}");
        }
        assert_eq!(Expr::qcol("r", "call?").to_string(), r#"r."call?""#);
        assert_eq!(Expr::qcol("Run", "fn").to_string(), r#""Run".fn"#);
        assert_eq!(
            Expr::func("walk*", vec![Expr::col("Step")]).to_string(),
            r#""walk*"("Step")"#
        );
    }

    #[test]
    fn literals_print_exactly() {
        use crate::ast::Expr;
        use plaway_common::Value;
        for (v, want) in [
            (Value::Null, "NULL"),
            (Value::Bool(true), "true"),
            (Value::Bool(false), "false"),
            (Value::Int(0), "0"),
            (Value::Int(42), "42"),
            (Value::Int(-42), "-42"),
            (Value::Int(i64::MIN), "-9223372036854775808"),
            (Value::Float(2.0), "2.0"),
            (Value::Float(-0.25), "-0.25"),
            (Value::Float(1e20), "100000000000000000000"),
            (Value::Float(f64::NAN), "'NaN'::float8"),
            (Value::Float(f64::NEG_INFINITY), "'-Infinity'::float8"),
            (Value::text(""), "''"),
            (Value::text("it's"), "'it''s'"),
            (
                Value::record(vec![
                    Value::Int(1),
                    Value::Null,
                    Value::text("a'b"),
                    Value::record(vec![Value::Bool(false)]),
                ]),
                "ROW(1, NULL, 'a''b', ROW(false))",
            ),
        ] {
            assert_eq!(Expr::Literal(v.clone()).to_string(), want, "{v:?}");
        }
        assert_eq!(
            Expr::Row(vec![Expr::bool(true), Expr::int(-3), Expr::null()]).to_string(),
            "ROW(true, -3, NULL)"
        );
        assert_eq!(
            Expr::Cast {
                expr: Box::new(Expr::null()),
                ty: "int".into()
            }
            .to_string(),
            "CAST(NULL AS int)"
        );
    }

    /// Every position a query nests in prints the same as at top level.
    #[test]
    fn nested_queries_print_exactly() {
        for sql in [
            // scalar subquery
            "SELECT (SELECT max(t.a) FROM t WHERE t.b = x) AS m",
            // EXISTS and IN (subquery)
            "SELECT 1 WHERE EXISTS (SELECT 1 FROM t WHERE t.a = x)",
            "SELECT s.x FROM s WHERE s.x NOT IN (SELECT t.a FROM t) AND s.y IN (SELECT 2)",
            // LATERAL derived table and a join chain
            r#"SELECT * FROM run AS r, LATERAL (SELECT r.x + 1) AS s(y)"#,
            "SELECT _1.b FROM (SELECT 1) AS _0(a) LEFT JOIN LATERAL (SELECT _0.a * 2) AS _1(b) ON true",
            "SELECT * FROM a JOIN b ON a.x = b.x CROSS JOIN c",
            // CTE bodies, every fixpoint keyword
            r#"WITH RECURSIVE run("call?", fn, "call#") AS (SELECT true, 1, 0 UNION ALL SELECT row_field(iter.x, 1), row_field(iter.x, 2), r."call#" FROM run AS r, LATERAL (SELECT ROW(false, r.fn)) AS iter(x) WHERE r."call?") SELECT r.fn AS result FROM run AS r WHERE NOT r."call?""#,
            "WITH ITERATE go(x) AS (SELECT 0 UNION ALL SELECT go.x + 1 FROM go WHERE go.x < 9) SELECT go.x FROM go",
            r#"WITH RETIRE go("call#", x) AS (SELECT inp."call#", 0 FROM "batch#f" AS inp UNION ALL SELECT go."call#", go.x + 1 FROM go WHERE go.x < 9) SELECT go."call#", go.x FROM go"#,
            "WITH a AS (SELECT 1), b(y) AS (SELECT 2) SELECT * FROM a, b",
            // set-operation chains and VALUES
            "SELECT 1 UNION ALL SELECT 2 UNION SELECT 3 EXCEPT SELECT 4 INTERSECT ALL SELECT 5",
            "VALUES (1, 'a'), (2, NULL)",
            "SELECT * FROM (VALUES (1), (2)) AS v(a) ORDER BY v.a DESC NULLS LAST LIMIT 1 OFFSET 1",
            // windows
            "SELECT sum(t.x) OVER w, count(*) OVER (PARTITION BY t.a ORDER BY t.b) FROM t WINDOW w AS (ORDER BY t.y ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
            "SELECT DISTINCT t.a, t.* FROM t GROUP BY t.a, t.b HAVING count(*) > 1",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(q.to_string(), sql);
        }
    }

    #[test]
    fn statements_print_exactly() {
        for (sql, want) in [
            (
                "create table t (a int, \"B\" text)",
                r#"CREATE TABLE t (a int, "B" text)"#,
            ),
            (
                "CREATE TABLE IF NOT EXISTS t (a int)",
                "CREATE TABLE IF NOT EXISTS t (a int)",
            ),
            ("CREATE INDEX i ON t (a)", "CREATE INDEX i ON t (a)"),
            (
                "CREATE INDEX i ON t USING hash (a)",
                "CREATE INDEX i ON t USING hash (a)",
            ),
            (
                r#"CREATE OR REPLACE FUNCTION "f*"(fn int, n int) RETURNS int AS $$ SELECT fn + n $$ LANGUAGE SQL"#,
                r#"CREATE OR REPLACE FUNCTION "f*"(fn int, n int) RETURNS int AS $$ SELECT fn + n $$ LANGUAGE SQL"#,
            ),
            (
                "CREATE FUNCTION f() RETURNS text AS $q$ SELECT '$$' $q$ LANGUAGE SQL",
                "CREATE FUNCTION f() RETURNS text AS $q$ SELECT '$$' $q$ LANGUAGE SQL",
            ),
            (
                "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
                "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
            ),
            (
                "INSERT INTO t SELECT * FROM s",
                "INSERT INTO t SELECT * FROM s",
            ),
            (
                "UPDATE t SET a = a + 1, b = 'y' WHERE b = 'x'",
                "UPDATE t SET a = a + 1, b = 'y' WHERE b = 'x'",
            ),
            ("DELETE FROM t", "DELETE FROM t"),
            ("DELETE FROM t WHERE a = 1", "DELETE FROM t WHERE a = 1"),
            ("DROP TABLE IF EXISTS t", "DROP TABLE IF EXISTS t"),
            ("DROP FUNCTION f", "DROP FUNCTION f"),
            (
                "EXPLAIN ANALYZE SELECT count(*) FROM t",
                "EXPLAIN ANALYZE SELECT count(*) FROM t",
            ),
        ] {
            assert_eq!(parse_statement(sql).unwrap().to_string(), want, "{sql}");
        }
    }

    #[test]
    fn precedence_parens_only_when_needed() {
        let e = parse_expr("(a + b) * c").unwrap();
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(e.to_string(), "a + b * c");
    }
}
