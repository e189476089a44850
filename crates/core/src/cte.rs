//! The `WITH RECURSIVE` simulation of the tail-recursive UDF
//! (§2 SQL — Figures 8 and 9 of the paper).
//!
//! The CTE `run` tracks the evaluation of `f*`:
//!
//! * `call?` — does this row encode a pending recursive call?
//! * `fn` + the argument columns — which block function, with what values,
//! * `result` — the function result once a base case is reached.
//!
//! Recursive calls in the body become `(true, fn, args..., NULL)` rows and
//! base cases `(false, NULL..., result)` rows; the body is evaluated once
//! per iteration via `LATERAL`, and the final answer is the single row with
//! `NOT call?`.
//!
//! Two argument layouts are provided:
//!
//! * [`ArgsLayout::Flattened`] — one CTE column per argument (what Figure 9's
//!   `r.step1` accesses suggest); the row value produced by the body is
//!   unpacked with the engine's `row_field`.
//! * [`ArgsLayout::Packed`] — a single record-valued `args` column, literally
//!   the `run("call?", args, result)` of Figure 8.
//!
//! [`CteMode::Iterate`] emits `WITH ITERATE` instead of `WITH RECURSIVE` —
//! the Passing et al. construct the paper adds to PostgreSQL in §3, which
//! keeps only the final iteration and therefore needs no trace space
//! (Table 2).

use std::cell::Cell;

use plaway_common::{Error, Result, Type};
use plaway_engine::Catalog;
use plaway_sql::ast::{
    Cte, Expr, Query, Select, SelectItem, SetExpr, SetOp, TableAlias, TableRef, UnOp, WindowRef,
    With,
};

use crate::anf::{AnfProgram, AnfTail};
use crate::subst::{subst_expr, Subst};
use crate::udf::{build_case, LeafStyle, UdfProgram};

/// How the recursive CTE carries the argument vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArgsLayout {
    /// One column per argument (default; which layout is faster is
    /// workload-dependent — see the ablation bench).
    #[default]
    Flattened,
    /// One record-valued `args` column (the paper's Figure 8 shape).
    Packed,
}

/// Which fixpoint construct evaluates the CTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CteMode {
    /// Standard SQL:1999 `WITH RECURSIVE` (accumulates the full trace).
    #[default]
    Recursive,
    /// `WITH ITERATE`: only the final iteration survives (no trace).
    Iterate,
}

/// Build the pure-SQL query for a compiled function. The original function's
/// parameters appear as free identifiers — bind them via the engine's
/// `ParamScope` or substitute literals with [`bind_args`].
pub fn build_query(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
) -> Result<Query> {
    let (kept, body) = build_body(anf, udf, catalog, layout)?;
    Ok(assemble(udf, catalog, layout, mode, &kept, body, None))
}

/// Name of the batch row-id column. `#` is not a plain-identifier character,
/// so the name can never collide with a function parameter or SSA variable
/// (it pairs with the similarly quoted `"call?"`).
pub const BATCH_RID: &str = "call#";

/// Build the *batched* query: one in-flight activation per row of
/// `input_table` (columns `"call#" int` + one per function parameter), all
/// driven through a single fixpoint. Every leaf record is prefixed with the
/// activation's row id, so the working table interleaves the steps of every
/// invocation and the outer query returns `("call#", result)` pairs.
///
/// [`CteMode::Iterate`] maps to `WITH RETIRE` here, not `WITH ITERATE`:
/// ITERATE keeps only the *last* iteration's working table, which would drop
/// activations that finish early. RETIRE keeps no trace either, but moves a
/// row into the result the moment it fails the recursive arm's filter —
/// exactly the per-activation finish line.
pub fn build_batch_query(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
    input_table: &str,
) -> Result<Query> {
    let (kept, mut body) = build_body(anf, udf, catalog, layout)?;
    prefix_leaf_rows(&mut body)?;
    Ok(assemble(
        udf,
        catalog,
        layout,
        mode,
        &kept,
        body,
        Some(input_table),
    ))
}

/// [`build_query`] and [`build_batch_query`] from one build of the CTE
/// body: the batch body is a copy of the single one with every leaf record
/// prefixed by the row id.
pub fn build_queries(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
    input_table: &str,
) -> Result<(Query, Query)> {
    let (kept, body) = build_body(anf, udf, catalog, layout)?;
    let mut batch_body = body.clone();
    prefix_leaf_rows(&mut batch_body)?;
    let query = assemble(udf, catalog, layout, mode, &kept, body, None);
    let batch = assemble(
        udf,
        catalog,
        layout,
        mode,
        &kept,
        batch_body,
        Some(input_table),
    );
    Ok((query, batch))
}

/// `body(f*, r)` of a single activation, and the function parameters the
/// CTE carries.
///
/// Parameter pruning: parameters used only to *initialize* state (e.g.
/// `parse`'s input string, consumed into `rest` at entry) need not be
/// carried through the trace — that is precisely what makes Table 2's
/// WITH RECURSIVE footprint n²/2 instead of 1.5·n².
fn build_body(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
) -> Result<(Vec<String>, Expr)> {
    let k = udf.rec_vars.len();
    let kept = used_params(anf, &udf.fn_params);

    // Re-render leaves as row constructions, then redirect all
    // variable/parameter references to the CTE row `r`.
    let encoded = build_case(
        anf,
        &udf.rec_vars,
        &udf.tags,
        udf.entry_tag,
        &LeafStyle::RowEncode {
            packed: layout == ArgsLayout::Packed,
            params: &kept,
        },
    )?;
    let mut map = Subst::new();
    map.insert("fn".to_string(), Expr::qcol("r", "fn"));
    match layout {
        ArgsLayout::Flattened => {
            for (v, _) in &udf.rec_vars {
                map.insert(v.clone(), Expr::qcol("r", v.clone()));
            }
            for p in &kept {
                map.insert(p.clone(), Expr::qcol("r", p.clone()));
            }
        }
        ArgsLayout::Packed => {
            for (i, (v, _)) in udf.rec_vars.iter().enumerate() {
                map.insert(
                    v.clone(),
                    Expr::func(
                        "row_field",
                        vec![Expr::qcol("r", "args"), Expr::int(i as i64 + 1)],
                    ),
                );
            }
            for (j, p) in kept.iter().enumerate() {
                map.insert(
                    p.clone(),
                    Expr::func(
                        "row_field",
                        vec![Expr::qcol("r", "args"), Expr::int((k + j) as i64 + 1)],
                    ),
                );
            }
        }
    }
    let body = subst_expr(encoded, &map, catalog, &[]);
    Ok((kept, body))
}

/// Prefix every leaf record of a CTE body with the activation's row id
/// `r."call#"`. Leaves sit in tail positions only: the results of a CASE
/// and the single item of a `let` subquery. Prefixing after substitution
/// equals prefixing before it, because substitution never rewrites a
/// qualified column.
fn prefix_leaf_rows(e: &mut Expr) -> Result<()> {
    match e {
        Expr::Row(items) => items.insert(0, Expr::qcol("r", BATCH_RID)),
        Expr::Case {
            branches, else_, ..
        } => {
            for (_, then) in branches {
                prefix_leaf_rows(then)?;
            }
            if let Some(els) = else_ {
                prefix_leaf_rows(els)?;
            }
        }
        Expr::Subquery(q) => prefix_leaf_rows(
            let_item(q).ok_or_else(|| Error::compile("malformed let subquery (compiler bug)"))?,
        )?,
        other => {
            return Err(Error::compile(format!(
                "no leaf record in tail position {other} (compiler bug)"
            )))
        }
    }
    Ok(())
}

/// The single select item of a `let` subquery (see `udf::wrap_lets`).
fn let_item(q: &mut Query) -> Option<&mut Expr> {
    match &mut q.body {
        SetExpr::Select(s) => match s.items.as_mut_slice() {
            [SelectItem::Expr { expr, .. }] => Some(expr),
            _ => None,
        },
        _ => None,
    }
}

/// The CTE query around `body`: the single query, or with `batch_input` the
/// batched one.
fn assemble(
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
    kept: &[String],
    body: Expr,
    batch_input: Option<&str>,
) -> Query {
    // Column list of the CTE. Batched trampolines carry the activation's
    // row id in front of everything else.
    let mut columns: Vec<String> = Vec::new();
    if batch_input.is_some() {
        columns.push(BATCH_RID.into());
    }
    columns.push("call?".into());
    columns.push("fn".into());
    match layout {
        ArgsLayout::Flattened => {
            columns.extend(udf.rec_vars.iter().map(|(v, _)| v.clone()));
            columns.extend(kept.iter().cloned());
        }
        ArgsLayout::Packed => columns.push("args".into()),
    }
    columns.push("result".into());
    let width = columns.len();

    // ---- base arm: the original invocation (Figure 8 line 3). In batch
    // mode there is one seed row per input row: parameters come from the
    // input table's columns instead of free identifiers, and the row id
    // rides in front.
    let mut base_items: Vec<Expr> = vec![Expr::bool(true), Expr::int(udf.entry_tag)];
    match layout {
        ArgsLayout::Flattened => {
            base_items.extend(entry_vals_padded(udf));
            base_items.extend(kept.iter().map(|p| Expr::col(p.clone())));
        }
        ArgsLayout::Packed => {
            let mut packed = entry_vals_padded(udf);
            packed.extend(kept.iter().map(|p| Expr::col(p.clone())));
            base_items.push(Expr::Row(packed));
        }
    }
    base_items.push(Expr::Cast {
        expr: Box::new(Expr::null()),
        ty: cast_type_name(&udf.returns),
    });
    let mut base_from: Vec<TableRef> = Vec::new();
    if let Some(input) = batch_input {
        let mut inp_map = Subst::new();
        for (p, _) in &udf.fn_params {
            inp_map.insert(p.clone(), Expr::qcol("inp", p.clone()));
        }
        base_items = base_items
            .into_iter()
            .map(|e| subst_expr(e, &inp_map, catalog, &[]))
            .collect();
        base_items.insert(0, Expr::qcol("inp", BATCH_RID));
        base_from.push(TableRef::Table {
            name: input.into(),
            alias: Some(TableAlias::named("inp")),
        });
    }
    let base_select = Select {
        items: base_items
            .into_iter()
            .map(|expr| SelectItem::Expr { expr, alias: None })
            .collect(),
        from: base_from,
        ..Default::default()
    };

    // ---- recursive arm (Figure 8 lines 6–9): evaluate the body once per
    // pending call, unpack the produced row into the CTE columns.
    let rec_items: Vec<SelectItem> = (1..=width)
        .map(|i| SelectItem::Expr {
            expr: Expr::func(
                "row_field",
                vec![Expr::qcol("iter", "x"), Expr::int(i as i64)],
            ),
            alias: None,
        })
        .collect();
    let rec_select = Select {
        items: rec_items,
        from: vec![
            TableRef::Table {
                name: "run".into(),
                alias: Some(TableAlias::named("r")),
            },
            TableRef::Derived {
                lateral: true,
                query: Box::new(Query::simple(Select {
                    items: vec![SelectItem::Expr {
                        expr: body,
                        alias: None,
                    }],
                    ..Default::default()
                })),
                alias: TableAlias {
                    name: "iter".into(),
                    columns: vec!["x".into()],
                },
            },
        ],
        where_: Some(Expr::qcol("r", "call?")),
        ..Default::default()
    };

    let cte_query = Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: true,
            left: Box::new(SetExpr::Select(Box::new(base_select))),
            right: Box::new(SetExpr::Select(Box::new(rec_select))),
        },
        order_by: vec![],
        limit: None,
        offset: None,
    };

    // ---- outer query (Figure 8 lines 12–14). Batch mode returns
    // `("call#", result)` pairs — the caller scatters results back to the
    // input rows by id (retirement order is not input order).
    let mut outer_items: Vec<SelectItem> = Vec::new();
    if batch_input.is_some() {
        outer_items.push(SelectItem::Expr {
            expr: Expr::qcol("r", BATCH_RID),
            alias: None,
        });
    }
    outer_items.push(SelectItem::Expr {
        expr: Expr::qcol("r", "result"),
        alias: Some("result".into()),
    });
    let outer = Select {
        items: outer_items,
        from: vec![TableRef::Table {
            name: "run".into(),
            alias: Some(TableAlias::named("r")),
        }],
        where_: Some(Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::qcol("r", "call?")),
        }),
        ..Default::default()
    };

    let batch = batch_input.is_some();
    Query {
        with: Some(With {
            recursive: mode == CteMode::Recursive,
            iterate: !batch && mode == CteMode::Iterate,
            retire: batch && mode == CteMode::Iterate,
            ctes: vec![Cte {
                name: "run".into(),
                columns,
                query: cte_query,
            }],
        }),
        body: SetExpr::Select(Box::new(outer)),
        order_by: vec![],
        limit: None,
        offset: None,
    }
}

/// Entry values padded over the full `rec_vars` vector.
fn entry_vals_padded(udf: &UdfProgram) -> Vec<Expr> {
    debug_assert_eq!(udf.entry_vals.len(), udf.rec_vars.len());
    udf.entry_vals.clone()
}

/// The parameters named anywhere in the *bodies* of reachable ANF
/// functions (lets, conditions, returns, call arguments), in declaration
/// order. Every name the printed bodies would show counts — columns and
/// their qualifiers, function, table, alias, CTE and window names, cast
/// types — whether or not it resolves to the parameter, so pruning can
/// never drop a parameter that is actually referenced. Keywords are not
/// names.
fn used_params(anf: &AnfProgram, params: &[(String, Type)]) -> Vec<String> {
    let names = NameScan {
        params,
        used: vec![Cell::new(false); params.len()],
    };
    let reachable = anf.reachable();
    for (f, _) in anf.funcs.iter().zip(reachable).filter(|(_, r)| *r) {
        for (_, e) in &f.lets {
            names.expr(e);
        }
        names.tail(&f.tail);
    }
    params
        .iter()
        .zip(names.used)
        .filter(|(_, used)| used.get())
        .map(|((p, _), _)| p.clone())
        .collect()
}

/// Marks which of `params` a walk over SQL ASTs meets as a name. The
/// expression names come from the shared walk; the names a query binds
/// (CTEs, aliases, tables, windows) from its subquery hook.
struct NameScan<'a> {
    params: &'a [(String, Type)],
    used: Vec<Cell<bool>>,
}

impl NameScan<'_> {
    fn name(&self, name: &str) {
        if let Some(i) = self.params.iter().position(|(p, _)| p == name) {
            self.used[i].set(true);
        }
    }

    fn tail(&self, t: &AnfTail) {
        match t {
            AnfTail::If { cond, then_, else_ } => {
                self.expr(cond);
                self.tail(then_);
                self.tail(else_);
            }
            AnfTail::Call { args, .. } => args.iter().for_each(|a| self.expr(a)),
            AnfTail::LetChain { lets, body } => {
                for (_, e) in lets {
                    self.expr(e);
                }
                self.tail(body);
            }
            AnfTail::Ret(e) => self.expr(e),
        }
    }

    fn expr(&self, e: &Expr) {
        e.walk_nested(
            &mut |e| match e {
                Expr::Column { qualifier, name } => {
                    if let Some(q) = qualifier {
                        self.name(q);
                    }
                    self.name(name);
                }
                Expr::Param(name) | Expr::Func { name, .. } => self.name(name),
                Expr::CountStar => self.name("count"),
                Expr::WindowFunc { name, window, .. } => {
                    self.name(name);
                    match window {
                        WindowRef::Named(w) => self.name(w),
                        WindowRef::Inline(spec) => spec.base.iter().for_each(|b| self.name(b)),
                    }
                }
                // The type is source text; it lexes to lowercased words.
                Expr::Cast { ty, .. } => {
                    for word in ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                        self.name(&word.to_ascii_lowercase());
                    }
                }
                _ => {}
            },
            &mut |q, _| {
                self.query_names(q);
                true
            },
        );
    }

    /// The names `q` itself binds or reads outside its expressions.
    fn query_names(&self, q: &Query) {
        for cte in q.with.iter().flat_map(|w| &w.ctes) {
            self.name(&cte.name);
            cte.columns.iter().for_each(|c| self.name(c));
        }
        q.body.for_each_select(&mut |s| {
            for item in &s.items {
                match item {
                    SelectItem::Expr { alias, .. } => alias.iter().for_each(|a| self.name(a)),
                    SelectItem::QualifiedWildcard(q) => self.name(q),
                    SelectItem::Wildcard => {}
                }
            }
            for t in &s.from {
                t.for_each_leaf(&mut |t| match t {
                    TableRef::Table { name, alias } => {
                        self.name(name);
                        alias.iter().for_each(|a| self.alias(a));
                    }
                    TableRef::Derived { alias, .. } => self.alias(alias),
                    TableRef::Join { .. } => {}
                });
            }
            for (name, spec) in &s.windows {
                self.name(name);
                spec.base.iter().for_each(|b| self.name(b));
            }
        });
    }

    fn alias(&self, a: &TableAlias) {
        self.name(&a.name);
        a.columns.iter().for_each(|c| self.name(c));
    }
}

/// Substitute literal/argument expressions for the function's parameters —
/// used when inlining the compiled query at a call site or running it with
/// constant arguments.
pub fn bind_args(
    query: &Query,
    param_names: &[String],
    args: &[Expr],
    catalog: &Catalog,
) -> Result<Query> {
    if param_names.len() != args.len() {
        return Err(Error::compile(format!(
            "expected {} arguments, got {}",
            param_names.len(),
            args.len()
        )));
    }
    let map: Subst = param_names
        .iter()
        .cloned()
        .zip(args.iter().cloned())
        .collect();
    Ok(crate::subst::subst_query(query.clone(), &map, catalog, &[]))
}

fn cast_type_name(ty: &Type) -> String {
    match ty {
        Type::Unknown => "text".into(),
        other => other.sql_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_common::Value;
    use plaway_engine::{ParamScope, Session};
    use plaway_plsql::parse_create_function;

    fn compile_to_query(
        session: &Session,
        src: &str,
        layout: ArgsLayout,
        mode: CteMode,
    ) -> (Query, Vec<String>) {
        let _ = parse_create_function(src).unwrap();
        let compiled = crate::pipeline::compile_sql(
            &session.catalog,
            src,
            crate::pipeline::CompileOptions {
                optimize: true,
                layout,
                mode,
            },
        )
        .unwrap();
        (compiled.query, compiled.param_names)
    }

    const SUM_SRC: &str = "CREATE FUNCTION sumto(n int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 1; \
         BEGIN \
           WHILE i <= n LOOP s := s + i; i := i + 1; END LOOP; \
           RETURN s; \
         END $$ LANGUAGE plpgsql";

    fn run_compiled(
        session: &mut Session,
        q: &Query,
        params: &[String],
        args: Vec<Value>,
    ) -> Value {
        let sql = q.to_string();
        let ps = ParamScope::new(params.to_vec());
        let plan = session.prepare(&sql, &ps).unwrap();
        let result = session.execute_prepared(&plan, args).unwrap();
        result.scalar().unwrap()
    }

    #[test]
    fn compiled_loop_computes_in_pure_sql() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let text = q.to_string();
        assert!(text.starts_with("WITH RECURSIVE run("), "{text}");
        assert!(text.contains("\"call?\""), "{text}");
        assert!(text.contains("UNION ALL"), "{text}");
        assert!(text.contains("NOT r.\"call?\""), "{text}");
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(10)]);
        assert_eq!(v, Value::Int(55), "sum 1..10 via WITH RECURSIVE\n{text}");
    }

    #[test]
    fn packed_layout_matches_figure8_and_computes() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Packed, CteMode::Recursive);
        let text = q.to_string();
        assert!(text.contains("run(\"call?\", fn, args, result)"), "{text}");
        assert!(text.contains("row_field"), "{text}");
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(10)]);
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn iterate_mode_computes_without_buffer_writes() {
        let mut s = Session::default();
        s.config.work_mem_bytes = 256; // tiny: force RECURSIVE to spill
        let (qr, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let (qi, _) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Iterate);
        assert!(qi.to_string().starts_with("WITH ITERATE"));

        s.reset_instrumentation();
        let v = run_compiled(&mut s, &qr, &params, vec![Value::Int(200)]);
        assert_eq!(v, Value::Int(20100));
        assert!(s.buffers.page_writes > 0, "RECURSIVE accumulates a trace");

        s.reset_instrumentation();
        let v = run_compiled(&mut s, &qi, &params, vec![Value::Int(200)]);
        assert_eq!(v, Value::Int(20100));
        assert_eq!(s.buffers.page_writes, 0, "ITERATE keeps no trace");
    }

    #[test]
    fn early_return_takes_base_case() {
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             DECLARE i int := 0; \
             BEGIN \
               LOOP \
                 i := i + 1; \
                 IF i * i >= n THEN RETURN i; END IF; \
               END LOOP; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        // ceil(sqrt(50)) = 8
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(50)]);
        assert_eq!(v, Value::Int(8));
    }

    #[test]
    fn straight_line_function_terminates_after_one_step() {
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
                   BEGIN RETURN n * 2 + 1; END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        s.reset_instrumentation();
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(20)]);
        assert_eq!(v, Value::Int(41));
        assert!(
            s.stats.recursive_iterations <= 2,
            "loop-free function must not iterate: {}",
            s.stats.recursive_iterations
        );
    }

    #[test]
    fn embedded_queries_work_inside_cte() {
        let mut s = Session::default();
        s.run("CREATE TABLE kv (k int, v int)").unwrap();
        s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             DECLARE total int := 0; i int := 1; \
             BEGIN \
               WHILE i <= n LOOP \
                 total := total + (SELECT v FROM kv WHERE k = i); \
                 i := i + 1; \
               END LOOP; \
               RETURN total; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(3)]);
        assert_eq!(v, Value::Int(60));
    }

    #[test]
    fn generated_sql_reparses() {
        let s = Session::default();
        for layout in [ArgsLayout::Flattened, ArgsLayout::Packed] {
            for mode in [CteMode::Recursive, CteMode::Iterate] {
                let (q, _) = compile_to_query(&s, SUM_SRC, layout, mode);
                let text = q.to_string();
                let reparsed = plaway_sql::parse_query(&text)
                    .unwrap_or_else(|e| panic!("generated SQL must re-parse: {e}\n{text}"));
                assert_eq!(reparsed, q);
            }
        }
    }

    #[test]
    fn init_only_parameters_are_pruned_from_the_trace() {
        // `seed` only initializes state; it must not become a CTE column.
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(seed int, bound int) RETURNS int AS $$ \
             DECLARE acc int := seed; \
             BEGIN \
               WHILE acc < bound LOOP acc := acc * 2 + 1; END LOOP; \
               RETURN acc; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        let text = q.to_string();
        let header = text.split(" AS ").next().unwrap();
        assert!(
            !header.contains("seed"),
            "init-only param must be pruned from the CTE columns: {header}"
        );
        assert!(
            header.contains("bound"),
            "loop-condition param must stay: {header}"
        );
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(1), Value::Int(100)]);
        assert_eq!(v, Value::Int(127)); // 1,3,7,15,31,63,127
    }

    #[test]
    fn loops_take_one_cte_iteration_per_source_iteration() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        s.reset_instrumentation();
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(100)]);
        assert_eq!(v, Value::Int(5050));
        assert!(
            s.stats.recursive_iterations <= 103,
            "ANF inlining must give ~1 CTE step per loop iteration, got {}",
            s.stats.recursive_iterations
        );
    }

    /// The pruning [`used_params`] replaced, kept as its oracle: every
    /// identifier of the printed bodies of reachable ANF functions (lets,
    /// conditions, returns, call arguments), found by re-lexing the text.
    fn used_identifiers(anf: &AnfProgram) -> std::collections::HashSet<String> {
        use plaway_sql::token::TokenKind;
        let mut text = String::new();
        let reachable = anf.reachable();
        let add_tail = |t: &crate::anf::AnfTail, text: &mut String| {
            fn rec(t: &crate::anf::AnfTail, text: &mut String) {
                match t {
                    crate::anf::AnfTail::If { cond, then_, else_ } => {
                        text.push_str(&format!(" {cond} "));
                        rec(then_, text);
                        rec(else_, text);
                    }
                    crate::anf::AnfTail::Call { args, .. } => {
                        for a in args {
                            text.push_str(&format!(" {a} "));
                        }
                    }
                    crate::anf::AnfTail::LetChain { lets, body } => {
                        for (_, e) in lets {
                            text.push_str(&format!(" {e} "));
                        }
                        rec(body, text);
                    }
                    crate::anf::AnfTail::Ret(e) => text.push_str(&format!(" {e} ")),
                }
            }
            rec(t, text);
        };
        for (i, f) in anf.funcs.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            for (_, e) in &f.lets {
                text.push_str(&format!(" {e} "));
            }
            add_tail(&f.tail, &mut text);
        }
        let mut out = std::collections::HashSet::new();
        if let Ok(tokens) = plaway_sql::Lexer::new(&text).tokenize() {
            for t in tokens {
                match t.kind {
                    TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                        out.insert(s);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Sessions holding every table the kernels, extras and generated
    /// programs read.
    fn fixture_session() -> Session {
        use plaway_workloads::{fsa, genprog, graph, grid, rowagg};
        let mut s = Session::default();
        genprog::install_fixture(&mut s).unwrap();
        grid::GridWorld::generate(5, 5, 42).install(&mut s).unwrap();
        grid::walk_workload().install(&mut s).unwrap();
        fsa::install_fsa(&mut s).unwrap();
        graph::Digraph::generate(50, 11).install(&mut s).unwrap();
        rowagg::Ledger::generate(48, 7).install(&mut s).unwrap();
        s
    }

    /// Functions whose parameters appear only in the less common places a
    /// printed body names them: LIMIT/OFFSET, a window, a table, a function
    /// or an alias name, a cast type.
    const PRUNING_EDGES: [&str; 5] = [
        "CREATE FUNCTION f(n int, off int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 0; \
         BEGIN WHILE i < n LOOP \
           s := s + (SELECT kv.v FROM kv ORDER BY kv.k LIMIT 1 OFFSET off); i := i + 1; \
         END LOOP; RETURN s; END $$ LANGUAGE plpgsql",
        "CREATE FUNCTION f(n int, w int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 0; \
         BEGIN WHILE i < n LOOP \
           s := s + (SELECT max(q.t) FROM (SELECT sum(kv.v) OVER (PARTITION BY kv.k % w ORDER BY kv.k) AS t FROM kv) AS q); \
           i := i + 1; \
         END LOOP; RETURN s; END $$ LANGUAGE plpgsql",
        "CREATE FUNCTION f(n int, kv int, count int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 0; \
         BEGIN WHILE i < n LOOP \
           s := s + (SELECT count(*) FROM kv); i := i + 1; \
         END LOOP; RETURN s; END $$ LANGUAGE plpgsql",
        "CREATE FUNCTION f(n int, abs int, q int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 0; \
         BEGIN WHILE i < n LOOP \
           s := s + abs(i - 3) + (SELECT q.v FROM (SELECT kv.v FROM kv WHERE kv.k = i) AS q(v)); \
           i := i + 1; \
         END LOOP; RETURN s; END $$ LANGUAGE plpgsql",
        "CREATE FUNCTION f(n int, float8 int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 0; \
         BEGIN WHILE i < n LOOP \
           s := s + CAST(CAST(i AS float8) AS int); i := i + 1; \
         END LOOP; RETURN s; END $$ LANGUAGE plpgsql",
    ];

    /// The kernels, the extras, seeded `genprog` programs and
    /// [`PRUNING_EDGES`], as `(what, source)`.
    fn corpus() -> Vec<(String, String)> {
        use plaway_workloads::genprog::{self, GenConfig};
        use plaway_workloads::{checked, extras, fib, fsa, graph, grid, rowagg};
        let mut out: Vec<(String, String)> = [
            ("walk", grid::walk_workload().source),
            ("fibonacci", fib::fib_workload().source),
            ("traverse", graph::traverse_workload().source),
            ("fsa", fsa::parse_workload().source),
            ("checked", checked::checked_workload().source),
            ("settle", rowagg::settle_workload().source),
            ("gcd", extras::gcd_workload().source),
            ("collatz", extras::collatz_workload().source),
            ("powmod", extras::power_workload().source),
            ("strrev", extras::strrev_workload().source),
            ("account", extras::bank_workload().source),
        ]
        .into_iter()
        .map(|(what, source)| (what.to_string(), source))
        .collect();
        for (i, source) in PRUNING_EDGES.iter().enumerate() {
            out.push((format!("pruning edge {i}"), source.to_string()));
        }
        for seed in 0..200 {
            let program = genprog::generate(seed, GenConfig::default());
            out.push((program.name, program.source));
        }
        out
    }

    /// One CTE body build serves both queries exactly as two separate
    /// builds do, and the AST walk prunes exactly the parameters the
    /// re-lex did.
    #[test]
    fn shared_build_matches_separate_builds_and_relex_pruning() {
        let s = fixture_session();
        let cat = &s.catalog;
        for (what, source) in corpus() {
            for layout in [ArgsLayout::Flattened, ArgsLayout::Packed] {
                for mode in [CteMode::Recursive, CteMode::Iterate] {
                    for optimize in [true, false] {
                        let options = crate::pipeline::CompileOptions {
                            optimize,
                            layout,
                            mode,
                        };
                        let c = crate::pipeline::compile_sql(cat, &source, options)
                            .unwrap_or_else(|e| panic!("{what} {options:?}: {e}"));
                        let (anf, udf) = (&c.anf, &c.udf);
                        let (query, batch) =
                            build_queries(anf, udf, cat, layout, mode, &c.batch_table).unwrap();
                        let single = build_query(anf, udf, cat, layout, mode).unwrap();
                        let separate =
                            build_batch_query(anf, udf, cat, layout, mode, &c.batch_table).unwrap();
                        assert!(query == single, "{what} {options:?}: query");
                        assert!(batch == separate, "{what} {options:?}: batch query");
                        assert_eq!(query.to_string(), single.to_string());
                        assert_eq!(batch.to_string(), separate.to_string());
                        assert_eq!(c.sql, query.to_string());
                        assert_eq!(c.batch_sql, batch.to_string());

                        let used = used_identifiers(anf);
                        let relexed: Vec<String> = udf
                            .fn_params
                            .iter()
                            .filter(|(p, _)| used.contains(p))
                            .map(|(p, _)| p.clone())
                            .collect();
                        assert_eq!(
                            used_params(anf, &udf.fn_params),
                            relexed,
                            "{what} {options:?}: pruned parameters"
                        );
                    }
                }
            }
        }
    }

    /// Each of [`PRUNING_EDGES`] keeps the parameter it names only in an
    /// unusual place.
    #[test]
    fn pruning_keeps_parameters_named_anywhere_in_the_body() {
        let s = fixture_session();
        for (source, want) in PRUNING_EDGES.iter().zip([
            vec!["n", "off"],
            vec!["n", "w"],
            vec!["n", "kv", "count"],
            vec!["n", "abs", "q"],
            vec!["n", "float8"],
        ]) {
            let compiled = crate::pipeline::compile_sql(
                &s.catalog,
                source,
                crate::pipeline::CompileOptions::default(),
            )
            .unwrap();
            assert_eq!(
                used_params(&compiled.anf, &compiled.udf.fn_params),
                want,
                "{source}"
            );
        }
    }

    /// A keyword the printer writes bare is not a name: an init-only
    /// parameter spelled `rows` is pruned beside a `ROWS` frame, where the
    /// re-lex kept it.
    #[test]
    fn keywords_do_not_keep_a_parameter() {
        let s = fixture_session();
        let src = "CREATE FUNCTION f(n int, rows int) RETURNS int AS $$ \
             DECLARE s int := rows; i int := 0; \
             BEGIN WHILE i < n LOOP \
               s := s + (SELECT max(q.t) FROM (SELECT sum(kv.v) OVER \
                 (ORDER BY kv.k ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS t FROM kv) AS q); \
               i := i + 1; \
             END LOOP; RETURN s; END $$ LANGUAGE plpgsql";
        let c = crate::pipeline::compile_sql(
            &s.catalog,
            src,
            crate::pipeline::CompileOptions::default(),
        )
        .unwrap();
        assert!(used_identifiers(&c.anf).contains("rows"));
        assert_eq!(used_params(&c.anf, &c.udf.fn_params), ["n"]);

        let mut s = s;
        s.run(src).unwrap();
        let args = [Value::Int(3), Value::Int(5)];
        let want = plaway_interp::Interpreter::new()
            .call(&mut s, "f", &args)
            .unwrap();
        assert_eq!(c.run(&mut s, &args).unwrap(), want);
    }

    #[test]
    fn bind_args_substitutes_literals() {
        let s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let bound = bind_args(&q, &params, &[Expr::int(10)], &s.catalog).unwrap();
        let text = bound.to_string();
        // The base arm must now carry the literal argument (free `n` gone;
        // the CTE *column* may still be named n — that is a column, not a
        // parameter).
        assert!(text.contains("10"), "literal argument expected: {text}");
        // Bound query runs without any ParamScope.
        let mut s = Session::default();
        let result = s.run(&text).unwrap();
        assert_eq!(result.scalar().unwrap(), Value::Int(55));
    }
}
