//! AST → physical plan translation.
//!
//! The planner is rule-based with one cost-based decision: access-path
//! choice. Scans become `SeqScan`, or — when an index matches an extractable
//! equality / range conjunct and the cost rule favors it — `IndexLookup` /
//! `IndexRange`; inner joins with an equi-join conjunct over an indexed
//! right side become indexed-inner nested loops; other joins become plain
//! nested loops; `WITH RECURSIVE` / `WITH ITERATE` become fixpoint plans.
//! The [`IndexMode`] force modes exist for the index-vs-seq differential
//! harness and bypass (or disable) the cost rule.
//!
//! Name resolution uses a *scope chain* (innermost scope last). Column
//! references compile to `(depth, index)` slots; identifiers that resolve in
//! no scope fall back to the statement's [`ParamScope`] — this implements
//! PL/pgSQL variable substitution inside embedded queries, exactly the
//! mechanism PostgreSQL uses for `Q1[location1]`-style parameterized plans.

use std::sync::Arc;

use plaway_common::{Error, Result, Type, Value};
use plaway_sql::ast::{
    self, Expr, JoinKind, OrderItem, Query, Select, SelectItem, SetExpr, SetOp, TableRef,
    WindowRef, WindowSpec,
};

use crate::catalog::{Catalog, FunctionDef, PlanDep};
use crate::config::IndexMode;
use crate::ir::{
    AggFn, AggSpec, CtePlan, ExprIr, FrameIr, PlanNode, RecursionMode, ScalarFn, SortKey, WinFn,
    WindowExprIr,
};

/// Parameter scope: maps free identifiers to parameter indexes. Order is
/// binding order — the session binds values positionally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamScope {
    pub names: Vec<String>,
}

impl ParamScope {
    pub fn new(names: Vec<String>) -> Self {
        ParamScope { names }
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// A fully planned statement, cache-ready.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The text the plan was prepared from, and the key its per-query
    /// statistics are kept under: the text a caller of
    /// [`Session::prepare_parsed`](crate::Session::prepare_parsed) handed
    /// in, byte for byte, or otherwise the printed normal form of the
    /// planned query.
    pub sql: String,
    pub plan: PlanNode,
    /// Output column names.
    pub columns: Vec<String>,
    pub param_names: Vec<String>,
    /// The tables and functions the planner resolved, each once. The plan
    /// is valid for exactly the catalogs where these are current
    /// ([`Catalog::deps_current`]).
    pub deps: Vec<PlanDep>,
    /// Number of CTE slots this plan allocates.
    pub cte_count: usize,
}

impl PreparedPlan {
    /// Minimal plan for cache-mechanics tests: a zero-row values scan
    /// tagged with the given text and dependencies.
    #[cfg(test)]
    pub(crate) fn test_stub(sql: &str, deps: Vec<PlanDep>) -> PreparedPlan {
        PreparedPlan {
            sql: sql.to_string(),
            plan: PlanNode::Values { rows: Vec::new() },
            columns: Vec::new(),
            param_names: Vec::new(),
            deps,
            cte_count: 0,
        }
    }
}

/// One column visible in a scope.
#[derive(Debug, Clone)]
struct ColMeta {
    qualifier: Option<String>,
    name: String,
}

/// One level of the name-resolution chain: the columns of a row layout.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ColMeta>,
}

impl Scope {
    fn from_names(qualifier: Option<&str>, names: &[String]) -> Scope {
        Scope {
            cols: names
                .iter()
                .map(|n| ColMeta {
                    qualifier: qualifier.map(str::to_string),
                    name: n.clone(),
                })
                .collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }

    fn names(&self) -> Vec<String> {
        self.cols.iter().map(|c| c.name.clone()).collect()
    }

    /// Find a column; errors on in-scope ambiguity.
    fn find(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut hit = None;
        for (i, c) in self.cols.iter().enumerate() {
            let q_match = match qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q),
            };
            if q_match && c.name == name {
                if hit.is_some() {
                    return Err(Error::plan(format!(
                        "column reference {:?} is ambiguous",
                        match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.to_string(),
                        }
                    )));
                }
                hit = Some(i);
            }
        }
        Ok(hit)
    }
}

/// Visible CTE binding during planning.
#[derive(Debug, Clone)]
struct CteBinding {
    name: String,
    index: usize,
    cols: Vec<String>,
    /// Inside the recursive arm the self-reference reads the working table.
    working: bool,
}

pub struct Planner<'a> {
    catalog: &'a Catalog,
    params: Option<&'a ParamScope>,
    ctes: Vec<CteBinding>,
    next_cte_index: usize,
    index_mode: IndexMode,
    /// Catalog objects resolved so far (see [`PreparedPlan::deps`]).
    deps: Vec<PlanDep>,
}

/// Plan a full query with an optional parameter scope, using the session's
/// access-path policy. The plan's [`PreparedPlan::sql`] is the query
/// printed.
pub fn plan_query(
    catalog: &Catalog,
    query: &Query,
    params: Option<&ParamScope>,
    index_mode: IndexMode,
) -> Result<PreparedPlan> {
    plan_query_as(catalog, query, query.to_string(), params, index_mode)
}

/// [`plan_query`] for a query whose text the caller already holds: `sql`
/// is the text `query` was parsed from, kept as [`PreparedPlan::sql`].
pub(crate) fn plan_query_as(
    catalog: &Catalog,
    query: &Query,
    sql: String,
    params: Option<&ParamScope>,
    index_mode: IndexMode,
) -> Result<PreparedPlan> {
    let mut p = Planner {
        catalog,
        params,
        ctes: Vec::new(),
        next_cte_index: 0,
        index_mode,
        deps: Vec::new(),
    };
    let mut chain = Vec::new();
    let (mut plan, scope) = p.plan_query(query, &mut chain)?;
    // Pre-compile expression trees into flat programs (and memoizable
    // invariant sub-plans) once, so execution never tree-walks per row.
    crate::vm::precompile_plan(&mut plan);
    Ok(PreparedPlan {
        sql,
        plan,
        columns: scope.names(),
        param_names: params.map(|ps| ps.names.clone()).unwrap_or_default(),
        deps: p.deps,
        cte_count: p.next_cte_index,
    })
}

/// Plan a bare scalar expression (PL/pgSQL expression evaluation).
pub fn plan_expr(
    catalog: &Catalog,
    expr: &Expr,
    params: Option<&ParamScope>,
    index_mode: IndexMode,
) -> Result<ExprIr> {
    let mut p = Planner {
        catalog,
        params,
        ctes: Vec::new(),
        next_cte_index: 0,
        index_mode,
        deps: Vec::new(),
    };
    let chain: Vec<Scope> = Vec::new();
    let cx = ExprCx {
        chain: &chain,
        replacements: &[],
    };
    p.compile_expr(expr, &cx)
}

/// Plan the body of a SQL-language UDF: a single query over the function's
/// parameters, returning one column. Besides what the body reads, the plan
/// depends on `def` itself.
pub fn plan_udf_body(
    catalog: &Catalog,
    def: &Arc<FunctionDef>,
    index_mode: IndexMode,
) -> Result<PreparedPlan> {
    let query = plaway_sql::parse_query(&def.body)
        .map_err(|e| Error::plan(format!("in body of function {:?}: {e}", def.name)))?;
    let ps = ParamScope::new(def.params.iter().map(|(n, _)| n.clone()).collect());
    let mut plan = plan_query(catalog, &query, Some(&ps), index_mode)?;
    // A recursive body has recorded `def` already.
    if !plan
        .deps
        .iter()
        .any(|d| matches!(d, PlanDep::Function(f) if f.name == def.name))
    {
        plan.deps.push(PlanDep::Function(Arc::clone(def)));
    }
    if plan.columns.len() != 1 {
        return Err(Error::plan(format!(
            "function {:?} body must return exactly one column, returns {}",
            def.name,
            plan.columns.len()
        )));
    }
    Ok(plan)
}

/// Expression compilation context.
struct ExprCx<'a> {
    /// Scope chain, innermost LAST.
    chain: &'a [Scope],
    /// AST patterns already computed by a lower plan node (group keys,
    /// aggregates, window expressions) -> slot in the current row.
    replacements: &'a [(&'a Expr, usize)],
}

impl<'a> ExprCx<'a> {
    fn bare(chain: &'a [Scope]) -> ExprCx<'a> {
        ExprCx {
            chain,
            replacements: &[],
        }
    }
}

impl<'a> Planner<'a> {
    /// Record a resolved catalog object, once per object.
    fn depend(&mut self, dep: PlanDep) {
        let same = |d: &PlanDep| match (d, &dep) {
            (PlanDep::Table { name: a, .. }, PlanDep::Table { name: b, .. }) => a == b,
            (PlanDep::Function(a), PlanDep::Function(b)) => a.name == b.name,
            _ => false,
        };
        if !self.deps.iter().any(same) {
            self.deps.push(dep);
        }
    }

    // ------------------------------------------------------------ queries

    fn plan_query(&mut self, q: &Query, chain: &mut Vec<Scope>) -> Result<(PlanNode, Scope)> {
        let cte_mark = self.ctes.len();
        let mut cte_plans: Vec<CtePlan> = Vec::new();
        if let Some(with) = &q.with {
            for cte in &with.ctes {
                let fixpoint = with.recursive || with.iterate || with.retire;
                let mode = if with.iterate {
                    RecursionMode::IterateOnly
                } else if with.retire {
                    RecursionMode::Retire
                } else {
                    RecursionMode::Accumulate
                };
                let plan = self.plan_cte(cte, fixpoint, mode, chain)?;
                cte_plans.push(plan);
            }
        }

        let (mut plan, mut scope) = match &q.body {
            SetExpr::Select(sel) => self.plan_select(sel, &q.order_by, chain)?,
            other => {
                let (mut plan, scope) = self.plan_set_expr(other, chain)?;
                if !q.order_by.is_empty() {
                    let keys = self.order_keys_on_output(&q.order_by, &scope, chain)?;
                    plan = PlanNode::Sort {
                        input: Box::new(plan),
                        keys,
                    };
                }
                (plan, scope)
            }
        };

        if q.limit.is_some() || q.offset.is_some() {
            let cx = ExprCx::bare(chain);
            let limit = q
                .limit
                .as_ref()
                .map(|e| self.compile_expr(e, &cx))
                .transpose()?;
            let offset = q
                .offset
                .as_ref()
                .map(|e| self.compile_expr(e, &cx))
                .transpose()?;
            plan = PlanNode::Limit {
                input: Box::new(plan),
                limit,
                offset,
            };
        }

        if !cte_plans.is_empty() {
            plan = PlanNode::With {
                ctes: cte_plans,
                body: Box::new(plan),
            };
        }
        plan = fuse_lateral_chains(plan);
        plan = fuse_project_unpack(plan);
        self.ctes.truncate(cte_mark);
        // Strip qualifiers: a query's output is a fresh anonymous row shape.
        scope = Scope::from_names(None, &scope.names());
        Ok((plan, scope))
    }

    fn plan_cte(
        &mut self,
        cte: &ast::Cte,
        fixpoint: bool,
        mode: RecursionMode,
        chain: &mut Vec<Scope>,
    ) -> Result<CtePlan> {
        let index = self.next_cte_index;
        self.next_cte_index += 1;

        let self_ref = query_references(&cte.query, &cte.name);
        if fixpoint && self_ref {
            // Shape: base UNION [ALL] recursive.
            let SetExpr::SetOp {
                op: SetOp::Union,
                all,
                left,
                right,
            } = &cte.query.body
            else {
                return Err(Error::plan(format!(
                    "recursive CTE {:?} must have the form <base> UNION [ALL] <recursive>",
                    cte.name
                )));
            };
            if set_expr_references(left, &cte.name) {
                return Err(Error::plan(format!(
                    "recursive reference to {:?} must not appear in the base term",
                    cte.name
                )));
            }
            if !cte.query.order_by.is_empty() || cte.query.limit.is_some() {
                return Err(Error::plan(
                    "ORDER BY / LIMIT are not supported directly in a recursive CTE body",
                ));
            }
            let (base_plan, base_scope) = self.plan_set_expr(left, chain)?;
            let cols = self.cte_columns(cte, &base_scope)?;
            // Recursive arm sees the CTE as the working table.
            self.ctes.push(CteBinding {
                name: cte.name.clone(),
                index,
                cols: cols.clone(),
                working: true,
            });
            let (rec_plan, rec_scope) = self.plan_set_expr(right, chain)?;
            self.ctes.pop();
            if rec_scope.cols.len() != cols.len() {
                return Err(Error::plan(format!(
                    "recursive arm of {:?} returns {} columns, base returns {}",
                    cte.name,
                    rec_scope.cols.len(),
                    cols.len()
                )));
            }
            self.ctes.push(CteBinding {
                name: cte.name.clone(),
                index,
                cols,
                working: false,
            });
            Ok(CtePlan::Recursive {
                index,
                base: base_plan,
                recursive: rec_plan,
                mode,
                union_all: *all,
                tier: None,
            })
        } else {
            if self_ref {
                return Err(Error::plan(format!(
                    "CTE {:?} references itself; add RECURSIVE (or ITERATE)",
                    cte.name
                )));
            }
            let (plan, scope) = self.plan_query(&cte.query, chain)?;
            let cols = self.cte_columns(cte, &scope)?;
            self.ctes.push(CteBinding {
                name: cte.name.clone(),
                index,
                cols,
                working: false,
            });
            Ok(CtePlan::Plain { index, plan })
        }
    }

    fn cte_columns(&self, cte: &ast::Cte, scope: &Scope) -> Result<Vec<String>> {
        if cte.columns.is_empty() {
            Ok(scope.names())
        } else if cte.columns.len() == scope.cols.len() {
            Ok(cte.columns.clone())
        } else {
            Err(Error::plan(format!(
                "CTE {:?} declares {} columns but its query returns {}",
                cte.name,
                cte.columns.len(),
                scope.cols.len()
            )))
        }
    }

    fn plan_set_expr(
        &mut self,
        body: &SetExpr,
        chain: &mut Vec<Scope>,
    ) -> Result<(PlanNode, Scope)> {
        match body {
            SetExpr::Select(sel) => self.plan_select(sel, &[], chain),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (lp, ls) = self.plan_set_expr(left, chain)?;
                let (rp, rs) = self.plan_set_expr(right, chain)?;
                if ls.cols.len() != rs.cols.len() {
                    return Err(Error::plan(format!(
                        "set operation arms have different column counts ({} vs {})",
                        ls.cols.len(),
                        rs.cols.len()
                    )));
                }
                let plan = if *op == SetOp::Union && *all {
                    PlanNode::Append {
                        inputs: vec![lp, rp],
                    }
                } else {
                    PlanNode::SetOpNode {
                        op: *op,
                        all: *all,
                        left: Box::new(lp),
                        right: Box::new(rp),
                    }
                };
                Ok((plan, ls))
            }
            SetExpr::Values(rows) => {
                if rows.is_empty() {
                    return Err(Error::plan("VALUES requires at least one row"));
                }
                let width = rows[0].len();
                let cx = ExprCx::bare(chain);
                let mut compiled = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != width {
                        return Err(Error::plan("VALUES rows differ in width"));
                    }
                    let mut irs = Vec::with_capacity(width);
                    for e in row {
                        irs.push(self.compile_expr(e, &cx)?);
                    }
                    compiled.push(irs);
                }
                let names: Vec<String> = (1..=width).map(|i| format!("column{i}")).collect();
                Ok((
                    PlanNode::Values { rows: compiled },
                    Scope::from_names(None, &names),
                ))
            }
            SetExpr::Query(q) => self.plan_query(q, chain),
        }
    }

    // ------------------------------------------------------------- select

    fn plan_select(
        &mut self,
        sel: &Select,
        order_by: &[OrderItem],
        chain: &mut Vec<Scope>,
    ) -> Result<(PlanNode, Scope)> {
        // Fast path for table-less projections (`SELECT e1, e2`): a single
        // Result node with expressions compiled against the outer chain —
        // the shape every compiled `let` binding and CTE body takes, hot in
        // recursive iteration.
        if sel.from.is_empty()
            && sel.where_.is_none()
            && sel.group_by.is_empty()
            && sel.having.is_none()
            && !sel.distinct
            && order_by.is_empty()
            && sel.items.iter().all(|i| {
                matches!(i, SelectItem::Expr { expr, .. }
                    if !has_aggregate_or_window(expr))
            })
        {
            let cx = ExprCx::bare(chain);
            let mut exprs = Vec::with_capacity(sel.items.len());
            let mut cols = Vec::with_capacity(sel.items.len());
            for item in &sel.items {
                let SelectItem::Expr { expr, alias } = item else {
                    unreachable!()
                };
                exprs.push(self.compile_expr(expr, &cx)?);
                cols.push(ColMeta {
                    qualifier: None,
                    name: alias.clone().unwrap_or_else(|| expr_output_name(expr)),
                });
            }
            return Ok((PlanNode::Result { exprs }, Scope { cols }));
        }

        // 1. FROM
        let (mut plan, from_scope) = self.plan_from(&sel.from, chain)?;

        // 2. WHERE (with single-table index-lookup optimization)
        if let Some(where_) = &sel.where_ {
            plan = self.plan_where(plan, where_, &from_scope, chain)?;
        }

        // 3. Aggregation
        // Named windows count too: `WINDOW w AS (ORDER BY sum(x))`.
        let named_windows = sel.windows.iter().flat_map(|(_, spec)| {
            (spec.partition_by.iter()).chain(spec.order_by.iter().map(|o| &o.expr))
        });
        let mut agg_calls: Vec<&Expr> = Vec::new();
        for e in select_exprs(sel, order_by)
            .chain(&sel.having)
            .chain(named_windows)
        {
            collect_calls(e, is_aggregate, &mut agg_calls);
        }

        let grouping = !sel.group_by.is_empty() || !agg_calls.is_empty();
        // Patterns replaced by slots for post-aggregation expressions.
        let mut replacements: Vec<(&Expr, usize)> = Vec::new();
        let mut current_scope = from_scope.clone();

        if grouping {
            chain.push(from_scope.clone());
            let cx = ExprCx::bare(chain);
            let mut keys = Vec::with_capacity(sel.group_by.len());
            for g in &sel.group_by {
                keys.push(self.compile_expr(g, &cx)?);
            }
            let mut aggs = Vec::with_capacity(agg_calls.len());
            for call in &agg_calls {
                aggs.push(self.compile_aggregate(call, &cx)?);
            }
            chain.pop();

            let scalar = sel.group_by.is_empty();
            plan = PlanNode::Agg {
                input: Box::new(plan),
                keys,
                aggs,
                scalar,
            };
            // Post-agg row: group keys then aggregate results.
            let mut cols = Vec::new();
            for (i, g) in sel.group_by.iter().enumerate() {
                replacements.push((g, i));
                cols.push(ColMeta {
                    qualifier: None,
                    name: expr_output_name(g),
                });
            }
            for (j, call) in agg_calls.iter().enumerate() {
                replacements.push((call, sel.group_by.len() + j));
                cols.push(ColMeta {
                    qualifier: None,
                    name: expr_output_name(call),
                });
            }
            current_scope = Scope { cols };

            if let Some(h) = &sel.having {
                chain.push(current_scope.clone());
                let cx = ExprCx {
                    chain,
                    replacements: &replacements,
                };
                let pred = self.compile_expr(h, &cx)?;
                chain.pop();
                plan = PlanNode::Filter {
                    input: Box::new(plan),
                    pred,
                };
            }
        } else if let Some(h) = &sel.having {
            return Err(Error::plan(format!(
                "HAVING without aggregation is not supported: {h}"
            )));
        }

        // 4. Window functions
        let mut window_calls: Vec<&Expr> = Vec::new();
        for e in select_exprs(sel, order_by) {
            collect_calls(
                e,
                |e| matches!(e, Expr::WindowFunc { .. }),
                &mut window_calls,
            );
        }
        if !window_calls.is_empty() {
            let base_width = current_scope.cols.len();
            chain.push(current_scope.clone());
            let mut specs = Vec::with_capacity(window_calls.len());
            for (k, call) in window_calls.iter().enumerate() {
                let cx = ExprCx {
                    chain,
                    replacements: &replacements,
                };
                let spec = self.compile_window_call(call, &cx, sel)?;
                specs.push(spec);
                replacements.push((call, base_width + k));
            }
            chain.pop();
            plan = PlanNode::WindowAgg {
                input: Box::new(plan),
                windows: specs,
            };
            let mut cols = current_scope.cols;
            for call in &window_calls {
                cols.push(ColMeta {
                    qualifier: None,
                    name: expr_output_name(call),
                });
            }
            current_scope = Scope { cols };
        }

        // 5. Projection
        chain.push(current_scope.clone());
        let cx = ExprCx {
            chain,
            replacements: &replacements,
        };
        let mut proj_exprs: Vec<ExprIr> = Vec::new();
        let mut out_cols: Vec<ColMeta> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    // `*` in a grouped query is invalid unless everything is
                    // grouped; let slot compilation catch misuse.
                    for (i, c) in current_scope.cols.iter().enumerate() {
                        proj_exprs.push(ExprIr::slot(i));
                        out_cols.push(c.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut found = false;
                    for (i, c) in current_scope.cols.iter().enumerate() {
                        if c.qualifier.as_deref() == Some(q.as_str()) {
                            proj_exprs.push(ExprIr::slot(i));
                            out_cols.push(c.clone());
                            found = true;
                        }
                    }
                    if !found {
                        return Err(Error::plan(format!("there is no FROM item named {q:?}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    proj_exprs.push(self.compile_expr(expr, &cx)?);
                    out_cols.push(ColMeta {
                        qualifier: None,
                        name: alias.clone().unwrap_or_else(|| expr_output_name(expr)),
                    });
                }
            }
        }
        let visible_width = proj_exprs.len();
        let out_scope = Scope {
            cols: out_cols.clone(),
        };

        // 6. ORDER BY: output names / ordinals, else hidden key columns.
        let mut sort_keys: Vec<SortKey> = Vec::new();
        let mut hidden = 0usize;
        for oi in order_by {
            let slot = match &oi.expr {
                Expr::Literal(Value::Int(k)) => {
                    let k = *k;
                    if k < 1 || k as usize > visible_width {
                        return Err(Error::plan(format!(
                            "ORDER BY position {k} is not in the select list"
                        )));
                    }
                    Some((k - 1) as usize)
                }
                Expr::Column {
                    qualifier: None,
                    name,
                } => out_cols.iter().position(|c| &c.name == name),
                _ => None,
            };
            let index = match slot {
                Some(i) => i,
                None => {
                    // Hidden sort column computed alongside the projection.
                    proj_exprs.push(self.compile_expr(&oi.expr, &cx)?);
                    hidden += 1;
                    visible_width + hidden - 1
                }
            };
            sort_keys.push(SortKey {
                expr: ExprIr::slot(index),
                desc: oi.desc,
                nulls_first: oi.nulls_first.unwrap_or(oi.desc),
            });
        }
        chain.pop();

        if sel.distinct && hidden > 0 {
            return Err(Error::plan(
                "for SELECT DISTINCT, ORDER BY expressions must appear in the select list",
            ));
        }

        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs: proj_exprs,
        };
        if !sort_keys.is_empty() {
            plan = PlanNode::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }
        if hidden > 0 {
            plan = PlanNode::Project {
                input: Box::new(plan),
                exprs: (0..visible_width).map(ExprIr::slot).collect(),
            };
        }
        if sel.distinct {
            plan = PlanNode::Distinct {
                input: Box::new(plan),
            };
        }
        Ok((plan, out_scope))
    }

    /// ORDER BY against an already-computed output scope (set operations).
    fn order_keys_on_output(
        &mut self,
        order_by: &[OrderItem],
        scope: &Scope,
        _chain: &[Scope],
    ) -> Result<Vec<SortKey>> {
        let mut keys = Vec::with_capacity(order_by.len());
        for oi in order_by {
            let index = match &oi.expr {
                Expr::Literal(Value::Int(k)) if *k >= 1 => (*k - 1) as usize,
                Expr::Column {
                    qualifier: None,
                    name,
                } => scope
                    .cols
                    .iter()
                    .position(|c| &c.name == name)
                    .ok_or_else(|| {
                        Error::plan(format!("ORDER BY column {name:?} not in output"))
                    })?,
                other => {
                    return Err(Error::plan(format!(
                        "ORDER BY over a set operation must use output columns, got {other}"
                    )))
                }
            };
            if index >= scope.cols.len() {
                return Err(Error::plan("ORDER BY position out of range"));
            }
            keys.push(SortKey {
                expr: ExprIr::slot(index),
                desc: oi.desc,
                nulls_first: oi.nulls_first.unwrap_or(oi.desc),
            });
        }
        Ok(keys)
    }

    // --------------------------------------------------------------- FROM

    fn plan_from(
        &mut self,
        from: &[TableRef],
        chain: &mut Vec<Scope>,
    ) -> Result<(PlanNode, Scope)> {
        if from.is_empty() {
            // Table-less SELECT: one empty row.
            return Ok((PlanNode::Result { exprs: vec![] }, Scope::default()));
        }
        let mut iter = from.iter();
        let (mut plan, mut scope) = self.plan_table_ref(iter.next().unwrap(), chain)?;
        for item in iter {
            // Comma-list item; LATERAL derived tables see the accumulated
            // columns of the items to their left.
            let lateral = matches!(item, TableRef::Derived { lateral: true, .. });
            let (rp, rs) = if lateral {
                chain.push(scope.clone());
                let r = self.plan_table_ref(item, chain);
                chain.pop();
                r?
            } else {
                self.plan_table_ref(item, chain)?
            };
            let right_width = rs.cols.len();
            plan = PlanNode::NestLoop {
                left: Box::new(plan),
                right: Box::new(rp),
                kind: JoinKind::Cross,
                lateral,
                on: None,
                right_width,
            };
            scope = scope.concat(rs);
        }
        Ok((plan, scope))
    }

    fn plan_table_ref(
        &mut self,
        t: &TableRef,
        chain: &mut Vec<Scope>,
    ) -> Result<(PlanNode, Scope)> {
        match t {
            TableRef::Table { name, alias } => {
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.name.clone())
                    .unwrap_or_else(|| name.clone());
                // CTE bindings shadow base tables, innermost binding first.
                if let Some(b) = self.ctes.iter().rev().find(|b| &b.name == name) {
                    let plan = if b.working {
                        PlanNode::WorkingScan { index: b.index }
                    } else {
                        PlanNode::CteScan { index: b.index }
                    };
                    let names = alias_column_names(alias.as_ref(), &b.cols)?;
                    return Ok((plan, Scope::from_names(Some(&qualifier), &names)));
                }
                let table = self.catalog.table(name)?;
                // Index choice re-reads only tables recorded here.
                self.depend(PlanDep::Table {
                    name: name.clone(),
                    stamp: table.stamp,
                });
                let cols: Vec<String> = table.columns.iter().map(|c| c.name.clone()).collect();
                let names = alias_column_names(alias.as_ref(), &cols)?;
                Ok((
                    PlanNode::SeqScan {
                        table: name.clone(),
                    },
                    Scope::from_names(Some(&qualifier), &names),
                ))
            }
            TableRef::Derived {
                lateral: _,
                query,
                alias,
            } => {
                // Caller pushed the left scope if this is LATERAL.
                let (plan, scope) = self.plan_query(query, chain)?;
                let names = alias_column_names(Some(alias), &scope.names())?;
                Ok((plan, Scope::from_names(Some(&alias.name), &names)))
            }
            TableRef::Join {
                left,
                right,
                kind,
                lateral,
                on,
            } => {
                let (lp, ls) = self.plan_table_ref(left, chain)?;
                let (mut rp, rs) = if *lateral {
                    chain.push(ls.clone());
                    let r = self.plan_table_ref(right, chain);
                    chain.pop();
                    r?
                } else {
                    self.plan_table_ref(right, chain)?
                };
                let right_width = rs.cols.len();
                let mut lateral = *lateral;
                let mut residual: Vec<&Expr> = Vec::new();
                if let Some(e) = on {
                    split_conjuncts(e, &mut residual);
                }

                // Indexed-inner nested loop: an inner join whose right side
                // is a bare scan of an indexed base table and whose ON has
                // an equi-join conjunct `right.col = <left expr>` probes the
                // index per left row (the lateral machinery) instead of
                // evaluating the conjunct over every pair — O(left ×
                // matching), never worse than the pairwise evaluation.
                let scan_table = match (&rp, kind, lateral, self.index_mode) {
                    (PlanNode::SeqScan { table }, JoinKind::Inner, false, mode)
                        if mode != IndexMode::ForceOff =>
                    {
                        Some(table.clone())
                    }
                    _ => None,
                };
                if let Some(table_name) = scan_table {
                    let mut hit: Option<(usize, usize, ExprIr)> = None;
                    if let Ok(t) = self.catalog.table(&table_name) {
                        'probe: for (ci, c) in residual.iter().enumerate() {
                            let Expr::Binary {
                                op: plaway_sql::ast::BinOp::Eq,
                                left: a,
                                right: b,
                            } = c
                            else {
                                continue;
                            };
                            for (col_side, other) in [(a, b), (b, a)] {
                                let Expr::Column { qualifier, name } = col_side.as_ref() else {
                                    continue;
                                };
                                // Must resolve on the right side alone, and
                                // not at all on the left — a reference the
                                // combined scope would call ambiguous must
                                // keep erroring below, not silently bind.
                                if !matches!(ls.find(qualifier.as_deref(), name), Ok(None)) {
                                    continue;
                                }
                                let Ok(Some(col)) = rs.find(qualifier.as_deref(), name) else {
                                    continue;
                                };
                                if t.index_on(col).is_none() {
                                    continue;
                                }
                                // The key runs before the right row exists:
                                // compile against the outer chain plus the
                                // left row only.
                                chain.push(ls.clone());
                                let key = {
                                    let cx = ExprCx::bare(chain);
                                    self.compile_expr(other, &cx)
                                };
                                chain.pop();
                                if let Ok(key) = key {
                                    hit = Some((ci, col, key));
                                    break 'probe;
                                }
                            }
                        }
                    }
                    if let Some((ci, col, key)) = hit {
                        rp = PlanNode::IndexLookup {
                            table: table_name,
                            column: col,
                            key,
                        };
                        lateral = true;
                        residual.remove(ci);
                    }
                }

                let combined = ls.concat(rs);
                let on_ir = if residual.is_empty() {
                    None
                } else {
                    chain.push(combined.clone());
                    let mut pred: Result<Option<ExprIr>> = Ok(None);
                    for c in &residual {
                        let cx = ExprCx::bare(chain);
                        match self.compile_expr(c, &cx) {
                            Ok(ir) => {
                                pred = pred.map(|p| {
                                    Some(match p {
                                        None => ir,
                                        Some(q) => ExprIr::Binary {
                                            op: plaway_sql::ast::BinOp::And,
                                            left: Box::new(q),
                                            right: Box::new(ir),
                                        },
                                    })
                                });
                            }
                            Err(e) => {
                                pred = Err(e);
                                break;
                            }
                        }
                    }
                    chain.pop();
                    pred?
                };
                Ok((
                    PlanNode::NestLoop {
                        left: Box::new(lp),
                        right: Box::new(rp),
                        kind: *kind,
                        lateral,
                        on: on_ir,
                        right_width,
                    },
                    combined,
                ))
            }
        }
    }

    /// Plan WHERE, converting indexable conjuncts into an index access path
    /// when the FROM is a single indexed base table (the shape of the
    /// paper's embedded queries and of the compiled row-loop cursors).
    ///
    /// The cost rule (DESIGN.md §6): a point lookup reads only its posting
    /// list and is never worse than the seq scan, so it wins whenever
    /// extractable; a range scan is taken when its estimated row count —
    /// exact when the bounds are literals (read off the ordered index at
    /// plan time), 1/3 (one bound) or 1/4 (two bounds) of the table
    /// otherwise — stays at or under half the table. `ForceOn` skips the
    /// estimate, `ForceOff` disables extraction entirely.
    fn plan_where(
        &mut self,
        plan: PlanNode,
        where_: &Expr,
        from_scope: &Scope,
        chain: &mut Vec<Scope>,
    ) -> Result<PlanNode> {
        let mut conjuncts = Vec::new();
        split_conjuncts(where_, &mut conjuncts);

        let mut plan = plan;
        let mut used: Vec<usize> = Vec::new();
        if self.index_mode != IndexMode::ForceOff {
            if let PlanNode::SeqScan { table } = &plan {
                let table_name = table.clone();
                if let Some((node, absorbed)) =
                    self.extract_index_access(&table_name, &conjuncts, from_scope, chain)
                {
                    plan = node;
                    used = absorbed;
                }
            }
        }
        used.sort_unstable_by(|a, b| b.cmp(a));
        for ci in used {
            conjuncts.remove(ci);
        }
        if conjuncts.is_empty() {
            return Ok(plan);
        }
        chain.push(from_scope.clone());
        let cx = ExprCx::bare(chain);
        let mut pred: Option<ExprIr> = None;
        for c in conjuncts {
            let ir = self.compile_expr(c, &cx)?;
            pred = Some(match pred {
                None => ir,
                Some(p) => ExprIr::Binary {
                    op: plaway_sql::ast::BinOp::And,
                    left: Box::new(p),
                    right: Box::new(ir),
                },
            });
        }
        chain.pop();
        Ok(PlanNode::Filter {
            input: Box::new(plan),
            pred: pred.unwrap(),
        })
    }

    /// Try to replace a bare seq scan over `table_name` with an index access
    /// path driven by the WHERE conjuncts. Returns the replacement node and
    /// the positions of the conjuncts it absorbed (everything else stays in
    /// the Filter above, so partially-absorbed predicates remain correct).
    fn extract_index_access(
        &mut self,
        table_name: &str,
        conjuncts: &[&Expr],
        from_scope: &Scope,
        chain: &[Scope],
    ) -> Option<(PlanNode, Vec<usize>)> {
        use plaway_sql::ast::BinOp;
        let t = self.catalog.table(table_name).ok()?;

        // Point lookup: first `col = expr` conjunct over an indexed column
        // whose key compiles without the scanned row (outer chain only).
        // Reads exactly the matching posting list — never worse than the
        // seq scan — so it is taken whenever extractable.
        for (ci, c) in conjuncts.iter().enumerate() {
            let Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            else {
                continue;
            };
            for (col_side, other) in [(left, right), (right, left)] {
                let Expr::Column { qualifier, name } = col_side.as_ref() else {
                    continue;
                };
                // Resolve against the scan's scope only.
                let Ok(Some(col)) = from_scope.find(qualifier.as_deref(), name) else {
                    continue;
                };
                if t.index_on(col).is_none() {
                    continue;
                }
                let cx = ExprCx::bare(chain);
                if let Ok(key) = self.compile_expr(other, &cx) {
                    return Some((
                        PlanNode::IndexLookup {
                            table: table_name.to_string(),
                            column: col,
                            key,
                        },
                        vec![ci],
                    ));
                }
            }
        }

        // Range scan: bounds on the first btree-indexed column that has a
        // usable comparison conjunct. `col < e`, `e < col` (and friends) in
        // either orientation, plus `col BETWEEN lo AND hi`; the first lo and
        // first hi win, extra bounds stay in the residual filter.
        struct BoundSel {
            ci: usize,
            ir: ExprIr,
            incl: bool,
        }
        let mut range_col: Option<usize> = None;
        let mut lo_sel: Option<BoundSel> = None;
        let mut hi_sel: Option<BoundSel> = None;
        for (ci, c) in conjuncts.iter().enumerate() {
            match c {
                Expr::Binary { op, left, right }
                    if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) =>
                {
                    for (col_side, other, flipped) in [(left, right, false), (right, left, true)] {
                        let Expr::Column { qualifier, name } = col_side.as_ref() else {
                            continue;
                        };
                        let Ok(Some(col)) = from_scope.find(qualifier.as_deref(), name) else {
                            continue;
                        };
                        if t.btree_index_on(col).is_none() {
                            continue;
                        }
                        if *range_col.get_or_insert(col) != col {
                            continue;
                        }
                        // `col > e` / `e < col` bound the key from below.
                        let is_lo = matches!(
                            (op, flipped),
                            (BinOp::Gt | BinOp::GtEq, false) | (BinOp::Lt | BinOp::LtEq, true)
                        );
                        let incl = matches!(op, BinOp::LtEq | BinOp::GtEq);
                        let slot = if is_lo { &mut lo_sel } else { &mut hi_sel };
                        if slot.is_some() {
                            break;
                        }
                        let cx = ExprCx::bare(chain);
                        if let Ok(ir) = self.compile_expr(other, &cx) {
                            *slot = Some(BoundSel { ci, ir, incl });
                        }
                        break;
                    }
                }
                Expr::Between {
                    expr,
                    low,
                    high,
                    negated: false,
                } => {
                    // A BETWEEN is absorbed whole or not at all: using only
                    // one of its bounds while removing the conjunct would
                    // drop the other.
                    let Expr::Column { qualifier, name } = expr.as_ref() else {
                        continue;
                    };
                    let Ok(Some(col)) = from_scope.find(qualifier.as_deref(), name) else {
                        continue;
                    };
                    if t.btree_index_on(col).is_none() {
                        continue;
                    }
                    if *range_col.get_or_insert(col) != col {
                        continue;
                    }
                    if lo_sel.is_some() || hi_sel.is_some() {
                        continue;
                    }
                    let cx = ExprCx::bare(chain);
                    let lo_ir = self.compile_expr(low, &cx);
                    let cx = ExprCx::bare(chain);
                    let hi_ir = self.compile_expr(high, &cx);
                    if let (Ok(lo_ir), Ok(hi_ir)) = (lo_ir, hi_ir) {
                        lo_sel = Some(BoundSel {
                            ci,
                            ir: lo_ir,
                            incl: true,
                        });
                        hi_sel = Some(BoundSel {
                            ci,
                            ir: hi_ir,
                            incl: true,
                        });
                    }
                }
                _ => {}
            }
        }
        if lo_sel.is_none() && hi_sel.is_none() {
            return None;
        }
        let col = range_col.expect("a selected bound implies a range column");
        let take = match self.index_mode {
            IndexMode::ForceOn => true,
            IndexMode::ForceOff => false,
            IndexMode::Auto => {
                let idx = t.btree_index_on(col).expect("bound selected over it");
                let n = t.rows.len();
                let lit = |b: &Option<BoundSel>| match b {
                    Some(BoundSel {
                        ir: ExprIr::Const(v),
                        incl,
                        ..
                    }) => Some(Some((v.clone(), *incl))),
                    Some(_) => None,
                    None => Some(None),
                };
                let est = match (lit(&lo_sel), lit(&hi_sel)) {
                    // All present bounds are literals: exact row count.
                    (Some(l), Some(h)) => idx.estimate_range(
                        l.as_ref().map(|(v, i)| (v, *i)),
                        h.as_ref().map(|(v, i)| (v, *i)),
                    ),
                    // Default selectivities: 1/4 with both bounds, 1/3
                    // with one.
                    _ if lo_sel.is_some() && hi_sel.is_some() => n / 4,
                    _ => n / 3,
                };
                est * 2 <= n
            }
        };
        if !take {
            return None;
        }
        let mut absorbed: Vec<usize> = lo_sel.iter().chain(hi_sel.iter()).map(|b| b.ci).collect();
        absorbed.dedup(); // BETWEEN contributes both bounds from one conjunct
        Some((
            PlanNode::IndexRange {
                table: table_name.to_string(),
                column: col,
                lo: lo_sel.map(|b| (b.ir, b.incl)),
                hi: hi_sel.map(|b| (b.ir, b.incl)),
            },
            absorbed,
        ))
    }

    // -------------------------------------------------------- expressions

    fn compile_expr(&mut self, e: &Expr, cx: &ExprCx<'_>) -> Result<ExprIr> {
        // Replacement patterns (group keys, aggregates, window results).
        for (pattern, slot) in cx.replacements {
            if *pattern == e {
                return Ok(ExprIr::slot(*slot));
            }
        }
        Ok(match e {
            Expr::Literal(v) => ExprIr::Const(v.clone()),
            Expr::Column { qualifier, name } => {
                self.resolve_column(qualifier.as_deref(), name, cx)?
            }
            Expr::Param(name) => {
                let ps = self
                    .params
                    .ok_or_else(|| Error::plan(format!("no parameter scope for {name:?}")))?;
                let i = ps
                    .index_of(name)
                    .ok_or_else(|| Error::plan(format!("unknown parameter {name:?}")))?;
                ExprIr::Param(i)
            }
            Expr::Unary { op, expr } => {
                let inner = Box::new(self.compile_expr(expr, cx)?);
                match op {
                    ast::UnOp::Neg => ExprIr::Neg(inner),
                    ast::UnOp::Not => ExprIr::Not(inner),
                }
            }
            Expr::Binary { op, left, right } => ExprIr::Binary {
                op: *op,
                left: Box::new(self.compile_expr(left, cx)?),
                right: Box::new(self.compile_expr(right, cx)?),
            },
            Expr::IsNull { expr, negated } => ExprIr::IsNull {
                expr: Box::new(self.compile_expr(expr, cx)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => ExprIr::Between {
                expr: Box::new(self.compile_expr(expr, cx)?),
                low: Box::new(self.compile_expr(low, cx)?),
                high: Box::new(self.compile_expr(high, cx)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => ExprIr::InList {
                expr: Box::new(self.compile_expr(expr, cx)?),
                list: list
                    .iter()
                    .map(|i| self.compile_expr(i, cx))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let ir = self.compile_expr(expr, cx)?;
                let plan = self.plan_subquery(query, cx)?;
                ExprIr::InPlan {
                    expr: Box::new(ir),
                    plan: Arc::new(plan),
                    negated: *negated,
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => ExprIr::Like {
                expr: Box::new(self.compile_expr(expr, cx)?),
                pattern: Box::new(self.compile_expr(pattern, cx)?),
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_,
            } => ExprIr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.compile_expr(o, cx).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.compile_expr(w, cx)?, self.compile_expr(t, cx)?)))
                    .collect::<Result<_>>()?,
                else_: else_
                    .as_ref()
                    .map(|e| self.compile_expr(e, cx).map(Box::new))
                    .transpose()?,
            },
            Expr::Func { name, args } => {
                // The row-loop cursor operator: `materialize(<subquery>)`
                // plans its argument as a full (multi-row, multi-column)
                // plan evaluated once into the execution's snapshot store.
                if name == "materialize" {
                    let [Expr::Subquery(q)] = args.as_slice() else {
                        return Err(Error::plan(
                            "materialize() takes exactly one subquery argument",
                        ));
                    };
                    let plan = self.plan_subquery(q, cx)?;
                    return Ok(ExprIr::Materialize {
                        plan: Arc::new(plan),
                    });
                }
                if let Some(op) = crate::ir::SnapshotOp::from_name(name) {
                    if !op.arity_ok(args.len()) {
                        return Err(Error::plan(format!(
                            "{}() called with {} arguments",
                            op.name(),
                            args.len()
                        )));
                    }
                    let irs: Vec<ExprIr> = args
                        .iter()
                        .map(|a| self.compile_expr(a, cx))
                        .collect::<Result<_>>()?;
                    return Ok(ExprIr::SnapshotFn { op, args: irs });
                }
                let irs: Vec<ExprIr> = args
                    .iter()
                    .map(|a| self.compile_expr(a, cx))
                    .collect::<Result<_>>()?;
                if name == "coalesce" {
                    ExprIr::Coalesce(irs)
                } else if let Some(func) = ScalarFn::from_name(name) {
                    ExprIr::Scalar { func, args: irs }
                } else if AggFn::from_name(name).is_some() {
                    return Err(Error::plan(format!(
                        "aggregate function {name}() is not allowed here"
                    )));
                } else if let Some(def) = self.catalog.function(name) {
                    self.depend(PlanDep::Function(Arc::clone(def)));
                    ExprIr::UdfCall {
                        name: name.clone(),
                        args: irs,
                    }
                } else {
                    return Err(Error::plan(format!(
                        "function {name}({}) does not exist",
                        args.len()
                    )));
                }
            }
            Expr::CountStar => {
                return Err(Error::plan("count(*) is not allowed here"));
            }
            Expr::WindowFunc { .. } => {
                return Err(Error::plan(
                    "window functions are only allowed in the select list and ORDER BY",
                ));
            }
            Expr::Subquery(q) => ExprIr::Subplan(Arc::new(self.plan_subquery(q, cx)?)),
            Expr::Exists(q) => ExprIr::Exists {
                plan: Arc::new(self.plan_subquery(q, cx)?),
            },
            Expr::Row(items) => ExprIr::Row(
                items
                    .iter()
                    .map(|i| self.compile_expr(i, cx))
                    .collect::<Result<_>>()?,
            ),
            Expr::Cast { expr, ty } => ExprIr::Cast {
                expr: Box::new(self.compile_expr(expr, cx)?),
                ty: Type::from_sql_name(ty)?,
            },
        })
    }

    /// Plan a subquery appearing inside an expression: it sees the current
    /// chain as outer scopes.
    fn plan_subquery(&mut self, q: &Query, cx: &ExprCx<'_>) -> Result<PlanNode> {
        let mut chain = cx.chain.to_vec();
        let (plan, _) = self.plan_query(q, &mut chain)?;
        Ok(plan)
    }

    fn resolve_column(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
        cx: &ExprCx<'_>,
    ) -> Result<ExprIr> {
        // Innermost scope is last in the chain.
        for (depth, scope) in cx.chain.iter().rev().enumerate() {
            if let Some(index) = scope.find(qualifier, name)? {
                return Ok(ExprIr::Slot { depth, index });
            }
        }
        // Parameter fallback (PL/pgSQL variable substitution).
        if qualifier.is_none() {
            if let Some(ps) = self.params {
                if let Some(i) = ps.index_of(name) {
                    return Ok(ExprIr::Param(i));
                }
            }
        }
        Err(Error::plan(format!(
            "column {:?} does not exist",
            match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            }
        )))
    }

    fn compile_aggregate(&mut self, call: &Expr, cx: &ExprCx<'_>) -> Result<AggSpec> {
        match call {
            Expr::CountStar => Ok(AggSpec {
                func: AggFn::CountStar,
                arg: None,
                distinct: false,
            }),
            Expr::Func { name, args } => {
                let func = AggFn::from_name(name)
                    .ok_or_else(|| Error::plan(format!("{name} is not an aggregate function")))?;
                if args.len() != 1 {
                    return Err(Error::plan(format!(
                        "aggregate {name}() takes exactly one argument"
                    )));
                }
                Ok(AggSpec {
                    func,
                    arg: Some(self.compile_expr(&args[0], cx)?),
                    distinct: false,
                })
            }
            other => Err(Error::plan(format!("not an aggregate: {other}"))),
        }
    }

    fn compile_window_call(
        &mut self,
        call: &Expr,
        cx: &ExprCx<'_>,
        sel: &Select,
    ) -> Result<WindowExprIr> {
        let Expr::WindowFunc { name, args, window } = call else {
            return Err(Error::plan(format!("not a window call: {call}")));
        };
        let mut func = WinFn::from_name(name)
            .ok_or_else(|| Error::plan(format!("{name}() is not a window function")))?;
        // `count(*) OVER ...` arrives as an argument-less count.
        if func == WinFn::Agg(AggFn::Count) && args.is_empty() {
            func = WinFn::Agg(AggFn::CountStar);
        }
        let spec = self.resolve_window_ref(window, sel)?;
        let mut arg_irs = Vec::with_capacity(args.len());
        for a in args {
            arg_irs.push(self.compile_expr(a, cx)?);
        }
        let mut partition_by = Vec::with_capacity(spec.partition_by.len());
        for e in &spec.partition_by {
            partition_by.push(self.compile_expr(e, cx)?);
        }
        let mut order_by = Vec::with_capacity(spec.order_by.len());
        for oi in &spec.order_by {
            order_by.push(SortKey {
                expr: self.compile_expr(&oi.expr, cx)?,
                desc: oi.desc,
                nulls_first: oi.nulls_first.unwrap_or(oi.desc),
            });
        }
        let frame = spec.frame.as_ref().map(|f| FrameIr {
            units: f.units,
            start: f.start.clone(),
            end: f.end.clone(),
            exclude_current_row: f.exclude_current_row,
        });
        Ok(WindowExprIr {
            func,
            args: arg_irs,
            partition_by,
            order_by,
            frame,
        })
    }

    /// Resolve a window reference, flattening named-window inheritance
    /// (`lt AS (leq ROWS ...)` copies leq's partition/order).
    fn resolve_window_ref(&self, wref: &WindowRef, sel: &Select) -> Result<WindowSpec> {
        match wref {
            WindowRef::Named(name) => {
                let spec = sel
                    .windows
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, s)| s.clone())
                    .ok_or_else(|| Error::plan(format!("window {name:?} does not exist")))?;
                self.flatten_window_spec(spec, sel, 0)
            }
            WindowRef::Inline(spec) => self.flatten_window_spec(spec.clone(), sel, 0),
        }
    }

    fn flatten_window_spec(
        &self,
        mut spec: WindowSpec,
        sel: &Select,
        depth: usize,
    ) -> Result<WindowSpec> {
        if depth > 16 {
            return Err(Error::plan("window inheritance chain too deep (cycle?)"));
        }
        if let Some(base_name) = spec.base.take() {
            let base = sel
                .windows
                .iter()
                .find(|(n, _)| n == &base_name)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| Error::plan(format!("window {base_name:?} does not exist")))?;
            let base = self.flatten_window_spec(base, sel, depth + 1)?;
            if spec.partition_by.is_empty() {
                spec.partition_by = base.partition_by;
            }
            if spec.order_by.is_empty() {
                spec.order_by = base.order_by;
            }
            if spec.frame.is_none() {
                spec.frame = base.frame;
            }
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// AST analysis helpers

fn alias_column_names(alias: Option<&ast::TableAlias>, natural: &[String]) -> Result<Vec<String>> {
    match alias {
        Some(a) if !a.columns.is_empty() => {
            if a.columns.len() != natural.len() {
                return Err(Error::plan(format!(
                    "alias {:?} declares {} columns, relation has {}",
                    a.name,
                    a.columns.len(),
                    natural.len()
                )));
            }
            Ok(a.columns.clone())
        }
        _ => Ok(natural.to_vec()),
    }
}

/// Fuse `x LEFT/CROSS JOIN LATERAL (single-expression Result) ON true`
/// cascades into a single [`PlanNode::Extend`]: the compiled `let` chains of
/// the PL/SQL compiler become one in-place row extension per iteration.
fn fuse_lateral_chains(plan: PlanNode) -> PlanNode {
    // Rewrite children first (bottom-up), then try to fuse this node.
    let plan = map_children(plan, fuse_lateral_chains);
    if let PlanNode::NestLoop {
        left,
        right,
        kind,
        lateral: true,
        on,
        right_width,
    } = plan
    {
        let on_is_trivial = match &on {
            None => true,
            Some(ExprIr::Const(v)) => v.is_true(),
            _ => false,
        };
        if on_is_trivial && matches!(kind, JoinKind::Left | JoinKind::Cross | JoinKind::Inner) {
            if let PlanNode::Result { exprs } = *right {
                // A Result always yields exactly one row, so LEFT/INNER/CROSS
                // coincide and the join can only extend the row.
                return match *left {
                    PlanNode::Extend {
                        input,
                        exprs: mut chain,
                    } => {
                        chain.extend(exprs);
                        PlanNode::Extend {
                            input,
                            exprs: chain,
                        }
                    }
                    other => PlanNode::Extend {
                        input: Box::new(other),
                        exprs,
                    },
                };
            }
            // Not fusable: rebuild unchanged.
            return PlanNode::NestLoop {
                left,
                right,
                kind,
                lateral: true,
                on,
                right_width,
            };
        }
        return PlanNode::NestLoop {
            left,
            right,
            kind,
            lateral: true,
            on,
            right_width,
        };
    }
    plan
}

/// Fuse `SELECT row_field(x, 1), ..., row_field(x, n)` projections — the
/// row-decoding shape of the compiler's recursive arm (Figure 8) — into a
/// single [`PlanNode::ProjectUnpack`] that splats the record in place.
fn fuse_project_unpack(plan: PlanNode) -> PlanNode {
    let plan = map_children(plan, fuse_project_unpack);
    if let PlanNode::Project { input, exprs } = plan {
        if let Some((src, width)) = unpack_pattern(&exprs) {
            return PlanNode::ProjectUnpack { input, src, width };
        }
        return PlanNode::Project { input, exprs };
    }
    plan
}

/// Match `[row_field(slot k, 1), row_field(slot k, 2), ...]` (same depth-0
/// slot `k`, consecutive 1-based field indexes) and return `(k, width)`.
fn unpack_pattern(exprs: &[ExprIr]) -> Option<(usize, usize)> {
    let mut src: Option<usize> = None;
    for (i, e) in exprs.iter().enumerate() {
        let ExprIr::Scalar {
            func: ScalarFn::RowField,
            args,
        } = e
        else {
            return None;
        };
        let [ExprIr::Slot { depth: 0, index }, ExprIr::Const(Value::Int(field))] = args.as_slice()
        else {
            return None;
        };
        if *field != i as i64 + 1 {
            return None;
        }
        match src {
            None => src = Some(*index),
            Some(s) if s == *index => {}
            Some(_) => return None,
        }
    }
    src.map(|s| (s, exprs.len()))
}

/// Apply `f` to each direct child plan, rebuilding the node.
fn map_children(plan: PlanNode, f: fn(PlanNode) -> PlanNode) -> PlanNode {
    use crate::ir::CtePlan;
    match plan {
        PlanNode::Filter { input, pred } => PlanNode::Filter {
            input: Box::new(f(*input)),
            pred,
        },
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: Box::new(f(*input)),
            exprs,
        },
        PlanNode::ProjectUnpack { input, src, width } => PlanNode::ProjectUnpack {
            input: Box::new(f(*input)),
            src,
            width,
        },
        PlanNode::Extend { input, exprs } => PlanNode::Extend {
            input: Box::new(f(*input)),
            exprs,
        },
        PlanNode::NestLoop {
            left,
            right,
            kind,
            lateral,
            on,
            right_width,
        } => PlanNode::NestLoop {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            lateral,
            on,
            right_width,
        },
        PlanNode::Agg {
            input,
            keys,
            aggs,
            scalar,
        } => PlanNode::Agg {
            input: Box::new(f(*input)),
            keys,
            aggs,
            scalar,
        },
        PlanNode::WindowAgg { input, windows } => PlanNode::WindowAgg {
            input: Box::new(f(*input)),
            windows,
        },
        PlanNode::Sort { input, keys } => PlanNode::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        PlanNode::Distinct { input } => PlanNode::Distinct {
            input: Box::new(f(*input)),
        },
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => PlanNode::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        PlanNode::Append { inputs } => PlanNode::Append {
            inputs: inputs.into_iter().map(f).collect(),
        },
        PlanNode::SetOpNode {
            op,
            all,
            left,
            right,
        } => PlanNode::SetOpNode {
            op,
            all,
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        PlanNode::With { ctes, body } => PlanNode::With {
            ctes: ctes
                .into_iter()
                .map(|c| match c {
                    CtePlan::Plain { index, plan } => CtePlan::Plain {
                        index,
                        plan: f(plan),
                    },
                    CtePlan::Recursive {
                        index,
                        base,
                        recursive,
                        mode,
                        union_all,
                        tier,
                    } => CtePlan::Recursive {
                        index,
                        base: f(base),
                        recursive: f(recursive),
                        mode,
                        union_all,
                        tier,
                    },
                })
                .collect(),
            body: Box::new(f(*body)),
        },
        leaf => leaf,
    }
}

/// The select list's expressions, then the ORDER BY keys.
fn select_exprs<'e>(sel: &'e Select, order_by: &'e [OrderItem]) -> impl Iterator<Item = &'e Expr> {
    let items = sel.items.iter().filter_map(|i| match i {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
    });
    items.chain(order_by.iter().map(|o| &o.expr))
}

/// Quick check used by the table-less fast path.
fn has_aggregate_or_window(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| found |= is_aggregate(sub) || matches!(sub, Expr::WindowFunc { .. }));
    found
}

fn is_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Func { name, .. } => AggFn::from_name(name).is_some(),
        _ => false,
    }
}

/// Collect the distinct calls `is_call` picks out of `e`, in pre-order,
/// not descending into subqueries (they aggregate on their own level).
/// Window arguments and specs are entered: `rank() OVER (ORDER BY sum(x))`
/// reads the grouped `sum(x)`.
fn collect_calls<'e>(e: &'e Expr, is_call: fn(&Expr) -> bool, out: &mut Vec<&'e Expr>) {
    e.walk(&mut |sub| {
        if is_call(sub) && !out.contains(&sub) {
            out.push(sub);
        }
    });
}

fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            op: plaway_sql::ast::BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

fn expr_output_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        Expr::WindowFunc { name, .. } => name.clone(),
        Expr::CountStar => "count".into(),
        Expr::Cast { expr, .. } => expr_output_name(expr),
        Expr::Subquery(_) | Expr::Exists(_) => "subquery".into(),
        Expr::Case { .. } => "case".into(),
        Expr::Row(_) => "row".into(),
        _ => "?column?".into(),
    }
}

/// Does the query, or any query nested in it, scan the table/CTE `name`?
fn query_references(q: &Query, name: &str) -> bool {
    let mut found = false;
    q.walk(&mut |_| {}, &mut |q, _| {
        found = found || body_scans(&q.body, name);
        !found
    });
    found
}

/// [`query_references`] for a query body (a recursive CTE's base term).
fn set_expr_references(body: &SetExpr, name: &str) -> bool {
    let mut found = body_scans(body, name);
    body.walk(&mut |_| {}, &mut |q, _| {
        found = found || body_scans(&q.body, name);
        !found
    });
    found
}

/// Does a FROM clause of `body`'s own SELECT blocks name `name`?
fn body_scans(body: &SetExpr, name: &str) -> bool {
    let mut found = false;
    body.for_each_select(&mut |s| {
        for t in &s.from {
            t.for_each_leaf(&mut |t| {
                found |= matches!(t, TableRef::Table { name: n, .. } if n == name)
            });
        }
    });
    found
}
