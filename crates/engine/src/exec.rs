//! Plan execution and expression evaluation.
//!
//! The executor is a materializing tree walker: each node returns its full
//! row set. The runtime scope stack ([`Scopes`]) carries outer rows into
//! correlated subqueries and `LATERAL` join arms, mirroring how the planner
//! assigned `(depth, index)` slots.
//!
//! Recursive CTEs are evaluated with PostgreSQL's working-table algorithm;
//! the accumulated union goes through the accounting [`Tuplestore`] so that
//! Table 2's buffer page writes fall out of ordinary execution.

use std::collections::HashMap;
use std::sync::Arc;

use plaway_common::{Error, Result, SessionRng, Value};
use plaway_sql::ast::{BinOp, JoinKind, Language, SetOp};

use crate::catalog::{Catalog, Row};
use crate::config::EngineConfig;
use crate::functions::{eval_scalar, like_match};
use crate::ir::{AggFn, AggSpec, CtePlan, ExprIr, PlanNode, RecursionMode, SnapshotOp, SortKey};
use crate::metrics::RuntimeStats;
use crate::planner::{plan_udf_body, PreparedPlan};
use crate::tuplestore::{BufferStats, SnapshotStore, Tuplestore};
use crate::window::exec_window;

/// Linked list of outer rows; `depth` 0 is the innermost row.
#[derive(Clone, Copy)]
pub struct Scopes<'a> {
    pub row: &'a [Value],
    pub parent: Option<&'a Scopes<'a>>,
}

impl<'a> Scopes<'a> {
    pub(crate) fn at_depth(&self, depth: usize) -> Result<&'a [Value]> {
        let mut cur = self;
        for _ in 0..depth {
            cur = cur
                .parent
                .ok_or_else(|| Error::exec("scope stack underflow (planner bug)"))?;
        }
        Ok(cur.row)
    }
}

/// Expression evaluation environment: scope stack + statement parameters.
#[derive(Clone, Copy)]
pub struct EvalEnv<'a> {
    pub scopes: Option<&'a Scopes<'a>>,
    pub params: &'a [Value],
}

impl<'a> EvalEnv<'a> {
    pub const EMPTY: EvalEnv<'static> = EvalEnv {
        scopes: None,
        params: &[],
    };

    /// Environment with `row` pushed as the innermost scope.
    fn with_row(&self, scopes: &'a Scopes<'a>) -> EvalEnv<'a> {
        EvalEnv {
            scopes: Some(scopes),
            params: self.params,
        }
    }
}

/// Cache of lazily planned SQL UDF bodies (name -> prepared body plan).
/// An entry is reused while its dependencies — the function's own
/// definition among them — are current in the runtime's catalog.
#[derive(Default)]
pub struct FnPlanCache {
    plans: HashMap<String, Arc<PreparedPlan>>,
}

/// Everything execution needs, split-borrowed from the session.
pub struct Runtime<'s> {
    pub catalog: &'s Catalog,
    pub rng: &'s mut SessionRng,
    pub buffers: &'s mut BufferStats,
    pub stats: &'s mut RuntimeStats,
    pub fn_plans: &'s mut FnPlanCache,
    pub config: &'s EngineConfig,
    /// Materialized CTE results, keyed by plan-local CTE index (With nodes
    /// save/restore entries, so recursion through UDFs is safe).
    pub ctes: HashMap<usize, Arc<Vec<Row>>>,
    /// Recursive working tables.
    pub working: HashMap<usize, Arc<Vec<Row>>>,
    pub udf_depth: usize,
    /// Scratch value stack for compiled expression programs ([`crate::vm`]);
    /// reentrant via base offsets, reused across evaluations.
    pub vm_stack: Vec<Value>,
    /// Per-execution memo for invariant sub-plans, keyed by plan address.
    /// The catalog cannot change mid-statement, so a closed sub-plan's
    /// scalar result is computed once instead of once per fixpoint row.
    pub subplan_cache: HashMap<usize, Value>,
    /// Materialized row-loop sources (the compiled cursor operator), scoped
    /// to this execution: handles die with the runtime, which is what makes
    /// snapshot expressions safe to exclude from `subplan_cache` hoisting.
    pub snapshots: SnapshotStore,
    /// Per-node observation sink for EXPLAIN ANALYZE. `None` (the default)
    /// keeps the hot path free of instrumentation; `Some` makes [`exec`]
    /// wrap every node it dispatches with row/loop/ns accounting.
    pub analyze: Option<&'s mut crate::explain::AnalyzeState>,
}

impl<'s> Runtime<'s> {
    fn fn_plan(&mut self, name: &str) -> Result<Arc<PreparedPlan>> {
        if let Some(p) = self.fn_plans.plans.get(name) {
            if self.catalog.deps_current(&p.deps) {
                return Ok(Arc::clone(p));
            }
        }
        let def = self
            .catalog
            .function(name)
            .ok_or_else(|| Error::plan(format!("function {name:?} does not exist")))?;
        if def.language != Language::Sql {
            return Err(Error::unsupported(format!(
                "function {name:?} is PL/pgSQL; evaluate it with the interpreter or compile it \
                 away (the engine executes SQL-language functions only)"
            )));
        }
        let plan = Arc::new(plan_udf_body(self.catalog, def, self.config.index_mode)?);
        self.fn_plans
            .plans
            .insert(name.to_string(), Arc::clone(&plan));
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation

pub fn eval(ir: &ExprIr, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    match ir {
        ExprIr::Const(v) => Ok(v.clone()),
        ExprIr::Slot { depth, index } => {
            let scopes = env
                .scopes
                .ok_or_else(|| Error::exec("no row context for column reference"))?;
            let row = scopes.at_depth(*depth)?;
            row.get(*index)
                .cloned()
                .ok_or_else(|| Error::exec("column slot out of range (planner bug)"))
        }
        ExprIr::Param(i) => env
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::exec(format!("parameter ${i} not bound"))),
        ExprIr::Neg(e) => eval(e, env, rt)?.neg(),
        ExprIr::Not(e) => Ok(match eval(e, env, rt)?.as_bool()? {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        ExprIr::Binary { op, left, right } => eval_binary(*op, left, right, env, rt),
        ExprIr::IsNull { expr, negated } => {
            let v = eval(expr, env, rt)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        ExprIr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, env, rt)?;
            let lo = eval(low, env, rt)?;
            let hi = eval(high, env, rt)?;
            let ge = v.sql_cmp(&lo)?.map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&hi)?.map(|o| o != std::cmp::Ordering::Greater);
            let both = and3(ge, le);
            Ok(match both {
                Some(b) => Value::Bool(b != *negated),
                None => Value::Null,
            })
        }
        ExprIr::Case {
            operand,
            branches,
            else_,
        } => {
            let op_val = match operand {
                Some(o) => Some(eval(o, env, rt)?),
                None => None,
            };
            for (when, then) in branches {
                let fire = match &op_val {
                    Some(v) => {
                        let w = eval(when, env, rt)?;
                        v.sql_eq(&w)? == Some(true)
                    }
                    None => eval(when, env, rt)?.is_true(),
                };
                if fire {
                    return eval(then, env, rt);
                }
            }
            match else_ {
                Some(e) => eval(e, env, rt),
                None => Ok(Value::Null),
            }
        }
        ExprIr::Coalesce(args) => {
            for a in args {
                let v = eval(a, env, rt)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ExprIr::Scalar { func, args } => match args.as_slice() {
            // Stack-allocate the common arities (row_field, substr, ...):
            // scalar calls run once per CTE iteration, heap traffic counts.
            [] => eval_scalar(*func, &[], rt.rng),
            [a] => {
                let va = eval(a, env, rt)?;
                eval_scalar(*func, std::slice::from_ref(&va), rt.rng)
            }
            [a, b] => {
                let va = eval(a, env, rt)?;
                let vb = eval(b, env, rt)?;
                eval_scalar(*func, &[va, vb], rt.rng)
            }
            [a, b, c] => {
                let va = eval(a, env, rt)?;
                let vb = eval(b, env, rt)?;
                let vc = eval(c, env, rt)?;
                eval_scalar(*func, &[va, vb, vc], rt.rng)
            }
            _ => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(eval(a, env, rt)?);
                }
                eval_scalar(*func, &argv, rt.rng)
            }
        },
        ExprIr::UdfCall { name, args } => {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval(a, env, rt)?);
            }
            call_sql_udf(name, argv, rt)
        }
        ExprIr::Subplan(plan) => {
            rt.stats.subplan_evals += 1;
            if let Some(v) = try_scalar_chain(plan, env, rt)? {
                return Ok(v);
            }
            let rows = exec(plan, env, rt)?;
            scalar_from_rows(rows)
        }
        ExprIr::Exists { plan } => {
            let rows = exec(plan, env, rt)?;
            Ok(Value::Bool(!rows.is_empty()))
        }
        ExprIr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, env, rt)?;
            let mut any_null = false;
            for item in list {
                let w = eval(item, env, rt)?;
                match v.sql_eq(&w)? {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => any_null = true,
                }
            }
            Ok(if any_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            })
        }
        ExprIr::InPlan {
            expr,
            plan,
            negated,
        } => {
            let v = eval(expr, env, rt)?;
            let rows = exec(plan, env, rt)?;
            let mut any_null = false;
            for row in &rows {
                match v.sql_eq(&row[0])? {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => any_null = true,
                }
            }
            Ok(if any_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            })
        }
        ExprIr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, env, rt)?;
            let p = eval(pattern, env, rt)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let m = like_match(v.as_text()?, p.as_text()?);
            Ok(Value::Bool(m != *negated))
        }
        ExprIr::Row(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for i in items {
                vals.push(eval(i, env, rt)?);
            }
            Ok(Value::record(vals))
        }
        ExprIr::Cast { expr, ty } => eval(expr, env, rt)?.cast(ty),
        ExprIr::Materialize { plan } => materialize_snapshot(plan, env, rt),
        ExprIr::SnapshotFn { op, args } => {
            // Arity is planner-checked; 1..=3 arguments, stack-allocated.
            let mut argv = [Value::Null, Value::Null, Value::Null];
            for (slot, a) in argv.iter_mut().zip(args) {
                *slot = eval(a, env, rt)?;
            }
            eval_snapshot_op(*op, &argv[..args.len()], rt)
        }
        ExprIr::Vm(prog) => crate::vm::run(prog, env, rt),
    }
}

/// Evaluate a row-loop source exactly once into the execution's snapshot
/// store (through the accounting tuplestore, so cursor materialization is
/// charged to the buffer statistics like PostgreSQL's portal tuplestore)
/// and return its handle.
fn materialize_snapshot(plan: &PlanNode, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    let rows = exec(plan, env, rt)?;
    let mut store = Tuplestore::new(rt.config.work_mem_bytes);
    store.extend(rows);
    let rows = store.finish(rt.buffers);
    rt.stats.snapshots_materialized += 1;
    Ok(Value::Int(rt.snapshots.register(rows)))
}

/// Apply a snapshot accessor to already-evaluated arguments. Shared by the
/// tree evaluator and the VM's [`crate::vm::Op::Snapshot`] instruction.
pub(crate) fn eval_snapshot_op(
    op: SnapshotOp,
    args: &[Value],
    rt: &mut Runtime<'_>,
) -> Result<Value> {
    let handle = args
        .first()
        .ok_or_else(|| Error::exec("snapshot accessor without a handle (planner bug)"))?
        .as_int()
        .map_err(|_| Error::exec(format!("{}: snapshot handle must be an integer", op.name())))?;
    match op {
        SnapshotOp::Rows => {
            let n = rt.snapshots.len(handle).map_err(Error::exec)?;
            Ok(Value::Int(n as i64))
        }
        SnapshotOp::Fetch => {
            let pos = args[1].as_int()?;
            let row = rt.snapshots.row(handle, pos).map_err(Error::exec)?;
            match args.get(2) {
                // 3-argument form: one field, no intermediate record.
                Some(f) => {
                    let i = f.as_int()?;
                    usize::try_from(i - 1)
                        .ok()
                        .and_then(|i| row.get(i))
                        .cloned()
                        .ok_or_else(|| {
                            Error::exec(format!(
                                "fetch_row: field {i} out of bounds for row of width {}",
                                row.len()
                            ))
                        })
                }
                None => Ok(Value::record(row.to_vec())),
            }
        }
        SnapshotOp::Release => {
            rt.snapshots.release(handle).map_err(Error::exec)?;
            rt.stats.snapshots_released += 1;
            Ok(Value::Null)
        }
    }
}

/// Three-valued AND over already-evaluated operands.
pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn eval_binary(
    op: BinOp,
    left: &ExprIr,
    right: &ExprIr,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Value> {
    // AND/OR short-circuit under three-valued logic.
    match op {
        BinOp::And => {
            let l = eval(left, env, rt)?.as_bool()?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = eval(right, env, rt)?.as_bool()?;
            return Ok(match and3(l, r) {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            });
        }
        BinOp::Or => {
            let l = eval(left, env, rt)?.as_bool()?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = eval(right, env, rt)?.as_bool()?;
            return Ok(match (l, r) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let l = eval(left, env, rt)?;
    let r = eval(right, env, rt)?;
    apply_bin(op, &l, &r)
}

/// Apply a non-short-circuit binary operator to evaluated operands. Shared
/// with the flat-program evaluator in [`crate::vm`].
pub(crate) fn apply_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Mod => l.rem(r),
        BinOp::Concat => l.concat(r),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let cmp = l.sql_cmp(r)?;
            Ok(match cmp {
                None => Value::Null,
                Some(ord) => {
                    use std::cmp::Ordering::*;
                    let b = match op {
                        BinOp::Eq => ord == Equal,
                        BinOp::NotEq => ord != Equal,
                        BinOp::Lt => ord == Less,
                        BinOp::LtEq => ord != Greater,
                        BinOp::Gt => ord == Greater,
                        BinOp::GtEq => ord != Less,
                        _ => unreachable!(),
                    };
                    Value::Bool(b)
                }
            })
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by the caller"),
    }
}

/// Fast path for the let-chain scalar sub-queries the PL/SQL compiler emits
/// (`SELECT e FROM (SELECT e1) _0(v1) LEFT JOIN LATERAL (SELECT e2) ...`,
/// planned as `Project[e] ∘ Extend* ∘ Result`): exactly one row by
/// construction, so evaluate the chain into a single scratch row instead of
/// driving the plan executor through five `Vec`s per evaluation. Returns
/// `None` when the plan has any other shape.
fn try_scalar_chain(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Option<Value>> {
    // Shape matching is shared with the VM's chain flattening so both fast
    // paths accelerate (or skip) exactly the same plans.
    let Some((first, extends, final_expr)) = crate::vm::chain_shape(plan) else {
        return Ok(None);
    };
    // Evaluate exactly as Result → Extend* → Project would: the Result
    // expressions see the outer environment; every later expression sees the
    // row built so far pushed on the scope stack.
    let mut letrow: Row = Vec::with_capacity(first.len() + extends.len());
    for e in first {
        letrow.push(eval(e, env, rt)?);
    }
    for exprs in extends {
        for e in exprs {
            let scopes = Scopes {
                row: &letrow,
                parent: env.scopes,
            };
            let v = eval(e, &env.with_row(&scopes), rt)?;
            letrow.push(v);
        }
    }
    let scopes = Scopes {
        row: &letrow,
        parent: env.scopes,
    };
    eval(final_expr, &env.with_row(&scopes), rt).map(Some)
}

fn scalar_from_rows(rows: Vec<Row>) -> Result<Value> {
    match rows.len() {
        0 => Ok(Value::Null),
        1 => {
            let row = rows.into_iter().next().unwrap();
            if row.len() != 1 {
                return Err(Error::exec(format!(
                    "subquery must return one column, returned {}",
                    row.len()
                )));
            }
            Ok(row.into_iter().next().unwrap())
        }
        n => Err(Error::exec(format!(
            "more than one row ({n}) returned by a subquery used as an expression"
        ))),
    }
}

fn call_sql_udf(name: &str, args: Vec<Value>, rt: &mut Runtime<'_>) -> Result<Value> {
    rt.stats.udf_calls += 1;
    rt.udf_depth += 1;
    rt.stats.max_udf_depth = rt.stats.max_udf_depth.max(rt.udf_depth as u64);
    if rt.udf_depth > rt.config.max_udf_depth {
        rt.udf_depth -= 1;
        return Err(Error::exec(format!(
            "stack depth limit exceeded ({} nested function calls); \
             recursive SQL UDFs are bounded — compile to WITH RECURSIVE instead",
            rt.config.max_udf_depth
        )));
    }
    let plan = match rt.fn_plan(name) {
        Ok(p) => p,
        Err(e) => {
            rt.udf_depth -= 1;
            return Err(e);
        }
    };
    // Every UDF invocation instantiates executor state for the body plan —
    // PostgreSQL prepares and tears down the cached plan per call, which is
    // exactly why §2 finds direct recursive UDF evaluation disappointing.
    // (Boxed: the instantiated state must not grow the native stack, which
    // recursion through deep UDF chains would otherwise exhaust.)
    let state = Box::new(plan.plan.clone());
    crate::penalty::charge_start_penalty(rt.config, rt.stats);
    let env = EvalEnv {
        scopes: None,
        params: &args,
    };
    let result = exec(&state, &env, rt).and_then(scalar_from_rows);
    drop(state);
    crate::penalty::charge_end_penalty(rt.config, rt.stats);
    rt.udf_depth -= 1;
    result
}

// ---------------------------------------------------------------------------
// Plan execution

pub fn exec(plan: &PlanNode, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
    if rt.analyze.is_none() {
        return exec_node(plan, env, rt);
    }
    // ANALYZE path: bracket the node with wall-clock and counter deltas.
    // The map is keyed by plan-node address, which is stable for the whole
    // execution (the plan sits behind an `Arc` and is never mutated).
    let vm_ops_before = rt.stats.vm_ops_executed;
    let fused_before = rt.stats.fused_transition_rows;
    let started = std::time::Instant::now();
    let result = exec_node(plan, env, rt);
    let ns = started.elapsed().as_nanos() as u64;
    let rows_out = result.as_ref().map(Vec::len).unwrap_or(0) as u64;
    let vm_ops = rt.stats.vm_ops_executed - vm_ops_before;
    let fused_rows = rt.stats.fused_transition_rows - fused_before;
    if let Some(state) = rt.analyze.as_deref_mut() {
        state.record_node(plan, rows_out, ns, vm_ops, fused_rows);
    }
    result
}

fn exec_node(plan: &PlanNode, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
    match plan {
        PlanNode::SeqScan { table } => {
            let t = rt.catalog.table(table)?;
            rt.stats.rows_scanned += t.rows.len() as u64;
            Ok(t.rows.as_ref().clone())
        }
        PlanNode::IndexLookup { table, column, key } => {
            let k = eval(key, env, rt)?;
            if k.is_null() {
                return Ok(Vec::new()); // NULL = x is never true
            }
            let t = rt.catalog.table(table)?;
            let idx = t.index_on(*column).ok_or_else(|| {
                Error::exec(format!(
                    "index on {table}.{column} vanished (plan is stale)"
                ))
            })?;
            let positions = idx.lookup(&k);
            rt.stats.index_probes += 1;
            rt.stats.rows_scanned += positions.len() as u64;
            Ok(positions.iter().map(|&i| t.rows[i].clone()).collect())
        }
        PlanNode::IndexRange {
            table,
            column,
            lo,
            hi,
        } => {
            // Evaluate bounds first: a NULL bound makes the comparison
            // three-valued-false for every row, exactly like the Filter
            // this node replaced.
            let bound = |b: &Option<(ExprIr, bool)>,
                         env: &EvalEnv<'_>,
                         rt: &mut Runtime<'_>|
             -> Result<Option<Option<(Value, bool)>>> {
                match b {
                    None => Ok(Some(None)),
                    Some((e, incl)) => {
                        let v = eval(e, env, rt)?;
                        if v.is_null() {
                            return Ok(None); // empty result
                        }
                        Ok(Some(Some((v, *incl))))
                    }
                }
            };
            let Some(lo_v) = bound(lo, env, rt)? else {
                return Ok(Vec::new());
            };
            let Some(hi_v) = bound(hi, env, rt)? else {
                return Ok(Vec::new());
            };
            let t = rt.catalog.table(table)?;
            // Reject bound types the replaced Filter's `sql_cmp` would have
            // errored on, so both access paths fail identically instead of
            // the index silently returning no rows.
            let col_ty = &t.columns[*column].ty;
            for (v, _) in lo_v.iter().chain(hi_v.iter()) {
                let comparable = matches!(
                    (col_ty, v),
                    (
                        plaway_common::Type::Int | plaway_common::Type::Float,
                        Value::Int(_) | Value::Float(_)
                    ) | (plaway_common::Type::Text, Value::Text(_))
                        | (plaway_common::Type::Bool, Value::Bool(_))
                        | (plaway_common::Type::Unknown, _)
                );
                if !comparable {
                    return Err(Error::exec(format!(
                        "cannot compare {col_ty} column {table}.{column} with {v}"
                    )));
                }
            }
            let idx = t.btree_index_on(*column).ok_or_else(|| {
                Error::exec(format!(
                    "ordered index on {table}.{column} vanished (plan is stale)"
                ))
            })?;
            let positions = idx
                .range(
                    lo_v.as_ref().map(|(v, i)| (v, *i)),
                    hi_v.as_ref().map(|(v, i)| (v, *i)),
                )
                .expect("btree_index_on returned an ordered index");
            rt.stats.index_probes += 1;
            rt.stats.rows_scanned += positions.len() as u64;
            Ok(positions.iter().map(|&i| t.rows[i].clone()).collect())
        }
        PlanNode::Values { rows } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, env, rt)?);
                }
                out.push(vals);
            }
            Ok(out)
        }
        PlanNode::Result { exprs } => {
            let mut row = Vec::with_capacity(exprs.len());
            for e in exprs {
                row.push(eval(e, env, rt)?);
            }
            Ok(vec![row])
        }
        PlanNode::Filter { input, pred } => {
            // Filtering a materialized CTE clones only the passing rows —
            // the compiled queries' outer `WHERE NOT call?` otherwise copies
            // the whole trace to keep one row.
            if let PlanNode::CteScan { index } = input.as_ref() {
                let rows = rt.ctes.get(index).cloned().ok_or_else(|| {
                    Error::exec(format!("CTE #{index} not materialized (planner bug)"))
                })?;
                // The predicate of that outer query is a (negated) boolean
                // column; scanning a long RECURSIVE trace through the
                // expression evaluator costs more than the final answer —
                // test the slot directly.
                let slot_test: Option<(usize, bool)> = match pred {
                    ExprIr::Slot { depth: 0, index } => Some((*index, true)),
                    ExprIr::Not(inner) => match inner.as_ref() {
                        ExprIr::Slot { depth: 0, index } => Some((*index, false)),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some((i, want)) = slot_test {
                    let mut out = Vec::new();
                    for row in rows.iter() {
                        let keep = match row.get(i) {
                            Some(Value::Bool(b)) => *b == want,
                            Some(Value::Null) => false,
                            // A bare slot test is `is_true()` (false on
                            // non-booleans); NOT of a non-boolean errors —
                            // both exactly as the expression path would.
                            Some(other) if !want => {
                                return Err(Error::exec(format!(
                                    "expected boolean, got {}",
                                    other.type_of()
                                )))
                            }
                            _ => false,
                        };
                        if keep {
                            out.push(row.clone());
                        }
                    }
                    return Ok(out);
                }
                let mut out = Vec::new();
                for row in rows.iter() {
                    let scopes = Scopes {
                        row,
                        parent: env.scopes,
                    };
                    if eval(pred, &env.with_row(&scopes), rt)?.is_true() {
                        out.push(row.clone());
                    }
                }
                return Ok(out);
            }
            let rows = exec(input, env, rt)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let scopes = Scopes {
                    row: &row,
                    parent: env.scopes,
                };
                if eval(pred, &env.with_row(&scopes), rt)?.is_true() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Extend { input, exprs } => {
            let rows = exec(input, env, rt)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                row.reserve(exprs.len());
                for e in exprs {
                    let scopes = Scopes {
                        row: &row,
                        parent: env.scopes,
                    };
                    let v = eval(e, &env.with_row(&scopes), rt)?;
                    row.push(v);
                }
                out.push(row);
            }
            Ok(out)
        }
        PlanNode::Project { input, exprs } => {
            // Projecting a base table evaluates the expressions over rows
            // borrowed straight from the catalog — no intermediate clone of
            // every input row. The batch trampoline's seeding arm (one
            // activation per `batch#…` input row) runs through here, so this
            // is per-invocation cost on the throughput path.
            if let PlanNode::SeqScan { table } = input.as_ref() {
                let t = rt.catalog.table(table)?;
                rt.stats.rows_scanned += t.rows.len() as u64;
                let mut out = Vec::with_capacity(t.rows.len());
                for row in t.rows.iter() {
                    let scopes = Scopes {
                        row,
                        parent: env.scopes,
                    };
                    let inner = env.with_row(&scopes);
                    let mut proj = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        proj.push(eval(e, &inner, rt)?);
                    }
                    out.push(proj);
                }
                return Ok(out);
            }
            let rows = exec(input, env, rt)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let scopes = Scopes {
                    row: &row,
                    parent: env.scopes,
                };
                let inner = env.with_row(&scopes);
                let mut proj = Vec::with_capacity(exprs.len());
                for e in exprs {
                    proj.push(eval(e, &inner, rt)?);
                }
                out.push(proj);
            }
            Ok(out)
        }
        PlanNode::ProjectUnpack { input, src, width } => {
            let rows = exec(input, env, rt)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                unpack_row(&mut row, *src, *width)?;
                out.push(row);
            }
            Ok(out)
        }
        PlanNode::NestLoop {
            left,
            right,
            kind,
            lateral,
            on,
            right_width,
        } => exec_nestloop(
            left,
            right,
            *kind,
            *lateral,
            on.as_ref(),
            *right_width,
            env,
            rt,
        ),
        PlanNode::Agg {
            input,
            keys,
            aggs,
            scalar,
        } => exec_agg(input, keys, aggs, *scalar, env, rt),
        PlanNode::WindowAgg { input, windows } => {
            let rows = exec(input, env, rt)?;
            exec_window(rows, windows, env, rt)
        }
        PlanNode::Sort { input, keys } => {
            let rows = exec(input, env, rt)?;
            sort_rows(rows, keys, env, rt)
        }
        PlanNode::Distinct { input } => {
            let rows = exec(input, env, rt)?;
            let mut seen = std::collections::HashSet::with_capacity(rows.len());
            Ok(rows
                .into_iter()
                .filter(|r| seen.insert(r.clone()))
                .collect())
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            let off = eval_opt_count(offset.as_ref(), env, rt)?.unwrap_or(0);
            let lim = eval_opt_count(limit.as_ref(), env, rt)?;
            // With a known row budget, push the bound through
            // cardinality-preserving nodes so the input never produces (or
            // projects) rows past `offset + limit`. The compiled row-loop
            // fetch (`LIMIT 1 OFFSET i-1`, re-executed per iteration) lives
            // on this path.
            let rows = match lim.and_then(|n| n.checked_add(off)) {
                Some(budget) => exec_bounded(input, env, rt, budget)?,
                None => exec(input, env, rt)?,
            };
            let it = rows.into_iter().skip(off);
            Ok(match lim {
                Some(n) => it.take(n).collect(),
                None => it.collect(),
            })
        }
        PlanNode::Append { inputs } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(exec(i, env, rt)?);
            }
            Ok(out)
        }
        PlanNode::SetOpNode {
            op,
            all,
            left,
            right,
        } => {
            let l = exec(left, env, rt)?;
            let r = exec(right, env, rt)?;
            Ok(exec_setop(*op, *all, l, r))
        }
        PlanNode::With { ctes, body } => exec_with(ctes, body, env, rt),
        PlanNode::CteScan { index } => {
            let rows = rt.ctes.get(index).ok_or_else(|| {
                Error::exec(format!("CTE #{index} not materialized (planner bug)"))
            })?;
            Ok(rows.as_ref().clone())
        }
        PlanNode::WorkingScan { index } => {
            let rows = rt.working.get(index).ok_or_else(|| {
                Error::exec(format!(
                    "recursive reference #{index} outside recursion (planner bug)"
                ))
            })?;
            Ok(rows.as_ref().clone())
        }
    }
}

/// Replace `row` with the first `width` fields of the record in column
/// `src`, reusing the row's allocation. Errors mirror the unfused
/// `row_field(slot, i)` projection exactly.
fn unpack_row(row: &mut Row, src: usize, width: usize) -> Result<()> {
    if src >= row.len() {
        return Err(Error::exec("column slot out of range (planner bug)"));
    }
    let v = std::mem::replace(&mut row[src], Value::Null);
    let rec = take_record(v, width)?;
    row.clear();
    row.extend(rec.iter().take(width).cloned());
    Ok(())
}

/// Extract a record of at least `width` fields, with the exact errors the
/// unfused `row_field(x, i)` projection would raise — shared by every
/// unpack path so they cannot drift.
fn take_record(v: Value, width: usize) -> Result<Arc<[Value]>> {
    let rec = match v {
        Value::Record(rec) => rec,
        other => return Err(other.as_record().unwrap_err()),
    };
    if rec.len() < width {
        return Err(Error::exec(format!(
            "row_field: index {} out of bounds for record of width {}",
            rec.len() + 1,
            rec.len()
        )));
    }
    Ok(rec)
}

/// Execute `plan` needing at most the first `budget` rows. The bound pushes
/// through cardinality-preserving nodes (Project / ProjectUnpack / Extend)
/// down to scans and filters, so `LIMIT k OFFSET n` over a derived table
/// neither copies nor projects rows past `n + k`. Skipping the evaluation
/// of projections for never-returned rows is exactly SQL's LIMIT contract.
fn exec_bounded(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    budget: usize,
) -> Result<Vec<Row>> {
    match plan {
        PlanNode::SeqScan { table } => {
            let t = rt.catalog.table(table)?;
            let n = budget.min(t.rows.len());
            rt.stats.rows_scanned += n as u64;
            Ok(t.rows[..n].to_vec())
        }
        PlanNode::Project { input, exprs } => {
            let rows = exec_bounded(input, env, rt, budget)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let scopes = Scopes {
                    row: &row,
                    parent: env.scopes,
                };
                let inner = env.with_row(&scopes);
                let mut proj = Vec::with_capacity(exprs.len());
                for e in exprs {
                    proj.push(eval(e, &inner, rt)?);
                }
                out.push(proj);
            }
            Ok(out)
        }
        PlanNode::ProjectUnpack { input, src, width } => {
            let rows = exec_bounded(input, env, rt, budget)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                unpack_row(&mut row, *src, *width)?;
                out.push(row);
            }
            Ok(out)
        }
        PlanNode::Extend { input, exprs } => {
            let rows = exec_bounded(input, env, rt, budget)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                row.reserve(exprs.len());
                for e in exprs {
                    let scopes = Scopes {
                        row: &row,
                        parent: env.scopes,
                    };
                    let v = eval(e, &env.with_row(&scopes), rt)?;
                    row.push(v);
                }
                out.push(row);
            }
            Ok(out)
        }
        PlanNode::Filter { input, pred } => {
            // Not cardinality-preserving: the input must stream unbounded,
            // but the output can stop at the budget.
            let rows = exec(input, env, rt)?;
            let mut out = Vec::new();
            for row in rows {
                if out.len() >= budget {
                    break;
                }
                let scopes = Scopes {
                    row: &row,
                    parent: env.scopes,
                };
                if eval(pred, &env.with_row(&scopes), rt)?.is_true() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        other => {
            let mut rows = exec(other, env, rt)?;
            rows.truncate(budget);
            Ok(rows)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_nestloop(
    left: &PlanNode,
    right: &PlanNode,
    kind: JoinKind,
    lateral: bool,
    on: Option<&ExprIr>,
    right_width: usize,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    let left_rows = exec(left, env, rt)?;
    let mut out = Vec::with_capacity(left_rows.len());

    // Non-lateral right side is evaluated exactly once and borrowed per
    // left row (no wholesale clones).
    let fixed_right = if lateral {
        None
    } else {
        Some(exec(right, env, rt)?)
    };

    let mut lateral_rows: Vec<Row>;
    for lrow in left_rows {
        let right_rows: &[Row] = match &fixed_right {
            Some(r) => r.as_slice(),
            None => {
                let scopes = Scopes {
                    row: &lrow,
                    parent: env.scopes,
                };
                lateral_rows = exec(right, &env.with_row(&scopes), rt)?;
                lateral_rows.as_slice()
            }
        };
        let mut matched = false;
        for rrow in right_rows {
            let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
            combined.extend_from_slice(&lrow);
            combined.extend_from_slice(rrow);
            let keep = match on {
                None => true,
                Some(pred) => {
                    let scopes = Scopes {
                        row: &combined,
                        parent: env.scopes,
                    };
                    eval(pred, &env.with_row(&scopes), rt)?.is_true()
                }
            };
            if keep {
                matched = true;
                out.push(combined);
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut combined = lrow;
            combined.extend(std::iter::repeat_with(|| Value::Null).take(right_width));
            out.push(combined);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Aggregation

/// One accumulator instance.
#[derive(Debug, Clone)]
struct AggAcc {
    func: AggFn,
    distinct: bool,
    seen: std::collections::HashSet<Value>,
    count: i64,
    sum: Option<Value>,
    extreme: Option<Value>,
    bool_acc: Option<bool>,
}

impl AggAcc {
    fn new(spec: &AggSpec) -> Self {
        AggAcc {
            func: spec.func,
            distinct: spec.distinct,
            seen: std::collections::HashSet::new(),
            count: 0,
            sum: None,
            extreme: None,
            bool_acc: None,
        }
    }

    fn update(&mut self, v: Option<Value>) -> Result<()> {
        // COUNT(*) counts rows regardless of values.
        if self.func == AggFn::CountStar {
            self.count += 1;
            return Ok(());
        }
        let Some(v) = v else {
            return Err(Error::exec("aggregate missing its argument (planner bug)"));
        };
        if v.is_null() {
            return Ok(()); // all remaining aggregates ignore NULL
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        match self.func {
            AggFn::Count => self.count += 1,
            AggFn::Sum | AggFn::Avg => {
                self.count += 1;
                self.sum = Some(match self.sum.take() {
                    None => v,
                    Some(acc) => acc.add(&v)?,
                });
            }
            AggFn::Min => {
                self.extreme = Some(match self.extreme.take() {
                    None => v,
                    Some(cur) => match v.sql_cmp(&cur)? {
                        Some(std::cmp::Ordering::Less) => v,
                        _ => cur,
                    },
                });
            }
            AggFn::Max => {
                self.extreme = Some(match self.extreme.take() {
                    None => v,
                    Some(cur) => match v.sql_cmp(&cur)? {
                        Some(std::cmp::Ordering::Greater) => v,
                        _ => cur,
                    },
                });
            }
            AggFn::BoolAnd => {
                let b = v.as_bool()?.unwrap_or(false);
                self.bool_acc = Some(self.bool_acc.map_or(b, |acc| acc && b));
            }
            AggFn::BoolOr => {
                let b = v.as_bool()?.unwrap_or(false);
                self.bool_acc = Some(self.bool_acc.map_or(b, |acc| acc || b));
            }
            AggFn::CountStar => unreachable!(),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self.func {
            AggFn::Count | AggFn::CountStar => Value::Int(self.count),
            AggFn::Sum => self.sum.unwrap_or(Value::Null),
            AggFn::Avg => match self.sum {
                None => Value::Null,
                Some(s) => {
                    let total = s.as_float().unwrap_or(0.0);
                    Value::Float(total / self.count as f64)
                }
            },
            AggFn::Min | AggFn::Max => self.extreme.unwrap_or(Value::Null),
            AggFn::BoolAnd | AggFn::BoolOr => self.bool_acc.map(Value::Bool).unwrap_or(Value::Null),
        }
    }
}

fn exec_agg(
    input: &PlanNode,
    keys: &[ExprIr],
    aggs: &[AggSpec],
    scalar: bool,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    let rows = exec(input, env, rt)?;
    if scalar {
        let mut accs: Vec<AggAcc> = aggs.iter().map(AggAcc::new).collect();
        for row in &rows {
            let scopes = Scopes {
                row,
                parent: env.scopes,
            };
            let inner = env.with_row(&scopes);
            for (acc, spec) in accs.iter_mut().zip(aggs) {
                let v = match &spec.arg {
                    Some(e) => Some(eval(e, &inner, rt)?),
                    None => None,
                };
                acc.update(v)?;
            }
        }
        return Ok(vec![accs.into_iter().map(AggAcc::finish).collect()]);
    }

    // Grouped: preserve first-seen group order for deterministic output.
    // The key is evaluated into a reusable scratch buffer and only cloned
    // when a new group is born — `Vec<Value>: Borrow<[Value]>` lets the map
    // probe by slice, so group hits allocate nothing.
    let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<AggAcc>)> = Vec::new();
    let mut key_scratch: Vec<Value> = Vec::with_capacity(keys.len());
    for row in &rows {
        let scopes = Scopes {
            row,
            parent: env.scopes,
        };
        let inner = env.with_row(&scopes);
        key_scratch.clear();
        for k in keys {
            key_scratch.push(eval(k, &inner, rt)?);
        }
        let gi = match group_of.get(key_scratch.as_slice()) {
            Some(&gi) => gi,
            None => {
                let gi = groups.len();
                group_of.insert(key_scratch.clone(), gi);
                groups.push((key_scratch.clone(), aggs.iter().map(AggAcc::new).collect()));
                gi
            }
        };
        for (acc, spec) in groups[gi].1.iter_mut().zip(aggs) {
            let v = match &spec.arg {
                Some(e) => Some(eval(e, &inner, rt)?),
                None => None,
            };
            acc.update(v)?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(AggAcc::finish));
            key
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Sorting

/// Compare two rows under the given keys (keys pre-evaluated per row).
pub fn cmp_key_vectors(a: &[Value], b: &[Value], keys: &[SortKey]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (i, k) in keys.iter().enumerate() {
        let (x, y) = (&a[i], &b[i]);
        let ord = match (x.is_null(), y.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = x.total_cmp(y);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sort_rows(
    rows: Vec<Row>,
    keys: &[SortKey],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    // Evaluate all sort keys first (they may contain subqueries, random()...).
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let scopes = Scopes {
            row: &row,
            parent: env.scopes,
        };
        let inner = env.with_row(&scopes);
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(eval(&k.expr, &inner, rt)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| cmp_key_vectors(ka, kb, keys));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

fn eval_opt_count(
    e: Option<&ExprIr>,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Option<usize>> {
    match e {
        None => Ok(None),
        Some(e) => {
            let v = eval(e, env, rt)?;
            if v.is_null() {
                return Ok(None);
            }
            let n = v.as_int()?;
            if n < 0 {
                return Err(Error::exec("LIMIT/OFFSET must not be negative"));
            }
            Ok(Some(n as usize))
        }
    }
}

// ---------------------------------------------------------------------------
// Set operations

fn exec_setop(op: SetOp, all: bool, left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    use std::collections::hash_map::Entry;
    match op {
        SetOp::Union => {
            let mut out = left;
            out.extend(right);
            if all {
                out
            } else {
                let mut seen = std::collections::HashSet::with_capacity(out.len());
                out.into_iter().filter(|r| seen.insert(r.clone())).collect()
            }
        }
        SetOp::Intersect => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for r in right {
                *counts.entry(r).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            let mut emitted: std::collections::HashSet<Row> = std::collections::HashSet::new();
            for r in left {
                match counts.entry(r.clone()) {
                    Entry::Occupied(mut e) if *e.get() > 0 => {
                        if all {
                            *e.get_mut() -= 1;
                            out.push(r);
                        } else if emitted.insert(r.clone()) {
                            out.push(r);
                        }
                    }
                    _ => {}
                }
            }
            out
        }
        SetOp::Except => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for r in &right {
                *counts.entry(r.clone()).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            let mut emitted: std::collections::HashSet<Row> = std::collections::HashSet::new();
            for r in left {
                let blocked = match counts.get_mut(&r) {
                    Some(c) if *c > 0 => {
                        if all {
                            *c -= 1;
                            true
                        } else {
                            true
                        }
                    }
                    _ => false,
                };
                if !blocked && (all || emitted.insert(r.clone())) {
                    out.push(r);
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// CTEs (incl. the paper's WITH RECURSIVE / WITH ITERATE machinery)

/// A shadowed CTE binding: `(index, previous materialization, previous
/// working table)`, restored when the enclosing `WITH` scope exits.
type SavedCteBinding = (usize, Option<Arc<Vec<Row>>>, Option<Arc<Vec<Row>>>);

fn exec_with(
    ctes: &[CtePlan],
    body: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    // Save shadowed entries so recursive re-entry (e.g. through a UDF that
    // runs the same prepared plan) is safe.
    let mut saved: Vec<SavedCteBinding> = Vec::new();
    let result = (|| -> Result<Vec<Row>> {
        for cte in ctes {
            let index = cte.index();
            saved.push((
                index,
                rt.ctes.get(&index).cloned(),
                rt.working.get(&index).cloned(),
            ));
            match cte {
                CtePlan::Plain { plan, .. } => {
                    let rows = exec(plan, env, rt)?;
                    rt.ctes.insert(index, Arc::new(rows));
                }
                CtePlan::Recursive {
                    base,
                    recursive,
                    mode,
                    union_all,
                    tier,
                    ..
                } => {
                    let rows = exec_recursive_cte(
                        index,
                        base,
                        recursive,
                        *mode,
                        *union_all,
                        tier.as_deref(),
                        env,
                        rt,
                    )?;
                    rt.ctes.insert(index, Arc::new(rows));
                }
            }
        }
        if let Some(result) = exec_cte_body_fused(ctes, body, env, rt) {
            return result;
        }
        exec(body, env, rt)
    })();
    // Restore shadowed entries (in reverse, though indexes are unique here).
    for (index, cte_prev, work_prev) in saved.into_iter().rev() {
        match cte_prev {
            Some(v) => {
                rt.ctes.insert(index, v);
            }
            None => {
                rt.ctes.remove(&index);
            }
        }
        match work_prev {
            Some(v) => {
                rt.working.insert(index, v);
            }
            None => {
                rt.working.remove(&index);
            }
        }
    }
    result
}

/// Consume a `WITH` body of the compiled outer-query shape —
/// `Project(Filter(CteScan))` over a CTE this `WITH` just materialized —
/// in one pass over *owned* rows. The generic path clones every surviving
/// CTE row and then projects out of the clone; for a batch-trampoline
/// result that means copying the full working-table layout of 10⁵+ retired
/// activations just to keep two columns. Here the freshly built `Arc` is
/// unwrapped (nothing else holds it yet) and filter + projection run over
/// each row by value.
///
/// Returns `None` when the shape does not match (or the Arc is shared, e.g.
/// a re-entrant plan) — the caller falls back to `exec(body)`.
fn exec_cte_body_fused(
    ctes: &[CtePlan],
    body: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Option<Result<Vec<Row>>> {
    let PlanNode::Project { input, exprs } = body else {
        return None;
    };
    let PlanNode::Filter { input: f_in, pred } = input.as_ref() else {
        return None;
    };
    let PlanNode::CteScan { index } = f_in.as_ref() else {
        return None;
    };
    if !ctes.iter().any(|c| c.index() == *index) {
        return None;
    }
    // The filter predicate or projections could re-read the CTE through a
    // nested sub-plan; those still need the materialized entry in the map.
    let scan = |p: &PlanNode| matches!(p, PlanNode::CteScan { index: i } if i == index);
    if expr_reads(pred, &scan) || exprs.iter().any(|e| expr_reads(e, &scan)) {
        return None;
    }
    let arc = rt.ctes.remove(index)?;
    let rows = match Arc::try_unwrap(arc) {
        Ok(rows) => rows,
        Err(shared) => {
            rt.ctes.insert(*index, shared);
            return None;
        }
    };
    // Same direct slot test as the Filter-over-CteScan fast path in `exec`:
    // the compiled outer predicate is a (negated) boolean column.
    let slot_test: Option<(usize, bool)> = match pred {
        ExprIr::Slot { depth: 0, index } => Some((*index, true)),
        ExprIr::Not(inner) => match inner.as_ref() {
            ExprIr::Slot { depth: 0, index } => Some((*index, false)),
            _ => None,
        },
        _ => None,
    };
    let run = |rt: &mut Runtime<'_>| -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let keep = match slot_test {
                Some((i, want)) => match row.get(i) {
                    Some(Value::Bool(b)) => *b == want,
                    Some(Value::Null) => false,
                    Some(other) if !want => {
                        return Err(Error::exec(format!(
                            "expected boolean, got {}",
                            other.type_of()
                        )))
                    }
                    _ => false,
                },
                None => {
                    let scopes = Scopes {
                        row: &row,
                        parent: env.scopes,
                    };
                    eval(pred, &env.with_row(&scopes), rt)?.is_true()
                }
            };
            if !keep {
                continue;
            }
            let scopes = Scopes {
                row: &row,
                parent: env.scopes,
            };
            let inner = env.with_row(&scopes);
            let mut proj = Vec::with_capacity(exprs.len());
            for e in exprs {
                proj.push(eval(e, &inner, rt)?);
            }
            out.push(proj);
        }
        Ok(out)
    };
    Some(run(rt))
}

/// One stage of a fused fixpoint pipeline (borrowed from the recursive plan).
enum Step<'p> {
    Filter(&'p ExprIr),
    Extend(&'p [ExprIr]),
    Project(&'p [ExprIr]),
    Unpack { src: usize, width: usize },
}

/// Try to decompose the recursive arm into a row-at-a-time pipeline over the
/// working table of `index`. The PL/SQL compiler's fixpoint arms are always
/// `Project/Unpack ∘ Filter ∘ Extend ∘ WorkingScan`; running that shape
/// directly lets the driver hand each working row through by value — no
/// working-table map insert, no `Arc` churn, no per-iteration row clones.
fn pipeline_steps(plan: &PlanNode, index: usize) -> Option<Vec<Step<'_>>> {
    let mut steps = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            PlanNode::Filter { input, pred } => {
                steps.push(Step::Filter(pred));
                cur = input;
            }
            PlanNode::Extend { input, exprs } => {
                steps.push(Step::Extend(exprs));
                cur = input;
            }
            PlanNode::Project { input, exprs } => {
                steps.push(Step::Project(exprs));
                cur = input;
            }
            PlanNode::ProjectUnpack { input, src, width } => {
                steps.push(Step::Unpack {
                    src: *src,
                    width: *width,
                });
                cur = input;
            }
            PlanNode::WorkingScan { index: i } if *i == index => break,
            _ => return None,
        }
    }
    steps.reverse();
    // A self-reference nested in a sub-query (rare, but legal) still needs
    // the working table materialized in the runtime map — fall back.
    for step in &steps {
        let exprs: &[ExprIr] = match step {
            Step::Filter(e) => std::slice::from_ref(*e),
            Step::Extend(es) | Step::Project(es) => es,
            Step::Unpack { .. } => &[],
        };
        if exprs.iter().any(|e| expr_uses_working(e, index)) {
            return None;
        }
    }
    Some(steps)
}

/// Does the expression, through a plan nested anywhere inside it (the
/// tree fallbacks of compiled programs included), hold a plan node `hit`
/// picks out — say, a scan of one CTE or of one working table?
pub(crate) fn expr_reads(e: &ExprIr, hit: &impl Fn(&PlanNode) -> bool) -> bool {
    fn plan_reads(p: &PlanNode, hit: &impl Fn(&PlanNode) -> bool) -> bool {
        let mut found = hit(p);
        p.for_each_child(&mut |c| found = found || plan_reads(c, hit));
        p.for_each_expr(&mut |e| found = found || expr_reads(e, hit));
        found
    }
    let mut found = false;
    e.for_each_plan(&mut |p| found = found || plan_reads(p, hit));
    e.for_each_child(&mut |c| found = found || expr_reads(c, hit));
    found
}

/// Does the expression read the working table of the given CTE index?
pub(crate) fn expr_uses_working(e: &ExprIr, index: usize) -> bool {
    expr_reads(
        e,
        &|p| matches!(p, PlanNode::WorkingScan { index: i } if *i == index),
    )
}

/// Fully fused fixpoint transition: `Extend([body]) → Filter(pred) →
/// Unpack{src,width}` with the body run in splat mode ([`crate::vm`]) —
/// each iteration's new row values are computed on the VM stack and moved
/// into the working row, with no record allocation and no per-column clone.
struct Transition<'p> {
    prog: crate::vm::ExprProgram,
    pred: &'p ExprIr,
    /// When the predicate is a bare depth-0 column read (the `call?` flag of
    /// Figure 8), test it directly instead of calling the evaluator.
    pred_slot: Option<usize>,
    src: usize,
    width: usize,
}

fn try_transition<'p>(steps: &[Step<'p>]) -> Option<Transition<'p>> {
    let [Step::Extend(exprs), Step::Filter(pred), Step::Unpack { src, width }] = steps else {
        return None;
    };
    let [body] = exprs else {
        return None;
    };
    // width 1 would make "one splatted value" and "one record to unpack"
    // indistinguishable; compiled fixpoints are always wider.
    if *width < 2 || !pred_reads_below(pred, *src) {
        return None;
    }
    let base_prog = match body {
        ExprIr::Vm(p) => (**p).clone(),
        tree => crate::vm::compile(tree),
    };
    let pred_slot = match pred {
        ExprIr::Slot { depth: 0, index } => Some(*index),
        _ => None,
    };
    Some(Transition {
        prog: crate::vm::splat_transform(base_prog, *width),
        pred,
        pred_slot,
        src: *src,
        width: *width,
    })
}

/// Does the predicate only read row columns below `limit` (plus outer
/// scopes and parameters)? Sub-plans and UDFs are rejected — they could
/// reach the appended column indirectly.
pub(crate) fn pred_reads_below(e: &ExprIr, limit: usize) -> bool {
    match e {
        ExprIr::Slot { depth, index } => *depth > 0 || *index < limit,
        ExprIr::UdfCall { .. }
        | ExprIr::Subplan(_)
        | ExprIr::Exists { .. }
        | ExprIr::InPlan { .. }
        | ExprIr::Materialize { .. }
        | ExprIr::SnapshotFn { .. }
        | ExprIr::Vm(_) => false,
        _ => e.all_children(|c| pred_reads_below(c, limit)),
    }
}

/// Run one working row through the fused transition, updating it in place.
/// Returns `false` when the filter drops the row.
fn run_transition_row(
    t: &Transition<'_>,
    row: &mut Row,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<bool> {
    let base = rt.vm_stack.len();
    // Body first (matching Extend-then-Filter evaluation order), values
    // parked on the VM stack; the row's own columns stay untouched.
    let produced = {
        let scopes = Scopes {
            row,
            parent: env.scopes,
        };
        crate::vm::run_splat(&t.prog, &env.with_row(&scopes), rt)?
    };
    let keep = match t.pred_slot {
        Some(i) => Ok(row[i].is_true()),
        None => {
            let scopes = Scopes {
                row,
                parent: env.scopes,
            };
            eval(t.pred, &env.with_row(&scopes), rt).map(|v| v.is_true())
        }
    };
    let keep = match keep {
        Ok(v) => v,
        Err(e) => {
            rt.vm_stack.truncate(base);
            return Err(e);
        }
    };
    if !keep {
        rt.vm_stack.truncate(base);
        return Ok(false);
    }
    if produced == t.width {
        row.clear();
        row.extend(rt.vm_stack.drain(base..));
    } else {
        debug_assert_eq!(produced, 1);
        let v = rt.vm_stack.pop().unwrap();
        let rec = take_record(v, t.width)?;
        row.clear();
        row.extend(rec.iter().take(t.width).cloned());
    }
    rt.stats.fused_transition_rows += 1;
    Ok(true)
}

/// Push one working row through the pipeline. `None` when a filter drops it.
fn run_pipeline_row(
    steps: &[Step<'_>],
    mut row: Row,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Option<Row>> {
    for step in steps {
        match step {
            Step::Filter(pred) => {
                let scopes = Scopes {
                    row: &row,
                    parent: env.scopes,
                };
                if !eval(pred, &env.with_row(&scopes), rt)?.is_true() {
                    return Ok(None);
                }
            }
            Step::Extend(exprs) => {
                row.reserve(exprs.len());
                for e in *exprs {
                    let scopes = Scopes {
                        row: &row,
                        parent: env.scopes,
                    };
                    let v = eval(e, &env.with_row(&scopes), rt)?;
                    row.push(v);
                }
            }
            Step::Project(exprs) => {
                let proj = {
                    let scopes = Scopes {
                        row: &row,
                        parent: env.scopes,
                    };
                    let inner = env.with_row(&scopes);
                    let mut proj = Vec::with_capacity(exprs.len());
                    for e in *exprs {
                        proj.push(eval(e, &inner, rt)?);
                    }
                    proj
                };
                row = proj;
            }
            Step::Unpack { src, width } => unpack_row(&mut row, *src, *width)?,
        }
    }
    Ok(Some(row))
}

fn iteration_limit_error(mode: RecursionMode, limit: u64) -> Error {
    Error::exec(format!(
        "{} CTE exceeded {} iterations (possible infinite recursion)",
        match mode {
            RecursionMode::Accumulate => "recursive",
            RecursionMode::IterateOnly => "iterative",
            RecursionMode::Retire => "retiring",
        },
        limit
    ))
}

/// Start one fixpoint iteration over `working` rows: the iteration limit
/// and the working-set high-water mark, for the VM loop and the mono tier
/// alike. `iters` only ever counts iterations that ran.
pub(crate) fn begin_iteration(
    iters: &mut u64,
    peak: &mut usize,
    limit: u64,
    mode: RecursionMode,
    working: usize,
) -> Result<()> {
    if *iters >= limit {
        return Err(iteration_limit_error(mode, limit));
    }
    *iters += 1;
    *peak = (*peak).max(working);
    Ok(())
}

/// What a fixpoint keeps: the one place the recursion modes differ. The VM
/// loop and the mono tier ([`crate::tier::run_mono`]) both hand every
/// iteration to it.
pub(crate) enum Keep {
    /// `WITH RECURSIVE`: the seed and every iteration's rows, appended to an
    /// accounting tuplestore (PostgreSQL's algorithm).
    Trace(Tuplestore),
    /// `WITH ITERATE`: the last non-empty working table.
    Last(Vec<Row>),
    /// `WITH RETIRE`: no trace, and a working row that fails the recursive
    /// arm's filter is *retired* into the result instead of being
    /// discarded. The batch trampoline leans on this: one in-flight
    /// activation per input row, all driven by one fixpoint, each leaving
    /// the working set the moment its own iteration count is up.
    Retired(Vec<Row>),
}

/// How the recursive arm turns one working table into the next; chosen once
/// per fixpoint from the arm's shape.
enum RowPath<'p> {
    /// Row at a time, by value: through the fused transition when the arm
    /// has one and the row has its width, else through the step pipeline.
    /// No working-table map insert and no `Arc` churn.
    Rows {
        steps: Vec<Step<'p>>,
        trans: Option<Transition<'p>>,
    },
    /// Any other arm (joins, sub-query self-references): executed once per
    /// iteration over the working table, published under the CTE's index.
    /// The `Arc` is recycled while it is the sole owner.
    Exec(Arc<Vec<Row>>),
}

#[allow(clippy::too_many_arguments)]
fn exec_recursive_cte(
    index: usize,
    base: &PlanNode,
    recursive: &PlanNode,
    mode: RecursionMode,
    union_all: bool,
    tier: Option<&crate::tier::TierProgram>,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    let mut working = exec(base, env, rt)?;
    let mut seen: std::collections::HashSet<Row> = std::collections::HashSet::new();
    if !union_all {
        working.retain(|r| seen.insert(r.clone()));
    }
    let mut path = match pipeline_steps(recursive, index) {
        Some(steps) => RowPath::Rows {
            trans: try_transition(&steps),
            steps,
        },
        None if mode == RecursionMode::Retire => {
            return Err(Error::exec(
                "WITH RETIRE requires a pipeline-shaped recursive arm \
                 (a single scan of the working table; joins and sub-query \
                 self-references cannot retire individual rows)",
            ));
        }
        None => RowPath::Exec(Arc::default()),
    };
    let mut keep = match mode {
        RecursionMode::Accumulate => {
            let mut store = Tuplestore::new(rt.config.work_mem_bytes);
            store.extend(working.iter().cloned());
            Keep::Trace(store)
        }
        RecursionMode::IterateOnly => Keep::Last(Vec::new()),
        RecursionMode::Retire => Keep::Retired(Vec::new()),
    };
    let limit = rt.config.max_recursive_iterations;
    let mut iters: u64 = 0;
    // Working-set high-water mark, reported by EXPLAIN ANALYZE (and folded
    // into the batch counters for Retire).
    let mut peak: usize = working.len();
    // Tier gate: owns the VM→mono promotion decision for this execution.
    // The catalog reference is copied out so the gate's borrows stay
    // disjoint from the runtime's mutable state.
    let catalog = rt.catalog;
    let mut gate = crate::tier::TierGate::new(tier, rt.config, catalog);
    let mut next: Vec<Row> = Vec::new();

    let outcome = (|| -> Result<()> {
        loop {
            // The fixpoint may already be drained (the threshold can be
            // crossed on the very pass the VM emptied the set); promoting
            // then would run mono over nothing and, for ITERATE, clobber
            // the surviving iteration.
            if working.is_empty() {
                return Ok(());
            }
            gate.try_promote(env, iters, rt.stats);
            if let Some((prog, bound)) = gate.mono() {
                let mut cx = crate::tier::MonoCx {
                    iters: &mut iters,
                    peak: &mut peak,
                    limit,
                    mode,
                    stats: rt.stats,
                };
                match crate::tier::run_mono(prog, bound, &mut cx, &mut working, &mut keep)? {
                    crate::tier::MonoOutcome::Finished => return Ok(()),
                    crate::tier::MonoOutcome::Demoted => {
                        rt.stats.tier.tier_demotions += 1;
                        gate.demote();
                    }
                }
            }
            begin_iteration(&mut iters, &mut peak, limit, mode, working.len())?;
            match (&mut path, &mut keep) {
                (RowPath::Rows { steps, trans }, Keep::Retired(retired)) => {
                    for mut row in working.drain(..) {
                        match trans {
                            Some(t) if row.len() == t.src => {
                                // Test the `call?` flag before running the
                                // body: finished activations retire without
                                // paying one more transition evaluation.
                                if let Some(i) = t.pred_slot {
                                    if !row[i].is_true() {
                                        retired.push(row);
                                        continue;
                                    }
                                }
                                if run_transition_row(t, &mut row, env, rt)? {
                                    // Retire a just-finished activation now
                                    // rather than re-scanning it next pass:
                                    // with a slot predicate, "fails the filter
                                    // next iteration" is visible the moment
                                    // the transition writes the flag. (Under
                                    // plain UNION the row must still pass
                                    // through the dedup set first.)
                                    match t.pred_slot {
                                        Some(i) if union_all && !row[i].is_true() => {
                                            retired.push(row)
                                        }
                                        _ => next.push(row),
                                    }
                                } else {
                                    retired.push(row);
                                }
                            }
                            _ => {
                                // General pipeline: the retirement rule is on
                                // the *input* row — the activation as it last
                                // left the working set, not a half-transformed
                                // intermediate.
                                let orig = row.clone();
                                match run_pipeline_row(steps, row, env, rt)? {
                                    Some(out) => next.push(out),
                                    None => retired.push(orig),
                                }
                            }
                        }
                    }
                }
                (RowPath::Rows { steps, trans }, keep) => {
                    // ITERATE keeps this iteration's input, which the
                    // rows below consume.
                    if let Keep::Last(last) = keep {
                        last.clone_from(&working);
                    }
                    for mut row in working.drain(..) {
                        match trans {
                            Some(t) if row.len() == t.src => {
                                if run_transition_row(t, &mut row, env, rt)? {
                                    next.push(row);
                                }
                            }
                            _ => {
                                if let Some(out) = run_pipeline_row(steps, row, env, rt)? {
                                    next.push(out);
                                }
                            }
                        }
                    }
                }
                (RowPath::Exec(slot), keep) => {
                    match Arc::get_mut(slot) {
                        Some(buf) => {
                            buf.clear();
                            buf.append(&mut working);
                        }
                        None => *slot = Arc::new(std::mem::take(&mut working)),
                    }
                    rt.working.insert(index, Arc::clone(slot));
                    let exec_result = exec(recursive, env, rt);
                    rt.working.remove(&index);
                    next = exec_result?;
                    // ITERATE keeps this iteration's input: take it back.
                    if let Keep::Last(last) = keep {
                        std::mem::swap(last, Arc::make_mut(slot));
                    }
                }
            }
            if !union_all {
                next.retain(|r| seen.insert(r.clone()));
            }
            if let Keep::Trace(store) = &mut keep {
                store.extend(next.iter().cloned());
            }
            std::mem::swap(&mut working, &mut next);
            gate.tick();
        }
    })();
    // The one exit: iterations, batch counters and tuplestore pages are
    // accounted whether the fixpoint finished or failed.
    rt.stats.recursive_iterations += iters;
    let result = match keep {
        Keep::Trace(store) => store.finish(rt.buffers),
        Keep::Last(last) => last,
        Keep::Retired(retired) => {
            let batch = &mut rt.stats.batch;
            batch.batch_rows_in_flight = batch.batch_rows_in_flight.max(peak as u64);
            batch.batch_rows_retired += retired.len() as u64;
            retired
        }
    };
    outcome?;
    if let Some(state) = rt.analyze.as_deref_mut() {
        let retired = match mode {
            RecursionMode::Retire => result.len() as u64,
            _ => 0,
        };
        state.record_fixpoint(
            index,
            mode_label(mode),
            iters,
            peak as u64,
            retired,
            gate.label(),
            gate.promoted_at(),
        );
    }
    Ok(result)
}

fn mode_label(mode: RecursionMode) -> &'static str {
    match mode {
        RecursionMode::Accumulate => "recursive",
        RecursionMode::IterateOnly => "iterate",
        RecursionMode::Retire => "retire",
    }
}
