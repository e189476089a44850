//! Compiled expression IR and physical plan nodes.
//!
//! The planner translates the SQL AST into these types once per prepared
//! statement; execution then never touches names again. Column references
//! become [`ExprIr::Slot`] — `(depth, index)` into the runtime scope stack,
//! where depth 0 is the row of the node evaluating the expression and outer
//! depths are pushed by LATERAL joins and correlated subqueries. This mirrors
//! PostgreSQL's Var nodes with `varlevelsup`.

use std::sync::Arc;

use plaway_common::{Type, Value};
use plaway_sql::ast::{BinOp, JoinKind, SetOp};

/// Compiled scalar expression.
#[derive(Debug, Clone)]
pub enum ExprIr {
    Const(Value),
    /// Scope-stack reference: `depth` levels up, column `index`.
    Slot {
        depth: usize,
        index: usize,
    },
    /// Prepared-statement parameter (PL/pgSQL variable or UDF argument).
    Param(usize),
    Neg(Box<ExprIr>),
    Not(Box<ExprIr>),
    Binary {
        op: BinOp,
        left: Box<ExprIr>,
        right: Box<ExprIr>,
    },
    IsNull {
        expr: Box<ExprIr>,
        negated: bool,
    },
    Between {
        expr: Box<ExprIr>,
        low: Box<ExprIr>,
        high: Box<ExprIr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<ExprIr>>,
        branches: Vec<(ExprIr, ExprIr)>,
        else_: Option<Box<ExprIr>>,
    },
    /// Lazily evaluated COALESCE (first non-NULL argument).
    Coalesce(Vec<ExprIr>),
    /// Built-in scalar function (fixed at plan time).
    Scalar {
        func: ScalarFn,
        args: Vec<ExprIr>,
    },
    /// SQL-language UDF call, resolved to its body plan at runtime through
    /// the session's function-plan cache (this indirection is what permits
    /// recursive UDFs).
    UdfCall {
        name: String,
        args: Vec<ExprIr>,
    },
    /// Scalar subquery: must yield at most one row, one column.
    Subplan(Arc<PlanNode>),
    /// Materialize-once cursor source (`materialize(<subquery>)`): evaluate
    /// the plan exactly once, register the full row set in the runtime's
    /// execution-scoped [`crate::tuplestore::SnapshotStore`], and yield the
    /// integer snapshot handle. The compiled `FOR rec IN <query>` loop binds
    /// this at loop entry and addresses rows positionally afterwards —
    /// turning the trampoline's row loop from O(n²) re-scans into O(n).
    /// Never pure, never memoized: the handle names execution-local state.
    Materialize {
        plan: Arc<PlanNode>,
    },
    /// Snapshot accessor (`snapshot_rows` / `fetch_row` / `snapshot_release`)
    /// over a handle produced by [`ExprIr::Materialize`]. Kept apart from
    /// [`ScalarFn`] because evaluation needs the runtime's snapshot store,
    /// not just argument values.
    SnapshotFn {
        op: SnapshotOp,
        args: Vec<ExprIr>,
    },
    Exists {
        plan: Arc<PlanNode>,
    },
    InList {
        expr: Box<ExprIr>,
        list: Vec<ExprIr>,
        negated: bool,
    },
    InPlan {
        expr: Box<ExprIr>,
        plan: Arc<PlanNode>,
        negated: bool,
    },
    Like {
        expr: Box<ExprIr>,
        pattern: Box<ExprIr>,
        negated: bool,
    },
    Row(Vec<ExprIr>),
    Cast {
        expr: Box<ExprIr>,
        ty: Type,
    },
    /// Pre-compiled flat program (see [`crate::vm`]): built once per prepared
    /// plan by the planner's pre-compilation pass, evaluated on a reusable
    /// value stack instead of walking the tree per row.
    Vm(Arc<crate::vm::ExprProgram>),
}

impl ExprIr {
    pub fn slot(index: usize) -> ExprIr {
        ExprIr::Slot { depth: 0, index }
    }

    /// Is this expression free of subplans, UDF calls and `random()`?
    /// Such expressions are safe to evaluate on the PL/pgSQL fast path and
    /// safe for the dead-code eliminator to discard.
    pub fn is_pure_scalar(&self) -> bool {
        match self {
            ExprIr::UdfCall { .. }
            | ExprIr::Subplan(_)
            | ExprIr::Exists { .. }
            | ExprIr::InPlan { .. }
            | ExprIr::Materialize { .. }
            | ExprIr::SnapshotFn { .. } => false,
            ExprIr::Scalar { func, .. } if func.is_volatile() => false,
            ExprIr::Vm(prog) => prog.is_pure(),
            _ => self.all_children(ExprIr::is_pure_scalar),
        }
    }

    /// Does `pred` hold for every direct operand?
    pub(crate) fn all_children(&self, mut pred: impl FnMut(&ExprIr) -> bool) -> bool {
        let mut all = true;
        self.for_each_child(&mut |c| all = all && pred(c));
        all
    }

    /// Call `f` on each direct operand, left to right. The fallback trees
    /// of a [`ExprIr::Vm`] program are its operands. Plans are not; see
    /// `for_each_plan`.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn for_each_child(&self, f: &mut impl FnMut(&ExprIr)) {
        match self {
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Subplan(_)
            | ExprIr::Materialize { .. }
            | ExprIr::Exists { .. } => {}
            ExprIr::Neg(x)
            | ExprIr::Not(x)
            | ExprIr::IsNull { expr: x, .. }
            | ExprIr::Cast { expr: x, .. }
            | ExprIr::InPlan { expr: x, .. } => f(x),
            ExprIr::Binary { left, right, .. }
            | ExprIr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            ExprIr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_.iter().for_each(|e| f(e));
            }
            ExprIr::Coalesce(args)
            | ExprIr::Row(args)
            | ExprIr::Scalar { args, .. }
            | ExprIr::UdfCall { args, .. }
            | ExprIr::SnapshotFn { args, .. } => args.iter().for_each(f),
            ExprIr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            ExprIr::Vm(prog) => prog.fallback_trees().iter().for_each(f),
        }
    }

    /// [`ExprIr::for_each_child`] over mutable operands. A
    /// [`ExprIr::Vm`] program is shared and immutable: it has none here.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub(crate) fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut ExprIr)) {
        match self {
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Subplan(_)
            | ExprIr::Materialize { .. }
            | ExprIr::Exists { .. }
            | ExprIr::Vm(_) => {}
            ExprIr::Neg(x)
            | ExprIr::Not(x)
            | ExprIr::IsNull { expr: x, .. }
            | ExprIr::Cast { expr: x, .. }
            | ExprIr::InPlan { expr: x, .. } => f(x),
            ExprIr::Binary { left, right, .. }
            | ExprIr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            ExprIr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                operand.iter_mut().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_.iter_mut().for_each(|e| f(e));
            }
            ExprIr::Coalesce(args)
            | ExprIr::Row(args)
            | ExprIr::Scalar { args, .. }
            | ExprIr::UdfCall { args, .. }
            | ExprIr::SnapshotFn { args, .. } => args.iter_mut().for_each(f),
            ExprIr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
        }
    }

    /// Call `f` on the plan this node holds, if any: a scalar, `EXISTS`,
    /// `IN` or materialized subquery. Plans inside a [`ExprIr::Vm`]
    /// program's fallback trees are reached through
    /// [`ExprIr::for_each_child`].
    #[deny(clippy::wildcard_enum_match_arm)]
    pub(crate) fn for_each_plan(&self, f: &mut impl FnMut(&PlanNode)) {
        match self {
            ExprIr::Subplan(plan)
            | ExprIr::Exists { plan }
            | ExprIr::Materialize { plan }
            | ExprIr::InPlan { plan, .. } => f(plan),
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Neg(_)
            | ExprIr::Not(_)
            | ExprIr::Binary { .. }
            | ExprIr::IsNull { .. }
            | ExprIr::Between { .. }
            | ExprIr::Case { .. }
            | ExprIr::Coalesce(_)
            | ExprIr::Scalar { .. }
            | ExprIr::UdfCall { .. }
            | ExprIr::SnapshotFn { .. }
            | ExprIr::InList { .. }
            | ExprIr::Like { .. }
            | ExprIr::Row(_)
            | ExprIr::Cast { .. }
            | ExprIr::Vm(_) => {}
        }
    }

    /// [`ExprIr::for_each_plan`] with the shared plan handle, mutable.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub(crate) fn for_each_plan_mut(&mut self, f: &mut impl FnMut(&mut Arc<PlanNode>)) {
        match self {
            ExprIr::Subplan(plan)
            | ExprIr::Exists { plan }
            | ExprIr::Materialize { plan }
            | ExprIr::InPlan { plan, .. } => f(plan),
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Neg(_)
            | ExprIr::Not(_)
            | ExprIr::Binary { .. }
            | ExprIr::IsNull { .. }
            | ExprIr::Between { .. }
            | ExprIr::Case { .. }
            | ExprIr::Coalesce(_)
            | ExprIr::Scalar { .. }
            | ExprIr::UdfCall { .. }
            | ExprIr::SnapshotFn { .. }
            | ExprIr::InList { .. }
            | ExprIr::Like { .. }
            | ExprIr::Row(_)
            | ExprIr::Cast { .. }
            | ExprIr::Vm(_) => {}
        }
    }
}

/// Operations over registered row snapshots (see [`ExprIr::SnapshotFn`]).
/// All three are volatile by construction: they read or mutate the
/// execution's snapshot store, so folding, hoisting, memoization and
/// dead-code elimination must leave them alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotOp {
    /// `snapshot_rows(handle)` — row count of the snapshot.
    Rows,
    /// `fetch_row(handle, pos)` — row `pos` (1-based) as a record value;
    /// `fetch_row(handle, pos, field)` — field `field` (1-based) of that row
    /// directly, skipping the intermediate record allocation.
    Fetch,
    /// `snapshot_release(handle)` — drop the snapshot, recycle its slot,
    /// yield NULL. Double release is an executor error (compiler bug).
    Release,
}

impl SnapshotOp {
    /// Resolve a snapshot accessor by SQL function name.
    pub fn from_name(name: &str) -> Option<SnapshotOp> {
        Some(match name {
            "snapshot_rows" => SnapshotOp::Rows,
            "fetch_row" => SnapshotOp::Fetch,
            "snapshot_release" => SnapshotOp::Release,
            _ => return None,
        })
    }

    /// Accepted argument counts.
    pub fn arity_ok(self, argc: usize) -> bool {
        match self {
            SnapshotOp::Rows | SnapshotOp::Release => argc == 1,
            SnapshotOp::Fetch => argc == 2 || argc == 3,
        }
    }

    /// The SQL-visible function name.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotOp::Rows => "snapshot_rows",
            SnapshotOp::Fetch => "fetch_row",
            SnapshotOp::Release => "snapshot_release",
        }
    }
}

/// Built-in scalar functions. Dispatch is a plain enum match — no dynamic
/// lookup at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Abs,
    Sign,
    Floor,
    Ceil,
    Round,
    Trunc,
    Sqrt,
    Power,
    Exp,
    Ln,
    Mod,
    Random,
    Length,
    Lower,
    Upper,
    Substr,
    Concat,
    Replace,
    Trim,
    Ltrim,
    Rtrim,
    Strpos,
    LeftStr,
    RightStr,
    Repeat,
    Reverse,
    Chr,
    Ascii,
    Nullif,
    Greatest,
    Least,
    /// Engine extension: positional field access into a record value,
    /// `row_field(rec, i)` (1-based) — used by the packed-arguments CTE
    /// layout the paper's Figure 8 template implies.
    RowField,
    /// Engine extension: `raise_error(condition, message)` aborts the query
    /// with a catchable [`plaway_common::Error::Raised`]. The compiler emits
    /// it for PL/pgSQL conditions that escape every `EXCEPTION` handler, so
    /// an uncaught `RAISE EXCEPTION` behaves identically under
    /// interpretation and under the compiled trampoline. Volatile: never
    /// constant-folded, hoisted or eliminated.
    RaiseError,
}

impl ScalarFn {
    /// Resolve a function name; returns `None` for names that are not
    /// built-ins (candidate UDF calls).
    pub fn from_name(name: &str) -> Option<ScalarFn> {
        Some(match name {
            "abs" => ScalarFn::Abs,
            "sign" => ScalarFn::Sign,
            "floor" => ScalarFn::Floor,
            "ceil" | "ceiling" => ScalarFn::Ceil,
            "round" => ScalarFn::Round,
            "trunc" => ScalarFn::Trunc,
            "sqrt" => ScalarFn::Sqrt,
            "power" | "pow" => ScalarFn::Power,
            "exp" => ScalarFn::Exp,
            "ln" => ScalarFn::Ln,
            "mod" => ScalarFn::Mod,
            "random" => ScalarFn::Random,
            "length" | "char_length" => ScalarFn::Length,
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "substr" | "substring" => ScalarFn::Substr,
            "concat" => ScalarFn::Concat,
            "replace" => ScalarFn::Replace,
            "trim" | "btrim" => ScalarFn::Trim,
            "ltrim" => ScalarFn::Ltrim,
            "rtrim" => ScalarFn::Rtrim,
            "strpos" | "position" => ScalarFn::Strpos,
            "left" => ScalarFn::LeftStr,
            "right" => ScalarFn::RightStr,
            "repeat" => ScalarFn::Repeat,
            "reverse" => ScalarFn::Reverse,
            "chr" => ScalarFn::Chr,
            "ascii" => ScalarFn::Ascii,
            "nullif" => ScalarFn::Nullif,
            "greatest" => ScalarFn::Greatest,
            "least" => ScalarFn::Least,
            "row_field" => ScalarFn::RowField,
            "raise_error" => ScalarFn::RaiseError,
            _ => return None,
        })
    }

    /// Volatile functions must be re-evaluated at every call site: they are
    /// excluded from constant folding, memoization and dead-code elimination.
    pub fn is_volatile(self) -> bool {
        matches!(self, ScalarFn::Random | ScalarFn::RaiseError)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
    BoolAnd,
    BoolOr,
}

impl AggFn {
    pub fn from_name(name: &str) -> Option<AggFn> {
        Some(match name {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "avg" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "bool_and" | "every" => AggFn::BoolAnd,
            "bool_or" => AggFn::BoolOr,
            _ => return None,
        })
    }
}

/// Window functions: either an aggregate over a frame, or a rank-family
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinFn {
    Agg(AggFn),
    RowNumber,
    Rank,
    DenseRank,
    Lag,
    Lead,
    FirstValue,
    LastValue,
}

impl WinFn {
    pub fn from_name(name: &str) -> Option<WinFn> {
        Some(match name {
            "row_number" => WinFn::RowNumber,
            "rank" => WinFn::Rank,
            "dense_rank" => WinFn::DenseRank,
            "lag" => WinFn::Lag,
            "lead" => WinFn::Lead,
            "first_value" => WinFn::FirstValue,
            "last_value" => WinFn::LastValue,
            other => WinFn::Agg(AggFn::from_name(other)?),
        })
    }
}

/// One aggregate in an [`PlanNode::Agg`] node.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFn,
    /// `None` for `COUNT(*)`.
    pub arg: Option<ExprIr>,
    pub distinct: bool,
}

/// Sort key, already compiled.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: ExprIr,
    pub desc: bool,
    /// Resolved (PostgreSQL default applied at plan time).
    pub nulls_first: bool,
}

/// Compiled window frame.
#[derive(Debug, Clone)]
pub struct FrameIr {
    pub units: plaway_sql::ast::FrameUnits,
    pub start: plaway_sql::ast::FrameBound,
    pub end: plaway_sql::ast::FrameBound,
    pub exclude_current_row: bool,
}

/// One window expression computed by a [`PlanNode::WindowAgg`].
#[derive(Debug, Clone)]
pub struct WindowExprIr {
    pub func: WinFn,
    pub args: Vec<ExprIr>,
    pub partition_by: Vec<ExprIr>,
    pub order_by: Vec<SortKey>,
    pub frame: Option<FrameIr>,
}

/// How a recursive CTE accumulates rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecursionMode {
    /// `WITH RECURSIVE`: the union of all iterations survives (a trace of
    /// the whole call history — the paper's §3 complaint).
    Accumulate,
    /// `WITH ITERATE` (Passing et al.): only the final iteration survives;
    /// nothing accumulates, nothing spills.
    IterateOnly,
    /// `WITH RETIRE`: no trace either, but a working row that fails the
    /// recursive arm's filter is *retired* into the final result instead of
    /// being dropped. One fixpoint drives a whole batch of activations,
    /// each finishing on its own iteration.
    Retire,
}

/// A planned common table expression.
#[derive(Debug, Clone)]
pub enum CtePlan {
    /// Materialized once before the body runs.
    Plain { index: usize, plan: PlanNode },
    /// Fixpoint evaluation: `base UNION [ALL] recursive`.
    Recursive {
        index: usize,
        base: PlanNode,
        recursive: PlanNode,
        mode: RecursionMode,
        /// `UNION ALL` (true) vs deduplicating `UNION` (false).
        union_all: bool,
        /// Monomorphized transition compiled by [`crate::tier::recognize`]
        /// during plan pre-compilation (`None` when the shape is outside
        /// the tier grammar or `tier_mode` is `ForceOff`). `Arc`-shared so
        /// plan-cache clones accumulate hotness in one counter.
        tier: Option<Arc<crate::tier::TierProgram>>,
    },
}

impl CtePlan {
    pub fn index(&self) -> usize {
        match self {
            CtePlan::Plain { index, .. } | CtePlan::Recursive { index, .. } => *index,
        }
    }
}

/// Physical plan operators. Execution materializes each node's full output
/// (rows are small; the paper's workloads iterate, they don't build big
/// intermediate relations).
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Full scan of a base table.
    SeqScan {
        table: String,
    },
    /// Index point lookup: rows of `table` where `column = key`. Served by
    /// either index kind; rows come back in heap order, matching the
    /// filtered seq scan it replaces byte-for-byte.
    IndexLookup {
        table: String,
        column: usize,
        key: ExprIr,
    },
    /// Ordered-index range scan: rows of `table` where `column` lies between
    /// the bounds (`bool` = inclusive). At least one bound is present; rows
    /// come back in heap order (bitmap-scan style), matching the filtered
    /// seq scan it replaces byte-for-byte.
    IndexRange {
        table: String,
        column: usize,
        lo: Option<(ExprIr, bool)>,
        hi: Option<(ExprIr, bool)>,
    },
    /// Literal rows.
    Values {
        rows: Vec<Vec<ExprIr>>,
    },
    /// Table-less one-row SELECT (`SELECT 1 + 2`).
    Result {
        exprs: Vec<ExprIr>,
    },
    Filter {
        input: Box<PlanNode>,
        pred: ExprIr,
    },
    Project {
        input: Box<PlanNode>,
        exprs: Vec<ExprIr>,
    },
    /// Fused record-unpacking projection: each output row is the first
    /// `width` fields of the record in column `src` of the input row.
    /// Replaces the `SELECT row_field(x, 1), ..., row_field(x, n)` shape the
    /// PL/SQL compiler's recursive arm emits (Figure 8's row decoding),
    /// avoiding one slot lookup + function dispatch + record clone per
    /// column per iteration.
    ProjectUnpack {
        input: Box<PlanNode>,
        src: usize,
        width: usize,
    },
    /// Fused LATERAL let-chain: for each input row, evaluate `exprs` left to
    /// right, each seeing the row extended so far (depth 0). Replaces the
    /// `LEFT JOIN LATERAL (SELECT e) ...` chains the PL/SQL compiler emits,
    /// avoiding per-level row rebuilding.
    Extend {
        input: Box<PlanNode>,
        exprs: Vec<ExprIr>,
    },
    /// Nested-loop join. With `lateral`, the right side is re-executed per
    /// left row with the left row pushed onto the scope stack.
    NestLoop {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        lateral: bool,
        on: Option<ExprIr>,
        /// Width of the right side, needed to pad NULLs for LEFT joins.
        right_width: usize,
    },
    /// Grouped or scalar aggregation. Output: group keys then aggregates.
    Agg {
        input: Box<PlanNode>,
        keys: Vec<ExprIr>,
        aggs: Vec<AggSpec>,
        /// No GROUP BY: always exactly one output row.
        scalar: bool,
    },
    /// Appends one column per window expression to each input row.
    WindowAgg {
        input: Box<PlanNode>,
        windows: Vec<WindowExprIr>,
    },
    Sort {
        input: Box<PlanNode>,
        keys: Vec<SortKey>,
    },
    Distinct {
        input: Box<PlanNode>,
    },
    Limit {
        input: Box<PlanNode>,
        limit: Option<ExprIr>,
        offset: Option<ExprIr>,
    },
    /// UNION ALL of independently planned inputs.
    Append {
        inputs: Vec<PlanNode>,
    },
    /// Deduplicating / bag set operations other than UNION ALL.
    SetOpNode {
        op: SetOp,
        all: bool,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// CTE scope: materialize/iterate each CTE, then run the body.
    With {
        ctes: Vec<CtePlan>,
        body: Box<PlanNode>,
    },
    /// Scan of a materialized CTE result.
    CteScan {
        index: usize,
    },
    /// Scan of the recursive working table (inside a recursive arm).
    WorkingScan {
        index: usize,
    },
}

impl PlanNode {
    /// Count plan nodes — a proxy for "plan size" used in instrumentation
    /// assertions and EXPLAIN-style output.
    pub fn node_count(&self) -> usize {
        let mut n = 1;
        self.for_each_child(&mut |c| n += c.node_count());
        n
    }

    pub(crate) fn for_each_child(&self, f: &mut impl FnMut(&PlanNode)) {
        match self {
            PlanNode::SeqScan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::IndexRange { .. }
            | PlanNode::Values { .. }
            | PlanNode::Result { .. }
            | PlanNode::CteScan { .. }
            | PlanNode::WorkingScan { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::ProjectUnpack { input, .. }
            | PlanNode::Extend { input, .. }
            | PlanNode::Agg { input, .. }
            | PlanNode::WindowAgg { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => f(input),
            PlanNode::NestLoop { left, right, .. } => {
                f(left);
                f(right);
            }
            PlanNode::Append { inputs } => {
                for i in inputs {
                    f(i);
                }
            }
            PlanNode::SetOpNode { left, right, .. } => {
                f(left);
                f(right);
            }
            PlanNode::With { ctes, body } => {
                for c in ctes {
                    match c {
                        CtePlan::Plain { plan, .. } => f(plan),
                        CtePlan::Recursive {
                            base, recursive, ..
                        } => {
                            f(base);
                            f(recursive);
                        }
                    }
                }
                f(body);
            }
        }
    }

    /// Visit the expressions held directly by this node (not by children).
    pub(crate) fn for_each_expr(&self, f: &mut impl FnMut(&ExprIr)) {
        match self {
            PlanNode::SeqScan { .. }
            | PlanNode::ProjectUnpack { .. }
            | PlanNode::Distinct { .. }
            | PlanNode::Append { .. }
            | PlanNode::SetOpNode { .. }
            | PlanNode::CteScan { .. }
            | PlanNode::WorkingScan { .. } => {}
            PlanNode::IndexLookup { key, .. } => f(key),
            PlanNode::IndexRange { lo, hi, .. } => {
                for (e, _) in lo.iter().chain(hi.iter()) {
                    f(e);
                }
            }
            PlanNode::Values { rows } => {
                for row in rows {
                    for e in row {
                        f(e);
                    }
                }
            }
            PlanNode::Result { exprs }
            | PlanNode::Project { exprs, .. }
            | PlanNode::Extend { exprs, .. } => {
                for e in exprs {
                    f(e);
                }
            }
            PlanNode::Filter { pred, .. } => f(pred),
            PlanNode::NestLoop { on, .. } => {
                if let Some(e) = on {
                    f(e);
                }
            }
            PlanNode::Agg { keys, aggs, .. } => {
                for k in keys {
                    f(k);
                }
                for a in aggs {
                    if let Some(e) = &a.arg {
                        f(e);
                    }
                }
            }
            PlanNode::WindowAgg { windows, .. } => {
                for w in windows {
                    for e in &w.args {
                        f(e);
                    }
                    for e in &w.partition_by {
                        f(e);
                    }
                    for k in &w.order_by {
                        f(&k.expr);
                    }
                }
            }
            PlanNode::Sort { keys, .. } => {
                for k in keys {
                    f(&k.expr);
                }
            }
            PlanNode::Limit { limit, offset, .. } => {
                if let Some(e) = limit {
                    f(e);
                }
                if let Some(e) = offset {
                    f(e);
                }
            }
            PlanNode::With { .. } => {}
        }
    }

    /// One-line operator name for EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::SeqScan { .. } => "SeqScan",
            PlanNode::IndexLookup { .. } => "IndexLookup",
            PlanNode::IndexRange { .. } => "IndexRange",
            PlanNode::Values { .. } => "Values",
            PlanNode::Result { .. } => "Result",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Project { .. } => "Project",
            PlanNode::ProjectUnpack { .. } => "ProjectUnpack",
            PlanNode::Extend { .. } => "Extend",
            PlanNode::NestLoop { .. } => "NestLoop",
            PlanNode::Agg { .. } => "Aggregate",
            PlanNode::WindowAgg { .. } => "WindowAgg",
            PlanNode::Sort { .. } => "Sort",
            PlanNode::Distinct { .. } => "Distinct",
            PlanNode::Limit { .. } => "Limit",
            PlanNode::Append { .. } => "Append",
            PlanNode::SetOpNode { .. } => "SetOp",
            PlanNode::With { .. } => "With",
            PlanNode::CteScan { .. } => "CteScan",
            PlanNode::WorkingScan { .. } => "WorkingScan",
        }
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// One-line per-node EXPLAIN header (no indentation, no newline).
    /// Shared between the plain [`PlanNode::explain`] rendering and the
    /// EXPLAIN ANALYZE renderer, so the two stay byte-identical per node.
    pub fn explain_line(&self) -> String {
        match self {
            PlanNode::SeqScan { table } => format!("SeqScan on {table}"),
            PlanNode::IndexLookup { table, column, .. } => {
                format!("IndexLookup on {table} (col #{column})")
            }
            PlanNode::IndexRange {
                table,
                column,
                lo,
                hi,
            } => {
                let mut bounds = Vec::new();
                if let Some((_, incl)) = lo {
                    bounds.push(if *incl { ">= ?" } else { "> ?" });
                }
                if let Some((_, incl)) = hi {
                    bounds.push(if *incl { "<= ?" } else { "< ?" });
                }
                format!(
                    "IndexRange on {table} (col #{column} {})",
                    bounds.join(" AND ")
                )
            }
            PlanNode::NestLoop { kind, lateral, .. } => {
                format!(
                    "NestLoop {:?}{}",
                    kind,
                    if *lateral { " LATERAL" } else { "" }
                )
            }
            PlanNode::With { ctes, .. } => {
                let kinds: Vec<&str> = ctes
                    .iter()
                    .map(|c| match c {
                        CtePlan::Plain { .. } => "plain",
                        CtePlan::Recursive {
                            mode: RecursionMode::Accumulate,
                            ..
                        } => "recursive",
                        CtePlan::Recursive {
                            mode: RecursionMode::IterateOnly,
                            ..
                        } => "iterate",
                        CtePlan::Recursive {
                            mode: RecursionMode::Retire,
                            ..
                        } => "retire",
                    })
                    .collect();
                format!("With [{}]", kinds.join(", "))
            }
            other => other.op_name().to_string(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", self.explain_line());
        self.for_each_child(&mut |c| c.explain_into(out, depth + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fn_name_resolution() {
        assert_eq!(ScalarFn::from_name("abs"), Some(ScalarFn::Abs));
        assert_eq!(ScalarFn::from_name("ceiling"), Some(ScalarFn::Ceil));
        assert_eq!(ScalarFn::from_name("no_such_fn"), None);
    }

    #[test]
    fn win_fn_covers_aggregates() {
        assert_eq!(WinFn::from_name("sum"), Some(WinFn::Agg(AggFn::Sum)));
        assert_eq!(WinFn::from_name("row_number"), Some(WinFn::RowNumber));
        assert_eq!(WinFn::from_name("nope"), None);
    }

    #[test]
    fn purity_classification() {
        let pure = ExprIr::Binary {
            op: BinOp::Add,
            left: Box::new(ExprIr::slot(0)),
            right: Box::new(ExprIr::Const(Value::Int(1))),
        };
        assert!(pure.is_pure_scalar());
        let random = ExprIr::Scalar {
            func: ScalarFn::Random,
            args: vec![],
        };
        assert!(!random.is_pure_scalar());
        let udf = ExprIr::UdfCall {
            name: "f".into(),
            args: vec![],
        };
        assert!(!udf.is_pure_scalar());
    }

    /// One of every `ExprIr` variant, each operand a distinct constant
    /// marker and each plan a distinct table scan, with the markers and
    /// tables it holds.
    fn every_variant() -> Vec<(ExprIr, Vec<i64>, Vec<&'static str>)> {
        let m = |i: i64| ExprIr::Const(Value::Int(i));
        let b = |i: i64| Box::new(m(i));
        let plan = |t: &str| Arc::new(PlanNode::SeqScan { table: t.into() });
        let all = vec![
            (ExprIr::Const(Value::Int(0)), vec![], vec![]),
            (ExprIr::Slot { depth: 0, index: 0 }, vec![], vec![]),
            (ExprIr::Param(0), vec![], vec![]),
            (ExprIr::Neg(b(1)), vec![1], vec![]),
            (ExprIr::Not(b(1)), vec![1], vec![]),
            (
                ExprIr::Binary {
                    op: BinOp::Add,
                    left: b(1),
                    right: b(2),
                },
                vec![1, 2],
                vec![],
            ),
            (
                ExprIr::IsNull {
                    expr: b(1),
                    negated: false,
                },
                vec![1],
                vec![],
            ),
            (
                ExprIr::Between {
                    expr: b(1),
                    low: b(2),
                    high: b(3),
                    negated: false,
                },
                vec![1, 2, 3],
                vec![],
            ),
            (
                ExprIr::Case {
                    operand: Some(b(1)),
                    branches: vec![(m(2), m(3)), (m(4), m(5))],
                    else_: Some(b(6)),
                },
                vec![1, 2, 3, 4, 5, 6],
                vec![],
            ),
            (ExprIr::Coalesce(vec![m(1), m(2)]), vec![1, 2], vec![]),
            (
                ExprIr::Scalar {
                    func: ScalarFn::Abs,
                    args: vec![m(1), m(2)],
                },
                vec![1, 2],
                vec![],
            ),
            (
                ExprIr::UdfCall {
                    name: "f".into(),
                    args: vec![m(1), m(2)],
                },
                vec![1, 2],
                vec![],
            ),
            (ExprIr::Subplan(plan("p")), vec![], vec!["p"]),
            (ExprIr::Materialize { plan: plan("p") }, vec![], vec!["p"]),
            (
                ExprIr::SnapshotFn {
                    op: SnapshotOp::Fetch,
                    args: vec![m(1), m(2)],
                },
                vec![1, 2],
                vec![],
            ),
            (ExprIr::Exists { plan: plan("p") }, vec![], vec!["p"]),
            (
                ExprIr::InList {
                    expr: b(1),
                    list: vec![m(2), m(3)],
                    negated: false,
                },
                vec![1, 2, 3],
                vec![],
            ),
            (
                ExprIr::InPlan {
                    expr: b(1),
                    plan: plan("p"),
                    negated: false,
                },
                vec![1],
                vec!["p"],
            ),
            (
                ExprIr::Like {
                    expr: b(1),
                    pattern: b(2),
                    negated: false,
                },
                vec![1, 2],
                vec![],
            ),
            (ExprIr::Row(vec![m(1), m(2)]), vec![1, 2], vec![]),
            (
                ExprIr::Cast {
                    expr: b(1),
                    ty: Type::Int,
                },
                vec![1],
                vec![],
            ),
            // A compiled program's operands are its tree fallbacks.
            (
                ExprIr::Vm(Arc::new(crate::vm::compile(&ExprIr::Binary {
                    op: BinOp::Add,
                    left: Box::new(ExprIr::Subplan(plan("p"))),
                    right: b(1),
                }))),
                vec![],
                vec![],
            ),
        ];
        // Listing every variant here keeps the table complete.
        #[deny(clippy::wildcard_enum_match_arm)]
        fn listed(e: &ExprIr) {
            match e {
                ExprIr::Const(_)
                | ExprIr::Slot { .. }
                | ExprIr::Param(_)
                | ExprIr::Neg(_)
                | ExprIr::Not(_)
                | ExprIr::Binary { .. }
                | ExprIr::IsNull { .. }
                | ExprIr::Between { .. }
                | ExprIr::Case { .. }
                | ExprIr::Coalesce(_)
                | ExprIr::Scalar { .. }
                | ExprIr::UdfCall { .. }
                | ExprIr::Subplan(_)
                | ExprIr::Materialize { .. }
                | ExprIr::SnapshotFn { .. }
                | ExprIr::Exists { .. }
                | ExprIr::InList { .. }
                | ExprIr::InPlan { .. }
                | ExprIr::Like { .. }
                | ExprIr::Row(_)
                | ExprIr::Cast { .. }
                | ExprIr::Vm(_) => {}
            }
        }
        all.iter().for_each(|(e, _, _)| listed(e));
        all
    }

    fn markers(e: &ExprIr) -> Vec<i64> {
        let mut seen = Vec::new();
        e.for_each_child(&mut |c| match c {
            ExprIr::Const(Value::Int(i)) => seen.push(*i),
            other => panic!("unexpected operand {other:?}"),
        });
        seen
    }

    #[test]
    fn visitors_reach_every_operand_of_every_variant() {
        for (mut e, operands, plans) in every_variant() {
            let mut seen_plans = Vec::new();
            e.for_each_plan(&mut |p| match p {
                PlanNode::SeqScan { table } => seen_plans.push(table.clone()),
                other => panic!("unexpected plan {other:?}"),
            });
            assert_eq!(seen_plans, plans, "{e:?}");
            if let ExprIr::Vm(prog) = &e {
                // The fallback tree is the sub-plan; the `+ 1` runs on the VM.
                let mut trees = 0;
                e.for_each_child(&mut |c| {
                    assert!(matches!(c, ExprIr::Subplan(_)), "{c:?}");
                    trees += 1;
                });
                assert_eq!(trees, prog.fallback_trees().len());
                assert!(trees > 0);
                continue;
            }
            assert_eq!(markers(&e), operands, "{e:?}");
            // The mutable twins reach the same operands and plans.
            let mut seen = Vec::new();
            e.for_each_child_mut(&mut |c| {
                if let ExprIr::Const(Value::Int(i)) = c {
                    seen.push(*i);
                    *c = ExprIr::Const(Value::Int(*i * 10));
                }
            });
            assert_eq!(seen, operands, "{e:?}");
            let tens: Vec<i64> = operands.iter().map(|i| i * 10).collect();
            assert_eq!(markers(&e), tens, "{e:?}");
            let mut n_plans = 0;
            e.for_each_plan_mut(&mut |_| n_plans += 1);
            assert_eq!(n_plans, plans.len(), "{e:?}");
        }
    }

    #[test]
    fn node_count_and_explain() {
        let plan = PlanNode::Project {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::SeqScan { table: "t".into() }),
                pred: ExprIr::Const(Value::Bool(true)),
            }),
            exprs: vec![ExprIr::slot(0)],
        };
        assert_eq!(plan.node_count(), 3);
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("SeqScan on t"));
    }
}
