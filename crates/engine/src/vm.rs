//! Flat expression programs: the compiled path's answer to per-row
//! tree-walking.
//!
//! The tree evaluator in [`crate::exec`] re-dispatches on every [`ExprIr`]
//! node for every row of every fixpoint iteration — exactly the per-iteration
//! interpretive overhead the paper compiles away at the PL/SQL level, paid
//! again one layer down. This module lowers an `ExprIr` tree *once per
//! prepared plan* into a flat postfix [`ExprProgram`] executed on a reusable
//! value stack:
//!
//! * no recursion and no per-node `match` over 20 variants — one linear op
//!   array with absolute jumps,
//! * short-circuiting constructs (`AND`/`OR`/`CASE`/`COALESCE`/`IN`) become
//!   jump instructions, preserving three-valued-logic evaluation order
//!   bit-for-bit (including which sub-expressions are *not* evaluated),
//! * sub-plans and UDF calls fall back to the tree evaluator via [`Op::Tree`];
//!   sub-plans that provably reference no outer row, no parameter and no
//!   volatile function are *invariant* within one execution and are memoized
//!   per [`Runtime`] ([`Op::TreeCached`]) — hoisting them out of recursive-CTE
//!   fixpoint loops.
//!
//! [`precompile_plan`] walks a freshly planned tree and replaces every
//! expression whose program is large enough to profit (or that contains a
//! cacheable sub-plan) with [`ExprIr::Vm`].

use std::sync::Arc;

use plaway_common::{Error, Result, Type, Value};
use plaway_sql::ast::BinOp;

use crate::exec::{and3, apply_bin, eval, eval_snapshot_op, EvalEnv, Runtime};
use crate::functions::{eval_scalar, like_match};
use crate::ir::{CtePlan, ExprIr, PlanNode, ScalarFn, SnapshotOp};

/// A directly addressable operand: resolved inline by superinstructions so
/// common leaf reads never pay a separate dispatch + stack round-trip.
#[derive(Debug, Clone)]
pub enum Operand {
    Const(Value),
    /// Scope-stack slot (`depth` levels up, column `index`).
    Slot {
        depth: u32,
        index: u32,
    },
    /// Program-stack cell at `base + offset`: a flattened let binding.
    Stack(u32),
    /// Statement parameter.
    Param(u32),
}

/// One instruction of a flat expression program. Operands are evaluated
/// left-to-right onto the value stack; jump targets are absolute op indexes.
#[derive(Debug, Clone)]
pub enum Op {
    /// Push one operand.
    Push(Operand),
    /// Push a run of operands (one dispatch for consecutive leaf pushes).
    PushN(Box<[Operand]>),
    PushNull,
    Neg,
    Not,
    IsNull {
        negated: bool,
    },
    /// Binary operator over two stacked values (fallback form).
    Bin(BinOp),
    /// Binary operator with both operands addressed directly.
    Bin2 {
        op: BinOp,
        l: Operand,
        r: Operand,
    },
    /// Binary operator: left on the stack, right addressed directly.
    BinMix {
        op: BinOp,
        r: Operand,
    },
    /// Fused compare-and-branch: jump unless `l op r` is `true` (NULL and
    /// `false` both jump — the `CASE WHEN`/filter rule).
    CmpNotJump {
        op: BinOp,
        l: Operand,
        r: Operand,
        target: u32,
    },
    /// `AND`: left value is on top. `false` short-circuits (jump), anything
    /// else stays for [`Op::AndCombine`] after the right operand runs.
    AndProbe(u32),
    AndCombine,
    /// `OR`: `true` short-circuits.
    OrProbe(u32),
    OrCombine,
    /// Pop high, low, expr (in that order) and push the BETWEEN verdict.
    Between {
        negated: bool,
    },
    Like {
        negated: bool,
    },
    /// Pop `n` values and push them as one record.
    Row(u32),
    Cast(Type),
    /// Pop `argc` values (left at the stack tail, passed as a slice).
    Scalar {
        func: ScalarFn,
        argc: u32,
    },
    /// Pop `argc` values and apply a snapshot accessor (row-loop cursor
    /// reads). A dedicated op — not [`Op::Tree`] — so the per-iteration
    /// `fetch_row` of a compiled row loop stays inside flattened let-chain
    /// frames instead of forcing the whole chain back to the tree evaluator.
    Snapshot {
        op: SnapshotOp,
        argc: u32,
    },
    /// Fused field-direct fetch — `fetch_row(handle, pos, <const field>)`
    /// with operand-addressed handle and position, the exact shape the
    /// row-loop lowering emits once per used column per iteration. Skips
    /// the push/pop round-trip and the arity dispatch of the generic form:
    /// this op *is* the compiled loop's inner-row read, so it is as hot as
    /// the trampoline gets.
    FetchField {
        handle: Operand,
        pos: Operand,
        /// 0-based field index (the SQL surface is 1-based).
        field: u32,
    },
    Jump(u32),
    /// Pop the condition; jump unless it is `true`.
    JumpIfNotTrue(u32),
    /// Simple `CASE <operand>`: pop the WHEN value, compare to the operand
    /// left on top of the stack; jump unless SQL-equal.
    CaseCmpJump(u32),
    Pop,
    /// Drop a finished let-chain frame: remove the `drop` stack cells ending
    /// at static offset `below` (relative to the program base), keeping
    /// everything above them. Statically addressed so splat-mode programs
    /// (which leave several values above the frame) collapse correctly too.
    Collapse {
        below: u32,
        drop: u32,
    },
    /// `COALESCE` step: jump if the top is non-NULL, else pop and continue.
    JumpIfNotNull(u32),
    /// `IN`-list step over stack `[.., expr, acc]`: pop the candidate,
    /// fold it into `acc` (three-valued), jump to the finish op on a match.
    InStep(u32),
    /// Pop `acc` and `expr`, push the final `IN` verdict.
    InFinish {
        negated: bool,
    },
    /// Tree-evaluator fallback (sub-plans, UDF calls).
    Tree(u32),
    /// Fallback whose sub-plan is execution-invariant: memoized per runtime.
    TreeCached(u32),
}

/// A compiled expression: flat ops plus the sub-trees that still need the
/// tree evaluator. Built once per prepared plan, shared via `Arc`.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    ops: Vec<Op>,
    trees: Vec<ExprIr>,
    pure: bool,
}

impl ExprProgram {
    /// Mirrors [`ExprIr::is_pure_scalar`] for the source expression.
    pub fn is_pure(&self) -> bool {
        self.pure
    }

    /// Does the program contain tree-evaluator fallbacks (sub-plans, UDFs)?
    pub fn has_tree_fallback(&self) -> bool {
        !self.trees.is_empty()
    }

    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The sub-trees still evaluated by the tree walker (for plan analyses
    /// that need to see through compiled programs).
    pub fn fallback_trees(&self) -> &[ExprIr] {
        &self.trees
    }
}

// ---------------------------------------------------------------------------
// Compilation

struct Compiler {
    ops: Vec<Op>,
    trees: Vec<ExprIr>,
    /// Statically tracked runtime stack depth (relative to the program base)
    /// at the current emission point. Exact by stack discipline: every
    /// `emit` nets +1, all merge points agree.
    depth: usize,
    /// Bases of active flattened let-chain frames, innermost last.
    frames: Vec<usize>,
}

impl Compiler {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn placeholder(&mut self) -> usize {
        self.ops.push(Op::Jump(u32::MAX));
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, op: Op) {
        self.ops[at] = op;
    }

    /// Resolve a scope-stack reference against the active let-chain frames:
    /// depths inside flattened chains address frame cells, deeper depths
    /// shift down to the real scope stack.
    fn resolve_slot(&self, depth: usize, index: usize) -> Operand {
        if depth < self.frames.len() {
            let base = self.frames[self.frames.len() - 1 - depth];
            Operand::Stack((base + index) as u32)
        } else {
            Operand::Slot {
                depth: (depth - self.frames.len()) as u32,
                index: index as u32,
            }
        }
    }

    /// Leaf expressions addressable directly by superinstructions.
    fn as_operand(&self, e: &ExprIr) -> Option<Operand> {
        match e {
            ExprIr::Const(v) => Some(Operand::Const(v.clone())),
            ExprIr::Slot { depth, index } => Some(self.resolve_slot(*depth, *index)),
            ExprIr::Param(i) => Some(Operand::Param(*i as u32)),
            _ => None,
        }
    }

    fn emit_push(&mut self, o: Operand) {
        self.ops.push(Op::Push(o));
        self.depth += 1;
    }

    /// Emit `items` so each leaves one value, batching consecutive
    /// operand-addressable items into a single [`Op::PushN`].
    fn emit_values(&mut self, items: &[ExprIr]) {
        let mut run: Vec<Operand> = Vec::new();
        for e in items {
            if let Some(o) = self.as_operand(e) {
                run.push(o);
                continue;
            }
            self.flush_run(&mut run);
            self.emit(e);
        }
        self.flush_run(&mut run);
    }

    fn flush_run(&mut self, run: &mut Vec<Operand>) {
        match run.len() {
            0 => {}
            1 => self.emit_push(run.pop().unwrap()),
            n => {
                self.ops
                    .push(Op::PushN(std::mem::take(run).into_boxed_slice()));
                self.depth += n;
            }
        }
    }

    fn emit_tree(&mut self, e: &ExprIr) {
        let i = self.trees.len() as u32;
        let cacheable = match e {
            ExprIr::Subplan(p) => plan_free_scopes(p) == Some(0),
            ExprIr::Exists { plan } => plan_free_scopes(plan) == Some(0),
            _ => false,
        };
        self.trees.push(e.clone());
        self.ops.push(if cacheable {
            Op::TreeCached(i)
        } else {
            Op::Tree(i)
        });
        self.depth += 1;
    }

    /// Emit a condition followed by "jump unless true", fusing simple
    /// comparisons into one [`Op::CmpNotJump`]. Returns the placeholder
    /// index to patch with the target.
    fn emit_cond_not_jump(&mut self, cond: &ExprIr) -> usize {
        if let ExprIr::Binary { op, left, right } = cond {
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) {
                if let (Some(l), Some(r)) = (self.as_operand(left), self.as_operand(right)) {
                    let at = self.ops.len();
                    self.ops.push(Op::CmpNotJump {
                        op: *op,
                        l,
                        r,
                        target: u32::MAX,
                    });
                    return at;
                }
            }
        }
        self.emit(cond);
        self.depth -= 1;
        let at = self.ops.len();
        self.ops.push(Op::JumpIfNotTrue(u32::MAX));
        at
    }

    fn patch_cond(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::CmpNotJump { target: t, .. } => *t = target,
            Op::JumpIfNotTrue(t) => *t = target,
            other => unreachable!("patch_cond on {other:?}"),
        }
    }

    /// Emit one expression; leaves exactly one value on the stack (+1 depth).
    fn emit(&mut self, e: &ExprIr) {
        let entry = self.depth;
        match e {
            ExprIr::Const(_) | ExprIr::Slot { .. } | ExprIr::Param(_) => {
                let o = self.as_operand(e).unwrap();
                self.emit_push(o);
            }
            ExprIr::Neg(x) => {
                self.emit(x);
                self.ops.push(Op::Neg);
            }
            ExprIr::Not(x) => {
                self.emit(x);
                self.ops.push(Op::Not);
            }
            ExprIr::Binary { op, left, right } => match op {
                BinOp::And => {
                    self.emit(left);
                    let probe = self.placeholder();
                    self.emit(right);
                    self.ops.push(Op::AndCombine);
                    let end = self.here();
                    self.patch(probe, Op::AndProbe(end));
                    self.depth = entry + 1;
                }
                BinOp::Or => {
                    self.emit(left);
                    let probe = self.placeholder();
                    self.emit(right);
                    self.ops.push(Op::OrCombine);
                    let end = self.here();
                    self.patch(probe, Op::OrProbe(end));
                    self.depth = entry + 1;
                }
                other => match (self.as_operand(left), self.as_operand(right)) {
                    (Some(l), Some(r)) => {
                        self.ops.push(Op::Bin2 { op: *other, l, r });
                        self.depth += 1;
                    }
                    (None, Some(r)) => {
                        self.emit(left);
                        self.ops.push(Op::BinMix { op: *other, r });
                    }
                    (l_op, _) => {
                        // Preserve left-then-right evaluation order.
                        match l_op {
                            Some(l) => self.emit_push(l),
                            None => self.emit(left),
                        }
                        self.emit(right);
                        self.ops.push(Op::Bin(*other));
                        self.depth -= 1;
                    }
                },
            },
            ExprIr::IsNull { expr, negated } => {
                self.emit(expr);
                self.ops.push(Op::IsNull { negated: *negated });
            }
            ExprIr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.emit(expr);
                self.emit(low);
                self.emit(high);
                self.ops.push(Op::Between { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                let has_operand = operand.is_some();
                if let Some(o) = operand {
                    self.emit(o);
                }
                let branch_entry = self.depth;
                let mut end_jumps = Vec::with_capacity(branches.len());
                for (when, then) in branches {
                    self.depth = branch_entry;
                    let miss = if has_operand {
                        self.emit(when);
                        self.depth -= 1;
                        let at = self.ops.len();
                        self.ops.push(Op::CaseCmpJump(u32::MAX));
                        at
                    } else {
                        self.emit_cond_not_jump(when)
                    };
                    if has_operand {
                        self.ops.push(Op::Pop); // drop the operand
                        self.depth -= 1;
                    }
                    self.emit(then);
                    end_jumps.push(self.placeholder());
                    let next = self.here();
                    if has_operand {
                        self.patch(miss, Op::CaseCmpJump(next));
                    } else {
                        self.patch_cond(miss, next);
                    }
                }
                self.depth = branch_entry;
                if has_operand {
                    self.ops.push(Op::Pop);
                    self.depth -= 1;
                }
                match else_ {
                    Some(e) => self.emit(e),
                    None => {
                        self.ops.push(Op::PushNull);
                        self.depth += 1;
                    }
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch(j, Op::Jump(end));
                }
                self.depth = entry + 1;
            }
            ExprIr::Coalesce(args) => {
                if args.is_empty() {
                    self.ops.push(Op::PushNull);
                    self.depth += 1;
                    return;
                }
                let mut jumps = Vec::with_capacity(args.len() - 1);
                for (i, a) in args.iter().enumerate() {
                    self.depth = entry;
                    self.emit(a);
                    if i + 1 < args.len() {
                        jumps.push(self.placeholder());
                    }
                }
                let end = self.here();
                for j in jumps {
                    self.patch(j, Op::JumpIfNotNull(end));
                }
                self.depth = entry + 1;
            }
            ExprIr::Scalar { func, args } => {
                self.emit_values(args);
                self.ops.push(Op::Scalar {
                    func: *func,
                    argc: args.len() as u32,
                });
                self.depth = entry + 1;
            }
            ExprIr::InList {
                expr,
                list,
                negated,
            } => {
                self.emit(expr);
                self.emit_push(Operand::Const(Value::Bool(false))); // acc
                let mut steps = Vec::with_capacity(list.len());
                for item in list {
                    self.emit(item);
                    self.depth -= 1;
                    let at = self.ops.len();
                    self.ops.push(Op::InStep(u32::MAX));
                    steps.push(at);
                }
                let finish = self.here();
                for s in steps {
                    self.patch(s, Op::InStep(finish));
                }
                self.ops.push(Op::InFinish { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.emit(expr);
                self.emit(pattern);
                self.ops.push(Op::Like { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Row(items) => {
                self.emit_values(items);
                self.ops.push(Op::Row(items.len() as u32));
                self.depth = entry + 1;
            }
            ExprIr::Cast { expr, ty } => {
                self.emit(expr);
                self.ops.push(Op::Cast(ty.clone()));
            }
            // Scalar sub-queries with the compiler's let-chain shape flatten
            // straight into the program; everything else falls back to the
            // tree evaluator.
            ExprIr::Subplan(p) => {
                if !self.try_emit_chain(p) {
                    self.emit_tree(e);
                }
                debug_assert_eq!(self.depth, entry + 1);
            }
            ExprIr::SnapshotFn { op, args } => {
                // Fuse the hot per-iteration shape: field-direct fetch with
                // addressable handle/position and a constant field index.
                if *op == SnapshotOp::Fetch {
                    if let [h, p, ExprIr::Const(Value::Int(field))] = args.as_slice() {
                        if *field >= 1 {
                            if let (Some(handle), Some(pos)) =
                                (self.as_operand(h), self.as_operand(p))
                            {
                                self.ops.push(Op::FetchField {
                                    handle,
                                    pos,
                                    field: (*field - 1) as u32,
                                });
                                self.depth = entry + 1;
                                return;
                            }
                        }
                    }
                }
                self.emit_values(args);
                self.ops.push(Op::Snapshot {
                    op: *op,
                    argc: args.len() as u32,
                });
                self.depth = entry + 1;
            }
            // Materialize holds a full plan that may reference let-chain
            // cells the plan executor cannot see — always a tree fallback
            // (and never cacheable: the handle is execution-local state).
            ExprIr::UdfCall { .. }
            | ExprIr::Exists { .. }
            | ExprIr::InPlan { .. }
            | ExprIr::Materialize { .. }
            | ExprIr::Vm(_) => self.emit_tree(e),
        }
        debug_assert_eq!(self.depth, entry + 1, "emit must net one value: {e:?}");
    }

    /// Flatten a `Project[final] ∘ Extend* ∘ Result` scalar sub-query — the
    /// compiled `let` chain — into the current program: binding values live
    /// in a statically addressed stack frame, evaluation stays eager, and
    /// the sub-plan executor is never entered.
    fn try_emit_chain(&mut self, plan: &PlanNode) -> bool {
        if !chain_flattenable(plan) {
            return false;
        }
        let Some((first, extends, final_expr)) = chain_shape(plan) else {
            return false;
        };
        let base = self.depth;
        // The seed bindings see the enclosing environment (Result semantics:
        // no pushed row), so the new frame is not yet active.
        for e in first {
            self.emit(e);
        }
        self.frames.push(base);
        for group in &extends {
            for e in *group {
                self.emit(e);
            }
        }
        self.emit(final_expr);
        self.frames.pop();
        let drop = (self.depth - base - 1) as u32;
        if drop > 0 {
            self.ops.push(Op::Collapse {
                below: (self.depth - 1) as u32,
                drop,
            });
            self.depth -= drop as usize;
        }
        true
    }
}

/// The decomposed let-chain shape: seed bindings, extension groups
/// (innermost first), and the final projected expression.
type ChainShape<'p> = (&'p [ExprIr], Vec<&'p [ExprIr]>, &'p ExprIr);

/// Match the let-chain plan shape: `Project { [final] }` over zero or more
/// `Extend` over `Result`. Shared with the executor's scalar-chain fast
/// path so both accelerate exactly the same plans.
pub(crate) fn chain_shape(plan: &PlanNode) -> Option<ChainShape<'_>> {
    let PlanNode::Project { input, exprs } = plan else {
        return None;
    };
    let [final_expr] = exprs.as_slice() else {
        return None;
    };
    let mut extends: Vec<&[ExprIr]> = Vec::new();
    let mut cur: &PlanNode = input;
    loop {
        match cur {
            PlanNode::Extend { input, exprs } => {
                extends.push(exprs);
                cur = input;
            }
            PlanNode::Result { exprs } => {
                extends.reverse();
                return Some((exprs, extends, final_expr));
            }
            _ => return None,
        }
    }
}

/// Can this expression be emitted inside a flattened chain frame? Tree
/// fallbacks are out (the tree evaluator cannot see frame cells), except
/// nested sub-queries that flatten themselves.
fn expr_flattenable(e: &ExprIr) -> bool {
    match e {
        ExprIr::Subplan(p) => chain_flattenable(p),
        // Snapshot accessors run as a VM op with operand-addressed args, so
        // they live happily inside a frame; Materialize's plan does not.
        ExprIr::UdfCall { .. }
        | ExprIr::Exists { .. }
        | ExprIr::InPlan { .. }
        | ExprIr::Materialize { .. }
        | ExprIr::Vm(_) => false,
        _ => e.all_children(expr_flattenable),
    }
}

/// Is this plan a let-chain whose expressions can all live inside a
/// flattened frame?
pub(crate) fn chain_flattenable(plan: &PlanNode) -> bool {
    match chain_shape(plan) {
        Some((first, extends, final_expr)) => {
            first.iter().all(expr_flattenable)
                && extends.iter().all(|g| g.iter().all(expr_flattenable))
                && expr_flattenable(final_expr)
        }
        None => false,
    }
}

/// Lower one expression tree into a flat program.
pub fn compile(e: &ExprIr) -> ExprProgram {
    let mut c = Compiler {
        ops: Vec::new(),
        trees: Vec::new(),
        depth: 0,
        frames: Vec::new(),
    };
    c.emit(e);
    ExprProgram {
        ops: c.ops,
        trees: c.trees,
        pure: e.is_pure_scalar(),
    }
}

/// Is a program worth swapping in for the tree it was compiled from?
/// Tiny trees (a slot, a constant comparison) gain nothing; programs with a
/// cacheable sub-plan always win (memoization needs the VM path).
fn worth_swapping(prog: &ExprProgram) -> bool {
    prog.ops.len() >= 4 || prog.ops.iter().any(|op| matches!(op, Op::TreeCached(_)))
}

// ---------------------------------------------------------------------------
// Plan pre-compilation pass

/// Replace profitable expression trees in a freshly planned tree with
/// compiled programs. Runs once per `plan_query`.
pub fn precompile_plan(plan: &mut PlanNode) {
    match plan {
        PlanNode::SeqScan { .. } | PlanNode::CteScan { .. } | PlanNode::WorkingScan { .. } => {}
        PlanNode::IndexLookup { key, .. } => precompile_expr(key),
        PlanNode::IndexRange { lo, hi, .. } => {
            for (e, _) in lo.iter_mut().chain(hi.iter_mut()) {
                precompile_expr(e);
            }
        }
        PlanNode::Values { rows } => {
            for row in rows {
                for e in row {
                    precompile_expr(e);
                }
            }
        }
        PlanNode::Result { exprs } => {
            for e in exprs {
                precompile_expr(e);
            }
        }
        PlanNode::Filter { input, pred } => {
            precompile_plan(input);
            precompile_expr(pred);
        }
        PlanNode::Project { input, exprs } | PlanNode::Extend { input, exprs } => {
            precompile_plan(input);
            for e in exprs {
                precompile_expr(e);
            }
        }
        PlanNode::ProjectUnpack { input, .. } => precompile_plan(input),
        PlanNode::NestLoop {
            left, right, on, ..
        } => {
            precompile_plan(left);
            precompile_plan(right);
            if let Some(e) = on {
                precompile_expr(e);
            }
        }
        PlanNode::Agg {
            input, keys, aggs, ..
        } => {
            precompile_plan(input);
            for k in keys {
                precompile_expr(k);
            }
            for a in aggs {
                if let Some(e) = &mut a.arg {
                    precompile_expr(e);
                }
            }
        }
        PlanNode::WindowAgg { input, windows } => {
            precompile_plan(input);
            for w in windows {
                for e in &mut w.args {
                    precompile_expr(e);
                }
                for e in &mut w.partition_by {
                    precompile_expr(e);
                }
                for k in &mut w.order_by {
                    precompile_expr(&mut k.expr);
                }
            }
        }
        PlanNode::Sort { input, keys } => {
            precompile_plan(input);
            for k in keys {
                precompile_expr(&mut k.expr);
            }
        }
        PlanNode::Distinct { input } => precompile_plan(input),
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            precompile_plan(input);
            if let Some(e) = limit {
                precompile_expr(e);
            }
            if let Some(e) = offset {
                precompile_expr(e);
            }
        }
        PlanNode::Append { inputs } => {
            for i in inputs {
                precompile_plan(i);
            }
        }
        PlanNode::SetOpNode { left, right, .. } => {
            precompile_plan(left);
            precompile_plan(right);
        }
        PlanNode::With { ctes, body } => {
            for c in ctes {
                match c {
                    CtePlan::Plain { plan, .. } => precompile_plan(plan),
                    CtePlan::Recursive {
                        index,
                        base,
                        recursive,
                        union_all,
                        tier,
                        ..
                    } => {
                        precompile_plan(base);
                        // Recognize for the mono tier BEFORE pre-compilation
                        // rewrites the transition's expression trees into VM
                        // programs — the tier compiler reads the trees. The
                        // execution-time gate decides whether it ever runs.
                        *tier = crate::tier::recognize(*index, recursive, *union_all).map(Arc::new);
                        precompile_plan(recursive);
                    }
                }
            }
            precompile_plan(body);
        }
    }
}

fn precompile_expr(e: &mut ExprIr) {
    precompile_nested_plans(e);
    let prog = compile(e);
    if worth_swapping(&prog) {
        *e = ExprIr::Vm(Arc::new(prog));
    }
}

/// Recurse into sub-plans held by an expression so their own expressions are
/// compiled too (the `Arc`s are freshly planned, so `get_mut` succeeds).
fn precompile_nested_plans(e: &mut ExprIr) {
    // Let-chain sub-queries are flattened into the enclosing program by
    // `compile` — pre-compiling their expressions here would wrap them in
    // `Vm` and defeat the flattening.
    if matches!(e, ExprIr::Subplan(p) if chain_flattenable(p)) {
        return;
    }
    e.for_each_child_mut(&mut precompile_nested_plans);
    e.for_each_plan_mut(&mut |p| {
        if let Some(p) = Arc::get_mut(p) {
            precompile_plan(p);
        }
    });
}

// ---------------------------------------------------------------------------
// Invariance analysis (sub-plan hoisting)

/// How many enclosing scopes does this expression reference? `None` when the
/// expression is unsafe to hoist regardless of scope (parameters, volatile
/// functions, UDFs, working/CTE scans).
fn expr_free_scopes(e: &ExprIr) -> Option<usize> {
    match e {
        ExprIr::Slot { depth, .. } => Some(depth + 1),
        ExprIr::Param(_) | ExprIr::UdfCall { .. } => None,
        ExprIr::Scalar { func, .. } if func.is_volatile() => None,
        // Snapshot state is execution-local: a materialize (or any accessor
        // over its handle) must never be hoisted out of the fixpoint loop or
        // memoized across rows — the whole point of the operator is that it
        // runs exactly once *per loop entry*, not once per execution.
        ExprIr::Materialize { .. } | ExprIr::SnapshotFn { .. } => None,
        // Programs are compiled leaf-first, so a nested `Vm` never occurs
        // under analysis; treat conservatively.
        ExprIr::Vm(_) => None,
        _ => {
            let mut m = Some(0);
            e.for_each_child(&mut |c| m = max2(m, expr_free_scopes(c)));
            e.for_each_plan(&mut |p| m = max2(m, plan_free_scopes(p)));
            m
        }
    }
}

fn max2(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    Some(a?.max(b?))
}

/// Free-scope count of a plan: how many scopes of the *enclosing* evaluation
/// environment it can reference. `Some(0)` means the plan is closed — its
/// result depends only on catalog contents, which cannot change within one
/// statement execution.
pub(crate) fn plan_free_scopes(p: &PlanNode) -> Option<usize> {
    /// Contribution of an expression evaluated with one row pushed.
    fn pushed(e: &ExprIr) -> Option<usize> {
        Some(expr_free_scopes(e)?.saturating_sub(1))
    }
    match p {
        PlanNode::SeqScan { .. } => Some(0),
        PlanNode::CteScan { .. } | PlanNode::WorkingScan { .. } => None,
        PlanNode::IndexLookup { key, .. } => expr_free_scopes(key),
        PlanNode::IndexRange { lo, hi, .. } => {
            let mut m = Some(0);
            for (e, _) in lo.iter().chain(hi.iter()) {
                m = max2(m, expr_free_scopes(e));
            }
            m
        }
        PlanNode::Values { rows } => {
            let mut m = Some(0);
            for row in rows {
                for e in row {
                    m = max2(m, expr_free_scopes(e));
                }
            }
            m
        }
        PlanNode::Result { exprs } => {
            let mut m = Some(0);
            for e in exprs {
                m = max2(m, expr_free_scopes(e));
            }
            m
        }
        PlanNode::Filter { input, pred } => max2(plan_free_scopes(input), pushed(pred)),
        PlanNode::Project { input, exprs } | PlanNode::Extend { input, exprs } => {
            let mut m = plan_free_scopes(input);
            for e in exprs {
                m = max2(m, pushed(e));
            }
            m
        }
        PlanNode::ProjectUnpack { input, .. } => plan_free_scopes(input),
        PlanNode::NestLoop {
            left,
            right,
            lateral,
            on,
            ..
        } => {
            let r = if *lateral {
                Some(plan_free_scopes(right)?.saturating_sub(1))
            } else {
                plan_free_scopes(right)
            };
            let mut m = max2(plan_free_scopes(left), r);
            if let Some(e) = on {
                m = max2(m, pushed(e));
            }
            m
        }
        PlanNode::Agg {
            input, keys, aggs, ..
        } => {
            let mut m = plan_free_scopes(input);
            for k in keys {
                m = max2(m, pushed(k));
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    m = max2(m, pushed(e));
                }
            }
            m
        }
        // Window evaluation pushes rows in frame-dependent ways; stay out.
        PlanNode::WindowAgg { .. } => None,
        PlanNode::Sort { input, keys } => {
            let mut m = plan_free_scopes(input);
            for k in keys {
                m = max2(m, pushed(&k.expr));
            }
            m
        }
        PlanNode::Distinct { input } => plan_free_scopes(input),
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            let mut m = plan_free_scopes(input);
            if let Some(e) = limit {
                m = max2(m, expr_free_scopes(e));
            }
            if let Some(e) = offset {
                m = max2(m, expr_free_scopes(e));
            }
            m
        }
        PlanNode::Append { inputs } => {
            let mut m = Some(0);
            for i in inputs {
                m = max2(m, plan_free_scopes(i));
            }
            m
        }
        PlanNode::SetOpNode { left, right, .. } => {
            max2(plan_free_scopes(left), plan_free_scopes(right))
        }
        // `With` introduces CTE bindings its body reads back; the CteScan
        // rejection above already vetoes those, so don't bother refining.
        PlanNode::With { .. } => None,
    }
}

// ---------------------------------------------------------------------------
// Execution

/// Fast path for `int ⊕ int` in the fused binary ops. `None` falls back to
/// [`apply_bin`], which also produces the overflow / division-by-zero
/// errors (so returning `None` on overflow is correct, not just safe).
#[inline(always)]
fn fast_int_bin(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    let (Value::Int(a), Value::Int(b)) = (l, r) else {
        return None;
    };
    Some(match op {
        BinOp::Add => Value::Int(a.checked_add(*b)?),
        BinOp::Sub => Value::Int(a.checked_sub(*b)?),
        BinOp::Mul => Value::Int(a.checked_mul(*b)?),
        BinOp::Mod => {
            if *b == 0 {
                return None;
            }
            Value::Int(a.wrapping_rem(*b))
        }
        BinOp::Eq => Value::Bool(a == b),
        BinOp::NotEq => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::LtEq => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::GtEq => Value::Bool(a >= b),
        _ => return None,
    })
}

/// Resolve a direct operand. `base` is the program's stack base (for
/// flattened let-chain frame cells).
#[inline(always)]
fn operand_value(o: &Operand, base: usize, env: &EvalEnv<'_>, rt: &Runtime<'_>) -> Result<Value> {
    match o {
        Operand::Const(v) => Ok(v.clone()),
        Operand::Slot { depth, index } => {
            let scopes = env
                .scopes
                .ok_or_else(|| Error::exec("no row context for column reference"))?;
            let row = scopes.at_depth(*depth as usize)?;
            row.get(*index as usize)
                .cloned()
                .ok_or_else(|| Error::exec("column slot out of range (planner bug)"))
        }
        Operand::Stack(k) => Ok(rt.vm_stack[base + *k as usize].clone()),
        Operand::Param(i) => env
            .params
            .get(*i as usize)
            .cloned()
            .ok_or_else(|| Error::exec(format!("parameter ${i} not bound"))),
    }
}

/// Run a compiled program. Reentrant: nested programs (through tree
/// fallbacks) share the runtime's stack via a base offset.
pub fn run(prog: &ExprProgram, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    let base = rt.vm_stack.len();
    let result = exec_ops(prog, base, env, rt).map(|()| rt.vm_stack.pop().unwrap());
    rt.vm_stack.truncate(base);
    result
}

/// Run a splat-transformed program (see [`splat_transform`]): terminal
/// `ROW(width)` constructions are elided, so a successful run leaves either
/// `width` values (a splatted row) or a single value on the stack above the
/// entry point. Returns how many values were produced; the caller owns them
/// (and must truncate on its own error paths).
pub(crate) fn run_splat(
    prog: &ExprProgram,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<usize> {
    let base = rt.vm_stack.len();
    match exec_ops(prog, base, env, rt) {
        Ok(()) => Ok(rt.vm_stack.len() - base),
        Err(e) => {
            rt.vm_stack.truncate(base);
            Err(e)
        }
    }
}

/// Is `p` a "terminal" position: does control reaching it run straight to
/// the end of the program (through unconditional jumps and frame collapses)
/// without touching the produced value?
fn terminal_at(ops: &[Op], mut p: usize) -> bool {
    loop {
        if p >= ops.len() {
            return true;
        }
        match &ops[p] {
            Op::Jump(t) => p = *t as usize, // jumps are always forward
            Op::Collapse { .. } => p += 1,
            _ => return false,
        }
    }
}

/// Derive the splat variant of a program: every `Row(width)` whose record
/// would flow unchanged to the program result is elided, leaving its fields
/// on the stack. Frame collapses keep working because they address stack
/// cells statically.
pub(crate) fn splat_transform(mut prog: ExprProgram, width: usize) -> ExprProgram {
    for pc in 0..prog.ops.len() {
        if matches!(prog.ops[pc], Op::Row(n) if n as usize == width)
            && terminal_at(&prog.ops, pc + 1)
        {
            prog.ops[pc] = Op::Jump(pc as u32 + 1);
        }
    }
    // Jump threading: retarget jump-to-jump chains (the elision above and
    // CASE branch ends produce them) so each taken branch dispatches once.
    for pc in 0..prog.ops.len() {
        let retarget = |mut t: u32, ops: &[Op]| {
            while let Some(Op::Jump(t2)) = ops.get(t as usize) {
                if *t2 <= t {
                    break; // only forward chains (loops are impossible anyway)
                }
                t = *t2;
            }
            t
        };
        match &prog.ops[pc] {
            Op::Jump(t) => prog.ops[pc] = Op::Jump(retarget(*t, &prog.ops)),
            Op::JumpIfNotTrue(t) => prog.ops[pc] = Op::JumpIfNotTrue(retarget(*t, &prog.ops)),
            Op::CmpNotJump { op, l, r, target } => {
                let (op, l, r) = (*op, l.clone(), r.clone());
                let target = retarget(*target, &prog.ops);
                prog.ops[pc] = Op::CmpNotJump { op, l, r, target };
            }
            _ => {}
        }
    }
    prog
}

fn exec_ops(
    prog: &ExprProgram,
    base: usize,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    // Count dispatched opcodes in a local and flush once, so the hot loop
    // pays one add per op and error paths (`?` inside the arms) still
    // record the work done before the failure.
    let mut steps: u64 = 0;
    let result = exec_ops_loop(prog, base, env, rt, &mut steps);
    rt.stats.vm_ops_executed += steps;
    result
}

fn exec_ops_loop(
    prog: &ExprProgram,
    base: usize,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    steps: &mut u64,
) -> Result<()> {
    let ops = &prog.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        *steps += 1;
        match &ops[pc] {
            Op::Push(o) => {
                let v = operand_value(o, base, env, rt)?;
                rt.vm_stack.push(v);
            }
            Op::PushN(os) => {
                rt.vm_stack.reserve(os.len());
                for o in os.iter() {
                    let v = operand_value(o, base, env, rt)?;
                    rt.vm_stack.push(v);
                }
            }
            Op::PushNull => rt.vm_stack.push(Value::Null),
            Op::Neg => {
                let v = rt.vm_stack.pop().unwrap().neg()?;
                rt.vm_stack.push(v);
            }
            Op::Not => {
                let v = match rt.vm_stack.pop().unwrap().as_bool()? {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                };
                rt.vm_stack.push(v);
            }
            Op::IsNull { negated } => {
                let v = rt.vm_stack.pop().unwrap();
                rt.vm_stack.push(Value::Bool(v.is_null() != *negated));
            }
            Op::Bin(op) => {
                let r = rt.vm_stack.pop().unwrap();
                let l = rt.vm_stack.pop().unwrap();
                let v = match fast_int_bin(*op, &l, &r) {
                    Some(v) => v,
                    None => apply_bin(*op, &l, &r)?,
                };
                rt.vm_stack.push(v);
            }
            Op::Bin2 { op, l, r } => {
                let lv = operand_value(l, base, env, rt)?;
                let rv = operand_value(r, base, env, rt)?;
                let v = match fast_int_bin(*op, &lv, &rv) {
                    Some(v) => v,
                    None => apply_bin(*op, &lv, &rv)?,
                };
                rt.vm_stack.push(v);
            }
            Op::BinMix { op, r } => {
                let rv = operand_value(r, base, env, rt)?;
                let lv = rt.vm_stack.pop().unwrap();
                let v = match fast_int_bin(*op, &lv, &rv) {
                    Some(v) => v,
                    None => apply_bin(*op, &lv, &rv)?,
                };
                rt.vm_stack.push(v);
            }
            Op::CmpNotJump { op, l, r, target } => {
                let lv = operand_value(l, base, env, rt)?;
                let rv = operand_value(r, base, env, rt)?;
                let hit = match fast_int_bin(*op, &lv, &rv) {
                    Some(v) => v.is_true(),
                    None => apply_bin(*op, &lv, &rv)?.is_true(),
                };
                if !hit {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::AndProbe(end) => {
                let l = rt.vm_stack.last().unwrap().as_bool()?;
                if l == Some(false) {
                    *rt.vm_stack.last_mut().unwrap() = Value::Bool(false);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::AndCombine => {
                let r = rt.vm_stack.pop().unwrap().as_bool()?;
                let l = rt.vm_stack.pop().unwrap().as_bool()?;
                rt.vm_stack.push(match and3(l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                });
            }
            Op::OrProbe(end) => {
                let l = rt.vm_stack.last().unwrap().as_bool()?;
                if l == Some(true) {
                    *rt.vm_stack.last_mut().unwrap() = Value::Bool(true);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::OrCombine => {
                let r = rt.vm_stack.pop().unwrap().as_bool()?;
                let l = rt.vm_stack.pop().unwrap().as_bool()?;
                rt.vm_stack.push(match (l, r) {
                    (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                });
            }
            Op::Between { negated } => {
                let hi = rt.vm_stack.pop().unwrap();
                let lo = rt.vm_stack.pop().unwrap();
                let v = rt.vm_stack.pop().unwrap();
                let ge = v.sql_cmp(&lo)?.map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi)?.map(|o| o != std::cmp::Ordering::Greater);
                rt.vm_stack.push(match and3(ge, le) {
                    Some(b) => Value::Bool(b != *negated),
                    None => Value::Null,
                });
            }
            Op::Like { negated } => {
                let p = rt.vm_stack.pop().unwrap();
                let v = rt.vm_stack.pop().unwrap();
                if v.is_null() || p.is_null() {
                    rt.vm_stack.push(Value::Null);
                } else {
                    let m = like_match(v.as_text()?, p.as_text()?);
                    rt.vm_stack.push(Value::Bool(m != *negated));
                }
            }
            Op::Row(n) => {
                // Drain straight into the shared buffer: `Arc<[T]>` collects
                // from an exact-size iterator in a single allocation.
                let k = rt.vm_stack.len() - *n as usize;
                let rec: Arc<[Value]> = rt.vm_stack.drain(k..).collect();
                rt.vm_stack.push(Value::Record(rec));
            }
            Op::Cast(ty) => {
                let v = rt.vm_stack.pop().unwrap().cast(ty)?;
                rt.vm_stack.push(v);
            }
            Op::Scalar { func, argc } => {
                let k = rt.vm_stack.len() - *argc as usize;
                let v = eval_scalar(*func, &rt.vm_stack[k..], rt.rng)?;
                rt.vm_stack.truncate(k);
                rt.vm_stack.push(v);
            }
            Op::Snapshot { op, argc } => {
                // Pop into a fixed frame first: `eval_snapshot_op` needs the
                // runtime mutably, which forbids borrowing the stack tail.
                let mut argv = [Value::Null, Value::Null, Value::Null];
                let k = rt.vm_stack.len() - *argc as usize;
                for (i, v) in rt.vm_stack.drain(k..).enumerate() {
                    argv[i] = v;
                }
                let v = eval_snapshot_op(*op, &argv[..*argc as usize], rt)?;
                rt.vm_stack.push(v);
            }
            Op::FetchField { handle, pos, field } => {
                let h = operand_value(handle, base, env, rt)?.as_int()?;
                let p = operand_value(pos, base, env, rt)?.as_int()?;
                let row = rt.snapshots.row(h, p).map_err(Error::exec)?;
                let v = row.get(*field as usize).cloned().ok_or_else(|| {
                    Error::exec(format!(
                        "fetch_row: field {} out of bounds for row of width {}",
                        field + 1,
                        row.len()
                    ))
                })?;
                rt.vm_stack.push(v);
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::JumpIfNotTrue(t) => {
                let v = rt.vm_stack.pop().unwrap();
                if !v.is_true() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::CaseCmpJump(t) => {
                let when = rt.vm_stack.pop().unwrap();
                let operand = rt.vm_stack.last().unwrap();
                if operand.sql_eq(&when)? != Some(true) {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::Pop => {
                rt.vm_stack.pop();
            }
            Op::Collapse { below, drop } => {
                let hi = base + *below as usize;
                rt.vm_stack.drain(hi - *drop as usize..hi);
            }
            Op::JumpIfNotNull(t) => {
                if !rt.vm_stack.last().unwrap().is_null() {
                    pc = *t as usize;
                    continue;
                }
                rt.vm_stack.pop();
            }
            Op::InStep(finish) => {
                let item = rt.vm_stack.pop().unwrap();
                let n = rt.vm_stack.len();
                let v = &rt.vm_stack[n - 2];
                match v.sql_eq(&item)? {
                    Some(true) => {
                        rt.vm_stack[n - 1] = Value::Bool(true);
                        pc = *finish as usize;
                        continue;
                    }
                    Some(false) => {}
                    None => rt.vm_stack[n - 1] = Value::Null,
                }
            }
            Op::InFinish { negated } => {
                let acc = rt.vm_stack.pop().unwrap();
                rt.vm_stack.pop(); // the probed expression
                rt.vm_stack.push(match acc {
                    Value::Bool(true) => Value::Bool(!*negated),
                    Value::Null => Value::Null,
                    _ => Value::Bool(*negated),
                });
            }
            Op::Tree(i) => {
                let v = eval(&prog.trees[*i as usize], env, rt)?;
                rt.vm_stack.push(v);
            }
            Op::TreeCached(i) => {
                let tree = &prog.trees[*i as usize];
                let key = match tree {
                    ExprIr::Subplan(p) => Arc::as_ptr(p) as usize,
                    ExprIr::Exists { plan } => Arc::as_ptr(plan) as usize,
                    _ => unreachable!("only closed sub-plans are cached"),
                };
                if let Some(v) = rt.subplan_cache.get(&key) {
                    let v = v.clone();
                    rt.vm_stack.push(v);
                } else {
                    let v = eval(tree, env, rt)?;
                    rt.subplan_cache.insert(key, v.clone());
                    rt.vm_stack.push(v);
                }
            }
        }
        pc += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_expr, ParamScope};
    use crate::session::Session;

    /// Compile a SQL expression to both forms and check tree and VM agree.
    fn eval_both(
        session: &mut Session,
        sql: &str,
        params: &[Value],
    ) -> (Result<Value>, Result<Value>) {
        let ast = plaway_sql::parse_expr(sql).unwrap();
        let names: Vec<String> = (0..params.len()).map(|i| format!("p{i}")).collect();
        let scope = ParamScope::new(names);
        let ir = plan_expr(
            &session.catalog,
            &ast,
            Some(&scope),
            crate::config::IndexMode::Auto,
        )
        .unwrap();
        let tree = session.eval_expr(&ir, params);
        let prog = ExprIr::Vm(Arc::new(compile(&ir)));
        let vm = session.eval_expr(&prog, params);
        (tree, vm)
    }

    fn assert_agree(sql: &str, params: &[Value]) {
        let mut s = Session::default();
        let (tree, vm) = eval_both(&mut s, sql, params);
        match (tree, vm) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{sql}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{sql}"),
            (a, b) => panic!("{sql}: tree={a:?} vm={b:?}"),
        }
    }

    #[test]
    fn arithmetic_and_comparisons_agree() {
        assert_agree("1 + 2 * 3 - 4 / 2", &[]);
        assert_agree("7 % 3 = 1", &[]);
        assert_agree("1.5 < 2", &[]);
        assert_agree("'a' || 'b' || 3", &[]);
        assert_agree("-p0 + 1", &[Value::Int(41)]);
    }

    #[test]
    fn three_valued_logic_agrees() {
        assert_agree("NULL AND true", &[]);
        assert_agree("NULL AND false", &[]);
        assert_agree("NULL OR true", &[]);
        assert_agree("NULL OR false", &[]);
        assert_agree("NOT NULL", &[]);
        assert_agree("NULL IS NULL", &[]);
        assert_agree("1 IS NOT NULL", &[]);
    }

    #[test]
    fn short_circuit_skips_errors_like_the_tree() {
        // The right operand would divide by zero; AND/OR must not reach it.
        assert_agree("false AND 1 / 0 = 1", &[]);
        assert_agree("true OR 1 / 0 = 1", &[]);
        assert_agree("CASE WHEN true THEN 1 ELSE 1 / 0 END", &[]);
        assert_agree("COALESCE(5, 1 / 0)", &[]);
        assert_agree("2 IN (2, 1 / 0)", &[]);
    }

    #[test]
    fn case_forms_agree() {
        assert_agree(
            "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END",
            &[],
        );
        assert_agree("CASE WHEN false THEN 'a' END", &[]);
        assert_agree(
            "CASE p0 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END",
            &[Value::Int(2)],
        );
        assert_agree("CASE p0 WHEN 1 THEN 'one' END", &[Value::Null]);
    }

    #[test]
    fn in_list_null_semantics_agree() {
        assert_agree("1 IN (1, 2)", &[]);
        assert_agree("3 IN (1, 2)", &[]);
        assert_agree("3 NOT IN (1, 2)", &[]);
        assert_agree("3 IN (1, NULL)", &[]);
        assert_agree("3 NOT IN (1, NULL)", &[]);
        assert_agree("NULL IN (1, 2)", &[]);
        assert_agree("1 BETWEEN 0 AND 2", &[]);
        assert_agree("NULL BETWEEN 0 AND 2", &[]);
        assert_agree("5 NOT BETWEEN 0 AND 2", &[]);
    }

    #[test]
    fn scalar_functions_rows_and_casts_agree() {
        assert_agree("abs(-5) + length('abc')", &[]);
        assert_agree("row_field(ROW(1, 'x', 2.5), 2)", &[]);
        assert_agree("CAST('42' AS int) + 1", &[]);
        assert_agree("coalesce(NULL, NULL, 7)", &[]);
        assert_agree("greatest(1, 2, 3) * least(4, 5)", &[]);
        assert_agree("'hello' LIKE 'h%'", &[]);
        assert_agree("'hello' NOT LIKE '_x%'", &[]);
        assert_agree("NULL LIKE 'h%'", &[]);
    }

    #[test]
    fn errors_match_the_tree_evaluator() {
        assert_agree("1 / 0", &[]);
        assert_agree("1 + 'x'", &[]);
        assert_agree("substr('abc', 'x')", &[]);
    }

    #[test]
    fn worth_swapping_skips_trivial_programs() {
        let slot = ExprIr::slot(0);
        assert!(!worth_swapping(&compile(&slot)));
        let ast = plaway_sql::parse_expr("(a + 1) * (a - 1) + a % 7").unwrap();
        let s = Session::default();
        let scope = ParamScope::new(vec!["a".into()]);
        let ir = plan_expr(
            &s.catalog,
            &ast,
            Some(&scope),
            crate::config::IndexMode::Auto,
        )
        .unwrap();
        assert!(worth_swapping(&compile(&ir)));
    }

    #[test]
    fn closed_subplans_are_detected_invariant() {
        let mut s = Session::default();
        s.run("CREATE TABLE t (a int)").unwrap();
        s.run("INSERT INTO t VALUES (1), (2)").unwrap();
        // Closed: depends only on the catalog.
        let ast = plaway_sql::parse_expr("(SELECT count(*) FROM t)").unwrap();
        let ir = plan_expr(&s.catalog, &ast, None, crate::config::IndexMode::Auto).unwrap();
        let ExprIr::Subplan(p) = &ir else { panic!() };
        assert_eq!(plan_free_scopes(p), Some(0));
        // Parameterized: not hoistable.
        let ast = plaway_sql::parse_expr("(SELECT count(*) FROM t WHERE a = x)").unwrap();
        let scope = ParamScope::new(vec!["x".into()]);
        let ir = plan_expr(
            &s.catalog,
            &ast,
            Some(&scope),
            crate::config::IndexMode::Auto,
        )
        .unwrap();
        let ExprIr::Subplan(p) = &ir else { panic!() };
        assert_eq!(plan_free_scopes(p), None);
    }
}
