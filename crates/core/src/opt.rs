//! SSA-level simplifications.
//!
//! The paper (§2): "The SSA invariant facilitates a wide range of code
//! simplifications, among these the tracking of redundant code, constant
//! propagation, or strength reduction." We implement the passes that pay
//! off for the generated SQL:
//!
//! * constant folding (with SQL three-valued semantics; exprs that would
//!   error at runtime are left untouched),
//! * constant / copy propagation,
//! * trivial-φ removal,
//! * dead code elimination (side-effect aware: embedded queries and
//!   `random()` survive),
//! * constant branch simplification, unreachable-block removal,
//! * straight-line block merging and empty-block jump threading,
//! * strength reduction (`x * 2^k` → shifts are pointless in SQL, but
//!   `x * 1`, `x + 0`, `x::τ` of τ-typed literals and friends are folded).

use std::collections::HashSet;

use plaway_common::Value;
use plaway_engine::Catalog;
use plaway_sql::ast::{BinOp, Expr, UnOp};

use crate::cfg::Term;
use crate::ssa::{PhiArg, SsaProgram};
use crate::subst::{subst_expr, Subst};

/// Statistics of one optimization run (used in tests and EXPLAIN output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant sub-expressions replaced by their value.
    pub constants_folded: usize,
    /// Single-definition copies propagated to their uses.
    pub copies_propagated: usize,
    /// Trivial φ nodes (one distinct argument) removed.
    pub phis_removed: usize,
    /// Dead pure assignments removed.
    pub stmts_removed: usize,
    /// Constant branches rewritten to jumps.
    pub branches_simplified: usize,
    /// Unreachable blocks dropped.
    pub blocks_removed: usize,
    /// Straight-line blocks merged / empty jumps threaded.
    pub blocks_merged: usize,
}

/// Run all passes to a fixpoint (bounded).
pub fn optimize(prog: &mut SsaProgram, catalog: &Catalog) -> OptStats {
    let mut stats = OptStats::default();
    for _ in 0..16 {
        let mut changed = false;
        changed |= fold_constants(prog, &mut stats);
        changed |= propagate_defs(prog, catalog, &mut stats);
        changed |= remove_trivial_phis(prog, catalog, &mut stats);
        changed |= simplify_branches(prog, &mut stats);
        changed |= remove_unreachable(prog, &mut stats);
        changed |= merge_straightline(prog, &mut stats);
        changed |= thread_jumps(prog, &mut stats);
        changed |= eliminate_dead_code(prog, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Purity & constant evaluation

/// Syntactic purity: safe to remove if unused / safe to duplicate.
pub fn is_pure_expr(e: &Expr) -> bool {
    const PURE_FUNCS: &[&str] = &[
        "abs",
        "sign",
        "floor",
        "ceil",
        "ceiling",
        "round",
        "trunc",
        "sqrt",
        "power",
        "pow",
        "exp",
        "ln",
        "mod",
        "length",
        "char_length",
        "lower",
        "upper",
        "substr",
        "substring",
        "concat",
        "replace",
        "trim",
        "btrim",
        "ltrim",
        "rtrim",
        "strpos",
        "left",
        "right",
        "repeat",
        "reverse",
        "chr",
        "ascii",
        "nullif",
        "greatest",
        "least",
        "coalesce",
        "row_field",
    ];
    let mut pure = true;
    e.walk(&mut |sub| match sub {
        Expr::Subquery(_) | Expr::Exists(_) | Expr::InSubquery { .. } => pure = false,
        Expr::Func { name, .. } if !PURE_FUNCS.contains(&name.as_str()) => pure = false,
        Expr::WindowFunc { .. } | Expr::CountStar => pure = false,
        _ => {}
    });
    pure
}

/// Evaluate a constant expression, if it is one and evaluation cannot fail.
/// Returns `None` for anything non-constant or error-prone (division by
/// zero must remain a runtime error, not a compile-time one).
pub(crate) fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary { op, expr } => {
            let v = const_value(expr)?;
            match op {
                UnOp::Neg => v.neg().ok(),
                UnOp::Not => match v.as_bool().ok()? {
                    Some(b) => Some(Value::Bool(!b)),
                    None => Some(Value::Null),
                },
            }
        }
        Expr::Binary { op, left, right } => {
            // AND/OR shortcut with one constant side even if the other is
            // dynamic is handled in `fold_expr`; here both must be const.
            let l = const_value(left)?;
            let r = const_value(right)?;
            match op {
                BinOp::Add => l.add(&r).ok(),
                BinOp::Sub => l.sub(&r).ok(),
                BinOp::Mul => l.mul(&r).ok(),
                BinOp::Div => l.div(&r).ok(),
                BinOp::Mod => l.rem(&r).ok(),
                BinOp::Concat => l.concat(&r).ok(),
                BinOp::And => match (l.as_bool().ok()?, r.as_bool().ok()?) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => Some(Value::Null),
                },
                BinOp::Or => match (l.as_bool().ok()?, r.as_bool().ok()?) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => Some(Value::Null),
                },
                _ => {
                    let ord = l.sql_cmp(&r).ok()?;
                    Some(match ord {
                        None => Value::Null,
                        Some(o) => {
                            use std::cmp::Ordering::*;
                            Value::Bool(match op {
                                BinOp::Eq => o == Equal,
                                BinOp::NotEq => o != Equal,
                                BinOp::Lt => o == Less,
                                BinOp::LtEq => o != Greater,
                                BinOp::Gt => o == Greater,
                                BinOp::GtEq => o != Less,
                                _ => unreachable!(),
                            })
                        }
                    })
                }
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = const_value(expr)?;
            Some(Value::Bool(v.is_null() != *negated))
        }
        Expr::Cast { expr, ty } => {
            let v = const_value(expr)?;
            let t = plaway_common::Type::from_sql_name(ty).ok()?;
            // NULL casts are kept so τ information survives to the CTE
            // template (CAST(NULL AS τ) in Figure 8).
            if v.is_null() {
                return None;
            }
            v.cast(&t).ok()
        }
        _ => None,
    }
}

/// Bottom-up folding with algebraic identities.
fn fold_expr(e: Expr, n_folded: &mut usize) -> Expr {
    e.rewrite(
        &mut |e| {
            if matches!(e, Expr::Literal(_)) {
                return e;
            }
            if let Some(v) = const_value(&e) {
                *n_folded += 1;
                return Expr::Literal(v);
            }
            match e {
                // x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1 (pure x only —
                // dropping an impure duplicate would lose effects).
                Expr::Binary { op, left, right } => {
                    let lit = |e: &Expr| match e {
                        Expr::Literal(v) => Some(v.clone()),
                        _ => None,
                    };
                    let (l, r) = (lit(&left), lit(&right));
                    match (op, l, r) {
                        (BinOp::Add, Some(Value::Int(0)), _) if is_pure_expr(&right) => {
                            *n_folded += 1;
                            *right
                        }
                        (BinOp::Add, _, Some(Value::Int(0)))
                        | (BinOp::Sub, _, Some(Value::Int(0)))
                            if is_pure_expr(&left) =>
                        {
                            *n_folded += 1;
                            *left
                        }
                        (BinOp::Mul, Some(Value::Int(1)), _) if is_pure_expr(&right) => {
                            *n_folded += 1;
                            *right
                        }
                        (BinOp::Mul, _, Some(Value::Int(1)))
                        | (BinOp::Div, _, Some(Value::Int(1)))
                            if is_pure_expr(&left) =>
                        {
                            *n_folded += 1;
                            *left
                        }
                        // true AND x -> x ; false OR x -> x (x boolean).
                        (BinOp::And, Some(Value::Bool(true)), _) => {
                            *n_folded += 1;
                            *right
                        }
                        (BinOp::And, _, Some(Value::Bool(true))) => {
                            *n_folded += 1;
                            *left
                        }
                        (BinOp::Or, Some(Value::Bool(false)), _) => {
                            *n_folded += 1;
                            *right
                        }
                        (BinOp::Or, _, Some(Value::Bool(false))) => {
                            *n_folded += 1;
                            *left
                        }
                        (op, _, _) => Expr::Binary { op, left, right },
                    }
                }
                // CASE with a constant guard in first position.
                Expr::Case {
                    operand: None,
                    branches,
                    else_,
                } if matches!(branches.first(), Some((Expr::Literal(_), _))) => {
                    let mut branches = branches;
                    let (first_cond, first_then) = branches.remove(0);
                    let Expr::Literal(v) = first_cond else {
                        unreachable!()
                    };
                    *n_folded += 1;
                    if v.is_true() {
                        first_then
                    } else if branches.is_empty() {
                        else_.map(|b| *b).unwrap_or(Expr::null())
                    } else {
                        Expr::Case {
                            operand: None,
                            branches,
                            else_,
                        }
                    }
                }
                other => other,
            }
        },
        &mut |_, _| false, // leave subqueries untouched (they are opaque here)
    )
}

fn fold_constants(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut n = 0;
    for b in &mut prog.blocks {
        for (_, e) in &mut b.stmts {
            let folded = fold_expr(std::mem::replace(e, Expr::null()), &mut n);
            *e = folded;
        }
        for phi in &mut b.phis {
            for (_, arg) in &mut phi.args {
                let folded = fold_expr(std::mem::replace(&mut arg.0, Expr::null()), &mut n);
                arg.0 = folded;
            }
        }
        match &mut b.term {
            Term::Branch { cond, .. } => {
                let folded = fold_expr(std::mem::replace(cond, Expr::null()), &mut n);
                *cond = folded;
            }
            Term::Return(e) => {
                let folded = fold_expr(std::mem::replace(e, Expr::null()), &mut n);
                *e = folded;
            }
            _ => {}
        }
    }
    stats.constants_folded += n;
    n > 0
}

// ---------------------------------------------------------------------------
// Constant / copy propagation

/// Propagate defs of the form `v := literal` and `v := w`.
fn propagate_defs(prog: &mut SsaProgram, catalog: &Catalog, stats: &mut OptStats) -> bool {
    let mut map = Subst::new();
    for b in &prog.blocks {
        for (v, e) in &b.stmts {
            match e {
                Expr::Literal(_) => {
                    map.insert(v.clone(), e.clone());
                }
                Expr::Column {
                    qualifier: None, ..
                } => {
                    map.insert(v.clone(), e.clone());
                }
                _ => {}
            }
        }
    }
    if map.is_empty() {
        return false;
    }
    resolve_chains(&mut map);
    let n = map.len();
    apply_subst(prog, &map, catalog);
    // Drop the now-redundant copy statements.
    for b in &mut prog.blocks {
        b.stmts.retain(|(v, _)| !map.contains_key(v));
    }
    stats.copies_propagated += n;
    true
}

/// Resolve substitution chains (`v -> w`, `w -> 3`  =>  `v -> 3`), bounded.
/// Both propagation and trivial-φ removal substitute in a single pass, so a
/// map with internal references would otherwise leave dangling names. Each
/// round follows one step from the previous round's map (all targets move
/// at once), so a cycle such as `a -> b`, `b -> a` ends after the bound.
fn resolve_chains(map: &mut Subst) {
    for _ in 0..map.len() {
        let steps: Vec<(String, Expr)> = map
            .iter()
            .filter_map(|(v, target)| match target {
                Expr::Column {
                    qualifier: None,
                    name,
                } => map.get(name).map(|next| (v.clone(), next.clone())),
                _ => None,
            })
            .collect();
        if steps.is_empty() {
            break;
        }
        for (v, next) in steps {
            map.insert(v, next);
        }
    }
}

fn apply_subst(prog: &mut SsaProgram, map: &Subst, catalog: &Catalog) {
    for b in &mut prog.blocks {
        for (_, e) in &mut b.stmts {
            let new = subst_expr(std::mem::replace(e, Expr::null()), map, catalog, &[]);
            *e = new;
        }
        for phi in &mut b.phis {
            for (_, arg) in &mut phi.args {
                let new = subst_expr(
                    std::mem::replace(&mut arg.0, Expr::null()),
                    map,
                    catalog,
                    &[],
                );
                arg.0 = new;
            }
        }
        match &mut b.term {
            Term::Branch { cond, .. } => {
                let new = subst_expr(std::mem::replace(cond, Expr::null()), map, catalog, &[]);
                *cond = new;
            }
            Term::Return(e) => {
                let new = subst_expr(std::mem::replace(e, Expr::null()), map, catalog, &[]);
                *e = new;
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Trivial φ removal

fn remove_trivial_phis(prog: &mut SsaProgram, catalog: &Catalog, stats: &mut OptStats) -> bool {
    let mut map = Subst::new();
    for b in &mut prog.blocks {
        b.phis.retain(|phi| {
            let self_ref = Expr::col(phi.target.clone());
            let mut distinct: Vec<&Expr> = Vec::new();
            for (_, PhiArg(a)) in &phi.args {
                if *a != self_ref && !distinct.contains(&a) {
                    distinct.push(a);
                }
            }
            match distinct.len() {
                0 => {
                    // Only self-references: the value is undefined -> NULL.
                    map.insert(phi.target.clone(), Expr::null());
                    false
                }
                1 if is_pure_expr(distinct[0]) => {
                    map.insert(phi.target.clone(), distinct[0].clone());
                    false
                }
                _ => true,
            }
        });
    }
    if map.is_empty() {
        return false;
    }
    resolve_chains(&mut map);
    stats.phis_removed += map.len();
    apply_subst(prog, &map, catalog);
    true
}

// ---------------------------------------------------------------------------
// Dead code elimination

fn eliminate_dead_code(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut removed_any = false;
    loop {
        let mut used: HashSet<String> = HashSet::new();
        let mut collect = |e: &Expr| {
            let mut names = Vec::new();
            crate::ssa::collect_free_names(e, &mut names);
            used.extend(names);
        };
        for b in &prog.blocks {
            for (_, e) in &b.stmts {
                collect(e);
            }
            for phi in &b.phis {
                for (_, arg) in &phi.args {
                    collect(&arg.0);
                }
            }
            match &b.term {
                Term::Branch { cond, .. } => collect(cond),
                Term::Return(e) => collect(e),
                _ => {}
            }
        }
        let mut removed = 0;
        for b in &mut prog.blocks {
            b.stmts.retain(|(v, e)| {
                if !used.contains(v) && is_pure_expr(e) {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            b.phis.retain(|phi| {
                if !used.contains(&phi.target) {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
        }
        if removed == 0 {
            break;
        }
        stats.stmts_removed += removed;
        removed_any = true;
    }
    removed_any
}

// ---------------------------------------------------------------------------
// Control-flow cleanup

fn simplify_branches(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut changed = false;
    for b in 0..prog.blocks.len() {
        if let Term::Branch { cond, then_, else_ } = &prog.blocks[b].term {
            let (taken, dropped) = match cond {
                Expr::Literal(v) if v.is_true() => (*then_, *else_),
                Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => (*else_, *then_),
                _ => continue,
            };
            prog.blocks[b].term = Term::Jump(taken);
            stats.branches_simplified += 1;
            changed = true;
            if dropped != taken {
                // Remove the dead edge's φ contributions.
                for phi in &mut prog.blocks[dropped].phis {
                    phi.args.retain(|(p, _)| *p != b);
                }
            }
        }
    }
    changed
}

fn remove_unreachable(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let n = prog.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![prog.entry];
    reachable[prog.entry] = true;
    while let Some(b) = stack.pop() {
        for s in prog.blocks[b].term.successors() {
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return false;
    }
    let mut remap = vec![usize::MAX; n];
    let mut blocks = Vec::with_capacity(n);
    for (i, block) in std::mem::take(&mut prog.blocks).into_iter().enumerate() {
        if reachable[i] {
            remap[i] = blocks.len();
            blocks.push(block);
        } else {
            stats.blocks_removed += 1;
        }
    }
    for b in &mut blocks {
        b.term.map_targets(|t| remap[t]);
        for phi in &mut b.phis {
            phi.args.retain(|(p, _)| reachable[*p]);
            for (p, _) in &mut phi.args {
                *p = remap[*p];
            }
        }
    }
    prog.entry = remap[prog.entry];
    prog.blocks = blocks;
    true
}

/// Merge `b -> s` when `b` jumps to `s`, `s` has exactly one predecessor and
/// no φs.
///
/// One sweep in block order finds the same merges as rescanning from the
/// first block after each one: a merge only hands `s`'s terminator to `b`
/// and relabels `s` to `b` in predecessor lists, so no block before `b`
/// becomes mergeable and every other predecessor count stays the same. The
/// emptied husks are dropped together at the end.
fn merge_straightline(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let n_preds: Vec<usize> = prog.predecessors().iter().map(Vec::len).collect();
    let mut changed = false;
    for b in 0..prog.blocks.len() {
        while let Term::Jump(s) = prog.blocks[b].term {
            if s == b || n_preds[s] != 1 || !prog.blocks[s].phis.is_empty() {
                break;
            }
            // Move s's statements into b; adopt s's terminator. s becomes
            // an unreachable husk (no statements, no successors).
            let s_stmts = std::mem::take(&mut prog.blocks[s].stmts);
            let s_term = std::mem::replace(&mut prog.blocks[s].term, Term::Return(Expr::null()));
            prog.blocks[b].stmts.extend(s_stmts);
            prog.blocks[b].term = s_term;
            // φ args in s's successors refer to s: relabel to b.
            for t in prog.blocks[b].term.successors() {
                for phi in &mut prog.blocks[t].phis {
                    for (p, _) in &mut phi.args {
                        if *p == s {
                            *p = b;
                        }
                    }
                }
            }
            stats.blocks_merged += 1;
            changed = true;
        }
    }
    if changed {
        remove_unreachable(prog, stats);
    }
    changed
}

/// Redirect jumps through empty blocks (`P -> E -> T` becomes `P -> T`).
fn thread_jumps(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut changed = false;
    let n = prog.blocks.len();
    for e in 0..n {
        let Term::Jump(t) = prog.blocks[e].term else {
            continue;
        };
        if t == e || !prog.blocks[e].stmts.is_empty() || !prog.blocks[e].phis.is_empty() {
            continue;
        }
        if e == prog.entry {
            continue;
        }
        let preds = prog.predecessors();
        // Never create duplicate edges (φ args must stay unambiguous by
        // predecessor id).
        let t_preds = &preds[t];
        if preds[e].iter().any(|p| t_preds.contains(p) || *p == e) {
            continue;
        }
        // Value flowing from E into T's φs.
        let phi_args_via_e: Vec<Expr> = prog.blocks[t]
            .phis
            .iter()
            .map(|phi| {
                phi.args
                    .iter()
                    .find(|(p, _)| *p == e)
                    .map(|(_, a)| a.0.clone())
                    .unwrap_or_else(Expr::null)
            })
            .collect();
        let e_preds = preds[e].clone();
        if e_preds.is_empty() {
            continue;
        }
        for &p in &e_preds {
            prog.blocks[p]
                .term
                .map_targets(|x| if x == e { t } else { x });
            for (pi, phi_val) in phi_args_via_e.iter().enumerate() {
                prog.blocks[t].phis[pi]
                    .args
                    .push((p, PhiArg(phi_val.clone())));
            }
        }
        // Remove E's contribution (E becomes unreachable).
        for phi in &mut prog.blocks[t].phis {
            phi.args.retain(|(p, _)| *p != e);
        }
        changed = true;
    }
    if changed {
        remove_unreachable(prog, stats);
    }
    changed
}

/// How many φ-carrying blocks (loop headers / joins) remain — a quality
/// metric used by tests and ablations.
pub fn count_phis(prog: &SsaProgram) -> usize {
    prog.blocks.iter().map(|b| b.phis.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_plsql::parse_create_function;

    fn optimized(body: &str) -> (SsaProgram, OptStats) {
        let sql = format!("CREATE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql");
        let f = parse_create_function(&sql).unwrap();
        let cat = Catalog::new();
        let cfg = crate::cfg::lower(&f, &cat).unwrap();
        let mut prog = crate::ssa::build(&cfg, &cat).unwrap();
        let stats = optimize(&mut prog, &cat);
        prog.validate().expect("optimized program stays valid SSA");
        (prog, stats)
    }

    #[test]
    fn constant_folding_collapses_arithmetic() {
        let (prog, stats) = optimized("BEGIN RETURN 1 + 2 * 3 + n * 1 + 0; END");
        assert!(stats.constants_folded > 0);
        let text = prog.to_text();
        assert!(text.contains("return 7 + n"), "{text}");
    }

    #[test]
    fn copies_and_constants_propagate() {
        let (prog, _) = optimized(
            "DECLARE a int := 5; b int; c int; \
             BEGIN b := a; c := b + n; RETURN c; END",
        );
        let text = prog.to_text();
        // a and b disappear entirely; only 5 + n remains (possibly through
        // one final let-bound name).
        assert!(text.contains("5 + n"), "{text}");
        assert!(!text.contains("b1"), "{text}");
        assert_eq!(prog.blocks.len(), 1);
    }

    #[test]
    fn dead_pure_code_removed_impure_kept() {
        let (prog, stats) = optimized(
            "DECLARE unused int; r float8; \
             BEGIN unused := n * 99; r := random(); RETURN n; END",
        );
        assert!(stats.stmts_removed > 0);
        let text = prog.to_text();
        assert!(!text.contains("99"), "dead pure def must vanish: {text}");
        assert!(
            text.contains("random()"),
            "impure def must survive DCE: {text}"
        );
    }

    #[test]
    fn constant_branch_becomes_jump_and_dead_arm_vanishes() {
        let (prog, stats) =
            optimized("BEGIN IF 1 > 2 THEN RETURN 111; ELSE RETURN 222; END IF; END");
        assert!(stats.branches_simplified >= 1);
        let text = prog.to_text();
        assert!(!text.contains("111"), "{text}");
        assert!(text.contains("return 222"), "{text}");
        assert_eq!(prog.blocks.len(), 1, "{text}");
    }

    #[test]
    fn straightline_blocks_merge() {
        let (prog, _) = optimized(
            "DECLARE a int; \
             BEGIN \
               IF n > 0 THEN a := 1; ELSE a := 2; END IF; \
               RETURN a; \
             END",
        );
        // diamond: entry + 2 arms + join = 4 blocks max after cleanup.
        assert!(
            prog.blocks.len() <= 4,
            "expected compact CFG, got {} blocks:\n{}",
            prog.blocks.len(),
            prog.to_text()
        );
    }

    #[test]
    fn loops_survive_optimization() {
        let (prog, _) = optimized(
            "DECLARE s int := 0; \
             BEGIN FOR i IN 1..n LOOP s := s + i; END LOOP; RETURN s; END",
        );
        assert!(
            count_phis(&prog) >= 2,
            "loop carries s and i:\n{}",
            prog.to_text()
        );
        // There must still be a back edge.
        let preds = prog.predecessors();
        assert!(preds.iter().any(|p| p.len() >= 2));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let (prog, _) = optimized("BEGIN RETURN 1 / 0; END");
        let text = prog.to_text();
        assert!(
            text.contains("1 / 0"),
            "folding must not turn runtime errors into compile errors: {text}"
        );
    }

    #[test]
    fn trivial_phi_removed_after_constant_branch() {
        let (prog, _) = optimized(
            "DECLARE a int := 0; \
             BEGIN IF true THEN a := 1; END IF; RETURN a + n; END",
        );
        let text = prog.to_text();
        assert_eq!(count_phis(&prog), 0, "{text}");
        assert!(text.contains("return 1 + n"), "{text}");
    }

    #[test]
    fn subqueries_never_removed_or_duplicated() {
        let mut session = plaway_engine::Session::default();
        session.run("CREATE TABLE t (v int)").unwrap();
        let sql = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
                   DECLARE a int; \
                   BEGIN a := (SELECT max(v) FROM t); RETURN n; END \
                   $$ LANGUAGE plpgsql";
        let f = parse_create_function(sql).unwrap();
        let cfg = crate::cfg::lower(&f, &session.catalog).unwrap();
        let mut prog = crate::ssa::build(&cfg, &session.catalog).unwrap();
        optimize(&mut prog, &session.catalog);
        let text = prog.to_text();
        assert!(
            text.matches("SELECT max(v)").count() == 1,
            "query must survive exactly once: {text}"
        );
    }

    /// `random()` keeps a statement alive through DCE and propagation.
    fn impure() -> Expr {
        Expr::func("random", Vec::new())
    }

    fn program(blocks: Vec<crate::ssa::SsaBlock>) -> SsaProgram {
        SsaProgram {
            name: "f".into(),
            params: vec![("n".into(), plaway_common::Type::Int)],
            returns: plaway_common::Type::Float,
            var_types: Default::default(),
            blocks,
            entry: 0,
        }
    }

    #[test]
    fn jump_chain_merges_completely_in_one_call() {
        // L0 -> L3 -> L1 -> L4 -> L2 -> L5: a chain laid out out of order,
        // so every merge leaves a husk at a different index.
        let next = [3, 4, 5, 1, 2];
        let mut blocks: Vec<crate::ssa::SsaBlock> = (0..6)
            .map(|i| crate::ssa::SsaBlock {
                phis: Vec::new(),
                stmts: vec![(format!("x{i}"), impure())],
                term: next
                    .get(i)
                    .map_or(Term::Return(Expr::col("x5")), |&s| Term::Jump(s)),
            })
            .collect();
        blocks[5].stmts.push(("y".into(), impure()));
        let mut prog = program(blocks);
        // One pass merges the whole chain, so `optimize` does no more.
        let mut one_pass = prog.clone();
        let mut pass_stats = OptStats::default();
        assert!(merge_straightline(&mut one_pass, &mut pass_stats));
        let stats = optimize(&mut prog, &Catalog::new());
        assert_eq!(
            stats,
            OptStats {
                blocks_removed: 5,
                blocks_merged: 5,
                ..OptStats::default()
            }
        );
        assert_eq!(pass_stats, stats);
        assert_eq!(one_pass.to_text(), prog.to_text());
        assert_eq!(prog.blocks.len(), 1);
        let order: Vec<&str> = prog.blocks[0]
            .stmts
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(order, ["x0", "x3", "x1", "x4", "x2", "x5", "y"]);
        assert_eq!(prog.blocks[0].term, Term::Return(Expr::col("x5")));
    }

    #[test]
    fn resolve_chains_follows_chains_and_stops_on_cycles() {
        let subst = |pairs: &[(&str, Expr)]| -> Subst {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let mut chain = subst(&[
            ("v", Expr::col("w")),
            ("w", Expr::col("x")),
            ("x", Expr::int(3)),
        ]);
        resolve_chains(&mut chain);
        assert_eq!(
            chain,
            subst(&[
                ("v", Expr::int(3)),
                ("w", Expr::int(3)),
                ("x", Expr::int(3))
            ])
        );
        // Mutually trivial φs map a -> b and b -> a. Every round follows one
        // step from the previous round's map, for at most as many rounds as
        // the map has entries: after two rounds each name maps to itself.
        let mut cycle = subst(&[("a", Expr::col("b")), ("b", Expr::col("a"))]);
        resolve_chains(&mut cycle);
        assert_eq!(
            cycle,
            subst(&[("a", Expr::col("a")), ("b", Expr::col("b"))])
        );
        // A three-cycle alternates between two maps; three rounds end on
        // the two-step one.
        let mut three = subst(&[
            ("a", Expr::col("b")),
            ("b", Expr::col("c")),
            ("c", Expr::col("a")),
        ]);
        resolve_chains(&mut three);
        assert_eq!(
            three,
            subst(&[
                ("a", Expr::col("c")),
                ("b", Expr::col("a")),
                ("c", Expr::col("b"))
            ])
        );
    }

    #[test]
    fn mutually_trivial_phis_are_removed() {
        // L1 loops on itself carrying a and b, each φ's only non-self
        // argument being the other one.
        let phi = |target: &str, other: &str| crate::ssa::Phi {
            target: target.into(),
            args: vec![
                (0, PhiArg(Expr::col(other))),
                (1, PhiArg(Expr::col(target))),
            ],
        };
        let mut prog = program(vec![
            crate::ssa::SsaBlock {
                phis: Vec::new(),
                stmts: Vec::new(),
                term: Term::Jump(1),
            },
            crate::ssa::SsaBlock {
                phis: vec![phi("a", "b"), phi("b", "a")],
                stmts: vec![("r".into(), impure())],
                term: Term::Branch {
                    cond: Expr::col("r"),
                    then_: 1,
                    else_: 2,
                },
            },
            crate::ssa::SsaBlock {
                phis: Vec::new(),
                stmts: Vec::new(),
                term: Term::Return(Expr::col("a")),
            },
        ]);
        let mut stats = OptStats::default();
        assert!(remove_trivial_phis(&mut prog, &Catalog::new(), &mut stats));
        assert_eq!(stats.phis_removed, 2);
        assert!(prog.blocks[1].phis.is_empty());
        assert_eq!(prog.blocks[2].term, Term::Return(Expr::col("a")));
    }

    #[test]
    fn walk_like_control_flow_compacts() {
        let (prog, _) = optimized(
            "DECLARE reward int := 0; \
             BEGIN \
               FOR step IN 1..n LOOP \
                 reward := reward + step; \
                 IF reward >= 100 OR reward <= -100 THEN \
                   RETURN step * sign(reward); \
                 END IF; \
               END LOOP; \
               RETURN 0; \
             END",
        );
        // Figure 5 keeps 3 labelled blocks plus the goto-only entry; allow a
        // little slack but reject explosion.
        assert!(
            prog.blocks.len() <= 6,
            "{} blocks:\n{}",
            prog.blocks.len(),
            prog.to_text()
        );
    }
}
