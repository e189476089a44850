//! ANF → one directly tail-recursive SQL UDF (§2 UDF of the paper).
//!
//! The mutual recursion between block functions is flattened with an extra
//! dispatch parameter `fn` (defunctionalization à la Reynolds): one function
//! `f*` whose parameter list is `fn` + the union of all block-function
//! parameters + the original function's parameters (Figure 7).
//!
//! ANF constructs map onto SQL exactly as the paper describes:
//!
//! ```text
//! let v = e1 in e2   =>   SELECT [e2] FROM (SELECT [e1]) AS _k(v)
//!                          LEFT JOIN LATERAL ... ON true
//! if c then a else b =>   CASE WHEN c THEN [a] ELSE [b] END
//! Lx(args)           =>   "f*"(x, args..., params...)
//! ```

use std::collections::HashMap;

use plaway_common::{Error, Result, Type};
use plaway_sql::ast::{
    CreateFunction, Expr, JoinKind, Language, Query, Select, SelectItem, Stmt, TableAlias, TableRef,
};

use crate::anf::{AnfProgram, AnfTail};

/// The flattened, directly recursive SQL UDF plus its wrapper.
#[derive(Debug, Clone)]
pub struct UdfProgram {
    /// Original function name (wrapper).
    pub fn_name: String,
    /// Recursive worker name — the paper writes `walk*`.
    pub rec_name: String,
    /// The source function's parameters, threaded through every call.
    pub fn_params: Vec<(String, Type)>,
    /// Declared return type.
    pub returns: Type,
    /// Union of block-function parameters: `(ssa name, type)`, in first-seen
    /// order. These become `f*` parameters right after `fn`.
    pub rec_vars: Vec<(String, Type)>,
    /// Dispatch tag per reachable ANF function (ANF index → tag).
    pub tags: HashMap<usize, i64>,
    /// The worker's body: one big CASE over `fn`.
    pub body: Expr,
    /// Entry invocation tag (the block function the original call targets).
    pub entry_tag: i64,
    /// Initial values for `rec_vars` (positional, NULL where the entry
    /// target does not bind a variable).
    pub entry_vals: Vec<Expr>,
}

/// Flatten an ANF program into the recursive-UDF form.
pub fn from_anf(anf: &AnfProgram) -> Result<UdfProgram> {
    let reachable = anf.reachable();
    let rec_name = format!("{}*", anf.fn_name);

    // Assign tags to reachable functions (1-based like the paper's L1, L2).
    let mut tags: HashMap<usize, i64> = HashMap::new();
    for (i, r) in reachable.iter().enumerate() {
        if *r {
            let tag = tags.len() as i64 + 1;
            tags.insert(i, tag);
        }
    }

    // Union of block-function parameters.
    let mut rec_vars: Vec<(String, Type)> = Vec::new();
    for (i, f) in anf.funcs.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        for p in &f.params {
            if !rec_vars.iter().any(|(n, _)| n == p) {
                let ty = anf.var_types.get(p).cloned().unwrap_or(Type::Unknown);
                rec_vars.push((p.clone(), ty));
            }
        }
    }

    // Entry: hop over trivial forwarding functions (the optimizer usually
    // leaves the entry as a bare jump after propagating initializers).
    let mut entry_tail = anf.entry.clone();
    for _ in 0..anf.funcs.len() {
        let AnfTail::Call { target, args } = &entry_tail else {
            break;
        };
        let f = &anf.funcs[*target];
        if f.lets.is_empty() && f.params.is_empty() {
            if let AnfTail::Call { .. } = &f.tail {
                debug_assert!(args.is_empty());
                entry_tail = f.tail.clone();
                continue;
            }
        }
        break;
    }
    let AnfTail::Call {
        target: entry_target,
        args: entry_args,
    } = &entry_tail
    else {
        return Err(Error::compile("ANF entry must be a call (compiler bug)"));
    };
    // Recompute reachability from the (possibly hopped) entry.
    let entry_tag = *tags
        .get(entry_target)
        .ok_or_else(|| Error::compile("entry target unreachable (compiler bug)"))?;
    let entry_vals = positional_args(&rec_vars, &anf.funcs[*entry_target].params, entry_args);

    // Worker body: CASE WHEN fn = t THEN <branch> ...
    let body = build_case(
        anf,
        &rec_vars,
        &tags,
        entry_tag,
        &LeafStyle::Call {
            rec_name: rec_name.clone(),
        },
    )?;

    Ok(UdfProgram {
        fn_name: anf.fn_name.clone(),
        rec_name,
        fn_params: anf.fn_params.clone(),
        returns: anf.returns.clone(),
        rec_vars,
        tags,
        body,
        entry_tag,
        entry_vals,
    })
}

/// Map a callee's positional arguments onto the full `rec_vars` vector
/// (NULL for variables the callee does not bind).
fn positional_args(
    rec_vars: &[(String, Type)],
    callee_params: &[String],
    args: &[Expr],
) -> Vec<Expr> {
    rec_vars
        .iter()
        .map(|(var, _)| {
            callee_params
                .iter()
                .position(|p| p == var)
                .map(|i| args[i].clone())
                .unwrap_or_else(Expr::null)
        })
        .collect()
}

/// How the leaves of a body (recursive calls, base cases) are rendered:
/// as actual calls/values (the UDF of Figure 7) or as row constructions for
/// the CTE simulation (Figure 9).
pub(crate) enum LeafStyle<'a> {
    /// `Lx(args)` -> `"f*"(x, args..., params...)`; `ret e` -> `e`.
    Call { rec_name: String },
    /// `Lx(args)` -> `ROW(true, x, args..., params..., NULL)`;
    /// `ret e` -> `ROW(false, NULL..., e)` (flattened), or the nested-record
    /// variant when `packed`. `params` lists the function parameters the CTE
    /// actually carries (pruned to those used beyond initialization).
    RowEncode { packed: bool, params: &'a [String] },
}

/// Build the full dispatch CASE over `fn` with the given leaf rendering.
pub(crate) fn build_case(
    anf: &AnfProgram,
    rec_vars: &[(String, Type)],
    tags: &HashMap<usize, i64>,
    entry_tag: i64,
    style: &LeafStyle,
) -> Result<Expr> {
    let mut called = vec![false; anf.funcs.len()];
    for f in &anf.funcs {
        for (target, _) in f.tail.calls() {
            called[target] = true;
        }
    }
    let mut branches = Vec::new();
    for (i, f) in anf.funcs.iter().enumerate() {
        let Some(&tag) = tags.get(&i) else { continue };
        if !called[i] && tag != entry_tag {
            continue;
        }
        let branch = body_to_expr(anf, rec_vars, tags, f, style)?;
        branches.push((
            Expr::binary(plaway_sql::ast::BinOp::Eq, Expr::col("fn"), Expr::int(tag)),
            branch,
        ));
    }
    Ok(Expr::Case {
        operand: None,
        branches,
        else_: None,
    })
}

/// One ANF function body as a SQL expression.
fn body_to_expr(
    anf: &AnfProgram,
    rec_vars: &[(String, Type)],
    tags: &HashMap<usize, i64>,
    f: &crate::anf::AnfFunction,
    style: &LeafStyle,
) -> Result<Expr> {
    let tail = tail_to_expr(anf, rec_vars, tags, &f.tail, style)?;
    Ok(wrap_lets(&f.lets, tail))
}

/// `let v1 = e1 in ... in inner` as SQL: a scalar subquery whose FROM is a
/// LEFT JOIN LATERAL chain of single-row tables (the paper's §2 UDF rule).
fn wrap_lets(lets: &[(String, Expr)], inner: Expr) -> Expr {
    if lets.is_empty() {
        return inner;
    }
    let mut from: Option<TableRef> = None;
    for (k, (v, e)) in lets.iter().enumerate() {
        // The LATERAL marker lives on the Join node; a bare Derived flag
        // would print "LEFT JOIN LATERAL LATERAL".
        let single = TableRef::Derived {
            lateral: false,
            query: Box::new(Query::simple(Select {
                items: vec![SelectItem::Expr {
                    expr: e.clone(),
                    alias: None,
                }],
                ..Default::default()
            })),
            alias: TableAlias {
                name: format!("_{k}"),
                columns: vec![v.clone()],
            },
        };
        from = Some(match from {
            None => single,
            Some(left) => TableRef::Join {
                left: Box::new(left),
                right: Box::new(single),
                kind: JoinKind::Left,
                lateral: true,
                on: Some(Expr::bool(true)),
            },
        });
    }
    Expr::Subquery(Box::new(Query::simple(Select {
        items: vec![SelectItem::Expr {
            expr: inner,
            alias: None,
        }],
        from: vec![from.expect("at least one let")],
        ..Default::default()
    })))
}

fn tail_to_expr(
    anf: &AnfProgram,
    rec_vars: &[(String, Type)],
    tags: &HashMap<usize, i64>,
    tail: &AnfTail,
    style: &LeafStyle,
) -> Result<Expr> {
    Ok(match tail {
        AnfTail::Ret(e) => match style {
            LeafStyle::Call { .. } => e.clone(),
            LeafStyle::RowEncode { packed: true, .. } => Expr::Row(vec![
                Expr::bool(false),
                Expr::null(),
                Expr::null(),
                e.clone(),
            ]),
            LeafStyle::RowEncode {
                packed: false,
                params,
            } => {
                let mut items = vec![Expr::bool(false), Expr::null()];
                items.extend(rec_vars.iter().map(|_| Expr::null()));
                items.extend(params.iter().map(|_| Expr::null()));
                items.push(e.clone());
                Expr::Row(items)
            }
        },
        AnfTail::If { cond, then_, else_ } => Expr::Case {
            operand: None,
            branches: vec![(
                cond.clone(),
                tail_to_expr(anf, rec_vars, tags, then_, style)?,
            )],
            else_: Some(Box::new(tail_to_expr(anf, rec_vars, tags, else_, style)?)),
        },
        AnfTail::LetChain { lets, body } => {
            let inner = tail_to_expr(anf, rec_vars, tags, body, style)?;
            wrap_lets(lets, inner)
        }
        AnfTail::Call { target, args } => {
            let tag = *tags
                .get(target)
                .ok_or_else(|| Error::compile("call to unreachable function"))?;
            let vals = positional_args(rec_vars, &anf.funcs[*target].params, args);
            match style {
                LeafStyle::Call { rec_name } => {
                    let mut call_args = vec![Expr::int(tag)];
                    call_args.extend(vals);
                    // Thread the original parameters through (Figure 7).
                    call_args.extend(anf.fn_params.iter().map(|(p, _)| Expr::col(p.clone())));
                    Expr::Func {
                        name: rec_name.clone(),
                        args: call_args,
                    }
                }
                LeafStyle::RowEncode {
                    packed: true,
                    params,
                } => {
                    let mut packed_args = vals;
                    packed_args.extend(params.iter().map(|p| Expr::col(p.clone())));
                    Expr::Row(vec![
                        Expr::bool(true),
                        Expr::int(tag),
                        Expr::Row(packed_args),
                        Expr::null(),
                    ])
                }
                LeafStyle::RowEncode {
                    packed: false,
                    params,
                } => {
                    let mut items = vec![Expr::bool(true), Expr::int(tag)];
                    items.extend(vals);
                    items.extend(params.iter().map(|p| Expr::col(p.clone())));
                    items.push(Expr::null());
                    Expr::Row(items)
                }
            }
        }
    })
}

impl UdfProgram {
    /// `CREATE FUNCTION "f*"(fn int, vars..., params...) RETURNS τ`.
    pub fn create_worker(&self) -> Stmt {
        let mut params: Vec<(String, String)> = vec![("fn".into(), "int".into())];
        for (v, ty) in &self.rec_vars {
            params.push((v.clone(), udf_type_name(ty)));
        }
        for (p, ty) in &self.fn_params {
            params.push((p.clone(), udf_type_name(ty)));
        }
        Stmt::CreateFunction(CreateFunction {
            or_replace: true,
            name: self.rec_name.clone(),
            params,
            returns: udf_type_name(&self.returns),
            language: Language::Sql,
            body: format!(" SELECT {} ", self.body),
        })
    }

    /// `CREATE FUNCTION f(params) RETURNS τ AS 'SELECT "f*"(entry...)'`.
    pub fn create_wrapper(&self) -> Stmt {
        let call = self.entry_call_expr();
        Stmt::CreateFunction(CreateFunction {
            or_replace: true,
            name: self.fn_name.clone(),
            params: self
                .fn_params
                .iter()
                .map(|(p, ty)| (p.clone(), udf_type_name(ty)))
                .collect(),
            returns: udf_type_name(&self.returns),
            language: Language::Sql,
            body: format!(" SELECT {call} "),
        })
    }

    /// The worker invocation expression for the original call.
    pub fn entry_call_expr(&self) -> Expr {
        let mut args = vec![Expr::int(self.entry_tag)];
        args.extend(self.entry_vals.iter().cloned());
        for (p, _) in &self.fn_params {
            args.push(Expr::col(p.clone()));
        }
        Expr::Func {
            name: self.rec_name.clone(),
            args,
        }
    }

    /// Both CREATE FUNCTION statements as SQL text (Figure 7).
    pub fn to_sql(&self) -> String {
        format!("{};\n\n{};\n", self.create_wrapper(), self.create_worker())
    }
}

/// SQL type name for a UDF signature; `Unknown` degrades to `text` (values
/// are dynamically typed at runtime, the name only matters for display and
/// re-parsing).
fn udf_type_name(ty: &Type) -> String {
    match ty {
        Type::Unknown => "text".to_string(),
        other => other.sql_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::Catalog;
    use plaway_plsql::parse_create_function;

    fn udf_of(body: &str) -> UdfProgram {
        let sql = format!("CREATE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql");
        let f = parse_create_function(&sql).unwrap();
        let cat = Catalog::new();
        let cfg = crate::cfg::lower(&f, &cat).unwrap();
        let mut prog = crate::ssa::build(&cfg, &cat).unwrap();
        crate::opt::optimize(&mut prog, &cat);
        let anf = crate::anf::from_ssa(&prog).unwrap();
        from_anf(&anf).unwrap()
    }

    #[test]
    fn worker_is_named_with_star() {
        let u = udf_of("BEGIN RETURN n; END");
        assert_eq!(u.rec_name, "f*");
        let sql = u.to_sql();
        assert!(sql.contains("\"f*\""), "{sql}");
    }

    #[test]
    fn loop_body_contains_recursive_call() {
        let u = udf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        let body = u.body.to_string();
        assert!(body.contains("\"f*\"("), "recursive call expected: {body}");
        assert!(body.contains("CASE WHEN fn = "), "{body}");
    }

    #[test]
    fn lets_become_lateral_chain() {
        let u = udf_of(
            "DECLARE a int; b int; \
             BEGIN \
               a := n + 1; \
               b := a * 2; \
               IF b > 10 THEN RETURN b; END IF; \
               RETURN a; \
             END",
        );
        let body = u.body.to_string();
        // Two lets in one block produce a LEFT JOIN LATERAL chain.
        assert!(body.contains("LEFT JOIN LATERAL"), "{body}");
        assert!(body.contains("AS _0("), "{body}");
    }

    #[test]
    fn worker_signature_carries_vars_and_params() {
        let u = udf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        let Stmt::CreateFunction(cf) = u.create_worker() else {
            panic!()
        };
        assert_eq!(cf.params[0], ("fn".to_string(), "int".to_string()));
        assert!(
            cf.params.iter().any(|(p, _)| p == "n"),
            "original param threaded: {:?}",
            cf.params
        );
        assert!(cf.params.len() >= 3);
    }

    #[test]
    fn wrapper_calls_worker_with_entry_tag() {
        let u = udf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        let call = u.entry_call_expr().to_string();
        assert!(
            call.starts_with("\"f*\"("),
            "wrapper must invoke the worker: {call}"
        );
        // Entry binds s to 0 (propagated constant initializer).
        assert!(call.contains('0'), "{call}");
    }

    #[test]
    fn emitted_sql_reparses() {
        let u = udf_of(
            "DECLARE s int := 0; \
             BEGIN \
               FOR i IN 1..n LOOP \
                 s := s + i; \
                 EXIT WHEN s > 100; \
               END LOOP; \
               RETURN s; \
             END",
        );
        for stmt in [u.create_worker(), u.create_wrapper()] {
            let text = stmt.to_string();
            plaway_sql::parse_statement(&text)
                .unwrap_or_else(|e| panic!("emitted SQL must re-parse: {e}\n{text}"));
        }
    }

    #[test]
    fn straight_line_function_has_no_recursion() {
        let u = udf_of("BEGIN RETURN n * n; END");
        let body = u.body.to_string();
        assert!(
            !body.contains("\"f*\"("),
            "no recursive call for loop-free input: {body}"
        );
    }
}
