//! The compilation driver: PL/pgSQL in, pure SQL out, every intermediate
//! form retained (Figure 4's SSA → ANF → UDF → SQL chain).

use std::sync::Arc;

use plaway_common::{Result, Value};
use plaway_engine::{Catalog, ParamScope, PreparedPlan, Session};
use plaway_plsql::ast::PlFunction;
use plaway_sql::ast::Query;

use crate::anf::AnfProgram;
use crate::cte::{build_queries, ArgsLayout, CteMode, BATCH_RID};
use crate::opt::OptStats;
use crate::ssa::SsaProgram;
use crate::udf::UdfProgram;

/// Compiler switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the SSA simplification passes (§2's "code simplifications").
    pub optimize: bool,
    /// How the CTE carries arguments.
    pub layout: ArgsLayout,
    /// `WITH RECURSIVE` vs `WITH ITERATE`.
    pub mode: CteMode,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            layout: ArgsLayout::Flattened,
            mode: CteMode::Recursive,
        }
    }
}

impl CompileOptions {
    /// Defaults, but with the `WITH ITERATE` fixpoint.
    pub fn iterate() -> Self {
        CompileOptions {
            mode: CteMode::Iterate,
            ..Default::default()
        }
    }

    /// Defaults, but with the packed (single record column) layout.
    pub fn packed() -> Self {
        CompileOptions {
            layout: ArgsLayout::Packed,
            ..Default::default()
        }
    }
}

/// The result of compiling one function: the final query plus every
/// intermediate form for inspection (the paper shows each one).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The switches this artifact was compiled with.
    pub options: CompileOptions,
    /// The parsed source function.
    pub source: PlFunction,
    /// Goto form (pre-SSA), Figure 5's flavor.
    pub goto_text: String,
    /// SSA form (after simplification when `options.optimize`).
    pub ssa: SsaProgram,
    /// Figure 5-style rendering of [`Compiled::ssa`].
    pub ssa_text: String,
    /// ANF form (after inlining when `options.optimize`).
    pub anf: AnfProgram,
    /// Figure 6-style rendering of [`Compiled::anf`].
    pub anf_text: String,
    /// The defunctionalized recursive UDF (Figure 7).
    pub udf: UdfProgram,
    /// The two CREATE FUNCTION statements of Figure 7.
    pub udf_sql: String,
    /// The pure-SQL query (Figure 8/9). Function parameters appear as free
    /// identifiers bound via [`ParamScope`].
    pub query: Query,
    /// [`Compiled::query`] rendered as SQL text.
    pub sql: String,
    /// The original parameter names, in order (for [`ParamScope`] binding).
    pub param_names: Vec<String>,
    /// The batched variant of [`Compiled::query`]: one in-flight activation
    /// per row of [`Compiled::batch_table`], all driven through a single
    /// fixpoint (see [`Compiled::run_batch`]).
    pub batch_query: Query,
    /// [`Compiled::batch_query`] rendered as SQL text.
    pub batch_sql: String,
    /// The batch input table the batched query scans: `"call#" int` plus one
    /// column per function parameter.
    pub batch_table: String,
    /// What the SSA simplification passes did.
    pub opt_stats: OptStats,
}

/// Compile a parsed PL/pgSQL function against a catalog.
pub fn compile(
    catalog: &Catalog,
    function: &PlFunction,
    options: CompileOptions,
) -> Result<Compiled> {
    let cfg = crate::cfg::lower(function, catalog)?;
    let goto_text = cfg.to_text();
    let mut ssa = crate::ssa::build(&cfg, catalog)?;
    let opt_stats = if options.optimize {
        crate::opt::optimize(&mut ssa, catalog)
    } else {
        OptStats::default()
    };
    ssa.validate()?;
    let ssa_text = ssa.to_text();
    let mut anf = crate::anf::from_ssa(&ssa)?;
    if options.optimize {
        // Inline trivial block functions (loop tests, bare returns): one
        // CTE iteration per source-loop iteration instead of two.
        crate::anf::inline_trivial(&mut anf, catalog);
        anf.validate()?;
    }
    let anf_text = anf.to_text();
    let udf = crate::udf::from_anf(&anf)?;
    let udf_sql = udf.to_sql();
    let batch_table = format!("batch#{}", udf.fn_name);
    let (query, batch_query) = build_queries(
        &anf,
        &udf,
        catalog,
        options.layout,
        options.mode,
        &batch_table,
    )?;
    let sql = query.to_string();
    let batch_sql = batch_query.to_string();
    let param_names: Vec<String> = function.params.iter().map(|(n, _)| n.clone()).collect();
    Ok(Compiled {
        options,
        source: function.clone(),
        goto_text,
        ssa,
        ssa_text,
        anf,
        anf_text,
        udf,
        udf_sql,
        query,
        sql,
        param_names,
        batch_query,
        batch_sql,
        batch_table,
        opt_stats,
    })
}

/// Compile straight from `CREATE FUNCTION ... LANGUAGE plpgsql` source text.
///
/// ```
/// use plaway_common::Value;
/// use plaway_core::{compile_sql, CompileOptions};
/// use plaway_engine::Session;
///
/// let mut session = Session::default();
/// let src = "CREATE FUNCTION triple(n int) RETURNS int AS $$ \
///            DECLARE t int := 0; \
///            BEGIN \
///              FOR i IN 1..3 LOOP t := t + n; END LOOP; \
///              RETURN t; \
///            END $$ LANGUAGE plpgsql";
/// let compiled = compile_sql(&session.catalog, src, CompileOptions::default()).unwrap();
/// assert!(compiled.sql.starts_with("WITH RECURSIVE"));
/// assert_eq!(
///     compiled.run(&mut session, &[Value::Int(14)]).unwrap(),
///     Value::Int(42),
/// );
/// ```
pub fn compile_sql(
    catalog: &Catalog,
    create_function_sql: &str,
    options: CompileOptions,
) -> Result<Compiled> {
    let f = plaway_plsql::parse_create_function(create_function_sql)?;
    compile(catalog, &f, options)
}

impl Compiled {
    /// Prepare the compiled query in a session (plan once, run many). The
    /// plan is cached under [`Compiled::sql`], as if prepared from that
    /// text, but a cache miss plans [`Compiled::query`] without parsing.
    pub fn prepare(&self, session: &mut Session) -> Result<Arc<PreparedPlan>> {
        let scope = ParamScope::new(self.param_names.clone());
        session.prepare_parsed(&self.sql, &self.query, &scope)
    }

    /// One-shot execution with the given arguments.
    pub fn run(&self, session: &mut Session, args: &[Value]) -> Result<Value> {
        let plan = self.prepare(session)?;
        session.execute_prepared(&plan, args.to_vec())?.scalar()
    }

    /// Run the whole batch of invocations — one argument vector per input
    /// row — through a *single* fixpoint, returning one result per row in
    /// input order. The batch pays one executor lifecycle total (via
    /// [`Session::execute_batch`]), instead of one per call; under
    /// [`CteMode::Iterate`] the fixpoint is `WITH RETIRE`, so each
    /// activation leaves the working set the moment it finishes.
    pub fn run_batch(&self, session: &mut Session, calls: &[Vec<Value>]) -> Result<Vec<Value>> {
        let plan = self.prepare_batch(session, calls)?;
        let result = session.execute_prepared(&plan, Vec::new())?;
        // Scatter by row id: retirement order is not input order.
        let mut out: Vec<Option<Value>> = vec![None; calls.len()];
        for mut row in result.rows {
            if row.len() != 2 {
                return Err(plaway_common::Error::exec(format!(
                    "batch query returned a {}-column row, expected (\"call#\", result)",
                    row.len()
                )));
            }
            let value = row.pop().expect("length checked");
            let rid = row.pop().expect("length checked");
            let i = rid.as_int()? as usize;
            if i >= out.len() || out[i].replace(value).is_some() {
                return Err(plaway_common::Error::exec(format!(
                    "batch row id {i} out of range or duplicated"
                )));
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| {
                    plaway_common::Error::exec(format!("batch row {i} produced no result"))
                })
            })
            .collect()
    }

    /// Load `calls` into [`Compiled::batch_table`] and prepare the batch
    /// query: the setup half of [`Compiled::run_batch`], split out so
    /// harnesses can time the single fixpoint by itself (input table
    /// loaded, plan cached) — the paper's scenario of applying a UDF to a
    /// table that already exists.
    pub fn prepare_batch(
        &self,
        session: &mut Session,
        calls: &[Vec<Value>],
    ) -> Result<Arc<PreparedPlan>> {
        let n_params = self.param_names.len();
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(calls.len());
        for (i, args) in calls.iter().enumerate() {
            if args.len() != n_params {
                return Err(plaway_common::Error::exec(format!(
                    "batch row {i}: expected {n_params} arguments, got {}",
                    args.len()
                )));
            }
            let mut row = Vec::with_capacity(n_params + 1);
            row.push(Value::Int(i as i64));
            row.extend(args.iter().cloned());
            rows.push(row);
        }
        self.ensure_batch_table(session)?;
        session.replace_rows(&self.batch_table, rows)?;
        session.prepare_parsed(
            &self.batch_sql,
            &self.batch_query,
            &ParamScope::new(Vec::new()),
        )
    }

    /// Create [`Compiled::batch_table`] if the database does not have it
    /// yet (`ensure_table` makes the check-and-create atomic, so sessions
    /// racing to stage their first batch cannot fail each other).
    fn ensure_batch_table(&self, session: &mut Session) -> Result<()> {
        if !session.catalog.has_table(&self.batch_table) {
            let mut cols = vec![plaway_engine::Column {
                name: BATCH_RID.into(),
                ty: plaway_common::Type::Int,
            }];
            for (p, ty) in &self.udf.fn_params {
                cols.push(plaway_engine::Column {
                    name: p.clone(),
                    ty: ty.clone(),
                });
            }
            session.ensure_table(&self.batch_table, cols)?;
        }
        Ok(())
    }

    /// Register the Figure 7 artifacts (worker + wrapper UDF) in a session —
    /// the "recursive SQL UDF" execution mode of the ablation benchmarks.
    pub fn install_udfs(&self, session: &mut Session) -> Result<()> {
        let worker = self.udf.create_worker().to_string();
        let wrapper = self.udf.create_wrapper().to_string();
        session.run(&worker)?;
        session.run(&wrapper)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::Session;

    const FIB_SRC: &str = "CREATE FUNCTION fib(n int) RETURNS int AS $$ \
        DECLARE a int := 0; b int := 1; t int; \
        BEGIN \
          FOR i IN 1..n LOOP t := a + b; a := b; b := t; END LOOP; \
          RETURN a; \
        END $$ LANGUAGE plpgsql";

    #[test]
    fn full_pipeline_produces_all_forms() {
        let s = Session::default();
        let c = compile_sql(&s.catalog, FIB_SRC, CompileOptions::default()).unwrap();
        assert!(c.goto_text.contains("goto"));
        assert!(c.ssa_text.contains("phi("));
        assert!(c.anf_text.contains("letrec"));
        assert!(c.udf_sql.contains("\"fib*\""));
        assert!(c.sql.starts_with("WITH RECURSIVE"));
        assert_eq!(c.param_names, vec!["n"]);
    }

    #[test]
    fn compiled_fib_equals_reference() {
        let mut s = Session::default();
        let c = compile_sql(&s.catalog, FIB_SRC, CompileOptions::default()).unwrap();
        let expect = [0i64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (n, &f) in expect.iter().enumerate() {
            assert_eq!(
                c.run(&mut s, &[Value::Int(n as i64)]).unwrap(),
                Value::Int(f),
                "fib({n})"
            );
        }
    }

    #[test]
    fn all_option_combinations_agree() {
        let mut s = Session::default();
        for options in [
            CompileOptions::default(),
            CompileOptions::iterate(),
            CompileOptions::packed(),
            CompileOptions {
                optimize: false,
                ..Default::default()
            },
            CompileOptions {
                optimize: false,
                layout: ArgsLayout::Packed,
                mode: CteMode::Iterate,
            },
        ] {
            let c = compile_sql(&s.catalog, FIB_SRC, options).unwrap();
            assert_eq!(
                c.run(&mut s, &[Value::Int(20)]).unwrap(),
                Value::Int(6765),
                "options {options:?}"
            );
        }
    }

    #[test]
    fn recursive_udf_mode_runs_too() {
        let mut s = Session::default();
        let c = compile_sql(&s.catalog, FIB_SRC, CompileOptions::default()).unwrap();
        c.install_udfs(&mut s).unwrap();
        assert_eq!(
            s.query_scalar("SELECT fib(15)").unwrap(),
            Value::Int(610),
            "the Figure 7 UDF evaluates directly"
        );
    }

    #[test]
    fn inlining_into_an_embracing_query() {
        let mut s = Session::default();
        s.run("CREATE TABLE nums (n int)").unwrap();
        s.run("INSERT INTO nums VALUES (5), (7), (9)").unwrap();
        let c = compile_sql(&s.catalog, FIB_SRC, CompileOptions::default()).unwrap();
        let q = plaway_sql::parse_query("SELECT fib(nums.n) FROM nums ORDER BY nums.n").unwrap();
        let inlined = crate::inline::inline_into_query(q, &c, &s.catalog).unwrap();
        let text = inlined.to_string();
        assert!(!text.contains("fib("), "call must be gone: {text}");
        let result = s.run(&text).unwrap();
        assert_eq!(
            result.rows,
            vec![
                vec![Value::Int(5)],
                vec![Value::Int(13)],
                vec![Value::Int(34)],
            ]
        );
    }

    #[test]
    fn exception_handler_compiles_and_recovers() {
        // A raised condition becomes a tagged row that transfers control to
        // the handler arm — the query keeps running.
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             DECLARE acc int := 0; i int := 1; \
             BEGIN \
               WHILE i <= n LOOP \
                 BEGIN \
                   acc := acc + i; \
                   IF acc > 10 THEN RAISE overflow; END IF; \
                 EXCEPTION WHEN overflow THEN acc := 10; END; \
                 i := i + 1; \
               END LOOP; \
               RETURN acc; \
             END $$ LANGUAGE plpgsql";
        for options in [
            CompileOptions::default(),
            CompileOptions::iterate(),
            CompileOptions::packed(),
        ] {
            let c = compile_sql(&s.catalog, src, options).unwrap();
            // 1+2+3+4 = 10, +5 -> 15 -> clamp 10, stays clamped.
            assert_eq!(
                c.run(&mut s, &[Value::Int(8)]).unwrap(),
                Value::Int(10),
                "{options:?}"
            );
            assert_eq!(c.run(&mut s, &[Value::Int(3)]).unwrap(), Value::Int(6));
        }
    }

    #[test]
    fn uncaught_raise_aborts_both_regimes_identically() {
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             BEGIN \
               IF n > 2 THEN RAISE EXCEPTION 'boom %', n; END IF; \
               RETURN n; \
             END $$ LANGUAGE plpgsql";
        s.run(src).unwrap();
        let mut interp = plaway_interp::Interpreter::new();
        let ierr = interp.call(&mut s, "f", &[Value::Int(7)]).unwrap_err();
        let c = compile_sql(&s.catalog, src, CompileOptions::default()).unwrap();
        let cerr = c.run(&mut s, &[Value::Int(7)]).unwrap_err();
        assert_eq!(ierr.to_string(), cerr.to_string());
        assert!(cerr.to_string().contains("boom 7"), "{cerr}");
        // And the non-raising path still runs.
        assert_eq!(c.run(&mut s, &[Value::Int(2)]).unwrap(), Value::Int(2));
    }

    #[test]
    fn for_over_query_compiles_and_runs() {
        let mut s = Session::default();
        s.run("CREATE TABLE ledger (amount int, kind int)").unwrap();
        s.run("INSERT INTO ledger VALUES (10, 1), (4, 2), (7, 1), (2, 2)")
            .unwrap();
        let src = "CREATE FUNCTION f(lim int) RETURNS int AS $$ \
             DECLARE total int := 0; \
             BEGIN \
               FOR o IN SELECT l.amount AS amount, l.kind AS kind FROM ledger AS l LOOP \
                 IF o.kind = 1 THEN total := total + o.amount; \
                 ELSE total := total - o.amount; END IF; \
                 EXIT WHEN total > lim; \
               END LOOP; \
               RETURN total; \
             END $$ LANGUAGE plpgsql";
        s.run(src).unwrap();
        let mut interp = plaway_interp::Interpreter::new();
        for lim in [100i64, 12, 5, 0] {
            let reference = interp.call(&mut s, "f", &[Value::Int(lim)]).unwrap();
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let c = compile_sql(&s.catalog, src, options).unwrap();
                assert_eq!(
                    c.run(&mut s, &[Value::Int(lim)]).unwrap(),
                    reference,
                    "lim {lim} options {options:?}"
                );
            }
        }
    }

    #[test]
    fn optimization_shrinks_the_output() {
        let s = Session::default();
        let optimized = compile_sql(&s.catalog, FIB_SRC, CompileOptions::default()).unwrap();
        let raw = compile_sql(
            &s.catalog,
            FIB_SRC,
            CompileOptions {
                optimize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            optimized.sql.len() < raw.sql.len(),
            "optimized {} vs raw {}",
            optimized.sql.len(),
            raw.sql.len()
        );
    }
}
