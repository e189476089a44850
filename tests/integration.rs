//! Cross-crate integration tests: the full journey from PL/pgSQL source
//! through every intermediate form to engine execution, exercised via the
//! public facade.

use plsql_away::compiler::inline::inline_into_query;
use plsql_away::prelude::*;
use plsql_away::workloads::{extras, fib, fsa, graph, grid};

/// All workloads of the paper agree between the interpreter and every
/// compiled variant.
#[test]
fn paper_workloads_agree_across_all_modes() {
    // walk (randomized: fix the seed per run).
    let mut s = Session::default();
    grid::GridWorld::generate(5, 5, 42).install(&mut s).unwrap();
    let w = grid::walk_workload();
    w.install(&mut s).unwrap();
    let mut interp = Interpreter::new();
    let args = [
        Value::coord(2, 2),
        Value::Int(8),
        Value::Int(-8),
        Value::Int(200),
    ];
    for options in [
        CompileOptions::default(),
        CompileOptions::iterate(),
        CompileOptions::packed(),
    ] {
        let compiled = compile_sql(&s.catalog, &w.source, options).unwrap();
        s.set_seed(12345);
        let reference = interp.call(&mut s, "walk", &args).unwrap();
        s.set_seed(12345);
        let got = compiled.run(&mut s, &args).unwrap();
        assert_eq!(got, reference, "walk, options {options:?}");
    }

    // parse.
    let mut s = Session::default();
    fsa::install_fsa(&mut s).unwrap();
    let w = fsa::parse_workload();
    w.install(&mut s).unwrap();
    let input = Value::text(fsa::generate_input(500, 7));
    let reference = interp
        .call(&mut s, "parse", std::slice::from_ref(&input))
        .unwrap();
    assert_eq!(reference, Value::Int(500));
    for options in [CompileOptions::default(), CompileOptions::iterate()] {
        let compiled = compile_sql(&s.catalog, &w.source, options).unwrap();
        assert_eq!(
            compiled.run(&mut s, std::slice::from_ref(&input)).unwrap(),
            reference,
            "parse, options {options:?}"
        );
    }

    // traverse.
    let mut s = Session::default();
    let g = graph::Digraph::generate(300, 5);
    g.install(&mut s).unwrap();
    let w = graph::traverse_workload();
    w.install(&mut s).unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    for start in [1i64, 50, 200] {
        let args = [Value::Int(start), Value::Int(40)];
        let reference = interp.call(&mut s, "traverse", &args).unwrap();
        assert_eq!(compiled.run(&mut s, &args).unwrap(), reference);
        assert_eq!(reference.as_int().unwrap(), g.traverse_reference(start, 40));
    }

    // fibonacci.
    let mut s = Session::default();
    let w = fib::fib_workload();
    w.install(&mut s).unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.run(&mut s, &[Value::Int(80)]).unwrap(),
        Value::Int(fib::fib_reference(80))
    );
}

/// The compiled intermediate forms carry the paper's structure (Figures 5-9).
#[test]
fn walk_intermediate_forms_match_figures() {
    let mut s = Session::default();
    grid::GridWorld::generate(5, 5, 42).install(&mut s).unwrap();
    let w = grid::walk_workload();
    w.install(&mut s).unwrap();
    let c = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();

    // Figure 5: SSA renames variables inside embedded queries.
    assert!(
        c.ssa_text.contains("phi("),
        "loop head must carry phis:\n{}",
        c.ssa_text
    );
    assert!(
        c.ssa_text.contains("= p.loc") && c.ssa_text.contains("location"),
        "Q1 with substituted variable expected:\n{}",
        c.ssa_text
    );

    // Figure 6: mutually tail-recursive letrec functions.
    assert!(c.anf_text.contains("letrec"), "{}", c.anf_text);
    assert!(c.anf.has_recursion(), "walk loops, ANF must recurse");

    // Figure 7: one defunctionalized worker + wrapper.
    assert!(c.udf_sql.contains("\"walk*\""), "{}", c.udf_sql);
    assert!(c.udf_sql.contains("fn int"), "{}", c.udf_sql);

    // Figure 8: the CTE template.
    assert!(c.sql.starts_with("WITH RECURSIVE run("), "{}", c.sql);
    assert!(c.sql.contains("UNION ALL"), "{}", c.sql);
    assert!(c.sql.contains("\"call?\""), "{}", c.sql);
    assert!(c.sql.contains("WHERE NOT r.\"call?\""), "{}", c.sql);
    // Figure 9: recursive calls encoded as rows.
    assert!(c.sql.contains("ROW(true,"), "{}", c.sql);
    assert!(c.sql.contains("ROW(false,"), "{}", c.sql);

    // The emitted SQL re-parses to the same AST.
    let reparsed = plsql_away::sql::parse_query(&c.sql).unwrap();
    assert_eq!(reparsed, c.query);
}

/// §2 "Finalization": inline the compiled query into an embracing query and
/// evaluate everything as one statement.
#[test]
fn inlining_matches_per_call_results() {
    let mut s = Session::default();
    let w = extras::gcd_workload();
    w.install(&mut s).unwrap();
    s.run("CREATE TABLE pairs (a int, b int)").unwrap();
    s.run("INSERT INTO pairs VALUES (12, 18), (17, 5), (270, 192), (0, 9)")
        .unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    let pairs = [(12, 18), (17, 5), (270, 192), (0, 9)];
    let b_of = |a: i64| pairs.iter().find(|p| p.0 == a).unwrap().1;
    // sum(b) over the pairs whose gcd equals that of the pair with this `a`.
    let gcd_sum = |a: i64| -> i64 {
        let g = extras::gcd_reference(a, b_of(a));
        pairs
            .iter()
            .filter(|(x, y)| extras::gcd_reference(*x, *y) == g)
            .map(|p| p.1)
            .sum()
    };
    let cases: [(&str, &dyn Fn(i64) -> i64); 3] = [
        (
            "SELECT pairs.a, pairs.b, gcd(pairs.a, pairs.b) FROM pairs ORDER BY pairs.a",
            &|a| extras::gcd_reference(a, b_of(a)),
        ),
        // Call sites inside an inline and a named window spec.
        (
            "SELECT pairs.a, sum(pairs.b) OVER (PARTITION BY gcd(pairs.a, pairs.b)) FROM pairs",
            &gcd_sum,
        ),
        (
            "SELECT pairs.a, sum(pairs.b) OVER w FROM pairs \
             WINDOW w AS (PARTITION BY gcd(pairs.a, pairs.b))",
            &gcd_sum,
        ),
    ];
    for (sql, expected) in cases {
        let q = plsql_away::sql::parse_query(sql).unwrap();
        let inlined = inline_into_query(q, &compiled, &s.catalog).unwrap();
        let text = inlined.to_string();
        assert!(!text.contains("gcd("), "call site must be spliced: {text}");
        let result = s.run(&text).unwrap();
        assert_eq!(result.rows.len(), pairs.len(), "{sql}");
        for row in &result.rows {
            let a = row[0].as_int().unwrap();
            let got = row.last().unwrap().as_int().unwrap();
            assert_eq!(got, expected(a), "{sql}: row a = {a}");
        }
    }
}

/// Deep recursive-UDF evaluation nests many native executor frames per call;
/// debug builds have fat frames, so give these tests a roomy stack (the
/// engine's depth limit is calibrated for release frames / 2MB stacks).
fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// The recursive SQL UDF stage is executable on its own and hits the
/// engine's depth limit exactly as §2 describes.
#[test]
fn udf_stage_runs_and_hits_stack_limit() {
    with_big_stack(udf_stage_runs_and_hits_stack_limit_inner)
}

fn udf_stage_runs_and_hits_stack_limit_inner() {
    let mut s = Session::default();
    let w = extras::power_workload();
    w.install(&mut s).unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    compiled.install_udfs(&mut s).unwrap();
    assert_eq!(
        s.query_scalar("SELECT powmod(7, 13, 97)").unwrap(),
        Value::Int(extras::powmod_reference(7, 13, 97))
    );

    // fibonacci via UDF overruns the call-depth limit quickly. Pin the
    // limit low so the error fires deterministically well inside the test
    // thread's 2MB stack even in debug builds.
    s.config.max_udf_depth = 64;
    let w = fib::fib_workload();
    w.install(&mut s).unwrap();
    let fibc = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    fibc.install_udfs(&mut s).unwrap();
    let err = s.query_scalar("SELECT fibonacci(100000)").unwrap_err();
    assert!(
        err.to_string().contains("stack depth"),
        "expected the paper's depth-limit failure, got {err}"
    );
    // ... while the compiled CTE sails through the same iteration count.
    assert_eq!(
        fibc.run(&mut s, &[Value::Int(100_000)]).unwrap(),
        Value::Int(fib::fib_reference(100_000))
    );
}

/// Compilation is catalog-aware: unknown relations in embedded queries are
/// reported at compile time (like PostgreSQL's validation), and unsupported
/// constructs carry actionable messages.
#[test]
fn compile_errors_are_actionable() {
    let s = Session::default();
    let err = compile_sql(
        &s.catalog,
        "CREATE FUNCTION f(n int) RETURNS int AS $$ \
         BEGIN RETURN (SELECT v FROM missing_table WHERE k = n); END \
         $$ LANGUAGE plpgsql",
        CompileOptions::default(),
    )
    .map(|c| c.sql.clone());
    // Planning of the compiled query fails at prepare time instead if the
    // compiler itself stays syntactic; accept either, but the message must
    // name the relation.
    if let Err(e) = err {
        assert!(e.to_string().contains("missing_table"), "{e}");
    }

    let err = compile_sql(
        &s.catalog,
        "CREATE FUNCTION f(n int) RETURNS int AS $$ \
         BEGIN EXECUTE 'SELECT 1'; RETURN 1; END $$ LANGUAGE plpgsql",
        CompileOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("EXECUTE"), "{e}", e = err);
    assert!(err.to_string().contains("DESIGN.md"), "{e}", e = err);

    // RAISE EXCEPTION now compiles: an uncaught raise aborts the query at
    // runtime with the condition and the formatted message.
    let mut s = Session::default();
    let c = compile_sql(
        &s.catalog,
        "CREATE FUNCTION f(n int) RETURNS int AS $$ \
         BEGIN RAISE EXCEPTION 'no'; RETURN 1; END $$ LANGUAGE plpgsql",
        CompileOptions::default(),
    )
    .unwrap();
    let err = c.run(&mut s, &[Value::Int(0)]).unwrap_err();
    assert_eq!(err.to_string(), "raise_exception: no");
}

/// Session-seeded `random()` makes the randomized workload reproducible in
/// BOTH regimes — the property every differential walk test relies on.
#[test]
fn seeded_random_reproducibility() {
    let mut s = Session::default();
    grid::GridWorld::generate(4, 4, 1).install(&mut s).unwrap();
    let w = grid::walk_workload();
    w.install(&mut s).unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    let args = [
        Value::coord(1, 1),
        Value::Int(6),
        Value::Int(-6),
        Value::Int(100),
    ];
    s.set_seed(55);
    let a = compiled.run(&mut s, &args).unwrap();
    s.set_seed(55);
    let b = compiled.run(&mut s, &args).unwrap();
    assert_eq!(a, b, "same seed, same walk");
}

// ---------------------------------------------------------------------------
// Materialize-once row loops (the compiled cursor operator)

/// Install a `t(k, v)` table with `n` rows `(i, 10 * i)`.
fn install_rows(s: &mut Session, table: &str, n: i64) {
    s.run(&format!("DROP TABLE IF EXISTS {table}")).unwrap();
    s.run(&format!("CREATE TABLE {table} (k int, v int)"))
        .unwrap();
    let rows: Vec<Vec<Value>> = (1..=n)
        .map(|i| vec![Value::Int(i), Value::Int(10 * i)])
        .collect();
    s.bulk_insert(table, rows).unwrap();
}

/// The loop source is executed exactly once per loop entry: O(n) row
/// touches for an n-row source, one snapshot materialized, one released —
/// not the O(n²) `LIMIT 1 OFFSET i-1` re-scans of the old desugaring.
#[test]
fn row_loop_source_runs_once_per_entry() {
    let n = 60i64;
    let mut s = Session::default();
    install_rows(&mut s, "t", n);
    let src = "CREATE FUNCTION f(z int) RETURNS int AS $$ \
               DECLARE s int := 0; \
               BEGIN \
                 FOR r IN SELECT t.k AS k, t.v AS v FROM t LOOP \
                   s := s + r.v - r.k; \
                 END LOOP; \
                 RETURN s; \
               END $$ LANGUAGE plpgsql";
    s.run(src).unwrap();
    let mut interp = Interpreter::new();
    let reference = interp.call(&mut s, "f", &[Value::Int(0)]).unwrap();
    for options in [CompileOptions::default(), CompileOptions::iterate()] {
        let c = compile_sql(&s.catalog, src, options).unwrap();
        let plan = c.prepare(&mut s).unwrap();
        s.reset_instrumentation();
        let got = s.execute_prepared(&plan, vec![Value::Int(0)]).unwrap();
        assert_eq!(got.rows[0][0], reference, "{options:?}");
        assert_eq!(s.stats.snapshots_materialized, 1, "one loop entry");
        assert_eq!(s.stats.snapshots_released, 1, "no snapshot leaks");
        assert_eq!(
            s.stats.rows_scanned, n as u64,
            "source scanned once, O(n) row touches ({options:?})"
        );
    }
}

/// A nested row loop re-materializes its source once per *entry* (outer
/// iteration), never per inner iteration — and every snapshot is released.
#[test]
fn nested_row_loops_rematerialize_per_entry_and_release() {
    let (m, n) = (7i64, 5i64);
    let mut s = Session::default();
    install_rows(&mut s, "a", m);
    install_rows(&mut s, "b", n);
    let src = "CREATE FUNCTION f(z int) RETURNS int AS $$ \
               DECLARE s int := 0; \
               BEGIN \
                 FOR x IN SELECT a.v AS v FROM a LOOP \
                   FOR y IN SELECT b.v AS v FROM b LOOP \
                     s := (s + x.v + y.v) % 10007; \
                   END LOOP; \
                 END LOOP; \
                 RETURN s; \
               END $$ LANGUAGE plpgsql";
    s.run(src).unwrap();
    let mut interp = Interpreter::new();
    let reference = interp.call(&mut s, "f", &[Value::Int(0)]).unwrap();
    for options in [CompileOptions::default(), CompileOptions::iterate()] {
        let c = compile_sql(&s.catalog, src, options).unwrap();
        let plan = c.prepare(&mut s).unwrap();
        s.reset_instrumentation();
        let got = s.execute_prepared(&plan, vec![Value::Int(0)]).unwrap();
        assert_eq!(got.rows[0][0], reference, "{options:?}");
        assert_eq!(
            s.stats.snapshots_materialized,
            1 + m as u64,
            "outer once, inner once per outer row ({options:?})"
        );
        assert_eq!(
            s.stats.snapshots_released, s.stats.snapshots_materialized,
            "re-entry must not leak ({options:?})"
        );
        assert_eq!(
            s.stats.rows_scanned,
            (m + m * n) as u64,
            "each entry scans its source exactly once ({options:?})"
        );
    }
}

/// A RAISE out of a row loop into an enclosing handler abandons the loop
/// mid-iteration; the unwind edge must still release the snapshot (and the
/// handler keeps executing — checked against the interpreter).
#[test]
fn exception_unwind_releases_row_loop_snapshots() {
    let mut s = Session::default();
    install_rows(&mut s, "t", 20);
    let src = "CREATE FUNCTION f(cap int) RETURNS int AS $$ \
               DECLARE s int := 0; \
               BEGIN \
                 BEGIN \
                   FOR x IN SELECT t.v AS v FROM t LOOP \
                     FOR y IN SELECT t.k AS k FROM t LOOP \
                       s := s + x.v + y.k; \
                       IF s > cap THEN RAISE overflow; END IF; \
                     END LOOP; \
                   END LOOP; \
                 EXCEPTION WHEN overflow THEN s := -s; END; \
                 RETURN s; \
               END $$ LANGUAGE plpgsql";
    s.run(src).unwrap();
    let mut interp = Interpreter::new();
    for cap in [0i64, 500, 1_000_000] {
        let reference = interp.call(&mut s, "f", &[Value::Int(cap)]).unwrap();
        for options in [CompileOptions::default(), CompileOptions::iterate()] {
            let c = compile_sql(&s.catalog, src, options).unwrap();
            let plan = c.prepare(&mut s).unwrap();
            s.reset_instrumentation();
            let got = s.execute_prepared(&plan, vec![Value::Int(cap)]).unwrap();
            assert_eq!(got.rows[0][0], reference, "cap {cap} {options:?}");
            assert!(s.stats.snapshots_materialized > 0);
            assert_eq!(
                s.stats.snapshots_released, s.stats.snapshots_materialized,
                "unwind must release every abandoned snapshot (cap {cap}, {options:?})"
            );
        }
    }
}

/// An empty loop source: zero iterations, the body never runs, the loop
/// variable's fields are never fetched — and the snapshot is still
/// materialized once and released once.
#[test]
fn empty_row_loop_source_skips_the_body() {
    let mut s = Session::default();
    install_rows(&mut s, "t", 5);
    let src = "CREATE FUNCTION f(z int) RETURNS int AS $$ \
               DECLARE s int := 99; \
               BEGIN \
                 FOR r IN SELECT t.v AS v FROM t WHERE t.k > 100 LOOP \
                   s := 0; \
                 END LOOP; \
                 RETURN s; \
               END $$ LANGUAGE plpgsql";
    s.run(src).unwrap();
    let mut interp = Interpreter::new();
    let reference = interp.call(&mut s, "f", &[Value::Int(0)]).unwrap();
    assert_eq!(reference, Value::Int(99));
    for options in [CompileOptions::default(), CompileOptions::iterate()] {
        let c = compile_sql(&s.catalog, src, options).unwrap();
        let plan = c.prepare(&mut s).unwrap();
        s.reset_instrumentation();
        let got = s.execute_prepared(&plan, vec![Value::Int(0)]).unwrap();
        assert_eq!(got.rows[0][0], reference, "{options:?}");
        assert_eq!(s.stats.snapshots_materialized, 1, "{options:?}");
        assert_eq!(s.stats.snapshots_released, 1, "{options:?}");
    }
}

/// Loop-variable visibility: outer variables assigned in the body keep
/// their values after a normal exit AND after EXIT (both mid-loop and
/// labelled, both regimes agree); the record variable itself is scoped to
/// the loop — referencing it afterwards is the same error everywhere.
#[test]
fn row_loop_variable_visibility_after_exit() {
    let mut s = Session::default();
    install_rows(&mut s, "t", 6);
    // v sums: normal exhaustion folds all 6 rows, EXIT stops at the fourth.
    let src = "CREATE FUNCTION f(stop int) RETURNS int AS $$ \
               DECLARE s int := 0; \
               BEGIN \
                 FOR r IN SELECT t.k AS k, t.v AS v FROM t LOOP \
                   s := s + r.v; \
                   EXIT WHEN r.k >= stop; \
                 END LOOP; \
                 RETURN s; \
               END $$ LANGUAGE plpgsql";
    s.run(src).unwrap();
    let mut interp = Interpreter::new();
    for stop in [4i64, 100] {
        let reference = interp.call(&mut s, "f", &[Value::Int(stop)]).unwrap();
        let expect: i64 = (1..=stop.min(6)).map(|k| 10 * k).sum();
        assert_eq!(reference, Value::Int(expect), "stop {stop}");
        for options in [CompileOptions::default(), CompileOptions::iterate()] {
            let c = compile_sql(&s.catalog, src, options).unwrap();
            assert_eq!(
                c.run(&mut s, &[Value::Int(stop)]).unwrap(),
                reference,
                "stop {stop} {options:?}"
            );
        }
    }

    // The record variable does not outlive its loop, in either regime.
    let bad = "CREATE FUNCTION g(z int) RETURNS int AS $$ \
               DECLARE s int := 0; \
               BEGIN \
                 FOR r IN SELECT t.v AS v FROM t LOOP s := s + r.v; END LOOP; \
                 RETURN s + r.v; \
               END $$ LANGUAGE plpgsql";
    s.run(bad).unwrap();
    let ierr = interp.call(&mut s, "g", &[Value::Int(0)]).unwrap_err();
    let c = compile_sql(&s.catalog, bad, CompileOptions::default()).unwrap();
    let cerr = c.run(&mut s, &[Value::Int(0)]).unwrap_err();
    assert_eq!(ierr.to_string(), cerr.to_string());
    assert!(ierr.to_string().contains("r.v"), "{ierr}");
}
