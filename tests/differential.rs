//! Property-based differential testing — the headline correctness property:
//!
//! > For any generated PL/pgSQL program, statement-by-statement
//! > interpretation and the compiled `WITH RECURSIVE` / `WITH ITERATE`
//! > queries produce the same result.
//!
//! Programs come from `plaway_workloads::genprog` (always terminating,
//! never erroring, with embedded queries over a fixture table).
//!
//! The container builds offline, so instead of `proptest` the cases are a
//! deterministic sweep: a seeded [`SessionRng`] draws program seeds from the
//! same `0..100_000` space a proptest strategy would. Failures print the
//! offending seed so a case can be replayed in isolation.

use plsql_away::prelude::*;
use plsql_away::workloads::genprog::{self, GenConfig};

/// Draw `cases` program seeds from `0..100_000`, deterministically (sampled
/// with replacement; a rare collision just repeats a passing case).
fn case_seeds(meta_seed: u64, cases: usize) -> Vec<u64> {
    let mut rng = SessionRng::new(meta_seed);
    (0..cases)
        .map(|_| rng.next_range(0, 99_999) as u64)
        .collect()
}

fn run_differential(seed: u64, cfg: GenConfig) {
    let mut session = Session::default();
    genprog::install_fixture(&mut session).unwrap();
    let mut interp = Interpreter::new();
    interp.max_statements = 5_000_000;

    let prog = genprog::generate(seed, cfg);
    session
        .run(&prog.source)
        .unwrap_or_else(|e| panic!("seed {seed}: source must install: {e}\n{}", prog.source));
    let reference = interp
        .call(&mut session, &prog.name, &prog.args)
        .unwrap_or_else(|e| panic!("seed {seed}: interpreter failed: {e}\n{}", prog.source));

    for options in [
        CompileOptions::default(),
        CompileOptions::iterate(),
        CompileOptions::packed(),
        CompileOptions {
            optimize: false,
            ..Default::default()
        },
    ] {
        let compiled = compile_sql(&session.catalog, &prog.source, options)
            .unwrap_or_else(|e| panic!("seed {seed}: compilation failed: {e}\n{}", prog.source));
        let got = compiled.run(&mut session, &prog.args).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: compiled execution failed: {e}\n--- source ---\n{}\n--- sql ---\n{}",
                prog.source, compiled.sql
            )
        });
        assert_eq!(
            got, reference,
            "seed {seed} mode {options:?}\n--- source ---\n{}\n--- sql ---\n{}",
            prog.source, compiled.sql
        );
    }
}

/// Default-shaped programs (queries on).
#[test]
fn interpreter_equals_compiler() {
    for seed in case_seeds(0xD1FF, 48) {
        run_differential(seed, GenConfig::default());
    }
}

/// Deeper nesting, no queries (stresses control-flow translation).
#[test]
fn interpreter_equals_compiler_deep() {
    for seed in case_seeds(0xDEE9, 48) {
        run_differential(
            seed,
            GenConfig {
                max_depth: 5,
                max_stmts: 6,
                allow_queries: false,
            },
        );
    }
}

/// Seeded sweep over the error-handling workload: `checked_sum` (per-row
/// `RAISE` + `EXCEPTION` recovery) must return interpreter-identical
/// results for every drawn input, in every compiled mode.
#[test]
fn exception_workload_differential() {
    use plsql_away::workloads::checked;
    let mut session = Session::default();
    let w = checked::checked_workload();
    w.install(&mut session).unwrap();
    let mut interp = Interpreter::new();
    let mut rng = SessionRng::new(0xE4C);
    for case in 0..24 {
        let len = rng.next_range(0, 60) as usize;
        let input = checked::generate_input(len, rng.next_range(0, 1_000_000) as u64);
        let cap = rng.next_range(0, 80);
        let args = vec![Value::text(&input), Value::Int(cap)];
        let reference = interp.call(&mut session, w.name, &args).unwrap();
        assert_eq!(
            reference,
            Value::Int(checked::checked_reference(&input, cap)),
            "case {case}: interpreter vs native reference ({input:?}, cap {cap})"
        );
        for options in [
            CompileOptions::default(),
            CompileOptions::iterate(),
            CompileOptions::packed(),
        ] {
            let compiled = compile_sql(&session.catalog, &w.source, options).unwrap();
            assert_eq!(
                compiled.run(&mut session, &args).unwrap(),
                reference,
                "case {case} ({input:?}, cap {cap}) mode {options:?}"
            );
        }
    }
}

/// Seeded sweep over the FOR-over-query workload: `settle` folds generated
/// ledgers of varying sizes; the cursor-style interpreter loop and the
/// compiled materialize-once snapshot loop must agree on every limit.
#[test]
fn rowloop_workload_differential() {
    use plsql_away::workloads::rowagg;
    for seed in 0..6u64 {
        let mut session = Session::default();
        let ledger = rowagg::Ledger::generate((seed as usize * 13) % 37 + 1, seed);
        ledger.install(&mut session).unwrap();
        let w = rowagg::settle_workload();
        w.install(&mut session).unwrap();
        let mut interp = Interpreter::new();
        let mut rng = SessionRng::new(seed ^ 0x5E77);
        for _ in 0..5 {
            let lim = rng.next_range(-500, 2_000);
            let args = vec![Value::Int(lim)];
            let reference = interp.call(&mut session, w.name, &args).unwrap();
            assert_eq!(
                reference,
                Value::Int(ledger.settle_reference(lim)),
                "ledger seed {seed}, lim {lim}: interpreter vs native reference"
            );
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, &w.source, options).unwrap();
                assert_eq!(
                    compiled.run(&mut session, &args).unwrap(),
                    reference,
                    "ledger seed {seed}, lim {lim}, mode {options:?}"
                );
            }
        }
    }
}

/// A column reached through `SELECT *` of a derived table wins over a
/// same-named PL/pgSQL variable, in the interpreter and in every compiled
/// mode: `x` below is `d.x` (100), not the variable (7).
#[test]
fn star_derived_table_column_shadows_variable() {
    let mut session = Session::default();
    session.run("CREATE TABLE t (x int, y int)").unwrap();
    session.run("INSERT INTO t VALUES (100, 1)").unwrap();
    let source = "CREATE FUNCTION star_shadow() RETURNS int AS $$ \
                  DECLARE x int := 7; r int; \
                  BEGIN r := (SELECT d.y + x FROM (SELECT * FROM t) AS d); RETURN r; END \
                  $$ LANGUAGE plpgsql;";
    session.run(source).unwrap();
    let reference = Interpreter::new()
        .call(&mut session, "star_shadow", &[])
        .unwrap();
    assert_eq!(reference, Value::Int(101), "columns win over variables");
    for options in [
        CompileOptions::default(),
        CompileOptions::iterate(),
        CompileOptions::packed(),
        CompileOptions {
            optimize: false,
            ..Default::default()
        },
    ] {
        let compiled = compile_sql(&session.catalog, source, options).unwrap();
        assert_eq!(
            compiled.run(&mut session, &[]).unwrap(),
            reference,
            "mode {options:?}\n{}",
            compiled.sql
        );
    }
}

/// Pretty-printer round trip on every generated compilation artifact: the
/// SQL we emit re-parses to the identical AST.
#[test]
fn emitted_sql_reparses() {
    for seed in case_seeds(0x9E9A, 32) {
        let mut session = Session::default();
        genprog::install_fixture(&mut session).unwrap();
        let prog = genprog::generate(seed, GenConfig::default());
        session.run(&prog.source).unwrap();
        let compiled =
            compile_sql(&session.catalog, &prog.source, CompileOptions::default()).unwrap();
        let reparsed = plsql_away::sql::parse_query(&compiled.sql).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: emitted SQL must re-parse: {e}\n{}",
                compiled.sql
            )
        });
        assert_eq!(reparsed, compiled.query, "seed {seed}");
    }
}

/// SSA invariants hold for every generated program (single assignment,
/// φ-per-predecessor, defs dominate uses) — `validate()` re-checks them all.
#[test]
fn ssa_invariants_hold() {
    for seed in case_seeds(0x55A0, 32) {
        let mut session = Session::default();
        genprog::install_fixture(&mut session).unwrap();
        let prog = genprog::generate(seed, GenConfig::default());
        session.run(&prog.source).unwrap();
        let compiled =
            compile_sql(&session.catalog, &prog.source, CompileOptions::default()).unwrap();
        compiled
            .ssa
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        compiled
            .anf
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

// ------------------------------------------------------------------ batch

/// The batch trampoline on generated programs: one fixpoint driving K
/// copies of a generated call must return the scalar result exactly K
/// times, in both CTE modes (plain `WITH RECURSIVE` seeding and the
/// `WITH RETIRE` trampoline).
#[test]
fn batch_equals_scalar_on_generated_programs() {
    for seed in case_seeds(0xBA7C, 24) {
        let mut session = Session::default();
        genprog::install_fixture(&mut session).unwrap();
        let prog = genprog::generate(seed, GenConfig::default());
        session.run(&prog.source).unwrap();
        for options in [CompileOptions::default(), CompileOptions::iterate()] {
            let compiled = compile_sql(&session.catalog, &prog.source, options).unwrap();
            let reference = compiled
                .run(&mut session, &prog.args)
                .unwrap_or_else(|e| panic!("seed {seed}: scalar failed: {e}\n{}", prog.source));
            let calls: Vec<Vec<Value>> = (0..7).map(|_| prog.args.clone()).collect();
            let got = compiled
                .run_batch(&mut session, &calls)
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} mode {options:?}: batch failed: {e}\n--- source ---\n{}\n--- sql ---\n{}",
                        prog.source, compiled.batch_sql
                    )
                });
            assert_eq!(
                got,
                vec![reference; 7],
                "seed {seed} mode {options:?}\n{}",
                prog.source
            );
        }
    }
}

/// One batched fixpoint equals N independent scalar executions with
/// per-row argument variation, on every batchable paper kernel and in
/// both CTE modes.
fn assert_batch_matches_scalar(b: &mut plaway_bench::BenchSetup, calls: &[Vec<Value>]) {
    for options in [CompileOptions::default(), CompileOptions::iterate()] {
        let compiled = b.compile(options).unwrap();
        let reference: Vec<Value> = calls
            .iter()
            .map(|args| compiled.run(&mut b.session, args).unwrap())
            .collect();
        let got = compiled.run_batch(&mut b.session, calls).unwrap();
        assert_eq!(got, reference, "{} mode {options:?}", b.fn_name);
    }
}

/// The batch trampoline across all six paper kernels. Rows vary their
/// arguments (different retirement times, so the rid scatter is really
/// exercised); `checked` interleaves clean rows with rows whose RAISE +
/// EXCEPTION arms fire, pinning mid-batch error isolation; `walk`'s world
/// is first made deterministic (every surviving action certain) so its
/// result does not depend on how many `random()` draws preceded a call.
#[test]
fn batch_equals_scalar_on_all_kernels() {
    use plaway_bench::{
        setup_checked, setup_fib, setup_parse, setup_settle, setup_traverse, setup_walk,
    };
    use plsql_away::workloads::{checked, fsa};

    // walk: keep each (here, action)'s dominant outcome (the prescribed
    // move ends up with merged prob >= 0.5, uniquely) and make it certain.
    let mut b = setup_walk(EngineConfig::raw());
    b.session
        .run("DELETE FROM actions WHERE prob < 0.5")
        .unwrap();
    b.session.run("UPDATE actions SET prob = 1.0").unwrap();
    let calls: Vec<Vec<Value>> = (0..10)
        .map(|i| {
            vec![
                Value::coord(i % 5, (i / 2) % 5),
                Value::Int(1_000_000),
                Value::Int(-1_000_000),
                Value::Int((i * 7) % 23),
            ]
        })
        .collect();
    assert_batch_matches_scalar(&mut b, &calls);

    let mut b = setup_fib(EngineConfig::raw());
    let calls: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Int(i % 17)]).collect();
    assert_batch_matches_scalar(&mut b, &calls);

    let mut b = setup_traverse(EngineConfig::raw());
    let calls: Vec<Vec<Value>> = (0..10)
        .map(|i| vec![Value::Int(i % 20 + 1), Value::Int(i % 9)])
        .collect();
    assert_batch_matches_scalar(&mut b, &calls);

    let mut b = setup_parse(EngineConfig::raw());
    let calls: Vec<Vec<Value>> = (0..10)
        .map(|i| vec![Value::text(fsa::generate_input((i * 5) % 26, i as u64))])
        .collect();
    assert_batch_matches_scalar(&mut b, &calls);

    // checked: row 3k+1 RAISEs on a non-digit (OTHERS arm), row 3k+2
    // overflows its cap (overflow arm); their neighbors must come out as
    // if each call had run alone.
    let mut b = setup_checked(EngineConfig::raw());
    let calls: Vec<Vec<Value>> = (0..12)
        .map(|i| match i % 3 {
            0 => vec![
                Value::text(checked::generate_input(6, i as u64)),
                Value::Int(200),
            ],
            1 => vec![Value::text("12x45"), Value::Int(200)],
            _ => vec![
                Value::text(checked::generate_input(8, i as u64)),
                Value::Int(3),
            ],
        })
        .collect();
    assert_batch_matches_scalar(&mut b, &calls);

    let mut b = setup_settle(EngineConfig::raw());
    let calls: Vec<Vec<Value>> = (0..8)
        .map(|i| vec![Value::Int((i * 137) % 900 - 100)])
        .collect();
    assert_batch_matches_scalar(&mut b, &calls);
}

// ------------------------------------------------------------------ index

/// A session whose planner runs in the given index mode, over its own
/// private database.
fn session_with_index_mode(mode: IndexMode) -> Session {
    let mut config = EngineConfig::postgres_like();
    config.index_mode = mode;
    Session::new(config)
}

/// Index access paths vs forced sequential scans on every generated
/// program: planning the embedded `kv.k = …` / `kv.k <= …` queries through
/// btree probes (ForceOn), through plain filtered scans (ForceOff), and
/// through the cost model (Auto) must be *bit-identical* — same `Value`,
/// same `Debug` rendering (which distinguishes float bit patterns the
/// `PartialEq` on `Value` may conflate). The heap-order invariant on index
/// paths is what makes this hold row-for-row, not just set-wise.
#[test]
fn index_modes_are_bit_identical_on_generated_programs() {
    let mut force_on_probes = 0u64;
    for seed in case_seeds(0x1DE5, 32) {
        let mut reference: Option<Value> = None;
        for mode in [IndexMode::ForceOff, IndexMode::Auto, IndexMode::ForceOn] {
            let mut session = session_with_index_mode(mode);
            genprog::install_fixture(&mut session).unwrap();
            let prog = genprog::generate(seed, GenConfig::default());
            session
                .run(&prog.source)
                .unwrap_or_else(|e| panic!("seed {seed}: install: {e}\n{}", prog.source));

            let mut interp = Interpreter::new();
            interp.max_statements = 5_000_000;
            let interp_val = interp
                .call(&mut session, &prog.name, &prog.args)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} mode {mode:?}: interp: {e}\n{}", prog.source)
                });
            let compiled =
                compile_sql(&session.catalog, &prog.source, CompileOptions::default()).unwrap();
            let compiled_val = compiled.run(&mut session, &prog.args).unwrap_or_else(|e| {
                panic!("seed {seed} mode {mode:?}: compiled: {e}\n{}", prog.source)
            });
            assert_eq!(
                compiled_val, interp_val,
                "seed {seed} mode {mode:?}: compiled vs interp\n{}",
                prog.source
            );

            match &reference {
                None => reference = Some(interp_val),
                Some(want) => {
                    assert_eq!(
                        &interp_val, want,
                        "seed {seed}: {mode:?} diverged from ForceOff\n{}",
                        prog.source
                    );
                    assert_eq!(
                        format!("{interp_val:?}"),
                        format!("{want:?}"),
                        "seed {seed}: {mode:?} bit-level divergence\n{}",
                        prog.source
                    );
                }
            }
            match mode {
                IndexMode::ForceOff => assert_eq!(
                    session.metrics.index_probes, 0,
                    "seed {seed}: ForceOff must never touch an index"
                ),
                IndexMode::ForceOn => force_on_probes += session.metrics.index_probes,
                IndexMode::Auto => {}
            }
        }
    }
    // The sweep is only evidence if the forced path actually ran probes.
    assert!(
        force_on_probes > 0,
        "ForceOn sweep never exercised an index access path"
    );
}

/// Direct SQL-level sweep: random point, range, BETWEEN and indexed-inner
/// join predicates over a table with duplicate and NULL keys. Every mode
/// must return the same rows *in the same order* (heap order), pinned by
/// comparing the full `Debug` rendering of the result rows.
#[test]
fn index_sql_sweep_is_order_identical() {
    let mut rng = SessionRng::new(0x5CA9);
    let mut sessions: Vec<(IndexMode, Session)> =
        [IndexMode::ForceOff, IndexMode::Auto, IndexMode::ForceOn]
            .into_iter()
            .map(|m| (m, session_with_index_mode(m)))
            .collect();
    for (_, s) in sessions.iter_mut() {
        s.run("CREATE TABLE t (k int, v int)").unwrap();
        s.run("CREATE INDEX t_k ON t (k)").unwrap();
        s.run("CREATE INDEX t_v ON t USING hash (v)").unwrap();
    }
    // 64 rows: duplicated small keys plus a sprinkle of NULLs.
    for i in 0..64i64 {
        let k = if i % 13 == 7 {
            "NULL".to_string()
        } else {
            ((i * 37) % 16).to_string()
        };
        let stmt = format!("INSERT INTO t VALUES ({k}, {})", (i * 7) % 24);
        for (_, s) in sessions.iter_mut() {
            s.run(&stmt).unwrap();
        }
    }

    for case in 0..48 {
        let a = rng.next_range(-2, 18);
        let b = rng.next_range(-2, 18);
        let sql = match case % 6 {
            0 => format!("SELECT t.k, t.v FROM t WHERE t.k = {a}"),
            1 => format!("SELECT t.k, t.v FROM t WHERE t.k >= {a} AND t.k < {b}"),
            2 => format!("SELECT t.k, t.v FROM t WHERE t.k BETWEEN {a} AND {b}"),
            3 => format!("SELECT t.k, t.v FROM t WHERE t.k > {a}"),
            4 => format!("SELECT t.v, t.k FROM t WHERE t.v = {a}"),
            _ => format!(
                "SELECT a.k, b.v FROM t AS a JOIN t AS b ON b.k = a.v % 16 \
                 AND b.v > {a} WHERE a.k <= {b}"
            ),
        };
        let mut want: Option<String> = None;
        for (mode, s) in sessions.iter_mut() {
            let got = s
                .run(&sql)
                .unwrap_or_else(|e| panic!("case {case} mode {mode:?}: {e}\n{sql}"));
            let rendering = format!("{:?}", got.rows);
            match &want {
                None => want = Some(rendering),
                Some(w) => assert_eq!(
                    &rendering, w,
                    "case {case}: {mode:?} diverged from ForceOff\n{sql}"
                ),
            }
        }
    }
    // ForceOn must have probed; ForceOff must not have.
    assert_eq!(sessions[0].1.metrics.index_probes, 0);
    assert!(sessions[2].1.metrics.index_probes > 0);
}
