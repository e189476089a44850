//! Property-based tests of the engine substrate: window aggregation against
//! a naive reference, ordering laws, set-operation semantics, and the
//! tuplestore accounting model.
//!
//! The container builds offline, so instead of `proptest` each property runs
//! over a deterministic seeded sweep of random inputs drawn with
//! [`SessionRng`]; failures print the case seed for replay.

use plsql_away::prelude::*;

fn session_with_table(rows: &[(i64, i64)]) -> Session {
    let mut s = Session::new(EngineConfig::raw());
    s.run("CREATE TABLE t (p int, v int)").unwrap();
    if !rows.is_empty() {
        let values: Vec<String> = rows.iter().map(|(p, v)| format!("({p}, {v})")).collect();
        s.run(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    s
}

/// Random `(p, v)` rows: partition key in `0..parts`, value in `lo..hi`.
fn gen_rows(rng: &mut SessionRng, max_len: usize, parts: i64, lo: i64, hi: i64) -> Vec<(i64, i64)> {
    let len = rng.next_range(0, max_len as i64) as usize;
    (0..len)
        .map(|_| (rng.next_range(0, parts - 1), rng.next_range(lo, hi - 1)))
        .collect()
}

/// Naive reference for `SUM(v) OVER (PARTITION BY p ORDER BY v ROWS
/// UNBOUNDED PRECEDING [EXCLUDE CURRENT ROW])`.
fn reference_running_sum(rows: &[(i64, i64)], exclude_current: bool) -> Vec<(i64, i64, i64)> {
    // Stable sort mirrors the engine's sort; compute per row.
    let mut out = Vec::new();
    for &(p, v) in rows {
        // frame = all rows in partition sorted before this row's position.
        let mut part: Vec<(usize, i64)> = rows
            .iter()
            .enumerate()
            .filter(|(_, (pp, _))| *pp == p)
            .map(|(i, (_, vv))| (i, *vv))
            .collect();
        part.sort_by_key(|&(i, vv)| (vv, i)); // stable by original index
        let my_index = rows.iter().position(|r| *r == (p, v)).unwrap();
        let my_pos = part.iter().position(|&(i, _)| i == my_index).unwrap();
        let mut sum = 0i64;
        for (k, &(_, vv)) in part.iter().enumerate() {
            if k <= my_pos && !(exclude_current && k == my_pos) {
                sum += vv;
            }
        }
        out.push((p, v, sum));
    }
    out
}

/// ROWS UNBOUNDED PRECEDING running sums match the naive reference
/// (unique (p, v) pairs keep the reference well-defined under ties).
#[test]
fn window_running_sum_matches_reference() {
    let mut rng = SessionRng::new(0x11D0);
    for case in 0..64 {
        let mut rows = gen_rows(&mut rng, 23, 4, -50, 50);
        rows.sort_unstable();
        rows.dedup();
        if rows.is_empty() {
            rows.push((0, 0));
        }
        let mut s = session_with_table(&rows);
        for exclude in [false, true] {
            let frame = if exclude {
                "ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW"
            } else {
                "ROWS UNBOUNDED PRECEDING"
            };
            let sql = format!(
                "SELECT p, v, COALESCE(sum(v) OVER (PARTITION BY p ORDER BY v {frame}), 0) \
                 FROM t ORDER BY p, v"
            );
            let result = s.run(&sql).unwrap();
            let mut expect = reference_running_sum(&rows, exclude);
            expect.sort_unstable();
            let got: Vec<(i64, i64, i64)> = result
                .rows
                .iter()
                .map(|r| {
                    (
                        r[0].as_int().unwrap(),
                        r[1].as_int().unwrap(),
                        r[2].as_int().unwrap(),
                    )
                })
                .collect();
            assert_eq!(got, expect, "case {case} exclude={exclude} rows={rows:?}");
        }
    }
}

/// `count(*) OVER ()` equals the partition size for every row.
#[test]
fn count_over_whole_partition() {
    let mut rng = SessionRng::new(0xC0DE);
    for case in 0..64 {
        let mut rows = gen_rows(&mut rng, 19, 3, -9, 9);
        if rows.is_empty() {
            rows.push((0, 0));
        }
        let mut s = session_with_table(&rows);
        let result = s
            .run("SELECT p, count(*) OVER (PARTITION BY p) FROM t ORDER BY p")
            .unwrap();
        for r in &result.rows {
            let p = r[0].as_int().unwrap();
            let c = r[1].as_int().unwrap();
            let expect = rows.iter().filter(|(pp, _)| *pp == p).count() as i64;
            assert_eq!(c, expect, "case {case} rows={rows:?}");
        }
    }
}

/// ORDER BY really sorts (adjacent pairs non-decreasing), with NULLs
/// last by default.
#[test]
fn order_by_sorts() {
    let mut rng = SessionRng::new(0x50F7);
    for case in 0..64 {
        let len = rng.next_range(0, 29) as usize;
        let values: Vec<i64> = (0..len).map(|_| rng.next_range(-100, 99)).collect();
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE o (v int)").unwrap();
        for v in &values {
            s.run(&format!("INSERT INTO o VALUES ({v})")).unwrap();
        }
        s.run("INSERT INTO o VALUES (NULL)").unwrap();
        let result = s.run("SELECT v FROM o ORDER BY v").unwrap();
        let got: Vec<&Value> = result.rows.iter().map(|r| &r[0]).collect();
        for w in got.windows(2) {
            let ok = match (&w[0], &w[1]) {
                (_, Value::Null) => true,
                (Value::Null, _) => false,
                (a, b) => a.as_int().unwrap() <= b.as_int().unwrap(),
            };
            assert!(ok, "case {case}: out of order: {got:?}");
        }
        assert_eq!(got.len(), values.len() + 1, "case {case}");
    }
}

/// UNION deduplicates; UNION ALL preserves multiplicity; EXCEPT/INTERSECT
/// behave like their set counterparts on distinct inputs.
#[test]
fn set_operations_match_reference() {
    let mut rng = SessionRng::new(0x5E70);
    for case in 0..64 {
        let gen_vals = |rng: &mut SessionRng| -> Vec<i64> {
            let len = rng.next_range(0, 11) as usize;
            (0..len).map(|_| rng.next_range(0, 7)).collect()
        };
        let a = gen_vals(&mut rng);
        let b = gen_vals(&mut rng);
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE a (v int)").unwrap();
        s.run("CREATE TABLE b (v int)").unwrap();
        for v in &a {
            s.run(&format!("INSERT INTO a VALUES ({v})")).unwrap();
        }
        for v in &b {
            s.run(&format!("INSERT INTO b VALUES ({v})")).unwrap();
        }
        let count = |s: &mut Session, sql: &str| -> i64 {
            s.run(&format!("SELECT count(*) FROM ({sql}) AS q(v)"))
                .unwrap()
                .scalar()
                .unwrap()
                .as_int()
                .unwrap()
        };
        let union_all = count(&mut s, "SELECT v FROM a UNION ALL SELECT v FROM b");
        assert_eq!(union_all as usize, a.len() + b.len(), "case {case}");

        let union = count(&mut s, "SELECT v FROM a UNION SELECT v FROM b");
        let distinct: std::collections::HashSet<i64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(union as usize, distinct.len(), "case {case}");

        let except = count(&mut s, "SELECT v FROM a EXCEPT SELECT v FROM b");
        let a_set: std::collections::HashSet<i64> = a.iter().copied().collect();
        let b_set: std::collections::HashSet<i64> = b.iter().copied().collect();
        assert_eq!(
            except as usize,
            a_set.difference(&b_set).count(),
            "case {case}"
        );

        let intersect = count(&mut s, "SELECT v FROM a INTERSECT SELECT v FROM b");
        assert_eq!(
            intersect as usize,
            a_set.intersection(&b_set).count(),
            "case {case}"
        );
    }
}

/// Aggregates agree with references on arbitrary inputs (NULLs mixed in).
#[test]
fn aggregates_match_reference() {
    let mut rng = SessionRng::new(0xA66E);
    for case in 0..64 {
        let len = rng.next_range(0, 24) as usize;
        let values: Vec<Option<i64>> = (0..len)
            .map(|_| {
                if rng.next_bool(0.2) {
                    None
                } else {
                    Some(rng.next_range(-100, 99))
                }
            })
            .collect();
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE g (v int)").unwrap();
        for v in &values {
            match v {
                Some(x) => s.run(&format!("INSERT INTO g VALUES ({x})")).unwrap(),
                None => s.run("INSERT INTO g VALUES (NULL)").unwrap(),
            };
        }
        let result = s
            .run("SELECT count(*), count(v), sum(v), min(v), max(v) FROM g")
            .unwrap();
        let row = &result.rows[0];
        let non_null: Vec<i64> = values.iter().flatten().copied().collect();
        assert_eq!(row[0].as_int().unwrap(), values.len() as i64, "case {case}");
        assert_eq!(
            row[1].as_int().unwrap(),
            non_null.len() as i64,
            "case {case}"
        );
        match &row[2] {
            Value::Null => assert!(non_null.is_empty(), "case {case}"),
            v => assert_eq!(
                v.as_int().unwrap(),
                non_null.iter().sum::<i64>(),
                "case {case}"
            ),
        }
        match &row[3] {
            Value::Null => assert!(non_null.is_empty(), "case {case}"),
            v => assert_eq!(
                v.as_int().unwrap(),
                *non_null.iter().min().unwrap(),
                "case {case}"
            ),
        }
        match &row[4] {
            Value::Null => assert!(non_null.is_empty(), "case {case}"),
            v => assert_eq!(
                v.as_int().unwrap(),
                *non_null.iter().max().unwrap(),
                "case {case}"
            ),
        }
    }
}

/// A recursive CTE computing a sum agrees with closed form, and the same
/// query under WITH ITERATE returns only the final row.
#[test]
fn recursive_cte_sums() {
    let mut rng = SessionRng::new(0xCE7E);
    for _ in 0..24 {
        let n = rng.next_range(1, 299);
        let mut s = Session::new(EngineConfig::raw());
        let sum: i64 = s
            .run(&format!(
                "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < {n}) \
                 SELECT sum(x) FROM c"
            ))
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(sum, n * (n + 1) / 2);

        let last = s
            .run(&format!(
                "WITH ITERATE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < {n}) \
                 SELECT x FROM c"
            ))
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(last, n);
    }
}

/// Value total order is transitive and antisymmetric on random samples
/// (the comparator driving every sort in the engine).
#[test]
fn value_total_order_laws() {
    use std::cmp::Ordering;
    let mut rng = SessionRng::new(0x707A);
    for _ in 0..32 {
        let a = rng.next_range(-50, 49);
        let b = rng.next_range(-50, 49);
        let c = rng.next_range(-50, 49);
        let fa = rng.next_f64() * 10.0 - 5.0;
        let vals = [
            Value::Int(a),
            Value::Int(b),
            Value::Int(c),
            Value::Float(fa),
            Value::Null,
            Value::text("x"),
        ];
        for x in &vals {
            assert_eq!(x.total_cmp(x), Ordering::Equal);
            for y in &vals {
                let xy = x.total_cmp(y);
                assert_eq!(xy, y.total_cmp(x).reverse());
                for z in &vals {
                    if xy != Ordering::Greater && y.total_cmp(z) != Ordering::Greater {
                        assert_ne!(x.total_cmp(z), Ordering::Greater);
                    }
                }
            }
        }
    }
}

/// A repeated aggregate expression is computed once and never descended
/// into (regression guard for the planner's collect_aggregates dedup: a
/// duplicate must not fall through to the generic Func arm and collect the
/// aggregate's own arguments).
#[test]
fn repeated_aggregates_plan_once() {
    let mut s = Session::new(EngineConfig::raw());
    s.run("CREATE TABLE t (k int, v int)").unwrap();
    s.run("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)")
        .unwrap();
    let r = s
        .run("SELECT k, sum(v), sum(v) + count(*) FROM t GROUP BY k ORDER BY k")
        .unwrap();
    let got: Vec<(i64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_int().unwrap(),
                row[1].as_int().unwrap(),
                row[2].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(got, vec![(1, 30, 32), (2, 5, 6)]);
}

/// The fixpoint's row paths agree: a pipeline-shaped recursive arm and the
/// same arm forced onto the whole-iteration path by a cross join with a
/// one-row derived table give the same rows after the same iterations.
/// The seeds collide under `x / 2`, so UNION has duplicates to drop.
#[test]
fn fixpoint_row_paths_agree() {
    let mut s = Session::new(EngineConfig::raw());
    s.run("CREATE TABLE seeds (x int)").unwrap();
    s.run("INSERT INTO seeds VALUES (8), (9), (12), (13), (13)")
        .unwrap();
    for with in ["WITH RECURSIVE", "WITH ITERATE"] {
        for union in ["UNION", "UNION ALL"] {
            let mut runs = Vec::new();
            for from in ["c", "c, (SELECT 1) AS one(o)"] {
                let sql = format!(
                    "{with} c(x, n) AS (SELECT x, 0 FROM seeds \
                     {union} SELECT x / 2, n + 1 FROM {from} WHERE n < 4) \
                     SELECT x, n FROM c"
                );
                s.reset_instrumentation();
                let rows = s.run(&sql).unwrap().rows;
                runs.push((rows, s.stats.recursive_iterations));
            }
            assert_eq!(runs[0], runs[1], "{with} {union}");
            assert!(runs[0].1 > 0, "{with} {union}");
        }
    }
}

/// Failure injection: recursion guards, plan invalidation, work_mem edges.
mod failure_injection {
    use super::*;

    /// The iteration limit fires the same way on every fixpoint path, and
    /// the failed fixpoint still accounts for the iterations it ran.
    #[test]
    fn runaway_recursive_cte_is_stopped() {
        const LIMIT: u64 = 1_000;
        let runaways = [
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c",
            "WITH ITERATE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c",
            "WITH RETIRE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x > 0) \
             SELECT count(*) FROM c",
            // Join arms: the whole arm runs once per iteration.
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + o FROM c, (SELECT 1) AS one(o)) \
             SELECT count(*) FROM c",
            "WITH ITERATE c(x) AS (SELECT 1 UNION ALL SELECT x + o FROM c, (SELECT 1) AS one(o)) \
             SELECT count(*) FROM c",
        ];
        for sql in runaways {
            let mut s = Session::new(EngineConfig::raw());
            s.config.max_recursive_iterations = LIMIT;
            let err = s.run(sql).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("exceeded {LIMIT} iterations")),
                "{sql}: {err}"
            );
            assert_eq!(s.stats.recursive_iterations, LIMIT, "{sql}");
        }

        // Compiled fibonacci: the fused transition (ForceOff) and the mono
        // tier (ForceOn), under both CTE modes.
        const FIB_LIMIT: u64 = 50;
        for tier_mode in [TierMode::ForceOff, TierMode::ForceOn] {
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let mut config = EngineConfig::raw();
                config.tier_mode = tier_mode;
                config.max_recursive_iterations = FIB_LIMIT;
                let mut b = plaway_bench::setup_fib(config);
                let compiled = b.compile(options).unwrap();
                let err = compiled
                    .run(&mut b.session, &plaway_bench::fib_args(90))
                    .unwrap_err();
                let case = format!("fibonacci {tier_mode:?} {options:?}");
                assert!(
                    err.to_string()
                        .contains(&format!("exceeded {FIB_LIMIT} iterations")),
                    "{case}: {err}"
                );
                assert_eq!(b.session.stats.recursive_iterations, FIB_LIMIT, "{case}");
                assert_eq!(
                    b.session.metrics.tier_promotions > 0,
                    tier_mode == TierMode::ForceOn,
                    "{case}"
                );
            }
        }

        // A spilling trace that fails still charges the pages it wrote.
        let mut s = Session::new(EngineConfig::raw());
        s.config.work_mem_bytes = 1024;
        s.config.max_recursive_iterations = 500;
        s.run(
            "WITH RECURSIVE c(x, pad) AS (SELECT 1, repeat('x', 100) \
             UNION ALL SELECT x + 1, pad FROM c) SELECT count(*) FROM c",
        )
        .unwrap_err();
        assert!(s.buffers.page_writes > 0, "failed spill wrote no pages");
    }

    #[test]
    fn plan_cache_survives_table_content_changes() {
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE t (v int)").unwrap();
        s.run("INSERT INTO t VALUES (1)").unwrap();
        let ps = ParamScope::default();
        let plan = s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(
            s.execute_prepared(&plan, vec![]).unwrap().scalar().unwrap(),
            Value::Int(1)
        );
        s.run("INSERT INTO t VALUES (2)").unwrap();
        // Re-prepare (the session API) sees the new contents.
        let plan = s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(
            s.execute_prepared(&plan, vec![]).unwrap().scalar().unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn stale_plan_after_drop_errors_cleanly() {
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE t (v int)").unwrap();
        let ps = ParamScope::default();
        let plan = s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        s.run("DROP TABLE t").unwrap();
        // Executing the stale handle reports a missing relation rather than
        // panicking.
        let err = s.execute_prepared(&plan, vec![]).unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn zero_work_mem_spills_everything() {
        let mut s = Session::new(EngineConfig::raw());
        s.config.work_mem_bytes = 0;
        s.run(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 10) \
             SELECT count(*) FROM c",
        )
        .unwrap();
        assert!(s.buffers.page_writes >= 1, "everything must spill");
    }

    #[test]
    fn division_by_zero_surfaces_from_queries() {
        let mut s = Session::new(EngineConfig::raw());
        let err = s.run("SELECT 1 / 0").unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
        // ... but only if evaluated: CASE guards protect it.
        assert_eq!(
            s.query_scalar("SELECT CASE WHEN false THEN 1 / 0 ELSE 7 END")
                .unwrap(),
            Value::Int(7)
        );
    }
}
