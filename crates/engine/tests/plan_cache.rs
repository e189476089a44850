//! Plan-cache correctness: a plan prepared once and executed N times must
//! behave exactly like N fresh prepares — including across catalog
//! mutation, where the cache must re-plan exactly the statements that read
//! what a commit changed, and keep serving the rest. These tests also pin
//! down the `Arc`-shared executor-state redesign (ExecutorStart no longer
//! deep-copies the plan tree).

use std::sync::Arc;

use plaway_common::Value;
use plaway_engine::{
    Database, EngineConfig, ParamScope, PlanLookup, QueryResult, Session, TierMode,
};

fn seeded_session() -> Session {
    let mut s = Session::default();
    s.run("CREATE TABLE kv (k int, v int)").unwrap();
    s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();
    s
}

/// Execute `sql` through one cached prepare + N executions and through N
/// fresh sessions, and require identical results.
fn assert_cached_matches_fresh(sql: &str, params: &ParamScope, binds: &[Vec<Value>]) {
    let mut cached = seeded_session();
    let plan = cached.prepare(sql, params).unwrap();
    let cached_results: Vec<QueryResult> = binds
        .iter()
        .map(|b| cached.execute_prepared(&plan, b.clone()).unwrap())
        .collect();

    for (bind, cached_result) in binds.iter().zip(&cached_results) {
        let mut fresh = seeded_session();
        let plan = fresh.prepare(sql, params).unwrap();
        let fresh_result = fresh.execute_prepared(&plan, bind.clone()).unwrap();
        assert_eq!(
            &fresh_result, cached_result,
            "cached plan diverged from fresh prepare for {sql:?} with {bind:?}"
        );
    }
}

#[test]
fn repeated_execution_matches_fresh_prepares() {
    let ps = ParamScope::new(vec!["needle".into()]);
    let binds: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(i % 5)]).collect();
    assert_cached_matches_fresh("SELECT v FROM kv WHERE k = needle", &ps, &binds);
    assert_cached_matches_fresh("SELECT sum(v) FROM kv WHERE k <= needle", &ps, &binds);
}

#[test]
fn recursive_plans_are_reexecutable() {
    // The fixpoint pipeline must leave no state behind between executions.
    let mut s = Session::default();
    let ps = ParamScope::new(vec!["n".into()]);
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x, acc) AS (SELECT 1, 0 UNION ALL \
             SELECT x + 1, acc + x FROM c WHERE x <= n) \
             SELECT max(acc) FROM c",
            &ps,
        )
        .unwrap();
    for n in [1i64, 5, 10, 5, 1] {
        let r = s.execute_prepared(&plan, vec![Value::Int(n)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(n * (n + 1) / 2), "n={n}");
    }
}

#[test]
fn plan_cache_hits_are_counted_and_reused() {
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let (h0, m0) = (s.plan_cache_hits, s.plan_cache_misses);
    for _ in 0..5 {
        let plan = s.prepare("SELECT count(*) FROM kv", &ps).unwrap();
        s.execute_prepared(&plan, vec![]).unwrap();
    }
    assert_eq!(s.plan_cache_misses - m0, 1, "only the first prepare plans");
    assert_eq!(s.plan_cache_hits - h0, 4, "the rest are cache hits");
}

#[test]
fn catalog_mutation_invalidates_and_replans() {
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let sql = "SELECT count(*) FROM kv";
    let before = s.prepare(sql, &ps).unwrap();
    assert_eq!(
        s.execute_prepared(&before, vec![]).unwrap().rows[0][0],
        Value::Int(4)
    );

    // DML restamps `kv`, which the plan reads: the cache must re-plan,
    // and the new plan must see the new rows (same as a fresh prepare).
    s.run("INSERT INTO kv VALUES (5, 50)").unwrap();
    let after = s.prepare(sql, &ps).unwrap();
    assert_eq!(
        s.execute_prepared(&after, vec![]).unwrap().rows[0][0],
        Value::Int(5)
    );

    // DDL that changes plan shape: an index turns the scan into a lookup,
    // results must stay identical to pre-index execution.
    let ps_n = ParamScope::new(vec!["needle".into()]);
    let point = "SELECT v FROM kv WHERE k = needle";
    let scan_plan = s.prepare(point, &ps_n).unwrap();
    let scan_result = s.execute_prepared(&scan_plan, vec![Value::Int(3)]).unwrap();
    s.run("CREATE INDEX kv_k ON kv (k)").unwrap();
    let index_plan = s.prepare(point, &ps_n).unwrap();
    assert!(
        index_plan.plan.explain().contains("IndexLookup"),
        "re-plan after CREATE INDEX must use the index:\n{}",
        index_plan.plan.explain()
    );
    let index_result = s
        .execute_prepared(&index_plan, vec![Value::Int(3)])
        .unwrap();
    assert_eq!(scan_result, index_result);
}

#[test]
fn create_or_replace_in_one_session_invalidates_the_other() {
    // The plan cache is shared across sessions, so DDL in session A must
    // invalidate — not corrupt — a plan session B cached. The hit/miss
    // counters are pinned across the invalidation on both sessions and on
    // the shared database totals.
    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    let mut b = db.session();
    a.run("CREATE FUNCTION f(x int) RETURNS int AS $$ SELECT x + 1 $$ LANGUAGE SQL")
        .unwrap();

    let ps = ParamScope::new(vec!["n".into()]);
    let sql = "SELECT f(n)";
    let plan_b = b.prepare(sql, &ps).unwrap();
    assert_eq!(
        b.execute_prepared(&plan_b, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(42)
    );
    assert_eq!((b.plan_cache_hits, b.plan_cache_misses), (0, 1));

    // B re-prepares before any DDL: a pure hit, same plan.
    b.prepare(sql, &ps).unwrap();
    assert_eq!((b.plan_cache_hits, b.plan_cache_misses), (1, 1));

    // Session A redefines f. Session B's next prepare must miss (the
    // cached plan was built against the old definition of f) and the
    // re-planned query must see the new body.
    a.run("CREATE OR REPLACE FUNCTION f(x int) RETURNS int AS $$ SELECT x * 10 $$ LANGUAGE SQL")
        .unwrap();
    let before = db.plan_cache_stats();
    let plan_b2 = b.prepare(sql, &ps).unwrap();
    assert_eq!(
        (b.plan_cache_hits, b.plan_cache_misses),
        (1, 2),
        "A's CREATE OR REPLACE must invalidate B's cached plan"
    );
    let after = db.plan_cache_stats();
    assert_eq!(after.hits, before.hits, "no shared hit across the DDL");
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(
        b.execute_prepared(&plan_b2, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(410),
        "B's re-planned query must run the replaced body"
    );

    // The *old* Arc'd plan handle stays safely executable — invalidation
    // must never corrupt a plan already handed out. UDF bodies bind by
    // name at execution time against the session's current snapshot, so
    // the stale handle also runs the replaced body.
    assert_eq!(
        b.execute_prepared(&plan_b, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(410),
        "a stale plan handle must execute cleanly against the new catalog"
    );
}

#[test]
fn invariant_subplans_are_hoisted_out_of_the_fixpoint() {
    // A closed scalar sub-query inside a recursive arm depends only on the
    // catalog, which cannot change mid-statement: it must be evaluated once
    // per execution, not once per iteration.
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
             SELECT x + (SELECT count(*) FROM kv) FROM c WHERE x < 400) \
             SELECT max(x) FROM c",
            &ps,
        )
        .unwrap();
    s.stats.reset();
    let r = s.execute_prepared(&plan, vec![]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(401), "1 + 100 * count(4)");
    assert!(
        s.stats.recursive_iterations >= 100,
        "sanity: the fixpoint iterated ({})",
        s.stats.recursive_iterations
    );
    assert!(
        s.stats.subplan_evals <= 2,
        "closed sub-plan must be memoized per execution, got {} evals over {} iterations",
        s.stats.subplan_evals,
        s.stats.recursive_iterations
    );

    // Correlated sub-queries must NOT be memoized.
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
             SELECT x + (SELECT max(k) FROM kv WHERE k <= x) FROM c WHERE x < 20) \
             SELECT count(*) FROM c",
            &ps,
        )
        .unwrap();
    s.stats.reset();
    s.execute_prepared(&plan, vec![]).unwrap();
    assert!(
        s.stats.subplan_evals > 2,
        "correlated sub-plan must re-evaluate per row, got {}",
        s.stats.subplan_evals
    );
}

#[test]
fn create_index_invalidates_shared_cache_and_modes_key_separately() {
    use plaway_engine::IndexMode;

    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    a.run("CREATE TABLE t (k int, v int)").unwrap();
    a.run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();

    let ps = ParamScope::default();
    let sql = "SELECT v FROM t WHERE k = 2";
    let scan = a.prepare(sql, &ps).unwrap();
    assert!(
        scan.plan.explain().contains("SeqScan"),
        "no index yet:\n{}",
        scan.plan.explain()
    );
    let want = a.execute_prepared(&scan, vec![]).unwrap();
    let warm = db.plan_cache_stats();
    a.prepare(sql, &ps).unwrap();
    assert_eq!(
        db.plan_cache_stats().misses,
        warm.misses,
        "re-prepare before DDL must be a pure hit"
    );

    // CREATE INDEX restamps t, which the plan reads: the cached plan is
    // stale, so the next prepare must MISS and re-plan into an index probe
    // — with identical results.
    a.run("CREATE INDEX t_k ON t (k)").unwrap();
    let before = db.plan_cache_stats();
    let probe = a.prepare(sql, &ps).unwrap();
    let after = db.plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "CREATE INDEX must invalidate the cached plan"
    );
    assert_eq!(after.hits, before.hits, "no stale hit across CREATE INDEX");
    assert!(
        probe.plan.explain().contains("IndexLookup"),
        "re-plan after CREATE INDEX must probe the index:\n{}",
        probe.plan.explain()
    );
    assert_eq!(a.execute_prepared(&probe, vec![]).unwrap(), want);

    // The planner mode is part of the cache key: a ForceOff session asking
    // for the same SQL must not be served the indexed plan.
    let mut off = db.session();
    off.config.index_mode = IndexMode::ForceOff;
    let b1 = db.plan_cache_stats();
    let off_plan = off.prepare(sql, &ps).unwrap();
    let b2 = db.plan_cache_stats();
    assert_eq!(
        b2.misses,
        b1.misses + 1,
        "a different index mode must miss, not share the Auto plan"
    );
    assert!(
        off_plan.plan.explain().contains("SeqScan"),
        "ForceOff must plan a sequential scan:\n{}",
        off_plan.plan.explain()
    );
    assert_eq!(off.execute_prepared(&off_plan, vec![]).unwrap(), want);

    // Same mode, same SQL: a pure hit against the mode-tagged entry.
    off.prepare(sql, &ps).unwrap();
    let b3 = db.plan_cache_stats();
    assert_eq!((b3.hits, b3.misses), (b2.hits + 1, b2.misses));
}

/// Shared-cache (hits, misses) of `s`'s database.
fn counts(s: &Session) -> (u64, u64) {
    let st = s.database().plan_cache_stats();
    (st.hits, st.misses)
}

#[test]
fn dml_replans_only_the_statements_that_read_it() {
    let mut s = seeded_session();
    s.run("CREATE TABLE other (x int)").unwrap();
    let ps = ParamScope::default();
    let sql = "SELECT sum(v) FROM kv";
    s.prepare(sql, &ps).unwrap();
    let (h0, m0) = counts(&s);

    // A commit to a table the plan does not read keeps the hit.
    s.run("INSERT INTO other VALUES (1)").unwrap();
    s.run("DELETE FROM other").unwrap();
    let kept = s.prepare(sql, &ps).unwrap();
    assert_eq!(counts(&s), (h0 + 1, m0), "DML on `other` must not re-plan");
    assert_eq!(
        s.execute_prepared(&kept, vec![]).unwrap().rows[0][0],
        Value::Int(100)
    );

    // A commit to `kv` re-plans, and the new plan sees the new rows.
    s.run("UPDATE kv SET v = v + 1 WHERE k = 1").unwrap();
    let replanned = s.prepare(sql, &ps).unwrap();
    assert_eq!(counts(&s), (h0 + 1, m0 + 1), "DML on `kv` must re-plan");
    assert!(!Arc::ptr_eq(&kept, &replanned));
    assert_eq!(
        s.execute_prepared(&replanned, vec![]).unwrap().rows[0][0],
        Value::Int(101)
    );
}

#[test]
fn recreated_table_with_reordered_columns_replans() {
    let mut s = seeded_session();
    let ps = ParamScope::new(vec!["needle".into()]);
    let sql = "SELECT v FROM kv WHERE k = needle";
    let plan = s.prepare(sql, &ps).unwrap();
    assert_eq!(
        s.execute_prepared(&plan, vec![Value::Int(2)]).unwrap().rows,
        vec![vec![Value::Int(20)]]
    );
    let (_, m0) = counts(&s);

    // Same name, same columns, swapped positions: a plan that kept the old
    // slot numbers would read `k` where it means `v`.
    s.run("DROP TABLE kv").unwrap();
    s.run("CREATE TABLE kv (v int, k int)").unwrap();
    s.run("INSERT INTO kv VALUES (20, 2), (30, 3)").unwrap();
    let plan = s.prepare(sql, &ps).unwrap();
    assert_eq!(counts(&s).1, m0 + 1, "the re-created table must re-plan");
    assert_eq!(
        s.execute_prepared(&plan, vec![Value::Int(2)]).unwrap().rows,
        vec![vec![Value::Int(20)]]
    );
}

#[test]
fn redefined_or_dropped_function_replans() {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE FUNCTION f(x int) RETURNS int AS $$ SELECT x + 1 $$ LANGUAGE SQL")
        .unwrap();
    s.run("CREATE FUNCTION g(x int) RETURNS int AS $$ SELECT x $$ LANGUAGE SQL")
        .unwrap();
    let ps = ParamScope::new(vec!["n".into()]);
    let sql = "SELECT f(n)";
    s.prepare(sql, &ps).unwrap();
    let (h0, m0) = counts(&s);

    // Redefining a function the plan does not call keeps the hit.
    s.run("CREATE OR REPLACE FUNCTION g(x int) RETURNS int AS $$ SELECT x * 2 $$ LANGUAGE SQL")
        .unwrap();
    s.prepare(sql, &ps).unwrap();
    assert_eq!(counts(&s), (h0 + 1, m0));

    // Redefining `f` re-plans, even with the same body.
    s.run("CREATE OR REPLACE FUNCTION f(x int) RETURNS int AS $$ SELECT x + 1 $$ LANGUAGE SQL")
        .unwrap();
    let plan = s.prepare(sql, &ps).unwrap();
    assert_eq!(counts(&s), (h0 + 1, m0 + 1));
    assert_eq!(
        s.execute_prepared(&plan, vec![Value::Int(1)]).unwrap().rows[0][0],
        Value::Int(2)
    );

    // After DROP FUNCTION the cached plan is stale, and re-planning fails
    // exactly as a prepare that never saw `f` does.
    s.run("DROP FUNCTION f").unwrap();
    let stale = s.prepare(sql, &ps).unwrap_err();
    assert_eq!(counts(&s), (h0 + 1, m0 + 2));
    let fresh = Session::new(EngineConfig::raw())
        .prepare(sql, &ps)
        .unwrap_err();
    assert_eq!(stale.to_string(), fresh.to_string());
}

#[test]
fn an_older_snapshot_never_gets_a_newer_plan() {
    // The lookups below use the statement text as the cache key, which it
    // is only under `TierMode::Auto`; pin it so `PLAWAY_TIER_MODE` cannot
    // tag the key.
    let mut config = EngineConfig::raw();
    config.tier_mode = TierMode::Auto;
    let db = Database::new(config);
    let mut writer = db.session();
    writer.run("CREATE TABLE t (k int)").unwrap();
    writer.run("INSERT INTO t VALUES (1)").unwrap();
    let sql = "SELECT count(*) FROM t";
    let ps = ParamScope::default();

    // A reader prepares, then keeps its snapshot while `t` changes.
    let mut old_reader = db.session();
    let old_plan = old_reader.prepare(sql, &ps).unwrap();
    let old = Arc::clone(&old_reader.catalog);
    writer.run("INSERT INTO t VALUES (2)").unwrap();

    // A newer reader re-plans and publishes its plan under the same key.
    let mut new_reader = db.session();
    let new_plan = new_reader.prepare(sql, &ps).unwrap();
    assert!(!Arc::ptr_eq(&old_plan, &new_plan));
    assert_eq!(
        new_reader.execute_prepared(&new_plan, vec![]).unwrap().rows[0][0],
        Value::Int(2)
    );

    // Validation is exact: the older snapshot is told the entry is stale,
    // never handed the plan built after the change; the committed snapshot
    // gets exactly that plan.
    assert!(matches!(db.lookup_plan(sql, &old), PlanLookup::Stale));
    assert!(db.cached_plan(sql, old.version).is_none());
    match db.lookup_plan(sql, &db.snapshot()) {
        PlanLookup::Hit(p) => assert!(Arc::ptr_eq(&p, &new_plan)),
        other => panic!("the committed snapshot must hit, got {other:?}"),
    }
}
