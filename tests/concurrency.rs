//! Multi-session concurrency: many threads, one shared `Database`.
//!
//! These tests are the CI concurrency lane (and the nightly
//! ThreadSanitizer target). They are **seeded and deterministic**: every
//! thread's request stream is derived from a test seed, so a failure
//! reproduces by re-running with the same seed — no wall-clock or
//! scheduler dependence in the asserted values. The scheduler only decides
//! *interleaving*, which must never change any result; that is exactly
//! the property under test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use plsql_away::engine::Database;
use plsql_away::prelude::*;
use plsql_away::workloads::fib;

const READER_THREADS: usize = 4;
const STRESS_ITERS: usize = 50;

/// Deterministic per-thread request stream (splitmix64 over seed+thread).
struct Stream(u64);

impl Stream {
    fn new(seed: u64, thread: usize) -> Self {
        Stream(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ thread as u64)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// A shared database with the `fibonacci` workload installed, a compiled
/// artifact for it, and a `churn` table for writer noise.
fn fib_database() -> (Arc<Database>, Compiled) {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    let w = fib::fib_workload();
    w.install(&mut s).unwrap();
    s.run("CREATE TABLE churn (k int, v int)").unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    (db, compiled)
}

/// One reader's differential run: `iters` requests with seeded arguments,
/// each evaluated compiled AND interpreted, both checked against the Rust
/// reference. Returns the request stream so runs can be compared.
fn differential_reader(
    db: &Arc<Database>,
    compiled: &Compiled,
    seed: u64,
    thread: usize,
    iters: usize,
) -> Vec<i64> {
    let mut session = db.session();
    let mut interp = Interpreter::new();
    let mut stream = Stream::new(seed, thread);
    let mut requests = Vec::with_capacity(iters);
    for _ in 0..iters {
        let n = (stream.next() % 30) as i64;
        let args = vec![Value::Int(n)];
        let want = Value::Int(fib::fib_reference(n));
        let c = compiled.run(&mut session, &args).unwrap();
        assert_eq!(c, want, "compiled fib({n}) diverged under concurrency");
        let i = interp.call(&mut session, "fibonacci", &args).unwrap();
        assert_eq!(i, want, "interpreted fib({n}) diverged under concurrency");
        requests.push(n);
    }
    requests
}

/// DDL/DML churn until stopped: every commit publishes a new catalog
/// snapshot under the readers. The commits change only `churn` and
/// `churn_noise`, which no reader's plan depends on, so the readers' cached
/// plans stay valid throughout.
fn churn(db: &Arc<Database>, stop: &AtomicBool) -> u64 {
    let mut session = db.session();
    let mut i = 0i64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        session
            .run(&format!(
                "CREATE OR REPLACE FUNCTION churn_noise(x int) RETURNS int \
                 AS $$ SELECT x + {i} $$ LANGUAGE SQL"
            ))
            .unwrap();
        session
            .run(&format!("INSERT INTO churn VALUES ({i}, {i})"))
            .unwrap();
        if i % 8 == 0 {
            session
                .run(&format!("DELETE FROM churn WHERE k <= {}", i - 8))
                .unwrap();
        }
        std::thread::yield_now();
    }
    i as u64
}

/// One full stress round: 4 differential readers racing 1 churn writer.
/// Returns each thread's request stream.
fn stress_round(seed: u64) -> Vec<Vec<i64>> {
    let (db, compiled) = fib_database();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| churn(&db, &stop));
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let db = &db;
                let compiled = &compiled;
                scope.spawn(move || differential_reader(db, compiled, seed, t, STRESS_ITERS))
            })
            .collect();
        let streams: Vec<Vec<i64>> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        assert!(commits > 0, "the churn writer never committed");
        streams
    })
}

/// Compiled and interpreted execution agree with the reference on every
/// request of every thread, while a writer churns the catalog — across a
/// sweep of seeds, and with bit-identical request streams on a repeat run
/// (the scheduler must have no way into the results).
#[test]
fn seeded_differential_stress_sweep() {
    for seed in [11, 42, 77] {
        let first = stress_round(seed);
        let second = stress_round(seed);
        assert_eq!(
            first, second,
            "seed {seed}: request streams must be deterministic"
        );
    }
}

/// Dependency-tracked invalidation under a live writer: one reader
/// re-prepares a plan over table `a` while a writer commits `WRITER_ROWS`
/// single-row inserts into table `b`. None of those commits touches what
/// the plan reads, so every prepare after the first must hit, and every
/// result must equal the reference computed from `a`'s rows.
#[test]
fn writes_to_another_table_keep_the_plan_cached() {
    const WRITER_ROWS: i64 = 100;
    const MIN_PREPARES: u64 = 50;
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE a (k int, v int)").unwrap();
    s.run("CREATE TABLE b (k int)").unwrap();
    let rows: Vec<(i64, i64)> = (1..=40).map(|k| (k, k * k - 3 * k)).collect();
    let values: Vec<String> = rows.iter().map(|(k, v)| format!("({k}, {v})")).collect();
    s.run(&format!("INSERT INTO a VALUES {}", values.join(", ")))
        .unwrap();

    let sql = "SELECT sum(v) FROM a WHERE k <= n";
    let ps = ParamScope::new(vec!["n".into()]);
    let started = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut w = db.session();
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for i in 1..=WRITER_ROWS {
                w.run(&format!("INSERT INTO b VALUES ({i})")).unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        let mut reader = db.session();
        let mut stream = Stream::new(5, 0);
        let mut prepares = 0u64;
        let first_version = db.snapshot().version;
        loop {
            let finished = done.load(Ordering::Acquire);
            let n = (stream.next() % 45) as i64;
            let plan = reader.prepare(sql, &ps).unwrap();
            prepares += 1;
            started.store(true, Ordering::Release);
            let got = reader.execute_prepared(&plan, vec![Value::Int(n)]).unwrap();
            let want: i64 = rows.iter().filter(|(k, _)| *k <= n).map(|(_, v)| v).sum();
            let want = if n < 1 { Value::Null } else { Value::Int(want) };
            assert_eq!(got.rows, vec![vec![want]], "sum over a with n = {n}");
            if finished && prepares >= MIN_PREPARES {
                break;
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
        // The last prepare came after the writer's last commit, the first
        // before its first.
        assert_eq!(
            reader.catalog.version,
            first_version + WRITER_ROWS as u64,
            "every writer commit must land while the reader runs"
        );
        assert_eq!(reader.plan_cache_misses, 1, "only the first prepare plans");
        assert_eq!(reader.plan_cache_hits, prepares - 1);
    });
    assert_eq!(
        s.query_scalar("SELECT count(*) FROM b").unwrap(),
        Value::Int(WRITER_ROWS)
    );
}

/// Readers must never observe a torn write: the writer keeps `acct`
/// balanced (sum = 0) in every committed snapshot, so ANY snapshot a
/// reader gets — mid-rewrite or not — must sum to 0.
#[test]
fn readers_never_observe_torn_writes() {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE acct (k int, v int)").unwrap();
    s.run("INSERT INTO acct VALUES (1, 0), (2, 0)").unwrap();

    let base_version = s.catalog.version;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut s = db.session();
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                // One commit per rebalance: +i on one account, -i on the
                // other. A reader seeing only half of it would sum to ±i.
                s.replace_rows(
                    "acct",
                    vec![
                        vec![Value::Int(1), Value::Int(i)],
                        vec![Value::Int(2), Value::Int(-i)],
                    ],
                )
                .unwrap();
                std::thread::yield_now();
            }
            i
        });
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // Read until this thread has personally observed 10
                    // distinct committed rebalances (bounded: 50k reads is
                    // far more scheduling opportunity than the writer
                    // needs to land 10 commits on any machine).
                    let mut s = db.session();
                    let mut versions = std::collections::BTreeSet::new();
                    for _ in 0..50_000 {
                        let before = s.catalog.version;
                        let r = s.run("SELECT sum(v) FROM acct").unwrap();
                        assert_eq!(r.rows[0][0], Value::Int(0), "torn write observed");
                        versions.insert(s.catalog.version);
                        if versions.range(base_version + 1..).count() >= 10 {
                            break;
                        }
                        if s.catalog.version == before {
                            // Same snapshot as last read: cede the core so
                            // the writer can publish (matters on 1-core
                            // runners, where spinning readers starve it).
                            std::thread::yield_now();
                        }
                    }
                    versions.range(base_version + 1..).count()
                })
            })
            .collect();
        let observed: Vec<usize> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        assert!(commits > 0, "the rebalance writer never committed");
        for (t, n) in observed.iter().enumerate() {
            assert!(
                *n >= 10,
                "reader {t} observed only {n} of the writer's {commits} commits"
            );
        }
    });
}

/// Statement-level atomicity at the SQL surface: a multi-row INSERT that
/// fails at runtime on a later row must leave the table exactly as it was
/// — in this session's next snapshot and in every other session's.
#[test]
fn failed_insert_commits_nothing_across_sessions() {
    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    let mut b = db.session();
    a.run("CREATE TABLE t (k int, v int)").unwrap();
    a.run("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    let err = a.run("INSERT INTO t VALUES (3, 30), (4, 1 / 0)");
    assert!(err.is_err(), "division by zero must fail the INSERT");

    for s in [&mut a, &mut b] {
        let r = s.run("SELECT count(*), sum(v) FROM t").unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(2), Value::Int(30)],
            "a failed INSERT must commit none of its rows"
        );
    }
}

/// The lock-free metrics registry loses nothing under contention: M racing
/// sessions each keep a plain-u64 mirror of what they contributed, and
/// after the race the registry's merged counters must EXACTLY equal the
/// sum of the per-session mirrors — field by field, latency histogram
/// bucket by bucket. Not "approximately": relaxed atomic adds are still
/// adds, so a single lost update is a bug. (`commits` is excluded: it is
/// counted at the database commit point, not attributed to sessions.)
#[test]
fn racing_sessions_metrics_merge_exactly() {
    use plsql_away::engine::metrics::{Kind, COUNTERS, LATENCY_BUCKETS};
    use plsql_away::engine::SessionMetrics;

    let (db, compiled) = fib_database();
    let base = db.metrics();
    let mirrors: Vec<SessionMetrics> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let db = &db;
                let compiled = &compiled;
                scope.spawn(move || {
                    let mut s = db.session();
                    let mut stream = Stream::new(7, t);
                    for _ in 0..STRESS_ITERS {
                        // A compiled fixpoint run (vm ops, iterations,
                        // snapshots) plus a plain recursive SELECT, so
                        // every registry field the statement path feeds
                        // is exercised with non-trivial values.
                        let n = (stream.next() % 25) as i64;
                        compiled.run(&mut s, &[Value::Int(n)]).unwrap();
                        let k = 1 + (stream.next() % 16);
                        s.run(&format!(
                            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
                             SELECT x + 1 FROM c WHERE x < {k}) \
                             SELECT count(*) FROM c"
                        ))
                        .unwrap();
                    }
                    s.metrics
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = db.metrics();

    let mut sum = SessionMetrics::default();
    for m in &mirrors {
        sum.merge(m);
    }
    assert_eq!(
        sum.statements,
        (READER_THREADS * STRESS_ITERS * 2) as u64,
        "sanity: every thread ran 2 statements per iteration"
    );
    // The fixpoints must have executed somewhere: in the Value VM, or —
    // when the tier-matrix lane pins PLAWAY_TIER_MODE=force_on — in the
    // typed mono tier, where no VM ops run at all.
    assert!(sum.recursive_iterations > 0);
    assert!(sum.vm_ops_executed > 0 || sum.tier_promotions > 0);

    // Every entry of the counter table: a sum must match the registry's
    // delta exactly; a peak (a high-water mark, merged by max) can only
    // be at most the registry's later value.
    let (base, after) = (base.sessions, after.sessions);
    let (before, now, mirrored) = (base.counters(), after.counters(), sum.counters());
    for (i, c) in COUNTERS.iter().enumerate() {
        let registry = c.kind.delta(now[i], before[i]);
        match c.kind {
            Kind::Sum => assert_eq!(
                registry, mirrored[i],
                "registry {} diverged from the summed session mirrors",
                c.name
            ),
            Kind::Peak => assert!(
                mirrored[i] <= registry,
                "session peak {} = {} exceeds the registry's {registry}",
                c.name,
                mirrored[i]
            ),
        }
    }
    for i in 0..LATENCY_BUCKETS {
        assert_eq!(
            after.latency.buckets[i] - base.latency.buckets[i],
            sum.latency.buckets[i],
            "latency bucket {i} diverged"
        );
    }
}

/// Concurrent writers serialize through the commit mutex without losing
/// updates: 4 threads × 25 single-row inserts into one table, every row
/// present afterwards.
#[test]
fn concurrent_writers_lose_no_commits() {
    let db = Database::new(EngineConfig::raw());
    db.session().run("CREATE TABLE log (w int, i int)").unwrap();
    std::thread::scope(|scope| {
        for w in 0..4i64 {
            let db = &db;
            scope.spawn(move || {
                let mut s = db.session();
                for i in 0..25i64 {
                    s.run(&format!("INSERT INTO log VALUES ({w}, {i})"))
                        .unwrap();
                }
            });
        }
    });
    let mut s = db.session();
    let r = s.run("SELECT count(*) FROM log").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100), "lost commits");
    for w in 0..4 {
        let r = s
            .run(&format!("SELECT count(*), sum(i) FROM log WHERE w = {w}"))
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(25), Value::Int(300)]);
    }
}

/// Index maintenance is transactional with the heap: a committed INSERT
/// becomes visible to the index access path and the sequential path
/// *atomically*, and a failed INSERT surfaces in neither. Readers race a
/// writer and evaluate both paths inside ONE statement — one catalog
/// snapshot — where `t.k = 5` plans through the btree probe while
/// `t.k + 0 = 5` defeats predicate extraction and seq-scans. Their
/// difference must be 0 in every snapshot any reader ever observes.
#[test]
fn index_and_seq_scan_visibility_is_atomic() {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE t (k int, v int)").unwrap();
    s.run("CREATE INDEX t_k ON t (k)").unwrap();
    for i in 0..64i64 {
        s.run(&format!("INSERT INTO t VALUES ({}, {i})", i % 16))
            .unwrap();
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut s = db.session();
            let mut committed = 0i64;
            while !stop.load(Ordering::Relaxed) {
                committed += 1;
                s.run(&format!("INSERT INTO t VALUES (5, {committed})"))
                    .unwrap();
                // A statement that fails on its second row: statement-level
                // atomicity means no heap row AND no index posting may land.
                let err = s.run("INSERT INTO t VALUES (5, 77), (5, 1 / 0)");
                assert!(err.is_err(), "division by zero must fail the INSERT");
                std::thread::yield_now();
            }
            committed
        });
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|_| {
                let db = &db;
                scope.spawn(move || {
                    let mut s = db.session();
                    for _ in 0..STRESS_ITERS * 4 {
                        let r = s
                            .run(
                                "SELECT (SELECT count(*) FROM t WHERE t.k = 5) - \
                                 (SELECT count(*) FROM t WHERE t.k + 0 = 5)",
                            )
                            .unwrap();
                        assert_eq!(
                            r.rows[0][0],
                            Value::Int(0),
                            "index and seq scan disagreed within one snapshot"
                        );
                        std::thread::yield_now();
                    }
                    assert!(
                        s.metrics.index_probes > 0,
                        "the reader's point predicate never took the index path"
                    );
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let committed = writer.join().unwrap();
        assert!(committed > 0, "the writer never committed");

        // Post-race ground truth: the seed planted 4 rows with k = 5 and
        // each committed INSERT added one; the failed statements added none
        // — on both access paths.
        let mut s = db.session();
        let via_index = s.run("SELECT count(*) FROM t WHERE t.k = 5").unwrap();
        let via_seq = s.run("SELECT count(*) FROM t WHERE t.k + 0 = 5").unwrap();
        assert_eq!(via_index.rows[0][0], Value::Int(4 + committed));
        assert_eq!(via_index.rows[0], via_seq.rows[0]);
    });
}
