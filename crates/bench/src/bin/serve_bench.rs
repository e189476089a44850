//! Multi-session serving benchmark: M threads hammer one shared
//! [`Database`] with the mixed kernel load (`fibonacci`, `checked_sum`,
//! `settle`, `walk`), each thread owning a private `Session` over the
//! shared catalog snapshots and plan cache.
//!
//! Two phases:
//!
//! * **read scaling** — scalar-only requests at 1 and 4 threads over an
//!   unchanging catalog (every prepared plan stays valid, the shared plan
//!   cache serves all sessions). The headline number is
//!   `serve.read.scaling_x100` = 100 × rps(4t) / rps(1t); the bench gate
//!   enforces ≥ 2.5× on runners with ≥ 4 hardware threads.
//! * **mixed** — 4 reader threads (scalar calls through plans prepared
//!   once per session, every 8th request a batch-mode `fibonacci` over a
//!   worker-private staging table) racing one writer that churns the
//!   catalog with `CREATE OR REPLACE` and DML. Every commit publishes a
//!   new catalog snapshot, but only plans that depend on what it changed
//!   are invalidated — the churn touches no kernel's tables or functions.
//!   The batch path re-prepares through the shared cache after loading
//!   its staging table, so this phase measures serving under churn —
//!   correctness (results still verified per request) and tail latency,
//!   not peak throughput.
//!
//! Phase 1 also reports `serve.cache.warm_hit_rate_x100`: the plan-cache
//! hit-rate over the read phase alone, measured as a counter delta after
//! a one-session warm-up pass. Under an unchanging catalog a serving
//! tier should not re-plan at all, so the gate holds this near 100.
//!
//! A third, ungated phase re-runs a short read burst on a trace-enabled
//! database and attributes tail latency per session from the structured
//! `run` events (stderr report only).
//!
//! Results are merged into `BENCH_smoke.json` as integer `serve.*` keys
//! (latencies in ns, rps as integer requests/second, the scaling ratio
//! ×100, plan-cache counters as `serve.cache.*`), preserving the kernel
//! keys `bench_smoke` wrote.
//!
//! Usage: `cargo run --release -p plaway-bench --bin serve_bench [--smoke]`

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use plaway_bench::{batch_fib_calls, serve_batch_fib, setup_serve, ServeKernel};
use plaway_engine::{Database, EngineConfig};
use plaway_workloads::fib;

/// Requests per reader thread per phase.
const READS_FULL: usize = 400;
const READS_SMOKE: usize = 100;
/// Rows per batch-mode call in the mixed phase.
const BATCH_ROWS: usize = 64;
/// Reader threads in the scaled phases.
const THREADS: usize = 4;

/// One reader's measurement: per-request latencies plus its wall time.
struct ThreadRun {
    latencies_ns: Vec<u128>,
    elapsed: Duration,
}

/// Run `requests` scalar calls round-robin over the kernels, verifying
/// every deterministic result. Panics (failing the bench) on any wrong
/// answer — a serving engine that returns garbage fast is not fast.
fn read_loop(db: &Arc<Database>, kernels: &[ServeKernel], requests: usize) -> ThreadRun {
    let mut session = db.session();
    let plans: Vec<_> = kernels
        .iter()
        .map(|k| k.compiled.prepare(&mut session).expect(k.name))
        .collect();
    let mut latencies_ns = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for r in 0..requests {
        let k = &kernels[r % kernels.len()];
        let q0 = Instant::now();
        let got = session
            .execute_prepared(&plans[r % kernels.len()], k.args.clone())
            .expect(k.name);
        latencies_ns.push(q0.elapsed().as_nanos());
        if let Some(want) = &k.expected {
            assert_eq!(&got.rows[0][0], want, "{} returned a wrong answer", k.name);
        }
    }
    ThreadRun {
        latencies_ns,
        elapsed: t0.elapsed(),
    }
}

/// A mixed-phase reader: scalar calls through plans prepared *once* per
/// session (a serving session keeps its statements prepared; it does not
/// re-plan an unchanged query per request), with every 8th request a
/// batch-mode fibonacci staged through this worker's private
/// `batch#fib_w<id>` table. The batch path commits to the table its plan
/// reads, so it re-plans through the shared cache on every batch — that
/// is where the re-planning cost of this phase is measured, not in the
/// scalar stream.
fn mixed_loop(
    db: &Arc<Database>,
    kernels: &[ServeKernel],
    worker: usize,
    requests: usize,
) -> ThreadRun {
    let mut session = db.session();
    let plans: Vec<_> = kernels
        .iter()
        .map(|k| k.compiled.prepare(&mut session).expect(k.name))
        .collect();
    let batch = serve_batch_fib(db, worker);
    let calls = batch_fib_calls(BATCH_ROWS);
    let batch_expected: Vec<_> = calls
        .iter()
        .map(|args| plaway_common::Value::Int(fib::fib_reference(args[0].as_int().unwrap())))
        .collect();
    let mut latencies_ns = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for r in 0..requests {
        let q0 = Instant::now();
        if r % 8 == 7 {
            let got = batch.run_batch(&mut session, &calls).expect("batch fib");
            latencies_ns.push(q0.elapsed().as_nanos());
            assert_eq!(got, batch_expected, "batch fib returned wrong answers");
        } else {
            let k = &kernels[r % kernels.len()];
            let got = session
                .execute_prepared(&plans[r % kernels.len()], k.args.clone())
                .expect(k.name);
            latencies_ns.push(q0.elapsed().as_nanos());
            if let Some(want) = &k.expected {
                assert_eq!(&got.rows[0][0], want, "{} returned a wrong answer", k.name);
            }
        }
    }
    ThreadRun {
        latencies_ns,
        elapsed: t0.elapsed(),
    }
}

/// The churn writer: redefines a noise function and rewrites the `churn`
/// table until told to stop. No reader's plan reads `churn` or calls the
/// noise function, so the commits move the catalog version under the
/// readers without invalidating their plans.
fn churn_writer(db: &Arc<Database>, stop: &AtomicBool) -> u64 {
    let mut session = db.session();
    let mut commits = 0u64;
    let mut i = 0i64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        session
            .run(&format!(
                "CREATE OR REPLACE FUNCTION churn_noise(x int) RETURNS int \
                 AS $$ SELECT x + {i} $$ LANGUAGE SQL"
            ))
            .expect("churn DDL");
        session
            .run(&format!("INSERT INTO churn VALUES ({i}, {i})"))
            .expect("churn insert");
        if i % 16 == 0 {
            session
                .run(&format!("DELETE FROM churn WHERE k <= {}", i - 16))
                .expect("churn delete");
            commits += 1;
        }
        commits += 2;
        // Yield so the readers make progress even on a single core.
        std::thread::sleep(Duration::from_millis(2));
    }
    commits
}

/// Fan `THREADS` copies of `f` out, synchronized on a barrier, and merge
/// their runs. Aggregate rps divides total requests by the *slowest*
/// thread's wall time — the honest number for "all threads done".
fn fan_out(threads: usize, f: impl Fn(usize) -> ThreadRun + Sync) -> (u128, Vec<u128>) {
    let barrier = Barrier::new(threads);
    let runs: Vec<ThreadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let barrier = &barrier;
                let f = &f;
                scope.spawn(move || {
                    barrier.wait();
                    f(w)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total: usize = runs.iter().map(|r| r.latencies_ns.len()).sum();
    let slowest = runs.iter().map(|r| r.elapsed).max().unwrap();
    let rps = (total as f64 / slowest.as_secs_f64()) as u128;
    let mut latencies: Vec<u128> = runs.into_iter().flat_map(|r| r.latencies_ns).collect();
    latencies.sort_unstable();
    (rps, latencies)
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted: &[u128], pct: usize) -> u128 {
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Extract one unsigned integer field from a JSON-lines trace event
/// (hand-rolled; the trace writer emits flat one-line objects).
fn trace_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Re-run a short read phase on a trace-enabled database and attribute
/// tail latency per session from the structured `run` events. This is the
/// consumption side of the engine's trace mode: the report (stderr only —
/// wall times are machine-dependent, so nothing here is gated) shows which
/// session/thread paid the p99, which aggregate percentiles cannot.
fn trace_attribution(requests: usize) {
    let config = EngineConfig {
        trace: true,
        ..EngineConfig::postgres_like()
    };
    let (db, kernels) = setup_serve(config);
    fan_out(THREADS, |_| read_loop(&db, &kernels, requests));
    let lines = db.take_trace();
    let mut per_session: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for line in &lines {
        if line.contains("\"event\":\"run\"") {
            if let (Some(sid), Some(ns)) = (trace_u64(line, "session"), trace_u64(line, "ns")) {
                per_session.entry(sid).or_default().push(ns);
            }
        }
    }
    eprintln!("trace attribution ({} events):", lines.len());
    for (sid, mut ns) in per_session {
        ns.sort_unstable();
        eprintln!(
            "  session {sid}: {} runs, p50 {} ns, p99 {} ns",
            ns.len(),
            ns[(ns.len() - 1) * 50 / 100],
            ns[(ns.len() - 1) * 99 / 100],
        );
    }
}

/// Parse the flat `{"key": int}` JSON `bench_smoke` writes (same
/// hand-rolled format as `bench_gate`; the container has no serde).
fn parse_bench_json(text: &str) -> BTreeMap<String, u128> {
    let mut out = BTreeMap::new();
    let Some(body) = text
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
    else {
        return out;
    };
    for line in body.split(',') {
        if let Some((key, value)) = line.trim().split_once(':') {
            let key = key.trim().trim_matches('"');
            if let Ok(v) = value.trim().parse::<u128>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = if smoke { READS_SMOKE } else { READS_FULL };
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!(
        "serve_bench: {requests} requests/thread, {threads_available} hardware threads{}",
        if smoke { " (smoke)" } else { "" }
    );

    let (db, kernels) = setup_serve(EngineConfig::postgres_like());
    let mut results: BTreeMap<String, u128> = BTreeMap::new();
    results.insert("serve.threads_available".into(), threads_available as u128);

    // Warm the shared plan cache once so phase 1 measures steady-state
    // serving: without this, each phase's first session pays the cold
    // compile misses and the reported hit-rate mostly measures start-up,
    // not serving.
    {
        let mut warm = db.session();
        for k in &kernels {
            k.compiled.prepare(&mut warm).expect(k.name);
        }
    }
    let cache_before = db.plan_cache_stats();

    // Phase 1: read scaling, scalar-only, catalog untouched.
    let (rps_1t, _) = fan_out(1, |_| read_loop(&db, &kernels, requests));
    let (rps_4t, lat_4t) = fan_out(THREADS, |_| read_loop(&db, &kernels, requests));
    eprintln!("read: {rps_1t} req/s at 1 thread, {rps_4t} req/s at {THREADS} threads");
    results.insert("serve.read.rps_1t".into(), rps_1t);
    results.insert("serve.read.rps_4t".into(), rps_4t);
    results.insert(
        "serve.read.scaling_x100".into(),
        rps_4t * 100 / rps_1t.max(1),
    );
    results.insert("serve.read.p50_ns".into(), percentile(&lat_4t, 50));
    results.insert("serve.read.p95_ns".into(), percentile(&lat_4t, 95));
    results.insert("serve.read.p99_ns".into(), percentile(&lat_4t, 99));

    // Warm hit-rate: the plan-cache counter delta over phase 1 alone. The
    // catalog never moves during the read phase and the cache was warmed
    // above, so every per-session prepare should hit — this is the number
    // that says "a warm serving tier does not re-plan", uncontaminated by
    // cold start-up or by phase-2 batches (which re-plan on purpose).
    let cache_read = db.plan_cache_stats();
    let warm_hits = cache_read.hits - cache_before.hits;
    let warm_misses = cache_read.misses - cache_before.misses;
    let warm_rate = warm_hits * 100 / (warm_hits + warm_misses).max(1);
    eprintln!("read-phase plan cache: {warm_hits} hits, {warm_misses} misses ({warm_rate}% warm)");
    results.insert("serve.cache.warm_hit_rate_x100".into(), warm_rate as u128);

    // Phase 2: mixed load under catalog churn.
    let stop = AtomicBool::new(false);
    let (rps_mixed, lat_mixed, commits) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| churn_writer(&db, &stop));
        let out = fan_out(THREADS, |w| mixed_loop(&db, &kernels, w, requests));
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        (out.0, out.1, commits)
    });
    eprintln!("mixed: {rps_mixed} req/s at {THREADS} threads, {commits} writer commits");
    results.insert("serve.mixed.rps_4t".into(), rps_mixed);
    results.insert("serve.mixed.p50_ns".into(), percentile(&lat_mixed, 50));
    results.insert("serve.mixed.p95_ns".into(), percentile(&lat_mixed, 95));
    results.insert("serve.mixed.p99_ns".into(), percentile(&lat_mixed, 99));
    results.insert("serve.mixed.writer_commits".into(), commits as u128);

    // Engine-wide metrics after both phases: the plan-cache counters feed
    // the hit-rate column of `scripts/bench_diff.sh`. The full snapshot
    // JSON goes to stderr for inspection; only the cache keys are merged
    // (the other registry fields are machine-load-dependent).
    let metrics = db.metrics();
    eprintln!("metrics: {}", metrics.to_json());
    results.insert("serve.cache.hits".into(), metrics.plan_cache.hits as u128);
    results.insert(
        "serve.cache.misses".into(),
        metrics.plan_cache.misses as u128,
    );
    results.insert(
        "serve.cache.evictions".into(),
        metrics.plan_cache.evictions as u128,
    );

    // Phase 3: trace-mode tail-latency attribution (stderr report only).
    trace_attribution(requests.min(50));

    // Merge into BENCH_smoke.json: keep bench_smoke's kernel keys, replace
    // any previous serve.* section.
    let mut merged = std::fs::read_to_string("BENCH_smoke.json")
        .map(|t| parse_bench_json(&t))
        .unwrap_or_default();
    merged.retain(|k, _| !k.starts_with("serve."));
    merged.extend(results);

    let mut json = String::from("{\n");
    for (i, (key, v)) in merged.iter().enumerate() {
        let comma = if i + 1 < merged.len() { "," } else { "" };
        json.push_str(&format!("  \"{key}\": {v}{comma}\n"));
    }
    json.push_str("}\n");
    std::fs::write("BENCH_smoke.json", &json).expect("write BENCH_smoke.json");
    print!("{json}");
    eprintln!(
        "merged serve.* into BENCH_smoke.json ({} entries)",
        merged.len()
    );
}
