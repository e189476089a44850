//! Fast smoke benchmark seeding the `BENCH_*.json` perf trajectory.
//!
//! Runs six small kernels — `walk` (query-per-step, the paper's headline),
//! `fibonacci` (query-less), `graph` (digraph traversal), `fsa`
//! (string-consuming automaton), `checked` (RAISE + EXCEPTION recovery per
//! iteration) and `settle` (FOR-over-query ledger fold) — in all three
//! execution modes:
//!
//! * `interpreter` — statement-by-statement PL/pgSQL interpretation,
//! * `with_recursive` — the compiled `WITH RECURSIVE` query,
//! * `with_iterate` — the compiled `WITH ITERATE` variant (Passing et al.).
//!
//! plus the batch-invocation throughput pairs
//! `batch.{fibonacci,checked}.{compiled,interp}_ns_per_call` — one
//! `WITH RETIRE` fixpoint over 10⁵ invocations vs a loop of independent
//! interpreted calls (each paying the modeled executor lifecycle) —
//! and the access-path pairs `index.{point,range,settle_top}.{indexed,seq}_ns`
//! — the same statement over a 10⁵-row indexed ledger in an `Auto` session
//! (index scans on) vs a `ForceOff` twin (always seq scan) — and the
//! tiered-execution pairs `tier.{fibonacci,fsa}.{vm,mono}_ns_per_iter`:
//! the two shape-recognized fixpoints per iteration, in the `Value` VM
//! (`TierMode::ForceOff`) vs the typed mono pipeline (`ForceOn`).
//!
//! Every case is registered in one [`measure`] round-robin, so both sides
//! of every gated ratio are sampled in the same rounds. Writes
//! `BENCH_smoke.json` ({key → median ns}, keys sorted so baseline diffs are
//! stable) to the current directory; the median's quartiles and the
//! machine (nproc, CPU model) go to standard error. CI's `bench-gate` job
//! compares the fresh numbers against the committed baseline.
//!
//! Usage: `cargo run --release -p plaway-bench --bin bench_smoke`

use std::cell::RefCell;

use plaway_bench::measure::{case, machine, measure, Case};
use plaway_bench::{
    batch_checked_calls, batch_fib_calls, checked_args, fib_args, parse_args, settle_args,
    setup_checked, setup_fib, setup_index_sessions, setup_parse, setup_settle, setup_settle_top,
    setup_traverse, setup_walk, traverse_args, walk_args, BenchSetup,
};
use plaway_common::{Error, Result, Value};
use plaway_core::CompileOptions;
use plaway_engine::{EngineConfig, IndexMode, ParamScope, Session, TierMode};

const WARMUP_ROUNDS: usize = 3;
const ROUNDS: usize = 15;

/// Invocations per batch-throughput query (the ≥ 10⁵ regime the batch
/// trampoline targets).
const BATCH_ROWS: usize = 100_000;
/// The interpreted loop is ~7× slower per call, so it is sampled.
const BATCH_INTERP_SAMPLE: usize = 10_000;

/// Every case of the smoke run, with the count that turns a case's
/// per-call time into its key's unit (calls of a batch, iterations of a
/// fixpoint; 1 for a plain call).
#[derive(Default)]
struct Smoke<'a> {
    cases: Vec<Case<'a>>,
    per: Vec<u128>,
}

impl<'a> Smoke<'a> {
    fn add(&mut self, name: String, per: u128, run: impl FnMut() -> Result<()> + 'a) {
        self.cases.push(case(name, run));
        self.per.push(per);
    }
}

/// `Ok` when a timed call returned `want`: a wrong-but-fast answer fails
/// the run instead of becoming a sample.
fn expect(key: &str, got: Value, want: &Value) -> Result<()> {
    if &got == want {
        Ok(())
    } else {
        Err(Error::exec(format!("{key}: got {got}, want {want}")))
    }
}

/// All three modes for one kernel. Every call starts from seed 1 and must
/// return the interpreter's seed-1 answer, so the modes take the same path
/// whatever ran before them in the round. Every compiled mode goes through
/// the normalized `Compiled::prepare` + `Session::execute_prepared` path.
fn smoke_kernel<'a>(
    smoke: &mut Smoke<'a>,
    kernel: &'a str,
    b: &'a RefCell<BenchSetup>,
    args: Vec<Value>,
) {
    let want = {
        let mut b = b.borrow_mut();
        b.session.set_seed(1);
        b.run_interp(&args).expect(kernel)
    };
    {
        let (args, want) = (args.clone(), want.clone());
        smoke.add(format!("{kernel}.interpreter"), 1, move || {
            let mut b = b.borrow_mut();
            b.session.set_seed(1);
            let got = b.run_interp(&args)?;
            expect(kernel, got, &want)
        });
    }
    for (mode, options) in [
        ("with_recursive", CompileOptions::default()),
        ("with_iterate", CompileOptions::iterate()),
    ] {
        let plan = {
            let mut b = b.borrow_mut();
            let compiled = b.compile(options).expect(kernel);
            compiled.prepare(&mut b.session).expect(kernel)
        };
        let (args, want) = (args.clone(), want.clone());
        smoke.add(format!("{kernel}.{mode}"), 1, move || {
            let mut b = b.borrow_mut();
            b.session.set_seed(1);
            let got = b.session.execute_prepared(&plan, args.clone())?.scalar()?;
            expect(kernel, got, &want)
        });
    }
}

/// Batch throughput: one `WITH RETIRE` fixpoint driving all `calls`
/// (compiled) vs a loop of independent interpreted calls, each paying the
/// modeled executor lifecycle. The batch input table is loaded and the
/// plan cached before timing — the paper's scenario of applying a UDF to
/// a table that already exists — so the timed region is exactly the per-
/// query work each architecture repeats. Keys are integer ns *per call*.
fn smoke_batch<'a>(
    smoke: &mut Smoke<'a>,
    kernel: &str,
    b: &'a RefCell<BenchSetup>,
    calls: Vec<Vec<Value>>,
) {
    let plan = {
        let mut b = b.borrow_mut();
        let compiled = b.compile(CompileOptions::iterate()).expect(kernel);
        compiled
            .prepare_batch(&mut b.session, &calls)
            .expect(kernel)
    };
    smoke.add(
        format!("batch.{kernel}.compiled_ns_per_call"),
        calls.len() as u128,
        move || {
            b.borrow_mut()
                .session
                .execute_prepared(&plan, Vec::new())
                .map(drop)
        },
    );
    let sample = calls[..BATCH_INTERP_SAMPLE.min(calls.len())].to_vec();
    smoke.add(
        format!("batch.{kernel}.interp_ns_per_call"),
        sample.len() as u128,
        move || b.borrow_mut().interp_loop(&sample).map(drop),
    );
}

/// Cost-based access paths: the same prepared aggregate over the 10⁵-row
/// indexed ledger, planned in an `Auto` session (index access paths on)
/// and a `ForceOff` twin sharing the same database (always seq scan).
/// Both modes must return identical rows — a wrong-but-fast probe would
/// poison the trajectory. `bench_gate` enforces the ≥ 5× win on the
/// point and range pairs; the `settle_top` kernel pair is trajectory-only
/// (its fixpoint fold dominates the scan, so the ratio is modest).
fn smoke_index<'a>(smoke: &mut Smoke<'a>, sessions: &'a [(&'static str, RefCell<Session>); 2]) {
    for (probe, sql) in [
        (
            "point",
            "SELECT count(*), sum(l.kind) FROM ledger AS l WHERE l.amount = 37",
        ),
        (
            "range",
            "SELECT count(*), sum(l.kind) FROM ledger AS l \
             WHERE l.amount >= 90 AND l.amount < 96",
        ),
    ] {
        let mut reference = None;
        for (mode, s) in sessions {
            let plan = s
                .borrow_mut()
                .prepare(sql, &ParamScope::new(Vec::new()))
                .expect(probe);
            let got = s
                .borrow_mut()
                .execute_prepared(&plan, Vec::new())
                .expect(probe);
            match &reference {
                None => reference = Some(got.rows),
                Some(want) => assert_eq!(&got.rows, want, "index.{probe}: access paths disagree"),
            }
            smoke.add(format!("index.{probe}.{mode}_ns"), 1, move || {
                s.borrow_mut().execute_prepared(&plan, Vec::new()).map(drop)
            });
        }
    }

    // The selective settle kernel at the same scale, compiled, both modes.
    for (mode, index_mode) in [("indexed", IndexMode::Auto), ("seq", IndexMode::ForceOff)] {
        let mut b = setup_settle_top(EngineConfig::postgres_like());
        b.session.config.index_mode = index_mode;
        let compiled = b.compile(CompileOptions::default()).expect("settle_top");
        let plan = compiled.prepare(&mut b.session).expect("settle_top");
        smoke.add(format!("index.settle_top.{mode}_ns"), 1, move || {
            b.session.execute_prepared(&plan, settle_args()).map(drop)
        });
    }
}

/// Tiered execution: the two shape-recognized kernels per iteration, with
/// the tier pinned both ways. `ForceOff` keeps every fixpoint in the
/// `Value`-domain VM; `ForceOn` promotes the transition to the typed mono
/// pipeline before the first iteration. Per-iteration ns (total wall time
/// over the fixpoint's `recursive_iterations` delta) is the honest unit —
/// both tiers run the same number of iterations on the same inputs, so
/// the ratio isolates exactly the dispatch + boxing the mono tier
/// removes. Both tiers must return identical rows, and `ForceOn` must
/// actually promote — an unpromoted "mono" number would gate nothing.
fn smoke_tier(smoke: &mut Smoke) {
    type TierCase = (&'static str, fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let cases: [TierCase; 2] = [
        ("fibonacci", setup_fib, fib_args(500)),
        ("fsa", setup_parse, parse_args(150)),
    ];
    for (name, setup, args) in cases {
        let mut reference = None;
        for (tier, mode) in [("vm", TierMode::ForceOff), ("mono", TierMode::ForceOn)] {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            let mut b = setup(config);
            let compiled = b.compile(CompileOptions::iterate()).expect(name);
            let plan = compiled.prepare(&mut b.session).expect(name);
            b.session.set_seed(1);
            let before = b.session.stats.recursive_iterations;
            let got = b.session.execute_prepared(&plan, args.clone()).expect(name);
            let iters = ((b.session.stats.recursive_iterations - before) as u128).max(1);
            match &reference {
                None => reference = Some(got.rows),
                Some(want) => assert_eq!(&got.rows, want, "tier.{name}: tiers disagree"),
            }
            if tier == "mono" {
                assert!(
                    b.session.metrics.tier_promotions > 0,
                    "tier.{name}: ForceOn never promoted — the mono number would be a lie"
                );
            }
            let args = args.clone();
            smoke.add(
                format!("tier.{name}.{tier}_ns_per_iter"),
                iters,
                move || {
                    b.session.set_seed(1);
                    b.session.execute_prepared(&plan, args.clone()).map(drop)
                },
            );
        }
    }
}

fn main() {
    let config = EngineConfig::postgres_like;
    let walk = RefCell::new(setup_walk(config()));
    let fib = RefCell::new(setup_fib(config()));
    let graph = RefCell::new(setup_traverse(config()));
    let fsa = RefCell::new(setup_parse(config()));
    let checked = RefCell::new(setup_checked(config()));
    let settle = RefCell::new(setup_settle(config()));
    let (indexed, seq) = setup_index_sessions(config());
    let index_sessions = [
        ("indexed", RefCell::new(indexed)),
        ("seq", RefCell::new(seq)),
    ];

    let mut smoke = Smoke::default();
    smoke_kernel(&mut smoke, "walk", &walk, walk_args(100));
    smoke_kernel(&mut smoke, "fibonacci", &fib, fib_args(500));
    smoke_kernel(&mut smoke, "graph", &graph, traverse_args(40));
    smoke_kernel(&mut smoke, "fsa", &fsa, parse_args(150));
    smoke_kernel(&mut smoke, "checked", &checked, checked_args(200));
    smoke_kernel(&mut smoke, "settle", &settle, settle_args());
    // Batch throughput (the calls/sec story): 10⁵ invocations per query.
    smoke_batch(&mut smoke, "fibonacci", &fib, batch_fib_calls(BATCH_ROWS));
    smoke_batch(
        &mut smoke,
        "checked",
        &checked,
        batch_checked_calls(BATCH_ROWS),
    );
    // Index access paths (the seq-vs-index story): 10⁵-row indexed ledger.
    smoke_index(&mut smoke, &index_sessions);
    // Tiered execution (the VM-vs-mono story): per-iteration ns, both tiers.
    smoke_tier(&mut smoke);

    eprintln!("{}", machine());
    let spreads = measure(&mut smoke.cases, WARMUP_ROUNDS, ROUNDS).expect("smoke benchmark");
    let mut results: Vec<(&str, u128)> = Vec::new();
    for ((case, per), spread) in smoke.cases.iter().zip(&smoke.per).zip(spreads) {
        let s = spread.per(*per as f64);
        eprintln!(
            "{:<40} {:>12.0} ns  IQR [{:.0}..{:.0}]",
            case.name, s.median, s.q1, s.q3
        );
        results.push((&case.name, s.median.round() as u128));
    }

    // Deterministic key order so baseline diffs (and the CI gate) are stable.
    results.sort_unstable();

    let mut json = String::from("{\n");
    for (i, (key, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("  \"{key}\": {ns}{comma}\n"));
    }
    json.push_str("}\n");

    std::fs::write("BENCH_smoke.json", &json).expect("write BENCH_smoke.json");
    print!("{json}");
    eprintln!(
        "wrote BENCH_smoke.json ({} entries, median ns of {ROUNDS} interleaved rounds)",
        results.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_cases_reseed_before_every_timed_call() {
        let walk = RefCell::new(setup_walk(EngineConfig::raw()));
        // Reachable bounds, so the answer depends on the path the RNG
        // takes (`walk_args` never ends early and always returns 0).
        let args = vec![
            Value::coord(2, 2),
            Value::Int(3),
            Value::Int(-3),
            Value::Int(100),
        ];
        let answer = |seed| {
            let mut b = walk.borrow_mut();
            b.session.set_seed(seed);
            b.run_interp(&args).unwrap()
        };
        assert_ne!(answer(1), answer(7), "seed 7 must take another path");

        let mut smoke = Smoke::default();
        smoke_kernel(&mut smoke, "walk", &walk, args.clone());
        // A case that leaves the session RNG at seed 7's state between
        // the walk cases: they still return the seed-1 answer.
        smoke.add("disturb".into(), 1, || {
            let mut b = walk.borrow_mut();
            b.session.set_seed(7);
            b.run_interp(&args).map(drop)
        });
        measure(&mut smoke.cases, 1, 4).expect("every walk call reseeds");
    }
}
