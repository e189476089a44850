//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. execution mode: interpreter vs recursive SQL UDF (Figure 7, §2's
//!    "disappointing performance characteristics") vs WITH RECURSIVE vs
//!    WITH ITERATE,
//! 2. argument layout: flattened columns vs packed ROW (Figure 8),
//! 3. SSA optimization passes on/off.
//!
//! Usage: `cargo run --release -p plaway-bench --bin ablation [-- udf]`

use std::cell::RefCell;

use plaway_bench::measure::{case, measure, Case};
use plaway_bench::*;
use plaway_common::Value;
use plaway_core::{ArgsLayout, CompileOptions, CteMode};
use plaway_engine::{EngineConfig, TierMode};

const WARMUP_ROUNDS: usize = 1;
const ROUNDS: usize = 3;

/// Median ms of each case, all sampled in the same interleaved rounds.
fn median_ms(cases: &mut [Case]) -> Vec<f64> {
    measure(cases, WARMUP_ROUNDS, ROUNDS)
        .expect("ablation case")
        .iter()
        .map(|s| s.median / 1e6)
        .collect()
}

fn main() {
    let only_udf = std::env::args().any(|a| a == "udf");
    let steps = 2_000i64;

    // ---- mode ablation on walk -----------------------------------------
    let b = RefCell::new(setup_walk(EngineConfig::postgres_like()));
    let args = walk_args(steps);
    let compile = |options| b.borrow().compile(options).unwrap();
    let rec = compile(CompileOptions::default());
    let iter = compile(CompileOptions::iterate());
    let packed = compile(CompileOptions::packed());
    let raw = compile(CompileOptions {
        optimize: false,
        ..Default::default()
    });

    println!("ablation: walk(), {steps} steps, median of {ROUNDS} interleaved rounds (postgres profile)\n");

    // Recursive SQL UDF (Figure 7): pays Start/End per recursive call and
    // runs against the engine's call-depth limit, so measure fewer steps
    // and scale. The paper: "the direct evaluation of these UDFs has
    // disappointing performance characteristics". The UDFs replace the
    // PL/pgSQL `walk`, so they get a session of their own.
    let udf_steps = 300i64;
    let mut udf = setup_walk(EngineConfig::postgres_like());
    udf.session.config.max_udf_depth = 2_000;
    rec.install_udfs(&mut udf.session).unwrap();
    let call = format!("SELECT walk(ROW(2, 2), 1000000, -1000000, {udf_steps})");

    // Every call starts from seed 1, so every mode walks the same path.
    let mut cases = vec![
        case("PL/pgSQL interpreter", || {
            let mut b = b.borrow_mut();
            b.session.set_seed(1);
            b.run_interp(&args).map(drop)
        }),
        case(
            format!("recursive SQL UDF (scaled from {udf_steps})"),
            || {
                udf.session.set_seed(1);
                udf.session.run(&call).map(drop)
            },
        ),
    ];
    for (name, compiled) in [
        ("WITH RECURSIVE (flattened args)", &rec),
        ("WITH ITERATE (flattened args)", &iter),
        ("WITH RECURSIVE (packed ROW args)", &packed),
        ("WITH RECURSIVE (unoptimized SSA)", &raw),
    ] {
        let plan = compiled.prepare(&mut b.borrow_mut().session).unwrap();
        let (b, args) = (&b, &args);
        cases.push(case(name, move || {
            let mut b = b.borrow_mut();
            b.session.set_seed(1);
            b.session.execute_prepared(&plan, args.clone()).map(drop)
        }));
    }
    let mut ms = median_ms(&mut cases);
    ms[1] *= steps as f64 / udf_steps as f64;
    let baseline = ms[0];
    println!("{:<34} {baseline:>9.1} ms   (baseline)", cases[0].name);
    for (case, ms) in cases.iter().zip(&ms).skip(1) {
        println!(
            "{:<34} {ms:>9.1} ms   ({:>4.0}% of interpreter)",
            case.name,
            ms / baseline * 100.0
        );
    }
    drop(cases);

    if only_udf {
        return;
    }

    // ---- stack depth limit (the §2 claim) -------------------------------
    println!("\nrecursive SQL UDF vs the engine's stack depth limit:");
    udf.session.config.max_udf_depth = 256; // back to the default
    let deep_call = "SELECT walk(ROW(2, 2), 1000000, -1000000, 5000)";
    match udf.session.run(deep_call) {
        Err(e) => println!("  5000 steps via UDF: {e}"),
        Ok(_) => println!("  5000 steps via UDF: unexpectedly succeeded"),
    }
    udf.session.set_seed(1);
    let v = rec.run(&mut udf.session, &walk_args(5_000)).unwrap();
    println!("  5000 steps via WITH RECURSIVE: ok (result {v})");

    // ---- layout ablation on parse ---------------------------------------
    println!("\nablation: parse(), argument layouts (2000-char input):");
    let mut b = setup_parse(EngineConfig::postgres_like());
    let args = parse_args(2_000);
    let layouts = [
        ("flattened columns", CompileOptions::default()),
        ("packed ROW column", CompileOptions::packed()),
        (
            "packed + ITERATE",
            CompileOptions {
                layout: ArgsLayout::Packed,
                mode: CteMode::Iterate,
                ..Default::default()
            },
        ),
    ];
    let plans: Vec<_> = layouts
        .iter()
        .map(|(_, options)| {
            let compiled = b.compile(*options).unwrap();
            compiled.prepare(&mut b.session).unwrap()
        })
        .collect();
    let b = RefCell::new(b);
    let mut cases: Vec<Case> = layouts
        .iter()
        .zip(&plans)
        .map(|((name, _), plan)| {
            case(*name, || {
                b.borrow_mut()
                    .session
                    .execute_prepared(plan, args.clone())
                    .map(drop)
            })
        })
        .collect();
    for ((name, _), ms) in layouts.iter().zip(median_ms(&mut cases)) {
        println!("  {name:<28} {ms:>9.1} ms");
    }
    drop(cases);

    // ---- batch trampoline working set ------------------------------------
    // One WITH RETIRE fixpoint drives every call; the counters show the
    // working-set story: peak in-flight activations vs total retired.
    println!("\nbatch trampoline: fibonacci, 100000 calls through one fixpoint:");
    let mut b = setup_fib(EngineConfig::postgres_like());
    let compiled = b.compile(CompileOptions::iterate()).unwrap();
    let calls = batch_fib_calls(100_000);
    // Counters are reset before every call, so they describe one call.
    let ms = median_ms(&mut [case("batch", || {
        b.session.stats.batch = Default::default();
        compiled.run_batch(&mut b.session, &calls).map(drop)
    })])[0];
    let counters = b.session.stats.batch;
    println!(
        "  wall clock                   {ms:>9.1} ms   ({:.0} calls/sec)",
        calls.len() as f64 / (ms / 1e3)
    );
    println!(
        "  batch_rows_in_flight (peak)  {:>9}",
        counters.batch_rows_in_flight
    );
    println!(
        "  batch_rows_retired           {:>9}",
        counters.batch_rows_retired
    );

    // ---- execution tier per-iteration cost -------------------------------
    // The fused fixpoint transition in the `Value`-domain VM vs the typed
    // mono pipeline, on the two shape-recognized kernels. Total wall time
    // over the `recursive_iterations` delta gives ns per iteration — both
    // tiers run the same iterations on the same inputs, so the ratio is
    // exactly the dispatch + boxing the mono tier removes.
    println!("\ntiered execution: ns per fixpoint iteration, VM vs mono:");
    type TierCase = (&'static str, fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let tier_cases: [TierCase; 2] = [
        ("fibonacci(500)", setup_fib, fib_args(500)),
        ("parse(150)", setup_parse, parse_args(150)),
    ];
    for (name, setup, args) in tier_cases {
        let mut iters = Vec::new();
        let mut cases = Vec::new();
        for mode in [TierMode::ForceOff, TierMode::ForceOn] {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            let mut b = setup(config);
            let compiled = b.compile(CompileOptions::iterate()).unwrap();
            let plan = compiled.prepare(&mut b.session).unwrap();
            b.session.set_seed(1);
            let before = b.session.stats.recursive_iterations;
            b.session.execute_prepared(&plan, args.clone()).unwrap();
            iters.push(((b.session.stats.recursive_iterations - before) as f64).max(1.0));
            let args = args.clone();
            cases.push(case(format!("{mode:?}"), move || {
                b.session.set_seed(1);
                b.session.execute_prepared(&plan, args.clone()).map(drop)
            }));
        }
        let ms = median_ms(&mut cases);
        let per_iter: Vec<f64> = ms.iter().zip(&iters).map(|(ms, n)| ms * 1e6 / n).collect();
        println!(
            "  {name:<28} vm {:>6.0} ns/iter   mono {:>6.0} ns/iter   ({:.1}x)",
            per_iter[0],
            per_iter[1],
            per_iter[0] / per_iter[1]
        );
    }
}
