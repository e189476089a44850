//! Figure 10: iterative PL/SQL vs recursive SQL — wall clock time for one
//! walk() invocation across intra-function iteration counts.
//!
//! Usage: `cargo run --release -p plaway-bench --bin figure10 [runs]`
//! (default 10 runs per point, as in the paper)

use std::cell::RefCell;

use plaway_bench::measure::{case, measure};
use plaway_bench::*;
use plaway_core::CompileOptions;
use plaway_engine::EngineConfig;

fn main() {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let b = RefCell::new(setup_walk(EngineConfig::postgres_like()));
    let plan = {
        let mut b = b.borrow_mut();
        let compiled = b.compile(CompileOptions::default()).unwrap();
        compiled.prepare(&mut b.session).unwrap()
    };

    println!(
        "Figure 10: wall clock per walk() invocation, median [quartiles] of {runs} interleaved rounds\n"
    );
    println!(
        "{:>11} | {:>26} | {:>26} | {:>5}",
        "#iterations", "PL/SQL (ms)", "WITH RECURSIVE (ms)", "rel"
    );
    println!("{:->11}-+-{:->26}-+-{:->26}-+-{:->5}", "", "", "", "");

    for steps in [10_000i64, 25_000, 50_000, 75_000, 100_000] {
        let args = walk_args(steps);
        // Both sides start every call from seed 1: the same walk.
        let spreads = measure(
            &mut [
                case("PL/SQL", || {
                    let mut b = b.borrow_mut();
                    b.session.set_seed(1);
                    b.run_interp(&args).map(drop)
                }),
                case("WITH RECURSIVE", || {
                    let mut b = b.borrow_mut();
                    b.session.set_seed(1);
                    b.session.execute_prepared(&plan, args.clone()).map(drop)
                }),
            ],
            1,
            runs,
        )
        .unwrap();
        let [interp, sql] = [spreads[0].per(1e6), spreads[1].per(1e6)];
        println!(
            "{steps:>11} | {:>26} | {:>26} | {:>4.0}%",
            format!(
                "{:8.1} [{:8.1}..{:8.1}]",
                interp.median, interp.q1, interp.q3
            ),
            format!("{:8.1} [{:8.1}..{:8.1}]", sql.median, sql.q1, sql.q3),
            sql.median / interp.median * 100.0
        );
    }
    println!("\npaper: recursive SQL at ~57% of PL/SQL (43% savings) across 10k..100k");
}
