//! `plaway-bench` — shared harness for regenerating every table and figure
//! of the paper.
//!
//! Binaries (each prints a paper-style artifact, see DESIGN.md §3):
//!
//! | binary | artifact |
//! |---|---|
//! | `profile_walk` | Figure 3 profile bars (per-`Qi` breakdown) |
//! | `table1` | Table 1 — % time in ExecStart/Run/End/Interp |
//! | `figure10` | Figure 10 — wall clock vs iterations, walk |
//! | `figure11` | Figures 11a/b — invocation × iteration heat maps |
//! | `table2` | Table 2 — buffer page writes, ITERATE vs RECURSIVE |
//! | `ablation` | execution-mode & design-choice ablations |
//!
//! Every timed number comes from [`measure::measure`]: warm-up rounds,
//! then interleaved rounds that run each case once in a rotating order,
//! summarized as median, quartiles and extremes.

pub mod measure;

use std::time::Duration;

use plaway_common::{Result, Value};
use plaway_core::{compile_sql, CompileOptions, Compiled};
use plaway_engine::{Database, EngineConfig, IndexMode, Session};
use plaway_interp::Interpreter;
use plaway_workloads::{checked, fib, fsa, graph, grid, rowagg};

/// A workload instance ready for measurement.
pub struct BenchSetup {
    pub session: Session,
    pub interp: Interpreter,
    pub fn_name: &'static str,
    pub source: String,
}

impl BenchSetup {
    /// Compile the workload's function with the given options.
    pub fn compile(&self, options: CompileOptions) -> Result<Compiled> {
        compile_sql(&self.session.catalog, &self.source, options)
    }

    /// One interpreted invocation.
    pub fn run_interp(&mut self, args: &[Value]) -> Result<Value> {
        self.interp.call(&mut self.session, self.fn_name, args)
    }

    /// Drive `calls` as N independent interpreted invocations, each paying
    /// the full executor lifecycle around its outer statement — the
    /// "millions of scalar calls" loop the batch trampoline replaces.
    /// Returns the results in input order.
    pub fn interp_loop(&mut self, calls: &[Vec<Value>]) -> Result<Vec<Value>> {
        // The outer statement shell each call rides in is prepared once —
        // generous to the loop side: a real client would at best hit the
        // plan cache here and still pay Start/End per statement.
        let shell = self
            .session
            .prepare("SELECT 1", &plaway_engine::ParamScope::new(Vec::new()))?;
        let mut out = Vec::with_capacity(calls.len());
        for args in calls {
            let handle = self.session.executor_start(&shell, Vec::new());
            let v = self.interp.call(&mut self.session, self.fn_name, args)?;
            self.session.executor_end(handle);
            out.push(v);
        }
        Ok(out)
    }
}

/// The robot world of Figures 1–3 (5×5 grid, seed 42 — the defaults every
/// artifact uses).
pub fn setup_walk(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    grid::GridWorld::generate(5, 5, 42)
        .install(&mut session)
        .expect("grid install");
    let w = grid::walk_workload();
    w.install(&mut session).expect("walk install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "walk",
        source: w.source,
    }
}

/// `walk` arguments with unreachable win/loose bounds: exactly `steps`
/// iterations.
pub fn walk_args(steps: i64) -> Vec<Value> {
    vec![
        Value::coord(2, 2),
        Value::Int(1_000_000),
        Value::Int(-1_000_000),
        Value::Int(steps),
    ]
}

/// The FSA `parse` workload.
pub fn setup_parse(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    fsa::install_fsa(&mut session).expect("fsa install");
    let w = fsa::parse_workload();
    w.install(&mut session).expect("parse install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "parse",
        source: w.source,
    }
}

/// `parse` argument: an accepted input of exactly `len` characters.
pub fn parse_args(len: usize) -> Vec<Value> {
    vec![Value::text(fsa::generate_input(len, 99))]
}

/// The digraph `traverse` workload (5000 nodes).
pub fn setup_traverse(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    graph::Digraph::generate(5_000, 11)
        .install(&mut session)
        .expect("graph install");
    let w = graph::traverse_workload();
    w.install(&mut session).expect("traverse install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "traverse",
        source: w.source,
    }
}

pub fn traverse_args(hops: i64) -> Vec<Value> {
    vec![Value::Int(1), Value::Int(hops)]
}

/// The query-less `fibonacci` workload.
pub fn setup_fib(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    let w = fib::fib_workload();
    w.install(&mut session).expect("fib install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "fibonacci",
        source: w.source,
    }
}

pub fn fib_args(n: i64) -> Vec<Value> {
    vec![Value::Int(n)]
}

/// Batch argument vectors for `fibonacci`: `n_i = i % 2`, i.e. a table of
/// *cheap* calls — the dispatch-bound regime where the per-call executor
/// lifecycle dominates and the single-fixpoint batch amortizes it away.
pub fn batch_fib_calls(n: usize) -> Vec<Vec<Value>> {
    (0..n).map(|i| vec![Value::Int((i % 2) as i64)]).collect()
}

/// Batch argument vectors for `checked_sum`: short 4-character per-row
/// inputs (seeded per row) with a low cap, so both EXCEPTION handler arms
/// fire somewhere in every sizable batch.
pub fn batch_checked_calls(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::text(checked::generate_input(4, i as u64)),
                Value::Int(50),
            ]
        })
        .collect()
}

/// The `checked_sum` error-handling workload (RAISE + EXCEPTION recovery
/// on every iteration, query-less).
pub fn setup_checked(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    let w = checked::checked_workload();
    w.install(&mut session).expect("checked install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "checked_sum",
        source: w.source,
    }
}

/// `checked_sum` arguments: a deterministic `len`-character input (seed 42,
/// ~15% non-digits so both handler arms fire) and a cap low enough to
/// overflow repeatedly.
pub fn checked_args(len: usize) -> Vec<Value> {
    vec![
        Value::text(checked::generate_input(len, 42)),
        Value::Int((len as i64) * 2),
    ]
}

/// The `settle` FOR-over-query workload (480-entry generated ledger —
/// long enough that the row loop, not the fixed executor lifecycle,
/// dominates; with the pre-materialize `LIMIT 1 OFFSET i-1` desugaring
/// this size would cost ~230k row touches, with the snapshot cursor it
/// costs 480).
pub fn setup_settle(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    rowagg::Ledger::generate(480, 7)
        .install(&mut session)
        .expect("ledger install");
    let w = rowagg::settle_workload();
    w.install(&mut session).expect("settle install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "settle",
        source: w.source,
    }
}

/// `settle` argument: an unreachable limit, so the loop folds every row.
pub fn settle_args() -> Vec<Value> {
    vec![Value::Int(1_000_000)]
}

/// How many ledger rows the scaled index fixtures generate (seed 7): big
/// enough that a full scan visibly loses to a probe, small enough that the
/// smoke bench stays in seconds.
pub const INDEX_LEDGER_ROWS: usize = 100_000;

/// The selective `settle_top` kernel at scale: a 10⁵-row ledger with a
/// btree on `amount` and a loop source that folds only the ~10% largest
/// entries. The access path the planner picks for the loop source — probe
/// or full scan — now decides how many rows the snapshot materialization
/// touches.
pub fn setup_settle_top(config: EngineConfig) -> BenchSetup {
    let mut session = Session::new(config);
    rowagg::Ledger::generate(INDEX_LEDGER_ROWS, 7)
        .install(&mut session)
        .expect("ledger install");
    session
        .run("CREATE INDEX ledger_amount ON ledger (amount)")
        .expect("ledger index");
    let w = rowagg::settle_top_workload();
    w.install(&mut session).expect("settle_top install");
    BenchSetup {
        session,
        interp: Interpreter::new(),
        fn_name: "settle_top",
        source: w.source,
    }
}

/// The same 10⁵-row indexed ledger attached twice to ONE database: an
/// `Auto` session whose planner may pick index access paths and a
/// `ForceOff` twin that always sequential-scans. Timing one prepared
/// query on both pins the index win end to end (`BENCH_smoke.json`'s
/// `index.*` keys, enforced ≥ 5× by `bench_gate`).
pub fn setup_index_sessions(config: EngineConfig) -> (Session, Session) {
    let db = Database::new(config);
    let mut indexed = db.session();
    rowagg::Ledger::generate(INDEX_LEDGER_ROWS, 7)
        .install(&mut indexed)
        .expect("ledger install");
    indexed
        .run("CREATE INDEX ledger_amount ON ledger (amount)")
        .expect("ledger index");
    let mut seq = db.session();
    seq.config.index_mode = IndexMode::ForceOff;
    (indexed, seq)
}

/// One request kind of the serve driver's mixed kernel load: a compiled
/// artifact (self-contained — scalar plans carry the inlined body, so no
/// per-session function registration is needed), its argument vector, and
/// the expected result where the kernel is deterministic (`walk` consults
/// the session RNG, so it is sanity-checked only).
pub struct ServeKernel {
    pub name: &'static str,
    pub compiled: Compiled,
    pub args: Vec<Value>,
    pub expected: Option<Value>,
}

/// Build the shared database the multi-threaded serve driver hammers: all
/// four kernel workloads (`fibonacci`, `checked_sum`, `settle`, `walk`)
/// installed into ONE `Database`, plus a `churn` table for the DDL/DML
/// writer thread. The workloads use disjoint table/function names, so they
/// coexist in a single catalog.
pub fn setup_serve(config: EngineConfig) -> (std::sync::Arc<Database>, Vec<ServeKernel>) {
    let db = Database::new(config);
    let mut s = db.session();

    let fib_w = fib::fib_workload();
    fib_w.install(&mut s).expect("fib install");
    let checked_w = checked::checked_workload();
    checked_w.install(&mut s).expect("checked install");
    rowagg::Ledger::generate(480, 7)
        .install(&mut s)
        .expect("ledger install");
    let settle_w = rowagg::settle_workload();
    settle_w.install(&mut s).expect("settle install");
    grid::GridWorld::generate(5, 5, 42)
        .install(&mut s)
        .expect("grid install");
    let walk_w = grid::walk_workload();
    walk_w.install(&mut s).expect("walk install");
    s.run("CREATE TABLE churn (k int, v int)")
        .expect("churn table");

    // Sized so one request is real work (recursion, handler unwinding, a
    // row loop) but short enough that a smoke run finishes in seconds.
    let specs: [(&'static str, &String, Vec<Value>); 4] = [
        ("fibonacci", &fib_w.source, fib_args(15)),
        ("checked_sum", &checked_w.source, checked_args(24)),
        ("settle", &settle_w.source, settle_args()),
        ("walk", &walk_w.source, walk_args(40)),
    ];
    let kernels = specs
        .into_iter()
        .map(|(name, source, args)| {
            let compiled = compile_sql(&s.catalog, source, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{name} compile: {e}"));
            let expected = if name == "walk" {
                None
            } else {
                Some(compiled.run(&mut s, &args).expect(name))
            };
            ServeKernel {
                name,
                compiled,
                args,
                expected,
            }
        })
        .collect();
    (db, kernels)
}

/// A thread-private batch-mode `fibonacci` kernel for the mixed serve
/// phase: batch execution stages its input through a `batch#<fn>` table,
/// so each worker gets the function renamed to `fib_w<worker>` — distinct
/// staging tables, no cross-thread clobbering.
pub fn serve_batch_fib(db: &std::sync::Arc<Database>, worker: usize) -> Compiled {
    let source = fib::fib_workload()
        .source
        .replace("fibonacci", &format!("fib_w{worker}"));
    compile_sql(&db.snapshot(), &source, CompileOptions::default()).expect("batch fib compile")
}

/// Round a duration up to the configured timer resolution (Figure 11b's
/// "coarse timer"); returns `None` when the measurement is below the timer's
/// resolution — the paper omits those cells.
pub fn with_timer_resolution(d: Duration, resolution_ms: u64) -> Option<Duration> {
    if resolution_ms == 0 {
        return Some(d);
    }
    let res = Duration::from_millis(resolution_ms);
    if d < res {
        None
    } else {
        let ticks = d.as_nanos().div_ceil(res.as_nanos());
        Some(Duration::from_nanos((ticks * res.as_nanos()) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_produce_working_workloads() {
        let mut b = setup_walk(EngineConfig::raw());
        b.session.set_seed(3);
        let v = b.run_interp(&walk_args(50)).unwrap();
        assert!(v.as_int().is_ok());

        let mut b = setup_parse(EngineConfig::raw());
        let v = b.run_interp(&parse_args(100)).unwrap();
        assert_eq!(v, Value::Int(100));

        let mut b = setup_traverse(EngineConfig::raw());
        let v = b.run_interp(&traverse_args(20)).unwrap();
        assert!(v.as_int().is_ok());

        let mut b = setup_fib(EngineConfig::raw());
        let v = b.run_interp(&fib_args(30)).unwrap();
        assert_eq!(v, Value::Int(fib::fib_reference(30)));

        let mut b = setup_checked(EngineConfig::raw());
        let v = b.run_interp(&checked_args(50)).unwrap();
        let input = checked::generate_input(50, 42);
        assert_eq!(v, Value::Int(checked::checked_reference(&input, 100)));

        let mut b = setup_settle(EngineConfig::raw());
        let v = b.run_interp(&settle_args()).unwrap();
        assert_eq!(
            v,
            Value::Int(rowagg::Ledger::generate(480, 7).settle_reference(1_000_000))
        );
    }

    #[test]
    fn new_workload_kernels_agree_compiled_vs_interp() {
        for (mut b, args) in [
            (setup_checked(EngineConfig::raw()), checked_args(80)),
            (setup_settle(EngineConfig::raw()), settle_args()),
        ] {
            let compiled = b.compile(CompileOptions::default()).unwrap();
            let i = b.run_interp(&args).unwrap();
            let c = compiled.run(&mut b.session, &args).unwrap();
            assert_eq!(i, c, "{}", b.fn_name);
        }
    }

    #[test]
    fn batch_agrees_with_interp_loop() {
        let mut b = setup_fib(EngineConfig::raw());
        let compiled = b.compile(CompileOptions::default()).unwrap();
        let calls = batch_fib_calls(12);
        let loop_results = b.interp_loop(&calls).unwrap();
        let batch_results = compiled.run_batch(&mut b.session, &calls).unwrap();
        assert_eq!(loop_results, batch_results);

        let mut b = setup_checked(EngineConfig::raw());
        let compiled = b.compile(CompileOptions::default()).unwrap();
        let calls = batch_checked_calls(12);
        let loop_results = b.interp_loop(&calls).unwrap();
        let batch_results = compiled.run_batch(&mut b.session, &calls).unwrap();
        assert_eq!(loop_results, batch_results);
    }

    #[test]
    fn compiled_and_interp_agree_in_harness() {
        let mut b = setup_parse(EngineConfig::raw());
        let compiled = b.compile(CompileOptions::default()).unwrap();
        let args = parse_args(300);
        let i = b.run_interp(&args).unwrap();
        let c = compiled.run(&mut b.session, &args).unwrap();
        assert_eq!(i, c);
    }

    #[test]
    fn serve_setup_kernels_verify_from_a_second_session() {
        let (db, kernels) = setup_serve(EngineConfig::raw());
        // A *fresh* session (not the one that installed the workloads) must
        // be able to run every kernel — that is the whole point of the
        // shared-database split.
        let mut s = db.session();
        for k in &kernels {
            let got = k.compiled.run(&mut s, &k.args).unwrap();
            match &k.expected {
                Some(want) => assert_eq!(&got, want, "{}", k.name),
                None => assert!(got.as_int().is_ok(), "{}", k.name),
            }
        }
        assert_eq!(
            kernels.iter().map(|k| k.name).collect::<Vec<_>>(),
            ["fibonacci", "checked_sum", "settle", "walk"]
        );

        // The per-worker batch kernel stages into a worker-private table
        // and agrees with the scalar reference.
        let batch = serve_batch_fib(&db, 7);
        let calls = batch_fib_calls(8);
        let results = batch.run_batch(&mut s, &calls).unwrap();
        for (args, got) in calls.iter().zip(&results) {
            assert_eq!(
                *got,
                Value::Int(fib::fib_reference(args[0].as_int().unwrap()))
            );
        }
        assert!(s.catalog.table("batch#fib_w7").is_ok());
    }

    #[test]
    fn index_sessions_agree_and_only_auto_probes() {
        let (mut indexed, mut seq) = setup_index_sessions(EngineConfig::raw());
        for sql in [
            "SELECT count(*), sum(l.kind) FROM ledger AS l WHERE l.amount = 37",
            "SELECT count(*), sum(l.kind) FROM ledger AS l WHERE l.amount >= 90 AND l.amount < 96",
        ] {
            let a = indexed.run(sql).unwrap();
            let b = seq.run(sql).unwrap();
            assert_eq!(a.rows, b.rows, "{sql}");
        }
        assert!(indexed.metrics.index_probes > 0, "Auto session must probe");
        assert_eq!(seq.metrics.index_probes, 0, "ForceOff twin must scan");
    }

    #[test]
    fn timer_resolution_rounds_up_or_hides() {
        assert_eq!(
            with_timer_resolution(Duration::from_millis(14), 10),
            Some(Duration::from_millis(20))
        );
        assert_eq!(with_timer_resolution(Duration::from_millis(4), 10), None);
        assert_eq!(
            with_timer_resolution(Duration::from_millis(4), 0),
            Some(Duration::from_millis(4))
        );
    }
}
