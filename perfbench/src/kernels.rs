//! The six paper kernels, called with `bench_smoke`'s arguments, and their
//! expected results from the Rust references (the interpreter for `walk`).

use plaway_bench::{checked_args, fib_args, parse_args, settle_args, traverse_args, walk_args};
use plaway_common::{SessionRng, Value};
use plaway_core::CompileOptions;
use plaway_engine::Session;
use plaway_interp::Interpreter;
use plaway_workloads::{checked, fib, fsa, graph, grid, rowagg};

pub const WALK: usize = 0;

/// `<kernel>.<mode>` labels, indexed `[kernel][mode]`.
pub const LABELS: [[&str; 2]; 6] = [
    ["walk.recursive", "walk.iterate"],
    ["fibonacci.recursive", "fibonacci.iterate"],
    ["traverse.recursive", "traverse.iterate"],
    ["fsa.recursive", "fsa.iterate"],
    ["checked.recursive", "checked.iterate"],
    ["settle.recursive", "settle.iterate"],
];

/// `WITH RECURSIVE` and `WITH ITERATE`, in the order of [`LABELS`].
pub fn modes() -> [CompileOptions; 2] {
    [CompileOptions::default(), CompileOptions::iterate()]
}

pub struct Kernel {
    pub source: String,
    pub args: Vec<Value>,
    /// The Rust reference result; `None` for `walk`, whose result depends
    /// on the session RNG and comes from the interpreter.
    pub reference: Option<Value>,
}

/// The kernels in the order of [`LABELS`]. The fixtures they read are the
/// ones `plaway_bench::setup_*` install.
pub fn kernels() -> Vec<Kernel> {
    let int = Value::Int;
    vec![
        Kernel {
            source: grid::walk_workload().source,
            args: walk_args(100),
            reference: None,
        },
        Kernel {
            source: fib::fib_workload().source,
            args: fib_args(500),
            reference: Some(int(fib::fib_reference(500))),
        },
        Kernel {
            source: graph::traverse_workload().source,
            args: traverse_args(40),
            reference: Some(int(
                graph::Digraph::generate(5_000, 11).traverse_reference(1, 40)
            )),
        },
        Kernel {
            source: fsa::parse_workload().source,
            args: parse_args(150),
            reference: Some(int(fsa::parse_reference(&fsa::generate_input(150, 99)))),
        },
        Kernel {
            source: checked::checked_workload().source,
            args: checked_args(200),
            reference: Some(int(checked::checked_reference(
                &checked::generate_input(200, 42),
                400,
            ))),
        },
        Kernel {
            source: rowagg::settle_workload().source,
            args: settle_args(),
            reference: Some(int(
                rowagg::Ledger::generate(480, 7).settle_reference(1_000_000)
            )),
        },
    ]
}

/// RNG seeds `walk` is called with in a run.
const WALK_SEEDS: usize = 4;

/// The expected result of every kernel call: the Rust reference, or for
/// `walk` the interpreter's result under one of a few seeded RNG seeds.
pub struct Oracle {
    expected: Vec<Value>,
    walk_seeds: Vec<u64>,
    walk_expected: Vec<Value>,
}

impl Oracle {
    /// `walk_session` must have the grid world and the `walk` function
    /// installed. With `corrupt`, the `fibonacci` result is made wrong.
    pub fn new(
        kernels: &[Kernel],
        walk_session: &mut Session,
        rng: &mut SessionRng,
        corrupt: bool,
    ) -> Result<Oracle, String> {
        let walk_seeds: Vec<u64> = (0..WALK_SEEDS).map(|_| rng.next_u64()).collect();
        let walk_expected = walk_oracle(walk_session, &walk_seeds)?;
        let mut expected: Vec<Value> = kernels
            .iter()
            .map(|k| k.reference.clone().unwrap_or(Value::Null))
            .collect();
        if corrupt {
            expected[1] = self::corrupt(&expected[1]);
        }
        Ok(Oracle {
            expected,
            walk_seeds,
            walk_expected,
        })
    }

    /// The expected result of calling kernel `k` in `session`; for `walk`
    /// this draws one of the seeds and sets it on `session`.
    pub fn expect(&self, k: usize, rng: &mut SessionRng, session: &mut Session) -> Value {
        if k != WALK {
            return self.expected[k].clone();
        }
        let i = rng.next_range(0, WALK_SEEDS as i64 - 1) as usize;
        session.set_seed(self.walk_seeds[i]);
        self.walk_expected[i].clone()
    }
}

/// The interpreter's `walk` result for each RNG seed. `session` must have
/// the grid world and the `walk` function installed.
pub fn walk_oracle(session: &mut Session, seeds: &[u64]) -> Result<Vec<Value>, String> {
    let mut interp = Interpreter::new();
    seeds
        .iter()
        .map(|&s| {
            session.set_seed(s);
            interp
                .call(session, "walk", &walk_args(100))
                .map_err(|e| format!("walk oracle: {e}"))
        })
        .collect()
}

/// Make an expected value wrong on purpose (the checker's self-test).
pub fn corrupt(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_add(1)),
        other => Value::text(format!("not {other:?}")),
    }
}
