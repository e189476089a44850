//! `hot_calls`: one thread, closed loop, no writes. The six kernels are
//! compiled in both CTE modes and prepared once during set-up; the loop
//! calls the twelve plans in a seeded uniform order, so the executor does
//! all the work and the compiler, parser and planner none.

use std::sync::Arc;
use std::time::Instant;

use plaway_bench::{
    setup_checked, setup_fib, setup_parse, setup_settle, setup_traverse, setup_walk, BenchSetup,
};
use plaway_common::{SessionRng, Value};
use plaway_engine::PreparedPlan;

use crate::harness::{fingerprint, guarded, Budget, LoopOut, RunCfg, Workload};
use crate::kernels::{self, Oracle, LABELS, WALK};
use crate::stats::{us, Tally};
use crate::trace::{self, Tracer};

pub struct HotCalls {
    /// One session per kernel, with that kernel's fixture.
    setups: Vec<BenchSetup>,
    /// `[kernel][mode]`.
    plans: Vec<[Arc<PreparedPlan>; 2]>,
    args: Vec<Vec<Value>>,
    oracle: Oracle,
    seed: u64,
}

impl Workload for HotCalls {
    fn setup(t: &mut Tracer, cfg: &RunCfg) -> Result<Self, String> {
        let engine = cfg.engine();
        let mut setups: Vec<BenchSetup> = [
            setup_walk,
            setup_fib,
            setup_traverse,
            setup_parse,
            setup_checked,
            setup_settle,
        ]
        .into_iter()
        .map(|setup| setup(engine.clone()))
        .collect();
        let kernels = kernels::kernels();
        let mut rng = SessionRng::new(cfg.seed ^ 0x4807_ca11);
        let oracle = Oracle::new(&kernels, &mut setups[WALK].session, &mut rng, cfg.corrupt)?;
        let mut plans = Vec::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let b = &mut setups[k];
            let mut pair = Vec::new();
            for options in kernels::modes() {
                let compiled =
                    trace::compile_checked(t, &b.session.catalog, &kernel.source, options)?;
                if t.on && pair.is_empty() {
                    trace::check_cache_key(&mut b.session, &compiled)
                        .map_err(|e| format!("cache key: {e}"))?;
                }
                pair.push(
                    trace::prepare(t, &mut b.session, &compiled)
                        .map_err(|e| format!("prepare: {e}"))?,
                );
            }
            plans.push([pair[0].clone(), pair[1].clone()]);
        }
        let mut hot = HotCalls {
            setups,
            plans,
            args: kernels.into_iter().map(|k| k.args).collect(),
            oracle,
            seed: cfg.seed,
        };
        // One call of every plan before timing: lazy tier promotion and the
        // first tuplestore allocations happen here, not in the loop.
        let mut warm = SessionRng::new(cfg.seed);
        for pair in 0..12 {
            hot.call(t, pair, &mut warm).1?;
        }
        Ok(hot)
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        budget: Budget,
        fingerprints: bool,
    ) -> Result<LoopOut, String> {
        let mut out = LoopOut::default();
        let mut rng = SessionRng::new(self.seed ^ 0x5eed_0ca1);
        let mut clock = budget.start();
        while clock.next() {
            let pair = rng.next_range(0, 11) as usize;
            let t0 = Instant::now();
            let (check, got) = self.call(t, pair, &mut rng);
            let elapsed = t0.elapsed();
            let took = clock.scaled(elapsed);
            out.call_us.push(took * 1e6);
            out.busy_s += took;
            out.raw_call_us.push(us(elapsed));
            out.raw_busy_s += elapsed.as_secs_f64();
            out.call_pair.push(pair);
            out.tally.add(check);
            if fingerprints {
                out.fingerprints.push(fingerprint(&got));
            }
        }
        out.stmts = out.call_us.len() as u64;
        out.reference_ns = clock.reference_ns;
        Ok(out)
    }
}

impl HotCalls {
    /// One call of `pair` (kernel × 2 + mode), checked against its
    /// expected result.
    fn call(
        &mut self,
        t: &mut Tracer,
        pair: usize,
        rng: &mut SessionRng,
    ) -> (Tally, Result<Value, String>) {
        let (k, m) = (pair / 2, pair % 2);
        let want = self.oracle.expect(k, rng, &mut self.setups[k].session);
        let session = &mut self.setups[k].session;
        let (plan, args) = (&self.plans[k][m], &self.args[k]);
        let got = t.request("bench.call", |t| {
            guarded(|| trace::call(t, session, plan, args.clone(), Some(LABELS[k][m])))
        });
        let mut tally = Tally::default();
        tally.check(LABELS[k][m], &got, &want);
        (tally, got)
    }
}
