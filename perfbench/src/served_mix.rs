//! `served_mix`: two sessions on one database, on two threads. The reader
//! is a closed loop: each statement re-prepares a kernel call through the
//! shared plan cache and executes it, and every eighth statement is instead
//! a table apply (`Compiled::run_batch`, `WITH RETIRE`) over about 2,000
//! argument rows. The writer is an open loop committing DML into its own
//! `churn` table every 10 ms. Every commit bumps the catalog version, so
//! plan invalidation shows here and not on `hot_calls`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plaway_bench::{batch_checked_calls, batch_fib_calls, setup_serve};
use plaway_common::{SessionRng, Value};
use plaway_core::{CompileOptions, Compiled};
use plaway_engine::{Database, Session};
use plaway_workloads::{checked, fib, fsa, graph};

use crate::harness::{db_counters, fingerprint, guarded, Budget, LoopOut, RunCfg, Workload};
use crate::kernels::{self, Oracle, LABELS};
use crate::stats::{us, Tally};
use crate::trace::{self, Tracer};

/// Every `APPLY_EVERY`-th reader statement is a table apply.
const APPLY_EVERY: u64 = 8;
/// The writer's schedule: one commit per period.
const WRITER_PERIOD: Duration = Duration::from_millis(10);
/// The writer empties `churn` every this many commits, so the table the
/// commits copy stays small.
const CHURN_RESET: u64 = 200;

pub struct ServedMix {
    db: Arc<Database>,
    reader: Session,
    writer: Option<Session>,
    /// `[kernel][mode]`.
    calls: Vec<[Compiled; 2]>,
    args: Vec<Vec<Value>>,
    oracle: Oracle,
    /// `fibonacci` and `checked_sum`, compiled for `WITH RETIRE`.
    apply: [Compiled; 2],
    apply_rows: [Vec<Vec<Value>>; 2],
    apply_expected: [Vec<Value>; 2],
    /// Inclusive bounds of the rows one apply takes.
    apply_len: (i64, i64),
    seed: u64,
    churn_key: u64,
}

impl Workload for ServedMix {
    fn setup(t: &mut Tracer, cfg: &RunCfg) -> Result<Self, String> {
        let err = |what: &str| {
            let what = what.to_string();
            move |e: plaway_common::Error| format!("{what}: {e}")
        };
        let (db, _) = setup_serve(cfg.engine());
        let mut s = db.session();
        fsa::install_fsa(&mut s).map_err(err("fsa install"))?;
        graph::Digraph::generate(5_000, 11)
            .install(&mut s)
            .map_err(err("graph install"))?;
        let kernels = kernels::kernels();
        let mut rng = SessionRng::new(cfg.seed ^ 0x5e4e_d000);
        let oracle = Oracle::new(&kernels, &mut s, &mut rng, cfg.corrupt)?;
        let mut calls = Vec::new();
        for k in &kernels {
            let [a, b] = kernels::modes();
            calls.push([
                trace::compile_checked(t, &s.catalog, &k.source, a)?,
                trace::compile_checked(t, &s.catalog, &k.source, b)?,
            ]);
        }
        let apply = [
            trace::compile_checked(
                t,
                &s.catalog,
                &fib::fib_workload().source,
                CompileOptions::iterate(),
            )?,
            trace::compile_checked(
                t,
                &s.catalog,
                &checked::checked_workload().source,
                CompileOptions::iterate(),
            )?,
        ];
        let apply_len = if cfg.tiny { (90, 110) } else { (1_800, 2_200) };
        let max_rows = apply_len.1 as usize;
        let apply_rows = [batch_fib_calls(max_rows), batch_checked_calls(max_rows)];
        let mut apply_expected = [
            apply_rows[0]
                .iter()
                .map(|a| Ok(Value::Int(fib::fib_reference(a[0].as_int()?))))
                .collect::<plaway_common::Result<Vec<_>>>()
                .map_err(err("fib reference"))?,
            apply_rows[1]
                .iter()
                .map(|a| {
                    Ok(Value::Int(checked::checked_reference(
                        a[0].as_text()?,
                        a[1].as_int()?,
                    )))
                })
                .collect::<plaway_common::Result<Vec<_>>>()
                .map_err(err("checked reference"))?,
        ];
        if cfg.corrupt {
            apply_expected[0][0] = kernels::corrupt(&apply_expected[0][0]);
        }
        if t.on {
            trace::check_cache_key(&mut s, &calls[1][0]).map_err(err("cache key"))?;
        }
        let mut mix = ServedMix {
            writer: Some(db.session()),
            db,
            reader: s,
            calls,
            args: kernels.into_iter().map(|k| k.args).collect(),
            oracle,
            apply,
            apply_rows,
            apply_expected,
            apply_len,
            seed: cfg.seed,
            churn_key: 0,
        };
        // Prepare and call every plan, and apply both batch kernels, once
        // before timing.
        let mut warm = SessionRng::new(cfg.seed);
        for pair in 0..12 {
            mix.call(t, pair, &mut warm).1?;
        }
        for which in 0..2 {
            mix.apply(t, which, 10).1?;
        }
        Ok(mix)
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        budget: Budget,
        fingerprints: bool,
    ) -> Result<LoopOut, String> {
        let mut out = LoopOut::default();
        let before = db_counters(&self.db);
        let stop = AtomicBool::new(false);
        let writer = self
            .writer
            .take()
            .expect("writer session present between runs");
        let writer_tracer = Tracer::new(t.on, t.epoch(), 1);
        let key0 = self.churn_key;
        let (writer, writer_tracer, w) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| write_loop(writer, writer_tracer, &stop, key0));
            let mut rng = SessionRng::new(self.seed ^ 0x5eed_5e4e);
            let mut clock = budget.start();
            while clock.next() {
                let t0 = Instant::now();
                let (tally, print) = if out.stmts % APPLY_EVERY == APPLY_EVERY - 1 {
                    let which = rng.next_range(0, 1) as usize;
                    let n = rng.next_range(self.apply_len.0, self.apply_len.1) as usize;
                    let (tally, got) = self.apply(t, which, n);
                    let elapsed = t0.elapsed();
                    let took = clock.scaled(elapsed);
                    out.apply_ms.push(took * 1e3);
                    out.busy_s += took;
                    out.raw_busy_s += elapsed.as_secs_f64();
                    (tally, fingerprints.then(|| fingerprint(&got)))
                } else {
                    let pair = rng.next_range(0, 11) as usize;
                    let (tally, got) = self.call(t, pair, &mut rng);
                    let elapsed = t0.elapsed();
                    let took = clock.scaled(elapsed);
                    out.call_us.push(took * 1e6);
                    out.busy_s += took;
                    out.raw_call_us.push(us(elapsed));
                    out.raw_busy_s += elapsed.as_secs_f64();
                    out.call_pair.push(pair);
                    (tally, fingerprints.then(|| fingerprint(&got)))
                };
                out.tally.add(tally);
                out.fingerprints.extend(print);
                out.stmts += 1;
            }
            out.reference_ns = clock.reference_ns;
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("writer thread panicked")
        });
        self.writer = Some(writer);
        self.churn_key += w.commits;
        t.absorb(writer_tracer);
        out.tally.add(w.tally);
        out.commit_us = w.commit_us;
        out.writer_lag_ms = w.lag_ms;
        out.writer_period_ms = WRITER_PERIOD.as_secs_f64() * 1e3;
        out.add_db_delta(before, db_counters(&self.db));
        Ok(out)
    }
}

struct WriterOut {
    tally: Tally,
    commits: u64,
    commit_us: Vec<f64>,
    lag_ms: Vec<f64>,
}

/// The open-loop writer: commit `k` is due `k` periods after the start and
/// is timed from when it was due, so a stalled writer's backlog counts.
fn write_loop(
    mut session: Session,
    mut t: Tracer,
    stop: &AtomicBool,
    key0: u64,
) -> (Session, Tracer, WriterOut) {
    let mut w = WriterOut {
        tally: Tally::default(),
        commits: 0,
        commit_us: Vec::new(),
        lag_ms: Vec::new(),
    };
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let due = start + WRITER_PERIOD * w.commits as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
            continue;
        }
        let key = key0 + w.commits;
        let sql = if key % CHURN_RESET == CHURN_RESET - 1 {
            "DELETE FROM churn".to_string()
        } else {
            format!("INSERT INTO churn VALUES ({key}, {})", key % 97)
        };
        w.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let got = t.request("bench.commit", |t| {
            guarded(|| trace::commit(t, &mut session, &sql))
        });
        w.commit_us.push(us(due.elapsed()));
        w.tally.check("writer commit", &got, &());
        w.commits += 1;
    }
    (session, t, w)
}

impl ServedMix {
    /// One reader call statement: re-prepare through the shared plan cache,
    /// then execute.
    fn call(
        &mut self,
        t: &mut Tracer,
        pair: usize,
        rng: &mut SessionRng,
    ) -> (Tally, Result<Value, String>) {
        let (k, m) = (pair / 2, pair % 2);
        let want = self.oracle.expect(k, rng, &mut self.reader);
        let session = &mut self.reader;
        let (compiled, args) = (&self.calls[k][m], &self.args[k]);
        let got = t.request("bench.call", |t| {
            guarded(|| {
                let plan = trace::prepare(t, session, compiled)?;
                trace::call(t, session, &plan, args.clone(), Some(LABELS[k][m]))
            })
        });
        let mut tally = Tally::default();
        tally.check(LABELS[k][m], &got, &want);
        (tally, got)
    }

    /// One table apply of batch kernel `which` over its first `n` rows.
    fn apply(
        &mut self,
        t: &mut Tracer,
        which: usize,
        n: usize,
    ) -> (Tally, Result<Vec<Value>, String>) {
        let session = &mut self.reader;
        let (compiled, rows) = (&self.apply[which], &self.apply_rows[which][..n]);
        let got = t.request("bench.apply", |t| {
            guarded(|| trace::apply(t, session, compiled, rows))
        });
        let want = &self.apply_expected[which][..n];
        // Compare row by row, so a failure reports a count, not 2,000 values.
        let wrong_rows = got.as_ref().map(|v| {
            if v.len() == n {
                v.iter().zip(want).filter(|(a, b)| a != b).count()
            } else {
                n.max(1)
            }
        });
        let mut tally = Tally::default();
        let what = ["apply fibonacci", "apply checked_sum"][which];
        tally.check(what, &wrong_rows.map_err(|e| e.clone()), &0);
        (tally, got)
    }
}
