//! `cold_compile`: one thread, one session, closed loop. Each statement
//! takes a function the database has not seen through `compile_sql`,
//! `Compiled::prepare` and its first `execute_prepared`. The functions are
//! the six paper kernels in both CTE modes, the `extras`, and seeded
//! `genprog` programs over the `kv` fixture. Every database defines all
//! kernels and extras plus the next programs of a seeded pass over the
//! pool, [`PER_DATABASE`] functions in all, in a seeded order; then the
//! loop moves to a fresh database with the same fixtures. So every prepare
//! misses the plan cache, every execution is a first one, and the share of
//! kernels in the samples does not depend on the seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use plaway_common::{SessionRng, Value};
use plaway_core::CompileOptions;
use plaway_engine::{Catalog, Database, Session};
use plaway_interp::Interpreter;
use plaway_workloads::genprog::{self, GenConfig};
use plaway_workloads::{checked, extras, fsa, graph, grid, rowagg};

use crate::harness::{db_counters, fingerprint, guarded, Budget, LoopOut, RunCfg, Workload};
use crate::kernels::{self, LABELS, WALK};
use crate::trace::{self, Tracer};

/// Seeded `genprog` programs in the pool.
const GENPROG: usize = 3_000;
const GENPROG_TINY: usize = 40;
/// Functions one database defines before the loop moves to a fresh one.
/// The plan cache keeps every plan, so this bounds the memory a run holds
/// however fast the machine is.
const PER_DATABASE: usize = 500;

struct Entry {
    what: String,
    label: Option<&'static str>,
    source: String,
    options: CompileOptions,
    args: Vec<Value>,
    walk_seed: Option<u64>,
    expected: Value,
}

pub struct ColdCompile {
    cfg: RunCfg,
    /// The fixtures every fresh database starts from.
    template: Arc<Catalog>,
    /// The kernels and extras first, then the seeded programs.
    pool: Vec<Entry>,
    /// How many entries of `pool` every database defines.
    fixed: usize,
    /// The untraced run's SQL per pool entry, which the traced replay's
    /// stage-by-stage compile must reproduce byte for byte.
    sql_refs: Vec<Option<(String, String)>>,
}

impl Workload for ColdCompile {
    fn setup(t: &mut Tracer, cfg: &RunCfg) -> Result<Self, String> {
        let err = |what: &'static str| move |e: plaway_common::Error| format!("{what}: {e}");
        let mut s = Session::new(cfg.engine());
        genprog::install_fixture(&mut s).map_err(err("kv fixture"))?;
        grid::GridWorld::generate(5, 5, 42)
            .install(&mut s)
            .map_err(err("grid install"))?;
        grid::walk_workload()
            .install(&mut s)
            .map_err(err("walk install"))?;
        fsa::install_fsa(&mut s).map_err(err("fsa install"))?;
        graph::Digraph::generate(5_000, 11)
            .install(&mut s)
            .map_err(err("graph install"))?;
        rowagg::Ledger::generate(480, 7)
            .install(&mut s)
            .map_err(err("ledger install"))?;

        let mut rng = SessionRng::new(cfg.seed ^ 0xc01d_c0de);
        let mut pool = Vec::new();
        let walk_seed = rng.next_u64();
        let walk_expected = kernels::walk_oracle(&mut s, &[walk_seed])?.remove(0);
        for (k, kernel) in kernels::kernels().into_iter().enumerate() {
            for (m, options) in kernels::modes().into_iter().enumerate() {
                pool.push(Entry {
                    what: LABELS[k][m].to_string(),
                    label: Some(LABELS[k][m]),
                    source: kernel.source.clone(),
                    options,
                    args: kernel.args.clone(),
                    walk_seed: (k == WALK).then_some(walk_seed),
                    expected: kernel.reference.clone().unwrap_or(walk_expected.clone()),
                });
            }
        }
        let mut interp = Interpreter::new();
        pool.extend(extra_entries(&mut rng, &mut s, &mut interp)?);
        let fixed = pool.len();
        s.refresh();
        let template = Arc::clone(&s.catalog);
        drop(s);
        let n_gen = if cfg.tiny { GENPROG_TINY } else { GENPROG };
        let mut oracle = None;
        for i in 0..n_gen {
            // The interpreter's embedded queries fill the plan cache like
            // the loop's do, so it too moves to a fresh database regularly.
            if i % PER_DATABASE == 0 {
                oracle = Some(fresh_database(cfg, &template)?);
            }
            let (_, session, _) = oracle.as_mut().expect("database set up above");
            let program = genprog::generate(rng.next_u64(), GenConfig::default());
            let f = plaway_plsql::parse_create_function(&program.source)
                .map_err(|e| format!("{}: {e}", program.name))?;
            let expected = interp
                .call_parsed(session, &f, &program.args)
                .map_err(|e| format!("{} oracle: {e}", program.name))?;
            let options = if rng.next_bool(0.5) {
                CompileOptions::iterate()
            } else {
                CompileOptions::default()
            };
            pool.push(Entry {
                what: program.name,
                label: None,
                source: program.source,
                options,
                args: program.args,
                walk_seed: None,
                expected,
            });
        }
        if cfg.corrupt {
            pool[2].expected = kernels::corrupt(&pool[2].expected);
        }
        if t.on {
            let (_, mut session, _) = fresh_database(cfg, &template)?;
            let e = &pool[2];
            let compiled = plaway_core::compile_sql(&session.catalog, &e.source, e.options)
                .map_err(|e| format!("compile: {e}"))?;
            trace::check_cache_key(&mut session, &compiled)
                .map_err(|e| format!("cache key: {e}"))?;
        }
        Ok(ColdCompile {
            cfg: cfg.clone(),
            template,
            sql_refs: (0..pool.len()).map(|_| None).collect(),
            pool,
            fixed,
        })
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        budget: Budget,
        fingerprints: bool,
    ) -> Result<LoopOut, String> {
        let mut out = LoopOut::default();
        let mut rng = SessionRng::new(self.cfg.seed ^ 0x5eed_c01d);
        let mut clock = budget.start();
        let mut db_session: Option<(Arc<Database>, Session, [u64; 3])> = None;
        // This database's remaining functions, and the seeded programs not
        // yet defined in this pass over the pool.
        let mut queue: Vec<usize> = Vec::new();
        let mut generated: Vec<usize> = Vec::new();
        loop {
            if queue.is_empty() {
                if let Some((db, _, before)) = db_session.take() {
                    out.add_db_delta(before, db_counters(&db));
                }
                db_session = Some(fresh_database(&self.cfg, &self.template)?);
                queue = (0..self.fixed).collect();
                let n_generated = self.pool.len() - self.fixed;
                for _ in 0..(PER_DATABASE - self.fixed).min(n_generated) {
                    if generated.is_empty() {
                        generated = (self.fixed..self.pool.len()).collect();
                        shuffle(&mut generated, &mut rng);
                    }
                    queue.extend(generated.pop());
                }
                shuffle(&mut queue, &mut rng);
            }
            if !clock.next() {
                break;
            }
            let (_, session, _) = db_session.as_mut().expect("database set up above");
            let i = queue.pop().expect("queue refilled above");
            let e = &self.pool[i];
            let t0 = Instant::now();
            let mut compile_elapsed = Duration::ZERO;
            let got = t.request("bench.first_call", |t| {
                guarded(|| {
                    let compiled = trace::compile(t, &session.catalog, &e.source, e.options)?;
                    compile_elapsed = t0.elapsed();
                    let plan = trace::prepare(t, session, &compiled)?;
                    if let Some(s) = e.walk_seed {
                        session.set_seed(s);
                    }
                    let v = trace::call(t, session, &plan, e.args.clone(), e.label)?;
                    Ok((v, compiled))
                })
            });
            let elapsed = t0.elapsed();
            let first_call = clock.scaled(elapsed);
            out.raw_call_us.push(elapsed.as_secs_f64() * 1e6);
            out.raw_busy_s += elapsed.as_secs_f64();
            let (value, compiled) = match got {
                Ok((v, c)) => (Ok(v), Some(c)),
                Err(e) => (Err(e), None),
            };
            out.tally.check(&e.what, &value, &e.expected);
            if let Some(c) = compiled.filter(|_| fingerprints) {
                let sql = (c.sql, c.batch_sql);
                match &self.sql_refs[i] {
                    None if !t.on => self.sql_refs[i] = Some(sql),
                    Some(r) if t.on && *r != sql => {
                        return Err(format!(
                            "{}: the stage-by-stage compile differs from compile_sql",
                            e.what
                        ))
                    }
                    _ => {}
                }
            }
            if fingerprints {
                out.fingerprints.push(fingerprint(&value));
            }
            out.compile_us.push(clock.scaled(compile_elapsed) * 1e6);
            out.first_call_us.push(first_call * 1e6);
            out.busy_s += first_call;
        }
        if let Some((db, _, before)) = db_session {
            out.add_db_delta(before, db_counters(&db));
        }
        out.stmts = out.first_call_us.len() as u64;
        out.reference_ns = clock.reference_ns;
        out.call_us = out.first_call_us.clone();
        Ok(out)
    }
}

/// A new database holding the fixtures, with an empty plan cache, and the
/// database's plan-cache and commit counters at its start.
fn fresh_database(
    cfg: &RunCfg,
    template: &Arc<Catalog>,
) -> Result<(Arc<Database>, Session, [u64; 3]), String> {
    let db = Database::new(cfg.engine());
    db.commit(|c| {
        *c = (**template).clone();
        Ok(())
    })
    .map_err(|e| format!("fixture copy: {e}"))?;
    let before = db_counters(&db);
    let session = db.session();
    Ok((db, session, before))
}

fn shuffle(v: &mut [usize], rng: &mut SessionRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_range(0, i as i64) as usize);
    }
}

/// The `extras` functions with seeded arguments; expected values from
/// their Rust references, or the interpreter for `strrev`, which has none.
fn extra_entries(
    rng: &mut SessionRng,
    s: &mut Session,
    interp: &mut Interpreter,
) -> Result<Vec<Entry>, String> {
    let int = Value::Int;
    let (a, b) = (rng.next_range(1, 1_000_000), rng.next_range(1, 1_000_000));
    let n = rng.next_range(1, 10_000);
    let (base, exp, modulus) = (
        rng.next_range(2, 1_000),
        rng.next_range(1, 1_000),
        rng.next_range(2, 10_007),
    );
    let text = checked::generate_input(24, rng.next_u64());
    let ops: String = (0..40)
        .map(|_| ['1', '1', '2', '9', '0'][rng.next_range(0, 4) as usize])
        .collect();
    let strrev = extras::strrev_workload().source;
    let f = plaway_plsql::parse_create_function(&strrev).map_err(|e| format!("strrev: {e}"))?;
    let strrev_args = vec![Value::text(&text)];
    let strrev_expected = interp
        .call_parsed(s, &f, &strrev_args)
        .map_err(|e| format!("strrev oracle: {e}"))?;
    let cases = [
        (
            "gcd",
            extras::gcd_workload().source,
            vec![int(a), int(b)],
            int(extras::gcd_reference(a, b)),
        ),
        (
            "collatz",
            extras::collatz_workload().source,
            vec![int(n)],
            int(extras::collatz_reference(n)),
        ),
        (
            "powmod",
            extras::power_workload().source,
            vec![int(base), int(exp), int(modulus)],
            int(extras::powmod_reference(base, exp, modulus)),
        ),
        ("strrev", strrev, strrev_args, strrev_expected),
        (
            "account",
            extras::bank_workload().source,
            vec![Value::text(&ops)],
            int(extras::bank_reference(&ops)),
        ),
    ];
    Ok(cases
        .into_iter()
        .map(|(what, source, args, expected)| Entry {
            what: what.to_string(),
            label: None,
            source,
            options: CompileOptions::default(),
            args,
            walk_seed: None,
            expected,
        })
        .collect())
}
