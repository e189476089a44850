//! The calls the benchmark makes into the system, untraced or traced.
//!
//! Untraced, every call is the public entry point a user would call:
//! `compile_sql`, `Compiled::prepare`, `Session::execute_prepared`,
//! `Compiled::run_batch`. Traced, the same work is split into the public
//! functions of each layer and a span is recorded around each one; the
//! staged pipeline must produce byte-equal SQL and equal results, which the
//! workloads check.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use plaway_common::{Error, Result, Value};
use plaway_core::cte::{build_batch_query, build_query};
use plaway_core::opt::OptStats;
use plaway_core::{compile_sql, CompileOptions, Compiled};
use plaway_engine::planner::plan_query;
use plaway_engine::{Catalog, ParamScope, PreparedPlan, RuntimeStats, Session};

/// One recorded span: a call into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Counters read at the boundary of one executor lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct ExecRecord {
    pub kind: ExecKind,
    /// `<kernel>.<mode>` for the paper kernels, `None` otherwise.
    pub label: Option<&'static str>,
    pub run_ns: u64,
    pub stats: RuntimeStats,
    pub page_writes: u64,
    /// The session's peak tuplestore footprint after the run, in bytes.
    pub peak_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// A scalar function call.
    Call,
    /// A table apply: one batch fixpoint over many argument rows.
    Apply,
}

/// Sizes of the intermediate forms of one staged compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileRecord {
    pub source_bytes: u64,
    pub cfg_blocks: u64,
    pub ssa_phis: u64,
    pub opt_rewrites: u64,
    pub anf_fns: u64,
    pub sql_bytes: u64,
}

/// Span and counter recorder. With `on == false` every wrapper below is
/// the plain public call and nothing is recorded.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// Distinguishes the request ids of tracers on different threads.
    request_base: u64,
    pub execs: Vec<ExecRecord>,
    pub compiles: Vec<CompileRecord>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            request_base: thread << 48,
            execs: Vec::new(),
            compiles: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request_base | self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record `f` as the root span of a new client request.
    pub fn request<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.request += 1;
        self.span(name, f)
    }

    /// Append another thread's spans and records.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.execs.extend(other.execs);
        self.compiles.extend(other.compiles);
    }

    /// Per span name: (occurrences, summed self time in ns). Self time is a
    /// span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// `compile_sql`, or traced: the same pipeline stage by stage (the order
/// and options of `plaway_core::pipeline::compile`).
pub fn compile(
    t: &mut Tracer,
    catalog: &Catalog,
    source: &str,
    options: CompileOptions,
) -> Result<Compiled> {
    if !t.on {
        return compile_sql(catalog, source, options);
    }
    t.span("core.compile", |t| {
        let function = t.span("plsql.parse", |_| {
            plaway_plsql::parse_create_function(source)
        })?;
        let cfg = t.span("core.cfg", |_| plaway_core::cfg::lower(&function, catalog))?;
        let goto_text = t.span("core.text", |_| cfg.to_text());
        let mut ssa = t.span("core.ssa", |_| plaway_core::ssa::build(&cfg, catalog))?;
        let ssa_phis = ssa.blocks.iter().map(|b| b.phis.len() as u64).sum();
        let opt_stats = t.span("core.opt", |_| {
            let stats = if options.optimize {
                plaway_core::opt::optimize(&mut ssa, catalog)
            } else {
                OptStats::default()
            };
            ssa.validate().map(|()| stats)
        })?;
        let ssa_text = t.span("core.text", |_| ssa.to_text());
        let anf = t.span("core.anf", |_| {
            let mut anf = plaway_core::anf::from_ssa(&ssa)?;
            if options.optimize {
                plaway_core::anf::inline_trivial(&mut anf, catalog);
                anf.validate()?;
            }
            Ok::<_, Error>(anf)
        })?;
        let anf_text = t.span("core.text", |_| anf.to_text());
        let udf = t.span("core.udf", |_| plaway_core::udf::from_anf(&anf))?;
        let udf_sql = t.span("core.text", |_| udf.to_sql());
        let batch_table = format!("batch#{}", udf.fn_name);
        let (query, sql, batch_query, batch_sql) = t.span("core.cte", |_| {
            let query = build_query(&anf, &udf, catalog, options.layout, options.mode)?;
            let sql = query.to_string();
            let batch_query = build_batch_query(
                &anf,
                &udf,
                catalog,
                options.layout,
                options.mode,
                &batch_table,
            )?;
            let batch_sql = batch_query.to_string();
            Ok::<_, Error>((query, sql, batch_query, batch_sql))
        })?;
        t.compiles.push(CompileRecord {
            source_bytes: source.len() as u64,
            cfg_blocks: cfg.blocks.len() as u64,
            ssa_phis,
            opt_rewrites: opt_rewrites(&opt_stats),
            anf_fns: anf.funcs.len() as u64,
            sql_bytes: sql.len() as u64,
        });
        Ok(Compiled {
            options,
            param_names: function.params.iter().map(|(n, _)| n.clone()).collect(),
            source: function,
            goto_text,
            ssa,
            ssa_text,
            anf,
            anf_text,
            udf,
            udf_sql,
            query,
            sql,
            batch_query,
            batch_sql,
            batch_table,
            opt_stats,
        })
    })
}

fn opt_rewrites(s: &OptStats) -> u64 {
    let OptStats {
        constants_folded,
        copies_propagated,
        phis_removed,
        stmts_removed,
        branches_simplified,
        blocks_removed,
        blocks_merged,
    } = *s;
    (constants_folded
        + copies_propagated
        + phis_removed
        + stmts_removed
        + branches_simplified
        + blocks_removed
        + blocks_merged) as u64
}

/// The shared plan-cache key `Session::prepare` uses under the default
/// `Auto` index and tier modes (the only modes the benchmark runs).
/// [`check_cache_key`] proves it matches the engine's at run time.
fn cache_key(sql: &str, params: &ParamScope) -> String {
    if params.names.is_empty() {
        sql.to_string()
    } else {
        format!("{sql}\u{1}{}", params.names.join("\u{1}"))
    }
}

/// `Compiled::prepare`, or traced: the shared plan-cache lookup, and on a
/// miss `parse_query` and `plan_query` followed by the cache store.
pub fn prepare(
    t: &mut Tracer,
    session: &mut Session,
    compiled: &Compiled,
) -> Result<Arc<PreparedPlan>> {
    if !t.on {
        return compiled.prepare(session);
    }
    t.span("engine.prepare", |t| {
        session.refresh();
        let scope = ParamScope::new(compiled.param_names.clone());
        let key = cache_key(&compiled.sql, &scope);
        let db = Arc::clone(session.database());
        if let Some(plan) = db.cached_plan(&key, session.catalog.version) {
            return Ok(plan);
        }
        let query = t.span("sql.parse", |_| plaway_sql::parse_query(&compiled.sql))?;
        let plan = t.span("engine.plan", |_| {
            plan_query(
                &session.catalog,
                &query,
                Some(&scope),
                session.config.index_mode,
            )
        })?;
        let plan = Arc::new(plan);
        db.store_plan(key, Arc::clone(&plan));
        Ok(plan)
    })
}

/// Fail unless the traced prepare above stores plans under the key the
/// engine's own `Session::prepare` looks up: a plan stored by the traced
/// path must come back from `Compiled::prepare` as the same plan.
pub fn check_cache_key(session: &mut Session, compiled: &Compiled) -> Result<()> {
    let mut t = Tracer::new(true, Instant::now(), 0);
    let stored = prepare(&mut t, session, compiled)?;
    let fetched = compiled.prepare(session)?;
    if Arc::ptr_eq(&stored, &fetched) {
        Ok(())
    } else {
        Err(Error::exec(
            "the traced prepare and Session::prepare disagree on the plan-cache key",
        ))
    }
}

/// `Session::execute_prepared`, or traced: `executor_start`,
/// `executor_run` and `executor_end`, with the runtime counters read
/// around the run.
pub fn execute(
    t: &mut Tracer,
    session: &mut Session,
    plan: &Arc<PreparedPlan>,
    args: Vec<Value>,
    kind: ExecKind,
    label: Option<&'static str>,
) -> Result<Vec<Vec<Value>>> {
    if !t.on {
        return Ok(session.execute_prepared(plan, args)?.rows);
    }
    let stats_before = session.stats;
    let pages_before = session.buffers.page_writes;
    let handle = t.span("engine.start", |_| session.executor_start(plan, args));
    let run_start = Instant::now();
    let rows = t.span("engine.run", |_| session.executor_run(&handle));
    let run_ns = run_start.elapsed().as_nanos() as u64;
    t.span("engine.end", |_| session.executor_end(handle));
    t.execs.push(ExecRecord {
        kind,
        label,
        run_ns,
        stats: session.stats.delta_since(&stats_before),
        page_writes: session.buffers.page_writes.saturating_sub(pages_before),
        peak_bytes: session.buffers.peak_bytes,
    });
    rows
}

/// One scalar call of a prepared plan.
pub fn call(
    t: &mut Tracer,
    session: &mut Session,
    plan: &Arc<PreparedPlan>,
    args: Vec<Value>,
    label: Option<&'static str>,
) -> Result<Value> {
    let rows = execute(t, session, plan, args, ExecKind::Call, label)?;
    match rows.as_slice() {
        [row] if row.len() == 1 => Ok(row[0].clone()),
        _ => Err(Error::exec(format!(
            "scalar call returned {} rows",
            rows.len()
        ))),
    }
}

/// `Compiled::run_batch`, or traced: `Compiled::prepare_batch` (stage the
/// input rows, commit, prepare) and the three executor phases, with the
/// result rows scattered back into input order.
pub fn apply(
    t: &mut Tracer,
    session: &mut Session,
    compiled: &Compiled,
    calls: &[Vec<Value>],
) -> Result<Vec<Value>> {
    if !t.on {
        return compiled.run_batch(session, calls);
    }
    let plan = t.span("engine.prepare_batch", |_| {
        compiled.prepare_batch(session, calls)
    })?;
    let rows = execute(t, session, &plan, Vec::new(), ExecKind::Apply, None)?;
    let mut out: Vec<Option<Value>> = vec![None; calls.len()];
    for row in rows {
        let [rid, value] = <[Value; 2]>::try_from(row)
            .map_err(|r| Error::exec(format!("batch row of {} columns", r.len())))?;
        let slot = usize::try_from(rid.as_int()?)
            .ok()
            .and_then(|i| out.get_mut(i))
            .ok_or_else(|| Error::exec("batch row id out of range"))?;
        if slot.replace(value).is_some() {
            return Err(Error::exec("batch row id duplicated"));
        }
    }
    out.into_iter()
        .map(|v| v.ok_or_else(|| Error::exec("batch row produced no result")))
        .collect()
}

/// A DML commit through `Session::run`.
pub fn commit(t: &mut Tracer, session: &mut Session, sql: &str) -> Result<()> {
    t.span("engine.commit", |_| session.run(sql)).map(|_| ())
}

/// Compile for set-up. Traced, the staged pipeline runs and its SQL must be
/// byte-equal to `compile_sql`'s, so the traced run cannot drift from the
/// pipeline users get.
pub fn compile_checked(
    t: &mut Tracer,
    catalog: &Catalog,
    source: &str,
    options: CompileOptions,
) -> std::result::Result<Compiled, String> {
    let reference = compile_sql(catalog, source, options).map_err(|e| format!("compile: {e}"))?;
    if t.on {
        let staged = compile(t, catalog, source, options).map_err(|e| format!("compile: {e}"))?;
        if staged.sql != reference.sql || staged.batch_sql != reference.batch_sql {
            return Err(format!(
                "the stage-by-stage compile of {} differs from compile_sql",
                reference.udf.fn_name
            ));
        }
    }
    Ok(reference)
}
