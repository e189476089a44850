//! Metrics from a run's samples (untraced) or spans and counters (traced).

use std::collections::BTreeMap;

use crate::harness::{LoopOut, Outcome};
use crate::kernels::LABELS;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{ExecKind, ExecRecord, Tracer};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // An empty float sum is -0.0; report it as 0.
        value: value + 0.0,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The typical call latency: the median call, or where calls cycle over
/// the (kernel, mode) pairs, the geometric mean of each pair's median. The
/// overall median of such a mix sits in the gap between two pairs and
/// jumps between them from run to run.
fn call_p50_us(call_us: &[f64], call_pair: &[usize]) -> Result<f64, String> {
    if call_pair.is_empty() {
        return percentile(call_us, 0.50);
    }
    let medians = pair_medians(call_us, call_pair)?;
    let log_sum: f64 = medians.values().map(|v| v.ln()).sum();
    Ok((log_sum / medians.len() as f64).exp())
}

/// The median call of each (kernel, mode) pair.
fn pair_medians(call_us: &[f64], call_pair: &[usize]) -> Result<BTreeMap<usize, f64>, String> {
    let mut by_pair: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&pair, &v) in call_pair.iter().zip(call_us) {
        by_pair.entry(pair).or_default().push(v);
    }
    by_pair
        .into_iter()
        .map(|(pair, samples)| Ok((pair, percentile(&samples, 0.50)?)))
        .collect()
}

/// The end-to-end metrics every workload reports, from an untraced run.
pub fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let out = &o.out;
    Ok(vec![
        m("setup_s", median(&o.setup_s), "s"),
        m(
            "call_p50_us",
            call_p50_us(&out.call_us, &out.call_pair)?,
            "us",
        ),
        m("call_p99_us", percentile(&out.call_us, 0.99)?, "us"),
        m("stmts_per_s", ratio(out.stmts as f64, out.busy_s), "1/s"),
        m("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Every latency the workload has, by the names the design uses, with its
/// sample count: printed for people, above the result line.
pub fn detail(o: &Outcome) -> Vec<String> {
    let out = &o.out;
    let mut lines = Vec::new();
    let mut pcts = |name: &str, samples: &[f64], ps: &[(f64, &str)], unit: &str| {
        for (p, tag) in ps {
            if let Ok(v) = percentile(samples, *p) {
                lines.push(format!(
                    "{name}_{tag}_{unit} {v:.3} {unit} (n={})",
                    samples.len()
                ));
            }
        }
    };
    pcts(
        "compile",
        &out.compile_us,
        &[(0.5, "p50"), (0.99, "p99")],
        "us",
    );
    pcts(
        "first_call",
        &out.first_call_us,
        &[(0.5, "p50"), (0.99, "p99")],
        "us",
    );
    pcts("call", &out.call_us, &[(0.99, "p99")], "us");
    pcts("apply", &out.apply_ms, &[(0.5, "p50"), (0.9, "p90")], "ms");
    pcts(
        "commit",
        &out.commit_us,
        &[(0.5, "p50"), (0.9, "p90")],
        "us",
    );
    if let Ok(medians) = pair_medians(&out.call_us, &out.call_pair) {
        for (pair, v) in medians {
            lines.push(format!(
                "call_p50_us.{} {v:.3} us",
                LABELS[pair / 2][pair % 2]
            ));
        }
    }
    if let Ok(v) = call_p50_us(&out.call_us, &out.call_pair) {
        let how = if out.call_pair.is_empty() {
            ""
        } else {
            " (geometric mean of the pair medians)"
        };
        lines.push(format!("call_p50_us {v:.3} us{how}"));
    }
    if let (Ok(p50), Ok(p99)) = (
        call_p50_us(&out.raw_call_us, &out.call_pair),
        percentile(&out.raw_call_us, 0.99),
    ) {
        lines.push(format!(
            "unscaled call_p50_us {p50:.3} call_p99_us {p99:.3} stmts_per_s {:.3}",
            ratio(out.stmts as f64, out.raw_busy_s)
        ));
    }
    lines.push(format!(
        "error_frac {} frac ({} of {})",
        ratio(out.tally.failed as f64, out.tally.attempted as f64),
        out.tally.failed,
        out.tally.attempted
    ));
    lines.push(format!(
        "reference_us {:.3} us (median of {} probes; loop times are scaled to {} us)",
        median(&out.reference_ns) / 1e3,
        out.reference_ns.len(),
        crate::harness::REFERENCE_NS / 1e3
    ));
    if !out.writer_lag_ms.is_empty() {
        lines.push(format!(
            "writer_lag_ms {:.3} ms mean (max {:.3})",
            out.writer_lag_ms.iter().sum::<f64>() / out.writer_lag_ms.len() as f64,
            out.writer_lag_ms.iter().cloned().fold(0.0, f64::max)
        ));
    }
    lines
}

/// Per-layer metrics of a traced run. Stage times are self times (a span
/// minus its children); the compile stages are per compile, the other
/// times per call of that layer. Counts per call cover scalar calls.
pub fn per_layer(tracer: &Tracer, traced: &LoopOut, plain: &LoopOut) -> Vec<Metric> {
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or((0, 0));
    let compiles = tracer.compiles.len() as f64;
    let per_compile_us = |name: &str| ratio(get(name).1 as f64 / 1e3, compiles);
    let mean_us = |name: &str| {
        let (n, ns) = get(name);
        ratio(ns as f64 / 1e3, n as f64)
    };
    let mean_size = |f: fn(&crate::trace::CompileRecord) -> u64| {
        ratio(tracer.compiles.iter().map(|c| f(c) as f64).sum(), compiles)
    };
    let calls: Vec<&ExecRecord> = tracer
        .execs
        .iter()
        .filter(|e| e.kind == ExecKind::Call)
        .collect();
    let applies: Vec<&ExecRecord> = tracer
        .execs
        .iter()
        .filter(|e| e.kind == ExecKind::Apply)
        .collect();
    let n_calls = calls.len() as f64;
    let sum = |rs: &[&ExecRecord], f: &dyn Fn(&ExecRecord) -> u64| -> f64 {
        rs.iter().map(|r| f(r) as f64).sum()
    };
    let per_call = |f: &dyn Fn(&ExecRecord) -> u64| ratio(sum(&calls, f), n_calls);
    let all: Vec<&ExecRecord> = tracer.execs.iter().collect();
    let iters = |r: &ExecRecord| r.stats.recursive_iterations;

    let mut out = vec![
        m("plsql.parse_us", per_compile_us("plsql.parse"), "us"),
        m("plsql.source_bytes", mean_size(|c| c.source_bytes), "bytes"),
        m("core.cfg_us", per_compile_us("core.cfg"), "us"),
        m("core.cfg_blocks", mean_size(|c| c.cfg_blocks), "count"),
        m("core.ssa_us", per_compile_us("core.ssa"), "us"),
        m("core.ssa_phis", mean_size(|c| c.ssa_phis), "count"),
        m("core.opt_us", per_compile_us("core.opt"), "us"),
        m("core.opt_rewrites", mean_size(|c| c.opt_rewrites), "count"),
        m("core.anf_us", per_compile_us("core.anf"), "us"),
        m("core.anf_fns", mean_size(|c| c.anf_fns), "count"),
        m("core.udf_us", per_compile_us("core.udf"), "us"),
        m("core.cte_us", per_compile_us("core.cte"), "us"),
        m("core.text_us", per_compile_us("core.text"), "us"),
        m("core.sql_bytes", mean_size(|c| c.sql_bytes), "bytes"),
        m("sql.parse_us", mean_us("sql.parse"), "us"),
        m("engine.plan_us", mean_us("engine.plan"), "us"),
        m("engine.prepare_us", mean_us("engine.prepare"), "us"),
        m("database.cache_hits", traced.cache_hits as f64, "count"),
        m("database.cache_misses", traced.cache_misses as f64, "count"),
        m(
            "database.cache_hit_ratio",
            ratio(
                traced.cache_hits as f64,
                (traced.cache_hits + traced.cache_misses) as f64,
            ),
            "frac",
        ),
        m("database.commits", traced.commits as f64, "count"),
        m("engine.start_us", mean_us("engine.start"), "us"),
        m("engine.end_us", mean_us("engine.end"), "us"),
        m(
            "engine.penalty_charges_per_call",
            per_call(&|r| r.stats.start_penalty_charges + r.stats.end_penalty_charges),
            "count",
        ),
        m("engine.run_us", per_call(&|r| r.run_ns) / 1e3, "us"),
        m("engine.iters_per_call", per_call(&iters), "count"),
        m(
            "engine.fused_rows_per_call",
            per_call(&|r| r.stats.fused_transition_rows),
            "count",
        ),
    ];
    for label in LABELS.iter().flatten() {
        let rs: Vec<&ExecRecord> = calls
            .iter()
            .copied()
            .filter(|r| r.label == Some(*label))
            .collect();
        out.push(m(
            format!("engine.run_ns_per_iter.{label}"),
            ratio(sum(&rs, &|r| r.run_ns), sum(&rs, &iters)),
            "ns",
        ));
    }
    let retired = sum(&applies, &|r| r.stats.batch.batch_rows_retired);
    out.extend([
        m(
            "engine.apply_rows_per_ms",
            ratio(retired, sum(&applies, &|r| r.run_ns) / 1e6),
            "rows/ms",
        ),
        m("engine.batch_rows_retired", retired, "count"),
        m(
            "engine.vm_ops_per_iter",
            ratio(
                sum(&calls, &|r| r.stats.vm_ops_executed),
                sum(&calls, &iters),
            ),
            "count",
        ),
        m(
            "engine.tier_promotions",
            sum(&all, &|r| r.stats.tier.tier_promotions),
            "count",
        ),
        // `fused_transition_rows` counts only the rows the VM drives, so
        // the share of mono rows is taken of both together.
        m(
            "engine.mono_row_share",
            ratio(
                sum(&all, &|r| r.stats.tier.tier_mono_rows),
                sum(&all, &|r| {
                    r.stats.tier.tier_mono_rows + r.stats.fused_transition_rows
                }),
            ),
            "frac",
        ),
        m(
            "engine.subplan_evals_per_call",
            per_call(&|r| r.stats.subplan_evals),
            "count",
        ),
        m(
            "engine.rows_scanned_per_call",
            per_call(&|r| r.stats.rows_scanned),
            "count",
        ),
        m(
            "engine.index_probes_per_call",
            per_call(&|r| r.stats.index_probes),
            "count",
        ),
        m(
            "engine.snapshots_per_call",
            per_call(&|r| r.stats.snapshots_materialized),
            "count",
        ),
        m("engine.page_writes", sum(&all, &|r| r.page_writes), "count"),
        m(
            "engine.peak_tuplestore_kb",
            all.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64 / 1024.0,
            "KiB",
        ),
        m(
            "bench.writer_lag_frac",
            ratio(
                traced.writer_lag_ms.iter().sum::<f64>(),
                traced.writer_lag_ms.len() as f64 * traced.writer_period_ms,
            ),
            "frac",
        ),
        m(
            "bench.trace_overhead_frac",
            ratio(traced.busy_s, plain.busy_s) - 1.0,
            "frac",
        ),
    ]);
    out
}
