//! The repository benchmark: three workloads driven through the public API
//! of the compiler and engine, each result checked against a Rust
//! reference or the PL/pgSQL interpreter.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile|hot_calls|served_mix --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). Lines before it start with `#` and carry the
//! machine fingerprint, the engine configuration and every latency the
//! workload has. See `perfbench/README.md` for the design.

mod cold_compile;
mod harness;
mod hot_calls;
mod kernels;
mod report;
mod served_mix;
mod stats;
mod trace;

use std::path::Path;

use harness::{run_workload, Outcome, RunCfg};
use plaway_engine::{EngineConfig, IndexMode, TierMode};

const WORKLOADS: [&str; 3] = ["cold_compile", "hot_calls", "served_mix"];

fn run(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "cold_compile" => run_workload::<cold_compile::ColdCompile>(cfg),
        "hot_calls" => run_workload::<hot_calls::HotCalls>(cfg),
        "served_mix" => run_workload::<served_mix::ServedMix>(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

struct Args {
    workload: String,
    cfg: RunCfg,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        cfg: RunCfg {
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            corrupt: false,
        },
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Refuse to measure anything but the preset users get:
/// `PLAWAY_TIER_MODE` silently forces a tier in every preset.
fn pinned_engine() -> Result<EngineConfig, String> {
    if let Some(v) = std::env::var_os("PLAWAY_TIER_MODE") {
        return Err(format!(
            "PLAWAY_TIER_MODE={v:?} is set; it forces an execution tier, so no numbers are produced"
        ));
    }
    let c = EngineConfig::postgres_like();
    if c.tier_mode != TierMode::Auto || c.index_mode != IndexMode::Auto {
        return Err("the postgres_like preset is not in Auto tier and index mode".into());
    }
    Ok(c)
}

fn fingerprint_lines(c: &EngineConfig) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!("machine nproc={nproc} cpu={cpu:?}"),
        format!(
            "engine name={} tier_mode={:?} index_mode={:?} start_penalty_ns={} end_penalty_ns={} tier_promote_threshold={} work_mem_bytes={}",
            c.name,
            c.tier_mode,
            c.index_mode,
            c.start_penalty_ns,
            c.end_penalty_ns,
            c.tier_promote_threshold,
            c.work_mem_bytes
        ),
    ]
}

fn result_json(attempted: u64, failed: u64, metrics: &[report::Metric]) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        parts.join(", ")
    ))
}

fn measure(args: &Args) -> Result<String, String> {
    let engine = pinned_engine()?;
    for line in fingerprint_lines(&engine) {
        println!("# {line}");
    }
    let o = run(&args.workload, &args.cfg)?;
    let metrics = match &o.traced {
        None => {
            for line in report::detail(&o) {
                println!("# {line}");
            }
            report::end_to_end(&o)?
        }
        Some((tracer, traced)) => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("spans")
                .join(format!("{}.jsonl", args.workload));
            tracer
                .write_spans(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "# {} spans written to {}",
                tracer.spans.len(),
                path.display()
            );
            report::per_layer(tracer, traced, &o.out)
        }
    };
    for m in &metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    let tally = o.tally();
    result_json(tally.attempted, tally.failed, &metrics)
}

/// A tiny pass of each workload: clean runs must fail nothing, traced or
/// not, and a run with one expected value made wrong must fail something.
fn self_test() -> Result<(), String> {
    pinned_engine()?;
    let mut ok = true;
    for name in WORKLOADS {
        for (trace, corrupt) in [(false, false), (true, false), (false, true)] {
            let cfg = RunCfg {
                seed: 7,
                seconds: 0.4,
                trace,
                tiny: true,
                corrupt,
            };
            let verdict = match run(name, &cfg) {
                Ok(o) => {
                    let t = o.tally();
                    let error_frac = t.failed as f64 / t.attempted.max(1) as f64;
                    let pass = t.attempted > 0 && (error_frac > 0.0) == corrupt;
                    format!(
                        "{} error_frac={error_frac:.4} ({} of {})",
                        if pass { "pass" } else { "FAIL" },
                        t.failed,
                        t.attempted
                    )
                }
                Err(e) => format!("FAIL {e}"),
            };
            ok &= verdict.starts_with("pass");
            println!("self-test {name} trace={trace} corrupt={corrupt}: {verdict}");
        }
    }
    if ok {
        Ok(())
    } else {
        Err("self-test failed".into())
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.self_test {
            self_test().map(|()| None)
        } else {
            measure(&args).map(Some)
        }
    });
    match result {
        Ok(Some(json)) => println!("{json}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).unwrap();
            let body = &json[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let e2e = [
            "setup_s",
            "call_p50_us",
            "call_p99_us",
            "stmts_per_s",
            "peak_rss_mb",
        ];
        assert_eq!(names("end_to_end"), e2e);
        let tracer = crate::trace::Tracer::new(false, std::time::Instant::now(), 0);
        let empty = crate::harness::LoopOut::default();
        let printed: Vec<String> = crate::report::per_layer(&tracer, &empty, &empty)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names("per_layer"), printed);
    }
}
