//! What every workload shares: the run configuration, the loop budget,
//! the samples a loop returns, and the set-up / untraced / traced protocol.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use plaway_engine::{Database, EngineConfig};

use crate::stats::{median, Tally};
use crate::trace::Tracer;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the self-test.
    pub tiny: bool,
    /// Make one expected value wrong, for the self-test.
    pub corrupt: bool,
}

impl RunCfg {
    /// The engine preset `Session::default()` gives users.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::postgres_like()
    }
}

/// When a measured loop stops: after a time, or after a number of
/// statements (the traced replay of an untraced loop).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Ops(u64),
}

impl Budget {
    pub fn start(self) -> BudgetClock {
        BudgetClock {
            budget: self,
            t0: Instant::now(),
            ops: 0,
            last_probe: None,
            reference_ns: Vec::new(),
        }
    }
}

/// How often the loop times the reference computation.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Reference computations per probe.
const PROBE_REPS: u32 = 3;
/// The probes the speed estimate takes the median of.
const PROBE_WINDOW: usize = 15;
/// The reference computation's duration at the speed the reported times
/// are scaled to.
pub const REFERENCE_NS: f64 = 150_000.0;

/// Keys the reference sorts and searches: 16 KiB, so the work stays in a
/// core's own caches.
const REFERENCE_KEYS: usize = 2048;

thread_local! {
    /// The reference's only memory, allocated once per thread: the
    /// reference must not call the allocator, whose state the system under
    /// test shapes.
    static REFERENCE_SCRATCH: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(vec![0; REFERENCE_KEYS]);
}

/// A fixed computation that shares no code or memory with the system under
/// test: fill, sort and binary-search a small table of pseudo-random keys,
/// branchy integer work like a compiler's or an executor's. Its duration
/// tracks how fast the machine runs such code at the moment.
fn reference_work() -> u64 {
    REFERENCE_SCRATCH.with_borrow_mut(|keys| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in keys.iter_mut() {
            *k = next() % 1_000_000;
        }
        keys.sort_unstable();
        (0..2 * REFERENCE_KEYS).fold(0u64, |acc, _| {
            let found = keys.binary_search(&(next() % 1_000_000)).is_ok();
            acc.wrapping_mul(31).wrapping_add(found as u64)
        })
    })
}

/// One probe: the reference computation's duration now, in ns.
fn probe_ns() -> f64 {
    let t = Instant::now();
    for _ in 0..PROBE_REPS {
        std::hint::black_box(reference_work());
    }
    t.elapsed().as_nanos() as f64 / PROBE_REPS as f64
}

/// Runs the loop's budget and measures the machine's speed as it goes.
///
/// Shared machines drift in speed: on a 2-vCPU Intel Xeon VM, unscaled
/// call latencies of the same workload differed by up to 30% between runs
/// a minute apart. Every [`PROBE_EVERY`] the clock times
/// [`reference_work`], and [`BudgetClock::scaled`] rescales a measured
/// duration to the speed at which the reference takes [`REFERENCE_NS`],
/// using the median of the last [`PROBE_WINDOW`] probes. The system under
/// test shares no code or memory with the reference, so a change to it
/// moves scaled and raw times in the same proportion.
pub struct BudgetClock {
    budget: Budget,
    t0: Instant,
    ops: u64,
    last_probe: Option<Instant>,
    /// Every probe's reference duration, in ns.
    pub reference_ns: Vec<f64>,
}

impl BudgetClock {
    /// Whether one more statement may start; counts it if so.
    pub fn next(&mut self) -> bool {
        if self.last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.reference_ns.push(probe_ns());
            self.last_probe = Some(Instant::now());
        }
        let go = match self.budget {
            Budget::Time(d) => self.t0.elapsed() < d,
            Budget::Ops(n) => self.ops < n,
        };
        self.ops += go as u64;
        go
    }

    /// `d` at the reference speed, in seconds.
    pub fn scaled(&self, d: Duration) -> f64 {
        let n = self.reference_ns.len();
        let recent = &self.reference_ns[n.saturating_sub(PROBE_WINDOW)..];
        d.as_secs_f64() * REFERENCE_NS / median(recent)
    }
}

/// Samples of one measured loop. Latencies are in the unit their name
/// says, scaled to the reference speed (see [`BudgetClock`]) except the
/// writer's; `stmts` and `busy_s` are the closed-loop client's statements
/// and the scaled time it spent on them.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub tally: Tally,
    pub stmts: u64,
    pub busy_s: f64,
    /// The reference computation's measured durations, in ns.
    pub reference_ns: Vec<f64>,
    /// `call_us` and `busy_s` as measured, before scaling.
    pub raw_call_us: Vec<f64>,
    pub raw_busy_s: f64,
    /// The workload's scalar call statements (the `call_*` metrics).
    pub call_us: Vec<f64>,
    /// The (kernel, mode) pair of each call, where calls have one.
    pub call_pair: Vec<usize>,
    pub compile_us: Vec<f64>,
    pub first_call_us: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub commit_us: Vec<f64>,
    /// How late each writer commit started, in ms.
    pub writer_lag_ms: Vec<f64>,
    pub writer_period_ms: f64,
    /// Plan-cache lookups and catalog commits during the loop.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub commits: u64,
    /// One fingerprint per statement result, when asked for.
    pub fingerprints: Vec<u64>,
}

/// Plan-cache hits, misses and commits of a database so far.
pub fn db_counters(db: &Database) -> [u64; 3] {
    let m = db.metrics();
    [m.plan_cache.hits, m.plan_cache.misses, m.commits]
}

impl LoopOut {
    pub fn add_db_delta(&mut self, before: [u64; 3], after: [u64; 3]) {
        self.cache_hits += after[0] - before[0];
        self.cache_misses += after[1] - before[1];
        self.commits += after[2] - before[2];
    }
}

pub fn fingerprint<T: std::fmt::Debug>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{v:?}").hash(&mut h);
    h.finish()
}

/// Run `f`, turning an error or a panic into a failed operation.
pub fn guarded<T>(f: impl FnOnce() -> plaway_common::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

pub trait Workload: Sized {
    /// Build fixtures, compile and prepare what the loop needs, and compute
    /// expected results with the references. Calls into the system go
    /// through `t`, so a traced run records set-up spans too.
    fn setup(t: &mut Tracer, cfg: &RunCfg) -> Result<Self, String>;

    /// Run statements until `budget` is spent. With `fingerprints`, the
    /// loop also records one fingerprint per statement result; a traced
    /// replay of the same budget must record the same ones.
    fn run(
        &mut self,
        t: &mut Tracer,
        budget: Budget,
        fingerprints: bool,
    ) -> Result<LoopOut, String>;
}

/// Everything one run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub out: LoopOut,
    /// Traced runs only: the tracer (set-up plus the traced loop), the
    /// untraced loop it replayed, and the traced loop.
    pub traced: Option<(Tracer, LoopOut)>,
}

impl Outcome {
    /// Operations attempted and failed by every loop of the run.
    pub fn tally(&self) -> Tally {
        let mut t = self.out.tally;
        if let Some((_, traced)) = &self.traced {
            t.add(traced.tally);
        }
        t
    }
}

pub fn run_workload<W: Workload>(cfg: &RunCfg) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut tracer = Tracer::new(cfg.trace, epoch, 0);
    for _ in 0..reps {
        drop(prepared.take());
        tracer = Tracer::new(cfg.trace, epoch, 0);
        // Set-up is scaled to the reference speed like the loop's times,
        // by the probes just before it.
        let probes: Vec<f64> = (0..PROBE_WINDOW).map(|_| probe_ns()).collect();
        let t0 = Instant::now();
        prepared = Some(W::setup(&mut tracer, cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64() * REFERENCE_NS / median(&probes));
    }
    let mut w = prepared.expect("at least one set-up");
    let seconds = Duration::from_secs_f64(cfg.seconds);
    if !cfg.trace {
        let out = w.run(
            &mut Tracer::new(false, epoch, 0),
            Budget::Time(seconds),
            false,
        )?;
        return Ok(Outcome {
            setup_s,
            out,
            traced: None,
        });
    }
    // A first loop grows the heap and warms the caches, which would
    // otherwise make whichever half runs first look slower.
    w.run(
        &mut Tracer::new(false, epoch, 0),
        Budget::Time(seconds / 10),
        false,
    )?;
    let plain = w.run(
        &mut Tracer::new(false, epoch, 0),
        Budget::Time(seconds * 2 / 5),
        true,
    )?;
    let traced = w.run(&mut tracer, Budget::Ops(plain.stmts), true)?;
    if let Some(i) = (0..plain.fingerprints.len().max(traced.fingerprints.len()))
        .find(|&i| plain.fingerprints.get(i) != traced.fingerprints.get(i))
    {
        return Err(format!(
            "statement {i}: the traced result differs from the untraced one"
        ));
    }
    Ok(Outcome {
        setup_s,
        out: plain,
        traced: Some((tracer, traced)),
    })
}
