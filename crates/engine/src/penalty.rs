//! Modeled executor start/end penalties, charged in exactly one place.
//!
//! The engine injects the `ExecutorStart` / `ExecutorEnd` lifecycle costs a
//! disk-based system pays around every statement (plan-tree instantiation,
//! teardown) as calibrated busy-waits. Two sites used to spin
//! independently — [`crate::session::Session::executor_start`] for
//! top-level statements and the recursive-UDF call path in [`crate::exec`]
//! — which made it easy to double-charge a batched execution. Both now
//! route through the helpers here, and every charge is counted in
//! [`RuntimeStats`], so tests (and the batch trampoline's "one penalty per
//! *query*, not per modeled call" claim) can pin the exact charge count of
//! an execution.

use crate::config::EngineConfig;
use crate::metrics::RuntimeStats;

/// Busy-wait for approximately `ns` nanoseconds (profile cost injection).
pub(crate) fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Charge one `ExecutorStart` penalty. The charge is *counted* even when
/// the configured penalty is zero nanoseconds, so charge-count tests work
/// under the raw profile too.
pub(crate) fn charge_start_penalty(config: &EngineConfig, stats: &mut RuntimeStats) {
    stats.start_penalty_charges += 1;
    spin_ns(config.start_penalty_ns);
}

/// Charge one `ExecutorEnd` penalty (the other half of the paper's bold
/// `f→Qi` context-switch overhead).
pub(crate) fn charge_end_penalty(config: &EngineConfig, stats: &mut RuntimeStats) {
    stats.end_penalty_charges += 1;
    spin_ns(config.end_penalty_ns);
}
