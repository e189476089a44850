//! Execution-phase profiler.
//!
//! Reproduces the breakdown of Table 1 of the paper: time spent in
//! `ExecutorStart` (plan instantiation), `ExecutorRun` (actual evaluation),
//! `ExecutorEnd` (teardown) and `Interp` (PL/pgSQL statement interpretation).
//! The bold `f→Qi` context-switch overhead of the paper is
//! `ExecutorStart + ExecutorEnd`.

use std::time::Duration;

/// The four cost buckets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    ExecStart,
    ExecRun,
    ExecEnd,
    Interp,
}

/// Accumulated per-phase time and counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiler {
    pub exec_start_ns: u128,
    pub exec_run_ns: u128,
    pub exec_end_ns: u128,
    pub interp_ns: u128,
    pub start_count: u64,
    pub run_count: u64,
    pub end_count: u64,
}

impl Profiler {
    pub fn add(&mut self, phase: Phase, d: Duration) {
        let ns = d.as_nanos();
        match phase {
            Phase::ExecStart => {
                self.exec_start_ns += ns;
                self.start_count += 1;
            }
            Phase::ExecRun => {
                self.exec_run_ns += ns;
                self.run_count += 1;
            }
            Phase::ExecEnd => {
                self.exec_end_ns += ns;
                self.end_count += 1;
            }
            Phase::Interp => self.interp_ns += ns,
        }
    }

    pub fn reset(&mut self) {
        *self = Profiler::default();
    }

    pub fn total_ns(&self) -> u128 {
        self.exec_start_ns + self.exec_run_ns + self.exec_end_ns + self.interp_ns
    }

    /// Percentage breakdown in Table 1 column order:
    /// `(Exec·Start, Exec·Run, Exec·End, Interp)`.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let total = self.total_ns() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.exec_start_ns as f64 / total * 100.0,
            self.exec_run_ns as f64 / total * 100.0,
            self.exec_end_ns as f64 / total * 100.0,
            self.interp_ns as f64 / total * 100.0,
        )
    }

    /// The paper's bold `f→Qi` context-switch overhead share:
    /// `(ExecutorStart + ExecutorEnd) / total`.
    pub fn switch_overhead_pct(&self) -> f64 {
        let total = self.total_ns() as f64;
        if total == 0.0 {
            return 0.0;
        }
        (self.exec_start_ns + self.exec_end_ns) as f64 / total * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_hundred() {
        let mut p = Profiler::default();
        p.add(Phase::ExecStart, Duration::from_nanos(300));
        p.add(Phase::ExecRun, Duration::from_nanos(500));
        p.add(Phase::ExecEnd, Duration::from_nanos(100));
        p.add(Phase::Interp, Duration::from_nanos(100));
        let (s, r, e, i) = p.percentages();
        assert!((s + r + e + i - 100.0).abs() < 1e-9);
        assert!((s - 30.0).abs() < 1e-9);
        assert!((p.switch_overhead_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profiler_reports_zeros() {
        let p = Profiler::default();
        assert_eq!(p.percentages(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(p.switch_overhead_pct(), 0.0);
    }

    #[test]
    fn freshly_reset_profiler_reports_zeros_not_nan() {
        // A zero total must never divide: a used-then-reset profiler has to
        // report exact zeros (not NaN) from every percentage accessor.
        let mut p = Profiler::default();
        p.add(Phase::ExecStart, Duration::from_nanos(300));
        p.add(Phase::ExecRun, Duration::from_nanos(500));
        p.reset();
        assert_eq!(p.total_ns(), 0);
        let (s, r, e, i) = p.percentages();
        assert!(s.is_finite() && r.is_finite() && e.is_finite() && i.is_finite());
        assert_eq!((s, r, e, i), (0.0, 0.0, 0.0, 0.0));
        assert!(p.switch_overhead_pct().is_finite());
        assert_eq!(p.switch_overhead_pct(), 0.0);
    }

    #[test]
    fn counts_track_lifecycle_calls() {
        let mut p = Profiler::default();
        for _ in 0..3 {
            p.add(Phase::ExecStart, Duration::from_nanos(1));
            p.add(Phase::ExecRun, Duration::from_nanos(1));
            p.add(Phase::ExecEnd, Duration::from_nanos(1));
        }
        assert_eq!(p.start_count, 3);
        assert_eq!(p.run_count, 3);
        assert_eq!(p.end_count, 3);
        p.reset();
        assert_eq!(p.start_count, 0);
    }
}
