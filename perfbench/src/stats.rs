//! Order statistics, failure tallies and process measurements.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Failures reported so far by this process, to cap the report.
static REPORTED: AtomicU64 = AtomicU64::new(0);

/// The `p`-quantile (nearest rank) of `samples`, or an error when fewer
/// than ten samples lie beyond it — the rule that decides which
/// percentiles a run of this size may name.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return Err(format!(
            "p{} needs at least ten samples beyond it; the run has {n}",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Operations attempted and failed; a failure is an error, a wrong
/// answer or a panic. The first few in a process are reported on standard
/// error.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation whose outcome was `got` against `want`.
    pub fn check<T: PartialEq + std::fmt::Debug, E: std::fmt::Display>(
        &mut self,
        what: &str,
        got: &Result<T, E>,
        want: &T,
    ) -> bool {
        self.attempted += 1;
        let ok = matches!(got, Ok(v) if v == want);
        if !ok {
            self.failed += 1;
            if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
                match got {
                    Ok(v) => eprintln!("wrong answer: {what}: got {v:?}, want {want:?}"),
                    Err(e) => eprintln!("error: {what}: {e}"),
                }
            }
        }
        ok
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99).unwrap(), 990.0);
        assert_eq!(percentile(&xs, 0.5).unwrap(), 500.0);
        assert!(percentile(&xs[..999], 0.99).is_err());
    }

    #[test]
    fn tally_counts_wrong_answers_and_errors() {
        let mut t = Tally::default();
        assert!(t.check::<i64, String>("ok", &Ok(1), &1));
        assert!(!t.check::<i64, String>("wrong", &Ok(2), &1));
        assert!(!t.check::<i64, String>("err", &Err("boom".into()), &1));
        assert_eq!((t.attempted, t.failed), (3, 2));
    }
}
