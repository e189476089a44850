//! The one timing loop of `plaway-bench`.
//!
//! [`measure`] takes named cases, runs `warmup` untimed rounds and then
//! `rounds` timed rounds. Every round runs every case once, and the order
//! rotates by one case per round. So the cases of a gated ratio are sampled
//! in the same rounds, and a transient slowdown of the machine lands on
//! every case of the rounds it spans instead of one case's block. Each case
//! comes back as a [`Spread`]: median, quartiles and extremes of its
//! per-call wall time.

use std::time::Instant;

use plaway_common::{Error, Result};

/// One named measurement: a call that is timed whole, once per round.
pub struct Case<'a> {
    pub name: String,
    run: Box<dyn FnMut() -> Result<()> + 'a>,
}

/// A case named `name` whose timed call is `run`. State shared between
/// cases lives outside them (a `RefCell` both closures borrow), so a
/// case's closure holds it only for the length of one call.
pub fn case<'a>(name: impl Into<String>, run: impl FnMut() -> Result<()> + 'a) -> Case<'a> {
    Case {
        name: name.into(),
        run: Box::new(run),
    }
}

/// Order statistics of one case's samples, in nanoseconds per call.
/// Quartiles interpolate linearly between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of a non-empty sample.
    pub fn of(samples: &[u128]) -> Spread {
        let mut sorted: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let h = (sorted.len() - 1) as f64 * p;
            let (lo, hi) = (sorted[h.floor() as usize], sorted[h.ceil() as usize]);
            lo + (hi - lo) * h.fract()
        };
        Spread {
            min: sorted[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Every statistic divided by `n`: per row, per call or per iteration
    /// when one timed call does `n` of them.
    pub fn per(self, n: f64) -> Spread {
        Spread {
            min: self.min / n,
            q1: self.q1 / n,
            median: self.median / n,
            q3: self.q3 / n,
            max: self.max / n,
        }
    }
}

/// Run `warmup` untimed and then `rounds` timed round-robin rounds over
/// `cases`; round `r` starts at case `r % cases.len()`. Returns one
/// [`Spread`] per case, in case order. The first `Err` a case returns
/// aborts the run with that error, and a panic unwinds out of it: a failed
/// call is never recorded as a (fast) sample.
pub fn measure(cases: &mut [Case<'_>], warmup: usize, rounds: usize) -> Result<Vec<Spread>> {
    let n = cases.len();
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for round in 0..warmup + rounds {
        for i in (0..n).map(|k| (round + k) % n) {
            let case = &mut cases[i];
            let t0 = Instant::now();
            (case.run)().map_err(|e| Error::exec(format!("{}: {e}", case.name)))?;
            let ns = t0.elapsed().as_nanos();
            if round >= warmup {
                samples[i].push(ns);
            }
        }
    }
    Ok(samples.iter().map(|s| Spread::of(s)).collect())
}

/// The machine a measurement ran on, as `machine: …` lines for standard
/// error: hardware threads and the CPU model.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("machine: nproc {nproc}\nmachine: cpu {cpu}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spread_of_a_known_sample() {
        // Unsorted on purpose; sorted it is 1..=9 with 100 at the top.
        let s = Spread::of(&[7, 3, 100, 1, 9, 5, 2, 8, 4, 6, 10]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.q1, 3.5);
        assert_eq!(s.q3, 8.5);
        assert_eq!(s.max, 100.0);
        let even = Spread::of(&[10, 20, 30, 40]);
        assert_eq!((even.q1, even.median, even.q3), (17.5, 25.0, 32.5));
        assert_eq!(Spread::of(&[40, 80]).per(4.0).median, 15.0);
    }

    #[test]
    fn every_case_leads_equally_often() {
        let order = RefCell::new(Vec::new());
        let mut cases: Vec<Case> = (0..3)
            .map(|i| {
                let order = &order;
                case(format!("c{i}"), move || {
                    order.borrow_mut().push(i);
                    Ok(())
                })
            })
            .collect();
        let (warmup, rounds) = (2, 10);
        let spreads = measure(&mut cases, warmup, rounds).unwrap();
        assert_eq!(spreads.len(), 3);
        drop(cases);
        let order = order.into_inner();
        assert_eq!(order.len(), 3 * (warmup + rounds));
        let mut first = [0usize; 3];
        for round in order.chunks(3).skip(warmup) {
            let mut seen = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2], "each round runs every case once");
            first[round[0]] += 1;
        }
        let (lo, hi) = (first.iter().min().unwrap(), first.iter().max().unwrap());
        assert!(hi - lo <= 1, "first-place counts {first:?}");
    }

    #[test]
    fn a_failing_case_aborts_the_run() {
        let calls = RefCell::new(0);
        let mut cases = vec![
            case("ok", || Ok(())),
            case("fails", || {
                *calls.borrow_mut() += 1;
                if *calls.borrow() == 3 {
                    Err(Error::exec("boom"))
                } else {
                    Ok(())
                }
            }),
        ];
        let err = measure(&mut cases, 1, 5).unwrap_err();
        assert!(err.to_string().contains("fails: "), "{err}");
        assert!(err.to_string().contains("boom"), "{err}");

        let panics = std::panic::catch_unwind(|| {
            let mut cases = vec![case("panics", || panic!("wrong answer"))];
            measure(&mut cases, 0, 3)
        });
        assert!(panics.is_err(), "a panicking case must not yield samples");
    }
}
