//! Order statistics and the open-loop schedule arithmetic.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile of ascending `sorted` data (numpy's
/// default, R type 7). `q` is clamped to `[0, 1]`; empty data gives 0.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (NaN-free input).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The lower weighted median: the smallest of `values` at which the
/// running sum of `weights`, in ascending order of value, reaches half of
/// their total. Empty input gives 0.
#[must_use]
pub fn weighted_median(values: &[f64], weights: &[f64]) -> f64 {
    let mut pairs: Vec<(f64, f64)> = values
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = pairs.iter().map(|&(_, w)| w).sum::<f64>() / 2.0;
    let mut below = 0.0;
    for &(value, weight) in &pairs {
        below += weight;
        if below >= half {
            return value;
        }
    }
    pairs.last().map_or(0.0, |&(value, _)| value)
}

/// First quartile, median and third quartile of unsorted `values`, by the
/// same rule as Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method), so spreads read the same as Python's.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let x = data.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median and spread of a sample set as reported per metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Median.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises unsorted `values`.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Summary {
            samples: s.len(),
            median: quantile(&s, 0.5),
            p10: quantile(&s, 0.1),
            p90: quantile(&s, 0.9),
            p99: quantile(&s, 0.99),
        }
    }
}

/// A fixed-rate open-loop send schedule: request `i` is due at
/// `start + i / rate`, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// When request 0 is due.
    pub start: Instant,
    /// Requests per second.
    pub rate: u32,
}

impl OpenLoop {
    /// When request `i` is due.
    #[must_use]
    pub fn due(&self, i: usize) -> Instant {
        let nanos = i as u128 * 1_000_000_000 / u128::from(self.rate.max(1));
        self.start + Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// How late request `i` went out when it was sent at `sent`
    /// (zero when early).
    #[must_use]
    pub fn lag(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }

    /// Latency of request `i` answered at `done`, counted from its due
    /// time, so a stalled sender delays every request queued behind it.
    #[must_use]
    pub fn latency(&self, i: usize, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}

/// Microseconds in `d`, fractional.
#[must_use]
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let data: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert!((quantile(&data, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
    }

    #[test]
    fn weighted_median_follows_the_weights() {
        assert_eq!(weighted_median(&[3.0, 1.0, 2.0], &[1.0, 1.0, 1.0]), 2.0);
        assert_eq!(weighted_median(&[1.0, 10.0], &[3.0, 1.0]), 1.0);
        assert_eq!(weighted_median(&[1.0, 10.0], &[1.0, 3.0]), 10.0);
        assert_eq!(weighted_median(&[], &[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn summary_reports_tail_percentiles() {
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = Summary::of(&data);
        assert_eq!(s.samples, 101);
        assert_eq!((s.median, s.p10, s.p90, s.p99), (50.0, 10.0, 90.0, 99.0));
    }

    #[test]
    fn open_loop_due_times_follow_the_rate() {
        let start = Instant::now();
        let lp = OpenLoop { start, rate: 1_000 };
        assert_eq!(lp.due(0), start);
        assert_eq!(lp.due(1_500) - start, Duration::from_millis(1_500));
        let third = OpenLoop { start, rate: 3 };
        assert_eq!(third.due(1) - start, Duration::from_nanos(333_333_333));
    }

    #[test]
    fn lag_and_latency_count_from_the_due_time() {
        let start = Instant::now();
        let lp = OpenLoop { start, rate: 1_000 };
        let due5 = lp.due(5);
        // Sent 300 us late, answered 2 ms after it was due.
        assert_eq!(
            lp.lag(5, due5 + Duration::from_micros(300)),
            Duration::from_micros(300)
        );
        assert_eq!(
            lp.latency(5, due5 + Duration::from_millis(2)),
            Duration::from_millis(2)
        );
        // Sending early is no lag; a stall behind request 4 still counts
        // against request 5 from its own due time.
        assert_eq!(lp.lag(5, start), Duration::ZERO);
        assert_eq!(lp.latency(5, lp.due(4)), Duration::ZERO);
    }
}
