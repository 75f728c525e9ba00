//! Order statistics: nearest-rank latency percentiles over weighted
//! samples, the median/quartiles the comparison rule reads, and the
//! means a fleet's rate is taken with.

/// Latency samples as `(value, windows)` pairs. A closed-loop call that
/// served `n` windows is one value every one of its windows observed, so
/// it counts `n` times.
#[derive(Debug, Default)]
pub struct Samples {
    items: Vec<(u64, u64)>,
    total: u64,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            items: Vec::with_capacity(n),
            total: 0,
        }
    }

    pub fn push(&mut self, value: u64, weight: u64) {
        if weight > 0 {
            self.items.push((value, weight));
            self.total += weight;
        }
    }

    /// Windows observed.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p` quantile (`0 < p ≤ 1`): the smallest value
    /// at least `⌈p·N⌉` of the `N` windows did not exceed, together with
    /// the number of windows ranked beyond it. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<(u64, u64)> {
        if self.total == 0 {
            return None;
        }
        self.items.sort_unstable();
        let rank = nearest_rank(p, self.total);
        let mut seen = 0;
        for &(value, weight) in &self.items {
            seen += weight;
            if seen >= rank {
                return Some((value, self.total - rank));
            }
        }
        unreachable!("cumulative weight reaches the total")
    }

    /// The values in the order they were pushed (before any percentile
    /// query sorted them).
    #[cfg(test)]
    pub fn values_in_order(&self) -> Vec<u64> {
        self.items.iter().map(|&(v, _)| v).collect()
    }
}

/// A count or a nanosecond reading as a float, for ratios.
pub fn float(x: u64) -> f64 {
    x as f64
}

/// `⌈p·n⌉`, clamped to `1..=n`. The epsilon keeps `0.99 × 1000` from
/// rounding up to rank 991.
pub fn nearest_rank(p: f64, n: u64) -> u64 {
    ((p * float(n) - 1e-9).ceil() as u64).clamp(1, n)
}

/// Whether a percentile is reportable: at least ten windows rank beyond
/// it, so it is not the run's maximum in disguise.
pub fn supported(beyond: u64) -> bool {
    beyond >= 10
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The mean of `values` without their lowest and highest, or the plain
/// mean of fewer than three.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() >= 3 {
        mean(&v[1..v.len() - 1])
    } else {
        mean(&v)
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the spreads this tool reports match the acceptance rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_over_weighted_samples() {
        let mut s = Samples::with_capacity(4);
        for v in 1..=100 {
            s.push(v, 1);
        }
        assert_eq!(s.percentile(0.5), Some((50, 50)));
        assert_eq!(s.percentile(0.99), Some((99, 1)));
        assert_eq!(s.percentile(1.0), Some((100, 0)));
        // a 16-window call counts sixteen times
        let mut w = Samples::with_capacity(2);
        w.push(10, 16);
        w.push(1_000, 1);
        assert_eq!(w.count(), 17);
        assert_eq!(w.percentile(0.9), Some((10, 1)));
        assert_eq!(w.percentile(0.95), Some((1_000, 0)));
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(nearest_rank(0.001, 3), 1);
    }

    #[test]
    fn ten_samples_beyond_p99_needs_a_thousand_windows() {
        let mut small = Samples::with_capacity(999);
        for v in 0..999 {
            small.push(v, 1);
        }
        let (_, beyond) = small.percentile(0.99).unwrap();
        assert_eq!(beyond, 9);
        assert!(!supported(beyond));
        small.push(999, 1);
        let (p99, beyond) = small.percentile(0.99).unwrap();
        assert_eq!((p99, beyond), (989, 10));
        assert!(supported(beyond));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn the_trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[9.0, 1.0, 100.0, 2.0, 4.0]), 5.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
