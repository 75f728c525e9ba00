//! Load generators: a closed loop that issues the next call when the
//! previous one returns, and an open loop that issues windows on a fixed
//! schedule and times each one from when it was due. A phase is driven in
//! segments, one generator call each, and summarized by [`Phase`].

#[cfg(test)]
use std::cell::Cell;

use crate::stats::{float, median, supported, Samples};
use crate::yardstick::{slowdown, SENSITIVITY};

/// A monotonic nanosecond clock. The open loop waits on it, so tests can
/// substitute a clock that only moves when told to.
pub trait Clock {
    fn now(&self) -> u64;
    /// Returns at or after `t`, with the time it returned.
    fn wait_until(&self, t: u64) -> u64;
}

/// The process clock. Waits spin: the open loop's gaps (40 µs at
/// 25,000 windows/s) are far below the scheduler's sleep granularity.
pub struct Wall;

impl Clock for Wall {
    fn now(&self) -> u64 {
        hmd::telemetry::clock::now_ns()
    }

    fn wait_until(&self, t: u64) -> u64 {
        loop {
            let now = self.now();
            if now >= t {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// A clock that advances only through [`Manual::advance`] and waits.
#[cfg(test)]
#[derive(Default)]
pub struct Manual(Cell<u64>);

#[cfg(test)]
impl Manual {
    pub fn advance(&self, ns: u64) {
        self.0.set(self.0.get() + ns);
    }
}

#[cfg(test)]
impl Clock for Manual {
    fn now(&self) -> u64 {
        self.0.get()
    }

    fn wait_until(&self, t: u64) -> u64 {
        self.0.set(self.0.get().max(t));
        self.0.get()
    }
}

/// What one load-generator call observed.
#[derive(Debug, Default)]
pub struct Driven {
    /// Per-window latency, in serving order. Closed loop: the duration
    /// of the call that served the window. Open loop: from the window's
    /// due time until its call returned.
    pub latency: Samples,
    /// Windows served.
    pub served: usize,
    /// Time spent inside serving calls.
    pub busy_ns: u64,
    /// Wall time of the whole call.
    pub elapsed_ns: u64,
    /// Open loop: the latest the schedule woke after a window's due time
    /// when it had to wait for it — the generator's own lateness.
    pub lag_max_ns: u64,
    /// Open loop: the most windows already due, beyond the one starting,
    /// when a window started.
    pub backlog_max: u64,
    /// The failure that stopped the call early, if any.
    pub error: Option<String>,
}

/// Calls `serve` until it reports 0 windows (budget spent) or fails.
/// `serve` returns how many windows the call served; `calls` sizes the
/// sample buffer.
pub fn closed_loop(
    clock: &impl Clock,
    calls: usize,
    mut serve: impl FnMut() -> Result<usize, String>,
) -> Driven {
    let mut out = Driven {
        latency: Samples::with_capacity(calls),
        ..Driven::default()
    };
    let t0 = clock.now();
    loop {
        let start = clock.now();
        match serve() {
            Ok(0) => break,
            Ok(n) => {
                let end = clock.now();
                out.latency.push(end - start, n as u64);
                out.busy_ns += end - start;
                out.served += n;
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out.elapsed_ns = clock.now() - t0;
    out
}

/// Serves `windows` windows, window `k` due at `k · period_ns` after the
/// start. A window that comes due while an earlier one is still being
/// served waits, and that wait counts in its latency.
pub fn open_loop(
    clock: &impl Clock,
    windows: usize,
    period_ns: u64,
    mut serve: impl FnMut() -> Result<(), String>,
) -> Driven {
    let mut out = Driven {
        latency: Samples::with_capacity(windows),
        ..Driven::default()
    };
    let t0 = clock.now();
    for k in 0..windows as u64 {
        let due = t0 + k * period_ns;
        let mut start = clock.now();
        if start < due {
            start = clock.wait_until(due);
            out.lag_max_ns = out.lag_max_ns.max(start - due);
        } else {
            out.backlog_max = out.backlog_max.max((start - t0) / period_ns - k);
        }
        if let Err(e) = serve() {
            out.error = Some(e);
            break;
        }
        let end = clock.now();
        out.latency.push(end - due, 1);
        out.busy_ns += end - start;
        out.served += 1;
    }
    out.elapsed_ns = clock.now() - t0;
    out
}

/// A phase driven in segments, one [`Driven`] call each, each with a
/// yardstick reading taken right after it (see `yardstick`). Latency
/// and rate are medians over the segments, so a segment that load from
/// outside the process hit moves one sample.
#[derive(Debug, Default)]
pub struct Phase {
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    /// Windows per second.
    rate: Vec<f64>,
    reading_ns: Vec<f64>,
    /// The fewest windows any segment ranked beyond its p99.
    min_beyond: Option<u64>,
    pub served: usize,
    pub busy_ns: u64,
    pub elapsed_ns: u64,
    pub lag_max_ns: u64,
    pub backlog_max: u64,
    pub error: Option<String>,
}

impl Phase {
    /// Adds one segment and the yardstick reading taken after it.
    pub fn add(&mut self, mut d: Driven, reading_ns: f64) {
        if let (Some((p50, _)), Some((p99, beyond))) =
            (d.latency.percentile(0.5), d.latency.percentile(0.99))
        {
            self.p50_ns.push(float(p50));
            self.p99_ns.push(float(p99));
            self.rate
                .push(float(d.served as u64) / (float(d.elapsed_ns) / 1e9));
            self.reading_ns.push(reading_ns);
            self.min_beyond = Some(self.min_beyond.map_or(beyond, |m| m.min(beyond)));
        }
        self.served += d.served;
        self.busy_ns += d.busy_ns;
        self.elapsed_ns += d.elapsed_ns;
        self.lag_max_ns = self.lag_max_ns.max(d.lag_max_ns);
        self.backlog_max = self.backlog_max.max(d.backlog_max);
        self.error = self.error.take().or(d.error);
    }

    /// Median p50, p99 and rate over the segments: as measured, or each
    /// segment restated at the nominal host speed by its own reading.
    pub fn medians(&self, nominal: bool) -> Medians {
        if self.rate.is_empty() {
            return Medians::default();
        }
        let at = |values: &[f64], per_time: bool| {
            let restated: Vec<f64> = values
                .iter()
                .zip(&self.reading_ns)
                .map(|(v, r)| match (nominal, per_time) {
                    (false, _) => *v,
                    (true, true) => v * slowdown(*r, SENSITIVITY),
                    (true, false) => v / slowdown(*r, SENSITIVITY),
                })
                .collect();
            median(&restated)
        };
        Medians {
            p50_ns: at(&self.p50_ns, false),
            p99_ns: at(&self.p99_ns, false),
            rate: at(&self.rate, true),
        }
    }

    /// The median yardstick reading over the segments (0 when there
    /// were none).
    pub fn reading_ns(&self) -> f64 {
        if self.reading_ns.is_empty() {
            0.0
        } else {
            median(&self.reading_ns)
        }
    }

    /// Whether every segment's p99 had ten windows beyond it.
    pub fn supported(&self) -> bool {
        self.min_beyond.is_some_and(supported)
    }
}

/// A phase's per-window latency percentiles and its rate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Medians {
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Windows per second.
    pub rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: u64 = 40_000;
    const SERVICE: u64 = 10_000;

    fn p50_p99(d: &mut Driven) -> (u64, u64) {
        (
            d.latency.percentile(0.5).unwrap().0,
            d.latency.percentile(0.99).unwrap().0,
        )
    }

    #[test]
    fn an_unloaded_open_loop_sees_only_service_time() {
        let clock = Manual::default();
        let mut d = open_loop(&clock, 100, PERIOD, || {
            clock.advance(SERVICE);
            Ok(())
        });
        assert_eq!(d.served, 100);
        assert_eq!(d.backlog_max, 0);
        assert_eq!(p50_p99(&mut d), (SERVICE, SERVICE));
        assert_eq!(d.elapsed_ns, 99 * PERIOD + SERVICE);
    }

    #[test]
    fn a_stall_delays_the_windows_queued_behind_it() {
        let clock = Manual::default();
        let stall_at = 5;
        let mut k = 0;
        let mut d = open_loop(&clock, 200, PERIOD, || {
            clock.advance(if k == stall_at { 1_000_000 } else { SERVICE });
            k += 1;
            Ok(())
        });
        // the stalled window itself, then every window due during the
        // stall: each waits for the backlog ahead of it to drain at
        // PERIOD - SERVICE per window
        let lat = d.latency.values_in_order();
        assert_eq!(lat[stall_at], 1_000_000);
        assert_eq!(lat[stall_at + 1], 1_000_000 - PERIOD + SERVICE);
        assert!(lat[stall_at + 1..stall_at + 30]
            .windows(2)
            .all(|w| w[0] > w[1]));
        assert!(
            lat[stall_at + 30] > SERVICE,
            "still draining 30 windows later"
        );
        assert_eq!(lat[199], SERVICE, "the backlog drains");
        // when window 6 starts at 1.2 ms, windows 7..=30 are already due
        assert_eq!(d.backlog_max, 24);
        let (p50, p99) = p50_p99(&mut d);
        assert_eq!(p50, SERVICE);
        assert!(p99 > 500_000);
    }

    #[test]
    fn the_closed_loop_counts_every_window_of_a_call() {
        let clock = Manual::default();
        let mut left = 5;
        let d = closed_loop(&clock, 8, || {
            clock.advance(1_000);
            left -= 1;
            Ok(if left >= 0 { 16 } else { 0 })
        });
        assert_eq!(d.served, 80);
        assert_eq!(d.latency.count(), 80);
        assert_eq!(d.busy_ns, 5_000);
        let failing = closed_loop(&clock, 1, || Err("boom".to_owned()));
        assert_eq!(failing.error.as_deref(), Some("boom"));
    }

    #[test]
    fn a_phase_restates_each_segment_at_the_nominal_host_speed() {
        use crate::yardstick::NOMINAL_NS;
        let clock = Manual::default();
        let mut phase = Phase::default();
        // the same work on a host at nominal speed, then twice and three
        // times slower, each with the reading that speed gives
        for slow in [1_u64, 2, 3] {
            let mut calls = 0;
            let driven = closed_loop(&clock, 2_000, || {
                calls += 1;
                clock.advance(1_000 * slow);
                Ok(if calls <= 1_000 { 1 } else { 0 })
            });
            phase.add(driven, NOMINAL_NS * float(slow).powf(1.0 / SENSITIVITY));
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b;
        let measured = phase.medians(false);
        assert_eq!((measured.p50_ns, measured.p99_ns), (2_000.0, 2_000.0));
        let nominal = phase.medians(true);
        assert!(close(nominal.p50_ns, 1_000.0) && close(nominal.p99_ns, 1_000.0));
        assert!(close(nominal.rate, 1e6 * 1_000.0 / 1_001.0));
        assert!(close(phase.reading_ns(), NOMINAL_NS * 2_f64.powf(1.0 / SENSITIVITY)));
        assert!(phase.supported(), "1,000 windows leave ten beyond p99");
        assert_eq!(phase.served, 3_000);
        assert_eq!(phase.busy_ns, 1_000 * (1_000 + 2_000 + 3_000));
        assert_eq!(Phase::default().medians(true), Medians::default());
    }
}
