//! The yardstick: a fixed amount of work that belongs to the benchmark,
//! so no change to the program can make it faster or slower, timed
//! beside every measurement. The host changes speed by 15–40% from one
//! few-second spell to the next with load from outside the process, and
//! code that walks trees and looks up tables slows more than a plain
//! arithmetic loop does. Each timing metric is therefore taken with the
//! host's speed read right beside it and restated at the speed where a
//! reading takes [`NOMINAL_NS`]. Half of a pass walks a decision-tree
//! ensemble (the shape of the routed models and the flight recorder's
//! re-scoring), half hashes through a lookup table (the shape of traffic
//! synthesis).

use std::hint::black_box;

use crate::drive::{Clock, Wall};
use crate::stats::{float, median};

/// What one reading takes on a quiet host, in nanoseconds: on the
/// 2-vCPU host the README's measurements come from, readings over 90 s
/// ranged from 0.51 to 1.97 ms, with a tenth of them under 0.55 ms and
/// medians over 5 s spells between 0.57 and 0.79 ms.
pub const NOMINAL_NS: f64 = 600_000.0;

/// How much the program's times grow, in log terms, per unit of growth
/// in the yardstick's: across two ten-seed sets per workload on that
/// host, the slope of a run's log median rate or latency on its log
/// median reading was 0.71 (`live`), 0.59–0.62 (`replay`), 0.67
/// (`paced` latency) and 0.58–0.62 (`fleet-retrain` latency phase).
/// Restating with an exponent of 1 over-corrects every workload but
/// `live`.
pub const SENSITIVITY: f64 = 0.7;

/// The same for a fleet's rate, restated once over all its runs: across
/// two ten-seed sets of a build that logged every fleet run, the slope of
/// a run's log rate on the log mean of the readings beside its fleet runs
/// was 0.44–0.47. Barrier waits and retraining rounds are part of that
/// rate, and they move less with the host's speed than serving does.
pub const FLEET_SENSITIVITY: f64 = 0.45;

const TREES: usize = 64;
const DEPTH: usize = 8;
const NODES: usize = (1 << DEPTH) - 1;
const FEATURES: usize = 8;
const ROWS: usize = 128;
const TABLE: usize = 4096;
const HASH_ROUNDS: usize = 64_000;
/// Passes per reading; the reading is their median, so one pass that
/// the scheduler interrupts does not move it.
const PASSES: usize = 3;

/// A reproducible xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The yardstick's inputs, built once from a fixed seed.
#[derive(Debug)]
pub struct Yardstick {
    feature: Vec<u8>,
    threshold: Vec<f64>,
    rows: Vec<f64>,
    table: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let unit = |x: &mut u64| float(next(x) % 1000) / 1000.0;
        Self {
            feature: (0..TREES * NODES)
                .map(|_| (next(&mut x) % FEATURES as u64) as u8)
                .collect(),
            threshold: (0..TREES * NODES).map(|_| unit(&mut x)).collect(),
            rows: (0..ROWS * FEATURES).map(|_| unit(&mut x)).collect(),
            table: (0..TABLE).map(|_| next(&mut x)).collect(),
        }
    }

    /// One pass: every row down every tree, then four interleaved hash
    /// chains through the table. Returns a checksum of both halves.
    fn pass(&self) -> u64 {
        let mut leaves = 0;
        for row in black_box(&self.rows).chunks(FEATURES) {
            for tree in 0..TREES {
                let base = tree * NODES;
                let mut n = 0;
                while n < NODES / 2 {
                    let f = usize::from(self.feature[base + n]);
                    n = 2 * n + if row[f] < self.threshold[base + n] { 1 } else { 2 };
                }
                leaves += n as u64;
            }
        }
        let table = black_box(&self.table);
        let mut chains = [1_u64, 2, 3, 4];
        for _ in 0..HASH_ROUNDS {
            for c in &mut chains {
                let h = next(c);
                *c = h.wrapping_add(table[(h % TABLE as u64) as usize]);
                if *c & 1 == 0 {
                    *c = c.rotate_left(7);
                }
            }
        }
        chains.iter().fold(leaves, |acc, c| acc ^ c)
    }

    /// One reading: the median time of a few passes, in nanoseconds.
    pub fn read(&self) -> f64 {
        let mut times = [0.0; PASSES];
        for t in &mut times {
            let t0 = Wall.now();
            black_box(self.pass());
            *t = float(Wall.now() - t0);
        }
        median(&times)
    }
}

/// How many times slower than at the nominal host speed the program ran
/// when a reading beside it took `reading_ns`, for work of the given
/// `sensitivity`: a duration divided by it, or a rate multiplied by it,
/// is restated at the nominal speed.
pub fn slowdown(reading_ns: f64, sensitivity: f64) -> f64 {
    (reading_ns / NOMINAL_NS).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_the_same_work_every_time() {
        let y = Yardstick::new();
        // the checksum depends on every tree walk and hash round, so the
        // work cannot be optimized away, and it is the same each pass
        let sum = y.pass();
        assert_eq!(y.pass(), sum);
        assert_eq!(Yardstick::new().pass(), sum);
        assert!(y.read() > 0.0);
        assert_eq!(slowdown(NOMINAL_NS, SENSITIVITY), 1.0);
        let twice = slowdown(2.0 * NOMINAL_NS, FLEET_SENSITIVITY);
        assert!((twice - 2_f64.powf(FLEET_SENSITIVITY)).abs() < 1e-12);
    }
}
