//! Multi-resolution metrics history: the longitudinal memory the
//! instantaneous sliding windows lack.
//!
//! A [`MetricsHistory`] is a preallocated, RRD-style set of ring tiers:
//! the serving loop folds every [`FINE_EVERY`] processed windows into
//! one fine-tier [`HistoryPoint`]; every [`FOLD`] fine points fold into
//! one mid-tier point (counters summed exactly, gauges and quantiles
//! maxed), and every [`FOLD`] mid points into one coarse point — so a
//! slow adversarial drift that never trips an instantaneous SLO
//! threshold is still visible across thousands of windows and multiple
//! retraining generations at a bounded, constant memory cost.
//!
//! Everything is driven by *stream time* and per-interval counters, so
//! the non-wall-clock content of every tier is a pure function of the
//! seed (the workspace determinism suite pins the `/history.json`
//! bytes across batch sizes, thread counts and fleet widths).
//!
//! The write path is allocation-free: a session-local
//! [`HistoryAccumulator`] absorbs one `SampleRecord` per window with
//! plain integer adds, and the periodic flush writes a `Copy` point
//! into a preallocated ring slot under a briefly-held mutex (locked
//! once per [`FINE_EVERY`] windows, not per window).

use std::sync::Mutex;

use hmd_telemetry::metrics::{bucket_index, HistogramSnapshot, BUCKETS};
use hmd_util::json::Json;

use crate::monitor::SampleRecord;

/// Windows per fine-tier point.
pub const FINE_EVERY: u64 = 64;
/// Finer points folded into one coarser point (fine → mid → coarse).
pub const FOLD: usize = 16;
/// Fine-tier ring capacity (points).
pub const FINE_CAP: usize = 256;
/// Mid-tier ring capacity (points).
pub const MID_CAP: usize = 256;
/// Coarse-tier ring capacity (points).
pub const COARSE_CAP: usize = 64;

/// Schema identifier embedded in every `/history.json` document.
pub const HISTORY_SCHEMA: &str = "hmd-history-v1";

/// One history interval: confusion counters plus gauges sampled at the
/// interval's end. `Copy` and flat so ring writes never allocate.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HistoryPoint {
    /// Exclusive end of the interval, as a global sample index: a fine
    /// point with `sample_end = 128` covers windows `[64, 128)`.
    pub sample_end: u64,
    /// Stream time at the interval's end.
    pub t_ns: u64,
    /// Windows in the interval (fold conserves this exactly).
    pub samples: u64,
    /// True positives in the interval.
    pub tp: u64,
    /// False negatives in the interval.
    pub fn_: u64,
    /// False positives in the interval.
    pub fp: u64,
    /// True negatives in the interval.
    pub tn: u64,
    /// Adversarial-predictor flags in the interval.
    pub flags: u64,
    /// Quarantine-ring depth at the interval's end (a gauge; the ring
    /// is fleet-shared, so this is interleaving-dependent and scrubbed
    /// from determinism comparisons).
    pub quarantine_depth: u64,
    /// Model generation at the interval's end.
    pub generation: u64,
    /// Sum of critic (adversarial-predictor reward) scores over the
    /// interval; divide by `samples` for the mean.
    pub critic_sum: f64,
    /// End-to-end latency p50 over the interval, nanoseconds.
    pub latency_p50_ns: f64,
    /// End-to-end latency p95 over the interval, nanoseconds.
    pub latency_p95_ns: f64,
    /// End-to-end latency p99 over the interval, nanoseconds.
    pub latency_p99_ns: f64,
    /// Model-only latency p95 over the interval, nanoseconds.
    pub model_latency_p95_ns: f64,
}

impl HistoryPoint {
    const ZERO: HistoryPoint = HistoryPoint {
        sample_end: 0,
        t_ns: 0,
        samples: 0,
        tp: 0,
        fn_: 0,
        fp: 0,
        tn: 0,
        flags: 0,
        quarantine_depth: 0,
        generation: 0,
        critic_sum: 0.0,
        latency_p50_ns: 0.0,
        latency_p95_ns: 0.0,
        latency_p99_ns: 0.0,
        model_latency_p95_ns: 0.0,
    };

    /// Folds `other` (a later finer point) into `self`: the interval end
    /// advances to `other`'s, and the rest as in
    /// [`combine`](Self::combine).
    fn fold_in(&mut self, other: &HistoryPoint) {
        self.sample_end = other.sample_end;
        self.t_ns = other.t_ns;
        self.combine(other);
    }

    /// Merges a same-`sample_end` point from another shard: stream time
    /// takes the later shard's, and the rest as in
    /// [`combine`](Self::combine).
    fn merge_shard(&mut self, other: &HistoryPoint) {
        debug_assert_eq!(self.sample_end, other.sample_end);
        self.t_ns = self.t_ns.max(other.t_ns);
        self.combine(other);
    }

    /// Counters sum exactly; gauges (the fleet-shared quarantine depth,
    /// the generation) and quantiles take the max — the worst value.
    fn combine(&mut self, other: &HistoryPoint) {
        self.samples += other.samples;
        self.tp += other.tp;
        self.fn_ += other.fn_;
        self.fp += other.fp;
        self.tn += other.tn;
        self.flags += other.flags;
        self.quarantine_depth = self.quarantine_depth.max(other.quarantine_depth);
        self.generation = self.generation.max(other.generation);
        self.critic_sum += other.critic_sum;
        self.latency_p50_ns = self.latency_p50_ns.max(other.latency_p50_ns);
        self.latency_p95_ns = self.latency_p95_ns.max(other.latency_p95_ns);
        self.latency_p99_ns = self.latency_p99_ns.max(other.latency_p99_ns);
        self.model_latency_p95_ns = self.model_latency_p95_ns.max(other.model_latency_p95_ns);
    }

    /// The point as an ordered JSON object (fixed key order — the
    /// serialization is part of the determinism surface).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sample_end".to_owned(), Json::UInt(self.sample_end)),
            ("t_ns".to_owned(), Json::UInt(self.t_ns)),
            ("samples".to_owned(), Json::UInt(self.samples)),
            ("tp".to_owned(), Json::UInt(self.tp)),
            ("fn".to_owned(), Json::UInt(self.fn_)),
            ("fp".to_owned(), Json::UInt(self.fp)),
            ("tn".to_owned(), Json::UInt(self.tn)),
            ("flags".to_owned(), Json::UInt(self.flags)),
            ("quarantine_depth".to_owned(), Json::UInt(self.quarantine_depth)),
            ("generation".to_owned(), Json::UInt(self.generation)),
            ("critic_sum".to_owned(), Json::Float(self.critic_sum)),
            ("latency_p50_ns".to_owned(), Json::Float(self.latency_p50_ns)),
            ("latency_p95_ns".to_owned(), Json::Float(self.latency_p95_ns)),
            ("latency_p99_ns".to_owned(), Json::Float(self.latency_p99_ns)),
            ("model_latency_p95_ns".to_owned(), Json::Float(self.model_latency_p95_ns)),
        ])
    }
}

/// Session-local per-interval accumulator. Lives inside the serving
/// loop (no sharing, no atomics): `observe` is a handful of integer
/// adds per window, and `flush` drains it into a [`HistoryPoint`]
/// every [`FINE_EVERY`] windows.
#[derive(Debug)]
pub struct HistoryAccumulator {
    samples: u64,
    tp: u64,
    fn_: u64,
    fp: u64,
    tn: u64,
    flags: u64,
    critic_sum: f64,
    latency: [u64; BUCKETS],
    latency_sum: u64,
    model_latency: [u64; BUCKETS],
    model_latency_sum: u64,
}

impl Default for HistoryAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            samples: 0,
            tp: 0,
            fn_: 0,
            fp: 0,
            tn: 0,
            flags: 0,
            critic_sum: 0.0,
            latency: [0; BUCKETS],
            latency_sum: 0,
            model_latency: [0; BUCKETS],
            model_latency_sum: 0,
        }
    }

    /// Absorbs one classified window plus its critic score.
    #[inline]
    pub fn observe(&mut self, s: &SampleRecord, critic_score: f64) {
        self.samples += 1;
        match (s.truth_attack, s.verdict_attack) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
        if s.flagged_adversarial {
            self.flags += 1;
        }
        self.critic_sum += critic_score;
        self.latency[bucket_index(s.latency_ns)] += 1;
        self.latency_sum += s.latency_ns;
        self.model_latency[bucket_index(s.model_latency_ns)] += 1;
        self.model_latency_sum += s.model_latency_ns;
    }

    /// Windows absorbed since the last flush.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.samples
    }

    /// Drains the interval into a [`HistoryPoint`] ending at
    /// `sample_end`/`t_ns`, resetting the accumulator.
    pub fn flush(
        &mut self,
        sample_end: u64,
        t_ns: u64,
        quarantine_depth: u64,
        generation: u64,
    ) -> HistoryPoint {
        let latency = HistogramSnapshot {
            buckets: self.latency,
            count: self.latency.iter().sum(),
            sum: self.latency_sum,
        };
        let model_latency = HistogramSnapshot {
            buckets: self.model_latency,
            count: self.model_latency.iter().sum(),
            sum: self.model_latency_sum,
        };
        let point = HistoryPoint {
            sample_end,
            t_ns,
            samples: self.samples,
            tp: self.tp,
            fn_: self.fn_,
            fp: self.fp,
            tn: self.tn,
            flags: self.flags,
            quarantine_depth,
            generation,
            critic_sum: self.critic_sum,
            latency_p50_ns: latency.p50(),
            latency_p95_ns: latency.p95(),
            latency_p99_ns: latency.p99(),
            model_latency_p95_ns: model_latency.p95(),
        };
        *self = Self::new();
        point
    }
}

/// One preallocated ring tier.
#[derive(Debug)]
struct Tier {
    points: Vec<HistoryPoint>,
    head: usize,
    len: usize,
    /// Fold accumulator toward the next-coarser tier.
    pending: HistoryPoint,
    pending_n: usize,
}

impl Tier {
    fn new(cap: usize) -> Self {
        Self {
            points: vec![HistoryPoint::ZERO; cap],
            head: 0,
            len: 0,
            pending: HistoryPoint::ZERO,
            pending_n: 0,
        }
    }

    /// Pushes a point; returns a folded next-coarser point once every
    /// [`FOLD`] pushes.
    fn push(&mut self, p: HistoryPoint) -> Option<HistoryPoint> {
        let cap = self.points.len();
        self.points[self.head] = p;
        self.head = (self.head + 1) % cap;
        self.len = (self.len + 1).min(cap);
        if self.pending_n == 0 {
            self.pending = p;
        } else {
            self.pending.fold_in(&p);
        }
        self.pending_n += 1;
        if self.pending_n == FOLD {
            let folded = self.pending;
            self.pending = HistoryPoint::ZERO;
            self.pending_n = 0;
            Some(folded)
        } else {
            None
        }
    }

    /// Live points, oldest first.
    fn snapshot(&self) -> Vec<HistoryPoint> {
        let cap = self.points.len();
        (0..self.len)
            .map(|i| self.points[(self.head + cap - self.len + i) % cap])
            .collect()
    }
}

#[derive(Debug)]
struct HistoryInner {
    fine: Tier,
    mid: Tier,
    coarse: Tier,
}

/// A point-in-time copy of one shard's history tiers, oldest first.
#[derive(Clone, Debug, Default)]
pub struct TierSnapshot {
    /// Fine tier: one point per [`FINE_EVERY`] windows.
    pub fine: Vec<HistoryPoint>,
    /// Mid tier: one point per `FINE_EVERY × FOLD` windows.
    pub mid: Vec<HistoryPoint>,
    /// Coarse tier: one point per `FINE_EVERY × FOLD²` windows.
    pub coarse: Vec<HistoryPoint>,
}

/// The per-shard multi-resolution history ring set. Single writer (the
/// serving loop, via [`MetricsHistory::push`] once per [`FINE_EVERY`]
/// windows), concurrent readers (HTTP scrape threads) — coordinated by
/// a mutex that is held only for a ring write or a tier copy.
#[derive(Debug)]
pub struct MetricsHistory {
    inner: Mutex<HistoryInner>,
}

impl Default for MetricsHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHistory {
    /// Empty tiers at the default capacities ([`FINE_CAP`],
    /// [`MID_CAP`], [`COARSE_CAP`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_caps(FINE_CAP, MID_CAP, COARSE_CAP)
    }

    /// Empty tiers with explicit ring capacities (tests exercise wrap
    /// without pushing hundreds of points).
    ///
    /// # Panics
    ///
    /// Panics when any capacity is zero.
    #[must_use]
    pub fn with_caps(fine: usize, mid: usize, coarse: usize) -> Self {
        assert!(fine > 0 && mid > 0 && coarse > 0, "tier capacities must be positive");
        Self {
            inner: Mutex::new(HistoryInner {
                fine: Tier::new(fine),
                mid: Tier::new(mid),
                coarse: Tier::new(coarse),
            }),
        }
    }

    /// Pushes one fine-tier point, folding into the mid and coarse
    /// tiers as their fold windows complete. No allocation: ring slots
    /// are preallocated and the point is `Copy`.
    pub fn push(&self, point: HistoryPoint) {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        if let Some(mid_point) = inner.fine.push(point) {
            if let Some(coarse_point) = inner.mid.push(mid_point) {
                let _ = inner.coarse.push(coarse_point);
            }
        }
    }

    /// Copies the live tiers, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> TierSnapshot {
        let inner = self.inner.lock().expect("history lock poisoned");
        TierSnapshot {
            fine: inner.fine.snapshot(),
            mid: inner.mid.snapshot(),
            coarse: inner.coarse.snapshot(),
        }
    }
}

fn points_json(points: &[HistoryPoint]) -> Json {
    Json::Arr(points.iter().map(HistoryPoint::to_json).collect())
}

/// Merges per-shard tiers pointwise: for every `sample_end` present in
/// shard 0's tier, the merged point sums counters (and takes the max
/// of gauges/quantiles) across every shard that has a point with that
/// `sample_end`. Shards drain the same per-shard sample budget, so at
/// rest the tiers align exactly; mid-run a lagging shard simply
/// contributes to fewer trailing points.
fn merged_tier(shards: &[TierSnapshot], select: fn(&TierSnapshot) -> &[HistoryPoint]) -> Vec<HistoryPoint> {
    let Some((first, rest)) = shards.split_first() else {
        return Vec::new();
    };
    select(first)
        .iter()
        .map(|p| {
            let mut merged = *p;
            for other in rest {
                if let Some(q) =
                    select(other).iter().find(|q| q.sample_end == p.sample_end)
                {
                    merged.merge_shard(q);
                }
            }
            merged
        })
        .collect()
}

/// The full `/history.json` document: tier shape, the fleet-merged
/// view, and every shard's own tiers.
#[must_use]
pub fn history_json(shards: &[TierSnapshot]) -> Json {
    let tier_json = |t: &TierSnapshot| {
        Json::Obj(vec![
            ("fine".to_owned(), points_json(&t.fine)),
            ("mid".to_owned(), points_json(&t.mid)),
            ("coarse".to_owned(), points_json(&t.coarse)),
        ])
    };
    let merged = TierSnapshot {
        fine: merged_tier(shards, |t| &t.fine),
        mid: merged_tier(shards, |t| &t.mid),
        coarse: merged_tier(shards, |t| &t.coarse),
    };
    let per_shard: Vec<Json> = shards
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Json::Obj(vec![
                ("shard".to_owned(), Json::UInt(i as u64)),
                ("fine".to_owned(), points_json(&t.fine)),
                ("mid".to_owned(), points_json(&t.mid)),
                ("coarse".to_owned(), points_json(&t.coarse)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(HISTORY_SCHEMA.to_owned())),
        (
            "tiers".to_owned(),
            Json::Obj(vec![
                ("fine_every".to_owned(), Json::UInt(FINE_EVERY)),
                ("fold".to_owned(), Json::UInt(FOLD as u64)),
            ]),
        ),
        ("merged".to_owned(), tier_json(&merged)),
        ("per_shard".to_owned(), Json::Arr(per_shard)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(truth: bool, verdict: bool, flagged: bool, latency: u64) -> SampleRecord {
        SampleRecord {
            truth_attack: truth,
            verdict_attack: verdict,
            flagged_adversarial: flagged,
            latency_ns: latency,
            model_latency_ns: latency / 2,
            sample: 0,
            generation: 0,
        }
    }

    /// A fine point per FOLD pushes whose counters are the exact sums.
    #[test]
    fn fine_to_coarse_fold_conserves_counts_exactly() {
        let h = MetricsHistory::with_caps(8, 8, 8);
        let mut acc = HistoryAccumulator::new();
        let mut pushed_samples = 0u64;
        let mut pushed_tp = 0u64;
        let mut pushed_flags = 0u64;
        // FOLD² fine points: enough to close one full coarse fold
        for i in 0..(FOLD * FOLD) as u64 {
            for k in 0..FINE_EVERY {
                let attack = (i + k) % 3 == 0;
                let flagged = (i + k) % 7 == 0;
                acc.observe(&rec(attack, attack, flagged, 100 + k), 0.5);
                pushed_samples += 1;
                if attack {
                    pushed_tp += 1;
                }
                if flagged {
                    pushed_flags += 1;
                }
            }
            let end = (i + 1) * FINE_EVERY;
            h.push(acc.flush(end, end * 10, i % 5, i / 100));
        }
        let snap = h.snapshot();
        // the fine ring wrapped (cap 8 < 256 pushed); mid kept the last
        // 8 of 16 folded points; coarse closed exactly one fold
        assert_eq!(snap.fine.len(), 8);
        assert_eq!(snap.mid.len(), 8);
        assert_eq!(snap.coarse.len(), 1);
        let c = &snap.coarse[0];
        // the single coarse point covers every pushed window exactly once
        assert_eq!(c.samples, pushed_samples);
        assert_eq!(c.samples, c.tp + c.fn_ + c.fp + c.tn, "confusion cells must partition samples");
        assert_eq!(c.tp, pushed_tp, "tp not conserved through two fold levels");
        assert_eq!(c.flags, pushed_flags, "flags not conserved through two fold levels");
        assert_eq!(c.sample_end, FOLD as u64 * FOLD as u64 * FINE_EVERY);
        // critic_sum sums exactly: 0.5 per window
        assert!((c.critic_sum - 0.5 * pushed_samples as f64).abs() < 1e-6);
        // each mid point likewise conserves its FOLD fine points
        for m in &snap.mid {
            assert_eq!(m.samples, FINE_EVERY * FOLD as u64);
            assert_eq!(m.samples, m.tp + m.fn_ + m.fp + m.tn);
        }
    }

    #[test]
    fn accumulator_quantiles_come_from_the_interval_alone() {
        let mut acc = HistoryAccumulator::new();
        for _ in 0..90 {
            acc.observe(&rec(false, false, false, 1000), 0.0);
        }
        for _ in 0..10 {
            acc.observe(&rec(false, false, false, 1 << 20), 0.0);
        }
        let p = acc.flush(100, 1000, 0, 0);
        assert!(p.latency_p50_ns < 2048.0, "p50 {}", p.latency_p50_ns);
        assert!(p.latency_p99_ns > 500_000.0, "p99 {}", p.latency_p99_ns);
        // flush resets: the next interval starts empty
        assert_eq!(acc.pending(), 0);
        let p2 = acc.flush(200, 2000, 0, 0);
        assert_eq!(p2.samples, 0);
    }

    #[test]
    fn merged_tier_sums_counters_across_aligned_shards() {
        let mk = |tp: u64| {
            let mut p = HistoryPoint::ZERO;
            p.sample_end = 64;
            p.samples = 64;
            p.tp = tp;
            p.tn = 64 - tp;
            p.quarantine_depth = tp; // gauge: merged takes the max
            p
        };
        let a = TierSnapshot { fine: vec![mk(10)], mid: vec![], coarse: vec![] };
        let b = TierSnapshot { fine: vec![mk(3)], mid: vec![], coarse: vec![] };
        let doc = history_json(&[a, b]).to_string();
        let parsed = Json::parse(&doc).expect("valid json");
        let merged_fine = parsed
            .get("merged")
            .and_then(|m| m.get("fine"))
            .and_then(Json::as_arr)
            .expect("merged fine tier");
        assert_eq!(merged_fine.len(), 1);
        let p = &merged_fine[0];
        assert_eq!(p.get("samples").and_then(Json::as_f64), Some(128.0));
        assert_eq!(p.get("tp").and_then(Json::as_f64), Some(13.0));
        assert_eq!(p.get("quarantine_depth").and_then(Json::as_f64), Some(10.0));
        // per-shard views survive unmerged
        let shards = parsed.get("per_shard").and_then(Json::as_arr).expect("per_shard");
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[1].get("fine").and_then(Json::as_arr).unwrap()[0]
                .get("tp")
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
