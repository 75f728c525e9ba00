//! Sliding-window aggregators: fixed-slot ring buffers over counters
//! and log₂ histograms.
//!
//! A window is `slots × slot_ns` wide. Time is bucketed into *epochs*
//! (`t / slot_ns`); epoch `e` writes into ring slot `e % slots`, lazily
//! zeroing the slot the first time a new epoch touches it, so stale
//! data expires by being overwritten — there is no timer thread and no
//! allocation after construction. Readers sum every slot whose stored
//! epoch is still inside the window.
//!
//! Time is always an explicit `now_ns` argument rather than a wall
//! clock read: the serving loop drives these aggregators on *stream
//! time* (one fixed tick per processed HPC window), which makes window
//! expiry — and therefore every alert transition built on top —
//! deterministic and unit-testable without sleeps. Callers that want
//! wall-clock windows simply pass `hmd_telemetry::clock::now_ns()`.
//!
//! Concurrency contract: **single writer, any number of readers.** The
//! writer is the serving hot loop; readers are HTTP scrape threads and
//! the alert engine (whose fire edges drive incident capture and SLO
//! recalibration — control flow, not just monitoring). Each slot is
//! therefore a tiny seqlock: the stored epoch is `epoch << 1`, and the
//! writer raises the low *in-reset* bit for the duration of a lazy slot
//! reset. Readers (re)read the tag around the payload and retry while
//! it is odd or changed, so no reader can ever attribute a stale value
//! to a fresh epoch or consume a half-zeroed histogram. Retries are
//! bounded by the reset being a handful of plain stores; the hot
//! no-reset write path is unchanged (one relaxed load, two relaxed
//! adds).

use std::sync::atomic::{fence, AtomicU64, Ordering};

use hmd_telemetry::metrics::{bucket_index, HistogramSnapshot, BUCKETS};

/// Low bit of a slot's epoch tag: raised while the writer zeroes the
/// slot, so readers retry instead of consuming a partial reset.
const IN_RESET: u64 = 1;

/// Shape of a sliding window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Ring slots (window resolution). At least 2.
    pub slots: usize,
    /// Width of one slot in (stream-time) nanoseconds.
    pub slot_ns: u64,
}

impl WindowConfig {
    /// A window of `slots` slots, `slot_ns` wide each.
    ///
    /// # Panics
    ///
    /// Panics when `slots < 2` or `slot_ns == 0`.
    #[must_use]
    pub fn new(slots: usize, slot_ns: u64) -> Self {
        assert!(slots >= 2, "a sliding window needs at least 2 slots");
        assert!(slot_ns > 0, "slot width must be positive");
        Self { slots, slot_ns }
    }

    /// Total window span in nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.slot_ns * self.slots as u64
    }

    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns
    }

    /// Whether a slot stamped `slot_epoch` is still live at `now_epoch`:
    /// the window covers epochs `(now_epoch - slots, now_epoch]`.
    fn live(&self, slot_epoch: u64, now_epoch: u64) -> bool {
        slot_epoch <= now_epoch && now_epoch - slot_epoch < self.slots as u64
    }
}

/// One ring slot of a [`WindowedCounter`].
#[derive(Debug, Default)]
struct CounterSlot {
    /// Seqlock tag: `epoch << 1`, low bit = [`IN_RESET`].
    epoch: AtomicU64,
    value: AtomicU64,
}

impl CounterSlot {
    /// Seqlock read: a `(epoch, value)` pair that is guaranteed
    /// consistent — the value was recorded under exactly that epoch.
    fn read(&self) -> (u64, u64) {
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & IN_RESET == 0 {
                let value = self.value.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.epoch.load(Ordering::Relaxed) == e1 {
                    return (e1 >> 1, value);
                }
            }
            std::hint::spin_loop();
        }
    }
}

/// A monotonically increasing count whose reads cover only the sliding
/// window.
#[derive(Debug)]
pub struct WindowedCounter {
    cfg: WindowConfig,
    slots: Box<[CounterSlot]>,
    /// All-time total, independent of the window.
    total: AtomicU64,
}

impl WindowedCounter {
    /// An empty windowed counter.
    #[must_use]
    pub fn new(cfg: WindowConfig) -> Self {
        let slots: Vec<CounterSlot> = (0..cfg.slots).map(|_| CounterSlot::default()).collect();
        Self { cfg, slots: slots.into_boxed_slice(), total: AtomicU64::new(0) }
    }

    /// The window shape.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Adds `n` at stream time `now_ns`. No allocation; a handful of
    /// relaxed atomic operations.
    #[inline]
    pub fn record_at(&self, now_ns: u64, n: u64) {
        let epoch = self.cfg.epoch(now_ns);
        let tag = epoch << 1;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        if slot.epoch.load(Ordering::Relaxed) != tag {
            // lazy expiry behind the seqlock: the odd tag makes readers
            // retry for the duration of the reset
            slot.epoch.store(tag | IN_RESET, Ordering::Relaxed);
            fence(Ordering::Release);
            slot.value.store(0, Ordering::Relaxed);
            slot.epoch.store(tag, Ordering::Release);
        }
        slot.value.fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one at stream time `now_ns`.
    #[inline]
    pub fn inc_at(&self, now_ns: u64) {
        self.record_at(now_ns, 1);
    }

    /// The windowed sum as seen from stream time `now_ns` (slots that
    /// slid out of the window are excluded even though they have not
    /// been overwritten yet).
    #[must_use]
    pub fn sum_at(&self, now_ns: u64) -> u64 {
        let now_epoch = self.cfg.epoch(now_ns);
        self.slots
            .iter()
            .map(|s| {
                let (epoch, value) = s.read();
                if self.cfg.live(epoch, now_epoch) { value } else { 0 }
            })
            .sum()
    }

    /// The all-time total, independent of the window.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// One ring slot of a [`WindowedHistogram`].
#[derive(Debug)]
struct HistSlot {
    /// Seqlock tag: `epoch << 1`, low bit = [`IN_RESET`].
    epoch: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl HistSlot {
    /// Seqlock read into `buckets`, returning the consistent
    /// `(epoch, sum)` the buckets were captured under.
    fn read(&self, buckets: &mut [u64; BUCKETS]) -> (u64, u64) {
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & IN_RESET == 0 {
                for (dst, b) in buckets.iter_mut().zip(&self.buckets) {
                    *dst = b.load(Ordering::Relaxed);
                }
                let sum = self.sum.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.epoch.load(Ordering::Relaxed) == e1 {
                    return (e1 >> 1, sum);
                }
            }
            std::hint::spin_loop();
        }
    }
}

impl Default for HistSlot {
    fn default() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂ histogram whose merged view covers only the sliding window —
/// the source of windowed latency quantiles.
#[derive(Debug)]
pub struct WindowedHistogram {
    cfg: WindowConfig,
    slots: Box<[HistSlot]>,
}

impl WindowedHistogram {
    /// An empty windowed histogram.
    #[must_use]
    pub fn new(cfg: WindowConfig) -> Self {
        let slots: Vec<HistSlot> = (0..cfg.slots).map(|_| HistSlot::default()).collect();
        Self { cfg, slots: slots.into_boxed_slice() }
    }

    /// The window shape.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Records one observation `v` at stream time `now_ns`. No
    /// allocation on this path.
    #[inline]
    pub fn record_at(&self, now_ns: u64, v: u64) {
        let epoch = self.cfg.epoch(now_ns);
        let tag = epoch << 1;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        if slot.epoch.load(Ordering::Relaxed) != tag {
            slot.epoch.store(tag | IN_RESET, Ordering::Relaxed);
            fence(Ordering::Release);
            for b in &slot.buckets {
                b.store(0, Ordering::Relaxed);
            }
            slot.sum.store(0, Ordering::Relaxed);
            slot.epoch.store(tag, Ordering::Release);
        }
        slot.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Merges the live slots into a [`HistogramSnapshot`] as seen from
    /// stream time `now_ns` — directly usable with the telemetry
    /// quantile estimator (`p50`/`p95`/`p99`).
    #[must_use]
    pub fn merged_at(&self, now_ns: u64) -> HistogramSnapshot {
        let now_epoch = self.cfg.epoch(now_ns);
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        let mut captured = [0u64; BUCKETS];
        for slot in &*self.slots {
            let (slot_epoch, slot_sum) = slot.read(&mut captured);
            if !self.cfg.live(slot_epoch, now_epoch) {
                continue;
            }
            for (acc, b) in buckets.iter_mut().zip(&captured) {
                *acc += *b;
            }
            sum = sum.wrapping_add(slot_sum);
        }
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cfg() -> WindowConfig {
        WindowConfig::new(4, 10 * MS) // 40 ms window, 10 ms slots
    }

    #[test]
    fn window_sums_only_live_slots() {
        let c = WindowedCounter::new(cfg());
        c.record_at(0, 5); // epoch 0
        c.record_at(15 * MS, 3); // epoch 1
        assert_eq!(c.sum_at(15 * MS), 8);
        // at epoch 4 the window is (0, 4]: epoch 0 expired, epoch 1 live
        assert_eq!(c.sum_at(45 * MS), 3);
        // at epoch 5 everything recorded so far has expired
        assert_eq!(c.sum_at(55 * MS), 0);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn ring_wraparound_reclaims_slots() {
        let c = WindowedCounter::new(cfg());
        c.record_at(0, 100); // epoch 0 → slot 0
        // epoch 4 maps onto slot 0 again; the lazy reset must discard
        // the stale 100 before adding
        c.record_at(40 * MS, 7);
        assert_eq!(c.sum_at(40 * MS), 7);
        assert_eq!(c.total(), 107);
    }

    #[test]
    fn sparse_writes_leave_stale_slots_excluded_not_counted() {
        let c = WindowedCounter::new(cfg());
        c.record_at(5 * MS, 9); // epoch 0
        // jump far ahead without writing: slot 0 still physically holds
        // 9, but its epoch is out of the window at epoch 40
        assert_eq!(c.sum_at(400 * MS), 0);
        // writing at epoch 40 (slot 0) reclaims it
        c.inc_at(400 * MS);
        assert_eq!(c.sum_at(400 * MS), 1);
    }

    #[test]
    fn boundary_epoch_is_inclusive_of_now_and_exclusive_of_oldest() {
        let w = cfg();
        let c = WindowedCounter::new(w);
        c.record_at(0, 1); // epoch 0
        // epoch 3: window covers epochs (−1, 3] → 0 still live
        assert_eq!(c.sum_at(3 * 10 * MS), 1);
        // epoch 4: window covers (0, 4] → 0 expired
        assert_eq!(c.sum_at(4 * 10 * MS), 0);
    }

    #[test]
    fn histogram_window_expires_and_quantiles_follow() {
        let h = WindowedHistogram::new(cfg());
        for _ in 0..100 {
            h.record_at(0, 1000); // epoch 0: slow phase
        }
        for _ in 0..100 {
            h.record_at(25 * MS, 10); // epoch 2: fast phase
        }
        let both = h.merged_at(25 * MS);
        assert_eq!(both.count, 200);
        // two epochs later the slow phase has slid out
        let fast_only = h.merged_at(45 * MS);
        assert_eq!(fast_only.count, 100);
        assert!(fast_only.p95() < 20.0, "p95 {}", fast_only.p95());
        assert!(both.p95() > 500.0, "p95 {}", both.p95());
    }

    #[test]
    fn histogram_wraparound_resets_buckets_and_sum() {
        let h = WindowedHistogram::new(cfg());
        h.record_at(0, 1 << 20); // epoch 0 → slot 0
        h.record_at(40 * MS, 2); // epoch 4 → slot 0 again, must reset
        let s = h.merged_at(40 * MS);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 2);
    }

    #[test]
    fn time_moving_backwards_within_process_is_tolerated() {
        // readers may observe a now_ns slightly behind the writer's;
        // sums must not underflow or include future slots
        let c = WindowedCounter::new(cfg());
        c.record_at(35 * MS, 4); // epoch 3
        assert_eq!(c.sum_at(5 * MS), 0); // epoch 0 reader: slot is "future"
        assert_eq!(c.sum_at(35 * MS), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 slots")]
    fn rejects_degenerate_window() {
        let _ = WindowConfig::new(1, MS);
    }

    /// Seqlock soundness under a real race: a writer storms through
    /// epochs, forcing a lazy reset on every slot touch, while readers
    /// continuously read every slot. Epoch `e` records `PER_EPOCH`
    /// observations of its own value, which lands in its own bucket, so
    /// a consistent read of a slot stamped `e` can hold only:
    ///
    /// * observations of `e`'s value — any other bucket, or a sum that
    ///   is not a multiple of that value, is data attributed to the
    ///   wrong epoch;
    /// * all `PER_EPOCH` of them when the writer had already moved past
    ///   `e` before the reader looked — fewer is a half-zeroed slot.
    ///
    /// In-flight writes to the current epoch only ever add its own value
    /// to its own bucket and sum, so neither property depends on how a
    /// read interleaves with them (a reader preempted between the bucket
    /// and sum loads still passes). A reset that readers could observe
    /// under the old epoch breaks the second property.
    #[test]
    fn concurrent_readers_never_observe_a_partially_reset_slot() {
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

        const PER_EPOCH: u64 = 64;
        const EPOCHS: u64 = 50_000;
        // 8 value classes over 4 slots: epochs sharing a slot never
        // share a value
        let value = |epoch: u64| (1_u64 << (8 + epoch % 8)) | 1;

        let h = WindowedHistogram::new(cfg());
        let n_slots = cfg().slots as u64;
        let now = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let started = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut buckets = [0u64; BUCKETS];
                        started.fetch_add(1, Ordering::AcqRel);
                        while !done.load(Ordering::Acquire) {
                            // the writer publishes an epoch before writing
                            // it, so every earlier epoch is complete
                            let current = cfg().epoch(now.load(Ordering::Acquire));
                            for (i, slot) in (0..n_slots).zip(h.slots.iter()) {
                                let (epoch, sum) = slot.read(&mut buckets);
                                if epoch % n_slots != i {
                                    // never written: still the default tag
                                    assert_eq!((buckets.iter().sum::<u64>(), sum), (0, 0));
                                    continue;
                                }
                                let v = value(epoch);
                                let own = bucket_index(v);
                                for (b, &count) in buckets.iter().enumerate() {
                                    assert!(
                                        b == own || count == 0,
                                        "slot {i} at epoch {epoch} holds {count} stale \
                                         observation(s) in bucket {b}"
                                    );
                                }
                                let count = buckets[own];
                                if epoch < current {
                                    assert_eq!(
                                        (count, sum),
                                        (PER_EPOCH, PER_EPOCH * v),
                                        "finished epoch {epoch} read half-reset (current {current})"
                                    );
                                } else {
                                    assert!(count <= PER_EPOCH, "epoch {epoch}: count {count}");
                                    assert!(
                                        sum % v == 0 && sum <= PER_EPOCH * v,
                                        "epoch {epoch}: sum {sum} is not whole observations of {v}"
                                    );
                                }
                            }
                        }
                    })
                })
                .collect();
            // race from the first epoch on
            while started.load(Ordering::Acquire) < readers.len() {
                std::thread::yield_now();
            }
            for e in 0..EPOCHS {
                let t = e * 10 * MS;
                now.store(t, Ordering::Release);
                for _ in 0..PER_EPOCH {
                    h.record_at(t, value(e));
                }
            }
            done.store(true, Ordering::Release);
            for r in readers {
                r.join().expect("a reader saw a torn slot");
            }
        });
    }
}
