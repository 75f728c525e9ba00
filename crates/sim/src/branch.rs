//! A gshare branch predictor with 2-bit saturating counters.

/// Outcome of one branch prediction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Prediction {
    /// Prediction matched the actual outcome.
    Correct,
    /// Prediction missed — the pipeline pays a flush penalty.
    Mispredicted,
}

impl Prediction {
    /// `true` for [`Prediction::Mispredicted`].
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, Prediction::Mispredicted)
    }
}

/// A gshare predictor: the pattern-history table is indexed by the branch
/// PC XOR-ed with a global history register of recent outcomes, each entry
/// a 2-bit saturating counter.
///
/// # Example
///
/// ```
/// use hmd_sim::branch::Gshare;
///
/// let mut bp = Gshare::new(10); // 1024-entry table
/// // An always-taken branch becomes perfectly predicted once the global
/// // history register has saturated (10 outcomes) and the counters trained.
/// for _ in 0..24 { bp.execute(0x400123, true); }
/// assert!(bp.execute(0x400123, true) == hmd_sim::branch::Prediction::Correct);
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    history_bits: u32,
    table: Vec<u8>,
    history: u64,
}

impl Gshare {
    /// A predictor with a `2^history_bits`-entry pattern table.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ history_bits ≤ 24`.
    #[must_use]
    pub fn new(history_bits: u32) -> Self {
        assert!((1..=24).contains(&history_bits), "history bits must be in 1..=24");
        Self {
            history_bits,
            table: vec![1; 1 << history_bits], // weakly not-taken
            history: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Predicts, then trains on the actual outcome, returning whether the
    /// prediction was correct.
    pub fn execute(&mut self, pc: u64, taken: bool) -> Prediction {
        let idx = self.index(pc);
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        // train
        if taken {
            self.table[idx] = (counter + 1).min(3);
        } else {
            self.table[idx] = counter.saturating_sub(1);
        }
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | u64::from(taken)) & mask;
        if predicted_taken == taken {
            Prediction::Correct
        } else {
            Prediction::Mispredicted
        }
    }

    /// Clears all learned state (container switch).
    pub fn flush(&mut self) {
        self.table.fill(1);
        self.history = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_util::rng::prelude::*;

    /// Misprediction ratio over a sequence of `(pc, taken)` branches.
    fn miss_ratio(bp: &mut Gshare, branches: impl IntoIterator<Item = (u64, bool)>) -> f64 {
        let (mut total, mut missed) = (0usize, 0usize);
        for (pc, taken) in branches {
            total += 1;
            missed += usize::from(bp.execute(pc, taken).is_miss());
        }
        missed as f64 / total as f64
    }

    #[test]
    fn learns_static_branch() {
        let mut bp = Gshare::new(8);
        for _ in 0..10 {
            bp.execute(0x1000, true);
        }
        assert_eq!(miss_ratio(&mut bp, (0..100).map(|_| (0x1000, true))), 0.0);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = Gshare::new(12);
        // T,N,T,N ... the history register disambiguates the two states
        for i in 0..64 {
            bp.execute(0x2000, i % 2 == 0);
        }
        let r = miss_ratio(&mut bp, (0..200).map(|i| (0x2000, i % 2 == 0)));
        assert!(r < 0.05, "alternating pattern should be learned, miss ratio {r}");
    }

    #[test]
    fn random_branches_mispredict_about_half() {
        let mut bp = Gshare::new(12);
        let mut rng = StdRng::seed_from_u64(1);
        let branches: Vec<(u64, bool)> = (0..20_000)
            .map(|_| (rng.random_range(0..1u64 << 20) << 2, rng.random_bool(0.5)))
            .collect();
        let r = miss_ratio(&mut bp, branches);
        assert!((0.4..0.6).contains(&r), "random miss ratio {r}");
    }

    #[test]
    fn biased_branches_mispredict_less() {
        let mut bp = Gshare::new(12);
        let mut rng = StdRng::seed_from_u64(2);
        let branches: Vec<(u64, bool)> = (0..20_000)
            .map(|_| (0x3000 + rng.random_range(0..16u64) * 4, rng.random_bool(0.95)))
            .collect();
        let r = miss_ratio(&mut bp, branches);
        assert!(r < 0.15, "biased miss ratio {r}");
    }

    #[test]
    fn flush_forgets() {
        let mut bp = Gshare::new(8);
        for _ in 0..50 {
            bp.execute(0x1000, true);
        }
        bp.flush();
        // back to weakly not-taken
        assert_eq!(bp.execute(0x1000, true), Prediction::Mispredicted);
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn rejects_bad_size() {
        let _ = Gshare::new(0);
    }
}
