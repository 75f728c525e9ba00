//! The DRL-based adversarial attack predictor (paper §2.5).
//!
//! Training uses *unlabeled* data: the limited adversarial set is labeled
//! (reward 100 when the agent flags it), while legitimate malware and
//! benign samples carry a "None" label (reward 0 regardless of action).
//! Each incoming data point is an independent one-step episode. After
//! training, the *critic's* value estimate plays the role of the
//! "feedback reward": positive expected reward ⇒ adversarial, near zero ⇒
//! non-adversarial — exactly how the paper's predictor decides at
//! inference time (its detection relies "on feedback through the reward
//! value rather than predictions from the DRL agent").

use hmd_tabular::{Class, Dataset};
use hmd_util::rng::prelude::*;

use crate::a2c::{A2cAgent, A2cConfig};
use crate::env::{Environment, Step};
use crate::RlError;

/// Action indices of the predictor's two actions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PredictorAction {
    /// Flag the sample as an adversarial attack.
    Adversarial = 0,
    /// "nan" — the sample is not adversarial (legitimate malware or
    /// benign).
    Nan = 1,
}

/// Reward granted for flagging a labeled adversarial sample.
pub const ADVERSARIAL_REWARD: f64 = 100.0;

/// The training environment: presents one (shuffled) sample per episode;
/// flagging a labeled adversarial sample earns [`ADVERSARIAL_REWARD`],
/// everything else earns zero.
#[derive(Debug)]
pub struct PredictorEnv {
    features: Vec<Vec<f64>>,
    is_adversarial: Vec<bool>,
    order: Vec<usize>,
    cursor: usize,
    rng: StdRng,
}

impl PredictorEnv {
    /// Builds the environment from a merged dataset whose
    /// [`Class::Adversarial`] rows are the labeled set and the rest are
    /// treated as unlabeled.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDataset`] for an empty dataset.
    pub fn new(data: &Dataset, seed: u64) -> Result<Self, RlError> {
        if data.is_empty() {
            return Err(RlError::EmptyDataset);
        }
        let features: Vec<Vec<f64>> = (0..data.len())
            .map(|i| data.row(i).expect("in range").to_vec())
            .collect();
        let is_adversarial: Vec<bool> =
            data.labels().iter().map(|&l| l == Class::Adversarial).collect();
        let order: Vec<usize> = (0..data.len()).collect();
        Ok(Self {
            features,
            is_adversarial,
            order,
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    fn current(&self) -> usize {
        self.order[self.cursor % self.order.len()]
    }
}

impl Environment for PredictorEnv {
    fn state_dim(&self) -> usize {
        self.features[0].len()
    }

    fn n_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f64> {
        if self.cursor.is_multiple_of(self.order.len()) {
            self.order.shuffle(&mut self.rng);
        }
        self.features[self.current()].clone()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(action < 2, "predictor has two actions");
        let idx = self.current();
        let reward = if self.is_adversarial[idx]
            && action == PredictorAction::Adversarial as usize
        {
            ADVERSARIAL_REWARD
        } else {
            0.0
        };
        self.cursor += 1;
        Step { state: self.features[idx].clone(), reward, done: true }
    }
}

/// Configuration of [`AdversarialPredictor`] training.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictorConfig {
    /// A2C hyper-parameters.
    pub a2c: A2cConfig,
    /// Training episodes (one sample each).
    pub episodes: usize,
    /// Decision threshold on the feedback reward (V(s)). `None`
    /// auto-calibrates after training: the threshold that best separates
    /// the labeled adversarial rewards from the unlabeled ones on the
    /// training set. The paper flags inputs whose feedback reward is
    /// positive; auto-calibration generalizes that to noisy critics.
    pub reward_threshold: Option<f64>,
    /// Environment shuffling seed.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            a2c: A2cConfig::default(),
            episodes: 30_000,
            reward_threshold: None,
            seed: 2024,
        }
    }
}

/// The trained adversarial predictor: the framework's first line of
/// defense.
///
/// # Example
///
/// ```no_run
/// use hmd_rl::{AdversarialPredictor, PredictorConfig};
/// use hmd_tabular::Dataset;
///
/// # fn main() -> Result<(), hmd_rl::RlError> {
/// # let merged: Dataset = unimplemented!();
/// let predictor = AdversarialPredictor::train(&merged, PredictorConfig::default())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdversarialPredictor {
    agent: A2cAgent,
    threshold: f64,
}

impl AdversarialPredictor {
    /// Trains the predictor on a merged dataset where adversarial rows
    /// carry [`Class::Adversarial`] and all others are unlabeled.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDataset`] / [`RlError::MissingClass`] when
    /// the dataset is empty or holds no adversarial rows.
    pub fn train(data: &Dataset, config: PredictorConfig) -> Result<Self, RlError> {
        if data.is_empty() {
            return Err(RlError::EmptyDataset);
        }
        if !data.labels().contains(&Class::Adversarial) {
            return Err(RlError::MissingClass("no labeled adversarial samples"));
        }
        let _span = hmd_telemetry::span("rl.predictor.train");
        let mut env = PredictorEnv::new(data, config.seed)?;
        let mut agent = A2cAgent::new(env.state_dim(), env.n_actions(), config.a2c);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA2C);
        let traced = hmd_telemetry::enabled();
        let mut reward_ma = 0.0;
        for episode in 0..config.episodes {
            let reward = agent.train_episode(&mut env, &mut rng, 1);
            if traced {
                // exponential moving average of the episode reward — the
                // convergence signal Figure 3(a) plots
                reward_ma = if episode == 0 {
                    reward
                } else {
                    0.99 * reward_ma + 0.01 * reward
                };
            }
        }
        if traced {
            hmd_telemetry::metrics::counter("rl.predictor.episodes")
                .add(config.episodes as u64);
            hmd_telemetry::metrics::gauge("rl.predictor.reward_ma").set(reward_ma);
        }
        let threshold = match config.reward_threshold {
            Some(t) => t,
            None => calibrate_threshold(&agent, data),
        };
        Ok(Self { agent, threshold })
    }

    /// The feedback-reward estimate for one sample (the critic value;
    /// ≈ 100 for adversarial patterns, ≈ 0 otherwise). This is the trace
    /// Figure 3(b) plots over a sample stream.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    #[must_use]
    pub fn feedback_reward(&self, row: &[f64]) -> f64 {
        self.agent.value(row)
    }

    /// Whether the sample is predicted adversarial (feedback reward above
    /// the threshold).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    #[must_use]
    pub fn is_adversarial(&self, row: &[f64]) -> bool {
        let flagged = self.feedback_reward(row) > self.threshold;
        if hmd_telemetry::enabled() {
            hmd_telemetry::metrics::counter("rl.predictor.decisions").inc();
            if flagged {
                hmd_telemetry::metrics::counter("rl.predictor.flags").inc();
            }
        }
        flagged
    }

    /// Activation scratch sized for the critic at batches of up to
    /// `max_rows` rows — warmup-time companion to the `_with`/`_into`
    /// decision paths below.
    #[must_use]
    pub fn infer_scratch(&self, max_rows: usize) -> hmd_nn::InferScratch {
        self.agent.infer_scratch(max_rows)
    }

    /// [`feedback_reward`](Self::feedback_reward) through caller-owned
    /// scratch: bit-identical critic value, zero heap allocations, for
    /// callers that score rows outside the decision paths.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width or `scratch` is too small.
    #[must_use]
    pub fn feedback_reward_with(&self, row: &[f64], scratch: &mut hmd_nn::InferScratch) -> f64 {
        self.agent.value_with(row, scratch)
    }

    /// [`is_adversarial`](Self::is_adversarial) through caller-owned
    /// scratch: identical decision and telemetry, zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width or `scratch` is too small.
    #[must_use]
    pub fn is_adversarial_with(&self, row: &[f64], scratch: &mut hmd_nn::InferScratch) -> bool {
        let flagged = self.agent.value_with(row, scratch) > self.threshold;
        if hmd_telemetry::enabled() {
            hmd_telemetry::metrics::counter("rl.predictor.decisions").inc();
            if flagged {
                hmd_telemetry::metrics::counter("rl.predictor.flags").inc();
            }
        }
        flagged
    }

    /// Batched [`is_adversarial`](Self::is_adversarial): one critic
    /// forward pass over a flat row-major batch, decisions written into
    /// `flags` (cleared first) and the critic values they were made on
    /// into `values`. Decisions and the telemetry decision/flag counters
    /// are identical to calling the scalar path on each row in order;
    /// zero heap allocations when both buffers have capacity for one
    /// entry per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the training width or
    /// `scratch` is too small for the batch.
    pub fn is_adversarial_batch_into(
        &self,
        rows: &[f64],
        scratch: &mut hmd_nn::InferScratch,
        values: &mut Vec<f64>,
        flags: &mut Vec<bool>,
    ) {
        self.agent.values_into(rows, scratch, values);
        flags.clear();
        flags.extend(values.iter().map(|&v| v > self.threshold));
        if hmd_telemetry::enabled() && !flags.is_empty() {
            hmd_telemetry::metrics::counter("rl.predictor.decisions").add(flags.len() as u64);
            let flagged = flags.iter().filter(|&&f| f).count() as u64;
            if flagged > 0 {
                hmd_telemetry::metrics::counter("rl.predictor.flags").add(flagged);
            }
        }
    }

    /// The decision threshold in use.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying A2C agent.
    #[must_use]
    pub fn agent(&self) -> &A2cAgent {
        &self.agent
    }

    /// Splits an uncertain stream into predicted-adversarial and
    /// predicted-clean row indices.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s width differs from the training width.
    #[must_use]
    pub fn partition(&self, data: &Dataset) -> (Vec<usize>, Vec<usize>) {
        let mut adversarial = Vec::new();
        let mut clean = Vec::new();
        for i in 0..data.len() {
            let row = data.row(i).expect("in range");
            if self.is_adversarial(row) {
                adversarial.push(i);
            } else {
                clean.push(i);
            }
        }
        (adversarial, clean)
    }
}

/// Sweeps candidate thresholds over the training-set feedback rewards and
/// returns the one maximizing adversarial/non-adversarial accuracy.
fn calibrate_threshold(agent: &A2cAgent, data: &Dataset) -> f64 {
    let mut scored: Vec<(f64, bool)> = (0..data.len())
        .map(|i| {
            let row = data.row(i).expect("in range");
            (agent.value(row), data.labels()[i] == Class::Adversarial)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_adv = scored.iter().filter(|(_, a)| *a).count();
    let total_clean = scored.len() - total_adv;
    // Scanning left to right: threshold after index i classifies
    // everything above as adversarial.
    let mut clean_below = 0usize;
    let mut adv_below = 0usize;
    let mut best = (f64::MIN, ADVERSARIAL_REWARD / 2.0);
    for i in 0..scored.len().saturating_sub(1) {
        if scored[i].1 {
            adv_below += 1;
        } else {
            clean_below += 1;
        }
        let correct = clean_below + (total_adv - adv_below);
        let acc = correct as f64 / scored.len() as f64;
        if acc > best.0 {
            best = (acc, (scored[i].0 + scored[i + 1].0) / 2.0);
        }
    }
    let _ = total_clean;
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversarial samples concentrate in a thin shell near the decision
    /// boundary (how LowProFool outputs look); benign spreads low,
    /// malware spreads high.
    fn merged(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        for _ in 0..n {
            let benign = [rng.random_range(-2.0..-0.5), rng.random_range(-2.0..-0.5)];
            let malware = [rng.random_range(0.5..2.0), rng.random_range(0.5..2.0)];
            let adv = [rng.random_range(-0.4..0.1), rng.random_range(-0.4..0.1)];
            d.push(&benign, Class::Benign).unwrap();
            d.push(&malware, Class::Malware).unwrap();
            d.push(&adv, Class::Adversarial).unwrap();
        }
        d
    }

    fn quick_config(seed: u64) -> PredictorConfig {
        PredictorConfig {
            a2c: A2cConfig {
                hidden: vec![16, 16],
                actor_lr: 2e-3,
                critic_lr: 5e-3,
                seed,
                ..A2cConfig::default()
            },
            episodes: 4000,
            seed,
            ..PredictorConfig::default()
        }
    }

    #[test]
    fn threshold_is_auto_calibrated() {
        let d = merged(120, 11);
        let predictor = AdversarialPredictor::train(&d, quick_config(12)).unwrap();
        // calibrated threshold sits between the two reward clusters
        assert!(predictor.threshold() > 5.0 && predictor.threshold() < 95.0,
            "threshold {}", predictor.threshold());
    }

    #[test]
    fn explicit_threshold_is_respected() {
        let d = merged(60, 13);
        let cfg = PredictorConfig { reward_threshold: Some(42.0), ..quick_config(14) };
        let predictor = AdversarialPredictor::train(&d, cfg).unwrap();
        assert_eq!(predictor.threshold(), 42.0);
    }

    #[test]
    fn env_rewards_only_flagged_adversarial() {
        let d = merged(10, 1);
        let mut env = PredictorEnv::new(&d, 2).unwrap();
        let mut saw_reward = false;
        for _ in 0..30 {
            let _s = env.reset();
            let idx = env.current();
            let truth = env.is_adversarial[idx];
            let step = env.step(PredictorAction::Adversarial as usize);
            assert!(step.done);
            if truth {
                assert_eq!(step.reward, ADVERSARIAL_REWARD);
                saw_reward = true;
            } else {
                assert_eq!(step.reward, 0.0);
            }
        }
        assert!(saw_reward);
    }

    #[test]
    fn env_nan_action_never_rewards() {
        let d = merged(10, 3);
        let mut env = PredictorEnv::new(&d, 4).unwrap();
        for _ in 0..30 {
            let _ = env.reset();
            let step = env.step(PredictorAction::Nan as usize);
            assert_eq!(step.reward, 0.0);
        }
    }

    #[test]
    fn predictor_separates_adversarial_rewards() {
        let d = merged(120, 5);
        let predictor = AdversarialPredictor::train(&d, quick_config(6)).unwrap();
        let mut adv_rewards = Vec::new();
        let mut clean_rewards = Vec::new();
        for (row, label) in &d {
            let r = predictor.feedback_reward(row);
            if label == Class::Adversarial {
                adv_rewards.push(r);
            } else {
                clean_rewards.push(r);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&adv_rewards) > 60.0,
            "adversarial mean reward {}",
            mean(&adv_rewards)
        );
        assert!(
            mean(&clean_rewards) < 30.0,
            "clean mean reward {}",
            mean(&clean_rewards)
        );
    }

    #[test]
    fn predictor_partitions_stream_accurately() {
        let d = merged(120, 7);
        let predictor = AdversarialPredictor::train(&d, quick_config(8)).unwrap();
        let (flagged, clean) = predictor.partition(&d);
        let mut correct = 0usize;
        for &i in &flagged {
            if d.labels()[i] == Class::Adversarial {
                correct += 1;
            }
        }
        for &i in &clean {
            if d.labels()[i] != Class::Adversarial {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.95, "predictor accuracy {acc}");
    }

    #[test]
    fn training_requires_adversarial_rows() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        d.push(&[0.0], Class::Benign).unwrap();
        d.push(&[1.0], Class::Malware).unwrap();
        assert!(matches!(
            AdversarialPredictor::train(&d, quick_config(9)),
            Err(RlError::MissingClass(_))
        ));
    }

    #[test]
    fn training_requires_rows() {
        let d = Dataset::new(vec!["x".into()]).unwrap();
        assert!(matches!(
            AdversarialPredictor::train(&d, quick_config(10)),
            Err(RlError::EmptyDataset)
        ));
    }
}
