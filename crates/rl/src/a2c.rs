//! Advantage Actor-Critic (A2C) with MLP actor and critic networks
//! (paper §2.5.2: both 4-hidden-layer MLPs, actor lr 5e-4, critic lr
//! 1e-3, γ = 0.99, softmax policy, MSE critic loss).

use hmd_nn::{softmax_rows, Dense, InferScratch, Loss, Optimizer, Relu, Sequential, Tensor};
use hmd_util::rng::prelude::*;

use crate::env::Environment;

/// Hyper-parameters for [`A2cAgent`].
#[derive(Clone, Debug, PartialEq)]
pub struct A2cConfig {
    /// Hidden widths of both networks (paper: four hidden layers).
    pub hidden: Vec<usize>,
    /// Actor (policy) learning rate.
    pub actor_lr: f64,
    /// Critic (value) learning rate.
    pub critic_lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Entropy bonus coefficient (exploration regularizer).
    pub entropy_coef: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for A2cConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64, 64, 64],
            actor_lr: 5e-4,
            critic_lr: 3e-3,
            gamma: 0.99,
            entropy_coef: 0.002,
            seed: 97,
        }
    }
}

/// An A2C agent: a softmax policy network and a state-value network.
///
/// # Example
///
/// ```no_run
/// use hmd_rl::{A2cAgent, A2cConfig};
///
/// let agent = A2cAgent::new(4, 2, A2cConfig::default());
/// assert_eq!(agent.n_actions(), 2);
/// ```
#[derive(Debug)]
pub struct A2cAgent {
    actor: Sequential,
    critic: Sequential,
    actor_opt: Optimizer,
    critic_opt: Optimizer,
    config: A2cConfig,
    state_dim: usize,
    n_actions: usize,
}

impl A2cAgent {
    /// Builds an agent for the given observation width and action count.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim`, `n_actions` or any hidden width is zero.
    #[must_use]
    pub fn new(state_dim: usize, n_actions: usize, config: A2cConfig) -> Self {
        assert!(state_dim > 0 && n_actions > 0, "dimensions must be positive");
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let build = |out_dim: usize, rng: &mut StdRng| {
            let mut net = Sequential::new();
            let mut width = state_dim;
            for &h in &config.hidden {
                net.push(Box::new(Dense::he(width, h, rng)));
                net.push(Box::new(Relu::new()));
                width = h;
            }
            net.push(Box::new(Dense::xavier(width, out_dim, rng)));
            net
        };
        let actor = build(n_actions, &mut rng);
        let critic = build(1, &mut rng);
        Self {
            actor_opt: Optimizer::adam(config.actor_lr),
            critic_opt: Optimizer::adam(config.critic_lr),
            actor,
            critic,
            config,
            state_dim,
            n_actions,
        }
    }

    /// Number of actions.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Observation width.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action probabilities for one state (softmax over actor logits).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width.
    #[must_use]
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.state_dim, "state width mismatch");
        let logits = self.actor.infer(&Tensor::row_vector(state));
        softmax_rows(&logits).row(0).to_vec()
    }

    /// Samples an action from the current policy.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width.
    pub fn act<R: Rng + ?Sized>(&self, state: &[f64], rng: &mut R) -> usize {
        let probs = self.policy(state);
        let mut draw: f64 = rng.random();
        for (a, p) in probs.iter().enumerate() {
            draw -= p;
            if draw <= 0.0 {
                return a;
            }
        }
        probs.len() - 1
    }

    /// Greedy action (argmax of the policy).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width.
    #[must_use]
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        let probs = self.policy(state);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty policy")
    }

    /// The critic's state-value estimate `V(s)` — the "feedback reward"
    /// the adversarial predictor thresholds at inference time.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width.
    #[must_use]
    pub fn value(&self, state: &[f64]) -> f64 {
        assert_eq!(state.len(), self.state_dim, "state width mismatch");
        self.critic.infer(&Tensor::row_vector(state)).get(0, 0)
    }

    /// Activation scratch sized for the critic at batches of up to
    /// `max_rows` rows — warmup-time companion to
    /// [`value_with`](Self::value_with) and
    /// [`values_into`](Self::values_into).
    #[must_use]
    pub fn infer_scratch(&self, max_rows: usize) -> InferScratch {
        InferScratch::for_net(&self.critic, self.state_dim, max_rows.max(1))
    }

    /// [`value`](Self::value) through caller-owned scratch: bit-identical
    /// result, zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width or `scratch` is too small.
    #[must_use]
    pub fn value_with(&self, state: &[f64], scratch: &mut InferScratch) -> f64 {
        assert_eq!(state.len(), self.state_dim, "state width mismatch");
        self.critic.infer_into(state, 1, self.state_dim, scratch)[0]
    }

    /// Critic values for a flat row-major batch of states, written into
    /// `out` (cleared first), in one forward pass through caller-owned
    /// scratch: every Dense layer becomes a single blocked matmul over
    /// the whole batch. The blocked kernel's per-element accumulation
    /// order is row-count-invariant, so each value is bit-identical to
    /// [`value`](Self::value) on that row. Zero heap allocations when
    /// `out` has capacity for one value per state.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` is not a multiple of the state width or
    /// `scratch` is too small for the batch.
    pub fn values_into(&self, states: &[f64], scratch: &mut InferScratch, out: &mut Vec<f64>) {
        assert!(
            states.len().is_multiple_of(self.state_dim),
            "state batch width mismatch: {} not a multiple of {}",
            states.len(),
            self.state_dim
        );
        out.clear();
        if states.is_empty() {
            return;
        }
        let n = states.len() / self.state_dim;
        let vals = self.critic.infer_into(states, n, self.state_dim, scratch);
        out.extend_from_slice(vals);
    }

    /// One actor-critic update from a single transition.
    ///
    /// Advantage `A = r + γ(1−done)V(s′) − V(s)`; the critic regresses
    /// toward the TD target, the actor ascends `A·log π(a|s)` plus an
    /// entropy bonus.
    pub fn update(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        next_state: &[f64],
        done: bool,
    ) {
        let v_s = self.value(state);
        let v_next = if done { 0.0 } else { self.value(next_state) };
        let target = reward + self.config.gamma * v_next;
        let advantage = target - v_s;

        if hmd_telemetry::enabled() {
            // the critic's squared TD error — its per-update MSE loss
            hmd_telemetry::metrics::gauge("rl.a2c.critic_loss").set(advantage * advantage);
            hmd_telemetry::metrics::counter("rl.a2c.updates").inc();
        }

        // critic: MSE toward the TD target
        let x = Tensor::row_vector(state);
        let y = Tensor::from_rows(&[&[target]]);
        self.critic.train_batch(&x, &y, Loss::Mse, &mut self.critic_opt);

        // actor: policy gradient through the softmax logits.
        // dL/dz = (π − onehot(a))·A  − entropy-bonus gradient
        let logits = self.actor.forward(&x);
        let probs = softmax_rows(&logits);
        let mut grad = Tensor::zeros(1, self.n_actions);
        for j in 0..self.n_actions {
            let p = probs.get(0, j);
            let indicator = f64::from(j == action);
            let pg = (p - indicator) * advantage;
            // entropy H = −Σ p ln p; dH/dz_j = −p_j (ln p_j + 1 − Σ p ln p ... )
            // use the simple form: d(−H)/dz_j = p_j (ln p_j − Σ_k p_k ln p_k)
            let ln_p = p.max(1e-12).ln();
            let mean_ln: f64 = (0..self.n_actions)
                .map(|k| {
                    let pk = probs.get(0, k);
                    pk * pk.max(1e-12).ln()
                })
                .sum();
            let ent_grad = p * (ln_p - mean_ln);
            grad.set(0, j, pg + self.config.entropy_coef * ent_grad);
        }
        self.actor.backward(&grad);
        let mut blocks = self.actor.param_blocks_mut();
        self.actor_opt.step(&mut blocks);
    }

    /// Runs one episode in `env` with sampled actions and per-step
    /// updates, returning the episode's total reward.
    pub fn train_episode<E: Environment, R: Rng + ?Sized>(
        &mut self,
        env: &mut E,
        rng: &mut R,
        max_steps: usize,
    ) -> f64 {
        let mut state = env.reset();
        let mut total = 0.0;
        for _ in 0..max_steps {
            let action = self.act(&state, rng);
            let step = env.step(action);
            total += step.reward;
            self.update(&state, action, step.reward, &step.state, step.done);
            state = step.state;
            if step.done {
                break;
            }
        }
        total
    }

    /// Total parameter count over both networks.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.actor.param_count() + self.critic.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::Corridor;

    fn small_config(seed: u64) -> A2cConfig {
        A2cConfig {
            hidden: vec![16, 16],
            actor_lr: 5e-3,
            critic_lr: 1e-2,
            entropy_coef: 0.01,
            seed,
            ..A2cConfig::default()
        }
    }

    #[test]
    fn policy_is_a_distribution() {
        let agent = A2cAgent::new(3, 4, A2cConfig::default());
        let p = agent.policy(&[0.1, -0.2, 0.3]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn learns_corridor_policy() {
        let mut env = Corridor::default();
        let mut agent = A2cAgent::new(1, 2, small_config(1));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..400 {
            agent.train_episode(&mut env, &mut rng, 10);
        }
        // greedy policy should walk right from the start state
        assert_eq!(agent.act_greedy(&[0.0]), 1);
        // and the critic should value the start state near the return 1·γ³
        let v = agent.value(&[0.0]);
        assert!(v > 0.5, "V(start) = {v}");
    }

    #[test]
    fn critic_tracks_reward_magnitude() {
        // single-state env with constant reward 100 for action 0
        struct Bandit;
        impl Environment for Bandit {
            fn state_dim(&self) -> usize {
                1
            }
            fn n_actions(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![1.0]
            }
            fn step(&mut self, action: usize) -> crate::env::Step {
                crate::env::Step {
                    state: vec![1.0],
                    reward: if action == 0 { 100.0 } else { 0.0 },
                    done: true,
                }
            }
        }
        let mut agent = A2cAgent::new(1, 2, small_config(3));
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = Bandit;
        for _ in 0..600 {
            agent.train_episode(&mut env, &mut rng, 1);
        }
        assert!(agent.value(&[1.0]) > 50.0, "V = {}", agent.value(&[1.0]));
        assert_eq!(agent.act_greedy(&[1.0]), 0);
    }

    #[test]
    fn act_is_seed_deterministic() {
        let agent = A2cAgent::new(2, 3, A2cConfig::default());
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| agent.act(&[0.5, -0.5], &mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| agent.act(&[0.5, -0.5], &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn rejects_wrong_state_width() {
        let agent = A2cAgent::new(3, 2, A2cConfig::default());
        let _ = agent.policy(&[1.0]);
    }
}
