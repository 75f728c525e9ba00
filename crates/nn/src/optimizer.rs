//! Gradient-descent optimizers operating on [`ParamBlock`]s.

use crate::layer::ParamBlock;

/// A first-order optimizer.
///
/// Holds the hyper-parameters plus the global step counter (for Adam bias
/// correction); the per-parameter state lives inside each [`ParamBlock`].
///
/// # Example
///
/// ```
/// use hmd_nn::{Optimizer, ParamBlock, Tensor};
///
/// let mut opt = Optimizer::sgd(0.1);
/// let mut p = ParamBlock::new(Tensor::full(1, 1, 1.0));
/// p.grads = Tensor::full(1, 1, 2.0);
/// opt.step(&mut [&mut p]);
/// assert!((p.values.get(0, 0) - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Optimizer {
    kind: OptimizerKind,
    t: u64,
}

#[derive(Clone, Debug, PartialEq)]
enum OptimizerKind {
    Sgd { lr: f64, momentum: f64 },
    Adam { lr: f64, beta1: f64, beta2: f64, eps: f64, weight_decay: f64 },
}

impl Optimizer {
    /// Plain stochastic gradient descent.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate.
    #[must_use]
    pub fn sgd(lr: f64) -> Self {
        Self::sgd_momentum(lr, 0.0)
    }

    /// SGD with classical momentum.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate or momentum outside [0, 1).
    #[must_use]
    pub fn sgd_momentum(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self { kind: OptimizerKind::Sgd { lr, momentum }, t: 0 }
    }

    /// Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate.
    #[must_use]
    pub fn adam(lr: f64) -> Self {
        Self::adamw(lr, 0.0)
    }

    /// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate or negative decay.
    #[must_use]
    pub fn adamw(lr: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            kind: OptimizerKind::Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay },
            t: 0,
        }
    }

    /// The configured learning rate.
    #[must_use]
    pub fn learning_rate(&self) -> f64 {
        match self.kind {
            OptimizerKind::Sgd { lr, .. } | OptimizerKind::Adam { lr, .. } => lr,
        }
    }

    /// Applies one update to every block from its accumulated gradients,
    /// then zeroes those gradients.
    pub fn step(&mut self, blocks: &mut [&mut ParamBlock]) {
        self.t += 1;
        match self.kind {
            OptimizerKind::Sgd { lr, momentum } => {
                for block in blocks.iter_mut() {
                    let g = block.grads.as_slice().to_vec();
                    let m = block.moment1.as_mut_slice();
                    let vals = block.values.as_mut_slice();
                    for i in 0..vals.len() {
                        m[i] = momentum * m[i] + g[i];
                        vals[i] -= lr * m[i];
                    }
                    block.zero_grad();
                }
            }
            OptimizerKind::Adam { lr, beta1, beta2, eps, weight_decay } => {
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                for block in blocks.iter_mut() {
                    let g = block.grads.as_slice().to_vec();
                    for (i, &gi) in g.iter().enumerate() {
                        let m = &mut block.moment1.as_mut_slice()[i];
                        *m = beta1 * *m + (1.0 - beta1) * gi;
                        let m_hat = *m / bc1;
                        let v = &mut block.moment2.as_mut_slice()[i];
                        *v = beta2 * *v + (1.0 - beta2) * gi * gi;
                        let v_hat = *v / bc2;
                        let value = &mut block.values.as_mut_slice()[i];
                        // decoupled decay: applied to the value, not the gradient
                        *value -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * *value);
                    }
                    block.zero_grad();
                }
            }
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn quadratic_grad(p: &ParamBlock) -> Tensor {
        // L = (x - 3)² → dL/dx = 2(x - 3)
        p.values.map(|x| 2.0 * (x - 3.0))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = ParamBlock::new(Tensor::full(1, 1, 0.0));
        let mut opt = Optimizer::sgd(0.1);
        for _ in 0..200 {
            p.grads = quadratic_grad(&p);
            opt.step(&mut [&mut p]);
        }
        assert!((p.values.get(0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = ParamBlock::new(Tensor::full(1, 1, -5.0));
        let mut opt = Optimizer::adam(0.2);
        for _ in 0..500 {
            p.grads = quadratic_grad(&p);
            opt.step(&mut [&mut p]);
        }
        assert!((p.values.get(0, 0) - 3.0).abs() < 1e-3);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn momentum_accelerates_along_consistent_gradient() {
        let mut plain = ParamBlock::new(Tensor::full(1, 1, 0.0));
        let mut with_m = ParamBlock::new(Tensor::full(1, 1, 0.0));
        let mut o1 = Optimizer::sgd(0.01);
        let mut o2 = Optimizer::sgd_momentum(0.01, 0.9);
        for _ in 0..10 {
            plain.grads = Tensor::full(1, 1, 1.0);
            with_m.grads = Tensor::full(1, 1, 1.0);
            o1.step(&mut [&mut plain]);
            o2.step(&mut [&mut with_m]);
        }
        assert!(with_m.values.get(0, 0) < plain.values.get(0, 0));
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = ParamBlock::new(Tensor::full(2, 2, 1.0));
        p.grads = Tensor::full(2, 2, 1.0);
        Optimizer::adam(0.01).step(&mut [&mut p]);
        assert!(p.grads.as_slice().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn learning_rate_accessors() {
        let opt = Optimizer::adam(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Optimizer::sgd(0.0);
    }

    #[test]
    fn adamw_decay_shrinks_unused_weights() {
        // with zero gradient, AdamW still decays the parameter toward 0
        let mut p = ParamBlock::new(Tensor::full(1, 1, 1.0));
        let mut opt = Optimizer::adamw(0.1, 0.1);
        for _ in 0..50 {
            p.grads = Tensor::full(1, 1, 0.0);
            opt.step(&mut [&mut p]);
        }
        let v = p.values.get(0, 0);
        assert!(v < 0.7, "decayed value {v}");
        // plain Adam leaves the weight untouched at zero gradient
        let mut q = ParamBlock::new(Tensor::full(1, 1, 1.0));
        let mut plain = Optimizer::adam(0.1);
        for _ in 0..50 {
            q.grads = Tensor::full(1, 1, 0.0);
            plain.step(&mut [&mut q]);
        }
        assert_eq!(q.values.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "weight decay")]
    fn rejects_negative_decay() {
        let _ = Optimizer::adamw(0.1, -0.1);
    }
}
