//! A feed-forward stack of layers with a mini-batch training loop.

use hmd_util::rng::prelude::*;

use crate::layer::Layer;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::{NnError, Tensor};

/// A feed-forward network: layers applied in sequence.
///
/// # Example — learning XOR
///
/// ```
/// use hmd_nn::{Dense, Loss, Optimizer, Sequential, Tanh, Tensor};
/// use hmd_util::rng::prelude::*;
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let mut net = Sequential::new()
///     .with(Dense::xavier(2, 8, &mut rng))
///     .with(Tanh::new())
///     .with(Dense::xavier(8, 1, &mut rng));
/// let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
/// let y = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
/// let mut opt = Optimizer::adam(0.05);
/// for _ in 0..400 {
///     net.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt);
/// }
/// let probs = net.forward(&x).map(hmd_nn::sigmoid);
/// assert!(probs.get(0, 0) < 0.5 && probs.get(1, 0) > 0.5);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// The layer chain, in application order.
    #[must_use]
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Whether the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the full forward pass (caching per-layer state for a
    /// subsequent [`Self::backward`]).
    ///
    /// # Panics
    ///
    /// Panics on inter-layer shape mismatches.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Runs the forward pass without caching backward state — the
    /// inference path, usable through `&self`.
    ///
    /// # Panics
    ///
    /// Panics on inter-layer shape mismatches.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Back-propagates `grad_output` through every layer, accumulating
    /// parameter gradients, and returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// One optimizer update: forward, loss, backward, step. Returns the
    /// batch loss.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between output and `targets`.
    pub fn train_batch(
        &mut self,
        inputs: &Tensor,
        targets: &Tensor,
        loss: Loss,
        optimizer: &mut Optimizer,
    ) -> f64 {
        let out = self.forward(inputs);
        let (l, grad) = loss.compute(&out, targets);
        self.backward(&grad);
        let mut blocks: Vec<_> =
            self.layers.iter_mut().flat_map(|l| l.param_blocks_mut()).collect();
        optimizer.step(&mut blocks);
        l
    }

    /// One epoch of shuffled mini-batch training; returns the mean batch
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `inputs`/`targets` row counts differ.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        targets: &Tensor,
        loss: Loss,
        optimizer: &mut Optimizer,
        batch_size: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(inputs.rows(), targets.rows(), "input/target row mismatch");
        let n = inputs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let bx = Tensor::from_fn(chunk.len(), inputs.cols(), |r, c| {
                inputs.get(chunk[r], c)
            });
            let by = Tensor::from_fn(chunk.len(), targets.cols(), |r, c| {
                targets.get(chunk[r], c)
            });
            total += self.train_batch(&bx, &by, loss, optimizer);
            batches += 1;
        }
        total / batches as f64
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Estimated model size in bytes (8 bytes per `f64` parameter).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    /// All parameters flattened, layer by layer, block by block.
    #[must_use]
    pub fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for block in layer.param_blocks() {
                out.extend_from_slice(block.values.as_slice());
            }
        }
        out
    }

    /// Loads parameters previously produced by [`Self::params_flat`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] unless `params` has exactly
    /// `param_count()` values.
    pub fn load_params_flat(&mut self, params: &[f64]) -> Result<(), NnError> {
        let expected = self.param_count();
        if params.len() != expected {
            return Err(NnError::ParamLengthMismatch { expected, actual: params.len() });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            for block in layer.param_blocks_mut() {
                let n = block.len();
                block.values.as_mut_slice().copy_from_slice(&params[offset..offset + n]);
                offset += n;
            }
        }
        Ok(())
    }

    /// Parameters serialized as little-endian bytes, e.g. for SHA-256
    /// integrity hashing.
    #[must_use]
    pub fn params_bytes(&self) -> Vec<u8> {
        let params = self.params_flat();
        let mut out = Vec::with_capacity(params.len() * 8);
        for p in params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Mutable access to every trainable parameter block, in layer
    /// order — for callers implementing custom update rules (e.g. policy
    /// gradients) on top of [`Self::backward`].
    pub fn param_blocks_mut(&mut self) -> Vec<&mut crate::ParamBlock> {
        self.layers.iter_mut().flat_map(|l| l.param_blocks_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu, Tanh};

    fn xor_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .with(Dense::xavier(2, 8, &mut rng))
            .with(Tanh::new())
            .with(Dense::xavier(8, 1, &mut rng))
    }

    fn xor_data() -> (Tensor, Tensor) {
        (
            Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]),
            Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]),
        )
    }

    #[test]
    fn learns_xor_with_bce() {
        let mut net = xor_net(42);
        let (x, y) = xor_data();
        let mut opt = Optimizer::adam(0.05);
        let mut last = f64::INFINITY;
        for _ in 0..500 {
            last = net.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt);
        }
        assert!(last < 0.1, "final loss {last}");
        let probs = net.forward(&x).map(crate::sigmoid);
        assert!(probs.get(0, 0) < 0.5);
        assert!(probs.get(1, 0) > 0.5);
        assert!(probs.get(2, 0) > 0.5);
        assert!(probs.get(3, 0) < 0.5);
    }

    #[test]
    fn train_epoch_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Sequential::new()
            .with(Dense::he(3, 16, &mut rng))
            .with(Relu::new())
            .with(Dense::xavier(16, 1, &mut rng));
        // y = x0 + 2 x1 - x2
        let x = Tensor::from_fn(64, 3, |_, _| rng.random_range(-1.0..1.0));
        let y = Tensor::from_fn(64, 1, |r, _| {
            x.get(r, 0) + 2.0 * x.get(r, 1) - x.get(r, 2)
        });
        let mut opt = Optimizer::adam(0.01);
        let first = net.train_epoch(&x, &y, Loss::Mse, &mut opt, 16, &mut rng);
        let mut last = first;
        for _ in 0..60 {
            last = net.train_epoch(&x, &y, Loss::Mse, &mut opt, 16, &mut rng);
        }
        assert!(last < first * 0.2, "first {first}, last {last}");
    }

    #[test]
    fn params_roundtrip() {
        let net = xor_net(3);
        let params = net.params_flat();
        assert_eq!(params.len(), net.param_count());
        let mut other = xor_net(4);
        assert_ne!(other.params_flat(), params);
        other.load_params_flat(&params).unwrap();
        assert_eq!(other.params_flat(), params);
    }

    #[test]
    fn load_params_validates_length() {
        let mut net = xor_net(5);
        let err = net.load_params_flat(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err, NnError::ParamLengthMismatch { expected: net.param_count(), actual: 2 });
    }

    #[test]
    fn params_bytes_length() {
        let net = xor_net(6);
        assert_eq!(net.params_bytes().len(), net.param_count() * 8);
        assert_eq!(net.size_bytes(), net.param_count() * 8);
    }

    #[test]
    fn identical_seeds_identical_nets() {
        let a = xor_net(11);
        let b = xor_net(11);
        assert_eq!(a.params_flat(), b.params_flat());
    }

    #[test]
    fn infer_matches_forward() {
        let mut net = xor_net(12);
        let (x, _) = xor_data();
        let by_infer = net.infer(&x);
        let by_forward = net.forward(&x);
        assert_eq!(by_infer, by_forward);
    }
}
