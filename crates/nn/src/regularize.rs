//! Regularization utilities: gradient clipping.

use crate::layer::ParamBlock;

/// Scales all accumulated gradients so their global L2 norm does not
/// exceed `max_norm`; returns the pre-clip norm.
///
/// # Panics
///
/// Panics for a non-positive `max_norm`.
pub fn clip_grad_norm(blocks: &mut [&mut ParamBlock], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "max norm must be positive");
    let total: f64 = blocks
        .iter()
        .map(|b| b.grads.as_slice().iter().map(|g| g * g).sum::<f64>())
        .sum();
    let norm = total.sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for block in blocks.iter_mut() {
            for g in block.grads.as_mut_slice() {
                *g *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn clipping_bounds_global_norm() {
        let mut a = ParamBlock::new(Tensor::full(1, 2, 0.0));
        a.grads = Tensor::from_rows(&[&[3.0, 4.0]]); // norm 5
        let pre = clip_grad_norm(&mut [&mut a], 1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        let post: f64 = a.grads.as_slice().iter().map(|g| g * g).sum::<f64>().sqrt();
        assert!((post - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let mut a = ParamBlock::new(Tensor::full(1, 2, 0.0));
        a.grads = Tensor::from_rows(&[&[0.3, 0.4]]); // norm 0.5
        let before = a.grads.clone();
        clip_grad_norm(&mut [&mut a], 1.0);
        assert_eq!(a.grads, before);
    }
}
