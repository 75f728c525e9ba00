//! Minimal neural-network substrate for the HMD reproduction.
//!
//! The Rust deep-learning ecosystem is immature, so this crate implements
//! — from scratch — exactly what the paper's models need:
//!
//! * [`Tensor`] — a dense row-major 2-D matrix;
//! * [`Dense`], [`Conv1d`], [`Relu`], [`Tanh`], [`Sigmoid`], [`Softmax`] —
//!   layers with hand-derived, finite-difference-verified backprop;
//! * [`Loss`] — MSE, fused softmax cross-entropy, fused binary
//!   cross-entropy;
//! * [`Optimizer`] — SGD (+momentum) and Adam;
//! * [`Sequential`] — a feed-forward container with a mini-batch training
//!   loop, parameter flattening and byte serialization (for SHA-256
//!   integrity hashing).
//!
//! It powers the paper's MLP detector, the 2-conv + 3-FC neural network,
//! and both networks of the A2C adversarial predictor.
//!
//! # Example
//!
//! ```
//! use hmd_nn::{Dense, Loss, Optimizer, Relu, Sequential, Tensor};
//! use hmd_util::rng::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .with(Dense::he(4, 16, &mut rng))
//!     .with(Relu::new())
//!     .with(Dense::xavier(16, 1, &mut rng));
//! let x = Tensor::zeros(2, 4);
//! let logits = net.forward(&x);
//! assert_eq!(logits.shape(), (2, 1));
//! ```

pub mod init;
pub mod layer;
pub mod loss;
pub mod optimizer;
pub mod regularize;
pub mod scratch;
pub mod sequential;
pub mod tensor;

mod error;

pub use error::NnError;
pub use layer::{
    sigmoid, softmax_rows, Conv1d, Dense, Layer, ParamBlock, Relu, Sigmoid, Softmax, Tanh,
};
pub use loss::Loss;
pub use optimizer::Optimizer;
pub use regularize::clip_grad_norm;
pub use scratch::InferScratch;
pub use sequential::Sequential;
pub use tensor::{matmul_slices, Tensor};
