//! # hierdrl-neural
//!
//! A minimal, dependency-light neural-network substrate used by the
//! hierarchical DRL cloud-management framework. It provides exactly the
//! building blocks the paper's networks need:
//!
//! - dense row-major [`matrix::Matrix`] math,
//! - fully-connected layers with ELU/tanh/sigmoid activations
//!   ([`dense::Dense`], [`dense::Mlp`]),
//! - an [`lstm::LstmNetwork`] with truncated BPTT for the workload
//!   predictor,
//! - an [`autoencoder::Autoencoder`] for state-space compression,
//! - the [`optim::Adam`] optimizer with global-norm gradient clipping.
//!
//! Weight sharing — central to the paper's DNN design — is supported
//! natively: every layer keeps a *stack* of forward caches, so the same
//! parameter set can be applied several times per step and gradients from
//! all applications accumulate.
//!
//! # Examples
//!
//! ```
//! use hierdrl_neural::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut net = Mlp::new(&[4, 16, 2], Activation::ELU, Activation::Linear,
//!                        Init::XavierUniform, &mut rng);
//! let mut adam = Adam::new(1e-3);
//!
//! let x = Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]);
//! let target = Matrix::row_vector(&[1.0, -1.0]);
//!
//! net.zero_grad();
//! let pred = net.forward(&x);
//! let grad = Loss::Mse.gradient(&pred, &target);
//! net.backward(&grad);
//! clip_grad_norm(&mut net, 10.0);
//! adam.step(&mut net);
//! ```

pub mod activation;
pub mod autoencoder;
pub mod dense;
pub mod fastmath;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod optim;
mod simd;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::autoencoder::Autoencoder;
    pub use crate::dense::{Dense, Mlp};
    pub use crate::init::Init;
    pub use crate::loss::Loss;
    pub use crate::lstm::{LstmCell, LstmNetwork, LstmState};
    pub use crate::matrix::Matrix;
    pub use crate::optim::{clip_grad_norm, global_grad_norm, Adam, Optimizer, Trainable};
}
