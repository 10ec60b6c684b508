//! Optimizers and gradient utilities.
//!
//! Parameters are exposed through the [`Trainable`] trait: a network visits
//! its `(parameter, gradient)` matrix pairs in a deterministic order, and
//! the stateful Adam optimizer keeps per-parameter state indexed by that
//! order.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A model whose parameters can be visited for optimization.
///
/// Implementations must visit parameters in the same order on every call;
/// stateful optimizers rely on this to associate state with parameters.
pub trait Trainable {
    /// Visits every `(parameter, gradient)` pair.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Resets all gradients to zero.
    fn zero_grad(&mut self);

    /// Total number of learnable scalars (derived from a visit).
    fn parameter_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

/// A gradient-descent style optimizer.
pub trait Optimizer {
    /// Applies one update step using the gradients currently stored in `net`.
    /// Does not zero the gradients; callers decide when to do that.
    fn step(&mut self, net: &mut dyn Trainable);
}

/// Adam optimizer (Kingma & Ba, 2014), the paper's choice for both the DNN
/// and the LSTM predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (default `0.9`).
    pub beta1: f32,
    /// Second-moment decay (default `0.999`).
    pub beta2: f32,
    /// Numerical stability constant (default `1e-8`).
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with standard hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Allocates the zeroed moments of every parameter of `net` now
    /// instead of at the first [`Optimizer::step`], so that a caller can
    /// size them on one thread and step on another. Shape-only: the
    /// moments start at zero either way.
    pub fn reserve(&mut self, net: &mut dyn Trainable) {
        let (m, v) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_params(&mut |p, _| {
            push_moments(m, v, idx, p);
            idx += 1;
        });
    }
}

/// Gives parameter `idx` (`p`) its zeroed moments if it has none yet.
fn push_moments(m: &mut Vec<Matrix>, v: &mut Vec<Matrix>, idx: usize, p: &Matrix) {
    if m.len() <= idx {
        m.push(Matrix::zeros(p.rows(), p.cols()));
        v.push(Matrix::zeros(p.rows(), p.cols()));
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut dyn Trainable) {
        self.t += 1;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_params(&mut |p, g| {
            push_moments(m, v, idx, p);
            let (mi, vi) = (&mut m[idx], &mut v[idx]);
            assert_eq!(
                mi.shape(),
                p.shape(),
                "parameter order changed mid-training"
            );
            crate::simd::adam_update(
                p.as_mut_slice(),
                g.as_slice(),
                mi.as_mut_slice(),
                vi.as_mut_slice(),
                lr,
                b1,
                b2,
                eps,
                bias1,
                bias2,
            );
            idx += 1;
        });
    }
}

/// Computes the global L2 norm over all gradients in `net`.
pub fn global_grad_norm(net: &mut dyn Trainable) -> f32 {
    let mut acc = 0.0_f32;
    net.visit_params(&mut |_, g| acc += g.norm_sq());
    acc.sqrt()
}

/// Scales gradients so their global L2 norm is at most `max_norm` (the
/// paper clips at norm 10). Returns the pre-clip norm.
///
/// # Panics
///
/// Panics if `max_norm <= 0`.
pub fn clip_grad_norm(net: &mut dyn Trainable, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let norm = global_grad_norm(net);
    if norm > max_norm {
        let scale = max_norm / norm;
        net.visit_params(&mut |_, g| g.scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single scalar parameter with an externally-set gradient, for
    /// exercising optimizers in isolation.
    struct Scalar {
        p: Matrix,
        g: Matrix,
    }

    impl Scalar {
        fn new(p0: f32) -> Self {
            Self {
                p: Matrix::filled(1, 1, p0),
                g: Matrix::zeros(1, 1),
            }
        }
        fn set_grad(&mut self, g: f32) {
            self.g.as_mut_slice()[0] = g;
        }
        fn value(&self) -> f32 {
            self.p.as_slice()[0]
        }
    }

    impl Trainable for Scalar {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            f(&mut self.p, &mut self.g);
        }
        fn zero_grad(&mut self) {
            self.g.fill_zero();
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(p) = (p - 3)^2 from p = 0.
        let mut s = Scalar::new(0.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = 2.0 * (s.value() - 3.0);
            s.set_grad(g);
            opt.step(&mut s);
        }
        assert!((s.value() - 3.0).abs() < 1e-2, "got {}", s.value());
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr * sign(grad).
        let mut s = Scalar::new(0.0);
        s.set_grad(1e-3);
        let mut opt = Adam::new(0.01);
        opt.step(&mut s);
        assert!((s.value() + 0.01).abs() < 1e-4, "got {}", s.value());
    }

    #[test]
    fn adam_moments_never_go_subnormal() {
        // Nonzero gradients, then exact zeros (a fitted stream): the first
        // moment decays x0.9 per step and would sink into the subnormals and
        // stick there, slowing every later step; the flush stores zero.
        let mut s = Scalar::new(0.5);
        let mut opt = Adam::new(2e-3);
        for step in 0..1_100 {
            s.set_grad(if step < 100 { 0.3 } else { 0.0 });
            opt.step(&mut s);
            for x in opt.m.iter().chain(&opt.v).flat_map(|t| t.as_slice()) {
                assert!(!x.is_subnormal(), "step {step}: subnormal moment {x:e}");
            }
        }
        assert_eq!(opt.m[0].as_slice()[0], 0.0, "first moment not flushed");
    }

    #[test]
    fn clip_reduces_large_gradients_only() {
        let mut s = Scalar::new(0.0);
        s.set_grad(100.0);
        let pre = clip_grad_norm(&mut s, 10.0);
        assert!((pre - 100.0).abs() < 1e-4);
        assert!((s.g.as_slice()[0] - 10.0).abs() < 1e-4);

        s.set_grad(5.0);
        let pre = clip_grad_norm(&mut s, 10.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.g.as_slice()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn parameter_count_via_visit() {
        let mut s = Scalar::new(0.0);
        assert_eq!(s.parameter_count(), 1);
    }

    #[test]
    #[should_panic(expected = "max_norm must be positive")]
    fn clip_rejects_zero_norm() {
        let mut s = Scalar::new(0.0);
        let _ = clip_grad_norm(&mut s, 0.0);
    }
}
