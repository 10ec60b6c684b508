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
/// The rule is [`global_grad_norm`]'s: clip when its sequential `f32` norm
/// exceeds `max_norm`, scaling every gradient by `max_norm / norm`. That
/// sum is one long chain of dependent adds, and the clip rarely fires, so a
/// vectorised pass first sums the squares in `f64`. For `N` gradient
/// elements in `P` matrices, when that sum times `1 + (N + P + 1)·2⁻²³`,
/// plus `N·2⁻¹⁴⁹`, is below both `max_norm²` and `f32::MAX`, the sequential
/// sum is provably below `max_norm²` and the rule cannot clip (the proof is
/// at the bound's helper); only otherwise, NaN and ±∞ sums included, does
/// the sequential rule run. A certified call leaves the gradients
/// untouched, exactly as the rule would, and returns the `f64` norm rounded
/// to `f32`. That can differ from [`global_grad_norm`]: in the last bits
/// for ordinary gradients, and by more where squares fall among the `f32`
/// subnormals, whose rounding makes the sequential sum the less accurate
/// one. Otherwise the return is [`global_grad_norm`], bit for bit.
///
/// # Panics
///
/// Panics if `max_norm <= 0`.
pub fn clip_grad_norm(net: &mut dyn Trainable, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let (mut sum_sq, mut elements, mut params) = (0.0_f64, 0, 0);
    net.visit_params(&mut |_, g| {
        sum_sq += sum_squares_f64(g.as_slice());
        elements += g.len();
        params += 1;
    });
    if cannot_clip(sum_sq, elements, params, max_norm) {
        return sum_sq.sqrt() as f32;
    }
    let norm = global_grad_norm(net);
    if norm > max_norm {
        let scale = max_norm / norm;
        net.visit_params(&mut |_, g| g.scale(scale));
    }
    norm
}

/// `Σ x²` over `xs` in `f64`, in sixteen independent lanes the compiler
/// vectorises. Every square is exact (two 24-bit significands make at most
/// 48 bits), so only the additions round.
fn sum_squares_f64(xs: &[f32]) -> f64 {
    const LANES: usize = 16;
    let mut acc = [0.0_f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            let x = f64::from(x);
            *a += x * x;
        }
    }
    let mut sum: f64 = acc.iter().sum();
    for &x in tail {
        let x = f64::from(x);
        sum += x * x;
    }
    sum
}

/// Whether gradients of `elements` floats in `params` matrices, whose
/// squares sum to `sum_sq` in `f64` (in any order), certainly do not make
/// [`global_grad_norm`] exceed `max_norm`. NaN and ±∞ sums are never
/// certified.
///
/// With `N = elements`, `P = params` and `u = 2⁻²⁴`, the `f32` unit
/// roundoff: the sequential sum rounds each square once, to at most
/// `x²(1 + u) + 2⁻¹⁵⁰` (the absolute term covers squares that land among
/// the subnormals), and passes each through at most `N + P` additions of
/// non-negative values, each rounding up by at most a factor `1 + u`. For
/// `k = N + P + 1 ≤ 2²³`, `(1 + u)^k ≤ 1 + 1.5·k·u`, so that sum is at most
/// `T·(1 + 1.5ku) + N·2⁻¹⁴⁹` for the exact sum of squares `T`. The `f64`
/// sum satisfies `T ≤ sum_sq / (1 − N·2⁻⁵³)`, and the test below charges
/// `sum_sq·(1 + 2ku)`, whose extra `0.5ku` covers that and the rounding of
/// the test itself. So when the test passes, every partial `f32` sum stays
/// below `f32::MAX` (no rounding overflows, so the bounds above hold) and
/// the whole sum below `max_norm²`; its correctly rounded square root is
/// then at most `max_norm`, which is an `f32`, and the rule does not clip.
fn cannot_clip(sum_sq: f64, elements: usize, params: usize, max_norm: f32) -> bool {
    /// The smallest positive subnormal `f32`, 2⁻¹⁴⁹.
    const MIN_SUBNORMAL: f64 = f32::from_bits(1) as f64;
    let k = elements + params + 1;
    if k > 1 << 23 {
        return false;
    }
    let bound =
        sum_sq * (1.0 + k as f64 * f64::from(f32::EPSILON)) + elements as f64 * MIN_SUBNORMAL;
    let limit = (f64::from(max_norm) * f64::from(max_norm)).min(f64::from(f32::MAX));
    bound < limit
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

    /// Gradient matrices with placeholder parameters, for driving the
    /// clip on chosen gradients.
    #[derive(Clone)]
    struct Grads(Vec<(Matrix, Matrix)>);

    impl Grads {
        /// The Sub-Q network's gradient shapes at M = 30 (16,015 floats in
        /// four matrices), holding `f(i) · scale` for flat index `i`.
        fn sub_q(f: impl Fn(usize) -> f32, scale: f32) -> Self {
            let mut i = 0;
            let shapes = [(109, 128), (1, 128), (128, 15), (1, 15)];
            Grads(
                shapes
                    .iter()
                    .map(|&(rows, cols)| {
                        let mut g = Matrix::zeros(rows, cols);
                        for x in g.as_mut_slice() {
                            *x = f(i) * scale;
                            i += 1;
                        }
                        (Matrix::zeros(rows, cols), g)
                    })
                    .collect(),
            )
        }

        fn bits(&self) -> Vec<u32> {
            self.0
                .iter()
                .flat_map(|(_, g)| g.as_slice().iter().map(|x| x.to_bits()))
                .collect()
        }

        /// Whether [`cannot_clip`] certifies these gradients at `max_norm`.
        fn certified(&self, max_norm: f32) -> bool {
            let sum_sq = self
                .0
                .iter()
                .map(|(_, g)| sum_squares_f64(g.as_slice()))
                .sum();
            let elements = self.0.iter().map(|(_, g)| g.len()).sum();
            cannot_clip(sum_sq, elements, self.0.len(), max_norm)
        }
    }

    impl Trainable for Grads {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            for (p, g) in &mut self.0 {
                f(p, g);
            }
        }
        fn zero_grad(&mut self) {}
    }

    /// The sequential rule the certificate stands in for: clip when the
    /// `f32` global norm exceeds `max_norm`.
    fn sequential_clip(net: &mut dyn Trainable, max_norm: f32) -> f32 {
        let norm = global_grad_norm(net);
        if norm > max_norm {
            let scale = max_norm / norm;
            net.visit_params(&mut |_, g| g.scale(scale));
        }
        norm
    }

    /// Clips a copy of `grads` both ways and checks that the gradients
    /// agree bit for bit, and the reported norms as documented: equal when
    /// the sequential rule ran, within `tolerance` (relative) when the
    /// certificate held. Returns `(certified, clipped)`.
    fn clip_both_ways(grads: &Grads, max_norm: f32, tolerance: f32, what: &str) -> (bool, bool) {
        let (mut fast, mut slow) = (grads.clone(), grads.clone());
        let certified = grads.certified(max_norm);
        let reported = clip_grad_norm(&mut fast, max_norm);
        let norm = sequential_clip(&mut slow, max_norm);
        assert_eq!(fast.bits(), slow.bits(), "{what}: gradients differ");
        if certified {
            assert!(norm <= max_norm, "{what}: certified, yet the rule clips");
            assert!(
                (reported - norm).abs() <= tolerance * norm,
                "{what}: norm {reported} vs {norm}"
            );
        } else if !norm.is_nan() {
            assert_eq!(reported.to_bits(), norm.to_bits(), "{what}");
        } else {
            assert!(reported.is_nan(), "{what}");
        }
        (certified, norm > max_norm)
    }

    #[test]
    fn clip_certificate_never_overrules_the_sequential_rule() {
        // A fixed direction, a quarter zeros and the rest spread over four
        // orders of magnitude, scaled so that the global norm sweeps
        // [0.9, 1.1] × the clip, then steps of one `f32` ulp around 1.0,
        // where the certificate must give way to the sequential rule.
        let direction: Vec<f32> = (0..16_015)
            .map(|i| match i % 4 {
                0 => 0.0,
                r => ((i * 7_919) % 1_000) as f32 * 10f32.powi(-r) - 0.4,
            })
            .collect();
        let direction = |i: usize| direction[i];
        let unit = Grads::sub_q(direction, 1.0);
        let unit_norm: f64 = unit
            .0
            .iter()
            .map(|(_, g)| sum_squares_f64(g.as_slice()))
            .sum::<f64>()
            .sqrt();
        const CLIP: f32 = 10.0;
        let factors = (0..=400)
            .map(|i| 0.9 + 0.2 * f64::from(i) / 400.0)
            .chain((-128..=128).map(|i| 1.0 + f64::from(i) * f64::from(f32::EPSILON)));
        let (mut certified, mut clipped, mut neither) = (0, 0, 0);
        for f in factors {
            let grads = Grads::sub_q(direction, (f * f64::from(CLIP) / unit_norm) as f32);
            match clip_both_ways(&grads, CLIP, 1e-4, &format!("factor {f}")) {
                (true, _) => certified += 1,
                (false, true) => clipped += 1,
                (false, false) => neither += 1,
            }
        }
        // All three outcomes occur: the sweep crosses the certificate's
        // margin and the clip itself.
        assert!(certified > 0 && clipped > 0 && neither > 0);

        // Equal gradients round every addition of the sequential sum the
        // same way: at 0.02331 its norm reads 9e-5 above the exact one, so
        // clips between the two must fall back to the rule (which clips)
        // and not certify on the exact sum.
        let equal = Grads::sub_q(|i| if i % 2 == 0 { 0.023_31 } else { -0.023_31 }, 1.0);
        let exact = (16_015.0 * f64::from(0.023_31_f32).powi(2)).sqrt();
        let mut equal_clipped = 0;
        for i in 0..=150 {
            let max_norm = (exact * (1.0 + (f64::from(i) - 50.0) * 2e-6)) as f32;
            let (_, clipped) = clip_both_ways(&equal, max_norm, 1e-4, "equal gradients");
            equal_clipped += usize::from(clipped && f64::from(max_norm) > exact);
        }
        assert!(equal_clipped > 0);

        // Squares among the subnormals round up by up to 2x in `f32`: the
        // sequential sum of 16,015 squares of 3e-23 reads 2.2e-41, about
        // 1.6 times their exact sum, so only the certificate's absolute
        // term keeps it from passing where the rule clips. The `f64` norm a
        // certified call reports is the exact one, a fifth below the
        // sequential norm here.
        let tiny = Grads::sub_q(|_| 3e-23, 1.0);
        let exact = (16_015.0 * 9e-46_f64).sqrt();
        let mut tiny_clipped = 0;
        for i in 0..=100 {
            let max_norm = (exact * (0.9 + f64::from(i) * 0.02)) as f32;
            let (_, clipped) = clip_both_ways(&tiny, max_norm, 0.25, "subnormal squares");
            tiny_clipped += usize::from(clipped);
        }
        assert!(tiny_clipped > 0);

        // Non-finite gradients, and a square that overflows `f32` under a
        // clip whose square does not: the sequential rule decides each.
        for (what, value, max_norm) in [
            ("NaN", f32::NAN, CLIP),
            ("+inf", f32::INFINITY, CLIP),
            ("-inf", f32::NEG_INFINITY, CLIP),
            ("f32 overflow", 1e20, 1e30),
        ] {
            let grads = Grads::sub_q(|i| if i == 777 { value } else { direction(i) * 1e-3 }, 1.0);
            let (certified, _) = clip_both_ways(&grads, max_norm, 0.0, what);
            assert!(!certified, "{what}");
        }
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
