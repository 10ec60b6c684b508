//! Fully-connected layers with built-in activations.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optim::Trainable;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-call cache used by back-propagation.
#[derive(Debug, Clone, Default)]
struct DenseCache {
    input: Matrix,
    pre: Matrix,
    post: Matrix,
}

/// Scratch buffers for the workspace training path
/// ([`Dense::forward_ws`] / [`Dense::backward_ws`]): every per-call
/// temporary the plain path allocates lives here instead and is resized in
/// place, so steady-state training does not allocate.
#[derive(Debug, Clone, Default)]
struct DenseWorkspace {
    /// Pre-activation gradient (`dy * act'`).
    dz: Matrix,
    /// Bias-gradient staging buffer (`dz` summed over rows).
    rowsum: Matrix,
    /// Transposed weights for the input-gradient GEMM.
    w_t: Matrix,
    /// Input gradient (`dz * W^T`), returned by reference.
    dx: Matrix,
}

/// A fully-connected layer `y = act(x W + b)`.
///
/// Weights are stored input-major (`in x out`), so a batch `x` of shape
/// `n x in` produces `n x out`.
///
/// Forward calls in training mode push onto an internal cache stack and
/// backward calls pop it, so the *same* layer object can be applied several
/// times per step (weight sharing): gradients from every application
/// accumulate into the shared parameter gradients. This is exactly the
/// semantics the paper's shared autoencoders and Sub-Q networks need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Matrix,
    #[serde(skip)]
    cache: Vec<DenseCache>,
    #[serde(skip)]
    spare: Vec<DenseCache>,
    #[serde(skip)]
    ws: DenseWorkspace,
}

impl Dense {
    /// Creates a layer with the given fan-in/fan-out, activation, and weight
    /// initialization. Biases start at zero.
    pub fn new(
        input: usize,
        output: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w: init.sample(input, output, rng),
            b: Matrix::zeros(1, output),
            activation,
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
            cache: Vec::new(),
            spare: Vec::new(),
            ws: DenseWorkspace::default(),
        }
    }

    /// Creates a layer with explicit bias initialization (the paper sets
    /// LSTM in/out layer biases to the constant 0.1).
    pub fn with_bias(
        input: usize,
        output: usize,
        activation: Activation,
        weight_init: Init,
        bias_init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        let mut layer = Self::new(input, output, activation, weight_init, rng);
        layer.b = bias_init.sample(1, output, rng);
        layer
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.w.cols()
    }

    /// Inference pass without caching; usable through `&self`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_size()`.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        self.activation.apply_slice(z.as_mut_slice());
        z
    }

    /// Inference pass into a caller-provided buffer (resized in place), so
    /// hot loops can reuse one allocation per layer output. Bitwise
    /// identical to [`Dense::infer`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_size()`.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
        self.activation.apply_slice(out.as_mut_slice());
    }

    /// Training-mode forward pass; caches intermediates for [`Dense::backward`].
    ///
    /// Each call pushes one cache entry; calls must be matched by backward
    /// calls in reverse order.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut pre = x.matmul(&self.w);
        pre.add_row_broadcast(&self.b);
        let mut post = pre.clone();
        self.activation.apply_slice(post.as_mut_slice());
        self.cache.push(DenseCache {
            input: x.clone(),
            pre: pre.clone(),
            post: post.clone(),
        });
        post
    }

    /// Training-mode forward pass that recycles cache tensors instead of
    /// cloning them: the cache entry comes from an internal spare pool
    /// (returned to it by the matching workspace backward call) and its
    /// buffers are overwritten in place. Bitwise identical to
    /// [`Dense::forward`], which stays as the allocating reference path.
    ///
    /// The returned reference is the cached activation output; it stays
    /// valid until the matching backward (or [`Dense::clear_cache`]) pops
    /// the entry.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_size()`.
    pub fn forward_ws(&mut self, x: &Matrix) -> &Matrix {
        let mut cache = self.spare.pop().unwrap_or_default();
        cache.input.copy_from(x);
        x.matmul_into(&self.w, &mut cache.pre);
        cache.pre.add_row_broadcast(&self.b);
        cache.post.copy_from(&cache.pre);
        self.activation.apply_slice(cache.post.as_mut_slice());
        self.cache.push(cache);
        self.last_output()
    }

    /// Output of the most recent un-consumed forward call.
    ///
    /// # Panics
    ///
    /// Panics if no forward call is pending.
    fn last_output(&self) -> &Matrix {
        &self
            .cache
            .last()
            .expect("Dense::last_output called with no pending forward")
            .post
    }

    /// Back-propagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output) through the most recent un-consumed forward call, accumulates
    /// parameter gradients, and returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call, or on shape mismatch.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let dz = self.backward_accumulate(grad_out);
        dz.matmul_nt(&self.w)
    }

    /// Workspace counterpart of [`Dense::backward`]: accumulates the same
    /// parameter gradients and returns the input gradient, but every
    /// temporary (`dz`, the transposed weights, the input gradient
    /// itself) lives in recycled buffers.
    /// Bitwise identical to [`Dense::backward`].
    ///
    /// The returned reference aliases an internal buffer overwritten by the
    /// *next* workspace backward call on this layer; read or copy it before
    /// then.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call, or on shape mismatch.
    pub fn backward_ws(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backward_accumulate_ws(grad_out);
        // dx = dz * W^T: `matmul_nt` materializes the transpose and runs
        // the plain kernel, so staging W^T through a recycled buffer and
        // calling the same kernel is bitwise identical.
        self.w.transpose_into(&mut self.ws.w_t);
        self.ws.dz.matmul_into(&self.ws.w_t, &mut self.ws.dx);
        &self.ws.dx
    }

    /// Input gradient left by the most recent [`Dense::backward_ws`] call.
    fn grad_input(&self) -> &Matrix {
        &self.ws.dx
    }

    /// Like [`Dense::backward`], but skips the input-gradient GEMM
    /// (`dz * W^T`) — for bottom layers whose upstream gradient nobody
    /// consumes. Parameter gradients are accumulated identically.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call, or on shape mismatch.
    pub fn backward_params_only(&mut self, grad_out: &Matrix) {
        let _ = self.backward_accumulate(grad_out);
    }

    /// Workspace counterpart of [`Dense::backward_params_only`]: identical
    /// gradient accumulation through recycled buffers, no input-gradient
    /// GEMM.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call, or on shape mismatch.
    pub fn backward_params_only_ws(&mut self, grad_out: &Matrix) {
        self.backward_accumulate_ws(grad_out);
    }

    /// Pops the most recent forward cache, accumulates the parameter
    /// gradients, and returns `dz` (the pre-activation gradient).
    fn backward_accumulate(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self
            .cache
            .pop()
            .expect("Dense::backward called without a matching forward");
        assert_eq!(
            grad_out.shape(),
            cache.post.shape(),
            "gradient shape {:?} does not match output shape {:?}",
            grad_out.shape(),
            cache.post.shape()
        );
        // dz = dy * act'(pre, post)
        let mut dz = grad_out.clone();
        for i in 0..dz.rows() {
            let pre = cache.pre.row(i);
            let post = cache.post.row(i);
            let row = dz.row_mut(i);
            for ((g, &p), &q) in row.iter_mut().zip(pre).zip(post) {
                *g *= self.activation.derivative(p, q);
            }
        }
        // The accumulating GEMM continues each gradient element's fused
        // product chain across calls, so N single-row accumulations and one
        // N-row accumulation land on identical bits (see `simd` module doc).
        self.grad_w.add_matmul_tn(&cache.input, &dz);
        self.grad_b.axpy(1.0, &dz.sum_rows());
        dz
    }

    /// Workspace twin of [`Dense::backward_accumulate`]: same operations in
    /// the same order, but `dz` and the bias-gradient staging row live in
    /// recycled buffers and the consumed cache entry returns to the spare
    /// pool. Leaves `dz` in the workspace for [`Dense::backward_ws`].
    fn backward_accumulate_ws(&mut self, grad_out: &Matrix) {
        let cache = self
            .cache
            .pop()
            .expect("Dense::backward called without a matching forward");
        assert_eq!(
            grad_out.shape(),
            cache.post.shape(),
            "gradient shape {:?} does not match output shape {:?}",
            grad_out.shape(),
            cache.post.shape()
        );
        // dz = dy * act'(pre, post), one lane-wise sweep over the whole
        // batch (the allocating twin keeps the per-element loop, so the
        // bitwise pins compare the two).
        self.ws.dz.copy_from(grad_out);
        self.activation.mul_derivative_slice(
            self.ws.dz.as_mut_slice(),
            cache.pre.as_slice(),
            cache.post.as_slice(),
        );
        self.grad_w.add_matmul_tn(&cache.input, &self.ws.dz);
        self.ws.dz.sum_rows_into(&mut self.ws.rowsum);
        self.grad_b.axpy(1.0, &self.ws.rowsum);
        self.spare.push(cache);
    }

    /// Sizes the workspace path's buffers for one `rows`-row forward call
    /// and its backward call (`input_grad`: [`Dense::backward_ws`], else
    /// [`Dense::backward_params_only_ws`]) without computing anything, so
    /// that the first such pair allocates nothing. Every buffer is
    /// overwritten before it is read, so no result changes.
    pub(crate) fn reserve_ws(&mut self, rows: usize, input_grad: bool) {
        let (inputs, outputs) = (self.input_size(), self.output_size());
        if self.spare.is_empty() {
            let mut cache = DenseCache::default();
            cache.input.resize_to(rows, inputs);
            cache.pre.resize_to(rows, outputs);
            cache.post.resize_to(rows, outputs);
            self.spare.push(cache);
        }
        self.cache.reserve(self.spare.len());
        self.ws.dz.resize_to(rows, outputs);
        self.ws.rowsum.resize_to(1, outputs);
        if input_grad {
            self.ws.w_t.resize_to(outputs, inputs);
            self.ws.dx.resize_to(rows, inputs);
        }
    }

    /// Number of pending (cached, not yet back-propagated) forward calls.
    pub fn pending_backwards(&self) -> usize {
        self.cache.len()
    }

    /// Drops any cached forward state without touching gradients. Buffers
    /// from workspace forward calls return to the spare pool.
    pub fn clear_cache(&mut self) {
        self.spare.append(&mut self.cache);
    }
}

impl Trainable for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// A feed-forward stack of [`Dense`] layers (multi-layer perceptron).
///
/// # Examples
///
/// ```
/// use hierdrl_neural::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 8, 2], Activation::ELU, Activation::Linear,
///                    Init::XavierUniform, &mut rng);
/// let y = mlp.infer(&Matrix::zeros(3, 4));
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths. `dims` lists the input
    /// width followed by each layer's output width; hidden layers use
    /// `hidden_activation` and the last layer uses `output_activation`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn new(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, init, rng));
        }
        Self { layers }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers[self.layers.len() - 1].output_size()
    }

    /// Inference pass without caching.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].infer(x);
        for layer in &self.layers[1..] {
            h = layer.infer(&h);
        }
        h
    }

    /// Inference pass that ping-pongs between two caller-provided buffers,
    /// leaving the result in `out`; per-step workspaces use this to run the
    /// whole stack without allocating. Bitwise identical to [`Mlp::infer`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_size()`.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut Matrix) {
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            // The last layer must land in `out`; alternate backwards from it.
            let to_out = (n - 1 - i).is_multiple_of(2);
            let (src, dst): (&Matrix, &mut Matrix) = match (i, to_out) {
                (0, true) => (x, &mut *out),
                (0, false) => (x, &mut *scratch),
                (_, true) => (&*scratch, &mut *out),
                (_, false) => (&*out, &mut *scratch),
            };
            layer.infer_into(src, dst);
        }
    }

    /// Training-mode forward pass (caches intermediates; may be called
    /// repeatedly before backward for weight-shared application).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Training-mode forward pass through the workspace path: each layer
    /// reads its input straight out of the previous layer's cache entry, so
    /// no inter-layer copies or per-call clones happen at all. Bitwise
    /// identical to [`Mlp::forward`], which stays as the allocating
    /// reference path. The returned reference is the top layer's cached
    /// output, valid until the matching backward call.
    pub fn forward_ws(&mut self, x: &Matrix) -> &Matrix {
        for i in 0..self.layers.len() {
            let (prev, rest) = self.layers.split_at_mut(i);
            if i == 0 {
                rest[0].forward_ws(x);
            } else {
                rest[0].forward_ws(prev[i - 1].last_output());
            }
        }
        self.layers.last().expect("MLP has layers").last_output()
    }

    /// Back-propagates through the most recent un-consumed forward call and
    /// returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if no forward call is pending.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Back-propagates like [`Mlp::backward`] but never computes the
    /// gradient w.r.t. the network *input* (the bottom layer's `dz * W^T`
    /// GEMM — the largest one), for callers that do not chain into an
    /// upstream network. Parameter gradients are bitwise identical to
    /// [`Mlp::backward`]'s.
    ///
    /// # Panics
    ///
    /// Panics if no forward call is pending.
    pub fn backward_params_only(&mut self, grad_out: &Matrix) {
        let mut g = grad_out.clone();
        let (bottom, upper) = self.layers.split_first_mut().expect("MLP has layers");
        for layer in upper.iter_mut().rev() {
            g = layer.backward(&g);
        }
        bottom.backward_params_only(&g);
    }

    /// Workspace counterpart of [`Mlp::backward`]: full back-propagation
    /// with each layer reading the upstream gradient straight from the
    /// layer above's recycled input-gradient buffer, returning the
    /// gradient w.r.t. the network input (borrowed from the bottom
    /// layer's buffer, valid until its next backward call). Gradients are
    /// bitwise identical to [`Mlp::backward`]'s.
    ///
    /// # Panics
    ///
    /// Panics if no forward call is pending.
    pub fn backward_ws(&mut self, grad_out: &Matrix) -> &Matrix {
        let n = self.layers.len();
        for i in (0..n).rev() {
            let (_, rest) = self.layers.split_at_mut(i);
            let (cur, upper) = rest.split_first_mut().expect("MLP has layers");
            let g: &Matrix = if i == n - 1 {
                grad_out
            } else {
                upper[0].grad_input()
            };
            cur.backward_ws(g);
        }
        self.layers[0].grad_input()
    }

    /// Workspace counterpart of [`Mlp::backward_params_only`]: identical
    /// gradient accumulation, but each layer reads the upstream gradient
    /// directly from the layer above's recycled input-gradient buffer —
    /// nothing is cloned anywhere in the sweep. Bitwise identical to
    /// [`Mlp::backward_params_only`].
    ///
    /// # Panics
    ///
    /// Panics if no forward call is pending.
    pub fn backward_params_only_ws(&mut self, grad_out: &Matrix) {
        let n = self.layers.len();
        for i in (0..n).rev() {
            let (_, rest) = self.layers.split_at_mut(i);
            let (cur, upper) = rest.split_first_mut().expect("MLP has layers");
            let g: &Matrix = if i == n - 1 {
                grad_out
            } else {
                upper[0].grad_input()
            };
            if i == 0 {
                cur.backward_params_only_ws(g);
            } else {
                cur.backward_ws(g);
            }
        }
    }

    /// Drops cached forward state in every layer.
    pub fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }
}

impl Trainable for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_check(mlp: &mut Mlp, x: &Matrix, target: &Matrix) {
        // Analytic gradients.
        mlp.zero_grad();
        let pred = mlp.forward(x);
        let dy = Loss::Mse.gradient(&pred, target);
        mlp.backward(&dy);

        // Collect analytic grads.
        let mut analytic: Vec<f32> = Vec::new();
        mlp.visit_params(&mut |_, g| analytic.extend_from_slice(g.as_slice()));

        // Numeric gradients.
        let eps = 1e-3_f32;
        let mut idx = 0;
        let mut max_err = 0.0_f32;
        // Perturb each parameter in turn.
        let mut param_shapes = Vec::new();
        mlp.visit_params(&mut |p, _| param_shapes.push(p.shape()));
        for (tensor_i, &(r, c)) in param_shapes.iter().enumerate() {
            for k in 0..r * c {
                let set = |mlp: &mut Mlp, delta: f32| {
                    let mut t = 0;
                    mlp.visit_params(&mut |p, _| {
                        if t == tensor_i {
                            p.as_mut_slice()[k] += delta;
                        }
                        t += 1;
                    });
                };
                set(mlp, eps);
                let up = Loss::Mse.value(&mlp.infer(x), target);
                set(mlp, -2.0 * eps);
                let down = Loss::Mse.value(&mlp.infer(x), target);
                set(mlp, eps);
                let numeric = (up - down) / (2.0 * eps);
                let err = (numeric - analytic[idx]).abs();
                max_err = max_err.max(err);
                idx += 1;
            }
        }
        assert!(max_err < 5e-3, "max gradient error {max_err}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = Mlp::new(
            &[3, 5, 2],
            Activation::ELU,
            Activation::Linear,
            Init::XavierUniform,
            &mut rng,
        );
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.0, 0.3, -0.6]]);
        let target = Matrix::from_rows(&[&[0.5, -0.5], &[1.0, 0.0]]);
        finite_diff_check(&mut mlp, &x, &target);
    }

    #[test]
    fn gradients_match_with_tanh_hidden() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(
            &[4, 6, 3],
            Activation::Tanh,
            Activation::Linear,
            Init::XavierUniform,
            &mut rng,
        );
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3, 0.4]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
        finite_diff_check(&mut mlp, &x, &target);
    }

    #[test]
    fn weight_shared_double_application_accumulates_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x1 = Matrix::row_vector(&[1.0, 0.0]);
        let x2 = Matrix::row_vector(&[0.0, 1.0]);
        let _ = layer.forward(&x1);
        let _ = layer.forward(&x2);
        assert_eq!(layer.pending_backwards(), 2);
        let g = Matrix::row_vector(&[1.0, 1.0]);
        let _ = layer.backward(&g); // consumes x2's cache
        let _ = layer.backward(&g); // consumes x1's cache
                                    // grad_w = x1^T g + x2^T g = ones(2,2)
        let mut grads = Vec::new();
        layer.visit_params(&mut |_, gm| grads.push(gm.clone()));
        assert_eq!(grads[0], Matrix::filled(2, 2, 1.0));
        assert_eq!(grads[1], Matrix::row_vector(&[2.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "without a matching forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(
            &[3, 4, 2],
            Activation::ELU,
            Activation::Linear,
            Init::HeNormal,
            &mut rng,
        );
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25]]);
        let a = mlp.infer(&x);
        let b = mlp.forward(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn infer_into_matches_infer_for_odd_and_even_depths() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[0.1, 0.2, 0.3]]);
        for dims in [vec![3, 4, 2], vec![3, 5, 4, 2], vec![3, 2]] {
            let mlp = Mlp::new(
                &dims,
                Activation::ELU,
                Activation::Linear,
                Init::HeNormal,
                &mut rng,
            );
            let mut out = Matrix::filled(1, 1, 3.0);
            let mut scratch = Matrix::filled(9, 9, 3.0);
            mlp.infer_into(&x, &mut out, &mut scratch);
            assert_eq!(out, mlp.infer(&x), "depth {}", dims.len());
        }
    }

    #[test]
    fn workspace_training_path_is_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[0.1, 0.2, 0.3]]);
        let dy = Matrix::from_rows(&[&[0.3, -0.9], &[-0.2, 0.7]]);
        for dims in [vec![3, 4, 2], vec![3, 5, 4, 2], vec![3, 2]] {
            let mut plain = Mlp::new(
                &dims,
                Activation::ELU,
                Activation::Linear,
                Init::HeNormal,
                &mut rng,
            );
            let mut ws = plain.clone();
            // Several rounds so the second and later ones exercise recycled
            // (dirty) cache entries and workspace buffers.
            for round in 0..3 {
                let a = plain.forward(&x);
                let b = ws.forward_ws(&x).clone();
                assert_eq!(a, b, "depth {} round {round}: outputs", dims.len());
                plain.backward_params_only(&dy);
                ws.backward_params_only_ws(&dy);
                let mut ga = Vec::new();
                plain.visit_params(&mut |_, g| ga.push(g.clone()));
                let mut gb = Vec::new();
                ws.visit_params(&mut |_, g| gb.push(g.clone()));
                assert_eq!(ga, gb, "depth {} round {round}: grads", dims.len());
            }
        }
    }

    #[test]
    fn backward_ws_input_gradient_matches_backward() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut plain = Dense::new(5, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        let mut ws = plain.clone();
        let x = Matrix::from_rows(&[&[0.1, -0.5, 0.9, 0.0, 0.4], &[1.0, 0.2, -0.3, 0.6, -0.8]]);
        let dy = Matrix::from_rows(&[&[0.5, -0.1, 0.2], &[-0.4, 0.8, 0.3]]);
        for round in 0..3 {
            let _ = plain.forward(&x);
            let _ = ws.forward_ws(&x);
            let dx_plain = plain.backward(&dy);
            let dx_ws = ws.backward_ws(&dy);
            assert_eq!(&dx_plain, dx_ws, "round {round}: input grads diverged");
        }
        let mut ga = Vec::new();
        plain.visit_params(&mut |_, g| ga.push(g.clone()));
        let mut gb = Vec::new();
        ws.visit_params(&mut |_, g| gb.push(g.clone()));
        assert_eq!(ga, gb);
    }

    #[test]
    fn mlp_backward_ws_matches_backward() {
        // The full workspace backward (input gradient included) must chain
        // layer-to-layer exactly like the allocating reference, at every
        // depth and across recycled rounds.
        let mut rng = StdRng::seed_from_u64(24);
        for dims in [vec![6, 4], vec![6, 5, 3], vec![6, 8, 5, 2]] {
            let mut plain = Mlp::new(
                &dims,
                Activation::ELU,
                Activation::Linear,
                Init::XavierUniform,
                &mut rng,
            );
            let mut ws = plain.clone();
            let x = Matrix::from_rows(&[
                &[0.3, -0.7, 0.1, 0.9, -0.2, 0.5],
                &[-0.4, 0.6, -0.9, 0.2, 0.8, -0.1],
            ]);
            let mut dy = Matrix::zeros(2, *dims.last().unwrap());
            for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f32 * 0.37).sin();
            }
            for round in 0..3 {
                let _ = plain.forward(&x);
                let _ = ws.forward_ws(&x);
                let dx_plain = plain.backward(&dy);
                let dx_ws = ws.backward_ws(&dy);
                assert_eq!(
                    &dx_plain,
                    dx_ws,
                    "depth {} round {round}: input grads",
                    dims.len()
                );
                let mut ga = Vec::new();
                plain.visit_params(&mut |_, g| ga.push(g.clone()));
                let mut gb = Vec::new();
                ws.visit_params(&mut |_, g| gb.push(g.clone()));
                assert_eq!(ga, gb, "depth {} round {round}: grads", dims.len());
            }
        }
    }

    #[test]
    fn clear_cache_recycles_workspace_entries() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::row_vector(&[1.0, -1.0]);
        let _ = layer.forward_ws(&x);
        let _ = layer.forward_ws(&x);
        assert_eq!(layer.pending_backwards(), 2);
        layer.clear_cache();
        assert_eq!(layer.pending_backwards(), 0);
        // The recycled entries are reused and the path still agrees with
        // the plain one.
        let mut plain = layer.clone();
        let a = plain.forward(&x);
        let b = layer.forward_ws(&x);
        assert_eq!(&a, b);
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        use crate::optim::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(
            &[1, 16, 1],
            Activation::Tanh,
            Activation::Linear,
            Init::XavierUniform,
            &mut rng,
        );
        let mut adam = Adam::new(1e-2);
        // Fit y = 2x - 1 on [-1, 1].
        let xs: Vec<f32> = (0..32).map(|i| -1.0 + 2.0 * i as f32 / 31.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x = Matrix::from_vec(32, 1, xs);
        let y = Matrix::from_vec(32, 1, ys);
        let initial = Loss::Mse.value(&mlp.infer(&x), &y);
        for _ in 0..300 {
            mlp.zero_grad();
            let pred = mlp.forward(&x);
            let dy = Loss::Mse.gradient(&pred, &y);
            mlp.backward(&dy);
            adam.step(&mut mlp);
        }
        let fin = Loss::Mse.value(&mlp.infer(&x), &y);
        assert!(fin < initial * 0.05, "loss {initial} -> {fin} did not drop");
    }

    #[test]
    fn num_parameters_counts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(
            &[3, 4, 2],
            Activation::ELU,
            Activation::Linear,
            Init::HeNormal,
            &mut rng,
        );
        assert_eq!(mlp.parameter_count(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn serde_round_trip_preserves_inference() {
        let mut rng = StdRng::seed_from_u64(13);
        let mlp = Mlp::new(
            &[2, 3, 1],
            Activation::ELU,
            Activation::Linear,
            Init::XavierUniform,
            &mut rng,
        );
        let json = serde_json::to_string(&mlp).unwrap();
        let restored: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::row_vector(&[0.3, -0.7]);
        assert_eq!(mlp.infer(&x), restored.infer(&x));
    }
}
