//! Long short-term memory (LSTM) cell and sequence network with truncated
//! back-propagation through time (BPTT).
//!
//! The paper's workload predictor (Fig. 7) is an unrolled LSTM: an input
//! hidden layer, an LSTM cell layer with 30 hidden units shared across all
//! time steps, and an output hidden layer. [`LstmNetwork`] reproduces that
//! exact topology.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optim::Trainable;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cached values for one time step of the step-by-step reference forward
/// pass ([`LstmCell::forward_step`]).
///
/// The four post-activation gates stay packed in one `n x 4*hidden` matrix
/// (`[i | f | o | g]` blocks) instead of four separate matrices; the
/// backward pass reads them sliced in place.
#[derive(Debug, Clone, Default)]
struct StepCache {
    z: Matrix,      // [n x (input + hidden)]  concatenated input
    gates: Matrix,  // [n x 4*hidden]  post-activation [i | f | o | g]
    c_prev: Matrix, // previous cell state
    tanh_c: Matrix, // tanh of new cell state
}

/// Flat per-sweep buffers of the fused batch-1 sequence path: one row per
/// time step, written once by [`LstmCell::forward_sequence`] and read by
/// [`LstmCell::backward_sequence`]. They are sized on first use and then
/// overwritten in place, so a steady-state training sweep allocates
/// nothing. [`LstmCell::infer_sequence`] runs the same step over one-row
/// buffers of its own.
#[derive(Debug, Clone, Default)]
struct Sweep {
    /// Steps recorded by the last forward sweep and not yet
    /// back-propagated.
    steps: usize,
    /// Running hidden/cell state.
    state: LstmState,
    /// Concatenated inputs `[x_t | h_{t-1}]`, latest step first (step `t`
    /// in row `steps - 1 - t`): the row order in which BPTT adds each
    /// step's terms, so the deferred weight-gradient `aᵀb` reads it as is.
    z: Matrix,
    /// Post-activation gates `[i | f | o | g]`, row `t` = step `t`.
    gates: Matrix,
    /// Cell state entering each step, row `t` = step `t`.
    c_prev: Matrix,
    /// `tanh` of each step's new cell state, row `t` = step `t`.
    tanh_c: Matrix,
    /// Pre-activation gate gradients, in `z`'s row order.
    da: Matrix,
    /// Hidden-state gradient flowing backward through time.
    dh: Vec<f32>,
    /// Cell-state gradient flowing backward through time.
    dc: Vec<f32>,
    /// The earlier step's cell-state gradient; swapped with `dc`.
    dc_next: Vec<f32>,
    /// Concatenated-input gradient `da·Wᵀ` of one step.
    dz: Vec<f32>,
    /// Transposed gate weights, refreshed once per backward sweep.
    w_t: Matrix,
}

/// Hidden and cell state of an LSTM, batch-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LstmState {
    /// Hidden state `h`, shape `n x hidden`.
    pub h: Matrix,
    /// Cell state `c`, shape `n x hidden`.
    pub c: Matrix,
}

impl LstmState {
    /// Zero state for a batch of `n` sequences (the paper initializes the
    /// LSTM state to zero).
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        Self {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// A single LSTM cell with weights shared across time steps.
///
/// Gate weights are packed into one `(input + hidden) x 4*hidden` matrix in
/// `[i | f | o | g]` order; the forget-gate bias is initialized to 1, a
/// standard trick that eases gradient flow early in training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    input_size: usize,
    hidden_size: usize,
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    #[serde(skip)]
    cache: Vec<StepCache>,
    #[serde(skip)]
    sweep: Sweep,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized gate weights.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        let w = Init::XavierUniform.sample(input_size + hidden_size, 4 * hidden_size, rng);
        let mut b = Matrix::zeros(1, 4 * hidden_size);
        // Forget-gate bias = 1.
        for j in hidden_size..2 * hidden_size {
            b.as_mut_slice()[j] = 1.0;
        }
        Self {
            input_size,
            hidden_size,
            grad_w: Matrix::zeros(w.rows(), w.cols()),
            grad_b: Matrix::zeros(1, 4 * hidden_size),
            w,
            b,
            cache: Vec::new(),
            sweep: Sweep::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Activates one packed gate row in place: sigmoid on the `[i | f | o]`
    /// blocks, tanh on `g`. Shared by the reference forward and the
    /// scalar step.
    #[inline]
    fn activate_gate_row(row: &mut [f32], hw: usize) {
        Activation::Sigmoid.apply_slice(&mut row[..3 * hw]);
        Activation::Tanh.apply_slice(&mut row[3 * hw..]);
    }

    /// The cell update for one row, in place: on entry `c` holds `c_prev`,
    /// on exit `c[j] = f∘c_prev + i∘g` (each element is read before it is
    /// written). Shared by the reference forward and the scalar step.
    #[inline]
    fn cell_update_row(gr: &[f32], hw: usize, c: &mut [f32]) {
        for (j, cj) in c.iter_mut().enumerate() {
            *cj = gr[hw + j] * *cj + gr[j] * gr[3 * hw + j];
        }
    }

    /// The hidden-state output for one row: `h[j] = o∘tanh_c`. Shared by
    /// the reference forward and the scalar step.
    #[inline]
    fn hidden_row(gr: &[f32], hw: usize, tanh_c: &[f32], h: &mut [f32]) {
        for (j, hj) in h.iter_mut().enumerate() {
            *hj = gr[2 * hw + j] * tanh_c[j];
        }
    }

    /// The pre-activation gate gradients `da = [da_i | da_f | da_o | da_g]`
    /// and `dc_prev` of one row, from its gates, `c_prev`, `tanh_c` and the
    /// gradients `dh`, `dc` w.r.t. its outputs, with the exact per-element
    /// expressions of the former hadamard/zip chain:
    ///   dc_total = dh∘o∘(1 - tanh_c²) + dc
    ///   da_σ = ((dc_total∘·)∘σ)∘(1-σ),  da_g = (dc_total∘i)∘(1-g²)
    /// Shared by the reference backward and the scalar BPTT step.
    #[inline]
    fn gate_grads_row(
        gr: &[f32],
        cpr: &[f32],
        tcr: &[f32],
        dhr: &[f32],
        dcr: &[f32],
        dar: &mut [f32],
        dcp: &mut [f32],
    ) {
        let hw = dhr.len();
        for j in 0..hw {
            let (i, f, o, g) = (gr[j], gr[hw + j], gr[2 * hw + j], gr[3 * hw + j]);
            let tc = tcr[j];
            let dc_total = dhr[j] * o * (1.0 - tc * tc) + 1.0 * dcr[j];
            dar[j] = dc_total * g * i * (1.0 - i);
            dar[hw + j] = dc_total * cpr[j] * f * (1.0 - f);
            dar[2 * hw + j] = dhr[j] * tc * o * (1.0 - o);
            dar[3 * hw + j] = dc_total * i * (1.0 - g * g);
            dcp[j] = dc_total * f;
        }
    }

    /// All four gate pre-activations in one GEMM, activated in place.
    fn gates(&self, z: &Matrix) -> Matrix {
        let mut a = z.matmul(&self.w);
        a.add_row_broadcast(&self.b);
        let h = self.hidden_size;
        for r in 0..a.rows() {
            Self::activate_gate_row(a.row_mut(r), h);
        }
        a
    }

    /// The elementwise tail of one step: `c = f∘c_prev + i∘g`,
    /// `tanh_c = tanh(c)`, `h = o∘tanh_c` — fused into one pass with the
    /// exact per-element expressions of the former hadamard/add chain.
    fn step_outputs(&self, gates: &Matrix, c_prev: &Matrix) -> (Matrix, Matrix, Matrix) {
        let hw = self.hidden_size;
        let n = gates.rows();
        let mut c = c_prev.clone();
        let mut h = Matrix::zeros(n, hw);
        for r in 0..n {
            Self::cell_update_row(gates.row(r), hw, c.row_mut(r));
        }
        let mut tanh_c = c.clone();
        Activation::Tanh.apply_slice(tanh_c.as_mut_slice());
        for r in 0..n {
            Self::hidden_row(gates.row(r), hw, tanh_c.row(r), h.row_mut(r));
        }
        (c, tanh_c, h)
    }

    /// One batch-1 cell step on flat rows through the helper chain of the
    /// reference forward: the gate product (the one-row kernel
    /// `matmul_into` runs, from a zeroed row), the bias add of
    /// `add_row_broadcast`, then `activate_gate_row`, `cell_update_row`,
    /// `tanh` and `hidden_row`. From `z = [x | h_prev]` it writes the
    /// post-activation `gates`, updates `c` (`c_prev` on entry) in place,
    /// and writes `tanh_c` and `h`. The sequence sweeps run it where the
    /// CPU lacks the fused kernel's AVX2 and FMA.
    fn step_scalar(
        w: &Matrix,
        b: &Matrix,
        z: &[f32],
        gates: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let hw = c.len();
        gates.fill(0.0);
        crate::simd::gemm_row(z, 1, z.len(), w.as_slice(), w.cols(), gates);
        for (x, &bj) in gates.iter_mut().zip(b.as_slice()) {
            *x += bj;
        }
        Self::activate_gate_row(gates, hw);
        Self::cell_update_row(gates, hw, c);
        tanh_c.copy_from_slice(c);
        Activation::Tanh.apply_slice(tanh_c);
        Self::hidden_row(gates, hw, tanh_c, h);
    }

    /// The one sequence path behind [`LstmCell::infer_sequence`] and
    /// [`LstmCell::forward_sequence`]: runs the rows of `proj` (one per time
    /// step) from a zero state through one batch-1 step each, leaving the
    /// final state in `sweep.state`. The step is the fused SIMD kernel
    /// where the CPU has AVX2 and FMA, [`LstmCell::step_scalar`] elsewhere;
    /// both are bitwise identical to [`LstmCell::forward_step`]. With
    /// `record`, every step's rows land in `sweep`'s flat buffers for BPTT;
    /// without, row 0 of each is reused.
    fn run_sequence(w: &Matrix, b: &Matrix, proj: &Matrix, sweep: &mut Sweep, record: bool) {
        let steps = proj.rows();
        let iw = proj.cols();
        let hw = b.cols() / 4;
        let rows = if record { steps } else { 1 };
        sweep.z.shape_for_overwrite(rows, iw + hw);
        sweep.gates.shape_for_overwrite(rows, 4 * hw);
        sweep.tanh_c.shape_for_overwrite(rows, hw);
        if record {
            sweep.c_prev.shape_for_overwrite(rows, hw);
        }
        sweep.state.h.resize_to(1, hw);
        sweep.state.c.resize_to(1, hw);
        for t in 0..steps {
            let (zr, r) = if record { (steps - 1 - t, t) } else { (0, 0) };
            let z = sweep.z.row_mut(zr);
            z[..iw].copy_from_slice(proj.row(t));
            z[iw..].copy_from_slice(sweep.state.h.row(0));
            if record {
                sweep
                    .c_prev
                    .row_mut(t)
                    .copy_from_slice(sweep.state.c.row(0));
            }
            let (z, gates) = (sweep.z.row(zr), sweep.gates.row_mut(r));
            let (c, h) = (sweep.state.c.row_mut(0), sweep.state.h.row_mut(0));
            let tanh_c = sweep.tanh_c.row_mut(r);
            if !crate::simd::lstm_cell_step(z, w.as_slice(), b.as_slice(), gates, c, tanh_c, h) {
                Self::step_scalar(w, b, z, gates, c, tanh_c, h);
            }
        }
        sweep.steps = if record { steps } else { 0 };
    }

    /// Runs a whole batch-1 sequence (rows of `proj` = time steps) through
    /// the cell without recording anything for BPTT: the prediction twin of
    /// [`LstmCell::forward_sequence`], on the same step. Produces exactly
    /// the state iterating [`LstmCell::forward_step`] from a zero state
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `proj` is empty or its width is not the cell input size.
    pub fn infer_sequence(&self, proj: &Matrix) -> LstmState {
        assert!(proj.rows() > 0, "LSTM needs at least one time step");
        assert_eq!(proj.cols(), self.input_size, "sequence width mismatch");
        let mut sweep = Sweep::default();
        Self::run_sequence(&self.w, &self.b, proj, &mut sweep, false);
        sweep.state
    }

    /// Runs a whole batch-1 sequence (rows of `proj` = time steps) through
    /// the cell, recording every step's rows in the cell's flat per-sweep
    /// buffers for [`LstmCell::backward_sequence`]; a sweep still pending
    /// is replaced. The buffers are overwritten in place, so steady-state
    /// training allocates nothing. Bitwise identical to iterating
    /// [`LstmCell::forward_step`] from a zero state, which stays as the
    /// allocating reference path.
    ///
    /// The returned state reference is valid until the next forward call on
    /// this cell.
    ///
    /// # Panics
    ///
    /// Panics if `proj` is empty or its width is not the cell input size.
    pub fn forward_sequence(&mut self, proj: &Matrix) -> &LstmState {
        assert!(proj.rows() > 0, "LSTM needs at least one time step");
        assert_eq!(proj.cols(), self.input_size, "sequence width mismatch");
        Self::run_sequence(&self.w, &self.b, proj, &mut self.sweep, true);
        &self.sweep.state
    }

    /// BPTT over the sweep recorded by [`LstmCell::forward_sequence`]:
    /// `dh_last` (`1 x hidden`) is the gradient w.r.t. the final hidden
    /// state, and the per-step input gradients land in `dproj` (row `t` =
    /// step `t`, reshaped in place). Each step computes its gate gradients
    /// eight hidden units per vector where the CPU has AVX (the scalar loop
    /// of [`LstmCell::backward_step_with`] elsewhere) and its input gradient
    /// `da·Wᵀ` through the one-row GEMM kernel; the weight gradient is one
    /// `aᵀb` over the flat buffers after the loop. Parameter gradients and
    /// `dproj` are bitwise identical to the [`LstmCell::backward_step_with`]
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if no recorded sweep is pending or `dh_last` is not
    /// `1 x hidden`.
    pub fn backward_sequence(&mut self, dh_last: &Matrix, dproj: &mut Matrix) {
        let steps = self.sweep.steps;
        assert!(
            steps > 0,
            "LstmCell::backward_sequence without a matching forward_sequence"
        );
        let hw = self.hidden_size;
        let iw = self.input_size;
        assert_eq!(dh_last.shape(), (1, hw), "dh_last must be 1 x hidden");
        let s = &mut self.sweep;
        dproj.shape_for_overwrite(steps, iw);
        s.da.shape_for_overwrite(steps, 4 * hw);
        // The gate weights are constant across the sweep: transpose once.
        self.w.transpose_into(&mut s.w_t);
        s.dh.clear();
        s.dh.extend_from_slice(dh_last.row(0));
        s.dc.clear();
        s.dc.resize(hw, 0.0);
        s.dc_next.resize(hw, 0.0);
        s.dz.resize(iw + hw, 0.0);
        for t in (0..steps).rev() {
            let (gr, cpr, tcr) = (s.gates.row(t), s.c_prev.row(t), s.tanh_c.row(t));
            let da = s.da.row_mut(steps - 1 - t);
            if !crate::simd::lstm_gate_grads(gr, cpr, tcr, &s.dh, &s.dc, da, &mut s.dc_next) {
                Self::gate_grads_row(gr, cpr, tcr, &s.dh, &s.dc, da, &mut s.dc_next);
            }
            // The reference sums the one-row `da` into a zeroed row (`0.0 +
            // x` turns -0.0 into +0.0), then adds it by FMA with factor 1,
            // which rounds exactly like this add.
            for (gb, &x) in self.grad_b.as_mut_slice().iter_mut().zip(&*da) {
                *gb += 0.0 + x;
            }
            s.dz.fill(0.0);
            crate::simd::gemm_row(da, 1, 4 * hw, s.w_t.as_slice(), iw + hw, &mut s.dz);
            dproj.row_mut(t).copy_from_slice(&s.dz[..iw]);
            s.dh.copy_from_slice(&s.dz[iw..]);
            std::mem::swap(&mut s.dc, &mut s.dc_next);
        }
        // Weight-gradient contributions are deferred: `z` and `da` hold
        // every step's rows in processing order (latest step first), so one
        // `aᵀb` accumulation adds exactly the terms per element, in exactly
        // the order, of a per-step rank-1 update, but as a GEMM with a
        // `steps`-deep reduction instead of `steps` rank-1 sweeps over the
        // 4·hidden-wide gradient block.
        self.grad_w.add_matmul_tn(&s.z, &s.da);
        s.steps = 0;
    }

    /// One forward time step with caching for BPTT.
    pub fn forward_step(&mut self, x: &Matrix, state: &LstmState) -> LstmState {
        let z = Matrix::hcat(&[x, &state.h]);
        let gates = self.gates(&z);
        let (c, tanh_c, h) = self.step_outputs(&gates, &state.c);
        self.cache.push(StepCache {
            z,
            gates,
            c_prev: state.c.clone(),
            tanh_c,
        });
        LstmState { h, c }
    }

    /// Back-propagates one time step cached by [`LstmCell::forward_step`]
    /// (most recent cached step first). `dh` and `dc` are gradients w.r.t.
    /// this step's output hidden/cell state, and `w_t` is the transpose of
    /// the gate weights, so one BPTT sweep transposes `W` once instead of
    /// once per time step (the weights do not change mid-sweep). Returns
    /// `(dx, dh_prev, dc_prev)`.
    ///
    /// # Panics
    ///
    /// Panics if no cached step is pending or `w_t` is not the transpose
    /// shape of the gate weights.
    pub fn backward_step_with(
        &mut self,
        dh: &Matrix,
        dc: &Matrix,
        w_t: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let s = self
            .cache
            .pop()
            .expect("LstmCell::backward_step_with without a matching forward_step");
        assert_eq!(
            w_t.shape(),
            (self.w.cols(), self.w.rows()),
            "w_t is not the gate-weight transpose"
        );
        let hw = self.hidden_size;
        let n = dh.rows();
        let mut da = Matrix::zeros(n, 4 * hw);
        let mut dc_prev = Matrix::zeros(n, hw);
        for r in 0..n {
            Self::gate_grads_row(
                s.gates.row(r),
                s.c_prev.row(r),
                s.tanh_c.row(r),
                dh.row(r),
                dc.row(r),
                da.row_mut(r),
                dc_prev.row_mut(r),
            );
        }

        self.grad_w.add_matmul_tn(&s.z, &da);
        self.grad_b.axpy(1.0, &da.sum_rows());

        let dz = da.matmul(w_t);
        let dx = dz.slice_cols(0, self.input_size);
        let dh_prev = dz.slice_cols(self.input_size, self.hidden_size);
        (dx, dh_prev, dc_prev)
    }

    /// Number of forward steps awaiting BPTT: those cached by
    /// [`LstmCell::forward_step`], or else those recorded by the last
    /// [`LstmCell::forward_sequence`].
    pub fn pending_steps(&self) -> usize {
        if self.cache.is_empty() {
            self.sweep.steps
        } else {
            self.cache.len()
        }
    }

    /// Drops cached and recorded forward state.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.sweep.steps = 0;
    }
}

impl Trainable for LstmCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// The paper's predictor topology: input hidden layer -> LSTM cell layer ->
/// output hidden layer, unrolled over a fixed look-back window.
///
/// The input/output layers use normal(0, 1) weight init with constant 0.1
/// bias, matching Section VI-A.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmNetwork {
    input_layer: Dense,
    cell: LstmCell,
    output_layer: Dense,
    /// Stacked per-step input-projection gradients, recycled across
    /// [`LstmNetwork::backward_seq`] sweeps.
    #[serde(skip)]
    dproj: Matrix,
}

impl LstmNetwork {
    /// Creates a network mapping sequences of `input_size`-wide vectors to a
    /// single `output_size`-wide prediction from the final hidden state.
    pub fn new(
        input_size: usize,
        proj_size: usize,
        hidden_size: usize,
        output_size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight_init = Init::Normal {
            mean: 0.0,
            std: 1.0,
        };
        let bias_init = Init::Constant(0.1);
        Self {
            input_layer: Dense::with_bias(
                input_size,
                proj_size,
                Activation::Tanh,
                weight_init,
                bias_init,
                rng,
            ),
            cell: LstmCell::new(proj_size, hidden_size, rng),
            output_layer: Dense::with_bias(
                hidden_size,
                output_size,
                Activation::Linear,
                weight_init,
                bias_init,
                rng,
            ),
            dproj: Matrix::default(),
        }
    }

    /// The paper's exact configuration: scalar in/out, 30 hidden units.
    pub fn paper_predictor(rng: &mut impl Rng) -> Self {
        Self::new(1, 1, 30, 1, rng)
    }

    /// Input width per time step.
    pub fn input_size(&self) -> usize {
        self.input_layer.input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.output_layer.output_size()
    }

    /// Hidden width of the LSTM cell.
    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    /// Inference over a single (batch-1) sequence whose time steps are the
    /// rows of `seq`. The non-recurrent input projection runs as **one**
    /// GEMM over all steps (it is applied independently per step, and the
    /// kernels are row-independent); only the recurrent cell iterates, in
    /// the fused [`LstmCell::infer_sequence`] sweep. Bitwise identical to
    /// [`LstmNetwork::forward_seq`]'s output.
    ///
    /// # Panics
    ///
    /// Panics if `seq` has no rows.
    pub fn infer_seq(&self, seq: &Matrix) -> Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.infer(seq);
        let state = self.cell.infer_sequence(&proj);
        self.output_layer.infer(&state.h)
    }

    /// Training forward pass over a single (batch-1) sequence whose time
    /// steps are the rows of `seq`: the input projection is one forward
    /// call (one cache entry) over all rows, the cell runs the fused
    /// [`LstmCell::forward_sequence`] sweep, and every temporary lives in
    /// recycled workspace buffers, the returned prediction included (valid
    /// until the next forward call). Bitwise identical to
    /// [`LstmNetwork::forward_seq_reference`], the retained allocating
    /// path. Must be paired with [`LstmNetwork::backward_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `seq` has no rows.
    pub fn forward_seq(&mut self, seq: &Matrix) -> &Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.forward_ws(seq);
        let state = self.cell.forward_sequence(proj);
        self.output_layer.forward_ws(&state.h)
    }

    /// The original allocating `forward_seq` body, retained as the
    /// reference implementation the workspace path is tested against.
    #[doc(hidden)]
    pub fn forward_seq_reference(&mut self, seq: &Matrix) -> Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.forward(seq);
        let mut state = LstmState::zeros(1, self.cell.hidden_size());
        for t in 0..proj.rows() {
            state = self.cell.forward_step(&proj.row_matrix(t), &state);
        }
        self.output_layer.forward(&state.h)
    }

    /// BPTT for the most recent [`LstmNetwork::forward_seq`] call. The
    /// per-step input-projection gradients are stacked (in forward time
    /// order, matching the batched forward's row order) and back-propagated
    /// through the input layer in one call; nothing upstream consumes the
    /// input gradient, so it is never materialized. The whole sweep runs in
    /// recycled workspace buffers; gradients are bitwise identical to
    /// [`LstmNetwork::backward_seq_reference`], the retained allocating
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is pending.
    pub fn backward_seq(&mut self, grad_out: &Matrix) {
        let steps = self.cell.pending_steps();
        assert!(
            steps > 0,
            "LstmNetwork::backward_seq without a forward pass"
        );
        let dh = self.output_layer.backward_ws(grad_out);
        self.cell.backward_sequence(dh, &mut self.dproj);
        self.input_layer.backward_params_only_ws(&self.dproj);
    }

    /// The original allocating `backward_seq` body, retained as the
    /// reference implementation the workspace path is tested against.
    /// Pair with [`LstmNetwork::forward_seq_reference`].
    #[doc(hidden)]
    pub fn backward_seq_reference(&mut self, grad_out: &Matrix) {
        let mut dh = self.output_layer.backward(grad_out);
        let steps = self.cell.pending_steps();
        assert!(
            steps > 0,
            "LstmNetwork::backward_seq without a forward pass"
        );
        let mut dc = Matrix::zeros(1, self.cell.hidden_size());
        let w_t = self.cell.w.transpose();
        let mut dproj = Matrix::zeros(steps, self.cell.input_size());
        for t in (0..steps).rev() {
            let (dx, dh_prev, dc_prev) = self.cell.backward_step_with(&dh, &dc, &w_t);
            dproj.row_mut(t).copy_from_slice(dx.row(0));
            dh = dh_prev;
            dc = dc_prev;
        }
        self.input_layer.backward_params_only(&dproj);
    }

    /// Drops cached forward state in all layers.
    pub fn clear_cache(&mut self) {
        self.input_layer.clear_cache();
        self.cell.clear_cache();
        self.output_layer.clear_cache();
    }
}

impl Trainable for LstmNetwork {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.input_layer.visit_params(f);
        self.cell.visit_params(f);
        self.output_layer.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.input_layer.zero_grad();
        self.cell.zero_grad();
        self.output_layer.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A batch-1 scalar sequence: one row per time step.
    fn scalar_seq(values: &[f32]) -> Matrix {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Hidden widths of the bitwise pins: 3 and 8 give the vector kernels
    /// masked tails, the paper's 30 has the gate vector (lanes 88-95) where
    /// sigmoid and tanh lanes mix, and 33 has more than 16 gate vectors.
    const PIN_WIDTHS: [usize; 4] = [3, 8, 30, 33];

    /// Sequence length of the pins: the paper's look-back at its width.
    fn pin_steps(hidden: usize, short: usize) -> usize {
        if hidden == 30 {
            35
        } else {
            short
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Every parameter (or, with `grads`, every gradient) of `net`, bitwise.
    fn param_bits(net: &mut LstmNetwork, grads: bool) -> Vec<u32> {
        let mut out = Vec::new();
        net.visit_params(&mut |p, g| out.extend(bits((if grads { g } else { p }).as_slice())));
        out
    }

    #[test]
    fn seq_paths_match_step_by_step_paths() {
        for hidden in PIN_WIDTHS {
            let mut rng = StdRng::seed_from_u64(21);
            let mut net = LstmNetwork::new(1, 1, hidden, 1, &mut rng);
            let values: Vec<f32> = (0..pin_steps(hidden, 20))
                .map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.4)
                .collect();
            let seq = scalar_seq(&values);
            // The allocating reference iterates `LstmCell::forward_step`; the
            // fused inference and training sweeps must both equal it bitwise.
            let reference = bits(net.forward_seq_reference(&seq).as_slice());
            net.clear_cache();
            assert_eq!(
                bits(net.infer_seq(&seq).as_slice()),
                reference,
                "h = {hidden}"
            );
            let trained = bits(net.forward_seq(&seq).as_slice());
            net.clear_cache();
            assert_eq!(trained, reference, "h = {hidden}");
        }
    }

    #[test]
    fn workspace_seq_training_is_bitwise_identical_to_reference() {
        for hidden in PIN_WIDTHS {
            let mut rng = StdRng::seed_from_u64(31);
            let mut reference = LstmNetwork::new(1, 2, hidden, 1, &mut rng);
            let mut ws = reference.clone();
            let mut adam_r = Adam::new(1e-2);
            let mut adam_w = Adam::new(1e-2);
            // Several optimizer steps so later rounds run on dirty flat
            // buffers and workspace buffers, and weight updates compound.
            for step in 0..8 {
                let values: Vec<f32> = (0..pin_steps(hidden, 12))
                    .map(|i| ((i * 5 + step * 3) % 11) as f32 / 11.0 - 0.3)
                    .collect();
                let seq = Matrix::from_vec(values.len(), 1, values);
                let target = Matrix::row_vector(&[0.25]);

                reference.zero_grad();
                let pred_r = reference.forward_seq_reference(&seq);
                ws.zero_grad();
                let pred_w = ws.forward_seq(&seq);
                assert_eq!(
                    bits(pred_r.as_slice()),
                    bits(pred_w.as_slice()),
                    "h = {hidden}, step {step}: seq forward diverged"
                );

                let dy = Loss::Mse.gradient(&pred_r, &target);
                reference.backward_seq_reference(&dy);
                ws.backward_seq(&dy);
                assert_eq!(
                    param_bits(&mut reference, true),
                    param_bits(&mut ws, true),
                    "h = {hidden}, step {step}: BPTT gradients diverged"
                );

                adam_r.step(&mut reference);
                adam_w.step(&mut ws);
                assert_eq!(
                    param_bits(&mut reference, false),
                    param_bits(&mut ws, false),
                    "h = {hidden}, step {step}: updated weights diverged"
                );
            }
        }
    }

    #[test]
    fn fused_kernels_match_their_scalar_fallbacks_bitwise() {
        // CI hosts always take the vector kernels, so the scalar step and
        // gate-gradient loop run here against them explicitly. Values reach
        // every tanh branch (polynomial, exp, saturated) and include zero
        // inputs, which the gate product skips.
        let val = |i: usize, scale: f32| ((i * 37 + 11) % 97) as f32 / 97.0 * scale - scale / 2.0;
        for hidden in [1, 3, 8, 30, 33] {
            let (iw, gw) = (2, 4 * hidden);
            let w = Matrix::from_vec(
                iw + hidden,
                gw,
                (0..(iw + hidden) * gw).map(|i| val(i, 3.0)).collect(),
            );
            let b = Matrix::from_vec(1, gw, (0..gw).map(|i| val(i + 5, 4.0)).collect());
            let z: Vec<f32> = (0..iw + hidden)
                .map(|i| if i % 4 == 1 { 0.0 } else { val(i + 3, 2.0) })
                .collect();
            let c0: Vec<f32> = (0..hidden).map(|i| val(i + 7, 24.0)).collect();
            let run = |fused: bool| {
                let (mut gates, mut c) = (vec![0.0; gw], c0.clone());
                let (mut tanh_c, mut h) = (vec![0.0; hidden], vec![0.0; hidden]);
                if fused {
                    let ran = crate::simd::lstm_cell_step(
                        &z,
                        w.as_slice(),
                        b.as_slice(),
                        &mut gates,
                        &mut c,
                        &mut tanh_c,
                        &mut h,
                    );
                    if !ran {
                        return None;
                    }
                } else {
                    LstmCell::step_scalar(&w, &b, &z, &mut gates, &mut c, &mut tanh_c, &mut h);
                }
                Some([bits(&gates), bits(&c), bits(&tanh_c), bits(&h)])
            };
            if let Some(fused) = run(true) {
                assert_eq!(Some(fused), run(false), "step, h = {hidden}");
            }

            let gates: Vec<f32> = (0..gw).map(|i| val(i, 1.0) + 0.5).collect();
            let tanh_c: Vec<f32> = (0..hidden).map(|i| val(i + 1, 2.0)).collect();
            let dh: Vec<f32> = (0..hidden).map(|i| val(i + 2, 0.6)).collect();
            let dc: Vec<f32> = (0..hidden).map(|i| val(i + 9, 0.8)).collect();
            let grads = |fused: bool| {
                let (mut da, mut dc_prev) = (vec![0.0; gw], vec![0.0; hidden]);
                if fused {
                    if !crate::simd::lstm_gate_grads(
                        &gates,
                        &c0,
                        &tanh_c,
                        &dh,
                        &dc,
                        &mut da,
                        &mut dc_prev,
                    ) {
                        return None;
                    }
                } else {
                    LstmCell::gate_grads_row(&gates, &c0, &tanh_c, &dh, &dc, &mut da, &mut dc_prev);
                }
                Some([bits(&da), bits(&dc_prev)])
            };
            if let Some(fused) = grads(true) {
                assert_eq!(Some(fused), grads(false), "gate grads, h = {hidden}");
            }
        }
    }

    #[test]
    fn paper_shape_training_bits_are_pinned() {
        // The production LSTM path at the paper's shape (1 -> 1 -> 30 -> 1),
        // pinned against constants recorded on an earlier commit: a kernel
        // change that moves the reference and the fused path alike passes
        // every same-commit pin but fails here. The parameters come from a
        // closed-form integer pattern (no libm), so the bits do not depend
        // on the platform.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = LstmNetwork::paper_predictor(&mut rng);
        let mut idx = 0usize;
        net.visit_params(&mut |p, _| {
            for x in p.as_mut_slice() {
                *x = ((idx * 7919 + 13) % 257) as f32 / 257.0 - 0.5;
                idx += 1;
            }
        });
        let window = |step: usize| {
            let values: Vec<f32> = (0..35)
                .map(|i| ((i * 5 + step * 3) % 17) as f32 / 17.0)
                .collect();
            Matrix::from_vec(35, 1, values)
        };
        let mut adam = Adam::new(2e-3);
        for step in 0..20 {
            let target = Matrix::row_vector(&[((step * 7) % 11) as f32 / 11.0]);
            net.zero_grad();
            let pred = net.forward_seq(&window(step));
            let dy = Loss::Mse.gradient(pred, &target);
            net.backward_seq(&dy);
            adam.step(&mut net);
        }
        let prediction = net.infer_seq(&window(20)).as_slice()[0].to_bits();
        let mut fold = 0u32;
        net.visit_params(&mut |p, _| {
            for x in p.as_slice() {
                fold = fold.rotate_left(5) ^ x.to_bits();
            }
        });
        assert_eq!(prediction, 0x3f00_327f, "final prediction bits moved");
        assert_eq!(fold, 0x9e9e_3387, "trained parameter bits moved");
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = LstmNetwork::new(1, 1, 3, 1, &mut rng);
        let seq = scalar_seq(&[0.3, -0.1, 0.7]);
        let target = Matrix::row_vector(&[0.5]);

        net.zero_grad();
        let pred = net.forward_seq(&seq);
        let dy = Loss::Mse.gradient(pred, &target);
        net.backward_seq(&dy);

        let mut analytic: Vec<f32> = Vec::new();
        net.visit_params(&mut |_, g| analytic.extend_from_slice(g.as_slice()));

        let mut shapes = Vec::new();
        net.visit_params(&mut |p, _| shapes.push(p.shape()));

        let eps = 1e-3_f32;
        let mut idx = 0;
        let mut max_err = 0.0_f32;
        for (tensor_i, &(r, c)) in shapes.iter().enumerate() {
            for k in 0..r * c {
                let nudge = |net: &mut LstmNetwork, delta: f32| {
                    let mut t = 0;
                    net.visit_params(&mut |p, _| {
                        if t == tensor_i {
                            p.as_mut_slice()[k] += delta;
                        }
                        t += 1;
                    });
                };
                nudge(&mut net, eps);
                let up = Loss::Mse.value(&net.infer_seq(&seq), &target);
                nudge(&mut net, -2.0 * eps);
                let down = Loss::Mse.value(&net.infer_seq(&seq), &target);
                nudge(&mut net, eps);
                let numeric = (up - down) / (2.0 * eps);
                max_err = max_err.max((numeric - analytic[idx]).abs());
                idx += 1;
            }
        }
        assert!(max_err < 5e-3, "max BPTT gradient error {max_err}");
    }

    #[test]
    fn learns_a_simple_recurrence() {
        // Predict the next element of an alternating +0.5/-0.5 sequence,
        // which requires at least one step of memory.
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = LstmNetwork::new(1, 1, 8, 1, &mut rng);
        let mut adam = Adam::new(5e-3);
        let window = 6;
        let series: Vec<f32> = (0..200)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();

        let mut final_loss = f32::MAX;
        for epoch in 0..60 {
            let mut total = 0.0;
            let mut count = 0;
            for start in (0..series.len() - window - 1).step_by(7) {
                let seq = scalar_seq(&series[start..start + window]);
                let target = Matrix::row_vector(&[series[start + window]]);
                net.zero_grad();
                let pred = net.forward_seq(&seq);
                total += Loss::Mse.value(pred, &target);
                count += 1;
                let dy = Loss::Mse.gradient(pred, &target);
                net.backward_seq(&dy);
                adam.step(&mut net);
            }
            final_loss = total / count as f32;
            if epoch == 0 {
                assert!(final_loss.is_finite());
            }
        }
        assert!(final_loss < 0.01, "final loss {final_loss} too high");
    }

    #[test]
    fn paper_predictor_has_30_hidden_units() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = LstmNetwork::paper_predictor(&mut rng);
        assert_eq!(net.hidden_size(), 30);
        assert_eq!(net.input_size(), 1);
        assert_eq!(net.output_size(), 1);
    }

    #[test]
    fn state_starts_at_zero() {
        let s = LstmState::zeros(2, 3);
        assert!(s.h.as_slice().iter().all(|&x| x == 0.0));
        assert!(s.c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one time step")]
    fn empty_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = LstmNetwork::new(1, 1, 2, 1, &mut rng);
        let _ = net.infer_seq(&Matrix::zeros(0, 1));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = LstmNetwork::new(1, 1, 4, 1, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let restored: LstmNetwork = serde_json::from_str(&json).unwrap();
        let seq = scalar_seq(&[0.2, 0.4, 0.1]);
        assert_eq!(net.infer_seq(&seq), restored.infer_seq(&seq));
    }
}
