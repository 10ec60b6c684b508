//! The global tier's Q-network: shared autoencoder + shared Sub-Q networks
//! (the paper's Fig. 6).
//!
//! For each group `k`, the Sub-Q network estimates Q values for allocating
//! the job to each server in `G_k`. Its input is the *raw* state of its own
//! group `g_k`, the job state `s_j`, and the autoencoder-compressed codes
//! `ḡ_{k'}` of every *other* group — the dimension difference expresses
//! that the target group's own state matters most. One parameter set is
//! shared by all `K` autoencoder applications and one by all `K` Sub-Q
//! applications; gradients from every application accumulate into the
//! shared weights (the crate's cache-stack layers make this exact).
//!
//! States enter the batched sweeps as flat rows ([`StateRow`]). The codes
//! `ḡ_k` are a pure function of a row and the encoder's weights, and the
//! paper freezes the encoder once pre-trained, so a caller may memoize them
//! beside the row, stamped with the network's [`EncoderGeneration`]; the
//! sweeps then run the encoder only on rows whose stamp is not their own.

use crate::state::{GlobalState, StateEncoder};
use hierdrl_neural::activation::Activation;
use hierdrl_neural::autoencoder::Autoencoder;
use hierdrl_neural::dense::Mlp;
use hierdrl_neural::init::Init;
use hierdrl_neural::matrix::Matrix;
use hierdrl_neural::optim::{clip_grad_norm, Adam, Optimizer, Trainable};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hyper-parameters of the grouped Q-network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QNetworkConfig {
    /// Width of the autoencoder code (paper: 15).
    pub code_size: usize,
    /// Width of the autoencoder's hidden layer (paper: 30).
    pub ae_hidden: usize,
    /// Width of the Sub-Q hidden layer (paper: 128 ELUs).
    pub hidden: usize,
    /// Adam learning rate for Q-fitting.
    pub learning_rate: f32,
    /// Global gradient-norm clip (paper: 10).
    pub grad_clip: f32,
    /// Back-propagate Q-loss into the encoder (extension; the paper
    /// pre-trains the autoencoder offline and we default to freezing it).
    pub fine_tune_encoder: bool,
}

impl Default for QNetworkConfig {
    fn default() -> Self {
        Self {
            code_size: 15,
            ae_hidden: 30,
            hidden: 128,
            learning_rate: 1e-3,
            grad_clip: 10.0,
            fine_tune_encoder: false,
        }
    }
}

/// Identifies one setting of the shared encoder's weights. A network draws
/// a fresh generation whenever its encoder changes (autoencoder
/// pre-training, every fine-tuning step) and a clone carries it along, so
/// two equal generations mean bitwise-equal codes for every state. Callers
/// that memoize codes stamp them with the generation that computed them
/// (see [`StateRow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderGeneration(u64);

impl EncoderGeneration {
    /// The stamp of codes that were never computed: no network carries it.
    pub const NONE: Self = Self(0);

    /// A generation no network in this process has carried before. Only
    /// equality is ever observed, so the values never reach a report.
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Draws a fresh generation: a network restored from JSON (the generation
/// is not serialized) never matches codes memoized under another.
impl Default for EncoderGeneration {
    fn default() -> Self {
        Self::fresh()
    }
}

/// One state as the batched sweeps read it: the flat row
/// `[g_1 | … | g_K | s_j]` and, optionally, its `K` encoder codes memoized
/// by the caller with the generation of the encoder that computed them. A
/// sweep reuses the codes only when that generation is its own network's
/// and runs the encoder on the row otherwise, so a stale memo costs time
/// but can never change a value.
#[derive(Debug, Clone, Copy)]
pub struct StateRow<'a> {
    /// The flat state row (see [`GlobalState`]).
    pub state: &'a [f32],
    /// The `K` codes, group-major (`K * code_size` values; empty if none).
    pub codes: &'a [f32],
    /// The encoder generation that computed `codes`.
    pub generation: EncoderGeneration,
}

impl<'a> StateRow<'a> {
    /// A row without memoized codes.
    pub fn uncoded(state: &'a [f32]) -> Self {
        Self {
            state,
            codes: &[],
            generation: EncoderGeneration::NONE,
        }
    }
}

impl<'a> From<&'a GlobalState> for StateRow<'a> {
    fn from(s: &'a GlobalState) -> Self {
        Self::uncoded(s.as_slice())
    }
}

/// A training sample borrowed from wherever its state lives (the
/// allocator's replay arena): fit `Q(state, action)` to `target`.
#[derive(Debug, Clone, Copy)]
pub struct QSample<'a> {
    /// The state, with its memoized codes if any.
    pub state: StateRow<'a>,
    /// Global action index (server index).
    pub action: usize,
    /// Target Q value (from the SMDP update rule).
    pub target: f32,
}

/// Reusable per-step buffers for the batched inference/training hot path:
/// the stacked group rows fed to the shared encoder, the resulting codes,
/// the assembled Sub-Q input rows, and the ping-pong activation scratch.
/// Purely a memory-reuse device — every value is fully overwritten before
/// use, so results never depend on the buffers' previous contents.
#[derive(Debug, Clone, Default)]
struct QWorkspace {
    /// Group blocks of the rows without usable memoized codes.
    group_rows: Matrix,
    /// The shared encoder's output for `group_rows`.
    fresh_codes: Matrix,
    /// Every swept row's `K` codes, one row per state.
    codes: Matrix,
    inputs: Matrix,
    q: Matrix,
    scratch: Matrix,
    /// Batched output gradient for the training step (scattered per-sample
    /// errors), recycled across minibatches.
    dy: Matrix,
}

/// The weight-shared, autoencoder-compressed Q-network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupedQNetwork {
    autoencoder: Autoencoder,
    sub_q: Mlp,
    adam: Adam,
    config: QNetworkConfig,
    num_groups: usize,
    group_size: usize,
    group_width: usize,
    job_width: usize,
    #[serde(skip)]
    generation: EncoderGeneration,
    #[serde(skip)]
    workspace: RefCell<QWorkspace>,
}

impl GroupedQNetwork {
    /// Builds the network for the given state layout.
    pub fn new(layout: &StateEncoder, config: QNetworkConfig, rng: &mut impl Rng) -> Self {
        let group_width = layout.group_width();
        let job_width = layout.job_width();
        let num_groups = layout.num_groups();
        let input = Self::input_width_for(group_width, job_width, num_groups, config.code_size);
        let autoencoder = Autoencoder::new(
            &[group_width, config.ae_hidden, config.code_size],
            Activation::ELU,
            rng,
        );
        let sub_q = Mlp::new(
            &[input, config.hidden, layout.group_size()],
            Activation::ELU,
            Activation::Linear,
            Init::HeNormal,
            rng,
        );
        Self {
            autoencoder,
            sub_q,
            adam: Adam::new(config.learning_rate),
            config,
            num_groups,
            group_size: layout.group_size(),
            group_width,
            job_width,
            generation: EncoderGeneration::fresh(),
            workspace: RefCell::new(QWorkspace::default()),
        }
    }

    fn input_width_for(group_width: usize, job_width: usize, k: usize, code: usize) -> usize {
        group_width + job_width + (k.saturating_sub(1)) * code
    }

    /// Width of the Sub-Q input vector.
    pub fn input_width(&self) -> usize {
        Self::input_width_for(
            self.group_width,
            self.job_width,
            self.num_groups,
            self.config.code_size,
        )
    }

    /// Width of one state's memoized codes (`K * code_size`).
    pub fn code_width(&self) -> usize {
        self.num_groups * self.config.code_size
    }

    /// Total action count (`K * group_size`, including padding slots).
    pub fn num_actions(&self) -> usize {
        self.num_groups * self.group_size
    }

    /// The configuration.
    pub fn config(&self) -> &QNetworkConfig {
        &self.config
    }

    /// The shared autoencoder (e.g. for inspecting reconstruction error).
    pub fn autoencoder(&self) -> &Autoencoder {
        &self.autoencoder
    }

    /// The generation of the shared encoder's current weights (see
    /// [`EncoderGeneration`]).
    pub fn encoder_generation(&self) -> EncoderGeneration {
        self.generation
    }

    /// Group `g`'s block of a flat state row.
    fn group_block<'s>(&self, state: &'s [f32], g: usize) -> &'s [f32] {
        &state[g * self.group_width..(g + 1) * self.group_width]
    }

    /// The job block of a flat state row.
    fn job_block<'s>(&self, state: &'s [f32]) -> &'s [f32] {
        &state[self.num_groups * self.group_width..]
    }

    /// Encodes every group state into its low-dimensional code.
    fn codes(&self, state: &[f32]) -> Vec<Matrix> {
        (0..self.num_groups)
            .map(|k| {
                self.autoencoder
                    .encode(&Matrix::row_vector(self.group_block(state, k)))
            })
            .collect()
    }

    /// Builds the Sub-Q input row for group `k`: `[g_k | s_j | ḡ_{k'≠k}]`.
    fn sub_q_input(&self, state: &[f32], k: usize, codes: &[Matrix]) -> Matrix {
        let g_k = Matrix::row_vector(self.group_block(state, k));
        let job = Matrix::row_vector(self.job_block(state));
        let mut parts: Vec<&Matrix> = vec![&g_k, &job];
        for (k2, code) in codes.iter().enumerate() {
            if k2 != k {
                parts.push(code);
            }
        }
        Matrix::hcat(&parts)
    }

    /// Leaves every row's `K` codes in `ws.codes` (row `i` = state `i`,
    /// group-major). A row whose memo carries this network's generation
    /// contributes its stored codes; the group blocks of all other rows go
    /// through one shared-encoder GEMM. Row independence makes the two
    /// sources bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if a state row has the wrong width.
    fn gather_codes(&self, rows: &[StateRow<'_>], ws: &mut QWorkspace) {
        let code_w = self.code_width();
        let groups_w = self.num_groups * self.group_width;
        let state_w = groups_w + self.job_width;
        let memo_hit = |r: &StateRow<'_>| r.generation == self.generation;
        let stale = rows.iter().filter(|r| !memo_hit(r)).count();
        if stale > 0 {
            ws.group_rows
                .resize_to(stale * self.num_groups, self.group_width);
            let blocks = ws.group_rows.as_mut_slice().chunks_exact_mut(groups_w);
            for (dst, r) in blocks.zip(rows.iter().filter(|r| !memo_hit(r))) {
                dst.copy_from_slice(&r.state[..groups_w]);
            }
            self.autoencoder
                .encode_into(&ws.group_rows, &mut ws.fresh_codes, &mut ws.scratch);
        }
        ws.codes.resize_to(rows.len(), code_w);
        let mut fresh = ws.fresh_codes.as_slice().chunks_exact(code_w);
        for (dst, r) in ws.codes.as_mut_slice().chunks_exact_mut(code_w).zip(rows) {
            assert_eq!(r.state.len(), state_w, "state row width mismatch");
            let src = if memo_hit(r) {
                r.codes
            } else {
                fresh.next().expect("one fresh code block per stale row")
            };
            dst.copy_from_slice(src);
        }
    }

    /// Writes one Sub-Q input row `[g_g | s_j | ḡ_{g'≠g}]` per `(row,
    /// group)` head, in order, into `ws.inputs` (`count` heads), reading
    /// codes from `ws.codes` (filled by [`Self::gather_codes`]).
    fn fill_inputs(
        &self,
        rows: &[StateRow<'_>],
        heads: impl Iterator<Item = (usize, usize)>,
        count: usize,
        ws: &mut QWorkspace,
    ) {
        let code_w = self.config.code_size;
        let width = self.input_width();
        ws.inputs.resize_to(count, width);
        let dsts = ws.inputs.as_mut_slice().chunks_exact_mut(width);
        for (dst, (i, g)) in dsts.zip(heads) {
            let state = rows[i].state;
            let codes = ws.codes.row(i);
            let (own, rest) = dst.split_at_mut(self.group_width);
            own.copy_from_slice(self.group_block(state, g));
            let (job, others) = rest.split_at_mut(self.job_width);
            job.copy_from_slice(self.job_block(state));
            let (before, after) = others.split_at_mut(g * code_w);
            before.copy_from_slice(&codes[..g * code_w]);
            after.copy_from_slice(&codes[(g + 1) * code_w..]);
        }
    }

    /// Runs the shared encoder over one flat state row's `K` group blocks,
    /// writing the codes (group-major, [`GroupedQNetwork::code_width`]
    /// values) into `codes` — what a caller memoizes beside the row,
    /// stamped with [`GroupedQNetwork::encoder_generation`].
    ///
    /// # Panics
    ///
    /// Panics if the row or `codes` has the wrong width.
    pub fn encode_codes(&self, state: &[f32], codes: &mut [f32]) {
        let ws = &mut *self.workspace.borrow_mut();
        self.gather_codes(&[StateRow::uncoded(state)], ws);
        codes.copy_from_slice(ws.codes.row(0));
    }

    /// Q estimates for all `K * group_size` actions (padding slots
    /// included; callers mask indices `>= M`).
    pub fn q_values(&self, s: &GlobalState) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_actions());
        self.q_values_batch(&[StateRow::from(s)], |_, q| out.extend_from_slice(q));
        out
    }

    /// Q estimates for every row, batched: one shared-encoder GEMM over the
    /// group rows without usable memoized codes and one Sub-Q GEMM over
    /// all `B * K` input rows, instead of `B * 2K` single-row passes.
    /// `sink(i, q)` receives row `i`'s `K * group_size` values (padding
    /// included) straight from the workspace, in row order; it must not
    /// start another sweep on this network (the workspace is borrowed).
    /// Per-state results are bitwise identical to
    /// [`GroupedQNetwork::q_values_reference`] because every kernel in the
    /// neural substrate is row-independent with in-order accumulation (see
    /// the batched-equivalence test suite).
    pub fn q_values_batch(&self, rows: &[StateRow<'_>], mut sink: impl FnMut(usize, &[f32])) {
        if rows.is_empty() {
            return;
        }
        let k = self.num_groups;
        let ws = &mut *self.workspace.borrow_mut();
        self.gather_codes(rows, ws);
        let heads = (0..rows.len() * k).map(|r| (r / k, r % k));
        self.fill_inputs(rows, heads, rows.len() * k, ws);
        self.sub_q
            .infer_into(&ws.inputs, &mut ws.q, &mut ws.scratch);
        // Rows are (state, group)-major, so each state's K output rows
        // concatenate into exactly the per-group q_values layout.
        for (i, q) in ws.q.as_slice().chunks_exact(self.num_actions()).enumerate() {
            sink(i, q);
        }
    }

    /// The SMDP target sweep over `(state, action, next_state)`
    /// transitions: `Q(state, action)` and `max_{a < valid_actions}
    /// Q(next_state, a)` for each, passed to `sink(i, q_taken, max_next)`
    /// straight from the workspace (the sink must not start another sweep
    /// on this network). One shared-encoder GEMM covers every row without usable
    /// memoized codes, and one Sub-Q GEMM covers one row per `state` (only
    /// the taken action's group: the other `K-1` would be wasted work) plus
    /// all `K` rows per `next_state`. Each value is bitwise identical to
    /// the matching entry (or prefix maximum) of `q_values` (row
    /// independence).
    ///
    /// # Panics
    ///
    /// Panics if an action index or `valid_actions` is out of range.
    pub fn target_values(
        &self,
        items: &[(StateRow<'_>, usize, StateRow<'_>)],
        valid_actions: usize,
        mut sink: impl FnMut(usize, f32, f32),
    ) {
        let n = items.len();
        if n == 0 {
            return;
        }
        let k = self.num_groups;
        let ws = &mut *self.workspace.borrow_mut();
        let rows: Vec<StateRow<'_>> = items
            .iter()
            .map(|t| t.0)
            .chain(items.iter().map(|t| t.2))
            .collect();
        self.gather_codes(&rows, ws);
        let taken = items.iter().enumerate().map(|(i, &(_, action, _))| {
            assert!(action < self.num_actions(), "action {action} out of range");
            (i, action / self.group_size)
        });
        let next = (0..n * k).map(|r| (n + r / k, r % k));
        self.fill_inputs(&rows, taken.chain(next), n + n * k, ws);
        self.sub_q
            .infer_into(&ws.inputs, &mut ws.q, &mut ws.scratch);
        let (taken_q, next_q) = ws.q.as_slice().split_at(n * self.group_size);
        let next_q = next_q.chunks_exact(self.num_actions());
        for (i, (&(_, action, _), nq)) in items.iter().zip(next_q).enumerate() {
            let q_taken = taken_q[i * self.group_size + action % self.group_size];
            sink(i, q_taken, Self::max_q_of(nq, valid_actions));
        }
    }

    /// The retained **unbatched** reference for [`GroupedQNetwork::q_values`]:
    /// `K` single-row encoder passes and `K` single-row Sub-Q passes. Kept
    /// (test-only) so the equivalence suite can assert the batched hot path
    /// is bitwise identical; production code never calls it.
    #[doc(hidden)]
    pub fn q_values_reference(&self, s: &GlobalState) -> Vec<f32> {
        let state = s.as_slice();
        let codes = self.codes(state);
        let mut out = Vec::with_capacity(self.num_actions());
        for k in 0..self.num_groups {
            let input = self.sub_q_input(state, k, &codes);
            let q = self.sub_q.infer(&input);
            out.extend_from_slice(q.row(0));
        }
        out
    }

    /// `max_a Q(s, a)` over the first `valid_actions` entries of a Q vector
    /// (the shared-evaluation path: callers that already hold `q_values`
    /// output avoid re-running the encoder sweep).
    ///
    /// # Panics
    ///
    /// Panics if `valid_actions` is zero or exceeds the vector length.
    pub fn max_q_of(q: &[f32], valid_actions: usize) -> f32 {
        assert!(
            valid_actions > 0 && valid_actions <= q.len(),
            "valid_actions {valid_actions} out of range"
        );
        q[..valid_actions]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// `max_a Q(s, a)` over the first `valid_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `valid_actions` is zero or exceeds the action count.
    pub fn max_q(&self, s: &GlobalState, valid_actions: usize) -> f32 {
        assert!(
            valid_actions <= self.num_actions(),
            "valid_actions {valid_actions} out of range"
        );
        Self::max_q_of(&self.q_values(s), valid_actions)
    }

    /// Pre-trains the shared autoencoder on observed group states
    /// (rows = samples of width `group_width`), returning the final epoch's
    /// reconstruction loss. The encoder changes, so the network draws a
    /// new [`EncoderGeneration`].
    ///
    /// # Panics
    ///
    /// Panics if the sample width does not match the group width.
    pub fn pretrain_autoencoder(
        &mut self,
        group_states: &Matrix,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
    ) -> f32 {
        assert_eq!(
            group_states.cols(),
            self.group_width,
            "autoencoder samples must have width {}",
            self.group_width
        );
        let mut adam = Adam::new(learning_rate);
        let loss = self
            .autoencoder
            .fit(group_states, epochs, batch_size, &mut adam);
        self.generation = EncoderGeneration::fresh();
        loss
    }

    /// One fitted-Q training step over a minibatch: regresses the chosen
    /// actions' outputs onto the stored targets with MSE, clips the global
    /// gradient norm, and applies Adam. Returns the mean squared error.
    ///
    /// With the (default) frozen encoder the whole minibatch runs as one
    /// Sub-Q forward/backward over the borrowed samples, reusing each
    /// sample's memoized codes when they carry this network's generation
    /// (one shared-encoder GEMM covers the rest), with the per-sample error
    /// scattered into the batched output gradient — bitwise identical to
    /// [`GroupedQNetwork::train_batch_reference`]. A fine-tuning step
    /// changes the encoder and so draws a new [`EncoderGeneration`].
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an action index is out of range.
    pub fn train_batch(&mut self, samples: &[QSample<'_>]) -> f32 {
        self.check_batch(samples);
        self.sub_q.zero_grad();
        self.autoencoder.zero_grad();
        let n = samples.len() as f32;
        let mut loss = 0.0f32;

        if self.config.fine_tune_encoder {
            // Per-sample path so the encoder cache stack balances exactly.
            for s in samples {
                loss += self.train_one_finetune(s, n);
            }
            let mut joint = JointParams {
                sub_q: &mut self.sub_q,
                encoder: Some(&mut self.autoencoder),
            };
            clip_grad_norm(&mut joint, self.config.grad_clip);
            self.adam.step(&mut joint);
            self.generation = EncoderGeneration::fresh();
        } else {
            // Frozen encoder: one batched forward/backward over the whole
            // minibatch, rows in sample order, entirely through recycled
            // workspace buffers (encoder codes, Sub-Q inputs and caches,
            // the scattered output gradient).
            let ws = &mut *self.workspace.borrow_mut();
            let rows: Vec<StateRow<'_>> = samples.iter().map(|s| s.state).collect();
            self.gather_codes(&rows, ws);
            let heads = samples
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.action / self.group_size));
            self.fill_inputs(&rows, heads, samples.len(), ws);
            let y = self.sub_q.forward_ws(&ws.inputs);
            ws.dy.resize_to(y.rows(), y.cols());
            for (i, s) in samples.iter().enumerate() {
                let slot = s.action % self.group_size;
                let err = y[(i, slot)] - s.target;
                loss += err * err;
                ws.dy[(i, slot)] = 2.0 * err / n;
            }
            // Frozen encoder: nothing consumes the input gradient.
            self.sub_q.backward_params_only_ws(&ws.dy);
            let mut joint = JointParams {
                sub_q: &mut self.sub_q,
                encoder: None,
            };
            clip_grad_norm(&mut joint, self.config.grad_clip);
            self.adam.step(&mut joint);
        }
        loss / n
    }

    /// The retained **unbatched** reference for [`GroupedQNetwork::train_batch`]
    /// (frozen-encoder path): per-sample single-row encoder sweeps and
    /// Sub-Q forward/backward passes, in sample order, ignoring memoized
    /// codes. Kept (test-only) so the equivalence suite can assert the
    /// batched step leaves bitwise identical weights, optimizer state, and
    /// loss; production code never calls it. Delegates to
    /// [`GroupedQNetwork::train_batch`] when the encoder is fine-tuned
    /// (that path is per-sample already).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an action index is out of range.
    #[doc(hidden)]
    pub fn train_batch_reference(&mut self, samples: &[QSample<'_>]) -> f32 {
        if self.config.fine_tune_encoder {
            return self.train_batch(samples);
        }
        self.check_batch(samples);
        self.sub_q.zero_grad();
        self.autoencoder.zero_grad();
        let n = samples.len() as f32;
        let mut loss = 0.0f32;
        for s in samples {
            let k = s.action / self.group_size;
            let slot = s.action % self.group_size;
            let codes = self.codes(s.state.state);
            let x = self.sub_q_input(s.state.state, k, &codes);
            let y = self.sub_q.forward(&x);
            let err = y[(0, slot)] - s.target;
            loss += err * err;
            let mut dy = Matrix::zeros(1, y.cols());
            dy[(0, slot)] = 2.0 * err / n;
            self.sub_q.backward_params_only(&dy);
        }
        let mut joint = JointParams {
            sub_q: &mut self.sub_q,
            encoder: None,
        };
        clip_grad_norm(&mut joint, self.config.grad_clip);
        self.adam.step(&mut joint);
        loss / n
    }

    /// Validates a training minibatch.
    fn check_batch(&self, samples: &[QSample<'_>]) {
        assert!(!samples.is_empty(), "training batch is empty");
        for s in samples {
            assert!(
                s.action < self.num_actions(),
                "action {} out of range ({})",
                s.action,
                self.num_actions()
            );
        }
    }

    /// Forward/backward for one sample with encoder fine-tuning.
    fn train_one_finetune(&mut self, s: &QSample<'_>, n: f32) -> f32 {
        let k = s.action / self.group_size;
        let slot = s.action % self.group_size;
        let state = s.state.state;
        // Forward the encoder for every other group, caching (ascending k').
        let mut codes: Vec<(usize, Matrix)> = Vec::with_capacity(self.num_groups - 1);
        for k2 in 0..self.num_groups {
            if k2 != k {
                let g = Matrix::row_vector(self.group_block(state, k2));
                let code = self.autoencoder.encoder_mut().forward(&g);
                codes.push((k2, code));
            }
        }
        let g_k = Matrix::row_vector(self.group_block(state, k));
        let job = Matrix::row_vector(self.job_block(state));
        let mut parts: Vec<&Matrix> = vec![&g_k, &job];
        for (_, c) in &codes {
            parts.push(c);
        }
        let x = Matrix::hcat(&parts);
        let y = self.sub_q.forward(&x);
        let err = y[(0, slot)] - s.target;
        let mut dy = Matrix::zeros(1, y.cols());
        dy[(0, slot)] = 2.0 * err / n;
        let dx = self.sub_q.backward(&dy);
        // Route code gradients back through the encoder in reverse order of
        // the forward calls (cache-stack discipline).
        let base = self.group_width + self.job_width;
        let code_w = self.config.code_size;
        for (i, _) in codes.iter().enumerate().rev() {
            let grad = dx.slice_cols(base + i * code_w, code_w);
            let _ = self.autoencoder.encoder_mut().backward(&grad);
        }
        err * err
    }
}

/// Joint parameter view for the optimizer: Sub-Q weights, plus the encoder
/// when fine-tuning. Visit order is stable for the lifetime of the network.
struct JointParams<'a> {
    sub_q: &'a mut Mlp,
    encoder: Option<&'a mut Autoencoder>,
}

impl Trainable for JointParams<'_> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.sub_q.visit_params(f);
        if let Some(enc) = self.encoder.as_mut() {
            enc.visit_params(f);
        }
    }

    fn zero_grad(&mut self) {
        self.sub_q.zero_grad();
        if let Some(enc) = self.encoder.as_mut() {
            enc.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateEncoderConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout(m: usize, k: usize) -> StateEncoder {
        StateEncoder::new(
            m,
            3,
            StateEncoderConfig {
                num_groups: k,
                ..Default::default()
            },
        )
    }

    fn random_state(layout: &StateEncoder, rng: &mut StdRng) -> GlobalState {
        use rand::Rng;
        let groups: Vec<Vec<f32>> = (0..layout.num_groups())
            .map(|_| {
                (0..layout.group_width())
                    .map(|_| rng.gen::<f32>())
                    .collect()
            })
            .collect();
        let job: Vec<f32> = (0..layout.job_width()).map(|_| rng.gen::<f32>()).collect();
        GlobalState::from_parts(&groups, &job)
    }

    #[test]
    fn dimensions_match_paper_setup() {
        // M = 30, K = 2, D = 3 + availability + queue + capacity:
        // group width 90 (the paper's raw state is the 45-wide
        // utilizations-only layout; the enrichments widen it).
        let mut rng = StdRng::seed_from_u64(0);
        let lay = layout(30, 2);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        assert_eq!(net.num_actions(), 30);
        assert_eq!(net.input_width(), 90 + 4 + 15);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s).len(), 30);
    }

    #[test]
    fn padded_groups_produce_extra_masked_actions() {
        let mut rng = StdRng::seed_from_u64(1);
        let lay = layout(30, 4); // group size 8 -> 32 actions
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        assert_eq!(net.num_actions(), 32);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s).len(), 32);
        // max over valid prefix only
        let _ = net.max_q(&s, 30);
    }

    #[test]
    fn training_fits_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let lay = layout(8, 2);
        let mut net = GroupedQNetwork::new(
            &lay,
            QNetworkConfig {
                learning_rate: 3e-3,
                ..Default::default()
            },
            &mut rng,
        );
        // A handful of fixed states with fixed targets: loss must fall.
        let states: Vec<GlobalState> = (0..8).map(|_| random_state(&lay, &mut rng)).collect();
        let samples: Vec<QSample> = states
            .iter()
            .enumerate()
            .map(|(i, s)| QSample {
                state: s.into(),
                action: i % 8,
                target: (i as f32 - 4.0) * 0.5,
            })
            .collect();
        let first = net.train_batch(&samples);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&samples);
        }
        assert!(last < first * 0.1, "loss {first} -> {last} did not fall");
    }

    #[test]
    fn fine_tune_path_also_fits() {
        let mut rng = StdRng::seed_from_u64(3);
        let lay = layout(6, 3);
        let mut net = GroupedQNetwork::new(
            &lay,
            QNetworkConfig {
                learning_rate: 3e-3,
                fine_tune_encoder: true,
                ..Default::default()
            },
            &mut rng,
        );
        let states: Vec<GlobalState> = (0..6).map(|_| random_state(&lay, &mut rng)).collect();
        let samples: Vec<QSample> = states
            .iter()
            .enumerate()
            .map(|(i, s)| QSample {
                state: s.into(),
                action: i,
                target: 1.0,
            })
            .collect();
        let first = net.train_batch(&samples);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&samples);
        }
        assert!(last < first * 0.2, "loss {first} -> {last} did not fall");
    }

    #[test]
    fn autoencoder_pretraining_reduces_reconstruction_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let lay = layout(8, 2);
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        // Structured group states (low-rank): compressible.
        let mut data = Matrix::zeros(64, lay.group_width());
        for r in 0..64 {
            use rand::Rng;
            let a: f32 = rng.gen();
            for c in 0..lay.group_width() {
                data[(r, c)] = a * (c % 4) as f32 / 4.0;
            }
        }
        let before = net.autoencoder().reconstruction_error(&data);
        net.pretrain_autoencoder(&data, 100, 16, 3e-3);
        let after = net.autoencoder().reconstruction_error(&data);
        assert!(after < before * 0.5, "recon {before} -> {after}");
    }

    #[test]
    fn q_values_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let lay = layout(10, 2);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s), net.q_values(&s));
    }

    #[test]
    fn codes_stamped_before_pretraining_are_recomputed() {
        // Rows memoized under the random-init encoder: once pre-training
        // draws a new generation the sweeps must re-encode them, so every
        // value matches the reference through the *pre-trained* encoder
        // (stale codes would give the old encoder's answers). The rows
        // stamped afterwards are reused and must match too.
        let mut rng = StdRng::seed_from_u64(7);
        let lay = layout(10, 3); // group size 4, two padding actions
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let states: Vec<GlobalState> = (0..6).map(|_| random_state(&lay, &mut rng)).collect();
        let memoize = |net: &GroupedQNetwork| -> Vec<Vec<f32>> {
            states
                .iter()
                .map(|s| {
                    let mut codes = vec![0.0; net.code_width()];
                    net.encode_codes(s.as_slice(), &mut codes);
                    codes
                })
                .collect()
        };
        let old_gen = net.encoder_generation();
        let old_codes = memoize(&net);
        let mut data = Matrix::zeros(32, lay.group_width());
        for r in 0..32 {
            for c in 0..lay.group_width() {
                data[(r, c)] = ((r * 7 + c) % 11) as f32 / 11.0;
            }
        }
        net.pretrain_autoencoder(&data, 5, 8, 3e-3);
        assert_ne!(net.encoder_generation(), old_gen);
        let new_gen = net.encoder_generation();
        let new_codes = memoize(&net);
        assert_ne!(
            old_codes, new_codes,
            "pre-training left the codes unchanged"
        );
        for (codes, generation) in [(&old_codes, old_gen), (&new_codes, new_gen)] {
            let rows: Vec<StateRow> = states
                .iter()
                .zip(codes)
                .map(|(s, c)| StateRow {
                    state: s.as_slice(),
                    codes: c,
                    generation,
                })
                .collect();
            net.q_values_batch(&rows, |i, q| {
                assert_eq!(q, net.q_values_reference(&states[i]), "row {i}");
            });
            let items: Vec<(StateRow, usize, StateRow)> = (0..rows.len())
                .map(|i| (rows[i], (i * 5) % 10, rows[(i + 1) % rows.len()]))
                .collect();
            net.target_values(&items, 10, |i, q_taken, max_next| {
                let (a, next) = (items[i].1, (i + 1) % rows.len());
                let q_next = net.q_values_reference(&states[next]);
                assert_eq!(q_taken, net.q_values_reference(&states[i])[a]);
                assert_eq!(max_next, GroupedQNetwork::max_q_of(&q_next, 10));
            });
        }
    }

    #[test]
    #[should_panic(expected = "training batch is empty")]
    fn empty_batch_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let lay = layout(4, 2);
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let _ = net.train_batch(&[]);
    }
}
