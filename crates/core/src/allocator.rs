//! The global tier: DRL-based cloud resource (VM) allocation (Section V).
//!
//! The job broker is controlled by a DRL agent. Decisions are event-driven
//! and continuous-time: one per job arrival, with the action being the
//! target server, which keeps the action space enumerable (`|M|`). Value
//! updates follow Q-learning for SMDP (Eqn. 2); the Q-function is the
//! weight-shared, autoencoder-compressed DNN of [`crate::dqn`]; transitions
//! are replayed from an experience memory (Algorithm 1).
//!
//! A train step does no work it can avoid. Each learning decision's state
//! is written once, as a flat row of a contiguous arena beside the encoder
//! codes `select` computes for it anyway, so a replayed transition is a
//! handful of row indices and a minibatch borrows its rows instead of
//! copying them. The sweeps reuse those codes while the encoder is
//! unchanged (its [`EncoderGeneration`] still matches), and each
//! transition's target-network values are memoized until the next target
//! sync. None of this changes a value, an RNG draw or a report byte: the
//! tests pin memoized runs to always-recompute runs bit for bit.

use crate::dqn::{EncoderGeneration, GroupedQNetwork, QNetworkConfig, QSample, StateRow};
use crate::reward::{reward_rate_between, RewardWeights};
use crate::state::{StateEncoder, StateEncoderConfig};
use hierdrl_neural::matrix::Matrix;
use hierdrl_rl::policy::{EpsilonGreedy, EpsilonSchedule};
use hierdrl_rl::replay::ReplayMemory;
use hierdrl_rl::smdp::{smdp_update, SmdpParams};
use hierdrl_sim::cluster::{Allocator, ClusterView};
use hierdrl_sim::job::{Job, ServerId};
use hierdrl_sim::metrics::ClusterTotals;
use hierdrl_sim::policies::FirstFitAllocator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Full configuration of the DRL allocator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrlAllocatorConfig {
    /// State-vector layout (group count, enrichment flags).
    pub state: StateEncoderConfig,
    /// Q-network hyper-parameters.
    pub qnet: QNetworkConfig,
    /// Reward weights (Eqn. 4).
    pub reward: RewardWeights,
    /// SMDP Q-learning parameters (`alpha` blends stored targets, `beta` is
    /// the continuous-time discount; paper: `beta = 0.5`).
    pub smdp: SmdpParams,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Probability of following the first-fit *guide* policy
    /// ([`FirstFitAllocator`]) instead of the epsilon-greedy DNN policy, as
    /// a function of the decision counter.
    /// Algorithm 1 collects offline experience under "certain control
    /// policies ... arbitrary policy and gradually refined policy"; using a
    /// sensible behavior policy early fills the experience memory with
    /// consolidation states the random-init network would rarely reach.
    /// Anneal to 0 so evaluation is pure DRL.
    pub guide: EpsilonSchedule,
    /// Scale factor applied to reward rates before the SMDP target (sets
    /// the magnitude of Q values; `beta` keeps Q near the average reward
    /// rate, which conditions DNN fitting far better than `r/beta`-sized
    /// targets under gradient clipping). Purely a units change: the argmax
    /// policy is invariant.
    pub reward_scale: f64,
    /// Clamp stored Q targets to `[-q_clamp, 0]`. Rewards are never
    /// positive, so every true Q value is non-positive; the upper clamp
    /// provably removes the max-operator overestimation spiral that plain
    /// DQN suffers without a target network (batched arrivals make
    /// near-zero sojourns — and therefore near-pure bootstrap targets —
    /// common).
    pub q_clamp: f64,
    /// Uniform noise half-width added to Q values at action selection,
    /// breaking argmax lock-in between near-indifferent servers (prevents
    /// pathological single-server pile-ups while the network is young).
    pub q_dither: f64,
    /// Experience-memory capacity `N_D`.
    pub replay_capacity: usize,
    /// Minibatch size for DNN fitting.
    pub minibatch: usize,
    /// Train the DNN every this many decisions (after warm-up).
    pub train_interval: u64,
    /// Copy the online network into the target network every this many
    /// training steps (deep Q-learning stabilization per Mnih et al. 2015,
    /// the paper's reference \[25\]).
    pub target_sync: u64,
    /// Decisions before DNN training starts.
    pub warmup_decisions: u64,
    /// Group-state samples to collect before pre-training the autoencoder
    /// online (0 disables the automatic pre-training).
    pub ae_pretrain_samples: usize,
    /// Autoencoder pre-training epochs.
    pub ae_epochs: usize,
    /// Autoencoder pre-training minibatch size.
    pub ae_batch: usize,
    /// Autoencoder pre-training learning rate.
    pub ae_learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DrlAllocatorConfig {
    fn default() -> Self {
        Self {
            state: StateEncoderConfig::default(),
            qnet: QNetworkConfig::default(),
            reward: RewardWeights::balanced(),
            // The paper quotes beta = 0.5 without fixing the time unit; at
            // ~6-20 s inter-arrivals, 0.5/s makes the bootstrap term vanish
            // (e^{-beta*tau} ~ 0), and any horizon shorter than a job
            // duration (~850 s) truncates the queueing penalty while the
            // wake-up cost lands in full — making queueing look cheap.
            // 0.002/s gives a ~500 s horizon, on the scale of one job.
            smdp: SmdpParams::new(0.9, 0.002),
            epsilon: EpsilonSchedule::Exponential {
                start: 0.4,
                end: 0.02,
                tau: 4_000.0,
            },
            guide: EpsilonSchedule::Exponential {
                start: 0.9,
                end: 0.35,
                tau: 6_000.0,
            },
            reward_scale: 0.002,
            q_clamp: 300.0,
            q_dither: 0.003,
            replay_capacity: 6_000,
            minibatch: 32,
            train_interval: 2,
            target_sync: 250,
            warmup_decisions: 400,
            ae_pretrain_samples: 3_000,
            ae_epochs: 20,
            ae_batch: 32,
            ae_learning_rate: 2e-3,
            seed: 7,
        }
    }
}

/// A serializable snapshot of a trained global-tier policy: everything
/// needed to act (and keep learning) minus the transient run state
/// (pending transition, replay memory, RNG).
///
/// # Examples
///
/// ```
/// use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig};
///
/// let allocator = DrlAllocator::new(4, 3, DrlAllocatorConfig::default());
/// let json = serde_json::to_string(&allocator.snapshot()).unwrap();
/// let restored = DrlAllocator::from_snapshot(serde_json::from_str(&json).unwrap());
/// assert_eq!(restored.config(), allocator.config());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrlSnapshot {
    /// Full allocator configuration.
    pub config: DrlAllocatorConfig,
    /// State-vector layout.
    pub encoder: StateEncoder,
    /// Trained Q-network (including optimizer state).
    pub qnet: GroupedQNetwork,
    /// Exploration-policy state (schedule position).
    pub policy: EpsilonGreedy,
    /// Cluster size the policy was trained for.
    pub num_servers: usize,
    /// Learner statistics at snapshot time.
    pub stats: DrlStats,
}

/// Running statistics of the learner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DrlStats {
    /// Decision epochs seen.
    pub decisions: u64,
    /// DNN minibatch updates performed.
    pub train_steps: u64,
    /// Exponential moving average of the training loss.
    pub loss_ema: f64,
    /// Whether the autoencoder pre-training has run.
    pub autoencoder_trained: bool,
    /// Final reconstruction loss of the autoencoder pre-training.
    pub autoencoder_loss: f64,
}

#[derive(Debug)]
struct Pending {
    /// Arena row of the decision's state (holds one reference).
    row: usize,
    action: usize,
    time_s: f64,
    totals: ClusterTotals,
}

/// A raw state transition, exactly what Algorithm 1 (line 10) stores in the
/// experience memory: `(s_k, a_k, r_k, s_{k+1})` plus the sojourn time the
/// continuous-time update needs. The states are [`StateArena`] rows, each
/// holding one reference.
#[derive(Debug)]
struct Transition {
    state: usize,
    action: usize,
    reward_rate: f64,
    sojourn: f64,
    next_state: usize,
    /// Target-network evaluations memoized per target-net era (see
    /// [`TargetCache`]). Interior mutability because the replay memory
    /// hands out shared references at sampling time.
    cache: Cell<Option<TargetCache>>,
}

/// Memoized target-network evaluations for one transition.
///
/// Between two target-network syncs the target net is frozen, so
/// `max_a Q_target(s', a)` and `Q_target(s, a)` are pure functions of the
/// transition — and every kernel in the neural substrate is deterministic
/// and row-independent, so recomputing them in a *different* minibatch
/// yields bitwise-identical `f32`s. A transition sampled again within the
/// same era therefore reuses the stored values instead of going through
/// the target-net sweep, changing nothing about the learning trajectory.
/// How often that happens: a 250-step era draws 8,000 samples over a
/// replay of up to 6,000 transitions, and one `hier-m30` benchmark
/// evaluation measured about 25,000 misses in 79,488 sampled transitions
/// (31%, ~10 of each 32-sample minibatch). Entries are invalidated
/// wholesale by bumping the era counter at each sync.
#[derive(Debug, Clone, Copy)]
struct TargetCache {
    /// Target-net era (sync count) the values were computed under.
    era: u64,
    /// `max_a Q_target(next_state, a)` over the real (non-padding) actions.
    max_next: f32,
    /// `Q_target(state, action)` for the taken action.
    prev: f32,
}

/// The replay memory's states, each stored once: a learning decision's
/// flat state row ([`StateEncoder::encode_into`]) beside its `K` encoder
/// codes and the [`EncoderGeneration`] that computed them, in one
/// contiguous `f32` arena. Consecutive transitions share a row (`s_{k+1}`
/// of one is `s_k` of the next), so rows are reference-counted by the
/// transitions and the pending decision that name them and recycled
/// through a free list. One long run therefore needs `replay_capacity + 2`
/// rows, and each run boundary still in the replay one more.
#[derive(Debug)]
struct StateArena {
    state_width: usize,
    code_width: usize,
    /// Row-major `[state | codes]` rows.
    data: Vec<f32>,
    generations: Vec<EncoderGeneration>,
    refs: Vec<u32>,
    free: Vec<usize>,
    /// Whether `memoize_codes` stores codes (off only in the equivalence
    /// test, which then recomputes every code in the sweeps).
    memo: bool,
}

impl StateArena {
    fn new(state_width: usize, code_width: usize, rows: usize) -> Self {
        Self {
            state_width,
            code_width,
            data: Vec::with_capacity(rows * (state_width + code_width)),
            generations: Vec::with_capacity(rows),
            refs: Vec::with_capacity(rows),
            free: Vec::new(),
            memo: true,
        }
    }

    fn stride(&self) -> usize {
        self.state_width + self.code_width
    }

    /// A row holding one reference, with no codes and unspecified state.
    fn alloc(&mut self) -> usize {
        let r = self.free.pop().unwrap_or_else(|| {
            self.data.resize(self.data.len() + self.stride(), 0.0);
            self.generations.push(EncoderGeneration::NONE);
            self.refs.push(0);
            self.refs.len() - 1
        });
        self.refs[r] = 1;
        self.generations[r] = EncoderGeneration::NONE;
        r
    }

    fn retain(&mut self, r: usize) {
        self.refs[r] += 1;
    }

    fn release(&mut self, r: usize) {
        self.refs[r] -= 1;
        if self.refs[r] == 0 {
            self.free.push(r);
        }
    }

    fn state(&self, r: usize) -> &[f32] {
        let start = r * self.stride();
        &self.data[start..start + self.state_width]
    }

    fn state_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.stride();
        &mut self.data[start..start + self.state_width]
    }

    /// Computes row `r`'s codes through `net`'s encoder and stamps them
    /// with its generation.
    fn memoize_codes(&mut self, r: usize, net: &GroupedQNetwork) {
        if !self.memo {
            return;
        }
        let stride = self.stride();
        let (state, codes) = self.data[r * stride..(r + 1) * stride].split_at_mut(self.state_width);
        net.encode_codes(state, codes);
        self.generations[r] = net.encoder_generation();
    }

    /// Row `r` as the sweeps read it.
    fn row(&self, r: usize) -> StateRow<'_> {
        let stride = self.stride();
        let (state, codes) = self.data[r * stride..(r + 1) * stride].split_at(self.state_width);
        StateRow {
            state,
            codes,
            generation: self.generations[r],
        }
    }
}

/// The DRL-based global-tier allocator (implements [`Allocator`]).
///
/// Learning is fully online, exactly as in the paper's deep Q-learning
/// phase: at each decision epoch the previous transition's Q estimate is
/// updated via Eqn. (2) and stored in the experience memory, and the DNN is
/// periodically refit to the stored estimates. Call
/// [`DrlAllocator::set_learning`] to freeze the policy for evaluation.
#[derive(Debug)]
pub struct DrlAllocator {
    config: DrlAllocatorConfig,
    encoder: StateEncoder,
    qnet: GroupedQNetwork,
    target_net: GroupedQNetwork,
    arena: StateArena,
    replay: ReplayMemory<Transition>,
    policy: EpsilonGreedy,
    rng: StdRng,
    pending: Option<Pending>,
    num_servers: usize,
    learning: bool,
    /// Group rows collected for the autoencoder pre-training, allocated
    /// at its final shape with the first of them.
    ae_buffer: Matrix,
    /// How many rows of `ae_buffer` are filled.
    ae_rows: usize,
    stats: DrlStats,
    /// Target-net era: bumped at every target sync, invalidating all
    /// [`TargetCache`] entries at once.
    target_era: u64,
    /// Escape hatch for the equivalence test: `false` recomputes every
    /// target through the network sweeps, the retained reference behaviour.
    use_target_cache: bool,
}

impl DrlAllocator {
    /// Builds an allocator for a cluster of `num_servers` servers with
    /// `resource_dims` resources.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// minibatch, invalid schedule, etc.).
    pub fn new(num_servers: usize, resource_dims: usize, config: DrlAllocatorConfig) -> Self {
        assert!(config.minibatch > 0, "minibatch must be positive");
        assert!(config.train_interval > 0, "train_interval must be positive");
        assert!(config.target_sync > 0, "target_sync must be positive");
        config.reward.validate().expect("invalid reward weights");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = StateEncoder::new(num_servers, resource_dims, config.state);
        let qnet = GroupedQNetwork::new(&encoder, config.qnet, &mut rng);
        let arena = StateArena::new(
            encoder.state_width(),
            qnet.code_width(),
            config.replay_capacity + 2,
        );
        let replay = ReplayMemory::new(config.replay_capacity);
        let policy = EpsilonGreedy::new(config.epsilon);
        Self {
            encoder,
            target_net: qnet.clone(),
            qnet,
            arena,
            replay,
            policy,
            rng,
            pending: None,
            num_servers,
            learning: true,
            ae_buffer: Matrix::default(),
            ae_rows: 0,
            config,
            stats: DrlStats::default(),
            target_era: 0,
            use_target_cache: true,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DrlAllocatorConfig {
        &self.config
    }

    /// Learner statistics.
    pub fn stats(&self) -> &DrlStats {
        &self.stats
    }

    /// The state encoder (layout information).
    pub fn state_encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// Enables or disables learning (exploration continues per schedule;
    /// with learning off the network — autoencoder included — and the
    /// replay memory are frozen).
    pub fn set_learning(&mut self, on: bool) {
        self.learning = on;
    }

    /// Test-only switch to the retained reference behaviour: recompute
    /// every SMDP target through the target-net sweeps instead of reusing
    /// per-era memoized values (which must be — and is tested to be —
    /// bitwise indistinguishable).
    #[cfg(test)]
    fn set_target_cache(&mut self, on: bool) {
        self.use_target_cache = on;
    }

    /// Test-only switch to always-recompute encoder codes: rows are stored
    /// without memoized codes, so every sweep runs the encoder on every
    /// row (which must be — and is tested to be — bitwise
    /// indistinguishable).
    #[cfg(test)]
    fn set_code_memo(&mut self, on: bool) {
        self.arena.memo = on;
    }

    /// Captures a serializable snapshot of the trained policy.
    pub fn snapshot(&self) -> DrlSnapshot {
        DrlSnapshot {
            config: self.config.clone(),
            encoder: self.encoder.clone(),
            qnet: self.qnet.clone(),
            policy: self.policy.clone(),
            num_servers: self.num_servers,
            stats: self.stats,
        }
    }

    /// Reconstructs an allocator from a snapshot. The replay memory starts
    /// empty and the RNG is re-seeded from the config; the trained network,
    /// schedule position, and statistics are preserved.
    pub fn from_snapshot(snapshot: DrlSnapshot) -> Self {
        let rng = StdRng::seed_from_u64(snapshot.config.seed ^ 0x9e3779b97f4a7c15);
        Self {
            target_net: snapshot.qnet.clone(),
            arena: StateArena::new(
                snapshot.encoder.state_width(),
                snapshot.qnet.code_width(),
                snapshot.config.replay_capacity + 2,
            ),
            replay: ReplayMemory::new(snapshot.config.replay_capacity),
            rng,
            pending: None,
            learning: true,
            ae_buffer: Matrix::default(),
            ae_rows: 0,
            encoder: snapshot.encoder,
            qnet: snapshot.qnet,
            policy: snapshot.policy,
            num_servers: snapshot.num_servers,
            stats: snapshot.stats,
            config: snapshot.config,
            target_era: 0,
            use_target_cache: true,
        }
    }

    /// Pre-trains the autoencoder on explicit group-state rows (each of
    /// width `group_width`). Also called automatically once
    /// `ae_pretrain_samples` rows have been observed online.
    pub fn pretrain_autoencoder(&mut self, rows: &Matrix) {
        let loss = self.qnet.pretrain_autoencoder(
            rows,
            self.config.ae_epochs,
            self.config.ae_batch,
            self.config.ae_learning_rate,
        );
        self.stats.autoencoder_trained = true;
        self.stats.autoencoder_loss = loss as f64;
    }

    /// Collects arena row `row`'s group blocks for the autoencoder
    /// pre-training and runs it once enough have been seen. Learning
    /// decisions only: a frozen allocator's encoder never changes.
    fn maybe_collect_ae_sample(&mut self, row: usize) {
        if self.stats.autoencoder_trained || self.config.ae_pretrain_samples == 0 {
            return;
        }
        let (group_width, num_groups) = (self.encoder.group_width(), self.encoder.num_groups());
        if self.ae_rows == 0 {
            // Each decision adds its `num_groups` rows, and training starts
            // once `ae_pretrain_samples` are in, so the buffer's final
            // shape is known now: one allocation, never grown or copied.
            let rows = self.config.ae_pretrain_samples.div_ceil(num_groups) * num_groups;
            self.ae_buffer = Matrix::zeros(rows, group_width);
        }
        let (start, groups) = (self.ae_rows * group_width, num_groups * group_width);
        self.ae_buffer.as_mut_slice()[start..start + groups]
            .copy_from_slice(&self.arena.state(row)[..groups]);
        self.ae_rows += num_groups;
        if self.ae_rows >= self.config.ae_pretrain_samples {
            let data = std::mem::take(&mut self.ae_buffer);
            self.pretrain_autoencoder(&data);
        }
    }

    /// Drops the pending decision (no successor epoch will close it).
    fn drop_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.arena.release(p.row);
        }
    }

    /// Closes the pending decision into a transition whose successor state
    /// is arena row `next_state`.
    fn close_pending(&mut self, next_state: usize, view: &ClusterView<'_>) {
        let Some(p) = self.pending.take() else {
            return;
        };
        let tau = (view.totals().time_s - p.time_s).max(0.0);
        // Aggregate fleet peak: capacity-scaled on heterogeneous fleets,
        // exactly `M * peak_watts` on homogeneous ones. Both the peak and
        // the server count track the *live* fleet so elastic membership
        // changes rescale the reward normalization (on fixed fleets
        // `num_live == num_servers` and nothing changes).
        let reward_rate = self.config.reward_scale
            * reward_rate_between(
                &p.totals,
                view.totals(),
                &self.config.reward,
                view.num_live(),
                view.fleet_peak_watts(),
            );
        // The transition takes over the pending decision's reference to its
        // state row and adds one to the successor's.
        self.arena.retain(next_state);
        let evicted = self.replay.push(Transition {
            state: p.row,
            action: p.action,
            reward_rate,
            sojourn: tau,
            next_state,
            cache: Cell::new(None),
        });
        if let Some(t) = evicted {
            self.arena.release(t.state);
            self.arena.release(t.next_state);
        }
    }

    fn maybe_train(&mut self) {
        if !self.learning
            || self.stats.decisions < self.config.warmup_decisions
            || !self
                .stats
                .decisions
                .is_multiple_of(self.config.train_interval)
            || self.replay.len() < self.config.minibatch
        {
            return;
        }
        // Sample by reference: a minibatch borrows its arena rows.
        let transitions: Vec<&Transition> =
            self.replay.sample(self.config.minibatch, &mut self.rng);
        // Fresh SMDP targets from the frozen target network (Eqn. 2 with
        // the target net as the previous estimate), clamped to the feasible
        // range: rewards are non-positive, so true Q values are too — the
        // upper clamp removes the max-operator overestimation spiral.
        // Transitions already evaluated under the *current* target net (the
        // net is frozen between syncs) reuse their memoized values; only
        // cache misses go through one batched target sweep, which reuses
        // each row's memoized codes while the generations match. Every
        // value — cached or fresh — is bitwise identical to a
        // per-transition `q_values` sweep (row independence).
        let era = self.target_era;
        let misses: Vec<&Transition> = transitions
            .iter()
            .copied()
            .filter(|t| !self.use_target_cache || !matches!(t.cache.get(), Some(c) if c.era == era))
            .collect();
        let items: Vec<(StateRow<'_>, usize, StateRow<'_>)> = misses
            .iter()
            .map(|t| {
                (
                    self.arena.row(t.state),
                    t.action,
                    self.arena.row(t.next_state),
                )
            })
            .collect();
        self.target_net
            .target_values(&items, self.num_servers, |i, prev, max_next| {
                misses[i].cache.set(Some(TargetCache {
                    era,
                    max_next,
                    prev,
                }));
            });
        let batch: Vec<QSample<'_>> = transitions
            .into_iter()
            .map(|t| {
                let cached = t.cache.get().expect("miss pass filled every cache entry");
                debug_assert_eq!(cached.era, era, "stale target cache survived the miss pass");
                let blended = smdp_update(
                    &self.config.smdp,
                    f64::from(cached.prev),
                    t.reward_rate,
                    t.sojourn,
                    f64::from(cached.max_next),
                );
                QSample {
                    state: self.arena.row(t.state),
                    action: t.action,
                    target: blended.clamp(-self.config.q_clamp, 0.0) as f32,
                }
            })
            .collect();
        let loss = self.qnet.train_batch(&batch) as f64;
        self.stats.train_steps += 1;
        if self
            .stats
            .train_steps
            .is_multiple_of(self.config.target_sync)
        {
            self.target_net = self.qnet.clone();
            self.target_era += 1;
        }
        self.stats.loss_ema = if self.stats.train_steps == 1 {
            loss
        } else {
            0.99 * self.stats.loss_ema + 0.01 * loss
        };
    }
}

impl Allocator for DrlAllocator {
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
        self.stats.decisions += 1;
        let row = self.arena.alloc();
        self.encoder
            .encode_into(job, view, self.arena.state_mut(row));

        if self.learning {
            self.maybe_collect_ae_sample(row);
            self.close_pending(row, view);
            self.maybe_train();
        } else {
            self.drop_pending();
        }

        // The codes are computed here anyway; storing them beside the row
        // spares every later sweep over it the encoder pass.
        self.arena.memoize_codes(row, &self.qnet);
        let dither = self.config.q_dither;
        // Elastic fleets: actions are masked to the slots that exist right
        // now — a view narrower than the declared width means trailing
        // servers have not joined yet and must never be selected (departed
        // in-range slots stay selectable; the cluster's healthy remap
        // redirects them deterministically, exactly like crashed targets).
        let live_width = view.num_servers().min(self.num_servers);
        let mut q64: Vec<f64> = Vec::with_capacity(live_width);
        let rng = &mut self.rng;
        self.qnet.q_values_batch(&[self.arena.row(row)], |_, q| {
            q64.extend(
                q[..live_width]
                    .iter()
                    .map(|&v| f64::from(v) + rng.gen_range(-dither..=dither)),
            );
        });
        let guide_p = self.config.guide.value(self.stats.decisions - 1);
        let action = if self.learning && self.rng.gen::<f64>() < guide_p {
            // Behavior-policy guidance (Algorithm 1's offline experience
            // collection): first-fit, which takes the lowest-numbered awake
            // server the job fits on, else wakes the lowest-numbered
            // sleeping one. The DNN policy still draws, so the exploration
            // schedule and the RNG stream advance as on a DNN decision.
            self.policy.select(&q64, &mut self.rng); // advance the schedule
            FirstFitAllocator.select(job, view).0
        } else {
            self.policy.select(&q64, &mut self.rng)
        };

        if self.learning {
            self.pending = Some(Pending {
                row,
                action,
                time_s: view.totals().time_s,
                totals: *view.totals(),
            });
        } else {
            self.arena.release(row);
        }
        ServerId(action)
    }

    fn on_run_begin(&mut self) {
        // Each run restarts the clock at zero; a pending transition
        // anchored to the previous run's clock would close against a
        // nonsensical sojourn. Normally already dropped by `on_run_end`,
        // but the start hook holds even across aborted runs.
        self.drop_pending();
    }

    fn on_run_end(&mut self, _view: &ClusterView<'_>) {
        // The final transition has no successor epoch; drop it.
        self.drop_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdrl_sim::cluster::{Cluster, RunLimit};
    use hierdrl_sim::config::ClusterConfig;
    use hierdrl_sim::job::JobId;
    use hierdrl_sim::policies::SleepImmediatelyPower;
    use hierdrl_sim::resources::ResourceVec;
    use hierdrl_sim::time::SimTime;

    fn small_config() -> DrlAllocatorConfig {
        DrlAllocatorConfig {
            warmup_decisions: 10,
            train_interval: 2,
            minibatch: 8,
            ae_pretrain_samples: 40,
            ae_epochs: 3,
            replay_capacity: 500,
            ..Default::default()
        }
    }

    fn jobs(n: u64, spacing: f64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(i as f64 * spacing),
                    120.0,
                    ResourceVec::cpu_mem_disk(0.2, 0.1, 0.05),
                )
            })
            .collect()
    }

    #[test]
    fn runs_end_to_end_and_learns() {
        let mut alloc = DrlAllocator::new(6, 3, small_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(6), jobs(300, 20.0)).unwrap();
        let out = cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 300);
        assert_eq!(alloc.stats().decisions, 300);
        assert!(alloc.stats().train_steps > 0, "no training happened");
        assert!(alloc.stats().autoencoder_trained, "AE never pre-trained");
        assert!(alloc.stats().loss_ema.is_finite());
    }

    #[test]
    fn actions_are_always_valid_servers() {
        // 5 servers with K = 2 means 6 network outputs; the padding action
        // must never be selected.
        let mut alloc = DrlAllocator::new(5, 3, small_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(200, 15.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        // Every arrival was dispatched somewhere legal (enqueue asserts in
        // the cluster would have panicked otherwise) and all jobs finished.
        assert_eq!(cluster.completed_jobs().len(), 200);
    }

    #[test]
    fn elastic_fleet_actions_stay_within_the_live_width() {
        // Allocator declared for max_servers = 6 drives a fleet that
        // starts at 3, loses server 2, and grows by two joins. Selecting a
        // slot beyond the current width would trip the cluster's placement
        // assert, so a clean run is the proof of masking.
        use hierdrl_sim::events::{FleetOp, ServerSpec};
        let mut alloc = DrlAllocator::new(6, 3, small_config());
        let mut config = ClusterConfig::paper(3);
        config.max_servers = Some(6);
        let mut cluster = Cluster::new(config, jobs(300, 12.0)).unwrap();
        cluster.schedule_fleet_op(SimTime::from_secs(300.0), FleetOp::Leave(ServerId(2)));
        cluster.schedule_fleet_op(
            SimTime::from_secs(900.0),
            FleetOp::Join(ServerSpec::unit(3, true)),
        );
        cluster.schedule_fleet_op(
            SimTime::from_secs(1200.0),
            FleetOp::Join(ServerSpec::unit(3, true)),
        );
        let out = cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(
            out.totals.jobs_completed, 300,
            "no job lost across membership changes"
        );
        assert_eq!(cluster.num_live(), 4); // 3 - 1 left + rejoin + append
                                           // Jobs drained by the leave re-enter through the allocator.
        assert_eq!(alloc.stats().decisions, 300 + out.totals.jobs_requeued);
    }

    #[test]
    fn the_guide_is_first_fit() {
        // With the guide always on, every placement, on a fleet whose
        // members leave and join, is first-fit's on the same view.
        use hierdrl_sim::events::{FleetOp, ServerSpec};
        struct Checked {
            drl: DrlAllocator,
            placements: u64,
        }
        impl Allocator for Checked {
            fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
                let first_fit = FirstFitAllocator.select(job, view);
                let placed = self.drl.select(job, view);
                assert_eq!(placed, first_fit, "{} at {:?}", job.id, view.now);
                self.placements += 1;
                placed
            }
        }
        let config = DrlAllocatorConfig {
            guide: EpsilonSchedule::Constant(1.0),
            ..small_config()
        };
        let mut alloc = Checked {
            drl: DrlAllocator::new(6, 3, config),
            placements: 0,
        };
        let mut cluster_config = ClusterConfig::paper(4);
        cluster_config.max_servers = Some(6);
        let mut cluster = Cluster::new(cluster_config, jobs(300, 12.0)).unwrap();
        let unit = ServerSpec::unit(3, true);
        let ops = [
            (300.0, FleetOp::Leave(ServerId(1))),
            (700.0, FleetOp::Leave(ServerId(0))),
            (1100.0, FleetOp::Join(unit.clone())),
            (1500.0, FleetOp::Join(unit.clone())),
            (1900.0, FleetOp::Join(unit)),
            (2300.0, FleetOp::Leave(ServerId(2))),
        ];
        for (t, op) in ops {
            cluster.schedule_fleet_op(SimTime::from_secs(t), op);
        }
        let out = cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(cluster.fleet_ops_ignored(), 0);
        assert_eq!(out.totals.jobs_completed, 300);
        assert!(out.totals.jobs_requeued > 0, "no leave drained a job");
        assert_eq!(alloc.placements, 300 + out.totals.jobs_requeued);
    }

    #[test]
    fn frozen_allocator_does_not_train() {
        let mut alloc = DrlAllocator::new(4, 3, small_config());
        alloc.set_learning(false);
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(100, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(alloc.stats().train_steps, 0);
    }

    #[test]
    fn replay_respects_capacity() {
        let mut config = small_config();
        config.replay_capacity = 32;
        let mut alloc = DrlAllocator::new(4, 3, config);
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(200, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert!(alloc.replay.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "minibatch must be positive")]
    fn zero_minibatch_rejected() {
        let mut config = small_config();
        config.minibatch = 0;
        let _ = DrlAllocator::new(4, 3, config);
    }

    #[test]
    fn target_cache_is_bitwise_invisible_to_learning() {
        // Same seed, same jobs, with and without the per-era target cache:
        // the learning trajectory (network weights, optimizer state,
        // statistics, cluster outcome) must be bitwise identical — the
        // cache only skips recomputing values the frozen target net would
        // reproduce exactly. target_sync is small so several eras (and
        // therefore both invalidation and reuse) occur within the run.
        let mut config = small_config();
        config.target_sync = 20;
        let run = |cached: bool| {
            let mut alloc = DrlAllocator::new(5, 3, config.clone());
            alloc.set_target_cache(cached);
            let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(400, 9.0)).unwrap();
            let out = cluster.run(
                &mut alloc,
                &mut SleepImmediatelyPower,
                RunLimit::unbounded(),
            );
            (out, alloc)
        };
        let (out_cached, alloc_cached) = run(true);
        let (out_ref, alloc_ref) = run(false);
        assert!(
            alloc_cached.stats().train_steps > 2 * config.target_sync,
            "run too short to cross target-net eras"
        );
        assert_eq!(out_cached.totals, out_ref.totals);
        assert_eq!(alloc_cached.stats(), alloc_ref.stats());
        let snap = |a: &DrlAllocator| serde_json::to_string(&a.snapshot()).unwrap();
        assert_eq!(
            snap(&alloc_cached),
            snap(&alloc_ref),
            "cached-target training diverged from the reference sweeps"
        );
    }

    #[test]
    fn code_memo_is_bitwise_invisible_to_learning() {
        // Same seed, same jobs, with and without memoized encoder codes:
        // the learning trajectory must be bitwise identical. The run
        // crosses an autoencoder pre-training after training has started
        // (warm-up at decision 10, pre-training at decision 20), so rows
        // stamped under the old encoder must be re-encoded, and several
        // target-net eras. With a fine-tuned encoder every train step
        // draws a new generation, so the memo mostly misses — and must
        // still never be reused across a change.
        for fine_tune_encoder in [false, true] {
            let mut config = small_config();
            config.target_sync = 20;
            config.qnet.fine_tune_encoder = fine_tune_encoder;
            let run = |memo: bool| {
                let mut alloc = DrlAllocator::new(5, 3, config.clone());
                alloc.set_code_memo(memo);
                let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(400, 9.0)).unwrap();
                let out = cluster.run(
                    &mut alloc,
                    &mut SleepImmediatelyPower,
                    RunLimit::unbounded(),
                );
                (out, alloc)
            };
            let (out_memo, alloc_memo) = run(true);
            let (out_ref, alloc_ref) = run(false);
            assert!(alloc_memo.stats().autoencoder_trained);
            assert!(
                alloc_memo.stats().train_steps > 2 * config.target_sync,
                "run too short to cross target-net eras"
            );
            if !fine_tune_encoder {
                let current = alloc_memo.qnet.encoder_generation();
                let memoized = alloc_memo
                    .replay
                    .iter()
                    .filter(|t| alloc_memo.arena.row(t.state).generation == current)
                    .count();
                assert!(memoized > 0, "no replayed row carries reusable codes");
            }
            assert_eq!(out_memo.totals, out_ref.totals);
            assert_eq!(alloc_memo.stats(), alloc_ref.stats());
            let snap = |a: &DrlAllocator| serde_json::to_string(&a.snapshot()).unwrap();
            assert_eq!(
                snap(&alloc_memo),
                snap(&alloc_ref),
                "memoized-code training diverged (fine_tune_encoder = {fine_tune_encoder})"
            );
        }
    }

    #[test]
    fn frozen_allocator_leaves_its_autoencoder_untrained() {
        // A frozen learner whose pre-training never saw enough decisions
        // to fit its autoencoder must not fit it mid-run: with learning
        // off the whole network is read-only.
        let config = small_config();
        let mut alloc = DrlAllocator::new(4, 3, config.clone());
        alloc.set_learning(false);
        let before = serde_json::to_string(&alloc.snapshot().qnet).unwrap();
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(100, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        let k = alloc.state_encoder().num_groups() as u64;
        assert!(alloc.stats().decisions > config.ae_pretrain_samples as u64 / k);
        assert!(!alloc.stats().autoencoder_trained);
        let after = serde_json::to_string(&alloc.snapshot().qnet).unwrap();
        assert_eq!(before, after, "a frozen allocator changed its network");
    }

    #[test]
    fn arena_rows_are_shared_and_recycled() {
        // Consecutive transitions share their arena rows and evicted rows
        // are reused: after each run every reference belongs to a replayed
        // transition, the replay is one chain (replay + 1 live rows), and
        // the arena grows by at most one row per run boundary beyond
        // `replay_capacity + 2`.
        let mut config = small_config();
        config.replay_capacity = 32;
        let mut alloc = DrlAllocator::new(4, 3, config);
        for run in 0..3 {
            let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(200, 10.0)).unwrap();
            cluster.run(
                &mut alloc,
                &mut SleepImmediatelyPower,
                RunLimit::unbounded(),
            );
            let arena = &alloc.arena;
            let refs: u32 = arena.refs.iter().sum();
            assert_eq!(refs as usize, 2 * alloc.replay.len());
            let live = arena.refs.iter().filter(|&&r| r > 0).count();
            assert_eq!(live, alloc.replay.len() + 1);
            assert_eq!(live + arena.free.len(), arena.refs.len());
            assert!(
                arena.refs.len() <= 32 + 2 + run,
                "run {run}: {} rows",
                arena.refs.len()
            );
        }
    }

    #[test]
    fn cached_targets_match_fresh_recomputation() {
        // The cache invariant: every entry stamped with the current era
        // equals a fresh evaluation through the current target net.
        let mut config = small_config();
        config.target_sync = 25;
        let mut alloc = DrlAllocator::new(5, 3, config);
        let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(300, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        let era = alloc.target_era;
        let mut checked = 0usize;
        for t in alloc.replay.iter() {
            let Some(c) = t.cache.get() else { continue };
            assert!(c.era <= era, "cache stamped with a future era");
            if c.era != era {
                continue;
            }
            // Fresh evaluations ignore the memoized codes.
            let fresh = |row: usize| {
                let mut q = Vec::new();
                let state = StateRow::uncoded(alloc.arena.state(row));
                alloc
                    .target_net
                    .q_values_batch(&[state], |_, v| q.extend_from_slice(v));
                q
            };
            assert_eq!(
                c.max_next,
                GroupedQNetwork::max_q_of(&fresh(t.next_state), 5)
            );
            assert_eq!(c.prev, fresh(t.state)[t.action]);
            checked += 1;
        }
        assert!(checked > 0, "no current-era cache entries to verify");
    }
}
