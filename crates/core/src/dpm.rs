//! The local tier: distributed RL-based dynamic power management
//! (Section VI-B, Algorithm 2).
//!
//! Each server independently runs a model-free continuous-time Q-learning
//! agent over *timeout* actions (including immediate shutdown). Decision
//! epochs follow the paper's three cases; the RL state is the predicted
//! next inter-arrival time (from the per-server LSTM predictor) discretized
//! into `n` categories. The reward rate is
//! `r(t) = -w * P(t) - (1 - w) * JQ(t)` (Eqn. 5) with power normalized by
//! peak watts; sweeping `w` traces the power/latency trade-off of Fig. 10.
//!
//! Because the paper's cases (2) and (3) admit exactly one action, this
//! implementation performs the SMDP value update from one case-(1) epoch to
//! the next, integrating the reward over the whole (possibly busy) sojourn
//! — equivalent to the per-case update under forced transitions, with fewer
//! bookkeeping states.
//!
//! A frozen manager ([`RlPowerManager::set_learning`]`(false)`) acts by the
//! learner's own greedy rule ([`hierdrl_rl::policy::greedy_action`]: the
//! lowest index wins ties), so freezing stops the learning and the
//! exploration but never changes how a learned row is read.
//!
//! # Who trains the predictors, and when
//!
//! An arrival's inter-arrival time is checked, counted and normalized on
//! the simulation thread (the accept step). Its learn step (one forward,
//! BPTT and Adam step on the look-back window, then a window shift) is
//! queued per server and run by one background worker thread owned by the
//! manager, in arrival order. A server's predictor is read only at that
//! server's decision epoch, so `on_idle` waits for that one server's queue
//! before it reads the prediction, and learns the queue itself if the
//! worker has not taken it yet (an arrival that finds its server's bounded
//! queue full does the same); `on_run_begin`, `on_run_end`,
//! [`RlPowerManager::set_learning`] and
//! [`RlPowerManager::mean_predictor_mse`] wait for every queue. Each
//! predictor sees the same observations in the same order as it would
//! inline, so every decision is bit for bit the same.
//!
//! The worker exists only where the thread budget allows a second thread:
//! the manager reads `rayon::current_num_threads()` at the first
//! observation a predictor trains on, so a suite run with one thread
//! (`SuiteRunner::serial()`, `--threads 1`), or a cell whose share of the
//! suite's threads is one, trains inline and starts no thread. The worker
//! starts at that observation and is joined on drop; the buffers it trains
//! in are allocated on the simulation thread. Frozen predictors (learning
//! off, or `online_training: false`) never wake it: their learn step is a
//! window shift, run inline.

use crate::predictor::{IatGate, LstmIatPredictor, PredictorConfig};
use hierdrl_rl::discretize::Discretizer;
use hierdrl_rl::policy::{EpsilonGreedy, EpsilonSchedule};
use hierdrl_rl::qtable::QTable;
use hierdrl_rl::smdp::SmdpParams;
use hierdrl_sim::cluster::{ClusterView, PowerManager, TimeoutDecision};
use hierdrl_sim::job::ServerId;
use hierdrl_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use trainer::Trainer;

mod trainer;

/// How many predictor training workers the RL power managers of this
/// process have started so far; each is joined when its manager drops. A
/// manager built under a one-thread budget, or whose predictors never
/// train, starts none.
pub fn training_workers_started() -> usize {
    trainer::workers_started()
}

/// Configuration of the RL power manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlPowerConfig {
    /// Timeout action set in seconds; must include at least one value.
    /// `0` means immediate shutdown.
    pub timeouts: Vec<f64>,
    /// Power-vs-latency weight `w` in `[0, 1]` (Eqn. 5): 1 favors power
    /// saving, 0 favors latency.
    pub weight: f64,
    /// SMDP Q-learning parameters.
    pub smdp: SmdpParams,
    /// Exploration schedule (per server).
    pub epsilon: EpsilonSchedule,
    /// Number of predicted-inter-arrival categories `n`.
    pub iat_bins: usize,
    /// Log-spaced bin range for predicted inter-arrival times, seconds.
    pub iat_range: (f64, f64),
    /// Per-server LSTM predictor configuration.
    pub predictor: PredictorConfig,
    /// Share one Q-table across all servers *of the same capacity class*
    /// instead of learning per-server tables. Decisions remain local and
    /// distributed; only the learned values are pooled — the same
    /// weight-sharing rationale the paper applies to its Sub-Q networks,
    /// and it multiplies the effective data per state-action pair by the
    /// class size. Servers with unequal capacity vectors have different
    /// idle economics (a 2x machine pays 2x the idle power for the same
    /// wake-up latency saving), so pooling them would blend incompatible
    /// sleep policies; [`RlPowerManager::for_cluster`] therefore gives
    /// each capacity class its own table. On a homogeneous cluster this
    /// collapses to the paper's single shared table.
    pub shared_learning: bool,
    /// Base RNG seed (each server derives its own).
    pub seed: u64,
}

impl Default for RlPowerConfig {
    fn default() -> Self {
        Self {
            timeouts: vec![0.0, 60.0, 180.0, 600.0, 1800.0],
            weight: 0.5,
            // Sleep/stay-awake pay-offs materialize over the following idle
            // period (up to ~10 min), so the local discount horizon must
            // cover it: beta = 0.003/s gives a ~5-6 minute horizon. Alpha is
            // high because per-server decision epochs are scarce.
            smdp: SmdpParams::new(0.3, 0.003),
            epsilon: EpsilonSchedule::Exponential {
                start: 0.4,
                end: 0.02,
                tau: 100.0,
            },
            iat_bins: 5,
            iat_range: (10.0, 3600.0),
            predictor: PredictorConfig::default(),
            shared_learning: true,
            seed: 11,
        }
    }
}

impl RlPowerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeouts.is_empty() {
            return Err("need at least one timeout action".into());
        }
        if self.timeouts.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err("timeouts must be finite and non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.weight) {
            return Err(format!("weight must be in [0, 1], got {}", self.weight));
        }
        if self.iat_bins < 2 {
            return Err("need at least two inter-arrival bins".into());
        }
        if !(self.iat_range.0 > 0.0 && self.iat_range.0 < self.iat_range.1) {
            return Err(format!(
                "iat_range invalid: ({}, {})",
                self.iat_range.0, self.iat_range.1
            ));
        }
        self.epsilon.validate()?;
        self.predictor
            .validate()
            .map_err(|e| format!("predictor: {e}"))
    }
}

/// A serializable snapshot of the trained local-tier policy: the learned
/// Q-table(s) and configuration. Predictors restart cold (they need only a
/// look-back window of arrivals to warm up).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpmSnapshot {
    /// Full power-manager configuration.
    pub config: RlPowerConfig,
    /// Learned Q-tables (one per capacity class when `shared_learning` —
    /// a single table on homogeneous fleets — else one per server).
    pub tables: Vec<QTable<u16>>,
    /// Representative capacity vector of each class, in class
    /// (first-appearance) order — what each shared table was trained *on*.
    /// Restores validate against it so a class-permuted cluster cannot
    /// silently receive a big-server table on its little servers.
    pub class_capacities: Vec<Vec<f64>>,
    /// Statistics at snapshot time.
    pub stats: DpmStats,
}

/// Aggregate statistics across all per-server agents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DpmStats {
    /// Case-(1) decision epochs handled.
    pub decisions: u64,
    /// SMDP value updates applied.
    pub updates: u64,
    /// Total arrivals observed by the predictors.
    pub arrivals_observed: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingDpm {
    state: u16,
    action: usize,
    time_s: f64,
    energy_j: f64,
    queue_integral: f64,
}

/// One server's power-management agent. Its predictor's model lives in
/// the manager's [`Trainer`].
#[derive(Debug)]
struct ServerAgent {
    /// The accept step of this server's predictor.
    gate: IatGate,
    /// Index into the manager's table pool (the server's capacity class
    /// when learning is shared; the server index otherwise).
    table: usize,
    policy: EpsilonGreedy,
    rng: StdRng,
    pending: Option<PendingDpm>,
    last_arrival: Option<SimTime>,
}

/// Bitwise equality of two capacity vectors — the class-identity relation
/// both the class grouping and the snapshot-restore safety check use.
fn capacity_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Groups servers into capacity classes: servers with bit-identical
/// capacity vectors share a class, in first-appearance order. Returns the
/// per-server class index and each class's representative capacity vector
/// (`(vec![0; M], [unit])` for a homogeneous cluster). Elastic fleets get
/// one agent per *slot* up to `effective_max()` — slots beyond the initial
/// fleet take the unit capacity joins default to — so every server that can
/// ever exist has a stable, `ServerId`-keyed agent from the start.
fn capacity_classes(cluster: &hierdrl_sim::config::ClusterConfig) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let classes = (0..cluster.effective_max())
        .map(|i| {
            let key = cluster.slot_capacity(i).as_slice().to_vec();
            match reps.iter().position(|k| capacity_eq(k, &key)) {
                Some(c) => c,
                None => {
                    reps.push(key);
                    reps.len() - 1
                }
            }
        })
        .collect();
    (classes, reps)
}

/// The distributed RL power manager (implements [`PowerManager`]).
///
/// Holds one agent per server — the paper's "distributed manner": every
/// decision uses only that server's local state and predictor. With
/// [`RlPowerConfig::shared_learning`] (the default) servers of the same
/// capacity class pool their learned Q-values, exactly as the paper's
/// Sub-Q networks share weights; set it to `false` for fully isolated
/// tables. [`RlPowerManager::for_cluster`] reads the capacity classes off
/// the cluster, so on heterogeneous fleets big and little servers learn in
/// separate pools.
///
/// The predictors train on one background worker thread when the thread
/// budget where they first train (`rayon::current_num_threads()`) is at
/// least two, and inline otherwise; a decision epoch waits only for its
/// own server's backlog (see the [module docs](self)). Decisions are the
/// same bits either way.
#[derive(Debug)]
pub struct RlPowerManager {
    config: RlPowerConfig,
    discretizer: Discretizer,
    agents: Vec<ServerAgent>,
    /// The agents' predictor models, trained inline or on the worker.
    trainer: Trainer,
    tables: Vec<QTable<u16>>,
    /// Representative capacity per class, in class order.
    class_capacities: Vec<Vec<f64>>,
    /// `false` freezes every learnable part (Q-tables, predictors,
    /// exploration) — the no-continued-training ablation of online
    /// concept-drift sweeps.
    learning: bool,
    stats: DpmStats,
}

impl RlPowerManager {
    /// Builds a manager for `cluster`, keying shared learning by capacity
    /// class: servers with equal capacity vectors pool one Q-table; unequal
    /// servers learn separately (their idle economics differ). A
    /// homogeneous cluster (e.g. `ClusterConfig::paper(n)`) gets the
    /// paper's single shared table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the cluster has no
    /// servers.
    pub fn for_cluster(
        cluster: &hierdrl_sim::config::ClusterConfig,
        config: RlPowerConfig,
    ) -> Self {
        assert!(cluster.num_servers > 0, "need at least one server");
        config.validate().expect("invalid RL power config");
        let (classes, class_capacities) = capacity_classes(cluster);
        let num_servers = cluster.effective_max();
        let discretizer =
            Discretizer::log_spaced(config.iat_range.0, config.iat_range.1, config.iat_bins);
        // One pass builds each server's agent and moves its model straight
        // into the trainer.
        let mut agents = Vec::with_capacity(num_servers);
        let trainer = Trainer::new((0..num_servers).map(|i| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64 * 7919));
            let (gate, model) = LstmIatPredictor::new(config.predictor, &mut rng).into_parts();
            agents.push(ServerAgent {
                gate,
                table: if config.shared_learning {
                    classes[i]
                } else {
                    i
                },
                policy: EpsilonGreedy::new(config.epsilon),
                rng,
                pending: None,
                last_arrival: None,
            });
            model
        }));
        let table_count = if config.shared_learning {
            class_capacities.len()
        } else {
            num_servers
        };
        let tables = (0..table_count)
            .map(|_| QTable::new(config.timeouts.len(), 0.0))
            .collect();
        Self {
            config,
            discretizer,
            agents,
            trainer,
            tables,
            class_capacities,
            learning: true,
            stats: DpmStats::default(),
        }
    }

    /// Number of Q-tables in the pool (capacity classes under shared
    /// learning, servers otherwise).
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The configuration.
    pub fn config(&self) -> &RlPowerConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DpmStats {
        &self.stats
    }

    /// Captures a serializable snapshot of the learned policy.
    pub fn snapshot(&self) -> DpmSnapshot {
        DpmSnapshot {
            config: self.config.clone(),
            tables: self.tables.clone(),
            class_capacities: self.class_capacities.clone(),
            stats: self.stats,
        }
    }

    /// Reconstructs a manager for `cluster` from a snapshot taken on a
    /// cluster with the same capacity-class structure.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's table count is incompatible with the
    /// cluster's capacity classes under its own `shared_learning` setting,
    /// or if the snapshot's class capacities differ from the cluster's —
    /// including the same classes in a different order, which would
    /// silently hand a big-server table to little servers.
    pub fn from_snapshot_for_cluster(
        cluster: &hierdrl_sim::config::ClusterConfig,
        snapshot: DpmSnapshot,
    ) -> Self {
        let mut mgr = Self::for_cluster(cluster, snapshot.config);
        let expected = mgr.tables.len();
        assert_eq!(
            snapshot.tables.len(),
            expected,
            "snapshot has {} tables, expected {expected} for this cluster's \
             capacity classes",
            snapshot.tables.len()
        );
        assert!(
            snapshot.class_capacities.len() == mgr.class_capacities.len()
                && snapshot
                    .class_capacities
                    .iter()
                    .zip(&mgr.class_capacities)
                    .all(|(a, b)| capacity_eq(a, b)),
            "snapshot capacity classes {:?} do not match this cluster's {:?} \
             (same class in a different order still mismatches: tables are \
             keyed by class index)",
            snapshot.class_capacities,
            mgr.class_capacities
        );
        mgr.tables = snapshot.tables;
        mgr.stats = snapshot.stats;
        mgr
    }

    /// Enables or disables learning. While off, the Q-tables stop
    /// updating, action selection is the learner's greedy rule with no
    /// exploration ([`QTable::best_action`]; exploring would be pointless
    /// without updates to profit from it), and the
    /// per-server LSTM predictors freeze their weights — though their
    /// look-back windows keep tracking arrivals so the RL state stays
    /// current. This is the "no continued training" ablation that online
    /// concept-drift sweeps compare against.
    pub fn set_learning(&mut self, on: bool) {
        self.learning = on;
        self.trainer
            .set_online_training(on && self.config.predictor.online_training);
        if !on {
            for agent in &mut self.agents {
                agent.pending = None;
            }
        }
    }

    /// Total observations the per-server predictors rejected as carrying
    /// no inter-arrival information (NaN/non-positive). Non-zero means a
    /// driver fabricated an interval — e.g. a last-arrival mark surviving
    /// a segment boundary. Counted at arrival, so exact at every moment.
    pub fn rejected_observations(&self) -> u64 {
        self.agents.iter().map(|a| a.gate.rejected()).sum()
    }

    /// Total (accepted) observations consumed by the per-server
    /// predictors. Counted at arrival, so exact at every moment.
    pub fn predictor_observations(&self) -> u64 {
        self.agents.iter().map(|a| a.gate.observations()).sum()
    }

    /// Mean one-step prediction MSE (normalized space) across servers whose
    /// predictors have scored at least one prediction. Waits for every
    /// queued observation to be learned first.
    pub fn mean_predictor_mse(&self) -> Option<f64> {
        let scores: Vec<f64> = (0..self.agents.len())
            .filter_map(|s| self.trainer.wait_for(s).normalized_mse())
            .collect();
        (!scores.is_empty()).then(|| scores.iter().sum::<f64>() / scores.len() as f64)
    }

    /// The RL state of `server`: its predicted next inter-arrival time,
    /// binned, once every observation queued for it is learned.
    fn state_for(&self, server: ServerId) -> u16 {
        let predicted = self.trainer.wait_for(server.0).predict();
        self.discretizer
            .bin(predicted.unwrap_or(self.config.iat_range.1)) as u16
    }
}

/// Computes the reward rate (Eqn. 5) and sojourn over a closed interval
/// from per-server integral deltas. `None` for an empty interval.
fn reward_rate(
    weight: f64,
    pending: &PendingDpm,
    now_s: f64,
    energy_j: f64,
    queue_integral: f64,
    peak_watts: f64,
) -> Option<(f64, f64)> {
    let tau = now_s - pending.time_s;
    if tau <= 0.0 {
        return None;
    }
    let avg_power_norm = (energy_j - pending.energy_j) / tau / peak_watts;
    let avg_jq = (queue_integral - pending.queue_integral) / tau;
    Some((-(weight * avg_power_norm + (1.0 - weight) * avg_jq), tau))
}

impl PowerManager for RlPowerManager {
    fn on_idle(
        &mut self,
        server: ServerId,
        view: &ClusterView<'_>,
        now: SimTime,
    ) -> TimeoutDecision {
        self.stats.decisions += 1;
        let (energy_j, queue_integral) = {
            let st = view.server(server).stats();
            (st.energy_joules, st.jobs_in_system_integral)
        };
        // Normalize by *this server's* peak (capacity-scaled), so big and
        // little machines see rewards in the same relative units.
        let peak = view.config().power.peak_watts * view.server(server).peak_scale();
        let weight = self.config.weight;
        let smdp = self.config.smdp;

        let state = self.state_for(server);
        let table = self.agents[server.0].table;
        if !self.learning {
            // Frozen (the no-continued-training ablation): the learner's
            // greedy choice, no bookkeeping.
            let action = self.tables[table].best_action(&state);
            return TimeoutDecision::after_idle(self.config.timeouts[action]);
        }
        // Close the previous case-(1) decision with the observed sojourn.
        let agent = &mut self.agents[server.0];
        if let Some(p) = agent.pending.take() {
            if let Some((r, tau)) =
                reward_rate(weight, &p, now.as_secs(), energy_j, queue_integral, peak)
            {
                self.tables[table].update_smdp(&smdp, &p.state, p.action, r, tau, &state);
                self.stats.updates += 1;
            }
        }

        let agent = &mut self.agents[server.0];
        let action = agent
            .policy
            .select(&self.tables[table].q_row(&state), &mut agent.rng);
        agent.pending = Some(PendingDpm {
            state,
            action,
            time_s: now.as_secs(),
            energy_j,
            queue_integral,
        });
        TimeoutDecision::after_idle(self.config.timeouts[action])
    }

    fn on_job_arrival(&mut self, server: ServerId, _view: &ClusterView<'_>, now: SimTime) {
        self.stats.arrivals_observed += 1;
        let agent = &mut self.agents[server.0];
        let accepted = agent
            .last_arrival
            .and_then(|last| agent.gate.accept(now.since(last)));
        agent.last_arrival = Some(now);
        if let Some(z) = accepted {
            self.trainer.learn(server.0, z);
        }
    }

    fn on_run_begin(&mut self) {
        // Every run — a pre-training rollout or one drift segment —
        // restarts the clock at zero, so timestamp-anchored state must not
        // survive into it: a stale `last_arrival` would fabricate an
        // inter-arrival gap into the LSTM predictor feed (negative, since
        // the new clock starts below the old one's end — exactly the class
        // of leak this codebase hit before at pre-training boundaries),
        // and a stale pending transition would integrate a reward over a
        // nonsensical sojourn. `on_run_end` clears the same state, but the
        // *start* hook is the guarantee: it holds even if the previous run
        // was driven by a harness that never finished it. The predictors
        // settle first, so that no learn step spans two runs either.
        self.trainer.drain();
        for agent in &mut self.agents {
            agent.pending = None;
            agent.last_arrival = None;
        }
    }

    fn on_run_end(&mut self, _view: &ClusterView<'_>) {
        // A later run (e.g. the next pre-training segment) restarts the
        // clock at zero: the final pending transition has no successor
        // epoch, and an inter-arrival gap must never span two runs. The
        // run ends when its last observation is learned.
        self.trainer.drain();
        for agent in &mut self.agents {
            agent.pending = None;
            agent.last_arrival = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdrl_sim::cluster::{Cluster, RunLimit};
    use hierdrl_sim::config::ClusterConfig;
    use hierdrl_sim::job::{Job, JobId};
    use hierdrl_sim::policies::RoundRobinAllocator;
    use hierdrl_sim::resources::ResourceVec;

    fn fast_config() -> RlPowerConfig {
        RlPowerConfig {
            predictor: PredictorConfig {
                lookback: 5,
                hidden: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn bursty_jobs(n: u64) -> Vec<Job> {
        // Bursts of 3 jobs, long quiet gaps.
        let mut out = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            if i % 3 == 0 {
                t += 900.0;
            } else {
                t += 20.0;
            }
            out.push(Job::new(
                JobId(i),
                SimTime::from_secs(t),
                60.0,
                ResourceVec::cpu_mem_disk(0.3, 0.1, 0.05),
            ));
        }
        out
    }

    #[test]
    fn runs_end_to_end_and_updates() {
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(2), fast_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(2), bursty_jobs(200)).unwrap();
        let out = cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 200);
        assert!(mgr.stats().decisions > 0);
        assert!(mgr.stats().updates > 0);
        assert!(mgr.stats().arrivals_observed == 200);
    }

    #[test]
    fn weight_one_prefers_sleeping() {
        // Pure power weight: the learned policy should sleep aggressively,
        // yielding clearly less energy than always-on.
        let mut config = fast_config();
        config.weight = 1.0;
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(1), config);
        let jobs = bursty_jobs(150);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let rl = cluster
            .run(
                &mut RoundRobinAllocator::new(),
                &mut mgr,
                RunLimit::unbounded(),
            )
            .totals
            .energy_joules;

        let mut cluster2 = Cluster::new(ClusterConfig::paper(1), jobs).unwrap();
        let on = cluster2
            .run(
                &mut RoundRobinAllocator::new(),
                &mut hierdrl_sim::policies::AlwaysOnPower,
                RunLimit::unbounded(),
            )
            .totals
            .energy_joules;
        assert!(
            rl < on * 0.8,
            "RL (w=1) used {rl} J, always-on {on} J — expected clear savings"
        );
    }

    #[test]
    fn weight_zero_prefers_staying_awake() {
        // Pure latency weight with bursty gaps: sleeping costs latency, so
        // the learned policy should approach the always-on latency.
        let mut config = fast_config();
        config.weight = 0.0;
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(1), config);
        let jobs = bursty_jobs(300);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let rl = cluster
            .run(
                &mut RoundRobinAllocator::new(),
                &mut mgr,
                RunLimit::unbounded(),
            )
            .totals
            .total_latency_s;

        let mut cluster2 = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let sleepy = cluster2
            .run(
                &mut RoundRobinAllocator::new(),
                &mut hierdrl_sim::policies::SleepImmediatelyPower,
                RunLimit::unbounded(),
            )
            .totals
            .total_latency_s;
        assert!(
            rl < sleepy,
            "RL (w=0) latency {rl} should beat sleep-immediately {sleepy}"
        );
    }

    #[test]
    fn per_server_agents_are_independent() {
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(3), fast_config());
        // All jobs to server 0 via a constant allocator.
        struct ToZero;
        impl hierdrl_sim::cluster::Allocator for ToZero {
            fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
                ServerId(0)
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::paper(3), bursty_jobs(60)).unwrap();
        cluster.run(&mut ToZero, &mut mgr, RunLimit::unbounded());
        assert!(mgr.agents[0].gate.observations() > 0);
        assert_eq!(mgr.agents[1].gate.observations(), 0);
        assert_eq!(mgr.agents[2].gate.observations(), 0);
        assert!(mgr.trainer.wait_for(0).training_steps() > 0);
        assert_eq!(mgr.trainer.wait_for(1).training_steps(), 0);
    }

    #[test]
    fn shared_learning_pools_by_capacity_class() {
        // 2 big + 2 little servers: shared learning must give each class
        // its own table (2 tables), map equal-capacity servers to the same
        // one, and snapshots must round-trip through the cluster-aware
        // constructor.
        let mut cluster = ClusterConfig::paper(4);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mgr = RlPowerManager::for_cluster(&cluster, fast_config());
        assert_eq!(mgr.num_tables(), 2);
        assert_eq!(mgr.agents[0].table, mgr.agents[2].table, "big pool");
        assert_eq!(mgr.agents[1].table, mgr.agents[3].table, "little pool");
        assert_ne!(
            mgr.agents[0].table, mgr.agents[1].table,
            "big and little servers must not share a table"
        );

        let snapshot = mgr.snapshot();
        assert_eq!(snapshot.tables.len(), 2);
        let restored = RlPowerManager::from_snapshot_for_cluster(&cluster, snapshot);
        assert_eq!(restored.num_tables(), 2);

        // Homogeneous clusters keep the paper's single shared table, and
        // per-server isolation still wins over class pooling when asked.
        assert_eq!(
            RlPowerManager::for_cluster(&ClusterConfig::paper(4), fast_config()).num_tables(),
            1
        );
        let mut isolated = fast_config();
        isolated.shared_learning = false;
        assert_eq!(
            RlPowerManager::for_cluster(&cluster, isolated).num_tables(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "do not match this cluster's")]
    fn snapshot_rejects_permuted_capacity_classes() {
        // Snapshot taken on [big, little] restored onto [little, big]:
        // table counts match, but class 0 would silently become the
        // little class — the restore must refuse.
        let mut cluster = ClusterConfig::paper(2);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let snapshot = RlPowerManager::for_cluster(&cluster, fast_config()).snapshot();
        let mut permuted = ClusterConfig::paper(2);
        permuted.server_capacities = Some(vec![
            ResourceVec::ones(3),
            ResourceVec::new(&[2.0, 2.0, 2.0]),
        ]);
        let _ = RlPowerManager::from_snapshot_for_cluster(&permuted, snapshot);
    }

    #[test]
    #[should_panic(expected = "do not match this cluster's")]
    fn snapshot_without_capacity_classes_is_rejected() {
        // A snapshot whose class record is missing cannot vouch for which
        // table belongs to which class: restoring it onto a class-permuted
        // cluster with a matching table count must refuse rather than hand
        // the big-server table to the little server.
        let mut cluster = ClusterConfig::paper(2);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mut snapshot = RlPowerManager::for_cluster(&cluster, fast_config()).snapshot();
        snapshot.class_capacities.clear();
        let mut permuted = ClusterConfig::paper(2);
        permuted.server_capacities = Some(vec![
            ResourceVec::ones(3),
            ResourceVec::new(&[2.0, 2.0, 2.0]),
        ]);
        let _ = RlPowerManager::from_snapshot_for_cluster(&permuted, snapshot);
    }

    #[test]
    fn class_tables_learn_independently() {
        // All jobs land on big server 0; the little class's table must
        // stay untouched.
        let mut cluster = ClusterConfig::paper(2);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mut mgr = RlPowerManager::for_cluster(&cluster, fast_config());
        struct ToZero;
        impl hierdrl_sim::cluster::Allocator for ToZero {
            fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
                ServerId(0)
            }
        }
        let mut sim = Cluster::new(cluster, bursty_jobs(120)).unwrap();
        sim.run(&mut ToZero, &mut mgr, RunLimit::unbounded());
        assert!(mgr.stats().updates > 0);
        let little = mgr.agents[1].table;
        assert_eq!(
            mgr.tables[little].num_states(),
            0,
            "the little class's table must not absorb big-server updates"
        );
    }

    #[test]
    fn run_begin_clears_timestamp_anchored_state() {
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(2), fast_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(2), bursty_jobs(60)).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        // Fake an aborted run: poison the state a finished run would have
        // cleared, as a harness that drops a cluster mid-run would leave it.
        for agent in &mut mgr.agents {
            agent.last_arrival = Some(SimTime::from_secs(1e6));
            agent.pending = Some(PendingDpm {
                state: 0,
                action: 0,
                time_s: 1e6,
                energy_j: 0.0,
                queue_integral: 0.0,
            });
        }
        mgr.on_run_begin();
        for agent in &mgr.agents {
            assert!(agent.last_arrival.is_none(), "last_arrival must reset");
            assert!(agent.pending.is_none(), "pending must reset");
        }
    }

    #[test]
    fn carrying_across_segments_fabricates_no_inter_arrival_gap() {
        // Segment A ends late (~45,000 s); segment B's first arrivals land
        // within seconds of its own time zero. A leaked last-arrival mark
        // would feed the predictor a negative gap at the boundary — which
        // the predictor now rejects and counts. The regression contract is
        // exact: zero rejections, and per-segment observation counts that
        // match independent runs (one unobservable gap per server per
        // segment, never one fewer).
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(1), fast_config());
        let seg_a = bursty_jobs(90);
        let seg_b = bursty_jobs(60);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), seg_a).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(mgr.predictor_observations(), 89);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), seg_b).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(
            mgr.predictor_observations(),
            89 + 59,
            "the cross-segment boundary must contribute no observation"
        );
        assert_eq!(
            mgr.rejected_observations(),
            0,
            "no fabricated (non-positive) gap may reach the predictor"
        );
    }

    #[test]
    fn frozen_manager_stops_learning_but_keeps_deciding() {
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(2), fast_config());
        let jobs = bursty_jobs(120);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs.clone()).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        let (updates, decisions) = (mgr.stats().updates, mgr.stats().decisions);
        assert!(updates > 0);
        let training_steps = |mgr: &RlPowerManager| {
            (0..2)
                .map(|s| mgr.trainer.wait_for(s).training_steps())
                .sum()
        };
        let trained_steps: u64 = training_steps(&mgr);

        mgr.set_learning(false);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
        let out = cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 120, "frozen manager still runs");
        assert_eq!(mgr.stats().updates, updates, "no Q updates while frozen");
        assert!(mgr.stats().decisions > decisions, "decisions keep flowing");
        assert_eq!(
            training_steps(&mgr),
            trained_steps,
            "predictor weights frozen too"
        );
    }

    #[test]
    fn frozen_manager_reads_an_unvisited_state_as_the_learner_does() {
        // Frozen before any update, every state the run meets is unvisited:
        // its row is all zeros, on which the learner's greedy choice (ε = 0)
        // is action 0, a timeout of 0 s.
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(2), fast_config());
        mgr.set_learning(false);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), bursty_jobs(30)).unwrap();
        let mut recorder = Recorder(&mut mgr, Vec::new());
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut recorder,
            RunLimit::unbounded(),
        );
        let decisions = recorder.1;
        assert_eq!(mgr.tables[0].num_states(), 0, "no state was visited");
        let mut rng = StdRng::seed_from_u64(0);
        let greedy = EpsilonGreedy::constant(0.0).select(&mgr.tables[0].q_row(&0), &mut rng);
        assert_eq!(mgr.config.timeouts[greedy], 0.0);
        assert!(decisions.len() >= 10, "only {} epochs", decisions.len());
        assert!(
            decisions.iter().all(|&d| d == TimeoutDecision::SleepNow),
            "{decisions:?}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = fast_config();
        c.timeouts.clear();
        assert!(c.validate().is_err());

        let mut c = fast_config();
        c.weight = 1.5;
        assert!(c.validate().is_err());

        let mut c = fast_config();
        c.iat_bins = 1;
        assert!(c.validate().is_err());

        // Every predictor setting that `LstmIatPredictor::new` or
        // `Adam::new` would assert on fails validation by name instead.
        let predictor_error = |edit: fn(&mut PredictorConfig)| {
            let mut c = fast_config();
            edit(&mut c.predictor);
            c.validate().expect_err("invalid predictor config")
        };
        assert_eq!(
            predictor_error(|p| p.lookback = 1),
            "predictor: lookback must be at least 2, got 1"
        );
        assert!(predictor_error(|p| p.hidden = 0).contains("hidden unit"));
        for lr in [0.0, -1e-3, f32::NAN] {
            let mut c = fast_config();
            c.predictor.learning_rate = lr;
            assert!(c.validate().unwrap_err().contains("learning rate"));
        }
        assert!(predictor_error(|p| p.min_iat = p.max_iat).contains("min_iat"));
    }

    /// Arrivals over three servers (job `i` on server `i % 3`): 200 long
    /// jobs a second apart keep every server busy (no epoch, so backlogs
    /// build up), then bursts with quiet gaps (epochs). Four jobs share
    /// one instant, so server 0 sees a zero gap, which its predictor
    /// rejects.
    fn three_server_schedule() -> Vec<Job> {
        let mut jobs = Vec::new();
        let mut t = 0.0;
        for i in 0..400u64 {
            t += match i {
                0..=199 => 1.0,
                201..=203 => 0.0,
                _ if i % 9 == 0 => 700.0,
                _ => 15.0,
            };
            let duration = if i < 200 { 300.0 } else { 40.0 };
            jobs.push(Job::new(
                JobId(i),
                SimTime::from_secs(t),
                duration,
                ResourceVec::cpu_mem_disk(0.05, 0.05, 0.05),
            ));
        }
        jobs
    }

    /// Places job `i` on server `i % 3`.
    struct ByJobId;
    impl hierdrl_sim::cluster::Allocator for ByJobId {
        fn select(&mut self, job: &Job, _view: &ClusterView<'_>) -> ServerId {
            ServerId(job.id.0 as usize % 3)
        }
    }

    /// Forwards to the manager and records every timeout decision.
    struct Recorder<'a>(&'a mut RlPowerManager, Vec<TimeoutDecision>);
    impl PowerManager for Recorder<'_> {
        fn on_idle(
            &mut self,
            server: ServerId,
            view: &ClusterView<'_>,
            now: SimTime,
        ) -> TimeoutDecision {
            let decision = self.0.on_idle(server, view, now);
            self.1.push(decision);
            decision
        }
        fn on_job_arrival(&mut self, server: ServerId, view: &ClusterView<'_>, now: SimTime) {
            self.0.on_job_arrival(server, view, now);
        }
        fn on_run_begin(&mut self) {
            self.0.on_run_begin();
        }
        fn on_run_end(&mut self, view: &ClusterView<'_>) {
            self.0.on_run_end(view);
        }
    }

    /// Drives `three_server_schedule` three times through a manager built
    /// under a `threads`-thread budget: learning, frozen, learning again.
    /// Returns everything observable: the decisions, Q-tables, accessors
    /// and each server's next prediction, plus whether a worker started.
    fn drive(threads: usize) -> (String, bool) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(drive_here)
    }

    /// [`drive`] under this thread's budget.
    fn drive_here() -> (String, bool) {
        let mut mgr = RlPowerManager::for_cluster(&ClusterConfig::paper(3), fast_config());
        let mut decisions = Vec::new();
        for learning in [true, false, true] {
            mgr.set_learning(learning);
            let mut cluster =
                Cluster::new(ClusterConfig::paper(3), three_server_schedule()).unwrap();
            let mut recorder = Recorder(&mut mgr, Vec::new());
            cluster.run(&mut ByJobId, &mut recorder, RunLimit::unbounded());
            decisions.push(recorder.1);
        }
        let predictions: Vec<Option<u64>> = (0..3)
            .map(|s| mgr.trainer.wait_for(s).predict().map(f64::to_bits))
            .collect();
        let observed = format!(
            "{decisions:?}\n{:?}\n{} {} {:?}\n{predictions:?}\n{:?}",
            mgr.tables,
            mgr.predictor_observations(),
            mgr.rejected_observations(),
            mgr.mean_predictor_mse().map(f64::to_bits),
            mgr.stats(),
        );
        (observed, mgr.trainer.has_worker())
    }

    #[test]
    fn background_training_matches_inline_training_bit_for_bit() {
        let (threaded, worker) = drive(2);
        let (inline, no_worker) = drive(1);
        assert!(worker, "a 2-thread budget trains on a worker");
        assert!(!no_worker, "a 1-thread budget trains inline");
        assert_eq!(threaded, inline);
        // The schedule exercised what it is meant to.
        assert!(threaded.contains("SleepNow") || threaded.contains("After"));
        let mgr_counts = threaded.lines().nth(2).unwrap().to_owned();
        assert!(mgr_counts.starts_with("1188 3 Some("), "{mgr_counts}");
    }

    #[test]
    fn the_worker_starts_at_the_first_training_observation() {
        // `n` jobs, all on server 0: `n - 1` observations.
        let run = |mgr: &mut RlPowerManager, n: u64| {
            let jobs = (0..n)
                .map(|i| {
                    let at = SimTime::from_secs(100.0 * i as f64);
                    let demand = ResourceVec::cpu_mem_disk(0.1, 0.1, 0.1);
                    Job::new(JobId(3 * i), at, 10.0, demand)
                })
                .collect();
            let mut cluster = Cluster::new(ClusterConfig::paper(3), jobs).unwrap();
            cluster.run(&mut ByJobId, mgr, RunLimit::unbounded());
        };
        let pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        };
        let build = || RlPowerManager::for_cluster(&ClusterConfig::paper(3), fast_config());
        let lookback = fast_config().predictor.lookback as u64;
        pool(2).install(|| {
            let mut mgr = build();
            assert!(!mgr.trainer.has_worker(), "not when the manager is built");
            run(&mut mgr, lookback + 1);
            assert_eq!(mgr.predictor_observations(), lookback);
            assert!(!mgr.trainer.has_worker(), "not while the window fills");
            run(&mut mgr, 2);
            assert!(
                mgr.trainer.has_worker(),
                "at the first training observation"
            );
            assert_eq!(mgr.trainer.wait_for(0).training_steps(), 1);

            // Frozen predictors never start one.
            let mut frozen = build();
            frozen.set_learning(false);
            run(&mut frozen, 100);
            assert!(!frozen.trainer.has_worker());
            assert_eq!(frozen.trainer.wait_for(0).training_steps(), 0);
        });
        // Nor does a one-thread budget.
        pool(1).install(|| {
            let mut inline = build();
            run(&mut inline, 100);
            assert!(!inline.trainer.has_worker());
            assert_eq!(inline.trainer.wait_for(0).training_steps(), 99 - lookback);
        });
    }

    #[test]
    fn manager_is_send() {
        fn send<T: Send>() {}
        send::<RlPowerManager>();
    }
}
