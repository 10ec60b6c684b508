//! The benchmark's workloads: their recipes, their set-up, and one
//! evaluation of each, driven through the layers' public APIs only.
//!
//! Recipes come from `hierdrl_exp` (`Scenario`, `Pretrain`, `TraceSpec`,
//! `ScaleSpec`), execution from the simulator kernel (`Cluster::new`,
//! `Cluster::from_source`, `Cluster::run`), and the learners from
//! `hierdrl_core` (`DrlAllocator`, `RlPowerManager`) — never from the
//! `core::runner` run entry points. [`equivalence_gate`] proves that this
//! pipeline computes exactly what the suite runner computes.

use crate::layers::{time_stream, AllocatorSpans, PowerSpans, Shadow, TimedAllocator, TimedPower};
use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig, DrlSnapshot, DrlStats};
use hierdrl_core::dpm::{DpmSnapshot, DpmStats, RlPowerConfig, RlPowerManager};
use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
use hierdrl_core::runner::{concat_segments, ExperimentResult, FleetStats};
use hierdrl_exp::report::CellMetrics;
use hierdrl_exp::runner::SuiteRunner;
use hierdrl_exp::scale::{run_scale_cell, ScaleSpec};
use hierdrl_exp::scenario::{DriftSpec, PolicySpec, Pretrain, Scenario, Topology, WorkloadSpec};
use hierdrl_exp::suite::Suite;
use hierdrl_sim::cluster::{Allocator, ArrivalSource, Cluster, PowerManager, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::metrics::LatencyStats;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::trace::Trace;
use serde::Serialize;
use std::time::Instant;

/// Servers in the paper's cluster (the learned and local-tier workloads).
const PAPER_M: usize = 30;
/// Jobs per evaluation at full size. Each evaluation takes about a second,
/// so a measured run repeats it many times and reports the median, which
/// rides out bursts of interference from other work on the machine.
const HIER_JOBS: u64 = 5_000;
const FROZEN_JOBS: u64 = 100_000;
const DPM_JOBS: u64 = 20_000;
const RR_SERVERS: usize = 100_000;
const RR_JOBS: u64 = 400_000;
/// Seed of the learned workloads' pre-training rollouts and learner RNGs.
/// The trained model belongs to the system under test, not to its input:
/// `--seed` picks the evaluation trace, and every seed meets the same
/// model. (Models trained from different seeds differ by ~9% in energy per
/// job, which would swamp any regression bound.)
pub const MODEL_SEED: u64 = 42;
/// The raw-scale workload's policy, as `hierdrl_exp::scale` names it.
const RR_POLICY: &str = "rr-timeout-60s";
const RR_TIMEOUT_S: f64 = 60.0;

/// Timed calls per hook a traced evaluation aims at: hooks of longer
/// evaluations are sampled (see [`crate::layers::Sampler`]).
const SPAN_BUDGET: u64 = 1 << 16;

/// Size of the equivalence gate's runs, relative to full size.
pub const GATE_SCALE: f64 = 0.1;
/// Size of a `--smoke` run, relative to full size.
pub const SMOKE_SCALE: f64 = 0.02;

/// One of the benchmark's workloads. Each isolates a different layer; see
/// the README for the layer each one exercises and bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline system at its M, learning online.
    HierM30,
    /// The same learners as `HierM30`, run read-only.
    HierM30Frozen,
    /// The local tier alone: round-robin placement + RL power management.
    DpmM30,
    /// Round-robin at raw scale over a streamed trace.
    RrM100k,
}

/// Every workload, in the benchmark's declared order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::HierM30,
    Workload::HierM30Frozen,
    Workload::DpmM30,
    Workload::RrM100k,
];

/// What a workload runs: a suite scenario, or a raw-scale point.
#[derive(Debug, Clone)]
pub enum Recipe {
    /// A single-cluster scenario, executed as the suite runner would, with
    /// its evaluation trace replaced by `eval` (the scenario's own for a
    /// suite cell).
    Suite {
        /// Cluster, policy, pre-training and learner seeds.
        model: Box<Scenario>,
        /// Evaluation segment recipes.
        eval: Vec<TraceSpec>,
    },
    /// A streamed raw-scale point, as `run_scale_cell` would execute it.
    Scale(ScaleSpec),
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HierM30 => "hier-m30",
            Workload::HierM30Frozen => "hier-m30-frozen",
            Workload::DpmM30 => "dpm-m30",
            Workload::RrM100k => "rr-m100k",
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    ///
    /// Names the known workloads when `name` is not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; expected one of {known:?}")
            })
    }

    /// The measured recipe at `scale` times full size: the evaluation trace
    /// of `seed`, run against the learners of [`MODEL_SEED`].
    pub fn recipe(self, seed: u64, scale: f64) -> Recipe {
        if self == Workload::RrM100k {
            return self.cell(seed, scale);
        }
        Recipe::Suite {
            model: Box::new(self.scenario(MODEL_SEED, scale)),
            eval: self.scenario(seed, scale).segment_trace_specs(),
        }
    }

    /// The suite cell of `seed` at `scale` times full size: learners and
    /// evaluation trace both derived from `seed`, exactly as the suite
    /// runner (or `run_scale_cell`) derives them.
    pub fn cell(self, seed: u64, scale: f64) -> Recipe {
        match self {
            Workload::RrM100k => Recipe::Scale(ScaleSpec {
                m: ((RR_SERVERS as f64 * scale).round() as usize).max(1),
                jobs: scaled(RR_JOBS, scale),
                seed,
            }),
            _ => {
                let model = self.scenario(seed, scale);
                Recipe::Suite {
                    eval: model.segment_trace_specs(),
                    model: Box::new(model),
                }
            }
        }
    }

    /// The scenario of a suite workload (job counts scale with `scale`;
    /// pre-training budgets follow the evaluation length as `Pretrain`
    /// defines them).
    ///
    /// # Panics
    ///
    /// Panics for the raw-scale workload, which is not a suite cell.
    fn scenario(self, seed: u64, scale: f64) -> Scenario {
        let paper = |n: u64, policy: PolicySpec| {
            Scenario::new(
                Topology::paper(PAPER_M),
                WorkloadSpec::paper().with_total_jobs(scaled(n, scale)),
                policy,
                seed,
                None,
            )
        };
        match self {
            Workload::HierM30 => paper(HIER_JOBS, PolicySpec::hierarchical(0.5)),
            Workload::HierM30Frozen => {
                // Rollouts of the same length as hier-m30's, from the same
                // seeds: the same learners, evaluated with learning off.
                let pretrain = Pretrain {
                    fraction: Pretrain::default().fraction * HIER_JOBS as f64 / FROZEN_JOBS as f64,
                    ..Pretrain::default()
                };
                let policy =
                    PolicySpec::hierarchical_variant(0.5, DrlAllocatorConfig::default(), pretrain);
                paper(FROZEN_JOBS, policy)
                    .with_drift(DriftSpec::stationary(1).with_frozen_learners())
            }
            Workload::DpmM30 => paper(
                DPM_JOBS,
                PolicySpec::static_pair(
                    "rr+rl-dpm",
                    AllocatorKind::RoundRobin,
                    PowerKind::Rl(RlPowerConfig::default()),
                ),
            ),
            Workload::RrM100k => panic!("rr-m100k is a raw-scale point, not a suite cell"),
        }
    }
}

/// `n` jobs at `scale` times full size (at least one).
fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Where a workload's arrivals come from.
enum Arrivals {
    /// Materialized evaluation segments (one per drift segment).
    Materialized(Vec<Trace>),
    /// A generator recipe streamed into the cluster job by job.
    Streamed(Box<TraceSpec>),
}

/// The control planes a workload evaluates.
enum Policy {
    Static {
        allocator: AllocatorKind,
        power: PowerKind,
    },
    /// Pre-trained tiers, restored fresh for every evaluation.
    Learned {
        drl: Box<DrlSnapshot>,
        dpm: Box<DpmSnapshot>,
    },
}

/// A built global tier; learned tiers keep their concrete type for stats.
enum Global {
    Static(Box<dyn Allocator>),
    Drl(Box<DrlAllocator>),
}

impl Global {
    fn as_dyn(&mut self) -> &mut dyn Allocator {
        match self {
            Global::Static(a) => a.as_mut(),
            Global::Drl(a) => a.as_mut(),
        }
    }

    fn stats(&self) -> Option<DrlStats> {
        match self {
            Global::Static(_) => None,
            Global::Drl(a) => Some(*a.stats()),
        }
    }
}

/// A built local tier; the RL tier keeps its concrete type for stats.
enum Local {
    Static(Box<dyn PowerManager>),
    Rl(Box<RlPowerManager>),
}

impl Local {
    fn as_dyn(&mut self) -> &mut dyn PowerManager {
        match self {
            Local::Static(p) => p.as_mut(),
            Local::Rl(p) => p.as_mut(),
        }
    }

    /// `(stats, accepted predictor observations, rejected observations)`.
    fn stats(&self) -> Option<(DpmStats, u64, u64)> {
        match self {
            Local::Static(_) => None,
            Local::Rl(p) => Some((
                *p.stats(),
                p.predictor_observations(),
                p.rejected_observations(),
            )),
        }
    }
}

/// Wall time of one set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generating the evaluation and pre-training traces.
    pub materialize_s: f64,
    /// Pre-training rollouts of the learned tiers.
    pub pretrain_s: f64,
    /// Restoring the learners and building the cluster for one evaluation.
    pub prepare_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.materialize_s + self.pretrain_s + self.prepare_s
    }
}

/// How an evaluation is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No decorators: the end-to-end measurement.
    Off,
    /// Decorators time every layer boundary.
    Timed,
    /// As `Timed`, plus the shadow encode/forward calls on learned tiers.
    Shadowed,
}

/// Work counters of one evaluation. Deterministic: a seed's counts repeat
/// exactly from run to run, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Counts {
    /// Global-tier decisions made by the DRL learner (0 for static tiers).
    pub drl_decisions: u64,
    /// DNN minibatch updates during the evaluation.
    pub train_steps: u64,
    /// Case-(1) timeout decisions of the RL local tier.
    pub dpm_decisions: u64,
    /// SMDP Q-table updates of the RL local tier.
    pub q_updates: u64,
    /// Inter-arrival observations the LSTM predictors accepted.
    pub predictor_observations: u64,
    /// Observations the predictors rejected (all evaluations so far).
    pub predictor_rejected: u64,
    /// Training-loss EMA of the DRL learner after the evaluation.
    pub loss_ema: Option<f64>,
    /// Whether the autoencoder was trained before the evaluation began.
    pub autoencoder_trained_before: Option<bool>,
}

/// Spans of one traced evaluation.
#[derive(Debug)]
pub struct Spans {
    /// Global-tier spans (select, plus shadow encode/forward after each
    /// timed select).
    pub allocator: AllocatorSpans,
    /// Local-tier spans.
    pub power: PowerSpans,
    /// Time generating the streamed arrivals, measured by a shadow pass
    /// (`Probe::Shadowed` only; 0 for materialized traces).
    pub stream_ns: u64,
}

/// The outcome of one evaluation.
#[derive(Debug)]
pub struct Rep {
    /// Evaluation wall time, seconds (shadow calls excluded).
    pub eval_s: f64,
    /// The simulation result, as the suite runner would report it.
    pub result: ExperimentResult,
    /// Learner work counters.
    pub counts: Counts,
    /// Layer spans (`None` when the probe was off).
    pub spans: Option<Spans>,
}

impl Rep {
    /// A 64-bit FNV-1a digest of the simulated result and every count:
    /// equal digests mean the same simulated outputs.
    pub fn digest(&self) -> String {
        let text = serde_json::to_string(&(&self.result, &self.counts))
            .expect("result and counts serialize");
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }
}

/// Everything one evaluation needs, built before its timer starts.
struct Prepared {
    global: Global,
    local: Local,
    /// One cluster per evaluation segment.
    clusters: Vec<Cluster>,
}

/// A workload after set-up: traces generated and learners pre-trained.
pub struct Setup {
    /// Jobs one evaluation must see arrive.
    pub jobs: u64,
    name: String,
    cluster: ClusterConfig,
    arrivals: Arrivals,
    policy: Policy,
    limit: RunLimit,
    online: bool,
    segmented: bool,
    /// Wall time of this set-up.
    pub times: SetupTimes,
    /// Learner statistics at the end of pre-training.
    pub pretrained: Option<(DrlStats, DpmStats)>,
}

/// The cluster a single-cluster scenario runs on.
fn single_cluster(scenario: &Scenario) -> Result<ClusterConfig, String> {
    if scenario.topology.is_multi_cluster()
        || scenario.fault.is_some()
        || scenario.elastic.is_some()
        || scenario.workload.is_real()
    {
        return Err(format!(
            "{}: the benchmark runs synthetic single-cluster scenarios only",
            scenario.id
        ));
    }
    Ok(scenario.topology.clusters()[0].clone())
}

fn materialize(specs: &[TraceSpec]) -> Result<Vec<Trace>, String> {
    specs.iter().map(TraceSpec::materialize).collect()
}

impl Setup {
    /// Generates the traces and pre-trains the learners of `recipe`,
    /// timing each phase, then times preparing one evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error for an unsupported scenario or an invalid trace or
    /// cluster configuration.
    pub fn build(recipe: &Recipe) -> Result<Self, String> {
        let mut times = SetupTimes::default();
        let mut setup = match recipe {
            Recipe::Scale(spec) => Self {
                jobs: spec.jobs,
                name: RR_POLICY.to_string(),
                cluster: spec.cluster(),
                arrivals: Arrivals::Streamed(Box::new(spec.trace_spec())),
                policy: Policy::Static {
                    allocator: AllocatorKind::RoundRobin,
                    power: PowerKind::FixedTimeout(RR_TIMEOUT_S),
                },
                limit: RunLimit::unbounded(),
                online: true,
                segmented: false,
                times,
                pretrained: None,
            },
            Recipe::Suite {
                model: scenario,
                eval,
            } => {
                let cluster = single_cluster(scenario)?;
                let started = Instant::now();
                let traces = materialize(eval)?;
                let (policy, pretrained) = match &scenario.policy {
                    PolicySpec::Static {
                        allocator, power, ..
                    } => {
                        times.materialize_s = started.elapsed().as_secs_f64();
                        let policy = Policy::Static {
                            allocator: allocator.clone(),
                            power: power.clone(),
                        };
                        (policy, None)
                    }
                    PolicySpec::Hierarchical {
                        pretrain,
                        co_pretrain: true,
                        ..
                    } => {
                        let eval_jobs = scenario.workload.jobs_for(scenario.topology.servers());
                        let rollouts = materialize(&pretrain.segment_specs(
                            cluster.num_servers,
                            eval_jobs,
                            &scenario.workload,
                            scenario.policy_seed(),
                        ))?;
                        times.materialize_s = started.elapsed().as_secs_f64();
                        let started = Instant::now();
                        let (drl, dpm) = pretrain_pair(scenario, &cluster, &rollouts)?;
                        times.pretrain_s = started.elapsed().as_secs_f64();
                        let stats = (*drl.stats(), *dpm.stats());
                        let policy = Policy::Learned {
                            drl: Box::new(drl.snapshot()),
                            dpm: Box::new(dpm.snapshot()),
                        };
                        (policy, Some(stats))
                    }
                    other => {
                        return Err(format!(
                            "{}: policy {} is not a benchmark policy",
                            scenario.id,
                            other.name()
                        ))
                    }
                };
                Self {
                    jobs: traces.iter().map(|t| t.len() as u64).sum(),
                    name: scenario.policy.name(),
                    cluster,
                    arrivals: Arrivals::Materialized(traces),
                    policy,
                    limit: scenario.run_limit(),
                    online: scenario.online_learning(),
                    segmented: scenario.drift.is_some(),
                    times,
                    pretrained,
                }
            }
        };
        let started = Instant::now();
        drop(setup.prepare()?);
        setup.times.prepare_s = started.elapsed().as_secs_f64();
        Ok(setup)
    }

    /// Restores the learners and builds the clusters for one evaluation.
    fn prepare(&self) -> Result<Prepared, String> {
        let (mut global, mut local) = match &self.policy {
            Policy::Static { allocator, power } => {
                let global = Global::Static(
                    allocator.build(self.cluster.num_servers, self.cluster.resource_dims),
                );
                // The RL tier is built as `PowerKind::build` would, but kept
                // concrete so its predictor health stays observable.
                let local = match power {
                    PowerKind::Rl(config) => Local::Rl(Box::new(RlPowerManager::for_cluster(
                        &self.cluster,
                        config.clone(),
                    ))),
                    other => Local::Static(other.build(&self.cluster)),
                };
                (global, local)
            }
            Policy::Learned { drl, dpm } => (
                Global::Drl(Box::new(DrlAllocator::from_snapshot((**drl).clone()))),
                Local::Rl(Box::new(RlPowerManager::from_snapshot_for_cluster(
                    &self.cluster,
                    (**dpm).clone(),
                ))),
            ),
        };
        if !self.online {
            if let Global::Drl(a) = &mut global {
                a.set_learning(false);
            }
            if let Local::Rl(p) = &mut local {
                p.set_learning(false);
            }
        }
        let clusters = match &self.arrivals {
            Arrivals::Materialized(traces) => traces
                .iter()
                .map(|t| Cluster::new(self.cluster.clone(), t.jobs().to_vec()))
                .collect::<Result<_, _>>()?,
            Arrivals::Streamed(spec) => {
                let source = ArrivalSource::from_stream(spec.stream()?);
                vec![Cluster::from_source(self.cluster.clone(), source)?]
            }
        };
        Ok(Prepared {
            global,
            local,
            clusters,
        })
    }

    /// Runs one evaluation from freshly restored learners. Only the
    /// simulation and the assembly of its result are timed.
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster cannot be built.
    pub fn evaluate(&self, probe: Probe) -> Result<Rep, String> {
        let mut p = self.prepare()?;
        let shadow = match (&p.global, probe) {
            (Global::Drl(a), Probe::Shadowed) => {
                let snapshot = a.snapshot();
                Some(Shadow {
                    encoder: snapshot.encoder,
                    qnet: snapshot.qnet,
                })
            }
            _ => None,
        };
        let drl_before = p.global.stats();
        let dpm_before = p.local.stats();
        let mut timed = None;
        let (allocator, power): (&mut dyn Allocator, &mut dyn PowerManager) = match probe {
            Probe::Off => (p.global.as_dyn(), p.local.as_dyn()),
            Probe::Timed | Probe::Shadowed => {
                let stride = self.jobs.div_ceil(SPAN_BUDGET);
                let (a, pw) = timed.insert((
                    TimedAllocator::new(p.global.as_dyn(), shadow.as_ref(), self.jobs, stride),
                    TimedPower::new(p.local.as_dyn(), stride),
                ));
                (a, pw)
            }
        };
        let started = Instant::now();
        let mut results = Vec::with_capacity(p.clusters.len());
        for cluster in &mut p.clusters {
            let outcome = cluster.run(allocator, power, self.limit);
            results.push(ExperimentResult {
                name: self.name.clone(),
                latency: LatencyStats::from_jobs(cluster.completed_jobs()),
                fleet: fleet_stats(cluster),
                outcome,
            });
        }
        // Drift cells report the time-sequential concatenation, as the
        // suite runner does, even for a single segment.
        let result = if self.segmented {
            let refs: Vec<&ExperimentResult> = results.iter().collect();
            concat_segments(&self.name, &refs)
        } else {
            results.remove(0)
        };
        let wall_s = started.elapsed().as_secs_f64();
        let stream_ns = match (&self.arrivals, probe) {
            (Arrivals::Streamed(spec), Probe::Shadowed) => time_stream(spec.stream()?),
            _ => 0,
        };
        let spans = timed.map(|(a, pw)| Spans {
            allocator: a.spans,
            power: pw.spans,
            stream_ns,
        });
        // The shadow calls ran inside the timed interval; take out the time
        // they actually took (not the estimate scaled to every call).
        let shadow_ns = spans
            .as_ref()
            .map_or(0, |s| s.allocator.encode_ns + s.allocator.q_values_ns);

        let drl_after = p.global.stats();
        let dpm_after = p.local.stats();
        let mut counts = Counts {
            loss_ema: drl_after.map(|s| s.loss_ema),
            autoencoder_trained_before: drl_before.map(|s| s.autoencoder_trained),
            ..Counts::default()
        };
        if let (Some(before), Some(after)) = (drl_before, drl_after) {
            counts.drl_decisions = after.decisions - before.decisions;
            counts.train_steps = after.train_steps - before.train_steps;
        }
        if let (Some(before), Some(after)) = (dpm_before, dpm_after) {
            counts.dpm_decisions = after.0.decisions - before.0.decisions;
            counts.q_updates = after.0.updates - before.0.updates;
            counts.predictor_observations = after.1 - before.1;
            counts.predictor_rejected = after.2;
        }
        Ok(Rep {
            eval_s: wall_s - shadow_ns as f64 * 1e-9,
            result,
            counts,
            spans,
        })
    }
}

/// Co-pre-trains both tiers of a hierarchical scenario on its rollouts, as
/// the suite runner does before evaluating the cell.
fn pretrain_pair(
    scenario: &Scenario,
    cluster: &ClusterConfig,
    rollouts: &[Trace],
) -> Result<(DrlAllocator, RlPowerManager), String> {
    let drl_config = scenario
        .drl_config()
        .ok_or_else(|| format!("{}: no global-tier config", scenario.id))?;
    let dpm_config = scenario
        .co_pretrain_dpm_config()
        .ok_or_else(|| format!("{}: no local-tier config", scenario.id))?;
    // Sized at the slot ceiling, like the suite runner's learners.
    let mut drl = DrlAllocator::new(cluster.effective_max(), cluster.resource_dims, drl_config);
    let mut dpm = RlPowerManager::for_cluster(cluster, dpm_config);
    for rollout in rollouts {
        let mut sim = Cluster::new(cluster.clone(), rollout.jobs().to_vec())?;
        sim.run(&mut drl, &mut dpm, RunLimit::unbounded());
    }
    Ok((drl, dpm))
}

/// Fleet power-state fractions of a finished cluster, computed with the
/// same operations in the same order as `hierdrl_core::runner`, so the
/// equivalence gate can compare results bit for bit.
fn fleet_stats(cluster: &Cluster) -> FleetStats {
    let mut f = FleetStats::default();
    let n = cluster.servers().len() as f64;
    for s in cluster.servers() {
        let st = s.stats();
        let total = (st.busy_seconds + st.idle_seconds + st.sleep_seconds + st.transition_seconds)
            .max(1e-9);
        f.busy_fraction += st.busy_seconds / total / n;
        f.idle_fraction += st.idle_seconds / total / n;
        f.sleep_fraction += st.sleep_seconds / total / n;
        f.transition_fraction += st.transition_seconds / total / n;
        f.total_wake_transitions += st.wake_transitions;
    }
    f
}

/// Runs the suite cell of `workload` for `seed` at `scale` (normally
/// [`GATE_SCALE`]) through both this benchmark's pipeline and the
/// repository's own runner (`SuiteRunner::serial`, or `run_scale_cell` for
/// the raw-scale workload), and requires byte-equal `CellMetrics`.
///
/// # Errors
///
/// Returns a message naming the workload when either run fails or the
/// metrics differ.
pub fn equivalence_gate(workload: Workload, seed: u64, scale: f64) -> Result<(), String> {
    let recipe = workload.cell(seed, scale);
    let ours = Setup::build(&recipe)?.evaluate(Probe::Off)?.result;
    let reference = match &recipe {
        Recipe::Suite { model, .. } => {
            let suite = Suite {
                name: "equivalence-gate".into(),
                scenarios: vec![(**model).clone()],
                expectations: Vec::new(),
            };
            let mut run = SuiteRunner::serial().run(&suite)?;
            run.cells.remove(0).result
        }
        Recipe::Scale(spec) => run_scale_cell(spec, RR_POLICY)?.result,
    };
    let json = |r: &ExperimentResult| {
        serde_json::to_string(&CellMetrics::from_result(r)).expect("cell metrics serialize")
    };
    let (ours, reference) = (json(&ours), json(&reference));
    if ours == reference {
        Ok(())
    } else {
        Err(format!(
            "equivalence gate: {} differs from the suite runner\n  benchmark: {ours}\n  runner:    {reference}",
            workload.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pretrain_specs(workload: Workload, scale: f64) -> Vec<TraceSpec> {
        let Recipe::Suite {
            model: scenario, ..
        } = workload.recipe(5, scale)
        else {
            panic!("{} is a suite workload", workload.name());
        };
        let PolicySpec::Hierarchical { pretrain, .. } = &scenario.policy else {
            panic!("{} is hierarchical", workload.name());
        };
        pretrain.segment_specs(
            PAPER_M,
            scenario.workload.jobs_for(PAPER_M),
            &scenario.workload,
            scenario.policy_seed(),
        )
    }

    #[test]
    fn frozen_workload_pretrains_the_same_learners() {
        for scale in [1.0, GATE_SCALE, SMOKE_SCALE] {
            assert_eq!(
                pretrain_specs(Workload::HierM30, scale),
                pretrain_specs(Workload::HierM30Frozen, scale),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn the_seed_picks_the_evaluation_trace_and_not_the_model() {
        let (Recipe::Suite { model: a, eval: ea }, Recipe::Suite { model: b, eval: eb }) = (
            Workload::HierM30.recipe(1, SMOKE_SCALE),
            Workload::HierM30.recipe(2, SMOKE_SCALE),
        ) else {
            panic!("hier-m30 is a suite workload");
        };
        assert_eq!(a, b);
        assert_eq!(a.seed, MODEL_SEED);
        assert_ne!(ea, eb);
        let Recipe::Suite { eval, .. } = Workload::HierM30.cell(2, SMOKE_SCALE) else {
            panic!("hier-m30 is a suite workload");
        };
        assert_eq!(eval, eb);
    }

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").unwrap_err().contains("hier-m30"));
    }

    #[test]
    fn every_workload_matches_the_suite_runner() {
        for w in WORKLOADS {
            equivalence_gate(w, 7, GATE_SCALE).unwrap();
        }
    }

    #[test]
    fn traced_and_untraced_evaluations_agree() {
        for w in WORKLOADS {
            let setup = Setup::build(&w.recipe(3, SMOKE_SCALE)).unwrap();
            let plain = setup.evaluate(Probe::Off).unwrap();
            let traced = setup.evaluate(Probe::Shadowed).unwrap();
            assert_eq!(plain.digest(), traced.digest(), "{}", w.name());
            assert!(plain.spans.is_none());
            let spans = traced.spans.unwrap();
            let totals = &traced.result.outcome.totals;
            assert_eq!(spans.allocator.select.calls(), totals.jobs_arrived);
            let drl = matches!(w, Workload::HierM30 | Workload::HierM30Frozen);
            assert_eq!(spans.allocator.encode_ns > 0, drl, "{}", w.name());
        }
    }
}
