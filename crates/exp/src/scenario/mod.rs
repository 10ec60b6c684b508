//! The atomic unit of experiment orchestration: one [`Scenario`] names one
//! (topology, workload, policy, seed, limit) cell of a sweep grid.
//!
//! Each axis of the grid lives in its own module — [`Topology`],
//! [`WorkloadSpec`], [`DriftSpec`], [`FaultSpec`], [`ElasticSpec`] and
//! [`PolicySpec`] — and is re-exported here. The fault and elastic axes
//! both lower to one [`FleetSchedule`] per execution unit and segment.

mod drift;
mod elastic;
mod fault;
mod fleet;
mod policy;
mod topology;
mod workload;

pub use drift::DriftSpec;
pub use elastic::ElasticSpec;
pub use fault::{FaultShape, FaultSpec};
pub(crate) use fleet::CellFleet;
pub use fleet::FleetSchedule;
pub use policy::{PolicySpec, Pretrain};
pub use topology::{big_little_config, num_big_servers, Topology};
pub use workload::{JobsBudget, WorkloadSpec, DEFAULT_DEMAND_GATE, PAPER_WEEKLY_JOBS_PER_SERVER};

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::dpm::RlPowerConfig;
use hierdrl_sim::cluster::RunLimit;
use hierdrl_trace::drift::{SegmentShift, SegmentedTraceSpec};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::pattern::SECS_PER_WEEK;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: decorrelates derived seeds so that per-cell seed
/// streams are independent (changing one scenario's seed perturbs only that
/// scenario's trace and policy randomness). This is the one mixing
/// function used at every derivation level — cells, shards, pre-training
/// rollouts, and drift segments ([`hierdrl_trace::drift::mix_seed`]).
pub use hierdrl_trace::drift::mix_seed;

/// The named random streams of an execution unit (and of a cell), by
/// `mix_seed` stream index. Every stream draws from `mix(base, stream)`,
/// so streams are mutually disjoint; a new axis costs one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStream {
    /// The evaluation trace (cell-level only: the stream is routed).
    Trace = 1,
    /// The global-tier learner and its pre-training segments.
    Policy = 2,
    /// The local-tier learner.
    Dpm = 3,
    /// The fault schedule (which servers crash/straggle, and when).
    Fault = 4,
    /// The elastic schedule (the learned autoscaler's exploration and
    /// every seed-drawn scaling choice).
    Elastic = 5,
}

impl SeedStream {
    /// This stream's seed under `base` (a cell seed or a unit seed).
    pub fn derive(self, base: u64) -> u64 {
        mix_seed(base, self as u64)
    }
}

/// One cell of an experiment grid: everything needed to reproduce a single
/// run, including its RNG seeding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Stable identifier:
    /// `topology/workload[@drift][%fault][~elastic]/policy/s<seed>`.
    pub id: String,
    /// Cluster under test.
    pub topology: Topology,
    /// Workload recipe.
    pub workload: WorkloadSpec,
    /// Concept-drift axis: segmented evaluation with carried learners
    /// (`None` = the classic single-trace cell).
    pub drift: Option<DriftSpec>,
    /// Chaos axis: a deterministic fault schedule applied to every
    /// evaluation segment (`None` = the classic fault-free cell).
    pub fault: Option<FaultSpec>,
    /// Elastic axis: an autoscaler tier scheduling membership changes at
    /// deterministic epoch boundaries (`None` = the classic fixed fleet).
    pub elastic: Option<ElasticSpec>,
    /// Control planes.
    pub policy: PolicySpec,
    /// The cell's base seed; every random stream in the cell derives from
    /// it, so two scenarios with different seeds are independent.
    pub seed: u64,
    /// Truncate each evaluation segment's arrival stream to this many jobs
    /// before routing, for every topology (`None` = the whole stream).
    pub max_jobs: Option<u64>,
}

impl Scenario {
    /// Builds a scenario with its canonical id.
    pub fn new(
        topology: Topology,
        workload: WorkloadSpec,
        policy: PolicySpec,
        seed: u64,
        max_jobs: Option<u64>,
    ) -> Self {
        let mut scenario = Self {
            id: String::new(),
            topology,
            workload,
            drift: None,
            fault: None,
            elastic: None,
            policy,
            seed,
            max_jobs,
        };
        scenario.id = scenario.compute_id();
        scenario
    }

    /// The canonical id:
    /// `topology/workload[@drift][%fault][~elastic]/policy/s<seed>` —
    /// byte-identical to the historical format when no axis is set, so
    /// perf-gate baselines keyed on ids stay stable.
    fn compute_id(&self) -> String {
        let mut workload = self.workload.name().to_string();
        if let Some(drift) = &self.drift {
            workload = format!("{workload}@{}", drift.name);
        }
        if let Some(fault) = &self.fault {
            workload = format!("{workload}%{}", fault.name);
        }
        if let Some(elastic) = &self.elastic {
            workload = format!("{workload}~{}", elastic.name());
        }
        format!(
            "{}/{}/{}/s{}",
            self.topology.name(),
            workload,
            self.policy.name(),
            self.seed
        )
    }

    /// Attaches a drift axis, rebuilding the id as
    /// `topology/workload@drift[%fault][~elastic]/policy/s<seed>`.
    ///
    /// # Panics
    ///
    /// Panics when a synthetic-shift drift is attached to a real-trace
    /// workload: real traces drift on their own wall-clock segments
    /// ([`DriftSpec::real_segments`]), not on generator shifts.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftSpec) -> Self {
        if self.workload.is_real() {
            assert!(
                drift
                    .shifts
                    .iter()
                    .all(|s| matches!(s, SegmentShift::Stationary)),
                "drift {:?} applies generator shifts, but workload {:?} is a real trace \
                 (use DriftSpec::real_segments to replay its wall-clock segments)",
                drift.name,
                self.workload.name()
            );
        }
        self.drift = Some(drift);
        self.id = self.compute_id();
        self
    }

    /// Attaches a chaos axis, rebuilding the id as
    /// `topology/workload[@drift]%fault[~elastic]/policy/s<seed>`.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self.id = self.compute_id();
        self
    }

    /// Attaches an elastic axis, rebuilding the id as
    /// `topology/workload[@drift][%fault]~elastic/policy/s<seed>`.
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticSpec) -> Self {
        self.elastic = Some(elastic);
        self.id = self.compute_id();
        self
    }

    /// Seed of the evaluation trace (a cell-level stream: the trace is
    /// generated once per cell, then routed to the execution units).
    pub fn trace_seed(&self) -> u64 {
        SeedStream::Trace.derive(self.seed)
    }

    /// Seed of the cell-level global-tier stream: the learner (and
    /// pre-training segments) of a single-cluster cell, whose one
    /// execution unit seeds from the cell seed.
    pub fn policy_seed(&self) -> u64 {
        SeedStream::Policy.derive(self.seed)
    }

    /// Seed of named stream `stream` in execution unit `unit` — the one
    /// per-unit derivation every learner, fault schedule, and elastic
    /// schedule draws from: `mix(u, stream)` over the unit seed `u` that
    /// [`Topology::unit_seed`] derives from the cell seed.
    pub fn unit_seed(&self, unit: usize, stream: SeedStream) -> u64 {
        stream.derive(self.topology.unit_seed(self.seed, unit))
    }

    /// The evaluation trace recipe (the whole stream for non-drift cells;
    /// drift cells materialize through
    /// [`Scenario::segment_trace_specs`] instead).
    ///
    /// # Panics
    ///
    /// Panics for real-trace cells, which resolve through
    /// [`WorkloadSpec::real_source`] in the runner instead.
    pub fn trace_spec(&self) -> TraceSpec {
        self.workload.trace_spec(&self.topology, self.trace_seed())
    }

    /// The evaluation stream as ordered segment recipes: one entry (the
    /// plain [`Scenario::trace_spec`]) for non-drift cells; for drift
    /// cells, one per [`SegmentShift`], with per-segment seeds derived
    /// from the cell's trace seed (`mix(trace_seed, i)`) and the cell's
    /// total job budget split evenly across segments — so a drift cell
    /// evaluates the same volume as its stationary counterpart.
    ///
    /// # Panics
    ///
    /// Panics for real-trace cells: their segments come from wall-clock
    /// splitting of the on-disk trace (see the runner), not from recipes.
    pub fn segment_trace_specs(&self) -> Vec<TraceSpec> {
        assert!(
            !self.workload.is_real(),
            "cell {:?} replays a real trace: segments come from wall-clock splitting",
            self.id
        );
        match &self.drift {
            None => vec![self.trace_spec()],
            Some(drift) => {
                let m = self.topology.servers();
                let base = WorkloadConfig::google_like(
                    self.trace_seed(),
                    self.workload.jobs_per_week_for(m),
                );
                SegmentedTraceSpec::from_shifts(
                    &base,
                    &drift.shifts,
                    self.workload.jobs_for(m) as usize,
                    self.trace_seed(),
                )
                .segments
            }
        }
    }

    /// Number of evaluation segments (1 for non-drift cells).
    pub fn num_segments(&self) -> usize {
        self.drift.as_ref().map_or(1, DriftSpec::num_segments)
    }

    /// Whether learners keep training online during evaluation (`false`
    /// only for frozen-ablation drift cells).
    pub fn online_learning(&self) -> bool {
        self.drift.as_ref().is_none_or(|d| d.online)
    }

    /// Display label of segment `i` (used in per-segment report rows):
    /// the shift's label for synthetic drift cells, a wall-clock window
    /// label (`week0`, `week1`, … — or `seg<i>` for non-week windows) for
    /// real-trace drift cells whose segment count is data-driven.
    pub fn segment_label(&self, i: usize) -> String {
        match &self.drift {
            None => "full".into(),
            Some(_) if self.workload.is_real() => {
                if (self.workload.segment_window_s() - SECS_PER_WEEK).abs() < 1e-9 {
                    format!("week{i}")
                } else {
                    format!("seg{i}")
                }
            }
            Some(drift) => drift.shifts[i].label(),
        }
    }

    /// The run limit each execution unit runs every segment under: at most
    /// `max_jobs` completions, which a unit reaches only when it holds the
    /// whole truncated stream (it then stops at its last completion).
    pub fn run_limit(&self) -> RunLimit {
        match self.max_jobs {
            Some(n) => RunLimit::jobs(n),
            None => RunLimit::unbounded(),
        }
    }

    /// The pre-trained global tier's configuration seeded with
    /// `policy_seed` (`None` for static pairs, whose learned kinds keep
    /// their own config seed).
    pub(crate) fn drl_config_seeded(&self, policy_seed: u64) -> Option<DrlAllocatorConfig> {
        match &self.policy {
            PolicySpec::Static { .. } => None,
            PolicySpec::Drl { config, .. } | PolicySpec::Hierarchical { config, .. } => {
                let mut config = config.as_deref().cloned().unwrap_or_default();
                config.seed = policy_seed;
                Some(config)
            }
        }
    }

    /// The local-tier configuration seeded with `dpm_seed` (hierarchical
    /// only).
    pub(crate) fn dpm_config_seeded(&self, dpm_seed: u64) -> Option<RlPowerConfig> {
        match &self.policy {
            PolicySpec::Hierarchical { weight, .. } => Some(RlPowerConfig {
                weight: *weight,
                seed: dpm_seed,
                ..Default::default()
            }),
            _ => None,
        }
    }

    /// The global-tier configuration of the cell-level policy stream.
    pub fn drl_config(&self) -> Option<DrlAllocatorConfig> {
        self.drl_config_seeded(self.policy_seed())
    }

    /// The local-tier configuration of the cell-level local-tier stream.
    pub fn dpm_config(&self) -> Option<RlPowerConfig> {
        self.dpm_config_seeded(SeedStream::Dpm.derive(self.seed))
    }

    /// The local-tier configuration *included in pre-training* — `None`
    /// for `co_pretrain: false` hierarchical cells, which keeps them out
    /// of the pre-train cache key so every Fig. 10 operating point (and
    /// the fixed-timeout baselines) shares one pre-trained global tier.
    pub fn co_pretrain_dpm_config(&self) -> Option<RlPowerConfig> {
        self.dpm_config().filter(|_| self.policy.co_pretrains())
    }
}

#[cfg(test)]
mod tests;
