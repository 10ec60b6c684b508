//! The atomic unit of experiment orchestration: one [`Scenario`] names one
//! (topology, workload, policy, seed, limit) cell of a sweep grid.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::dpm::RlPowerConfig;
use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
use hierdrl_rl::qtable::QTable;
use hierdrl_rl::smdp::SmdpParams;
use hierdrl_sim::cluster::RunLimit;
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::{FleetOp, ServerSpec};
use hierdrl_sim::job::{Job, JobId, ServerId};
use hierdrl_sim::router::RouterPolicy;
use hierdrl_sim::time::SimTime;
use hierdrl_trace::drift::{SegmentShift, SegmentedTraceSpec};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::pattern::SECS_PER_WEEK;
use hierdrl_trace::source::{RealTraceSource, TraceFormat};
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

/// A named cluster topology under test: either the paper's single cluster,
/// or a fleet of independent clusters behind a deterministic front-end
/// router (the multi-cluster scaling axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// One cluster fed directly by the arrival stream.
    Single {
        /// Display name (used in scenario ids and reports).
        name: String,
        /// Full cluster configuration.
        cluster: ClusterConfig,
    },
    /// Several independent clusters sharing one arrival stream through a
    /// front-end [`Router`](hierdrl_sim::router::Router). Each cluster
    /// runs its own control planes; the suite runner simulates every
    /// cluster on its own worker thread and merges results in shard order.
    MultiCluster {
        /// Display name (used in scenario ids and reports).
        name: String,
        /// The member clusters, in shard order.
        clusters: Vec<ClusterConfig>,
        /// The front-end routing policy.
        router: RouterPolicy,
    },
}

/// The big-tier size of a big/little fleet: `round(m * big_fraction)`,
/// clamped to at least one big server.
///
/// # Panics
///
/// Panics if `m == 0` or `big_fraction` is outside `(0, 1]`.
pub fn num_big_servers(m: usize, big_fraction: f64) -> usize {
    assert!(m > 0, "need at least one server");
    assert!(
        big_fraction > 0.0 && big_fraction <= 1.0,
        "big_fraction must be in (0, 1], got {big_fraction}"
    );
    ((m as f64 * big_fraction).round() as usize).clamp(1, m)
}

/// A paper-style cluster config whose first [`num_big_servers`] servers
/// are `big_scale`x machines — capacity scaled in every resource
/// dimension — and the rest unit "little" machines. The big servers take
/// the low indices, so consolidation-style policies pack them first.
///
/// # Panics
///
/// Panics if `m == 0`, `big_fraction` is outside `(0, 1]`, or
/// `big_scale <= 0`.
pub fn big_little_config(m: usize, big_fraction: f64, big_scale: f64) -> ClusterConfig {
    assert!(
        big_scale.is_finite() && big_scale > 0.0,
        "big_scale must be positive, got {big_scale}"
    );
    let mut cluster = ClusterConfig::paper(m);
    let num_big = num_big_servers(m, big_fraction);
    let dims = cluster.resource_dims;
    let big = hierdrl_sim::resources::ResourceVec::new(&vec![big_scale; dims]);
    let little = hierdrl_sim::resources::ResourceVec::ones(dims);
    cluster.server_capacities = Some(
        (0..m)
            .map(|i| {
                if i < num_big {
                    big.clone()
                } else {
                    little.clone()
                }
            })
            .collect(),
    );
    cluster
}

impl Topology {
    /// The paper's homogeneous cluster at `m` servers.
    pub fn paper(m: usize) -> Self {
        Topology::Single {
            name: format!("paper-m{m}"),
            cluster: ClusterConfig::paper(m),
        }
    }

    /// A heterogeneous big/little fleet: `round(m * big_fraction)` servers
    /// (at least one) at `big_scale`x capacity, the rest little
    /// (unit-capacity) machines — the 2-tier topology warehouse fleets
    /// actually run. `big_little(m, 0.25, 2.0)` is the canonical preset:
    /// a quarter of the fleet at twice the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `big_fraction` is outside `(0, 1]`, or
    /// `big_scale <= 0`.
    pub fn big_little(m: usize, big_fraction: f64, big_scale: f64) -> Self {
        let cluster = big_little_config(m, big_fraction, big_scale);
        let num_big = num_big_servers(m, big_fraction);
        Topology::Single {
            name: format!("big-little-m{m}-b{num_big}x{big_scale}"),
            cluster,
        }
    }

    /// A big/little fleet sharded across `num_clusters` independent
    /// clusters behind `router`: servers split as evenly as possible (as
    /// in [`Topology::sharded_paper`]), with each cluster getting its own
    /// big tier of `round(size * big_fraction)` servers.
    pub fn sharded_big_little(
        num_clusters: usize,
        total_servers: usize,
        big_fraction: f64,
        big_scale: f64,
        router: RouterPolicy,
    ) -> Self {
        assert!(num_clusters > 0, "multi-cluster needs >= 1 cluster");
        assert!(
            total_servers >= num_clusters,
            "need >= 1 server per cluster ({total_servers} servers, {num_clusters} clusters)"
        );
        let base = total_servers / num_clusters;
        let extra = total_servers % num_clusters;
        let clusters: Vec<ClusterConfig> = (0..num_clusters)
            .map(|k| big_little_config(base + usize::from(k < extra), big_fraction, big_scale))
            .collect();
        // Name the big tier explicitly (summed across clusters) so two
        // shardings that differ only in big_fraction get distinct
        // topology names — and therefore distinct cell ids.
        let total_big: usize = (0..num_clusters)
            .map(|k| num_big_servers(base + usize::from(k < extra), big_fraction))
            .sum();
        Self::multi(
            format!(
                "big-little-c{num_clusters}m{total_servers}-b{total_big}x{big_scale}-{}",
                router.name()
            ),
            clusters,
            router,
        )
    }

    /// A custom single-cluster topology.
    pub fn custom(name: impl Into<String>, cluster: ClusterConfig) -> Self {
        Topology::Single {
            name: name.into(),
            cluster,
        }
    }

    /// A multi-cluster topology behind the given router.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or the members disagree on resource
    /// dimensionality — one arrival stream must be routable to any member.
    pub fn multi(
        name: impl Into<String>,
        clusters: Vec<ClusterConfig>,
        router: RouterPolicy,
    ) -> Self {
        assert!(!clusters.is_empty(), "multi-cluster needs >= 1 cluster");
        let dims = clusters[0].resource_dims;
        assert!(
            clusters.iter().all(|c| c.resource_dims == dims),
            "clusters must agree on resource dims"
        );
        Topology::MultiCluster {
            name: name.into(),
            clusters,
            router,
        }
    }

    /// `total_servers` paper-style servers split as evenly as possible
    /// across `num_clusters` independent clusters behind `router` (the
    /// first `total_servers % num_clusters` clusters get one extra).
    pub fn sharded_paper(num_clusters: usize, total_servers: usize, router: RouterPolicy) -> Self {
        assert!(num_clusters > 0, "multi-cluster needs >= 1 cluster");
        assert!(
            total_servers >= num_clusters,
            "need >= 1 server per cluster ({total_servers} servers, {num_clusters} clusters)"
        );
        let base = total_servers / num_clusters;
        let extra = total_servers % num_clusters;
        let clusters = (0..num_clusters)
            .map(|k| ClusterConfig::paper(base + usize::from(k < extra)))
            .collect();
        Self::multi(
            format!("paper-c{num_clusters}m{total_servers}-{}", router.name()),
            clusters,
            router,
        )
    }

    /// Display name (used in scenario ids and reports).
    pub fn name(&self) -> &str {
        match self {
            Topology::Single { name, .. } | Topology::MultiCluster { name, .. } => name,
        }
    }

    /// Total number of servers `M` across all clusters.
    pub fn servers(&self) -> usize {
        self.clusters().iter().map(|c| c.num_servers).sum()
    }

    /// Aggregate fleet CPU capacity in unit-server equivalents (equals
    /// [`Topology::servers`] for homogeneous fleets).
    pub fn total_capacity(&self) -> f64 {
        self.clusters()
            .iter()
            .map(ClusterConfig::routing_weight)
            .sum()
    }

    /// Fleet-wide per-server capacity skew: the ratio of the largest to
    /// the smallest CPU capacity across every server of every cluster
    /// (`1.0` for homogeneous fleets, `2.0` for a 2x big/little tier).
    pub fn capacity_skew(&self) -> f64 {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for cluster in self.clusters() {
            let (c_lo, c_hi) = cluster.capacity_cpu_range();
            lo = lo.min(c_lo);
            hi = hi.max(c_hi);
        }
        hi / lo
    }

    /// The member clusters, in shard order (one entry for a single
    /// cluster).
    pub fn clusters(&self) -> &[ClusterConfig] {
        match self {
            Topology::Single { cluster, .. } => std::slice::from_ref(cluster),
            Topology::MultiCluster { clusters, .. } => clusters,
        }
    }

    /// The front-end routing policy, for multi-cluster topologies.
    pub fn router(&self) -> Option<RouterPolicy> {
        match self {
            Topology::Single { .. } => None,
            Topology::MultiCluster { router, .. } => Some(*router),
        }
    }

    /// Whether this topology shards the arrival stream across clusters.
    pub fn is_multi_cluster(&self) -> bool {
        matches!(self, Topology::MultiCluster { .. })
    }

    /// The base seed of execution unit `unit` (one unit per member
    /// cluster): the cell seed itself for a single cluster — a one-unit
    /// fleet — and the disjoint sub-seed `mix(cell_seed, 0x100 + unit)`
    /// for each cluster of a multi-cluster fleet.
    pub fn unit_seed(&self, cell_seed: u64, unit: usize) -> u64 {
        match self {
            Topology::Single { .. } => cell_seed,
            Topology::MultiCluster { .. } => mix_seed(cell_seed, 0x100 + unit as u64),
        }
    }
}

/// How many jobs a scenario evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobsBudget {
    /// Jobs proportional to cluster size (constant per-server work), as in
    /// Table I where the job count scales with `M`.
    PerServer(f64),
    /// A fixed total, as in Figs. 8/9 which both report at job 95,000.
    Total(u64),
}

/// A workload recipe: either a synthetic generator law resolved against a
/// topology so that per-server load stays comparable across cluster sizes
/// (the paper's convention, and the default), or an on-disk real trace
/// replayed through [`hierdrl_trace::source::RealTraceSource`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A synthetic generator recipe ([`WorkloadConfig::google_like`] at a
    /// per-server rate), seeded per cell.
    Synthetic {
        /// Display name (used in scenario ids and reports).
        name: String,
        /// Weekly task arrivals per server. The paper's setup is 95,000
        /// tasks per week for 30 machines.
        weekly_jobs_per_server: f64,
        /// Evaluation length.
        eval_jobs: JobsBudget,
    },
    /// An on-disk real trace (Google `task_events` or Alibaba v2017
    /// `batch_task`), parsed with the paper's duration window. Arrival
    /// times, durations, and demands come from the file; the drift axis
    /// replays the trace's own wall-clock segments instead of synthetic
    /// shifts, and the runner gates the demand columns on the parser's
    /// [`hierdrl_trace::google::ParseStats`] provenance.
    RealTrace {
        /// Display name (used in scenario ids and reports).
        name: String,
        /// Path to the trace file.
        path: String,
        /// Which parser reads the file.
        format: TraceFormat,
        /// Wall-clock window (seconds) the drift axis splits the trace at;
        /// `None` uses [`SECS_PER_WEEK`] (the paper's week-long segments).
        segment_wall_clock_s: Option<f64>,
        /// Demand columns are trusted only while
        /// `demand_defaulted / jobs_kept` stays at or below this fraction;
        /// above it the runner swaps in deterministic synthetic demands
        /// ([`hierdrl_trace::source::with_synthetic_demands`]) and flags
        /// the cell's provenance row.
        demand_gate: f64,
        /// Optional cap: replay only the first `n` jobs of the trace.
        max_jobs: Option<u64>,
        /// Per-server weekly rate of the *synthetic* pre-training rollouts
        /// (learned policies still pre-train on generated workload — the
        /// trace is held out for evaluation).
        pretrain_weekly_jobs_per_server: f64,
    },
}

/// The paper's per-server weekly arrival volume (95,000 jobs / 30 servers).
pub const PAPER_WEEKLY_JOBS_PER_SERVER: f64 = 95_000.0 / 30.0;

/// Default [`WorkloadSpec::RealTrace`] demand gate: demand columns are
/// trusted while at most a quarter of kept jobs had defaulted demands.
pub const DEFAULT_DEMAND_GATE: f64 = 0.25;

impl WorkloadSpec {
    /// The paper's workload: per-server load matching the 95k-jobs-per-week
    /// 30-machine setup, evaluation length scaling with `M`.
    pub fn paper() -> Self {
        Self::Synthetic {
            name: "paper".into(),
            weekly_jobs_per_server: PAPER_WEEKLY_JOBS_PER_SERVER,
            eval_jobs: JobsBudget::PerServer(PAPER_WEEKLY_JOBS_PER_SERVER),
        }
    }

    /// The paper's workload with the arrival rate scaled by `factor`
    /// (arrival-rate sweeps; `1.0` is the paper's load).
    pub fn paper_scaled(factor: f64) -> Self {
        Self::Synthetic {
            name: format!("paper-x{factor}"),
            weekly_jobs_per_server: PAPER_WEEKLY_JOBS_PER_SERVER * factor,
            eval_jobs: JobsBudget::PerServer(PAPER_WEEKLY_JOBS_PER_SERVER),
        }
    }

    /// A real-trace workload replaying `path` with the paper's duration
    /// window, weekly drift segments, the default demand gate, and
    /// paper-rate synthetic pre-training.
    pub fn real_trace(
        name: impl Into<String>,
        path: impl Into<String>,
        format: TraceFormat,
    ) -> Self {
        Self::RealTrace {
            name: name.into(),
            path: path.into(),
            format,
            segment_wall_clock_s: None,
            demand_gate: DEFAULT_DEMAND_GATE,
            max_jobs: None,
            pretrain_weekly_jobs_per_server: PAPER_WEEKLY_JOBS_PER_SERVER,
        }
    }

    /// Caps the evaluation length: for synthetic workloads, a fixed total
    /// job budget; for real traces, replay only the first `jobs` jobs.
    #[must_use]
    pub fn with_total_jobs(mut self, jobs: u64) -> Self {
        match &mut self {
            Self::Synthetic { eval_jobs, .. } => *eval_jobs = JobsBudget::Total(jobs),
            Self::RealTrace { max_jobs, .. } => *max_jobs = Some(jobs),
        }
        self
    }

    /// Replaces the evaluation length with a per-server budget.
    ///
    /// # Panics
    ///
    /// Panics for real-trace workloads, whose length is the trace itself.
    #[must_use]
    pub fn with_jobs_per_server(mut self, jobs: f64) -> Self {
        match &mut self {
            Self::Synthetic { eval_jobs, .. } => *eval_jobs = JobsBudget::PerServer(jobs),
            Self::RealTrace { name, .. } => {
                panic!("workload {name:?} is a real trace: its length is the trace itself")
            }
        }
        self
    }

    /// Replaces the real-trace demand gate.
    ///
    /// # Panics
    ///
    /// Panics for synthetic workloads (generated demands are never gated).
    #[must_use]
    pub fn with_demand_gate(mut self, gate: f64) -> Self {
        match &mut self {
            Self::RealTrace { demand_gate, .. } => *demand_gate = gate,
            Self::Synthetic { name, .. } => {
                panic!("workload {name:?} is synthetic: demand gating does not apply")
            }
        }
        self
    }

    /// Replaces the real-trace wall-clock segmentation window (seconds).
    ///
    /// # Panics
    ///
    /// Panics for synthetic workloads (their segments come from
    /// [`SegmentShift`]s, not wall-clock splitting).
    #[must_use]
    pub fn with_segment_window(mut self, window_s: f64) -> Self {
        match &mut self {
            Self::RealTrace {
                segment_wall_clock_s,
                ..
            } => *segment_wall_clock_s = Some(window_s),
            Self::Synthetic { name, .. } => {
                panic!("workload {name:?} is synthetic: wall-clock segmentation does not apply")
            }
        }
        self
    }

    /// Display name (used in scenario ids and reports).
    pub fn name(&self) -> &str {
        match self {
            Self::Synthetic { name, .. } | Self::RealTrace { name, .. } => name,
        }
    }

    /// Whether this workload replays an on-disk real trace.
    pub fn is_real(&self) -> bool {
        matches!(self, Self::RealTrace { .. })
    }

    /// Per-server weekly arrival rate: the generator law for synthetic
    /// workloads, the synthetic *pre-training* rate for real traces (whose
    /// evaluation arrivals come from the file).
    pub fn weekly_jobs_per_server(&self) -> f64 {
        match self {
            Self::Synthetic {
                weekly_jobs_per_server,
                ..
            } => *weekly_jobs_per_server,
            Self::RealTrace {
                pretrain_weekly_jobs_per_server,
                ..
            } => *pretrain_weekly_jobs_per_server,
        }
    }

    /// Weekly arrival volume for a cluster of `m` servers (see
    /// [`WorkloadSpec::weekly_jobs_per_server`] for the real-trace
    /// meaning).
    pub fn jobs_per_week_for(&self, m: usize) -> f64 {
        self.weekly_jobs_per_server() * m as f64
    }

    /// Evaluation job count for a cluster of `m` servers. For real traces
    /// the evaluation length is the trace itself, so this returns the
    /// configured cap (or 0 when uncapped) — pre-training budgets derived
    /// from it then fall back to their fixed floor.
    pub fn jobs_for(&self, m: usize) -> u64 {
        match self {
            Self::Synthetic { eval_jobs, .. } => match eval_jobs {
                JobsBudget::PerServer(per) => (per * m as f64).round() as u64,
                JobsBudget::Total(n) => *n,
            },
            Self::RealTrace { max_jobs, .. } => max_jobs.unwrap_or(0),
        }
    }

    /// One cluster's share of the evaluation stream inside a fleet:
    /// `shard_m` of `total_m` servers. A fixed [`JobsBudget::Total`]
    /// prorates by server share (the slice a capacity-weighted router
    /// would send the cluster); a per-server budget already scales.
    pub fn shard_jobs_for(&self, shard_m: usize, total_m: usize) -> u64 {
        match self {
            Self::Synthetic {
                eval_jobs: JobsBudget::PerServer(_),
                ..
            } => self.jobs_for(shard_m),
            _ => {
                let n = self.jobs_for(total_m);
                (n as f64 * shard_m as f64 / total_m.max(1) as f64).round() as u64
            }
        }
    }

    /// The real-trace source behind this workload, if any.
    pub fn real_source(&self) -> Option<RealTraceSource> {
        match self {
            Self::Synthetic { .. } => None,
            Self::RealTrace { path, format, .. } => Some(RealTraceSource::from_path(path, *format)),
        }
    }

    /// The real-trace demand gate ([`DEFAULT_DEMAND_GATE`] unless
    /// overridden); `None` for synthetic workloads.
    pub fn demand_gate(&self) -> Option<f64> {
        match self {
            Self::Synthetic { .. } => None,
            Self::RealTrace { demand_gate, .. } => Some(*demand_gate),
        }
    }

    /// The wall-clock window (seconds) real-trace drift cells split at
    /// ([`SECS_PER_WEEK`] unless overridden).
    pub fn segment_window_s(&self) -> f64 {
        match self {
            Self::Synthetic { .. } => SECS_PER_WEEK,
            Self::RealTrace {
                segment_wall_clock_s,
                ..
            } => segment_wall_clock_s.unwrap_or(SECS_PER_WEEK),
        }
    }

    /// The deterministic trace recipe for this workload on `topology`.
    ///
    /// # Panics
    ///
    /// Panics for real-trace workloads, which have no generator recipe —
    /// they resolve through [`WorkloadSpec::real_source`] instead.
    pub fn trace_spec(&self, topology: &Topology, trace_seed: u64) -> TraceSpec {
        assert!(
            !self.is_real(),
            "workload {:?} is a real trace: resolve it through real_source()",
            self.name()
        );
        let m = topology.servers();
        TraceSpec::new(
            WorkloadConfig::google_like(trace_seed, self.jobs_per_week_for(m)),
            self.jobs_for(m) as usize,
        )
    }
}

/// Offline pre-training rollout budget (Section VII-A uses five workload
/// segments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pretrain {
    /// Number of rollout segments.
    pub segments: usize,
    /// Each segment's length as a fraction of the evaluation length
    /// (minimum 200 jobs).
    pub fraction: f64,
}

impl Default for Pretrain {
    fn default() -> Self {
        Self {
            segments: 5,
            fraction: 0.15,
        }
    }
}

impl Pretrain {
    /// The trace recipes for the rollout segments, scaled to a cluster of
    /// `m` servers evaluating `eval_jobs` jobs (for multi-cluster cells,
    /// each shard pre-trains at its own cluster's size and its own —
    /// prorated — share of the evaluation stream).
    pub fn segment_specs(
        &self,
        m: usize,
        eval_jobs: u64,
        workload: &WorkloadSpec,
        policy_seed: u64,
    ) -> Vec<TraceSpec> {
        let n = ((eval_jobs as f64 * self.fraction) as usize).max(200);
        (0..self.segments)
            .map(|i| {
                let seed = mix_seed(policy_seed, 100 + i as u64);
                TraceSpec::new(
                    WorkloadConfig::google_like(seed, workload.jobs_per_week_for(m)),
                    n,
                )
            })
            .collect()
    }
}

/// The concept-drift axis of a scenario: an ordered list of workload
/// segments (each a [`SegmentShift`] of the cell's base workload), run
/// under *one* set of carried learners that continue training online
/// across segment boundaries — unless `online` is off, the
/// no-continued-training ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSpec {
    /// Display name (joined into the scenario id as `workload@drift`).
    pub name: String,
    /// Per-segment departures from the base workload, in drift order.
    pub shifts: Vec<SegmentShift>,
    /// `true` (the default mode): learners keep training online across
    /// segments. `false`: learners are frozen after pre-training — the
    /// ablation that measures what continued training buys under drift.
    pub online: bool,
}

impl DriftSpec {
    /// A named drift from explicit shifts.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` is empty or any shift is invalid.
    pub fn new(name: impl Into<String>, shifts: Vec<SegmentShift>) -> Self {
        assert!(!shifts.is_empty(), "drift needs >= 1 segment");
        for (i, shift) in shifts.iter().enumerate() {
            shift
                .validate()
                .unwrap_or_else(|e| panic!("drift segment {i}: {e}"));
        }
        Self {
            name: name.into(),
            shifts,
            online: true,
        }
    }

    /// `k` segments of the *same* law under fresh per-segment seeds — the
    /// drift-free control row of a drift grid.
    pub fn stationary(k: usize) -> Self {
        Self::new(format!("stationary-{k}"), vec![SegmentShift::Stationary; k])
    }

    /// One stationary segment, then the arrival rate stepped to `factor`
    /// (a tenant launch).
    pub fn rate_step(factor: f64) -> Self {
        Self::new(
            format!("rate-step-x{factor}"),
            vec![SegmentShift::Stationary, SegmentShift::RateScale(factor)],
        )
    }

    /// The arrival rate ramping through the given factors, one segment
    /// each (organic growth).
    pub fn rate_ramp(factors: &[f64]) -> Self {
        Self::new(
            format!(
                "rate-ramp-{}",
                factors
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join("-")
            ),
            factors
                .iter()
                .map(|&f| SegmentShift::RateScale(f))
                .collect(),
        )
    }

    /// One stationary segment, then a regime change: the diurnal peak
    /// jumps twelve hours, the swing deepens, and weekends get *busier* —
    /// the same mean volume with an inverted shape.
    pub fn pattern_flip() -> Self {
        Self::new(
            "pattern-flip",
            vec![
                SegmentShift::Stationary,
                SegmentShift::Pattern {
                    diurnal_amplitude: 0.8,
                    peak_hour: 3.0,
                    weekend_factor: 1.25,
                },
            ],
        )
    }

    /// The drift axis for a [`WorkloadSpec::RealTrace`] cell: segments are
    /// the trace's own wall-clock windows (weeks by default), replayed
    /// under carried learners — the online-vs-frozen ablation on *real*
    /// regime changes. The single [`SegmentShift::Stationary`] entry is a
    /// placeholder; the actual segment count comes from the data.
    pub fn real_segments() -> Self {
        Self::new("real-weeks", vec![SegmentShift::Stationary])
    }

    /// The no-continued-training ablation of this drift: same segments,
    /// learners frozen after pre-training.
    #[must_use]
    pub fn with_frozen_learners(mut self) -> Self {
        self.online = false;
        self.name.push_str("-frozen");
        self
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.shifts.len()
    }
}

/// One injected fault shape. Every time, duration, and spread is a
/// *fraction of the evaluation span* (the segment's last arrival time), so
/// one spec scales unchanged from smoke runs to paper-length traces; the
/// schedule is lowered to absolute event times per segment by
/// [`FaultSpec::lower`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultShape {
    /// Crash one explicit server at `at`, recovering after `outage`.
    Crash {
        /// Server index within the (shard's) cluster.
        server: usize,
        /// Crash time as a fraction of the span.
        at: f64,
        /// Outage length as a fraction of the span.
        outage: f64,
    },
    /// Crash `fraction` of the fleet — seed-drawn distinct servers — one
    /// every `stagger`, starting at `start`, each out for `outage`.
    CrashStorm {
        /// Fraction of the fleet to crash, in `(0, 1)`.
        fraction: f64,
        /// First crash time as a fraction of the span.
        start: f64,
        /// Gap between consecutive crashes as a fraction of the span.
        stagger: f64,
        /// Per-server outage length as a fraction of the span.
        outage: f64,
    },
    /// Degrade `fraction` of the fleet (seed-drawn distinct servers) to
    /// `scale`x capacity over `[start, start + duration)` — transient
    /// stragglers, not crashes: degraded servers keep running.
    StragglerWave {
        /// Fraction of the fleet to degrade, in `(0, 1]`.
        fraction: f64,
        /// Degraded capacity multiplier, in `(0, 1)`.
        scale: f64,
        /// Window start as a fraction of the span.
        start: f64,
        /// Window length as a fraction of the span.
        duration: f64,
    },
    /// Power-cap the *whole* fleet to `scale`x capacity over a window.
    CapWindow {
        /// Capped capacity multiplier, in `(0, 1)`.
        scale: f64,
        /// Window start as a fraction of the span.
        start: f64,
        /// Window length as a fraction of the span.
        duration: f64,
    },
    /// Inject `fraction` (of the stream length) extra arrivals around
    /// `at`, spread over `spread` of the span — a flash crowd. Lowered at
    /// the trace level ([`FaultSpec::spike_jobs`]), before routing.
    ArrivalSpike {
        /// Spike start as a fraction of the span.
        at: f64,
        /// Extra arrivals as a fraction of the stream length, in `(0, 1]`.
        fraction: f64,
        /// Spike width as a fraction of the span.
        spread: f64,
    },
}

impl FaultShape {
    /// Validates one shape's parameters (server ids are range-checked at
    /// lowering time, when the fleet size is known).
    fn validate(&self) -> Result<(), String> {
        let time_ok = |t: f64| t.is_finite() && (0.0..=1.0).contains(&t);
        let check_time = |label: &str, t: f64| {
            if time_ok(t) {
                Ok(())
            } else {
                Err(format!("{label} fault time must be in [0, 1], got {t}"))
            }
        };
        let check_len = |label: &str, d: f64| {
            if d.is_finite() && d > 0.0 {
                Ok(())
            } else {
                Err(format!("{label} must be positive and finite, got {d}"))
            }
        };
        let check_fraction = |f: f64| {
            if f.is_finite() && f > 0.0 && f <= 1.0 {
                Ok(())
            } else {
                Err(format!("fault fraction must be in (0, 1], got {f}"))
            }
        };
        let check_scale = |s: f64| {
            if s.is_finite() && s > 0.0 && s < 1.0 {
                Ok(())
            } else {
                Err(format!("degraded scale must be in (0, 1), got {s}"))
            }
        };
        match *self {
            FaultShape::Crash { at, outage, .. } => {
                check_time("crash", at)?;
                check_len("crash outage", outage)
            }
            FaultShape::CrashStorm {
                fraction,
                start,
                stagger,
                outage,
            } => {
                check_fraction(fraction)?;
                if fraction >= 1.0 {
                    return Err(format!(
                        "crash-storm fraction must leave a healthy remainder, got {fraction}"
                    ));
                }
                check_time("crash-storm start", start)?;
                if !(stagger.is_finite() && stagger >= 0.0) {
                    return Err(format!(
                        "crash-storm stagger must be non-negative, got {stagger}"
                    ));
                }
                check_len("crash-storm outage", outage)
            }
            FaultShape::StragglerWave {
                fraction,
                scale,
                start,
                duration,
            } => {
                check_fraction(fraction)?;
                check_scale(scale)?;
                check_time("straggler-wave start", start)?;
                check_len("straggler-wave duration", duration)
            }
            FaultShape::CapWindow {
                scale,
                start,
                duration,
            } => {
                check_scale(scale)?;
                check_time("cap-window start", start)?;
                check_len("cap-window duration", duration)
            }
            FaultShape::ArrivalSpike {
                at,
                fraction,
                spread,
            } => {
                check_time("arrival-spike", at)?;
                check_fraction(fraction)?;
                check_len("arrival-spike spread", spread)
            }
        }
    }
}

/// Draws `count` distinct server indices from `0..n` with a SplitMix64
/// partial Fisher–Yates shuffle — the one deterministic selection every
/// seed-drawn fault shape uses.
fn draw_distinct_servers(seed: u64, count: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut picked = Vec::with_capacity(count);
    for i in 0..count.min(n) {
        let draw = mix_seed(seed, 1 + i as u64);
        picked.push(pool.swap_remove(draw as usize % pool.len()));
    }
    picked
}

/// The chaos axis of a scenario: a named, deterministic, seed-derived
/// schedule of injected faults, lowered to event-level
/// [`FleetOp`]s per evaluation segment. Everything about the schedule —
/// which servers crash, when, for how long — derives from the cell's
/// fault seed (`mix(seed, 4)`), so fault cells are exactly as reproducible
/// and mutually independent as every other axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Display name (joined into the scenario id as `workload%fault`).
    pub name: String,
    /// The fault shapes, all active on every evaluation segment.
    pub shapes: Vec<FaultShape>,
}

impl FaultSpec {
    /// A named fault schedule from explicit shapes.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty, any shape's parameters are out of
    /// range (negative or >1 fractional times, non-positive durations,
    /// fractions outside `(0, 1]`, scales outside `(0, 1)`), or two
    /// [`FaultShape::CapWindow`]s overlap in time.
    pub fn new(name: impl Into<String>, shapes: Vec<FaultShape>) -> Self {
        assert!(!shapes.is_empty(), "fault spec needs >= 1 shape");
        for (i, shape) in shapes.iter().enumerate() {
            shape
                .validate()
                .unwrap_or_else(|e| panic!("fault shape {i}: {e}"));
        }
        let windows: Vec<(usize, f64, f64)> = shapes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match *s {
                FaultShape::CapWindow {
                    start, duration, ..
                } => Some((i, start, start + duration)),
                _ => None,
            })
            .collect();
        for (a, &(i, ai, af)) in windows.iter().enumerate() {
            for &(j, bi, bf) in &windows[a + 1..] {
                assert!(
                    af <= bi || bf <= ai,
                    "cap windows {i} and {j} overlap ([{ai}, {af}) vs [{bi}, {bf}))"
                );
            }
        }
        Self {
            name: name.into(),
            shapes,
        }
    }

    /// The canonical crash storm: just over a third of the fleet crashes,
    /// staggered, each server out for almost half the evaluation span.
    pub fn crash_storm() -> Self {
        Self::new(
            "crash-storm",
            vec![FaultShape::CrashStorm {
                fraction: 0.35,
                start: 0.15,
                stagger: 0.04,
                outage: 0.45,
            }],
        )
    }

    /// The canonical straggler wave: 40% of the fleet at 0.35x capacity
    /// for half the span.
    pub fn straggler_wave() -> Self {
        Self::new(
            "straggler-wave",
            vec![FaultShape::StragglerWave {
                fraction: 0.4,
                scale: 0.35,
                start: 0.2,
                duration: 0.5,
            }],
        )
    }

    /// The canonical power-cap window: the whole fleet at 0.6x capacity
    /// for a third of the span.
    pub fn cap_window() -> Self {
        Self::new(
            "cap-window",
            vec![FaultShape::CapWindow {
                scale: 0.6,
                start: 0.3,
                duration: 0.3,
            }],
        )
    }

    /// The canonical arrival spike: a quarter extra arrivals concentrated
    /// over a tenth of the span.
    pub fn arrival_spike() -> Self {
        Self::new(
            "arrival-spike",
            vec![FaultShape::ArrivalSpike {
                at: 0.4,
                fraction: 0.25,
                spread: 0.1,
            }],
        )
    }

    /// Whether any shape injects extra arrivals (handled at the trace
    /// level, before routing, unlike the event-lowered shapes).
    pub fn has_spikes(&self) -> bool {
        self.shapes
            .iter()
            .any(|s| matches!(s, FaultShape::ArrivalSpike { .. }))
    }

    /// Lowers the schedule to absolute-time [`FleetOp`] events for one
    /// evaluation segment of `num_servers` servers spanning `span_s`
    /// seconds of arrivals, sorted by time (ties keep shape order). Every
    /// seed-drawn choice derives from `fault_seed` via per-shape SplitMix64
    /// sub-streams. [`FaultShape::ArrivalSpike`]s lower to no events.
    ///
    /// # Panics
    ///
    /// Panics if an explicit [`FaultShape::Crash`] names a server outside
    /// `0..num_servers`, or a crash storm targets a fleet too small to
    /// leave a healthy remainder.
    pub fn lower(&self, fault_seed: u64, num_servers: usize, span_s: f64) -> Vec<(f64, FleetOp)> {
        assert!(num_servers > 0, "fault lowering needs >= 1 server");
        let mut events: Vec<(f64, FleetOp)> = Vec::new();
        for (i, shape) in self.shapes.iter().enumerate() {
            let shape_seed = mix_seed(fault_seed, i as u64);
            match *shape {
                FaultShape::Crash { server, at, outage } => {
                    assert!(
                        server < num_servers,
                        "fault shape {i} crashes server {server} out of {num_servers} servers"
                    );
                    events.push((at * span_s, FleetOp::Crash(ServerId(server))));
                    events.push(((at + outage) * span_s, FleetOp::Recover(ServerId(server))));
                }
                FaultShape::CrashStorm {
                    fraction,
                    start,
                    stagger,
                    outage,
                } => {
                    assert!(
                        num_servers > 1,
                        "fault shape {i}: a crash storm needs >= 2 servers to leave one healthy"
                    );
                    let count = ((fraction * num_servers as f64).round() as usize)
                        .clamp(1, num_servers - 1);
                    for (k, sid) in draw_distinct_servers(shape_seed, count, num_servers)
                        .into_iter()
                        .enumerate()
                    {
                        let t = (start + k as f64 * stagger) * span_s;
                        events.push((t, FleetOp::Crash(ServerId(sid))));
                        events.push((t + outage * span_s, FleetOp::Recover(ServerId(sid))));
                    }
                }
                FaultShape::StragglerWave {
                    fraction,
                    scale,
                    start,
                    duration,
                } => {
                    let count =
                        ((fraction * num_servers as f64).round() as usize).clamp(1, num_servers);
                    for sid in draw_distinct_servers(shape_seed, count, num_servers) {
                        let server = ServerId(sid);
                        events.push((start * span_s, FleetOp::SetScale { server, scale }));
                        events.push((
                            (start + duration) * span_s,
                            FleetOp::SetScale { server, scale: 1.0 },
                        ));
                    }
                }
                FaultShape::CapWindow {
                    scale,
                    start,
                    duration,
                } => {
                    for sid in 0..num_servers {
                        let server = ServerId(sid);
                        events.push((start * span_s, FleetOp::SetScale { server, scale }));
                        events.push((
                            (start + duration) * span_s,
                            FleetOp::SetScale { server, scale: 1.0 },
                        ));
                    }
                }
                FaultShape::ArrivalSpike { .. } => {}
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("fault times are finite"));
        events
    }

    /// The extra arrivals [`FaultShape::ArrivalSpike`]s inject into one
    /// segment's stream: deterministic clones of seed-picked template jobs
    /// with fresh ids past the template's largest, arrival times drawn in
    /// the spike window. Returned sorted by arrival; the caller merges
    /// them into the stream before routing.
    pub fn spike_jobs(&self, fault_seed: u64, template: &[Job], span_s: f64) -> Vec<Job> {
        let mut extra: Vec<Job> = Vec::new();
        if template.is_empty() {
            return extra;
        }
        let mut next_id = template.iter().map(|j| j.id.0).max().unwrap_or(0) + 1;
        for (i, shape) in self.shapes.iter().enumerate() {
            let FaultShape::ArrivalSpike {
                at,
                fraction,
                spread,
            } = *shape
            else {
                continue;
            };
            let shape_seed = mix_seed(fault_seed, i as u64);
            let count = ((fraction * template.len() as f64).round() as usize).max(1);
            for k in 0..count {
                let draw = mix_seed(shape_seed, 1 + k as u64);
                let source = &template[draw as usize % template.len()];
                // A uniform draw in [0, 1) from the high 53 bits.
                let u = (mix_seed(draw, 1) >> 11) as f64 / (1u64 << 53) as f64;
                let arrival = (at + u * spread).min(1.0) * span_s;
                extra.push(Job::new(
                    JobId(next_id),
                    SimTime::from_secs(arrival),
                    source.duration,
                    source.demand.clone(),
                ));
                next_id += 1;
            }
        }
        extra.sort_by_key(|j| (j.arrival, j.id));
        extra
    }
}

/// How the autoscaler tier picks a scaling action at each epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AutoscalePolicy {
    /// The classic reactive baseline: scale out above the high-water
    /// utilization mark, scale in below the low-water mark.
    Threshold {
        /// High-water offered utilization (scale out above).
        high: f64,
        /// Low-water offered utilization (scale in below).
        low: f64,
    },
    /// A learned tabular policy: epsilon-greedy SMDP Q-learning (reusing
    /// [`hierdrl_rl::qtable::QTable`]) over offered-utilization bins with
    /// actions {scale-in, hold, scale-out}, trained online during the
    /// feed-forward lowering pass against a cost of fleet fraction plus
    /// overload overshoot.
    Learned {
        /// Number of utilization bins (states).
        bins: usize,
        /// Exploration rate in `[0, 1)`.
        epsilon: f64,
    },
}

impl AutoscalePolicy {
    fn validate(&self) -> Result<(), String> {
        match *self {
            AutoscalePolicy::Threshold { high, low } => {
                if !(low.is_finite() && high.is_finite() && 0.0 < low && low < high) {
                    return Err(format!(
                        "threshold autoscaler needs 0 < low < high, got low {low} high {high}"
                    ));
                }
                Ok(())
            }
            AutoscalePolicy::Learned { bins, epsilon } => {
                if bins < 2 {
                    return Err(format!("learned autoscaler needs >= 2 bins, got {bins}"));
                }
                if !(epsilon.is_finite() && (0.0..1.0).contains(&epsilon)) {
                    return Err(format!(
                        "learned autoscaler epsilon must be in [0, 1), got {epsilon}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The scheduled fleet-membership trajectory one [`ElasticSpec`] lowers to
/// for one evaluation segment: the event-level [`FleetOp`]s plus the
/// piecewise-constant live-count timeline behind them (consumed by the
/// front-end router's epoch weights and the `fleet_size` report columns).
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSchedule {
    /// Scheduled membership changes, sorted by time.
    pub events: Vec<(f64, FleetOp)>,
    /// Piecewise-constant scheduled live-server count: `(start_s, live)`,
    /// first entry at `0.0` with the initial size.
    pub sizes: Vec<(f64, usize)>,
}

impl ElasticSchedule {
    /// A schedule that never changes membership.
    pub fn fixed(num_servers: usize) -> Self {
        Self {
            events: Vec::new(),
            sizes: vec![(0.0, num_servers)],
        }
    }

    /// The scheduled live count at time `t`.
    pub fn size_at(&self, t: f64) -> usize {
        self.sizes
            .iter()
            .take_while(|(start, _)| *start <= t)
            .last()
            .map_or(0, |&(_, n)| n)
    }

    /// `(min, max, time-weighted mean)` of the scheduled live count over
    /// `[0, end_s]`. Degenerates to the initial size when `end_s <= 0`.
    pub fn size_stats(&self, end_s: f64) -> (usize, usize, f64) {
        let first = self.sizes.first().map_or(0, |&(_, n)| n);
        if end_s <= 0.0 {
            return (first, first, first as f64);
        }
        let (mut min, mut max, mut weighted) = (usize::MAX, 0usize, 0.0f64);
        for (i, &(start, n)) in self.sizes.iter().enumerate() {
            let next = self.sizes.get(i + 1).map_or(end_s, |&(t, _)| t.min(end_s));
            min = min.min(n);
            max = max.max(n);
            weighted += n as f64 * (next - start.min(end_s)).max(0.0);
        }
        (min, max, weighted / end_s)
    }
}

/// The elastic axis of a scenario: a named autoscaler tier that grows and
/// shrinks fleet membership at deterministic epoch boundaries. Like the
/// chaos axis, the spec lowers *feed-forward* — the schedule is a pure
/// function of the elastic seed (`mix(seed, 5)`) and the segment's arrival
/// stream, never of live simulation state — so elastic cells keep every
/// byte-identity guarantee (sharded vs. serial, re-run vs. suite run).
///
/// Lowering simulates the autoscaler against the *offered* utilization
/// trajectory: per epoch, arrival-windowed `cpu x duration` demand divided
/// by the epoch's live unit-capacity. Scale-out joins a unit server
/// ([`ServerSpec::unit`]); scale-in retires the highest-index live member
/// (LIFO), mirroring the cluster's lowest-departed-slot reuse on rejoin so
/// the scheduled slot bookkeeping matches the simulator's exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticSpec {
    /// Display name (joined into the scenario id as `workload~elastic`).
    pub name: String,
    /// The autoscaler's decision rule.
    pub policy: AutoscalePolicy,
    /// Number of equal decision epochs across each evaluation segment.
    pub epochs: usize,
    /// Fleet floor as a fraction of the initial size (rounded, >= 1).
    pub min_frac: f64,
    /// Fleet ceiling as a fraction of the initial size (rounded up).
    pub max_frac: f64,
    /// Boundaries to hold after a scaling action before the next one.
    pub cooldown: usize,
}

impl ElasticSpec {
    /// A named elastic schedule from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the policy parameters are out of range, `epochs < 2`,
    /// `min_frac` is outside `(0, 1]`, or `max_frac < 1`.
    pub fn new(
        name: impl Into<String>,
        policy: AutoscalePolicy,
        epochs: usize,
        min_frac: f64,
        max_frac: f64,
        cooldown: usize,
    ) -> Self {
        policy.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(epochs >= 2, "elastic spec needs >= 2 epochs, got {epochs}");
        assert!(
            min_frac.is_finite() && min_frac > 0.0 && min_frac <= 1.0,
            "min_frac must be in (0, 1], got {min_frac}"
        );
        assert!(
            max_frac.is_finite() && max_frac >= 1.0,
            "max_frac must be >= 1, got {max_frac}"
        );
        Self {
            name: name.into(),
            policy,
            epochs,
            min_frac,
            max_frac,
            cooldown,
        }
    }

    /// The canonical threshold autoscaler: 75%/30% water marks, 12 epochs,
    /// half-to-1.5x fleet range, one-boundary cooldown.
    pub fn threshold() -> Self {
        Self::new(
            "threshold",
            AutoscalePolicy::Threshold {
                high: 0.75,
                low: 0.30,
            },
            12,
            0.5,
            1.5,
            1,
        )
    }

    /// The canonical learned autoscaler: 8 utilization bins, 20%
    /// exploration, same range and cadence as [`ElasticSpec::threshold`].
    pub fn learned() -> Self {
        Self::new(
            "learned",
            AutoscalePolicy::Learned {
                bins: 8,
                epsilon: 0.2,
            },
            12,
            0.5,
            1.5,
            1,
        )
    }

    /// The fleet ceiling in slots for an initial size of `num_servers`.
    pub fn max_slots(&self, num_servers: usize) -> usize {
        ((num_servers as f64 * self.max_frac).ceil() as usize).max(num_servers)
    }

    /// The fleet floor in slots for an initial size of `num_servers`.
    pub fn min_slots(&self, num_servers: usize) -> usize {
        ((num_servers as f64 * self.min_frac).round() as usize).clamp(1, num_servers)
    }

    /// The cell's cluster configuration with join headroom: `max_servers`
    /// raised to this spec's ceiling so mid-run [`FleetOp::Join`]s have
    /// slots to land in. Learners size their padded slot width from the
    /// same `effective_max`, keeping batched paths bitwise stable.
    pub fn cluster_with_headroom(&self, cluster: &ClusterConfig) -> ClusterConfig {
        let mut grown = cluster.clone();
        grown.max_servers = Some(
            self.max_slots(cluster.num_servers)
                .max(cluster.effective_max()),
        );
        grown
    }

    /// Lowers the autoscaler to membership events for one evaluation
    /// segment: `num_servers` initial servers of `resource_dims` resource
    /// dimensions, fed `jobs` over `span_s` seconds, this unit seeing
    /// `demand_share` of the stream's offered demand (1.0 for
    /// single-cluster cells; a shard's initial capacity share when the
    /// cell-level stream is lowered per shard). Decisions fire at epoch
    /// boundaries from the utilization observed over the *previous* epoch,
    /// so the schedule is causal as well as feed-forward.
    pub fn lower(
        &self,
        elastic_seed: u64,
        num_servers: usize,
        resource_dims: usize,
        jobs: &[Job],
        span_s: f64,
        demand_share: f64,
    ) -> ElasticSchedule {
        assert!(num_servers > 0, "elastic lowering needs >= 1 server");
        let mut schedule = ElasticSchedule::fixed(num_servers);
        if span_s <= 0.0 || span_s.is_nan() || jobs.is_empty() {
            return schedule;
        }
        let epoch_s = span_s / self.epochs as f64;
        // Offered demand per epoch: arrival-windowed cpu x duration, in
        // unit-server-seconds (the share scales multi-cluster lowering).
        let mut demand = vec![0.0f64; self.epochs];
        for job in jobs {
            let e = ((job.arrival.as_secs() / epoch_s) as usize).min(self.epochs - 1);
            demand[e] += job.demand.cpu() * job.duration * demand_share;
        }
        let (min, max) = (self.min_slots(num_servers), self.max_slots(num_servers));
        // Mirror of the cluster's slot bookkeeping: joins reuse the
        // lowest-index departed slot before appending, leaves retire the
        // highest-index live slot (LIFO).
        let mut slots = vec![true; num_servers];
        let mut live = num_servers;
        let mut cooldown_left = 0usize;
        // Learned-policy state (unused by the threshold baseline).
        let mut qtable: QTable<u64> = QTable::new(3, 0.0);
        let params = SmdpParams::new(0.5, 1e-3);
        let mut prev: Option<(u64, usize)> = None;
        for e in 1..self.epochs {
            let t = e as f64 * epoch_s;
            let util = demand[e - 1] / (epoch_s * live as f64);
            // Action encoding: 0 = scale in, 1 = hold, 2 = scale out.
            let action = match self.policy {
                AutoscalePolicy::Threshold { high, low } => {
                    if util > high {
                        2
                    } else if util < low {
                        0
                    } else {
                        1
                    }
                }
                AutoscalePolicy::Learned { bins, epsilon } => {
                    // Bin offered utilization over [0, 2) (>= 2x live
                    // capacity saturates the top bin).
                    let state = (((util / 2.0) * bins as f64) as u64).min(bins as u64 - 1);
                    // Cost rate of the epoch that just elapsed: fleet
                    // fraction (energy proxy) plus overload overshoot
                    // (latency proxy), credited to the previous decision.
                    let cost = live as f64 / num_servers as f64 + 4.0 * (util - 1.0).max(0.0);
                    if let Some((ps, pa)) = prev {
                        qtable.update_smdp(&params, &ps, pa, -cost, epoch_s, &state);
                    }
                    let draw = mix_seed(elastic_seed, e as u64);
                    // A uniform draw in [0, 1) from the high 53 bits.
                    let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                    let action = if u < epsilon {
                        mix_seed(draw, 1) as usize % 3
                    } else {
                        qtable.best_action(&state)
                    };
                    prev = Some((state, action));
                    action
                }
            };
            if cooldown_left > 0 {
                cooldown_left -= 1;
                continue;
            }
            match action {
                0 if live > min => {
                    let idx = slots.iter().rposition(|&l| l).expect("live slot exists");
                    slots[idx] = false;
                    live -= 1;
                    schedule.events.push((t, FleetOp::Leave(ServerId(idx))));
                    schedule.sizes.push((t, live));
                    cooldown_left = self.cooldown;
                }
                2 if live < max => {
                    match slots.iter().position(|&l| !l) {
                        Some(idx) => slots[idx] = true,
                        None => slots.push(true),
                    }
                    live += 1;
                    schedule
                        .events
                        .push((t, FleetOp::Join(ServerSpec::unit(resource_dims, true))));
                    schedule.sizes.push((t, live));
                    cooldown_left = self.cooldown;
                }
                _ => {}
            }
        }
        schedule
    }
}

/// A named policy recipe: which control planes run the cell and how the
/// learners are pre-trained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// A fully-specified static pair (no pre-training).
    Static {
        /// Display name.
        name: String,
        /// Global tier.
        allocator: AllocatorKind,
        /// Local tier.
        power: PowerKind,
    },
    /// "DRL-based resource allocation only": pre-trained DRL global tier +
    /// ad-hoc sleep-immediately local behaviour.
    DrlOnly {
        /// Pre-training budget.
        pretrain: Pretrain,
    },
    /// Fig. 10 baseline: pre-trained DRL global tier + fixed local timeout.
    DrlTimeout {
        /// Timeout in seconds.
        timeout_s: f64,
        /// Pre-training budget.
        pretrain: Pretrain,
    },
    /// The full hierarchical framework; `weight` is Eqn. 5's
    /// power-vs-latency `w`.
    Hierarchical {
        /// Power-vs-latency weight in `[0, 1]`.
        weight: f64,
        /// Pre-training budget.
        pretrain: Pretrain,
        /// `true`: co-pre-train both tiers (the Table I / Figs. 8–9
        /// setup). `false`: pre-train only the global tier with ad-hoc
        /// local behaviour and start the local tier fresh — the Fig. 10
        /// setup, where every sweep point (and the fixed-timeout
        /// baselines) must restore the *same* pre-trained global tier.
        co_pretrain: bool,
        /// Optional explicit global-tier configuration (ablations and
        /// quick test builds); `None` runs the paper's default. The
        /// config's RNG seed is replaced by the scenario's derived
        /// policy seed either way.
        config: Option<Box<DrlAllocatorConfig>>,
    },
    /// A DRL global-tier ablation with an explicit configuration
    /// (+ sleep-immediately local behaviour). The config's RNG seed is
    /// replaced by the scenario's derived policy seed.
    DrlVariant {
        /// Display name.
        name: String,
        /// Explicit allocator configuration.
        config: Box<DrlAllocatorConfig>,
        /// Pre-training budget.
        pretrain: Pretrain,
    },
}

impl PolicySpec {
    /// The round-robin + always-on baseline of Figs. 8/9.
    pub fn round_robin() -> Self {
        PolicySpec::Static {
            name: "round-robin".into(),
            allocator: AllocatorKind::RoundRobin,
            power: PowerKind::AlwaysOn,
        }
    }

    /// A named static pair.
    pub fn static_pair(
        name: impl Into<String>,
        allocator: AllocatorKind,
        power: PowerKind,
    ) -> Self {
        PolicySpec::Static {
            name: name.into(),
            allocator,
            power,
        }
    }

    /// DRL-only with the default pre-training budget.
    pub fn drl_only() -> Self {
        PolicySpec::DrlOnly {
            pretrain: Pretrain::default(),
        }
    }

    /// DRL + fixed timeout with the default pre-training budget.
    pub fn drl_timeout(timeout_s: f64) -> Self {
        PolicySpec::DrlTimeout {
            timeout_s,
            pretrain: Pretrain::default(),
        }
    }

    /// The hierarchical framework at the given weight, tiers co-pre-trained.
    pub fn hierarchical(weight: f64) -> Self {
        PolicySpec::Hierarchical {
            weight,
            pretrain: Pretrain::default(),
            co_pretrain: true,
            config: None,
        }
    }

    /// The hierarchical framework with only the global tier pre-trained and
    /// a fresh local tier (one Fig. 10 operating point).
    pub fn hierarchical_cold_local(weight: f64) -> Self {
        PolicySpec::Hierarchical {
            weight,
            pretrain: Pretrain::default(),
            co_pretrain: false,
            config: None,
        }
    }

    /// The hierarchical framework with an explicit global-tier
    /// configuration and pre-training budget (quick test builds and
    /// ablations), tiers co-pre-trained. Keeps the `hierarchical` display
    /// name at `weight = 0.5`, like [`PolicySpec::hierarchical`].
    pub fn hierarchical_variant(
        weight: f64,
        config: DrlAllocatorConfig,
        pretrain: Pretrain,
    ) -> Self {
        PolicySpec::Hierarchical {
            weight,
            pretrain,
            co_pretrain: true,
            config: Some(Box::new(config)),
        }
    }

    /// A global-tier ablation variant.
    pub fn drl_variant(
        name: impl Into<String>,
        config: DrlAllocatorConfig,
        pretrain: Pretrain,
    ) -> Self {
        PolicySpec::DrlVariant {
            name: name.into(),
            config: Box::new(config),
            pretrain,
        }
    }

    /// Display name (used in scenario ids, reports, and result rows).
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Static { name, .. } | PolicySpec::DrlVariant { name, .. } => name.clone(),
            PolicySpec::DrlOnly { .. } => "drl-only".into(),
            PolicySpec::DrlTimeout { timeout_s, .. } => format!("drl+timeout-{timeout_s}s"),
            PolicySpec::Hierarchical { weight, .. } => {
                if (*weight - 0.5).abs() < 1e-12 {
                    "hierarchical".into()
                } else {
                    format!("hierarchical w={weight}")
                }
            }
        }
    }

    /// Whether this policy carries a DRL global tier (and hence pre-trains).
    pub fn is_learned(&self) -> bool {
        !matches!(self, PolicySpec::Static { .. })
    }

    /// Whether pre-training includes the local tier (co-pre-trained
    /// hierarchical cells).
    pub(crate) fn co_pretrains(&self) -> bool {
        matches!(
            self,
            PolicySpec::Hierarchical {
                co_pretrain: true,
                ..
            }
        )
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
            workload = format!("{workload}~{}", elastic.name);
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
    /// `topology/workload@drift[%fault]/policy/s<seed>`.
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

    /// Seed of the cell-level fault stream, which draws the arrival spikes
    /// injected into the stream before routing (per-unit fault schedules
    /// derive from [`Scenario::unit_seed`]).
    pub fn fault_seed(&self) -> u64 {
        SeedStream::Fault.derive(self.seed)
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

    /// The global-tier configuration seeded with `policy_seed` (`None`
    /// for static policies).
    pub(crate) fn drl_config_seeded(&self, policy_seed: u64) -> Option<DrlAllocatorConfig> {
        let seeded = |mut config: DrlAllocatorConfig| {
            config.seed = policy_seed;
            config
        };
        match &self.policy {
            PolicySpec::Static { .. } => None,
            PolicySpec::DrlVariant { config, .. }
            | PolicySpec::Hierarchical {
                config: Some(config),
                ..
            } => Some(seeded((**config).clone())),
            _ => Some(seeded(DrlAllocatorConfig::default())),
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
mod tests {
    use super::*;

    #[test]
    fn workload_scales_with_cluster_size() {
        let w = WorkloadSpec::paper();
        assert_eq!(w.jobs_for(30), 95_000);
        assert!((w.jobs_per_week_for(30) - 95_000.0).abs() < 1e-9);
        assert!((w.jobs_per_week_for(40) - 95_000.0 * 40.0 / 30.0).abs() < 1e-6);
        let fixed = w.with_total_jobs(1234);
        assert_eq!(fixed.jobs_for(40), 1234);
    }

    #[test]
    fn shard_share_prorates_fixed_totals() {
        // A fixed total prorates by server share; a 3-of-10 shard of a
        // 1000-job cell gets 300 jobs, not the full 1000.
        let fixed = WorkloadSpec::paper().with_total_jobs(1000);
        assert_eq!(fixed.shard_jobs_for(3, 10), 300);
        assert_eq!(fixed.shard_jobs_for(10, 10), 1000);
        // Per-server budgets already scale with the shard's size.
        let per = WorkloadSpec::paper().with_jobs_per_server(100.0);
        assert_eq!(per.shard_jobs_for(3, 10), per.jobs_for(3));
    }

    #[test]
    fn scenario_ids_are_stable_and_unique_per_coordinate() {
        let s = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            7,
            None,
        );
        assert_eq!(s.id, "paper-m5/paper/round-robin/s7");
        let t = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            8,
            None,
        );
        assert_ne!(s.id, t.id);
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let s = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::drl_only(),
            7,
            None,
        );
        assert_ne!(s.trace_seed(), s.policy_seed());
        assert_ne!(s.policy_seed(), s.unit_seed(0, SeedStream::Dpm));
        // Neighbouring base seeds produce unrelated trace seeds.
        let t = Scenario {
            seed: 8,
            ..s.clone()
        };
        assert_ne!(s.trace_seed(), t.trace_seed());
    }

    #[test]
    fn learned_policies_get_cell_derived_rng_seeds() {
        let s = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::hierarchical(0.3),
            7,
            None,
        );
        assert_eq!(s.drl_config().unwrap().seed, s.policy_seed());
        let dpm = s.dpm_config().unwrap();
        // A single cluster is a one-unit fleet seeded by the cell seed.
        assert_eq!(dpm.seed, s.unit_seed(0, SeedStream::Dpm));
        assert_eq!(s.policy_seed(), s.unit_seed(0, SeedStream::Policy));
        assert!((dpm.weight - 0.3).abs() < 1e-12);
        assert!(s.policy.is_learned());
    }

    #[test]
    fn policy_names_match_paper_conventions() {
        assert_eq!(PolicySpec::round_robin().name(), "round-robin");
        assert_eq!(PolicySpec::drl_only().name(), "drl-only");
        assert_eq!(PolicySpec::drl_timeout(60.0).name(), "drl+timeout-60s");
        assert_eq!(PolicySpec::hierarchical(0.5).name(), "hierarchical");
        assert_eq!(PolicySpec::hierarchical(0.2).name(), "hierarchical w=0.2");
    }

    #[test]
    fn cold_local_hierarchical_pretrains_without_the_local_tier() {
        let cold = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::hierarchical_cold_local(0.2),
            7,
            None,
        );
        // Fig. 10 cells still *run* a local tier at their weight, but keep
        // it out of pre-training so the global tier is shared across the
        // sweep (its pre-train inputs match a DrlTimeout cell's).
        assert!(cold.co_pretrain_dpm_config().is_none());
        assert!((cold.dpm_config().unwrap().weight - 0.2).abs() < 1e-12);

        let warm = Scenario {
            policy: PolicySpec::hierarchical(0.2),
            ..cold.clone()
        };
        assert_eq!(warm.co_pretrain_dpm_config(), warm.dpm_config());
    }

    #[test]
    fn pretrain_segments_differ_and_scale() {
        let w = WorkloadSpec::paper().with_total_jobs(2000);
        let specs = Pretrain::default().segment_specs(10, w.jobs_for(10), &w, 99);
        assert_eq!(specs.len(), 5);
        assert_eq!(specs[0].jobs, 300);
        assert_ne!(specs[0].workload.seed, specs[1].workload.seed);
    }

    #[test]
    fn sharded_topology_splits_servers_evenly() {
        let topo = Topology::sharded_paper(4, 10, RouterPolicy::RoundRobin);
        assert_eq!(topo.name(), "paper-c4m10-rr");
        assert_eq!(topo.servers(), 10);
        let sizes: Vec<usize> = topo.clusters().iter().map(|c| c.num_servers).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(topo.router(), Some(RouterPolicy::RoundRobin));
        assert!(topo.is_multi_cluster());

        let single = Topology::paper(5);
        assert_eq!(single.clusters().len(), 1);
        assert_eq!(single.router(), None);
        assert!(!single.is_multi_cluster());
    }

    #[test]
    fn big_little_topology_builds_two_tiers() {
        let topo = Topology::big_little(10, 0.25, 2.0);
        assert_eq!(topo.name(), "big-little-m10-b3x2");
        assert_eq!(topo.servers(), 10);
        // 3 big at 2x + 7 little: 13 unit-server equivalents, skew 2.
        assert_eq!(topo.total_capacity(), 13.0);
        assert_eq!(topo.capacity_skew(), 2.0);
        let cluster = &topo.clusters()[0];
        assert!(cluster.validate().is_ok());
        let caps = cluster.server_capacities.as_ref().unwrap();
        assert!(caps[..3].iter().all(|c| c.cpu() == 2.0));
        assert!(caps[3..].iter().all(|c| c.cpu() == 1.0));

        // Homogeneous fleets stay skew-free with capacity == servers.
        assert_eq!(Topology::paper(5).capacity_skew(), 1.0);
        assert_eq!(Topology::paper(5).total_capacity(), 5.0);
    }

    #[test]
    fn sharded_big_little_keeps_tiers_per_cluster() {
        let topo = Topology::sharded_big_little(2, 6, 0.34, 4.0, RouterPolicy::WeightedByCapacity);
        assert_eq!(topo.servers(), 6);
        assert!(topo.is_multi_cluster());
        // Each cluster of 3 has one 4x machine: weight 6 per cluster.
        assert_eq!(topo.total_capacity(), 12.0);
        assert_eq!(topo.capacity_skew(), 4.0);
        for c in topo.clusters() {
            assert!(c.validate().is_ok());
            assert_eq!(c.routing_weight(), 6.0);
        }
    }

    #[test]
    #[should_panic(expected = "big_fraction must be in (0, 1]")]
    fn big_little_rejects_bad_fraction() {
        let _ = Topology::big_little(10, 0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "clusters must agree on resource dims")]
    fn mixed_dims_multi_cluster_rejected() {
        let mut odd = ClusterConfig::paper(2);
        odd.resource_dims = 2;
        let _ = Topology::multi(
            "bad",
            vec![ClusterConfig::paper(2), odd],
            RouterPolicy::RoundRobin,
        );
    }

    #[test]
    fn drift_cells_split_the_budget_and_rename_the_id() {
        let s = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper().with_total_jobs(1000),
            PolicySpec::drl_only(),
            7,
            None,
        )
        .with_drift(DriftSpec::rate_step(2.0));
        assert_eq!(s.id, "paper-m5/paper@rate-step-x2/drl-only/s7");
        assert_eq!(s.num_segments(), 2);
        assert!(s.online_learning());
        assert_eq!(s.segment_label(0), "stationary");
        assert_eq!(s.segment_label(1), "rate-x2");

        let specs = s.segment_trace_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs.iter().map(|t| t.jobs).sum::<usize>(), 1000);
        // Per-segment seeds derive from the trace seed; the shifted
        // segment runs at twice the base rate.
        assert_eq!(specs[0].workload.seed, mix_seed(s.trace_seed(), 0));
        assert_ne!(specs[0].workload.seed, specs[1].workload.seed);
        assert!(
            (specs[1].workload.arrivals.base_rate - 2.0 * specs[0].workload.arrivals.base_rate)
                .abs()
                < 1e-12
        );

        // Non-drift cells keep the single-spec path and the old id.
        let plain = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper().with_total_jobs(1000),
            PolicySpec::drl_only(),
            7,
            None,
        );
        assert_eq!(plain.num_segments(), 1);
        assert_eq!(plain.segment_trace_specs(), vec![plain.trace_spec()]);
    }

    #[test]
    fn frozen_ablation_flips_online_and_suffixes_the_name() {
        let online = DriftSpec::pattern_flip();
        let frozen = online.clone().with_frozen_learners();
        assert!(online.online);
        assert!(!frozen.online);
        assert_eq!(frozen.name, "pattern-flip-frozen");
        assert_eq!(frozen.shifts, online.shifts, "same segments either way");

        let s = Scenario::new(
            Topology::paper(4),
            WorkloadSpec::paper().with_total_jobs(400),
            PolicySpec::hierarchical(0.5),
            3,
            None,
        );
        let a = s.clone().with_drift(online);
        let b = s.with_drift(frozen);
        assert!(!b.online_learning());
        assert_ne!(a.id, b.id, "ablation cells need distinct ids");
        assert_eq!(
            a.segment_trace_specs(),
            b.segment_trace_specs(),
            "ablation pairs must evaluate identical segment traces"
        );
    }

    #[test]
    fn shard_seeds_are_decorrelated_from_cell_streams() {
        let s = Scenario::new(
            Topology::sharded_paper(3, 9, RouterPolicy::LeastLoaded),
            WorkloadSpec::paper(),
            PolicySpec::hierarchical(0.5),
            7,
            None,
        );
        // Unit sub-seeds differ from each other and from the cell streams.
        let cell = |stream: SeedStream| stream.derive(s.seed);
        let mut seen = vec![
            cell(SeedStream::Trace),
            cell(SeedStream::Policy),
            cell(SeedStream::Dpm),
        ];
        for k in 0..3 {
            seen.push(s.topology.unit_seed(s.seed, k));
            seen.push(s.unit_seed(k, SeedStream::Policy));
            seen.push(s.unit_seed(k, SeedStream::Dpm));
        }
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "derived seeds must not collide");
        assert_eq!(
            s.topology.unit_seed(s.seed, 1),
            mix_seed(s.seed, 0x101),
            "multi-cluster unit k seeds from mix(s, 0x100 + k)"
        );
    }

    #[test]
    fn fault_cells_rename_the_id_and_derive_a_disjoint_seed() {
        let base = Scenario::new(
            Topology::paper(5),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            7,
            None,
        );
        let faulted = base.clone().with_fault(FaultSpec::crash_storm());
        assert_eq!(faulted.id, "paper-m5/paper%crash-storm/round-robin/s7");
        // The fault seed is its own stream, disjoint from every other.
        let seeds = [
            faulted.trace_seed(),
            faulted.policy_seed(),
            faulted.unit_seed(0, SeedStream::Dpm),
            faulted.fault_seed(),
        ];
        let mut dedup = seeds.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        // The single cluster's one unit lowers faults from the cell stream.
        assert_eq!(
            faulted.unit_seed(0, SeedStream::Fault),
            faulted.fault_seed()
        );
        // The fault axis changes nothing about the evaluation stream.
        assert_eq!(faulted.segment_trace_specs(), base.segment_trace_specs());

        // Drift and fault compose: `workload@drift%fault`.
        let both = base
            .with_drift(DriftSpec::rate_step(2.0))
            .with_fault(FaultSpec::straggler_wave());
        assert_eq!(
            both.id,
            "paper-m5/paper@rate-step-x2%straggler-wave/round-robin/s7"
        );
    }

    #[test]
    fn fault_lowering_is_deterministic_and_span_scaled() {
        let spec = FaultSpec::crash_storm();
        let a = spec.lower(99, 10, 1000.0);
        let b = spec.lower(99, 10, 1000.0);
        assert_eq!(a, b, "lowering is a pure function of its inputs");
        assert_ne!(
            a,
            spec.lower(100, 10, 1000.0),
            "a different fault seed draws different servers"
        );
        // round(0.35 * 10) crashes, each paired with exactly one recover.
        let crashes: Vec<ServerId> = a
            .iter()
            .filter_map(|(_, op)| match op {
                FleetOp::Crash(sid) => Some(*sid),
                _ => None,
            })
            .collect();
        let recovers: Vec<ServerId> = a
            .iter()
            .filter_map(|(_, op)| match op {
                FleetOp::Recover(sid) => Some(*sid),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 4);
        let mut unique = crashes.clone();
        unique.sort_unstable_by_key(|s| s.0);
        unique.dedup();
        assert_eq!(unique.len(), 4, "storm servers are distinct");
        let mut rec = recovers;
        rec.sort_unstable_by_key(|s| s.0);
        assert_eq!(rec, unique, "every crash pairs with one recover");
        // Events are time-sorted and scale with the span.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let doubled = spec.lower(99, 10, 2000.0);
        assert!((doubled[0].0 - 2.0 * a[0].0).abs() < 1e-9);

        // A cap window scales every server and restores every server.
        let cap = FaultSpec::cap_window().lower(1, 3, 100.0);
        assert_eq!(cap.len(), 6);
        assert!(cap[..3]
            .iter()
            .all(|(t, op)| *t == 30.0
                && matches!(op, FleetOp::SetScale { scale, .. } if *scale == 0.6)));
        assert!(cap[3..]
            .iter()
            .all(|(t, op)| *t == 60.0
                && matches!(op, FleetOp::SetScale { scale, .. } if *scale == 1.0)));
    }

    #[test]
    fn spike_jobs_extend_the_stream_without_colliding_ids() {
        let template: Vec<Job> = (0..40)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(i as f64 * 10.0),
                    60.0,
                    hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.2, 0.1, 0.05),
                )
            })
            .collect();
        let spec = FaultSpec::arrival_spike();
        let extra = spec.spike_jobs(5, &template, 390.0);
        assert_eq!(extra.len(), 10, "a quarter of 40 template jobs");
        assert_eq!(extra, spec.spike_jobs(5, &template, 390.0));
        let window = (0.4 * 390.0, (0.4 + 0.1) * 390.0);
        for (i, job) in extra.iter().enumerate() {
            assert!(job.id.0 >= 40, "spike ids continue past the template's");
            assert!(job.arrival.as_secs() >= window.0 && job.arrival.as_secs() <= window.1);
            if i > 0 {
                assert!(extra[i - 1].arrival <= job.arrival, "sorted by arrival");
            }
        }
        // Non-spike shapes inject nothing.
        assert!(FaultSpec::crash_storm()
            .spike_jobs(5, &template, 390.0)
            .is_empty());
        assert!(!FaultSpec::crash_storm().has_spikes());
        assert!(spec.has_spikes());
    }

    #[test]
    #[should_panic(expected = "fault time must be in [0, 1], got -0.1")]
    fn negative_fault_time_rejected() {
        let _ = FaultSpec::new(
            "bad",
            vec![FaultShape::Crash {
                server: 0,
                at: -0.1,
                outage: 0.2,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "crashes server 9 out of 4 servers")]
    fn out_of_range_crash_server_rejected_at_lowering() {
        let spec = FaultSpec::new(
            "bad",
            vec![FaultShape::Crash {
                server: 9,
                at: 0.5,
                outage: 0.2,
            }],
        );
        let _ = spec.lower(1, 4, 100.0);
    }

    #[test]
    #[should_panic(expected = "cap windows 0 and 1 overlap")]
    fn overlapping_cap_windows_rejected() {
        let _ = FaultSpec::new(
            "bad",
            vec![
                FaultShape::CapWindow {
                    scale: 0.5,
                    start: 0.2,
                    duration: 0.3,
                },
                FaultShape::CapWindow {
                    scale: 0.7,
                    start: 0.4,
                    duration: 0.2,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn non_positive_outage_rejected() {
        let _ = FaultSpec::new(
            "bad",
            vec![FaultShape::Crash {
                server: 0,
                at: 0.5,
                outage: 0.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "fault spec needs >= 1 shape")]
    fn empty_fault_spec_rejected() {
        let _ = FaultSpec::new("bad", Vec::new());
    }

    fn real_workload() -> WorkloadSpec {
        WorkloadSpec::real_trace("real-g", "some/trace.csv", TraceFormat::GoogleTaskEvents)
    }

    #[test]
    fn real_workload_defaults_and_overrides() {
        let w = real_workload();
        assert!(w.is_real());
        assert_eq!(w.name(), "real-g");
        assert_eq!(w.demand_gate(), Some(DEFAULT_DEMAND_GATE));
        assert_eq!(w.segment_window_s(), SECS_PER_WEEK);
        assert_eq!(w.jobs_for(10), 0, "uncapped replay runs the whole file");
        assert_eq!(
            w.weekly_jobs_per_server(),
            PAPER_WEEKLY_JOBS_PER_SERVER,
            "pre-training stays at the paper's synthetic rate"
        );
        let w = w
            .with_total_jobs(500)
            .with_demand_gate(0.1)
            .with_segment_window(2.0 * SECS_PER_WEEK);
        assert_eq!(w.jobs_for(10), 500);
        assert_eq!(w.shard_jobs_for(5, 10), 250, "caps prorate by server share");
        assert_eq!(w.demand_gate(), Some(0.1));
        assert_eq!(w.segment_window_s(), 2.0 * SECS_PER_WEEK);
        let source = w.real_source().expect("real workload has a source");
        assert_eq!(source.label(), "google:some/trace.csv");
    }

    #[test]
    #[should_panic(expected = "resolve it through real_source()")]
    fn real_workload_has_no_generator_recipe() {
        let _ = real_workload().trace_spec(&Topology::paper(4), 1);
    }

    #[test]
    #[should_panic(expected = "demand gating does not apply")]
    fn synthetic_workload_rejects_demand_gate() {
        let _ = WorkloadSpec::paper().with_demand_gate(0.1);
    }

    #[test]
    #[should_panic(expected = "DriftSpec::real_segments")]
    fn real_workload_rejects_generator_drift() {
        let scenario = Scenario::new(
            Topology::paper(4),
            real_workload(),
            PolicySpec::round_robin(),
            1,
            None,
        );
        let _ = scenario.with_drift(DriftSpec::rate_step(2.0));
    }

    #[test]
    fn real_segment_labels_follow_the_window() {
        let weekly = Scenario::new(
            Topology::paper(4),
            real_workload(),
            PolicySpec::round_robin(),
            1,
            None,
        )
        .with_drift(DriftSpec::real_segments());
        assert_eq!(weekly.segment_label(0), "week0");
        assert_eq!(weekly.segment_label(3), "week3");
        let daily = Scenario::new(
            Topology::paper(4),
            real_workload().with_segment_window(86_400.0),
            PolicySpec::round_robin(),
            1,
            None,
        )
        .with_drift(DriftSpec::real_segments());
        assert_eq!(daily.segment_label(2), "seg2");
        assert!(weekly.id.contains("@real-weeks/"));
    }

    #[test]
    fn elastic_axis_joins_the_id_after_the_fault_component() {
        let s = Scenario::new(
            Topology::paper(4),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            7,
            None,
        )
        .with_fault(FaultSpec::cap_window())
        .with_elastic(ElasticSpec::threshold());
        assert_eq!(s.id, "paper-m4/paper%cap-window~threshold/round-robin/s7");
        // The fixed-fleet twin differs only by the `~elastic` component —
        // the strip the autoscale-economics expectation relies on.
        assert_eq!(
            s.id.replace("~threshold", ""),
            "paper-m4/paper%cap-window/round-robin/s7"
        );
        // Stream 5 is disjoint from the other per-cell streams.
        let elastic_seed = s.unit_seed(0, SeedStream::Elastic);
        assert_eq!(elastic_seed, SeedStream::Elastic.derive(s.seed));
        assert_ne!(elastic_seed, s.fault_seed());
        assert_ne!(elastic_seed, s.trace_seed());
        let sharded = Scenario {
            topology: Topology::sharded_paper(2, 4, RouterPolicy::RoundRobin),
            ..s
        };
        assert_ne!(
            sharded.unit_seed(0, SeedStream::Elastic),
            sharded.unit_seed(1, SeedStream::Elastic)
        );
    }

    /// A saturating-then-quiet stream: heavy demand in the first half of
    /// the span, nothing afterwards.
    fn front_loaded_jobs(n: usize, span_s: f64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    JobId(i as u64),
                    SimTime::from_secs(i as f64 * (span_s / 2.0) / n as f64),
                    600.0,
                    hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.9, 0.1, 0.01),
                )
            })
            .chain(std::iter::once(Job::new(
                JobId(n as u64),
                SimTime::from_secs(span_s),
                1.0,
                hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.01, 0.01, 0.01),
            )))
            .collect()
    }

    #[test]
    fn threshold_lowering_scales_out_under_load_and_back_in_when_quiet() {
        let spec = ElasticSpec::threshold();
        let jobs = front_loaded_jobs(200, 12_000.0);
        let schedule = spec.lower(99, 4, 3, &jobs, 12_000.0, 1.0);
        assert!(!schedule.events.is_empty(), "autoscaler never acted");
        let joins = schedule
            .events
            .iter()
            .filter(|(_, op)| matches!(op, FleetOp::Join(_)))
            .count();
        let leaves = schedule
            .events
            .iter()
            .filter(|(_, op)| matches!(op, FleetOp::Leave(_)))
            .count();
        assert!(joins >= 1, "heavy first half should trigger scale-out");
        assert!(leaves >= 1, "quiet second half should trigger scale-in");
        // The scheduled size stays inside the configured range.
        let (min, max, mean) = schedule.size_stats(12_000.0);
        assert!(min >= spec.min_slots(4) && max <= spec.max_slots(4));
        assert!(mean >= min as f64 && mean <= max as f64);
        // Events arrive in time order, sizes start at the initial fleet.
        assert!(schedule.events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(schedule.sizes[0], (0.0, 4));
    }

    #[test]
    fn elastic_lowering_is_deterministic_and_seed_sensitive() {
        let spec = ElasticSpec::learned();
        let jobs = front_loaded_jobs(200, 12_000.0);
        let a = spec.lower(5, 4, 3, &jobs, 12_000.0, 1.0);
        let b = spec.lower(5, 4, 3, &jobs, 12_000.0, 1.0);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        // An empty or zero-span segment lowers to a fixed fleet.
        let empty = spec.lower(5, 4, 3, &[], 12_000.0, 1.0);
        assert_eq!(empty, ElasticSchedule::fixed(4));
    }

    #[test]
    fn schedule_size_stats_are_time_weighted() {
        let schedule = ElasticSchedule {
            events: Vec::new(),
            sizes: vec![(0.0, 4), (100.0, 5), (300.0, 3)],
        };
        assert_eq!(schedule.size_at(0.0), 4);
        assert_eq!(schedule.size_at(150.0), 5);
        assert_eq!(schedule.size_at(1000.0), 3);
        let (min, max, mean) = schedule.size_stats(400.0);
        assert_eq!((min, max), (3, 5));
        // 100s at 4, 200s at 5, 100s at 3 over 400s.
        assert!((mean - (400.0 + 1000.0 + 300.0) / 400.0).abs() < 1e-12);
    }

    #[test]
    fn elastic_headroom_raises_max_servers() {
        let spec = ElasticSpec::threshold();
        let grown = spec.cluster_with_headroom(&ClusterConfig::paper(4));
        assert_eq!(grown.effective_max(), 6);
        assert_eq!(grown.num_servers, 4);
    }

    #[test]
    #[should_panic(expected = "0 < low < high")]
    fn inverted_thresholds_are_rejected() {
        let _ = ElasticSpec::new(
            "bad",
            AutoscalePolicy::Threshold {
                high: 0.2,
                low: 0.8,
            },
            12,
            0.5,
            1.5,
            1,
        );
    }
}
