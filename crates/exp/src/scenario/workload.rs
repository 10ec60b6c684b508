//! The workload axis: synthetic generator recipes and on-disk real
//! traces.

use super::Topology;
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::pattern::SECS_PER_WEEK;
use hierdrl_trace::source::{RealTraceSource, TraceFormat};
use serde::{Deserialize, Serialize};

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
    /// [`SegmentShift`](hierdrl_trace::drift::SegmentShift)s, not wall-clock
    /// splitting).
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
    /// workloads; for real traces, the paper's rate
    /// ([`PAPER_WEEKLY_JOBS_PER_SERVER`]) of the *synthetic* pre-training
    /// rollouts (learned policies still pre-train on generated workload —
    /// the trace is held out for evaluation).
    pub fn weekly_jobs_per_server(&self) -> f64 {
        match self {
            Self::Synthetic {
                weekly_jobs_per_server,
                ..
            } => *weekly_jobs_per_server,
            Self::RealTrace { .. } => PAPER_WEEKLY_JOBS_PER_SERVER,
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
