//! The policy axis: which control planes run a cell and how its learners
//! pre-train.

use super::{mix_seed, WorkloadSpec};
use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use serde::{Deserialize, Serialize};

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

/// A named policy recipe — one *system* of the paper's comparisons: which
/// control planes run the cell and how the learners are pre-trained. Each
/// tier is named by its kind ([`AllocatorKind`], [`PowerKind`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// A pair of tiers built fresh from their kinds, with no pre-training.
    /// A learned kind starts from its own config (seed included) and
    /// trains online like any carried learner.
    Static {
        /// Display name.
        name: String,
        /// Global tier.
        allocator: AllocatorKind,
        /// Local tier.
        power: PowerKind,
    },
    /// A pre-trained DRL global tier over a local tier named by its kind:
    /// DRL-only (sleep-immediately), the Fig. 10 fixed-timeout baselines,
    /// and global-tier ablations. Pre-training rolls the global tier out
    /// over the ad-hoc sleep-immediately local behaviour.
    Drl {
        /// Display name.
        name: String,
        /// Optional explicit global-tier configuration (ablations and
        /// quick test builds); `None` runs the paper's default. The
        /// config's RNG seed is replaced by the scenario's derived policy
        /// seed either way.
        config: Option<Box<DrlAllocatorConfig>>,
        /// Local tier.
        power: PowerKind,
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

    /// "DRL-based resource allocation only": the paper's pre-trained DRL
    /// global tier + ad-hoc sleep-immediately local behaviour, with the
    /// default pre-training budget.
    pub fn drl_only() -> Self {
        PolicySpec::Drl {
            name: "drl-only".into(),
            config: None,
            power: PowerKind::SleepImmediately,
            pretrain: Pretrain::default(),
        }
    }

    /// A Fig. 10 baseline: the paper's pre-trained DRL global tier + a
    /// fixed local timeout, with the default pre-training budget.
    pub fn drl_timeout(timeout_s: f64) -> Self {
        PolicySpec::Drl {
            name: format!("drl+timeout-{timeout_s}s"),
            config: None,
            power: PowerKind::FixedTimeout(timeout_s),
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

    /// A global-tier ablation variant: a pre-trained DRL global tier with
    /// an explicit configuration + sleep-immediately local behaviour.
    pub fn drl_variant(
        name: impl Into<String>,
        config: DrlAllocatorConfig,
        pretrain: Pretrain,
    ) -> Self {
        PolicySpec::Drl {
            name: name.into(),
            config: Some(Box::new(config)),
            power: PowerKind::SleepImmediately,
            pretrain,
        }
    }

    /// Display name (used in scenario ids, reports, and result rows).
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Static { name, .. } | PolicySpec::Drl { name, .. } => name.clone(),
            PolicySpec::Hierarchical { weight, .. } => {
                if (*weight - 0.5).abs() < 1e-12 {
                    "hierarchical".into()
                } else {
                    format!("hierarchical w={weight}")
                }
            }
        }
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
