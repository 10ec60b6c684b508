//! # hierdrl-core
//!
//! The paper's contribution: a hierarchical framework for joint cloud
//! resource allocation and power management.
//!
//! - **Global tier** ([`allocator::DrlAllocator`]): a DRL agent controls
//!   the job broker. Decisions are continuous-time and event-driven (one
//!   per VM arrival; the action is the target server), value updates follow
//!   Q-learning for SMDP, and the Q function is a DNN with a shared
//!   autoencoder compressing each server group's state and weight-shared
//!   per-group Sub-Q networks ([`dqn::GroupedQNetwork`]).
//! - **Local tier** ([`dpm::RlPowerManager`]): each server independently
//!   combines an LSTM workload predictor
//!   ([`predictor::LstmIatPredictor`]) with a model-free SMDP Q-learning
//!   power manager choosing sleep timeouts.
//! - **Tier taxonomy** ([`hierarchical`]): [`hierarchical::AllocatorKind`]
//!   names every global tier (round-robin, least-loaded, first-fit, DRL)
//!   and [`hierarchical::PowerKind`] every local tier (always-on,
//!   sleep-immediately, fixed-timeout, RL); a system the paper compares is
//!   one kind of each.
//! - **Runner** ([`runner`]): one [`runner::Experiment`] type runs a global
//!   and a local tier over an ordered list of workload segments (a plain
//!   run is one segment) and extracts the metrics of Table I and
//!   Figs. 8–10.
//!
//! # Examples
//!
//! ```
//! use hierdrl_core::prelude::*;
//! use hierdrl_sim::prelude::*;
//! use hierdrl_trace::prelude::*;
//!
//! // A small cluster and a short synthetic workload.
//! let cluster = ClusterConfig::paper(4);
//! let trace = TraceGenerator::new(WorkloadConfig::google_like(1, 95_000.0))?
//!     .generate_n(200);
//!
//! // Run the round-robin baseline: round-robin dispatch, servers always on.
//! let result = Experiment::new("baseline", &cluster, &trace)
//!     .run(&mut RoundRobinAllocator::new(), &mut AlwaysOnPower)?;
//! assert_eq!(result.outcome.totals.jobs_completed, 200);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]

pub mod allocator;
pub mod dpm;
pub mod dqn;
pub mod hierarchical;
pub mod predictor;
pub mod reward;
pub mod runner;
pub mod state;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::allocator::{DrlAllocator, DrlAllocatorConfig, DrlSnapshot, DrlStats};
    pub use crate::dpm::{DpmSnapshot, DpmStats, RlPowerConfig, RlPowerManager};
    pub use crate::dqn::{GroupedQNetwork, QNetworkConfig, QSample, StateRow};
    pub use crate::hierarchical::{AllocatorKind, PowerKind};
    pub use crate::predictor::{
        EwmaPredictor, IatPredictor, LastValuePredictor, LstmIatPredictor, MovingAveragePredictor,
        PredictorConfig,
    };
    pub use crate::reward::{reward_rate_between, RewardWeights};
    pub use crate::runner::{
        aggregate_shards, concat_segments, pretrain_pair, Experiment, ExperimentResult, FleetStats,
        Segment, ShardResult,
    };
    pub use crate::state::{GlobalState, StateEncoder, StateEncoderConfig};
}
