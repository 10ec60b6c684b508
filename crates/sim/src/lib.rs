//! # hierdrl-sim
//!
//! A continuous-time, event-driven simulator of a cloud server cluster,
//! faithful to the system model of the paper (Section III):
//!
//! - `M` homogeneous servers offering `D` resource types;
//! - a job broker dispatches each arriving job (VM request) to one server;
//! - each server executes jobs FCFS, holding the job's resource demand for
//!   its full duration, with strict head-of-line blocking when the next job
//!   does not fit;
//! - servers can sleep (zero power), with `Ton`/`Toff` transition delays
//!   and elevated transition power;
//! - active power follows the Fan et al. curve
//!   `P(x) = P(0%) + (P(100%) − P(0%))(2x − x^1.4)`.
//!
//! Control planes plug in through two traits: [`cluster::Allocator`] (the
//! global tier: one decision per job arrival) and [`cluster::PowerManager`]
//! (the local tier: timeout decisions at the paper's three decision-epoch
//! cases). Reference policies — round-robin, least-loaded, first-fit,
//! always-on, sleep-immediately, fixed-timeout — live in [`policies`]. A
//! deterministic front-end [`router::Router`] splits one arrival stream
//! across several independent clusters, the multi-cluster scaling axis the
//! experiment layer grids over.
//!
//! # Examples
//!
//! ```
//! use hierdrl_sim::prelude::*;
//!
//! let jobs: Vec<Job> = (0..50)
//!     .map(|i| Job::new(
//!         JobId(i),
//!         SimTime::from_secs(i as f64 * 20.0),
//!         120.0,
//!         ResourceVec::cpu_mem_disk(0.25, 0.1, 0.02),
//!     ))
//!     .collect();
//!
//! let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs)?;
//! let outcome = cluster.run(
//!     &mut RoundRobinAllocator::new(),
//!     &mut FixedTimeoutPower::new(60.0),
//!     RunLimit::unbounded(),
//! );
//! assert_eq!(outcome.totals.jobs_completed, 50);
//! println!("energy = {:.3} kWh", outcome.totals.energy_kwh());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod events;
pub mod job;
pub mod metrics;
pub mod policies;
pub mod power;
pub mod resources;
pub mod router;
pub mod server;
pub mod time;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::cluster::{
        Allocator, ArrivalSource, Cluster, ClusterView, PowerManager, RunLimit, TimeoutDecision,
    };
    pub use crate::config::ClusterConfig;
    pub use crate::events::{FleetOp, ServerSpec};
    pub use crate::job::{CompletedJob, Job, JobId, ServerId};
    pub use crate::metrics::{
        ClusterTotals, LatencyStats, RunOutcome, SamplePoint, JOULES_PER_KWH,
    };
    pub use crate::policies::{
        AlwaysOnPower, FirstFitAllocator, FixedTimeoutPower, LeastLoadedAllocator,
        RoundRobinAllocator, SleepImmediatelyPower,
    };
    pub use crate::power::{MachineState, PowerModel};
    pub use crate::resources::{ResourceKind, ResourceVec};
    pub use crate::router::{Router, RouterPolicy};
    pub use crate::server::{RunningJob, Server, ServerStats};
    pub use crate::time::SimTime;
}
