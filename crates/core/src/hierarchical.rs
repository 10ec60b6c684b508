//! The tier taxonomy of the hierarchical framework.
//!
//! The paper compares three systems: the round-robin baseline, DRL-based
//! resource allocation *only* (global tier with ad-hoc local power
//! behaviour), and the full hierarchical framework (DRL global tier + RL
//! local tier). Each system is one global tier and one local tier:
//! [`AllocatorKind`] names every global-tier policy in this reproduction
//! and [`PowerKind`] every local-tier policy. The experiment layer
//! (`hierdrl_exp::scenario::PolicySpec`) names the systems themselves.

use crate::allocator::{DrlAllocator, DrlAllocatorConfig};
use crate::dpm::{RlPowerConfig, RlPowerManager};
use hierdrl_sim::cluster::{Allocator, PowerManager};
use hierdrl_sim::policies::{
    AlwaysOnPower, FirstFitAllocator, FixedTimeoutPower, LeastLoadedAllocator, RoundRobinAllocator,
    SleepImmediatelyPower,
};
use serde::{Deserialize, Serialize};

/// Every job-allocation policy available in this reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// Cyclic dispatch (the paper's baseline).
    RoundRobin,
    /// Join-the-shortest-queue heuristic.
    LeastLoaded,
    /// Greedy first-fit consolidation.
    FirstFit,
    /// The DRL global tier.
    Drl(Box<DrlAllocatorConfig>),
}

impl AllocatorKind {
    /// Instantiates the allocator for a cluster with `resource_dims`
    /// resource dimensions whose fleet never holds more than `max_servers`
    /// slots: pass the cluster's
    /// [`ClusterConfig::effective_max`](hierdrl_sim::config::ClusterConfig::effective_max),
    /// not its initial `num_servers`. The DRL tier sizes its per-slot state
    /// by this ceiling, so an elastic fleet that joins servers past it
    /// would outgrow the state encoder mid-run.
    pub fn build(&self, max_servers: usize, resource_dims: usize) -> Box<dyn Allocator> {
        match self {
            AllocatorKind::RoundRobin => Box::new(RoundRobinAllocator::new()),
            AllocatorKind::LeastLoaded => Box::new(LeastLoadedAllocator),
            AllocatorKind::FirstFit => Box::new(FirstFitAllocator),
            AllocatorKind::Drl(config) => Box::new(DrlAllocator::new(
                max_servers,
                resource_dims,
                (**config).clone(),
            )),
        }
    }
}

/// Every local power-management policy available in this reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PowerKind {
    /// Servers never sleep.
    AlwaysOn,
    /// Ad-hoc: sleep the instant a server idles (Fig. 4(a)).
    SleepImmediately,
    /// Fixed timeout in seconds (the Fig. 10 baselines use 30/60/90).
    FixedTimeout(f64),
    /// The RL local tier (LSTM predictor + SMDP Q-learning).
    Rl(RlPowerConfig),
}

impl PowerKind {
    /// Instantiates the power manager for `cluster` (the RL local tier
    /// keys its shared Q-tables by the cluster's capacity classes).
    pub fn build(&self, cluster: &hierdrl_sim::config::ClusterConfig) -> Box<dyn PowerManager> {
        match self {
            PowerKind::AlwaysOn => Box::new(AlwaysOnPower),
            PowerKind::SleepImmediately => Box::new(SleepImmediatelyPower),
            PowerKind::FixedTimeout(t) => Box::new(FixedTimeoutPower::new(*t)),
            PowerKind::Rl(config) => Box::new(RlPowerManager::for_cluster(cluster, config.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_working_policies() {
        for kind in [
            AllocatorKind::RoundRobin,
            AllocatorKind::LeastLoaded,
            AllocatorKind::FirstFit,
        ] {
            let _ = kind.build(4, 3);
        }
        let cluster = hierdrl_sim::config::ClusterConfig::paper(4);
        for kind in [
            PowerKind::AlwaysOn,
            PowerKind::SleepImmediately,
            PowerKind::FixedTimeout(30.0),
        ] {
            let _ = kind.build(&cluster);
        }
    }

    #[test]
    fn drl_tier_built_at_the_slot_ceiling_survives_appending_joins() {
        use hierdrl_sim::cluster::{Cluster, RunLimit};
        use hierdrl_sim::events::{FleetOp, ServerSpec};
        use hierdrl_sim::job::{Job, JobId};
        use hierdrl_sim::resources::ResourceVec;
        use hierdrl_sim::time::SimTime;

        let mut config = hierdrl_sim::config::ClusterConfig::paper(4);
        config.max_servers = Some(6);
        let mut allocator =
            AllocatorKind::Drl(Box::default()).build(config.effective_max(), config.resource_dims);
        let mut power = PowerKind::FixedTimeout(30.0).build(&config);
        let jobs = (0..40)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(i as f64 * 5.0),
                    60.0,
                    ResourceVec::cpu_mem_disk(0.3, 0.1, 0.05),
                )
            })
            .collect();
        let mut cluster = Cluster::new(config, jobs).unwrap();
        for t in [50.0, 100.0] {
            cluster.schedule_fleet_op(
                SimTime::from_secs(t),
                FleetOp::Join(ServerSpec::unit(3, true)),
            );
        }
        let out = cluster.run(allocator.as_mut(), power.as_mut(), RunLimit::unbounded());
        // Both joins appended a slot, and the tier kept placing jobs on the
        // widened fleet.
        assert_eq!(cluster.fleet_ops_ignored(), 0);
        assert_eq!(cluster.servers().len(), 6);
        assert_eq!(out.totals.jobs_completed, 40);
        assert!(
            cluster.servers()[4..]
                .iter()
                .any(|s| s.stats().jobs_completed > 0),
            "no job ran on a joined slot"
        );
    }

    #[test]
    fn serde_round_trip() {
        let allocator = AllocatorKind::Drl(Box::default());
        let json = serde_json::to_string(&allocator).unwrap();
        assert_eq!(
            serde_json::from_str::<AllocatorKind>(&json).unwrap(),
            allocator
        );
        for power in [
            PowerKind::FixedTimeout(60.0),
            PowerKind::Rl(RlPowerConfig::default()),
        ] {
            let json = serde_json::to_string(&power).unwrap();
            assert_eq!(serde_json::from_str::<PowerKind>(&json).unwrap(), power);
        }
    }
}
