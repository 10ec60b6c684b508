//! Cluster configuration.

use crate::power::PowerModel;
use crate::resources::MAX_RESOURCE_DIMS;
use serde::{Deserialize, Serialize};

/// Definition of the per-server reliability "hot spot" penalty that feeds
/// the global tier's reliability objective (Eqn. 4). A server is penalized
/// both for running its busiest resource above `hot_utilization` and for
/// building a backlog deeper than `hot_queue_len` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// Utilization above which the busiest resource counts as hot.
    pub hot_utilization: f64,
    /// VMs in the system (running + queued) beyond which a server counts
    /// as over-consolidated (anti-colocation).
    pub hot_queue_len: usize,
    /// Penalty per VM beyond `hot_queue_len`.
    pub queue_overload_per_job: f64,
}

impl ReliabilityConfig {
    /// Paper-style defaults: 90% hot-spot threshold, and anti-colocation
    /// pressure beyond 8 VMs on one server (the paper's reliability
    /// objective includes co-location limits to keep failures from hitting
    /// many VMs of one customer at once).
    pub fn paper() -> Self {
        Self {
            hot_utilization: 0.9,
            hot_queue_len: 8,
            queue_overload_per_job: 0.05,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.hot_utilization > 0.0 && self.hot_utilization <= 1.0) {
            return Err(format!(
                "hot_utilization must be in (0, 1], got {}",
                self.hot_utilization
            ));
        }
        if !(self.queue_overload_per_job.is_finite() && self.queue_overload_per_job >= 0.0) {
            return Err(format!(
                "queue_overload_per_job must be >= 0, got {}",
                self.queue_overload_per_job
            ));
        }
        Ok(())
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Configuration of a simulated server cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of physical servers `M`.
    pub num_servers: usize,
    /// Number of resource dimensions `D` (3 for CPU/memory/disk), at most
    /// [`MAX_RESOURCE_DIMS`].
    pub resource_dims: usize,
    /// Power model shared by all (homogeneous) servers.
    pub power: PowerModel,
    /// Sleep -> active transition time, seconds. Paper: 30 s.
    pub t_on: f64,
    /// Active -> sleep transition time, seconds. Paper: 30 s.
    pub t_off: f64,
    /// Reliability hot-spot definition (utilization + backlog).
    pub reliability: ReliabilityConfig,
    /// Whether servers start powered on (true matches the round-robin
    /// baseline; sleeping servers wake on their first job either way).
    pub servers_initially_on: bool,
    /// Optional per-server capacity vectors for heterogeneous clusters
    /// (an extension; the paper assumes homogeneity "without loss of
    /// generality"). `None` gives every server unit capacity. When set,
    /// the length must equal `num_servers` and each vector must have
    /// `resource_dims` components.
    ///
    /// Heterogeneity is first-class across the stack: the power model
    /// scales with each server's CPU capacity
    /// ([`Server::peak_scale`](crate::server::Server::peak_scale)), the
    /// front-end [`Router`](crate::router::Router) weights clusters by
    /// aggregate capacity, the DRL state encoder exposes per-slot
    /// capacities (`include_capacity` in `hierdrl-core`), and the
    /// experiment layer ships big/little presets
    /// (`hierdrl_exp::scenario::Topology::big_little` and the
    /// `heterogeneous` suite preset).
    pub server_capacities: Option<Vec<crate::resources::ResourceVec>>,
    /// Upper bound on live servers for elastic (join/leave) runs: the
    /// fleet starts at `num_servers` and may grow to this many slots via
    /// [`FleetOp::Join`](crate::events::FleetOp::Join). `None` (the
    /// default, and every fixed-fleet config) pins the bound to
    /// `num_servers`, so joins beyond the initial fleet are ignored.
    /// Control planes size their per-slot state (state-encoder groups,
    /// per-server Q-agents) by [`ClusterConfig::effective_max`], so a
    /// mid-run join never reshapes learned state.
    pub max_servers: Option<usize>,
    /// Record a time-series sample every this many job completions.
    pub sample_every: usize,
    /// Keep a [`CompletedJob`](crate::job::CompletedJob) record per
    /// completion (the default). Raw-scale runs (millions of jobs) turn
    /// this off to bound memory: aggregate totals, latency sums, and
    /// sample curves are unaffected, but per-job records (and therefore
    /// latency percentiles) are unavailable.
    pub retain_completed_jobs: bool,
}

impl ClusterConfig {
    /// The paper's simulation setup (Section VII-A) for a cluster of
    /// `num_servers` machines.
    pub fn paper(num_servers: usize) -> Self {
        Self {
            num_servers,
            resource_dims: 3,
            power: PowerModel::paper(),
            t_on: 30.0,
            t_off: 30.0,
            reliability: ReliabilityConfig::paper(),
            servers_initially_on: true,
            server_capacities: None,
            max_servers: None,
            sample_every: 1000,
            retain_completed_jobs: true,
        }
    }

    /// The capacity vector of server `i` (unit capacity when the cluster
    /// is homogeneous).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_servers` on a heterogeneous cluster.
    pub fn server_capacity(&self, i: usize) -> crate::resources::ResourceVec {
        match &self.server_capacities {
            Some(caps) => caps[i],
            None => crate::resources::ResourceVec::ones(self.resource_dims),
        }
    }

    /// The most slots the fleet can ever hold: `max_servers` when declared
    /// (elastic runs), otherwise `num_servers`. Per-slot control-plane
    /// state is sized by this, so membership changes never reshape it.
    pub fn effective_max(&self) -> usize {
        self.max_servers.unwrap_or(self.num_servers)
    }

    /// The capacity vector a server (re)joining slot `i` carries: the
    /// configured capacity for initial-fleet slots, unit capacity for
    /// slots appended beyond `num_servers`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= effective_max()`.
    pub fn slot_capacity(&self, i: usize) -> crate::resources::ResourceVec {
        assert!(
            i < self.effective_max(),
            "slot {i} beyond effective max {}",
            self.effective_max()
        );
        if i < self.num_servers {
            self.server_capacity(i)
        } else {
            crate::resources::ResourceVec::ones(self.resource_dims)
        }
    }

    /// Aggregate cluster capacity: the component-wise sum of every
    /// server's capacity vector (`num_servers` per dimension for a
    /// homogeneous cluster).
    pub fn total_capacity(&self) -> crate::resources::ResourceVec {
        let mut total = crate::resources::ResourceVec::zeros(self.resource_dims);
        match &self.server_capacities {
            Some(caps) => {
                for c in caps {
                    total.add_assign(c);
                }
            }
            None => {
                for _ in 0..self.num_servers {
                    total.add_assign(&crate::resources::ResourceVec::ones(self.resource_dims));
                }
            }
        }
        total
    }

    /// The cluster's routing weight for capacity-aware front-end routing:
    /// aggregate CPU capacity in unit-server equivalents. Exactly
    /// `num_servers as f64` for a homogeneous cluster, so server count
    /// remains the fallback weight on unit-capacity fleets.
    pub fn routing_weight(&self) -> f64 {
        self.total_capacity().cpu()
    }

    /// Sum of per-server power-model multipliers (CPU capacities): the
    /// fleet's peak power is `power.peak_watts * total_peak_scale()`. The
    /// same quantity as [`ClusterConfig::routing_weight`] (aggregate CPU
    /// capacity), named for its power-model role.
    pub fn total_peak_scale(&self) -> f64 {
        self.routing_weight()
    }

    /// The smallest and largest per-server CPU capacity in the cluster
    /// (`(1.0, 1.0)` when homogeneous).
    pub fn capacity_cpu_range(&self) -> (f64, f64) {
        match &self.server_capacities {
            Some(caps) => {
                let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
                for c in caps {
                    lo = lo.min(c.cpu());
                    hi = hi.max(c.cpu());
                }
                (lo, hi)
            }
            None => (1.0, 1.0),
        }
    }

    /// Per-server capacity skew: the ratio of the largest to the smallest
    /// CPU capacity across the cluster (`1.0` when homogeneous).
    pub fn capacity_skew(&self) -> f64 {
        let (lo, hi) = self.capacity_cpu_range();
        hi / lo
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_servers == 0 {
            return Err("cluster needs at least one server".into());
        }
        if self.resource_dims == 0 {
            return Err("cluster needs at least one resource dimension".into());
        }
        if self.resource_dims > MAX_RESOURCE_DIMS {
            return Err(format!(
                "resource_dims ({}) exceeds MAX_RESOURCE_DIMS ({MAX_RESOURCE_DIMS})",
                self.resource_dims
            ));
        }
        self.power.validate()?;
        if !(self.t_on.is_finite() && self.t_on >= 0.0) {
            return Err(format!("t_on must be >= 0, got {}", self.t_on));
        }
        if !(self.t_off.is_finite() && self.t_off >= 0.0) {
            return Err(format!("t_off must be >= 0, got {}", self.t_off));
        }
        self.reliability.validate()?;
        if let Some(caps) = &self.server_capacities {
            if caps.len() != self.num_servers {
                return Err(format!(
                    "server_capacities has {} entries for {} servers",
                    caps.len(),
                    self.num_servers
                ));
            }
            for (i, c) in caps.iter().enumerate() {
                if c.dims() != self.resource_dims {
                    return Err(format!(
                        "server {i} capacity has {} dims, expected {}",
                        c.dims(),
                        self.resource_dims
                    ));
                }
                if c.as_slice().iter().any(|&v| v <= 0.0) {
                    return Err(format!("server {i} capacity must be positive"));
                }
            }
        }
        if let Some(max) = self.max_servers {
            if max < self.num_servers {
                return Err(format!(
                    "max_servers ({max}) must be >= num_servers ({})",
                    self.num_servers
                ));
            }
        }
        if self.sample_every == 0 {
            return Err("sample_every must be positive".into());
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper(30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        assert!(ClusterConfig::paper(30).validate().is_ok());
        assert!(ClusterConfig::paper(40).validate().is_ok());
    }

    #[test]
    fn zero_servers_rejected() {
        assert!(ClusterConfig::paper(0).validate().is_err());
    }

    #[test]
    fn four_resource_dims_rejected_by_name() {
        let mut c = ClusterConfig::paper(4);
        c.resource_dims = 4;
        let err = c.validate().unwrap_err();
        assert!(err.contains("MAX_RESOURCE_DIMS"), "unnamed error: {err}");
        c.resource_dims = MAX_RESOURCE_DIMS;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_threshold_rejected() {
        let mut c = ClusterConfig::paper(10);
        c.reliability.hot_utilization = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn capacity_aggregates_for_homogeneous_and_big_little() {
        use crate::resources::ResourceVec;
        let homo = ClusterConfig::paper(4);
        assert_eq!(homo.total_capacity(), ResourceVec::new(&[4.0, 4.0, 4.0]));
        assert_eq!(homo.routing_weight(), 4.0);
        assert_eq!(homo.total_peak_scale(), 4.0);
        assert_eq!(homo.capacity_skew(), 1.0);
        assert_eq!(homo.server_capacity(2), ResourceVec::ones(3));

        let mut hetero = ClusterConfig::paper(4);
        hetero.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
        ]);
        assert!(hetero.validate().is_ok());
        assert_eq!(hetero.total_capacity(), ResourceVec::new(&[5.0, 5.0, 5.0]));
        assert_eq!(hetero.routing_weight(), 5.0);
        assert_eq!(hetero.capacity_skew(), 2.0);
        assert_eq!(hetero.server_capacity(0).cpu(), 2.0);
    }

    #[test]
    fn serde_round_trip() {
        let c = ClusterConfig::paper(40);
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
