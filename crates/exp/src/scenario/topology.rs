//! The topology axis: the paper's single cluster, big/little fleets, and
//! sharded fleets behind a front-end router.

use super::mix_seed;
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::router::RouterPolicy;
use serde::{Deserialize, Serialize};

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
    let little = hierdrl_sim::resources::ResourceVec::ones(dims);
    let big = little.scaled(big_scale);
    cluster.server_capacities = Some(
        (0..m)
            .map(|i| if i < num_big { big } else { little })
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
