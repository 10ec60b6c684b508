//! Front-end routing of one arrival stream across several independent
//! clusters.
//!
//! The paper's global tier assigns every arriving job to a server of *one*
//! cluster. Scaling that out means a fleet of independent clusters behind a
//! front-end [`Router`]: the router sees each job once, in arrival order,
//! and picks the cluster that will own it; the chosen cluster's own global
//! tier then dispatches the job to a server as before.
//!
//! Routing is deliberately *feed-forward*: decisions depend only on the
//! arrival stream and the router's own bookkeeping, never on live cluster
//! state. That keeps the per-cluster sub-streams a pure function of
//! (stream, policy, cluster capacities), so each cluster can be simulated
//! on its own worker thread and the merged result is deterministic
//! regardless of scheduling. Clusters are weighed by *aggregate capacity*
//! (unit-server equivalents), not server count, so a cluster of two 2x
//! servers outweighs one of three little servers.

use crate::job::Job;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the front-end router picks a cluster for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cyclic dispatch, ignoring cluster capacity and load.
    RoundRobin,
    /// Estimated-backlog routing: each job goes to the cluster with the
    /// least outstanding routed work per unit of capacity. The router
    /// tracks the service time it has sent to each cluster and drains it
    /// at the cluster's aggregate capacity, so bursts spill to the
    /// emptier clusters.
    LeastLoaded,
    /// Largest-remainder dispatch proportional to cluster capacity: after
    /// `n` jobs, every cluster has received
    /// `n * capacity_k / capacity_total` jobs, within one.
    WeightedByCapacity,
}

impl RouterPolicy {
    /// Every routing policy, in canonical order (grid axes iterate this).
    pub const ALL: [RouterPolicy; 3] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::WeightedByCapacity,
    ];

    /// Short display name (used in topology names and reports).
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::WeightedByCapacity => "weighted",
        }
    }
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic front-end router over `N` clusters.
///
/// Feed each job exactly once, in arrival order, through
/// [`Router::route`]; or split a whole stream at once, under a
/// piecewise-constant capacity timeline, with [`Router::split`].
///
/// # Examples
///
/// ```
/// use hierdrl_sim::prelude::*;
///
/// let jobs: Vec<Job> = (0..6)
///     .map(|i| Job::new(
///         JobId(i),
///         SimTime::from_secs(i as f64),
///         120.0,
///         ResourceVec::cpu_mem_disk(0.25, 0.1, 0.02),
///     ))
///     .collect();
/// // Two clusters with aggregate capacities 4.0 and 2.0 (e.g. four unit
/// // servers vs. one 2x server): capacity-weighted routing sends two of
/// // every three jobs to the bigger cluster. For unit-capacity fleets the
/// // weights are simply the server counts
/// // ([`ClusterConfig::routing_weight`](crate::config::ClusterConfig::routing_weight)).
/// // One epoch from t = 0 holds the weights for the whole stream.
/// let epochs = [(0.0, vec![4.0, 2.0])];
/// let shards = Router::split(RouterPolicy::WeightedByCapacity, &epochs, &jobs);
/// assert_eq!(shards[0].len(), 4);
/// assert_eq!(shards[1].len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    /// Per-cluster aggregate capacity in unit-server equivalents.
    weights: Vec<f64>,
    /// Round-robin cursor.
    next: usize,
    /// Jobs routed per cluster (weighted-by-capacity bookkeeping).
    assigned: Vec<u64>,
    /// Total jobs routed.
    total_assigned: u64,
    /// Outstanding routed service time per cluster, seconds (least-loaded
    /// bookkeeping).
    backlog_s: Vec<f64>,
    /// Arrival time of the previously routed job, seconds.
    last_arrival_s: f64,
}

impl Router {
    /// A router over clusters of the given aggregate capacities (in
    /// unit-server equivalents — for a unit-capacity fleet the weight of a
    /// cluster is simply its server count; a cluster of four little
    /// servers and a cluster of two 2x servers both weigh `4.0`). Derive
    /// the weights from
    /// [`ClusterConfig::routing_weight`](crate::config::ClusterConfig::routing_weight).
    ///
    /// A cluster may have weight `0.0` — its healthy capacity vanished
    /// after crashes — and then receives no jobs under any policy until
    /// re-weighted; at least one cluster must stay positive.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty, contains a negative or non-finite
    /// weight, or sums to zero — all bugs in the caller.
    pub fn new(policy: RouterPolicy, capacities: &[f64]) -> Self {
        Self::validate(capacities);
        Self {
            policy,
            weights: capacities.to_vec(),
            next: 0,
            assigned: vec![0; capacities.len()],
            total_assigned: 0,
            backlog_s: vec![0.0; capacities.len()],
            last_arrival_s: 0.0,
        }
    }

    /// The capacity checks [`Router::new`] documents, shared with every
    /// re-weighting.
    fn validate(capacities: &[f64]) {
        assert!(!capacities.is_empty(), "router needs >= 1 cluster");
        assert!(
            capacities.iter().all(|&w| w.is_finite() && w >= 0.0),
            "every cluster needs non-negative finite capacity, got {capacities:?}"
        );
        assert!(
            capacities.iter().any(|&w| w > 0.0),
            "at least one cluster needs positive capacity, got {capacities:?}"
        );
    }

    /// Jobs routed to each cluster so far.
    pub fn assigned(&self) -> &[u64] {
        &self.assigned
    }

    /// Picks the cluster that owns `job`. Jobs must be fed in arrival
    /// order (the least-loaded backlog estimate drains with arrival time).
    pub fn route(&mut self, job: &Job) -> usize {
        let k = match self.policy {
            RouterPolicy::RoundRobin => {
                // Cycle over the positive-weight clusters only: a cluster
                // whose healthy capacity collapsed to zero takes no turns.
                let mut k = self.next;
                while self.weights[k] == 0.0 {
                    k = (k + 1) % self.weights.len();
                }
                self.next = (k + 1) % self.weights.len();
                k
            }
            RouterPolicy::LeastLoaded => {
                let now = job.arrival.as_secs();
                let dt = (now - self.last_arrival_s).max(0.0);
                self.last_arrival_s = now;
                let mut best = usize::MAX;
                let mut best_load = f64::INFINITY;
                for (i, b) in self.backlog_s.iter_mut().enumerate() {
                    // A zero-capacity cluster drains nothing and must never
                    // win (its per-capacity load would divide by zero).
                    if self.weights[i] == 0.0 {
                        continue;
                    }
                    // Each cluster drains its routed work at its aggregate
                    // capacity.
                    *b = (*b - dt * self.weights[i]).max(0.0);
                    let load = *b / self.weights[i];
                    if load < best_load {
                        best_load = load;
                        best = i;
                    }
                }
                self.backlog_s[best] += job.duration;
                best
            }
            RouterPolicy::WeightedByCapacity => {
                let total: f64 = self.weights.iter().sum();
                let n = (self.total_assigned + 1) as f64;
                let mut best = usize::MAX;
                let mut best_deficit = f64::NEG_INFINITY;
                for (i, &w) in self.weights.iter().enumerate() {
                    // A zero-weight cluster's deficit is exactly 0, which
                    // would beat every over-quota (negative-deficit)
                    // cluster; it owns no quota, so skip it outright.
                    if w == 0.0 {
                        continue;
                    }
                    // Largest remainder: quota owed minus jobs received.
                    let deficit = n * w / total - self.assigned[i] as f64;
                    if deficit > best_deficit {
                        best_deficit = deficit;
                        best = i;
                    }
                }
                best
            }
        };
        self.assigned[k] += 1;
        self.total_assigned += 1;
        k
    }

    /// Re-derives the per-cluster capacity weights at a deterministic
    /// epoch boundary (the elastic axis: scheduled membership changes the
    /// aggregate capacity behind each shard). Routing bookkeeping — the
    /// round-robin cursor, assigned counts, and backlog estimates — is
    /// carried across the boundary, so the split stays a pure feed-forward
    /// function of (stream, policy, weight timeline) and sharded execution
    /// remains byte-identical to serial.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` fails the [`Router::new`] validation or its
    /// length differs from the current cluster count.
    fn set_weights(&mut self, capacities: &[f64]) {
        assert_eq!(
            capacities.len(),
            self.weights.len(),
            "re-weighting cannot change the cluster count ({} -> {})",
            self.weights.len(),
            capacities.len()
        );
        Self::validate(capacities);
        self.weights = capacities.to_vec();
    }

    /// Splits a whole arrival stream into per-cluster sub-streams, in
    /// arrival order, under a piecewise-constant capacity timeline:
    /// `epochs` is a non-empty list of `(start_s, weights)` entries in
    /// non-decreasing start order, and each job is routed under the
    /// weights of the last epoch whose start is `<= arrival` (arrivals
    /// before the first epoch use the first entry). Weights are
    /// per-cluster aggregate capacities, as for [`Router::new`]; a single
    /// epoch holds them for the whole stream. Derive the timeline from
    /// *scheduled* membership (never live cluster state) so the split
    /// stays feed-forward. Every input job lands in exactly one
    /// sub-stream.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is empty, unsorted, of inconsistent width, or
    /// any weight vector fails the [`Router::new`] validation.
    pub fn split(policy: RouterPolicy, epochs: &[(f64, Vec<f64>)], jobs: &[Job]) -> Vec<Vec<Job>> {
        assert!(!epochs.is_empty(), "split needs >= 1 epoch");
        assert!(
            epochs.windows(2).all(|w| w[0].0 <= w[1].0),
            "epoch starts must be non-decreasing"
        );
        let mut router = Router::new(policy, &epochs[0].1);
        let mut shards: Vec<Vec<Job>> = vec![Vec::new(); epochs[0].1.len()];
        let mut next_epoch = 1;
        for job in jobs {
            while next_epoch < epochs.len() && epochs[next_epoch].0 <= job.arrival.as_secs() {
                router.set_weights(&epochs[next_epoch].1);
                next_epoch += 1;
            }
            shards[router.route(job)].push(job.clone());
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::resources::ResourceVec;
    use crate::time::SimTime;

    fn job(id: u64, t: f64, dur: f64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(t),
            dur,
            ResourceVec::cpu_mem_disk(0.3, 0.1, 0.05),
        )
    }

    fn stream(n: u64) -> Vec<Job> {
        (0..n).map(|i| job(i, i as f64 * 10.0, 300.0)).collect()
    }

    /// Splits `jobs` under one epoch of fixed weights.
    fn split(policy: RouterPolicy, weights: &[f64], jobs: &[Job]) -> Vec<Vec<Job>> {
        Router::split(policy, &[(0.0, weights.to_vec())], jobs)
    }

    #[test]
    fn round_robin_cycles_regardless_of_size() {
        let shards = split(RouterPolicy::RoundRobin, &[8.0, 1.0, 1.0], &stream(9));
        assert_eq!(
            shards.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 3]
        );
        assert_eq!(shards[0][0].id, JobId(0));
        assert_eq!(shards[1][0].id, JobId(1));
        assert_eq!(shards[2][0].id, JobId(2));
    }

    #[test]
    fn weighted_tracks_capacity_within_one_job() {
        let weights = [4.0f64, 2.0, 2.0];
        let jobs = stream(80);
        let shards = split(RouterPolicy::WeightedByCapacity, &weights, &jobs);
        let total: f64 = weights.iter().sum();
        for (k, shard) in shards.iter().enumerate() {
            for n in 1..=jobs.len() {
                let routed = shard.iter().filter(|j| j.id.0 < n as u64).count() as f64;
                let quota = n as f64 * weights[k] / total;
                assert!(
                    (routed - quota).abs() <= 1.0,
                    "cluster {k} has {routed} of quota {quota} after {n} jobs"
                );
            }
        }
    }

    #[test]
    fn weighted_weighs_big_servers_not_server_counts() {
        // A cluster of two 2x servers (weight 4.0) must receive twice the
        // jobs of a two-unit-server cluster (weight 2.0), even though the
        // big cluster has the same server count: the weight is capacity.
        let shards = split(RouterPolicy::WeightedByCapacity, &[4.0, 2.0], &stream(60));
        assert_eq!(shards[0].len(), 40);
        assert_eq!(shards[1].len(), 20);
    }

    #[test]
    fn least_loaded_drains_big_clusters_faster() {
        // Same server count, different capacity: both clusters get one
        // long job; the 3x cluster drains its backlog three times as fast,
        // so the next job (after a gap) goes back to it.
        let jobs = vec![
            job(0, 0.0, 300.0), // -> cluster 0 (tie, lowest index)
            job(1, 0.0, 300.0), // -> cluster 1 (cluster 0 now loaded)
            job(2, 50.0, 10.0), // 0 drained 150s of 300, load 50; 1 drained 50, load 250
        ];
        let shards = split(RouterPolicy::LeastLoaded, &[3.0, 1.0], &jobs);
        assert_eq!(shards[0].len(), 2, "big cluster absorbs the follow-up");
        assert_eq!(shards[1].len(), 1);
    }

    #[test]
    fn least_loaded_spills_long_jobs_to_empty_cluster() {
        // One huge job saturates cluster 0's estimate; the next jobs avoid it.
        let jobs = vec![
            job(0, 0.0, 100_000.0),
            job(1, 1.0, 100.0),
            job(2, 2.0, 100.0),
        ];
        let shards = split(RouterPolicy::LeastLoaded, &[1.0, 1.0], &jobs);
        assert_eq!(shards[0].len(), 1);
        assert_eq!(shards[1].len(), 2);
    }

    #[test]
    fn least_loaded_backlog_drains_with_time() {
        // After a long quiet period the first cluster's backlog has drained,
        // so ties break back to it.
        let jobs = vec![job(0, 0.0, 50.0), job(1, 1_000.0, 50.0)];
        let shards = split(RouterPolicy::LeastLoaded, &[1.0, 1.0], &jobs);
        assert_eq!(shards[0].len(), 2);
        assert!(shards[1].is_empty());
    }

    #[test]
    fn sub_streams_stay_sorted_by_arrival() {
        for policy in RouterPolicy::ALL {
            let shards = split(policy, &[3.0, 2.0, 1.0], &stream(50));
            for shard in shards {
                for w in shard.windows(2) {
                    assert!(w[0].arrival <= w[1].arrival);
                }
            }
        }
    }

    #[test]
    fn zero_capacity_cluster_gets_no_jobs_under_any_policy() {
        // A cluster whose healthy capacity collapsed to zero (all servers
        // crashed) stays addressable but receives nothing.
        for policy in RouterPolicy::ALL {
            let shards = split(policy, &[2.0, 0.0, 1.0], &stream(30));
            assert_eq!(shards[1].len(), 0, "{policy} routed to a dead cluster");
            assert_eq!(shards[0].len() + shards[2].len(), 30, "{policy} lost jobs");
        }
    }

    #[test]
    fn weighted_skips_zero_weight_even_when_others_are_over_quota() {
        // Regression: a zero-weight cluster's deficit (exactly 0) used to
        // beat over-quota clusters' negative deficits.
        let mut r = Router::new(RouterPolicy::WeightedByCapacity, &[1.0, 0.0]);
        for j in stream(10) {
            assert_eq!(r.route(&j), 0);
        }
    }

    #[test]
    fn split_epochs_reweights_at_boundaries() {
        // Cluster 1's capacity collapses at t = 100: every later arrival
        // must land on cluster 0, while bookkeeping carries across.
        let jobs = stream(30); // arrivals at 0, 10, ..., 290
        let epochs = vec![(0.0, vec![1.0, 1.0]), (100.0, vec![1.0, 0.0])];
        let shards = Router::split(RouterPolicy::WeightedByCapacity, &epochs, &jobs);
        assert_eq!(shards[0].len() + shards[1].len(), 30);
        assert!(shards[1].iter().all(|j| j.arrival.as_secs() < 100.0));
        assert!(shards[1].len() >= 4, "early arrivals split both ways");
    }

    #[test]
    fn set_weights_carries_round_robin_cursor() {
        let mut r = Router::new(RouterPolicy::RoundRobin, &[1.0, 1.0, 1.0]);
        assert_eq!(r.route(&job(0, 0.0, 10.0)), 0);
        r.set_weights(&[1.0, 0.0, 1.0]);
        // Cursor was at 1; zero-weight cluster 1 takes no turn.
        assert_eq!(r.route(&job(1, 1.0, 10.0)), 2);
        assert_eq!(r.route(&job(2, 2.0, 10.0)), 0);
    }

    #[test]
    #[should_panic(expected = "cannot change the cluster count")]
    fn set_weights_rejects_width_change() {
        let mut r = Router::new(RouterPolicy::RoundRobin, &[1.0, 1.0]);
        r.set_weights(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "negative finite capacity")]
    fn negative_capacity_cluster_rejected() {
        let _ = Router::new(RouterPolicy::RoundRobin, &[2.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one cluster needs positive capacity")]
    fn all_zero_capacity_rejected() {
        let _ = Router::new(RouterPolicy::RoundRobin, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "router needs >= 1 cluster")]
    fn empty_cluster_list_rejected() {
        let _ = Router::new(RouterPolicy::RoundRobin, &[]);
    }
}
