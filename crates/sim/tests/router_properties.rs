//! Property-based tests of the front-end router: for *any* arrival stream,
//! *any* routing policy, and *any* cluster-capacity vector — uniform or
//! heterogeneous (fractional capacity weights) — routing is a lossless,
//! duplication-free, deterministic partition of the stream.

use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::router::{Router, RouterPolicy};
use hierdrl_sim::time::SimTime;
use proptest::prelude::*;

/// Builds a valid arrival stream (sorted, unique ids) from raw draws.
fn stream_from(raw: Vec<(f64, f64, f64)>) -> Vec<Job> {
    let mut t = 0.0;
    raw.into_iter()
        .enumerate()
        .map(|(i, (gap, duration, cpu))| {
            t += gap;
            Job::new(
                JobId(i as u64),
                SimTime::from_secs(t),
                duration,
                ResourceVec::cpu_mem_disk(cpu, 0.1, 0.05),
            )
        })
        .collect()
}

fn policy_from(index: usize) -> RouterPolicy {
    RouterPolicy::ALL[index % RouterPolicy::ALL.len()]
}

/// Splits `jobs` under one epoch of fixed capacity weights.
fn split(policy: RouterPolicy, weights: &[f64], jobs: &[Job]) -> Vec<Vec<Job>> {
    Router::split(policy, &[(0.0, weights.to_vec())], jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The multiset of jobs across all per-cluster sub-streams equals the
    /// input stream: nothing lost, nothing duplicated, nothing mutated —
    /// under arbitrary heterogeneous capacity weights.
    #[test]
    fn routing_partitions_the_stream(
        raw in prop::collection::vec((0.0f64..30.0, 60.0f64..7200.0, 0.05f64..1.0), 0usize..200),
        weights in prop::collection::vec(0.25f64..9.0, 1usize..6),
        policy_index in 0usize..3,
    ) {
        let jobs = stream_from(raw);
        let policy = policy_from(policy_index);
        let shards = split(policy, &weights, &jobs);
        prop_assert_eq!(shards.len(), weights.len());

        let mut recovered: Vec<Job> = shards.iter().flatten().cloned().collect();
        recovered.sort_by_key(|j| j.id);
        prop_assert_eq!(recovered, jobs);
    }

    /// Every sub-stream preserves arrival order (the shard simulator
    /// requires sorted traces).
    #[test]
    fn sub_streams_preserve_arrival_order(
        raw in prop::collection::vec((0.0f64..10.0, 60.0f64..3600.0, 0.05f64..0.9), 1usize..150),
        weights in prop::collection::vec(0.25f64..6.0, 1usize..5),
        policy_index in 0usize..3,
    ) {
        let jobs = stream_from(raw);
        let shards = split(policy_from(policy_index), &weights, &jobs);
        for shard in &shards {
            for w in shard.windows(2) {
                prop_assert!(w[0].arrival <= w[1].arrival);
                prop_assert!(w[0].id < w[1].id);
            }
        }
    }

    /// Routing is a pure function of (stream, policy, capacities):
    /// re-splitting the same stream reproduces identical sub-streams, and
    /// incremental routing agrees with the batch split.
    #[test]
    fn routing_is_deterministic(
        raw in prop::collection::vec((0.0f64..20.0, 60.0f64..7200.0, 0.05f64..1.0), 1usize..120),
        weights in prop::collection::vec(0.25f64..8.0, 2usize..5),
        policy_index in 0usize..3,
    ) {
        let jobs = stream_from(raw);
        let policy = policy_from(policy_index);
        let a = split(policy, &weights, &jobs);
        let b = split(policy, &weights, &jobs);
        prop_assert_eq!(&a, &b);

        let mut router = Router::new(policy, &weights);
        for job in &jobs {
            let k = router.route(job);
            prop_assert!(k < weights.len());
        }
        let routed: u64 = router.assigned().iter().sum();
        prop_assert_eq!(routed, jobs.len() as u64);
        let lens: Vec<usize> = a.iter().map(Vec::len).collect();
        let assigned: Vec<usize> = router.assigned().iter().map(|&n| n as usize).collect();
        prop_assert_eq!(lens, assigned);
    }

    /// Zeroing out any one cluster's weight — its healthy capacity vanished
    /// after crashes — starves exactly that cluster: it receives no jobs
    /// under any policy, while routing remains a lossless, order-preserving
    /// partition of the stream across the surviving clusters.
    #[test]
    fn zero_capacity_cluster_is_starved_not_divided_by(
        raw in prop::collection::vec((0.0f64..20.0, 60.0f64..7200.0, 0.05f64..1.0), 0usize..150),
        weights in prop::collection::vec(0.25f64..9.0, 2usize..6),
        dead in 0usize..6,
        policy_index in 0usize..3,
    ) {
        let jobs = stream_from(raw);
        let policy = policy_from(policy_index);
        let dead = dead % weights.len();
        let mut weights = weights;
        weights[dead] = 0.0;

        let shards = split(policy, &weights, &jobs);
        prop_assert!(shards[dead].is_empty(), "{policy} routed to the dead cluster");

        let mut recovered: Vec<Job> = shards.iter().flatten().cloned().collect();
        recovered.sort_by_key(|j| j.id);
        prop_assert_eq!(recovered, jobs);
        for shard in &shards {
            for w in shard.windows(2) {
                prop_assert!(w[0].arrival <= w[1].arrival);
            }
        }
    }

    /// Capacity-weighted routing never lets any cluster drift more than one
    /// job from its capacity quota — including fractional, non-uniform
    /// capacity weights (big/little fleets).
    #[test]
    fn weighted_quota_tracks_capacity_weights(
        raw in prop::collection::vec((0.0f64..15.0, 60.0f64..3600.0, 0.05f64..0.9), 1usize..200),
        weights in prop::collection::vec(0.25f64..9.0, 2usize..6),
    ) {
        let jobs = stream_from(raw);
        let total: f64 = weights.iter().sum();
        let mut router = Router::new(RouterPolicy::WeightedByCapacity, &weights);
        for (n, job) in jobs.iter().enumerate() {
            router.route(job);
            for (k, &routed) in router.assigned().iter().enumerate() {
                let quota = (n + 1) as f64 * weights[k] / total;
                prop_assert!(
                    (routed as f64 - quota).abs() <= 1.0,
                    "cluster {} has {} of quota {:.2} after {} jobs",
                    k, routed, quota, n + 1
                );
            }
        }
    }
}
