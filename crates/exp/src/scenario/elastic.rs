//! The elastic axis: an autoscaler tier lowered to membership events.

use super::{mix_seed, FleetSchedule};
use hierdrl_rl::qtable::QTable;
use hierdrl_rl::smdp::SmdpParams;
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::{FleetOp, ServerSpec};
use hierdrl_sim::job::{Job, ServerId};
use serde::{Deserialize, Serialize};

/// Equal decision epochs across each evaluation segment.
const EPOCHS: usize = 12;
/// Fleet floor as a fraction of the initial size (rounded, >= 1).
const MIN_FRAC: f64 = 0.5;
/// Fleet ceiling as a fraction of the initial size (rounded up).
const MAX_FRAC: f64 = 1.5;
/// Boundaries to hold after a scaling action before the next one.
const COOLDOWN: usize = 1;
/// The threshold autoscaler's high-water offered utilization (scale out
/// above).
const HIGH_WATER: f64 = 0.75;
/// The threshold autoscaler's low-water offered utilization (scale in
/// below).
const LOW_WATER: f64 = 0.30;
/// The learned autoscaler's utilization bins (states).
const BINS: usize = 8;
/// The learned autoscaler's exploration rate.
const EPSILON: f64 = 0.2;

/// The elastic axis of a scenario: one of two autoscaler tiers that grow
/// and shrink fleet membership at 12 equal epoch boundaries per segment,
/// within `[0.5, 1.5] × M` servers, holding one boundary after each
/// action. Like the chaos axis, the spec lowers *feed-forward* — the
/// schedule is a pure function of the elastic seed (`mix(u, 5)` over the
/// unit seed `u`) and the segment's arrival stream, never of live
/// simulation state — so elastic cells keep every byte-identity guarantee
/// (sharded vs. serial, re-run vs. suite run).
///
/// Lowering simulates the autoscaler against the *offered* utilization
/// trajectory: per epoch, arrival-windowed `cpu x duration` demand divided
/// by the epoch's live unit-capacity. Scale-out joins a unit server
/// ([`ServerSpec::unit`]); scale-in retires the highest-index live member
/// (LIFO), mirroring the cluster's lowest-departed-slot reuse on rejoin so
/// the scheduled slot bookkeeping matches the simulator's exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElasticSpec {
    /// The classic reactive baseline: scale out above 75% offered
    /// utilization, scale in below 30%.
    Threshold,
    /// A learned tabular policy: epsilon-greedy (ε = 0.2) SMDP Q-learning
    /// (reusing [`hierdrl_rl::qtable::QTable`]) over 8 offered-utilization
    /// bins with actions {scale-in, hold, scale-out}, trained online during
    /// the feed-forward lowering pass against a cost of fleet fraction plus
    /// overload overshoot.
    Learned,
}

impl ElasticSpec {
    /// Display name (joined into the scenario id as `workload~elastic`).
    pub fn name(self) -> &'static str {
        match self {
            ElasticSpec::Threshold => "threshold",
            ElasticSpec::Learned => "learned",
        }
    }

    /// The fleet ceiling in slots for an initial size of `num_servers`.
    pub fn max_slots(self, num_servers: usize) -> usize {
        ((num_servers as f64 * MAX_FRAC).ceil() as usize).max(num_servers)
    }

    /// The fleet floor in slots for an initial size of `num_servers`.
    pub fn min_slots(self, num_servers: usize) -> usize {
        ((num_servers as f64 * MIN_FRAC).round() as usize).clamp(1, num_servers)
    }

    /// The cell's cluster configuration with join headroom: `max_servers`
    /// raised to this spec's ceiling so mid-run [`FleetOp::Join`]s have
    /// slots to land in. Learners size their padded slot width from the
    /// same `effective_max`, keeping batched paths bitwise stable.
    pub fn cluster_with_headroom(self, cluster: &ClusterConfig) -> ClusterConfig {
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
        self,
        elastic_seed: u64,
        num_servers: usize,
        resource_dims: usize,
        jobs: &[Job],
        span_s: f64,
        demand_share: f64,
    ) -> FleetSchedule {
        assert!(num_servers > 0, "elastic lowering needs >= 1 server");
        let mut schedule = FleetSchedule::fixed(num_servers);
        if span_s <= 0.0 || span_s.is_nan() || jobs.is_empty() {
            return schedule;
        }
        let epoch_s = span_s / EPOCHS as f64;
        // Offered demand per epoch: arrival-windowed cpu x duration, in
        // unit-server-seconds (the share scales multi-cluster lowering).
        let mut demand = [0.0f64; EPOCHS];
        for job in jobs {
            let e = ((job.arrival.as_secs() / epoch_s) as usize).min(EPOCHS - 1);
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
        for e in 1..EPOCHS {
            let t = e as f64 * epoch_s;
            let util = demand[e - 1] / (epoch_s * live as f64);
            // Action encoding: 0 = scale in, 1 = hold, 2 = scale out.
            let action = match self {
                ElasticSpec::Threshold => {
                    if util > HIGH_WATER {
                        2
                    } else if util < LOW_WATER {
                        0
                    } else {
                        1
                    }
                }
                ElasticSpec::Learned => {
                    // Bin offered utilization over [0, 2) (>= 2x live
                    // capacity saturates the top bin).
                    let state = (((util / 2.0) * BINS as f64) as u64).min(BINS as u64 - 1);
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
                    let action = if u < EPSILON {
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
                    cooldown_left = COOLDOWN;
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
                    cooldown_left = COOLDOWN;
                }
                _ => {}
            }
        }
        schedule
    }
}
