//! Global-tier state construction (Section V-A).
//!
//! The DRL state at job `j`'s arrival is the union of the cluster state and
//! the job state: `s^{t_j} = [g_1, ..., g_K, s_j]`, where `g_k` collects
//! the per-resource utilization of every server in group `G_k` and `s_j`
//! holds the job's resource demands and (estimated) duration.

use hierdrl_sim::cluster::ClusterView;
use hierdrl_sim::job::Job;
use hierdrl_sim::power::MachineState;
use serde::{Deserialize, Serialize};

/// Configuration of the state encoder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateEncoderConfig {
    /// Number of server groups `K` (the paper varies 2–4).
    pub num_groups: usize,
    /// Append a per-server availability feature (1 on, 0 asleep, fractional
    /// in transition). The paper's state carries only utilizations; this
    /// enrichment lets the agent see wake-up penalties directly and is
    /// ablated in `ablation_dqn`.
    pub include_power_state: bool,
    /// Append a per-server queued-jobs feature,
    /// `ln(1 + queue) / ln(1 + queue_scale)` clamped to `[0, 1]`.
    /// Utilization alone cannot distinguish a busy server from a busy
    /// server with a deep backlog; log scaling keeps the feature sensitive
    /// at both shallow and deep queues. Also ablated in `ablation_dqn`.
    pub include_queue_len: bool,
    /// Append a per-server normalized-capacity feature: the server's mean
    /// per-dimension capacity divided by the largest server's, so the
    /// feature is `1.0` for the biggest machine, fractional for littler
    /// ones, and `0.0` only on padding slots. Utilizations are *relative*
    /// (a full little server and a full big server both read 1.0), so
    /// without this feature heterogeneous fleets are indistinguishable
    /// from homogeneous ones. On homogeneous clusters every real slot
    /// encodes `1.0`. Ablated in `ablation_dqn` like the other
    /// enrichments.
    pub include_capacity: bool,
    /// Queue depth at which the feature saturates. Must be positive: a
    /// zero or negative scale would make the queue feature `NaN`/`inf`,
    /// which the `[0, 1]` clamp silently swallows.
    pub queue_scale: f64,
    /// Duration normalization constant, seconds (the paper's jobs are
    /// clipped at 2 h = 7200 s).
    pub duration_scale: f64,
}

impl Default for StateEncoderConfig {
    fn default() -> Self {
        Self {
            num_groups: 2,
            include_power_state: true,
            include_queue_len: true,
            include_capacity: true,
            queue_scale: 50.0,
            duration_scale: 7200.0,
        }
    }
}

/// The encoded global state as one flat row, `[g_1 | … | g_K | s_j]`: `K`
/// group blocks of `group_width` features each, then the job features.
/// The flat layout is the one the DRL allocator's replay arena stores and
/// the Q-network's batched sweeps read (see [`GlobalState::as_slice`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalState {
    values: Vec<f32>,
    num_groups: usize,
    group_width: usize,
}

impl GlobalState {
    /// Assembles a state from its group blocks and job features.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or the blocks differ in width.
    pub fn from_parts(groups: &[Vec<f32>], job: &[f32]) -> Self {
        assert!(!groups.is_empty(), "a state needs at least one group");
        let group_width = groups[0].len();
        assert!(
            groups.iter().all(|g| g.len() == group_width),
            "group blocks must share one width"
        );
        let mut values = Vec::with_capacity(groups.len() * group_width + job.len());
        for g in groups {
            values.extend_from_slice(g);
        }
        values.extend_from_slice(job);
        Self {
            values,
            num_groups: groups.len(),
            group_width,
        }
    }

    /// The flat row `[g_1 | … | g_K | s_j]`.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Group `k`'s feature block.
    pub fn group(&self, k: usize) -> &[f32] {
        &self.values[k * self.group_width..(k + 1) * self.group_width]
    }

    /// The job features: demands then normalized duration.
    pub fn job(&self) -> &[f32] {
        &self.values[self.num_groups * self.group_width..]
    }
}

/// Encodes [`ClusterView`]s and [`Job`]s into [`GlobalState`]s with a fixed
/// group layout.
///
/// Servers are split into `K` equal groups of `ceil(M / K)` slots; when `M`
/// is not divisible by `K`, trailing slots of the last group are zero-padded
/// and the corresponding actions masked out at selection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    num_servers: usize,
    resource_dims: usize,
    config: StateEncoderConfig,
    group_size: usize,
}

impl StateEncoder {
    /// Creates an encoder for a cluster of `num_servers` servers with
    /// `resource_dims` resources.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `num_groups > num_servers`.
    pub fn new(num_servers: usize, resource_dims: usize, config: StateEncoderConfig) -> Self {
        assert!(num_servers > 0, "need at least one server");
        assert!(resource_dims > 0, "need at least one resource dimension");
        assert!(config.num_groups > 0, "need at least one group");
        assert!(
            config.num_groups <= num_servers,
            "more groups ({}) than servers ({})",
            config.num_groups,
            num_servers
        );
        assert!(
            config.duration_scale > 0.0,
            "duration_scale must be positive"
        );
        assert!(
            config.queue_scale.is_finite() && config.queue_scale > 0.0,
            "queue_scale must be positive (a non-positive scale makes the \
             queue feature NaN, which the [0, 1] clamp silently hides)"
        );
        let group_size = num_servers.div_ceil(config.num_groups);
        Self {
            num_servers,
            resource_dims,
            config,
            group_size,
        }
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of groups `K`.
    pub fn num_groups(&self) -> usize {
        self.config.num_groups
    }

    /// Servers (slots) per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Features per server: D resources, plus the optional availability,
    /// queue-depth, and normalized-capacity features.
    pub fn features_per_server(&self) -> usize {
        self.resource_dims
            + usize::from(self.config.include_power_state)
            + usize::from(self.config.include_queue_len)
            + usize::from(self.config.include_capacity)
    }

    /// Width of one group's feature vector.
    pub fn group_width(&self) -> usize {
        self.group_size * self.features_per_server()
    }

    /// Width of the job feature vector (demands + duration).
    pub fn job_width(&self) -> usize {
        self.resource_dims + 1
    }

    /// The group containing server `m`.
    pub fn group_of(&self, m: usize) -> usize {
        m / self.group_size
    }

    /// The slot of server `m` within its group.
    pub fn slot_of(&self, m: usize) -> usize {
        m % self.group_size
    }

    /// The global server index for `(group, slot)`, or `None` for a padding
    /// slot.
    pub fn server_at(&self, group: usize, slot: usize) -> Option<usize> {
        let m = group * self.group_size + slot;
        (m < self.num_servers).then_some(m)
    }

    /// Availability feature for a machine state.
    fn availability(state: MachineState) -> f32 {
        match state {
            MachineState::On => 1.0,
            MachineState::WakingUp { .. } => 0.5,
            MachineState::GoingToSleep { .. } => 0.25,
            MachineState::Sleeping => 0.0,
        }
    }

    /// Per-server capacity features, normalized by the fleet's largest
    /// server so the biggest machine reads `1.0` (all servers on a
    /// homogeneous cluster). The feature is the mean over resource
    /// dimensions of `capacity_d / max_capacity_d`. Returns `None` on
    /// homogeneous clusters — every real slot is `1.0` — so the per-epoch
    /// hot path (encode runs once per dispatch decision) skips the fleet
    /// scan and its allocations unless capacities actually vary.
    fn capacity_features(view: &ClusterView<'_>) -> Option<Vec<f32>> {
        view.config().server_capacities.as_ref()?;
        let dims = view.servers()[0].capacity().dims();
        let mut max_cap = vec![0.0f64; dims];
        for s in view.servers().iter().filter(|s| s.is_live()) {
            for (d, m) in max_cap.iter_mut().enumerate() {
                *m = m.max(s.capacity().get(d));
            }
        }
        Some(
            view.servers()
                .iter()
                .map(|s| {
                    let mean: f64 = (0..dims)
                        .map(|d| s.capacity().get(d) / max_cap[d])
                        .sum::<f64>()
                        / dims as f64;
                    mean as f32
                })
                .collect(),
        )
    }

    /// Width of the flat state row: `K` group blocks plus the job block.
    pub fn state_width(&self) -> usize {
        self.config.num_groups * self.group_width() + self.job_width()
    }

    /// Encodes the cluster + job state at a decision epoch.
    ///
    /// Elastic fleets: a view may carry *fewer* slots than the encoder was
    /// declared with (`max_servers`). Slots beyond the view — servers not
    /// yet joined — and departed slots are encoded all-zero, exactly like
    /// group padding, so a fixed-width network sees a stable layout while
    /// the fleet grows and shrinks.
    ///
    /// # Panics
    ///
    /// Panics if the view has more servers than the encoder was declared
    /// with, or the job's demand dimensionality disagrees.
    pub fn encode(&self, job: &Job, view: &ClusterView<'_>) -> GlobalState {
        let mut values = vec![0.0; self.state_width()];
        self.encode_into(job, view, &mut values);
        GlobalState {
            values,
            num_groups: self.config.num_groups,
            group_width: self.group_width(),
        }
    }

    /// [`StateEncoder::encode`] into a caller-owned flat row (every entry
    /// is overwritten), so the DRL allocator can encode straight into its
    /// replay arena.
    ///
    /// # Panics
    ///
    /// As [`StateEncoder::encode`], and if `out.len() != state_width()`.
    pub fn encode_into(&self, job: &Job, view: &ClusterView<'_>, out: &mut [f32]) {
        assert!(
            view.num_servers() <= self.num_servers,
            "view has {} servers, encoder expects at most {}",
            view.num_servers(),
            self.num_servers
        );
        assert_eq!(
            job.demand.dims(),
            self.resource_dims,
            "job has {} resource dims, encoder expects {}",
            job.demand.dims(),
            self.resource_dims
        );
        assert_eq!(out.len(), self.state_width(), "state row width mismatch");
        let f = self.features_per_server();
        let capacities = if self.config.include_capacity {
            Self::capacity_features(view)
        } else {
            None
        };
        out.fill(0.0);
        let (groups, job_out) = out.split_at_mut(self.config.num_groups * self.group_width());
        for (k, g) in groups.chunks_exact_mut(self.group_width()).enumerate() {
            for slot in 0..self.group_size {
                if let Some(m) = self.server_at(k, slot) {
                    if m >= view.num_servers() {
                        continue; // not-yet-joined slot: stays zero
                    }
                    let server = &view.servers()[m];
                    if !server.is_live() {
                        continue; // departed slot: masked like padding
                    }
                    let util = server.utilization();
                    let base = slot * f;
                    for p in 0..self.resource_dims {
                        g[base + p] = util.get(p) as f32;
                    }
                    let mut extra = self.resource_dims;
                    if self.config.include_power_state {
                        g[base + extra] = Self::availability(server.state());
                        extra += 1;
                    }
                    if self.config.include_queue_len {
                        let q = (1.0 + server.queue_len() as f64).ln()
                            / (1.0 + self.config.queue_scale).ln();
                        g[base + extra] = q.min(1.0) as f32;
                        extra += 1;
                    }
                    if self.config.include_capacity {
                        // `None` = homogeneous fleet: every real slot is 1.
                        g[base + extra] = capacities.as_ref().map_or(1.0, |c| c[m]);
                    }
                }
            }
        }
        for (p, v) in job_out[..self.resource_dims].iter_mut().enumerate() {
            *v = job.demand.get(p) as f32;
        }
        job_out[self.resource_dims] = (job.duration / self.config.duration_scale).min(1.0) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdrl_sim::cluster::{Allocator, Cluster, RunLimit};
    use hierdrl_sim::config::ClusterConfig;
    use hierdrl_sim::job::{JobId, ServerId};
    use hierdrl_sim::policies::AlwaysOnPower;
    use hierdrl_sim::resources::ResourceVec;
    use hierdrl_sim::time::SimTime;

    fn encoder(m: usize, k: usize) -> StateEncoder {
        StateEncoder::new(
            m,
            3,
            StateEncoderConfig {
                num_groups: k,
                ..Default::default()
            },
        )
    }

    #[test]
    fn layout_for_divisible_cluster() {
        let e = encoder(30, 2);
        assert_eq!(e.group_size(), 15);
        assert_eq!(e.features_per_server(), 6);
        assert_eq!(e.group_width(), 90);
        assert_eq!(e.job_width(), 4);
        assert_eq!(e.group_of(14), 0);
        assert_eq!(e.group_of(15), 1);
        assert_eq!(e.slot_of(17), 2);
        assert_eq!(e.server_at(1, 2), Some(17));
    }

    #[test]
    fn capacity_feature_widens_the_layout() {
        let config = StateEncoderConfig {
            include_capacity: false,
            ..Default::default()
        };
        let without = StateEncoder::new(30, 3, config);
        assert_eq!(without.features_per_server(), 5);
        assert_eq!(without.group_width(), 75);
    }

    #[test]
    fn layout_pads_non_divisible_cluster() {
        let e = encoder(30, 4); // group_size = 8, 4*8 = 32 slots, 2 padded
        assert_eq!(e.group_size(), 8);
        assert_eq!(e.server_at(3, 5), Some(29));
        assert_eq!(e.server_at(3, 6), None);
        assert_eq!(e.server_at(3, 7), None);
    }

    /// Captures an encoded state from inside a live simulation.
    struct Probe {
        encoder: StateEncoder,
        state: Option<GlobalState>,
    }

    impl Allocator for Probe {
        fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
            self.state = Some(self.encoder.encode(job, view));
            ServerId(0)
        }
    }

    #[test]
    fn encode_reflects_utilization_and_job() {
        // First job lands on server 0; the second arrival observes it.
        let jobs = vec![
            Job::new(
                JobId(0),
                SimTime::from_secs(0.0),
                600.0,
                ResourceVec::cpu_mem_disk(0.5, 0.25, 0.1),
            ),
            Job::new(
                JobId(1),
                SimTime::from_secs(10.0),
                3600.0,
                ResourceVec::cpu_mem_disk(0.3, 0.2, 0.1),
            ),
        ];
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs).unwrap();
        let mut probe = Probe {
            encoder: encoder(4, 2),
            state: None,
        };
        cluster.run(&mut probe, &mut AlwaysOnPower, RunLimit::unbounded());
        let s = probe.state.expect("probe saw the second arrival");

        // Group 0, slot 0 = server 0 running job 0.
        assert!((s.group(0)[0] - 0.5).abs() < 1e-6); // cpu
        assert!((s.group(0)[1] - 0.25).abs() < 1e-6); // mem
        assert!((s.group(0)[2] - 0.1).abs() < 1e-6); // disk
        assert!((s.group(0)[3] - 1.0).abs() < 1e-6); // availability: on
        assert_eq!(s.group(0)[4], 0.0); // empty queue
        assert_eq!(s.group(0)[5], 1.0); // capacity (homogeneous)
                                        // Server 1 idle (slot 1 starts at feature 6).
        assert_eq!(s.group(0)[6], 0.0);
        // Job features of job 1.
        assert!((s.job()[0] - 0.3).abs() < 1e-6);
        assert!((s.job()[3] - 0.5).abs() < 1e-6); // 3600 / 7200
    }

    /// Encodes the state observed at the first arrival of an otherwise
    /// idle cluster (utilizations zero, queues empty, everything on).
    fn idle_probe_state(config: ClusterConfig, encoder: StateEncoder) -> GlobalState {
        let jobs = vec![Job::new(
            JobId(0),
            SimTime::from_secs(1.0),
            60.0,
            ResourceVec::cpu_mem_disk(0.2, 0.1, 0.05),
        )];
        let mut cluster = Cluster::new(config, jobs).unwrap();
        let mut probe = Probe {
            encoder,
            state: None,
        };
        cluster.run(&mut probe, &mut AlwaysOnPower, RunLimit::unbounded());
        probe.state.expect("probe saw the arrival")
    }

    #[test]
    fn capacity_slots_encode_normalized_capacities_with_padding() {
        // M = 5, K = 2: group size 3, one padded slot in group 1. Server 0
        // is a 2x machine, so it normalizes to 1.0 and the little servers
        // to 0.5; the padding slot stays all-zero.
        let mut config = ClusterConfig::paper(5);
        config.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
        ]);
        let e = encoder(5, 2);
        let f = e.features_per_server();
        let cap_feature = f - 1; // resources, availability, queue, capacity
        let s = idle_probe_state(config, e.clone());
        for m in 0..5 {
            let got = s.group(e.group_of(m))[e.slot_of(m) * f + cap_feature];
            let want = if m == 0 { 1.0 } else { 0.5 };
            assert_eq!(got, want, "server {m} capacity slot");
        }
        let padded = &s.group(1)[2 * f..3 * f];
        assert!(
            padded.iter().all(|&x| x == 0.0),
            "padding slot must stay zero, got {padded:?}"
        );
    }

    #[test]
    fn big_little_encoding_differs_from_homogeneous_only_at_capacity_slots() {
        // Same idle fleet, homogeneous vs. big/little: every feature
        // matches except the capacity slots of real servers.
        let e = encoder(4, 2);
        let f = e.features_per_server();
        let cap_feature = f - 1;
        let homo = idle_probe_state(ClusterConfig::paper(4), e.clone());
        let mut hetero_config = ClusterConfig::paper(4);
        hetero_config.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
            ResourceVec::ones(3),
        ]);
        let hetero = idle_probe_state(hetero_config, e.clone());

        assert_eq!(homo.job(), hetero.job());
        for g in 0..e.num_groups() {
            for slot in 0..e.group_size() {
                for feat in 0..f {
                    let a = homo.group(g)[slot * f + feat];
                    let b = hetero.group(g)[slot * f + feat];
                    if feat == cap_feature {
                        if let Some(m) = e.server_at(g, slot) {
                            assert_eq!(a, 1.0, "homogeneous capacity slot {m}");
                            let want = if m == 0 { 1.0 } else { 0.5 };
                            assert_eq!(b, want, "big/little capacity slot {m}");
                        }
                    } else {
                        assert_eq!(a, b, "group {g} slot {slot} feature {feat} must match");
                    }
                }
            }
        }
    }

    #[test]
    fn narrower_view_encodes_missing_slots_as_padding() {
        // Elastic fleets: an encoder declared for max_servers = 4 must
        // accept a 2-server view, zero-filling the not-yet-joined slots
        // exactly like group padding.
        let e = encoder(4, 2);
        let f = e.features_per_server();
        let s = idle_probe_state(ClusterConfig::paper(2), e.clone());
        // Real slots: idle, on, capacity 1.
        for m in 0..2 {
            let g = s.group(e.group_of(m));
            let base = e.slot_of(m) * f;
            assert_eq!(g[base + 3], 1.0, "server {m} availability");
            assert_eq!(g[base + f - 1], 1.0, "server {m} capacity");
        }
        // Slots 2 and 3 have not joined: all-zero.
        for m in 2..4 {
            let g = s.group(e.group_of(m));
            let base = e.slot_of(m) * f;
            assert!(
                g[base..base + f].iter().all(|&x| x == 0.0),
                "not-yet-joined slot {m} must stay zero"
            );
        }
    }

    #[test]
    #[should_panic(expected = "queue_scale must be positive")]
    fn non_positive_queue_scale_rejected() {
        let config = StateEncoderConfig {
            queue_scale: 0.0,
            ..Default::default()
        };
        let _ = StateEncoder::new(4, 3, config);
    }

    #[test]
    fn flat_state_blocks_have_expected_shape() {
        let s = GlobalState::from_parts(&[vec![1.0; 6], vec![2.0; 6]], &[3.0; 4]);
        assert_eq!(s.as_slice().len(), 16);
        assert_eq!(s.group(0), &[1.0; 6]);
        assert_eq!(s.group(1), &[2.0; 6]);
        assert_eq!(s.job(), &[3.0; 4]);
    }

    #[test]
    fn encode_into_overwrites_a_dirty_row() {
        // The arena hands `encode_into` recycled rows: stale contents must
        // not leak into zero (padding, not-yet-joined) slots.
        let e = encoder(4, 2);
        let s = idle_probe_state(ClusterConfig::paper(2), e.clone());
        let jobs = vec![Job::new(
            JobId(0),
            SimTime::from_secs(1.0),
            60.0,
            ResourceVec::cpu_mem_disk(0.2, 0.1, 0.05),
        )];
        struct Dirty(StateEncoder, Vec<f32>);
        impl Allocator for Dirty {
            fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
                self.1.fill(9.0);
                self.0.encode_into(job, view, &mut self.1);
                ServerId(0)
            }
        }
        let mut dirty = Dirty(e.clone(), vec![0.0; e.state_width()]);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
        cluster.run(&mut dirty, &mut AlwaysOnPower, RunLimit::unbounded());
        assert_eq!(dirty.1, s.as_slice());
    }

    #[test]
    #[should_panic(expected = "more groups")]
    fn too_many_groups_rejected() {
        let _ = encoder(2, 3);
    }
}
