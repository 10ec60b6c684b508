//! Experiment runner: executes policy pairs on traces and collects the
//! metrics the paper reports (accumulated energy/latency curves, Table I
//! summaries, trade-off points).

use crate::allocator::DrlAllocator;
use crate::hierarchical::PolicyPair;
use hierdrl_sim::cluster::{Allocator, ArrivalSource, Cluster, PowerManager, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::FleetOp;
use hierdrl_sim::metrics::{LatencyStats, RunOutcome, SamplePoint};
use hierdrl_sim::policies::SleepImmediatelyPower;
use hierdrl_sim::time::SimTime;
use hierdrl_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// Fleet-level power behaviour summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Mean fraction of time servers spent busy.
    pub busy_fraction: f64,
    /// Mean fraction of time servers spent idle (on, no jobs).
    pub idle_fraction: f64,
    /// Mean fraction of time servers spent asleep.
    pub sleep_fraction: f64,
    /// Mean fraction of time servers spent in power transitions.
    pub transition_fraction: f64,
    /// Total sleep -> wake transitions across the fleet.
    pub total_wake_transitions: u64,
}

/// The result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Policy name.
    pub name: String,
    /// Final totals and end time.
    pub outcome: RunOutcome,
    /// Latency distribution over completed jobs.
    pub latency: Option<LatencyStats>,
    /// Fleet power behaviour.
    pub fleet: FleetStats,
}

impl ExperimentResult {
    /// The accumulated-latency / energy curves (Figs. 8/9 series).
    pub fn samples(&self) -> &[SamplePoint] {
        &self.outcome.samples
    }

    /// Energy in kWh (Table I column 1).
    pub fn energy_kwh(&self) -> f64 {
        self.outcome.totals.energy_kwh()
    }

    /// Accumulated latency in units of 1e6 seconds (Table I column 2).
    pub fn latency_mega_s(&self) -> f64 {
        self.outcome.totals.total_latency_s / 1e6
    }

    /// Average power in watts (Table I column 3).
    pub fn average_power_w(&self) -> f64 {
        self.outcome.totals.average_power_watts()
    }

    /// Average latency per job, seconds (Fig. 10 y-axis).
    pub fn mean_latency_s(&self) -> f64 {
        self.outcome.totals.mean_latency_s()
    }

    /// Average energy per job, joules (Fig. 10 x-axis).
    pub fn energy_per_job_j(&self) -> f64 {
        self.outcome.totals.energy_per_job_joules()
    }
}

fn fleet_stats(cluster: &Cluster) -> FleetStats {
    let mut f = FleetStats::default();
    let n = cluster.servers().len() as f64;
    for s in cluster.servers() {
        let st = s.stats();
        let total = (st.busy_seconds + st.idle_seconds + st.sleep_seconds + st.transition_seconds)
            .max(1e-9);
        f.busy_fraction += st.busy_seconds / total / n;
        f.idle_fraction += st.idle_seconds / total / n;
        f.sleep_fraction += st.sleep_seconds / total / n;
        f.transition_fraction += st.transition_seconds / total / n;
        f.total_wake_transitions += st.wake_transitions;
    }
    f
}

/// Where one segment's arrivals come from.
#[derive(Debug)]
enum Arrivals<'a> {
    /// A materialized trace, validated and stably sorted up front by
    /// [`Cluster::new`].
    Trace(&'a Trace),
    /// A lazily pulled job stream ([`Cluster::from_source`]).
    Stream(ArrivalSource),
}

/// One segment of an [`Experiment`]: an arrival source plus the fleet
/// events that fire during it. Every segment restarts the cluster fresh
/// with its clock at zero, so its fleet events are on its own clock.
///
/// # Examples
///
/// A two-segment run under one set of carried policy objects:
///
/// ```
/// use hierdrl_core::prelude::*;
/// use hierdrl_sim::prelude::*;
/// use hierdrl_trace::prelude::*;
///
/// let cluster = ClusterConfig::paper(3);
/// let segments: Vec<Trace> = (0..2)
///     .map(|s| {
///         TraceGenerator::new(WorkloadConfig::google_like(s, 60_000.0))
///             .unwrap()
///             .generate_n(80)
///     })
///     .collect();
///
/// let mut allocator = hierdrl_sim::policies::RoundRobinAllocator::new();
/// let mut power = hierdrl_sim::policies::SleepImmediatelyPower;
/// let results =
///     Experiment::from_segments("demo", &cluster, segments.iter().map(Segment::trace))
///         .run_segments(&mut allocator, &mut power)?;
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].outcome.totals.jobs_completed, 80);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Segment<'a> {
    arrivals: Arrivals<'a>,
    fleet_events: &'a [(f64, FleetOp)],
}

impl<'a> Segment<'a> {
    /// A segment replaying a materialized trace.
    pub fn trace(trace: &'a Trace) -> Self {
        Self {
            arrivals: Arrivals::Trace(trace),
            fleet_events: &[],
        }
    }

    /// A segment pulling its jobs from a stream — the raw-scale form: no
    /// materialized `Vec<Job>` ever exists, and combined with
    /// `lazy_accounting` and `retain_completed_jobs = false` on the
    /// cluster config, peak memory is bounded by the fleet size, not the
    /// trace length. With retention off the result's `latency`
    /// percentiles are `None`; totals and sample curves are unaffected.
    pub fn stream(arrivals: ArrivalSource) -> Self {
        Self {
            arrivals: Arrivals::Stream(arrivals),
            fleet_events: &[],
        }
    }

    /// Attaches a pre-computed fleet-event schedule: `(time_s, op)` events
    /// pushed into the cluster's queue before the segment starts, fired at
    /// their times, interleaved deterministically with arrivals.
    #[must_use]
    pub fn with_fleet_events(mut self, events: &'a [(f64, FleetOp)]) -> Self {
        self.fleet_events = events;
        self
    }
}

/// An experiment: an ordered list of [`Segment`]s run on one cluster
/// configuration under *one* set of policy objects, which are carried
/// across segment boundaries (continuing online training on a drifting
/// stream) while the cluster restarts fresh each segment. A plain run is
/// one segment.
///
/// The segment boundary is a bug-prone seam: any policy state anchored to
/// the previous segment's clock (pending transitions, last-arrival marks
/// feeding inter-arrival predictors) must be dropped at segment start, or
/// the learner fabricates a cross-segment interval. The simulator enforces
/// this through the `on_run_begin`/`on_run_end` hooks on both control
/// traits.
///
/// # Examples
///
/// ```
/// use hierdrl_core::prelude::*;
/// use hierdrl_sim::prelude::*;
/// use hierdrl_trace::prelude::*;
///
/// let cluster = ClusterConfig::paper(4);
/// let trace = TraceGenerator::new(WorkloadConfig::google_like(1, 95_000.0))?
///     .generate_n(100);
///
/// let result = Experiment::new("demo", &cluster, &trace)
///     .run_pair(&PolicyPair::round_robin_baseline())?;
/// assert_eq!(result.outcome.totals.jobs_completed, 100);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Experiment<'a> {
    name: &'a str,
    cluster: &'a ClusterConfig,
    limit: RunLimit,
    /// Segments not yet run, in order.
    pending: std::vec::IntoIter<Segment<'a>>,
    /// Segments run so far.
    done: usize,
}

impl<'a> Experiment<'a> {
    /// An unbounded one-segment experiment replaying `trace`.
    pub fn new(name: &'a str, cluster: &'a ClusterConfig, trace: &'a Trace) -> Self {
        Self::from_segments(name, cluster, [Segment::trace(trace)])
    }

    /// An unbounded experiment over `segments`, in order.
    pub fn from_segments(
        name: &'a str,
        cluster: &'a ClusterConfig,
        segments: impl IntoIterator<Item = Segment<'a>>,
    ) -> Self {
        Self {
            name,
            cluster,
            limit: RunLimit::unbounded(),
            pending: segments.into_iter().collect::<Vec<_>>().into_iter(),
            done: 0,
        }
    }

    /// Replaces the run limit, which bounds *each* segment's run.
    #[must_use]
    pub fn with_limit(mut self, limit: RunLimit) -> Self {
        self.limit = limit;
        self
    }

    /// Runs the next segment on the carried policy objects, leaving them
    /// trained (and ready for the next segment) afterwards; `None` once
    /// every segment has run. Drivers that interleave bookkeeping between
    /// segments (per-segment stats snapshots, timing) call this in a loop.
    pub fn run_next(
        &mut self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Option<Result<ExperimentResult, String>> {
        let segment = self.pending.next()?;
        let index = self.done;
        self.done += 1;
        let cluster = match segment.arrivals {
            Arrivals::Trace(trace) => Cluster::new(self.cluster.clone(), trace.jobs().to_vec()),
            Arrivals::Stream(source) => Cluster::from_source(self.cluster.clone(), source),
        };
        Some(
            cluster
                .map(|mut cluster| {
                    for (time_s, op) in segment.fleet_events {
                        cluster.schedule_fleet_op(SimTime::from_secs(*time_s), op.clone());
                    }
                    let outcome = cluster.run(allocator, power, self.limit);
                    ExperimentResult {
                        name: self.name.to_string(),
                        latency: LatencyStats::from_jobs(cluster.completed_jobs()),
                        fleet: fleet_stats(&cluster),
                        outcome,
                    }
                })
                .map_err(|e| format!("segment {index}: {e}")),
        )
    }

    /// Runs every remaining segment in order on the carried policy
    /// objects and returns the per-segment results.
    ///
    /// # Errors
    ///
    /// Returns the first failing segment's error (an invalid cluster
    /// configuration or trace).
    pub fn run_segments(
        mut self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Result<Vec<ExperimentResult>, String> {
        std::iter::from_fn(|| self.run_next(allocator, power)).collect()
    }

    /// Runs every segment and returns the whole-run result: the
    /// time-sequential [`concat_segments`] of the segments, which for a
    /// one-segment experiment is that segment's result itself.
    ///
    /// # Errors
    ///
    /// Returns the first failing segment's error.
    pub fn run(
        self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Result<ExperimentResult, String> {
        let name = self.name;
        let results = self.run_segments(allocator, power)?;
        let refs: Vec<&ExperimentResult> = results.iter().collect();
        Ok(concat_segments(name, &refs))
    }

    /// Builds fresh policy objects from a [`PolicyPair`] and runs them,
    /// naming the result after the pair.
    ///
    /// # Errors
    ///
    /// Returns the first failing segment's error.
    pub fn run_pair(self, pair: &PolicyPair) -> Result<ExperimentResult, String> {
        let mut allocator = pair
            .allocator
            .build(self.cluster.num_servers, self.cluster.resource_dims);
        let mut power = pair.power.build(self.cluster);
        let mut result = self.run(allocator.as_mut(), power.as_mut())?;
        result.name.clone_from(&pair.name);
        Ok(result)
    }
}

/// Concatenates per-segment results into one whole-run
/// [`ExperimentResult`], sequentially in time: each segment restarts its
/// clock at zero, so spans and accumulated quantities *sum* (unlike
/// [`aggregate_shards`], whose shards share one clock and take the max
/// span). Sample curves are re-offset by the cumulative time and totals of
/// preceding segments, producing one continuous accumulated curve across
/// the whole drift. Latency percentiles merge job-count-weighted (the same
/// approximation as shard aggregation); fleet fractions weight by segment
/// span. A single segment comes back unchanged, bit for bit.
///
/// # Panics
///
/// Panics if `segments` is empty.
pub fn concat_segments(name: &str, segments: &[&ExperimentResult]) -> ExperimentResult {
    assert!(!segments.is_empty(), "concat needs >= 1 segment");
    if let [only] = segments {
        return ExperimentResult {
            name: name.to_string(),
            ..(*only).clone()
        };
    }
    let mut totals = hierdrl_sim::metrics::ClusterTotals::default();
    let mut samples: Vec<SamplePoint> = Vec::new();
    let mut fleet = FleetStats::default();
    let mut end_s = 0.0;
    let total_span: f64 = segments
        .iter()
        .map(|s| s.outcome.totals.time_s)
        .sum::<f64>()
        .max(1e-9);
    for seg in segments {
        let t = &seg.outcome.totals;
        // Offsets *before* accumulating this segment: its samples continue
        // the curve from where the previous segment left off.
        for p in &seg.outcome.samples {
            samples.push(SamplePoint {
                jobs_completed: totals.jobs_completed + p.jobs_completed,
                time_s: end_s + p.time_s,
                total_latency_s: totals.total_latency_s + p.total_latency_s,
                energy_joules: totals.energy_joules + p.energy_joules,
            });
        }
        totals.time_s += t.time_s;
        totals.energy_joules += t.energy_joules;
        totals.vm_time_integral += t.vm_time_integral;
        totals.queue_time_integral += t.queue_time_integral;
        totals.overload_integral += t.overload_integral;
        totals.power_watts = t.power_watts; // instantaneous: last segment's
        totals.jobs_arrived += t.jobs_arrived;
        totals.jobs_completed += t.jobs_completed;
        totals.total_latency_s += t.total_latency_s;
        totals.jobs_requeued += t.jobs_requeued;
        end_s += seg.outcome.end_time.as_secs();

        let w = t.time_s / total_span;
        fleet.busy_fraction += w * seg.fleet.busy_fraction;
        fleet.idle_fraction += w * seg.fleet.idle_fraction;
        fleet.sleep_fraction += w * seg.fleet.sleep_fraction;
        fleet.transition_fraction += w * seg.fleet.transition_fraction;
        fleet.total_wake_transitions += seg.fleet.total_wake_transitions;
    }

    ExperimentResult {
        name: name.to_string(),
        outcome: RunOutcome {
            totals,
            end_time: SimTime::from_secs(end_s),
            samples,
        },
        latency: merge_latency(segments.iter().copied()),
        fleet,
    }
}

/// Job-count-weighted merge of per-part latency summaries (percentiles
/// cannot be recovered from summaries, so this is an approximation);
/// `None` when no part completed a job with a retained record.
fn merge_latency<'r>(parts: impl Iterator<Item = &'r ExperimentResult>) -> Option<LatencyStats> {
    let with_latency: Vec<(u64, LatencyStats)> = parts
        .filter_map(|r| r.latency.map(|l| (r.outcome.totals.jobs_completed, l)))
        .collect();
    let jobs_with_latency: u64 = with_latency.iter().map(|(n, _)| n).sum();
    (jobs_with_latency > 0).then(|| {
        let mut merged = LatencyStats {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        };
        for (jobs, l) in &with_latency {
            let w = *jobs as f64 / jobs_with_latency as f64;
            merged.count += l.count;
            merged.mean += w * l.mean;
            merged.p50 += w * l.p50;
            merged.p95 += w * l.p95;
            merged.p99 += w * l.p99;
            merged.max = merged.max.max(l.max);
        }
        merged
    })
}

/// One cluster's share of a multi-cluster cell: the shard index within the
/// topology, the cluster's size, how many jobs the front-end router sent
/// it, and the full result of simulating it in isolation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardResult {
    /// Shard index (position of the cluster in the topology).
    pub cluster: usize,
    /// Servers in this cluster.
    pub servers: usize,
    /// Jobs the front-end router assigned to this cluster.
    pub jobs_routed: u64,
    /// The shard's own experiment result.
    pub result: ExperimentResult,
}

/// Aggregates independent per-cluster shard results into one fleet-level
/// [`ExperimentResult`], deterministically.
///
/// Shards share an absolute time axis (the router preserves arrival
/// times), so accumulated quantities sum, the fleet span is the longest
/// shard span, and the sample curves merge by `(time, shard index)` into
/// one fleet-wide accumulated curve. Fleet fractions are weighted by
/// server count. Latency *percentiles* cannot be recovered from per-shard
/// summaries, so the merged [`LatencyStats`] weights each shard's
/// percentiles by its job count — an approximation; exact per-cluster
/// distributions remain in the shard results. A single shard comes back
/// unchanged, bit for bit.
///
/// The instantaneous `power_watts` sums each shard's final snapshot.
/// Shards that drain early are frozen in their final machine states (the
/// event queue is empty, so nothing transitions afterwards), which makes
/// the sum the fleet's steady-state power at the merged end time; prefer
/// the energy-derived `average_power_watts()` for reporting.
///
/// # Panics
///
/// Panics if `shards` is empty — an empty topology is always a caller bug.
pub fn aggregate_shards(name: &str, shards: &[ShardResult]) -> ExperimentResult {
    assert!(!shards.is_empty(), "aggregate needs >= 1 shard");
    if let [only] = shards {
        return ExperimentResult {
            name: name.to_string(),
            ..only.result.clone()
        };
    }
    let mut totals = hierdrl_sim::metrics::ClusterTotals::default();
    let mut end_time = SimTime::ZERO;
    for shard in shards {
        let t = &shard.result.outcome.totals;
        totals.time_s = totals.time_s.max(t.time_s);
        totals.energy_joules += t.energy_joules;
        totals.vm_time_integral += t.vm_time_integral;
        totals.queue_time_integral += t.queue_time_integral;
        totals.overload_integral += t.overload_integral;
        totals.power_watts += t.power_watts;
        totals.jobs_arrived += t.jobs_arrived;
        totals.jobs_completed += t.jobs_completed;
        totals.total_latency_s += t.total_latency_s;
        totals.jobs_requeued += t.jobs_requeued;
        if shard.result.outcome.end_time > end_time {
            end_time = shard.result.outcome.end_time;
        }
    }

    // Fleet-wide accumulated curves: a deterministic (time, shard) merge of
    // the per-shard curves, re-accumulated across shards at every point.
    let mut points: Vec<(usize, &SamplePoint)> = shards
        .iter()
        .enumerate()
        .flat_map(|(k, s)| s.result.outcome.samples.iter().map(move |p| (k, p)))
        .collect();
    points.sort_by(|(ka, a), (kb, b)| {
        a.time_s
            .partial_cmp(&b.time_s)
            .expect("sample times are finite")
            .then(ka.cmp(kb))
    });
    let mut last: Vec<SamplePoint> = vec![
        SamplePoint {
            jobs_completed: 0,
            time_s: 0.0,
            total_latency_s: 0.0,
            energy_joules: 0.0,
        };
        shards.len()
    ];
    let samples = points
        .into_iter()
        .map(|(k, p)| {
            last[k] = *p;
            SamplePoint {
                jobs_completed: last.iter().map(|q| q.jobs_completed).sum(),
                time_s: p.time_s,
                total_latency_s: last.iter().map(|q| q.total_latency_s).sum(),
                energy_joules: last.iter().map(|q| q.energy_joules).sum(),
            }
        })
        .collect();

    let total_servers: usize = shards.iter().map(|s| s.servers).sum();
    let mut fleet = FleetStats::default();
    for shard in shards {
        let w = shard.servers as f64 / total_servers.max(1) as f64;
        let f = &shard.result.fleet;
        fleet.busy_fraction += w * f.busy_fraction;
        fleet.idle_fraction += w * f.idle_fraction;
        fleet.sleep_fraction += w * f.sleep_fraction;
        fleet.transition_fraction += w * f.transition_fraction;
        fleet.total_wake_transitions += f.total_wake_transitions;
    }

    ExperimentResult {
        name: name.to_string(),
        outcome: RunOutcome {
            totals,
            end_time,
            samples,
        },
        latency: merge_latency(shards.iter().map(|s| &s.result)),
        fleet,
    }
}

/// Offline pre-training of a DRL allocator (Section VII-A): epsilon-greedy
/// rollouts over several workload segments, filling the experience memory,
/// pre-training the autoencoder, and fitting the DNN. The paper uses
/// workload traces for five different clusters.
///
/// Rollouts pair the allocator with the ad-hoc sleep-immediately local
/// behaviour so the learned Q function reflects wake penalties.
///
/// # Errors
///
/// Returns an error if any rollout fails to construct.
pub fn pretrain_drl(
    allocator: &mut DrlAllocator,
    cluster_config: &ClusterConfig,
    segments: &[Trace],
) -> Result<(), String> {
    pretrain_pair(
        allocator,
        &mut SleepImmediatelyPower,
        cluster_config,
        segments,
    )
}

/// Offline pre-training of an (allocator, power manager) pair over several
/// workload segments. Used to co-train the hierarchical framework's two
/// tiers before evaluation, so the global tier's learned values reflect the
/// local tier's timeout behaviour and vice versa.
///
/// # Errors
///
/// Returns an error if any rollout fails to construct.
pub fn pretrain_pair(
    allocator: &mut dyn Allocator,
    power: &mut dyn PowerManager,
    cluster_config: &ClusterConfig,
    segments: &[Trace],
) -> Result<(), String> {
    for segment in segments {
        let mut cluster = Cluster::new(cluster_config.clone(), segment.jobs().to_vec())?;
        cluster.run(allocator, power, RunLimit::unbounded());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::DrlAllocatorConfig;
    use hierdrl_trace::generator::{TraceGenerator, WorkloadConfig};

    fn small_trace(seed: u64, n: usize) -> Trace {
        let config = WorkloadConfig::google_like(seed, 95_000.0);
        TraceGenerator::new(config).unwrap().generate_n(n)
    }

    fn run_pair(pair: &PolicyPair, config: &ClusterConfig, trace: &Trace) -> ExperimentResult {
        Experiment::new(&pair.name, config, trace)
            .run_pair(pair)
            .unwrap()
    }

    #[test]
    fn round_robin_experiment_completes() {
        let trace = small_trace(1, 300);
        let result = run_pair(
            &PolicyPair::round_robin_baseline(),
            &ClusterConfig::paper(5),
            &trace,
        );
        assert_eq!(result.outcome.totals.jobs_completed, 300);
        assert!(result.energy_kwh() > 0.0);
        assert!(result.latency.is_some());
        // Always-on: no sleeping at all.
        assert_eq!(result.fleet.sleep_fraction, 0.0);
    }

    #[test]
    fn streamed_run_matches_materialized_run_bitwise() {
        use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};

        let trace = small_trace(3, 400);
        let config = ClusterConfig::paper(5);
        let reference = Experiment::new("rr", &config, &trace)
            .run(
                &mut RoundRobinAllocator::new(),
                &mut FixedTimeoutPower::new(60.0),
            )
            .unwrap();

        let stream = hierdrl_trace::stream::TraceStream::new(std::sync::Arc::new(trace));
        let segment = Segment::stream(ArrivalSource::from_stream(stream));
        let streamed = Experiment::from_segments("rr", &config, [segment])
            .run(
                &mut RoundRobinAllocator::new(),
                &mut FixedTimeoutPower::new(60.0),
            )
            .unwrap();

        assert_eq!(reference.outcome.totals, streamed.outcome.totals);
        assert_eq!(reference.outcome.end_time, streamed.outcome.end_time);
        assert_eq!(reference.outcome.samples, streamed.outcome.samples);
        assert_eq!(reference.latency, streamed.latency);
        assert_eq!(reference.fleet, streamed.fleet);
    }

    #[test]
    fn streamed_run_without_retention_keeps_aggregates() {
        use hierdrl_sim::policies::{AlwaysOnPower, RoundRobinAllocator};

        let trace = small_trace(4, 300);
        let config = ClusterConfig::paper(4);
        let reference = Experiment::new("rr", &config, &trace)
            .run(&mut RoundRobinAllocator::new(), &mut AlwaysOnPower)
            .unwrap();

        let mut raw = config.clone();
        raw.lazy_accounting = true;
        raw.retain_completed_jobs = false;
        let stream = hierdrl_trace::stream::TraceStream::new(std::sync::Arc::new(trace));
        let segment = Segment::stream(ArrivalSource::from_stream(stream));
        let streamed = Experiment::from_segments("rr", &raw, [segment])
            .run(&mut RoundRobinAllocator::new(), &mut AlwaysOnPower)
            .unwrap();

        // Counts are exact in the raw-scale configuration; percentiles are
        // unavailable because no per-job records were retained.
        assert_eq!(
            reference.outcome.totals.jobs_completed,
            streamed.outcome.totals.jobs_completed
        );
        assert_eq!(
            reference.outcome.totals.total_latency_s,
            streamed.outcome.totals.total_latency_s
        );
        assert!(streamed.latency.is_none());
        let rel = (reference.outcome.totals.energy_joules - streamed.outcome.totals.energy_joules)
            .abs()
            / reference.outcome.totals.energy_joules;
        assert!(rel < 1e-9, "lazy energy drifted by {rel}");
    }

    #[test]
    fn fleet_fractions_sum_to_one() {
        let trace = small_trace(2, 200);
        let pair = PolicyPair {
            name: "ff+timeout".into(),
            allocator: crate::hierarchical::AllocatorKind::FirstFit,
            power: crate::hierarchical::PowerKind::FixedTimeout(60.0),
        };
        let result = run_pair(&pair, &ClusterConfig::paper(5), &trace);
        let f = result.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6, "fractions sum to {sum}");
        assert!(f.sleep_fraction > 0.0, "consolidation should sleep servers");
    }

    #[test]
    fn pretraining_then_evaluation_reuses_learner() {
        let config = ClusterConfig::paper(4);
        let drl_config = DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 100,
            ae_epochs: 2,
            ..Default::default()
        };
        let mut allocator = DrlAllocator::new(4, 3, drl_config);

        let segments: Vec<Trace> = (0..2).map(|s| small_trace(10 + s, 150)).collect();
        pretrain_drl(&mut allocator, &config, &segments).unwrap();
        let trained_decisions = allocator.stats().decisions;
        assert_eq!(trained_decisions, 300);

        let eval = small_trace(99, 100);
        let result = Experiment::new("drl-eval", &config, &eval)
            .run(&mut allocator, &mut SleepImmediatelyPower)
            .unwrap();
        assert_eq!(result.outcome.totals.jobs_completed, 100);
        assert_eq!(allocator.stats().decisions, trained_decisions + 100);
    }

    #[test]
    fn aggregating_one_shard_reproduces_it() {
        let trace = small_trace(5, 150);
        let result = run_pair(
            &PolicyPair::round_robin_baseline(),
            &ClusterConfig::paper(4),
            &trace,
        );
        let agg = aggregate_shards(
            "fleet",
            &[ShardResult {
                cluster: 0,
                servers: 4,
                jobs_routed: 150,
                result: result.clone(),
            }],
        );
        assert_eq!(agg.name, "fleet");
        assert_eq!(agg.outcome.totals, result.outcome.totals);
        assert_eq!(agg.outcome.end_time, result.outcome.end_time);
        assert_eq!(agg.outcome.samples, result.outcome.samples);
        assert_eq!(agg.fleet, result.fleet);
        assert_eq!(agg.latency, result.latency);
        assert!(agg.latency.is_some());
    }

    #[test]
    fn aggregate_sums_totals_and_merges_curves() {
        let shards: Vec<ShardResult> = (0..3)
            .map(|k| {
                let mut config = ClusterConfig::paper(3);
                config.sample_every = 40;
                let trace = small_trace(20 + k as u64, 120);
                let result = run_pair(&PolicyPair::round_robin_baseline(), &config, &trace);
                ShardResult {
                    cluster: k,
                    servers: 3,
                    jobs_routed: 120,
                    result,
                }
            })
            .collect();
        let agg = aggregate_shards("fleet", &shards);

        assert_eq!(agg.outcome.totals.jobs_completed, 360);
        let energy: f64 = shards
            .iter()
            .map(|s| s.result.outcome.totals.energy_joules)
            .sum();
        assert!((agg.outcome.totals.energy_joules - energy).abs() < 1e-6);
        let end = shards
            .iter()
            .map(|s| s.result.outcome.end_time.as_secs())
            .fold(0.0, f64::max);
        assert_eq!(agg.outcome.end_time.as_secs(), end);

        // Merged curves stay monotone and end at the fleet totals.
        for w in agg.outcome.samples.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
            assert!(w[1].jobs_completed >= w[0].jobs_completed);
            assert!(w[1].energy_joules >= w[0].energy_joules);
        }
        let n_samples: usize = shards.iter().map(|s| s.result.outcome.samples.len()).sum();
        assert_eq!(agg.outcome.samples.len(), n_samples);

        // Fractions remain a partition of time (equal weights here).
        let f = agg.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segmented_run_carries_the_learner_and_reports_per_segment() {
        let config = ClusterConfig::paper(4);
        let drl_config = DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 100,
            ae_epochs: 2,
            ..Default::default()
        };
        let mut allocator = DrlAllocator::new(4, 3, drl_config);
        let segments: Vec<Trace> = (0..3).map(|s| small_trace(30 + s, 120)).collect();
        let results =
            Experiment::from_segments("drift", &config, segments.iter().map(Segment::trace))
                .run_segments(&mut allocator, &mut SleepImmediatelyPower)
                .unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.outcome.totals.jobs_completed, 120);
        }
        // Online training continued across every boundary: one decision
        // per job, accumulated over all segments.
        assert_eq!(allocator.stats().decisions, 360);
        assert!(allocator.stats().train_steps > 0);
    }

    #[test]
    fn concat_sums_time_sequentially_and_offsets_curves() {
        let mut config = ClusterConfig::paper(3);
        config.sample_every = 40;
        let results: Vec<ExperimentResult> = (0..2)
            .map(|k| {
                run_pair(
                    &PolicyPair::round_robin_baseline(),
                    &config,
                    &small_trace(40 + k, 100),
                )
            })
            .collect();
        let refs: Vec<&ExperimentResult> = results.iter().collect();
        let whole = concat_segments("drift", &refs);

        assert_eq!(whole.outcome.totals.jobs_completed, 200);
        let span: f64 = results.iter().map(|r| r.outcome.totals.time_s).sum();
        assert!((whole.outcome.totals.time_s - span).abs() < 1e-9);
        let ends: f64 = results.iter().map(|r| r.outcome.end_time.as_secs()).sum();
        assert!((whole.outcome.end_time.as_secs() - ends).abs() < 1e-9);
        let energy: f64 = results.iter().map(|r| r.outcome.totals.energy_joules).sum();
        assert!((whole.outcome.totals.energy_joules - energy).abs() < 1e-6);

        // The merged curve is one continuous accumulation: monotone in
        // time, jobs, and energy, with all points present.
        for w in whole.outcome.samples.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
            assert!(w[1].jobs_completed >= w[0].jobs_completed);
            assert!(w[1].energy_joules >= w[0].energy_joules);
        }
        let n: usize = results.iter().map(|r| r.outcome.samples.len()).sum();
        assert_eq!(whole.outcome.samples.len(), n);

        // Fractions stay a partition of time.
        let f = whole.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6);

        // Concatenating one segment reproduces it bit for bit.
        let one = concat_segments("one", &refs[..1]);
        assert_eq!(one.name, "one");
        assert_eq!(one.outcome.totals, results[0].outcome.totals);
        assert_eq!(one.outcome.end_time, results[0].outcome.end_time);
        assert_eq!(one.outcome.samples, results[0].outcome.samples);
        assert_eq!(one.latency, results[0].latency);
        assert_eq!(one.fleet, results[0].fleet);
    }

    #[test]
    fn table_one_columns_are_consistent() {
        let trace = small_trace(3, 200);
        let result = run_pair(
            &PolicyPair::round_robin_baseline(),
            &ClusterConfig::paper(5),
            &trace,
        );
        // energy (kWh) == avg power (W) * span (h) / 1000
        let hours = result.outcome.end_time.as_hours();
        let expect_kwh = result.average_power_w() * hours / 1000.0;
        assert!((result.energy_kwh() - expect_kwh).abs() < 1e-9);
    }
}
