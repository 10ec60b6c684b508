//! Parallel, deterministic execution of a [`Suite`].
//!
//! Every cell is self-contained: its trace, pre-training rollouts, and
//! learner RNGs all derive from the scenario's own seed, so cells can run
//! on any thread in any order and still produce identical results. Shared
//! state is limited to one memo per kind of shared work, keyed by content:
//! synthetic traces (identical workload specs materialize once), parsed
//! real traces (each file parses once) and pre-training (identical
//! (cluster, segments, config) pre-train once). Memoized values are
//! deterministic functions of their keys, so sharing never changes
//! results, only wall-clock.
//!
//! # Execution units
//!
//! Every cell is a fleet of execution units, one per member cluster of its
//! [`Topology`]; a single cluster is a one-unit fleet. Each evaluation
//! segment's arrival stream is truncated to `max_jobs`, then routed to the
//! units — passed through unchanged to a single cluster, split by the
//! deterministic front-end [`Router`] otherwise. Each unit simulates its
//! share of every segment under its own learners, seeded from its unit
//! seed ([`Scenario::unit_seed`]), on its own worker thread, and unit
//! results merge in unit order — so a sharded run is byte-identical to the
//! same cell executed serially, and a one-unit merge returns the unit's
//! result unchanged.

use crate::report::{
    BenchCell, BenchReport, BenchSegment, BenchShard, CellMetrics, CellReport, CellTiming,
    ExpectationRow, FleetSize, SegmentReport, ShardReport, SuiteReport, TraceProvenance,
};
use crate::scenario::{
    CellFleet, FleetSchedule, PolicySpec, Pretrain, Scenario, SeedStream, Topology,
};
use crate::suite::{Expectation, Suite};
use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig, DrlSnapshot, DrlStats};
use hierdrl_core::dpm::{DpmSnapshot, RlPowerConfig, RlPowerManager};
use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
use hierdrl_core::runner::{
    aggregate_shards, concat_segments, pretrain_pair, Experiment, ExperimentResult, Segment,
    ShardResult,
};
use hierdrl_sim::cluster::{Allocator, PowerManager};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::SleepImmediatelyPower;
use hierdrl_sim::router::Router;
use hierdrl_trace::google::ParseStats;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::source::with_synthetic_demands;
use hierdrl_trace::trace::Trace;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A pre-trained pair of tiers, memoized across cells that share cluster,
/// rollout segments, and learner configuration (e.g. the Fig. 10 sweep,
/// where every operating point restores the same global tier).
#[derive(Clone)]
struct Pretrained {
    drl: DrlSnapshot,
    dpm: Option<DpmSnapshot>,
}

/// A thread-safe memo of fallible computations keyed by content.
///
/// Locking is two-level: a brief map lock finds or creates the key's slot,
/// then the slot's lock is held while computing, so concurrent requests
/// for one key wait for the first and share its value while distinct keys
/// compute in parallel. An error is returned without being stored, so the
/// next request for that key computes again. The map is key-ordered, so
/// any iteration over it is deterministic by construction.
struct Memo<V> {
    slots: Mutex<BTreeMap<String, Arc<Mutex<Option<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Self {
            slots: Mutex::default(),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
        }
    }
}

impl<V: Clone> Memo<V> {
    /// Returns `key`'s value, running `compute` unless a value is stored.
    fn get(&self, key: String, compute: impl FnOnce() -> Result<V, String>) -> Result<V, String> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("memo map lock")
                .entry(key)
                .or_default(),
        );
        let mut stored = slot.lock().expect("memo slot lock");
        if let Some(value) = stored.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        *stored = Some(value.clone());
        Ok(value)
    }

    /// Requests answered with a stored value.
    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Computations run: first requests, and requests after an error.
    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Shared per-run context handed to every cell; every run starts from an
/// empty one. Each memoized value is a deterministic function of its key.
#[derive(Default)]
struct RunContext {
    /// Synthetic traces, keyed by their [`TraceSpec`]'s JSON.
    traces: Memo<Arc<Trace>>,
    /// Pre-trained tiers, keyed by the JSON of (cluster, rollout segments,
    /// learner configs).
    pretrained: Memo<Pretrained>,
    /// Parsed real traces, keyed by source label (`format:path`).
    real_traces: Memo<(Arc<Trace>, ParseStats)>,
}

impl RunContext {
    /// The trace `spec` generates, materialized on the first request.
    fn trace(&self, spec: &TraceSpec) -> Result<Arc<Trace>, String> {
        let key = serde_json::to_string(spec).expect("trace spec serializes");
        self.traces.get(key, || spec.materialize().map(Arc::new))
    }
}

/// The outcome of one evaluation segment of a cell (or of one execution
/// unit of it): the learners were carried into it from the previous
/// segment and, unless the cell is a frozen ablation, kept training online
/// through it.
#[derive(Debug, Clone)]
pub struct SegmentRun {
    /// Segment index in drift order.
    pub segment: usize,
    /// The segment's workload shift label.
    pub shift: String,
    /// Jobs this execution unit received for the segment.
    pub jobs_routed: u64,
    /// The segment's own experiment result.
    pub result: ExperimentResult,
    /// Cumulative global-tier statistics at segment end, for learned
    /// policies.
    pub drl_stats: Option<DrlStats>,
    /// Segment wall-clock, seconds (max across units at fleet level).
    pub wall_s: f64,
}

/// The outcome of one execution unit (member cluster) of a cell.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The unit's routed jobs and simulation result (the concatenation
    /// across segments for drift cells).
    pub shard: ShardResult,
    /// The unit's global-tier statistics, for learned policies.
    pub drl_stats: Option<DrlStats>,
    /// The unit's per-segment outcomes in segment order (one for
    /// non-drift cells).
    pub segments: Vec<SegmentRun>,
    /// Unit wall-clock, seconds.
    pub wall_s: f64,
}

/// The outcome of one cell: the full runner result plus learner statistics
/// and timing.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// Full experiment result (including sample curves for Figs. 8/9):
    /// the time-sequential concatenation over segments of the fleet-level
    /// aggregate over units, each of which is the identity for one input.
    pub result: ExperimentResult,
    /// Global-tier statistics, for learned policies. Across units,
    /// counters sum and losses are decision-weighted.
    pub drl_stats: Option<DrlStats>,
    /// Per-segment fleet-level outcomes in drift order (empty for
    /// non-drift cells).
    pub segments: Vec<SegmentRun>,
    /// Per-unit outcomes in unit order: one per member cluster, so a
    /// single-cluster cell has exactly one. Reports carry per-cluster rows
    /// for multi-cluster topologies only.
    pub shards: Vec<ShardRun>,
    /// The cell's scheduled fleet-size envelope: constant at the topology
    /// size for fixed fleets, the lowered membership trajectory (summed
    /// across units, span-weighted across segments) for elastic cells.
    pub fleet_size: FleetSize,
    /// Real-trace provenance (`None` for synthetic cells).
    pub provenance: Option<TraceProvenance>,
    /// Wall-clock timing.
    pub timing: CellTiming,
}

/// The outcome of a whole suite: per-cell results in suite order plus
/// aggregate timing.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Suite name.
    pub suite: String,
    /// Per-cell outcomes, in suite (builder) order.
    pub cells: Vec<CellRun>,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock, seconds.
    pub total_wall_s: f64,
    /// Distinct traces materialized (evaluation + pre-training).
    pub traces_materialized: u64,
    /// Trace-cache hits.
    pub trace_cache_hits: u64,
    /// The suite's evaluated [`Expectation`]s, in declaration order
    /// (empty for suites without expectations). Every row is a pure
    /// function of the deterministic cell results, so it is safe to
    /// include in the canonical report.
    pub expectations: Vec<ExpectationRow>,
}

/// Maps one cell outcome to its canonical report row — shared by
/// [`SuiteRun::report`] and the determinism-pin expectation (which
/// byte-compares this row against a serial re-run's).
fn cell_report(c: &CellRun) -> CellReport {
    CellReport {
        id: c.scenario.id.clone(),
        topology: c.scenario.topology.name().to_string(),
        servers: c.scenario.topology.servers(),
        capacity_total: c.scenario.topology.total_capacity(),
        capacity_skew: c.scenario.topology.capacity_skew(),
        workload: c.scenario.workload.name().to_string(),
        fault: c.scenario.fault.as_ref().map(|f| f.name.clone()),
        elastic: c.scenario.elastic.map(|e| e.name().to_string()),
        fleet_size: c.fleet_size,
        policy: c.scenario.policy.name(),
        seed: c.scenario.seed,
        metrics: CellMetrics::from_result(&c.result),
        jobs_requeued: c.result.outcome.totals.jobs_requeued,
        drl: c.drl_stats,
        segments: (!c.segments.is_empty()).then(|| {
            c.segments
                .iter()
                .map(|s| SegmentReport {
                    segment: s.segment,
                    shift: s.shift.clone(),
                    metrics: CellMetrics::from_result(&s.result),
                    drl: s.drl_stats,
                })
                .collect()
        }),
        clusters: c.scenario.topology.is_multi_cluster().then(|| {
            c.shards
                .iter()
                .map(|s| ShardReport {
                    cluster: s.shard.cluster,
                    servers: s.shard.servers,
                    jobs_routed: s.shard.jobs_routed,
                    metrics: CellMetrics::from_result(&s.shard.result),
                    drl: s.drl_stats,
                })
                .collect()
        }),
        trace: c.provenance.clone(),
    }
}

impl SuiteRun {
    /// The canonical deterministic report (no timing).
    pub fn report(&self) -> SuiteReport {
        SuiteReport {
            suite: self.suite.clone(),
            cells: self.cells.iter().map(cell_report).collect(),
            expectations: self.expectations.clone(),
        }
    }

    /// The timing artifact (non-deterministic by nature).
    pub fn bench_report(&self) -> BenchReport {
        let jobs_total: u64 = self
            .cells
            .iter()
            .map(|c| c.result.outcome.totals.jobs_completed)
            .sum();
        BenchReport {
            suite: self.suite.clone(),
            threads: self.threads,
            cells_total: self.cells.len(),
            total_wall_s: self.total_wall_s,
            cell_wall_s_sum: self.cells.iter().map(|c| c.timing.wall_s).sum(),
            jobs_total,
            jobs_per_s: jobs_total as f64 / self.total_wall_s.max(1e-9),
            traces_materialized: self.traces_materialized,
            trace_cache_hits: self.trace_cache_hits,
            peak_rss_bytes: crate::report::peak_rss_bytes(),
            expectations: self.expectations.clone(),
            cells: self
                .cells
                .iter()
                .map(|c| BenchCell {
                    id: c.scenario.id.clone(),
                    jobs: c.result.outcome.totals.jobs_completed,
                    capacity_skew: c.scenario.topology.capacity_skew(),
                    fleet_size: c.fleet_size,
                    wall_s: c.timing.wall_s,
                    jobs_per_s: c.timing.jobs_per_s,
                    segments: (!c.segments.is_empty()).then(|| {
                        c.segments
                            .iter()
                            .map(|s| BenchSegment {
                                segment: s.segment,
                                shift: s.shift.clone(),
                                jobs: s.result.outcome.totals.jobs_completed,
                                wall_s: s.wall_s,
                            })
                            .collect()
                    }),
                    clusters: c.scenario.topology.is_multi_cluster().then(|| {
                        c.shards
                            .iter()
                            .map(|s| BenchShard {
                                cluster: s.shard.cluster,
                                servers: s.shard.servers,
                                jobs: s.shard.result.outcome.totals.jobs_completed,
                                wall_s: s.wall_s,
                            })
                            .collect()
                    }),
                    // Suite cells run in parallel; a per-cell snapshot of
                    // the process-wide high-water mark would be noise.
                    peak_rss_bytes: None,
                    trace: c.provenance.clone(),
                })
                .collect(),
        }
    }

    /// The cells' experiment results, in suite order.
    pub fn results(&self) -> Vec<&ExperimentResult> {
        self.cells.iter().map(|c| &c.result).collect()
    }

    /// The first cell whose policy name matches, if any.
    pub fn find_policy(&self, policy: &str) -> Option<&CellRun> {
        self.cells
            .iter()
            .find(|c| c.scenario.policy.name() == policy)
    }
}

/// Executes suites, in parallel by default.
///
/// # Examples
///
/// ```
/// use hierdrl_exp::prelude::*;
///
/// let suite = Suite::builder("doc")
///     .topologies([Topology::paper(4)])
///     .workloads([WorkloadSpec::paper().with_total_jobs(150)])
///     .policies([PolicySpec::round_robin()])
///     .seeds([1, 2])
///     .build();
///
/// let run = SuiteRunner::new().run(&suite)?;
/// assert_eq!(run.cells.len(), 2);
/// // Same grid, serial execution: byte-identical canonical report.
/// let serial = SuiteRunner::serial().run(&suite)?;
/// assert_eq!(run.report().to_json(), serial.report().to_json());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuiteRunner {
    threads: Option<usize>,
}

impl SuiteRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-threaded runner (reference execution for determinism
    /// checks).
    pub fn serial() -> Self {
        Self { threads: Some(1) }
    }

    /// Pins the worker-thread count (`0`/unset = machine default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        match self.threads {
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Runs every cell of `suite`, returning per-cell outcomes in suite
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error, tagged with its scenario id.
    pub fn run(&self, suite: &Suite) -> Result<SuiteRun, String> {
        let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
        let ctx = RunContext::default();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads())
            .build()
            .map_err(|e| format!("thread pool: {e}"))?;
        let outcomes: Vec<Result<CellRun, String>> = pool.install(|| {
            suite
                .scenarios
                .par_iter()
                .map(|scenario| {
                    run_cell(scenario, &ctx).map_err(|e| format!("scenario {}: {e}", scenario.id))
                })
                .collect()
        });
        let cells = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut run = SuiteRun {
            suite: suite.name.clone(),
            cells,
            threads: self.threads(),
            total_wall_s: 0.0,
            traces_materialized: ctx.traces.misses(),
            trace_cache_hits: ctx.traces.hits(),
            expectations: Vec::new(),
        };
        run.expectations = evaluate_expectations(&suite.expectations, &run);
        run.total_wall_s = started.elapsed().as_secs_f64();
        Ok(run)
    }
}

/// Evaluates a suite's declarative [`Expectation`]s against the finished
/// grid, in declaration order. Every check is a pure function of the
/// deterministic cell results — including the determinism pin, whose
/// nested serial re-run is itself deterministic — so the rows are safe to
/// embed in the canonical byte-comparable report.
fn evaluate_expectations(expectations: &[Expectation], run: &SuiteRun) -> Vec<ExpectationRow> {
    expectations
        .iter()
        .map(|e| {
            let (passed, detail) = match e {
                Expectation::JobConservation { .. } => check_job_conservation(run),
                Expectation::DeterminismPin { cell_contains, .. } => {
                    check_determinism_pin(run, cell_contains)
                }
                Expectation::GracefulDegradation {
                    fault,
                    policy,
                    baseline,
                    tolerance,
                    ..
                } => check_graceful_degradation(run, fault, policy, baseline, *tolerance),
                Expectation::AutoscaleEconomics {
                    elastic,
                    policy,
                    energy_tolerance,
                    latency_slack,
                    ..
                } => check_autoscale_economics(
                    run,
                    elastic,
                    policy,
                    *energy_tolerance,
                    *latency_slack,
                ),
            };
            ExpectationRow {
                name: e.name().to_string(),
                passed,
                detail,
            }
        })
        .collect()
}

fn check_job_conservation(run: &SuiteRun) -> (bool, String) {
    let (mut jobs, mut requeued) = (0u64, 0u64);
    for cell in &run.cells {
        let t = &cell.result.outcome.totals;
        if t.jobs_completed != t.jobs_arrived {
            return (
                false,
                format!(
                    "{}: {} arrived vs {} completed",
                    cell.scenario.id, t.jobs_arrived, t.jobs_completed
                ),
            );
        }
        jobs += t.jobs_completed;
        requeued += t.jobs_requeued;
    }
    (
        true,
        format!(
            "{jobs} jobs completed exactly once across {} cells ({requeued} crash requeues)",
            run.cells.len()
        ),
    )
}

fn check_determinism_pin(run: &SuiteRun, cell_contains: &str) -> (bool, String) {
    let matched: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| c.scenario.id.contains(cell_contains))
        .collect();
    if matched.is_empty() {
        return (false, format!("no cell id contains {cell_contains:?}"));
    }
    for cell in &matched {
        // A fresh one-cell suite, re-run serially from the scenario alone.
        // It carries no expectations, so the nested run cannot recurse.
        let pin = Suite {
            name: "determinism-pin".into(),
            scenarios: vec![cell.scenario.clone()],
            expectations: Vec::new(),
        };
        let rerun = match SuiteRunner::serial().run(&pin) {
            Ok(rerun) => rerun,
            Err(e) => return (false, format!("{}: re-run failed: {e}", cell.scenario.id)),
        };
        let original = serde_json::to_string(&cell_report(cell)).expect("cell report serializes");
        let repeated =
            serde_json::to_string(&cell_report(&rerun.cells[0])).expect("cell report serializes");
        if original != repeated {
            return (
                false,
                format!(
                    "{}: serial re-run diverged from suite run",
                    cell.scenario.id
                ),
            );
        }
    }
    (
        true,
        format!("{} cells byte-identical under serial re-run", matched.len()),
    )
}

/// The cell's Eqn.-4 objective: time-averaged normalized fleet power +
/// per-server queueing + overload, under the paper's balanced weights. The
/// scale-free cost both sides of a graceful-degradation comparison share;
/// normalization uses the *nominal* fleet (crashed capacity does not
/// shrink the denominator, so losing servers cannot flatter a policy).
fn eqn4_objective(cell: &CellRun) -> f64 {
    let m = cell.scenario.topology.servers() as f64;
    let peak: f64 = cell
        .scenario
        .topology
        .clusters()
        .iter()
        .map(|c| c.num_servers as f64 * c.power.peak_watts)
        .sum();
    let w = hierdrl_core::reward::RewardWeights::balanced();
    let t = &cell.result.outcome.totals;
    let span = t.time_s.max(1e-9);
    w.power * (t.energy_joules / span / peak.max(1e-9))
        + w.vms * (t.queue_time_integral / span / m)
        + w.reliability * (t.overload_integral / span)
}

/// Mean (across seeds) of `eqn4(faulted) / eqn4(no-fault twin)` for one
/// policy under one fault schedule. The twin is the cell whose id differs
/// only by the `%fault` component.
fn degradation_ratio(run: &SuiteRun, policy: &str, fault: &str) -> Result<f64, String> {
    let faulted: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| {
            c.scenario.policy.name() == policy
                && c.scenario.fault.as_ref().is_some_and(|f| f.name == fault)
        })
        .collect();
    if faulted.is_empty() {
        return Err(format!("no {policy} cell under %{fault}"));
    }
    let mut ratios = Vec::with_capacity(faulted.len());
    for cell in faulted {
        let twin_id = cell.scenario.id.replace(&format!("%{fault}"), "");
        let twin = run
            .cells
            .iter()
            .find(|c| c.scenario.id == twin_id)
            .ok_or_else(|| format!("no fault-free twin {twin_id}"))?;
        ratios.push(eqn4_objective(cell) / eqn4_objective(twin).max(1e-12));
    }
    Ok(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

fn check_graceful_degradation(
    run: &SuiteRun,
    fault: &str,
    policy: &str,
    baseline: &str,
    tolerance: f64,
) -> (bool, String) {
    let (p, b) = match (
        degradation_ratio(run, policy, fault),
        degradation_ratio(run, baseline, fault),
    ) {
        (Ok(p), Ok(b)) => (p, b),
        (Err(e), _) | (_, Err(e)) => return (false, e),
    };
    (
        p <= b * tolerance,
        format!(
            "{policy} degrades {p:.3}x vs {baseline} {b:.3}x under %{fault} (tolerance {tolerance})"
        ),
    )
}

/// Autoscaling must pay for itself: `~elastic` cells of `policy` must land
/// at or below `energy_tolerance`× the fixed-fleet twin's energy-per-job
/// while keeping mean latency within `latency_slack`× of the twin. Both
/// ratios are means across every matching cell (i.e. across seeds).
fn check_autoscale_economics(
    run: &SuiteRun,
    elastic: &str,
    policy: &str,
    energy_tolerance: f64,
    latency_slack: f64,
) -> (bool, String) {
    let scaled: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| {
            c.scenario.policy.name() == policy
                && c.scenario.elastic.is_some_and(|e| e.name() == elastic)
        })
        .collect();
    if scaled.is_empty() {
        return (false, format!("no {policy} cell under ~{elastic}"));
    }
    let mut energy = Vec::with_capacity(scaled.len());
    let mut latency = Vec::with_capacity(scaled.len());
    for cell in scaled {
        let twin_id = cell.scenario.id.replace(&format!("~{elastic}"), "");
        let Some(twin) = run.cells.iter().find(|c| c.scenario.id == twin_id) else {
            return (false, format!("no fixed-fleet twin {twin_id}"));
        };
        energy.push(cell.result.energy_per_job_j() / twin.result.energy_per_job_j().max(1e-12));
        latency.push(cell.result.mean_latency_s() / twin.result.mean_latency_s().max(1e-12));
    }
    let e = energy.iter().sum::<f64>() / energy.len() as f64;
    let l = latency.iter().sum::<f64>() / latency.len() as f64;
    (
        e <= energy_tolerance && l <= latency_slack,
        format!(
            "~{elastic} {policy} energy/job {e:.3}x (tolerance {energy_tolerance}), \
             latency {l:.3}x (slack {latency_slack}) vs fixed fleet"
        ),
    )
}

/// The fully-derived learner inputs of one execution unit.
struct LearnerSeeds {
    policy_seed: u64,
    /// The unit's share of the evaluation stream (sizes pre-training).
    eval_jobs: u64,
    drl: Option<DrlAllocatorConfig>,
    dpm: Option<RlPowerConfig>,
    /// The local-tier config included in the pre-train cache key (`None`
    /// keeps Fig.-10-style cells sharing one pre-trained global tier).
    co_dpm: Option<RlPowerConfig>,
}

impl LearnerSeeds {
    /// Unit `unit`'s derivation: every stream re-derives from the unit
    /// seed, and the pre-training budget prorates to the unit's share of
    /// the fleet (the whole of it for a single cluster).
    fn new(scenario: &Scenario, unit: usize) -> Self {
        let seed = |stream| scenario.unit_seed(unit, stream);
        let unit_m = scenario.topology.clusters()[unit].num_servers;
        let dpm = scenario.dpm_config_seeded(seed(SeedStream::Dpm));
        Self {
            policy_seed: seed(SeedStream::Policy),
            eval_jobs: scenario
                .workload
                .shard_jobs_for(unit_m, scenario.topology.servers()),
            drl: scenario.drl_config_seeded(seed(SeedStream::Policy)),
            co_dpm: dpm.clone().filter(|_| scenario.policy.co_pretrains()),
            dpm,
        }
    }
}

/// A DRL global tier sized at the slot ceiling (`== num_servers` for fixed
/// fleets): elastic cells must encode joined slots, and the zero-padded
/// group encoding keeps narrower views bitwise stable. A unit too small
/// for the state's groups fails here by name.
fn drl_allocator(
    cluster: &ClusterConfig,
    config: &DrlAllocatorConfig,
) -> Result<DrlAllocator, String> {
    config.state.check_servers(cluster.effective_max())?;
    Ok(DrlAllocator::new(
        cluster.effective_max(),
        cluster.resource_dims,
        config.clone(),
    ))
}

/// Memoized pre-training of one (cluster, segments, learner configs)
/// problem. Identical inputs must produce identical learners, so the JSON
/// of all inputs is a sound memo key.
fn pretrain(
    ctx: &RunContext,
    cluster: &ClusterConfig,
    segments: &[TraceSpec],
    drl_config: &DrlAllocatorConfig,
    dpm_config: &Option<RlPowerConfig>,
) -> Result<Pretrained, String> {
    let payload = (cluster, segments, drl_config, dpm_config);
    let key = serde_json::to_string(&payload).expect("pretrain key serializes");
    ctx.pretrained.get(key, || {
        let mut allocator = drl_allocator(cluster, drl_config)?;
        let traces: Vec<Arc<Trace>> = segments
            .iter()
            .map(|spec| ctx.trace(spec))
            .collect::<Result<_, _>>()?;
        // The rollouts' local tier: the co-pre-trained RL tier, else the
        // ad-hoc behaviour, so learned values reflect wake penalties
        // (Section VII-A).
        let mut dpm = dpm_config
            .as_ref()
            .map(|config| RlPowerManager::for_cluster(cluster, config.clone()));
        let mut sleep = SleepImmediatelyPower;
        let power: &mut dyn PowerManager = match dpm.as_mut() {
            Some(dpm) => dpm,
            None => &mut sleep,
        };
        pretrain_pair(
            &mut allocator,
            power,
            cluster,
            traces.iter().map(Arc::as_ref),
        )?;
        Ok(Pretrained {
            drl: allocator.snapshot(),
            dpm: dpm.map(|dpm| dpm.snapshot()),
        })
    })
}

/// A built global tier: static policies stay behind the trait object,
/// while learned ones keep their concrete type so statistics capture,
/// freezing (the no-continued-training drift ablation), and slot-ceiling
/// sizing stay reachable.
enum BuiltAllocator {
    Static(Box<dyn Allocator>),
    Learned(Box<DrlAllocator>),
}

impl BuiltAllocator {
    /// Builds a fresh tier of `kind` for `cluster`.
    fn new(kind: &AllocatorKind, cluster: &ClusterConfig) -> Result<Self, String> {
        Ok(match kind {
            AllocatorKind::Drl(config) => {
                BuiltAllocator::Learned(Box::new(drl_allocator(cluster, config)?))
            }
            static_kind => BuiltAllocator::Static(
                static_kind.build(cluster.effective_max(), cluster.resource_dims),
            ),
        })
    }

    fn as_dyn(&mut self) -> &mut dyn Allocator {
        match self {
            BuiltAllocator::Static(a) => a.as_mut(),
            BuiltAllocator::Learned(a) => a.as_mut(),
        }
    }

    fn stats(&self) -> Option<DrlStats> {
        match self {
            BuiltAllocator::Static(_) => None,
            BuiltAllocator::Learned(a) => Some(*a.stats()),
        }
    }

    fn set_learning(&mut self, on: bool) {
        if let BuiltAllocator::Learned(a) = self {
            a.set_learning(on);
        }
    }
}

/// A built local tier, mirroring [`BuiltAllocator`].
enum BuiltPower {
    Static(Box<dyn PowerManager>),
    Learned(Box<RlPowerManager>),
}

impl BuiltPower {
    /// Builds a fresh tier of `kind` for `cluster`.
    fn new(kind: &PowerKind, cluster: &ClusterConfig) -> Self {
        match kind {
            PowerKind::Rl(config) => BuiltPower::Learned(Box::new(RlPowerManager::for_cluster(
                cluster,
                config.clone(),
            ))),
            static_kind => BuiltPower::Static(static_kind.build(cluster)),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn PowerManager {
        match self {
            BuiltPower::Static(p) => p.as_mut(),
            BuiltPower::Learned(p) => p.as_mut(),
        }
    }

    fn set_learning(&mut self, on: bool) {
        if let BuiltPower::Learned(p) = self {
            p.set_learning(on);
        }
    }
}

/// Checks every RL local-tier configuration a unit's policy carries (a
/// declared `PowerKind::Rl`, or the hierarchical local tier), so that an
/// invalid one fails its cell by name before anything is built or
/// pre-trained, instead of panicking in `RlPowerManager::for_cluster`.
fn validate_rl_configs(scenario: &Scenario, seeds: &LearnerSeeds) -> Result<(), String> {
    let declared = match &scenario.policy {
        PolicySpec::Static {
            power: PowerKind::Rl(config),
            ..
        }
        | PolicySpec::Drl {
            power: PowerKind::Rl(config),
            ..
        } => Some(config),
        _ => None,
    };
    declared
        .into_iter()
        .chain(&seeds.dpm)
        .try_for_each(RlPowerConfig::validate)
        .map_err(|e| format!("invalid RL power config: {e}"))
}

/// Builds one execution unit's control planes, pre-training learned tiers
/// first (memoized). Shared by the single-cluster path and every shard of
/// a multi-cluster cell.
fn build_policy(
    scenario: &Scenario,
    ctx: &RunContext,
    cluster: &ClusterConfig,
    seeds: &LearnerSeeds,
) -> Result<(BuiltAllocator, BuiltPower), String> {
    validate_rl_configs(scenario, seeds)?;
    let pretrained = |budget: &Pretrain, co_dpm: &Option<RlPowerConfig>| {
        let segments = budget.segment_specs(
            cluster.num_servers,
            seeds.eval_jobs,
            &scenario.workload,
            seeds.policy_seed,
        );
        let drl = seeds
            .drl
            .as_ref()
            .expect("pre-trained policy has a DRL config");
        pretrain(ctx, cluster, &segments, drl, co_dpm)
    };
    match &scenario.policy {
        PolicySpec::Static {
            allocator, power, ..
        } => Ok((
            BuiltAllocator::new(allocator, cluster)?,
            BuiltPower::new(power, cluster),
        )),
        PolicySpec::Drl {
            power,
            pretrain: budget,
            ..
        } => {
            let trained = pretrained(budget, &None)?;
            Ok((
                BuiltAllocator::Learned(Box::new(DrlAllocator::from_snapshot(trained.drl))),
                BuiltPower::new(power, cluster),
            ))
        }
        PolicySpec::Hierarchical {
            pretrain: budget, ..
        } => {
            let trained = pretrained(budget, &seeds.co_dpm)?;
            // Co-pre-trained cells restore the trained local tier; Fig. 10
            // cells start it fresh so every operating point shares the one
            // pre-trained global tier.
            let dpm = match trained.dpm {
                Some(snapshot) => RlPowerManager::from_snapshot_for_cluster(cluster, snapshot),
                None => RlPowerManager::for_cluster(
                    cluster,
                    seeds.dpm.clone().expect("hierarchical has a DPM config"),
                ),
            };
            Ok((
                BuiltAllocator::Learned(Box::new(DrlAllocator::from_snapshot(trained.drl))),
                BuiltPower::Learned(Box::new(dpm)),
            ))
        }
    }
}

/// Simulates one execution unit of a cell on its routed share of every
/// evaluation segment, under the unit's fleet schedule for each segment,
/// carrying its learners across segment boundaries with online training
/// continuing — or frozen after pre-training for ablation cells. Fully
/// self-contained: learner seeds derive from the unit's own seed, so units
/// can run on any thread in any order.
fn run_unit(
    scenario: &Scenario,
    ctx: &RunContext,
    unit: usize,
    segment_traces: &[Arc<Trace>],
    schedules: &[FleetSchedule],
    name: &str,
) -> Result<ShardRun, String> {
    let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
    let member = &scenario.topology.clusters()[unit];
    let seeds = LearnerSeeds::new(scenario, unit);
    // Elastic cells run (and pre-train) against the headroom config, so
    // mid-run joins have slots and learners size their padded width from
    // the same `effective_max`. Pre-training itself stays membership- and
    // fault-free: the paper's learners train on healthy fleets, fleet
    // schedules apply only at evaluation, and pre-train memo keys stay
    // stable across both axes.
    let headroom = scenario
        .elastic
        .map(|spec| spec.cluster_with_headroom(member));
    let cluster = headroom.as_ref().unwrap_or(member);
    let (mut allocator, mut power) =
        build_policy(scenario, ctx, cluster, &seeds).map_err(|e| format!("unit {unit}: {e}"))?;
    if !scenario.online_learning() {
        allocator.set_learning(false);
        power.set_learning(false);
    }
    let mut experiment = Experiment::from_segments(
        name,
        cluster,
        segment_traces
            .iter()
            .zip(schedules)
            .map(|(trace, schedule)| Segment::trace(trace).with_fleet_events(&schedule.events)),
    )
    .with_limit(scenario.run_limit());
    let mut segments: Vec<SegmentRun> = Vec::with_capacity(segment_traces.len());
    loop {
        let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
        let Some(result) = experiment.run_next(allocator.as_dyn(), power.as_dyn()) else {
            break;
        };
        let i = segments.len();
        segments.push(SegmentRun {
            segment: i,
            shift: scenario.segment_label(i),
            jobs_routed: segment_traces[i].len() as u64,
            result: result?,
            drl_stats: allocator.stats(),
            wall_s: started.elapsed().as_secs_f64(),
        });
    }
    let refs: Vec<&ExperimentResult> = segments.iter().map(|s| &s.result).collect();
    Ok(ShardRun {
        shard: ShardResult {
            cluster: unit,
            servers: member.num_servers,
            jobs_routed: segments.iter().map(|s| s.jobs_routed).sum(),
            result: concat_segments(name, &refs),
        },
        drl_stats: allocator.stats(),
        segments,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Fleet-level view of per-unit learner statistics: counters sum, losses
/// weight by decision count, and the autoencoder flag ANDs across units.
/// A single unit's statistics come back unchanged.
fn merge_drl_stats(per_unit: impl IntoIterator<Item = Option<DrlStats>>) -> Option<DrlStats> {
    let stats: Vec<DrlStats> = per_unit.into_iter().flatten().collect();
    match stats.as_slice() {
        [] => None,
        [only] => Some(*only),
        _ => {
            let decisions: u64 = stats.iter().map(|s| s.decisions).sum();
            let weight = |s: &DrlStats| s.decisions as f64 / decisions.max(1) as f64;
            Some(DrlStats {
                decisions,
                train_steps: stats.iter().map(|s| s.train_steps).sum(),
                loss_ema: stats.iter().map(|s| weight(s) * s.loss_ema).sum(),
                autoencoder_trained: stats.iter().all(|s| s.autoencoder_trained),
                autoencoder_loss: stats.iter().map(|s| weight(s) * s.autoencoder_loss).sum(),
            })
        }
    }
}

/// Resolves a cell's evaluation segments. Synthetic workloads materialize
/// their deterministic generator recipes through the run's trace memo;
/// real-trace workloads parse their file (memoized per source), apply the
/// configured job cap, pass the [`ParseStats`] demand gate — falling back
/// to seeded synthetic demands over the file's arrival process when too
/// many demand columns were defaulted — and, on the drift axis, split into
/// wall-clock windows so segment boundaries follow the *trace's* regime
/// changes rather than a generator schedule. A cell that neither caps nor
/// re-draws the file replays the parsed trace itself.
fn resolve_cell_traces(
    scenario: &Scenario,
    ctx: &RunContext,
) -> Result<(Vec<Arc<Trace>>, Option<TraceProvenance>), String> {
    let Some(source) = scenario.workload.real_source() else {
        let traces = scenario
            .segment_trace_specs()
            .iter()
            .map(|spec| ctx.trace(spec))
            .collect::<Result<_, _>>()?;
        return Ok((traces, None));
    };
    let (mut trace, stats) = ctx.real_traces.get(source.label(), || {
        let (trace, stats) = source.load()?;
        Ok((Arc::new(trace), stats))
    })?;
    // A file can parse cleanly to zero jobs (e.g. only incomplete task
    // lifecycles); there is no stream to replay, so name the cell and file.
    if trace.is_empty() {
        return Err(format!(
            "empty real trace: cell {} replays {}, which holds no complete jobs",
            scenario.id,
            source.label()
        ));
    }
    // The workload's job cap truncates the arrival stream itself, before
    // gating and segmentation.
    let cap = scenario.workload.jobs_for(scenario.topology.servers()) as usize;
    if cap > 0 && cap < trace.len() {
        let capped = Trace::new(trace.jobs()[..cap].to_vec())
            .map_err(|e| format!("{}: capped to {cap} jobs: {e}", source.label()))?;
        trace = Arc::new(capped);
    }
    // Demand gate: the file's demand columns are only trusted when the
    // defaulted fraction stays under the cell's threshold. Past it, keep
    // the arrival process but re-draw every demand vector from the cell's
    // trace seed (reported in the provenance block, and as a warning row
    // by the real-trace bin).
    let gate = scenario
        .workload
        .demand_gate()
        .expect("real workload has a demand gate");
    let synthetic_demand = stats.demand_defaulted as f64 / stats.jobs_kept.max(1) as f64 > gate;
    if synthetic_demand {
        trace = Arc::new(with_synthetic_demands(&trace, scenario.trace_seed()));
    }
    let provenance = TraceProvenance {
        source: source.label(),
        format: source.format.name().to_string(),
        rows: stats.rows as u64,
        jobs_kept: stats.jobs_kept as u64,
        jobs_dropped: (stats.incomplete_dropped
            + stats.nonpositive_duration_dropped
            + stats.duration_filtered) as u64,
        demand_defaulted: stats.demand_defaulted as u64,
        synthetic_demand,
    };
    let traces = if scenario.drift.is_some() {
        trace
            .segments_by_wall_clock(scenario.workload.segment_window_s())
            .into_iter()
            .map(Arc::new)
            .collect()
    } else {
        vec![trace]
    };
    Ok((traces, Some(provenance)))
}

/// Routes one segment's cell stream to the execution units: passed
/// through unchanged to a single cluster (no copy), split by the
/// front-end router across the clusters of a multi-cluster fleet under the
/// segment's capacity epochs.
fn route(
    topology: &Topology,
    segment: usize,
    stream: &Arc<Trace>,
    fleet: &CellFleet,
) -> Result<Vec<Arc<Trace>>, String> {
    let Some(router) = topology.router() else {
        return Ok(vec![Arc::clone(stream)]);
    };
    let epochs = fleet.router_epochs(segment, topology.clusters());
    Router::split(router, &epochs, stream.jobs())
        .into_iter()
        .enumerate()
        .map(|(k, jobs)| {
            Trace::new(jobs)
                .map(Arc::new)
                .map_err(|e| format!("shard {k} segment {segment} trace: {e}"))
        })
        .collect()
}

fn run_cell(scenario: &Scenario, ctx: &RunContext) -> Result<CellRun, String> {
    let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
    let (mut traces, provenance) = resolve_cell_traces(scenario, ctx)?;
    // `max_jobs` truncates each segment's arrival stream before routing.
    if let Some(n) = scenario.max_jobs.map(|n| n as usize) {
        for (i, trace) in traces.iter_mut().enumerate() {
            if trace.len() > n {
                let capped = Trace::new(trace.jobs()[..n].to_vec())
                    .map_err(|e| format!("segment {i} capped to {n} jobs: {e}"))?;
                *trace = Arc::new(capped);
            }
        }
    }
    let name = scenario.policy.name();

    // Membership lowers before routing, faults after it (see `CellFleet`).
    let fleet = CellFleet::lower_membership(scenario, &traces);
    let fleet_size = fleet.fleet_size(scenario);
    let mut per_unit: Vec<Vec<Arc<Trace>>> = vec![Vec::new(); scenario.topology.clusters().len()];
    for (i, stream) in traces.iter().enumerate() {
        for (k, share) in route(&scenario.topology, i, stream, &fleet)?
            .into_iter()
            .enumerate()
        {
            per_unit[k].push(share);
        }
    }
    let schedules = fleet.merge_faults(scenario, &per_unit)?;
    // Intra-cell unit parallelism: each unit simulates on its own worker
    // thread (running its segments sequentially under carried learners);
    // the rayon shim returns results in input (unit) order, so the merge
    // below is schedule-independent.
    let outcomes: Vec<Result<ShardRun, String>> = per_unit
        .into_iter()
        .zip(schedules)
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(k, (segments, schedules))| run_unit(scenario, ctx, k, &segments, &schedules, &name))
        .collect();
    let units = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Units share a clock *within* a segment (aggregate); segments run
    // back to back (concatenate).
    let fleet_segments: Vec<SegmentRun> = (0..traces.len())
        .map(|i| {
            let parts: Vec<ShardResult> = units
                .iter()
                .map(|u| ShardResult {
                    cluster: u.shard.cluster,
                    servers: u.shard.servers,
                    jobs_routed: u.segments[i].jobs_routed,
                    result: u.segments[i].result.clone(),
                })
                .collect();
            SegmentRun {
                segment: i,
                shift: scenario.segment_label(i),
                jobs_routed: parts.iter().map(|s| s.jobs_routed).sum(),
                drl_stats: merge_drl_stats(units.iter().map(|u| u.segments[i].drl_stats)),
                wall_s: units
                    .iter()
                    .map(|u| u.segments[i].wall_s)
                    .fold(0.0, f64::max),
                result: aggregate_shards(&name, &parts),
            }
        })
        .collect();
    let refs: Vec<&ExperimentResult> = fleet_segments.iter().map(|s| &s.result).collect();
    let result = concat_segments(&name, &refs);
    let drl_stats = merge_drl_stats(units.iter().map(|u| u.drl_stats));
    // Gate segment rows on the drift axis, not the segment count: a
    // (degenerate but valid) single-segment drift cell still reports its
    // row, while non-drift cells keep the single-result shape.
    let segments = if scenario.drift.is_some() {
        fleet_segments
    } else {
        Vec::new()
    };

    let wall_s = started.elapsed().as_secs_f64();
    let jobs = result.outcome.totals.jobs_completed;
    Ok(CellRun {
        scenario: scenario.clone(),
        result,
        drl_stats,
        segments,
        shards: units,
        fleet_size,
        provenance,
        timing: CellTiming {
            wall_s,
            jobs_per_s: jobs as f64 / wall_s.max(1e-9),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use hierdrl_trace::generator::WorkloadConfig;
    use hierdrl_trace::source::TraceFormat;

    fn stats(decisions: u64, loss_ema: f64) -> DrlStats {
        DrlStats {
            decisions,
            train_steps: decisions / 2,
            loss_ema,
            autoencoder_trained: true,
            autoencoder_loss: 0.25,
        }
    }

    #[test]
    fn merging_one_units_learner_stats_returns_them_unchanged() {
        for one in [stats(40, 0.7), stats(0, 0.3)] {
            // Including a learner that made no decisions, whose loss a
            // decision-weighted merge would otherwise zero out.
            assert_eq!(merge_drl_stats([Some(one)]), Some(one));
            assert_eq!(merge_drl_stats([None, Some(one)]), Some(one));
        }
        assert_eq!(merge_drl_stats([None, None]), None);

        let merged = merge_drl_stats([Some(stats(30, 1.0)), Some(stats(10, 0.0))]).unwrap();
        assert_eq!(merged.decisions, 40);
        assert_eq!(merged.train_steps, 20);
        assert!((merged.loss_ema - 0.75).abs() < 1e-12);
    }

    fn spec(seed: u64, jobs: usize) -> TraceSpec {
        TraceSpec::new(WorkloadConfig::google_like(seed, 50_000.0), jobs)
    }

    #[test]
    fn memo_shares_one_value_per_key() {
        let ctx = RunContext::default();
        let a = ctx.trace(&spec(1, 100)).unwrap();
        let b = ctx.trace(&spec(1, 100)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((ctx.traces.hits(), ctx.traces.misses()), (1, 1));
    }

    #[test]
    fn memo_trace_matches_direct_materialization() {
        let ctx = RunContext::default();
        let via_memo = ctx.trace(&spec(42, 200)).unwrap();
        assert_eq!(*via_memo, spec(42, 200).materialize().unwrap());
    }

    #[test]
    fn memo_computes_distinct_keys_separately() {
        let ctx = RunContext::default();
        let a = ctx.trace(&spec(1, 100)).unwrap();
        let b = ctx.trace(&spec(2, 100)).unwrap();
        let c = ctx.trace(&spec(1, 150)).unwrap();
        assert_ne!(a.jobs(), b.jobs());
        assert_eq!(c.len(), 150);
        assert_eq!((ctx.traces.hits(), ctx.traces.misses()), (0, 3));
    }

    #[test]
    fn memo_returns_errors_without_storing_them() {
        let ctx = RunContext::default();
        let mut bad = spec(1, 10);
        bad.workload.mem_cpu_correlation = 5.0;
        assert!(ctx.trace(&bad).is_err());
        assert!(ctx.trace(&bad).is_err(), "the retry computes again");
        assert_eq!((ctx.traces.hits(), ctx.traces.misses()), (0, 2));

        let memo = Memo::default();
        assert!(memo.get("k".into(), || Err("transient".into())).is_err());
        assert_eq!(memo.get("k".into(), || Ok(7)), Ok(7));
        assert_eq!(memo.get("k".into(), || Ok(8)), Ok(7));
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn memo_shares_one_computation_between_concurrent_requests() {
        let memo = Memo::default();
        let computations = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get("k".into(), || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            Ok(Arc::new(spec(9, 300).materialize()?))
                        })
                    })
                })
                .collect();
            let traces: Vec<Arc<Trace>> = handles
                .into_iter()
                .map(|h| h.join().expect("request thread").expect("valid spec"))
                .collect();
            assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        assert_eq!((memo.hits(), memo.misses()), (3, 1));
    }

    #[test]
    fn uncapped_real_trace_cells_replay_the_parsed_trace() {
        let fixture = format!(
            "{}/../trace/tests/fixtures/alibaba_batch_task.csv",
            env!("CARGO_MANIFEST_DIR")
        );
        let suite = Suite::builder("replay")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::real_trace(
                "real",
                fixture,
                TraceFormat::AlibabaBatchTask,
            )])
            .policies([PolicySpec::round_robin()])
            .seeds([1, 2])
            .build();
        let ctx = RunContext::default();
        let cells: Vec<_> = suite
            .scenarios
            .iter()
            .map(|s| resolve_cell_traces(s, &ctx).expect("fixture resolves"))
            .collect();
        for (traces, provenance) in &cells {
            assert!(!provenance.as_ref().expect("real cell").synthetic_demand);
            assert!(Arc::ptr_eq(&traces[0], &cells[0].0[0]), "no per-cell copy");
        }
        assert_eq!((ctx.real_traces.hits(), ctx.real_traces.misses()), (1, 1));
    }
}
