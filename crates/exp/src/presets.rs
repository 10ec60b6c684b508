//! Named suite presets reproducing the paper's evaluation grids
//! (Table I, Figs. 8–10), the DQN ablation, and the calibration probe.
//!
//! Every preset takes a [`Scale`] — the base (cluster size, job count)
//! operating point — so the same grid runs at paper scale or as a smoke
//! test (`Scale::quick()`), exactly like the old per-binary `--quick` flag.

use crate::scenario::{
    DriftSpec, ElasticSpec, FaultSpec, PolicySpec, Pretrain, Topology, WorkloadSpec,
};
use crate::suite::{Expectation, Suite};
use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
use hierdrl_rl::policy::EpsilonSchedule;
use hierdrl_sim::router::RouterPolicy;
use hierdrl_trace::source::TraceFormat;

/// The job count at which Table I reports its metrics.
pub const PAPER_REPORT_JOBS: u64 = 95_000;

/// Base operating point of a preset: cluster size `M` and evaluation job
/// count, with per-server load held at the paper's level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of servers `M`.
    pub m: usize,
    /// Jobs to simulate.
    pub jobs: u64,
}

impl Scale {
    /// The paper's setup for a given `M`.
    pub fn paper(m: usize) -> Self {
        Self {
            m,
            jobs: PAPER_REPORT_JOBS,
        }
    }

    /// A smoke-test scale.
    pub fn quick() -> Self {
        Self { m: 10, jobs: 5_000 }
    }

    /// The paper's workload at this scale's absolute job count.
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec::paper().with_total_jobs(self.jobs)
    }

    /// The paper's workload with jobs scaling per server, anchored so that
    /// this scale's `m` runs exactly `jobs` (Table I scales the report
    /// point with `M`).
    fn workload_per_server(&self) -> WorkloadSpec {
        WorkloadSpec::paper().with_jobs_per_server(self.jobs as f64 / self.m as f64)
    }
}

/// The paper's three systems: round-robin baseline, DRL-only, and the full
/// hierarchical framework.
pub fn three_systems() -> [PolicySpec; 3] {
    [
        PolicySpec::round_robin(),
        PolicySpec::drl_only(),
        PolicySpec::hierarchical(0.5),
    ]
}

/// The canonical big/little operating point: a quarter of the fleet at
/// twice the capacity (H2O-Cloud-style 2-tier fleet).
pub const BIG_LITTLE_FRACTION: f64 = 0.25;
/// Capacity multiplier of the big tier in the canonical big/little fleet.
pub const BIG_LITTLE_SCALE: f64 = 2.0;
/// The extreme-skew operating point: one-tenth of the fleet at 4x capacity.
pub const EXTREME_SKEW_FRACTION: f64 = 0.1;
/// Capacity multiplier of the big tier in the extreme-skew fleet.
pub const EXTREME_SKEW_SCALE: f64 = 4.0;

/// Heterogeneity grid: {homogeneous, big/little, extreme-skew} fleets ×
/// {round-robin, DRL-only, hierarchical}, all at the same server count and
/// per-server arrival load. The paper assumes homogeneous machines
/// "without loss of generality"; this grid measures exactly what that
/// assumption hides — whether the capacity-aware DRL tiers exploit big
/// machines (consolidate onto them, sleep the little tier) where
/// capacity-blind round-robin cannot.
pub fn heterogeneous(scale: Scale) -> Suite {
    Suite::builder("heterogeneous")
        .topologies([
            Topology::paper(scale.m),
            Topology::big_little(scale.m, BIG_LITTLE_FRACTION, BIG_LITTLE_SCALE),
            Topology::big_little(scale.m, EXTREME_SKEW_FRACTION, EXTREME_SKEW_SCALE),
        ])
        .workloads([scale.workload()])
        .policies(three_systems())
        .seeds([42])
        .build()
}

/// The arrival-rate multiplier of the canonical rate-step drift (a tenant
/// launch doubling the load mid-evaluation).
pub const DRIFT_RATE_STEP: f64 = 2.0;
/// The rate-ramp drift's per-segment factors (organic growth).
pub const DRIFT_RAMP_FACTORS: [f64; 3] = [1.0, 1.5, 2.0];

/// The named drift shapes of the `drift` preset, by CLI name.
pub fn drift_spec(name: &str) -> DriftSpec {
    match name {
        "stationary" => DriftSpec::stationary(2),
        "rate-step" => DriftSpec::rate_step(DRIFT_RATE_STEP),
        "rate-ramp" => DriftSpec::rate_ramp(&DRIFT_RAMP_FACTORS),
        "pattern-flip" => DriftSpec::pattern_flip(),
        other => panic!(
            "unknown drift {other:?}; expected one of stationary, rate-step, rate-ramp, \
             pattern-flip"
        ),
    }
}

/// The default drift axis of the `drift` preset.
pub const DRIFT_NAMES: [&str; 4] = ["stationary", "rate-step", "rate-ramp", "pattern-flip"];

/// Online-learning / concept-drift grid: {stationary, rate-step,
/// rate-ramp, pattern-flip} × {round-robin, DRL-only, hierarchical}, each
/// cell interleaving evaluation and continued training across its workload
/// segments under carried learners, with per-segment rows in the report.
/// The stationary drift is the control: same segmentation machinery, no
/// distribution change — any gap between it and the single-trace cells of
/// other presets would indicate a segment-boundary artifact.
pub fn drift(scale: Scale, names: &[String]) -> Suite {
    Suite::builder("drift")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .drifts(names.iter().map(|n| drift_spec(n)))
        .policies(three_systems())
        .seeds([42])
        .build()
}

/// The named fault schedules of the `chaos` preset, by CLI name.
/// `"no-fault"` is not a [`FaultSpec`] — it selects the fault-free
/// baseline entry of the axis and is handled by [`chaos`] directly.
pub fn fault_spec(name: &str) -> FaultSpec {
    match name {
        "crash-storm" => FaultSpec::crash_storm(),
        "straggler-wave" => FaultSpec::straggler_wave(),
        "cap-window" => FaultSpec::cap_window(),
        other => panic!(
            "unknown fault {other:?}; expected one of no-fault, crash-storm, straggler-wave, \
             cap-window"
        ),
    }
}

/// The default chaos axis of the `chaos` preset.
pub const FAULT_NAMES: [&str; 4] = ["no-fault", "crash-storm", "straggler-wave", "cap-window"];

/// Chaos grid: {no-fault, crash-storm, straggler-wave, cap-window} ×
/// {round-robin, DRL-only, hierarchical}, every fault cell paired with its
/// fault-free twin, plus the committed expectations: conservation through
/// crash-requeue churn, a determinism pin on a chaos cell, and the
/// headline graceful-degradation checks — does the hierarchical framework
/// lose less of its Eqn.-4 objective under faults than round-robin?
///
/// # Panics
///
/// Panics on an unknown fault name (see [`fault_spec`]).
pub fn chaos(scale: Scale, names: &[String]) -> Suite {
    let faults: Vec<FaultSpec> = names
        .iter()
        .filter(|n| n.as_str() != "no-fault")
        .map(|n| fault_spec(n))
        .collect();
    let baseline = names.len() != faults.len() || faults.is_empty();
    let mut builder = Suite::builder("chaos")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(three_systems())
        .seeds([42])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        });
    builder = if baseline {
        builder.faults_with_baseline(faults)
    } else {
        builder.faults(faults)
    };
    for fault in names.iter().filter(|n| n.as_str() != "no-fault") {
        builder = builder.expect(Expectation::DeterminismPin {
            name: format!("determinism-{fault}"),
            cell_contains: format!("%{fault}/round-robin"),
        });
        // The headline comparison needs the no-fault twins on the grid.
        if baseline {
            builder = builder.expect(Expectation::GracefulDegradation {
                name: format!("graceful-{fault}"),
                fault: fault.clone(),
                policy: "hierarchical".into(),
                baseline: "round-robin".into(),
                tolerance: 1.0,
            });
        }
    }
    builder.build()
}

/// The named autoscalers of the `elastic` preset, by CLI name.
/// `"fixed"` is not an [`ElasticSpec`] — it selects the fixed-fleet
/// baseline entry of the axis and is handled by [`elastic`] directly.
pub fn elastic_spec(name: &str) -> ElasticSpec {
    match name {
        "threshold" => ElasticSpec::Threshold,
        "learned" => ElasticSpec::Learned,
        other => panic!("unknown autoscaler {other:?}; expected one of fixed, threshold, learned"),
    }
}

/// The default elastic axis of the `elastic` preset.
pub const ELASTIC_NAMES: [&str; 3] = ["fixed", "threshold", "learned"];

/// Ceiling on the autoscaled cells' mean energy-per-job relative to their
/// fixed-fleet twins (the scale-down economics must beat — or at worst
/// match — keeping the whole fleet DPM-sleeping).
pub const ELASTIC_ENERGY_TOLERANCE: f64 = 1.0;
/// Ceiling on the autoscaled cells' mean latency relative to their
/// fixed-fleet twins ("at equal latency", with a little headroom for the
/// smaller live fleet absorbing the same arrivals).
pub const ELASTIC_LATENCY_SLACK: f64 = 1.10;

/// Elastic-fleet grid: {fixed, threshold, learned} × {round-robin,
/// DRL-only, hierarchical}, every autoscaled cell paired with its
/// fixed-fleet twin, plus the committed expectations: conservation through
/// join/leave churn, a determinism pin on an elastic cell, and the
/// headline autoscale-economics checks — does scaling the fleet with a
/// hierarchical learner beat leaving the whole fleet to DPM sleep on
/// energy-per-job, at equal latency?
///
/// # Panics
///
/// Panics on an unknown autoscaler name (see [`elastic_spec`]).
pub fn elastic(scale: Scale, names: &[String]) -> Suite {
    let specs: Vec<ElasticSpec> = names
        .iter()
        .filter(|n| n.as_str() != "fixed")
        .map(|n| elastic_spec(n))
        .collect();
    let baseline = names.len() != specs.len() || specs.is_empty();
    let mut builder = Suite::builder("elastic")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(three_systems())
        .seeds([42])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        });
    builder = if baseline {
        builder.elastics_with_baseline(specs)
    } else {
        builder.elastics(specs)
    };
    for name in names.iter().filter(|n| n.as_str() != "fixed") {
        builder = builder.expect(Expectation::DeterminismPin {
            name: format!("determinism-{name}"),
            cell_contains: format!("~{name}/round-robin"),
        });
        // The economics comparison needs the fixed-fleet twins on the grid.
        if baseline {
            builder = builder.expect(Expectation::AutoscaleEconomics {
                name: format!("autoscale-{name}"),
                elastic: name.clone(),
                policy: "hierarchical".into(),
                energy_tolerance: ELASTIC_ENERGY_TOLERANCE,
                latency_slack: ELASTIC_LATENCY_SLACK,
            });
        }
    }
    builder.build()
}

/// The committed trace fixtures the `realtrace` preset replays by default:
/// `(workload name, repo-relative path, format)`. Tiny deterministic files
/// (see `crates/trace/tests/fixtures/regen.py`), so the preset runs
/// offline in CI; point `--trace`/`--format` at a real download for the
/// full-size replay.
pub const REALTRACE_FIXTURES: [(&str, &str, TraceFormat); 2] = [
    (
        "real-google",
        "crates/trace/tests/fixtures/google_task_events.csv",
        TraceFormat::GoogleTaskEvents,
    ),
    (
        "real-alibaba",
        "crates/trace/tests/fixtures/alibaba_batch_task.csv",
        TraceFormat::AlibabaBatchTask,
    ),
];

/// Real-trace replay grid: each on-disk workload × {full trace,
/// wall-clock-weekly segments, weekly segments with frozen learners} ×
/// {round-robin, DRL-only, hierarchical}. The weekly cells replay the
/// trace's *own* regime changes through carried learners — the
/// online-vs-frozen ablation of the drift preset, on real arrivals instead
/// of scheduled generator shifts — and report one segment row per week.
/// Expectations: job conservation across the grid and a determinism pin on
/// a segmented replay cell.
///
/// Synthetic generators stay the default everywhere else; this preset (and
/// the workloads handed to it) is the only place the runner reads files.
pub fn realtrace(m: usize, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Suite {
    Suite::builder("realtrace")
        .topologies([Topology::paper(m)])
        .workloads(workloads)
        .drifts_with_baseline([
            DriftSpec::real_segments(),
            DriftSpec::real_segments().with_frozen_learners(),
        ])
        .policies(three_systems())
        .seeds([42])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        })
        .expect(Expectation::DeterminismPin {
            name: "determinism-real-weeks".into(),
            cell_contains: "@real-weeks/round-robin".into(),
        })
        .build()
}

/// **Fig. 8**: accumulated latency and energy vs. jobs at `M = 30`
/// (three systems, one seed).
pub fn fig8(scale: Scale) -> Suite {
    Suite::builder("fig8")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(three_systems())
        .seeds([42])
        .build()
}

/// **Fig. 9**: the same comparison at `M = 40` (arrival volume scales with
/// `M`, so per-server load matches Fig. 8).
pub fn fig9(scale: Scale) -> Suite {
    Suite::builder("fig9")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(three_systems())
        .seeds([43])
        .build()
}

/// **Table I**, extended with heterogeneity, drift, and elastic rows: the
/// three systems at `M` and `4/3 · M` (the paper's 30 and 40), evaluation
/// length scaling with `M` so per-server work is constant — plus the
/// canonical big/little fleet at `M` (a quarter of the servers at 2x
/// capacity), a rate-step concept-drift row at `M`, and a
/// threshold-autoscaled row at `M`, so the committed `BENCH_suite.json`
/// baseline carries heterogeneous, drift, *and* elastic cells (with
/// per-segment rows and `fleet_size` columns) and the perf gate tracks
/// them alongside the paper's.
pub fn table1(scale: Scale) -> Suite {
    let m_small = scale.m;
    let m_large = (scale.m * 4).div_ceil(3);
    let mut suite = Suite::builder("table1")
        .topologies([
            Topology::paper(m_small),
            Topology::paper(m_large),
            Topology::big_little(m_small, BIG_LITTLE_FRACTION, BIG_LITTLE_SCALE),
        ])
        .workloads([scale.workload_per_server()])
        .policies(three_systems())
        .seeds([42])
        .build();
    let drift_row = Suite::builder("table1")
        .topologies([Topology::paper(m_small)])
        .workloads([scale.workload_per_server()])
        .drifts([DriftSpec::rate_step(DRIFT_RATE_STEP)])
        .policies(three_systems())
        .seeds([42])
        .build();
    suite.scenarios.extend(drift_row.scenarios);
    let elastic_row = Suite::builder("table1")
        .topologies([Topology::paper(m_small)])
        .workloads([scale.workload_per_server()])
        .elastics([ElasticSpec::Threshold])
        .policies(three_systems())
        .seeds([42])
        .build();
    suite.scenarios.extend(elastic_row.scenarios);
    suite
}

/// **Fig. 10**: the latency/energy trade-off sweep — fixed timeouts of
/// 30/60/90 s under the same pre-trained global tier, against the
/// hierarchical framework across the Eqn. 5 weight sweep. All cells share
/// one seed and pre-train *without* the local tier
/// (`hierarchical_cold_local`), so the pre-train cache key is identical
/// across all ten operating points and every cell restores the *same*
/// pre-trained global tier, as the paper prescribes.
pub fn fig10(scale: Scale) -> Suite {
    let mut policies: Vec<PolicySpec> = [30.0, 60.0, 90.0]
        .into_iter()
        .map(PolicySpec::drl_timeout)
        .collect();
    policies.extend(
        [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
            .into_iter()
            .map(PolicySpec::hierarchical_cold_local),
    );
    Suite::builder("fig10")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(policies)
        .seeds([50])
        .build()
}

/// Global-tier design ablations (Section V-A): group count `K`, the state
/// enrichments (availability, queue depth, normalized capacity), encoder
/// fine-tuning, and the first-fit guide.
pub fn ablation_dqn(scale: Scale) -> Suite {
    let base = DrlAllocatorConfig::default();
    let pretrain = Pretrain {
        segments: 5,
        fraction: 1.0,
    };
    let mut policies = vec![PolicySpec::drl_variant(
        "full (K=2)",
        base.clone(),
        pretrain,
    )];
    for k in [3usize, 4] {
        let mut c = base.clone();
        c.state.num_groups = k;
        policies.push(PolicySpec::drl_variant(
            format!("K={k} groups"),
            c,
            pretrain,
        ));
    }
    let mut c = base.clone();
    c.state.include_power_state = false;
    policies.push(PolicySpec::drl_variant(
        "no availability feature",
        c,
        pretrain,
    ));
    let mut c = base.clone();
    c.state.include_queue_len = false;
    policies.push(PolicySpec::drl_variant("no queue feature", c, pretrain));
    let mut c = base.clone();
    c.state.include_capacity = false;
    policies.push(PolicySpec::drl_variant("no capacity feature", c, pretrain));
    let mut c = base.clone();
    c.qnet.fine_tune_encoder = true;
    policies.push(PolicySpec::drl_variant("fine-tuned encoder", c, pretrain));
    let mut c = base;
    c.guide = EpsilonSchedule::Constant(0.0);
    policies.push(PolicySpec::drl_variant("no first-fit guide", c, pretrain));

    Suite::builder("ablation_dqn")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies(policies)
        .seeds([60])
        .build()
}

/// Calibration probe: the three systems plus the hand-written consolidation
/// envelope at a reduced scale. Not a paper artifact.
pub fn calibrate(scale: Scale) -> Suite {
    Suite::builder("calibrate")
        .topologies([Topology::paper(scale.m)])
        .workloads([scale.workload()])
        .policies([
            PolicySpec::round_robin(),
            PolicySpec::static_pair(
                "first-fit+sleep",
                AllocatorKind::FirstFit,
                PowerKind::SleepImmediately,
            ),
            PolicySpec::static_pair(
                "least-loaded+sleep",
                AllocatorKind::LeastLoaded,
                PowerKind::SleepImmediately,
            ),
            PolicySpec::drl_only(),
            PolicySpec::hierarchical(0.5),
        ])
        .seeds([42])
        .build()
}

/// Multi-cluster scaling grid: the same total fleet (`scale.m` servers,
/// per-server load at the paper's level) sharded across every cluster
/// count in `cluster_counts`, behind each front-end router policy. The
/// round-robin baseline and the DRL global tier (per-cluster learners)
/// ride every sharding, so the grid answers "what does splitting the fleet
/// cost, and which router hides it best?".
pub fn multicluster(scale: Scale, cluster_counts: &[usize]) -> Suite {
    let topologies = cluster_counts.iter().flat_map(|&c| {
        RouterPolicy::ALL
            .into_iter()
            .map(move |router| Topology::sharded_paper(c, scale.m, router))
    });
    Suite::builder("multicluster")
        .topologies(topologies)
        .workloads([scale.workload()])
        .policies([
            PolicySpec::round_robin(),
            PolicySpec::static_pair(
                "first-fit+sleep",
                AllocatorKind::FirstFit,
                PowerKind::SleepImmediately,
            ),
            PolicySpec::drl_only(),
        ])
        .seeds([42])
        .build()
}

/// A policy × arrival-rate × cluster-size grid — the shape of sweep the
/// orchestration layer exists for. `rate_factors` scale the paper's
/// per-server arrival volume.
pub fn load_sweep(ms: &[usize], rate_factors: &[f64], jobs_per_server: f64) -> Suite {
    Suite::builder("load_sweep")
        .topologies(ms.iter().map(|&m| Topology::paper(m)))
        .workloads(
            rate_factors
                .iter()
                .map(|&f| WorkloadSpec::paper_scaled(f).with_jobs_per_server(jobs_per_server)),
        )
        .policies(three_systems())
        .seeds([42])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_both_cluster_sizes_a_big_little_drift_and_elastic_rows() {
        let suite = table1(Scale::paper(30));
        assert_eq!(suite.len(), 15);
        assert!(suite
            .scenarios
            .iter()
            .all(|s| s.topology.servers() == 30 || s.topology.servers() == 40));
        // Per-server work held constant: 95k jobs at M=30, ~126.7k at M=40.
        assert_eq!(suite.scenarios[0].workload.jobs_for(30), 95_000);
        assert_eq!(suite.scenarios[3].workload.jobs_for(40), 126_667);
        // The heterogeneity row: a quarter of the fleet at 2x capacity.
        let hetero = &suite.scenarios[6];
        assert!((hetero.topology.capacity_skew() - 2.0).abs() < 1e-12);
        // round(30 * 0.25) = 8 big servers at 2x: 8*2 + 22 little.
        assert!((hetero.topology.total_capacity() - 38.0).abs() < 1e-12);
        // The drift row: the last three cells run the rate-step segments
        // online, splitting the same total budget across segments.
        for s in &suite.scenarios[9..12] {
            assert_eq!(s.num_segments(), 2);
            assert!(s.online_learning());
            assert!(s.id.contains("@rate-step-x2"));
            let total: usize = s.segment_trace_specs().iter().map(|t| t.jobs).sum();
            assert_eq!(total, 95_000);
        }
        // The elastic row: the last three cells autoscale under the
        // threshold policy at M=30.
        for s in &suite.scenarios[12..] {
            assert!(s.id.contains("~threshold"));
            assert_eq!(s.elastic.unwrap().name(), "threshold");
        }
        // Non-drift cells keep their historical ids (perf-gate stability).
        assert_eq!(suite.scenarios[0].id, "paper-m30/paper/round-robin/s42");
    }

    #[test]
    fn drift_preset_grids_shapes_by_system() {
        let names: Vec<String> = DRIFT_NAMES.iter().map(|s| s.to_string()).collect();
        let suite = drift(Scale::quick(), &names);
        // 4 drift shapes x 3 systems.
        assert_eq!(suite.len(), 12);
        assert!(suite.scenarios.iter().all(|s| s.num_segments() >= 2));
        assert!(suite.scenarios.iter().all(|s| s.online_learning()));
        let segment_counts: Vec<usize> = suite
            .scenarios
            .iter()
            .step_by(3)
            .map(|s| s.num_segments())
            .collect();
        assert_eq!(segment_counts, [2, 2, 3, 2]);
        // Subsetting the axis by name works (the CLI path).
        let one = drift(Scale::quick(), &["rate-ramp".to_string()]);
        assert_eq!(one.len(), 3);
        assert_eq!(one.scenarios[0].num_segments(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown drift")]
    fn unknown_drift_name_rejected() {
        let _ = drift_spec("sideways");
    }

    #[test]
    fn chaos_preset_pairs_fault_cells_with_their_twins() {
        let names: Vec<String> = FAULT_NAMES.iter().map(|s| s.to_string()).collect();
        let suite = chaos(Scale::quick(), &names);
        // {no-fault + 3 faults} x 3 systems.
        assert_eq!(suite.len(), 12);
        // The fault-free twins come first and keep their historical ids.
        assert_eq!(suite.scenarios[0].id, "paper-m10/paper/round-robin/s42");
        assert_eq!(
            suite.scenarios[3].id,
            "paper-m10/paper%crash-storm/round-robin/s42"
        );
        assert_eq!(
            suite.scenarios[11].id,
            "paper-m10/paper%cap-window/hierarchical/s42"
        );
        // Committed expectations: conservation + per-fault determinism pin
        // and graceful-degradation headline.
        assert_eq!(suite.expectations.len(), 1 + 3 * 2);
        assert_eq!(suite.expectations[0].name(), "jobs-conserved");
        assert!(suite
            .expectations
            .iter()
            .any(|e| e.name() == "graceful-crash-storm"));
        // Subsetting the axis by name works (the CLI path); without the
        // no-fault entry there are no twins, so no degradation checks.
        let one = chaos(Scale::quick(), &["straggler-wave".to_string()]);
        assert_eq!(one.len(), 3);
        assert!(one.scenarios.iter().all(|s| s.fault.is_some()));
        assert!(!one
            .expectations
            .iter()
            .any(|e| matches!(e, Expectation::GracefulDegradation { .. })));
    }

    #[test]
    #[should_panic(expected = "unknown fault")]
    fn unknown_fault_name_rejected() {
        let _ = fault_spec("meteor-strike");
    }

    #[test]
    fn elastic_preset_pairs_autoscaled_cells_with_their_twins() {
        let names: Vec<String> = ELASTIC_NAMES.iter().map(|s| s.to_string()).collect();
        let suite = elastic(Scale::quick(), &names);
        // {fixed + 2 autoscalers} x 3 systems.
        assert_eq!(suite.len(), 9);
        // The fixed-fleet twins come first and keep their historical ids.
        assert_eq!(suite.scenarios[0].id, "paper-m10/paper/round-robin/s42");
        assert_eq!(
            suite.scenarios[3].id,
            "paper-m10/paper~threshold/round-robin/s42"
        );
        assert_eq!(
            suite.scenarios[8].id,
            "paper-m10/paper~learned/hierarchical/s42"
        );
        // Committed expectations: conservation + per-autoscaler determinism
        // pin and the autoscale-economics headline.
        assert_eq!(suite.expectations.len(), 1 + 2 * 2);
        assert_eq!(suite.expectations[0].name(), "jobs-conserved");
        assert!(suite
            .expectations
            .iter()
            .any(|e| e.name() == "autoscale-threshold"));
        // Subsetting the axis by name works (the CLI path); without the
        // fixed entry there are no twins, so no economics checks.
        let one = elastic(Scale::quick(), &["learned".to_string()]);
        assert_eq!(one.len(), 3);
        assert!(one.scenarios.iter().all(|s| s.elastic.is_some()));
        assert!(!one
            .expectations
            .iter()
            .any(|e| matches!(e, Expectation::AutoscaleEconomics { .. })));
    }

    #[test]
    #[should_panic(expected = "unknown autoscaler")]
    fn unknown_elastic_name_rejected() {
        let _ = elastic_spec("clairvoyant");
    }

    #[test]
    fn heterogeneous_grids_skew_by_policy() {
        let suite = heterogeneous(Scale::quick());
        // 3 fleets x 3 systems.
        assert_eq!(suite.len(), 9);
        let skews: Vec<f64> = suite
            .scenarios
            .iter()
            .map(|s| s.topology.capacity_skew())
            .collect();
        assert_eq!(&skews[..3], &[1.0, 1.0, 1.0]);
        assert_eq!(&skews[3..6], &[2.0, 2.0, 2.0]);
        assert_eq!(&skews[6..], &[4.0, 4.0, 4.0]);
        // Server count is held constant across the skew axis.
        assert!(suite.scenarios.iter().all(|s| s.topology.servers() == 10));
    }

    #[test]
    fn fig10_is_a_ten_point_sweep_sharing_one_seed() {
        let suite = fig10(Scale::quick());
        assert_eq!(suite.len(), 10);
        assert!(suite.scenarios.iter().all(|s| s.seed == 50));
        // Every cell pre-trains the same global tier: no cell includes a
        // local-tier config in its pre-training inputs.
        assert!(suite
            .scenarios
            .iter()
            .all(|s| s.co_pretrain_dpm_config().is_none()));
    }

    #[test]
    fn quick_scale_shrinks_every_preset() {
        let fault_names: Vec<String> = FAULT_NAMES.iter().map(|s| s.to_string()).collect();
        let elastic_names: Vec<String> = ELASTIC_NAMES.iter().map(|s| s.to_string()).collect();
        for suite in [
            fig8(Scale::quick()),
            fig9(Scale::quick()),
            table1(Scale::quick()),
            ablation_dqn(Scale::quick()),
            calibrate(Scale::quick()),
            chaos(Scale::quick(), &fault_names),
            elastic(Scale::quick(), &elastic_names),
        ] {
            for s in &suite.scenarios {
                assert!(s.workload.jobs_for(s.topology.servers()) <= 7_000);
                assert!(s.topology.servers() <= 14);
            }
        }
    }

    #[test]
    fn load_sweep_expands_full_grid() {
        let suite = load_sweep(&[10, 20], &[0.5, 1.0, 1.5], 300.0);
        assert_eq!(suite.len(), 2 * 3 * 3);
    }

    #[test]
    fn multicluster_grids_counts_by_router_at_constant_fleet_size() {
        let suite = multicluster(Scale::quick(), &[2, 4]);
        // 2 counts x 3 routers x 3 policies.
        assert_eq!(suite.len(), 18);
        for s in &suite.scenarios {
            assert!(s.topology.is_multi_cluster());
            assert_eq!(s.topology.servers(), 10, "fleet size is held constant");
        }
        let shard_counts: Vec<usize> = suite
            .scenarios
            .iter()
            .map(|s| s.topology.clusters().len())
            .collect();
        assert!(shard_counts.contains(&2) && shard_counts.contains(&4));
    }
}
