//! Chaos-axis suites: fault-schedule independence between cells (the
//! property the seed tree promises), the serial/parallel byte-identity
//! guarantee extended to fault cells — including sharded ones — and the
//! acceptance bar of the chaos PR: the hierarchical framework must lose
//! less of its Eqn.-4 objective under injected faults than round-robin,
//! enforced through the declarative expectation layer.

use std::sync::OnceLock;

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;
use proptest::prelude::*;

/// A cheap DRL variant so learned-policy cells stay fast in debug builds.
fn quick_config() -> DrlAllocatorConfig {
    DrlAllocatorConfig {
        warmup_decisions: 20,
        ae_pretrain_samples: 50,
        ae_epochs: 2,
        minibatch: 8,
        train_interval: 8,
        ..Default::default()
    }
}

fn quick_pretrain() -> Pretrain {
    Pretrain {
        segments: 1,
        fraction: 0.5,
    }
}

fn quick_drl() -> PolicySpec {
    PolicySpec::drl_variant("drl-quick", quick_config(), quick_pretrain())
}

/// The full hierarchical stack (DRL global tier + RL local tier) with a
/// training budget that converges at debug-build job counts; names itself
/// `hierarchical` like the paper preset.
fn quick_hierarchical() -> PolicySpec {
    PolicySpec::hierarchical_variant(0.5, quick_config(), quick_pretrain())
}

const STREAM_JOBS: u64 = 150;

/// The grid the independence property runs on: every fault cell next to
/// its fault-free twin, one static and one learned policy.
fn independence_grid() -> Suite {
    Suite::builder("fault-independence")
        .topologies([Topology::paper(4)])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .faults_with_baseline([FaultSpec::crash_storm()])
        .policies([PolicySpec::round_robin(), quick_drl()])
        .seeds([11])
        .build()
}

/// Per-cell canonical JSON of a suite run.
fn cell_json(run: &SuiteRun) -> Vec<String> {
    run.report()
        .cells
        .iter()
        .map(|c| serde_json::to_string(c).expect("cell json"))
        .collect()
}

/// The unperturbed grid's per-cell reports, computed once for all
/// property cases.
fn baseline_cells() -> &'static [String] {
    static BASE: OnceLock<Vec<String>> = OnceLock::new();
    BASE.get_or_init(|| {
        let run = SuiteRunner::new()
            .run(&independence_grid())
            .expect("baseline run");
        cell_json(&run)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Perturbing one cell's `FaultSpec` — any crash-storm or
    /// straggler-wave parameters, either the static or the learned fault
    /// cell — leaves every *other* cell's report byte-identical, and
    /// changes the perturbed cell itself.
    #[test]
    fn perturbing_one_cells_fault_leaves_every_other_cell_byte_identical(
        which in 0usize..2,
        kind in 0usize..2,
        fraction in 0.1f64..0.7,
        start in 0.0f64..0.5,
        stagger in 0.0f64..0.1,
        length in 0.05f64..0.5,
        scale in 0.2f64..0.8,
    ) {
        let mut suite = independence_grid();
        let fault_cells: Vec<usize> = suite
            .scenarios
            .iter()
            .enumerate()
            .filter(|(_, s)| s.fault.is_some())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(fault_cells.len(), 2);
        let target = fault_cells[which];

        let shape = if kind == 0 {
            FaultShape::CrashStorm {
                fraction,
                start,
                stagger,
                outage: length,
            }
        } else {
            FaultShape::StragglerWave {
                fraction,
                scale,
                start,
                duration: length,
            }
        };
        // Same schedule *name* (ids — and hence twin lookups — stay
        // stable); entirely different fault behaviour.
        suite.scenarios[target].fault = Some(FaultSpec::new("crash-storm", vec![shape]));

        let perturbed = SuiteRunner::new().run(&suite).expect("perturbed run");
        let cells = cell_json(&perturbed);
        prop_assert_eq!(cells.len(), baseline_cells().len());
        for (i, (base, cell)) in baseline_cells().iter().zip(&cells).enumerate() {
            if i == target {
                prop_assert_ne!(base, cell, "perturbed cell {} must change", i);
            } else {
                prop_assert_eq!(base, cell, "untouched cell {} must not change", i);
            }
        }
    }
}

#[test]
fn sharded_chaos_report_is_byte_identical_to_serial() {
    // The byte-identity guarantee, one level down: fault schedules on
    // multi-cluster cells derive per shard (`mix(shard_seed(k), 4)`), so
    // thread count must not leak into any fault cell's report.
    let suite = Suite::builder("chaos-sharded")
        .topologies([
            Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin),
            Topology::paper(5),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .faults_with_baseline([FaultSpec::crash_storm(), FaultSpec::straggler_wave()])
        .policies([PolicySpec::round_robin(), quick_drl()])
        .seeds([21])
        .build();
    assert_eq!(suite.len(), 12);

    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    let sharded = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded run");
    assert_eq!(
        serial.report().to_json(),
        sharded.report().to_json(),
        "chaos suites must stay byte-identical between serial and parallel execution"
    );
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded rerun");
    assert_eq!(sharded.report().to_json(), again.report().to_json());

    // And the chaos actually happened: the sharded crash-storm cell
    // requeued jobs on both shards' fleets without losing any.
    let report = serial.report();
    let crash = report
        .cells
        .iter()
        .find(|c| c.id.contains("%crash-storm/round-robin") && c.id.contains("c2-m3"))
        .or_else(|| {
            report
                .cells
                .iter()
                .find(|c| c.fault.as_deref() == Some("crash-storm"))
        })
        .expect("a sharded crash-storm cell");
    assert!(crash.jobs_requeued > 0, "crash storm must requeue jobs");
    assert_eq!(crash.metrics.jobs_completed, STREAM_JOBS);
}

#[test]
fn graceful_degradation_acceptance_via_expectation_layer() {
    // The committed acceptance bar of the chaos PR, enforced through the
    // declarative layer itself: under both a crash storm and a straggler
    // wave, the full hierarchical framework's Eqn.-4 objective must
    // degrade (relative to its own fault-free twin) by no more than
    // round-robin's does — alongside conservation-through-requeue and a
    // determinism pin on a fault cell.
    let suite = Suite::builder("chaos-acceptance")
        .topologies([Topology::paper(6)])
        .workloads([WorkloadSpec::paper_scaled(2.2).with_total_jobs(400)])
        .faults_with_baseline([FaultSpec::crash_storm(), FaultSpec::straggler_wave()])
        .policies([PolicySpec::round_robin(), quick_hierarchical()])
        .seeds([42])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        })
        .expect(Expectation::DeterminismPin {
            name: "pin-straggler-wave".into(),
            cell_contains: "%straggler-wave/round-robin".into(),
        })
        .expect(Expectation::GracefulDegradation {
            name: "graceful-under-crash-storm".into(),
            fault: "crash-storm".into(),
            policy: "hierarchical".into(),
            baseline: "round-robin".into(),
            tolerance: 1.0,
        })
        .expect(Expectation::GracefulDegradation {
            name: "graceful-under-straggler-wave".into(),
            fault: "straggler-wave".into(),
            policy: "hierarchical".into(),
            baseline: "round-robin".into(),
            tolerance: 1.0,
        })
        .build();
    assert_eq!(suite.len(), 6);

    let run = SuiteRunner::new().run(&suite).expect("acceptance run");
    assert_eq!(run.expectations.len(), 4);
    for row in &run.expectations {
        eprintln!(
            "[{}] {}: {}",
            if row.passed { "PASS" } else { "FAIL" },
            row.name,
            row.detail
        );
        assert!(
            row.passed,
            "expectation {} failed: {}",
            row.name, row.detail
        );
    }

    // The verdicts ride the canonical report and the bench artifact.
    let report = run.report();
    assert_eq!(report.expectations, run.expectations);
    assert_eq!(run.bench_report().expectations, run.expectations);

    // And the crash storm requeued jobs on the round-robin fleet.
    let storm = report
        .cells
        .iter()
        .find(|c| c.id.contains("%crash-storm/round-robin"))
        .expect("a crash-storm round-robin cell");
    assert!(storm.jobs_requeued > 0, "crash storm must requeue jobs");
}

/// Runs a one-cell round-robin suite under `fault` and returns its error.
fn fault_error(topology: Topology, fault: FaultSpec) -> String {
    let suite = Suite::builder("misfit")
        .topologies([topology])
        .workloads([WorkloadSpec::paper().with_total_jobs(200)])
        .faults([fault])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    SuiteRunner::serial()
        .run(&suite)
        .expect_err("a fault spec that does not fit its unit fails the cell")
}

#[test]
fn fault_specs_that_do_not_fit_a_unit_fail_the_cell_by_name() {
    // A crash storm must leave one healthy server, so a one-server fleet
    // cannot take it.
    assert_eq!(
        fault_error(Topology::paper(1), FaultSpec::crash_storm()),
        "scenario paper-m1/paper%crash-storm/round-robin/s1: unit 0 segment 0: \
         fault shape 0: a crash storm needs >= 2 servers to leave one healthy"
    );
    // Server 4 exists in the six-server fleet, not in its 3-server units.
    let crash = FaultSpec::new(
        "crash-4",
        vec![FaultShape::Crash {
            server: 4,
            at: 0.5,
            outage: 0.2,
        }],
    );
    assert_eq!(
        fault_error(
            Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin),
            crash
        ),
        "scenario paper-c2m6-rr/paper%crash-4/round-robin/s1: unit 0 segment 0: \
         fault shape 0 crashes server 4 out of 3 servers"
    );
}

#[test]
fn drl_cells_on_units_smaller_than_the_state_groups_fail_by_name() {
    // The DRL state splits a unit into two groups, so a one-server unit
    // cannot be encoded: the cell fails by name before pre-training, and
    // so does a DRL kind declared through a static pair.
    let drl_error = |topology: Topology, policy: PolicySpec| {
        let suite = Suite::builder("too-few-servers")
            .topologies([topology])
            .workloads([WorkloadSpec::paper().with_total_jobs(200)])
            .policies([policy])
            .seeds([1])
            .build();
        SuiteRunner::serial()
            .run(&suite)
            .expect_err("a unit with fewer servers than groups fails the cell")
    };
    assert_eq!(
        drl_error(Topology::paper(1), quick_drl()),
        "scenario paper-m1/paper/drl-quick/s1: unit 0: more groups (2) than servers (1)"
    );
    // Three servers over two units: unit 1 gets one server.
    assert_eq!(
        drl_error(
            Topology::sharded_paper(2, 3, RouterPolicy::RoundRobin),
            quick_drl()
        ),
        "scenario paper-c2m3-rr/paper/drl-quick/s1: unit 1: more groups (2) than servers (1)"
    );
    let static_drl = PolicySpec::static_pair(
        "drl+sleep",
        AllocatorKind::Drl(Box::new(quick_config())),
        PowerKind::SleepImmediately,
    );
    assert_eq!(
        drl_error(Topology::paper(1), static_drl),
        "scenario paper-m1/paper/drl+sleep/s1: unit 0: more groups (2) than servers (1)"
    );
}
