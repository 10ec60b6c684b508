//! Elastic-fleet suites: the serial/parallel byte-identity guarantee
//! extended to autoscaled cells — including sharded ones, where the router
//! re-derives capacity weights at membership epochs — job conservation
//! through join/leave churn, and the acceptance bar of the elastic PR:
//! autoscale + DRL must beat (or at worst match) the fixed-fleet DRL twin
//! on energy-per-job at equal latency, enforced through the declarative
//! expectation layer.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;

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

#[test]
fn elastic_sharded_byte_identity() {
    // The byte-identity guarantee on the elastic axis: membership
    // schedules on multi-cluster cells lower per shard from the shard's
    // own sub-seed (`mix(shard_seed(k), 5)`) and the router re-derives
    // capacity weights at the scheduled epoch boundaries, so thread count
    // must not leak into any autoscaled cell's report.
    let suite = Suite::builder("elastic-sharded")
        .topologies([
            Topology::sharded_paper(2, 6, RouterPolicy::WeightedByCapacity),
            Topology::paper(5),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .elastics_with_baseline([ElasticSpec::threshold(), ElasticSpec::learned()])
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
        "elastic suites must stay byte-identical between serial and parallel execution"
    );
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded rerun");
    assert_eq!(sharded.report().to_json(), again.report().to_json());

    // The membership actually changed: some autoscaled cell's fleet-size
    // columns span more than the initial size, and fixed cells report
    // min = max = M.
    let report = serial.report();
    assert!(
        report
            .cells
            .iter()
            .filter(|c| c.elastic.is_some())
            .any(|c| {
                let f = &c.fleet_size;
                f.min < f.max
            }),
        "at least one autoscaled cell must actually resize its fleet"
    );
    for cell in report.cells.iter().filter(|c| c.elastic.is_none()) {
        let f = &cell.fleet_size;
        assert_eq!((f.min, f.max), (f.mean as usize, f.mean as usize));
    }
}

#[test]
fn elastic_grid_conserves_jobs_under_churn() {
    // Every arrived job completes exactly once under membership churn:
    // leaves drain-and-requeue like crashes, joins add capacity, and the
    // conservation expectation holds across the whole grid — on top of a
    // fault schedule running in the same cells.
    let suite = Suite::builder("elastic-conservation")
        .topologies([Topology::paper(5)])
        .workloads([WorkloadSpec::paper_scaled(1.5).with_total_jobs(300)])
        .faults_with_baseline([FaultSpec::crash_storm()])
        .elastics_with_baseline([ElasticSpec::threshold()])
        .policies([PolicySpec::round_robin(), quick_drl()])
        .seeds([31])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        })
        .build();
    assert_eq!(suite.len(), 8);

    let run = SuiteRunner::new().run(&suite).expect("conservation run");
    for cell in &run.cells {
        assert_eq!(
            cell.result.outcome.totals.jobs_completed, 300,
            "cell {} lost or duplicated jobs",
            cell.scenario.id
        );
    }
    let row = &run.expectations[0];
    assert!(row.passed, "{}: {}", row.name, row.detail);
}

#[test]
fn autoscale_beats_fixed_fleet_or_holds() {
    // The committed acceptance bar of the elastic PR, enforced through
    // the declarative layer itself: the autoscaled hierarchical cells must
    // land at or below their fixed-fleet twins on energy-per-job while
    // holding mean latency within the slack — scaling servers away must
    // beat leaving them to DPM sleep.
    let suite = Suite::builder("elastic-acceptance")
        .topologies([Topology::paper(6)])
        .workloads([WorkloadSpec::paper_scaled(0.6).with_total_jobs(400)])
        .elastics_with_baseline([ElasticSpec::threshold()])
        .policies([PolicySpec::round_robin(), quick_hierarchical()])
        .seeds([42])
        .expect(Expectation::JobConservation {
            name: "jobs-conserved".into(),
        })
        .expect(Expectation::DeterminismPin {
            name: "pin-threshold".into(),
            cell_contains: "~threshold/round-robin".into(),
        })
        .expect(Expectation::AutoscaleEconomics {
            name: "autoscale-beats-fixed-fleet".into(),
            elastic: "threshold".into(),
            policy: "hierarchical".into(),
            energy_tolerance: 1.0,
            latency_slack: 1.10,
        })
        .build();
    assert_eq!(suite.len(), 4);

    let run = SuiteRunner::new().run(&suite).expect("acceptance run");
    assert_eq!(run.expectations.len(), 3);
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
    let bench = run.bench_report();
    assert_eq!(bench.expectations, run.expectations);
}
