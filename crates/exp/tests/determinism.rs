//! Suite-runner determinism: parallel execution must reproduce serial
//! execution byte-for-byte, and per-cell seeds must be independent.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::dpm::{training_workers_started, RlPowerConfig};
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;

/// A cheap global-tier configuration so learned-policy cells stay fast in
/// debug builds.
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

/// A cheap pre-training budget.
fn quick_pretrain() -> Pretrain {
    Pretrain {
        segments: 1,
        fraction: 0.5,
    }
}

/// A cheap DRL variant so learned-policy cells stay fast in debug builds.
fn quick_drl() -> PolicySpec {
    PolicySpec::drl_variant("drl-quick", quick_config(), quick_pretrain())
}

/// A small Table-I-style grid: cluster sizes × the baseline systems plus a
/// learned policy, over two seeds.
fn small_grid() -> Suite {
    Suite::builder("table1-small")
        .topologies([Topology::paper(3), Topology::paper(5)])
        .workloads([WorkloadSpec::paper().with_total_jobs(150)])
        .policies([
            PolicySpec::round_robin(),
            PolicySpec::static_pair(
                "first-fit+sleep",
                AllocatorKind::FirstFit,
                PowerKind::SleepImmediately,
            ),
            quick_drl(),
        ])
        .seeds([11, 12])
        .build()
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let suite = small_grid();
    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    let parallel = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("parallel run");

    assert_eq!(serial.cells.len(), suite.len());
    assert_eq!(
        serial.report().to_json(),
        parallel.report().to_json(),
        "1-thread and 8-thread suite reports must be byte-identical"
    );
    // And a second parallel run reproduces itself.
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("parallel rerun");
    assert_eq!(parallel.report().to_json(), again.report().to_json());
}

#[test]
fn trace_cache_shares_traces_across_policies() {
    let suite = small_grid();
    let run = SuiteRunner::new().run(&suite).expect("run");
    // 2 topologies x 2 seeds = 4 evaluation traces shared by 3 policies
    // each, plus 2x2 single pre-training segments for the learned policy:
    // 8 distinct materializations instead of one per use.
    assert_eq!(run.traces_materialized, 8);
    assert!(
        run.trace_cache_hits >= 8,
        "expected >= 8 trace-cache hits, got {}",
        run.trace_cache_hits
    );
}

#[test]
fn changing_one_cells_seed_changes_only_that_cell() {
    let base = Suite::builder("seed-independence")
        .topologies([Topology::paper(4)])
        .workloads([WorkloadSpec::paper().with_total_jobs(150)])
        .policies([
            PolicySpec::round_robin(),
            PolicySpec::static_pair(
                "first-fit+sleep",
                AllocatorKind::FirstFit,
                PowerKind::SleepImmediately,
            ),
            quick_drl(),
        ])
        .seeds([11])
        .build();

    let mut perturbed = base.clone();
    // Change only the learned-policy cell's seed.
    let target = 2;
    assert_eq!(perturbed.scenarios[target].policy.name(), "drl-quick");
    perturbed.scenarios[target].seed = 99;

    let before = SuiteRunner::new().run(&base).expect("base run");
    let after = SuiteRunner::new().run(&perturbed).expect("perturbed run");

    for (i, (b, a)) in before.cells.iter().zip(&after.cells).enumerate() {
        let b = CellMetrics::from_result(&b.result);
        let a = CellMetrics::from_result(&a.result);
        if i == target {
            assert_ne!(b, a, "perturbed cell {i} must change");
        } else {
            assert_eq!(b, a, "untouched cell {i} must not change");
        }
    }
}

#[test]
fn learned_cells_restore_identical_pretraining_across_thread_counts() {
    // The pre-train cache is keyed by content; its hits must not depend on
    // scheduling. Run the same learned cell twice (two seeds share nothing,
    // same seed shares everything).
    let suite = Suite::builder("pretrain-cache")
        .topologies([Topology::paper(3)])
        .workloads([WorkloadSpec::paper().with_total_jobs(120)])
        .policies([quick_drl(), PolicySpec::round_robin()])
        .seeds([5])
        .build();
    let a = SuiteRunner::serial().run(&suite).expect("serial");
    let b = SuiteRunner::new()
        .with_threads(4)
        .run(&suite)
        .expect("parallel");
    let stats_a = a.cells[0].drl_stats.expect("learned cell has stats");
    let stats_b = b.cells[0].drl_stats.expect("learned cell has stats");
    assert_eq!(
        stats_a, stats_b,
        "pre-training must be schedule-independent"
    );
    assert!(stats_a.decisions > 0);
}

#[test]
fn rl_local_tier_reports_are_byte_identical_across_thread_budgets() {
    // A one-cell suite on two threads leaves the cell a spare thread, so
    // its RL local tier trains its predictors on a worker; serially it
    // trains them inline. Both must report the same bytes.
    let rl_dpm = PolicySpec::static_pair(
        "rr+rl-dpm",
        AllocatorKind::RoundRobin,
        PowerKind::Rl(RlPowerConfig::default()),
    );
    let hierarchical = PolicySpec::hierarchical_variant(0.5, quick_config(), quick_pretrain());
    for policy in [rl_dpm, hierarchical] {
        let suite = Suite::builder("local-tier-threads")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper().with_total_jobs(300)])
            .policies([policy])
            .seeds([11])
            .build();
        let serial = SuiteRunner::serial().run(&suite).expect("serial run");
        let workers = training_workers_started();
        let threaded = SuiteRunner::new()
            .with_threads(2)
            .run(&suite)
            .expect("2-thread run");
        assert!(
            training_workers_started() > workers,
            "the 2-thread run trains on a worker"
        );
        assert_eq!(
            serial.report().to_json(),
            threaded.report().to_json(),
            "{}: inline and background training must report the same bytes",
            suite.scenarios[0].id
        );
    }
}
