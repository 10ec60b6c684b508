//! The RL local tier inside suites: an invalid configuration fails its
//! cell by name, and predictor training takes a thread of its own only
//! where the cell's share of the suite's threads leaves one spare.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::dpm::{training_workers_started, RlPowerConfig};
use hierdrl_core::predictor::PredictorConfig;
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;

/// Round-robin placement over the RL local tier configured by `config`.
fn rl_dpm(config: RlPowerConfig) -> PolicySpec {
    PolicySpec::static_pair(
        "rr+rl-dpm",
        AllocatorKind::RoundRobin,
        PowerKind::Rl(config),
    )
}

/// A small RL local tier, so cells stay fast in debug builds.
fn small_rl() -> RlPowerConfig {
    RlPowerConfig {
        predictor: PredictorConfig {
            lookback: 5,
            hidden: 6,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn suite(policy: PolicySpec, seeds: &[u64]) -> Suite {
    Suite::builder("local-tier")
        .topologies([Topology::paper(4)])
        .workloads([WorkloadSpec::paper().with_total_jobs(150)])
        .policies([policy])
        .seeds(seeds.iter().copied())
        .build()
}

#[test]
fn invalid_rl_power_configs_fail_their_cell_by_name() {
    let error = |policy: PolicySpec, threads: usize| {
        SuiteRunner::new()
            .with_threads(threads)
            .run(&suite(policy, &[1]))
            .expect_err("an invalid RL power config fails the cell")
    };
    let mut short = small_rl();
    short.predictor.lookback = 1;
    for threads in [1, 2] {
        assert_eq!(
            error(rl_dpm(short.clone()), threads),
            "scenario paper-m4/paper/rr+rl-dpm/s1: unit 0: invalid RL power config: \
             predictor: lookback must be at least 2, got 1"
        );
    }
    // A DRL global tier over a declared RL local tier, and the
    // hierarchical local tier, are checked the same way.
    let mut slow = small_rl();
    slow.predictor.learning_rate = f32::NAN;
    let drl_over_rl = PolicySpec::Drl {
        name: "drl+rl-dpm".into(),
        config: Some(Box::new(DrlAllocatorConfig::default())),
        power: PowerKind::Rl(slow),
        pretrain: Pretrain::default(),
    };
    assert_eq!(
        error(drl_over_rl, 1),
        "scenario paper-m4/paper/drl+rl-dpm/s1: unit 0: invalid RL power config: \
         predictor: learning rate must be finite and positive, got NaN"
    );
    assert_eq!(
        error(PolicySpec::hierarchical(1.5), 2),
        "scenario paper-m4/paper/hierarchical w=1.5/s1: unit 0: invalid RL power config: \
         weight must be in [0, 1], got 1.5"
    );
}

#[test]
fn a_cell_trains_its_predictors_on_a_worker_only_with_a_spare_thread() {
    let workers_started_by = |runner: SuiteRunner, seeds: &[u64]| {
        let before = training_workers_started();
        runner
            .run(&suite(rl_dpm(small_rl()), seeds))
            .expect("suite runs");
        training_workers_started() - before
    };
    assert_eq!(workers_started_by(SuiteRunner::serial(), &[1]), 0);
    assert_eq!(
        workers_started_by(SuiteRunner::new().with_threads(1), &[1]),
        0
    );
    // Two cells on two threads: each cell's budget is one.
    assert_eq!(
        workers_started_by(SuiteRunner::new().with_threads(2), &[1, 2]),
        0
    );
    // One cell on two threads: one worker beside the simulation.
    assert_eq!(
        workers_started_by(SuiteRunner::new().with_threads(2), &[1]),
        1
    );
}
