//! End-to-end integration tests spanning all crates: every pair of tier
//! kinds runs on realistic synthetic workloads, results are deterministic
//! under fixed seeds, and cross-policy orderings match the physics of the
//! model.

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn small_trace(seed: u64, jobs: usize, m: usize) -> Trace {
    let config = WorkloadConfig::google_like(seed, 95_000.0 * m as f64 / 30.0);
    TraceGenerator::new(config).unwrap().generate_n(jobs)
}

/// The round-robin baseline of Figs. 8/9: even dispatch keeps all servers
/// busy, so they effectively never sleep.
const ROUND_ROBIN: (AllocatorKind, PowerKind) = (AllocatorKind::RoundRobin, PowerKind::AlwaysOn);

/// A DRL global-tier config with a budget that trains at test-sized traces.
fn quick_drl() -> DrlAllocatorConfig {
    DrlAllocatorConfig {
        warmup_decisions: 20,
        ae_pretrain_samples: 50,
        ae_epochs: 2,
        ..Default::default()
    }
}

/// Runs `experiment` on fresh tiers built from their kinds.
fn run_kinds(
    experiment: Experiment<'_>,
    cluster: &ClusterConfig,
    (allocator, power): &(AllocatorKind, PowerKind),
) -> Result<ExperimentResult, String> {
    let mut allocator = allocator.build(cluster.effective_max(), cluster.resource_dims);
    let mut power = power.build(cluster);
    experiment.run(allocator.as_mut(), power.as_mut())
}

#[test]
fn every_policy_pair_completes_all_jobs() {
    let m = 5;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(1, 200, m);
    let pairs = [
        ("round-robin", ROUND_ROBIN),
        (
            "least-loaded+timeout",
            (AllocatorKind::LeastLoaded, PowerKind::FixedTimeout(45.0)),
        ),
        (
            "least-loaded+sleep",
            (AllocatorKind::LeastLoaded, PowerKind::SleepImmediately),
        ),
        (
            "first-fit+sleep",
            (AllocatorKind::FirstFit, PowerKind::SleepImmediately),
        ),
        (
            "drl-only",
            (
                AllocatorKind::Drl(Box::new(quick_drl())),
                PowerKind::SleepImmediately,
            ),
        ),
        (
            "hierarchical",
            (
                AllocatorKind::Drl(Box::new(quick_drl())),
                PowerKind::Rl(RlPowerConfig::default()),
            ),
        ),
    ];
    for (name, pair) in &pairs {
        let result = run_kinds(Experiment::new(name, &cluster, &trace), &cluster, pair)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(
            result.outcome.totals.jobs_completed, 200,
            "{name} did not complete all jobs"
        );
        assert!(result.energy_kwh() > 0.0, "{name} used no energy");
        assert!(
            result.outcome.totals.total_latency_s > 0.0,
            "{name} reported zero latency"
        );
    }
}

#[test]
fn runs_are_deterministic_under_fixed_seeds() {
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(2, 150, m);
    let run = || {
        let drl = DrlAllocatorConfig {
            seed: 99,
            ..quick_drl()
        };
        let pair = (
            AllocatorKind::Drl(Box::new(drl)),
            PowerKind::SleepImmediately,
        );
        let r = run_kinds(
            Experiment::new("drl-only", &cluster, &trace),
            &cluster,
            &pair,
        )
        .unwrap();
        (
            r.outcome.totals.energy_joules,
            r.outcome.totals.total_latency_s,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn always_on_beats_sleep_immediately_on_latency_and_loses_on_energy() {
    // With a consolidating allocator and batched arrivals, sleeping the
    // instant a server idles must pay wake latency; staying on must pay
    // idle power.
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(3, 400, m);
    let run = |power: PowerKind, name: &str| {
        let pair = (AllocatorKind::FirstFit, power);
        run_kinds(Experiment::new(name, &cluster, &trace), &cluster, &pair).unwrap()
    };
    let on = run(PowerKind::AlwaysOn, "on");
    let sleepy = run(PowerKind::SleepImmediately, "sleepy");
    assert!(
        on.outcome.totals.total_latency_s <= sleepy.outcome.totals.total_latency_s,
        "always-on latency {} should not exceed sleep-immediately {}",
        on.outcome.totals.total_latency_s,
        sleepy.outcome.totals.total_latency_s
    );
    assert!(
        sleepy.energy_kwh() < on.energy_kwh(),
        "sleeping should save energy: {} vs {}",
        sleepy.energy_kwh(),
        on.energy_kwh()
    );
}

#[test]
fn first_fit_consolidation_saves_energy_vs_round_robin() {
    let m = 8;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(4, 600, m);
    let rr = run_kinds(
        Experiment::new("rr", &cluster, &trace),
        &cluster,
        &ROUND_ROBIN,
    )
    .unwrap();
    let ff = run_kinds(
        Experiment::new("ff", &cluster, &trace),
        &cluster,
        &(AllocatorKind::FirstFit, PowerKind::SleepImmediately),
    )
    .unwrap();
    assert!(
        ff.energy_kwh() < rr.energy_kwh() * 0.8,
        "consolidation should save >20% energy: {} vs {}",
        ff.energy_kwh(),
        rr.energy_kwh()
    );
}

#[test]
fn pretrained_allocator_transfers_across_traces() {
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let mut allocator = DrlAllocator::new(
        m,
        3,
        DrlAllocatorConfig {
            warmup_decisions: 30,
            ae_pretrain_samples: 60,
            ae_epochs: 2,
            ..Default::default()
        },
    );
    let segments: Vec<Trace> = (0..2).map(|i| small_trace(10 + i, 150, m)).collect();
    pretrain_pair(
        &mut allocator,
        &mut SleepImmediatelyPower,
        &cluster,
        &segments,
    )
    .unwrap();
    assert!(allocator.stats().train_steps > 0);

    let eval = small_trace(50, 120, m);
    let result = Experiment::new("transfer", &cluster, &eval)
        .run(&mut allocator, &mut SleepImmediatelyPower)
        .unwrap();
    assert_eq!(result.outcome.totals.jobs_completed, 120);
}

#[test]
fn run_limit_by_jobs_is_respected() {
    let m = 3;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(6, 300, m);
    let experiment = Experiment::new("rr", &cluster, &trace).with_limit(RunLimit::jobs(100));
    let result = run_kinds(experiment, &cluster, &ROUND_ROBIN).unwrap();
    assert_eq!(result.outcome.totals.jobs_completed, 100);
}

#[test]
fn sample_curves_are_monotone_for_all_policies() {
    let m = 4;
    let mut cluster = ClusterConfig::paper(m);
    cluster.sample_every = 50;
    let trace = small_trace(7, 400, m);
    for (name, pair) in [
        ("round-robin", ROUND_ROBIN),
        (
            "ff",
            (AllocatorKind::FirstFit, PowerKind::FixedTimeout(30.0)),
        ),
    ] {
        let result = run_kinds(Experiment::new(name, &cluster, &trace), &cluster, &pair).unwrap();
        let samples = result.samples();
        assert!(!samples.is_empty(), "{name} produced no samples");
        for w in samples.windows(2) {
            assert!(w[1].jobs_completed > w[0].jobs_completed);
            assert!(w[1].total_latency_s >= w[0].total_latency_s);
            assert!(w[1].energy_joules >= w[0].energy_joules);
            assert!(w[1].time_s >= w[0].time_s);
        }
    }
}
