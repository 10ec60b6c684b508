//! End-to-end integration tests spanning all crates: every policy pair runs
//! on realistic synthetic workloads, results are deterministic under fixed
//! seeds, and cross-policy orderings match the physics of the model.

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn small_trace(seed: u64, jobs: usize, m: usize) -> Trace {
    let config = WorkloadConfig::google_like(seed, 95_000.0 * m as f64 / 30.0);
    TraceGenerator::new(config).unwrap().generate_n(jobs)
}

#[test]
fn every_policy_pair_completes_all_jobs() {
    let m = 5;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(1, 200, m);
    let pairs = vec![
        PolicyPair::round_robin_baseline(),
        PolicyPair {
            name: "random+timeout".into(),
            allocator: AllocatorKind::Random { seed: 5 },
            power: PowerKind::FixedTimeout(45.0),
        },
        PolicyPair {
            name: "least-loaded+sleep".into(),
            allocator: AllocatorKind::LeastLoaded,
            power: PowerKind::SleepImmediately,
        },
        PolicyPair {
            name: "first-fit+sleep".into(),
            allocator: AllocatorKind::FirstFit,
            power: PowerKind::SleepImmediately,
        },
        PolicyPair::drl_only(DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 50,
            ae_epochs: 2,
            ..Default::default()
        }),
        PolicyPair::hierarchical(
            DrlAllocatorConfig {
                warmup_decisions: 20,
                ae_pretrain_samples: 50,
                ae_epochs: 2,
                ..Default::default()
            },
            RlPowerConfig::default(),
        ),
    ];
    for pair in pairs {
        let result = Experiment::new(&pair.name, &cluster, &trace)
            .run_pair(&pair)
            .unwrap_or_else(|e| panic!("{} failed: {e}", pair.name));
        assert_eq!(
            result.outcome.totals.jobs_completed, 200,
            "{} did not complete all jobs",
            pair.name
        );
        assert!(result.energy_kwh() > 0.0, "{} used no energy", pair.name);
        assert!(
            result.outcome.totals.total_latency_s > 0.0,
            "{} reported zero latency",
            pair.name
        );
    }
}

#[test]
fn runs_are_deterministic_under_fixed_seeds() {
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(2, 150, m);
    let run = || {
        let pair = PolicyPair::drl_only(DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 50,
            ae_epochs: 2,
            seed: 99,
            ..Default::default()
        });
        let r = Experiment::new(&pair.name, &cluster, &trace)
            .run_pair(&pair)
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
        Experiment::new(name, &cluster, &trace)
            .run_pair(&PolicyPair {
                name: name.into(),
                allocator: AllocatorKind::FirstFit,
                power,
            })
            .unwrap()
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
    let rr = Experiment::new("rr", &cluster, &trace)
        .run_pair(&PolicyPair::round_robin_baseline())
        .unwrap();
    let ff = Experiment::new("ff", &cluster, &trace)
        .run_pair(&PolicyPair {
            name: "first-fit+sleep".into(),
            allocator: AllocatorKind::FirstFit,
            power: PowerKind::SleepImmediately,
        })
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
    pretrain_drl(&mut allocator, &cluster, &segments).unwrap();
    assert!(allocator.stats().train_steps > 0);

    let eval = small_trace(50, 120, m);
    let result = Experiment::new("transfer", &cluster, &eval)
        .run(
            &mut allocator,
            &mut hierdrl::sim::policies::SleepImmediatelyPower,
        )
        .unwrap();
    assert_eq!(result.outcome.totals.jobs_completed, 120);
}

#[test]
fn run_limit_by_jobs_is_respected() {
    let m = 3;
    let cluster = ClusterConfig::paper(m);
    let trace = small_trace(6, 300, m);
    let result = Experiment::new("rr", &cluster, &trace)
        .with_limit(RunLimit::jobs(100))
        .run_pair(&PolicyPair::round_robin_baseline())
        .unwrap();
    assert_eq!(result.outcome.totals.jobs_completed, 100);
}

#[test]
fn sample_curves_are_monotone_for_all_policies() {
    let m = 4;
    let mut cluster = ClusterConfig::paper(m);
    cluster.sample_every = 50;
    let trace = small_trace(7, 400, m);
    for pair in [
        PolicyPair::round_robin_baseline(),
        PolicyPair {
            name: "ff".into(),
            allocator: AllocatorKind::FirstFit,
            power: PowerKind::FixedTimeout(30.0),
        },
    ] {
        let result = Experiment::new(&pair.name, &cluster, &trace)
            .run_pair(&pair)
            .unwrap();
        let samples = result.samples();
        assert!(!samples.is_empty(), "{} produced no samples", pair.name);
        for w in samples.windows(2) {
            assert!(w[1].jobs_completed > w[0].jobs_completed);
            assert!(w[1].total_latency_s >= w[0].total_latency_s);
            assert!(w[1].energy_joules >= w[0].energy_joules);
            assert!(w[1].time_s >= w[0].time_s);
        }
    }
}
