//! Online-learning / concept-drift sweeps: per-segment reporting, carried
//! learners, the serial/parallel byte-identity guarantee one level down
//! (sharded drift cells), and the acceptance bar — continued online
//! training must improve (or hold) post-drift segment metrics relative to
//! the frozen-learner ablation.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_core::dpm::{RlPowerConfig, RlPowerManager};
use hierdrl_core::runner::{Experiment, ExperimentResult, Segment};
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;
use hierdrl_sim::policies::RoundRobinAllocator;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::trace::Trace;

/// A cheap DRL variant so learned-policy cells stay fast in debug builds.
fn quick_drl() -> PolicySpec {
    PolicySpec::drl_variant(
        "drl-quick",
        DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 50,
            ae_epochs: 2,
            minibatch: 8,
            train_interval: 8,
            ..Default::default()
        },
        Pretrain {
            segments: 1,
            fraction: 0.5,
        },
    )
}

const STREAM_JOBS: u64 = 150;

/// A sharded drift grid: multi-cluster topologies × drifting workloads,
/// with static and learned policies carrying state across both shard and
/// segment boundaries.
fn sharded_drift_grid() -> Suite {
    Suite::builder("drift-sharded")
        .topologies([
            Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin),
            Topology::sharded_paper(3, 6, RouterPolicy::LeastLoaded),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .drifts([DriftSpec::rate_step(2.0), DriftSpec::stationary(3)])
        .policies([PolicySpec::round_robin(), quick_drl()])
        .seeds([13])
        .build()
}

#[test]
fn sharded_drift_report_is_byte_identical_to_serial() {
    let suite = sharded_drift_grid();
    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    let sharded = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded run");
    assert_eq!(
        serial.report().to_json(),
        sharded.report().to_json(),
        "sharded drift suites must stay byte-identical to serial execution"
    );
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded rerun");
    assert_eq!(sharded.report().to_json(), again.report().to_json());
}

#[test]
fn drift_cells_report_consistent_per_segment_rows() {
    let suite = sharded_drift_grid();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let report = run.report();

    for (cell_run, cell) in run.cells.iter().zip(&report.cells) {
        let segments = cell
            .segments
            .as_ref()
            .expect("every drift cell reports per-segment rows");
        assert_eq!(segments.len(), cell_run.scenario.num_segments());

        // Segments partition the evaluation stream: no job lost at any
        // boundary, and the whole-cell aggregate is their sum.
        let seg_jobs: u64 = segments.iter().map(|s| s.metrics.jobs_completed).sum();
        assert_eq!(seg_jobs, STREAM_JOBS);
        assert_eq!(cell.metrics.jobs_completed, STREAM_JOBS);
        let seg_kwh: f64 = segments.iter().map(|s| s.metrics.energy_kwh).sum();
        assert!((cell.metrics.energy_kwh - seg_kwh).abs() < 1e-9);
        let seg_span: f64 = segments.iter().map(|s| s.metrics.span_hours).sum();
        assert!((cell.metrics.span_hours - seg_span).abs() < 1e-9);

        // Shift labels follow the drift spec.
        let drift = cell_run.scenario.drift.as_ref().unwrap();
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(seg.segment, i);
            assert_eq!(seg.shift, drift.shifts[i].label());
        }

        // Learned cells: cumulative decision counts are non-decreasing
        // across segments and end at the cell total.
        if let Some(fleet) = cell.drl {
            let per_seg: Vec<u64> = segments
                .iter()
                .map(|s| s.drl.expect("learned segments carry stats").decisions)
                .collect();
            assert!(per_seg.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*per_seg.last().unwrap(), fleet.decisions);
        }

        // Sharded drift cells also carry per-cluster rows whose totals
        // agree with the fleet rows.
        let shards = cell.clusters.as_ref().expect("sharded cells have rows");
        let routed: u64 = shards.iter().map(|s| s.jobs_routed).sum();
        assert_eq!(routed, STREAM_JOBS);
    }
}

#[test]
fn stationary_drift_matches_cost_of_single_trace_cells() {
    // The stationary drift is the control row: segmentation itself (fresh
    // seeds aside) must not change what a policy can do. Jobs complete,
    // spans stay comparable, and the learner keeps training through every
    // boundary.
    let suite = Suite::builder("drift-control")
        .topologies([Topology::paper(4)])
        .workloads([WorkloadSpec::paper().with_total_jobs(240)])
        .drifts([DriftSpec::stationary(3)])
        .policies([quick_drl()])
        .seeds([7])
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let cell = &run.cells[0];
    assert_eq!(cell.result.outcome.totals.jobs_completed, 240);
    assert_eq!(cell.segments.len(), 3);
    let steps: Vec<u64> = cell
        .segments
        .iter()
        .map(|s| s.drl_stats.unwrap().train_steps)
        .collect();
    assert!(
        steps.windows(2).all(|w| w[0] < w[1]),
        "online training must continue across every segment boundary: {steps:?}"
    );
}

#[test]
fn single_segment_drift_still_reports_its_segment_row() {
    // A one-segment drift is degenerate but valid; it must not silently
    // demote to a non-drift cell (consumers key drift handling off the
    // id/spec, so `segments` must be present and consistent).
    let suite = Suite::builder("drift-one")
        .topologies([
            Topology::paper(3),
            Topology::sharded_paper(2, 4, RouterPolicy::RoundRobin),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(80)])
        .drifts([DriftSpec::stationary(1)])
        .policies([PolicySpec::round_robin()])
        .seeds([3])
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let report = run.report();
    for cell in &report.cells {
        let segments = cell.segments.as_ref().expect("drift cell reports rows");
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].metrics.jobs_completed, 80);
        assert_eq!(cell.metrics.jobs_completed, 80);
        assert!(cell.id.contains("@stationary-1"));
    }
}

/// The ablation pair's DRL variant: the first-fit guide annealed to zero
/// and a small constant exploration rate, so the online cell and its
/// frozen twin follow the *same* behaviour policy and differ only in
/// whether the network keeps training.
fn ablation_drl() -> PolicySpec {
    PolicySpec::drl_variant(
        "drl-ablate",
        DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 50,
            ae_epochs: 2,
            minibatch: 8,
            train_interval: 8,
            guide: hierdrl_rl::policy::EpsilonSchedule::Constant(0.0),
            epsilon: hierdrl_rl::policy::EpsilonSchedule::Constant(0.05),
            ..Default::default()
        },
        Pretrain {
            segments: 1,
            fraction: 0.5,
        },
    )
}

#[test]
fn continued_training_improves_or_holds_post_drift_metrics() {
    // The acceptance bar: on the rate-step drift, the DRL allocator with
    // continued online training must beat (or hold against) the same
    // pre-trained allocator frozen at evaluation start, on the post-drift
    // segment. Both cells derive identical seeds and share one memoized
    // pre-training (the drift axis is outside the pre-train cache key),
    // and the variant disables the first-fit guide, so the pair differs
    // *only* by continued training.
    let online = DriftSpec::rate_step(2.0);
    let frozen = online.clone().with_frozen_learners();
    let suite = Suite::builder("drift-ablation")
        .topologies([Topology::paper(5)])
        .workloads([WorkloadSpec::paper().with_total_jobs(2400)])
        .drifts([online, frozen])
        .policies([ablation_drl()])
        .seeds([42])
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let (online_cell, frozen_cell) = (&run.cells[0], &run.cells[1]);

    // Structural: the online cell keeps training after the drift; the
    // frozen ablation performs not a single update past pre-training.
    let online_steps: Vec<u64> = online_cell
        .segments
        .iter()
        .map(|s| s.drl_stats.unwrap().train_steps)
        .collect();
    assert!(online_steps[1] > online_steps[0]);
    let frozen_steps: Vec<u64> = frozen_cell
        .segments
        .iter()
        .map(|s| s.drl_stats.unwrap().train_steps)
        .collect();
    assert_eq!(frozen_steps[0], frozen_steps[1], "frozen means frozen");
    assert!(
        online_steps[1] > frozen_steps[1],
        "the pair must differ only by continued training"
    );

    // The headline metric is the allocator's own objective (Eqn. 4): the
    // time-average of normalized power + weighted queueing + overload over
    // the post-drift segment. (Raw energy or latency alone would hide the
    // trade the learner is *supposed* to make — e.g. waking a server to
    // absorb a doubled arrival rate.)
    let post_drift_cost = |cell: &CellRun| {
        let m = cell.scenario.topology.servers() as f64;
        let peak = m * cell.scenario.topology.clusters()[0].power.peak_watts;
        let w = hierdrl_core::reward::RewardWeights::balanced();
        let t = &cell.segments[1].result.outcome.totals;
        let span = t.time_s.max(1e-9);
        w.power * (t.energy_joules / span / peak)
            + w.vms * (t.queue_time_integral / span / m)
            + w.reliability * (t.overload_integral / span)
    };
    let (on, off) = (post_drift_cost(online_cell), post_drift_cost(frozen_cell));
    assert!(
        on <= off * 1.02,
        "continued training must improve or hold the post-drift segment \
         objective: online {on:.4} vs frozen {off:.4}"
    );
}

#[test]
fn frozen_cells_freeze_the_learned_tier_of_a_static_pair() {
    // A learned kind declared through a static pair is a carried learner
    // like any other, so the frozen ablation must stop its training too:
    // the cell equals a run of the same segments under a frozen RL tier.
    let suite = Suite::builder("drift-frozen-static")
        .topologies([Topology::paper(5)])
        .workloads([WorkloadSpec::paper().with_total_jobs(600)])
        .drifts([DriftSpec::rate_step(2.0).with_frozen_learners()])
        .policies([PolicySpec::static_pair(
            "rr+rl-dpm",
            AllocatorKind::RoundRobin,
            PowerKind::Rl(RlPowerConfig::default()),
        )])
        .seeds([4])
        .build();
    let run = SuiteRunner::serial().run(&suite).expect("frozen run");
    let cell = &run.cells[0];

    let scenario = &cell.scenario;
    let cluster = &scenario.topology.clusters()[0];
    let traces: Vec<Trace> = scenario
        .segment_trace_specs()
        .iter()
        .map(TraceSpec::materialize)
        .collect::<Result<_, _>>()
        .expect("segments materialize");
    let mut power = RlPowerManager::for_cluster(cluster, RlPowerConfig::default());
    power.set_learning(false);
    let frozen = Experiment::from_segments("rr+rl-dpm", cluster, traces.iter().map(Segment::trace))
        .run(&mut RoundRobinAllocator::new(), &mut power)
        .expect("reference run");

    let metrics = |r: &ExperimentResult| serde_json::to_string(&CellMetrics::from_result(r));
    assert_eq!(metrics(&cell.result).unwrap(), metrics(&frozen).unwrap());
}
