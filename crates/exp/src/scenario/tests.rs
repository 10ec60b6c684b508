use super::*;
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::{FleetOp, ServerSpec};
use hierdrl_sim::job::{Job, JobId, ServerId};
use hierdrl_sim::router::RouterPolicy;
use hierdrl_sim::time::SimTime;
use hierdrl_trace::source::TraceFormat;

#[test]
fn workload_scales_with_cluster_size() {
    let w = WorkloadSpec::paper();
    assert_eq!(w.jobs_for(30), 95_000);
    assert!((w.jobs_per_week_for(30) - 95_000.0).abs() < 1e-9);
    assert!((w.jobs_per_week_for(40) - 95_000.0 * 40.0 / 30.0).abs() < 1e-6);
    let fixed = w.with_total_jobs(1234);
    assert_eq!(fixed.jobs_for(40), 1234);
}

#[test]
fn shard_share_prorates_fixed_totals() {
    // A fixed total prorates by server share; a 3-of-10 shard of a
    // 1000-job cell gets 300 jobs, not the full 1000.
    let fixed = WorkloadSpec::paper().with_total_jobs(1000);
    assert_eq!(fixed.shard_jobs_for(3, 10), 300);
    assert_eq!(fixed.shard_jobs_for(10, 10), 1000);
    // Per-server budgets already scale with the shard's size.
    let per = WorkloadSpec::paper().with_jobs_per_server(100.0);
    assert_eq!(per.shard_jobs_for(3, 10), per.jobs_for(3));
}

#[test]
fn scenario_ids_are_stable_and_unique_per_coordinate() {
    let s = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::round_robin(),
        7,
        None,
    );
    assert_eq!(s.id, "paper-m5/paper/round-robin/s7");
    let t = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::round_robin(),
        8,
        None,
    );
    assert_ne!(s.id, t.id);
}

#[test]
fn derived_seeds_are_decorrelated() {
    let s = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::drl_only(),
        7,
        None,
    );
    assert_ne!(s.trace_seed(), s.policy_seed());
    assert_ne!(s.policy_seed(), s.unit_seed(0, SeedStream::Dpm));
    // Neighbouring base seeds produce unrelated trace seeds.
    let t = Scenario {
        seed: 8,
        ..s.clone()
    };
    assert_ne!(s.trace_seed(), t.trace_seed());
}

#[test]
fn learned_policies_get_cell_derived_rng_seeds() {
    let s = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::hierarchical(0.3),
        7,
        None,
    );
    assert_eq!(s.drl_config().unwrap().seed, s.policy_seed());
    let dpm = s.dpm_config().unwrap();
    // A single cluster is a one-unit fleet seeded by the cell seed.
    assert_eq!(dpm.seed, s.unit_seed(0, SeedStream::Dpm));
    assert_eq!(s.policy_seed(), s.unit_seed(0, SeedStream::Policy));
    assert!((dpm.weight - 0.3).abs() < 1e-12);

    // A static pair pre-trains nothing: its learned kinds keep their own
    // config seeds, so the cell derives no learner config.
    let static_rl = Scenario {
        policy: PolicySpec::static_pair(
            "rr+rl-dpm",
            hierdrl_core::hierarchical::AllocatorKind::RoundRobin,
            hierdrl_core::hierarchical::PowerKind::Rl(RlPowerConfig::default()),
        ),
        ..s.clone()
    };
    assert!(static_rl.drl_config().is_none());
    assert!(static_rl.dpm_config().is_none());
}

#[test]
fn policy_names_match_paper_conventions() {
    assert_eq!(PolicySpec::round_robin().name(), "round-robin");
    assert_eq!(PolicySpec::drl_only().name(), "drl-only");
    assert_eq!(PolicySpec::drl_timeout(60.0).name(), "drl+timeout-60s");
    let ablation = PolicySpec::drl_variant("K=3 groups", Default::default(), Pretrain::default());
    assert_eq!(ablation.name(), "K=3 groups");
    assert_eq!(PolicySpec::hierarchical(0.5).name(), "hierarchical");
    assert_eq!(PolicySpec::hierarchical(0.2).name(), "hierarchical w=0.2");
}

#[test]
fn cold_local_hierarchical_pretrains_without_the_local_tier() {
    let cold = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::hierarchical_cold_local(0.2),
        7,
        None,
    );
    // Fig. 10 cells still *run* a local tier at their weight, but keep
    // it out of pre-training so the global tier is shared across the
    // sweep (its pre-train inputs match a `drl_timeout` cell's).
    assert!(cold.co_pretrain_dpm_config().is_none());
    assert!((cold.dpm_config().unwrap().weight - 0.2).abs() < 1e-12);

    let warm = Scenario {
        policy: PolicySpec::hierarchical(0.2),
        ..cold.clone()
    };
    assert_eq!(warm.co_pretrain_dpm_config(), warm.dpm_config());
}

#[test]
fn pretrain_segments_differ_and_scale() {
    let w = WorkloadSpec::paper().with_total_jobs(2000);
    let specs = Pretrain::default().segment_specs(10, w.jobs_for(10), &w, 99);
    assert_eq!(specs.len(), 5);
    assert_eq!(specs[0].jobs, 300);
    assert_ne!(specs[0].workload.seed, specs[1].workload.seed);
}

#[test]
fn sharded_topology_splits_servers_evenly() {
    let topo = Topology::sharded_paper(4, 10, RouterPolicy::RoundRobin);
    assert_eq!(topo.name(), "paper-c4m10-rr");
    assert_eq!(topo.servers(), 10);
    let sizes: Vec<usize> = topo.clusters().iter().map(|c| c.num_servers).collect();
    assert_eq!(sizes, vec![3, 3, 2, 2]);
    assert_eq!(topo.router(), Some(RouterPolicy::RoundRobin));
    assert!(topo.is_multi_cluster());

    let single = Topology::paper(5);
    assert_eq!(single.clusters().len(), 1);
    assert_eq!(single.router(), None);
    assert!(!single.is_multi_cluster());
}

#[test]
fn big_little_topology_builds_two_tiers() {
    let topo = Topology::big_little(10, 0.25, 2.0);
    assert_eq!(topo.name(), "big-little-m10-b3x2");
    assert_eq!(topo.servers(), 10);
    // 3 big at 2x + 7 little: 13 unit-server equivalents, skew 2.
    assert_eq!(topo.total_capacity(), 13.0);
    assert_eq!(topo.capacity_skew(), 2.0);
    let cluster = &topo.clusters()[0];
    assert!(cluster.validate().is_ok());
    let caps = cluster.server_capacities.as_ref().unwrap();
    assert!(caps[..3].iter().all(|c| c.cpu() == 2.0));
    assert!(caps[3..].iter().all(|c| c.cpu() == 1.0));

    // Homogeneous fleets stay skew-free with capacity == servers.
    assert_eq!(Topology::paper(5).capacity_skew(), 1.0);
    assert_eq!(Topology::paper(5).total_capacity(), 5.0);
}

#[test]
fn sharded_big_little_keeps_tiers_per_cluster() {
    let topo = Topology::sharded_big_little(2, 6, 0.34, 4.0, RouterPolicy::WeightedByCapacity);
    assert_eq!(topo.servers(), 6);
    assert!(topo.is_multi_cluster());
    // Each cluster of 3 has one 4x machine: weight 6 per cluster.
    assert_eq!(topo.total_capacity(), 12.0);
    assert_eq!(topo.capacity_skew(), 4.0);
    for c in topo.clusters() {
        assert!(c.validate().is_ok());
        assert_eq!(c.routing_weight(), 6.0);
    }
}

#[test]
#[should_panic(expected = "big_fraction must be in (0, 1]")]
fn big_little_rejects_bad_fraction() {
    let _ = Topology::big_little(10, 0.0, 2.0);
}

#[test]
#[should_panic(expected = "clusters must agree on resource dims")]
fn mixed_dims_multi_cluster_rejected() {
    let mut odd = ClusterConfig::paper(2);
    odd.resource_dims = 2;
    let _ = Topology::multi(
        "bad",
        vec![ClusterConfig::paper(2), odd],
        RouterPolicy::RoundRobin,
    );
}

#[test]
fn drift_cells_split_the_budget_and_rename_the_id() {
    let s = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper().with_total_jobs(1000),
        PolicySpec::drl_only(),
        7,
        None,
    )
    .with_drift(DriftSpec::rate_step(2.0));
    assert_eq!(s.id, "paper-m5/paper@rate-step-x2/drl-only/s7");
    assert_eq!(s.num_segments(), 2);
    assert!(s.online_learning());
    assert_eq!(s.segment_label(0), "stationary");
    assert_eq!(s.segment_label(1), "rate-x2");

    let specs = s.segment_trace_specs();
    assert_eq!(specs.len(), 2);
    assert_eq!(specs.iter().map(|t| t.jobs).sum::<usize>(), 1000);
    // Per-segment seeds derive from the trace seed; the shifted
    // segment runs at twice the base rate.
    assert_eq!(specs[0].workload.seed, mix_seed(s.trace_seed(), 0));
    assert_ne!(specs[0].workload.seed, specs[1].workload.seed);
    assert!(
        (specs[1].workload.arrivals.base_rate - 2.0 * specs[0].workload.arrivals.base_rate).abs()
            < 1e-12
    );

    // Non-drift cells keep the single-spec path and the old id.
    let plain = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper().with_total_jobs(1000),
        PolicySpec::drl_only(),
        7,
        None,
    );
    assert_eq!(plain.num_segments(), 1);
    assert_eq!(plain.segment_trace_specs(), vec![plain.trace_spec()]);
}

#[test]
fn frozen_ablation_flips_online_and_suffixes_the_name() {
    let online = DriftSpec::pattern_flip();
    let frozen = online.clone().with_frozen_learners();
    assert!(online.online);
    assert!(!frozen.online);
    assert_eq!(frozen.name, "pattern-flip-frozen");
    assert_eq!(frozen.shifts, online.shifts, "same segments either way");

    let s = Scenario::new(
        Topology::paper(4),
        WorkloadSpec::paper().with_total_jobs(400),
        PolicySpec::hierarchical(0.5),
        3,
        None,
    );
    let a = s.clone().with_drift(online);
    let b = s.with_drift(frozen);
    assert!(!b.online_learning());
    assert_ne!(a.id, b.id, "ablation cells need distinct ids");
    assert_eq!(
        a.segment_trace_specs(),
        b.segment_trace_specs(),
        "ablation pairs must evaluate identical segment traces"
    );
}

#[test]
fn shard_seeds_are_decorrelated_from_cell_streams() {
    let s = Scenario::new(
        Topology::sharded_paper(3, 9, RouterPolicy::LeastLoaded),
        WorkloadSpec::paper(),
        PolicySpec::hierarchical(0.5),
        7,
        None,
    );
    // Unit sub-seeds differ from each other and from the cell streams.
    let cell = |stream: SeedStream| stream.derive(s.seed);
    let mut seen = vec![
        cell(SeedStream::Trace),
        cell(SeedStream::Policy),
        cell(SeedStream::Dpm),
    ];
    for k in 0..3 {
        seen.push(s.topology.unit_seed(s.seed, k));
        seen.push(s.unit_seed(k, SeedStream::Policy));
        seen.push(s.unit_seed(k, SeedStream::Dpm));
    }
    let mut dedup = seen.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seen.len(), "derived seeds must not collide");
    assert_eq!(
        s.topology.unit_seed(s.seed, 1),
        mix_seed(s.seed, 0x101),
        "multi-cluster unit k seeds from mix(s, 0x100 + k)"
    );
}

#[test]
fn fault_cells_rename_the_id_and_derive_a_disjoint_seed() {
    let base = Scenario::new(
        Topology::paper(5),
        WorkloadSpec::paper(),
        PolicySpec::round_robin(),
        7,
        None,
    );
    let faulted = base.clone().with_fault(FaultSpec::crash_storm());
    assert_eq!(faulted.id, "paper-m5/paper%crash-storm/round-robin/s7");
    // The fault seed is its own stream, disjoint from every other.
    let seeds = [
        faulted.trace_seed(),
        faulted.policy_seed(),
        faulted.unit_seed(0, SeedStream::Dpm),
        faulted.unit_seed(0, SeedStream::Fault),
    ];
    let mut dedup = seeds.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seeds.len());
    // The single cluster's one unit lowers faults from the cell stream.
    assert_eq!(
        faulted.unit_seed(0, SeedStream::Fault),
        SeedStream::Fault.derive(faulted.seed)
    );
    // The fault axis changes nothing about the evaluation stream.
    assert_eq!(faulted.segment_trace_specs(), base.segment_trace_specs());

    // Drift and fault compose: `workload@drift%fault`.
    let both = base
        .with_drift(DriftSpec::rate_step(2.0))
        .with_fault(FaultSpec::straggler_wave());
    assert_eq!(
        both.id,
        "paper-m5/paper@rate-step-x2%straggler-wave/round-robin/s7"
    );
}

#[test]
fn fault_lowering_is_deterministic_and_span_scaled() {
    let spec = FaultSpec::crash_storm();
    let a = spec.lower(99, 10, 1000.0).unwrap();
    let b = spec.lower(99, 10, 1000.0).unwrap();
    assert_eq!(a, b, "lowering is a pure function of its inputs");
    assert_ne!(
        a,
        spec.lower(100, 10, 1000.0).unwrap(),
        "a different fault seed draws different servers"
    );
    // round(0.35 * 10) crashes, each paired with exactly one recover.
    let crashes: Vec<ServerId> = a
        .iter()
        .filter_map(|(_, op)| match op {
            FleetOp::Crash(sid) => Some(*sid),
            _ => None,
        })
        .collect();
    let recovers: Vec<ServerId> = a
        .iter()
        .filter_map(|(_, op)| match op {
            FleetOp::Recover(sid) => Some(*sid),
            _ => None,
        })
        .collect();
    assert_eq!(crashes.len(), 4);
    let mut unique = crashes.clone();
    unique.sort_unstable_by_key(|s| s.0);
    unique.dedup();
    assert_eq!(unique.len(), 4, "storm servers are distinct");
    let mut rec = recovers;
    rec.sort_unstable_by_key(|s| s.0);
    assert_eq!(rec, unique, "every crash pairs with one recover");
    // Events are time-sorted and scale with the span.
    assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    let doubled = spec.lower(99, 10, 2000.0).unwrap();
    assert!((doubled[0].0 - 2.0 * a[0].0).abs() < 1e-9);

    // A cap window scales every server and restores every server.
    let cap = FaultSpec::cap_window().lower(1, 3, 100.0).unwrap();
    assert_eq!(cap.len(), 6);
    assert!(cap[..3].iter().all(
        |(t, op)| *t == 30.0 && matches!(op, FleetOp::SetScale { scale, .. } if *scale == 0.6)
    ));
    assert!(cap[3..].iter().all(
        |(t, op)| *t == 60.0 && matches!(op, FleetOp::SetScale { scale, .. } if *scale == 1.0)
    ));
}

#[test]
#[should_panic(expected = "fault time must be in [0, 1], got -0.1")]
fn negative_fault_time_rejected() {
    let _ = FaultSpec::new(
        "bad",
        vec![FaultShape::Crash {
            server: 0,
            at: -0.1,
            outage: 0.2,
        }],
    );
}

#[test]
fn out_of_range_crash_server_rejected_at_lowering() {
    let spec = FaultSpec::new(
        "bad",
        vec![FaultShape::Crash {
            server: 9,
            at: 0.5,
            outage: 0.2,
        }],
    );
    assert_eq!(
        spec.lower(1, 4, 100.0),
        Err("fault shape 0 crashes server 9 out of 4 servers".to_string())
    );
}

#[test]
#[should_panic(expected = "cap windows 0 and 1 overlap")]
fn overlapping_cap_windows_rejected() {
    let _ = FaultSpec::new(
        "bad",
        vec![
            FaultShape::CapWindow {
                scale: 0.5,
                start: 0.2,
                duration: 0.3,
            },
            FaultShape::CapWindow {
                scale: 0.7,
                start: 0.4,
                duration: 0.2,
            },
        ],
    );
}

#[test]
#[should_panic(expected = "must be positive and finite")]
fn non_positive_outage_rejected() {
    let _ = FaultSpec::new(
        "bad",
        vec![FaultShape::Crash {
            server: 0,
            at: 0.5,
            outage: 0.0,
        }],
    );
}

#[test]
#[should_panic(expected = "fault spec needs >= 1 shape")]
fn empty_fault_spec_rejected() {
    let _ = FaultSpec::new("bad", Vec::new());
}

fn real_workload() -> WorkloadSpec {
    WorkloadSpec::real_trace("real-g", "some/trace.csv", TraceFormat::GoogleTaskEvents)
}

#[test]
fn real_workload_defaults_and_overrides() {
    let w = real_workload();
    assert!(w.is_real());
    assert_eq!(w.name(), "real-g");
    assert_eq!(w.demand_gate(), Some(DEFAULT_DEMAND_GATE));
    assert_eq!(w.segment_window_s(), SECS_PER_WEEK);
    assert_eq!(w.jobs_for(10), 0, "uncapped replay runs the whole file");
    assert_eq!(
        w.weekly_jobs_per_server(),
        PAPER_WEEKLY_JOBS_PER_SERVER,
        "pre-training stays at the paper's synthetic rate"
    );
    let w = w
        .with_total_jobs(500)
        .with_demand_gate(0.1)
        .with_segment_window(2.0 * SECS_PER_WEEK);
    assert_eq!(w.jobs_for(10), 500);
    assert_eq!(w.shard_jobs_for(5, 10), 250, "caps prorate by server share");
    assert_eq!(w.demand_gate(), Some(0.1));
    assert_eq!(w.segment_window_s(), 2.0 * SECS_PER_WEEK);
    let source = w.real_source().expect("real workload has a source");
    assert_eq!(source.label(), "google:some/trace.csv");
}

#[test]
#[should_panic(expected = "resolve it through real_source()")]
fn real_workload_has_no_generator_recipe() {
    let _ = real_workload().trace_spec(&Topology::paper(4), 1);
}

#[test]
#[should_panic(expected = "demand gating does not apply")]
fn synthetic_workload_rejects_demand_gate() {
    let _ = WorkloadSpec::paper().with_demand_gate(0.1);
}

#[test]
#[should_panic(expected = "DriftSpec::real_segments")]
fn real_workload_rejects_generator_drift() {
    let scenario = Scenario::new(
        Topology::paper(4),
        real_workload(),
        PolicySpec::round_robin(),
        1,
        None,
    );
    let _ = scenario.with_drift(DriftSpec::rate_step(2.0));
}

#[test]
fn real_segment_labels_follow_the_window() {
    let weekly = Scenario::new(
        Topology::paper(4),
        real_workload(),
        PolicySpec::round_robin(),
        1,
        None,
    )
    .with_drift(DriftSpec::real_segments());
    assert_eq!(weekly.segment_label(0), "week0");
    assert_eq!(weekly.segment_label(3), "week3");
    let daily = Scenario::new(
        Topology::paper(4),
        real_workload().with_segment_window(86_400.0),
        PolicySpec::round_robin(),
        1,
        None,
    )
    .with_drift(DriftSpec::real_segments());
    assert_eq!(daily.segment_label(2), "seg2");
    assert!(weekly.id.contains("@real-weeks/"));
}

#[test]
fn elastic_axis_joins_the_id_after_the_fault_component() {
    let s = Scenario::new(
        Topology::paper(4),
        WorkloadSpec::paper(),
        PolicySpec::round_robin(),
        7,
        None,
    )
    .with_fault(FaultSpec::cap_window())
    .with_elastic(ElasticSpec::Threshold);
    assert_eq!(s.id, "paper-m4/paper%cap-window~threshold/round-robin/s7");
    // The fixed-fleet twin differs only by the `~elastic` component —
    // the strip the autoscale-economics expectation relies on.
    assert_eq!(
        s.id.replace("~threshold", ""),
        "paper-m4/paper%cap-window/round-robin/s7"
    );
    // Stream 5 is disjoint from the other per-cell streams.
    let elastic_seed = s.unit_seed(0, SeedStream::Elastic);
    assert_eq!(elastic_seed, SeedStream::Elastic.derive(s.seed));
    assert_ne!(elastic_seed, s.unit_seed(0, SeedStream::Fault));
    assert_ne!(elastic_seed, s.trace_seed());
    let sharded = Scenario {
        topology: Topology::sharded_paper(2, 4, RouterPolicy::RoundRobin),
        ..s
    };
    assert_ne!(
        sharded.unit_seed(0, SeedStream::Elastic),
        sharded.unit_seed(1, SeedStream::Elastic)
    );
}

/// A saturating-then-quiet stream: heavy demand in the first half of
/// the span, nothing afterwards.
fn front_loaded_jobs(n: usize, span_s: f64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::new(
                JobId(i as u64),
                SimTime::from_secs(i as f64 * (span_s / 2.0) / n as f64),
                600.0,
                hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.9, 0.1, 0.01),
            )
        })
        .chain(std::iter::once(Job::new(
            JobId(n as u64),
            SimTime::from_secs(span_s),
            1.0,
            hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.01, 0.01, 0.01),
        )))
        .collect()
}

/// One job per 1,000 s epoch of a 12,000 s span, each offering `loads[e]`
/// times the capacity of four unit servers over its epoch.
fn epoch_load_jobs(loads: &[f64]) -> Vec<Job> {
    loads
        .iter()
        .enumerate()
        .map(|(e, &load)| {
            Job::new(
                JobId(e as u64),
                SimTime::from_secs(e as f64 * 1_000.0 + 1.0),
                load * 4.0 * 1_000.0 / 0.5,
                hierdrl_sim::resources::ResourceVec::cpu_mem_disk(0.5, 0.1, 0.01),
            )
        })
        .collect()
}

#[test]
fn threshold_lowering_scales_out_under_load_and_back_in_when_quiet() {
    let spec = ElasticSpec::Threshold;
    let jobs = front_loaded_jobs(200, 12_000.0);
    let schedule = spec.lower(99, 4, 3, &jobs, 12_000.0, 1.0);
    assert!(!schedule.events.is_empty(), "autoscaler never acted");
    let joins = schedule
        .events
        .iter()
        .filter(|(_, op)| matches!(op, FleetOp::Join(_)))
        .count();
    let leaves = schedule
        .events
        .iter()
        .filter(|(_, op)| matches!(op, FleetOp::Leave(_)))
        .count();
    assert!(joins >= 1, "heavy first half should trigger scale-out");
    assert!(leaves >= 1, "quiet second half should trigger scale-in");
    // The scheduled size stays inside the configured range.
    assert!(schedule
        .sizes
        .iter()
        .all(|&(_, n)| n >= spec.min_slots(4) && n <= spec.max_slots(4)));
    // Events arrive in time order, sizes start at the initial fleet.
    assert!(schedule.events.windows(2).all(|w| w[0].0 <= w[1].0));
    assert_eq!(schedule.sizes[0], (0.0, 4));
}

#[test]
fn elastic_lowering_is_deterministic_and_seed_sensitive() {
    let spec = ElasticSpec::Learned;
    let jobs = front_loaded_jobs(200, 12_000.0);
    let a = spec.lower(5, 4, 3, &jobs, 12_000.0, 1.0);
    let b = spec.lower(5, 4, 3, &jobs, 12_000.0, 1.0);
    assert_eq!(a, b, "same seed must reproduce the schedule");
    // An empty or zero-span segment lowers to a fixed fleet.
    let empty = spec.lower(5, 4, 3, &[], 12_000.0, 1.0);
    assert_eq!(empty, FleetSchedule::fixed(4));
}

#[test]
fn canonical_autoscalers_lower_their_pinned_schedules() {
    // The exact schedules both autoscalers lower on three streams. A step
    // in any one of their constants (epochs, fleet range, cooldown, water
    // marks, bins, exploration rate) alters at least one of them.
    let join = || FleetOp::Join(ServerSpec::unit(3, true));
    let leave = |k| FleetOp::Leave(ServerId(k));
    let lower = |spec: ElasticSpec, seed, jobs: &[Job]| spec.lower(seed, 4, 3, jobs, 12_000.0, 1.0);

    let front = front_loaded_jobs(200, 12_000.0);
    let threshold = lower(ElasticSpec::Threshold, 99, &front);
    assert_eq!(
        threshold.events,
        vec![
            (1_000.0, join()),
            (3_000.0, join()),
            (7_000.0, leave(5)),
            (9_000.0, leave(4)),
            (11_000.0, leave(3)),
        ]
    );
    assert_eq!(
        threshold.sizes,
        vec![
            (0.0, 4),
            (1_000.0, 5),
            (3_000.0, 6),
            (7_000.0, 5),
            (9_000.0, 4),
            (11_000.0, 3),
        ]
    );
    let learned = lower(ElasticSpec::Learned, 5, &front);
    assert_eq!(
        learned.events,
        vec![
            (1_000.0, leave(3)),
            (3_000.0, join()),
            (5_000.0, leave(3)),
            (7_000.0, leave(2)),
            (9_000.0, join()),
            (11_000.0, join()),
        ]
    );
    assert_eq!(
        learned.sizes,
        vec![
            (0.0, 4),
            (1_000.0, 3),
            (3_000.0, 4),
            (5_000.0, 3),
            (7_000.0, 2),
            (9_000.0, 3),
            (11_000.0, 4),
        ]
    );

    // Loads just past each water mark (0.76 of four servers scales out,
    // 0.29 of five scales in, 0.74 and 0.31 hold), up to the ceiling of
    // six; the learned rule's states here depend on its bin count.
    let edge = epoch_load_jobs(&[
        0.76, 1.0, 0.3625, 0.1, 0.74, 0.31, 1.9, 1.9, 1.5, 0.05, 0.05, 0.05,
    ]);
    let threshold = lower(ElasticSpec::Threshold, 99, &edge);
    assert_eq!(
        threshold.events,
        vec![
            (1_000.0, join()),
            (3_000.0, leave(4)),
            (7_000.0, join()),
            (9_000.0, join()),
            (11_000.0, leave(5)),
        ]
    );
    assert_eq!(
        threshold.sizes,
        vec![
            (0.0, 4),
            (1_000.0, 5),
            (3_000.0, 4),
            (7_000.0, 5),
            (9_000.0, 6),
            (11_000.0, 5),
        ]
    );
    assert_eq!(lower(ElasticSpec::Learned, 5, &edge), learned);
    let learned = lower(ElasticSpec::Learned, 25, &edge);
    assert_eq!(
        learned.events,
        vec![
            (1_000.0, join()),
            (3_000.0, leave(4)),
            (7_000.0, leave(3)),
            (9_000.0, join()),
        ]
    );
    assert_eq!(
        learned.sizes,
        vec![
            (0.0, 4),
            (1_000.0, 5),
            (3_000.0, 4),
            (7_000.0, 3),
            (9_000.0, 4),
        ]
    );

    // A quiet stream scales in to the floor of two and stays there.
    let quiet = lower(ElasticSpec::Threshold, 99, &epoch_load_jobs(&[0.05; 12]));
    assert_eq!(quiet.events, vec![(1_000.0, leave(3)), (3_000.0, leave(2))]);
    assert_eq!(quiet.sizes, vec![(0.0, 4), (1_000.0, 3), (3_000.0, 2)]);
}

#[test]
fn elastic_headroom_raises_max_servers() {
    let spec = ElasticSpec::Threshold;
    let grown = spec.cluster_with_headroom(&ClusterConfig::paper(4));
    assert_eq!(grown.effective_max(), 6);
    assert_eq!(grown.num_servers, 4);
}
