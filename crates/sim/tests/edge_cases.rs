//! Edge-case and failure-injection tests for the cluster simulator.

use hierdrl_sim::prelude::*;

fn job(id: u64, t: f64, dur: f64, cpu: f64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(t),
        dur,
        ResourceVec::cpu_mem_disk(cpu, 0.05, 0.01),
    )
}

#[test]
fn empty_workload_is_a_valid_run() {
    let mut cluster = Cluster::new(ClusterConfig::paper(3), Vec::new()).unwrap();
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 0);
    assert_eq!(out.totals.energy_joules, 0.0); // no events, no elapsed time
}

#[test]
fn zero_transition_times_are_supported() {
    let mut config = ClusterConfig::paper(1);
    config.t_on = 0.0;
    config.t_off = 0.0;
    config.servers_initially_on = false;
    let mut cluster = Cluster::new(config, vec![job(0, 10.0, 60.0, 0.5)]).unwrap();
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut SleepImmediatelyPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 1);
    // Instant wake: no added latency.
    assert_eq!(cluster.completed_jobs()[0].latency(), 60.0);
}

#[test]
fn single_server_cluster_handles_full_size_jobs() {
    let jobs = vec![job(0, 0.0, 100.0, 1.0), job(1, 1.0, 100.0, 1.0)];
    let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs).unwrap();
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 2);
    // Serialized: second job waits for the first.
    assert_eq!(cluster.completed_jobs()[1].waiting_time(), 99.0);
}

#[test]
fn simultaneous_arrivals_are_processed_in_id_order() {
    let jobs: Vec<Job> = (0..5).map(|i| job(i, 100.0, 50.0, 0.1)).collect();
    let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs).unwrap();
    cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    // Round-robin: job i lands on server i (deterministic tie-break).
    for (i, s) in cluster.servers().iter().enumerate() {
        assert_eq!(s.stats().jobs_completed, 1, "server {i}");
    }
}

#[test]
fn jobs_arriving_at_time_zero_on_sleeping_cluster() {
    let mut config = ClusterConfig::paper(2);
    config.servers_initially_on = false;
    let jobs = vec![job(0, 0.0, 60.0, 0.3), job(1, 0.0, 60.0, 0.3)];
    let mut cluster = Cluster::new(config, jobs).unwrap();
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut FixedTimeoutPower::new(30.0),
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 2);
    for rec in cluster.completed_jobs() {
        assert_eq!(rec.latency(), 90.0); // 30 s wake + 60 s service
    }
}

#[test]
fn timeout_longer_than_remaining_workload_still_drains() {
    // A pending timeout event must not prevent run() from terminating.
    let jobs = vec![job(0, 0.0, 10.0, 0.2)];
    let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs).unwrap();
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut FixedTimeoutPower::new(100_000.0),
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 1);
    // The run ends at the timeout event (the last scheduled event).
    assert!(out.end_time.as_secs() >= 10.0);
}

#[test]
fn heavy_burst_to_one_server_preserves_all_jobs() {
    // 100 simultaneous jobs, one server: everything must still complete.
    struct ToZero;
    impl Allocator for ToZero {
        fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
            ServerId(0)
        }
    }
    let jobs: Vec<Job> = (0..100).map(|i| job(i, 0.0, 30.0, 0.2)).collect();
    let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs).unwrap();
    let out = cluster.run(&mut ToZero, &mut AlwaysOnPower, RunLimit::unbounded());
    assert_eq!(out.totals.jobs_completed, 100);
    assert_eq!(cluster.servers()[0].stats().jobs_completed, 100);
    assert_eq!(cluster.servers()[0].stats().max_jobs_in_system, 100);
}

#[test]
fn power_off_transition_blocks_start_until_wake_cycle() {
    // Job arrives exactly when the server begins sleeping: Fig. 4(a).
    let mut config = ClusterConfig::paper(1);
    config.servers_initially_on = false;
    let jobs = vec![job(0, 0.0, 10.0, 0.5), job(1, 45.0, 10.0, 0.5)];
    // Timeline: wake 0-30, job0 runs 30-40, sleep starts at 40 (ad hoc);
    // job1 arrives at 45 — during GoingToSleep.
    let mut cluster = Cluster::new(config, jobs).unwrap();
    cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut SleepImmediatelyPower,
        RunLimit::unbounded(),
    );
    let rec = &cluster.completed_jobs()[1];
    // Sleep completes 70, wake 70-100, run 100-110.
    assert_eq!(rec.finished.as_secs(), 110.0);
}

#[test]
fn cluster_rejects_dimension_mismatch() {
    let bad = Job::new(JobId(0), SimTime::ZERO, 10.0, ResourceVec::new(&[0.5, 0.5]));
    assert!(Cluster::new(ClusterConfig::paper(1), vec![bad]).is_err());
}

#[test]
fn invalid_configs_are_rejected() {
    let mut c = ClusterConfig::paper(2);
    c.t_on = f64::NAN;
    assert!(Cluster::new(c, Vec::new()).is_err());

    let mut c = ClusterConfig::paper(2);
    c.sample_every = 0;
    assert!(Cluster::new(c, Vec::new()).is_err());

    let mut c = ClusterConfig::paper(2);
    c.power.peak_watts = 1.0; // below idle
    assert!(Cluster::new(c, Vec::new()).is_err());
}

#[test]
fn overload_metric_reflects_anti_colocation() {
    // Stuff 12 tiny jobs onto one server: overload must become positive
    // once past the colocation cap (8 by default).
    struct ToZero;
    impl Allocator for ToZero {
        fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
            ServerId(0)
        }
    }
    let jobs: Vec<Job> = (0..12).map(|i| job(i, 0.0, 1_000.0, 0.01)).collect();
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    let out = cluster.run(&mut ToZero, &mut AlwaysOnPower, RunLimit::unbounded());
    assert!(
        out.totals.overload_integral > 0.0,
        "colocation beyond the cap must register as overload"
    );
}

#[test]
fn heterogeneous_capacities_change_packing() {
    // Server 0 has 2x capacity: a pair of 0.8-CPU jobs that would
    // serialize on a unit server run concurrently on the big one.
    let mut config = ClusterConfig::paper(2);
    config.server_capacities = Some(vec![
        ResourceVec::cpu_mem_disk(2.0, 2.0, 2.0),
        ResourceVec::ones(3),
    ]);
    struct ToZero;
    impl Allocator for ToZero {
        fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
            ServerId(0)
        }
    }
    let jobs = vec![job(0, 0.0, 100.0, 0.8), job(1, 0.0, 100.0, 0.8)];
    let mut cluster = Cluster::new(config, jobs).unwrap();
    cluster.run(&mut ToZero, &mut AlwaysOnPower, RunLimit::unbounded());
    // Both finish at t = 100: no serialization on the double-size server.
    for rec in cluster.completed_jobs() {
        assert_eq!(rec.finished.as_secs(), 100.0);
        assert_eq!(rec.waiting_time(), 0.0);
    }
}

/// Pins every job to server 0 — combined with the healthy-pool remap, a
/// crash of server 0 exercises the requeue-through-allocator path.
struct PinToZero;
impl Allocator for PinToZero {
    fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
        ServerId(0)
    }
}

#[test]
fn crash_requeues_running_and_queued_jobs_exactly_once() {
    // Four 0.8-CPU jobs pinned to server 0: one runs, three queue. The
    // crash at t = 50 drains all four; each must be re-placed exactly once
    // (no loss, no duplication) and restart from scratch on server 1.
    let jobs: Vec<Job> = (0..4).map(|i| job(i, 0.0, 100.0, 0.8)).collect();
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(50.0), FleetOp::Crash(ServerId(0)));
    let out = cluster.run(&mut PinToZero, &mut AlwaysOnPower, RunLimit::unbounded());

    assert_eq!(
        out.totals.jobs_arrived, 4,
        "requeues must not inflate arrivals"
    );
    assert_eq!(out.totals.jobs_requeued, 4);
    assert_eq!(out.totals.jobs_completed, 4);
    let recs = cluster.completed_jobs();
    let mut ids: Vec<u64> = recs.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3], "each job completes exactly once");
    for rec in recs {
        assert_eq!(
            rec.server,
            ServerId(1),
            "crashed server ran nothing to completion"
        );
    }
    // The running job lost 50 s of work: it restarts at 50 and serializes
    // with the other three on server 1 (0.8 CPU each), finishing at 150,
    // 250, 350, 450.
    let mut finishes: Vec<f64> = recs.iter().map(|r| r.finished.as_secs()).collect();
    finishes.sort_by(f64::total_cmp);
    assert_eq!(finishes, vec![150.0, 250.0, 350.0, 450.0]);
    assert_eq!(cluster.servers()[0].stats().jobs_completed, 0);
    assert_eq!(cluster.servers()[1].stats().jobs_completed, 4);
}

#[test]
fn crash_mid_wake_then_recover_does_not_double_count_transition_energy() {
    // Server 0 begins waking at t = 0 for the pinned job, crashes at t = 10
    // (mid-transition), and recovers at t = 20. The abandoned transition
    // must charge exactly the 10 s actually spent in it, and the stale
    // WakeComplete at t = 30 must not flip the (asleep, recovered) server
    // on or add transition energy.
    let mut config = ClusterConfig::paper(2);
    config.servers_initially_on = false;
    let jobs = vec![job(0, 0.0, 40.0, 0.5)];
    let mut cluster = Cluster::new(config, jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(10.0), FleetOp::Crash(ServerId(0)));
    cluster.schedule_fleet_op(SimTime::from_secs(20.0), FleetOp::Recover(ServerId(0)));
    let out = cluster.run(&mut PinToZero, &mut AlwaysOnPower, RunLimit::unbounded());

    // The job re-placed onto server 1 at t = 10: wake 10..40, run 40..80.
    assert_eq!(out.totals.jobs_completed, 1);
    assert_eq!(cluster.completed_jobs()[0].server, ServerId(1));
    assert_eq!(cluster.completed_jobs()[0].finished.as_secs(), 80.0);

    let s0 = cluster.servers()[0].stats();
    assert_eq!(s0.wake_transitions, 1, "the abandoned wake counts once");
    assert_eq!(
        s0.transition_seconds, 10.0,
        "only the 10 s actually in transition"
    );
    assert!(
        (s0.energy_joules - 145.0 * 10.0).abs() < 1e-6,
        "10 s of transition power, nothing more, got {}",
        s0.energy_joules
    );
    assert!(matches!(
        cluster.servers()[0].state(),
        MachineState::Sleeping
    ));
    assert!(cluster.servers()[0].is_healthy());
    // Fleet energy still equals the sum of per-server energies.
    let sum: f64 = cluster
        .servers()
        .iter()
        .map(|s| s.stats().energy_joules)
        .sum();
    assert!((out.totals.energy_joules - sum).abs() < 1e-6);
}

#[test]
#[should_panic(expected = "last healthy server")]
fn crash_of_last_healthy_server_is_rejected() {
    let jobs = vec![job(0, 0.0, 200.0, 0.2)];
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(10.0), FleetOp::Crash(ServerId(0)));
    cluster.schedule_fleet_op(SimTime::from_secs(20.0), FleetOp::Crash(ServerId(1)));
    cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
}

#[test]
fn degraded_capacity_gates_new_starts_and_registers_overload() {
    // A 0.6-CPU job is running when the cap window shrinks the server to
    // 50%: the running job is not killed (utilization rises past 1, the
    // overload integral sees the hot spot), but the queued 0.6-CPU job
    // cannot start until the cap lifts.
    let jobs = vec![job(0, 0.0, 100.0, 0.6), job(1, 10.0, 100.0, 0.6)];
    let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs).unwrap();
    cluster.schedule_fleet_op(
        SimTime::from_secs(5.0),
        FleetOp::SetScale {
            server: ServerId(0),
            scale: 0.5,
        },
    );
    cluster.schedule_fleet_op(
        SimTime::from_secs(150.0),
        FleetOp::SetScale {
            server: ServerId(0),
            scale: 1.0,
        },
    );
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 2);
    let recs = cluster.completed_jobs();
    assert_eq!(
        recs[0].finished.as_secs(),
        100.0,
        "running job survives the cap"
    );
    // Job 1 queued from t = 10; at t = 100 the head would fit nominally,
    // but capacity is still 0.5 < 0.6 — it starts only when the cap lifts
    // at t = 150.
    assert_eq!(recs[1].started.as_secs(), 150.0);
    assert_eq!(recs[1].finished.as_secs(), 250.0);
    assert!(
        out.totals.overload_integral > 0.0,
        "running past the shrunk capacity must register as overload"
    );
}

#[test]
fn heterogeneous_capacity_validation() {
    // Wrong count.
    let mut c = ClusterConfig::paper(3);
    c.server_capacities = Some(vec![ResourceVec::ones(3); 2]);
    assert!(c.validate().is_err());

    // Wrong dimensionality.
    let mut c = ClusterConfig::paper(2);
    c.server_capacities = Some(vec![ResourceVec::new(&[1.0]); 2]);
    assert!(c.validate().is_err());

    // Valid heterogeneous setup.
    let mut c = ClusterConfig::paper(2);
    c.server_capacities = Some(vec![
        ResourceVec::cpu_mem_disk(2.0, 1.0, 1.0),
        ResourceVec::ones(3),
    ]);
    assert!(c.validate().is_ok());
}

/// Pins every job to server 1 — after a `Leave(1)` the healthy-pool remap
/// must redirect both requeues and fresh arrivals, and after a `Join` that
/// reuses the slot the pin must land on the rejoined machine again.
struct PinToOne;
impl Allocator for PinToOne {
    fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
        ServerId(1)
    }
}

#[test]
fn join_leave_conserves_jobs() {
    // Four 0.8-CPU jobs pinned to server 1: one runs, three queue. The
    // leave at t = 50 drains all four exactly once onto server 0 (the
    // cyclic healthy remap), where they serialize: 150, 250, 350, 450.
    // A join at t = 300 reuses the departed slot; job 4 (arriving t = 320)
    // then runs on the rejoined server 1 with no queueing: 320..420.
    let mut jobs: Vec<Job> = (0..4).map(|i| job(i, 0.0, 100.0, 0.8)).collect();
    jobs.push(job(4, 320.0, 100.0, 0.8));
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(50.0), FleetOp::Leave(ServerId(1)));
    cluster.schedule_fleet_op(
        SimTime::from_secs(300.0),
        FleetOp::Join(ServerSpec::unit(3, true)),
    );
    let out = cluster.run(&mut PinToOne, &mut AlwaysOnPower, RunLimit::unbounded());

    assert_eq!(
        out.totals.jobs_arrived, 5,
        "requeues must not inflate arrivals"
    );
    assert_eq!(
        out.totals.jobs_requeued, 4,
        "each drained job requeued exactly once"
    );
    assert_eq!(
        out.totals.jobs_completed, 5,
        "no job lost across leave + join"
    );
    let recs = cluster.completed_jobs();
    let mut ids: Vec<u64> = recs.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4], "each job completes exactly once");
    let mut finishes: Vec<f64> = recs.iter().map(|r| r.finished.as_secs()).collect();
    finishes.sort_by(f64::total_cmp);
    assert_eq!(finishes, vec![150.0, 250.0, 350.0, 420.0, 450.0]);
    let late = recs.iter().find(|r| r.id.0 == 4).unwrap();
    assert_eq!(
        late.server,
        ServerId(1),
        "post-join arrival lands on the rejoined slot"
    );
    assert_eq!(
        cluster.num_live(),
        2,
        "join restored the fleet to two live servers"
    );
    assert_eq!(cluster.fleet_ops_ignored(), 0);
}

#[test]
fn departed_slot_draws_no_power_and_keeps_ids_stable() {
    // Server 1 leaves at t = 100 of a 400 s always-on run. The departed
    // slot must stop drawing power at the instant of departure while its
    // ServerId (and slot count) remain stable for control-plane indexing.
    let jobs = vec![job(0, 0.0, 400.0, 0.2)]; // keeps server 0 busy to t=400
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(100.0), FleetOp::Leave(ServerId(1)));
    let out = cluster.run(&mut PinToZero, &mut AlwaysOnPower, RunLimit::unbounded());
    assert_eq!(out.totals.jobs_completed, 1);
    assert_eq!(
        cluster.servers().len(),
        2,
        "slots are masked, never removed"
    );
    assert_eq!(cluster.num_live(), 1);
    let s1 = cluster.servers()[1].stats();
    // 100 s idle-on before the leave, nothing after: P(0) = 87 W.
    assert!(
        (s1.energy_joules - 87.0 * 100.0).abs() < 1e-6,
        "departed slot must draw zero power, got {} J",
        s1.energy_joules
    );
}

#[test]
fn unknown_fleet_targets_are_counted_no_ops() {
    // Satellite: FleetOp::Recover / SetScale (and friends) aimed at an
    // unknown ServerId are documented no-ops — the run is unaffected and
    // each ignored op increments `fleet_ops_ignored`.
    let jobs = vec![job(0, 0.0, 100.0, 0.5)];
    let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
    cluster.schedule_fleet_op(SimTime::from_secs(10.0), FleetOp::Recover(ServerId(5)));
    cluster.schedule_fleet_op(
        SimTime::from_secs(20.0),
        FleetOp::SetScale {
            server: ServerId(7),
            scale: 0.5,
        },
    );
    cluster.schedule_fleet_op(SimTime::from_secs(30.0), FleetOp::Crash(ServerId(3)));
    cluster.schedule_fleet_op(SimTime::from_secs(40.0), FleetOp::Leave(ServerId(4)));
    // Inapplicable state: recovering a server that never crashed.
    cluster.schedule_fleet_op(SimTime::from_secs(50.0), FleetOp::Recover(ServerId(0)));
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 1);
    assert_eq!(
        out.totals.jobs_requeued, 0,
        "no-ops must not disturb placement"
    );
    assert_eq!(cluster.completed_jobs()[0].finished.as_secs(), 100.0);
    assert_eq!(cluster.fleet_ops_ignored(), 5);
}

#[test]
fn join_respects_max_servers_and_spec_validation() {
    // Without `max_servers` the fleet is pinned at its starting width:
    // an append-style join is a counted no-op. With headroom, invalid
    // capacities (wrong dims, non-positive) are rejected the same way
    // while a valid join lands on the next fresh slot.
    let mut config = ClusterConfig::paper(1);
    config.max_servers = Some(2);
    let jobs = vec![job(0, 0.0, 200.0, 0.2)];
    let mut cluster = Cluster::new(config, jobs).unwrap();
    // Wrong dimensionality and non-positive capacity: ignored.
    cluster.schedule_fleet_op(
        SimTime::from_secs(10.0),
        FleetOp::Join(ServerSpec::unit(2, true)),
    );
    cluster.schedule_fleet_op(
        SimTime::from_secs(20.0),
        FleetOp::Join(ServerSpec {
            capacity: ResourceVec::new(&[0.0, 1.0, 1.0]),
            initially_on: true,
        }),
    );
    // Valid: appends slot 1. A second valid join exceeds max_servers.
    cluster.schedule_fleet_op(
        SimTime::from_secs(30.0),
        FleetOp::Join(ServerSpec::unit(3, true)),
    );
    cluster.schedule_fleet_op(
        SimTime::from_secs(40.0),
        FleetOp::Join(ServerSpec::unit(3, true)),
    );
    let out = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut AlwaysOnPower,
        RunLimit::unbounded(),
    );
    assert_eq!(out.totals.jobs_completed, 1);
    assert_eq!(cluster.servers().len(), 2);
    assert_eq!(cluster.num_live(), 2);
    assert_eq!(cluster.fleet_ops_ignored(), 3);
    // The mid-run join must not retroactively integrate the pre-join
    // interval: slot 1 was on for 170 s (t = 30..200) at idle.
    let s1 = cluster.servers()[1].stats();
    assert!(
        (s1.energy_joules - 87.0 * 170.0).abs() < 1e-6,
        "joined server accounts energy only from its join, got {} J",
        s1.energy_joules
    );
}
