//! Model persistence: trained policies snapshot to JSON and restore with
//! identical behaviour.

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn small_trace(seed: u64, jobs: usize, m: usize) -> Trace {
    let config = WorkloadConfig::google_like(seed, 95_000.0 * m as f64 / 30.0);
    TraceGenerator::new(config).unwrap().generate_n(jobs)
}

fn quick_drl_config() -> DrlAllocatorConfig {
    DrlAllocatorConfig {
        warmup_decisions: 20,
        ae_pretrain_samples: 60,
        ae_epochs: 2,
        ..Default::default()
    }
}

#[test]
fn drl_snapshot_round_trips_through_json() {
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let mut allocator = DrlAllocator::new(m, 3, quick_drl_config());
    let segments = vec![small_trace(1, 200, m)];
    pretrain_drl(&mut allocator, &cluster, &segments).unwrap();

    let snapshot = allocator.snapshot();
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let restored_snapshot: DrlSnapshot = serde_json::from_str(&json).expect("deserializes");
    let mut restored = DrlAllocator::from_snapshot(restored_snapshot);

    // The restored learner carries the trained statistics and keeps working.
    assert_eq!(restored.stats().decisions, allocator.stats().decisions);
    assert_eq!(restored.stats().train_steps, allocator.stats().train_steps);
    assert!(restored.stats().autoencoder_trained);

    let eval = small_trace(9, 100, m);
    let result = Experiment::new("restored", &cluster, &eval)
        .run(
            &mut restored,
            &mut hierdrl::sim::policies::SleepImmediatelyPower,
        )
        .unwrap();
    assert_eq!(result.outcome.totals.jobs_completed, 100);
}

#[test]
fn frozen_restored_policies_act_identically() {
    // Two copies restored from the same snapshot, with learning and
    // exploration effects controlled, must produce identical runs.
    let m = 4;
    let cluster = ClusterConfig::paper(m);
    let mut allocator = DrlAllocator::new(m, 3, quick_drl_config());
    let segments = vec![small_trace(2, 150, m)];
    pretrain_drl(&mut allocator, &cluster, &segments).unwrap();
    let snapshot = allocator.snapshot();

    let run = |snap: DrlSnapshot| {
        let mut alloc = DrlAllocator::from_snapshot(snap);
        alloc.set_learning(false);
        let eval = small_trace(8, 120, m);
        let r = Experiment::new("frozen", &cluster, &eval)
            .run(
                &mut alloc,
                &mut hierdrl::sim::policies::SleepImmediatelyPower,
            )
            .unwrap();
        (
            r.outcome.totals.energy_joules,
            r.outcome.totals.total_latency_s,
        )
    };
    assert_eq!(run(snapshot.clone()), run(snapshot));
}

#[test]
fn dpm_snapshot_round_trips_through_json() {
    let m = 3;
    let cluster = ClusterConfig::paper(m);
    let mut dpm = RlPowerManager::new(m, RlPowerConfig::default());
    let trace = small_trace(3, 300, m);
    let mut cluster_sim = Cluster::new(cluster, trace.into_jobs()).unwrap();
    cluster_sim.run(&mut FirstFitAllocator, &mut dpm, RunLimit::unbounded());
    assert!(dpm.stats().updates > 0);

    let json = serde_json::to_string(&dpm.snapshot()).unwrap();
    let snapshot: DpmSnapshot = serde_json::from_str(&json).unwrap();
    let restored = RlPowerManager::from_snapshot(m, snapshot);
    assert_eq!(restored.stats().updates, dpm.stats().updates);
}

#[test]
#[should_panic(expected = "expected 5")]
fn dpm_snapshot_rejects_wrong_table_count() {
    let config = RlPowerConfig {
        shared_learning: false,
        ..Default::default()
    };
    let dpm = RlPowerManager::new(3, config);
    let snapshot = dpm.snapshot();
    // Restoring per-server tables onto a different cluster size must fail.
    let _ = RlPowerManager::from_snapshot(5, snapshot);
}
