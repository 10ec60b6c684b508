//! Offline pre-training and model persistence: train the two tiers on
//! workload segments (Section VII-A's offline phase), snapshot them to
//! JSON, and evaluate the restored policies on a fresh trace.
//!
//! ```sh
//! cargo run --release --example pretrain_and_save
//! ```

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn main() -> Result<(), String> {
    let m = 8;
    let cluster = ClusterConfig::paper(m);
    let jobs_per_week = 95_000.0 * m as f64 / 30.0;

    // --- Offline phase: pre-train on five workload segments. ---
    let segments: Vec<Trace> = (0..5)
        .map(|i| {
            TraceGenerator::new(WorkloadConfig::google_like(100 + i, jobs_per_week))
                .expect("valid workload")
                .generate_n(1_500)
        })
        .collect();

    let mut allocator = DrlAllocator::new(m, 3, DrlAllocatorConfig::default());
    let mut dpm = RlPowerManager::for_cluster(&cluster, RlPowerConfig::default());
    pretrain_pair(&mut allocator, &mut dpm, &cluster, &segments)?;
    println!(
        "pre-trained: {} decisions, {} DNN updates, {} local updates",
        allocator.stats().decisions,
        allocator.stats().train_steps,
        dpm.stats().updates
    );

    // --- Persist both tiers. ---
    let drl_json = serde_json::to_string(&allocator.snapshot()).map_err(|e| e.to_string())?;
    let dpm_json = serde_json::to_string(&dpm.snapshot()).map_err(|e| e.to_string())?;
    println!(
        "snapshot sizes: global {:.1} KiB, local {:.1} KiB",
        drl_json.len() as f64 / 1024.0,
        dpm_json.len() as f64 / 1024.0
    );

    // --- Restore and evaluate on an unseen trace. ---
    let drl_snapshot: DrlSnapshot = serde_json::from_str(&drl_json).map_err(|e| e.to_string())?;
    let dpm_snapshot: DpmSnapshot = serde_json::from_str(&dpm_json).map_err(|e| e.to_string())?;
    let mut restored_drl = DrlAllocator::from_snapshot(drl_snapshot);
    let mut restored_dpm = RlPowerManager::from_snapshot_for_cluster(&cluster, dpm_snapshot);

    let eval =
        TraceGenerator::new(WorkloadConfig::google_like(999, jobs_per_week))?.generate_n(2_000);
    let result = Experiment::new("restored hierarchical", &cluster, &eval)
        .run(&mut restored_drl, &mut restored_dpm)?;
    println!(
        "restored policy: {:.2} kWh, {:.0} s/job, sleep fraction {:.2}",
        result.energy_kwh(),
        result.mean_latency_s(),
        result.fleet.sleep_fraction
    );
    Ok(())
}
