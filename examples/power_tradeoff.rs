//! Power/latency trade-off exploration (the Fig. 10 experiment in miniature):
//! sweeps the local tier's reward weight `w` (Eqn. 5) and compares the
//! resulting operating points against fixed-timeout baselines.
//!
//! ```sh
//! cargo run --release --example power_tradeoff
//! ```

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn main() -> Result<(), String> {
    let m = 8;
    let cluster = ClusterConfig::paper(m);
    let workload = WorkloadConfig::google_like(11, 95_000.0 * m as f64 / 30.0);
    let trace = TraceGenerator::new(workload)?.generate(2.0 * SECS_PER_DAY);
    println!("workload: {} jobs on {m} servers\n", trace.len());

    println!(
        "{:<24} {:>14} {:>14}",
        "local tier", "energy/job kJ", "latency/job s"
    );

    // Fixed-timeout baselines (paper: 30 / 60 / 90 s).
    for timeout in [30.0, 60.0, 90.0] {
        let name = format!("fixed timeout {timeout}s");
        let r = Experiment::new(&name, &cluster, &trace)
            .run(&mut FirstFitAllocator, &mut FixedTimeoutPower::new(timeout))?;
        println!(
            "{:<24} {:>14.1} {:>14.1}",
            r.name,
            r.energy_per_job_j() / 1e3,
            r.mean_latency_s()
        );
    }

    // The RL power manager across the weight sweep.
    for w in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let name = format!("rl-dpm w={w}");
        let mut power = RlPowerManager::for_cluster(
            &cluster,
            RlPowerConfig {
                weight: w,
                ..Default::default()
            },
        );
        let r = Experiment::new(&name, &cluster, &trace).run(&mut FirstFitAllocator, &mut power)?;
        println!(
            "{:<24} {:>14.1} {:>14.1}",
            r.name,
            r.energy_per_job_j() / 1e3,
            r.mean_latency_s()
        );
    }

    println!("\nLarger w favors power saving; smaller w favors latency.");
    println!("The full Fig. 10 reproduction lives in `cargo run -p hierdrl-bench -- fig10`.");
    Ok(())
}
