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
        let pair = PolicyPair {
            name: format!("fixed timeout {timeout}s"),
            allocator: AllocatorKind::FirstFit,
            power: PowerKind::FixedTimeout(timeout),
        };
        let r = Experiment::new(&pair.name, &cluster, &trace).run_pair(&pair)?;
        println!(
            "{:<24} {:>14.1} {:>14.1}",
            r.name,
            r.energy_per_job_j() / 1e3,
            r.mean_latency_s()
        );
    }

    // The RL power manager across the weight sweep.
    for w in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let pair = PolicyPair {
            name: format!("rl-dpm w={w}"),
            allocator: AllocatorKind::FirstFit,
            power: PowerKind::Rl(RlPowerConfig {
                weight: w,
                ..Default::default()
            }),
        };
        let r = Experiment::new(&pair.name, &cluster, &trace).run_pair(&pair)?;
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
