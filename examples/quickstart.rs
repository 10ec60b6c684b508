//! Quickstart: simulate a small cluster under the paper's three systems and
//! print a summary comparison.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hierdrl::core::prelude::*;
use hierdrl::sim::prelude::*;
use hierdrl::trace::prelude::*;

fn main() -> Result<(), String> {
    // A 8-server cluster with the paper's power model (87 W idle, 145 W
    // peak, 30 s sleep/wake transitions).
    let cluster = ClusterConfig::paper(8);

    // One day of a Google-like workload, scaled to the cluster size.
    let workload = WorkloadConfig::google_like(42, 95_000.0 * 8.0 / 30.0);
    let trace = TraceGenerator::new(workload)?.generate(SECS_PER_DAY);
    let stats = trace.stats().expect("non-empty trace");
    println!(
        "workload: {} jobs over {:.1} h (mean duration {:.0} s, offered CPU load {:.0}%)\n",
        stats.count,
        stats.span_s / 3600.0,
        stats.mean_duration_s,
        stats.offered_cpu_load(8) * 100.0
    );

    // The three systems of the paper's evaluation, each one global-tier
    // kind and one local-tier kind.
    let systems = [
        (
            "round-robin",
            AllocatorKind::RoundRobin,
            PowerKind::AlwaysOn,
        ),
        (
            "drl-only",
            AllocatorKind::Drl(Box::default()),
            PowerKind::SleepImmediately,
        ),
        (
            "hierarchical",
            AllocatorKind::Drl(Box::default()),
            PowerKind::Rl(RlPowerConfig::default()),
        ),
    ];

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "system", "energy kWh", "lat/job s", "avg power W", "sleep %"
    );
    for (name, allocator, power) in &systems {
        let mut allocator = allocator.build(cluster.effective_max(), cluster.resource_dims);
        let mut power = power.build(&cluster);
        let result =
            Experiment::new(name, &cluster, &trace).run(allocator.as_mut(), power.as_mut())?;
        println!(
            "{:<14} {:>12.2} {:>12.1} {:>12.1} {:>10.1}",
            result.name,
            result.energy_kwh(),
            result.mean_latency_s(),
            result.average_power_w(),
            result.fleet.sleep_fraction * 100.0,
        );
    }
    println!("\nNote: learners here train online from scratch; the bench");
    println!("binaries (crates/bench) pre-train offline first, like the paper.");
    Ok(())
}
