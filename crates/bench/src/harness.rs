//! Presentation helpers for the `hierdrl-bench` subcommands.
//!
//! All experiment *orchestration* (scales, grids, pre-training, execution)
//! lives in `hierdrl-exp`; this module only formats the resulting
//! [`ExperimentResult`]s into the paper's tables and figure series.

use hierdrl_core::runner::ExperimentResult;

/// Formats a row of the Table I-style summary.
pub fn summary_row(result: &ExperimentResult) -> String {
    format!(
        "| {:<22} | {:>12.2} | {:>14.2} | {:>10.2} | {:>12.1} | {:>8.3} | {:>6} |",
        result.name,
        result.energy_kwh(),
        result.latency_mega_s(),
        result.average_power_w(),
        result.mean_latency_s(),
        result.fleet.sleep_fraction,
        result.fleet.total_wake_transitions,
    )
}

/// Prints the Table I-style header.
pub fn print_summary_header() {
    println!(
        "| {:<22} | {:>12} | {:>14} | {:>10} | {:>12} | {:>8} | {:>6} |",
        "system", "energy (kWh)", "latency (1e6s)", "power (W)", "lat/job (s)", "sleep", "wakes"
    );
    println!(
        "|{:-<24}|{:-<14}|{:-<16}|{:-<12}|{:-<14}|{:-<10}|{:-<8}|",
        "", "", "", "", "", "", ""
    );
}

/// Percentage saving of `ours` relative to `baseline` (positive = ours is
/// lower/better).
pub fn pct_saving(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// Prints the accumulated-latency and energy-vs-jobs curves of Figs. 8/9 as
/// aligned CSV (one row per sample stride).
pub fn print_figure_series(results: &[&ExperimentResult]) {
    println!("\n# accumulated job latency (1e6 s) and energy (kWh) vs completed jobs");
    print!("jobs");
    for r in results {
        print!(",{}_latency_1e6s,{}_energy_kwh", r.name, r.name);
    }
    println!();
    let max_len = results.iter().map(|r| r.samples().len()).max().unwrap_or(0);
    for i in 0..max_len {
        let jobs = results
            .iter()
            .filter_map(|r| r.samples().get(i))
            .map(|s| s.jobs_completed)
            .next()
            .unwrap_or(0);
        print!("{jobs}");
        for r in results {
            match r.samples().get(i) {
                Some(s) => print!(
                    ",{:.3},{:.3}",
                    s.total_latency_s / 1e6,
                    s.energy_joules / 3.6e6
                ),
                None => print!(",,"),
            }
        }
        println!();
    }
}

/// Prints the Table I-style comparison plus the paper's headline
/// percentage-saving claims for a `[round-robin, drl-only, hierarchical]`
/// result triple.
pub fn print_comparison(results: [&ExperimentResult; 3]) {
    let [rr, drl, hier] = results;
    print_summary_header();
    for r in results {
        println!("{}", summary_row(r));
    }
    println!();
    println!(
        "hierarchical vs round-robin : {:+.2}% energy, {:+.2}% power, {:+.2}% latency",
        -pct_saving(rr.energy_kwh(), hier.energy_kwh()),
        -pct_saving(rr.average_power_w(), hier.average_power_w()),
        -pct_saving(rr.latency_mega_s(), hier.latency_mega_s()),
    );
    println!(
        "hierarchical vs drl-only    : {:+.2}% energy, {:+.2}% power, {:+.2}% latency",
        -pct_saving(drl.energy_kwh(), hier.energy_kwh()),
        -pct_saving(drl.average_power_w(), hier.average_power_w()),
        -pct_saving(drl.latency_mega_s(), hier.latency_mega_s()),
    );
    println!(
        "drl-only vs round-robin     : {:+.2}% energy, {:+.2}% power, {:+.2}% latency",
        -pct_saving(rr.energy_kwh(), drl.energy_kwh()),
        -pct_saving(rr.average_power_w(), drl.average_power_w()),
        -pct_saving(rr.latency_mega_s(), drl.latency_mega_s()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_saving_signs() {
        assert!((pct_saving(100.0, 50.0) - 50.0).abs() < 1e-12);
        assert!(pct_saving(100.0, 120.0) < 0.0);
        assert_eq!(pct_saving(0.0, 5.0), 0.0);
    }
}
