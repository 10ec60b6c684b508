//! `perf_gate`: the CI performance-regression gate over two bench
//! artifacts (`BENCH_suite.json`-shaped [`BenchReport`]s).
//!
//! Diffs a fresh artifact against the committed baseline, cell by cell
//! (matched on scenario id), prints a per-cell comparison table, and
//! fails (exit 1) if:
//!
//! - any matched cell's `jobs_per_s` regressed by more than the allowed
//!   percentage;
//! - any baseline cell is **missing** from the fresh artifact (a silently
//!   shrunken grid would otherwise pass the gate while measuring less);
//! - any cell in either artifact carries a **non-finite** metric (NaN
//!   compares false against every threshold, so an unguarded NaN would
//!   sail through the regression check);
//! - any matched cell whose baseline carries a `peak_rss_bytes` reading
//!   (the sequential raw-scale cells of `scale`) grew its peak RSS by more
//!   than the allowed percentage — or lost the reading entirely (a fresh
//!   run that stopped measuring memory must not pass the memory gate).
//!
//! It refuses to compare (exit 2) artifacts measured with different
//! `threads` counts, whose per-cell timings are not comparable, and
//! artifacts with no cell id in common.
//!
//! ```sh
//! cargo run --release -p hierdrl-bench -- perf_gate \
//!     --baseline BENCH_suite.json --fresh /tmp/BENCH_suite.json \
//!     --max-regression-pct 40
//! ```
//!
//! Cells present only in the *fresh* artifact are reported as `new` and
//! never fail the gate (additions are reviewed through the baseline diff
//! itself). To refresh the committed baseline after an intentional change,
//! re-run its recipe (see `crates/exp/README.md`, "Performance & CI gate")
//! and commit the new file.

use crate::read_report;
use hierdrl_exp::report::BenchReport;
use std::process::ExitCode;

struct GateArgs {
    baseline: String,
    fresh: String,
    max_regression_pct: f64,
}

impl GateArgs {
    fn parse(args: Vec<String>) -> Result<Self, String> {
        let mut out = GateArgs {
            baseline: "BENCH_suite.json".to_string(),
            fresh: "/tmp/BENCH_suite.json".to_string(),
            max_regression_pct: 40.0,
        };
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--baseline" => out.baseline = value()?,
                "--fresh" => out.fresh = value()?,
                "--max-regression-pct" => {
                    let pct = value()?;
                    out.max_regression_pct = pct
                        .parse()
                        .map_err(|_| format!("{flag} expects a number, got {pct:?}"))?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(out.max_regression_pct > 0.0 && out.max_regression_pct < 100.0) {
            return Err(format!(
                "--max-regression-pct must be in (0, 100), got {}",
                out.max_regression_pct
            ));
        }
        Ok(out)
    }
}

/// Gates the fresh artifact `argv` names against its baseline.
pub fn run(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = GateArgs::parse(argv)?;
    let baseline = read_report(&args.baseline)?;
    let fresh = read_report(&args.fresh)?;
    if baseline.threads != fresh.threads {
        return Err(format!(
            "{} was measured on {} thread(s) but {} on {}; regenerate the fresh artifact with --threads {}",
            args.baseline, baseline.threads, args.fresh, fresh.threads, baseline.threads
        ));
    }
    if !baseline
        .cells
        .iter()
        .any(|b| fresh.cells.iter().any(|f| f.id == b.id))
    {
        return Err(format!(
            "no cell ids in common between {} and {}; wrong artifacts?",
            args.baseline, args.fresh
        ));
    }
    Ok(gate(&args, &baseline, &fresh))
}

fn gate(args: &GateArgs, baseline: &BenchReport, fresh: &BenchReport) -> ExitCode {
    let floor = 1.0 - args.max_regression_pct / 100.0;

    println!(
        "perf gate: fresh {} vs baseline {} (fail below {:.0}% of baseline jobs/s)",
        args.fresh,
        args.baseline,
        floor * 100.0
    );
    println!(
        "| {:<42} | {:>16} | {:>16} | {:>8} | {:<8} |",
        "cell", "baseline jobs/s", "fresh jobs/s", "ratio", "verdict"
    );
    println!(
        "|{:-<44}|{:-<18}|{:-<18}|{:-<10}|{:-<10}|",
        "", "", "", "", ""
    );

    let mut failures = 0usize;
    let mut matched = 0usize;
    let mut missing = 0usize;
    let mut non_finite = 0usize;
    for base_cell in &baseline.cells {
        let Some(fresh_cell) = fresh.cells.iter().find(|c| c.id == base_cell.id) else {
            missing += 1;
            println!(
                "| {:<42} | {:>16.0} | {:>16} | {:>8} | {:<8} |",
                base_cell.id, base_cell.jobs_per_s, "-", "-", "MISSING"
            );
            continue;
        };
        matched += 1;
        // Non-finite throughput in either artifact is a broken
        // measurement, not a regression: any comparison against it is
        // vacuous (NaN < floor is false), so fail it explicitly.
        if !(base_cell.jobs_per_s.is_finite()
            && fresh_cell.jobs_per_s.is_finite()
            && base_cell.wall_s.is_finite()
            && fresh_cell.wall_s.is_finite())
        {
            non_finite += 1;
            println!(
                "| {:<42} | {:>16} | {:>16} | {:>8} | {:<8} |",
                base_cell.id, base_cell.jobs_per_s, fresh_cell.jobs_per_s, "-", "NON-FIN"
            );
            continue;
        }
        let ratio = if base_cell.jobs_per_s > 0.0 {
            fresh_cell.jobs_per_s / base_cell.jobs_per_s
        } else {
            1.0
        };
        let verdict = if ratio < floor {
            failures += 1;
            "FAIL"
        } else if ratio >= 1.0 {
            "faster"
        } else {
            "ok"
        };
        println!(
            "| {:<42} | {:>16.0} | {:>16.0} | {:>7.2}x | {:<8} |",
            base_cell.id, base_cell.jobs_per_s, fresh_cell.jobs_per_s, ratio, verdict
        );
    }
    for fresh_cell in &fresh.cells {
        if !baseline.cells.iter().any(|c| c.id == fresh_cell.id) {
            if !(fresh_cell.jobs_per_s.is_finite() && fresh_cell.wall_s.is_finite()) {
                non_finite += 1;
                println!(
                    "| {:<42} | {:>16} | {:>16} | {:>8} | {:<8} |",
                    fresh_cell.id, "-", fresh_cell.jobs_per_s, "-", "NON-FIN"
                );
                continue;
            }
            println!(
                "| {:<42} | {:>16} | {:>16.0} | {:>8} | {:<8} |",
                fresh_cell.id, "-", fresh_cell.jobs_per_s, "-", "new"
            );
        }
    }

    // Memory gate: baseline cells carrying a peak-RSS reading (the
    // sequential raw-scale cells) must keep reporting one, within budget.
    // The ceiling mirrors the throughput floor: at 40% allowed regression,
    // fresh RSS may grow to at most 1.4x the baseline.
    let mut rss_failures = 0usize;
    let mut rss_matched = 0usize;
    let ceiling = 1.0 + args.max_regression_pct / 100.0;
    let rss_pairs: Vec<(&str, u64, Option<u64>)> = baseline
        .cells
        .iter()
        .filter_map(|b| {
            let base_rss = b.peak_rss_bytes?;
            let fresh_cell = fresh.cells.iter().find(|c| c.id == b.id)?;
            Some((b.id.as_str(), base_rss, fresh_cell.peak_rss_bytes))
        })
        .collect();
    if !rss_pairs.is_empty() {
        println!(
            "\nmemory gate (fail above {:.0}% of baseline peak RSS):",
            ceiling * 100.0
        );
        println!(
            "| {:<42} | {:>14} | {:>14} | {:>8} | {:<8} |",
            "cell", "baseline MiB", "fresh MiB", "ratio", "verdict"
        );
        println!(
            "|{:-<44}|{:-<16}|{:-<16}|{:-<10}|{:-<10}|",
            "", "", "", "", ""
        );
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        for (id, base_rss, fresh_rss) in rss_pairs {
            rss_matched += 1;
            let Some(fresh_rss) = fresh_rss else {
                rss_failures += 1;
                println!(
                    "| {:<42} | {:>14.0} | {:>14} | {:>8} | {:<8} |",
                    id,
                    mib(base_rss),
                    "-",
                    "-",
                    "NO-RSS"
                );
                continue;
            };
            let ratio = fresh_rss as f64 / base_rss.max(1) as f64;
            let verdict = if ratio > ceiling {
                rss_failures += 1;
                "FAIL"
            } else if ratio <= 1.0 {
                "leaner"
            } else {
                "ok"
            };
            println!(
                "| {:<42} | {:>14.0} | {:>14.0} | {:>7.2}x | {:<8} |",
                id,
                mib(base_rss),
                mib(fresh_rss),
                ratio,
                verdict
            );
        }
    }

    let mut verdicts: Vec<String> = Vec::new();
    if failures > 0 {
        verdicts.push(format!(
            "{failures}/{matched} matched cells regressed more than {:.0}%",
            args.max_regression_pct
        ));
    }
    if missing > 0 {
        verdicts.push(format!(
            "{missing} baseline cell(s) missing from the fresh artifact"
        ));
    }
    if non_finite > 0 {
        verdicts.push(format!("{non_finite} cell(s) with non-finite metrics"));
    }
    if rss_failures > 0 {
        verdicts.push(format!(
            "{rss_failures}/{rss_matched} memory-gated cell(s) regressed peak RSS more than {:.0}% (or lost the reading)",
            args.max_regression_pct
        ));
    }
    if verdicts.is_empty() {
        println!("\nperf gate passed: {matched} matched cells within budget");
        ExitCode::SUCCESS
    } else {
        println!("\nperf gate FAILED: {}", verdicts.join("; "));
        ExitCode::FAILURE
    }
}
