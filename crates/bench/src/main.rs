//! # hierdrl-bench
//!
//! One executable whose subcommands regenerate every table and figure of
//! the paper's evaluation (Section VII), the scenario axes beyond it, and
//! the CI performance gate:
//!
//! ```sh
//! cargo run --release -p hierdrl-bench -- <subcommand> [flags]
//! cargo run --release -p hierdrl-bench -- table1 --quick --out /tmp/BENCH_suite.json
//! ```
//!
//! | Subcommand | Artifact | Preset |
//! |---|---|---|
//! | `table1` | Table I: energy/latency/power at job 95,000 | `presets::table1` |
//! | `fig8` | Fig. 8: accumulated latency & energy vs. jobs, M = 30 | `presets::fig8` |
//! | `fig9` | Fig. 9: same, M = 40 | `presets::fig9` |
//! | `fig10` | Fig. 10: latency-energy trade-off curves | `presets::fig10` |
//! | `ablation_dqn` | autoencoder/weight-sharing & group-count ablations | `presets::ablation_dqn` |
//! | `calibrate` | calibration probe (not a paper artifact) | `presets::calibrate` |
//! | `heterogeneous` | big/little fleets | `presets::heterogeneous` |
//! | `multicluster` | sharded fleets behind the front-end router | `presets::multicluster` |
//! | `load_sweep` | policy × arrival rate × M cube, as CSV | `presets::load_sweep` |
//! | `drift` | online learning under concept drift | `presets::drift` |
//! | `chaos` | fault schedules and graceful degradation | `presets::chaos` |
//! | `elastic` | autoscaled fleets | `presets::elastic` |
//! | `realtrace` | Google/Alibaba trace replay | `presets::realtrace` |
//! | `scale` | 10⁵ servers / 10⁶ streamed jobs: jobs/s + peak RSS | `hierdrl_exp::scale` |
//! | `qbench` | batched vs. unbatched DQN hot-path microbench | (bespoke) |
//! | `lstm_accuracy` | LSTM predictor vs. simpler baselines | (bespoke) |
//! | `perf_gate` | regression gate between two bench artifacts | (bespoke) |
//!
//! Every subcommand but `perf_gate` takes the flags of [`SweepArgs`]. The
//! suite subcommands and `scale` share one path after their run:
//!
//! - `--out PATH` writes the run's [`BenchReport`], and `--merge PATH`
//!   folds it into the artifact already at `PATH`
//!   ([`BenchReport::merge`]). With neither flag nothing is written.
//! - The run's expectation verdicts print on stdout as
//!   `[PASS]`/`[FAIL] name: detail` rows after the artifact is written.
//!
//! Exit status: 0 on success; 1 when a suite expectation or the perf gate
//! fails; 2 when the command cannot run (an unknown subcommand or flag, a
//! missing or malformed value, an unreadable input, or a failed run),
//! after a one-line message on stderr.
//!
//! Criterion micro-benches (decision latency, LSTM step, simulator
//! throughput) live in `benches/`.

#![forbid(unsafe_code)]

mod harness;
mod lstm_accuracy;
mod perf_gate;
mod qbench;
mod suites;

use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::report::{BenchReport, ExpectationRow};
use std::process::ExitCode;

/// A subcommand that runs, prints its table, and returns its artifact.
type ArtifactCommand = fn(&SweepArgs) -> Result<BenchReport, String>;

/// The subcommands that produce a bench artifact, in usage order.
const ARTIFACT_COMMANDS: [(&str, ArtifactCommand); 14] = [
    ("table1", suites::table1),
    ("fig8", suites::fig8),
    ("fig9", suites::fig9),
    ("fig10", suites::fig10),
    ("ablation_dqn", suites::ablation_dqn),
    ("calibrate", suites::calibrate),
    ("heterogeneous", suites::heterogeneous),
    ("multicluster", suites::multicluster),
    ("load_sweep", suites::load_sweep),
    ("drift", suites::drift),
    ("chaos", suites::chaos),
    ("elastic", suites::elastic),
    ("realtrace", suites::realtrace),
    ("scale", suites::scale),
];

/// The subcommands that write no bench artifact.
const TOOLS: [&str; 3] = ["qbench", "lstm_accuracy", "perf_gate"];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    run(&command, argv.collect()).unwrap_or_else(|message| {
        eprintln!("hierdrl-bench: {message}");
        ExitCode::from(2)
    })
}

fn run(command: &str, argv: Vec<String>) -> Result<ExitCode, String> {
    let artifact = ARTIFACT_COMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .map(|&(_, artifact)| artifact);
    if artifact.is_none() && !TOOLS.contains(&command) {
        let names: Vec<&str> = ARTIFACT_COMMANDS
            .iter()
            .map(|(name, _)| *name)
            .chain(TOOLS)
            .collect();
        let what = if command.is_empty() {
            "missing subcommand".to_string()
        } else {
            format!("unknown subcommand {command:?}")
        };
        return Err(format!("{what}; expected one of {}", names.join(", ")));
    }
    if command == "perf_gate" {
        return perf_gate::run(argv);
    }
    let args = SweepArgs::parse(argv)?;
    let Some(artifact) = artifact else {
        if let Some(path) = args.out.as_ref().or(args.merge.as_ref()) {
            return Err(format!(
                "{command} writes no bench artifact, so {path} would stay untouched; drop --out/--merge"
            ));
        }
        if command == "qbench" {
            qbench::run(args.quick);
        } else {
            lstm_accuracy::run(&args)?;
        }
        return Ok(ExitCode::SUCCESS);
    };
    let bench = artifact(&args)?;
    eprintln!(
        "\n{}: {} cells in {:.2}s wall ({:.0} jobs/s aggregate, {} traces materialized, {} cache hits)",
        bench.suite,
        bench.cells_total,
        bench.total_wall_s,
        bench.jobs_per_s,
        bench.traces_materialized,
        bench.trace_cache_hits
    );
    let expectations = bench.expectations.clone();
    write_or_merge(&args, bench)?;
    Ok(gate(&expectations))
}

/// The one post-run write step: `--out` writes `bench`, `--merge` folds it
/// into the artifact already at that path, and with neither flag nothing
/// is written (so no run can clobber a committed baseline by default).
fn write_or_merge(args: &SweepArgs, bench: BenchReport) -> Result<(), String> {
    let (path, report) = match (&args.out, &args.merge) {
        (Some(path), _) => (path, bench),
        (None, Some(path)) => {
            let mut merged = read_report(path)?;
            merged.merge(bench);
            (path, merged)
        }
        (None, None) => return Ok(()),
    };
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let verb = if args.merge.is_some() {
        "merged into"
    } else {
        "wrote"
    };
    eprintln!("{verb} {path}");
    Ok(())
}

/// Reads a bench artifact, naming the path on failure.
fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The one expectation gate: prints every verdict as a `[PASS]`/`[FAIL]`
/// row and fails the process if any expectation failed.
fn gate(expectations: &[ExpectationRow]) -> ExitCode {
    if expectations.is_empty() {
        return ExitCode::SUCCESS;
    }
    println!();
    for row in expectations {
        let verdict = if row.passed { "PASS" } else { "FAIL" };
        println!("[{verdict}] {}: {}", row.name, row.detail);
    }
    let failed = expectations.iter().filter(|row| !row.passed).count();
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} suite expectation(s) failed; see the FAIL rows above");
        ExitCode::FAILURE
    }
}
