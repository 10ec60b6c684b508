//! `hierdrl-benchmark`: the end-to-end and per-layer benchmark of the
//! hierarchical DRL framework.
//!
//! One workload, measured (the form `BENCHMARK.json`'s command takes):
//!
//! ```text
//! hierdrl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Every workload, each in a child process of its own, one at a time:
//!
//! ```text
//! hierdrl-benchmark run       [--seed N] [--seconds S] [--smoke] [--out PATH]
//! hierdrl-benchmark trace     [--seed N] [--seconds S] [--smoke] [--out PATH]
//! hierdrl-benchmark calibrate [--repeats N] [--seed N] [--seconds S] [--smoke] [--out PATH]
//! ```
//!
//! A measured run sets the workload up several times, then evaluates it
//! repeatedly for `--seconds`, checks the outputs, and prints each metric
//! as `name value unit`, a `digest` line, and finally one JSON result line.

mod layers;
mod metrics;
mod stats;
mod workload;

use hierdrl_exp::report::peak_rss_bytes;
use metrics::{Declared, Manifest, Outcome, END_TO_END, PER_LAYER};
use serde::Serialize;
use stats::{median, percentile, quartiles, relative_iqr};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{
    equivalence_gate, Probe, Rep, Setup, SetupTimes, Workload, GATE_SCALE, SMOKE_SCALE, WORKLOADS,
};

/// The default seed; 7 is held out for checking claims.
const DEFAULT_SEED: u64 = 42;
/// The default measuring time, `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per measured run: at least `MIN_SETUPS`, and more while the
/// set-ups so far took under `SETUP_BUDGET_S`, so that the median of a
/// millisecond set-up is as steady as that of a slow one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage:
  hierdrl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  hierdrl-benchmark run|trace [--seed N] [--seconds S] [--smoke] [--out PATH]
  hierdrl-benchmark calibrate [--repeats N] [--seed N] [--seconds S] [--smoke] [--out PATH]
workloads: hier-m30, hier-m30-frozen, dpm-m30, rr-m100k";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Measure one workload in this process.
    Measure { workload: Workload, trace: bool },
    /// Every workload, tracing off.
    Run,
    /// Every workload, tracing on.
    Trace,
    /// Every workload, `repeats` times, from seeds `seed..seed + repeats`.
    Calibrate { repeats: u64 },
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mode_name, mut rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "calibrate")) => (Some(m), &args[1..]),
        _ => (None, args),
    };
    let (mut workload, mut trace, mut repeats) = (None, false, 10);
    let mut parsed = Args {
        mode: Mode::Run,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        out: None,
    };
    let mut seconds = None;
    while let Some((flag, tail)) = rest.split_first() {
        rest = tail;
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let (value, tail) = rest
            .split_first()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        rest = tail;
        let number = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| number("an integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| number("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(number("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--repeats" => {
                repeats = value.parse().map_err(|_| number("an integer"))?;
                if repeats == 0 {
                    return Err(number("at least 1"));
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A smoke run evaluates each workload once unless told otherwise.
    parsed.seconds = seconds.unwrap_or(if parsed.smoke { 0.0 } else { DEFAULT_SECONDS });
    parsed.mode = match (mode_name, workload) {
        (None, Some(workload)) => Mode::Measure { workload, trace },
        (None, None) => return Err("pass --workload NAME or a command".into()),
        (Some(_), Some(_)) => return Err("--workload applies only to a single measurement".into()),
        (Some("run"), None) => Mode::Run,
        (Some("trace"), None) => Mode::Trace,
        (Some(_), None) => Mode::Calibrate { repeats },
    };
    Ok(parsed)
}

/// A measured run's result line, digest, and failed checks.
struct Measured {
    outcome: Outcome,
    digest: String,
    failures: Vec<String>,
}

/// Checks one evaluation's outputs, naming each failed check.
fn check_rep(workload: Workload, full_size: bool, expected_jobs: u64, rep: &Rep) -> Vec<String> {
    let mut failures = Vec::new();
    let totals = &rep.result.outcome.totals;
    let c = &rep.counts;
    if totals.jobs_arrived != expected_jobs {
        failures.push(format!(
            "arrivals: {} jobs arrived, the trace has {expected_jobs}",
            totals.jobs_arrived
        ));
    }
    if totals.jobs_completed != totals.jobs_arrived {
        failures.push(format!(
            "completion: {} jobs arrived but {} completed",
            totals.jobs_arrived, totals.jobs_completed
        ));
    }
    if c.predictor_rejected != 0 {
        failures.push(format!(
            "predictor: {} observations rejected",
            c.predictor_rejected
        ));
    }
    if let Some(loss) = c.loss_ema.filter(|l| !l.is_finite()) {
        failures.push(format!("learner: training loss EMA is {loss}"));
    }
    if workload == Workload::HierM30Frozen {
        if c.train_steps != 0 {
            failures.push(format!(
                "frozen: {} training steps during evaluation",
                c.train_steps
            ));
        }
        // Reduced sizes pre-train on fewer samples than the autoencoder
        // waits for; at full size it must be trained before evaluation.
        if full_size && c.autoencoder_trained_before != Some(true) {
            failures.push("frozen: autoencoder untrained when evaluation began".into());
        }
    }
    if let Some(spans) = &rep.spans {
        let calls = spans.allocator.select.calls();
        if calls != totals.jobs_arrived + totals.jobs_requeued {
            failures.push(format!(
                "trace: {calls} select calls for {} placements",
                totals.jobs_arrived + totals.jobs_requeued
            ));
        }
        if c.drl_decisions != 0 && c.drl_decisions != calls {
            failures.push(format!(
                "trace: {calls} select calls but {} learner decisions",
                c.drl_decisions
            ));
        }
        let idle_calls = spans.power.idle.calls();
        if c.dpm_decisions != 0 && c.dpm_decisions != idle_calls {
            failures.push(format!(
                "trace: {idle_calls} on_idle calls but {} timeout decisions",
                c.dpm_decisions
            ));
        }
    }
    failures
}

/// Sets `workload` up several times, evaluates it for `seconds`,
/// checks its outputs, and computes the end-to-end metrics (or, with
/// `trace`, the per-layer ones).
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Measured, String> {
    let scale = if smoke { SMOKE_SCALE } else { 1.0 };
    let recipe = workload.recipe(seed, scale);
    let mut failures = Vec::new();

    let mut setup = None;
    let mut setup_times = Vec::new();
    let mut pretrained = Vec::new();
    let started = Instant::now();
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(setup.take());
        let s = Setup::build(&recipe)?;
        setup_times.push(s.times);
        pretrained.push(format!("{:?}", s.pretrained));
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    if pretrained.iter().any(|p| *p != pretrained[0]) {
        failures.push("set-up: repeated pre-training produced different learners".into());
    }

    // One untimed evaluation first, so caches fill and lazily grown buffers
    // settle before anything is timed. Peak memory is read right after it:
    // set-up plus one evaluation is what a user's process holds, while the
    // high-water mark of many evaluations in one process depends on how
    // the allocator happens to reuse freed blocks.
    let first = setup.evaluate(Probe::Off)?;
    let peak_rss_mib = peak_rss_bytes().ok_or("peak RSS is unavailable on this platform")? as f64
        / (1024.0 * 1024.0);

    // Tracing off, or cycles of the three probes, so traced and untraced
    // evaluations interleave under the same machine conditions; the order
    // of the untraced and traced one alternates between cycles.
    let mut reps: Vec<(Probe, Rep)> = Vec::new();
    let started = Instant::now();
    for cycle in 0.. {
        if cycle > 0 && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let probes: &[Probe] = match (trace, cycle % 2) {
            (false, _) => &[Probe::Off],
            (true, 0) => &[Probe::Off, Probe::Timed, Probe::Shadowed],
            (true, _) => &[Probe::Timed, Probe::Off, Probe::Shadowed],
        };
        for &probe in probes {
            reps.push((probe, setup.evaluate(probe)?));
        }
    }

    let digest = first.digest();
    failures.extend(check_rep(workload, !smoke, setup.jobs, &first));
    for (i, (probe, rep)) in reps.iter().enumerate() {
        if rep.digest() != digest {
            failures.push(format!(
                "determinism: evaluation {} ({probe:?}) differs from the first",
                i + 1
            ));
        }
        failures.extend(check_rep(workload, !smoke, setup.jobs, rep));
    }
    let gate_scale = if smoke { SMOKE_SCALE } else { GATE_SCALE };
    if let Err(e) = equivalence_gate(workload, seed, gate_scale) {
        failures.push(e);
    }

    let attempted: u64 = reps
        .iter()
        .map(|(_, r)| r.result.outcome.totals.jobs_arrived)
        .sum();
    let completed: u64 = reps
        .iter()
        .map(|(_, r)| r.result.outcome.totals.jobs_completed)
        .sum();
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    let (declared, values): (&[Declared], _) = if trace {
        let pretrain_decisions = setup.pretrained.map_or(0, |(drl, _)| drl.decisions);
        let setup_values = [
            ("trace.materialize_s", setup_median(|t| t.materialize_s)),
            ("core.pretrain_s", setup_median(|t| t.pretrain_s)),
            ("core.pretrain_decisions", pretrain_decisions as f64),
        ];
        let mut values = layer_values(&reps);
        values.extend(setup_values);
        (&PER_LAYER, values)
    } else {
        let throughput: Vec<f64> = reps
            .iter()
            .map(|(_, r)| r.result.outcome.totals.jobs_completed as f64 / r.eval_s)
            .collect();
        let totals = &first.result.outcome.totals;
        let values = vec![
            ("jobs_per_s", median(&throughput)),
            ("setup_s", setup_median(SetupTimes::total_s)),
            ("peak_rss_mib", peak_rss_mib),
            ("energy_per_job_j", first.result.energy_per_job_j()),
            ("mean_latency_s", first.result.mean_latency_s()),
            (
                "jobs_completed_frac",
                totals.jobs_completed as f64 / totals.jobs_arrived.max(1) as f64,
            ),
        ];
        (&END_TO_END, values)
    };
    let mut outcome = Outcome::new(false, attempted, attempted - completed, declared, &values);
    let non_finite = outcome.non_finite().join(", ");
    if !non_finite.is_empty() {
        failures.push(format!("metrics: not finite: {non_finite}"));
    }
    outcome.correct = failures.is_empty();
    Ok(Measured {
        outcome,
        digest,
        failures,
    })
}

/// The per-layer metrics measured during evaluation: spans of the median
/// traced-with-shadow evaluation, its counts, and the tracing overhead.
fn layer_values(reps: &[(Probe, Rep)]) -> Vec<(&'static str, f64)> {
    let of = |wanted: Probe| reps.iter().filter(move |(p, _)| *p == wanted);
    // Each cycle's traced/untraced ratio, so slow phases of the machine
    // cancel within a pair; the median over cycles.
    let ratios: Vec<f64> = of(Probe::Timed)
        .zip(of(Probe::Off))
        .map(|((_, timed), (_, off))| timed.eval_s / off.eval_s)
        .collect();
    let mut shadowed: Vec<&Rep> = of(Probe::Shadowed).map(|(_, r)| r).collect();
    shadowed.sort_by(|a, b| a.eval_s.total_cmp(&b.eval_s));
    let rep = shadowed[shadowed.len() / 2];
    let spans = rep.spans.as_ref().expect("traced evaluations record spans");
    let c = &rep.counts;
    let totals = &rep.result.outcome.totals;

    let a = &spans.allocator;
    let select_s = a.select.scaled_s(a.select_ns.iter().sum());
    let encode_s = a.select.scaled_s(a.encode_ns);
    let q_values_s = a.select.scaled_s(a.q_values_ns);
    // The DRL learner's select time outside encode and forward: replay,
    // target sweeps, training. Static allocators have none.
    let learn_s = if c.drl_decisions > 0 {
        select_s - encode_s - q_values_s
    } else {
        0.0
    };
    let mut select_ns = a.select_ns.clone();
    let mut select_us = |p| percentile(&mut select_ns, p).map_or(0.0, |ns| ns as f64 / 1e3);
    let (p50, p99) = (select_us(50.0), select_us(99.0));
    let power = &spans.power;
    let on_idle_s = power.idle.scaled_s(power.on_idle_ns);
    let on_job_arrival_s = power.arrival.scaled_s(power.on_job_arrival_ns);
    let stream_s = spans.stream_ns as f64 * 1e-9;
    let kernel_s = rep.eval_s - select_s - on_idle_s - on_job_arrival_s - stream_s;
    vec![
        ("core.allocator.learn_s", learn_s),
        ("core.allocator.train_steps", c.train_steps as f64),
        ("core.state.encode_s", encode_s),
        ("core.dqn.q_values_s", q_values_s),
        ("core.allocator.select_s", select_s),
        ("core.allocator.select_us_p50", p50),
        ("core.allocator.select_us_p99", p99),
        ("core.allocator.decisions", a.select.calls() as f64),
        ("core.dpm.on_job_arrival_s", on_job_arrival_s),
        (
            "core.predictor.observations",
            c.predictor_observations as f64,
        ),
        ("core.predictor.rejected", c.predictor_rejected as f64),
        ("core.dpm.on_idle_s", on_idle_s),
        ("core.dpm.idle_decisions", power.idle.calls() as f64),
        ("core.dpm.q_updates", c.q_updates as f64),
        ("sim.kernel_s", kernel_s),
        ("sim.jobs_arrived", totals.jobs_arrived as f64),
        ("sim.jobs_completed", totals.jobs_completed as f64),
        (
            "sim.wake_transitions",
            rep.result.fleet.total_wake_transitions as f64,
        ),
        ("trace.stream_s", stream_s),
        ("bench.eval_s", rep.eval_s),
        (
            "bench.tracing_overhead_pct",
            (median(&ratios) - 1.0) * 100.0,
        ),
    ]
}

fn print_measured(m: &Measured) {
    for (name, v) in &m.outcome.metrics {
        println!("{name} {} {}", v.value, v.unit);
    }
    println!("digest {}", m.digest);
    for failure in &m.failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "{}",
        serde_json::to_string(&m.outcome).expect("outcome serializes")
    );
}

/// One workload's measured result, as a child process reported it.
#[derive(Debug, Clone, Serialize)]
struct ChildResult {
    workload: String,
    seed: u64,
    digest: String,
    outcome: Outcome,
}

/// Measures `workload` in a child process of this binary and waits for it.
fn measure_in_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let failed = || {
        format!(
            "{} (seed {seed}) failed: {}",
            workload.name(),
            output.status
        )
    };
    let last = stdout.lines().last().ok_or_else(failed)?;
    let outcome: Outcome = serde_json::from_str(last).map_err(|_| failed())?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .ok_or_else(failed)?;
    if !output.status.success() || !outcome.correct {
        return Err(failed());
    }
    Ok(ChildResult {
        workload: workload.name().to_string(),
        seed,
        digest: digest.to_string(),
        outcome,
    })
}

fn write_json(args: &Args, default_name: &str, value: &impl Serialize) -> Result<(), String> {
    let path = match &args.out {
        Some(path) => path.clone(),
        None => {
            let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join(default_name)
        }
    };
    let text = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `run` and `trace`: every workload once, each in its own process.
fn run_all(args: &Args, trace: bool) -> Result<(), String> {
    let mut results = Vec::with_capacity(WORKLOADS.len());
    for workload in WORKLOADS {
        let r = measure_in_child(workload, args.seed, args.seconds, trace, args.smoke)?;
        for (name, v) in &r.outcome.metrics {
            println!("{} {name} {} {}", r.workload, v.value, v.unit);
        }
        results.push(r);
    }
    write_json(
        args,
        if trace { "trace.json" } else { "run.json" },
        &results,
    )
}

/// One metric's spread over a calibration.
#[derive(Debug, Clone, Serialize)]
struct Spread {
    name: String,
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
    relative_iqr: f64,
    bound: Option<f64>,
    /// Every run's value, in seed order.
    values: Vec<f64>,
}

#[derive(Debug, Clone, Serialize)]
struct CalibratedWorkload {
    workload: String,
    /// `(seed, digest)` of every run, in seed order.
    digests: Vec<(u64, String)>,
    metrics: Vec<Spread>,
}

#[derive(Debug, Clone, Serialize)]
struct Calibration {
    nproc: usize,
    seconds: f64,
    seeds: Vec<u64>,
    workloads: Vec<CalibratedWorkload>,
}

/// `calibrate`: every workload `repeats` times, one seed per repeat,
/// alternating the workload order, then the median and spread of every
/// end-to-end metric.
fn calibrate(args: &Args, repeats: u64) -> Result<(), String> {
    let manifest = Manifest::load()?;
    manifest.check_declared()?;
    let seeds: Vec<u64> = (0..repeats).map(|r| args.seed + r).collect();
    let mut runs: Vec<Vec<ChildResult>> = vec![Vec::new(); WORKLOADS.len()];
    for (r, &seed) in seeds.iter().enumerate() {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let result = measure_in_child(WORKLOADS[i], seed, args.seconds, false, args.smoke)?;
            runs[i].push(result);
        }
    }
    println!("workload metric median q1 q3 relative_iqr bound");
    let mut workloads = Vec::with_capacity(WORKLOADS.len());
    for (workload, results) in WORKLOADS.iter().zip(&mut runs) {
        results.sort_by_key(|r| r.seed);
        let metrics: Vec<Spread> = END_TO_END
            .iter()
            .map(|d| {
                let values: Vec<f64> = results
                    .iter()
                    .map(|r| r.outcome.metrics[d.name].value)
                    .collect();
                let [q1, _, q3] = quartiles(&values);
                Spread {
                    name: d.name.to_string(),
                    unit: d.unit.to_string(),
                    median: median(&values),
                    q1,
                    q3,
                    relative_iqr: relative_iqr(&values),
                    bound: manifest.bound(d.name),
                    values,
                }
            })
            .collect();
        for s in &metrics {
            let flag = match s.bound {
                Some(b) if s.name != "setup_s" && s.relative_iqr * 3.0 > b => {
                    "  <- spread above a third of the bound"
                }
                _ => "",
            };
            println!(
                "{} {} {} {} {} {:.4} {}{flag}",
                workload.name(),
                s.name,
                s.median,
                s.q1,
                s.q3,
                s.relative_iqr,
                s.bound.map_or("-".into(), |b| b.to_string()),
            );
        }
        workloads.push(CalibratedWorkload {
            workload: workload.name().to_string(),
            digests: results.iter().map(|r| (r.seed, r.digest.clone())).collect(),
            metrics,
        });
    }
    let calibration = Calibration {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        seconds: args.seconds,
        seeds,
        workloads,
    };
    write_json(args, "calibration.json", &calibration)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Measure { workload, trace } => {
            match measure(workload, args.seed, args.seconds, trace, args.smoke) {
                Ok(m) => {
                    print_measured(&m);
                    return if m.outcome.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    };
                }
                Err(e) => Err(format!("{}: {e}", workload.name())),
            }
        }
        Mode::Run => run_all(&args, false),
        Mode::Trace => run_all(&args, true),
        Mode::Calibrate { repeats } => calibrate(&args, repeats),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hierdrl-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_benchmark_command_form() {
        let args = parse("--workload rr-m100k --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            args.mode,
            Mode::Measure {
                workload: Workload::RrM100k,
                trace: true
            }
        );
        assert_eq!((args.seed, args.seconds), (7, 10.0));
        let smoke = parse("run --smoke").unwrap();
        assert_eq!((smoke.mode, smoke.seconds), (Mode::Run, 0.0));
        let cal = parse("calibrate --repeats 4").unwrap();
        assert_eq!(cal.mode, Mode::Calibrate { repeats: 4 });
    }

    #[test]
    fn rejects_malformed_arguments_by_name() {
        for (line, needle) in [
            ("", "--workload"),
            ("--workload nope", "unknown workload"),
            ("--workload dpm-m30 --trace 2", "0 or 1"),
            ("--workload dpm-m30 --seed", "expects a value"),
            ("--workload dpm-m30 --seconds -1", "non-negative"),
            ("run --workload dpm-m30", "single measurement"),
            ("calibrate --repeats 0", "at least 1"),
            ("--bogus 1", "unknown argument"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    /// Every workload at tiny size through the full measured path: set-up
    /// repeats, traced and untraced evaluations, every check, and the
    /// equivalence gate.
    #[test]
    fn every_workload_passes_its_checks_at_tiny_size() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let m = measure(workload, 11, 0.0, trace, true).unwrap();
                assert!(
                    m.failures.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    m.failures
                );
                assert!(m.outcome.correct);
                assert_eq!(m.outcome.failed, 0);
                assert!(m.outcome.attempted > 0);
                let declared = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let names: Vec<&str> = m.outcome.metrics.keys().map(String::as_str).collect();
                let mut expected: Vec<&str> = declared.iter().map(|d| d.name).collect();
                expected.sort_unstable();
                assert_eq!(names, expected);
            }
        }
    }
}
