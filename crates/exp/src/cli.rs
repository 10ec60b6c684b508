//! Shared command-line parsing for the `hierdrl-bench` subcommands.
//!
//! Every subcommand except `perf_gate` accepts the same flags:
//!
//! - `--m <M>` — base cluster size;
//! - `--jobs <N>` — evaluation job count;
//! - `--quick` — smoke scale (`M = 10`, 5,000 jobs);
//! - `--threads <T>` — suite worker threads (default: all cores);
//! - `--out <PATH>` — write the run's bench artifact to `PATH`;
//! - `--merge <PATH>` — merge the run's rows and expectation verdicts into
//!   the bench artifact already at `PATH` instead (exclusive with `--out`;
//!   with neither flag no artifact is written);
//! - `--clusters <C1,C2,...>` — cluster-counts axis for sharded presets;
//! - `--ms <M1,M2,...>` — cluster-size axis for sweep presets;
//! - `--rates <F1,F2,...>` — arrival-rate factor axis for sweep presets;
//! - `--drifts <D1,D2,...>` — drift-shape axis for the drift preset
//!   (names from `presets::DRIFT_NAMES`);
//! - `--faults <F1,F2,...>` — fault-schedule axis for the chaos preset
//!   (names from `presets::FAULT_NAMES`);
//! - `--elastics <E1,E2,...>` — autoscaler axis for the elastic preset
//!   (names from `presets::ELASTIC_NAMES`);
//! - `--trace <PATH>` — an on-disk trace file for the realtrace preset
//!   (default: both committed fixtures);
//! - `--format <google|alibaba>` — the `--trace` file's format (names
//!   from `TraceFormat::from_name`; default `google`).
//!
//! [`SweepArgs::parse`] rejects malformed input with a one-line message
//! naming the flag, before any suite is built.

use crate::presets::{Scale, DRIFT_NAMES, ELASTIC_NAMES, FAULT_NAMES};
use crate::runner::SuiteRunner;
use hierdrl_trace::source::TraceFormat;
use std::str::FromStr;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct SweepArgs {
    /// `--m` override.
    pub m: Option<usize>,
    /// `--jobs` override.
    pub jobs: Option<u64>,
    /// `--quick` smoke scale.
    pub quick: bool,
    /// `--threads` override.
    pub threads: Option<usize>,
    /// `--out` artifact path.
    pub out: Option<String>,
    /// `--merge` path of an existing bench artifact to merge the run into.
    pub merge: Option<String>,
    /// `--clusters` override (comma-separated cluster counts for sharded
    /// presets).
    pub clusters: Option<Vec<usize>>,
    /// `--ms` override (comma-separated cluster sizes for sweep presets).
    pub ms: Option<Vec<usize>>,
    /// `--rates` override (comma-separated arrival-rate factors for sweep
    /// presets).
    pub rates: Option<Vec<f64>>,
    /// `--drifts` override (comma-separated drift-shape names for the
    /// drift preset).
    pub drifts: Option<Vec<String>>,
    /// `--faults` override (comma-separated fault-schedule names for the
    /// chaos preset).
    pub faults: Option<Vec<String>>,
    /// `--elastics` override (comma-separated autoscaler names for the
    /// elastic preset).
    pub elastics: Option<Vec<String>>,
    /// `--trace` override (path of an on-disk trace for the realtrace
    /// preset).
    pub trace: Option<String>,
    /// `--format` override (the `--trace` file's [`TraceFormat`]).
    pub format: Option<TraceFormat>,
}

impl SweepArgs {
    /// Parses an argument list: the flags after the subcommand name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the flag for a missing or
    /// unparsable value, an unknown flag, a drift/fault/autoscaler name
    /// outside its preset axis, an unknown `--format`, and `--out` together
    /// with `--merge`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = SweepArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--quick" => out.quick = true,
                "--m" => out.m = Some(parse_value(&flag, &value()?)?),
                "--jobs" => out.jobs = Some(parse_value(&flag, &value()?)?),
                "--threads" => out.threads = Some(parse_value(&flag, &value()?)?),
                "--out" => out.out = Some(value()?),
                "--merge" => out.merge = Some(value()?),
                "--clusters" => out.clusters = Some(parse_list(&flag, &value()?)?),
                "--ms" => out.ms = Some(parse_list(&flag, &value()?)?),
                "--rates" => out.rates = Some(parse_list(&flag, &value()?)?),
                "--drifts" => out.drifts = Some(parse_names(&flag, &value()?, &DRIFT_NAMES)?),
                "--faults" => out.faults = Some(parse_names(&flag, &value()?, &FAULT_NAMES)?),
                "--elastics" => {
                    out.elastics = Some(parse_names(&flag, &value()?, &ELASTIC_NAMES)?);
                }
                "--trace" => out.trace = Some(value()?),
                "--format" => {
                    let name = value()?;
                    let format = TraceFormat::from_name(name.trim()).ok_or_else(|| {
                        format!("--format expects google or alibaba, got {name:?}")
                    })?;
                    out.format = Some(format);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let (Some(out_path), Some(merge_path)) = (&out.out, &out.merge) {
            return Err(format!(
                "--out {out_path} and --merge {merge_path} are exclusive: pass one artifact path"
            ));
        }
        Ok(out)
    }

    /// Resolves the scale, starting from a preset's default.
    pub fn scale(&self, default_scale: Scale) -> Scale {
        let mut scale = default_scale;
        if let Some(m) = self.m {
            scale.m = m;
        }
        if let Some(jobs) = self.jobs {
            scale.jobs = jobs;
        }
        if self.quick {
            scale.m = scale.m.min(10);
            scale.jobs = scale.jobs.min(5_000);
        }
        scale
    }

    /// The cluster-counts axis, starting from a preset's default.
    pub fn cluster_counts(&self, default_counts: &[usize]) -> Vec<usize> {
        self.clusters
            .clone()
            .unwrap_or_else(|| default_counts.to_vec())
    }

    /// The cluster-size axis, starting from a preset's default.
    pub fn cluster_sizes(&self, default_ms: &[usize]) -> Vec<usize> {
        self.ms.clone().unwrap_or_else(|| default_ms.to_vec())
    }

    /// The arrival-rate factor axis, starting from a preset's default.
    pub fn rate_factors(&self, default_rates: &[f64]) -> Vec<f64> {
        self.rates.clone().unwrap_or_else(|| default_rates.to_vec())
    }

    /// The drift-shape axis, starting from a preset's default.
    pub fn drift_names(&self, default_names: &[&str]) -> Vec<String> {
        self.drifts
            .clone()
            .unwrap_or_else(|| default_names.iter().map(|s| s.to_string()).collect())
    }

    /// The fault-schedule axis, starting from a preset's default.
    pub fn fault_names(&self, default_names: &[&str]) -> Vec<String> {
        self.faults
            .clone()
            .unwrap_or_else(|| default_names.iter().map(|s| s.to_string()).collect())
    }

    /// The autoscaler axis, starting from a preset's default.
    pub fn elastic_names(&self, default_names: &[&str]) -> Vec<String> {
        self.elastics
            .clone()
            .unwrap_or_else(|| default_names.iter().map(|s| s.to_string()).collect())
    }

    /// A runner honouring `--threads`.
    pub fn runner(&self) -> SuiteRunner {
        match self.threads {
            Some(n) => SuiteRunner::new().with_threads(n),
            None => SuiteRunner::new(),
        }
    }
}

/// Parses one flag value, naming the flag on failure.
fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Parses a comma-separated flag value item by item: the one parser of
/// every list flag.
fn parse_list<T: FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|item| parse_value(flag, item))
        .collect()
}

/// Parses a comma-separated list of names, each of which must be on the
/// preset axis `known`.
fn parse_names(flag: &str, value: &str, known: &[&str]) -> Result<Vec<String>, String> {
    let names: Vec<String> = parse_list(flag, value)?;
    match names.iter().find(|n| !known.contains(&n.as_str())) {
        Some(bad) => Err(format!(
            "{flag}: unknown name {bad:?}; expected one of {}",
            known.join(", ")
        )),
        None => Ok(names),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> SweepArgs {
        try_parse(args).expect("valid flags")
    }

    #[test]
    fn flags_override_defaults() {
        let args = parse(&["--m", "12", "--jobs", "4000", "--threads", "3"]);
        let scale = args.scale(Scale::paper(30));
        assert_eq!((scale.m, scale.jobs), (12, 4000));
        assert_eq!(args.runner().threads(), 3);
    }

    #[test]
    fn quick_caps_scale() {
        let scale = parse(&["--quick"]).scale(Scale::paper(40));
        assert_eq!((scale.m, scale.jobs), (10, 5_000));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = try_parse(&["--frobnicate", "--jobs", "100"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn malformed_values_are_named_errors() {
        let cases: [(&[&str], &str); 8] = [
            (&["--jobs"], "--jobs expects a value"),
            (&["--m", "ten"], "--m"),
            (&["--rates", "0.5,fast"], "--rates"),
            (&["--faults", "meteor-strike"], "meteor-strike"),
            (&["--drifts", "rate-step,tidal"], "tidal"),
            (&["--elastics", "magic"], "magic"),
            (&["--format", "csv"], "--format"),
            (&["--out", "a.json", "--merge", "b.json"], "exclusive"),
        ];
        for (args, needle) in cases {
            let err = try_parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn merge_takes_a_path() {
        let args = parse(&["--merge", "/tmp/BENCH_suite.json"]);
        assert_eq!(args.merge.as_deref(), Some("/tmp/BENCH_suite.json"));
        assert_eq!(parse(&[]).merge, None);
    }

    #[test]
    fn clusters_parses_comma_list() {
        let args = parse(&["--clusters", "2, 4,8"]);
        assert_eq!(args.cluster_counts(&[2]), vec![2, 4, 8]);
        assert_eq!(parse(&[]).cluster_counts(&[2, 4]), vec![2, 4]);
    }

    #[test]
    fn sweep_axes_parse_comma_lists() {
        let args = parse(&["--ms", "10,20", "--rates", "0.5, 1.0,1.5"]);
        assert_eq!(args.cluster_sizes(&[30]), vec![10, 20]);
        assert_eq!(args.rate_factors(&[1.0]), vec![0.5, 1.0, 1.5]);
        assert_eq!(parse(&[]).cluster_sizes(&[30]), vec![30]);
        assert_eq!(parse(&[]).rate_factors(&[1.0]), vec![1.0]);
    }

    #[test]
    fn drifts_parse_comma_list() {
        let args = parse(&["--drifts", "rate-step, pattern-flip"]);
        assert_eq!(
            args.drift_names(&["stationary"]),
            vec!["rate-step".to_string(), "pattern-flip".to_string()]
        );
        assert_eq!(
            parse(&[]).drift_names(&["stationary", "rate-step"]),
            vec!["stationary".to_string(), "rate-step".to_string()]
        );
    }

    #[test]
    fn trace_and_format_parse() {
        let args = parse(&["--trace", "a/b.csv", "--format", "alibaba"]);
        assert_eq!(args.trace.as_deref(), Some("a/b.csv"));
        assert_eq!(args.format, Some(TraceFormat::AlibabaBatchTask));
        assert_eq!(parse(&[]).format, None);
    }

    #[test]
    fn elastics_parse_comma_list() {
        let args = parse(&["--elastics", "threshold, learned"]);
        assert_eq!(
            args.elastic_names(&["fixed"]),
            vec!["threshold".to_string(), "learned".to_string()]
        );
        assert_eq!(
            parse(&[]).elastic_names(&["fixed", "threshold"]),
            vec!["fixed".to_string(), "threshold".to_string()]
        );
    }

    #[test]
    fn faults_parse_comma_list() {
        let args = parse(&["--faults", "crash-storm, cap-window"]);
        assert_eq!(
            args.fault_names(&["no-fault"]),
            vec!["crash-storm".to_string(), "cap-window".to_string()]
        );
        assert_eq!(
            parse(&[]).fault_names(&["no-fault", "crash-storm"]),
            vec!["no-fault".to_string(), "crash-storm".to_string()]
        );
    }
}
