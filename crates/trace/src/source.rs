//! Real-trace files: the Google ClusterData-2011 `task_events` parser and
//! the Alibaba cluster-trace-v2017 `batch_task` parser behind one
//! [`RealTraceSource`].
//!
//! [`RealTraceSource::load`] returns the jobs in arrival order together
//! with [`ParseStats`] provenance, so callers can decide whether the
//! demand columns are trustworthy before using them — see
//! [`ParseStats::demand_defaulted`] and [`with_synthetic_demands`]. Every
//! file is parsed with the paper's duration window of [1 minute, 2 hours].
//!
//! # Example
//!
//! A real-trace source over an in-memory fixture (the on-disk form is
//! [`RealTraceSource::from_path`]):
//!
//! ```
//! use hierdrl_trace::prelude::*;
//!
//! let csv = "\
//! 100,400,1,1,1,Terminated,50,0.25
//! 900,1500,2,1,1,Terminated,25,0.125";
//! let source = RealTraceSource::from_csv(csv, TraceFormat::AlibabaBatchTask);
//! let (trace, stats) = source.load()?;
//! assert_eq!(stats.jobs_kept, 2);
//! assert_eq!(stats.demand_defaulted, 0);
//! assert_eq!(trace.len(), 2);
//! # Ok::<(), String>(())
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};

use crate::drift::mix_seed;
use crate::google::ParseStats;
use crate::trace::Trace;
use crate::{alibaba, google};
use hierdrl_sim::job::Job;

/// On-disk trace formats with a parser behind [`RealTraceSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFormat {
    /// Google ClusterData-2011 `task_events` CSV ([`crate::google`]).
    GoogleTaskEvents,
    /// Alibaba cluster-trace-v2017 `batch_task` CSV ([`crate::alibaba`]).
    AlibabaBatchTask,
}

impl TraceFormat {
    /// Short stable name, used in CLI flags and report columns.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::GoogleTaskEvents => "google",
            TraceFormat::AlibabaBatchTask => "alibaba",
        }
    }

    /// Inverse of [`TraceFormat::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "google" => Some(TraceFormat::GoogleTaskEvents),
            "alibaba" => Some(TraceFormat::AlibabaBatchTask),
            _ => None,
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Input {
    Path(PathBuf),
    Memory(String),
}

/// An on-disk (or in-memory) real trace file, parsed by the format's
/// parser with the paper's duration window.
#[derive(Debug, Clone, PartialEq)]
pub struct RealTraceSource {
    input: Input,
    /// Which parser reads the bytes.
    pub format: TraceFormat,
}

impl RealTraceSource {
    /// A source reading `path`.
    pub fn from_path(path: impl AsRef<Path>, format: TraceFormat) -> Self {
        Self {
            input: Input::Path(path.as_ref().to_path_buf()),
            format,
        }
    }

    /// An in-memory source over CSV text — for tests and doctests; parses
    /// identically to [`RealTraceSource::from_path`].
    pub fn from_csv(csv: impl Into<String>, format: TraceFormat) -> Self {
        Self {
            input: Input::Memory(csv.into()),
            format,
        }
    }

    /// Human-readable identity of the source: `format:path`, or
    /// `format:<memory>` for [`RealTraceSource::from_csv`].
    pub fn label(&self) -> String {
        match &self.input {
            Input::Path(p) => format!("{}:{}", self.format.name(), p.display()),
            Input::Memory(_) => format!("{}:<memory>", self.format.name()),
        }
    }

    /// Parses the whole file into a trace, along with what the parser did
    /// to the raw rows to produce it.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure (naming the path) or of
    /// the parse failure (prefixed with [`RealTraceSource::label`]).
    pub fn load(&self) -> Result<(Trace, ParseStats), String> {
        match &self.input {
            Input::Path(p) => {
                let file =
                    File::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()))?;
                self.parse(BufReader::new(file))
            }
            Input::Memory(csv) => self.parse(Cursor::new(csv.as_bytes())),
        }
    }

    fn parse<R: std::io::BufRead>(&self, reader: R) -> Result<(Trace, ParseStats), String> {
        let parsed = match self.format {
            TraceFormat::GoogleTaskEvents => google::parse_task_events(reader),
            TraceFormat::AlibabaBatchTask => alibaba::parse_batch_tasks(reader),
        };
        parsed.map_err(|e| format!("{}: {e}", self.label()))
    }
}

/// Replaces every job's demand vector with a deterministic synthetic one
/// derived from `seed` and the job's position — the fallback the suite
/// runner applies when a real trace's [`ParseStats::demand_defaulted`]
/// fraction is too high to trust the demand columns (arrivals and
/// durations are kept; only demands are resampled).
///
/// Components are SplitMix64-derived uniforms: CPU and memory in
/// `[0.05, 0.5]`, disk in `[1e-4, 0.2]` — always valid for a normalized
/// server, and identical across runs and platforms.
pub fn with_synthetic_demands(trace: &Trace, seed: u64) -> Trace {
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    let jobs: Vec<Job> = trace
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let job_seed = mix_seed(seed, i as u64);
            let cpu = 0.05 + 0.45 * unit(mix_seed(job_seed, 1));
            let mem = 0.05 + 0.45 * unit(mix_seed(job_seed, 2));
            let disk = 1e-4 + 0.2 * unit(mix_seed(job_seed, 3));
            Job::new(
                j.id,
                j.arrival,
                j.duration,
                hierdrl_sim::resources::ResourceVec::cpu_mem_disk(cpu, mem, disk),
            )
        })
        .collect();
    Trace::new(jobs).expect("same arrivals, valid demands")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_reports_path_in_error() {
        let source =
            RealTraceSource::from_path("/nonexistent/trace.csv", TraceFormat::GoogleTaskEvents);
        let err = source.load().unwrap_err();
        assert!(err.contains("/nonexistent/trace.csv"), "{err}");
    }

    #[test]
    fn parse_errors_carry_the_source_label() {
        let source = RealTraceSource::from_csv("garbage", TraceFormat::AlibabaBatchTask);
        let err = source.load().unwrap_err();
        assert!(err.contains("alibaba:<memory>"), "{err}");
    }

    #[test]
    fn format_names_round_trip() {
        for f in [TraceFormat::GoogleTaskEvents, TraceFormat::AlibabaBatchTask] {
            assert_eq!(TraceFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(TraceFormat::from_name("swim"), None);
    }

    #[test]
    fn synthetic_demands_are_deterministic_and_bounded() {
        let source = RealTraceSource::from_csv(
            "100,400,1,1,1,Terminated,,\n900,1500,2,1,1,Terminated,,",
            TraceFormat::AlibabaBatchTask,
        );
        let (trace, stats) = source.load().unwrap();
        assert_eq!(stats.demand_defaulted, 2);
        let a = with_synthetic_demands(&trace, 42);
        let b = with_synthetic_demands(&trace, 42);
        assert_eq!(a, b, "same seed, same demands");
        let c = with_synthetic_demands(&trace, 43);
        assert_ne!(a, c, "different seed perturbs demands");
        for (orig, repl) in trace.jobs().iter().zip(a.jobs()) {
            assert_eq!(orig.arrival, repl.arrival);
            assert_eq!(orig.duration, repl.duration);
            for d in repl.demand.as_slice() {
                assert!(*d > 0.0 && *d <= 1.0);
            }
            assert!(repl.demand.get(0) >= 0.05);
        }
    }
}
