//! # hierdrl-trace
//!
//! Workload substrate for the hierarchical DRL framework: synthetic
//! Google-cluster-style trace recipes ([`materialize::TraceSpec`],
//! materialized into a [`trace::Trace`] or streamed by
//! [`stream::GeneratorStream`]), trace statistics/slicing, and parsers for
//! two real cluster-trace formats behind [`source::RealTraceSource`].
//!
//! The paper evaluates on the May-2011 Google cluster-usage traces, split
//! into ~week-long segments of ~100,000 jobs for a 30–40 machine cluster,
//! with job durations clipped to [1 minute, 2 hours]. Since the real trace
//! is not redistributable, [`generator::WorkloadConfig::google_like`]
//! produces synthetic traces with the same marginals (arrival rate, duration
//! law, demand law) and realistic non-stationarity (diurnal + weekend
//! cycles) — and stays the default workload source. Users who have real
//! trace files feed them in through [`source::RealTraceSource`]:
//! [`google::parse_task_events`] reads the Google ClusterData `task_events`
//! tables and [`alibaba::parse_batch_tasks`] reads the Alibaba
//! cluster-trace-v2017 `batch_task` table, both keeping the paper's
//! duration window and reporting [`google::ParseStats`] provenance so
//! consumers can gate on data quality.
//!
//! # Examples
//!
//! Synthetic generation:
//!
//! ```
//! use hierdrl_trace::prelude::*;
//!
//! // One day of a ~95k-jobs/week workload.
//! let config = WorkloadConfig::google_like(42, 95_000.0);
//! let trace = TraceGenerator::new(config)?.generate(86_400.0);
//! let stats = trace.stats().unwrap();
//! assert!(stats.count > 10_000);
//! assert!(stats.mean_duration_s >= 60.0 && stats.mean_duration_s <= 7200.0);
//! # Ok::<(), String>(())
//! ```
//!
//! The two arrival paths: a synthetic recipe, materialized or streamed
//! byte-identically, and a real trace file:
//!
//! ```
//! use hierdrl_trace::prelude::*;
//!
//! let spec = TraceSpec::new(WorkloadConfig::google_like(42, 60_000.0), 500);
//! let trace = spec.materialize()?;
//! let streamed: Vec<_> = spec.stream()?.collect();
//! assert_eq!(trace.jobs(), streamed.as_slice());
//!
//! let source = RealTraceSource::from_csv(
//!     "0,300,1,1,1,Terminated,50,0.25",
//!     TraceFormat::AlibabaBatchTask,
//! );
//! let (trace, stats) = source.load()?;
//! assert_eq!(stats.jobs_kept, trace.len());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alibaba;
pub mod distributions;
pub mod drift;
pub mod generator;
pub mod google;
pub mod materialize;
pub mod pattern;
pub mod source;
pub mod stream;
pub mod trace;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::alibaba::parse_batch_tasks;
    pub use crate::distributions::Dist;
    pub use crate::drift::{mix_seed, SegmentShift, SegmentedTraceSpec};
    pub use crate::generator::{TraceGenerator, WorkloadConfig};
    pub use crate::google::{parse_task_events, ParseError, ParseStats};
    pub use crate::materialize::TraceSpec;
    pub use crate::pattern::{ArrivalPattern, SECS_PER_DAY, SECS_PER_WEEK};
    pub use crate::source::{with_synthetic_demands, RealTraceSource, TraceFormat};
    pub use crate::stream::GeneratorStream;
    pub use crate::trace::{Trace, TraceError, TraceStats};
}
