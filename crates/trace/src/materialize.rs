//! Synthetic trace recipes.
//!
//! A [`TraceSpec`] is a workload configuration plus an exact job count.
//! The generator is seeded from the configuration, so a spec fully
//! determines its trace: equal specs materialize byte-identical traces,
//! and a caller that replays one spec in many places (a suite runner's
//! policy grid) may generate it once and share the result.
//!
//! # Examples
//!
//! ```
//! use hierdrl_trace::materialize::TraceSpec;
//! use hierdrl_trace::generator::WorkloadConfig;
//!
//! let spec = TraceSpec::new(WorkloadConfig::google_like(7, 95_000.0), 200);
//! let trace = spec.materialize()?;
//! assert_eq!(trace.len(), 200);
//! assert_eq!(trace, spec.materialize()?);
//! # Ok::<(), String>(())
//! ```

use crate::generator::{TraceGenerator, WorkloadConfig};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// A fully-deterministic trace recipe: workload configuration plus exact
/// job count. Two equal specs always materialize byte-identical traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// The synthetic workload configuration (includes the RNG seed).
    pub workload: WorkloadConfig,
    /// Exact number of jobs to generate.
    pub jobs: usize,
}

impl TraceSpec {
    /// A spec for `jobs` jobs of the given workload.
    pub fn new(workload: WorkloadConfig, jobs: usize) -> Self {
        Self { workload, jobs }
    }

    /// Generates the trace.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload configuration is invalid.
    pub fn materialize(&self) -> Result<Trace, String> {
        Ok(TraceGenerator::new(self.workload.clone())?.generate_n(self.jobs))
    }
}
