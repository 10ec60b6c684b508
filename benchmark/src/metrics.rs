//! The metrics the benchmark reports, and the result line it prints.

use crate::workload::WORKLOADS;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Declared {
    Declared { name, unit, better }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [Declared; 6] = [
    metric("jobs_per_s", "jobs/s", "higher"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mib", "MiB", "lower"),
    metric("energy_per_job_j", "J/job", "lower"),
    metric("mean_latency_s", "s", "lower"),
    metric("jobs_completed_frac", "fraction", "higher"),
];

/// Single layers, measured by the traced run.
pub const PER_LAYER: [Declared; 24] = [
    metric("core.allocator.learn_s", "s", "lower"),
    metric("core.allocator.train_steps", "count", "lower"),
    metric("core.state.encode_s", "s", "lower"),
    metric("core.dqn.q_values_s", "s", "lower"),
    metric("core.allocator.select_s", "s", "lower"),
    metric("core.allocator.select_us_p50", "us", "lower"),
    metric("core.allocator.select_us_p99", "us", "lower"),
    metric("core.allocator.decisions", "count", "lower"),
    metric("core.dpm.on_job_arrival_s", "s", "lower"),
    metric("core.predictor.observations", "count", "lower"),
    metric("core.predictor.rejected", "count", "lower"),
    metric("core.dpm.on_idle_s", "s", "lower"),
    metric("core.dpm.idle_decisions", "count", "lower"),
    metric("core.dpm.q_updates", "count", "lower"),
    metric("sim.kernel_s", "s", "lower"),
    metric("sim.jobs_arrived", "count", "higher"),
    metric("sim.jobs_completed", "count", "higher"),
    metric("sim.wake_transitions", "count", "lower"),
    metric("trace.stream_s", "s", "lower"),
    metric("trace.materialize_s", "s", "lower"),
    metric("core.pretrain_s", "s", "lower"),
    metric("core.pretrain_decisions", "count", "lower"),
    metric("bench.eval_s", "s", "lower"),
    metric("bench.tracing_overhead_pct", "%", "lower"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    /// The number, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The benchmark's result: the last line of its standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Jobs that arrived, over every measured evaluation.
    pub attempted: u64,
    /// Jobs that arrived but did not complete.
    pub failed: u64,
    /// Every declared metric of the run's kind, by name.
    pub metrics: BTreeMap<String, Value>,
}

impl Outcome {
    /// Builds the metric map from `(name, value)` pairs, taking each unit
    /// from `declared`.
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not name exactly the declared metrics.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        declared: &[Declared],
        values: &[(&str, f64)],
    ) -> Self {
        let metrics: BTreeMap<String, Value> = values
            .iter()
            .map(|&(name, value)| {
                let d = declared
                    .iter()
                    .find(|d| d.name == name)
                    .unwrap_or_else(|| panic!("metric {name} is not declared"));
                let unit = d.unit.to_string();
                (name.to_string(), Value { value, unit })
            })
            .collect();
        assert_eq!(metrics.len(), declared.len(), "every declared metric, once");
        Self {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// Names of metrics whose value is not finite.
    pub fn non_finite(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|(_, v)| !v.value.is_finite())
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

/// The parts of `BENCHMARK.json` the benchmark reads back.
#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    /// Declared workloads.
    pub workloads: Vec<ManifestWorkload>,
    /// Declared end-to-end metrics, with their bounds.
    pub end_to_end: Vec<ManifestMetric>,
    /// Declared per-layer metrics.
    pub per_layer: Vec<ManifestMetric>,
}

/// A workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct ManifestWorkload {
    /// Workload name.
    pub name: String,
}

/// A metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct ManifestMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    #[serde(default)]
    pub bound: Option<f64>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the repository root.
    ///
    /// # Errors
    ///
    /// Returns an error if the file is missing or malformed.
    pub fn load() -> Result<Self, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The declared bound of an end-to-end metric.
    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    }

    /// Checks that the file declares exactly the workloads and metrics this
    /// binary emits, in the same order, with the same units.
    ///
    /// # Errors
    ///
    /// Names the first list that differs.
    pub fn check_declared(&self) -> Result<(), String> {
        let workloads: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        if workloads != ours {
            return Err(format!(
                "BENCHMARK.json workloads {workloads:?} != {ours:?}"
            ));
        }
        for (kind, declared, listed) in [
            ("end_to_end", &END_TO_END[..], &self.end_to_end),
            ("per_layer", &PER_LAYER[..], &self.per_layer),
        ] {
            let ours: Vec<(&str, &str, &str)> = declared
                .iter()
                .map(|d| (d.name, d.unit, d.better))
                .collect();
            let theirs: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
                .collect();
            if ours != theirs {
                return Err(format!("BENCHMARK.json {kind} {theirs:?} != {ours:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        let manifest = Manifest::load().unwrap();
        manifest.check_declared().unwrap();
        let workloads = WORKLOADS.iter().map(|w| w.name());
        for name in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(workloads)
        {
            assert!(valid_name(name), "{name:?}");
        }
        for m in &manifest.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        // Set-up time carries the largest bound, so work moved into set-up
        // shows without making set-up noise a failure.
        let setup = manifest.bound("setup_s").unwrap();
        assert!(manifest.end_to_end.iter().all(|m| m.bound <= Some(setup)));
    }

    #[test]
    fn outcome_line_has_the_contract_shape() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let outcome = Outcome::new(true, 10, 0, &END_TO_END, &values);
        let line = serde_json::to_string(&outcome).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""jobs_per_s":{"value":1.5,"unit":"jobs/s"}"#));
        let back: Outcome = serde_json::from_str(&line).unwrap();
        assert_eq!(back, outcome);
        assert!(outcome.non_finite().is_empty());
    }
}
