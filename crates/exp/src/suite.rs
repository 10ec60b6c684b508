//! Declarative sweep grids: a [`Suite`] is the cartesian product of
//! topologies × workloads × drifts × faults × elastics × policies × seeds,
//! built with [`SuiteBuilder`] — plus the declarative [`Expectation`]s the
//! runner evaluates against the finished grid.

use crate::scenario::{
    DriftSpec, ElasticSpec, FaultSpec, PolicySpec, Scenario, Topology, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

/// A declarative acceptance check attached to a [`Suite`], evaluated by
/// the suite runner *after* every cell has run and reported as a pass/fail
/// row in the canonical report and the bench artifact. Expectations turn
/// the acceptance assertions that used to live only in integration tests
/// into first-class, committed suite outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expectation {
    /// Conservation invariant: in every cell, each arrived job completes —
    /// exactly once — even through crash-requeue churn.
    JobConservation {
        /// Row label in the report.
        name: String,
    },
    /// Determinism pin: every matching cell, re-run serially from its
    /// scenario alone, reproduces its report row byte-for-byte.
    DeterminismPin {
        /// Row label in the report.
        name: String,
        /// Substring filter on cell ids.
        cell_contains: String,
    },
    /// The chaos headline: under fault `fault`, policy `policy`'s Eqn.-4
    /// objective degrades by a *smaller* ratio against its own no-fault
    /// twin than `baseline`'s does (within `tolerance` slack on the
    /// ratio-of-ratios).
    GracefulDegradation {
        /// Row label in the report.
        name: String,
        /// Fault name (the `%fault` id component) to compare under.
        fault: String,
        /// The policy expected to degrade gracefully.
        policy: String,
        /// The policy it must beat.
        baseline: String,
        /// Multiplicative slack: pass iff
        /// `ratio(policy) <= ratio(baseline) * tolerance`.
        tolerance: f64,
    },
    /// The elastic headline: under autoscale schedule `elastic`, policy
    /// `policy` spends no more energy per job than its fixed-fleet twin
    /// (the cell whose id lacks the `~elastic` component), within
    /// `energy_tolerance`, while holding mean latency within
    /// `latency_slack` — scale-down economics must beat (or at worst
    /// match) keeping the whole fleet DPM-sleeping, at equal latency.
    AutoscaleEconomics {
        /// Row label in the report.
        name: String,
        /// Elastic-schedule name (the `~elastic` id component).
        elastic: String,
        /// The policy compared against its own fixed-fleet twin.
        policy: String,
        /// Pass iff mean energy-per-job ratio `<= energy_tolerance`.
        energy_tolerance: f64,
        /// Pass iff mean latency ratio `<= latency_slack`.
        latency_slack: f64,
    },
}

impl Expectation {
    /// The row label.
    pub fn name(&self) -> &str {
        match self {
            Expectation::JobConservation { name }
            | Expectation::DeterminismPin { name, .. }
            | Expectation::GracefulDegradation { name, .. }
            | Expectation::AutoscaleEconomics { name, .. } => name,
        }
    }
}

/// A named collection of scenarios, executed together by the suite runner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suite {
    /// Suite name (used in reports and artifacts).
    pub name: String,
    /// The grid cells, in deterministic builder order.
    pub scenarios: Vec<Scenario>,
    /// Declarative acceptance checks, evaluated after the grid runs.
    pub expectations: Vec<Expectation>,
}

impl Suite {
    /// Starts a grid builder.
    pub fn builder(name: impl Into<String>) -> SuiteBuilder {
        SuiteBuilder {
            name: name.into(),
            topologies: Vec::new(),
            workloads: Vec::new(),
            drifts: vec![None],
            faults: vec![None],
            elastics: vec![None],
            policies: Vec::new(),
            seeds: Vec::new(),
            max_jobs: None,
            expectations: Vec::new(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the suite has no cells.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Cartesian grid builder for [`Suite`].
///
/// Cells expand in nesting order topology → workload → drift → fault →
/// elastic → policy → seed, so a suite's scenario order (and therefore its
/// report) is independent of how it is executed. The drift, fault, and
/// elastic axes each default to one empty entry, leaving classic grids
/// (and their cell ids) exactly as before.
#[derive(Debug, Clone)]
pub struct SuiteBuilder {
    name: String,
    topologies: Vec<Topology>,
    workloads: Vec<WorkloadSpec>,
    drifts: Vec<Option<DriftSpec>>,
    faults: Vec<Option<FaultSpec>>,
    elastics: Vec<Option<ElasticSpec>>,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
    max_jobs: Option<u64>,
    expectations: Vec<Expectation>,
}

impl SuiteBuilder {
    /// Sets the cluster topologies axis.
    #[must_use]
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = Topology>) -> Self {
        self.topologies = topologies.into_iter().collect();
        self
    }

    /// Sets the workloads axis.
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the concept-drift axis: every cell runs each drift's segments
    /// under carried learners. Replaces the default drift-free entry; use
    /// [`SuiteBuilder::drifts_with_baseline`] to keep it alongside.
    #[must_use]
    pub fn drifts(mut self, drifts: impl IntoIterator<Item = DriftSpec>) -> Self {
        self.drifts = drifts.into_iter().map(Some).collect();
        self
    }

    /// Like [`SuiteBuilder::drifts`], but keeps the drift-free single
    /// -trace cell as the first entry of the axis.
    #[must_use]
    pub fn drifts_with_baseline(mut self, drifts: impl IntoIterator<Item = DriftSpec>) -> Self {
        self.drifts = std::iter::once(None)
            .chain(drifts.into_iter().map(Some))
            .collect();
        self
    }

    /// Sets the chaos axis: every cell runs under each fault schedule.
    /// Replaces the default fault-free entry; use
    /// [`SuiteBuilder::faults_with_baseline`] to keep it alongside.
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = faults.into_iter().map(Some).collect();
        self
    }

    /// Like [`SuiteBuilder::faults`], but keeps the fault-free cell as the
    /// first entry of the axis — every fault cell's no-fault twin, which
    /// graceful-degradation expectations compare against.
    #[must_use]
    pub fn faults_with_baseline(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = std::iter::once(None)
            .chain(faults.into_iter().map(Some))
            .collect();
        self
    }

    /// Sets the elastic axis: every cell runs under each autoscale
    /// schedule. Replaces the default fixed-fleet entry; use
    /// [`SuiteBuilder::elastics_with_baseline`] to keep it alongside.
    #[must_use]
    pub fn elastics(mut self, elastics: impl IntoIterator<Item = ElasticSpec>) -> Self {
        self.elastics = elastics.into_iter().map(Some).collect();
        self
    }

    /// Like [`SuiteBuilder::elastics`], but keeps the fixed-fleet cell as
    /// the first entry of the axis — every elastic cell's fixed twin,
    /// which autoscale-economics expectations compare against.
    #[must_use]
    pub fn elastics_with_baseline(
        mut self,
        elastics: impl IntoIterator<Item = ElasticSpec>,
    ) -> Self {
        self.elastics = std::iter::once(None)
            .chain(elastics.into_iter().map(Some))
            .collect();
        self
    }

    /// Attaches a declarative acceptance check to the suite.
    #[must_use]
    pub fn expect(mut self, expectation: Expectation) -> Self {
        self.expectations.push(expectation);
        self
    }

    /// Sets the policies axis.
    #[must_use]
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicySpec>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Sets the seeds axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Caps every cell's arrival stream at `n` jobs per evaluation segment
    /// (see [`Scenario::max_jobs`]).
    #[must_use]
    pub fn limit_jobs(mut self, n: u64) -> Self {
        self.max_jobs = Some(n);
        self
    }

    /// Expands the grid.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty — an empty axis silently producing zero
    /// cells is always a bug in the caller.
    pub fn build(self) -> Suite {
        assert!(!self.topologies.is_empty(), "suite needs >= 1 topology");
        assert!(!self.workloads.is_empty(), "suite needs >= 1 workload");
        assert!(!self.drifts.is_empty(), "suite needs >= 1 drift entry");
        assert!(!self.faults.is_empty(), "suite needs >= 1 fault entry");
        assert!(!self.elastics.is_empty(), "suite needs >= 1 elastic entry");
        assert!(!self.policies.is_empty(), "suite needs >= 1 policy");
        assert!(!self.seeds.is_empty(), "suite needs >= 1 seed");
        let mut scenarios = Vec::with_capacity(
            self.topologies.len()
                * self.workloads.len()
                * self.drifts.len()
                * self.faults.len()
                * self.elastics.len()
                * self.policies.len()
                * self.seeds.len(),
        );
        for topology in &self.topologies {
            for workload in &self.workloads {
                for drift in &self.drifts {
                    for fault in &self.faults {
                        for elastic in &self.elastics {
                            for policy in &self.policies {
                                for &seed in &self.seeds {
                                    let mut scenario = Scenario::new(
                                        topology.clone(),
                                        workload.clone(),
                                        policy.clone(),
                                        seed,
                                        self.max_jobs,
                                    );
                                    if let Some(d) = drift {
                                        scenario = scenario.with_drift(d.clone());
                                    }
                                    if let Some(f) = fault {
                                        scenario = scenario.with_fault(f.clone());
                                    }
                                    if let Some(e) = elastic {
                                        scenario = scenario.with_elastic(*e);
                                    }
                                    scenarios.push(scenario);
                                }
                            }
                        }
                    }
                }
            }
        }
        Suite {
            name: self.name,
            scenarios,
            expectations: self.expectations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_in_cartesian_order() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4), Topology::paper(6)])
            .workloads([WorkloadSpec::paper()])
            .policies([PolicySpec::round_robin(), PolicySpec::drl_only()])
            .seeds([1, 2])
            .build();
        assert_eq!(suite.len(), 8);
        assert_eq!(suite.scenarios[0].id, "paper-m4/paper/round-robin/s1");
        assert_eq!(suite.scenarios[1].id, "paper-m4/paper/round-robin/s2");
        assert_eq!(suite.scenarios[2].id, "paper-m4/paper/drl-only/s1");
        assert_eq!(suite.scenarios[4].id, "paper-m6/paper/round-robin/s1");
    }

    #[test]
    fn drift_axis_expands_between_workload_and_policy() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .drifts_with_baseline([DriftSpec::rate_step(2.0)])
            .policies([PolicySpec::round_robin(), PolicySpec::drl_only()])
            .seeds([1])
            .build();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.scenarios[0].id, "paper-m4/paper/round-robin/s1");
        assert_eq!(suite.scenarios[1].id, "paper-m4/paper/drl-only/s1");
        assert_eq!(
            suite.scenarios[2].id,
            "paper-m4/paper@rate-step-x2/round-robin/s1"
        );
        assert_eq!(
            suite.scenarios[3].id,
            "paper-m4/paper@rate-step-x2/drl-only/s1"
        );
        assert_eq!(suite.scenarios[2].num_segments(), 2);

        // `.drifts` without the baseline replaces the drift-free entry.
        let pure = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .drifts([DriftSpec::stationary(3)])
            .policies([PolicySpec::round_robin()])
            .seeds([1])
            .build();
        assert_eq!(pure.len(), 1);
        assert_eq!(pure.scenarios[0].num_segments(), 3);
    }

    #[test]
    fn fault_axis_expands_between_drift_and_policy() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .faults_with_baseline([FaultSpec::crash_storm()])
            .policies([PolicySpec::round_robin(), PolicySpec::drl_only()])
            .seeds([1])
            .build();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.scenarios[0].id, "paper-m4/paper/round-robin/s1");
        assert_eq!(suite.scenarios[1].id, "paper-m4/paper/drl-only/s1");
        assert_eq!(
            suite.scenarios[2].id,
            "paper-m4/paper%crash-storm/round-robin/s1"
        );
        assert_eq!(
            suite.scenarios[3].id,
            "paper-m4/paper%crash-storm/drl-only/s1"
        );

        // `.faults` without the baseline replaces the fault-free entry,
        // and the axes compose: drift nests outside fault.
        let both = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .drifts([DriftSpec::rate_step(2.0)])
            .faults([FaultSpec::cap_window()])
            .policies([PolicySpec::round_robin()])
            .seeds([1])
            .build();
        assert_eq!(both.len(), 1);
        assert_eq!(
            both.scenarios[0].id,
            "paper-m4/paper@rate-step-x2%cap-window/round-robin/s1"
        );
    }

    #[test]
    fn elastic_axis_expands_between_fault_and_policy() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .elastics_with_baseline([ElasticSpec::Threshold])
            .policies([PolicySpec::round_robin(), PolicySpec::drl_only()])
            .seeds([1])
            .build();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.scenarios[0].id, "paper-m4/paper/round-robin/s1");
        assert_eq!(
            suite.scenarios[2].id,
            "paper-m4/paper~threshold/round-robin/s1"
        );
        assert_eq!(
            suite.scenarios[3].id,
            "paper-m4/paper~threshold/drl-only/s1"
        );

        // `.elastics` without the baseline replaces the fixed-fleet entry,
        // and the axes compose: fault nests outside elastic.
        let both = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .faults([FaultSpec::cap_window()])
            .elastics([ElasticSpec::Learned])
            .policies([PolicySpec::round_robin()])
            .seeds([1])
            .build();
        assert_eq!(both.len(), 1);
        assert_eq!(
            both.scenarios[0].id,
            "paper-m4/paper%cap-window~learned/round-robin/s1"
        );
    }

    #[test]
    fn expectations_ride_the_suite() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .policies([PolicySpec::round_robin()])
            .seeds([1])
            .expect(Expectation::JobConservation {
                name: "conserved".into(),
            })
            .expect(Expectation::GracefulDegradation {
                name: "graceful".into(),
                fault: "crash-storm".into(),
                policy: "hierarchical".into(),
                baseline: "round-robin".into(),
                tolerance: 1.0,
            })
            .build();
        assert_eq!(suite.expectations.len(), 2);
        assert_eq!(suite.expectations[0].name(), "conserved");
        assert_eq!(suite.expectations[1].name(), "graceful");
        // The expectations survive a serde round trip with the grid.
        let json = serde_json::to_string(&suite).unwrap();
        let back: Suite = serde_json::from_str(&json).unwrap();
        assert_eq!(back, suite);
    }

    #[test]
    fn limit_applies_to_every_cell() {
        let suite = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .policies([PolicySpec::round_robin()])
            .seeds([1])
            .limit_jobs(50)
            .build();
        assert_eq!(suite.scenarios[0].max_jobs, Some(50));
    }

    #[test]
    #[should_panic(expected = "suite needs >= 1 policy")]
    fn empty_axis_is_rejected() {
        let _ = Suite::builder("t")
            .topologies([Topology::paper(4)])
            .workloads([WorkloadSpec::paper()])
            .seeds([1])
            .build();
    }
}
