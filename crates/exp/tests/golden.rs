//! Golden-file test of the canonical [`SuiteReport`] JSON: downstream
//! tooling (plot scripts, the perf-trajectory tracker) parses this schema,
//! so renaming, reordering, or retyping a field must fail loudly here
//! instead of drifting silently.
//!
//! The report is built from fixed values (no simulation), so the golden
//! file only pins the *schema*, never simulator behaviour. To regenerate
//! after an intentional schema change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hierdrl-exp --test golden
//! ```

use hierdrl_core::allocator::DrlStats;
use hierdrl_exp::report::{
    CellMetrics, CellReport, ExpectationRow, FleetSize, SegmentReport, ShardReport, SuiteReport,
};
use std::path::PathBuf;

fn metrics(scale: f64) -> CellMetrics {
    CellMetrics {
        jobs_completed: (100.0 * scale) as u64,
        energy_kwh: 1.25 * scale,
        latency_mega_s: 0.005 * scale,
        average_power_w: 450.0 * scale,
        mean_latency_s: 50.0,
        energy_per_job_j: 45_000.0,
        sleep_fraction: 0.25,
        wake_transitions: (12.0 * scale) as u64,
        span_hours: 10.0,
    }
}

fn drl_stats(train_steps: u64) -> DrlStats {
    DrlStats {
        decisions: 1500,
        train_steps,
        loss_ema: 0.125,
        autoencoder_trained: true,
        autoencoder_loss: 0.03125,
    }
}

/// A fixed report exercising every schema branch: a single-cluster cell
/// with learner statistics, a sharded cell with per-cluster rows, a
/// concept-drift cell with per-segment rows, a chaos cell with its fault
/// column and requeue counter, an autoscaled cell with its elastic column
/// and fleet-size bounds, and evaluated expectation rows.
fn canonical_report() -> SuiteReport {
    SuiteReport {
        suite: "golden".to_string(),
        cells: vec![
            CellReport {
                id: "paper-m5/paper/drl-only/s7".to_string(),
                topology: "paper-m5".to_string(),
                servers: 5,
                capacity_total: 5.0,
                capacity_skew: 1.0,
                workload: "paper".to_string(),
                fault: None,
                elastic: None,
                policy: "drl-only".to_string(),
                seed: 7,
                metrics: metrics(1.0),
                jobs_requeued: 0,
                fleet_size: FleetSize::fixed(5),
                drl: Some(drl_stats(550)),
                segments: None,
                clusters: None,
                trace: None,
            },
            CellReport {
                id: "paper-c2m6-rr/paper/round-robin/s7".to_string(),
                topology: "paper-c2m6-rr".to_string(),
                servers: 6,
                capacity_total: 9.0,
                capacity_skew: 2.0,
                workload: "paper".to_string(),
                fault: None,
                elastic: None,
                policy: "round-robin".to_string(),
                seed: 7,
                metrics: metrics(2.0),
                jobs_requeued: 0,
                fleet_size: FleetSize::fixed(6),
                drl: None,
                segments: None,
                trace: None,
                clusters: Some(vec![
                    ShardReport {
                        cluster: 0,
                        servers: 3,
                        jobs_routed: 100,
                        metrics: metrics(1.0),
                        drl: None,
                    },
                    ShardReport {
                        cluster: 1,
                        servers: 3,
                        jobs_routed: 100,
                        metrics: metrics(1.0),
                        drl: None,
                    },
                ]),
            },
            CellReport {
                id: "paper-m5/paper@rate-step-x2/drl-only/s7".to_string(),
                topology: "paper-m5".to_string(),
                servers: 5,
                capacity_total: 5.0,
                capacity_skew: 1.0,
                workload: "paper".to_string(),
                fault: None,
                elastic: None,
                policy: "drl-only".to_string(),
                seed: 7,
                metrics: metrics(2.0),
                jobs_requeued: 0,
                fleet_size: FleetSize::fixed(5),
                drl: Some(drl_stats(700)),
                segments: Some(vec![
                    SegmentReport {
                        segment: 0,
                        shift: "stationary".to_string(),
                        metrics: metrics(1.0),
                        drl: Some(drl_stats(620)),
                    },
                    SegmentReport {
                        segment: 1,
                        shift: "rate-x2".to_string(),
                        metrics: metrics(1.0),
                        drl: Some(drl_stats(700)),
                    },
                ]),
                clusters: None,
                trace: None,
            },
            CellReport {
                id: "paper-m5/paper%crash-storm/hierarchical/s7".to_string(),
                topology: "paper-m5".to_string(),
                servers: 5,
                capacity_total: 5.0,
                capacity_skew: 1.0,
                workload: "paper".to_string(),
                fault: Some("crash-storm".to_string()),
                elastic: None,
                policy: "hierarchical".to_string(),
                seed: 7,
                metrics: metrics(1.0),
                jobs_requeued: 17,
                fleet_size: FleetSize::fixed(5),
                drl: Some(drl_stats(550)),
                segments: None,
                clusters: None,
                trace: None,
            },
            CellReport {
                id: "paper-m5/paper~threshold/hierarchical/s7".to_string(),
                topology: "paper-m5".to_string(),
                servers: 5,
                capacity_total: 5.0,
                capacity_skew: 1.0,
                workload: "paper".to_string(),
                fault: None,
                elastic: Some("threshold".to_string()),
                policy: "hierarchical".to_string(),
                seed: 7,
                metrics: metrics(1.0),
                jobs_requeued: 4,
                fleet_size: FleetSize {
                    min: 3,
                    max: 7,
                    mean: 4.75,
                },
                drl: Some(drl_stats(550)),
                segments: None,
                clusters: None,
                trace: None,
            },
        ],
        expectations: vec![
            ExpectationRow {
                name: "jobs-conserved".to_string(),
                passed: true,
                detail: "500 jobs completed exactly once across 5 cells (21 crash requeues)"
                    .to_string(),
            },
            ExpectationRow {
                name: "autoscale-threshold".to_string(),
                passed: true,
                detail: "~threshold hierarchical energy/job 0.930x (tolerance 1), \
                         latency 1.020x (slack 1.1) vs fixed fleet"
                    .to_string(),
            },
            ExpectationRow {
                name: "graceful-under-crash-storm".to_string(),
                passed: true,
                detail: "hierarchical degrades 1.150x vs round-robin 1.400x under \
                         %crash-storm (tolerance 1)"
                    .to_string(),
            },
        ],
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("suite_report.json")
}

#[test]
fn suite_report_schema_matches_golden_file() {
    let rendered = canonical_report().to_json_pretty() + "\n";
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(
        rendered,
        committed,
        "SuiteReport JSON schema drifted from {}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn golden_report_round_trips_through_json() {
    let report = canonical_report();
    let back: SuiteReport =
        serde_json::from_str(&report.to_json()).expect("canonical JSON deserializes");
    assert_eq!(back, report);
}
