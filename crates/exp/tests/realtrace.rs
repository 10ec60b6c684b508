//! Integration tests for the real-trace grid: serial-vs-parallel
//! byte-identity over the committed fixtures, pinned provenance columns,
//! the demand gate's synthetic-demand fallback, and the online-vs-frozen
//! ablation on the trace's own wall-clock weeks.

use hierdrl_exp::prelude::*;
use hierdrl_exp::report::CellReport;
use hierdrl_trace::source::TraceFormat;

fn fixture(name: &str) -> String {
    format!(
        "{}/../trace/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn google_workload() -> WorkloadSpec {
    WorkloadSpec::real_trace(
        "real-google",
        fixture("google_task_events.csv"),
        TraceFormat::GoogleTaskEvents,
    )
}

fn alibaba_workload() -> WorkloadSpec {
    WorkloadSpec::real_trace(
        "real-alibaba",
        fixture("alibaba_batch_task.csv"),
        TraceFormat::AlibabaBatchTask,
    )
}

#[test]
fn realtrace_suite_is_byte_identical_serial_vs_parallel() {
    let suite = presets::realtrace(4, [google_workload(), alibaba_workload()]);
    let parallel = SuiteRunner::new().run(&suite).expect("parallel run");
    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    assert_eq!(parallel.report().to_json(), serial.report().to_json());
}

#[test]
fn realtrace_cells_carry_pinned_provenance_columns() {
    let suite = Suite::builder("prov")
        .topologies([Topology::paper(4)])
        .workloads([google_workload(), alibaba_workload()])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    let run = SuiteRunner::serial().run(&suite).expect("run");
    let report = run.report();
    let by_workload = |name: &str| -> &CellReport {
        report
            .cells
            .iter()
            .find(|c| c.workload == name)
            .expect("workload cell present")
    };
    let google = by_workload("real-google")
        .trace
        .as_ref()
        .expect("provenance");
    assert_eq!(google.format, "google");
    assert_eq!(google.rows, 381);
    assert_eq!(google.jobs_kept, 120);
    assert_eq!(google.jobs_dropped, 9);
    assert_eq!(google.demand_defaulted, 8);
    assert!(
        !google.synthetic_demand,
        "8/120 stays under the default gate"
    );
    let alibaba = by_workload("real-alibaba")
        .trace
        .as_ref()
        .expect("provenance");
    assert_eq!(alibaba.format, "alibaba");
    assert_eq!(alibaba.rows, 152);
    assert_eq!(alibaba.jobs_kept, 130);
    assert_eq!(alibaba.jobs_dropped, 22);
    assert_eq!(alibaba.demand_defaulted, 7);
    assert!(!alibaba.synthetic_demand);
    // Synthetic cells never carry the block.
    let synth = Suite::builder("synth")
        .topologies([Topology::paper(4)])
        .workloads([WorkloadSpec::paper().with_total_jobs(100)])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    let run = SuiteRunner::serial().run(&synth).expect("run");
    assert_eq!(run.report().cells[0].trace, None);
}

#[test]
fn tightened_demand_gate_falls_back_to_synthetic_demands() {
    // 8/120 defaulted ≈ 6.7%: over a 5% gate, under the 25% default. The
    // fallback must keep the file's arrival process (same jobs, same
    // count) while changing the run (different demands -> different
    // metrics).
    let trusted = Suite::builder("trusted")
        .topologies([Topology::paper(4)])
        .workloads([google_workload()])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    let gated = Suite::builder("gated")
        .topologies([Topology::paper(4)])
        .workloads([google_workload().with_demand_gate(0.05)])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    let trusted = SuiteRunner::serial().run(&trusted).expect("run");
    let gated = SuiteRunner::serial().run(&gated).expect("run");
    let (t, g) = (&trusted.report().cells[0], &gated.report().cells[0]);
    assert!(!t.trace.as_ref().unwrap().synthetic_demand);
    assert!(g.trace.as_ref().unwrap().synthetic_demand);
    assert_eq!(t.metrics.jobs_completed, g.metrics.jobs_completed);
    assert_ne!(
        t.metrics.energy_kwh, g.metrics.energy_kwh,
        "re-drawn demands change the energy integral"
    );
}

#[test]
fn real_weeks_cells_report_one_row_per_wall_clock_week() {
    let suite = Suite::builder("weeks")
        .topologies([Topology::paper(4)])
        .workloads([google_workload()])
        .drifts([DriftSpec::real_segments()])
        .policies([PolicySpec::round_robin()])
        .seeds([1])
        .build();
    let run = SuiteRunner::serial().run(&suite).expect("run");
    let cell = &run.report().cells[0];
    let segments = cell.segments.as_ref().expect("segment rows");
    // The 25-day fixture spans four weekly windows (sizes pinned in the
    // trace crate's fixture tests).
    assert_eq!(segments.len(), 4);
    let jobs: Vec<u64> = segments.iter().map(|s| s.metrics.jobs_completed).collect();
    assert_eq!(jobs, [35, 39, 29, 17]);
    for (i, seg) in segments.iter().enumerate() {
        assert_eq!(seg.shift, format!("week{i}"));
    }
}

#[test]
fn frozen_twin_stops_training_across_real_weeks() {
    let mk = |frozen: bool| {
        let drift = if frozen {
            DriftSpec::real_segments().with_frozen_learners()
        } else {
            DriftSpec::real_segments()
        };
        Suite::builder("ablate")
            .topologies([Topology::paper(4)])
            .workloads([google_workload()])
            .drifts([drift])
            .policies([PolicySpec::drl_only()])
            .seeds([1])
            .build()
    };
    let online = SuiteRunner::serial().run(&mk(false)).expect("online run");
    let frozen = SuiteRunner::serial().run(&mk(true)).expect("frozen run");
    let steps = |run: &SuiteRun| -> Vec<u64> {
        run.report().cells[0]
            .segments
            .as_ref()
            .expect("segment rows")
            .iter()
            .map(|s| s.drl.expect("learned policy stats").train_steps)
            .collect()
    };
    let online_steps = steps(&online);
    let frozen_steps = steps(&frozen);
    assert!(
        online_steps.windows(2).all(|w| w[0] < w[1]),
        "online training keeps accumulating across weeks: {online_steps:?}"
    );
    assert!(
        frozen_steps.windows(2).all(|w| w[0] == w[1]),
        "frozen learners stop at the pre-training step count: {frozen_steps:?}"
    );
}

#[test]
fn empty_real_trace_is_a_named_error_not_a_panic() {
    // A lone submit row is an incomplete lifecycle: the file parses
    // cleanly to zero jobs. With and without the drift axis, the cell must
    // fail with an error naming the cell and the file.
    let path = std::env::temp_dir().join(format!("hierdrl-empty-trace-{}.csv", std::process::id()));
    std::fs::write(&path, "1000000,,7,0,42,0,user,2,5,0.25,0.125,0.01,0\n").expect("write");
    let empty = WorkloadSpec::real_trace(
        "real-empty",
        path.to_string_lossy(),
        TraceFormat::GoogleTaskEvents,
    );
    for drift in [None, Some(DriftSpec::real_segments())] {
        let mut builder = Suite::builder("empty")
            .topologies([Topology::paper(4)])
            .workloads([empty.clone()])
            .policies([PolicySpec::round_robin()])
            .seeds([1]);
        if let Some(drift) = drift {
            builder = builder.drifts([drift]);
        }
        let suite = builder.build();
        let err = SuiteRunner::serial()
            .run(&suite)
            .expect_err("an empty trace has nothing to replay");
        assert!(err.contains("empty real trace"), "{err}");
        assert!(err.contains(&suite.scenarios[0].id), "{err}");
        assert!(err.contains(&format!("google:{}", path.display())), "{err}");
    }
    std::fs::remove_file(&path).expect("remove");
}
