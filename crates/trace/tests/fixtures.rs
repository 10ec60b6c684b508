//! Committed-fixture tests for the real-trace backends: parser provenance
//! pinned counter by counter, weekly wall-clock segmentation, and the
//! arrival-path contract that a stream-fed simulation run is
//! byte-identical to a run over the pre-materialized trace.
//!
//! The fixtures live in `tests/fixtures/` and are regenerated by
//! `tests/fixtures/regen.py` (deterministic; see `crates/trace/README.md`).
//! Any change there must update the pins here in the same commit.

use hierdrl_sim::cluster::{ArrivalSource, Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::pattern::SECS_PER_WEEK;
use hierdrl_trace::source::{RealTraceSource, TraceFormat};
use proptest::prelude::*;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The committed Google fixture's source over the paper duration window.
fn google_fixture() -> RealTraceSource {
    RealTraceSource::from_path(
        fixture_path("google_task_events.csv"),
        TraceFormat::GoogleTaskEvents,
    )
}

/// The committed Alibaba fixture's source over the paper duration window.
fn alibaba_fixture() -> RealTraceSource {
    RealTraceSource::from_path(
        fixture_path("alibaba_batch_task.csv"),
        TraceFormat::AlibabaBatchTask,
    )
}

#[test]
fn google_fixture_provenance_is_pinned() {
    let (trace, stats) = google_fixture().load().unwrap();
    assert_eq!(stats.rows, 381);
    assert_eq!(stats.tasks_seen, 129);
    assert_eq!(stats.incomplete_dropped, 3);
    assert_eq!(stats.nonpositive_duration_dropped, 2);
    assert_eq!(stats.duration_filtered, 4);
    assert_eq!(stats.demand_defaulted, 8);
    assert_eq!(stats.jobs_kept, 120);
    assert_eq!(trace.len(), 120);
    for w in trace.jobs().windows(2) {
        assert!(w[0].arrival <= w[1].arrival, "fixture jobs come out sorted");
    }
}

#[test]
fn alibaba_fixture_provenance_is_pinned() {
    let (trace, stats) = alibaba_fixture().load().unwrap();
    assert_eq!(stats.rows, 152);
    assert_eq!(stats.tasks_seen, 152);
    assert_eq!(stats.incomplete_dropped, 13); // 8 Running + 5 Failed
    assert_eq!(stats.nonpositive_duration_dropped, 3);
    assert_eq!(stats.duration_filtered, 6);
    assert_eq!(stats.demand_defaulted, 7);
    assert_eq!(stats.jobs_kept, 130);
    assert_eq!(trace.len(), 130);
}

#[test]
fn fixtures_split_into_four_weekly_segments() {
    let (google, _) = google_fixture().load().unwrap();
    let sizes: Vec<usize> = google
        .segments_by_wall_clock(SECS_PER_WEEK)
        .iter()
        .map(|s| s.len())
        .collect();
    assert_eq!(sizes, [35, 39, 29, 17]);

    let (alibaba, _) = alibaba_fixture().load().unwrap();
    let sizes: Vec<usize> = alibaba
        .segments_by_wall_clock(SECS_PER_WEEK)
        .iter()
        .map(|s| s.len())
        .collect();
    assert_eq!(sizes, [39, 30, 40, 21]);
}

/// Runs the cluster simulator over `arrivals` with deterministic static
/// policies and returns the full serialized outcome plus per-job
/// completion records — the byte-identity fingerprint.
fn run_fingerprint(m: usize, arrivals: ArrivalSource) -> String {
    let mut cluster = Cluster::from_source(ClusterConfig::paper(m), arrivals).unwrap();
    let outcome = cluster.run(
        &mut RoundRobinAllocator::new(),
        &mut FixedTimeoutPower::new(60.0),
        RunLimit::unbounded(),
    );
    format!(
        "{}|{:?}",
        serde_json::to_string(&outcome).unwrap(),
        cluster.completed_jobs()
    )
}

#[test]
fn source_fed_runs_are_byte_identical_to_prematerialized_runs() {
    for source in [google_fixture(), alibaba_fixture()] {
        let (trace, _) = source.load().unwrap();
        let materialized = run_fingerprint(6, ArrivalSource::from_jobs(trace.jobs().to_vec()));
        let streamed =
            run_fingerprint(6, ArrivalSource::from_stream(trace.into_jobs().into_iter()));
        assert_eq!(materialized, streamed, "{}", source.label());
    }
    let spec = TraceSpec::new(WorkloadConfig::google_like(21, 60_000.0), 400);
    let materialized = run_fingerprint(
        6,
        ArrivalSource::from_jobs(spec.materialize().unwrap().into_jobs()),
    );
    let streamed = run_fingerprint(6, ArrivalSource::from_stream(spec.stream().unwrap()));
    assert_eq!(materialized, streamed, "synthetic stream");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the arrival-path contract for the synthetic
    /// generator: across its seed/rate/size space, a run fed by
    /// `TraceSpec::stream` equals a run over the materialized trace, byte
    /// for byte.
    #[test]
    fn synthetic_source_fed_runs_match_prematerialized(
        seed in 0u64..200,
        jobs_per_week in 20_000.0f64..120_000.0,
        jobs in 50usize..300,
        m in 2usize..8,
    ) {
        let spec = TraceSpec::new(WorkloadConfig::google_like(seed, jobs_per_week), jobs);
        let trace = spec.materialize().unwrap();
        prop_assert_eq!(trace.len(), jobs);
        let materialized = run_fingerprint(m, ArrivalSource::from_jobs(trace.into_jobs()));
        let streamed = run_fingerprint(m, ArrivalSource::from_stream(spec.stream().unwrap()));
        prop_assert_eq!(materialized, streamed);
    }
}
