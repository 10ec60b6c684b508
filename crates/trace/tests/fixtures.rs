//! Committed-fixture tests for the real-trace backends: parser provenance
//! pinned counter by counter, parser robustness on truncated and garbage
//! rows derived from the fixtures, weekly wall-clock segmentation, and the
//! arrival-path contract that a stream-fed simulation run is
//! byte-identical to a run over the pre-materialized trace.
//!
//! The fixtures live in `tests/fixtures/` and are regenerated by
//! `tests/fixtures/regen.py` (deterministic; see `crates/trace/README.md`).
//! Any change there must update the pins here in the same commit.

use hierdrl_sim::cluster::{ArrivalSource, Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::alibaba::parse_batch_tasks;
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::google::{parse_task_events, ParseError, ParseStats};
use hierdrl_trace::materialize::TraceSpec;
use hierdrl_trace::pattern::SECS_PER_WEEK;
use hierdrl_trace::source::{RealTraceSource, TraceFormat};
use hierdrl_trace::trace::Trace;
use proptest::prelude::*;
use std::io::Cursor;

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

type Parser = fn(Cursor<String>) -> Result<(Trace, ParseStats), ParseError>;

/// Parses `rows` as one file, failing the test with the offending row if
/// the parser panics instead of returning `Ok` or a `ParseError`.
fn parse_rows(parse: Parser, rows: &[String], what: &str) -> Option<(Trace, ParseStats)> {
    let text = rows.join("\n");
    std::panic::catch_unwind(|| parse(Cursor::new(text)).ok())
        .unwrap_or_else(|_| panic!("parser panicked on {what}"))
}

/// Every kept job is simulable: a finite arrival at or after zero, a
/// finite positive duration, and demands inside `[1e-4, 1]`.
fn assert_kept_jobs_are_sane(trace: &Trace, what: &str) {
    for job in trace.jobs() {
        let arrival = job.arrival.as_secs();
        assert!(arrival.is_finite() && arrival >= 0.0, "{what}: {job:?}");
        assert!(
            job.duration.is_finite() && job.duration > 0.0,
            "{what}: {job:?}"
        );
        for &d in job.demand.as_slice() {
            assert!((1e-4..=1.0).contains(&d), "{what}: {job:?}");
        }
    }
}

#[test]
fn malformed_fixture_rows_never_panic_or_clamp_silently() {
    const SUBSTITUTES: [&str; 7] = ["", "NaN", "inf", "-inf", "-1", "1e400", "x"];
    // Per format: the parser, its demand columns, and whether only SUBMIT
    // rows (event type 0) carry them.
    let formats: [(&str, Parser, &[usize], bool); 2] = [
        (
            "google_task_events.csv",
            parse_task_events,
            &[9, 10, 11],
            true,
        ),
        ("alibaba_batch_task.csv", parse_batch_tasks, &[6, 7], false),
    ];
    for (name, parse, demand_columns, submit_only) in formats {
        let text = std::fs::read_to_string(fixture_path(name)).unwrap();
        let base: Vec<String> = text.lines().take(30).map(str::to_string).collect();
        let (trace, base_stats) = parse_rows(parse, &base, name).expect("fixture parses");
        assert_kept_jobs_are_sane(&trace, name);
        let mut defaulted_checks = 0;
        for (i, row) in base.iter().enumerate() {
            let mut rows = base.clone();
            // Truncations at every byte.
            for cut in 0..row.len() {
                rows[i] = row[..cut].to_string();
                let what = format!("{name} row {i} cut to {:?}", rows[i]);
                if let Some((trace, _)) = parse_rows(parse, &rows, &what) {
                    assert_kept_jobs_are_sane(&trace, &what);
                }
            }
            // Whether this row's job is kept: dropping the row loses it.
            rows.remove(i);
            let row_kept = parse_rows(parse, &rows, name)
                .is_some_and(|(_, stats)| stats.jobs_kept < base_stats.jobs_kept);
            rows.insert(i, row.clone());
            // Field substitutions.
            let fields: Vec<&str> = row.split(',').collect();
            let carries_demands = !submit_only || fields.get(5) == Some(&"0");
            let demands = if carries_demands { demand_columns } else { &[] };
            let all_demands_present = demands.iter().all(|&c| !fields[c].is_empty());
            for (c, sub) in (0..fields.len()).flat_map(|c| SUBSTITUTES.map(|sub| (c, sub))) {
                let mut mutated = fields.clone();
                mutated[c] = sub;
                rows[i] = mutated.join(",");
                let what = format!("{name} row {i} field {c} = {sub:?}");
                let Some((trace, stats)) = parse_rows(parse, &rows, &what) else {
                    continue;
                };
                assert_kept_jobs_are_sane(&trace, &what);
                let non_finite = sub.parse::<f64>().is_ok_and(|v| !v.is_finite());
                if row_kept && all_demands_present && demands.contains(&c) && non_finite {
                    assert_eq!(stats.jobs_kept, base_stats.jobs_kept, "{what}");
                    assert_eq!(
                        stats.demand_defaulted,
                        base_stats.demand_defaulted + 1,
                        "{what}: a non-finite demand must count as defaulted"
                    );
                    defaulted_checks += 1;
                }
            }
        }
        assert!(
            defaulted_checks > 0,
            "{name}: no kept job with full demands"
        );
    }
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
