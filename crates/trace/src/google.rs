//! Parser for the real Google cluster-usage trace format (ClusterData 2011,
//! version 2 `task_events` tables).
//!
//! The synthetic generator is the default workload source in this
//! reproduction (the real month-long trace is ~40 GB and not redistributable
//! here), but users who have downloaded it can extract the same
//! `(arrival, duration, demand)` tuples the paper uses:
//! [`parse_task_events`] reconstructs each task from its event
//! rows — SUBMIT gives the arrival and resource request, FINISH − SCHEDULE
//! gives the duration — and reports [`ParseStats`] provenance (how many
//! tasks were dropped at each filter and how many kept jobs had missing
//! demand columns defaulted). Jobs are filtered to the paper's duration
//! window of [1 minute, 2 hours] ([`PAPER_MIN_DURATION_S`],
//! [`PAPER_MAX_DURATION_S`]).
//!
//! This parser usually sits behind [`crate::source::RealTraceSource`] with
//! [`crate::source::TraceFormat::GoogleTaskEvents`], which is how the
//! experiment layer consumes it; the sibling
//! [`crate::alibaba`] module reads the Alibaba v2017 `batch_task` table
//! behind the same interface. Column layouts, counter semantics, and the
//! committed-fixture recipe are documented in `crates/trace/README.md`.
//!
//! `task_events` CSV columns (see the trace format document):
//! `0` timestamp (µs), `1` missing info, `2` job ID, `3` task index,
//! `4` machine ID, `5` event type, `6` user, `7` scheduling class,
//! `8` priority, `9` CPU request, `10` memory request, `11` disk request,
//! `12` different-machine constraint.

use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

use crate::trace::Trace;

/// Event-type codes used by the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEventType {
    /// Task submitted (arrival).
    Submit,
    /// Task scheduled onto a machine.
    Schedule,
    /// Task finished normally.
    Finish,
    /// Any other event (evict, fail, kill, lost, update).
    Other(u8),
}

impl From<u8> for TaskEventType {
    fn from(code: u8) -> Self {
        match code {
            0 => TaskEventType::Submit,
            1 => TaskEventType::Schedule,
            4 => TaskEventType::Finish,
            other => TaskEventType::Other(other),
        }
    }
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task_events line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Duration filter matching the paper's extraction: [1 minute, 2 hours].
pub const PAPER_MIN_DURATION_S: f64 = 60.0;
/// Upper bound of the paper's duration filter.
pub const PAPER_MAX_DURATION_S: f64 = 7200.0;

/// What the parser did to the rows it read: how many tasks survived, how
/// many were dropped at each filter, and — crucially — how many kept jobs
/// had *missing* resource columns silently defaulted. Callers deciding
/// whether a trace file is usable should look at
/// [`ParseStats::demand_defaulted`] before trusting demand-sensitive
/// results: a file with no resource columns parses "successfully" into
/// uniform near-zero demands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ParseStats {
    /// Non-empty CSV rows consumed.
    pub rows: usize,
    /// Distinct `(job, task)` keys seen.
    pub tasks_seen: usize,
    /// Tasks dropped for an incomplete lifecycle (missing SUBMIT,
    /// SCHEDULE, or FINISH).
    pub incomplete_dropped: usize,
    /// Tasks dropped because FINISH was not after SCHEDULE.
    pub nonpositive_duration_dropped: usize,
    /// Tasks dropped by the duration window filter.
    pub duration_filtered: usize,
    /// Kept jobs whose SUBMIT row was missing at least one resource
    /// column (empty, unparsable, or non-finite), so that component was
    /// defaulted to the floor demand.
    pub demand_defaulted: usize,
    /// Jobs that made it into the returned trace.
    pub jobs_kept: usize,
}

#[derive(Debug, Default, Clone)]
struct TaskRecord {
    submit_us: Option<u64>,
    schedule_us: Option<u64>,
    finish_us: Option<u64>,
    cpu: Option<f64>,
    mem: Option<f64>,
    disk: Option<f64>,
}

/// An optional numeric CSV field: `None` when empty, unparsable, or not
/// finite (`NaN`, `inf`, or an overflowing literal such as `1e400`), so a
/// non-finite value is counted like a missing one instead of being clamped.
pub(crate) fn parse_field_f64(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Parses `task_events` CSV rows into a [`Trace`], reconstructing each
/// task's arrival (SUBMIT), duration (FINISH − SCHEDULE) and normalized
/// resource request, and keeping only tasks whose duration falls within
/// the paper's window of [1 minute, 2 hours].
///
/// Malformed rows produce an error rather than being skipped silently;
/// rows that parse but carry incomplete *data* (missing lifecycle events,
/// missing resource columns) are counted in the returned [`ParseStats`]
/// rather than vanishing — a SUBMIT row without resource columns defaults
/// those components to the floor demand, which is only acceptable if the
/// caller knows how often it happened.
///
/// # Errors
///
/// Returns [`ParseError`] for rows with too few columns or unparsable
/// numeric fields.
pub fn parse_task_events<R: BufRead>(reader: R) -> Result<(Trace, ParseStats), ParseError> {
    // Keyed by `(job_id, task_index)` in a BTreeMap so the emission loop
    // below walks tasks in key order. The final sort is by arrival only, and
    // `sort_by_key` is stable — with a hash map, equal-arrival tasks would
    // keep whatever order the per-process RandomState produced, making job
    // numbering (and thus every downstream report) nondeterministic.
    let mut tasks: BTreeMap<(u64, u64), TaskRecord> = BTreeMap::new();
    let mut stats = ParseStats::default();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| ParseError {
            line: line_no,
            reason: format!("io error: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        stats.rows += 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 6 {
            return Err(ParseError {
                line: line_no,
                reason: format!("expected >= 6 columns, got {}", fields.len()),
            });
        }
        let ts: u64 = fields[0].parse().map_err(|_| ParseError {
            line: line_no,
            reason: format!("bad timestamp {:?}", fields[0]),
        })?;
        let job_id: u64 = fields[2].parse().map_err(|_| ParseError {
            line: line_no,
            reason: format!("bad job id {:?}", fields[2]),
        })?;
        let task_index: u64 = fields[3].parse().map_err(|_| ParseError {
            line: line_no,
            reason: format!("bad task index {:?}", fields[3]),
        })?;
        let event_code: u8 = fields[5].parse().map_err(|_| ParseError {
            line: line_no,
            reason: format!("bad event type {:?}", fields[5]),
        })?;

        let record = tasks.entry((job_id, task_index)).or_default();
        match TaskEventType::from(event_code) {
            TaskEventType::Submit => {
                record.submit_us.get_or_insert(ts);
                record.cpu = fields
                    .get(9)
                    .and_then(|s| parse_field_f64(s))
                    .or(record.cpu);
                record.mem = fields
                    .get(10)
                    .and_then(|s| parse_field_f64(s))
                    .or(record.mem);
                record.disk = fields
                    .get(11)
                    .and_then(|s| parse_field_f64(s))
                    .or(record.disk);
            }
            TaskEventType::Schedule => {
                record.schedule_us.get_or_insert(ts);
            }
            TaskEventType::Finish => {
                record.finish_us = Some(ts);
            }
            TaskEventType::Other(_) => {}
        }
    }

    stats.tasks_seen = tasks.len();
    let mut jobs: Vec<Job> = Vec::new();
    for record in tasks.values() {
        let (Some(submit), Some(schedule), Some(finish)) =
            (record.submit_us, record.schedule_us, record.finish_us)
        else {
            stats.incomplete_dropped += 1;
            continue; // incomplete lifecycle: not a usable job
        };
        if finish <= schedule {
            stats.nonpositive_duration_dropped += 1;
            continue;
        }
        let duration_s = (finish - schedule) as f64 / 1e6;
        if !(PAPER_MIN_DURATION_S..=PAPER_MAX_DURATION_S).contains(&duration_s) {
            stats.duration_filtered += 1;
            continue;
        }
        if record.cpu.is_none() || record.mem.is_none() || record.disk.is_none() {
            stats.demand_defaulted += 1;
        }
        let clamp = |v: Option<f64>| v.unwrap_or(0.0).clamp(0.0, 1.0).max(1e-4);
        let demand =
            ResourceVec::cpu_mem_disk(clamp(record.cpu), clamp(record.mem), clamp(record.disk));
        let arrival_s = submit as f64 / 1e6;
        jobs.push(Job::new(
            JobId(0), // re-numbered after sorting
            SimTime::from_secs(arrival_s),
            duration_s,
            demand,
        ));
    }
    stats.jobs_kept = jobs.len();

    jobs.sort_by_key(|a| a.arrival);
    let jobs = jobs
        .into_iter()
        .enumerate()
        .map(|(i, j)| Job::new(JobId(i as u64), j.arrival, j.duration, j.demand))
        .collect();
    Ok((Trace::new(jobs).expect("sorted, validated jobs"), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Builds a task_events row.
    fn row(ts_us: u64, job: u64, task: u64, event: u8, cpu: &str, mem: &str, disk: &str) -> String {
        format!("{ts_us},,{job},{task},42,{event},user,2,5,{cpu},{mem},{disk},0")
    }

    #[test]
    fn parses_complete_task_lifecycle() {
        let csv = [
            row(1_000_000, 10, 0, 0, "0.25", "0.125", "0.01"), // submit at 1 s
            row(2_000_000, 10, 0, 1, "", "", ""),              // schedule at 2 s
            row(302_000_000, 10, 0, 4, "", "", ""),            // finish at 302 s
        ]
        .join("\n");
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 1);
        let j = &trace.jobs()[0];
        assert_eq!(j.arrival, SimTime::from_secs(1.0));
        assert!((j.duration - 300.0).abs() < 1e-9);
        assert!((j.demand.get(0) - 0.25).abs() < 1e-9);
        assert!((j.demand.get(1) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn filters_durations_outside_paper_window() {
        let csv = [
            // 30 s task: too short.
            row(0, 1, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 1, 0, 1, "", "", ""),
            row(31_000_000, 1, 0, 4, "", "", ""),
            // 3 h task: too long.
            row(0, 2, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 2, 0, 1, "", "", ""),
            row(10_801_000_000, 2, 0, 4, "", "", ""),
            // 10 min task: kept.
            row(0, 3, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 3, 0, 1, "", "", ""),
            row(601_000_000, 3, 0, 4, "", "", ""),
        ]
        .join("\n");
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 1);
        assert!((trace.jobs()[0].duration - 600.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_lifecycles_are_dropped() {
        let csv = [
            row(0, 1, 0, 0, "0.1", "0.1", "0.1"), // submit only
            row(0, 2, 0, 1, "", "", ""),          // schedule only
        ]
        .join("\n");
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert!(trace.is_empty());
    }

    #[test]
    fn jobs_are_sorted_and_renumbered() {
        let csv = [
            // Later job submitted first in the file.
            row(50_000_000, 7, 0, 0, "0.2", "0.2", "0.2"),
            row(51_000_000, 7, 0, 1, "", "", ""),
            row(200_000_000, 7, 0, 4, "", "", ""),
            row(1_000_000, 8, 0, 0, "0.3", "0.3", "0.3"),
            row(2_000_000, 8, 0, 1, "", "", ""),
            row(150_000_000, 8, 0, 4, "", "", ""),
        ]
        .join("\n");
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.jobs()[0].id, JobId(0));
        assert!(trace.jobs()[0].arrival < trace.jobs()[1].arrival);
        assert!((trace.jobs()[0].demand.get(0) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn malformed_rows_error_with_line_number() {
        let csv = "not,enough";
        let err = parse_task_events(Cursor::new(csv)).unwrap_err();
        assert_eq!(err.line, 1);

        let csv = "abc,,1,0,42,0,u,2,5,0.1,0.1,0.1,0";
        let err = parse_task_events(Cursor::new(csv)).unwrap_err();
        assert!(err.reason.contains("bad timestamp"));
    }

    #[test]
    fn empty_lines_are_skipped() {
        let csv = format!(
            "\n{}\n\n{}\n{}\n",
            row(0, 1, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 1, 0, 1, "", "", ""),
            row(301_000_000, 1, 0, 4, "", "", "")
        );
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn missing_resource_columns_are_counted_not_silently_defaulted() {
        // Task 1: SUBMIT row truncated before the resource columns (only 6
        // fields) — every component missing. Task 2: empty CPU field on a
        // full-width row. Task 3: all columns present.
        let csv = [
            "0,,1,0,42,0".to_string(), // submit, no resource columns at all
            row(1_000_000, 1, 0, 1, "", "", ""),
            row(301_000_000, 1, 0, 4, "", "", ""),
            row(0, 2, 0, 0, "", "0.2", "0.2"), // cpu column empty
            row(1_000_000, 2, 0, 1, "", "", ""),
            row(301_000_000, 2, 0, 4, "", "", ""),
            row(0, 3, 0, 0, "0.3", "0.3", "0.3"),
            row(1_000_000, 3, 0, 1, "", "", ""),
            row(301_000_000, 3, 0, 4, "", "", ""),
        ]
        .join("\n");
        let (trace, stats) = parse_task_events(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(stats.jobs_kept, 3);
        assert_eq!(stats.tasks_seen, 3);
        assert_eq!(stats.rows, 9);
        assert_eq!(
            stats.demand_defaulted, 2,
            "both the truncated row and the empty-CPU row must be counted"
        );
        // Defaulted components sit at the floor demand.
        let all_missing = trace
            .jobs()
            .iter()
            .find(|j| j.demand.get(1) < 1e-3)
            .unwrap();
        assert!((all_missing.demand.get(0) - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn non_finite_resource_columns_are_counted_as_defaulted() {
        // One non-finite component per task: NaN, an infinity, and a
        // literal that overflows to infinity. None may be clamped into a
        // plausible demand; each defaults to the floor and is counted.
        let demands = [
            ("NaN", "0.2", "0.2"),
            ("0.2", "inf", "0.2"),
            ("0.2", "0.2", "1e400"),
            ("0.2", "0.2", "0.2"),
        ];
        let mut rows = Vec::new();
        for (job, (cpu, mem, disk)) in (1u64..).zip(demands) {
            rows.push(row(0, job, 0, 0, cpu, mem, disk));
            rows.push(row(1_000_000, job, 0, 1, "", "", ""));
            rows.push(row(301_000_000, job, 0, 4, "", "", ""));
        }
        let (trace, stats) = parse_task_events(Cursor::new(rows.join("\n"))).unwrap();
        assert_eq!(stats.jobs_kept, 4);
        assert_eq!(stats.demand_defaulted, 3);
        for (j, k) in trace.jobs().iter().zip([0, 1, 2]) {
            assert_eq!(j.demand.get(k), 1e-4, "job {} component {k}", j.id);
        }
    }

    #[test]
    fn drop_reasons_are_counted() {
        let csv = [
            // Incomplete lifecycle (submit only).
            row(0, 1, 0, 0, "0.1", "0.1", "0.1"),
            // Finish before schedule.
            row(0, 2, 0, 0, "0.1", "0.1", "0.1"),
            row(5_000_000, 2, 0, 1, "", "", ""),
            row(4_000_000, 2, 0, 4, "", "", ""),
            // Too short for the paper window.
            row(0, 3, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 3, 0, 1, "", "", ""),
            row(31_000_000, 3, 0, 4, "", "", ""),
            // Kept.
            row(0, 4, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 4, 0, 1, "", "", ""),
            row(301_000_000, 4, 0, 4, "", "", ""),
        ]
        .join("\n");
        let (trace, stats) = parse_task_events(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(stats.tasks_seen, 4);
        assert_eq!(stats.incomplete_dropped, 1);
        assert_eq!(stats.nonpositive_duration_dropped, 1);
        assert_eq!(stats.duration_filtered, 1);
        assert_eq!(stats.demand_defaulted, 0);
        assert_eq!(stats.jobs_kept, 1);
    }

    #[test]
    fn equal_arrival_jobs_order_deterministically() {
        // Many tasks submitted at the same microsecond: the arrival sort
        // cannot distinguish them, so their relative order (and therefore
        // their assigned JobIds and demands-by-position) must come from the
        // ordered (job, task) map walk, not from hash iteration order.
        let mut rows = Vec::new();
        for job in (1..=16u64).rev() {
            rows.push(row(0, job, 0, 0, &format!("0.{job:02}"), "0.1", "0.1"));
            rows.push(row(1_000_000, job, 0, 1, "", "", ""));
            rows.push(row(301_000_000, job, 0, 4, "", "", ""));
        }
        let csv = rows.join("\n");
        let trace = parse_task_events(Cursor::new(csv.clone())).unwrap().0;
        assert_eq!(trace.len(), 16);
        for (i, j) in trace.jobs().iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
            // Job `i + 1` (lowest key first) lands at position `i`.
            let expected_cpu = f64::from(i as u32 + 1) / 100.0;
            assert!(
                (j.demand.get(0) - expected_cpu).abs() < 1e-9,
                "position {i} got cpu {}, want {expected_cpu}",
                j.demand.get(0)
            );
        }
        // And a reparse of the same bytes is identical, job for job.
        let again = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.jobs(), again.jobs());
    }

    #[test]
    fn multiple_tasks_of_same_job_are_distinct() {
        let csv = [
            row(0, 1, 0, 0, "0.1", "0.1", "0.1"),
            row(1_000_000, 1, 0, 1, "", "", ""),
            row(301_000_000, 1, 0, 4, "", "", ""),
            row(0, 1, 1, 0, "0.2", "0.2", "0.2"),
            row(1_000_000, 1, 1, 1, "", "", ""),
            row(601_000_000, 1, 1, 4, "", "", ""),
        ]
        .join("\n");
        let trace = parse_task_events(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 2);
    }
}
