//! Parser for the Alibaba cluster-trace-v2017 `batch_task` table.
//!
//! The 2017 Alibaba trace covers ~1300 machines over 12 hours (later
//! releases extend to 8 days); its `batch_task.csv` table carries one row
//! per task with wall-clock timestamps in **seconds** (the Google trace
//! uses microseconds) and planned resource requests. This parser extracts
//! the same `(arrival, duration, demand)` tuples the paper's evaluation
//! consumes from the Google trace, behind the same [`ParseStats`]
//! provenance contract, so either trace replays through
//! [`crate::source::RealTraceSource`].
//!
//! `batch_task.csv` columns as consumed here:
//! `0` create timestamp (s), `1` end timestamp (s), `2` job id,
//! `3` task id, `4` instance count, `5` status string,
//! `6` plan CPU (percent of one core: `100` = 1.0 cores),
//! `7` plan memory (normalized fraction of one machine).
//!
//! Mapping and filters:
//!
//! * only rows whose status is `Terminated` become jobs — any other status
//!   (`Waiting`, `Running`, `Failed`, …) or a missing, unparsable or
//!   non-finite end timestamp is an incomplete lifecycle and counts in
//!   [`ParseStats::incomplete_dropped`]; a negative, non-finite or
//!   unparsable create timestamp is a [`ParseError`];
//! * arrival = create timestamp, duration = end − create (seconds);
//!   non-positive durations count in
//!   [`ParseStats::nonpositive_duration_dropped`], and the paper's
//!   [1 minute, 2 hours] window drops into
//!   [`ParseStats::duration_filtered`] exactly like the Google parser;
//! * plan CPU is divided by 100 (percent-of-core → fraction) and both
//!   demand components are clamped to `[1e-4, 1.0]`; a missing, empty,
//!   unparsable or non-finite plan CPU or memory column counts the job in
//!   [`ParseStats::demand_defaulted`]. The format has **no disk column**,
//!   so disk demand is always the floor value and is *not* counted as
//!   defaulted — it is absent by design, not by data loss.
//!
//! Rows are one task each (no event reconstruction), and like the Google
//! parser the kept jobs are sorted by arrival and renumbered from
//! [`JobId`]`(0)`.

use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use std::io::BufRead;

use crate::google::{
    parse_field_f64, ParseError, ParseStats, PAPER_MAX_DURATION_S, PAPER_MIN_DURATION_S,
};
use crate::trace::Trace;

/// Status string marking a completed task in `batch_task.csv`.
pub const STATUS_TERMINATED: &str = "Terminated";

/// Parses Alibaba v2017 `batch_task` CSV rows into a [`Trace`], keeping
/// only `Terminated` tasks whose duration falls within the paper's window
/// of [1 minute, 2 hours].
///
/// Malformed rows (too few columns, unparsable timestamps) error out with
/// their line number; rows that parse but carry incomplete *data* are
/// counted in the returned [`ParseStats`] instead — see the module docs
/// for the exact mapping of each counter.
///
/// # Errors
///
/// Returns [`ParseError`] for rows with fewer than 6 columns or a create
/// timestamp that is unparsable, negative or not finite.
pub fn parse_batch_tasks<R: BufRead>(reader: R) -> Result<(Trace, ParseStats), ParseError> {
    let mut stats = ParseStats::default();
    let mut jobs: Vec<Job> = Vec::new();

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
        stats.tasks_seen += 1;
        let create_s = parse_field_f64(fields[0])
            .filter(|&t| t >= 0.0)
            .ok_or_else(|| ParseError {
                line: line_no,
                reason: format!("bad create timestamp {:?}", fields[0]),
            })?;
        let status = fields[5].trim();
        let end_s = parse_field_f64(fields[1]);
        // Anything not terminated — or terminated without an end timestamp —
        // never completed inside the trace window.
        let end_s = match (status == STATUS_TERMINATED, end_s) {
            (true, Some(e)) => e,
            _ => {
                stats.incomplete_dropped += 1;
                continue;
            }
        };
        if end_s <= create_s {
            stats.nonpositive_duration_dropped += 1;
            continue;
        }
        let duration_s = end_s - create_s;
        if !(PAPER_MIN_DURATION_S..=PAPER_MAX_DURATION_S).contains(&duration_s) {
            stats.duration_filtered += 1;
            continue;
        }
        let plan_cpu = fields.get(6).and_then(|s| parse_field_f64(s));
        let plan_mem = fields.get(7).and_then(|s| parse_field_f64(s));
        if plan_cpu.is_none() || plan_mem.is_none() {
            stats.demand_defaulted += 1;
        }
        let clamp = |v: Option<f64>| v.unwrap_or(0.0).clamp(0.0, 1.0).max(1e-4);
        // plan_cpu is percent-of-one-core; the disk column does not exist
        // in this format, so it sits at the floor by construction.
        let demand = ResourceVec::cpu_mem_disk(
            clamp(plan_cpu.map(|c| c / 100.0)),
            clamp(plan_mem),
            clamp(None),
        );
        jobs.push(Job::new(
            JobId(0), // re-numbered after sorting
            SimTime::from_secs(create_s),
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

    /// Builds a batch_task row.
    fn row(
        create: u64,
        end: &str,
        job: u64,
        task: u64,
        status: &str,
        cpu: &str,
        mem: &str,
    ) -> String {
        format!("{create},{end},{job},{task},1,{status},{cpu},{mem}")
    }

    #[test]
    fn parses_terminated_task() {
        let csv = row(100, "400", 1, 1, "Terminated", "50", "0.25");
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 1);
        let j = &trace.jobs()[0];
        assert_eq!(j.arrival, SimTime::from_secs(100.0));
        assert!((j.duration - 300.0).abs() < 1e-9);
        // plan_cpu 50 => 0.5 cores; plan_mem passes through.
        assert!((j.demand.get(0) - 0.5).abs() < 1e-9);
        assert!((j.demand.get(1) - 0.25).abs() < 1e-9);
        // No disk column in the format: floor demand, not counted.
        assert!((j.demand.get(2) - 1e-4).abs() < 1e-12);
        assert_eq!(stats.demand_defaulted, 0);
        assert_eq!(stats.jobs_kept, 1);
    }

    #[test]
    fn non_terminated_rows_are_incomplete() {
        let csv = [
            row(0, "400", 1, 1, "Failed", "50", "0.25"),
            row(0, "", 2, 1, "Running", "50", "0.25"),
            row(0, "", 3, 1, "Terminated", "50", "0.25"), // no end timestamp
            row(0, "400", 4, 1, "Terminated", "50", "0.25"),
        ]
        .join("\n");
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(stats.tasks_seen, 4);
        assert_eq!(stats.incomplete_dropped, 3);
        assert_eq!(stats.jobs_kept, 1);
    }

    #[test]
    fn duration_window_and_nonpositive_durations_are_counted() {
        let csv = [
            row(100, "100", 1, 1, "Terminated", "50", "0.25"), // zero duration
            row(100, "130", 2, 1, "Terminated", "50", "0.25"), // 30 s: too short
            row(100, "10_900", 3, 1, "Terminated", "50", "0.25"), // unparsable end
            row(100, "10900", 4, 1, "Terminated", "50", "0.25"), // 3 h: too long
            row(100, "700", 5, 1, "Terminated", "50", "0.25"), // kept
        ]
        .join("\n");
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(stats.nonpositive_duration_dropped, 1);
        assert_eq!(stats.duration_filtered, 2);
        // The unparsable end timestamp reads as missing → incomplete.
        assert_eq!(stats.incomplete_dropped, 1);
        assert!((trace.jobs()[0].duration - 600.0).abs() < 1e-9);
    }

    #[test]
    fn missing_demand_columns_are_counted_not_silently_defaulted() {
        let csv = [
            "0,400,1,1,1,Terminated".to_string(), // truncated before plan columns
            row(0, "400", 2, 1, "Terminated", "", "0.25"), // empty plan_cpu
            row(0, "400", 3, 1, "Terminated", "50", "0.25"),
        ]
        .join("\n");
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(stats.demand_defaulted, 2);
        let floored = trace
            .jobs()
            .iter()
            .filter(|j| (j.demand.get(0) - 1e-4).abs() < 1e-12)
            .count();
        assert_eq!(floored, 2, "defaulted CPU components sit at the floor");
    }

    #[test]
    fn oversubscribed_plan_cpu_is_clamped_to_one_server() {
        // plan_cpu 400 = 4 cores: more than one normalized server.
        let csv = row(0, "400", 1, 1, "Terminated", "400", "1.5");
        let trace = parse_batch_tasks(Cursor::new(csv)).unwrap().0;
        assert!((trace.jobs()[0].demand.get(0) - 1.0).abs() < 1e-9);
        assert!((trace.jobs()[0].demand.get(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jobs_are_sorted_and_renumbered() {
        let csv = [
            row(500, "900", 7, 1, "Terminated", "20", "0.2"),
            row(100, "500", 8, 1, "Terminated", "30", "0.3"),
        ]
        .join("\n");
        let trace = parse_batch_tasks(Cursor::new(csv)).unwrap().0;
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.jobs()[0].id, JobId(0));
        assert_eq!(trace.jobs()[0].arrival, SimTime::from_secs(100.0));
        assert!((trace.jobs()[0].demand.get(0) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn malformed_rows_error_with_line_number() {
        let err = parse_batch_tasks(Cursor::new("not,enough")).unwrap_err();
        assert_eq!(err.line, 1);

        let csv = format!(
            "{}\nabc,400,1,1,1,Terminated,50,0.25",
            row(0, "400", 9, 1, "Terminated", "50", "0.25")
        );
        let err = parse_batch_tasks(Cursor::new(csv)).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("bad create timestamp"));
    }

    #[test]
    fn negative_or_non_finite_create_timestamps_are_parse_errors() {
        for create in ["-100", "NaN", "inf", "-inf", "1e400"] {
            let csv = format!(
                "{}\n{create},200,2021,1,1,Terminated,25.3,0.3",
                row(0, "400", 1, 1, "Terminated", "50", "0.25")
            );
            let err = parse_batch_tasks(Cursor::new(csv)).unwrap_err();
            assert_eq!(err.line, 2, "{create}");
            assert!(err.reason.contains("bad create timestamp"), "{create}");
        }
    }

    #[test]
    fn non_finite_demands_and_end_timestamps_are_counted() {
        let csv = [
            row(0, "400", 1, 1, "Terminated", "NaN", "0.25"),
            row(0, "400", 2, 1, "Terminated", "50", "inf"),
            row(0, "400", 3, 1, "Terminated", "1e400", "0.25"),
            row(0, "inf", 4, 1, "Terminated", "50", "0.25"),
            row(0, "NaN", 5, 1, "Terminated", "50", "0.25"),
            row(0, "400", 6, 1, "Terminated", "50", "0.25"),
        ]
        .join("\n");
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(stats.incomplete_dropped, 2);
        assert_eq!(stats.duration_filtered, 0);
        assert_eq!(stats.jobs_kept, 4);
        assert_eq!(stats.demand_defaulted, 3);
        // Defaulted components sit at the floor; none was clamped to 1.0.
        let jobs = trace.jobs();
        assert_eq!(jobs[0].demand.get(0), 1e-4);
        assert_eq!(jobs[1].demand.get(1), 1e-4);
        assert_eq!(jobs[2].demand.get(0), 1e-4);
    }

    #[test]
    fn empty_lines_are_skipped() {
        let csv = format!("\n{}\n\n", row(0, "400", 1, 1, "Terminated", "50", "0.25"));
        let (trace, stats) = parse_batch_tasks(Cursor::new(csv)).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(stats.rows, 1);
    }
}
