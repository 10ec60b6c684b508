//! Workload traces: validated job sequences with statistics and slicing.

use hierdrl_sim::job::Job;
use hierdrl_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Jobs were not sorted by arrival time.
    Unsorted {
        /// Index of the first out-of-order job.
        index: usize,
    },
    /// A job failed validation.
    InvalidJob {
        /// Index of the offending job.
        index: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Unsorted { index } => {
                write!(f, "jobs not sorted by arrival (first violation at {index})")
            }
            TraceError::InvalidJob { index, reason } => {
                write!(f, "invalid job at index {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of jobs.
    pub count: usize,
    /// Time between the first and last arrival, seconds.
    pub span_s: f64,
    /// Mean arrival rate over the span, jobs per second.
    pub arrival_rate: f64,
    /// Mean job duration, seconds.
    pub mean_duration_s: f64,
    /// Mean CPU demand (normalized).
    pub mean_cpu: f64,
    /// Mean memory demand (normalized).
    pub mean_mem: f64,
    /// Mean disk demand (normalized).
    pub mean_disk: f64,
    /// Largest single demand component in the trace.
    pub max_demand: f64,
}

impl TraceStats {
    /// Expected average CPU load offered to a cluster of `m` servers, as a
    /// fraction of total CPU capacity (Little's law:
    /// `rate * mean_duration * mean_cpu / m`).
    pub fn offered_cpu_load(&self, m: usize) -> f64 {
        assert!(m > 0, "cluster size must be positive");
        self.arrival_rate * self.mean_duration_s * self.mean_cpu / m as f64
    }
}

/// A validated workload trace: jobs sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Trace {
    /// Wraps a job list, validating sort order and demand sanity.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Unsorted`] or [`TraceError::InvalidJob`].
    pub fn new(jobs: Vec<Job>) -> Result<Self, TraceError> {
        for (i, w) in jobs.windows(2).enumerate() {
            if w[1].arrival < w[0].arrival {
                return Err(TraceError::Unsorted { index: i + 1 });
            }
        }
        for (i, j) in jobs.iter().enumerate() {
            if !(j.duration.is_finite() && j.duration > 0.0) {
                return Err(TraceError::InvalidJob {
                    index: i,
                    reason: format!("non-positive duration {}", j.duration),
                });
            }
            if j.demand.as_slice().iter().any(|&d| d > 1.0 + 1e-9) {
                return Err(TraceError::InvalidJob {
                    index: i,
                    reason: format!("demand {} exceeds one server", j.demand),
                });
            }
        }
        Ok(Self { jobs })
    }

    /// The jobs, sorted by arrival.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Consumes the trace, returning the job list.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Summary statistics; `None` for an empty trace.
    pub fn stats(&self) -> Option<TraceStats> {
        if self.jobs.is_empty() {
            return None;
        }
        let n = self.jobs.len();
        let first = self.jobs[0].arrival.as_secs();
        let last = self.jobs[n - 1].arrival.as_secs();
        let span = (last - first).max(1e-9);
        let mut dur = 0.0;
        let mut cpu = 0.0;
        let mut mem = 0.0;
        let mut disk = 0.0;
        let mut max_d: f64 = 0.0;
        for j in &self.jobs {
            dur += j.duration;
            cpu += j.demand.get(0);
            if j.demand.dims() > 1 {
                mem += j.demand.get(1);
            }
            if j.demand.dims() > 2 {
                disk += j.demand.get(2);
            }
            max_d = max_d.max(j.demand.max_component());
        }
        let nf = n as f64;
        Some(TraceStats {
            count: n,
            span_s: span,
            arrival_rate: nf / span,
            mean_duration_s: dur / nf,
            mean_cpu: cpu / nf,
            mean_mem: mem / nf,
            mean_disk: disk / nf,
            max_demand: max_d,
        })
    }

    /// Returns the first `count` jobs as a re-based trace (arrivals shifted
    /// so the first is at zero).
    pub fn take(&self, count: usize) -> Trace {
        Self::rebased_slice(&self.jobs[..count.min(self.jobs.len())])
    }

    /// Splits the trace at wall-clock boundaries: each segment covers
    /// `window_s` seconds of arrivals (relative to the first arrival) and
    /// is re-based so its own first arrival is at time zero. Windows with
    /// no arrivals are skipped, so every returned segment is non-empty —
    /// this is how a real month-long trace becomes the week-long regime
    /// segments the drift axis replays ([`crate::pattern::SECS_PER_WEEK`]
    /// is the canonical window). Segment sizes follow the trace's own
    /// arrival intensity.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive and finite.
    pub fn segments_by_wall_clock(&self, window_s: f64) -> Vec<Trace> {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "wall-clock window must be positive, got {window_s}"
        );
        if self.jobs.is_empty() {
            return Vec::new();
        }
        let base = self.jobs[0].arrival.as_secs();
        let mut out = Vec::new();
        let mut lo = 0usize;
        while lo < self.jobs.len() {
            let window = ((self.jobs[lo].arrival.as_secs() - base) / window_s).floor();
            let end = base + (window + 1.0) * window_s;
            let mut hi = lo + 1;
            while hi < self.jobs.len() && self.jobs[hi].arrival.as_secs() < end {
                hi += 1;
            }
            out.push(Self::rebased_slice(&self.jobs[lo..hi]));
            lo = hi;
        }
        out
    }

    fn rebased_slice(slice: &[Job]) -> Trace {
        if slice.is_empty() {
            return Trace { jobs: Vec::new() };
        }
        let base = slice[0].arrival;
        let jobs = slice
            .iter()
            .map(|j| {
                Job::new(
                    j.id,
                    SimTime::from_secs(j.arrival.since(base)),
                    j.duration,
                    j.demand,
                )
            })
            .collect();
        Trace { jobs }
    }

    /// Per-server inter-arrival times (seconds) of the whole trace, for
    /// predictor training/evaluation.
    pub fn inter_arrival_times(&self) -> Vec<f64> {
        self.jobs
            .windows(2)
            .map(|w| w[1].arrival.since(w[0].arrival))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdrl_sim::job::JobId;
    use hierdrl_sim::resources::ResourceVec;

    fn job(id: u64, t: f64, dur: f64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(t),
            dur,
            ResourceVec::cpu_mem_disk(0.1, 0.2, 0.05),
        )
    }

    #[test]
    fn sorted_jobs_accepted() {
        let t = Trace::new(vec![job(0, 0.0, 10.0), job(1, 5.0, 10.0)]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unsorted_jobs_rejected_with_index() {
        let err = Trace::new(vec![job(0, 5.0, 10.0), job(1, 1.0, 10.0)]).unwrap_err();
        assert_eq!(err, TraceError::Unsorted { index: 1 });
    }

    #[test]
    fn stats_compute_means() {
        let t = Trace::new(vec![job(0, 0.0, 100.0), job(1, 10.0, 300.0)]).unwrap();
        let s = t.stats().unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean_duration_s - 200.0).abs() < 1e-9);
        assert!((s.arrival_rate - 0.2).abs() < 1e-9);
        assert!((s.mean_cpu - 0.1).abs() < 1e-9);
    }

    #[test]
    fn offered_load_uses_littles_law() {
        let t = Trace::new(vec![job(0, 0.0, 100.0), job(1, 10.0, 300.0)]).unwrap();
        let s = t.stats().unwrap();
        // rate 0.2 * mean dur 200 * cpu 0.1 / 4 servers = 1.0
        assert!((s.offered_cpu_load(4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_has_no_stats() {
        let t = Trace::new(Vec::new()).unwrap();
        assert!(t.stats().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn wall_clock_segments_follow_arrival_intensity() {
        // Arrivals at 0..5 s, 100..102 s, 250 s with a 100 s window:
        // three non-empty windows (an empty 3rd window would start at 200,
        // but 250 falls inside [200, 300)).
        let mut jobs: Vec<Job> = (0..6).map(|i| job(i, i as f64, 10.0)).collect();
        jobs.push(job(6, 100.0, 10.0));
        jobs.push(job(7, 102.0, 10.0));
        jobs.push(job(8, 250.0, 10.0));
        let t = Trace::new(jobs).unwrap();
        let segs = t.segments_by_wall_clock(100.0);
        assert_eq!(segs.iter().map(Trace::len).collect::<Vec<_>>(), [6, 2, 1]);
        for s in &segs {
            assert_eq!(s.jobs()[0].arrival, SimTime::ZERO, "segments are rebased");
        }
    }

    #[test]
    fn wall_clock_segments_skip_empty_windows() {
        // A gap of many windows between two bursts yields exactly two
        // segments, not a run of empties.
        let t = Trace::new(vec![job(0, 0.0, 10.0), job(1, 1000.0, 10.0)]).unwrap();
        let segs = t.segments_by_wall_clock(10.0);
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn wall_clock_segments_one_window_holds_everything() {
        let jobs: Vec<Job> = (0..5).map(|i| job(i, i as f64, 10.0)).collect();
        let t = Trace::new(jobs).unwrap();
        let segs = t.segments_by_wall_clock(1e6);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 5);
    }

    #[test]
    fn take_rebases_prefix() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(i, 50.0 + i as f64 * 2.0, 10.0))
            .collect();
        let t = Trace::new(jobs).unwrap();
        let head = t.take(3);
        assert_eq!(head.len(), 3);
        assert_eq!(head.jobs()[0].arrival, SimTime::ZERO);
        assert_eq!(head.jobs()[2].arrival, SimTime::from_secs(4.0));
    }

    #[test]
    fn inter_arrival_times() {
        let t = Trace::new(vec![job(0, 0.0, 1.0), job(1, 3.0, 1.0), job(2, 7.0, 1.0)]).unwrap();
        assert_eq!(t.inter_arrival_times(), vec![3.0, 4.0]);
    }
}
