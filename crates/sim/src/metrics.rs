//! Cluster-wide metrics, totals, and time series.

use crate::job::CompletedJob;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3.6e6;

/// Instantaneous snapshot of cluster-wide accumulated quantities.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterTotals {
    /// Simulation time of the snapshot, seconds.
    pub time_s: f64,
    /// Total energy consumed so far, joules.
    pub energy_joules: f64,
    /// `∫ NumVMs(t) dt` summed over the cluster (VM-seconds).
    pub vm_time_integral: f64,
    /// `∫ queued_jobs(t) dt` summed over the cluster (waiting VM-seconds).
    pub queue_time_integral: f64,
    /// `∫ overload(t) dt` summed over the cluster (reliability penalty).
    pub overload_integral: f64,
    /// Instantaneous total power, watts.
    pub power_watts: f64,
    /// Jobs that have arrived.
    pub jobs_arrived: u64,
    /// Jobs that have completed.
    pub jobs_completed: u64,
    /// Sum of completed-job latencies, seconds.
    pub total_latency_s: f64,
    /// Jobs re-placed through the allocator after a server crash. Each
    /// crashed job is requeued exactly once per crash it survives; the
    /// counter exists so conservation checks can separate re-placements
    /// from fresh arrivals.
    pub jobs_requeued: u64,
}

impl ClusterTotals {
    /// Total energy in kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_joules / JOULES_PER_KWH
    }

    /// Average power over the run so far, watts.
    pub fn average_power_watts(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_joules / self.time_s
        } else {
            0.0
        }
    }

    /// Mean latency per completed job, seconds.
    pub fn mean_latency_s(&self) -> f64 {
        if self.jobs_completed > 0 {
            self.total_latency_s / self.jobs_completed as f64
        } else {
            0.0
        }
    }

    /// Mean energy per completed job, joules.
    pub fn energy_per_job_joules(&self) -> f64 {
        if self.jobs_completed > 0 {
            self.energy_joules / self.jobs_completed as f64
        } else {
            0.0
        }
    }
}

/// One point of the accumulated-latency / energy-vs-jobs curves the paper
/// plots in Figs. 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Number of completed jobs at this sample.
    pub jobs_completed: u64,
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Accumulated job latency, seconds.
    pub total_latency_s: f64,
    /// Accumulated energy, joules.
    pub energy_joules: f64,
}

/// Latency distribution statistics over a set of completed jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of jobs.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th percentile latency, seconds.
    pub p95: f64,
    /// 99th percentile latency, seconds.
    pub p99: f64,
    /// Maximum latency, seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Computes statistics from completed jobs; `None` if empty.
    pub fn from_jobs(jobs: &[CompletedJob]) -> Option<Self> {
        if jobs.is_empty() {
            return None;
        }
        let mut lat: Vec<f64> = jobs.iter().map(|j| j.latency()).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = lat.len();
        let pct = |p: f64| lat[((n as f64 - 1.0) * p).round() as usize];
        Some(Self {
            count: n,
            mean: lat.iter().sum::<f64>() / n as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: lat[n - 1],
        })
    }
}

/// Final outcome of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Totals at the end of the run.
    pub totals: ClusterTotals,
    /// End time of the run.
    pub end_time: SimTime,
    /// Sampled accumulated-latency / energy curves.
    pub samples: Vec<SamplePoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, ServerId};

    fn job(latency: f64) -> CompletedJob {
        CompletedJob {
            id: JobId(0),
            server: ServerId(0),
            arrival: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(latency),
        }
    }

    #[test]
    fn kwh_conversion() {
        let t = ClusterTotals {
            energy_joules: JOULES_PER_KWH,
            ..Default::default()
        };
        assert!((t.energy_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_power_is_energy_over_time() {
        let t = ClusterTotals {
            energy_joules: 1000.0,
            time_s: 10.0,
            ..Default::default()
        };
        assert!((t.average_power_watts() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn average_power_of_empty_run_is_zero() {
        assert_eq!(ClusterTotals::default().average_power_watts(), 0.0);
    }

    #[test]
    fn mean_latency_divides_by_completions() {
        let t = ClusterTotals {
            jobs_completed: 4,
            total_latency_s: 40.0,
            ..Default::default()
        };
        assert_eq!(t.mean_latency_s(), 10.0);
    }

    #[test]
    fn latency_stats_percentiles() {
        let jobs: Vec<CompletedJob> = (1..=100).map(|i| job(i as f64)).collect();
        let s = LatencyStats::from_jobs(&jobs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.p50, 51.0); // nearest-rank: index round(99 * 0.5) = 50
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn latency_stats_of_empty_is_none() {
        assert!(LatencyStats::from_jobs(&[]).is_none());
    }
}
