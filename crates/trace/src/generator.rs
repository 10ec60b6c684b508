//! Synthetic Google-cluster-style workload generation.
//!
//! The paper evaluates on segments of the Google cluster-usage traces with
//! roughly 100,000 jobs per week for a 30–40 machine cluster, job durations
//! between 1 minute and 2 hours, and CPU/memory/disk requests normalized by
//! one server's capacity. [`WorkloadConfig::google_like`] reproduces those
//! marginals; arrivals follow a non-homogeneous Poisson process (thinning)
//! with diurnal and weekend structure.

use crate::distributions::Dist;
use crate::pattern::{ArrivalPattern, SECS_PER_WEEK};
use crate::trace::Trace;
use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// RNG seed; every trace is fully determined by its config.
    pub seed: u64,
    /// Arrival-rate profile.
    pub arrivals: ArrivalPattern,
    /// Job duration distribution, seconds.
    pub duration: Dist,
    /// CPU demand distribution (normalized, clamped to `[min_demand, max_demand]`).
    pub cpu_demand: Dist,
    /// Memory demand distribution before correlation with CPU.
    pub mem_demand: Dist,
    /// Disk demand distribution.
    pub disk_demand: Dist,
    /// Correlation weight in `[0, 1]`: memory = `w * cpu + (1-w) * own sample`.
    pub mem_cpu_correlation: f64,
    /// Lower clamp on each demand component.
    pub min_demand: f64,
    /// Upper clamp on each demand component.
    pub max_demand: f64,
    /// Mean tasks per submission event (`>= 1`). Google jobs submit many
    /// tasks at once; task counts follow a geometric law with this mean and
    /// all tasks of a batch share the submission's resource request. `1.0`
    /// disables batching (plain Poisson arrivals).
    pub batch_mean: f64,
    /// Spacing between consecutive tasks of one batch, seconds.
    pub batch_jitter: Dist,
}

impl WorkloadConfig {
    /// A workload calibrated to the paper's setup: ~`jobs_per_week` jobs per
    /// week with Google-like marginals. The paper uses ~95,000–100,000 jobs
    /// per week-long segment.
    pub fn google_like(seed: u64, jobs_per_week: f64) -> Self {
        // Compensate for the weekend dip and task batching so the realized
        // weekly *task* count hits the target.
        let batch_mean = 4.0;
        let shape = ArrivalPattern::google_like(1.0);
        let base_rate = jobs_per_week / SECS_PER_WEEK / shape.mean_rate_factor() / batch_mean;
        Self {
            seed,
            arrivals: ArrivalPattern::google_like(base_rate),
            // Median 8 minutes, heavy tail, clipped to [1 min, 2 h] like the
            // paper's extraction.
            duration: Dist::clipped_log_normal_median(480.0, 1.1, 60.0, 7200.0),
            // Tiny requests dominate, as in the real trace (and as the
            // paper's Table I power figures imply: round-robin draws barely
            // above the cluster's idle floor, i.e. ~1% utilization).
            cpu_demand: Dist::LogNormal {
                mu: (0.002f64).ln(),
                sigma: 0.8,
            },
            mem_demand: Dist::LogNormal {
                mu: (0.002f64).ln(),
                sigma: 0.8,
            },
            disk_demand: Dist::LogNormal {
                mu: (0.001f64).ln(),
                sigma: 0.8,
            },
            mem_cpu_correlation: 0.5,
            min_demand: 0.0005,
            max_demand: 0.1,
            batch_mean,
            batch_jitter: Dist::Exponential { mean: 2.0 },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.arrivals.validate()?;
        self.duration.validate()?;
        self.cpu_demand.validate()?;
        self.mem_demand.validate()?;
        self.disk_demand.validate()?;
        if !(0.0..=1.0).contains(&self.mem_cpu_correlation) {
            return Err(format!(
                "mem_cpu_correlation must be in [0, 1], got {}",
                self.mem_cpu_correlation
            ));
        }
        if !(self.min_demand > 0.0 && self.min_demand <= self.max_demand && self.max_demand <= 1.0)
        {
            return Err(format!(
                "demand clamps invalid: [{}, {}]",
                self.min_demand, self.max_demand
            ));
        }
        if !(self.batch_mean >= 1.0 && self.batch_mean.is_finite()) {
            return Err(format!("batch_mean must be >= 1, got {}", self.batch_mean));
        }
        self.batch_jitter.validate()?;
        Ok(())
    }
}

/// Synthetic trace generator (non-homogeneous Poisson thinning).
#[derive(Debug)]
pub struct TraceGenerator {
    config: WorkloadConfig,
    rng: StdRng,
    now: f64,
}

impl TraceGenerator {
    /// Creates a generator from a validated config.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid.
    pub fn new(config: WorkloadConfig) -> Result<Self, String> {
        config.validate()?;
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self {
            config,
            rng,
            now: 0.0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    fn sample_demand(&mut self) -> ResourceVec {
        let c = &self.config;
        let clamp = |x: f64| x.clamp(c.min_demand, c.max_demand);
        let cpu = clamp(c.cpu_demand.sample(&mut self.rng));
        let mem_own = c.mem_demand.sample(&mut self.rng);
        let mem = clamp(c.mem_cpu_correlation * cpu + (1.0 - c.mem_cpu_correlation) * mem_own);
        let disk = clamp(c.disk_demand.sample(&mut self.rng));
        ResourceVec::cpu_mem_disk(cpu, mem, disk)
    }

    /// The thinning process's current time frontier (seconds): every future
    /// submission event — and hence every future task — arrives at or after
    /// this instant. `crate::stream::GeneratorStream` uses it to decide
    /// which pending tasks are safe to emit.
    pub(crate) fn frontier(&self) -> f64 {
        self.now
    }

    /// Advances the thinning process to the next submission event, or
    /// `None` once `horizon` (seconds) is passed.
    pub(crate) fn next_event(&mut self, horizon: f64) -> Option<f64> {
        let max_rate = self.config.arrivals.max_rate();
        loop {
            let u: f64 = 1.0 - self.rng.gen::<f64>();
            self.now += -u.ln() / max_rate;
            if self.now > horizon {
                return None;
            }
            let accept: f64 = self.rng.gen();
            if accept < self.config.arrivals.rate_at(self.now) / max_rate {
                return Some(self.now);
            }
        }
    }

    /// Expands one submission event into its task batch. Tasks share the
    /// submission's resource request and near-identical durations, arriving
    /// a small jitter apart — the structure of real Google jobs.
    pub(crate) fn expand_batch(&mut self, event_time: f64, out: &mut Vec<(f64, f64, ResourceVec)>) {
        // Geometric task count with the configured mean.
        let continue_p = 1.0 - 1.0 / self.config.batch_mean.max(1.0);
        let mut count = 1usize;
        while self.rng.gen::<f64>() < continue_p && count < 64 {
            count += 1;
        }
        let demand = self.sample_demand();
        let mut t = event_time;
        for i in 0..count {
            if i > 0 {
                t += self.config.batch_jitter.sample(&mut self.rng).max(0.0);
            }
            let duration = self.config.duration.sample(&mut self.rng);
            out.push((t, duration, demand));
        }
    }

    fn finish(raw: Vec<(f64, f64, ResourceVec)>) -> Trace {
        let mut raw = raw;
        raw.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are finite"));
        let jobs = raw
            .into_iter()
            .enumerate()
            .map(|(i, (t, duration, demand))| {
                Job::new(JobId(i as u64), SimTime::from_secs(t), duration, demand)
            })
            .collect();
        Trace::new(jobs).expect("sorted, validated jobs")
    }

    /// Generates all jobs arriving within `horizon_s` seconds.
    pub fn generate(mut self, horizon_s: f64) -> Trace {
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "horizon must be positive, got {horizon_s}"
        );
        let expected =
            (self.config.arrivals.base_rate * self.config.batch_mean * horizon_s) as usize;
        let mut raw = Vec::with_capacity(expected + expected / 8);
        while let Some(event) = self.next_event(horizon_s) {
            self.expand_batch(event, &mut raw);
        }
        raw.retain(|(t, _, _)| *t <= horizon_s);
        Self::finish(raw)
    }

    /// Generates exactly `count` jobs, however long that takes.
    pub fn generate_n(mut self, count: usize) -> Trace {
        let mut raw = Vec::with_capacity(count + 64);
        while raw.len() < count {
            let event = self
                .next_event(f64::INFINITY)
                .expect("unbounded horizon always yields an event");
            self.expand_batch(event, &mut raw);
        }
        let trace = Self::finish(raw);
        trace.take(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week_config(seed: u64) -> WorkloadConfig {
        WorkloadConfig::google_like(seed, 95_000.0)
    }

    #[test]
    fn job_count_is_near_target() {
        let trace = TraceGenerator::new(week_config(1))
            .unwrap()
            .generate(SECS_PER_WEEK);
        let n = trace.len() as f64;
        assert!(
            (n - 95_000.0).abs() < 95_000.0 * 0.05,
            "got {n} jobs, expected ~95000"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_ids_sequential() {
        let trace = TraceGenerator::new(week_config(2))
            .unwrap()
            .generate(86_400.0);
        let jobs = trace.jobs();
        for (i, w) in jobs.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "out of order at {i}");
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
    }

    #[test]
    fn durations_respect_paper_bounds() {
        let trace = TraceGenerator::new(week_config(3))
            .unwrap()
            .generate(86_400.0);
        for j in trace.jobs() {
            assert!(
                (60.0..=7200.0).contains(&j.duration),
                "duration {} out of [60, 7200]",
                j.duration
            );
        }
    }

    #[test]
    fn demands_are_clamped() {
        let config = week_config(4);
        let (lo, hi) = (config.min_demand, config.max_demand);
        let trace = TraceGenerator::new(config).unwrap().generate(86_400.0);
        for j in trace.jobs() {
            for &d in j.demand.as_slice() {
                assert!((lo..=hi).contains(&d), "demand {d} out of clamp range");
            }
        }
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let a = TraceGenerator::new(week_config(7))
            .unwrap()
            .generate(43_200.0);
        let b = TraceGenerator::new(week_config(7))
            .unwrap()
            .generate(43_200.0);
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(week_config(8))
            .unwrap()
            .generate(43_200.0);
        let b = TraceGenerator::new(week_config(9))
            .unwrap()
            .generate(43_200.0);
        assert_ne!(a.jobs(), b.jobs());
    }

    #[test]
    fn generate_n_returns_exact_count() {
        let trace = TraceGenerator::new(week_config(10))
            .unwrap()
            .generate_n(500);
        assert_eq!(trace.len(), 500);
    }

    #[test]
    fn diurnal_pattern_shows_in_hourly_counts() {
        let mut config = week_config(11);
        config.arrivals.diurnal_amplitude = 0.8;
        let trace = TraceGenerator::new(config)
            .unwrap()
            .generate(86_400.0 * 5.0);
        // Count arrivals near daily peak (15h) vs trough (3h).
        let mut peak = 0usize;
        let mut trough = 0usize;
        for j in trace.jobs() {
            let hour = (j.arrival.as_secs() % 86_400.0) / 3600.0;
            if (14.0..16.0).contains(&hour) {
                peak += 1;
            } else if (2.0..4.0).contains(&hour) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} not clearly above trough {trough}"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = week_config(1);
        c.mem_cpu_correlation = 2.0;
        assert!(TraceGenerator::new(c).is_err());
    }
}
