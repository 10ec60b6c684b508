//! Reference allocation and power-management policies.
//!
//! These are the non-learning building blocks the paper compares against:
//! round-robin dispatch (the baseline of Figs. 8 and 9), ad-hoc immediate
//! sleep (Fig. 4(a)), fixed timeouts (the Fig. 10 baselines), and always-on
//! operation. A couple of common greedy heuristics are included for
//! completeness.

use crate::cluster::{Allocator, ClusterView, PowerManager, TimeoutDecision};
use crate::job::{Job, ServerId};
use crate::time::SimTime;

/// Dispatches jobs to servers in cyclic order, ignoring state.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinAllocator {
    next: usize,
}

impl RoundRobinAllocator {
    /// Creates an allocator starting at server 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Allocator for RoundRobinAllocator {
    fn select(&mut self, _job: &Job, view: &ClusterView<'_>) -> ServerId {
        let id = ServerId(self.next % view.num_servers());
        self.next = (self.next + 1) % view.num_servers();
        id
    }
}

/// Dispatches each job to the server with the fewest jobs in its system
/// (queued + running); ties break toward lower CPU utilization, then lower
/// id. A simple join-the-shortest-queue heuristic.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedAllocator;

impl Allocator for LeastLoadedAllocator {
    fn select(&mut self, _job: &Job, view: &ClusterView<'_>) -> ServerId {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, f64::MAX);
        for (i, s) in view.servers().iter().enumerate() {
            let key = (s.jobs_in_system(), s.cpu_utilization());
            if key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best_key = key;
                best = i;
            }
        }
        ServerId(best)
    }
}

/// First-fit consolidation: dispatches to the lowest-numbered *awake*
/// server where the job fits immediately (no queueing) without exceeding
/// the cluster's anti-colocation cap; otherwise wakes the lowest-numbered
/// sleeping server; only when every server is awake and saturated does it
/// queue on the least-loaded one. Greedy packing concentrates load so idle
/// servers can sleep, while waking capacity rather than building queues.
#[derive(Debug, Clone, Default)]
pub struct FirstFitAllocator;

impl Allocator for FirstFitAllocator {
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
        let colo_cap = view.config().reliability.hot_queue_len;
        let mut sleeper: Option<usize> = None;
        let mut fallback: Option<(usize, usize)> = None; // (jobs_in_system, id)
        for (i, s) in view.servers().iter().enumerate() {
            if s.state().is_on() {
                if s.queue_len() == 0
                    && s.jobs_in_system() < colo_cap
                    && s.used().fits_with(&job.demand, s.capacity())
                {
                    return ServerId(i);
                }
                let key = (s.jobs_in_system(), i);
                if fallback.is_none_or(|f| key < f) {
                    fallback = Some(key);
                }
            } else if sleeper.is_none() {
                sleeper = Some(i);
            }
        }
        if let Some(i) = sleeper {
            return ServerId(i);
        }
        ServerId(fallback.map_or(0, |(_, i)| i))
    }
}

/// Servers never sleep (infinite timeout).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysOnPower;

impl PowerManager for AlwaysOnPower {
    fn on_idle(
        &mut self,
        _server: ServerId,
        _view: &ClusterView<'_>,
        _now: SimTime,
    ) -> TimeoutDecision {
        TimeoutDecision::StayAwake
    }
}

/// The ad-hoc policy of Fig. 4(a): sleep the instant the server goes idle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SleepImmediatelyPower;

impl PowerManager for SleepImmediatelyPower {
    fn on_idle(
        &mut self,
        _server: ServerId,
        _view: &ClusterView<'_>,
        _now: SimTime,
    ) -> TimeoutDecision {
        TimeoutDecision::SleepNow
    }
}

/// The fixed-timeout DPM baseline used in Fig. 10 (timeouts of 30/60/90 s):
/// sleep after the server has been idle for `timeout` seconds.
#[derive(Debug, Clone, Copy)]
pub struct FixedTimeoutPower {
    timeout: f64,
}

impl FixedTimeoutPower {
    /// Creates the policy with the given timeout in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is negative or non-finite.
    pub fn new(timeout: f64) -> Self {
        assert!(
            timeout.is_finite() && timeout >= 0.0,
            "timeout must be finite and non-negative, got {timeout}"
        );
        Self { timeout }
    }

    /// The configured timeout, seconds.
    pub fn timeout(&self) -> f64 {
        self.timeout
    }
}

impl PowerManager for FixedTimeoutPower {
    fn on_idle(
        &mut self,
        _server: ServerId,
        _view: &ClusterView<'_>,
        _now: SimTime,
    ) -> TimeoutDecision {
        if self.timeout == 0.0 {
            TimeoutDecision::SleepNow
        } else {
            TimeoutDecision::After(self.timeout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, RunLimit};
    use crate::config::ClusterConfig;
    use crate::job::JobId;
    use crate::resources::ResourceVec;

    fn job(id: u64, t: f64, dur: f64, cpu: f64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(t),
            dur,
            ResourceVec::cpu_mem_disk(cpu, 0.1, 0.05),
        )
    }

    #[test]
    fn round_robin_cycles() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i as f64 * 0.1, 100.0, 0.1)).collect();
        let mut c = Cluster::new(ClusterConfig::paper(3), jobs).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        for s in c.servers() {
            assert_eq!(s.stats().jobs_completed, 2);
        }
    }

    #[test]
    fn least_loaded_balances_queue_depth() {
        // 3 long jobs then 1 more: the 4th should land on the empty server.
        let jobs = vec![
            job(0, 0.0, 1000.0, 0.9),
            job(1, 1.0, 1000.0, 0.9),
            job(2, 2.0, 1000.0, 0.9),
            job(3, 3.0, 10.0, 0.1),
        ];
        let mut c = Cluster::new(ClusterConfig::paper(4), jobs).unwrap();
        c.run(
            &mut LeastLoadedAllocator,
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        let loaded: Vec<u64> = c
            .servers()
            .iter()
            .map(|s| s.stats().jobs_completed)
            .collect();
        assert_eq!(loaded, vec![1, 1, 1, 1]);
    }

    #[test]
    fn first_fit_consolidates_small_jobs() {
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i as f64 * 0.5, 500.0, 0.2)).collect();
        let mut c = Cluster::new(ClusterConfig::paper(4), jobs).unwrap();
        c.run(
            &mut FirstFitAllocator,
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        assert_eq!(c.servers()[0].stats().jobs_completed, 4);
        assert_eq!(c.servers()[1].stats().jobs_completed, 0);
    }

    #[test]
    fn fixed_timeout_zero_equals_sleep_now() {
        let mut p = FixedTimeoutPower::new(0.0);
        let mut config = ClusterConfig::paper(1);
        config.servers_initially_on = false;
        let jobs = vec![job(0, 0.0, 10.0, 0.5)];
        let mut c = Cluster::new(config, jobs).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut p,
            RunLimit::unbounded(),
        );
        assert_eq!(c.servers()[0].stats().sleep_transitions, 1);
        assert_eq!(c.servers()[0].stats().wake_transitions, 1);
    }

    #[test]
    #[should_panic(expected = "timeout must be finite")]
    fn negative_timeout_rejected() {
        let _ = FixedTimeoutPower::new(-1.0);
    }
}
