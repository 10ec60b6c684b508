//! A single physical server: FCFS job queue, resource accounting,
//! power-state machine, and time-integrated statistics.

use crate::config::{ClusterConfig, ReliabilityConfig};
use crate::job::{Job, JobId};
use crate::power::{MachineState, PowerModel};
use crate::resources::ResourceVec;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A job currently holding resources on a server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// The job id.
    pub id: JobId,
    /// Resources held.
    pub demand: ResourceVec,
    /// When the job originally arrived at the broker.
    pub arrival: SimTime,
    /// When execution started.
    pub started: SimTime,
    /// When execution will finish.
    pub finishes: SimTime,
}

/// Time-integrated per-server statistics.
///
/// All integrals advance lazily: [`Server::account`] must be called with the
/// current time before any state change, which the cluster guarantees.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Total energy consumed, joules.
    pub energy_joules: f64,
    /// `∫ jobs_in_system dt` — queued plus running jobs, by Little's law
    /// proportional to accumulated latency.
    pub jobs_in_system_integral: f64,
    /// `∫ queued_jobs dt` — waiting jobs only (including those waiting for
    /// a wake transition). The policy-sensitive part of the VM count: every
    /// job runs for its fixed duration wherever it is placed, so only the
    /// waiting room differs between policies.
    pub queue_integral: f64,
    /// `∫ overload(t) dt` where overload is the amount by which the busiest
    /// resource exceeds the hot-spot threshold.
    pub overload_integral: f64,
    /// Seconds spent with at least one running job.
    pub busy_seconds: f64,
    /// Seconds spent on but with no running jobs.
    pub idle_seconds: f64,
    /// Seconds spent asleep.
    pub sleep_seconds: f64,
    /// Seconds spent in wake/sleep transitions.
    pub transition_seconds: f64,
    /// Number of sleep -> wake transitions begun.
    pub wake_transitions: u64,
    /// Number of active -> sleep transitions begun.
    pub sleep_transitions: u64,
    /// Jobs fully executed on this server.
    pub jobs_completed: u64,
    /// Deepest backlog (queued + running) ever observed.
    pub max_jobs_in_system: u64,
}

/// A physical server.
///
/// # Cached rates
///
/// A server caches its instantaneous power draw ([`Server::power_watts`])
/// and hot-spot measure ([`Server::overload`]), the two rates its own
/// integrals ([`Server::account`]) and the cluster's fleet totals advance
/// at. The mutating methods leave the cache alone: the cluster brackets
/// every state change between `touch_begin` (which accounts the interval
/// that just ended at the cached rates) and `touch_end`, which calls
/// [`Server::refresh_rates`] — one power-curve evaluation per touch. A
/// server driven by hand must likewise call `refresh_rates` after each
/// mutation. [`Server::compute_power_watts`] and
/// [`Server::compute_overload`] recompute the rates from state, never
/// from the cache.
///
/// The power model and reliability definition are the fleet's
/// ([`ClusterConfig::power`], [`ClusterConfig::reliability`]), passed in
/// where a rate is computed rather than copied into every server. That
/// keeps a server within 320 bytes, so a 100k-server `Vec<Server>` stays
/// under glibc's 32 MiB mmap threshold and is not mapped (and
/// page-faulted) afresh on every cluster build.
#[derive(Debug, Clone)]
pub struct Server {
    capacity: ResourceVec,
    /// Nameplate capacity: what `capacity` returns to when a degradation
    /// window ([`Server::set_degraded_scale`]) ends.
    nominal_capacity: ResourceVec,
    /// Multiplier applied to the (per-unit-server) power model: a server
    /// with twice the CPU capacity draws twice the Fan-et-al curve at the
    /// same relative utilization. Derived from the CPU capacity component,
    /// so unit-capacity (homogeneous) fleets keep the paper's numbers
    /// exactly.
    peak_scale: f64,
    /// Whether the server is in the healthy pool. A crashed server reports
    /// unhealthy until recovered and must not be offered jobs.
    healthy: bool,
    /// Whether the server has left the fleet (elastic axis). A departed
    /// slot is masked — unhealthy, zero-capacity for aggregates, never
    /// offered work — until a later join re-uses it.
    departed: bool,
    used: ResourceVec,
    state: MachineState,
    /// Set when a job arrives while the server is descending into sleep;
    /// the server must re-wake as soon as the sleep transition finishes
    /// (Fig. 4(a) semantics: transitions cannot be aborted).
    wake_after_sleep: bool,
    queue: VecDeque<Job>,
    running: Vec<RunningJob>,
    /// Incremented to invalidate outstanding timeout events.
    timeout_token: u64,
    last_account: SimTime,
    /// Cached [`Server::compute_power_watts`] as of the last refresh.
    power_watts: f64,
    /// Cached [`Server::compute_overload`] as of the last refresh.
    overload: f64,
    stats: ServerStats,
}

impl Server {
    /// Creates an empty server, powered on or asleep per `initially_on`,
    /// with its rates computed under `config`'s power model and
    /// reliability definition.
    ///
    /// # Panics
    ///
    /// Panics if capacity has a non-positive component.
    pub fn new(capacity: ResourceVec, initially_on: bool, config: &ClusterConfig) -> Self {
        assert!(
            capacity.as_slice().iter().all(|&c| c > 0.0),
            "server capacity must be positive in every dimension"
        );
        let mut server = Self {
            capacity,
            nominal_capacity: capacity,
            peak_scale: capacity.cpu(),
            healthy: true,
            departed: false,
            used: ResourceVec::zeros(capacity.dims()),
            state: if initially_on {
                MachineState::On
            } else {
                MachineState::Sleeping
            },
            wake_after_sleep: false,
            queue: VecDeque::new(),
            running: Vec::new(),
            timeout_token: 0,
            last_account: SimTime::ZERO,
            power_watts: 0.0,
            overload: 0.0,
            stats: ServerStats::default(),
        };
        server.refresh_rates(config);
        server
    }

    /// Current power state.
    pub fn state(&self) -> MachineState {
        self.state
    }

    /// Capacity vector.
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Resources currently held by running jobs.
    pub fn used(&self) -> &ResourceVec {
        &self.used
    }

    /// Component-wise utilization in `[0, 1]`.
    pub fn utilization(&self) -> ResourceVec {
        self.used.utilization(&self.capacity)
    }

    /// CPU utilization in `[0, 1]` (drives the power model).
    pub fn cpu_utilization(&self) -> f64 {
        (self.used.cpu() / self.capacity.cpu()).clamp(0.0, 1.0)
    }

    /// Jobs waiting in the FCFS queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently executing.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Queued plus running jobs (the `JQ(t)` of the local-tier reward when
    /// combined with Little's law).
    pub fn jobs_in_system(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Whether the server is on with no jobs at all.
    pub fn is_idle(&self) -> bool {
        self.state.is_on() && self.jobs_in_system() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Power-model multiplier of this server (its CPU capacity): the power
    /// curve — idle, peak, and transition draw alike — scales with machine
    /// size, so a 2x-capacity server consumes 2x at the same relative
    /// utilization. Exactly `1.0` for unit-capacity (homogeneous) servers.
    pub fn peak_scale(&self) -> f64 {
        self.peak_scale
    }

    /// Instantaneous power draw in watts as of the last
    /// [`Server::refresh_rates`] (see "Cached rates" above).
    pub fn power_watts(&self) -> f64 {
        self.power_watts
    }

    /// Reliability hot-spot measure as of the last
    /// [`Server::refresh_rates`] (see "Cached rates" above).
    pub fn overload(&self) -> f64 {
        self.overload
    }

    /// Instantaneous power draw in watts, recomputed from state: the
    /// (unit-server) model evaluated at this server's relative CPU
    /// utilization, scaled by [`Server::peak_scale`].
    pub fn compute_power_watts(&self, model: &PowerModel) -> f64 {
        self.peak_scale * self.state.power_watts(model, self.cpu_utilization())
    }

    /// Reliability hot-spot measure, recomputed from state: the amount by
    /// which the busiest resource exceeds the hot-utilization threshold,
    /// plus a penalty for backlog deeper than the hot queue length. Feeds
    /// the reliability term of the global reward (Eqn. 4).
    pub fn compute_overload(&self, reliability: &ReliabilityConfig) -> f64 {
        let util_excess =
            (self.utilization().max_component() - reliability.hot_utilization).max(0.0);
        let backlog = self
            .jobs_in_system()
            .saturating_sub(reliability.hot_queue_len) as f64;
        util_excess + reliability.queue_overload_per_job * backlog
    }

    /// Recomputes the cached [`Server::power_watts`] and
    /// [`Server::overload`] from the current state.
    pub fn refresh_rates(&mut self, config: &ClusterConfig) {
        self.power_watts = self.compute_power_watts(&config.power);
        self.overload = self.compute_overload(&config.reliability);
    }

    /// Advances all time integrals to `now` at the cached rates. Must be
    /// called before any mutation that changes power draw or job counts.
    pub fn account(&mut self, now: SimTime) {
        let dt = now.since(self.last_account);
        if dt > 0.0 {
            self.stats.energy_joules += self.power_watts * dt;
            self.stats.jobs_in_system_integral += self.jobs_in_system() as f64 * dt;
            self.stats.queue_integral += self.queue.len() as f64 * dt;
            self.stats.overload_integral += self.overload * dt;
            match self.state {
                MachineState::On => {
                    if self.running.is_empty() {
                        self.stats.idle_seconds += dt;
                    } else {
                        self.stats.busy_seconds += dt;
                    }
                }
                MachineState::Sleeping => self.stats.sleep_seconds += dt,
                MachineState::WakingUp { .. } | MachineState::GoingToSleep { .. } => {
                    self.stats.transition_seconds += dt
                }
            }
        }
        self.last_account = now;
    }

    /// Appends a job to the FCFS queue (does not start it).
    pub fn enqueue(&mut self, job: Job) {
        self.queue.push_back(job);
        self.stats.max_jobs_in_system = self
            .stats
            .max_jobs_in_system
            .max(self.jobs_in_system() as u64);
    }

    /// Starts queued jobs in strict FCFS order while the head job fits,
    /// appending a `(job id, finish time)` pair per started job — all a
    /// caller needs to schedule finish events — to a reusable buffer. Does
    /// nothing unless the server is `On`.
    pub fn start_fitting_jobs_into(&mut self, now: SimTime, out: &mut Vec<(JobId, SimTime)>) {
        if !self.state.is_on() {
            return;
        }
        while let Some(head) = self.queue.front() {
            if !self.used.fits_with(&head.demand, &self.capacity) {
                // Strict FCFS: the head blocks everything behind it.
                break;
            }
            let job = self.queue.pop_front().expect("front was Some");
            self.used.add_assign(&job.demand);
            let finishes = now + job.duration;
            out.push((job.id, finishes));
            self.running.push(RunningJob {
                id: job.id,
                demand: job.demand,
                arrival: job.arrival,
                started: now,
                finishes,
            });
        }
    }

    /// Completes the running job `id` whose scheduled finish time is
    /// exactly `now`, releasing its resources. Returns the record of the
    /// job, or `None` if no such job is running: a stale event, including
    /// the original finish event of a job that a crash requeued and that
    /// now runs *again* under the same id with a later finish time.
    pub fn complete_job_at(&mut self, id: JobId, now: SimTime) -> Option<RunningJob> {
        let idx = self
            .running
            .iter()
            .position(|r| r.id == id && r.finishes == now)?;
        let run = self.running.swap_remove(idx);
        self.used.sub_assign(&run.demand);
        self.stats.jobs_completed += 1;
        Some(run)
    }

    /// Whether the server is in the healthy pool (not crashed).
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Fails the server: every queued and running job is drained (queue in
    /// FCFS order, then running jobs in start order) for the cluster to
    /// re-place, resources are released, any in-flight power transition is
    /// abandoned, and the machine drops to the sleeping (0 W) state until
    /// [`Server::recover`]. Running jobs restart from scratch: the drained
    /// job keeps its original arrival (lost work shows up as latency) and
    /// its full duration.
    ///
    /// The caller must [`Server::account`] to `now` first, as with every
    /// state change.
    ///
    /// # Panics
    ///
    /// Panics if the server is already crashed.
    pub fn crash(&mut self, _now: SimTime) -> Vec<Job> {
        assert!(self.healthy, "crash of already-crashed server");
        self.healthy = false;
        let mut drained: Vec<Job> = self.queue.drain(..).collect();
        for run in self.running.drain(..) {
            drained.push(Job::new(
                run.id,
                run.arrival,
                run.finishes.since(run.started),
                run.demand,
            ));
        }
        self.used = ResourceVec::zeros(self.capacity.dims());
        self.state = MachineState::Sleeping;
        self.wake_after_sleep = false;
        self.cancel_timeout();
        drained
    }

    /// Returns a crashed server to the healthy pool. The machine stays
    /// asleep; the next arrival routed to it wakes it through the normal
    /// transition (one wake transition charged, as for any sleeping
    /// server).
    ///
    /// # Panics
    ///
    /// Panics if the server is not crashed.
    pub fn recover(&mut self) {
        assert!(!self.healthy, "recover of a healthy server");
        self.healthy = true;
    }

    /// Whether the server currently occupies a live fleet slot (has not
    /// departed via [`Server::depart`]).
    pub fn is_live(&self) -> bool {
        !self.departed
    }

    /// Removes the server from the fleet (elastic scale-in): the same
    /// drain as [`Server::crash`] — queued jobs in FCFS order, then running
    /// jobs in start order, each for the cluster to re-place exactly once —
    /// then the slot is masked (unhealthy + departed, sleeping at 0 W)
    /// until a later [`Server::rejoin`].
    ///
    /// The caller must [`Server::account`] to `now` first.
    ///
    /// # Panics
    ///
    /// Panics unless the server is healthy and live.
    pub fn depart(&mut self, now: SimTime) -> Vec<Job> {
        assert!(
            self.healthy && !self.departed,
            "depart of an unhealthy or already-departed server"
        );
        let drained = self.crash(now);
        self.departed = true;
        drained
    }

    /// Re-occupies a departed slot with a (possibly different-capacity)
    /// joining server: capacity and power curve are replaced, the slot
    /// returns to the healthy pool, and the machine comes up `On` or
    /// `Sleeping` per `initially_on`. Slot statistics keep accumulating —
    /// the departed interval contributed 0 W sleep time, like any slept
    /// machine.
    ///
    /// The caller must [`Server::account`] to `now` first.
    ///
    /// # Panics
    ///
    /// Panics unless the slot is departed, or if `capacity` has a
    /// non-positive component or the wrong dimensionality.
    pub fn rejoin(&mut self, capacity: ResourceVec, initially_on: bool) {
        assert!(self.departed, "rejoin of a live slot");
        assert_eq!(
            capacity.dims(),
            self.capacity.dims(),
            "joining capacity has {} dims, slot has {}",
            capacity.dims(),
            self.capacity.dims()
        );
        assert!(
            capacity.as_slice().iter().all(|&c| c > 0.0),
            "joining capacity must be positive in every dimension"
        );
        debug_assert_eq!(self.jobs_in_system(), 0, "departed slot held jobs");
        self.peak_scale = capacity.cpu();
        self.capacity = capacity;
        self.nominal_capacity = capacity;
        self.healthy = true;
        self.departed = false;
        self.state = if initially_on {
            MachineState::On
        } else {
            MachineState::Sleeping
        };
        self.wake_after_sleep = false;
        self.cancel_timeout();
    }

    /// Resets the accounting clock to `now` without integrating: used when
    /// a freshly-constructed server joins mid-run, so it does not
    /// retroactively integrate the interval before it existed.
    pub fn reset_account_clock(&mut self, now: SimTime) {
        self.last_account = now;
    }

    /// Scales capacity (and the power curve) to `scale` times nominal — a
    /// straggler or power-cap window; `1.0` restores nominal. Already-held
    /// resources are untouched, so `used` may exceed the shrunk capacity:
    /// utilization rises above 1, the overload integral sees the hot spot,
    /// and no new job starts until the backlog drains below the cap.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is in `(0, 1]`.
    pub fn set_degraded_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0 && scale <= 1.0,
            "degraded scale must be in (0, 1], got {scale}"
        );
        self.capacity = self.nominal_capacity.scaled(scale);
        self.peak_scale = self.nominal_capacity.cpu() * scale;
    }

    /// Begins a sleep -> active transition; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the server is not `Sleeping`.
    pub fn begin_wake(&mut self, now: SimTime, t_on: f64) -> SimTime {
        assert!(
            matches!(self.state, MachineState::Sleeping),
            "begin_wake from {:?}",
            self.state
        );
        let until = now + t_on;
        self.state = MachineState::WakingUp { until };
        self.stats.wake_transitions += 1;
        until
    }

    /// Begins an active -> sleep transition; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the server is not `On`, or still has jobs.
    pub fn begin_sleep(&mut self, now: SimTime, t_off: f64) -> SimTime {
        assert!(self.state.is_on(), "begin_sleep from {:?}", self.state);
        assert_eq!(
            self.jobs_in_system(),
            0,
            "cannot sleep with jobs queued or running"
        );
        let until = now + t_off;
        self.state = MachineState::GoingToSleep { until };
        self.stats.sleep_transitions += 1;
        // Any outstanding timeout becomes irrelevant.
        self.timeout_token += 1;
        until
    }

    /// Completes a wake transition.
    ///
    /// # Panics
    ///
    /// Panics if the server is not `WakingUp`.
    pub fn finish_wake(&mut self) {
        assert!(
            matches!(self.state, MachineState::WakingUp { .. }),
            "finish_wake from {:?}",
            self.state
        );
        self.state = MachineState::On;
    }

    /// Completes a sleep transition; returns `true` if the server must
    /// immediately re-wake because jobs arrived during the transition.
    ///
    /// # Panics
    ///
    /// Panics if the server is not `GoingToSleep`.
    pub fn finish_sleep(&mut self) -> bool {
        assert!(
            matches!(self.state, MachineState::GoingToSleep { .. }),
            "finish_sleep from {:?}",
            self.state
        );
        self.state = MachineState::Sleeping;
        std::mem::take(&mut self.wake_after_sleep)
    }

    /// Records that a job arrived while the server was descending into
    /// sleep, so it must re-wake when the transition completes.
    pub fn request_wake_after_sleep(&mut self) {
        debug_assert!(
            matches!(self.state, MachineState::GoingToSleep { .. }),
            "wake_after_sleep only applies while going to sleep"
        );
        self.wake_after_sleep = true;
    }

    /// Issues a fresh timeout token, invalidating all earlier ones.
    pub fn issue_timeout_token(&mut self) -> u64 {
        self.timeout_token += 1;
        self.timeout_token
    }

    /// Invalidates any outstanding timeout without issuing a new one.
    pub fn cancel_timeout(&mut self) {
        self.timeout_token += 1;
    }

    /// Whether `token` is the most recently issued timeout token.
    pub fn timeout_token_is_current(&self, token: u64) -> bool {
        self.timeout_token == token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig::paper(1)
    }

    fn server_on() -> Server {
        Server::new(ResourceVec::ones(3), true, &config())
    }

    fn job(id: u64, t: f64, dur: f64, cpu: f64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(t),
            dur,
            ResourceVec::cpu_mem_disk(cpu, 0.1, 0.05),
        )
    }

    /// Starts whatever fits at `now`, returning the started job ids.
    fn start(s: &mut Server, now: f64) -> Vec<JobId> {
        let mut started = Vec::new();
        s.start_fitting_jobs_into(SimTime::from_secs(now), &mut started);
        started.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn fcfs_starts_jobs_in_order_while_fitting() {
        let mut s = server_on();
        s.enqueue(job(1, 0.0, 100.0, 0.5));
        s.enqueue(job(2, 0.0, 100.0, 0.4));
        s.enqueue(job(3, 0.0, 100.0, 0.4)); // does not fit after 1 and 2
        let mut started = Vec::new();
        s.start_fitting_jobs_into(SimTime::ZERO, &mut started);
        let finish = SimTime::from_secs(100.0);
        assert_eq!(started, vec![(JobId(1), finish), (JobId(2), finish)]);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.running_len(), 2);
        assert!((s.cpu_utilization() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn head_of_line_blocking_is_strict() {
        // Job 2 would fit but job 1 (head) does not: FCFS blocks it.
        let mut s = server_on();
        s.enqueue(job(10, 0.0, 50.0, 0.9));
        assert_eq!(start(&mut s, 0.0), vec![JobId(10)]);
        s.enqueue(job(11, 0.0, 50.0, 0.2)); // head, does not fit (0.9+0.2)
        s.enqueue(job(12, 0.0, 50.0, 0.05)); // would fit, must wait
        assert!(start(&mut s, 0.0).is_empty());
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn completion_releases_resources_and_unblocks_queue() {
        let mut s = server_on();
        s.enqueue(job(1, 0.0, 10.0, 0.8));
        s.enqueue(job(2, 0.0, 10.0, 0.5));
        assert_eq!(start(&mut s, 0.0), vec![JobId(1)]);
        assert_eq!(s.running_len(), 1);
        let done = s
            .complete_job_at(JobId(1), SimTime::from_secs(10.0))
            .unwrap();
        assert_eq!(done.id, JobId(1));
        assert_eq!(s.stats().jobs_completed, 1);
        assert_eq!(s.used(), &ResourceVec::zeros(3));
        assert_eq!(start(&mut s, 10.0), vec![JobId(2)]);
    }

    #[test]
    fn complete_unknown_job_returns_none() {
        let mut s = server_on();
        assert!(s.complete_job_at(JobId(42), SimTime::ZERO).is_none());
        // A running id completes only at its own finish time: any other
        // time is a stale event and changes nothing.
        s.enqueue(job(1, 0.0, 10.0, 0.5));
        assert_eq!(start(&mut s, 0.0), vec![JobId(1)]);
        assert!(s
            .complete_job_at(JobId(1), SimTime::from_secs(5.0))
            .is_none());
        assert_eq!(s.running_len(), 1);
        assert_eq!(s.stats().jobs_completed, 0);
    }

    #[test]
    fn sleeping_server_starts_nothing() {
        let mut s = Server::new(ResourceVec::ones(3), false, &config());
        s.enqueue(job(1, 0.0, 10.0, 0.2));
        assert!(start(&mut s, 0.0).is_empty());
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn energy_integrates_idle_power() {
        let mut s = server_on();
        s.account(SimTime::from_secs(100.0));
        assert!((s.stats().energy_joules - 8700.0).abs() < 1e-6);
        assert_eq!(s.stats().idle_seconds, 100.0);
    }

    #[test]
    fn big_server_scales_the_whole_power_curve() {
        // A 2x-capacity server draws 2x idle power, 2x transition power,
        // and integrates 2x the energy of a unit server at the same
        // relative utilization.
        let config = config();
        let model = config.power;
        let mut big = Server::new(ResourceVec::new(&[2.0, 2.0, 2.0]), true, &config);
        assert_eq!(big.peak_scale(), 2.0);
        assert!((big.power_watts() - 2.0 * 87.0).abs() < 1e-9);
        big.account(SimTime::from_secs(100.0));
        assert!((big.stats().energy_joules - 2.0 * 8700.0).abs() < 1e-6);

        // Half a big server's CPU is the same *relative* utilization as
        // half a little server's, so the curve shape is shared.
        big.enqueue(job(1, 100.0, 50.0, 1.0)); // 1.0 of capacity 2.0 = 50%
        let _ = start(&mut big, 100.0);
        assert!((big.cpu_utilization() - 0.5).abs() < 1e-9);
        let half = 2.0 * model.active_power(0.5);
        assert!((big.compute_power_watts(&model) - half).abs() < 1e-9);
        big.refresh_rates(&config);
        assert_eq!(big.power_watts(), big.compute_power_watts(&model));
    }

    #[test]
    fn cached_rates_change_only_on_refresh() {
        let config = config();
        let mut s = server_on();
        assert_eq!(s.power_watts(), 87.0);
        s.enqueue(job(1, 0.0, 10.0, 0.95));
        let _ = start(&mut s, 0.0);
        // The mutation leaves the cache at its pre-mutation rates, so an
        // account right after integrates the interval that just ended.
        assert_eq!(s.power_watts(), 87.0);
        assert_eq!(s.overload(), 0.0);
        s.refresh_rates(&config);
        assert_eq!(s.power_watts(), config.power.active_power(0.95));
        assert_eq!(s.overload(), s.compute_overload(&config.reliability));
        assert!(s.overload() > 0.0);
    }

    #[test]
    fn energy_is_zero_while_sleeping() {
        let mut s = Server::new(ResourceVec::ones(3), false, &config());
        s.account(SimTime::from_secs(50.0));
        assert_eq!(s.stats().energy_joules, 0.0);
        assert_eq!(s.stats().sleep_seconds, 50.0);
    }

    #[test]
    fn transition_draws_transition_power() {
        let config = config();
        let mut s = Server::new(ResourceVec::ones(3), false, &config);
        let until = s.begin_wake(SimTime::ZERO, 30.0);
        assert_eq!(until, SimTime::from_secs(30.0));
        s.refresh_rates(&config);
        s.account(SimTime::from_secs(30.0));
        assert!((s.stats().energy_joules - 145.0 * 30.0).abs() < 1e-6);
        s.finish_wake();
        assert!(s.state().is_on());
    }

    #[test]
    fn wake_after_sleep_round_trip() {
        let mut s = server_on();
        s.begin_sleep(SimTime::ZERO, 30.0);
        s.request_wake_after_sleep();
        let rewake = s.finish_sleep();
        assert!(rewake);
        // Flag is consumed.
        s.begin_wake(SimTime::from_secs(30.0), 30.0);
        s.finish_wake();
        s.begin_sleep(SimTime::from_secs(60.0), 30.0);
        assert!(!s.finish_sleep());
    }

    #[test]
    fn timeout_tokens_invalidate_older_ones() {
        let mut s = server_on();
        let t1 = s.issue_timeout_token();
        assert!(s.timeout_token_is_current(t1));
        let t2 = s.issue_timeout_token();
        assert!(!s.timeout_token_is_current(t1));
        assert!(s.timeout_token_is_current(t2));
        s.cancel_timeout();
        assert!(!s.timeout_token_is_current(t2));
    }

    #[test]
    fn overload_kicks_in_above_threshold() {
        let mut s = server_on();
        s.enqueue(job(1, 0.0, 10.0, 0.95));
        let _ = start(&mut s, 0.0);
        assert!((s.compute_overload(&ReliabilityConfig::paper()) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn jobs_in_system_integral_tracks_queue_and_running() {
        let mut s = server_on();
        s.enqueue(job(1, 0.0, 100.0, 0.5));
        s.enqueue(job(2, 0.0, 100.0, 0.9)); // waits behind job 1
        let _ = start(&mut s, 0.0);
        s.account(SimTime::from_secs(10.0));
        // 2 jobs in system for 10 s.
        assert!((s.stats().jobs_in_system_integral - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot sleep with jobs")]
    fn sleeping_with_jobs_panics() {
        let mut s = server_on();
        s.enqueue(job(1, 0.0, 10.0, 0.5));
        s.begin_sleep(SimTime::ZERO, 30.0);
    }

    #[test]
    #[should_panic(expected = "begin_wake from")]
    fn waking_an_on_server_panics() {
        let mut s = server_on();
        s.begin_wake(SimTime::ZERO, 30.0);
    }
}
