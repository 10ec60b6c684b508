//! The event-driven cluster simulator and the control-plane traits that the
//! hierarchical framework's tiers plug into.

use crate::config::ClusterConfig;
use crate::events::{Event, EventQueue, FleetOp};
use crate::job::{CompletedJob, Job, JobId, ServerId};
use crate::metrics::{ClusterTotals, RunOutcome, SamplePoint};
use crate::power::MachineState;
use crate::server::Server;
use crate::time::SimTime;

/// Cached fleet-wide aggregates, recomputed by one deterministic
/// index-order fold on every fleet mutation (crash, recover, scale change,
/// join, leave) instead of on every view construction.
#[derive(Debug, Clone)]
struct FleetAgg {
    /// Sum of healthy servers' power-model multipliers.
    healthy_peak_scale: f64,
    /// Live (non-departed) slots.
    num_live: usize,
}

impl FleetAgg {
    fn compute(servers: &[Server]) -> Self {
        let mut agg = Self {
            healthy_peak_scale: 0.0,
            num_live: 0,
        };
        for s in servers {
            if s.is_live() {
                agg.num_live += 1;
            }
            if s.is_healthy() {
                agg.healthy_peak_scale += s.peak_scale();
            }
        }
        agg
    }
}

/// Read-only view of the cluster handed to allocators and power managers at
/// decision epochs. The fleet [`ClusterView::totals`] are current at
/// [`ClusterView::now`]. A server's own [`Server::stats`] are current only
/// if that server changed at `now`, which always holds for the idling
/// server passed to [`PowerManager::on_idle`].
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    servers: &'a [Server],
    totals: ClusterTotals,
    config: &'a ClusterConfig,
    fleet: &'a FleetAgg,
}

impl<'a> ClusterView<'a> {
    /// Number of server slots (live and departed alike) — the bound on
    /// valid `ServerId`s. Equals the initial `M` until the elastic axis
    /// appends slots; see [`ClusterView::num_live`] for the live count.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Immutable access to a server.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0]
    }

    /// All servers, indexed by `ServerId`.
    pub fn servers(&self) -> &[Server] {
        self.servers
    }

    /// Cluster-wide accumulated totals at `now`.
    pub fn totals(&self) -> &ClusterTotals {
        &self.totals
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        self.config
    }

    /// Fleet peak power in watts: the per-unit-server peak scaled by every
    /// *healthy* server's [`Server::peak_scale`]. `M * peak_watts` for
    /// homogeneous clusters with no crashes; drops while servers are
    /// crashed, power-capped, or departed, so normalized rewards always
    /// see the live capacity-scaled fleet.
    pub fn fleet_peak_watts(&self) -> f64 {
        self.config.power.peak_watts * self.fleet.healthy_peak_scale
    }

    /// Number of live (non-departed) slots — the elastic axis's fleet
    /// size. Crashed-but-recoverable servers still count as live.
    pub fn num_live(&self) -> usize {
        self.fleet.num_live
    }
}

/// The global-tier control interface: dispatches each arriving job (VM
/// request) to a server. Called exactly once per arrival — the paper's
/// event-driven, continuous-time decision epoch.
pub trait Allocator {
    /// Chooses the target server for `job`.
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId;

    /// Called once before the first event of a run. Carried learners must
    /// drop any state anchored to the *previous* run's clock here (pending
    /// transitions, last-arrival timestamps): each run restarts time at
    /// zero, so such state would otherwise fabricate cross-run intervals.
    fn on_run_begin(&mut self) {}

    /// Called once when the run ends, for learners that flush final updates.
    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        let _ = view;
    }

    /// Called right after a [`FleetOp`] is applied (crash, recover, scale
    /// change), with the post-change view — the chaos-axis analogue of the
    /// run-boundary hooks, so learners can resynchronize any cached fleet
    /// shape before the next decision epoch.
    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        let _ = view;
    }
}

/// Decision returned by a power manager when a server goes idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeoutDecision {
    /// Begin the sleep transition immediately (timeout value 0).
    SleepNow,
    /// Sleep if still idle after this many seconds.
    After(f64),
    /// Stay powered on indefinitely.
    StayAwake,
}

/// The local-tier control interface: per-server dynamic power management.
///
/// The callbacks correspond to the paper's three decision-epoch cases:
/// [`PowerManager::on_idle`] is case (1) — the machine enters the idle state
/// with an empty queue; [`PowerManager::on_job_arrival`] covers cases (2)
/// and (3) — a job arrives while the machine is idle or asleep (it is also
/// invoked for arrivals at busy servers so predictors can observe the full
/// arrival stream). `on_job_arrival` runs *before* the job is enqueued, so
/// the view reflects the pre-arrival state.
pub trait PowerManager {
    /// Case (1): `server` is on with no queued or running jobs. Returns the
    /// timeout decision.
    fn on_idle(
        &mut self,
        server: ServerId,
        view: &ClusterView<'_>,
        now: SimTime,
    ) -> TimeoutDecision;

    /// Cases (2)/(3) and bookkeeping: a job is about to be enqueued on
    /// `server`.
    fn on_job_arrival(&mut self, server: ServerId, view: &ClusterView<'_>, now: SimTime) {
        let (_, _, _) = (server, view, now);
    }

    /// Called once before the first event of a run (see
    /// [`Allocator::on_run_begin`]): time restarts at zero, so any
    /// timestamp-anchored state — notably per-server last-arrival marks
    /// feeding inter-arrival predictors — must be dropped here, or a
    /// carried manager fabricates a cross-run inter-arrival gap.
    fn on_run_begin(&mut self) {}

    /// Called once when the run ends.
    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        let _ = view;
    }

    /// Called right after a [`FleetOp`] is applied, with the post-change
    /// view (see [`Allocator::on_fleet_change`]).
    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        let _ = view;
    }
}

/// How long a simulation run lasts: until every event drains, or until a
/// number of jobs has completed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimit {
    /// Stop once this many jobs have completed.
    pub max_completed: Option<u64>,
}

impl RunLimit {
    /// Run until all events drain.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Run until `n` jobs complete.
    pub fn jobs(n: u64) -> Self {
        Self {
            max_completed: Some(n),
        }
    }
}

/// A lazily-consumed source of arrival events: any job iterator in
/// non-decreasing arrival order (e.g. a
/// `hierdrl_trace::stream::GeneratorStream`, or a materialized trace's
/// jobs). The cluster holds at most one not-yet-processed job from the
/// source, so a streamed raw-scale run never materializes its trace.
pub struct ArrivalSource {
    iter: Box<dyn Iterator<Item = Job> + Send>,
}

impl ArrivalSource {
    /// Wraps an arbitrary job iterator. Jobs must come in non-decreasing
    /// arrival order with the cluster's resource dimensionality — both are
    /// asserted as the simulation consumes the stream.
    pub fn from_stream(iter: impl Iterator<Item = Job> + Send + 'static) -> Self {
        Self {
            iter: Box::new(iter),
        }
    }

    /// Wraps an already-sorted job vector.
    pub fn from_jobs(jobs: Vec<Job>) -> Self {
        Self::from_stream(jobs.into_iter())
    }

    fn next_job(&mut self) -> Option<Job> {
        self.iter.next()
    }
}

impl std::fmt::Debug for ArrivalSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrivalSource").finish_non_exhaustive()
    }
}

/// Incremental cluster-wide accounting: accumulated fleet integrals plus
/// the instantaneous fleet rates that advance them, updated in O(1) when a
/// single server changes, so no event re-sums all `M` servers. Job counts
/// are kept as integers, so only the power and overload rates carry
/// floating-point drift (bounded by one rounding per server touch).
#[derive(Debug)]
struct LazyAgg {
    last: SimTime,
    energy_joules: f64,
    vm_time_integral: f64,
    queue_time_integral: f64,
    overload_integral: f64,
    power_watts: f64,
    overload: f64,
    jobs_in_system: i64,
    queued: i64,
}

impl LazyAgg {
    fn new() -> Self {
        Self {
            last: SimTime::ZERO,
            energy_joules: 0.0,
            vm_time_integral: 0.0,
            queue_time_integral: 0.0,
            overload_integral: 0.0,
            power_watts: 0.0,
            overload: 0.0,
            jobs_in_system: 0,
            queued: 0,
        }
    }

    /// Advances the fleet integrals to `now` at the current rates.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last);
        if dt > 0.0 {
            self.energy_joules += self.power_watts * dt;
            self.vm_time_integral += self.jobs_in_system as f64 * dt;
            self.queue_time_integral += self.queued as f64 * dt;
            self.overload_integral += self.overload * dt;
        }
        self.last = now;
    }

    /// Adds `s`'s cached rates (see [`Server`]'s "Cached rates").
    fn add_server(&mut self, s: &Server) {
        self.power_watts += s.power_watts();
        self.overload += s.overload();
        self.jobs_in_system += s.jobs_in_system() as i64;
        self.queued += s.queue_len() as i64;
    }

    /// Subtracts `s`'s cached rates.
    fn remove_server(&mut self, s: &Server) {
        self.power_watts -= s.power_watts();
        self.overload -= s.overload();
        self.jobs_in_system -= s.jobs_in_system() as i64;
        self.queued -= s.queue_len() as i64;
    }
}

/// The continuous-time, event-driven cluster simulator.
///
/// Create one with a [`ClusterConfig`] and a workload (jobs sorted by
/// arrival), then [`Cluster::run`] it under an [`Allocator`] and a
/// [`PowerManager`].
///
/// # Examples
///
/// ```
/// use hierdrl_sim::prelude::*;
///
/// let config = ClusterConfig::paper(4);
/// let jobs = vec![Job::new(
///     JobId(0),
///     SimTime::from_secs(1.0),
///     60.0,
///     ResourceVec::cpu_mem_disk(0.25, 0.1, 0.05),
/// )];
/// let mut cluster = Cluster::new(config, jobs).unwrap();
/// let outcome = cluster.run(
///     &mut RoundRobinAllocator::new(),
///     &mut AlwaysOnPower,
///     RunLimit::unbounded(),
/// );
/// assert_eq!(outcome.totals.jobs_completed, 1);
/// ```
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    servers: Vec<Server>,
    events: EventQueue,
    arrivals: ArrivalSource,
    /// The earliest not-yet-processed arrival; refilled from `arrivals`.
    pending_arrival: Option<Job>,
    /// Latest arrival seen, for the monotone-stream assertion.
    last_arrival: SimTime,
    now: SimTime,
    jobs_arrived: u64,
    /// Jobs re-placed through the allocator after a server crash or leave.
    jobs_requeued: u64,
    /// Fleet ops that targeted an invalid server (out-of-range id,
    /// departed slot, or inapplicable state) and were dropped as
    /// documented no-ops.
    fleet_ops_ignored: u64,
    /// Cached fleet aggregates; recomputed on every fleet mutation.
    fleet: FleetAgg,
    /// Completions counted independently of the (possibly unretained)
    /// `completed` record vector.
    jobs_done: u64,
    completed: Vec<CompletedJob>,
    total_latency: f64,
    samples: Vec<SamplePoint>,
    agg: LazyAgg,
    /// Reusable `(job, finishes)` buffer for scheduling starts.
    started_buf: Vec<(JobId, SimTime)>,
}

impl Cluster {
    /// Builds a cluster and seeds the arrival events from `jobs`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a job's resource
    /// dimensionality does not match the cluster's.
    pub fn new(config: ClusterConfig, mut jobs: Vec<Job>) -> Result<Self, String> {
        for job in &jobs {
            if job.demand.dims() != config.resource_dims {
                return Err(format!(
                    "{} has {} resource dims, cluster has {}",
                    job.id,
                    job.demand.dims(),
                    config.resource_dims
                ));
            }
        }
        // Stable sort by arrival: exactly the order the event heap used to
        // pop up-front-seeded arrivals — time order, insertion order on ties.
        jobs.sort_by_key(|j| j.arrival);
        Self::from_source(config, ArrivalSource::from_jobs(jobs))
    }

    /// Builds a cluster fed by a lazy arrival source — the raw-scale entry
    /// point, which never holds more than one pending job in memory.
    ///
    /// Event ordering is identical to [`Cluster::new`]: at equal timestamps
    /// an arrival is processed before any dynamic event, matching the
    /// original semantics where all arrivals were seeded into the queue
    /// ahead of every dynamically-scheduled event.
    ///
    /// The source must yield jobs in non-decreasing arrival order with the
    /// cluster's resource dimensionality; violations panic mid-run (a
    /// streamed source cannot be validated up front).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn from_source(config: ClusterConfig, arrivals: ArrivalSource) -> Result<Self, String> {
        config.validate()?;
        let servers: Vec<Server> = (0..config.num_servers)
            .map(|i| {
                Server::new(
                    config.server_capacity(i),
                    config.servers_initially_on,
                    &config,
                )
            })
            .collect();
        let mut agg = LazyAgg::new();
        for s in &servers {
            agg.add_server(s);
        }
        let fleet = FleetAgg::compute(&servers);
        let mut cluster = Self {
            config,
            servers,
            events: EventQueue::new(),
            arrivals,
            pending_arrival: None,
            last_arrival: SimTime::ZERO,
            now: SimTime::ZERO,
            jobs_arrived: 0,
            jobs_requeued: 0,
            fleet_ops_ignored: 0,
            fleet,
            jobs_done: 0,
            completed: Vec::new(),
            total_latency: 0.0,
            samples: Vec::new(),
            agg,
            started_buf: Vec::new(),
        };
        cluster.refill_arrival();
        Ok(cluster)
    }

    /// Pulls the next job from the arrival source into `pending_arrival`,
    /// asserting stream monotonicity and dimensionality.
    fn refill_arrival(&mut self) {
        debug_assert!(self.pending_arrival.is_none());
        if let Some(job) = self.arrivals.next_job() {
            assert_eq!(
                job.demand.dims(),
                self.config.resource_dims,
                "{} has {} resource dims, cluster has {}",
                job.id,
                job.demand.dims(),
                self.config.resource_dims
            );
            assert!(
                job.arrival >= self.last_arrival,
                "arrival stream must be non-decreasing: {} at {:?} after {:?}",
                job.id,
                job.arrival,
                self.last_arrival
            );
            self.last_arrival = job.arrival;
            self.pending_arrival = Some(job);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The servers (read-only).
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Completed-job records, in completion order. Empty when
    /// `retain_completed_jobs` is off (see
    /// [`ClusterConfig::retain_completed_jobs`]); use
    /// [`ClusterTotals::jobs_completed`] for the count either way.
    pub fn completed_jobs(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Sampled accumulated-latency/energy curve points so far.
    pub fn samples(&self) -> &[SamplePoint] {
        &self.samples
    }

    /// Schedules a deterministic fleet mutation (the chaos axis) at `time`.
    /// Call before [`Cluster::run`]; at equal timestamps arrivals are
    /// processed first, so fleet changes fire *between* arrivals.
    pub fn schedule_fleet_op(&mut self, time: SimTime, op: FleetOp) {
        self.events.push(time, Event::FleetChange { op });
    }

    fn account_all(&mut self, now: SimTime) {
        for s in &mut self.servers {
            s.account(now);
        }
    }

    /// Brackets a single-server mutation: advance the fleet integrals to
    /// `now`, bring the server's own integrals up to date, and subtract its
    /// (pre-mutation) rates from the fleet rates. Both read the server's
    /// cached rates, which the previous bracket's [`Cluster::touch_end`]
    /// left equal to a fresh evaluation (asserted bit for bit in debug
    /// builds).
    fn touch_begin(&mut self, sid: ServerId) {
        self.agg.advance(self.now);
        let server = &mut self.servers[sid.0];
        debug_assert!(
            server.power_watts().to_bits()
                == server.compute_power_watts(&self.config.power).to_bits()
                && server.overload().to_bits()
                    == server.compute_overload(&self.config.reliability).to_bits(),
            "{sid} entered a touch with stale cached rates"
        );
        server.account(self.now);
        self.agg.remove_server(server);
    }

    /// Closes a [`Cluster::touch_begin`] bracket: refreshes the server's
    /// cached power draw and overload from its post-mutation state — the
    /// one power-curve evaluation of the touch — and adds them back into
    /// the fleet rates.
    fn touch_end(&mut self, sid: ServerId) {
        let server = &mut self.servers[sid.0];
        server.refresh_rates(&self.config);
        self.agg.add_server(server);
    }

    /// The fleet totals at `now`: the running integrals, extrapolated from
    /// the last fleet advance at the current (constant) rates.
    fn totals(&self) -> ClusterTotals {
        let agg = &self.agg;
        let dt = self.now.since(agg.last);
        ClusterTotals {
            time_s: self.now.as_secs(),
            energy_joules: agg.energy_joules + agg.power_watts * dt,
            vm_time_integral: agg.vm_time_integral + agg.jobs_in_system as f64 * dt,
            queue_time_integral: agg.queue_time_integral + agg.queued as f64 * dt,
            overload_integral: agg.overload_integral + agg.overload * dt,
            power_watts: agg.power_watts,
            jobs_arrived: self.jobs_arrived,
            jobs_completed: self.jobs_done,
            total_latency_s: self.total_latency,
            jobs_requeued: self.jobs_requeued,
        }
    }

    /// A fresh view with the fleet totals at `self.now`.
    fn view(&self) -> ClusterView<'_> {
        ClusterView {
            now: self.now,
            servers: &self.servers,
            totals: self.totals(),
            config: &self.config,
            fleet: &self.fleet,
        }
    }

    /// Fleet ops dropped as documented no-ops because they targeted an
    /// out-of-range id, a departed slot, or an inapplicable state (see
    /// [`FleetOp`]).
    pub fn fleet_ops_ignored(&self) -> u64 {
        self.fleet_ops_ignored
    }

    /// Current live (non-departed) fleet size.
    pub fn num_live(&self) -> usize {
        self.fleet.num_live
    }

    /// Re-derives the cached fleet aggregates after a fleet mutation.
    fn refresh_fleet_agg(&mut self) {
        self.fleet = FleetAgg::compute(&self.servers);
    }

    /// Starts whatever fits on `sid` and schedules the finish events,
    /// through the reusable `started_buf` (no per-event allocation).
    fn start_and_schedule(&mut self, sid: ServerId) {
        self.started_buf.clear();
        self.servers[sid.0].start_fitting_jobs_into(self.now, &mut self.started_buf);
        for &(job, finishes) in &self.started_buf {
            self.events
                .push(finishes, Event::JobFinish { server: sid, job });
        }
    }

    fn handle_idle_decision(&mut self, sid: ServerId, power: &mut dyn PowerManager) {
        let decision = {
            let view = self.view();
            power.on_idle(sid, &view, self.now)
        };
        if !self.servers[sid.0].is_idle() {
            // The power manager cannot change server state, so this only
            // guards against future refactors.
            return;
        }
        match decision {
            TimeoutDecision::SleepNow => {
                self.touch_begin(sid);
                let until = self.servers[sid.0].begin_sleep(self.now, self.config.t_off);
                self.events
                    .push(until, Event::SleepComplete { server: sid });
                self.touch_end(sid);
            }
            TimeoutDecision::After(seconds) => {
                assert!(
                    seconds.is_finite() && seconds >= 0.0,
                    "timeout must be finite and non-negative, got {seconds}"
                );
                // A token changes no power/job rates: no touch needed.
                let token = self.servers[sid.0].issue_timeout_token();
                self.events.push(
                    self.now + seconds,
                    Event::TimeoutFired { server: sid, token },
                );
            }
            TimeoutDecision::StayAwake => {}
        }
    }

    /// Cyclically scans from `start` for a healthy server. The identity map
    /// while no server is crashed, so fault-free runs are untouched.
    ///
    /// # Panics
    ///
    /// Panics if every server is crashed (the fleet-op layer rejects the
    /// crash that would get here, so this is a backstop).
    fn next_healthy_from(&self, start: ServerId) -> ServerId {
        let n = self.servers.len();
        for off in 0..n {
            let i = (start.0 + off) % n;
            if self.servers[i].is_healthy() {
                return ServerId(i);
            }
        }
        panic!("no healthy servers left in the cluster");
    }

    /// Places one job through the allocator: the body of every arrival and
    /// of every post-crash re-placement. `fresh_arrival` distinguishes the
    /// two for conservation accounting — a requeued job was already counted
    /// as arrived, and is counted in `jobs_requeued` instead.
    fn place_job(
        &mut self,
        job: Job,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
        fresh_arrival: bool,
    ) {
        if fresh_arrival {
            self.jobs_arrived += 1;
        } else {
            self.jobs_requeued += 1;
        }
        let sid = {
            let view = self.view();
            let sid = allocator.select(&job, &view);
            assert!(
                sid.0 < self.servers.len(),
                "allocator chose {sid} out of {} servers",
                self.servers.len()
            );
            // A policy unaware of the chaos axis may still point at a
            // crashed machine; remap to the next healthy one.
            let sid = self.next_healthy_from(sid);
            // Power manager observes the arrival before the job lands.
            power.on_job_arrival(sid, &view, self.now);
            sid
        };
        let t_on = self.config.t_on;
        self.touch_begin(sid);
        let server = &mut self.servers[sid.0];
        server.enqueue(job);
        match server.state() {
            MachineState::On => {
                // A pending idle timeout no longer applies.
                server.cancel_timeout();
                self.start_and_schedule(sid);
            }
            MachineState::Sleeping => {
                let until = server.begin_wake(self.now, t_on);
                self.events.push(until, Event::WakeComplete { server: sid });
            }
            MachineState::WakingUp { .. } => {
                // Already waking; the job starts when the wake completes.
            }
            MachineState::GoingToSleep { .. } => {
                // Fig. 4(a): the transition cannot be aborted; re-wake after.
                server.request_wake_after_sleep();
            }
        }
        self.touch_end(sid);
    }

    fn handle_finish(
        &mut self,
        sid: ServerId,
        job: crate::job::JobId,
        power: &mut dyn PowerManager,
    ) {
        self.touch_begin(sid);
        let server = &mut self.servers[sid.0];
        // Finish-time-checked: a job requeued by a crash may be running
        // again under the same id with a later finish, which makes the
        // original finish event stale even though the id is present.
        let Some(run) = server.complete_job_at(job, self.now) else {
            self.touch_end(sid);
            return; // stale event
        };
        let record = CompletedJob {
            id: run.id,
            server: sid,
            arrival: run.arrival,
            started: run.started,
            finished: self.now,
        };
        self.total_latency += record.latency();
        self.jobs_done += 1;
        if self.config.retain_completed_jobs {
            self.completed.push(record);
        }

        self.start_and_schedule(sid);
        self.touch_end(sid);

        if (self.jobs_done as usize).is_multiple_of(self.config.sample_every) {
            let totals = self.totals();
            self.samples.push(SamplePoint {
                jobs_completed: totals.jobs_completed,
                time_s: totals.time_s,
                total_latency_s: totals.total_latency_s,
                energy_joules: totals.energy_joules,
            });
        }

        if self.servers[sid.0].is_idle() {
            self.handle_idle_decision(sid, power);
        }
    }

    fn handle_wake_complete(&mut self, sid: ServerId, power: &mut dyn PowerManager) {
        // A crash abandons in-flight transitions, so a transition-complete
        // event is only live if the server is still mid-transition *due at
        // exactly this time*; anything else is a stale pre-crash event.
        if !matches!(self.servers[sid.0].state(), MachineState::WakingUp { until } if until == self.now)
        {
            return;
        }
        self.touch_begin(sid);
        self.servers[sid.0].finish_wake();
        self.start_and_schedule(sid);
        self.touch_end(sid);
        if self.servers[sid.0].is_idle() {
            self.handle_idle_decision(sid, power);
        }
    }

    fn handle_sleep_complete(&mut self, sid: ServerId) {
        if !matches!(self.servers[sid.0].state(), MachineState::GoingToSleep { until } if until == self.now)
        {
            return; // stale pre-crash event
        }
        let t_on = self.config.t_on;
        self.touch_begin(sid);
        let server = &mut self.servers[sid.0];
        if server.finish_sleep() {
            let until = server.begin_wake(self.now, t_on);
            self.events.push(until, Event::WakeComplete { server: sid });
        }
        self.touch_end(sid);
    }

    /// Whether `sid` names a live (in-range, non-departed) slot; counts
    /// the op as ignored otherwise.
    fn validate_fleet_target(&mut self, sid: ServerId) -> bool {
        if sid.0 < self.servers.len() && self.servers[sid.0].is_live() {
            true
        } else {
            self.fleet_ops_ignored += 1;
            false
        }
    }

    /// Applies a scheduled fleet mutation. A crash (or leave) drains the
    /// victim's queued and running jobs and re-places each exactly once
    /// through the allocator (counted in `jobs_requeued`, not
    /// `jobs_arrived`); running jobs restart from scratch, keeping their
    /// original arrival so the lost work shows up as latency. A join
    /// re-uses the lowest-index departed slot, or appends a fresh one
    /// while the fleet is below [`ClusterConfig::effective_max`]. Ops
    /// targeting an invalid server — out-of-range id, departed slot, or an
    /// inapplicable state (recover of a healthy server, crash of a crashed
    /// one, join at the cap) — are documented no-ops counted in
    /// [`Cluster::fleet_ops_ignored`]. Both control tiers are notified via
    /// their `on_fleet_change` hooks after the mutation (and after any
    /// re-placements) so they see the settled fleet.
    ///
    /// # Panics
    ///
    /// Panics on a crash or leave of the last healthy server (the
    /// simulation would otherwise hang with unplaceable jobs).
    fn apply_fleet_op(
        &mut self,
        op: FleetOp,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) {
        let mut joined_idle: Option<ServerId> = None;
        match op {
            FleetOp::Crash(sid) => {
                if !self.validate_fleet_target(sid) || !self.servers[sid.0].is_healthy() {
                    self.note_inapplicable(sid);
                    return;
                }
                self.assert_not_last_healthy(sid, "crash");
                self.touch_begin(sid);
                let orphans = self.servers[sid.0].crash(self.now);
                self.touch_end(sid);
                self.refresh_fleet_agg();
                for job in orphans {
                    self.place_job(job, allocator, power, false);
                }
            }
            FleetOp::Recover(sid) => {
                if !self.validate_fleet_target(sid) || self.servers[sid.0].is_healthy() {
                    self.note_inapplicable(sid);
                    return;
                }
                // Healthy-pool membership changes no power/job rates, so no
                // accounting bracket is needed.
                self.servers[sid.0].recover();
                self.refresh_fleet_agg();
            }
            FleetOp::SetScale { server: sid, scale } => {
                if !self.validate_fleet_target(sid) {
                    return;
                }
                self.touch_begin(sid);
                self.servers[sid.0].set_degraded_scale(scale);
                // Restoring capacity can unblock the FCFS head; a shrink
                // starts nothing (fits are only re-checked, never revoked).
                self.start_and_schedule(sid);
                self.touch_end(sid);
                self.refresh_fleet_agg();
            }
            FleetOp::Join(spec) => match self.apply_join(spec) {
                Some(sid) => joined_idle = Some(sid).filter(|&s| self.servers[s.0].is_idle()),
                None => return,
            },
            FleetOp::Leave(sid) => {
                if !self.validate_fleet_target(sid) || !self.servers[sid.0].is_healthy() {
                    self.note_inapplicable(sid);
                    return;
                }
                self.assert_not_last_healthy(sid, "leave");
                self.touch_begin(sid);
                let orphans = self.servers[sid.0].depart(self.now);
                self.touch_end(sid);
                self.refresh_fleet_agg();
                for job in orphans {
                    self.place_job(job, allocator, power, false);
                }
            }
        }
        {
            let view = self.view();
            allocator.on_fleet_change(&view);
            power.on_fleet_change(&view);
        }
        // A joined server that comes up on and idle gets its case-(1)
        // decision epoch, exactly like initially-on servers at t = 0.
        if let Some(sid) = joined_idle {
            self.handle_idle_decision(sid, power);
        }
    }

    /// Counts an in-range op whose target state made it inapplicable. The
    /// `validate_fleet_target` short-circuit already counted out-of-range
    /// and departed targets.
    fn note_inapplicable(&mut self, sid: ServerId) {
        if sid.0 < self.servers.len() && self.servers[sid.0].is_live() {
            self.fleet_ops_ignored += 1;
        }
    }

    /// Backstop against draining the fleet: panics if `sid` is the last
    /// healthy server.
    fn assert_not_last_healthy(&self, sid: ServerId, what: &str) {
        let others_healthy = self
            .servers
            .iter()
            .enumerate()
            .any(|(i, s)| i != sid.0 && s.is_healthy());
        assert!(
            others_healthy,
            "cannot {what} {sid}: it is the last healthy server in the cluster"
        );
    }

    /// Admits a joining server: re-uses the lowest-index departed slot, or
    /// appends a new one below the `effective_max` cap. Returns the slot
    /// id, or `None` (counted as ignored) when the spec is invalid or the
    /// fleet is at its cap.
    fn apply_join(&mut self, spec: crate::events::ServerSpec) -> Option<ServerId> {
        let valid = spec.capacity.dims() == self.config.resource_dims
            && spec.capacity.as_slice().iter().all(|&c| c > 0.0);
        if !valid {
            self.fleet_ops_ignored += 1;
            return None;
        }
        let reusable = self.servers.iter().position(|s| !s.is_live());
        let sid = match reusable {
            Some(i) => {
                let sid = ServerId(i);
                self.touch_begin(sid);
                self.servers[i].rejoin(spec.capacity, spec.initially_on);
                self.touch_end(sid);
                sid
            }
            None if self.servers.len() < self.config.effective_max() => {
                let sid = ServerId(self.servers.len());
                let mut server = Server::new(spec.capacity, spec.initially_on, &self.config);
                // The server exists only from `now` on: advance the fleet
                // integrals first, then start its clock at `now` so it
                // never retroactively integrates the pre-join interval.
                server.reset_account_clock(self.now);
                self.agg.advance(self.now);
                self.agg.add_server(&server);
                self.servers.push(server);
                sid
            }
            None => {
                self.fleet_ops_ignored += 1;
                return None;
            }
        };
        self.refresh_fleet_agg();
        Some(sid)
    }

    fn handle_timeout(&mut self, sid: ServerId, token: u64) {
        let t_off = self.config.t_off;
        if self.servers[sid.0].timeout_token_is_current(token) && self.servers[sid.0].is_idle() {
            self.touch_begin(sid);
            let until = self.servers[sid.0].begin_sleep(self.now, t_off);
            self.events
                .push(until, Event::SleepComplete { server: sid });
            self.touch_end(sid);
        }
    }

    /// Runs the simulation under the given control policies until `limit`
    /// is reached or all events drain.
    pub fn run(
        &mut self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
        limit: RunLimit,
    ) -> RunOutcome {
        // The clock restarts at zero: carried learners drop timestamp-
        // anchored state *before* the first decision epoch below (which
        // already consults the power manager for initially-idle servers).
        allocator.on_run_begin();
        power.on_run_begin();
        // Initially-on idle servers get their case-(1) decision epoch at
        // t = 0; otherwise a server that never receives a job would idle
        // forever without the power manager ever being consulted.
        for i in 0..self.servers.len() {
            if self.servers[i].is_idle() {
                self.handle_idle_decision(ServerId(i), power);
            }
        }
        loop {
            // An arrival at time t is processed before any dynamic event at
            // t: originally every arrival was seeded into the queue ahead of
            // all dynamically-scheduled events, so ties broke its way.
            let take_arrival = match (self.pending_arrival.as_ref(), self.events.peek_time()) {
                (Some(job), Some(t)) => job.arrival <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let job = self.pending_arrival.take().expect("checked above");
                self.refill_arrival();
                debug_assert!(job.arrival >= self.now, "event time went backwards");
                self.now = job.arrival;
                self.place_job(job, allocator, power, true);
            } else {
                let (time, event) = self.events.pop().expect("peeked above");
                debug_assert!(time >= self.now, "event time went backwards");
                self.now = time;
                self.dispatch(event, allocator, power);
            }
            if let Some(max_jobs) = limit.max_completed {
                if self.jobs_done >= max_jobs {
                    break;
                }
            }
        }
        // Bring fleet integrals and every server's own statistics up to the
        // end of the run, so per-server stats are exact for downstream
        // consumers.
        self.agg.advance(self.now);
        self.account_all(self.now);
        let view = self.view();
        allocator.on_run_end(&view);
        power.on_run_end(&view);
        RunOutcome {
            totals: self.totals(),
            end_time: self.now,
            samples: self.samples.clone(),
        }
    }

    /// Handles one event popped from the queue.
    fn dispatch(
        &mut self,
        event: Event,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) {
        match event {
            Event::FleetChange { op } => self.apply_fleet_op(op, allocator, power),
            Event::JobFinish { server, job } => self.handle_finish(server, job, power),
            Event::WakeComplete { server } => self.handle_wake_complete(server, power),
            Event::SleepComplete { server } => self.handle_sleep_complete(server),
            Event::TimeoutFired { server, token } => self.handle_timeout(server, token),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::policies::{
        AlwaysOnPower, FixedTimeoutPower, RoundRobinAllocator, SleepImmediatelyPower,
    };
    use crate::resources::ResourceVec;

    fn job(id: u64, t: f64, dur: f64, cpu: f64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(t),
            dur,
            ResourceVec::cpu_mem_disk(cpu, 0.1, 0.05),
        )
    }

    fn cluster(n: usize, jobs: Vec<Job>) -> Cluster {
        Cluster::new(ClusterConfig::paper(n), jobs).unwrap()
    }

    #[test]
    fn single_job_completes_with_pure_service_latency() {
        let mut c = cluster(2, vec![job(0, 10.0, 60.0, 0.5)]);
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 1);
        let rec = &c.completed_jobs()[0];
        assert_eq!(rec.latency(), 60.0);
        assert_eq!(rec.waiting_time(), 0.0);
    }

    #[test]
    fn fcfs_queueing_adds_latency() {
        // Two 0.8-CPU jobs on one server: second waits for the first.
        let jobs = vec![job(0, 0.0, 100.0, 0.8), job(1, 0.0, 100.0, 0.8)];
        let mut c = cluster(1, jobs);
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        let recs = c.completed_jobs();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].latency(), 100.0);
        assert_eq!(recs[1].latency(), 200.0);
        assert_eq!(recs[1].waiting_time(), 100.0);
    }

    #[test]
    fn sleeping_server_adds_wake_latency() {
        let mut config = ClusterConfig::paper(1);
        config.servers_initially_on = false;
        let mut c = Cluster::new(config, vec![job(0, 0.0, 60.0, 0.5)]).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        // Latency = Ton (30 s wake) + 60 s service.
        assert_eq!(c.completed_jobs()[0].latency(), 90.0);
    }

    #[test]
    fn always_on_energy_includes_idle_tail_up_to_last_event() {
        let mut c = cluster(1, vec![job(0, 0.0, 100.0, 0.0)]);
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        // One server on for 100 s at ~idle power (0 CPU demand job).
        assert!((out.totals.energy_joules - 87.0 * 100.0).abs() < 1.0);
    }

    #[test]
    fn sleep_immediately_powers_down_after_completion() {
        let mut config = ClusterConfig::paper(1);
        config.servers_initially_on = false;
        let jobs = vec![job(0, 0.0, 100.0, 0.5)];
        let mut c = Cluster::new(config, jobs).unwrap();
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        let s = &c.servers()[0];
        assert!(matches!(s.state(), MachineState::Sleeping));
        assert_eq!(s.stats().wake_transitions, 1);
        assert_eq!(s.stats().sleep_transitions, 1);
        // Energy: 30 s wake + 100 s active + 30 s sleep transition.
        let expected = crate::power::PowerModel::paper().active_power(0.5) * 100.0 + 145.0 * 60.0;
        assert!((out.totals.energy_joules - expected).abs() < 1.0);
    }

    #[test]
    fn job_arriving_during_sleep_transition_waits_for_full_cycle() {
        // Fig. 4(a): job arrives during Toff; server completes sleep, then
        // wakes, then serves.
        let mut config = ClusterConfig::paper(1);
        config.servers_initially_on = false;
        let jobs = vec![job(0, 0.0, 10.0, 0.5), job(1, 50.0, 10.0, 0.5)];
        let mut c = Cluster::new(config, jobs).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        let recs = c.completed_jobs();
        // Job 0: wake 0..30, runs 30..40. Sleep transition 40..70.
        // Job 1 arrives at 50 (mid-transition): sleep completes at 70,
        // wake 70..100, job 1 runs 100..110.
        assert_eq!(recs[0].finished.as_secs(), 40.0);
        assert_eq!(recs[1].finished.as_secs(), 110.0);
        assert_eq!(recs[1].latency(), 60.0);
    }

    #[test]
    fn fixed_timeout_keeps_server_on_for_bursts() {
        // Second job arrives 20 s after first completes; 30 s timeout keeps
        // the server awake so no wake penalty is paid.
        let jobs = vec![job(0, 0.0, 10.0, 0.5), job(1, 30.0, 10.0, 0.5)];
        let mut c = cluster(1, jobs);
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );
        let recs = c.completed_jobs();
        assert_eq!(recs[1].latency(), 10.0, "no wake penalty expected");
        assert_eq!(c.servers()[0].stats().sleep_transitions, 1); // after job 1
    }

    #[test]
    fn fixed_timeout_sleeps_after_quiet_period() {
        let jobs = vec![job(0, 0.0, 10.0, 0.5), job(1, 200.0, 10.0, 0.5)];
        let mut c = cluster(1, jobs);
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );
        let recs = c.completed_jobs();
        // Sleeps at 10+30=40 (until 70). Job 1 arrives 200, wakes by 230.
        assert_eq!(recs[1].latency(), 40.0);
        assert_eq!(c.servers()[0].stats().wake_transitions, 1);
    }

    #[test]
    fn round_robin_spreads_jobs() {
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i as f64, 50.0, 0.3)).collect();
        let mut c = cluster(4, jobs);
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        for s in c.servers() {
            assert_eq!(s.stats().jobs_completed, 1);
        }
    }

    #[test]
    fn max_completed_limit_stops_early() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as f64, 5.0, 0.3)).collect();
        let mut c = cluster(2, jobs);
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::jobs(3),
        );
        assert_eq!(out.totals.jobs_completed, 3);
    }

    #[test]
    fn energy_equals_sum_of_server_energies() {
        let jobs: Vec<Job> = (0..20).map(|i| job(i, i as f64 * 3.0, 40.0, 0.4)).collect();
        let mut c = cluster(3, jobs);
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(10.0),
            RunLimit::unbounded(),
        );
        let sum: f64 = c.servers().iter().map(|s| s.stats().energy_joules).sum();
        assert!((out.totals.energy_joules - sum).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_cluster_integrates_capacity_scaled_energy() {
        // One 2x server and one unit server, both on and idle for 100 s:
        // the fleet burns 3x a unit server's idle energy, and the view
        // reports the capacity-scaled fleet peak.
        let mut config = ClusterConfig::paper(2);
        config.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mut c = Cluster::new(config, vec![job(0, 0.0, 100.0, 0.0)]).unwrap();
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        assert!((out.totals.energy_joules - 3.0 * 87.0 * 100.0).abs() < 1.0);
        assert!((c.view().fleet_peak_watts() - 3.0 * 145.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_job_dims_rejected() {
        let bad = Job::new(JobId(0), SimTime::ZERO, 10.0, ResourceVec::new(&[0.5]));
        assert!(Cluster::new(ClusterConfig::paper(2), vec![bad]).is_err());
    }

    /// Deterministic pseudo-random workload with arrival ties and
    /// sleep/wake churn, to exercise event-ordering edge cases.
    fn churn_jobs(n: u64) -> Vec<Job> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|i| {
                // Integral arrival times (with repeats) and durations that
                // collide exactly with 30 s timeout/transition boundaries.
                let t = (i / 2) as f64 * 10.0;
                let dur = 10.0 + (next() * 4.0).floor() * 10.0;
                job(i, t, dur, 0.2 + next() * 0.5)
            })
            .collect()
    }

    #[test]
    fn streamed_source_is_bitwise_identical_to_vec_input() {
        let jobs = churn_jobs(60);
        let config = ClusterConfig::paper(3);

        let mut vec_cluster = Cluster::new(config.clone(), jobs.clone()).unwrap();
        let vec_out = vec_cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );

        let source = ArrivalSource::from_stream(jobs.into_iter());
        let mut stream_cluster = Cluster::from_source(config, source).unwrap();
        let stream_out = stream_cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );

        assert_eq!(vec_out.totals, stream_out.totals);
        assert_eq!(vec_out.end_time, stream_out.end_time);
        assert_eq!(vec_out.samples, stream_out.samples);
        assert_eq!(
            vec_cluster.completed_jobs(),
            stream_cluster.completed_jobs()
        );
        for (a, b) in vec_cluster.servers().iter().zip(stream_cluster.servers()) {
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn unsorted_vec_input_matches_sorted_input() {
        // Distinct arrival times: the event heap used to restore time order
        // regardless of input order, and the stable sort must do the same.
        let sorted: Vec<Job> = (0..40).map(|i| job(i, i as f64 * 7.0, 25.0, 0.4)).collect();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        let mut a = Cluster::new(ClusterConfig::paper(3), sorted).unwrap();
        let mut b = Cluster::new(ClusterConfig::paper(3), shuffled).unwrap();
        let out_a = a.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );
        let out_b = b.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );
        assert_eq!(out_a.totals, out_b.totals);
        assert_eq!(a.completed_jobs(), b.completed_jobs());
    }

    /// Asserts that the view's O(1) fleet totals equal a from-scratch sum:
    /// every server cloned, accounted to `view.now`, and summed in index
    /// order. The rates come from each server's state, never from its
    /// cache: the clone's rates are recomputed before it is accounted, so
    /// a touch that leaves a stale cached rate behind shows up here.
    fn assert_totals_match_fresh_sum(view: &ClusterView<'_>) {
        let config = view.config();
        let mut fresh = [0.0; 5];
        for s in view.servers() {
            let mut s = s.clone();
            s.refresh_rates(config);
            s.account(view.now);
            let st = s.stats();
            fresh[0] += st.energy_joules;
            fresh[1] += st.jobs_in_system_integral;
            fresh[2] += st.queue_integral;
            fresh[3] += st.overload_integral;
            fresh[4] += s.compute_power_watts(&config.power);
        }
        let t = view.totals();
        let kept = [
            t.energy_joules,
            t.vm_time_integral,
            t.queue_time_integral,
            t.overload_integral,
            t.power_watts,
        ];
        let names = ["energy", "vm time", "queue time", "overload", "power"];
        for ((name, a), b) in names.iter().zip(kept).zip(fresh) {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "{name} at {:?}: running {a} vs from scratch {b}",
                view.now
            );
        }
    }

    /// Asserts that `server`'s own integrals are current at `now`:
    /// accounting a clone of it again changes nothing.
    fn assert_accounted(server: &Server, now: SimTime) {
        let mut clone = server.clone();
        clone.account(now);
        assert_eq!(clone.stats(), server.stats(), "not accounted to {now:?}");
    }

    #[test]
    fn lazy_accounting_matches_eager_within_float_tolerance() {
        /// Round-robin that checks the fleet totals at every placement and
        /// fleet change.
        struct CheckedRr {
            inner: RoundRobinAllocator,
            checks: usize,
        }
        impl Allocator for CheckedRr {
            fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
                assert_totals_match_fresh_sum(view);
                self.checks += 1;
                self.inner.select(job, view)
            }
            fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
                assert_totals_match_fresh_sum(view);
                self.checks += 1;
            }
        }
        /// Cycles the three timeout decisions, so every idle-side touch
        /// site runs, and checks the totals and the idling server's stats.
        struct CyclingPower {
            idles: usize,
            fleet_changes: usize,
        }
        impl PowerManager for CyclingPower {
            fn on_idle(
                &mut self,
                server: ServerId,
                view: &ClusterView<'_>,
                now: SimTime,
            ) -> TimeoutDecision {
                assert_totals_match_fresh_sum(view);
                // The idling server changed at `now`, so its own integrals
                // are current.
                assert_accounted(view.server(server), now);
                self.idles += 1;
                match self.idles % 3 {
                    0 => TimeoutDecision::SleepNow,
                    1 => TimeoutDecision::After(30.0),
                    _ => TimeoutDecision::StayAwake,
                }
            }
            fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
                assert_totals_match_fresh_sum(view);
                self.fleet_changes += 1;
            }
        }

        let mut config = ClusterConfig::paper(4);
        config.max_servers = Some(6);
        config.sample_every = 13;
        let mut c = Cluster::new(config, churn_jobs(80)).unwrap();
        let unit = crate::events::ServerSpec::unit(3, true);
        let set_scale = |scale| FleetOp::SetScale {
            server: ServerId(1),
            scale,
        };
        let ops = [
            (35.0, set_scale(0.5)),
            (75.0, set_scale(1.0)),
            (105.0, FleetOp::Crash(ServerId(2))),
            (155.0, FleetOp::Recover(ServerId(2))),
            (185.0, FleetOp::Join(unit.clone())),
            (225.0, FleetOp::Leave(ServerId(0))),
            (265.0, FleetOp::Join(unit)),
        ];
        for (t, op) in ops {
            c.schedule_fleet_op(SimTime::from_secs(t), op);
        }
        let mut allocator = CheckedRr {
            inner: RoundRobinAllocator::new(),
            checks: 0,
        };
        let mut power = CyclingPower {
            idles: 0,
            fleet_changes: 0,
        };
        let out = c.run(&mut allocator, &mut power, RunLimit::unbounded());

        // Every op applied: the append-join took slot 4, and the second
        // join re-used the departed slot 0.
        assert_eq!(c.fleet_ops_ignored(), 0);
        assert_eq!(c.servers().len(), 5);
        assert_eq!(c.num_live(), 5);
        assert_eq!(power.fleet_changes, 7);
        assert!(out.totals.jobs_requeued > 0, "the crash drained no jobs");
        assert_eq!(out.totals.jobs_completed, 80);
        assert_eq!(
            allocator.checks as u64,
            80 + out.totals.jobs_requeued + 7,
            "one check per placement and per fleet change"
        );
        // Each of the three timeout decisions ran at least three times.
        assert!(power.idles >= 9, "only {} idle epochs", power.idles);
        // At run end every server is accounted to the end time.
        for s in c.servers() {
            assert_accounted(s, c.now());
        }
        assert_totals_match_fresh_sum(&c.view());
    }

    #[test]
    fn retention_off_drops_records_but_keeps_every_aggregate() {
        let jobs = churn_jobs(50);
        let mut retain_cfg = ClusterConfig::paper(2);
        retain_cfg.sample_every = 7;
        let mut drop_cfg = retain_cfg.clone();
        drop_cfg.retain_completed_jobs = false;

        let mut retained = Cluster::new(retain_cfg, jobs.clone()).unwrap();
        let out_retained = retained.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );
        let mut dropped = Cluster::new(drop_cfg, jobs).unwrap();
        let out_dropped = dropped.run(
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(30.0),
            RunLimit::unbounded(),
        );

        assert!(dropped.completed_jobs().is_empty());
        assert_eq!(retained.completed_jobs().len(), 50);
        // Aggregates — including the latency sum and sample cadence — are
        // bitwise unaffected by retention.
        assert_eq!(out_retained.totals, out_dropped.totals);
        assert_eq!(out_retained.samples, out_dropped.samples);
    }

    #[test]
    fn max_completed_limit_works_without_retention() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as f64, 5.0, 0.3)).collect();
        let mut config = ClusterConfig::paper(2);
        config.retain_completed_jobs = false;
        let mut c = Cluster::new(config, jobs).unwrap();
        let out = c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::jobs(3),
        );
        assert_eq!(out.totals.jobs_completed, 3);
        assert!(c.completed_jobs().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_stream_panics() {
        let jobs = vec![job(0, 10.0, 5.0, 0.3), job(1, 5.0, 5.0, 0.3)];
        let source = ArrivalSource::from_stream(jobs.into_iter());
        let mut c = Cluster::from_source(ClusterConfig::paper(1), source).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
    }

    #[test]
    fn samples_record_monotone_curves() {
        let mut config = ClusterConfig::paper(2);
        config.sample_every = 2;
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as f64, 5.0, 0.3)).collect();
        let mut c = Cluster::new(config, jobs).unwrap();
        c.run(
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        );
        let samples = c.samples();
        assert!(!samples.is_empty());
        for w in samples.windows(2) {
            assert!(w[1].jobs_completed > w[0].jobs_completed);
            assert!(w[1].total_latency_s >= w[0].total_latency_s);
            assert!(w[1].energy_joules >= w[0].energy_joules);
        }
    }
}
