//! Timing decorators at the layer boundaries the simulator crosses.
//!
//! The simulator calls the global tier through [`Allocator`] and the local
//! tier through [`PowerManager`]. Each decorator forwards every call
//! unchanged and records how long the wrapped layer took, so a traced
//! evaluation makes exactly the same decisions as an untraced one. Spans
//! stay in memory and are read out after the run.

use hierdrl_core::dqn::GroupedQNetwork;
use hierdrl_core::state::StateEncoder;
use hierdrl_sim::cluster::{Allocator, ClusterView, PowerManager, TimeoutDecision};
use hierdrl_sim::job::{Job, ServerId};
use hierdrl_sim::time::SimTime;
use std::hint::black_box;
use std::time::Instant;

fn nanos_since(start: Instant) -> u64 {
    // Durations of single calls are far below u64 nanoseconds (584 years).
    start.elapsed().as_nanos() as u64
}

/// Picks which calls of a hook are timed: every `stride`-th, starting with
/// the first. A clock read waits for the loads in flight, so on the
/// raw-scale kernel (~2.5 µs per job, memory-bound) timing every one of its
/// ~2.6 hook calls per job slows it by about a tenth; timing a regular
/// sample keeps both that cost and the span memory bounded.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    stride: u64,
    calls: u64,
}

impl Sampler {
    fn new(stride: u64) -> Self {
        Self {
            stride: stride.max(1),
            calls: 0,
        }
    }

    /// Counts one call and says whether to time it.
    fn tick(&mut self) -> bool {
        let timed = self.calls.is_multiple_of(self.stride);
        self.calls += 1;
        timed
    }

    /// Calls counted, timed or not.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Seconds over every call, estimated from `timed_ns` over the timed ones.
    pub fn scaled_s(&self, timed_ns: u64) -> f64 {
        let timed = self.calls.div_ceil(self.stride);
        if timed == 0 {
            0.0
        } else {
            timed_ns as f64 * 1e-9 * self.calls as f64 / timed as f64
        }
    }
}

/// A frozen copy of the DRL global tier's forward path. `DrlAllocator`
/// encodes the state and runs the Q-network inside `select`, next to replay
/// and training; re-running the forward path on a copy with the same
/// `(job, view)` measures those two layers on their own.
pub struct Shadow {
    /// The learner's state encoder.
    pub encoder: StateEncoder,
    /// The learner's Q-network as it was when evaluation began.
    pub qnet: GroupedQNetwork,
}

/// Spans recorded by [`TimedAllocator`].
#[derive(Debug)]
pub struct AllocatorSpans {
    /// Which `select` calls were timed.
    pub select: Sampler,
    /// Duration of every timed `select` call, in call order.
    pub select_ns: Vec<u64>,
    /// Total time of the shadow `StateEncoder::encode` calls.
    pub encode_ns: u64,
    /// Total time of the shadow `GroupedQNetwork::q_values` calls.
    pub q_values_ns: u64,
}

/// Times the global tier's `select`, and runs the [`Shadow`] forward path
/// after each timed call when one is given.
pub struct TimedAllocator<'a> {
    inner: &'a mut dyn Allocator,
    shadow: Option<&'a Shadow>,
    /// The recorded spans.
    pub spans: AllocatorSpans,
}

impl<'a> TimedAllocator<'a> {
    /// Wraps `inner` for a run of about `calls` decisions, timing every
    /// `stride`-th; `shadow` adds the encode/forward measurement.
    pub fn new(
        inner: &'a mut dyn Allocator,
        shadow: Option<&'a Shadow>,
        calls: u64,
        stride: u64,
    ) -> Self {
        let select = Sampler::new(stride);
        let timed = usize::try_from(calls.div_ceil(select.stride)).unwrap_or(0);
        Self {
            inner,
            shadow,
            spans: AllocatorSpans {
                select,
                select_ns: Vec::with_capacity(timed),
                encode_ns: 0,
                q_values_ns: 0,
            },
        }
    }
}

impl Allocator for TimedAllocator<'_> {
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
        if !self.spans.select.tick() {
            return self.inner.select(job, view);
        }
        let start = Instant::now();
        let target = self.inner.select(job, view);
        self.spans.select_ns.push(nanos_since(start));
        if let Some(shadow) = self.shadow {
            let start = Instant::now();
            let state = shadow.encoder.encode(job, view);
            self.spans.encode_ns += nanos_since(start);
            let start = Instant::now();
            black_box(shadow.qnet.q_values(black_box(&state)));
            self.spans.q_values_ns += nanos_since(start);
        }
        target
    }

    fn on_run_begin(&mut self) {
        self.inner.on_run_begin();
    }

    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        self.inner.on_run_end(view);
    }

    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        self.inner.on_fleet_change(view);
    }
}

/// Spans recorded by [`TimedPower`].
#[derive(Debug, Clone, Copy)]
pub struct PowerSpans {
    /// Which `on_idle` calls (timeout decisions) were timed.
    pub idle: Sampler,
    /// Total time of the timed `on_idle` calls.
    pub on_idle_ns: u64,
    /// Which `on_job_arrival` calls were timed.
    pub arrival: Sampler,
    /// Total time of the timed `on_job_arrival` calls (predictor
    /// observation and training).
    pub on_job_arrival_ns: u64,
}

/// Times the local tier's decision and observation hooks.
pub struct TimedPower<'a> {
    inner: &'a mut dyn PowerManager,
    /// The recorded spans.
    pub spans: PowerSpans,
}

impl<'a> TimedPower<'a> {
    /// Wraps `inner`, timing every `stride`-th call of each hook.
    pub fn new(inner: &'a mut dyn PowerManager, stride: u64) -> Self {
        Self {
            inner,
            spans: PowerSpans {
                idle: Sampler::new(stride),
                on_idle_ns: 0,
                arrival: Sampler::new(stride),
                on_job_arrival_ns: 0,
            },
        }
    }
}

impl PowerManager for TimedPower<'_> {
    fn on_idle(
        &mut self,
        server: ServerId,
        view: &ClusterView<'_>,
        now: SimTime,
    ) -> TimeoutDecision {
        if !self.spans.idle.tick() {
            return self.inner.on_idle(server, view, now);
        }
        let start = Instant::now();
        let decision = self.inner.on_idle(server, view, now);
        self.spans.on_idle_ns += nanos_since(start);
        decision
    }

    fn on_job_arrival(&mut self, server: ServerId, view: &ClusterView<'_>, now: SimTime) {
        if !self.spans.arrival.tick() {
            return self.inner.on_job_arrival(server, view, now);
        }
        let start = Instant::now();
        self.inner.on_job_arrival(server, view, now);
        self.spans.on_job_arrival_ns += nanos_since(start);
    }

    fn on_run_begin(&mut self) {
        self.inner.on_run_begin();
    }

    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        self.inner.on_run_end(view);
    }

    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        self.inner.on_fleet_change(view);
    }
}

/// Generates a fresh copy of a streamed trace to exhaustion, outside the
/// simulation, and returns how long the generator took. A clock pair around
/// every pull would cost as much as timing every hook call; this shadow
/// pass measures the same generator work with no clock inside the run.
pub fn time_stream(stream: impl Iterator<Item = Job>) -> u64 {
    let start = Instant::now();
    for job in stream {
        black_box(job);
    }
    nanos_since(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_times_every_stride_th_call_and_scales_to_all() {
        let mut s = Sampler::new(3);
        let timed: Vec<bool> = (0..7).map(|_| s.tick()).collect();
        assert_eq!(
            timed,
            [true, false, false, true, false, false, true],
            "calls 0, 3 and 6 are timed"
        );
        assert_eq!(s.calls(), 7);
        // 3 timed calls of 1 µs each stand for 7 calls.
        assert!((s.scaled_s(3_000) - 7e-6).abs() < 1e-15);
        assert_eq!(Sampler::new(0).stride, 1);
        assert_eq!(Sampler::new(4).scaled_s(0), 0.0);
    }
}
