//! Streaming job generation: a synthetic trace as an iterator, without
//! materializing `Vec<Job>`.
//!
//! At the paper's pitched warehouse scale (10⁵ servers, 10⁶⁺ jobs per
//! cell) a materialized trace is tens-to-hundreds of megabytes *per cell*,
//! and a suite runner that shares materialized traces between cells keeps
//! every one of them for the whole run. [`GeneratorStream`] drives the
//! synthetic generator lazily instead, emitting jobs **byte-identical** to
//! `TraceSpec::materialize()` (`generate_n` + rebase) while holding only
//! the small reorder frontier in memory — a committed equivalence test in
//! `tests/stream_equivalence.rs` pins this. Any `Iterator<Item = Job> + Send`
//! feeds the simulator through `hierdrl_sim::cluster::ArrivalSource`.
//!
//! Materialized traces stay the default for small cells; streaming is the
//! opt-in raw-scale path.

use crate::generator::TraceGenerator;
use crate::materialize::TraceSpec;
use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending task inside [`GeneratorStream`]'s reorder frontier, ordered
/// by `(arrival, insertion sequence)` — exactly the order the materialized
/// path's *stable* sort by arrival produces.
struct Pending {
    t: f64,
    seq: u64,
    duration: f64,
    demand: ResourceVec,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest task.
        let by_t = other
            .t
            .partial_cmp(&self.t)
            .expect("arrival times are finite");
        by_t.then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Streams the synthetic generator's output lazily, byte-identical to
/// `TraceSpec::materialize()` (i.e. `TraceGenerator::generate_n` followed
/// by the first-arrival rebase of `Trace::take`).
///
/// Batch expansion emits tasks out of order (a submission's jittered tail
/// can overtake the next submission event), so the materialized path sorts
/// the whole raw vector at the end. The stream instead keeps only the
/// not-yet-safe tasks in a min-heap: a pending task is emitted once its
/// arrival is at or before the generator's time frontier, because every
/// future task arrives at or after the frontier, and any future task tying
/// the frontier exactly carries a later insertion sequence — the same
/// tie-break the stable sort applies. Peak memory is the frontier width
/// (batch tails in flight), not the trace length.
pub struct GeneratorStream {
    generator: TraceGenerator,
    heap: BinaryHeap<Pending>,
    /// Staging buffer handed to `expand_batch`, drained into the heap.
    batch: Vec<(f64, f64, ResourceVec)>,
    /// Raw tasks produced so far (heap inserts); generation stops once this
    /// reaches `count`, mirroring `generate_n`'s stopping rule.
    produced: usize,
    /// Jobs emitted so far; doubles as the next [`JobId`].
    emitted: usize,
    /// Exact number of jobs to emit.
    count: usize,
    /// First emitted arrival, the rebase origin.
    base: Option<SimTime>,
}

impl GeneratorStream {
    /// Creates a stream emitting exactly `count` jobs from a validated
    /// config — the lazy twin of `TraceGenerator::generate_n(count)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid.
    pub fn new(config: crate::generator::WorkloadConfig, count: usize) -> Result<Self, String> {
        Ok(Self {
            generator: TraceGenerator::new(config)?,
            heap: BinaryHeap::new(),
            batch: Vec::new(),
            produced: 0,
            emitted: 0,
            count,
            base: None,
        })
    }

    /// Pending tasks currently buffered in the reorder frontier (a measure
    /// of the stream's working-set size).
    pub fn frontier_len(&self) -> usize {
        self.heap.len()
    }

    fn emit(&mut self, p: Pending) -> Job {
        // Identical arithmetic to `Trace::take`'s rebase: arrivals pass
        // through SimTime before the subtraction, including the first job.
        let arrival = SimTime::from_secs(p.t);
        let base = *self.base.get_or_insert(arrival);
        let job = Job::new(
            JobId(self.emitted as u64),
            SimTime::from_secs(arrival.since(base)),
            p.duration,
            p.demand,
        );
        self.emitted += 1;
        job
    }
}

impl Iterator for GeneratorStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.emitted >= self.count {
            return None;
        }
        loop {
            if let Some(top) = self.heap.peek() {
                // Safe to emit once generation has stopped (heap order is
                // final) or the task is at/behind the generator frontier
                // (no future task can sort before it).
                if self.produced >= self.count || top.t <= self.generator.frontier() {
                    let p = self.heap.pop().expect("peeked above");
                    return Some(self.emit(p));
                }
            }
            debug_assert!(
                self.produced < self.count,
                "generation stopped with a drainable heap"
            );
            let event = self
                .generator
                .next_event(f64::INFINITY)
                .expect("unbounded horizon always yields an event");
            self.batch.clear();
            self.generator.expand_batch(event, &mut self.batch);
            for (t, duration, demand) in self.batch.drain(..) {
                self.heap.push(Pending {
                    t,
                    seq: self.produced as u64,
                    duration,
                    demand,
                });
                self.produced += 1;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.emitted;
        (left, Some(left))
    }
}

impl TraceSpec {
    /// The streaming twin of [`TraceSpec::materialize`]: emits byte-identical
    /// jobs without building the `Vec<Job>`.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload config is invalid.
    pub fn stream(&self) -> Result<GeneratorStream, String> {
        GeneratorStream::new(self.workload.clone(), self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadConfig;

    #[test]
    fn stream_matches_materialize_for_a_basic_config() {
        let spec = TraceSpec::new(WorkloadConfig::google_like(5, 60_000.0), 2_000);
        let trace = spec.materialize().unwrap();
        let streamed: Vec<Job> = spec.stream().unwrap().collect();
        assert_eq!(trace.jobs(), streamed.as_slice());
    }

    #[test]
    fn stream_emits_exactly_count_jobs() {
        let spec = TraceSpec::new(WorkloadConfig::google_like(6, 60_000.0), 137);
        let mut stream = spec.stream().unwrap();
        assert_eq!(stream.size_hint(), (137, Some(137)));
        let jobs: Vec<Job> = stream.by_ref().collect();
        assert_eq!(jobs.len(), 137);
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none(), "exhausted stream stays exhausted");
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let spec = TraceSpec::new(WorkloadConfig::google_like(7, 60_000.0), 0);
        assert_eq!(spec.stream().unwrap().count(), 0);
    }

    #[test]
    fn frontier_stays_small_relative_to_the_trace() {
        let spec = TraceSpec::new(WorkloadConfig::google_like(8, 95_000.0), 20_000);
        let mut stream = spec.stream().unwrap();
        let mut max_frontier = 0usize;
        while stream.next().is_some() {
            max_frontier = max_frontier.max(stream.frontier_len());
        }
        assert!(
            max_frontier < 2_000,
            "reorder frontier {max_frontier} should stay far below the 20k trace"
        );
    }
}
