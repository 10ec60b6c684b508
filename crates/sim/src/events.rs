//! Discrete-event queue.

use crate::job::{JobId, ServerId};
use crate::resources::ResourceVec;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Specification of a server joining the fleet mid-run (the elastic axis).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Capacity vector of the joining server; must match the cluster's
    /// resource dimensionality. The power curve scales with the CPU
    /// component, exactly as for any heterogeneous server.
    pub capacity: ResourceVec,
    /// Whether the server comes up powered on. When `false` it joins
    /// asleep and wakes through the normal transition on its first job.
    pub initially_on: bool,
}

impl ServerSpec {
    /// A unit-capacity server with `dims` resource dimensions.
    pub fn unit(dims: usize, initially_on: bool) -> Self {
        Self {
            capacity: ResourceVec::ones(dims),
            initially_on,
        }
    }
}

/// A deterministic fleet mutation applied between arrivals: the event-level
/// lowering of the chaos axis (crashes, stragglers, power-cap windows) and
/// of the elastic axis (membership changes).
///
/// Ops targeting an invalid server — an out-of-range id, a departed slot,
/// or a state the op does not apply to (recover of a healthy server, crash
/// of a crashed one) — are documented no-ops counted in
/// [`Cluster::fleet_ops_ignored`](crate::cluster::Cluster::fleet_ops_ignored),
/// never silent index panics.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// The server fails: its queued and running jobs are requeued through
    /// the allocator exactly once, and it stops accepting work (and drawing
    /// power) until a matching [`FleetOp::Recover`].
    Crash(ServerId),
    /// The server returns to the healthy pool (asleep; the next arrival
    /// routed to it wakes it through the normal transition).
    Recover(ServerId),
    /// Scales the server's capacity (and its power curve) to `scale` times
    /// nominal — a straggler (`scale < 1` transiently) or a power-cap
    /// window. `scale = 1.0` restores nominal.
    SetScale {
        /// The affected server.
        server: ServerId,
        /// Multiplier of nominal capacity, in `(0, 1]`.
        scale: f64,
    },
    /// A server joins the fleet: the lowest-index departed slot is re-used
    /// (so `ServerId`s stay stable for every incumbent), or a fresh slot is
    /// appended while the fleet is below
    /// [`ClusterConfig::effective_max`](crate::config::ClusterConfig::effective_max).
    Join(ServerSpec),
    /// The server leaves the fleet: queued and running jobs are drained and
    /// requeued through the allocator exactly once (crash semantics), and
    /// the slot is masked — excluded from every aggregate and never offered
    /// work — until a later [`FleetOp::Join`] re-uses it.
    Leave(ServerId),
}

/// A scheduled simulation event. Job arrivals are not events: the cluster
/// dispatches them straight from its arrival source, ahead of any event
/// at the same time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A scheduled fleet mutation (chaos axis) fires.
    FleetChange {
        /// The mutation to apply.
        op: FleetOp,
    },
    /// A running job finishes on a server.
    JobFinish {
        /// The executing server.
        server: ServerId,
        /// The finishing job.
        job: JobId,
    },
    /// A server completes its sleep -> active transition.
    WakeComplete {
        /// The transitioning server.
        server: ServerId,
    },
    /// A server completes its active -> sleep transition.
    SleepComplete {
        /// The transitioning server.
        server: ServerId,
    },
    /// A power-management timeout expires. Ignored unless `token` is still
    /// the server's current timeout token.
    TimeoutFired {
        /// The idle server.
        server: ServerId,
        /// Token that must match the server's current one.
        token: u64,
    },
}

/// The 16-byte queued form of an [`Event`]: servers as `u32` indices, and
/// a fleet op as the index of its slot in [`EventQueue`]'s side table.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Fleet { slot: u32 },
    Finish { server: u32, job: JobId },
    Wake { server: u32 },
    Sleep { server: u32 },
    Timeout { server: u32, token: u64 },
}

/// One heap entry: `(time, seq)` and the payload, 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    payload: Payload,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq); seq breaks ties
        // deterministically in insertion order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A server index in its queued `u32` form.
fn server_index(server: ServerId) -> u32 {
    u32::try_from(server.0).expect("server index exceeds u32::MAX")
}

/// A deterministic min-priority event queue ordered by `(time, insertion)`.
///
/// The heap holds 32-byte `Copy` entries — time, insertion sequence number
/// and a 16-byte payload — so a push or pop moves half a cache line. A
/// [`FleetOp`] (which can carry a [`ServerSpec`]) waits in a side table
/// whose slot the entry names; slots are recycled once their op pops. The
/// pop order is the `(time, seq)` order alone, whatever the payload.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    fleet_ops: Vec<Option<FleetOp>>,
    free_slots: Vec<u32>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let payload = match event {
            Event::FleetChange { op } => {
                let slot = match self.free_slots.pop() {
                    Some(slot) => {
                        self.fleet_ops[slot as usize] = Some(op);
                        slot
                    }
                    None => {
                        self.fleet_ops.push(Some(op));
                        u32::try_from(self.fleet_ops.len() - 1)
                            .expect("more than u32::MAX pending fleet ops")
                    }
                };
                Payload::Fleet { slot }
            }
            Event::JobFinish { server, job } => Payload::Finish {
                server: server_index(server),
                job,
            },
            Event::WakeComplete { server } => Payload::Wake {
                server: server_index(server),
            },
            Event::SleepComplete { server } => Payload::Sleep {
                server: server_index(server),
            },
            Event::TimeoutFired { server, token } => Payload::Timeout {
                server: server_index(server),
                token,
            },
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let entry = self.heap.pop()?;
        let server = |s: u32| ServerId(s as usize);
        let event = match entry.payload {
            Payload::Fleet { slot } => {
                let op = self.fleet_ops[slot as usize]
                    .take()
                    .expect("fleet-op slot popped twice");
                self.free_slots.push(slot);
                Event::FleetChange { op }
            }
            Payload::Finish { server: s, job } => Event::JobFinish {
                server: server(s),
                job,
            },
            Payload::Wake { server: s } => Event::WakeComplete { server: server(s) },
            Payload::Sleep { server: s } => Event::SleepComplete { server: server(s) },
            Payload::Timeout { server: s, token } => Event::TimeoutFired {
                server: server(s),
                token,
            },
        };
        Some((entry.time, event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(s: usize) -> Event {
        Event::WakeComplete {
            server: ServerId(s),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), wake(1));
        q.push(SimTime::from_secs(1.0), wake(2));
        q.push(SimTime::from_secs(3.0), wake(3));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        q.push(t, wake(1));
        q.push(t, wake(2));
        q.push(t, wake(3));
        let ids: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::WakeComplete { server } => server.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7.0), wake(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fleet_ops_pop_in_time_order_and_recycle_their_slots() {
        let mut q = EventQueue::new();
        let crash = |s| Event::FleetChange {
            op: FleetOp::Crash(ServerId(s)),
        };
        let join = Event::FleetChange {
            op: FleetOp::Join(ServerSpec::unit(3, true)),
        };
        q.push(SimTime::from_secs(4.0), join.clone());
        q.push(SimTime::from_secs(2.0), crash(7));
        q.push(SimTime::from_secs(2.0), wake(1));
        q.push(
            SimTime::from_secs(3.0),
            Event::TimeoutFired {
                server: ServerId(2),
                token: u64::MAX,
            },
        );
        q.push(
            SimTime::from_secs(1.0),
            Event::JobFinish {
                server: ServerId(5),
                job: JobId(9),
            },
        );
        let popped: Vec<(f64, Event)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_secs(), e))
            .collect();
        let expected = vec![
            (
                1.0,
                Event::JobFinish {
                    server: ServerId(5),
                    job: JobId(9),
                },
            ),
            (2.0, crash(7)),
            (2.0, wake(1)),
            (
                3.0,
                Event::TimeoutFired {
                    server: ServerId(2),
                    token: u64::MAX,
                },
            ),
            (4.0, join),
        ];
        assert_eq!(popped, expected);
        // Both side-table slots were freed; new ops re-use them.
        q.push(SimTime::from_secs(5.0), crash(1));
        q.push(SimTime::from_secs(6.0), crash(2));
        assert_eq!(q.fleet_ops.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(crash(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(crash(2)));
    }

    #[test]
    fn kernel_layout_stays_within_its_size_budget() {
        // A queued entry is two cache-line quarters: a push or pop moves 32
        // bytes, where an entry carrying a whole event (job, fleet op) was
        // 64.
        assert_eq!(std::mem::size_of::<Entry>(), 32);
        assert_eq!(std::mem::size_of::<Payload>(), 16);
        // glibc caps its dynamic mmap threshold at 32 MiB: a larger
        // allocation is mapped fresh, and page-faulted, on every cluster
        // build. 100k servers of at most 320 bytes stay below that cap, so
        // a field added to `Server` must fit in this budget. (Measured on
        // a 2-vCPU x86-64 VM at 100k servers: a 360-byte layout set up ~5%
        // slower than the earlier heap-backed one, whose 296-byte servers
        // each owned three `Vec`s; this 312-byte layout sets up in ~12 ms
        // against that one's ~33 ms.)
        assert!(
            std::mem::size_of::<crate::server::Server>() <= 320,
            "Server is {} bytes",
            std::mem::size_of::<crate::server::Server>()
        );
        assert_eq!(std::mem::size_of::<ResourceVec>(), 32);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }
}
