//! The per-server predictor models of the local tier and the one worker
//! thread that trains them.
//!
//! A server's model is read only at that server's decision epoch, so its
//! learn steps can run beside the simulation as long as they run in
//! arrival order and are finished before the read. The simulation thread
//! queues each observation a model trains on in that server's queue; the
//! worker takes servers off a ready list (in the order their queues became
//! non-empty) and learns each one's queue in order. [`Trainer::wait_for`]
//! blocks until one server's queue is learned, learning it on the calling
//! thread if the worker has not taken it yet, so that both threads train
//! while the simulation waits; [`Trainer::drain`] does so for every queue.
//! A server's queue and its model sit under separate locks, so a push
//! never waits behind a training step, and a queue holds at most
//! [`MAX_QUEUED`] observations.
//!
//! Observations a model does not train on (learning off,
//! `online_training: false`, or a window still filling) are learned
//! inline: their learn step only shifts the window. The thread budget is
//! read at the first observation a model trains on; without room for a
//! worker there, everything is learned inline and no thread starts.

use crate::predictor::IatModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

const POISONED: &str = "predictor trainer lock poisoned";

/// The most observations one server's queue holds. A push that finds it
/// full first waits for the server, as a decision epoch does, so the
/// backlog's memory is bounded and allocated once per training server.
const MAX_QUEUED: usize = 64;

/// Worker threads started by every trainer of this process: a statistic,
/// publishing nothing else.
static WORKERS_STARTED: AtomicUsize = AtomicUsize::new(0);

/// See [`super::training_workers_started`].
pub(super) fn workers_started() -> usize {
    WORKERS_STARTED.load(Ordering::Relaxed)
}

/// The models, their queues, and the worker, if one has started.
#[derive(Debug)]
pub(super) struct Trainer {
    shared: Arc<Shared>,
    /// Whether learn steps a model trains on are queued, decided at the
    /// first one: the thread budget there (`rayon::current_num_threads()`)
    /// has room for a worker beside the simulation thread.
    background: Option<bool>,
    /// Per server: whether its observations are queued. Set at the first
    /// observation its model trains on, after its training buffers and
    /// queue are allocated on this thread (so that the worker allocates
    /// nothing); cleared when training stops.
    queued: Vec<bool>,
    /// Started by the first queued observation; joined on drop.
    worker: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    slots: Vec<Slot>,
    ready: Mutex<Ready>,
    /// Signalled when a server joins the ready list, or the worker must stop.
    work: Condvar,
    /// Signalled when a server's queue is learned, or the worker panicked.
    done: Condvar,
}

#[derive(Debug)]
struct Slot {
    queue: Mutex<Queue>,
    model: Mutex<IatModel>,
}

#[derive(Debug, Default)]
struct Queue {
    /// Accepted, normalized observations awaiting their learn step, oldest
    /// first.
    items: VecDeque<f32>,
    /// On the ready list or being learned: set by the push that finds it
    /// clear, cleared by the thread learning the queue when it finds it
    /// empty.
    pending: bool,
}

#[derive(Debug, Default)]
struct Ready {
    /// Servers with pending queues, in the order their queues became
    /// non-empty.
    servers: VecDeque<usize>,
    /// Whether the worker is waiting on `work`.
    idle: bool,
    /// Threads waiting on `done`.
    waiters: usize,
    stop: bool,
    /// The message of a panic on the worker, re-raised by every wait.
    panicked: Option<String>,
}

impl Trainer {
    /// A trainer over `models`, one per server in server order.
    pub(super) fn new(models: impl ExactSizeIterator<Item = IatModel>) -> Self {
        let slots: Vec<Slot> = models
            .map(|model| Slot {
                queue: Mutex::default(),
                model: Mutex::new(model),
            })
            .collect();
        let queued = vec![false; slots.len()];
        // A server is listed at most once (`Queue::pending`), so the ready
        // list never outgrows this. Reserving it here keeps the pushing
        // thread's allocations independent of how far the worker lags.
        let ready = Ready {
            servers: VecDeque::with_capacity(slots.len()),
            ..Ready::default()
        };
        Self {
            shared: Arc::new(Shared {
                slots,
                ready: Mutex::new(ready),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            background: None,
            queued,
            worker: None,
        }
    }

    /// The learn step of `server`'s accepted observation `z`: queued when
    /// `server`'s model trains on it and a worker may run, inline
    /// otherwise. A push onto a full queue first waits for the server.
    pub(super) fn learn(&mut self, server: usize, z: f32) {
        let slot = &self.shared.slots[server];
        if !self.queued[server] {
            // Nothing is queued for this server yet (switching training
            // off drains first), so its model is free.
            let mut model = slot.model.lock().expect(POISONED);
            // A window shift (frozen, or the window still filling) is
            // learned inline, and so is everything without a spare thread.
            if !model.trains_next()
                || !*self
                    .background
                    .get_or_insert_with(|| rayon::current_num_threads() > 1)
            {
                model.learn(z);
                return;
            }
            model.reserve_training();
            slot.queue
                .lock()
                .expect(POISONED)
                .items
                .reserve_exact(MAX_QUEUED);
            self.queued[server] = true;
        }
        let mut queue = slot.queue.lock().expect(POISONED);
        if queue.items.len() == MAX_QUEUED {
            drop(queue);
            drop(self.wait_for(server));
            queue = slot.queue.lock().expect(POISONED);
        }
        queue.items.push_back(z);
        let listed = std::mem::replace(&mut queue.pending, true);
        drop(queue);
        if !listed {
            let mut ready = self.shared.ready.lock().expect(POISONED);
            ready.servers.push_back(server);
            if ready.idle {
                self.shared.work.notify_one();
            }
        }
        if self.worker.is_none() {
            let shared = Arc::clone(&self.shared);
            let worker = std::thread::Builder::new()
                .name("dpm-trainer".into())
                .spawn(move || shared.work())
                .expect("spawn the predictor training worker");
            WORKERS_STARTED.fetch_add(1, Ordering::Relaxed);
            self.worker = Some(worker);
        }
    }

    /// Switches online training of every model, after draining the
    /// queues; a model that no longer trains learns inline from here on.
    pub(super) fn set_online_training(&mut self, on: bool) {
        self.drain();
        for (slot, queued) in self.shared.slots.iter().zip(&mut self.queued) {
            slot.model.lock().expect(POISONED).set_online_training(on);
            *queued &= on;
        }
    }

    /// Blocks until every observation queued for `server` is learned,
    /// then returns its model. A queue the worker has not taken yet is
    /// learned here, on the calling thread, instead of waiting for the
    /// worker to reach it.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the worker.
    pub(super) fn wait_for(&self, server: usize) -> MutexGuard<'_, IatModel> {
        let shared = &*self.shared;
        let slot = &shared.slots[server];
        let mut ready = shared.ready.lock().expect(POISONED);
        while slot.queue.lock().expect(POISONED).pending {
            if let Some(i) = ready.servers.iter().position(|&s| s == server) {
                ready.servers.remove(i);
                drop(ready);
                ready = shared.learn_queue(server);
                continue;
            }
            if let Some(message) = ready.panicked.clone() {
                drop(ready);
                panic!("the predictor training worker panicked: {message}");
            }
            ready.waiters += 1;
            ready = shared.done.wait(ready).expect(POISONED);
            ready.waiters -= 1;
        }
        drop(ready);
        slot.model.lock().expect(POISONED)
    }

    /// Blocks until every queued observation is learned.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the worker.
    pub(super) fn drain(&self) {
        for server in 0..self.shared.slots.len() {
            drop(self.wait_for(server));
        }
    }

    /// Whether a worker thread has started.
    #[cfg(test)]
    pub(super) fn has_worker(&self) -> bool {
        self.worker.is_some()
    }
}

impl Drop for Trainer {
    fn drop(&mut self) {
        let Some(worker) = self.worker.take() else {
            return;
        };
        // Whatever is still queued is dropped with the models.
        let mut ready = self
            .shared
            .ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ready.stop = true;
        self.shared.work.notify_one();
        drop(ready);
        // The worker catches its own panics (and reports them to waits),
        // so the join cannot fail; a drop must not panic either way.
        let _ = worker.join();
    }
}

impl Shared {
    /// The worker thread's body: runs [`Shared::learn_queues`], and turns
    /// a panic there into a message every wait re-raises.
    fn work(&self) {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.learn_queues()));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            let mut ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
            ready.panicked = Some(message);
            self.done.notify_all();
        }
    }

    /// Takes servers off the ready list and learns each one's queue until
    /// told to stop.
    fn learn_queues(&self) {
        let mut ready = self.ready.lock().expect(POISONED);
        while !ready.stop {
            match ready.servers.pop_front() {
                Some(server) => {
                    drop(ready);
                    ready = self.learn_queue(server);
                }
                None => {
                    ready.idle = true;
                    ready = self.work.wait(ready).expect(POISONED);
                    ready.idle = false;
                }
            }
        }
    }

    /// Learns `server`'s queue, which the caller took off the ready list,
    /// in order until it is empty, then wakes the waits and returns the
    /// ready list, locked. Allocates nothing: queues grow on the pushing
    /// thread and training buffers are reserved there.
    fn learn_queue(&self, server: usize) -> MutexGuard<'_, Ready> {
        let slot = &self.slots[server];
        let mut model = slot.model.lock().expect(POISONED);
        loop {
            let z = {
                let mut queue = slot.queue.lock().expect(POISONED);
                let Some(z) = queue.items.pop_front() else {
                    queue.pending = false;
                    break;
                };
                z
            };
            model.learn(z);
        }
        drop(model);
        let ready = self.ready.lock().expect(POISONED);
        if ready.waiters > 0 {
            self.done.notify_all();
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{LstmIatPredictor, PredictorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    fn model() -> IatModel {
        let config = PredictorConfig {
            lookback: 3,
            hidden: 4,
            ..Default::default()
        };
        LstmIatPredictor::new(config, &mut StdRng::seed_from_u64(1))
            .into_parts()
            .1
    }

    #[test]
    fn a_worker_panic_reraises_on_the_waiting_thread() {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut trainer = Trainer::new([model()].into_iter());
                trainer.background = Some(true);
                for _ in 0..3 {
                    trainer.learn(0, 0.5);
                }
                // The window is full: this one is queued, and a learn step
                // rejects it.
                trainer.learn(0, 2.0);
                // Let the worker take it, so that the panic is its own.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !trainer.shared.ready.lock().unwrap().servers.is_empty() {
                    assert!(
                        Instant::now() < deadline,
                        "the worker never took the server"
                    );
                    std::thread::yield_now();
                }
                drop(trainer.wait_for(0));
            });
            tx.send(outcome.map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            }))
            .unwrap();
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a wait on a panicked worker must not hang");
        waiter.join().unwrap();
        let message = outcome.expect_err("the wait re-raises the worker's panic");
        assert!(
            message.starts_with("the predictor training worker panicked: ")
                && message.contains("needs a normalized observation"),
            "{message}"
        );
    }

    /// A trainer with a spare thread whose worker never takes a queue: a
    /// stand-in that has already finished.
    fn without_worker(servers: usize) -> Trainer {
        let mut trainer = Trainer::new((0..servers).map(|_| model()));
        trainer.background = Some(true);
        trainer.worker = Some(std::thread::spawn(|| {}));
        trainer
    }

    #[test]
    fn a_wait_learns_a_queue_the_worker_has_not_taken() {
        let mut trainer = without_worker(2);
        // The window fills inline; the fourth observation is queued.
        for _ in 0..4 {
            trainer.learn(1, 0.25);
        }
        assert_eq!(trainer.shared.ready.lock().unwrap().servers, [1]);
        assert_eq!(trainer.wait_for(1).training_steps(), 1);
        assert!(trainer.shared.ready.lock().unwrap().servers.is_empty());
        assert!(!trainer.shared.slots[1].queue.lock().unwrap().pending);
    }

    #[test]
    fn a_push_onto_a_full_queue_first_learns_it() {
        let mut trainer = without_worker(1);
        let queue_len = |t: &Trainer| t.shared.slots[0].queue.lock().unwrap().items.len();
        for _ in 0..3 + MAX_QUEUED {
            trainer.learn(0, 0.5);
        }
        assert_eq!(queue_len(&trainer), MAX_QUEUED);
        let capacity = trainer.shared.slots[0]
            .queue
            .lock()
            .unwrap()
            .items
            .capacity();
        trainer.learn(0, 0.5);
        // The full queue was learned here, then the push queued one.
        assert_eq!(queue_len(&trainer), 1);
        assert_eq!(trainer.wait_for(0).training_steps(), MAX_QUEUED as u64 + 1);
        let queue = trainer.shared.slots[0].queue.lock().unwrap();
        assert_eq!(queue.items.capacity(), capacity, "allocated once");
    }

    #[test]
    fn the_ready_list_never_grows_however_far_the_worker_lags() {
        // Growing it on the pushing thread would make that thread's
        // allocations, and so its heap layout, depend on the worker's pace.
        let servers = 9;
        let mut trainer = without_worker(servers);
        let capacity = |t: &Trainer| t.shared.ready.lock().unwrap().servers.capacity();
        let reserved = capacity(&trainer);
        assert!(reserved >= servers);
        for server in 0..servers {
            for _ in 0..4 {
                trainer.learn(server, 0.25);
            }
        }
        assert_eq!(trainer.shared.ready.lock().unwrap().servers.len(), servers);
        assert_eq!(capacity(&trainer), reserved);
    }
}
