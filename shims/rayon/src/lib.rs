//! Offline stand-in for the `rayon` crate.
//!
//! Implements the slice of the API the experiment suite uses — `par_iter`
//! / `into_par_iter`, `map`, `collect`, plus `ThreadPoolBuilder::build` and
//! `ThreadPool::install` for pinning the worker count — on top of
//! `std::thread::scope`. Work is distributed by an atomic index counter
//! (index stealing), results are written back by index, so output order is
//! always the input order regardless of scheduling. The calling thread is
//! one of the workers: a map with `n` workers spawns `n - 1` threads.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The machine's parallelism, read once: `available_parallelism` re-reads
/// the cgroup limits on every call, which costs tens of microseconds.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The number of worker threads parallel iterators will use on this thread.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(std::cell::Cell::get)
        .unwrap_or_else(machine_threads)
}

/// Builder for a fixed-size [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count (`0` means the machine default, as in rayon).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Infallible in the shim; the `Result` mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => machine_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// Error type mirroring rayon's `ThreadPoolBuildError` (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A logical pool: parallel iterators run inside [`ThreadPool::install`]
/// use exactly this pool's worker count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool's worker count installed for any parallel
    /// iterators it creates.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        with_budget(Some(self.num_threads), op)
    }
}

/// Runs `op` with `budget` as this thread's worker count, restoring the
/// previous count afterwards, also when `op` panics.
fn with_budget<R>(budget: Option<usize>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(POOL_THREADS.with(|c| c.replace(budget)));
    op()
}

fn par_map_vec<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let len = items.len();
    let budget = current_num_threads();
    let workers = budget.min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each worker inherits its *share* of the caller's thread budget, so
    // parallel iterators nested inside `f` (e.g. per-shard parallelism
    // within one suite cell) cannot oversubscribe: total live threads stay
    // bounded by the installed pool size through every nesting level, and
    // a 1-thread pool stays fully serial all the way down.
    let nested = Some((budget / workers).max(1));
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<O>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let share = || {
        with_budget(nested, || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            let item = slots[i]
                .lock()
                .expect("input slot lock")
                .take()
                .expect("each index is claimed once");
            let out = f(item);
            *results[i].lock().expect("output slot lock") = Some(out);
        });
    };
    // The caller is the last worker: it takes its share while the others
    // run, instead of spawning one more thread and waiting.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(share);
        }
        share();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot lock")
                .expect("every index produced a value")
        })
        .collect()
}

/// An eager parallel iterator over owned items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Maps each item through `f` (executed in parallel at `collect`).
    pub fn map<O, F>(self, f: F) -> ParMap<I, F>
    where
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Collects the items (no-op map).
    pub fn collect<C: FromIterator<I>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// The result of [`ParIter::map`], executed on `collect`.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> ParMap<I, F> {
    /// Runs the map in parallel and collects the results in input order.
    pub fn collect<O, C>(self) -> C
    where
        O: Send,
        F: Fn(I) -> O + Sync,
        C: FromIterator<O>,
    {
        par_map_vec(self.items, self.f).into_iter().collect()
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;

    /// Converts `self`.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send;

    /// Iterates `&self` in parallel.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The rayon prelude: the traits needed for `par_iter().map().collect()`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn install_pins_worker_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            assert_eq!(super::current_num_threads(), 1);
            (0..10)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| x)
                .collect()
        });
        assert_eq!(out.len(), 10);
    }

    /// Maps `items` items under a `threads`-worker pool, returning the id
    /// of the thread each item ran on. Every item waits (up to a bound)
    /// until `together` items have started, so that many run at once.
    fn threads_of(threads: usize, items: usize, together: usize) -> Vec<std::thread::ThreadId> {
        let started = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            (0..items)
                .into_par_iter()
                .map(|_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while started.load(Ordering::SeqCst) < together && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    std::thread::current().id()
                })
                .collect()
        })
    }

    #[test]
    fn a_two_worker_map_runs_items_on_the_callers_thread() {
        // Both items must run at once, so each ran on a different one of
        // the two workers; the caller is one of them.
        let caller = std::thread::current().id();
        let ids = threads_of(2, 2, 2);
        assert_ne!(ids[0], ids[1], "two workers ran the two items");
        assert!(ids.contains(&caller), "the caller ran one share: {ids:?}");
    }

    #[test]
    fn a_one_thread_pool_spawns_nothing() {
        let caller = std::thread::current().id();
        assert!(threads_of(1, 4, 1).iter().all(|&id| id == caller));
        // A map over one item needs no second worker either.
        assert_eq!(threads_of(4, 1, 1), vec![caller]);
    }

    #[test]
    fn nested_budgets_split_the_pool_and_are_restored() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let nested: Vec<usize> = pool.install(|| {
            let nested = (0..2)
                .into_par_iter()
                .map(|_| super::current_num_threads())
                .collect();
            assert_eq!(
                super::current_num_threads(),
                4,
                "the caller's budget is back"
            );
            nested
        });
        assert_eq!(nested, vec![2, 2]);
    }

    #[test]
    fn into_par_iter_owned() {
        let v = vec![String::from("a"), String::from("b")];
        let lens: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 1]);
    }
}
