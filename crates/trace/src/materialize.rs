//! Cached trace materialization for experiment grids.
//!
//! Experiment suites are *grids*: many cells share one (workload config,
//! job count) pair and differ only in policy. Regenerating a 95,000-job
//! synthetic trace for every one of those cells dominates sweep wall-clock,
//! so a [`TraceCache`] materializes each distinct [`TraceSpec`] exactly
//! once and hands out shared `Arc<Trace>` handles — safe to use from a
//! parallel sweep runner, and deterministic because a spec fully determines
//! its trace (the generator is seeded from the config).
//!
//! # Examples
//!
//! ```
//! use hierdrl_trace::materialize::{TraceCache, TraceSpec};
//! use hierdrl_trace::generator::WorkloadConfig;
//!
//! let cache = TraceCache::new();
//! let spec = TraceSpec::new(WorkloadConfig::google_like(7, 95_000.0), 200);
//!
//! let a = cache.get(&spec)?;
//! let b = cache.get(&spec)?; // cache hit: same allocation
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(cache.misses(), 1);
//! assert_eq!(cache.hits(), 1);
//! # Ok::<(), String>(())
//! ```

use crate::generator::{TraceGenerator, WorkloadConfig};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fully-deterministic trace recipe: workload configuration plus exact
/// job count. Two equal specs always materialize byte-identical traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// The synthetic workload configuration (includes the RNG seed).
    pub workload: WorkloadConfig,
    /// Exact number of jobs to generate.
    pub jobs: usize,
}

impl TraceSpec {
    /// A spec for `jobs` jobs of the given workload.
    pub fn new(workload: WorkloadConfig, jobs: usize) -> Self {
        Self { workload, jobs }
    }

    /// A stable string fingerprint (the spec's canonical JSON), usable as a
    /// cache key.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string(self).expect("trace spec serializes")
    }

    /// Generates the trace, bypassing any cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload configuration is invalid.
    pub fn materialize(&self) -> Result<Trace, String> {
        Ok(TraceGenerator::new(self.workload.clone())?.generate_n(self.jobs))
    }
}

type Slot = Arc<Mutex<Option<Arc<Trace>>>>;

/// A thread-safe, per-spec memoization of trace materialization.
///
/// Locking is two-level: a brief map lock to find/create the spec's slot,
/// then a per-slot lock while generating — so concurrent requests for
/// *different* specs generate in parallel, while concurrent requests for
/// the *same* spec generate once and share the result. Traces stay
/// resident for the cache's lifetime (one suite run).
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<BTreeMap<String, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trace for `spec`, generating it on first request.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload configuration is invalid.
    pub fn get(&self, spec: &TraceSpec) -> Result<Arc<Trace>, String> {
        let slot = {
            let mut slots = self.slots.lock().expect("trace cache map lock");
            Arc::clone(slots.entry(spec.fingerprint()).or_default())
        };
        let mut entry = slot.lock().expect("trace cache slot lock");
        if let Some(trace) = entry.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(trace));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(spec.materialize()?);
        *entry = Some(Arc::clone(&trace));
        Ok(trace)
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (i.e. materializations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct specs requested so far.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("trace cache map lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64, jobs: usize) -> TraceSpec {
        TraceSpec::new(WorkloadConfig::google_like(seed, 50_000.0), jobs)
    }

    #[test]
    fn cache_returns_shared_trace() {
        let cache = TraceCache::new();
        let a = cache.get(&spec(1, 100)).unwrap();
        let b = cache.get(&spec(1, 100)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_specs_materialize_separately() {
        let cache = TraceCache::new();
        let a = cache.get(&spec(1, 100)).unwrap();
        let b = cache.get(&spec(2, 100)).unwrap();
        let c = cache.get(&spec(1, 150)).unwrap();
        assert_ne!(a.jobs(), b.jobs());
        assert_eq!(c.len(), 150);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn cached_trace_matches_direct_materialization() {
        let cache = TraceCache::new();
        let via_cache = cache.get(&spec(42, 200)).unwrap();
        let direct = spec(42, 200).materialize().unwrap();
        assert_eq!(*via_cache, direct);
    }

    #[test]
    fn invalid_spec_surfaces_error_and_is_not_cached() {
        let cache = TraceCache::new();
        let mut bad = spec(1, 10);
        bad.workload.mem_cpu_correlation = 5.0;
        assert!(cache.get(&bad).is_err());
        // The slot exists but holds no trace; a valid retry would regenerate.
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn concurrent_gets_share_one_materialization() {
        let cache = Arc::new(TraceCache::new());
        let s = spec(9, 300);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let s = s.clone();
                    scope.spawn(move || cache.get(&s).unwrap().len())
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 300);
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
