//! Experience replay memory.
//!
//! The DRL framework stores state-transition profiles in an experience
//! memory `D` with capacity `N_D` and samples minibatches from it to smooth
//! learning and avoid parameter oscillation (Algorithm 1, lines 2 and 10).

use rand::Rng;

/// A bounded ring buffer of transitions with uniform random sampling.
#[derive(Debug, Clone)]
pub struct ReplayMemory<T> {
    capacity: usize,
    items: Vec<T>,
    next: usize,
}

impl<T> ReplayMemory<T> {
    /// Creates a memory with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            items: Vec::with_capacity(capacity.min(4096)),
            next: 0,
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the memory has reached capacity (new pushes evict the
    /// oldest entries).
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Inserts a transition, evicting the oldest if full. Returns the
    /// evicted transition, so a caller that keeps per-transition resources
    /// elsewhere (the DRL allocator's state arena) can release them.
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.items.len() < self.capacity {
            self.items.push(item);
            None
        } else {
            let evicted = std::mem::replace(&mut self.items[self.next], item);
            self.next = (self.next + 1) % self.capacity;
            Some(evicted)
        }
    }

    /// Samples `batch` transitions uniformly with replacement. Returns
    /// fewer only if the memory holds fewer than one item.
    pub fn sample<'a>(&'a self, batch: usize, rng: &mut impl Rng) -> Vec<&'a T> {
        if self.items.is_empty() {
            return Vec::new();
        }
        (0..batch)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }

    /// Iterates over stored transitions in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Removes all transitions.
    pub fn clear(&mut self) {
        self.items.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_then_evicts_oldest() {
        let mut m = ReplayMemory::new(3);
        for i in 0..3 {
            m.push(i);
        }
        assert!(m.is_full());
        assert_eq!(m.push(3), Some(0)); // evicts 0
        let mut items: Vec<i32> = m.iter().cloned().collect();
        items.sort_unstable();
        assert_eq!(items, vec![1, 2, 3]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut m = ReplayMemory::new(2);
        assert_eq!(m.push("a"), None);
        assert_eq!(m.push("b"), None);
        assert_eq!(m.push("c"), Some("a"));
        assert_eq!(m.push("d"), Some("b"));
        let mut items: Vec<&str> = m.iter().cloned().collect();
        items.sort_unstable();
        assert_eq!(items, vec!["c", "d"]);
    }

    #[test]
    fn sample_returns_batch_size() {
        let mut m = ReplayMemory::new(10);
        for i in 0..5 {
            m.push(i);
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample(32, &mut rng).len(), 32);
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let m: ReplayMemory<i32> = ReplayMemory::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.sample(8, &mut rng).is_empty());
    }

    #[test]
    fn sample_covers_all_items_eventually() {
        let mut m = ReplayMemory::new(8);
        for i in 0..8 {
            m.push(i);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for &x in m.sample(400, &mut rng) {
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn clear_resets() {
        let mut m = ReplayMemory::new(2);
        m.push(1);
        m.clear();
        assert!(m.is_empty());
        m.push(2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ReplayMemory<i32> = ReplayMemory::new(0);
    }
}
