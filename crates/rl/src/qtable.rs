//! Tabular Q-function over ordered states.

use crate::smdp::{smdp_update, SmdpParams};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A tabular action-value function `Q(s, a)` with a fixed action count.
///
/// States are created lazily with an optimistic-or-neutral initial value;
/// the local power manager's state space (machine mode x predicted
/// inter-arrival bin) is small, so a table suffices — exactly the paper's
/// "model-free RL" for the local tier.
///
/// The table is a `BTreeMap` rather than a `HashMap` so that iteration,
/// snapshots, and serialization follow key order regardless of the order
/// states were first visited — part of the repo's byte-identity guarantee.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QTable<S>
where
    S: Ord,
{
    num_actions: usize,
    initial_value: f64,
    values: BTreeMap<S, Vec<f64>>,
}

impl<S> QTable<S>
where
    S: Ord + Clone,
{
    /// Creates a table with `num_actions` actions per state and the given
    /// initial Q estimate for unseen state-action pairs.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions == 0` or `initial_value` is not finite.
    pub fn new(num_actions: usize, initial_value: f64) -> Self {
        assert!(num_actions > 0, "need at least one action");
        assert!(initial_value.is_finite(), "initial value must be finite");
        Self {
            num_actions,
            initial_value,
            values: BTreeMap::new(),
        }
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of distinct states seen so far.
    pub fn num_states(&self) -> usize {
        self.values.len()
    }

    /// `Q(s, a)` (initial value if unseen).
    ///
    /// # Panics
    ///
    /// Panics if `action >= num_actions`.
    pub fn q(&self, state: &S, action: usize) -> f64 {
        assert!(action < self.num_actions, "action {action} out of range");
        self.values
            .get(state)
            .map_or(self.initial_value, |v| v[action])
    }

    /// All action values for a state.
    pub fn q_row(&self, state: &S) -> Vec<f64> {
        self.values
            .get(state)
            .cloned()
            .unwrap_or_else(|| vec![self.initial_value; self.num_actions])
    }

    /// `max_a Q(s, a)`.
    pub fn max_q(&self, state: &S) -> f64 {
        self.q_row(state)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Greedy action (lowest index wins ties).
    pub fn best_action(&self, state: &S) -> usize {
        let row = self.q_row(state);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Applies one SMDP Q-learning update (Eqn. 2) for an observed
    /// transition `(state, action) -> next_state` with time-average
    /// `reward_rate` over a sojourn of `sojourn` seconds. Returns the new
    /// estimate.
    ///
    /// # Panics
    ///
    /// Panics if `action >= num_actions`.
    pub fn update_smdp(
        &mut self,
        params: &SmdpParams,
        state: &S,
        action: usize,
        reward_rate: f64,
        sojourn: f64,
        next_state: &S,
    ) -> f64 {
        assert!(action < self.num_actions, "action {action} out of range");
        let max_next = self.max_q(next_state);
        let init = self.initial_value;
        let n = self.num_actions;
        let row = self
            .values
            .entry(state.clone())
            .or_insert_with(|| vec![init; n]);
        row[action] = smdp_update(params, row[action], reward_rate, sojourn, max_next);
        row[action]
    }

    /// Directly sets `Q(s, a)` (useful for testing and initialization).
    pub fn set_q(&mut self, state: &S, action: usize, value: f64) {
        assert!(action < self.num_actions, "action {action} out of range");
        let init = self.initial_value;
        let n = self.num_actions;
        self.values
            .entry(state.clone())
            .or_insert_with(|| vec![init; n])[action] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_state_returns_initial_value() {
        let t: QTable<u32> = QTable::new(3, 1.5);
        assert_eq!(t.q(&7, 0), 1.5);
        assert_eq!(t.max_q(&7), 1.5);
        assert_eq!(t.num_states(), 0);
    }

    #[test]
    fn best_action_breaks_ties_low() {
        let mut t: QTable<u32> = QTable::new(3, 0.0);
        t.set_q(&1, 2, 5.0);
        t.set_q(&1, 1, 5.0);
        assert_eq!(t.best_action(&1), 1);
    }

    #[test]
    fn update_smdp_moves_toward_reward() {
        let mut t: QTable<u32> = QTable::new(2, 0.0);
        let p = SmdpParams::new(0.5, 0.5);
        // Negative reward rate drives Q below zero.
        let q = t.update_smdp(&p, &0, 0, -10.0, 1.0, &0);
        assert!(q < 0.0);
        assert_eq!(t.q(&0, 0), q);
        assert_eq!(t.q(&0, 1), 0.0);
    }

    #[test]
    fn greedy_policy_learns_better_action() {
        // Action 0 has reward rate -1, action 1 has -5: action 0 must win.
        let mut t: QTable<u32> = QTable::new(2, 0.0);
        let p = SmdpParams::new(0.2, 0.5);
        for _ in 0..200 {
            t.update_smdp(&p, &0, 0, -1.0, 1.0, &0);
            t.update_smdp(&p, &0, 1, -5.0, 1.0, &0);
        }
        assert_eq!(t.best_action(&0), 0);
        assert!(t.q(&0, 0) > t.q(&0, 1));
    }

    #[test]
    fn q_row_has_action_count_entries() {
        let t: QTable<(u8, u8)> = QTable::new(4, -1.0);
        assert_eq!(t.q_row(&(0, 0)), vec![-1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn action_out_of_range_panics() {
        let t: QTable<u32> = QTable::new(2, 0.0);
        let _ = t.q(&0, 5);
    }

    #[test]
    fn snapshot_serialization_is_identical_across_insertion_orders() {
        // Build the same logical table twice with states first visited in
        // opposite orders; the serialized snapshots must match byte for
        // byte. With a hash map this would depend on per-process hashing.
        let states: Vec<u32> = (0..32).collect();
        let mut forward: QTable<u32> = QTable::new(3, 0.0);
        for &s in &states {
            forward.set_q(&s, (s as usize) % 3, f64::from(s) * 0.25);
        }
        let mut reverse: QTable<u32> = QTable::new(3, 0.0);
        for &s in states.iter().rev() {
            reverse.set_q(&s, (s as usize) % 3, f64::from(s) * 0.25);
        }
        let a = serde_json::to_string(&forward).unwrap();
        let b = serde_json::to_string(&reverse).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let mut t: QTable<u32> = QTable::new(2, 0.0);
        t.set_q(&3, 1, 2.5);
        let json = serde_json::to_string(&t).unwrap();
        let back: QTable<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.q(&3, 1), 2.5);
    }
}
