//! Exploration policies and schedules.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A schedule for the exploration probability `epsilon` as a function of
/// the decision-step counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EpsilonSchedule {
    /// Constant epsilon.
    Constant(f64),
    /// Exponential decay `end + (start - end) * exp(-step / tau)`.
    Exponential {
        /// Initial epsilon.
        start: f64,
        /// Asymptotic epsilon.
        end: f64,
        /// Decay time-constant in steps.
        tau: f64,
    },
}

impl EpsilonSchedule {
    /// Epsilon at the given step.
    pub fn value(&self, step: u64) -> f64 {
        match *self {
            EpsilonSchedule::Constant(e) => e,
            EpsilonSchedule::Exponential { start, end, tau } => {
                end + (start - end) * (-(step as f64) / tau).exp()
            }
        }
    }

    /// Validates that every epsilon the schedule can produce lies in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        let check = |e: f64, name: &str| {
            if (0.0..=1.0).contains(&e) {
                Ok(())
            } else {
                Err(format!("{name} epsilon must be in [0, 1], got {e}"))
            }
        };
        match *self {
            EpsilonSchedule::Constant(e) => check(e, "constant"),
            EpsilonSchedule::Exponential { start, end, tau } => {
                check(start, "start")?;
                check(end, "end")?;
                if tau > 0.0 {
                    Ok(())
                } else {
                    Err(format!("tau must be positive, got {tau}"))
                }
            }
        }
    }
}

/// Stateful epsilon-greedy action selector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpsilonGreedy {
    schedule: EpsilonSchedule,
    step: u64,
}

impl EpsilonGreedy {
    /// Creates a selector from a validated schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid.
    pub fn new(schedule: EpsilonSchedule) -> Self {
        schedule.validate().expect("invalid epsilon schedule");
        Self { schedule, step: 0 }
    }

    /// A fixed-epsilon selector.
    pub fn constant(epsilon: f64) -> Self {
        Self::new(EpsilonSchedule::Constant(epsilon))
    }

    /// Current epsilon (before the next selection).
    pub fn epsilon(&self) -> f64 {
        self.schedule.value(self.step)
    }

    /// Decision steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Selects an action index given per-action values: with probability
    /// `epsilon` a uniformly random action, otherwise [`greedy_action`]
    /// (lowest index wins ties). Advances the schedule by one step.
    ///
    /// # Panics
    ///
    /// Panics if `q_values` is empty.
    pub fn select(&mut self, q_values: &[f64], rng: &mut impl Rng) -> usize {
        assert!(!q_values.is_empty(), "cannot select from zero actions");
        let eps = self.epsilon();
        self.step += 1;
        if rng.gen::<f64>() < eps {
            rng.gen_range(0..q_values.len())
        } else {
            greedy_action(q_values)
        }
    }
}

/// The greedy choice over per-action values: the index of the largest,
/// the lowest index winning ties (`0` for an empty slice). Every reader of
/// learned values acts by this rule. It never panics: a NaN never compares
/// greater, so it is chosen only at index 0.
pub fn greedy_action(q_values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in q_values.iter().enumerate() {
        if v > q_values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_schedule_is_flat() {
        let s = EpsilonSchedule::Constant(0.3);
        assert_eq!(s.value(0), 0.3);
        assert_eq!(s.value(1_000_000), 0.3);
    }

    #[test]
    fn exponential_schedule_approaches_end() {
        let s = EpsilonSchedule::Exponential {
            start: 1.0,
            end: 0.1,
            tau: 10.0,
        };
        assert!((s.value(0) - 1.0).abs() < 1e-12);
        assert!(s.value(100) < 0.11);
    }

    #[test]
    fn greedy_when_epsilon_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pol = EpsilonGreedy::constant(0.0);
        for _ in 0..50 {
            assert_eq!(pol.select(&[0.0, 3.0, 1.0], &mut rng), 1);
        }
    }

    #[test]
    fn explores_when_epsilon_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pol = EpsilonGreedy::constant(1.0);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[pol.select(&[0.0, 3.0, 1.0], &mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 800, "counts {counts:?} not uniform-ish");
        }
    }

    #[test]
    fn step_counter_advances_schedule() {
        let mut rng = StdRng::seed_from_u64(2);
        // tau = 0.01 decays epsilon from 1 to exactly 0 after one step.
        let mut pol = EpsilonGreedy::new(EpsilonSchedule::Exponential {
            start: 1.0,
            end: 0.0,
            tau: 0.01,
        });
        for _ in 0..10 {
            let _ = pol.select(&[0.0, 1.0], &mut rng);
        }
        assert_eq!(pol.epsilon(), 0.0);
        assert_eq!(pol.steps(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid epsilon schedule")]
    fn bad_schedule_rejected() {
        let _ = EpsilonGreedy::constant(1.5);
    }

    #[test]
    #[should_panic(expected = "zero actions")]
    fn empty_actions_panic() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pol = EpsilonGreedy::constant(0.1);
        let _ = pol.select(&[], &mut rng);
    }
}
