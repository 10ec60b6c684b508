//! # hierdrl-rl
//!
//! Reinforcement-learning primitives shared by both tiers of the
//! hierarchical framework:
//!
//! - [`smdp`] — the continuous-time Q-learning update for semi-Markov
//!   decision processes (the paper's Eqn. 2), used by the global DRL tier
//!   (with a DNN Q-function) and the local power manager (with a table);
//! - [`qtable`] — tabular `Q(s, a)` over ordered states (key-ordered
//!   storage, so snapshots are insertion-order independent);
//! - [`policy`] — epsilon-greedy exploration with a constant or
//!   exponentially decaying epsilon, and the greedy rule
//!   ([`policy::greedy_action`]) every reader of learned values shares;
//! - [`replay`] — bounded experience memory with uniform sampling
//!   (Algorithm 1's memory `D`);
//! - [`discretize`] — binning of continuous observations (e.g. predicted
//!   inter-arrival times) into RL state categories.
//!
//! # Examples
//!
//! ```
//! use hierdrl_rl::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut q: QTable<u32> = QTable::new(2, 0.0);
//! let params = SmdpParams::new(0.2, 0.5);
//! let mut policy = EpsilonGreedy::constant(0.1);
//!
//! // One decision step: select, observe sojourn + reward rate, update.
//! let state = 0u32;
//! let action = policy.select(&q.q_row(&state), &mut rng);
//! q.update_smdp(&params, &state, action, -3.0, 12.5, &1u32);
//! ```

#![forbid(unsafe_code)]

pub mod discretize;
pub mod policy;
pub mod qtable;
pub mod replay;
pub mod smdp;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::discretize::Discretizer;
    pub use crate::policy::{EpsilonGreedy, EpsilonSchedule};
    pub use crate::qtable::QTable;
    pub use crate::replay::ReplayMemory;
    pub use crate::smdp::{discount, reward_weight, smdp_target, smdp_update, SmdpParams};
}
