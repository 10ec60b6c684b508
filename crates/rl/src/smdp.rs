//! Continuous-time Q-learning for semi-Markov decision processes (SMDP).
//!
//! Implements the paper's value-updating rule (Eqn. 2):
//!
//! ```text
//! Q(s_k, a_k) += alpha * ( (1 - e^{-beta*tau}) / beta * r(s_k, a_k)
//!                          + e^{-beta*tau} * max_a' Q(s_{k+1}, a')
//!                          - Q(s_k, a_k) )
//! ```
//!
//! where `tau` is the sojourn time in `s_k` and `r` is the (time-average)
//! reward *rate* over the sojourn. Both the global DRL tier and the local
//! power manager use this rule; only the Q-function representation differs
//! (DNN vs. table).

use serde::{Deserialize, Serialize};

/// Parameters of the SMDP Q-learning rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmdpParams {
    /// Learning rate `alpha` in `(0, 1]`.
    pub alpha: f64,
    /// Continuous-time discount rate `beta > 0` (the paper uses 0.5).
    pub beta: f64,
}

impl SmdpParams {
    /// Creates validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `beta <= 0`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        assert!(
            beta > 0.0 && beta.is_finite(),
            "beta must be positive, got {beta}"
        );
        Self { alpha, beta }
    }
}

/// Discount factor `e^{-beta * tau}` for a sojourn of `tau` seconds.
pub fn discount(beta: f64, tau: f64) -> f64 {
    (-beta * tau).exp()
}

/// Effective reward weight `(1 - e^{-beta*tau}) / beta`.
///
/// Numerically stable for small `beta * tau` (falls back to the Taylor
/// limit `tau`).
pub fn reward_weight(beta: f64, tau: f64) -> f64 {
    let x = beta * tau;
    if x < 1e-8 {
        tau
    } else {
        (1.0 - (-x).exp()) / beta
    }
}

/// The SMDP Q-learning target value for one observed transition.
///
/// `reward_rate` is the time-average reward rate over the sojourn,
/// `sojourn` the time spent in the state (seconds), and `max_next_q` the
/// best next-state value estimate.
pub fn smdp_target(params: &SmdpParams, reward_rate: f64, sojourn: f64, max_next_q: f64) -> f64 {
    debug_assert!(
        sojourn >= 0.0,
        "sojourn must be non-negative, got {sojourn}"
    );
    reward_weight(params.beta, sojourn) * reward_rate + discount(params.beta, sojourn) * max_next_q
}

/// One SMDP Q-learning update: returns the new `Q(s, a)` estimate.
pub fn smdp_update(
    params: &SmdpParams,
    q: f64,
    reward_rate: f64,
    sojourn: f64,
    max_next_q: f64,
) -> f64 {
    q + params.alpha * (smdp_target(params, reward_rate, sojourn, max_next_q) - q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discount_decays_with_sojourn() {
        assert!((discount(0.5, 0.0) - 1.0).abs() < 1e-12);
        assert!(discount(0.5, 10.0) < discount(0.5, 1.0));
    }

    #[test]
    fn reward_weight_small_beta_limit_is_tau() {
        // As beta -> 0 the weight approaches tau.
        assert!((reward_weight(1e-12, 5.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn reward_weight_long_sojourn_saturates_at_inverse_beta() {
        assert!((reward_weight(0.5, 1e9) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sojourn_target_is_pure_bootstrap() {
        let p = SmdpParams::new(0.1, 0.5);
        let target = smdp_target(&p, -100.0, 0.0, 7.0);
        assert!((target - 7.0).abs() < 1e-9);
    }

    #[test]
    fn update_moves_toward_target() {
        let p = SmdpParams::new(0.5, 0.5);
        let q0 = 0.0;
        let target = smdp_target(&p, -1.0, 1.0, 0.0);
        let q1 = smdp_update(&p, q0, -1.0, 1.0, 0.0);
        assert!((q1 - 0.5 * target).abs() < 1e-12);
    }

    #[test]
    fn repeated_updates_converge_to_fixed_point() {
        // A single state/action loop with constant reward rate r and
        // sojourn tau has fixed point Q* = w*r / (1 - d) where
        // w = (1-e^{-beta tau})/beta, d = e^{-beta tau}.
        let p = SmdpParams::new(0.2, 0.5);
        let (r, tau) = (-3.0, 2.0);
        let w = reward_weight(p.beta, tau);
        let d = discount(p.beta, tau);
        let fixed = w * r / (1.0 - d);
        let mut q = 0.0;
        for _ in 0..500 {
            q = smdp_update(&p, q, r, tau, q);
        }
        assert!((q - fixed).abs() < 1e-6, "q={q}, fixed={fixed}");
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn invalid_alpha_rejected() {
        let _ = SmdpParams::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn invalid_beta_rejected() {
        let _ = SmdpParams::new(0.1, 0.0);
    }
}
