//! The local tier's workload predictor (Section VI-A).
//!
//! Each server runs an LSTM that predicts the next job inter-arrival time
//! from the previous 35 inter-arrival times (the paper's look-back window),
//! trained online with Adam. Simpler predictors (last-value, moving
//! average, EWMA) are provided as comparison baselines for the
//! `lstm_accuracy` bench — the paper motivates the LSTM by the failure of
//! linear combinations of previous inter-arrival times.

use hierdrl_neural::loss::Loss;
use hierdrl_neural::lstm::LstmNetwork;
use hierdrl_neural::matrix::Matrix;
use hierdrl_neural::optim::{Adam, Optimizer, Trainable};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A predictor of job inter-arrival times fed one observation at a time.
pub trait IatPredictor {
    /// Records an observed inter-arrival time (seconds). Implementations
    /// that learn from observations must reject values that carry no
    /// inter-arrival information (NaN, infinities, non-positive gaps)
    /// instead of folding them into their state.
    fn observe(&mut self, iat: f64);

    /// Predicts the next inter-arrival time, or `None` before enough
    /// history has accumulated.
    fn predict(&self) -> Option<f64>;
}

/// Configuration of the LSTM workload predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Look-back window length (paper: 35).
    pub lookback: usize,
    /// LSTM hidden units (paper: 30).
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Lower clamp for log-normalization, seconds.
    pub min_iat: f64,
    /// Upper clamp for log-normalization, seconds.
    pub max_iat: f64,
    /// Train online on each new observation.
    pub online_training: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            lookback: 35,
            hidden: 30,
            learning_rate: 2e-3,
            min_iat: 1.0,
            max_iat: 7200.0,
            online_training: true,
        }
    }
}

impl PredictorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.lookback < 2 {
            return Err(format!(
                "lookback must be at least 2, got {}",
                self.lookback
            ));
        }
        if self.hidden == 0 {
            return Err("need at least one hidden unit".into());
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(format!(
                "learning rate must be finite and positive, got {}",
                self.learning_rate
            ));
        }
        if !(self.min_iat > 0.0 && self.min_iat < self.max_iat && self.max_iat.is_finite()) {
            return Err(format!(
                "need 0 < min_iat < max_iat < inf, got ({}, {})",
                self.min_iat, self.max_iat
            ));
        }
        Ok(())
    }
}

/// Online LSTM predictor of inter-arrival times.
///
/// Inter-arrival times are log-normalized to `[0, 1]` (they span orders of
/// magnitude), predicted in that space, and mapped back. An observation is
/// two steps: an accept step checks, counts and normalizes it, and a learn
/// step trains on the window and shifts it. The RL power manager runs the
/// two on different threads; [`IatPredictor::observe`] runs them in
/// sequence.
#[derive(Debug)]
pub struct LstmIatPredictor {
    gate: IatGate,
    model: IatModel,
}

/// The accept step of an observation: the validity check, the counters,
/// and normalization to `f32`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IatGate {
    /// The normalization's clamp range, seconds.
    min_iat: f64,
    max_iat: f64,
    observations: u64,
    rejected: u64,
}

/// The learn step of an observation and everything it touches: the LSTM,
/// its optimizer, the look-back window, and the prediction-error score.
#[derive(Debug)]
pub(crate) struct IatModel {
    config: PredictorConfig,
    lstm: LstmNetwork,
    adam: Adam,
    /// The look-back window of normalized inter-arrival times as one
    /// `lookback x 1` sequence (rows = steps, oldest first), of which the
    /// first `filled` rows are valid until it fills.
    window: Matrix,
    filled: usize,
    /// Training target and loss gradient, `1 x 1`, reused by every
    /// observation.
    target: Matrix,
    grad: Matrix,
    training_steps: u64,
    sq_err_sum: f64,
    err_count: u64,
    /// Memoized [`IatModel::predict`] output: the prediction is a pure
    /// function of the window and weights, both of which only change in
    /// `learn`, so repeated reads between observations (every power
    /// decision epoch asks) skip the look-back sweep.
    cached_prediction: std::cell::Cell<Option<f64>>,
}

impl LstmIatPredictor {
    /// Creates a predictor with freshly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PredictorConfig::validate`]).
    pub fn new(config: PredictorConfig, rng: &mut impl Rng) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid predictor config: {e}");
        }
        let c = &config;
        Self {
            gate: IatGate {
                min_iat: c.min_iat,
                max_iat: c.max_iat,
                observations: 0,
                rejected: 0,
            },
            model: IatModel {
                lstm: LstmNetwork::new(1, 1, c.hidden, 1, rng),
                adam: Adam::new(c.learning_rate),
                window: Matrix::zeros(c.lookback, 1),
                filled: 0,
                target: Matrix::zeros(1, 1),
                grad: Matrix::zeros(1, 1),
                training_steps: 0,
                sq_err_sum: 0.0,
                err_count: 0,
                cached_prediction: std::cell::Cell::new(None),
                config,
            },
        }
    }

    /// The paper's configuration (look-back 35, 30 hidden units).
    pub fn paper(rng: &mut impl Rng) -> Self {
        Self::new(PredictorConfig::default(), rng)
    }

    /// The accept and learn halves, for a caller that runs them on
    /// different threads.
    pub(crate) fn into_parts(self) -> (IatGate, IatModel) {
        (self.gate, self.model)
    }

    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.model.config
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.gate.observations
    }

    /// Observations rejected as carrying no inter-arrival information
    /// (NaN, infinite, or non-positive). A non-zero count under a correct
    /// simulator driver indicates a time-bookkeeping bug upstream — e.g.
    /// a last-arrival mark leaking across a segment boundary.
    pub fn rejected_observations(&self) -> u64 {
        self.gate.rejected
    }

    /// Online training steps performed.
    pub fn training_steps(&self) -> u64 {
        self.model.training_steps()
    }

    /// Enables or disables online training (weights freeze while off; the
    /// look-back window keeps tracking observations so predictions stay
    /// current).
    pub fn set_online_training(&mut self, on: bool) {
        self.model.set_online_training(on);
    }

    /// Running mean squared one-step prediction error in *normalized*
    /// space, or `None` if no prediction has been scored yet.
    pub fn normalized_mse(&self) -> Option<f64> {
        self.model.normalized_mse()
    }
}

impl IatGate {
    /// Checks and counts `iat`, returning its normalized value to learn
    /// from, or `None` if it is rejected.
    pub(crate) fn accept(&mut self, iat: f64) -> Option<f32> {
        // A NaN here would sail through `clamp` (which returns NaN for NaN
        // input) into the window and then the weights, silently poisoning
        // every later prediction; a non-positive gap is physically
        // meaningless for an inter-*arrival* process (two events at one
        // instant, or a clock that went backwards). Reject both instead of
        // normalizing them — the mirror of the state encoder's
        // `queue_scale > 0` guard.
        if !(iat.is_finite() && iat > 0.0) {
            self.rejected += 1;
            return None;
        }
        self.observations += 1;
        let (min, max) = (self.min_iat, self.max_iat);
        let clamped = iat.clamp(min, max);
        Some(((clamped.ln() - min.ln()) / (max.ln() - min.ln())) as f32)
    }

    /// Observations accepted so far.
    pub(crate) fn observations(&self) -> u64 {
        self.observations
    }

    /// Observations rejected so far.
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl IatModel {
    /// The learn step of an accepted observation `z` (normalized, in
    /// `[0, 1]`): the current window predicts it, so train on it when
    /// online training is on and the window is full; then shift it in.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not a normalized observation.
    pub(crate) fn learn(&mut self, z: f32) {
        assert!(
            (0.0..=1.0).contains(&z),
            "learn step needs a normalized observation, got {z}"
        );
        if self.trains_next() {
            self.target.as_mut_slice()[0] = z;
            self.lstm.zero_grad();
            let pred = self.lstm.forward_seq(&self.window);
            let err = f64::from(pred.as_slice()[0] - z);
            self.sq_err_sum += err * err;
            self.err_count += 1;
            Loss::Mse.gradient_into(pred, &self.target, &mut self.grad);
            self.lstm.backward_seq(&self.grad);
            self.adam.step(&mut self.lstm);
            self.training_steps += 1;
        }
        let window = self.window.as_mut_slice();
        if self.filled < window.len() {
            window[self.filled] = z;
            self.filled += 1;
        } else {
            window.copy_within(1.., 0);
            window[self.filled - 1] = z;
        }
        self.cached_prediction.set(None);
    }

    /// Whether the next learn step trains, rather than only shifting the
    /// window in: online training is on and the window is full.
    pub(crate) fn trains_next(&self) -> bool {
        self.config.online_training && self.filled == self.config.lookback
    }

    /// Allocates every buffer a training learn step uses, so that later
    /// learn steps allocate nothing. Shape-only: no result changes.
    pub(crate) fn reserve_training(&mut self) {
        self.lstm.reserve_training(self.config.lookback);
        self.adam.reserve(&mut self.lstm);
    }

    /// See [`LstmIatPredictor::set_online_training`].
    pub(crate) fn set_online_training(&mut self, on: bool) {
        self.config.online_training = on;
    }

    /// Online training steps performed.
    pub(crate) fn training_steps(&self) -> u64 {
        self.training_steps
    }

    /// See [`LstmIatPredictor::normalized_mse`].
    pub(crate) fn normalized_mse(&self) -> Option<f64> {
        (self.err_count > 0).then(|| self.sq_err_sum / self.err_count as f64)
    }

    /// See [`IatPredictor::predict`].
    pub(crate) fn predict(&self) -> Option<f64> {
        if self.filled < self.config.lookback {
            return None;
        }
        if let Some(cached) = self.cached_prediction.get() {
            return Some(cached);
        }
        let z = self.lstm.infer_seq(&self.window).as_slice()[0];
        let c = &self.config;
        let z = f64::from(z).clamp(0.0, 1.0);
        let prediction = (c.min_iat.ln() + z * (c.max_iat.ln() - c.min_iat.ln())).exp();
        self.cached_prediction.set(Some(prediction));
        Some(prediction)
    }
}

impl IatPredictor for LstmIatPredictor {
    fn observe(&mut self, iat: f64) {
        if let Some(z) = self.gate.accept(iat) {
            self.model.learn(z);
        }
    }

    fn predict(&self) -> Option<f64> {
        self.model.predict()
    }
}

/// Predicts the next inter-arrival time as the previous one.
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    last: Option<f64>,
}

impl IatPredictor for LastValuePredictor {
    fn observe(&mut self, iat: f64) {
        self.last = Some(iat);
    }

    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of the last `window` observations — the "linear
/// combination of previous inter-arrival times" family the paper argues
/// against (Section VI-A).
#[derive(Debug, Clone)]
pub struct MovingAveragePredictor {
    window: usize,
    values: VecDeque<f64>,
}

impl MovingAveragePredictor {
    /// Creates a predictor averaging the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            values: VecDeque::with_capacity(window),
        }
    }
}

impl IatPredictor for MovingAveragePredictor {
    fn observe(&mut self, iat: f64) {
        self.values.push_back(iat);
        if self.values.len() > self.window {
            self.values.pop_front();
        }
    }

    fn predict(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// Exponentially weighted moving average predictor.
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaPredictor {
    /// Creates a predictor with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is out of range.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }
}

impl IatPredictor for EwmaPredictor {
    fn observe(&mut self, iat: f64) {
        self.value = Some(match self.value {
            None => iat,
            Some(v) => self.alpha * iat + (1.0 - self.alpha) * v,
        });
    }

    fn predict(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> PredictorConfig {
        PredictorConfig {
            lookback: 6,
            hidden: 8,
            learning_rate: 5e-3,
            ..Default::default()
        }
    }

    #[test]
    fn no_prediction_before_window_fills() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for i in 0..5 {
            assert!(p.predict().is_none(), "predicted too early at {i}");
            p.observe(60.0);
        }
        p.observe(60.0);
        assert!(p.predict().is_some());
    }

    #[test]
    fn predictions_are_within_clamp_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for i in 0..40 {
            p.observe(if i % 2 == 0 { 10.0 } else { 500.0 });
        }
        let pred = p.predict().unwrap();
        assert!((1.0..=7200.0).contains(&pred), "prediction {pred}");
    }

    #[test]
    fn learns_a_periodic_arrival_process() {
        // Alternating 30 s / 600 s inter-arrivals: after training, the
        // prediction following a 30 s gap should be much larger than the
        // one following a 600 s gap.
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for i in 0..900 {
            p.observe(if i % 2 == 0 { 30.0 } else { 600.0 });
        }
        // Window now ends on an even count => last observed was 600 (i odd
        // last = 899 -> 600.0). Next should be ~30.
        let after_600 = p.predict().unwrap();
        p.observe(30.0);
        let after_30 = p.predict().unwrap();
        assert!(
            after_30 > after_600 * 2.0,
            "after_30 {after_30} vs after_600 {after_600}"
        );
    }

    #[test]
    fn online_training_reduces_error_on_stationary_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for _ in 0..50 {
            p.observe(120.0);
        }
        let early = p.normalized_mse().unwrap();
        for _ in 0..400 {
            p.observe(120.0);
        }
        // Error on a constant stream must collapse.
        let pred = p.predict().unwrap();
        assert!(
            (pred - 120.0).abs() < 60.0,
            "constant-stream prediction {pred} too far from 120"
        );
        assert!(p.normalized_mse().unwrap() <= early);
    }

    #[test]
    fn disabled_training_keeps_weights_fixed() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut config = small_config();
        config.online_training = false;
        let mut p = LstmIatPredictor::new(config, &mut rng);
        for _ in 0..50 {
            p.observe(100.0);
        }
        assert_eq!(p.training_steps(), 0);
        assert!(p.normalized_mse().is_none());
    }

    #[test]
    fn last_value_predictor_echoes() {
        let mut p = LastValuePredictor::default();
        assert!(p.predict().is_none());
        p.observe(42.0);
        assert_eq!(p.predict(), Some(42.0));
        p.observe(7.0);
        assert_eq!(p.predict(), Some(7.0));
    }

    #[test]
    fn moving_average_window() {
        let mut p = MovingAveragePredictor::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.observe(v);
        }
        assert_eq!(p.predict(), Some(3.0)); // mean of 2, 3, 4
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut p = EwmaPredictor::new(0.5);
        for _ in 0..20 {
            p.observe(10.0);
        }
        assert!((p.predict().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_and_non_positive_observations_are_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for _ in 0..20 {
            p.observe(120.0);
        }
        let weights_before = format!("{:?}", p.model.lstm);
        let (obs, steps) = (p.observations(), p.training_steps());

        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -42.0] {
            p.observe(bad);
        }
        assert_eq!(p.rejected_observations(), 5);
        assert_eq!(p.observations(), obs, "rejected values must not count");
        assert_eq!(p.training_steps(), steps, "rejected values must not train");
        assert_eq!(
            format!("{:?}", p.model.lstm),
            weights_before,
            "rejected values must not touch the weights"
        );
        // The prediction is still finite and in range afterwards.
        let pred = p.predict().unwrap();
        assert!(pred.is_finite() && pred >= 1.0);
    }

    #[test]
    fn training_can_be_frozen_and_resumed() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = LstmIatPredictor::new(small_config(), &mut rng);
        for _ in 0..20 {
            p.observe(100.0);
        }
        let steps = p.training_steps();
        p.set_online_training(false);
        for _ in 0..20 {
            p.observe(100.0);
        }
        assert_eq!(p.training_steps(), steps, "frozen predictor must not train");
        assert_eq!(p.observations(), 40, "window keeps tracking while frozen");
        p.set_online_training(true);
        p.observe(100.0);
        assert_eq!(p.training_steps(), steps + 1);
    }

    #[test]
    #[should_panic(expected = "lookback must be at least 2")]
    fn tiny_lookback_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut config = small_config();
        config.lookback = 1;
        let _ = LstmIatPredictor::new(config, &mut rng);
    }
}
