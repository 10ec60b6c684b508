//! The concept-drift axis: segmented evaluation under carried learners.

use hierdrl_trace::drift::SegmentShift;
use serde::{Deserialize, Serialize};

/// The concept-drift axis of a scenario: an ordered list of workload
/// segments (each a [`SegmentShift`] of the cell's base workload), run
/// under *one* set of carried learners that continue training online
/// across segment boundaries — unless `online` is off, the
/// no-continued-training ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSpec {
    /// Display name (joined into the scenario id as `workload@drift`).
    pub name: String,
    /// Per-segment departures from the base workload, in drift order.
    pub shifts: Vec<SegmentShift>,
    /// `true` (the default mode): learners keep training online across
    /// segments. `false`: learners are frozen after pre-training — the
    /// ablation that measures what continued training buys under drift.
    pub online: bool,
}

impl DriftSpec {
    /// A named drift from explicit shifts.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` is empty or any shift is invalid.
    pub fn new(name: impl Into<String>, shifts: Vec<SegmentShift>) -> Self {
        assert!(!shifts.is_empty(), "drift needs >= 1 segment");
        for (i, shift) in shifts.iter().enumerate() {
            shift
                .validate()
                .unwrap_or_else(|e| panic!("drift segment {i}: {e}"));
        }
        Self {
            name: name.into(),
            shifts,
            online: true,
        }
    }

    /// `k` segments of the *same* law under fresh per-segment seeds — the
    /// drift-free control row of a drift grid.
    pub fn stationary(k: usize) -> Self {
        Self::new(format!("stationary-{k}"), vec![SegmentShift::Stationary; k])
    }

    /// One stationary segment, then the arrival rate stepped to `factor`
    /// (a tenant launch).
    pub fn rate_step(factor: f64) -> Self {
        Self::new(
            format!("rate-step-x{factor}"),
            vec![SegmentShift::Stationary, SegmentShift::RateScale(factor)],
        )
    }

    /// The arrival rate ramping through the given factors, one segment
    /// each (organic growth).
    pub fn rate_ramp(factors: &[f64]) -> Self {
        Self::new(
            format!(
                "rate-ramp-{}",
                factors
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join("-")
            ),
            factors
                .iter()
                .map(|&f| SegmentShift::RateScale(f))
                .collect(),
        )
    }

    /// One stationary segment, then a regime change: the diurnal peak
    /// jumps twelve hours, the swing deepens, and weekends get *busier* —
    /// the same mean volume with an inverted shape.
    pub fn pattern_flip() -> Self {
        Self::new(
            "pattern-flip",
            vec![
                SegmentShift::Stationary,
                SegmentShift::Pattern {
                    diurnal_amplitude: 0.8,
                    peak_hour: 3.0,
                    weekend_factor: 1.25,
                },
            ],
        )
    }

    /// The drift axis for a
    /// [`WorkloadSpec::RealTrace`](super::WorkloadSpec::RealTrace) cell:
    /// segments are the trace's own wall-clock windows (weeks by default),
    /// replayed under carried learners — the online-vs-frozen ablation on
    /// *real* regime changes. The single [`SegmentShift::Stationary`] entry
    /// is a placeholder; the actual segment count comes from the data.
    pub fn real_segments() -> Self {
        Self::new("real-weeks", vec![SegmentShift::Stationary])
    }

    /// The no-continued-training ablation of this drift: same segments,
    /// learners frozen after pre-training.
    #[must_use]
    pub fn with_frozen_learners(mut self) -> Self {
        self.online = false;
        self.name.push_str("-frozen");
        self
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.shifts.len()
    }
}
