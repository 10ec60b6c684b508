//! Concept-drift workload segmentation: piecewise [`WorkloadConfig`]s.
//!
//! Real cloud workloads drift — arrival rates step when a tenant launches,
//! ramp with organic growth, and change *shape* when usage patterns move
//! across time zones. The paper trains its agents online precisely so they
//! track such non-stationarity; this module gives the experiment layer the
//! workload side of that story: an ordered list of trace segments, each a
//! full [`WorkloadConfig`] derived from a shared base by a
//! [`SegmentShift`], with per-segment seeds derived through the same
//! SplitMix64 scheme the suite layer uses everywhere else.
//!
//! Each segment materializes as its own re-based trace (arrivals start at
//! zero), mirroring how the paper splits the month-long Google trace into
//! week-scale segments. Segment boundaries are exactly where learners are
//! carried across runs — see `hierdrl_core::runner::Experiment`, which runs
//! an ordered list of segments under one set of policy objects.

use crate::generator::WorkloadConfig;
use crate::materialize::TraceSpec;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: decorrelates derived seeds so that per-segment
/// (and, in the suite layer, per-cell and per-shard) seed streams are
/// independent — perturbing one stream's inputs never perturbs another's.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How one segment's workload departs from the base configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SegmentShift {
    /// Same distribution as the base (a fresh seed is still derived, so
    /// stationary segments carry fresh data from the same law).
    Stationary,
    /// Arrival rate scaled by this factor (rate step/ramp drifts).
    RateScale(f64),
    /// The arrival pattern's *shape* replaced (a regime change: different
    /// peak hour, diurnal swing, and weekend behaviour at the same mean
    /// volume).
    Pattern {
        /// Diurnal amplitude in `[0, 1)`.
        diurnal_amplitude: f64,
        /// Hour of day (0–24) at which arrivals peak.
        peak_hour: f64,
        /// Weekend rate multiplier.
        weekend_factor: f64,
    },
}

impl SegmentShift {
    /// The base config transformed by this shift. The seed is untouched —
    /// [`SegmentedTraceSpec::from_shifts`] derives it per segment.
    pub fn apply(&self, base: &WorkloadConfig) -> WorkloadConfig {
        let mut config = base.clone();
        match *self {
            SegmentShift::Stationary => {}
            SegmentShift::RateScale(factor) => {
                config.arrivals.base_rate *= factor;
            }
            SegmentShift::Pattern {
                diurnal_amplitude,
                peak_hour,
                weekend_factor,
            } => {
                // Hold the weekly task volume constant across the shape
                // change: the diurnal cosine is mean-zero, so only the
                // weekend factor moves the mean rate.
                let old_mean = config.arrivals.mean_rate_factor();
                config.arrivals.diurnal_amplitude = diurnal_amplitude;
                config.arrivals.peak_hour = peak_hour;
                config.arrivals.weekend_factor = weekend_factor;
                config.arrivals.base_rate *= old_mean / config.arrivals.mean_rate_factor();
            }
        }
        config
    }

    /// Short label used in per-segment report rows.
    pub fn label(&self) -> String {
        match *self {
            SegmentShift::Stationary => "stationary".into(),
            SegmentShift::RateScale(f) => format!("rate-x{f}"),
            SegmentShift::Pattern {
                diurnal_amplitude,
                peak_hour,
                weekend_factor,
            } => {
                format!("pattern(amp={diurnal_amplitude},peak={peak_hour}h,wknd={weekend_factor})")
            }
        }
    }

    /// Validates the shift's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SegmentShift::Stationary => Ok(()),
            SegmentShift::RateScale(f) => {
                if f.is_finite() && f > 0.0 {
                    Ok(())
                } else {
                    Err(format!("rate factor must be positive, got {f}"))
                }
            }
            // Pattern fields are fully checked by ArrivalPattern::validate
            // once applied; check the one field that could silently divide
            // by zero here.
            SegmentShift::Pattern { weekend_factor, .. } => {
                if weekend_factor.is_finite() && weekend_factor > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "weekend_factor must be positive, got {weekend_factor}"
                    ))
                }
            }
        }
    }
}

/// An ordered list of fully-determined trace segments — the workload side
/// of a concept-drift sweep. Two equal specs always materialize
/// byte-identical segment lists, and each segment's spec depends only on
/// the base config, *its own* shift, and its own derived seed — so
/// perturbing one segment never perturbs another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentedTraceSpec {
    /// Per-segment trace recipes, in drift order.
    pub segments: Vec<TraceSpec>,
}

impl SegmentedTraceSpec {
    /// Builds the per-segment specs: segment `i` runs `shifts[i]` applied
    /// to `base` under seed `mix_seed(seed, i)`, and `total_jobs` splits
    /// as evenly as possible across segments (earlier segments take the
    /// remainder), so a drifting cell evaluates the same job count as its
    /// stationary counterpart.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` is empty or any shift is invalid.
    pub fn from_shifts(
        base: &WorkloadConfig,
        shifts: &[SegmentShift],
        total_jobs: usize,
        seed: u64,
    ) -> Self {
        assert!(!shifts.is_empty(), "need at least one segment");
        let k = shifts.len();
        let segments = shifts
            .iter()
            .enumerate()
            .map(|(i, shift)| {
                shift
                    .validate()
                    .unwrap_or_else(|e| panic!("segment {i}: {e}"));
                let mut config = shift.apply(base);
                config.seed = mix_seed(seed, i as u64);
                TraceSpec::new(config, total_jobs / k + usize::from(i < total_jobs % k))
            })
            .collect();
        Self { segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadConfig {
        WorkloadConfig::google_like(7, 50_000.0)
    }

    #[test]
    fn jobs_split_evenly_with_remainder_up_front() {
        let shifts = vec![SegmentShift::Stationary; 3];
        let spec = SegmentedTraceSpec::from_shifts(&base(), &shifts, 1001, 42);
        let counts: Vec<usize> = spec.segments.iter().map(|s| s.jobs).collect();
        assert_eq!(counts, vec![334, 334, 333]);
        assert_eq!(counts.iter().sum::<usize>(), 1001);
    }

    #[test]
    fn segment_seeds_are_pairwise_distinct_and_derived() {
        let shifts = vec![SegmentShift::Stationary; 4];
        let spec = SegmentedTraceSpec::from_shifts(&base(), &shifts, 400, 42);
        let mut seeds: Vec<u64> = spec.segments.iter().map(|s| s.workload.seed).collect();
        assert_eq!(seeds[0], mix_seed(42, 0));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "segment seeds must not collide");
    }

    #[test]
    fn rate_scale_moves_the_base_rate_only() {
        let shifted = SegmentShift::RateScale(2.0).apply(&base());
        assert!((shifted.arrivals.base_rate - 2.0 * base().arrivals.base_rate).abs() < 1e-12);
        assert_eq!(shifted.duration, base().duration);
    }

    #[test]
    fn pattern_shift_preserves_mean_volume() {
        let shifted = SegmentShift::Pattern {
            diurnal_amplitude: 0.8,
            peak_hour: 3.0,
            weekend_factor: 1.25,
        }
        .apply(&base());
        assert!(
            (shifted.arrivals.mean_rate() - base().arrivals.mean_rate()).abs() < 1e-12,
            "regime change must hold the mean task rate"
        );
        assert_eq!(shifted.arrivals.peak_hour, 3.0);
    }

    #[test]
    fn materializes_valid_segments() {
        let shifts = [SegmentShift::Stationary, SegmentShift::RateScale(2.0)];
        let spec = SegmentedTraceSpec::from_shifts(&base(), &shifts, 200, 9);
        let traces: Vec<_> = spec
            .segments
            .iter()
            .map(|s| s.materialize().unwrap())
            .collect();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].len() + traces[1].len(), 200);
        // Stationary and rate-shifted segments draw from different seeds
        // and laws: the traces must differ.
        assert_ne!(traces[0].jobs(), traces[1].jobs());
        // The 2x segment should arrive roughly twice as fast.
        let (a, b) = (traces[0].stats().unwrap(), traces[1].stats().unwrap());
        assert!(
            b.arrival_rate > a.arrival_rate * 1.4,
            "rate step must show in realized arrival rates ({} vs {})",
            a.arrival_rate,
            b.arrival_rate
        );
    }

    #[test]
    #[should_panic(expected = "rate factor must be positive")]
    fn invalid_shift_rejected() {
        let _ = SegmentedTraceSpec::from_shifts(&base(), &[SegmentShift::RateScale(0.0)], 100, 1);
    }
}
