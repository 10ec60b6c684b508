//! Property-based tests of the workload substrate.

use hierdrl_trace::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any google-like configuration produces a valid, sorted trace whose
    /// durations and demands respect the configured clamps.
    #[test]
    fn generated_traces_are_valid(seed in 0u64..500, jobs_per_week in 10_000.0f64..150_000.0) {
        let config = WorkloadConfig::google_like(seed, jobs_per_week);
        let (lo, hi) = (config.min_demand, config.max_demand);
        let trace = TraceGenerator::new(config).unwrap().generate_n(300);
        prop_assert_eq!(trace.len(), 300);
        for w in trace.jobs().windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
        for j in trace.jobs() {
            prop_assert!((60.0..=7200.0).contains(&j.duration));
            for &d in j.demand.as_slice() {
                prop_assert!((lo..=hi).contains(&d));
            }
        }
    }

    /// The realized arrival rate tracks the configured volume within a
    /// generous statistical tolerance.
    #[test]
    fn arrival_rate_matches_configuration(seed in 0u64..200) {
        let target_per_week = 95_000.0;
        let config = WorkloadConfig::google_like(seed, target_per_week);
        let trace = TraceGenerator::new(config).unwrap().generate(SECS_PER_WEEK);
        let n = trace.len() as f64;
        prop_assert!((n - target_per_week).abs() < target_per_week * 0.10,
            "weekly count {n} too far from {target_per_week}");
    }

    /// The arrival pattern's max_rate really bounds rate_at everywhere.
    #[test]
    fn pattern_bound_holds(base in 0.001f64..2.0, amp in 0.0f64..0.95,
                           peak in 0.0f64..24.0, weekend in 0.2f64..1.5,
                           t in 0.0f64..1_000_000.0) {
        let p = ArrivalPattern {
            base_rate: base,
            diurnal_amplitude: amp,
            peak_hour: peak,
            weekend_factor: weekend,
        };
        prop_assert!(p.rate_at(t) <= p.max_rate() + 1e-12);
        prop_assert!(p.rate_at(t) >= 0.0);
    }

    /// Per-segment derived seeds are pairwise independent: perturbing one
    /// segment's shift (its config) leaves every *other* segment's
    /// materialized trace byte-identical, and distinct segments never
    /// share a seed.
    #[test]
    fn perturbing_one_segment_leaves_others_byte_identical(
        seed in 0u64..500, k in 2usize..6, target in 0usize..6, factor in 1.1f64..4.0,
    ) {
        let target = target % k;
        let base = WorkloadConfig::google_like(9, 40_000.0);
        let shifts = vec![SegmentShift::Stationary; k];
        let mut perturbed = shifts.clone();
        perturbed[target] = SegmentShift::RateScale(factor);

        let a = SegmentedTraceSpec::from_shifts(&base, &shifts, 60 * k, seed);
        let b = SegmentedTraceSpec::from_shifts(&base, &perturbed, 60 * k, seed);

        let mut seeds: Vec<u64> = a.segments.iter().map(|s| s.workload.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), k, "segment seeds must be pairwise distinct");

        for i in 0..k {
            let ta = a.segments[i].materialize().unwrap();
            let tb = b.segments[i].materialize().unwrap();
            if i == target {
                prop_assert_ne!(ta.jobs(), tb.jobs(), "the perturbed segment must change");
            } else {
                prop_assert_eq!(
                    ta.jobs(), tb.jobs(),
                    "untouched segment {} must stay byte-identical", i
                );
            }
        }
    }

    /// Distribution samples are finite and respect support constraints.
    #[test]
    fn distribution_samples_are_sane(seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists = [
            Dist::Constant(5.0),
            Dist::Uniform { lo: 1.0, hi: 2.0 },
            Dist::Exponential { mean: 10.0 },
            Dist::LogNormal { mu: 0.0, sigma: 1.0 },
            Dist::clipped_log_normal_median(480.0, 1.1, 60.0, 7200.0),
        ];
        for d in dists {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite());
                prop_assert!(x >= 0.0, "{d:?} produced negative {x}");
            }
        }
    }
}
