//! Byte-identity of the streaming trace path against materialization.
//!
//! `GeneratorStream` claims *exact* equivalence with
//! `TraceSpec::materialize()` (`generate_n` + first-arrival rebase): the
//! RNG is driven through the identical call sequence, the reorder frontier
//! replicates the stable sort's `(arrival, insertion)` order, and the
//! rebase routes every arrival through the same `SimTime` arithmetic. This
//! suite holds that claim property-style across the whole `WorkloadConfig`
//! shape space — batching on/off, diurnal/weekend structure, correlation
//! extremes, degenerate distributions — and across drift-segmented specs.

use hierdrl_sim::job::Job;
use hierdrl_trace::distributions::Dist;
use hierdrl_trace::drift::{SegmentShift, SegmentedTraceSpec};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;

/// Every structurally distinct generator shape: each entry perturbs a
/// different mechanism of the generator (thinning, batching, jitter,
/// correlation, clamps), so a divergence in any code path shows up.
fn config_shapes() -> Vec<(&'static str, WorkloadConfig)> {
    let base = |seed| WorkloadConfig::google_like(seed, 80_000.0);
    let mut shapes = vec![("google_like", base(11))];

    let mut no_batch = base(12);
    no_batch.batch_mean = 1.0;
    shapes.push(("no_batching", no_batch));

    let mut heavy_batch = base(13);
    heavy_batch.batch_mean = 16.0;
    shapes.push(("heavy_batching", heavy_batch));

    let mut zero_jitter = base(14);
    zero_jitter.batch_jitter = Dist::Constant(0.0);
    shapes.push(("zero_jitter_ties", zero_jitter));

    let mut wide_jitter = base(15);
    wide_jitter.batch_jitter = Dist::Exponential { mean: 600.0 };
    shapes.push(("wide_jitter_reorders", wide_jitter));

    let mut flat = base(16);
    flat.arrivals.diurnal_amplitude = 0.0;
    flat.arrivals.weekend_factor = 1.0;
    shapes.push(("flat_arrivals", flat));

    let mut spiky = base(17);
    spiky.arrivals.diurnal_amplitude = 0.9;
    spiky.arrivals.weekend_factor = 0.2;
    shapes.push(("spiky_arrivals", spiky));

    let mut uncorrelated = base(18);
    uncorrelated.mem_cpu_correlation = 0.0;
    shapes.push(("uncorrelated_mem", uncorrelated));

    let mut fully_correlated = base(19);
    fully_correlated.mem_cpu_correlation = 1.0;
    shapes.push(("fully_correlated_mem", fully_correlated));

    let mut constant_everything = base(20);
    constant_everything.duration = Dist::Constant(120.0);
    constant_everything.cpu_demand = Dist::Constant(0.01);
    constant_everything.mem_demand = Dist::Constant(0.02);
    constant_everything.disk_demand = Dist::Constant(0.005);
    shapes.push(("constant_distributions", constant_everything));

    let mut tight_clamps = base(21);
    tight_clamps.min_demand = 0.009;
    tight_clamps.max_demand = 0.011;
    shapes.push(("tight_demand_clamps", tight_clamps));

    shapes
}

#[test]
fn stream_is_byte_identical_for_every_config_shape() {
    for (name, config) in config_shapes() {
        for jobs in [0usize, 1, 7, 1_000] {
            let spec = TraceSpec::new(config.clone(), jobs);
            let materialized = spec.materialize().unwrap_or_else(|e| {
                panic!("shape {name}: materialize failed: {e}");
            });
            let streamed: Vec<Job> = spec
                .stream()
                .unwrap_or_else(|e| panic!("shape {name}: stream failed: {e}"))
                .collect();
            assert_eq!(
                materialized.jobs(),
                streamed.as_slice(),
                "shape {name} jobs={jobs}: streamed trace diverged"
            );
        }
    }
}

#[test]
fn stream_is_byte_identical_across_seeds() {
    let config = |seed| WorkloadConfig::google_like(seed, 95_000.0);
    for seed in 0..8u64 {
        let spec = TraceSpec::new(config(seed), 3_000);
        let materialized = spec.materialize().unwrap();
        let streamed: Vec<Job> = spec.stream().unwrap().collect();
        assert_eq!(
            materialized.jobs(),
            streamed.as_slice(),
            "seed {seed}: streamed trace diverged"
        );
    }
}

#[test]
fn segmented_streams_are_byte_identical_per_segment() {
    let base = WorkloadConfig::google_like(23, 70_000.0);
    let shifts = [
        SegmentShift::Stationary,
        SegmentShift::RateScale(2.5),
        SegmentShift::Pattern {
            diurnal_amplitude: 0.8,
            peak_hour: 3.0,
            weekend_factor: 1.2,
        },
    ];
    let spec = SegmentedTraceSpec::from_shifts(&base, &shifts, 2_001, 77);
    assert_eq!(spec.segments.len(), shifts.len());
    for (i, seg_spec) in spec.segments.iter().enumerate() {
        let materialized = seg_spec.materialize().unwrap();
        let streamed: Vec<Job> = seg_spec.stream().unwrap().collect();
        assert_eq!(
            materialized.jobs(),
            streamed.as_slice(),
            "segment {i}: streamed segment diverged"
        );
    }
}
