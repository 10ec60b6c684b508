//! `qbench`: microbenchmark pinning the batched DQN hot-path throughput:
//! `q_values` (one global-tier decision), the SMDP target sweep, and
//! `train_batch` (one minibatch update) at the CI smoke sizes M ∈ {10, 14}
//! and the benchmark's M = 30 (15-wide Sub-Q heads, which run through
//! `gemm_row4`'s masked remainder tile), next to the retained unbatched
//! reference implementations so the batching speedup stays measurable.
//! `train_step` times one global-tier train step the way the allocator
//! runs it: the target sweep over memoized replay rows, then `train_batch`
//! on samples borrowing those rows.
//!
//! Runs through the criterion shim's wall-clock harness as a subcommand
//! so CI can exercise the batched path on every change:
//!
//! ```sh
//! cargo run --release -p hierdrl-bench -- qbench            # full
//! cargo run --release -p hierdrl-bench -- qbench --quick    # smoke
//! ```

use criterion::Criterion;
use hierdrl_core::dqn::{GroupedQNetwork, QNetworkConfig, QSample, StateRow};
use hierdrl_core::state::{GlobalState, StateEncoder, StateEncoderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn layout(m: usize) -> StateEncoder {
    StateEncoder::new(m, 3, StateEncoderConfig::default())
}

fn random_state(layout: &StateEncoder, rng: &mut StdRng) -> GlobalState {
    let groups: Vec<Vec<f32>> = (0..layout.num_groups())
        .map(|_| {
            (0..layout.group_width())
                .map(|_| rng.gen::<f32>())
                .collect()
        })
        .collect();
    let job: Vec<f32> = (0..layout.job_width()).map(|_| rng.gen::<f32>()).collect();
    GlobalState::from_parts(&groups, &job)
}

fn bench_m(c: &mut Criterion, m: usize, minibatch: usize, quick: bool) {
    let mut rng = StdRng::seed_from_u64(m as u64);
    let lay = layout(m);
    let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
    // The target net is a synced clone: same encoder generation, so the
    // replay rows' memoized codes are reusable by both.
    let target = net.clone();
    let state = random_state(&lay, &mut rng);
    // A replay chain of minibatch + 1 states, each with memoized codes.
    let states: Vec<GlobalState> = (0..=minibatch)
        .map(|_| random_state(&lay, &mut rng))
        .collect();
    let codes: Vec<Vec<f32>> = states
        .iter()
        .map(|s| {
            let mut codes = vec![0.0; net.code_width()];
            net.encode_codes(s.as_slice(), &mut codes);
            codes
        })
        .collect();
    let rows: Vec<StateRow> = states
        .iter()
        .zip(&codes)
        .map(|(s, c)| StateRow {
            state: s.as_slice(),
            codes: c,
            generation: net.encoder_generation(),
        })
        .collect();
    let transitions: Vec<(StateRow, usize, StateRow)> = (0..minibatch)
        .map(|i| (rows[i], rng.gen_range(0..m), rows[i + 1]))
        .collect();
    let samples: Vec<QSample> = transitions
        .iter()
        .map(|&(state, action, _)| QSample {
            state,
            action,
            target: rng.gen_range(-5.0..0.0),
        })
        .collect();
    let uncoded: Vec<QSample> = samples
        .iter()
        .map(|s| QSample {
            state: StateRow::uncoded(s.state.state),
            ..*s
        })
        .collect();

    let mut group = c.benchmark_group(&format!("qbench_m{m}"));
    group.sample_size(if quick { 10 } else { 50 });
    group.bench_function("q_values_batched", |b| {
        b.iter(|| black_box(net.q_values(black_box(&state))))
    });
    group.bench_function("q_values_unbatched_ref", |b| {
        b.iter(|| black_box(net.q_values_reference(black_box(&state))))
    });
    group.bench_function(&format!("target_sweep_memoized_{minibatch}"), |b| {
        b.iter(|| {
            target.target_values(black_box(&transitions), m, |_, q, max| {
                black_box((q, max));
            })
        })
    });
    group.bench_function(&format!("train_batch_memoized_{minibatch}"), |b| {
        b.iter(|| black_box(net.train_batch(black_box(&samples))))
    });
    group.bench_function(&format!("train_batch_encoding_{minibatch}"), |b| {
        b.iter(|| black_box(net.train_batch(black_box(&uncoded))))
    });
    group.bench_function(&format!("train_batch_unbatched_ref_{minibatch}"), |b| {
        b.iter(|| black_box(net.train_batch_reference(black_box(&uncoded))))
    });
    group.bench_function(&format!("train_step_{minibatch}"), |b| {
        b.iter(|| {
            target.target_values(black_box(&transitions), m, |_, q, max| {
                black_box((q, max));
            });
            black_box(net.train_batch(black_box(&samples)))
        })
    });
    group.finish();
}

/// Benchmarks every fleet size; `quick` shrinks the sample count.
pub fn run(quick: bool) {
    let minibatch = 32;
    eprintln!(
        "qbench: batched vs unbatched-reference DQN hot path (minibatch = {minibatch}{})",
        if quick { ", quick" } else { "" }
    );
    let mut criterion = Criterion::default();
    for m in [10usize, 14, 30] {
        bench_m(&mut criterion, m, minibatch, quick);
    }
}
