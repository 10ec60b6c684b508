//! Criterion micro-benchmarks for the performance-critical paths:
//!
//! - `lstm_predict_lookback35`: one prediction of the local tier's
//!   predictor, the full 35-step inference sweep. `predict` memoizes until
//!   the next observation, so each iteration first makes one observation
//!   with training frozen (a window shift, no weight change);
//! - `lstm_observe_and_train`: one observe-and-train step on a varying
//!   inter-arrival stream;
//! - `lstm_observe_periodic`: the same step on a perfectly periodic stream
//!   (every inter-arrival time 60 s), warmed for 2,100 observations. Once
//!   the LSTM fits such a stream every gradient is exactly zero, which used
//!   to sink Adam's first moments into subnormals after ~800 observations
//!   and slow every later step; the moments now flush to zero, so this
//!   reads like `lstm_observe_and_train`;
//! - `simulator_throughput`: event-loop speed with non-learning policies;
//! - `matmul`: the neural substrate's kernel.
//!
//! The global tier's DNN work (`q_values`, `train_batch`) is timed by the
//! `qbench` subcommand of `hierdrl-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use hierdrl_core::predictor::{IatPredictor, LstmIatPredictor, PredictorConfig};
use hierdrl_neural::matrix::Matrix;
use hierdrl_sim::cluster::{Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::generator::{TraceGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_lstm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut predictor = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    for i in 0..120 {
        predictor.observe(30.0 + (i % 7) as f64 * 40.0);
    }
    predictor.set_online_training(false);
    let mut y = 0u64;
    c.bench_function("lstm_predict_lookback35", |b| {
        b.iter(|| {
            y = y.wrapping_add(1);
            predictor.observe(30.0 + (y % 7) as f64 * 40.0);
            black_box(predictor.predict())
        })
    });

    let mut trainer = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    for i in 0..40 {
        trainer.observe(30.0 + (i % 7) as f64 * 40.0);
    }
    let mut x = 0u64;
    c.bench_function("lstm_observe_and_train", |b| {
        b.iter(|| {
            x = x.wrapping_add(1);
            trainer.observe(30.0 + (x % 7) as f64 * 40.0);
        })
    });

    let mut periodic = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    for _ in 0..2_100 {
        periodic.observe(60.0);
    }
    c.bench_function("lstm_observe_periodic", |b| {
        b.iter(|| periodic.observe(black_box(60.0)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let trace = TraceGenerator::new(WorkloadConfig::google_like(5, 95_000.0))
        .expect("workload")
        .generate_n(2_000);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("simulate_2k_jobs_m30", |b| {
        b.iter(|| {
            let mut cluster =
                Cluster::new(ClusterConfig::paper(30), trace.jobs().to_vec()).expect("cluster");
            let out = cluster.run(
                &mut RoundRobinAllocator::new(),
                &mut FixedTimeoutPower::new(60.0),
                RunLimit::unbounded(),
            );
            black_box(out.totals.jobs_completed)
        })
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::from_vec(32, 128, (0..32 * 128).map(|_| rng.gen::<f32>()).collect());
    let b = Matrix::from_vec(128, 64, (0..128 * 64).map(|_| rng.gen::<f32>()).collect());
    c.bench_function("matmul_32x128x64", |bch| {
        bch.iter(|| black_box(a.matmul(black_box(&b))))
    });
}

criterion_group!(benches, bench_lstm, bench_simulator, bench_matmul);
criterion_main!(benches);
