//! `lstm_accuracy`: evaluates the local tier's LSTM workload predictor against the simpler
//! predictors the paper argues against (Section VI-A motivates the LSTM by
//! the failure of linear combinations of previous inter-arrival times, and
//! of schemes that one long gap can derail).
//!
//! Streams are the *per-server* arrival sequences produced by a first-fit
//! consolidation run — the same distribution the predictor sees inside the
//! hierarchical framework. Errors are one-step-ahead, log-space (inter-
//! arrival times span orders of magnitude), and also reported as the
//! fraction of predictions landing in the correct discretized RL category.
//!
//! ```sh
//! cargo run --release -p hierdrl-bench -- lstm_accuracy --jobs 20000
//! ```

use hierdrl_core::predictor::{
    EwmaPredictor, IatPredictor, LastValuePredictor, LstmIatPredictor, MovingAveragePredictor,
    PredictorConfig,
};
use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::presets::Scale;
use hierdrl_exp::scenario::{Topology, WorkloadSpec};
use hierdrl_rl::discretize::Discretizer;
use hierdrl_sim::cluster::{Cluster, ClusterView, PowerManager, RunLimit, TimeoutDecision};
use hierdrl_sim::job::ServerId;
use hierdrl_sim::policies::FirstFitAllocator;
use hierdrl_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Records per-server arrival times while sleeping servers immediately.
struct ArrivalRecorder {
    arrivals: Vec<Vec<f64>>,
}

impl PowerManager for ArrivalRecorder {
    fn on_idle(
        &mut self,
        _server: ServerId,
        _view: &ClusterView<'_>,
        _now: SimTime,
    ) -> TimeoutDecision {
        TimeoutDecision::SleepNow
    }

    fn on_job_arrival(&mut self, server: ServerId, _view: &ClusterView<'_>, now: SimTime) {
        self.arrivals[server.0].push(now.as_secs());
    }
}

fn score(mut p: impl IatPredictor, streams: &[Vec<f64>], bins: &Discretizer) -> (f64, f64, usize) {
    let mut log_err = 0.0;
    let mut bin_hits = 0usize;
    let mut scored = 0usize;
    for stream in streams {
        for w in stream.windows(2) {
            let iat = (w[1] - w[0]).max(1e-3);
            if let Some(pred) = p.predict() {
                log_err += (pred.max(1.0).ln() - iat.max(1.0).ln()).abs();
                if bins.bin(pred) == bins.bin(iat) {
                    bin_hits += 1;
                }
                scored += 1;
            }
            p.observe(iat);
        }
    }
    (
        log_err / scored.max(1) as f64,
        bin_hits as f64 / scored.max(1) as f64,
        scored,
    )
}

/// Scores every predictor on the per-server arrival streams of a
/// first-fit run at the scale `args` selects.
pub fn run(args: &SweepArgs) -> Result<(), String> {
    let scale = args.scale(Scale {
        m: 30,
        jobs: 20_000,
    });
    eprintln!("lstm_accuracy: M = {}, jobs = {}", scale.m, scale.jobs);

    // Produce per-server arrival streams with a consolidating allocator.
    let topology = Topology::paper(scale.m);
    let trace = WorkloadSpec::paper()
        .with_total_jobs(scale.jobs)
        .trace_spec(&topology, 70)
        .materialize()?;
    let mut cluster = Cluster::new(topology.clusters()[0].clone(), trace.into_jobs())?;
    let mut recorder = ArrivalRecorder {
        arrivals: vec![Vec::new(); scale.m],
    };
    cluster.run(&mut FirstFitAllocator, &mut recorder, RunLimit::unbounded());
    let streams: Vec<Vec<f64>> = recorder
        .arrivals
        .into_iter()
        .filter(|s| s.len() > 50)
        .collect();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    eprintln!("streams: {} servers, {} arrivals", streams.len(), total);

    // The RL state categories the predictions feed (paper: n predefined
    // categories).
    let bins = Discretizer::log_spaced(10.0, 3600.0, 5);

    println!(
        "{:<22} {:>16} {:>14} {:>10}",
        "predictor", "log-space MAE", "bin accuracy", "scored"
    );
    let mut rng = StdRng::seed_from_u64(3);
    let lstm = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    let (mae, acc, n) = score(lstm, &streams, &bins);
    println!(
        "{:<22} {:>16.4} {:>14.3} {:>10}",
        "lstm (paper)", mae, acc, n
    );

    let (mae, acc, n) = score(LastValuePredictor::default(), &streams, &bins);
    println!("{:<22} {:>16.4} {:>14.3} {:>10}", "last-value", mae, acc, n);

    let (mae, acc, n) = score(MovingAveragePredictor::new(35), &streams, &bins);
    println!(
        "{:<22} {:>16.4} {:>14.3} {:>10}",
        "moving-average(35)", mae, acc, n
    );

    let (mae, acc, n) = score(EwmaPredictor::new(0.3), &streams, &bins);
    println!("{:<22} {:>16.4} {:>14.3} {:>10}", "ewma(0.3)", mae, acc, n);
    Ok(())
}
