//! The artifact subcommands. Each builds its preset (for `scale`, its
//! raw-scale spec), runs it, prints its table, and returns the run's bench
//! artifact; the summary line, the write-or-merge step, and the
//! expectation gate after the run are shared (see the crate docs).

use crate::harness::{print_comparison, print_figure_series, print_summary_header, summary_row};
use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::presets::{
    self, Scale, DRIFT_NAMES, ELASTIC_NAMES, FAULT_NAMES, REALTRACE_FIXTURES,
};
use hierdrl_exp::report::{BenchReport, CellReport};
use hierdrl_exp::runner::SuiteRun;
use hierdrl_exp::scale::{run_scale, scale_bench_report, ScaleSpec};
use hierdrl_exp::scenario::{WorkloadSpec, PAPER_WEEKLY_JOBS_PER_SERVER};
use hierdrl_exp::suite::Suite;
use hierdrl_trace::source::TraceFormat;
use std::collections::BTreeSet;

/// Runs `suite` on the runner `args` selects.
fn run_suite(args: &SweepArgs, suite: &Suite) -> Result<SuiteRun, String> {
    let runner = args.runner();
    eprintln!(
        "{}: {} cells, threads = {}",
        suite.name,
        suite.len(),
        runner.threads()
    );
    runner.run(suite)
}

/// **Table I**: accumulated energy, latency and average power of the
/// round-robin baseline, DRL-only allocation and the hierarchical
/// framework at M = 30 and 40 (plus the preset's big/little, drift and
/// elastic rows), with the paper's headline savings (Sec. VII-B).
pub fn table1(args: &SweepArgs) -> Result<BenchReport, String> {
    let run = run_suite(args, &presets::table1(args.scale(Scale::paper(30))))?;
    // The grid is 2 topologies x 3 systems, in suite order.
    let results = run.results();
    for (topo_idx, chunk) in results.chunks(3).enumerate() {
        let cell = &run.cells[topo_idx * 3].scenario;
        println!(
            "\n===== M = {} (jobs = {}) =====",
            cell.topology.servers(),
            cell.workload.jobs_for(cell.topology.servers())
        );
        print_comparison([chunk[0], chunk[1], chunk[2]]);
    }
    Ok(run.bench_report())
}

/// **Fig. 8**: accumulated job latency and energy versus completed jobs at
/// M = 30 for the three systems.
pub fn fig8(args: &SweepArgs) -> Result<BenchReport, String> {
    figure(args, &presets::fig8(args.scale(Scale::paper(30))))
}

/// **Fig. 9**: the Fig. 8 comparison at M = 40 (arrival volume scales with
/// M, so per-server load matches Fig. 8).
pub fn fig9(args: &SweepArgs) -> Result<BenchReport, String> {
    figure(args, &presets::fig9(args.scale(Scale::paper(40))))
}

/// The Figs. 8/9 printout: the Table I comparison, then both curves.
fn figure(args: &SweepArgs, suite: &Suite) -> Result<BenchReport, String> {
    let run = run_suite(args, suite)?;
    let results = run.results();
    print_comparison([results[0], results[1], results[2]]);
    print_figure_series(&results);
    Ok(run.bench_report())
}

/// **Fig. 10**: the per-job latency/energy trade-off. The hierarchical
/// framework sweeps the local tier's weight `w` (Eqn. 5); the baselines
/// pair the same DRL global tier with fixed 30/60/90 s timeouts. All ten
/// points share one scenario seed, so the pre-train cache restores the
/// same pre-trained global tier for every point.
pub fn fig10(args: &SweepArgs) -> Result<BenchReport, String> {
    let run = run_suite(args, &presets::fig10(args.scale(Scale::paper(30))))?;
    println!(
        "{:<26} {:>16} {:>16}",
        "system", "energy/job (kJ)", "latency/job (s)"
    );
    for r in run.results() {
        println!(
            "{:<26} {:>16.1} {:>16.1}",
            r.name,
            r.energy_per_job_j() / 1e3,
            r.mean_latency_s()
        );
    }
    Ok(run.bench_report())
}

/// Ablations of the global tier's design choices (Section V-A): the group
/// count `K`, the state enrichments, encoder fine-tuning and the first-fit
/// guide, with the final DNN training loss as a convergence proxy.
pub fn ablation_dqn(args: &SweepArgs) -> Result<BenchReport, String> {
    let scale = args.scale(Scale {
        m: 30,
        jobs: 10_000,
    });
    let run = run_suite(args, &presets::ablation_dqn(scale))?;
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>10}",
        "variant", "energy kWh", "lat/job s", "loss", "params ok"
    );
    for cell in &run.cells {
        let stats = cell.drl_stats.expect("ablation cells are DRL variants");
        println!(
            "{:<26} {:>12.2} {:>12.1} {:>10.4} {:>10}",
            cell.result.name,
            cell.result.energy_kwh(),
            cell.result.mean_latency_s(),
            stats.loss_ema,
            stats.autoencoder_trained,
        );
    }
    Ok(run.bench_report())
}

/// Calibration probe, not a paper artifact: the three systems plus the
/// hand-written consolidation envelopes at a reduced scale, to sanity-check
/// reward weights and workload calibration before the full runs.
pub fn calibrate(args: &SweepArgs) -> Result<BenchReport, String> {
    let scale = args.scale(Scale { m: 10, jobs: 8_000 });
    let run = run_suite(args, &presets::calibrate(scale))?;

    // Workload shape of the evaluation trace every cell shares.
    let trace = run.cells[0].scenario.trace_spec().materialize()?;
    let stats = trace.stats().ok_or("calibrate: empty evaluation trace")?;
    println!(
        "trace: {} jobs, span {:.2} h, mean duration {:.0} s, mean cpu {:.3}, offered load {:.2}",
        stats.count,
        stats.span_s / 3600.0,
        stats.mean_duration_s,
        stats.mean_cpu,
        stats.offered_cpu_load(scale.m)
    );

    print_summary_header();
    for cell in &run.cells {
        println!("{}", summary_row(&cell.result));
    }

    for policy in ["drl-only", "hierarchical"] {
        let cell = run.find_policy(policy).expect("preset includes policy");
        if let Some(l) = &cell.result.latency {
            println!(
                "  {policy} latency p50={:.0} p95={:.0} p99={:.0} max={:.0}",
                l.p50, l.p95, l.p99, l.max
            );
        }
        if let Some(stats) = &cell.drl_stats {
            println!(
                "  {policy} drl stats: decisions={} train_steps={} loss_ema={:.5} ae_loss={:.5}",
                stats.decisions, stats.train_steps, stats.loss_ema, stats.autoencoder_loss
            );
        }
    }

    let rr = &run.find_policy("round-robin").expect("rr cell").result;
    let drl = &run.find_policy("drl-only").expect("drl cell").result;
    let hier = &run.find_policy("hierarchical").expect("hier cell").result;
    println!(
        "\nshape check: RR lowest latency? {}  |  hier energy < drl-only? {}  |  drl-only energy < RR? {}",
        rr.mean_latency_s() <= drl.mean_latency_s() && rr.mean_latency_s() <= hier.mean_latency_s(),
        hier.energy_kwh() < drl.energy_kwh(),
        drl.energy_kwh() < rr.energy_kwh(),
    );
    Ok(run.bench_report())
}

/// Heterogeneity sweep: {homogeneous, big/little, extreme-skew} fleets ×
/// the three systems at constant server count and per-server load — the
/// capacity-aware DRL tiers against the capacity-blind round-robin
/// baseline on asymmetric fleets.
pub fn heterogeneous(args: &SweepArgs) -> Result<BenchReport, String> {
    let run = run_suite(args, &presets::heterogeneous(args.scale(Scale::paper(30))))?;
    let report = run.report();

    println!(
        "{:<52} {:>8} {:>6} {:>10} {:>9} {:>9} {:>7}",
        "cell", "capacity", "skew", "energy kWh", "lat s/job", "J/job", "sleep%"
    );
    for cell in &report.cells {
        println!(
            "{:<52} {:>8.1} {:>6.1} {:>10.3} {:>9.2} {:>9.0} {:>6.1}%",
            cell.id,
            cell.capacity_total,
            cell.capacity_skew,
            cell.metrics.energy_kwh,
            cell.metrics.mean_latency_s,
            cell.metrics.energy_per_job_j,
            100.0 * cell.metrics.sleep_fraction
        );
    }

    // The headline the grid exists for: on each skewed fleet, does the
    // capacity-aware DRL stack beat round-robin on power x latency?
    for topo in report
        .cells
        .iter()
        .map(|c| c.topology.clone())
        .collect::<BTreeSet<_>>()
    {
        let find = |policy: &str| {
            report
                .cells
                .iter()
                .find(|c| c.topology == topo && c.policy == policy)
        };
        if let (Some(rr), Some(drl)) = (find("round-robin"), find("drl-only")) {
            let rr_pl = rr.metrics.energy_per_job_j * rr.metrics.mean_latency_s;
            let drl_pl = drl.metrics.energy_per_job_j * drl.metrics.mean_latency_s;
            eprintln!(
                "{topo}: power x latency (J·s/job²) round-robin {rr_pl:.0} vs drl-only {drl_pl:.0} ({})",
                if drl_pl < rr_pl { "DRL wins" } else { "round-robin wins" }
            );
        }
    }
    Ok(run.bench_report())
}

/// Multi-cluster sweep: the fleet sharded across each `--clusters` count
/// behind each front-end router policy, at constant total servers and
/// per-server load, with per-cluster rows under each cell.
pub fn multicluster(args: &SweepArgs) -> Result<BenchReport, String> {
    let counts = args.cluster_counts(&[2, 4]);
    let scale = args.scale(Scale::paper(30));
    if let Some(c) = counts.iter().find(|&&c| c > scale.m) {
        return Err(format!(
            "--clusters {c} exceeds --m {}: every cluster needs at least one server",
            scale.m
        ));
    }
    let run = run_suite(args, &presets::multicluster(scale, &counts))?;
    let report = run.report();

    println!(
        "{:<44} {:>7} {:>9} {:>9} {:>10} {:>9}",
        "cell / cluster", "servers", "routed", "done", "energy kWh", "lat s/job"
    );
    for cell in &report.cells {
        println!(
            "{:<44} {:>7} {:>9} {:>9} {:>10.3} {:>9.2}",
            cell.id,
            cell.servers,
            "-",
            cell.metrics.jobs_completed,
            cell.metrics.energy_kwh,
            cell.metrics.mean_latency_s
        );
        for shard in cell.clusters.as_deref().unwrap_or_default() {
            println!(
                "{:<44} {:>7} {:>9} {:>9} {:>10.3} {:>9.2}",
                format!("  └ cluster {}", shard.cluster),
                shard.servers,
                shard.jobs_routed,
                shard.metrics.jobs_completed,
                shard.metrics.energy_kwh,
                shard.metrics.mean_latency_s
            );
        }
    }
    Ok(run.bench_report())
}

/// The policy × arrival-rate × cluster-size cube behind
/// `presets::load_sweep`, printed on stdout as CSV for plotting the
/// load/latency/energy surfaces.
pub fn load_sweep(args: &SweepArgs) -> Result<BenchReport, String> {
    let scale = args.scale(Scale::quick());
    let ms = args.cluster_sizes(&[scale.m, scale.m * 2]);
    let rates = args.rate_factors(&[0.6, 1.0, 1.4]);
    let jobs_per_server = (scale.jobs as f64 / scale.m as f64).max(1.0);
    let run = run_suite(args, &presets::load_sweep(&ms, &rates, jobs_per_server))?;
    let report = run.report();

    println!(
        "policy,m,rate_factor,jobs_completed,energy_kwh,latency_mega_s,\
         average_power_w,mean_latency_s,energy_per_job_j,sleep_fraction,span_hours"
    );
    for (cell_run, cell) in run.cells.iter().zip(&report.cells) {
        let rate =
            cell_run.scenario.workload.weekly_jobs_per_server() / PAPER_WEEKLY_JOBS_PER_SERVER;
        println!(
            "{},{},{:.3},{},{:.6},{:.6},{:.3},{:.3},{:.1},{:.4},{:.3}",
            cell.policy,
            cell.servers,
            rate,
            cell.metrics.jobs_completed,
            cell.metrics.energy_kwh,
            cell.metrics.latency_mega_s,
            cell.metrics.average_power_w,
            cell.metrics.mean_latency_s,
            cell.metrics.energy_per_job_j,
            cell.metrics.sleep_fraction,
            cell.metrics.span_hours
        );
    }
    Ok(run.bench_report())
}

/// Online-learning / concept-drift sweep: the `--drifts` shapes × the three
/// systems, evaluation and continued training interleaved across each
/// cell's segments under carried learners, one row per segment.
pub fn drift(args: &SweepArgs) -> Result<BenchReport, String> {
    let names = args.drift_names(&DRIFT_NAMES);
    let run = run_suite(args, &presets::drift(args.scale(Scale::paper(30)), &names))?;
    let report = run.report();

    println!(
        "{:<56} {:>3} {:<24} {:>6} {:>9} {:>9} {:>7} {:>7}",
        "cell", "seg", "shift", "jobs", "lat s/job", "J/job", "sleep%", "steps"
    );
    for cell in &report.cells {
        let segments = cell
            .segments
            .as_ref()
            .expect("every drift cell reports per-segment rows");
        for seg in segments {
            println!(
                "{:<56} {:>3} {:<24} {:>6} {:>9.2} {:>9.0} {:>6.1}% {:>7}",
                if seg.segment == 0 { &cell.id } else { "" },
                seg.segment,
                seg.shift,
                seg.metrics.jobs_completed,
                seg.metrics.mean_latency_s,
                seg.metrics.energy_per_job_j,
                100.0 * seg.metrics.sleep_fraction,
                seg.drl.map_or(0, |d| d.train_steps),
            );
        }
    }

    // The headline: on each drift shape, the post-drift (last) segment is
    // where continued online training has to pay off. Group by the
    // `workload@drift` component of the cell id — the `workload` column
    // alone is identical across every drift shape of the preset.
    let drift_axis = |id: &str| id.split('/').nth(1).unwrap_or("").to_string();
    for axis in report
        .cells
        .iter()
        .map(|c| drift_axis(&c.id))
        .collect::<BTreeSet<_>>()
    {
        let find = |policy: &str| {
            report
                .cells
                .iter()
                .find(|c| drift_axis(&c.id) == axis && c.policy == policy)
        };
        if let (Some(rr), Some(drl)) = (find("round-robin"), find("drl-only")) {
            let last = |c: &CellReport| c.segments.as_ref().and_then(|s| s.last().cloned());
            if let (Some(rr_last), Some(drl_last)) = (last(rr), last(drl)) {
                let rr_pl = rr_last.metrics.energy_per_job_j * rr_last.metrics.mean_latency_s;
                let drl_pl = drl_last.metrics.energy_per_job_j * drl_last.metrics.mean_latency_s;
                eprintln!(
                    "{axis}: post-drift power x latency (J·s/job²) round-robin \
                     {rr_pl:.0} vs drl-only {drl_pl:.0} ({})",
                    if drl_pl < rr_pl {
                        "DRL tracks the drift"
                    } else {
                        "round-robin wins"
                    }
                );
            }
        }
    }
    Ok(run.bench_report())
}

/// Chaos sweep: the `--faults` schedules × the three systems, every fault
/// cell next to its fault-free twin, gated by the preset's expectations —
/// job conservation through crash-requeue churn, determinism pins, and the
/// graceful-degradation headline.
pub fn chaos(args: &SweepArgs) -> Result<BenchReport, String> {
    let names = args.fault_names(&FAULT_NAMES);
    let run = run_suite(args, &presets::chaos(args.scale(Scale::paper(30)), &names))?;
    let report = run.report();

    println!(
        "{:<56} {:<16} {:>6} {:>7} {:>9} {:>9} {:>7}",
        "cell", "fault", "jobs", "requeue", "lat s/job", "J/job", "sleep%"
    );
    for cell in &report.cells {
        println!(
            "{:<56} {:<16} {:>6} {:>7} {:>9.2} {:>9.0} {:>6.1}%",
            cell.id,
            cell.fault.as_deref().unwrap_or("-"),
            cell.metrics.jobs_completed,
            cell.jobs_requeued,
            cell.metrics.mean_latency_s,
            cell.metrics.energy_per_job_j,
            100.0 * cell.metrics.sleep_fraction,
        );
    }
    Ok(run.bench_report())
}

/// Elastic-fleet sweep: the `--elastics` autoscalers × the three systems,
/// every autoscaled cell next to its fixed-fleet twin, gated by the
/// preset's expectations — conservation through join/leave churn,
/// determinism pins, and the autoscale-economics headline.
pub fn elastic(args: &SweepArgs) -> Result<BenchReport, String> {
    let names = args.elastic_names(&ELASTIC_NAMES);
    let run = run_suite(
        args,
        &presets::elastic(args.scale(Scale::paper(30)), &names),
    )?;
    let report = run.report();

    println!(
        "{:<56} {:<10} {:>13} {:>6} {:>9} {:>9} {:>7}",
        "cell", "elastic", "fleet min/max", "jobs", "lat s/job", "J/job", "sleep%"
    );
    for cell in &report.cells {
        let fleet = &cell.fleet_size;
        println!(
            "{:<56} {:<10} {:>5}/{:<3} ~{:<4.1} {:>6} {:>9.2} {:>9.0} {:>6.1}%",
            cell.id,
            cell.elastic.as_deref().unwrap_or("-"),
            fleet.min,
            fleet.max,
            fleet.mean,
            cell.metrics.jobs_completed,
            cell.metrics.mean_latency_s,
            cell.metrics.energy_per_job_j,
            100.0 * cell.metrics.sleep_fraction,
        );
    }
    Ok(run.bench_report())
}

/// Real-trace replay: each trace × {full trace, wall-clock-weekly segments,
/// weekly segments with frozen learners} × the three systems. Prints each
/// source's provenance (rows kept/dropped/defaulted, and a warning when
/// the demand gate fell back to synthetic demands) and one row per week of
/// the trace for segmented cells. With no `--trace`, replays both
/// committed fixtures.
pub fn realtrace(args: &SweepArgs) -> Result<BenchReport, String> {
    let m = if args.quick { 6 } else { args.m.unwrap_or(10) };
    let workloads: Vec<WorkloadSpec> = match &args.trace {
        Some(path) => {
            let format = args.format.unwrap_or(TraceFormat::GoogleTaskEvents);
            vec![WorkloadSpec::real_trace(
                format!("real-{format}"),
                path.clone(),
                format,
            )]
        }
        None => REALTRACE_FIXTURES
            .iter()
            .map(|(name, path, format)| {
                WorkloadSpec::real_trace(*name, resolve_fixture(path), *format)
            })
            .collect(),
    };
    let run = run_suite(args, &presets::realtrace(m, workloads))?;
    let report = run.report();

    // Provenance first: what each file contributed, one line per distinct
    // source (every cell of a workload shares the parse).
    let mut seen = BTreeSet::new();
    for cell in &report.cells {
        if let Some(trace) = &cell.trace {
            if seen.insert(trace.source.clone()) {
                eprintln!(
                    "source {}: {} rows -> {} jobs kept, {} dropped, {} demand-defaulted{}",
                    trace.source,
                    trace.rows,
                    trace.jobs_kept,
                    trace.jobs_dropped,
                    trace.demand_defaulted,
                    if trace.synthetic_demand {
                        " [WARN: demand gate tripped; demands re-drawn synthetically]"
                    } else {
                        ""
                    }
                );
            }
        }
    }

    println!(
        "{:<64} {:>5} {:<8} {:>6} {:>9} {:>9} {:>7} {:>7}",
        "cell", "seg", "window", "jobs", "lat s/job", "J/job", "sleep%", "steps"
    );
    for cell in &report.cells {
        match &cell.segments {
            Some(segments) => {
                for seg in segments {
                    println!(
                        "{:<64} {:>5} {:<8} {:>6} {:>9.2} {:>9.0} {:>6.1}% {:>7}",
                        if seg.segment == 0 { &cell.id } else { "" },
                        seg.segment,
                        seg.shift,
                        seg.metrics.jobs_completed,
                        seg.metrics.mean_latency_s,
                        seg.metrics.energy_per_job_j,
                        100.0 * seg.metrics.sleep_fraction,
                        seg.drl.map_or(0, |d| d.train_steps),
                    );
                }
            }
            None => println!(
                "{:<64} {:>5} {:<8} {:>6} {:>9.2} {:>9.0} {:>6.1}% {:>7}",
                cell.id,
                "-",
                "full",
                cell.metrics.jobs_completed,
                cell.metrics.mean_latency_s,
                cell.metrics.energy_per_job_j,
                100.0 * cell.metrics.sleep_fraction,
                cell.drl.map_or(0, |d| d.train_steps),
            ),
        }
    }
    Ok(run.bench_report())
}

/// Resolves a repo-relative fixture path against the current directory
/// first, then against the source tree (so `realtrace` works from any cwd).
fn resolve_fixture(path: &str) -> String {
    if std::path::Path::new(path).exists() {
        return path.to_string();
    }
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

/// The raw-scale regime: streams 10⁶ jobs through a 10⁵-server fleet in
/// bounded memory and reports jobs/s plus peak RSS per cell. Cells run
/// sequentially, because the peak-RSS reading is a process-wide
/// high-water mark (see `hierdrl_exp::scale`).
pub fn scale(args: &SweepArgs) -> Result<BenchReport, String> {
    // Not `args.scale(..)`: its `--quick` caps (M = 10, 5k jobs) are sized
    // for learned-policy suites; the scale regime's smoke point stays two
    // orders of magnitude larger.
    let mut spec = if args.quick {
        ScaleSpec::quick()
    } else {
        ScaleSpec::raw()
    };
    spec.m = args.m.unwrap_or(spec.m);
    spec.jobs = args.jobs.unwrap_or(spec.jobs);
    eprintln!(
        "scale: M = {}, jobs = {} (streamed arrivals, no retention)",
        spec.m, spec.jobs
    );

    let runs = run_scale(&spec)?;
    println!(
        "| {:<42} | {:>9} | {:>8} | {:>12} | {:>12} |",
        "cell", "jobs", "wall (s)", "jobs/s", "peak RSS"
    );
    println!(
        "|{:-<44}|{:-<11}|{:-<10}|{:-<14}|{:-<14}|",
        "", "", "", "", ""
    );
    for run in &runs {
        let rss = match run.peak_rss_bytes {
            Some(bytes) => format!("{:.0} MiB", bytes as f64 / (1024.0 * 1024.0)),
            None => "-".to_string(),
        };
        println!(
            "| {:<42} | {:>9} | {:>8.2} | {:>12.0} | {:>12} |",
            run.id, run.result.outcome.totals.jobs_completed, run.wall_s, run.jobs_per_s, rss
        );
    }
    Ok(scale_bench_report(&runs))
}
