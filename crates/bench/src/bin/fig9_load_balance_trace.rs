//! **Fig. 9**: dynamic load balancing trace. Runs a small parallel
//! MLMCMC with strongly heterogeneous (and artificially slowed)
//! per-level model costs through **both** in-process entry points —
//! `run_parallel` (a worker pool as wide as the host) and `run_runtime`
//! (a pool of the configured width) — recording per-rank activity spans: model evaluations (the figure's
//! green boxes), burn-in phases (yellow), ledger serves and
//! reassignment markers. Both runs share one [`Epoch`], so the
//! exported Chrome trace (`fig9_trace.json`, Perfetto /
//! `chrome://tracing` loadable) shows them on a single timeline next
//! to the per-backend CSVs.

use std::time::Duration;
use uq_bench::{write_output, ExpArgs};
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_parallel::{
    chrome_trace, run_parallel, run_runtime, Epoch, ParallelConfig, RuntimeConfig, SpanKind, Tracer,
};

/// Gaussian target with an artificial per-evaluation delay mimicking a
/// PDE solve whose run time varies strongly between samples (the paper's
/// time-step count depends on the uncertain parameters).
struct SlowTarget {
    mean: f64,
    sd: f64,
    base_delay: Duration,
}

impl uq_mcmc::SamplingProblem for SlowTarget {
    fn dim(&self) -> usize {
        1
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        // parameter-dependent run time: up to 2x the base cost
        let jitter = 1.0 + theta[0].abs().min(1.0);
        std::thread::sleep(self.base_delay.mul_f64(jitter));
        isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
    }
}

struct SlowHierarchy;

impl uq_mlmcmc::LevelFactory for SlowHierarchy {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn uq_mcmc::SamplingProblem> {
        Box::new(SlowTarget {
            mean: [0.5, 1.0][level],
            sd: [0.6, 0.5][level],
            base_delay: Duration::from_micros([300, 3_000][level]),
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn uq_mcmc::Proposal> {
        Box::new(uq_mcmc::GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        [4, 0][level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

fn span_counts(tracer: &Tracer) -> (usize, usize, usize) {
    let events = tracer.events();
    let evals = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Eval { .. }))
        .count();
    let burnins = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Burnin { .. }))
        .count();
    let serves = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Serve { .. } | SpanKind::Speculate { .. }))
        .count();
    (evals, burnins, serves)
}

fn main() {
    let args = ExpArgs::parse();
    let samples = if args.paper {
        vec![3_000usize, 400]
    } else {
        vec![800usize, 120]
    };
    let chains = vec![3usize, 2];
    let burn_in = vec![60usize, 25];
    let epoch = Epoch::now();

    println!("Fig. 9 — dynamic load balancing trace (live scheduler)");
    let mut config = ParallelConfig::new(samples.clone(), chains.clone());
    config.burn_in = burn_in.clone();
    config.seed = args.seed;
    let tracer = Tracer::with_epoch(epoch);
    let report = run_parallel(&SlowHierarchy, &config, &tracer);
    println!(
        "run finished in {:.2}s on {} ranks, {} reassignments, estimate {:.3}",
        report.elapsed,
        report.n_ranks,
        report.reassignments,
        report.expectation()[0]
    );
    let (evals, burnins, serves) = span_counts(&tracer);
    println!("trace: {evals} evaluation spans, {burnins} burn-in spans, {serves} serve spans");
    write_output(&args.out_dir, "fig9_trace.csv", &tracer.to_csv());

    // the same study on the cooperative runtime: virtual ranks
    // multiplexed over a small worker pool, serves through the rewind
    // ledger — the second Gantt panel of the exported Chrome trace
    println!("\nFig. 9 — the same trace on the cooperative runtime");
    let mut rt_cfg = RuntimeConfig::new(samples, chains);
    rt_cfg.base.burn_in = burn_in;
    rt_cfg.base.seed = args.seed;
    rt_cfg.n_workers = 4;
    let rt_tracer = Tracer::with_epoch(epoch);
    let rt = run_runtime(&SlowHierarchy, &rt_cfg, &rt_tracer);
    println!(
        "run finished in {:.2}s on {} virtual ranks ({} workers), {} reassignments, \
         {} steals, estimate {:.3}",
        rt.report.elapsed,
        rt.report.n_ranks,
        rt_cfg.n_workers,
        rt.report.reassignments,
        rt.runtime.steals,
        rt.report.expectation()[0]
    );
    let (evals, burnins, serves) = span_counts(&rt_tracer);
    println!("trace: {evals} evaluation spans, {burnins} burn-in spans, {serves} serve spans");
    write_output(&args.out_dir, "fig9_trace_runtime.csv", &rt_tracer.to_csv());

    let trace = chrome_trace(&[
        ("thread-scheduler", &tracer),
        ("cooperative-runtime", &rt_tracer),
    ]);
    write_output(&args.out_dir, "fig9_trace.json", &trace);
}
