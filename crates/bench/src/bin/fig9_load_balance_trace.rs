//! **Fig. 9**: dynamic load balancing trace. Runs a small parallel
//! MLMCMC with strongly heterogeneous (and artificially slowed)
//! per-level model costs on a worker pool as wide as the host, recording
//! per-rank activity spans: model evaluations (the figure's
//! green boxes), burn-in phases (yellow), ledger serves and
//! reassignment markers, as a CSV and as a Chrome trace
//! (`fig9_trace.json`, Perfetto / `chrome://tracing` loadable).

use std::time::Duration;
use uq_bench::{write_output, ExpArgs};
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_parallel::{chrome_trace, Placement, Run, Runtime, RuntimeConfig, SpanKind, Tracer};

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

    println!("Fig. 9 — dynamic load balancing trace (live scheduler)");
    let mut config = RuntimeConfig::new(samples, chains);
    config.base.burn_in = burn_in;
    config.base.seed = args.seed;
    let tracer = Tracer::new();
    let run = Run::new(&SlowHierarchy, &config, &tracer, None, None);
    let rt = run.on(Placement::Pool(&Runtime::for_host()));
    let rt = rt.expect("a live run");
    println!(
        "run finished in {:.2}s on {} ranks, {} reassignments, {} steals, estimate {:.3}",
        rt.report.elapsed,
        rt.report.n_ranks,
        rt.report.reassignments,
        rt.runtime.steals,
        rt.report.expectation()[0]
    );
    let (evals, burnins, serves) = span_counts(&tracer);
    println!("trace: {evals} evaluation spans, {burnins} burn-in spans, {serves} serve spans");
    write_output(&args.out_dir, "fig9_trace.csv", &tracer.to_csv());
    let trace = chrome_trace(&[("worker-pool", &tracer)]);
    write_output(&args.out_dir, "fig9_trace.json", &trace);
}
