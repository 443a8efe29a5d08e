//! The tight-ridge two-level Gaussian hierarchy (fine `N(0.35, 0.12²)`,
//! coarse `N(0, 0.15²)`, `ρ = 2`, random-walk proposal of width 0.2):
//! the fixture of the ledger, bias, sequential-golden, checkpoint, net,
//! service and obs suites and of the conformance matrix, included by
//! `#[path]`.

// every suite uses its own subset of the constants
#![allow(dead_code)]

use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{levels_digest, Placement, Run, Runtime, RuntimeConfig, Tracer};

pub const COARSE_MEAN: f64 = 0.0;
pub const COARSE_SD: f64 = 0.15;
pub const FINE_MEAN: f64 = 0.35;
pub const FINE_SD: f64 = 0.12;
pub const RHO: usize = 2;

pub struct Ridge;

struct Target {
    mean: f64,
    sd: f64,
}

impl SamplingProblem for Target {
    fn dim(&self) -> usize {
        1
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
    }
}

impl LevelFactory for Ridge {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(Target {
            mean: [COARSE_MEAN, FINE_MEAN][level],
            sd: [COARSE_SD, FINE_SD][level],
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.2))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        RHO
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// The ridge's deterministic regime: one chain per level, burn-in
/// `[30, 20]`, load balancing off, recording on. Its digest is the same on
/// every placement.
pub fn deterministic(n0: usize, n1: usize, seed: u64) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(vec![n0, n1], vec![1, 1]);
    config.base.burn_in = vec![30, 20];
    config.base.seed = seed;
    config.base.load_balancing = false;
    config.base.record_samples = true;
    config.n_workers = 1;
    config
}

/// The digest of `config` run on one worker: what every placement of it
/// reproduces (the conformance matrix).
pub fn pool_digest(config: &RuntimeConfig) -> u64 {
    let off = Tracer::disabled();
    let run = Run::new(&Ridge, config, &off, None, None);
    let run = run
        .on(Placement::Pool(&Runtime::new(1)))
        .expect("a live run");
    levels_digest(&run.report.levels)
}
