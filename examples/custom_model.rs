//! Coupling your own forward model — the paper's model-agnosticity story.
//!
//! This example builds a small nonlinear ODE model (logistic growth with
//! an uncertain rate and capacity, observed at a few times), defines a
//! two-level hierarchy by time-step refinement, and runs both the
//! sequential estimator and the **parallel scheduler** (root / phonebook /
//! collectors / controllers on a worker pool) on it.
//!
//! ```sh
//! cargo run --release --example custom_model
//! ```

use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::{GaussianRandomWalk, Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{run_parallel, ParallelConfig, Tracer};

/// Forward model: logistic growth `u' = r u (1 - u/K)`, `u(0) = 0.1`,
/// integrated with explicit Euler at the level's time step and observed
/// at t = 1, 2, 3.
fn forward(theta: &[f64], dt: f64) -> Vec<f64> {
    let (r, k) = (theta[0], theta[1]);
    let mut u: f64 = 0.1;
    let mut t = 0.0;
    let mut obs = Vec::with_capacity(3);
    let mut next_obs = 1.0;
    while obs.len() < 3 {
        u += dt * r * u * (1.0 - u / k);
        t += dt;
        if t + 1e-12 >= next_obs {
            obs.push(u);
            next_obs += 1.0;
        }
    }
    obs
}

/// Bayesian problem: Gaussian likelihood around synthetic data, flat-ish
/// Gaussian prior, rate/capacity must stay positive.
struct LogisticProblem {
    dt: f64,
    data: Vec<f64>,
}

impl SamplingProblem for LogisticProblem {
    fn dim(&self) -> usize {
        2
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        if theta[0] <= 0.0 || theta[1] <= 0.0 {
            return f64::NEG_INFINITY; // unphysical
        }
        let prediction = forward(theta, self.dt);
        let log_prior = isotropic_gaussian_logpdf(theta, &[1.0, 1.0], 2.0);
        log_prior + isotropic_gaussian_logpdf(&prediction, &self.data, 0.05)
    }
}

/// The hierarchy: coarse level integrates with dt = 0.2, fine with 0.01.
struct LogisticHierarchy {
    data: Vec<f64>,
}

impl LogisticHierarchy {
    fn new() -> Self {
        // synthetic truth: r = 1.3, K = 1.8, data from the fine model
        Self {
            data: forward(&[1.3, 1.8], 0.01),
        }
    }
}

impl LevelFactory for LogisticHierarchy {
    fn n_levels(&self) -> usize {
        2
    }

    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(LogisticProblem {
            dt: [0.2, 0.01][level],
            data: self.data.clone(),
        })
    }

    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.08))
    }

    fn subsampling_rate(&self, level: usize) -> usize {
        if level == 0 {
            6
        } else {
            0
        }
    }

    fn starting_point(&self, _level: usize) -> Vec<f64> {
        // start near the coarse MAP (in practice: a cheap pilot
        // optimization) so burn-in is short. Since PR 4 the phonebook
        // serves through the per-requester rewind ledger — proposals
        // walk from each chain's own anchor, so even a start far outside
        // the posterior bulk mixes at the normal coupled acceptance rate
        // (tests/ledger_exactness.rs pins this on a tighter ridge)
        vec![1.3, 1.8]
    }
}

fn main() {
    let hierarchy = LogisticHierarchy::new();

    // --- sequential reference ---
    let config = uq_mlmcmc::MlmcmcConfig::new(vec![8_000, 1_500]).with_burn_in(vec![500, 100]);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let seq = uq_mlmcmc::run_sequential(&hierarchy, &config, &mut rng);
    let est = seq.expectation();
    println!(
        "sequential estimate:  r = {:.3}, K = {:.3}  (truth: 1.300, 1.800)",
        est[0], est[1]
    );

    // --- the parallel scheduler on the same factory, unchanged ---
    let mut pconfig = ParallelConfig::new(vec![8_000, 1_500], vec![2, 2]);
    pconfig.burn_in = vec![500, 100];
    let par = run_parallel(&hierarchy, &pconfig, &Tracer::disabled());
    let pest = par.expectation();
    println!(
        "parallel estimate:    r = {:.3}, K = {:.3}  ({} ranks, {:.2} s, {} model evals)",
        pest[0],
        pest[1],
        par.n_ranks,
        par.elapsed,
        par.total_evaluations()
    );
    assert!((est[0] - pest[0]).abs() < 0.2 && (est[1] - pest[1]).abs() < 0.2);
}
