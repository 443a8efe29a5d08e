//! Single-chain MCMC driver — the analogue of MUQ's `SingleChainMCMC`.

use crate::kernel::{mh_transition, SamplingState};
use crate::problem::SamplingProblem;
use crate::proposal::Proposal;
use rand::Rng;

/// Burn-in and thinning controls.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig {
    /// Steps discarded before samples are recorded.
    pub burn_in: usize,
    /// Keep every `thin`-th post-burn-in state (1 = keep all).
    pub thin: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        Self {
            burn_in: 0,
            thin: 1,
        }
    }
}

impl ChainConfig {
    pub fn with_burn_in(burn_in: usize) -> Self {
        Self { burn_in, thin: 1 }
    }
}

/// A Metropolis–Hastings chain over a [`SamplingProblem`].
///
/// The chain owns its problem and proposal; step-by-step execution
/// (`step`) is exposed so the multilevel controllers can interleave chains
/// on different levels, and `run` drives a fixed number of recorded
/// samples for the single-level use-case.
pub struct Chain<P: SamplingProblem, Q: Proposal> {
    problem: P,
    proposal: Q,
    config: ChainConfig,
    state: SamplingState,
    /// Recorded (post-burn-in, thinned) parameter samples.
    samples: Vec<Vec<f64>>,
    /// QOI values aligned with `samples`.
    qois: Vec<Vec<f64>>,
    steps_taken: usize,
    accepted: usize,
}

impl<P: SamplingProblem, Q: Proposal> Chain<P, Q> {
    /// Create a chain starting at `theta0` (evaluates the model once).
    pub fn new(mut problem: P, proposal: Q, theta0: Vec<f64>, config: ChainConfig) -> Self {
        assert_eq!(theta0.len(), problem.dim(), "Chain: wrong start dimension");
        assert!(config.thin >= 1, "Chain: thin must be >= 1");
        let state = SamplingState::initial(&mut problem, theta0);
        Self {
            problem,
            proposal,
            config,
            state,
            samples: Vec::new(),
            qois: Vec::new(),
            steps_taken: 0,
            accepted: 0,
        }
    }

    /// Advance one step; records the state if past burn-in and on the
    /// thinning stride — the only states whose QOI is evaluated. Returns
    /// whether the proposal was accepted.
    pub fn step(&mut self, rng: &mut dyn Rng) -> bool {
        let accepted = mh_transition(&mut self.problem, &mut self.proposal, &mut self.state, rng);
        self.steps_taken += 1;
        self.accepted += accepted as usize;
        if self.steps_taken > self.config.burn_in
            && (self.steps_taken - self.config.burn_in - 1).is_multiple_of(self.config.thin)
        {
            self.samples.push(self.state.theta.clone());
            self.qois
                .push(self.state.fill_qoi(&mut self.problem).to_vec());
        }
        accepted
    }

    /// Run until `n_samples` post-burn-in samples are recorded.
    pub fn run(&mut self, n_samples: usize, rng: &mut dyn Rng) {
        while self.samples.len() < n_samples {
            self.step(rng);
        }
    }

    /// Current chain state (its QOI slot is filled at the starting point
    /// and at recorded states only).
    pub fn state(&self) -> &SamplingState {
        &self.state
    }

    /// Recorded parameter samples.
    pub fn samples(&self) -> &[Vec<f64>] {
        &self.samples
    }

    /// Recorded QOI values.
    pub fn qois(&self) -> &[Vec<f64>] {
        &self.qois
    }

    /// Fraction of accepted proposals over all steps taken.
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps_taken == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps_taken as f64
        }
    }

    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Trace of one parameter component across the recorded samples.
    pub fn component_trace(&self, k: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s[k]).collect()
    }

    /// Trace of one QOI component across the recorded samples.
    pub fn qoi_trace(&self, k: usize) -> Vec<f64> {
        self.qois.iter().map(|q| q[k]).collect()
    }

    /// Consume the chain, returning `(samples, qois)`.
    pub fn into_samples(self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        (self.samples, self.qois)
    }

    /// Access the wrapped problem (e.g. to read cached model output).
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Access the proposal (e.g. to inspect adaptation state).
    pub fn proposal(&self) -> &Q {
        &self.proposal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::GaussianTarget;
    use crate::proposal::GaussianRandomWalk;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_chain(burn_in: usize, thin: usize) -> Chain<GaussianTarget, GaussianRandomWalk> {
        Chain::new(
            GaussianTarget::new(vec![1.0], 0.8),
            GaussianRandomWalk::new(1.0),
            vec![0.0],
            ChainConfig { burn_in, thin },
        )
    }

    #[test]
    fn burn_in_discards_samples() {
        let mut c = make_chain(10, 1);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            c.step(&mut rng);
        }
        assert_eq!(c.samples().len(), 0);
        c.step(&mut rng);
        assert_eq!(c.samples().len(), 1);
    }

    #[test]
    fn thinning_strides_samples() {
        let mut c = make_chain(0, 5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..21 {
            c.step(&mut rng);
        }
        // recorded at steps 1, 6, 11, 16, 21
        assert_eq!(c.samples().len(), 5);
    }

    #[test]
    fn run_reaches_target_count() {
        let mut c = make_chain(100, 2);
        let mut rng = StdRng::seed_from_u64(2);
        c.run(50, &mut rng);
        assert_eq!(c.samples().len(), 50);
        assert!(c.steps_taken() >= 100 + 50);
    }

    #[test]
    fn chain_recovers_target_moments() {
        let mut c = make_chain(500, 1);
        let mut rng = StdRng::seed_from_u64(3);
        c.run(40_000, &mut rng);
        let trace = c.component_trace(0);
        let mean = stats::mean(&trace);
        let sd = stats::variance(&trace).sqrt();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((sd - 0.8).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn qoi_trace_matches_identity_default() {
        let mut c = make_chain(0, 1);
        let mut rng = StdRng::seed_from_u64(4);
        c.run(100, &mut rng);
        assert_eq!(c.samples(), c.qois());
    }

    #[test]
    fn acceptance_rate_in_sane_band() {
        let mut c = make_chain(0, 1);
        let mut rng = StdRng::seed_from_u64(5);
        c.run(5000, &mut rng);
        let r = c.acceptance_rate();
        assert!(r > 0.2 && r < 0.9, "rate {r}");
    }
}
