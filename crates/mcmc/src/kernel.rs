//! The Metropolis–Hastings transition kernel (paper Algorithm 1).

use crate::problem::SamplingProblem;
use crate::proposal::Proposal;
use rand::{Rng, RngExt};
use std::sync::Arc;

/// A point on the chain together with its cached log-density and QOI —
/// the analogue of MUQ's `SamplingState`.
#[derive(Clone, Debug)]
pub struct SamplingState {
    pub theta: Vec<f64>,
    pub log_density: f64,
    /// The QOI at `theta`, once something has read it: an accepted
    /// transition leaves the slot empty and the first read fills it
    /// ([`fill_qoi`](Self::fill_qoi)), so a state nobody reads never pays
    /// for one. Built once and never written again: every clone shares
    /// the allocation.
    pub qoi: Option<Arc<[f64]>>,
}

impl SamplingState {
    /// Evaluate the problem at `theta` to build an initial state.
    pub fn initial<P: SamplingProblem + ?Sized>(problem: &mut P, theta: Vec<f64>) -> Self {
        let log_density = problem.log_density(&theta);
        let qoi = Some(problem.qoi(&theta).into());
        Self {
            theta,
            log_density,
            qoi,
        }
    }

    /// The QOI at `theta`, evaluated on `problem` — the problem this
    /// state's density came from — if the slot is still empty.
    pub fn fill_qoi<P: SamplingProblem + ?Sized>(&mut self, problem: &mut P) -> &Arc<[f64]> {
        self.qoi
            .get_or_insert_with(|| problem.qoi(&self.theta).into())
    }
}

/// One Metropolis–Hastings transition of `state`, in place: propose,
/// compute `α = min(1, ν(θ')q(θ|θ') / ν(θ)q(θ'|θ))`, accept or reject. A
/// rejected step leaves the state untouched; an accepted one moves it to
/// the candidate and leaves its QOI slot empty. A proposal with
/// `log ν = -∞` (unphysical parameters) is always rejected.
///
/// Returns whether the proposal was accepted.
pub fn mh_transition<P, Q>(
    problem: &mut P,
    proposal: &mut Q,
    state: &mut SamplingState,
    rng: &mut dyn Rng,
) -> bool
where
    P: SamplingProblem + ?Sized,
    Q: Proposal + ?Sized,
{
    let cand = proposal.propose(&state.theta, rng);
    let cand_log_density = problem.log_density(&cand);
    let accepted = if cand_log_density == f64::NEG_INFINITY {
        false
    } else {
        let mut log_alpha = cand_log_density - state.log_density;
        if !proposal.is_symmetric() {
            log_alpha += proposal.log_density(&cand, &state.theta)
                - proposal.log_density(&state.theta, &cand);
        }
        log_alpha >= 0.0 || rng.random::<f64>().ln() < log_alpha
    };
    if accepted {
        *state = SamplingState {
            theta: cand,
            log_density: cand_log_density,
            qoi: None,
        };
    }
    proposal.adapt(&state.theta, accepted);
    accepted
}

/// One Metropolis–Hastings step from `current`: [`mh_transition`] on a
/// copy, with an accepted candidate's QOI evaluated.
///
/// Returns the new state and whether the proposal was accepted.
pub fn mh_step<P, Q>(
    problem: &mut P,
    proposal: &mut Q,
    current: &SamplingState,
    rng: &mut dyn Rng,
) -> (SamplingState, bool)
where
    P: SamplingProblem + ?Sized,
    Q: Proposal + ?Sized,
{
    let mut state = current.clone();
    let accepted = mh_transition(problem, proposal, &mut state, rng);
    state.fill_qoi(problem);
    (state, accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::GaussianTarget;
    use crate::proposal::GaussianRandomWalk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_state_caches_density_and_qoi() {
        let mut p = GaussianTarget::standard(2);
        let s = SamplingState::initial(&mut p, vec![0.5, -0.5]);
        assert_eq!(s.qoi, Some(vec![0.5, -0.5].into()));
        assert!((s.log_density - p.log_density(&[0.5, -0.5])).abs() < 1e-14);
    }

    #[test]
    fn rejected_step_keeps_state() {
        // an impossible target: only the initial point has mass
        struct Dirac;
        impl SamplingProblem for Dirac {
            fn dim(&self) -> usize {
                1
            }
            fn log_density(&mut self, theta: &[f64]) -> f64 {
                if theta[0] == 0.0 {
                    0.0
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
        let mut p = Dirac;
        let mut q = GaussianRandomWalk::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let init = SamplingState::initial(&mut p, vec![0.0]);
        for _ in 0..50 {
            let (s, acc) = mh_step(&mut p, &mut q, &init, &mut rng);
            assert!(!acc);
            assert_eq!(s.theta, vec![0.0]);
        }
    }

    #[test]
    fn an_accepted_transition_leaves_the_qoi_to_the_first_read() {
        let mut p = GaussianTarget::new(vec![1.0, -1.0], 0.7);
        let mut q = GaussianRandomWalk::new(0.9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = SamplingState::initial(&mut p, vec![0.0, 0.0]);
        let mut accepted = 0;
        for _ in 0..200 {
            let before = state.theta.clone();
            let acc = mh_transition(&mut p, &mut q, &mut state, &mut rng);
            assert_eq!(state.qoi.is_none(), acc);
            assert_eq!(state.theta == before, !acc);
            let qoi = state.fill_qoi(&mut p).to_vec();
            assert_eq!(qoi, state.theta);
            accepted += usize::from(acc);
        }
        assert!(accepted > 0 && accepted < 200, "{accepted}");
    }

    #[test]
    fn chain_of_steps_targets_gaussian() {
        let mut p = GaussianTarget::new(vec![2.0], 1.0);
        let mut q = GaussianRandomWalk::new(1.5);
        let mut rng = StdRng::seed_from_u64(123);
        let mut state = SamplingState::initial(&mut p, vec![0.0]);
        let mut acc_count = 0usize;
        let n = 60_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let (s, acc) = mh_step(&mut p, &mut q, &state, &mut rng);
            state = s;
            acc_count += acc as usize;
            sum += state.theta[0];
            sum2 += state.theta[0] * state.theta[0];
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
        let rate = acc_count as f64 / n as f64;
        assert!(rate > 0.2 && rate < 0.8, "acceptance rate {rate}");
    }

    #[test]
    fn asymmetric_proposal_correction_preserves_target() {
        // independence proposal with *wrong* center still targets N(0,1)
        // thanks to the Hastings correction
        use crate::proposal::IndependenceProposal;
        let mut p = GaussianTarget::standard(1);
        let mut q = IndependenceProposal::isotropic(vec![1.0], 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut state = SamplingState::initial(&mut p, vec![0.0]);
        let n = 80_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let (s, _) = mh_step(&mut p, &mut q, &state, &mut rng);
            state = s;
            sum += state.theta[0];
            sum2 += state.theta[0] * state.theta[0];
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }
}
