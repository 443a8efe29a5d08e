//! The model-agnostic sampling-problem interface.
//!
//! This is the Rust analogue of MUQ's `AbstractSamplingProblem` (paper
//! Fig. 6): a target density up to a constant, plus an optional quantity of
//! interest that is evaluated only for kept states something reads —
//! discarded MCMC proposals, burn-in and the intermediate states of a
//! coarse serve never pay for a QOI evaluation, which matters when the QOI
//! requires post-processing a PDE solution. A `qoi(θ)` may therefore come
//! at any time after the `log_density(θ)` of the same problem, with other
//! evaluations in between.

/// A target distribution to sample from, with an optional quantity of
/// interest (QOI) at the same parameters.
///
/// Both calls take `&mut self` so an implementation may keep scratch
/// buffers across them. What the drivers (`mh_transition` / `mh_step`,
/// `SamplingState::initial`, the chains of this crate and of `uq-mlmcmc`)
/// guarantee: each of their `qoi(θ)` calls is for a θ whose
/// `log_density(θ)` some instance of the same level's problem evaluated
/// earlier — at any time after it, with other evaluations in between —
/// and only for a starting point or for a state something reads (a
/// recorded sample, a correction, a checkpoint). The vector is then
/// carried in the chain state or the coarse sample and shared from there;
/// no driver asks for it a second time. That instance need not be this
/// one: a multilevel requester fills the QOI of a coarse sample another
/// chain served on its own copy of the level below's problem. So `qoi`
/// must be a function of θ alone — not of which `log_density` came last,
/// nor of which instance computes it — as every in-tree problem's is.
pub trait SamplingProblem: Send {
    /// Parameter-space dimension.
    fn dim(&self) -> usize;

    /// Log target density (up to an additive constant) at `theta`.
    ///
    /// Return `f64::NEG_INFINITY` for unphysical parameters — the kernel
    /// then rejects the proposal outright (the paper's tsunami model does
    /// this for displacements on dry land).
    ///
    /// Like [`qoi`](Self::qoi), a function of θ alone: a chain state
    /// carries the density it was evaluated at, and a multilevel step
    /// whose proposal is the chain's own point takes that density instead
    /// of evaluating again. A model that warm-starts an iterative solver
    /// (the Poisson MG-CG levels) agrees with itself to the solver's
    /// tolerance, which is as far as such a model is a function of θ.
    fn log_density(&mut self, theta: &[f64]) -> f64;

    /// Quantity of interest at `theta`. Default: the parameter itself
    /// (the tsunami application's choice).
    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        theta.to_vec()
    }

    /// Dimension of the QOI vector.
    fn qoi_dim(&self) -> usize {
        self.dim()
    }
}

/// A simple analytic problem: iid Gaussian target `N(mean, sd² I)`.
///
/// Used throughout the test-suites as a ground-truth target.
#[derive(Clone, Debug)]
pub struct GaussianTarget {
    pub mean: Vec<f64>,
    pub sd: f64,
}

impl GaussianTarget {
    pub fn new(mean: Vec<f64>, sd: f64) -> Self {
        assert!(sd > 0.0, "GaussianTarget: sd must be positive");
        Self { mean, sd }
    }

    /// Standard normal in `dim` dimensions.
    pub fn standard(dim: usize) -> Self {
        Self::new(vec![0.0; dim], 1.0)
    }
}

impl SamplingProblem for GaussianTarget {
    fn dim(&self) -> usize {
        self.mean.len()
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        uq_linalg::prob::isotropic_gaussian_logpdf(theta, &self.mean, self.sd)
    }
}

/// A bimodal 1-D mixture target, handy for stress-testing proposals.
#[derive(Clone, Debug)]
pub struct BimodalTarget {
    pub separation: f64,
    pub sd: f64,
}

impl SamplingProblem for BimodalTarget {
    fn dim(&self) -> usize {
        1
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        let a = uq_linalg::prob::normal_logpdf(theta[0], -self.separation, self.sd);
        let b = uq_linalg::prob::normal_logpdf(theta[0], self.separation, self.sd);
        // log(0.5 e^a + 0.5 e^b) via log-sum-exp
        let m = a.max(b);
        m + ((a - m).exp() + (b - m).exp()).ln() - std::f64::consts::LN_2
    }
}

/// Wrap a closure as a [`SamplingProblem`] — the quickest way to couple a
/// user model, mirroring how MUQ lets arbitrary callables act as densities.
pub struct FnProblem<F: FnMut(&[f64]) -> f64 + Send> {
    dim: usize,
    f: F,
}

impl<F: FnMut(&[f64]) -> f64 + Send> FnProblem<F> {
    pub fn new(dim: usize, f: F) -> Self {
        Self { dim, f }
    }
}

impl<F: FnMut(&[f64]) -> f64 + Send> SamplingProblem for FnProblem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        (self.f)(theta)
    }
}

impl SamplingProblem for Box<dyn SamplingProblem> {
    fn dim(&self) -> usize {
        self.as_ref().dim()
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        self.as_mut().log_density(theta)
    }
    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        self.as_mut().qoi(theta)
    }
    fn qoi_dim(&self) -> usize {
        self.as_ref().qoi_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_target_density_peaks_at_mean() {
        let mut t = GaussianTarget::new(vec![1.0, 2.0], 0.5);
        let at_mean = t.log_density(&[1.0, 2.0]);
        let off = t.log_density(&[1.5, 2.0]);
        assert!(at_mean > off);
    }

    #[test]
    fn default_qoi_is_identity() {
        let mut t = GaussianTarget::standard(3);
        assert_eq!(t.qoi(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(t.qoi_dim(), 3);
    }

    #[test]
    fn bimodal_is_symmetric() {
        let mut t = BimodalTarget {
            separation: 2.0,
            sd: 0.5,
        };
        let a = t.log_density(&[1.3]);
        let b = t.log_density(&[-1.3]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn fn_problem_wraps_closure() {
        let mut p = FnProblem::new(2, |th: &[f64]| -(th[0] * th[0] + th[1] * th[1]));
        assert_eq!(p.dim(), 2);
        assert_eq!(p.log_density(&[1.0, 1.0]), -2.0);
    }
}
