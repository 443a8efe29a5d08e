//! The Bayesian inverse problem for the Poisson model as a
//! [`uq_mcmc::SamplingProblem`], plus the paper's three-level hierarchy.
//!
//! Likelihood: `y | θ ~ N(F(θ), σ_F² I)` with `σ_F = 0.01`; prior
//! `θ ~ N(0, 4I)`; synthetic data generated from a fixed draw
//! `θ̂ ~ N(0, I)` (the paper's deliberate "inverse crime", Sec. 3.1).

use crate::poisson::{MeshParts, PoissonModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_linalg::prob::{centered_gaussian_logpdf, isotropic_gaussian_logpdf, standard_normal_vec};
use uq_mcmc::SamplingProblem;
use uq_randfield::KlField2d;

/// Paper constants for the Poisson application.
pub mod constants {
    /// Measurement noise standard deviation `σ_F`.
    pub const SIGMA_F: f64 = 0.01;
    /// Prior standard deviation (`π = N(0, 4I)` ⇒ sd 2).
    pub const PRIOR_SD: f64 = 2.0;
    /// KL truncation dimension.
    pub const PARAM_DIM: usize = 113;
    /// Random-field correlation length.
    pub const CORR_LEN: f64 = 0.15;
    /// Random-field variance.
    pub const FIELD_VARIANCE: f64 = 1.0;
    /// Mesh resolutions (elements per direction) of levels 0, 1, 2.
    pub const LEVEL_N: [usize; 3] = [16, 64, 256];
    /// Seed for the synthetic "true" parameter `θ̂ ~ N(0, I)`.
    pub const TRUTH_SEED: u64 = 20210730;
}

/// Bayesian inverse problem on one level of the hierarchy.
pub struct PoissonProblem {
    model: PoissonModel,
    data: Vec<f64>,
    sigma_f: f64,
    prior_sd: f64,
}

impl PoissonProblem {
    /// Wrap a model with measurement data.
    pub fn new(model: PoissonModel, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            model.observation_points().len(),
            "PoissonProblem: one datum per observation point"
        );
        Self {
            model,
            data,
            sigma_f: constants::SIGMA_F,
            prior_sd: constants::PRIOR_SD,
        }
    }

    pub fn model(&self) -> &PoissonModel {
        &self.model
    }

    pub fn model_mut(&mut self) -> &mut PoissonModel {
        &mut self.model
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Log-likelihood `log N(y; F(θ), σ_F² I)` — one PDE solve.
    pub fn log_likelihood(&mut self, theta: &[f64]) -> f64 {
        let prediction = self.model.forward_in_place(theta);
        isotropic_gaussian_logpdf(&self.data, prediction, self.sigma_f)
    }

    /// Log-prior `log N(θ; 0, prior_sd² I)`.
    pub fn log_prior(&self, theta: &[f64]) -> f64 {
        centered_gaussian_logpdf(theta, self.prior_sd)
    }
}

impl SamplingProblem for PoissonProblem {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        self.log_prior(theta) + self.log_likelihood(theta)
    }

    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        self.model.qoi(theta)
    }

    fn qoi_dim(&self) -> usize {
        crate::poisson::paper_qoi_points().len()
    }
}

/// The paper's three-level Poisson hierarchy (mesh widths 1/16, 1/64,
/// 1/256) sharing one KL field, one synthetic truth and one data vector.
///
/// Everything θ-independent is built here once and handed to every
/// model by `Arc`: the KL field on each distinct mesh's element centres
/// (its 1-D tables, or on the smallest meshes a tabulated basis), its
/// tables on the QOI grid, and each distinct mesh size's
/// [`StiffnessPattern`](crate::StiffnessPattern) — a band-solved level
/// and a multigrid coarse level of the same `n` share one. A
/// [`problem`](Self::problem) builds only its solver's own matrices,
/// band factorisation or multigrid levels, and scratch: at `m = 113` it
/// measured 0.015–0.03 ms at `n = 16`, 0.06–0.11 ms at `n = 32` and
/// 0.18–0.34 ms at `n = 64` (x86-64, release build, best of 7 in three
/// runs; the range is the host's drift), where building its own
/// patterns cost 0.2 / 0.9 / 6 ms. `new` itself (`m = 113`, `n = 16,
/// 32, 64`) measured 10–18 ms, the patterns of `n = 64, 32, 16, 8` and
/// the data solve included.
pub struct PoissonHierarchy {
    field: KlField2d,
    truth: Vec<f64>,
    data: Vec<f64>,
    /// The shared parts of each level's models, coarse to fine.
    levels: Vec<MeshParts>,
}

impl PoissonHierarchy {
    /// Build the full paper setup (`m = 113`, levels 16/64/256). Synthetic
    /// data is generated **on the finest level** from `θ̂ ~ N(0, I)`.
    pub fn paper() -> Self {
        Self::new(
            constants::PARAM_DIM,
            constants::LEVEL_N.to_vec(),
            constants::TRUTH_SEED,
        )
    }

    /// Scaled-down hierarchy for tests and CI-sized experiments.
    pub fn new(param_dim: usize, level_n: Vec<usize>, truth_seed: u64) -> Self {
        assert!(
            !level_n.is_empty(),
            "PoissonHierarchy: need at least one level"
        );
        let field = KlField2d::new(constants::CORR_LEN, constants::FIELD_VARIANCE, param_dim);
        let mut rng = StdRng::seed_from_u64(truth_seed);
        let truth = standard_normal_vec(&mut rng, param_dim);
        let levels = MeshParts::build(&field, &level_n);
        let data = PoissonModel::from_parts(levels.last().expect("a level")).forward(&truth);
        Self {
            field,
            truth,
            data,
            levels,
        }
    }

    /// Number of levels `L + 1`.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Stochastic dimension `m`.
    pub fn dim(&self) -> usize {
        self.truth.len()
    }

    /// The synthetic "true" KL coefficients `θ̂`.
    pub fn truth(&self) -> &[f64] {
        &self.truth
    }

    /// The noiseless synthetic data vector `y = F_L(θ̂)`.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn field(&self) -> &KlField2d {
        &self.field
    }

    /// Build the sampling problem for level `l` (fresh model instance, so
    /// independent chains/workers can own one each; the KL tables and
    /// the stiffness patterns are shared, each worker only builds its own
    /// solver pipeline and warm-start state).
    pub fn problem(&self, level: usize) -> PoissonProblem {
        PoissonProblem::new(
            PoissonModel::from_parts(&self.levels[level]),
            self.data.clone(),
        )
    }

    /// The true QOI field `κ(x_k, θ̂)` on the QOI grid (for Fig. 10-style
    /// recovery-error reporting), from the QOI tables alone.
    pub fn true_qoi(&self) -> Vec<f64> {
        self.levels[0].qoi(&self.truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> PoissonHierarchy {
        PoissonHierarchy::new(8, vec![4, 8, 16], 1234)
    }

    #[test]
    fn posterior_peaks_near_truth() {
        let h = tiny_hierarchy();
        let mut p = h.problem(2);
        let at_truth = p.log_density(h.truth());
        // random other points should have (much) lower posterior density
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let other = standard_normal_vec(&mut rng, h.dim());
            let off = p.log_density(&other);
            assert!(at_truth > off, "posterior at truth {at_truth} vs {off}");
        }
    }

    #[test]
    fn likelihood_at_truth_on_finest_is_noiseless_max() {
        let h = tiny_hierarchy();
        let mut p = h.problem(2);
        // data was generated on level 2 with zero noise: residual is zero
        let ll = p.log_likelihood(h.truth());
        let max_ll = isotropic_gaussian_logpdf(
            &vec![0.0; p.data().len()],
            &vec![0.0; p.data().len()],
            constants::SIGMA_F,
        );
        assert!((ll - max_ll).abs() < 1e-3, "ll {ll} vs max {max_ll}");
    }

    #[test]
    fn coarse_levels_approximate_fine_likelihood() {
        let h = tiny_hierarchy();
        let theta = h.truth().to_vec();
        let mut l1 = h.problem(1);
        let mut l2 = h.problem(2);
        // coarse prediction differs from fine, but not wildly (κ smooth-ish)
        let p1 = l1.model_mut().forward(&theta);
        let p2 = l2.model_mut().forward(&theta);
        let diff = uq_linalg::vector::max_abs_diff(&p1, &p2);
        assert!(diff < 0.05, "levels should roughly agree, diff = {diff}");
        assert!(diff > 0.0);
    }

    #[test]
    fn qoi_dimension_is_qoi_grid() {
        let h = tiny_hierarchy();
        let mut p = h.problem(0);
        assert_eq!(p.qoi(&[0.0; 8]).len(), 1089);
        assert_eq!(p.qoi_dim(), 1089);
    }

    #[test]
    fn hierarchy_shares_data_across_levels() {
        let h = tiny_hierarchy();
        let p0 = h.problem(0);
        let p2 = h.problem(2);
        assert_eq!(p0.data(), p2.data());
    }

    #[test]
    fn log_prior_is_gaussian() {
        let h = tiny_hierarchy();
        let p = h.problem(0);
        let theta = vec![0.0; 8];
        let expect = isotropic_gaussian_logpdf(&theta, &theta, constants::PRIOR_SD);
        assert!((p.log_prior(&theta) - expect).abs() < 1e-13);
    }
}

/// Coarsest-level proposal choice for [`PoissonFactory`].
///
/// The paper sets "a Gaussian proposal `N(0, 3I)`" on the coarsest level;
/// we default to preconditioned Crank–Nicolson (dimension-robust for the
/// 113-dimensional KL prior) and also provide the random-walk,
/// independence and Adaptive Metropolis variants for the proposal
/// ablation study.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProposalKind {
    /// pCN with the given `β` against the `N(0, 4I)` prior.
    Pcn { beta: f64 },
    /// Isotropic Gaussian random walk with step `sd`.
    RandomWalk { sd: f64 },
    /// Independence sampler `N(0, sd² I)` (the paper's literal reading).
    Independence { sd: f64 },
    /// Haario Adaptive Metropolis (initial step `sd`, adapt every 100).
    AdaptiveMetropolis { sd: f64 },
}

/// [`uq_mlmcmc::LevelFactory`] for the Poisson hierarchy.
pub struct PoissonFactory {
    hierarchy: PoissonHierarchy,
    /// Coarsest-level proposal.
    pub proposal_kind: ProposalKind,
    /// Subsampling rates `ρ_l` (length ≥ levels − 1).
    pub subsampling: Vec<usize>,
}

impl PoissonFactory {
    /// Wrap a hierarchy with the paper's Table-3 subsampling rates and
    /// the default pCN coarsest proposal.
    pub fn new(hierarchy: PoissonHierarchy, subsampling: Vec<usize>) -> Self {
        Self {
            hierarchy,
            proposal_kind: ProposalKind::Pcn { beta: 0.08 },
            subsampling,
        }
    }

    pub fn hierarchy(&self) -> &PoissonHierarchy {
        &self.hierarchy
    }
}

impl uq_mlmcmc::LevelFactory for PoissonFactory {
    fn n_levels(&self) -> usize {
        self.hierarchy.n_levels()
    }

    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(self.hierarchy.problem(level))
    }

    fn proposal(&self, _level: usize) -> Box<dyn uq_mcmc::Proposal> {
        let dim = self.hierarchy.dim();
        match self.proposal_kind {
            ProposalKind::Pcn { beta } => Box::new(uq_mcmc::PcnProposal::new(
                beta,
                vec![0.0; dim],
                constants::PRIOR_SD,
            )),
            ProposalKind::RandomWalk { sd } => Box::new(uq_mcmc::GaussianRandomWalk::new(sd)),
            ProposalKind::Independence { sd } => {
                Box::new(uq_mcmc::IndependenceProposal::isotropic(vec![0.0; dim], sd))
            }
            ProposalKind::AdaptiveMetropolis { sd } => {
                Box::new(uq_mcmc::AdaptiveMetropolis::new(dim, sd, 100))
            }
        }
    }

    fn subsampling_rate(&self, level: usize) -> usize {
        self.subsampling.get(level).copied().unwrap_or(0)
    }

    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0; self.hierarchy.dim()]
    }
}

#[cfg(test)]
mod factory_tests {
    use super::*;
    use uq_mlmcmc::LevelFactory;

    #[test]
    fn factory_is_wired() {
        let h = PoissonHierarchy::new(6, vec![4, 8], 7);
        let f = PoissonFactory::new(h, vec![5]);
        assert_eq!(f.n_levels(), 2);
        assert_eq!(f.subsampling_rate(0), 5);
        assert_eq!(f.subsampling_rate(1), 0);
        assert_eq!(f.starting_point(1).len(), 6);
        let mut p = f.problem(0);
        assert!(p.log_density(&[0.0; 6]).is_finite());
    }

    #[test]
    fn sequential_mlmcmc_runs_on_poisson() {
        use rand::SeedableRng;
        let h = PoissonHierarchy::new(6, vec![4, 8], 7);
        let f = PoissonFactory::new(h, vec![3]);
        let config = uq_mlmcmc::MlmcmcConfig::new(vec![150, 40]).with_burn_in(vec![30, 10]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let report = uq_mlmcmc::run_sequential(&f, &config, &mut rng);
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.levels[0].n_samples, 150);
        let est = report.expectation();
        assert_eq!(est.len(), 1089);
        assert!(est.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
