//! Hierarchies of isotropic Gaussians under a random-walk proposal, each
//! chain starting at the origin: the three-level fixtures of the
//! conformance matrix and `parallel_vs_sequential`, included by `#[path]`.

// every suite uses its own subset of the fixtures
#![allow(dead_code)]

use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;

pub struct Gaussians {
    /// `(mean, sd)` of each level, coarsest first.
    pub levels: &'static [(&'static [f64], f64)],
    /// Width of the random-walk proposal on every level.
    pub step: f64,
    /// Subsampling rate of each level.
    pub rho: &'static [usize],
}

/// Three 2-d levels converging on `N((1, -1), 0.5² I)`, `ρ = (20, 12)`.
pub const PLANE: Gaussians = Gaussians {
    levels: &[
        (&[0.5, -0.4], 0.7),
        (&[0.9, -0.9], 0.55),
        (&[1.0, -1.0], 0.5),
    ],
    step: 0.7,
    rho: &[20, 12, 0],
};

/// The targets of the statistical comparisons on [`PLANE`]: runs whose
/// chains interleave differently every time, so their estimates are
/// random draws. At the fixed tolerances (0.15 between two runs, 0.12 to
/// the truth) these counts put one standard deviation of those draws at
/// 0.03–0.04 (40 runs), about four to the tolerance; at 20–25 k /
/// 2.5–3 k / 600–800 the between-runs check sat at two and failed 3 runs
/// in 60 on a loaded 2-vCPU host.
pub const PLANE_SAMPLES: &[usize] = &[40_000, 6_000, 2_400];

/// Three 1-d levels converging on `N(1, 0.5²)`, `ρ = 3`.
pub const THREE_LEVELS: Gaussians = Gaussians {
    levels: &[(&[0.6], 0.65), (&[0.9], 0.55), (&[1.0], 0.5)],
    step: 0.8,
    rho: &[3, 3, 3],
};

impl LevelFactory for Gaussians {
    fn n_levels(&self) -> usize {
        self.levels.len()
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        let (mean, sd) = self.levels[level];
        Box::new(GaussianTarget::new(mean.to_vec(), sd))
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(self.step))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        self.rho[level]
    }
    fn starting_point(&self, level: usize) -> Vec<f64> {
        vec![0.0; self.levels[level].0.len()]
    }
}
