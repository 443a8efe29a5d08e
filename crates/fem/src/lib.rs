//! # uq-fem
//!
//! A from-scratch Q1 finite-element solver for the paper's Poisson
//! subsurface-flow model (the role DUNE plays in the original):
//!
//! * [`grid`] — structured quadrilateral grids on `[0, 1]²`;
//! * [`assembly`] — Q1 stiffness assembly for `-∇·(κ∇u) = 0` with
//!   element-wise constant `κ`, symmetric Dirichlet elimination
//!   (`u = 0` left, `u = 1` right, natural Neumann top/bottom);
//! * [`poisson`] — the forward model `θ ↦ u(x_obs)` with the KL-expanded
//!   log-normal diffusion field, solved by a band LDLᵀ on the small
//!   meshes and by warm-started multigrid-preconditioned CG above them;
//! * [`problem`] — the Bayesian inverse problem (Gaussian likelihood
//!   `N(F(θ), σ_F² I)`, prior `N(0, 4I)`) as a
//!   [`uq_mcmc::SamplingProblem`], plus the three-level hierarchy with
//!   mesh widths 1/16, 1/64, 1/256 used throughout the paper.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod assembly;
pub mod grid;
pub mod operator;
pub mod poisson;
pub mod problem;

pub use grid::StructuredGrid;
pub use operator::{StiffnessOperator, StiffnessPattern};
pub use poisson::PoissonModel;
pub use problem::{PoissonHierarchy, PoissonProblem};
