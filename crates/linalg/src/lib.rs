//! # uq-linalg
//!
//! From-scratch numerical linear algebra kernels used by the parallel
//! multilevel MCMC stack: dense vectors/matrices with a Cholesky
//! factorization, CSR sparse matrices, a band LDLᵀ direct solve for
//! small SPD systems, conjugate gradients with an allocation-free
//! workspace-driven variant, a geometric multigrid V-cycle on
//! structured grids as its preconditioner, Gauss–Legendre quadrature
//! and scalar root finding.
//!
//! The crate is dependency-light by design (`parking_lot` for the
//! multigrid workspace lock) and every routine is exercised by unit and
//! property tests.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod banded;
pub mod dense;
pub mod mg;
pub mod prob;
pub mod quadrature;
pub mod roots;
pub mod solvers;
pub mod sparse;
pub mod vector;

pub use banded::{BandedSolver, NotPositiveDefinite};
pub use dense::DenseMatrix;
pub use mg::{GmgHierarchy, GmgLevelSpec};
pub use solvers::{cg, cg_into, IterativeResult, SolveStats, SolverOptions, SolverWorkspace};
pub use sparse::{CooMatrix, CsrMatrix};
