//! # uq-mcmc
//!
//! Single-chain Markov chain Monte Carlo building blocks, mirroring the MUQ
//! sampling stack the paper builds on:
//!
//! * [`problem::SamplingProblem`] — the model-agnostic interface
//!   (`LogDensity` + optional quantity of interest), the Rust analogue of
//!   MUQ's `AbstractSamplingProblem` (paper Fig. 6);
//! * [`proposal`] — Gaussian random walk, preconditioned Crank–Nicolson,
//!   Haario-style Adaptive Metropolis (used on the tsunami's coarsest
//!   level), and independence proposals;
//! * [`kernel`] — the Metropolis–Hastings transition kernel (paper Alg. 1);
//! * [`chain`] — a `SingleChainMCMC` driver with burn-in/thinning and
//!   acceptance accounting;
//! * [`stats`] — integrated autocorrelation time (Sokal windowing),
//!   effective sample size and mergeable streaming moments used by the
//!   distributed collectors.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod chain;
pub mod kernel;
pub mod problem;
pub mod proposal;
pub mod stats;

pub use chain::{Chain, ChainConfig};
pub use kernel::{mh_step, mh_transition, SamplingState};
pub use problem::SamplingProblem;
pub use proposal::{
    AdaptiveMetropolis, GaussianRandomWalk, IndependenceProposal, PcnProposal, Proposal,
};
