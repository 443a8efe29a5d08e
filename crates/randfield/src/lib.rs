//! # uq-randfield
//!
//! Gaussian random field generation for the Bayesian inverse problems in the
//! parallel MLMCMC reproduction. This crate replaces `dune-randomfield`
//! with one sampler, [`kl`]: the analytic Karhunen–Loève expansion of the
//! exponential covariance kernel on `[0, 1]` (transcendental eigenvalue
//! equations solved by bisection + Newton), tensorized to the 2-D
//! separable exponential kernel and truncated to the `m` largest modes,
//! and [`KlTensorGrid`], which evaluates that field on a tensor grid by
//! sum factorisation. The paper's Poisson model uses `m = 113` KL
//! coefficients.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod kl;

pub use kl::{Kl1d, KlField2d, KlTensorGrid};
