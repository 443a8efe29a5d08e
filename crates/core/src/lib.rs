//! # uq-mlmcmc
//!
//! The paper's primary contribution in library form: multilevel Markov
//! chain Monte Carlo (Dodwell et al. 2015/2019, paper Algorithm 2) with
//! the model-agnostic factory interface of MUQ's `MIComponentFactory`.
//!
//! * [`factory::LevelFactory`] — supplies per-level sampling problems,
//!   proposals, subsampling rates and starting points (paper Fig. 7);
//! * [`coupled`] — the two-level coupled transition kernel: coarse-chain
//!   states become fine-chain proposals, with the corrected acceptance
//!   probability of Algorithm 2. A coupled step suspends for its coarse
//!   proposal, served by the sequential [`ChainStack`] or, in
//!   `uq-parallel`, through the phonebook — both drive one ledger serve;
//! * [`estimator`] — the telescoping-sum estimator (paper eq. 2) with
//!   per-level moments, autocorrelation and cost bookkeeping, and the
//!   sequential driver reproducing Tables 3 and 4 (one plain sampling
//!   loop);
//! * [`ledger`] — the per-requester rewind ledger: sessions whose
//!   proposal track rewinds to the requester's anchor (fine-marginal
//!   exactness) while an autonomous pairing track continues from the
//!   last served sample (unbiased `π_{l-1}` correction mate), executed
//!   identically by the sequential stack and the parallel phonebooks;
//! * [`allocate`] — the weighted max-min fair split of worker slots
//!   that the multi-tenant service gives its running jobs;
//! * [`counting`] — the one factory decorator (every `log_density`
//!   of level `l` goes through a hook) and its counting hook: model
//!   evaluations and wall-clock cost per level (the `t_l` columns);
//! * [`wire`] — the one wire layer: the binary codec (LE ints, `f64`
//!   via `to_bits`, length-validated decodes), each wire type's layout
//!   declared once ([`codec!`]), and the framer that the run store's
//!   snapshot files and `uq_parallel`'s socket frames share;
//! * [`store`] — the content-addressed run store: versioned,
//!   integrity-checked snapshots of a parallel run's consistent cut
//!   (chains, collectors, ledger sessions, RNG streams) enabling
//!   bit-identical checkpoint/resume, indexed by an append-only list
//!   of their names.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod allocate;
pub mod counting;
pub mod coupled;
pub mod estimator;
pub mod factory;
pub mod ledger;
pub mod store;
pub mod wire;

pub use coupled::{ChainStack, CoarseSample, MlChain, StepOutcome};
pub use estimator::{run_sequential, LevelReport, MlmcmcConfig, MlmcmcReport};
pub use factory::LevelFactory;
pub use ledger::{LedgerBook, LedgerLease, LedgerStats, PairingMode};
pub use store::{RunSnapshot, RunStore, StoreError};
