//! The two-level coupled transition kernel of multilevel MCMC
//! (paper Algorithm 2).
//!
//! A chain on level `l ≥ 1` draws its proposals from a *coarse-proposal
//! source* — the subsampled level-`l-1` chain — and accepts with
//!
//! ```text
//! α = min(1, [ν_l(θ') q_l(θ_F|θ'_F) ν_{l-1}(θ_C)] /
//!            [ν_l(θ)  q_l(θ'_F|θ_F) ν_{l-1}(θ'_C)])
//! ```
//!
//! where the `q_l` factors appear only when the parameter dimension grows
//! across levels (fine tail components).
//!
//! **Exactness and the rewind rule.** The simple acceptance ratio above
//! is the Hastings correction for the proposal kernel `K_{l-1}^ρ` (ρ
//! coarse steps) *started from the coarse state associated with the
//! current fine state*: by reversibility of the coarse kernel,
//! `K^ρ(θ_C → θ'_C) ν_{l-1}(θ_C) = K^ρ(θ'_C → θ_C) ν_{l-1}(θ'_C)`, so the
//! `K^ρ` densities cancel into the coarse density ratio. Every serve
//! therefore **rewinds** the coarse chain to the requester's anchor
//! before generating the proposal — letting the coarse chain run on from
//! a rejected proposal (the naive reading of Algorithm 2) leaves a bias
//! towards the coarse posterior, which our estimator tests detected.
//! Anchors are recursive: a coupled coarse chain carries its own anchor,
//! shipped inside [`CoarseSample::sub_anchor`]. Serving — sequential and
//! parallel alike — goes through the per-requester rewind ledger
//! ([`crate::ledger`]), which alongside each proposal also maintains the
//! requester's autonomous *pairing track* (continued from the last
//! served sample, marginal exactly `π_{l-1}`), piggybacked on
//! [`CoarseSample::mate`] for the unbiased estimator pairing.

use crate::factory::LevelFactory;
use crate::ledger::PairingMode;
use rand::Rng;
use std::sync::Arc;
use uq_mcmc::kernel::{mh_transition, SamplingState};
use uq_mcmc::{Proposal, SamplingProblem};

/// A state of the next-coarser chain, shipped with its cached log-density
/// and QOI so the fine chain never re-evaluates the coarse model, plus
/// the serving chain's own (recursive) anchor for exact rewinding.
#[derive(Clone, Debug, PartialEq)]
pub struct CoarseSample {
    pub theta: Vec<f64>,
    pub log_density: f64,
    /// Shared with the chain state it was packaged from, and with every
    /// clone of this sample.
    pub qoi: Arc<[f64]>,
    /// The serving chain's own coarse anchor at this state (`None` for
    /// level-0 chains and for remote/parallel sources).
    pub sub_anchor: Option<Box<CoarseSample>>,
    /// The ledger's pairing mate served alongside this proposal (`None`
    /// for sources without a ledger session): the state of the
    /// requester's autonomous coarse subchain, whose marginal is exactly
    /// `π_{l-1}` — see [`crate::ledger`]. Consumed by
    /// [`MlChain::resume_step`] into [`MlChain::last_pairing`].
    pub mate: Option<Box<CoarseSample>>,
}

impl CoarseSample {
    /// A sample carrying only cached values (no sub-anchor, no mate).
    pub fn plain(theta: Vec<f64>, log_density: f64, qoi: Vec<f64>) -> Self {
        Self {
            theta,
            log_density,
            qoi: qoi.into(),
            sub_anchor: None,
            mate: None,
        }
    }
}

/// Outcome of a (possibly non-blocking) coarse-proposal acquisition.
#[derive(Clone, Debug)]
pub enum CoarseAcquire {
    /// The proposal is available now (all in-process sources).
    Ready(CoarseSample),
    /// The source has initiated an external request and cannot produce
    /// the sample without suspending; the caller must obtain it out of
    /// band (e.g. from a phonebook message) and finish the step via
    /// [`MlChain::resume_step`].
    Pending,
}

/// The full logical state of an [`MlChain`] as plain data, for
/// checkpointing (see `uq_core::store`): sampling state, counters,
/// coupled bookkeeping, and — for sequential serving stacks — the
/// recursive [`SourceState`] of the owned coarse source. Everything a
/// freshly built chain needs to continue the run bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainState {
    pub steps: usize,
    pub accepted: usize,
    pub theta: Vec<f64>,
    pub log_density: f64,
    pub qoi: Arc<[f64]>,
    /// Coupled chains only: the coarse anchor of the current state.
    pub anchor: Option<CoarseSample>,
    /// Coupled chains only: the most recent step's coarse proposal.
    pub last_coarse: Option<CoarseSample>,
    /// Coupled chains only: the most recent step's pairing mate.
    pub last_pairing: Option<CoarseSample>,
    /// State of the coarse-proposal source, when it carries any
    /// (sequential [`ChainCoarseSource`] stacks; `None` for level-0
    /// chains and for remote/pending sources, whose state lives in the
    /// phonebook ledger).
    pub source: Option<Box<SourceState>>,
}

/// Checkpoint state of a [`ChainCoarseSource`]: its single-requester
/// ledger-session cursor plus the owned coarse chain, recursively.
#[derive(Clone, Debug, PartialEq)]
pub struct SourceState {
    /// `None` only if no serve has happened yet and the seed was never
    /// pinned (it would be drawn from the caller's RNG on first use).
    pub session_seed: Option<u64>,
    pub serves: u64,
    pub diverged_serves: u64,
    pub pairing: Option<CoarseSample>,
    pub chain: ChainState,
}

/// Where a coupled chain gets its coarse proposals from.
///
/// Sequential MLMCMC uses [`ChainCoarseSource`] (an in-process recursive
/// chain with the rewind rule); the parallel controllers in `uq-parallel`
/// use a purely pending source ([`PendingCoarseSource`]) so a controller
/// can suspend mid-step while its request travels via the phonebook.
pub trait CoarseProposalSource: Send {
    /// Begin acquiring the next coarse proposal. `anchor` is the coarse
    /// state associated with the requesting chain's current state; exact
    /// sequential sources rewind to it before advancing the subsampling
    /// stride, remote sources may ignore it. Blocking sources return
    /// [`CoarseAcquire::Ready`] directly; asynchronous sources return
    /// [`CoarseAcquire::Pending`] and the chain suspends mid-step.
    fn request_coarse(&mut self, rng: &mut dyn Rng, anchor: &CoarseSample) -> CoarseAcquire;

    /// Blocking convenience wrapper around
    /// [`request_coarse`](Self::request_coarse) for sources that always
    /// produce the sample in-line.
    ///
    /// # Panics
    /// Panics if the source is asynchronous (returns
    /// [`CoarseAcquire::Pending`]).
    fn next_coarse(&mut self, rng: &mut dyn Rng, anchor: &CoarseSample) -> CoarseSample {
        match self.request_coarse(rng, anchor) {
            CoarseAcquire::Ready(s) => s,
            CoarseAcquire::Pending => {
                panic!("next_coarse: asynchronous source requires MlChain::poll_step/resume_step")
            }
        }
    }

    /// Evaluate density, QOI and (recursively) the sub-anchor at an
    /// arbitrary point — needed once for the fine chain's starting state.
    fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample;

    /// Export this source's checkpoint state, if it carries any (reading
    /// a chain's QOI may evaluate it, hence `&mut`). Stateless sources
    /// (remote proxies, pending sources — whose logical state lives in
    /// the phonebook ledger) return `None`, which is the default.
    fn export_state(&mut self) -> Option<SourceState> {
        None
    }

    /// Restore checkpoint state captured by
    /// [`export_state`](Self::export_state). The default ignores it
    /// (stateless sources).
    fn import_state(&mut self, _state: SourceState) {}
}

/// What [`MlChain::poll_step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step completed; the flag is whether the proposal was accepted.
    Done(bool),
    /// The coarse-proposal source returned [`CoarseAcquire::Pending`]:
    /// the chain is suspended mid-step and must be continued with
    /// [`MlChain::resume_step`] once the coarse sample arrives.
    NeedCoarse,
}

// one `Kind` exists per chain (not per sample), so the size gap between
// the base and coupled variants costs nothing worth boxing for
#[allow(clippy::large_enum_variant)]
enum Kind {
    /// Level 0: a standard Metropolis–Hastings chain.
    Base { proposal: Box<dyn Proposal> },
    /// Level `l ≥ 1`: coarse proposals + optional fine-tail proposal.
    Coupled {
        source: Box<dyn CoarseProposalSource>,
        /// Proposal for the tail components `θ_F`; only consulted when
        /// `coarse_dim < dim`.
        tail_proposal: Box<dyn Proposal>,
        coarse_dim: usize,
        /// Coarse state associated with the current fine state:
        /// `ν_{l-1}` value, QOI, and recursive sub-anchor.
        anchor: CoarseSample,
        /// The coarse sample used in the most recent step (accepted or
        /// not) — the `Q_{l-1}` half of the correction pair.
        last_coarse: Option<CoarseSample>,
        /// The ledger pairing mate of the most recent step (falls back
        /// to the proposal itself for sources without a ledger).
        last_pairing: Option<CoarseSample>,
    },
}

/// A single chain in the multilevel hierarchy (level 0 or coupled).
///
/// A step that accepts leaves the new state's QOI unevaluated; the chain
/// evaluates it on its own problem the first time something reads it —
/// [`current_qoi`](Self::current_qoi), [`correction`](Self::correction),
/// [`current_as_sample`](Self::current_as_sample),
/// [`export_state`](Self::export_state) — so burn-in and the intermediate
/// states of a serve leg cost no QOI.
pub struct MlChain {
    level: usize,
    problem: Box<dyn SamplingProblem>,
    kind: Kind,
    state: SamplingState,
    steps: usize,
    accepted: usize,
}

/// A chain's own position — its state, QOI evaluated or not, and its
/// anchor — set aside while the chain serves a ledger lease
/// ([`MlChain::bookmark`] / [`MlChain::return_to`]).
pub struct Bookmark {
    state: SamplingState,
    anchor: Option<CoarseSample>,
}

impl MlChain {
    /// Level-0 chain with a conventional proposal.
    pub fn base(
        mut problem: Box<dyn SamplingProblem>,
        proposal: Box<dyn Proposal>,
        theta0: Vec<f64>,
    ) -> Self {
        let state = SamplingState::initial(problem.as_mut(), theta0);
        Self {
            level: 0,
            problem,
            kind: Kind::Base { proposal },
            state,
            steps: 0,
            accepted: 0,
        }
    }

    /// Coupled chain on `level ≥ 1` drawing coarse proposals from
    /// `source`. `tail_proposal` is used for the dimensions beyond
    /// `coarse_dim` (pass any proposal when dimensions are constant — it
    /// will not be consulted).
    pub fn coupled(
        level: usize,
        mut problem: Box<dyn SamplingProblem>,
        mut source: Box<dyn CoarseProposalSource>,
        tail_proposal: Box<dyn Proposal>,
        coarse_dim: usize,
        theta0: Vec<f64>,
    ) -> Self {
        assert!(level >= 1, "MlChain::coupled: level must be >= 1");
        assert!(
            coarse_dim <= theta0.len(),
            "MlChain::coupled: coarse dimension exceeds fine dimension"
        );
        let anchor = source.anchor_at(&theta0[..coarse_dim]);
        let state = SamplingState::initial(problem.as_mut(), theta0);
        Self {
            level,
            problem,
            kind: Kind::Coupled {
                source,
                tail_proposal,
                coarse_dim,
                anchor,
                last_coarse: None,
                last_pairing: None,
            },
            state,
            steps: 0,
            accepted: 0,
        }
    }

    pub fn level(&self) -> usize {
        self.level
    }

    /// The current state; its `qoi` slot is empty until something reads
    /// it through the chain.
    pub fn state(&self) -> &SamplingState {
        &self.state
    }

    /// The current state's QOI, evaluated now if nothing has read it yet.
    pub fn current_qoi(&mut self) -> &Arc<[f64]> {
        self.state.fill_qoi(self.problem.as_mut())
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }

    /// The coarse sample coupled to the **current** fine state — the
    /// anchor, i.e. the coarse proposal from which the current state was
    /// accepted (`None` for level-0 chains). Note this is *not* the
    /// pairing the telescoping estimator uses: when coarse and fine share
    /// a parameter space, an accepted fine state equals its anchor and
    /// the anchored correction degenerates to zero. The estimator pairs
    /// with [`MlChain::last_coarse`] instead (see `uq-mlmcmc`'s
    /// [`estimator`](crate::estimator) docs for the finite-`ρ` bias this
    /// trades off).
    pub fn anchor(&self) -> Option<&CoarseSample> {
        match &self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled { anchor, .. } => Some(anchor),
        }
    }

    /// The coarse sample used by the most recent coupled step (`None` for
    /// level-0 chains or before the first step).
    pub fn last_coarse(&self) -> Option<&CoarseSample> {
        match &self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled { last_coarse, .. } => last_coarse.as_ref(),
        }
    }

    /// The ledger pairing mate of the most recent coupled step: the
    /// requester's autonomous coarse-subchain state served alongside the
    /// proposal (marginal exactly `π_{l-1}`; see [`crate::ledger`]).
    /// Equals [`last_coarse`](Self::last_coarse) for sources without a
    /// ledger session; `None` for level-0 chains or before the first
    /// step. This is the `Q_{l-1}` half of the correction pair under
    /// [`PairingMode::Ledger`].
    pub fn last_pairing(&self) -> Option<&CoarseSample> {
        match &self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled { last_pairing, .. } => last_pairing.as_ref(),
        }
    }

    /// The telescoping-term sample `y` of the most recent step: the
    /// current QOI minus that of the coarse sample `pairing` selects
    /// ([`last_coarse`](Self::last_coarse) or
    /// [`last_pairing`](Self::last_pairing)); the bare QOI on level 0.
    pub fn correction(&mut self, pairing: PairingMode) -> Vec<f64> {
        let fine = Arc::clone(self.current_qoi());
        let paired = match pairing {
            PairingMode::Proposal => self.last_coarse(),
            PairingMode::Ledger => self.last_pairing(),
        };
        match paired {
            None => fine.to_vec(),
            Some(coarse) => fine.iter().zip(&*coarse.qoi).map(|(f, c)| f - c).collect(),
        }
    }

    /// Package density/QOI/sub-anchor information for `theta` — used to
    /// initialize fine chains anchored at this chain's level.
    pub fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample {
        let log_density = self.problem.log_density(theta);
        let qoi = self.problem.qoi(theta).into();
        let sub_anchor = match &mut self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled {
                source, coarse_dim, ..
            } => Some(Box::new(source.anchor_at(&theta[..*coarse_dim]))),
        };
        CoarseSample {
            theta: theta.to_vec(),
            log_density,
            qoi,
            sub_anchor,
            mate: None,
        }
    }

    /// Current state packaged as a [`CoarseSample`] (including this
    /// chain's own anchor for recursive rewinding); a sample always
    /// carries its QOI, so this reads it.
    pub fn current_as_sample(&mut self) -> CoarseSample {
        let qoi = Arc::clone(self.current_qoi());
        let sub_anchor = match &self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled { anchor, .. } => Some(Box::new(anchor.clone())),
        };
        CoarseSample {
            theta: self.state.theta.clone(),
            log_density: self.state.log_density,
            qoi,
            sub_anchor,
            mate: None,
        }
    }

    /// Set the current state and anchor aside as they are, evaluating
    /// nothing: a serve rewinds the chain, and [`return_to`](Self::return_to)
    /// puts them back when it ends.
    pub fn bookmark(&self) -> Bookmark {
        Bookmark {
            state: self.state.clone(),
            anchor: self.anchor().cloned(),
        }
    }

    /// Return to a position [`bookmark`](Self::bookmark) set aside.
    pub fn return_to(&mut self, mark: Bookmark) {
        self.state = mark.state;
        if let (Kind::Coupled { anchor, .. }, Some(mark)) = (&mut self.kind, mark.anchor) {
            *anchor = mark;
        }
    }

    /// Rewind this chain to a previously served sample (the exactness
    /// rule — see the module docs). Everything needed is cached inside
    /// the sample; the one exception is a coupled chain restored from a
    /// sample *without* a sub-anchor (a parallel requester's initial
    /// anchor, which no serving stack ever saw): the sub-anchor is then
    /// derived through the source's `anchor_at`, costing one coarse-level
    /// density evaluation.
    pub fn restore(&mut self, sample: &CoarseSample) {
        self.state = SamplingState {
            theta: sample.theta.clone(),
            log_density: sample.log_density,
            qoi: Some(sample.qoi.clone()),
        };
        if let Kind::Coupled {
            anchor,
            source,
            coarse_dim,
            ..
        } = &mut self.kind
        {
            *anchor = match &sample.sub_anchor {
                Some(sub) => (**sub).clone(),
                None => source.anchor_at(&sample.theta[..*coarse_dim]),
            };
        }
    }

    /// Export the chain's full logical state as plain data (recursively
    /// through sequential serving stacks) for checkpointing. Feeding the
    /// result to [`import_state`](Self::import_state) on a freshly built
    /// identical chain continues the run bit-for-bit. A checkpoint
    /// carries every QOI, so this reads the current state's.
    pub fn export_state(&mut self) -> ChainState {
        let qoi = Arc::clone(self.current_qoi());
        let (anchor, last_coarse, last_pairing, source) = match &mut self.kind {
            Kind::Base { .. } => (None, None, None, None),
            Kind::Coupled {
                source,
                anchor,
                last_coarse,
                last_pairing,
                ..
            } => (
                Some(anchor.clone()),
                last_coarse.clone(),
                last_pairing.clone(),
                source.export_state().map(Box::new),
            ),
        };
        ChainState {
            steps: self.steps,
            accepted: self.accepted,
            theta: self.state.theta.clone(),
            log_density: self.state.log_density,
            qoi,
            anchor,
            last_coarse,
            last_pairing,
            source,
        }
    }

    /// Restore state captured by [`export_state`](Self::export_state)
    /// onto a chain built with the same factory/topology. No model
    /// evaluations happen — everything is cached in the state.
    pub fn import_state(&mut self, cs: ChainState) {
        self.steps = cs.steps;
        self.accepted = cs.accepted;
        self.state = SamplingState {
            theta: cs.theta,
            log_density: cs.log_density,
            qoi: Some(cs.qoi),
        };
        if let Kind::Coupled {
            source,
            anchor,
            last_coarse,
            last_pairing,
            ..
        } = &mut self.kind
        {
            if let Some(a) = cs.anchor {
                *anchor = a;
            }
            *last_coarse = cs.last_coarse;
            *last_pairing = cs.last_pairing;
            if let Some(ss) = cs.source {
                source.import_state(*ss);
            }
        }
    }

    /// Advance one step; returns whether the proposal was accepted.
    ///
    /// # Panics
    /// Panics if the coarse-proposal source is asynchronous (returns
    /// [`CoarseAcquire::Pending`]); drive such chains with
    /// [`poll_step`](Self::poll_step)/[`resume_step`](Self::resume_step).
    pub fn step(&mut self, rng: &mut dyn Rng) -> bool {
        match self.poll_step(rng) {
            StepOutcome::Done(accepted) => accepted,
            StepOutcome::NeedCoarse => {
                panic!("MlChain::step: asynchronous coarse source; use poll_step/resume_step")
            }
        }
    }

    /// Begin one step. Level-0 chains and coupled chains with a blocking
    /// source complete in-line ([`StepOutcome::Done`]); a coupled chain
    /// whose source returns [`CoarseAcquire::Pending`] suspends
    /// ([`StepOutcome::NeedCoarse`]) and must be continued with
    /// [`resume_step`](Self::resume_step) — this is what lets hundreds of
    /// virtual controllers share a worker thread in the cooperative
    /// runtime instead of blocking it inside `recv`.
    pub fn poll_step(&mut self, rng: &mut dyn Rng) -> StepOutcome {
        let acquired = match &mut self.kind {
            Kind::Base { proposal } => {
                let problem = self.problem.as_mut();
                let accepted = mh_transition(problem, proposal.as_mut(), &mut self.state, rng);
                self.steps += 1;
                self.accepted += usize::from(accepted);
                return StepOutcome::Done(accepted);
            }
            Kind::Coupled { source, anchor, .. } => source.request_coarse(rng, anchor),
        };
        match acquired {
            CoarseAcquire::Ready(coarse) => StepOutcome::Done(self.resume_step(rng, coarse)),
            CoarseAcquire::Pending => StepOutcome::NeedCoarse,
        }
    }

    /// Finish a coupled step with an externally obtained coarse proposal
    /// (the fulfillment half of the request/fulfill protocol); returns
    /// whether the proposal was accepted. A zero-length `coarse.theta`
    /// acts as a teardown poison: the step counts but is rejected without
    /// touching chain state or the coupled correction bookkeeping.
    ///
    /// # Panics
    /// Panics on a level-0 chain.
    pub fn resume_step(&mut self, rng: &mut dyn Rng, mut coarse: CoarseSample) -> bool {
        self.steps += 1;
        let mate = coarse.mate.take().map(|m| *m);
        let accepted = match &mut self.kind {
            Kind::Base { .. } => panic!("MlChain::resume_step: level-0 chains never suspend"),
            Kind::Coupled {
                tail_proposal,
                coarse_dim,
                anchor,
                last_coarse,
                last_pairing,
                ..
            } => {
                if coarse.theta.len() != *coarse_dim {
                    // teardown poison from a parallel source: reject
                    // without touching the chain state or the coupled
                    // correction bookkeeping
                    return false;
                }
                let dim = self.state.theta.len();
                let tail_dim = dim - *coarse_dim;
                // assemble the proposal: coarse component + fine tail
                let mut cand = coarse.theta.clone();
                let mut log_q_ratio = 0.0;
                if tail_dim > 0 {
                    let current_tail = &self.state.theta[*coarse_dim..];
                    let cand_tail = tail_proposal.propose(current_tail, rng);
                    if !tail_proposal.is_symmetric() {
                        log_q_ratio = tail_proposal.log_density(&cand_tail, current_tail)
                            - tail_proposal.log_density(current_tail, &cand_tail);
                    }
                    cand.extend_from_slice(&cand_tail);
                }
                let accepted = if coarse.log_density == f64::NEG_INFINITY {
                    false
                } else {
                    let cand_log_density = self.problem.log_density(&cand);
                    if cand_log_density == f64::NEG_INFINITY {
                        false
                    } else {
                        // Algorithm 2 acceptance: fine ratio × tail-
                        // proposal correction × *inverse* coarse ratio
                        let log_alpha = (cand_log_density - self.state.log_density)
                            + log_q_ratio
                            + (anchor.log_density - coarse.log_density);
                        let accept = log_alpha >= 0.0 || {
                            use rand::RngExt;
                            rng.random::<f64>().ln() < log_alpha
                        };
                        if accept {
                            self.state = SamplingState {
                                theta: cand,
                                log_density: cand_log_density,
                                qoi: None,
                            };
                            *anchor = coarse.clone();
                        }
                        accept
                    }
                };
                *last_pairing = Some(mate.unwrap_or_else(|| coarse.clone()));
                *last_coarse = Some(coarse);
                accepted
            }
        };
        self.accepted += usize::from(accepted);
        accepted
    }
}

/// Sequential coarse-proposal source: owns the next-coarser [`MlChain`]
/// (itself possibly coupled, recursively down to level 0) and serves it
/// through a single-requester ledger session (see [`crate::ledger`]):
/// the proposal track rewinds to the requester's anchor (the exactness
/// rule) and the pairing track continues from the last served sample
/// (the unbiased correction mate), both advanced `rho` steps per serve
/// by the session's own derived random substreams.
pub struct ChainCoarseSource {
    chain: MlChain,
    rho: usize,
    /// Lazily derived on the first serve from the caller's RNG (one
    /// `next_u64` draw), so different user seeds give independent serve
    /// substreams; [`with_session_seed`](Self::with_session_seed) pins
    /// it instead (then nothing is drawn from the caller).
    session_seed: Option<u64>,
    serves: u64,
    pairing: Option<CoarseSample>,
    diverged_serves: u64,
}

impl ChainCoarseSource {
    /// `rho` is clamped to at least 1 (every fine proposal advances the
    /// coarse chain at least one step). The ledger session seed is drawn
    /// from the caller's RNG at the first serve; use
    /// [`with_session_seed`](Self::with_session_seed) to pin it (e.g. to
    /// reproduce a parallel backend's session bit-for-bit).
    pub fn new(chain: MlChain, rho: usize) -> Self {
        Self {
            chain,
            rho: rho.max(1),
            session_seed: None,
            serves: 0,
            pairing: None,
            diverged_serves: 0,
        }
    }

    /// Pin the ledger session seed (see [`crate::ledger::session_seed`]).
    pub fn with_session_seed(mut self, session_seed: u64) -> Self {
        self.session_seed = Some(session_seed);
        self
    }

    pub fn chain(&self) -> &MlChain {
        &self.chain
    }
}

impl CoarseProposalSource for ChainCoarseSource {
    // The caller's RNG seeds the session once (first serve) and is
    // otherwise unused: serve randomness comes from per-serve substreams
    // of the session seed, so serves are pure functions of the session
    // state and reproduce identically across backends (the parity suite
    // relies on this).
    fn request_coarse(&mut self, rng: &mut dyn Rng, anchor: &CoarseSample) -> CoarseAcquire {
        let level = self.chain.level();
        let session_seed = *self
            .session_seed
            .get_or_insert_with(|| crate::ledger::session_seed(rng.next_u64(), level, 0));
        let lease = crate::ledger::LedgerLease {
            session_seed,
            serves: self.serves,
            pairing: self.pairing.take(),
            anchor: anchor.clone(),
        };
        let out = crate::ledger::serve(&mut self.chain, self.rho, &lease);
        self.serves += 1;
        self.diverged_serves += u64::from(out.diverged);
        self.pairing = Some(out.pairing);
        CoarseAcquire::Ready(out.proposal)
    }

    fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample {
        self.chain.anchor_at(theta)
    }

    fn export_state(&mut self) -> Option<SourceState> {
        Some(SourceState {
            session_seed: self.session_seed,
            serves: self.serves,
            diverged_serves: self.diverged_serves,
            pairing: self.pairing.clone(),
            chain: self.chain.export_state(),
        })
    }

    fn import_state(&mut self, state: SourceState) {
        self.session_seed = state.session_seed;
        self.serves = state.serves;
        self.diverged_serves = state.diverged_serves;
        self.pairing = state.pairing;
        self.chain.import_state(state.chain);
    }
}

/// An always-pending source for suspendable controllers: every
/// [`request_coarse`](CoarseProposalSource::request_coarse) returns
/// [`CoarseAcquire::Pending`], so each coupled step suspends at
/// [`StepOutcome::NeedCoarse`] and the driving state machine fulfills it
/// (via [`MlChain::resume_step`]) with a sample obtained out of band —
/// the cooperative runtime's phonebook protocol in `uq-parallel`.
pub struct PendingCoarseSource {
    /// Coarse problem used only for the one-off starting-point
    /// density/QOI evaluation in [`anchor_at`](Self::anchor_at).
    coarse_problem: Box<dyn SamplingProblem>,
}

impl PendingCoarseSource {
    pub fn new(coarse_problem: Box<dyn SamplingProblem>) -> Self {
        Self { coarse_problem }
    }
}

impl CoarseProposalSource for PendingCoarseSource {
    fn request_coarse(&mut self, _rng: &mut dyn Rng, _anchor: &CoarseSample) -> CoarseAcquire {
        CoarseAcquire::Pending
    }

    fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample {
        CoarseSample::plain(
            theta.to_vec(),
            self.coarse_problem.log_density(theta),
            self.coarse_problem.qoi(theta),
        )
    }
}

/// The level-`level` chain of `factory`'s hierarchy: a base chain on
/// level 0; above it a coupled chain whose starting point takes its
/// coarse component from the next-coarser one (Algorithm 2) and whose
/// proposals come from `source(level - 1)` — a [`ChainCoarseSource`] for
/// the sequential stack ([`build_chain_stack`]), a
/// [`PendingCoarseSource`] for a parallel controller.
pub fn build_chain(
    factory: &dyn LevelFactory,
    level: usize,
    source: impl FnOnce(usize) -> Box<dyn CoarseProposalSource>,
) -> MlChain {
    assert!(
        level < factory.n_levels(),
        "build_chain: level out of range"
    );
    if level == 0 {
        return MlChain::base(
            factory.problem(0),
            factory.proposal(0),
            factory.starting_point(0),
        );
    }
    let source = source(level - 1);
    let coarse_dim = factory.starting_point(level - 1).len();
    let mut theta0 = factory.starting_point(level);
    theta0[..coarse_dim].copy_from_slice(&factory.starting_point(level - 1));
    MlChain::coupled(
        level,
        factory.problem(level),
        source,
        factory.proposal(level),
        coarse_dim,
        theta0,
    )
}

/// Build the full recursive chain stack for `level` from a factory:
/// each level above 0 owns the stack below it as its coarse-proposal
/// source (subsampled at `factory.subsampling_rate`).
pub fn build_chain_stack(factory: &dyn LevelFactory, level: usize) -> MlChain {
    build_chain(factory, level, |coarse| {
        let stack = build_chain_stack(factory, coarse);
        Box::new(ChainCoarseSource::new(
            stack,
            factory.subsampling_rate(coarse),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::test_support::GaussianHierarchy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uq_linalg::prob::isotropic_gaussian_logpdf;
    use uq_mcmc::problem::GaussianTarget;
    use uq_mcmc::proposal::GaussianRandomWalk;
    use uq_mcmc::stats;

    fn base_gaussian_chain(mean: f64, sd: f64, dim: usize) -> MlChain {
        MlChain::base(
            Box::new(GaussianTarget::new(vec![mean; dim], sd)),
            Box::new(GaussianRandomWalk::new(0.8)),
            vec![0.0; dim],
        )
    }

    #[test]
    fn identical_levels_accept_everything() {
        // ν_l = ν_{l-1} ⇒ the Algorithm-2 ratio is exactly 1
        let coarse = base_gaussian_chain(0.0, 1.0, 2);
        let source = ChainCoarseSource::new(coarse, 3);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![0.0; 2], 1.0)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            2,
            vec![0.0; 2],
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(fine.step(&mut rng), "identical levels must always accept");
        }
        assert_eq!(fine.acceptance_rate(), 1.0);
    }

    #[test]
    fn coupled_chain_targets_fine_distribution() {
        // coarse N(0.5, 0.8²), fine N(1.0, 0.5²): fine chain must converge
        // to the FINE target despite coarse proposals
        let coarse = base_gaussian_chain(0.5, 0.8, 1);
        let source = ChainCoarseSource::new(coarse, 3);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut trace = Vec::new();
        for i in 0..60_000 {
            fine.step(&mut rng);
            if i >= 2000 {
                trace.push(fine.state().theta[0]);
            }
        }
        let mean = stats::mean(&trace);
        let sd = stats::variance(&trace).sqrt();
        assert!((mean - 1.0).abs() < 0.03, "fine mean {mean}");
        assert!((sd - 0.5).abs() < 0.03, "fine sd {sd}");
        let rate = fine.acceptance_rate();
        assert!(rate > 0.3 && rate < 1.0, "acceptance {rate}");
    }

    #[test]
    fn rewind_restores_exactness_under_small_rho() {
        // with rho = 1 the naive (non-rewinding) scheme is maximally
        // biased; the rewinding kernel must still target the fine
        // distribution exactly
        let coarse = base_gaussian_chain(0.0, 1.0, 1);
        let source = ChainCoarseSource::new(coarse, 1);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.5], 0.4)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut trace = Vec::new();
        for i in 0..120_000 {
            fine.step(&mut rng);
            if i >= 5000 {
                trace.push(fine.state().theta[0]);
            }
        }
        let mean = stats::mean(&trace);
        assert!(
            (mean - 1.5).abs() < 0.05,
            "rho = 1 coupled chain must stay unbiased, mean {mean}"
        );
    }

    #[test]
    fn coarse_proposals_decorrelate_fine_chain() {
        // IACT of the coupled fine chain should be near 1 (the paper's
        // observation) because proposals are nearly independent draws
        let coarse = base_gaussian_chain(1.0, 0.55, 1);
        let source = ChainCoarseSource::new(coarse, 8);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![1.0],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut trace = Vec::new();
        for i in 0..20_000 {
            fine.step(&mut rng);
            if i >= 1000 {
                trace.push(fine.state().theta[0]);
            }
        }
        let tau = stats::integrated_autocorrelation_time(&trace);
        assert!(tau < 2.5, "coupled-chain IACT should be near 1, got {tau}");
    }

    #[test]
    fn last_coarse_tracks_proposal_even_on_rejection() {
        // extremely mismatched levels force rejections; last_coarse must
        // still update every step (it feeds the telescoping estimator)
        let coarse = base_gaussian_chain(5.0, 0.2, 1);
        let source = ChainCoarseSource::new(coarse, 2);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![-5.0], 0.2)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![-5.0],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut prev: Option<Vec<f64>> = None;
        let mut changed = 0;
        for _ in 0..50 {
            fine.step(&mut rng);
            let lc = fine.last_coarse().expect("must record coarse sample");
            if let Some(p) = &prev {
                if p != &lc.theta {
                    changed += 1;
                }
            }
            prev = Some(lc.theta.clone());
        }
        assert!(
            changed > 20,
            "coarse proposals should keep moving ({changed})"
        );
        // with such mismatched levels the fine chain never actually moves:
        // the only "accepted" proposals are trivial self-proposals (the
        // rewound coarse chain rejected all its own moves)
        assert_eq!(fine.state().theta, vec![-5.0]);
    }

    #[test]
    fn dimension_growth_with_tail_proposal() {
        // coarse: 1-D N(0,1); fine: 2-D independent N(0,1) ⊗ N(2, 0.5²).
        // The tail component must converge to N(2, 0.5²).
        struct Fine2d;
        impl uq_mcmc::SamplingProblem for Fine2d {
            fn dim(&self) -> usize {
                2
            }
            fn log_density(&mut self, th: &[f64]) -> f64 {
                isotropic_gaussian_logpdf(&th[..1], &[0.0], 1.0)
                    + isotropic_gaussian_logpdf(&th[1..], &[2.0], 0.5)
            }
        }
        let coarse = base_gaussian_chain(0.0, 1.0, 1);
        let source = ChainCoarseSource::new(coarse, 3);
        let mut fine = MlChain::coupled(
            1,
            Box::new(Fine2d),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.6)),
            1,
            vec![0.0, 0.0],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut tail_trace = Vec::new();
        for i in 0..40_000 {
            fine.step(&mut rng);
            if i >= 2000 {
                tail_trace.push(fine.state().theta[1]);
            }
        }
        let mean = stats::mean(&tail_trace);
        let sd = stats::variance(&tail_trace).sqrt();
        assert!((mean - 2.0).abs() < 0.06, "tail mean {mean}");
        assert!((sd - 0.5).abs() < 0.06, "tail sd {sd}");
    }

    #[test]
    fn build_stack_produces_recursive_hierarchy() {
        let h = GaussianHierarchy::three_level(2);
        let mut chain = build_chain_stack(&h, 2);
        assert_eq!(chain.level(), 2);
        let mut rng = StdRng::seed_from_u64(6);
        let mut trace = Vec::new();
        for i in 0..12_000 {
            chain.step(&mut rng);
            if i >= 1000 {
                trace.push(chain.state().theta[0]);
            }
        }
        // finest level targets N(1.0, 0.5²)
        let mean = stats::mean(&trace);
        assert!((mean - 1.0).abs() < 0.08, "stack mean {mean}");
    }

    #[test]
    fn unphysical_coarse_proposal_is_rejected() {
        struct Cutoff;
        impl uq_mcmc::SamplingProblem for Cutoff {
            fn dim(&self) -> usize {
                1
            }
            fn log_density(&mut self, th: &[f64]) -> f64 {
                if th[0].abs() > 1.0 {
                    f64::NEG_INFINITY
                } else {
                    0.0
                }
            }
        }
        // coarse chain lives far outside the fine support
        let coarse = base_gaussian_chain(10.0, 0.5, 1);
        let source = ChainCoarseSource::new(coarse, 1);
        let mut fine = MlChain::coupled(
            1,
            Box::new(Cutoff),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            fine.step(&mut rng);
            assert!(fine.state().theta[0].abs() <= 1.0);
        }
    }

    /// A recording source that can be switched between blocking and
    /// pending, fulfilling from an internal chain either way — used to
    /// check that the suspended path reproduces the blocking path.
    struct SwitchableSource {
        inner: ChainCoarseSource,
        pending: bool,
        stashed_anchor: Option<CoarseSample>,
    }

    impl CoarseProposalSource for SwitchableSource {
        fn request_coarse(&mut self, rng: &mut dyn Rng, anchor: &CoarseSample) -> CoarseAcquire {
            if self.pending {
                self.stashed_anchor = Some(anchor.clone());
                CoarseAcquire::Pending
            } else {
                self.inner.request_coarse(rng, anchor)
            }
        }
        fn anchor_at(&mut self, theta: &[f64]) -> CoarseSample {
            self.inner.anchor_at(theta)
        }
    }

    #[test]
    fn poll_resume_reproduces_blocking_step_exactly() {
        // two identical coupled chains; one steps through the blocking
        // path, the other suspends at every step and is resumed with the
        // sample an identical helper source generates — the trajectories
        // must agree bit-for-bit because resume consumes the same RNG
        // stream as the blocking acceptance does.
        let mk = |pending| {
            let coarse = base_gaussian_chain(0.5, 0.8, 1);
            let source = SwitchableSource {
                inner: ChainCoarseSource::new(coarse, 3),
                pending,
                stashed_anchor: None,
            };
            MlChain::coupled(
                1,
                Box::new(GaussianTarget::new(vec![1.0], 0.5)),
                Box::new(source),
                Box::new(GaussianRandomWalk::new(0.5)),
                1,
                vec![0.0],
            )
        };
        let mut blocking = mk(false);
        let mut suspending = mk(true);
        // fulfillment helper: an identical coarse source (same default
        // ledger session seed, so serve k produces identical samples),
        // rewound to the suspended chain's anchor
        let mut helper = ChainCoarseSource::new(base_gaussian_chain(0.5, 0.8, 1), 3);
        let mut rng_a = StdRng::seed_from_u64(42);
        // coarse serves draw from the session's own substreams, so the
        // caller streams only drive tail/acceptance variates — consuming
        // them identically on both paths keeps the trajectories aligned
        let mut rng_b = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = blocking.step(&mut rng_a);
            assert_eq!(suspending.poll_step(&mut rng_b), StepOutcome::NeedCoarse);
            let anchor = suspending.anchor().expect("coupled chain").clone();
            let coarse = helper.next_coarse(&mut rng_b, &anchor);
            let b = suspending.resume_step(&mut rng_b, coarse);
            assert_eq!(a, b, "acceptance decisions diverged");
            assert_eq!(blocking.state().theta, suspending.state().theta);
        }
        assert_eq!(blocking.steps(), suspending.steps());
        assert_eq!(blocking.acceptance_rate(), suspending.acceptance_rate());
    }

    #[test]
    fn pending_source_suspends_and_poison_resume_rejects() {
        let source = PendingCoarseSource::new(Box::new(GaussianTarget::new(vec![0.0], 1.0)));
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(fine.poll_step(&mut rng), StepOutcome::NeedCoarse);
        // a poison fulfillment counts the step but rejects untouched
        let before = fine.state().theta.clone();
        assert!(!fine.resume_step(
            &mut rng,
            super::CoarseSample::plain(Vec::new(), f64::NEG_INFINITY, Vec::new())
        ));
        assert_eq!(fine.state().theta, before);
        assert_eq!(fine.steps(), 1);
        assert!(fine.last_coarse().is_none());
    }

    #[test]
    #[should_panic(expected = "asynchronous coarse source")]
    fn blocking_step_on_pending_source_panics() {
        let source = PendingCoarseSource::new(Box::new(GaussianTarget::new(vec![0.0], 1.0)));
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(12);
        fine.step(&mut rng);
    }

    #[test]
    fn export_import_continues_recursive_stack_bit_for_bit() {
        // three-level stack: run 300 steps, export, rebuild a fresh
        // identical stack, import, and require the continuation to match
        // the uninterrupted chain exactly (same caller RNG position)
        let h = GaussianHierarchy::three_level(2);
        let mut chain = build_chain_stack(&h, 2);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..300 {
            chain.step(&mut rng);
        }
        let state = chain.export_state();
        assert!(state.source.is_some(), "stack must export recursively");
        let rng_state = rng.state();

        let mut resumed = build_chain_stack(&h, 2);
        resumed.import_state(state.clone());
        assert_eq!(resumed.export_state(), state, "import/export roundtrip");
        let mut rng_resumed = StdRng::from_state(rng_state);
        for _ in 0..300 {
            let a = chain.step(&mut rng);
            let b = resumed.step(&mut rng_resumed);
            assert_eq!(a, b, "acceptance decisions diverged after resume");
            assert_eq!(chain.state().theta, resumed.state().theta);
        }
        assert_eq!(chain.export_state(), resumed.export_state());
    }

    #[test]
    fn restore_roundtrips_state_and_anchor() {
        let coarse = base_gaussian_chain(0.5, 0.8, 1);
        let source = ChainCoarseSource::new(coarse, 2);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            Box::new(source),
            Box::new(GaussianRandomWalk::new(0.5)),
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            fine.step(&mut rng);
        }
        let snapshot = fine.current_as_sample();
        for _ in 0..20 {
            fine.step(&mut rng);
        }
        fine.restore(&snapshot);
        assert_eq!(fine.state().theta, snapshot.theta);
        assert_eq!(fine.state().log_density, snapshot.log_density);
        assert!(fine.current_as_sample().sub_anchor.is_some());
    }
}
