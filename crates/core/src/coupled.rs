//! The two-level coupled transition kernel of multilevel MCMC
//! (paper Algorithm 2).
//!
//! A chain on level `l ≥ 1` draws its proposals from the subsampled
//! level-`l-1` chain and accepts with
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
//!
//! **One coarse-proposal path.** A coupled [`MlChain`] holds only kernel
//! state: every step suspends at [`StepOutcome::NeedCoarse`] until
//! [`MlChain::resume_step`] hands it a served proposal. A controller
//! (`uq-parallel`) answers over the phonebook, the sequential driver from
//! a [`ChainStack`]; both drive the one resumable [`ledger::Serve`].

use crate::factory::LevelFactory;
use crate::ledger::{self, LedgerLease, PairingMode, Serve, ServeOutcome, ServeStep};
use rand::Rng;
use std::sync::Arc;
use uq_mcmc::kernel::{mh_transition, SamplingState};
use uq_mcmc::{Proposal, SamplingProblem};

/// A state of the next-coarser chain, shipped with its cached log-density
/// so the fine chain never re-evaluates the coarse density, plus the
/// serving chain's own (recursive) anchor for exact rewinding.
///
/// Its QOI is a slot like [`SamplingState::qoi`]: a serve packages
/// whatever the serving chain's state holds and evaluates none, and the
/// one reader of a coarse QOI — a requester's correction
/// ([`MlChain::correction`]) or a sequential cut ([`ChainStack`]) — fills
/// it on a problem of the sample's level ([`fill_qoi`](Self::fill_qoi)).
#[derive(Clone, Debug, PartialEq)]
pub struct CoarseSample {
    pub theta: Vec<f64>,
    pub log_density: f64,
    /// The QOI at `theta` once a reader filled it; shared with the chain
    /// state it was packaged from, and with every clone of this sample.
    pub qoi: Option<Arc<[f64]>>,
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
    /// A sample carrying only cached values, its QOI among them (no
    /// sub-anchor, no mate).
    pub fn plain(theta: Vec<f64>, log_density: f64, qoi: Vec<f64>) -> Self {
        Self {
            theta,
            log_density,
            qoi: Some(qoi.into()),
            sub_anchor: None,
            mate: None,
        }
    }

    /// `problem`'s density at `theta`; the QOI is left to a reader.
    pub fn at(problem: &mut dyn SamplingProblem, theta: &[f64]) -> Self {
        Self {
            theta: theta.to_vec(),
            log_density: problem.log_density(theta),
            qoi: None,
            sub_anchor: None,
            mate: None,
        }
    }

    /// The QOI at `theta`, evaluated on `problem` — a problem of this
    /// sample's level — if the slot is still empty.
    pub fn fill_qoi(&mut self, problem: &mut dyn SamplingProblem) -> &Arc<[f64]> {
        self.qoi
            .get_or_insert_with(|| problem.qoi(&self.theta).into())
    }

    /// Take `earlier`'s QOI if this slot is empty and both are the same
    /// point, bit for bit: a leg that did not move costs no evaluation.
    fn adopt_qoi(&mut self, earlier: Option<&CoarseSample>) {
        if self.qoi.is_none() {
            let same = |e: &&CoarseSample| same_point(&e.theta, &self.theta);
            self.qoi = earlier.filter(same).and_then(|e| e.qoi.clone());
        }
    }
}

/// `a` and `b` are the same point, bit for bit.
fn same_point(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The full logical state of an [`MlChain`] as plain data, for
/// checkpointing (see `uq_core::store`): sampling state, counters and
/// coupled bookkeeping. Everything a freshly built chain needs to
/// continue the run bit-for-bit.
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
}

/// What [`MlChain::poll_step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step completed; the flag is whether the proposal was accepted.
    Done(bool),
    /// A coupled chain needs its coarse proposal: the step is suspended
    /// until [`MlChain::resume_step`] hands it the served sample.
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
        /// Proposal for the tail components `θ_F`; only consulted when
        /// `coarse_dim < dim`.
        tail_proposal: Box<dyn Proposal>,
        coarse_dim: usize,
        /// Coarse state associated with the current fine state:
        /// `ν_{l-1}` value, QOI slot, and recursive sub-anchor.
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
/// [`export_state`](Self::export_state) — so burn-in and every state of a
/// serve leg cost no QOI. A coarse sample's QOI is filled by its reader:
/// [`correction`](Self::correction) fills the one it pairs with on the
/// level below's problem, which the caller hands it.
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

    /// Coupled chain on `level ≥ 1` at `theta0`, whose coarse component
    /// `theta0[..coarse_dim]` is `anchor`. `tail_proposal` is used for the
    /// dimensions beyond `coarse_dim` (pass any proposal when dimensions
    /// are constant — it will not be consulted).
    pub fn coupled(
        level: usize,
        mut problem: Box<dyn SamplingProblem>,
        anchor: CoarseSample,
        tail_proposal: Box<dyn Proposal>,
        coarse_dim: usize,
        theta0: Vec<f64>,
    ) -> Self {
        assert!(level >= 1, "MlChain::coupled: level must be >= 1");
        assert!(
            coarse_dim <= theta0.len(),
            "MlChain::coupled: coarse dimension exceeds fine dimension"
        );
        let state = SamplingState::initial(problem.as_mut(), theta0);
        Self {
            level,
            problem,
            kind: Kind::Coupled {
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
    /// [`last_pairing`](Self::last_pairing), see
    /// [`paired_qoi`](Self::paired_qoi)); the bare QOI on level 0.
    pub fn correction(
        &mut self,
        pairing: PairingMode,
        coarse: Option<&mut (dyn SamplingProblem + 'static)>,
    ) -> Vec<f64> {
        let fine = Arc::clone(self.current_qoi());
        match self.paired_qoi(pairing, coarse) {
            None => fine.to_vec(),
            Some(coarse) => fine.iter().zip(&*coarse).map(|(f, c)| f - c).collect(),
        }
    }

    /// The QOI of the most recent step's coarse sample that `pairing`
    /// selects, filled on `coarse` — the level below's problem — if
    /// nothing has read it yet (`None` on level 0 or before the first
    /// step). The other coarse sample of the step lends its QOI when it
    /// is the same point.
    ///
    /// # Panics
    /// Panics if the sample's QOI must be evaluated and `coarse` is `None`.
    pub fn paired_qoi(
        &mut self,
        pairing: PairingMode,
        coarse: Option<&mut (dyn SamplingProblem + 'static)>,
    ) -> Option<Arc<[f64]>> {
        let Kind::Coupled {
            last_coarse,
            last_pairing,
            ..
        } = &mut self.kind
        else {
            return None;
        };
        let (sample, other) = match pairing {
            PairingMode::Proposal => (last_coarse, last_pairing),
            PairingMode::Ledger => (last_pairing, last_coarse),
        };
        let sample = sample.as_mut()?;
        sample.adopt_qoi(other.as_ref());
        if let Some(qoi) = &sample.qoi {
            return Some(Arc::clone(qoi));
        }
        let coarse = coarse.expect("a coarse QOI is evaluated on the level below's problem");
        Some(Arc::clone(sample.fill_qoi(coarse)))
    }

    /// Current state packaged as a [`CoarseSample`] (including this
    /// chain's own anchor for recursive rewinding), its QOI slot as the
    /// state holds it: packaging evaluates nothing.
    pub fn current_as_sample(&self) -> CoarseSample {
        let sub_anchor = match &self.kind {
            Kind::Base { .. } => None,
            Kind::Coupled { anchor, .. } => Some(Box::new(anchor.clone())),
        };
        CoarseSample {
            theta: self.state.theta.clone(),
            log_density: self.state.log_density,
            qoi: self.state.qoi.clone(),
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
    /// rule — see the module docs), its QOI slot as the sample holds it.
    /// Everything needed is cached inside the sample, evaluating nothing.
    pub fn restore(&mut self, sample: &CoarseSample) {
        self.state = SamplingState {
            theta: sample.theta.clone(),
            log_density: sample.log_density,
            qoi: sample.qoi.clone(),
        };
        if let Kind::Coupled { anchor, .. } = &mut self.kind {
            // a coupled level packages its samples with their anchor; an
            // initial anchor gets one from `ChainStack`, a requester's from
            // the serving controller before `Serve::start`
            let sub = sample.sub_anchor.as_deref();
            *anchor = sub
                .expect("a coupled level's sample has a sub-anchor")
                .clone();
        }
    }

    /// Export the chain's full logical state as plain data for
    /// checkpointing. Feeding the result to
    /// [`import_state`](Self::import_state) on a freshly built identical
    /// chain continues the run bit-for-bit. The current state's QOI is
    /// read; the coarse samples are written as they are.
    pub fn export_state(&mut self) -> ChainState {
        let qoi = Arc::clone(self.current_qoi());
        let (anchor, last_coarse, last_pairing) = match &self.kind {
            Kind::Base { .. } => (None, None, None),
            Kind::Coupled {
                anchor,
                last_coarse,
                last_pairing,
                ..
            } => (
                Some(anchor.clone()),
                last_coarse.clone(),
                last_pairing.clone(),
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
        }
    }

    /// Begin one step. A level-0 chain completes it
    /// ([`StepOutcome::Done`]); a coupled chain draws nothing and
    /// suspends ([`StepOutcome::NeedCoarse`]) until
    /// [`resume_step`](Self::resume_step) hands it the proposal served for
    /// its [`anchor`](Self::anchor) — this is what lets hundreds of
    /// virtual controllers share a worker thread in the cooperative
    /// runtime instead of blocking it inside `recv`.
    pub fn poll_step(&mut self, rng: &mut dyn Rng) -> StepOutcome {
        let Kind::Base { proposal } = &mut self.kind else {
            return StepOutcome::NeedCoarse;
        };
        let problem = self.problem.as_mut();
        let accepted = mh_transition(problem, proposal.as_mut(), &mut self.state, rng);
        self.steps += 1;
        self.accepted += usize::from(accepted);
        StepOutcome::Done(accepted)
    }

    /// Finish a coupled step with an externally obtained coarse proposal
    /// (the fulfillment half of the request/fulfill protocol); returns
    /// whether the proposal was accepted. A zero-length `coarse.theta`
    /// acts as a teardown poison: the step counts but is rejected without
    /// touching chain state or the coupled correction bookkeeping. A
    /// proposal or mate without a QOI that is the previous step's point,
    /// bit for bit, takes that sample's QOI, and an accepted proposal at
    /// the chain's own point keeps the state's.
    ///
    /// # Panics
    /// Panics on a level-0 chain.
    pub fn resume_step(&mut self, rng: &mut dyn Rng, mut coarse: CoarseSample) -> bool {
        self.steps += 1;
        let mut mate = coarse.mate.take().map(|m| *m);
        let accepted = match &mut self.kind {
            // unreachable from the drivers: they resume only a step that
            // returned `NeedCoarse`, which a level-0 chain never does
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
                // a leg that did not move hands back the point it
                // started from: the QOI read there is still good
                coarse.adopt_qoi(last_coarse.as_ref());
                if let Some(mate) = &mut mate {
                    mate.adopt_qoi(last_pairing.as_ref());
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
                            // a proposal back at the current point (the
                            // serve moved nowhere) keeps the QOI read there
                            let qoi = self.state.qoi.take();
                            let qoi = qoi.filter(|_| same_point(&cand, &self.state.theta));
                            self.state = SamplingState {
                                theta: cand,
                                log_density: cand_log_density,
                                qoi,
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

/// The level-`level` chain of `factory`'s hierarchy: a base chain on
/// level 0; above it a coupled chain whose starting point takes its
/// coarse component from the next-coarser one (Algorithm 2), anchored at
/// `anchor_at(coarse component)`.
pub fn build_chain(
    factory: &dyn LevelFactory,
    level: usize,
    anchor_at: impl FnOnce(&[f64]) -> CoarseSample,
) -> MlChain {
    assert!(level < factory.n_levels(), "build_chain: no such level");
    if level == 0 {
        return MlChain::base(
            factory.problem(0),
            factory.proposal(0),
            factory.starting_point(0),
        );
    }
    let coarse_dim = factory.starting_point(level - 1).len();
    let mut theta0 = factory.starting_point(level);
    theta0[..coarse_dim].copy_from_slice(&factory.starting_point(level - 1));
    let (problem, tail_proposal) = (factory.problem(level), factory.proposal(level));
    let anchor = anchor_at(&theta0[..coarse_dim]);
    MlChain::coupled(level, problem, anchor, tail_proposal, coarse_dim, theta0)
}

/// One coarse level's single-requester ledger session (see
/// [`crate::ledger`]), as a [`ChainStack`] serves it to the level above.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cursor {
    /// Unless pinned, one `next_u64` from the requester's stream (the
    /// driver's generator, or the enclosing serve's leg) at the first serve.
    pub session_seed: Option<u64>,
    pub serves: u64,
    pub diverged_serves: u64,
    pub pairing: Option<CoarseSample>,
}

/// The sequential driver's chains, one per level: a suspended step of the
/// top chain is answered by serving the level below from its [`Cursor`],
/// whose suspended kernel steps are answered one level further down.
pub struct ChainStack {
    /// Levels `0..=l`, never empty.
    chains: Vec<MlChain>,
    /// `cursors[k]`: the session level `k` serves to level `k + 1`.
    cursors: Vec<Cursor>,
    /// `rho[k]`: level `k`'s subsampling rate.
    rho: Vec<usize>,
}

impl ChainStack {
    /// Levels `0..=level` of `factory`, each chain on its own problem; a
    /// coupled level's initial anchor is evaluated on the chains below.
    pub fn new(factory: &dyn LevelFactory, level: usize) -> Self {
        let mut chains = Vec::with_capacity(level + 1);
        for k in 0..=level {
            let chain = build_chain(factory, k, |theta| anchor_at(&mut chains, theta));
            chains.push(chain);
        }
        Self {
            chains,
            cursors: vec![Cursor::default(); level],
            rho: (0..level).map(|k| factory.subsampling_rate(k)).collect(),
        }
    }

    /// The top level's chain.
    pub fn top(&mut self) -> &mut MlChain {
        self.chains.last_mut().expect(LEVEL_0)
    }

    /// The top level's chain, and the level below's problem, which fills
    /// the coarse QOIs the top chain reads (`None` on level 0).
    pub fn top_and_coarse(
        &mut self,
    ) -> (&mut MlChain, Option<&mut (dyn SamplingProblem + 'static)>) {
        let (top, below) = self.chains.split_last_mut().expect(LEVEL_0);
        (top, below.last_mut().map(|c| c.problem.as_mut()))
    }

    /// The session level `level` serves to the level above.
    pub fn cursor(&mut self, level: usize) -> &mut Cursor {
        &mut self.cursors[level]
    }

    /// Advance the top chain one step; returns whether it accepted.
    pub fn step(&mut self, rng: &mut dyn Rng) -> bool {
        let (top, below) = self.chains.split_last_mut().expect(LEVEL_0);
        match top.poll_step(rng) {
            StepOutcome::Done(accepted) => accepted,
            StepOutcome::NeedCoarse => {
                let coarse = serve_next(below, &mut self.cursors, &self.rho, top.anchor(), rng);
                top.resume_step(rng, coarse)
            }
        }
    }

    /// One ledger serve of `lease` by the top chain, `rho` kernel steps
    /// per track, which it leaves at the end of the last leg.
    pub fn serve(&mut self, rho: usize, lease: &LedgerLease) -> ServeOutcome {
        serve_lease(&mut self.chains, &mut self.cursors, &self.rho, rho, lease)
    }

    /// The stack's chains (levels `0..=l`) and cursors (levels `0..l`),
    /// as a sequential cut holds them. Every coarse sample they carry has
    /// its QOI, filled on the chain of the sample's level, so a cut holds
    /// no empty slot.
    pub fn export_state(&mut self) -> (Vec<ChainState>, Vec<Cursor>) {
        let mut chains = Vec::with_capacity(self.chains.len());
        for level in 0..self.chains.len() {
            let (below, rest) = self.chains.split_at_mut(level);
            let mut own = rest[0].export_state();
            for sample in [&mut own.anchor, &mut own.last_coarse, &mut own.last_pairing] {
                fill_sample(below, sample.as_mut());
            }
            chains.push(own);
        }
        let mut cursors = self.cursors.clone();
        for (level, cursor) in cursors.iter_mut().enumerate() {
            fill_sample(&mut self.chains[..=level], cursor.pairing.as_mut());
        }
        (chains, cursors)
    }

    /// Restore what [`export_state`](Self::export_state) captured on a
    /// stack of the same factory and level.
    pub fn import_state(&mut self, chains: Vec<ChainState>, cursors: Vec<Cursor>) {
        for (chain, state) in self.chains.iter_mut().zip(chains) {
            chain.import_state(state);
        }
        self.cursors = cursors;
    }
}

const LEVEL_0: &str = "a stack holds level 0";

/// `theta` on the top of `chains`, its density first, then its
/// sub-anchor on the levels below, recursively.
fn anchor_at(chains: &mut [MlChain], theta: &[f64]) -> CoarseSample {
    // only a coupled level is anchored, and it has a level below
    let (chain, below) = chains.split_last_mut().expect("a level to anchor on");
    let mut sample = CoarseSample::at(chain.problem.as_mut(), theta);
    if let Some(coarse_dim) = below.last().map(|c| c.state().theta.len()) {
        sample.sub_anchor = Some(Box::new(anchor_at(below, &theta[..coarse_dim])));
    }
    sample
}

/// Fill the QOI of `sample` — a sample of the top of `chains`' level —
/// and of its sub-anchors, each on its own level's chain (a stack's
/// samples carry no mate: `resume_step` takes it off).
fn fill_sample(chains: &mut [MlChain], sample: Option<&mut CoarseSample>) {
    let Some(sample) = sample else {
        return;
    };
    // a sample exists only on a level with a chain
    let (chain, below) = chains
        .split_last_mut()
        .expect("a chain of the sample's level");
    sample.fill_qoi(chain.problem.as_mut());
    fill_sample(below, sample.sub_anchor.as_deref_mut());
}

/// Serve the top of `chains` to `anchor` from its cursor, the last of
/// `cursors` (lease, serve, write back; a seed is drawn from `rng`).
fn serve_next(
    chains: &mut [MlChain],
    cursors: &mut [Cursor],
    rho: &[usize],
    anchor: Option<&CoarseSample>,
    rng: &mut dyn Rng,
) -> CoarseSample {
    // the top of `chains` serves, and every serving level has a cursor
    let (cursor, below) = cursors.split_last_mut().expect("a serving level");
    let level = below.len();
    let session_seed = *cursor
        .session_seed
        .get_or_insert_with(|| ledger::session_seed(rng.next_u64(), level, 0));
    let lease = LedgerLease {
        session_seed,
        serves: cursor.serves,
        pairing: cursor.pairing.take(),
        // only a coupled chain suspends, and a coupled chain has an anchor
        anchor: anchor.expect("a suspended chain is coupled").clone(),
    };
    let out = serve_lease(chains, below, rho, rho[level], &lease);
    cursor.serves += 1;
    cursor.diverged_serves += u64::from(out.diverged);
    cursor.pairing = Some(out.pairing);
    out.proposal
}

/// Drive a [`Serve`] of `lease` on the top of `chains` to its end, each
/// suspended kernel step answered one level down on the leg stream.
fn serve_lease(
    chains: &mut [MlChain],
    cursors: &mut [Cursor],
    rhos: &[usize],
    rho: usize,
    lease: &LedgerLease,
) -> ServeOutcome {
    let (chain, below) = chains.split_last_mut().expect("a serving level");
    let mut serve = Serve::start(chain, rho, lease);
    loop {
        match serve.step(chain, lease) {
            ServeStep::Stepped => {}
            ServeStep::NeedCoarse => {
                let coarse = serve_next(below, cursors, rhos, chain.anchor(), serve.rng());
                serve.resume(chain, coarse);
            }
            ServeStep::Done(outcome) => return outcome,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// `chain`'s problem evaluated at `theta`.
    pub(crate) fn anchor_on(chain: &mut MlChain, theta: &[f64]) -> CoarseSample {
        CoarseSample::at(chain.problem.as_mut(), theta)
    }

    /// A stack by hand: `chains` on levels `0..`, level `k` serving at
    /// `rho[k]`.
    pub(crate) fn stack(chains: Vec<MlChain>, rho: Vec<usize>) -> ChainStack {
        assert_eq!(rho.len() + 1, chains.len());
        ChainStack {
            chains,
            cursors: vec![Cursor::default(); rho.len()],
            rho,
        }
    }

    /// `coarse` serving, at `rho`, a coupled chain on `fine` started at
    /// `theta0` whose tail proposal is a random walk of width `tail`.
    pub(crate) fn two_level(
        mut coarse: MlChain,
        fine: Box<dyn uq_mcmc::SamplingProblem>,
        tail: f64,
        rho: usize,
        theta0: Vec<f64>,
    ) -> ChainStack {
        let coarse_dim = coarse.state().theta.len();
        let anchor = anchor_on(&mut coarse, &theta0[..coarse_dim]);
        let tail = Box::new(GaussianRandomWalk::new(tail));
        let fine = MlChain::coupled(1, fine, anchor, tail, coarse_dim, theta0);
        stack(vec![coarse, fine], vec![rho])
    }

    #[test]
    fn identical_levels_accept_everything() {
        // ν_l = ν_{l-1} ⇒ the Algorithm-2 ratio is exactly 1
        let coarse = base_gaussian_chain(0.0, 1.0, 2);
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![0.0; 2], 1.0)),
            0.5,
            3,
            vec![0.0; 2],
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(fine.step(&mut rng), "identical levels must always accept");
        }
        assert_eq!(fine.top().acceptance_rate(), 1.0);
    }

    #[test]
    fn coupled_chain_targets_fine_distribution() {
        // coarse N(0.5, 0.8²), fine N(1.0, 0.5²): fine chain must converge
        // to the FINE target despite coarse proposals
        let coarse = base_gaussian_chain(0.5, 0.8, 1);
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            0.5,
            3,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut trace = Vec::new();
        for i in 0..60_000 {
            fine.step(&mut rng);
            if i >= 2000 {
                trace.push(fine.top().state().theta[0]);
            }
        }
        let mean = stats::mean(&trace);
        let sd = stats::variance(&trace).sqrt();
        assert!((mean - 1.0).abs() < 0.03, "fine mean {mean}");
        assert!((sd - 0.5).abs() < 0.03, "fine sd {sd}");
        let rate = fine.top().acceptance_rate();
        assert!(rate > 0.3 && rate < 1.0, "acceptance {rate}");
    }

    #[test]
    fn rewind_restores_exactness_under_small_rho() {
        // with rho = 1 the naive (non-rewinding) scheme is maximally
        // biased; the rewinding kernel must still target the fine
        // distribution exactly
        let coarse = base_gaussian_chain(0.0, 1.0, 1);
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![1.5], 0.4)),
            0.5,
            1,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut trace = Vec::new();
        for i in 0..120_000 {
            fine.step(&mut rng);
            if i >= 5000 {
                trace.push(fine.top().state().theta[0]);
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
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            0.5,
            8,
            vec![1.0],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut trace = Vec::new();
        for i in 0..20_000 {
            fine.step(&mut rng);
            if i >= 1000 {
                trace.push(fine.top().state().theta[0]);
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
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![-5.0], 0.2)),
            0.5,
            2,
            vec![-5.0],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut prev: Option<Vec<f64>> = None;
        let mut changed = 0;
        for _ in 0..50 {
            fine.step(&mut rng);
            let lc = fine.top().last_coarse().expect("must record coarse sample");
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
        assert_eq!(fine.top().state().theta, vec![-5.0]);
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
        let mut fine = two_level(coarse, Box::new(Fine2d), 0.6, 3, vec![0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut tail_trace = Vec::new();
        for i in 0..40_000 {
            fine.step(&mut rng);
            if i >= 2000 {
                tail_trace.push(fine.top().state().theta[1]);
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
        let mut chain = ChainStack::new(&h, 2);
        assert_eq!(chain.top().level(), 2);
        let mut rng = StdRng::seed_from_u64(6);
        let mut trace = Vec::new();
        for i in 0..12_000 {
            chain.step(&mut rng);
            if i >= 1000 {
                trace.push(chain.top().state().theta[0]);
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
        let mut fine = two_level(coarse, Box::new(Cutoff), 0.5, 1, vec![0.0]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            fine.step(&mut rng);
            assert!(fine.top().state().theta[0].abs() <= 1.0);
        }
    }

    #[test]
    fn coupled_step_suspends_and_poison_resume_rejects() {
        let anchor = CoarseSample::at(&mut GaussianTarget::new(vec![0.0], 1.0), &[0.0]);
        let mut fine = MlChain::coupled(
            1,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            anchor,
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
    fn export_import_continues_recursive_stack_bit_for_bit() {
        // three-level stack: run 300 steps, export, rebuild a fresh
        // identical stack, import, and require the continuation to match
        // the uninterrupted chain exactly (same caller RNG position)
        let h = GaussianHierarchy::three_level(2);
        let mut chain = ChainStack::new(&h, 2);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..300 {
            chain.step(&mut rng);
        }
        let (chains, cursors) = chain.export_state();
        assert_eq!((chains.len(), cursors.len()), (3, 2), "every level exports");
        let rng_state = rng.state();

        let mut resumed = ChainStack::new(&h, 2);
        resumed.import_state(chains.clone(), cursors.clone());
        assert_eq!(
            resumed.export_state(),
            (chains, cursors),
            "import/export roundtrip"
        );
        let mut rng_resumed = StdRng::from_state(rng_state);
        for _ in 0..300 {
            let a = chain.step(&mut rng);
            let b = resumed.step(&mut rng_resumed);
            assert_eq!(a, b, "acceptance decisions diverged after resume");
            assert_eq!(chain.top().state().theta, resumed.top().state().theta);
        }
        assert_eq!(chain.export_state(), resumed.export_state());
    }

    #[test]
    fn restore_roundtrips_state_and_anchor() {
        let coarse = base_gaussian_chain(0.5, 0.8, 1);
        let mut fine = two_level(
            coarse,
            Box::new(GaussianTarget::new(vec![1.0], 0.5)),
            0.5,
            2,
            vec![0.0],
        );
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            fine.step(&mut rng);
        }
        let snapshot = fine.top().current_as_sample();
        for _ in 0..20 {
            fine.step(&mut rng);
        }
        fine.top().restore(&snapshot);
        assert_eq!(fine.top().state().theta, snapshot.theta);
        assert_eq!(fine.top().state().log_density, snapshot.log_density);
        assert!(fine.top().current_as_sample().sub_anchor.is_some());
    }
}
