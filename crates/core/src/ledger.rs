//! The per-requester **rewind ledger**: exact multilevel coupling state.
//!
//! ## Why a ledger
//!
//! The coupled kernel (paper Algorithm 2) is only exact if each fine
//! chain's coarse proposals are drawn from the coarse kernel `K_{l-1}^ρ`
//! **started at the coarse state paired with the requester's current fine
//! state** (the *anchor*) — by reversibility the `K^ρ` proposal densities
//! then cancel into the coarse density ratio. The telescoping estimator,
//! on the other hand, needs a coarse stream whose marginal is exactly
//! `π_{l-1}` to pair against: an autonomous subchain **continued from the
//! last sample served to that requester**, never rewound. No single
//! stream can satisfy both at once — rewinding to the anchor gives the
//! served stream the marginal `π_l K^ρ`, while continuing from the last
//! served sample makes the acceptance ratio inexact after a rejection
//! (both effects are `O(contraction^ρ)`; DESIGN.md §5 derives them).
//!
//! The ledger therefore maintains, per requester, a **session** with two
//! coupled tracks:
//!
//! * the **proposal track** rewinds the serving chain to the requester's
//!   anchor and advances `ρ` steps — the Algorithm-2 proposal, keeping
//!   the fine marginal exact for every `ρ`;
//! * the **pairing track** continues from the session's last pairing
//!   state (initially the requester's starting anchor) and advances `ρ`
//!   steps with the same driving randomness — an autonomous `K^ρ`
//!   subchain whose marginal is exactly `π_{l-1}`, the correction mate
//!   the estimator pairs against under [`PairingMode::Ledger`].
//!
//! While the requester keeps accepting, anchor and pairing state are
//! bit-identical and one `ρ`-step run serves both tracks; after the
//! first rejection they diverge and the pairing leg runs separately,
//! driven by the *same* per-serve random substream (common random
//! numbers), which keeps the mate tightly correlated with the proposal
//! without ever feeding fine-chain acceptances back into the pairing
//! track (that feedback is exactly what would bias it).
//!
//! Only a requester's own correction reads the mate, and only under
//! [`PairingMode::Ledger`] ([`reads_mate`]); every other request leases
//! without one ([`LedgerLease::mate`]): its serve runs the proposal leg
//! alone and leaves the pairing track where it is. The track is then
//! advanced by the mate-reading serves only — still an autonomous `K^ρ`
//! subchain, so its marginal stays `π_{l-1}`.
//!
//! ## Determinism and migration
//!
//! A session is identified by a seed; the randomness of serve `k` is a
//! substream derived from `(session_seed, k)`, **not** from any caller
//! RNG or server-resident state. A level-0 serve is therefore a pure
//! function of `(lease, serving problem)`: any server can execute any
//! session's next serve from a [`LedgerLease`], sessions migrate between
//! servers as plain data, and the sequential backend reproduces a runtime
//! controller's serves bit-for-bit (pinned by the parity suite in
//! `tests/ledger_exactness.rs`). A coupled server's serve is not: each
//! kernel step of its legs asks for a coarse proposal of its own, leased
//! from the *server's* session on the level below — the session its own
//! chain's steps draw from too. Its outcome therefore also depends on how
//! far that session has advanced, that is, on how the server interleaved
//! its own steps with its serve legs (DESIGN.md §7.4: why a three-level
//! run is reproducible only on one worker or per delivery seed).

use crate::coupled::{CoarseSample, MlChain, StepOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Which coarse stream the telescoping estimator pairs corrections with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PairingMode {
    /// Pair with the served proposal (`MlChain::last_coarse`). This is
    /// the historical pairing: lowest correction variance (the proposal
    /// couples tightly to the fine state) but an `O(contraction^ρ)` bias
    /// in the correction mean — the served-proposal marginal is
    /// `π_l K^ρ`, not `π_{l-1}`.
    #[default]
    Proposal,
    /// Pair with the ledger's pairing mate (`MlChain::last_pairing`):
    /// the autonomous per-requester subchain with marginal exactly
    /// `π_{l-1}`, making the correction mean unbiased for every `ρ`. The
    /// mate decouples from the fine state after rejections, so the
    /// correction variance is higher than [`PairingMode::Proposal`]'s —
    /// the measured trade-off is documented in DESIGN.md §5.
    Ledger,
}

/// Whether a coarse request's step reads the pairing mate: a requester's
/// own step (burn-in included) under [`PairingMode::Ledger`]. A nested
/// request from inside a serve leg never does, and under
/// [`PairingMode::Proposal`] nothing does. The one statement of the rule:
/// every driver asks it and puts the answer on the request.
pub fn reads_mate(own_step: bool, pairing: PairingMode) -> bool {
    own_step && pairing == PairingMode::Ledger
}

/// Mix function (splitmix64 finalizer) used for all ledger seed
/// derivations.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of a requester's session stream: every backend derives it the
/// same way so ledgers are comparable across backends.
pub fn session_seed(base: u64, coarse_level: usize, requester: u64) -> u64 {
    mix(base
        .wrapping_add(mix(coarse_level as u64 ^ 0x1EDA_6E55))
        .wrapping_add(mix(requester ^ 0x9E37_79B9_7F4A_7C15)))
}

/// Seed of serve `serve_index`'s driving substream. Both tracks of a
/// diverged serve reuse the same substream (common random numbers), so
/// the mate stays coupled to the proposal without acceptance feedback.
fn leg_seed(session_seed: u64, serve_index: u64) -> u64 {
    mix(session_seed ^ serve_index.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Seed namespace of a **tenant** sharing a long-lived service
/// (`uq_parallel::service`): every job a tenant submits derives its
/// effective base seed through this, so two tenants submitting the very
/// same config can never collide on a [`session_seed`] (and hence never
/// share a serve substream). Deliberately *not* the identity for
/// any tenant — a serviced job is always namespaced, and the standalone
/// run it must be bit-identical to uses the same derived seed.
pub fn tenant_seed(base: u64, tenant: u64) -> u64 {
    mix(base.wrapping_add(mix(tenant ^ 0xB5AD_4ECE_DA1C_E2A9)))
}

/// Everything a (stateless) server needs to execute one serve of a
/// session: the requester's current anchor, the session's pairing state
/// and stream position, and whether the requester reads the mate. Sessions
/// are plain data — the ledger can live at the phonebook and leases travel
/// in messages.
#[derive(Clone, Debug)]
pub struct LedgerLease {
    /// Session stream identity (see [`session_seed`]).
    pub session_seed: u64,
    /// Serves completed so far (the stream position).
    pub serves: u64,
    /// The requester's step reads the mate ([`reads_mate`]): the serve
    /// advances the pairing track too. Without it the serve runs the
    /// proposal leg alone and the lease carries no `pairing`.
    pub mate: bool,
    /// The pairing track's current state — `None` before the first
    /// mate-reading serve (the track then starts merged at the requester's
    /// anchor) and on a lease without a mate.
    pub pairing: Option<CoarseSample>,
    /// The coarse state paired with the requester's current fine state.
    pub anchor: CoarseSample,
}

impl LedgerLease {
    /// A fresh session lease for `anchor`, read with its mate.
    pub fn fresh(session_seed: u64, anchor: CoarseSample) -> Self {
        Self {
            session_seed,
            serves: 0,
            mate: true,
            pairing: None,
            anchor,
        }
    }

    /// Whether the pairing track currently coincides with the anchor
    /// (one `ρ`-step run then serves both tracks).
    pub fn merged(&self) -> bool {
        match &self.pairing {
            None => true,
            Some(p) => p.theta == self.anchor.theta,
        }
    }
}

/// One executed serve: the Algorithm-2 proposal (with the pairing mate
/// piggybacked in [`CoarseSample::mate`]), the session's advanced pairing
/// state, and whether the tracks were diverged.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutcome {
    /// The proposal to fulfill the requester's step with; its `mate`
    /// field carries the pairing state served alongside, if any.
    pub proposal: CoarseSample,
    /// The pairing track's new state (becomes the session's `pairing`);
    /// `None` when the lease had no mate and the track did not move.
    pub pairing: Option<CoarseSample>,
    /// The pairing leg ran separately from the proposal leg.
    pub diverged: bool,
}

impl ServeOutcome {
    /// Package the tracks' end states: `pairing` rides to the requester as
    /// `proposal.mate`, a clone that shares its QOI with the write-back
    /// copy.
    pub fn new(mut proposal: CoarseSample, pairing: Option<CoarseSample>, diverged: bool) -> Self {
        proposal.mate = pairing.clone().map(Box::new);
        Self {
            proposal,
            pairing,
            diverged,
        }
    }
}

/// What one [`Serve::step`] did.
#[derive(Debug)]
pub enum ServeStep {
    /// One kernel step of the current leg completed.
    Stepped,
    /// The serving chain is coupled: its kernel step is suspended until
    /// [`Serve::resume`] hands it the coarse sample.
    NeedCoarse,
    /// Every track the lease asks for is at its end state.
    Done(ServeOutcome),
}

/// One ledger serve as a resumable value, the one statement of the
/// serve: a parallel controller drives it one kernel step per poll, the
/// sequential [`ChainStack`](crate::coupled::ChainStack) to the end; both
/// answer its nested coarse requests like a coupled step's
/// ([`MlChain::poll_step`] / [`MlChain::resume_step`], one layer up). The
/// caller keeps the chain and the lease between calls; every
/// [`step`](Self::step) takes the lease the serve started with.
pub struct Serve {
    rho: usize,
    /// Kernel steps left in the current leg.
    steps_left: usize,
    /// The serve's random substream (see [`leg_seed`]).
    rng: StdRng,
    /// The proposal track's end state, while the pairing leg runs.
    proposal: Option<CoarseSample>,
}

impl Serve {
    /// Rewind `chain` to the lease's anchor and seed the proposal leg.
    pub fn start(chain: &mut MlChain, rho: usize, lease: &LedgerLease) -> Self {
        let rho = rho.max(1);
        chain.restore(&lease.anchor);
        Self {
            rho,
            steps_left: rho,
            rng: leg_rng(lease),
            proposal: None,
        }
    }

    /// Advance one kernel step, or finish: a proposal leg that ends on
    /// a diverged lease with a mate switches to the pairing leg by itself.
    pub fn step(&mut self, chain: &mut MlChain, lease: &LedgerLease) -> ServeStep {
        if self.steps_left == 0 {
            let end = chain.current_as_sample();
            if let Some(proposal) = self.proposal.take() {
                return ServeStep::Done(ServeOutcome::new(proposal, Some(end), true));
            }
            if !lease.mate {
                // nobody reads the mate: the pairing track stays put
                return ServeStep::Done(ServeOutcome::new(end, None, false));
            }
            let Some(pairing) = lease.pairing.as_ref().filter(|_| !lease.merged()) else {
                // merged: one run serves both tracks
                return ServeStep::Done(ServeOutcome::new(end.clone(), Some(end), false));
            };
            // pairing track: continue the autonomous subchain from the
            // last pairing state, re-using the substream
            self.proposal = Some(end);
            self.steps_left = self.rho;
            self.rng = leg_rng(lease);
            chain.restore(pairing);
        }
        match chain.poll_step(&mut self.rng) {
            StepOutcome::Done(_) => {
                self.steps_left -= 1;
                ServeStep::Stepped
            }
            StepOutcome::NeedCoarse => ServeStep::NeedCoarse,
        }
    }

    /// Finish the step that returned [`ServeStep::NeedCoarse`] with the
    /// coarse sample obtained out of band.
    pub fn resume(&mut self, chain: &mut MlChain, coarse: CoarseSample) {
        chain.resume_step(&mut self.rng, coarse);
        self.steps_left -= 1;
    }

    /// The leg stream, lent to a suspended step's requester: a sequential
    /// nested session draws its seed from it, as from any requester's.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// The driving substream of the lease's serve.
fn leg_rng(lease: &LedgerLease) -> StdRng {
    StdRng::seed_from_u64(leg_seed(lease.session_seed, lease.serves))
}

/// Aggregate ledger statistics (kept by the phonebooks, reported with
/// the run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Sessions opened (one per requester/coarse-level pair).
    pub sessions: usize,
    /// Serves committed to a session.
    pub serves: usize,
    /// Committed serves that ran the separate pairing leg: a lease with a
    /// mate on a session whose pairing track had diverged from the anchor
    /// (each costs a second `ρ`-step leg on the server).
    pub diverged: usize,
    /// Always 0: speculative serves were removed. Kept only because the
    /// benchmark reads the field; the snapshot codec does not write it.
    pub spec_launched: usize,
    /// Always 0, for the same reason as `spec_launched`.
    pub spec_hits: usize,
}

impl LedgerStats {
    /// Fraction of committed serves that needed the separate pairing leg.
    pub fn diverged_fraction(&self) -> f64 {
        if self.serves == 0 {
            0.0
        } else {
            self.diverged as f64 / self.serves as f64
        }
    }
}

/// Phonebook-side record of one requester's ledger session.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    pub seed: u64,
    pub serves: u64,
    pub pairing: Option<CoarseSample>,
}

/// The phonebook's per-requester session registry — the rewind ledger.
/// Keyed by `(requester rank, coarse level)`; the phonebook drives this
/// one book under every executor, which is what keeps their serves
/// comparable bit-for-bit.
///
/// ## Checkpointing
///
/// The book is its own snapshot: a checkpoint clones it and the snapshot
/// codec ([`crate::store`]) writes every map sorted by key, so equal
/// books are equal bytes, and refuses a map whose keys are not strictly
/// increasing. A resumed book continues every session at its exact
/// stream position, so post-resume serves derive the very substreams the
/// uninterrupted run would have.
///
/// ## Reassignment
///
/// A session is never dropped. A chain that the load balancer moves to
/// another level and later back continues its session where it stood:
/// the same seed, the next stream position, its own pairing track. A
/// stream position only advances ([`write_back`](Self::write_back) drops
/// a stale one), so no substream is ever served twice, and a write-back
/// still in flight when its requester moved is applied like any other.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerBook {
    /// Sessions, keyed by `(requester rank, coarse level)`.
    pub sessions: HashMap<(usize, usize), Session>,
    /// Aggregate counters, reported with the run.
    pub stats: LedgerStats,
}

impl LedgerBook {
    /// Build the lease for the next serve of `(reply_to, level)`, opening
    /// the session on first contact; `mate` is the request's
    /// [`reads_mate`], and only a lease with a mate carries the pairing
    /// state.
    pub fn lease(
        &mut self,
        base_seed: u64,
        level: usize,
        reply_to: usize,
        anchor: CoarseSample,
        mate: bool,
    ) -> Box<LedgerLease> {
        let stats = &mut self.stats;
        let session = self.sessions.entry((reply_to, level)).or_insert_with(|| {
            stats.sessions += 1;
            Session {
                seed: session_seed(base_seed, level, reply_to as u64),
                serves: 0,
                pairing: None,
            }
        });
        Box::new(LedgerLease {
            session_seed: session.seed,
            serves: session.serves,
            mate,
            pairing: session.pairing.as_ref().filter(|_| mate).cloned(),
            anchor,
        })
    }

    /// Apply a serve's write-back: advance the stream position to
    /// `serves` and store the pairing state, if the serve advanced it (a
    /// lease without a mate leaves the track where it is).
    pub fn write_back(
        &mut self,
        requester: usize,
        level: usize,
        serves: u64,
        pairing: Option<CoarseSample>,
        diverged: bool,
    ) {
        let Some(session) = self.sessions.get_mut(&(requester, level)) else {
            return;
        };
        if serves <= session.serves {
            // stale position: committing it would rewind the stream and
            // let a later lease replay a substream already served (the
            // no-replay invariant; the phonebook's message order never
            // sends one, the book refuses it on its own)
            return;
        }
        self.stats.serves += 1;
        self.stats.diverged += usize::from(diverged);
        session.serves = serves;
        if pairing.is_some() {
            session.pairing = pairing;
        }
    }

    /// Stream position of `(requester, level)`'s session, if opened.
    pub fn session_serves(&self, requester: usize, level: usize) -> Option<u64> {
        self.sessions.get(&(requester, level)).map(|s| s.serves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupled::tests::{anchor_on, stack, two_level};
    use crate::coupled::{ChainStack, MlChain};
    use crate::store::{Codec, Dec, Enc};
    use uq_mcmc::problem::GaussianTarget;
    use uq_mcmc::proposal::GaussianRandomWalk;

    fn base(mean: f64, sd: f64) -> MlChain {
        MlChain::base(
            Box::new(GaussianTarget::new(vec![mean], sd)),
            Box::new(GaussianRandomWalk::new(0.6)),
            vec![0.0],
        )
    }

    /// A lone level-0 serving chain.
    fn base_chain(mean: f64, sd: f64) -> ChainStack {
        stack(vec![base(mean, sd)], Vec::new())
    }

    fn anchor(chain: &mut ChainStack, theta: f64) -> CoarseSample {
        anchor_on(chain.top(), &[theta])
    }

    /// One serve of `lease` by the top of `chain`, driven to the end.
    fn serve(chain: &mut ChainStack, rho: usize, lease: &LedgerLease) -> ServeOutcome {
        chain.serve(rho, lease)
    }

    /// The pairing end state of a serve whose lease asked for the mate.
    fn mate_of(out: &ServeOutcome) -> &CoarseSample {
        out.pairing.as_ref().expect("a lease with a mate")
    }

    #[test]
    fn tenant_seed_namespaces_are_disjoint() {
        // distinct tenants on the same base seed must land on distinct
        // session streams for every (level, requester) pair — the
        // cross-tenant isolation the service conformance suite relies on
        let base = 0xDEAD_2026;
        let seeds: Vec<u64> = (0..64).map(|t| tenant_seed(base, t)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "tenant seeds collided");
        assert!(
            seeds.iter().all(|&s| s != base),
            "tenant namespacing must never be the identity"
        );
        for (a, &sa) in seeds.iter().enumerate() {
            for &sb in &seeds[a + 1..] {
                for level in 0..3 {
                    for requester in 0..8 {
                        assert_ne!(
                            session_seed(sa, level, requester),
                            session_seed(sb, level, requester),
                            "session streams of two tenants collided"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn serve_is_deterministic_in_the_lease() {
        // a serve is a pure function of the lease: two different chain
        // instances (different trajectories) produce identical serves
        let mut a = base_chain(0.3, 0.8);
        let mut b = base_chain(0.3, 0.8);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..17 {
            b.step(&mut rng); // desynchronize b's own trajectory
        }
        let lease = LedgerLease::fresh(session_seed(7, 0, 4), anchor(&mut a, 0.1));
        let oa = serve(&mut a, 3, &lease);
        let ob = serve(&mut b, 3, &lease);
        assert_eq!(oa.proposal.theta, ob.proposal.theta);
        assert_eq!(mate_of(&oa).theta, mate_of(&ob).theta);
        assert_eq!(oa.proposal.log_density, ob.proposal.log_density);
    }

    #[test]
    fn merged_session_serves_one_leg() {
        let mut chain = base_chain(0.0, 1.0);
        let lease = LedgerLease::fresh(1, anchor(&mut chain, 0.0));
        assert!(lease.merged());
        let out = serve(&mut chain, 2, &lease);
        assert!(!out.diverged);
        assert_eq!(out.proposal.theta, mate_of(&out).theta);
        // accepted proposal keeps the session merged
        let accepted = LedgerLease {
            serves: 1,
            pairing: out.pairing.clone(),
            anchor: mate_of(&out).clone(),
            ..lease
        };
        assert!(accepted.merged());
    }

    #[test]
    fn rejected_proposal_diverges_the_session() {
        let mut chain = base_chain(0.0, 1.0);
        let a0 = anchor(&mut chain, 0.0);
        let lease = LedgerLease::fresh(2, a0.clone());
        let out = serve(&mut chain, 2, &lease);
        // requester rejected: anchor stays, pairing advanced
        let rejected = LedgerLease {
            serves: 1,
            pairing: out.pairing,
            anchor: a0,
            ..lease
        };
        assert!(!rejected.merged());
        let out2 = serve(&mut chain, 2, &rejected);
        assert!(out2.diverged);
        // the proposal still starts from the anchor (exactness rewind):
        // with common random numbers from distinct starts the two tracks
        // generally end at distinct states
        assert_ne!(out2.proposal.theta, mate_of(&out2).theta);
        assert_eq!(
            out2.proposal.mate.as_ref().map(|m| m.theta.clone()),
            Some(mate_of(&out2).theta.clone())
        );
    }

    #[test]
    fn a_lease_without_a_mate_serves_the_proposal_leg_alone() {
        // a diverged session, leased with and without the mate: the same
        // proposal, and the mateless serve leaves the pairing track alone
        let mut chain = base_chain(0.1, 0.9);
        let mut book = LedgerBook::default();
        let requester = 6usize;
        let first = book.lease(5, 0, requester, anchor(&mut chain, 0.0), true);
        let out = serve(&mut chain, 2, &first);
        book.write_back(requester, 0, 1, out.pairing.clone(), out.diverged);
        let stored = book.sessions[&(requester, 0)].pairing.clone();
        // the requester rejected: the anchor stays, the tracks diverge
        let with = book.lease(5, 0, requester, first.anchor.clone(), true);
        let without = book.lease(5, 0, requester, first.anchor.clone(), false);
        assert!(!with.merged() && without.pairing.is_none());
        let (two, one) = (serve(&mut chain, 2, &with), serve(&mut chain, 2, &without));
        assert!(two.diverged && !one.diverged);
        assert!(one.pairing.is_none() && one.proposal.mate.is_none());
        let bare = CoarseSample {
            mate: None,
            ..two.proposal.clone()
        };
        assert_eq!(words(&one.proposal), words(&bare));
        // its write-back advances the stream, not the pairing state
        book.write_back(requester, 0, 2, None, one.diverged);
        assert_eq!(book.session_serves(requester, 0), Some(2));
        assert_eq!(book.sessions[&(requester, 0)].pairing, stored);
        assert_eq!((book.stats.serves, book.stats.diverged), (2, 0));
    }

    #[test]
    fn pairing_track_ignores_the_anchor_when_diverged() {
        // the pairing track is autonomous: with identical session state,
        // different anchors change the proposal but not the mate
        let mut chain = base_chain(0.2, 0.7);
        let p = anchor(&mut chain, -0.4);
        let mk = |theta: f64, chain: &mut ChainStack| LedgerLease {
            session_seed: 11,
            serves: 3,
            mate: true,
            pairing: Some(p.clone()),
            anchor: anchor(chain, theta),
        };
        let la = mk(1.0, &mut chain);
        let lb = mk(-1.0, &mut chain);
        let oa = serve(&mut chain, 2, &la);
        let ob = serve(&mut chain, 2, &lb);
        assert_eq!(mate_of(&oa).theta, mate_of(&ob).theta);
        assert_ne!(oa.proposal.theta, ob.proposal.theta);
    }

    /// A level-1 chain on `N(0.4, 0.6²)` over [`base`]`(0.3, 0.8)` at
    /// `ρ = 3`, the level-0 session seed pinned.
    fn level1(nested_seed: u64) -> ChainStack {
        let fine = Box::new(GaussianTarget::new(vec![0.4], 0.6));
        let mut chain = two_level(base(0.3, 0.8), fine, 0.5, 3, vec![0.0]);
        chain.cursor(0).session_seed = Some(nested_seed);
        chain
    }

    /// Every word of a sample, through its sub-anchor and mate.
    fn words(s: &CoarseSample) -> Vec<u64> {
        let mut w: Vec<u64> = s
            .theta
            .iter()
            .chain([&s.log_density])
            .chain(s.qoi.iter().flat_map(|q| q.iter()))
            .map(|x| x.to_bits())
            .collect();
        w.push(u64::from(s.qoi.is_some()));
        for inner in [&s.sub_anchor, &s.mate] {
            w.push(u64::from(inner.is_some()));
            w.extend(inner.iter().flat_map(|i| words(i)));
        }
        w
    }

    #[test]
    fn a_suspended_serve_equals_the_blocking_serve_bit_for_bit() {
        // anchor and pairing state come from a third stack, so the
        // sessions of the two under test start untouched
        let mut walker = level1(0xC0FFEE);
        let mut rng = StdRng::seed_from_u64(3);
        let mut after = |steps: usize| {
            for _ in 0..steps {
                walker.step(&mut rng);
            }
            walker.top().current_as_sample()
        };
        let merged = LedgerLease::fresh(session_seed(7, 1, 2), after(20));
        let diverged = LedgerLease {
            serves: 5,
            pairing: Some(after(20)),
            ..merged.clone()
        };
        assert!(!diverged.merged());
        // the same session leased by a step that does not read the mate
        let mateless = LedgerLease {
            mate: false,
            pairing: None,
            ..diverged.clone()
        };
        let rho = 4;
        // the nested sessions: requester 2's at level 0 of a phonebook
        // whose base seed is 7
        let (base_seed, requester) = (7, 2);
        let nested_seed = session_seed(base_seed, 0, requester as u64);
        for lease in [merged, diverged, mateless] {
            let expected = serve(&mut level1(nested_seed), rho, &lease);
            // the same serve driven as a controller drives it: a lone
            // level-1 chain whose every step suspends, each nested request
            // leased from a phonebook's book, served by a level-0 chain
            // and written back
            let fine = Box::new(GaussianTarget::new(vec![0.4], 0.6));
            let start = CoarseSample::at(&mut GaussianTarget::new(vec![0.3], 0.8), &[0.0]);
            let tail = Box::new(GaussianRandomWalk::new(0.5));
            let mut chain = MlChain::coupled(1, fine, start, tail, 1, vec![0.0]);
            let mut server = base_chain(0.3, 0.8);
            let mut book = LedgerBook::default();
            let mut nested = 0;
            let mut suspended = Serve::start(&mut chain, rho, &lease);
            let outcome = loop {
                match suspended.step(&mut chain, &lease) {
                    ServeStep::Stepped => {}
                    ServeStep::NeedCoarse => {
                        nested += 1;
                        let anchor = chain.anchor().expect("a coupled chain").clone();
                        // a serve leg's nested request never reads its mate
                        let nested_lease = book.lease(base_seed, 0, requester, anchor, false);
                        let out = serve(&mut server, 3, &nested_lease);
                        let serves = nested_lease.serves + 1;
                        book.write_back(requester, 0, serves, out.pairing, out.diverged);
                        suspended.resume(&mut chain, out.proposal);
                    }
                    ServeStep::Done(outcome) => break outcome,
                }
            };
            let two_legs = lease.mate && !lease.merged();
            let legs = if two_legs { 2 } else { 1 };
            assert_eq!(nested, legs * rho, "every level-1 kernel step asks once");
            assert_eq!(outcome.diverged, expected.diverged);
            assert_eq!(outcome.diverged, two_legs);
            // the proposal's words include its mate's
            assert_eq!(words(&outcome.proposal), words(&expected.proposal));
            let pairing_words = |o: &ServeOutcome| o.pairing.as_ref().map(words);
            assert_eq!(pairing_words(&outcome), pairing_words(&expected));
            assert_eq!(outcome.pairing.is_some(), lease.mate);
        }
    }

    #[test]
    fn seeds_are_distinct_across_sessions_and_serves() {
        let s1 = session_seed(9, 0, 4);
        let s2 = session_seed(9, 0, 5);
        let s3 = session_seed(9, 1, 4);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(leg_seed(s1, 0), leg_seed(s1, 1));
    }

    #[test]
    fn stats_report_diverged_fraction() {
        let mut s = LedgerStats::default();
        assert_eq!(s.diverged_fraction(), 0.0);
        s.serves = 4;
        s.diverged = 1;
        assert!((s.diverged_fraction() - 0.25).abs() < 1e-12);
    }

    /// Serve `lease` and write it back, as a phonebook's `ServeDone`
    /// does; returns the outcome.
    fn serve_and_write_back(
        book: &mut LedgerBook,
        chain: &mut ChainStack,
        requester: usize,
        lease: &LedgerLease,
    ) -> ServeOutcome {
        let out = serve(chain, 2, lease);
        let serves = lease.serves + 1;
        book.write_back(requester, 0, serves, out.pairing.clone(), out.diverged);
        out
    }

    #[test]
    fn stale_write_backs_are_dropped() {
        let mut chain = base_chain(0.3, 0.8);
        let mut book = LedgerBook::default();
        let requester = 4usize;
        let lease = book.lease(9, 0, requester, anchor(&mut chain, 0.1), true);
        let out = serve_and_write_back(&mut book, &mut chain, requester, &lease);
        assert_eq!(book.session_serves(requester, 0), Some(1));

        // a second write-back of the same position must not commit twice
        book.write_back(requester, 0, 1, out.pairing.clone(), true);
        assert_eq!(book.session_serves(requester, 0), Some(1));
        assert_eq!(book.stats.serves, 1);
        assert_eq!(book.stats.diverged, usize::from(out.diverged));
    }

    #[test]
    fn a_requester_that_leaves_a_level_and_returns_continues_its_session() {
        // the balancer moves requester 4's chain from level 1 to level 2
        // while its second level-0 serve is in flight, and later back
        let mut chain = base_chain(0.3, 0.8);
        let mut book = LedgerBook::default();
        let requester = 4usize;
        let first = book.lease(9, 0, requester, anchor(&mut chain, 0.1), true);
        serve_and_write_back(&mut book, &mut chain, requester, &first);
        let in_flight = book.lease(9, 0, requester, anchor(&mut chain, 0.2), true);
        let out = serve(&mut chain, 2, &in_flight);
        // on level 2 it leases level-1 serves, from a session of its own
        let elsewhere = book.lease(9, 1, requester, anchor(&mut chain, 0.0), true);
        assert_eq!(elsewhere.serves, 0);
        assert_ne!(elsewhere.session_seed, first.session_seed);
        // the write-back in flight when it left is applied
        book.write_back(requester, 0, 2, out.pairing.clone(), out.diverged);
        assert_eq!(book.stats.serves, 2);
        // back on level 1: the same seed, the next position, its own
        // pairing track
        let back = book.lease(9, 0, requester, anchor(&mut chain, 0.5), true);
        assert_eq!(back.session_seed, session_seed(9, 0, requester as u64));
        assert_eq!((back.session_seed, back.serves), (first.session_seed, 2));
        assert_eq!(back.pairing, out.pairing);
        assert_eq!(book.stats.sessions, 2);
    }

    #[test]
    fn export_import_resumes_sessions_at_exact_positions() {
        // serve twice, export, rebuild the book, and require (a) the
        // export to round-trip exactly and (b) the resumed book to lease
        // the next serve identically
        let mut chain = base_chain(0.1, 0.9);
        let mut book = LedgerBook::default();
        let requester = 3usize;
        let lease = book.lease(13, 0, requester, anchor(&mut chain, 0.0), true);
        let out = serve_and_write_back(&mut book, &mut chain, requester, &lease);
        let lease = book.lease(13, 0, requester, anchor(&mut chain, 0.4), true);
        serve_and_write_back(&mut book, &mut chain, requester, &lease);

        let mut enc = Enc::new();
        book.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(book.sessions.len(), 1);
        let mut resumed = LedgerBook::decode(&mut Dec::new(&bytes)).expect("decode");
        assert_eq!(resumed, book, "round-trip must be exact");

        let mut next = out.proposal;
        next.mate = None;
        let a = book.lease(13, 0, requester, next.clone(), true);
        let b = resumed.lease(13, 0, requester, next, true);
        assert_eq!(a.serves, 2);
        assert_eq!((a.session_seed, a.serves), (b.session_seed, b.serves));
        let words = |l: &LedgerLease| l.pairing.as_ref().map(words);
        assert_eq!(words(&a), words(&b));
    }
}
