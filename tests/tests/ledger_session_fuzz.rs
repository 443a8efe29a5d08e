//! Proptest-driven fuzz of **ledger session migration** (PR 5):
//! arbitrary interleavings of lease / serve / write-back / speculation /
//! migrate driven against a [`uq_mlmcmc::ledger::LedgerBook`], checked
//! against an independent mirror model. The invariants are the ones the
//! phonebooks rely on:
//!
//! * **never double-serve** — a session's committed stream positions
//!   advance by exactly one per commit (real write-back or speculation
//!   hit), every lease is issued at the current position, and a
//!   committed speculation returns bit-for-bit the outcome that was
//!   stored for that position;
//! * **never drop a session** — write-backs of the live generation are
//!   always applied, stale/dead-generation messages are always no-ops,
//!   and a migrated-away requester re-opens cleanly at position 0;
//! * **generations never share substreams** — each re-opened session
//!   derives a seed never seen before.
//!
//! Inputs are op-code vectors from the vendored proptest's `vec` + tuple
//! strategies, so a failing interleaving shrinks structurally (dropping
//! ops) and element-wise (simplifying op codes) to a minimal
//! counterexample with a replayable `PROPTEST_SEED`.

use proptest::prelude::*;
use std::collections::HashSet;
use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::coupled::{ChainStack, CoarseSample};
use uq_mlmcmc::ledger::{LedgerBook, LedgerLease, ServeOutcome};
use uq_mlmcmc::store::{Codec, Dec, Enc};
use uq_mlmcmc::LevelFactory;

const RHO: usize = 2;
const BASE_SEED: u64 = 77;
const LEVEL: usize = 0;

/// The serving level: `N(0, 1)` sampled by a random walk of width 0.5.
struct Serving;

fn target() -> GaussianTarget {
    GaussianTarget::new(vec![0.0], 1.0)
}

impl LevelFactory for Serving {
    fn n_levels(&self) -> usize {
        1
    }
    fn problem(&self, _level: usize) -> Box<dyn SamplingProblem> {
        Box::new(target())
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.5))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        RHO
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

fn serving_chain() -> ChainStack {
    ChainStack::new(&Serving, 0)
}

/// Mirror state of one requester's session, maintained independently of
/// the book.
#[derive(Default)]
struct Mirror {
    /// Commits in the current generation (the expected stream position).
    committed: u64,
    /// Session seed of the current generation (set at its first lease).
    cur_seed: Option<u64>,
    /// A real serve whose write-back has not been applied yet.
    outstanding: Option<(Box<LedgerLease>, ServeOutcome)>,
    /// The outcome stored for the current position's speculation, if the
    /// store was accepted.
    stored_spec: Option<ServeOutcome>,
    /// The last committed proposal (the accept-case anchor prediction).
    last_proposal: Option<CoarseSample>,
}

fn encoded(book: &LedgerBook) -> Vec<u8> {
    let mut enc = Enc::new();
    book.encode(&mut enc);
    enc.into_bytes()
}

fn accept_anchor(m: &Mirror) -> Option<CoarseSample> {
    m.last_proposal.clone().map(|mut p| {
        p.mate = None;
        p
    })
}

proptest! {
    #[test]
    fn arbitrary_interleavings_never_double_serve_or_drop_a_session(
        ops in prop::collection::vec((0u8..6, 0u8..2, 0u8..4), 0..48),
    ) {
        let mut chain = serving_chain();
        let mut book = LedgerBook::default();
        let mut mirrors = [Mirror::default(), Mirror::default()];
        let mut seeds_seen: HashSet<u64> = HashSet::new();

        for step in ops.into_iter().map(Some).chain([None]) {
            // the book is its own snapshot in every state an op leaves
            let bytes = encoded(&book);
            let back = LedgerBook::decode(&mut Dec::new(&bytes)).expect("the book decodes");
            prop_assert_eq!(&back, &book);
            prop_assert_eq!(encoded(&back), bytes);
            let Some((op, who, salt)) = step else {
                break;
            };
            let r = 1 + who as usize; // requester ranks 1 and 2
            match op {
                // lease a real serve (the protocol serializes: at most
                // one outstanding real serve per requester)
                0 => {
                    if mirrors[who as usize].outstanding.is_some() {
                        continue;
                    }
                    let anchor = CoarseSample::at(&mut target(), &[f64::from(salt) * 0.1]);
                    let lease = book.lease(BASE_SEED, LEVEL, r, anchor);
                    let m = &mut mirrors[who as usize];
                    // lease must be issued at the current stream position
                    prop_assert_eq!(lease.serves, m.committed);
                    match m.cur_seed {
                        // one generation, one seed
                        Some(seed) => prop_assert_eq!(seed, lease.session_seed),
                        None => {
                            m.cur_seed = Some(lease.session_seed);
                            prop_assert!(
                                seeds_seen.insert(lease.session_seed),
                                "generations must never share a session seed"
                            );
                        }
                    }
                    let outcome = chain.serve(RHO, &lease);
                    m.outstanding = Some((lease, outcome));
                }
                // deliver the outstanding write-back
                1 => {
                    let m = &mut mirrors[who as usize];
                    let Some((lease, outcome)) = m.outstanding.take() else {
                        continue;
                    };
                    book.write_back(r, LEVEL, lease.session_seed, lease.serves + 1, &outcome);
                    if m.cur_seed == Some(lease.session_seed) {
                        // live generation: the write-back must be applied
                        m.committed = lease.serves + 1;
                        m.last_proposal = Some(outcome.proposal.clone());
                        // a stored speculation was invalidated by it
                        m.stored_spec = None;
                        // live write-back must advance the session
                        prop_assert_eq!(book.session_serves(r, LEVEL), Some(m.committed));
                    } else {
                        // dead generation: must be a no-op (no resurrect,
                        // no position corruption)
                        // dead-generation write-back must not touch the session
                        prop_assert_eq!(
                            book.session_serves(r, LEVEL),
                            m.cur_seed.map(|_| m.committed)
                        );
                    }
                }
                // migrate the requester away (sessions dropped, new
                // generation on re-contact)
                2 => {
                    book.forget_requester(r);
                    let m = &mut mirrors[who as usize];
                    m.committed = 0;
                    m.cur_seed = None;
                    m.stored_spec = None;
                    m.last_proposal = None;
                    prop_assert_eq!(book.session_serves(r, LEVEL), None);
                }
                // dispatch + complete + store a speculative serve
                3 => {
                    let Some((spec_for, lease)) = book.speculative_lease(LEVEL) else {
                        continue;
                    };
                    let m = &mut mirrors[spec_for - 1];
                    // speculation must target the current position
                    prop_assert_eq!(lease.serves, m.committed);
                    let before = book.session_serves(spec_for, LEVEL);
                    let outcome = chain.serve(RHO, &lease);
                    let stored = book.store_speculation(
                        spec_for,
                        LEVEL,
                        lease.session_seed,
                        lease.serves + 1,
                        outcome.clone(),
                    );
                    if stored {
                        m.stored_spec = Some(outcome);
                    }
                    // storing a speculation must not advance the session
                    prop_assert_eq!(book.session_serves(spec_for, LEVEL), before);
                }
                // commit attempt with the accept-case anchor
                4 => {
                    let m = &mut mirrors[who as usize];
                    let Some(anchor) = accept_anchor(m) else {
                        continue;
                    };
                    let before = book.session_serves(r, LEVEL);
                    match book.try_commit(r, LEVEL, &anchor) {
                        Some(sample) => {
                            // a hit must return exactly the stored
                            // outcome for the current position, with no
                            // real serve outstanding — anything else is
                            // a double-serve
                            prop_assert!(
                                m.outstanding.is_none(),
                                "commit with a real serve in flight is a double-serve"
                            );
                            let stored = m.stored_spec.take();
                            prop_assert!(stored.is_some(), "hit without a stored speculation");
                            let stored = stored.unwrap();
                            prop_assert_eq!(&sample.theta, &stored.proposal.theta);
                            prop_assert_eq!(sample.log_density, stored.proposal.log_density);
                            m.committed += 1;
                            m.last_proposal = Some(stored.proposal);
                            prop_assert_eq!(
                                book.session_serves(r, LEVEL),
                                Some(m.committed)
                            );
                        }
                        None => {
                            // a refused commit must leave the position
                            // untouched (the spec may have been consumed
                            // as a miss unless a real serve is in flight,
                            // which shields it)
                            if m.outstanding.is_none() {
                                m.stored_spec = None;
                            }
                            // refused commit must not move the session
                            prop_assert_eq!(book.session_serves(r, LEVEL), before);
                        }
                    }
                }
                // commit attempt with a mismatching anchor: never a hit
                _ => {
                    let m = &mut mirrors[who as usize];
                    let wrong = CoarseSample::at(&mut target(), &[1_000.0 + f64::from(salt)]);
                    let before = book.session_serves(r, LEVEL);
                    prop_assert!(
                        book.try_commit(r, LEVEL, &wrong).is_none(),
                        "mismatching anchor must never commit"
                    );
                    if m.outstanding.is_none() {
                        m.stored_spec = None;
                    }
                    prop_assert_eq!(book.session_serves(r, LEVEL), before);
                }
            }
        }

        // end-state: every open session sits exactly at its mirror's
        // committed position — nothing dropped, nothing replayed
        for (who, m) in mirrors.iter().enumerate() {
            let r = 1 + who;
            if m.cur_seed.is_some() {
                prop_assert_eq!(book.session_serves(r, LEVEL), Some(m.committed));
                prop_assert_eq!(book.session_seed_of(r, LEVEL), m.cur_seed);
            }
        }
        // accounting: hits never exceed launches, committed serves cover
        // hits, and every counter is internally consistent
        let stats = book.stats;
        prop_assert!(stats.spec_hits <= stats.spec_launched);
        prop_assert!(stats.spec_hits <= stats.serves);
        prop_assert!(stats.spec_misses <= stats.spec_launched + stats.serves);
    }
}
