//! Proptest-driven fuzz of **ledger session migration** (PR 5):
//! arbitrary interleavings of lease (with or without the mate) / serve /
//! write-back / replayed write-back / migrate driven against a
//! [`uq_mlmcmc::ledger::LedgerBook`], checked against an independent
//! mirror model. The invariants are the ones the phonebooks rely on:
//!
//! * **never double-serve** — a session's committed stream positions
//!   advance by exactly one per write-back, every lease is issued at the
//!   current position, and a write-back replayed after its position was
//!   committed changes nothing;
//! * **never drop a session** — every first write-back of a position is
//!   applied, a stale one is a no-op, and a requester whose chain the
//!   balancer moves away and back keeps its session: the move leaves it
//!   untouched, a write-back in flight across the move is applied, and
//!   the next lease continues at the next position under the same seed;
//! * **sessions never share substreams** — each session derives a seed
//!   of its own, once;
//! * **only a mate moves the pairing track** — a lease without a mate
//!   carries no pairing state, its serve runs one leg and returns none,
//!   and its write-back advances the stream position but leaves the
//!   session's pairing state as it was.
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
    /// Commits so far (the expected stream position).
    committed: u64,
    /// The session's seed (set at its first lease).
    cur_seed: Option<u64>,
    /// The session's pairing state: what the last applied write-back
    /// with a mate stored.
    pairing: Option<CoarseSample>,
    /// A serve whose write-back has not been applied yet.
    outstanding: Option<(Box<LedgerLease>, ServeOutcome)>,
    /// The last write-back delivered, kept to be replayed.
    delivered: Option<(Box<LedgerLease>, ServeOutcome)>,
}

fn encoded(book: &LedgerBook) -> Vec<u8> {
    let mut enc = Enc::new();
    book.encode(&mut enc);
    enc.into_bytes()
}

/// Apply `lease`'s write-back of `outcome` to `book`, as the phonebook
/// applies a `ServeDone`.
fn write_back(book: &mut LedgerBook, r: usize, lease: &LedgerLease, outcome: &ServeOutcome) {
    let pairing = outcome.pairing.clone();
    book.write_back(r, LEVEL, lease.serves + 1, pairing, outcome.diverged);
}

proptest! {
    #[test]
    fn arbitrary_interleavings_never_double_serve_or_drop_a_session(
        ops in prop::collection::vec((0u8..5, 0u8..2, 0u8..4), 0..48),
    ) {
        let mut chain = serving_chain();
        let mut book = LedgerBook::default();
        let mut mirrors = [Mirror::default(), Mirror::default()];
        let mut seeds_seen: HashSet<u64> = HashSet::new();
        let mut applied = 0;

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
                // lease a serve, with the mate (0) or without (4) (the
                // protocol serializes: at most one outstanding serve per
                // requester)
                0 | 4 => {
                    if mirrors[who as usize].outstanding.is_some() {
                        continue;
                    }
                    let mate = op == 0;
                    let anchor = CoarseSample::at(&mut target(), &[f64::from(salt) * 0.1]);
                    let lease = book.lease(BASE_SEED, LEVEL, r, anchor, mate);
                    let m = &mut mirrors[who as usize];
                    // lease must be issued at the current stream position,
                    // carrying the session's pairing state only with a mate
                    prop_assert_eq!(lease.serves, m.committed);
                    prop_assert_eq!(lease.mate, mate);
                    let carried = m.pairing.as_ref().filter(|_| mate);
                    prop_assert_eq!(lease.pairing.as_ref(), carried);
                    match m.cur_seed {
                        // one session, one seed, for good
                        Some(seed) => prop_assert_eq!(seed, lease.session_seed),
                        None => {
                            m.cur_seed = Some(lease.session_seed);
                            prop_assert!(
                                seeds_seen.insert(lease.session_seed),
                                "sessions must never share a seed"
                            );
                        }
                    }
                    let outcome = chain.serve(RHO, &lease);
                    if !mate {
                        // one leg, and nothing for the pairing track
                        prop_assert!(outcome.pairing.is_none() && !outcome.diverged);
                        prop_assert!(outcome.proposal.mate.is_none());
                    }
                    m.outstanding = Some((lease, outcome));
                }
                // deliver the outstanding write-back
                1 => {
                    let m = &mut mirrors[who as usize];
                    let Some((lease, outcome)) = m.outstanding.take() else {
                        continue;
                    };
                    write_back(&mut book, r, &lease, &outcome);
                    // the write-back must be applied and advance the
                    // session, and only a serve with a mate moves the
                    // pairing
                    m.committed = lease.serves + 1;
                    if let Some(pairing) = &outcome.pairing {
                        m.pairing = Some(pairing.clone());
                    }
                    applied += 1;
                    prop_assert_eq!(book.session_serves(r, LEVEL), Some(m.committed));
                    m.delivered = Some((lease, outcome));
                }
                // the balancer moves the requester's chain one level up
                // (its serve, if any, still in flight): it leases from a
                // session of its own there, and the one here stays as it
                // is, to be continued when the chain returns
                2 => {
                    let before = book.sessions.get(&(r, LEVEL)).cloned();
                    let anchor = CoarseSample::at(&mut target(), &[f64::from(salt) * 0.1]);
                    let elsewhere = book.lease(BASE_SEED, LEVEL + 1, r, anchor, true);
                    prop_assert_ne!(Some(elsewhere.session_seed), mirrors[who as usize].cur_seed);
                    prop_assert_eq!(book.sessions.get(&(r, LEVEL)).cloned(), before);
                }
                // replay the last delivered write-back: its position
                // is committed, so it is a no-op
                _ => {
                    let m = &mirrors[who as usize];
                    let Some((lease, outcome)) = &m.delivered else {
                        continue;
                    };
                    let before = book.session_serves(r, LEVEL);
                    write_back(&mut book, r, lease, outcome);
                    prop_assert_eq!(book.session_serves(r, LEVEL), before);
                }
            }
            // the session's pairing state is the mirror's, op by op
            for (who, m) in mirrors.iter().enumerate() {
                let session = book.sessions.get(&(1 + who, LEVEL));
                if m.cur_seed.is_some() {
                    let pairing = session.and_then(|s| s.pairing.as_ref());
                    prop_assert_eq!(pairing, m.pairing.as_ref());
                }
            }
        }

        // end-state: every open session sits exactly at its mirror's
        // committed position — nothing dropped, nothing replayed
        for (who, m) in mirrors.iter().enumerate() {
            let r = 1 + who;
            if m.cur_seed.is_some() {
                prop_assert_eq!(book.session_serves(r, LEVEL), Some(m.committed));
                let seed = book.sessions.get(&(r, LEVEL)).map(|s| s.seed);
                prop_assert_eq!(seed, m.cur_seed);
            }
        }
        // accounting: the book counts exactly the write-backs it applied
        let stats = book.stats;
        prop_assert_eq!(stats.serves, applied);
        prop_assert!(stats.diverged <= stats.serves);
    }
}
