//! Proptest-driven fuzz of **ledger session migration** (PR 5):
//! arbitrary interleavings of lease / serve / write-back / replayed
//! write-back / migrate driven against a
//! [`uq_mlmcmc::ledger::LedgerBook`], checked against an independent
//! mirror model. The invariants are the ones the phonebooks rely on:
//!
//! * **never double-serve** — a session's committed stream positions
//!   advance by exactly one per write-back, every lease is issued at the
//!   current position, and a write-back replayed after its position was
//!   committed changes nothing;
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
    book.write_back(
        r,
        LEVEL,
        lease.session_seed,
        lease.serves + 1,
        pairing,
        outcome.diverged,
    );
}

proptest! {
    #[test]
    fn arbitrary_interleavings_never_double_serve_or_drop_a_session(
        ops in prop::collection::vec((0u8..4, 0u8..2, 0u8..4), 0..48),
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
                // lease a serve (the protocol serializes: at most one
                // outstanding serve per requester)
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
                    write_back(&mut book, r, &lease, &outcome);
                    if m.cur_seed == Some(lease.session_seed) {
                        // live generation: the write-back must be applied
                        m.committed = lease.serves + 1;
                        applied += 1;
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
                    m.delivered = Some((lease, outcome));
                }
                // migrate the requester away (sessions dropped, new
                // generation on re-contact)
                2 => {
                    book.forget_requester(r);
                    let m = &mut mirrors[who as usize];
                    m.committed = 0;
                    m.cur_seed = None;
                    prop_assert_eq!(book.session_serves(r, LEVEL), None);
                }
                // replay the last delivered write-back: its position
                // is committed or its generation dead, so it is a no-op
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
        // accounting: the book counts exactly the write-backs it applied
        let stats = book.stats;
        prop_assert_eq!(stats.serves, applied);
        prop_assert!(stats.diverged <= stats.serves);
    }
}
