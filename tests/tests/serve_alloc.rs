//! A sample's QOI is evaluated when something reads it, allocated once
//! there, and shared from there on: chain state, coarse samples, leases,
//! serve outcomes, ledger sessions and checkpoint state all hold the same
//! `Arc<[f64]>`. On the `ranks_runtime` hierarchy (Poisson, m = 8,
//! n = 4 / 8, ρ = 4; the paper's 1089-component QOI, 8712 bytes) a serve
//! evaluates one QOI per leg that moved — the state it hands back — and
//! requests a large block only there (the model's `Vec` and its move into
//! the shared slice); stepping, rewinding, packaging and bookkeeping
//! evaluate and request none. Burn-in evaluates no QOI, and neither does
//! a chain step nobody reads.
//!
//! `Hooked` sees `log_density` only, so the QOI evaluations are counted
//! by a decorator of this file. Every count is of calls and allocator
//! requests on this thread and repeats exactly; nothing here reads a
//! clock.
//!
//! A binary of its own because it installs the counting
//! `#[global_allocator]` of `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::large_allocations_in;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uq_fem::problem::{PoissonFactory, PoissonHierarchy};
use uq_mcmc::{Chain, ChainConfig, Proposal, SamplingProblem};
use uq_mlmcmc::coupled::{build_chain, ChainStack, CoarseSample, MlChain, StepOutcome};
use uq_mlmcmc::ledger::{LedgerBook, LedgerLease, PairingMode};
use uq_mlmcmc::LevelFactory;
use uq_parallel::scheduler::Msg;

const RHO: usize = 4;

/// The `ranks_runtime` hierarchy with every `qoi` call counted.
struct QoiCounted {
    inner: PoissonFactory,
    qoi_calls: Arc<AtomicU64>,
}

struct QoiCountedProblem {
    inner: Box<dyn SamplingProblem>,
    qoi_calls: Arc<AtomicU64>,
}

impl QoiCounted {
    fn new() -> Self {
        let hierarchy = PoissonHierarchy::new(8, vec![4, 8], 2021);
        Self {
            inner: PoissonFactory::new(hierarchy, vec![RHO]),
            qoi_calls: Arc::default(),
        }
    }

    /// QOI evaluations `work` performed, the large blocks it requested,
    /// and its result.
    fn measure<T>(&self, work: impl FnOnce() -> T) -> (u64, u64, T) {
        // statistics only: the counter publishes no other data
        let before = self.qoi_calls.load(Ordering::Relaxed);
        let (large, out) = large_allocations_in(work);
        (self.qoi_calls.load(Ordering::Relaxed) - before, large, out)
    }
}

impl SamplingProblem for QoiCountedProblem {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        self.inner.log_density(theta)
    }
    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        self.qoi_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.qoi(theta)
    }
    fn qoi_dim(&self) -> usize {
        self.inner.qoi_dim()
    }
}

impl LevelFactory for QoiCounted {
    fn n_levels(&self) -> usize {
        self.inner.n_levels()
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(QoiCountedProblem {
            inner: self.inner.problem(level),
            qoi_calls: Arc::clone(&self.qoi_calls),
        })
    }
    fn proposal(&self, level: usize) -> Box<dyn Proposal> {
        self.inner.proposal(level)
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        self.inner.subsampling_rate(level)
    }
    fn starting_point(&self, level: usize) -> Vec<f64> {
        self.inner.starting_point(level)
    }
}

/// `chain`'s top after `steps` more of its own steps, as a sample.
fn sample_after(chain: &mut ChainStack, steps: usize, rng: &mut StdRng) -> CoarseSample {
    for _ in 0..steps {
        chain.step(rng);
    }
    chain.top().current_as_sample()
}

/// A level-0 serving chain and a lease on it whose pairing track has
/// left the anchor.
fn diverged_lease(factory: &QoiCounted) -> (ChainStack, LedgerLease) {
    let mut chain = ChainStack::new(factory, 0);
    let mut rng = StdRng::seed_from_u64(24);
    let anchor = sample_after(&mut chain, 60, &mut rng);
    let pairing = sample_after(&mut chain, 60, &mut rng);
    assert_eq!(anchor.qoi.len(), 1089);
    let lease = LedgerLease {
        session_seed: 0x5EED,
        serves: 0,
        pairing: Some(pairing),
        anchor,
    };
    assert!(!lease.merged(), "120 pCN steps never moved the chain");
    (chain, lease)
}

fn shared(a: &CoarseSample, b: &CoarseSample) -> bool {
    Arc::ptr_eq(&a.qoi, &b.qoi)
}

/// `chain`'s current state holds `qoi` itself, read or not.
fn holds(chain: &MlChain, qoi: &Arc<[f64]>) -> bool {
    chain
        .state()
        .qoi
        .as_ref()
        .is_some_and(|q| Arc::ptr_eq(q, qoi))
}

#[test]
fn a_diverged_serve_requests_large_blocks_only_to_evaluate_qois() {
    let factory = QoiCounted::new();
    let (mut chain, mut lease) = diverged_lease(&factory);
    let pairing = lease.pairing.clone().expect("a diverged lease");
    let (mut moved_legs, mut still_legs) = (0, 0);
    for position in 0..24 {
        lease.serves = position;
        let (qois, large, outcome) = factory.measure(|| chain.serve(RHO, &lease));
        assert!(outcome.diverged);
        // each leg rewinds to a sample that carries its QOI; a leg whose
        // end state moved reads the new one, a leg that never moved hands
        // back the QOI it was given
        let moved = u64::from(outcome.proposal.theta != lease.anchor.theta)
            + u64::from(outcome.pairing.theta != pairing.theta);
        assert_eq!(qois, moved, "serve {position}");
        // an evaluation: the model's `Vec` and the shared slice it is
        // moved into
        assert!(
            large <= 2 * qois,
            "serve {position}: {large} large blocks for {qois} QOI evaluations"
        );
        // and the same serve again counts the same
        let again = factory.measure(|| chain.serve(RHO, &lease));
        assert_eq!((again.0, again.1), (qois, large), "serve {position}");
        assert_eq!(again.2.proposal, outcome.proposal);
        moved_legs += moved;
        still_legs += 2 - moved;
    }
    // both kinds of leg were on the path
    assert!(
        moved_legs > 0 && still_legs > 0,
        "{moved_legs} moved, {still_legs} still"
    );
}

#[test]
fn burn_in_evaluates_no_qoi_and_the_first_read_one() {
    let factory = QoiCounted::new();
    let mut rng = StdRng::seed_from_u64(31);
    // a level-0 chain, and a controller's level-1 chain whose coarse
    // proposals arrive from outside (here: a sequential twin's serves)
    let mut base = ChainStack::new(&factory, 0);
    let mut coarse = factory.problem(0);
    let mut coupled = build_chain(&factory, 1, |theta| {
        CoarseSample::at(coarse.as_mut(), theta)
    });
    // the sequential twin serves as a controller would: leases from a
    // phonebook's book, written back after each serve
    let (mut twin, mut book) = (ChainStack::new(&factory, 0), LedgerBook::default());
    let k = 40;
    let (base_start, coupled_start) = (
        base.top().state().theta.clone(),
        coupled.state().theta.clone(),
    );
    let (qois, _, ()) = factory.measure(|| {
        for _ in 0..k {
            base.step(&mut rng);
        }
    });
    assert_eq!(qois, 0, "level 0");
    for _ in 0..k {
        assert_eq!(coupled.poll_step(&mut rng), StepOutcome::NeedCoarse);
        let anchor = coupled.anchor().expect("a coupled chain").clone();
        let lease = book.lease(0x5EED, 0, 1, anchor);
        let outcome = twin.serve(RHO, &lease);
        book.write_back(1, 0, lease.session_seed, lease.serves + 1, &outcome);
        let coarse = outcome.proposal;
        let (qois, _, _) = factory.measure(|| coupled.resume_step(&mut rng, coarse));
        assert_eq!(qois, 0, "level 1");
    }
    // a controller serves between its own steps: it sets its position
    // aside as it is, so only the serve's moved leg evaluates a QOI
    let start = CoarseSample::at(factory.problem(0).as_mut(), &base_start);
    let lease = LedgerLease::fresh(0x5EED, start);
    let (qois, _, outcome) = factory.measure(|| {
        let own = base.top().bookmark();
        let outcome = base.serve(RHO, &lease);
        base.top().return_to(own);
        outcome
    });
    assert_eq!(qois, u64::from(outcome.proposal.theta != base_start));
    assert!(
        base.top().state().qoi.is_none(),
        "the bookmark read the QOI"
    );
    for (chain, start) in [(base.top(), base_start), (&mut coupled, coupled_start)] {
        assert_ne!(
            chain.state().theta,
            start,
            "{k} steps never moved the chain"
        );
        let (first, _, qoi) = factory.measure(|| Arc::clone(chain.current_qoi()));
        let (second, _, again) = factory.measure(|| Arc::clone(chain.current_qoi()));
        assert_eq!((first, second), (1, 0));
        assert!(Arc::ptr_eq(&qoi, &again));
    }
}

#[test]
fn a_producing_level_0_step_and_its_correction_evaluate_at_most_one_qoi() {
    let factory = QoiCounted::new();
    let mut rng = StdRng::seed_from_u64(17);
    let mut chain = ChainStack::new(&factory, 0);
    let mut accepted = 0;
    for step in 0..60 {
        let record = step % 2 == 0;
        let (qois, _, (acc, msg)) = factory.measure(|| {
            let acc = chain.step(&mut rng);
            (
                acc,
                Msg::correction(0, chain.top(), PairingMode::Ledger, record),
            )
        });
        // the correction reads the step's QOI: evaluated iff it moved
        assert_eq!(qois, u64::from(acc), "step {step}");
        let Msg::Correction { y, fine_qoi, .. } = msg else {
            panic!("not a correction")
        };
        assert_eq!(*y, **chain.top().current_qoi());
        assert_eq!(fine_qoi.len(), if record { y.len() } else { 0 });
        accepted += u64::from(acc);
    }
    assert!(accepted > 0 && accepted < 60, "{accepted} of 60 accepted");
}

#[test]
fn a_single_chain_evaluates_the_qois_it_records() {
    let factory = QoiCounted::new();
    for (burn_in, thin) in [(0, 1), (25, 1), (10, 3), (30, 7)] {
        let mut rng = StdRng::seed_from_u64(5);
        let recorded = 12;
        let (qois, _, chain) = factory.measure(|| {
            let (problem, proposal) = (factory.problem(0), factory.proposal(0));
            let config = ChainConfig { burn_in, thin };
            let mut chain = Chain::new(problem, proposal, factory.starting_point(0), config);
            chain.run(recorded, &mut rng);
            chain
        });
        // the starting point, then at most one per recorded sample
        assert!(
            qois <= recorded as u64 + 1,
            "burn-in {burn_in}, thin {thin}: {qois}"
        );
        assert_eq!(chain.qois().len(), recorded);
        assert_eq!(chain.steps_taken(), burn_in + (recorded - 1) * thin + 1);
    }
}

#[test]
fn a_rewind_hands_back_the_qoi_it_was_given() {
    let factory = QoiCounted::new();
    let mut rng = StdRng::seed_from_u64(7);
    for level in [0, 1] {
        let mut chain = ChainStack::new(&factory, level);
        let s = sample_after(&mut chain, 40, &mut rng);
        sample_after(&mut chain, 40, &mut rng);
        let (qois, large, back) = factory.measure(|| {
            chain.top().restore(&s);
            chain.top().current_as_sample()
        });
        assert_eq!((qois, large), (0, 0), "level {level}");
        assert!(shared(&back, &s), "level {level}");
        assert!(holds(chain.top(), &s.qoi), "level {level}");
        assert_eq!(back.sub_anchor.is_some(), level == 1);
        if let (Some(a), Some(b)) = (&back.sub_anchor, &s.sub_anchor) {
            assert!(shared(a, b), "the sub-anchor's QOI was copied");
        }
        // a checkpoint of the chain is the same allocation again
        let (_, large, state) = factory.measure(|| chain.export_state());
        assert_eq!(large, 0);
        assert!(Arc::ptr_eq(&state.qoi, &s.qoi));
        let (_, large, ()) = factory.measure(|| chain.import_state(state));
        assert_eq!(large, 0);
        assert!(holds(chain.top(), &s.qoi), "level {level}");
    }
}

#[test]
fn a_serve_outcome_holds_its_pairing_sample_once() {
    let factory = QoiCounted::new();
    let (mut chain, diverged) = diverged_lease(&factory);
    let merged = LedgerLease::fresh(diverged.session_seed, diverged.anchor.clone());
    for lease in [merged, diverged] {
        let outcome = chain.serve(RHO, &lease);
        assert_eq!(outcome.diverged, !lease.merged());
        let mate = outcome.proposal.mate.as_deref().expect("packaged mate");
        assert!(shared(mate, &outcome.pairing));
        // one run serves both tracks of a merged lease
        assert_eq!(shared(&outcome.proposal, &outcome.pairing), lease.merged());
    }
}

#[test]
fn the_ledger_book_shares_what_it_is_handed() {
    let factory = QoiCounted::new();
    let (mut chain, diverged) = diverged_lease(&factory);
    let outcome = chain.serve(RHO, &diverged);
    let (requester, level, seed) = (9, 0, 77);
    let mut book = LedgerBook::default();
    let (qois, large, state) = factory.measure(|| {
        let lease = book.lease(seed, level, requester, diverged.anchor.clone());
        book.write_back(requester, level, lease.session_seed, 1, &outcome);
        let (_, spec) = book.speculative_lease(level).expect("a candidate");
        assert!(shared(&spec.anchor, &outcome.proposal));
        assert!(shared(spec.pairing.as_ref().unwrap(), &outcome.pairing));
        let stored =
            book.store_speculation(requester, level, spec.session_seed, 2, outcome.clone());
        assert!(stored);
        let state = book.clone();
        let hit = book.try_commit(requester, level, &outcome.proposal);
        assert!(shared(&hit.expect("the anchor matches"), &outcome.proposal));
        state
    });
    assert_eq!((qois, large), (0, 0));
    let session = &state.sessions[&(requester, level)];
    assert!(shared(session.pairing.as_ref().unwrap(), &outcome.pairing));
    assert!(shared(
        session.next_anchor.as_ref().unwrap(),
        &outcome.proposal
    ));
    let parked = session.spec.as_ref().expect("the parked speculation");
    assert!(shared(&parked.outcome.proposal, &outcome.proposal));
    assert!(shared(&parked.outcome.pairing, &outcome.pairing));
}
