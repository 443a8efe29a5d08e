//! A sample's QOI is allocated once, where the model evaluates it, and
//! shared from there on: chain state, coarse samples, leases, serve
//! outcomes, ledger sessions and checkpoint state all hold the same
//! `Arc<[f64]>`. On the `ranks_runtime` hierarchy (Poisson, m = 8,
//! n = 4 / 8, ρ = 4; the paper's 1089-component QOI, 8712 bytes) a serve
//! requests a large block only where it evaluates a QOI — the model's
//! `Vec` and its move into the shared slice — and rewinding, packaging
//! and bookkeeping request none.
//!
//! `Hooked` sees `log_density` only, so the QOI evaluations are counted
//! by a decorator of this file. Every count is of allocator requests on
//! this thread and repeats exactly; nothing here reads a clock.
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
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::coupled::{build_chain_stack, CoarseSample, MlChain};
use uq_mlmcmc::ledger::{self, LedgerBook, LedgerLease};
use uq_mlmcmc::LevelFactory;

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

/// `chain` after `steps` more of its own steps, as a sample.
fn sample_after(chain: &mut MlChain, steps: usize, rng: &mut StdRng) -> CoarseSample {
    for _ in 0..steps {
        chain.step(rng);
    }
    chain.current_as_sample()
}

/// A level-0 serving chain and a lease on it whose pairing track has
/// left the anchor.
fn diverged_lease(factory: &QoiCounted) -> (MlChain, LedgerLease) {
    let mut chain = build_chain_stack(factory, 0);
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

#[test]
fn a_diverged_serve_requests_large_blocks_only_to_evaluate_qois() {
    let factory = QoiCounted::new();
    let (mut chain, mut lease) = diverged_lease(&factory);
    let (mut evaluated, mut steps) = (0, 0);
    for position in 0..24 {
        lease.serves = position;
        let (qois, large, outcome) = factory.measure(|| ledger::serve(&mut chain, RHO, &lease));
        assert!(outcome.diverged);
        // two legs of RHO steps; an accepted step evaluates one QOI: the
        // model's `Vec` and the shared slice it is moved into
        assert!(qois <= 2 * RHO as u64);
        assert!(
            large <= 2 * qois,
            "serve {position}: {large} large blocks for {qois} QOI evaluations"
        );
        // and the same serve again counts the same
        let again = factory.measure(|| ledger::serve(&mut chain, RHO, &lease));
        assert_eq!((again.0, again.1), (qois, large), "serve {position}");
        assert_eq!(again.2.proposal, outcome.proposal);
        evaluated += qois;
        steps += 2 * RHO as u64;
    }
    // both branches of a step were on the path
    assert!(0 < evaluated && evaluated < steps, "{evaluated} of {steps}");
}

#[test]
fn a_rewind_hands_back_the_qoi_it_was_given() {
    let factory = QoiCounted::new();
    let mut rng = StdRng::seed_from_u64(7);
    for level in [0, 1] {
        let mut chain = build_chain_stack(&factory, level);
        let s = sample_after(&mut chain, 40, &mut rng);
        sample_after(&mut chain, 40, &mut rng);
        let (qois, large, back) = factory.measure(|| {
            chain.restore(&s);
            chain.current_as_sample()
        });
        assert_eq!((qois, large), (0, 0), "level {level}");
        assert!(shared(&back, &s), "level {level}");
        assert!(Arc::ptr_eq(&chain.state().qoi, &s.qoi));
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
        assert!(Arc::ptr_eq(&chain.state().qoi, &s.qoi));
    }
}

#[test]
fn a_serve_outcome_holds_its_pairing_sample_once() {
    let factory = QoiCounted::new();
    let (mut chain, diverged) = diverged_lease(&factory);
    let merged = LedgerLease::fresh(diverged.session_seed, diverged.anchor.clone());
    for lease in [merged, diverged] {
        let outcome = ledger::serve(&mut chain, RHO, &lease);
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
    let outcome = ledger::serve(&mut chain, RHO, &diverged);
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
        let state = book.export_state();
        let hit = book.try_commit(requester, level, &outcome.proposal);
        assert!(shared(&hit.expect("the anchor matches"), &outcome.proposal));
        state
    });
    assert_eq!((qois, large), (0, 0));
    let session = &state.sessions[0];
    assert!(shared(session.pairing.as_ref().unwrap(), &outcome.pairing));
    assert!(shared(
        session.next_anchor.as_ref().unwrap(),
        &outcome.proposal
    ));
    let parked = session.spec.as_ref().expect("the parked speculation");
    assert!(shared(&parked.proposal, &outcome.proposal));
    assert!(shared(&parked.pairing, &outcome.pairing));
}
