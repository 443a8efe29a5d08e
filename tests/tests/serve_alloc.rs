//! A sample's QOI is evaluated where it is read, allocated once there,
//! and shared from there on: chain state, coarse samples, leases, serve
//! outcomes, ledger sessions and checkpoint state all hold the same
//! `Arc<[f64]>` or none. On the `ranks_runtime` hierarchy (Poisson,
//! m = 8, n = 4 / 8, ρ = 4; the paper's 1089-component QOI, 8712 bytes) a
//! serve evaluates no QOI and requests no large block: a leg end is
//! packaged with whatever its state holds. The requester fills the one
//! coarse QOI its correction pairs with, on the level below's problem —
//! at most one evaluation, none when that sample did not move. Burn-in
//! evaluates no QOI, and neither does a chain step nobody reads. A whole
//! `ranks_runtime`-config run evaluates at most 55 % of the QOIs it did
//! when every serve evaluated its leg ends, with the same digest.
//!
//! `Hooked` sees `log_density` only, so the QOI evaluations are counted
//! by a decorator of this file. Every count is of calls and allocator
//! requests and repeats exactly; nothing here reads a clock.
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
use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::{PoissonFactory, PoissonHierarchy};
use uq_mcmc::{Chain, ChainConfig, Proposal, SamplingProblem};
use uq_mlmcmc::coupled::{build_chain, ChainStack, CoarseSample, MlChain, StepOutcome};
use uq_mlmcmc::ledger::{LedgerBook, LedgerLease, PairingMode};
use uq_mlmcmc::LevelFactory;
use uq_parallel::net::levels_digest;
use uq_parallel::scheduler::Msg;
use uq_parallel::{run_runtime, ParallelConfig, RuntimeConfig, Tracer};

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
        Self::on(2021)
    }

    /// The hierarchy on the synthetic truth drawn from `truth_seed`.
    fn on(truth_seed: u64) -> Self {
        let hierarchy = PoissonHierarchy::new(8, vec![4, 8], truth_seed);
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

/// `chain`'s top after `steps` more of its own steps, as a sample whose
/// QOI has been read.
fn sample_after(chain: &mut ChainStack, steps: usize, rng: &mut StdRng) -> CoarseSample {
    for _ in 0..steps {
        chain.step(rng);
    }
    chain.top().current_qoi();
    chain.top().current_as_sample()
}

/// A level-`level` serving stack and a lease on it whose pairing track
/// has left the anchor; both lease samples carry their QOI.
fn diverged_lease(factory: &QoiCounted, level: usize) -> (ChainStack, LedgerLease) {
    let mut chain = ChainStack::new(factory, level);
    let mut rng = StdRng::seed_from_u64(24);
    let anchor = sample_after(&mut chain, 60, &mut rng);
    let pairing = sample_after(&mut chain, 60, &mut rng);
    assert_eq!(anchor.qoi.as_ref().map(|q| q.len()), Some(1089));
    let lease = LedgerLease {
        session_seed: 0x5EED,
        serves: 0,
        pairing: Some(pairing),
        anchor,
    };
    assert!(!lease.merged(), "120 pCN steps never moved the chain");
    (chain, lease)
}

/// `a` and `b` hold one QOI allocation.
fn shared(a: &CoarseSample, b: &CoarseSample) -> bool {
    matches!((&a.qoi, &b.qoi), (Some(x), Some(y)) if Arc::ptr_eq(x, y))
}

/// `a` holds what `b` holds: the same allocation, or no QOI.
fn same_slot(a: &CoarseSample, b: &CoarseSample) -> bool {
    shared(a, b) || (a.qoi.is_none() && b.qoi.is_none())
}

/// `chain`'s current state holds `qoi` itself, read or not.
fn holds(chain: &MlChain, qoi: &Arc<[f64]>) -> bool {
    chain
        .state()
        .qoi
        .as_ref()
        .is_some_and(|q| Arc::ptr_eq(q, qoi))
}

/// θ bit for bit.
fn same_point(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn a_diverged_serve_evaluates_no_qoi_and_requests_no_large_block() {
    let factory = QoiCounted::new();
    for level in [0, 1] {
        let (mut chain, mut lease) = diverged_lease(&factory, level);
        let pairing = lease.pairing.clone().expect("a diverged lease");
        let (mut moved_legs, mut still_legs) = (0, 0);
        for position in 0..24 {
            lease.serves = position;
            let (qois, large, outcome) = factory.measure(|| chain.serve(RHO, &lease));
            assert!(outcome.diverged);
            assert_eq!((qois, large), (0, 0), "level {level}, serve {position}");
            // a leg end is packaged as its state holds it: a leg that
            // never moved hands back the QOI it was given, one that
            // moved hands back none
            for (end, start) in [
                (&outcome.proposal, &lease.anchor),
                (&outcome.pairing, &pairing),
            ] {
                let moved = end.theta != start.theta;
                assert_eq!(end.qoi.is_none(), moved, "level {level}, serve {position}");
                assert!(
                    moved || shared(end, start),
                    "level {level}, serve {position}"
                );
                moved_legs += u64::from(moved);
                still_legs += u64::from(!moved);
            }
            // and the same serve again counts the same (on level 0 it is
            // the same serve: a level-1 one leases its nested proposals
            // from a session that has moved on)
            let again = factory.measure(|| chain.serve(RHO, &lease));
            assert_eq!(
                (again.0, again.1),
                (0, 0),
                "level {level}, serve {position}"
            );
            assert!(level > 0 || again.2.proposal == outcome.proposal);
        }
        // both kinds of leg were on the path
        assert!(
            moved_legs > 0 && still_legs > 0,
            "level {level}: {moved_legs} moved, {still_legs} still"
        );
    }
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
        let (session, serves) = (lease.session_seed, lease.serves + 1);
        book.write_back(1, 0, session, serves, outcome.pairing, outcome.diverged);
        let coarse = outcome.proposal;
        let (qois, _, _) = factory.measure(|| coupled.resume_step(&mut rng, coarse));
        assert_eq!(qois, 0, "level 1");
    }
    // a controller serves between its own steps: it sets its position
    // aside as it is, and the serve evaluates no QOI
    let start = CoarseSample::at(factory.problem(0).as_mut(), &base_start);
    assert!(start.qoi.is_none(), "an anchor evaluated its QOI");
    let lease = LedgerLease::fresh(0x5EED, start);
    let (qois, _, _) = factory.measure(|| {
        let own = base.top().bookmark();
        let outcome = base.serve(RHO, &lease);
        base.top().return_to(own);
        outcome
    });
    assert_eq!(qois, 0);
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
                Msg::correction(0, chain.top(), None, PairingMode::Ledger, record),
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
        let qoi = s.qoi.as_ref().expect("a read sample");
        assert!(holds(chain.top(), qoi), "level {level}");
        assert_eq!(back.sub_anchor.is_some(), level == 1);
        if let (Some(a), Some(b)) = (&back.sub_anchor, &s.sub_anchor) {
            assert!(same_slot(a, b), "the sub-anchor's QOI was copied");
        }
        // a checkpoint of the chain is the same allocation again
        let (_, large, state) = factory.measure(|| chain.top().export_state());
        assert_eq!(large, 0);
        assert!(Arc::ptr_eq(&state.qoi, qoi));
        let (_, large, ()) = factory.measure(|| chain.top().import_state(state));
        assert_eq!(large, 0);
        assert!(holds(chain.top(), qoi), "level {level}");
    }
}

#[test]
fn a_serve_outcome_holds_its_pairing_sample_once() {
    let factory = QoiCounted::new();
    let (mut chain, diverged) = diverged_lease(&factory, 0);
    let merged = LedgerLease::fresh(diverged.session_seed, diverged.anchor.clone());
    for lease in [merged, diverged] {
        let outcome = chain.serve(RHO, &lease);
        assert_eq!(outcome.diverged, !lease.merged());
        let mate = outcome.proposal.mate.as_deref().expect("packaged mate");
        assert!(same_slot(mate, &outcome.pairing));
        // one run serves both tracks of a merged lease
        let one_end = outcome.proposal.theta == outcome.pairing.theta;
        assert_eq!(one_end, lease.merged());
        assert!(same_slot(&outcome.proposal, &outcome.pairing) || !one_end);
    }
}

#[test]
fn the_ledger_book_shares_what_it_is_handed() {
    let factory = QoiCounted::new();
    let (mut chain, diverged) = diverged_lease(&factory, 0);
    // an outcome whose samples hold a QOI, as the requester fills them
    let outcome = chain.serve(RHO, &diverged);
    let mut problem = factory.problem(0);
    let [mut proposal, mut pairing] = [outcome.proposal, outcome.pairing];
    proposal.mate = None;
    proposal.fill_qoi(problem.as_mut());
    pairing.fill_qoi(problem.as_mut());
    let (requester, level, seed) = (9, 0, 77);
    let mut book = LedgerBook::default();
    let (qois, large, state) = factory.measure(|| {
        let lease = book.lease(seed, level, requester, diverged.anchor.clone());
        let (session, handed) = (lease.session_seed, pairing.clone());
        book.write_back(requester, level, session, 1, handed, outcome.diverged);
        // the requester accepted: its next anchor is the proposal
        let next = book.lease(seed, level, requester, proposal.clone());
        assert!(shared(&next.anchor, &proposal));
        assert!(shared(next.pairing.as_ref().unwrap(), &pairing));
        book.clone()
    });
    assert_eq!((qois, large), (0, 0));
    let session = &state.sessions[&(requester, level)];
    assert!(shared(session.pairing.as_ref().unwrap(), &pairing));
}

#[test]
fn a_requesters_correction_evaluates_at_most_the_coarse_qoi_it_pairs_with() {
    let factory = QoiCounted::new();
    let mut rng = StdRng::seed_from_u64(13);
    // a controller's level-1 chain, its level-0 problem, and a sequential
    // twin serving it as a controller would (leases from a phonebook's
    // book, written back after each serve)
    let mut coarse = factory.problem(0);
    let mut chain = build_chain(&factory, 1, |theta| {
        CoarseSample::at(coarse.as_mut(), theta)
    });
    let (mut twin, mut book) = (ChainStack::new(&factory, 0), LedgerBook::default());
    let mut previous_mate: Option<Vec<f64>> = None;
    let (mut still, mut moved) = (0, 0);
    for step in 0..80 {
        assert_eq!(chain.poll_step(&mut rng), StepOutcome::NeedCoarse);
        let anchor = chain.anchor().expect("a coupled chain").clone();
        let lease = book.lease(0x5EED, 0, 1, anchor);
        let outcome = twin.serve(RHO, &lease);
        let mate = outcome.pairing.theta.clone();
        let (session, serves) = (lease.session_seed, lease.serves + 1);
        book.write_back(1, 0, session, serves, outcome.pairing, outcome.diverged);
        chain.resume_step(&mut rng, outcome.proposal);
        let fine_unread = u64::from(chain.state().qoi.is_none());
        let (qois, _, msg) = factory.measure(|| {
            Msg::correction(
                1,
                &mut chain,
                Some(coarse.as_mut()),
                PairingMode::Ledger,
                false,
            )
        });
        // the step's own QOI if nothing read it yet, and the mate's
        let mate_qois = qois - fine_unread;
        let unmoved = previous_mate
            .as_deref()
            .is_some_and(|p| same_point(p, &mate));
        assert!(mate_qois <= 1, "step {step}: {mate_qois} coarse QOIs");
        if unmoved {
            assert_eq!(mate_qois, 0, "step {step}: the mate did not move");
        }
        still += u64::from(unmoved);
        moved += u64::from(!unmoved);
        // and what it evaluated is the telescoping term
        let Msg::Correction { y, .. } = msg else {
            panic!("not a correction")
        };
        let fine = chain.current_qoi().to_vec();
        let paired = coarse.qoi(&mate);
        let expected: Vec<f64> = fine.iter().zip(&paired).map(|(f, c)| f - c).collect();
        assert_eq!(y, expected, "step {step}");
        previous_mate = Some(mate);
    }
    assert!(still > 0 && moved > 0, "{still} still, {moved} moved");
}

/// `ranks_runtime`'s configuration (64 + 64 chains, N = 40 000 / 10 000,
/// load balancing off) on one worker, whose run is deterministic: the
/// QOI evaluations it makes and its `levels_digest`.
fn ranks_runtime_run(seed: u64) -> (u64, u64) {
    let factory = QoiCounted::on(TRUTH_SEED);
    let mut base = ParallelConfig::new(vec![40_000, 10_000], vec![64, 64]);
    base.seed = seed;
    base.load_balancing = false;
    let config = RuntimeConfig {
        base,
        n_workers: 1,
        collector_shards: 1,
    };
    let (qois, _, run) = factory.measure(|| run_runtime(&factory, &config, &Tracer::disabled()));
    (qois, levels_digest(&run.report.levels))
}

#[test]
fn a_ranks_runtime_run_evaluates_at_most_55_percent_of_the_qois_it_did_when_serves_did() {
    // the bound was recorded when every serve evaluated its moved leg
    // ends (16.4 k / 16.6 k QOIs at seeds 7 / 11); the coarse QOI is a
    // function of θ alone, so who evaluates it moves no bit of the
    // estimate
    for (seed, serves_evaluated, digest) in [
        // re-recorded when speculative serves were removed (they changed
        // a one-worker run's poll order): the digest of the code before
        // with speculation off; 5290 QOI evaluations
        (7, 16_403, 0x228c_5ee0_2eb4_ca98_u64),
        // the same, seed 11: 5522 QOI evaluations
        (11, 16_612, 0x5a8e_b5dd_8db0_7ba7),
    ] {
        let (qois, got) = ranks_runtime_run(seed);
        assert_eq!(got, digest, "seed {seed}: levels_digest moved");
        assert!(
            qois * 100 <= serves_evaluated * 55,
            "seed {seed}: {qois} QOI evaluations, {serves_evaluated} when serves evaluated them"
        );
    }
}
