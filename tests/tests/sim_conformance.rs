//! Seeded exploration of **message interleavings over the code that
//! ships**: the `roles.rs` machines, the ledger and the chains, driven by
//! the virtual-time executor (`uq_parallel::sim`) under more than a
//! thousand delivery seeds per run. A seed picks every delivery delay,
//! every tie between ranks due at the same instant and every evaluation's
//! jitter; the latency scale rotates with it between none, far below and
//! far above an evaluation. (The proptest chaos suites sample API-level
//! interleavings; this samples message-level ones.) Every failure message
//! starts with the seed; re-running that seed reproduces the failure.
//!
//! Fixture: the tight ridge in the deterministic regime (one chain per
//! level, balancer off, speculation and recording on), where the digest
//! must not depend on the executor at all; and a skewed three-level run
//! for the invariants that hold with the balancer on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::store::{RunSnapshot, RunStore};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    levels_digest, run_parallel, run_runtime, Counter, ParallelCheckpoint, Placement, Run, Runtime,
    RuntimeConfig, RuntimeReport, SimCost, Tracer,
};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::Ridge;

/// The deterministic bit-parity regime on the ridge.
fn ridge_config(n0: usize, n1: usize, seed: u64) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(vec![n0, n1], vec![1, 1]);
    config.base.burn_in = vec![30, 20];
    config.base.seed = seed;
    config.base.load_balancing = false;
    config.base.record_samples = true;
    config.base.speculation = true;
    config.n_workers = 1;
    config
}

/// What `seed` makes of time: 0.1 / 1 / 10 ms evaluations (30 % jitter),
/// microsecond bookkeeping, deliveries of nothing, 10 µs or 1 ms.
fn cost(seed: u64) -> SimCost {
    SimCost {
        eval_time: vec![1e-4, 1e-3, 1e-2],
        eval_jitter: 0.3,
        phonebook_service_time: 2e-6,
        collector_service_time: 1e-6,
        latency: [0.0, 1e-5, 1e-3][(seed % 3) as usize],
        poll_budget: 2_000_000,
    }
}

/// The ridge under delivery seed `seed`.
fn simulated(
    config: &RuntimeConfig,
    seed: u64,
    checkpoint: Option<&ParallelCheckpoint<'_>>,
    resume: Option<&RunSnapshot>,
) -> RuntimeReport {
    let (off, cost) = (Tracer::disabled(), cost(seed));
    Run::new(&Ridge, config, &off, checkpoint, resume)
        .on(Placement::Sim { cost: &cost, seed })
        .unwrap_or_else(|err| panic!("seed {seed}: {err:?}"))
}

fn digest(run: &RuntimeReport) -> u64 {
    levels_digest(&run.report.levels)
}

fn scratch_store(name: &str) -> (std::path::PathBuf, RunStore) {
    let dir = std::env::temp_dir().join(format!("uq-sim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("scratch store");
    (dir, store)
}

#[test]
fn every_delivery_seed_reproduces_the_live_digest() {
    let config = ridge_config(150, 60, 17_2026);
    let off = Tracer::disabled();
    let live = run_runtime(&Ridge, &config, &off);
    let reference = digest(&live);
    assert_eq!(
        reference,
        levels_digest(&run_parallel(&Ridge, &config.base, &off).levels),
        "the live executors must agree before a simulated run means anything"
    );
    // The fine chain takes its quota plus burn-in in steps — a fine
    // evaluation and a serve each, plus one evaluation to build the
    // chain — and steps on until `StopProducing` reaches it: once more
    // under some deliveries (and the pool), not under others. Level 0
    // serves and speculates until `Shutdown`: ROADMAP's overshoot.
    let steps = 60 + 20;
    let counts = |run: &RuntimeReport| {
        let evals = |level: usize| run.report.levels[level].evaluations;
        [evals(0), evals(1), run.phonebook.ledger.serves]
    };
    let live = counts(&live);
    let (mut least, mut most) = ([usize::MAX; 3], [0; 3]);
    for seed in 0..700 {
        let sim = simulated(&config, seed, None, None);
        assert_eq!(digest(&sim), reference, "seed {seed}: digest");
        let sim_counts = counts(&sim);
        for (i, count) in sim_counts.into_iter().enumerate() {
            least[i] = least[i].min(count);
            most[i] = most[i].max(count);
        }
        // the same seed again: the same run, clocks included
        if seed % 100 == 0 {
            let again = simulated(&config, seed, None, None);
            let polls = |run: &RuntimeReport| run.runtime.polls;
            assert_eq!(again.clocks, sim.clocks, "seed {seed}: not repeatable");
            assert_eq!(polls(&again), polls(&sim), "seed {seed}: not repeatable");
        }
    }
    println!("[evals l0, evals l1, serves]: live {live:?}, simulated {least:?}..={most:?}");
    assert_eq!((least[1], most[1]), (steps + 1, steps + 2), "evals l1");
    assert_eq!((least[2], most[2]), (steps, steps + 1), "ledger serves");
    assert_eq!(live[1..], [steps + 2, steps + 1], "the pool oversteps once");
    assert!(least[0] <= live[0] && live[0] <= most[0], "live {live:?}");
}

/// Checkpoint every ninth fine correction under delivery seed `seed`,
/// stopping at barrier `stop_at`: the run and the snapshots it persisted.
fn checkpointed(
    config: &RuntimeConfig,
    store: &RunStore,
    seed: u64,
    stop_at: Option<usize>,
) -> (RuntimeReport, Vec<RunSnapshot>) {
    let hashes: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let hook = |_done: usize, hash: &str| {
        let mut hashes = hashes.lock().unwrap();
        hashes.push(hash.to_string());
        stop.store(stop_at == Some(hashes.len()), Ordering::SeqCst);
    };
    let spec = ParallelCheckpoint {
        store,
        config_hash: seed,
        every: 9,
        on_snapshot: Some(&hook),
        stop: Some(&stop),
    };
    let run = simulated(config, seed, Some(&spec), None);
    let snapshot = |hash: &String| store.get_snapshot(hash).expect("snapshot").0;
    (
        run,
        hashes.into_inner().unwrap().iter().map(snapshot).collect(),
    )
}

#[test]
fn every_barrier_is_a_consistent_cut_under_every_delivery() {
    let config = ridge_config(120, 50, 6_2026);
    let off = Tracer::disabled();
    let reference = digest(&run_runtime(&Ridge, &config, &off));
    let (dir, store) = scratch_store("cut");
    for seed in 0..60 {
        let (run, snapshots) = checkpointed(&config, &store, seed, None);
        assert_eq!(digest(&run), reference, "seed {seed}: checkpointed");
        assert!(snapshots.len() >= 4, "seed {seed}: {}", snapshots.len());
        for (k, snap) in snapshots.iter().enumerate() {
            // another delivery order from the cut on, and a live executor
            let other = simulated(&config, seed + 1000, None, Some(snap));
            assert_eq!(digest(&other), reference, "seed {seed}: resume {k}");
            let pool = Run::new(&Ridge, &config, &off, None, Some(snap))
                .on(Placement::Pool(&Runtime::new(config.n_workers)));
            let pool = pool.expect("a live run");
            assert_eq!(digest(&pool), reference, "seed {seed}: pool resume {k}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stop_at_any_barrier_preempts_and_resumes_to_the_same_digest() {
    let config = ridge_config(120, 50, 9_2026);
    let off = Tracer::disabled();
    let reference = digest(&run_runtime(&Ridge, &config, &off));
    let (dir, store) = scratch_store("stop");
    for seed in 0..120 {
        let barrier = 1 + (seed % 4) as usize;
        let (run, snapshots) = checkpointed(&config, &store, seed, Some(barrier));
        assert!(run.preempted, "seed {seed}: stop at {barrier} ignored");
        assert_eq!(snapshots.len(), barrier, "seed {seed}: ran past the stop");
        let cut = snapshots.last().expect("the barrier's snapshot");
        let resumed = simulated(&config, seed + 1000, None, Some(cut));
        assert!(!resumed.preempted, "seed {seed}");
        assert_eq!(digest(&resumed), reference, "seed {seed}: resumed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three Gaussian levels converging on `N(1, 0.5²)`, `ρ = 3`.
struct ThreeLevels;

impl LevelFactory for ThreeLevels {
    fn n_levels(&self) -> usize {
        3
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        let (mean, sd) = [(0.6, 0.65), (0.9, 0.55), (1.0, 0.5)][level];
        Box::new(GaussianTarget::new(vec![mean], sd))
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.8))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        3
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

#[test]
fn a_balanced_skewed_run_keeps_its_invariants_under_every_delivery() {
    // level 0 is given six of eight chains: the balancer has to move some
    let targets = [300, 200, 40];
    let mut config = RuntimeConfig::new(targets.to_vec(), vec![6, 1, 1]);
    config.base.burn_in = vec![20, 10, 5];
    config.base.load_balancing = true;
    config.collector_shards = 2;
    let mut moved = 0;
    for seed in 0..200 {
        let tracer = Tracer::new();
        // with no service time a rank's clock stands still while it
        // handles messages, so "before the phonebook's exit" is exact
        let cost = SimCost {
            phonebook_service_time: 0.0,
            collector_service_time: 0.0,
            ..cost(seed)
        };
        // no deadlock, no exhausted budget: either is an `Err`
        let sim = Run::new(&ThreeLevels, &config, &tracer, None, None)
            .on(Placement::Sim { cost: &cost, seed });
        let sim = sim.unwrap_or_else(|err| panic!("seed {seed}: {err:?}"));
        let report = &sim.report;
        for (level, n) in targets.into_iter().enumerate() {
            assert_eq!(report.levels[level].n_samples, n, "seed {seed}: N_{level}");
        }
        let reassigned = sim.phonebook.reassignments;
        assert_eq!(report.reassignments, reassigned, "seed {seed}");
        moved += reassigned;
        // no stream position is served twice: what the ledger dispatched
        // and what came back differ only by serves still running when
        // the phonebook exited (one per controller at most) and by
        // serves for a chain that was reassigned meanwhile
        let ledger = sim.phonebook.ledger;
        let dispatched = ledger.serves - ledger.spec_hits + ledger.spec_launched;
        let returned = tracer.counter(Counter::WriteBacks) as usize;
        assert!(
            dispatched <= returned + 8 && returned <= dispatched + reassigned,
            "seed {seed}: {returned} write-backs for {ledger:?}, {reassigned} reassigned"
        );
        // nothing is lost before the teardown: the phonebook is the
        // first rank to exit, and no message misses its rank before that
        let phonebook_exit = sim.clocks.as_ref().expect("simulated")[1];
        assert!(
            sim.first_drop.is_none_or(|at| at >= phonebook_exit),
            "seed {seed}: a message was dropped at {:?}, phonebook exit {phonebook_exit}",
            sim.first_drop,
        );
    }
    assert!(moved > 0, "the balancer never moved a chain");
}
